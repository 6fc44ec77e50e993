//! # bda-scale — a SCALE-RM analogue: nonhydrostatic convective-scale model
//!
//! From-scratch reproduction of the model component of the BDA system
//! (SCALE-RM; Nishizawa et al. 2015), at the fidelity needed to reproduce the
//! paper's experiments:
//!
//! * **Dynamics** — quasi-compressible nonhydrostatic equations on an
//!   Arakawa-C grid integrated with the paper's HEVI strategy (Table 3:
//!   "explicit in the horizontal, implicit in the vertical"). Horizontal
//!   acoustic/advective terms are integrated forward-backward explicitly;
//!   vertically propagating acoustic modes are treated with a fully implicit
//!   tridiagonal solve per column (`bda_num::tridiag`).
//! * **Microphysics** — single-moment 6-category scheme (qv, qc, qr, qi, qs,
//!   qg) in the spirit of Tomita (2008): saturation adjustment,
//!   auto-conversion, accretion, melting/freezing, evaporation/sublimation
//!   and sedimentation with species-dependent terminal velocities.
//! * **Turbulence** — Smagorinsky (1963) horizontal mixing plus a prognostic
//!   TKE boundary-layer scheme of the MYNN level-2.5 class with implicit
//!   vertical diffusion.
//! * **Surface fluxes** — Beljaars-type bulk formulae with a stability
//!   correction.
//! * **Radiation** — a two-band clear-sky/cloud-modulated heating profile
//!   standing in for MSTRN-X (substitution documented in DESIGN.md).
//! * **Nesting & forcing** — synthetic "JMA mesoscale"-style boundary data
//!   drives the outer domain; the outer ensemble drives the inner 500-m
//!   domain through a Davies relaxation rim, matching Fig. 3b.
//! * **Ensembles** — containers and Rayon-parallel propagation for the
//!   1000-member analysis ensemble and the 11-member forecast ensemble.
//!
//! Everything is generic over [`bda_num::Real`], reproducing the paper's
//! single-precision conversion as a type parameter.

pub mod advect;
pub mod base;
pub mod config;
pub mod constants;
pub mod dynamics;
pub mod ensemble;
pub mod forcing;
pub mod microphys;
pub mod model;
pub mod nesting;
pub mod radiation;
pub mod state;
pub mod surface;
pub mod turbulence;

pub use base::BaseState;
pub use config::{ModelConfig, PhysicsSwitches};
pub use ensemble::{Ensemble, EnsembleHealth, MemberError, MemberHealth};
pub use model::Model;
pub use state::{ModelState, PrognosticVar, ANALYZED_VARS};
