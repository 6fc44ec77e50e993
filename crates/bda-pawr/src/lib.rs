//! # bda-pawr — multi-parameter phased array weather radar simulator
//!
//! Stand-in for the MP-PAWR at Saitama University (Takahashi et al. 2019)
//! that fed the BDA system: every 30 seconds it delivered a gap-free 3-D
//! volume of reflectivity and Doppler velocity out to 60 km, ~100 MB per
//! scan.
//!
//! This crate provides both halves of the radar's role in the workflow:
//!
//! * **Scanning** ([`scan`]) — observing a model "nature run" with real beam
//!   geometry: maximum range, elevation limits (cone of silence above the
//!   antenna, ground-clutter floor below the lowest beam), azimuthal
//!   blockage sectors, additive Gaussian observation noise with the paper's
//!   error standard deviations, and superobbing onto the 500-m analysis grid
//!   (Table 2: "Regridded observation resolution 500 m").
//! * **Forward operator** ([`operator`]) — the same reflectivity/Doppler
//!   observation operators applied to each ensemble member to produce the
//!   model equivalents `H(x_m)` the LETKF consumes. Reflectivity uses
//!   Lin-type Z–q power laws over rain/snow/graupel; Doppler projects the
//!   3-D wind (minus hydrometeor fall speed) onto the beam direction.
//! * **Volume codec** ([`codec`]) — a binary file format for scan volumes
//!   with the real system's data-rate characteristics, feeding the JIT-DT
//!   transfer simulation.

pub mod codec;
pub mod config;
pub mod fuzz;
pub mod geometry;
pub mod network;
pub mod operator;
pub mod reflectivity;
pub mod scan;

pub use codec::{decode_volume_salvage, encode_volume, SalvageReport, ValueBounds};
pub use config::RadarConfig;
pub use fuzz::{Corruption, MutatedVolume, VolumeMutator};
pub use network::RadarNetwork;
pub use scan::{PawrSimulator, ScanResult};
