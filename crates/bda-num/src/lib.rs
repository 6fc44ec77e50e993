//! # bda-num — numerics substrate for the Big Data Assimilation system
//!
//! This crate provides the from-scratch numerical kernels the rest of the
//! workspace builds on:
//!
//! * [`Real`] — a precision trait implemented for `f32` and `f64`. The SC'23
//!   BDA paper converted SCALE and the LETKF from double to single precision
//!   for a ~2x speedup; in this reproduction precision is a type parameter,
//!   and the `ablation_precision` bench measures the same contrast.
//! * [`matrix::MatrixS`] — small dense square matrices in row-major storage,
//!   sized for ensemble-space operations (k = ensemble size).
//! * [`tridiag`] — Thomas-algorithm tridiagonal solvers used by the HEVI
//!   vertically-implicit dynamical core.
//! * [`eigen`] — symmetric eigensolvers: a cyclic-Jacobi baseline (standing in
//!   for the LAPACK solver the paper replaced) and a Householder
//!   tridiagonalization + implicit-shift QL solver with batched, workspace-
//!   reusing execution (standing in for KeDV, Kudo & Imamura 2019).
//! * [`stats`] — mean/variance/percentile/histogram helpers used by the
//!   verification and workflow-statistics layers.
//! * [`rng`] — a tiny deterministic SplitMix64 generator with Box–Muller
//!   Gaussian sampling, generic over [`Real`], so ensemble perturbations are
//!   reproducible without threading an external RNG through every crate.

pub mod cast;
pub mod eigen;
pub mod hash;
pub mod matrix;
pub mod real;
pub mod rng;
pub mod stats;
pub mod tridiag;

pub use eigen::{BatchedEigen, JacobiEigen, QlEigen, SymEigDecomp, SymEigSolver};
pub use hash::{checksum, fnv1a, Checksum, Fnv1a};
pub use matrix::MatrixS;
pub use real::Real;
pub use rng::SplitMix64;
