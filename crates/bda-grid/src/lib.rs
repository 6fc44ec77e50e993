//! # bda-grid — grids, fields and domain decomposition
//!
//! The spatial substrate shared by the SCALE-RM analogue model, the radar
//! simulator and the LETKF:
//!
//! * [`GridSpec`] — a regular limited-area grid with uniform horizontal
//!   spacing and a (possibly stretched) vertical coordinate, matching the
//!   paper's inner domain (128 km x 128 km x 16.4 km, 500 m / 60 levels) and
//!   outer domain (1.5 km spacing).
//! * [`Field3`] — contiguous 3-D scalar storage with horizontal halo cells,
//!   `k`-fastest ordering so each vertical column is a contiguous slice (the
//!   HEVI implicit solver and the column physics both work column-wise).
//! * [`halo`] — halo filling policies (periodic for idealized tests, edge
//!   replication for the nested regional configuration).
//! * [`decomp`] — 2-D tile decomposition used to drive Rayon parallelism the
//!   way the paper distributes horizontal tiles over Fugaku nodes.
//! * [`boundary`] — Davies relaxation weights for one-way nesting.
//!
//! ## Staggering convention (Arakawa C)
//!
//! All fields are stored with identical dimensions; the interpretation is
//! staggered: `u(i,j,k)` lives on the x-face between cells `i-1` and `i`,
//! `v(i,j,k)` on the y-face between `j-1` and `j`, `w(i,j,k)` on the z-face
//! between levels `k-1` and `k` (so `w(_, _, 0)` is the surface face), and
//! all scalars at cell centers.

pub mod boundary;
pub mod decomp;
pub mod field;
pub mod halo;
pub mod spec;

pub use boundary::DaviesWeights;
pub use decomp::TileDecomp;
pub use field::{Field3, Row};
pub use spec::{GridSpec, VerticalCoord};
