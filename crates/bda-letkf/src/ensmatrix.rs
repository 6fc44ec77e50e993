//! The geometry of the analysed state. The driver gathers one tile at a
//! time into the element-major block its transform wants; the
//! whole-ensemble transpose it replaced is kept here as a test reference.

use bda_num::cast;
use serde::{Deserialize, Serialize};

/// Geometry of the flattened analysis state.
///
/// Element order within one member's flat state is variable-major:
/// `flat[((v * nx + i) * ny + j) * nz + k]` (matching
/// `bda_scale::ModelState::to_flat`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StateLayout {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub nvar: usize,
    /// Horizontal grid spacing, m.
    pub dx: f64,
    /// Cell-center heights, m.
    pub z_center: Vec<f64>,
}

impl StateLayout {
    pub fn n_grid_points(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    pub fn n_elements(&self) -> usize {
        self.n_grid_points() * self.nvar
    }

    /// Flat member-state index of (var, i, j, k).
    #[inline]
    pub fn member_index(&self, v: usize, i: usize, j: usize, k: usize) -> usize {
        ((v * self.nx + i) * self.ny + j) * self.nz + k
    }

    /// Physical cell-center position of (i, j).
    #[inline]
    pub fn xy(&self, i: usize, j: usize) -> (f64, f64) {
        (
            (cast::f64_of(i) + 0.5) * self.dx,
            (cast::f64_of(j) + 0.5) * self.dx,
        )
    }
}

/// The element-major path the tiled driver replaced, kept as the oracle
/// its parity tests compare against: the whole ensemble transposed into
/// `data[(g * nvar + v) * k + m]` (`g = (i * ny + j) * nz + kz`), every
/// grid point's block analysed by the same per-point body, and the result
/// transposed back.
#[cfg(test)]
pub(crate) mod reference {
    use super::StateLayout;
    use crate::config::LetkfConfig;
    use crate::driver::{AnalysisError, AnalysisStats, Setup, Workspace};
    use crate::obs::ObsEnsemble;
    use bda_num::Real;
    use rayon::prelude::*;

    pub struct EnsembleMatrix<T> {
        pub layout: StateLayout,
        pub k: usize,
        data: Vec<T>,
    }

    impl<T: Real> EnsembleMatrix<T> {
        /// Transpose member-major flat states into element-major storage.
        pub fn from_members(members: &[Vec<T>], layout: StateLayout) -> Self {
            let k = members.len();
            assert!(k >= 2, "ensemble needs at least 2 members");
            let n_elem_per_member = layout.nvar * layout.n_grid_points();
            for (m, member) in members.iter().enumerate() {
                assert_eq!(member.len(), n_elem_per_member, "member {m} length");
            }
            let mut data = vec![T::zero(); n_elem_per_member * k];
            let (nx, ny, nz, nvar) = (layout.nx, layout.ny, layout.nz, layout.nvar);
            for (m, member) in members.iter().enumerate() {
                for v in 0..nvar {
                    for i in 0..nx {
                        for j in 0..ny {
                            for kz in 0..nz {
                                let g = (i * ny + j) * nz + kz;
                                let src = layout.member_index(v, i, j, kz);
                                data[(g * nvar + v) * k + m] = member[src];
                            }
                        }
                    }
                }
            }
            Self { layout, k, data }
        }

        /// Transpose back into the given member-major flat states.
        pub fn to_members(&self, members: &mut [Vec<T>]) {
            assert_eq!(members.len(), self.k);
            let (nx, ny, nz, nvar) = (
                self.layout.nx,
                self.layout.ny,
                self.layout.nz,
                self.layout.nvar,
            );
            for (m, member) in members.iter_mut().enumerate() {
                assert_eq!(member.len(), self.layout.n_elements());
                for v in 0..nvar {
                    for i in 0..nx {
                        for j in 0..ny {
                            for kz in 0..nz {
                                let g = (i * ny + j) * nz + kz;
                                let dst = self.layout.member_index(v, i, j, kz);
                                member[dst] = self.data[(g * nvar + v) * self.k + m];
                            }
                        }
                    }
                }
            }
        }

        /// The k member values of element (grid point g, variable v).
        #[inline]
        pub fn element(&self, g: usize, v: usize) -> &[T] {
            let base = (g * self.layout.nvar + v) * self.k;
            &self.data[base..base + self.k]
        }

        /// Ensemble mean of element (g, v).
        pub fn element_mean(&self, g: usize, v: usize) -> T {
            let vals = self.element(g, v);
            let sum = vals.iter().copied().fold(T::zero(), |a, b| a + b);
            sum / T::of_usize(self.k)
        }
    }

    /// Analyze `members` (all alive) through the element-major transpose:
    /// one chunk of grid-point blocks per fold accumulator, as the driver
    /// ran before it was tiled.
    pub fn analyze_region<T: Real>(
        members: &mut [Vec<T>],
        layout: &StateLayout,
        obs: &ObsEnsemble<T>,
        cfg: &LetkfConfig,
        region: Option<(usize, usize)>,
    ) -> Result<AnalysisStats, AnalysisError> {
        let k = members.len();
        let setup = Setup::new(obs, cfg, layout, k)?;
        let mut mat = EnsembleMatrix::from_members(members, layout.clone());
        let (ny, nz) = (layout.ny, layout.nz);
        let stats = mat
            .data
            .par_chunks_mut(layout.nvar * k)
            .enumerate()
            .fold(
                || (AnalysisStats::default(), Workspace::new(k)),
                |(mut stats, mut ws), (g, block)| {
                    let (i, j, kz) = (g / (nz * ny), (g / nz) % ny, g % nz);
                    if region.is_some_and(|(i0, i1)| i < i0 || i >= i1) {
                        stats.points_outside_region += 1;
                    } else {
                        setup.point(&mut ws, &mut stats, (i, j, kz), block);
                    }
                    (stats, ws)
                },
            )
            .map(|(stats, _)| stats)
            .reduce(AnalysisStats::default, AnalysisStats::merge);
        mat.to_members(members);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::EnsembleMatrix;
    use super::*;

    fn layout() -> StateLayout {
        StateLayout {
            nx: 3,
            ny: 2,
            nz: 4,
            nvar: 2,
            dx: 500.0,
            z_center: vec![100.0, 300.0, 600.0, 1000.0],
        }
    }

    fn members() -> Vec<Vec<f64>> {
        let l = layout();
        (0..3)
            .map(|m| (0..l.n_elements()).map(|e| (m * 1000 + e) as f64).collect())
            .collect()
    }

    #[test]
    fn roundtrip_members() {
        let l = layout();
        let ms = members();
        let mat = EnsembleMatrix::from_members(&ms, l);
        let mut out = vec![vec![0.0; ms[0].len()]; 3];
        mat.to_members(&mut out);
        assert_eq!(out, ms);
    }

    #[test]
    fn element_gathers_across_members() {
        let l = layout();
        let ms = members();
        let mat = EnsembleMatrix::from_members(&ms, l.clone());
        // Element (g, v) with i=1, j=0, kz=2, v=1.
        let g = l.ny * l.nz + 2;
        let e = mat.element(g, 1);
        let src = l.member_index(1, 1, 0, 2);
        assert_eq!(e, &[src as f64, (1000 + src) as f64, (2000 + src) as f64]);
    }

    #[test]
    fn element_mean() {
        let l = layout();
        let ms = members();
        let mat = EnsembleMatrix::from_members(&ms, l.clone());
        let g = 0;
        let src = l.member_index(0, 0, 0, 0);
        let expect = (src as f64 + (1000 + src) as f64 + (2000 + src) as f64) / 3.0;
        assert!((mat.element_mean(g, 0) - expect).abs() < 1e-12);
    }

    #[test]
    fn xy_positions() {
        let l = layout();
        assert_eq!(l.xy(0, 0), (250.0, 250.0));
        assert_eq!(l.xy(2, 1), (1250.0, 750.0));
    }

    #[test]
    #[should_panic]
    fn single_member_rejected() {
        let l = layout();
        let _ = EnsembleMatrix::from_members(&[vec![0.0; l.n_elements()]], l);
    }
}
