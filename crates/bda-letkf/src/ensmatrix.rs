//! Member-contiguous ensemble state storage.
//!
//! The LETKF transform at one grid point reads and writes the values of all
//! members at that point. Storing the ensemble member-major (one flat state
//! per member) would make that a strided gather; [`EnsembleMatrix`] instead
//! transposes to *element-major* storage where the k member values of each
//! state element are contiguous — the cache layout the transform wants, and
//! the layout that lets Rayon hand each grid point's block to a worker as
//! one mutable chunk.

use bda_num::cast;
use bda_num::Real;
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

/// Element-major ensemble storage: `data[(g * nvar + v) * k + m]` where
/// `g = (i * ny + j) * nz + kz` is the grid-point index.
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

    /// Expose the raw storage split into per-grid-point mutable blocks of
    /// `nvar * k` values each, for parallel iteration. Block `g` holds the
    /// elements of grid point `g` for all variables.
    pub fn grid_point_blocks_mut(&mut self) -> (&StateLayout, usize, &mut [T]) {
        (&self.layout, self.k, &mut self.data)
    }

    /// Block size per grid point.
    pub fn block_len(&self) -> usize {
        self.layout.nvar * self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Real> EnsembleMatrix<T> {
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
    fn block_layout_groups_grid_points() {
        let l = layout();
        let ms = members();
        let mut mat = EnsembleMatrix::from_members(&ms, l);
        let block_len = mat.block_len();
        assert_eq!(block_len, 2 * 3);
        let (_, k, data) = mat.grid_point_blocks_mut();
        assert_eq!(k, 3);
        // First block must equal elements (g=0, v=0) then (g=0, v=1).
        let b0 = &data[..block_len];
        assert_eq!(&b0[..3], mat_elem_copy(&ms, 0, 0).as_slice());
        assert_eq!(&b0[3..], mat_elem_copy(&ms, 0, 1).as_slice());
    }

    fn mat_elem_copy(ms: &[Vec<f64>], g: usize, v: usize) -> Vec<f64> {
        let l = layout();
        // g -> (i, j, kz)
        let kz = g % l.nz;
        let j = (g / l.nz) % l.ny;
        let i = g / (l.nz * l.ny);
        ms.iter().map(|m| m[l.member_index(v, i, j, kz)]).collect()
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
