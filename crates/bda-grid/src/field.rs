//! 3-D field storage with horizontal halos.

use bda_num::Real;
use std::ops::Range;

/// A scalar field on an `nx x ny x nz` grid with `halo` extra cells on each
/// horizontal side. Storage is `k`-fastest, so every vertical column —
/// including halo columns — is one contiguous `nz`-long slice.
#[derive(Clone, Debug, PartialEq)]
pub struct Field3<T> {
    nx: usize,
    ny: usize,
    nz: usize,
    halo: usize,
    data: Vec<T>,
}

impl<T: Real> Field3<T> {
    /// Zero-filled field.
    pub fn zeros(nx: usize, ny: usize, nz: usize, halo: usize) -> Self {
        let total = (nx + 2 * halo) * (ny + 2 * halo) * nz;
        Self {
            nx,
            ny,
            nz,
            halo,
            data: vec![T::zero(); total],
        }
    }

    /// Constant-filled field.
    pub fn constant(nx: usize, ny: usize, nz: usize, halo: usize, v: T) -> Self {
        let mut f = Self::zeros(nx, ny, nz, halo);
        f.data.fill(v);
        f
    }

    /// Build from a function of interior indices; halos are zero.
    pub fn from_fn(
        nx: usize,
        ny: usize,
        nz: usize,
        halo: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut out = Self::zeros(nx, ny, nz, halo);
        for i in 0..nx {
            for j in 0..ny {
                for k in 0..nz {
                    let v = f(i, j, k);
                    out.set(i as isize, j as isize, k, v);
                }
            }
        }
        out
    }

    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }
    #[inline]
    pub fn nz(&self) -> usize {
        self.nz
    }
    #[inline]
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Flat index for interior-or-halo coordinates. `i` and `j` may range in
    /// `-halo .. n + halo`.
    #[inline]
    pub fn idx(&self, i: isize, j: isize, k: usize) -> usize {
        debug_assert!(i >= -(self.halo as isize) && i < (self.nx + self.halo) as isize);
        debug_assert!(j >= -(self.halo as isize) && j < (self.ny + self.halo) as isize);
        debug_assert!(k < self.nz);
        let ih = (i + self.halo as isize) as usize;
        let jh = (j + self.halo as isize) as usize;
        (ih * (self.ny + 2 * self.halo) + jh) * self.nz + k
    }

    /// Read a value (interior or halo).
    #[inline]
    pub fn at(&self, i: isize, j: isize, k: usize) -> T {
        self.data[self.idx(i, j, k)]
    }

    /// Write a value (interior or halo).
    #[inline]
    pub fn set(&mut self, i: isize, j: isize, k: usize, v: T) {
        let idx = self.idx(i, j, k);
        self.data[idx] = v;
    }

    /// Add to a value in place.
    #[inline]
    pub fn add_at(&mut self, i: isize, j: isize, k: usize, v: T) {
        let idx = self.idx(i, j, k);
        self.data[idx] += v;
    }

    /// Contiguous vertical column at (i, j), halo columns allowed.
    #[inline]
    pub fn column(&self, i: isize, j: isize) -> &[T] {
        let base = self.idx(i, j, 0);
        &self.data[base..base + self.nz]
    }

    /// Mutable contiguous vertical column at (i, j).
    #[inline]
    pub fn column_mut(&mut self, i: isize, j: isize) -> &mut [T] {
        let base = self.idx(i, j, 0);
        &mut self.data[base..base + self.nz]
    }

    /// The columns `j0 .. j1` of x-row `i` as one contiguous slice,
    /// `(j1 - j0) * nz` long: column `j0 + c` starts at `c * nz`, so the
    /// neighbours of the cell at offset `t` sit at `t ± nz` (y) and
    /// `t ± 1` (z). `j0 .. j1` may reach into the halo on both sides. The
    /// whole-row kernels slice their stencil's neighbour slabs with this
    /// once per row and then run one loop over every cell of the row.
    #[inline]
    // `js` inside `-halo ..= ny + halo` (debug-asserted) keeps the span
    // inside the storage; a span outside it is a caller bug and panics.
    // bda-check: allow(panic_path)
    pub fn columns(&self, i: isize, js: Range<isize>) -> &[T] {
        debug_assert!(js.start <= js.end);
        debug_assert!(js.end <= (self.ny + self.halo) as isize);
        let base = self.idx(i, js.start, 0);
        let len = (js.end - js.start) as usize * self.nz;
        &self.data[base..base + len]
    }

    /// Raw storage (including halos) — used by the I/O layer.
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw storage (including halos).
    pub fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Fill everything (halos included) with a constant.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Copy interior and halos from another identically-shaped field.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(self.shape(), other.shape());
        self.data.copy_from_slice(&other.data);
    }

    /// `(nx, ny, nz, halo)`.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.nx, self.ny, self.nz, self.halo)
    }

    /// `self += alpha * other` over the full storage.
    pub fn axpy(&mut self, alpha: T, other: &Self) {
        assert_eq!(self.shape(), other.shape());
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiply everything by a scalar.
    pub fn scale(&mut self, s: T) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Interior mean.
    pub fn interior_mean(&self) -> T {
        let mut sum = T::zero();
        for i in 0..self.nx {
            for j in 0..self.ny {
                let col = self.column(i as isize, j as isize);
                for &v in col {
                    sum += v;
                }
            }
        }
        sum / T::of_usize(self.nx * self.ny * self.nz)
    }

    /// Maximum absolute interior value.
    pub fn interior_max_abs(&self) -> T {
        let mut m = T::zero();
        for i in 0..self.nx {
            for j in 0..self.ny {
                for &v in self.column(i as isize, j as isize) {
                    m = m.max(v.abs());
                }
            }
        }
        m
    }

    /// One-pass combined finiteness + magnitude scan of the interior:
    /// `None` if any interior value is non-finite, otherwise the maximum
    /// absolute value. The member health scan runs this per variable every
    /// cycle, so it must stay a single sweep over the data.
    pub fn interior_finite_max_abs(&self) -> Option<T> {
        let mut m = T::zero();
        for i in 0..self.nx {
            for j in 0..self.ny {
                for &v in self.column(i as isize, j as isize) {
                    if !v.is_finite() {
                        return None;
                    }
                    m = m.max(v.abs());
                }
            }
        }
        Some(m)
    }

    /// Are all interior values finite? (Blow-up detector for the model.)
    pub fn interior_all_finite(&self) -> bool {
        for i in 0..self.nx {
            for j in 0..self.ny {
                for &v in self.column(i as isize, j as isize) {
                    if !v.is_finite() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Gather the interior into a flat `Vec` in (i, j, k) k-fastest order —
    /// the canonical state-vector layout used by the LETKF and the I/O layer.
    pub fn interior_to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.nx * self.ny * self.nz);
        for i in 0..self.nx {
            for j in 0..self.ny {
                out.extend_from_slice(self.column(i as isize, j as isize));
            }
        }
        out
    }

    /// Scatter a flat interior vector (layout of [`Self::interior_to_vec`])
    /// back into the field.
    pub fn interior_from_vec(&mut self, v: &[T]) {
        assert_eq!(v.len(), self.nx * self.ny * self.nz);
        let nz = self.nz;
        for i in 0..self.nx {
            for j in 0..self.ny {
                let src = &v[(i * self.ny + j) * nz..(i * self.ny + j + 1) * nz];
                self.column_mut(i as isize, j as isize).copy_from_slice(src);
            }
        }
    }

    /// The interior x-rows `i = 0..nx`, in order and each exactly once; the
    /// halo rows are never handed out. A row is one contiguous slab of the
    /// storage, so rows of one field are disjoint: the model's row-parallel
    /// regions zip the rows of several fields and give each row to one
    /// worker.
    pub fn rows_mut(&mut self) -> impl ExactSizeIterator<Item = Row<'_, T>> {
        let slab = (self.ny + 2 * self.halo) * self.nz;
        let (nz, halo) = (self.nz, self.halo);
        self.data[halo * slab..(halo + self.nx) * slab]
            .chunks_exact_mut(slab.max(1))
            .enumerate()
            .map(move |(i, data)| Row { i, nz, halo, data })
    }

    /// Horizontal slice at level `k` as a dense row-major (`i`-major)
    /// interior-only vector — used for map products (Figs. 1 and 6).
    pub fn level_slice(&self, k: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(self.nx * self.ny);
        for j in 0..self.ny {
            for i in 0..self.nx {
                out.push(self.at(i as isize, j as isize, k));
            }
        }
        out
    }
}

/// One interior x-row of a [`Field3`]: every column at a fixed `i`, the
/// halo columns in `j` included, as handed out by [`Field3::rows_mut`].
pub struct Row<'a, T> {
    i: usize,
    nz: usize,
    halo: usize,
    data: &'a mut [T],
}

impl<T> Row<'_, T> {
    /// The row's interior x index.
    #[inline]
    pub fn i(&self) -> usize {
        self.i
    }

    #[inline]
    fn base(&self, j: isize) -> usize {
        debug_assert!(j >= -(self.halo as isize));
        (j + self.halo as isize) as usize * self.nz
    }

    /// Contiguous vertical column at `(i, j)`, halo columns allowed.
    #[inline]
    pub fn column(&self, j: isize) -> &[T] {
        let base = self.base(j);
        &self.data[base..base + self.nz]
    }

    /// Mutable contiguous vertical column at `(i, j)`.
    #[inline]
    pub fn column_mut(&mut self, j: isize) -> &mut [T] {
        let base = self.base(j);
        &mut self.data[base..base + self.nz]
    }

    /// The row's interior columns `j = 0 .. ny` as one contiguous mutable
    /// `ny * nz` slice, laid out like [`Field3::columns`].
    #[inline]
    pub fn interior_mut(&mut self) -> &mut [T] {
        let edge = self.halo * self.nz;
        let end = self.data.len() - edge;
        &mut self.data[edge..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_are_contiguous_and_indexed_correctly() {
        let mut f = Field3::<f64>::zeros(3, 4, 5, 2);
        f.set(1, 2, 3, 42.0);
        assert_eq!(f.at(1, 2, 3), 42.0);
        assert_eq!(f.column(1, 2)[3], 42.0);
        f.column_mut(0, 0)[0] = 7.0;
        assert_eq!(f.at(0, 0, 0), 7.0);
    }

    #[test]
    fn halo_cells_are_addressable() {
        let mut f = Field3::<f32>::zeros(4, 4, 3, 2);
        f.set(-2, -2, 0, 1.5);
        f.set(5, 5, 2, 2.5);
        assert_eq!(f.at(-2, -2, 0), 1.5);
        assert_eq!(f.at(5, 5, 2), 2.5);
    }

    #[test]
    fn from_fn_fills_interior_only() {
        let f = Field3::<f64>::from_fn(2, 2, 2, 1, |i, j, k| (i * 100 + j * 10 + k) as f64);
        assert_eq!(f.at(1, 1, 1), 111.0);
        assert_eq!(f.at(-1, 0, 0), 0.0);
    }

    #[test]
    fn interior_roundtrip_through_vec() {
        let f = Field3::<f64>::from_fn(3, 4, 5, 1, |i, j, k| (i + 10 * j + 100 * k) as f64);
        let v = f.interior_to_vec();
        assert_eq!(v.len(), 60);
        let mut g = Field3::<f64>::zeros(3, 4, 5, 1);
        g.interior_from_vec(&v);
        for i in 0..3 {
            for j in 0..4 {
                for k in 0..5 {
                    assert_eq!(
                        g.at(i as isize, j as isize, k),
                        f.at(i as isize, j as isize, k)
                    );
                }
            }
        }
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Field3::<f64>::constant(2, 2, 2, 1, 1.0);
        let b = Field3::<f64>::constant(2, 2, 2, 1, 2.0);
        a.axpy(3.0, &b);
        assert_eq!(a.at(0, 0, 0), 7.0);
        a.scale(0.5);
        assert_eq!(a.at(1, 1, 1), 3.5);
    }

    #[test]
    fn interior_statistics() {
        let f = Field3::<f64>::from_fn(2, 2, 1, 3, |i, j, _| (i + j) as f64);
        // values: 0,1,1,2 -> mean 1.0, max abs 2.0
        assert!((f.interior_mean() - 1.0).abs() < 1e-12);
        assert_eq!(f.interior_max_abs(), 2.0);
        assert!(f.interior_all_finite());
    }

    #[test]
    fn detects_nonfinite() {
        let mut f = Field3::<f32>::zeros(2, 2, 2, 0);
        f.set(1, 1, 1, f32::NAN);
        assert!(!f.interior_all_finite());
    }

    #[test]
    fn rows_hand_out_each_interior_slab_once_and_no_halo() {
        let (nx, ny, nz, halo) = (5, 7, 3, 2);
        let mut f = Field3::<f64>::zeros(nx, ny, nz, halo);
        let rows = f.rows_mut();
        assert_eq!(rows.len(), nx);
        for (n, mut row) in rows.enumerate() {
            assert_eq!(row.i(), n);
            for j in -(halo as isize)..(ny + halo) as isize {
                assert_eq!(row.column(j).len(), nz);
                for x in row.column_mut(j) {
                    *x += 1.0;
                }
            }
        }
        for i in -(halo as isize)..(nx + halo) as isize {
            let interior = (0..nx as isize).contains(&i);
            for j in -(halo as isize)..(ny + halo) as isize {
                let want = if interior { 1.0 } else { 0.0 };
                assert!(f.column(i, j).iter().all(|&x| x == want), "({i}, {j})");
            }
        }
    }

    #[test]
    fn column_runs_and_row_interiors_are_the_columns_laid_end_to_end() {
        let (nx, ny, nz, halo) = (3, 4, 2, 2);
        let f = Field3::<f64>::from_fn(nx, ny, nz, halo, |i, j, k| (100 * i + 10 * j + k) as f64);
        for i in 0..nx as isize {
            let run = f.columns(i, -1..ny as isize + 1);
            assert_eq!(run.len(), (ny + 2) * nz);
            for (c, j) in (-1..ny as isize + 1).enumerate() {
                assert_eq!(&run[c * nz..(c + 1) * nz], f.column(i, j));
            }
        }
        let mut g = f.clone();
        for mut row in g.rows_mut() {
            let i = row.i() as isize;
            assert_eq!(row.interior_mut(), f.columns(i, 0..ny as isize));
            row.interior_mut().fill(-1.0);
            assert_eq!(row.column(-1), f.column(i, -1));
            assert_eq!(row.column(ny as isize), f.column(i, ny as isize));
        }
    }

    #[test]
    fn level_slice_is_row_major_j_outer() {
        let f = Field3::<f64>::from_fn(2, 3, 2, 1, |i, j, k| (i + 10 * j + 100 * k) as f64);
        let s = f.level_slice(1);
        // j-major rows: (i=0..2, j fixed), j=0 first.
        assert_eq!(s, vec![100.0, 101.0, 110.0, 111.0, 120.0, 121.0]);
    }

    #[test]
    fn copy_from_matches() {
        let a = Field3::<f64>::from_fn(2, 2, 2, 1, |i, _, _| i as f64);
        let mut b = Field3::<f64>::zeros(2, 2, 2, 1);
        b.copy_from(&a);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn copy_from_rejects_shape_mismatch() {
        let a = Field3::<f64>::zeros(2, 2, 2, 1);
        let mut b = Field3::<f64>::zeros(2, 2, 3, 1);
        b.copy_from(&a);
    }
}
