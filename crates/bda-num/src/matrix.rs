//! Small dense square matrices for ensemble-space algebra.
//!
//! The LETKF works in the k-dimensional ensemble space (k = 1000 in the
//! paper's production configuration, much smaller in tests), so all matrices
//! here are modest, dense, and row-major. No BLAS is used. Every kernel is a
//! unit-stride loop of a separate multiply and add: Rust never contracts the
//! pair into a fused multiply-add, so results carry the same bits on hosts
//! with and without FMA hardware, and the loops vectorize at the baseline
//! target (where `mul_add` would be a libm call per element). Reductions
//! ([`dot8`]) keep their partial sums in a lane array, and the two products
//! ([`MatrixS::matmul_into`], [`MatrixS::weighted_gram_into`]) accumulate a
//! register tile of outputs so each loaded operand row is reused across it.

use crate::real::Real;

/// A dense `n x n` matrix in row-major order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatrixS<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Real> MatrixS<T> {
    /// Zero matrix of size `n x n`.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![T::zero(); n * n],
        }
    }

    /// Identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Build from a function of (row, col).
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                data.push(f(i, j));
            }
        }
        Self { n, data }
    }

    /// Resize to `n x n` and zero every entry, reusing the existing
    /// allocation — the allocation-free analogue of [`MatrixS::zeros`] for
    /// per-grid-point scratch matrices.
    pub fn reset_zeros(&mut self, n: usize) {
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, T::zero());
    }

    /// Overwrite `self` with a copy of `src`, reusing the existing
    /// allocation (the allocation-free analogue of `clone`).
    pub fn copy_from(&mut self, src: &Self) {
        self.n = src.n;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Swap columns `a` and `b` in place.
    pub fn swap_columns(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let n = self.n;
        for i in 0..n {
            self.data.swap(i * n + a, i * n + b);
        }
    }

    /// Swap rows `a` and `b` in place (two contiguous slices).
    // `split_at_mut(hi * n)` with lo < hi < n leaves row `lo` whole in the
    // head and row `hi` at the front of the tail.
    // bda-check: allow(panic_path)
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let n = self.n;
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * n);
        head[lo * n..(lo + 1) * n].swap_with_slice(&mut tail[..n]);
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// `self * other` into caller-owned storage (resized as needed).
    ///
    /// Outputs accumulate in 4 x 8 register tiles: per `k`, one contiguous
    /// segment of `other`'s row `k` is loaded once and reused across the
    /// tile's rows. The column panel is the outer loop, so the `n x 8` panel
    /// of `other` stays cache-resident while `self` streams past it. Each output element accumulates in
    /// ascending `k` whatever the tile shape, so edge tiles and full tiles
    /// produce the same bits.
    // The entry assert pins both operands to dimension n and `reset_zeros`
    // sizes `out`; tile origins satisfy `i0 + R <= n`, `j0 + C <= n`.
    // bda-check: allow(panic_path)
    pub fn matmul_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(self.n, other.n);
        let n = self.n;
        out.reset_zeros(n);
        let mut j0 = 0;
        while j0 + TILE_COLS <= n {
            self.matmul_panel::<TILE_COLS>(other, out, j0);
            j0 += TILE_COLS;
        }
        while j0 < n {
            self.matmul_panel::<1>(other, out, j0);
            j0 += 1;
        }
    }

    /// Output columns `j0..j0 + C` of [`Self::matmul_into`].
    fn matmul_panel<const C: usize>(&self, other: &Self, out: &mut Self, j0: usize) {
        let n = self.n;
        let mut i0 = 0;
        while i0 + TILE_ROWS <= n {
            matmul_tile::<T, TILE_ROWS, C>(&self.data, &other.data, &mut out.data, n, i0, j0);
            i0 += TILE_ROWS;
        }
        while i0 < n {
            matmul_tile::<T, 1, C>(&self.data, &other.data, &mut out.data, n, i0, j0);
            i0 += 1;
        }
    }

    /// Weighted Gram matrix of the rows of a row-major `rows` (`r x n`):
    /// `self[m][j] = sum_i scale[i] * rows[i][m] * rows[i][j]`, both
    /// triangles written from one upper-triangle computation so the result
    /// is symmetric to the bit. This is the shape of both LETKF products —
    /// `Yb^T R^-1 Yb` over the observation rows and `V f(lambda) V^T` over
    /// the eigenvector rows. Same register tile as [`Self::matmul_into`]:
    /// per `i`, the two segments of row `i` a tile needs are loaded once;
    /// each element accumulates in ascending `i`.
    // `self` is resized to n; the entry asserts pin `rows` to whole rows of
    // length n and `scale` to one weight per row; tile origins satisfy
    // `m0 + R <= n`, `j0 + C <= n`.
    // bda-check: allow(panic_path)
    pub fn weighted_gram_into(&mut self, n: usize, rows: &[T], scale: &[T]) {
        assert_eq!(rows.len(), scale.len() * n);
        self.reset_zeros(n);
        let mut m0 = 0;
        while m0 + TILE_ROWS <= n {
            self.gram_row_block::<TILE_ROWS>(rows, scale, m0);
            m0 += TILE_ROWS;
        }
        while m0 < n {
            self.gram_row_block::<1>(rows, scale, m0);
            m0 += 1;
        }
    }

    /// Output rows `m0..m0 + R` of [`Self::weighted_gram_into`], from the
    /// tile that holds the diagonal rightwards.
    fn gram_row_block<const R: usize>(&mut self, rows: &[T], scale: &[T], m0: usize) {
        let n = self.n;
        let mut j0 = m0 - m0 % TILE_COLS;
        while j0 + TILE_COLS <= n {
            gram_tile::<T, R, TILE_COLS>(rows, scale, &mut self.data, n, m0, j0);
            j0 += TILE_COLS;
        }
        while j0 < n {
            gram_tile::<T, R, 1>(rows, scale, &mut self.data, n, m0, j0);
            j0 += 1;
        }
    }

    /// Transpose, allocating the result.
    pub fn transpose(&self) -> Self {
        let mut out = self.clone();
        out.transpose_in_place();
        out
    }

    /// Transpose in place: swap each pair across the diagonal.
    pub fn transpose_in_place(&mut self) {
        let n = self.n;
        for i in 0..n {
            for j in (i + 1)..n {
                self.data.swap(i * n + j, j * n + i);
            }
        }
    }

    /// Maximum absolute off-diagonal element (symmetry/diagonalization gauge).
    pub fn max_offdiag_abs(&self) -> T {
        let n = self.n;
        let mut m = T::zero();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m = m.max(self.data[i * n + j].abs());
                }
            }
        }
        m
    }

    /// Is this matrix symmetric to within `tol`?
    pub fn is_symmetric(&self, tol: T) -> bool {
        let n = self.n;
        for i in 0..n {
            for j in (i + 1)..n {
                if (self.data[i * n + j] - self.data[j * n + i]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Add `s * I` in place.
    pub fn add_scaled_identity(&mut self, s: T) {
        let n = self.n;
        for i in 0..n {
            self.data[i * n + i] += s;
        }
    }

    /// Scale all entries in place.
    pub fn scale(&mut self, s: T) {
        for x in &mut self.data {
            *x *= s;
        }
    }
}

impl<T: Real> std::ops::Index<(usize, usize)> for MatrixS<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[i * self.n + j]
    }
}

impl<T: Real> std::ops::IndexMut<(usize, usize)> for MatrixS<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        &mut self.data[i * self.n + j]
    }
}

/// Output rows of one register tile of [`MatrixS::matmul_into`] and
/// [`MatrixS::weighted_gram_into`].
const TILE_ROWS: usize = 4;
/// Output columns of one register tile: with [`TILE_ROWS`] = 4 the `f32`
/// accumulators fill eight 128-bit registers, half the baseline x86-64 file.
const TILE_COLS: usize = 8;

/// `acc[r][c] += a[r] * b[c]`: one rank-1 step of an `R x C` register tile.
#[inline(always)]
fn tile_step<T: Real, const R: usize, const C: usize>(
    acc: &mut [[T; C]; R],
    a: &[T; R],
    b: &[T; C],
) {
    for r in 0..R {
        for c in 0..C {
            acc[r][c] += a[r] * b[c];
        }
    }
}

/// Copy `s[at..at + N]` into an array (the tile kernels' operand load).
// Callers keep `at + N` within the row they slice from.
#[inline(always)]
// bda-check: allow(panic_path)
fn segment<T: Real, const N: usize>(s: &[T], at: usize) -> [T; N] {
    let mut out = [T::zero(); N];
    out.copy_from_slice(&s[at..at + N]);
    out
}

/// `out[i0..i0+R][j0..j0+C] = (a * b)` over the same block, all `n x n`
/// row-major.
#[inline]
// bda-check: allow(panic_path)
fn matmul_tile<T: Real, const R: usize, const C: usize>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    n: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc = [[T::zero(); C]; R];
    for (k, brow) in b.chunks_exact(n).enumerate() {
        let mut ak = [T::zero(); R];
        for r in 0..R {
            ak[r] = a[(i0 + r) * n + k];
        }
        tile_step(&mut acc, &ak, &segment(brow, j0));
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let at = (i0 + r) * n + j0;
        out[at..at + C].copy_from_slice(acc_row);
    }
}

/// One `R x C` tile of the weighted Gram matrix at `(m0, j0)`; entries on
/// or above the diagonal are stored and mirrored, the rest of a tile that
/// straddles the diagonal is dropped.
#[inline]
// bda-check: allow(panic_path)
fn gram_tile<T: Real, const R: usize, const C: usize>(
    rows: &[T],
    scale: &[T],
    out: &mut [T],
    n: usize,
    m0: usize,
    j0: usize,
) {
    let mut acc = [[T::zero(); C]; R];
    for (row, &s) in rows.chunks_exact(n).zip(scale) {
        let mut left: [T; R] = segment(row, m0);
        for l in &mut left {
            *l *= s;
        }
        tile_step(&mut acc, &left, &segment(row, j0));
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let m = m0 + r;
        for (c, &v) in acc_row.iter().enumerate() {
            let j = j0 + c;
            if j >= m {
                out[m * n + j] = v;
                out[j * n + m] = v;
            }
        }
    }
}

/// Dot product with eight independent partial sums held as a lane array.
///
/// Lane `l` sums the elements at index `l` of each 8-chunk, which is the
/// shape of a vector accumulator, so the body compiles to packed multiplies
/// and adds. The lanes combine in a fixed order,
/// `((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7))`, then a sequential
/// tail, so the result is deterministic for a given length — but it is
/// *not* bit-identical to a sequential dot product (different association).
#[inline]
pub fn dot8<T: Real>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [T::zero(); 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..8 {
            lanes[l] += xa[l] * xb[l];
        }
    }
    let mut acc = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += x * y;
    }
    acc
}

/// `y += alpha * x` (axpy), elementwise: one multiply and one add per
/// element, no cross-element dependency.
#[inline]
pub fn axpy<T: Real>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dot product of two equal-length slices, strictly sequential accumulation
    /// order (one chain of multiply-then-add): the reference [`dot8`] is
    /// tested against.
    fn dot<T: Real>(a: &[T], b: &[T]) -> T {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = T::zero();
        for (&x, &y) in a.iter().zip(b) {
            acc += x * y;
        }
        acc
    }

    impl<T: Real> MatrixS<T> {
        /// Build from a row-major slice; panics if `data.len() != n*n`.
        pub fn from_rows(n: usize, data: &[T]) -> Self {
            assert_eq!(data.len(), n * n, "row-major data must be n*n long");
            Self {
                n,
                data: data.to_vec(),
            }
        }

        /// Frobenius norm.
        pub fn frobenius(&self) -> T {
            self.data
                .iter()
                .fold(T::zero(), |acc, &x| acc + x * x)
                .sqrt()
        }

        /// `self * other`, allocating the result.
        pub fn matmul(&self, other: &Self) -> Self {
            let mut out = Self::zeros(self.n);
            self.matmul_into(other, &mut out);
            out
        }
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = MatrixS::<f64>::from_fn(4, |i, j| (i * 4 + j) as f64);
        let i4 = MatrixS::identity(4);
        assert_eq!(a.matmul(&i4), a);
        assert_eq!(i4.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = MatrixS::from_rows(2, &[1.0, 2.0, 3.0, 4.0]);
        let b = MatrixS::from_rows(2, &[5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = MatrixS::<f32>::from_fn(5, |i, j| (i as f32) - 2.0 * (j as f32));
        let t = a.transpose();
        assert_eq!(t[(1, 3)], a[(3, 1)]);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn frobenius_of_identity() {
        let i = MatrixS::<f64>::identity(9);
        assert!((i.frobenius() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn add_scaled_identity_hits_diagonal_only() {
        let mut a = MatrixS::<f64>::zeros(3);
        a.add_scaled_identity(2.5);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a[(i, j)], if i == j { 2.5 } else { 0.0 });
            }
        }
    }

    #[test]
    fn dot_and_axpy() {
        let x = [1.0_f64, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        assert_eq!(dot(&x, &y), 10.0 + 40.0 + 90.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn max_offdiag_ignores_diagonal() {
        let a = MatrixS::from_rows(2, &[100.0, 1.0, -3.0, 100.0]);
        assert_eq!(a.max_offdiag_abs(), 3.0);
    }

    #[test]
    #[should_panic]
    fn from_rows_rejects_wrong_len() {
        let _ = MatrixS::<f64>::from_rows(3, &[1.0, 2.0]);
    }

    #[test]
    fn dot8_matches_dot_to_rounding_at_all_lengths() {
        // Cover the empty, sub-unroll, exact-multiple and ragged cases.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 33, 100] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
            let seq = dot(&a, &b);
            let unr = dot8(&a, &b);
            assert!(
                (seq - unr).abs() <= 1e-12 * (1.0 + seq.abs()),
                "n={n}: {seq} vs {unr}"
            );
        }
    }

    #[test]
    fn kernels_are_unfused_multiply_then_add() {
        // 1 + 2^-27 squared is 1 + 2^-26 + 2^-54: the product rounds to
        // 1 + 2^-26 before the add, a fused multiply-add would keep the
        // 2^-54 and return it after the exact cancellation.
        let x = 1.0 + 2.0_f64.powi(-27);
        let p = x * x;
        assert_eq!(dot(&[1.0, x], &[-p, x]), 0.0);
        let mut y = [-p];
        axpy(x, &[x], &mut y);
        assert_eq!(y[0], 0.0);
        let mut a = [0.0; 16];
        let mut b = [0.0; 16];
        (a[0], b[0]) = (1.0, -p);
        (a[8], b[8]) = (x, x);
        assert_eq!(dot8(&a, &b), 0.0);
    }

    /// Ascending-`k` triple loop: the accumulation order every tile shape
    /// of `matmul_into` must reproduce to the bit.
    fn matmul_reference(a: &MatrixS<f64>, b: &MatrixS<f64>) -> MatrixS<f64> {
        let n = a.n();
        MatrixS::from_fn(n, |i, j| {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a[(i, k)] * b[(k, j)];
            }
            acc
        })
    }

    #[test]
    fn matmul_into_is_bitwise_the_ascending_k_sum_at_every_tile_shape() {
        // Sizes with and without row/column remainders against the 4 x 8
        // tile; `out` starts at the wrong size and must be resized.
        for n in [1usize, 3, 4, 7, 8, 9, 12, 21, 32, 100] {
            let a = MatrixS::<f64>::from_fn(n, |i, j| ((i * 31 + j * 17) as f64 * 0.01).sin());
            let b = MatrixS::<f64>::from_fn(n, |i, j| ((i * 13 + j * 7) as f64 * 0.02).cos());
            let want = matmul_reference(&a, &b);
            let mut out = MatrixS::zeros(1);
            a.matmul_into(&b, &mut out);
            assert_eq!(out.n(), n);
            for (x, y) in out.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn weighted_gram_is_symmetric_and_bitwise_the_ascending_row_sum() {
        for (n, r) in [(1usize, 3usize), (5, 0), (7, 4), (8, 8), (13, 30), (32, 5)] {
            let rows: Vec<f64> = (0..r * n).map(|t| (t as f64 * 0.37).sin()).collect();
            let scale: Vec<f64> = (0..r).map(|i| 0.5 + i as f64 * 0.25).collect();
            let mut g = MatrixS::zeros(2);
            g.weighted_gram_into(n, &rows, &scale);
            assert_eq!(g.n(), n);
            assert!(g.is_symmetric(0.0), "n={n} r={r}");
            for m in 0..n {
                for j in m..n {
                    let mut acc = 0.0;
                    for i in 0..r {
                        acc += (rows[i * n + m] * scale[i]) * rows[i * n + j];
                    }
                    assert_eq!(g[(m, j)].to_bits(), acc.to_bits(), "n={n} r={r} ({m},{j})");
                }
            }
        }
    }

    #[test]
    fn swap_columns_rows_and_copy_from() {
        let mut a = MatrixS::from_rows(2, &[1.0, 2.0, 3.0, 4.0]);
        a.swap_columns(0, 1);
        assert_eq!(a.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
        a.swap_columns(1, 1); // no-op
        assert_eq!(a.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
        a.swap_rows(1, 0);
        assert_eq!(a.as_slice(), &[4.0, 3.0, 2.0, 1.0]);
        a.swap_rows(0, 0); // no-op
        assert_eq!(a.as_slice(), &[4.0, 3.0, 2.0, 1.0]);
        let mut b = MatrixS::zeros(5);
        b.copy_from(&a);
        assert_eq!(b, a);
    }

    #[test]
    fn reset_zeros_resizes_and_clears() {
        let mut a = MatrixS::from_rows(2, &[1.0, 2.0, 3.0, 4.0]);
        a.reset_zeros(3);
        assert_eq!(a.n(), 3);
        assert!(a.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(a.as_slice().len(), 9);
    }
}
