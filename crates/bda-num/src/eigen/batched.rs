//! Batched eigensolver — the KeDV analogue.
//!
//! KeDV (Kudo & Imamura 2019) accelerates many same-size symmetric
//! eigenproblems by batching the tridiagonalization cache-efficiently across
//! problems. The LETKF's workload is exactly that: one k x k problem per
//! analysis grid point (256 x 256 x 60 of them per cycle in the paper).
//!
//! [`BatchedEigen`] reproduces the *engineering idea* at the scale of this
//! repository: all workspace (scratch vectors, the accumulation matrix, the
//! recorded rotations, the sort permutation, and the result buffers
//! themselves) is allocated once and reused across the batch, so the
//! per-problem cost is pure compute with warm caches and zero allocator
//! traffic, and every inner loop of the solve runs along contiguous rows
//! (its two kernels, Householder reduction and QL iteration, live in
//! `ql.rs`). The hot entry point is
//! [`BatchedEigen::decompose_in_place`], which leaves the result in
//! solver-owned storage read through [`BatchedEigen::values`] /
//! [`BatchedEigen::vectors_t`] — no per-solve `SymEigDecomp` is
//! materialized. The `ablation_eigensolver` bench compares it against
//! Jacobi.

use super::ql::{tqli, tridiagonalize};
use super::{sort_ascending_with, SymEigDecomp, SymEigSolver};
use crate::matrix::MatrixS;
use crate::real::Real;

/// Workspace-reusing batched symmetric eigensolver.
#[derive(Clone, Debug, Default)]
pub struct BatchedEigen<T> {
    d: Vec<T>,
    e: Vec<T>,
    g: Vec<T>,
    rot: Vec<(T, T)>,
    order: Vec<usize>,
    qt: MatrixS<T>,
}

impl<T: Real> BatchedEigen<T> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Pre-size the workspace for problems of dimension `n`.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            d: Vec::with_capacity(n),
            e: Vec::with_capacity(n),
            g: Vec::with_capacity(n),
            rot: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
            qt: MatrixS::zeros(n),
        }
    }

    /// Decompose one problem entirely into solver-owned storage — the
    /// allocation-free hot path. Results stay valid (via [`Self::values`] /
    /// [`Self::vectors_t`]) until the next decompose call.
    ///
    /// Householder reduction and back-accumulation build Q by rows; one
    /// in-place transposition later the QL rotations, and the final sort,
    /// act on whole rows of Q^T.
    pub fn decompose_in_place(&mut self, a: &MatrixS<T>) {
        let n = a.n();
        debug_assert!(a.is_symmetric(T::of(1e-4)), "QL requires symmetry");
        for v in [&mut self.d, &mut self.e, &mut self.g] {
            v.clear();
            v.resize(n, T::zero());
        }
        self.rot.clear();
        self.rot.resize(n, (T::zero(), T::zero()));
        self.qt.copy_from(a);
        tridiagonalize(&mut self.qt, &mut self.d, &mut self.e, &mut self.g);
        self.qt.transpose_in_place();
        tqli(&mut self.d, &mut self.e, &mut self.qt, &mut self.rot);
        let qt = &mut self.qt;
        sort_ascending_with(&mut self.d, &mut self.order, |i, j| qt.swap_rows(i, j));
    }

    /// Eigenvalues of the last [`Self::decompose_in_place`], ascending.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.d
    }

    /// Eigenvectors of the last [`Self::decompose_in_place`], transposed:
    /// *row* `j` is the eigenvector paired with `values()[j]`, so consumers
    /// read each one at unit stride.
    #[inline]
    pub fn vectors_t(&self) -> &MatrixS<T> {
        &self.qt
    }

    /// Decompose a single problem reusing the internal workspace, copying
    /// the result out in the column convention of [`SymEigDecomp`]
    /// (compatibility path; hot callers should prefer
    /// [`Self::decompose_in_place`]).
    pub fn decompose_one(&mut self, a: &MatrixS<T>) -> SymEigDecomp<T> {
        self.decompose_in_place(a);
        SymEigDecomp {
            values: self.d.clone(),
            vectors: self.qt.transpose(),
        }
    }

    /// Decompose a whole batch, returning results in order.
    pub fn decompose_batch(&mut self, batch: &[MatrixS<T>]) -> Vec<SymEigDecomp<T>> {
        batch.iter().map(|a| self.decompose_one(a)).collect()
    }
}

impl<T: Real> SymEigSolver<T> for BatchedEigen<T> {
    fn decompose(&mut self, a: &MatrixS<T>) -> SymEigDecomp<T> {
        self.decompose_one(a)
    }

    fn name(&self) -> &'static str {
        "batched-ql (KeDV analogue)"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::JacobiEigen;
    use super::*;

    #[test]
    fn batch_matches_individual_solves() {
        let batch: Vec<MatrixS<f64>> = (0..8)
            .map(|s| random_symmetric(12, s as u64 + 100, 1.0))
            .collect();
        let mut solver = BatchedEigen::new();
        let results = solver.decompose_batch(&batch);
        assert_eq!(results.len(), batch.len());
        for (a, dec) in batch.iter().zip(&results) {
            let reference = JacobiEigen::default().decompose(a);
            for (x, y) in dec.values.iter().zip(&reference.values) {
                assert!((x - y).abs() < 1e-9);
            }
            assert!(dec.max_residual(a) < 1e-9);
        }
    }

    #[test]
    fn in_place_result_is_bit_identical_to_decompose_one() {
        let a = random_symmetric::<f64>(15, 7, 1.0);
        let mut s1 = BatchedEigen::new();
        let dec = s1.decompose_one(&a);
        let mut s2 = BatchedEigen::new();
        s2.decompose_in_place(&a);
        assert_eq!(dec.values.len(), s2.values().len());
        for (x, y) in dec.values.iter().zip(s2.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(dec.vectors, s2.vectors_t().transpose());
    }

    #[test]
    fn repeated_in_place_solves_are_independent() {
        // The second solve must not be polluted by the first's buffers.
        let a = random_symmetric::<f64>(10, 1, 1.0);
        let b = random_symmetric::<f64>(10, 2, 1.0);
        let mut fresh = BatchedEigen::new();
        fresh.decompose_in_place(&b);
        let want: Vec<u64> = fresh.values().iter().map(|v| v.to_bits()).collect();
        let mut reused = BatchedEigen::new();
        reused.decompose_in_place(&a);
        reused.decompose_in_place(&b);
        let got: Vec<u64> = reused.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, got);
    }

    #[test]
    fn workspace_survives_varying_sizes() {
        let mut solver = BatchedEigen::<f64>::new();
        for n in [3usize, 17, 5, 30, 2] {
            let a = random_symmetric(n, n as u64, 2.0);
            let dec = solver.decompose_one(&a);
            assert_eq!(dec.values.len(), n);
            assert!(dec.max_residual(&a) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut solver = BatchedEigen::<f64>::new();
        assert!(solver.decompose_batch(&[]).is_empty());
    }
}
