//! Symmetric eigensolvers.
//!
//! The LETKF solves, at *every* analysis grid point, a symmetric eigenproblem
//! of the size of the ensemble (k = 1000 in the paper; 256 x 256 x 60 solves
//! per 30-second cycle). The paper replaced the standard LAPACK solver with
//! KeDV (Kudo & Imamura 2019), a cache-efficient, batched tridiagonalization.
//!
//! This module provides the same algorithmic contrast from scratch:
//!
//! * [`JacobiEigen`] — a robust cyclic Jacobi solver, our stand-in for the
//!   "reference" dense solver (simple, accurate, O(n^3) per sweep with several
//!   sweeps).
//! * [`BatchedEigen`] — the production solver the LETKF runs: Householder
//!   tridiagonalization followed by implicit-shift QL iteration (the
//!   classic `tred2`/`tqli` pair, the algorithm family LAPACK's `ssyev`
//!   drives and substantially faster than Jacobi), with all workspace
//!   amortized across a batch of same-size problems and every inner loop
//!   on contiguous rows, mirroring the batching and cache-efficiency ideas
//!   of KeDV. The `ablation_eigensolver` bench reproduces the paper's
//!   solver comparison.

mod batched;
mod jacobi;
mod ql;

pub use batched::BatchedEigen;
pub use jacobi::JacobiEigen;

use crate::matrix::MatrixS;
use crate::real::Real;

/// Result of a symmetric eigendecomposition `A = V diag(lambda) V^T`.
///
/// Eigenvalues are sorted ascending; column `j` of `vectors` is the
/// eigenvector for `values[j]`.
#[derive(Clone, Debug)]
pub struct SymEigDecomp<T> {
    pub values: Vec<T>,
    pub vectors: MatrixS<T>,
}

impl<T: Real> SymEigDecomp<T> {
    /// Largest |residual| entry of `A v - lambda v` over all pairs, a direct
    /// correctness gauge used in tests.
    // bda-check: allow(uncalled_pub) -- the residual oracle the eigensolver tests in this crate and `tests/invariants_proptest.rs` compare against
    pub fn max_residual(&self, a: &MatrixS<T>) -> T {
        let n = self.values.len();
        let mut worst = T::zero();
        for j in 0..n {
            for i in 0..n {
                let mut av = T::zero();
                for k in 0..n {
                    av += a[(i, k)] * self.vectors[(k, j)];
                }
                worst = worst.max((av - self.values[j] * self.vectors[(i, j)]).abs());
            }
        }
        worst
    }
}

/// A solver for dense symmetric eigenproblems.
pub trait SymEigSolver<T: Real> {
    /// Decompose a symmetric matrix. Implementations may assume (and only
    /// debug-assert) symmetry.
    fn decompose(&mut self, a: &MatrixS<T>) -> SymEigDecomp<T>;

    /// Human-readable solver name for bench reports.
    fn name(&self) -> &'static str;
}

/// Sort an eigendecomposition ascending by eigenvalue, permuting vector
/// columns to match.
pub(crate) fn sort_ascending<T: Real>(values: &mut [T], vectors: &mut MatrixS<T>) {
    let mut order = Vec::new();
    sort_ascending_with(values, &mut order, |i, j| vectors.swap_columns(i, j));
}

/// Sort `values` ascending with caller-owned index scratch, calling
/// `swap_vectors(i, j)` for every exchange so the caller's eigenvectors
/// (columns or rows, whichever it stores) follow. After warm-up the sort
/// allocates nothing: the permutation is applied in place by walking its
/// cycles with swaps instead of cloning the matrix.
pub(crate) fn sort_ascending_with<T: Real>(
    values: &mut [T],
    order: &mut Vec<usize>,
    mut swap_vectors: impl FnMut(usize, usize),
) {
    let n = values.len();
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    // Position `i` must end up holding old position `order[i]`. Walk each
    // permutation cycle, swapping as we go; visited slots are marked with
    // usize::MAX so each cycle is applied exactly once.
    for i in 0..n {
        if order[i] == usize::MAX {
            continue;
        }
        let mut prev = i;
        let mut j = order[i];
        while j != i {
            values.swap(prev, j);
            swap_vectors(prev, j);
            let next = order[j];
            order[prev] = usize::MAX;
            prev = j;
            j = next;
        }
        order[prev] = usize::MAX;
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Deterministic random symmetric matrix with entries in [-1, 1] and a
    /// diagonal shift making it comfortably positive definite when asked.
    pub fn random_symmetric<T: Real>(n: usize, seed: u64, spd_shift: f64) -> MatrixS<T> {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let mut a = MatrixS::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = T::of(rng.next_uniform() * 2.0 - 1.0);
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a.add_scaled_identity(T::of(spd_shift));
        a
    }

    /// The LETKF's ensemble-space matrix `(k-1) I + Y^T R^-1 Y` for `nobs`
    /// observations of zero-mean member perturbations: with `nobs << k` it
    /// has `k - nobs` copies of the eigenvalue `k - 1`.
    pub fn letkf_shaped<T: Real>(k: usize, nobs: usize, seed: u64) -> MatrixS<T> {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let mut rows = Vec::with_capacity(nobs * k);
        let mut rinv = Vec::with_capacity(nobs);
        for _ in 0..nobs {
            let y: Vec<f64> = (0..k).map(|_| rng.gaussian(0.0, 2.0)).collect();
            let mean = y.iter().sum::<f64>() / k as f64;
            rows.extend(y.iter().map(|&v| T::of(v - mean)));
            rinv.push(T::of(rng.uniform_in(0.05, 1.0)));
        }
        let mut a = MatrixS::zeros(k);
        a.weighted_gram_into(k, &rows, &rinv);
        a.add_scaled_identity(T::of_usize(k - 1));
        a
    }

    pub fn check_orthonormal<T: Real>(v: &MatrixS<T>, tol: f64) {
        let n = v.n();
        let vtv = v.transpose().matmul(v);
        for i in 0..n {
            for j in 0..n {
                let want = if i == j { 1.0 } else { 0.0 };
                let got = vtv[(i, j)].f64();
                assert!(
                    (got - want).abs() < tol,
                    "V^T V [{i},{j}] = {got}, want {want}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_place_sort_matches_clone_based_reference() {
        // The cycle-walking permutation must agree with the obvious
        // clone-into-order reference, including under duplicate values.
        let mut rng = crate::rng::SplitMix64::new(99);
        for n in [1usize, 2, 5, 8, 13] {
            let vals: Vec<f64> = (0..n).map(|_| (rng.next_uniform() * 4.0).floor()).collect();
            let vecs = MatrixS::from_fn(n, |i, j| (i * n + j) as f64);

            let mut v_ref = vals.clone();
            let mut m_ref = vecs.clone();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]));
            for (new_j, &old_j) in order.iter().enumerate() {
                v_ref[new_j] = vals[old_j];
                for i in 0..n {
                    m_ref[(i, new_j)] = vecs[(i, old_j)];
                }
            }

            let mut v_got = vals.clone();
            let mut m_got = vecs.clone();
            let mut scratch = Vec::new();
            sort_ascending_with(&mut v_got, &mut scratch, |i, j| m_got.swap_columns(i, j));
            assert_eq!(v_got, v_ref, "n={n}");
            assert_eq!(m_got, m_ref, "n={n}");
        }
    }

    #[test]
    fn sort_ascending_orders_and_permutes() {
        let mut vals = vec![3.0_f64, 1.0, 2.0];
        let mut vecs = MatrixS::from_rows(3, &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        sort_ascending(&mut vals, &mut vecs);
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
        // Column 0 must now be the old column 1 (e_1).
        assert_eq!(vecs[(1, 0)], 1.0);
        assert_eq!(vecs[(0, 2)], 1.0);
    }
}
