//! Tridiagonal system solvers.
//!
//! The HEVI (horizontally explicit, vertically implicit) dynamical core of
//! `bda-scale` treats vertically propagating acoustic and gravity modes
//! implicitly, which reduces each column update to a tridiagonal solve — the
//! same structure as in SCALE-RM. The Thomas algorithm below is the
//! workhorse.

use crate::real::Real;

/// Solve `A x = a` and `A y = b` for tridiagonal `A` in one Thomas sweep,
/// overwriting `a` with `x` and `b` with `y`.
///
/// `sub[i]` is the subdiagonal coefficient of row `i` (with `sub[0]` unused),
/// `diag[i]` the main diagonal, `sup[i]` the superdiagonal (with `sup[n-1]`
/// unused). Scratch must be at least `n` long. The matrix is eliminated
/// once, and each right-hand side goes through exactly the division-form
/// arithmetic of a one-right-hand-side Thomas solve, so both results are
/// the same bits as two such solves. (The reciprocal form of
/// [`ThomasFactor`] rounds differently.) Stable for diagonally dominant
/// systems.
///
/// # Panics
/// Panics if slice lengths disagree or a pivot underflows to zero.
// The entry asserts pin every slice to length n; the in-loop `i±1`
// offsets stay inside `1..n` / `0..n-1`.
// bda-check: allow(panic_path)
pub fn solve_thomas_pair<T: Real>(
    sub: &[T],
    diag: &[T],
    sup: &[T],
    a: &mut [T],
    b: &mut [T],
    scratch: &mut [T],
) {
    let n = diag.len();
    assert_eq!(sub.len(), n);
    assert_eq!(sup.len(), n);
    assert_eq!(a.len(), n);
    assert_eq!(b.len(), n);
    assert!(scratch.len() >= n);
    assert!(n > 0);

    // Forward sweep.
    let mut beta = diag[0];
    assert!(beta.abs() > T::zero(), "zero pivot in Thomas algorithm");
    a[0] /= beta;
    b[0] /= beta;
    for i in 1..n {
        scratch[i] = sup[i - 1] / beta;
        beta = diag[i] - sub[i] * scratch[i];
        assert!(beta.abs() > T::zero(), "zero pivot in Thomas algorithm");
        a[i] = (a[i] - sub[i] * a[i - 1]) / beta;
        b[i] = (b[i] - sub[i] * b[i - 1]) / beta;
    }
    // Back substitution.
    for i in (0..n - 1).rev() {
        let correction = scratch[i + 1] * a[i + 1];
        a[i] -= correction;
        let correction = scratch[i + 1] * b[i + 1];
        b[i] -= correction;
    }
}

/// A precomputed Thomas factorization for coefficient sets shared across
/// many right-hand sides.
///
/// The HEVI vertically-implicit operator's coefficients depend only on the
/// level (base state, grid metrics, time step) — not on the column — so one
/// factorization serves every column of the domain. Factoring once replaces
/// the per-column division chain with multiplications by the stored
/// reciprocal pivots, and [`ThomasFactor::solve_columns`] then sweeps a
/// whole block of columns with a unit-stride inner loop (the cache-tiled
/// batch shape of the HEVI sweep).
#[derive(Clone, Debug, Default)]
pub struct ThomasFactor<T> {
    /// Forward-elimination multipliers `sup[i-1] / beta[i-1]` (index 0
    /// unused) — also the back-substitution coefficients.
    w: Vec<T>,
    /// Reciprocal pivots `1 / beta[i]`.
    inv_beta: Vec<T>,
    /// Subdiagonal copy (index 0 unused).
    sub: Vec<T>,
    n: usize,
}

impl<T: Real> ThomasFactor<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// System size of the current factorization.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Factor the tridiagonal operator (same slice conventions as
    /// [`solve_thomas_pair`]). Allocation-free after warm-up.
    ///
    /// # Panics
    /// Panics if slice lengths disagree or a pivot underflows to zero.
    // Entry asserts are the documented contract; `w`/`inv_beta` are resized
    // to n before the loop, so `i±1` indexing over `1..n` cannot panic.
    // bda-check: allow(panic_path)
    pub fn factor(&mut self, sub: &[T], diag: &[T], sup: &[T]) {
        let n = diag.len();
        assert_eq!(sub.len(), n);
        assert_eq!(sup.len(), n);
        assert!(n > 0);
        self.n = n;
        self.w.clear();
        self.w.resize(n, T::zero());
        self.inv_beta.clear();
        self.inv_beta.resize(n, T::zero());
        self.sub.clear();
        self.sub.extend_from_slice(sub);

        let mut beta = diag[0];
        assert!(beta.abs() > T::zero(), "zero pivot in Thomas factorization");
        self.inv_beta[0] = T::one() / beta;
        for i in 1..n {
            self.w[i] = sup[i - 1] * self.inv_beta[i - 1];
            beta = diag[i] - sub[i] * self.w[i];
            assert!(beta.abs() > T::zero(), "zero pivot in Thomas factorization");
            self.inv_beta[i] = T::one() / beta;
        }
    }

    /// Solve `ncols` right-hand sides at once. `block` is row-major
    /// `[level][column]` (level-major, columns contiguous), so both sweeps
    /// run a unit-stride inner loop across columns — the operation the
    /// autovectorizer turns into full-width SIMD. Each column's arithmetic
    /// is identical to a one-column solve, so the blocked solve is
    /// bit-identical to solving the columns one at a time.
    // The entry assert pins `block` to n*ncols; every row offset is a
    // `split_at_mut` product strictly inside that length.
    // bda-check: allow(panic_path)
    pub fn solve_columns(&self, block: &mut [T], ncols: usize) {
        let n = self.n;
        assert_eq!(block.len(), n * ncols);
        if ncols == 0 {
            return;
        }
        let inv0 = self.inv_beta[0];
        for x in &mut block[..ncols] {
            *x *= inv0;
        }
        for i in 1..n {
            let s = self.sub[i];
            let ib = self.inv_beta[i];
            let (prev_rows, cur_rows) = block.split_at_mut(i * ncols);
            let prev = &prev_rows[(i - 1) * ncols..];
            let cur = &mut cur_rows[..ncols];
            for (x, &p) in cur.iter_mut().zip(prev) {
                *x = (*x - s * p) * ib;
            }
        }
        for i in (0..n - 1).rev() {
            let w1 = self.w[i + 1];
            let (cur_rows, next_rows) = block.split_at_mut((i + 1) * ncols);
            let cur = &mut cur_rows[i * ncols..];
            let next = &next_rows[..ncols];
            for (x, &nx) in cur.iter_mut().zip(next) {
                let correction = w1 * nx;
                *x -= correction;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use proptest::prelude::*;

    impl<T: Real> ThomasFactor<T> {
        /// Solve one right-hand side in place using the stored factorization:
        /// the per-column reference [`Self::solve_columns`] is tested against.
        pub fn solve(&self, d: &mut [T]) {
            let n = self.n;
            assert_eq!(d.len(), n);
            d[0] *= self.inv_beta[0];
            for i in 1..n {
                d[i] = (d[i] - self.sub[i] * d[i - 1]) * self.inv_beta[i];
            }
            for i in (0..n - 1).rev() {
                let correction = self.w[i + 1] * d[i + 1];
                d[i] -= correction;
            }
        }
    }

    /// Solve `A x = d` for tridiagonal `A` using the Thomas algorithm.
    ///
    /// `sub[i]` is the subdiagonal coefficient of row `i` (with `sub[0]` unused),
    /// `diag[i]` the main diagonal, `sup[i]` the superdiagonal (with `sup[n-1]`
    /// unused). The solution overwrites `d`. Scratch must be at least `n` long.
    ///
    /// The algorithm is stable for diagonally dominant systems, which the
    /// vertically implicit operator always is (its diagonal carries the
    /// `1 + dt^2 c_s^2 / dz^2` acoustic term).
    ///
    /// # Panics
    /// Panics if slice lengths disagree or a pivot underflows to zero.
    fn solve_thomas<T: Real>(sub: &[T], diag: &[T], sup: &[T], d: &mut [T], scratch: &mut [T]) {
        let n = diag.len();
        assert_eq!(sub.len(), n);
        assert_eq!(sup.len(), n);
        assert_eq!(d.len(), n);
        assert!(scratch.len() >= n);
        assert!(n > 0);

        // Forward sweep.
        let mut beta = diag[0];
        assert!(beta.abs() > T::zero(), "zero pivot in Thomas algorithm");
        d[0] /= beta;
        for i in 1..n {
            scratch[i] = sup[i - 1] / beta;
            beta = diag[i] - sub[i] * scratch[i];
            assert!(beta.abs() > T::zero(), "zero pivot in Thomas algorithm");
            d[i] = (d[i] - sub[i] * d[i - 1]) / beta;
        }
        // Back substitution.
        for i in (0..n - 1).rev() {
            let correction = scratch[i + 1] * d[i + 1];
            d[i] -= correction;
        }
    }

    fn solve_thomas_alloc<T: Real>(sub: &[T], diag: &[T], sup: &[T], rhs: &[T]) -> Vec<T> {
        let mut d = rhs.to_vec();
        let mut scratch = vec![T::zero(); diag.len()];
        solve_thomas(sub, diag, sup, &mut d, &mut scratch);
        d
    }

    /// Multiply a tridiagonal matrix by a vector.
    fn tridiag_matvec<T: Real>(sub: &[T], diag: &[T], sup: &[T], x: &[T]) -> Vec<T> {
        let n = diag.len();
        let mut y = vec![T::zero(); n];
        for i in 0..n {
            let mut acc = diag[i] * x[i];
            if i > 0 {
                acc += sub[i] * x[i - 1];
            }
            if i + 1 < n {
                acc += sup[i] * x[i + 1];
            }
            y[i] = acc;
        }
        y
    }

    fn residual_inf<T: Real>(sub: &[T], diag: &[T], sup: &[T], x: &[T], rhs: &[T]) -> f64 {
        tridiag_matvec(sub, diag, sup, x)
            .iter()
            .zip(rhs)
            .map(|(&a, &b)| (a - b).abs().f64())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solves_identity() {
        let n = 6;
        let sub = vec![0.0_f64; n];
        let diag = vec![1.0; n];
        let sup = vec![0.0; n];
        let rhs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = solve_thomas_alloc(&sub, &diag, &sup, &rhs);
        assert_eq!(x, rhs);
    }

    #[test]
    fn solves_diffusion_like_system_f64() {
        // -x_{i-1} + 4 x_i - x_{i+1} = rhs: strongly diagonally dominant.
        let n = 50;
        let sub = vec![-1.0_f64; n];
        let diag = vec![4.0; n];
        let sup = vec![-1.0; n];
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = solve_thomas_alloc(&sub, &diag, &sup, &rhs);
        assert!(residual_inf(&sub, &diag, &sup, &x, &rhs) < 1e-12);
    }

    #[test]
    fn solves_diffusion_like_system_f32() {
        let n = 50;
        let sub = vec![-1.0_f32; n];
        let diag = vec![4.0; n];
        let sup = vec![-1.0; n];
        let rhs: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let x = solve_thomas_alloc(&sub, &diag, &sup, &rhs);
        assert!(residual_inf(&sub, &diag, &sup, &x, &rhs) < 1e-5);
    }

    #[test]
    fn single_element_system() {
        let x = solve_thomas_alloc(&[0.0_f64], &[2.0], &[0.0], &[8.0]);
        assert_eq!(x, vec![4.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = solve_thomas_alloc(&[0.0_f64; 3], &[1.0; 4], &[0.0; 4], &[1.0; 4]);
    }

    #[test]
    fn factored_solve_matches_thomas_to_rounding() {
        // The factored path multiplies by reciprocal pivots instead of
        // dividing, so it is not bit-identical to solve_thomas — but the
        // residual must be just as small.
        let n = 40;
        let sub = vec![-1.0_f64; n];
        let diag = vec![4.0; n];
        let sup = vec![-1.3; n];
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin()).collect();
        let mut f = ThomasFactor::new();
        f.factor(&sub, &diag, &sup);
        assert_eq!(f.n(), n);
        let mut d = rhs.clone();
        f.solve(&mut d);
        assert!(residual_inf(&sub, &diag, &sup, &d, &rhs) < 1e-12);
    }

    #[test]
    fn blocked_columns_solve_is_bit_identical_to_single_column_solves() {
        let n = 12;
        let ncols = 7;
        let sub = vec![-0.8_f32; n];
        let diag = vec![3.5; n];
        let sup = vec![-0.6; n];
        let mut f = ThomasFactor::new();
        f.factor(&sub, &diag, &sup);

        // block[level][col], plus per-column reference solves.
        let mut block: Vec<f32> = (0..n * ncols).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut singles: Vec<Vec<f32>> = (0..ncols)
            .map(|c| (0..n).map(|k| block[k * ncols + c]).collect())
            .collect();
        f.solve_columns(&mut block, ncols);
        for (c, col) in singles.iter_mut().enumerate() {
            f.solve(col);
            for k in 0..n {
                assert_eq!(
                    block[k * ncols + c].to_bits(),
                    col[k].to_bits(),
                    "col {c} level {k}"
                );
            }
        }
    }

    #[test]
    fn refactoring_reuses_buffers_for_new_sizes() {
        let mut f = ThomasFactor::<f64>::new();
        for n in [5usize, 17, 3] {
            let sub = vec![-1.0; n];
            let diag = vec![5.0; n];
            let sup = vec![-1.0; n];
            let rhs: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            f.factor(&sub, &diag, &sup);
            let mut d = rhs.clone();
            f.solve(&mut d);
            assert!(residual_inf(&sub, &diag, &sup, &d, &rhs) < 1e-12, "n={n}");
        }
    }

    #[test]
    fn solve_columns_empty_block_is_fine() {
        let mut f = ThomasFactor::<f64>::new();
        f.factor(&[0.0, -1.0], &[2.0, 2.0], &[-1.0, 0.0]);
        let mut empty: Vec<f64> = Vec::new();
        f.solve_columns(&mut empty, 0);
    }

    proptest! {
        /// The two-right-hand-side Thomas sweep equals two `solve_thomas`
        /// calls bit for bit, for both right-hand sides.
        #[test]
        fn thomas_pair_is_bitwise_two_single_solves(
            seed in any::<u64>(),
            n in 1usize..20,
        ) {
            let mut rng = SplitMix64::new(seed);
            let mut draw = |mean: f32, sd: f32| -> Vec<f32> {
                (0..n).map(|_| rng.gaussian(mean, sd)).collect()
            };
            let (sub, sup) = (draw(-0.3, 0.2), draw(-0.3, 0.2));
            let diag = draw(1.8, 0.3);
            let (a0, b0) = (draw(0.0, 3.0), draw(0.0, 3.0));
            let mut scratch = vec![0.0f32; n];
            let (mut a1, mut b1) = (a0.clone(), b0.clone());
            solve_thomas(&sub, &diag, &sup, &mut a1, &mut scratch);
            solve_thomas(&sub, &diag, &sup, &mut b1, &mut scratch);
            let (mut a2, mut b2) = (a0, b0);
            solve_thomas_pair(&sub, &diag, &sup, &mut a2, &mut b2, &mut scratch);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&a1), bits(&a2));
            prop_assert_eq!(bits(&b1), bits(&b2));
        }
    }
}
