//! Ensemble-space transform weights (the heart of the LETKF).
//!
//! For one analysis grid point with `nobs` localized observations and `k`
//! members, the transform is (Hunt et al. 2007):
//!
//! ```text
//! A      = (k-1)/rho I + Yb^T R~^-1 Yb          (k x k, symmetric)
//! A      = V diag(lambda) V^T                   (the eigensolve)
//! Pa~    = V diag(1/lambda) V^T
//! wbar   = Pa~ Yb^T R~^-1 (y - H xbar)
//! W      = sqrt(k-1) V diag(lambda^-1/2) V^T
//! ```
//!
//! where `R~^-1` carries the Gaspari–Cohn localization weights
//! (R-localization). RTPP inflation (Table 2, factor alpha = 0.95) relaxes
//! the posterior perturbations toward the prior:
//! `W_final = alpha I + (1 - alpha) W`, and the full member transform is
//! `T[n][m] = W_final[n][m] + wbar[n]`.

use bda_num::matrix::{axpy, dot8};
use bda_num::{BatchedEigen, MatrixS, Real};

/// Gathered local observations for one grid point, in ensemble-space form.
#[derive(Clone, Debug)]
pub struct LocalObs<T> {
    /// Innovations `y_i - mean(H x)_i`.
    pub dy: Vec<T>,
    /// Localized inverse error variances `w_i / sigma_i^2`.
    pub rinv: Vec<T>,
    /// Observation-space perturbations, row-major `[obs][member]`.
    pub yb: Vec<T>,
    k: usize,
}

impl<T: Real> LocalObs<T> {
    pub fn new(k: usize) -> Self {
        Self {
            dy: Vec::new(),
            rinv: Vec::new(),
            yb: Vec::new(),
            k,
        }
    }

    pub fn clear(&mut self) {
        self.dy.clear();
        self.rinv.clear();
        self.yb.clear();
    }

    pub fn nobs(&self) -> usize {
        self.dy.len()
    }

    /// Append one localized observation: innovation, localized 1/r, and the
    /// k member perturbations in observation space.
    pub fn push(&mut self, dy: T, rinv: T, yb_row: &[T]) {
        debug_assert_eq!(yb_row.len(), self.k);
        self.dy.push(dy);
        self.rinv.push(rinv);
        self.yb.extend_from_slice(yb_row);
    }

    #[inline]
    pub fn yb_row(&self, i: usize) -> &[T] {
        &self.yb[i * self.k..(i + 1) * self.k]
    }
}

/// Floor for eigenvalues of the (theoretically SPD) ensemble-space matrix,
/// guarding single-precision round-off.
fn lambda_floor<T: Real>(k: usize) -> T {
    T::of(1e-6) * T::of_usize(k)
}

/// Reused intermediates for [`compute_transform`]: the ensemble-space matrix
/// and the ensemble-sized vectors it chains through. One scratch per worker
/// makes the per-gridpoint solve allocation-free after warm-up.
#[derive(Clone, Debug, Default)]
pub struct TransformScratch<T> {
    a: MatrixS<T>,
    b: Vec<T>,
    vtb: Vec<T>,
    wbar: Vec<T>,
    inv_sqrt: Vec<T>,
}

impl<T: Real> TransformScratch<T> {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Compute the full member transform `trans[(n, m)]` for one grid point.
///
/// `trans` must be k x k; it is overwritten. Returns `false` (leaving
/// `trans` as the identity-plus-zero-mean transform) when there are no
/// observations — the caller can skip applying it. All intermediates live
/// in `scratch`; after the first call at a given `k`, nothing allocates.
pub fn compute_transform<T: Real>(
    local: &LocalObs<T>,
    rtpp: T,
    infl_mult: T,
    solver: &mut BatchedEigen<T>,
    scratch: &mut TransformScratch<T>,
    trans: &mut MatrixS<T>,
) -> bool {
    let k = local.k;
    debug_assert_eq!(trans.n(), k);
    if local.nobs() == 0 {
        trans.reset_zeros(k);
        for m in 0..k {
            trans[(m, m)] = T::one();
        }
        return false;
    }

    let km1 = T::of_usize(k - 1);

    // A = (k-1)/rho I + Yb^T R~^-1 Yb: the Gram matrix of the observation
    // rows, weighted by the localized inverse variances.
    scratch.a.weighted_gram_into(k, &local.yb, &local.rinv);
    scratch.a.add_scaled_identity(km1 / infl_mult);

    solver.decompose_in_place(&scratch.a);
    let floor = lambda_floor::<T>(k);

    // b = Yb^T R~^-1 dy: one row-axpy per observation.
    scratch.b.clear();
    scratch.b.resize(k, T::zero());
    for i in 0..local.nobs() {
        let c = local.rinv[i] * local.dy[i];
        axpy(c, local.yb_row(i), &mut scratch.b);
    }
    // The solver hands the eigenvectors over as rows, so every product
    // below reads them at unit stride.
    // vtb = diag(1/lambda) V^T b: one dot per eigenvector.
    let vt = solver.vectors_t();
    let values = solver.values();
    scratch.vtb.clear();
    for (j, &l) in values.iter().enumerate() {
        scratch.vtb.push(dot8(vt.row(j), &scratch.b) / l.max(floor));
    }
    // wbar = V vtb: one row-axpy per eigenvector.
    scratch.wbar.clear();
    scratch.wbar.resize(k, T::zero());
    for (j, &t) in scratch.vtb.iter().enumerate() {
        axpy(t, vt.row(j), &mut scratch.wbar);
    }

    // W = sqrt(k-1) V diag(lambda^-1/2) V^T is the Gram matrix of the
    // eigenvector rows weighted by lambda^-1/2; RTPP relaxation and the
    // mean-update weights are then one pass over each row.
    scratch.inv_sqrt.clear();
    scratch
        .inv_sqrt
        .extend(values.iter().map(|&l| T::one() / l.max(floor).sqrt()));
    trans.weighted_gram_into(k, vt.as_slice(), &scratch.inv_sqrt);
    let spread = km1.sqrt() * (T::one() - rtpp);
    for (m, &wm) in scratch.wbar.iter().enumerate() {
        for t in trans.row_mut(m) {
            *t = *t * spread + wm;
        }
        trans[(m, m)] += rtpp;
    }
    true
}

/// Apply a transform to one state element: given the k member values,
/// replace them with `xbar + sum_n pert[n] * trans[(n, m)]`.
pub fn apply_transform<T: Real>(values: &mut [T], trans: &MatrixS<T>, pert: &mut [T]) {
    let k = values.len();
    debug_assert_eq!(trans.n(), k);
    debug_assert_eq!(pert.len(), k);
    let mut mean = T::zero();
    for &v in values.iter() {
        mean += v;
    }
    mean /= T::of_usize(k);
    for (p, &v) in pert.iter_mut().zip(values.iter()) {
        *p = v - mean;
    }
    // values[m] = mean + sum_n pert[n] * trans[(n, m)] as one unit-stride
    // row-axpy per `n`: each element accumulates in ascending `n` starting
    // from `mean`, exactly as the column-at-a-time form would.
    values.fill(mean);
    for (n, &p) in pert.iter().enumerate().take(k) {
        axpy(p, trans.row(n), values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_num::SplitMix64;

    /// Scalar identical-twin: state = observed quantity directly.
    fn scalar_ensemble(k: usize, mean: f64, sd: f64, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        let mut xs: Vec<f64> = (0..k).map(|_| rng.gaussian(mean, sd)).collect();
        // Recenter exactly for a clean test.
        let m: f64 = xs.iter().sum::<f64>() / k as f64;
        for x in &mut xs {
            *x += mean - m;
        }
        xs
    }

    fn build_local(xs: &[f64], obs_value: f64, obs_err: f64, loc_w: f64) -> LocalObs<f64> {
        let k = xs.len();
        let mean: f64 = xs.iter().sum::<f64>() / k as f64;
        let yb: Vec<f64> = xs.iter().map(|&x| x - mean).collect();
        let mut local = LocalObs::new(k);
        local.push(obs_value - mean, loc_w / (obs_err * obs_err), &yb);
        local
    }

    #[test]
    fn no_obs_gives_identity() {
        let k = 7;
        let local = LocalObs::<f64>::new(k);
        let mut solver = BatchedEigen::new();
        let mut scratch = TransformScratch::new();
        let mut trans = MatrixS::zeros(k);
        let any = compute_transform(&local, 0.0, 1.0, &mut solver, &mut scratch, &mut trans);
        assert!(!any);
        assert_eq!(trans, MatrixS::identity(k));
    }

    #[test]
    fn identity_transform_preserves_values() {
        let mut vals = vec![1.0, 2.0, 4.0];
        let trans = MatrixS::identity(3);
        let mut pert = vec![0.0; 3];
        apply_transform(&mut vals, &trans, &mut pert);
        assert_eq!(vals, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn mean_update_matches_scalar_kalman_gain() {
        // With a directly observed scalar state and no localization taper,
        // the LETKF mean update equals the Kalman update with the *sample*
        // background variance.
        let k = 200;
        let xs = scalar_ensemble(k, 10.0, 2.0, 42);
        let sample_var: f64 =
            xs.iter().map(|&x| (x - 10.0) * (x - 10.0)).sum::<f64>() / (k - 1) as f64;
        let obs = 16.0;
        let obs_err = 1.5;
        let local = build_local(&xs, obs, obs_err, 1.0);
        let mut solver = BatchedEigen::new();
        let mut scratch = TransformScratch::new();
        let mut trans = MatrixS::zeros(k);
        assert!(compute_transform(
            &local,
            0.0,
            1.0,
            &mut solver,
            &mut scratch,
            &mut trans
        ));
        let mut vals = xs.clone();
        let mut pert = vec![0.0; k];
        apply_transform(&mut vals, &trans, &mut pert);

        let post_mean: f64 = vals.iter().sum::<f64>() / k as f64;
        let gain = sample_var / (sample_var + obs_err * obs_err);
        let expect = 10.0 + gain * (obs - 10.0);
        assert!(
            (post_mean - expect).abs() < 0.05,
            "posterior mean {post_mean}, Kalman {expect}"
        );
        // Posterior spread shrinks by the right factor.
        let post_var: f64 =
            vals.iter().map(|&x| (x - post_mean).powi(2)).sum::<f64>() / (k - 1) as f64;
        let expect_var = (1.0 - gain) * sample_var;
        assert!(
            (post_var - expect_var).abs() / expect_var < 0.1,
            "posterior var {post_var}, expect {expect_var}"
        );
    }

    #[test]
    fn localization_weight_zero_is_like_no_obs_for_the_mean() {
        let k = 50;
        let xs = scalar_ensemble(k, 5.0, 1.0, 3);
        let local = build_local(&xs, 9.0, 1.0, 1e-12);
        let mut solver = BatchedEigen::new();
        let mut scratch = TransformScratch::new();
        let mut trans = MatrixS::zeros(k);
        compute_transform(&local, 0.0, 1.0, &mut solver, &mut scratch, &mut trans);
        let mut vals = xs.clone();
        let mut pert = vec![0.0; k];
        apply_transform(&mut vals, &trans, &mut pert);
        let post_mean: f64 = vals.iter().sum::<f64>() / k as f64;
        assert!((post_mean - 5.0).abs() < 1e-3, "mean moved to {post_mean}");
    }

    #[test]
    fn rtpp_one_preserves_prior_perturbations() {
        let k = 30;
        let xs = scalar_ensemble(k, 0.0, 1.0, 9);
        let local = build_local(&xs, 2.0, 1.0, 1.0);
        let mut solver = BatchedEigen::new();
        let mut scratch = TransformScratch::new();
        let mut trans = MatrixS::zeros(k);
        compute_transform(&local, 1.0, 1.0, &mut solver, &mut scratch, &mut trans);
        let mut vals = xs.clone();
        let mut pert = vec![0.0; k];
        apply_transform(&mut vals, &trans, &mut pert);
        let prior_mean: f64 = xs.iter().sum::<f64>() / k as f64;
        let post_mean: f64 = vals.iter().sum::<f64>() / k as f64;
        // Mean still updates...
        assert!((post_mean - prior_mean).abs() > 0.1);
        // ...but member perturbations are exactly the prior's.
        for (x, v) in xs.iter().zip(&vals) {
            let prior_pert = x - prior_mean;
            let post_pert = v - post_mean;
            assert!(
                (prior_pert - post_pert).abs() < 1e-9,
                "{prior_pert} vs {post_pert}"
            );
        }
    }

    #[test]
    fn rtpp_intermediate_blends_spread() {
        let k = 100;
        let xs = scalar_ensemble(k, 0.0, 2.0, 17);
        let spread = |v: &[f64]| -> f64 {
            let m: f64 = v.iter().sum::<f64>() / v.len() as f64;
            (v.iter().map(|&x| (x - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64).sqrt()
        };
        let run = |alpha: f64| -> f64 {
            let local = build_local(&xs, 1.0, 0.5, 1.0);
            let mut solver = BatchedEigen::new();
            let mut scratch = TransformScratch::new();
            let mut trans = MatrixS::zeros(k);
            compute_transform(&local, alpha, 1.0, &mut solver, &mut scratch, &mut trans);
            let mut vals = xs.clone();
            let mut pert = vec![0.0; k];
            apply_transform(&mut vals, &trans, &mut pert);
            spread(&vals)
        };
        let s_none = run(0.0);
        let s_mid = run(0.95);
        let s_full = run(1.0);
        assert!(
            s_none < s_mid && s_mid < s_full,
            "{s_none} {s_mid} {s_full}"
        );
        assert!((s_full - spread(&xs)).abs() < 1e-9);
    }

    #[test]
    fn multiplicative_inflation_widens_posterior() {
        let k = 60;
        let xs = scalar_ensemble(k, 0.0, 1.0, 23);
        let run = |infl: f64| -> f64 {
            let local = build_local(&xs, 1.0, 1.0, 1.0);
            let mut solver = BatchedEigen::new();
            let mut scratch = TransformScratch::new();
            let mut trans = MatrixS::zeros(k);
            compute_transform(&local, 0.0, infl, &mut solver, &mut scratch, &mut trans);
            let mut vals = xs.clone();
            let mut pert = vec![0.0; k];
            apply_transform(&mut vals, &trans, &mut pert);
            let m: f64 = vals.iter().sum::<f64>() / k as f64;
            (vals.iter().map(|&x| (x - m).powi(2)).sum::<f64>() / (k - 1) as f64).sqrt()
        };
        assert!(run(1.5) > run(1.0));
    }

    /// `nobs` observations of zero-mean member perturbations.
    fn random_local<T: Real>(k: usize, nobs: usize, seed: u64) -> LocalObs<T> {
        let mut rng = SplitMix64::new(seed);
        let mut local = LocalObs::new(k);
        for _ in 0..nobs {
            let y: Vec<f64> = (0..k).map(|_| rng.gaussian(0.0, 2.0)).collect();
            let mean = y.iter().sum::<f64>() / k as f64;
            let row: Vec<T> = y.iter().map(|&v| T::of(v - mean)).collect();
            local.push(
                T::of(rng.gaussian(0.0, 3.0)),
                T::of(rng.uniform_in(0.05, 0.5)),
                &row,
            );
        }
        local
    }

    /// The transform of the module docs written out as f64 triple loops
    /// over a Jacobi decomposition: `(trans, wbar)`.
    fn reference_transform<T: Real>(
        local: &LocalObs<T>,
        rtpp: f64,
        infl: f64,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        use bda_num::{JacobiEigen, SymEigSolver};
        let k = local.k;
        let km1 = (k - 1) as f64;
        let y = |i: usize, m: usize| local.yb_row(i)[m].f64();
        let a = MatrixS::from_fn(k, |m, n| {
            let mut acc = if m == n { km1 / infl } else { 0.0 };
            for i in 0..local.nobs() {
                acc += y(i, m) * local.rinv[i].f64() * y(i, n);
            }
            acc
        });
        let dec = JacobiEigen::default().decompose(&a);
        let spectral = |f: &dyn Fn(f64) -> f64, m: usize, n: usize| {
            let mut acc = 0.0;
            for j in 0..k {
                acc += dec.vectors[(m, j)] * f(dec.values[j]) * dec.vectors[(n, j)];
            }
            acc
        };
        let mut wbar = vec![0.0; k];
        for (m, w) in wbar.iter_mut().enumerate() {
            for n in 0..k {
                let mut b = 0.0;
                for i in 0..local.nobs() {
                    b += y(i, n) * local.rinv[i].f64() * local.dy[i].f64();
                }
                *w += spectral(&|l| 1.0 / l, m, n) * b;
            }
        }
        let trans = (0..k)
            .map(|n| {
                (0..k)
                    .map(|m| {
                        let w = km1.sqrt() * spectral(&|l| 1.0 / l.sqrt(), n, m);
                        let relaxed = (1.0 - rtpp) * w + if n == m { rtpp } else { 0.0 };
                        relaxed + wbar[n]
                    })
                    .collect()
            })
            .collect();
        (trans, wbar)
    }

    fn transform_matches_reference<T: Real>(k: usize, nobs: usize, tol: f64) {
        let local = random_local::<T>(k, nobs, 31 + k as u64);
        let rtpp = 0.95;
        let (want, wbar) = reference_transform(&local, rtpp, 1.0);
        let mut solver = BatchedEigen::new();
        let mut scratch = TransformScratch::new();
        let mut trans = MatrixS::zeros(k);
        assert!(compute_transform(
            &local,
            T::of(rtpp),
            T::one(),
            &mut solver,
            &mut scratch,
            &mut trans
        ));
        let sum_wbar: f64 = wbar.iter().sum();
        for m in 0..k {
            let mut column = 0.0;
            for n in 0..k {
                let got = trans[(n, m)].f64();
                assert!(
                    (got - want[n][m]).abs() < tol,
                    "k={k} ({n},{m}): {got} vs {}",
                    want[n][m]
                );
                // W is symmetric: without its row's mean-update weight the
                // transform is too.
                let w_nm = got - wbar[n];
                let w_mn = trans[(m, n)].f64() - wbar[m];
                assert!((w_nm - w_mn).abs() < tol, "k={k}: W not symmetric");
                column += got;
            }
            // The perturbations are zero-mean, so 1 is an eigenvector of A
            // with eigenvalue k-1 and W 1 = 1: every column sums to
            // 1 + sum(wbar).
            assert!(
                (column - (1.0 + sum_wbar)).abs() < tol * k as f64,
                "k={k}: column {m} sums to {column}, want {}",
                1.0 + sum_wbar
            );
        }
    }

    #[test]
    fn transform_matches_a_naive_f64_reference() {
        transform_matches_reference::<f64>(16, 40, 1e-10);
        transform_matches_reference::<f64>(128, 76, 1e-10);
        transform_matches_reference::<f32>(16, 40, 2e-4);
        transform_matches_reference::<f32>(128, 76, 2e-4);
        // Sizes off the 4 x 8 tile and the 16-column rotation strip.
        transform_matches_reference::<f64>(21, 9, 1e-10);
    }

    #[test]
    fn single_precision_transform_is_close_to_double() {
        let k = 40;
        let xs = scalar_ensemble(k, 10.0, 2.0, 5);
        let xs32: Vec<f32> = xs.iter().map(|&x| x as f32).collect();

        let local64 = build_local(&xs, 14.0, 2.0, 0.7);
        let mut s64 = BatchedEigen::new();
        let mut sc64 = TransformScratch::new();
        let mut t64 = MatrixS::zeros(k);
        compute_transform(&local64, 0.95, 1.0, &mut s64, &mut sc64, &mut t64);
        let mut v64 = xs.clone();
        let mut p64 = vec![0.0; k];
        apply_transform(&mut v64, &t64, &mut p64);

        let mean32: f32 = xs32.iter().sum::<f32>() / k as f32;
        let yb32: Vec<f32> = xs32.iter().map(|&x| x - mean32).collect();
        let mut local32 = LocalObs::<f32>::new(k);
        local32.push(14.0 - mean32, 0.7 / 4.0, &yb32);
        let mut s32 = BatchedEigen::new();
        let mut sc32 = TransformScratch::new();
        let mut t32 = MatrixS::zeros(k);
        compute_transform(&local32, 0.95, 1.0, &mut s32, &mut sc32, &mut t32);
        let mut v32 = xs32.clone();
        let mut p32 = vec![0.0f32; k];
        apply_transform(&mut v32, &t32, &mut p32);

        let m64: f64 = v64.iter().sum::<f64>() / k as f64;
        let m32: f32 = v32.iter().sum::<f32>() / k as f32;
        assert!(
            (m64 - m32 as f64).abs() < 1e-3,
            "f64 mean {m64} vs f32 mean {m32}"
        );
    }
}
