//! Householder tridiagonalization + implicit-shift QL iteration: the two
//! kernels of [`BatchedEigen`](super::BatchedEigen).
//!
//! This is the `tred2`/`tqli` algorithm pair — the same family LAPACK's
//! symmetric drivers use, and the baseline that KeDV restructures for cache
//! efficiency. Compared to cyclic Jacobi it does one O(n^3) reduction plus a
//! cheap O(n^2)-per-eigenvalue iteration, which is why the paper's LETKF
//! gained so much from moving off a slower solver at k = 1000. Both kernels
//! work on contiguous rows only; the batched solver owns their scratch and
//! strings them together.

use crate::matrix::{axpy, dot8, MatrixS};
use crate::real::Real;

/// Columns per strip of [`tqli`]'s rotation pass: the strip's row being
/// carried and the row being read are four 128-bit registers each in
/// `f32`.
const ROT_STRIP: usize = 16;

/// Reduce symmetric `a` (lower triangle read; destroyed; becomes the
/// orthogonal accumulation matrix Q, column `j` the `j`-th basis
/// vector) to tridiagonal form with diagonal `d` and subdiagonal `e`
/// (where `e[0]` is unused). `g` is scratch of the same length.
// The asserts are the contract both phases index against.
// bda-check: allow(panic_path)
pub(super) fn tridiagonalize<T: Real>(a: &mut MatrixS<T>, d: &mut [T], e: &mut [T], g: &mut [T]) {
    let n = a.n();
    assert_eq!(d.len(), n);
    assert_eq!(e.len(), n);
    assert_eq!(g.len(), n);
    householder_reduce(a, d, e);
    accumulate_q(a, d, g);
}

/// Implicit-shift QL iteration on a tridiagonal matrix, accumulating the
/// rotations into `zt`, which enters as the *transpose* of the
/// tridiagonalizing Q and leaves with eigenvector `j` in row `j`.
/// `e[0]` is unused on entry; `rot` is scratch of length `n`.
///
/// A rotation of the plane `(i, i+1)` therefore mixes two contiguous
/// rows. The rotations of one QL sweep are recorded as they are derived
/// from `d`/`e` and applied together by [`apply_sweep`]; each element
/// still sees the same rotations in the same order as when every one is
/// applied on the spot.
// `d`/`e`/`rot` and `zt` share the dimension n; all `i±1` offsets are
// bounded by the `m < n - 1` pivot search, a sweep records at most
// `m - l < n` rotations, and the convergence assert is the documented
// failure mode of QL iteration.
// bda-check: allow(panic_path)
pub(super) fn tqli<T: Real>(d: &mut [T], e: &mut [T], zt: &mut MatrixS<T>, rot: &mut [(T, T)]) {
    let n = d.len();
    if n <= 1 {
        return;
    }
    debug_assert_eq!(zt.n(), n);
    debug_assert_eq!(rot.len(), n);
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = T::zero();

    for l in 0..n {
        let mut iter = 0;
        'restart: loop {
            // Find the first negligible subdiagonal element at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= T::eps() * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 64, "QL iteration failed to converge");

            let mut g = (d[l + 1] - d[l]) / (T::two() * e[l]);
            let mut r = g.hypot(T::one());
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = T::one();
            let mut c = T::one();
            let mut p = T::zero();
            let mut recorded = 0;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == T::zero() {
                    d[i + 1] -= p;
                    e[m] = T::zero();
                    apply_sweep(zt, m, &rot[..recorded]);
                    continue 'restart;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + T::two() * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rot[recorded] = (c, s);
                recorded += 1;
            }
            apply_sweep(zt, m, &rot[..recorded]);
            d[l] -= p;
            e[l] = g;
            e[m] = T::zero();
        }
    }
}

/// The Householder sweep of [`tridiagonalize`]: row `i` of `a`
/// ends up holding the reflector `u_i`, column `i` the scaled `u_i / H_i`,
/// `d[i]` the scalar `H_i` (zero where the step was skipped) and `e` the
/// subdiagonal.
///
/// Every O(n^2)-per-step loop runs along a row. The symmetric
/// matrix-vector product `p = A u` sweeps the lower triangle once: row `j`
/// gives `p[j]` its row part as a [`dot8`] and `p[..j]` their column parts
/// as an [`axpy`]. The rank-2 update is one pass per row.
// The caller pins `d`/`e` to the matrix dimension n; `i < n`, `l = i - 1`,
// `j < i`, and `split_at_mut(i * n)` puts rows `< i` in `lo` and row `i` at
// the front of `hi`.
// bda-check: allow(panic_path)
fn householder_reduce<T: Real>(a: &mut MatrixS<T>, d: &mut [T], e: &mut [T]) {
    let n = a.n();
    let data = a.as_mut_slice();
    for i in (1..n).rev() {
        let l = i - 1;
        let (lo, hi) = data.split_at_mut(i * n);
        let u = &mut hi[..i];
        let mut h = T::zero();
        if l > 0 {
            let mut scale = T::zero();
            for &v in u.iter() {
                scale += v.abs();
            }
            if scale == T::zero() {
                e[i] = u[l];
            } else {
                for v in u.iter_mut() {
                    *v /= scale;
                    h += *v * *v;
                }
                let f = u[l];
                let g = if f >= T::zero() { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                u[l] = f - g;
                // p = A u over the leading i x i block, left in e[..i].
                let p = &mut e[..i];
                for j in 0..i {
                    let row = &lo[j * n..j * n + j + 1];
                    p[j] = dot8(row, &u[..j + 1]);
                    axpy(u[j], &row[..j], &mut p[..j]);
                }
                let mut f = T::zero();
                for j in 0..i {
                    lo[j * n + i] = u[j] / h;
                    p[j] /= h;
                    f += p[j] * u[j];
                }
                let hh = f / (h + h);
                for (pj, &uj) in p.iter_mut().zip(u.iter()) {
                    *pj -= hh * uj;
                }
                for j in 0..i {
                    let (fj, gj) = (u[j], p[j]);
                    let row = &mut lo[j * n..j * n + j + 1];
                    for ((x, &pk), &uk) in row.iter_mut().zip(p.iter()).zip(u.iter()) {
                        *x -= fj * pk + gj * uk;
                    }
                }
            }
        } else {
            e[i] = u[l];
        }
        d[i] = h;
    }
    d[0] = T::zero();
    e[0] = T::zero();
}

/// Accumulate the reflectors left by [`householder_reduce`] into Q, in
/// place, and move the tridiagonal's diagonal into `d`.
///
/// Step `i` forms `g[..i] = sum_k a[i][k] * a[k][..i]` as row axpys in
/// ascending `k`, then subtracts `a[k][i] * g[..i]` from row `k` — element
/// for element the arithmetic of the textbook loops that walk column `j`
/// for one `g[j]` at a time, so the result is bit-identical to theirs.
// Same index bounds as `householder_reduce`; `g` has length n.
// bda-check: allow(panic_path)
fn accumulate_q<T: Real>(a: &mut MatrixS<T>, d: &mut [T], g: &mut [T]) {
    let n = a.n();
    let data = a.as_mut_slice();
    for i in 0..n {
        let (lo, hi) = data.split_at_mut(i * n);
        let row_i = &mut hi[..n];
        if d[i] != T::zero() {
            let g = &mut g[..i];
            g.fill(T::zero());
            for k in 0..i {
                axpy(row_i[k], &lo[k * n..k * n + i], g);
            }
            for k in 0..i {
                let c = lo[k * n + i];
                for (x, &gj) in lo[k * n..k * n + i].iter_mut().zip(g.iter()) {
                    *x -= gj * c;
                }
            }
        }
        d[i] = row_i[i];
        row_i[i] = T::one();
        row_i[..i].fill(T::zero());
        for k in 0..i {
            lo[k * n + i] = T::zero();
        }
    }
}

/// Apply one QL sweep's rotations to the rows of `zt`: rotation `t` mixes
/// rows `m - 1 - t` and `m - t` as `(row, next) <- (c row - s next,
/// s row + c next)`.
///
/// The rows are walked strip by strip. Within a strip the lower row of each
/// rotation is the upper row of the one before, so it is carried in
/// registers: per rotation one row segment is read and one written, and a
/// strip of every row fits the first-level cache for the whole sweep.
fn apply_sweep<T: Real>(zt: &mut MatrixS<T>, m: usize, rot: &[(T, T)]) {
    let n = zt.n();
    let data = zt.as_mut_slice();
    let mut j0 = 0;
    while j0 + ROT_STRIP <= n {
        sweep_strip::<T, ROT_STRIP>(data, n, m, rot, j0);
        j0 += ROT_STRIP;
    }
    while j0 < n {
        sweep_strip::<T, 1>(data, n, m, rot, j0);
        j0 += 1;
    }
}

/// Columns `j0..j0 + W` of [`apply_sweep`].
// `rot.len() <= m < n` and `j0 + W <= n`, so every row segment is in range.
#[inline]
// bda-check: allow(panic_path)
fn sweep_strip<T: Real, const W: usize>(
    data: &mut [T],
    n: usize,
    m: usize,
    rot: &[(T, T)],
    j0: usize,
) {
    let mut carry = [T::zero(); W];
    let at = m * n + j0;
    carry.copy_from_slice(&data[at..at + W]);
    let mut at = at;
    for &(c, s) in rot {
        let below = at;
        at -= n;
        let mut x = [T::zero(); W];
        x.copy_from_slice(&data[at..at + W]);
        let out = &mut data[below..below + W];
        for w in 0..W {
            out[w] = s * x[w] + c * carry[w];
            carry[w] = c * x[w] - s * carry[w];
        }
    }
    data[at..at + W].copy_from_slice(&carry);
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::{BatchedEigen, JacobiEigen, SymEigDecomp, SymEigSolver};
    use super::*;

    /// One solve of the production solver, in the column convention.
    fn decompose<T: Real>(a: &MatrixS<T>) -> SymEigDecomp<T> {
        BatchedEigen::new().decompose_one(a)
    }

    /// The column-walking textbook routines this module shipped before its
    /// loops were turned onto rows, kept verbatim as the reference the
    /// bit-identity tests below pin the row forms to.
    mod textbook {
        use super::*;

        pub fn reduce<T: Real>(a: &mut MatrixS<T>, d: &mut [T], e: &mut [T]) {
            let n = a.n();
            for i in (1..n).rev() {
                let l = i - 1;
                let mut h = T::zero();
                if l > 0 {
                    let mut scale = T::zero();
                    for k in 0..=l {
                        scale += a[(i, k)].abs();
                    }
                    if scale == T::zero() {
                        e[i] = a[(i, l)];
                    } else {
                        for k in 0..=l {
                            let v = a[(i, k)] / scale;
                            a[(i, k)] = v;
                            h += v * v;
                        }
                        let mut f = a[(i, l)];
                        let g = if f >= T::zero() { -h.sqrt() } else { h.sqrt() };
                        e[i] = scale * g;
                        h -= f * g;
                        a[(i, l)] = f - g;
                        f = T::zero();
                        for j in 0..=l {
                            a[(j, i)] = a[(i, j)] / h;
                            let mut g = T::zero();
                            for k in 0..=j {
                                g += a[(j, k)] * a[(i, k)];
                            }
                            for k in (j + 1)..=l {
                                g += a[(k, j)] * a[(i, k)];
                            }
                            e[j] = g / h;
                            f += e[j] * a[(i, j)];
                        }
                        let hh = f / (h + h);
                        for j in 0..=l {
                            let fj = a[(i, j)];
                            let gj = e[j] - hh * fj;
                            e[j] = gj;
                            for k in 0..=j {
                                let delta = fj * e[k] + gj * a[(i, k)];
                                a[(j, k)] -= delta;
                            }
                        }
                    }
                } else {
                    e[i] = a[(i, l)];
                }
                d[i] = h;
            }
            d[0] = T::zero();
            e[0] = T::zero();
        }

        pub fn accumulate<T: Real>(a: &mut MatrixS<T>, d: &mut [T]) {
            let n = a.n();
            for i in 0..n {
                if d[i] != T::zero() {
                    for j in 0..i {
                        let mut g = T::zero();
                        for k in 0..i {
                            g += a[(i, k)] * a[(k, j)];
                        }
                        for k in 0..i {
                            let delta = g * a[(k, i)];
                            a[(k, j)] -= delta;
                        }
                    }
                }
                d[i] = a[(i, i)];
                a[(i, i)] = T::one();
                for j in 0..i {
                    a[(j, i)] = T::zero();
                    a[(i, j)] = T::zero();
                }
            }
        }

        pub fn tqli<T: Real>(d: &mut [T], e: &mut [T], z: &mut MatrixS<T>) {
            let n = d.len();
            if n <= 1 {
                return;
            }
            for i in 1..n {
                e[i - 1] = e[i];
            }
            e[n - 1] = T::zero();
            for l in 0..n {
                let mut iter = 0;
                'restart: loop {
                    let mut m = l;
                    while m + 1 < n {
                        let dd = d[m].abs() + d[m + 1].abs();
                        if e[m].abs() <= T::eps() * dd {
                            break;
                        }
                        m += 1;
                    }
                    if m == l {
                        break;
                    }
                    iter += 1;
                    assert!(iter <= 64, "QL iteration failed to converge");
                    let mut g = (d[l + 1] - d[l]) / (T::two() * e[l]);
                    let mut r = g.hypot(T::one());
                    g = d[m] - d[l] + e[l] / (g + r.copysign(g));
                    let mut s = T::one();
                    let mut c = T::one();
                    let mut p = T::zero();
                    for i in (l..m).rev() {
                        let mut f = s * e[i];
                        let b = c * e[i];
                        r = f.hypot(g);
                        e[i + 1] = r;
                        if r == T::zero() {
                            d[i + 1] -= p;
                            e[m] = T::zero();
                            continue 'restart;
                        }
                        s = f / r;
                        c = g / r;
                        g = d[i + 1] - p;
                        r = (d[i] - g) * s + T::two() * c * b;
                        p = s * r;
                        d[i + 1] = g + p;
                        g = c * r - b;
                        for k in 0..n {
                            f = z[(k, i + 1)];
                            z[(k, i + 1)] = s * z[(k, i)] + c * f;
                            z[(k, i)] = c * z[(k, i)] - s * f;
                        }
                    }
                    d[l] -= p;
                    e[l] = g;
                    e[m] = T::zero();
                }
            }
        }
    }

    fn bits<T: Real>(xs: &[T]) -> Vec<u64> {
        xs.iter().map(|x| x.f64().to_bits()).collect()
    }

    /// Both spectra the LETKF meets, at sizes with (19, 50) and without
    /// (16, 64) a remainder against the 16-column rotation strip.
    fn pinning_inputs<T: Real>() -> Vec<MatrixS<T>> {
        let mut out = Vec::new();
        for n in [2usize, 3, 16, 19, 50, 64] {
            out.push(random_symmetric(n, 40 + n as u64, 0.0));
            out.push(letkf_shaped(n, n / 4 + 1, 90 + n as u64));
        }
        out
    }

    fn back_accumulation_is_bitwise_the_textbook<T: Real>() {
        for a in pinning_inputs::<T>() {
            let n = a.n();
            let (mut d, mut e, mut g) =
                (vec![T::zero(); n], vec![T::zero(); n], vec![T::zero(); n]);
            let mut reduced = a.clone();
            householder_reduce(&mut reduced, &mut d, &mut e);

            let (mut rows, mut d_rows) = (reduced.clone(), d.clone());
            accumulate_q(&mut rows, &mut d_rows, &mut g);
            let (mut cols, mut d_cols) = (reduced, d);
            textbook::accumulate(&mut cols, &mut d_cols);
            assert_eq!(bits(rows.as_slice()), bits(cols.as_slice()), "n={n}");
            assert_eq!(bits(&d_rows), bits(&d_cols), "n={n}");
        }
    }

    fn rotations_on_rows_are_bitwise_the_textbook<T: Real>() {
        for a in pinning_inputs::<T>() {
            let n = a.n();
            let (mut d, mut e, mut g) =
                (vec![T::zero(); n], vec![T::zero(); n], vec![T::zero(); n]);
            let mut q = a.clone();
            tridiagonalize(&mut q, &mut d, &mut e, &mut g);

            let (mut d_rows, mut e_rows, mut zt) = (d.clone(), e.clone(), q.transpose());
            let mut rot = vec![(T::zero(), T::zero()); n];
            tqli(&mut d_rows, &mut e_rows, &mut zt, &mut rot);
            let (mut d_cols, mut e_cols, mut z) = (d, e, q);
            textbook::tqli(&mut d_cols, &mut e_cols, &mut z);
            assert_eq!(bits(&d_rows), bits(&d_cols), "n={n}");
            assert_eq!(bits(zt.transpose().as_slice()), bits(z.as_slice()), "n={n}");
        }
    }

    #[test]
    fn row_forms_are_bit_identical_to_the_column_forms() {
        back_accumulation_is_bitwise_the_textbook::<f32>();
        back_accumulation_is_bitwise_the_textbook::<f64>();
        rotations_on_rows_are_bitwise_the_textbook::<f32>();
        rotations_on_rows_are_bitwise_the_textbook::<f64>();
    }

    #[test]
    fn reduction_agrees_with_the_textbook_to_rounding() {
        // The row-sweep product reassociates its dot parts (`dot8`), so
        // the tridiagonal is the textbook's up to rounding, not to the bit.
        // Random input only: inside a degenerate eigenspace the reflectors
        // are built from rounding residue and no two orders agree on them.
        for n in [2usize, 3, 16, 19, 50, 64] {
            let a = random_symmetric::<f64>(n, 40 + n as u64, 0.0);
            let (mut d, mut e) = (vec![0.0; n], vec![0.0; n]);
            let mut rows = a.clone();
            householder_reduce(&mut rows, &mut d, &mut e);
            let (mut d_ref, mut e_ref) = (vec![0.0; n], vec![0.0; n]);
            let mut cols = a.clone();
            textbook::reduce(&mut cols, &mut d_ref, &mut e_ref);
            let scale = a.frobenius();
            for (x, y) in e.iter().zip(&e_ref).chain(d.iter().zip(&d_ref)) {
                assert!((x - y).abs() <= 1e-11 * scale, "n={n}: {x} vs {y}");
            }
        }
    }

    /// Residual, orthonormality and ordering of one decomposition, each
    /// relative to the size of the spectrum.
    fn check_decomposition<T: Real>(a: &MatrixS<T>, tol: f64, what: &str) {
        let dec = decompose(a);
        let n = a.n();
        let scale = dec.values.iter().fold(1.0_f64, |m, v| m.max(v.f64().abs()));
        let residual = dec.max_residual(a).f64();
        assert!(
            residual <= tol * scale,
            "{what} n={n}: residual {residual} against spectrum scale {scale}"
        );
        check_orthonormal(&dec.vectors, tol);
        assert!(
            dec.values.windows(2).all(|w| w[0] <= w[1]),
            "{what} n={n}: values not ascending"
        );
    }

    #[test]
    fn properties_hold_at_letkf_sizes_in_both_precisions() {
        for n in [16usize, 64, 128] {
            let seed = 7 + n as u64;
            // nobs << K: (K - 1) I plus a rank-nobs term, i.e. K - nobs
            // copies of one eigenvalue.
            let nobs = n / 8;
            check_decomposition(&random_symmetric::<f64>(n, seed, 0.0), 1e-11, "random f64");
            check_decomposition(&letkf_shaped::<f64>(n, nobs, seed), 1e-11, "letkf f64");
            check_decomposition(&random_symmetric::<f32>(n, seed, 0.0), 2e-4, "random f32");
            check_decomposition(&letkf_shaped::<f32>(n, nobs, seed), 2e-4, "letkf f32");
        }
    }

    #[test]
    fn degenerate_letkf_spectrum_keeps_its_multiplicity() {
        let (n, nobs) = (64, 5);
        let dec = decompose(&letkf_shaped::<f64>(n, nobs, 3));
        let base = (n - 1) as f64;
        for &v in &dec.values[..n - nobs] {
            assert!((v - base).abs() < 1e-9, "flat part moved: {v}");
        }
        for &v in &dec.values[n - nobs..] {
            assert!(v > base + 1e-3, "observed direction not lifted: {v}");
        }
    }

    #[test]
    fn known_2x2() {
        let a = MatrixS::from_rows(2, &[2.0_f64, 1.0, 1.0, 2.0]);
        let dec = decompose(&a);
        assert!((dec.values[0] - 1.0).abs() < 1e-12);
        assert!((dec.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_3x3_tridiagonal() {
        // Discrete 1-D Laplacian [2,-1] with known spectrum 2 - 2 cos(k pi / 4).
        let a = MatrixS::from_rows(3, &[2.0_f64, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0]);
        let dec = decompose(&a);
        let expected: Vec<f64> = (1..=3)
            .map(|k| 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / 4.0).cos())
            .collect();
        for (got, want) in dec.values.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn matches_jacobi_on_random_matrices() {
        for seed in 0..6u64 {
            let n = 10 + (seed as usize) * 5;
            let a = random_symmetric::<f64>(n, seed.wrapping_mul(17).wrapping_add(1), 0.0);
            let ql = decompose(&a);
            let jc = JacobiEigen::default().decompose(&a);
            for (x, y) in ql.values.iter().zip(&jc.values) {
                assert!(
                    (x - y).abs() < 1e-9,
                    "n={n}: eigenvalue mismatch {x} vs {y}"
                );
            }
            assert!(
                ql.max_residual(&a) < 1e-9,
                "residual {}",
                ql.max_residual(&a)
            );
            check_orthonormal(&ql.vectors, 1e-9);
        }
    }

    #[test]
    fn single_precision_accuracy_sufficient_for_letkf() {
        // k=40 is a typical operational ensemble size; k=1000 is the paper's.
        let a = random_symmetric::<f32>(40, 5, 5.0);
        let dec = decompose(&a);
        assert!(dec.max_residual(&a) < 5e-3);
        check_orthonormal(&dec.vectors, 5e-3);
    }

    #[test]
    fn handles_n1_and_n2() {
        let a1 = MatrixS::from_rows(1, &[7.0_f64]);
        let d1 = decompose(&a1);
        assert_eq!(d1.values, vec![7.0]);

        let a2 = MatrixS::from_rows(2, &[1.0_f64, 0.0, 0.0, -2.0]);
        let d2 = decompose(&a2);
        assert_eq!(d2.values, vec![-2.0, 1.0]);
    }

    #[test]
    fn degenerate_spectrum() {
        // Identity has a fully degenerate spectrum; any orthonormal basis is
        // a valid eigenbasis.
        let a = MatrixS::<f64>::identity(6);
        let dec = decompose(&a);
        for &v in &dec.values {
            assert!((v - 1.0).abs() < 1e-13);
        }
        check_orthonormal(&dec.vectors, 1e-12);
    }

    #[test]
    fn trace_preserved() {
        let n = 25;
        let a = random_symmetric::<f64>(n, 1234, 0.0);
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let dec = decompose(&a);
        let sum: f64 = dec.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }
}
