//! Property-based invariants across the workspace (proptest).

use bda::letkf::localization::gaspari_cohn;
use bda::letkf::{LetkfConfig, ObsEnsemble, ObsKind, Observation, QcPipeline};
use bda::num::eigen::{QlEigen, SymEigSolver};
use bda::num::tridiag::ThomasFactor;
use bda::num::MatrixS;
use bda::pawr::reflectivity::{to_dbz, z_total};
use bda::verify::ContingencyTable;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Symmetric eigendecomposition: residual and orthonormality for random
    /// symmetric matrices of modest size.
    #[test]
    fn eigensolver_residual_small(
        n in 2usize..12,
        seed in any::<u64>(),
    ) {
        let mut rng = bda::num::SplitMix64::new(seed);
        let mut a = MatrixS::<f64>::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = rng.gaussian(0.0, 1.0);
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let dec = QlEigen.decompose(&a);
        prop_assert!(dec.max_residual(&a) < 1e-8, "residual {}", dec.max_residual(&a));
        // Eigenvalues sorted ascending.
        for w in dec.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        // Trace preserved.
        let tr: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = dec.values.iter().sum();
        prop_assert!((tr - sum).abs() < 1e-8);
    }

    /// Thomas solver (the factored form the dynamical core runs): A x = d
    /// within tolerance for diagonally dominant random systems.
    #[test]
    fn thomas_solves_dominant_systems(
        n in 2usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = bda::num::SplitMix64::new(seed);
        let sub: Vec<f64> = (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let sup: Vec<f64> = (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let diag: Vec<f64> = (0..n)
            .map(|i| {
                let dom = sub[i].abs() + sup[i].abs() + 1.0;
                if rng.next_uniform() < 0.5 { dom } else { -dom }
            })
            .collect();
        let rhs: Vec<f64> = (0..n).map(|_| rng.gaussian(0.0, 2.0)).collect();
        let mut factor = ThomasFactor::new();
        factor.factor(&sub, &diag, &sup);
        let mut x = rhs.clone();
        factor.solve_columns(&mut x, 1);
        for i in 0..n {
            let mut back = diag[i] * x[i];
            if i > 0 {
                back += sub[i] * x[i - 1];
            }
            if i + 1 < n {
                back += sup[i] * x[i + 1];
            }
            prop_assert!((back - rhs[i]).abs() < 1e-9, "{back} vs {}", rhs[i]);
        }
    }

    /// Gaspari-Cohn: bounded in [0, 1], compactly supported, monotone.
    #[test]
    fn gaspari_cohn_is_a_valid_taper(
        r in 0.0f64..20_000.0,
        c in 100.0f64..5_000.0,
    ) {
        let g = gaspari_cohn(r, c);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&g), "g = {g}");
        if r >= 2.0 * c {
            prop_assert_eq!(g, 0.0);
        }
        // Monotone: slightly larger r never increases the weight.
        let g2 = gaspari_cohn(r * 1.01 + 1.0, c);
        prop_assert!(g2 <= g + 1e-9);
    }

    /// Reflectivity: monotone in each species' content and bounded by the
    /// floor.
    #[test]
    fn reflectivity_monotone_and_floored(
        rain in 0.0f64..10.0,
        snow in 0.0f64..10.0,
        graupel in 0.0f64..10.0,
        floor in -30.0f64..10.0,
    ) {
        let dbz = to_dbz(z_total(rain, snow, graupel), floor);
        prop_assert!(dbz >= floor);
        let dbz_more = to_dbz(z_total(rain + 0.1, snow, graupel), floor);
        prop_assert!(dbz_more >= dbz);
    }

    /// Contingency tables: merge is commutative/associative in effect and
    /// the threat score is bounded in [0, 1].
    #[test]
    fn contingency_scores_bounded(
        hits in 0u64..1000,
        misses in 0u64..1000,
        fa in 0u64..1000,
        cn in 0u64..1000,
    ) {
        let t = ContingencyTable { hits, misses, false_alarms: fa, correct_negatives: cn };
        if let Some(ts) = t.threat_score() {
            prop_assert!((0.0..=1.0).contains(&ts));
        }
        let mut a = t;
        a.merge(&t);
        prop_assert_eq!(a.total(), 2 * t.total());
        // Merging equal tables does not change the ratio score.
        prop_assert_eq!(a.threat_score(), t.threat_score());
    }

    /// QC: the filtered set never contains an innovation beyond the
    /// Table-2 threshold, and QC is idempotent.
    #[test]
    fn qc_pipeline_is_sound_and_idempotent(
        values in prop::collection::vec(-30.0f64..90.0, 1..40),
    ) {
        let cfg = LetkfConfig::reduced(2);
        let obs: Vec<Observation<f64>> = values
            .iter()
            .map(|&v| Observation {
                kind: ObsKind::Reflectivity,
                x: 0.0,
                y: 0.0,
                z: 1000.0,
                value: v,
                error_sd: 5.0,
            })
            .collect();
        let n = obs.len();
        let hx = vec![vec![20.0; n], vec![24.0; n]];
        let ens = ObsEnsemble::new(obs, hx);
        let qc = QcPipeline::new(&cfg);
        let (filtered, report) = qc.run(&ens);
        prop_assert_eq!(report.total, n);
        prop_assert_eq!(filtered.len(), report.accepted());
        for i in 0..filtered.len() {
            prop_assert!(filtered.innovation(i).abs() <= cfg.gross_err_reflectivity_dbz + 1e-12);
        }
        let (again, report2) = qc.run(&filtered);
        prop_assert_eq!(again.len(), filtered.len(), "QC not idempotent");
        prop_assert_eq!(report2.rejected(), 0);
    }

    /// PAWR codec: any observation set roundtrips (f32-exact values).
    #[test]
    fn volume_codec_roundtrips(
        vals in prop::collection::vec((-20.0f32..70.0, 0.0f32..60_000.0), 0..50),
    ) {
        use bda::pawr::scan::ScanResult;
        let obs: Vec<Observation<f32>> = vals
            .iter()
            .enumerate()
            .map(|(i, &(v, x))| Observation {
                kind: if i % 2 == 0 { ObsKind::Reflectivity } else { ObsKind::DopplerVelocity },
                x: x as f64,
                y: (x / 2.0) as f64,
                z: 1000.0,
                value: v,
                error_sd: 5.0,
            })
            .collect();
        let scan = ScanResult {
            time: 42.0,
            obs,
            n_reflectivity: 0,
            n_doppler: 0,
            n_clear_air: 0,
            raw_bytes: 0,
        };
        let bytes = bda::pawr::encode_volume(&scan);
        let bounds = bda::pawr::ValueBounds::default();
        let (decoded, report) = bda::pawr::decode_volume_salvage::<f32>(&bytes, &bounds).unwrap();
        prop_assert!(report.clean());
        prop_assert_eq!(decoded.obs.len(), scan.obs.len());
        for (a, b) in decoded.obs.iter().zip(&scan.obs) {
            prop_assert_eq!(a.value, b.value);
            prop_assert_eq!(a.kind, b.kind);
        }
    }

    /// State format: random ensembles roundtrip bit-exactly at f32.
    #[test]
    fn state_format_roundtrips(
        k in 1usize..5,
        n in 0usize..200,
        seed in any::<u64>(),
    ) {
        let mut rng = bda::num::SplitMix64::new(seed);
        let members: Vec<Vec<f32>> = (0..k)
            .map(|_| (0..n).map(|_| rng.gaussian(0.0f32, 10.0)).collect())
            .collect();
        let decoded: Vec<Vec<f32>> =
            bda::io::decode_states(&bda::io::encode_states(&members).unwrap()).unwrap();
        prop_assert_eq!(decoded, members);
    }
}
