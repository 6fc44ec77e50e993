//! Corruption-fuzz harness for the observation ingest path.
//!
//! Drives ≥10k deterministically mutated PAWR volumes — bit flips,
//! truncations, length-field forgeries, NaN scribbles, checksum-consistent
//! forgeries — through the full ingest stack: strict decode, salvage decode,
//! and the LETKF QC pipeline. Asserts the two properties the hardening work
//! guarantees:
//!
//! 1. **No panic, ever.** Every corruption produces either a decoded volume
//!    or a typed `DecodeError` — never an abort, OOM, or unwind.
//! 2. **No out-of-bounds observation reaches the analysis.** Whatever
//!    survives decode + QC is finite and inside the physical bounds the
//!    LETKF assumes.
//!
//! Every case is replayable from `(SEED, case index)` alone.

use bda::letkf::obs::{DBZ_MAX, DBZ_MIN, DOPPLER_ABS_MAX, ERROR_SD_MAX};
use bda::letkf::{LetkfConfig, ObsEnsemble, ObsKind, Observation, QcPipeline};
use bda::num::SplitMix64;
use bda::pawr::codec::{decode_volume, decode_volume_salvage, encode_volume, ValueBounds};
use bda::pawr::fuzz::VolumeMutator;
use bda::pawr::scan::ScanResult;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 0xBDA_FACE;
const CASES: u64 = 12_000;

fn clean_volume() -> Vec<u8> {
    let mut rng = SplitMix64::new(SEED);
    let obs: Vec<Observation<f32>> = (0..48)
        .map(|i| Observation {
            kind: if i % 3 == 0 {
                ObsKind::DopplerVelocity
            } else {
                ObsKind::Reflectivity
            },
            x: rng.uniform_in(0.0, 128_000.0),
            y: rng.uniform_in(0.0, 128_000.0),
            z: rng.uniform_in(100.0, 16_000.0),
            value: rng.uniform_in(-10.0, 40.0) as f32,
            error_sd: 5.0,
        })
        .collect();
    let scan = ScanResult {
        time: 30.0,
        obs,
        n_reflectivity: 0,
        n_doppler: 0,
        n_clear_air: 0,
        raw_bytes: 0,
    };
    encode_volume(&scan).to_vec()
}

fn assert_obs_in_bounds(obs: &[Observation<f32>], ctx: &str) {
    for (i, o) in obs.iter().enumerate() {
        let v = o.value as f64;
        assert!(v.is_finite(), "{ctx}: obs {i} non-finite value");
        match o.kind {
            ObsKind::Reflectivity => assert!(
                (DBZ_MIN..=DBZ_MAX).contains(&v),
                "{ctx}: obs {i} reflectivity {v} out of bounds"
            ),
            ObsKind::DopplerVelocity => assert!(
                v.abs() <= DOPPLER_ABS_MAX,
                "{ctx}: obs {i} doppler {v} out of bounds"
            ),
        }
        assert!(
            o.x.is_finite() && o.y.is_finite() && o.z.is_finite(),
            "{ctx}: obs {i} non-finite position"
        );
        let sd = o.error_sd as f64;
        assert!(
            sd.is_finite() && sd > 0.0 && sd <= ERROR_SD_MAX,
            "{ctx}: obs {i} bad error sd {sd}"
        );
    }
}

/// The headline acceptance test: ≥10k mutated volumes, zero panics, zero
/// out-of-bounds survivors.
#[test]
fn fuzz_corpus_never_panics_and_never_leaks_bad_obs() {
    let clean = clean_volume();
    let mutator = VolumeMutator::new(&clean, SEED);
    let bounds = ValueBounds::default();
    let cfg = LetkfConfig::reduced(2);

    let mut decoded_ok = 0u64;
    let mut rejected = 0u64;
    let mut salvaged_nonempty = 0u64;
    for mutant in mutator.corpus(CASES) {
        let case = mutant.case;
        let class = mutant.class;

        // Strict decode: typed result, never a panic.
        let strict = catch_unwind(AssertUnwindSafe(|| decode_volume::<f32>(&mutant.bytes)))
            .unwrap_or_else(|_| panic!("case {case} ({class:?}): strict decode panicked"));
        match &strict {
            Ok(vol) => {
                decoded_ok += 1;
                assert_obs_in_bounds(&vol.obs, &format!("case {case} strict"));
            }
            Err(_) => rejected += 1,
        }

        // Salvage decode: same no-panic guarantee, and everything it keeps
        // is in bounds by construction.
        let salvage = catch_unwind(AssertUnwindSafe(|| {
            decode_volume_salvage::<f32>(&mutant.bytes, &bounds)
        }))
        .unwrap_or_else(|_| panic!("case {case} ({class:?}): salvage decode panicked"));
        let survivors = match salvage {
            Ok((vol, report)) => {
                assert!(
                    report.kept <= report.parseable && report.parseable as u64 <= report.declared,
                    "case {case}: inconsistent salvage report {report:?}"
                );
                assert_obs_in_bounds(&vol.obs, &format!("case {case} salvage"));
                vol.obs
            }
            Err(_) => Vec::new(),
        };
        if survivors.is_empty() {
            continue;
        }
        salvaged_nonempty += 1;

        // QC: whatever decode let through must pass the pipeline without
        // panicking, and its output — the set that would be handed to
        // `analyze_quorum` — stays finite and in bounds.
        let hx: Vec<Vec<f32>> = vec![
            survivors.iter().map(|o| o.value).collect(),
            survivors.iter().map(|o| o.value + 0.5).collect(),
        ];
        let ens = ObsEnsemble::new(survivors, hx);
        let (kept, report) = catch_unwind(AssertUnwindSafe(|| QcPipeline::new(&cfg).run(&ens)))
            .unwrap_or_else(|_| panic!("case {case} ({class:?}): QC panicked"));
        assert_eq!(report.accepted(), kept.len());
        assert_obs_in_bounds(&kept.obs, &format!("case {case} post-QC"));
    }

    // The corpus must actually exercise both sides: many volumes die with a
    // typed error, and a meaningful number survive into QC.
    assert!(rejected > CASES / 4, "only {rejected}/{CASES} rejected");
    assert!(decoded_ok > 0, "no mutant decoded cleanly");
    assert!(
        salvaged_nonempty > CASES / 10,
        "only {salvaged_nonempty}/{CASES} salvaged anything"
    );
}

/// Defense in depth: even if a hostile volume somehow bypassed decode-time
/// validation, the QC gross stage rejects every out-of-bounds or non-finite
/// observation before the analysis, and the report says so.
#[test]
fn qc_is_a_second_wall_behind_the_decoder() {
    let cfg = LetkfConfig::reduced(2);
    let mut rng = SplitMix64::new(SEED ^ 0xDEAD);
    let mut obs: Vec<Observation<f32>> = Vec::new();
    let mut n_bad = 0usize;
    for i in 0..2_000 {
        let kind = if i % 2 == 0 {
            ObsKind::Reflectivity
        } else {
            ObsKind::DopplerVelocity
        };
        let bad = rng.next_u64().is_multiple_of(3);
        let value = if bad {
            n_bad += 1;
            match rng.next_u64() % 4 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => 1.0e20,
                _ => -1.0e20,
            }
        } else {
            rng.uniform_in(-5.0, 30.0) as f32
        };
        obs.push(Observation {
            kind,
            x: rng.uniform_in(0.0, 128_000.0),
            y: rng.uniform_in(0.0, 128_000.0),
            z: rng.uniform_in(100.0, 16_000.0),
            value,
            error_sd: if kind == ObsKind::Reflectivity {
                5.0
            } else {
                3.0
            },
        });
    }
    let hx: Vec<Vec<f32>> = vec![
        obs.iter()
            .map(|o| {
                if o.value.is_finite() {
                    o.value.clamp(-60.0, 100.0)
                } else {
                    0.0
                }
            })
            .collect(),
        obs.iter()
            .map(|o| {
                if o.value.is_finite() {
                    o.value.clamp(-60.0, 100.0) + 1.0
                } else {
                    1.0
                }
            })
            .collect(),
    ];
    let ens = ObsEnsemble::new(obs, hx);
    let (kept, report) = QcPipeline::new(&cfg).run(&ens);
    assert!(n_bad > 0);
    assert!(
        report.rejected_gross.total() >= n_bad,
        "gross stage caught {} of {} planted bad obs",
        report.rejected_gross.total(),
        n_bad
    );
    assert_obs_in_bounds(&kept.obs, "post-QC");
}
