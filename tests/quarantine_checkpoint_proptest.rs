//! Property-based guarantees for the member-fault-tolerance layer:
//!
//! * a NaN/Inf-poisoned ensemble member must never leak non-finite values
//!   into the analysis of the surviving quorum — at the LETKF level and
//!   through the full OSSE cycle (quarantine + respawn);
//! * campaign checkpoints round-trip exactly, and any truncation or
//!   bit-flip is rejected by the frame checksum rather than silently resuming from a
//!   corrupt state.

use bda::core::osse::{Osse, OsseConfig};
use bda::io::checkpoint::{decode_snapshot, encode_snapshot, CampaignSnapshot, OutcomeRecord};
use bda::letkf::{
    analyze_quorum_region, LetkfConfig, ObsEnsemble, ObsKind, Observation, StateLayout,
};
use bda::num::SplitMix64;
use proptest::prelude::*;

fn layout() -> StateLayout {
    StateLayout {
        nx: 6,
        ny: 6,
        nz: 3,
        nvar: 1,
        dx: 500.0,
        z_center: vec![500.0, 1000.0, 1500.0],
    }
}

/// One central observation of variable 0, with forward-operator rows for
/// the alive members only (the quarantine contract).
fn center_obs(members: &[Vec<f64>], alive: &[bool], layout: &StateLayout) -> ObsEnsemble<f64> {
    let (x, y) = layout.xy(3, 3);
    let o = Observation {
        kind: ObsKind::Reflectivity,
        x,
        y,
        z: layout.z_center[1],
        value: 8.0,
        error_sd: 0.5,
    };
    let src = layout.member_index(0, 3, 3, 1);
    let hx: Vec<Vec<f64>> = members
        .iter()
        .zip(alive)
        .filter(|(_, &a)| a)
        .map(|(m, _)| vec![m[src]])
        .collect();
    ObsEnsemble::new(vec![o], hx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LETKF level: whatever member is poisoned and however (NaN or Inf),
    /// the quorum analysis leaves every surviving member fully finite and
    /// never touches the dead slot.
    #[test]
    fn poisoned_member_never_pollutes_quorum_analysis(
        seed in any::<u64>(),
        dead in 0usize..6,
        poison_inf in any::<bool>(),
        stride in 1usize..9,
    ) {
        let layout = layout();
        let k = 6;
        let mut rng = SplitMix64::new(seed);
        let mut members: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..layout.n_elements()).map(|_| rng.gaussian(5.0, 1.0)).collect())
            .collect();
        let bad = if poison_inf { f64::INFINITY } else { f64::NAN };
        for v in members[dead].iter_mut().step_by(stride) {
            *v = bad;
        }
        let poisoned_copy = members[dead].clone();
        let alive: Vec<bool> = (0..k).map(|m| m != dead).collect();
        let obs = center_obs(&members, &alive, &layout);
        let cfg = LetkfConfig::reduced(k - 1);
        let q = analyze_quorum_region(&mut members, &alive, layout, &obs, &cfg, 2, None).unwrap();
        prop_assert_eq!(q.k_alive, k - 1);
        prop_assert!(q.degraded());
        prop_assert!(q.stats.points_analyzed > 0);
        for (m, flat) in members.iter().enumerate() {
            if m == dead {
                continue;
            }
            for (i, &v) in flat.iter().enumerate() {
                prop_assert!(v.is_finite(), "member {m} element {i} = {v}");
            }
        }
        // The dead slot is quarantined, not "repaired" in place.
        let dead_bits: Vec<u64> = members[dead].iter().map(|v| v.to_bits()).collect();
        let copy_bits: Vec<u64> = poisoned_copy.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(dead_bits, copy_bits);
    }

    /// Checkpoint snapshots round-trip bit-exactly in both precisions,
    /// including extreme magnitudes and empty outcome logs.
    #[test]
    fn checkpoint_roundtrip_is_identity(
        seed in any::<u64>(),
        k in 1usize..5,
        n in 1usize..48,
        next_cycle in any::<u64>(),
        n_outcomes in 0usize..4,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut draw = |scale: f64| rng.gaussian(0.0, 1.0) * scale;
        let members: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                (0..n)
                    .map(|i| match i % 4 {
                        0 => draw(1.0),
                        1 => draw(1e30),
                        2 => draw(1e-30),
                        _ => 0.0,
                    })
                    .collect()
            })
            .collect();
        let snap = CampaignSnapshot {
            next_cycle,
            time: draw(1e4),
            rng_states: (0..3).map(|i| next_cycle.wrapping_mul(i + 1)).collect(),
            member_times: (0..k).map(|i| i as f64 * 30.0).collect(),
            members,
            outcomes: (0..n_outcomes)
                .map(|c| OutcomeRecord {
                    cycle: c as u64,
                    label: "completed".into(),
                    detail: format!("alive {k}, rmse {:.9e}", draw(10.0)),
                    retries: c as u32,
                })
                .collect(),
        };
        let bytes = encode_snapshot(&snap).unwrap();
        let back = decode_snapshot::<f64>(&bytes).unwrap();
        prop_assert_eq!(&back, &snap);

        // Single-precision path: f32 payloads survive the f32->f64->f32 trip.
        let snap32 = CampaignSnapshot {
            next_cycle: snap.next_cycle,
            time: snap.time,
            rng_states: snap.rng_states.clone(),
            members: snap
                .members
                .iter()
                .map(|m| m.iter().map(|&v| v as f32).collect())
                .collect::<Vec<Vec<f32>>>(),
            member_times: snap.member_times.clone(),
            outcomes: snap.outcomes.clone(),
        };
        let bytes32 = encode_snapshot(&snap32).unwrap();
        let back32 = decode_snapshot::<f32>(&bytes32).unwrap();
        prop_assert_eq!(&back32, &snap32);
    }

    /// Any truncation or bit-flip of an encoded snapshot must be rejected —
    /// resuming from a half-written or corrupted file is never an option.
    #[test]
    fn corrupted_checkpoint_is_rejected(
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
        flip_seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let snap = CampaignSnapshot {
            next_cycle: 5,
            time: 150.0,
            rng_states: vec![rng.next_u64(), rng.next_u64()],
            members: vec![(0..24).map(|_| rng.gaussian(0.0, 1.0)).collect::<Vec<f64>>(); 3],
            member_times: vec![150.0; 3],
            outcomes: vec![OutcomeRecord {
                cycle: 4,
                label: "completed".into(),
                detail: "alive 3".into(),
                retries: 0,
            }],
        };
        let bytes = encode_snapshot(&snap).unwrap().to_vec();

        let cut_len = (cut_seed as usize) % bytes.len(); // always a strict prefix
        prop_assert!(decode_snapshot::<f64>(&bytes[..cut_len]).is_err(),
            "truncation to {cut_len}/{} accepted", bytes.len());

        let mut flipped = bytes.clone();
        let pos = (flip_seed as usize) % flipped.len();
        flipped[pos] ^= 1 << (pos % 8);
        prop_assert!(decode_snapshot::<f64>(&flipped).is_err(),
            "bit flip at byte {pos} accepted");
    }
}

proptest! {
    // The full-cycle property is expensive (real model integrations), so
    // fewer cases — each one still covers poison -> quarantine -> analysis
    // -> respawn end to end.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Full OSSE cycle: a poisoned member is quarantined, the surviving
    /// quorum still produces a finite analysis, and the respawned ensemble
    /// is fully finite again.
    #[test]
    fn osse_cycle_survives_any_poisoned_member(
        member in 0usize..6,
        poison_inf in any::<bool>(),
    ) {
        let mut osse = Osse::<f32>::new(OsseConfig::reduced(10, 8, 6, 2, 11));
        osse.cycle();
        if poison_inf {
            osse.ensemble.inject_blowup(member);
        } else {
            osse.ensemble.inject_nan(member);
        }
        let out = osse.cycle();
        prop_assert_eq!(out.n_alive, 5);
        prop_assert_eq!(out.respawned.clone(), vec![member]);
        prop_assert!(out.analysis.points_analyzed > 0);
        prop_assert!(out.prior_rmse_dbz.is_finite());
        prop_assert!(out.posterior_rmse_dbz.is_finite());
        for m in &osse.ensemble.members {
            prop_assert!(m.all_finite());
        }
    }
}
