//! Integration: the OSSE is split at the radar, and the analysis sees only
//! the wire.
//!
//! The two halves are driven by hand, the way the live pipeline drives
//! them: the nature's volume is sealed with `encode_volume` and opened with
//! `decode_volume` before the assimilator sees it. Member bits and outcome
//! records must equal `Osse::cycle()`'s through a storm with a quarantined
//! member — so the analysis depends on nothing but the volume.

use bda::core::{Assimilator, Nature, Osse, OsseConfig, Scoring, Volume};
use bda::pawr::{decode_volume, encode_volume};
use bda::scale::{Ensemble, ANALYZED_VARS};
use bda::workflow::{Fault, FaultPlan};

/// Mature storms for this configuration: rain in the truth and in the
/// members, so the analysis moves the state and the posterior RMSE.
const SPINUP_S: f64 = 840.0;
const CYCLES: usize = 4;

fn bits(ens: &Ensemble<f32>) -> Vec<Vec<u32>> {
    ens.members
        .iter()
        .map(|m| {
            m.to_flat(&ANALYZED_VARS)
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

#[test]
fn the_analysis_sees_only_the_wire() {
    let cfg = OsseConfig::reduced(12, 8, 6, 3, 42);
    let dt = cfg.cycle_interval;
    let plan = FaultPlan::parse("nan:3@1", CYCLES).unwrap();
    let mut osse = Osse::<f32>::new(cfg.clone());
    osse.spinup_system(SPINUP_S);

    let mut nature = Nature::<f32>::new(&cfg);
    let mut assim = Assimilator::<f32>::new(&cfg);
    let mut ensemble = assim.initial_ensemble();
    nature.integrate(SPINUP_S);
    assim.spinup(&mut ensemble, SPINUP_S);
    let scoring = Scoring::new(&cfg, &nature);

    let mut respawned = Vec::new();
    for c in 0..CYCLES {
        for m in plan.args(c, Fault::MemberNan) {
            osse.ensemble.inject_nan(m);
            ensemble.inject_nan(m);
        }
        let want = osse.cycle();

        let (scan, _) = nature.advance(dt);
        let wire = encode_volume(&scan);
        let volume = Volume::from(decode_volume::<f32>(&wire).expect("a clean volume decodes"));
        let health = assim.forecast(&mut ensemble, dt);
        let truth_map = scoring.map(nature.truth(), assim.base());
        let prior = ensemble.mean_of(&health.alive());
        let prior_rmse = scoring.rmse(&prior, assim.base(), &truth_map);
        let mut got = assim.analyze(&mut ensemble, health, volume, None);
        got.prior_rmse_dbz = prior_rmse;
        got.posterior_rmse_dbz = if got.analysis.points_analyzed > 0 {
            scoring.rmse(&ensemble.mean(), assim.base(), &truth_map)
        } else {
            prior_rmse
        };

        assert_ne!(
            want.posterior_rmse_dbz, want.prior_rmse_dbz,
            "cycle {c}: the analysis left the mean where it was"
        );
        assert_eq!(got.record(c as u64), want.record(c as u64), "cycle {c}");
        assert_eq!(
            got.posterior_rmse_dbz.to_bits(),
            want.posterior_rmse_dbz.to_bits()
        );
        assert_eq!(bits(&ensemble), bits(&osse.ensemble), "cycle {c} members");
        respawned.extend(got.respawned);
    }
    assert_eq!(respawned, vec![3], "the member fault never fired");
}
