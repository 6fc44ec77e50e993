//! Checkpointed OSSE campaigns: the bridge between the [`crate::osse`]
//! cycling system and the generic checkpoint/resume driver in
//! [`bda_workflow::campaign`].
//!
//! [`OsseCampaign`] implements [`CycleApp`]: each `run_cycle` injects any
//! scheduled member faults, runs one full 30-second OSSE cycle, and distils
//! the outcome into a deterministic, timing-free [`OutcomeRecord`] — so the
//! final outcome table of a killed-and-resumed campaign can be diffed
//! byte-for-byte against an uninterrupted one.

use crate::osse::{CycleOutcome, Osse};
use bda_io::checkpoint::{CampaignSnapshot, OutcomeRecord};
use bda_num::Real;
use bda_workflow::{CycleApp, Fault, FaultPlan};

/// An OSSE wired for checkpointed, fault-injected campaign cycling.
pub struct OsseCampaign<T: Real> {
    pub osse: Osse<T>,
    /// Member faults (`nan:M@C`, `blowup:M@C`) are applied here, at the
    /// start of the cycle; `crash@C` is the driver's business.
    pub faults: FaultPlan,
    /// Full per-cycle outcomes of *this process* (not checkpointed — the
    /// durable cross-restart record is the [`OutcomeRecord`] log).
    pub outcomes: Vec<CycleOutcome>,
}

impl<T: Real> OsseCampaign<T> {
    pub fn new(osse: Osse<T>, faults: FaultPlan) -> Self {
        Self {
            osse,
            faults,
            outcomes: Vec::new(),
        }
    }
}

impl<T: Real> CycleApp<T> for OsseCampaign<T> {
    fn run_cycle(&mut self, cycle: usize) -> OutcomeRecord {
        for m in self.faults.args(cycle, Fault::MemberNan) {
            self.osse.ensemble.inject_nan(m);
        }
        for m in self.faults.args(cycle, Fault::MemberBlowUp) {
            self.osse.ensemble.inject_blowup(m);
        }
        let out = self.osse.cycle();
        let record = out.record(cycle as u64);
        self.outcomes.push(out);
        record
    }

    fn snapshot(&self) -> CampaignSnapshot<T> {
        self.osse.snapshot_state()
    }

    fn restore(&mut self, snap: &CampaignSnapshot<T>) {
        self.osse.restore_state(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osse::OsseConfig;
    use bda_workflow::{CampaignTermination, ResumableCampaign};
    use std::path::PathBuf;

    fn small_campaign(faults: FaultPlan) -> OsseCampaign<f32> {
        OsseCampaign::new(Osse::new(OsseConfig::reduced(10, 8, 6, 2, 11)), faults)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bda-osse-resume-{tag}-{}", std::process::id()))
    }

    #[test]
    fn member_nan_fault_yields_finite_analysis_and_respawn() {
        // The ISSUE's acceptance scenario: `nan:2@2` over a short campaign —
        // every cycle must deliver a finite analysis, the dead member must
        // be respawned, and the outcome log must carry the quorum evidence.
        let mut app = small_campaign(FaultPlan::none().with(2, Fault::MemberNan, &[2]));
        let run = ResumableCampaign::new(4).run(&mut app).unwrap();
        assert_eq!(run.termination, CampaignTermination::Completed);
        assert_eq!(run.outcomes.len(), 4);
        for (c, out) in app.outcomes.iter().enumerate() {
            assert!(
                out.prior_rmse_dbz.is_finite() && out.posterior_rmse_dbz.is_finite(),
                "cycle {c} produced a non-finite analysis"
            );
            assert!(
                out.analysis.points_analyzed > 0,
                "cycle {c} skipped analysis"
            );
        }
        assert_eq!(app.outcomes[2].n_alive, 5);
        assert_eq!(app.outcomes[2].respawned, vec![2]);
        assert_eq!(app.outcomes[3].n_alive, 6);
        assert_eq!(run.outcomes[2].label, "degraded");
        assert!(run.outcomes[2].detail.contains("alive 5"));
        assert!(run.outcomes[2].detail.contains("respawned [2]"));
        for m in &app.osse.ensemble.members {
            assert!(m.all_finite());
        }
    }

    #[test]
    fn killed_campaign_resumes_bit_for_bit() {
        let dir = tmp_dir("kill");
        let _ = std::fs::remove_dir_all(&dir);

        // Reference: the uninterrupted campaign.
        let mut ref_app = small_campaign(FaultPlan::none());
        let reference = ResumableCampaign::new(4).run(&mut ref_app).unwrap();

        // Same campaign, checkpoint every cycle, killed at cycle 2.
        let campaign = ResumableCampaign {
            n_cycles: 4,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            faults: FaultPlan::none().with(2, Fault::Crash, &[]),
        };
        let mut app = small_campaign(campaign.faults.clone());
        let first = campaign.run(&mut app).unwrap();
        assert_eq!(
            first.termination,
            CampaignTermination::Crashed { at_cycle: 2 }
        );

        // "Process restart": a freshly constructed OSSE resumes from disk.
        let mut app2 = small_campaign(campaign.faults.clone());
        let second = campaign.run(&mut app2).unwrap();
        assert_eq!(second.termination, CampaignTermination::Completed);
        // The crash predates cycle 2's checkpoint, so the newest snapshot
        // is the one taken before cycle 1 — that cycle is replayed.
        assert_eq!(second.start_cycle, 1);

        // The outcome tables — full-precision RMSEs included — match.
        assert_eq!(second.table(), reference.table());
        // And the final prognostic states are identical bit-for-bit.
        let final_a = ref_app.osse.snapshot_state();
        let final_b = app2.osse.snapshot_state();
        assert_eq!(final_a.members, final_b.members);
        assert_eq!(final_a.rng_states, final_b.rng_states);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
