//! What the four workloads share: the per-run context they record into and
//! the interface the closed loop in `main` drives.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;

/// The arguments of one run that workloads read.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Scratch directory of this process, inside the checkout.
    pub tmp_dir: PathBuf,
}

/// One cycle as the loop sees it.
pub struct CycleReport {
    /// `T_obs` → last subscriber ACK, seconds, verification time excluded.
    pub tts_s: f64,
    /// Why the cycle counts as failed, if it does.
    pub failure: Option<String>,
}

/// One named correctness check of a run.
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, passed: bool, detail: impl Into<String>) -> Self {
        Self {
            name,
            passed,
            detail: detail.into(),
        }
    }
}

/// Everything a run accumulates besides the latency samples.
pub struct Recorder {
    pub trace: Tracer,
    /// Per-cycle observations of a count or ratio, by metric name.
    pub samples: BTreeMap<&'static str, Vec<(u64, f64)>>,
    /// FNV-1a digest of the full ensemble after each cycle. The untraced
    /// and the traced run of one seed must agree on their common prefix.
    pub digests: Vec<u64>,
    /// Posterior reflectivity RMSE after each cycle, dBZ, bit-comparable
    /// between runs of one seed like the digests.
    pub posterior_rmse: Vec<f64>,
}

impl Recorder {
    pub fn new(trace: bool) -> Self {
        Self {
            trace: Tracer::new(trace),
            samples: BTreeMap::new(),
            digests: Vec::new(),
            posterior_rmse: Vec::new(),
        }
    }

    pub fn sample(&mut self, name: &'static str, cycle: u64, value: f64) {
        self.samples.entry(name).or_default().push((cycle, value));
    }

    /// The samples of `name` that fall in `cycles`.
    pub fn samples_in(&self, name: &str, cycles: &Range<u64>) -> Vec<f64> {
        self.samples
            .get(name)
            .map(|v| {
                v.iter()
                    .filter(|(c, _)| cycles.contains(c))
                    .map(|&(_, x)| x)
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// A workload after set-up: one closed loop, one cycle in flight.
pub trait Workload {
    /// Run cycle `cycle` to its last ACK.
    fn cycle(&mut self, rec: &mut Recorder, cycle: u64) -> CycleReport;

    /// Remember the current model state as the replay point. Cloud and
    /// rain make each 30 s of weather dearer than the last, so the timed
    /// cycles all replay the same 30 s: the samples of one run then
    /// measure the same work, whatever the run's length or the host's
    /// speed. A workload without model state has nothing to remember.
    fn mark(&mut self) {}

    /// Return to the replay point.
    fn rewind(&mut self) {}

    /// Tear down, run the end-of-run correctness checks and — on a traced
    /// run — the micro-phases, whose results go into `micro` by metric name.
    fn finish(
        self: Box<Self>,
        rec: &mut Recorder,
        micro: &mut BTreeMap<&'static str, f64>,
    ) -> Vec<Check>;
}
