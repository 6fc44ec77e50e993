//! The radar side of the OSSE: the truth run and the radars that watch it.
//!
//! In the paper one thing crosses from Saitama to Fugaku: the MP-PAWR
//! writes a volume, JIT-DT carries it, and part ‹1› sees nothing else
//! (DESIGN.md §1). [`Nature`] is the Saitama end of that seam. It owns the
//! truth `Model` with its convection triggers and the radar network, and
//! yields one volume at `T_obs` per step. A single radar is a one-radar
//! [`RadarNetwork`]: same seed, same H(x) routing, same bits.

use crate::osse::OsseConfig;
use bda_letkf::Observation;
use bda_num::Real;
use bda_pawr::codec::DecodedVolume;
use bda_pawr::{RadarNetwork, ScanResult};
use bda_scale::{Model, ModelState};

/// One radar volume at `T_obs`, as the analysis receives it.
#[derive(Clone, Debug)]
pub struct Volume<T> {
    /// Scan completion time `T_obs`, s.
    pub time: f64,
    /// Every radar's observations, radar by radar.
    pub obs: Vec<Observation<T>>,
    /// How many of `obs` each radar took, in network order: what routes
    /// each observation through its own radar's forward operator.
    pub per_radar: Vec<usize>,
}

impl<T> Volume<T> {
    /// The volume of a network scan, as [`Nature::advance`] yields it.
    pub(crate) fn scanned((scan, per_radar): (ScanResult<T>, Vec<usize>)) -> Self {
        Self {
            time: scan.time,
            obs: scan.obs,
            per_radar,
        }
    }
}

impl<T> From<DecodedVolume<T>> for Volume<T> {
    /// A single radar's volume, decoded off the wire.
    fn from(v: DecodedVolume<T>) -> Self {
        Self {
            per_radar: vec![v.obs.len()],
            time: v.time,
            obs: v.obs,
        }
    }
}

/// The nature run and its radar network.
pub struct Nature<T: Real> {
    /// Truth integration engine (owns the nature state and the triggers).
    model: Model<T>,
    pub(crate) radar: RadarNetwork,
    seed: u64,
    /// The scan clock, s.
    time: f64,
}

impl<T: Real> Nature<T> {
    pub fn new(cfg: &OsseConfig) -> Self {
        let mut model = Model::from_parts(cfg.model.clone(), cfg.base_state());
        model.triggers = cfg.nature_triggers.clone();
        Self {
            model,
            radar: cfg.radar_network(),
            seed: cfg.seed,
            time: 0.0,
        }
    }

    /// The truth state (for scoring only — the analysis never sees it).
    pub fn truth(&self) -> &ModelState<T> {
        &self.model.state
    }

    pub fn radar(&self) -> &RadarNetwork {
        &self.radar
    }

    /// Integrate the truth `seconds` without scanning.
    pub fn integrate(&mut self, seconds: f64) {
        // The truth is the experiment's "real world": if it blows up, the
        // whole OSSE is meaningless, so this stays fatal by design.
        self.model.integrate(seconds).expect("nature run blew up"); // bda-check: allow(unwrap)
        self.time += seconds;
    }

    /// Advance the truth by `dt` and scan it with every radar: the volume at
    /// the new `T_obs`, with the per-radar observation counts. The scan is
    /// seeded by the run seed and `T_obs` alone, so it draws from no stream
    /// a checkpoint would have to carry.
    pub fn advance(&mut self, dt: f64) -> (ScanResult<T>, Vec<usize>) {
        self.integrate(dt);
        let m = &self.model;
        self.radar
            .scan_with_counts(&m.state, &m.base, &m.cfg.grid, self.time, self.seed)
    }

    /// An independent continuation of the truth from its current state —
    /// the verifying truth of a forecast case.
    pub(crate) fn fork(&self) -> Self {
        let mut model = Model::from_parts(self.model.cfg.clone(), self.model.base.clone());
        model.triggers = self.model.triggers.clone();
        let _ = model.swap_state(self.model.state.clone());
        Self {
            model,
            radar: self.radar.clone(),
            seed: self.seed,
            time: self.time,
        }
    }

    /// Restore the truth state and the scan clock from a checkpoint.
    pub(crate) fn restore(&mut self, truth: &[T], truth_time: f64, time: f64) {
        self.model
            .state
            .from_flat(&bda_scale::state::PrognosticVar::ALL, truth);
        self.model.state.time = truth_time;
        self.time = time;
    }
}
