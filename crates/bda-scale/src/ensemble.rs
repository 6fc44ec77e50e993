//! Ensemble containers and Rayon-parallel propagation.
//!
//! The paper runs a 1000-member analysis ensemble (parts <1-1>/<1-2>) and an
//! 11-member forecast ensemble (part <2>), distributing members over Fugaku
//! nodes. Here members are distributed over Rayon workers: each worker owns a
//! private [`Model`] engine (workspaces included) and steps its members,
//! which is exactly the shared-nothing structure of the MPI original.

use crate::base::BaseState;
use crate::config::ModelConfig;
use crate::model::{BlowUp, Boundary, Model};
use crate::state::{ModelState, PrognosticVar};
use bda_grid::GridSpec;
use bda_num::{Real, SplitMix64};
use rayon::prelude::*;

/// Why a member forecast is unusable — the typed replacement for the old
/// "one member panics the whole ensemble" behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberError {
    /// The model integration itself blew up (non-finite state mid-run).
    BlowUp { member: usize, step: usize },
    /// The post-forecast health scan found a non-finite value in `var`.
    NonFinite { member: usize, var: PrognosticVar },
    /// The member's integration panicked (e.g. a zero pivot in an implicit
    /// solver fed non-finite values); the panic was caught at the member
    /// boundary and the member's state is discarded.
    Panicked { member: usize },
}

impl MemberError {
    /// Which member this error belongs to.
    pub fn member(&self) -> usize {
        match *self {
            MemberError::BlowUp { member, .. } => member,
            MemberError::NonFinite { member, .. } => member,
            MemberError::Panicked { member } => member,
        }
    }
}

impl std::fmt::Display for MemberError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MemberError::BlowUp { member, step } => {
                write!(f, "member {member} blew up at step {step}")
            }
            MemberError::NonFinite { member, var } => {
                write!(f, "member {member} has non-finite {}", var.name())
            }
            MemberError::Panicked { member } => {
                write!(f, "member {member} panicked during integration")
            }
        }
    }
}

impl std::error::Error for MemberError {}

/// Per-member verdict from the post-forecast health scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberHealth {
    /// Finite and inside all physical bounds.
    Healthy,
    /// Finite but outside a physical bound for `var` — still assimilated
    /// (the observations pull it back) but counted and reported.
    Suspect(PrognosticVar),
    /// Forecast failed or non-finite: quarantined from the analysis and
    /// respawned afterwards.
    Dead,
}

// Physical-plausibility bounds for the member health scan. Values are
// deliberately generous: they flag states that are numerically alive but
// meteorologically absurd (a 150 m/s updraft), not marginal ones.

/// |u|, |v| ceiling of a healthy member, m/s.
const MAX_HORIZONTAL_WIND: f64 = 150.0;
/// |w| ceiling of a healthy member, m/s.
const MAX_W: f64 = 100.0;
/// |theta'| ceiling of a healthy member, K.
const MAX_THETA_PERT: f64 = 60.0;
/// Mixing-ratio ceiling of a healthy member for all water species, kg/kg.
const MAX_MOISTURE: f64 = 0.1;

/// Result of scanning every member after a forecast step.
#[derive(Clone, Debug)]
pub struct EnsembleHealth {
    /// Verdict per member, index-aligned with the ensemble.
    pub status: Vec<MemberHealth>,
    /// The typed errors behind every `Dead` verdict.
    pub errors: Vec<MemberError>,
}

impl EnsembleHealth {
    /// Indices of members that survive into the analysis.
    pub fn alive(&self) -> Vec<usize> {
        (0..self.status.len())
            .filter(|&m| self.status[m] != MemberHealth::Dead)
            .collect()
    }

    /// Indices of quarantined members (to be respawned).
    pub fn dead(&self) -> Vec<usize> {
        (0..self.status.len())
            .filter(|&m| self.status[m] == MemberHealth::Dead)
            .collect()
    }

    /// Survival flags, index-aligned with the ensemble.
    pub fn alive_flags(&self) -> Vec<bool> {
        self.status
            .iter()
            .map(|s| *s != MemberHealth::Dead)
            .collect()
    }

    pub fn n_alive(&self) -> usize {
        self.status
            .iter()
            .filter(|s| **s != MemberHealth::Dead)
            .count()
    }

    pub fn n_suspect(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, MemberHealth::Suspect(_)))
            .count()
    }

    /// One-line summary for cycle reports, e.g. `alive 3/4, dead [1]`.
    pub fn summary(&self) -> String {
        let mut s = format!("alive {}/{}", self.n_alive(), self.status.len());
        if self.n_suspect() > 0 {
            s.push_str(&format!(", suspect {}", self.n_suspect()));
        }
        let dead = self.dead();
        if !dead.is_empty() {
            s.push_str(&format!(", dead {dead:?}"));
        }
        s
    }
}

/// An ensemble of model states sharing one configuration and base state.
pub struct Ensemble<T> {
    pub members: Vec<ModelState<T>>,
}

impl<T: Real> Ensemble<T> {
    /// Spin up an ensemble of perturbed copies of `initial`.
    pub fn from_perturbations(
        initial: &ModelState<T>,
        cfg: &ModelConfig,
        n: usize,
        seed: u64,
        theta_sd: f64,
        qv_sd: f64,
    ) -> Self {
        let parent = SplitMix64::new(seed);
        let members = (0..n)
            .into_par_iter()
            .map(|m| {
                let mut state = initial.clone();
                let mut rng = parent.split(m as u64);
                state.perturb(&cfg.grid, &mut rng, theta_sd, qv_sd);
                state
            })
            .collect();
        Self { members }
    }

    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Ensemble mean over all prognostic fields.
    pub fn mean(&self) -> ModelState<T> {
        assert!(!self.members.is_empty());
        let mut acc = self.members[0].clone();
        let w = T::one() / T::of_usize(self.members.len());
        acc.blend(w, &self.members[0], T::zero()); // scale first member by w
        for m in &self.members[1..] {
            acc.blend(T::one(), m, w);
        }
        acc.time = self.members[0].time;
        acc
    }

    /// Domain-mean ensemble spread (standard deviation) of one variable —
    /// the filter-health diagnostic.
    pub fn spread(&self, var: PrognosticVar) -> f64 {
        let k = self.members.len();
        assert!(k >= 2);
        let flats: Vec<Vec<T>> = self.members.iter().map(|m| m.to_flat(&[var])).collect();
        let n = flats[0].len();
        let mut total = 0.0;
        for idx in 0..n {
            let mean: f64 = flats.iter().map(|f| f[idx].f64()).sum::<f64>() / k as f64;
            let var_: f64 = flats
                .iter()
                .map(|f| (f[idx].f64() - mean).powi(2))
                .sum::<f64>()
                / (k - 1) as f64;
            total += var_;
        }
        (total / n as f64).sqrt()
    }

    /// Propagate every member forward by `duration` seconds in parallel.
    ///
    /// `boundary` builds a per-member boundary condition (e.g. from the
    /// matching outer-domain member, Fig. 3b). Returns the first blow-up if
    /// any member fails.
    pub fn forecast(
        &mut self,
        cfg: &ModelConfig,
        base: &BaseState<T>,
        duration: f64,
        boundary: impl Fn(usize) -> Boundary<T> + Sync,
    ) -> Result<(), BlowUp> {
        self.forecast_with(cfg, base, duration, |idx, engine| {
            engine.boundary = boundary(idx);
        })
    }

    /// Like [`Self::forecast`], but with full per-member engine setup —
    /// boundary conditions, trigger schedules, physics parameter
    /// perturbations (stochastic-physics style member diversity).
    pub fn forecast_with(
        &mut self,
        cfg: &ModelConfig,
        base: &BaseState<T>,
        duration: f64,
        setup: impl Fn(usize, &mut Model<T>) + Sync,
    ) -> Result<(), BlowUp> {
        self.forecast_each(cfg, base, duration, setup)
            .into_iter()
            .try_for_each(|r| {
                r.map_err(|e| match e {
                    MemberError::BlowUp { step, .. } => BlowUp { step },
                    _ => BlowUp { step: 0 },
                })
            })
    }

    /// Propagate every member, keeping per-member outcomes: a failed member
    /// never aborts (or panics) the rest of the ensemble. This is the entry
    /// point for the quarantine path — pair it with [`Self::health_scan`].
    pub fn forecast_members(
        &mut self,
        cfg: &ModelConfig,
        base: &BaseState<T>,
        duration: f64,
        boundary: impl Fn(usize) -> Boundary<T> + Sync,
    ) -> Vec<Result<(), MemberError>> {
        self.forecast_each(cfg, base, duration, |idx, engine| {
            engine.boundary = boundary(idx);
        })
    }

    fn forecast_each(
        &mut self,
        cfg: &ModelConfig,
        base: &BaseState<T>,
        duration: f64,
        setup: impl Fn(usize, &mut Model<T>) + Sync,
    ) -> Vec<Result<(), MemberError>> {
        self.members
            .par_iter_mut()
            .enumerate()
            .map(|(idx, member)| {
                // Panic isolation at the member boundary: an implicit solver
                // fed NaN can panic (zero pivot), and without the catch one
                // poisoned member would tear down the whole Rayon forecast.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut engine = Model::from_parts(cfg.clone(), base.clone());
                    setup(idx, &mut engine);
                    let placeholder =
                        engine.swap_state(std::mem::replace(member, ModelState::zeros(&cfg.grid)));
                    drop(placeholder);
                    let r = engine.integrate(duration);
                    *member = engine.swap_state(ModelState::zeros(&cfg.grid));
                    r
                }));
                match caught {
                    Ok(Ok(())) => Ok(()),
                    Ok(Err(BlowUp { step })) => Err(MemberError::BlowUp { member: idx, step }),
                    // The member's state died with the panicked engine; the
                    // zeroed placeholder left behind is quarantined anyway.
                    Err(_) => Err(MemberError::Panicked { member: idx }),
                }
            })
            .collect()
    }

    /// Classify every member Healthy / Suspect / Dead after a
    /// [`Self::forecast_members`] round.
    ///
    /// A member is Dead if its forecast errored or any prognostic field
    /// contains a non-finite value; Suspect if finite but outside the
    /// physical bounds; Healthy otherwise. The scan is one pass per field
    /// (`Field3::interior_finite_max_abs`) and runs in parallel over
    /// members, so it is cheap relative to the forecast itself.
    pub fn health_scan(&self, results: &[Result<(), MemberError>]) -> EnsembleHealth {
        assert_eq!(results.len(), self.members.len());
        let verdicts: Vec<(MemberHealth, Option<MemberError>)> = self
            .members
            .par_iter()
            .enumerate()
            .map(|(m, state)| {
                if let Err(e) = results[m] {
                    return (MemberHealth::Dead, Some(e));
                }
                let mut suspect: Option<PrognosticVar> = None;
                for var in PrognosticVar::ALL {
                    let max_abs = match state.field(var).interior_finite_max_abs() {
                        None => {
                            return (
                                MemberHealth::Dead,
                                Some(MemberError::NonFinite { member: m, var }),
                            )
                        }
                        Some(v) => v.f64(),
                    };
                    let bound = match var {
                        PrognosticVar::U | PrognosticVar::V => Some(MAX_HORIZONTAL_WIND),
                        PrognosticVar::W => Some(MAX_W),
                        PrognosticVar::Theta => Some(MAX_THETA_PERT),
                        v if v.is_moisture() => Some(MAX_MOISTURE),
                        _ => None, // Pi / TKE: finiteness only
                    };
                    if suspect.is_none() {
                        if let Some(b) = bound {
                            if max_abs > b {
                                suspect = Some(var);
                            }
                        }
                    }
                }
                match suspect {
                    Some(var) => (MemberHealth::Suspect(var), None),
                    None => (MemberHealth::Healthy, None),
                }
            })
            .collect();
        EnsembleHealth {
            status: verdicts.iter().map(|(h, _)| *h).collect(),
            errors: verdicts.into_iter().filter_map(|(_, e)| e).collect(),
        }
    }

    /// Ensemble mean over a subset of members (the surviving quorum).
    pub fn mean_of(&self, indices: &[usize]) -> ModelState<T> {
        assert!(!indices.is_empty(), "mean_of over empty member set");
        let w = T::one() / T::of_usize(indices.len());
        let first = &self.members[indices[0]];
        let mut acc = first.clone();
        acc.blend(w, first, T::zero()); // scale first member by w
        for &i in &indices[1..] {
            acc.blend(T::one(), &self.members[i], w);
        }
        acc.time = first.time;
        acc
    }

    /// Replace a quarantined member with `template` (normally the analysis
    /// mean of the surviving members) plus fresh re-inflated perturbations,
    /// so the ensemble self-heals over subsequent cycles. Draws from `rng`
    /// (checkpoint the stream for bit-for-bit restart).
    pub fn respawn(
        &mut self,
        member: usize,
        template: &ModelState<T>,
        grid: &GridSpec,
        rng: &mut SplitMix64,
        theta_sd: f64,
        qv_sd: f64,
    ) {
        let mut state = template.clone();
        state.perturb(grid, rng, theta_sd, qv_sd);
        state.time = template.time;
        self.members[member] = state;
    }

    /// Fault injection: poison one member with a NaN (health-scan path).
    pub fn inject_nan(&mut self, member: usize) {
        let nan = T::zero() / T::zero();
        self.members[member].w.set(0, 0, 0, nan);
    }

    /// Fault injection: seed one member with an infinite wind so its next
    /// forecast blows up (forecast-error path).
    pub fn inject_blowup(&mut self, member: usize) {
        self.members[member].u.set(0, 0, 0, T::infinity());
    }

    /// Select members by index (e.g. the paper's "10 analyses randomly
    /// chosen from the 1000-member ensemble" + the mean for part <2>).
    pub fn subset(&self, indices: &[usize]) -> Ensemble<T> {
        Ensemble {
            members: indices.iter().map(|&i| self.members[i].clone()).collect(),
        }
    }

    /// Draw `k` distinct random member indices.
    pub fn random_member_indices(&self, k: usize, rng: &mut SplitMix64) -> Vec<usize> {
        rng.sample_distinct(self.members.len(), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Sounding;
    use crate::config::PhysicsSwitches;

    fn setup() -> (ModelConfig, BaseState<f32>, ModelState<f32>) {
        let mut cfg = ModelConfig::reduced(10, 10, 8);
        cfg.halo = bda_grid::halo::HaloPolicy::Periodic;
        cfg.davies_width = 0;
        cfg.physics = PhysicsSwitches::dry();
        let base =
            BaseState::from_sounding(&Sounding::dry_stable(), &cfg.grid.vertical, cfg.sound_speed);
        let init = ModelState::init_from_base(&cfg.grid, &base);
        (cfg, base, init)
    }

    #[test]
    fn perturbed_members_differ_from_each_other() {
        let (cfg, _, init) = setup();
        let ens = Ensemble::from_perturbations(&init, &cfg, 4, 1, 0.5, 1e-4);
        assert_eq!(ens.size(), 4);
        let a = ens.members[0].to_flat(&[PrognosticVar::Theta]);
        let b = ens.members[1].to_flat(&[PrognosticVar::Theta]);
        assert_ne!(a, b);
    }

    #[test]
    fn ensemble_generation_is_reproducible() {
        let (cfg, _, init) = setup();
        let e1 = Ensemble::from_perturbations(&init, &cfg, 3, 9, 0.5, 1e-4);
        let e2 = Ensemble::from_perturbations(&init, &cfg, 3, 9, 0.5, 1e-4);
        for (a, b) in e1.members.iter().zip(&e2.members) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn mean_of_identical_members_is_the_member() {
        let (_, _, init) = setup();
        let ens = Ensemble {
            members: vec![init.clone(), init.clone(), init.clone()],
        };
        let mean = ens.mean();
        let a = mean.to_flat(&[PrognosticVar::U, PrognosticVar::Qv]);
        let b = init.to_flat(&[PrognosticVar::U, PrognosticVar::Qv]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn spread_is_positive_for_perturbed_ensemble_and_zero_for_clones() {
        let (cfg, _, init) = setup();
        let ens = Ensemble::from_perturbations(&init, &cfg, 5, 2, 0.5, 1e-4);
        assert!(ens.spread(PrognosticVar::Theta) > 0.0);
        let clones = Ensemble {
            members: vec![init.clone(), init.clone()],
        };
        assert_eq!(clones.spread(PrognosticVar::Theta), 0.0);
    }

    #[test]
    fn parallel_forecast_advances_all_members() {
        let (cfg, base, init) = setup();
        let mut ens = Ensemble::from_perturbations(&init, &cfg, 3, 4, 0.3, 5e-5);
        let results = ens.forecast_members(&cfg, &base, 5.0, |_| Boundary::BaseState);
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        for m in &ens.members {
            assert!((m.time - 5.0).abs() < 1e-9);
            assert!(m.all_finite());
        }
    }

    #[test]
    fn forecast_divergence_grows_spread() {
        // Chaos seed: perturbed members integrated forward should not
        // collapse onto each other.
        let (cfg, base, mut init) = setup();
        let g = cfg.grid.clone();
        init.add_warm_bubble(&g, g.lx() / 2.0, g.ly() / 2.0, 1500.0, 2000.0, 1000.0, 2.0);
        let mut ens = Ensemble::from_perturbations(&init, &cfg, 3, 8, 0.3, 5e-5);
        let before = ens.spread(PrognosticVar::W);
        let results = ens.forecast_members(&cfg, &base, 30.0, |_| Boundary::BaseState);
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        let after = ens.spread(PrognosticVar::W);
        assert!(after > 0.0);
        // w spread must have been created from zero initial w spread... the
        // perturbations had no w component, so any w spread is dynamical.
        assert!(after >= before);
    }

    #[test]
    fn health_scan_flags_nan_member_as_dead() {
        let (cfg, _, init) = setup();
        let mut ens = Ensemble::from_perturbations(&init, &cfg, 4, 4, 0.3, 5e-5);
        ens.inject_nan(2);
        let results = vec![Ok(()); 4];
        let health = ens.health_scan(&results);
        assert_eq!(health.status[2], MemberHealth::Dead);
        assert_eq!(health.dead(), vec![2]);
        assert_eq!(health.alive(), vec![0, 1, 3]);
        assert_eq!(health.n_alive(), 3);
        assert_eq!(health.alive_flags(), vec![true, true, false, true]);
        assert_eq!(
            health.errors,
            vec![MemberError::NonFinite {
                member: 2,
                var: PrognosticVar::W
            }]
        );
        assert!(health.summary().contains("dead [2]"));
    }

    #[test]
    fn health_scan_flags_absurd_but_finite_member_as_suspect() {
        let (cfg, _, init) = setup();
        let mut ens = Ensemble::from_perturbations(&init, &cfg, 3, 4, 0.3, 5e-5);
        ens.members[1].w.set(1, 1, 1, 500.0); // finite but unphysical
        let results = vec![Ok(()); 3];
        let health = ens.health_scan(&results);
        assert_eq!(health.status[1], MemberHealth::Suspect(PrognosticVar::W));
        // Suspect members still count as alive (assimilation pulls them back).
        assert_eq!(health.n_alive(), 3);
        assert_eq!(health.n_suspect(), 1);
    }

    #[test]
    fn blown_up_forecast_is_a_member_error_not_a_panic() {
        let (cfg, base, init) = setup();
        let mut ens = Ensemble::from_perturbations(&init, &cfg, 3, 4, 0.3, 5e-5);
        ens.inject_blowup(1);
        // Four workers: each member's row regions nest inside its own, so a
        // failing member's rows never reach the other members' workers.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool build is infallible");
        let results =
            pool.install(|| ens.forecast_members(&cfg, &base, 5.0, |_| Boundary::BaseState));
        assert!(results[0].is_ok());
        // Depending on where the non-finite value bites, the failure is a
        // detected blow-up or a caught panic — either way it is member 1's
        // typed error, not a process abort.
        assert_eq!(results[1].unwrap_err().member(), 1);
        assert!(results[2].is_ok());
        let health = ens.health_scan(&results);
        assert_eq!(health.dead(), vec![1]);
    }

    #[test]
    fn respawn_replaces_dead_member_with_perturbed_template() {
        let (cfg, _, init) = setup();
        let mut ens = Ensemble::from_perturbations(&init, &cfg, 3, 4, 0.3, 5e-5);
        ens.inject_nan(0);
        let template = ens.mean_of(&[1, 2]);
        let mut rng = SplitMix64::new(77);
        ens.respawn(0, &template, &cfg.grid, &mut rng, 0.3, 5e-5);
        assert!(ens.members[0].all_finite());
        // Perturbed, so not identical to the template...
        assert_ne!(
            ens.members[0].to_flat(&[PrognosticVar::Theta]),
            template.to_flat(&[PrognosticVar::Theta])
        );
        // ...and deterministic given the same RNG stream.
        let mut ens2 = Ensemble {
            members: vec![ens.members[1].clone(), ens.members[2].clone()],
        };
        let mut rng2 = SplitMix64::new(77);
        ens2.respawn(0, &template, &cfg.grid, &mut rng2, 0.3, 5e-5);
        assert_eq!(ens.members[0], ens2.members[0]);
    }

    #[test]
    fn mean_of_subset_matches_full_mean_on_full_index_set() {
        let (cfg, _, init) = setup();
        let ens = Ensemble::from_perturbations(&init, &cfg, 4, 9, 0.3, 5e-5);
        let a = ens.mean().to_flat(&[PrognosticVar::Theta]);
        let b = ens.mean_of(&[0, 1, 2, 3]).to_flat(&[PrognosticVar::Theta]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn subset_and_random_indices() {
        let (cfg, _, init) = setup();
        let ens = Ensemble::from_perturbations(&init, &cfg, 6, 3, 0.2, 1e-5);
        let mut rng = SplitMix64::new(1);
        let idx = ens.random_member_indices(3, &mut rng);
        assert_eq!(idx.len(), 3);
        let sub = ens.subset(&idx);
        assert_eq!(sub.size(), 3);
        assert_eq!(sub.members[0], ens.members[idx[0]]);
    }
}
