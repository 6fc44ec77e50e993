//! Synthetic large-scale forcing — the JMA mesoscale boundary-data analogue.
//!
//! The production system drives the outer domain with the operational JMA
//! mesoscale forecast at 5-km spacing, refreshed every 3 hours (Fig. 3b).
//! Here an equivalent data stream is synthesized: slowly evolving profiles of
//! wind, temperature and moisture anchored on a sounding, refreshed at the
//! same 3-hour cadence and interpolated linearly in time between refreshes —
//! exercising the same boundary-update code path.
//!
//! Convection initiation in the nature run is handled by a separate
//! [`TriggerSchedule`] of warm-bubble events, standing in for the real
//! low-level convergence features the radar saw.

use crate::base::Sounding;
use bda_num::SplitMix64;
use serde::{Deserialize, Serialize};

/// Boundary profiles at one instant.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundaryProfiles {
    /// Zonal wind, m/s, per level.
    pub u: Vec<f64>,
    /// Meridional wind, m/s, per level.
    pub v: Vec<f64>,
    /// Potential-temperature *perturbation* from the base state, K.
    pub theta_pert: Vec<f64>,
    /// Vapor mixing ratio, kg/kg, per level.
    pub qv: Vec<f64>,
}

/// The synthetic large-scale forcing generator.
#[derive(Clone, Debug)]
pub struct LargeScaleForcing {
    /// Refresh interval, s (paper: 3 h).
    pub refresh_interval: f64,
    sounding: Sounding,
    z_center: Vec<f64>,
    seed: u64,
    /// Amplitude of the slow wind modulation, m/s.
    pub wind_amplitude: f64,
    /// Amplitude of the slow moisture modulation (relative).
    pub moisture_amplitude: f64,
    /// Amplitude of the slow thermal modulation, K.
    pub theta_amplitude: f64,
}

impl LargeScaleForcing {
    pub fn new(sounding: Sounding, z_center: Vec<f64>, seed: u64) -> Self {
        Self {
            refresh_interval: 3.0 * 3600.0,
            sounding,
            z_center,
            seed,
            wind_amplitude: 3.0,
            moisture_amplitude: 0.15,
            theta_amplitude: 0.8,
        }
    }

    /// Profiles at one refresh epoch (deterministic in `epoch`).
    fn epoch_profiles(&self, epoch: u64) -> BoundaryProfiles {
        let mut rng = SplitMix64::new(self.seed).split(epoch);
        // Three smooth random numbers drive the modulation of this epoch.
        let mw = rng.gaussian(0.0f64, 1.0);
        let mq = rng.gaussian(0.0f64, 1.0);
        let mt = rng.gaussian(0.0f64, 1.0);
        let nz = self.z_center.len();
        let mut p = BoundaryProfiles {
            u: Vec::with_capacity(nz),
            v: Vec::with_capacity(nz),
            theta_pert: Vec::with_capacity(nz),
            qv: Vec::with_capacity(nz),
        };
        for &z in &self.z_center {
            let shape = (-z / 6000.0_f64).exp(); // modulations strongest at low levels
            p.u.push(self.sounding.u(z) + self.wind_amplitude * mw * shape);
            p.v.push(self.sounding.v_constant + 0.5 * self.wind_amplitude * mw * shape);
            p.theta_pert.push(self.theta_amplitude * mt * shape);
            // Barometric pressure estimate and the matching temperature give
            // a physically scaled saturation humidity.
            let p_est = self.sounding.p_surface * (-z / 8000.0_f64).exp();
            let t_est = self.sounding.theta(z) * crate::constants::exner(p_est);
            let qv_env = self.sounding.rh(z) * crate::constants::q_sat_liquid(t_est, p_est);
            p.qv.push((qv_env * (1.0 + self.moisture_amplitude * mq * shape)).max(0.0));
        }
        p
    }

    /// Profiles at time `t` (s), linearly interpolated between the
    /// surrounding 3-hourly refreshes — exactly how the real system consumes
    /// the JMA stream.
    pub fn profiles_at(&self, t: f64) -> BoundaryProfiles {
        let epoch = (t / self.refresh_interval).floor().max(0.0) as u64;
        let frac = (t / self.refresh_interval - epoch as f64).clamp(0.0, 1.0);
        let a = self.epoch_profiles(epoch);
        let b = self.epoch_profiles(epoch + 1);
        let lerp = |x: &[f64], y: &[f64]| -> Vec<f64> {
            x.iter()
                .zip(y)
                .map(|(&xa, &yb)| xa * (1.0 - frac) + yb * frac)
                .collect()
        };
        BoundaryProfiles {
            u: lerp(&a.u, &b.u),
            v: lerp(&a.v, &b.v),
            theta_pert: lerp(&a.theta_pert, &b.theta_pert),
            qv: lerp(&a.qv, &b.qv),
        }
    }
}

/// A scheduled convection trigger (warm bubble).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TriggerEvent {
    /// Model time of the trigger, s.
    pub time: f64,
    /// Bubble center, m.
    pub x: f64,
    pub y: f64,
    pub z: f64,
    /// Horizontal and vertical radii, m.
    pub radius_h: f64,
    pub radius_v: f64,
    /// Peak theta perturbation, K.
    pub amplitude: f64,
}

/// A time-ordered schedule of triggers.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TriggerSchedule {
    events: Vec<TriggerEvent>,
}

impl TriggerSchedule {
    pub fn new(mut events: Vec<TriggerEvent>) -> Self {
        events.sort_by(|a, b| a.time.total_cmp(&b.time));
        Self { events }
    }

    pub fn empty() -> Self {
        Self::default()
    }

    /// A random multicell schedule over the domain — the OSSE's stand-in for
    /// the real sequence of convective initiations.
    pub fn random_multicell(
        lx: f64,
        ly: f64,
        t_start: f64,
        t_end: f64,
        n: usize,
        seed: u64,
    ) -> Self {
        let mut rng = SplitMix64::new(seed);
        let events = (0..n)
            .map(|_| TriggerEvent {
                time: rng.uniform_in(t_start, t_end),
                x: rng.uniform_in(0.2 * lx, 0.8 * lx),
                y: rng.uniform_in(0.2 * ly, 0.8 * ly),
                z: rng.uniform_in(800.0, 1800.0),
                radius_h: rng.uniform_in(2000.0, 5000.0),
                radius_v: rng.uniform_in(1000.0, 1800.0),
                amplitude: rng.uniform_in(1.5, 3.0),
            })
            .collect();
        Self::new(events)
    }

    /// The fixed storm of the benchmark's model workloads: three strong
    /// warm bubbles in the first minute, so a domain carries radar echo
    /// from about 300 s on.
    pub fn storm_trio(lx: f64, ly: f64) -> Self {
        let bubble = |time, fx: f64, fy: f64| TriggerEvent {
            time,
            x: fx * lx,
            y: fy * ly,
            z: 1200.0,
            radius_h: 4000.0,
            radius_v: 1500.0,
            amplitude: 8.0,
        };
        Self::new(vec![
            bubble(1.0, 0.3, 0.35),
            bubble(30.0, 0.65, 0.4),
            bubble(60.0, 0.45, 0.7),
        ])
    }

    /// Events with `t_prev < time <= t_now`, in order.
    pub fn due(&self, t_prev: f64, t_now: f64) -> impl Iterator<Item = &TriggerEvent> {
        self.events
            .iter()
            .filter(move |e| e.time > t_prev && e.time <= t_now)
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// All events in time order.
    pub fn events(&self) -> &[TriggerEvent] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_grid::VerticalCoord;

    fn forcing() -> LargeScaleForcing {
        let vc = VerticalCoord::stretched(30, 16_400.0, 1.05);
        LargeScaleForcing::new(Sounding::convective(), vc.z_center, 7)
    }

    #[test]
    fn profiles_are_continuous_in_time() {
        let f = forcing();
        let p1 = f.profiles_at(3600.0);
        let p2 = f.profiles_at(3601.0);
        for k in 0..p1.u.len() {
            assert!((p1.u[k] - p2.u[k]).abs() < 0.05, "u jump at level {k}");
            assert!((p1.qv[k] - p2.qv[k]).abs() < 1e-5);
        }
    }

    #[test]
    fn profiles_differ_between_epochs() {
        let f = forcing();
        let p1 = f.profiles_at(0.0);
        let p2 = f.profiles_at(6.0 * 3600.0);
        let diff: f64 = p1.u.iter().zip(&p2.u).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 0.1, "forcing never evolves");
    }

    #[test]
    fn profiles_reproducible_for_same_seed() {
        let a = forcing().profiles_at(5000.0);
        let b = forcing().profiles_at(5000.0);
        assert_eq!(a, b);
    }

    #[test]
    fn moisture_profile_is_physical() {
        let f = forcing();
        let p = f.profiles_at(7200.0);
        for (k, &q) in p.qv.iter().enumerate() {
            assert!((0.0..0.03).contains(&q), "qv[{k}] = {q}");
        }
        // More moisture at the bottom than the top.
        assert!(p.qv[0] > p.qv[p.qv.len() - 1]);
    }

    #[test]
    fn schedule_due_window_is_half_open() {
        let s = TriggerSchedule::new(vec![
            TriggerEvent {
                time: 10.0,
                x: 0.0,
                y: 0.0,
                z: 1000.0,
                radius_h: 2000.0,
                radius_v: 1000.0,
                amplitude: 2.0,
            },
            TriggerEvent {
                time: 20.0,
                x: 0.0,
                y: 0.0,
                z: 1000.0,
                radius_h: 2000.0,
                radius_v: 1000.0,
                amplitude: 2.0,
            },
        ]);
        assert_eq!(s.due(0.0, 10.0).count(), 1);
        assert_eq!(s.due(10.0, 20.0).count(), 1);
        assert_eq!(s.due(20.0, 30.0).count(), 0);
    }

    #[test]
    fn random_multicell_respects_bounds() {
        let s = TriggerSchedule::random_multicell(128_000.0, 128_000.0, 0.0, 3600.0, 12, 3);
        assert_eq!(s.len(), 12);
        for e in s.due(-1.0, 1e12) {
            assert!((0.0..=3600.0).contains(&e.time));
            assert!(e.x >= 0.2 * 128_000.0 && e.x <= 0.8 * 128_000.0);
            assert!(e.amplitude >= 1.5 && e.amplitude <= 3.0);
        }
    }

    #[test]
    fn schedule_sorts_events() {
        let s = TriggerSchedule::new(vec![
            TriggerEvent {
                time: 30.0,
                x: 0.0,
                y: 0.0,
                z: 0.0,
                radius_h: 1.0,
                radius_v: 1.0,
                amplitude: 1.0,
            },
            TriggerEvent {
                time: 5.0,
                x: 0.0,
                y: 0.0,
                z: 0.0,
                radius_h: 1.0,
                radius_v: 1.0,
                amplitude: 1.0,
            },
        ]);
        let times: Vec<f64> = s.due(-1.0, 100.0).map(|e| e.time).collect();
        assert_eq!(times, vec![5.0, 30.0]);
    }
}
