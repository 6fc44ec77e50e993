//! Synthetic rain-area time series for the campaign simulation.
//!
//! Fig. 5 overlays the observed rain area in the computational domain (for
//! rates >= 1 mm/h and >= 20 mm/h) on the time-to-solution series, because
//! rain area modulates compute time ("the more the rain area, the more the
//! computation"). Lacking the JMA rain analyses, this module generates a
//! statistically similar trace: a mean-reverting background with a diurnal
//! cycle (Kanto summer convection peaks in the afternoon) and episodic
//! heavy-rain events (fronts, typhoon remnants).

use bda_num::SplitMix64;
use serde::{Deserialize, Serialize};

/// A heavy-rain episode.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
struct Episode {
    /// Center time, s from trace start.
    t_center: f64,
    /// Duration scale, s.
    width: f64,
    /// Peak area contribution, km^2.
    peak_km2: f64,
}

/// Deterministic rain-area generator.
#[derive(Clone, Debug)]
pub struct RainTrace {
    episodes: Vec<Episode>,
    /// Background area scale for >= 1 mm/h rain, km^2.
    pub background_km2: f64,
    /// Domain area cap, km^2 (128 km x 128 km).
    pub domain_km2: f64,
    seed: u64,
}

impl RainTrace {
    /// Build a trace for `duration_s` with roughly one significant episode
    /// every couple of days, like the 2021 campaign.
    pub fn generate(duration_s: f64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut episodes = Vec::new();
        let mean_gap = 1.8 * 86_400.0;
        let mut t = rng.uniform_in(0.0, mean_gap);
        while t < duration_s {
            episodes.push(Episode {
                t_center: t,
                width: rng.uniform_in(2.0, 10.0) * 3600.0,
                peak_km2: rng.uniform_in(800.0, 6000.0),
            });
            t += rng.uniform_in(0.4, 1.6) * mean_gap;
        }
        Self {
            episodes,
            background_km2: 150.0,
            domain_km2: 128.0 * 128.0,
            seed,
        }
    }

    /// Rain area (km^2) with rate >= 1 mm/h at time `t`.
    pub fn area_1mmh(&self, t: f64) -> f64 {
        // Diurnal factor: peaks mid-afternoon (t measured from 00 JST).
        let hour = (t / 3600.0).rem_euclid(24.0);
        let diurnal = 1.0
            + 0.8
                * (std::f64::consts::TAU * (hour - 15.0) / 24.0)
                    .cos()
                    .max(-0.9);
        let mut area = self.background_km2 * diurnal;
        for e in &self.episodes {
            let x = (t - e.t_center) / e.width;
            area += e.peak_km2 * (-x * x).exp();
        }
        // Small deterministic high-frequency wiggle.
        let mut rng = SplitMix64::new(self.seed).split((t / 300.0) as u64);
        area *= 1.0 + 0.1 * (rng.next_uniform() - 0.5);
        area.min(self.domain_km2)
    }

    /// Rain area with rate >= 20 mm/h — a small, episode-dominated fraction
    /// of the light-rain area.
    pub fn area_20mmh(&self, t: f64) -> f64 {
        let light = self.area_1mmh(t);
        let episodic: f64 = self
            .episodes
            .iter()
            .map(|e| {
                let x = (t - e.t_center) / e.width;
                e.peak_km2 * (-x * x).exp()
            })
            .sum();
        // Heavy rain only exists inside episodes.
        (0.12 * episodic).min(light)
    }

    /// Normalized load factor in [0, 1]: the fraction of the domain with
    /// processable echo, which drives compute-time modulation.
    pub fn load_factor(&self, t: f64) -> f64 {
        (self.area_1mmh(t) / self.domain_km2).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MONTH: f64 = 30.0 * 86_400.0;

    #[test]
    fn deterministic_for_seed() {
        let a = RainTrace::generate(MONTH, 7);
        let b = RainTrace::generate(MONTH, 7);
        for i in 0..100 {
            let t = i as f64 * 7200.0;
            assert_eq!(a.area_1mmh(t), b.area_1mmh(t));
        }
    }

    #[test]
    fn area_is_bounded_by_domain() {
        let tr = RainTrace::generate(MONTH, 3);
        for i in 0..2000 {
            let t = i as f64 * 1800.0;
            let a1 = tr.area_1mmh(t);
            let a20 = tr.area_20mmh(t);
            assert!(a1 >= 0.0 && a1 <= tr.domain_km2);
            assert!(a20 >= 0.0 && a20 <= a1, "a20 {a20} > a1 {a1} at t {t}");
        }
    }

    #[test]
    fn episodes_produce_heavy_rain_peaks() {
        let tr = RainTrace::generate(MONTH, 11);
        assert!(
            tr.episodes.len() >= 5,
            "only {} episodes",
            tr.episodes.len()
        );
        let max20 = (0..20_000)
            .map(|i| tr.area_20mmh(i as f64 * 120.0))
            .fold(0.0, f64::max);
        assert!(max20 > 50.0, "no heavy-rain episodes: max {max20} km^2");
    }

    #[test]
    fn quiet_times_have_little_heavy_rain() {
        let tr = RainTrace::generate(MONTH, 13);
        let frac_heavy = (0..20_000)
            .map(|i| tr.area_20mmh(i as f64 * 120.0))
            .filter(|&a| a > 20.0)
            .count() as f64
            / 20_000.0;
        assert!(
            frac_heavy < 0.5,
            "heavy rain {:.0}% of the time",
            frac_heavy * 100.0
        );
    }

    #[test]
    fn load_factor_in_unit_interval() {
        let tr = RainTrace::generate(MONTH, 17);
        for i in 0..1000 {
            let l = tr.load_factor(i as f64 * 3600.0);
            assert!((0.0..=1.0).contains(&l));
        }
    }

    #[test]
    fn diurnal_cycle_peaks_in_afternoon() {
        let tr = RainTrace::generate(7.0 * 86_400.0, 19);
        // Average over several days at 15 JST vs 03 JST, background-dominated
        // trace (skip if an episode dominates — compare medians instead).
        let sample = |hour: f64| -> f64 {
            let mut vals: Vec<f64> = (0..7)
                .map(|d| tr.area_1mmh(d as f64 * 86_400.0 + hour * 3600.0))
                .collect();
            vals.sort_by(|a, b| a.total_cmp(b));
            vals[3] // median of 7 days
        };
        assert!(sample(15.0) > sample(3.0));
    }
}
