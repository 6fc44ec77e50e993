//! Hydrostatically balanced base state and idealized soundings.
//!
//! The quasi-compressible dynamics integrate *perturbations* about a
//! horizontally homogeneous, hydrostatically balanced reference column
//! (theta0, rho0, pi0). Sounding generators provide the dry-stable profile
//! for dynamics tests and a Weisman–Klemp-style convectively unstable profile
//! for the heavy-rain OSSE experiments.

use crate::constants::*;
use bda_grid::VerticalCoord;
use bda_num::Real;
use serde::{Deserialize, Serialize};

/// An idealized sounding: profiles of potential temperature, vapor mixing
/// ratio and horizontal wind as functions of height.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Sounding {
    /// Surface pressure, Pa.
    pub p_surface: f64,
    /// Potential temperature at height z (sampled by the builder).
    pub theta_surface: f64,
    /// theta lapse in the troposphere, K/m.
    pub dtheta_dz_tropo: f64,
    /// Tropopause height, m.
    pub z_tropopause: f64,
    /// theta lapse above the tropopause, K/m.
    pub dtheta_dz_strato: f64,
    /// Surface relative humidity (0..1).
    pub rh_surface: f64,
    /// e-folding height of the humidity profile, m.
    pub rh_scale_height: f64,
    /// Surface zonal wind, m/s.
    pub u_surface: f64,
    /// Zonal shear, 1/s, applied up to `shear_depth`.
    pub u_shear: f64,
    /// Depth of the shear layer, m.
    pub shear_depth: f64,
    /// Meridional wind (constant), m/s.
    pub v_constant: f64,
}

impl Sounding {
    /// Convectively unstable, moist, sheared profile in the spirit of
    /// Weisman & Klemp (1982) — the environment that produces the heavy
    /// convective rain the BDA system targets.
    pub fn convective() -> Self {
        Self {
            p_surface: 101_325.0,
            theta_surface: 302.0,
            dtheta_dz_tropo: 2.6e-3,
            z_tropopause: 12_000.0,
            dtheta_dz_strato: 22.0e-3,
            rh_surface: 0.90,
            rh_scale_height: 3500.0,
            u_surface: 2.0,
            u_shear: 2.5e-3,
            shear_depth: 6000.0,
            v_constant: 1.0,
        }
    }

    /// Potential temperature at height z.
    pub fn theta(&self, z: f64) -> f64 {
        if z <= self.z_tropopause {
            self.theta_surface + self.dtheta_dz_tropo * z
        } else {
            self.theta_surface
                + self.dtheta_dz_tropo * self.z_tropopause
                + self.dtheta_dz_strato * (z - self.z_tropopause)
        }
    }

    /// Relative humidity at height z (dries out above the tropopause).
    pub fn rh(&self, z: f64) -> f64 {
        if z > self.z_tropopause {
            return 0.05f64.min(self.rh_surface);
        }
        self.rh_surface * (-z / self.rh_scale_height).exp().max(0.05)
    }

    /// Zonal wind at height z.
    pub fn u(&self, z: f64) -> f64 {
        self.u_surface + self.u_shear * z.min(self.shear_depth)
    }
}

/// Hydrostatically balanced reference column, precomputed in `f64` and
/// stored at the model precision `T` for the hot loops.
#[derive(Clone, Debug)]
pub struct BaseState<T> {
    /// Potential temperature at cell centers.
    pub theta0: Vec<T>,
    /// Potential temperature interpolated to z-faces (length nz + 1).
    pub theta0_face: Vec<T>,
    /// Dry density at cell centers.
    pub rho0: Vec<T>,
    /// Density at z-faces (length nz + 1).
    pub rho0_face: Vec<T>,
    /// Exner function at cell centers.
    pub pi0: Vec<T>,
    /// Pressure at cell centers, Pa.
    pub p0: Vec<T>,
    /// Temperature at cell centers, K.
    pub t0: Vec<T>,
    /// Base vapor mixing ratio (the environment moisture), kg/kg.
    pub qv0: Vec<T>,
    /// Base zonal wind.
    pub u0: Vec<T>,
    /// Base meridional wind.
    pub v0: Vec<T>,
    /// HEVI coefficient `rho0_face * theta0_face` (length nz + 1).
    pub a_face: Vec<T>,
    /// HEVI coefficient `cs^2 / (cp * rho0 * theta0^2)` at centers.
    pub b_center: Vec<T>,
}

impl<T: Real> BaseState<T> {
    /// Build a balanced base state from a sounding on the given vertical
    /// coordinate, with the configured effective sound speed.
    pub fn from_sounding(sounding: &Sounding, vc: &VerticalCoord, sound_speed: f64) -> Self {
        let nz = vc.nz();
        // --- f64 construction pass ---
        let theta: Vec<f64> = vc.z_center.iter().map(|&z| sounding.theta(z)).collect();

        // First guess qv from RH at a provisional pressure; we iterate the
        // hydrostatic integration twice so moisture and pressure converge.
        let mut qv = vec![0.0_f64; nz];
        let mut p = vec![sounding.p_surface; nz];
        for _iter in 0..3 {
            // Hydrostatic integration of the Exner function with theta_v.
            let mut pi_c = vec![0.0_f64; nz];
            let mut pi_prev = exner(sounding.p_surface); // at surface face
            let mut z_prev = 0.0;
            for k in 0..nz {
                let thv = theta[k] * (1.0 + 0.61 * qv[k]);
                let dz = vc.z_center[k] - z_prev;
                pi_c[k] = pi_prev - GRAV / (CP * thv) * dz;
                pi_prev = pi_c[k];
                z_prev = vc.z_center[k];
            }
            for k in 0..nz {
                p[k] = pressure_from_exner(pi_c[k]);
                let t = theta[k] * pi_c[k];
                qv[k] = sounding.rh(vc.z_center[k]) * q_sat_liquid(t, p[k]);
            }
        }

        let pi_c: Vec<f64> = p.iter().map(|&pk| exner(pk)).collect();
        let t_c: Vec<f64> = (0..nz).map(|k| theta[k] * pi_c[k]).collect();
        let rho: Vec<f64> = (0..nz)
            .map(|k| p[k] / (RD * t_c[k] * (1.0 + 0.61 * qv[k])))
            .collect();

        // Face interpolation (linear in z; clamp at the boundaries).
        let face_interp = |center: &[f64]| -> Vec<f64> {
            let mut out = Vec::with_capacity(nz + 1);
            out.push(center[0]);
            for k in 1..nz {
                let z_f = vc.z_face[k];
                let w = (z_f - vc.z_center[k - 1]) / (vc.z_center[k] - vc.z_center[k - 1]);
                out.push(center[k - 1] * (1.0 - w) + center[k] * w);
            }
            out.push(center[nz - 1]);
            out
        };
        let theta_f = face_interp(&theta);
        let rho_f = face_interp(&rho);

        let cs2 = sound_speed * sound_speed;
        let to_t = |v: &[f64]| -> Vec<T> { v.iter().map(|&x| T::of(x)).collect() };

        Self {
            theta0: to_t(&theta),
            theta0_face: to_t(&theta_f),
            rho0: to_t(&rho),
            rho0_face: to_t(&rho_f),
            pi0: to_t(&pi_c),
            p0: to_t(&p),
            t0: to_t(&t_c),
            qv0: to_t(&qv),
            u0: vc.z_center.iter().map(|&z| T::of(sounding.u(z))).collect(),
            v0: vec![T::of(sounding.v_constant); nz],
            a_face: (0..=nz).map(|k| T::of(rho_f[k] * theta_f[k])).collect(),
            b_center: (0..nz)
                .map(|k| T::of(cs2 / (CP * rho[k] * theta[k] * theta[k])))
                .collect(),
        }
    }

    pub fn nz(&self) -> usize {
        self.theta0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Sounding {
        /// Dry, stable midlatitude profile (for dynamics-only tests).
        pub fn dry_stable() -> Self {
            Self {
                p_surface: 101_325.0,
                theta_surface: 300.0,
                dtheta_dz_tropo: 4.0e-3,
                z_tropopause: 12_000.0,
                dtheta_dz_strato: 20.0e-3,
                rh_surface: 0.0,
                rh_scale_height: 3000.0,
                u_surface: 0.0,
                u_shear: 0.0,
                shear_depth: 5000.0,
                v_constant: 0.0,
            }
        }
    }

    fn vc() -> VerticalCoord {
        VerticalCoord::stretched(40, 16_400.0, 1.05)
    }

    #[test]
    fn pressure_decreases_monotonically() {
        let b = BaseState::<f64>::from_sounding(&Sounding::dry_stable(), &vc(), 340.0);
        for k in 1..b.nz() {
            assert!(b.p0[k] < b.p0[k - 1], "p not decreasing at {k}");
        }
        // Surface-adjacent pressure close to but below p_surface.
        assert!(b.p0[0] < 101_325.0 && b.p0[0] > 95_000.0);
    }

    #[test]
    fn density_is_physical() {
        let b = BaseState::<f64>::from_sounding(&Sounding::convective(), &vc(), 340.0);
        assert!(
            b.rho0[0] > 1.0 && b.rho0[0] < 1.3,
            "rho_sfc = {}",
            b.rho0[0]
        );
        let top = b.nz() - 1;
        assert!(b.rho0[top] < 0.4, "rho_top = {}", b.rho0[top]);
        for k in 0..b.nz() {
            assert!(b.rho0[k] > 0.0 && b.rho0[k].is_finite());
        }
    }

    #[test]
    fn hydrostatic_balance_residual_is_small() {
        // dp/dz between adjacent centers should match -g * rho_face.
        let v = vc();
        let b = BaseState::<f64>::from_sounding(&Sounding::dry_stable(), &v, 340.0);
        for k in 1..b.nz() {
            let dz = v.z_center[k] - v.z_center[k - 1];
            let dpdz = (b.p0[k] - b.p0[k - 1]) / dz;
            let expected = -GRAV * b.rho0_face[k];
            let rel = (dpdz - expected).abs() / expected.abs();
            assert!(rel < 0.03, "level {k}: dp/dz {dpdz} vs {expected}");
        }
    }

    #[test]
    fn convective_sounding_is_moist_at_low_levels() {
        let b = BaseState::<f64>::from_sounding(&Sounding::convective(), &vc(), 340.0);
        assert!(b.qv0[0] > 0.010, "surface qv = {}", b.qv0[0]);
        let top = b.nz() - 1;
        assert!(b.qv0[top] < 1e-4, "stratospheric qv = {}", b.qv0[top]);
    }

    #[test]
    fn theta_increases_with_height_for_stable_profiles() {
        for s in [Sounding::dry_stable(), Sounding::convective()] {
            let b = BaseState::<f64>::from_sounding(&s, &vc(), 340.0);
            for k in 1..b.nz() {
                assert!(b.theta0[k] > b.theta0[k - 1]);
            }
        }
    }

    #[test]
    fn face_arrays_have_nz_plus_one_entries() {
        let b = BaseState::<f32>::from_sounding(&Sounding::dry_stable(), &vc(), 340.0);
        assert_eq!(b.theta0_face.len(), b.nz() + 1);
        assert_eq!(b.rho0_face.len(), b.nz() + 1);
        assert_eq!(b.a_face.len(), b.nz() + 1);
        assert_eq!(b.b_center.len(), b.nz());
    }

    #[test]
    fn shear_profile_caps_at_shear_depth() {
        let s = Sounding::convective();
        assert!((s.u(s.shear_depth) - s.u(s.shear_depth + 5000.0)).abs() < 1e-12);
        assert!(s.u(3000.0) > s.u(0.0));
    }

    #[test]
    fn single_precision_base_state_is_finite() {
        let b = BaseState::<f32>::from_sounding(&Sounding::convective(), &vc(), 150.0);
        for k in 0..b.nz() {
            assert!(b.b_center[k].is_finite() && b.b_center[k] > 0.0);
        }
    }
}
