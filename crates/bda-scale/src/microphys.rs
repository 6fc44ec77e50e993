//! Single-moment 6-category cloud microphysics (Tomita 2008 class).
//!
//! Categories: vapor (qv), cloud water (qc), rain (qr), cloud ice (qi),
//! snow (qs), graupel (qg). Processes:
//!
//! * mixed-phase saturation adjustment with latent heating,
//! * autoconversion (qc→qr, qi→qs), accretion (rain/snow/graupel collecting
//!   cloud species), riming (qs + qc → qg),
//! * melting (qs, qg → qr above 0°C), freezing (qr → qg at strong
//!   supercooling), rain evaporation in subsaturated air,
//! * sedimentation with species-dependent terminal velocities and automatic
//!   sub-stepping to respect the fall CFL.
//!
//! Rates follow the Kessler/Lin-type bulk formulations the Tomita scheme is
//! built from; coefficients are the standard bulk values. The scheme operates
//! column-wise on contiguous slices (the layout [`bda_grid::Field3`]
//! guarantees), exactly like SCALE's physics drivers.

use crate::base::BaseState;
use crate::constants::*;
use bda_num::Real;

/// Tunable process coefficients (defaults are the standard bulk values).
#[derive(Clone, Debug)]
pub struct MicrophysParams {
    /// Cloud-water autoconversion rate, 1/s.
    pub auto_qc: f64,
    /// Cloud-water autoconversion threshold, kg/kg.
    pub qc_crit: f64,
    /// Ice autoconversion rate, 1/s.
    pub auto_qi: f64,
    /// Ice autoconversion threshold, kg/kg.
    pub qi_crit: f64,
    /// Rain-accretes-cloud coefficient (Kessler 2.2).
    pub accr_rain: f64,
    /// Snow-accretes-ice/cloud coefficient.
    pub accr_snow: f64,
    /// Riming (snow + cloud water -> graupel) coefficient.
    pub rime: f64,
    /// Melting rate per kelvin above freezing, 1/(s K).
    pub melt: f64,
    /// Homogeneous freezing temperature, K.
    pub t_freeze_all: f64,
    /// Rain evaporation coefficient.
    pub evap: f64,
}

impl Default for MicrophysParams {
    fn default() -> Self {
        Self {
            auto_qc: 1.0e-3,
            qc_crit: 0.5e-3,
            auto_qi: 1.0e-3,
            qi_crit: 0.3e-3,
            accr_rain: 2.2,
            accr_snow: 0.8,
            rime: 3.0,
            melt: 2.5e-3,
            t_freeze_all: T0 - 40.0,
            evap: 3.0e-4,
        }
    }
}

/// Inputs/outputs of one column update: slices over the vertical dimension.
pub struct ColumnView<'a, T> {
    pub theta: &'a mut [T],
    pub pi: &'a [T],
    pub qv: &'a mut [T],
    pub qc: &'a mut [T],
    pub qr: &'a mut [T],
    pub qi: &'a mut [T],
    pub qs: &'a mut [T],
    pub qg: &'a mut [T],
}

/// Result of one column microphysics update.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ColumnResult {
    /// Surface rain rate, mm/h (liquid-equivalent, includes melted species).
    pub rain_rate_mmh: f64,
}

/// Liquid fraction of new condensate as a function of temperature: all
/// liquid above freezing, all ice below -15°C, linear ramp between.
#[inline]
fn liquid_fraction(t: f64) -> f64 {
    ((t - (T0 - 15.0)) / 15.0).clamp(0.0, 1.0)
}

/// Saturation mixing ratio of new condensate with liquid fraction `fl`:
/// the `fl`-weighted blend of the liquid and ice values. Where `fl` is
/// exactly 1 or 0 only the phase that survives is evaluated — the same
/// bits, because at any finite pressure both values are finite and
/// non-negative (each is a clamped vapour pressure over a positive
/// remainder), so `1·a + 0·b == a` and `0·a + 1·b == b`.
#[inline]
fn saturation_point(fl: f64, t: f64, p: f64) -> f64 {
    if fl == 1.0 {
        q_sat_liquid(t, p)
    } else if fl == 0.0 {
        q_sat_ice(t, p)
    } else {
        fl * q_sat_liquid(t, p) + (1.0 - fl) * q_sat_ice(t, p)
    }
}

/// Terminal velocity (m/s) for rain as a function of rain water content
/// rho*qr (kg/m^3): a bulk power law giving ~5 m/s at 0.1 g/m^3 and ~7 m/s
/// at 1 g/m^3, capped at 10.
#[inline]
fn v_rain(rho_q: f64) -> f64 {
    if rho_q <= 1e-9 {
        return 0.0;
    }
    (16.0 * rho_q.powf(0.125)).min(10.0)
}

#[inline]
fn v_snow(rho_q: f64) -> f64 {
    if rho_q <= 1e-9 {
        return 0.0;
    }
    (4.0 * rho_q.powf(0.125)).min(2.5)
}

#[inline]
fn v_graupel(rho_q: f64) -> f64 {
    if rho_q <= 1e-9 {
        return 0.0;
    }
    (22.0 * rho_q.powf(0.125)).min(12.0)
}

/// Run the full microphysics update on one column.
///
/// `dz` are the layer thicknesses; `flux` is a caller-owned scratch buffer of
/// length `nz` reused across columns so sedimentation never allocates.
/// Returns the surface precipitation rate.
pub fn column_microphysics<T: Real>(
    col: &mut ColumnView<'_, T>,
    base: &BaseState<T>,
    params: &MicrophysParams,
    dz: &[T],
    dt: f64,
    flux: &mut [f64],
) -> ColumnResult {
    let nz = col.theta.len();
    debug_assert_eq!(dz.len(), nz);

    // --- grid-point processes (saturation adjustment + conversions) ---
    for k in 0..nz {
        let pi_tot = (base.pi0[k] + col.pi[k]).f64().max(1e-3);
        let p = P00 * pi_tot.powf(1.0 / KAPPA);
        let mut th = (base.theta0[k] + col.theta[k]).f64();
        let mut t = th * pi_tot;
        let mut qv = col.qv[k].f64().max(0.0);
        let mut qc = col.qc[k].f64().max(0.0);
        let mut qr = col.qr[k].f64().max(0.0);
        let mut qi = col.qi[k].f64().max(0.0);
        let mut qs = col.qs[k].f64().max(0.0);
        let mut qg = col.qg[k].f64().max(0.0);

        // -- saturation adjustment (two fixed-point iterations) --
        for _ in 0..2 {
            let fl = liquid_fraction(t);
            let qsat = saturation_point(fl, t, p);
            let lheat = fl * LV + (1.0 - fl) * LS;
            // Effective latent-heating denominator (linearized Clausius-
            // Clapeyron around t).
            let dqs_dt = qsat * lheat / (RV * t * t);
            let denom = 1.0 + lheat / CP * dqs_dt;
            if qv > qsat {
                // Condensation.
                let dq = (qv - qsat) / denom;
                qv -= dq;
                qc += dq * fl;
                qi += dq * (1.0 - fl);
                t += lheat / CP * dq;
            } else if qc + qi > 0.0 && qv < qsat {
                // Evaporation/sublimation of cloud condensate.
                let deficit = (qsat - qv) / denom;
                let evap_c = deficit.min(qc);
                qc -= evap_c;
                qv += evap_c;
                t -= LV / CP * evap_c;
                let deficit_i = (deficit - evap_c).max(0.0).min(qi);
                qi -= deficit_i;
                qv += deficit_i;
                t -= LS / CP * deficit_i;
            } else {
                // Neither branch changes (t, qv, qc, qi): the second pass
                // would recompute the same saturation point and do nothing.
                break;
            }
        }

        // -- warm-rain processes --
        if qc > 0.0 {
            let auto = params.auto_qc * (qc - params.qc_crit).max(0.0) * dt;
            let accr = params.accr_rain * qc * qr.powf(0.875) * dt;
            let to_rain = (auto + accr).min(qc);
            qc -= to_rain;
            qr += to_rain;
        }

        // -- ice-phase processes --
        if t < T0 {
            if qi > 0.0 {
                let auto_i = params.auto_qi * (qi - params.qi_crit).max(0.0) * dt;
                let accr_is = params.accr_snow * qi * qs.powf(0.875) * dt;
                let to_snow = (auto_i + accr_is).min(qi);
                qi -= to_snow;
                qs += to_snow;
            }

            // Riming: snow collecting supercooled cloud water makes graupel,
            // releasing the latent heat of fusion.
            let rimed = (params.rime * qs * qc * dt).min(qc);
            qc -= rimed;
            qg += rimed;
            t += LF / CP * rimed;

            // Strongly supercooled rain freezes to graupel.
            if t < params.t_freeze_all {
                qg += qr;
                t += LF / CP * qr;
                qr = 0.0;
            } else {
                // Gradual probabilistic freezing, stronger when colder.
                let frac = (0.05 * (T0 - t) / 40.0 * dt).min(1.0);
                let dq = qr * frac;
                qr -= dq;
                qg += dq;
                t += LF / CP * dq;
            }
        } else {
            // -- melting above freezing --
            let melt_s = (params.melt * (t - T0) * qs * dt * 50.0).min(qs);
            let melt_g = (params.melt * (t - T0) * qg * dt * 50.0).min(qg);
            qs -= melt_s;
            qg -= melt_g;
            qr += melt_s + melt_g;
            t -= LF / CP * (melt_s + melt_g);
            // Cloud ice melts instantly above freezing.
            qc += qi;
            t -= LF / CP * qi;
            qi = 0.0;
        }

        // -- rain evaporation in subsaturated air --
        if qr > 0.0 {
            let qsat_l = q_sat_liquid(t, p);
            if qv < qsat_l {
                let subsat = (qsat_l - qv) / qsat_l;
                let dq = (params.evap * subsat * qr.powf(0.65) * dt)
                    .min(qr)
                    .min(qsat_l - qv);
                qr -= dq;
                qv += dq;
                t -= LV / CP * dq;
            }
        }

        th = t / pi_tot;
        col.theta[k] = T::of(th) - base.theta0[k];
        col.qv[k] = T::of(qv.max(0.0));
        col.qc[k] = T::of(qc.max(0.0));
        col.qr[k] = T::of(qr.max(0.0));
        col.qi[k] = T::of(qi.max(0.0));
        col.qs[k] = T::of(qs.max(0.0));
        col.qg[k] = T::of(qg.max(0.0));
    }

    // --- sedimentation ---
    let mut surface_flux = 0.0; // kg m^-2 s^-1 of liquid-equivalent water
    surface_flux += sediment_species(col.qr, base, dz, dt, v_rain, flux);
    surface_flux += sediment_species(col.qs, base, dz, dt, v_snow, flux);
    surface_flux += sediment_species(col.qg, base, dz, dt, v_graupel, flux);

    ColumnResult {
        // kg m^-2 s^-1 == mm/s of water -> mm/h.
        rain_rate_mmh: surface_flux * 3600.0,
    }
}

/// Sediment one species down the column with upwind fluxes and CFL
/// sub-stepping; returns the surface mass flux (kg m^-2 s^-1). `flux` is a
/// caller-owned scratch slice of length `nz` (every entry is overwritten
/// before it is read, so stale contents are harmless).
// The single `flux[k + 1]` read is guarded by `k + 1 < nz` and `flux` is at
// least nz long per the debug_assert'ed contract.
// bda-check: allow(panic_path)
fn sediment_species<T: Real>(
    q: &mut [T],
    base: &BaseState<T>,
    dz: &[T],
    dt: f64,
    vt: impl Fn(f64) -> f64,
    flux: &mut [f64],
) -> f64 {
    let nz = q.len();
    debug_assert!(flux.len() >= nz);
    // Determine the needed sub-step count from the max fall CFL. The
    // fluxes of this pass are the first sub-step's: no second `vt` call.
    let mut max_cfl = 0.0_f64;
    for k in 0..nz {
        let rq = base.rho0[k].f64() * q[k].f64().max(0.0);
        let v = vt(rq);
        flux[k] = v * rq;
        max_cfl = max_cfl.max(v * dt / dz[k].f64());
    }
    if max_cfl == 0.0 {
        // Every terminal velocity vanished: all fluxes are zero and the
        // update reduces to the same non-negativity clamp the flux form
        // applies (`+ 0.0` kept so signed zeros round-trip identically).
        for v in q.iter_mut() {
            *v = T::of((v.f64() + 0.0).max(0.0));
        }
        return 0.0;
    }
    let nsub = (max_cfl.ceil() as usize).max(1);
    let dts = dt / nsub as f64;

    let mut surface_accum = 0.0;
    for sub in 0..nsub {
        // Downward flux through the *bottom* face of each cell (the CFL
        // pass left the first sub-step's in `flux`).
        if sub > 0 {
            for k in 0..nz {
                let rq = base.rho0[k].f64() * q[k].f64().max(0.0);
                flux[k] = vt(rq) * rq;
            }
        }
        for k in 0..nz {
            let incoming = if k + 1 < nz { flux[k + 1] } else { 0.0 };
            let d = (incoming - flux[k]) * dts / (base.rho0[k].f64() * dz[k].f64());
            let newq = (q[k].f64() + d).max(0.0);
            q[k] = T::of(newq);
        }
        surface_accum += flux[0] * dts;
    }
    surface_accum / dt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Sounding;
    use bda_grid::VerticalCoord;

    fn setup(nz: usize) -> (BaseState<f64>, Vec<f64>) {
        let vc = VerticalCoord::stretched(nz, 16_400.0, 1.05);
        let base = BaseState::from_sounding(&Sounding::convective(), &vc, 340.0);
        let dz: Vec<f64> = (0..nz).map(|k| vc.dz(k)).collect();
        (base, dz)
    }

    /// (theta', pi', qv, qc, qr, qi, qs, qg) working columns.
    type Cols = (
        Vec<f64>,
        Vec<f64>,
        Vec<f64>,
        Vec<f64>,
        Vec<f64>,
        Vec<f64>,
        Vec<f64>,
        Vec<f64>,
    );

    fn zero_cols(nz: usize) -> Cols {
        (
            vec![0.0; nz],
            vec![0.0; nz],
            vec![0.0; nz],
            vec![0.0; nz],
            vec![0.0; nz],
            vec![0.0; nz],
            vec![0.0; nz],
            vec![0.0; nz],
        )
    }

    #[test]
    fn supersaturation_condenses_and_heats() {
        let (base, dz) = setup(20);
        let (mut th, pi, mut qv, mut qc, mut qr, mut qi, mut qs, mut qg) = zero_cols(20);
        // Strong supersaturation at low levels.
        for (k, v) in qv.iter_mut().enumerate().take(5) {
            *v = base.qv0[k] + 1.2e-2;
        }
        let qv_before = qv[2];
        let mut col = ColumnView {
            theta: &mut th,
            pi: &pi,
            qv: &mut qv,
            qc: &mut qc,
            qr: &mut qr,
            qi: &mut qi,
            qs: &mut qs,
            qg: &mut qg,
        };
        column_microphysics(
            &mut col,
            &base,
            &MicrophysParams::default(),
            &dz,
            1.0,
            &mut vec![0.0; dz.len()],
        );
        assert!(qv[2] < qv_before, "vapor not consumed");
        assert!(qc[2] > 0.0, "no cloud water formed");
        assert!(th[2] > 0.0, "no latent heating: theta' = {}", th[2]);
    }

    #[test]
    fn dry_column_stays_dry_and_unchanged() {
        let (base, dz) = setup(15);
        let (mut th, pi, mut qv, mut qc, mut qr, mut qi, mut qs, mut qg) = zero_cols(15);
        // qv = 0 everywhere: strongly subsaturated, nothing to do.
        let mut col = ColumnView {
            theta: &mut th,
            pi: &pi,
            qv: &mut qv,
            qc: &mut qc,
            qr: &mut qr,
            qi: &mut qi,
            qs: &mut qs,
            qg: &mut qg,
        };
        let r = column_microphysics(
            &mut col,
            &base,
            &MicrophysParams::default(),
            &dz,
            1.0,
            &mut vec![0.0; dz.len()],
        );
        assert_eq!(r.rain_rate_mmh, 0.0);
        assert!(th.iter().all(|&x| x.abs() < 1e-12));
        assert!(qc.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn heavy_cloud_water_autoconverts_to_rain() {
        let (base, dz) = setup(20);
        let (mut th, pi, mut qv, mut qc, mut qr, mut qi, mut qs, mut qg) = zero_cols(20);
        qv.copy_from_slice(&base.qv0[..20]);
        qc[3] = 3e-3; // well above threshold
        let mut col = ColumnView {
            theta: &mut th,
            pi: &pi,
            qv: &mut qv,
            qc: &mut qc,
            qr: &mut qr,
            qi: &mut qi,
            qs: &mut qs,
            qg: &mut qg,
        };
        for _ in 0..120 {
            column_microphysics(
                &mut col,
                &base,
                &MicrophysParams::default(),
                &dz,
                1.0,
                &mut vec![0.0; dz.len()],
            );
        }
        assert!(col.qr.iter().sum::<f64>() > 0.0 || col.qc[3] < 3e-3);
    }

    #[test]
    fn rain_aloft_reaches_the_surface() {
        let (base, dz) = setup(20);
        let (mut th, pi, mut qv, mut qc, mut qr, mut qi, mut qs, mut qg) = zero_cols(20);
        // Keep air near saturation to limit evaporation.
        qv.copy_from_slice(&base.qv0[..20]);
        // 2 g/kg of rain in layers 4-8 (~1.5-3.5 km).
        for q in qr.iter_mut().take(9).skip(4) {
            *q = 2e-3;
        }
        let mut total_rain = 0.0;
        let mut col = ColumnView {
            theta: &mut th,
            pi: &pi,
            qv: &mut qv,
            qc: &mut qc,
            qr: &mut qr,
            qi: &mut qi,
            qs: &mut qs,
            qg: &mut qg,
        };
        for _ in 0..600 {
            let r = column_microphysics(
                &mut col,
                &base,
                &MicrophysParams::default(),
                &dz,
                1.0,
                &mut vec![0.0; dz.len()],
            );
            total_rain += r.rain_rate_mmh / 3600.0;
        }
        assert!(total_rain > 0.1, "accumulated rain = {total_rain} mm");
        // Rain content aloft depleted.
        assert!(col.qr[6] < 2e-3);
    }

    #[test]
    fn water_conservation_without_sedimentation_losses() {
        // Total water (qv + all condensate) integrated over rho dz changes
        // only by the surface precipitation flux.
        let (base, dz) = setup(20);
        let (mut th, pi, mut qv, mut qc, mut qr, mut qi, mut qs, mut qg) = zero_cols(20);
        for (k, v) in qv.iter_mut().enumerate() {
            *v = base.qv0[k] * 1.1; // slight supersaturation somewhere
        }
        qc[4] = 2e-3;
        qr[5] = 1e-3;
        let column_water =
            |qv: &[f64], qc: &[f64], qr: &[f64], qi: &[f64], qs: &[f64], qg: &[f64]| -> f64 {
                (0..20)
                    .map(|k| base.rho0[k] * dz[k] * (qv[k] + qc[k] + qr[k] + qi[k] + qs[k] + qg[k]))
                    .sum()
            };
        let before = column_water(&qv, &qc, &qr, &qi, &qs, &qg);
        let mut precip_total = 0.0;
        {
            let mut col = ColumnView {
                theta: &mut th,
                pi: &pi,
                qv: &mut qv,
                qc: &mut qc,
                qr: &mut qr,
                qi: &mut qi,
                qs: &mut qs,
                qg: &mut qg,
            };
            for _ in 0..60 {
                let r = column_microphysics(
                    &mut col,
                    &base,
                    &MicrophysParams::default(),
                    &dz,
                    1.0,
                    &mut vec![0.0; dz.len()],
                );
                precip_total += r.rain_rate_mmh / 3600.0; // mm == kg/m^2
            }
        }
        let after = column_water(&qv, &qc, &qr, &qi, &qs, &qg);
        let imbalance = (before - after - precip_total).abs();
        assert!(
            imbalance < 1e-4 * before,
            "water budget broken: before {before}, after {after}, precip {precip_total}"
        );
    }

    #[test]
    fn cold_levels_produce_ice_species() {
        let (base, dz) = setup(30);
        let (mut th, pi, mut qv, mut qc, mut qr, mut qi, mut qs, mut qg) = zero_cols(30);
        // Strong moisture injection at mid/upper levels (cold).
        for (k, v) in qv.iter_mut().enumerate().take(25).skip(15) {
            *v = base.qv0[k] + 3e-3;
        }
        let mut col = ColumnView {
            theta: &mut th,
            pi: &pi,
            qv: &mut qv,
            qc: &mut qc,
            qr: &mut qr,
            qi: &mut qi,
            qs: &mut qs,
            qg: &mut qg,
        };
        for _ in 0..30 {
            column_microphysics(
                &mut col,
                &base,
                &MicrophysParams::default(),
                &dz,
                1.0,
                &mut vec![0.0; dz.len()],
            );
        }
        let ice_total: f64 = (15..25).map(|k| col.qi[k] + col.qs[k]).sum();
        assert!(ice_total > 0.0, "no ice formed at cold levels");
    }

    #[test]
    fn all_species_remain_nonnegative_under_stress() {
        let (base, dz) = setup(25);
        let (mut th, pi, mut qv, mut qc, mut qr, mut qi, mut qs, mut qg) = zero_cols(25);
        for k in 0..25 {
            qv[k] = base.qv0[k] + 4e-3;
            qc[k] = 1e-3;
            qr[k] = 2e-3;
            qi[k] = 0.5e-3;
            qs[k] = 0.5e-3;
            qg[k] = 1e-3;
        }
        let mut col = ColumnView {
            theta: &mut th,
            pi: &pi,
            qv: &mut qv,
            qc: &mut qc,
            qr: &mut qr,
            qi: &mut qi,
            qs: &mut qs,
            qg: &mut qg,
        };
        for _ in 0..200 {
            column_microphysics(
                &mut col,
                &base,
                &MicrophysParams::default(),
                &dz,
                2.0,
                &mut vec![0.0; dz.len()],
            );
        }
        for k in 0..25 {
            for (name, v) in [
                ("qv", col.qv[k]),
                ("qc", col.qc[k]),
                ("qr", col.qr[k]),
                ("qi", col.qi[k]),
                ("qs", col.qs[k]),
                ("qg", col.qg[k]),
            ] {
                assert!(v >= 0.0 && v.is_finite(), "{name}[{k}] = {v}");
            }
        }
    }

    #[test]
    fn terminal_velocities_are_ordered_sensibly() {
        let rq = 1e-3; // 1 g/m^3
        assert!(v_graupel(rq) > v_rain(rq));
        assert!(v_rain(rq) > v_snow(rq));
        assert!(v_rain(rq) > 4.0 && v_rain(rq) < 10.0);
        assert!(v_snow(rq) < 2.6);
        assert_eq!(v_rain(0.0), 0.0);
    }

    #[test]
    fn sedimentation_substeps_respect_cfl() {
        // Huge dt must not go unstable thanks to sub-stepping.
        let (base, dz) = setup(15);
        let mut qr = vec![0.0_f64; 15];
        qr[10] = 5e-3;
        let mut scratch = vec![0.0; qr.len()];
        let flux = sediment_species(&mut qr, &base, &dz, 120.0, v_rain, &mut scratch);
        assert!(flux >= 0.0);
        for (k, &v) in qr.iter().enumerate() {
            assert!(v >= 0.0 && v.is_finite(), "qr[{k}] = {v}");
        }
    }

    #[test]
    fn saturation_shortcut_is_bitwise_the_blend_at_pure_phases() {
        // fl ∈ {0, 1} over the model's whole range of temperature and
        // pressure, plus the extremes where the vapour pressure clamps
        // or underflows to zero.
        let blend =
            |fl: f64, t: f64, p: f64| fl * q_sat_liquid(t, p) + (1.0 - fl) * q_sat_ice(t, p);
        let temps = (0..=400)
            .map(|n| 150.0 + 0.45 * f64::from(n))
            .chain([1.0, 1e4, f64::MAX]);
        for t in temps {
            for p in [50.0, 1.0e3, 1.2e4, 5.0e4, 8.5e4, 1.013e5, 1.2e5] {
                for fl in [0.0, 1.0] {
                    let (got, want) = (saturation_point(fl, t, p), blend(fl, t, p));
                    assert_eq!(got.to_bits(), want.to_bits(), "fl {fl}, t {t}, p {p}");
                }
                let fl = liquid_fraction(t);
                assert_eq!(
                    saturation_point(fl, t, p).to_bits(),
                    blend(fl, t, p).to_bits()
                );
            }
        }
    }

    #[test]
    fn liquid_fraction_ramp() {
        assert_eq!(liquid_fraction(T0 + 5.0), 1.0);
        assert_eq!(liquid_fraction(T0 - 20.0), 0.0);
        let mid = liquid_fraction(T0 - 7.5);
        assert!((mid - 0.5).abs() < 1e-12);
    }
}
