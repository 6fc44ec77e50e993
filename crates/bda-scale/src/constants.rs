//! Physical constants (SI units), matching the values SCALE-RM uses.

/// Dry-air gas constant, J kg^-1 K^-1.
pub const RD: f64 = 287.04;
/// Water-vapor gas constant, J kg^-1 K^-1.
pub const RV: f64 = 461.5;
/// Specific heat of dry air at constant pressure, J kg^-1 K^-1.
pub const CP: f64 = 1004.64;
/// Gravitational acceleration, m s^-2.
pub const GRAV: f64 = 9.80665;
/// Reference surface pressure, Pa.
pub const P00: f64 = 100_000.0;
/// Latent heat of vaporization at 0 C, J kg^-1.
pub const LV: f64 = 2.501e6;
/// Latent heat of fusion, J kg^-1.
pub const LF: f64 = 0.334e6;
/// Latent heat of sublimation, J kg^-1.
pub const LS: f64 = LV + LF;
/// Triple-point / melting temperature, K.
pub const T0: f64 = 273.15;
/// `RD / CP`.
pub const KAPPA: f64 = RD / CP;
/// Ratio `RD / RV` used in saturation humidity.
pub const EPS_VAP: f64 = RD / RV;
/// Von Karman constant.
pub const KARMAN: f64 = 0.4;

/// Saturation vapor pressure over liquid water (Tetens formula), Pa.
pub fn e_sat_liquid(t_kelvin: f64) -> f64 {
    let tc = t_kelvin - T0;
    611.2 * (17.67 * tc / (tc + 243.5)).exp()
}

/// Saturation vapor pressure over ice (Tetens, ice constants), Pa.
pub fn e_sat_ice(t_kelvin: f64) -> f64 {
    let tc = t_kelvin - T0;
    611.2 * (21.875 * tc / (tc + 265.5)).exp()
}

/// Saturation mixing ratio over liquid at temperature `t` (K) and pressure
/// `p` (Pa), kg/kg.
pub fn q_sat_liquid(t_kelvin: f64, p: f64) -> f64 {
    let es = e_sat_liquid(t_kelvin).min(0.99 * p);
    EPS_VAP * es / (p - (1.0 - EPS_VAP) * es)
}

/// Saturation mixing ratio over ice, kg/kg.
pub fn q_sat_ice(t_kelvin: f64, p: f64) -> f64 {
    let es = e_sat_ice(t_kelvin).min(0.99 * p);
    EPS_VAP * es / (p - (1.0 - EPS_VAP) * es)
}

/// Exner function `(p / p00)^kappa`.
pub fn exner(p: f64) -> f64 {
    (p / P00).powf(KAPPA)
}

/// Pressure from Exner function.
pub fn pressure_from_exner(pi: f64) -> f64 {
    P00 * pi.powf(1.0 / KAPPA)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_pressure_reference_points() {
        // ~611 Pa at 0 C, ~2.3 kPa at 20 C, ~7.4 kPa at 40 C.
        assert!((e_sat_liquid(T0) - 611.2).abs() < 1.0);
        let e20 = e_sat_liquid(T0 + 20.0);
        assert!((2000.0..2500.0).contains(&e20), "e_sat(20C) = {e20}");
        let e40 = e_sat_liquid(T0 + 40.0);
        assert!((7000.0..7800.0).contains(&e40), "e_sat(40C) = {e40}");
    }

    #[test]
    fn ice_saturation_below_liquid_below_freezing() {
        for dt in [-40.0, -20.0, -5.0] {
            let t = T0 + dt;
            assert!(e_sat_ice(t) < e_sat_liquid(t), "at {dt} C");
        }
        // Equal (by construction nearly) at the triple point.
        assert!((e_sat_ice(T0) - e_sat_liquid(T0)).abs() < 2.0);
    }

    #[test]
    fn q_sat_magnitudes() {
        // ~15 g/kg at 20 C / 1000 hPa is the textbook number.
        let q = q_sat_liquid(T0 + 20.0, 101_325.0);
        assert!((0.013..0.017).contains(&q), "q_sat = {q}");
        // Decreases with pressure drop? No — increases as p decreases.
        assert!(q_sat_liquid(T0 + 20.0, 80_000.0) > q);
    }

    #[test]
    fn exner_roundtrip() {
        for p in [30_000.0, 70_000.0, 101_325.0] {
            let pi = exner(p);
            assert!((pressure_from_exner(pi) - p).abs() / p < 1e-12);
        }
        assert!((exner(P00) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn kappa_is_rd_over_cp() {
        assert!((KAPPA - 0.2857).abs() < 1e-3);
    }
}
