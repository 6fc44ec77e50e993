//! Integration: the paper's tables, asserted row by row through the public
//! API (E-T1, E-T2, E-T3 in DESIGN.md).

use bda::core::systems;
use bda::letkf::LetkfConfig;
use bda::pawr::RadarConfig;
use bda::scale::ModelConfig;
use bda::workflow::NodeAllocation;

#[test]
fn table2_letkf_settings() {
    let c = LetkfConfig::bda2021();
    assert_eq!(c.ensemble_size, 1000, "Ensemble size");
    assert_eq!(
        (c.analysis_z_min, c.analysis_z_max),
        (500.0, 11_000.0),
        "Height range for analysis 0.5 - 11 km"
    );
    assert_eq!(c.obs_resolution, 500.0, "Regridded observation resolution");
    assert_eq!(
        (c.obs_err_reflectivity_dbz, c.obs_err_doppler_ms),
        (5.0, 3.0),
        "Observation error standard deviation"
    );
    assert_eq!(
        c.max_obs_per_grid, 1000,
        "Maximum observation number per grid"
    );
    assert_eq!(
        (c.gross_err_reflectivity_dbz, c.gross_err_doppler_ms),
        (10.0, 15.0),
        "Gross error check threshold"
    );
    assert_eq!(
        (c.loc_horizontal, c.loc_vertical),
        (2000.0, 2000.0),
        "Localization scale horizontal/vertical 2 km"
    );
    assert_eq!(c.rtpp, 0.95, "Relaxation to prior perturbation factor");
}

#[test]
fn table3_scale_settings() {
    let c = ModelConfig::inner_bda2021();
    assert_eq!(
        (c.grid.nx, c.grid.ny, c.grid.nz()),
        (256, 256, 60),
        "256 x 256 x 60"
    );
    assert_eq!(c.grid.dx, 500.0, "Horizontal grid spacing 500 m");
    assert!(
        (c.grid.lx() - 128_000.0).abs() < 1.0 && (c.grid.ly() - 128_000.0).abs() < 1.0,
        "Domain 128 km x 128 km"
    );
    assert!(
        (c.grid.vertical.z_top() - 16_400.0).abs() < 1.0,
        "vertical 16.4 km"
    );
    assert_eq!(c.dt, 0.4, "Time integration step 0.4 s");
    // "Hybrid (explicit in the horizontal, implicit in the vertical)" is
    // structural: the HEVI core's dt must beat the horizontal acoustic CFL
    // but is far beyond the vertical one (dz_min << dx).
    assert!(c.dt < c.acoustic_dt_limit());
    let dz0 = c.grid.vertical.dz(0);
    assert!(
        c.dt > 0.9 * dz0 / 340.0_f64.max(1.0),
        "dt = {} would not need a vertically implicit solver (dz0 = {dz0})",
        c.dt
    );
    // Full physics suite on.
    assert!(c.physics.microphysics, "single-moment 6-category");
    assert!(c.physics.radiation, "TRaNsfer code X stand-in");
    assert!(c.physics.surface_flux, "Beljaars-type");
    assert!(c.physics.boundary_layer, "MYNN level 2.5 class");
    assert!(c.physics.turbulence, "Smagorinsky-type");
}

#[test]
fn table1_bottom_row_and_ratios() {
    let bda = systems::bda2021();
    assert_eq!(bda.refresh_s, 30.0, "30 s / 30 s initialization");
    assert_eq!(bda.ens_forecast_members, 11, "11-member ensemble forecast");
    // 120x faster than the hourly operational systems (§8).
    assert_eq!(bda.refresh_speedup_vs(&systems::TABLE1[0]), 120.0);
    // Two orders of magnitude problem-size increase (§5).
    let best = systems::TABLE1
        .iter()
        .map(|s| s.problem_size_rate())
        .fold(0.0, f64::max);
    let ratio = bda.problem_size_rate() / best;
    assert!(ratio >= 100.0, "problem-size ratio only {ratio:.0}x");
}

#[test]
fn section6_resources() {
    let a = NodeAllocation::bda2021();
    assert_eq!(a.total, 11_580, "exclusive access to 11,580 nodes");
    assert_eq!(a.inner_total(), 8_888, "SCALE-LETKF on 8888 nodes");
    assert_eq!(a.inner_cores(), 426_624, "426,624 CPU cores");
    assert_eq!(a.inner_part1, 8_008, "8008 for part <1>");
    assert_eq!(a.inner_part2, 880, "880 for part <2>");
    assert_eq!(a.outer_domain, 2_002, "outer domain 2002 nodes");
    // "~7% of the full system".
    assert!((a.fugaku_fraction() - 0.0728).abs() < 0.005);
}

#[test]
fn section5_radar_and_transfer_figures() {
    let r = RadarConfig::mp_pawr_bda2021();
    assert_eq!(r.scan_interval, 30.0, "volume scan every 30 s");
    assert_eq!(r.range_max, 60_000.0, "60-km range");
    assert_eq!(r.raw_scan_bytes, 100 * 1024 * 1024, "~100 MB per scan");
    let jit = bda::jitdt::JitDt::bda2021();
    // A stall-free transfer of one scan (at 2e-4 stalls per chunk nearly
    // every seed is one): per-chunk jitter averages out to the link's rate.
    let out = (0..8)
        .map(|seed| jit.transfer(r.raw_scan_bytes, seed))
        .find(|o| o.stalls == 0)
        .expect("a stall-free transfer in 8 seeds");
    let t = out.duration_s;
    assert!((2.5..3.5).contains(&t), "100 MB in ~3 s (got {t:.2})");
}
