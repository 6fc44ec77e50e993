//! Quickstart: the whole BDA system in one minute.
//!
//! Prints the paper's configuration tables, runs a few 30-second
//! assimilation cycles of a reduced-scale OSSE, launches one short ensemble
//! forecast and verifies it against the simulated truth.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bda_core::osse::{Osse, OsseConfig};
use bda_core::systems;
use bda_letkf::LetkfConfig;
use bda_scale::ModelConfig;
use bda_verify::{ContingencyTable, PersistenceForecast};

fn main() {
    println!("=== BDA quickstart ===\n");

    // --- Table 2: the LETKF settings (full-scale defaults) ---
    let letkf = LetkfConfig::bda2021();
    println!("LETKF (Table 2): {} members, localization {:.0} m / {:.0} m, RTPP {}, obs errors {} dBZ / {} m/s",
        letkf.ensemble_size, letkf.loc_horizontal, letkf.loc_vertical, letkf.rtpp,
        letkf.obs_err_reflectivity_dbz, letkf.obs_err_doppler_ms);

    // --- Table 3: the SCALE settings ---
    let model = ModelConfig::inner_bda2021();
    println!(
        "SCALE (Table 3): {}x{}x{} at {:.0} m, dt = {} s, domain {:.0} x {:.0} x {:.1} km",
        model.grid.nx,
        model.grid.ny,
        model.grid.nz(),
        model.grid.dx,
        model.dt,
        model.grid.lx() / 1000.0,
        model.grid.ly() / 1000.0,
        model.grid.vertical.z_top() / 1000.0
    );

    // --- Table 1: problem size vs operational systems ---
    let bda = systems::bda2021();
    let best_other = systems::TABLE1
        .iter()
        .map(|s| s.problem_size_rate())
        .fold(0.0, f64::max);
    println!(
        "problem size: {:.2e} grid-point-members/s, {:.0}x the largest operational system\n",
        bda.problem_size_rate(),
        bda.problem_size_rate() / best_other
    );

    // --- A reduced-scale live system: same code path, laptop numbers ---
    println!("running a reduced OSSE (16x16x10 grid, 10 members, 30-s cycles)...");
    let cfg = OsseConfig::reduced(16, 10, 10, 3, 42);
    let mut osse = Osse::<f32>::new(cfg);
    println!("spinning up truth and ensemble until convection matures...");
    osse.spinup_system(840.0);
    println!("truth max reflectivity: {:.1} dBZ\n", osse.truth_max_dbz());

    for outcome in osse.run_cycles(4) {
        println!(
            "  t={:>4.0}s  obs scanned {:>5}  used {:>5}  analyzed points {:>5}  RMSE {:.2} -> {:.2} dBZ",
            outcome.time,
            outcome.n_obs_scanned,
            outcome.n_obs_used,
            outcome.analysis.points_analyzed,
            outcome.prior_rmse_dbz,
            outcome.posterior_rmse_dbz
        );
    }

    // Ensemble calibration after cycling (flat rank histogram = healthy).
    let rank = osse.rank_histogram();
    println!(
        "\nensemble calibration: envelope-outlier fraction {:.2} (calibrated target {:.2})",
        rank.outlier_fraction(),
        rank.calibrated_outlier_fraction()
    );

    // --- One short ensemble forecast (part <2>), verified vs truth ---
    println!("\nlaunching a 5-minute ensemble forecast (mean + 3 members)...");
    let leads = [0.0, 60.0, 180.0, 300.0];
    let case = osse.run_forecast_case(&leads, 3);
    let persistence = PersistenceForecast::new(&case.observed_dbz_init);
    println!("  lead (s)   BDA threat   persistence threat   (30 dBZ threshold)");
    for (li, &lead) in case.leads.iter().enumerate() {
        let bda_t = ContingencyTable::from_fields(
            &case.forecast_dbz[li],
            &case.truth_dbz[li],
            30.0,
            Some(&case.mask),
        );
        let per_t = ContingencyTable::from_fields(
            persistence.at_lead(lead),
            &case.truth_dbz[li],
            30.0,
            Some(&case.mask),
        );
        let fmt = |s: Option<f64>| s.map(|v| format!("{v:.3}")).unwrap_or("  --".into());
        println!(
            "  {:>8.0}   {:>10}   {:>18}",
            lead,
            fmt(bda_t.threat_score()),
            fmt(per_t.threat_score())
        );
    }

    println!(
        "\ndone. Try `cargo run --release --example heavy_rain_osse` for the full Fig. 6/7 study."
    );
}
