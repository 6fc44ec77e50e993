//! The heavy-rain OSSE study — Figs. 6, 7 and 8.
//!
//! A nature run with triggered convection is cycled through the BDA system;
//! forecast cases are launched every cycle and verified against the truth
//! with the threat score at 30 dBZ, BDA vs persistence (Fig. 7). Forecast
//! and "observed" reflectivity maps (Fig. 6a/6b) are written as PGM images
//! and printed as ASCII; `--fig8` adds the 3-D structure view.
//!
//! ```text
//! cargo run --release --example heavy_rain_osse -- [--cycles N] [--cases M] [--fig8]
//! ```

use bda_core::osse::{Osse, OsseConfig};
use bda_core::products;
use bda_verify::maps::{ascii_map, write_pgm};
use bda_verify::{ContingencyTable, LeadTimeSeries, PersistenceForecast};

struct Args {
    spinup_cycles: usize,
    cases: usize,
    fig8: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        spinup_cycles: 6,
        cases: 8,
        fig8: false,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--cycles" => {
                i += 1;
                args.spinup_cycles = argv[i].parse().expect("--cycles N");
            }
            "--cases" => {
                i += 1;
                args.cases = argv[i].parse().expect("--cases M");
            }
            "--fig8" => args.fig8 = true,
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    println!("=== heavy-rain OSSE (Figs. 6/7/8 at reduced scale) ===");
    println!(
        "spin-up {} cycles, then {} forecast cases\n",
        args.spinup_cycles, args.cases
    );

    // A somewhat larger reduced domain so convection has room.
    let cfg = OsseConfig::reduced(20, 12, 12, 4, 729);
    let grid = cfg.model.grid.clone();
    let mut osse = Osse::<f32>::new(cfg);

    // Let the truth's convection mature first (the July 29 storms existed
    // before the showcased forecast was launched).
    osse.spinup_system(900.0);
    println!(
        "truth convection after spin-up: max {:.1} dBZ",
        osse.truth_max_dbz()
    );

    // --- spin-up cycling so the ensemble locks onto the truth's storms ---
    for out in osse.run_cycles(args.spinup_cycles) {
        println!(
            "cycle t={:>4.0}s: {:>5} obs used, RMSE {:.2} -> {:.2} dBZ",
            out.time, out.n_obs_used, out.prior_rmse_dbz, out.posterior_rmse_dbz
        );
    }

    // --- Fig. 7: threat score vs lead, BDA vs persistence, many cases ---
    let leads: Vec<f64> = (0..=6).map(|i| i as f64 * 60.0).collect(); // 0..6 min
    let mut bda_series = LeadTimeSeries::new(leads.len(), 60.0);
    let mut per_series = LeadTimeSeries::new(leads.len(), 60.0);
    let mut last_case = None;

    for case_idx in 0..args.cases {
        let case = osse.run_forecast_case(&leads, 3);
        let persistence = PersistenceForecast::new(&case.observed_dbz_init);
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
            bda_series.add(li, &bda_t);
            per_series.add(li, &per_t);
        }
        last_case = Some(case);
        // Keep cycling between cases (the real system refreshes every 30 s).
        osse.cycle();
        if case_idx % 4 == 3 {
            println!("  ... {} cases done", case_idx + 1);
        }
    }

    println!("\nFig. 7 analogue — threat score (30 dBZ) vs lead time:");
    print!(
        "{}",
        bda_series.comparison_report("BDA", &per_series, "persistence")
    );

    // --- Fig. 6: final maps of the last case ---
    let case = last_case.expect("at least one case");
    let last = case.leads.len() - 1;
    println!(
        "\nFig. 6 analogue — (a) {}-min BDA forecast vs (b) observation ('/' = radar no-data):",
        case.leads[last] / 60.0
    );
    println!("(a) forecast reflectivity:");
    let fc32: Vec<f32> = case.forecast_dbz[last].iter().map(|&v| v as f32).collect();
    print!("{}", ascii_map(&fc32, grid.nx, grid.ny, Some(&case.mask)));
    println!("(b) verifying truth:");
    let tr32: Vec<f32> = case.truth_dbz[last].iter().map(|&v| v as f32).collect();
    print!("{}", ascii_map(&tr32, grid.nx, grid.ny, Some(&case.mask)));

    let outdir = std::path::Path::new("target/bda_products");
    std::fs::create_dir_all(outdir).expect("create output dir");
    write_pgm(
        outdir.join("fig6a_forecast.pgm"),
        &fc32,
        grid.nx,
        grid.ny,
        0.0,
        60.0,
        Some(&case.mask),
    )
    .unwrap();
    write_pgm(
        outdir.join("fig6b_truth.pgm"),
        &tr32,
        grid.nx,
        grid.ny,
        0.0,
        60.0,
        Some(&case.mask),
    )
    .unwrap();
    // Fig. 1a-style color products.
    products::write_ppm_reflectivity(
        outdir.join("fig1a_forecast_color.ppm"),
        &case.forecast_dbz[last],
        grid.nx,
        grid.ny,
        Some(&case.mask),
    )
    .unwrap();
    println!("PGM/PPM maps written to {}", outdir.display());

    // Probability-of-heavy-rain product from the forecast ensemble members.
    let prob = products::exceedance_probability_map(
        &osse.ensemble.members,
        osse.base(),
        &grid,
        2000.0,
        30.0,
    );
    let p_max = prob.iter().cloned().fold(0.0, f64::max);
    println!(
        "ensemble probability product: max P(>30 dBZ at 2 km) = {:.0}% across the domain",
        p_max * 100.0
    );

    // --- Fig. 8: 3-D structure view ---
    if args.fig8 {
        println!("\nFig. 8 analogue — 3-D reflectivity structure of the truth:");
        print!(
            "{}",
            products::volume_view(
                osse.truth(),
                osse.base(),
                &grid,
                &osse.nature.radar().radars()[0]
            )
        );
    }

    // --- headline conclusions, as in §7 ---
    let bda_ts = bda_series.threat_scores();
    let per_ts = per_series.threat_scores();
    if let (Some(Some(b)), Some(Some(p))) = (bda_ts.last(), per_ts.last()) {
        println!(
            "\nAt the longest lead: BDA threat {b:.3} vs persistence {p:.3} ({})",
            if b > p {
                "BDA wins, as in Fig. 7"
            } else {
                "persistence wins at this scale/seed"
            }
        );
    }
}
