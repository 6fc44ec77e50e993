//! The live three-thread pipeline — Figs. 2 and 4 with real computation.
//!
//! The OSSE is split at the radar. The radar thread owns the `Nature`: it
//! advances the truth, scans it and encodes each volume. The bytes travel
//! through the JIT-DT pipe to the assimilation thread, which owns the
//! `Assimilator` and its ensemble and runs exactly the OSSE's cycle on the
//! decoded volume: the 30-s ensemble forecast with its health scan, H(x),
//! QC, the quorum LETKF and member respawn. The analysis mean is handed to
//! the forecast thread, which integrates it forward. The pipeline always
//! runs under the fault-tolerant cycle supervisor; the per-cycle outcome
//! table — stage timings with the Fig. 4 segmentation, dispositions, and
//! availability (the Fig. 5 accounting) — is printed at the end. `--inject`
//! fills the supervisor's fault plan, and the requested faults are injected
//! deterministically.
//!
//! With `--checkpoint-dir` the run switches to the sequential checkpointed
//! campaign, which is a one-shard `bda-shard` worker — the same driver every
//! shard of `examples/federation.rs` runs: atomic checksum-sealed snapshots
//! are written every `--every` cycles, member faults (`nan:M@C`,
//! `blowup:M@C`) exercise quarantine/respawn, and an injected `crash@C`
//! kills the process abruptly (exit 137, the `kill -9` stand-in) —
//! re-running the same command resumes from the newest valid snapshot
//! bit-for-bit. The deterministic outcome table can be diffed across runs
//! via `--table-file`. A plan naming a member that does not exist exits 2.
//!
//! ```text
//! cargo run --release --example realtime_pipeline [-- --cycles N] \
//!     [--inject "panic:assim@2,corrupt@3,stall@1x2,drop@4,dup@2,stale@3,nan:1@2,crash@3,random:SEED"] \
//!     [--checkpoint-dir DIR] [--every N] [--table-file PATH]
//! ```
//!
//! The assimilation thread decodes each volume in salvage mode (keeping the
//! intact records of a corrupted transfer) and runs the multi-stage QC
//! pipeline; each cycle's QC accounting — accepted/total plus per-stage
//! rejections — is printed alongside the analysis.

use bda_core::osse::{Osse, OsseConfig};
use bda_pawr::codec::{decode_volume_salvage, encode_volume, ValueBounds};
use bda_scale::{Model, ModelState};
use bda_shard::{HaloBus, ShardConfig, ShardWorker};
use bda_verify::maps::area_fraction;
use bda_workflow::{CycleSupervisor, Fault, FaultPlan, ForecastInput};
use std::path::PathBuf;

/// The sequential checkpointed campaign: a one-shard worker that survives
/// `kill -9`, resumes bit-for-bit, and proves it through a timing-free
/// outcome table.
fn run_checkpointed_campaign(
    n_cycles: usize,
    plan: FaultPlan,
    dir: PathBuf,
    every: usize,
    table_file: Option<PathBuf>,
) {
    let mut cfg = ShardConfig::new(OsseConfig::reduced(10, 8, 6, 2, 11), 1, 0, n_cycles);
    // Spin convection up before the campaign so every cycle assimilates a
    // live reflectivity field: the RMSE columns in the outcome table then
    // carry real float content, which is what makes the byte-level table
    // diffs (kill-and-resume, 1-vs-N-thread determinism parity) meaningful.
    // 1080 s is mid-storm for this config's 0-300 s trigger window; earlier
    // the field is below the detectability floor, later the cells decay.
    cfg.spinup_seconds = 1080.0;
    cfg.bus_dir = dir.join("bus");
    cfg.ckpt_dir = dir;
    cfg.checkpoint_every = every;
    cfg.plan = plan;
    // Every way to fail here is a bad argument: a `--checkpoint-dir` that
    // cannot be opened, a plan naming a member that does not exist, or an
    // `--every` longer than the halo replay window.
    let started = HaloBus::new(&cfg.bus_dir)
        .map_err(|e| format!("open {}: {e}", cfg.bus_dir.display()))
        .and_then(|bus| ShardWorker::<f32>::start_or_resume_on(cfg, bus));
    let (mut w, resumed) = started.unwrap_or_else(|e| {
        eprintln!("cannot start the campaign: {e}");
        std::process::exit(2);
    });
    if resumed {
        println!(
            "resumed from the newest checkpoint at cycle {}",
            w.next_cycle()
        );
    }
    for c in w.next_cycle()..n_cycles as u64 {
        // Crash faults fire on a fresh start only: the resumed process *is*
        // the restart after the kill, and re-killing it would loop forever.
        if !resumed && w.cfg.plan.has(c as usize, Fault::Crash) {
            // A killed process writes no table.
            eprintln!("injected crash at cycle {c}: dying abruptly (kill -9 stand-in)");
            std::process::exit(137);
        }
        if let Err(e) = w.run_cycle(c) {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        }
    }
    let table = w.table();
    if let Some(path) = &table_file {
        std::fs::write(path, &table).expect("write --table-file");
    }
    println!("{table}");
}

fn main() {
    let mut n_cycles = 5usize;
    let mut inject: Option<String> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut every = 1usize;
    let mut table_file: Option<PathBuf> = None;
    let argv: Vec<String> = std::env::args().collect();
    if let Some(i) = argv.iter().position(|a| a == "--cycles") {
        n_cycles = argv[i + 1].parse().expect("--cycles N");
    }
    if let Some(i) = argv.iter().position(|a| a == "--inject") {
        match argv.get(i + 1) {
            Some(spec) => inject = Some(spec.clone()),
            None => {
                eprintln!("--inject requires a fault spec, e.g. --inject \"panic:assim@2\"");
                std::process::exit(2);
            }
        }
    }
    if let Some(i) = argv.iter().position(|a| a == "--checkpoint-dir") {
        checkpoint_dir = Some(PathBuf::from(
            argv.get(i + 1).expect("--checkpoint-dir DIR"),
        ));
    }
    if let Some(i) = argv.iter().position(|a| a == "--every") {
        every = argv[i + 1].parse().expect("--every N");
    }
    if let Some(i) = argv.iter().position(|a| a == "--table-file") {
        table_file = Some(PathBuf::from(argv.get(i + 1).expect("--table-file PATH")));
    }

    let plan = FaultPlan::parse(inject.as_deref().unwrap_or(""), n_cycles).unwrap_or_else(|e| {
        eprintln!("bad --inject spec: {e}");
        std::process::exit(2);
    });

    if let Some(dir) = checkpoint_dir {
        println!("=== checkpointed campaign ({n_cycles} cycles of 30 model-seconds) ===\n");
        run_checkpointed_campaign(n_cycles, plan, dir, every, table_file);
        return;
    }

    println!("=== live real-time pipeline ({n_cycles} cycles of 30 model-seconds) ===\n");

    // The OSSE split at the radar: the nature run goes to the radar
    // thread, the assimilator and its ensemble to the assimilation thread,
    // which sees nothing but the volumes that cross the pipe.
    let mut osse = Osse::<f32>::new(OsseConfig::reduced(14, 10, 8, 3, 99));
    println!("spinning up convection before going live...");
    osse.spinup_system(720.0);
    let dt = osse.cfg.cycle_interval;
    let mut fc_engine = Model::from_parts(osse.cfg.model.clone(), osse.base().clone());
    let Osse {
        mut nature,
        mut assim,
        mut ensemble,
        ..
    } = osse;

    println!(
        "running under the cycle supervisor, {} fault(s) injected\n",
        plan.len()
    );
    let supervisor = CycleSupervisor {
        faults: plan,
        ..CycleSupervisor::default()
    };
    let report = supervisor.run(
        n_cycles,
        // --- radar thread: advance truth 30 s, scan, encode ---
        move |_cycle: usize| Ok(encode_volume(&nature.advance(dt).0)),
        // --- assimilation thread: salvage decode, then the OSSE's own
        // 30-s ensemble forecast, QC, quorum LETKF and respawn ---
        move |_cycle: usize, bytes| {
            let (vol, salvage) = decode_volume_salvage::<f32>(&bytes, &ValueBounds::default())
                .map_err(|e| format!("unusable volume: {e:?}"))?;
            let health = assim.forecast(&mut ensemble, dt);
            let out = assim.analyze(&mut ensemble, health, vol.into(), None);
            if out.below_quorum {
                return Err(format!("below quorum: {} members alive", out.n_alive));
            }
            let mut qc_note = out.qc.summary();
            if !salvage.clean() {
                qc_note.push_str(&format!(
                    ", salvaged {}/{} records",
                    salvage.kept, salvage.declared
                ));
            }
            Ok((ensemble.mean(), qc_note))
        },
        // --- forecast thread: 2-minute forecast, honoring the
        // degradation ladder ---
        move |cycle: usize, input: ForecastInput<'_, (ModelState<f32>, String)>| {
            let (mean, provenance) = match input {
                ForecastInput::Analysis((mean, qc)) => {
                    println!("cycle {cycle}: {qc}");
                    (mean.clone(), "fresh analysis")
                }
                ForecastInput::PreviousAnalysis((mean, _)) => {
                    (mean.clone(), "previous analysis (degraded)")
                }
                ForecastInput::Persistence => {
                    println!("cycle {cycle}: persistence product (no analysis available)");
                    return Ok(());
                }
            };
            let _ = fc_engine.swap_state(mean);
            fc_engine
                .integrate(120.0)
                .map_err(|e| format!("forecast blew up: {e:?}"))?;
            let e = &fc_engine;
            let map =
                bda_core::products::reflectivity_map(&e.state, &e.base, &e.cfg.grid, 2000.0, 5.0);
            let rain = area_fraction(&map, 30.0, None);
            println!(
                "cycle {cycle}: forecast from {provenance}, rain area {:.1}%",
                rain * 100.0
            );
            Ok(())
        },
    );
    println!("\n{}", report.table());

    let timings = report.cycles.iter().filter_map(|c| c.timing);
    let mean_tts =
        timings.clone().map(|t| t.time_to_solution_s).sum::<f64>() / timings.count().max(1) as f64;
    println!("mean time-to-solution {mean_tts:.3} s (the full-scale Fugaku equivalent is Fig. 5's ~2.5 min)");
}
