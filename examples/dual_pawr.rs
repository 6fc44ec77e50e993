//! Dual-PAWR federation — two MP-PAWRs assimilated across shard processes.
//!
//! "We have new MP-PAWRs installed in Osaka and Kobe, and the dual coverage
//! is available. Our recent simulation study ... suggested that multiple
//! PAWR coverage be beneficial for disastrous heavy rain prediction"
//! (Maejima et al. 2022, the paper's §8 outlook). This example makes
//! that outlook *operational*: the two-radar network drives a sharded
//! federation ([`bda::shard::LocalFederation`], S=2) — every shard
//! assimilates both radars' observations over its own x-strip and
//! assembles the rest from peer halos — and the example verifies the
//! federated analysis is **bit-identical** to the single-process dual-radar
//! run, failing (non-zero exit) otherwise. Dual coverage, observations per
//! cycle and the final posterior RMSE are reported alongside.
//!
//! ```text
//! cargo run --release --example dual_pawr [-- --cycles N] [--shards S]
//! ```

use bda::core::osse::{Osse, OsseConfig};
use bda::shard::{FederationConfig, LocalFederation};

const SPINUP_S: f64 = 840.0;

fn dual_config() -> OsseConfig {
    OsseConfig::reduced(18, 10, 10, 3, 515).with_dual_radar()
}

/// The dual-radar OSSE federated over `shards` shard workers, bit-audited
/// against the identical single-process run.
fn federated_main(cycles: usize, shards: usize) -> i32 {
    println!("=== dual-PAWR federation: 2 radars x {shards} shards x {cycles} cycles ===\n");

    // Single-process reference, same seed, same network, same spin-up —
    // every shard repeats the identical deterministic spin-up, which is
    // what lets the strips line up bit-for-bit afterwards.
    let mut reference = Osse::<f32>::new(dual_config());
    reference.spinup_system(SPINUP_S);
    let coverage = reference
        .coverage_mask(2000.0)
        .iter()
        .filter(|&&v| v)
        .count();
    let mut obs_used = 0;
    let mut last_rmse = f64::NAN;
    for out in reference.run_cycles(cycles) {
        obs_used = out.n_obs_used;
        last_rmse = out.posterior_rmse_dbz;
    }
    let ref_bits: Vec<Vec<u32>> = reference
        .analyzed_flats()
        .iter()
        .map(|f| f.iter().map(|v| v.to_bits()).collect())
        .collect();

    // The same campaign, sharded: each worker analyzes its x-strip of the
    // dual-coverage domain and assembles the peers' strips from halos.
    let dir = std::env::temp_dir().join(format!("bda-dual-pawr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = FederationConfig::new(dual_config(), shards, cycles, dir.clone());
    cfg.spinup_seconds = SPINUP_S;
    let mut fed = match LocalFederation::<f32>::start(cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("federation start: {e}");
            return 1;
        }
    };
    if let Err(e) = fed.run() {
        eprintln!("federation run: {e}");
        return 1;
    }

    let mut failures = 0;
    for (s, w) in fed.workers.iter().enumerate() {
        let bits: Vec<Vec<u32>> = w
            .osse
            .analyzed_flats()
            .iter()
            .map(|f| f.iter().map(|v| v.to_bits()).collect())
            .collect();
        if bits == ref_bits {
            println!("shard {s}: assembled dual-radar ensemble bit-identical to single-process");
        } else {
            eprintln!("shard {s}: FAIL — assembled ensemble diverged from reference");
            failures += 1;
        }
    }
    println!("\n{}", fed.table(0));
    println!(
        "dual coverage: {coverage} cells at 2 km, {obs_used} obs/cycle, final posterior RMSE {last_rmse:.3} dBZ"
    );
    let _ = std::fs::remove_dir_all(&dir);
    if failures == 0 {
        println!(
            "\ndual-PAWR federation OK: both radars, {shards} shards, one analysis — bit for bit"
        );
        0
    } else {
        eprintln!("\ndual-PAWR federation FAILED: {failures} shard(s) diverged");
        1
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let num = |flag: &str, default: usize| -> usize {
        argv.iter()
            .position(|a| a == flag)
            .map(|i| argv[i + 1].parse().unwrap_or_else(|_| panic!("{flag} N")))
            .unwrap_or(default)
    };
    std::process::exit(federated_main(num("--cycles", 4), num("--shards", 2)));
}
