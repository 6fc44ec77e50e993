//! The names and units of every metric, in the order they are printed.
//! `BENCHMARK.json` lists the same names; a self-test keeps the two equal.

/// What a user of the system sees; each has a regression bound in
/// `BENCHMARK.json`. Reported by an untraced run, on every workload.
///
/// `tts_best_s` is the fastest of the run's replays, not their median: the
/// replays are the same work, and on the reference box noise only ever
/// adds time — in bursts of seconds that a median over seven 2-s cycles
/// cannot reject (RESULTS.md). Median and tail are reported unbounded as
/// `bench.tts_p50_s` and `bench.tts_tail_s`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("tts_best_s", "s"), ("peak_rss_mb", "MB")];

/// Single layers, layer = crate name. Reported by a traced run; a metric
/// of a layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scale.truth_step_s", "s"),
    ("scale.ens_forecast_s", "s"),
    ("scale.lead_forecast_s", "s"),
    ("scale.cell_steps_per_s", "1/s"),
    ("scale.flatten_s", "s"),
    ("scale.ens_mean_s", "s"),
    ("scale.tts_share", "ratio"),
    ("pawr.scan_s", "s"),
    ("pawr.encode_s", "s"),
    ("pawr.decode_s", "s"),
    ("pawr.hx_s", "s"),
    ("pawr.volume_bytes", "B"),
    ("pawr.obs_scanned", "count"),
    ("pawr.codec_mb_per_s", "MB/s"),
    ("pawr.tts_share", "ratio"),
    ("jitdt.transfer_s", "s"),
    ("jitdt.mb_per_s", "MB/s"),
    ("jitdt.tts_share", "ratio"),
    ("letkf.qc_s", "s"),
    ("letkf.analysis_s", "s"),
    ("letkf.obs_used", "count"),
    ("letkf.qc_reject_frac", "ratio"),
    ("letkf.points_analyzed", "count"),
    ("letkf.points_per_s", "1/s"),
    ("letkf.mean_local_obs", "count"),
    ("letkf.tts_share", "ratio"),
    ("num.eigensolve_s", "s"),
    ("num.gemm_s", "s"),
    ("num.gemm_gflops_computed", "GFLOP/s"),
    ("rayon.part1_speedup", "ratio"),
    ("core.product_map_s", "s"),
    ("core.tts_share", "ratio"),
    ("serve.tile_encode_s", "s"),
    ("serve.publish_s", "s"),
    ("serve.ack_wait_s", "s"),
    ("serve.frames", "count"),
    ("serve.delta_bytes", "B"),
    ("serve.evicted", "count"),
    ("serve.tts_share", "ratio"),
    ("shard.publish_phase_s", "s"),
    ("shard.collect_phase_s", "s"),
    ("shard.halo_bytes", "B"),
    ("shard.halo_rtt_socket_s", "s"),
    ("shard.halo_rtt_file_s", "s"),
    ("shard.overhead_ratio", "ratio"),
    ("shard.completed_frac", "ratio"),
    ("shard.tts_share", "ratio"),
    ("io.checkpoint_write_s", "s"),
    ("io.checkpoint_read_s", "s"),
    ("io.checkpoint_bytes", "B"),
    ("verify.prior_rmse_dbz", "dBZ"),
    ("verify.posterior_rmse_dbz", "dBZ"),
    ("bench.unattributed_frac", "ratio"),
    ("bench.realtime_factor", "ratio"),
    ("bench.tts_p50_s", "s"),
    ("bench.tts_tail_s", "s"),
    ("bench.tail_percentile", "ratio"),
    ("bench.cycles", "count"),
    ("bench.pool_threads", "count"),
];

/// The layers whose share of `tts` is reported, with the metric's name.
pub const SHARE_LAYERS: &[(&str, &str)] = &[
    ("scale", "scale.tts_share"),
    ("pawr", "pawr.tts_share"),
    ("jitdt", "jitdt.tts_share"),
    ("letkf", "letkf.tts_share"),
    ("core", "core.tts_share"),
    ("serve", "serve.tts_share"),
    ("shard", "shard.tts_share"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn fits(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(fits(name, 64, "_.-"), "name {name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(fits(unit, 16, "_/%.-"), "unit {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.contains(&("setup_s", "s")));
        for (layer, share) in SHARE_LAYERS {
            assert_eq!(*share, format!("{layer}.tts_share"));
            assert!(PER_LAYER.iter().any(|(n, _)| n == share), "{share}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(json::Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| {
                        m.get(k)
                            .and_then(json::Value::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, want, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Value::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Value::as_str))
            .collect();
        assert_eq!(workloads, crate::run::WORKLOADS);
    }
}
