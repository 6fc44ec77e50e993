//! E-F5 — Fig. 5: time-to-solution over the month-long campaign.
//!
//! Benchmarks the campaign simulator and the per-cycle performance model.
//! The Fig. 5 statistics themselves (total forecast count, histogram,
//! fraction under 3 minutes — paper: 75,248 forecasts, ~97%) are printed
//! by `examples/olympics_campaign`.

use bda_workflow::campaign::{run_campaign, CampaignConfig};
use bda_workflow::PerfModel;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let perf = PerfModel::bda2021();
    c.bench_function("fig5/perf_model_sample", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(perf.sample(black_box(0.2), seed))
        })
    });

    let day = CampaignConfig::short(24.0, 7);
    c.bench_function("fig5/campaign_one_day", |b| {
        b.iter(|| black_box(run_campaign(black_box(&day))))
    });

    let mut g = c.benchmark_group("fig5/campaign_full_month");
    g.sample_size(10);
    g.bench_function("two_periods_30_days", |b| {
        let cfg = CampaignConfig::bda2021();
        b.iter(|| black_box(run_campaign(black_box(&cfg))))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
