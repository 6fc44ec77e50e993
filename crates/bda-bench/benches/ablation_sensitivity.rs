//! A-SENS — §5: configuration sensitivity (cost side).
//!
//! The accuracy side of the sweep lives in `examples/sensitivity_sweep`;
//! this bench measures the *cost* scaling the paper traded against it:
//! LETKF analysis time vs ensemble size and localization radius (more
//! members = bigger eigenproblems; wider localization = more observations
//! per grid point).

use bda_bench::{grid_obs, layout_members, letkf_layout};
use bda_letkf::{analyze_quorum_region, LetkfConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    eprintln!("\n================ A-SENS: analysis cost scaling ================");
    eprintln!("cost side of the paper's configuration sweep: LETKF time vs ensemble");
    eprintln!("size and localization radius (skill side: examples/sensitivity_sweep)\n");

    let l = letkf_layout(12, 8);

    // --- ensemble-size scaling ---
    let mut group = c.benchmark_group("sensitivity/ensemble_size");
    group.sample_size(10);
    for &k in &[8usize, 16, 32, 64] {
        let ms = layout_members(&l, k, k as u64);
        let obs = grid_obs(&l, &ms, 3);
        group.bench_function(BenchmarkId::from_parameter(k), |b| {
            let cfg = LetkfConfig::reduced(k);
            let alive = vec![true; k];
            b.iter(|| {
                let mut members = black_box(&ms).clone();
                black_box(
                    analyze_quorum_region(&mut members, &alive, l.clone(), &obs, &cfg, 2, None)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();

    // --- localization-radius scaling ---
    let mut group = c.benchmark_group("sensitivity/localization_radius_m");
    group.sample_size(10);
    let k = 16;
    let ms = layout_members(&l, k, 7);
    let obs = grid_obs(&l, &ms, 1); // dense obs so the radius matters
    for &loc in &[1000.0f64, 2000.0, 4000.0] {
        group.bench_function(BenchmarkId::from_parameter(loc as u64), |b| {
            let mut cfg = LetkfConfig::reduced(k);
            cfg.loc_horizontal = loc;
            cfg.loc_vertical = loc;
            let alive = vec![true; k];
            b.iter(|| {
                let mut members = black_box(&ms).clone();
                black_box(
                    analyze_quorum_region(&mut members, &alive, l.clone(), &obs, &cfg, 2, None)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
