//! A-EIG — §5: the eigensolver swap (KeDV vs the standard solver).
//!
//! "The LETKF contains eigenvalue decomposition of the size of the ensemble
//! at each grid point, involving total 256x256x60 calls of an eigenvalue
//! solver of the matrix size of 1000. We applied KeDV ... in place of the
//! standard LAPACK solver to accelerate the computation."
//!
//! Here the contrast is reproduced from scratch: cyclic Jacobi (the slow
//! robust reference) against the batched, workspace-reusing Householder+QL
//! solver the LETKF runs (the LAPACK-algorithm class with the KeDV
//! engineering idea), on batches of SPD matrices shaped like LETKF
//! ensemble-space problems.

use bda_bench::spd_batch;
use bda_num::{BatchedEigen, JacobiEigen, SymEigSolver};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    eprintln!("\n================ A-EIG: eigensolver ablation ================");
    eprintln!("paper: KeDV replaced the standard solver for k=1000 problems at every");
    eprintln!("grid point; compare jacobi (reference) vs batched-ql\n");

    for &n in &[32usize, 64, 96] {
        let batch = spd_batch(n, 8, n as u64);
        let mut group = c.benchmark_group(format!("eigensolver/k{n}_batch8"));
        if n >= 64 {
            group.sample_size(10);
        }

        group.bench_function(BenchmarkId::new("jacobi", n), |b| {
            let mut solver = JacobiEigen::default();
            b.iter(|| {
                for a in &batch {
                    black_box(SymEigSolver::<f32>::decompose(&mut solver, black_box(a)));
                }
            })
        });

        group.bench_function(BenchmarkId::new("batched-ql (KeDV analogue)", n), |b| {
            let mut solver = BatchedEigen::<f32>::with_capacity(n);
            b.iter(|| black_box(solver.decompose_batch(black_box(&batch))))
        });

        group.finish();
    }

    // Single large problem closer to the paper's k=1000 (kept modest so the
    // bench suite stays fast; scale with --bench if desired).
    let big = spd_batch(192, 1, 99);
    let mut group = c.benchmark_group("eigensolver/k192_single");
    group.sample_size(10);
    group.bench_function("batched-ql (KeDV analogue)", |b| {
        let mut solver = BatchedEigen::<f32>::with_capacity(192);
        b.iter(|| black_box(solver.decompose_one(&big[0])))
    });
    group.bench_function("jacobi", |b| {
        let mut solver = JacobiEigen::default();
        b.iter(|| black_box(SymEigSolver::<f32>::decompose(&mut solver, &big[0])))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
