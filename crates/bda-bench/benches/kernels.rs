//! Per-kernel microbenchmarks at realistic LETKF and model sizes.
//!
//! `benchmark/` measures the cycle (`T_obs` to ACK, with a per-layer
//! trace); this harness pins the kernels themselves — batched eigensolve,
//! blocked HEVI tridiagonal sweep, register-tiled GEMM, the lane-array dot
//! and the axpy, the whole per-grid-point transform, the model's three
//! heaviest kernels (the scalar advection of the 24x24x12 storm, one
//! boundary-layer column and one storm microphysics column) and one model
//! step of that storm on a 1-thread pool and at pool width — so a
//! regression in any one of them is visible even when cycle-level noise
//! would hide it. CI's `perf-gate` compares each row of the committed
//! `BENCH_13_kernels.json` against a fresh run, the model rows included;
//! a row the file does not hold is reported but not gated.
//!
//! Sizes mirror the reduced OSSE and the paper's LETKF: ensemble sizes
//! k = 16 (bench fixture), k = 64 and k = 128 (the benchmark's
//! `many_member` workload, with its 76 local observations and 10 analysed
//! variables per grid point), vertical sweep nz = 12 over a 24-column
//! x-row, and k = 100 / 128 vectors for the dot/axpy primitives.
//!
//! Every row of ensemble-space arithmetic also carries `flops` and
//! `gflops_computed` — the roofline column. The flop count is computed from
//! the sizes, never measured: 2n^3 for the product, 2n for dot and axpy,
//! and for the eigensolve the textbook nominal count of its three phases
//! (Householder reduction 4/3 n^3, back-accumulation 4/3 n^3, QL rotations
//! 6 n^3 — the last depends on the spectrum, so the figure is a yardstick
//! across commits, not a hardware counter).
//!
//! The model-kernel rows carry `bytes` and `gbytes_per_s_computed`
//! instead: the f32 traffic of one call, computed from the sizes as each
//! array read once plus each array written once — 5 per cell per scalar
//! for the advection (q, u, v, w in, the tendency out), 10 per level for
//! the boundary layer (u, v, theta', qv, TKE in and out) and 15 per level
//! for the microphysics (pi' in; theta' and six water species in and
//! out). Like the flop counts, a yardstick, not a counter.
//!
//! The byte-path rows pin the radar volume's trip to the filter at the
//! `shell_replay` benchmark's size: one pass of the integrity checksum over
//! 2 MiB (the floor every hop pays once), one FNV-1a pass over the same
//! bytes (the digest, for the ratio), encoding and salvage-decoding a
//! 100,000-record volume, and moving 2 MiB through the JIT-DT pipe in
//! 64-KiB chunks with the sender on a thread of its own, as the benchmark
//! does. Their `bytes` is the buffer's length.
//!
//! Flags (unknown flags ignored so `cargo bench --bench kernels` works):
//!
//! * `--out PATH`   output path (default `<repo>/BENCH_13_kernels.json`)
//! * `--reps N`     measured repetitions per kernel (default 200)

use bda_bench::{local_obs, rng, spd_batch};
use bda_grid::halo::HaloPolicy;
use bda_grid::Field3;
use bda_jitdt::pipe::pipe;
use bda_jitdt::Bytes;
use bda_letkf::weights::{apply_transform, compute_transform, TransformScratch};
use bda_letkf::{ObsKind, Observation};
use bda_num::matrix::{axpy, dot8, MatrixS};
use bda_num::tridiag::ThomasFactor;
use bda_num::{checksum, fnv1a, BatchedEigen};
use bda_pawr::codec::{decode_volume_salvage, encode_volume, ValueBounds};
use bda_pawr::scan::ScanResult;
use bda_scale::advect::{scalar_advection_row, RowProfiles};
use bda_scale::base::Sounding;
use bda_scale::forcing::TriggerSchedule;
use bda_scale::microphys::{column_microphysics, ColumnView, MicrophysParams};
use bda_scale::turbulence::ColumnPbl;
use bda_scale::{Model, ModelConfig, PrognosticVar};
use rayon::ThreadPoolBuilder;
use std::time::Instant;

struct Row {
    name: &'static str,
    mean_us: f64,
    /// Floating-point operations per call, computed from the sizes.
    flops: Option<f64>,
    /// Bytes moved per call, computed from the sizes.
    bytes: Option<f64>,
}

/// Mean microseconds per call of `op` over `reps` calls (after one
/// warm-up call that also pages in the scratch buffers).
fn time_op(reps: usize, mut op: impl FnMut()) -> f64 {
    op();
    let start = Instant::now();
    for _ in 0..reps {
        op();
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// Nominal flop count of one n x n symmetric eigendecomposition with
/// vectors (see the module docs).
fn eigensolve_flops(n: usize) -> f64 {
    (4.0 / 3.0 + 4.0 / 3.0 + 6.0) * (n as f64).powi(3)
}

fn eigensolve_bench(k: usize, batch: usize, reps: usize) -> f64 {
    let mats = spd_batch(k, batch, 7);
    let mut solver = BatchedEigen::<f32>::with_capacity(k);
    let us_per_batch = time_op(reps, || {
        for a in &mats {
            solver.decompose_in_place(a);
            std::hint::black_box(solver.values().first().copied());
        }
    });
    us_per_batch / batch as f64
}

fn tridiag_bench(nz: usize, cols: usize, reps: usize) -> f64 {
    let mut r = rng(11);
    // Diagonally dominant system shaped like the HEVI vertical operator.
    let sub: Vec<f32> = (0..nz).map(|_| r.gaussian(0.0f32, 0.1)).collect();
    let sup: Vec<f32> = (0..nz).map(|_| r.gaussian(0.0f32, 0.1)).collect();
    let diag: Vec<f32> = (0..nz).map(|_| 1.0 + r.gaussian(0.0f32, 0.05)).collect();
    let rhs: Vec<f32> = (0..nz * cols).map(|_| r.gaussian(0.0f32, 1.0)).collect();
    let mut tri = ThomasFactor::new();
    let mut block = rhs.clone();
    time_op(reps, || {
        tri.factor(&sub, &diag, &sup);
        block.copy_from_slice(&rhs);
        tri.solve_columns(&mut block, cols);
        std::hint::black_box(block[0]);
    })
}

fn gemm_bench(n: usize, reps: usize) -> f64 {
    let mut r = rng(13);
    let a = MatrixS::<f32>::from_fn(n, |_, _| r.gaussian(0.0f32, 1.0));
    let b = MatrixS::<f32>::from_fn(n, |_, _| r.gaussian(0.0f32, 1.0));
    let mut c = MatrixS::zeros(n);
    time_op(reps, || {
        a.matmul_into(&b, &mut c);
        std::hint::black_box(c[(0, 0)]);
    })
}

fn dot8_bench(n: usize, reps: usize) -> f64 {
    let mut r = rng(17);
    let x: Vec<f32> = (0..n).map(|_| r.gaussian(0.0f32, 1.0)).collect();
    let y: Vec<f32> = (0..n).map(|_| r.gaussian(0.0f32, 1.0)).collect();
    // One call is nanoseconds; time an inner loop of 512 and divide.
    time_op(reps, || {
        let mut acc = 0.0f32;
        for _ in 0..512 {
            acc += dot8(&x, &y);
        }
        std::hint::black_box(acc);
    }) / 512.0
}

fn axpy_bench(n: usize, reps: usize) -> f64 {
    let mut r = rng(19);
    let x: Vec<f32> = (0..n).map(|_| r.gaussian(0.0f32, 1.0)).collect();
    let mut y: Vec<f32> = (0..n).map(|_| r.gaussian(0.0f32, 1.0)).collect();
    time_op(reps, || {
        for _ in 0..512 {
            axpy(1e-7f32, &x, &mut y);
        }
        std::hint::black_box(y[0]);
    }) / 512.0
}

/// One grid point of the `many_member` shape: `compute_transform` from
/// `nobs` localized observations, then `apply_transform` to `nvar` state
/// variables. Returns `(mean_us, flops)`.
fn transform_bench(k: usize, nobs: usize, nvar: usize, reps: usize) -> (f64, f64) {
    let local = local_obs(k, nobs, 23);
    let mut r = rng(29);
    let state: Vec<f32> = (0..nvar * k).map(|_| r.gaussian(5.0f32, 1.0)).collect();
    let mut block = state.clone();
    let mut solver = BatchedEigen::<f32>::with_capacity(k);
    let mut scratch = TransformScratch::new();
    let mut trans = MatrixS::zeros(k);
    let mut pert = vec![0.0f32; k];
    let us = time_op(reps, || {
        block.copy_from_slice(&state);
        compute_transform(&local, 0.95, 1.0, &mut solver, &mut scratch, &mut trans);
        for vals in block.chunks_exact_mut(k) {
            apply_transform(vals, &trans, &mut pert);
        }
        std::hint::black_box(block[0]);
    });
    let (kf, nf, vf) = (k as f64, nobs as f64, nvar as f64);
    // Upper-triangle Gram products (2 flops per term), the eigensolve,
    // b/vtb/wbar (2k per row-op), the relaxation pass, and the apply.
    let flops = nf * kf * (kf + 1.0)
        + eigensolve_flops(k)
        + kf * kf * (kf + 1.0)
        + 2.0 * kf * (nf + 2.0 * kf)
        + 2.0 * kf * kf
        + vf * 2.0 * kf * kf;
    (us, flops)
}

/// The `storm_cycle` model — 24x24x12, periodic, the three-bubble
/// storm — integrated `seconds` on a `threads`-wide pool, with that pool.
fn storm(threads: usize, seconds: f64) -> (Model<f32>, rayon::ThreadPool) {
    let mut cfg = ModelConfig::reduced(24, 24, 12);
    cfg.halo = HaloPolicy::Periodic;
    cfg.davies_width = 0;
    let (lx, ly) = (cfg.grid.lx(), cfg.grid.ly());
    let mut model = Model::<f32>::new(cfg, &Sounding::convective());
    model.triggers = TriggerSchedule::storm_trio(lx, ly);
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build is infallible");
    pool.install(|| model.integrate(seconds).expect("the storm stays finite"));
    (model, pool)
}

/// One `Model::step` of the storm, integrated 90 s so every bubble has
/// fired, on a `threads`-wide pool. Returns the mean microseconds per
/// step.
fn model_step_bench(threads: usize, reps: usize) -> f64 {
    let (mut model, pool) = storm(threads, 90.0);
    pool.install(|| time_op(reps, || model.step()))
}

/// The upwind advection tendency of the eight advected scalars over the
/// whole 90-s storm domain. Returns `(mean_us, bytes)`.
fn scalar_advection_bench(reps: usize) -> (f64, f64) {
    let (model, _) = storm(1, 90.0);
    let (s, g) = (&model.state, &model.cfg.grid);
    let profiles = RowProfiles::new(&model.base, model.metrics(), g.ny);
    let scalars = [
        PrognosticVar::Theta,
        PrognosticVar::Qv,
        PrognosticVar::Qc,
        PrognosticVar::Qr,
        PrognosticVar::Qi,
        PrognosticVar::Qs,
        PrognosticVar::Qg,
        PrognosticVar::Tke,
    ];
    let mut tend = Field3::zeros(g.nx, g.ny, g.nz(), s.u.halo());
    let us = time_op(reps, || {
        for var in scalars {
            for mut row in tend.rows_mut() {
                let q = s.field(var);
                scalar_advection_row(q, &s.u, &s.v, &s.w, &profiles, model.metrics(), &mut row);
            }
        }
        std::hint::black_box(tend.at(0, 0, 0));
    });
    (us, (scalars.len() * 5 * g.ncells() * 4) as f64)
}

/// The wettest column of `model`: `(i, j)` of the largest column total of
/// the five condensate species.
fn wettest_column(model: &Model<f32>) -> (isize, isize) {
    let (s, g) = (&model.state, &model.cfg.grid);
    let mut best = ((0, 0), -1.0f32);
    for i in 0..g.nx as isize {
        for j in 0..g.ny as isize {
            let total: f32 = [&s.qc, &s.qr, &s.qi, &s.qs, &s.qg]
                .iter()
                .map(|f| f.column(i, j).iter().sum::<f32>())
                .sum();
            if total > best.1 {
                best = ((i, j), total);
            }
        }
    }
    best.0
}

/// One boundary-layer column step on the 12 levels of the 90-s storm's
/// wettest column, its inputs restored before every call. Returns
/// `(mean_us, bytes)`.
fn pbl_column_bench(reps: usize) -> (f64, f64) {
    let (model, _) = storm(1, 90.0);
    let (s, g) = (&model.state, &model.cfg.grid);
    let (i, j) = wettest_column(&model);
    let nz = g.nz();
    let start = [&s.u, &s.v, &s.theta, &s.qv, &s.tke].map(|f| f.column(i, j).to_vec());
    let mut cols = start.clone();
    let dz: Vec<f32> = (0..nz).map(|k| g.vertical.dz(k) as f32).collect();
    let mut pbl = ColumnPbl::<f32>::new(nz);
    let us = time_op(reps, || {
        for (c, s) in cols.iter_mut().zip(&start) {
            c.copy_from_slice(s);
        }
        let [u, v, theta, qv, tke] = &mut cols;
        pbl.step_column(
            u,
            v,
            theta,
            qv,
            tke,
            &model.base,
            &g.vertical.z_center,
            &dz,
            model.cfg.dt,
            0.05,
            1e-5,
            0.01,
        );
        std::hint::black_box(cols[0][0]);
    });
    (us, (10 * nz * 4) as f64)
}

/// One microphysics column step on the 12 levels of the wettest column of
/// the storm at 300 s, when it rains and holds mixed-phase cloud, its
/// inputs restored before every call. Returns `(mean_us, bytes)`.
fn microphysics_column_bench(reps: usize) -> (f64, f64) {
    let (model, _) = storm(1, 300.0);
    let (s, g) = (&model.state, &model.cfg.grid);
    let (i, j) = wettest_column(&model);
    let nz = g.nz();
    let pi = s.pi.column(i, j).to_vec();
    let start =
        [&s.theta, &s.qv, &s.qc, &s.qr, &s.qi, &s.qs, &s.qg].map(|f| f.column(i, j).to_vec());
    let mut cols = start.clone();
    let dz: Vec<f32> = (0..nz).map(|k| g.vertical.dz(k) as f32).collect();
    let params = MicrophysParams::default();
    let mut flux = vec![0.0f64; nz];
    let us = time_op(reps, || {
        for (c, s) in cols.iter_mut().zip(&start) {
            c.copy_from_slice(s);
        }
        let [theta, qv, qc, qr, qi, qs, qg] = &mut cols;
        let mut col = ColumnView {
            theta,
            pi: &pi,
            qv,
            qc,
            qr,
            qi,
            qs,
            qg,
        };
        let r = column_microphysics(&mut col, &model.base, &params, &dz, model.cfg.dt, &mut flux);
        std::hint::black_box(r.rain_rate_mmh);
    });
    (us, (15 * nz * 4) as f64)
}

/// A seeded volume of `n` in-bounds observations, so salvage keeps every
/// record.
fn seeded_scan(n: usize) -> ScanResult<f32> {
    let mut r = rng(31);
    let obs = (0..n)
        .map(|i| {
            let doppler = i % 5 < 2;
            Observation {
                kind: if doppler {
                    ObsKind::DopplerVelocity
                } else {
                    ObsKind::Reflectivity
                },
                x: r.uniform_in(0.0, 128_000.0),
                y: r.uniform_in(0.0, 128_000.0),
                z: r.uniform_in(0.0, 16_000.0),
                value: if doppler {
                    r.uniform_in(-30.0, 30.0) as f32
                } else {
                    r.uniform_in(5.0, 65.0) as f32
                },
                error_sd: if doppler { 3.0 } else { 5.0 },
            }
        })
        .collect();
    ScanResult {
        time: 30.0,
        obs,
        n_reflectivity: 0,
        n_doppler: 0,
        n_clear_air: 0,
        raw_bytes: 0,
    }
}

/// A 2-MiB payload of seeded bytes.
fn payload_2mb() -> Bytes {
    let mut r = rng(37);
    Bytes::from(
        (0..2usize << 20)
            .map(|_| r.next_u64() as u8)
            .collect::<Vec<u8>>(),
    )
}

fn fnv1a_bench(reps: usize) -> (f64, f64) {
    let data = payload_2mb();
    let us = time_op(reps, || {
        std::hint::black_box(fnv1a(std::hint::black_box(&data)));
    });
    (us, data.len() as f64)
}

fn checksum_bench(reps: usize) -> (f64, f64) {
    let data = payload_2mb();
    let us = time_op(reps, || {
        std::hint::black_box(checksum(std::hint::black_box(&data)));
    });
    (us, data.len() as f64)
}

fn volume_encode_bench(n: usize, reps: usize) -> (f64, f64) {
    let scan = seeded_scan(n);
    let bytes = encode_volume(&scan).len();
    let us = time_op(reps, || {
        std::hint::black_box(encode_volume(std::hint::black_box(&scan)));
    });
    (us, bytes as f64)
}

fn volume_decode_bench(n: usize, reps: usize) -> (f64, f64) {
    let bytes = encode_volume(&seeded_scan(n));
    let bounds = ValueBounds::default();
    let decode = || {
        decode_volume_salvage::<f32>(std::hint::black_box(&bytes), &bounds)
            .expect("a freshly encoded volume decodes")
    };
    assert!(decode().1.clean(), "salvage keeps every record");
    let us = time_op(reps, || {
        std::hint::black_box(decode());
    });
    (us, bytes.len() as f64)
}

fn pipe_transfer_bench(reps: usize) -> (f64, f64) {
    let data = payload_2mb();
    let (tx, rx) = pipe(64 * 1024, 64);
    let us = time_op(reps, || {
        std::thread::scope(|s| {
            let sent = data.clone();
            let sender = s.spawn(|| tx.send(sent));
            let got = rx.recv().expect("the pipe delivers");
            sender
                .join()
                .expect("sender thread")
                .expect("the pipe accepts");
            std::hint::black_box(got);
        });
    });
    (us, data.len() as f64)
}

fn main() {
    let mut out = format!("{}/../../BENCH_13_kernels.json", env!("CARGO_MANIFEST_DIR"));
    let mut reps = 200usize;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out takes a path"),
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps takes a positive integer");
            }
            _ => {}
        }
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_width = rayon::current_num_threads();
    eprintln!("kernels: host_cores={host_cores} pool_width={pool_width} reps={reps}");

    let gemm_flops = |n: usize| 2.0 * (n as f64).powi(3);
    let (transform_us, transform_flops) = transform_bench(128, 76, 10, reps.div_ceil(4));
    let (advection_us, advection_bytes) = scalar_advection_bench(reps);
    let (pbl_us, pbl_bytes) = pbl_column_bench(reps * 50);
    let (micro_us, micro_bytes) = microphysics_column_bench(reps * 50);
    let (fnv_us, fnv_bytes) = fnv1a_bench(reps);
    let (sum_us, sum_bytes) = checksum_bench(reps);
    let (encode_us, encode_bytes) = volume_encode_bench(100_000, reps);
    let (decode_us, decode_bytes) = volume_decode_bench(100_000, reps);
    let (pipe_us, pipe_bytes) = pipe_transfer_bench(reps);
    let rows = [
        Row {
            name: "eigensolve_k16",
            mean_us: eigensolve_bench(16, 64, reps),
            flops: Some(eigensolve_flops(16)),
            bytes: None,
        },
        Row {
            name: "eigensolve_k64",
            mean_us: eigensolve_bench(64, 8, reps),
            flops: Some(eigensolve_flops(64)),
            bytes: None,
        },
        Row {
            name: "eigensolve_k128",
            mean_us: eigensolve_bench(128, 4, reps.div_ceil(4)),
            flops: Some(eigensolve_flops(128)),
            bytes: None,
        },
        Row {
            name: "tridiag_nz12_cols24",
            mean_us: tridiag_bench(12, 24, reps),
            flops: None,
            bytes: None,
        },
        Row {
            name: "gemm_k64",
            mean_us: gemm_bench(64, reps),
            flops: Some(gemm_flops(64)),
            bytes: None,
        },
        Row {
            name: "gemm_k128",
            mean_us: gemm_bench(128, reps),
            flops: Some(gemm_flops(128)),
            bytes: None,
        },
        Row {
            name: "dot8_k100",
            mean_us: dot8_bench(100, reps),
            flops: Some(200.0),
            bytes: None,
        },
        Row {
            name: "dot8_k128",
            mean_us: dot8_bench(128, reps),
            flops: Some(256.0),
            bytes: None,
        },
        Row {
            name: "axpy_k100",
            mean_us: axpy_bench(100, reps),
            flops: Some(200.0),
            bytes: None,
        },
        Row {
            name: "transform_k128_nobs76",
            mean_us: transform_us,
            flops: Some(transform_flops),
            bytes: None,
        },
        Row {
            name: "scalar_advection_24x24x12",
            mean_us: advection_us,
            flops: None,
            bytes: Some(advection_bytes),
        },
        Row {
            name: "pbl_column_nz12",
            mean_us: pbl_us,
            flops: None,
            bytes: Some(pbl_bytes),
        },
        Row {
            name: "microphysics_column_nz12_storm",
            mean_us: micro_us,
            flops: None,
            bytes: Some(micro_bytes),
        },
        Row {
            name: "model_step_24x24x12_t1",
            mean_us: model_step_bench(1, reps),
            flops: None,
            bytes: None,
        },
        Row {
            name: "model_step_24x24x12_tw",
            mean_us: model_step_bench(pool_width, reps),
            flops: None,
            bytes: None,
        },
        Row {
            name: "fnv1a_2mb",
            mean_us: fnv_us,
            flops: None,
            bytes: Some(fnv_bytes),
        },
        Row {
            name: "checksum_2mb",
            mean_us: sum_us,
            flops: None,
            bytes: Some(sum_bytes),
        },
        Row {
            name: "volume_encode_100k",
            mean_us: encode_us,
            flops: None,
            bytes: Some(encode_bytes),
        },
        Row {
            name: "volume_decode_100k",
            mean_us: decode_us,
            flops: None,
            bytes: Some(decode_bytes),
        },
        Row {
            name: "pipe_transfer_2mb",
            mean_us: pipe_us,
            flops: None,
            bytes: Some(pipe_bytes),
        },
    ];
    for r in &rows {
        eprintln!("  {:<22} {:10.4} us", r.name, r.mean_us);
    }

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let roofline = r.flops.map_or(String::new(), |f| {
                format!(
                    ", \"flops\": {:.0}, \"gflops_computed\": {:.4}",
                    f,
                    f / r.mean_us / 1e3
                )
            });
            let traffic = r.bytes.map_or(String::new(), |b| {
                format!(
                    ", \"bytes\": {:.0}, \"gbytes_per_s_computed\": {:.4}",
                    b,
                    b / r.mean_us / 1e3
                )
            });
            format!(
                "    {{ \"name\": \"{}\", \"mean_us\": {:.6}{}{} }}",
                r.name, r.mean_us, roofline, traffic
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"host_cores\": {},\n  \"reps\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        host_cores,
        reps,
        body.join(",\n")
    );
    std::fs::write(&out, &json).expect("writing kernels BENCH JSON");
    eprintln!("kernels: wrote {out}");
}
