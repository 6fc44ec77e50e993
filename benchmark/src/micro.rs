//! Micro-phases of a traced run: kernels and transports timed on their own,
//! at the sizes the workload used, after the timed cycles.

use crate::stats::median;
use bda::io::checkpoint::{read_checkpoint, write_checkpoint_scoped, CampaignSnapshot};
use bda::num::{BatchedEigen, MatrixS, SplitMix64};
use bda::shard::{CollectStatus, HaloFrame, HaloMsg, HaloTransport};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Seconds per call of `f`, median over `reps` calls.
fn time_calls(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// One `k`×`k` symmetric eigendecomposition (`BatchedEigen`) and one `k`×`k`
/// product (`MatrixS::matmul_into`) — the LETKF's two kernels at ensemble
/// size `k` — as `num.eigensolve_s`, `num.gemm_s` and
/// `num.gemm_gflops_computed`; the flop count is computed from the sizes
/// (2k³), not measured.
pub fn eigen_gemm(k: usize, seed: u64, micro: &mut BTreeMap<&'static str, f64>) {
    let mut rng = SplitMix64::new(seed ^ 0xE16E);
    let mut a = MatrixS::<f32>::zeros(k);
    for i in 0..k {
        for j in i..k {
            let v = (rng.next_uniform() * 2.0 - 1.0) as f32;
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
    }
    a.add_scaled_identity(k as f32);
    let reps = (2_000_000 / (k * k * k)).clamp(5, 200);
    let mut solver = BatchedEigen::<f32>::with_capacity(k);
    let eig_s = time_calls(reps, || {
        solver.decompose_in_place(black_box(&a));
        black_box(solver.values());
    });
    let mut out = MatrixS::<f32>::zeros(k);
    let gemm_s = time_calls(reps, || {
        black_box(&a).matmul_into(black_box(&a), &mut out);
        black_box(&out);
    });
    let flops = 2.0 * (k as f64).powi(3);
    micro.insert("num.eigensolve_s", eig_s);
    micro.insert("num.gemm_s", gemm_s);
    micro.insert("num.gemm_gflops_computed", flops / gemm_s / 1e9);
}

/// Publish-to-`Ready` seconds of one halo frame of `members` strips of
/// `strip_len` values from bus `a` (shard 0) to bus `b`, median over `reps`.
pub fn halo_rtt<B: HaloTransport>(
    a: &B,
    b: &B,
    strip_len: usize,
    members: usize,
    reps: u64,
) -> Result<f64, String> {
    let deadline = Duration::from_secs(5);
    let poll = Duration::from_micros(200);
    let mut samples = Vec::new();
    // Cycle 0 warms the path up (connection, directory pages).
    for cycle in 0..=reps {
        let frame = HaloFrame::Strip(HaloMsg {
            shard: 0,
            cycle,
            i0: 0,
            i1: 1,
            points_analyzed: strip_len,
            strips: (0..members)
                .map(|m| (0..strip_len).map(|i| (i + m) as f32 * 0.125).collect())
                .collect(),
        });
        let t0 = Instant::now();
        a.publish(&frame)?;
        let got = b.collect_blocking::<f32>(cycle, 0, deadline, poll);
        let elapsed = t0.elapsed().as_secs_f64();
        if !matches!(got, CollectStatus::Ready(_)) {
            return Err(format!("halo {cycle} not delivered: {got:?}"));
        }
        if cycle > 0 {
            samples.push(elapsed);
        }
    }
    median(&samples).ok_or_else(|| "no halo sample".to_string())
}

/// Write `snap` as a scoped checkpoint under `dir` and read it back:
/// `(write_s, read_s, bytes)`, medians over three rounds.
pub fn checkpoint_round_trip(
    dir: &Path,
    snap: &CampaignSnapshot<f32>,
) -> Result<(f64, f64, f64), String> {
    let (mut writes, mut reads, mut bytes) = (Vec::new(), Vec::new(), 0.0);
    for _ in 0..3 {
        let t0 = Instant::now();
        let path = write_checkpoint_scoped(dir, Some("bench"), snap)
            .map_err(|e| format!("checkpoint write: {e}"))?;
        writes.push(t0.elapsed().as_secs_f64());
        bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
        let t1 = Instant::now();
        let back = read_checkpoint::<f32>(&path).map_err(|e| format!("checkpoint read: {e}"))?;
        reads.push(t1.elapsed().as_secs_f64());
        if back.members != snap.members {
            return Err("checkpoint did not read back what was written".into());
        }
    }
    Ok((
        median(&writes).unwrap_or(0.0),
        median(&reads).unwrap_or(0.0),
        bytes,
    ))
}
