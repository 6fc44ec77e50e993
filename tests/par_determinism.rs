//! Property-based proof of the thread pool's determinism contract
//! (DESIGN.md "Threading model"): for arbitrary inputs and any worker
//! count, parallel execution is indistinguishable from sequential
//! execution.
//!
//! * integer `fold + reduce` chains equal the plain sequential fold
//!   exactly (associative ops — thread and chunk structure invisible);
//! * floating-point `fold + reduce` chains are **bit-identical** across
//!   thread counts, because chunk boundaries are a pure function of input
//!   length and per-chunk partials combine in chunk order;
//! * `map`/`collect` preserves input order and matches the serial map;
//! * in-place `par_chunks_mut` mutation is slot-addressed, so the final
//!   buffer is bitwise the same at any thread count;
//! * the real LETKF analysis hot path inherits all of the above: same
//!   analysis ensemble, bit for bit, at 1 and at N threads;
//! * the egress tile pipeline (`bda-serve`) encodes its per-cycle delta
//!   frames on the same pool, so the broadcast byte stream — and its
//!   digest — is identical under `BDA_THREADS=1` and `BDA_THREADS=4`;
//! * the model splits one integration over x-rows and nests those rows
//!   inside the ensemble's member loop: same state, bit for bit, at any
//!   pool width, equal to digests pinned from the serial loop nest, and a
//!   failed integration fails the same way at every width.

use bda::letkf::{
    analyze, EnsembleMatrix, LetkfConfig, ObsEnsemble, ObsKind, Observation, StateLayout,
};
use bda::num::SplitMix64;
use bda::serve::tile::{stream_digest, synthetic_reflectivity, TileConfig, Tiler};
use proptest::prelude::*;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

fn pool(threads: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build is infallible")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Integer fold+reduce == plain sequential fold, any input, any
    /// thread count (wrapping arithmetic is associative).
    #[test]
    fn int_fold_reduce_equals_sequential_fold(
        seed in any::<u64>(),
        len in 0usize..500,
        threads in 1usize..10,
    ) {
        let mut rng = SplitMix64::new(seed);
        let data: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let expect = data
            .iter()
            .fold(0u64, |a, &x| a.wrapping_add(x.rotate_left(11) ^ 0x9e37)) ;
        let got = pool(threads).install(|| {
            data.par_iter()
                .fold(|| 0u64, |a, &x| a.wrapping_add(x.rotate_left(11) ^ 0x9e37))
                .reduce(|| 0u64, u64::wrapping_add)
        });
        prop_assert_eq!(got, expect);
    }

    /// Floating-point fold+reduce: bit-identical across thread counts.
    #[test]
    fn float_fold_reduce_parity_across_threads(
        seed in any::<u64>(),
        len in 0usize..400,
        threads in 2usize..10,
    ) {
        let mut rng = SplitMix64::new(seed);
        let data: Vec<f64> = (0..len).map(|_| rng.gaussian(0.0f64, 3.0)).collect();
        let run = |t: usize| {
            pool(t).install(|| {
                data.par_iter()
                    .fold(|| 0.0f64, |a, &x| a + x * x + x.sin())
                    .reduce(|| 0.0f64, |a, b| a + b)
                    .to_bits()
            })
        };
        prop_assert_eq!(run(threads), run(1));
    }

    /// map/collect preserves order and equals the serial map.
    #[test]
    fn map_collect_matches_serial(
        seed in any::<u64>(),
        len in 0usize..600,
        threads in 1usize..10,
    ) {
        let mut rng = SplitMix64::new(seed);
        let data: Vec<f32> = (0..len).map(|_| rng.gaussian(0.0f32, 5.0)).collect();
        let expect: Vec<f32> = data.iter().map(|&x| x.mul_add(1.5, -0.25).tanh()).collect();
        let got: Vec<f32> = pool(threads).install(|| {
            data.par_iter().map(|&x| x.mul_add(1.5, -0.25).tanh()).collect()
        });
        prop_assert_eq!(got, expect);
    }

    /// The egress tile stream is a pure function of the field sequence:
    /// for arbitrary grid shapes and fields, the concatenated delta
    /// frames (and their digest) are byte-identical whether the tiler
    /// encodes on 1 worker or 4.
    #[test]
    fn tile_stream_parity_across_threads(
        seed in any::<u64>(),
        w in 1usize..80,
        h in 1usize..80,
    ) {
        let mut rng = SplitMix64::new(seed);
        let fields: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..w * h).map(|_| rng.uniform_in(-30.0, 75.0)).collect())
            .collect();
        let run = |t: usize| {
            pool(t).install(|| {
                let mut tiler = Tiler::new(TileConfig { tile: 16, max_zoom: 2 });
                let mut bytes = Vec::new();
                let mut digests = Vec::new();
                for (cycle, field) in fields.iter().enumerate() {
                    let tiles = tiler
                        .encode_cycle(cycle as u64, field, w, h, false)
                        .expect("encode");
                    digests.push(stream_digest(&tiles));
                    for frame in &tiles.deltas {
                        bytes.extend_from_slice(frame);
                    }
                }
                (bytes, digests)
            })
        };
        let (bytes_1, digests_1) = run(1);
        let (bytes_4, digests_4) = run(4);
        prop_assert_eq!(digests_1, digests_4);
        prop_assert_eq!(bytes_1, bytes_4);
    }

    /// The pinned 1 / 2 / 8 thread triple of the determinism contract, on
    /// arbitrary input lengths: the float reduction and the mapped vector
    /// are bit-identical across all three pool widths.
    #[test]
    fn one_two_eight_thread_bitwise_parity(
        seed in any::<u64>(),
        len in 0usize..1500,
    ) {
        let mut rng = SplitMix64::new(seed);
        let data: Vec<f64> = (0..len).map(|_| rng.gaussian(0.0f64, 2.0)).collect();
        let run = |t: usize| {
            pool(t).install(|| {
                let total = data
                    .par_iter()
                    .fold(|| 0.0f64, |a, &x| a + x.mul_add(x, -x.cos()))
                    .reduce(|| 0.0f64, |a, b| a + b)
                    .to_bits();
                let mapped: Vec<u64> = data
                    .par_iter()
                    .map(|&x| (x * 1.0001 + 0.5).to_bits())
                    .collect();
                (total, mapped)
            })
        };
        let base = run(1);
        prop_assert_eq!(run(2), base.clone());
        prop_assert_eq!(run(8), base);
    }

    /// Inputs small enough to take the sequential fast path (work below
    /// the calibrated dispatch threshold — a few elements of trivial
    /// arithmetic is always under it) must still be bit-identical to the
    /// dispatched path at every thread count: the fast path is a latency
    /// optimization, never a different reduction shape.
    #[test]
    fn below_fast_path_threshold_inputs_stay_bit_identical(
        seed in any::<u64>(),
        len in 0usize..8,
        threads in 2usize..10,
    ) {
        let mut rng = SplitMix64::new(seed);
        let data: Vec<f32> = (0..len).map(|_| rng.gaussian(0.0f32, 1.0)).collect();
        let run = |t: usize| {
            pool(t).install(|| {
                data.par_iter()
                    .fold(|| 0.0f32, |a, &x| a + x * x)
                    .reduce(|| 0.0f32, |a, b| a + b)
                    .to_bits()
            })
        };
        prop_assert_eq!(run(threads), run(1));
    }

    /// In-place chunked mutation is slot-addressed: bitwise-identical
    /// buffers at any thread count.
    #[test]
    fn par_chunks_mut_parity_across_threads(
        seed in any::<u64>(),
        len in 1usize..800,
        chunk in 1usize..64,
        threads in 2usize..10,
    ) {
        let mut rng = SplitMix64::new(seed);
        let init: Vec<f64> = (0..len).map(|_| rng.gaussian(1.0f64, 0.5)).collect();
        let run = |t: usize| {
            let mut v = init.clone();
            pool(t).install(|| {
                v.par_chunks_mut(chunk).enumerate().for_each(|(c, block)| {
                    for (k, x) in block.iter_mut().enumerate() {
                        *x = x.abs().sqrt() + (c as f64) * 1e-3 + (k as f64) * 1e-6;
                    }
                });
            });
            v
        };
        let a = run(1);
        let b = run(threads);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// The production egress path: the exact broadcast byte stream served to
/// subscribers (synthetic reflectivity → quantize → pyramid → delta → RLE
/// → sealed frames) is byte-identical when encoded under a 1-worker pool
/// and a 4-worker pool — the `BDA_THREADS=1` vs `BDA_THREADS=4` contract,
/// pinned with explicit pools so the test is hermetic.
#[test]
fn serve_tile_stream_parity_one_vs_four_workers() {
    const W: usize = 96;
    const H: usize = 96;
    let run = |threads: usize| {
        pool(threads).install(|| {
            let mut tiler = Tiler::new(TileConfig::default());
            let mut digests = Vec::new();
            let mut stream = Vec::new();
            for cycle in 0..6u64 {
                let field = synthetic_reflectivity(cycle, W, H);
                let tiles = tiler
                    .encode_cycle(cycle, &field, W, H, cycle == 4)
                    .expect("encode");
                digests.push(stream_digest(&tiles));
                for frame in &tiles.deltas {
                    stream.extend_from_slice(frame);
                }
            }
            (digests, stream)
        })
    };
    let (digests_1, stream_1) = run(1);
    let (digests_4, stream_4) = run(4);
    assert_eq!(digests_1, digests_4, "per-cycle digests diverged");
    assert_eq!(
        stream_1, stream_4,
        "egress byte stream diverged between 1 and 4 workers"
    );
}

/// The production hot path: a full LETKF analysis over random ensembles is
/// bit-identical at 1 thread and at 8 threads.
#[test]
fn letkf_analysis_bitwise_parity_across_threads() {
    let layout = StateLayout {
        nx: 8,
        ny: 8,
        nz: 4,
        nvar: 2,
        dx: 500.0,
        z_center: vec![500.0, 1000.0, 1500.0, 2000.0],
    };
    for seed in [3u64, 71, 2024] {
        let k = 10;
        let mut rng = SplitMix64::new(seed);
        let members: Vec<Vec<f32>> = (0..k)
            .map(|_| {
                (0..layout.n_elements())
                    .map(|_| rng.gaussian(10.0f32, 4.0))
                    .collect()
            })
            .collect();
        // Reflectivity observations on a coarse sub-grid, forward-operator
        // rows sampled straight from the members.
        let mut obs = Vec::new();
        let mut hx: Vec<Vec<f32>> = vec![Vec::new(); k];
        for i in (0..layout.nx).step_by(2) {
            for j in (0..layout.ny).step_by(2) {
                let (x, y) = layout.xy(i, j);
                obs.push(Observation {
                    kind: ObsKind::Reflectivity,
                    x,
                    y,
                    z: layout.z_center[1],
                    value: rng.gaussian(15.0f32, 5.0),
                    error_sd: 5.0,
                });
                let src = layout.member_index(0, i, j, 1);
                for (m, member) in members.iter().enumerate() {
                    hx[m].push(member[src]);
                }
            }
        }
        let obs = ObsEnsemble::new(obs, hx);
        let cfg = LetkfConfig::reduced(k);

        let run = |threads: usize| {
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    let mut mat = EnsembleMatrix::from_members(&members, layout.clone());
                    let stats = analyze(&mut mat, &obs, &cfg).expect("analysis runs");
                    let mut out = members.clone();
                    mat.to_members(&mut out);
                    (stats, out)
                })
        };
        let (stats_1, state_1) = run(1);
        let (stats_8, state_8) = run(8);
        assert_eq!(stats_1, stats_8, "seed {seed}: analysis stats diverged");
        assert_eq!(state_1.len(), state_8.len());
        for (m, (a, b)) in state_1.iter().zip(&state_8).enumerate() {
            for (idx, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "seed {seed}: member {m} element {idx} diverged between 1 and 8 threads"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The model: one integration splits its stencil and column loops over
// x-rows, and the ensemble forecast nests those rows inside its member
// loop. Neither may change a bit.
// ---------------------------------------------------------------------------

use bda::grid::halo::HaloPolicy;
use bda::num::{fnv1a, Real};
use bda::scale::base::Sounding;
use bda::scale::constants::T0;
use bda::scale::forcing::{LargeScaleForcing, TriggerSchedule};
use bda::scale::model::{BlowUp, Boundary};
use bda::scale::{Ensemble, Model, ModelConfig, PrognosticVar};

/// FNV-1a of the 60-s storm state and precipitation, pinned from the
/// serial loop-nest model that the row regions replaced.
const STORM_60S_DIGEST: u64 = 0x76da_1981_0e11_041d;
/// FNV-1a of the Davies-rim run under `Boundary::Profiles`, same origin.
const RIM_60S_DIGEST: u64 = 0x224a_a9ee_880a_6c02;
/// The same 60-s storm in double precision, pinned from the column-at-a-
/// time kernels before the whole-row loops replaced them.
const STORM_F64_60S_DIGEST: u64 = 0xc668_219c_1192_af5d;
/// A 60-s storm on a 9×11×7 grid, whose row slabs are no multiple of any
/// SIMD lane width; same origin.
const ODD_60S_DIGEST: u64 = 0xa1aa_a947_4804_55c1;
/// The storm after 300 s, when rain has reached the ground and cloud sits
/// in the mixed-phase band; same origin.
const STORM_300S_DIGEST: u64 = 0x55aa_ef7a_cd37_c181;

/// The benchmark's storm configuration: periodic, no rim, three strong
/// warm bubbles in the first minute.
fn storm_of<T: Real>(nx: usize, ny: usize, nz: usize) -> Model<T> {
    let mut cfg = ModelConfig::reduced(nx, ny, nz);
    cfg.halo = HaloPolicy::Periodic;
    cfg.davies_width = 0;
    let (lx, ly) = (cfg.grid.lx(), cfg.grid.ly());
    let mut m = Model::<T>::new(cfg, &Sounding::convective());
    m.triggers = TriggerSchedule::storm_trio(lx, ly);
    m
}

/// The storm at 16×16×10 in single precision.
fn storm_model() -> Model<f32> {
    storm_of(16, 16, 10)
}

/// A rimmed domain driven by large-scale profiles: the Davies path.
fn rim_model() -> Model<f32> {
    let cfg = ModelConfig::reduced(16, 16, 10);
    let z = cfg.grid.vertical.z_center.clone();
    let mut m = Model::<f32>::new(cfg, &Sounding::convective());
    let g = m.cfg.grid.clone();
    m.state
        .add_warm_bubble(&g, g.lx() / 2.0, g.ly() / 2.0, 1200.0, 3000.0, 1500.0, 6.0);
    m.boundary = Boundary::Profiles(LargeScaleForcing::new(Sounding::convective(), z, 5));
    m
}

/// A model precision's bit pattern, for the digests.
trait Bits: Real {
    fn bits(self) -> u64;
    fn push_le(self, out: &mut Vec<u8>);
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        self.to_bits().into()
    }
    fn push_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn push_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

/// Every prognostic field and both precipitation arrays, bit for bit.
fn model_digest<T: Bits>(m: &Model<T>) -> u64 {
    let mut bytes = Vec::new();
    for v in m.state.to_flat(&PrognosticVar::ALL) {
        v.push_le(&mut bytes);
    }
    for &v in m.precip_rate.iter().chain(&m.precip_accum) {
        v.push_le(&mut bytes);
    }
    m.state.time.push_le(&mut bytes);
    fnv1a(&bytes)
}

fn integrate_on<T: Real>(threads: usize, mut m: Model<T>, seconds: f64) -> Model<T> {
    pool(threads).install(|| m.integrate(seconds).expect("storm stays finite"));
    m
}

/// Cells holding cloud water or ice whose temperature lies in the
/// mixed-phase band, where the liquid fraction of new condensate is
/// strictly between 0 and 1.
fn mixed_phase_cloud_cells<T: Real>(m: &Model<T>) -> usize {
    let (s, b) = (&m.state, &m.base);
    let g = &m.cfg.grid;
    let mut n = 0;
    for i in 0..g.nx as isize {
        for j in 0..g.ny as isize {
            for k in 0..g.nz() {
                let theta = (b.theta0[k] + s.theta.at(i, j, k)).f64();
                let pi = (b.pi0[k] + s.pi.at(i, j, k)).f64().max(1e-3);
                let t = theta * pi;
                let cloud = (s.qc.at(i, j, k) + s.qi.at(i, j, k)).f64();
                if t > T0 - 15.0 && t < T0 && cloud > 0.0 {
                    n += 1;
                }
            }
        }
    }
    n
}

fn assert_models_bit_equal<T: Bits>(a: &Model<T>, b: &Model<T>, what: &str) {
    for var in PrognosticVar::ALL {
        let (fa, fb) = (a.state.field(var).raw(), b.state.field(var).raw());
        assert!(
            fa.iter().zip(fb).all(|(&x, &y)| x.bits() == y.bits()),
            "{what}: field {} diverged",
            var.name()
        );
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&a.precip_rate),
        bits(&b.precip_rate),
        "{what}: precip_rate"
    );
    assert_eq!(
        bits(&a.precip_accum),
        bits(&b.precip_accum),
        "{what}: precip_accum"
    );
}

/// (a) One storm integration at pool widths 1, 2 and 8 ends on the same
/// bits in every prognostic field and both precipitation arrays.
#[test]
fn model_integration_is_bit_identical_across_pool_widths() {
    let one = integrate_on(1, storm_model(), 60.0);
    for threads in [2, 8] {
        let wide = integrate_on(threads, storm_model(), 60.0);
        assert_models_bit_equal(&one, &wide, &format!("{threads} threads"));
    }
}

/// (c) The same integration, and a rimmed one, match the digests pinned
/// from the serial loop-nest model.
#[test]
fn model_integration_matches_the_serial_golden_digest() {
    let storm = integrate_on(2, storm_model(), 60.0);
    let rim = integrate_on(2, rim_model(), 60.0);
    eprintln!(
        "storm digest {:#018x}, rim digest {:#018x}",
        model_digest(&storm),
        model_digest(&rim)
    );
    assert_eq!(model_digest(&storm), STORM_60S_DIGEST, "storm digest moved");
    assert_eq!(model_digest(&rim), RIM_60S_DIGEST, "rim digest moved");
}

/// The storm in double precision, and on a grid whose row slabs are no
/// multiple of a lane width, match digests pinned from the column-at-a-
/// time kernels: the whole-row loops change no bit on either path.
#[test]
fn f64_and_odd_shaped_storms_match_their_golden_digests() {
    let wide = integrate_on(2, storm_of::<f64>(16, 16, 10), 60.0);
    let odd = integrate_on(2, storm_of::<f32>(9, 11, 7), 60.0);
    eprintln!(
        "f64 storm digest {:#018x}, odd storm digest {:#018x}",
        model_digest(&wide),
        model_digest(&odd)
    );
    assert_eq!(
        model_digest(&wide),
        STORM_F64_60S_DIGEST,
        "f64 digest moved"
    );
    assert_eq!(model_digest(&odd), ODD_60S_DIGEST, "odd-shape digest moved");
    let odd_serial = integrate_on(1, storm_of::<f32>(9, 11, 7), 60.0);
    assert_models_bit_equal(&odd_serial, &odd, "odd shape, 1 vs 2 threads");
}

/// A storm run long enough for rain to reach the ground (sedimentation
/// fluxes through every level) and for cloud to sit in the mixed-phase
/// band (the blended saturation point), pinned like the 60-s runs.
#[test]
fn rain_and_mixed_phase_storm_matches_its_golden_digest() {
    let m = integrate_on(2, storm_model(), 300.0);
    let rain: f64 = m.precip_accum.iter().sum();
    let mixed = mixed_phase_cloud_cells(&m);
    eprintln!(
        "300-s storm digest {:#018x}, rain {rain:e} mm, {mixed} mixed-phase cloud cells",
        model_digest(&m)
    );
    assert!(rain > 0.0, "no rain reached the ground");
    assert!(mixed > 0, "no cloud in the mixed-phase band");
    assert_eq!(model_digest(&m), STORM_300S_DIGEST, "300-s digest moved");
}

/// (b) The nested path: members run in parallel and each member's rows run
/// serially on its worker; the ensemble is bit-equal at 1 and 4 threads.
#[test]
fn ensemble_forecast_is_bit_identical_across_pool_widths() {
    let m = integrate_on(1, storm_model(), 5.0);
    let run = |threads: usize| {
        pool(threads).install(|| {
            let mut ens = Ensemble::from_perturbations(&m.state, &m.cfg, 6, 17, 0.5, 3e-4);
            let results = ens.forecast_members(&m.cfg, &m.base, 20.0, |_| Boundary::BaseState);
            (results, ens.members)
        })
    };
    let (r1, m1) = run(1);
    let (r4, m4) = run(4);
    assert_eq!(r1, r4);
    for (k, (a, b)) in m1.iter().zip(&m4).enumerate() {
        let (fa, fb) = (
            a.to_flat(&PrognosticVar::ALL),
            b.to_flat(&PrognosticVar::ALL),
        );
        assert!(
            fa.iter().zip(&fb).all(|(x, y)| x.to_bits() == y.to_bits()),
            "member {k} diverged between 1 and 4 threads"
        );
    }
}

/// A state seeded the way `Ensemble::inject_blowup` seeds one fails the
/// same typed way at 1 and 2 threads, and the pool it failed on still
/// integrates the storm to the same bits afterwards.
#[test]
fn blown_up_integration_fails_alike_at_any_width_and_leaves_the_pool_usable() {
    let blow = |threads: usize| -> Result<Result<(), BlowUp>, ()> {
        let mut m = storm_model();
        m.state.u.set(0, 0, 0, f32::INFINITY);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool(threads).install(|| m.integrate(60.0))
        }))
        .map_err(|_| ())
    };
    let one = blow(1);
    let two = blow(2);
    assert_eq!(one, two, "failure differs between 1 and 2 threads");
    assert!(!matches!(one, Ok(Ok(()))), "an infinite wind must not pass");

    let after = integrate_on(2, storm_model(), 60.0);
    let reference = integrate_on(1, storm_model(), 60.0);
    assert_models_bit_equal(&reference, &after, "after a failed integration");
}
