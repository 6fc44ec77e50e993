//! The LETKF analysis holds the ensemble once.
//!
//! A global allocator tracks the bytes live across all threads and their
//! high-water mark. The analysis runs on the benchmark's `many_member`
//! shape (128 members, 10 x 10 x 8 cells, 10 analysed variables), and the
//! high-water mark above what was live before the call must stay within
//! [`bound`]: one tile block and one `Workspace` per pool worker, the
//! per-group slice handles, and the `O(nobs * K)` innovation arrays. That
//! is well under one element-major copy of the ensemble, which a driver
//! that transposes the whole ensemble (or keeps a workspace per chunk
//! until the analysis ends) exceeds on its own.
//!
//! One test per binary: a second test running on another thread would
//! charge its allocations to this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Tracking;

// Relaxed: statistics only, they publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Bytes the allocation high-water mark rises above what is live before
/// `measured` runs.
fn peak_above_live(measured: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    measured();
    PEAK.load(Ordering::Relaxed) - before
}

use bda_bench::{grid_obs, layout_members};
use bda_letkf::{analyze_quorum_region, LetkfConfig, StateLayout};
use rayon::{ThreadPoolBuilder, MAX_CHUNKS};

const K: usize = 128;
const NVAR: usize = 10;
const VAL: usize = std::mem::size_of::<f32>();
/// A `&mut [f32]` handle.
const HANDLE: usize = std::mem::size_of::<&mut [f32]>();

/// The allowed rise of the high-water mark at pool width `threads`, for
/// `nobs` observations on `layout`:
///
/// * per worker, one tile block (`cols * nz` points of `NVAR * K` values,
///   `cols` at most `nx * ny / (2 * MAX_CHUNKS)` and at most what fits in
///   2^16 values, but at least one) and one `Workspace`: three K x K
///   matrices, and the local-observation rows and candidate list, each at
///   most twice `nobs` entries after `Vec` doubling;
/// * the per-group slice handles: at most `MAX_CHUNKS` groups, each holding
///   one handle per member and variable, plus the quorum's own slab lists;
/// * the innovations and observation-space perturbations, `nobs * (K + 1)`
///   values;
/// * 64 KiB for the observation index and the pool's per-chunk vectors.
fn bound(layout: &StateLayout, nobs: usize, threads: usize) -> usize {
    let fit = (1 << 16) / (layout.nz * NVAR * K);
    let cols = (layout.nx * layout.ny / (2 * MAX_CHUNKS))
        .min(fit)
        .clamp(1, layout.ny);
    let block = cols * layout.nz * NVAR * K * VAL;
    let workspace = 3 * K * K * VAL + 2 * nobs * (K + 2) * VAL + 2 * nobs * 16 + 8 * K * 8;
    let handles = MAX_CHUNKS * K * NVAR * HANDLE + K * (24 + NVAR * HANDLE);
    let innovations = nobs * (K + 1) * VAL;
    threads * (block + workspace) + handles + innovations + 64 * 1024
}

#[test]
fn analysis_peak_stays_within_one_block_and_workspace_per_worker() {
    let layout = StateLayout {
        nx: 10,
        ny: 10,
        nz: 8,
        nvar: NVAR,
        dx: 500.0,
        z_center: (0..8).map(|k| 500.0 + 500.0 * k as f64).collect(),
    };
    let members = layout_members(&layout, K, 0x3e3_0128);
    let obs = grid_obs(&layout, &members, 2);
    let cfg = LetkfConfig::reduced(K);
    let alive = vec![true; K];
    let ensemble_copy = layout.n_elements() * K * VAL;

    let widths = [1, 2, 4, rayon::current_num_threads()];
    for threads in widths {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool build is infallible");
        let run = |members: &mut Vec<Vec<f32>>| {
            pool.install(|| {
                analyze_quorum_region(members, &alive, layout.clone(), &obs, &cfg, 2, None)
                    .expect("analysis runs")
            })
        };
        // Warm-up: pool workers, their thread-locals and the dispatch
        // calibration are set up once per process, not per analysis.
        let mut scratch = members.clone();
        let stats = run(&mut scratch).stats;
        assert!(stats.points_analyzed > 0, "the analysis must do work");

        let mut analysed = members.clone();
        let rise = peak_above_live(|| {
            run(&mut analysed);
        });
        let limit = bound(&layout, obs.len(), threads);
        eprintln!(
            "{threads} thread(s): peak rose {rise} B; bound {limit} B; one ensemble copy \
             {ensemble_copy} B"
        );
        assert!(
            limit < ensemble_copy,
            "the bound itself must stay under one ensemble copy"
        );
        assert!(
            rise <= limit,
            "{threads} thread(s): the analysis raised the allocation high-water mark by \
             {rise} B, above the {limit} B of one tile block and one workspace per worker \
             (one ensemble copy is {ensemble_copy} B)"
        );
    }
}
