//! A paused federated cycle holds the ensemble once.
//!
//! Between `run_cycle_publish` and `run_cycle_collect` a shard worker
//! keeps only a small handle to its cycle: its strip goes out of the
//! member fields, and its peers' strips come back into them. A global
//! allocator tracks the bytes live across all threads; what stays live
//! across `run_cycle_publish` (from before it runs until after it returns)
//! must stay well under one copy of the analysed ensemble (K members x 10
//! analysed variables x cells x 4 B), which a worker that holds
//! whole-domain copies of its members until collect exceeds on its own.
//!
//! One test per binary: a second test running on another thread would
//! charge its allocations to this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Tracking;

// Relaxed: statistics only, they publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size > layout.size() {
                LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

use bda_core::osse::OsseConfig;
use bda_shard::{FederationConfig, LocalFederation};

const K: usize = 16;
const NVAR: usize = 10;
const VAL: usize = std::mem::size_of::<f32>();
const WARM_CYCLES: u64 = 2;

#[test]
fn a_paused_cycle_holds_well_under_one_ensemble_copy() {
    let dir = std::env::temp_dir().join(format!("bda-paused-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FederationConfig::new(OsseConfig::reduced(10, 8, K, 2, 11), 2, 3, &dir);
    let mut fed = LocalFederation::<f32>::start(cfg).expect("federation start");
    let cells = fed.workers[0].osse.layout().n_elements() / NVAR;
    let ensemble_copy = K * NVAR * cells * VAL;

    // Warm-up: pool workers, their analysis workspaces, the bus's trackers
    // and the outcome logs reach their steady size.
    for cycle in 0..WARM_CYCLES {
        let pendings: Vec<_> = fed
            .workers
            .iter_mut()
            .map(|w| w.run_cycle_publish(cycle).expect("publish"))
            .collect();
        for (w, p) in fed.workers.iter_mut().zip(pendings) {
            w.run_cycle_collect(p, true);
        }
    }

    let w = &mut fed.workers[0];
    let before = LIVE.load(Ordering::Relaxed);
    let pending = w.run_cycle_publish(WARM_CYCLES).expect("publish");
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    drop(pending);

    let bound = ensemble_copy / 8;
    eprintln!(
        "a paused cycle holds {held} B; bound {bound} B; one ensemble copy {ensemble_copy} B"
    );
    assert!(
        held <= bound,
        "run_cycle_publish left {held} B live until collect, above the {bound} B bound \
         (one analysed-ensemble copy is {ensemble_copy} B)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
