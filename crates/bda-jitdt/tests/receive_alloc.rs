//! The pipe receives into memory it already holds.
//!
//! A global allocator counts every block of 1 MiB or more. The first 2-MiB
//! volume needs a fresh buffer; once the caller drops each volume it
//! receives, every later volume is assembled into that same buffer, so
//! eight more volumes allocate no large block at all.
//!
//! One test per binary: a second test running on another thread would
//! charge its allocations to this one.

use bda_jitdt::pipe::pipe;
use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

const LARGE: usize = 1 << 20;

struct Counting;

// Relaxed: a statistic only, it publishes no other data.
static LARGE_BLOCKS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE && new_size > layout.size() {
            LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn received_and_dropped_volumes_reuse_one_buffer() {
    let volume = Bytes::from(
        (0..2u32 << 20)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<u8>>(),
    );
    // 64-KiB chunks, 64 in flight: a 2-MiB volume fits in the pipe, so
    // one thread can send it and then receive it.
    let (tx, rx) = pipe(64 * 1024, 64);
    tx.send(volume.clone()).unwrap();
    assert_eq!(rx.recv().unwrap(), volume);

    let before = LARGE_BLOCKS.load(Ordering::Relaxed);
    for _ in 0..8 {
        tx.send(volume.clone()).unwrap();
        let got = rx.recv().unwrap();
        assert_eq!(got, volume);
    }
    let fresh = LARGE_BLOCKS.load(Ordering::Relaxed) - before;
    assert_eq!(
        fresh, 0,
        "{fresh} blocks of 1 MiB or more for 8 received volumes"
    );
}
