//! A forged tile header must not drive the allocator.
//!
//! `w` and `h` are two attacker-declared `u16`s, and a forger can seal the
//! frame properly, so the checksum is no defence: `rle_decode` used to
//! reserve `w * h` bytes (up to 4 GiB) before reading a single run. The
//! typed error alone cannot show that — an over-reservation that the kernel
//! happens to grant still ends in `CellCount` — so this test watches the
//! allocator itself. It is the only test in this binary on purpose: the
//! high-water mark is per thread and only counts while armed.

use bda_io::frame::{self, Kind};
use bda_serve::tile::{decode_tile, TileError};
use bytes::BufMut;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct LargestRequest;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialized thread-local `Cell`s, which neither
// allocate nor register destructors.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

#[test]
fn forged_but_sealed_tile_dimensions_reserve_what_the_runs_can_fill() {
    // Tile codec version 1: cycle | zoom | tx | ty | w | h | flags |
    // payload length | one (run, value) pair.
    let mut buf = frame::begin(Kind::Tile, 1, 24);
    buf.put_u64(1);
    buf.put_u8(0);
    buf.put_u16(0);
    buf.put_u16(0);
    buf.put_u16(u16::MAX);
    buf.put_u16(u16::MAX);
    buf.put_u8(0);
    buf.put_u32(2);
    buf.put_slice(&[9, 1]);
    let forged = frame::seal(buf);

    ARMED.set(true);
    let result = decode_tile(&forged);
    ARMED.set(false);

    assert_eq!(
        result.unwrap_err(),
        TileError::CellCount {
            expected: usize::from(u16::MAX) * usize::from(u16::MAX),
            got: 9
        }
    );
    assert!(
        LARGEST.get() <= 255,
        "decoder asked the allocator for {} bytes on a 2-byte payload",
        LARGEST.get()
    );
}
