//! Property-based invariants of the egress tile codec.
//!
//! The codec sits on a hostile boundary: whatever a client feeds back, and
//! whatever damage the wire does, [`decode_tile`] must return a typed
//! error — never panic, never accept silently corrupted cells.

use bda_serve::tile::{
    apply_delta, decode_tile, make_delta, rle_decode, rle_encode, stream_digest, QuantGrid,
    TileAssembler, TileConfig, TileError, Tiler,
};
use proptest::prelude::*;

/// Deterministic pseudo-random dBZ field (with NaN/∞ contamination) from a
/// seed — proptest shrinks the seed, the field stays reproducible.
fn field_from_seed(seed: u64, w: usize, h: usize) -> Vec<f64> {
    let mut rng = bda_num::rng::SplitMix64::new(seed);
    (0..w * h)
        .map(|_| match rng.next_index(32) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => rng.uniform_in(-40.0, 80.0),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RLE is a bijection on cell vectors (within the expected length).
    #[test]
    fn rle_roundtrips(cells in prop::collection::vec(0u8..=255, 1..700)) {
        let rle = rle_encode(&cells);
        prop_assert_eq!(rle.len() % 2, 0);
        let back = rle_decode(&rle, cells.len()).expect("own encoding decodes");
        prop_assert_eq!(back, cells);
    }

    /// Delta encode/apply is exact for any pair of same-length cell
    /// vectors, including wraparound values.
    #[test]
    fn delta_roundtrips(
        prev in prop::collection::vec(0u8..=255, 1..300),
        seed in any::<u64>(),
    ) {
        let mut rng = bda_num::rng::SplitMix64::new(seed);
        let cur: Vec<u8> = prev
            .iter()
            .map(|&p| p.wrapping_add(bda_num::cast::u8_of_index(rng.next_index(256))))
            .collect();
        let d = make_delta(&prev, &cur).expect("same length");
        let back = apply_delta(&prev, &d).expect("same length");
        prop_assert_eq!(back, cur);
    }

    /// Full-stack roundtrip over consecutive cycles: encode two arbitrary
    /// fields, replay the delta stream through an assembler, and require
    /// the reassembled tiles to be bit-exact against direct quantization
    /// of the second field.
    #[test]
    fn delta_stream_reassembles_bit_exact(
        w in 1usize..70,
        h in 1usize..70,
        seed in any::<u64>(),
        stale in any::<bool>(),
    ) {
        let cfg = TileConfig { tile: 16, max_zoom: 2 };
        let mut tiler = Tiler::new(cfg);
        let f0 = field_from_seed(seed, w, h);
        let f1 = field_from_seed(seed ^ 0x9E37_79B9, w, h);
        let c0 = tiler.encode_cycle(0, &f0, w, h, false).expect("cycle 0");
        let c1 = tiler.encode_cycle(1, &f1, w, h, stale).expect("cycle 1");

        let mut asm = TileAssembler::new();
        for frame in c0.deltas.iter().chain(c1.deltas.iter()) {
            let tile = decode_tile(frame).expect("own frames decode");
            prop_assert_eq!(tile.stale, tile.cycle == 1 && stale);
            asm.apply(&tile).expect("in-order stream has no orphans");
        }

        // Ground truth: quantize + coarsen f1 directly.
        let mut level = QuantGrid::quantize(&f1, w, h).expect("shape");
        for z in 0..3u8 {
            let tiles_x = level.w.div_ceil(16).max(1);
            let tiles_y = level.h.div_ceil(16).max(1);
            for ty in 0..tiles_y {
                for tx in 0..tiles_x {
                    let x0 = tx * 16;
                    let y0 = ty * 16;
                    let tw = 16.min(level.w - x0);
                    let mut expect = Vec::new();
                    for y in y0..y0 + 16.min(level.h - y0) {
                        expect.extend_from_slice(
                            &level.q[y * level.w + x0..y * level.w + x0 + tw],
                        );
                    }
                    let got = asm
                        .tile(z, tx as u16, ty as u16)
                        .expect("assembler holds every tile");
                    prop_assert_eq!(got, &expect[..]);
                }
            }
            let next = level.coarsen();
            if next.w == level.w && next.h == level.h {
                break;
            }
            level = next;
        }
    }

    /// Determinism witness: the same field sequence produces the same
    /// delta byte stream, whatever else happened to a different tiler.
    #[test]
    fn stream_digest_is_a_pure_function_of_inputs(
        w in 1usize..50,
        h in 1usize..50,
        seed in any::<u64>(),
    ) {
        let f0 = field_from_seed(seed, w, h);
        let f1 = field_from_seed(!seed, w, h);
        let run = || {
            let mut t = Tiler::new(TileConfig { tile: 16, max_zoom: 2 });
            let a = t.encode_cycle(0, &f0, w, h, false).expect("c0");
            let b = t.encode_cycle(1, &f1, w, h, false).expect("c1");
            (stream_digest(&a), stream_digest(&b))
        };
        prop_assert_eq!(run(), run());
    }

    /// Damage to a real frame — a cut or a bit flip anywhere — surfaces as
    /// the envelope's typed rejection (`bda-io/tests/envelope.rs` proves
    /// the envelope catches all of it; this only proves the codec asks).
    #[test]
    fn damaged_frames_surface_the_envelope_error(
        w in 1usize..40,
        h in 1usize..40,
        seed in any::<u64>(),
        pos in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        let field = field_from_seed(seed, w, h);
        let mut tiler = Tiler::new(TileConfig { tile: 16, max_zoom: 1 });
        let tiles = tiler.encode_cycle(0, &field, w, h, false).expect("encode");
        let mut frame = tiles.deltas[0].to_vec();
        let pos = usize::try_from(pos).unwrap_or(usize::MAX) % frame.len();
        prop_assert!(matches!(decode_tile(&frame[..pos]), Err(TileError::Frame(_))));
        frame[pos] ^= 1u8 << flip_bit;
        prop_assert!(matches!(decode_tile(&frame), Err(TileError::Frame(_))));
    }

    /// Hostile RLE payloads never panic and never over-allocate past the
    /// declared cell count.
    #[test]
    fn arbitrary_rle_never_panics(
        rle in prop::collection::vec(0u8..=255, 0..600),
        expected in 0usize..4096,
    ) {
        match rle_decode(&rle, expected) {
            Ok(cells) => prop_assert_eq!(cells.len(), expected),
            Err(
                TileError::ZeroRun
                | TileError::DanglingRun
                | TileError::CellCount { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected variant {other:?}"),
        }
    }
}
