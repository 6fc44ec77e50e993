//! Property-based invariants of the halo exchange.
//!
//! The halo bus sits on a fault boundary: frames get dropped, duplicated,
//! reordered, truncated and bit-flipped. Whatever arrives, the exchange
//! must produce a *typed* outcome — never a panic, never a silently
//! applied stale or damaged strip — and a full federation cycle must land
//! on one of the ladder's named outcomes no matter which shard faults are
//! scheduled where.

use bda_core::osse::OsseConfig;
use bda_io::checkpoint::OutcomeRecord;
use bda_shard::{
    decode_halo, encode_halo, encode_msg, CollectStatus, FederationConfig, HaloBus, HaloError,
    HaloFrame, HaloMsg, LocalFederation, NetFrameReader, NetMsg, WireEvent,
};
use bda_workflow::{Fault, FaultPlan};
use proptest::prelude::*;

fn strip_frame(cycle: u64, shard: usize, members: usize, len: usize, fill: f32) -> HaloFrame<f32> {
    HaloFrame::Strip(HaloMsg {
        shard,
        cycle,
        i0: 0,
        i1: 2,
        points_analyzed: len,
        strips: vec![vec![fill; len]; members],
    })
}

/// Every label a shard worker can legally emit — the typed outcome set of
/// the degradation ladder.
const LADDER_LABELS: [&str; 6] = [
    "completed",
    "degraded",
    "halo-reuse",
    "boundary-widened",
    "forecast-only",
    "below-quorum",
];

fn assert_ladder_labels(records: &[OutcomeRecord]) {
    for r in records {
        assert!(
            LADDER_LABELS.contains(&r.label.as_str()),
            "untyped outcome label {:?}",
            r.label
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Damage to a sealed halo frame — any byte mask, any cut — surfaces
    /// as the envelope's typed rejection (`bda-io/tests/envelope.rs` proves
    /// the envelope catches all of it; this only proves the codec asks).
    #[test]
    fn damaged_frames_surface_the_envelope_error(
        pos_seed in any::<u64>(),
        mask in 1u8..=255,
        cycle in 0u64..1000,
        members in 1usize..4,
        len in 1usize..32,
    ) {
        let frame = strip_frame(cycle, 1, members, len, 3.5);
        let mut bytes = encode_halo(&frame).expect("encode").to_vec();
        let pos = (pos_seed as usize) % bytes.len();
        prop_assert!(matches!(decode_halo::<f32>(&bytes[..pos]), Err(HaloError::Frame(_))));
        bytes[pos] ^= mask;
        prop_assert!(matches!(decode_halo::<f32>(&bytes), Err(HaloError::Frame(_))));
    }

    /// Arbitrary garbage decodes to a typed error.
    #[test]
    fn decoder_survives_arbitrary_bytes(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        prop_assert!(decode_halo::<f32>(&bytes).is_err());
    }

    /// Any delivery schedule over a bus slot — publish, duplicate
    /// republish, stale republish of an older cycle, skip/stall markers,
    /// or nothing at all — collects as a typed [`CollectStatus`]; a
    /// republish after a marker (the resume/replay path) is last-writer-
    /// wins and still well-typed.
    #[test]
    fn bus_slot_is_typed_under_drop_dup_reorder(
        actions in prop::collection::vec(0u8..5, 1..12),
        cycle in 0u64..50,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "bda-shard-prop-bus-{}-{cycle}-{}",
            std::process::id(),
            actions.iter().fold(0u64, |h, &a| h.wrapping_mul(31).wrapping_add(a as u64)),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let bus = HaloBus::new(&dir).expect("bus");
        for &a in &actions {
            match a {
                0 => bus.publish(&strip_frame(cycle, 0, 2, 4, 1.0)).expect("publish"),
                1 => bus.publish(&strip_frame(cycle, 0, 2, 4, 1.0)).expect("dup"),
                // A stale frame from an *older* cycle landing in transit —
                // it occupies its own slot, never this cycle's.
                2 => bus.publish(&strip_frame(cycle.saturating_sub(1), 0, 2, 4, 9.0)).expect("stale"),
                3 => bus.publish(&HaloFrame::<f32>::Skip { shard: 0, cycle }).expect("skip"),
                _ => bus.publish(&HaloFrame::<f32>::Stall { shard: 0, cycle }).expect("stall"),
            }
        }
        let status = bus.try_collect::<f32>(cycle, 0);
        match status {
            CollectStatus::Ready(m) => {
                // Only this cycle's own strip may surface here.
                prop_assert_eq!(m.cycle, cycle);
                prop_assert_eq!(m.shard, 0);
            }
            CollectStatus::Skipped | CollectStatus::Stalled => {}
            CollectStatus::Missing { .. } => {
                // Legal only if nothing was ever published for this slot.
                prop_assert!(actions.iter().all(|&a| a == 2));
            }
            CollectStatus::Corrupt(_) => prop_assert!(false, "atomic writes never tear"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An arbitrary small transport message for stream proptests.
fn net_msg(kind: u8, sender: usize, epoch: u64, cycle: u64) -> NetMsg {
    match kind % 4 {
        0 => NetMsg::Hello { sender, epoch },
        1 => NetMsg::Halo {
            sender,
            epoch,
            cycle,
            frame: encode_halo(&strip_frame(cycle, sender, 1, 4, 0.5)).expect("halo"),
        },
        2 => NetMsg::Req {
            sender,
            epoch,
            cycle,
        },
        _ => NetMsg::Heartbeat {
            sender,
            epoch,
            cycle,
        },
    }
}

/// Feed `stream` through a [`NetFrameReader`] in arbitrary chunk sizes
/// and return every parsed message (EOF drained).
fn parse_stream(stream: &[u8], chunk_seed: u64) -> Vec<NetMsg> {
    let mut reader = NetFrameReader::new();
    let mut got = Vec::new();
    let mut off = 0usize;
    let mut seed = chunk_seed;
    while off < stream.len() {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let chunk = 1 + (seed as usize) % 97;
        let end = (off + chunk).min(stream.len());
        reader.push(&stream[off..end]);
        while let Some(ev) = reader.next_event() {
            if let WireEvent::Msg { msg, .. } = ev {
                got.push(msg);
            }
        }
        off = end;
    }
    reader.finish();
    while let Some(ev) = reader.next_event() {
        if let WireEvent::Msg { msg, .. } = ev {
            got.push(msg);
        }
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Garbage spliced between messages, delivered in arbitrary chunks:
    /// the reader never panics, never invents a message, and recovers
    /// the real ones in order (a garbage run that fakes a stream magic
    /// may swallow a later message into a typed corrupt window, so the
    /// recovered list is an ordered subsequence — and when the garbage
    /// cannot fake a magic, recovery is exact; see the next property).
    #[test]
    fn garbage_splices_always_resync_to_a_typed_outcome(
        msgs in prop::collection::vec((0u8..4, 0usize..4, 1u64..50, 0u64..50), 1..6),
        junk in prop::collection::vec(prop::collection::vec(0u8..=255, 0..64), 1..7),
        chunk_seed in any::<u64>(),
    ) {
        let originals: Vec<NetMsg> =
            msgs.iter().map(|&(k, s, e, c)| net_msg(k, s, e, c)).collect();
        let mut stream = Vec::new();
        for (i, m) in originals.iter().enumerate() {
            stream.extend_from_slice(&junk[i % junk.len()]);
            stream.extend_from_slice(&encode_msg(m));
        }
        stream.extend_from_slice(&junk[originals.len() % junk.len()]);
        let got = parse_stream(&stream, chunk_seed);
        // Ordered subsequence: every recovered message matches the next
        // unconsumed original — nothing invented, nothing reordered.
        let mut it = originals.iter();
        for g in &got {
            prop_assert!(
                it.any(|o| o == g),
                "parser invented or reordered a message: {g:?}"
            );
        }
    }

    /// Garbage that cannot contain the stream magic (no `B` bytes) costs
    /// nothing: every spliced message is recovered exactly, in order.
    #[test]
    fn magicless_garbage_costs_no_messages(
        msgs in prop::collection::vec((0u8..4, 0usize..4, 1u64..50, 0u64..50), 1..6),
        junk in prop::collection::vec(prop::collection::vec(0u8..=255, 0..64), 1..7),
        chunk_seed in any::<u64>(),
    ) {
        let originals: Vec<NetMsg> =
            msgs.iter().map(|&(k, s, e, c)| net_msg(k, s, e, c)).collect();
        let mut stream = Vec::new();
        for (i, m) in originals.iter().enumerate() {
            let cleaned: Vec<u8> = junk[i % junk.len()]
                .iter()
                .map(|&b| if b == b'B' { b'C' } else { b })
                .collect();
            stream.extend_from_slice(&cleaned);
            stream.extend_from_slice(&encode_msg(m));
        }
        let got = parse_stream(&stream, chunk_seed);
        prop_assert_eq!(got, originals);
    }

    /// A single byte flip anywhere in a wire message is always caught —
    /// magic, length, or sealed body — and never surfaces as a parsed
    /// message, so a damaged halo can never reach the apply path.
    #[test]
    fn corrupted_wire_frames_never_parse(
        kind in 0u8..4,
        sender in 0usize..4,
        epoch in 1u64..50,
        cycle in 0u64..50,
        pos_seed in any::<u64>(),
        mask in 1u8..=255,
        chunk_seed in any::<u64>(),
    ) {
        let mut bytes = encode_msg(&net_msg(kind, sender, epoch, cycle)).to_vec();
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= mask;
        let got = parse_stream(&bytes, chunk_seed);
        prop_assert!(got.is_empty(), "damaged message parsed anyway: {got:?}");
    }

    /// Truncation at any point yields typed events only — the incomplete
    /// window drains at EOF without a panic and without a message.
    #[test]
    fn truncated_wire_frames_never_parse(
        kind in 0u8..4,
        sender in 0usize..4,
        epoch in 1u64..50,
        cycle in 0u64..50,
        cut_seed in any::<u64>(),
        chunk_seed in any::<u64>(),
    ) {
        let bytes = encode_msg(&net_msg(kind, sender, epoch, cycle));
        let cut = (cut_seed as usize) % bytes.len();
        let got = parse_stream(&bytes[..cut], chunk_seed);
        prop_assert!(got.is_empty(), "truncated message parsed anyway: {got:?}");
    }
}

proptest! {
    // Full federations per case are expensive; a handful of cases over a
    // tiny domain still sweeps kills, stalls and drops across every
    // (shard, cycle) slot.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any schedule of shard faults — kills, stalls, halo drops, stacked
    /// arbitrarily across shards and cycles — runs to completion without
    /// a panic, and every cycle of every shard lands on a typed ladder
    /// outcome.
    #[test]
    fn federation_lands_on_typed_outcomes_under_arbitrary_shard_faults(
        faults in prop::collection::vec((0u8..3, 0usize..2, 0usize..3), 0..5),
        seed in 1u64..100,
    ) {
        let n_shards = 2;
        let n_cycles = 3;
        let mut plan = FaultPlan::none();
        for &(kind, shard, cycle) in &faults {
            let fault = match kind {
                // Kills at cycle 0 exercise the no-checkpoint-yet respawn.
                0 => Fault::ShardKill,
                1 => Fault::ShardStall,
                _ => Fault::HaloDrop,
            };
            plan = plan.with(cycle, fault, &[shard]);
        }
        let dir = std::env::temp_dir().join(format!(
            "bda-shard-prop-fed-{}-{seed}-{}",
            std::process::id(),
            faults.iter().fold(0u64, |h, &(k, s, c)| {
                h.wrapping_mul(131).wrapping_add((k as u64) << 16 | (s as u64) << 8 | c as u64)
            }),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = FederationConfig::new(
            OsseConfig::reduced(6, 4, 3, 1, seed),
            n_shards,
            n_cycles,
            dir.clone(),
        );
        cfg.plan = plan;
        let mut fed = LocalFederation::<f32>::start(cfg).expect("start");
        fed.run().expect("faulted federation still completes");
        for w in &fed.workers {
            prop_assert_eq!(w.records.len(), n_cycles);
            assert_ladder_labels(&w.records);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
