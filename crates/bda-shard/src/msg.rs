//! The halo wire format (`BDAX`).
//!
//! One frame per (cycle, shard): either the shard's analyzed strip for
//! every ensemble member, or a typed marker (skip / stall) standing in for
//! it so receivers learn *why* a strip is missing instead of inferring it
//! from silence. The frame is one [`bda_io::frame`] envelope — sealed once —
//! and a strip's values are the [`bda_io::format`] member block, so a
//! precision mismatch between an `f32` shard and an `f64` shard surfaces as
//! a typed error, not garbage floats. Byte layout: DESIGN.md, "Sealed
//! frames".

use bda_io::format::{get_members, members_bytes, put_members, FormatError};
use bda_io::frame::{self, FrameError, Kind};
use bda_num::{cast, Real};
use bytes::{Buf, BufMut, Bytes};

/// Version 1 nested a whole sealed `BDAF` frame where the member block is.
const VERSION: u16 = 2;
/// kind u8 | shard u32 | cycle u64 | i0 u32 | i1 u32 | points_analyzed u64
const FIXED_BYTES: usize = 1 + 4 + 8 + 4 + 4 + 8;

const KIND_STRIP: u8 = 0;
const KIND_SKIP: u8 = 1;
const KIND_STALL: u8 = 2;

/// A shard's analyzed strip for one cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct HaloMsg<T: Real> {
    pub shard: usize,
    pub cycle: u64,
    /// Owned x-range `[i0, i1)` the strips cover.
    pub i0: usize,
    pub i1: usize,
    /// Grid points this shard's own analysis updated — receivers fold this
    /// into their posterior-diagnostics decision.
    pub points_analyzed: usize,
    /// Per-member strip flats (every member, alive and respawned).
    pub strips: Vec<Vec<T>>,
}

/// Everything a (cycle, shard) slot on the bus can hold.
#[derive(Clone, Debug, PartialEq)]
pub enum HaloFrame<T: Real> {
    /// The analyzed strip arrived.
    Strip(HaloMsg<T>),
    /// The shard deliberately published nothing this cycle (its halo was
    /// dropped in transit, modeled at the sender) — receivers step to the
    /// halo-reuse rung.
    Skip { shard: usize, cycle: u64 },
    /// The shard declared itself over deadline — receivers treat it as
    /// lagging and step to the halo-reuse rung without waiting.
    Stall { shard: usize, cycle: u64 },
}

impl<T: Real> HaloFrame<T> {
    pub fn shard(&self) -> usize {
        match self {
            HaloFrame::Strip(m) => m.shard,
            HaloFrame::Skip { shard, .. } | HaloFrame::Stall { shard, .. } => *shard,
        }
    }

    pub fn cycle(&self) -> u64 {
        match self {
            HaloFrame::Strip(m) => m.cycle,
            HaloFrame::Skip { cycle, .. } | HaloFrame::Stall { cycle, .. } => *cycle,
        }
    }
}

/// Typed decode failures — a corrupt or alien halo must degrade the
/// receiving shard's cycle, never panic it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HaloError {
    /// The envelope was rejected (damage in transit, another format,
    /// another revision), or the body is shorter than its fixed fields.
    Frame(FrameError),
    BadKind(u8),
    /// The member block failed to encode or decode.
    Payload(FormatError),
    /// Strip shape disagrees with the declared `[i0, i1)` range.
    GeometryMismatch {
        declared: usize,
        got: usize,
    },
    /// The frame arrived from a fenced-off (pre-respawn) epoch of its
    /// sender — a zombie writer. Typed reject, never applied.
    StaleEpoch {
        got: u64,
        fenced: u64,
    },
}

impl std::fmt::Display for HaloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HaloError::Frame(e) => write!(f, "halo frame: {e}"),
            HaloError::BadKind(k) => write!(f, "unknown halo kind {k}"),
            HaloError::Payload(e) => write!(f, "halo payload: {e}"),
            HaloError::GeometryMismatch { declared, got } => {
                write!(f, "halo geometry mismatch: declared {declared}, got {got}")
            }
            HaloError::StaleEpoch { got, fenced } => {
                write!(f, "halo from fenced epoch {got} (current {fenced})")
            }
        }
    }
}

impl std::error::Error for HaloError {}

/// Encode a frame, checksum-sealed.
pub fn encode_halo<T: Real>(frame_msg: &HaloFrame<T>) -> Result<Bytes, HaloError> {
    let (kind, shard, cycle, strip) = match frame_msg {
        HaloFrame::Strip(m) => (KIND_STRIP, m.shard, m.cycle, Some(m)),
        HaloFrame::Skip { shard, cycle } => (KIND_SKIP, *shard, *cycle, None),
        HaloFrame::Stall { shard, cycle } => (KIND_STALL, *shard, *cycle, None),
    };
    let (i0, i1, points, payload_bytes) = strip.map_or((0, 0, 0, 0), |m| {
        (m.i0, m.i1, m.points_analyzed, members_bytes(&m.strips))
    });
    let mut buf = frame::begin(Kind::Halo, VERSION, FIXED_BYTES + payload_bytes);
    buf.put_u8(kind);
    buf.put_u32(cast::u32_of_index(shard));
    buf.put_u64(cycle);
    buf.put_u32(cast::u32_of_index(i0));
    buf.put_u32(cast::u32_of_index(i1));
    buf.put_u64(cast::u64_of(points));
    if let Some(m) = strip {
        put_members(&mut buf, &m.strips).map_err(HaloError::Payload)?;
    }
    Ok(frame::seal(buf))
}

/// Decode a sealed frame.
pub fn decode_halo<T: Real>(data: &[u8]) -> Result<HaloFrame<T>, HaloError> {
    let mut buf = frame::open(Kind::Halo, VERSION, data).map_err(HaloError::Frame)?;
    if buf.remaining() < FIXED_BYTES {
        return Err(HaloError::Frame(FrameError::TooShort));
    }
    let kind = buf.get_u8();
    let shard = cast::index_of_u32(buf.get_u32());
    let cycle = buf.get_u64();
    let i0 = cast::index_of_u32(buf.get_u32());
    let i1 = cast::index_of_u32(buf.get_u32());
    let points_analyzed = cast::index_of_u64(buf.get_u64());
    match kind {
        KIND_SKIP => Ok(HaloFrame::Skip { shard, cycle }),
        KIND_STALL => Ok(HaloFrame::Stall { shard, cycle }),
        KIND_STRIP => {
            let strips = get_members::<T>(&mut buf).map_err(HaloError::Payload)?;
            if i1 < i0 {
                return Err(HaloError::GeometryMismatch {
                    declared: 0,
                    got: i1,
                });
            }
            // Every member strip must be a whole number of (i1-i0) columns;
            // the receiver's ShardLayout does the exact-length check against
            // its own geometry on application.
            if let Some(first) = strips.first() {
                let width = i1 - i0;
                if width == 0 || first.len() % width != 0 {
                    return Err(HaloError::GeometryMismatch {
                        declared: width,
                        got: first.len(),
                    });
                }
            }
            Ok(HaloFrame::Strip(HaloMsg {
                shard,
                cycle,
                i0,
                i1,
                points_analyzed,
                strips,
            }))
        }
        other => Err(HaloError::BadKind(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> HaloMsg<f32> {
        HaloMsg {
            shard: 1,
            cycle: 42,
            i0: 5,
            i1: 7,
            points_analyzed: 12,
            strips: vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]],
        }
    }

    #[test]
    fn strip_round_trips() {
        let f = HaloFrame::Strip(msg());
        let bytes = encode_halo(&f).unwrap();
        assert_eq!(decode_halo::<f32>(&bytes).unwrap(), f);
    }

    #[test]
    fn markers_round_trip() {
        for f in [
            HaloFrame::<f32>::Skip { shard: 0, cycle: 3 },
            HaloFrame::<f32>::Stall { shard: 2, cycle: 9 },
        ] {
            let bytes = encode_halo(&f).unwrap();
            assert_eq!(decode_halo::<f32>(&bytes).unwrap(), f);
        }
    }

    #[test]
    fn envelope_rejections_surface_as_frame() {
        let mut bytes = encode_halo(&HaloFrame::Strip(msg())).unwrap().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        assert_eq!(
            decode_halo::<f32>(&bytes).unwrap_err(),
            HaloError::Frame(FrameError::ChecksumMismatch)
        );
    }

    #[test]
    fn a_sealed_body_shorter_than_its_fixed_fields_is_typed() {
        let mut buf = frame::begin(Kind::Halo, VERSION, 3);
        buf.put_slice(&[KIND_STRIP, 0, 0]);
        assert_eq!(
            decode_halo::<f32>(&frame::seal(buf)).unwrap_err(),
            HaloError::Frame(FrameError::TooShort)
        );
    }

    /// The network-facing forged-length case: a strip frame with a valid
    /// trailer whose member block declares `k·n·4` wrapping to zero.
    #[test]
    fn forged_but_sealed_strip_lengths_are_typed() {
        let mut buf = frame::begin(Kind::Halo, VERSION, 64);
        buf.put_u8(KIND_STRIP);
        buf.put_u32(1);
        buf.put_u64(42);
        buf.put_u32(5);
        buf.put_u32(7);
        buf.put_u64(12);
        buf.put_u8(4);
        buf.put_u64(1 << 61);
        buf.put_u64(8);
        buf.put_slice(&[0u8; 16]);
        assert_eq!(
            decode_halo::<f32>(&frame::seal(buf)).unwrap_err(),
            HaloError::Payload(FormatError::Truncated)
        );
    }

    #[test]
    fn precision_mismatch_is_typed() {
        let bytes = encode_halo(&HaloFrame::Strip(msg())).unwrap();
        assert!(matches!(
            decode_halo::<f64>(&bytes).unwrap_err(),
            HaloError::Payload(FormatError::PrecisionMismatch { .. })
        ));
    }
}
