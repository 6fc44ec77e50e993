//! Member-state codec: the `BDAF` frame and the member-values block inside it.
//!
//! The block — `precision u8 | k u64 | n u64 | k·n values, little-endian`,
//! unsealed — is the one serialisation of an ensemble of flat states:
//! [`encode_states`] seals it as the whole body of a `BDAF` frame, the
//! checkpoint and the shard halo frame embed it in theirs
//! ([`put_members`] / [`get_members`]). Layouts: DESIGN.md, "Sealed frames".

use crate::frame::{self, FrameError, Kind};
use bda_num::Real;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const VERSION: u16 = 1;
/// `precision | k | n` ahead of the values.
const BLOCK_HEADER_BYTES: usize = 1 + 8 + 8;
/// Zero-length members occupy no bytes, so the bytes present cannot bound
/// how many a header may declare; this does (the paper runs 1000 members).
const MAX_EMPTY_MEMBERS: usize = 1 << 16;

/// Precision tag carried in the block so readers can check compatibility —
/// the paper's single-precision conversion changes this from 8 to 4 and
/// halves every transfer.
fn precision_tag<T: Real>() -> u8 {
    std::mem::size_of::<T>() as u8
}

/// Encoding/decoding errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormatError {
    /// The envelope was rejected before the body was looked at.
    Frame(FrameError),
    PrecisionMismatch {
        file: u8,
        expected: u8,
    },
    /// The block declares more bytes than are present.
    Truncated,
    /// Encode-side: member `member` has `len` values where the first
    /// member established `expected`.
    RaggedEnsemble {
        member: usize,
        len: usize,
        expected: usize,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Frame(e) => write!(f, "state frame: {e}"),
            FormatError::PrecisionMismatch { file, expected } => {
                write!(
                    f,
                    "precision mismatch: file {file} bytes, expected {expected}"
                )
            }
            FormatError::Truncated => write!(f, "payload truncated"),
            FormatError::RaggedEnsemble {
                member,
                len,
                expected,
            } => write!(
                f,
                "ragged ensemble: member {member} has {len} values, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for FormatError {}

/// Bytes [`put_members`] appends for `members` (sized by the first member).
pub fn members_bytes<T: Real>(members: &[Vec<T>]) -> usize {
    let n = members.first().map_or(0, Vec::len);
    BLOCK_HEADER_BYTES + members.len() * n * std::mem::size_of::<T>()
}

/// Append the member-values block.
///
/// A ragged ensemble (members of unequal length) is a reportable
/// [`FormatError`], consistent with the decode path — a malformed input
/// must surface as an error the caller can degrade on, not a panic that
/// takes the writer thread down. Nothing is written in that case.
pub fn put_members<T: Real>(buf: &mut BytesMut, members: &[Vec<T>]) -> Result<(), FormatError> {
    let n = members.first().map_or(0, Vec::len);
    if let Some((member, m)) = members.iter().enumerate().find(|(_, m)| m.len() != n) {
        return Err(FormatError::RaggedEnsemble {
            member,
            len: m.len(),
            expected: n,
        });
    }
    let prec = precision_tag::<T>();
    buf.put_u8(prec);
    buf.put_u64(members.len() as u64);
    buf.put_u64(n as u64);
    for m in members {
        for &v in m {
            if prec == 4 {
                buf.put_f32_le(v.f64() as f32);
            } else {
                buf.put_f64_le(v.f64());
            }
        }
    }
    Ok(())
}

/// Read one member-values block off the front of `buf`.
///
/// `k` and `n` are attacker-declared: sizes are multiplied checked, and
/// nothing is reserved until the bytes they imply are known to be present.
pub fn get_members<T: Real>(buf: &mut &[u8]) -> Result<Vec<Vec<T>>, FormatError> {
    if buf.remaining() < BLOCK_HEADER_BYTES {
        return Err(FormatError::Truncated);
    }
    let prec = buf.get_u8();
    if prec != precision_tag::<T>() {
        return Err(FormatError::PrecisionMismatch {
            file: prec,
            expected: precision_tag::<T>(),
        });
    }
    let k = usize::try_from(buf.get_u64()).map_err(|_| FormatError::Truncated)?;
    let n = usize::try_from(buf.get_u64()).map_err(|_| FormatError::Truncated)?;
    let need = n
        .checked_mul(usize::from(prec))
        .and_then(|member_bytes| member_bytes.checked_mul(k))
        .ok_or(FormatError::Truncated)?;
    if buf.remaining() < need || (need == 0 && k > MAX_EMPTY_MEMBERS) {
        return Err(FormatError::Truncated);
    }
    // `k` and `n` are now bounded by the bytes present (or the cap above).
    let mut members = Vec::with_capacity(k);
    for _ in 0..k {
        let mut m = Vec::with_capacity(n);
        for _ in 0..n {
            m.push(T::of(if prec == 4 {
                f64::from(buf.get_f32_le())
            } else {
                buf.get_f64_le()
            }));
        }
        members.push(m);
    }
    Ok(members)
}

/// Encode an ensemble of flat member states as one sealed `BDAF` frame.
pub fn encode_states<T: Real>(members: &[Vec<T>]) -> Result<Bytes, FormatError> {
    let mut buf = frame::begin(Kind::States, VERSION, members_bytes(members));
    put_members(&mut buf, members)?;
    Ok(frame::seal(buf))
}

/// Decode a sealed `BDAF` frame.
pub fn decode_states<T: Real>(data: &[u8]) -> Result<Vec<Vec<T>>, FormatError> {
    let mut body = frame::open(Kind::States, VERSION, data).map_err(FormatError::Frame)?;
    get_members(&mut body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        let members = vec![vec![1.0_f64, -2.5, 3.25], vec![0.0, 1e-30, 1e30]];
        let bytes = encode_states(&members).unwrap();
        let back: Vec<Vec<f64>> = decode_states(&bytes).unwrap();
        assert_eq!(back, members);
    }

    #[test]
    fn roundtrip_f32() {
        let members = vec![vec![1.5_f32, -0.25], vec![7.0, 9.5]];
        let bytes = encode_states(&members).unwrap();
        let back: Vec<Vec<f32>> = decode_states(&bytes).unwrap();
        assert_eq!(back, members);
    }

    #[test]
    fn single_precision_files_are_half_the_size() {
        let m64 = vec![vec![0.0_f64; 1000]; 4];
        let m32 = vec![vec![0.0_f32; 1000]; 4];
        let b64 = encode_states(&m64).unwrap().len();
        let b32 = encode_states(&m32).unwrap().len();
        // Header + trailer are fixed; payload halves exactly.
        assert_eq!(b64 - b32, 4 * 1000 * 4);
    }

    #[test]
    fn precision_mismatch_detected() {
        let members = vec![vec![1.0_f64, 2.0]];
        let bytes = encode_states(&members).unwrap();
        let r: Result<Vec<Vec<f32>>, _> = decode_states(&bytes);
        assert_eq!(
            r.unwrap_err(),
            FormatError::PrecisionMismatch {
                file: 8,
                expected: 4
            }
        );
    }

    #[test]
    fn envelope_rejections_surface_as_frame() {
        let mut bytes = encode_states(&[vec![1.0_f64, 2.0, 3.0]]).unwrap().to_vec();
        bytes[10] ^= 0x55;
        assert_eq!(
            decode_states::<f64>(&bytes).unwrap_err(),
            FormatError::Frame(FrameError::ChecksumMismatch)
        );
    }

    /// A frame the parent commit produced, byte for byte: `BDAF` is a
    /// file and wire format, and the envelope refactor must not move it.
    #[test]
    fn golden_frame_is_byte_identical() {
        let golden = "42444146000104000000000000000200000000000000020000c03f000080be\
                      0000e040000018411b822cc50406188d";
        let bytes = encode_states(&[vec![1.5_f32, -0.25], vec![7.0, 9.5]]).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden);
    }

    /// Seal a hand-built block: the trailer is valid, so only the length
    /// arithmetic stands between a forged header and the allocator.
    fn sealed_block(prec: u8, k: u64, n: u64, values: &[u8]) -> Bytes {
        let mut buf = frame::begin(Kind::States, VERSION, BLOCK_HEADER_BYTES + values.len());
        buf.put_u8(prec);
        buf.put_u64(k);
        buf.put_u64(n);
        buf.put_slice(values);
        frame::seal(buf)
    }

    #[test]
    fn forged_but_sealed_lengths_are_truncated_not_a_panic_or_abort() {
        for (k, n) in [
            (1 << 61, 8),         // k·n·4 wraps to 0
            (u64::MAX, u64::MAX), // every product overflows
            (1 << 40, 1),         // no overflow, just absurd
            (3, 2),               // one value short
            (1 << 61, 0),         // zero-cost members without bound
        ] {
            let bytes = sealed_block(4, k, n, &[0u8; 20]);
            assert_eq!(
                decode_states::<f32>(&bytes).unwrap_err(),
                FormatError::Truncated,
                "k {k} n {n}"
            );
        }
        // The honest neighbours still decode.
        assert_eq!(
            decode_states::<f32>(&sealed_block(4, 5, 1, &[0u8; 20])).unwrap(),
            vec![vec![0.0_f32]; 5]
        );
        assert_eq!(
            decode_states::<f32>(&sealed_block(4, 3, 0, &[])).unwrap(),
            vec![Vec::<f32>::new(); 3]
        );
    }

    #[test]
    fn empty_ensemble_roundtrips() {
        let members: Vec<Vec<f64>> = vec![];
        let back: Vec<Vec<f64>> = decode_states(&encode_states(&members).unwrap()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn ragged_members_rejected_as_error() {
        let err = encode_states(&[vec![1.0_f64], vec![1.0, 2.0]]).unwrap_err();
        assert_eq!(
            err,
            FormatError::RaggedEnsemble {
                member: 1,
                len: 2,
                expected: 1
            }
        );
        assert!(err.to_string().contains("ragged"));
    }
}
