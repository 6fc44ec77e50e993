//! The sealed-frame envelope, tested once for every kind.
//!
//! `BDAF`, `BDAC`, `BDAT`, `BDAX` (and `BDAN`'s trailer) all go through
//! [`bda_io::frame`], so what damage does to a frame is a property of the
//! envelope, not of any codec: every single-bit flip, every truncation,
//! another kind's magic, another version and arbitrary bytes must come back
//! as the right typed [`FrameError`] and never as a panic or as a body.
//! The codecs' own suites only assert that they surface `Frame(..)`.

use bda_io::frame::{
    begin, check_trailer, open, seal, FrameError, Kind, HEADER_BYTES, TRAILER_BYTES,
};
use bytes::BufMut;
use proptest::prelude::*;

const VERSION: u16 = 7;

fn sealed(kind: Kind, body: &[u8]) -> Vec<u8> {
    let mut buf = begin(kind, VERSION, body.len());
    buf.put_slice(body);
    seal(buf).to_vec()
}

#[test]
fn magics_are_distinct_and_spell_bda() {
    for (i, a) in Kind::ALL.iter().enumerate() {
        assert_eq!(a.magic()[..3], [b'B', b'D', b'A']);
        assert!(a.magic()[3].is_ascii_uppercase());
        for b in &Kind::ALL[i + 1..] {
            assert_ne!(a.magic(), b.magic(), "{a:?} and {b:?} share a magic");
        }
    }
}

#[test]
fn round_trip_including_the_empty_body() {
    for kind in Kind::ALL {
        for body in [&b""[..], b"x", b"nowcast tile"] {
            let frame = sealed(kind, body);
            assert_eq!(frame.len(), HEADER_BYTES + body.len() + TRAILER_BYTES);
            assert_eq!(open(kind, VERSION, &frame).unwrap(), body);
        }
    }
}

#[test]
fn every_single_bit_flip_is_the_right_error() {
    for kind in Kind::ALL {
        let frame = sealed(kind, &[0xA5; 24]);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut damaged = frame.clone();
                damaged[byte] ^= 1 << bit;
                let expect = match byte {
                    0..=3 => FrameError::BadMagic,
                    4 | 5 => {
                        FrameError::UnsupportedVersion(u16::from_be_bytes([damaged[4], damaged[5]]))
                    }
                    _ => FrameError::ChecksumMismatch,
                };
                assert_eq!(
                    open(kind, VERSION, &damaged),
                    Err(expect),
                    "{kind:?} byte {byte} bit {bit}"
                );
            }
        }
    }
}

#[test]
fn every_truncation_is_the_right_error() {
    for kind in Kind::ALL {
        let frame = sealed(kind, b"some payload bytes");
        for cut in 0..frame.len() {
            let expect = if cut < HEADER_BYTES + TRAILER_BYTES {
                FrameError::TooShort
            } else {
                FrameError::ChecksumMismatch
            };
            assert_eq!(
                open(kind, VERSION, &frame[..cut]),
                Err(expect),
                "{kind:?} cut {cut}"
            );
        }
    }
}

#[test]
fn another_kinds_frame_and_another_version_are_refused_by_name() {
    for kind in Kind::ALL {
        let frame = sealed(kind, b"body");
        for other in Kind::ALL.into_iter().filter(|o| *o != kind) {
            assert_eq!(open(other, VERSION, &frame), Err(FrameError::BadMagic));
        }
        // The header is judged before the trailer: a revision with a
        // different trailer (checkpoint v1 had CRC-32) is still named.
        let other_trailer = &frame[..frame.len() - 4];
        assert_eq!(
            open(kind, VERSION + 1, other_trailer),
            Err(FrameError::UnsupportedVersion(VERSION))
        );
    }
}

#[test]
fn trailer_alone_rejects_short_and_damaged_input() {
    assert_eq!(check_trailer(b"1234567"), Err(FrameError::TooShort));
    let mut frame = sealed(Kind::Net, b"stream body");
    let covered = frame[..frame.len() - TRAILER_BYTES].to_vec();
    assert_eq!(check_trailer(&frame).unwrap(), &covered[..]);
    frame[7] ^= 0x10;
    assert_eq!(check_trailer(&frame), Err(FrameError::ChecksumMismatch));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never open as any kind (an accidental match needs a
    /// 6-byte header and a 64-bit trailer to agree), and never panic.
    #[test]
    fn arbitrary_bytes_never_open(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        for kind in Kind::ALL {
            prop_assert!(open(kind, VERSION, &bytes).is_err());
        }
    }

    /// Arbitrary bytes behind a genuine header are a checksum mismatch.
    #[test]
    fn arbitrary_tail_behind_a_real_header_is_a_mismatch(
        tail in prop::collection::vec(0u8..=255, 8..96),
    ) {
        for kind in Kind::ALL {
            let mut bytes = begin(kind, VERSION, tail.len()).to_vec();
            bytes.extend_from_slice(&tail);
            prop_assert_eq!(open(kind, VERSION, &bytes), Err(FrameError::ChecksumMismatch));
        }
    }

    /// Any body survives a round trip, for every kind.
    #[test]
    fn any_body_round_trips(body in prop::collection::vec(0u8..=255, 0..200)) {
        for kind in Kind::ALL {
            let frame = sealed(kind, &body);
            prop_assert_eq!(open(kind, VERSION, &frame).unwrap(), &body[..]);
        }
    }
}
