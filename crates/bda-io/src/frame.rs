//! The sealed-frame envelope: one header, one checksum, every `BDA?` format.
//!
//! ```text
//! magic "BDA" + kind letter (4) | version u16 | body | checksum u64 over all before it
//! ```
//!
//! The trailer is the workspace's integrity checksum
//! ([`bda_num::checksum`]: eight lanes over 64-byte blocks, about
//! 0.1 ns/B). It replaced an FNV-1a trailer, and every versioned kind
//! bumped its version with it, so a frame from an older revision comes
//! back from [`open`] as [`FrameError::UnsupportedVersion`] naming its
//! version, not as a checksum mismatch.
//!
//! Integers are big-endian. Each [`Kind`] owns one letter and one body
//! layout; DESIGN.md's "Sealed frames" table lists them with their writers
//! and readers. A codec writes its body into the buffer [`begin`] hands out
//! and [`seal`]s it; its decoder gets the body back from [`open`] or a typed
//! [`FrameError`], so no codec parses a magic, a version or a trailer of its
//! own. The shard socket stream (`BDAN`) keeps a `magic | length` header of
//! its own for resynchronization and uses the trailer half alone
//! ([`seal`] / [`check_trailer`]).

use bda_num::checksum;
use bytes::{BufMut, Bytes, BytesMut};

/// Bytes [`begin`] writes: magic + version.
pub const HEADER_BYTES: usize = 4 + 2;
/// Bytes [`seal`] appends: the big-endian checksum trailer.
pub const TRAILER_BYTES: usize = 8;

/// The sealed formats, by magic letter. Closed on purpose: a new format is
/// a new variant, a new entry in [`Kind::ALL`] and a new row in DESIGN.md's
/// table — not a registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// `BDAF`: an ensemble of member states ([`crate::format`]).
    States = b'F',
    /// `BDAC`: a campaign checkpoint ([`crate::checkpoint`]).
    Checkpoint = b'C',
    /// `BDAT`: an egress product tile (`bda-serve`).
    Tile = b'T',
    /// `BDAX`: a shard halo frame (`bda-shard::msg`).
    Halo = b'X',
    /// `BDAN`: a shard socket message (`bda-shard::wire`).
    Net = b'N',
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::States,
        Kind::Checkpoint,
        Kind::Tile,
        Kind::Halo,
        Kind::Net,
    ];

    /// The four bytes a frame of this kind opens with.
    pub const fn magic(self) -> [u8; 4] {
        let [b, d, a] = *b"BDA";
        [b, d, a, self as u8]
    }
}

/// What [`open`] rejects, in the order it checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the envelope (or, from a body parser, than the kind's
    /// fixed fields): cannot possibly be a frame.
    TooShort,
    /// Another kind's frame, or not a frame at all.
    BadMagic,
    /// The right kind at a revision this reader does not speak.
    UnsupportedVersion(u16),
    /// The trailer does not match the bytes before it: damaged or
    /// truncated in transit or on disk.
    ChecksumMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort => write!(f, "too short"),
            FrameError::BadMagic => write!(f, "bad magic"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            FrameError::ChecksumMismatch => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Start a frame: a buffer sized for `body_capacity` body bytes with the
/// envelope header already written.
pub fn begin(kind: Kind, version: u16, body_capacity: usize) -> BytesMut {
    let mut buf = BytesMut::with_capacity(HEADER_BYTES + body_capacity + TRAILER_BYTES);
    buf.put_slice(&kind.magic());
    buf.put_u16(version);
    buf
}

/// Append the checksum trailer over everything written so far and freeze.
pub fn seal(mut buf: BytesMut) -> Bytes {
    let sum = checksum(&buf);
    buf.put_u64(sum);
    buf.freeze()
}

/// Verify the trailer alone and return the bytes it covered.
pub fn check_trailer(data: &[u8]) -> Result<&[u8], FrameError> {
    let Some((covered, tail)) = data.split_last_chunk::<TRAILER_BYTES>() else {
        return Err(FrameError::TooShort);
    };
    if checksum(covered) != u64::from_be_bytes(*tail) {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok(covered)
}

/// Verify a whole envelope — magic, then version, then trailer — and return
/// the body. The header is read first so that a frame from another revision
/// (whose trailer may differ) is reported as what it is.
pub fn open(kind: Kind, version: u16, data: &[u8]) -> Result<&[u8], FrameError> {
    if data.len() < HEADER_BYTES + TRAILER_BYTES {
        return Err(FrameError::TooShort);
    }
    if data[..4] != kind.magic() {
        return Err(FrameError::BadMagic);
    }
    let got = u16::from_be_bytes([data[4], data[5]]);
    if got != version {
        return Err(FrameError::UnsupportedVersion(got));
    }
    Ok(&check_trailer(data)?[HEADER_BYTES..])
}
