//! Binary volume-file codec.
//!
//! The real MP-PAWR writes each 30-second volume as a file on a server at
//! Saitama University, which JIT-DT then ships to Fugaku. This codec defines
//! the equivalent self-describing binary format: a magic/version header, the
//! scan timestamp, fixed-width observation records, and a trailing
//! integrity checksum ([`bda_num::checksum`], big-endian) over everything
//! before it. [`seal`] writes that trailer; the encoder and the fuzz
//! mutator both call it.
//!
//! This is format version 2. Version 1 had the same header and records
//! under an FNV-1a trailer; it is refused with
//! [`DecodeError::UnsupportedVersion`]`(1)` before any checksum is taken.
//!
//! The decoder treats the wire as hostile. The checksum only catches
//! accidental corruption; a forged-but-checksummed volume must still be
//! unable to crash, abort, or smuggle unphysical values into the
//! assimilation, so every header field and every record field is validated
//! before it is used:
//!
//! * the record count is capped at [`MAX_RECORDS`], and the records walked
//!   (and allocated for) are bounded by the bytes present, so a forged count
//!   cannot drive `Vec::with_capacity` into an OOM abort;
//! * every float field must be finite and inside generous physical bounds
//!   ([`ValueBounds`]); a record that is not is dropped and counted by its
//!   [`RecordError`] kind;
//! * [`decode_volume_salvage`] recovers the good records from a torn or
//!   partially poisoned volume instead of discarding it whole, and its
//!   [`SalvageReport`] says what was dropped and whether the checksum held.
//!
//! Each side makes one pass of the checksum. The encoder writes straight
//! into one buffer of the final size, then checksums header and records in
//! one call. The decoder checks the header first, then the checksum, and
//! only then walks the records. The checksum is lane-parallel (about
//! 0.1 ns/B), so that one pass costs little next to parsing the records.

use crate::scan::ScanResult;
use bda_letkf::{obs, ObsKind, Observation};
use bda_num::{checksum, Real};
use bytes::Bytes;

const MAGIC: &[u8; 4] = b"PAWR";
const VERSION: u16 = 2;
/// Bytes per observation record: kind(1) + x,y,z,value,error (5 x f32).
pub const RECORD_BYTES: usize = 1 + 5 * 4;
/// Header bytes before the record section: magic + version + time + count.
pub const HEADER_BYTES: usize = 4 + 2 + 8 + 8;

/// Hard ceiling on the declared record count, independent of buffer size.
///
/// A full-resolution MP-PAWR volume regridded to 500 m over the 128 km
/// domain is a few million observations; 64 Mi records (~1.3 GiB decoded)
/// is over an order of magnitude of headroom while keeping a forged count
/// from requesting an absurd allocation.
pub const MAX_RECORDS: u64 = 1 << 26;

/// Generous physical validity bounds for decoded fields, per record.
///
/// These are ingest sanity limits, intentionally far wider than anything the
/// radar can produce (MP-PAWR reflectivity saturates well below 80 dBZ and
/// the Nyquist velocity is tens of m/s); anything outside them is garbage
/// bytes, not weather. The value and error-SD limits are the observation
/// QC's own ([`bda_letkf::obs::DBZ_MIN`] and its siblings), so the decoder
/// and QC stage 1 cannot drift apart; fine-grained screening happens later
/// in the observation QC pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ValueBounds {
    dbz_min: f64,
    dbz_max: f64,
    doppler_abs_max: f64,
    /// Horizontal coordinate magnitude ceiling, m.
    coord_abs_max: f64,
    z_min: f64,
    z_max: f64,
    error_sd_max: f64,
}

impl Default for ValueBounds {
    fn default() -> Self {
        Self {
            dbz_min: obs::DBZ_MIN,
            dbz_max: obs::DBZ_MAX,
            doppler_abs_max: obs::DOPPLER_ABS_MAX,
            coord_abs_max: 1.0e6,
            z_min: -1_000.0,
            z_max: 50_000.0,
            error_sd_max: obs::ERROR_SD_MAX,
        }
    }
}

/// Which decoded field a record-level rejection refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldId {
    X,
    Y,
    Z,
    Value,
    ErrorSd,
}

impl std::fmt::Display for FieldId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FieldId::X => "x",
            FieldId::Y => "y",
            FieldId::Z => "z",
            FieldId::Value => "value",
            FieldId::ErrorSd => "error_sd",
        };
        f.write_str(s)
    }
}

/// Typed per-record decode rejection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecordError {
    UnknownKind(u8),
    NonFinite(FieldId),
    OutOfRange {
        field: FieldId,
        value: f64,
    },
    /// `error_sd` must be strictly positive (it is squared and inverted in
    /// the filter).
    NonPositiveErrorSd(f64),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::UnknownKind(k) => write!(f, "unknown observation kind {k}"),
            RecordError::NonFinite(field) => write!(f, "non-finite {field}"),
            RecordError::OutOfRange { field, value } => {
                write!(f, "{field} out of physical range: {value}")
            }
            RecordError::NonPositiveErrorSd(v) => write!(f, "non-positive error_sd {v}"),
        }
    }
}

/// Decoding errors.
#[derive(Clone, Debug, PartialEq)]
pub enum DecodeError {
    TooShort,
    BadMagic,
    UnsupportedVersion(u16),
    /// Declared record count exceeds [`MAX_RECORDS`] or overflows the
    /// byte-length computation.
    CountOverflow {
        declared: u64,
    },
    /// Scan timestamp is not a finite number.
    BadTimestamp,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::TooShort => write!(f, "volume file too short"),
            DecodeError::BadMagic => write!(f, "bad magic bytes"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::CountOverflow { declared } => {
                write!(f, "declared record count {declared} exceeds limits")
            }
            DecodeError::BadTimestamp => write!(f, "non-finite scan timestamp"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decoded volume: timestamp and observations.
#[derive(Clone, Debug)]
pub struct DecodedVolume<T> {
    pub time: f64,
    pub obs: Vec<Observation<T>>,
}

/// What [`decode_volume_salvage`] recovered and what it had to drop.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SalvageReport {
    /// Records declared by the (possibly forged) header.
    pub declared: u64,
    /// Records actually parseable from the bytes present.
    pub parseable: usize,
    pub kept: usize,
    pub rejected_unknown_kind: usize,
    pub rejected_non_finite: usize,
    pub rejected_out_of_range: usize,
    pub rejected_bad_error_sd: usize,
    /// The trailing checksum did not match (records were still field-
    /// validated individually).
    pub checksum_mismatch: bool,
    /// The record section was shorter than the declared count.
    pub truncated: bool,
}

impl SalvageReport {
    pub fn rejected(&self) -> usize {
        self.rejected_unknown_kind
            + self.rejected_non_finite
            + self.rejected_out_of_range
            + self.rejected_bad_error_sd
    }

    /// True when every declared record was recovered intact.
    pub fn clean(&self) -> bool {
        !self.checksum_mismatch
            && !self.truncated
            && self.rejected() == 0
            && self.declared == self.kept as u64
    }
}

/// Write a volume's trailer: the checksum of everything before its last 8
/// bytes, big-endian, into those 8 bytes. A buffer shorter than the
/// trailer is left as it is.
///
/// The one definition of the seal. The encoder ends with it, and the fuzz
/// mutator re-seals its checksum-consistent mutants with it, so what they
/// write is always what the decoders verify.
pub fn seal(volume: &mut [u8]) {
    if let Some((body, tail)) = volume.split_last_chunk_mut::<8>() {
        *tail = checksum(body).to_be_bytes();
    }
}

/// Encode a scan into its on-wire volume file.
///
/// The header and the records are written straight into one buffer of the
/// final size, and [`seal`] appends the checksum over both.
pub fn encode_volume<T: Real>(scan: &ScanResult<T>) -> Bytes {
    let body = HEADER_BYTES + scan.obs.len() * RECORD_BYTES;
    let mut buf = vec![0u8; body + 8];
    let (header, rest) = buf.split_at_mut(HEADER_BYTES);
    header[..4].copy_from_slice(MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_be_bytes());
    header[6..14].copy_from_slice(&scan.time.to_be_bytes());
    header[14..].copy_from_slice(&(scan.obs.len() as u64).to_be_bytes());
    for (rec, o) in rest
        .as_chunks_mut::<RECORD_BYTES>()
        .0
        .iter_mut()
        .zip(&scan.obs)
    {
        rec[0] = match o.kind {
            ObsKind::Reflectivity => 0,
            ObsKind::DopplerVelocity => 1,
        };
        let fields = [o.x, o.y, o.z, o.value.f64(), o.error_sd.f64()];
        for (slot, v) in rec[1..].chunks_exact_mut(4).zip(fields) {
            slot.copy_from_slice(&(v as f32).to_be_bytes());
        }
    }
    seal(&mut buf);
    Bytes::from(buf)
}

/// The wire fields of one record: the kind byte, then x, y, z, value and
/// error SD widened from their big-endian f32s.
fn read_record(rec: &[u8; RECORD_BYTES]) -> (u8, [f64; 5]) {
    let field = |at: usize| {
        f64::from(f32::from_be_bytes([
            rec[at],
            rec[at + 1],
            rec[at + 2],
            rec[at + 3],
        ]))
    };
    (rec[0], [field(1), field(5), field(9), field(13), field(17)])
}

/// Validate one decoded record against the bounds; `Ok` gives the typed
/// observation.
fn validate_record<T: Real>(
    kind_byte: u8,
    x: f64,
    y: f64,
    z: f64,
    value: f64,
    error_sd: f64,
    bounds: &ValueBounds,
) -> Result<Observation<T>, RecordError> {
    let kind = match kind_byte {
        0 => ObsKind::Reflectivity,
        1 => ObsKind::DopplerVelocity,
        k => return Err(RecordError::UnknownKind(k)),
    };
    for (field, v) in [
        (FieldId::X, x),
        (FieldId::Y, y),
        (FieldId::Z, z),
        (FieldId::Value, value),
        (FieldId::ErrorSd, error_sd),
    ] {
        if !v.is_finite() {
            return Err(RecordError::NonFinite(field));
        }
    }
    if x.abs() > bounds.coord_abs_max {
        return Err(RecordError::OutOfRange {
            field: FieldId::X,
            value: x,
        });
    }
    if y.abs() > bounds.coord_abs_max {
        return Err(RecordError::OutOfRange {
            field: FieldId::Y,
            value: y,
        });
    }
    if z < bounds.z_min || z > bounds.z_max {
        return Err(RecordError::OutOfRange {
            field: FieldId::Z,
            value: z,
        });
    }
    let in_range = match kind {
        ObsKind::Reflectivity => (bounds.dbz_min..=bounds.dbz_max).contains(&value),
        ObsKind::DopplerVelocity => value.abs() <= bounds.doppler_abs_max,
    };
    if !in_range {
        return Err(RecordError::OutOfRange {
            field: FieldId::Value,
            value,
        });
    }
    if error_sd <= 0.0 {
        return Err(RecordError::NonPositiveErrorSd(error_sd));
    }
    if error_sd > bounds.error_sd_max {
        return Err(RecordError::OutOfRange {
            field: FieldId::ErrorSd,
            value: error_sd,
        });
    }
    Ok(Observation {
        kind,
        x,
        y,
        z,
        value: T::of(value),
        error_sd: T::of(error_sd),
    })
}

/// Parsed-and-verified header portion of a volume.
struct Header<'a> {
    time: f64,
    declared: u64,
    /// Record section bytes (everything between the header and trailer).
    records: &'a [u8],
    /// The trailing checksum matches header and records.
    checksum_ok: bool,
}

/// Split the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (field, rest) = buf.split_first_chunk::<N>().ok_or(DecodeError::TooShort)?;
    *buf = rest;
    Ok(*field)
}

/// Parse the fixed header and bound the record count, then verify the
/// trailer in one checksum pass over header and records: header errors
/// come first, and the caller decides what a mismatch means before it
/// walks a record. Never allocates proportionally to any attacker-declared
/// length.
fn parse_header(data: &[u8]) -> Result<Header<'_>, DecodeError> {
    if data.len() < HEADER_BYTES + 8 {
        return Err(DecodeError::TooShort);
    }
    let (payload, tail) = data.split_last_chunk::<8>().ok_or(DecodeError::TooShort)?;
    let mut records = payload;
    if &take::<4>(&mut records)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = u16::from_be_bytes(take(&mut records)?);
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let time = f64::from_be_bytes(take(&mut records)?);
    if !time.is_finite() {
        return Err(DecodeError::BadTimestamp);
    }
    let declared = u64::from_be_bytes(take(&mut records)?);
    if declared > MAX_RECORDS {
        return Err(DecodeError::CountOverflow { declared });
    }
    Ok(Header {
        time,
        declared,
        records,
        checksum_ok: checksum(payload) == u64::from_be_bytes(*tail),
    })
}

/// Decode a volume, keeping every record that parses and validates.
///
/// Salvage proceeds through checksum mismatches and record-section
/// truncation (both are recorded in the report) so that a torn transfer
/// still yields its intact prefix; it only gives up when the fixed header
/// itself is unusable (too short, bad magic, wrong version, non-finite
/// timestamp, or an absurd record count).
pub fn decode_volume_salvage<T: Real>(
    data: &[u8],
    bounds: &ValueBounds,
) -> Result<(DecodedVolume<T>, SalvageReport), DecodeError> {
    let h = parse_header(data)?;
    let parseable = (h.declared as usize).min(h.records.len() / RECORD_BYTES);
    let records = &h.records[..parseable * RECORD_BYTES];
    let mut report = SalvageReport {
        declared: h.declared,
        parseable,
        truncated: (parseable as u64) < h.declared,
        checksum_mismatch: !h.checksum_ok,
        ..SalvageReport::default()
    };
    let mut obs = Vec::with_capacity(parseable);
    for rec in records.as_chunks::<RECORD_BYTES>().0 {
        let (kind, [x, y, z, value, error_sd]) = read_record(rec);
        match validate_record(kind, x, y, z, value, error_sd, bounds) {
            Ok(o) => {
                obs.push(o);
                report.kept += 1;
            }
            Err(RecordError::UnknownKind(_)) => report.rejected_unknown_kind += 1,
            Err(RecordError::NonFinite(_)) => report.rejected_non_finite += 1,
            Err(RecordError::OutOfRange { .. }) => report.rejected_out_of_range += 1,
            Err(RecordError::NonPositiveErrorSd(_)) => report.rejected_bad_error_sd += 1,
        }
    }
    Ok((DecodedVolume { time: h.time, obs }, report))
}

/// The byte-at-a-time codec this module's single-pass one replaced, kept
/// as the oracle the equivalence sweep compares against: same bytes out of
/// the encoder, same `Result` out of the decoder. Its record logic is its
/// own; its version and its seal are production's [`VERSION`] and
/// [`seal`], so the sweep pins the record layout and the error precedence
/// of the current format.
#[cfg(test)]
mod reference {
    use super::*;
    use bytes::{Buf, BufMut};

    pub fn encode_volume<T: Real>(scan: &ScanResult<T>) -> Bytes {
        let mut buf = Vec::with_capacity(HEADER_BYTES + scan.obs.len() * RECORD_BYTES + 8);
        buf.put_slice(MAGIC);
        buf.put_u16(VERSION);
        buf.put_f64(scan.time);
        buf.put_u64(scan.obs.len() as u64);
        for o in &scan.obs {
            buf.put_u8(match o.kind {
                ObsKind::Reflectivity => 0,
                ObsKind::DopplerVelocity => 1,
            });
            buf.put_f32(o.x as f32);
            buf.put_f32(o.y as f32);
            buf.put_f32(o.z as f32);
            buf.put_f32(o.value.f64() as f32);
            buf.put_f32(o.error_sd.f64() as f32);
        }
        buf.put_u64(0);
        seal(&mut buf);
        Bytes::from(buf)
    }

    struct Header<'a> {
        time: f64,
        declared: u64,
        records: &'a [u8],
        checksum_ok: bool,
    }

    fn parse_header(data: &[u8]) -> Result<Header<'_>, DecodeError> {
        if data.len() < HEADER_BYTES + 8 {
            return Err(DecodeError::TooShort);
        }
        let (payload, tail) = data.split_at(data.len() - 8);
        let expect = u64::from_be_bytes(tail.try_into().map_err(|_| DecodeError::TooShort)?);
        let checksum_ok = checksum(payload) == expect;
        let mut buf = payload;
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = buf.get_u16();
        if version != VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let time = buf.get_f64();
        if !time.is_finite() {
            return Err(DecodeError::BadTimestamp);
        }
        let declared = buf.get_u64();
        if declared > MAX_RECORDS {
            return Err(DecodeError::CountOverflow { declared });
        }
        Ok(Header {
            time,
            declared,
            records: buf,
            checksum_ok,
        })
    }

    pub fn decode_volume_salvage<T: Real>(
        data: &[u8],
        bounds: &ValueBounds,
    ) -> Result<(DecodedVolume<T>, SalvageReport), DecodeError> {
        let h = parse_header(data)?;
        let mut report = SalvageReport {
            declared: h.declared,
            checksum_mismatch: !h.checksum_ok,
            ..SalvageReport::default()
        };
        let mut buf = h.records;
        let parseable = (h.declared as usize).min(buf.remaining() / RECORD_BYTES);
        report.parseable = parseable;
        report.truncated = (parseable as u64) < h.declared;
        let mut obs = Vec::with_capacity(parseable);
        for _ in 0..parseable {
            let kind_byte = buf.get_u8();
            let x = buf.get_f32() as f64;
            let y = buf.get_f32() as f64;
            let z = buf.get_f32() as f64;
            let value = buf.get_f32() as f64;
            let error_sd = buf.get_f32() as f64;
            match validate_record(kind_byte, x, y, z, value, error_sd, bounds) {
                Ok(o) => {
                    obs.push(o);
                    report.kept += 1;
                }
                Err(RecordError::UnknownKind(_)) => report.rejected_unknown_kind += 1,
                Err(RecordError::NonFinite(_)) => report.rejected_non_finite += 1,
                Err(RecordError::OutOfRange { .. }) => report.rejected_out_of_range += 1,
                Err(RecordError::NonPositiveErrorSd(_)) => report.rejected_bad_error_sd += 1,
            }
        }
        Ok((DecodedVolume { time: h.time, obs }, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scan() -> ScanResult<f64> {
        ScanResult {
            time: 1234.5,
            obs: vec![
                Observation {
                    kind: ObsKind::Reflectivity,
                    x: 1000.0,
                    y: 2000.0,
                    z: 1500.0,
                    value: 37.5,
                    error_sd: 5.0,
                },
                Observation {
                    kind: ObsKind::DopplerVelocity,
                    x: 1000.0,
                    y: 2000.0,
                    z: 1500.0,
                    value: -4.25,
                    error_sd: 3.0,
                },
            ],
            n_reflectivity: 1,
            n_doppler: 1,
            n_clear_air: 0,
            raw_bytes: 1024,
        }
    }

    #[test]
    fn roundtrip_preserves_observations() {
        let scan = sample_scan();
        let bytes = encode_volume(&scan);
        let (dec, report) = decode_volume_salvage::<f64>(&bytes, &ValueBounds::default()).unwrap();
        assert!(report.clean());
        assert_eq!(dec.time, 1234.5);
        assert_eq!(dec.obs.len(), 2);
        assert_eq!(dec.obs[0].kind, ObsKind::Reflectivity);
        assert_eq!(dec.obs[0].value, 37.5);
        assert_eq!(dec.obs[1].kind, ObsKind::DopplerVelocity);
        assert_eq!(dec.obs[1].value, -4.25);
        assert_eq!(dec.obs[1].error_sd, 3.0);
    }

    #[test]
    fn corruption_is_detected() {
        let scan = sample_scan();
        let bytes = encode_volume(&scan);
        let mut corrupted = bytes.to_vec();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0xFF;
        let (_, report) =
            decode_volume_salvage::<f64>(&corrupted, &ValueBounds::default()).unwrap();
        assert!(report.checksum_mismatch);
        assert!(!report.clean());
    }

    #[test]
    fn bad_magic_rejected() {
        let scan = sample_scan();
        let bytes = encode_volume(&scan);
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        seal(&mut bad);
        assert_eq!(
            decode_volume_salvage::<f64>(&bad, &ValueBounds::default()).unwrap_err(),
            DecodeError::BadMagic
        );
    }

    #[test]
    fn empty_scan_roundtrips() {
        let scan = ScanResult::<f64> {
            time: 0.0,
            obs: vec![],
            n_reflectivity: 0,
            n_doppler: 0,
            n_clear_air: 0,
            raw_bytes: 0,
        };
        let bytes = encode_volume(&scan);
        let (dec, report) = decode_volume_salvage::<f64>(&bytes, &ValueBounds::default()).unwrap();
        assert!(dec.obs.is_empty());
        assert!(report.clean());
    }

    /// A four-record volume as the version-1 encoder (FNV-1a trailer) wrote
    /// it, from the last commit that had one.
    const V1_VOLUME: &[u8] = include_bytes!("../tests/fixtures/volume-v1.pawr");

    #[test]
    fn version_1_volume_is_refused_by_name() {
        assert_eq!(V1_VOLUME.len(), HEADER_BYTES + 4 * RECORD_BYTES + 8);
        assert_eq!(
            decode_volume_salvage::<f32>(V1_VOLUME, &ValueBounds::default()).unwrap_err(),
            DecodeError::UnsupportedVersion(1)
        );
        // Only the version word and the trailer moved: the same records
        // under today's header decode to the same four observations.
        let mut current = V1_VOLUME.to_vec();
        current[4..6].copy_from_slice(&VERSION.to_be_bytes());
        seal(&mut current);
        let (dec, report) =
            decode_volume_salvage::<f32>(&current, &ValueBounds::default()).unwrap();
        assert!(report.clean());
        assert_eq!(dec.time, 1234.5);
        assert_eq!(dec.obs.len(), 4);
        assert_eq!(dec.obs[1].value, -4.25);
    }

    #[test]
    fn too_short_input() {
        assert_eq!(
            decode_volume_salvage::<f64>(&[1, 2, 3], &ValueBounds::default()).unwrap_err(),
            DecodeError::TooShort
        );
    }

    #[test]
    fn encoded_size_is_linear_in_records() {
        let scan = sample_scan();
        let b2 = encode_volume(&scan).len();
        let mut bigger = sample_scan();
        bigger.obs.extend_from_slice(&scan.obs.clone());
        let b4 = encode_volume(&bigger).len();
        assert_eq!(b4 - b2, 2 * RECORD_BYTES);
    }

    /// Regression for the forged-length OOM: a record count chosen so that
    /// `n * RECORD_BYTES` wraps usize used to pass the truncation check and
    /// abort inside `Vec::with_capacity`. With a valid checksum the forged
    /// count — not the checksum — is what the decoder must catch.
    #[test]
    fn forged_record_count_cannot_overflow_or_allocate() {
        let scan = sample_scan();
        for forged in [
            u64::MAX,
            u64::MAX / RECORD_BYTES as u64 + 1,
            (usize::MAX / RECORD_BYTES) as u64 + 1,
            MAX_RECORDS + 1,
        ] {
            let mut bad = encode_volume(&scan).to_vec();
            bad[14..22].copy_from_slice(&forged.to_be_bytes());
            seal(&mut bad);
            assert_eq!(
                decode_volume_salvage::<f64>(&bad, &ValueBounds::default()).unwrap_err(),
                DecodeError::CountOverflow { declared: forged },
                "forged count {forged} must be rejected before any allocation"
            );
        }
        // A large-but-legal count against a tiny buffer is truncated, and
        // must not allocate for the declared count either.
        let mut bad = encode_volume(&scan).to_vec();
        bad[14..22].copy_from_slice(&MAX_RECORDS.to_be_bytes());
        seal(&mut bad);
        let (dec, report) = decode_volume_salvage::<f64>(&bad, &ValueBounds::default()).unwrap();
        assert!(report.truncated);
        assert_eq!((report.parseable, dec.obs.len()), (2, 2));
        assert!(dec.obs.capacity() <= 2);
    }

    #[test]
    fn out_of_physical_range_rejected() {
        let scan = sample_scan();
        let mut bad = encode_volume(&scan).to_vec();
        // Record 1 value field: 22 + 21 + 13 = offset 56. 900 m/s is no wind.
        bad[56..60].copy_from_slice(&900.0f32.to_be_bytes());
        seal(&mut bad);
        let (dec, report) = decode_volume_salvage::<f64>(&bad, &ValueBounds::default()).unwrap();
        assert_eq!(report.rejected_out_of_range, 1);
        assert_eq!(report.rejected(), 1);
        assert_eq!(dec.obs.len(), 1);
        assert_eq!(dec.obs[0].kind, ObsKind::Reflectivity);
    }

    #[test]
    fn non_finite_timestamp_rejected() {
        let mut scan = sample_scan();
        scan.time = f64::INFINITY;
        let bytes = encode_volume(&scan);
        assert_eq!(
            decode_volume_salvage::<f64>(&bytes, &ValueBounds::default()).unwrap_err(),
            DecodeError::BadTimestamp
        );
    }

    #[test]
    fn salvage_keeps_good_records_from_poisoned_volume() {
        let scan = sample_scan();
        let mut bad = encode_volume(&scan).to_vec();
        // Poison record 0's value; record 1 stays intact.
        bad[35..39].copy_from_slice(&f32::NAN.to_be_bytes());
        seal(&mut bad);
        let (dec, report) = decode_volume_salvage::<f64>(&bad, &ValueBounds::default()).unwrap();
        assert_eq!(dec.obs.len(), 1);
        assert_eq!(dec.obs[0].kind, ObsKind::DopplerVelocity);
        assert_eq!(report.kept, 1);
        assert_eq!(report.rejected_non_finite, 1);
        assert!(!report.clean());
        assert!(!report.truncated);
    }

    #[test]
    fn salvage_recovers_intact_prefix_of_torn_volume() {
        let scan = sample_scan();
        let bytes = encode_volume(&scan);
        // Tear mid-record-1: record 0 survives; checksum and count no
        // longer match what's present.
        let torn = &bytes[..HEADER_BYTES + RECORD_BYTES + 10];
        let (dec, report) = decode_volume_salvage::<f64>(torn, &ValueBounds::default()).unwrap();
        assert_eq!(dec.obs.len(), 1);
        assert_eq!(dec.obs[0].value, 37.5);
        assert!(report.truncated);
        assert!(report.checksum_mismatch);
        assert_eq!(report.declared, 2);
        assert_eq!(report.parseable, 1);
    }

    #[test]
    fn salvage_on_clean_volume_is_lossless() {
        let scan = sample_scan();
        let bytes = encode_volume(&scan);
        let (dec, report) = decode_volume_salvage::<f64>(&bytes, &ValueBounds::default()).unwrap();
        assert_eq!(dec.obs.len(), 2);
        assert!(report.clean());
    }

    /// A seeded scan of `n` records. With `poison`, about one record in
    /// 500 carries a value the decoder must reject (non-finite, out of
    /// range, non-positive error SD).
    fn random_scan<T: Real>(
        rng: &mut bda_num::SplitMix64,
        n: usize,
        poison: bool,
    ) -> ScanResult<T> {
        let obs = (0..n)
            .map(|_| {
                let kind = if rng.next_u64().is_multiple_of(3) {
                    ObsKind::DopplerVelocity
                } else {
                    ObsKind::Reflectivity
                };
                let mut value = rng.uniform_in(-30.0, 70.0);
                let mut error_sd = rng.uniform_in(0.5, 8.0);
                match rng.next_u64() % 2000 {
                    0 if poison => value = f64::NAN,
                    1 if poison => value = 1.0e4,
                    2 if poison => error_sd = 0.0,
                    3 if poison => error_sd = -1.0,
                    _ => {}
                }
                Observation {
                    kind,
                    x: rng.uniform_in(-2.0e5, 2.0e5),
                    y: rng.uniform_in(-2.0e5, 2.0e5),
                    z: rng.uniform_in(-500.0, 20_000.0),
                    value: T::of(value),
                    error_sd: T::of(error_sd),
                }
            })
            .collect();
        ScanResult {
            time: 30.0 * (rng.next_u64() % 1000) as f64,
            obs,
            n_reflectivity: 0,
            n_doppler: 0,
            n_clear_air: 0,
            raw_bytes: 0,
        }
    }

    /// Decode `bytes` at `T` with both implementations; records in `seen`
    /// the outcome's name, and for a decoded volume every report flag set.
    fn assert_decoders_agree<T: Real>(bytes: &[u8], seen: &mut Vec<String>) {
        let bounds = ValueBounds::default();
        let salvage = decode_volume_salvage::<T>(bytes, &bounds).map(|(v, r)| (v.time, v.obs, r));
        let oracle =
            reference::decode_volume_salvage::<T>(bytes, &bounds).map(|(v, r)| (v.time, v.obs, r));
        assert_eq!(salvage, oracle);
        match &salvage {
            Ok((_, _, r)) => {
                let flags = [
                    (true, "Ok"),
                    (r.checksum_mismatch, "ChecksumMismatch"),
                    (r.truncated, "Truncated"),
                    (r.rejected() > 0, "BadRecord"),
                ];
                seen.extend(flags.iter().filter(|f| f.0).map(|f| f.1.to_string()));
            }
            Err(e) => seen.push(
                match e {
                    DecodeError::TooShort => "TooShort",
                    DecodeError::BadMagic => "BadMagic",
                    DecodeError::UnsupportedVersion(_) => "UnsupportedVersion",
                    DecodeError::CountOverflow { .. } => "CountOverflow",
                    DecodeError::BadTimestamp => "BadTimestamp",
                }
                .to_string(),
            ),
        }
    }

    /// Encode `scan` with both encoders, then decode it and every mutant
    /// of it with both implementations. Records every corruption class
    /// and decode outcome met in `seen`.
    fn assert_codecs_agree<T: Real>(scan: &ScanResult<T>, seed: u64, seen: &mut Vec<String>) {
        let bytes = encode_volume(scan);
        assert_eq!(bytes, reference::encode_volume(scan), "encoder bytes");
        let mut cases = vec![bytes.to_vec()];
        for m in crate::fuzz::VolumeMutator::new(&bytes, seed).corpus(48) {
            seen.push(format!("{:?}", m.class));
            cases.push(m.bytes);
        }
        for case in &cases {
            assert_decoders_agree::<f32>(case, seen);
            assert_decoders_agree::<f64>(case, seen);
        }
    }

    /// The single-pass codec against the byte-at-a-time reference: same
    /// bytes out of the encoder, and the same `Result` — error variant,
    /// salvage report, observations — out of both decoders, for
    /// random f32 and f64 scans of 0–5,000 records and every corruption
    /// class of the fuzz mutator.
    #[test]
    fn codec_equivalence_sweep() {
        let mut rng = bda_num::SplitMix64::new(0xC0DEC);
        let mut seen = Vec::new();
        for round in 0..24u64 {
            let n = match round {
                0 => 0,
                1 => 1,
                2 => 5_000,
                _ => (rng.next_u64() % 5_001) as usize,
            };
            let poison = round % 3 == 2;
            if round % 2 == 0 {
                let scan = random_scan::<f32>(&mut rng, n, poison);
                assert_codecs_agree(&scan, round, &mut seen);
            } else {
                let scan = random_scan::<f64>(&mut rng, n, poison);
                assert_codecs_agree(&scan, round, &mut seen);
            }
        }
        seen.sort();
        seen.dedup();
        for want in [
            "BitFlips",
            "Truncate",
            "Extend",
            "ForgeCount",
            "PoisonFields",
            "CorruptKind",
            "RandomBytes",
            "Ok",
            "TooShort",
            "BadMagic",
            "ChecksumMismatch",
            "Truncated",
            "CountOverflow",
            "BadRecord",
        ] {
            assert!(seen.iter().any(|s| s == want), "{want} never met: {seen:?}");
        }
    }
}
