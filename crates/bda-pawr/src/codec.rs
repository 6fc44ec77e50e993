//! Binary volume-file codec.
//!
//! The real MP-PAWR writes each 30-second volume as a file on a server at
//! Saitama University, which JIT-DT then ships to Fugaku. This codec defines
//! the equivalent self-describing binary format: a magic/version header, the
//! scan timestamp, fixed-width observation records, and a trailing FNV-1a
//! checksum that the transfer layer verifies end-to-end.
//!
//! The decoder treats the wire as hostile. The checksum only catches
//! accidental corruption; a forged-but-checksummed volume must still be
//! unable to crash, abort, or smuggle unphysical values into the
//! assimilation, so every header field and every record field is validated
//! before it is used:
//!
//! * the record count is multiplied with [`usize::checked_mul`] and capped
//!   at [`MAX_RECORDS`], so a forged count can neither wrap the `Truncated`
//!   comparison nor drive `Vec::with_capacity` into an OOM abort;
//! * every float field must be finite and inside generous physical bounds
//!   ([`ValueBounds`]), rejected with a typed per-record [`RecordError`];
//! * [`decode_volume_salvage`] additionally recovers the good records from a
//!   torn or partially poisoned volume instead of discarding it whole.

use crate::scan::ScanResult;
use bda_letkf::{obs, ObsKind, Observation};
use bda_num::{fnv1a, Real};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"PAWR";
const VERSION: u16 = 1;
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
    ChecksumMismatch,
    Truncated,
    /// Declared record count exceeds [`MAX_RECORDS`] or overflows the
    /// byte-length computation.
    CountOverflow {
        declared: u64,
    },
    /// Scan timestamp is not a finite number.
    BadTimestamp,
    /// A record failed field validation (strict mode only; salvage mode
    /// counts and skips instead).
    BadRecord {
        index: usize,
        error: RecordError,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::TooShort => write!(f, "volume file too short"),
            DecodeError::BadMagic => write!(f, "bad magic bytes"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::ChecksumMismatch => write!(f, "checksum mismatch"),
            DecodeError::Truncated => write!(f, "truncated record section"),
            DecodeError::CountOverflow { declared } => {
                write!(f, "declared record count {declared} exceeds limits")
            }
            DecodeError::BadTimestamp => write!(f, "non-finite scan timestamp"),
            DecodeError::BadRecord { index, error } => {
                write!(f, "record {index}: {error}")
            }
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

/// Encode a scan into its on-wire volume file.
pub fn encode_volume<T: Real>(scan: &ScanResult<T>) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_BYTES + scan.obs.len() * RECORD_BYTES + 8);
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
    let checksum = fnv1a(&buf);
    buf.put_u64(checksum);
    buf.freeze()
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
    checksum_ok: bool,
}

/// Parse the fixed header, verify the checksum, and bound the record count.
/// Never allocates proportionally to any attacker-declared length.
fn parse_header(data: &[u8]) -> Result<Header<'_>, DecodeError> {
    if data.len() < HEADER_BYTES + 8 {
        return Err(DecodeError::TooShort);
    }
    let (payload, tail) = data.split_at(data.len() - 8);
    let expect = u64::from_be_bytes(tail.try_into().map_err(|_| DecodeError::TooShort)?);
    let checksum_ok = fnv1a(payload) == expect;
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

/// Decode and integrity-check a volume file (strict mode).
///
/// Every record must validate; the first bad record fails the whole volume
/// with a typed [`DecodeError::BadRecord`]. Use [`decode_volume_salvage`]
/// to recover the good records from a partially bad volume instead.
pub fn decode_volume<T: Real>(data: &[u8]) -> Result<DecodedVolume<T>, DecodeError> {
    let h = parse_header(data)?;
    if !h.checksum_ok {
        return Err(DecodeError::ChecksumMismatch);
    }
    // `declared <= MAX_RECORDS` holds, so the multiplication cannot
    // overflow u64 arithmetic; `checked_mul` still guards the usize
    // conversion on 32-bit targets.
    let need =
        (h.declared as usize)
            .checked_mul(RECORD_BYTES)
            .ok_or(DecodeError::CountOverflow {
                declared: h.declared,
            })?;
    let mut buf = h.records;
    if buf.remaining() < need {
        return Err(DecodeError::Truncated);
    }
    // Capacity is bounded by the bytes actually present, never by the
    // declared count alone.
    let n = (h.declared as usize).min(buf.remaining() / RECORD_BYTES);
    let mut obs = Vec::with_capacity(n);
    for index in 0..n {
        let kind_byte = buf.get_u8();
        let x = buf.get_f32() as f64;
        let y = buf.get_f32() as f64;
        let z = buf.get_f32() as f64;
        let value = buf.get_f32() as f64;
        let error_sd = buf.get_f32() as f64;
        let o = validate_record(kind_byte, x, y, z, value, error_sd, &ValueBounds::default())
            .map_err(|error| DecodeError::BadRecord { index, error })?;
        obs.push(o);
    }
    Ok(DecodedVolume { time: h.time, obs })
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

    /// Recompute the trailing checksum after tampering with the payload, so
    /// the tampered field — not the checksum — is what the decoder sees.
    fn fixup_checksum(buf: &mut [u8]) {
        let n = buf.len();
        let sum = fnv1a(&buf[..n - 8]);
        buf[n - 8..].copy_from_slice(&sum.to_be_bytes());
    }

    #[test]
    fn roundtrip_preserves_observations() {
        let scan = sample_scan();
        let bytes = encode_volume(&scan);
        let dec: DecodedVolume<f64> = decode_volume(&bytes).unwrap();
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
        assert_eq!(
            decode_volume::<f64>(&corrupted).unwrap_err(),
            DecodeError::ChecksumMismatch
        );
    }

    #[test]
    fn truncation_is_detected() {
        let scan = sample_scan();
        let bytes = encode_volume(&scan);
        // Chop off some records but keep a (now wrong) tail.
        let short = &bytes[..bytes.len() - 20];
        assert!(decode_volume::<f64>(short).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let scan = sample_scan();
        let bytes = encode_volume(&scan);
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        fixup_checksum(&mut bad);
        assert_eq!(
            decode_volume::<f64>(&bad).unwrap_err(),
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
        let dec: DecodedVolume<f64> = decode_volume(&encode_volume(&scan)).unwrap();
        assert!(dec.obs.is_empty());
    }

    #[test]
    fn too_short_input() {
        assert_eq!(
            decode_volume::<f64>(&[1, 2, 3]).unwrap_err(),
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
    /// `n * RECORD_BYTES` wraps usize used to pass the `Truncated` check and
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
            fixup_checksum(&mut bad);
            assert_eq!(
                decode_volume::<f64>(&bad).unwrap_err(),
                DecodeError::CountOverflow { declared: forged },
                "forged count {forged} must be rejected before any allocation"
            );
        }
        // A large-but-legal count against a tiny buffer is Truncated, and
        // must not allocate for the declared count either.
        let mut bad = encode_volume(&scan).to_vec();
        bad[14..22].copy_from_slice(&MAX_RECORDS.to_be_bytes());
        fixup_checksum(&mut bad);
        assert_eq!(
            decode_volume::<f64>(&bad).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn non_finite_fields_rejected_with_typed_error() {
        let scan = sample_scan();
        let mut bad = encode_volume(&scan).to_vec();
        // Record 0 value field: header(22) + kind(1) + x,y,z(12) = offset 35.
        bad[35..39].copy_from_slice(&f32::NAN.to_be_bytes());
        fixup_checksum(&mut bad);
        match decode_volume::<f64>(&bad).unwrap_err() {
            DecodeError::BadRecord {
                index: 0,
                error: RecordError::NonFinite(FieldId::Value),
            } => {}
            other => panic!("expected NonFinite(Value), got {other:?}"),
        }
    }

    #[test]
    fn out_of_physical_range_rejected() {
        let scan = sample_scan();
        let mut bad = encode_volume(&scan).to_vec();
        // Record 1 value field: 22 + 21 + 13 = offset 56. 900 m/s is no wind.
        bad[56..60].copy_from_slice(&900.0f32.to_be_bytes());
        fixup_checksum(&mut bad);
        match decode_volume::<f64>(&bad).unwrap_err() {
            DecodeError::BadRecord {
                index: 1,
                error:
                    RecordError::OutOfRange {
                        field: FieldId::Value,
                        ..
                    },
            } => {}
            other => panic!("expected OutOfRange(Value), got {other:?}"),
        }
    }

    #[test]
    fn non_finite_timestamp_rejected() {
        let mut scan = sample_scan();
        scan.time = f64::INFINITY;
        let bytes = encode_volume(&scan);
        assert_eq!(
            decode_volume::<f64>(&bytes).unwrap_err(),
            DecodeError::BadTimestamp
        );
    }

    #[test]
    fn salvage_keeps_good_records_from_poisoned_volume() {
        let scan = sample_scan();
        let mut bad = encode_volume(&scan).to_vec();
        // Poison record 0's value; record 1 stays intact.
        bad[35..39].copy_from_slice(&f32::NAN.to_be_bytes());
        fixup_checksum(&mut bad);
        assert!(decode_volume::<f64>(&bad).is_err());
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
        assert!(decode_volume::<f64>(torn).is_err());
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
}
