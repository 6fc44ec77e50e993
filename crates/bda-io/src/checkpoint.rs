//! Atomic, checksum-sealed campaign checkpoints (`BDAC`).
//!
//! The paper's operational run cycled for weeks; a crashed process must not
//! lose the campaign. A snapshot captures everything needed to resume a
//! cycling run bit-for-bit: the flat ensemble states (interiors only —
//! halos are refilled by the first model step), per-member clocks, every
//! RNG stream state, the index of the next cycle, and the supervisor's
//! per-cycle outcome log. Byte layout: DESIGN.md, "Sealed frames".
//!
//! Durability: [`write_checkpoint_scoped`] goes through [`write_atomic`]
//! (a temporary file in the same directory, fsynced, then atomically
//! renamed into place) and then fsyncs the directory on Unix. A `kill -9`
//! at any instant leaves either the old checkpoint, the new one, or a temp
//! file that [`latest_checkpoint_scoped`] ignores — never a half-written
//! snapshot that validates.

use crate::format::{get_members, members_bytes, put_members, FormatError};
use crate::frame::{self, FrameError, Kind};
use bda_num::Real;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::path::{Path, PathBuf};

/// Version 1 files (own member loop, CRC-32 trailer) and version 2 files
/// (today's body under an FNV-1a trailer) are refused as
/// [`FrameError::UnsupportedVersion`], not misread.
const VERSION: u16 = 3;
const TMP_PREFIX: &str = ".tmp-";
const CKPT_PREFIX: &str = "ckpt-";
const CKPT_SUFFIX: &str = ".bdac";
/// `cycle u64 | retries u32 | two u32 string lengths`: the least one
/// outcome record can occupy.
const MIN_OUTCOME_BYTES: usize = 8 + 4 + 4 + 4;

/// One line of the supervisor's outcome log, persisted so a resumed
/// campaign's final report covers the pre-crash cycles too. Deliberately
/// timing-free: two runs of the same campaign (interrupted or not) must
/// produce identical records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutcomeRecord {
    pub cycle: u64,
    /// Disposition label (`completed`, `degraded`, ...).
    pub label: String,
    /// Free-form note (quorum summary, degradation cause, ...).
    pub detail: String,
    /// Transfer retries consumed by the cycle.
    pub retries: u32,
}

/// Everything needed to resume a cycling campaign bit-for-bit.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSnapshot<T> {
    /// Index of the next cycle to run on resume.
    pub next_cycle: u64,
    /// Campaign clock at the snapshot, model seconds.
    pub time: f64,
    /// RNG stream states in a caller-defined, stable order.
    pub rng_states: Vec<u64>,
    /// Flat states (caller-defined layout; by convention the truth/nature
    /// state may ride along as a leading extra entry).
    pub members: Vec<Vec<T>>,
    /// Model clock of each entry in `members`.
    pub member_times: Vec<f64>,
    /// Per-cycle outcome log up to (excluding) `next_cycle`.
    pub outcomes: Vec<OutcomeRecord>,
}

/// Checkpoint I/O and validation errors.
#[derive(Debug)]
pub enum CheckpointError {
    Io(std::io::Error),
    /// The envelope was rejected before the body was looked at.
    Frame(FrameError),
    /// The member-values block: precision mismatch, truncation, or (encode
    /// side) a ragged ensemble.
    Members(FormatError),
    /// A field outside the member block runs past the end of the body.
    Truncated,
    /// Encode-side: `member_times` must align with `members`.
    TimesMismatch {
        times: usize,
        members: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::Frame(e) => write!(f, "checkpoint: {e}"),
            CheckpointError::Members(e) => write!(f, "checkpoint members: {e}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::TimesMismatch { times, members } => {
                write!(f, "{times} member times for {members} members")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// `count` items of `unit` bytes must still be present.
fn need(buf: &[u8], count: usize, unit: usize) -> Result<(), CheckpointError> {
    match count.checked_mul(unit) {
        Some(bytes) if bytes <= buf.len() => Ok(()),
        _ => Err(CheckpointError::Truncated),
    }
}

fn get_string(buf: &mut &[u8]) -> Result<String, CheckpointError> {
    need(buf, 1, 4)?;
    let len = buf.get_u32() as usize;
    need(buf, len, 1)?;
    let s = String::from_utf8_lossy(&buf[..len]).into_owned();
    buf.advance(len);
    Ok(s)
}

/// Encode a snapshot as one sealed `BDAC` frame.
pub fn encode_snapshot<T: Real>(snap: &CampaignSnapshot<T>) -> Result<Bytes, CheckpointError> {
    let k = snap.members.len();
    if snap.member_times.len() != k {
        return Err(CheckpointError::TimesMismatch {
            times: snap.member_times.len(),
            members: k,
        });
    }
    let capacity = 64 + (snap.rng_states.len() + k) * 8 + members_bytes(&snap.members);
    let mut buf = frame::begin(Kind::Checkpoint, VERSION, capacity);
    buf.put_u64(snap.next_cycle);
    buf.put_f64(snap.time);
    buf.put_u32(snap.rng_states.len() as u32);
    for &s in &snap.rng_states {
        buf.put_u64(s);
    }
    put_members(&mut buf, &snap.members).map_err(CheckpointError::Members)?;
    for &t in &snap.member_times {
        buf.put_f64(t);
    }
    buf.put_u32(snap.outcomes.len() as u32);
    for o in &snap.outcomes {
        buf.put_u64(o.cycle);
        buf.put_u32(o.retries);
        put_string(&mut buf, &o.label);
        put_string(&mut buf, &o.detail);
    }
    Ok(frame::seal(buf))
}

/// Decode and validate a snapshot. Every count in the body is
/// attacker-declared (a forged file can carry a valid trailer), so each is
/// checked against the bytes present before anything is reserved for it.
pub fn decode_snapshot<T: Real>(data: &[u8]) -> Result<CampaignSnapshot<T>, CheckpointError> {
    let mut buf = frame::open(Kind::Checkpoint, VERSION, data).map_err(CheckpointError::Frame)?;
    need(buf, 1, 8 + 8 + 4)?;
    let next_cycle = buf.get_u64();
    let time = buf.get_f64();
    let n_rng = buf.get_u32() as usize;
    need(buf, n_rng, 8)?;
    let rng_states = (0..n_rng).map(|_| buf.get_u64()).collect();
    let members = get_members(&mut buf).map_err(CheckpointError::Members)?;
    need(buf, members.len(), 8)?;
    let member_times = members.iter().map(|_| buf.get_f64()).collect();
    need(buf, 1, 4)?;
    let n_out = buf.get_u32() as usize;
    let mut outcomes = Vec::with_capacity(n_out.min(buf.len() / MIN_OUTCOME_BYTES));
    for _ in 0..n_out {
        need(buf, 1, 8 + 4)?;
        let cycle = buf.get_u64();
        let retries = buf.get_u32();
        let label = get_string(&mut buf)?;
        let detail = get_string(&mut buf)?;
        outcomes.push(OutcomeRecord {
            cycle,
            label,
            detail,
            retries,
        });
    }
    Ok(CampaignSnapshot {
        next_cycle,
        time,
        rng_states,
        members,
        member_times,
        outcomes,
    })
}

/// A scope tag usable in checkpoint file names: non-empty ASCII
/// alphanumerics (shard ids like `s003`). Anything else — separators,
/// dots, empty strings — could collide with the name grammar itself.
pub fn valid_scope(scope: &str) -> bool {
    !scope.is_empty() && scope.bytes().all(|b| b.is_ascii_alphanumeric())
}

/// File name for a snapshot taken before cycle `next_cycle`, owned by
/// `scope` (e.g. shard `s003`): `ckpt-s003-000042.bdac`, or the unscoped
/// `ckpt-000042.bdac` for `None`. Scoped and unscoped names never collide:
/// the unscoped scan requires an all-digit stem, the scoped scan requires
/// its exact `scope-` prefix.
pub fn checkpoint_file_name_scoped(scope: Option<&str>, next_cycle: u64) -> String {
    match scope {
        Some(tag) => {
            assert!(valid_scope(tag), "invalid checkpoint scope `{tag}`");
            format!("{CKPT_PREFIX}{tag}-{next_cycle:06}{CKPT_SUFFIX}")
        }
        None => format!("{CKPT_PREFIX}{next_cycle:06}{CKPT_SUFFIX}"),
    }
}

/// Write `bytes` to `dir/name` atomically: a temp file in the same
/// directory, fsynced, then renamed into place, so a reader never observes
/// a half-written file and a crash leaves the old file, the new one or a
/// `.tmp-` leftover. The directory itself is not fsynced; a caller whose
/// rename must survive power loss does that at its own call site.
pub fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<PathBuf> {
    let tmp_path = dir.join(format!("{TMP_PREFIX}{name}"));
    {
        let mut f = std::fs::File::create(&tmp_path)?;
        std::io::Write::write_all(&mut f, bytes)?;
        f.sync_all()?;
    }
    let final_path = dir.join(name);
    std::fs::rename(&tmp_path, &final_path)?;
    Ok(final_path)
}

/// Atomically persist a snapshot under `dir` (created if missing), under
/// a scope tag for co-located per-shard checkpoint files that must never
/// cross-resume.
pub fn write_checkpoint_scoped<T: Real>(
    dir: &Path,
    scope: Option<&str>,
    snap: &CampaignSnapshot<T>,
) -> Result<PathBuf, CheckpointError> {
    std::fs::create_dir_all(dir)?;
    let bytes = encode_snapshot(snap)?;
    let final_path = write_atomic(
        dir,
        &checkpoint_file_name_scoped(scope, snap.next_cycle),
        &bytes,
    )?;
    #[cfg(unix)]
    {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(final_path)
}

/// Read and validate one checkpoint file.
pub fn read_checkpoint<T: Real>(path: &Path) -> Result<CampaignSnapshot<T>, CheckpointError> {
    let data = std::fs::read(path)?;
    decode_snapshot(&data)
}

/// Every checkpoint file name of one scope in `dir`, newest first by the
/// cycle index in the name. With `Some("s003")` only
/// `ckpt-s003-NNNNNN.bdac` files count; with `None` only the unscoped
/// `ckpt-NNNNNN.bdac` names do — so shards sharing a directory never see
/// each other's (or an unscoped run's) snapshots.
fn scoped_candidates(
    dir: &Path,
    scope: Option<&str>,
) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    if let Some(tag) = scope {
        assert!(valid_scope(tag), "invalid checkpoint scope `{tag}`");
    }
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut candidates: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(stem) = name
            .strip_prefix(CKPT_PREFIX)
            .and_then(|s| s.strip_suffix(CKPT_SUFFIX))
        else {
            continue;
        };
        let cycle_part = match scope {
            Some(tag) => match stem.strip_prefix(tag).and_then(|s| s.strip_prefix('-')) {
                Some(rest) => rest,
                None => continue,
            },
            None => stem,
        };
        // All-digit cycle stems only: an unscoped scan must never swallow
        // `s003-000042`, and a scoped scan must not accept trailing junk.
        if !cycle_part.is_empty() && cycle_part.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(cycle) = cycle_part.parse::<u64>() {
                candidates.push((cycle, entry.path()));
            }
        }
    }
    candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
    Ok(candidates)
}

/// Find the newest *valid* checkpoint of one scope in `dir`: candidates
/// are scanned newest-first (by cycle index in the file name) and the
/// first one that opens and decodes wins. Temp files and corrupt,
/// truncated or version-1 snapshots are skipped, so a crash mid-write
/// falls back to the previous checkpoint instead of failing the resume.
pub fn latest_checkpoint_scoped<T: Real>(
    dir: &Path,
    scope: Option<&str>,
) -> Result<Option<(PathBuf, CampaignSnapshot<T>)>, CheckpointError> {
    for (_, path) in scoped_candidates(dir, scope)? {
        if let Ok(snap) = read_checkpoint::<T>(&path) {
            return Ok(Some((path, snap)));
        }
    }
    Ok(None)
}

/// Delete all but the newest `keep` checkpoints of one scope in `dir`, so
/// a cycling campaign's spool stays bounded while
/// [`latest_checkpoint_scoped`] can still fall back past a torn newest
/// file. A file that is already gone counts as deleted.
pub fn prune_checkpoints_scoped(
    dir: &Path,
    scope: Option<&str>,
    keep: usize,
) -> Result<(), CheckpointError> {
    for (_, path) in scoped_candidates(dir, scope)?.into_iter().skip(keep) {
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignSnapshot<f32> {
        CampaignSnapshot {
            next_cycle: 3,
            time: 90.0,
            rng_states: vec![0xDEAD_BEEF, 42],
            members: vec![vec![1.5_f32, -0.25, 3.75], vec![0.0, 1e-30, 1e30]],
            member_times: vec![90.0, 90.0],
            outcomes: vec![
                OutcomeRecord {
                    cycle: 0,
                    label: "completed".into(),
                    detail: "alive 4/4".into(),
                    retries: 0,
                },
                OutcomeRecord {
                    cycle: 1,
                    label: "degraded".into(),
                    detail: "alive 3/4, dead [2]".into(),
                    retries: 1,
                },
            ],
        }
    }

    #[test]
    fn snapshot_roundtrips_exactly() {
        let snap = sample();
        let bytes = encode_snapshot(&snap).unwrap();
        let back: CampaignSnapshot<f32> = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn envelope_rejections_surface_as_frame() {
        let mut bytes = encode_snapshot(&sample()).unwrap().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            decode_snapshot::<f32>(&bytes),
            Err(CheckpointError::Frame(FrameError::ChecksumMismatch))
        ));
    }

    /// A snapshot as the version-1 encoder wrote it (precision in the
    /// header, member clocks interleaved with their values, CRC-32
    /// trailer) — written by the last commit that had one.
    const V1_FILE: &[u8] = include_bytes!("../tests/fixtures/ckpt-v1.bdac");

    #[test]
    fn version_1_file_is_typed_skipped_and_falls_back() {
        let dir = std::env::temp_dir().join(format!("bda-ckpt-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let v1 = dir.join(checkpoint_file_name_scoped(None, 8));
        std::fs::write(&v1, V1_FILE).unwrap();
        let err = read_checkpoint::<f32>(&v1).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Frame(FrameError::UnsupportedVersion(1))
        ));
        assert_eq!(err.to_string(), "checkpoint: unsupported version 1");
        // Alone in its directory it is no candidate at all...
        assert!(latest_checkpoint_scoped::<f32>(&dir, None)
            .unwrap()
            .is_none());
        // ...and an older file this reader speaks wins over it.
        let p3 = write_checkpoint_scoped(&dir, None, &sample()).unwrap();
        let (path, found) = latest_checkpoint_scoped::<f32>(&dir, None)
            .unwrap()
            .unwrap();
        assert_eq!(path, p3);
        assert_eq!(found, sample());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot as the version-2 encoder (FNV-1a trailer) wrote it, from
    /// the last commit that had one.
    const V2_FILE: &[u8] = include_bytes!("../tests/fixtures/ckpt-v2.bdac");

    #[test]
    fn version_2_file_is_refused_by_name_not_by_checksum() {
        assert!(matches!(
            decode_snapshot::<f32>(V2_FILE),
            Err(CheckpointError::Frame(FrameError::UnsupportedVersion(2)))
        ));
    }

    /// Seal a hand-built body: the trailer is valid, so only the decoder's
    /// own arithmetic stands between a forged count and the allocator.
    fn sealed(body: impl FnOnce(&mut BytesMut)) -> Bytes {
        let mut buf = frame::begin(Kind::Checkpoint, VERSION, 64);
        body(&mut buf);
        frame::seal(buf)
    }

    #[test]
    fn forged_but_sealed_counts_are_truncated_not_a_panic_or_abort() {
        let prefix = |buf: &mut BytesMut, n_rng: u32| {
            buf.put_u64(3);
            buf.put_f64(90.0);
            buf.put_u32(n_rng);
        };
        // More RNG states than bytes.
        let forged = sealed(|b| prefix(b, u32::MAX));
        assert!(matches!(
            decode_snapshot::<f32>(&forged),
            Err(CheckpointError::Truncated)
        ));
        // A member block whose k·n·precision wraps to 0.
        let forged = sealed(|b| {
            prefix(b, 0);
            b.put_u8(4);
            b.put_u64(1 << 61);
            b.put_u64(8);
            b.put_slice(&[0u8; 16]);
        });
        assert!(matches!(
            decode_snapshot::<f32>(&forged),
            Err(CheckpointError::Members(FormatError::Truncated))
        ));
        // Four billion outcome records declared, none present.
        let forged = sealed(|b| {
            prefix(b, 0);
            put_members::<f32>(b, &[]).unwrap();
            b.put_u32(u32::MAX);
        });
        assert!(matches!(
            decode_snapshot::<f32>(&forged),
            Err(CheckpointError::Truncated)
        ));
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = encode_snapshot(&sample()).unwrap();
        for len in [0, 10, bytes.len() / 2, bytes.len() - 1] {
            let r = decode_snapshot::<f32>(&bytes[..len]);
            assert!(r.is_err(), "truncation to {len} accepted");
        }
    }

    #[test]
    fn precision_mismatch_is_rejected() {
        let bytes = encode_snapshot(&sample()).unwrap();
        assert!(matches!(
            decode_snapshot::<f64>(&bytes),
            Err(CheckpointError::Members(FormatError::PrecisionMismatch {
                file: 4,
                expected: 8
            }))
        ));
    }

    #[test]
    fn write_then_latest_finds_newest_valid() {
        let dir = std::env::temp_dir().join(format!("bda-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut snap = sample();
        write_checkpoint_scoped(&dir, None, &snap).unwrap();
        snap.next_cycle = 7;
        snap.time = 210.0;
        let p7 = write_checkpoint_scoped(&dir, None, &snap).unwrap();
        // A corrupt newer file must be skipped.
        let p9 = dir.join(checkpoint_file_name_scoped(None, 9));
        std::fs::write(&p9, b"garbage").unwrap();
        // Leftover temp files are ignored.
        std::fs::write(dir.join(".tmp-ckpt-000011.bdac"), b"partial").unwrap();
        let (path, found) = latest_checkpoint_scoped::<f32>(&dir, None)
            .unwrap()
            .unwrap();
        assert_eq!(path, p7);
        assert_eq!(found, snap);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scoped_checkpoints_never_cross_resume() {
        // Regression for co-located shard checkpoint dirs: shard s000 and
        // shard s001 write into the same directory; each scan must only
        // ever see its own snapshots, and the unscoped scan none of them.
        let dir = std::env::temp_dir().join(format!("bda-ckpt-scope-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut snap = sample();
        snap.next_cycle = 5;
        write_checkpoint_scoped(&dir, Some("s000"), &snap).unwrap();
        snap.next_cycle = 9;
        snap.time = 270.0;
        write_checkpoint_scoped(&dir, Some("s001"), &snap).unwrap();

        let (p0, s0) = latest_checkpoint_scoped::<f32>(&dir, Some("s000"))
            .unwrap()
            .unwrap();
        assert_eq!(s0.next_cycle, 5);
        assert!(p0.to_string_lossy().contains("ckpt-s000-000005"));
        let (_, s1) = latest_checkpoint_scoped::<f32>(&dir, Some("s001"))
            .unwrap()
            .unwrap();
        assert_eq!(s1.next_cycle, 9);
        // The unscoped scan sees neither shard's files...
        assert!(latest_checkpoint_scoped::<f32>(&dir, None)
            .unwrap()
            .is_none());
        // ...an unknown scope sees nothing...
        assert!(latest_checkpoint_scoped::<f32>(&dir, Some("s002"))
            .unwrap()
            .is_none());
        // ...and a scope that is a prefix of another never matches it.
        assert!(latest_checkpoint_scoped::<f32>(&dir, Some("s00"))
            .unwrap()
            .is_none());

        // An unscoped snapshot with a *newer* cycle index must not shadow
        // the scoped scan either.
        snap.next_cycle = 42;
        write_checkpoint_scoped(&dir, None, &snap).unwrap();
        let (_, s0b) = latest_checkpoint_scoped::<f32>(&dir, Some("s000"))
            .unwrap()
            .unwrap();
        assert_eq!(s0b.next_cycle, 5);
        let (_, su) = latest_checkpoint_scoped::<f32>(&dir, None)
            .unwrap()
            .unwrap();
        assert_eq!(su.next_cycle, 42);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scope_validation_rejects_separator_smuggling() {
        assert!(valid_scope("s000"));
        assert!(valid_scope("shard7"));
        assert!(!valid_scope(""));
        assert!(!valid_scope("s-0"));
        assert!(!valid_scope("s0.bdac"));
        assert!(!valid_scope("a/b"));
    }

    #[test]
    fn latest_on_missing_dir_is_none() {
        let dir = std::env::temp_dir().join("bda-ckpt-definitely-missing");
        assert!(latest_checkpoint_scoped::<f32>(&dir, None)
            .unwrap()
            .is_none());
    }

    #[test]
    fn ragged_and_misaligned_snapshots_rejected() {
        let mut snap = sample();
        snap.members[1].pop();
        assert!(matches!(
            encode_snapshot(&snap),
            Err(CheckpointError::Members(FormatError::RaggedEnsemble {
                member: 1,
                ..
            }))
        ));
        let mut snap = sample();
        snap.member_times.pop();
        assert!(matches!(
            encode_snapshot(&snap),
            Err(CheckpointError::TimesMismatch {
                times: 1,
                members: 2
            })
        ));
    }
}
