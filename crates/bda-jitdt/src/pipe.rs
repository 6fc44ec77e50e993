//! A real in-process byte pipe with integrity checking.
//!
//! The live end-to-end pipeline example moves encoded PAWR volumes between
//! the "radar" thread and the "assimilation" thread through this pipe —
//! chunked like the real JIT-DT stream. A volume travels as one `Header`
//! frame (its length, the receiver's capacity hint, and its sequence
//! number), its chunks, and one `End` frame carrying the integrity checksum
//! ([`bda_num::Checksum`]) of every byte sent. The sequence number is the
//! sender's label for the volume (the supervisor sends its cycle index);
//! the pipe carries it and never interprets it.
//!
//! Each side reads the bytes once: the sender checksums each chunk just
//! before it sends it, the receiver checksums each chunk as it appends it,
//! so the two passes overlap and the first frame leaves at once. The
//! checksum is lane-parallel (about 0.1 ns/B), so neither pass is the
//! transfer's floor. The receiver verifies length and checksum at `End`,
//! before it hands the volume over. The pipe checks its own bytes and
//! never relies on the payload's format.
//!
//! A receive that the stall watchdog ends mid-volume keeps what has
//! arrived, sequence number included; the next receive continues that
//! volume where it stopped.
//!
//! The receiver keeps at most one delivered volume: a handle to the last
//! one. At the next `Header` it takes that buffer back if the caller has
//! dropped every other handle, and assembles the new volume into it, so a
//! steady stream of volumes reuses one buffer instead of faulting in a
//! fresh one per volume. A caller that still holds the volume, or a slice
//! of it, gets a fresh buffer instead and never sees its bytes change.
//!
//! [`recv_seq_timeout`](PipeReceiver::recv_seq_timeout) also takes the
//! caller's verdict on each volume's sequence number at its `Header`. A
//! rejected volume is drained chunk by chunk, with no copy and no checksum,
//! and reported back as dropped: its length and checksum go unchecked.

use bda_num::Checksum;
use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::time::Duration;

/// The integrity checksum (the workspace-shared one in [`bda_num::hash`],
/// the same function as this pipe's `End` frame and the PAWR codec
/// trailer).
///
/// Re-exported here so pipeline supervisors can checksum a volume at scan
/// time and verify it end to end — the pipe's own checksum only covers the
/// transfer hop, not corruption introduced before the send.
pub use bda_num::checksum;

/// Frames flowing through the pipe.
enum Frame {
    Header { total_len: u64, seq: u64 },
    Chunk(Bytes),
    End { checksum: u64 },
}

/// Sending half.
pub struct PipeSender {
    tx: Sender<Frame>,
    chunk_bytes: usize,
}

/// A volume whose `Header` has arrived and whose `End` has not.
struct Partial {
    seq: u64,
    total_len: u64,
    /// The bytes so far and their checksum; `None` while the volume is
    /// drained because the caller rejected it at its header.
    body: Option<(BytesMut, Checksum)>,
}

/// What the receiver keeps between frames.
#[derive(Default)]
struct RecvState {
    /// The volume in progress, kept across a [`PipeError::Stalled`] return.
    partial: Option<Partial>,
    /// The last volume delivered, whose buffer the next one reuses once the
    /// caller has dropped every other handle to it.
    last: Option<Bytes>,
}

/// Receiving half.
pub struct PipeReceiver {
    rx: Receiver<Frame>,
    state: Mutex<RecvState>,
}

/// Errors on the receiving side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipeError {
    Disconnected,
    ProtocolViolation,
    LengthMismatch {
        expected: u64,
        got: u64,
    },
    ChecksumMismatch,
    /// The stall watchdog fired: no frame arrived within the timeout.
    Stalled,
}

impl std::fmt::Display for PipeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipeError::Disconnected => write!(f, "pipe disconnected"),
            PipeError::ProtocolViolation => write!(f, "frame out of order"),
            PipeError::LengthMismatch { expected, got } => {
                write!(f, "length mismatch: expected {expected}, got {got}")
            }
            PipeError::ChecksumMismatch => write!(f, "checksum mismatch"),
            PipeError::Stalled => write!(f, "transfer stalled past the watchdog timeout"),
        }
    }
}

impl std::error::Error for PipeError {}

/// Create a pipe with the given in-flight chunk capacity.
pub fn pipe(chunk_bytes: usize, capacity: usize) -> (PipeSender, PipeReceiver) {
    let (tx, rx) = bounded(capacity);
    (
        PipeSender {
            tx,
            chunk_bytes: chunk_bytes.max(1),
        },
        PipeReceiver {
            rx,
            state: Mutex::default(),
        },
    )
}

impl PipeSender {
    fn put(&self, frame: Frame) -> Result<(), PipeError> {
        self.tx.send(frame).map_err(|_| PipeError::Disconnected)
    }

    /// Send one complete volume with sequence number 0.
    pub fn send(&self, data: Bytes) -> Result<(), PipeError> {
        self.send_seq(0, data)
    }

    /// Send one complete volume labelled `seq`. Blocks when the pipe is
    /// full (natural back-pressure, like the real TCP stream).
    pub fn send_seq(&self, seq: u64, data: Bytes) -> Result<(), PipeError> {
        self.put(Frame::Header {
            total_len: data.len() as u64,
            seq,
        })?;
        let mut hash = Checksum::new();
        for start in (0..data.len()).step_by(self.chunk_bytes) {
            let end = (start + self.chunk_bytes).min(data.len());
            hash.update(&data[start..end]);
            self.put(Frame::Chunk(data.slice(start..end)))?;
        }
        self.put(Frame::End {
            checksum: hash.finish(),
        })
    }
}

impl Partial {
    /// Verify a kept volume's length and checksum against the `End` frame.
    /// A drained volume is not checked and comes back as `None`.
    fn finish(self, checksum: u64) -> Result<(u64, Option<Bytes>), PipeError> {
        let Some((buf, hash)) = self.body else {
            return Ok((self.seq, None));
        };
        if buf.len() as u64 != self.total_len {
            return Err(PipeError::LengthMismatch {
                expected: self.total_len,
                got: buf.len() as u64,
            });
        }
        if hash.finish() != checksum {
            return Err(PipeError::ChecksumMismatch);
        }
        Ok((self.seq, Some(buf.freeze())))
    }
}

impl PipeReceiver {
    /// Take one volume — header, chunks until `End` — assembling and
    /// verifying it if `keep` accepts its sequence number and draining it
    /// otherwise. `next` is how the caller waits for a frame; an error from
    /// it leaves the volume in progress for the next call.
    fn assemble(
        &self,
        next: impl Fn() -> Result<Frame, PipeError>,
        mut keep: impl FnMut(u64) -> bool,
    ) -> Result<(u64, Option<Bytes>), PipeError> {
        let mut state = self.state.lock();
        let RecvState { partial, last } = &mut *state;
        loop {
            let frame = next()?;
            match (partial.take(), frame) {
                (None, Frame::Header { total_len, seq }) => {
                    let body = keep(seq).then(|| {
                        let len = total_len as usize;
                        let buf = match last.take().map(Bytes::try_into_mut) {
                            Some(Ok(mut buf)) => {
                                buf.clear();
                                buf.reserve(len);
                                buf
                            }
                            // bda-check: allow(hot_alloc) — the first volume, or the caller still holds the last one
                            _ => BytesMut::with_capacity(len),
                        };
                        (buf, Checksum::new())
                    });
                    *partial = Some(Partial {
                        seq,
                        total_len,
                        body,
                    });
                }
                (Some(mut p), Frame::Chunk(c)) => {
                    if let Some((buf, hash)) = &mut p.body {
                        hash.update(&c);
                        buf.extend_from_slice(&c);
                    }
                    *partial = Some(p);
                }
                (Some(p), Frame::End { checksum }) => {
                    let (seq, volume) = p.finish(checksum)?;
                    if let Some(v) = &volume {
                        // bda-check: allow(hot_alloc) — a handle, not a copy: the next volume's buffer
                        *last = Some(v.clone());
                    }
                    return Ok((seq, volume));
                }
                _ => return Err(PipeError::ProtocolViolation),
            }
        }
    }

    /// Take volumes until one is kept; keeping every volume, the next one.
    fn first_kept(&self, next: impl Fn() -> Result<Frame, PipeError>) -> Result<Bytes, PipeError> {
        loop {
            if let (_, Some(volume)) = self.assemble(&next, |_| true)? {
                return Ok(volume);
            }
        }
    }

    /// The next frame, or [`PipeError::Stalled`] after `timeout` of silence.
    fn next_within(&self, timeout: Duration) -> Result<Frame, PipeError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => PipeError::Stalled,
            RecvTimeoutError::Disconnected => PipeError::Disconnected,
        })
    }

    /// Receive one complete volume, verifying length and checksum.
    pub fn recv(&self) -> Result<Bytes, PipeError> {
        self.first_kept(|| self.rx.recv().map_err(|_| PipeError::Disconnected))
    }

    /// Receive one complete volume, verifying length and checksum, under the
    /// stall watchdog of [`recv_seq_timeout`](Self::recv_seq_timeout).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, PipeError> {
        self.first_kept(|| self.next_within(timeout))
    }

    /// Receive one volume and its sequence number under a live stall
    /// watchdog: if the stream goes quiet for longer than `timeout` —
    /// before the header or mid-volume between chunks — the call gives up with
    /// [`PipeError::Stalled`] instead of blocking forever. This is the
    /// JIT-DT behaviour on Fugaku: a transfer daemon that stops making
    /// progress is declared dead and restarted rather than waited on.
    ///
    /// The timeout is per-frame (a watchdog on *progress*), not a bound on
    /// total volume duration, so a slow-but-moving large volume completes.
    /// A volume cut off by the watchdog is not lost: the next call picks it
    /// up at the frame where this one stopped.
    ///
    /// `keep` is the caller's verdict on the volume's sequence number, asked
    /// once, at its header. A kept volume is assembled, its length and
    /// checksum verified, and returned as `Some`. A rejected one is drained
    /// unread and unchecked, and returned as `None`.
    pub fn recv_seq_timeout(
        &self,
        timeout: Duration,
        keep: impl FnMut(u64) -> bool,
    ) -> Result<(u64, Option<Bytes>), PipeError> {
        self.assemble(|| self.next_within(timeout), keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small_message() {
        let (tx, rx) = pipe(16, 64);
        tx.send(Bytes::from_static(b"hello volume")).unwrap();
        let got = rx.recv().unwrap();
        assert_eq!(&got[..], b"hello volume");
    }

    #[test]
    fn roundtrip_large_message_across_threads() {
        let (tx, rx) = pipe(4096, 8);
        let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let payload = Bytes::from(data.clone());
        let handle = std::thread::spawn(move || tx.send(payload).unwrap());
        let got = rx.recv().unwrap();
        handle.join().unwrap();
        assert_eq!(got.len(), data.len());
        assert_eq!(&got[..100], &data[..100]);
        assert_eq!(&got[got.len() - 100..], &data[data.len() - 100..]);
    }

    #[test]
    fn multiple_volumes_in_order() {
        let (tx, rx) = pipe(8, 64);
        tx.send(Bytes::from_static(b"scan-1")).unwrap();
        tx.send(Bytes::from_static(b"scan-2")).unwrap();
        assert_eq!(&rx.recv().unwrap()[..], b"scan-1");
        assert_eq!(&rx.recv().unwrap()[..], b"scan-2");
    }

    #[test]
    fn disconnected_sender_yields_error() {
        let (tx, rx) = pipe(8, 8);
        drop(tx);
        assert_eq!(rx.recv().unwrap_err(), PipeError::Disconnected);
    }

    #[test]
    fn recv_timeout_returns_stalled_when_nothing_arrives() {
        let (tx, rx) = pipe(8, 8);
        let t0 = std::time::Instant::now();
        let err = rx.recv_timeout(Duration::from_millis(30)).unwrap_err();
        assert_eq!(err, PipeError::Stalled);
        assert!(t0.elapsed() >= Duration::from_millis(25));
        drop(tx);
    }

    #[test]
    fn recv_timeout_delivers_volume_that_arrives_in_time() {
        let (tx, rx) = pipe(8, 64);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(Bytes::from_static(b"late but alive")).unwrap();
        });
        let got = rx.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!(&got[..], b"late but alive");
        handle.join().unwrap();
    }

    #[test]
    fn recv_timeout_watches_progress_not_total_duration() {
        // Each chunk arrives within the watchdog window, but the whole
        // volume takes longer than one window: the watchdog must not fire.
        let (tx, rx) = pipe(4, 1);
        let handle = std::thread::spawn(move || {
            // capacity 1 forces the sender to trickle frames as the
            // receiver drains them; add pacing so the stream is slow.
            tx.send(Bytes::from(vec![7u8; 64])).unwrap();
        });
        let got = rx.recv_timeout(Duration::from_millis(200)).unwrap();
        assert_eq!(got.len(), 64);
        handle.join().unwrap();
    }

    #[test]
    fn recv_timeout_disconnected_sender() {
        let (tx, rx) = pipe(8, 8);
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(50)).unwrap_err(),
            PipeError::Disconnected
        );
    }

    #[test]
    fn public_checksum_matches_pipe_trailer_discipline() {
        // checksum is exposed so supervisors can checksum at scan time; it
        // must agree with itself across call sites and differ on corruption.
        let payload = b"volume payload".to_vec();
        let good = checksum(&payload);
        let mut bad = payload.clone();
        bad[3] ^= 0x40;
        assert_ne!(good, checksum(&bad));
        assert_eq!(good, checksum(&payload));
    }

    /// Push one volume's frames by hand: `Header` (with `seq`), `chunks`,
    /// then `End` carrying the checksum of `checksum_of`.
    fn push(tx: &PipeSender, seq: u64, total_len: usize, chunks: &[&[u8]], checksum_of: &[u8]) {
        tx.put(Frame::Header {
            total_len: total_len as u64,
            seq,
        })
        .unwrap();
        for c in chunks {
            tx.put(Frame::Chunk(Bytes::copy_from_slice(c))).unwrap();
        }
        tx.put(Frame::End {
            checksum: checksum(checksum_of),
        })
        .unwrap();
    }

    #[test]
    fn a_volume_cut_off_by_the_watchdog_resumes_on_the_next_receive() {
        let (tx, rx) = pipe(4, 64);
        let first = b"0123456789abcdef";
        let chunks: Vec<&[u8]> = first.chunks(4).collect();
        tx.put(Frame::Header {
            total_len: 16,
            seq: 41,
        })
        .unwrap();
        tx.put(Frame::Chunk(Bytes::copy_from_slice(chunks[0])))
            .unwrap();
        let wait = Duration::from_millis(20);
        assert_eq!(
            rx.recv_seq_timeout(wait, |_| true).unwrap_err(),
            PipeError::Stalled
        );
        for c in &chunks[1..] {
            tx.put(Frame::Chunk(Bytes::copy_from_slice(c))).unwrap();
        }
        tx.put(Frame::End {
            checksum: checksum(first),
        })
        .unwrap();
        tx.send(Bytes::from_static(b"second")).unwrap();
        // The resumed volume keeps the sequence number its header carried;
        // the pipe delivers numbers as sent and never interprets them.
        let (seq, data) = rx.recv_seq_timeout(wait, |_| true).unwrap();
        assert_eq!((seq, &data.unwrap()[..]), (41, &first[..]));
        let (seq, data) = rx.recv_seq_timeout(wait, |_| true).unwrap();
        assert_eq!((seq, &data.unwrap()[..]), (0, &b"second"[..]));
    }

    #[test]
    fn a_held_volume_and_its_slices_never_change() {
        let (tx, rx) = pipe(4, 64);
        tx.send(Bytes::from_static(b"volume-k")).unwrap();
        let k = rx.recv().unwrap();
        let tail = k.slice(7..);
        drop(k);
        // Only a slice of volume k is held: its buffer is not reused.
        tx.send(Bytes::from_static(b"volume-l")).unwrap();
        let l = rx.recv().unwrap();
        tx.send(Bytes::from_static(b"volume-m")).unwrap();
        // The whole of volume l is held while m arrives.
        let m = rx.recv().unwrap();
        assert_eq!(&tail[..], b"k");
        assert_eq!(&l[..], b"volume-l");
        assert_eq!(&m[..], b"volume-m");
        assert_ne!(l.as_ptr(), m.as_ptr());
    }

    #[test]
    fn a_dropped_volume_lends_its_buffer_to_the_next() {
        let (tx, rx) = pipe(4, 64);
        tx.send(Bytes::from_static(b"first volume")).unwrap();
        let first = rx.recv().unwrap();
        let at = first.as_ptr();
        drop(first);
        tx.send(Bytes::from_static(b"second vol")).unwrap();
        let second = rx.recv().unwrap();
        assert_eq!((&second[..], second.as_ptr()), (&b"second vol"[..], at));
    }

    #[test]
    fn a_volume_cut_off_by_the_watchdog_resumes_into_the_reused_buffer() {
        let (tx, rx) = pipe(4, 64);
        tx.send(Bytes::from_static(b"0123456789ab")).unwrap();
        let at = rx.recv().unwrap().as_ptr();
        let next = b"abcdefgh";
        tx.put(Frame::Header {
            total_len: 8,
            seq: 2,
        })
        .unwrap();
        tx.put(Frame::Chunk(Bytes::copy_from_slice(&next[..4])))
            .unwrap();
        let wait = Duration::from_millis(20);
        assert_eq!(
            rx.recv_seq_timeout(wait, |_| true).unwrap_err(),
            PipeError::Stalled
        );
        tx.put(Frame::Chunk(Bytes::copy_from_slice(&next[4..])))
            .unwrap();
        tx.put(Frame::End {
            checksum: checksum(next),
        })
        .unwrap();
        let (seq, data) = rx.recv_seq_timeout(wait, |_| true).unwrap();
        let data = data.unwrap();
        assert_eq!((seq, &data[..], data.as_ptr()), (2, &next[..], at));
    }

    #[test]
    fn a_volume_rejected_at_its_header_is_drained_unchecked() {
        // The supervisor's case: six leftovers of superseded cycles are
        // queued ahead of cycle 7's volume. Each leftover carries a wrong
        // `End` checksum (and one a missing chunk), so assembling or
        // checksumming any of them would fail the receive.
        let (tx, rx) = pipe(4, 64);
        for seq in 1..=6 {
            push(&tx, seq, 8, &[b"abcd", b"efgh"], b"not these bytes");
        }
        push(&tx, 6, 8, &[b"abcd"], b"abcdefgh");
        tx.send_seq(7, Bytes::from_static(b"cycle 7 volume"))
            .unwrap();
        let tracker = crate::SeqTracker::new();
        let keep = |seq| seq >= 7 && matches!(tracker.peek(seq), crate::SeqClass::Fresh { .. });
        let wait = Duration::from_millis(20);
        for seq in [1, 2, 3, 4, 5, 6, 6] {
            assert_eq!(rx.recv_seq_timeout(wait, keep).unwrap(), (seq, None));
        }
        let (seq, data) = rx.recv_seq_timeout(wait, keep).unwrap();
        assert_eq!((seq, &data.unwrap()[..]), (7, &b"cycle 7 volume"[..]));
    }

    #[test]
    fn a_chunk_altered_in_flight_is_a_checksum_mismatch() {
        let (tx, rx) = pipe(4, 64);
        push(&tx, 0, 8, &[b"abcd", b"eXgh"], b"abcdefgh");
        assert_eq!(rx.recv().unwrap_err(), PipeError::ChecksumMismatch);
        // The next volume is unaffected.
        tx.send(Bytes::from_static(b"next")).unwrap();
        assert_eq!(&rx.recv().unwrap()[..], b"next");
    }

    #[test]
    fn a_dropped_chunk_is_a_length_mismatch() {
        let (tx, rx) = pipe(4, 64);
        push(&tx, 0, 8, &[b"abcd"], b"abcdefgh");
        assert_eq!(
            rx.recv().unwrap_err(),
            PipeError::LengthMismatch {
                expected: 8,
                got: 4
            }
        );
    }

    #[test]
    fn an_end_without_a_header_is_a_protocol_violation() {
        let (tx, rx) = pipe(4, 64);
        tx.put(Frame::End { checksum: 0 }).unwrap();
        assert_eq!(rx.recv().unwrap_err(), PipeError::ProtocolViolation);
        tx.send(Bytes::from_static(b"next")).unwrap();
        assert_eq!(&rx.recv().unwrap()[..], b"next");
    }

    #[test]
    fn a_second_header_mid_volume_is_a_protocol_violation() {
        let (tx, rx) = pipe(4, 64);
        tx.put(Frame::Header {
            total_len: 8,
            seq: 0,
        })
        .unwrap();
        tx.put(Frame::Chunk(Bytes::from_static(b"abcd"))).unwrap();
        tx.send(Bytes::from_static(b"other")).unwrap();
        assert_eq!(rx.recv().unwrap_err(), PipeError::ProtocolViolation);
    }

    #[test]
    fn a_large_volume_shows_progress_to_a_tight_watchdog() {
        // 32 MiB in 64-KiB chunks under a 20-ms per-frame watchdog: the
        // sender must not go silent while it checksums the volume.
        let data: Vec<u8> = (0..32u32 << 20).map(|i| (i % 251) as u8).collect();
        let payload = Bytes::from(data);
        let (tx, rx) = pipe(64 * 1024, 64);
        let sent = payload.clone();
        let (got, sent) = std::thread::scope(move |s| {
            let sender = s.spawn(move || tx.send(sent));
            let got = rx.recv_timeout(Duration::from_millis(20));
            // A receiver that gave up must not leave the sender blocked.
            drop(rx);
            (got, sender.join().unwrap())
        });
        assert_eq!(got.unwrap(), payload);
        sent.unwrap();
    }

    #[test]
    fn empty_payload_roundtrips() {
        let (tx, rx) = pipe(8, 8);
        tx.send(Bytes::new()).unwrap();
        assert_eq!(rx.recv().unwrap().len(), 0);
    }
}
