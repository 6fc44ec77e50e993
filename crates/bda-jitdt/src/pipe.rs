//! A real in-process byte pipe with integrity checking.
//!
//! The live end-to-end pipeline example moves encoded PAWR volumes between
//! the "radar" thread and the "assimilation" thread through this pipe —
//! chunked like the real JIT-DT stream. A volume travels as one `Header`
//! frame (its length, the receiver's capacity hint), its chunks, and one
//! `End` frame carrying the integrity checksum ([`bda_num::Checksum`]) of
//! every byte sent.
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
//! arrived; the next receive continues that volume where it stopped.

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
    Header { total_len: u64 },
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
    total_len: u64,
    buf: BytesMut,
    hash: Checksum,
}

/// Receiving half.
pub struct PipeReceiver {
    rx: Receiver<Frame>,
    /// The volume in progress, kept across a [`PipeError::Stalled`] return.
    partial: Mutex<Option<Partial>>,
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
            partial: Mutex::new(None),
        },
    )
}

impl PipeSender {
    fn put(&self, frame: Frame) -> Result<(), PipeError> {
        self.tx.send(frame).map_err(|_| PipeError::Disconnected)
    }

    /// Send one complete volume. Blocks when the pipe is full (natural
    /// back-pressure, like the real TCP stream).
    pub fn send(&self, data: Bytes) -> Result<(), PipeError> {
        self.put(Frame::Header {
            total_len: data.len() as u64,
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
    /// Verify length and checksum against the `End` frame.
    fn finish(self, checksum: u64) -> Result<Bytes, PipeError> {
        if self.buf.len() as u64 != self.total_len {
            return Err(PipeError::LengthMismatch {
                expected: self.total_len,
                got: self.buf.len() as u64,
            });
        }
        if self.hash.finish() != checksum {
            return Err(PipeError::ChecksumMismatch);
        }
        Ok(self.buf.freeze())
    }
}

impl PipeReceiver {
    /// Assemble one volume — header, chunks until `End` — and verify its
    /// length and checksum. `next` is how the caller waits for a frame; an
    /// error from it leaves the volume in progress for the next call.
    fn assemble(&self, next: impl Fn() -> Result<Frame, PipeError>) -> Result<Bytes, PipeError> {
        let mut partial = self.partial.lock();
        loop {
            let frame = next()?;
            match (partial.take(), frame) {
                (None, Frame::Header { total_len }) => {
                    *partial = Some(Partial {
                        total_len,
                        buf: BytesMut::with_capacity(total_len as usize),
                        hash: Checksum::new(),
                    });
                }
                (Some(mut p), Frame::Chunk(c)) => {
                    p.hash.update(&c);
                    p.buf.extend_from_slice(&c);
                    *partial = Some(p);
                }
                (Some(p), Frame::End { checksum }) => return p.finish(checksum),
                _ => return Err(PipeError::ProtocolViolation),
            }
        }
    }

    /// Receive one complete volume, verifying length and checksum.
    pub fn recv(&self) -> Result<Bytes, PipeError> {
        self.assemble(|| self.rx.recv().map_err(|_| PipeError::Disconnected))
    }

    /// Receive one complete volume under a live stall watchdog: if the
    /// stream goes quiet for longer than `timeout` — before the header or
    /// mid-volume between chunks — the call gives up with
    /// [`PipeError::Stalled`] instead of blocking forever. This is the
    /// JIT-DT behaviour on Fugaku: a transfer daemon that stops making
    /// progress is declared dead and restarted rather than waited on.
    ///
    /// The timeout is per-frame (a watchdog on *progress*), not a bound on
    /// total volume duration, so a slow-but-moving large volume completes.
    /// A volume cut off by the watchdog is not lost: the next call picks it
    /// up at the frame where this one stopped.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, PipeError> {
        self.assemble(|| {
            self.rx.recv_timeout(timeout).map_err(|e| match e {
                RecvTimeoutError::Timeout => PipeError::Stalled,
                RecvTimeoutError::Disconnected => PipeError::Disconnected,
            })
        })
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

    /// Push one volume's frames by hand: `Header`, `chunks`, then `End`
    /// carrying the checksum of `checksum_of`.
    fn push(tx: &PipeSender, total_len: usize, chunks: &[&[u8]], checksum_of: &[u8]) {
        tx.put(Frame::Header {
            total_len: total_len as u64,
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
        tx.put(Frame::Header { total_len: 16 }).unwrap();
        tx.put(Frame::Chunk(Bytes::copy_from_slice(chunks[0])))
            .unwrap();
        let wait = Duration::from_millis(20);
        assert_eq!(rx.recv_timeout(wait).unwrap_err(), PipeError::Stalled);
        for c in &chunks[1..] {
            tx.put(Frame::Chunk(Bytes::copy_from_slice(c))).unwrap();
        }
        tx.put(Frame::End {
            checksum: checksum(first),
        })
        .unwrap();
        tx.send(Bytes::from_static(b"second")).unwrap();
        assert_eq!(&rx.recv_timeout(wait).unwrap()[..], first);
        assert_eq!(&rx.recv_timeout(wait).unwrap()[..], b"second");
    }

    #[test]
    fn a_chunk_altered_in_flight_is_a_checksum_mismatch() {
        let (tx, rx) = pipe(4, 64);
        push(&tx, 8, &[b"abcd", b"eXgh"], b"abcdefgh");
        assert_eq!(rx.recv().unwrap_err(), PipeError::ChecksumMismatch);
        // The next volume is unaffected.
        tx.send(Bytes::from_static(b"next")).unwrap();
        assert_eq!(&rx.recv().unwrap()[..], b"next");
    }

    #[test]
    fn a_dropped_chunk_is_a_length_mismatch() {
        let (tx, rx) = pipe(4, 64);
        push(&tx, 8, &[b"abcd"], b"abcdefgh");
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
        tx.put(Frame::Header { total_len: 8 }).unwrap();
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
