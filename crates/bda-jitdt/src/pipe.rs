//! A real in-process byte pipe with integrity checking.
//!
//! The live end-to-end pipeline example moves encoded PAWR volumes between
//! the "radar" thread and the "assimilation" thread through this pipe —
//! chunked like the real JIT-DT stream, with a length/checksum trailer that
//! the receiver verifies before handing the volume to the LETKF.

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// FNV-1a payload checksum (the workspace-shared implementation in
/// [`bda_num::hash`] — the same polynomial as the PAWR codec trailer).
///
/// Re-exported here so pipeline supervisors can checksum a volume at scan
/// time and verify it end to end — the pipe's own trailer only covers the
/// transfer hop, not corruption introduced before the send.
pub use bda_num::fnv1a;

/// Frames flowing through the pipe.
enum Frame {
    Header { total_len: u64, checksum: u64 },
    Chunk(Bytes),
    End,
}

/// Sending half.
pub struct PipeSender {
    tx: Sender<Frame>,
    chunk_bytes: usize,
}

/// Receiving half.
pub struct PipeReceiver {
    rx: Receiver<Frame>,
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
        PipeReceiver { rx },
    )
}

impl PipeSender {
    /// Send one complete volume. Blocks when the pipe is full (natural
    /// back-pressure, like the real TCP stream).
    pub fn send(&self, data: Bytes) -> Result<(), PipeError> {
        let header = Frame::Header {
            total_len: data.len() as u64,
            checksum: fnv1a(&data),
        };
        self.tx.send(header).map_err(|_| PipeError::Disconnected)?;
        let mut offset = 0;
        while offset < data.len() {
            let end = (offset + self.chunk_bytes).min(data.len());
            self.tx
                .send(Frame::Chunk(data.slice(offset..end)))
                .map_err(|_| PipeError::Disconnected)?;
            offset = end;
        }
        self.tx
            .send(Frame::End)
            .map_err(|_| PipeError::Disconnected)
    }
}

/// Assemble one volume — header, chunks until `End` — and verify its
/// length and checksum. `next` is how the caller waits for a frame.
fn assemble(next: impl Fn() -> Result<Frame, PipeError>) -> Result<Bytes, PipeError> {
    let Frame::Header {
        total_len,
        checksum,
    } = next()?
    else {
        return Err(PipeError::ProtocolViolation);
    };
    let mut buf = BytesMut::with_capacity(total_len as usize);
    loop {
        match next()? {
            Frame::Chunk(c) => buf.extend_from_slice(&c),
            Frame::End => break,
            Frame::Header { .. } => return Err(PipeError::ProtocolViolation),
        }
    }
    if buf.len() as u64 != total_len {
        return Err(PipeError::LengthMismatch {
            expected: total_len,
            got: buf.len() as u64,
        });
    }
    let data = buf.freeze();
    if fnv1a(&data) != checksum {
        return Err(PipeError::ChecksumMismatch);
    }
    Ok(data)
}

impl PipeReceiver {
    /// Receive one complete volume, verifying length and checksum.
    pub fn recv(&self) -> Result<Bytes, PipeError> {
        assemble(|| self.rx.recv().map_err(|_| PipeError::Disconnected))
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
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, PipeError> {
        assemble(|| {
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
        // fnv1a is exposed so supervisors can checksum at scan time; it must
        // agree with itself across call sites and differ on corruption.
        let payload = b"volume payload".to_vec();
        let good = fnv1a(&payload);
        let mut bad = payload.clone();
        bad[3] ^= 0x40;
        assert_ne!(good, fnv1a(&bad));
        assert_eq!(good, fnv1a(&payload));
    }

    #[test]
    fn empty_payload_roundtrips() {
        let (tx, rx) = pipe(8, 8);
        tx.send(Bytes::new()).unwrap();
        assert_eq!(rx.recv().unwrap().len(), 0);
    }
}
