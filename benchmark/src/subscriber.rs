//! The benchmark's own subscriber: a blocking reader on one thread that
//! mirrors the tile stream and ACKs it.
//!
//! `bda_serve::storm::StormSwarm` is an adversarial load generator whose
//! report keeps counts only; the benchmark also needs the bytes each
//! subscriber received (to compare against a direct `encode_cycle`) and the
//! mirrored tiles (to compare against the published field), so it speaks
//! the public wire protocol itself.

use bda::num::fnv1a;
use bda::serve::server::{FRESH_JOIN, HELLO_BYTES, HELLO_MAGIC, MSG_HEADER_BYTES};
use bda::serve::tile::{decode_tile, TileAssembler};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often a blocked read wakes to look at the stop flag.
const READ_TIMEOUT: Duration = Duration::from_millis(20);

/// What one subscriber saw, returned when it stops.
pub struct Mirror {
    pub frames: usize,
    pub decode_errors: usize,
    /// Delta frames that did not apply to the mirrored tile.
    pub apply_errors: usize,
    /// Sequence numbers skipped or repeated.
    pub seq_errors: usize,
    /// `(cycle, frames, FNV-1a of the cycle's concatenated frame bytes)`,
    /// the same digest as `bda_serve::tile::stream_digest`.
    pub digests: Vec<(u64, usize, u64)>,
    pub tiles: TileAssembler,
    /// The connection ended before the subscriber was told to stop.
    pub disconnected: bool,
}

pub struct Subscriber {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Mirror>>,
}

impl Subscriber {
    /// Connect, say hello as a fresh joiner, and start mirroring.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(Duration::from_secs(2)))?;
        let mut hello = [0u8; HELLO_BYTES];
        hello[..4].copy_from_slice(HELLO_MAGIC);
        hello[4..].copy_from_slice(&FRESH_JOIN.to_be_bytes());
        stream.write_all(&hello)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("bench-subscriber".into())
            .spawn(move || mirror_loop(stream, &flag))?;
        Ok(Self {
            stop,
            handle: Some(handle),
        })
    }

    /// Stop reading and hand back what was mirrored.
    pub fn finish(mut self) -> Option<Mirror> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.take().and_then(|h| h.join().ok())
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn mirror_loop(mut stream: TcpStream, stop: &AtomicBool) -> Mirror {
    let mut m = Mirror {
        frames: 0,
        decode_errors: 0,
        apply_errors: 0,
        seq_errors: 0,
        digests: Vec::new(),
        tiles: TileAssembler::new(),
        disconnected: false,
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next_seq = 0u64;
    // Frame bytes of the cycle being received.
    let mut current: Option<(u64, usize, Vec<u8>)> = None;
    while !stop.load(Ordering::SeqCst) {
        match stream.read(&mut chunk) {
            Ok(0) => {
                m.disconnected = true;
                break;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => {
                m.disconnected = true;
                break;
            }
        }
        let mut off = 0;
        let mut newest = None;
        while buf.len() - off >= MSG_HEADER_BYTES {
            let seq = u64::from_be_bytes(buf[off..off + 8].try_into().expect("8-byte slice"));
            let len = u32::from_be_bytes(buf[off + 8..off + 12].try_into().expect("4-byte slice"));
            let len = len as usize;
            let body = off + MSG_HEADER_BYTES;
            if buf.len() - body < len {
                break;
            }
            let frame = &buf[body..body + len];
            if seq != next_seq {
                m.seq_errors += 1;
            }
            next_seq = seq + 1;
            match decode_tile(frame) {
                Ok(tile) => {
                    m.frames += 1;
                    if m.tiles.apply(&tile).is_err() {
                        m.apply_errors += 1;
                    }
                    match &mut current {
                        Some((cycle, n, bytes)) if *cycle == tile.cycle => {
                            *n += 1;
                            bytes.extend_from_slice(frame);
                        }
                        _ => {
                            if let Some((cycle, n, bytes)) = current.take() {
                                m.digests.push((cycle, n, fnv1a(&bytes)));
                            }
                            current = Some((tile.cycle, 1, frame.to_vec()));
                        }
                    }
                }
                Err(_) => m.decode_errors += 1,
            }
            newest = Some(seq);
            off = body + len;
        }
        buf.drain(..off);
        if let Some(seq) = newest {
            if stream.write_all(&seq.to_be_bytes()).is_err() {
                m.disconnected = true;
                break;
            }
        }
    }
    if let Some((cycle, n, bytes)) = current {
        m.digests.push((cycle, n, fnv1a(&bytes)));
    }
    m
}
