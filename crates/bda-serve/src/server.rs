//! The nowcast broadcast server.
//!
//! One [`NowcastServer`] sits at the egress end of the supervised 30-second
//! cycle: the forecast thread calls [`NowcastServer::publish`] once per
//! cycle, and every subscribed TCP client receives the quantized tile
//! stream. The design invariant, mirrored from the ingest side's
//! supervisor, is that **no client behaviour can stall a cycle**:
//!
//! * every client socket is nonblocking; the publish path never issues a
//!   blocking syscall;
//! * each client has a bounded frame queue — overflow is a typed
//!   [`EvictReason::SlowReader`] eviction, not memory growth;
//! * clients that accept bytes but never acknowledge them (a reader that
//!   drains the kernel buffer into a stuck pipeline — invisible to
//!   queue-overflow detection on loopback, where kernel buffers are
//!   generous) hit the [`EvictReason::AckLag`] backstop;
//! * the acceptor runs on its own thread with per-connection nonblocking
//!   handshakes, so a client that connects and sends nothing cannot block
//!   later joiners.
//!
//! Joins and rejoins are served snapshot-plus-delta from the
//! [`TileCache`]: a reconnector inside the cache window replays only the
//! deltas it missed; anyone else gets the newest key-frame snapshot. Every
//! client ends in exactly one [`ClientOutcome`] row of the final
//! [`ServeReport`] — the egress analogue of the supervisor's cycle table.

use crate::cache::{CatchUp, TileCache};
use crate::tile::{TileConfig, TileError, Tiler};
use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client → server hello: magic + the last cycle the client holds
/// (`u64::MAX` = fresh join).
pub const HELLO_MAGIC: &[u8; 4] = b"BDAH";
/// Hello length in bytes.
pub const HELLO_BYTES: usize = 4 + 8;
/// `last_cycle` wire value meaning "no state at all".
pub const FRESH_JOIN: u64 = u64::MAX;
/// Server → client message header: sequence number + frame length.
pub const MSG_HEADER_BYTES: usize = 8 + 4;

/// Handshake completion deadline; a connector silent past this is dropped
/// without ever reaching the subscriber list.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_millis(250);
/// Tile cache budget in bytes (snapshot-plus-delta catch-up window).
const CACHE_BYTES: usize = 4 << 20;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    pub tile: TileConfig,
    /// Per-client bounded send queue, in frames. Overflow evicts.
    pub queue_frames: usize,
    /// Maximum delivered-but-unacknowledged messages before the ack-lag
    /// backstop evicts. Must exceed one cycle's frame count plus a
    /// round-trip, or healthy clients get culled.
    pub ack_lag: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            tile: TileConfig::default(),
            queue_frames: 512,
            ack_lag: 64,
        }
    }
}

/// Why a client was removed from the subscriber list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictReason {
    /// Send queue overflowed: the socket stopped draining long enough for
    /// `queued` frames to pile up server-side.
    SlowReader { queued: usize },
    /// Accepted bytes but fell more than the ack-lag budget behind in
    /// acknowledgements.
    AckLag { delivered: u64, acked: Option<u64> },
    /// The peer closed or reset the connection.
    Disconnected,
    /// A socket error other than disconnect.
    SocketError { kind: ErrorKind },
}

impl std::fmt::Display for EvictReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvictReason::SlowReader { queued } => write!(f, "slow-reader ({queued} queued)"),
            EvictReason::AckLag { delivered, acked } => match acked {
                Some(a) => write!(f, "ack-lag (delivered {delivered}, acked {a})"),
                None => write!(f, "ack-lag (delivered {delivered}, never acked)"),
            },
            EvictReason::Disconnected => write!(f, "disconnected"),
            EvictReason::SocketError { kind } => write!(f, "socket error: {kind:?}"),
        }
    }
}

/// Final per-client accounting row.
#[derive(Clone, Debug)]
pub struct ClientOutcome {
    pub id: usize,
    /// Publish cycle at which the client was admitted.
    pub joined_cycle: u64,
    /// How it was brought up to date at admission.
    pub catch_up: CatchUp,
    /// Messages enqueued / fully written to the socket.
    pub enqueued: u64,
    pub delivered: u64,
    /// Highest message sequence number the client acknowledged.
    pub acked: Option<u64>,
    /// `None` = still connected at shutdown.
    pub evicted: Option<EvictReason>,
}

/// One cycle's publish accounting.
#[derive(Clone, Debug)]
pub struct PublishReport {
    pub cycle: u64,
    /// Tile frames in the delta stream.
    pub frames: usize,
    /// Bytes of the delta stream (before per-client fan-out).
    pub delta_bytes: usize,
    /// Live subscribers after this publish.
    pub clients: usize,
    /// Clients admitted this cycle, by catch-up route.
    pub joined_snapshot: usize,
    pub joined_delta: usize,
    pub joined_current: usize,
    /// Clients evicted during this publish.
    pub evicted: usize,
    /// Publish wall time (encode + fan-out + one pump), milliseconds.
    pub elapsed_ms: f64,
}

impl PublishReport {
    /// One-line note for the supervisor's egress column.
    pub fn note(&self) -> String {
        let joined = self.joined_snapshot + self.joined_delta + self.joined_current;
        format!(
            "{} tiles to {} clients (+{joined} -{}) {:.1}ms",
            self.frames, self.clients, self.evicted, self.elapsed_ms
        )
    }
}

/// Final server report: every client that ever completed a handshake has
/// exactly one row.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    pub outcomes: Vec<ClientOutcome>,
    /// Connections that never produced a valid hello in time.
    pub handshake_failures: usize,
    pub cycles_published: u64,
    pub cache_evicted_cycles: usize,
}

impl ServeReport {
    pub fn evicted(&self) -> usize {
        self.outcomes.iter().filter(|o| o.evicted.is_some()).count()
    }

    pub fn alive(&self) -> usize {
        self.outcomes.len() - self.evicted()
    }

    fn count_by(&self, f: impl Fn(&EvictReason) -> bool) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.evicted.as_ref().is_some_and(&f))
            .count()
    }

    /// Aggregate counts, for the 1000-client case where the full table is
    /// too long to read.
    pub fn summary(&self) -> String {
        format!(
            "{} clients: {} alive, {} slow-reader, {} ack-lag, {} disconnected, \
             {} socket-error; {} handshake failures; {} cycles",
            self.outcomes.len(),
            self.alive(),
            self.count_by(|e| matches!(e, EvictReason::SlowReader { .. })),
            self.count_by(|e| matches!(e, EvictReason::AckLag { .. })),
            self.count_by(|e| matches!(e, EvictReason::Disconnected)),
            self.count_by(|e| matches!(e, EvictReason::SocketError { .. })),
            self.handshake_failures,
            self.cycles_published,
        )
    }

    /// Full per-client outcome table.
    pub fn table(&self) -> String {
        let mut out =
            String::from("client  joined  catch-up          enq  deliv  acked  outcome\n");
        for o in &self.outcomes {
            let acked = o.acked.map(|a| a.to_string()).unwrap_or_else(|| "-".into());
            let outcome = o
                .evicted
                .as_ref()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "connected".into());
            out.push_str(&format!(
                "{:6}  {:6}  {:<16}  {:4}  {:5}  {:>5}  {}\n",
                o.id,
                o.joined_cycle,
                o.catch_up.to_string(),
                o.enqueued,
                o.delivered,
                acked,
                outcome,
            ));
        }
        out
    }
}

/// A handshake-complete connection waiting for admission at the next
/// publish.
struct Joined {
    stream: TcpStream,
    last_cycle: Option<u64>,
}

/// Acceptor ↔ publisher shared state.
struct Shared {
    pending: Mutex<Vec<Joined>>,
    stop: AtomicBool,
    handshake_failures: AtomicUsize,
}

struct ClientConn {
    id: usize,
    stream: TcpStream,
    queue: VecDeque<Bytes>,
    /// Bytes of the front message already written.
    front_written: usize,
    next_seq: u64,
    delivered: u64,
    acked: Option<u64>,
    ackbuf: Vec<u8>,
    joined_cycle: u64,
    catch_up: CatchUp,
    evict: Option<EvictReason>,
}

impl ClientConn {
    fn enqueue(&mut self, frame: &Bytes, queue_frames: usize) {
        if self.evict.is_some() {
            return;
        }
        if self.queue.len() >= queue_frames {
            self.evict = Some(EvictReason::SlowReader {
                queued: self.queue.len(),
            });
            return;
        }
        let mut msg = BytesMut::with_capacity(MSG_HEADER_BYTES + frame.len());
        msg.put_u64(self.next_seq);
        msg.put_u32(bda_num::cast::u32_of_index(frame.len()));
        msg.put_slice(frame);
        self.queue.push_back(msg.freeze());
        self.next_seq += 1;
    }

    /// Drain as much of the queue as the socket accepts and fold in any
    /// acknowledgements. Strictly nonblocking.
    fn pump(&mut self, ack_lag: u64) {
        if self.evict.is_some() {
            return;
        }
        while let Some(front) = self.queue.front() {
            match self.stream.write(&front[self.front_written..]) {
                Ok(0) => {
                    self.evict = Some(EvictReason::Disconnected);
                    return;
                }
                Ok(n) => {
                    self.front_written += n;
                    if self.front_written == front.len() {
                        self.queue.pop_front();
                        self.front_written = 0;
                        self.delivered += 1;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::BrokenPipe
                            | ErrorKind::ConnectionReset
                            | ErrorKind::ConnectionAborted
                    ) =>
                {
                    self.evict = Some(EvictReason::Disconnected);
                    return;
                }
                Err(e) => {
                    self.evict = Some(EvictReason::SocketError { kind: e.kind() });
                    return;
                }
            }
        }
        let mut buf = [0u8; 256];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.evict = Some(EvictReason::Disconnected);
                    return;
                }
                Ok(n) => {
                    self.ackbuf.extend_from_slice(&buf[..n]);
                    while self.ackbuf.len() >= 8 {
                        let rest = self.ackbuf.split_off(8);
                        let mut word = [0u8; 8];
                        word.copy_from_slice(&self.ackbuf);
                        self.ackbuf = rest;
                        let seq = u64::from_be_bytes(word);
                        // Hostile acks for messages never sent are capped
                        // at what was actually delivered.
                        let seq = seq.min(self.delivered.saturating_sub(1));
                        self.acked = Some(self.acked.map_or(seq, |a| a.max(seq)));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::BrokenPipe
                            | ErrorKind::ConnectionReset
                            | ErrorKind::ConnectionAborted
                    ) =>
                {
                    self.evict = Some(EvictReason::Disconnected);
                    return;
                }
                Err(e) => {
                    self.evict = Some(EvictReason::SocketError { kind: e.kind() });
                    return;
                }
            }
        }
        let acked_count = self.acked.map_or(0, |a| a + 1);
        if self.delivered.saturating_sub(acked_count) > ack_lag {
            self.evict = Some(EvictReason::AckLag {
                delivered: self.delivered,
                acked: self.acked,
            });
        }
    }

    fn outcome(&self) -> ClientOutcome {
        ClientOutcome {
            id: self.id,
            joined_cycle: self.joined_cycle,
            catch_up: self.catch_up.clone(),
            enqueued: self.next_seq,
            delivered: self.delivered,
            acked: self.acked,
            evicted: self.evict,
        }
    }
}

/// The broadcast server. See the module docs for the design invariants.
pub struct NowcastServer {
    cfg: ServeConfig,
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    tiler: Tiler,
    cache: TileCache,
    clients: Vec<ClientConn>,
    finished: Vec<ClientOutcome>,
    next_id: usize,
    cycles_published: u64,
}

impl NowcastServer {
    /// Bind to a loopback ephemeral port and start the acceptor thread.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            pending: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            handshake_failures: AtomicUsize::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("bda-serve-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Self {
            tiler: Tiler::new(cfg.tile),
            cache: TileCache::new(CACHE_BYTES),
            cfg,
            addr,
            shared,
            acceptor: Some(acceptor),
            clients: Vec::new(),
            finished: Vec::new(),
            next_id: 0,
            cycles_published: 0,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live subscribers (handshaken clients admitted and not yet evicted).
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// True when every live client has an empty queue and has acknowledged
    /// everything delivered to it — the published product is confirmed
    /// received end-to-end, not merely parked in kernel buffers.
    pub fn fully_acked(&self) -> bool {
        self.clients.iter().all(|c| {
            c.queue.is_empty()
                && c.delivered == c.next_seq
                && c.acked.map_or(0, |a| a + 1) == c.delivered
        })
    }

    /// Publish one cycle's reflectivity product to every subscriber.
    ///
    /// Runs entirely nonblocking: encode on the rayon pool, bounded
    /// enqueue per client, one parallel pump. A stalled client costs one
    /// eviction record, never wall time.
    pub fn publish(
        &mut self,
        cycle: u64,
        field: &[f64],
        w: usize,
        h: usize,
        stale: bool,
    ) -> Result<PublishReport, TileError> {
        let t0 = Instant::now(); // bda-check: allow(wallclock) — publish-latency telemetry
        let tiles = self.tiler.encode_cycle(cycle, field, w, h, stale)?;
        let frames = tiles.deltas.len();
        let delta_bytes = tiles.delta_bytes();
        self.cache
            .insert(cycle, tiles.deltas.clone(), tiles.keys.clone());

        // Admit pending joiners with snapshot-plus-delta catch-up (which,
        // after the insert above, already covers this cycle).
        let pending = std::mem::take(&mut *self.shared.pending.lock());
        let (mut joined_snapshot, mut joined_delta, mut joined_current) = (0, 0, 0);
        for j in pending {
            let (catch_frames, route) = self.cache.catch_up(j.last_cycle);
            match route {
                CatchUp::Snapshot { .. } => joined_snapshot += 1,
                CatchUp::Deltas { .. } => joined_delta += 1,
                CatchUp::Current => joined_current += 1,
            }
            let mut conn = ClientConn {
                id: self.next_id,
                stream: j.stream,
                queue: VecDeque::new(),
                front_written: 0,
                next_seq: 0,
                delivered: 0,
                acked: None,
                ackbuf: Vec::new(),
                joined_cycle: cycle,
                catch_up: route,
                evict: None,
            };
            self.next_id += 1;
            for f in &catch_frames {
                conn.enqueue(f, self.cfg.queue_frames);
            }
            self.clients.push(conn);
        }

        // Fan the delta stream out to everyone admitted before this cycle.
        for conn in &mut self.clients {
            if conn.joined_cycle == cycle {
                continue; // catch-up already covered this cycle
            }
            for f in &tiles.deltas {
                conn.enqueue(f, self.cfg.queue_frames);
            }
        }

        // One parallel pump: every socket drained as far as it will go,
        // acks folded in, lag checked — all nonblocking.
        let ack_lag = self.cfg.ack_lag;
        self.clients.par_iter_mut().for_each(|c| c.pump(ack_lag));

        let evicted = self.sweep();
        self.cycles_published += 1;
        Ok(PublishReport {
            cycle,
            frames,
            delta_bytes,
            clients: self.clients.len(),
            joined_snapshot,
            joined_delta,
            joined_current,
            evicted,
            elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// One extra nonblocking drain of every client queue (between cycles,
    /// and at shutdown). Returns the number of still-queued frames.
    pub fn pump_all(&mut self) -> usize {
        let ack_lag = self.cfg.ack_lag;
        self.clients.par_iter_mut().for_each(|c| c.pump(ack_lag));
        self.sweep();
        self.clients.iter().map(|c| c.queue.len()).sum()
    }

    /// Move evicted clients to the outcome list, dropping their sockets.
    fn sweep(&mut self) -> usize {
        let before = self.clients.len();
        let mut kept = Vec::with_capacity(before);
        for c in self.clients.drain(..) {
            if c.evict.is_some() {
                self.finished.push(c.outcome());
            } else {
                kept.push(c);
            }
        }
        self.clients = kept;
        before - self.clients.len()
    }

    /// Stop accepting, drain what the sockets will take within
    /// `drain_budget`, and produce the final per-client outcome table.
    pub fn shutdown(mut self, drain_budget: Duration) -> ServeReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let deadline = Instant::now() + drain_budget; // bda-check: allow(wallclock) — shutdown drain budget
        loop {
            let queued = self.pump_all();
            if queued == 0 {
                break;
            }
            // bda-check: allow(wallclock) — shutdown drain budget
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut outcomes = std::mem::take(&mut self.finished);
        for c in &self.clients {
            outcomes.push(c.outcome());
        }
        outcomes.sort_by_key(|o| o.id);
        ServeReport {
            outcomes,
            handshake_failures: self.shared.handshake_failures.load(Ordering::SeqCst),
            cycles_published: self.cycles_published,
            cache_evicted_cycles: self.cache.evicted_cycles(),
        }
    }
}

impl Drop for NowcastServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Acceptor thread body: nonblocking accepts plus per-connection
/// nonblocking handshakes, so one silent connector never delays another.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    struct Inflight {
        stream: Option<TcpStream>,
        buf: [u8; HELLO_BYTES],
        got: usize,
        since: Instant,
    }
    /// One nonblocking handshake step. `Some(keep)` resolves the
    /// connection; `None` leaves it in flight.
    fn step(c: &mut Inflight, done: &mut Vec<Joined>, shared: &Shared) -> Option<()> {
        let stream = c.stream.as_mut()?;
        loop {
            match stream.read(&mut c.buf[c.got..]) {
                Ok(0) => {
                    shared.handshake_failures.fetch_add(1, Ordering::SeqCst);
                    c.stream = None;
                    return Some(());
                }
                Ok(n) => {
                    c.got += n;
                    if c.got == HELLO_BYTES {
                        if &c.buf[..4] == HELLO_MAGIC {
                            let mut word = [0u8; 8];
                            word.copy_from_slice(&c.buf[4..]);
                            let last = u64::from_be_bytes(word);
                            if let Some(stream) = c.stream.take() {
                                done.push(Joined {
                                    stream,
                                    last_cycle: (last != FRESH_JOIN).then_some(last),
                                });
                            }
                        } else {
                            shared.handshake_failures.fetch_add(1, Ordering::SeqCst);
                            c.stream = None;
                        }
                        return Some(());
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    shared.handshake_failures.fetch_add(1, Ordering::SeqCst);
                    c.stream = None;
                    return Some(());
                }
            }
        }
    }

    let mut inflight: Vec<Inflight> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        let mut progressed = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        shared.handshake_failures.fetch_add(1, Ordering::SeqCst);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    inflight.push(Inflight {
                        stream: Some(stream),
                        buf: [0; HELLO_BYTES],
                        got: 0,
                        since: Instant::now(), // bda-check: allow(wallclock) — handshake deadline
                    });
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        let mut done = Vec::new();
        for c in &mut inflight {
            if step(c, &mut done, shared).is_none() && c.since.elapsed() >= HANDSHAKE_TIMEOUT {
                shared.handshake_failures.fetch_add(1, Ordering::SeqCst);
                c.stream = None;
            }
        }
        inflight.retain(|c| c.stream.is_some());
        if !done.is_empty() {
            progressed = true;
            shared.pending.lock().extend(done);
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}
