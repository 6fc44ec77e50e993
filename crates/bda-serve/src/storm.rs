//! Deterministic adversarial client swarm.
//!
//! The server's fault tolerance claims mean nothing without hostile load,
//! so this module is the load: a single thread driving hundreds to
//! thousands of nonblocking subscriber sockets against a
//! [`NowcastServer`](crate::server::NowcastServer), with a seeded mix of
//! well-behaved and hostile behaviours:
//!
//! * **slow readers** — stop draining their socket (kernel buffer fills,
//!   then the server's queue; must end as a `SlowReader` eviction);
//! * **never-ACK** — read and parse everything but acknowledge nothing
//!   (must end as an `AckLag` eviction);
//! * **mid-stream disconnects** — close abruptly partway through a frame;
//! * **reconnect / connection storms** — bursts of fresh joins and
//!   rejoins with a stale `last_cycle`, exercising snapshot-plus-delta
//!   catch-up under load.
//!
//! Which clients are hostile is a pure function of the seed; *when*
//! behaviours trigger comes from the shared
//! [`FaultPlan`](bda_workflow::fault::FaultPlan) (`slowclient:N@C`,
//! `connstorm:N@C`), so one spec string composes ingest and egress faults
//! into a single reproducible campaign.
//!
//! Every healthy client verifies each frame end-to-end: checksum via
//! [`decode_tile`], sequencing via the shared
//! [`SeqTracker`](bda_jitdt::sequence::SeqTracker), and delta reassembly
//! via [`TileAssembler`] — so the swarm report is also an integrity check
//! of the whole egress path.

use crate::server::{FRESH_JOIN, HELLO_BYTES, HELLO_MAGIC, MSG_HEADER_BYTES};
use crate::tile::{decode_tile, TileAssembler};
use bda_jitdt::sequence::{SeqClass, SeqTracker};
use bda_num::rng::SplitMix64;
use bda_workflow::backoff::Backoff;
use bda_workflow::fault::{Fault, FaultPlan};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::Duration;

/// Swarm sizing and hostility mix. Fractions are applied deterministically
/// from the seed at spawn time.
#[derive(Clone, Copy, Debug)]
pub struct SwarmConfig {
    /// Initial subscriber count.
    pub clients: usize,
    pub seed: u64,
    /// Fraction of initial clients that never acknowledge.
    pub never_ack: f64,
    /// Fraction that disconnect abruptly mid-stream (after a seeded number
    /// of bytes, deliberately not frame-aligned).
    pub mid_stream_disconnect: f64,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        Self {
            clients: 100,
            seed: 0x5eed,
            never_ack: 0.02,
            mid_stream_disconnect: 0.02,
        }
    }
}

/// What one swarm client observed before it stopped.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// Frames received, decoded, and checksum-verified.
    pub frames: usize,
    /// Tile frames that failed to decode (any nonzero value means wire
    /// corruption reached a client).
    pub decode_errors: usize,
    /// Duplicate / out-of-order message sequence numbers observed.
    pub seq_duplicates: usize,
    pub seq_out_of_order: usize,
    /// Sequence numbers skipped (catch-up rejoins legitimately reset).
    pub seq_gaps: u64,
    /// Delta frames that arrived with no base established.
    pub orphan_deltas: usize,
    pub hostile: bool,
}

/// Aggregated swarm-side report.
#[derive(Clone, Debug, Default)]
pub struct SwarmReport {
    pub clients: Vec<ClientStats>,
    /// Connections that never completed (server backlog under storm).
    pub connect_failures: usize,
}

impl SwarmReport {
    pub fn total_frames(&self) -> usize {
        self.clients.iter().map(|c| c.frames).sum()
    }

    pub fn decode_errors(&self) -> usize {
        self.clients.iter().map(|c| c.decode_errors).sum()
    }

    pub fn hostile_clients(&self) -> usize {
        self.clients.iter().filter(|c| c.hostile).count()
    }

    pub fn summary(&self) -> String {
        format!(
            "{} clients ({} hostile): {} frames verified, {} decode errors, \
             {} dup / {} ooo / {} gap seqs, {} orphan deltas, {} connect failures",
            self.clients.len(),
            self.hostile_clients(),
            self.total_frames(),
            self.decode_errors(),
            self.clients.iter().map(|c| c.seq_duplicates).sum::<usize>(),
            self.clients
                .iter()
                .map(|c| c.seq_out_of_order)
                .sum::<usize>(),
            self.clients.iter().map(|c| c.seq_gaps).sum::<u64>(),
            self.clients.iter().map(|c| c.orphan_deltas).sum::<usize>(),
            self.connect_failures,
        )
    }
}

enum Behaviour {
    Healthy,
    NeverAck,
    /// Stop reading at the given cycle (set by `slowclient:N@C`).
    SlowFrom(u64),
    /// Shut the socket down after this many received bytes.
    DisconnectAfter(usize),
}

struct SwarmClient {
    stream: Option<TcpStream>,
    behaviour: Behaviour,
    tracker: SeqTracker,
    assembler: TileAssembler,
    stats: ClientStats,
    /// Unparsed wire bytes (partial messages).
    buf: Vec<u8>,
    bytes_read: usize,
    acked: Option<u64>,
}

impl SwarmClient {
    fn connect(addr: SocketAddr, last_cycle: Option<u64>) -> std::io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut hello = [0u8; HELLO_BYTES];
        hello[..4].copy_from_slice(HELLO_MAGIC);
        hello[4..].copy_from_slice(&last_cycle.unwrap_or(FRESH_JOIN).to_be_bytes());
        stream.write_all(&hello)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream: Some(stream),
            behaviour: Behaviour::Healthy,
            tracker: SeqTracker::new(),
            assembler: TileAssembler::new(),
            stats: ClientStats::default(),
            buf: Vec::new(),
            bytes_read: 0,
            acked: None,
        })
    }

    /// One nonblocking poll round: read, parse complete messages, verify,
    /// acknowledge.
    fn poll(&mut self, current_cycle: u64) {
        if let Behaviour::SlowFrom(c) = self.behaviour {
            if current_cycle >= c {
                return; // playing dead: stop draining entirely
            }
        }
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    self.stream = None;
                    return;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.bytes_read += n;
                    if let Behaviour::DisconnectAfter(limit) = self.behaviour {
                        if self.bytes_read >= limit {
                            // Abrupt mid-stream close, deliberately not
                            // frame-aligned.
                            self.stream = None;
                            self.stats.hostile = true;
                            return;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.stream = None;
                    return;
                }
            }
        }
        self.parse_messages();
        self.send_ack();
    }

    fn parse_messages(&mut self) {
        let mut off = 0usize;
        let mut newest = None;
        while self.buf.len() - off >= MSG_HEADER_BYTES {
            let head = &self.buf[off..off + MSG_HEADER_BYTES];
            let mut seq_word = [0u8; 8];
            seq_word.copy_from_slice(&head[..8]);
            let seq = u64::from_be_bytes(seq_word);
            let mut len_word = [0u8; 4];
            len_word.copy_from_slice(&head[8..]);
            let len = bda_num::cast::index_of_u32(u32::from_be_bytes(len_word));
            if self.buf.len() - off - MSG_HEADER_BYTES < len {
                break; // partial frame: wait for more bytes
            }
            let frame = &self.buf[off + MSG_HEADER_BYTES..off + MSG_HEADER_BYTES + len];
            match self.tracker.classify(seq) {
                SeqClass::Fresh { gap } => self.stats.seq_gaps += gap,
                SeqClass::Duplicate { .. } => self.stats.seq_duplicates += 1,
                SeqClass::OutOfOrder { .. } => self.stats.seq_out_of_order += 1,
            }
            match decode_tile(frame) {
                Ok(tile) => {
                    self.stats.frames += 1;
                    if self.assembler.apply(&tile).is_err() {
                        self.stats.orphan_deltas += 1;
                    }
                }
                Err(_) => self.stats.decode_errors += 1,
            }
            newest = Some(seq);
            off += MSG_HEADER_BYTES + len;
        }
        if off > 0 {
            self.buf.drain(..off);
        }
        if let Some(seq) = newest {
            self.acked = Some(self.acked.map_or(seq, |a| a.max(seq)));
        }
    }

    fn send_ack(&mut self) {
        if matches!(self.behaviour, Behaviour::NeverAck) {
            return;
        }
        let (Some(stream), Some(seq)) = (self.stream.as_mut(), self.acked) else {
            return;
        };
        // Nonblocking single-shot ack: losing one is fine, the next poll
        // re-acks the newest sequence number.
        match stream.write(&seq.to_be_bytes()) {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => self.stream = None,
        }
    }
}

/// Control messages from the campaign driver to the swarm thread.
pub enum SwarmEvent {
    /// A cycle was published; apply this cycle's scheduled egress faults.
    Cycle(u64),
    /// Drain what remains, then report.
    Stop,
}

/// Handle to a running swarm thread.
pub struct StormSwarm {
    tx: Sender<SwarmEvent>,
    handle: std::thread::JoinHandle<SwarmReport>,
}

impl StormSwarm {
    /// Spawn the swarm against `addr`. Hostile roles are assigned from
    /// `cfg.seed`; per-cycle behaviours come from `plan`.
    pub fn launch(addr: SocketAddr, cfg: SwarmConfig, plan: FaultPlan) -> Self {
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("bda-serve-swarm".into())
            .spawn(move || swarm_loop(addr, cfg, &plan, &rx))
            .unwrap_or_else(|e| panic!("swarm thread spawn failed: {e}"));
        Self { tx, handle }
    }

    /// Notify the swarm that `cycle` was published (applies scheduled
    /// faults for that cycle).
    pub fn on_cycle(&self, cycle: u64) {
        let _ = self.tx.send(SwarmEvent::Cycle(cycle));
    }

    /// A cloneable handle for notifying cycles from another thread (e.g.
    /// the supervisor's forecast thread, where the egress stage runs).
    pub fn cycle_sender(&self) -> Sender<SwarmEvent> {
        self.tx.clone()
    }

    /// Stop the swarm and collect its report.
    pub fn finish(self) -> SwarmReport {
        let _ = self.tx.send(SwarmEvent::Stop);
        self.handle
            .join()
            .unwrap_or_else(|_| panic!("swarm thread panicked"))
    }
}

fn connect_with_retry(
    addr: SocketAddr,
    last_cycle: Option<u64>,
    failures: &mut usize,
) -> Option<SwarmClient> {
    // The listener backlog is finite; under a connection storm a connect
    // can be refused. Bounded retry with a short pause absorbs it — the
    // shared policy with cap == base keeps the historical flat 2 ms pause.
    let mut backoff =
        Backoff::new(Duration::from_millis(2), Duration::from_millis(2)).with_max_attempts(20);
    loop {
        match SwarmClient::connect(addr, last_cycle) {
            Ok(c) => return Some(c),
            Err(_) => match backoff.next_delay() {
                Some(delay) => std::thread::sleep(delay),
                None => break,
            },
        }
    }
    *failures += 1;
    None
}

fn swarm_loop(
    addr: SocketAddr,
    cfg: SwarmConfig,
    plan: &FaultPlan,
    rx: &Receiver<SwarmEvent>,
) -> SwarmReport {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut clients: Vec<SwarmClient> = Vec::with_capacity(cfg.clients);
    let mut report = SwarmReport::default();

    for _ in 0..cfg.clients {
        let Some(mut c) = connect_with_retry(addr, None, &mut report.connect_failures) else {
            continue;
        };
        // Seeded role assignment: the same seed always elects the same
        // hostile cohort.
        let roll = rng.next_uniform();
        if roll < cfg.never_ack {
            c.behaviour = Behaviour::NeverAck;
            c.stats.hostile = true;
        } else if roll < cfg.never_ack + cfg.mid_stream_disconnect {
            let after = 64 + rng.next_index(4096);
            c.behaviour = Behaviour::DisconnectAfter(after);
            c.stats.hostile = true;
        }
        clients.push(c);
    }

    let mut current_cycle = 0u64;
    let mut stopping = false;
    let mut drain_rounds = 0usize;
    loop {
        loop {
            match rx.try_recv() {
                Ok(SwarmEvent::Cycle(cycle)) => {
                    current_cycle = cycle;
                    let cycle_idx = usize::try_from(cycle).unwrap_or(usize::MAX);
                    // slowclient:N@C — the first N still-healthy clients
                    // stop draining from this cycle on (deterministic:
                    // list order is join order).
                    let mut to_slow: usize = plan.args(cycle_idx, Fault::SlowClients).sum();
                    for c in clients.iter_mut() {
                        if to_slow == 0 {
                            break;
                        }
                        if matches!(c.behaviour, Behaviour::Healthy) && c.stream.is_some() {
                            c.behaviour = Behaviour::SlowFrom(cycle);
                            c.stats.hostile = true;
                            to_slow -= 1;
                        }
                    }
                    // connstorm:N@C — burst joins; odd ones rejoin with a
                    // stale last_cycle to force catch-up, even ones are
                    // fresh.
                    for k in 0..plan.args(cycle_idx, Fault::ConnStorm).sum::<usize>() {
                        let last = if k % 2 == 1 && cycle > 0 {
                            Some(u64_min(rng.next_index(cycle_idx.max(1)), cycle))
                        } else {
                            None
                        };
                        if let Some(c) =
                            connect_with_retry(addr, last, &mut report.connect_failures)
                        {
                            clients.push(c);
                        }
                    }
                }
                Ok(SwarmEvent::Stop) => stopping = true,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => stopping = true,
            }
            if stopping {
                break;
            }
        }
        for c in clients.iter_mut() {
            c.poll(current_cycle);
        }
        if stopping {
            drain_rounds += 1;
            // A few extra rounds pick up frames still in flight, then the
            // swarm reports what it saw.
            if drain_rounds > 25 {
                break;
            }
        }
        std::thread::sleep(Duration::from_micros(if stopping { 2000 } else { 300 }));
    }
    report.clients = clients.into_iter().map(|c| c.stats).collect();
    report
}

#[inline]
fn u64_min(a: usize, b: u64) -> u64 {
    bda_num::cast::u64_of(a).min(b)
}
