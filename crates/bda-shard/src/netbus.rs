//! Loopback-TCP halo transport with epoch fencing.
//!
//! [`NetBus`] implements [`HaloTransport`] over
//! real sockets: every shard binds a loopback listener, advertises its
//! port through a registry file on the control-plane directory, and pushes
//! sealed halo frames to every peer as `BDAN` messages
//! ([`crate::wire`]). The file [`HaloBus`] stays underneath as the
//! *control plane* (records, dead markers, the forecast-only directive,
//! link-health lines) — only the hot halo path moves onto sockets.
//!
//! The design invariant is the crate's: **no network behaviour can
//! corrupt an analysis — only degrade it** onto the typed ladder.
//! Concretely:
//!
//! - **Sealed frames, resynced streams.** Bytes damaged in transit fail
//!   the body checksum and cost the receiver exactly one magic; garbage
//!   between messages is skipped to the next magic. Both are typed
//!   [`WireEvent`]s counted in [`NetStats`], never applied state.
//! - **Epoch fencing.** Every (re)spawn of a shard's bus increments a
//!   durable epoch (`epoch-s{NNN}` on the control plane) carried in the
//!   hello handshake and every frame. Receivers fence each peer at the
//!   highest epoch seen; anything older is a zombie writer and lands on
//!   [`HaloError::StaleEpoch`] — a typed reject, never an applied halo.
//! - **Pull-based recovery.** Publishers keep their sealed frames in an
//!   in-cycle history; a receiver that missed a push (partition, respawn,
//!   lost connection) sends `REQ` and gets the frame replayed. Respawn
//!   replay, partition heal and plain packet loss all share this one
//!   path, which is why socket federations keep bit-parity across them.
//! - **Bounded, jittered reconnect.** Outbound links redial through the
//!   shared [`Backoff`] helper; a link down past `PARTITION_AFTER` turns
//!   [`LinkHealth::Partitioned`], one that keeps redialing turns
//!   [`LinkHealth::Flapping`] — published to the control plane for the
//!   supervisor's quorum arithmetic.
//!
//! Delivery failure is *not* a publish error: a partitioned peer simply
//! misses the push and either pulls the frame later or degrades onto
//! halo-reuse at its deadline. Only local encode failures surface.

use crate::bus::{CollectStatus, HaloBus, HaloTransport};
use crate::fence::{Admit, FenceTable, SlotGet};
use crate::msg::{decode_halo, encode_halo, HaloError, HaloFrame};
use crate::wire::{encode_msg, NetFrameReader, NetMsg, WireEvent};
use bda_num::{cast, Real};
use bda_workflow::backoff::Backoff;
use bda_workflow::LinkHealth;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many cycles behind a shard's own published cycle a halo slot — or
/// a frame in this shard's own `REQ` replay history — may lag before
/// `publish` drops it: far beyond any collection deadline, so pruning can
/// never race a live collect or a pull that could still be used.
pub const INBOX_KEEP_CYCLES: u64 = 64;

/// Registry file carrying shard `shard`'s advertised listen port.
pub fn registry_name(shard: usize) -> String {
    format!("net-s{shard:03}")
}

/// Registry file carrying shard `shard`'s *raw* listen port when an
/// in-path proxy owns the advertised one (chaos mode).
pub fn raw_registry_name(shard: usize) -> String {
    format!("net-raw-s{shard:03}")
}

/// Durable epoch counter for shard `shard` — read + incremented on every
/// [`NetBus::start`] so respawns fence their predecessors.
pub fn epoch_name(shard: usize) -> String {
    format!("epoch-s{shard:03}")
}

/// Interval between heartbeats (which double as the reconnect and
/// link-health clock).
const HEARTBEAT: Duration = Duration::from_millis(25);
/// Reconnect backoff base (jittered, see [`Backoff`]).
const RECONNECT_BASE: Duration = Duration::from_millis(5);
/// Reconnect backoff cap.
const RECONNECT_CAP: Duration = Duration::from_millis(160);
/// Dial timeout for one connection attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// Socket read timeout — the granularity at which reader threads notice
/// shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(25);
/// A link down longer than this is `Partitioned`.
const PARTITION_AFTER: Duration = Duration::from_millis(400);
/// Reconnect count at which a link turns `Flapping` (sticky).
const FLAP_RECONNECTS: u64 = 3;

/// Who one shard's socket transport is and how it advertises itself. Its
/// timing (heartbeat, reconnect backoff, timeouts, the partition and
/// flapping thresholds) is set by the constants above.
#[derive(Clone, Debug)]
pub struct NetBusConfig {
    pub shard: usize,
    pub n_shards: usize,
    /// Seed for reconnect jitter (derived per shard).
    pub seed: u64,
    /// Chaos mode: advertise under [`raw_registry_name`] and leave
    /// [`registry_name`] to the in-path proxy.
    pub raw_registry: bool,
}

impl NetBusConfig {
    pub fn new(shard: usize, n_shards: usize) -> Self {
        Self {
            shard,
            n_shards,
            seed: 0xB0A5_0000 ^ cast::u64_of(shard),
            raw_registry: false,
        }
    }
}

/// Transport counters — every typed network event the bus survived.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Halo messages accepted into the inbox.
    pub halos_received: u64,
    /// `REQ` pulls answered from history.
    pub reqs_served: u64,
    /// Messages rejected because their epoch was fenced off (zombies).
    pub stale_epoch_rejects: u64,
    /// Garbage runs skipped by stream resync.
    pub wire_garbage: u64,
    /// Sealed bodies that failed their checksum.
    pub wire_corrupt: u64,
    /// Successful outbound dials (first connects included).
    pub connects: u64,
    /// Successful re-dials after a link dropped.
    pub reconnects: u64,
}

/// Outbound link state for one peer.
struct Link {
    stream: Option<TcpStream>,
    backoff: Backoff,
    next_attempt: Option<Instant>,
    /// Successful dials (first connect included).
    connects: u64,
    down_since: Option<Instant>,
    flapping: bool,
}

impl Link {
    fn health(&self) -> LinkHealth {
        if let Some(since) = self.down_since {
            if since.elapsed() >= PARTITION_AFTER {
                return LinkHealth::Partitioned;
            }
        }
        if self.flapping {
            LinkHealth::Flapping
        } else {
            LinkHealth::Connected
        }
    }
}

struct Shared {
    cfg: NetBusConfig,
    /// This instance's fenced epoch (bumped on the control plane at start).
    epoch: u64,
    /// Control plane: records, dead markers, directives, registries.
    ctl: HaloBus,
    stop: AtomicBool,
    current_cycle: AtomicU64,
    /// Per-peer epoch fences plus the (cycle, peer) → newest-epoch halo
    /// slot store — the extracted state machine the loom suite checks.
    fence: FenceTable<Bytes>,
    /// Own published frames by cycle — the `REQ` replay source, bounded
    /// to the last [`INBOX_KEEP_CYCLES`] cycles.
    history: Mutex<BTreeMap<u64, Bytes>>,
    /// Highest cycle each peer has advertised (heartbeats, halos, reqs
    /// all carry the sender's current cycle) — the lag detector.
    peer_cycle: Vec<AtomicU64>,
    /// When each peer was last heard from (any fence-valid message).
    last_heard: Vec<Mutex<Option<Instant>>>,
    links: Vec<Mutex<Link>>,
    stats: Mutex<NetStats>,
    /// Reader threads spawned per accepted/dialed connection and not yet
    /// joined; [`adopt_reader`] keeps it to the connections still open.
    readers: Mutex<Vec<JoinHandle<()>>>,
}

/// Socket halo transport for one shard. See the module docs.
pub struct NetBus {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    heartbeat_thread: Option<JoinHandle<()>>,
}

impl NetBus {
    /// Bind a loopback listener, bump and fence this shard's epoch, and
    /// advertise the port on the control-plane registry. `dir` is the
    /// same spool directory a file federation would use.
    pub fn start(cfg: NetBusConfig, dir: impl AsRef<Path>) -> Result<Self, String> {
        let ctl = HaloBus::new(dir.as_ref()).map_err(|e| format!("netbus control plane: {e}"))?;
        let shard = cfg.shard;
        let epoch = bump_epoch(&ctl, shard)?;
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("netbus bind shard {shard}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("netbus nonblocking: {e}"))?;
        let port = listener
            .local_addr()
            .map_err(|e| format!("netbus local_addr: {e}"))?
            .port();
        let reg = if cfg.raw_registry {
            raw_registry_name(shard)
        } else {
            registry_name(shard)
        };
        ctl.write_atomic(&reg, format!("{port} {epoch}").as_bytes())
            .map_err(|e| format!("netbus registry: {e}"))?;

        let links = (0..cfg.n_shards)
            .map(|peer| {
                Mutex::new(Link {
                    stream: None,
                    backoff: Backoff::new(RECONNECT_BASE, RECONNECT_CAP)
                        .with_jitter(0.25, cfg.seed ^ cast::u64_of(peer)),
                    next_attempt: None,
                    connects: 0,
                    down_since: None,
                    flapping: false,
                })
            })
            .collect();
        let shared = Arc::new(Shared {
            epoch,
            ctl,
            stop: AtomicBool::new(false),
            current_cycle: AtomicU64::new(0),
            fence: FenceTable::new(cfg.n_shards),
            history: Mutex::new(BTreeMap::new()),
            peer_cycle: (0..cfg.n_shards).map(|_| AtomicU64::new(0)).collect(),
            last_heard: (0..cfg.n_shards).map(|_| Mutex::new(None)).collect(),
            links,
            stats: Mutex::new(NetStats::default()),
            readers: Mutex::new(Vec::new()),
            cfg,
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(accept_shared, listener));
        let hb_shared = Arc::clone(&shared);
        let heartbeat_thread = std::thread::spawn(move || heartbeat_loop(hb_shared));
        Ok(Self {
            shared,
            accept_thread: Some(accept_thread),
            heartbeat_thread: Some(heartbeat_thread),
        })
    }

    /// This instance's fenced epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// The control-plane file bus underneath.
    // bda-check: allow(uncalled_pub) -- test probe: the netbus suite drives the control plane through it
    pub fn control(&self) -> &HaloBus {
        &self.shared.ctl
    }

    /// Snapshot of the transport counters.
    pub fn stats(&self) -> NetStats {
        self.shared.stats.lock().clone()
    }

    /// How many of this shard's published frames are held for `REQ`
    /// replay — at most [`INBOX_KEEP_CYCLES`] + 1.
    // bda-check: allow(uncalled_pub) -- test probe: the netbus suite bounds the replay history with it
    pub fn history_len(&self) -> usize {
        self.shared.history.lock().len()
    }

    /// How many connection reader threads this bus holds unjoined — two
    /// per connected peer (one accepted, one reading a dial's replies),
    /// however often the links have flapped.
    // bda-check: allow(uncalled_pub) -- test probe: the netbus suite bounds the reader threads with it
    pub fn reader_threads(&self) -> usize {
        self.shared.readers.lock().len()
    }

    /// Whether `shard` is alive but visibly *behind* `cycle` — beacons
    /// still fresh (within `PARTITION_AFTER`) and its advertised cycle
    /// short of the requested one. A lagging peer is a scheduling fact,
    /// not a fault: free-running federations extend their collect past
    /// the nominal deadline for it (a peer stuck in its *own* deadline
    /// wait would otherwise cascade false degradations downstream),
    /// while a partitioned peer goes silent, stops qualifying, and
    /// expires onto the ladder on time. The extension is capped at 8×
    /// the nominal deadline as a livelock backstop; progress is
    /// otherwise guaranteed because the least-advanced shard never sees
    /// a peer behind it, so it never extends.
    fn peer_is_lagging(
        &self,
        cycle: u64,
        shard: usize,
        start: Instant,
        deadline: Duration,
    ) -> bool {
        if shard >= self.shared.cfg.n_shards {
            return false;
        }
        if start.elapsed() >= deadline.saturating_mul(8) {
            return false;
        }
        if self.shared.peer_cycle[shard].load(Ordering::SeqCst) >= cycle {
            return false;
        }
        let heard = *self.shared.last_heard[shard].lock();
        heard.is_some_and(|at| at.elapsed() < PARTITION_AFTER)
    }

    /// Per-peer link health (own slot reads `Connected`).
    pub fn link_health(&self) -> Vec<(usize, LinkHealth)> {
        (0..self.shared.cfg.n_shards)
            .filter(|&p| p != self.shared.cfg.shard)
            .map(|p| (p, self.shared.links[p].lock().health()))
            .collect()
    }
}

impl Drop for NetBus {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for link in &self.shared.links {
            let mut l = link.lock();
            if let Some(s) = l.stream.take() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.heartbeat_thread.take() {
            let _ = t.join();
        }
        let readers = std::mem::take(&mut *self.shared.readers.lock());
        for t in readers {
            let _ = t.join();
        }
    }
}

/// Read, increment and persist shard `shard`'s epoch counter.
fn bump_epoch(ctl: &HaloBus, shard: usize) -> Result<u64, String> {
    let path = ctl.dir().join(epoch_name(shard));
    let prev: u64 = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0);
    let epoch = prev + 1;
    ctl.write_atomic(&epoch_name(shard), format!("{epoch}").as_bytes())
        .map_err(|e| format!("netbus epoch: {e}"))?;
    Ok(epoch)
}

/// Resolve a peer's dialable address from its registry file.
fn peer_addr(shared: &Shared, peer: usize) -> Option<SocketAddr> {
    let name = registry_name(peer);
    let line = std::fs::read_to_string(shared.ctl.dir().join(name)).ok()?;
    let port: u16 = line.split_whitespace().next()?.parse().ok()?;
    Some(SocketAddr::from(([127, 0, 0, 1], port)))
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                let _ = stream.set_nodelay(true);
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || reader_loop(conn_shared, stream));
                adopt_reader(&shared, handle);
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Hold a new connection's reader thread for `Drop` to join, first
/// joining the readers whose connection has already closed: a terminated
/// thread keeps its stack mapped until joined, and a flapping link would
/// otherwise leave one behind per reconnect for the life of the bus.
fn adopt_reader(shared: &Shared, handle: JoinHandle<()>) {
    let mut readers = shared.readers.lock();
    let mut i = 0;
    while i < readers.len() {
        if readers[i].is_finished() {
            let _ = readers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
    readers.push(handle);
}

/// Drain one connection: parse `BDAN` messages, fence epochs, slot halos,
/// answer `REQ`s on the same stream. Every abnormal byte is a typed,
/// counted event; nothing here can panic the shard.
fn reader_loop(shared: Arc<Shared>, stream: TcpStream) {
    let mut reader = NetFrameReader::new();
    let mut buf = [0u8; 64 * 1024];
    let mut conn = stream;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match conn.read(&mut buf) {
            Ok(0) => {
                reader.finish();
                drain_events(&shared, &mut reader, &mut conn);
                return;
            }
            Ok(n) => {
                reader.push(&buf[..n]);
                drain_events(&shared, &mut reader, &mut conn);
            }
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

fn drain_events(shared: &Shared, reader: &mut NetFrameReader, conn: &mut TcpStream) {
    while let Some(ev) = reader.next_event() {
        match ev {
            WireEvent::Msg { msg, .. } => handle_msg(shared, msg, conn),
            WireEvent::Garbage { .. } => shared.stats.lock().wire_garbage += 1,
            WireEvent::Corrupt => shared.stats.lock().wire_corrupt += 1,
        }
    }
}

fn handle_msg(shared: &Shared, msg: NetMsg, conn: &mut TcpStream) {
    let sender = msg.sender();
    if sender >= shared.cfg.n_shards || sender == shared.cfg.shard {
        // Alien or reflected sender id — typed drop, same bucket as
        // corruption (a scribbled sender field fails here, not deeper in).
        shared.stats.lock().wire_corrupt += 1;
        return;
    }
    // Epoch fence: anything below the highest epoch seen from this sender
    // is a zombie (pre-respawn) writer.
    if let Admit::Stale { .. } = shared.fence.observe(sender, msg.epoch()) {
        shared.stats.lock().stale_epoch_rejects += 1;
        return;
    }
    // Liveness bookkeeping for the lag detector: every fence-valid
    // message proves the peer is up, and every cycle-carrying one
    // advertises how far along it is.
    // bda-check: allow(wallclock) — peer-liveness clock.
    *shared.last_heard[sender].lock() = Some(Instant::now());
    if let Some(c) = msg.cycle() {
        shared.peer_cycle[sender].fetch_max(c, Ordering::SeqCst);
    }
    match msg {
        NetMsg::Hello { .. } | NetMsg::Heartbeat { .. } => {}
        NetMsg::Halo {
            sender,
            epoch,
            cycle,
            frame,
        } => {
            // Newer-epoch-wins admission; the fence already passed above,
            // so the frame counts as received even if a raced respawn
            // retro-fences it before anyone collects.
            shared.fence.admit(sender, cycle, epoch, frame);
            shared.stats.lock().halos_received += 1;
        }
        NetMsg::Req { cycle, .. } => {
            let frame = shared.history.lock().get(&cycle).cloned();
            if let Some(frame) = frame {
                let reply = encode_msg(&NetMsg::Halo {
                    sender: shared.cfg.shard,
                    epoch: shared.epoch,
                    cycle,
                    frame,
                });
                let _ = conn.write_all(&reply);
                shared.stats.lock().reqs_served += 1;
            }
        }
    }
}

/// Send `bytes` to `peer`, dialing (or re-dialing under backoff) first if
/// the link is down. Returns whether the write reached the socket —
/// `false` is not an error, it is the peer's problem to pull or degrade.
fn link_send(shared: &Arc<Shared>, peer: usize, bytes: &[u8]) -> bool {
    let mut link = shared.links[peer].lock();
    if link.stream.is_none() && !try_dial(shared, peer, &mut link) {
        return false;
    }
    let Some(stream) = link.stream.as_mut() else {
        return false;
    };
    match stream.write_all(bytes) {
        Ok(()) => true,
        Err(_) => {
            link.stream = None;
            // bda-check: allow(wallclock) — link-health clock.
            link.down_since = Some(Instant::now());
            false
        }
    }
}

/// One dial attempt for `peer`, respecting the backoff schedule. On
/// success the hello handshake goes out first and a reader thread is
/// spawned for the peer's replies (`REQ` answers come back this way).
fn try_dial(shared: &Arc<Shared>, peer: usize, link: &mut Link) -> bool {
    // bda-check: allow(wallclock) — reconnect schedule.
    let now = Instant::now();
    if let Some(at) = link.next_attempt {
        if now < at {
            return false;
        }
    }
    let dial = peer_addr(shared, peer)
        .and_then(|addr| TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).ok());
    let Some(stream) = dial else {
        // A peer we cannot reach is down whether or not we ever held a
        // connection to it — the first failed attempt timestamps the
        // outage, and `PARTITION_AFTER` later it is typed Partitioned.
        if link.down_since.is_none() {
            link.down_since = Some(now);
        }
        if let Some(delay) = link.backoff.next_delay() {
            link.next_attempt = Some(now + delay);
        }
        return false;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let hello = encode_msg(&NetMsg::Hello {
        sender: shared.cfg.shard,
        epoch: shared.epoch,
    });
    if let Ok(reply_stream) = stream.try_clone() {
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || reader_loop(conn_shared, reply_stream));
        adopt_reader(shared, handle);
    }
    let mut stream = stream;
    if stream.write_all(&hello).is_err() {
        if link.down_since.is_none() {
            link.down_since = Some(now);
        }
        if let Some(delay) = link.backoff.next_delay() {
            link.next_attempt = Some(now + delay);
        }
        return false;
    }
    link.connects += 1;
    if link.connects > FLAP_RECONNECTS {
        link.flapping = true;
    }
    {
        let mut stats = shared.stats.lock();
        stats.connects += 1;
        if link.connects > 1 {
            stats.reconnects += 1;
        }
    }
    link.stream = Some(stream);
    link.backoff.reset();
    link.next_attempt = None;
    link.down_since = None;
    true
}

/// Heartbeat + link-health clock: periodically beacons every peer (which
/// also drives reconnects while idle) and publishes this shard's per-peer
/// link health to the control plane for the supervisor's quorum.
fn heartbeat_loop(shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        let cycle = shared.current_cycle.load(Ordering::SeqCst);
        let beat = encode_msg(&NetMsg::Heartbeat {
            sender: shared.cfg.shard,
            epoch: shared.epoch,
            cycle,
        });
        let mut states = Vec::with_capacity(shared.cfg.n_shards.saturating_sub(1));
        for peer in 0..shared.cfg.n_shards {
            if peer == shared.cfg.shard {
                continue;
            }
            link_send(&shared, peer, &beat);
            states.push((peer, shared.links[peer].lock().health()));
        }
        let _ = shared.ctl.write_link_states(shared.cfg.shard, &states);
        std::thread::sleep(HEARTBEAT);
    }
}

impl HaloTransport for NetBus {
    const VISIBLE_ON_PUBLISH: bool = false;

    /// Store the sealed frame in local history (the `REQ` replay source)
    /// and best-effort push it to every peer. A peer that misses the push
    /// pulls it later or degrades — never an error here.
    fn publish<T: Real>(&self, frame: &HaloFrame<T>) -> Result<(), String> {
        let cycle = frame.cycle();
        self.shared.current_cycle.store(cycle, Ordering::SeqCst);
        // Bound the halo slot store and the replay history alike: a slot
        // more than a full collection window behind this shard's own cycle
        // can never be collected, and a `REQ` for a frame that old goes
        // unanswered like one for a cycle never published — the requester's
        // collect deadline takes it onto the typed ladder.
        let keep_from = cycle.saturating_sub(INBOX_KEEP_CYCLES);
        self.shared.fence.prune_below(keep_from);
        let bytes = encode_halo(frame).map_err(|e| format!("encode halo: {e}"))?;
        {
            let mut history = self.shared.history.lock();
            history.retain(|&c, _| c >= keep_from);
            history.insert(cycle, bytes.clone());
        }
        let msg = encode_msg(&NetMsg::Halo {
            sender: self.shared.cfg.shard,
            epoch: self.shared.epoch,
            cycle,
            frame: bytes,
        });
        for peer in 0..self.shared.cfg.n_shards {
            if peer != self.shared.cfg.shard {
                link_send(&self.shared, peer, &msg);
            }
        }
        Ok(())
    }

    fn try_collect<T: Real>(&self, cycle: u64, shard: usize) -> CollectStatus<T> {
        let bytes = match self.shared.fence.fetch(cycle, shard) {
            SlotGet::Missing => {
                return CollectStatus::Missing {
                    peer_dead: self.shared.ctl.is_dead(shard),
                }
            }
            // A newer epoch of this peer has spoken since the slot was
            // filled — the slot is a zombie's leavings. Typed, not used.
            SlotGet::Fenced { got, fenced } => {
                return CollectStatus::Corrupt(HaloError::StaleEpoch { got, fenced })
            }
            SlotGet::Ready { payload, .. } => payload,
        };
        match decode_halo::<T>(&bytes) {
            Ok(HaloFrame::Strip(m)) => CollectStatus::Ready(m),
            Ok(HaloFrame::Skip { .. }) => CollectStatus::Skipped,
            Ok(HaloFrame::Stall { .. }) => CollectStatus::Stalled,
            Err(e) => CollectStatus::Corrupt(e),
        }
    }

    /// Poll the inbox, nudging the peer with throttled `REQ` pulls while
    /// the slot is empty — the unified recovery path for missed pushes,
    /// healed partitions, and post-respawn replay.
    fn collect_blocking<T: Real>(
        &self,
        cycle: u64,
        shard: usize,
        deadline: Duration,
        poll: Duration,
    ) -> CollectStatus<T> {
        let start = Instant::now(); // bda-check: allow(wallclock)
        let req = encode_msg(&NetMsg::Req {
            sender: self.shared.cfg.shard,
            epoch: self.shared.epoch,
            cycle,
        });
        let mut last_req: Option<Instant> = None;
        let req_every = poll.max(HEARTBEAT);
        loop {
            let status = self.try_collect::<T>(cycle, shard);
            let keep_waiting = matches!(status, CollectStatus::Missing { peer_dead: false })
                || matches!(status, CollectStatus::Corrupt(HaloError::StaleEpoch { .. }));
            if !keep_waiting {
                return status;
            }
            if start.elapsed() >= deadline && !self.peer_is_lagging(cycle, shard, start, deadline) {
                return status;
            }
            // bda-check: allow(wallclock) — REQ throttle.
            let now = Instant::now();
            let due = match last_req {
                None => true,
                Some(t) => now.duration_since(t) >= req_every,
            };
            if due {
                link_send(&self.shared, shard, &req);
                last_req = Some(now);
            }
            std::thread::sleep(poll);
        }
    }

    fn forecast_only_from(&self) -> Option<u64> {
        self.shared.ctl.forecast_only_from()
    }

    fn write_record(&self, cycle: u64, shard: usize, line: &str) -> std::io::Result<()> {
        self.shared.ctl.write_record(cycle, shard, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listener_is_dialable_at_registered_port() {
        let dir = std::env::temp_dir().join(format!("bda-netbus-dial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = NetBus::start(NetBusConfig::new(0, 2), &dir).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let b = NetBus::start(NetBusConfig::new(1, 2), &dir).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let line = std::fs::read_to_string(dir.join("net-s001")).unwrap();
        let port: u16 = line.split_whitespace().next().unwrap().parse().unwrap();
        let r = TcpStream::connect_timeout(
            &SocketAddr::from(([127, 0, 0, 1], port)),
            Duration::from_millis(250),
        );
        assert!(r.is_ok(), "dial to fresh netbus: {r:?}");
        drop(b);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_bumps_are_durable_and_monotonic() {
        let dir = std::env::temp_dir().join(format!("bda-netbus-epoch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctl = HaloBus::new(&dir).unwrap();
        assert_eq!(bump_epoch(&ctl, 0).unwrap(), 1);
        assert_eq!(bump_epoch(&ctl, 0).unwrap(), 2);
        assert_eq!(bump_epoch(&ctl, 1).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
