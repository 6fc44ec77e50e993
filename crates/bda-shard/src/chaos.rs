//! Deterministic in-path network chaos.
//!
//! [`ChaosProxy`] sits between a shard's advertised port and its real
//! listener: it registers *itself* under the shard's
//! [`registry_name`](crate::netbus::registry_name) while the shard (in
//! `raw_registry` mode) hides under
//! [`raw_registry_name`](crate::netbus::raw_registry_name). Every peer
//! connection therefore flows through the proxy, which parses `BDAN`
//! message boundaries in both directions and applies the scheduled
//! network faults from a [`FaultPlan`]:
//!
//! - `partition:A-B@C` — every message between shards `A` and `B` whose
//!   cycle is `C` is dropped, both directions (pushes, `REQ` pulls and
//!   their replies), so neither side can see the other that cycle.
//! - `netstall:S@C` — messages *from* `S` about cycle `C` are held for
//!   `stall_delay` and released late (a reorder, from the receiver's
//!   point of view). With `stall_delay` beyond the halo deadline, peers
//!   degrade before the frame lands.
//! - `wiregarbage:S@C` — messages from `S` about cycle `C` are forwarded
//!   as seeded garbage plus a checksum-broken copy: the receiver's
//!   [`NetFrameReader`](crate::wire::NetFrameReader) resyncs and counts
//!   typed garbage/corrupt events, and the halo never decodes.
//!
//! Fault matching is per *message* on its declared `(sender, cycle)` —
//! which is exactly why `REQ` replies are subject to the same faults as
//! pushes: a receiver cannot pull its way around a partition or a stall
//! within the faulted cycle, so the degradation ladder engages
//! deterministically. The raw listen port is re-resolved on every
//! accepted connection, so a SIGKILLed-and-respawned shard (new raw
//! port, new epoch) reappears behind the same stable proxy port.
//!
//! The proxy is itself boring: seeded, single-purpose threads, no shared
//! mutable state beyond the learned client id per connection. All
//! nondeterminism in a chaos run comes from the *schedule*, not the
//! proxy.

use crate::bus::HaloBus;
use crate::netbus::{raw_registry_name, registry_name};
use crate::wire::{NetFrameReader, WireEvent};
use bda_num::{cast, SplitMix64};
use bda_workflow::{Fault, FaultPlan};
use bytes::Bytes;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the fault schedule says to do with one parsed message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Forward,
    Drop,
    Hold,
    Garble,
}

struct ProxyShared {
    /// The shard this proxy fronts.
    target: usize,
    plan: FaultPlan,
    ctl: HaloBus,
    /// How long a `netstall` holds a message.
    stall_delay: Duration,
    seed: u64,
    stop: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// In-path fault injector for one shard's listener. See the module docs.
pub struct ChaosProxy {
    shared: Arc<ProxyShared>,
    accept_thread: Option<JoinHandle<()>>,
    /// The stable port peers actually dial.
    pub port: u16,
}

impl ChaosProxy {
    /// Bind the proxy for shard `target` and advertise it under the
    /// shard's registry name on the control plane at `dir`. The fronted
    /// shard must run its `NetBus` in `raw_registry` mode.
    pub fn start(
        target: usize,
        plan: FaultPlan,
        dir: impl AsRef<Path>,
        stall_delay: Duration,
        seed: u64,
    ) -> Result<Self, String> {
        let ctl = HaloBus::new(dir.as_ref()).map_err(|e| format!("chaos control plane: {e}"))?;
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("chaos bind for shard {target}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("chaos nonblocking: {e}"))?;
        let port = listener
            .local_addr()
            .map_err(|e| format!("chaos local_addr: {e}"))?
            .port();
        ctl.write_atomic(&registry_name(target), format!("{port} 0").as_bytes())
            .map_err(|e| format!("chaos registry: {e}"))?;
        let shared = Arc::new(ProxyShared {
            target,
            plan,
            ctl,
            stall_delay,
            seed,
            stop: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(accept_shared, listener));
        Ok(Self {
            shared,
            accept_thread: Some(accept_thread),
            port,
        })
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let threads = std::mem::take(&mut *self.shared.threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }
}

/// The fronted shard's *raw* (unproxied) address, re-resolved per
/// connection so respawns (new raw port) reappear behind the proxy.
fn raw_addr(shared: &ProxyShared) -> Option<SocketAddr> {
    let line =
        std::fs::read_to_string(shared.ctl.dir().join(raw_registry_name(shared.target))).ok()?;
    let port: u16 = line.split_whitespace().next()?.parse().ok()?;
    Some(SocketAddr::from(([127, 0, 0, 1], port)))
}

fn accept_loop(shared: Arc<ProxyShared>, listener: TcpListener) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let Some(addr) = raw_addr(&shared) else {
                    // No raw listener yet — refuse; the peer redials.
                    continue;
                };
                let Ok(raw) = TcpStream::connect_timeout(&addr, Duration::from_millis(250)) else {
                    continue;
                };
                let _ = client.set_nodelay(true);
                let _ = raw.set_nodelay(true);
                // The connecting shard's id, learned from the first
                // upstream message and shared with the reply pump (for
                // partition pair matching on replies).
                let client_id = Arc::new(AtomicUsize::new(usize::MAX));
                spawn_pump(&shared, &client, &raw, Direction::Upstream, &client_id);
                spawn_pump(&shared, &raw, &client, Direction::Downstream, &client_id);
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// client → fronted shard.
    Upstream,
    /// fronted shard → client (`REQ` replies, mostly).
    Downstream,
}

fn spawn_pump(
    shared: &Arc<ProxyShared>,
    src: &TcpStream,
    dst: &TcpStream,
    dir: Direction,
    client_id: &Arc<AtomicUsize>,
) {
    let (Ok(src), Ok(dst)) = (src.try_clone(), dst.try_clone()) else {
        return;
    };
    let shared_c = Arc::clone(shared);
    let client_c = Arc::clone(client_id);
    let handle = std::thread::spawn(move || pump(shared_c, src, dst, dir, client_c));
    shared.threads.lock().push(handle);
}

/// One direction of one proxied connection: parse message boundaries,
/// ask the schedule for a verdict per message, forward / drop / hold /
/// garble accordingly. Exits (and tears both streams down) on EOF or a
/// hard socket error — the shard-side redial then re-resolves the raw
/// port, which is how respawns heal.
fn pump(
    shared: Arc<ProxyShared>,
    mut src: TcpStream,
    mut dst: TcpStream,
    dir: Direction,
    client_id: Arc<AtomicUsize>,
) {
    let _ = src.set_read_timeout(Some(Duration::from_millis(10)));
    let mut reader = NetFrameReader::new();
    let mut buf = [0u8; 64 * 1024];
    let mut held: Vec<(Instant, Bytes)> = Vec::new();
    let mut rng = SplitMix64::new(
        shared.seed ^ cast::u64_of(shared.target) ^ if dir == Direction::Upstream { 0 } else { 1 },
    );
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        // Release any held (netstalled) messages whose delay elapsed,
        // in arrival order.
        // bda-check: allow(wallclock) — stall release clock.
        let now = Instant::now();
        while let Some((at, _)) = held.first() {
            if *at > now {
                break;
            }
            let (_, bytes) = held.remove(0);
            if dst.write_all(&bytes).is_err() {
                teardown(&src, &dst);
                return;
            }
        }
        let n = match src.read(&mut buf) {
            Ok(0) => {
                teardown(&src, &dst);
                return;
            }
            Ok(n) => n,
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                teardown(&src, &dst);
                return;
            }
        };
        reader.push(&buf[..n]);
        while let Some(ev) = reader.next_event() {
            let WireEvent::Msg { msg, raw } = ev else {
                // The real buses emit clean streams; anything unparsable
                // here was injected by *us* on another hop. Drop it.
                continue;
            };
            if dir == Direction::Upstream {
                client_id.store(msg.sender(), Ordering::SeqCst);
            }
            let peer = match dir {
                Direction::Upstream => shared.target,
                Direction::Downstream => client_id.load(Ordering::SeqCst),
            };
            let ok = match verdict(&shared, msg.sender(), peer, msg.cycle()) {
                Verdict::Forward => dst.write_all(&raw).is_ok(),
                Verdict::Drop => true,
                Verdict::Hold => {
                    // bda-check: allow(wallclock) — stall release clock.
                    held.push((Instant::now() + shared.stall_delay, raw));
                    true
                }
                Verdict::Garble => write_garbled(&mut dst, &raw, &mut rng).is_ok(),
            };
            if !ok {
                teardown(&src, &dst);
                return;
            }
        }
    }
    teardown(&src, &dst);
}

fn teardown(src: &TcpStream, dst: &TcpStream) {
    let _ = src.shutdown(std::net::Shutdown::Both);
    let _ = dst.shutdown(std::net::Shutdown::Both);
}

/// The schedule's ruling for one message from `sender` to `peer` about
/// `cycle`. Cycle-less messages (hellos) always pass.
fn verdict(shared: &ProxyShared, sender: usize, peer: usize, cycle: Option<u64>) -> Verdict {
    let Some(cycle) = cycle else {
        return Verdict::Forward;
    };
    let c = cast::index_of_u64(cycle);
    let link = (Fault::Partition, [sender.min(peer), sender.max(peer)]);
    let from_sender = |fault| shared.plan.args(c, fault).any(|s| s == sender);
    if shared.plan.faults_for(c).contains(&link) {
        Verdict::Drop
    } else if from_sender(Fault::NetStall) {
        Verdict::Hold
    } else if from_sender(Fault::WireGarbage) {
        Verdict::Garble
    } else {
        Verdict::Forward
    }
}

/// Forward `raw` as damage: a run of seeded garbage (guaranteed free of
/// the stream magic) followed by the message with one body byte flipped,
/// so the receiver sees a typed garbage skip plus a typed checksum
/// failure — and no halo.
fn write_garbled(dst: &mut TcpStream, raw: &[u8], rng: &mut SplitMix64) -> std::io::Result<()> {
    let mut junk = [0u8; 48];
    for b in junk.iter_mut() {
        let v = rng.next_u64().to_le_bytes()[0];
        // No 'B' bytes → no accidental "BDAN" resync point inside junk.
        *b = if v == b'B' { b'C' } else { v };
    }
    dst.write_all(&junk)?;
    let mut copy = raw.to_vec();
    if copy.len() > crate::wire::NET_HEADER_BYTES {
        copy[crate::wire::NET_HEADER_BYTES] ^= 0x5A;
    }
    dst.write_all(&copy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_for(plan: FaultPlan) -> ProxyShared {
        let dir = std::env::temp_dir().join(format!("bda-chaos-v-{}", std::process::id()));
        ProxyShared {
            target: 1,
            plan,
            ctl: HaloBus::new(&dir).unwrap(),
            stall_delay: Duration::from_millis(50),
            seed: 7,
            stop: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
        }
    }

    #[test]
    fn verdicts_follow_the_schedule() {
        let plan = FaultPlan::none()
            .with(2, Fault::Partition, &[0, 1])
            .with(3, Fault::NetStall, &[2])
            .with(4, Fault::WireGarbage, &[0]);
        let s = shared_for(plan);
        assert_eq!(verdict(&s, 0, 1, Some(2)), Verdict::Drop);
        assert_eq!(verdict(&s, 1, 0, Some(2)), Verdict::Drop);
        assert_eq!(verdict(&s, 0, 1, Some(1)), Verdict::Forward);
        assert_eq!(verdict(&s, 2, 0, Some(3)), Verdict::Hold);
        assert_eq!(verdict(&s, 0, 2, Some(3)), Verdict::Forward);
        assert_eq!(verdict(&s, 0, 1, Some(4)), Verdict::Garble);
        assert_eq!(verdict(&s, 0, 1, None), Verdict::Forward);
    }
}
