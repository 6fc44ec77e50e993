//! The egress end shared by the full-chain and the shell workloads: a
//! `NowcastServer`, the benchmark's subscribers, and a second `Tiler` fed
//! the same fields so the bytes on the wire can be checked.

use crate::subscriber::{Mirror, Subscriber};
use crate::trace::Tracer;
use crate::workload::Check;
use bda::serve::server::{NowcastServer, PublishReport, ServeConfig};
use bda::serve::tile::{stream_digest, QuantGrid, TileConfig, Tiler};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Longest a cycle may wait for its ACKs before it counts as failed.
const ACK_BOUND: Duration = Duration::from_secs(5);
/// Longest set-up waits for the subscribers' handshakes.
const JOIN_BOUND: Duration = Duration::from_secs(5);
/// Pause between two admitting publishes; the acceptor polls at 500 µs.
const JOIN_PAUSE: Duration = Duration::from_micros(500);
/// Pause between two nonblocking pumps while waiting for ACKs.
const PUMP_PAUSE: Duration = Duration::from_micros(100);

pub struct Egress {
    server: NowcastServer,
    subscribers: Vec<Subscriber>,
    /// Encodes every published field a second time, outside `tts`.
    direct: Tiler,
    /// `(cycle, stream_digest)` of each direct encode.
    direct_digests: BTreeMap<u64, u64>,
    w: usize,
    h: usize,
    frames_per_cycle: usize,
    next_cycle: u64,
}

impl Egress {
    /// Bind on an ephemeral loopback port, connect `n` subscribers and
    /// publish `field` until all of them are admitted.
    pub fn start(w: usize, h: usize, n: usize, field: &[f64]) -> Result<Self, String> {
        let tile = TileConfig::default();
        let frames_per_cycle = Tiler::new(tile).frames_per_cycle(w, h);
        // The defaults are sized for a 96x96 product: at 256x256 one cycle
        // is 84 frames, which all reach the socket before the first ACK
        // comes back, so `ack_lag = 64` evicts healthy subscribers.
        let cfg = ServeConfig {
            tile,
            ack_lag: 2 * frames_per_cycle as u64 + 16,
            queue_frames: (4 * frames_per_cycle).max(ServeConfig::default().queue_frames),
            ..ServeConfig::default()
        };
        let server = NowcastServer::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let subscribers = (0..n)
            .map(|_| Subscriber::connect(server.local_addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("subscriber connect: {e}"))?;
        let mut egress = Self {
            server,
            subscribers,
            direct: Tiler::new(tile),
            direct_digests: BTreeMap::new(),
            w,
            h,
            frames_per_cycle,
            next_cycle: 0,
        };
        // Joiners are admitted by a publish, once the acceptor thread has
        // finished their handshake.
        let t0 = Instant::now();
        let mut quiet = Tracer::new(false);
        loop {
            egress.publish(&mut quiet, field)?;
            egress.encode_direct(&mut quiet, field)?;
            if egress.server.client_count() == n {
                break;
            }
            if t0.elapsed() > JOIN_BOUND {
                return Err(format!(
                    "{} of {n} subscribers admitted after {JOIN_BOUND:?}",
                    egress.server.client_count()
                ));
            }
            std::thread::sleep(JOIN_PAUSE);
        }
        egress.wait_acked(&mut quiet)?;
        Ok(egress)
    }

    /// `publish` under a `serve.publish` span.
    pub fn publish(&mut self, tr: &mut Tracer, field: &[f64]) -> Result<PublishReport, String> {
        let (cycle, w, h) = (self.next_cycle, self.w, self.h);
        self.next_cycle += 1;
        tr.leaf("serve.publish", || {
            self.server.publish(cycle, field, w, h, false)
        })
        .map_err(|e| format!("publish: {e}"))
    }

    /// Pump until every subscriber has ACKed everything, under a
    /// `serve.ack_wait` span. `fully_acked()` alone is vacuously true with
    /// no live client, so the client count is part of the condition.
    pub fn wait_acked(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let expected = self.subscribers.len();
        tr.open("serve.ack_wait");
        let t0 = Instant::now();
        let result = loop {
            let queued = self.server.pump_all();
            let live = self.server.client_count();
            if live != expected {
                break Err(format!("{} of {expected} subscribers left", live));
            }
            if queued == 0 && self.server.fully_acked() {
                break Ok(());
            }
            if t0.elapsed() > ACK_BOUND {
                break Err(format!(
                    "no ACK within {ACK_BOUND:?}, {queued} frames queued"
                ));
            }
            std::thread::sleep(PUMP_PAUSE);
        };
        tr.close();
        result
    }

    /// Encode the field just published with `Tiler::encode_cycle` called
    /// directly, under a `serve.tile_encode` span; call it outside `tts`.
    pub fn encode_direct(&mut self, tr: &mut Tracer, field: &[f64]) -> Result<(), String> {
        let (cycle, w, h) = (self.next_cycle - 1, self.w, self.h);
        let tiles = tr
            .leaf("serve.tile_encode", || {
                self.direct.encode_cycle(cycle, field, w, h, false)
            })
            .map_err(|e| format!("direct encode: {e}"))?;
        self.direct_digests.insert(cycle, stream_digest(&tiles));
        Ok(())
    }

    /// Shut down and check what the subscribers mirrored: no decode, delta
    /// or sequence error, nobody evicted, every cycle's received bytes
    /// digest-equal to the direct encode, and the mirrored native-zoom
    /// tiles equal to the quantized `last_field`.
    pub fn finish(self, last_field: &[f64], micro: &mut BTreeMap<&'static str, f64>) -> Vec<Check> {
        let Self {
            server,
            subscribers,
            direct_digests,
            w,
            h,
            frames_per_cycle,
            ..
        } = self;
        // Count the living before the subscribers hang up: a hang-up is
        // an eviction (`Disconnected`) to the server. Nobody joins after
        // set-up, so whoever is missing was evicted.
        let expected = subscribers.len();
        let alive = server.client_count();
        let evicted = expected.saturating_sub(alive);
        micro.insert("serve.evicted", evicted as f64);
        let mirrors: Vec<Option<Mirror>> =
            subscribers.into_iter().map(Subscriber::finish).collect();
        drop(server);

        let mut errors = 0;
        let mut digest_mismatch = 0;
        let mut cycles_compared = 0;
        let mut mirror_mismatch = 0;
        let quant = QuantGrid::quantize(last_field, w, h).ok();
        let tile = TileConfig::default().tile;
        for m in &mirrors {
            let Some(m) = m else {
                errors += 1;
                continue;
            };
            errors += m.decode_errors + m.apply_errors + m.seq_errors + usize::from(m.disconnected);
            // A joiner's first cycle is a key-frame snapshot, not the
            // delta stream the direct encode digests.
            for &(cycle, frames, digest) in m.digests.iter().skip(1) {
                cycles_compared += 1;
                if frames != frames_per_cycle || direct_digests.get(&cycle) != Some(&digest) {
                    digest_mismatch += 1;
                }
            }
            let Some(q) = &quant else {
                mirror_mismatch += 1;
                continue;
            };
            for ty in 0..h.div_ceil(tile) {
                for tx in 0..w.div_ceil(tile) {
                    let (x0, y0) = (tx * tile, ty * tile);
                    let (tw, th) = (tile.min(w - x0), tile.min(h - y0));
                    let want: Vec<u8> = (y0..y0 + th)
                        .flat_map(|y| q.q[y * w + x0..y * w + x0 + tw].iter().copied())
                        .collect();
                    if m.tiles.tile(0, tx as u16, ty as u16) != Some(&want[..]) {
                        mirror_mismatch += 1;
                    }
                }
            }
        }
        vec![
            Check::new(
                "subscribers_clean",
                errors == 0 && evicted == 0 && alive == expected,
                format!(
                    "{errors} decode/delta/sequence errors, {evicted} evicted, {alive} of {expected} alive"
                ),
            ),
            Check::new(
                "stream_digest_matches_direct_encode",
                digest_mismatch == 0 && cycles_compared > 0,
                format!("{digest_mismatch} of {cycles_compared} subscriber cycles differ"),
            ),
            Check::new(
                "mirror_equals_published_field",
                mirror_mismatch == 0,
                format!("{mirror_mismatch} native-zoom tiles differ"),
            ),
        ]
    }
}
