//! The socket stream framing under the halo transport (`BDAN`).
//!
//! [`msg`](crate::msg) defines what one halo *frame* looks like; this
//! module defines how frames survive a byte *stream* that an adversarial
//! network (or the chaos proxy) can cut, delay, truncate and scribble on.
//! Every message on a netbus connection is
//!
//! ```text
//! magic "BDAN" (4) | body length u32 | sealed body
//! body = kind u8 | sender u32 | epoch u64 | payload… | checksum trailer u64
//! ```
//!
//! The magic is [`Kind::Net`]'s and the trailer is [`bda_io::frame`]'s, but
//! the header is this module's own: a stream reader needs the length before
//! it has the body, and a magic it can rescan for (DESIGN.md, "Sealed
//! frames"). The header carries no version field. The trailer therefore
//! changes with the build (it moved from FNV-1a to
//! [`bda_num::checksum`] without a version bump), which is sound because
//! both ends of a federation connection are always the same binary: the
//! shards run in one process, or `examples/federation.rs` re-invokes its
//! own executable for each of them. Kinds: `HELLO` (handshake, carries the
//! sender's fenced epoch), `HALO` (payload = one sealed `BDAX` halo frame,
//! prefixed by its cycle so in-path tooling can route without decoding
//! members), `REQ` (pull request for a peer's published halo — the replay
//! path after a respawn or a healed partition), `HEARTBEAT` (liveness +
//! current cycle).
//!
//! [`NetFrameReader`] is the incremental parser: bytes in, typed
//! [`WireEvent`]s out. Its one hard invariant is *resynchronization* — any
//! amount of garbage between messages is skipped to the next occurrence
//! of the magic and reported as a typed event, a sealed body whose
//! checksum fails costs exactly the four magic bytes before rescanning
//! (so a message hiding inside a damaged window is still found), and
//! nothing ever panics. The proptests in `tests/proptests.rs` pin this
//! down with arbitrary garbage splices.

use bda_io::frame::{self, Kind};
use bda_num::cast;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Stream-level magic. Distinct from the halo-frame magic (`BDAX`): the
/// stream carries halo frames *inside* `HALO` messages.
pub const NET_MAGIC: &[u8; 4] = &Kind::Net.magic();

/// magic + body-length prefix.
pub const NET_HEADER_BYTES: usize = 4 + 4;

/// Upper bound on one message body; anything larger is a damaged length
/// field, not a real message (the largest real payload is one halo strip
/// set, far below this).
pub const MAX_BODY_BYTES: usize = 1 << 26;

const KIND_HELLO: u8 = 0;
const KIND_HALO: u8 = 1;
const KIND_REQ: u8 = 2;
const KIND_HEARTBEAT: u8 = 3;

/// One parsed transport message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetMsg {
    /// Connection handshake: who is writing, and from which fenced epoch.
    Hello { sender: usize, epoch: u64 },
    /// One sealed `BDAX` halo frame. `cycle` duplicates the frame's cycle
    /// so the receiver can slot it (and the chaos proxy can route it)
    /// without decoding members; [`crate::worker`] re-validates the inner
    /// values on acceptance, so a tampered wrapper is caught there.
    Halo {
        sender: usize,
        epoch: u64,
        cycle: u64,
        frame: Bytes,
    },
    /// Pull request: "send me your halo for `cycle`" — the replay path
    /// for respawned shards and healed partitions.
    Req {
        sender: usize,
        epoch: u64,
        cycle: u64,
    },
    /// Liveness beacon carrying the sender's current cycle.
    Heartbeat {
        sender: usize,
        epoch: u64,
        cycle: u64,
    },
}

impl NetMsg {
    pub fn sender(&self) -> usize {
        match self {
            NetMsg::Hello { sender, .. }
            | NetMsg::Halo { sender, .. }
            | NetMsg::Req { sender, .. }
            | NetMsg::Heartbeat { sender, .. } => *sender,
        }
    }

    pub fn epoch(&self) -> u64 {
        match self {
            NetMsg::Hello { epoch, .. }
            | NetMsg::Halo { epoch, .. }
            | NetMsg::Req { epoch, .. }
            | NetMsg::Heartbeat { epoch, .. } => *epoch,
        }
    }

    /// The cycle this message is about, when it has one (`Hello` doesn't).
    pub fn cycle(&self) -> Option<u64> {
        match self {
            NetMsg::Hello { .. } => None,
            NetMsg::Halo { cycle, .. }
            | NetMsg::Req { cycle, .. }
            | NetMsg::Heartbeat { cycle, .. } => Some(*cycle),
        }
    }
}

/// Encode one message: magic | length | sealed body.
pub fn encode_msg(msg: &NetMsg) -> Bytes {
    let (kind, sender, epoch) = match msg {
        NetMsg::Hello { sender, epoch } => (KIND_HELLO, *sender, *epoch),
        NetMsg::Halo { sender, epoch, .. } => (KIND_HALO, *sender, *epoch),
        NetMsg::Req { sender, epoch, .. } => (KIND_REQ, *sender, *epoch),
        NetMsg::Heartbeat { sender, epoch, .. } => (KIND_HEARTBEAT, *sender, *epoch),
    };
    let mut body = BytesMut::with_capacity(1 + 4 + 8 + 16);
    body.put_u8(kind);
    body.put_u32(cast::u32_of_index(sender));
    body.put_u64(epoch);
    match msg {
        NetMsg::Hello { .. } => {}
        NetMsg::Halo { cycle, frame, .. } => {
            body.put_u64(*cycle);
            body.put_slice(frame);
        }
        NetMsg::Req { cycle, .. } | NetMsg::Heartbeat { cycle, .. } => {
            body.put_u64(*cycle);
        }
    }
    let sealed = frame::seal(body);
    let mut out = BytesMut::with_capacity(NET_HEADER_BYTES + sealed.len());
    out.put_slice(NET_MAGIC);
    out.put_u32(cast::u32_of_index(sealed.len()));
    out.put_slice(&sealed);
    out.freeze()
}

/// What the incremental reader hands back per step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireEvent {
    /// A checksum-verified message, plus its exact encoded bytes so an
    /// in-path forwarder can pass it through without re-encoding.
    Msg { msg: NetMsg, raw: Bytes },
    /// Bytes between messages that were not a message: skipped to the
    /// next magic. The count is the typed record of the damage.
    Garbage { skipped: usize },
    /// A magic-led window whose seal or body failed to verify: the magic
    /// was dropped and scanning resumed just past it.
    Corrupt,
}

/// Incremental stream parser with magic-scan resynchronization.
#[derive(Debug, Default)]
pub struct NetFrameReader {
    buf: Vec<u8>,
    /// No more bytes will arrive (peer EOF): pending over-long windows
    /// are drained as garbage instead of waited on.
    eof: bool,
}

impl NetFrameReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed bytes from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Declare end-of-stream: whatever cannot complete a message anymore
    /// is surfaced as garbage by subsequent [`next_event`](Self::next_event)
    /// calls.
    pub fn finish(&mut self) {
        self.eof = true;
    }

    /// Buffered bytes not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Pull the next event out of the buffer, or `None` when more bytes
    /// are needed (or the stream is fully drained after [`finish`](Self::finish)).
    pub fn next_event(&mut self) -> Option<WireEvent> {
        // Scan to the next magic; everything before it is garbage.
        match find_magic(&self.buf) {
            Some(0) => {}
            Some(at) => {
                self.buf.drain(..at);
                return Some(WireEvent::Garbage { skipped: at });
            }
            None => {
                // Keep a potential magic prefix at the tail; drop the
                // rest. At EOF even the prefix can never complete.
                let keep = if self.eof { 0 } else { tail_keep(&self.buf) };
                let drop = self.buf.len() - keep;
                if drop > 0 {
                    self.buf.drain(..drop);
                    return Some(WireEvent::Garbage { skipped: drop });
                }
                return None;
            }
        }
        if self.buf.len() < NET_HEADER_BYTES {
            if self.eof && !self.buf.is_empty() {
                let skipped = self.buf.len();
                self.buf.clear();
                return Some(WireEvent::Garbage { skipped });
            }
            return None;
        }
        let len = cast::index_of_u32(u32::from_be_bytes([
            self.buf[4],
            self.buf[5],
            self.buf[6],
            self.buf[7],
        ]));
        if len > MAX_BODY_BYTES {
            // A length this large is a damaged header, not a message:
            // drop the magic and rescan inside the window.
            self.buf.drain(..4);
            return Some(WireEvent::Corrupt);
        }
        if self.buf.len() < NET_HEADER_BYTES + len {
            if self.eof {
                // The window can never complete; skip the magic and
                // keep looking for messages inside it.
                self.buf.drain(..4);
                return Some(WireEvent::Corrupt);
            }
            return None;
        }
        let window = &self.buf[..NET_HEADER_BYTES + len];
        match decode_body(&window[NET_HEADER_BYTES..]) {
            Some(msg) => {
                let raw = Bytes::copy_from_slice(window);
                self.buf.drain(..NET_HEADER_BYTES + len);
                Some(WireEvent::Msg { msg, raw })
            }
            None => {
                // Damaged seal or malformed body: give up only the
                // magic so a real message inside the window is still
                // reachable by the rescan.
                self.buf.drain(..4);
                Some(WireEvent::Corrupt)
            }
        }
    }

    /// Drain every remaining event (used at EOF).
    pub fn drain(&mut self) -> Vec<WireEvent> {
        let mut out = Vec::new();
        while let Some(e) = self.next_event() {
            out.push(e);
        }
        out
    }
}

/// Position of the first `BDAN` magic in `buf`.
fn find_magic(buf: &[u8]) -> Option<usize> {
    buf.windows(NET_MAGIC.len())
        .position(|w| w == NET_MAGIC.as_slice())
}

/// How many tail bytes could still be the start of a magic.
fn tail_keep(buf: &[u8]) -> usize {
    let max = (NET_MAGIC.len() - 1).min(buf.len());
    (1..=max)
        .rev()
        .find(|&k| NET_MAGIC.starts_with(&buf[buf.len() - k..]))
        .unwrap_or(0)
}

/// Verify the seal and decode one message body. `None` on any damage —
/// the caller types it as [`WireEvent::Corrupt`].
fn decode_body(sealed: &[u8]) -> Option<NetMsg> {
    let mut body = frame::check_trailer(sealed).ok()?;
    if body.remaining() < 1 + 4 + 8 {
        return None;
    }
    let kind = body.get_u8();
    let sender = cast::index_of_u32(body.get_u32());
    let epoch = body.get_u64();
    match kind {
        KIND_HELLO => body.is_empty().then_some(NetMsg::Hello { sender, epoch }),
        KIND_HALO => {
            if body.remaining() < 8 {
                return None;
            }
            let cycle = body.get_u64();
            Some(NetMsg::Halo {
                sender,
                epoch,
                cycle,
                frame: Bytes::copy_from_slice(body),
            })
        }
        KIND_REQ | KIND_HEARTBEAT => {
            if body.remaining() != 8 {
                return None;
            }
            let cycle = body.get_u64();
            Some(if kind == KIND_REQ {
                NetMsg::Req {
                    sender,
                    epoch,
                    cycle,
                }
            } else {
                NetMsg::Heartbeat {
                    sender,
                    epoch,
                    cycle,
                }
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn halo_msg() -> NetMsg {
        NetMsg::Halo {
            sender: 2,
            epoch: 7,
            cycle: 42,
            frame: Bytes::from_static(b"sealed-bdah-bytes"),
        }
    }

    fn events_of(bytes: &[u8]) -> Vec<WireEvent> {
        let mut r = NetFrameReader::new();
        r.push(bytes);
        r.finish();
        r.drain()
    }

    #[test]
    fn every_kind_round_trips() {
        for msg in [
            NetMsg::Hello {
                sender: 0,
                epoch: 1,
            },
            halo_msg(),
            NetMsg::Req {
                sender: 1,
                epoch: 3,
                cycle: 9,
            },
            NetMsg::Heartbeat {
                sender: 3,
                epoch: 1,
                cycle: 5,
            },
        ] {
            let raw = encode_msg(&msg);
            let got = events_of(&raw);
            assert_eq!(
                got,
                vec![WireEvent::Msg {
                    msg: msg.clone(),
                    raw: raw.clone()
                }],
                "{msg:?}"
            );
        }
    }

    #[test]
    fn split_delivery_reassembles() {
        let raw = encode_msg(&halo_msg());
        let mut r = NetFrameReader::new();
        for chunk in raw.chunks(3) {
            r.push(chunk);
        }
        match r.next_event() {
            Some(WireEvent::Msg { msg, .. }) => assert_eq!(msg, halo_msg()),
            other => panic!("expected message, got {other:?}"),
        }
        assert_eq!(r.next_event(), None);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn garbage_between_messages_is_skipped_and_typed() {
        let raw = encode_msg(&halo_msg());
        let mut stream = Vec::new();
        stream.extend_from_slice(b"noise before");
        stream.extend_from_slice(&raw);
        stream.extend_from_slice(&[0xFF; 7]);
        stream.extend_from_slice(&raw);
        let events = events_of(&stream);
        let msgs = events
            .iter()
            .filter(|e| matches!(e, WireEvent::Msg { .. }))
            .count();
        let skipped: usize = events
            .iter()
            .map(|e| match e {
                WireEvent::Garbage { skipped } => *skipped,
                _ => 0,
            })
            .sum();
        assert_eq!(msgs, 2, "{events:?}");
        assert_eq!(skipped, 12 + 7);
    }

    #[test]
    fn corrupted_body_costs_the_magic_then_resyncs() {
        let mut bad = encode_msg(&halo_msg()).to_vec();
        let n = bad.len();
        bad[n - 2] ^= 0x5A; // break the seal
        let good = encode_msg(&NetMsg::Hello {
            sender: 1,
            epoch: 2,
        });
        let mut stream = bad;
        stream.extend_from_slice(&good);
        let events = events_of(&stream);
        assert!(
            events.contains(&WireEvent::Corrupt),
            "damage must be typed: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                WireEvent::Msg {
                    msg: NetMsg::Hello {
                        sender: 1,
                        epoch: 2
                    },
                    ..
                }
            )),
            "reader must resync onto the good message: {events:?}"
        );
    }

    #[test]
    fn oversized_length_is_typed_not_allocated() {
        let mut stream = Vec::new();
        stream.extend_from_slice(NET_MAGIC);
        stream.extend_from_slice(&u32::MAX.to_be_bytes());
        let good = encode_msg(&NetMsg::Hello {
            sender: 0,
            epoch: 1,
        });
        stream.extend_from_slice(&good);
        let events = events_of(&stream);
        assert_eq!(events.first(), Some(&WireEvent::Corrupt));
        assert!(events.iter().any(|e| matches!(e, WireEvent::Msg { .. })));
    }

    #[test]
    fn truncated_tail_is_garbage_at_eof() {
        let raw = encode_msg(&halo_msg());
        let mut r = NetFrameReader::new();
        r.push(&raw[..raw.len() - 5]);
        assert_eq!(r.next_event(), None, "without EOF the window may fill");
        r.finish();
        let events = r.drain();
        assert!(!events.iter().any(|e| matches!(e, WireEvent::Msg { .. })));
        assert!(!events.is_empty());
    }

    #[test]
    fn magic_prefix_at_tail_is_retained_until_eof() {
        let mut r = NetFrameReader::new();
        r.push(b"junkBD");
        assert_eq!(r.next_event(), Some(WireEvent::Garbage { skipped: 4 }));
        assert_eq!(r.next_event(), None);
        assert_eq!(r.pending(), 2, "possible magic prefix kept");
        r.push(b"AN");
        r.push(
            &encode_msg(&NetMsg::Hello {
                sender: 5,
                epoch: 9,
            })[NET_MAGIC.len()..],
        );
        match r.next_event() {
            Some(WireEvent::Msg {
                msg:
                    NetMsg::Hello {
                        sender: 5,
                        epoch: 9,
                    },
                ..
            }) => {}
            other => panic!("split magic must reassemble, got {other:?}"),
        }
    }
}
