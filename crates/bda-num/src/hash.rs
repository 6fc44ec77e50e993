//! Shared non-cryptographic hashing: one integrity checksum, one digest.
//!
//! The two functions here have separate jobs, and no caller uses one for
//! the other's:
//!
//! * [`checksum`] ([`Checksum`] streaming) is the **integrity checksum**.
//!   Every trailer and transfer check in the workspace uses it: the PAWR
//!   volume codec (format version 2), the JIT-DT pipe's `End` frame, the
//!   sealed-frame envelope of `bda-io` under every `BDA?` kind, and the
//!   supervisor's scan-time check. An encoder in one crate and a verifier in
//!   another therefore cannot drift apart. It runs eight independent 64-bit
//!   lanes over 64-byte blocks, so a core keeps eight multiply chains in
//!   flight instead of one: about 0.1 ns/B against FNV-1a's 1.4 ns/B.
//! * [`fnv1a`] ([`Fnv1a`] streaming) is the **digest**: a pinned
//!   fingerprint of bytes that tests and the benchmark compare across runs
//!   and thread counts (the golden model digests, the egress tile stream
//!   digest). Its values never move. It is a serial xor-multiply chain, and
//!   no integrity trailer uses it.
//!
//! Both are streaming. A hop that already touches the bytes piece by piece
//! (a pipe moving chunks) feeds each piece as it goes instead of reading the
//! whole buffer again afterwards, and any split of the input finishes on the
//! one-shot value.
//!
//! Neither is an authentication code. They catch accidental corruption
//! (torn transfers, bit rot); an adversary can forge either trivially, which
//! is why every field behind a checksum is still validated at decode time.

use crate::cast::u64_of;

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV multiplier. It is not the published FNV-64 prime
/// (`0x100_0000_01b3`, one digit shorter), but the pinned digests were made
/// with it, so it stays.
const PRIME: u64 = 0x1000_0000_01b3;

/// Streaming 64-bit FNV-1a, the digest function.
///
/// Feeding a buffer in any split — empty pieces included — finishes on the
/// same value as [`fnv1a`] of the whole buffer.
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A hasher that has seen no bytes.
    pub const fn new() -> Self {
        Self(OFFSET_BASIS)
    }

    /// Fold `data` into the hash.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        let mut h = self.0;
        for &b in data {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    /// The hash of every byte fed so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a over a byte slice: the digest, not an integrity trailer
/// (see the module docs).
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(data);
    h.finish()
}

// xxHash64's primes: odd, so multiplying by one is a bijection on u64.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Independent accumulators; word `i` of each block feeds lane `i`.
const LANES: usize = 8;
/// Bytes per block: one little-endian `u64` per lane.
const BLOCK: usize = 8 * LANES;
/// Each lane starts from its own value, so equal words in two lanes do not
/// leave equal accumulators.
const LANE_SEEDS: [u64; LANES] = [P1, P2, P3, P4, P5, P1 ^ P2, P2 ^ P3, P3 ^ P4];

/// One lane step: `rotl(acc + word·P2, 31)·P1`. For a fixed `acc` it is a
/// bijection in `word`, and for a fixed `word` a bijection in `acc`, so a
/// changed word always changes its lane. The rotate puts a carry-free
/// top-bit difference where the next add cannot cancel it, unlike a plain
/// xor-multiply step.
#[inline(always)]
const fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn absorb(lanes: &mut [u64; LANES], block: &[u8; BLOCK]) {
    for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
        *lane = round(*lane, u64::from_le_bytes(*word));
    }
}

/// The streaming integrity checksum.
///
/// Eight lanes each take one little-endian word of every 64-byte block. A
/// block split across [`update`](Self::update) calls is carried until it is
/// whole, so feeding a buffer in any split — empty pieces included —
/// finishes on the same value as [`checksum`] of the whole buffer.
/// [`finish`](Self::finish) merges the lanes in order, folds in the total
/// length and the bytes of the last partial block, and ends with an
/// avalanche step.
#[derive(Clone, Debug)]
pub struct Checksum {
    lanes: [u64; LANES],
    /// The start of a block still waiting for its remaining bytes.
    pending: [u8; BLOCK],
    pending_len: usize,
    total: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum {
    /// A checksum that has seen no bytes.
    pub const fn new() -> Self {
        Self {
            lanes: LANE_SEEDS,
            pending: [0; BLOCK],
            pending_len: 0,
            total: 0,
        }
    }

    /// Fold `data` into the checksum.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(u64_of(data.len()));
        if self.pending_len > 0 {
            let take = (BLOCK - self.pending_len).min(data.len());
            let (head, rest) = data.split_at(take);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(head);
            self.pending_len += take;
            data = rest;
            if self.pending_len < BLOCK {
                return;
            }
            let block = self.pending;
            absorb(&mut self.lanes, &block);
            self.pending_len = 0;
        }
        let (blocks, tail) = data.as_chunks::<BLOCK>();
        let mut lanes = self.lanes;
        for block in blocks {
            absorb(&mut lanes, block);
        }
        self.lanes = lanes;
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// The checksum of every byte fed so far.
    pub fn finish(&self) -> u64 {
        let mut h = P5;
        for &lane in &self.lanes {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h = h.wrapping_add(self.total);
        let (words, bytes) = self.pending[..self.pending_len].as_chunks::<8>();
        for word in words {
            h ^= round(0, u64::from_le_bytes(*word));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        }
        for &b in bytes {
            h ^= u64::from(b).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// The integrity checksum of a byte slice: the one-shot form of
/// [`Checksum`].
pub fn checksum(data: &[u8]) -> u64 {
    let mut c = Checksum::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;
    use std::collections::HashSet;

    fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    fn flip(data: &[u8], bits: &[usize]) -> Vec<u8> {
        let mut out = data.to_vec();
        for &bit in bits {
            out[bit / 8] ^= 1 << (bit % 8);
        }
        out
    }

    #[test]
    fn empty_input_is_offset_basis() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn pinned_values() {
        // Digests already pinned elsewhere: a change here moves all of them.
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0xf8ac_2471_f739_67e8);
    }

    #[test]
    fn prefix_is_not_a_fixed_point() {
        // Appending bytes always changes the hash (no trivial extension).
        let h = fnv1a(b"volume");
        assert_ne!(h, fnv1a(b"volume\0"));
        assert_ne!(h, fnv1a(b"volum"));
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = fnv1a(&[0u8; 64]);
        let mut buf = [0u8; 64];
        buf[63] = 1;
        assert_ne!(a, fnv1a(&buf));
    }

    #[test]
    fn any_split_finishes_on_the_one_shot_hash() {
        let mut rng = SplitMix64::new(0x5eed);
        for len in [0usize, 1, 2, 7, 64, 1000, 4099] {
            let data = random_bytes(&mut rng, len);
            let whole = fnv1a(&data);
            for _ in 0..32 {
                let mut h = Fnv1a::new();
                let mut at = 0;
                while at < len {
                    // Pieces of 0..=9 bytes: empty ones included.
                    let step = (rng.next_u64() % 10) as usize;
                    let end = (at + step).min(len);
                    h.update(&data[at..end]);
                    at = end;
                }
                h.update(&[]);
                assert_eq!(h.finish(), whole, "len {len}");
            }
            // Byte at a time, and nothing-then-everything.
            let mut bytewise = Fnv1a::new();
            data.iter()
                .for_each(|b| bytewise.update(std::slice::from_ref(b)));
            assert_eq!(bytewise.finish(), whole);
            let mut once = Fnv1a::default();
            once.update(&[]);
            once.update(&data);
            assert_eq!(once.finish(), whole);
        }
    }

    #[test]
    fn checksum_pinned_values() {
        // Every trailer in flight or on disk carries these: a change here
        // is a new format version everywhere.
        assert_eq!(checksum(b""), 0x08df_531f_f784_eb74);
        assert_eq!(checksum(b"a"), 0x1156_cb7a_3740_e77a);
        assert_eq!(checksum(b"foobar"), 0xb912_e9a5_17ef_8ccb);
        // 300 bytes: four whole blocks, five tail words and four tail bytes.
        let ramp: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
        assert_eq!(checksum(&ramp), 0xb26c_132d_7130_1a03);
    }

    #[test]
    fn checksum_any_split_finishes_on_the_one_shot_value() {
        let mut rng = SplitMix64::new(0xC4EC);
        for len in [0usize, 1, 7, 8, 63, 64, 65, 127, 128, 129, 1000, 4099] {
            let data = random_bytes(&mut rng, len);
            let whole = checksum(&data);
            for _ in 0..32 {
                let mut c = Checksum::new();
                let mut at = 0;
                while at < len {
                    // Pieces of 0..=150 bytes: empty ones, pieces inside
                    // one block and pieces spanning several, almost none
                    // a multiple of 64.
                    let step = (rng.next_u64() % 151) as usize;
                    let end = (at + step).min(len);
                    c.update(&data[at..end]);
                    at = end;
                }
                c.update(&[]);
                assert_eq!(c.finish(), whole, "len {len}");
            }
            let mut bytewise = Checksum::default();
            data.iter()
                .for_each(|b| bytewise.update(std::slice::from_ref(b)));
            assert_eq!(bytewise.finish(), whole, "len {len} byte at a time");
            let mut once = Checksum::new();
            once.update(&[]);
            once.update(&data);
            assert_eq!(once.finish(), whole);
            // `finish` does not consume: feeding on continues the stream.
            let (a, b) = data.split_at(len / 3);
            let mut c = Checksum::new();
            c.update(a);
            assert_eq!(c.finish(), checksum(a));
            c.update(b);
            assert_eq!(c.finish(), whole);
        }
    }

    #[test]
    fn every_single_bit_flip_of_4_kib_changes_the_checksum() {
        let data = random_bytes(&mut SplitMix64::new(1), 4096);
        let clean = checksum(&data);
        let mut seen = HashSet::new();
        for bit in 0..data.len() * 8 {
            let sum = checksum(&flip(&data, &[bit]));
            assert_ne!(sum, clean, "bit {bit}");
            assert!(seen.insert(sum), "bit {bit} collides with another flip");
        }
    }

    #[test]
    fn two_bit_flips_change_the_checksum() {
        let data = random_bytes(&mut SplitMix64::new(2), 4096);
        let clean = checksum(&data);
        let bits = data.len() * 8;
        // Bit 63 of two words in the same lane: word `w` of block `b` is
        // bit `(b·8 + w)·64 + 63`. A plain xor-multiply round leaves the
        // lanes differing by exactly bit 63 after the first flip, and the
        // second flip cancels it; this round must not.
        let top = |block: usize, word: usize| (block * LANES + word) * 64 + 63;
        let mut pairs = Vec::new();
        for word in 0..LANES {
            for (b0, b1) in [(0, 1), (0, 2), (3, 4), (10, 63), (62, 63)] {
                pairs.push([top(b0, word), top(b1, word)]);
            }
            // And across lanes within one block.
            pairs.push([top(5, word), top(5, (word + 1) % LANES)]);
        }
        let mut rng = SplitMix64::new(3);
        for _ in 0..4000 {
            let a = (rng.next_u64() as usize) % bits;
            let b = (rng.next_u64() as usize) % bits;
            if a != b {
                pairs.push([a, b]);
            }
        }
        for pair in &pairs {
            assert_ne!(checksum(&flip(&data, pair)), clean, "bits {pair:?}");
        }

        // The same-lane pair is a real trap: a plain xor-multiply lane
        // (`acc = (acc ^ word)·P1`) falls into it.
        let xor_multiply_lane = |bytes: &[u8]| {
            bytes
                .as_chunks::<BLOCK>()
                .0
                .iter()
                .fold(0u64, |acc, block| {
                    let word = u64::from_le_bytes(block.as_chunks::<8>().0[0]);
                    (acc ^ word).wrapping_mul(P1)
                })
        };
        let pair = [top(0, 0), top(1, 0)];
        assert_eq!(
            xor_multiply_lane(&flip(&data, &pair)),
            xor_multiply_lane(&data)
        );
    }

    #[test]
    fn swapped_words_change_the_checksum() {
        let data = random_bytes(&mut SplitMix64::new(4), 1024);
        let clean = checksum(&data);
        let swap = |a: usize, b: usize| {
            let mut out = data.clone();
            for k in 0..8 {
                out.swap(a * 8 + k, b * 8 + k);
            }
            out
        };
        let words = data.len() / 8;
        for w in 0..words {
            // Within a lane: the same word of the next block, and of a
            // block further on.
            for other in [w + LANES, w + 5 * LANES] {
                if other < words {
                    assert_ne!(checksum(&swap(w, other)), clean, "words {w}, {other}");
                }
            }
            // Across lanes: the neighbouring word of the same block.
            if w % LANES != LANES - 1 {
                assert_ne!(checksum(&swap(w, w + 1)), clean, "words {w}, {}", w + 1);
            }
        }
    }

    #[test]
    fn appending_zero_bytes_changes_the_checksum() {
        let mut rng = SplitMix64::new(5);
        for len in [0usize, 1, 8, 63, 64, 100, 128, 1000] {
            let data = random_bytes(&mut rng, len);
            let mut seen = HashSet::new();
            let mut padded = data.clone();
            assert!(seen.insert(checksum(&padded)));
            for extra in 1..=200 {
                padded.push(0);
                assert!(
                    seen.insert(checksum(&padded)),
                    "len {len} + {extra} zero bytes collides"
                );
            }
        }
    }
}
