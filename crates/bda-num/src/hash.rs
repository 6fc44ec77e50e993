//! Shared non-cryptographic hashing.
//!
//! One FNV-1a implementation for the whole workspace: the PAWR volume codec,
//! the JIT-DT pipe framing and the field-file format all checksum with the
//! same function, so an encoder in one crate and a verifier in another can
//! never drift apart.
//!
//! [`Fnv1a`] is the streaming form: a hop that already touches the bytes
//! piece by piece (a codec walking its records, a pipe moving chunks)
//! feeds each piece as it goes instead of reading the whole buffer again
//! afterwards. [`fnv1a`] is its one-shot form.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// The multiplier. It is not the published FNV-64 prime (`0x100_0000_01b3`,
/// one digit shorter), but every volume, frame and checkpoint on disk or on
/// the wire carries checksums made with it, so it stays.
const PRIME: u64 = 0x1000_0000_01b3;

/// Streaming 64-bit FNV-1a.
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

/// 64-bit FNV-1a over a byte slice.
///
/// This is an integrity checksum against accidental corruption (torn
/// transfers, bit rot), not an authentication code: an adversary can forge
/// it trivially, which is exactly why every field behind the checksum is
/// still validated at decode time.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn empty_input_is_offset_basis() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn pinned_values() {
        // Checksums already on the wire: a change here breaks every reader.
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
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
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
}
