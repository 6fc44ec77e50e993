//! Deterministic corruption mutator for the volume wire format.
//!
//! Generates hostile variants of an encoded PAWR volume — the corpus the
//! ingest-hardening tests push through [`crate::codec::decode_volume_salvage`] and
//! the LETKF QC to prove that no corruption, however shaped, can panic the
//! decoder or smuggle an out-of-bounds observation into the analysis.
//!
//! Everything is seeded [`SplitMix64`]: the same `(seed, case index)` pair
//! always produces the same mutated buffer, so a CI failure is replayable
//! from its log line alone.

use crate::codec::{seal, HEADER_BYTES, RECORD_BYTES};
use bda_num::SplitMix64;

/// The corruption classes the mutator draws from. Exposed so tests can
/// assert coverage of each class, and so failure logs name the attack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Flip 1–64 random bits anywhere in the buffer.
    BitFlips,
    /// Cut the buffer short (possibly into the header).
    Truncate,
    /// Append random garbage bytes.
    Extend,
    /// Overwrite the declared record count with a hostile value
    /// (`u64::MAX`, just-past-overflow, or a huge-but-plausible count).
    ForgeCount,
    /// Scribble NaN/±Inf bit patterns over random record fields.
    PoisonFields,
    /// Overwrite record kind bytes with unknown discriminants.
    CorruptKind,
    /// Replace the payload wholesale with random bytes of random length.
    RandomBytes,
}

const CLASSES: [Corruption; 7] = [
    Corruption::BitFlips,
    Corruption::Truncate,
    Corruption::Extend,
    Corruption::ForgeCount,
    Corruption::PoisonFields,
    Corruption::CorruptKind,
    Corruption::RandomBytes,
];

/// One mutated volume plus the class that produced it.
#[derive(Clone, Debug)]
pub struct MutatedVolume {
    pub case: u64,
    pub class: Corruption,
    /// Whether the trailer was re-sealed after mutation (with the codec's
    /// own [`seal`]) — a forged-but-consistent volume that sails past the
    /// checksum and must be caught by field validation instead.
    pub checksum_fixed: bool,
    pub bytes: Vec<u8>,
}

/// Seeded corruption mutator over a clean encoded volume.
// bda-check: allow(uncalled_pub) -- the fuzz harness: the ingest tests and the codec equivalence sweep build it
pub struct VolumeMutator<'a> {
    clean: &'a [u8],
    rng: SplitMix64,
}

impl<'a> VolumeMutator<'a> {
    pub fn new(clean: &'a [u8], seed: u64) -> Self {
        Self {
            clean,
            rng: SplitMix64::new(seed),
        }
    }

    /// Produce mutated case `case`. Deterministic: the stream is re-derived
    /// from the mutator seed and the case index, independent of call order.
    pub fn mutate(&self, case: u64) -> MutatedVolume {
        let mut rng = self.rng.split(case);
        let class = CLASSES[(rng.next_u64() % CLASSES.len() as u64) as usize];
        let mut bytes = self.clean.to_vec();
        match class {
            Corruption::BitFlips => {
                let flips = 1 + rng.next_u64() % 64;
                for _ in 0..flips {
                    let i = (rng.next_u64() as usize) % bytes.len();
                    bytes[i] ^= 1 << (rng.next_u64() % 8);
                }
            }
            Corruption::Truncate => {
                let keep = (rng.next_u64() as usize) % bytes.len();
                bytes.truncate(keep);
            }
            Corruption::Extend => {
                let extra = 1 + (rng.next_u64() as usize) % 256;
                for _ in 0..extra {
                    bytes.push(rng.next_u64() as u8);
                }
            }
            Corruption::ForgeCount => {
                let forged = match rng.next_u64() % 4 {
                    0 => u64::MAX,
                    1 => u64::MAX / RECORD_BYTES as u64 + 1,
                    2 => usize::MAX as u64 / RECORD_BYTES as u64 + 1,
                    _ => 1 + rng.next_u64() % (1 << 40),
                };
                bytes[14..22].copy_from_slice(&forged.to_be_bytes());
            }
            Corruption::PoisonFields => {
                let n_records = bytes.len().saturating_sub(HEADER_BYTES + 8) / RECORD_BYTES;
                if n_records == 0 {
                    let i = HEADER_BYTES.min(bytes.len() - 1);
                    bytes[i] ^= 0xFF;
                } else {
                    let hits = 1 + rng.next_u64() % 8;
                    for _ in 0..hits {
                        let r = (rng.next_u64() as usize) % n_records;
                        let f = (rng.next_u64() as usize) % 5;
                        let off = HEADER_BYTES + r * RECORD_BYTES + 1 + 4 * f;
                        let pattern: f32 = match rng.next_u64() % 3 {
                            0 => f32::NAN,
                            1 => f32::INFINITY,
                            _ => f32::NEG_INFINITY,
                        };
                        bytes[off..off + 4].copy_from_slice(&pattern.to_be_bytes());
                    }
                }
            }
            Corruption::CorruptKind => {
                let n_records = bytes.len().saturating_sub(HEADER_BYTES + 8) / RECORD_BYTES;
                if n_records == 0 {
                    bytes[0] ^= 0xFF;
                } else {
                    let r = (rng.next_u64() as usize) % n_records;
                    bytes[HEADER_BYTES + r * RECORD_BYTES] = 2 + (rng.next_u64() % 254) as u8;
                }
            }
            Corruption::RandomBytes => {
                let len = (rng.next_u64() as usize) % 512;
                bytes = (0..len).map(|_| rng.next_u64() as u8).collect();
            }
        }
        // ~75% of the time, recompute the trailer so the corruption is
        // checksum-consistent: the decoder's field validation — not the
        // checksum — has to be the thing that stops it.
        let checksum_fixed = bytes.len() > 8 && !rng.next_u64().is_multiple_of(4);
        if checksum_fixed {
            seal(&mut bytes);
        }
        MutatedVolume {
            case,
            class,
            checksum_fixed,
            bytes,
        }
    }

    /// Iterator over cases `0..n`.
    // bda-check: allow(uncalled_pub) -- the fuzz harness: the ingest tests and the codec equivalence sweep drive it
    pub fn corpus(&self, n: u64) -> impl Iterator<Item = MutatedVolume> + '_ {
        (0..n).map(move |case| self.mutate(case))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_volume;
    use crate::scan::ScanResult;

    fn clean_volume() -> Vec<u8> {
        use bda_letkf::{ObsKind, Observation};

        let mut rng = SplitMix64::new(7);
        let obs: Vec<Observation<f32>> = (0..40)
            .map(|i| Observation {
                kind: if i % 3 == 0 {
                    ObsKind::DopplerVelocity
                } else {
                    ObsKind::Reflectivity
                },
                x: rng.uniform_in(0.0, 128_000.0),
                y: rng.uniform_in(0.0, 128_000.0),
                z: rng.uniform_in(100.0, 16_000.0),
                value: rng.uniform_in(-10.0, 40.0) as f32,
                error_sd: 5.0,
            })
            .collect();
        let scan = ScanResult {
            time: 30.0,
            obs,
            n_reflectivity: 0,
            n_doppler: 0,
            n_clear_air: 0,
            raw_bytes: 0,
        };
        encode_volume(&scan).to_vec()
    }

    #[test]
    fn mutator_is_deterministic() {
        let clean = clean_volume();
        let a = VolumeMutator::new(&clean, 42);
        let b = VolumeMutator::new(&clean, 42);
        for case in 0..64 {
            let (x, y) = (a.mutate(case), b.mutate(case));
            assert_eq!(x.bytes, y.bytes, "case {case} not reproducible");
            assert_eq!(x.class, y.class);
        }
    }

    #[test]
    fn corpus_covers_every_class() {
        let clean = clean_volume();
        let m = VolumeMutator::new(&clean, 1);
        let mut seen = std::collections::HashSet::new();
        for v in m.corpus(256) {
            seen.insert(format!("{:?}", v.class));
        }
        assert_eq!(seen.len(), CLASSES.len(), "classes seen: {seen:?}");
    }

    #[test]
    fn most_mutations_actually_change_the_bytes() {
        let clean = clean_volume();
        let m = VolumeMutator::new(&clean, 9);
        let changed = m.corpus(128).filter(|v| v.bytes != clean).count();
        assert!(changed > 120, "only {changed}/128 mutants differ");
    }
}
