//! Sequence-number classification, one policy for every sequenced stream.
//!
//! The pipeline has three streams that carry sequence numbers: radar
//! volumes on the JIT-DT [`pipe`](crate::pipe) (the number rides in each
//! volume's header frame), shard halos, and subscriber tiles. On a
//! 30-second cadence arrival order cannot be trusted: a transfer daemon
//! restart can replay a message (duplicate), and a slow hop can deliver an
//! old one after a newer one (out of order). Each consumer runs a
//! [`SeqTracker`] where it takes messages in and turns those cases into
//! typed outcomes:
//!
//! * **duplicates** (the newest number seen, again) are dropped;
//! * **out-of-order** arrivals (older than the newest seen) are dropped —
//!   newest-scan-wins.
//!
//! What else a stream checks (a radar volume's scan age, a halo's cycle)
//! is the consumer's business; [`DeliveryDrop`] is how the live pipeline
//! reports the volumes it dropped.

/// A volume the receiver classified and dropped without assimilating it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeliveryDrop {
    /// Same sequence number as the newest volume seen: a replay.
    Duplicate { seq: u64 },
    /// Older than `newest` — the newest volume seen, or the cycle the
    /// receiver is waiting for: newest-scan-wins.
    OutOfOrder { seq: u64, newest: u64 },
}

impl std::fmt::Display for DeliveryDrop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeliveryDrop::Duplicate { seq } => write!(f, "dropped duplicate seq {seq}"),
            DeliveryDrop::OutOfOrder { seq, newest } => {
                write!(f, "dropped out-of-order seq {seq} (newest {newest})")
            }
        }
    }
}

/// How a sequence number relates to the newest one a [`SeqTracker`] has
/// seen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqClass {
    /// Strictly newer than anything seen. `gap` counts the sequence
    /// numbers skipped over to get here (0 for a contiguous advance).
    Fresh { gap: u64 },
    /// Equal to the newest seen: a replay.
    Duplicate { seq: u64 },
    /// Older than the newest seen: late delivery.
    OutOfOrder { seq: u64, newest: u64 },
}

/// Connection-scoped sequence-number classifier.
///
/// This is the policy kernel shared by every sequenced stream: the live
/// pipeline's assimilation thread classifies radar volumes with one, each
/// shard worker runs one per peer for halos, and the egress side
/// (`bda-serve`) runs one per subscriber connection, so duplicated or
/// gapped messages become typed outcomes instead of silent corruption.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeqTracker {
    newest: Option<u64>,
}

impl SeqTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Classify `seq` against history. `Fresh` advances the tracker; the
    /// other classes leave it untouched, so a replay of a gapped message
    /// is still a duplicate.
    pub fn classify(&mut self, seq: u64) -> SeqClass {
        let class = self.peek(seq);
        if let SeqClass::Fresh { .. } = class {
            self.newest = Some(seq);
        }
        class
    }

    /// How [`classify`](Self::classify) would class `seq` now, without
    /// recording it.
    pub fn peek(&self, seq: u64) -> SeqClass {
        match self.newest {
            Some(newest) if seq == newest => SeqClass::Duplicate { seq },
            Some(newest) if seq < newest => SeqClass::OutOfOrder { seq, newest },
            Some(newest) => SeqClass::Fresh {
                gap: seq - newest - 1,
            },
            // Joining mid-stream is not a gap: the first number seen
            // defines the local origin.
            None => SeqClass::Fresh { gap: 0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SeqTracker {
        /// Newest sequence number seen so far.
        pub fn newest(&self) -> Option<u64> {
            self.newest
        }
    }

    #[test]
    fn tracker_counts_gaps_and_advances_only_on_fresh() {
        let mut t = SeqTracker::new();
        assert_eq!(t.newest(), None);
        // Mid-stream join defines the local origin: no gap reported.
        assert_eq!(t.classify(10), SeqClass::Fresh { gap: 0 });
        assert_eq!(t.classify(11), SeqClass::Fresh { gap: 0 });
        assert_eq!(t.peek(15), SeqClass::Fresh { gap: 3 });
        assert_eq!(t.newest(), Some(11), "a peek records nothing");
        assert_eq!(t.classify(15), SeqClass::Fresh { gap: 3 });
        assert_eq!(t.classify(15), SeqClass::Duplicate { seq: 15 });
        assert_eq!(
            t.classify(12),
            SeqClass::OutOfOrder {
                seq: 12,
                newest: 15
            }
        );
        // Neither the duplicate nor the straggler moved the tracker.
        assert_eq!(t.newest(), Some(15));
    }

    #[test]
    fn drop_display_is_humane() {
        assert_eq!(
            DeliveryDrop::Duplicate { seq: 4 }.to_string(),
            "dropped duplicate seq 4"
        );
        assert_eq!(
            DeliveryDrop::OutOfOrder { seq: 2, newest: 6 }.to_string(),
            "dropped out-of-order seq 2 (newest 6)"
        );
    }
}
