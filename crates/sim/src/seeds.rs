//! Deterministic seed derivation.
//!
//! Experiments must be reproducible and replications independent. A
//! [`SeedSequence`] turns one master seed into arbitrarily many
//! well-mixed 64-bit sub-seeds using the SplitMix64 finalizer, the same
//! construction `rand` uses internally for seeding.

/// Derives independent sub-seeds from a master seed.
///
/// Two sequences with different master seeds, or two different streams
/// of the same sequence, produce unrelated seed values.
///
/// # Example
///
/// ```
/// use busnet_sim::seeds::SeedSequence;
///
/// let seq = SeedSequence::new(42);
/// let a = seq.stream(0);
/// let b = seq.stream(1);
/// assert_ne!(a, b);
/// assert_eq!(a, SeedSequence::new(42).stream(0)); // reproducible
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `master`.
    pub fn new(master: u64) -> Self {
        SeedSequence { master }
    }

    /// The `index`-th derived seed.
    pub fn stream(&self, index: u64) -> u64 {
        splitmix64(self.master.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// A child sequence, useful for nesting (replication → component).
    pub fn child(&self, index: u64) -> SeedSequence {
        SeedSequence { master: self.stream(index) ^ 0xA5A5_5A5A_C3C3_3C3C }
    }
}

/// SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_distinct() {
        let seq = SeedSequence::new(1);
        let seeds: Vec<u64> = (0..1000).map(|i| seq.stream(i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn masters_decorrelate() {
        let a = SeedSequence::new(1).stream(0);
        let b = SeedSequence::new(2).stream(0);
        assert_ne!(a, b);
    }

    #[test]
    fn child_sequences_diverge_from_parent() {
        let parent = SeedSequence::new(7);
        let child = parent.child(0);
        assert_ne!(parent.stream(0), child.stream(0));
        assert_ne!(parent.child(0).master, parent.child(1).master);
    }

    #[test]
    fn splitmix_avalanche_changes_many_bits() {
        let x = splitmix64(0);
        let y = splitmix64(1);
        assert!((x ^ y).count_ones() > 16, "poor avalanche: {:064b}", x ^ y);
    }
}
