//! Summary statistics over independent replications.

use crate::stats::RunningStats;

/// Aggregated result of a replicated experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicationSummary {
    values: Vec<f64>,
    stats: RunningStats,
}

impl ReplicationSummary {
    /// Builds a summary from raw per-replication values.
    pub fn from_values(values: Vec<f64>) -> Self {
        let stats = values.iter().copied().collect();
        ReplicationSummary { values, stats }
    }

    /// Per-replication values in run order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of replications.
    pub fn replications(&self) -> usize {
        self.values.len()
    }

    /// Point estimate: mean over replications.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Half width of the 95% confidence interval of the mean.
    pub fn half_width_95(&self) -> f64 {
        self.stats.half_width_95()
    }

    /// The underlying statistics accumulator.
    pub fn stats(&self) -> &RunningStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{parallel_map, ExecutionMode};
    use crate::seeds::SeedSequence;

    #[test]
    fn summary_statistics() {
        // (values, mean, whether the interval has positive width)
        let cases: [(Vec<f64>, f64, bool); 2] =
            [(vec![1.0, 2.0, 3.0, 4.0], 2.5, true), (vec![2.0; 6], 2.0, false)];
        for (values, mean, spread) in cases {
            let len = values.len();
            let s = ReplicationSummary::from_values(values);
            assert_eq!(s.mean(), mean);
            assert_eq!(s.replications(), len);
            assert_eq!(s.half_width_95() > 0.0, spread, "{:?}", s.values());
        }
    }

    #[test]
    fn parallel_replications_bit_identical_to_serial() {
        // A deliberately seed-sensitive metric: any reordering or
        // seed-stream mixup between modes changes the values.
        let seeds = SeedSequence::new(0x1985);
        let jobs: Vec<(u64, u64)> = (0..23).map(|i| (i, seeds.stream(i))).collect();
        let summarize = |mode| {
            ReplicationSummary::from_values(parallel_map(&jobs, mode, |_, &(i, seed)| {
                ((seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93)) % 100_000) as f64
            }))
        };
        let serial = summarize(ExecutionMode::Serial);
        for mode in [ExecutionMode::Parallel, ExecutionMode::Threads(3)] {
            let parallel = summarize(mode);
            assert_eq!(serial.values(), parallel.values(), "{mode:?}");
            assert_eq!(serial, parallel, "{mode:?}");
        }
    }
}
