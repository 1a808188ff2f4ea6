//! Batch-means stopping for single-run steady-state estimation.
//!
//! An alternative to independent replications: one long run is divided
//! into batches whose means are (approximately) independent, giving a
//! confidence interval without re-warming the model.

use crate::stats::RunningStats;

/// A sequential stopping rule over batch means: extend a run batch by
/// batch until the 95% confidence half-width of the batch-mean estimate
/// drops to a target (and a minimum batch count guards against
/// stopping on a fluke early estimate).
///
/// This is the engine behind adaptive-precision replication
/// (`--ci-width`): instead of a fixed replication count, a single long
/// run keeps extending until its EBW estimate is as tight as requested,
/// which amortizes both the warmup and the Student-t small-sample
/// penalty that a handful of independent replications pays.
///
/// # Example
///
/// ```
/// use busnet_sim::batch::SequentialStopping;
///
/// let mut stop = SequentialStopping::new(0.05, 4);
/// for i in 0..12 {
///     stop.record_batch(1.0 + 0.001 * (i % 2) as f64);
///     if stop.satisfied() {
///         break;
///     }
/// }
/// assert!(stop.satisfied());
/// assert!(stop.half_width_95() <= 0.05);
/// assert!((stop.mean() - 1.0005).abs() < 0.1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SequentialStopping {
    target_half_width: f64,
    min_batches: u64,
    /// `(mean, trust width)` of an external prior estimate, if any.
    prior: Option<(f64, f64)>,
    means: RunningStats,
}

impl SequentialStopping {
    /// A rule that stops once at least `min_batches` batch means are in
    /// and their 95% half-width is at most `target_half_width`.
    ///
    /// # Panics
    ///
    /// Panics unless `target_half_width` is non-negative and finite and
    /// `min_batches >= 2` (one batch has no variance estimate).
    pub fn new(target_half_width: f64, min_batches: u64) -> Self {
        assert!(
            target_half_width.is_finite() && target_half_width >= 0.0,
            "target half-width must be a non-negative finite number"
        );
        assert!(min_batches >= 2, "need at least 2 batches for a variance estimate");
        SequentialStopping {
            target_half_width,
            min_batches,
            prior: None,
            means: RunningStats::new(),
        }
    }

    /// A rule seeded with an external prior estimate of the mean (e.g.
    /// the fluid mean-field prediction of a sweep's screening pass).
    /// When the running mean lands within `trust_width` of
    /// `prior_mean`, the rule accepts at half the usual minimum batch
    /// count; the half-width target itself is never relaxed, so a
    /// seeded estimate is exactly as tight as an unseeded one.
    ///
    /// # Panics
    ///
    /// As [`SequentialStopping::new`], plus `prior_mean` must be finite
    /// and `trust_width` non-negative and finite.
    pub fn with_prior(
        target_half_width: f64,
        min_batches: u64,
        prior_mean: f64,
        trust_width: f64,
    ) -> Self {
        assert!(
            prior_mean.is_finite() && trust_width.is_finite() && trust_width >= 0.0,
            "prior must be finite with a non-negative trust width"
        );
        let mut rule = SequentialStopping::new(target_half_width, min_batches);
        rule.prior = Some((prior_mean, trust_width));
        rule
    }

    /// Records one completed batch's mean.
    pub fn record_batch(&mut self, value: f64) {
        self.means.push(value);
    }

    /// Number of batches recorded.
    pub fn batches(&self) -> u64 {
        self.means.count()
    }

    /// Grand mean over recorded batches.
    pub fn mean(&self) -> f64 {
        self.means.mean()
    }

    /// Current 95% half-width over batch means.
    pub fn half_width_95(&self) -> f64 {
        self.means.half_width_95()
    }

    /// Whether the stopping condition holds.
    pub fn satisfied(&self) -> bool {
        if self.half_width_95() > self.target_half_width {
            return false;
        }
        if self.batches() >= self.min_batches {
            return true;
        }
        // A confirmed prior lets the rule accept early, at half the
        // usual batch minimum (never below 2 — one batch has no
        // variance estimate). The width check above still gates entry.
        match self.prior {
            Some((prior_mean, trust)) => {
                self.batches() >= self.min_batches.div_ceil(2).max(2)
                    && (self.mean() - prior_mean).abs() <= trust
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_stream_zero_width() {
        let mut stop = SequentialStopping::new(0.0, 2);
        for _ in 0..50 {
            stop.record_batch(3.5);
        }
        assert_eq!(stop.half_width_95(), 0.0);
        assert_eq!(stop.mean(), 3.5);
        assert!(stop.satisfied(), "a zero-width target is met by a constant stream");
    }

    #[test]
    fn estimate_is_a_running_stats_over_the_batches() {
        // The rule's estimate is exactly Welford's over the recorded
        // batch means, bit for bit.
        let batches = [4.93, 5.07, 4.88, 5.21, 4.99, 5.02, 4.95, 5.13, 4.9, 5.04];
        let mut stop = SequentialStopping::new(0.05, 8);
        let mut plain = RunningStats::new();
        for (k, &b) in batches.iter().enumerate() {
            stop.record_batch(b);
            plain.push(b);
            assert_eq!(stop.batches(), k as u64 + 1);
            assert_eq!(stop.mean().to_bits(), plain.mean().to_bits(), "batch {k}");
            assert_eq!(
                stop.half_width_95().to_bits(),
                plain.half_width_95().to_bits(),
                "batch {k}"
            );
        }
    }

    #[test]
    fn stopping_honors_minimum_batches() {
        let mut stop = SequentialStopping::new(10.0, 5);
        for _ in 0..4 {
            stop.record_batch(1.0);
            assert!(!stop.satisfied(), "must not stop before min_batches");
        }
        stop.record_batch(1.0);
        assert!(stop.satisfied());
        assert_eq!(stop.batches(), 5);
    }

    #[test]
    fn stopping_waits_for_tight_interval() {
        // High-variance batches keep the rule unsatisfied; once enough
        // accumulate, the t/√k factor shrinks the interval below target.
        let mut stop = SequentialStopping::new(0.35, 2);
        let mut batches = 0;
        while !stop.satisfied() {
            stop.record_batch(if batches % 2 == 0 { 0.0 } else { 1.0 });
            batches += 1;
            assert!(batches < 100, "rule never converged");
        }
        assert!(batches > 4, "alternating batches need several samples, got {batches}");
        assert!(stop.half_width_95() <= 0.35);
    }

    #[test]
    #[should_panic(expected = "at least 2 batches")]
    fn degenerate_minimum_rejected() {
        SequentialStopping::new(0.1, 1);
    }

    #[test]
    fn confirmed_prior_accepts_at_half_the_minimum() {
        let mut seeded = SequentialStopping::with_prior(0.1, 8, 1.0, 0.05);
        let mut plain = SequentialStopping::new(0.1, 8);
        for _ in 0..4 {
            seeded.record_batch(1.0);
            plain.record_batch(1.0);
        }
        assert!(seeded.satisfied(), "mean confirms the prior at 4 of 8 batches");
        assert!(!plain.satisfied(), "unseeded rule still waits for min_batches");
    }

    #[test]
    fn disagreeing_prior_gives_no_early_accept() {
        let mut stop = SequentialStopping::with_prior(0.1, 8, 2.0, 0.05);
        for _ in 0..7 {
            stop.record_batch(1.0);
            assert!(!stop.satisfied(), "mean 1.0 is outside the prior's trust band");
        }
        stop.record_batch(1.0);
        assert!(stop.satisfied(), "the regular rule still applies at min_batches");
    }

    #[test]
    fn prior_never_relaxes_the_width_target() {
        let mut stop = SequentialStopping::with_prior(0.01, 8, 0.5, 1.0);
        for i in 0..6 {
            stop.record_batch(if i % 2 == 0 { 0.0 } else { 1.0 });
        }
        assert!(stop.half_width_95() > 0.01);
        assert!(!stop.satisfied(), "wide interval blocks acceptance even with a trusted prior");
    }

    #[test]
    #[should_panic(expected = "prior must be finite")]
    fn degenerate_prior_rejected() {
        SequentialStopping::with_prior(0.1, 4, f64::NAN, 0.1);
    }
}
