//! Running statistics for simulation output analysis.

/// Jain's fairness index of non-negative allocations:
/// `(Σx)² / (n · Σx²)`. 1 means perfectly fair, `1/n` means one entity
/// takes everything; empty or all-zero allocations read as fair (1.0).
/// The fairness measure shared by every simulator report and the
/// arbitration study.
///
/// # Example
///
/// ```
/// use busnet_sim::stats::jain_fairness_index;
///
/// assert_eq!(jain_fairness_index([3.0, 3.0, 3.0]), 1.0);
/// assert_eq!(jain_fairness_index([6.0, 0.0, 0.0]), 1.0 / 3.0);
/// assert_eq!(jain_fairness_index([]), 1.0);
/// ```
pub fn jain_fairness_index(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut n, mut total, mut sum_sq) = (0u64, 0.0f64, 0.0f64);
    for x in values {
        n += 1;
        total += x;
        sum_sq += x * x;
    }
    if n == 0 || total == 0.0 {
        return 1.0;
    }
    total * total / (n as f64 * sum_sq)
}

/// Numerically stable running mean/variance (Welford's algorithm) with
/// min/max tracking.
///
/// # Example
///
/// ```
/// use busnet_sim::stats::RunningStats;
///
/// let stats: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert_eq!(stats.mean(), 5.0);
/// assert_eq!(stats.sample_variance(), 32.0 / 7.0);
/// assert_eq!(stats.min(), 2.0);
/// assert_eq!(stats.max(), 9.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 when fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Half width of the 95% Student-t confidence interval of the mean.
    pub fn half_width_95(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        student_t_975(self.count - 1) * self.std_error()
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// 97.5th percentile of Student's t distribution for `df` degrees of
/// freedom (two-sided 95% interval). Table for small `df`, normal
/// quantile 1.96 asymptotically.
pub fn student_t_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [1.5, 2.5, 3.5, -1.0, 0.0, 10.0];
        let stats: RunningStats = data.iter().copied().collect();
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((stats.mean() - mean).abs() < 1e-12);
        assert!((stats.sample_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.half_width_95(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0).collect();
        let (left, right) = data.split_at(37);
        let mut a: RunningStats = left.iter().copied().collect();
        let b: RunningStats = right.iter().copied().collect();
        a.merge(&b);
        let all: RunningStats = data.iter().copied().collect();
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-10);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn t_table_monotone_toward_normal() {
        let mut prev = student_t_975(1);
        for df in 2..200 {
            let t = student_t_975(df);
            assert!(t <= prev + 1e-12, "t should not increase with df");
            prev = t;
        }
        assert_eq!(student_t_975(10_000), 1.960);
    }
}
