//! Measurement windows: warmup then measurement.

/// A warmup + measurement window over a monotone cycle counter.
///
/// Simulations discard a transient prefix ("warmup") before collecting
/// statistics; the window tells a model, for any cycle number, whether
/// that cycle counts and when the run is over.
///
/// # Example
///
/// ```
/// use busnet_sim::clock::MeasurementWindow;
///
/// let w = MeasurementWindow::new(100, 1_000);
/// assert!(!w.is_measuring(99));
/// assert!(w.is_measuring(100));
/// assert!(w.is_measuring(1_099));
/// assert!(!w.is_measuring(1_100));
/// assert_eq!(w.measured_cycles(), 1_000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MeasurementWindow {
    warmup: u64,
    measure: u64,
}

impl MeasurementWindow {
    /// A window of `warmup` discarded cycles followed by `measure`
    /// measured cycles.
    ///
    /// # Panics
    ///
    /// Panics if `measure == 0`.
    pub fn new(warmup: u64, measure: u64) -> Self {
        assert!(measure > 0, "measurement window must be non-empty");
        MeasurementWindow { warmup, measure }
    }

    /// Number of warmup cycles.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Number of measured cycles.
    pub fn measured_cycles(&self) -> u64 {
        self.measure
    }

    /// Total number of cycles to run.
    pub fn total_cycles(&self) -> u64 {
        self.warmup + self.measure
    }

    /// Whether statistics should be collected in `cycle` (0-based).
    pub fn is_measuring(&self, cycle: u64) -> bool {
        cycle >= self.warmup && cycle < self.total_cycles()
    }

    /// The same window cut short so the run ends at cycle `total`
    /// (exclusive) — how an adaptive run that met its precision target
    /// early closes its books.
    ///
    /// # Panics
    ///
    /// Panics unless `warmup < total <= total_cycles()`: the truncated
    /// window must still contain at least one measured cycle and cannot
    /// extend the original.
    pub fn truncated(self, total: u64) -> MeasurementWindow {
        assert!(
            total > self.warmup && total <= self.total_cycles(),
            "truncation point {total} outside ({}, {}]",
            self.warmup,
            self.total_cycles()
        );
        MeasurementWindow { warmup: self.warmup, measure: total - self.warmup }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_half_open() {
        let w = MeasurementWindow::new(10, 5);
        assert!(!w.is_measuring(9));
        assert!(w.is_measuring(10));
        assert!(w.is_measuring(14));
        assert!(!w.is_measuring(15));
        assert_eq!(w.total_cycles(), 15);
    }

    #[test]
    fn zero_warmup_starts_immediately() {
        let w = MeasurementWindow::new(0, 3);
        assert!(w.is_measuring(0));
        assert_eq!(w.total_cycles(), 3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_measurement_rejected() {
        MeasurementWindow::new(5, 0);
    }
}
