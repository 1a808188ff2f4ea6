//! Derived performance measures (paper §2).
//!
//! Everything follows from the effective bandwidth. With
//! `X = EBW / (r+2)` requests serviced per **bus** cycle:
//!
//! * bus utilization `Pb = 2X` (each serviced request occupies the bus
//!   for exactly two cycles: one request, one return), the inverse of
//!   the paper's `EBW = Pb (r+2)/2`;
//! * memory utilization `X · r / m` (each service keeps one of `m`
//!   modules busy for `r` cycles);
//! * processor efficiency `EBW / (n·p)` (the y-axis of Figs 3 and 6);
//! * mean waiting time per access by Little's law over the
//!   think–request–service loop.

use crate::params::SystemParams;

/// Performance measures derived from an EBW estimate.
///
/// # Example
///
/// ```
/// use busnet_core::metrics::Metrics;
/// use busnet_core::params::SystemParams;
///
/// let params = SystemParams::new(8, 16, 8)?;
/// // A hypothetical EBW of 5.0 = the ceiling (r+2)/2 for r = 8:
/// let m = Metrics::from_ebw(params, 5.0);
/// assert!((m.bus_utilization - 1.0).abs() < 1e-12);
/// assert!((m.memory_utilization - 0.25).abs() < 1e-12);
/// # Ok::<(), busnet_core::CoreError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metrics {
    /// Effective bandwidth: requests serviced per processor cycle.
    pub ebw: f64,
    /// Fraction of bus cycles carrying a transfer, `Pb = 2·EBW/(r+2)`.
    pub bus_utilization: f64,
    /// Fraction of time an average memory module is serving.
    pub memory_utilization: f64,
    /// `EBW / (n·p)` — fraction of its cycle an average processor spends
    /// on serviced work rather than blocked waiting.
    pub processor_efficiency: f64,
    /// Mean waiting time per access in bus cycles (queueing only, i.e.
    /// time beyond the conflict-free `r + 2` round trip), from Little's
    /// law. `None` when the throughput is zero.
    pub mean_wait_cycles: Option<f64>,
}

impl Metrics {
    /// Derives all measures from `ebw` under `params`.
    pub fn from_ebw(params: SystemParams, ebw: f64) -> Metrics {
        let rc = f64::from(params.processor_cycle());
        let x = ebw / rc; // requests per bus cycle
        let think = rc * (1.0 - params.p()) / params.p();
        let mean_wait_cycles = if x > 0.0 {
            // n = X · (think + (r+2) + W)  ⇒  W = n/X − (r+2) − think.
            Some((f64::from(params.n()) / x - rc - think).max(0.0))
        } else {
            None
        };
        Metrics {
            ebw,
            bus_utilization: 2.0 * x,
            memory_utilization: x * f64::from(params.r()) / f64::from(params.m()),
            processor_efficiency: ebw / (f64::from(params.n()) * params.p()),
            mean_wait_cycles,
        }
    }

    /// Whether the EBW is a finite, non-negative number — the only
    /// kind a sweep row, a serve reply or a cache journal may carry.
    pub(crate) fn has_valid_ebw(&self) -> bool {
        self.ebw.is_finite() && self.ebw >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: u32, m: u32, r: u32) -> SystemParams {
        SystemParams::new(n, m, r).unwrap()
    }

    #[test]
    fn saturated_bus_has_unit_utilization() {
        let p = params(8, 8, 8);
        let m = Metrics::from_ebw(p, p.max_ebw());
        assert!((m.bus_utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_processor_no_contention_wait_is_zero() {
        // One processor, p = 1: round trip is exactly r+2, EBW = 1.
        let p = params(1, 4, 6);
        let m = Metrics::from_ebw(p, 1.0);
        assert_eq!(m.mean_wait_cycles, Some(0.0));
        assert!((m.processor_efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn waiting_time_grows_with_lost_bandwidth() {
        let p = params(8, 8, 8);
        let fast = Metrics::from_ebw(p, 4.5).mean_wait_cycles.unwrap();
        let slow = Metrics::from_ebw(p, 3.0).mean_wait_cycles.unwrap();
        assert!(slow > fast);
    }

    #[test]
    fn think_time_discounts_wait() {
        let p = params(8, 16, 8).with_request_probability(0.5).unwrap();
        // With p = 0.5 the mean think time is (r+2)(1-p)/p = 10 cycles.
        // EBW = n·p·(r+2)/(think + r + 2 + W) at W = 0 gives EBW = 4:
        let m = Metrics::from_ebw(p, 4.0);
        assert!((m.mean_wait_cycles.unwrap() - 0.0).abs() < 1e-9);
        assert!((m.processor_efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_ebw_has_no_wait_estimate() {
        let p = params(2, 2, 2);
        assert_eq!(Metrics::from_ebw(p, 0.0).mean_wait_cycles, None);
    }

    #[test]
    fn memory_utilization_scales_inversely_with_m() {
        let small = Metrics::from_ebw(params(8, 4, 8), 3.0);
        let large = Metrics::from_ebw(params(8, 16, 8), 3.0);
        assert!((small.memory_utilization / large.memory_utilization - 4.0).abs() < 1e-12);
    }
}
