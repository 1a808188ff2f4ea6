//! Multiple-bus baseline (the paper's reference 5: Valero, Llaberia et
//! al., SIGMETRICS 1983).
//!
//! A non-multiplexed network of `b` parallel buses: per memory cycle at
//! most `b` of the `x` busy modules can be connected. The paper's §3.1.1
//! chain is constructed "just assuming b (number of buses) to be equal
//! to r + 1", and §7 compares the single multiplexed bus against this
//! network ("four buses are needed with a multiple-bus network").

use crate::analytic::occupancy::{Discipline, OccupancyChain};
use crate::error::CoreError;
use crate::params::SystemParams;

/// Exact bandwidth (requests per memory cycle) of an `n × m` system
/// connected by `buses` buses.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] when `buses` is 0; otherwise
/// propagates chain failures.
///
/// # Example
///
/// ```
/// use busnet_core::analytic::multibus::multibus_bw_exact;
/// // With as many buses as modules the multiple-bus network IS a
/// // crossbar.
/// let mb = multibus_bw_exact(4, 4, 4)?;
/// let xb = busnet_core::analytic::crossbar::crossbar_ebw_exact(4, 4)?;
/// assert_eq!(mb.to_bits(), xb.to_bits());
/// # Ok::<(), busnet_core::CoreError>(())
/// ```
pub fn multibus_bw_exact(n: u32, m: u32, buses: u32) -> Result<f64, CoreError> {
    if buses == 0 {
        return Err(CoreError::InvalidParameter {
            name: "buses",
            value: "0".to_owned(),
            constraint: "buses >= 1",
        });
    }
    let params = SystemParams::new(n, m, 1)?;
    OccupancyChain::new(params, Discipline::MultipleBus { buses }).ebw()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::crossbar::crossbar_ebw_exact;

    #[test]
    fn bandwidth_monotone_in_buses() {
        let mut prev = 0.0;
        for b in 1..=8 {
            let bw = multibus_bw_exact(8, 8, b).unwrap();
            assert!(bw >= prev - 1e-12, "b={b}: {bw} < {prev}");
            prev = bw;
        }
    }

    #[test]
    fn saturates_at_crossbar() {
        // No state has more than min(n, m) busy modules, so from that
        // bus count on the chain is the crossbar's, bit for bit.
        for (n, m) in [(6, 6), (4, 7), (7, 3)] {
            let xb = crossbar_ebw_exact(n, m).unwrap();
            for buses in [n.min(m), n.max(m), 32] {
                let mb = multibus_bw_exact(n, m, buses).unwrap();
                assert_eq!(mb.to_bits(), xb.to_bits(), "({n},{m}) with {buses} buses");
            }
        }
    }

    #[test]
    fn one_bus_serves_at_most_one() {
        let bw = multibus_bw_exact(8, 8, 1).unwrap();
        assert!(bw <= 1.0 + 1e-12 && bw > 0.9, "bw = {bw}");
    }

    #[test]
    fn zero_buses_rejected() {
        assert!(multibus_bw_exact(2, 2, 0).is_err());
    }

    /// §7 claims "four buses are needed with a multiple-bus network" to
    /// reach 8×8 crossbar EBW. Under the *non-multiplexed* multiple-bus
    /// model (`BW = E[min(x, b)] ≤ b`), 4 buses cannot reach the 8×8
    /// crossbar's ≈4.95 — reference 5 evidently multiplexes its buses.
    /// We record the non-multiplexed threshold (b = 5 on 8×10, within
    /// 5% of the crossbar) as the measured fact; see EXPERIMENTS.md for
    /// the discussion.
    #[test]
    fn buses_needed_to_match_8x8_crossbar() {
        let xb = crossbar_ebw_exact(8, 8).unwrap();
        let needed = (1..=10)
            .find(|&b| multibus_bw_exact(8, 10, b).unwrap() >= 0.95 * xb)
            .expect("some bus count suffices");
        assert_eq!(needed, 5, "non-multiplexed multiple-bus threshold moved");
        // And 4 buses saturate close to their hard cap of 4.
        let four = multibus_bw_exact(8, 10, 4).unwrap();
        assert!(four > 3.9 && four <= 4.0, "b=4 on 8x10: {four}");
    }
}
