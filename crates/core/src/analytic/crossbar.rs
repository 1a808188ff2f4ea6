//! Crossbar baselines (the reference lines of Figs 2 and 5).
//!
//! The paper compares the multiplexed bus against "a non-multiplexed
//! crossbar interconnection network having a basic operation cycle of
//! length `(r+2)t`" — i.e. the classic memory-interference model
//! (reference 1) whose cycle equals one processor cycle, so its
//! bandwidth (requests per crossbar cycle) is directly an EBW.

use crate::analytic::multibus::multibus_bw_exact;
use crate::error::CoreError;

/// Exact crossbar EBW by the occupancy Markov chain (Bhandarkar,
/// reference 1): expected number of busy modules per cycle with
/// persistent resubmission, `p = 1`. The crossbar is the multiple-bus
/// network (reference 5) with `b = min(n, m)`: no state has more busy
/// modules than that, so every busy module serves.
///
/// # Errors
///
/// Propagates chain-construction or solver failures.
///
/// # Example
///
/// ```
/// use busnet_core::analytic::crossbar::crossbar_ebw_exact;
/// // ≈ 0.6·n for large square systems (paper §1).
/// let ebw = crossbar_ebw_exact(8, 8)?;
/// assert!(ebw > 4.8 && ebw < 5.1);
/// # Ok::<(), busnet_core::CoreError>(())
/// ```
pub fn crossbar_ebw_exact(n: u32, m: u32) -> Result<f64, CoreError> {
    multibus_bw_exact(n, m, n.min(m))
}

/// Strecker's memoryless approximation of crossbar bandwidth
/// (reference 17): `m · (1 − (1 − 1/m)^n)`.
///
/// # Example
///
/// ```
/// use busnet_core::analytic::crossbar::crossbar_ebw_strecker;
/// let approx = crossbar_ebw_strecker(8, 8);
/// assert!((approx - 5.25).abs() < 0.01);
/// ```
pub fn crossbar_ebw_strecker(n: u32, m: u32) -> f64 {
    let m_f = f64::from(m);
    m_f * (1.0 - (1.0 - 1.0 / m_f).powi(n as i32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_strecker() {
        // Persistent resubmission clusters requests, so the exact chain
        // yields less bandwidth than the memoryless approximation.
        for (n, m) in [(4, 4), (8, 8), (8, 4)] {
            let exact = crossbar_ebw_exact(n, m).unwrap();
            let approx = crossbar_ebw_strecker(n, m);
            assert!(exact <= approx + 1e-9, "({n},{m}): exact {exact} approx {approx}");
        }
    }

    #[test]
    fn single_module_serves_one() {
        assert!((crossbar_ebw_exact(4, 1).unwrap() - 1.0).abs() < 1e-12);
        assert!((crossbar_ebw_strecker(4, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_processor_always_served() {
        assert!((crossbar_ebw_exact(1, 7).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crossbar_near_symmetry() {
        // Exact-chain bandwidth is very nearly (not exactly) symmetric
        // in n and m; the literature's symmetry remark holds at print
        // precision.
        let a = crossbar_ebw_exact(4, 8).unwrap();
        let b = crossbar_ebw_exact(8, 4).unwrap();
        assert!((a - b).abs() < 5e-4, "{a} vs {b}");
    }
}
