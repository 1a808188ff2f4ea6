//! §3.1.1 — the exact Markov chain with priority to memory modules.
//!
//! With priority to memories and `p = 1`, the cycle-stage vector `r` of
//! the general state definition can be disregarded and the occupancy
//! vector `n` fully determines the state (paper §3.1.1). The transition
//! structure is that of the multiple-bus chain of reference 5 with
//! `b = r + 1`, and the EBW weights account for the stretched service
//! cycle:
//!
//! ```text
//!        r+1                              min(n,m)
//! EBW =  Σ   x · (r+2)/(r+1+x) · P(x)  +    Σ      (r+2)/2 · P(x)
//!        x=1                              x=r+2
//! ```
//!
//! This module is a thin, intention-revealing wrapper over
//! [`OccupancyChain`] with
//! [`Discipline::MultiplexedMemoryPriority`].

use crate::analytic::occupancy::{Discipline, OccupancyChain};
use crate::error::CoreError;
use crate::params::SystemParams;

/// The exact §3.1.1 model (priority to memories, `p = 1`).
///
/// # Example
///
/// Reproduces the (n=4, m=6) cell of Table 1 (`r = min(n,m)+7 = 11`):
///
/// ```
/// use busnet_core::analytic::exact_chain::ExactChain;
/// use busnet_core::params::SystemParams;
///
/// let ebw = ExactChain::new(SystemParams::new(4, 6, 11)?).ebw()?;
/// assert!((ebw - 2.603).abs() < 5e-4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ExactChain {
    inner: OccupancyChain,
}

impl ExactChain {
    /// Creates the model for `params` (the `p` field is ignored: the
    /// exact chain is defined for `p = 1`).
    pub fn new(params: SystemParams) -> Self {
        ExactChain { inner: OccupancyChain::new(params, Discipline::MultiplexedMemoryPriority) }
    }

    /// Effective bandwidth in requests per processor cycle.
    ///
    /// # Errors
    ///
    /// Propagates chain-construction or solver failures.
    pub fn ebw(&self) -> Result<f64, CoreError> {
        self.inner.ebw()
    }

    /// `P(x)`: stationary distribution of the number of busy modules.
    ///
    /// # Errors
    ///
    /// Propagates chain-construction or solver failures.
    pub fn busy_distribution(&self) -> Result<Vec<f64>, CoreError> {
        self.inner.busy_distribution()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 of the paper: EBW exact values, priority to memories,
    /// r = min(n,m) + 7. Printed to three decimals.
    #[test]
    fn reproduces_table_1() {
        let table = [
            // (n, m, paper EBW)
            (2, 2, 1.417),
            (2, 4, 1.625),
            (2, 6, 1.694),
            (2, 8, 1.729),
            (4, 2, 1.625),
            (4, 4, 2.308),
            (4, 6, 2.603),
            (4, 8, 2.761),
            (6, 2, 1.694),
            (6, 4, 2.603),
            (6, 6, 3.164),
            (6, 8, 3.469),
            (8, 2, 1.729),
            (8, 4, 2.761),
            (8, 6, 3.469),
            (8, 8, 3.988),
        ];
        for (n, m, expect) in table {
            let r = n.min(m) + 7;
            let params = SystemParams::new(n, m, r).unwrap();
            let ebw = ExactChain::new(params).ebw().unwrap();
            // Tolerance: half a unit in the paper's third printed
            // decimal, plus print-rounding slack (e.g. our 3.1645
            // rounds to the printed 3.164).
            assert!(
                (ebw - expect).abs() < 7.5e-4,
                "Table 1 mismatch at n={n}, m={m}: computed {ebw:.4}, paper {expect}"
            );
        }
    }

    #[test]
    fn ebw_below_ceiling() {
        for r in [2, 6, 12] {
            let params = SystemParams::new(8, 8, r).unwrap();
            let ebw = ExactChain::new(params).ebw().unwrap();
            assert!(ebw <= params.max_ebw() + 1e-12);
            assert!(ebw > 0.0);
        }
    }
}
