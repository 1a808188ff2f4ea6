//! §3.2 — the approximate combinational (memoryless) model.
//!
//! Simplification: at the beginning of every processor cycle **all** `n`
//! processors submit fresh, independent, uniform requests; requests to
//! busy modules are simply discarded. The number of busy modules `x`
//! then has the classic distinct-cells distribution
//! `P(x) = C(m, x)·surj(n, x)/m^n` (references 17, 7, 5), and the EBW
//! follows from the same stretched-cycle weights as the exact chain.
//!
//! The paper's §5 notes the exact chain is symmetric in `n` and `m` and
//! "suggests to make symmetric the approximate expression
//! (n* = min(n,m), m* = max(n,m))"; Table 2 prints the plain
//! (non-symmetric) variant. Both are available here.

use busnet_markov::combinatorics::distinct_cells_distribution;

use crate::analytic::occupancy::Discipline;
use crate::analytic::pfqn::pfqn_ebw_deterministic;
use crate::analytic::reduced::ReducedChain;
use crate::error::CoreError;
use crate::params::{SystemParams, Workload};

/// Which variant of the §3.2 expression to evaluate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ApproxVariant {
    /// Evaluate with `(n, m)` as given — the Table 2 numbers.
    #[default]
    Plain,
    /// Evaluate with `(n*, m*) = (min(n,m), max(n,m))` — the
    /// symmetrized form suggested in §5.
    Symmetric,
}

/// The §3.2 combinational model.
///
/// # Example
///
/// The (n=4, m=2) cell of Table 2 (`r = min+7 = 9`):
///
/// ```
/// use busnet_core::analytic::approx::{ApproxModel, ApproxVariant};
/// use busnet_core::params::SystemParams;
///
/// let params = SystemParams::new(4, 2, 9)?;
/// let plain = ApproxModel::new(params, ApproxVariant::Plain).ebw();
/// assert!((plain - 1.729).abs() < 5e-4);
/// // The symmetric variant instead matches the exact value 1.625:
/// let symm = ApproxModel::new(params, ApproxVariant::Symmetric).ebw();
/// assert!((symm - 1.625).abs() < 5e-4);
/// # Ok::<(), busnet_core::CoreError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ApproxModel {
    params: SystemParams,
    variant: ApproxVariant,
}

impl ApproxModel {
    /// Creates the model.
    pub fn new(params: SystemParams, variant: ApproxVariant) -> Self {
        ApproxModel { params, variant }
    }

    /// The effective `(n, m)` after variant adjustment.
    pub fn effective_nm(&self) -> (u32, u32) {
        let (n, m) = (self.params.n(), self.params.m());
        match self.variant {
            ApproxVariant::Plain => (n, m),
            ApproxVariant::Symmetric => (n.min(m), n.max(m)),
        }
    }

    /// `P(x)`: probability that exactly `x` distinct modules are
    /// requested, indexed `0..=min(n,m)`.
    pub fn busy_distribution(&self) -> Vec<f64> {
        let (n, m) = self.effective_nm();
        distinct_cells_distribution(n, m)
    }

    /// Effective bandwidth in requests per processor cycle.
    pub fn ebw(&self) -> f64 {
        let weights = Discipline::MultiplexedMemoryPriority;
        self.busy_distribution()
            .iter()
            .enumerate()
            .map(|(x, &p)| p * weights.ebw_weight(x as u32, &self.params))
            .sum()
    }
}

/// Depth-aware combinational approximation of the buffered system
/// (the §6 buffer-sizing extension).
///
/// The paper's analytic vehicles cover the two extremes of the depth
/// axis: the §4 reduced chain is (near-)exact for depth 0, and the §6
/// product-form network models unbounded queueing at the modules. This
/// closure interpolates between them with the classic finite-buffer
/// geometric-tail argument (cf. M/M/1/K loss and the finite-buffer
/// stability literature): the throughput a depth-`k` buffer forfeits
/// relative to the unbounded system shrinks like `ρᵏ`, where `ρ` is
/// the per-module utilization of the unbounded system —
///
/// ```text
/// EBW(k) ≈ EBW(∞) − (EBW(∞) − EBW(0)) · ρᵏ,
/// ρ = min(U_mem(∞), 0.98), U_mem = X·r/m
/// ```
///
/// with `EBW(0)` from the reduced chain and `EBW(∞)` from the
/// product-form network solved for *deterministic* service
/// ([`pfqn_ebw_deterministic`] — approximate MVA with the FCFS
/// residual correction, matching the paper's constant-`r` service far
/// better than the pessimistic exponential model), clamped into
/// `[EBW(0), (r+2)/2]`. Exact at `k = 0`, monotone non-decreasing in
/// `k`, and converging to the clamped `EBW(∞)`; validated against
/// simulation in `tests/buffer_depth.rs`.
///
/// # Errors
///
/// Propagates reduced-chain / product-form solver failures.
///
/// # Example
///
/// ```
/// use busnet_core::analytic::approx::depth_aware_ebw;
/// use busnet_core::params::SystemParams;
///
/// let params = SystemParams::new(8, 8, 8)?;
/// let shallow = depth_aware_ebw(&params, 1)?;
/// let deep = depth_aware_ebw(&params, 8)?;
/// assert!(depth_aware_ebw(&params, 0)? <= shallow);
/// assert!(shallow <= deep);
/// assert!(deep <= params.max_ebw());
/// # Ok::<(), busnet_core::CoreError>(())
/// ```
pub fn depth_aware_ebw(params: &SystemParams, depth: u32) -> Result<f64, CoreError> {
    Ok(DepthAwareApprox::new(params)?.ebw_at(depth))
}

/// The depth-aware closure with its depth-independent anchors solved
/// once — use this instead of repeated [`depth_aware_ebw`] calls when
/// sweeping many depths at one operating point (the anchors cost a
/// Markov-chain solve plus an MVA solve each).
#[derive(Clone, Copy, Debug)]
pub struct DepthAwareApprox {
    e0: f64,
    e_inf: f64,
    rho: f64,
}

impl DepthAwareApprox {
    /// Solves the two anchors for `params`: the reduced chain
    /// (`k = 0`) and the clamped deterministic-service product-form
    /// limit (`k = ∞`).
    ///
    /// # Errors
    ///
    /// Propagates reduced-chain / product-form solver failures.
    pub fn new(params: &SystemParams) -> Result<Self, CoreError> {
        let e0 = ReducedChain::new(*params).ebw()?;
        let e_inf =
            pfqn_ebw_deterministic(params, &Workload::Uniform)?.max(e0).min(params.max_ebw());
        // Per-module utilization of the unbounded system, in
        // module-busy fraction: X requests per bus cycle, each holding
        // a module r cycles, spread over m modules.
        let x = e_inf / f64::from(params.processor_cycle());
        let rho = (x * f64::from(params.r()) / f64::from(params.m())).min(0.98);
        Ok(DepthAwareApprox { e0, e_inf, rho })
    }

    /// The approximate EBW at FIFO depth `depth`.
    pub fn ebw_at(&self, depth: u32) -> f64 {
        if depth == 0 {
            return self.e0;
        }
        self.e_inf - (self.e_inf - self.e0) * self.rho.powi(depth.min(1024) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2 of the paper: EBW approximate values (plain variant),
    /// priority to memories, r = min(n,m) + 7.
    #[test]
    fn reproduces_table_2() {
        let table = [
            (2, 2, 1.417),
            (2, 4, 1.625),
            (2, 6, 1.694),
            (2, 8, 1.729),
            (4, 2, 1.729),
            (4, 4, 2.392),
            (4, 6, 2.653),
            (4, 8, 2.792),
            (6, 2, 1.807),
            (6, 4, 2.778),
            (6, 6, 3.305),
            (6, 8, 3.570),
            (8, 2, 1.827),
            (8, 4, 2.987),
            (8, 6, 3.692),
            (8, 8, 4.178),
        ];
        for (n, m, expect) in table {
            let r = n.min(m) + 7;
            let params = SystemParams::new(n, m, r).unwrap();
            let ebw = ApproxModel::new(params, ApproxVariant::Plain).ebw();
            // Half a unit in the third printed decimal plus rounding
            // slack (our 2.7785 prints as the paper's 2.778).
            assert!(
                (ebw - expect).abs() < 7.5e-4,
                "Table 2 mismatch at n={n}, m={m}: computed {ebw:.4}, paper {expect}"
            );
        }
    }

    #[test]
    fn symmetric_variant_is_symmetric() {
        for (n, m) in [(2, 8), (4, 6), (8, 2)] {
            let r = n.min(m) + 7;
            let a = ApproxModel::new(SystemParams::new(n, m, r).unwrap(), ApproxVariant::Symmetric)
                .ebw();
            let b = ApproxModel::new(SystemParams::new(m, n, r).unwrap(), ApproxVariant::Symmetric)
                .ebw();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn plain_equals_symmetric_when_n_le_m() {
        let params = SystemParams::new(4, 8, 11).unwrap();
        let a = ApproxModel::new(params, ApproxVariant::Plain).ebw();
        let b = ApproxModel::new(params, ApproxVariant::Symmetric).ebw();
        assert_eq!(a, b);
    }

    /// §5: "The observed numerical disagreements are always less than
    /// 9%" between the approximate model and the exact chain.
    #[test]
    fn approximation_error_below_nine_percent() {
        use crate::analytic::exact_chain::ExactChain;
        for n in [2u32, 4, 6, 8] {
            for m in [2u32, 4, 6, 8] {
                let r = n.min(m) + 7;
                let params = SystemParams::new(n, m, r).unwrap();
                let approx = ApproxModel::new(params, ApproxVariant::Plain).ebw();
                let exact = ExactChain::new(params).ebw().unwrap();
                let rel = (approx - exact).abs() / exact;
                assert!(rel < 0.09, "disagreement {rel:.3} at n={n}, m={m}");
            }
        }
    }

    #[test]
    fn distribution_normalizes() {
        let params = SystemParams::new(7, 5, 4).unwrap();
        let d = ApproxModel::new(params, ApproxVariant::Plain).busy_distribution();
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depth_aware_anchors_at_reduced_chain() {
        for (n, m, r) in [(4u32, 4u32, 6u32), (8, 8, 8), (8, 16, 8)] {
            let params = SystemParams::new(n, m, r).unwrap();
            let anchored = depth_aware_ebw(&params, 0).unwrap();
            let reduced = ReducedChain::new(params).ebw().unwrap();
            assert_eq!(anchored, reduced, "({n},{m},{r})");
        }
    }

    #[test]
    fn depth_aware_is_monotone_and_bounded() {
        for (n, m, r) in [(8u32, 4u32, 8u32), (8, 8, 8), (8, 16, 8), (16, 16, 18)] {
            let params = SystemParams::new(n, m, r).unwrap();
            let mut prev = 0.0;
            for depth in [0u32, 1, 2, 4, 8, 64] {
                let ebw = depth_aware_ebw(&params, depth).unwrap();
                assert!(ebw >= prev - 1e-12, "({n},{m},{r}) depth {depth}: {ebw} after {prev}");
                assert!(ebw <= params.max_ebw() + 1e-12, "({n},{m},{r}) depth {depth}: {ebw}");
                prev = ebw;
            }
        }
    }

    #[test]
    fn depth_aware_converges_to_the_unbounded_limit() {
        let params = SystemParams::new(8, 8, 8).unwrap();
        let deep = depth_aware_ebw(&params, 256).unwrap();
        let limit = pfqn_ebw_deterministic(&params, &Workload::Uniform)
            .unwrap()
            .max(ReducedChain::new(params).ebw().unwrap())
            .min(params.max_ebw());
        assert!((deep - limit).abs() < 1e-6, "deep {deep} vs limit {limit}");
    }

    #[test]
    fn depth_aware_carries_depth_information_where_buffering_helps() {
        // The regression behind this test: with the exponential-service
        // ∞-limit the closure collapsed to the k = 0 value everywhere
        // the buffering report looks. With the deterministic-service
        // limit it must predict a strictly positive depth gain at the
        // report's bus-relieved points.
        for (m, r) in [(8u32, 16u32), (16, 12)] {
            let params = SystemParams::new(8, m, r).unwrap();
            let e0 = depth_aware_ebw(&params, 0).unwrap();
            let e4 = depth_aware_ebw(&params, 4).unwrap();
            assert!(e4 > e0 + 0.05, "m={m} r={r}: {e4} vs {e0} — no depth signal");
        }
    }
}
