//! The occupancy-vector Markov chain shared by the exact models.
//!
//! State: the multiset of per-module queue lengths (sorted descending,
//! zeros omitted) with total population `n` — the `(n₁, …, n_m)` vector
//! of paper §3.1.1 up to permutation. One transition = one service
//! epoch:
//!
//! 1. With `x` busy modules, `K = cap(x)` of them (chosen uniformly)
//!    complete one request each (`cap` depends on the
//!    [`Discipline`]).
//! 2. The `K` released processors immediately resubmit, each picking a
//!    module uniformly at random (hypotheses *e*/*f* with `p = 1`).
//!
//! The chain is exact for the multiple-bus network (reference 5,
//! `cap = min(x, b)`), and so for the crossbar (reference 1), which is
//! that network with `b = min(n, m)`, and for the multiplexed single
//! bus with priority to memories (§3.1.1, `cap = min(x, r+1)`); only
//! the EBW weighting differs between the two disciplines (see
//! [`Discipline::ebw_weight`]).

use busnet_markov::chain::ChainBuilder;
use busnet_markov::combinatorics::{binomial, factorial, multinomial, partitions};
use busnet_markov::solve::stationary_dense;
use busnet_markov::{StateSpace, TransitionMatrix};

use crate::error::CoreError;
use crate::params::SystemParams;

/// Sorted-descending occupancy vector, zeros omitted. The total equals
/// the number of processors `n`; the length is the number of busy
/// modules `x`.
pub type OccupancyState = Vec<u32>;

/// Which interconnection network the chain models. Determines the
/// per-epoch service cap and the EBW weight per state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Discipline {
    /// Multiple-bus network with `buses` buses (paper reference 5): at
    /// most `buses` modules serve per cycle. With `buses ≥ min(n, m)`
    /// every busy module serves: the full crossbar (reference 1).
    MultipleBus {
        /// Number of buses `b ≥ 1`.
        buses: u32,
    },
    /// Multiplexed single bus with priority to memories (paper §3.1.1):
    /// bus serialization admits at most `r + 1` services per processor
    /// cycle, and partially-filled cycles stretch to `r + 1 + x` bus
    /// cycles.
    MultiplexedMemoryPriority,
}

impl Discipline {
    /// Maximum number of requests serviced in one epoch when `x` modules
    /// are busy.
    pub fn service_cap(&self, x: u32, params: &SystemParams) -> u32 {
        match self {
            Discipline::MultipleBus { buses } => x.min(*buses),
            Discipline::MultiplexedMemoryPriority => x.min(params.r() + 1),
        }
    }

    /// Contribution of a state with `x` busy modules to the EBW, in
    /// requests per processor cycle.
    ///
    /// For the multiplexed bus this implements the paper's stretched
    /// cycle: `x · (r+2)/(r+1+x)` when `x ≤ r + 1`, saturating at
    /// `(r+2)/2` beyond.
    pub fn ebw_weight(&self, x: u32, params: &SystemParams) -> f64 {
        match self {
            Discipline::MultipleBus { buses } => f64::from(x.min(*buses)),
            Discipline::MultiplexedMemoryPriority => {
                let r = params.r();
                if x <= r + 1 {
                    f64::from(x) * f64::from(r + 2) / f64::from(r + 1 + x)
                } else {
                    f64::from(r + 2) / 2.0
                }
            }
        }
    }
}

/// The occupancy chain for a parameterized system and discipline.
///
/// # Example
///
/// ```
/// use busnet_core::analytic::occupancy::{Discipline, OccupancyChain};
/// use busnet_core::params::SystemParams;
///
/// // 8×8 crossbar (8 buses): the classic memory-interference chain.
/// let params = SystemParams::new(8, 8, 1)?;
/// let chain = OccupancyChain::new(params, Discipline::MultipleBus { buses: 8 });
/// let ebw = chain.ebw()?;
/// assert!(ebw > 4.5 && ebw < 5.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct OccupancyChain {
    params: SystemParams,
    discipline: Discipline,
}

impl OccupancyChain {
    /// Creates the chain description (nothing is computed yet).
    pub fn new(params: SystemParams, discipline: Discipline) -> Self {
        OccupancyChain { params, discipline }
    }

    /// Builds the reachable state space and transition matrix.
    ///
    /// # Errors
    ///
    /// Propagates matrix-validation failures (a bug guard: transition
    /// rows are constructed to sum to 1).
    pub fn build(&self) -> Result<(StateSpace<OccupancyState>, TransitionMatrix), CoreError> {
        let n = self.params.n();
        let m = self.params.m();
        // Seed: all processors queued on one module (always a valid
        // occupancy state); BFS reaches the full recurrent class.
        let seed: OccupancyState = vec![n];
        let (space, matrix) = ChainBuilder::explore([seed], |state| self.transitions(state, n, m))?;
        Ok((space, matrix))
    }

    /// Stationary distribution over the reachable states.
    ///
    /// # Errors
    ///
    /// See [`OccupancyChain::build`]; plus solver failures on
    /// pathological chains.
    pub fn stationary(&self) -> Result<(StateSpace<OccupancyState>, Vec<f64>), CoreError> {
        let (space, matrix) = self.build()?;
        let pi = stationary_dense(&matrix)?;
        Ok((space, pi))
    }

    /// The distribution of the number of busy modules `x` under the
    /// stationary occupancy distribution: `P(x)` of the paper's EBW
    /// formula, indexed `0..=min(n,m)`.
    ///
    /// # Errors
    ///
    /// See [`OccupancyChain::stationary`].
    pub fn busy_distribution(&self) -> Result<Vec<f64>, CoreError> {
        let (space, pi) = self.stationary()?;
        let mut dist = vec![0.0; self.params.min_nm() as usize + 1];
        for (i, state) in space.iter() {
            dist[state.len()] += pi[i];
        }
        Ok(dist)
    }

    /// Effective bandwidth in requests per processor cycle.
    ///
    /// # Errors
    ///
    /// See [`OccupancyChain::stationary`].
    pub fn ebw(&self) -> Result<f64, CoreError> {
        let dist = self.busy_distribution()?;
        Ok(dist
            .iter()
            .enumerate()
            .map(|(x, &p)| p * self.discipline.ebw_weight(x as u32, &self.params))
            .sum())
    }

    /// Full outgoing distribution of `state`.
    fn transitions(&self, state: &OccupancyState, n: u32, m: u32) -> Vec<(OccupancyState, f64)> {
        let x = state.len() as u32;
        debug_assert!(state.iter().sum::<u32>() == n, "population must be conserved");
        let cap = self.discipline.service_cap(x, &self.params).min(x);
        if cap == 0 {
            // No busy modules (only possible if n = 0, which params
            // forbid) — absorb.
            return vec![(state.clone(), 1.0)];
        }

        // Group the busy modules by queue length.
        let busy_groups = group_values(state);

        let mut out: Vec<(OccupancyState, f64)> = Vec::new();
        // Enumerate how many modules of each busy group get serviced.
        let selections =
            bounded_compositions(cap, &busy_groups.iter().map(|g| g.1).collect::<Vec<_>>());
        let total_ways = binomial(x, cap);
        for sel in selections {
            let mut sel_weight = 1.0;
            for (k, (_, g)) in sel.iter().zip(&busy_groups) {
                sel_weight *= binomial(*g, *k);
            }
            sel_weight /= total_ways;

            // Residual occupancy after the selected modules each finish
            // one request.
            let mut residual: Vec<u32> = Vec::with_capacity(m as usize);
            for (&(value, count), &served) in busy_groups.iter().zip(&sel) {
                for _ in 0..served {
                    residual.push(value - 1);
                }
                for _ in 0..(count - served) {
                    residual.push(value);
                }
            }
            residual.resize(m as usize, 0); // idle modules

            // Redistribute `cap` released processors uniformly.
            distribute_uniform(&residual, cap, m, sel_weight, &mut out);
        }
        out
    }
}

/// Groups a sorted slice into `(value, count)` pairs.
fn group_values(sorted: &[u32]) -> Vec<(u32, u32)> {
    let mut groups: Vec<(u32, u32)> = Vec::new();
    for &v in sorted {
        match groups.last_mut() {
            Some(g) if g.0 == v => g.1 += 1,
            _ => groups.push((v, 1)),
        }
    }
    groups
}

/// All vectors `k` with `Σ k_i = total` and `0 ≤ k_i ≤ bounds[i]`.
fn bounded_compositions(total: u32, bounds: &[u32]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut cur = vec![0u32; bounds.len()];
    fn rec(i: usize, rem: u32, bounds: &[u32], cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if i == bounds.len() {
            if rem == 0 {
                out.push(cur.clone());
            }
            return;
        }
        let tail: u32 = bounds[i + 1..].iter().sum();
        for k in 0..=bounds[i].min(rem) {
            if rem - k <= tail {
                cur[i] = k;
                rec(i + 1, rem - k, bounds, cur, out);
            }
        }
    }
    rec(0, total, bounds, &mut cur, &mut out);
    out
}

/// Adds to `out` the distribution of final sorted occupancy states when
/// `balls` processors each choose one of `m` modules uniformly at
/// random, starting from `residual` occupancy (length `m`, any order),
/// scaling all probabilities by `scale`.
fn distribute_uniform(
    residual: &[u32],
    balls: u32,
    m: u32,
    scale: f64,
    out: &mut Vec<(OccupancyState, f64)>,
) {
    // Group residual modules by current value; within a group modules
    // are exchangeable.
    let mut sorted = residual.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let groups = group_values(&sorted);
    let group_sizes: Vec<u32> = groups.iter().map(|g| g.1).collect();

    // For each allocation of balls to groups, and each within-group
    // addition multiset, emit an outcome.
    //
    // Probability of a specific addition pattern:
    //   balls! · Π_groups [ Π_a 1/a! · sizeₘᵤₗₜ ] / m^balls
    // where sizeₘᵤₗₜ = s_g! / Π mult_d! counts the module arrangements
    // within the group.
    let allocations = bounded_compositions(balls, &vec![balls; groups.len()]);
    let base = factorial(balls) / f64::from(m).powi(balls as i32) * scale;
    for alloc in allocations {
        // Per group: partitions of t_g into at most s_g parts.
        let mut patterns: Vec<Vec<Vec<u32>>> = Vec::with_capacity(groups.len());
        for (t, s) in alloc.iter().zip(&group_sizes) {
            patterns.push(partitions(*t, *s, *t.max(&1)));
        }
        // Cartesian product over groups.
        let mut stack: Vec<(usize, f64, Vec<u32>)> = vec![(0, base, Vec::new())];
        while let Some((gi, acc, new_values)) = stack.pop() {
            if gi == groups.len() {
                let mut final_state: Vec<u32> =
                    new_values.iter().copied().filter(|&v| v > 0).collect();
                final_state.sort_unstable_by(|a, b| b.cmp(a));
                out.push((final_state, acc));
                continue;
            }
            let (value, size) = groups[gi];
            for pat in &patterns[gi] {
                // Addition multiset: pat parts then zeros up to size.
                let mut factor = 1.0;
                for &a in pat {
                    factor /= factorial(a);
                }
                // Arrangements: size! / Π mult_d! over the FULL multiset
                // (including the zero-addition modules).
                let mut mults: Vec<u32> = group_values(pat).iter().map(|g| g.1).collect();
                let zeros = size - pat.len() as u32;
                if zeros > 0 {
                    mults.push(zeros);
                }
                factor *= multinomial(&mults);
                let mut next_values = new_values.clone();
                for &a in pat {
                    next_values.push(value + a);
                }
                for _ in 0..zeros {
                    next_values.push(value);
                }
                stack.push((gi + 1, acc * factor, next_values));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: u32, m: u32, r: u32) -> SystemParams {
        SystemParams::new(n, m, r).unwrap()
    }

    /// The crossbar: one bus per module that can be busy.
    fn crossbar(n: u32, m: u32) -> Discipline {
        Discipline::MultipleBus { buses: n.min(m) }
    }

    #[test]
    fn rows_sum_to_one_across_disciplines() {
        for (n, m) in [(2, 2), (3, 5), (5, 3), (8, 4)] {
            for d in [
                Discipline::MultipleBus { buses: n.min(m) },
                Discipline::MultipleBus { buses: 2 },
                Discipline::MultiplexedMemoryPriority,
            ] {
                let chain = OccupancyChain::new(params(n, m, 3), d);
                // build() validates stochasticity internally.
                let (space, matrix) = chain.build().unwrap();
                assert!(!space.is_empty());
                assert!(matrix.len() == space.len());
            }
        }
    }

    #[test]
    fn state_count_is_the_bounded_partition_count() {
        // The evaluators' ceiling counts partitions of n into at most
        // min(n, m) parts; the explored space is exactly those.
        use busnet_markov::combinatorics::partition_count;
        for (n, m) in [(1, 1), (1, 5), (5, 1), (3, 5), (5, 3), (6, 6), (9, 4), (4, 9), (10, 10)] {
            let count = partition_count(n, n.min(m), u64::MAX).unwrap();
            for d in [
                crossbar(n, m),
                Discipline::MultipleBus { buses: 1 },
                Discipline::MultiplexedMemoryPriority,
            ] {
                for r in [1, 3, 12] {
                    let (space, _) = OccupancyChain::new(params(n, m, r), d).build().unwrap();
                    assert_eq!(space.len() as u64, count, "({n},{m},r={r}) {d:?}");
                }
            }
        }
    }

    #[test]
    fn two_by_two_hand_computed() {
        // n=2, m=2, r=9: states (2) and (1,1); EBW worked out by hand
        // from the paper's formula = 1.41666…
        let chain = OccupancyChain::new(params(2, 2, 9), Discipline::MultiplexedMemoryPriority);
        let ebw = chain.ebw().unwrap();
        assert!((ebw - 17.0 / 12.0).abs() < 1e-12, "ebw = {ebw}");
    }

    #[test]
    fn stationary_two_by_two_is_half_half() {
        let chain = OccupancyChain::new(params(2, 2, 9), crossbar(2, 2));
        let (space, pi) = chain.stationary().unwrap();
        let i11 = space.index_of(&vec![1, 1]).unwrap();
        let i2 = space.index_of(&vec![2]).unwrap();
        assert!((pi[i11] - 0.5).abs() < 1e-12);
        assert!((pi[i2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn crossbar_ebw_bounded_by_min_nm() {
        for (n, m) in [(2, 4), (4, 2), (6, 6), (8, 4)] {
            let chain = OccupancyChain::new(params(n, m, 1), crossbar(n, m));
            let ebw = chain.ebw().unwrap();
            assert!(ebw > 0.0 && ebw <= f64::from(n.min(m)) + 1e-12, "({n},{m}): {ebw}");
        }
    }

    #[test]
    fn crossbar_known_8x8_value() {
        // Bhandarkar's exact memory-interference bandwidth for an 8×8
        // system is ≈ 4.94 (the paper's §7 compares Table 3a to it).
        let chain = OccupancyChain::new(params(8, 8, 1), crossbar(8, 8));
        let ebw = chain.ebw().unwrap();
        assert!((ebw - 4.94).abs() < 0.02, "8x8 crossbar EBW = {ebw}");
    }

    #[test]
    fn multiple_bus_caps_at_bus_count() {
        let unlimited = OccupancyChain::new(params(8, 8, 1), crossbar(8, 8)).ebw().unwrap();
        let capped = OccupancyChain::new(params(8, 8, 1), Discipline::MultipleBus { buses: 2 })
            .ebw()
            .unwrap();
        assert!(capped <= 2.0 + 1e-12);
        assert!(capped < unlimited);
    }

    #[test]
    fn multiplexed_ebw_increases_with_r() {
        let mut prev = 0.0;
        for r in [2, 4, 8, 16] {
            let ebw = OccupancyChain::new(params(4, 4, r), Discipline::MultiplexedMemoryPriority)
                .ebw()
                .unwrap();
            assert!(ebw > prev, "EBW should grow with r: {ebw} after {prev}");
            prev = ebw;
        }
    }

    #[test]
    fn busy_distribution_normalizes() {
        let chain = OccupancyChain::new(params(6, 4, 5), Discipline::MultiplexedMemoryPriority);
        let dist = chain.busy_distribution().unwrap();
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
        assert!(dist[0].abs() < 1e-12, "x = 0 unreachable with p = 1");
    }

    #[test]
    fn exact_chain_is_symmetric_in_n_and_m_to_print_precision() {
        // The paper's §5 remark: "the results are symmetrical on m and
        // n". Measured, the symmetry holds to ~3e-5 (the chains for
        // (n,m) and (m,n) are different processes that happen to agree
        // almost exactly) — well within the paper's 3-decimal prints.
        for (n, m) in [(2, 4), (2, 6), (4, 6), (4, 8)] {
            let r = n.min(m) + 7;
            let a = OccupancyChain::new(params(n, m, r), Discipline::MultiplexedMemoryPriority)
                .ebw()
                .unwrap();
            let b = OccupancyChain::new(params(m, n, r), Discipline::MultiplexedMemoryPriority)
                .ebw()
                .unwrap();
            assert!((a - b).abs() < 5e-4, "asymmetry at ({n},{m}): {a} vs {b}");
        }
    }

    #[test]
    fn bounded_compositions_respect_bounds() {
        let combos = bounded_compositions(3, &[2, 2, 2]);
        assert!(combos.iter().all(|c| c.iter().sum::<u32>() == 3));
        assert!(combos.iter().all(|c| c.iter().zip([2, 2, 2]).all(|(&k, b)| k <= b)));
        // Count: coefficient of z^3 in (1+z+z^2)^3 = 7.
        assert_eq!(combos.len(), 7);
    }

    #[test]
    fn distribute_uniform_probabilities_sum_to_scale() {
        let mut out = Vec::new();
        distribute_uniform(&[1, 0, 0], 2, 3, 0.5, &mut out);
        let total: f64 = out.iter().map(|(_, p)| p).sum();
        assert!((total - 0.5).abs() < 1e-12, "total = {total}");
        // All outcomes conserve population 1 + 2 = 3.
        for (state, _) in &out {
            assert_eq!(state.iter().sum::<u32>(), 3);
        }
    }
}
