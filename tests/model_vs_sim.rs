//! Cross-validation: analytic models vs the cycle-accurate simulator.
//! Agreement semantics come from the shared `common::stats` module.

mod common;

use common::stats::assert_rel_within;

use busnet::core::analytic::exact_chain::ExactChain;
use busnet::core::analytic::reduced::ReducedChain;
use busnet::core::params::{Buffering, BusPolicy, SystemParams};
use busnet::core::scenario::{BusSimEval, Evaluator, Scenario, SimBudget};

fn sim(params: SystemParams, policy: BusPolicy, buffering: Buffering) -> f64 {
    let budget =
        SimBudget { replications: 3, warmup: 4_000, measure: 40_000, ..SimBudget::paper() };
    let scenario = Scenario::new(params).with_policy(policy).with_buffering(buffering);
    BusSimEval::new(budget).evaluate(&scenario).unwrap().ebw()
}

#[test]
fn exact_chain_matches_memory_priority_sim() {
    // The §3.1.1 chain is a batch-synchronized idealization of the
    // cycle-accurate system; agreement within ~2.5% across the grid.
    for (n, m) in [(2u32, 2u32), (4, 4), (4, 8), (8, 4), (8, 8)] {
        let params = SystemParams::new(n, m, n.min(m) + 7).unwrap();
        let chain = ExactChain::new(params).ebw().unwrap();
        let measured = sim(params, BusPolicy::MemoryPriority, Buffering::Unbuffered);
        assert_rel_within(&format!("({n},{m})"), measured, chain, 0.025);
    }
}

#[test]
fn reduced_chain_matches_processor_priority_sim_within_paper_bound() {
    // §5: "The numerical disagreements do not exceed 5% in almost any
    // case" — checked on a representative sub-grid; the saturated
    // m=4 row is the paper's own worst case, so grant it the same
    // leeway the paper's phrasing implies.
    let mut over_5 = 0;
    let mut cells = 0;
    for m in [4u32, 8, 12, 16] {
        for r in [2u32, 6, 10] {
            let params = SystemParams::new(8, m, r).unwrap();
            let model = ReducedChain::new(params).ebw().unwrap();
            let measured = sim(params, BusPolicy::ProcessorPriority, Buffering::Unbuffered);
            let rel = (measured - model).abs() / measured;
            cells += 1;
            if rel > 0.05 {
                over_5 += 1;
            }
            assert_rel_within(&format!("(m={m},r={r})"), model, measured, 0.09);
        }
    }
    assert!(
        over_5 * 10 <= cells * 3,
        "more than 30% of cells above the 5% bound: {over_5}/{cells}"
    );
}

#[test]
fn processor_priority_dominates_memory_priority_across_grid() {
    // The §3 finding justifying the paper's g' recommendation.
    for (n, m, r) in [(8u32, 8u32, 4u32), (8, 8, 12), (8, 16, 8), (4, 4, 8)] {
        let params = SystemParams::new(n, m, r).unwrap();
        let gp = sim(params, BusPolicy::ProcessorPriority, Buffering::Unbuffered);
        let gm = sim(params, BusPolicy::MemoryPriority, Buffering::Unbuffered);
        assert!(
            gp >= gm - 0.02,
            "priority ordering violated at ({n},{m},{r}): g'={gp:.3} g''={gm:.3}"
        );
    }
}

#[test]
fn ebw_never_exceeds_offered_load_or_ceiling() {
    for p10 in [3u32, 6, 10] {
        let p = f64::from(p10) / 10.0;
        let params = SystemParams::new(8, 16, 8).unwrap().with_request_probability(p).unwrap();
        let measured = sim(params, BusPolicy::ProcessorPriority, Buffering::Buffered);
        assert!(measured <= params.max_ebw() + 1e-9);
        // Offered load: n·p requests per processor cycle (plus sampling
        // slack).
        assert!(measured <= 8.0 * p + 0.15, "p={p}: {measured}");
    }
}
