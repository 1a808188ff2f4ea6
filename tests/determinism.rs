//! Reproducibility: identical seeds must give identical results across
//! every stochastic component.

use busnet::core::params::{Buffering, BusPolicy, SystemParams};
use busnet::core::scenario::{BusSimEval, Evaluation, Evaluator, Scenario, SimBudget};
use busnet::core::sim::bus::BusSimBuilder;
use busnet::core::sim::crossbar::CrossbarSim;
use busnet::sim::seeds::SeedSequence;

#[test]
fn bus_sim_bitwise_reproducible() {
    let run = || {
        BusSimBuilder::new(SystemParams::new(8, 16, 8).unwrap())
            .policy(BusPolicy::MemoryPriority)
            .buffering(Buffering::Buffered)
            .seed(0xABCD)
            .warmup_cycles(3_000)
            .measure_cycles(30_000)
            .build()
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.returns, b.returns);
    assert_eq!(a.requests_granted, b.requests_granted);
    assert_eq!(a.bus_busy_channel_cycles, b.bus_busy_channel_cycles);
    assert_eq!(a.module_busy_cycles, b.module_busy_cycles);
    assert_eq!(a.wait.mean(), b.wait.mean());
}

#[test]
fn crossbar_sim_reproducible() {
    let run = |seed| {
        CrossbarSim::new(SystemParams::new(8, 8, 1).unwrap())
            .seed(seed)
            .measure_cycles(20_000)
            .run_ebw()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

/// A replicated estimate of the paper's default scenario at `(n, m, r)`.
fn replicated(n: u32, m: u32, r: u32, budget: SimBudget) -> Evaluation {
    let scenario = Scenario::new(SystemParams::new(n, m, r).unwrap());
    BusSimEval::new(budget).evaluate(&scenario).unwrap()
}

#[test]
fn replicated_experiments_reproducible() {
    let budget = |master_seed| SimBudget {
        replications: 3,
        warmup: 500,
        measure: 5_000,
        master_seed,
        ..SimBudget::paper()
    };
    let a = replicated(4, 8, 6, budget(99));
    assert_eq!(a, replicated(4, 8, 6, budget(99)));
    assert_ne!(a.ebw(), replicated(4, 8, 6, budget(100)).ebw());
}

#[test]
fn seed_streams_are_stable_across_calls() {
    let seq = SeedSequence::new(2024);
    let first: Vec<u64> = (0..16).map(|i| seq.stream(i)).collect();
    let second: Vec<u64> = (0..16).map(|i| seq.stream(i)).collect();
    assert_eq!(first, second);
}

#[test]
fn different_replications_use_different_seeds() {
    // Same plan, but each replication must see distinct randomness:
    // the replication values should not all coincide.
    let budget = SimBudget { replications: 4, warmup: 200, measure: 2_000, ..SimBudget::paper() };
    let est = replicated(8, 8, 8, budget);
    assert_eq!(est.replications, 4);
    assert!(est.half_width_95 > 0.0, "replications look identical");
}
