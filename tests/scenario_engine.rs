//! The unified scenario engine end to end: evaluator agreement on a
//! small grid, sweep mechanics, and serial/parallel bit-identity.

use busnet::core::params::{Buffering, BusPolicy};
use busnet::core::scenario::{
    run_sweep, BusSimEval, Evaluator, ExactChainEval, ReducedChainEval, Scenario, ScenarioGrid,
    SimBudget,
};
use busnet::core::CoreError;
use busnet::sim::exec::ExecutionMode;

fn agreement_budget() -> SimBudget {
    SimBudget { replications: 5, warmup: 4_000, measure: 40_000, ..SimBudget::quick() }
}

/// On a small grid (n, m ≤ 4; r ∈ {2, 6}), the simulator's EBW
/// confidence interval must cover the exact-chain EBW under memory
/// priority — both vehicles describe the same system.
#[test]
fn sim_interval_covers_exact_chain_on_small_grid() {
    let scenarios = ScenarioGrid::new()
        .n_values([2, 4])
        .m_values([2, 4])
        .r_values([2, 6])
        .policies([BusPolicy::MemoryPriority])
        .scenarios()
        .unwrap();
    let sim = BusSimEval::new(agreement_budget());
    for scenario in scenarios {
        let exact = ExactChainEval.evaluate(&scenario).unwrap();
        let measured = sim.evaluate(&scenario).unwrap();
        // The chain is a batch-synchronized idealization of the
        // cycle-accurate system; grant the same modeling slack the
        // cross-validation suite documents (≈2.5%, widest at the
        // smallest systems) on top of the statistical interval.
        let slack = 0.035 * exact.ebw();
        assert!(
            measured.covers(exact.ebw(), slack),
            "{}: sim {:.4} ± {:.4} does not cover exact {:.4}",
            scenario.label(),
            measured.ebw(),
            measured.half_width_95,
            exact.ebw()
        );
    }
}

/// Same grid under processor priority: the interval must cover the
/// reduced chain within the paper's documented model error.
#[test]
fn sim_interval_covers_reduced_chain_on_small_grid() {
    let scenarios =
        ScenarioGrid::new().n_values([2, 4]).m_values([2, 4]).r_values([2, 6]).scenarios().unwrap();
    let sim = BusSimEval::new(agreement_budget());
    for scenario in scenarios {
        let model = ReducedChainEval.evaluate(&scenario).unwrap();
        let measured = sim.evaluate(&scenario).unwrap();
        // §5: disagreements under 5% in almost any case, up to ~9% at
        // the saturated corners — the slack is model error, not noise,
        // matching the bound the cross-validation suite enforces.
        let slack = 0.09 * model.ebw();
        assert!(
            measured.covers(model.ebw(), slack),
            "{}: sim {:.4} ± {:.4} vs reduced {:.4}",
            scenario.label(),
            measured.ebw(),
            measured.half_width_95,
            model.ebw()
        );
    }
}

/// A sweep over both policies with both chain evaluators: every
/// in-domain pair evaluates, every out-of-domain pair reports
/// `UnsupportedScenario`, and the record order is scenario-major.
#[test]
fn sweep_partitions_domains_across_evaluators() {
    let scenarios = ScenarioGrid::new()
        .n_values([2])
        .m_values([2])
        .r_values([2])
        .policies([BusPolicy::ProcessorPriority, BusPolicy::MemoryPriority])
        .scenarios()
        .unwrap();
    let evaluators: [&dyn Evaluator; 2] = [&ExactChainEval, &ReducedChainEval];
    let records = run_sweep(&scenarios, &evaluators, ExecutionMode::Parallel, |_, _, _| {});
    assert_eq!(records.len(), 4);
    // Processor-priority scenario: exact out of domain, reduced in.
    assert!(matches!(records[0].result, Err(CoreError::UnsupportedScenario { .. })));
    assert!(records[1].result.is_ok());
    // Memory-priority scenario: the other way around.
    assert!(records[2].result.is_ok());
    assert!(matches!(records[3].result, Err(CoreError::UnsupportedScenario { .. })));
}

/// Parallel replication must be bit-identical to serial for the same
/// master seed, across thread counts and scenario shapes.
#[test]
fn parallel_sim_evaluations_bit_identical_to_serial() {
    let budget =
        SimBudget { replications: 6, warmup: 1_000, measure: 10_000, ..SimBudget::quick() };
    let scenarios = [
        Scenario::new(busnet::core::params::SystemParams::new(8, 16, 8).unwrap()),
        Scenario::new(busnet::core::params::SystemParams::new(4, 4, 6).unwrap())
            .with_policy(BusPolicy::MemoryPriority)
            .with_buffering(Buffering::Buffered),
    ];
    let sim = BusSimEval::new(budget);
    let results = |mode| -> Vec<_> {
        run_sweep(&scenarios, &[&sim], mode, |_, _, _| {}).into_iter().map(|r| r.result).collect()
    };
    let serial = results(ExecutionMode::Serial);
    for mode in [ExecutionMode::Parallel, ExecutionMode::Threads(2), ExecutionMode::Threads(7)] {
        assert_eq!(serial, results(mode), "{mode:?} diverged");
    }
    // `evaluate` fans the same units out itself, to the same bits.
    let evaluated: Vec<_> = scenarios.iter().map(|s| sim.evaluate(s)).collect();
    assert_eq!(serial, evaluated);
}

/// The whole sweep is deterministic: same grid, same budget, same
/// records — regardless of sweep-level execution mode.
#[test]
fn sweeps_are_reproducible_across_modes() {
    let scenarios = ScenarioGrid::new()
        .n_values([2, 4])
        .r_values([2, 4])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .scenarios()
        .unwrap();
    let sim = BusSimEval::new(SimBudget {
        replications: 2,
        warmup: 200,
        measure: 2_000,
        ..SimBudget::quick()
    });
    let evaluators: [&dyn Evaluator; 1] = [&sim];
    let run = |mode| {
        run_sweep(&scenarios, &evaluators, mode, |_, _, _| {})
            .into_iter()
            .map(|r| r.result.unwrap().metrics.ebw)
            .collect::<Vec<f64>>()
    };
    let serial = run(ExecutionMode::Serial);
    let threads = run(ExecutionMode::Threads(4));
    assert_eq!(serial, threads);
}
