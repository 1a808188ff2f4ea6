//! Sweep amortization: axis-incremental solver grouping, the
//! content-hashed evaluation memo cache, and intra-sweep dedup must all
//! be invisible in the results — bit-identical to a scratch sweep —
//! while provably skipping work (solver-iteration counts, cache
//! hit/miss stats).

use busnet::core::cache::{cache_key, EvalCache};
use busnet::core::params::{Buffering, SystemParams, Workload};
use busnet::core::scenario::{
    run_sweep, run_sweep_with, BusSimEval, DepthApproxEval, Evaluator, ExactChainEval,
    PfqnAlgorithm, PfqnEval, Scenario, ScenarioGrid, SimBudget, SweepOptions, SweepRecord,
};
use busnet::core::CoreError;
use busnet::queueing::solver_iterations;
use busnet::sim::exec::ExecutionMode;

fn assert_same_records(a: &[SweepRecord], b: &[SweepRecord]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.scenario, y.scenario);
        assert_eq!(x.evaluator, y.evaluator);
        assert_eq!(x.screened, y.screened);
        match (&x.result, &y.result) {
            (Ok(ex), Ok(ey)) => assert_eq!(ex, ey, "{} @ {}", x.evaluator, x.scenario.label()),
            (Err(ex), Err(ey)) => assert_eq!(ex, ey),
            _ => panic!("Ok/Err mismatch for {} @ {}", x.evaluator, x.scenario.label()),
        }
    }
}

fn population_axis_grid(populations: &[u32]) -> Vec<Scenario> {
    ScenarioGrid::new()
        .n_values(populations.to_vec())
        .m_values([8])
        .r_values([8])
        .bufferings([Buffering::Buffered])
        .scenarios()
        .unwrap()
}

#[test]
fn grouped_sweep_is_bit_identical_to_scratch() {
    let scenarios = population_axis_grid(&[2, 4, 6, 8, 12, 16]);
    let pfqn = PfqnEval { algorithm: PfqnAlgorithm::Mva };
    let buzen = PfqnEval { algorithm: PfqnAlgorithm::Buzen };
    let evaluators: [&dyn Evaluator; 3] = [&pfqn, &buzen, &DepthApproxEval];
    let grouped = run_sweep_with(
        &scenarios,
        &evaluators,
        &SweepOptions::new(ExecutionMode::Serial),
        |_, _, _| {},
    );
    let scratch = run_sweep_with(
        &scenarios,
        &evaluators,
        &SweepOptions { group_incremental: false, ..SweepOptions::new(ExecutionMode::Serial) },
        |_, _, _| {},
    );
    assert_same_records(&grouped, &scratch);
}

#[test]
fn depth_axis_grouping_is_bit_identical() {
    let scenarios = ScenarioGrid::new()
        .n_values([8])
        .m_values([8])
        .r_values([8])
        .bufferings([
            Buffering::Unbuffered,
            Buffering::Depth(1),
            Buffering::Depth(2),
            Buffering::Depth(4),
            Buffering::Infinite,
        ])
        .scenarios()
        .unwrap();
    let evaluators: [&dyn Evaluator; 1] = [&DepthApproxEval];
    let grouped = run_sweep_with(
        &scenarios,
        &evaluators,
        &SweepOptions::new(ExecutionMode::Serial),
        |_, _, _| {},
    );
    let scratch = run_sweep_with(
        &scenarios,
        &evaluators,
        &SweepOptions { group_incremental: false, ..SweepOptions::new(ExecutionMode::Serial) },
        |_, _, _| {},
    );
    assert_same_records(&grouped, &scratch);
}

#[test]
fn incremental_sweep_does_linear_solver_work() {
    // An n-axis sweep over 1..=R: scratch pays the full triangular
    // recursion, the grouped pass exactly R steps. Serial mode keeps
    // all solver work on this thread, where the (thread-local)
    // iteration counter can meter it exactly.
    let r = 32u32;
    let scenarios = population_axis_grid(&(1..=r).collect::<Vec<_>>());
    let pfqn = PfqnEval { algorithm: PfqnAlgorithm::Mva };
    let evaluators: [&dyn Evaluator; 1] = [&pfqn];

    let before = solver_iterations();
    run_sweep_with(
        &scenarios,
        &evaluators,
        &SweepOptions::new(ExecutionMode::Serial),
        |_, _, _| {},
    );
    let incremental = solver_iterations() - before;
    assert_eq!(incremental, u64::from(r), "grouped pass does O(R) recursion steps");

    let before = solver_iterations();
    run_sweep_with(
        &scenarios,
        &evaluators,
        &SweepOptions { group_incremental: false, ..SweepOptions::new(ExecutionMode::Serial) },
        |_, _, _| {},
    );
    let scratch = solver_iterations() - before;
    assert_eq!(scratch, u64::from(r) * u64::from(r + 1) / 2, "scratch pays the triangle");
}

#[test]
fn cached_sweep_is_bit_identical_across_modes() {
    let scenarios = ScenarioGrid::new()
        .n_values([2, 4])
        .m_values([4])
        .r_values([4])
        .bufferings([Buffering::Buffered])
        .scenarios()
        .unwrap();
    let sim = BusSimEval::new(SimBudget::quick());
    let pfqn = PfqnEval { algorithm: PfqnAlgorithm::Mva };
    let evaluators: [&dyn Evaluator; 2] = [&sim, &pfqn];

    let fresh = run_sweep(&scenarios, &evaluators, ExecutionMode::Serial, |_, _, _| {});

    let cache = EvalCache::new();
    let cold = run_sweep_with(
        &scenarios,
        &evaluators,
        &SweepOptions { cache: Some(&cache), ..SweepOptions::new(ExecutionMode::Serial) },
        |_, _, _| {},
    );
    assert_same_records(&fresh, &cold);
    assert_eq!(cache.stats().hits, 0);
    assert_eq!(cache.stats().misses as usize, scenarios.len() * evaluators.len());

    // Warm re-runs replay from the cache in both execution modes.
    for mode in [ExecutionMode::Serial, ExecutionMode::Parallel] {
        let hits_before = cache.stats().hits;
        let warm = run_sweep_with(
            &scenarios,
            &evaluators,
            &SweepOptions { cache: Some(&cache), ..SweepOptions::new(mode) },
            |_, _, _| {},
        );
        assert_same_records(&fresh, &warm);
        assert!(warm.iter().all(|rec| rec.cached), "every warm record replays");
        assert_eq!((cache.stats().hits - hits_before) as usize, scenarios.len() * evaluators.len());
    }
}

#[test]
fn disk_cache_round_trip_runs_zero_evaluators_when_warm() {
    let dir = std::env::temp_dir().join(format!("busnet-amort-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scenarios = ScenarioGrid::new()
        .n_values([2, 3])
        .m_values([4])
        .r_values([4])
        .workloads([Workload::Uniform, Workload::hot_spot(0.4, 0).unwrap()])
        .scenarios()
        .unwrap();
    let sim = BusSimEval::new(SimBudget::quick());
    // Every exact/pfqn pair of this grid (processor priority, no
    // buffers) is out of domain: the planner settles those pairs before
    // the cache, so they never count as misses, cold or warm.
    let pfqn = PfqnEval::default();
    let evaluators: [&dyn Evaluator; 3] = [&sim, &ExactChainEval, &pfqn];
    let in_domain = scenarios.len();
    let out_of_domain = |records: &[SweepRecord]| {
        records.iter().filter(|r| r.evaluator != "sim").all(|r| {
            matches!(r.result, Err(CoreError::UnsupportedScenario { evaluator, .. })
                if evaluator == r.evaluator)
        })
    };

    let cold_records = {
        let cold = EvalCache::with_dir(&dir).unwrap();
        let records = run_sweep_with(
            &scenarios,
            &evaluators,
            &SweepOptions { cache: Some(&cold), ..SweepOptions::new(ExecutionMode::Serial) },
            |_, _, _| {},
        );
        let stats = cold.stats();
        assert_eq!(stats.loaded, 0);
        assert_eq!(stats.misses as usize, in_domain);
        assert_eq!(stats.appended as usize, in_domain);
        assert!(out_of_domain(&records));
        records
    };

    // A fresh process would reload the journal: every in-domain pair
    // replays, the out-of-domain pairs replay as the same typed
    // rejection, zero evaluator calls (zero misses), records
    // bit-identical.
    let warm = EvalCache::with_dir(&dir).unwrap();
    assert_eq!(warm.stats().loaded as usize, in_domain);
    let warm_records = run_sweep_with(
        &scenarios,
        &evaluators,
        &SweepOptions { cache: Some(&warm), ..SweepOptions::new(ExecutionMode::Serial) },
        |_, _, _| {},
    );
    assert_same_records(&cold_records, &warm_records);
    assert!(out_of_domain(&warm_records));
    assert!(warm_records.iter().all(|rec| rec.cached == (rec.evaluator == "sim")));
    let stats = warm.stats();
    assert_eq!(stats.hits as usize, in_domain);
    assert_eq!(stats.misses, 0, "fully warm sweep performs zero evaluator calls");
    assert_eq!(stats.appended, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_list_axis_values_expand_once() {
    // Regression: `--n 4,4 --r 8,8` used to evaluate the same point
    // four times.
    let grid =
        ScenarioGrid::new().n_values([4, 4]).m_values([4]).r_values([8, 8, 8]).p_values([1.0, 1.0]);
    assert_eq!(grid.len(), 1);
    let scenarios = grid.scenarios().unwrap();
    assert_eq!(scenarios.len(), 1);
    for window in scenarios.windows(2) {
        assert_ne!(window[0], window[1]);
    }
}

#[test]
fn duplicate_pairs_evaluate_once() {
    // Hand-built duplicate scenarios (bypassing the grid dedup) are
    // still evaluated once: the repeat replays the first result.
    let base = Scenario::new(SystemParams::new(3, 4, 4).unwrap());
    let other = Scenario::new(SystemParams::new(4, 4, 4).unwrap());
    let scenarios = vec![base.clone(), other, base.clone()];
    let sim = BusSimEval::new(SimBudget::quick());
    let evaluators: [&dyn Evaluator; 1] = [&sim];
    let cache = EvalCache::new();
    let records = run_sweep_with(
        &scenarios,
        &evaluators,
        &SweepOptions { cache: Some(&cache), ..SweepOptions::new(ExecutionMode::Serial) },
        |_, _, _| {},
    );
    // Two distinct pairs entered the cache; the third record aliased
    // the first without a third evaluation.
    assert_eq!(cache.len(), 2);
    assert!(!records[0].cached && !records[1].cached && records[2].cached);
    assert_eq!(
        records[0].result.as_ref().unwrap().metrics,
        records[2].result.as_ref().unwrap().metrics
    );
    assert_eq!(records[2].result.as_ref().unwrap().scenario, base);
}

#[test]
fn cache_keys_separate_evaluator_configurations() {
    let scenario = Scenario::new(SystemParams::new(4, 4, 4).unwrap());
    let quick = BusSimEval::new(SimBudget::quick());
    let paper = BusSimEval::new(SimBudget::paper());
    let reseeded = BusSimEval::new(SimBudget::quick().with_master_seed(7));
    let k = |ev: &BusSimEval| cache_key(&ev.config_fingerprint(), &scenario);
    assert_ne!(k(&quick), k(&paper), "budget is part of the key");
    assert_ne!(k(&quick), k(&reseeded), "seed is part of the key");
}
