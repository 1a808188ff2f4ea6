//! Fluid-model validation: the mean-field ODE versus simulation across
//! system sizes, fluid invariants under arbitrary parameters, the
//! million-processor wall-clock budget, the multibus evaluator wiring,
//! and the sweep-screening contract.

use std::time::Instant;

use busnet::core::analytic::fluid::{FluidModel, FluidOptions};
use busnet::core::analytic::multibus::multibus_bw_exact;
use busnet::core::params::{Buffering, SystemParams, Workload};
use busnet::core::scenario::{
    run_sweep, run_sweep_with, BusSimEval, Evaluator, EvaluatorKind, FluidEval, Scenario,
    ScenarioGrid, ScreenPlan, SimBudget, Stopping, SweepOptions, SweepRecord,
};
use busnet::core::CoreError;
use busnet::sim::event::EngineKind;
use busnet::sim::exec::ExecutionMode;
use proptest::prelude::*;

fn sim_budget() -> SimBudget {
    SimBudget {
        replications: 2,
        warmup: 2_000,
        measure: 20_000,
        master_seed: 0x1985_0414,
        engine: EngineKind::Event,
        stopping: Stopping::Fixed,
    }
}

/// The fluid model tracks the cycle-accurate simulator increasingly
/// well as the system grows: the mean-field approximation's error is
/// O(1/n), so the relative EBW gap at n = 512 must be under the
/// ISSUE acceptance bound of 5% and no larger than the small-system
/// gap.
#[test]
fn fluid_tracks_simulation_as_n_grows() {
    let sim = BusSimEval::new(sim_budget());
    let fluid = FluidEval::default();
    for buffering in [Buffering::Unbuffered, Buffering::Depth(4)] {
        let mut gaps = Vec::new();
        for (n, m) in [(8u32, 16u32), (64, 128), (512, 1024)] {
            let params = SystemParams::new(n, m, 8).unwrap().with_request_probability(0.2).unwrap();
            let scenario = Scenario::new(params).with_buffering(buffering);
            let simulated = sim.evaluate(&scenario).expect("in sim domain");
            let solution = fluid.solve(&scenario).expect("in fluid domain");
            assert!(solution.converged, "{}: fluid did not converge", scenario.label());
            let gap = ((solution.ebw - simulated.ebw()) / simulated.ebw()).abs();
            println!(
                "# fluid-vs-sim k={} n={n}: fluid {:.4} sim {:.4} gap {:.2}%",
                buffering.depth_label(),
                solution.ebw,
                simulated.ebw(),
                gap * 100.0
            );
            gaps.push(gap);
        }
        // The acceptance bound at n = 512, plus per-size sanity caps.
        assert!(gaps[2] <= 0.05, "k={}: gap at n=512 is {:.2}%", buffering.depth_label(), gaps[2]);
        assert!(gaps[1] <= 0.10, "k={}: gap at n=64 is {:.2}%", buffering.depth_label(), gaps[1]);
        assert!(gaps[0] <= 0.20, "k={}: gap at n=8 is {:.2}%", buffering.depth_label(), gaps[0]);
        // Mean-field error shrinks with n (small slack for sim noise).
        assert!(
            gaps[2] <= gaps[0] + 0.01,
            "k={}: gap grew with n: {gaps:?}",
            buffering.depth_label()
        );
    }
}

/// A million-processor point solves within the wall-clock budget even
/// in a debug build (the release CLI target is < 50 ms; debug RK4 is
/// roughly 20× slower, so 5 s is a generous ceiling).
#[test]
fn million_processor_point_solves_quickly() {
    let params =
        SystemParams::new(1_000_000, 1_000_000, 8).unwrap().with_request_probability(0.2).unwrap();
    let scenario = Scenario::new(params).with_buffering(Buffering::Depth(4));
    let start = Instant::now();
    let solution = FluidEval::default().solve(&scenario).expect("in fluid domain");
    let elapsed = start.elapsed();
    assert!(solution.converged);
    assert!((solution.ebw - 5.0).abs() < 1e-3, "saturated bus EBW {}", solution.ebw);
    assert!(elapsed.as_secs_f64() < 5.0, "fluid solve took {elapsed:?}");
}

/// EBW is non-decreasing in buffer depth at a module-bound operating
/// point (deeper buffers can only admit more work when the modules,
/// not the bus, are the bottleneck).
#[test]
fn fluid_ebw_monotone_in_depth_when_module_bound() {
    let params = SystemParams::new(128, 4, 8).unwrap();
    let workload = Workload::default();
    let mut last = 0.0;
    for depth in [0u32, 1, 2, 4, 8] {
        let buffering = if depth == 0 { Buffering::Unbuffered } else { Buffering::Depth(depth) };
        let model = FluidModel::new(params, buffering, &workload, 8.0).unwrap();
        let solution = model.solve(&FluidOptions::default());
        assert!(solution.converged, "k={depth}");
        assert!(
            solution.ebw >= last - 1e-6,
            "EBW fell from {last} to {} at k={depth}",
            solution.ebw
        );
        last = solution.ebw;
    }
}

/// The multibus evaluator is reachable through the sweep registry and
/// its bandwidth grows monotonically with the number of buses up to
/// the crossbar bound.
#[test]
fn multibus_sweep_reaches_crossbar_bound() {
    let kind = EvaluatorKind::from_name("multibus").expect("registered");
    let evaluator = kind.build(sim_budget());
    let scenarios = ScenarioGrid::new()
        .n_values([6])
        .m_values([6])
        .r_values([4])
        .buses_values([1, 2, 4, 6])
        .scenarios()
        .unwrap();
    let refs: [&dyn Evaluator; 1] = [evaluator.as_ref()];
    let records = run_sweep(&scenarios, &refs, ExecutionMode::Serial, |_, _, _| {});
    assert_eq!(records.len(), 4);
    let mut last = 0.0;
    for record in &records {
        let evaluation = record.result.as_ref().expect("in multibus domain");
        assert!(evaluation.ebw() >= last - 1e-12);
        last = evaluation.ebw();
    }
    // At b = min(n, m) the multiple-bus network IS the crossbar.
    let crossbar = multibus_bw_exact(6, 6, 6).unwrap();
    assert!((last - crossbar).abs() < 1e-9);
}

/// The screening contract: screened records carry the fluid
/// prediction under the simulator's name with zero simulated events
/// and the `screened` flag set; unscreened records still simulate and
/// land within the combined tolerance of the plain run; and a point
/// outside the simulator's domain stays the simulator's typed
/// rejection, screened or not.
#[test]
fn screened_sweep_skips_validated_points() {
    let mut scenarios = ScenarioGrid::new()
        .n_values([8])
        .m_values([8, 16])
        .r_values([8])
        .p_values([0.2, 1.0])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .scenarios()
        .unwrap();
    // Its nearest anchored neighbor validates the fluid model, so a
    // screen that ignored the domain would stand in a fluid value here.
    scenarios.push(Scenario::new(SystemParams::new(100_000, 16, 8).unwrap()));
    let sim = BusSimEval::new(sim_budget().with_ci_width(0.05, 8));
    let refs: [&dyn Evaluator; 1] = [&sim];
    let plain = run_sweep(&scenarios, &refs, ExecutionMode::Serial, |_, _, _| {});
    let plan = ScreenPlan::default();
    let options = SweepOptions { screen: Some(&plan), ..SweepOptions::new(ExecutionMode::Serial) };
    let screened = run_sweep_with(&scenarios, &refs, &options, |_, _, _| {});
    assert_eq!(plain.len(), screened.len());
    let count = screened.iter().filter(|r| r.screened).count();
    assert!(count > 0, "no point screened on the Table 3-4 grid with p axis");
    for (with, without) in screened.iter().zip(&plain) {
        assert_eq!(with.scenario.label(), without.scenario.label());
        if !sim.supports(&with.scenario) {
            assert!(
                matches!(with.result, Err(CoreError::UnsupportedScenario { evaluator: "sim", .. })),
                "{}: {:?}",
                with.scenario.label(),
                with.result
            );
            assert_eq!(with.result.as_ref().err(), without.result.as_ref().err());
            assert!(!with.screened);
            continue;
        }
        let evaluation = with.result.as_ref().expect("in domain");
        let reference = without.result.as_ref().expect("in domain");
        if with.screened {
            // The fluid stand-in keeps the simulator's name (one
            // coherent evaluator column) but costs no events, and its
            // prediction matches the simulation it replaced within the
            // screening tolerance plus the CI width.
            assert_eq!(evaluation.evaluator, "sim");
            assert_eq!(evaluation.simulated_events(), 0);
            let slack = plan.tolerance * reference.ebw() + 3.0 * reference.half_width_95;
            assert!(
                (evaluation.ebw() - reference.ebw()).abs() <= slack,
                "{}: screened {:.4} vs simulated {:.4}",
                with.scenario.label(),
                evaluation.ebw(),
                reference.ebw()
            );
        } else {
            // Prior-seeded simulation: still a real run, same system.
            assert!(evaluation.simulated_events() > 0);
            let slack = plan.tolerance * reference.ebw()
                + 3.0 * (reference.half_width_95 + evaluation.half_width_95);
            assert!(
                (evaluation.ebw() - reference.ebw()).abs() <= slack,
                "{}: seeded {:.4} vs plain {:.4}",
                with.scenario.label(),
                evaluation.ebw(),
                reference.ebw()
            );
        }
    }
    // The whole point: screening must save at least a quarter of the
    // simulated events.
    let events = |records: &[SweepRecord]| -> u64 {
        records.iter().filter_map(|r| r.result.as_ref().ok().map(|e| e.simulated_events())).sum()
    };
    let (with, without) = (events(&screened), events(&plain));
    assert!(
        with as f64 <= 0.75 * without as f64,
        "screening simulated {with} of the plain sweep's {without} events (< 25% saved)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fluid invariants for arbitrary parameters: the solution is a
    /// physical state (EBW within the ceiling, queue-level fractions a
    /// probability distribution, processor mass conserved).
    #[test]
    fn fluid_solution_is_physical(
        n in 1u32..200,
        m in 1u32..64,
        r in 1u32..16,
        p10 in 1u32..=10,
        depth in 0u32..6,
    ) {
        let params = SystemParams::new(n, m, r)
            .unwrap()
            .with_request_probability(f64::from(p10) / 10.0)
            .unwrap();
        let buffering = if depth == 0 { Buffering::Unbuffered } else { Buffering::Depth(depth) };
        let scenario = Scenario::new(params).with_buffering(buffering);
        let solution = FluidEval::default().solve(&scenario).unwrap();
        prop_assert!(solution.ebw > 0.0);
        prop_assert!(solution.ebw <= params.max_ebw() + 1e-6);
        let total: f64 = solution.input_distribution.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "distribution sums to {total}");
        for &level in &solution.input_distribution {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&level));
        }
        prop_assert!(solution.conservation_error < 1e-6 * f64::from(n).max(1.0));
        prop_assert!(solution.thinking_mass >= -1e-9);
        prop_assert!(solution.waiting_mass >= -1e-9);
    }
}
