//! Cross-crate property-based tests on the core invariants.

use busnet::core::analytic::approx::{ApproxModel, ApproxVariant};
use busnet::core::analytic::exact_chain::ExactChain;
use busnet::core::analytic::occupancy::{Discipline, OccupancyChain};
use busnet::core::analytic::reduced::ReducedChain;
use busnet::core::metrics::Metrics;
use busnet::core::params::{ArbitrationKind, Buffering, BusPolicy, SystemParams, Workload};
use busnet::core::scenario::{Scenario, SimBudget, ALL_EVALUATOR_KINDS};
use busnet::core::sim::bus::BusSimBuilder;
use busnet::core::sim::service::ServiceTime;
use busnet::core::CoreError;
use busnet::sim::exec::ExecutionMode;
use proptest::prelude::*;

/// A valid scenario from plain strategy draws, spanning every axis an
/// evaluator domain reads: size (`n = 8` stands for 70 000, beyond
/// every state-space and simulation domain), policy, buffering,
/// arbitration, workload (uniform, hot spot, bursty MMPP), service
/// distribution and bus count.
#[allow(clippy::too_many_arguments)]
fn drawn_scenario(
    n: u32,
    m: u32,
    r: u32,
    p10: u32,
    memory_priority: bool,
    buffering: u32,
    arbitration: u32,
    workload: u32,
    geometric: bool,
    buses: u32,
) -> Scenario {
    let n = if n == 8 { 70_000 } else { n };
    let params = SystemParams::new(n, m, r)
        .unwrap()
        .with_request_probability(f64::from(p10) / 10.0)
        .unwrap();
    let buffering = match buffering {
        0 => Buffering::Unbuffered,
        1 => Buffering::Buffered,
        2 => Buffering::Depth(r % 4),
        _ => Buffering::Infinite,
    };
    let workload = match workload {
        0 => Workload::Uniform,
        1 => Workload::hot_spot(0.5, m - 1).unwrap(),
        _ => Workload::on_off_burst(0.9, 0.2, 0.8, 50, Some((0.5, 0))).unwrap(),
    };
    let mut scenario = Scenario::new(params)
        .with_policy(if memory_priority {
            BusPolicy::MemoryPriority
        } else {
            BusPolicy::ProcessorPriority
        })
        .with_buffering(buffering)
        .with_arbitration(ArbitrationKind::ALL[arbitration as usize])
        .with_workload(workload)
        .with_buses(buses)
        .unwrap();
    if geometric {
        scenario = scenario.with_memory_service(ServiceTime::Geometric { mean: f64::from(r) });
    }
    scenario.validate().unwrap();
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reduced chain's EBW stays within physical bounds for any
    /// valid parameters.
    #[test]
    fn reduced_chain_ebw_bounds(n in 1u32..10, m in 1u32..12, r in 1u32..14) {
        let params = SystemParams::new(n, m, r).unwrap();
        let ebw = ReducedChain::new(params).ebw().unwrap();
        prop_assert!(ebw > 0.0);
        prop_assert!(ebw <= params.max_ebw() + 1e-9);
        prop_assert!(ebw <= f64::from(n) * f64::from(params.processor_cycle()) + 1e-9);
    }

    /// The exact chain's busy distribution is a probability
    /// distribution and its EBW respects the ceiling.
    #[test]
    fn exact_chain_distribution_normalized(n in 1u32..7, m in 1u32..7, r in 1u32..12) {
        let params = SystemParams::new(n, m, r).unwrap();
        let chain = ExactChain::new(params);
        let dist = chain.busy_distribution().unwrap();
        let total: f64 = dist.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let ebw = chain.ebw().unwrap();
        prop_assert!(ebw > 0.0 && ebw <= params.max_ebw() + 1e-9);
    }

    /// Occupancy-chain transition rows are stochastic for every
    /// discipline (validated inside the builder, surfaced here for
    /// arbitrary parameters).
    #[test]
    fn occupancy_rows_stochastic(n in 1u32..7, m in 1u32..7, b in 1u32..5) {
        let params = SystemParams::new(n, m, 3).unwrap();
        for d in [
            Discipline::Crossbar,
            Discipline::MultipleBus { buses: b },
            Discipline::MultiplexedMemoryPriority,
        ] {
            let chain = OccupancyChain::new(params, d);
            prop_assert!(chain.build().is_ok(), "{d:?}");
        }
    }

    /// The plain approximation agrees with the exact chain within the
    /// paper's 9% bound everywhere in the small-system regime.
    #[test]
    fn approx_within_paper_bound(n in 2u32..9, m in 2u32..9) {
        let params = SystemParams::new(n, m, n.min(m) + 7).unwrap();
        let exact = ExactChain::new(params).ebw().unwrap();
        let approx = ApproxModel::new(params, ApproxVariant::Plain).ebw();
        prop_assert!(((approx - exact) / exact).abs() < 0.09);
    }

    /// Simulator conservation invariants hold at arbitrary points of
    /// arbitrary configurations.
    #[test]
    fn sim_invariants_hold(
        n in 1u32..10,
        m in 1u32..10,
        r in 1u32..10,
        seed in 0u64..1000,
        buffered in proptest::bool::ANY,
        memory_priority in proptest::bool::ANY,
        p10 in 2u32..=10,
    ) {
        let params = SystemParams::new(n, m, r)
            .unwrap()
            .with_request_probability(f64::from(p10) / 10.0)
            .unwrap();
        let mut sim = BusSimBuilder::new(params)
            .policy(if memory_priority { BusPolicy::MemoryPriority } else { BusPolicy::ProcessorPriority })
            .buffering(if buffered { Buffering::Buffered } else { Buffering::Unbuffered })
            .seed(seed)
            .build();
        for step in 0..3_000u32 {
            sim.step();
            if step % 251 == 0 {
                if let Err(v) = sim.check_invariants() {
                    prop_assert!(false, "cycle {}: {v}", sim.cycle());
                }
            }
        }
    }

    /// Derived metrics are internally consistent for any EBW below the
    /// ceiling.
    #[test]
    fn metrics_identities(n in 1u32..17, m in 1u32..17, r in 1u32..20, frac in 0.05f64..1.0) {
        let params = SystemParams::new(n, m, r).unwrap();
        let ebw = params.max_ebw() * frac;
        let metrics = Metrics::from_ebw(params, ebw);
        // EBW = Pb (r+2)/2.
        let reconstructed = metrics.bus_utilization * params.max_ebw();
        prop_assert!((reconstructed - ebw).abs() < 1e-9);
        prop_assert!(metrics.memory_utilization >= 0.0);
        if let Some(w) = metrics.mean_wait_cycles {
            prop_assert!(w >= 0.0);
        }
    }

    /// EBW is monotone in the request probability (more offered load,
    /// more carried load) up to simulation noise.
    #[test]
    fn ebw_monotone_in_p(seed in 0u64..50) {
        let base = SystemParams::new(8, 16, 6).unwrap();
        let run = |p: f64| {
            BusSimBuilder::new(base.with_request_probability(p).unwrap())
                .seed(seed)
                .warmup_cycles(1_000)
                .measure_cycles(15_000)
                .build()
                .run()
                .ebw()
        };
        let low = run(0.3);
        let high = run(0.9);
        prop_assert!(high > low - 0.1, "p=0.9 ({high}) vs p=0.3 ({low})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `supports()` and `evaluate()` agree for every evaluator: a
    /// scenario is out of domain exactly when evaluating it returns the
    /// evaluator's typed `UnsupportedScenario`. The sweep planner
    /// settles each pair's domain through `supports()` alone, so this
    /// keeps planned and evaluated domains identical.
    #[test]
    fn supports_agrees_with_evaluate(
        n in 1u32..9,
        m in 1u32..7,
        r in 1u32..10,
        p10 in 1u32..=10,
        memory_priority in proptest::bool::ANY,
        buffering in 0u32..4,
        arbitration in 0u32..4,
        workload in 0u32..3,
        geometric in proptest::bool::ANY,
        buses in 1u32..4,
    ) {
        let scenario = drawn_scenario(
            n, m, r, p10, memory_priority, buffering, arbitration, workload, geometric, buses,
        );
        let budget = SimBudget {
            replications: 2,
            warmup: 20,
            measure: 200,
            mode: ExecutionMode::Serial,
            ..SimBudget::quick()
        };
        for kind in ALL_EVALUATOR_KINDS {
            let evaluator = kind.build(budget);
            let result = evaluator.evaluate(&scenario);
            let rejected = matches!(
                &result,
                Err(CoreError::UnsupportedScenario { evaluator, .. }) if *evaluator == kind.name()
            );
            prop_assert!(
                evaluator.supports(&scenario) != rejected,
                "{} @ {}: supports = {}, evaluate = {:?}",
                kind.name(),
                scenario.label(),
                evaluator.supports(&scenario),
                result.map(|e| e.ebw())
            );
        }
    }
}
