//! Adaptive-precision replication (`--ci-width`) versus the fixed
//! replication scheme at the paper's Table 3–4 operating points: the
//! sequential batch-means rule must reach the fixed scheme's precision
//! with a substantially smaller simulation budget, and never report a
//! wider interval than it was asked for.

mod common;

use common::stats::ci_overlap;

use busnet::core::params::Buffering;
use busnet::core::params::SystemParams;
use busnet::core::scenario::{BusSimEval, Evaluator, Scenario, ScenarioGrid, SimBudget, Stopping};
use busnet::core::sim::bus::{AdaptivePlan, BusSimBuilder, EngineKind, UnitBudget};

fn table34_points() -> Vec<Scenario> {
    ScenarioGrid::new()
        .n_values([8])
        .m_values([8, 16])
        .r_values([8])
        .bufferings([Buffering::Unbuffered, Buffering::Buffered])
        .scenarios()
        .expect("static grid is valid")
}

fn fixed4_budget() -> SimBudget {
    SimBudget {
        replications: 4,
        warmup: 4_000,
        measure: 40_000,
        master_seed: 0x1985_0414,
        engine: EngineKind::Event,
        stopping: Stopping::Fixed,
    }
}

/// The acceptance property: at every Table 3–4 point, targeting the
/// fixed-4-replication CI width adaptively (a) never yields a wider
/// interval and (b) costs at least 30% fewer simulated events.
#[test]
fn adaptive_matches_fixed4_precision_with_30pct_fewer_events() {
    let budget = fixed4_budget();
    let mut fixed_events_total = 0u64;
    let mut adaptive_events_total = 0u64;
    for scenario in &table34_points() {
        let fixed = BusSimEval::new(budget).evaluate(scenario).expect("in domain");
        let target = fixed.half_width_95.max(1e-9);
        let adaptive = BusSimEval::new(budget.with_ci_width(target, 16))
            .evaluate(scenario)
            .expect("in domain");
        assert!(
            adaptive.half_width_95 <= target + 1e-12,
            "{}: adaptive CI {} wider than fixed-4 CI {target}",
            scenario.label(),
            adaptive.half_width_95
        );
        assert!(
            adaptive.simulated_events() < fixed.simulated_events(),
            "{}: adaptive {} events vs fixed {}",
            scenario.label(),
            adaptive.simulated_events(),
            fixed.simulated_events()
        );
        // The estimates describe the same system: their intervals
        // (widened 3× for batch-mean correlation) must overlap — the
        // shared `common::stats` overlap semantics.
        assert!(
            ci_overlap(
                (adaptive.ebw(), 3.0 * adaptive.half_width_95),
                (fixed.ebw(), 3.0 * target),
                0.05
            ),
            "{}: adaptive {} vs fixed {}",
            scenario.label(),
            adaptive.ebw(),
            fixed.ebw()
        );
        fixed_events_total += fixed.simulated_events();
        adaptive_events_total += adaptive.simulated_events();
    }
    let savings = 1.0 - adaptive_events_total as f64 / fixed_events_total as f64;
    assert!(
        savings >= 0.30,
        "adaptive saved only {:.1}% of simulated events across the Table 3-4 points",
        savings * 100.0
    );
}

/// Both engines accept the adaptive driver and agree on what they
/// measured (the cycle engine is the reference semantics).
#[test]
fn adaptive_runs_on_both_engines_and_truncates_exactly() {
    let plan = AdaptivePlan {
        ci_width: 0.05,
        batch_cycles: 5_000,
        min_batches: 8,
        max_measure: 200_000,
        prior: None,
    };
    for engine in [EngineKind::Cycle, EngineKind::Event] {
        let outcome = BusSimBuilder::new(SystemParams::new(8, 16, 8).unwrap())
            .engine(engine)
            .seed(11)
            .warmup_cycles(2_000)
            .run_budgeted(&UnitBudget::default(), Some(&plan))
            .unwrap();
        assert!(outcome.converged, "{engine:?}: did not converge");
        assert!(outcome.half_width_95 <= 0.05);
        assert!(outcome.batches >= 8);
        // The report covers exactly the simulated batches.
        assert_eq!(
            outcome.report.measured_cycles,
            outcome.batches * plan.batch_cycles,
            "{engine:?}: truncated window mismatch"
        );
        // Early stopping keeps the utilization identity physical:
        // EBW = Pb (r+2)/2 for the single-bus system.
        let identity = outcome.report.bus_utilization() * 10.0 / 2.0;
        assert!(
            (outcome.report.ebw() - identity).abs() < 0.05,
            "{engine:?}: ebw {} vs identity {identity}",
            outcome.report.ebw()
        );
    }
}

/// An early-stopped adaptive run reports exactly what a fixed run of
/// the same (shorter) length reports: the truncation bookkeeping (span
/// clipping, window truncation) loses or invents nothing.
#[test]
fn truncated_event_run_matches_equivalent_full_run() {
    let params = SystemParams::new(8, 8, 8).unwrap();
    // One run configured for 60k cycles stopped at 20k...
    let mut long = BusSimBuilder::new(params)
        .engine(EngineKind::Event)
        .buffering(Buffering::Buffered)
        .seed(7)
        .warmup_cycles(2_000)
        .measure_cycles(58_000)
        .build_event();
    long.advance_until(20_000);
    let truncated = long.finish_at(20_000);
    assert_eq!(truncated.measured_cycles, 18_000);
    // ...must stay within the physical identities of a complete run.
    assert!(truncated.bus_utilization() <= 1.0 + 1e-9);
    assert!(truncated.memory_utilization() <= 1.0 + 1e-9);
    let identity = truncated.bus_utilization() * 10.0 / 2.0;
    assert!(
        (truncated.ebw() - identity).abs() < 0.05,
        "truncated ebw {} vs identity {identity}",
        truncated.ebw()
    );
    // And the estimate agrees with an independent full-length run.
    let full = BusSimBuilder::new(params)
        .engine(EngineKind::Event)
        .buffering(Buffering::Buffered)
        .seed(7)
        .warmup_cycles(2_000)
        .measure_cycles(18_000)
        .run();
    assert!(
        (truncated.ebw() - full.ebw()).abs() / full.ebw() < 0.05,
        "truncated {} vs full {}",
        truncated.ebw(),
        full.ebw()
    );
}

/// Common random numbers: the replication seeds depend only on the
/// master seed and replication index, so two grid points share their
/// randomness — pinned here so a refactor cannot silently break the
/// variance-reduction property.
#[test]
fn replication_seeds_are_common_across_grid_points() {
    use busnet::sim::seeds::SeedSequence;
    let seeds = SeedSequence::new(0x1985_0414);
    // The evaluator derives unit seeds exactly this way for every
    // scenario; a per-scenario dependence would show up as a changed
    // stream. Re-deriving per scenario must give the same values.
    let a: Vec<u64> = (0..4).map(|i| seeds.stream(i)).collect();
    let b: Vec<u64> = (0..4).map(|i| SeedSequence::new(0x1985_0414).stream(i)).collect();
    assert_eq!(a, b);
}
