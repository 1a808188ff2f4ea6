//! The non-uniform workload axis, validated statistically.
//!
//! * `Workload::Uniform` is **bit-identical** to the pre-workload
//!   engines: golden fingerprints captured before the refactor
//!   (returns, busy cycles, per-processor counts, exact means) must
//!   reproduce, including the hand-traced 2×1×2 saturation pin.
//! * Hot-spot and heterogeneous points agree across the cycle and
//!   event engines (95% CI overlap via the shared `common::stats`
//!   helpers).
//! * Sampled reference frequencies match the configured distribution
//!   (chi-square bound), EBW is monotone non-increasing in the
//!   hot-spot fraction, and the visit-ratio PFQN extension tracks
//!   simulation at the Table 3–4 points.

mod common;

use common::stats::{assert_chi_square_fits, assert_ci_overlap, assert_rel_within, master_seed};

use busnet::core::analytic::pfqn::{pfqn_ebw, pfqn_ebw_deterministic};
use busnet::core::params::{Buffering, BusPolicy, SystemParams, Workload};
use busnet::core::scenario::{BusSimEval, Evaluator, Scenario, ScenarioGrid, SimBudget, Stopping};
use busnet::core::sim::bus::{BusSimBuilder, SimReport};
use busnet::core::sim::crossbar::CrossbarSim;
use busnet::core::CoreError;
use busnet::sim::event::{CategoricalAlias, EngineKind};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `(n, m, r, p, buffering, policy, seed)` of one pinned bus run.
type RunConfig = (u32, u32, u32, f64, Buffering, BusPolicy, u64);

fn bus_report(engine: EngineKind, cfg: RunConfig) -> SimReport {
    let (n, m, r, p, buffering, policy, seed) = cfg;
    BusSimBuilder::new(SystemParams::new(n, m, r).unwrap().with_request_probability(p).unwrap())
        .policy(policy)
        .buffering(buffering)
        .engine(engine)
        .seed(seed)
        .warmup_cycles(2_000)
        .measure_cycles(30_000)
        .run()
}

/// Golden fingerprints of the pre-workload engines (captured at the
/// commit before this refactor, warmup 2 000 / measure 30 000). The
/// `Workload::Uniform` path must reproduce every one bit-for-bit:
/// the uniform module draw is still `gen_range(0..m)` on the same RNG
/// stream, and homogeneous think timers still share one alias table.
#[test]
fn uniform_workload_bit_identical_to_prerefactor_fingerprints() {
    struct Pin {
        engine: EngineKind,
        cfg: RunConfig,
        returns: u64,
        granted: u64,
        bus_busy: u64,
        mod_busy: u64,
        wait_mean: f64,
        rt_mean: f64,
        per0: u64,
        events: u64,
    }
    let pins = [
        Pin {
            engine: EngineKind::Cycle,
            cfg: (8, 16, 8, 1.0, Buffering::Unbuffered, BusPolicy::ProcessorPriority, 42),
            returns: 14886,
            granted: 14885,
            bus_busy: 29771,
            mod_busy: 119080,
            wait_mean: 3.4081289889150206e0,
            rt_mean: 1.612091898428049e1,
            per0: 1881,
            events: 32000,
        },
        Pin {
            engine: EngineKind::Event,
            cfg: (8, 16, 8, 1.0, Buffering::Unbuffered, BusPolicy::ProcessorPriority, 42),
            returns: 14890,
            granted: 14891,
            bus_busy: 29781,
            mod_busy: 119122,
            wait_mean: 3.4121952857430555e0,
            rt_mean: 1.6117595701813244e1,
            per0: 1861,
            events: 63537,
        },
        Pin {
            engine: EngineKind::Cycle,
            cfg: (8, 8, 6, 0.5, Buffering::Depth(2), BusPolicy::ProcessorPriority, 7),
            returns: 12721,
            granted: 12723,
            bus_busy: 25444,
            mod_busy: 76330,
            wait_mean: 1.518509785427967e-1,
            rt_mean: 1.0637528496187345e1,
            per0: 1600,
            events: 32000,
        },
        Pin {
            engine: EngineKind::Event,
            cfg: (8, 8, 6, 0.5, Buffering::Depth(2), BusPolicy::ProcessorPriority, 7),
            returns: 12849,
            granted: 12850,
            bus_busy: 25699,
            mod_busy: 77096,
            wait_mean: 1.4233463035019503e-1,
            rt_mean: 1.068588995252548e1,
            per0: 1568,
            events: 54896,
        },
        Pin {
            engine: EngineKind::Cycle,
            cfg: (6, 4, 9, 1.0, Buffering::Unbuffered, BusPolicy::MemoryPriority, 13),
            returns: 6976,
            granted: 6976,
            bus_busy: 13952,
            mod_busy: 62772,
            wait_mean: 1.4817947247706421e1,
            rt_mean: 2.5821530963302788e1,
            per0: 1156,
            events: 32000,
        },
        Pin {
            engine: EngineKind::Event,
            cfg: (5, 3, 4, 0.3, Buffering::Buffered, BusPolicy::ProcessorPriority, 99),
            returns: 7225,
            granted: 7223,
            bus_busy: 14448,
            mod_busy: 28900,
            wait_mean: 1.4149245465872964e-1,
            rt_mean: 6.937993079584778e0,
            per0: 1471,
            events: 30745,
        },
    ];
    for pin in pins {
        let (n, m, r, p, buffering, _, _) = pin.cfg;
        let report = bus_report(pin.engine, pin.cfg);
        let label = format!("{:?} n={n} m={m} r={r} p={p} {buffering:?}", pin.engine);
        assert_eq!(report.returns, pin.returns, "{label}: returns");
        assert_eq!(report.requests_granted, pin.granted, "{label}: granted");
        assert_eq!(report.bus_busy_channel_cycles, pin.bus_busy, "{label}: bus busy");
        assert_eq!(report.module_busy_cycles, pin.mod_busy, "{label}: module busy");
        assert_eq!(report.wait.mean(), pin.wait_mean, "{label}: wait mean");
        assert_eq!(report.round_trip.mean(), pin.rt_mean, "{label}: round-trip mean");
        assert_eq!(report.per_processor_returns[0], pin.per0, "{label}: per-processor");
        assert_eq!(report.events, pin.events, "{label}: events");
        // The new per-module telemetry must be conservative: per-module
        // counts sum to the aggregates they decompose.
        assert_eq!(report.per_module_busy_cycles.iter().sum::<u64>(), report.module_busy_cycles);
        assert_eq!(report.per_module_requests.iter().sum::<u64>(), report.requests_granted);
    }
}

/// The pre-refactor crossbar fingerprint (p = 0.6).
#[test]
fn uniform_crossbar_bit_identical_to_prerefactor_fingerprints() {
    let report = CrossbarSim::new(
        SystemParams::new(8, 8, 1).unwrap().with_request_probability(0.6).unwrap(),
    )
    .seed(21)
    .warmup_cycles(500)
    .measure_cycles(20_000)
    .run_report();
    assert_eq!(
        (report.served, report.per_processor_served[0], report.events),
        (78440, 9865, 20500)
    );
}

/// The hand-traced 2×1×2 saturation pin survives the workload axis:
/// exactly one return every 4 cycles unbuffered (and every 2 cycles
/// buffered), on both engines, with an explicit `Workload::Uniform`.
#[test]
fn golden_2x1x2_saturation_pin_with_explicit_uniform_workload() {
    for engine in [EngineKind::Cycle, EngineKind::Event] {
        for (buffering, expected) in [(Buffering::Unbuffered, 1_000), (Buffering::Buffered, 2_000)]
        {
            let report = BusSimBuilder::new(SystemParams::new(2, 1, 2).unwrap())
                .buffering(buffering)
                .workload(Workload::Uniform)
                .engine(engine)
                .seed(3)
                .warmup_cycles(40)
                .measure_cycles(4_000)
                .run();
            assert_eq!(report.returns, expected, "{engine:?} {buffering:?}");
            // EBW = returns (r + 2) / measured = returns / 1000 here.
            assert!((report.ebw() - expected as f64 / 1_000.0).abs() < 1e-12);
        }
    }
}

fn budget(engine: EngineKind) -> SimBudget {
    SimBudget {
        replications: 3,
        warmup: 3_000,
        measure: 30_000,
        master_seed: master_seed(),
        engine,
        stopping: Stopping::Fixed,
    }
}

/// Cycle-vs-event 95% CI overlap on EBW and latency at hot-spot
/// points (the differential-validation contract extended to skewed
/// references).
#[test]
fn engines_agree_on_hot_spot_points() {
    let cycle = BusSimEval::new(budget(EngineKind::Cycle));
    let event = BusSimEval::new(budget(EngineKind::Event));
    for (m, buffering) in
        [(4u32, Buffering::Unbuffered), (8, Buffering::Unbuffered), (8, Buffering::Depth(2))]
    {
        let scenario = Scenario::new(SystemParams::new(8, m, 8).unwrap())
            .with_buffering(buffering)
            .with_workload(Workload::hot_spot(0.3, 0).unwrap());
        let a = cycle.evaluate(&scenario).unwrap();
        let b = event.evaluate(&scenario).unwrap();
        let label = scenario.label();
        assert_ci_overlap(
            &format!("{label}: EBW"),
            (a.ebw(), a.half_width_95),
            (b.ebw(), b.half_width_95),
            0.03 * a.ebw(),
        );
        // The hot-module telemetry must agree too: both engines see the
        // same reference concentration.
        let (ha, hb) = (a.hot_module.unwrap(), b.hot_module.unwrap());
        assert_eq!(ha.module, 0, "{label}: hot module");
        assert_eq!(hb.module, 0, "{label}: hot module (event)");
        assert!(
            (ha.reference_share - hb.reference_share).abs() < 0.02,
            "{label}: hot share {:.3} vs {:.3}",
            ha.reference_share,
            hb.reference_share
        );
    }
}

/// Cycle-vs-event CI overlap under heterogeneous think probabilities,
/// including the per-processor EBW split the skew creates.
#[test]
fn engines_agree_on_heterogeneous_points() {
    let probs: Vec<f64> = (0..8).map(|i| if i < 4 { 1.0 } else { 0.25 }).collect();
    let scenario = Scenario::new(SystemParams::new(8, 8, 8).unwrap())
        .with_workload(Workload::heterogeneous(probs).unwrap());
    let a = BusSimEval::new(budget(EngineKind::Cycle)).evaluate(&scenario).unwrap();
    let b = BusSimEval::new(budget(EngineKind::Event)).evaluate(&scenario).unwrap();
    assert_ci_overlap(
        "heterogeneous EBW",
        (a.ebw(), a.half_width_95),
        (b.ebw(), b.half_width_95),
        0.03 * a.ebw(),
    );
    for e in [&a, &b] {
        let per = e.per_processor_ebw.as_ref().unwrap();
        let eager: f64 = per[..4].iter().sum::<f64>() / 4.0;
        let lazy: f64 = per[4..].iter().sum::<f64>() / 4.0;
        assert!(
            eager > 2.0 * lazy,
            "p=1 processors should far out-consume p=0.25 ones: {eager:.3} vs {lazy:.3}"
        );
    }
}

/// Heterogeneous runs are bit-reproducible under the master seed on
/// both engines (the determinism contract extends to the new axis).
#[test]
fn workload_runs_bit_reproducible_under_master_seed() {
    let scenario = Scenario::new(SystemParams::new(6, 6, 6).unwrap())
        .with_buffering(Buffering::Depth(2))
        .with_workload(Workload::hot_spot(0.4, 1).unwrap());
    for engine in [EngineKind::Cycle, EngineKind::Event] {
        let run = || BusSimEval::new(budget(engine)).evaluate(&scenario).unwrap();
        let a = run();
        let b = run();
        assert_eq!(a, b, "{engine:?}");
        assert_eq!(a.module_references, b.module_references, "{engine:?}");
    }
}

/// Granted-request shares track the configured reference distribution
/// on both engines (chi-square would over-reject on queue-correlated
/// counts, so the sim-level check is a tight absolute tolerance; the
/// iid sampler itself is chi-square-bounded below).
#[test]
fn simulated_reference_shares_track_configured_distribution() {
    let workload = Workload::weighted([4.0, 2.0, 1.0, 1.0]).unwrap();
    let expected = workload.module_distribution(4);
    for engine in [EngineKind::Cycle, EngineKind::Event] {
        let scenario = Scenario::new(
            SystemParams::new(8, 4, 6).unwrap().with_request_probability(0.4).unwrap(),
        )
        .with_buffering(Buffering::Depth(2))
        .with_workload(workload.clone());
        let e = BusSimEval::new(budget(engine)).evaluate(&scenario).unwrap();
        let refs = e.module_references.as_ref().unwrap();
        let total: u64 = refs.iter().sum();
        for (j, (&count, &q)) in refs.iter().zip(&expected).enumerate() {
            let share = count as f64 / total as f64;
            assert!(
                (share - q).abs() < 0.03,
                "{engine:?} module {j}: share {share:.3} vs configured {q:.3}"
            );
        }
    }
}

/// The visit-ratio PFQN extension tracks simulation at the buffered
/// Table 3–4 points (`n = 8, m ∈ {8, 16}, r = 8`): deterministic-service
/// AMVA within a few percent at mild skew, and together with the
/// exponential model it brackets the simulated EBW across the whole
/// swept range.
#[test]
fn pfqn_visit_ratios_track_simulation_at_table34_points() {
    let sim = BusSimEval::new(budget(EngineKind::Event));
    for m in [8u32, 16] {
        let params = SystemParams::new(8, m, 8).unwrap();
        for fraction in [0.0, 0.1, 0.2, 0.3, 0.5] {
            let workload = Workload::hot_spot(fraction, 0).unwrap();
            let scenario = Scenario::new(params)
                .with_buffering(Buffering::Buffered)
                .with_workload(workload.clone());
            let measured = sim.evaluate(&scenario).unwrap().ebw();
            let det = pfqn_ebw_deterministic(&params, &workload).unwrap();
            let exp = pfqn_ebw(&params, &workload).unwrap();
            let label = format!("m={m} frac={fraction}");
            if fraction <= 0.2 {
                // Mild skew: the constant-service model stays within a
                // few percent of the simulated system.
                assert_rel_within(&label, det, measured, 0.08);
            }
            // Everywhere: exponential below, deterministic above (the
            // simulated constant-service system sits between its two
            // service-variability idealizations).
            assert!(
                exp <= measured * 1.04,
                "{label}: exponential model {exp:.3} above sim {measured:.3}"
            );
            assert!(
                det >= measured * 0.96,
                "{label}: deterministic model {det:.3} below sim {measured:.3}"
            );
        }
    }
}

/// Weighted-workload validation is a typed error at scenario/grid
/// construction — an invalid distribution never reaches an engine.
#[test]
fn degenerate_weighted_workloads_are_rejected_before_any_engine_runs() {
    // Construction-time rejections (each degenerate shape).
    for weights in [vec![0.0, 0.0], vec![f64::NAN, 1.0], vec![-1.0, 2.0], vec![]] {
        assert!(matches!(
            Workload::weighted(weights),
            Err(CoreError::InvalidParameter { name: "module weights", .. })
        ));
    }
    // Shape mismatches surface at grid expansion, not inside a sweep.
    let grid = ScenarioGrid::new()
        .n_values([4])
        .m_values([4])
        .workloads([Workload::weighted([1.0, 1.0]).unwrap()]); // 2 weights, m = 4
    assert!(matches!(
        grid.scenarios(),
        Err(CoreError::InvalidParameter { name: "module weights", .. })
    ));
    // And at the evaluator boundary for a hand-built scenario.
    let scenario = Scenario::new(SystemParams::new(4, 4, 4).unwrap())
        .with_workload(Workload::heterogeneous([1.0, 1.0]).unwrap()); // 2 probs, n = 4
    let err = BusSimEval::new(SimBudget::quick()).evaluate(&scenario).unwrap_err();
    assert!(matches!(err, CoreError::InvalidParameter { name: "think probabilities", .. }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The alias-table sampling chain realizes exactly the configured
    /// distribution: draws from random weighted workloads pass a
    /// chi-square goodness-of-fit bound.
    #[test]
    fn sampled_reference_frequencies_match_distribution(
        m in 2u32..10,
        seed in 0u64..1_000,
        scale in 1u32..50,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(m as u64));
        // Random positive weights with occasional zero-mass modules.
        let weights: Vec<f64> = (0..m)
            .map(|j| {
                use rand::Rng;
                if j > 0 && rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(0.1..f64::from(scale)) }
            })
            .collect();
        let workload = Workload::weighted(weights).unwrap();
        let dist = workload.module_distribution(m);
        let table = CategoricalAlias::new(&dist).unwrap();
        let mut counts = vec![0u64; m as usize];
        for _ in 0..30_000 {
            counts[table.sample(&mut rng)] += 1;
        }
        assert_chi_square_fits("alias sampling", &counts, &dist);
    }

    /// EBW is monotone non-increasing in the hot-spot fraction: more
    /// concentration can only serialize more of the traffic.
    #[test]
    fn ebw_monotone_non_increasing_in_hot_spot_fraction(
        m in 4u32..10,
        r in 4u32..10,
        depth in 0u32..3,
    ) {
        let quick = SimBudget {
            replications: 2,
            warmup: 1_000,
            measure: 10_000,
            master_seed: master_seed(),
            engine: EngineKind::Event,
            stopping: Stopping::Fixed,
        };
        let sim = BusSimEval::new(quick);
        let mut prev = f64::INFINITY;
        let mut prev_hw = 0.0;
        for fraction in [0.0, 0.25, 0.5, 0.75] {
            let scenario = Scenario::new(SystemParams::new(8, m, r).unwrap())
                .with_buffering(Buffering::Depth(depth))
                .with_workload(Workload::hot_spot(fraction, 0).unwrap());
            let e = sim.evaluate(&scenario).unwrap();
            prop_assert!(
                e.ebw() <= prev + prev_hw + e.half_width_95 + 0.1,
                "m={} r={} k={}: EBW rose from {:.3} to {:.3} at fraction {}",
                m, r, depth, prev, e.ebw(), fraction
            );
            prev = e.ebw();
            prev_hw = e.half_width_95;
        }
    }
}
