//! Cross-crate property-based tests on the core invariants.

use busnet::core::analytic::approx::{ApproxModel, ApproxVariant};
use busnet::core::analytic::exact_chain::ExactChain;
use busnet::core::analytic::occupancy::{Discipline, OccupancyChain};
use busnet::core::analytic::reduced::ReducedChain;
use busnet::core::cache::scenario_fingerprint;
use busnet::core::json::escape;
use busnet::core::metrics::Metrics;
use busnet::core::params::{ArbitrationKind, Buffering, BusPolicy, SystemParams, Workload};
use busnet::core::scenario::spec::{self, Flags, MAX_REPLICATIONS, MAX_SWEEP_POINTS};
use busnet::core::scenario::{
    run_sweep_with, Evaluator, EvaluatorKind, Scenario, SimBudget, Stopping, SweepOptions,
    UnitStatus, ALL_EVALUATOR_KINDS,
};
use busnet::core::serve::{parse_request, Request};
use busnet::core::sim::bus::BusSimBuilder;
use busnet::core::sim::service::ServiceTime;
use busnet::core::CoreError;
use busnet::sim::exec::ExecutionMode;
use proptest::prelude::*;

/// A workload drawn by index (uniform, hot spot, bursty MMPP, module
/// weights, per-processor think probabilities), with its spelling as a
/// spec `(row, text)` pair.
fn drawn_workload(workload: u32, n: u32, m: u32) -> (Workload, (&'static str, String)) {
    let join = |values: &[f64]| values.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    match workload {
        0 => (Workload::Uniform, ("workload", "uniform".to_owned())),
        1 => (Workload::hot_spot(0.5, m - 1).unwrap(), ("hot_spot", format!("0.5@{}", m - 1))),
        2 => (
            Workload::on_off_burst(0.9, 0.2, 0.8, 50, Some((0.5, 0))).unwrap(),
            ("burst", "0.9:0.2:0.8:50:0.5@0".to_owned()),
        ),
        3 => {
            let weights: Vec<f64> = (1..=m).map(f64::from).collect();
            (Workload::weighted(weights.clone()).unwrap(), ("module_weights", join(&weights)))
        }
        _ => {
            let probs: Vec<f64> = (0..n).map(|i| if i % 3 == 0 { 0.25 } else { 1.0 }).collect();
            (Workload::heterogeneous(probs.clone()).unwrap(), ("think_probs", join(&probs)))
        }
    }
}

/// A valid scenario from plain strategy draws, with its workload's
/// spec spelling, spanning every axis an
/// evaluator domain reads: size (`n = 8` stands for 70 000, beyond
/// every state-space and simulation domain), policy, buffering,
/// arbitration, workload (see [`drawn_workload`]), service
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
) -> (Scenario, (&'static str, String)) {
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
    let (workload, spelling) = drawn_workload(workload, n, m);
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
    (scenario, spelling)
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
            Discipline::MultipleBus { buses: n.min(m) },
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
    /// keeps planned and evaluated domains identical. Every result that
    /// does come back carries a finite EBW ≥ 0, and an analytic one at
    /// constant memory service at most `n` (a simulated geometric
    /// service can legally beat the `r`-cycle round trip).
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
        let (scenario, _) = drawn_scenario(
            n, m, r, p10, memory_priority, buffering, arbitration, workload, geometric, buses,
        );
        let budget = SimBudget {
            replications: 2,
            warmup: 20,
            measure: 200,
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
            if let Ok(e) = &result {
                let ebw = e.ebw();
                prop_assert!(
                    ebw.is_finite() && ebw >= 0.0,
                    "{} @ {}: EBW {ebw}",
                    kind.name(),
                    scenario.label()
                );
                let simulated = matches!(kind, EvaluatorKind::Sim | EvaluatorKind::CrossbarSim);
                prop_assert!(
                    simulated || geometric || ebw <= f64::from(scenario.params.n()) + 1e-9,
                    "{} @ {}: EBW {ebw} > n",
                    kind.name(),
                    scenario.label()
                );
            }
        }
    }
}

/// The drawn systems above are small. At n = 128 and 160, m = 256, the
/// closed form's `m^n` overflows f64, which once gave the
/// approximations a false 0 and a NaN. Computed in probability space,
/// both points answer through a sweep with an EBW in `(0, min(n, m)]`.
#[test]
fn approximations_answer_where_m_to_the_n_overflows() {
    let scenarios: Vec<Scenario> = [128, 160]
        .map(|n| {
            Scenario::new(SystemParams::new(n, 256, 8).unwrap())
                .with_policy(BusPolicy::MemoryPriority)
        })
        .into();
    let budget = SimBudget::quick();
    let evaluators: Vec<_> =
        [EvaluatorKind::Approx, EvaluatorKind::ApproxSymmetric].map(|k| k.build(budget)).into();
    let refs: Vec<&dyn Evaluator> = evaluators.iter().map(|e| e.as_ref()).collect();
    let options = SweepOptions::new(ExecutionMode::Serial);
    for record in run_sweep_with(&scenarios, &refs, &options, |_, _, _| {}) {
        let label = format!("{} @ {}", record.evaluator, record.scenario.label());
        assert_eq!(record.status, UnitStatus::Ok, "{label}: {:?}", record.result);
        let ebw = record.result.unwrap().ebw();
        let bound = f64::from(record.scenario.params.min_nm());
        assert!(ebw.is_finite() && ebw > 0.0 && ebw <= bound, "{label}: EBW {ebw}");
    }
}

/// At n = 512, m = 8 both surjection counts behind the reduced chain's
/// `P2` pass `f64::MAX`, which once made a transition row NaN. The
/// chain now answers through a sweep, unbuffered and through the
/// depth-aware approximation; n = m = 192, whose chain is past the
/// reduced-chain state ceiling, is out of domain instead of a solve of
/// tens of thousands of states.
#[test]
fn reduced_chain_answers_where_surjections_overflow() {
    let point = |n, m| Scenario::new(SystemParams::new(n, m, 8).unwrap());
    let buffered = |n, m| point(n, m).with_buffering(Buffering::Buffered);
    let scenarios = [point(512, 8), buffered(512, 8), buffered(192, 192)];
    let evaluators =
        [EvaluatorKind::Reduced, EvaluatorKind::DepthApprox].map(|k| k.build(SimBudget::quick()));
    let refs: Vec<&dyn Evaluator> = evaluators.iter().map(|e| e.as_ref()).collect();
    let options = SweepOptions::new(ExecutionMode::Serial);
    let answered: Vec<(String, f64)> = run_sweep_with(&scenarios, &refs, &options, |_, _, _| {})
        .into_iter()
        .filter_map(|r| {
            assert_eq!(r.status, UnitStatus::Ok, "{:?}", r.result);
            let label = format!("{} @ {}", r.evaluator, r.scenario.label());
            match r.result {
                Ok(e) => Some((label, e.ebw())),
                Err(err) => {
                    assert!(matches!(err, CoreError::UnsupportedScenario { .. }), "{label}: {err}");
                    None
                }
            }
        })
        .collect();
    // Out of domain: `reduced` on a buffered point, and n = m = 192.
    let labels: Vec<&str> = answered.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels.len(), 3, "{labels:?}");
    assert!(labels.iter().all(|l| l.contains("n=512 m=8")), "{labels:?}");
    for (label, ebw) in &answered {
        assert!(ebw.is_finite() && *ebw > 0.0 && *ebw <= 8.0, "{label}: {ebw}");
    }
}

/// The `(row, text)` spelling of a drawn scenario without a service
/// override: every axis the scenario sets, plus its workload's row.
fn spelled(scenario: &Scenario, workload: (&'static str, String)) -> Vec<(&'static str, String)> {
    let p = &scenario.params;
    vec![
        ("n", p.n().to_string()),
        ("m", p.m().to_string()),
        ("r", p.r().to_string()),
        ("p", p.p().to_string()),
        ("policy", scenario.policy.name().to_owned()),
        ("buffering", scenario.buffering.name()),
        ("arbitration", scenario.arbitration.name().to_owned()),
        ("buses", scenario.buses.to_string()),
        workload,
    ]
}

/// The CLI door: the fields spelled as `--x-y TEXT` arguments and read
/// back through [`Flags::spec`], as `busnet sim` reads its point and
/// `busnet sweep` its budget.
fn cli_door(fields: &[(&str, String)]) -> Result<(Scenario, SimBudget), String> {
    let args: Vec<String> =
        fields.iter().flat_map(|(row, text)| [spec::flag(row), text.clone()]).collect();
    let mut flags = Flags::new(&args);
    let (axes, budget) = flags.spec();
    flags.finish()?;
    Ok((spec::point(&axes)?, spec::budget(SimBudget::sweep(), &budget)?))
}

/// The serve door: the fields as one request line (budget rows in the
/// `budget` member). Plain decimal texts travel as JSON numbers, the
/// rest as strings.
fn serve_line(fields: &[(&str, String)]) -> String {
    let member = |budget: bool| {
        let members: Vec<String> = fields
            .iter()
            .filter(|(row, _)| spec::BUDGET.iter().any(|b| b.name == *row) == budget)
            .map(|(row, text)| {
                let number = !text.is_empty()
                    && !text.starts_with('.')
                    && text.bytes().all(|b| b.is_ascii_digit() || b == b'.');
                if number {
                    format!("\"{row}\":{text}")
                } else {
                    format!("\"{row}\":\"{}\"", escape(text))
                }
            })
            .collect();
        members.join(",")
    };
    format!(
        r#"{{"id":1,"scenario":{{{}}},"evaluator":"sim","budget":{{{}}}}}"#,
        member(false),
        member(true)
    )
}

fn serve_door(line: &str) -> Option<(Scenario, SimBudget)> {
    match parse_request(line) {
        Ok(Request::Eval(req)) => Some((req.scenario, req.budget)),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The CLI and the serve protocol read one spec into the same
    /// scenario: both land on the drawn scenario's cache fingerprint.
    #[test]
    fn front_doors_agree_on_drawn_scenarios(
        n in 1u32..9,
        m in 1u32..7,
        r in 1u32..10,
        p10 in 1u32..=10,
        memory_priority in proptest::bool::ANY,
        buffering in 0u32..4,
        arbitration in 0u32..4,
        workload in 0u32..5,
        buses in 1u32..4,
    ) {
        let (scenario, workload) = drawn_scenario(
            n, m, r, p10, memory_priority, buffering, arbitration, workload, false, buses,
        );
        let fields = spelled(&scenario, workload);
        let expected = scenario_fingerprint(&scenario);
        let (cli, _) = cli_door(&fields).unwrap();
        prop_assert_eq!(scenario_fingerprint(&cli), expected.clone());
        let (served, _) = serve_door(&serve_line(&fields)).expect("the serve line parses");
        prop_assert_eq!(scenario_fingerprint(&served), expected);
    }
}

/// Two distinct spellings of one axis row at the base point `n = m =
/// r = 4`; `None` for `workload`, which accepts only `uniform`.
fn axis_samples(row: &str) -> Option<[&'static str; 2]> {
    Some(match row {
        "n" | "m" | "r" => ["4", "5"],
        "p" => ["1", "0.5"],
        "policy" => ["proc", "mem"],
        "buffering" => ["unbuffered", "buffered"],
        "buffer_depth" => ["2", "inf"],
        "arbitration" => ["random", "lru"],
        "buses" => ["1", "2"],
        "hot_spot" => ["0.5@1", "0.5@2"],
        "module_weights" => ["4,2,1,1", "1,1,2,4"],
        "think_probs" => ["1,1,0.5,0.25", "1,0.5,0.5,0.25"],
        "burst" => ["0.9:0.05:0.9:500", "0.9:0.05:0.9:400"],
        "workload" => return None,
        other => panic!("axis row `{other}` has no sample values: add them here"),
    })
}

/// The cache key cannot miss an axis: for every row of the axes table,
/// two points differing only on that row fingerprint differently.
#[test]
fn every_axis_row_reaches_the_fingerprint() {
    for row in &spec::AXES {
        let Some(values) = axis_samples(row.name) else { continue };
        let [a, b] = values.map(|value| {
            let mut fields: Vec<(&str, &str)> = [("n", "4"), ("m", "4"), ("r", "4")]
                .into_iter()
                .filter(|f| f.0 != row.name)
                .collect();
            fields.push((row.name, value));
            scenario_fingerprint(&spec::point(&fields).unwrap())
        });
        assert_ne!(a, b, "row `{}` does not reach the fingerprint", row.name);
    }
}

/// A valid one-point spec over most axis rows and every budget row.
const VALID_SPEC: [(&str, &str); 16] = [
    ("n", "8"),
    ("m", "16"),
    ("r", "8"),
    ("p", "0.5"),
    ("policy", "mem"),
    ("buffer_depth", "2"),
    ("arbitration", "lru"),
    ("buses", "1"),
    ("hot_spot", "0.25@3"),
    ("replications", "4"),
    ("cycles", "1000"),
    ("warmup", "100"),
    ("seed", "7"),
    ("engine", "event"),
    ("ci_width", "0.05"),
    ("max_reps", "8"),
];

/// Huge integers and huge ranges, each beyond some bound.
const HUGE: [&str; 7] = [
    "4000000000",
    "18446744073709551616",
    "99999999999999999999999999999",
    "1..4000000000",
    "0..65536",
    "1..4096:1",
    "1e308",
];

/// Bytes the mutations splice in: digits, the spec punctuation, and
/// JSON's own delimiters.
const ALPHABET: &[u8] = b"0123456789.,:@-e ianfb\"\\{}[]";

/// Checks the budget bounds every accepted spec must respect.
fn assert_bounded(budget: &SimBudget) {
    assert!(budget.measure >= 1, "{budget:?}");
    assert!((1..=MAX_REPLICATIONS).contains(&budget.replications), "{budget:?}");
    if let Stopping::Adaptive { max_reps, .. } = budget.stopping {
        assert!((1..=MAX_REPLICATIONS).contains(&max_reps), "{budget:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Structured fuzzing of the two parsers the spec tables feed: the
    /// CLI flags and the serve line, mutated by truncation, byte flips,
    /// deep nesting, huge integers and huge ranges. Nothing panics,
    /// every accepted budget and grid is bounded, and whenever both
    /// doors accept the same spec they agree.
    #[test]
    fn mutated_specs_are_bounded_and_doors_agree(
        first in 0u32..8,
        second in 0u32..8,
        field in 0usize..64,
        pos in 0usize..64,
        pick in 0usize..64,
        line_op in 0u32..4,
        line_pos in 0usize..4096,
    ) {
        let mut fields: Vec<(&str, String)> =
            VALID_SPEC.iter().map(|&(row, text)| (row, text.to_owned())).collect();
        let names: Vec<&str> = spec::AXES
            .iter()
            .map(|row| row.name)
            .chain(spec::BUDGET.iter().map(|row| row.name))
            .chain(["frobnicate"])
            .collect();
        for op in [first, second] {
            let i = field % fields.len();
            let text = &mut fields[i].1;
            let at = pos % (text.len() + 1);
            let byte = char::from(ALPHABET[pick % ALPHABET.len()]);
            match op {
                0 => text.truncate(at),
                1 if at < text.len() => text.replace_range(at..=at, &byte.to_string()),
                1 | 2 => text.insert(at, byte),
                3 => *text = HUGE[pick % HUGE.len()].to_owned(),
                4 => *text = format!("{text},{text}"),
                5 => fields[i].0 = names[pick % names.len()],
                6 => {
                    let copy = fields[i].clone();
                    fields.push(copy);
                }
                _ => {
                    fields.remove(i);
                }
            }
        }

        let cli = cli_door(&fields);
        if let Ok((_, budget)) = &cli {
            assert_bounded(budget);
        }
        let args: Vec<String> =
            fields.iter().flat_map(|(row, text)| [spec::flag(row), text.clone()]).collect();
        let mut flags = Flags::new(&args);
        let (axes, budget) = flags.spec();
        if let Ok(grid) = spec::grid(&axes) {
            prop_assert!(grid.len() <= MAX_SWEEP_POINTS);
        }
        if let Ok(budget) = spec::budget(SimBudget::sweep(), &budget) {
            assert_bounded(&budget);
        }

        let line = serve_line(&fields);
        let served = serve_door(&line);
        if let Some((scenario, budget)) = &served {
            assert_bounded(budget);
            let (cli_scenario, cli_budget) =
                cli.as_ref().expect("a spec the serve door accepts, the CLI accepts");
            prop_assert_eq!(scenario_fingerprint(scenario), scenario_fingerprint(cli_scenario));
            prop_assert_eq!(budget, cli_budget);
        }

        // Line-level damage the structured mutations cannot express.
        let mut bytes = line.into_bytes();
        let at = line_pos % (bytes.len() + 1);
        match line_op {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] = ALPHABET[pick % ALPHABET.len()],
            1 | 2 => {
                // Around the whole line, straddling the parser's depth cap.
                let depth = 1 + line_pos % 64;
                bytes.splice(0..0, std::iter::repeat_n(b'[', depth));
                bytes.extend(std::iter::repeat_n(b']', depth));
            }
            _ => bytes.splice(at..at, HUGE[pick % HUGE.len()].bytes()).for_each(drop),
        }
        if let Some((_, budget)) = serve_door(&String::from_utf8_lossy(&bytes)) {
            assert_bounded(&budget);
        }
    }
}
