//! Chaos suite for the supervised sweep: under arbitrary deterministic
//! fault plans every surviving point must be bit-identical to a
//! fault-free run, every casualty must surface as a structured record,
//! and `--resume` after a mid-sweep kill must reproduce the
//! uninterrupted output byte for byte.

use std::process::Command;

use busnet::core::cache::EvalCache;
use busnet::core::params::{Buffering, BusPolicy, SystemParams};
use busnet::core::scenario::{
    run_sweep_with, BusSimEval, CrossbarSimEval, Evaluation, Evaluator, OnFailure, PfqnEval,
    Scenario, ScenarioGrid, SimBudget, Supervisor, SweepOptions, SweepRecord, UnitStatus,
};
use busnet::core::sim::bus::{AdaptivePlan, BusSimBuilder, EngineKind, UnitBudget};
use busnet::core::CoreError;
use busnet::sim::exec::ExecutionMode;
use busnet::sim::fault::{silence_injected_panics, FaultPlan, FaultSite};

fn smoke_grid() -> Vec<Scenario> {
    ScenarioGrid::new()
        .n_values([2, 4, 8])
        .m_values([8])
        .r_values([4])
        .p_values([0.5, 1.0])
        .policies([BusPolicy::ProcessorPriority, BusPolicy::MemoryPriority])
        .scenarios()
        .unwrap()
}

fn supervised(
    scenarios: &[Scenario],
    sup: &Supervisor,
    faults: Option<&FaultPlan>,
) -> Vec<SweepRecord> {
    let sim = BusSimEval::new(SimBudget::quick());
    let evaluators: [&dyn Evaluator; 1] = [&sim];
    let options =
        SweepOptions { supervise: Some(sup), faults, ..SweepOptions::new(ExecutionMode::Parallel) };
    run_sweep_with(scenarios, &evaluators, &options, |_, _, _| {})
}

fn assert_survivors_identical(baseline: &[SweepRecord], chaos: &[SweepRecord]) {
    assert_eq!(baseline.len(), chaos.len());
    for (b, c) in baseline.iter().zip(chaos) {
        assert_eq!(b.scenario, c.scenario);
        if c.status == UnitStatus::Ok {
            match (&b.result, &c.result) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x, y, "survivor diverged at {}", c.scenario.label());
                }
                (Err(_), Err(_)) => {}
                _ => panic!("Ok/Err mismatch at {}", c.scenario.label()),
            }
        }
    }
}

/// Property: for arbitrary injected fault plans (a seeded family
/// standing in for proptest generation), surviving points are
/// bit-identical to the fault-free sweep and every record is accounted
/// for as ok, degraded, or failed.
#[test]
fn survivors_bit_identical_under_arbitrary_fault_plans() {
    silence_injected_panics();
    let scenarios = smoke_grid();
    let sup =
        Supervisor { backoff_base_ms: 0, on_failure: OnFailure::Degrade, ..Supervisor::default() };
    let baseline = supervised(&scenarios, &sup, None);
    for (seed, rate) in
        [(1u64, 0.1), (2, 0.25), (3, 0.4), (0xDEAD_BEEF, 0.6), (42, 0.35), (1985, 0.5)]
    {
        let plan = FaultPlan::new(seed, rate).unwrap().with_delay_ms(1);
        let chaos = supervised(&scenarios, &sup, Some(&plan));
        assert_survivors_identical(&baseline, &chaos);
        let ok = chaos.iter().filter(|r| r.status == UnitStatus::Ok).count();
        let degraded = chaos.iter().filter(|r| r.status == UnitStatus::Degraded).count();
        let failed = chaos.iter().filter(|r| r.status == UnitStatus::Failed).count();
        assert_eq!(
            ok + degraded + failed,
            chaos.len(),
            "every record accounted for (plan seed={seed} rate={rate})"
        );
        for r in &chaos {
            match r.status {
                UnitStatus::Ok => assert!(r.result.is_ok(), "ok rows carry results"),
                UnitStatus::Degraded => {
                    let e = r.result.as_ref().expect("degraded rows carry a fallback value");
                    assert!(e.ebw().is_finite() && e.ebw() > 0.0, "validated fallback");
                }
                UnitStatus::Failed => assert!(r.result.is_err(), "failed rows carry the error"),
            }
        }
    }
}

/// A plan that kills every attempt with retries disabled: under `skip`
/// every pair must surface as a structured `failed` record carrying the
/// injected panic, and the sweep itself must not unwind.
#[test]
fn brutal_plan_yields_structured_failures() {
    silence_injected_panics();
    let scenarios = smoke_grid();
    let sup = Supervisor {
        max_retries: 0,
        backoff_base_ms: 0,
        on_failure: OnFailure::Skip,
        ..Supervisor::default()
    };
    let plan = FaultPlan::new(7, 1.0).unwrap().with_sites(&[FaultSite::UnitPanic]);
    let chaos = supervised(&scenarios, &sup, Some(&plan));
    assert_eq!(chaos.len(), scenarios.len());
    for r in &chaos {
        assert_eq!(r.status, UnitStatus::Failed);
        assert_eq!(r.attempts, 1);
        match &r.result {
            Err(CoreError::Panicked { message }) => {
                assert!(message.contains("busnet-fault-injected"), "{message}");
            }
            other => panic!("expected an injected panic, got {other:?}"),
        }
    }
    assert!(plan.stats().panics >= scenarios.len() as u64);
}

/// Fault decisions are keyed on unit identity, not thread or timing:
/// serial and parallel chaos sweeps inject identically and produce
/// identical records.
#[test]
fn serial_and_parallel_chaos_sweeps_match() {
    silence_injected_panics();
    let scenarios = smoke_grid();
    let sup =
        Supervisor { backoff_base_ms: 0, on_failure: OnFailure::Degrade, ..Supervisor::default() };
    let sim = BusSimEval::new(SimBudget::quick());
    let evaluators: [&dyn Evaluator; 1] = [&sim];
    let run = |mode: ExecutionMode| {
        let plan = FaultPlan::new(11, 0.45).unwrap().with_delay_ms(1);
        let options =
            SweepOptions { supervise: Some(&sup), faults: Some(&plan), ..SweepOptions::new(mode) };
        run_sweep_with(&scenarios, &evaluators, &options, |_, _, _| {})
    };
    let serial = run(ExecutionMode::Serial);
    let parallel = run(ExecutionMode::Parallel);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.scenario, p.scenario);
        assert_eq!(s.status, p.status, "at {}", s.scenario.label());
        assert_eq!(s.attempts, p.attempts, "at {}", s.scenario.label());
        match (&s.result, &p.result) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("Ok/Err mismatch at {}", s.scenario.label()),
        }
    }
}

/// Fault decisions are keyed by each unit's `(pair, unit)` identity,
/// not by its position in the job queue: one plan fails the same
/// units, on the same attempts, whether the sweep starts cold or from a
/// partly warm cache whose hits the planner settles before scheduling.
#[test]
fn fault_plan_hits_the_same_units_cold_and_partly_warm() {
    use busnet::core::cache::EvalCache;

    silence_injected_panics();
    let scenarios = smoke_grid();
    let sim = BusSimEval::new(SimBudget::quick());
    let evaluators: [&dyn Evaluator; 1] = [&sim];
    let sup = Supervisor {
        max_retries: 1,
        backoff_base_ms: 0,
        on_failure: OnFailure::Skip,
        ..Supervisor::default()
    };
    let plan = FaultPlan::new(31, 0.5).unwrap().with_sites(&[FaultSite::UnitPanic]);
    let chaos = |cache: Option<&EvalCache>| {
        let options = SweepOptions {
            cache,
            supervise: Some(&sup),
            faults: Some(&plan),
            ..SweepOptions::new(ExecutionMode::Parallel)
        };
        run_sweep_with(&scenarios, &evaluators, &options, |_, _, _| {})
    };
    let cold = chaos(None);
    // Warm every other point, fault-free.
    let cache = EvalCache::new();
    let warm_half: Vec<Scenario> = scenarios.iter().step_by(2).cloned().collect();
    let options =
        SweepOptions { cache: Some(&cache), ..SweepOptions::new(ExecutionMode::Parallel) };
    run_sweep_with(&warm_half, &evaluators, &options, |_, _, _| {});
    let partly_warm = chaos(Some(&cache));

    let (mut failed, mut survived) = (0, 0);
    for (c, w) in cold.iter().zip(&partly_warm) {
        if w.cached {
            assert_eq!(w.status, UnitStatus::Ok);
            continue;
        }
        assert_eq!((c.status, c.attempts), (w.status, w.attempts), "at {}", c.scenario.label());
        match (&c.result, &w.result) {
            // The injected panic names its (pair, unit, attempt).
            (Err(x), Err(y)) => assert_eq!(x, y),
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            _ => panic!("Ok/Err mismatch at {}", c.scenario.label()),
        }
        if w.status == UnitStatus::Failed {
            failed += 1;
        } else {
            survived += 1;
        }
    }
    assert!(failed > 0 && survived > 0, "plan must split the cold pairs ({failed} failed)");
}

/// The budget watchdog: an absurdly small event ceiling trips every
/// simulation unit (degrading under `degrade`), while a generous
/// ceiling is bit-invisible — budgeted-but-untripped runs match the
/// unbudgeted baseline exactly, and so does a sweep that names no
/// supervisor (it runs under the default one).
#[test]
fn budget_watchdog_trips_and_is_otherwise_invisible() {
    let scenarios = smoke_grid();
    let baseline = supervised(&scenarios, &Supervisor::default(), None);
    let sim = BusSimEval::new(SimBudget::quick());
    let evaluators: [&dyn Evaluator; 1] = [&sim];
    let unnamed = run_sweep_with(
        &scenarios,
        &evaluators,
        &SweepOptions::new(ExecutionMode::Parallel),
        |_, _, _| {},
    );

    let tight = Supervisor {
        max_retries: 0,
        backoff_base_ms: 0,
        on_failure: OnFailure::Degrade,
        unit_budget: Some(UnitBudget { max_events: Some(5), max_millis: None }),
    };
    let tripped = supervised(&scenarios, &tight, None);
    assert!(
        tripped.iter().all(|r| r.status == UnitStatus::Degraded),
        "a 5-event ceiling must trip every simulated point"
    );

    let roomy = Supervisor {
        unit_budget: Some(UnitBudget { max_events: Some(u64::MAX / 2), max_millis: None }),
        ..Supervisor::default()
    };
    let untripped = supervised(&scenarios, &roomy, None);
    for (b, u) in baseline.iter().zip(&untripped).chain(baseline.iter().zip(&unnamed)) {
        assert_eq!(u.status, UnitStatus::Ok);
        assert_eq!(
            b.result.as_ref().unwrap(),
            u.result.as_ref().unwrap(),
            "an untripped budget or the default supervisor changed {}",
            b.scenario.label()
        );
    }
}

/// One slicing loop serves the cycle bus, the event bus and the
/// crossbar. A run inside a generous budget (sliced and checked all
/// along) is bit-identical to the unbudgeted run: fixed and adaptive on
/// both bus engines, fixed on the crossbar. The crossbar runs
/// cycle-stepped whatever engine the budget names.
#[test]
fn one_slicing_loop_is_bit_invisible_on_every_engine() {
    let roomy = UnitBudget { max_events: Some(u64::MAX / 2), max_millis: Some(u64::MAX / 2) };
    // Batches, slices (1 117 and 1 024 cycles) and the warmup end all
    // fall on different cycles.
    let plan = AdaptivePlan {
        ci_width: 0.05,
        batch_cycles: 3_000,
        min_batches: 4,
        max_measure: 60_000,
        prior: None,
    };
    for engine in [EngineKind::Cycle, EngineKind::Event] {
        let builder = BusSimBuilder::new(SystemParams::new(8, 8, 6).unwrap())
            .buffering(Buffering::Buffered)
            .engine(engine)
            .seed(5)
            .warmup_cycles(1_500)
            .measure_cycles(70_000);
        let whole = match engine {
            EngineKind::Cycle => builder.clone().build().run(),
            EngineKind::Event => builder.clone().build_event().run(),
        };
        for plan in [None, Some(&plan)] {
            let unbudgeted = builder.clone().run_budgeted(&UnitBudget::default(), plan).unwrap();
            let sliced = builder.clone().run_budgeted(&roomy, plan).unwrap();
            assert_eq!(format!("{sliced:?}"), format!("{unbudgeted:?}"), "{engine:?} {plan:?}");
            match plan {
                None => assert_eq!(format!("{:?}", sliced.report), format!("{whole:?}")),
                Some(plan) => assert!(
                    sliced.converged && sliced.report.measured_cycles < plan.max_measure,
                    "{engine:?}: the adaptive run must stop early to pin the early close"
                ),
            }
        }
    }

    let scenarios = ScenarioGrid::new().n_values([64]).m_values([64]).r_values([8]).scenarios();
    let scenarios = scenarios.unwrap();
    let eval = CrossbarSimEval::new(SimBudget::sweep());
    let named_event =
        CrossbarSimEval::new(SimBudget { engine: EngineKind::Event, ..SimBudget::sweep() });
    let full = eval.evaluate(&scenarios[0]).unwrap();
    assert_eq!(named_event.evaluate(&scenarios[0]).unwrap(), full);
    assert_eq!(named_event.config_fingerprint(), eval.config_fingerprint());
    assert!(
        eval.config_fingerprint().ends_with(":engine=cycle"),
        "journals written with the default budget replay"
    );
    let roomy = Supervisor { unit_budget: Some(roomy), ..Supervisor::default() };
    let evaluators: [&dyn Evaluator; 1] = [&eval];
    let options =
        SweepOptions { supervise: Some(&roomy), ..SweepOptions::new(ExecutionMode::Serial) };
    let record = run_sweep_with(&scenarios, &evaluators, &options, |_, _, _| {}).remove(0);
    assert_eq!(record.status, UnitStatus::Ok);
    assert_eq!(record.result.unwrap(), full, "an untripped budget changed the crossbar run");
}

/// Whichever engine the budget names, the crossbar checks the unit
/// budget between slices of the run, as the bus engines do: a runaway
/// unit stops within one slice instead of after its whole run.
#[test]
fn crossbar_budget_trips_mid_run_on_both_engines() {
    let scenarios = ScenarioGrid::new().n_values([64]).m_values([64]).r_values([8]).scenarios();
    let scenarios = scenarios.unwrap();
    for engine in [EngineKind::Cycle, EngineKind::Event] {
        let eval = CrossbarSimEval::new(SimBudget { engine, ..SimBudget::sweep() });
        let full = eval.evaluate(&scenarios[0]).unwrap();
        let evaluators: [&dyn Evaluator; 1] = [&eval];
        let sup = Supervisor {
            max_retries: 0,
            backoff_base_ms: 0,
            on_failure: OnFailure::Skip,
            unit_budget: Some(UnitBudget { max_events: Some(1_000), max_millis: None }),
        };
        let options =
            SweepOptions { supervise: Some(&sup), ..SweepOptions::new(ExecutionMode::Serial) };
        match run_sweep_with(&scenarios, &evaluators, &options, |_, _, _| {}).remove(0).result {
            Err(CoreError::BudgetExceeded { what: "events", used, limit: 1_000 }) => assert!(
                used < full.simulated_events / 10,
                "{engine:?}: tripped after {used} of {} events",
                full.simulated_events
            ),
            other => panic!("{engine:?}: expected an events overrun, got {other:?}"),
        }
    }
}

fn busnet(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_busnet")).args(args).output().expect("spawns")
}

/// `--resume` after a mid-sweep kill: a partial run leaves a journal
/// with a torn trailing line; resuming onto the full grid must emit a
/// CSV byte-identical to an uninterrupted run.
#[test]
fn resume_after_kill_is_byte_identical() {
    let base = std::env::temp_dir().join(format!("busnet-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let partial_dir = base.join("partial");
    let fresh_dir = base.join("fresh");
    let sweep = |extra: &[&str]| {
        let mut args = vec![
            "sweep",
            "--n",
            "2,4,6,8",
            "--m",
            "8",
            "--r",
            "4",
            "--evaluator",
            "sim",
            "--cycles",
            "2000",
            "--warmup",
            "200",
            "--replications",
            "2",
            "--seed",
            "7",
        ];
        args.extend_from_slice(extra);
        busnet(&args)
    };
    // "Killed" run: only half the grid completed before the plug was
    // pulled, and the last journal line was torn mid-write.
    let partial_dirs = partial_dir.to_str().unwrap().to_owned();
    let partial = busnet(&[
        "sweep",
        "--n",
        "2,4",
        "--m",
        "8",
        "--r",
        "4",
        "--evaluator",
        "sim",
        "--cycles",
        "2000",
        "--warmup",
        "200",
        "--replications",
        "2",
        "--seed",
        "7",
        "--cache-dir",
        &partial_dirs,
    ]);
    assert!(partial.status.success());
    let journal = partial_dir.join("evalcache.jsonl");
    let mut torn = std::fs::read(&journal).unwrap();
    torn.extend_from_slice(b"{\"schema\":\"busnet-evalcache-v2\",\"key\":\"cut");
    std::fs::write(&journal, &torn).unwrap();

    let resumed = sweep(&["--cache-dir", &partial_dirs, "--resume"]);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("# resume: 2 completed point(s)"), "{stderr}");
    assert!(stderr.contains("truncated torn trailing line"), "{stderr}");

    let fresh_dirs = fresh_dir.to_str().unwrap().to_owned();
    let uninterrupted = sweep(&["--cache-dir", &fresh_dirs]);
    assert!(uninterrupted.status.success());
    assert_eq!(
        resumed.stdout, uninterrupted.stdout,
        "resumed CSV must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// A CLI chaos sweep that kills well over 20 % of first attempts must
/// complete with exit 0 under `--on-failure degrade`, and its surviving
/// rows must match the fault-free CSV.
#[test]
fn cli_chaos_sweep_survives_and_matches() {
    let grid = [
        "sweep",
        "--n",
        "2,4,6,8",
        "--m",
        "8",
        "--r",
        "4",
        "--p",
        "0.5,1",
        "--evaluator",
        "sim",
        "--cycles",
        "2000",
        "--warmup",
        "200",
        "--replications",
        "2",
        "--seed",
        "7",
    ];
    let bare = busnet(&grid);
    assert!(bare.status.success());
    let mut chaos_args = grid.to_vec();
    chaos_args.extend_from_slice(&["--fault-plan", "seed=5:rate=0.45", "--on-failure", "degrade"]);
    let chaos = busnet(&chaos_args);
    assert!(chaos.status.success(), "{}", String::from_utf8_lossy(&chaos.stderr));
    let stderr = String::from_utf8_lossy(&chaos.stderr);
    assert!(stderr.contains("# faults [seed=5:rate=0.45"), "{stderr}");
    let rows = |out: &[u8]| {
        String::from_utf8_lossy(out).lines().skip(1).map(str::to_owned).collect::<Vec<_>>()
    };
    let bare_rows = rows(&bare.stdout);
    let chaos_rows = rows(&chaos.stdout);
    assert_eq!(bare_rows.len(), chaos_rows.len());
    let mut survivors = 0usize;
    for (b, c) in bare_rows.iter().zip(&chaos_rows) {
        // The first 26 columns are the scenario identity and metrics;
        // status/attempts/degraded may legitimately differ.
        let head = |row: &str| row.split(',').take(26).collect::<Vec<_>>().join(",");
        if c.contains(",ok,") {
            assert_eq!(head(b), head(c), "surviving row diverged");
            survivors += 1;
        }
    }
    assert!(survivors > 0, "some rows must survive at rate 0.45 with retries");
}

/// An evaluator whose every answer carries one fixed EBW.
struct FixedEbw(f64);

impl Evaluator for FixedEbw {
    fn name(&self) -> &'static str {
        "fixed-ebw"
    }

    fn supports(&self, _scenario: &Scenario) -> bool {
        true
    }

    fn config_fingerprint(&self) -> String {
        format!("fixed-ebw:{:016x}", self.0.to_bits())
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError> {
        let mut evaluation = PfqnEval::default().evaluate(scenario)?;
        evaluation.metrics.ebw = self.0;
        Ok(evaluation)
    }
}

/// A NaN, infinite or negative EBW is a failed row, never a number, and
/// never reaches the cache journal (the approximations' overflow at
/// n = 160, m = 256 once streamed as an `ok` row with EBW `NaN` and
/// went into the journal).
#[test]
fn non_finite_ebw_is_a_failed_row_and_never_cached() {
    let dir = std::env::temp_dir().join(format!("busnet-nan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scenarios =
        [Scenario::new(SystemParams::new(4, 4, 4).unwrap()).with_buffering(Buffering::Buffered)];
    let cache = EvalCache::with_dir(&dir).unwrap();
    for ebw in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        let eval = FixedEbw(ebw);
        let evaluators: [&dyn Evaluator; 1] = [&eval];
        let options =
            SweepOptions { cache: Some(&cache), ..SweepOptions::new(ExecutionMode::Serial) };
        let record = run_sweep_with(&scenarios, &evaluators, &options, |_, _, _| {}).remove(0);
        assert_eq!(record.status, UnitStatus::Failed, "EBW {ebw}");
        match record.result {
            Err(err @ CoreError::InvalidResult { .. }) => {
                assert!(err.to_string().contains("not a finite non-negative number"), "{err}")
            }
            other => panic!("EBW {ebw}: expected an invalid result, got {other:?}"),
        }
    }
    drop(cache);
    let journal = std::fs::read_to_string(dir.join("evalcache.jsonl")).unwrap_or_default();
    assert!(journal.is_empty(), "a failed result reached the journal: {journal}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The degrade fallback picks its analytic anchor by `supports()`, so
/// the chain evaluators' state ceilings bound it too: this sweep trips
/// its unit budget at once, and the anchor search once built a
/// 160 × 256 exact chain and ran on past 15 s. It now returns the
/// point's one degraded row. (No wall-clock assert: an unbounded solve
/// would hang the test instead.)
#[test]
fn degrade_fallback_never_builds_an_oversized_chain() {
    let args = "sweep --n 160 --m 256 --r 8 --policy mem --evaluator sim --unit-budget 1000";
    let args: Vec<&str> = args.split(' ').chain(["--on-failure", "degrade"]).collect();
    let out = busnet(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let rows: Vec<&str> = stdout.lines().skip(1).collect();
    assert_eq!(rows.len(), 1, "{stdout}");
    assert!(rows[0].starts_with("160,256,8,1,mem,"), "{stdout}");
    assert!(rows[0].contains(",degraded,"), "{stdout}");
}

/// No hostile CLI input may reach a panic or an abort: every parse
/// error must come back as a clean diagnostic with exit code 1, and an
/// oversized axis range or sweep grid is rejected before it allocates.
#[test]
fn hostile_cli_inputs_never_panic() {
    let cases: &[&[&str]] = &[
        &["sim", "--cycles", "0", "--ci-width", "0.01"],
        &["sim", "--n", "0"],
        &["sim", "--n", "-3"],
        &["sim", "--p", "2.5"],
        &["sim", "--buffer-depth", "wat"],
        &["sim", "--arbitration", "coinflip"],
        &["sim", "--hot-spot", "1.5@99"],
        &["sim", "--burst", "1:2"],
        &["sweep", "--n", ".."],
        &["sweep", "--n", "4..2"],
        &["sweep", "--n", "2..8:0"],
        &["sweep", "--n", "8:2"],
        &["sweep", "--m", ""],
        &["sweep", "--evaluator", "ouija"],
        &["sweep", "--on-failure", "retry-forever"],
        &["sweep", "--unit-budget", "lots"],
        &["sweep", "--fault-plan", "rate=2"],
        &["sweep", "--fault-plan", "seed=x:rate=0.1"],
        &["sweep", "--resume"],
        &["sweep", "--ci-width", "-1"],
        &["sweep", "--screen", "crystal-ball"],
        &["sweep", "--buses", "1..0"],
        &["sweep", "--n", "1..100000", "--m", "1..100000", "--r", "8", "--evaluator", "pfqn"],
        &["sweep", "--n", "1..4000000000"],
        &["sweep", "--n", "1..4096", "--m", "1..4096", "--evaluator", "pfqn"],
        &["sweep", "--replications", "4000000000"],
        &["sweep", "--cycles", "0"],
        &["run", "no-such-experiment"],
    ];
    for case in cases {
        let out = busnet(case);
        let stderr = String::from_utf8_lossy(&out.stderr);
        // Exit code 1 is a reported error; an abort (e.g. a failed
        // allocation) or a panic exits otherwise.
        assert_eq!(out.status.code(), Some(1), "busnet {case:?} did not fail cleanly:\n{stderr}");
        assert!(!stderr.contains("panicked"), "busnet {case:?} panicked:\n{stderr}");
        assert!(!stderr.trim().is_empty(), "busnet {case:?} failed without a message");
    }
}

/// Regression: a unit panicking mid-sweep under the supervisor used to
/// poison the shared cache mutex, turning every later lookup/insert
/// into a `PoisonError` panic. The cache now recovers the guard, so a
/// chaos sweep's survivors land in the cache and a follow-up sweep
/// replays them.
#[test]
fn mid_sweep_panics_do_not_poison_the_cache() {
    use busnet::core::cache::EvalCache;

    silence_injected_panics();
    let scenarios = smoke_grid();
    let cache = EvalCache::new();
    let sim = BusSimEval::new(SimBudget::quick());
    let evaluators: [&dyn Evaluator; 1] = [&sim];
    let sup = Supervisor {
        max_retries: 0,
        backoff_base_ms: 0,
        on_failure: OnFailure::Skip,
        ..Supervisor::default()
    };
    let plan = FaultPlan::new(23, 0.5).unwrap().with_sites(&[FaultSite::UnitPanic]);
    let options = SweepOptions {
        cache: Some(&cache),
        supervise: Some(&sup),
        faults: Some(&plan),
        ..SweepOptions::new(ExecutionMode::Parallel)
    };
    let chaos = run_sweep_with(&scenarios, &evaluators, &options, |_, _, _| {});
    let survivors = chaos.iter().filter(|r| r.status == UnitStatus::Ok).count();
    let failed = chaos.iter().filter(|r| r.status == UnitStatus::Failed).count();
    assert!(
        survivors > 0 && failed > 0,
        "plan must split the grid ({survivors} ok, {failed} failed)"
    );

    // The cache stayed usable through the panics: survivors were
    // inserted, and a fault-free follow-up sweep replays every one of
    // them while freshly evaluating only the casualties.
    assert_eq!(cache.len(), survivors, "every survivor was cached despite mid-sweep panics");
    let options =
        SweepOptions { cache: Some(&cache), ..SweepOptions::new(ExecutionMode::Parallel) };
    let replay = run_sweep_with(&scenarios, &evaluators, &options, |_, _, _| {});
    for (c, r) in chaos.iter().zip(&replay) {
        assert_eq!(r.status, UnitStatus::Ok, "follow-up sweep fills the gaps");
        let replayed = r.result.as_ref().expect("fault-free record");
        match (c.status, &c.result) {
            (UnitStatus::Ok, Ok(original)) => {
                assert!(r.cached, "survivor replays from the cache at {}", r.scenario.label());
                assert_eq!(original, replayed, "cached replay bit-identical");
            }
            _ => assert!(!r.cached, "casualties re-evaluate at {}", r.scenario.label()),
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.hits as usize, survivors, "one hit per survivor on replay");
}
