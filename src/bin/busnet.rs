//! `busnet` command-line interface: regenerate the paper's experiments
//! or sweep arbitrary scenario grids across evaluators.
//!
//! ```text
//! busnet list
//! busnet run table1
//! busnet run table3 --quick
//! busnet run all --quick
//! busnet sim --n 8 --m 16 --r 8 [--p 0.5] [--policy proc|mem] [--buffering buffered]
//!            [--buffer-depth K|inf] [--seed 7] [--cycles 200000] [--warmup 20000]
//!            [--arbitration random|round-robin|lru|priority] [--engine cycle|event]
//!            [--hot-spot 0.3@0] [--module-weights 4,2,1,1] [--think-probs 1,1,0.5,0.25]
//!            [--burst 0.9:0.05:0.9:500[:0.5@0]]
//! busnet sweep --n 2..64 --r 2,6,10 --evaluator sim,reduced --format csv
//! busnet sweep --buffer-depth 0,1,2,4,inf --evaluator sim,approx-depth
//! busnet sweep --hot-spot 0,0.1,0.2,0.4 --buffer-depth 0,1,4 --evaluator sim --engine event
//! busnet sweep --n 8..32:8 --evaluator sim --engine event --ci-width 0.02
//! busnet sweep --n 1000000 --m 1000000 --buffer-depth 4 --evaluator fluid
//! busnet sweep --n 8 --m 8,16 --p 0.2,1 --evaluator sim --ci-width 0.02 --screen fluid
//! busnet sweep --n 8 --m 8 --buses 1..8 --evaluator multibus
//! busnet sweep --n 1..64 --evaluator pfqn --cache-dir .busnet-cache
//! busnet serve --unix /tmp/busnet.sock --cache-dir .busnet-cache --threads 4
//! busnet request --unix /tmp/busnet.sock < requests.jsonl
//! ```
//!
//! Performance is measured by the separate benchmark in `perfbench/`
//! (`bash perfbench/run.sh`), not by this binary.

use std::process::ExitCode;
use std::time::Instant;

use std::io::Write;

use busnet::core::cache::EvalCache;
use busnet::core::json;
use busnet::core::scenario::spec::{self, Flags};
use busnet::core::scenario::{
    run_sweep_with, BusSimEval, Evaluation, Evaluator, EvaluatorKind, OnFailure, ScreenPlan,
    SimBudget, Supervisor, SweepOptions, SweepRecord, UnitStatus, ALL_EVALUATOR_KINDS,
};
use busnet::core::serve::{serve_connection, Broker, BrokerConfig};
use busnet::core::sim::bus::{AdaptiveOutcome, UnitBudget};
use busnet::core::CoreError;
use busnet::report::experiments::{Effort, ExperimentId, ALL_EXPERIMENTS};
use busnet::sim::exec::ExecutionMode;
use busnet::sim::fault::{silence_injected_panics, FaultPlan};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("available experiments:");
            for id in ALL_EXPERIMENTS {
                println!("  {}", id.name());
            }
            println!("available evaluators (for `sweep --evaluator`):");
            for kind in ALL_EVALUATOR_KINDS {
                println!("  {}", kind.name());
            }
            ExitCode::SUCCESS
        }
        Some("run") => run_experiments(&args[1..]),
        Some("sim") => report(run_sim(&args[1..])),
        Some("sweep") => report(run_sweep_cmd(&args[1..])),
        Some("serve") => report(run_serve(&args[1..])),
        Some("request") => report(run_request(&args[1..])),
        _ => {
            eprintln!(
                "usage: busnet <list | run <experiment|all> [--quick] | sim ... | sweep ... | \
                 serve ... | request ...>\n\
                 \n\
                 sim   --n N --m M --r R [--p P] [--policy proc|mem]\n      \
                 [--buffering unbuffered|buffered|depthK|infinite] [--buffer-depth K|inf]\n      \
                 [--seed S] [--cycles C] [--warmup W]\n      \
                 [--arbitration KIND] [--engine cycle|event]\n      \
                 [--hot-spot FRAC[@MODULE]] [--module-weights W1,..,Wm]\n      \
                 [--think-probs P1,..,Pn] [--burst ONP:OFFP:STAY:DWELL[:FRAC@MODULE]]\n      \
                 [--ci-width X [--max-reps K]]\n\
                 sweep --n SPEC --m SPEC --r SPEC [--p LIST] [--policy proc|mem|both]\n      \
                 [--buffering unbuffered|buffered|depthK|infinite|both]\n      \
                 [--buffer-depth LIST(K|inf)] [--arbitration LIST|all]\n      \
                 [--hot-spot LIST(FRAC[@MODULE])] [--module-weights W1,..,Wm]\n      \
                 [--think-probs P1,..,Pn] [--burst ONP:OFFP:STAY:DWELL[:FRAC@MODULE]]\n      \
                 [--buses SPEC]\n      \
                 [--evaluator LIST] [--engine cycle|event] [--format csv|json]\n      \
                 [--replications K] [--cycles C] [--warmup W] [--seed S] [--serial]\n      \
                 [--ci-width X [--max-reps K]] [--screen fluid [--screen-tol T]]\n      \
                 [--cache-dir DIR [--resume]] [--max-retries K]\n      \
                 [--unit-budget EVENTS[:MILLIS]] [--on-failure abort|skip|degrade]\n      \
                 [--fault-plan seed=S:rate=R[:sites=a,b][:delay-ms=D] | off]\n\
                 serve --unix PATH | --tcp ADDR [--cache-dir DIR] [--threads K]\n      \
                 [--queue-depth Q] [--max-retries K] [--unit-budget EVENTS[:MILLIS]]\n      \
                 [--on-failure abort|skip|degrade]\n\
                 request --unix PATH | --tcp ADDR  (JSON-line requests on stdin)\n\
                 \n\
                 SPEC is a comma list (2,6,10), an inclusive range (2..64), or a stepped\n\
                 range (2..16:2). KIND is random|round-robin|lru|priority. --engine selects\n\
                 the bus engine only; crossbar-sim always runs cycle-stepped."
            );
            ExitCode::FAILURE
        }
    }
}

fn run_experiments(args: &[String]) -> ExitCode {
    let Some(which) = args.first() else {
        eprintln!("usage: busnet run <experiment|all> [--quick]");
        return ExitCode::FAILURE;
    };
    let effort = if args.iter().any(|a| a == "--quick") { Effort::Quick } else { Effort::Paper };
    let ids: Vec<ExperimentId> = if which == "all" {
        ALL_EXPERIMENTS.to_vec()
    } else {
        match ExperimentId::from_name(which) {
            Some(id) => vec![id],
            None => {
                eprintln!("unknown experiment `{which}`; try `busnet list`");
                return ExitCode::FAILURE;
            }
        }
    };
    for id in ids {
        println!("================ {} ================", id.name());
        match id.run_rendered(effort) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("experiment {} failed: {e}", id.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Prints a subcommand's error, if any, and maps it to a failing exit.
fn report(outcome: Result<ExitCode, String>) -> ExitCode {
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn run_sim(args: &[String]) -> Result<ExitCode, String> {
    let mut flags = Flags::new(args);
    let (axes, budget) = flags.spec();
    flags.finish()?;
    let scenario = spec::point(&axes)?;
    let budget = spec::single_run_budget(&budget)?;

    // The sweep evaluator's domain, scenario → simulator mapping and
    // stopping rule, so bursty runs get the same one-window-per-phase-
    // dwell telemetry and `--ci-width` the same batch plan.
    let sim = BusSimEval::new(budget);
    if !sim.supports(&scenario) {
        return Err(format!("the simulator does not support this scenario ({})", scenario.label()));
    }
    let builder = sim.builder_for(&scenario, budget.master_seed);
    let plan = budget.adaptive_plan(None);
    let AdaptiveOutcome { report, batches, half_width_95, converged } = builder
        .run_budgeted(&UnitBudget::default(), plan.as_ref())
        .expect("an unlimited budget cannot trip");
    let adaptive = plan.map(|_| (batches, half_width_95, converged));
    let metrics = report.metrics();
    let params = &scenario.params;
    println!(
        "n={} m={} r={} p={} {:?} buffering={} arbitration={} workload={} engine={} seed={} \
         warmup={}",
        params.n(),
        params.m(),
        params.r(),
        params.p(),
        scenario.policy,
        scenario.buffering.name(),
        scenario.arbitration.name(),
        scenario.workload.name(),
        budget.engine.name(),
        budget.master_seed,
        budget.warmup
    );
    println!("  EBW                  {:.4}", metrics.ebw);
    println!("  bus utilization      {:.4}", metrics.bus_utilization);
    println!("  memory utilization   {:.4}", metrics.memory_utilization);
    println!("  processor efficiency {:.4}", metrics.processor_efficiency);
    println!("  mean wait (cycles)   {:.4}", report.wait.mean());
    println!("  mean round trip      {:.4}", report.round_trip.mean());
    println!("  fairness (Jain)      {:.4}", report.fairness_index());
    if report.buffer_depth() > 0 {
        println!("  buffer depth k       {}", report.buffer_depth());
        println!("  mean input queue     {:.4}", report.mean_input_queue());
        println!("  mean output queue    {:.4}", report.mean_output_queue());
        println!("  P(input full)        {:.4}", report.input_full_fraction());
        println!("  blocked completions  {}", report.blocked_completions);
    }
    if !scenario.workload.is_uniform() {
        if let Some(hot) = report.hot_module() {
            println!("  hot module           {hot}");
            println!(
                "  hot reference share  {:.4}",
                report.module_reference_shares().get(hot).copied().unwrap_or(0.0)
            );
            println!("  hot module util      {:.4}", report.module_utilization(hot));
            println!("  hot mean input queue {:.4}", report.module_mean_input_queue(hot));
        }
    }
    if let Some(series) = &report.windows {
        let total: u64 = series.phase_cycles.iter().sum::<u64>().max(1);
        println!("  telemetry windows    {} x {} cycles", series.windows.len(), series.width);
        for (phase, &in_phase) in series.phase_cycles.iter().enumerate() {
            println!("  phase {phase} occupancy    {:.4}", in_phase as f64 / total as f64);
        }
    }
    println!("  engine events        {}", report.events);
    if let Some((batches, half_width_95, converged)) = adaptive {
        println!("  measured cycles      {}", report.measured_cycles);
        println!("  CI half-width (95%)  {half_width_95:.6}");
        println!("  batch means          {batches}");
        println!(
            "  adaptive stop        {}",
            if converged { "converged" } else { "budget exhausted" }
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses a `--unit-budget` value: `EVENTS[:MILLIS]`, with `0` meaning
/// "unlimited" on either axis (both zero disables the watchdog).
fn parse_unit_budget(spec: &str) -> Result<Option<UnitBudget>, String> {
    let bad = || format!("bad --unit-budget `{spec}` (expected EVENTS[:MILLIS], 0 = unlimited)");
    let (events_raw, millis_raw) = match spec.split_once(':') {
        None => (spec, "0"),
        Some((e, m)) => (e, m),
    };
    let events: u64 = events_raw.parse().map_err(|_| bad())?;
    let millis: u64 = millis_raw.parse().map_err(|_| bad())?;
    let budget = UnitBudget {
        max_events: (events > 0).then_some(events),
        max_millis: (millis > 0).then_some(millis),
    };
    Ok((!budget.is_unlimited()).then_some(budget))
}

/// Output encoding of sweep rows.
#[derive(Clone, Copy, PartialEq)]
enum SweepFormat {
    Csv,
    Json,
}

/// One sweep cell, rendered per format.
enum Cell {
    /// A string: bare in CSV, quoted and escaped in JSON.
    Text(String),
    /// A number, boolean, or array: bare in both formats.
    Num(String),
    /// A measure this evaluator does not report: empty in CSV, `null`
    /// in JSON.
    Null,
    /// No value in this row: empty in CSV, left out of JSON.
    Absent,
}

fn num(value: impl ToString) -> Cell {
    Cell::Num(value.to_string())
}

fn text(value: impl ToString) -> Cell {
    Cell::Text(value.to_string())
}

fn fixed(value: f64) -> Cell {
    Cell::Num(format!("{value:.6}"))
}

/// A measure every evaluation carries (absent from failure rows).
fn measure(eval: Option<&Evaluation>, f: impl Fn(&Evaluation) -> Cell) -> Cell {
    eval.map_or(Cell::Absent, f)
}

/// A measure only some vehicles report: fairness and occupancy need a
/// per-processor / per-module view, windows an MMPP simulation.
fn optional(eval: Option<&Evaluation>, f: impl Fn(&Evaluation) -> Option<Cell>) -> Cell {
    eval.map_or(Cell::Absent, |e| f(e).unwrap_or(Cell::Null))
}

/// How a record fills one column; the evaluation is `None` for a pair
/// that failed hard.
type Fill = fn(&SweepRecord, Option<&Evaluation>) -> Cell;

/// The sweep row schema in output order: each column's name, whether
/// CSV rows carry it (JSON rows carry every column), and how a record
/// fills it. The CSV header and every CSV, JSON, and failure row render
/// from this one list.
const COLUMNS: [(&str, bool, Fill); 31] = [
    ("n", true, |r, _| num(r.scenario.params.n())),
    ("m", true, |r, _| num(r.scenario.params.m())),
    ("r", true, |r, _| num(r.scenario.params.r())),
    ("p", true, |r, _| num(r.scenario.params.p())),
    ("policy", true, |r, _| text(r.scenario.policy.name())),
    ("buffering", true, |r, _| text(r.scenario.buffering.name())),
    ("buffer_depth", true, |r, _| text(r.scenario.buffering.depth_label())),
    ("arbitration", true, |r, _| text(r.scenario.arbitration.name())),
    ("workload", true, |r, _| text(r.scenario.workload.name())),
    ("evaluator", true, |r, _| text(r.evaluator)),
    ("ebw", true, |_, e| measure(e, |e| fixed(e.metrics.ebw))),
    ("half_width_95", true, |_, e| measure(e, |e| fixed(e.half_width_95))),
    ("bus_utilization", true, |_, e| measure(e, |e| fixed(e.metrics.bus_utilization))),
    ("memory_utilization", true, |_, e| measure(e, |e| fixed(e.metrics.memory_utilization))),
    ("processor_efficiency", true, |_, e| measure(e, |e| fixed(e.metrics.processor_efficiency))),
    ("replications", true, |_, e| measure(e, |e| num(e.replications))),
    ("fairness", true, |_, e| optional(e, |e| e.fairness_index().map(fixed))),
    ("mean_input_queue", true, |_, e| {
        optional(e, |e| e.occupancy.as_ref().map(|o| fixed(o.mean_input_queue)))
    }),
    ("input_full_fraction", true, |_, e| {
        optional(e, |e| e.occupancy.as_ref().map(|o| fixed(o.input_full_fraction)))
    }),
    ("blocked_completions", true, |_, e| {
        optional(e, |e| e.occupancy.as_ref().map(|o| num(o.blocked_completions)))
    }),
    ("hot_ref_share", true, |_, e| {
        optional(e, |e| e.hot_module.as_ref().map(|h| fixed(h.reference_share)))
    }),
    ("hot_module_utilization", true, |_, e| {
        optional(e, |e| e.hot_module.as_ref().map(|h| fixed(h.utilization)))
    }),
    ("hot_mean_input_queue", true, |_, e| {
        optional(e, |e| e.hot_module.as_ref().map(|h| fixed(h.mean_input_queue)))
    }),
    ("buses", true, |r, _| num(r.scenario.buses)),
    ("screened", true, |r, _| num(r.screened)),
    ("windows", true, |_, e| optional(e, |e| e.windows.as_ref().map(|w| num(w.windows.len())))),
    // The per-window EBW trajectory of an MMPP run only fits in JSON.
    ("window_ebw", false, |r, e| {
        let rc = r.scenario.params.r() + 2;
        optional(e, |e| {
            e.windows.as_ref().map(|w| {
                let points: Vec<String> =
                    w.windows.iter().map(|x| format!("{:.6}", x.ebw(rc))).collect();
                Cell::Num(format!("[{}]", points.join(",")))
            })
        })
    }),
    ("status", true, |r, e| text(if e.is_some() { r.status.name() } else { "failed" })),
    ("attempts", true, |r, _| num(r.attempts)),
    ("degraded", true, |r, e| num(e.is_some() && r.status == UnitStatus::Degraded)),
    ("error", false, |r, _| r.result.as_ref().err().map_or(Cell::Absent, text)),
];

/// Writes one sweep row into `out` (a buffered writer: rows hit the
/// kernel in large blocks instead of one `write(2)` per record, which
/// measurably dominated large-grid sweeps when stdout was a pipe).
/// Hard failures still stream a structured row (scenario identity, no
/// metrics, a `failed` status) so downstream accounting sees every grid
/// point exactly once. Skip/failure diagnostics go straight to stderr.
fn emit_record(record: &SweepRecord, format: SweepFormat, out: &mut impl Write) {
    let s = &record.scenario;
    if let Err(CoreError::UnsupportedScenario { .. }) = &record.result {
        eprintln!(
            "# skipped [{} @ {}]: outside the evaluator's domain",
            record.evaluator,
            s.label()
        );
        return;
    }
    let eval = record.result.as_ref().ok();
    let mut line = String::with_capacity(512);
    let mut separator = "";
    for (name, csv, fill) in &COLUMNS {
        if format == SweepFormat::Csv && !csv {
            continue;
        }
        let cell = match (format, fill(record, eval)) {
            (SweepFormat::Csv, Cell::Text(v) | Cell::Num(v)) => v,
            (SweepFormat::Csv, Cell::Null | Cell::Absent) => String::new(),
            (SweepFormat::Json, Cell::Text(v)) => format!("\"{name}\":\"{}\"", json::escape(&v)),
            (SweepFormat::Json, Cell::Num(v)) => format!("\"{name}\":{v}"),
            (SweepFormat::Json, Cell::Null) => format!("\"{name}\":null"),
            (SweepFormat::Json, Cell::Absent) => continue,
        };
        line.push_str(separator);
        line.push_str(&cell);
        separator = ",";
    }
    match format {
        SweepFormat::Csv => writeln!(out, "{line}"),
        SweepFormat::Json => writeln!(out, "{{{line}}}"),
    }
    .expect("stdout closed mid-sweep");
    if let Err(e) = &record.result {
        eprintln!("# FAILED [{} @ {}]: {e}", record.evaluator, s.label());
    }
}

/// Classifies a sweep record for the exit summary.
fn record_outcome(record: &SweepRecord) -> (bool, bool) {
    match &record.result {
        Ok(_) => (true, false),
        Err(CoreError::UnsupportedScenario { .. }) => (false, false),
        Err(_) => (false, true),
    }
}

fn run_sweep_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut flags = Flags::new(args);
    let (axes, budget) = flags.spec();
    let evaluator_spec = flags.value("--evaluator").unwrap_or("sim");
    let format_spec = flags.value("--format").unwrap_or("csv");
    let serial = flags.switch("--serial");
    let screen_spec = flags.value("--screen");
    let screen_tol: f64 = flags.parse("--screen-tol", 0.05);
    let cache_dir_spec = flags.value("--cache-dir");
    let max_retries: u32 = flags.parse("--max-retries", 2);
    let unit_budget_spec = flags.value("--unit-budget");
    let on_failure_spec = flags.value("--on-failure").unwrap_or("skip");
    let resume = flags.switch("--resume");
    let fault_plan_spec = flags.value("--fault-plan");
    flags.finish()?;

    let scenarios =
        spec::grid(&axes)?.scenarios().map_err(|e| format!("invalid sweep point: {e}"))?;
    let budget = spec::budget(SimBudget::sweep(), &budget)?;
    let format = match format_spec {
        "csv" => SweepFormat::Csv,
        "json" => SweepFormat::Json,
        other => return Err(format!("bad --format `{other}` (expected csv|json)")),
    };
    let kinds: Vec<EvaluatorKind> = evaluator_spec
        .split(',')
        .map(|name| {
            EvaluatorKind::from_name(name)
                .ok_or_else(|| format!("unknown evaluator `{name}`; try `busnet list`"))
        })
        .collect::<Result<_, _>>()?;
    let screen: Option<ScreenPlan> = match screen_spec {
        None => None,
        Some("fluid") => {
            if !(screen_tol.is_finite() && screen_tol > 0.0) {
                return Err(format!("bad --screen-tol `{screen_tol}` (expected > 0)"));
            }
            Some(ScreenPlan { tolerance: screen_tol })
        }
        Some(other) => return Err(format!("bad --screen `{other}` (expected fluid)")),
    };
    let on_failure = parse_on_failure(on_failure_spec)?;
    let unit_budget = unit_budget_spec.map(parse_unit_budget).transpose()?.flatten();
    // Deterministic fault injection: an explicit `--fault-plan` wins,
    // else the `BUSNET_FAULT_PLAN` environment variable arms the same
    // sites (so CI chaos jobs can wrap unmodified invocations).
    let faults = match fault_plan_spec {
        Some(spec) => {
            FaultPlan::parse(spec).map_err(|e| format!("bad --fault-plan `{spec}`: {e}"))?
        }
        None => FaultPlan::from_env(),
    };
    if faults.is_some() {
        // Injected panics are expected control flow under a fault plan;
        // keep the default hook's backtrace noise for real panics only.
        silence_injected_panics();
    }
    if resume && cache_dir_spec.is_none() {
        return Err("--resume needs --cache-dir (the journal is the checkpoint)".to_owned());
    }
    // The evaluation memo cache: in-memory dedup is always on inside
    // `run_sweep_with`; `--cache-dir` additionally persists results to
    // a JSON-lines journal so a re-run of the same grid replays from
    // disk without touching an evaluator. `--resume` is the same
    // machinery made explicit: completed points replay byte-identically
    // from the journal and the sweep continues from the first missing
    // unit (a torn trailing line from a killed run is recovered on
    // load).
    let cache = match cache_dir_spec {
        None => None,
        Some(dir) => Some(
            EvalCache::with_dir_faulted(std::path::Path::new(dir), faults.clone())
                .map_err(|e| format!("cannot open --cache-dir `{dir}`: {e}"))?,
        ),
    };
    if resume {
        let loaded = cache.as_ref().map_or(0, |c| c.stats().loaded);
        eprintln!("# resume: {loaded} completed point(s) loaded from the journal");
    }

    // The sweep scheduler fans out (scenario × evaluator × replication)
    // work units over the work-stealing pool; `--serial` collapses it
    // for timing comparisons.
    let sweep_mode = if serial { ExecutionMode::Serial } else { ExecutionMode::Parallel };
    let evaluators: Vec<Box<dyn Evaluator>> = kinds.iter().map(|k| k.build(budget)).collect();
    let refs: Vec<&dyn Evaluator> = evaluators.iter().map(AsRef::as_ref).collect();

    // Rows accumulate in a buffered writer: one kernel write per
    // block, not per record (the per-row `println!` flushes measurably
    // dominated large grids when stdout was a pipe).
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::with_capacity(64 * 1024, stdout.lock());
    if format == SweepFormat::Csv {
        let header: Vec<&str> = COLUMNS.iter().filter(|c| c.1).map(|c| c.0).collect();
        writeln!(out, "{}", header.join(",")).expect("stdout closed");
    }
    // Live progress only when stderr is a terminal; piped stderr gets
    // just the skip reports and the final summary. Throttled to every
    // 16th record (and the last) so the progress path does no per-point
    // formatting work on large grids.
    let live_progress = std::io::IsTerminal::is_terminal(&std::io::stderr());
    let start = Instant::now();
    // The CLI always runs supervised: every work unit is isolated
    // behind `catch_unwind` with the retry/fallback policy, so a
    // single pathological point cannot take down the whole sweep.
    let supervisor = Supervisor { max_retries, on_failure, unit_budget, ..Supervisor::default() };
    let options = SweepOptions {
        screen: screen.as_ref(),
        cache: cache.as_ref(),
        supervise: Some(&supervisor),
        faults: faults.as_ref(),
        ..SweepOptions::new(sweep_mode)
    };
    let records = run_sweep_with(&scenarios, &refs, &options, |done, total, record| {
        emit_record(record, format, &mut out);
        if live_progress && (done % 16 == 0 || done == total) {
            eprint!("\r# {done}/{total} points");
        }
    });
    out.flush().expect("stdout closed");
    drop(out);
    let evaluated = records.iter().filter(|r| record_outcome(r).0).count();
    let failed = records.iter().filter(|r| record_outcome(r).1).count();
    let screened = records.iter().filter(|r| r.screened).count();
    let degraded = records.iter().filter(|r| r.status == UnitStatus::Degraded).count();
    eprintln!(
        "{}# swept {} points x {} evaluators: {evaluated} evaluated ({screened} screened, \
         {degraded} degraded), {} out of domain, {failed} failed, {:.2}s",
        if live_progress { "\r" } else { "" },
        scenarios.len(),
        refs.len(),
        records.len() - evaluated - failed,
        start.elapsed().as_secs_f64()
    );
    if let Some(plan) = &faults {
        let stats = plan.stats();
        eprintln!(
            "# faults [{}]: {} injected ({} unit panic(s), {} unit delay(s), {} journal append \
             error(s), {} journal load error(s))",
            plan.spec(),
            stats.total(),
            stats.panics,
            stats.delays,
            stats.append_errors,
            stats.load_errors
        );
    }
    if let Some(cache) = &cache {
        let stats = cache.stats();
        let replayed = records.iter().filter(|r| r.cached).count();
        eprintln!(
            "# cache: {replayed} record(s) replayed; {} hit(s), {} miss(es), {} loaded from \
             disk, {} appended",
            stats.hits, stats.misses, stats.loaded, stats.appended
        );
        if stats.skipped > 0 {
            eprintln!("# cache: {} malformed/foreign journal line(s) skipped", stats.skipped);
        }
    }
    if failed > 0 {
        return Err(format!("# {failed} evaluation(s) failed hard"));
    }
    if evaluated == 0 {
        return Err("# no scenario/evaluator pair was in domain; nothing evaluated".to_owned());
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses an `--on-failure` value.
fn parse_on_failure(spec: &str) -> Result<OnFailure, String> {
    OnFailure::from_name(spec)
        .ok_or_else(|| format!("bad --on-failure `{spec}` (expected abort|skip|degrade)"))
}

/// The process-wide shutdown latch: flipped by SIGTERM/SIGINT, polled
/// by the serve accept loop so a signal turns into a graceful drain.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_sig: i32) {
    SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs `on_shutdown_signal` for SIGTERM and SIGINT. This is the
/// binary's single unsafe dependency on the C runtime; the handler
/// only stores to an atomic (async-signal-safe).
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
        signal(SIGINT, on_shutdown_signal as *const () as usize);
    }
}

/// Accepts connections until the shutdown latch flips, serving each on
/// its own reader thread. `accept` is nonblocking and yields a stream's
/// read and write halves, so the loop polls the latch between accepts.
fn accept_until_shutdown<S>(
    mut accept: impl FnMut() -> std::io::Result<(S, S)>,
    broker: &std::sync::Arc<Broker>,
) where
    S: std::io::Read + Write + Send + 'static,
{
    let poll = std::time::Duration::from_millis(25);
    while !SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst) {
        match accept() {
            Ok((reader, writer)) => {
                let broker = std::sync::Arc::clone(broker);
                std::thread::spawn(move || {
                    serve_connection(reader, Box::new(writer), &broker);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(poll);
            }
            Err(e) => {
                eprintln!("# accept failed: {e}");
                std::thread::sleep(poll);
            }
        }
    }
}

/// Where a serve session listens (or a request client connects).
enum Endpoint {
    Unix(String),
    Tcp(String),
}

fn parse_endpoint(unix: Option<&str>, tcp: Option<&str>) -> Result<Endpoint, String> {
    match (unix, tcp) {
        (Some(path), None) => Ok(Endpoint::Unix(path.to_owned())),
        (None, Some(addr)) => Ok(Endpoint::Tcp(addr.to_owned())),
        (Some(_), Some(_)) => Err("--unix and --tcp are mutually exclusive".to_owned()),
        (None, None) => Err("one of --unix PATH or --tcp ADDR is required".to_owned()),
    }
}

/// `busnet serve`: the always-on batch evaluation service. Accepts
/// JSON-line requests over a Unix or TCP socket, funnels every client
/// through one shared [`Broker`] (dedup against the memo cache,
/// coalescing of identical in-flight points, per-configuration
/// batching on a bounded pool, supervised execution), and drains
/// gracefully on SIGTERM: in-flight batches finish and every owed
/// reply is written before exit.
fn run_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut flags = Flags::new(args);
    let unix_spec = flags.value("--unix");
    let tcp_spec = flags.value("--tcp");
    let cache_dir_spec = flags.value("--cache-dir");
    let threads: usize = flags.parse("--threads", 2);
    let queue_depth: usize = flags.parse("--queue-depth", 256);
    let max_retries: u32 = flags.parse("--max-retries", 2);
    let unit_budget_spec = flags.value("--unit-budget");
    let on_failure_spec = flags.value("--on-failure").unwrap_or("skip");
    flags.finish()?;
    let endpoint = parse_endpoint(unix_spec, tcp_spec)?;
    let on_failure = parse_on_failure(on_failure_spec)?;
    let unit_budget = unit_budget_spec.map(parse_unit_budget).transpose()?.flatten();
    let cache = match cache_dir_spec {
        Some(dir) => EvalCache::with_dir(std::path::Path::new(dir))
            .map_err(|e| format!("cannot open cache dir `{dir}`: {e}"))?,
        None => EvalCache::new(),
    };
    let supervisor = Supervisor { max_retries, on_failure, unit_budget, ..Supervisor::default() };
    let broker = std::sync::Arc::new(Broker::new(
        std::sync::Arc::new(cache),
        BrokerConfig { threads, queue_depth, supervisor },
    ));
    install_shutdown_handler();

    match endpoint {
        Endpoint::Unix(path) => {
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path)
                .map_err(|e| format!("cannot bind unix socket `{path}`: {e}"))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| format!("cannot set the listener nonblocking: {e}"))?;
            println!("# serving on unix:{path}");
            let _ = std::io::stdout().flush();
            accept_until_shutdown(
                || {
                    let (stream, _) = listener.accept()?;
                    Ok((stream.try_clone()?, stream))
                },
                &broker,
            );
            drop(listener);
            let _ = std::fs::remove_file(&path);
        }
        Endpoint::Tcp(addr) => {
            let listener = std::net::TcpListener::bind(&addr)
                .map_err(|e| format!("cannot bind tcp address `{addr}`: {e}"))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| format!("cannot set the listener nonblocking: {e}"))?;
            println!("# serving on tcp:{addr}");
            let _ = std::io::stdout().flush();
            accept_until_shutdown(
                || {
                    let (stream, _) = listener.accept()?;
                    Ok((stream.try_clone()?, stream))
                },
                &broker,
            );
        }
    }
    // Graceful drain: flush pending points through their batches and
    // write every owed reply before exiting. Connections still blocked
    // in read die with the process.
    eprintln!("# shutdown: draining in-flight batches");
    broker.drain();
    let c = broker.counters();
    eprintln!(
        "# served {} request(s): {} evaluated, {} coalesced, {} cache replies, {} shed",
        c.requests, c.evaluated, c.coalesced, c.cache_replies, c.overloaded
    );
    Ok(ExitCode::SUCCESS)
}

/// `busnet request`: a line-oriented client for `busnet serve`. Sends
/// every nonempty stdin line as a request, half-closes the write side,
/// and copies reply lines to stdout until the server has answered them
/// all (the connection closes once the last owed reply is written).
fn run_request(args: &[String]) -> Result<ExitCode, String> {
    let mut flags = Flags::new(args);
    let unix_spec = flags.value("--unix");
    let tcp_spec = flags.value("--tcp");
    flags.finish()?;
    let endpoint = parse_endpoint(unix_spec, tcp_spec)?;
    /// Sends stdin over `stream`, half-closes it, and copies replies.
    fn roundtrip<S>(stream: &S, half_close: impl FnOnce()) -> std::io::Result<()>
    where
        for<'s> &'s S: Write + std::io::Read,
    {
        let mut write_half = stream;
        use std::io::BufRead;
        let stdin = std::io::stdin();
        let mut batch = String::new();
        for line in stdin.lock().lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            batch.push_str(&line);
            batch.push('\n');
        }
        write_half.write_all(batch.as_bytes())?;
        write_half.flush()?;
        half_close();
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for reply in std::io::BufReader::new(stream).lines() {
            let reply = reply?;
            out.write_all(reply.as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()
    }
    let write = std::net::Shutdown::Write;
    let result = match endpoint {
        Endpoint::Unix(path) => {
            let stream = std::os::unix::net::UnixStream::connect(&path)
                .map_err(|e| format!("cannot connect to unix socket `{path}`: {e}"))?;
            roundtrip(&stream, || drop(stream.shutdown(write)))
        }
        Endpoint::Tcp(addr) => {
            let stream = std::net::TcpStream::connect(&addr)
                .map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
            roundtrip(&stream, || drop(stream.shutdown(write)))
        }
    };
    result.map_err(|e| format!("request round trip failed: {e}"))?;
    Ok(ExitCode::SUCCESS)
}
