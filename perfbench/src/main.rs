//! `perfbench`: the busnet benchmark.
//!
//! ```text
//! perfbench --workload paper_reports|design_sweep|serve_mix|all --seed N
//!           --seconds S --trace 0|1 [--busnet PATH]
//! ```
//!
//! Each workload measures for about `--seconds` host seconds, checks its
//! outputs, prints every metric by name with its unit, and ends with one
//! JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`. The exit code is non-zero
//! when any correctness check fails. `perfbench/run.sh` builds the
//! release binaries and runs this program; see `perfbench/README.md`.

mod design_sweep;
mod meter;
mod paper_reports;
mod rng;
mod serve_mix;
mod trace;
mod wrap;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics: every workload reports each one.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that does not reach
/// a layer reports 0 for its counts and times.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("engine.cycle.calls", "count"),
    ("engine.cycle.s", "s"),
    ("engine.cycle.mcycles_per_s", "Mcycles/s"),
    ("engine.event.calls", "count"),
    ("engine.event.s", "s"),
    ("engine.event.events", "count"),
    ("engine.event.ns_per_event", "ns"),
    ("markov.solves", "count"),
    ("markov.s", "s"),
    ("markov.solve_p50_ms", "ms"),
    ("markov.solve_max_ms", "ms"),
    ("analytic.solver_iterations", "count"),
    ("analytic.pfqn.us_p50", "us"),
    ("analytic.fluid.us_p50", "us"),
    ("analytic.fluid.us_p99", "us"),
    ("analytic.s", "s"),
    ("scenario.pairs", "count"),
    ("scenario.evaluator_calls", "count"),
    ("scenario.dedup_ratio", "ratio"),
    ("scenario.grouped_pairs", "count"),
    ("scenario.overhead_s", "s"),
    ("scenario.warm_pairs_per_s", "1/s"),
    ("exec.cpu_util", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.appended", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.stats_us", "us"),
    ("serve.parse_us_p50", "us"),
    ("serve.parse_us_p99", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.fresh_ms_p99", "ms"),
    ("serve.cached_ms_p99", "ms"),
    ("serve.coalesced", "count"),
    ("serve.cache_replies", "count"),
    ("serve.overloaded", "count"),
    ("serve.calls_saved", "ratio"),
    ("report.compute_s", "s"),
    ("report.render_s", "s"),
    ("report.ebw_max_abs_err", "EBW"),
    ("gen.late_ms_p99", "ms"),
    ("self.report_s", "s"),
    ("self.scenario_s", "s"),
    ("self.engine_s", "s"),
    ("self.markov_s", "s"),
    ("self.analytic_s", "s"),
    ("self.serve_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.untraced_s", "s"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (report passes, sweep pairs, requests).
    pub attempted: u64,
    /// Operations that failed, errored, were refused or gave a wrong
    /// result.
    pub failed: u64,
    /// Measured metrics by name (end-to-end and per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines: the workload's own figures and the reasons
    /// for any failed check.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check (without stopping the run).
    pub fn violation(&mut self, line: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {line}"));
    }
}

/// Settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub busnet: Option<PathBuf>,
    /// Scratch directory inside the working directory.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Where the traced run writes its spans.
    pub fn spans_path(&self, workload: &str) -> PathBuf {
        PathBuf::from(".perfbench").join(format!("spans-{workload}-seed{}.jsonl", self.seed))
    }
}

/// Layer self times per traced pass (`passes` of them) and the span
/// count, from a finished tracer.
pub fn record_self_times(out: &mut Outcome, tracer: &trace::Tracer, passes: f64) {
    let spans = tracer.spans();
    for (layer, secs) in trace::self_time_by_layer(&spans) {
        let key = match layer.split('.').next().unwrap_or(layer) {
            "report" => "self.report_s",
            "scenario" => "self.scenario_s",
            "engine" => "self.engine_s",
            "markov" => "self.markov_s",
            "analytic" => "self.analytic_s",
            _ => "self.serve_s",
        };
        *out.metrics.entry(key).or_insert(0.0) += secs / passes.max(1.0);
    }
    out.set("trace.spans", spans.len() as f64);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    busnet: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, busnet: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds `{value}`"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
                }
            }
            "--busnet" => args.busnet = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

/// The commit of the checkout, read from `.git` without leaving it.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown (not a git checkout)".to_owned() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_owned() };
    if let Some(commit) = read(reference) {
        return commit.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find(|l| l.ends_with(reference)).map(|l| l[..40.min(l.len())].to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Median seconds of `repeats` runs of `build`, which makes a
/// workload's inputs from scratch: its set-up before the first
/// evaluation.
pub fn setup_time<T>(
    repeats: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut samples = Vec::with_capacity(repeats);
    let mut built = None;
    for _ in 0..repeats.max(1) {
        let t = std::time::Instant::now();
        let value = std::hint::black_box(build()?);
        samples.push(meter::secs(t));
        built = Some(value);
    }
    Ok((meter::median(&samples), built.expect("at least one repeat")))
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "paper_reports" => paper_reports::run(ctx),
        "design_sweep" => design_sweep::run(ctx),
        "serve_mix" => serve_mix::run(ctx),
        other => Err(format!(
            "unknown workload `{other}` (expected paper_reports|design_sweep|serve_mix|all)"
        )),
    }
}

fn json_metrics(out: &Outcome, names: &[(&str, &str)]) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    fields.join(",")
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(busnet) = &args.busnet {
        if !busnet.components().any(|c| c.as_os_str() == "release") {
            eprintln!(
                "perfbench: refusing to time a non-release busnet binary {}",
                busnet.display()
            );
            return ExitCode::from(2);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# provenance: nproc={nproc} commit={} rustc=\"{}\"", git_commit(), rustc_version());
    println!(
        "# provenance: seed={} seconds={} trace={} profile=release effort=quick os={} arch={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => vec!["paper_reports", "design_sweep", "serve_mix"],
        one => vec![one],
    };
    let mut all_correct = true;
    for name in workloads {
        let work_dir = PathBuf::from(".perfbench").join(format!(
            "{name}-{}-{}",
            args.seed,
            std::process::id()
        ));
        if let Err(e) = std::fs::create_dir_all(&work_dir) {
            eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
            return ExitCode::from(2);
        }
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            busnet: args.busnet.clone(),
            work_dir: work_dir.clone(),
        };
        let result = run_workload(name, &ctx);
        let _ = std::fs::remove_dir_all(&work_dir);
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(2);
            }
        };
        println!("# workload {name}");
        for line in &out.notes {
            println!("#   {line}");
        }
        let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        for (metric, unit) in names {
            let value = out.metrics.get(metric).copied().unwrap_or(0.0);
            println!("{name} {metric} = {value:.6} {unit}");
        }
        println!(
            "{name} failed_frac = {:.6} ({} failed of {} attempted)",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        );
        all_correct &= out.correct;
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            out.correct,
            out.attempted.max(1),
            out.failed,
            json_metrics(&out, names)
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a correctness check failed (see CHECK FAILED lines)");
        ExitCode::FAILURE
    }
}
