//! `design_sweep`: a wide analytic design-space sweep through
//! `run_sweep_with`, run cold against a fresh journal-backed
//! `EvalCache` and then replayed warm against the same cache.
//!
//! One pass sweeps five slices of the grid, one `run_sweep_with` call
//! per slice, so every pair is inside its evaluator's domain and the
//! warm replay can make zero evaluator calls:
//!
//! * `pfqn` and `pfqn-buzen` over n = 1..=128, m ∈ {4, 8, 16, 32},
//!   r ∈ {2, 8, 16}, p ∈ {0.2, 0.5, 1}, buffer depths {1, 4, ∞};
//! * `fluid` over the same grid at n ∈ {1..=8, 16, 32, 64, 128};
//! * `approx-depth` at n ≤ 8, m ∈ {4, 8}, where each reduced-chain
//!   anchor solves in milliseconds;
//! * `crossbar` at n ≤ 16, m ∈ {4, 8}, p = 1;
//! * `multibus` at n ≤ 16, m ∈ {4, 8}, p = 1, unbuffered, buses {1, 2, 4}.
//!
//! `--seed` draws the repeated pairs (a quarter of each slice, appended
//! in shuffled order), which intra-sweep dedup absorbs when cold and the
//! cache answers when warm. Sweeps use 2 threads, incremental grouping
//! and the default `Supervisor`.

use std::path::Path;
use std::time::Instant;

use busnet_core::cache::EvalCache;
use busnet_core::params::Buffering;
use busnet_core::scenario::{
    evaluator_calls, run_sweep_with, CrossbarExactEval, DepthApproxEval, Evaluator, FluidEval,
    MultibusEval, PfqnAlgorithm, PfqnEval, Scenario, ScenarioGrid, Supervisor, SweepOptions,
    SweepRecord, UnitStatus,
};
use busnet_core::serve::row_json;
use busnet_sim::exec::ExecutionMode;

use crate::meter::{cpu_now, median, peak_rss_mb, secs, tail};
use crate::rng::Rng;
use crate::trace::{self_time_where, Tracer};
use crate::wrap::Traced;
use crate::{record_self_times, Ctx, Outcome};

const R_VALUES: [u32; 3] = [2, 8, 16];
const P_VALUES: [f64; 3] = [0.2, 0.5, 1.0];
const DEPTHS: [Buffering; 3] = [Buffering::Buffered, Buffering::Depth(4), Buffering::Infinite];
const THREADS: usize = 2;

/// One `run_sweep_with` call of a pass: scenarios and evaluators, each
/// evaluator with the layer its spans belong to.
struct Slice {
    scenarios: Vec<Scenario>,
    evaluators: Vec<(Box<dyn Evaluator>, &'static str)>,
}

fn grid(n: Vec<u32>, m: &[u32], p: &[f64], depths: &[Buffering]) -> Result<Vec<Scenario>, String> {
    ScenarioGrid::new()
        .n_values(n)
        .m_values(m.to_vec())
        .r_values(R_VALUES)
        .p_values(p.to_vec())
        .bufferings(depths.to_vec())
        .scenarios()
        .map_err(|e| e.to_string())
}

/// Appends a quarter of `scenarios` again, drawn with replacement.
fn with_repeats(mut scenarios: Vec<Scenario>, rng: &mut Rng) -> Vec<Scenario> {
    let base = scenarios.len();
    for _ in 0..base / 4 {
        let pick = scenarios[rng.below(base)].clone();
        scenarios.push(pick);
    }
    scenarios
}

fn build_slices(seed: u64) -> Result<Vec<Slice>, String> {
    let mut rng = Rng::new(seed);
    let small: Vec<u32> = (1..=16).collect();
    let fluid_n: Vec<u32> = (1..=8).chain([16, 32, 64, 128]).collect();
    let multibus = ScenarioGrid::new()
        .n_values(small.clone())
        .m_values([4, 8])
        .r_values(R_VALUES)
        .bufferings([Buffering::Unbuffered])
        .buses_values([1, 2, 4])
        .scenarios()
        .map_err(|e| e.to_string())?;
    let slices = vec![
        Slice {
            scenarios: grid((1..=128).collect(), &[4, 8, 16, 32], &P_VALUES, &DEPTHS)?,
            evaluators: vec![
                (Box::new(PfqnEval { algorithm: PfqnAlgorithm::Mva }), "analytic.pfqn"),
                (Box::new(PfqnEval { algorithm: PfqnAlgorithm::Buzen }), "analytic.buzen"),
            ],
        },
        Slice {
            scenarios: grid(fluid_n, &[4, 8, 16, 32], &P_VALUES, &DEPTHS)?,
            evaluators: vec![(Box::new(FluidEval::default()), "analytic.fluid")],
        },
        Slice {
            scenarios: grid((1..=8).collect(), &[4, 8], &P_VALUES, &DEPTHS)?,
            evaluators: vec![(Box::new(DepthApproxEval), "markov")],
        },
        Slice {
            scenarios: grid(small, &[4, 8], &[1.0], &DEPTHS)?,
            evaluators: vec![(Box::new(CrossbarExactEval), "analytic.crossbar")],
        },
        Slice {
            scenarios: multibus,
            evaluators: vec![(Box::new(MultibusEval), "analytic.multibus")],
        },
    ];
    Ok(slices
        .into_iter()
        .map(|s| Slice { scenarios: with_repeats(s.scenarios, &mut rng), ..s })
        .collect())
}

/// One row per record: the serve row for results, the error otherwise.
fn rows(records: &[SweepRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| match &r.result {
            Ok(e) => format!("{} {}", r.status.name(), row_json(e)),
            Err(e) => format!("{} error {e}", r.status.name()),
        })
        .collect()
}

/// Runs every slice once against `cache`, timing the whole sweep.
fn sweep_pass(
    slices: &[Slice],
    cache: &EvalCache,
    tracer: Option<&Tracer>,
    name: &'static str,
    grouped: &mut u64,
) -> (f64, Vec<SweepRecord>) {
    let supervisor = Supervisor::default();
    let options = SweepOptions {
        cache: Some(cache),
        supervise: Some(&supervisor),
        group_incremental: true,
        ..SweepOptions::new(ExecutionMode::Threads(THREADS))
    };
    let mut records = Vec::new();
    let t = Instant::now();
    for slice in slices {
        match tracer {
            None => {
                let refs: Vec<&dyn Evaluator> =
                    slice.evaluators.iter().map(|(e, _)| e.as_ref()).collect();
                records.extend(run_sweep_with(&slice.scenarios, &refs, &options, |_, _, _| {}));
            }
            Some(tr) => {
                let id = tr.reserve();
                let wrapped: Vec<Traced> = slice
                    .evaluators
                    .iter()
                    .map(|(e, layer)| Traced::new(e.as_ref(), tr, layer))
                    .collect();
                for w in &wrapped {
                    w.set_parent(id);
                }
                let refs: Vec<&dyn Evaluator> =
                    wrapped.iter().map(|w| w as &dyn Evaluator).collect();
                let start = tr.now();
                records.extend(run_sweep_with(&slice.scenarios, &refs, &options, |_, _, _| {}));
                tr.record(id, 0, 0, "scenario", name, start, tr.now(), 0);
                *grouped += wrapped.iter().map(Traced::grouped).sum::<u64>();
            }
        }
    }
    (secs(t), records)
}

/// Per-pass measurements.
#[derive(Default)]
struct Passes {
    cold_s: Vec<f64>,
    warm_s: Vec<f64>,
    cpu_s: Vec<f64>,
    pairs: usize,
    cold_calls: u64,
    hits: u64,
    misses: u64,
    appended: u64,
    stats_us: Vec<f64>,
    grouped: u64,
    traced: Vec<bool>,
}

impl Passes {
    /// Cold-pass seconds of the passes traced (`true`) or not.
    fn cold(&self, traced: bool) -> Vec<f64> {
        self.cold_s
            .iter()
            .zip(&self.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(c, _)| *c)
            .collect()
    }
}

/// Cold + warm passes until `seconds` have elapsed (at least three, and
/// four when tracing). With a tracer, every other pass is traced.
fn measure(
    slices: &[Slice],
    work_dir: &Path,
    seconds: f64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Result<Passes, String> {
    let mut p = Passes::default();
    let start = Instant::now();
    let mut pass = 0;
    let min_passes = if tracer.is_some() { 4 } else { 3 };
    while p.cold_s.len() < min_passes || secs(start) < seconds {
        let dir = work_dir.join(format!("cache-{pass}"));
        let tracer = tracer.filter(|_| pass % 2 == 1);
        p.traced.push(tracer.is_some());
        pass += 1;
        let cache = EvalCache::with_dir(&dir).map_err(|e| format!("cache dir: {e}"))?;
        let cpu0 = cpu_now();
        let calls0 = evaluator_calls();
        let (cold_s, cold) = sweep_pass(slices, &cache, tracer, "cold", &mut p.grouped);
        let calls1 = evaluator_calls();
        let (warm_s, warm) = sweep_pass(slices, &cache, tracer, "warm", &mut p.grouped);
        let warm_calls = evaluator_calls() - calls1;
        p.cpu_s.push(cpu_now() - cpu0);
        let t = Instant::now();
        let stats = cache.stats();
        p.stats_us.push(secs(t) * 1e6);
        p.cold_s.push(cold_s);
        p.warm_s.push(warm_s);
        p.pairs = cold.len();
        p.cold_calls = calls1 - calls0;
        (p.hits, p.misses, p.appended) = (stats.hits, stats.misses, stats.appended);

        out.attempted += cold.len() as u64;
        let bad = cold.iter().filter(|r| r.status != UnitStatus::Ok || r.result.is_err()).count();
        if bad > 0 {
            out.failed += bad as u64;
            out.violation(format!("{bad} cold pairs failed or were out of domain"));
        }
        if warm_calls != 0 {
            out.violation(format!("warm replay made {warm_calls} evaluator calls (expected 0)"));
        }
        let (cold_rows, warm_rows) = (rows(&cold), rows(&warm));
        let differing = cold_rows.iter().zip(&warm_rows).filter(|(a, b)| a != b).count();
        if differing > 0 || cold_rows.len() != warm_rows.len() {
            out.failed += differing as u64;
            out.violation(format!("{differing} warm rows differ from the cold rows"));
        }
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(p)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let mut repeat = 0;
    let (setup_s, slices) = crate::setup_time(15, || {
        // The grids, the evaluators and the first journal-backed cache.
        let dir = ctx.work_dir.join(format!("setup-{repeat}"));
        repeat += 1;
        let slices = build_slices(ctx.seed)?;
        let cache = EvalCache::with_dir(&dir).map_err(|e| format!("cache dir: {e}"))?;
        drop(cache);
        Ok(slices)
    })?;
    out.set("setup_s", setup_s);

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let tracer = ctx.trace.then(Tracer::new);
    let p = measure(&slices, &ctx.work_dir, ctx.seconds, tracer.as_ref(), &mut out)?;
    let pairs = p.pairs as f64;
    let cold = p.cold(false);
    let cold_pairs_per_s: Vec<f64> = cold.iter().map(|s| pairs / s).collect();
    let warm_pairs_per_s: Vec<f64> = p.warm_s.iter().map(|s| pairs / s).collect();
    let cpu: f64 = p.cpu_s.iter().sum();
    out.set("latency_p50_ms", median(&cold) * 1e3);
    out.set("latency_p99_ms", tail(&cold) * 1e3);
    out.set("throughput_per_s", pairs * cold.len() as f64 / cold.iter().sum::<f64>());
    out.set("cpu_s", cpu / p.cpu_s.len() as f64);
    out.set("scenario.warm_pairs_per_s", median(&warm_pairs_per_s));
    out.set("scenario.pairs", pairs);
    out.set("scenario.evaluator_calls", p.cold_calls as f64);
    out.set("scenario.dedup_ratio", pairs / p.cold_calls.max(1) as f64);
    out.set("cache.hits", p.hits as f64);
    out.set("cache.misses", p.misses as f64);
    out.set("cache.appended", p.appended as f64);
    out.set("cache.hit_ratio", p.hits as f64 / (p.hits + p.misses).max(1) as f64);
    out.set("cache.stats_us", median(&p.stats_us));
    let wall: f64 = p.cold_s.iter().chain(&p.warm_s).sum();
    out.set("exec.cpu_util", cpu / (wall * nproc));
    out.note(format!(
        "sweep_pairs_per_s = {:.1} pairs/s (cold, median of {} passes of {} pairs)",
        median(&cold_pairs_per_s),
        cold.len(),
        p.pairs
    ));
    out.note(format!("warm_pairs_per_s = {:.1} pairs/s (warm replay)", median(&warm_pairs_per_s)));
    out.note(format!(
        "cold pass makes {} evaluator calls for {} pairs; warm pass makes 0",
        p.cold_calls, p.pairs
    ));

    if let Some(tracer) = &tracer {
        let traced = p.cold(true);
        let passes = traced.len() as f64;
        out.set("trace.untraced_s", median(&cold));
        out.set("trace.overhead_frac", median(&traced) / median(&cold) - 1.0);
        out.set("scenario.grouped_pairs", p.grouped as f64 / passes);
        let spans = tracer.spans();
        let overhead = self_time_where(&spans, |s| s.layer == "scenario" && s.name == "cold");
        out.set("scenario.overhead_s", overhead / passes);
        record_self_times(&mut out, tracer, passes);
        crate::trace::record_layer_metrics(&mut out, &spans, passes);
        if let Err(e) = tracer.dump(&ctx.spans_path("design_sweep")) {
            out.note(format!("could not write spans: {e}"));
        }
    }
    out.set("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0));
    Ok(out)
}
