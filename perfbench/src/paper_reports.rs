//! `paper_reports`: the paper's reports as `busnet run` computes them
//! (`experiments::{table3, table4, buffering_depths}` at quick effort,
//! one closed-loop caller), repeated for the measuring window.
//!
//! The experiments pin their own simulation seed, so `--seed` only
//! permutes the order of the three calls in each pass; every pass must
//! reproduce the same EBW bits.
//!
//! The traced run adds spans around each report call and then replays
//! the reports' sweeps through [`Traced`] evaluators, which splits the
//! report time into engine (cycle and event), markov and scenario
//! layers. The replay must reproduce every report cell bit for bit.

use std::time::Instant;

use busnet_core::analytic::approx::DepthAwareApprox;
use busnet_core::params::{Buffering, SystemParams};
use busnet_core::scenario::{
    evaluator_calls, run_sweep, BusSimEval, Evaluator, ReducedChainEval, Scenario, ScenarioGrid,
    SweepRecord,
};
use busnet_report::experiments::{
    buffering_depths, table3, table4, BufferingReport, Effort, Table3, Table4, BUFFERING_DEPTHS,
};
use busnet_report::paper;
use busnet_sim::event::EngineKind;
use busnet_sim::exec::ExecutionMode;

use crate::meter::{cpu_now, median, peak_rss_mb, secs, tail};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::wrap::Traced;
use crate::{record_self_times, Ctx, Outcome};

const EFFORT: Effort = Effort::Quick;

// Tolerances the repository's tests already pin: Table 3b per cell and
// on average (tests/paper_regression.rs), Tables 3a and 4 at quick
// effort (tests/experiments_registry.rs).
const TABLE3B_CELL_REL: f64 = 0.09;
const TABLE3B_MEAN_REL: f64 = 0.025;
const TABLE3A_WORST_REL: f64 = 0.06;
const TABLE4_WORST_REL: f64 = 0.05;

/// The buffering study's operating points `(m, r)` at `n = 8`.
const BUFFERING_POINTS: [(u32, u32); 3] = [(4, 24), (8, 16), (16, 12)];

/// What the benchmark builds before the first report: the scenario
/// lists the reports sweep and the evaluators the traced replay wraps.
struct Inputs {
    table3: Vec<Scenario>,
    table4: Vec<Scenario>,
    buffering: Vec<Vec<Scenario>>,
    cycle_sim: BusSimEval,
    event_sim: BusSimEval,
}

fn build_inputs() -> Result<Inputs, String> {
    let e = |err: busnet_core::CoreError| err.to_string();
    let table3 = ScenarioGrid::new()
        .n_values([8])
        .m_values(paper::TABLE_3_M)
        .r_values(paper::TABLE_3_R)
        .scenarios()
        .map_err(e)?;
    let table4 = ScenarioGrid::new()
        .n_values([8])
        .m_values(paper::TABLE_4_M)
        .r_values(paper::TABLE_4_R)
        .bufferings([Buffering::Buffered])
        .scenarios()
        .map_err(e)?;
    let mut buffering = Vec::new();
    for (m, r) in BUFFERING_POINTS {
        let base = Scenario::new(SystemParams::new(8, m, r).map_err(e)?);
        buffering.push(BUFFERING_DEPTHS.iter().map(|&b| base.clone().with_buffering(b)).collect());
    }
    Ok(Inputs {
        table3,
        table4,
        buffering,
        cycle_sim: BusSimEval::new(EFFORT.budget()),
        event_sim: BusSimEval::new(EFFORT.budget().with_engine(EngineKind::Event)),
    })
}

/// One pass's results.
struct Pass {
    table3: Table3,
    table4: Table4,
    buffering: BufferingReport,
    compute_s: f64,
    render_s: f64,
}

/// Runs the three reports in `order`, timing compute and render apart.
fn run_pass(order: &[usize], tracer: Option<&Tracer>, pass: u64) -> Result<Pass, String> {
    let timed = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
        let t = Instant::now();
        let start = tracer.map(Tracer::now);
        f()?;
        if let (Some(tr), Some(start)) = (tracer, start) {
            tr.record(tr.reserve(), 0, pass, "report", name, start, tr.now(), 0);
        }
        Ok::<f64, String>(secs(t))
    };
    let (mut t3, mut t4, mut bf) = (None, None, None);
    let (mut compute_s, mut render_s) = (0.0, 0.0);
    let mut text = String::new();
    for &which in order {
        match which {
            0 => {
                compute_s += timed("table3", &mut || {
                    t3 = Some(table3(EFFORT).map_err(|e| e.to_string())?);
                    Ok(())
                })?;
                let t = t3.as_ref().expect("computed above");
                render_s += timed("render", &mut || {
                    text = t.sim.render_vs(&t.paper_sim) + &t.model.render_vs(&t.paper_model);
                    Ok(())
                })?;
            }
            1 => {
                compute_s += timed("table4", &mut || {
                    t4 = Some(table4(EFFORT).map_err(|e| e.to_string())?);
                    Ok(())
                })?;
                let t = t4.as_ref().expect("computed above");
                render_s += timed("render", &mut || {
                    text = t.sim.render_vs(&t.paper);
                    Ok(())
                })?;
            }
            _ => {
                compute_s += timed("buffering", &mut || {
                    bf = Some(buffering_depths(EFFORT).map_err(|e| e.to_string())?);
                    Ok(())
                })?;
                let b = bf.as_ref().expect("computed above");
                render_s += timed("render", &mut || {
                    text = b.to_string();
                    Ok(())
                })?;
            }
        }
        std::hint::black_box(&text);
    }
    Ok(Pass {
        table3: t3.expect("every pass runs table3"),
        table4: t4.expect("every pass runs table4"),
        buffering: bf.expect("every pass runs buffering_depths"),
        compute_s,
        render_s,
    })
}

/// Every EBW a pass produced, in a fixed order.
fn ebws(p: &Pass) -> Vec<f64> {
    let mut out: Vec<f64> = p.table3.sim.iter().map(|c| c.2).collect();
    out.extend(p.table3.model.iter().map(|c| c.2));
    out.extend(p.table4.sim.iter().map(|c| c.2));
    for point in &p.buffering.points {
        out.push(point.crossbar_ebw);
        for row in &point.rows {
            out.extend([row.ebw, row.half_width_95, row.model_ebw]);
        }
    }
    out
}

/// FNV-1a over the bits of every EBW.
fn digest(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Checks the paper tolerances; returns the largest |ours − paper|
/// over the Table 3a, 3b and 4 cells.
fn check_tolerances(p: &Pass, out: &mut Outcome) -> f64 {
    let mut max_abs: f64 = 0.0;
    let t3a = p.table3.sim.worst_relative_deviation(&p.table3.paper_sim);
    if t3a >= TABLE3A_WORST_REL {
        out.violation(format!("Table 3a worst relative deviation {t3a:.4} >= {TABLE3A_WORST_REL}"));
    }
    let t4 = p.table4.sim.worst_relative_deviation(&p.table4.paper);
    if t4 >= TABLE4_WORST_REL {
        out.violation(format!("Table 4 worst relative deviation {t4:.4} >= {TABLE4_WORST_REL}"));
    }
    for (ours, theirs) in [(&p.table3.sim, &p.table3.paper_sim), (&p.table4.sim, &p.table4.paper)] {
        for (i, j) in (0..ours.row_labels().len())
            .flat_map(|i| (0..ours.col_labels().len()).map(move |j| (i, j)))
        {
            if let (Some(a), Some(b)) = (ours.get(i, j), theirs.get(i, j)) {
                max_abs = max_abs.max((a - b).abs());
            }
        }
    }
    let (mut total, mut count) = (0.0, 0u32);
    for (i, &m) in paper::TABLE_3_M.iter().enumerate() {
        for (j, &r) in paper::TABLE_3_R.iter().enumerate() {
            let (Some(expect), Some(ebw)) = (paper::TABLE_3B[i][j], p.table3.model.get(i, j))
            else {
                continue;
            };
            max_abs = max_abs.max((ebw - expect).abs());
            let rel = (ebw - expect).abs() / expect;
            total += rel;
            count += 1;
            if rel >= TABLE3B_CELL_REL {
                out.violation(format!("Table 3b (m={m}, r={r}) deviates {rel:.4}"));
            }
        }
    }
    let mean = total / f64::from(count.max(1));
    if mean >= TABLE3B_MEAN_REL {
        out.violation(format!("Table 3b mean deviation {mean:.4} >= {TABLE3B_MEAN_REL}"));
    }
    max_abs
}

/// Per-pass timings; with a tracer, every other pass is traced.
#[derive(Default)]
struct Timings {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    compute: Vec<f64>,
    render: Vec<f64>,
    traced: Vec<bool>,
}

impl Timings {
    /// Wall seconds of the passes traced (`true`) or not.
    fn walls(&self, traced: bool) -> Vec<f64> {
        self.walls.iter().zip(&self.traced).filter(|(_, &t)| t == traced).map(|(w, _)| *w).collect()
    }
}

/// Passes until `seconds` have elapsed (at least three, and at least
/// two of each kind when tracing). Returns the timings and the first
/// and last pass.
fn measure(
    rng: &mut Rng,
    seconds: f64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> (Timings, Vec<Pass>) {
    let start = Instant::now();
    let mut t = Timings::default();
    let mut kept: Vec<Pass> = Vec::new();
    let min_passes = if tracer.is_some() { 4 } else { 3 };
    let mut pass = 0u64;
    while t.walls.len() < min_passes || secs(start) < seconds {
        let mut order = [0usize, 1, 2];
        rng.shuffle(&mut order);
        let traced = tracer.filter(|_| pass % 2 == 1);
        let (cpu0, t0) = (cpu_now(), Instant::now());
        let result = run_pass(&order, traced, pass);
        out.attempted += 1;
        pass += 1;
        match result {
            Ok(p) => {
                t.walls.push(secs(t0));
                t.cpus.push(cpu_now() - cpu0);
                t.compute.push(p.compute_s);
                t.render.push(p.render_s);
                t.traced.push(traced.is_some());
                if kept.len() == 2 {
                    kept.pop();
                }
                kept.push(p);
            }
            Err(e) => {
                out.failed += 1;
                out.violation(format!("report pass failed: {e}"));
            }
        }
        if kept.len() == 2 && digest(&ebws(&kept[0])) != digest(&ebws(&kept[1])) {
            out.failed += 1;
            out.violation(format!("pass {pass} EBW digest differs from the first pass"));
        }
    }
    (t, kept)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let (setup_s, inputs) = crate::setup_time(31, build_inputs)?;
    out.set("setup_s", setup_s);

    let mut rng = Rng::new(ctx.seed);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let tracer = ctx.trace.then(Tracer::new);
    let share = if ctx.trace { 0.8 } else { 1.0 };
    let (t, kept) = measure(&mut rng, ctx.seconds * share, tracer.as_ref(), &mut out);
    let (Some(first), Some(last)) = (kept.first(), kept.last()) else { return Ok(out) };
    let max_abs = check_tolerances(first, &mut out);
    let cells = ebws(first).len() as f64;
    let walls = t.walls(false);
    let wall: f64 = t.walls.iter().sum();
    let cpu: f64 = t.cpus.iter().sum();
    out.set("latency_p50_ms", median(&walls) * 1e3);
    out.set("latency_p99_ms", tail(&walls) * 1e3);
    out.set("throughput_per_s", cells * t.walls.len() as f64 / wall);
    out.set("cpu_s", cpu / t.cpus.len() as f64);
    out.set("report.ebw_max_abs_err", max_abs);
    out.set("report.compute_s", median(&t.compute));
    out.set("report.render_s", median(&t.render));
    out.set("exec.cpu_util", cpu / (wall * nproc));
    out.note(format!(
        "report_s = {:.4} s (median of {} passes of table3 + table4 + buffering_depths, \
         quick effort; compute {:.4} s, render {:.6} s)",
        median(&walls),
        walls.len(),
        median(&t.compute),
        median(&t.render)
    ));
    out.note(format!("ebw_max_abs_err = {max_abs:.6} EBW over Tables 3a, 3b and 4"));
    out.note(format!("ebw_digest = {:016x} ({} values per pass)", digest(&ebws(first)), cells));

    if let Some(tracer) = &tracer {
        let traced = t.walls(true);
        out.set("trace.untraced_s", median(&walls));
        out.set("trace.overhead_frac", median(&traced) / median(&walls) - 1.0);
        replay(&inputs, last, tracer, &mut out);
        let spans = tracer.spans();
        let overhead = crate::trace::self_time_where(&spans, |s| s.layer == "scenario");
        out.set("scenario.overhead_s", overhead);
        record_self_times(&mut out, tracer, 1.0);
        // Report spans cover every traced pass; the replay is one pass.
        if let Some(report) = out.metrics.get_mut("self.report_s") {
            *report /= traced.len().max(1) as f64;
        }
        crate::trace::record_layer_metrics(&mut out, &spans, 1.0);
        if let Err(e) = tracer.dump(&ctx.spans_path("paper_reports")) {
            out.note(format!("could not write spans: {e}"));
        }
    }
    out.set("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0));
    Ok(out)
}

/// Replays the reports' sweeps through traced evaluators and checks the
/// replay reproduces `reference` bit for bit.
fn replay(inputs: &Inputs, reference: &Pass, tracer: &Tracer, out: &mut Outcome) {
    let cycle = Traced::new(&inputs.cycle_sim, tracer, "engine.cycle");
    let event = Traced::new(&inputs.event_sim, tracer, "engine.event");
    let reduced = Traced::new(&ReducedChainEval, tracer, "markov");
    let calls0 = evaluator_calls();
    let mut pairs = 0usize;
    let mut sweep = |scenarios: &[Scenario], evaluators: &[&Traced]| -> Vec<SweepRecord> {
        let id = tracer.reserve();
        for e in evaluators {
            e.set_parent(id);
        }
        let refs: Vec<&dyn Evaluator> = evaluators.iter().map(|e| *e as &dyn Evaluator).collect();
        let start = tracer.now();
        let records = run_sweep(scenarios, &refs, ExecutionMode::Serial, |_, _, _| {});
        tracer.record(id, 0, 0, "scenario", "run_sweep", start, tracer.now(), 0);
        pairs += records.len();
        records
    };
    let mut replayed: Vec<f64> = Vec::new();
    let t3 = sweep(&inputs.table3, &[&cycle, &reduced]);
    for evaluator in ["sim", "reduced"] {
        replayed.extend(
            t3.iter()
                .filter(|r| r.evaluator == evaluator)
                .filter_map(|r| r.result.as_ref().ok().map(|e| e.ebw())),
        );
    }
    let t4 = sweep(&inputs.table4, &[&cycle]);
    replayed.extend(t4.iter().filter_map(|r| r.result.as_ref().ok().map(|e| e.ebw())));
    for (scenarios, (m, r)) in inputs.buffering.iter().zip(BUFFERING_POINTS) {
        let records = sweep(scenarios, &[&event]);
        std::hint::black_box(tracer.span(0, 0, "markov", "depth_aware_anchors", || {
            SystemParams::new(8, m, r).ok().and_then(|p| DepthAwareApprox::new(&p).ok())
        }));
        replayed.extend(records.iter().filter_map(|r| r.result.as_ref().ok().map(|e| e.ebw())));
    }
    let mut expected: Vec<f64> = reference.table3.sim.iter().map(|c| c.2).collect();
    expected.extend(reference.table3.model.iter().map(|c| c.2));
    expected.extend(reference.table4.sim.iter().map(|c| c.2));
    for point in &reference.buffering.points {
        expected.extend(point.rows.iter().map(|row| row.ebw));
    }
    if digest(&replayed) != digest(&expected) || replayed.len() != expected.len() {
        out.violation(format!(
            "traced replay differs from the reports ({} vs {} EBWs)",
            replayed.len(),
            expected.len()
        ));
    }
    let calls = evaluator_calls() - calls0;
    out.set("scenario.pairs", pairs as f64);
    out.set("scenario.evaluator_calls", calls as f64);
    out.set("scenario.dedup_ratio", pairs as f64 / calls.max(1) as f64);
}
