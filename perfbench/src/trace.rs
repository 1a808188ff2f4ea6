//! In-memory spans for the traced run.
//!
//! A span records a layer, a name, start and end (nanoseconds since the
//! tracer's epoch), its parent span, the request or pass it belongs to,
//! and a work count (simulated events or cycles, solver iterations).
//! Spans stay in memory while the workload runs and are written out as
//! JSON lines at the end, so recording costs one clock read and one
//! short critical section per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span store. Span id 0 means "no parent".
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for a span whose children start before it ends.
    pub fn reserve(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        req: u64,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        work: u64,
    ) {
        let span = Span { id, parent, req, layer, name, start_ns, end_ns, work };
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).push(span);
    }

    /// Runs `f` inside a new span and returns its result.
    pub fn span<T>(
        &self,
        parent: u64,
        req: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.reserve();
        let start = self.now();
        let out = f();
        self.record(id, parent, req, layer, name, start, self.now(), 0);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Writes every span as one JSON line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.id, s.parent, s.req, s.layer, s.name, s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Each span's self time in seconds: its duration minus the part of it
/// its child spans cover (children on parallel workers may overlap;
/// their union is subtracted once).
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            ((s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns)) as f64 * 1e-9
        })
        .collect()
}

/// Self time per layer, in seconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += own;
    }
    out
}

/// Total self time of the spans `pred` selects.
pub fn self_time_where(spans: &[Span], pred: impl Fn(&Span) -> bool) -> f64 {
    spans.iter().zip(self_times(spans)).filter(|(s, _)| pred(s)).map(|(_, own)| own).sum()
}

/// Engine, markov and analytic metrics from evaluator spans, as counts
/// and seconds per traced pass (`passes` of them).
pub fn record_layer_metrics(out: &mut crate::Outcome, spans: &[Span], passes: f64) {
    let of = |pred: &dyn Fn(&str) -> bool| -> (f64, f64, f64, Vec<f64>) {
        let picked: Vec<&Span> = spans.iter().filter(|s| pred(s.layer)).collect();
        let secs = picked.iter().map(|s| s.secs()).fold(0.0, |a, b| a + b);
        let work = picked.iter().map(|s| s.work as f64).fold(0.0, |a, b| a + b);
        let durations = picked.iter().map(|s| s.secs()).collect();
        (picked.len() as f64, secs, work, durations)
    };
    let per = passes.max(1.0);
    let (calls, secs, cycles, _) = of(&|l| l == "engine.cycle");
    out.set("engine.cycle.calls", calls / per);
    out.set("engine.cycle.s", secs / per);
    out.set("engine.cycle.mcycles_per_s", if secs > 0.0 { cycles / secs / 1e6 } else { 0.0 });
    let (calls, secs, events, _) = of(&|l| l == "engine.event");
    out.set("engine.event.calls", calls / per);
    out.set("engine.event.s", secs / per);
    out.set("engine.event.events", events / per);
    out.set("engine.event.ns_per_event", if events > 0.0 { secs * 1e9 / events } else { 0.0 });
    let (solves, secs, _, durations) = of(&|l| l == "markov");
    out.set("markov.solves", solves / per);
    out.set("markov.s", secs / per);
    out.set("markov.solve_p50_ms", crate::meter::median(&durations) * 1e3);
    out.set("markov.solve_max_ms", crate::meter::quantile(&durations, 1.0) * 1e3);
    let (_, secs, iterations, _) = of(&|l| l.starts_with("analytic."));
    out.set("analytic.solver_iterations", iterations / per);
    out.set("analytic.s", secs / per);
    let (_, _, _, pfqn) = of(&|l| l == "analytic.pfqn");
    out.set("analytic.pfqn.us_p50", crate::meter::median(&pfqn) * 1e6);
    let (_, _, _, fluid) = of(&|l| l == "analytic.fluid");
    out.set("analytic.fluid.us_p50", crate::meter::median(&fluid) * 1e6);
    out.set("analytic.fluid.us_p99", crate::meter::tail(&fluid) * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, req: 0, layer, name: "x", start_ns, end_ns, work: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "scenario", 0, 100),
            span(2, 1, "analytic", 10, 60),
            span(3, 1, "analytic", 40, 80),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert!((by_layer["scenario"] - 30e-9).abs() < 1e-15);
        assert!((by_layer["analytic"] - 90e-9).abs() < 1e-15);
    }
}
