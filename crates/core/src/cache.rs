//! Content-hashed evaluation memo cache.
//!
//! A sweep's unit of work is one `(scenario, evaluator)` pair, and
//! every vehicle in this repository is a *deterministic* function of
//! the pair: analytic models by construction, the simulators because
//! replication seeds derive only from `(master_seed, unit index)`.
//! That makes evaluations memoizable by content: a canonical
//! **fingerprint** of the scenario (params + workload + buffering +
//! arbitration + service + buses) joined with the evaluator's
//! configuration fingerprint (name + budget/seed/engine/stopping,
//! [`crate::scenario::Evaluator::config_fingerprint`]) keys an
//! [`Evaluation`] exactly.
//!
//! [`EvalCache`] is the memo store: an in-memory map consulted by
//! [`crate::scenario::run_sweep_with`], plus an opt-in on-disk
//! JSON-lines journal (`evalcache.jsonl` under `--cache-dir`) that is
//! loaded at startup and appended on every miss, so repeated `busnet
//! sweep` invocations are warm. Floating-point payloads are stored as
//! `f64::to_bits` hex strings, so a disk round-trip is exact and
//! cached results are **bit-identical** to fresh ones.
//!
//! Keys are versioned by the [`SCHEMA`] tag: any change to the
//! fingerprint grammar or the record layout must bump it, which
//! invalidates (ignores) every line written by older binaries.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::params::Workload;
use crate::scenario::{Evaluation, HotModuleSummary, OccupancySummary, Scenario};
use crate::sim::service::ServiceTime;
use busnet_sim::counters::{SimWindow, WindowSeries};
use busnet_sim::fault::{fnv1a, FaultPlan};

/// Cache schema version tag. Bump on ANY change to the fingerprint
/// grammar, the evaluator config fingerprints, or the on-disk record
/// layout — old lines then fail the schema check and are skipped.
/// (v2: `mmpp:` workload fingerprints and the windowed-telemetry
/// payload field.)
pub const SCHEMA: &str = "busnet-evalcache-v2";

/// FNV-1a 64-bit over raw bytes — the stable content hash used to
/// compress weight vectors into fingerprint tokens.
fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn f64_from_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Canonical token for a workload's *content* (not its construction
/// path): `uniform`, `hot:<fraction-bits>@<module>`,
/// `weighted:<fnv64 of weight bits>`, `hetero:<fnv64 of prob bits>`.
/// Shared with the sampler pools of [`crate::sim::address`], whose
/// table reuse needs the same equality.
pub fn workload_fingerprint(workload: &Workload) -> String {
    match workload {
        Workload::Uniform => "uniform".to_owned(),
        Workload::HotSpot { fraction, module } => {
            format!("hot:{}@{module}", f64_hex(*fraction))
        }
        Workload::Weighted(weights) => {
            format!(
                "weighted:{:016x}",
                fnv64(weights.iter().flat_map(|w| w.to_bits().to_le_bytes()))
            )
        }
        Workload::Heterogeneous(probs) => {
            format!("hetero:{:016x}", fnv64(probs.iter().flat_map(|p| p.to_bits().to_le_bytes())))
        }
        Workload::Mmpp(spec) => {
            let phase_bytes = spec.phases().iter().flat_map(|ph| {
                ph.think_p
                    .to_bits()
                    .to_le_bytes()
                    .into_iter()
                    .chain(ph.hot_fraction.to_bits().to_le_bytes())
                    .chain(ph.hot_module.to_le_bytes())
            });
            let matrix_bytes = (0..spec.phase_count())
                .flat_map(|s| spec.transition_row(s))
                .flat_map(|p| p.to_bits().to_le_bytes());
            let bytes = phase_bytes.chain(matrix_bytes).chain(spec.dwell().to_le_bytes());
            format!("mmpp:{:016x}", fnv64(bytes))
        }
    }
}

/// Canonical fingerprint of a scenario's evaluation-relevant content.
/// Two scenarios with equal fingerprints produce bit-identical
/// evaluations under any fixed evaluator configuration (e.g. an
/// explicit `Constant(r)` service and the default `None` fingerprint
/// identically, as the engines treat them identically).
pub fn scenario_fingerprint(scenario: &Scenario) -> String {
    let p = &scenario.params;
    let service = match scenario.service() {
        ServiceTime::Constant(c) => format!("const:{c}"),
        ServiceTime::Geometric { mean } => format!("geom:{}", f64_hex(mean)),
    };
    format!(
        "n={}|m={}|r={}|p={}|policy={}|buf={}|arb={}|wl={}|svc={service}|buses={}",
        p.n(),
        p.m(),
        p.r(),
        f64_hex(p.p()),
        scenario.policy.name(),
        scenario.buffering.name(),
        scenario.arbitration.name(),
        workload_fingerprint(&scenario.workload),
        scenario.buses,
    )
}

/// The full cache key of one `(scenario, evaluator)` pair: schema tag,
/// evaluator configuration fingerprint, scenario fingerprint.
pub fn cache_key(evaluator_fingerprint: &str, scenario: &Scenario) -> String {
    format!("{SCHEMA}|ev={evaluator_fingerprint}|{}", scenario_fingerprint(scenario))
}

/// An [`Evaluation`] minus its scenario and evaluator tag — the
/// payload the cache stores. The scenario is re-attached from the
/// in-hand grid point at hit time (it is part of the key, so it is
/// known exactly), which keeps workload weight vectors out of the
/// store entirely.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedEvaluation {
    /// §2 derived measures.
    pub metrics: Metrics,
    /// 95% CI half-width of the EBW estimate.
    pub half_width_95: f64,
    /// Replications (or adaptive batches) behind the estimate.
    pub replications: u32,
    /// Per-processor EBW contributions.
    pub per_processor_ebw: Option<Vec<f64>>,
    /// Module buffer-occupancy telemetry.
    pub occupancy: Option<OccupancySummary>,
    /// Granted requests per module.
    pub module_references: Option<Vec<u64>>,
    /// Hottest-module summary.
    pub hot_module: Option<HotModuleSummary>,
    /// Engine work units behind the estimate.
    pub simulated_events: u64,
    /// Pooled windowed transient telemetry (MMPP runs).
    pub windows: Option<WindowSeries>,
}

impl CachedEvaluation {
    /// Captures an evaluation's scenario-independent payload.
    pub fn from_evaluation(e: &Evaluation) -> Self {
        CachedEvaluation {
            metrics: e.metrics,
            half_width_95: e.half_width_95,
            replications: e.replications,
            per_processor_ebw: e.per_processor_ebw.clone(),
            occupancy: e.occupancy.clone(),
            module_references: e.module_references.clone(),
            hot_module: e.hot_module.clone(),
            simulated_events: e.simulated_events,
            windows: e.windows.clone(),
        }
    }

    /// Rebuilds the full evaluation for the in-hand scenario.
    pub fn attach(&self, evaluator: &'static str, scenario: &Scenario) -> Evaluation {
        Evaluation {
            evaluator,
            scenario: scenario.clone(),
            metrics: self.metrics,
            half_width_95: self.half_width_95,
            replications: self.replications,
            per_processor_ebw: self.per_processor_ebw.clone(),
            occupancy: self.occupancy.clone(),
            module_references: self.module_references.clone(),
            hot_module: self.hot_module.clone(),
            simulated_events: self.simulated_events,
            windows: self.windows.clone(),
        }
    }
}

/// Hit/miss/IO counters of an [`EvalCache`], for sweep summaries and
/// tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (and, after the fresh evaluation, were
    /// inserted).
    pub misses: u64,
    /// Records loaded from disk at startup.
    pub loaded: u64,
    /// Records appended to disk this run.
    pub appended: u64,
    /// Disk lines skipped as unparsable or schema-mismatched, plus
    /// failed appends.
    pub skipped: u64,
    /// Torn trailing lines recovered at load (a partial append left by
    /// a crash, either completed in place or truncated away).
    pub torn: u64,
}

/// The content-hashed evaluation memo store: an in-memory map with an
/// optional JSON-lines disk journal. Interior-mutable (`&self`
/// methods behind a mutex) so one cache can serve a whole sweep.
#[derive(Debug, Default)]
pub struct EvalCache {
    map: Mutex<HashMap<String, CachedEvaluation>>,
    /// Append target (`<dir>/evalcache.jsonl`), when disk-backed.
    journal: Option<PathBuf>,
    /// Injects journal I/O failures when a chaos plan is active.
    faults: Option<FaultPlan>,
    hits: AtomicU64,
    misses: AtomicU64,
    loaded: AtomicU64,
    appended: AtomicU64,
    skipped: AtomicU64,
    torn: AtomicU64,
}

impl EvalCache {
    /// An empty in-memory cache (no disk journal).
    pub fn new() -> Self {
        EvalCache::default()
    }

    /// Locks the memo map, recovering from poisoning. A supervised
    /// work unit that panics while a guard is live poisons the mutex,
    /// but every critical section here is a single map operation that
    /// leaves the map consistent — the poison flag carries no
    /// information, and honoring it would turn one caught panic into
    /// an abort of every later lookup (and, in serve mode, of the
    /// whole server).
    fn map_lock(&self) -> MutexGuard<'_, HashMap<String, CachedEvaluation>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A disk-backed cache rooted at `dir`: creates the directory if
    /// missing, loads every valid record from `dir/evalcache.jsonl`,
    /// and appends each future miss to it.
    ///
    /// Malformed or old-schema lines are skipped with an `eprintln!`
    /// warning naming their line numbers (counted in
    /// [`CacheStats::skipped`]). A **torn trailing line** — a partial
    /// append left by a crash mid-write — is recovered explicitly
    /// (counted in [`CacheStats::torn`]): if the tail happens to be a
    /// complete record missing only its newline, the newline is
    /// appended in place and the record kept; otherwise the journal is
    /// truncated back to the last complete line. Either way the next
    /// append lands on a clean line boundary instead of concatenating
    /// onto (and corrupting) the torn tail.
    ///
    /// # Errors
    ///
    /// I/O failures creating the directory or reading/repairing an
    /// existing journal.
    pub fn with_dir(dir: &Path) -> std::io::Result<Self> {
        EvalCache::with_dir_faulted(dir, None)
    }

    /// [`EvalCache::with_dir`] under an optional chaos [`FaultPlan`]:
    /// the `journal-load` site fails individual lines at load, the
    /// `journal-append` site fails individual appends (the record then
    /// survives in memory only).
    ///
    /// # Errors
    ///
    /// As [`EvalCache::with_dir`].
    pub fn with_dir_faulted(dir: &Path, faults: Option<FaultPlan>) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let journal = dir.join("evalcache.jsonl");
        let cache = EvalCache { journal: Some(journal.clone()), faults, ..EvalCache::default() };
        if journal.exists() {
            cache.load_journal(&journal)?;
        }
        Ok(cache)
    }

    /// Loads (and, when the trailing line is torn, repairs) a journal.
    fn load_journal(&self, journal: &Path) -> std::io::Result<()> {
        // One exclusive advisory lock spans the read *and* the torn-
        // tail repair: a concurrent writer sharing this `--cache-dir`
        // can neither append between our read and a truncation (which
        // would silently discard its record) nor observe a
        // half-repaired tail. Writers take the same lock per append.
        let mut file = OpenOptions::new().read(true).write(true).open(journal)?;
        file.lock()?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        // Split at the last newline: everything after it is a torn
        // trailing line (a crash mid-append), handled separately below.
        let complete_len = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        let (complete, tail) = bytes.split_at(complete_len);
        let mut bad_lines: Vec<u64> = Vec::new();
        let mut line_no = 0u64;
        {
            let mut map = self.map_lock();
            for raw in complete.split(|&b| b == b'\n') {
                if raw.is_empty() {
                    continue; // the empty slice after the final newline
                }
                line_no += 1;
                let injected =
                    self.faults.as_ref().is_some_and(|plan| plan.journal_load_fails(line_no));
                let parsed = if injected {
                    None
                } else {
                    std::str::from_utf8(raw).ok().and_then(parse_record)
                };
                match parsed {
                    Some((key, eval)) => {
                        map.insert(key, eval);
                        self.loaded.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        bad_lines.push(line_no);
                        self.skipped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        if !tail.is_empty() {
            self.torn.fetch_add(1, Ordering::Relaxed);
            let recovered = std::str::from_utf8(tail).ok().and_then(parse_record);
            match recovered {
                Some((key, eval)) => {
                    // A complete record missing only its newline: keep
                    // it and terminate the line so the next append does
                    // not concatenate onto it. (`read_to_end` left the
                    // cursor at EOF, and the lock is still held.)
                    file.write_all(b"\n")?;
                    self.map_lock().insert(key, eval);
                    self.loaded.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "warning: evalcache journal {}: completed torn trailing line {}",
                        journal.display(),
                        line_no + 1
                    );
                }
                None => {
                    // Truly partial: truncate back to the last complete
                    // line so future appends land on a clean boundary.
                    file.set_len(complete_len as u64)?;
                    self.skipped.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "warning: evalcache journal {}: truncated torn trailing line {}",
                        journal.display(),
                        line_no + 1
                    );
                }
            }
        }
        if !bad_lines.is_empty() {
            let shown: Vec<String> = bad_lines.iter().take(8).map(|n| n.to_string()).collect();
            let more = bad_lines.len().saturating_sub(8);
            let suffix = if more > 0 { format!(" (+{more} more)") } else { String::new() };
            eprintln!(
                "warning: evalcache journal {}: skipped {} malformed line(s): {}{}",
                journal.display(),
                bad_lines.len(),
                shown.join(", "),
                suffix
            );
        }
        Ok(())
    }

    /// Looks `key` up, counting a hit or miss.
    pub fn lookup(&self, key: &str) -> Option<CachedEvaluation> {
        let found = self.map_lock().get(key).cloned();
        match found {
            Some(eval) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(eval)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records a fresh evaluation under `key` (and appends it to the
    /// disk journal when one is configured). Re-inserting an existing
    /// key is a no-op, so a journal never accumulates duplicates.
    pub fn insert(&self, key: &str, evaluation: &Evaluation) {
        if !evaluation.metrics.has_valid_ebw() {
            return;
        }
        let cached = CachedEvaluation::from_evaluation(evaluation);
        {
            let mut map = self.map_lock();
            if map.contains_key(key) {
                return;
            }
            map.insert(key.to_owned(), cached.clone());
        }
        if let Some(journal) = &self.journal {
            if self.faults.as_ref().is_some_and(|plan| plan.journal_append_fails(fnv1a(key))) {
                // Injected disk failure: the record survives in memory
                // only, exactly as a real append error behaves below.
                self.skipped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // The whole line (record + newline) goes down in one
            // `write` on an O_APPEND handle, under the same exclusive
            // advisory lock the loader takes: concurrent writers
            // sharing this journal — two processes on one
            // `--cache-dir`, or two serve batches — append whole lines
            // and can never interleave a record's bytes.
            let mut line = emit_record(key, &cached);
            line.push('\n');
            let ok = OpenOptions::new().create(true).append(true).open(journal).and_then(|f| {
                f.lock()?;
                (&f).write_all(line.as_bytes())
            });
            match ok {
                Ok(()) => self.appended.fetch_add(1, Ordering::Relaxed),
                Err(_) => self.skipped.fetch_add(1, Ordering::Relaxed),
            };
        }
    }

    /// Number of records currently held in memory.
    pub fn len(&self) -> usize {
        self.map_lock().len()
    }

    /// Whether the cache holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            appended: self.appended.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// JSON-lines record format. One record per line:
//
//   {"schema":"busnet-evalcache-v2","key":"...","eval":{...}}
//
// All floats are 16-hex-digit `f64::to_bits` strings (exact
// round-trip); all integers are plain JSON numbers. Parsing rides the
// shared [`crate::json`] subset — objects, arrays, escape-free
// strings, numbers, null — with no external dependencies.
// ---------------------------------------------------------------------

fn emit_f64_array(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&f64_hex(*v));
        out.push('"');
    }
    out.push(']');
}

fn emit_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn emit_record(key: &str, e: &CachedEvaluation) -> String {
    debug_assert!(
        !key.contains(['"', '\\']) && key.is_ascii(),
        "fingerprints are quote-free ASCII by construction"
    );
    let mut s = String::with_capacity(256);
    s.push_str("{\"schema\":\"");
    s.push_str(SCHEMA);
    s.push_str("\",\"key\":\"");
    s.push_str(key);
    s.push_str("\",\"eval\":{");
    s.push_str(&format!(
        "\"ebw\":\"{}\",\"bus_util\":\"{}\",\"mem_util\":\"{}\",\"proc_eff\":\"{}\",",
        f64_hex(e.metrics.ebw),
        f64_hex(e.metrics.bus_utilization),
        f64_hex(e.metrics.memory_utilization),
        f64_hex(e.metrics.processor_efficiency),
    ));
    match e.metrics.mean_wait_cycles {
        Some(w) => s.push_str(&format!("\"wait\":\"{}\",", f64_hex(w))),
        None => s.push_str("\"wait\":null,"),
    }
    s.push_str(&format!("\"hw95\":\"{}\",\"reps\":{},", f64_hex(e.half_width_95), e.replications));
    s.push_str("\"per_proc\":");
    match &e.per_processor_ebw {
        Some(v) => emit_f64_array(&mut s, v),
        None => s.push_str("null"),
    }
    s.push_str(",\"occ\":");
    match &e.occupancy {
        Some(o) => {
            s.push_str(&format!(
                "{{\"depth\":{},\"in_mean\":\"{}\",\"out_mean\":\"{}\",",
                o.buffer_depth,
                f64_hex(o.mean_input_queue),
                f64_hex(o.mean_output_queue),
            ));
            s.push_str("\"in_dist\":");
            emit_f64_array(&mut s, &o.input_distribution);
            s.push_str(",\"out_dist\":");
            emit_f64_array(&mut s, &o.output_distribution);
            s.push_str(&format!(
                ",\"in_full\":\"{}\",\"blocked\":{}}}",
                f64_hex(o.input_full_fraction),
                o.blocked_completions,
            ));
        }
        None => s.push_str("null"),
    }
    s.push_str(",\"refs\":");
    match &e.module_references {
        Some(v) => emit_u64_array(&mut s, v),
        None => s.push_str("null"),
    }
    s.push_str(",\"hot\":");
    match &e.hot_module {
        Some(h) => s.push_str(&format!(
            "{{\"module\":{},\"share\":\"{}\",\"util\":\"{}\",\"in_mean\":\"{}\"}}",
            h.module,
            f64_hex(h.reference_share),
            f64_hex(h.utilization),
            f64_hex(h.mean_input_queue),
        )),
        None => s.push_str("null"),
    }
    s.push_str(&format!(",\"events\":{}", e.simulated_events));
    s.push_str(",\"win\":");
    match &e.windows {
        Some(w) => {
            s.push_str(&format!("{{\"width\":{},\"phase_cycles\":", w.width));
            emit_u64_array(&mut s, &w.phase_cycles);
            s.push_str(",\"windows\":[");
            for (i, win) in w.windows.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "[{},{},{},{},{},",
                    win.start,
                    win.cycles,
                    win.returns,
                    win.busy_channel_cycles,
                    win.input_level_cycles,
                ));
                match win.phase {
                    Some(p) => s.push_str(&p.to_string()),
                    None => s.push_str("null"),
                }
                s.push(']');
            }
            s.push_str("]}");
        }
        None => s.push_str("null"),
    }
    s.push_str("}}");
    s
}

/// Journal-specific accessors on the shared [`crate::json`] subset:
/// floats are stored as `f64::to_bits` hex strings, arrays are
/// homogeneous.
trait JsonJournalExt {
    fn hex_f64(&self) -> Option<f64>;
    fn f64_array(&self) -> Option<Vec<f64>>;
    fn u64_array(&self) -> Option<Vec<u64>>;
}

impl JsonJournalExt for Json {
    fn hex_f64(&self) -> Option<f64> {
        self.str().and_then(f64_from_hex)
    }

    fn f64_array(&self) -> Option<Vec<f64>> {
        match self {
            Json::Arr(items) => items.iter().map(JsonJournalExt::hex_f64).collect(),
            _ => None,
        }
    }

    fn u64_array(&self) -> Option<Vec<u64>> {
        match self {
            Json::Arr(items) => items.iter().map(Json::int).collect(),
            _ => None,
        }
    }
}

fn parse_occupancy(v: &Json) -> Option<OccupancySummary> {
    Some(OccupancySummary {
        buffer_depth: u32::try_from(v.field("depth")?.int()?).ok()?,
        mean_input_queue: v.field("in_mean")?.hex_f64()?,
        mean_output_queue: v.field("out_mean")?.hex_f64()?,
        input_distribution: v.field("in_dist")?.f64_array()?,
        output_distribution: v.field("out_dist")?.f64_array()?,
        input_full_fraction: v.field("in_full")?.hex_f64()?,
        blocked_completions: v.field("blocked")?.int()?,
    })
}

fn parse_window(v: &Json) -> Option<SimWindow> {
    let Json::Arr(items) = v else { return None };
    let [start, cycles, returns, busy, in_lvl, phase] = items.as_slice() else { return None };
    Some(SimWindow {
        start: start.int()?,
        cycles: cycles.int()?,
        returns: returns.int()?,
        busy_channel_cycles: busy.int()?,
        input_level_cycles: in_lvl.int()?,
        phase: match phase {
            Json::Null => None,
            v => Some(u32::try_from(v.int()?).ok()?),
        },
    })
}

fn parse_windows(v: &Json) -> Option<WindowSeries> {
    let windows = match v.field("windows")? {
        Json::Arr(items) => items.iter().map(parse_window).collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    let phase_cycles = v.field("phase_cycles")?.u64_array()?;
    Some(WindowSeries { width: v.field("width")?.int()?, windows, phase_cycles })
}

fn parse_hot(v: &Json) -> Option<HotModuleSummary> {
    Some(HotModuleSummary {
        module: usize::try_from(v.field("module")?.int()?).ok()?,
        reference_share: v.field("share")?.hex_f64()?,
        utilization: v.field("util")?.hex_f64()?,
        mean_input_queue: v.field("in_mean")?.hex_f64()?,
    })
}

/// Parses one journal line into `(key, payload)`; `None` (skip) on any
/// structural or schema mismatch.
fn parse_record(line: &str) -> Option<(String, CachedEvaluation)> {
    let root = Json::parse(line)?;
    if root.field("schema")?.str()? != SCHEMA {
        return None;
    }
    let key = root.field("key")?.str()?.to_owned();
    if !key.starts_with(SCHEMA) {
        return None;
    }
    let e = root.field("eval")?;
    let metrics = Metrics {
        ebw: e.field("ebw")?.hex_f64()?,
        bus_utilization: e.field("bus_util")?.hex_f64()?,
        memory_utilization: e.field("mem_util")?.hex_f64()?,
        processor_efficiency: e.field("proc_eff")?.hex_f64()?,
        mean_wait_cycles: match e.opt_field("wait")? {
            None => None,
            Some(v) => Some(v.hex_f64()?),
        },
    };
    if !metrics.has_valid_ebw() {
        return None;
    }
    let eval = CachedEvaluation {
        metrics,
        half_width_95: e.field("hw95")?.hex_f64()?,
        replications: u32::try_from(e.field("reps")?.int()?).ok()?,
        per_processor_ebw: match e.opt_field("per_proc")? {
            None => None,
            Some(v) => Some(v.f64_array()?),
        },
        occupancy: match e.opt_field("occ")? {
            None => None,
            Some(v) => Some(parse_occupancy(v)?),
        },
        module_references: match e.opt_field("refs")? {
            None => None,
            Some(v) => Some(v.u64_array()?),
        },
        hot_module: match e.opt_field("hot")? {
            None => None,
            Some(v) => Some(parse_hot(v)?),
        },
        simulated_events: e.field("events")?.int()?,
        windows: match e.opt_field("win")? {
            None => None,
            Some(v) => Some(parse_windows(v)?),
        },
    };
    Some((key, eval))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ArbitrationKind, Buffering, BusPolicy, SystemParams};
    use crate::scenario::{BusSimEval, Evaluator, SimBudget};

    fn scenario() -> Scenario {
        Scenario::new(SystemParams::new(4, 4, 4).unwrap())
    }

    #[test]
    fn fingerprints_distinguish_every_axis() {
        let base = scenario();
        let variants = [
            Scenario::new(SystemParams::new(5, 4, 4).unwrap()),
            Scenario::new(SystemParams::new(4, 5, 4).unwrap()),
            Scenario::new(SystemParams::new(4, 4, 5).unwrap()),
            Scenario::new(
                SystemParams::new(4, 4, 4).unwrap().with_request_probability(0.5).unwrap(),
            ),
            base.clone().with_policy(BusPolicy::MemoryPriority),
            base.clone().with_buffering(Buffering::Depth(2)),
            base.clone().with_arbitration(ArbitrationKind::RoundRobin),
            base.clone().with_workload(Workload::hot_spot(0.5, 0).unwrap()),
            base.clone().with_workload(Workload::on_off_burst(0.9, 0.05, 0.9, 500, None).unwrap()),
            base.clone().with_memory_service(ServiceTime::Geometric { mean: 4.0 }),
            base.clone().with_buses(2).unwrap(),
        ];
        let fp = scenario_fingerprint(&base);
        for v in &variants {
            assert_ne!(scenario_fingerprint(v), fp, "{}", v.label());
        }
    }

    #[test]
    fn explicit_constant_service_matches_default() {
        // None and Some(Constant(r)) are the same operating point.
        let implicit = scenario();
        let explicit = scenario().with_memory_service(ServiceTime::Constant(4));
        assert_eq!(scenario_fingerprint(&implicit), scenario_fingerprint(&explicit));
    }

    #[test]
    fn weighted_workloads_fingerprint_by_content() {
        let a = Workload::weighted([3.0, 1.0]).unwrap();
        let b = Workload::weighted([3.0, 1.0]).unwrap();
        let c = Workload::weighted([1.0, 3.0]).unwrap();
        assert_eq!(workload_fingerprint(&a), workload_fingerprint(&b));
        assert_ne!(workload_fingerprint(&a), workload_fingerprint(&c));
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let sim = BusSimEval::new(SimBudget::quick());
        let s = scenario().with_buffering(Buffering::Depth(2));
        let evaluation = sim.evaluate(&s).unwrap();
        let cached = CachedEvaluation::from_evaluation(&evaluation);
        let key = cache_key(&sim.config_fingerprint(), &s);
        let line = emit_record(&key, &cached);
        let (parsed_key, parsed) = parse_record(&line).expect("parses");
        assert_eq!(parsed_key, key);
        assert_eq!(parsed, cached);
        assert_eq!(parsed.attach("sim", &s), evaluation);
    }

    #[test]
    fn mmpp_record_round_trips_windows_bit_exactly() {
        let sim = BusSimEval::new(SimBudget::quick());
        let s = scenario()
            .with_workload(Workload::on_off_burst(0.9, 0.05, 0.9, 250, Some((0.5, 0))).unwrap());
        let evaluation = sim.evaluate(&s).unwrap();
        assert!(evaluation.windows.is_some(), "MMPP runs carry window telemetry");
        let cached = CachedEvaluation::from_evaluation(&evaluation);
        let key = cache_key(&sim.config_fingerprint(), &s);
        let (parsed_key, parsed) = parse_record(&emit_record(&key, &cached)).expect("parses");
        assert_eq!(parsed_key, key);
        assert_eq!(parsed, cached);
        assert_eq!(parsed.attach("sim", &s), evaluation);
    }

    #[test]
    fn malformed_and_versioned_lines_are_skipped() {
        assert!(parse_record("not json").is_none());
        assert!(parse_record("{\"schema\":\"busnet-evalcache-v1\",\"key\":\"k\"}").is_none());
        assert!(parse_record("{\"schema\":\"busnet-evalcache-v2\"}").is_none());
    }

    #[test]
    fn torn_parseable_tail_is_completed() {
        let dir = std::env::temp_dir().join(format!("busnet-torn-ok-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sim = BusSimEval::new(SimBudget::quick());
        let s = scenario();
        let key = cache_key(&sim.config_fingerprint(), &s);
        let evaluation = sim.evaluate(&s).unwrap();
        EvalCache::with_dir(&dir).unwrap().insert(&key, &evaluation);
        // Chop the trailing newline: the record itself is intact, only
        // the terminator was lost to the kill.
        let journal = dir.join("evalcache.jsonl");
        let mut text = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(text.pop(), Some('\n'));
        std::fs::write(&journal, &text).unwrap();
        let warm = EvalCache::with_dir(&dir).unwrap();
        assert_eq!(warm.stats().torn, 1);
        assert_eq!(warm.stats().loaded, 1, "parseable torn tail is recovered");
        assert_eq!(warm.stats().skipped, 0);
        assert_eq!(warm.lookup(&key).expect("recovered hit").attach("sim", &s), evaluation);
        // The journal was healed in place: it terminates again and a
        // fresh load sees a whole record.
        assert!(std::fs::read_to_string(&journal).unwrap().ends_with('\n'));
        assert_eq!(EvalCache::with_dir(&dir).unwrap().stats().torn, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_garbage_tail_is_truncated() {
        let dir = std::env::temp_dir().join(format!("busnet-torn-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sim = BusSimEval::new(SimBudget::quick());
        let s = scenario();
        let key = cache_key(&sim.config_fingerprint(), &s);
        let evaluation = sim.evaluate(&s).unwrap();
        EvalCache::with_dir(&dir).unwrap().insert(&key, &evaluation);
        let journal = dir.join("evalcache.jsonl");
        let whole = std::fs::read_to_string(&journal).unwrap();
        // A record cut off mid-write: unparseable, must be truncated
        // away so later appends don't corrupt the next record.
        std::fs::write(&journal, format!("{whole}{{\"schema\":\"busnet-evalcache-v2\",\"k"))
            .unwrap();
        let warm = EvalCache::with_dir(&dir).unwrap();
        assert_eq!(warm.stats().torn, 1);
        assert_eq!(warm.stats().loaded, 1);
        assert_eq!(warm.stats().skipped, 1);
        assert_eq!(std::fs::read_to_string(&journal).unwrap(), whole, "tail truncated");
        // Appending after recovery yields a well-formed journal.
        let s2 = Scenario::new(SystemParams::new(5, 4, 4).unwrap());
        let key2 = cache_key(&sim.config_fingerprint(), &s2);
        warm.insert(&key2, &sim.evaluate(&s2).unwrap());
        let reloaded = EvalCache::with_dir(&dir).unwrap();
        assert_eq!(reloaded.stats().loaded, 2);
        assert_eq!(reloaded.stats().skipped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let dir = std::env::temp_dir().join(format!("busnet-badlines-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sim = BusSimEval::new(SimBudget::quick());
        let s = scenario();
        let key = cache_key(&sim.config_fingerprint(), &s);
        let evaluation = sim.evaluate(&s).unwrap();
        EvalCache::with_dir(&dir).unwrap().insert(&key, &evaluation);
        let journal = dir.join("evalcache.jsonl");
        let whole = std::fs::read_to_string(&journal).unwrap();
        // Nesting this deep once overflowed the parser's stack.
        let too_deep = "[".repeat(300_000);
        std::fs::write(
            &journal,
            format!(
                "not json at all\n{too_deep}\n{whole}{{\"schema\":\"busnet-evalcache-v1\",\"key\":\"k\"}}\n"
            ),
        )
        .unwrap();
        let warm = EvalCache::with_dir(&dir).unwrap();
        assert_eq!(warm.stats().loaded, 1, "the good line still loads");
        assert_eq!(warm.stats().skipped, 3, "every bad line counted");
        assert_eq!(warm.stats().torn, 0);
        assert!(warm.lookup(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_ebw_is_neither_stored_nor_replayed() {
        let dir = std::env::temp_dir().join(format!("busnet-nan-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sim = BusSimEval::new(SimBudget::quick());
        let s = scenario();
        let key = cache_key(&sim.config_fingerprint(), &s);
        let mut evaluation = sim.evaluate(&s).unwrap();
        let cold = EvalCache::with_dir(&dir).unwrap();
        for ebw in [f64::NAN, f64::INFINITY, -1.0] {
            evaluation.metrics.ebw = ebw;
            cold.insert(&key, &evaluation);
        }
        assert!(cold.is_empty() && cold.stats().appended == 0, "invalid results are refused");
        // A journal written before the refusal holds the NaN bits as a
        // hex float; such a line now replays as a miss.
        let good =
            emit_record(&key, &CachedEvaluation::from_evaluation(&sim.evaluate(&s).unwrap()));
        let ebw = good.split("\"ebw\":\"").nth(1).unwrap().split('"').next().unwrap();
        let nan_line =
            good.replacen(&format!("\"ebw\":\"{ebw}\""), "\"ebw\":\"fff8000000000000\"", 1);
        assert_ne!(nan_line, good);
        std::fs::write(dir.join("evalcache.jsonl"), format!("{nan_line}\n")).unwrap();
        let warm = EvalCache::with_dir(&dir).unwrap();
        assert_eq!((warm.stats().loaded, warm.stats().skipped), (0, 1));
        assert!(warm.lookup(&key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_lock_recovers() {
        // Regression: a supervised work unit that panics while holding
        // the cache lock used to poison it, and every later
        // `lookup`/`insert`/`len` aborted the whole sweep (or server)
        // on `.expect("cache mutex")`.
        let cache = EvalCache::new();
        let sim = BusSimEval::new(SimBudget::quick());
        let s = scenario();
        let key = cache_key(&sim.config_fingerprint(), &s);
        let evaluation = sim.evaluate(&s).unwrap();
        cache.insert(&key, &evaluation);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.map.lock().unwrap();
            panic!("injected panic while holding the cache lock");
        }));
        assert!(poisoned.is_err());
        assert!(cache.map.is_poisoned(), "the panic must actually poison the mutex");
        assert_eq!(
            cache.lookup(&key).expect("hits survive poisoning").attach("sim", &s),
            evaluation
        );
        let s2 = Scenario::new(SystemParams::new(5, 4, 4).unwrap());
        let key2 = cache_key(&sim.config_fingerprint(), &s2);
        cache.insert(&key2, &sim.evaluate(&s2).unwrap());
        assert_eq!(cache.len(), 2, "inserts survive poisoning");
    }

    #[test]
    fn two_writers_share_one_journal_without_tearing() {
        let dir = std::env::temp_dir().join(format!("busnet-two-writers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Two cache instances on one directory stand in for two
        // processes sharing a `--cache-dir`: each appends its own
        // records concurrently. Whole-line O_APPEND writes under the
        // advisory journal lock mean the warm reload must parse every
        // record — nothing torn, nothing interleaved.
        let a = EvalCache::with_dir(&dir).unwrap();
        let b = EvalCache::with_dir(&dir).unwrap();
        let sim = BusSimEval::new(SimBudget::quick());
        let evaluation = sim.evaluate(&scenario()).unwrap();
        let per_writer = 64u64;
        std::thread::scope(|scope| {
            for (idx, cache) in [&a, &b].into_iter().enumerate() {
                let evaluation = &evaluation;
                scope.spawn(move || {
                    for i in 0..per_writer {
                        cache.insert(&format!("{SCHEMA}|writer={idx}|point={i}"), evaluation);
                    }
                });
            }
        });
        assert_eq!(a.stats().appended + b.stats().appended, 2 * per_writer);
        let warm = EvalCache::with_dir(&dir).unwrap();
        let stats = warm.stats();
        assert_eq!(stats.torn, 0, "no torn lines under concurrent appends");
        assert_eq!(stats.skipped, 0, "no malformed lines under concurrent appends");
        assert_eq!(stats.loaded, 2 * per_writer, "every record from both writers parses");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_cold_warm_round_trip() {
        let dir = std::env::temp_dir().join(format!("busnet-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sim = BusSimEval::new(SimBudget::quick());
        let s = scenario();
        let key = cache_key(&sim.config_fingerprint(), &s);
        let evaluation = sim.evaluate(&s).unwrap();
        {
            let cold = EvalCache::with_dir(&dir).unwrap();
            assert!(cold.lookup(&key).is_none());
            cold.insert(&key, &evaluation);
            assert_eq!(cold.stats().appended, 1);
        }
        let warm = EvalCache::with_dir(&dir).unwrap();
        assert_eq!(warm.stats().loaded, 1);
        let hit = warm.lookup(&key).expect("warm hit");
        assert_eq!(hit.attach("sim", &s), evaluation);
        assert_eq!(warm.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
