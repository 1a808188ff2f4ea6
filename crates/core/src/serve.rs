//! The batch-serving front end: protocol parsing and the request
//! broker behind `busnet serve`.
//!
//! A serve session turns the sweep machinery into an always-on
//! service: clients connect over a Unix or TCP socket and exchange
//! JSON lines. One request names one `(scenario, evaluator, budget)`
//! point:
//!
//! ```json
//! {"id":1,"scenario":{"n":8,"m":16,"r":8},"evaluator":"pfqn","budget":{"replications":4}}
//! ```
//!
//! Its `scenario` and `budget` members name rows of the
//! [`spec`] tables the CLI reads too. Each
//! request earns exactly one reply line tagged with the request id and
//! a status:
//!
//! * `fresh` — this request caused the evaluation;
//! * `cached` — replayed from the memo cache/journal or coalesced onto
//!   an identical in-flight request (bit-identical to `fresh` rows by
//!   the cache's `f64::to_bits` round-trip);
//! * `degraded` — the supervisor's analytic fallback stood in after
//!   retries were exhausted under `on_failure = degrade`;
//! * `failed` — a structured error (out-of-domain scenario, exhausted
//!   retries);
//! * `error` — the request itself was malformed (bad JSON, unknown
//!   evaluator, invalid parameters);
//! * `overloaded` — the pending queue is full; retry later.
//!
//! # The broker
//!
//! [`Broker`] is the shared middle: connection threads [`Broker::submit`]
//! parsed requests, a scheduler thread coalesces everything pending
//! into per-configuration batches (same evaluator, budget, and
//! supervisor settings), and each batch runs as **one**
//! [`run_sweep_with`] call on a shared [`ExecPool`] worker. That
//! reuses the whole amortization stack across clients: the memo cache
//! dedupes repeat points, identical concurrent requests coalesce onto
//! one in-flight evaluation, and axis-incremental grouping
//! (`Evaluator::incremental_key`) lets O(R) solvers and shared sampler
//! pools amortize requests from *different* clients. Every unit runs
//! under the [`Supervisor`], so a panicking or over-budget point
//! degrades that one reply instead of the server.
//!
//! Request lifecycle: `submit` checks the in-flight table (coalesce),
//! then the memo cache (immediate `cached` reply), then enqueues the
//! point — or replies `overloaded` when `queue_depth` points are
//! already waiting. Completion resolves the in-flight entry *after*
//! `run_sweep_with` has inserted the result into the cache, so a
//! racing duplicate always lands on one side or the other — never
//! evaluates twice.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use busnet_sim::exec::{ExecPool, ExecutionMode};
use busnet_sim::sink::LineSink;

use crate::cache::{cache_key, EvalCache};
use crate::json::{self, Json};
use crate::scenario::{
    evaluator_calls, run_sweep_with, spec, Evaluation, Evaluator, EvaluatorKind, OnFailure,
    Scenario, SimBudget, Supervisor, SweepOptions, SweepRecord, UnitStatus,
};
use crate::sim::bus::UnitBudget;

/// Where a connection's replies go: any shared writer behind the
/// whole-line lock (a socket write half, a log, a test buffer).
pub type ReplySink = LineSink<Box<dyn Write + Send>>;

/// One parsed protocol line.
#[derive(Debug)]
pub enum Request {
    /// Evaluate one scenario point.
    Eval(EvalRequest),
    /// Report broker/cache/evaluator-call statistics.
    Stats {
        /// The request id to echo (a JSON fragment).
        id: String,
    },
}

/// A parsed evaluation request.
#[derive(Debug)]
pub struct EvalRequest {
    /// The client's id for this request, kept as a JSON fragment
    /// (`7` or `"client-1"`) and echoed verbatim in the reply.
    pub id: String,
    /// The operating point to evaluate.
    pub scenario: Scenario,
    /// Which vehicle evaluates it.
    pub evaluator: EvaluatorKind,
    /// Simulation budget (replications, cycles, seed, engine,
    /// stopping rule).
    pub budget: SimBudget,
    /// Per-request override of the server's `--max-retries`.
    pub max_retries: Option<u32>,
    /// Per-request override of the server's `--on-failure`.
    pub on_failure: Option<OnFailure>,
    /// Per-request override of the server's `--unit-budget`.
    pub unit_budget: Option<UnitBudget>,
}

/// A structured protocol-level error: the reply for a line that never
/// became a valid request.
#[derive(Debug, PartialEq)]
pub struct ErrorReply {
    /// The request id when one was parseable, else `null`.
    pub id: String,
    /// Human-readable cause.
    pub message: String,
}

impl ErrorReply {
    fn anonymous(message: impl Into<String>) -> Self {
        ErrorReply { id: "null".to_owned(), message: message.into() }
    }

    /// The reply line for this error.
    pub fn line(&self) -> String {
        format!(
            "{{\"id\":{},\"status\":\"error\",\"error\":\"{}\"}}",
            self.id,
            json::escape(&self.message)
        )
    }
}

/// The deterministic result-row payload shared by `fresh`, `cached`,
/// and `degraded` replies. Metric floats are formatted from their
/// exact bits, so a cached replay renders byte-identically to the
/// fresh evaluation it memoized.
pub fn row_json(e: &Evaluation) -> String {
    let s = &e.scenario;
    let m = &e.metrics;
    format!(
        "{{\"n\":{},\"m\":{},\"r\":{},\"p\":{},\"policy\":\"{}\",\"buffering\":\"{}\",\
         \"arbitration\":\"{}\",\"workload\":\"{}\",\"buses\":{},\"evaluator\":\"{}\",\
         \"ebw\":{:.6},\"half_width_95\":{:.6},\"bus_utilization\":{:.6},\
         \"memory_utilization\":{:.6},\"processor_efficiency\":{:.6},\"replications\":{}}}",
        s.params.n(),
        s.params.m(),
        s.params.r(),
        s.params.p(),
        s.policy.name(),
        s.buffering.name(),
        s.arbitration.name(),
        s.workload.name(),
        s.buses,
        e.evaluator,
        m.ebw,
        e.half_width_95,
        m.bus_utilization,
        m.memory_utilization,
        m.processor_efficiency,
        e.replications,
    )
}

/// Parses one protocol line.
///
/// # Errors
///
/// A structured [`ErrorReply`] (echoing the request id when it was
/// parseable) for malformed JSON, unknown fields/ops/evaluators, or
/// invalid scenario/budget values. Parsing never panics: a bad line
/// costs its sender one error reply, not the connection.
pub fn parse_request(line: &str) -> Result<Request, ErrorReply> {
    let doc = Json::parse(line)
        .filter(|d| matches!(d, Json::Obj(_)))
        .ok_or_else(|| ErrorReply::anonymous("malformed JSON request"))?;
    let id = match doc.field("id") {
        None | Some(Json::Null) => "null".to_owned(),
        Some(Json::Int(v)) => v.to_string(),
        Some(Json::Str(s)) => format!("\"{s}\""),
        Some(_) => return Err(ErrorReply::anonymous("\"id\" must be an integer or a string")),
    };
    let fail = |message: String| ErrorReply { id: id.clone(), message };
    if let Some(op) = doc.field("op") {
        let op = op.str().ok_or_else(|| fail("\"op\" must be a string".to_owned()))?;
        return match op {
            "stats" => Ok(Request::Stats { id }),
            other => Err(fail(format!("unknown op `{other}` (expected stats)"))),
        };
    }
    let Json::Obj(fields) = &doc else { unreachable!("filtered above") };
    for (name, _) in fields {
        if !matches!(
            name.as_str(),
            "id" | "scenario"
                | "evaluator"
                | "budget"
                | "max_retries"
                | "on_failure"
                | "unit_budget"
        ) {
            return Err(fail(format!("unknown request field `{name}`")));
        }
    }
    let scenario_obj =
        doc.field("scenario").ok_or_else(|| fail("missing \"scenario\"".to_owned()))?;
    let scenario = spec_fields(scenario_obj, "scenario")
        .and_then(|f| spec::request_point(&f))
        .map_err(&fail)?;
    let evaluator = match doc.field("evaluator") {
        None => EvaluatorKind::Sim,
        Some(v) => {
            let name = v.str().ok_or_else(|| fail("\"evaluator\" must be a string".to_owned()))?;
            EvaluatorKind::from_name(name)
                .ok_or_else(|| fail(format!("unknown evaluator `{name}`")))?
        }
    };
    let budget = match doc.field("budget") {
        None => SimBudget::sweep(),
        Some(v) => spec_fields(v, "budget")
            .and_then(|f| spec::budget(SimBudget::sweep(), &f))
            .map_err(&fail)?,
    };
    let max_retries = match doc.field("max_retries") {
        None => None,
        Some(v) => Some(
            u32::try_from(
                v.int().ok_or_else(|| fail("\"max_retries\" must be an integer".to_owned()))?,
            )
            .map_err(|_| fail("\"max_retries\" out of range".to_owned()))?,
        ),
    };
    let on_failure = match doc.field("on_failure") {
        None => None,
        Some(v) => {
            let name = v.str().ok_or_else(|| fail("\"on_failure\" must be a string".to_owned()))?;
            Some(OnFailure::from_name(name).ok_or_else(|| {
                fail(format!("bad on_failure `{name}` (expected abort|skip|degrade)"))
            })?)
        }
    };
    let unit_budget = match doc.field("unit_budget") {
        None => None,
        Some(v) => Some(parse_unit_budget(v).map_err(&fail)?),
    };
    Ok(Request::Eval(EvalRequest {
        id,
        scenario,
        evaluator,
        budget,
        max_retries,
        on_failure,
        unit_budget,
    }))
}

/// A `scenario` or `budget` member as `(row, text)` pairs for the
/// [`spec`] tables: numbers and strings pass through as text (floats
/// in their shortest round-trip spelling).
fn spec_fields<'a>(v: &'a Json, member: &str) -> Result<Vec<(&'a str, String)>, String> {
    let Json::Obj(fields) = v else { return Err(format!("\"{member}\" must be an object")) };
    fields
        .iter()
        .map(|(name, value)| match value {
            Json::Int(i) => Ok((name.as_str(), i.to_string())),
            Json::Float(x) => Ok((name.as_str(), format!("{x:?}"))),
            Json::Str(s) => Ok((name.as_str(), s.clone())),
            _ => Err(format!("{member} field \"{name}\" must be a number or a string")),
        })
        .collect()
}

fn parse_unit_budget(v: &Json) -> Result<UnitBudget, String> {
    let Json::Obj(fields) = v else {
        return Err("\"unit_budget\" must be an object".to_owned());
    };
    for (name, _) in fields {
        if !matches!(name.as_str(), "events" | "millis") {
            return Err(format!("unknown unit_budget field `{name}`"));
        }
    }
    let field = |name: &str| -> Result<Option<u64>, String> {
        match v.field(name) {
            None => Ok(None),
            Some(j) => j
                .int()
                .map(Some)
                .ok_or_else(|| format!("unit_budget field \"{name}\" must be an integer")),
        }
    };
    let budget = UnitBudget {
        max_events: field("events")?.filter(|&e| e > 0),
        max_millis: field("millis")?.filter(|&m| m > 0),
    };
    if budget.is_unlimited() {
        return Err("unit_budget must bound events and/or millis".to_owned());
    }
    Ok(budget)
}

/// Longest request line [`serve_connection`] reads, in bytes. A longer
/// line is discarded through its newline and earns one `error` reply,
/// so a client that never sends a newline cannot grow the server's
/// memory without bound.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// One line from a client connection.
enum Line {
    Text(String),
    TooLong,
    Eof,
}

/// Reads one `\n`-terminated line, dropping a trailing `\r` as
/// [`BufRead::lines`] does. At most `cap` bytes are kept: a longer line
/// is consumed through its newline and reported as [`Line::TooLong`].
///
/// # Errors
///
/// Read failures, and [`std::io::ErrorKind::InvalidData`] for a line
/// that is not UTF-8.
fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> std::io::Result<Line> {
    let mut line = Vec::new();
    // One byte past the cap tells a full-length line from a longer one.
    let limit = u64::try_from(cap).unwrap_or(u64::MAX).saturating_add(1);
    if reader.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
        return Ok(Line::Eof);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > cap {
        reader.skip_until(b'\n')?;
        return Ok(Line::TooLong);
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Line::Text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Serves one client connection: reads request lines from `input`
/// until EOF and submits each to `broker`. Replies go through the
/// connection's locked line sink — immediately for errors and stats,
/// on batch completion for evaluations — so concurrent completions
/// never interleave mid-line. A bad or oversize line costs one error
/// reply, never the connection.
pub fn serve_connection(input: impl Read, output: Box<dyn Write + Send>, broker: &Broker) {
    let sink: Arc<ReplySink> = Arc::new(LineSink::new(output));
    let mut reader = BufReader::new(input);
    loop {
        let reply = match read_line_capped(&mut reader, MAX_REQUEST_BYTES) {
            Ok(Line::Eof) | Err(_) => break,
            Ok(Line::TooLong) => {
                ErrorReply::anonymous(format!("request line exceeds {MAX_REQUEST_BYTES} bytes"))
                    .line()
            }
            Ok(Line::Text(line)) if line.trim().is_empty() => continue,
            Ok(Line::Text(line)) => match parse_request(&line) {
                Ok(Request::Eval(req)) => {
                    broker.submit(req, &sink);
                    continue;
                }
                Ok(Request::Stats { id }) => broker.stats_line(&id),
                Err(err) => err.line(),
            },
        };
        let _ = sink.writeln(&reply);
    }
    // Dropping our sink reference does not close the stream while the
    // broker still owes this connection replies: each pending waiter
    // holds its own Arc, so the write half lives until the last reply
    // is written.
}

/// Broker tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct BrokerConfig {
    /// Pool workers — the number of batches evaluating concurrently.
    pub threads: usize,
    /// Maximum points awaiting batch formation before new requests get
    /// an `overloaded` reply.
    pub queue_depth: usize,
    /// Server-default supervision (per-request fields override
    /// `max_retries`, `on_failure`, `unit_budget`).
    pub supervisor: Supervisor,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig { threads: 2, queue_depth: 256, supervisor: Supervisor::default() }
    }
}

/// Broker activity counters (a snapshot; see [`Broker::counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BrokerCounters {
    /// Evaluation requests submitted.
    pub requests: u64,
    /// Requests that coalesced onto an identical in-flight point.
    pub coalesced: u64,
    /// Requests answered immediately from the memo cache.
    pub cache_replies: u64,
    /// Requests refused with an `overloaded` reply.
    pub overloaded: u64,
    /// Points this broker actually evaluated (fresh, non-replayed
    /// records) — `requests - coalesced - cache_replies` minus
    /// intra-batch replays.
    pub evaluated: u64,
    /// Process-wide evaluator calls since this broker started.
    pub evaluator_calls: u64,
}

/// One queued point awaiting batch formation.
struct Pending {
    scenario: Scenario,
    kind: EvaluatorKind,
    budget: SimBudget,
    supervisor: Supervisor,
    /// Batch-compatibility key: evaluator config fingerprint plus
    /// supervisor settings. Points sharing it run in one
    /// [`run_sweep_with`] call.
    group: String,
}

/// A reply destination registered for an in-flight point.
struct Waiter {
    id: String,
    /// Whether this request caused the evaluation (its reply says
    /// `fresh`; coalesced waiters say `cached`).
    origin: bool,
    sink: Arc<ReplySink>,
}

#[derive(Default)]
struct BrokerState {
    /// Points awaiting batch formation, in arrival order.
    pending: Vec<Pending>,
    /// Cache key → replies owed, for every not-yet-resolved point.
    inflight: HashMap<String, Vec<Waiter>>,
    closed: bool,
}

struct Shared {
    cache: Arc<EvalCache>,
    queue_depth: usize,
    default_supervisor: Supervisor,
    state: Mutex<BrokerState>,
    wake: Condvar,
    requests: AtomicU64,
    coalesced: AtomicU64,
    cache_replies: AtomicU64,
    overloaded: AtomicU64,
    evaluated: AtomicU64,
    calls_baseline: u64,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, BrokerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Delivers one completed record to every waiter of its point.
    /// Runs *after* `run_sweep_with` cached the result, so a duplicate
    /// arriving during resolution hits the cache instead.
    fn resolve(&self, fingerprint: &str, record: &SweepRecord) {
        let key = cache_key(fingerprint, &record.scenario);
        let waiters = self.lock_state().inflight.remove(&key).unwrap_or_default();
        if !record.cached && !record.screened && record.result.is_ok() {
            self.evaluated.fetch_add(1, Ordering::Relaxed);
        }
        // The reply's tail after its id and status: the row, or the
        // error message.
        let (status, tail) = match &record.result {
            Ok(eval) => {
                let status = match record.status {
                    UnitStatus::Ok if record.cached => "cached",
                    UnitStatus::Ok => "fresh",
                    UnitStatus::Degraded => "degraded",
                    UnitStatus::Failed => "failed",
                };
                (status, format!("\"row\":{}", row_json(eval)))
            }
            Err(e) => ("failed", format!("\"error\":\"{}\"", json::escape(&e.to_string()))),
        };
        for waiter in waiters {
            // Coalesced duplicates were served by someone else's
            // evaluation: their reply is a cache-style replay of the
            // same row bytes.
            let status = if !waiter.origin && status == "fresh" { "cached" } else { status };
            let line = format!("{{\"id\":{},\"status\":\"{status}\",{tail}}}", waiter.id);
            // A dead client costs its own replies, nobody else's.
            let _ = waiter.sink.writeln(&line);
        }
    }
}

/// The shared request broker: dedup, coalescing, batching, and
/// supervised execution for a serve session. See the module docs for
/// the request lifecycle.
pub struct Broker {
    shared: Arc<Shared>,
    scheduler: Mutex<Option<JoinHandle<()>>>,
    pool: Mutex<Option<Arc<ExecPool>>>,
}

impl Broker {
    /// Starts a broker over `cache` (shared with any number of
    /// brokers/sweeps) with the given tuning.
    pub fn new(cache: Arc<EvalCache>, config: BrokerConfig) -> Broker {
        let shared = Arc::new(Shared {
            cache,
            queue_depth: config.queue_depth.max(1),
            default_supervisor: config.supervisor,
            state: Mutex::new(BrokerState::default()),
            wake: Condvar::new(),
            requests: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            cache_replies: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            evaluated: AtomicU64::new(0),
            calls_baseline: evaluator_calls(),
        });
        let pool = Arc::new(ExecPool::new(config.threads, config.threads.max(1) * 2));
        let scheduler = {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("busnet-broker".to_owned())
                .spawn(move || scheduler_loop(&shared, &pool))
                .expect("spawn broker scheduler")
        };
        Broker { shared, scheduler: Mutex::new(Some(scheduler)), pool: Mutex::new(Some(pool)) }
    }

    /// Submits one evaluation request; the reply (exactly one line)
    /// goes to `sink` when available — immediately for cache hits and
    /// rejections, on batch completion otherwise.
    pub fn submit(&self, req: EvalRequest, sink: &Arc<ReplySink>) {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        let defaults = self.shared.default_supervisor;
        let supervisor = Supervisor {
            max_retries: req.max_retries.unwrap_or(defaults.max_retries),
            on_failure: req.on_failure.unwrap_or(defaults.on_failure),
            unit_budget: req.unit_budget.or(defaults.unit_budget),
            ..defaults
        };
        // The evaluator instance is rebuilt per batch; here it only
        // supplies the config fingerprint for the cache key.
        let fingerprint = req.evaluator.build(req.budget).config_fingerprint();
        let key = cache_key(&fingerprint, &req.scenario);
        let group = format!("{fingerprint}|sup={supervisor:?}");
        let mut state = self.shared.lock_state();
        if state.closed {
            drop(state);
            let reply = ErrorReply { id: req.id, message: "server is shutting down".to_owned() };
            let _ = sink.writeln(&reply.line());
            return;
        }
        if let Some(waiters) = state.inflight.get_mut(&key) {
            self.shared.coalesced.fetch_add(1, Ordering::Relaxed);
            waiters.push(Waiter { id: req.id, origin: false, sink: Arc::clone(sink) });
            return;
        }
        if let Some(hit) = self.shared.cache.lookup(&key) {
            drop(state);
            self.shared.cache_replies.fetch_add(1, Ordering::Relaxed);
            let row = row_json(&hit.attach(req.evaluator.name(), &req.scenario));
            let _ =
                sink.writeln(&format!("{{\"id\":{},\"status\":\"cached\",\"row\":{row}}}", req.id));
            return;
        }
        if state.pending.len() >= self.shared.queue_depth {
            drop(state);
            self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
            let _ = sink.writeln(&format!("{{\"id\":{},\"status\":\"overloaded\"}}", req.id));
            return;
        }
        state
            .inflight
            .insert(key, vec![Waiter { id: req.id, origin: true, sink: Arc::clone(sink) }]);
        state.pending.push(Pending {
            scenario: req.scenario,
            kind: req.evaluator,
            budget: req.budget,
            supervisor,
            group,
        });
        drop(state);
        self.shared.wake.notify_one();
    }

    /// A counter snapshot.
    pub fn counters(&self) -> BrokerCounters {
        BrokerCounters {
            requests: self.shared.requests.load(Ordering::Relaxed),
            coalesced: self.shared.coalesced.load(Ordering::Relaxed),
            cache_replies: self.shared.cache_replies.load(Ordering::Relaxed),
            overloaded: self.shared.overloaded.load(Ordering::Relaxed),
            evaluated: self.shared.evaluated.load(Ordering::Relaxed),
            evaluator_calls: evaluator_calls() - self.shared.calls_baseline,
        }
    }

    /// The reply line for a `stats` op.
    pub fn stats_line(&self, id: &str) -> String {
        let c = self.counters();
        let cache = self.shared.cache.stats();
        format!(
            "{{\"id\":{id},\"status\":\"stats\",\"requests\":{},\"coalesced\":{},\
             \"cache_replies\":{},\"overloaded\":{},\"evaluated\":{},\"evaluator_calls\":{},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"loaded\":{},\"appended\":{}}}}}",
            c.requests,
            c.coalesced,
            c.cache_replies,
            c.overloaded,
            c.evaluated,
            c.evaluator_calls,
            cache.hits,
            cache.misses,
            cache.loaded,
            cache.appended,
        )
    }

    /// Graceful shutdown: stop accepting, flush every pending point
    /// through its batch, and return once **all** owed replies have
    /// been written to their sinks — the SIGTERM drain.
    pub fn drain(&self) {
        self.shared.lock_state().closed = true;
        self.shared.wake.notify_all();
        let scheduler = self.scheduler.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(handle) = scheduler {
            let _ = handle.join();
        }
        let pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(pool) = pool {
            Arc::into_inner(pool).expect("scheduler exited, no other pool owner").drain();
        }
        debug_assert!(self.shared.lock_state().inflight.is_empty(), "drain resolved every point");
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Collects pending points into per-configuration batches and hands
/// each batch to the pool as one supervised `run_sweep_with` call.
fn scheduler_loop(shared: &Arc<Shared>, pool: &Arc<ExecPool>) {
    loop {
        let drained: Vec<Pending> = {
            let mut state = shared.lock_state();
            loop {
                if !state.pending.is_empty() {
                    break std::mem::take(&mut state.pending);
                }
                if state.closed {
                    return;
                }
                state = shared.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Group by batch-compatibility key, preserving arrival order
        // within and across groups.
        let mut groups: Vec<(String, Vec<Pending>)> = Vec::new();
        for point in drained {
            match groups.iter_mut().find(|(g, _)| *g == point.group) {
                Some((_, members)) => members.push(point),
                None => groups.push((point.group.clone(), vec![point])),
            }
        }
        for (_, members) in groups {
            let shared = Arc::clone(shared);
            // Blocking submit: with the pool's own queue full, batch
            // formation stalls and the pending queue absorbs load
            // until `queue_depth` turns it into `overloaded` replies.
            pool.submit(move || run_batch(&shared, &members));
        }
    }
}

fn run_batch(shared: &Shared, members: &[Pending]) {
    let kind = members[0].kind;
    let budget = members[0].budget;
    let supervisor = members[0].supervisor;
    let evaluator = kind.build(budget);
    let fingerprint = evaluator.config_fingerprint();
    let scenarios: Vec<Scenario> = members.iter().map(|p| p.scenario.clone()).collect();
    let refs: Vec<&dyn Evaluator> = vec![evaluator.as_ref()];
    // Each batch stays on its one pool worker: the pool is the
    // parallelism, and results are bit-identical either way.
    let options = SweepOptions {
        cache: Some(shared.cache.as_ref()),
        supervise: Some(&supervisor),
        ..SweepOptions::new(ExecutionMode::Serial)
    };
    run_sweep_with(&scenarios, &refs, &options, |_, _, record| {
        shared.resolve(&fingerprint, record);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Buffering, BusPolicy};

    /// A `Write` into a shared buffer, so tests can read replies back.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sink_pair() -> (Arc<ReplySink>, SharedBuf) {
        let buf = SharedBuf::default();
        let sink: Arc<ReplySink> =
            Arc::new(LineSink::new(Box::new(buf.clone()) as Box<dyn Write + Send>));
        (sink, buf)
    }

    fn eval_request(line: &str) -> EvalRequest {
        match parse_request(line) {
            Ok(Request::Eval(req)) => req,
            other => panic!("expected an eval request, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_full_request() {
        let req = eval_request(
            r#"{"id":"c1-7","scenario":{"n":8,"m":16,"r":8,"p":0.5,"policy":"mem","buffering":"buffered","arbitration":"lru","buses":1},"evaluator":"pfqn","budget":{"replications":2,"cycles":10000,"seed":7},"max_retries":1,"on_failure":"degrade","unit_budget":{"events":100000}}"#,
        );
        assert_eq!(req.id, "\"c1-7\"");
        assert_eq!(req.evaluator, EvaluatorKind::Pfqn);
        assert_eq!(req.scenario.params.n(), 8);
        assert_eq!(req.scenario.params.p(), 0.5);
        assert_eq!(req.scenario.policy, BusPolicy::MemoryPriority);
        assert_eq!(req.scenario.buffering, Buffering::Buffered);
        assert_eq!(req.budget.replications, 2);
        assert_eq!(req.budget.measure, 10_000);
        assert_eq!(req.budget.master_seed, 7);
        assert_eq!(req.max_retries, Some(1));
        assert_eq!(req.on_failure, Some(OnFailure::Degrade));
        assert_eq!(req.unit_budget.unwrap().max_events, Some(100_000));
    }

    #[test]
    fn bad_requests_get_structured_errors() {
        let cases = [
            ("{nope", "malformed"),
            (r#"{"id":1}"#, "missing \"scenario\""),
            (r#"{"id":1,"scenario":{"n":8,"m":8,"r":8},"evaluator":"nope"}"#, "unknown evaluator"),
            (r#"{"id":1,"scenario":{"n":0,"m":8,"r":8}}"#, "invalid parameter"),
            (r#"{"id":1,"scenario":{"n":8,"m":8,"r":8},"frobnicate":true}"#, "unknown request"),
            (r#"{"id":1,"op":"reboot"}"#, "unknown op"),
            (
                r#"{"id":1,"scenario":{"n":8,"m":8,"r":8},"budget":{"teraflops":9}}"#,
                "unknown budget",
            ),
            (r#"{"id":1,"scenario":{"n":8,"m":8,"r":8},"budget":{"cycles":0}}"#, "cycles"),
            (
                r#"{"id":1,"scenario":{"n":8,"m":8,"r":8},"budget":{"replications":0}}"#,
                "replications",
            ),
        ];
        for (line, needle) in cases {
            let err = parse_request(line).expect_err(line);
            assert!(err.message.contains(needle), "`{}` !~ `{needle}`", err.message);
            assert!(err.line().starts_with("{\"id\":"), "reply is structured: {}", err.line());
        }
        // Ids are echoed in errors whenever they were parseable.
        let err = parse_request(r#"{"id":42,"op":"reboot"}"#).unwrap_err();
        assert_eq!(err.id, "42");
    }

    #[test]
    fn broker_dedupes_identical_requests() {
        let cache = Arc::new(EvalCache::new());
        let broker = Broker::new(Arc::clone(&cache), BrokerConfig::default());
        let (sink, buf) = sink_pair();
        let duplicates = 8;
        for i in 0..duplicates {
            let req = eval_request(&format!(
                r#"{{"id":{i},"scenario":{{"n":8,"m":16,"r":8,"buffering":"buffered"}},"evaluator":"pfqn"}}"#
            ));
            broker.submit(req, &sink);
        }
        broker.drain();
        let counters = broker.counters();
        assert_eq!(counters.requests, duplicates);
        assert_eq!(counters.evaluated, 1, "one evaluation serves all duplicates");
        assert_eq!(
            counters.coalesced + counters.cache_replies,
            duplicates - 1,
            "every duplicate rode the first evaluation"
        );
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, duplicates, "exactly one reply per request");
        let rows: Vec<&str> = lines
            .iter()
            .map(|l| l.split_once(",\"row\":").expect("result reply carries a row").1)
            .collect();
        assert!(rows.iter().all(|r| *r == rows[0]), "duplicate rows are byte-identical");
        let fresh = lines.iter().filter(|l| l.contains("\"status\":\"fresh\"")).count();
        let cached = lines.iter().filter(|l| l.contains("\"status\":\"cached\"")).count();
        assert_eq!(fresh, 1, "exactly one request caused the evaluation");
        assert_eq!(cached as u64, duplicates - 1);
    }

    #[test]
    fn broker_replies_failed_for_out_of_domain_points() {
        let cache = Arc::new(EvalCache::new());
        let broker = Broker::new(Arc::clone(&cache), BrokerConfig::default());
        let (sink, buf) = sink_pair();
        // The §3.1.1 exact chain requires memory priority; the default
        // processor-priority point is out of its domain.
        let req = eval_request(r#"{"id":1,"scenario":{"n":4,"m":4,"r":4},"evaluator":"exact"}"#);
        broker.submit(req, &sink);
        broker.drain();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"status\":\"failed\""), "got: {text}");
        assert!(text.contains("does not support"), "error names the domain issue: {text}");
    }

    #[test]
    fn broker_sheds_load_with_overloaded_replies() {
        let cache = Arc::new(EvalCache::new());
        let broker = Broker::new(
            Arc::clone(&cache),
            BrokerConfig { queue_depth: 1, ..BrokerConfig::default() },
        );
        let (sink, buf) = sink_pair();
        // Distinct points, submitted faster than the queue depth of 1
        // can drain: at least one must be shed (the exact count races
        // with the scheduler, which is the point of backpressure).
        for i in 0..64u32 {
            let req = eval_request(&format!(
                r#"{{"id":{i},"scenario":{{"n":{},"m":16,"r":8,"buffering":"buffered"}},"evaluator":"pfqn"}}"#,
                i + 1
            ));
            broker.submit(req, &sink);
        }
        broker.drain();
        let counters = broker.counters();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 64, "every request got exactly one reply");
        assert_eq!(
            text.matches("\"status\":\"overloaded\"").count() as u64,
            counters.overloaded,
            "shed requests got the explicit backpressure reply"
        );
    }
}
