//! The sweep pipeline behind [`run_sweep_with`]: **plan → execute →
//! finalize**.
//!
//! * The **planner** settles every `(scenario, evaluator)` pair on the
//!   calling thread, in the order domain → screen → cache → dedup →
//!   group. An out-of-domain pair is answered there by the evaluator's
//!   own typed [`CoreError::UnsupportedScenario`] (one
//!   [`Evaluator::evaluate_unit`] call that rejects before doing any
//!   work), so it schedules nothing, skips screening and the cache,
//!   and never counts as an evaluator call. Screened and cached pairs
//!   get their records too; duplicates alias their first occurrence;
//!   what is left becomes jobs — one per work unit, or one per
//!   axis-incremental group.
//! * The **executor** runs every job under a [`Supervisor`]
//!   (`catch_unwind` isolation, deterministic retries, the budget
//!   watchdog). Fault-injection and backoff keys are `(pair, unit)`, so
//!   a fault plan hits the same units cold, warm or resumed.
//! * The **finalizer** combines units per pair in unit order, applies
//!   [`OnFailure`], feeds the memo cache, fans each record out to its
//!   duplicates, and streams records in scenario-major order.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use busnet_sim::exec::{catch_panic, parallel_consume, ExecutionMode};
use busnet_sim::fault::FaultPlan;
use busnet_sim::seeds::SeedSequence;

use super::{
    EvalUnit, Evaluation, Evaluator, ExactChainEval, FluidEval, PfqnEval, ReducedChainEval,
    Scenario,
};
use crate::cache::{cache_key, scenario_fingerprint, EvalCache};
use crate::error::CoreError;
use crate::sim::bus::{PriorSeed, UnitBudget};

/// Backoff ceiling of a retried unit, in milliseconds.
const BACKOFF_CAP_MS: u64 = 50;

/// Seed of the deterministic backoff-jitter streams (derived per
/// `(pair, unit)` key and attempt, so reruns sleep identically).
const RETRY_SEED: u64 = 0x5EED_FA17;

/// Relative EBW agreement tolerance for preferring the fluid fallback
/// over its analytic anchor under [`OnFailure::Degrade`] (the
/// screening rule's default tolerance).
const DEGRADE_TOLERANCE: f64 = 0.05;

/// How a sweep pair's result was produced, robustness-wise: the
/// supervision outcome carried on every [`SweepRecord`] and surfaced as
/// the sweep's `status` column.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UnitStatus {
    /// The evaluator's own result (fresh, cached, screened, alias, or
    /// its out-of-domain rejection).
    #[default]
    Ok,
    /// Retries were exhausted and the record carries the point's
    /// validated fluid/analytic fallback instead of the evaluator's
    /// result (`--on-failure degrade`).
    Degraded,
    /// Retries were exhausted and no fallback was taken; the record's
    /// `result` is the final classified error.
    Failed,
}

impl UnitStatus {
    /// Stable column value (`ok`, `degraded`, `failed`).
    pub fn name(&self) -> &'static str {
        match self {
            UnitStatus::Ok => "ok",
            UnitStatus::Degraded => "degraded",
            UnitStatus::Failed => "failed",
        }
    }
}

/// What a sweep does with a pair whose retries are exhausted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OnFailure {
    /// Cancel the remaining work units and drain the sweep; the failed
    /// and cancelled pairs surface as [`UnitStatus::Failed`] records.
    Abort,
    /// Stream a structured [`UnitStatus::Failed`] record and keep
    /// going.
    #[default]
    Skip,
    /// Fall back to the point's fluid/analytic anchor (the screening
    /// machinery) and stream it as [`UnitStatus::Degraded`]; points no
    /// model covers fall through to `Skip` behavior.
    Degrade,
}

impl OnFailure {
    /// Stable flag value (`abort`, `skip`, `degrade`).
    pub fn name(&self) -> &'static str {
        match self {
            OnFailure::Abort => "abort",
            OnFailure::Skip => "skip",
            OnFailure::Degrade => "degrade",
        }
    }

    /// Parses a `--on-failure` flag value.
    pub fn from_name(name: &str) -> Option<OnFailure> {
        match name {
            "abort" => Some(OnFailure::Abort),
            "skip" => Some(OnFailure::Skip),
            "degrade" => Some(OnFailure::Degrade),
            _ => None,
        }
    }
}

/// The sweep supervision policy: per-unit isolation (`catch_unwind`),
/// a deterministic seeded retry schedule with exponential backoff
/// capped at 50 ms, an optional per-unit budget watchdog, and the
/// exhausted-retries fallback ([`OnFailure`]).
///
/// Retries re-run the **same** pure computation (replication seeds
/// derive only from `(master seed, unit)`), so a unit that succeeds on
/// any attempt is bit-identical to a fault-free run; the fixed
/// backoff-jitter seed drives only sleeps, never results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Supervisor {
    /// Retries after the first attempt (so a unit runs at most
    /// `max_retries + 1` times).
    pub max_retries: u32,
    /// First-retry backoff in milliseconds (doubles per attempt).
    pub backoff_base_ms: u64,
    /// What to do with a pair whose retries are exhausted.
    pub on_failure: OnFailure,
    /// Optional per-unit event / wall-clock ceilings.
    pub unit_budget: Option<UnitBudget>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            max_retries: 2,
            backoff_base_ms: 2,
            on_failure: OnFailure::Skip,
            unit_budget: None,
        }
    }
}

/// One `(scenario, evaluator)` outcome of a sweep.
#[derive(Clone, Debug)]
pub struct SweepRecord {
    /// The evaluated scenario.
    pub scenario: Scenario,
    /// The evaluator's stable name.
    pub evaluator: &'static str,
    /// Whether the fluid screening pre-pass replaced this pair's
    /// simulation with the (validated) fluid prediction. Screened
    /// records carry the fluid evaluation and zero simulated events.
    pub screened: bool,
    /// Whether the result was replayed (memo-cache hit or intra-sweep
    /// duplicate) instead of computed by the evaluator this run.
    /// Bookkeeping only — cached results are bit-identical to fresh
    /// ones and this flag is not part of the CSV/JSON row schema.
    pub cached: bool,
    /// Supervision outcome.
    pub status: UnitStatus,
    /// Evaluator attempts spent on this pair **this run**: the maximum
    /// over its work units, 1 when nothing retried. Replayed records
    /// (cache hits, screened points, intra-sweep aliases) report 1, so
    /// warm re-runs stay byte-identical to cold ones.
    pub attempts: u32,
    /// The evaluation, or why this pair is out of domain / failed.
    pub result: Result<Evaluation, CoreError>,
}

impl SweepRecord {
    /// A fresh, unscreened, first-attempt record.
    fn new(
        scenario: &Scenario,
        evaluator: &'static str,
        result: Result<Evaluation, CoreError>,
    ) -> Self {
        SweepRecord {
            scenario: scenario.clone(),
            evaluator,
            screened: false,
            cached: false,
            status: UnitStatus::Ok,
            attempts: 1,
            result,
        }
    }
}

/// The opt-in fluid screening pre-pass of [`run_sweep_with`]
/// ([`SweepOptions::screen`], `busnet sweep --screen fluid`).
///
/// Every grid point is first solved with the fluid mean-field model
/// (microseconds, O(1) in `n`, default integrator controls). An
/// in-domain *screenable* pair (see [`Evaluator::fluid_screenable`])
/// is then **skipped** — its record carries the fluid evaluation,
/// flagged `screened = true` — when the fluid prediction is validated
/// within `tolerance` by a deterministic analytic anchor (§3.1.1 exact
/// chain, §4 reduced chain, or the §6 product-form model) at the same
/// point, or at the nearest anchored neighbor sharing every mode knob.
/// Screenable pairs that still simulate are **seeded**: the fluid
/// prediction becomes a [`PriorSeed`] for the adaptive stopping rule,
/// which may then accept early once the measurement confirms it (the
/// CI-width target is never relaxed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScreenPlan {
    /// Relative EBW agreement tolerance between the fluid prediction
    /// and its analytic anchor, and the relative trust band handed to
    /// the adaptive stopping rule as a prior.
    pub tolerance: f64,
}

impl Default for ScreenPlan {
    fn default() -> Self {
        ScreenPlan { tolerance: 0.05 }
    }
}

/// Per-scenario outcome of the screening pre-pass.
struct ScreenState {
    /// Converged fluid EBW prediction per scenario.
    fluid: Vec<Option<f64>>,
    /// Whether the fluid prediction is trusted at each scenario.
    screened: Vec<bool>,
}

/// Whether two scenarios differ only in system size `(n, m, r, p)` —
/// the neighbor relation of the screening rule.
fn same_knobs(a: &Scenario, b: &Scenario) -> bool {
    a.policy == b.policy
        && a.buffering == b.buffering
        && a.arbitration == b.arbitration
        && a.workload == b.workload
        && a.memory_service == b.memory_service
        && a.buses == b.buses
}

/// The first deterministic analytic vehicle covering `s`, evaluated.
fn anchor(s: &Scenario) -> Option<Evaluation> {
    let anchors: [&dyn Evaluator; 3] = [&ExactChainEval, &ReducedChainEval, &PfqnEval::default()];
    anchors.iter().find(|a| a.supports(s)).and_then(|a| a.evaluate(s).ok())
}

/// Whether a fluid prediction lies within `tolerance` of its anchor.
fn validated(fluid: f64, anchor: f64, tolerance: f64) -> bool {
    anchor.abs() > 1e-9 && ((fluid - anchor) / anchor).abs() <= tolerance
}

/// The degradation chain of `--on-failure degrade`: the same validated
/// fluid/analytic machinery the screening pre-pass trusts, applied to a
/// single failed point. Prefers the converged fluid prediction when an
/// analytic anchor validates it (the screening rule), falls back to
/// the anchor itself when they disagree, and to the fluid solution
/// alone when no anchor covers the point. `None` when no model covers
/// the point at all.
fn degraded_evaluation(scenario: &Scenario, evaluator: &'static str) -> Option<Evaluation> {
    let fluid_eval = FluidEval::default();
    let fluid = fluid_eval
        .solve(scenario)
        .ok()
        .filter(|sol| sol.converged)
        .and_then(|_| fluid_eval.evaluate(scenario).ok());
    let chosen = match (fluid, anchor(scenario)) {
        (Some(f), Some(a)) if !validated(f.ebw(), a.ebw(), DEGRADE_TOLERANCE) => Some(a),
        (f, a) => f.or(a),
    };
    chosen.map(|ev| Evaluation { evaluator, ..ev })
}

/// Runs the fluid model and the analytic anchors over every scenario
/// and decides which points the screening pass may skip.
fn screen_pass(scenarios: &[Scenario], plan: &ScreenPlan) -> ScreenState {
    let fluid_eval = FluidEval::default();
    let fluid: Vec<Option<f64>> = scenarios
        .iter()
        .map(|s| fluid_eval.solve(s).ok().filter(|sol| sol.converged).map(|sol| sol.ebw))
        .collect();
    // Same-point verdict: does the fluid prediction agree with an
    // analytic anchor here? None = no anchor covers this point.
    let own: Vec<Option<bool>> = scenarios
        .iter()
        .zip(&fluid)
        .map(|(s, f)| match (f, anchor(s)) {
            (Some(f), Some(a)) if a.ebw().abs() > 1e-9 => {
                Some(validated(*f, a.ebw(), plan.tolerance))
            }
            _ => None,
        })
        .collect();
    // Neighbor rule where no anchor covers the point: trust the fluid
    // model iff it is validated at the nearest anchored point that
    // shares every mode knob (distance in log-size space; the first of
    // equally near points wins).
    let log_distance = |a: &Scenario, b: &Scenario| {
        let ln = |v: u32| f64::from(v).ln();
        (ln(a.params.n()) - ln(b.params.n())).abs()
            + (ln(a.params.m()) - ln(b.params.m())).abs()
            + (ln(a.params.r()) - ln(b.params.r())).abs()
            + (a.params.p() - b.params.p()).abs()
    };
    let screened = scenarios
        .iter()
        .enumerate()
        .map(|(i, si)| {
            fluid[i].is_some()
                && own[i].unwrap_or_else(|| {
                    scenarios
                        .iter()
                        .zip(&own)
                        .filter(|(sj, _)| same_knobs(si, sj))
                        .filter_map(|(sj, ok)| Some((log_distance(si, sj), (*ok)?)))
                        .min_by(|a, b| a.0.total_cmp(&b.0))
                        .is_some_and(|(_, ok)| ok)
                })
        })
        .collect();
    ScreenState { fluid, screened }
}

/// Fans `scenarios × evaluators` out under `mode` and returns all
/// records in deterministic scenario-major order — [`run_sweep_with`]
/// with default [`SweepOptions`].
///
/// The schedulable grain is one **work unit** — a single replication of
/// one `(scenario, evaluator)` pair ([`Evaluator::work_units`]) — so a
/// sweep keeps every worker busy even when the grid has fewer points
/// than the machine has cores, and the work-stealing pool rebalances
/// when one saturated point simulates 10× longer than an idle one.
/// Units are recombined per pair in unit order on the calling thread,
/// so results are bit-identical to a serial sweep.
///
/// `on_record(done, total, record)` streams each pair's record **in
/// scenario-major order** as soon as it (and every record before it) is
/// available, so callers can render progressively even under parallel
/// execution. Out-of-domain pairs surface as
/// `Err(UnsupportedScenario)` records rather than aborting the sweep.
pub fn run_sweep(
    scenarios: &[Scenario],
    evaluators: &[&dyn Evaluator],
    mode: ExecutionMode,
    on_record: impl FnMut(usize, usize, &SweepRecord),
) -> Vec<SweepRecord> {
    run_sweep_with(scenarios, evaluators, &SweepOptions::new(mode), on_record)
}

/// Amortization and execution controls of [`run_sweep_with`]. The
/// [`SweepOptions::new`] defaults reproduce [`run_sweep`]: no
/// screening, no memo cache, incremental grouping on (grouping is a
/// pure perf optimization whose results are bit-identical), the
/// default supervisor, no fault plan.
#[derive(Clone, Copy, Default)]
pub struct SweepOptions<'a> {
    /// How work units fan out across threads.
    pub mode: ExecutionMode,
    /// Optional fluid screening pre-pass ([`ScreenPlan`]): screened
    /// pairs skip simulation entirely and carry the validated fluid
    /// prediction; seedable pairs warm-start their adaptive stopping
    /// rule with it.
    pub screen: Option<&'a ScreenPlan>,
    /// Optional evaluation memo cache ([`crate::cache`]), consulted
    /// for in-domain pairs that are neither screened nor prior-seeded
    /// (a primed evaluation may differ from an unprimed one, so those
    /// pairs bypass the cache entirely). Hits skip the evaluator;
    /// misses are inserted after evaluation.
    pub cache: Option<&'a EvalCache>,
    /// Whether to solve grid points sharing an
    /// [`Evaluator::incremental_key`] through one resumable pass
    /// (population-axis MVA/convolution sweeps, depth-axis
    /// approximation groups).
    pub group_incremental: bool,
    /// Work-unit supervision ([`Supervisor`]): `catch_unwind`
    /// isolation, deterministic retries, budget watchdog, and the
    /// exhausted-retries fallback. `None` means
    /// [`Supervisor::default`]; every sweep is supervised.
    pub supervise: Option<&'a Supervisor>,
    /// Optional deterministic chaos plan injecting panics/delays at the
    /// work-unit sites, keyed by `(pair index, unit)`.
    pub faults: Option<&'a FaultPlan>,
}

impl<'a> SweepOptions<'a> {
    /// [`run_sweep`]-equivalent options under `mode`.
    pub fn new(mode: ExecutionMode) -> Self {
        SweepOptions {
            mode,
            screen: None,
            cache: None,
            group_incremental: true,
            supervise: None,
            faults: None,
        }
    }
}

/// Process-wide count of fresh `(scenario, evaluator)` pair
/// evaluations launched by sweep execution: each pair whose units
/// actually run counts once, and each member of an axis-incremental
/// group counts once (retries of a unit do not add). Out-of-domain
/// pairs, cache hits, intra-sweep aliases, and screened pairs never
/// reach the executor and leave the counter unchanged — which makes
/// the delta across a request stream the direct measure of
/// dedup/coalescing savings (the serve broker's acceptance gate) and
/// of the warm-cache "zero evaluator calls" property.
static EVALUATOR_CALLS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide evaluator-call counter (see
/// [`run_sweep_with`]): monotone over the process lifetime, so meters
/// take a before/after difference.
pub fn evaluator_calls() -> u64 {
    EVALUATOR_CALLS.load(Ordering::Relaxed)
}

/// Engine work units behind one [`EvalUnit`] — the post-hoc metric the
/// supervisor checks against [`UnitBudget::max_events`] for evaluators
/// that do not thread the watchdog themselves.
fn unit_events(unit: &EvalUnit) -> u64 {
    match unit {
        EvalUnit::Replication(r) => r.events,
        EvalUnit::Whole(e) => e.simulated_events,
    }
}

/// Whether a failure may be cured by re-running the same computation.
/// Panics and wall-clock overruns are (a fault plan or a loaded machine
/// is transient); everything else — invalid parameters, deterministic
/// model failures, event-count overruns (the same events recur on
/// every attempt) — is not.
fn retryable(err: &CoreError) -> bool {
    matches!(err, CoreError::Panicked { .. } | CoreError::BudgetExceeded { what: "millis", .. })
}

/// Whether a failure should fall through to the degradation chain
/// under [`OnFailure::Degrade`]. Invalid-parameter errors stay errors
/// — degrading them would mask a caller bug — and cancellations stay
/// cancellations. An invalid (non-finite) result stays a failure too:
/// it marks a point past the analytic models' numeric range, and those
/// models are the anchors the fallback would turn to.
fn degradable(err: &CoreError) -> bool {
    matches!(
        err,
        CoreError::Panicked { .. }
            | CoreError::BudgetExceeded { .. }
            | CoreError::Markov(_)
            | CoreError::Queueing(_)
    )
}

/// One schedulable job: a single work unit of one pair (with the
/// fluid prior it runs under), or a whole axis-incremental group of
/// one evaluator's pairs solved in one pass.
enum Job {
    Unit { pair: usize, unit: u32, prior: Option<PriorSeed> },
    Group { members: Vec<usize> },
}

/// What one [`Job`] produced: a unit's result and the attempts it
/// took, or one result per group member.
enum JobOutput {
    Unit(Result<EvalUnit, CoreError>, u32),
    Group(Vec<Result<Evaluation, CoreError>>),
}

/// A delivered work unit: its result and the attempts it took.
type UnitSlot = Option<(Result<EvalUnit, CoreError>, u32)>;

/// The inputs every stage reads.
struct Sweep<'a> {
    scenarios: &'a [Scenario],
    evaluators: &'a [&'a dyn Evaluator],
    options: &'a SweepOptions<'a>,
    sup: &'a Supervisor,
    /// Set once an [`OnFailure::Abort`] sweep has a casualty.
    cancelled: AtomicBool,
}

/// The sweep's state: the planner's verdicts, then the finalizer's
/// progress. Pairs are indexed scenario-major (`pair = scenario ×
/// evaluators + evaluator`).
struct Plan {
    /// Every pair's record once settled: at planning time for
    /// out-of-domain, screened and cached pairs, by the finalizer for
    /// the rest.
    records: Vec<Option<SweepRecord>>,
    /// Memo-cache key of each pair whose miss the finalizer fills.
    cache_keys: Vec<Option<String>>,
    /// Intra-sweep duplicates of each source pair.
    aliases: HashMap<usize, Vec<usize>>,
    /// Unit slots of each unit-scheduled pair (empty for other pairs).
    units: Vec<Vec<UnitSlot>>,
    jobs: Vec<Job>,
    /// Streaming cursor: every record before it has been emitted.
    next: usize,
}

impl Sweep<'_> {
    /// The evaluator and scenario of `pair`.
    fn pair(&self, pair: usize) -> (&dyn Evaluator, &Scenario) {
        let n = self.evaluators.len();
        (self.evaluators[pair % n], &self.scenarios[pair / n])
    }

    /// The planner: settles each pair in the order domain → screen →
    /// cache → dedup → group, and emits either a finished record or
    /// jobs.
    fn plan(&self) -> Plan {
        let (scenarios, evaluators, options) = (self.scenarios, self.evaluators, self.options);
        let total = scenarios.len() * evaluators.len();
        let screen = options.screen.map(|plan| (plan, screen_pass(scenarios, plan)));
        // Pair fingerprints power both the memo cache and intra-sweep
        // dedup; evaluator config fingerprints are computed once.
        let scenario_fps: Vec<String> = scenarios.iter().map(scenario_fingerprint).collect();
        let evaluator_fps: Vec<String> =
            evaluators.iter().map(|e| e.config_fingerprint()).collect();
        let mut plan = Plan {
            records: (0..total).map(|_| None).collect(),
            cache_keys: vec![None; total],
            aliases: HashMap::new(),
            units: (0..total).map(|_| Vec::new()).collect(),
            jobs: Vec::new(),
            next: 0,
        };
        // First unseeded pair per (evaluator, fingerprint); later
        // duplicates alias it.
        let mut dedup_source: HashMap<(usize, &str), usize> = HashMap::new();
        // Pairs awaiting incremental grouping, per (evaluator, key).
        let mut groups: HashMap<(usize, String), Vec<usize>> = HashMap::new();
        for p in 0..total {
            let (evaluator, scenario) = self.pair(p);
            let (s, e, name) = (p / evaluators.len(), p % evaluators.len(), evaluator.name());
            if !evaluator.supports(scenario) {
                // The evaluator's own typed rejection, before any work.
                let result = evaluator
                    .evaluate_unit(scenario, 0)
                    .and_then(|unit| evaluator.combine_units(scenario, vec![unit]));
                plan.records[p] = Some(SweepRecord::new(scenario, name, result));
                continue;
            }
            let mut prior = None;
            if let (Some((screen, state)), true) = (&screen, evaluator.fluid_screenable()) {
                if let Some(fluid_ebw) = state.fluid[s] {
                    if state.screened[s] {
                        let result = FluidEval::default()
                            .evaluate(scenario)
                            .map(|ev| Evaluation { evaluator: name, ..ev });
                        let record = SweepRecord::new(scenario, name, result);
                        plan.records[p] = Some(SweepRecord { screened: true, ..record });
                        continue;
                    }
                    let trust = (screen.tolerance * fluid_ebw).abs().max(f64::EPSILON);
                    prior = Some(PriorSeed { ebw: fluid_ebw, trust });
                }
            }
            // A primed run may stop earlier than an unprimed one, so a
            // seeded pair is not the canonical evaluation: it bypasses
            // the cache, dedup and grouping.
            if prior.is_none() {
                if let Some(cache) = options.cache {
                    let key = cache_key(&evaluator_fps[e], scenario);
                    if let Some(hit) = cache.lookup(&key) {
                        let record =
                            SweepRecord::new(scenario, name, Ok(hit.attach(name, scenario)));
                        plan.records[p] = Some(SweepRecord { cached: true, ..record });
                        continue;
                    }
                    plan.cache_keys[p] = Some(key);
                }
                match dedup_source.entry((e, scenario_fps[s].as_str())) {
                    Entry::Occupied(source) => {
                        plan.aliases.entry(*source.get()).or_default().push(p);
                        continue;
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(p);
                    }
                }
                if options.group_incremental {
                    if let Some(key) = evaluator.incremental_key(scenario) {
                        groups.entry((e, key)).or_default().push(p);
                        continue;
                    }
                }
            }
            plan.push_units(p, evaluator.work_units(scenario), prior);
        }
        // HashMap iteration order is arbitrary; schedule groups in pair
        // order so serial runs touch work in a reproducible sequence.
        let mut grouped: Vec<Vec<usize>> = groups.into_values().collect();
        grouped.sort_by_key(|members| members[0]);
        for members in grouped {
            if let [only] = members[..] {
                // A group of one gains nothing; schedule it as units.
                let (evaluator, scenario) = self.pair(only);
                plan.push_units(only, evaluator.work_units(scenario), None);
            } else {
                plan.jobs.push(Job::Group { members });
            }
        }
        plan
    }

    /// The executor: runs one job on a pool thread.
    fn run(&self, job: &Job) -> JobOutput {
        match job {
            &Job::Unit { pair, unit, prior } => {
                // One evaluator call per pair (its units share one
                // evaluation), metered on the first unit.
                if unit == 0 {
                    EVALUATOR_CALLS.fetch_add(1, Ordering::Relaxed);
                }
                let (result, attempts) = self.supervise(pair, unit, prior);
                JobOutput::Unit(result, attempts)
            }
            Job::Group { members } => {
                EVALUATOR_CALLS.fetch_add(members.len() as u64, Ordering::Relaxed);
                let evaluator = self.pair(members[0]).0;
                let group: Vec<&Scenario> = members.iter().map(|&p| self.pair(p).1).collect();
                // Groups are pure solver passes (no replication seeds,
                // no injection sites), so supervision for them is
                // isolation only: a panic becomes one typed failure per
                // member instead of tearing down the sweep.
                let results =
                    catch_panic(|| evaluator.evaluate_group(&group)).unwrap_or_else(|message| {
                        let err = CoreError::Panicked { message };
                        members.iter().map(|_| Err(err.clone())).collect()
                    });
                JobOutput::Group(results)
            }
        }
    }

    /// Runs one work unit under the supervisor: `catch_unwind`
    /// isolation, typed failure classification, deterministic seeded
    /// retries with capped exponential backoff, and post-hoc budget
    /// enforcement. Returns the final result plus the attempts spent.
    ///
    /// The unit's `(pair, unit)` identity keys both the backoff-jitter
    /// stream and the fault plan's injection decisions, so a chaos run
    /// reproduces exactly whatever the cache or the screen settled.
    fn supervise(
        &self,
        pair: usize,
        unit: u32,
        prior: Option<PriorSeed>,
    ) -> (Result<EvalUnit, CoreError>, u32) {
        let ((evaluator, scenario), sup) = (self.pair(pair), self.sup);
        let budget = sup.unit_budget.filter(|b| !b.is_unlimited());
        let jitter = SeedSequence::new(RETRY_SEED).child(pair as u64).child(u64::from(unit));
        let mut last_err: Option<CoreError> = None;
        for attempt in 0..=sup.max_retries {
            if sup.on_failure == OnFailure::Abort && self.cancelled.load(Ordering::Relaxed) {
                let cause = last_err
                    .map_or_else(|| "a sibling work unit failed".to_owned(), |e| e.to_string());
                return (Err(CoreError::Aborted { cause }), attempt.max(1));
            }
            if attempt > 0 {
                let backoff = sup
                    .backoff_base_ms
                    .saturating_mul(1u64 << u64::from(attempt - 1).min(16))
                    .min(BACKOFF_CAP_MS);
                let extra = if backoff > 0 {
                    jitter.stream(u64::from(attempt)) % (backoff / 2 + 1)
                } else {
                    0
                };
                std::thread::sleep(std::time::Duration::from_millis(backoff + extra));
            }
            let start = std::time::Instant::now();
            let attempt_result = catch_panic(|| {
                if let Some(plan) = self.options.faults {
                    plan.inject_unit(pair as u64, unit, u64::from(attempt));
                }
                evaluator.evaluate_unit_supervised(scenario, unit, prior, budget.as_ref())
            })
            .unwrap_or_else(|message| Err(CoreError::Panicked { message }))
            .and_then(|value| {
                // Post-hoc enforcement: covers evaluators that ignore the
                // threaded watchdog, and charges injected delays plus
                // backoff-free overhead against the wall clock.
                if let Some(b) = &budget {
                    b.check(unit_events(&value), &start)?;
                }
                Ok(value)
            });
            match attempt_result {
                Ok(value) => return (Ok(value), attempt + 1),
                Err(err) if retryable(&err) => last_err = Some(err),
                Err(err) => return (Err(err), attempt + 1),
            }
        }
        let err = last_err.expect("retries exhausted without a recorded failure");
        if sup.on_failure == OnFailure::Abort {
            self.cancelled.store(true, Ordering::Relaxed);
        }
        (Err(err), sup.max_retries + 1)
    }
}

impl Plan {
    fn push_units(&mut self, pair: usize, units: u32, prior: Option<PriorSeed>) {
        let units = units.max(1);
        self.units[pair] = (0..units).map(|_| None).collect();
        self.jobs.extend((0..units).map(|unit| Job::Unit { pair, unit, prior }));
    }

    /// The finalizer, on the calling thread in completion order: files
    /// one job's output; a pair whose units are all in is combined (in
    /// unit order — deterministic) and finished.
    fn accept(
        &mut self,
        sweep: &Sweep<'_>,
        job: &Job,
        output: JobOutput,
        on_record: &mut dyn FnMut(usize, usize, &SweepRecord),
    ) {
        match (job, output) {
            (&Job::Unit { pair, unit, .. }, JobOutput::Unit(result, attempts)) => {
                let slots = &mut self.units[pair];
                slots[unit as usize] = Some((result, attempts));
                if slots.iter().any(Option::is_none) {
                    return;
                }
                let attempts = slots.iter().flatten().map(|(_, a)| *a).max().unwrap_or(1);
                let units: Result<Vec<EvalUnit>, CoreError> =
                    slots.drain(..).map(|slot| slot.expect("unit delivered").0).collect();
                let (evaluator, scenario) = sweep.pair(pair);
                let result = units.and_then(|units| evaluator.combine_units(scenario, units));
                let record = SweepRecord::new(scenario, evaluator.name(), result);
                self.finish(sweep, pair, SweepRecord { attempts, ..record }, on_record);
            }
            (Job::Group { members }, JobOutput::Group(results)) => {
                debug_assert_eq!(results.len(), members.len());
                for (&pair, result) in members.iter().zip(results) {
                    let (evaluator, scenario) = sweep.pair(pair);
                    let record = SweepRecord::new(scenario, evaluator.name(), result);
                    self.finish(sweep, pair, record, on_record);
                }
            }
            _ => unreachable!("a job's output matches its kind"),
        }
    }

    /// Applies the failure policy to one computed record, feeds the
    /// memo cache, replicates the record onto its dedup aliases (each
    /// keeping its own scenario), and streams every record that is now
    /// contiguous from the cursor.
    fn finish(
        &mut self,
        sweep: &Sweep<'_>,
        pair: usize,
        mut record: SweepRecord,
        on_record: &mut dyn FnMut(usize, usize, &SweepRecord),
    ) {
        let on_failure = sweep.sup.on_failure;
        if let Ok(ev) = &record.result {
            if !ev.metrics.has_valid_ebw() {
                let ebw = ev.metrics.ebw.to_string();
                record.result = Err(CoreError::InvalidResult { evaluator: record.evaluator, ebw });
            }
        }
        if let Err(err) = &record.result {
            record.status = UnitStatus::Failed;
            if on_failure == OnFailure::Degrade && degradable(err) {
                if let Some(ev) = degraded_evaluation(&record.scenario, record.evaluator) {
                    record.result = Ok(ev);
                    record.status = UnitStatus::Degraded;
                }
            }
            if record.status == UnitStatus::Failed && on_failure == OnFailure::Abort {
                sweep.cancelled.store(true, Ordering::Relaxed);
            }
        }
        // Only the evaluator's own results are canonical: degraded
        // fallbacks must never masquerade as cached evaluations.
        if let (UnitStatus::Ok, Some(cache), Some(key), Ok(evaluation)) =
            (record.status, sweep.options.cache, &self.cache_keys[pair], &record.result)
        {
            cache.insert(key, evaluation);
        }
        for &alias in self.aliases.get(&pair).into_iter().flatten() {
            let scenario = sweep.pair(alias).1;
            let result =
                record.result.clone().map(|ev| Evaluation { scenario: scenario.clone(), ..ev });
            let copy = SweepRecord::new(scenario, record.evaluator, result);
            self.records[alias] = Some(SweepRecord { cached: true, status: record.status, ..copy });
        }
        self.records[pair] = Some(record);
        self.stream(on_record);
    }

    /// Emits every record contiguous from the cursor.
    fn stream(&mut self, on_record: &mut dyn FnMut(usize, usize, &SweepRecord)) {
        while let Some(record) = self.records.get(self.next).and_then(Option::as_ref) {
            self.next += 1;
            on_record(self.next, self.records.len(), record);
        }
    }
}

/// [`run_sweep`] with the full amortization stack ([`SweepOptions`]):
/// fluid screening, content-hashed memo caching, always-on intra-sweep
/// deduplication of identical `(scenario, evaluator)` pairs, and
/// axis-incremental solver grouping, all settled by one planning pass
/// before any work is scheduled (see the module docs). Every
/// amortization preserves the streaming order and produces records
/// bit-identical to the plain sweep.
pub fn run_sweep_with(
    scenarios: &[Scenario],
    evaluators: &[&dyn Evaluator],
    options: &SweepOptions<'_>,
    mut on_record: impl FnMut(usize, usize, &SweepRecord),
) -> Vec<SweepRecord> {
    let default_supervisor = Supervisor::default();
    let sup = options.supervise.unwrap_or(&default_supervisor);
    let sweep = Sweep { scenarios, evaluators, options, sup, cancelled: AtomicBool::new(false) };
    let mut plan = sweep.plan();
    let jobs = std::mem::take(&mut plan.jobs);
    // Records settled at planning time stream before the first job
    // completes (and are all there is when nothing was scheduled).
    plan.stream(&mut on_record);
    parallel_consume(
        &jobs,
        options.mode,
        |_, job| sweep.run(job),
        |i, output| plan.accept(&sweep, &jobs[i], output, &mut on_record),
    );
    plan.records.into_iter().map(|slot| slot.expect("every pair completed")).collect()
}
