//! The multiplexed single-bus simulator (paper §§2, 6).
//!
//! One step = one bus cycle. Normative dynamics (DESIGN.md §5):
//!
//! 1. Processors whose think timer expired flip a Bernoulli(`p`) coin:
//!    success issues a request to a module drawn from the
//!    [`Workload`], failure waits one processor cycle and flips
//!    again (hypothesis *f*).
//! 2. If a bus channel is free, arbitration: memory candidates are
//!    modules holding a finished result; processor candidates are
//!    pending requests whose target can accept them — an *idle* module
//!    (hypothesis *h*) or, with buffering, a module with spare input
//!    capacity. The favoured side (policy *g′*/*g″*) wins; ties break
//!    per the [`ArbitrationKind`] (uniform random in the paper).
//! 3. End of cycle: transfers land (requests start service, returns
//!    release their processor), services progress, completed modules
//!    deposit results (buffered modules then pull their input queue).
//!
//! ## Engines
//!
//! Two engines share these dynamics (select via
//! [`BusSimBuilder::engine`]):
//!
//! * [`EngineKind::Cycle`] — this module's [`BusSim`]: one `step()`
//!   per bus cycle, the paper's original formulation and the reference
//!   for differential validation.
//! * [`EngineKind::Event`] — [`super::event_bus::EventBusSim`]: the
//!   same stochastic process on the discrete-event kernel
//!   (`busnet_sim::event`), where think timers, memory completions,
//!   and bus grants are scheduled events and idle cycles cost nothing.
//!   Statistically equivalent (independent RNG streams), and much
//!   faster at large `r` / small `p`.
//!
//! ## Arbitration and the paper's hypotheses
//!
//! [`ArbitrationKind`] makes hypothesis *h* (uniform-random
//! tie-breaking) a pluggable axis:
//!
//! * [`ArbitrationKind::Random`] — the paper's hypothesis *h* exactly;
//!   the analytic chains assume it.
//! * [`ArbitrationKind::RoundRobin`] — relaxes *h* to a rotating
//!   pointer; preserves the symmetric-load EBW (hypothesis *e* keeps
//!   every candidate statistically identical) while hard-bounding
//!   per-processor waiting spread.
//! * [`ArbitrationKind::Lru`] — relaxes *h* toward an explicitly
//!   fairness-seeking arbiter; the spread-minimizing reference point.
//! * [`ArbitrationKind::Priority`] — *breaks* the symmetry hypotheses
//!   on purpose: fixed linear priority is the starvation worst case,
//!   bounding how unfair the bus can get without changing capacity.
//!
//! ## Extensions beyond the paper
//!
//! The builder exposes three studied generalizations (defaults
//! reproduce the paper exactly):
//!
//! * [`BusSimBuilder::channels`] — `b` multiplexed bus channels,
//!   the system the paper's reference 5 hints at ("four buses…");
//! * [`Buffering::Depth`] / [`Buffering::Infinite`] — FIFO
//!   input/output buffers deeper than the paper's one-deep proposal
//!   (the buffer-sizing axis), with per-module occupancy telemetry in
//!   the [`SimReport`];
//! * [`BusSimBuilder::workload`] — non-uniform workloads (hot-spot /
//!   weighted reference skew, per-processor think probabilities),
//!   relaxing hypotheses *e* and *f*.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use busnet_sim::arbiter::Arbiter;
use busnet_sim::batch::SequentialStopping;
use busnet_sim::clock::MeasurementWindow;
use busnet_sim::counters::{SimCounters, WindowSeries};
use busnet_sim::histogram::Histogram;
use busnet_sim::stats::{jain_fairness_index, RunningStats};

use crate::error::CoreError;
use crate::metrics::Metrics;
use crate::params::{Buffering, BusPolicy, SystemParams, Workload};
use crate::sim::address::{MmppState, ModuleSampler};
use crate::sim::event_bus::EventBusSim;
use crate::sim::service::ServiceTime;

pub use busnet_sim::arbiter::ArbitrationKind;
pub use busnet_sim::event::EngineKind;

/// A processor's request token, carried through module buffers and bus
/// transfers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Token {
    proc: usize,
    issued: u64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum ProcPhase {
    /// Internal processing; flips the request coin when `until` is
    /// reached.
    Thinking { until: u64 },
    /// Holds a request to `module`, waiting to win the bus.
    Pending { module: usize, since: u64, issued: u64 },
    /// Request delivered; waiting for the result.
    Waiting,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct ModuleService {
    token: Token,
    /// Remaining service cycles; 0 means finished but blocked on a full
    /// output buffer (buffered mode only).
    remaining: u32,
}

#[derive(Clone, Debug, Default, PartialEq)]
struct Module {
    /// Input FIFO (buffered mode only; capacity = buffer depth).
    input: VecDeque<Token>,
    service: Option<ModuleService>,
    /// Output FIFO of finished results waiting for the bus (capacity =
    /// buffer depth; length ≤ 1 when unbuffered).
    output: VecDeque<Token>,
}

impl Module {
    /// Whether one more request may be routed here, given `depth`
    /// (0 = unbuffered) and the number of requests already in flight on
    /// the bus toward this module.
    fn can_accept(&self, depth: u32, inflight: u32) -> bool {
        module_can_accept(
            depth,
            self.service.is_some(),
            self.input.len(),
            self.output.len(),
            inflight,
        )
    }

    fn is_serving(&self) -> bool {
        matches!(self.service, Some(s) if s.remaining > 0)
    }
}

/// Which side wins a free channel when both want it (hypothesis *g*),
/// shared by the cycle and event engines so the two cannot drift.
pub(crate) fn grant_memory_side(policy: BusPolicy, memory_ready: bool, proc_ready: bool) -> bool {
    match policy {
        BusPolicy::ProcessorPriority => memory_ready && !proc_ready,
        BusPolicy::MemoryPriority => memory_ready,
    }
}

/// The admission rule (hypothesis *h* plus the §6 buffer capacity),
/// shared by the cycle and event engines so the two cannot drift:
/// whether one more request may be routed to a module with the given
/// queue state and `inflight` requests already on the bus toward it.
pub(crate) fn module_can_accept(
    depth: u32,
    service_occupied: bool,
    input_len: usize,
    output_len: usize,
    inflight: u32,
) -> bool {
    if depth == 0 {
        !service_occupied && output_len == 0 && input_len == 0 && inflight == 0
    } else {
        // Capacity: the input FIFO plus the service stage if idle.
        input_len as u32 + inflight < depth + u32::from(!service_occupied)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Transfer {
    Request { token: Token, module: usize },
    Return { token: Token },
}

/// Builder for [`BusSim`].
///
/// # Example
///
/// ```
/// use busnet_core::params::{BusPolicy, Buffering, SystemParams};
/// use busnet_core::sim::bus::BusSimBuilder;
///
/// let report = BusSimBuilder::new(SystemParams::new(8, 16, 8)?)
///     .policy(BusPolicy::ProcessorPriority)
///     .buffering(Buffering::Buffered)
///     .seed(7)
///     .warmup_cycles(1_000)
///     .measure_cycles(10_000)
///     .build()
///     .run();
/// assert!(report.ebw() > 0.0);
/// # Ok::<(), busnet_core::CoreError>(())
/// ```
#[derive(Clone, Debug)]
pub struct BusSimBuilder {
    pub(crate) params: SystemParams,
    pub(crate) policy: BusPolicy,
    pub(crate) buffering: Buffering,
    pub(crate) channels: u32,
    pub(crate) workload: Workload,
    pub(crate) arbitration: ArbitrationKind,
    pub(crate) engine: EngineKind,
    pub(crate) memory_service: Option<ServiceTime>,
    pub(crate) bus_transfer: ServiceTime,
    pub(crate) seed: u64,
    pub(crate) warmup: u64,
    pub(crate) measure: u64,
    pub(crate) window_cycles: Option<u64>,
}

impl BusSimBuilder {
    /// Starts a builder with the paper's defaults: priority to
    /// processors, no buffering, one bus channel, uniform addressing,
    /// random arbitration, constant service times, 200 000 measured
    /// cycles after 20 000 warmup cycles.
    pub fn new(params: SystemParams) -> Self {
        BusSimBuilder {
            params,
            policy: BusPolicy::ProcessorPriority,
            buffering: Buffering::Unbuffered,
            channels: 1,
            workload: Workload::Uniform,
            arbitration: ArbitrationKind::Random,
            engine: EngineKind::Cycle,
            memory_service: None,
            bus_transfer: ServiceTime::Constant(1),
            seed: 0x5EED,
            warmup: 20_000,
            measure: 200_000,
            window_cycles: None,
        }
    }

    /// Enables windowed transient telemetry: the measured region is
    /// cut into `width`-cycle windows and the report carries per-window
    /// EBW / busy / input-queue trajectories ([`SimReport::windows`]).
    /// Whole-run statistics are unchanged — windows are extra integer
    /// accumulators on the same clipping rules. `width` is clamped to
    /// at least 1.
    pub fn window_cycles(mut self, width: u64) -> Self {
        self.window_cycles = Some(width.max(1));
        self
    }

    /// Sets the arbitration policy (hypothesis *g*).
    pub fn policy(mut self, policy: BusPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the buffering scheme (§6, generalized to depth `k` via
    /// [`Buffering::Depth`] and [`Buffering::Infinite`]).
    pub fn buffering(mut self, buffering: Buffering) -> Self {
        self.buffering = buffering;
        self
    }

    /// The effective input/output FIFO depth the built simulator will
    /// use: the depth implied by the [`Buffering`] scheme (0 when
    /// unbuffered, `k` for `Depth(k)`, `n` when infinite).
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::InvalidParameter`] when the scheme is
    /// invalid (`Depth(k)` with `k > 4096`).
    pub fn resolved_depth(&self) -> Result<u32, crate::CoreError> {
        self.buffering.validate()?;
        Ok(self.buffering.effective_depth(self.params.n()))
    }

    /// Sets the number of multiplexed bus channels (extension; the
    /// paper's system has 1). Values are clamped to at least 1.
    pub fn channels(mut self, channels: u32) -> Self {
        self.channels = channels.max(1);
        self
    }

    /// Sets the workload: how references distribute over modules
    /// (hypothesis *e* relaxation) and how think probabilities vary
    /// per processor (hypothesis *f* relaxation).
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// The validated [`Workload`] the built simulator will drive.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::InvalidParameter`] when the workload is
    /// invalid for this system.
    pub fn resolved_workload(&self) -> Result<Workload, crate::CoreError> {
        self.workload.validate(self.params.n(), self.params.m())?;
        Ok(self.workload.clone())
    }

    /// Sets the candidate tie-breaking rule (hypothesis *h*
    /// alternative).
    pub fn arbitration(mut self, arbitration: ArbitrationKind) -> Self {
        self.arbitration = arbitration;
        self
    }

    /// Selects the simulation engine (cycle-stepped vs event-driven)
    /// used by [`BusSimBuilder::run`]. The engines realize the same
    /// stochastic process; the event engine skips idle cycles.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the memory service-time distribution (default:
    /// `Constant(r)`).
    pub fn memory_service(mut self, service: ServiceTime) -> Self {
        self.memory_service = Some(service);
        self
    }

    /// Overrides the bus transfer-time distribution (default:
    /// `Constant(1)`).
    pub fn bus_transfer(mut self, service: ServiceTime) -> Self {
        self.bus_transfer = service;
        self
    }

    /// Sets the RNG seed (runs are fully deterministic given the seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of discarded warmup cycles.
    pub fn warmup_cycles(mut self, cycles: u64) -> Self {
        self.warmup = cycles;
        self
    }

    /// Sets the number of measured cycles.
    pub fn measure_cycles(mut self, cycles: u64) -> Self {
        self.measure = cycles.max(1);
        self
    }

    /// Builds the cycle-stepped simulator (regardless of the
    /// [`BusSimBuilder::engine`] knob; use [`BusSimBuilder::run`] for
    /// engine dispatch).
    ///
    /// # Panics
    ///
    /// Panics if an explicitly supplied service-time distribution,
    /// workload, or buffering scheme is invalid (validate beforehand
    /// with [`ServiceTime::validate`] /
    /// [`BusSimBuilder::resolved_workload`] /
    /// [`BusSimBuilder::resolved_depth`]).
    pub fn build(self) -> BusSim {
        let memory_service = self.memory_service.unwrap_or(ServiceTime::Constant(self.params.r()));
        memory_service.validate().expect("invalid memory service time");
        self.bus_transfer.validate().expect("invalid bus transfer time");
        let workload = self.resolved_workload().expect("invalid workload");
        let n = self.params.n() as usize;
        let m = self.params.m() as usize;
        let depth = self.resolved_depth().expect("invalid buffering scheme");
        let p = self.params.p();
        // Bursty workloads carry phase-chain state; the initial target
        // sampler and think probabilities are phase 0's.
        let mmpp = workload.mmpp_spec().map(|spec| {
            MmppState::new(std::sync::Arc::clone(spec), self.params.n(), self.params.m())
        });
        let target = match &mmpp {
            Some(state) => state.module_sampler().clone(),
            None => ModuleSampler::for_workload(&workload, self.params.m()),
        };
        let next_phase_tick = mmpp.as_ref().and_then(|state| state.next_boundary(0));
        let mut stats =
            new_counters(&self.params, depth, self.warmup, self.measure, self.window_cycles);
        if let Some(state) = &mmpp {
            stats.record_phase(0, state.phase());
        }
        BusSim {
            params: self.params,
            policy: self.policy,
            buffering: self.buffering,
            depth,
            target,
            think_p: (0..n).map(|i| workload.think_probability(i, p)).collect(),
            memory_service,
            bus_transfer: self.bus_transfer,
            rng: SmallRng::seed_from_u64(self.seed),
            cycle: 0,
            procs: vec![ProcPhase::Thinking { until: 0 }; n],
            modules: vec![Module::default(); m],
            bus: vec![None; self.channels as usize],
            proc_arbiter: Arbiter::new(self.arbitration),
            module_arbiter: Arbiter::new(self.arbitration),
            stats,
            candidate_scratch: Vec::with_capacity(n.max(m)),
            inflight_scratch: vec![0; m],
            mmpp,
            next_phase_tick,
        }
    }

    /// Builds the event-driven simulator (regardless of the
    /// [`BusSimBuilder::engine`] knob).
    ///
    /// # Panics
    ///
    /// As [`BusSimBuilder::build`].
    pub fn build_event(self) -> EventBusSim {
        EventBusSim::from_builder(self)
    }

    /// Builds and runs the configured engine to completion.
    pub fn run(self) -> SimReport {
        self.run_budgeted(&UnitBudget::default(), None)
            .expect("an unlimited budget cannot trip")
            .report
    }

    /// Builds the configured engine and runs it through the shared
    /// slicing loop: under a [`UnitBudget`] watchdog, checked between
    /// slices of the run (and after each batch), and, given a `plan`,
    /// **adaptively**: one long run extended batch by batch until the
    /// 95% confidence half-width of the batch-means EBW estimate
    /// reaches [`AdaptivePlan::ci_width`], or the cycle budget
    /// ([`AdaptivePlan::max_measure`]) is exhausted. An adaptive run
    /// ignores the builder's own `measure_cycles` in favor of the plan's
    /// budget.
    ///
    /// Compared to fixed independent replications an adaptive run pays
    /// warmup once and escapes the small-sample Student-t penalty, so it
    /// reaches the same precision with far fewer simulated events; the
    /// stopping rule is `busnet_sim::batch::SequentialStopping`.
    ///
    /// The checks draw no randomness: a run that stays inside its
    /// budget is **bit-identical** to the unbudgeted run, and with an
    /// unlimited budget and no plan the engine runs whole. A fixed run
    /// (no plan) carries no estimate: `batches` is 0, `half_width_95`
    /// is infinite and `converged` is false.
    ///
    /// # Errors
    ///
    /// [`CoreError::BudgetExceeded`] when a ceiling trips.
    ///
    /// # Panics
    ///
    /// Panics if the plan is degenerate (`batch_cycles == 0`,
    /// `min_batches < 2`, or `max_measure < batch_cycles`), or on the
    /// same invalid-configuration conditions as
    /// [`BusSimBuilder::build`].
    pub fn run_budgeted(
        self,
        budget: &UnitBudget,
        plan: Option<&AdaptivePlan>,
    ) -> Result<AdaptiveOutcome, CoreError> {
        let mut builder = self;
        let mut stop = plan.map(|plan| {
            assert!(plan.batch_cycles > 0, "batch_cycles must be positive");
            assert!(plan.min_batches >= 2, "need at least 2 batches for a variance estimate");
            assert!(plan.max_measure >= plan.batch_cycles, "budget smaller than one batch");
            builder.measure = plan.max_measure;
            match plan.prior {
                Some(seed) => SequentialStopping::with_prior(
                    plan.ci_width,
                    plan.min_batches,
                    seed.ebw,
                    seed.trust,
                ),
                None => SequentialStopping::new(plan.ci_width, plan.min_batches),
            }
        });
        let rc = f64::from(builder.params.processor_cycle());
        let batches = plan.zip(stop.as_mut()).map(|(plan, stop)| Batches {
            cycles: plan.batch_cycles,
            rc,
            stop,
        });
        let (warmup, total) = (builder.warmup, builder.warmup + builder.measure);
        let report = match builder.engine {
            EngineKind::Cycle => run_sliced(builder.build(), warmup, total, budget, batches)?,
            EngineKind::Event => run_sliced(builder.build_event(), warmup, total, budget, batches)?,
        };
        Ok(match stop {
            Some(stop) => AdaptiveOutcome {
                report,
                batches: stop.batches(),
                half_width_95: stop.half_width_95(),
                converged: stop.satisfied(),
            },
            None => AdaptiveOutcome {
                report,
                batches: 0,
                half_width_95: f64::INFINITY,
                converged: false,
            },
        })
    }
}

/// The advance/finish protocol of the three engines — the cycle bus
/// ([`BusSim`]), the event bus ([`EventBusSim`]) and the cycle crossbar
/// — which [`run_sliced`] drives.
pub(crate) trait SlicedEngine {
    /// What the closed run reports.
    type Report;
    /// Simulates every cycle before `t` (clamped to the configured
    /// total); splitting a run into several calls changes nothing.
    fn advance_until(&mut self, t: u64);
    /// Units of engine work done so far (the budget's event metric).
    fn events(&self) -> u64;
    /// Returns delivered during measurement so far.
    fn measured_returns(&self) -> u64;
    /// Closes the run at cycle `t` (exclusive) and builds the report.
    fn finish_at(self, t: u64) -> Self::Report;
}

macro_rules! bus_engine {
    ($engine:ty) => {
        impl SlicedEngine for $engine {
            type Report = SimReport;
            fn advance_until(&mut self, t: u64) {
                <$engine>::advance_until(self, t)
            }
            fn events(&self) -> u64 {
                <$engine>::events(self)
            }
            fn measured_returns(&self) -> u64 {
                <$engine>::measured_returns(self)
            }
            fn finish_at(self, t: u64) -> SimReport {
                <$engine>::finish_at(self, t)
            }
        }
    };
}
bus_engine!(BusSim);
bus_engine!(EventBusSim);

/// An adaptive run's batching: after the warmup, each `cycles`-cycle
/// batch's EBW (`returns · rc / cycles`) feeds `stop`.
pub(crate) struct Batches<'a> {
    cycles: u64,
    rc: f64,
    stop: &'a mut SequentialStopping,
}

/// The one slicing loop: advances `engine` over its `total` cycles to
/// the next slice or batch boundary, checks `budget` there, and feeds
/// the stopping rule at each batch end, closing the run early once the
/// rule is satisfied. Slices are `max(total/64, 1024)` cycles, so a
/// runaway run stops within one slice; an unlimited budget needs no
/// slices, and a run without batches then advances whole in one call.
///
/// # Errors
///
/// [`CoreError::BudgetExceeded`] when a ceiling trips.
pub(crate) fn run_sliced<E: SlicedEngine>(
    mut engine: E,
    warmup: u64,
    total: u64,
    budget: &UnitBudget,
    mut batches: Option<Batches<'_>>,
) -> Result<E::Report, CoreError> {
    // Nothing to check and nothing to stop for: the engine runs whole.
    if budget.is_unlimited() && batches.is_none() {
        engine.advance_until(total);
        return Ok(engine.finish_at(total));
    }
    let start = std::time::Instant::now();
    let slice = if budget.is_unlimited() { total.max(1) } else { UnitBudget::slice_cycles(total) };
    let (mut batch_start, mut batch_returns) = (warmup, 0u64);
    let mut next_batch = batches.as_ref().map(|b| warmup.saturating_add(b.cycles).min(total));
    let mut t = 0u64;
    while t < total {
        let next_slice = t.saturating_add(slice - t % slice).min(total);
        t = next_batch.map_or(next_slice, |b| b.min(next_slice));
        engine.advance_until(t);
        budget.check(engine.events(), &start)?;
        if let Some(b) = batches.as_mut().filter(|_| next_batch == Some(t)) {
            let returns = engine.measured_returns();
            b.stop.record_batch((returns - batch_returns) as f64 * b.rc / (t - batch_start) as f64);
            if b.stop.satisfied() {
                break;
            }
            (batch_start, batch_returns) = (t, returns);
            next_batch = Some(t.saturating_add(b.cycles).min(total));
        }
    }
    Ok(engine.finish_at(t))
}

/// Event / wall-clock ceilings for one supervised work unit; the
/// default is unlimited on both axes. Enforced between engine slices by
/// the slicing loop every bus and crossbar run goes through, and
/// re-checked generically by the sweep supervisor after each attempt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnitBudget {
    /// Ceiling on simulation events processed by one unit.
    pub max_events: Option<u64>,
    /// Ceiling on wall-clock milliseconds spent by one unit.
    pub max_millis: Option<u64>,
}

impl UnitBudget {
    /// Whether the budget imposes no ceiling at all.
    pub fn is_unlimited(&self) -> bool {
        self.max_events.is_none() && self.max_millis.is_none()
    }

    /// Cycles between two checks of a `total`-cycle run:
    /// `max(total/64, 1024)`, so a check costs nothing next to the
    /// slice it ends while a runaway run stops within one slice.
    pub(crate) fn slice_cycles(total: u64) -> u64 {
        (total / 64).max(1024)
    }

    /// Trips when `events` or the time since `start` exceeds a ceiling.
    ///
    /// # Errors
    ///
    /// [`CoreError::BudgetExceeded`] naming the tripped axis.
    pub fn check(&self, events: u64, start: &std::time::Instant) -> Result<(), CoreError> {
        if let Some(limit) = self.max_events {
            if events > limit {
                return Err(CoreError::BudgetExceeded { what: "events", used: events, limit });
            }
        }
        if let Some(limit) = self.max_millis {
            let used = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
            if used > limit {
                return Err(CoreError::BudgetExceeded { what: "millis", used, limit });
            }
        }
        Ok(())
    }
}

/// Budget and stopping parameters of an adaptive
/// [`BusSimBuilder::run_budgeted`] run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptivePlan {
    /// Target 95% half-width of the EBW estimate.
    pub ci_width: f64,
    /// Cycles per batch (batch means are computed over these spans).
    pub batch_cycles: u64,
    /// Minimum completed batches before stopping is allowed.
    pub min_batches: u64,
    /// Hard ceiling on measured cycles (the run stops here whether or
    /// not the target was reached).
    pub max_measure: u64,
    /// Optional external EBW prior (the fluid screening prediction);
    /// when the running estimate confirms it, the stopping rule
    /// accepts at half the usual batch minimum.
    pub prior: Option<PriorSeed>,
}

/// A cheap external EBW estimate — in practice the fluid mean-field
/// prediction of a sweep's screening pre-pass — used to warm-start the
/// adaptive stopping rule. The confidence-width target is never
/// relaxed; the prior only shortens the minimum-batch guard when the
/// measurement confirms it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PriorSeed {
    /// Predicted EBW.
    pub ebw: f64,
    /// Absolute EBW band within which the running mean counts as
    /// confirming the prediction.
    pub trust: f64,
}

/// Result of an adaptive run: the (possibly truncated) report plus the
/// stopping rule's view of the estimate.
#[derive(Clone, Debug)]
pub struct AdaptiveOutcome {
    /// The run's report over the cycles actually simulated.
    pub report: SimReport,
    /// Completed batches behind the estimate.
    pub batches: u64,
    /// Final 95% half-width over batch means.
    pub half_width_95: f64,
    /// Whether the target width was reached within the budget.
    pub converged: bool,
}

/// The fraction of module-cycles an input FIFO of depth `depth` sat
/// full (mass of the top occupancy level). Defined as 0 for the
/// unbuffered scheme, whose admission rule keeps the input empty —
/// shared by the per-run [`SimReport`] and the replication-merged
/// summary so the two cannot diverge.
pub(crate) fn input_full_fraction(depth: u32, occupancy: &Histogram) -> f64 {
    if depth == 0 {
        return 0.0;
    }
    *occupancy.distribution().last().unwrap_or(&0.0)
}

/// The shared counter set both bus engines accumulate into: one bucket
/// per bus cycle of waiting up to 16 processor cycles (the tail
/// saturates), one fairness slot per processor, and per-module
/// input/output occupancy trackers sized for FIFO depth `depth`
/// (input levels `0..=depth`, output levels `0..=max(depth, 1)`).
pub(crate) fn new_counters(
    params: &SystemParams,
    depth: u32,
    warmup: u64,
    measure: u64,
    window_cycles: Option<u64>,
) -> SimCounters {
    let counters = SimCounters::new(
        MeasurementWindow::new(warmup, measure),
        params.n() as usize,
        Histogram::new(1.0, 16 * params.processor_cycle() as usize),
    )
    .with_queue_occupancy(params.m() as usize, depth, depth.max(1));
    match window_cycles {
        Some(width) => counters.with_windows(width),
        None => counters,
    }
}

/// The single-bus (or multi-channel) simulator. Create via
/// [`BusSimBuilder`].
#[derive(Clone, Debug)]
pub struct BusSim {
    params: SystemParams,
    policy: BusPolicy,
    buffering: Buffering,
    depth: u32,
    /// Module-target sampler compiled from the workload.
    target: ModuleSampler,
    /// Per-processor think probabilities (all equal to `p` unless the
    /// workload is heterogeneous).
    think_p: Vec<f64>,
    memory_service: ServiceTime,
    bus_transfer: ServiceTime,
    rng: SmallRng,
    cycle: u64,
    procs: Vec<ProcPhase>,
    modules: Vec<Module>,
    bus: Vec<Option<(Transfer, u64)>>,
    proc_arbiter: Arbiter,
    module_arbiter: Arbiter,
    stats: SimCounters,
    candidate_scratch: Vec<usize>,
    inflight_scratch: Vec<u32>,
    /// Phase-chain state for bursty ([`Workload::Mmpp`]) workloads;
    /// `None` for every stationary workload (zero extra RNG draws, so
    /// stationary runs stay bit-identical).
    mmpp: Option<MmppState>,
    /// The next phase boundary, pre-computed so the hot loop pays one
    /// comparison per cycle instead of a modulo.
    next_phase_tick: Option<u64>,
}

impl BusSim {
    /// The parameters this simulator was built with.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of bus channels.
    pub fn channels(&self) -> u32 {
        self.bus.len() as u32
    }

    /// Runs warmup + measurement and returns the report.
    pub fn run(mut self) -> SimReport {
        let total = self.stats.window().total_cycles();
        self.advance_until(total);
        self.finish_at(total)
    }

    /// Steps until cycle `t` (clamped to the configured total) — the
    /// incremental entry point of the slicing loop.
    pub fn advance_until(&mut self, t: u64) {
        let limit = t.min(self.stats.window().total_cycles());
        while self.cycle < limit {
            self.step();
        }
    }

    /// Returns delivered during measurement so far.
    pub fn measured_returns(&self) -> u64 {
        self.stats.returns
    }

    /// Simulation events processed so far (the budget-watchdog metric).
    pub fn events(&self) -> u64 {
        self.stats.events
    }

    /// Closes the run at cycle `t` (exclusive), truncating the
    /// measurement window if the run stopped early, and builds the
    /// report. `t` must not precede the cycles already stepped.
    pub fn finish_at(mut self, t: u64) -> SimReport {
        if t < self.stats.window().total_cycles() {
            self.stats.truncate_window(t);
        }
        self.stats.finish_occupancy(t);
        SimReport::from_counters(
            self.params,
            self.policy,
            self.buffering,
            self.depth,
            self.bus.len() as u32,
            self.stats,
        )
    }

    /// Advances the simulation by one bus cycle.
    pub fn step(&mut self) {
        let t = self.cycle;
        self.stats.events += 1;
        if self.next_phase_tick == Some(t) {
            let mmpp = self.mmpp.as_mut().expect("phase tick without a phase chain");
            let phase = mmpp.step(&mut self.rng);
            self.think_p.fill(mmpp.think_p());
            self.target = mmpp.module_sampler().clone();
            self.stats.record_phase(t, phase);
            self.next_phase_tick = mmpp.next_boundary(t);
        }
        self.wake_processors(t);
        self.arbitrate(t);
        self.stats.tick_busy(t, self.bus.iter().filter(|c| c.is_some()).count() as u64, 0);
        for j in 0..self.modules.len() {
            if self.modules[j].is_serving() {
                self.stats.tick_module_busy(t, j);
            }
        }

        // End-of-cycle: returns land first, then service progress, then
        // request delivery (so a fresh service is not decremented in its
        // arrival cycle).
        let mut completed_requests: Vec<(Token, usize)> = Vec::new();
        for slot in &mut self.bus {
            if let Some((transfer, until)) = *slot {
                if until == t {
                    *slot = None;
                    match transfer {
                        Transfer::Return { token } => {
                            debug_assert!(matches!(self.procs[token.proc], ProcPhase::Waiting));
                            self.stats.record_return(t, token.proc, token.issued);
                            self.procs[token.proc] = ProcPhase::Thinking { until: t + 1 };
                        }
                        Transfer::Request { token, module } => {
                            completed_requests.push((token, module));
                        }
                    }
                }
            }
        }
        self.progress_modules(t);
        for (token, module) in completed_requests {
            self.deliver_request(token, module, t);
        }
        self.cycle += 1;
    }

    fn wake_processors(&mut self, t: u64) {
        let rc = u64::from(self.params.processor_cycle());
        let m = self.params.m() as usize;
        for (i, proc) in self.procs.iter_mut().enumerate() {
            if let ProcPhase::Thinking { until } = *proc {
                if until <= t {
                    let p = self.think_p[i];
                    if p >= 1.0 || self.rng.gen_bool(p) {
                        let module = self.target.sample(m, &mut self.rng);
                        *proc = ProcPhase::Pending { module, since: t, issued: t };
                    } else {
                        *proc = ProcPhase::Thinking { until: until + rc };
                    }
                }
            }
        }
    }

    fn arbitrate(&mut self, t: u64) {
        // Requests already in flight per module (multi-cycle transfers
        // and sibling channels granted this cycle).
        self.inflight_scratch.iter_mut().for_each(|x| *x = 0);
        for slot in self.bus.iter().flatten() {
            if let (Transfer::Request { module, .. }, _) = slot {
                self.inflight_scratch[*module] += 1;
            }
        }
        for ch in 0..self.bus.len() {
            if self.bus[ch].is_some() {
                continue;
            }
            // Memory side.
            let memory_ready = self.modules.iter().any(|md| !md.output.is_empty());
            // Processor side.
            self.candidate_scratch.clear();
            for (i, proc) in self.procs.iter().enumerate() {
                if let ProcPhase::Pending { module, .. } = *proc {
                    if self.modules[module].can_accept(self.depth, self.inflight_scratch[module]) {
                        self.candidate_scratch.push(i);
                    }
                }
            }
            let proc_ready = !self.candidate_scratch.is_empty();
            let grant_memory = grant_memory_side(self.policy, memory_ready, proc_ready);
            if !grant_memory && !proc_ready {
                break; // nothing left for the remaining channels either
            }
            let duration = u64::from(self.bus_transfer.sample(&mut self.rng));
            if grant_memory {
                let ready: Vec<usize> = self
                    .modules
                    .iter()
                    .enumerate()
                    .filter_map(|(j, md)| (!md.output.is_empty()).then_some(j))
                    .collect();
                let j = self.module_arbiter.pick(t, &ready, &mut self.rng);
                let token = self.modules[j].output.pop_front().expect("candidate had output");
                self.stats.set_output_occupancy(j, t + 1, self.modules[j].output.len() as u32);
                self.bus[ch] = Some((Transfer::Return { token }, t + duration - 1));
            } else {
                let candidates = std::mem::take(&mut self.candidate_scratch);
                let pick = self.proc_arbiter.pick(t, &candidates, &mut self.rng);
                self.candidate_scratch = candidates;
                let (module, since, issued) = match self.procs[pick] {
                    ProcPhase::Pending { module, since, issued } => (module, since, issued),
                    _ => unreachable!("candidate list holds only pending processors"),
                };
                self.stats.record_grant(t, since);
                self.stats.record_module_request(t, module);
                self.procs[pick] = ProcPhase::Waiting;
                self.inflight_scratch[module] += 1;
                self.bus[ch] = Some((
                    Transfer::Request { token: Token { proc: pick, issued }, module },
                    t + duration - 1,
                ));
            }
        }
    }

    fn progress_modules(&mut self, t: u64) {
        let out_cap = self.depth.max(1) as usize; // output capacity (1 when unbuffered)
        for (j, md) in self.modules.iter_mut().enumerate() {
            if let Some(service) = &mut md.service {
                if service.remaining > 0 {
                    service.remaining -= 1;
                    if service.remaining == 0 && md.output.len() >= out_cap {
                        // Finished this cycle but the output FIFO is
                        // full: the §6 blocking event.
                        self.stats.record_blocked_completion(t);
                    }
                }
                if service.remaining == 0 && md.output.len() < out_cap {
                    md.output.push_back(service.token);
                    self.stats.set_output_occupancy(j, t + 1, md.output.len() as u32);
                    match md.input.pop_front() {
                        Some(token) => {
                            self.stats.set_input_occupancy(j, t + 1, md.input.len() as u32);
                            md.service = Some(ModuleService {
                                token,
                                remaining: self.memory_service.sample(&mut self.rng),
                            });
                        }
                        None => md.service = None,
                    }
                }
            }
        }
    }

    fn deliver_request(&mut self, token: Token, module: usize, t: u64) {
        let md = &mut self.modules[module];
        if md.service.is_none() {
            debug_assert!(md.input.is_empty(), "idle module with queued input");
            md.service =
                Some(ModuleService { token, remaining: self.memory_service.sample(&mut self.rng) });
        } else {
            debug_assert!(
                self.depth > 0 && (md.input.len() as u32) < self.depth,
                "input buffer overrun"
            );
            md.input.push_back(token);
            self.stats.set_input_occupancy(module, t + 1, md.input.len() as u32);
        }
    }

    /// Checks conservation invariants; used by property tests. Returns a
    /// description of the first violation, if any.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut token_owner = vec![0usize; self.params.n() as usize];
        let mut count = |token: &Token, what: &str| -> Result<(), String> {
            if token.proc >= token_owner.len() {
                return Err(format!("{what}: token for unknown processor {}", token.proc));
            }
            token_owner[token.proc] += 1;
            Ok(())
        };
        for (j, md) in self.modules.iter().enumerate() {
            for tk in &md.input {
                count(tk, &format!("module {j} input"))?;
            }
            if let Some(s) = &md.service {
                count(&s.token, &format!("module {j} service"))?;
            }
            for tk in &md.output {
                count(tk, &format!("module {j} output"))?;
            }
            if self.depth == 0 {
                if !md.input.is_empty() {
                    return Err(format!("module {j}: unbuffered module has input tokens"));
                }
                let busy = usize::from(md.service.is_some()) + md.output.len();
                if busy > 1 {
                    return Err(format!("module {j}: unbuffered module double-occupied"));
                }
            } else {
                if md.input.len() as u32 > self.depth {
                    return Err(format!("module {j}: input beyond depth"));
                }
                if md.output.len() as u32 > self.depth {
                    return Err(format!("module {j}: output beyond depth"));
                }
            }
        }
        for slot in self.bus.iter().flatten() {
            match &slot.0 {
                Transfer::Request { token, .. } | Transfer::Return { token } => {
                    count(token, "bus")?;
                }
            }
        }
        for (i, proc) in self.procs.iter().enumerate() {
            let expected = usize::from(matches!(proc, ProcPhase::Waiting));
            if token_owner[i] != expected {
                return Err(format!(
                    "processor {i} in phase {proc:?} owns {} tokens, expected {expected}",
                    token_owner[i]
                ));
            }
        }
        Ok(())
    }
}

/// Measured results of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    params: SystemParams,
    policy: BusPolicy,
    buffering: Buffering,
    buffer_depth: u32,
    channels: u32,
    /// Results delivered to processors during measurement.
    pub returns: u64,
    /// Requests granted the bus during measurement.
    pub requests_granted: u64,
    /// Number of measured cycles.
    pub measured_cycles: u64,
    /// Channel-cycles carrying a transfer (equals busy cycles when
    /// `channels == 1`).
    pub bus_busy_channel_cycles: u64,
    /// Module-cycles spent actively serving.
    pub module_busy_cycles: u64,
    /// Request waiting times (issue → bus grant), in cycles.
    pub wait: RunningStats,
    /// Round-trip times (issue → result delivered), in cycles.
    pub round_trip: RunningStats,
    /// Distribution of request waiting times (1-cycle buckets,
    /// saturating at 16 processor cycles).
    pub wait_histogram: Histogram,
    /// Returns delivered to each processor (fairness analysis).
    pub per_processor_returns: Vec<u64>,
    /// Time-weighted input-FIFO occupancy over all module-cycles
    /// (levels `0..=k`, weights in module-cycles).
    pub input_occupancy: Histogram,
    /// Time-weighted output-FIFO occupancy over all module-cycles
    /// (levels `0..=max(k, 1)`).
    pub output_occupancy: Histogram,
    /// Completed services that found their output FIFO full (the §6
    /// blocking event), during measurement.
    pub blocked_completions: u64,
    /// Requests granted toward each module during measurement — the
    /// observable the workload reference distribution is validated
    /// against, and the basis of the hot-module summary.
    pub per_module_requests: Vec<u64>,
    /// Module-cycles each module spent actively serving (sums to
    /// [`SimReport::module_busy_cycles`]).
    pub per_module_busy_cycles: Vec<u64>,
    /// Accumulated input-FIFO `level × cycles` per module (divide by
    /// [`SimReport::measured_cycles`] for a module's own mean input
    /// queue — the aggregate histogram pools all modules, which hides
    /// a single hot module's queue).
    pub per_module_input_level_cycles: Vec<u64>,
    /// Units of engine work the run executed (events processed by the
    /// event engine, cycles stepped by the cycle engine; not warmup
    /// gated) — the portable cost proxy behind the adaptive stopping
    /// rule's savings and the CI event-budget gate.
    pub events: u64,
    /// Windowed transient telemetry — per-window EBW / busy /
    /// input-queue trajectories and phase tags. `None` unless the run
    /// was built with [`BusSimBuilder::window_cycles`]; the per-window
    /// integers recombine to the whole-run counters bit-exactly.
    pub windows: Option<WindowSeries>,
}

impl SimReport {
    /// Assembles a report from the shared counter set (both engines
    /// finish through here).
    pub(crate) fn from_counters(
        params: SystemParams,
        policy: BusPolicy,
        buffering: Buffering,
        buffer_depth: u32,
        channels: u32,
        stats: SimCounters,
    ) -> SimReport {
        let windows = stats.window_series();
        SimReport {
            params,
            policy,
            buffering,
            buffer_depth,
            channels,
            windows,
            returns: stats.returns,
            requests_granted: stats.requests_granted,
            measured_cycles: stats.measured_cycles(),
            bus_busy_channel_cycles: stats.bus_busy_channel_cycles,
            module_busy_cycles: stats.module_busy_cycles,
            wait: stats.wait,
            round_trip: stats.round_trip,
            wait_histogram: stats.wait_histogram,
            per_processor_returns: stats.per_entity_returns,
            per_module_input_level_cycles: stats.input_occupancy.level_cycles().to_vec(),
            input_occupancy: stats.input_occupancy.histogram().clone(),
            output_occupancy: stats.output_occupancy.histogram().clone(),
            blocked_completions: stats.blocked_completions,
            per_module_requests: stats.per_module_requests,
            per_module_busy_cycles: stats.per_module_busy_cycles,
            events: stats.events,
        }
    }

    /// Effective bandwidth: requests serviced per processor cycle.
    pub fn ebw(&self) -> f64 {
        self.returns as f64 * f64::from(self.params.processor_cycle()) / self.measured_cycles as f64
    }

    /// Measured mean bus utilization per channel.
    pub fn bus_utilization(&self) -> f64 {
        self.bus_busy_channel_cycles as f64
            / (self.measured_cycles as f64 * f64::from(self.channels))
    }

    /// Measured mean memory-module utilization.
    pub fn memory_utilization(&self) -> f64 {
        self.module_busy_cycles as f64 / (self.measured_cycles as f64 * f64::from(self.params.m()))
    }

    /// Jain's fairness index over per-processor service counts
    /// (1 = perfectly fair, `1/n` = one processor hogs the bus).
    pub fn fairness_index(&self) -> f64 {
        jain_fairness_index(self.per_processor_returns.iter().map(|&x| x as f64))
    }

    /// The parameters of the run.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// The arbitration policy of the run.
    pub fn policy(&self) -> BusPolicy {
        self.policy
    }

    /// The buffering scheme of the run.
    pub fn buffering(&self) -> Buffering {
        self.buffering
    }

    /// The effective input/output FIFO depth of the run (0 when
    /// unbuffered; `n` for [`Buffering::Infinite`]).
    pub fn buffer_depth(&self) -> u32 {
        self.buffer_depth
    }

    /// Mean input-FIFO length over all module-cycles.
    pub fn mean_input_queue(&self) -> f64 {
        self.input_occupancy.mean()
    }

    /// Mean output-FIFO length over all module-cycles.
    pub fn mean_output_queue(&self) -> f64 {
        self.output_occupancy.mean()
    }

    /// Normalized input-FIFO occupancy distribution over levels
    /// `0..=k` (sums to 1 whenever any module-cycle was measured).
    pub fn input_occupancy_distribution(&self) -> Vec<f64> {
        self.input_occupancy.distribution()
    }

    /// Normalized output-FIFO occupancy distribution over levels
    /// `0..=max(k, 1)`.
    pub fn output_occupancy_distribution(&self) -> Vec<f64> {
        self.output_occupancy.distribution()
    }

    /// Fraction of module-cycles the input FIFO sat full (at level
    /// `k`); 0 for the unbuffered scheme, whose admission rule keeps
    /// the input empty.
    pub fn input_full_fraction(&self) -> f64 {
        input_full_fraction(self.buffer_depth, &self.input_occupancy)
    }

    /// Per-module share of granted requests (sums to 1 whenever any
    /// request was granted) — the empirical reference distribution the
    /// workload validation suite compares against the configured one.
    pub fn module_reference_shares(&self) -> Vec<f64> {
        let total: u64 = self.per_module_requests.iter().sum();
        if total == 0 {
            return vec![0.0; self.per_module_requests.len()];
        }
        self.per_module_requests.iter().map(|&c| c as f64 / total as f64).collect()
    }

    /// The module that drew the most granted requests (the empirical
    /// hot spot; ties break to the lowest index). `None` when nothing
    /// was granted.
    pub fn hot_module(&self) -> Option<usize> {
        let (j, &max) = self
            .per_module_requests
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
        (max > 0).then_some(j)
    }

    /// Module `j`'s measured service utilization.
    pub fn module_utilization(&self, j: usize) -> f64 {
        self.per_module_busy_cycles[j] as f64 / self.measured_cycles as f64
    }

    /// Module `j`'s own mean input-FIFO length over the measured
    /// window.
    pub fn module_mean_input_queue(&self, j: usize) -> f64 {
        self.per_module_input_level_cycles[j] as f64 / self.measured_cycles as f64
    }

    /// Number of bus channels of the run.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// §2 derived measures computed from the measured EBW.
    pub fn metrics(&self) -> Metrics {
        Metrics::from_ebw(self.params, self.ebw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_run(
        n: u32,
        m: u32,
        r: u32,
        policy: BusPolicy,
        buffering: Buffering,
        seed: u64,
    ) -> SimReport {
        BusSimBuilder::new(SystemParams::new(n, m, r).unwrap())
            .policy(policy)
            .buffering(buffering)
            .seed(seed)
            .warmup_cycles(5_000)
            .measure_cycles(60_000)
            .build()
            .run()
    }

    #[test]
    fn single_processor_round_trip_exact() {
        // One processor never contends: EBW must be exactly 1.
        for buffering in [Buffering::Unbuffered, Buffering::Buffered] {
            let report = quick_run(1, 4, 6, BusPolicy::ProcessorPriority, buffering, 11);
            assert!((report.ebw() - 1.0).abs() < 0.01, "{buffering:?}: ebw = {}", report.ebw());
            // Waiting time is zero: the bus is always free.
            assert_eq!(report.wait.mean(), 0.0);
            assert_eq!(report.round_trip.mean(), f64::from(6 + 2));
        }
    }

    #[test]
    fn golden_two_procs_one_module_unbuffered() {
        // Hand-traced: n=2, m=1, r=2. Exactly one request completes
        // every 4 cycles (request, 2 service cycles, return), so with a
        // window that is a multiple of 4 the counters are exact.
        let report = BusSimBuilder::new(SystemParams::new(2, 1, 2).unwrap())
            .seed(3)
            .warmup_cycles(40)
            .measure_cycles(4_000)
            .build()
            .run();
        assert_eq!(report.returns, 1_000, "one return every 4 cycles");
        assert!((report.ebw() - 1.0).abs() < 1e-12);
        assert!((report.bus_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn golden_two_procs_one_module_buffered_saturates() {
        // Hand-traced: with one-deep buffers the module pipelines
        // back-to-back and the bus alternates request/return every
        // cycle: EBW = (r+2)/2 = 2 exactly.
        let report = BusSimBuilder::new(SystemParams::new(2, 1, 2).unwrap())
            .buffering(Buffering::Buffered)
            .seed(3)
            .warmup_cycles(40)
            .measure_cycles(4_000)
            .build()
            .run();
        assert_eq!(report.returns, 2_000, "one return every 2 cycles");
        assert!((report.ebw() - 2.0).abs() < 1e-12);
        assert!((report.bus_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mmpp_cycle_run_is_deterministic_and_reports_windows() {
        let workload = Workload::on_off_burst(0.9, 0.02, 0.9, 500, Some((0.5, 0))).unwrap();
        let run = |seed| {
            BusSimBuilder::new(SystemParams::new(8, 8, 4).unwrap())
                .workload(workload.clone())
                .window_cycles(500)
                .warmup_cycles(1_000)
                .measure_cycles(20_000)
                .seed(seed)
                .build()
                .run()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.returns, b.returns);
        assert_eq!(a.bus_busy_channel_cycles, b.bus_busy_channel_cycles);
        assert!(a.returns > 0, "bursty run must deliver returns");
        let windows = a.windows.as_ref().expect("window telemetry enabled");
        assert_eq!(windows.windows.len(), 40);
        assert!(windows.windows.iter().all(|w| w.phase.is_some()));
        assert!(windows.phase_cycles.iter().all(|&c| c > 0), "{:?}", windows.phase_cycles);
        assert_ne!(run(8).returns, a.returns);
    }

    #[test]
    fn ebw_bounded_by_ceiling() {
        for (n, m, r) in [(8, 8, 4), (16, 16, 8), (8, 4, 12)] {
            let report = quick_run(n, m, r, BusPolicy::ProcessorPriority, Buffering::Unbuffered, 3);
            let cap = f64::from(r + 2) / 2.0;
            assert!(report.ebw() <= cap + 1e-9, "({n},{m},{r}): {}", report.ebw());
        }
    }

    #[test]
    fn processor_priority_beats_memory_priority() {
        // The paper's §3 simulation finding (Fig 2): policy g' > g''.
        let gp = quick_run(8, 8, 8, BusPolicy::ProcessorPriority, Buffering::Unbuffered, 5);
        let gm = quick_run(8, 8, 8, BusPolicy::MemoryPriority, Buffering::Unbuffered, 5);
        assert!(
            gp.ebw() > gm.ebw(),
            "processor priority {} should beat memory priority {}",
            gp.ebw(),
            gm.ebw()
        );
    }

    #[test]
    fn buffering_improves_ebw() {
        let plain = quick_run(8, 8, 8, BusPolicy::ProcessorPriority, Buffering::Unbuffered, 9);
        let buffered = quick_run(8, 8, 8, BusPolicy::ProcessorPriority, Buffering::Buffered, 9);
        assert!(
            buffered.ebw() > plain.ebw(),
            "buffered {} vs unbuffered {}",
            buffered.ebw(),
            plain.ebw()
        );
    }

    #[test]
    fn deeper_buffers_do_not_hurt() {
        let ebw_at_depth = |depth| {
            BusSimBuilder::new(SystemParams::new(8, 4, 8).unwrap())
                .buffering(Buffering::Depth(depth))
                .seed(29)
                .warmup_cycles(5_000)
                .measure_cycles(60_000)
                .build()
                .run()
                .ebw()
        };
        let d1 = ebw_at_depth(1);
        let d4 = ebw_at_depth(4);
        assert!(d4 >= d1 - 0.03, "depth 4 ({d4}) vs depth 1 ({d1})");
    }

    #[test]
    fn extra_channels_raise_saturated_ebw() {
        let ebw_with = |channels| {
            BusSimBuilder::new(SystemParams::new(16, 16, 8).unwrap())
                .buffering(Buffering::Buffered)
                .channels(channels)
                .seed(31)
                .warmup_cycles(5_000)
                .measure_cycles(60_000)
                .build()
                .run()
                .ebw()
        };
        let one = ebw_with(1);
        let two = ebw_with(2);
        assert!(two > one * 1.3, "2 channels ({two}) should beat 1 ({one}) when bus-bound");
        // And respect the widened ceiling b(r+2)/2.
        assert!(two <= 2.0 * 5.0 + 1e-9);
    }

    #[test]
    fn hot_spot_degrades_ebw() {
        let uniform = quick_run(8, 8, 8, BusPolicy::ProcessorPriority, Buffering::Unbuffered, 7);
        let hot = BusSimBuilder::new(SystemParams::new(8, 8, 8).unwrap())
            .workload(Workload::hot_spot(0.6, 0).unwrap())
            .seed(7)
            .warmup_cycles(5_000)
            .measure_cycles(60_000)
            .build()
            .run();
        assert!(
            hot.ebw() < uniform.ebw() * 0.8,
            "hot spot {} should clearly degrade uniform {}",
            hot.ebw(),
            uniform.ebw()
        );
    }

    #[test]
    fn round_robin_matches_random_throughput() {
        // Arbitration tie-breaking should not change aggregate EBW
        // appreciably (it changes fairness, not capacity).
        let random = quick_run(8, 8, 8, BusPolicy::ProcessorPriority, Buffering::Unbuffered, 13);
        let rr = BusSimBuilder::new(SystemParams::new(8, 8, 8).unwrap())
            .arbitration(ArbitrationKind::RoundRobin)
            .seed(13)
            .warmup_cycles(5_000)
            .measure_cycles(60_000)
            .build()
            .run();
        let rel = (random.ebw() - rr.ebw()).abs() / random.ebw();
        assert!(rel < 0.03, "random {} vs round-robin {}", random.ebw(), rr.ebw());
    }

    #[test]
    fn fairness_near_one_for_symmetric_system() {
        let report = quick_run(8, 8, 8, BusPolicy::ProcessorPriority, Buffering::Buffered, 17);
        let fairness = report.fairness_index();
        assert!(fairness > 0.99, "symmetric system should be fair: {fairness}");
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let a = quick_run(8, 16, 8, BusPolicy::ProcessorPriority, Buffering::Buffered, 42);
        let b = quick_run(8, 16, 8, BusPolicy::ProcessorPriority, Buffering::Buffered, 42);
        assert_eq!(a.returns, b.returns);
        assert_eq!(a.bus_busy_channel_cycles, b.bus_busy_channel_cycles);
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick_run(8, 16, 8, BusPolicy::ProcessorPriority, Buffering::Buffered, 1);
        let b = quick_run(8, 16, 8, BusPolicy::ProcessorPriority, Buffering::Buffered, 2);
        assert_ne!(a.returns, b.returns);
    }

    #[test]
    fn invariants_hold_throughout() {
        let mut sim = BusSimBuilder::new(SystemParams::new(6, 5, 7).unwrap())
            .buffering(Buffering::Depth(2))
            .channels(2)
            .seed(13)
            .build();
        for _ in 0..20_000 {
            sim.step();
            if sim.cycle().is_multiple_of(97) {
                sim.check_invariants().expect("invariant violated");
            }
        }
    }

    #[test]
    fn invariants_hold_unbuffered_memory_priority() {
        let mut sim = BusSimBuilder::new(SystemParams::new(5, 6, 4).unwrap())
            .policy(BusPolicy::MemoryPriority)
            .seed(17)
            .build();
        for _ in 0..20_000 {
            sim.step();
            if sim.cycle().is_multiple_of(89) {
                sim.check_invariants().expect("invariant violated");
            }
        }
    }

    #[test]
    fn low_p_reduces_load() {
        let full = quick_run(8, 16, 8, BusPolicy::ProcessorPriority, Buffering::Unbuffered, 21);
        let light = BusSimBuilder::new(
            SystemParams::new(8, 16, 8).unwrap().with_request_probability(0.3).unwrap(),
        )
        .seed(21)
        .warmup_cycles(5_000)
        .measure_cycles(60_000)
        .build()
        .run();
        assert!(light.ebw() < full.ebw());
        // Offered load n·p bounds the EBW.
        assert!(light.ebw() <= 8.0 * 0.3 + 0.2, "ebw = {}", light.ebw());
    }

    #[test]
    fn bus_utilization_matches_ebw_identity() {
        // EBW = Pb (r+2)/2 exactly (every service = 2 bus cycles).
        let report = quick_run(8, 8, 6, BusPolicy::ProcessorPriority, Buffering::Unbuffered, 33);
        let identity = report.bus_utilization() * f64::from(8) / 2.0;
        assert!(
            (report.ebw() - identity).abs() < 0.05,
            "ebw {} vs Pb(r+2)/2 = {identity}",
            report.ebw()
        );
    }

    #[test]
    fn geometric_service_runs() {
        let report = BusSimBuilder::new(SystemParams::new(8, 8, 8).unwrap())
            .memory_service(ServiceTime::Geometric { mean: 8.0 })
            .buffering(Buffering::Buffered)
            .seed(3)
            .warmup_cycles(2_000)
            .measure_cycles(40_000)
            .build()
            .run();
        assert!(report.ebw() > 0.0);
    }
}
