//! The unified scenario engine: one operating-point descriptor, many
//! evaluation vehicles.
//!
//! The paper evaluates the same `(n, m, r, p, policy, buffering)`
//! operating points through five different vehicles — the §3.1.1 exact
//! chain, the §4 reduced chain, the §3.2 combinational approximation,
//! the §6 product-form model, and cycle-accurate simulation. This
//! module makes that plurality first-class:
//!
//! * a [`Scenario`] names an operating point once;
//! * an [`Evaluator`] turns a scenario into [`Evaluation`] metrics —
//!   every vehicle implements the same trait, so model-vs-sim
//!   comparison is a one-liner;
//! * a [`ScenarioGrid`] expands cartesian parameter sweeps into
//!   scenario lists, and [`run_sweep`] fans them out across any set of
//!   evaluators with per-point progress, serially or in parallel —
//!   through one supervised plan → execute → finalize pipeline
//!   (`scenario/sweep.rs`) whose planner settles every pair's domain
//!   before any work is scheduled.
//!
//! # Example
//!
//! Compare the reduced chain against a quick simulation on one point:
//!
//! ```
//! use busnet_core::params::SystemParams;
//! use busnet_core::scenario::{BusSimEval, Evaluator, ReducedChainEval, Scenario, SimBudget};
//!
//! let scenario = Scenario::new(SystemParams::new(8, 16, 8)?);
//! let model = ReducedChainEval.evaluate(&scenario)?;
//! let sim = BusSimEval::new(SimBudget::quick()).evaluate(&scenario)?;
//! let gap = (sim.ebw() - model.ebw()).abs() / model.ebw();
//! assert!(gap < 0.10, "sim {} vs model {}", sim.ebw(), model.ebw());
//! # Ok::<(), busnet_core::CoreError>(())
//! ```

use busnet_markov::combinatorics::partition_count;
use busnet_sim::counters::WindowSeries;
use busnet_sim::event::EngineKind;
use busnet_sim::exec::{parallel_map, ExecutionMode};
use busnet_sim::replication::ReplicationSummary;
use busnet_sim::seeds::SeedSequence;
use busnet_sim::stats::jain_fairness_index;

use crate::analytic::approx::{ApproxModel, ApproxVariant};
use crate::analytic::crossbar::crossbar_ebw_exact;
use crate::analytic::exact_chain::ExactChain;
use crate::analytic::fluid::{FluidModel, FluidOptions};
use crate::analytic::multibus::multibus_bw_exact;
use crate::analytic::pfqn::{pfqn_ebw, pfqn_ebw_buzen, pfqn_ebw_buzen_group, pfqn_ebw_group};
use crate::analytic::reduced::ReducedChain;
use crate::cache::{f64_hex, workload_fingerprint};
use crate::error::CoreError;
use crate::metrics::Metrics;
use crate::params::{ArbitrationKind, Buffering, BusPolicy, SystemParams, Workload};
use crate::sim::bus::{AdaptivePlan, BusSimBuilder, PriorSeed, SimReport, UnitBudget};
use crate::sim::crossbar::CrossbarSim;
use crate::sim::service::ServiceTime;

pub mod spec;
mod sweep;

pub use sweep::{
    evaluator_calls, run_sweep, run_sweep_with, OnFailure, ScreenPlan, Supervisor, SweepOptions,
    SweepRecord, UnitStatus,
};

/// One operating point of the system under study: parameters plus the
/// mode knobs every evaluation vehicle understands.
///
/// Cheap to clone: the only non-`Copy` state is the workload's shared
/// weight vector.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// System parameters `(n, m, r, p)`.
    pub params: SystemParams,
    /// Bus-granting priority (hypothesis *g*).
    pub policy: BusPolicy,
    /// Memory-module buffering scheme (§6).
    pub buffering: Buffering,
    /// Candidate tie-breaking rule (hypothesis *h* and relaxations).
    /// The analytic vehicles assume the paper's uniform random;
    /// simulation honors every kind.
    pub arbitration: ArbitrationKind,
    /// How processors load the memory system (hypotheses *e*/*f* and
    /// their relaxations): uniform, hot-spot, weighted, or
    /// heterogeneous traffic. The uniform-only analytic vehicles
    /// accept exactly [`Workload::Uniform`]; the product-form model
    /// additionally accepts any per-module reference distribution.
    pub workload: Workload,
    /// Memory service-time distribution; `None` means the paper's
    /// constant `r` cycles.
    pub memory_service: Option<ServiceTime>,
    /// Number of buses `b` (the §7 trade-off axis). The paper's
    /// single multiplexed bus is `1`; the multiple-bus baseline
    /// ([`MultibusEval`]) accepts larger values, every single-bus
    /// vehicle requires `1`.
    pub buses: u32,
}

impl Scenario {
    /// A scenario with the paper's defaults: priority to processors,
    /// unbuffered modules, random arbitration, uniform workload,
    /// constant service.
    pub fn new(params: SystemParams) -> Self {
        Scenario {
            params,
            policy: BusPolicy::ProcessorPriority,
            buffering: Buffering::Unbuffered,
            arbitration: ArbitrationKind::Random,
            workload: Workload::Uniform,
            memory_service: None,
            buses: 1,
        }
    }

    /// Returns a copy with the given number of buses (validated: at
    /// least one).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when `buses == 0`.
    pub fn with_buses(mut self, buses: u32) -> Result<Self, CoreError> {
        if buses == 0 {
            return Err(CoreError::InvalidParameter {
                name: "buses",
                value: buses.to_string(),
                constraint: "at least one bus",
            });
        }
        self.buses = buses;
        Ok(self)
    }

    /// Returns a copy with the given arbitration policy.
    pub fn with_policy(mut self, policy: BusPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with the given buffering scheme.
    pub fn with_buffering(mut self, buffering: Buffering) -> Self {
        self.buffering = buffering;
        self
    }

    /// Returns a copy with the given arbitration kind.
    pub fn with_arbitration(mut self, arbitration: ArbitrationKind) -> Self {
        self.arbitration = arbitration;
        self
    }

    /// Returns a copy with the given workload. Use the validating
    /// [`Workload`] constructors ([`Workload::weighted`],
    /// [`Workload::heterogeneous`], [`Workload::hot_spot`]) to build
    /// the value — degenerate distributions are rejected there, and
    /// system-size mismatches at grid expansion /
    /// [`Scenario::validate`].
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Validates the scenario's knobs against its own parameters
    /// (buffering depth, workload shape). Grid expansion and the
    /// simulation evaluators apply this before any engine is built.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] naming the offending knob.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.buffering.validate()?;
        self.workload.validate(self.params.n(), self.params.m())?;
        self.service().validate()
    }

    /// Returns a copy with an explicit memory service-time distribution.
    pub fn with_memory_service(mut self, service: ServiceTime) -> Self {
        self.memory_service = Some(service);
        self
    }

    /// The effective memory service distribution (constant `r` unless
    /// overridden).
    pub fn service(&self) -> ServiceTime {
        self.memory_service.unwrap_or(ServiceTime::Constant(self.params.r()))
    }

    /// Whether the scenario uses the paper's constant-`r` service.
    pub fn has_paper_service(&self) -> bool {
        self.service() == ServiceTime::Constant(self.params.r())
    }

    /// A compact, stable human-readable identifier, e.g.
    /// `n=8 m=16 r=8 p=1 proc unbuf` (non-default arbitration kinds
    /// append their name).
    pub fn label(&self) -> String {
        let policy = self.policy.name();
        let buffering = match self.buffering {
            Buffering::Unbuffered => "unbuf".to_owned(),
            Buffering::Buffered => "buf".to_owned(),
            Buffering::Depth(k) => format!("buf{k}"),
            Buffering::Infinite => "buf-inf".to_owned(),
        };
        let arbitration = match self.arbitration {
            ArbitrationKind::Random => String::new(),
            kind => format!(" {}", kind.name()),
        };
        let workload = match &self.workload {
            Workload::Uniform => String::new(),
            w => format!(" {}", w.name()),
        };
        let buses = if self.buses == 1 { String::new() } else { format!(" b={}", self.buses) };
        format!(
            "n={} m={} r={} p={} {policy} {buffering}{arbitration}{workload}{buses}",
            self.params.n(),
            self.params.m(),
            self.params.r(),
            self.params.p(),
        )
    }
}

/// The outcome of evaluating one scenario with one vehicle.
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// Which evaluator produced this.
    pub evaluator: &'static str,
    /// The evaluated scenario.
    pub scenario: Scenario,
    /// §2 derived measures at the estimated EBW.
    pub metrics: Metrics,
    /// Half width of the 95% confidence interval of the EBW estimate
    /// (0 for deterministic analytic models).
    pub half_width_95: f64,
    /// Number of independent replications behind the estimate (1 for
    /// analytic models; the number of completed batch means for
    /// adaptive [`Stopping::Adaptive`] runs).
    pub replications: u32,
    /// Per-processor EBW contributions (they sum to the total EBW),
    /// aggregated across replications. `None` for analytic vehicles,
    /// which assume symmetry and have no per-processor view.
    pub per_processor_ebw: Option<Vec<f64>>,
    /// Module buffer-occupancy telemetry aggregated across
    /// replications. `None` for vehicles without a queue-level view
    /// (every analytic model and the crossbar baselines).
    pub occupancy: Option<OccupancySummary>,
    /// Granted requests per module, summed across replications — the
    /// empirical reference distribution under the scenario's workload.
    /// `None` for vehicles without a per-module view.
    pub module_references: Option<Vec<u64>>,
    /// Summary of the most-referenced module (utilization and queue
    /// growth under skewed workloads). `None` for vehicles without a
    /// per-module view, or when nothing was granted.
    pub hot_module: Option<HotModuleSummary>,
    /// Engine work units behind the estimate, summed over replications
    /// (events for the event engine, cycles for the cycle engine; 0
    /// for analytic vehicles) — the cost currency of the adaptive
    /// stopping comparisons.
    pub simulated_events: u64,
    /// Windowed transient telemetry pooled across replications
    /// (per-window counts summed element-wise; a window's phase tag
    /// survives only where every replication agrees, which independent
    /// phase chains generally do not). `None` for analytic vehicles
    /// and for runs without window telemetry — simulation evaluators
    /// enable it automatically for bursty ([`Workload::Mmpp`])
    /// scenarios, one window per dwell.
    pub windows: Option<WindowSeries>,
}

/// The empirically hottest module of a simulated scenario: where the
/// references concentrated and what that did to its service stage and
/// input queue. The `busnet run hotspot` report tabulates these
/// against the hot-spot fraction.
#[derive(Clone, Debug, PartialEq)]
pub struct HotModuleSummary {
    /// Index of the most-referenced module (ties break low).
    pub module: usize,
    /// Its share of all granted requests (`1/m` under uniform load).
    pub reference_share: f64,
    /// Its service utilization over the measured window (→ 1 as the
    /// hot module saturates).
    pub utilization: f64,
    /// Its own mean input-FIFO length (0 when unbuffered) — the
    /// hot-module queue growth the aggregate occupancy hides.
    pub mean_input_queue: f64,
}

/// Aggregated buffer-occupancy telemetry of a simulated scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct OccupancySummary {
    /// The effective FIFO depth `k` of the run (0 when unbuffered, `n`
    /// for [`Buffering::Infinite`]).
    pub buffer_depth: u32,
    /// Mean input-FIFO length over all module-cycles and replications.
    pub mean_input_queue: f64,
    /// Mean output-FIFO length over all module-cycles and replications.
    pub mean_output_queue: f64,
    /// Normalized input-FIFO occupancy distribution over levels
    /// `0..=k` (sums to 1).
    pub input_distribution: Vec<f64>,
    /// Normalized output-FIFO occupancy distribution over levels
    /// `0..=max(k, 1)`.
    pub output_distribution: Vec<f64>,
    /// Fraction of module-cycles the input FIFO sat full (0 when
    /// unbuffered).
    pub input_full_fraction: f64,
    /// Completed services that found their output FIFO full, summed
    /// over replications.
    pub blocked_completions: u64,
}

impl Evaluation {
    /// The effective-bandwidth point estimate.
    pub fn ebw(&self) -> f64 {
        self.metrics.ebw
    }

    /// Engine work units behind the estimate (see
    /// [`Evaluation::simulated_events`]).
    pub fn simulated_events(&self) -> u64 {
        self.simulated_events
    }

    /// Whether `value` lies inside the 95% interval widened by `slack`.
    pub fn covers(&self, value: f64, slack: f64) -> bool {
        (value - self.metrics.ebw).abs() <= self.half_width_95 + slack
    }

    /// Jain's fairness index over per-processor EBW (1 = perfectly
    /// fair, `1/n` = one processor hogs the bus); `None` for vehicles
    /// without a per-processor view.
    pub fn fairness_index(&self) -> Option<f64> {
        let per = self.per_processor_ebw.as_ref()?;
        Some(jain_fairness_index(per.iter().copied()))
    }

    /// Per-processor EBW spread `max − min` (the fairness measure the
    /// arbitration report tabulates); `None` for vehicles without a
    /// per-processor view.
    pub fn ebw_spread(&self) -> Option<f64> {
        let per = self.per_processor_ebw.as_ref()?;
        if per.is_empty() {
            return None;
        }
        let min = per.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(max - min)
    }
}

/// One independent slice of an evaluation, the unit grain the sweep
/// scheduler fans out: a single simulation replication's raw report, or
/// a whole evaluation computed in one piece (analytic vehicles and
/// adaptive runs).
#[derive(Clone, Debug)]
pub enum EvalUnit {
    /// A complete evaluation produced by one unit of work.
    Whole(Box<Evaluation>),
    /// One replication's report, to be merged by
    /// [`Evaluator::combine_units`].
    Replication(Box<SimReport>),
}

/// An evaluation vehicle: anything that can score a [`Scenario`].
///
/// Implementations must be `Sync` so sweeps can fan scenarios out
/// across threads.
///
/// ## Unit grain
///
/// An evaluator may expose its internal replication structure through
/// [`Evaluator::work_units`] / [`Evaluator::evaluate_unit`] /
/// [`Evaluator::combine_units`]. [`run_sweep`] schedules *units* (one
/// replication of one scenario) rather than whole evaluations across
/// its worker pool, so a sweep saturates every core even when the grid
/// has fewer points than the machine has cores. The three methods
/// default to the degenerate single-unit shape, which is correct for
/// any evaluator that computes its result in one piece; an evaluator
/// that overrides `work_units` must override the other two
/// consistently (units are combined in unit-index order on one thread,
/// preserving the bit-identical-to-serial guarantee).
pub trait Evaluator: Send + Sync {
    /// Stable identifier (`"sim"`, `"exact"`, `"reduced"`, …).
    ///
    /// (The `Send + Sync` supertraits let a built evaluator move into
    /// a long-lived batch job — the serve broker runs
    /// [`EvaluatorKind::build`] products on pool threads — and every
    /// vehicle here is plain immutable data.)
    fn name(&self) -> &'static str;

    /// Whether the scenario lies inside this vehicle's domain.
    fn supports(&self, scenario: &Scenario) -> bool;

    /// Evaluates the scenario.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedScenario`] outside the vehicle's domain;
    /// otherwise propagates model failures.
    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError>;

    /// Number of independent work units behind one evaluation of
    /// `scenario` (1 unless overridden).
    fn work_units(&self, scenario: &Scenario) -> u32 {
        let _ = scenario;
        1
    }

    /// Evaluates one unit (`unit < work_units(scenario)`). The default
    /// runs the whole evaluation as unit 0.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::evaluate`].
    fn evaluate_unit(&self, scenario: &Scenario, unit: u32) -> Result<EvalUnit, CoreError> {
        debug_assert_eq!(unit, 0, "default evaluators have a single unit");
        self.evaluate(scenario).map(|e| EvalUnit::Whole(Box::new(e)))
    }

    /// Evaluates one unit warm-started from a cheap external EBW
    /// estimate (the fluid screening pre-pass of [`run_sweep_with`],
    /// see [`SweepOptions::screen`]). The default ignores the prior;
    /// [`BusSimEval`] threads it into its adaptive stopping rule.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::evaluate_unit`].
    fn evaluate_unit_primed(
        &self,
        scenario: &Scenario,
        unit: u32,
        prior: Option<PriorSeed>,
    ) -> Result<EvalUnit, CoreError> {
        let _ = prior;
        self.evaluate_unit(scenario, unit)
    }

    /// Evaluates one unit under an optional [`UnitBudget`] watchdog —
    /// the entry point of the sweep supervisor. The default ignores the
    /// budget and delegates (the supervisor then enforces the ceilings
    /// post hoc); [`BusSimEval`] threads it into the incremental
    /// engines so a runaway simulation is cut off mid-run.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::evaluate_unit_primed`], plus
    /// [`CoreError::BudgetExceeded`] when a ceiling trips.
    fn evaluate_unit_supervised(
        &self,
        scenario: &Scenario,
        unit: u32,
        prior: Option<PriorSeed>,
        budget: Option<&UnitBudget>,
    ) -> Result<EvalUnit, CoreError> {
        let _ = budget;
        self.evaluate_unit_primed(scenario, unit, prior)
    }

    /// Whether the fluid screening pre-pass may skip or seed this
    /// evaluator's grid points. Defaults to `false`; only the
    /// stochastic single-bus simulator opts in — screening an analytic
    /// vehicle would replace an exact answer with an approximation,
    /// and the crossbar baselines model a different network than the
    /// fluid limit.
    fn fluid_screenable(&self) -> bool {
        false
    }

    /// Combines unit results (in unit-index order) into the final
    /// evaluation. Must be deterministic in its inputs.
    ///
    /// # Errors
    ///
    /// Propagates evaluator-specific combination failures.
    ///
    /// # Panics
    ///
    /// The default panics unless handed exactly one
    /// [`EvalUnit::Whole`] (the contract of the default single-unit
    /// shape).
    fn combine_units(
        &self,
        scenario: &Scenario,
        units: Vec<EvalUnit>,
    ) -> Result<Evaluation, CoreError> {
        let _ = scenario;
        match (units.len(), units.into_iter().next()) {
            (1, Some(EvalUnit::Whole(e))) => Ok(*e),
            _ => panic!("default combine_units expects exactly one Whole unit"),
        }
    }

    /// Canonical fingerprint of everything about this evaluator's
    /// *configuration* that influences its results — the evaluator half
    /// of a [`crate::cache`] key. Defaults to [`Evaluator::name`]
    /// (correct for the parameter-free analytic vehicles); evaluators
    /// with budgets, seeds, or solver options must append them.
    /// Execution mode is deliberately excluded: parallel and serial
    /// runs are bit-identical by construction.
    fn config_fingerprint(&self) -> String {
        self.name().to_owned()
    }

    /// When `scenario` can be solved as part of an axis-incremental
    /// group, the key identifying that group: scenarios sharing a key
    /// under this evaluator may be handed to [`Evaluator::evaluate_group`]
    /// together and solved in one resumable pass. `None` (the default)
    /// means the evaluator has no warm-startable axis.
    fn incremental_key(&self, scenario: &Scenario) -> Option<String> {
        let _ = scenario;
        None
    }

    /// Evaluates a batch of scenarios sharing one
    /// [`Evaluator::incremental_key`], amortizing shared solver state.
    /// Results must be **bit-identical** to independent
    /// [`Evaluator::evaluate`] calls — grouping is a pure perf
    /// optimization. The default simply maps `evaluate`.
    fn evaluate_group(&self, scenarios: &[&Scenario]) -> Vec<Result<Evaluation, CoreError>> {
        scenarios.iter().map(|s| self.evaluate(s)).collect()
    }
}

fn analytic_evaluation(evaluator: &'static str, scenario: &Scenario, ebw: f64) -> Evaluation {
    Evaluation {
        evaluator,
        scenario: scenario.clone(),
        metrics: Metrics::from_ebw(scenario.params, ebw),
        half_width_95: 0.0,
        replications: 1,
        per_processor_ebw: None,
        occupancy: None,
        module_references: None,
        hot_module: None,
        simulated_events: 0,
        windows: None,
    }
}

/// Metrics for the crossbar baselines. The single-bus identities do not
/// apply — there is no shared bus, and a serviced request occupies its
/// module for one full crossbar cycle — so utilization is reported as
/// concurrency (`EBW / min(n, m)`) and module occupancy as `EBW / m`.
fn crossbar_evaluation(evaluator: &'static str, scenario: &Scenario, ebw: f64) -> Evaluation {
    let mut evaluation = analytic_evaluation(evaluator, scenario, ebw);
    evaluation.metrics.bus_utilization = ebw / f64::from(scenario.params.min_nm());
    evaluation.metrics.memory_utilization = ebw / f64::from(scenario.params.m());
    evaluation
}

/// Shared domain guard of the state-space analytic vehicles: a single
/// multiplexed bus and system sizes their chains / recursions handle.
/// Larger systems belong to the fluid evaluator, whose cost is O(1) in
/// `n`.
fn analytic_domain(s: &Scenario) -> bool {
    s.buses == 1 && s.params.n() <= 4096 && s.params.m() <= 4096
}

/// Most occupancy-chain states (partitions of `n` into at most
/// `min(n, m)` parts) the exact, crossbar and multibus evaluators
/// accept. On a shared 2-CPU host n = m = 20 (627 states) solves in
/// 0.73 s, n = m = 22 (1 002) in 2.6 s and n = m = 28 (3 718) in 53 s.
pub const OCCUPANCY_STATE_CEILING: u64 = 640;

/// Largest [`ReducedChain::state_bound`] the reduced-chain evaluators
/// accept: it caps the dense `S × S` solve at 512 MiB of `f64`. It
/// admits `min(n, m) ≤ 28` at `p = 1` and n = 16, m = 8 at `p < 1`.
pub const REDUCED_STATE_CEILING: u64 = 8_192;

/// Whether the occupancy chain of `s` fits [`OCCUPANCY_STATE_CEILING`]
/// (counted without building it).
fn occupancy_chain_fits(s: &Scenario) -> bool {
    partition_count(s.params.n(), s.params.min_nm(), OCCUPANCY_STATE_CEILING).is_some()
}

fn reduced_chain_fits(s: &Scenario) -> bool {
    ReducedChain::new(s.params).state_bound() <= REDUCED_STATE_CEILING
}

/// The §3 hypotheses of the memory-priority models (the exact chain
/// and the combinational approximation): no buffers, random
/// arbitration, `p = 1`, uniform workload, constant service.
fn memory_priority_model(s: &Scenario) -> bool {
    analytic_domain(s)
        && s.policy == BusPolicy::MemoryPriority
        && !s.buffering.is_buffered()
        && s.arbitration == ArbitrationKind::Random
        && s.params.p() >= 1.0
        && s.workload.is_uniform()
        && s.has_paper_service()
}

/// The §4 hypotheses of the processor-priority reduced chain (alone or
/// as the depth-aware approximation's anchor): random arbitration,
/// uniform workload, constant service, a chain within its ceiling.
fn processor_priority_chain(s: &Scenario) -> bool {
    analytic_domain(s)
        && s.policy == BusPolicy::ProcessorPriority
        && s.arbitration == ArbitrationKind::Random
        && s.workload.is_uniform()
        && s.has_paper_service()
        && reduced_chain_fits(s)
}

/// Shared domain guard of the stochastic simulators: a single bus and
/// per-entity state that fits comfortably in memory.
fn sim_domain(s: &Scenario) -> bool {
    s.buses == 1 && s.params.n() <= 65_536 && s.params.m() <= 65_536
}

fn require(
    evaluator: &'static str,
    scenario: &Scenario,
    ok: bool,
    reason: &str,
) -> Result<(), CoreError> {
    if ok {
        Ok(())
    } else {
        Err(CoreError::UnsupportedScenario {
            evaluator,
            reason: format!("{reason} (scenario: {})", scenario.label()),
        })
    }
}

/// §3.1.1 exact occupancy chain: memory priority, unbuffered, `p = 1`,
/// constant service.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactChainEval;

impl Evaluator for ExactChainEval {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn supports(&self, s: &Scenario) -> bool {
        memory_priority_model(s) && occupancy_chain_fits(s)
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError> {
        require(
            self.name(),
            scenario,
            self.supports(scenario),
            "the exact chain is defined for memory priority, no buffers, random arbitration, \
             p = 1, uniform workload, constant service, within the occupancy-chain state \
             ceiling",
        )?;
        let ebw = ExactChain::new(scenario.params).ebw()?;
        Ok(analytic_evaluation(self.name(), scenario, ebw))
    }
}

/// §4 reduced `(i, c, e, b)` chain: processor priority, unbuffered,
/// constant service (`p < 1` via the documented extension).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReducedChainEval;

impl Evaluator for ReducedChainEval {
    fn name(&self) -> &'static str {
        "reduced"
    }

    fn supports(&self, s: &Scenario) -> bool {
        !s.buffering.is_buffered() && processor_priority_chain(s)
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError> {
        require(
            self.name(),
            scenario,
            self.supports(scenario),
            "the reduced chain is defined for processor priority, no buffers, random \
             arbitration, uniform workload, constant service, within the reduced-chain state \
             ceiling",
        )?;
        let ebw = ReducedChain::new(scenario.params).ebw()?;
        Ok(analytic_evaluation(self.name(), scenario, ebw))
    }
}

/// §3.2 combinational approximation of the memory-priority system.
#[derive(Clone, Copy, Debug, Default)]
pub struct ApproxEval {
    /// Plain (Table 2) or symmetrized (§5) variant.
    pub variant: ApproxVariant,
}

impl Evaluator for ApproxEval {
    fn name(&self) -> &'static str {
        match self.variant {
            ApproxVariant::Plain => "approx",
            ApproxVariant::Symmetric => "approx-sym",
        }
    }

    fn supports(&self, s: &Scenario) -> bool {
        memory_priority_model(s)
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError> {
        require(
            self.name(),
            scenario,
            self.supports(scenario),
            "the combinational model approximates the memory-priority unbuffered system at \
             p = 1 under the uniform workload",
        )?;
        let ebw = ApproxModel::new(scenario.params, self.variant).ebw();
        Ok(analytic_evaluation(self.name(), scenario, ebw))
    }
}

/// Depth-aware combinational approximation of the buffered system
/// ([`crate::analytic::approx::depth_aware_ebw`]): the reduced chain at
/// depth 0, the clamped product-form limit at depth ∞, geometric
/// closure in between. Covers the whole buffering axis under processor
/// priority.
#[derive(Clone, Copy, Debug, Default)]
pub struct DepthApproxEval;

impl Evaluator for DepthApproxEval {
    fn name(&self) -> &'static str {
        "approx-depth"
    }

    fn supports(&self, s: &Scenario) -> bool {
        processor_priority_chain(s)
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError> {
        require(
            self.name(),
            scenario,
            self.supports(scenario),
            "the depth-aware approximation covers processor priority, random arbitration, \
             uniform workload, constant service (any buffer depth), within the reduced-chain \
             state ceiling",
        )?;
        let depth = scenario.buffering.effective_depth(scenario.params.n());
        let ebw = crate::analytic::approx::depth_aware_ebw(&scenario.params, depth)?;
        Ok(analytic_evaluation(self.name(), scenario, ebw))
    }

    fn incremental_key(&self, scenario: &Scenario) -> Option<String> {
        // The depth-aware closure's anchors {E(0), E(∞), ρ} depend only
        // on the system parameters, so grid points differing along the
        // buffering-depth axis share one anchor computation. Supports()
        // pins policy/arbitration/workload/service, so the parameters
        // alone identify the group.
        if !self.supports(scenario) {
            return None;
        }
        let p = &scenario.params;
        Some(format!("{}|n={}|m={}|r={}|p={}", self.name(), p.n(), p.m(), p.r(), f64_hex(p.p())))
    }

    fn evaluate_group(&self, scenarios: &[&Scenario]) -> Vec<Result<Evaluation, CoreError>> {
        let Some(first) = scenarios.first() else {
            return Vec::new();
        };
        let approx = match crate::analytic::approx::DepthAwareApprox::new(&first.params) {
            Ok(approx) => approx,
            // Anchor construction failed: take the scratch path so each
            // member reports the identical error.
            Err(_) => return scenarios.iter().map(|s| self.evaluate(s)).collect(),
        };
        scenarios
            .iter()
            .map(|s| {
                let depth = s.buffering.effective_depth(s.params.n());
                Ok(analytic_evaluation(self.name(), s, approx.ebw_at(depth)))
            })
            .collect()
    }
}

/// Which product-form algorithm [`PfqnEval`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PfqnAlgorithm {
    /// Reiser–Lavenberg exact Mean Value Analysis.
    #[default]
    Mva,
    /// Buzen's convolution algorithm.
    Buzen,
}

/// §6 product-form (exponential-service) model of the buffered system.
#[derive(Clone, Copy, Debug, Default)]
pub struct PfqnEval {
    /// Solution algorithm (the two must agree; both are exposed so the
    /// validation suite can cross-check them).
    pub algorithm: PfqnAlgorithm,
}

impl Evaluator for PfqnEval {
    fn name(&self) -> &'static str {
        match self.algorithm {
            PfqnAlgorithm::Mva => "pfqn",
            PfqnAlgorithm::Buzen => "pfqn-buzen",
        }
    }

    fn supports(&self, s: &Scenario) -> bool {
        // The product-form network queues requests at the modules, so
        // any buffered depth (its queues are unbounded) is in domain —
        // including non-uniform reference distributions, which become
        // per-module visit ratios. Heterogeneous think probabilities
        // have no single-class product-form counterpart, and a bursty
        // (non-stationary) workload has no single operating point for
        // the steady-state network to solve.
        analytic_domain(s)
            && s.buffering.is_buffered()
            && s.arbitration == ArbitrationKind::Random
            && s.workload.has_homogeneous_thinking()
            && s.workload.is_stationary()
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError> {
        require(
            self.name(),
            scenario,
            self.supports(scenario),
            "the product-form model describes the buffered system under homogeneous thinking",
        )?;
        let ebw = match self.algorithm {
            PfqnAlgorithm::Mva => pfqn_ebw(&scenario.params, &scenario.workload)?,
            PfqnAlgorithm::Buzen => pfqn_ebw_buzen(&scenario.params, &scenario.workload)?,
        };
        Ok(analytic_evaluation(self.name(), scenario, ebw))
    }

    fn incremental_key(&self, scenario: &Scenario) -> Option<String> {
        // The central-server network depends on (m, r, p, workload) but
        // not on the population n, so a population-axis group shares
        // one network and one incremental MVA/convolution pass.
        if !self.supports(scenario) {
            return None;
        }
        let p = &scenario.params;
        Some(format!(
            "{}|m={}|r={}|p={}|wl={}",
            self.name(),
            p.m(),
            p.r(),
            f64_hex(p.p()),
            workload_fingerprint(&scenario.workload)
        ))
    }

    fn evaluate_group(&self, scenarios: &[&Scenario]) -> Vec<Result<Evaluation, CoreError>> {
        let Some(first) = scenarios.first() else {
            return Vec::new();
        };
        let populations: Vec<u32> = scenarios.iter().map(|s| s.params.n()).collect();
        let grouped = match self.algorithm {
            PfqnAlgorithm::Mva => pfqn_ebw_group(&first.params, &first.workload, &populations),
            PfqnAlgorithm::Buzen => {
                pfqn_ebw_buzen_group(&first.params, &first.workload, &populations)
            }
        };
        match grouped {
            Ok(ebws) => scenarios
                .iter()
                .zip(ebws)
                .map(|(s, ebw)| ebw.map(|e| analytic_evaluation(self.name(), s, e)))
                .collect(),
            // Network construction failed: scratch per member, so each
            // reports the identical error it would have standalone.
            Err(_) => scenarios.iter().map(|s| self.evaluate(s)).collect(),
        }
    }
}

/// Exact crossbar baseline (references 1/17): the target network the
/// paper designs the single bus against. Ignores policy and buffering.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrossbarExactEval;

impl Evaluator for CrossbarExactEval {
    fn name(&self) -> &'static str {
        "crossbar"
    }

    fn supports(&self, s: &Scenario) -> bool {
        analytic_domain(s)
            && s.params.p() >= 1.0
            && s.arbitration == ArbitrationKind::Random
            && s.workload.is_uniform()
            && occupancy_chain_fits(s)
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError> {
        require(
            self.name(),
            scenario,
            self.supports(scenario),
            "the exact crossbar chain is defined for p = 1 under the uniform workload, within \
             the occupancy-chain state ceiling",
        )?;
        let ebw = crossbar_ebw_exact(scenario.params.n(), scenario.params.m())?;
        Ok(crossbar_evaluation(self.name(), scenario, ebw))
    }
}

/// How a simulation evaluator decides it has simulated enough.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Stopping {
    /// The classical scheme: exactly [`SimBudget::replications`]
    /// independent replications of [`SimBudget::measure`] cycles each.
    Fixed,
    /// Adaptive precision: one long run extended batch by batch
    /// (batches of `measure / 4` cycles) until the 95% batch-means
    /// half-width on EBW is at most `ci_width`, capped at `max_reps ×
    /// measure` measured cycles. Pays warmup once and escapes the
    /// small-sample Student-t penalty, so easy grid points stop far
    /// earlier than the fixed scheme.
    Adaptive {
        /// Target 95% half-width of the EBW estimate.
        ci_width: f64,
        /// Budget ceiling, in multiples of [`SimBudget::measure`]
        /// (so `Fixed`-equivalent cost is `max_reps == replications`).
        max_reps: u32,
    },
}

/// Simulation budget shared by the stochastic evaluators.
///
/// ## Common random numbers
///
/// A replication's seed depends only on `(master_seed, replication
/// index)` — never on the scenario — so every grid point of a sweep
/// reuses the same random streams. Differences between neighboring
/// points are therefore estimated with positively correlated noise,
/// which tightens comparisons at no extra simulation cost (the classic
/// common-random-numbers variance-reduction technique).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimBudget {
    /// Independent replications per scenario (the fixed scheme's count
    /// and the unit grain the sweep scheduler fans out).
    pub replications: u32,
    /// Discarded warmup cycles per replication.
    pub warmup: u64,
    /// Measured cycles per replication.
    pub measure: u64,
    /// Master seed of the per-replication seed sequence.
    pub master_seed: u64,
    /// Which simulation engine advances the model (cycle-stepped vs
    /// event-driven; statistically equivalent, validated
    /// differentially).
    pub engine: EngineKind,
    /// When to stop simulating a scenario (fixed replications vs
    /// adaptive precision).
    pub stopping: Stopping,
}

impl SimBudget {
    /// Paper-grade budget: 6 replications × 200 000 measured cycles,
    /// cycle-stepped engine.
    pub fn paper() -> Self {
        SimBudget {
            replications: 6,
            warmup: 20_000,
            measure: 200_000,
            master_seed: 0x1985_0414, // ISCA'85 flavor
            engine: EngineKind::Cycle,
            stopping: Stopping::Fixed,
        }
    }

    /// Small budget for tests and smoke runs: 2 × 20 000 cycles.
    pub fn quick() -> Self {
        SimBudget { replications: 2, warmup: 2_000, measure: 20_000, ..SimBudget::paper() }
    }

    /// The `busnet sweep` and `busnet serve` default: 4 replications ×
    /// 50 000 measured cycles after 5 000 warmup cycles.
    pub fn sweep() -> Self {
        SimBudget { replications: 4, warmup: 5_000, measure: 50_000, ..SimBudget::paper() }
    }

    /// The `busnet sim` default: one run of 200 000 measured cycles
    /// seeded with 42. The run has no replications; its count here is
    /// only the default adaptive ceiling (`max_reps`), 8 × the
    /// measured window. `spec::single_run_budget` makes the warmup a
    /// tenth of the measured window unless one is given.
    pub fn single_run() -> Self {
        SimBudget { replications: 8, master_seed: 42, ..SimBudget::paper() }
    }

    /// Returns a copy with the given master seed.
    pub fn with_master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Returns a copy with the given simulation engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Returns a copy using adaptive-precision stopping (see
    /// [`Stopping::Adaptive`]).
    pub fn with_ci_width(mut self, ci_width: f64, max_reps: u32) -> Self {
        self.stopping = Stopping::Adaptive { ci_width, max_reps };
        self
    }

    /// The batch-means stopping plan of an adaptive budget (`None`
    /// under [`Stopping::Fixed`]): batches of `measure / 4` cycles, at
    /// least 8 of them, and a ceiling of `max_reps × measure` measured
    /// cycles (never below two batches). `prior` is the optional fluid
    /// screening prediction the stopping rule may confirm early.
    pub fn adaptive_plan(&self, prior: Option<PriorSeed>) -> Option<AdaptivePlan> {
        let Stopping::Adaptive { ci_width, max_reps } = self.stopping else {
            return None;
        };
        let batch_cycles = (self.measure / 4).max(1);
        Some(AdaptivePlan {
            ci_width,
            batch_cycles,
            min_batches: 8,
            max_measure: self
                .measure
                .saturating_mul(u64::from(max_reps.max(1)))
                .max(2 * batch_cycles),
            prior,
        })
    }
}

impl Default for SimBudget {
    fn default() -> Self {
        SimBudget::paper()
    }
}

/// The cycle-accurate single-bus simulator behind the replication
/// driver. Supports every scenario.
#[derive(Clone, Copy, Debug, Default)]
pub struct BusSimEval {
    /// Replication budget.
    pub budget: SimBudget,
}

impl BusSimEval {
    /// An evaluator with the given budget.
    pub fn new(budget: SimBudget) -> Self {
        BusSimEval { budget }
    }

    /// The simulator configuration for `scenario` under this budget,
    /// seeded with `seed`. `busnet sim` runs its single point through
    /// the same mapping.
    pub fn builder_for(&self, scenario: &Scenario, seed: u64) -> BusSimBuilder {
        let mut builder = BusSimBuilder::new(scenario.params)
            .policy(scenario.policy)
            .buffering(scenario.buffering)
            .arbitration(scenario.arbitration)
            .workload(scenario.workload.clone())
            .engine(self.budget.engine)
            .seed(seed)
            .warmup_cycles(self.budget.warmup)
            .measure_cycles(self.budget.measure);
        if let Some(spec) = scenario.workload.mmpp_spec() {
            // Bursty runs get transient telemetry for free: one window
            // per dwell, aligned with the phase boundaries.
            builder = builder.window_cycles(spec.dwell());
        }
        if let Some(service) = scenario.memory_service {
            builder = builder.memory_service(service);
        }
        builder
    }

    /// Merges per-replication reports (in replication order) into one
    /// [`Evaluation`]; deterministic in its inputs, so serial and
    /// work-stealing execution produce bit-identical results.
    fn aggregate_reports(&self, scenario: &Scenario, reports: Vec<SimReport>) -> Evaluation {
        let summary = ReplicationSummary::from_values(reports.iter().map(|r| r.ebw()).collect());
        let n = scenario.params.n() as usize;
        let measured_total: u64 = reports.iter().map(|r| r.measured_cycles).sum();
        let rc = f64::from(scenario.params.processor_cycle());
        let per_processor_ebw: Vec<f64> = (0..n)
            .map(|i| {
                let returns: u64 = reports.iter().map(|r| r.per_processor_returns[i]).sum();
                returns as f64 * rc / measured_total as f64
            })
            .collect();
        // Occupancy telemetry: merge the per-replication histograms
        // (weights are module-cycles, so the merge is the pooled
        // distribution) and sum the blocking counts.
        let (first, rest) = reports.split_first().expect("at least one replication");
        let mut input = first.input_occupancy.clone();
        let mut output = first.output_occupancy.clone();
        let mut blocked = first.blocked_completions;
        for r in rest {
            input.merge(&r.input_occupancy);
            output.merge(&r.output_occupancy);
            blocked += r.blocked_completions;
        }
        let depth = first.buffer_depth();
        let input_full_fraction = crate::sim::bus::input_full_fraction(depth, &input);
        let occupancy = OccupancySummary {
            buffer_depth: depth,
            mean_input_queue: input.mean(),
            mean_output_queue: output.mean(),
            input_distribution: input.distribution(),
            output_distribution: output.distribution(),
            input_full_fraction,
            blocked_completions: blocked,
        };
        // Per-module workload telemetry: sum counts over replications,
        // then summarize the empirically hottest module.
        let modules = scenario.params.m() as usize;
        let mut module_references = vec![0u64; modules];
        let mut module_busy = vec![0u64; modules];
        let mut module_level_cycles = vec![0u64; modules];
        for r in &reports {
            for j in 0..modules {
                module_references[j] += r.per_module_requests[j];
                module_busy[j] += r.per_module_busy_cycles[j];
                module_level_cycles[j] += r.per_module_input_level_cycles[j];
            }
        }
        let hot_module = module_references
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .filter(|(_, &max)| max > 0)
            .map(|(j, &refs)| HotModuleSummary {
                module: j,
                reference_share: refs as f64 / module_references.iter().sum::<u64>() as f64,
                utilization: module_busy[j] as f64 / measured_total as f64,
                mean_input_queue: module_level_cycles[j] as f64 / measured_total as f64,
            });
        let simulated_events = reports.iter().map(|r| r.events).sum();
        let windows = merge_window_series(reports.iter().filter_map(|r| r.windows.as_ref()));
        Evaluation {
            evaluator: self.name(),
            scenario: scenario.clone(),
            metrics: Metrics::from_ebw(scenario.params, summary.mean()),
            half_width_95: summary.half_width_95(),
            replications: summary.replications() as u32,
            per_processor_ebw: Some(per_processor_ebw),
            occupancy: Some(occupancy),
            module_references: Some(module_references),
            hot_module,
            simulated_events,
            windows,
        }
    }
}

/// Pools per-replication window trajectories element-wise: counts and
/// cycles sum (so per-window rates become pooled means), a window's
/// phase tag survives only where every replication agrees (independent
/// phase chains generally disagree), and per-phase cycle totals sum.
/// Replications whose series is shorter (adaptive truncation) clip the
/// pooled series to the common prefix.
fn merge_window_series<'a>(
    mut series: impl Iterator<Item = &'a WindowSeries>,
) -> Option<WindowSeries> {
    let mut pooled = series.next()?.clone();
    for s in series {
        pooled.windows.truncate(s.windows.len());
        for (acc, w) in pooled.windows.iter_mut().zip(&s.windows) {
            acc.cycles += w.cycles;
            acc.returns += w.returns;
            acc.busy_channel_cycles += w.busy_channel_cycles;
            acc.input_level_cycles += w.input_level_cycles;
            if acc.phase != w.phase {
                acc.phase = None;
            }
        }
        pooled.phase_cycles.resize(pooled.phase_cycles.len().max(s.phase_cycles.len()), 0);
        for (acc, &c) in pooled.phase_cycles.iter_mut().zip(&s.phase_cycles) {
            *acc += c;
        }
    }
    Some(pooled)
}

impl Evaluator for BusSimEval {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn supports(&self, scenario: &Scenario) -> bool {
        sim_domain(scenario)
    }

    fn fluid_screenable(&self) -> bool {
        true
    }

    fn config_fingerprint(&self) -> String {
        // Everything result-relevant in the budget. ExecutionMode is
        // excluded on purpose: parallel and serial execution are
        // bit-identical (PR 1 invariant), so they share cache lines.
        let stopping = match self.budget.stopping {
            Stopping::Fixed => "fixed".to_owned(),
            Stopping::Adaptive { ci_width, max_reps } => {
                format!("adaptive:{}:{max_reps}", f64_hex(ci_width))
            }
        };
        format!(
            "{}:reps={}:warmup={}:measure={}:seed={:016x}:engine={}:stop={stopping}",
            self.name(),
            self.budget.replications,
            self.budget.warmup,
            self.budget.measure,
            self.budget.master_seed,
            self.budget.engine.name(),
        )
    }

    fn work_units(&self, _scenario: &Scenario) -> u32 {
        match self.budget.stopping {
            // One unit per replication: the grain the sweep scheduler
            // steals across cores.
            Stopping::Fixed => self.budget.replications.max(1),
            // An adaptive run is inherently sequential (each batch
            // decides whether to extend), so it is one unit.
            Stopping::Adaptive { .. } => 1,
        }
    }

    fn evaluate_unit(&self, scenario: &Scenario, unit: u32) -> Result<EvalUnit, CoreError> {
        self.evaluate_unit_primed(scenario, unit, None)
    }

    fn evaluate_unit_primed(
        &self,
        scenario: &Scenario,
        unit: u32,
        prior: Option<PriorSeed>,
    ) -> Result<EvalUnit, CoreError> {
        self.evaluate_unit_supervised(scenario, unit, prior, None)
    }

    fn evaluate_unit_supervised(
        &self,
        scenario: &Scenario,
        unit: u32,
        prior: Option<PriorSeed>,
        budget: Option<&UnitBudget>,
    ) -> Result<EvalUnit, CoreError> {
        require(
            self.name(),
            scenario,
            self.supports(scenario),
            "the cycle-accurate simulator runs a single bus with at most 65536 \
             processors/modules (larger systems belong to the fluid evaluator)",
        )?;
        scenario.validate()?;
        // Seeds depend only on (master_seed, unit): common random
        // numbers across every scenario of a sweep. The budget watchdog
        // never perturbs them — a run inside its budget is bit-identical
        // to an unbudgeted one.
        let seeds = SeedSequence::new(self.budget.master_seed);
        let watchdog = budget.copied().unwrap_or_default();
        let plan = self.budget.adaptive_plan(prior);
        debug_assert!(plan.is_none() || unit == 0, "adaptive runs are a single unit");
        let outcome = self
            .builder_for(scenario, seeds.stream(u64::from(unit)))
            .run_budgeted(&watchdog, plan.as_ref())?;
        if plan.is_none() {
            return Ok(EvalUnit::Replication(Box::new(outcome.report)));
        }
        let mut evaluation = self.aggregate_reports(scenario, vec![outcome.report]);
        evaluation.half_width_95 = outcome.half_width_95;
        evaluation.replications = outcome.batches.min(u64::from(u32::MAX)) as u32;
        Ok(EvalUnit::Whole(Box::new(evaluation)))
    }

    fn combine_units(
        &self,
        scenario: &Scenario,
        units: Vec<EvalUnit>,
    ) -> Result<Evaluation, CoreError> {
        let mut reports = Vec::with_capacity(units.len());
        for unit in units {
            match unit {
                // Adaptive runs arrive pre-assembled.
                EvalUnit::Whole(e) => return Ok(*e),
                EvalUnit::Replication(r) => reports.push(*r),
            }
        }
        Ok(self.aggregate_reports(scenario, reports))
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError> {
        // Full reports rather than scalars: the per-processor counts
        // feed the fairness measures. Results stay in unit order, so
        // the parallel fan-out is bit-identical to a serial run (a
        // sweep's executor runs the same units with any thread count).
        let units: Vec<u32> = (0..self.work_units(scenario)).collect();
        let results =
            parallel_map(&units, ExecutionMode::Parallel, |_, &u| self.evaluate_unit(scenario, u));
        let mut ok = Vec::with_capacity(results.len());
        for result in results {
            ok.push(result?);
        }
        self.combine_units(scenario, ok)
    }
}

/// The synchronous crossbar simulator baseline (handles `p < 1`, where
/// the exact crossbar chain does not). Honors the scenario's
/// arbitration kind; ignores policy, buffering, service overrides and
/// the budget's engine (the crossbar runs cycle-stepped).
#[derive(Clone, Copy, Debug)]
pub struct CrossbarSimEval {
    /// RNG seed.
    pub seed: u64,
    /// Discarded warmup cycles (crossbar cycles).
    pub warmup: u64,
    /// Measured cycles (crossbar cycles).
    pub measure: u64,
}

impl CrossbarSimEval {
    /// An evaluator drawing its seed and cycle counts from `budget`
    /// (one processor-cycle step per `r + 2` bus cycles, so the warmup
    /// is scaled down by 10 as in the paper-reproduction runners).
    pub fn new(budget: SimBudget) -> Self {
        CrossbarSimEval {
            seed: budget.master_seed ^ 0xF16,
            warmup: (budget.warmup / 10).max(100),
            measure: budget.measure,
        }
    }

    /// Runs the simulation under `budget`, checked between slices of
    /// the run so a runaway unit stops mid-run.
    fn run(&self, scenario: &Scenario, budget: &UnitBudget) -> Result<Evaluation, CoreError> {
        require(
            self.name(),
            scenario,
            self.supports(scenario),
            "the crossbar simulator runs a single-crossbar network with at most 65536 \
             processors/modules",
        )?;
        scenario.workload.validate(scenario.params.n(), scenario.params.m())?;
        let mut sim = CrossbarSim::new(scenario.params)
            .arbitration(scenario.arbitration)
            .workload(scenario.workload.clone())
            .seed(self.seed)
            .warmup_cycles(self.warmup)
            .measure_cycles(self.measure);
        if let Some(spec) = scenario.workload.mmpp_spec() {
            sim = sim.window_cycles(spec.dwell());
        }
        let report = sim.run_budgeted(budget)?;
        let mut evaluation = crossbar_evaluation(self.name(), scenario, report.ebw());
        evaluation.per_processor_ebw = Some(report.per_processor_ebw());
        evaluation.simulated_events = report.events;
        evaluation.windows = report.windows;
        Ok(evaluation)
    }
}

impl Evaluator for CrossbarSimEval {
    fn name(&self) -> &'static str {
        "crossbar-sim"
    }

    fn supports(&self, scenario: &Scenario) -> bool {
        sim_domain(scenario)
    }

    fn config_fingerprint(&self) -> String {
        // `engine=cycle` stays in the string so journals written before
        // the crossbar lost its event engine still replay.
        format!(
            "{}:seed={:016x}:warmup={}:measure={}:engine=cycle",
            self.name(),
            self.seed,
            self.warmup,
            self.measure,
        )
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError> {
        self.run(scenario, &UnitBudget::default())
    }

    fn evaluate_unit_supervised(
        &self,
        scenario: &Scenario,
        unit: u32,
        _prior: Option<PriorSeed>,
        budget: Option<&UnitBudget>,
    ) -> Result<EvalUnit, CoreError> {
        debug_assert_eq!(unit, 0, "the crossbar simulator runs as one unit");
        let evaluation = self.run(scenario, &budget.copied().unwrap_or_default())?;
        Ok(EvalUnit::Whole(Box::new(evaluation)))
    }
}

/// The mean-field fluid (ODE) evaluator
/// ([`crate::analytic::fluid`]): per-module queue-level fractions with
/// depth-`k` clipping, integrated to steady state from an analytic
/// equilibrium warm start. Cost is O(1) in `n`, so its domain covers
/// arbitrary system sizes (including `n = 10⁶`) — the scale vehicle
/// and the sweep screening pre-pass.
///
/// The fluid limit is policy- and arbitration-agnostic (per-request
/// priority effects vanish as mass dynamics), covers the whole
/// workload and buffering axes, and sees only the mean of the service
/// distribution.
#[derive(Clone, Copy, Debug, Default)]
pub struct FluidEval {
    /// Integrator tolerances and step budget.
    pub options: FluidOptions,
}

impl FluidEval {
    /// An evaluator with the given integrator options.
    pub fn new(options: FluidOptions) -> Self {
        FluidEval { options }
    }

    /// Solves the fluid model for `scenario` and returns the raw
    /// solution (the screening pass reads throughput and convergence
    /// directly; [`FluidEval::evaluate`] wraps this into an
    /// [`Evaluation`]).
    ///
    /// # Errors
    ///
    /// As [`FluidEval::evaluate`].
    pub fn solve(
        &self,
        scenario: &Scenario,
    ) -> Result<crate::analytic::fluid::FluidSolution, CoreError> {
        require(
            self.name(),
            scenario,
            self.supports(scenario),
            "the fluid mean-field model describes the single multiplexed bus",
        )?;
        scenario.validate()?;
        if let Some(spec) = scenario.workload.mmpp_spec() {
            return self.solve_mmpp_envelope(scenario, spec);
        }
        let model = FluidModel::new(
            scenario.params,
            scenario.buffering,
            &scenario.workload,
            scenario.service().mean(),
        )?;
        Ok(model.solve(&self.options))
    }

    /// Quasi-stationary envelope for a bursty workload: each phase is
    /// solved as its own stationary fluid system (the phase's think
    /// probability and reference skew), and the solutions are combined
    /// weighted by the chain's stationary phase occupancy. Exact in the
    /// slow-modulation limit (dwell ≫ relaxation time); between phase
    /// changes the finite system tracks each phase's fixed point.
    fn solve_mmpp_envelope(
        &self,
        scenario: &Scenario,
        spec: &crate::params::MmppSpec,
    ) -> Result<crate::analytic::fluid::FluidSolution, CoreError> {
        type Solution = crate::analytic::fluid::FluidSolution;
        let pi = spec.stationary_distribution();
        let mut solutions: Vec<(f64, Solution)> = Vec::with_capacity(pi.len());
        for (s, &weight) in pi.iter().enumerate() {
            let params =
                scenario.params.with_request_probability(spec.phases()[s].think_p.min(1.0))?;
            let model = FluidModel::new(
                params,
                scenario.buffering,
                &spec.phase_workload(s),
                scenario.service().mean(),
            )?;
            solutions.push((weight, model.solve(&self.options)));
        }
        let weighted = |field: fn(&Solution) -> f64| -> f64 {
            solutions.iter().map(|(w, s)| w * field(s)).sum()
        };
        let mut out = solutions[0].1.clone();
        out.ebw = weighted(|s| s.ebw);
        out.throughput = weighted(|s| s.throughput);
        out.mean_input_queue = weighted(|s| s.mean_input_queue);
        out.mean_output_queue = weighted(|s| s.mean_output_queue);
        out.input_full_fraction = weighted(|s| s.input_full_fraction);
        out.mean_module_level = weighted(|s| s.mean_module_level);
        out.module_utilization = weighted(|s| s.module_utilization);
        out.thinking_mass = weighted(|s| s.thinking_mass);
        out.waiting_mass = weighted(|s| s.waiting_mass);
        out.steps = solutions.iter().map(|(_, s)| s.steps).sum();
        out.converged = solutions.iter().all(|(_, s)| s.converged);
        out.residual = solutions.iter().map(|(_, s)| s.residual).fold(0.0, f64::max);
        out.conservation_error =
            solutions.iter().map(|(_, s)| s.conservation_error).fold(0.0, f64::max);
        let levels = solutions.iter().map(|(_, s)| s.input_distribution.len()).max().unwrap_or(0);
        out.input_distribution = (0..levels)
            .map(|level| {
                solutions
                    .iter()
                    .map(|(w, s)| w * s.input_distribution.get(level).copied().unwrap_or(0.0))
                    .sum()
            })
            .collect();
        // Hot-module view: occupancy-weighted over the phases that have
        // one, renormalized to a conditional (while-skewed) summary.
        let hot_weight: f64 =
            solutions.iter().filter(|(_, s)| s.hot.is_some()).map(|(w, _)| w).sum();
        out.hot = (hot_weight > 0.0).then(|| {
            let hots = solutions.iter().filter_map(|(w, s)| Some((w, s.hot.as_ref()?)));
            let mut merged: Option<crate::analytic::fluid::FluidHotModule> = None;
            for (&w, hot) in hots {
                let acc = merged.get_or_insert_with(|| {
                    let mut first = *hot;
                    first.reference_share = 0.0;
                    first.utilization = 0.0;
                    first.mean_input_queue = 0.0;
                    first
                });
                acc.reference_share += w / hot_weight * hot.reference_share;
                acc.utilization += w / hot_weight * hot.utilization;
                acc.mean_input_queue += w / hot_weight * hot.mean_input_queue;
            }
            merged.expect("hot_weight > 0 implies at least one hot phase")
        });
        Ok(out)
    }
}

/// Spreads a mean level over the two adjacent integer levels of a
/// `0..=top` distribution (the fluid model tracks the aggregate
/// output-FIFO mass, not its per-level split).
fn two_point_distribution(mean: f64, top: usize) -> Vec<f64> {
    let mut dist = vec![0.0; top + 1];
    let clamped = mean.clamp(0.0, top as f64);
    let lo = (clamped.floor() as usize).min(top);
    let hi = (lo + 1).min(top);
    let frac = clamped - lo as f64;
    dist[lo] += 1.0 - frac;
    dist[hi] += frac;
    dist
}

impl Evaluator for FluidEval {
    fn name(&self) -> &'static str {
        "fluid"
    }

    fn supports(&self, s: &Scenario) -> bool {
        // Any n/m/p, any workload, any buffering, any service with a
        // mean — but a single multiplexed bus.
        s.buses == 1
    }

    fn config_fingerprint(&self) -> String {
        format!(
            "{}:chain_tol={}:out_tol={}:window={}:max_steps={}",
            self.name(),
            f64_hex(self.options.chain_tolerance),
            f64_hex(self.options.output_tolerance),
            f64_hex(self.options.window),
            self.options.max_steps,
        )
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError> {
        let solution = self.solve(scenario)?;
        let mut evaluation = analytic_evaluation(self.name(), scenario, solution.ebw);
        let depth = scenario.buffering.effective_depth(scenario.params.n());
        evaluation.occupancy = Some(OccupancySummary {
            buffer_depth: depth,
            mean_input_queue: solution.mean_input_queue,
            mean_output_queue: solution.mean_output_queue,
            input_distribution: solution.input_distribution.clone(),
            output_distribution: two_point_distribution(
                solution.mean_output_queue,
                depth.clamp(1, crate::analytic::fluid::LEVEL_CAP - 1) as usize,
            ),
            input_full_fraction: solution.input_full_fraction,
            blocked_completions: 0,
        });
        evaluation.hot_module = solution.hot.map(|h| HotModuleSummary {
            module: h.module,
            reference_share: h.reference_share,
            utilization: h.utilization,
            mean_input_queue: h.mean_input_queue,
        });
        Ok(evaluation)
    }
}

/// The §7 multiple-bus baseline (the paper's reference 5): `b`
/// parallel non-multiplexed buses connecting unbuffered modules, the
/// network the trade-off discussion weighs the single multiplexed bus
/// against. Wraps [`crate::analytic::multibus::multibus_bw_exact`];
/// the scenario's [`Scenario::buses`] sets `b`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MultibusEval;

impl Evaluator for MultibusEval {
    fn name(&self) -> &'static str {
        "multibus"
    }

    fn supports(&self, s: &Scenario) -> bool {
        // Any bus count (that is the axis); otherwise the exact-chain
        // hypotheses — saturated request streams, uniform references,
        // no buffering — and occupancy-chain-sized systems.
        s.params.n() <= 4096
            && s.params.m() <= 4096
            && !s.buffering.is_buffered()
            && s.params.p() >= 1.0
            && s.arbitration == ArbitrationKind::Random
            && s.workload.is_uniform()
            && occupancy_chain_fits(s)
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError> {
        require(
            self.name(),
            scenario,
            self.supports(scenario),
            "the multiple-bus chain is defined for p = 1, uniform workload, unbuffered modules, \
             within the occupancy-chain state ceiling",
        )?;
        let ebw = multibus_bw_exact(scenario.params.n(), scenario.params.m(), scenario.buses)?;
        let mut evaluation = crossbar_evaluation(self.name(), scenario, ebw);
        // Concurrency is additionally capped by the bus count.
        let cap = f64::from(scenario.buses.min(scenario.params.min_nm()));
        evaluation.metrics.bus_utilization = ebw / cap;
        Ok(evaluation)
    }
}

/// Nameable evaluator kinds, for CLIs and config surfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EvaluatorKind {
    /// Cycle-accurate single-bus simulation.
    Sim,
    /// §3.1.1 exact chain.
    Exact,
    /// §4 reduced chain.
    Reduced,
    /// §3.2 combinational approximation (plain).
    Approx,
    /// §3.2 approximation, symmetrized.
    ApproxSymmetric,
    /// Depth-aware approximation over the buffering axis.
    DepthApprox,
    /// §6 product-form model via MVA.
    Pfqn,
    /// §6 product-form model via Buzen's convolution.
    PfqnBuzen,
    /// Exact crossbar baseline.
    CrossbarExact,
    /// Crossbar simulator baseline.
    CrossbarSim,
    /// Mean-field fluid (ODE) model, O(1) in `n`.
    Fluid,
    /// §7 multiple-bus baseline (buses axis).
    Multibus,
}

/// Every evaluator kind, in presentation order.
pub const ALL_EVALUATOR_KINDS: [EvaluatorKind; 12] = [
    EvaluatorKind::Sim,
    EvaluatorKind::Exact,
    EvaluatorKind::Reduced,
    EvaluatorKind::Approx,
    EvaluatorKind::ApproxSymmetric,
    EvaluatorKind::DepthApprox,
    EvaluatorKind::Pfqn,
    EvaluatorKind::PfqnBuzen,
    EvaluatorKind::CrossbarExact,
    EvaluatorKind::CrossbarSim,
    EvaluatorKind::Fluid,
    EvaluatorKind::Multibus,
];

impl EvaluatorKind {
    /// Stable textual id (`sim`, `exact`, `reduced`, …).
    pub fn name(self) -> &'static str {
        match self {
            EvaluatorKind::Sim => "sim",
            EvaluatorKind::Exact => "exact",
            EvaluatorKind::Reduced => "reduced",
            EvaluatorKind::Approx => "approx",
            EvaluatorKind::ApproxSymmetric => "approx-sym",
            EvaluatorKind::DepthApprox => "approx-depth",
            EvaluatorKind::Pfqn => "pfqn",
            EvaluatorKind::PfqnBuzen => "pfqn-buzen",
            EvaluatorKind::CrossbarExact => "crossbar",
            EvaluatorKind::CrossbarSim => "crossbar-sim",
            EvaluatorKind::Fluid => "fluid",
            EvaluatorKind::Multibus => "multibus",
        }
    }

    /// Parses a textual id.
    pub fn from_name(name: &str) -> Option<EvaluatorKind> {
        ALL_EVALUATOR_KINDS.iter().copied().find(|k| k.name() == name)
    }

    /// Instantiates the evaluator, drawing simulation budgets from
    /// `budget`.
    pub fn build(self, budget: SimBudget) -> Box<dyn Evaluator> {
        match self {
            EvaluatorKind::Sim => Box::new(BusSimEval::new(budget)),
            EvaluatorKind::Exact => Box::new(ExactChainEval),
            EvaluatorKind::Reduced => Box::new(ReducedChainEval),
            EvaluatorKind::Approx => Box::new(ApproxEval { variant: ApproxVariant::Plain }),
            EvaluatorKind::ApproxSymmetric => {
                Box::new(ApproxEval { variant: ApproxVariant::Symmetric })
            }
            EvaluatorKind::DepthApprox => Box::new(DepthApproxEval),
            EvaluatorKind::Pfqn => Box::new(PfqnEval { algorithm: PfqnAlgorithm::Mva }),
            EvaluatorKind::PfqnBuzen => Box::new(PfqnEval { algorithm: PfqnAlgorithm::Buzen }),
            EvaluatorKind::CrossbarExact => Box::new(CrossbarExactEval),
            EvaluatorKind::CrossbarSim => Box::new(CrossbarSimEval::new(budget)),
            EvaluatorKind::Fluid => Box::new(FluidEval::default()),
            EvaluatorKind::Multibus => Box::new(MultibusEval),
        }
    }
}

/// The `r` axis of a [`ScenarioGrid`]: explicit values or the paper's
/// recurring `r = min(n, m) + k` rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RAxis {
    /// Explicit values.
    Values(Vec<u32>),
    /// `r = min(n, m) + k` per grid point (Tables 1 and 2 use `k = 7`).
    MinNmPlus(u32),
}

/// A cartesian sweep over system parameters and mode knobs.
///
/// Axes default to a single paper-typical value each, so a grid only
/// names the axes it actually sweeps:
///
/// ```
/// use busnet_core::scenario::ScenarioGrid;
///
/// let grid = ScenarioGrid::new()
///     .n_values([4, 8])
///     .r_values([2, 6, 10]);
/// let scenarios = grid.scenarios()?;
/// assert_eq!(scenarios.len(), 6);
/// # Ok::<(), busnet_core::CoreError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ScenarioGrid {
    n: Vec<u32>,
    m: Vec<u32>,
    r: RAxis,
    p: Vec<f64>,
    policies: Vec<BusPolicy>,
    bufferings: Vec<Buffering>,
    arbitrations: Vec<ArbitrationKind>,
    workloads: Vec<Workload>,
    buses: Vec<u32>,
    memory_service: Option<ServiceTime>,
}

impl ScenarioGrid {
    /// A single-point grid at the paper's reference configuration
    /// (`n = 8, m = 16, r = 8, p = 1`, processor priority, unbuffered).
    pub fn new() -> Self {
        ScenarioGrid {
            n: vec![8],
            m: vec![16],
            r: RAxis::Values(vec![8]),
            p: vec![1.0],
            policies: vec![BusPolicy::ProcessorPriority],
            bufferings: vec![Buffering::Unbuffered],
            arbitrations: vec![ArbitrationKind::Random],
            workloads: vec![Workload::Uniform],
            buses: vec![1],
            memory_service: None,
        }
    }

    /// Sets the processor-count axis.
    pub fn n_values(mut self, values: impl Into<Vec<u32>>) -> Self {
        self.n = values.into();
        self
    }

    /// Sets the module-count axis.
    pub fn m_values(mut self, values: impl Into<Vec<u32>>) -> Self {
        self.m = values.into();
        self
    }

    /// Sets explicit `r` values.
    pub fn r_values(mut self, values: impl Into<Vec<u32>>) -> Self {
        self.r = RAxis::Values(values.into());
        self
    }

    /// Derives `r = min(n, m) + k` at every point (the Table 1/2 rule).
    pub fn r_min_nm_plus(mut self, k: u32) -> Self {
        self.r = RAxis::MinNmPlus(k);
        self
    }

    /// Sets the request-probability axis.
    pub fn p_values(mut self, values: impl Into<Vec<f64>>) -> Self {
        self.p = values.into();
        self
    }

    /// Sets the arbitration-policy axis.
    pub fn policies(mut self, values: impl Into<Vec<BusPolicy>>) -> Self {
        self.policies = values.into();
        self
    }

    /// Sets the buffering axis.
    pub fn bufferings(mut self, values: impl Into<Vec<Buffering>>) -> Self {
        self.bufferings = values.into();
        self
    }

    /// Sets the arbitration axis (hypothesis *h* and its relaxations).
    pub fn arbitrations(mut self, values: impl Into<Vec<ArbitrationKind>>) -> Self {
        self.arbitrations = values.into();
        self
    }

    /// Sets the workload axis (hypotheses *e*/*f* and their
    /// relaxations). Each workload is validated against every `(n, m)`
    /// point at expansion time.
    pub fn workloads(mut self, values: impl Into<Vec<Workload>>) -> Self {
        self.workloads = values.into();
        self
    }

    /// Sets the bus-count axis (the §7 trade-off; only
    /// [`MultibusEval`] accepts values above 1).
    pub fn buses_values(mut self, values: impl Into<Vec<u32>>) -> Self {
        self.buses = values.into();
        self
    }

    /// Applies an explicit service distribution to every point.
    pub fn memory_service(mut self, service: ServiceTime) -> Self {
        self.memory_service = Some(service);
        self
    }

    /// Number of scenarios the grid expands to, saturating at
    /// `usize::MAX`. Counts each distinct axis value once, matching
    /// [`ScenarioGrid::scenarios`]'s deduplication of repeated
    /// list-axis entries.
    pub fn len(&self) -> usize {
        let r = match &self.r {
            RAxis::Values(v) => dedup_axis(v).len(),
            RAxis::MinNmPlus(_) => 1,
        };
        [
            dedup_axis(&self.n).len(),
            dedup_axis(&self.m).len(),
            r,
            dedup_axis(&self.p).len(),
            dedup_axis(&self.policies).len(),
            dedup_axis(&self.bufferings).len(),
            dedup_axis(&self.arbitrations).len(),
            dedup_axis(&self.workloads).len(),
            dedup_axis(&self.buses).len(),
        ]
        .into_iter()
        .try_fold(1usize, usize::checked_mul)
        .unwrap_or(usize::MAX)
    }

    /// Whether the grid is degenerate (some axis has no values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid, in row-major axis order
    /// `n → m → r → p → policy → buffering → arbitration → workload →
    /// buses`. Repeated list-axis values are deduplicated (first
    /// occurrence wins), so every expanded point is distinct and a
    /// sweep evaluates it exactly once.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if any point violates the
    /// parameter invariants (including an invalid buffering depth or a
    /// workload whose shape does not fit the point's `(n, m)`).
    pub fn scenarios(&self) -> Result<Vec<Scenario>, CoreError> {
        for buffering in &self.bufferings {
            buffering.validate()?;
        }
        let ns = dedup_axis(&self.n);
        let ms = dedup_axis(&self.m);
        let ps = dedup_axis(&self.p);
        let policies = dedup_axis(&self.policies);
        let bufferings = dedup_axis(&self.bufferings);
        let arbitrations = dedup_axis(&self.arbitrations);
        let workloads = dedup_axis(&self.workloads);
        let buses_axis = dedup_axis(&self.buses);
        let mut out = Vec::with_capacity(self.len());
        for &n in &ns {
            for &m in &ms {
                let rs: Vec<u32> = match &self.r {
                    RAxis::Values(v) => dedup_axis(v),
                    RAxis::MinNmPlus(k) => vec![n.min(m) + k],
                };
                // Workload shapes depend only on (n, m): check once per
                // point, not once per inner row.
                for workload in &workloads {
                    workload.validate(n, m)?;
                }
                for &r in &rs {
                    for &p in &ps {
                        let params = SystemParams::new(n, m, r)?.with_request_probability(p)?;
                        for &policy in &policies {
                            for &buffering in &bufferings {
                                for &arbitration in &arbitrations {
                                    for workload in &workloads {
                                        for &buses in &buses_axis {
                                            let mut scenario = Scenario::new(params)
                                                .with_policy(policy)
                                                .with_buffering(buffering)
                                                .with_arbitration(arbitration)
                                                .with_workload(workload.clone())
                                                .with_buses(buses)?;
                                            if let Some(service) = self.memory_service {
                                                scenario = scenario.with_memory_service(service);
                                            }
                                            out.push(scenario);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

impl Default for ScenarioGrid {
    fn default() -> Self {
        ScenarioGrid::new()
    }
}

/// First occurrence of each value in axis order — repeated list-axis
/// entries (`--n 8,8`) must not expand into duplicate grid points.
fn dedup_axis<T: PartialEq + Clone>(values: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(values.len());
    for value in values {
        if !out.contains(value) {
            out.push(value.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: u32, m: u32, r: u32) -> SystemParams {
        SystemParams::new(n, m, r).unwrap()
    }

    #[test]
    fn scenario_defaults_match_paper() {
        let s = Scenario::new(params(8, 16, 8));
        assert_eq!(s.policy, BusPolicy::ProcessorPriority);
        assert_eq!(s.buffering, Buffering::Unbuffered);
        assert_eq!(s.service(), ServiceTime::Constant(8));
        assert!(s.has_paper_service());
        assert_eq!(s.label(), "n=8 m=16 r=8 p=1 proc unbuf");
    }

    #[test]
    fn evaluator_domains_are_enforced() {
        let mem = Scenario::new(params(4, 4, 11)).with_policy(BusPolicy::MemoryPriority);
        let proc = Scenario::new(params(4, 4, 11));
        assert!(ExactChainEval.supports(&mem));
        assert!(!ExactChainEval.supports(&proc));
        assert!(ExactChainEval.evaluate(&proc).is_err());
        assert!(ReducedChainEval.supports(&proc));
        assert!(!ReducedChainEval.supports(&mem));
        let buffered = proc.clone().with_buffering(Buffering::Buffered);
        assert!(PfqnEval::default().supports(&buffered));
        assert!(!PfqnEval::default().supports(&proc));
    }

    #[test]
    fn exact_evaluator_reproduces_table1_corner() {
        let s = Scenario::new(params(2, 2, 9)).with_policy(BusPolicy::MemoryPriority);
        let e = ExactChainEval.evaluate(&s).unwrap();
        assert!((e.ebw() - 1.417).abs() < 5e-4, "ebw = {}", e.ebw());
        assert_eq!(e.half_width_95, 0.0);
        assert_eq!(e.replications, 1);
    }

    #[test]
    fn sim_evaluator_reports_interval() {
        let s = Scenario::new(params(4, 4, 4));
        let e = BusSimEval::new(SimBudget::quick()).evaluate(&s).unwrap();
        assert!(e.ebw() > 0.0);
        assert!(e.half_width_95 >= 0.0);
        assert_eq!(e.replications, 2);
        assert!(e.covers(e.ebw(), 0.0));
        assert!(!e.covers(e.ebw() + 1.0, 0.5));
    }

    #[test]
    fn interval_tightens_with_more_cycles() {
        let s = Scenario::new(params(8, 8, 8));
        let interval = |warmup, measure| {
            let budget = SimBudget { replications: 6, warmup, measure, ..SimBudget::paper() };
            BusSimEval::new(budget).evaluate(&s).unwrap().half_width_95
        };
        let short = interval(200, 2_000);
        let long = interval(2_000, 50_000);
        assert!(long < short, "long {long} vs short {short}");
    }

    #[test]
    fn sim_evaluator_parallel_matches_serial_bitwise() {
        let s = Scenario::new(params(8, 8, 6)).with_buffering(Buffering::Buffered);
        let budget =
            SimBudget { replications: 4, warmup: 500, measure: 5_000, ..SimBudget::quick() };
        let sim = BusSimEval::new(budget);
        let sweep = |mode| run_sweep(std::slice::from_ref(&s), &[&sim], mode, |_, _, _| {});
        let serial = sweep(ExecutionMode::Serial).remove(0).result.unwrap();
        for threads in [2, 3] {
            let parallel = sweep(ExecutionMode::Threads(threads)).remove(0).result.unwrap();
            assert_eq!(serial, parallel, "{threads} threads");
        }
        // `evaluate` fans the same units out itself, to the same bits.
        assert_eq!(serial, sim.evaluate(&s).unwrap());
    }

    #[test]
    fn grid_len_saturates_instead_of_wrapping() {
        let axis: Vec<u32> = (1..=1024).collect();
        let fractions: Vec<f64> = axis.iter().map(|&i| f64::from(i) / 1024.0).collect();
        let grid = ScenarioGrid::new()
            .n_values(axis.clone())
            .m_values(axis.clone())
            .r_values(axis.clone())
            .p_values(fractions.clone())
            .bufferings(axis.iter().map(|&k| Buffering::Depth(k)).collect::<Vec<_>>())
            .workloads(
                fractions.iter().map(|&q| Workload::hot_spot(q, 0).unwrap()).collect::<Vec<_>>(),
            )
            .buses_values(axis.clone());
        // 2^70 points: the count saturates rather than wrapping.
        assert_eq!(grid.len(), usize::MAX);
        assert_eq!(ScenarioGrid::new().n_values(axis).m_values([4, 8]).len(), 2048);
    }

    #[test]
    fn grid_expansion_order_and_rule() {
        let grid = ScenarioGrid::new()
            .n_values([2, 4])
            .m_values([2])
            .r_min_nm_plus(7)
            .bufferings([Buffering::Unbuffered, Buffering::Buffered]);
        assert_eq!(grid.len(), 4);
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios.len(), 4);
        assert_eq!(scenarios[0].params.r(), 9); // min(2,2)+7
        assert_eq!(scenarios[3].params.r(), 9); // min(4,2)+7
        assert_eq!(scenarios[0].buffering, Buffering::Unbuffered);
        assert_eq!(scenarios[1].buffering, Buffering::Buffered);
        assert_eq!(scenarios[2].params.n(), 4);
    }

    #[test]
    fn grid_rejects_invalid_points() {
        assert!(ScenarioGrid::new().n_values([0]).scenarios().is_err());
        assert!(ScenarioGrid::new().p_values([1.5]).scenarios().is_err());
        assert!(ScenarioGrid::new().bufferings([Buffering::Depth(5000)]).scenarios().is_err());
    }

    #[test]
    fn sim_evaluator_rejects_invalid_depth_without_panicking() {
        let s = Scenario::new(params(2, 2, 2)).with_buffering(Buffering::Depth(5000));
        assert!(BusSimEval::new(SimBudget::quick()).evaluate(&s).is_err());
    }

    #[test]
    fn sweep_streams_in_order_and_reports_domain_misses() {
        let scenarios = ScenarioGrid::new()
            .n_values([2])
            .m_values([2])
            .r_values([2])
            .policies([BusPolicy::ProcessorPriority, BusPolicy::MemoryPriority])
            .scenarios()
            .unwrap();
        let sim = BusSimEval::new(SimBudget { measure: 2_000, warmup: 200, ..SimBudget::quick() });
        let evaluators: [&dyn Evaluator; 2] = [&ExactChainEval, &sim];
        let mut seen = Vec::new();
        let records =
            run_sweep(&scenarios, &evaluators, ExecutionMode::Parallel, |done, total, r| {
                assert_eq!(total, 4);
                seen.push((done, r.evaluator));
            });
        assert_eq!(records.len(), 4);
        assert_eq!(seen.len(), 4);
        // Streaming is in scenario-major order: (proc, exact), (proc, sim), ...
        assert_eq!(seen[0], (1, "exact"));
        assert_eq!(seen[1], (2, "sim"));
        // Exact chain under processor priority is out of domain.
        assert!(matches!(
            records[0].result,
            Err(CoreError::UnsupportedScenario { evaluator: "exact", .. })
        ));
        assert!(records[1].result.is_ok());
        assert!(records[2].result.is_ok(), "{:?}", records[2].result);
    }

    #[test]
    fn depth_axis_flows_through_grid_and_domains() {
        let grid = ScenarioGrid::new().n_values([4]).m_values([4]).r_values([6]).bufferings([
            Buffering::Depth(0),
            Buffering::Depth(2),
            Buffering::Infinite,
        ]);
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios.len(), 3);
        assert_eq!(scenarios[1].label(), "n=4 m=4 r=6 p=1 proc buf2");
        assert_eq!(scenarios[2].label(), "n=4 m=4 r=6 p=1 proc buf-inf");
        // Depth(0) is unbuffered for every analytic domain; deeper
        // schemes belong to the product-form side.
        assert!(ReducedChainEval.supports(&scenarios[0]));
        assert!(!ReducedChainEval.supports(&scenarios[1]));
        assert!(!PfqnEval::default().supports(&scenarios[0]));
        assert!(PfqnEval::default().supports(&scenarios[1]));
        assert!(PfqnEval::default().supports(&scenarios[2]));
        // The depth-aware approximation spans the whole axis.
        for s in &scenarios {
            assert!(DepthApproxEval.supports(s));
            assert!(DepthApproxEval.evaluate(s).unwrap().ebw() > 0.0);
        }
    }

    #[test]
    fn sim_evaluator_reports_occupancy_telemetry() {
        let s = Scenario::new(params(8, 4, 6)).with_buffering(Buffering::Depth(2));
        let e = BusSimEval::new(SimBudget::quick()).evaluate(&s).unwrap();
        let occ = e.occupancy.expect("simulation carries occupancy");
        assert_eq!(occ.buffer_depth, 2);
        assert_eq!(occ.input_distribution.len(), 3);
        assert!((occ.input_distribution.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(occ.mean_input_queue > 0.0 && occ.mean_input_queue <= 2.0);
        assert!((0.0..=1.0).contains(&occ.input_full_fraction));
        // Analytic vehicles have no queue-level view.
        let analytic = ReducedChainEval.evaluate(&Scenario::new(params(8, 4, 6))).unwrap();
        assert_eq!(analytic.occupancy, None);
    }

    #[test]
    fn evaluator_kinds_roundtrip_and_build() {
        for kind in ALL_EVALUATOR_KINDS {
            assert_eq!(EvaluatorKind::from_name(kind.name()), Some(kind));
            let built = kind.build(SimBudget::quick());
            assert_eq!(built.name(), kind.name());
        }
        assert_eq!(EvaluatorKind::from_name("nope"), None);
    }

    #[test]
    fn crossbar_evaluators_agree_roughly() {
        let s = Scenario::new(params(8, 8, 8));
        let exact = CrossbarExactEval.evaluate(&s).unwrap();
        let sim = CrossbarSimEval::new(SimBudget::quick()).evaluate(&s).unwrap();
        let rel = (exact.ebw() - sim.ebw()).abs() / exact.ebw();
        assert!(rel < 0.05, "exact {} vs sim {}", exact.ebw(), sim.ebw());
    }

    #[test]
    fn fluid_evaluator_domain_and_telemetry() {
        // The fluid model is the only vehicle whose domain extends to
        // the full parameter cap — but it is single-bus only.
        let huge = Scenario::new(params(1_000_000, 1_000_000, 8));
        assert!(FluidEval::default().supports(&huge));
        assert!(!BusSimEval::new(SimBudget::quick()).supports(&huge));
        assert!(!ExactChainEval.supports(&huge));
        let multi = Scenario::new(params(8, 8, 8)).with_buses(4).unwrap();
        assert!(!FluidEval::default().supports(&multi));
        // Its evaluations carry the occupancy view like the simulator.
        let s = Scenario::new(params(64, 32, 8)).with_buffering(Buffering::Depth(2));
        let e = FluidEval::default().evaluate(&s).unwrap();
        assert_eq!(e.evaluator, "fluid");
        assert_eq!(e.half_width_95, 0.0);
        assert_eq!(e.simulated_events(), 0);
        let occ = e.occupancy.expect("fluid carries occupancy");
        assert_eq!(occ.buffer_depth, 2);
        assert!((occ.input_distribution.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn multibus_evaluator_domain_and_scaling() {
        // Closed form for the paper's random-uniform, unbuffered,
        // p = 1 hypothesis set — any bus count.
        let base = Scenario::new(params(8, 8, 4));
        assert!(MultibusEval.supports(&base));
        assert!(!MultibusEval.supports(&base.clone().with_buffering(Buffering::Buffered)));
        let low_p = Scenario::new(params(8, 8, 4).with_request_probability(0.5).unwrap());
        assert!(!MultibusEval.supports(&low_p));
        // More buses never hurt, and utilization stays physical.
        let one = MultibusEval.evaluate(&base).unwrap();
        let four = MultibusEval.evaluate(&base.with_buses(4).unwrap()).unwrap();
        assert!(four.ebw() >= one.ebw());
        assert!(four.metrics.bus_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn chain_evaluators_reject_points_above_their_ceilings() {
        let mem = |n, m| Scenario::new(params(n, m, 8)).with_policy(BusPolicy::MemoryPriority);
        let occupancy: [&dyn Evaluator; 3] = [&ExactChainEval, &CrossbarExactEval, &MultibusEval];
        // n = m = 20 has 627 occupancy states; n = m = 21 has 792.
        for e in occupancy {
            assert!(e.supports(&mem(20, 20)), "{}", e.name());
            for (n, m) in [(21, 21), (64, 64), (160, 256), (64, 8)] {
                assert!(!e.supports(&mem(n, m)), "{} at ({n},{m})", e.name());
                assert!(matches!(
                    e.evaluate(&mem(n, m)),
                    Err(CoreError::UnsupportedScenario { .. })
                ));
            }
        }
        let pp = |n, m, p| Scenario::new(params(n, m, 8).with_request_probability(p).unwrap());
        let fits = [(512, 8, 1.0), (16, 8, 0.5)];
        let too_large = [(192, 192, 1.0), (64, 64, 1.0), (12, 12, 0.5)];
        for e in [&ReducedChainEval as &dyn Evaluator, &DepthApproxEval] {
            for (n, m, p) in fits {
                assert!(e.supports(&pp(n, m, p)), "{} at ({n},{m},p={p})", e.name());
            }
            for (n, m, p) in too_large {
                assert!(!e.supports(&pp(n, m, p)), "{} at ({n},{m},p={p})", e.name());
            }
        }
    }

    #[test]
    fn grid_expands_buses_axis_innermost() {
        let grid =
            ScenarioGrid::new().n_values([4]).m_values([4]).r_values([4]).buses_values([1, 2]);
        assert_eq!(grid.len(), 2);
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios[0].buses, 1);
        assert_eq!(scenarios[1].buses, 2);
        assert!(!scenarios[0].label().contains(" b="));
        assert!(scenarios[1].label().ends_with(" b=2"));
    }

    #[test]
    fn crossbar_metrics_stay_physical_at_small_r() {
        // The crossbar EBW is r-independent; the single-bus identity
        // 2·EBW/(r+2) would exceed 1 at r = 2. The crossbar evaluators
        // must report concurrency utilization instead.
        let s = Scenario::new(params(8, 8, 2));
        for eval in [
            CrossbarExactEval.evaluate(&s).unwrap(),
            CrossbarSimEval::new(SimBudget::quick()).evaluate(&s).unwrap(),
        ] {
            assert!(
                eval.metrics.bus_utilization <= 1.0 + 1e-9,
                "{}: utilization {}",
                eval.evaluator,
                eval.metrics.bus_utilization
            );
            assert!(eval.metrics.memory_utilization <= 1.0 + 1e-9);
            assert!((eval.metrics.bus_utilization - eval.ebw() / 8.0).abs() < 1e-12);
        }
    }
}
