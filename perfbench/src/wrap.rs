//! An [`Evaluator`] that delegates every method to a real evaluator and
//! records one span per `evaluate` / `evaluate_unit*` / `evaluate_group`
//! call. Names, fingerprints and group keys pass through unchanged, so
//! a sweep over wrapped evaluators makes the same cache keys, groups
//! and rows as one over the bare evaluators.

use std::sync::atomic::{AtomicU64, Ordering};

use busnet_core::scenario::{EvalUnit, Evaluation, Evaluator, Scenario};
use busnet_core::sim::bus::{PriorSeed, UnitBudget};
use busnet_core::CoreError;
use busnet_queueing::solver_iterations;

use crate::trace::Tracer;

pub struct Traced<'a> {
    inner: &'a dyn Evaluator,
    tracer: &'a Tracer,
    /// Layer name the spans carry (`engine.cycle`, `markov`, ...).
    layer: &'static str,
    /// Parent span of the calls made from now on (the enclosing sweep).
    parent: AtomicU64,
    /// Scenarios solved through `evaluate_group` so far.
    grouped: AtomicU64,
}

impl<'a> Traced<'a> {
    pub fn new(inner: &'a dyn Evaluator, tracer: &'a Tracer, layer: &'static str) -> Self {
        Traced { inner, tracer, layer, parent: AtomicU64::new(0), grouped: AtomicU64::new(0) }
    }

    /// Makes `span` the parent of every later call.
    pub fn set_parent(&self, span: u64) {
        self.parent.store(span, Ordering::Relaxed);
    }

    /// Scenarios solved through `evaluate_group` so far.
    pub fn grouped(&self) -> u64 {
        self.grouped.load(Ordering::Relaxed)
    }

    /// Times `f` on the calling (worker) thread. The span's work count
    /// is the engine work `work` reports, or else the solver iterations
    /// the call ran on this thread.
    fn timed<T>(&self, name: &'static str, work: impl Fn(&T) -> u64, f: impl FnOnce() -> T) -> T {
        let id = self.tracer.reserve();
        let iterations = solver_iterations();
        let start = self.tracer.now();
        let out = f();
        let end = self.tracer.now();
        let work = match work(&out) {
            0 => solver_iterations() - iterations,
            events => events,
        };
        let parent = self.parent.load(Ordering::Relaxed);
        self.tracer.record(id, parent, 0, self.layer, name, start, end, work);
        out
    }
}

fn unit_work(unit: &Result<EvalUnit, CoreError>) -> u64 {
    match unit {
        Ok(EvalUnit::Replication(report)) => report.events,
        Ok(EvalUnit::Whole(e)) => e.simulated_events,
        Err(_) => 0,
    }
}

fn eval_work(eval: &Result<Evaluation, CoreError>) -> u64 {
    eval.as_ref().map_or(0, |e| e.simulated_events)
}

impl Evaluator for Traced<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn supports(&self, scenario: &Scenario) -> bool {
        self.inner.supports(scenario)
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError> {
        self.timed("evaluate", eval_work, || self.inner.evaluate(scenario))
    }

    fn work_units(&self, scenario: &Scenario) -> u32 {
        self.inner.work_units(scenario)
    }

    fn evaluate_unit(&self, scenario: &Scenario, unit: u32) -> Result<EvalUnit, CoreError> {
        self.timed("evaluate_unit", unit_work, || self.inner.evaluate_unit(scenario, unit))
    }

    fn evaluate_unit_primed(
        &self,
        scenario: &Scenario,
        unit: u32,
        prior: Option<PriorSeed>,
    ) -> Result<EvalUnit, CoreError> {
        self.timed("evaluate_unit", unit_work, || {
            self.inner.evaluate_unit_primed(scenario, unit, prior)
        })
    }

    fn evaluate_unit_supervised(
        &self,
        scenario: &Scenario,
        unit: u32,
        prior: Option<PriorSeed>,
        budget: Option<&UnitBudget>,
    ) -> Result<EvalUnit, CoreError> {
        self.timed("evaluate_unit", unit_work, || {
            self.inner.evaluate_unit_supervised(scenario, unit, prior, budget)
        })
    }

    fn fluid_screenable(&self) -> bool {
        self.inner.fluid_screenable()
    }

    fn combine_units(
        &self,
        scenario: &Scenario,
        units: Vec<EvalUnit>,
    ) -> Result<Evaluation, CoreError> {
        self.inner.combine_units(scenario, units)
    }

    fn config_fingerprint(&self) -> String {
        self.inner.config_fingerprint()
    }

    fn incremental_key(&self, scenario: &Scenario) -> Option<String> {
        self.inner.incremental_key(scenario)
    }

    fn evaluate_group(&self, scenarios: &[&Scenario]) -> Vec<Result<Evaluation, CoreError>> {
        self.grouped.fetch_add(scenarios.len() as u64, Ordering::Relaxed);
        self.timed(
            "evaluate_group",
            |evals: &Vec<_>| evals.iter().map(eval_work).sum(),
            || self.inner.evaluate_group(scenarios),
        )
    }
}
