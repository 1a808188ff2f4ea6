//! Synchronous crossbar / multiple-bus simulator (references 1 and 5).
//!
//! One step = one crossbar cycle = one processor cycle `(r+2)·t`. Every
//! cycle each requesting processor addresses its module; each module
//! serves one of its requesters (per the [`ArbitrationKind`], uniform
//! random in the references); with a bus cap `b`, only `min(x, b)` busy
//! modules (chosen uniformly) may serve. Rejected requests persist.
//! Served processors re-request with probability `p` per subsequent
//! cycle.
//!
//! The crossbar runs cycle-stepped only: nearly every cycle has a
//! requester, so an event-driven port would skip almost nothing. It
//! shares the kernel's warmup-gated counters (`busnet_sim::counters`)
//! and the bus engines' slicing loop (`run_sliced` in `sim::bus`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use busnet_sim::arbiter::Arbiter;
use busnet_sim::clock::MeasurementWindow;
use busnet_sim::counters::{SimCounters, WindowSeries};
use busnet_sim::histogram::Histogram;
use busnet_sim::stats::jain_fairness_index;

use crate::error::CoreError;
use crate::params::{SystemParams, Workload};
use crate::sim::address::{MmppState, ModuleSampler};
use crate::sim::bus::{run_sliced, SlicedEngine, UnitBudget};

pub use busnet_sim::arbiter::ArbitrationKind;

/// Builder/runner for the crossbar (and multiple-bus) baseline.
///
/// # Example
///
/// ```
/// use busnet_core::params::SystemParams;
/// use busnet_core::sim::crossbar::CrossbarSim;
///
/// let ebw = CrossbarSim::new(SystemParams::new(8, 8, 1)?)
///     .seed(1)
///     .warmup_cycles(500)
///     .measure_cycles(20_000)
///     .run_ebw();
/// assert!((ebw - 4.94).abs() < 0.1); // exact chain value ≈ 4.94
/// # Ok::<(), busnet_core::CoreError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CrossbarSim {
    params: SystemParams,
    buses: Option<u32>,
    arbitration: ArbitrationKind,
    workload: Workload,
    seed: u64,
    warmup: u64,
    measure: u64,
    window_cycles: Option<u64>,
}

/// Measured results of one crossbar run.
#[derive(Clone, Debug, PartialEq)]
pub struct CrossbarReport {
    /// Requests served during measurement.
    pub served: u64,
    /// Measured crossbar cycles.
    pub measured_cycles: u64,
    /// Requests served per processor (fairness analysis).
    pub per_processor_served: Vec<u64>,
    /// Units of engine work executed (cycles stepped; not warmup
    /// gated).
    pub events: u64,
    /// Windowed transient telemetry (`None` unless the run was built
    /// with [`CrossbarSim::window_cycles`]).
    pub windows: Option<WindowSeries>,
}

impl CrossbarReport {
    /// EBW: mean requests served per crossbar cycle.
    pub fn ebw(&self) -> f64 {
        self.served as f64 / self.measured_cycles as f64
    }

    /// Per-processor EBW contributions (they sum to [`Self::ebw`]).
    pub fn per_processor_ebw(&self) -> Vec<f64> {
        self.per_processor_served.iter().map(|&s| s as f64 / self.measured_cycles as f64).collect()
    }

    /// Jain's fairness index over per-processor served counts.
    pub fn fairness_index(&self) -> f64 {
        jain_fairness_index(self.per_processor_served.iter().map(|&x| x as f64))
    }
}

impl CrossbarSim {
    /// Creates a crossbar simulator (no bus cap).
    pub fn new(params: SystemParams) -> Self {
        CrossbarSim {
            params,
            buses: None,
            arbitration: ArbitrationKind::Random,
            workload: Workload::Uniform,
            seed: 0x5EED,
            warmup: 1_000,
            measure: 100_000,
            window_cycles: None,
        }
    }

    /// Sets the workload (hypothesis *e*/*f* relaxations): skewed
    /// module references and/or per-processor think probabilities,
    /// sampled through the same machinery as the bus engines.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Caps concurrent services at `buses` per cycle, turning the
    /// crossbar into the multiple-bus network of reference 5.
    pub fn with_buses(mut self, buses: u32) -> Self {
        self.buses = Some(buses);
        self
    }

    /// Sets the per-module requester tie-break (the references assume
    /// uniform random). Stateful kinds (round robin, LRU) share one
    /// arbiter across modules: the pointer/stamps track processors,
    /// which is the fairness axis under study.
    pub fn arbitration(mut self, arbitration: ArbitrationKind) -> Self {
        self.arbitration = arbitration;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets discarded warmup cycles (crossbar cycles).
    pub fn warmup_cycles(mut self, cycles: u64) -> Self {
        self.warmup = cycles;
        self
    }

    /// Sets measured cycles (crossbar cycles).
    pub fn measure_cycles(mut self, cycles: u64) -> Self {
        self.measure = cycles.max(1);
        self
    }

    /// Enables windowed transient telemetry: the measured region is
    /// split into fixed `width`-cycle windows and the report carries a
    /// per-window served-count (and phase-tag) trajectory.
    pub fn window_cycles(mut self, width: u64) -> Self {
        self.window_cycles = Some(width.max(1));
        self
    }

    /// Runs and returns the EBW: mean requests served per cycle.
    pub fn run_ebw(&self) -> f64 {
        self.run_report().ebw()
    }

    /// Runs to completion and returns the full report.
    pub fn run_report(&self) -> CrossbarReport {
        self.run_budgeted(&UnitBudget::default()).expect("an unlimited budget cannot trip")
    }

    /// [`CrossbarSim::run_report`] under a [`UnitBudget`] watchdog,
    /// checked between slices of the run by the bus engines' slicing
    /// loop. The checks draw no randomness, so a run inside its budget
    /// is bit-identical to an unbudgeted one.
    pub(crate) fn run_budgeted(&self, budget: &UnitBudget) -> Result<CrossbarReport, CoreError> {
        run_sliced(self.build(), self.warmup, self.warmup + self.measure, budget, None)
    }

    fn build(&self) -> CrossbarRun {
        self.workload.validate(self.params.n(), self.params.m()).expect("invalid workload");
        let n = self.params.n() as usize;
        let m = self.params.m() as usize;
        // The crossbar records no waiting times; a minimal histogram
        // keeps the shared counter shape.
        let mut stats = SimCounters::new(
            MeasurementWindow::new(self.warmup, self.measure),
            n,
            Histogram::new(1.0, 1),
        );
        if let Some(width) = self.window_cycles {
            stats = stats.with_windows(width);
        }
        // Bursty workloads carry phase-chain state; the initial sampler
        // and think probabilities are phase 0's.
        let mmpp = self.workload.mmpp_spec().map(|spec| {
            MmppState::new(std::sync::Arc::clone(spec), self.params.n(), self.params.m())
        });
        let sampler = match &mmpp {
            Some(state) => state.module_sampler().clone(),
            None => ModuleSampler::for_workload(&self.workload, self.params.m()),
        };
        let next_phase_tick = mmpp.as_ref().and_then(|state| state.next_boundary(0));
        if let Some(state) = &mmpp {
            stats.record_phase(0, state.phase());
        }
        CrossbarRun {
            buses: self.buses,
            rng: SmallRng::seed_from_u64(self.seed),
            arbiter: Arbiter::new(self.arbitration),
            think_p: (0..n).map(|i| self.workload.think_probability(i, self.params.p())).collect(),
            sampler,
            mmpp,
            next_phase_tick,
            procs: vec![Phase::Thinking; n],
            requesters: vec![Vec::new(); m],
            busy: Vec::with_capacity(m),
            cycle: 0,
            stats,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Thinking,
    Requesting(usize),
}

/// A crossbar run in progress: one [`CrossbarRun::step`] per crossbar
/// cycle.
struct CrossbarRun {
    buses: Option<u32>,
    rng: SmallRng,
    arbiter: Arbiter,
    /// Per-processor think probabilities (phase-dependent when bursty).
    think_p: Vec<f64>,
    sampler: ModuleSampler,
    mmpp: Option<MmppState>,
    next_phase_tick: Option<u64>,
    procs: Vec<Phase>,
    /// Per-module requester lists, rebuilt every cycle.
    requesters: Vec<Vec<usize>>,
    busy: Vec<usize>,
    cycle: u64,
    stats: SimCounters,
}

impl CrossbarRun {
    fn step(&mut self) {
        let cycle = self.cycle;
        let m = self.requesters.len();
        self.stats.events += 1;
        if self.next_phase_tick == Some(cycle) {
            let state = self.mmpp.as_mut().expect("phase tick without a phase chain");
            let phase = state.step(&mut self.rng);
            self.think_p.fill(state.think_p());
            self.sampler = state.module_sampler().clone();
            self.stats.record_phase(cycle, phase);
            self.next_phase_tick = state.next_boundary(cycle);
        }
        // Thinking processors flip the request coin.
        for (i, proc) in self.procs.iter_mut().enumerate() {
            let p = self.think_p[i];
            if *proc == Phase::Thinking && (p >= 1.0 || self.rng.gen_bool(p)) {
                *proc = Phase::Requesting(self.sampler.sample(m, &mut self.rng));
            }
        }
        // Gather per-module requester lists.
        for list in &mut self.requesters {
            list.clear();
        }
        for (i, proc) in self.procs.iter().enumerate() {
            if let Phase::Requesting(j) = proc {
                self.requesters[*j].push(i);
            }
        }
        self.busy.clear();
        self.busy.extend((0..m).filter(|&j| !self.requesters[j].is_empty()));
        // Bus cap: choose which busy modules may serve.
        let busy = &mut self.busy;
        let cap = self.buses.map_or(busy.len(), |b| busy.len().min(b as usize));
        // Partial Fisher–Yates: the first `cap` entries are a uniform
        // subset.
        for k in 0..cap {
            let swap = self.rng.gen_range(k..busy.len());
            busy.swap(k, swap);
        }
        for &j in &busy[..cap] {
            let lucky = self.arbiter.pick(cycle, &self.requesters[j], &mut self.rng);
            self.procs[lucky] = Phase::Thinking;
            self.stats.record_served(cycle, lucky);
        }
        self.cycle += 1;
    }
}

impl SlicedEngine for CrossbarRun {
    type Report = CrossbarReport;

    fn advance_until(&mut self, t: u64) {
        let limit = t.min(self.stats.window().total_cycles());
        while self.cycle < limit {
            self.step();
        }
    }

    fn events(&self) -> u64 {
        self.stats.events
    }

    fn measured_returns(&self) -> u64 {
        self.stats.returns
    }

    fn finish_at(self, t: u64) -> CrossbarReport {
        // Crossbar runs carry no batches, so they never stop early.
        debug_assert_eq!(t, self.stats.window().total_cycles());
        CrossbarReport {
            served: self.stats.returns,
            measured_cycles: self.stats.measured_cycles(),
            events: self.stats.events,
            windows: self.stats.window_series(),
            per_processor_served: self.stats.per_entity_returns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::crossbar::crossbar_ebw_exact;
    use crate::analytic::multibus::multibus_bw_exact;

    fn params(n: u32, m: u32) -> SystemParams {
        SystemParams::new(n, m, 1).unwrap()
    }

    #[test]
    fn matches_exact_chain() {
        for (n, m) in [(2, 2), (4, 4), (8, 8), (8, 4)] {
            let sim = CrossbarSim::new(params(n, m))
                .seed(7)
                .warmup_cycles(2_000)
                .measure_cycles(200_000)
                .run_ebw();
            let exact = crossbar_ebw_exact(n, m).unwrap();
            assert!((sim - exact).abs() / exact < 0.01, "({n},{m}): sim {sim} vs exact {exact}");
        }
    }

    #[test]
    fn multibus_matches_exact_chain() {
        let sim = CrossbarSim::new(params(8, 8))
            .with_buses(3)
            .seed(11)
            .warmup_cycles(2_000)
            .measure_cycles(200_000)
            .run_ebw();
        let exact = multibus_bw_exact(8, 8, 3).unwrap();
        assert!((sim - exact).abs() / exact < 0.01, "sim {sim} vs exact {exact}");
    }

    #[test]
    fn think_probability_lowers_throughput() {
        let full = CrossbarSim::new(params(8, 8)).seed(3).run_ebw();
        let half =
            CrossbarSim::new(params(8, 8).with_request_probability(0.5).unwrap()).seed(3).run_ebw();
        assert!(half < full);
        assert!(half <= 4.0 + 0.1, "offered load bound: {half}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || CrossbarSim::new(params(4, 4)).seed(9).measure_cycles(5_000);
        assert_eq!(run().run_report(), run().run_report());
    }

    #[test]
    fn mmpp_run_reports_phase_windows() {
        let workload = Workload::on_off_burst(0.9, 0.05, 0.9, 250, None).unwrap();
        let run = || {
            CrossbarSim::new(params(8, 8).with_request_probability(0.9).unwrap())
                .workload(workload.clone())
                .window_cycles(250)
                .seed(5)
                .warmup_cycles(1_000)
                .measure_cycles(100_000)
                .run_report()
        };
        let report = run();
        assert!(report.served > 0);
        let windows = report.windows.as_ref().expect("window telemetry enabled");
        assert_eq!(windows.windows.len(), 400);
        assert_eq!(windows.windows.iter().map(|w| w.returns).sum::<u64>(), report.served);
        assert!(windows.phase_cycles.iter().all(|&c| c > 0), "{:?}", windows.phase_cycles);
        // The on phase (p = 0.9) serves faster than the off phase
        // (p = 0.05).
        let phase_rate = |phase: u32| {
            let tagged = windows.windows.iter().filter(|w| w.phase == Some(phase));
            let (returns, cycles) =
                tagged.fold((0u64, 0u64), |(r, c), w| (r + w.returns, c + w.cycles));
            returns as f64 / cycles as f64
        };
        assert!(phase_rate(0) > 2.0 * phase_rate(1), "{} vs {}", phase_rate(0), phase_rate(1));
        assert_eq!(run(), report);
    }

    #[test]
    fn report_accounts_per_processor_served() {
        let report = CrossbarSim::new(params(8, 8)).seed(13).measure_cycles(50_000).run_report();
        assert_eq!(report.per_processor_served.iter().sum::<u64>(), report.served);
        assert!(report.fairness_index() > 0.99, "symmetric: {}", report.fairness_index());
        let per = report.per_processor_ebw();
        let total: f64 = per.iter().sum();
        assert!((total - report.ebw()).abs() < 1e-9);
    }

    #[test]
    fn priority_arbitration_is_visibly_unfair() {
        let report = CrossbarSim::new(params(8, 2))
            .arbitration(ArbitrationKind::Priority)
            .seed(13)
            .measure_cycles(50_000)
            .run_report();
        assert!(
            report.per_processor_served[0] > report.per_processor_served[7],
            "priority should favor processor 0: {:?}",
            report.per_processor_served
        );
        assert!(report.fairness_index() < 0.999);
    }
}
