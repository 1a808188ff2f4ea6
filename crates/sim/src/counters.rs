//! Shared measurement bookkeeping for the network simulators.
//!
//! Both the bus engines (cycle-stepped and event-driven) and the
//! crossbar baseline accumulate the same counters — completions,
//! grants, busy time, waiting/round-trip statistics, per-entity
//! fairness counts — gated by one warmup cutover. [`SimCounters`]
//! centralizes that: every recording method takes the current cycle
//! and applies the [`MeasurementWindow`] itself, so an engine cannot
//! get the warmup boundary wrong in one place and right in another.
//!
//! Time-integrated quantities (bus-channel and module busy time)
//! accept half-open cycle *spans*: the cycle engines record
//! single-cycle spans each step, the event engine records whole
//! occupancy intervals at scheduling time; both clip against the
//! window identically.
//!
//! ## Queue-occupancy telemetry
//!
//! Simulators with finite FIFOs (the depth-`k` buffered bus) also
//! accumulate *queue-occupancy* distributions here: a
//! [`QueueOccupancy`] tracker holds each entity's current level and
//! converts every level change into a time-weighted histogram record,
//! so the distribution is exact under both engine styles — a
//! cycle-stepped engine reports a change per cycle, an event-driven
//! engine reports one span per change, and both integrate to the same
//! module-cycle weights. Enable it with
//! [`SimCounters::with_queue_occupancy`]; the plain constructor leaves
//! the trackers disabled (zero entities), which is what the crossbar
//! baseline uses.
//!
//! # Example
//!
//! ```
//! use busnet_sim::clock::MeasurementWindow;
//! use busnet_sim::counters::SimCounters;
//! use busnet_sim::histogram::Histogram;
//!
//! // 2 fairness entities, 1 module whose input FIFO holds up to 2.
//! let window = MeasurementWindow::new(0, 10);
//! let mut c = SimCounters::new(window, 2, Histogram::new(1.0, 4))
//!     .with_queue_occupancy(1, 2, 2);
//! c.set_input_occupancy(0, 4, 1); // level 0 for cycles [0, 4), then 1
//! c.set_input_occupancy(0, 6, 2); // level 1 for cycles [4, 6), then 2
//! c.finish_occupancy(10);         // level 2 for cycles [6, 10)
//! assert_eq!(c.input_occupancy.histogram().bucket_counts(), &[4, 2, 4]);
//! assert!((c.input_occupancy.histogram().mean() - 1.0).abs() < 1e-12);
//! ```

use crate::clock::MeasurementWindow;
use crate::histogram::Histogram;
use crate::stats::RunningStats;

/// Transient (windowed) telemetry accumulators: the measured region is
/// cut into fixed-width windows and the trajectory-relevant counters —
/// completions, busy channel-cycles, input-queue level-cycles — are
/// accumulated per window *in addition to* the whole-run totals, using
/// the identical clipping rules. Every accumulator is an integer, so
/// the per-window values recombine to the whole-run totals bit-exactly
/// (`Σ windows.returns == returns`, etc.).
///
/// Enable with [`SimCounters::with_windows`]; disabled (the default)
/// the hooks cost one branch. Engines running a phase-modulated
/// workload additionally log phase transitions with
/// [`SimCounters::record_phase`]; the log is resolved into per-window
/// phase tags and whole-run per-phase cycle totals at finalization.
#[derive(Clone, Debug)]
pub struct WindowTelemetry {
    /// Window width in cycles (last window may be shorter).
    width: u64,
    /// Completions landing in each window.
    returns: Vec<u64>,
    /// Busy channel-cycles accumulated in each window.
    busy_channel_cycles: Vec<u64>,
    /// Input-FIFO `level × cycles` accumulated in each window (summed
    /// over modules).
    input_level_cycles: Vec<u64>,
    /// Phase-transition log `(cycle, phase)`, non-decreasing in cycle;
    /// empty for stationary workloads.
    phase_log: Vec<(u64, u32)>,
}

impl WindowTelemetry {
    fn new(window: &MeasurementWindow, width: u64) -> Self {
        assert!(width > 0, "window width must be at least one cycle");
        let n = usize::try_from(window.measured_cycles().div_ceil(width)).expect("window count");
        WindowTelemetry {
            width,
            returns: vec![0; n],
            busy_channel_cycles: vec![0; n],
            input_level_cycles: vec![0; n],
            phase_log: Vec::new(),
        }
    }

    /// Index of the window containing measured cycle `t`.
    #[inline]
    fn index(&self, warmup: u64, t: u64) -> usize {
        ((t - warmup) / self.width) as usize
    }

    /// Adds (or subtracts) `weight` per cycle over the already-clipped
    /// measured span `[lo, hi)`, split across the windows it overlaps.
    #[inline]
    fn apply_span(
        slot: &mut [u64],
        warmup: u64,
        width: u64,
        lo: u64,
        hi: u64,
        weight: u64,
        add: bool,
    ) {
        let mut t = lo;
        while t < hi {
            let idx = ((t - warmup) / width) as usize;
            let window_end = warmup + (idx as u64 + 1) * width;
            let segment = hi.min(window_end) - t;
            if add {
                slot[idx] += weight * segment;
            } else {
                slot[idx] -= weight * segment;
            }
            t = window_end;
        }
    }

    /// Resolves the accumulators against the final (possibly
    /// truncated) measurement window.
    fn finalize(&self, window: &MeasurementWindow) -> WindowSeries {
        let warmup = window.warmup();
        let total = window.total_cycles();
        let n = usize::try_from(window.measured_cycles().div_ceil(self.width)).expect("count");
        let mut windows = Vec::with_capacity(n);
        for i in 0..n {
            let start = warmup + i as u64 * self.width;
            let cycles = (start + self.width).min(total) - start;
            // The phase in effect at the window's first cycle.
            let phase =
                self.phase_log.iter().take_while(|(t, _)| *t <= start).last().map(|(_, s)| *s);
            windows.push(SimWindow {
                start,
                cycles,
                returns: self.returns[i],
                busy_channel_cycles: self.busy_channel_cycles[i],
                input_level_cycles: self.input_level_cycles[i],
                phase,
            });
        }
        // Per-phase cycle totals over the measured region.
        let phase_count = self.phase_log.iter().map(|(_, s)| *s as usize + 1).max().unwrap_or(0);
        let mut phase_cycles = vec![0u64; phase_count];
        for (i, &(start, phase)) in self.phase_log.iter().enumerate() {
            let end = self.phase_log.get(i + 1).map_or(total, |&(t, _)| t);
            let lo = start.max(warmup);
            let hi = end.min(total);
            if hi > lo {
                phase_cycles[phase as usize] += hi - lo;
            }
        }
        WindowSeries { width: self.width, windows, phase_cycles }
    }
}

/// One fixed-width measurement window's accumulated telemetry.
#[derive(Clone, Debug, PartialEq)]
pub struct SimWindow {
    /// First cycle of the window (inclusive).
    pub start: u64,
    /// Cycles the window actually covers (the final window of a run —
    /// especially a truncated adaptive run — may be shorter than the
    /// configured width).
    pub cycles: u64,
    /// Completions landing in the window.
    pub returns: u64,
    /// Busy channel-cycles in the window.
    pub busy_channel_cycles: u64,
    /// Input-FIFO `level × cycles` in the window, summed over modules.
    pub input_level_cycles: u64,
    /// The workload phase in effect at the window's first cycle
    /// (`None` for stationary workloads).
    pub phase: Option<u32>,
}

impl SimWindow {
    /// Effective bandwidth over this window alone, given the
    /// processor-cycle scale factor `rc = r + 2`.
    pub fn ebw(&self, rc: u32) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.returns as f64 * f64::from(rc) / self.cycles as f64
    }

    /// Mean input-FIFO length over this window (per module), given the
    /// module count.
    pub fn mean_input_queue(&self, modules: u32) -> f64 {
        if self.cycles == 0 || modules == 0 {
            return 0.0;
        }
        self.input_level_cycles as f64 / (self.cycles as f64 * f64::from(modules))
    }
}

/// A finalized windowed-telemetry series: the trajectory of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSeries {
    /// Configured window width in cycles.
    pub width: u64,
    /// The windows, in time order; their `cycles` spans partition the
    /// measured region exactly.
    pub windows: Vec<SimWindow>,
    /// Measured cycles spent in each workload phase (empty for
    /// stationary workloads); sums to the measured cycle count.
    pub phase_cycles: Vec<u64>,
}

/// Time-weighted queue-level accounting for one group of FIFOs (e.g.
/// every memory module's input buffer). Levels are integers in
/// `0..=max_level`; each level change records the span the old level
/// was held, clipped to the measurement window, weighted into a
/// one-cycle-wide [`Histogram`].
#[derive(Clone, Debug)]
pub struct QueueOccupancy {
    /// Current level per entity.
    levels: Vec<u32>,
    /// Cycle since which the current level has been held.
    since: Vec<u64>,
    /// Accumulated `level × cycles` per entity over the measured
    /// window — the numerator of each entity's own mean queue length
    /// (the aggregate histogram pools all entities, which hides a
    /// single hot module's queue).
    level_cycles: Vec<u64>,
    histogram: Histogram,
}

impl QueueOccupancy {
    /// A tracker for `entities` FIFOs with levels in `0..=max_level`;
    /// all entities start at level 0 from cycle 0.
    pub fn new(entities: usize, max_level: u32) -> Self {
        QueueOccupancy {
            levels: vec![0; entities],
            since: vec![0; entities],
            level_cycles: vec![0; entities],
            histogram: Histogram::new(1.0, max_level as usize + 1),
        }
    }

    /// A disabled tracker (zero entities): every call is a no-op and
    /// the histogram stays empty.
    pub fn disabled() -> Self {
        QueueOccupancy::new(0, 0)
    }

    /// The accumulated level histogram (weights are entity-cycles).
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Accumulated `level × measured-cycles` per entity (divide by the
    /// measured cycle count for each entity's own mean level).
    pub fn level_cycles(&self) -> &[u64] {
        &self.level_cycles
    }

    #[inline]
    fn record_span(
        &mut self,
        window: &MeasurementWindow,
        entity: usize,
        level: u32,
        start: u64,
        end: u64,
        windows: Option<&mut WindowTelemetry>,
    ) {
        let lo = start.max(window.warmup());
        let hi = end.min(window.total_cycles());
        if hi > lo {
            // Levels are integers and the histogram is unit-width: take
            // the division-free path (bit-identical accounting).
            self.histogram.record_level(level, hi - lo);
            self.level_cycles[entity] += u64::from(level) * (hi - lo);
            if level > 0 {
                if let Some(w) = windows {
                    WindowTelemetry::apply_span(
                        &mut w.input_level_cycles,
                        window.warmup(),
                        w.width,
                        lo,
                        hi,
                        u64::from(level),
                        true,
                    );
                }
            }
        }
    }

    /// Sets `entity`'s level from cycle `t` on, crediting the old level
    /// with the span it was held. `t` must be non-decreasing per
    /// entity.
    #[inline]
    fn set_level(
        &mut self,
        window: &MeasurementWindow,
        entity: usize,
        t: u64,
        level: u32,
        windows: Option<&mut WindowTelemetry>,
    ) {
        if self.levels.is_empty() {
            return;
        }
        debug_assert!(t >= self.since[entity], "occupancy time went backwards");
        debug_assert!(
            (level as u64) < self.histogram.bucket_counts().len() as u64,
            "level {level} beyond tracked maximum"
        );
        let old = self.levels[entity];
        let since = self.since[entity];
        self.record_span(window, entity, old, since, t, windows);
        self.levels[entity] = level;
        self.since[entity] = t;
    }

    /// Flushes every entity's open span up to (but excluding) `t_end`.
    /// Idempotent: a second call at the same `t_end` records nothing.
    fn finish(
        &mut self,
        window: &MeasurementWindow,
        t_end: u64,
        mut windows: Option<&mut WindowTelemetry>,
    ) {
        for entity in 0..self.levels.len() {
            let level = self.levels[entity];
            let since = self.since[entity];
            self.record_span(window, entity, level, since, t_end, windows.as_deref_mut());
            self.since[entity] = t_end;
        }
    }
}

/// Warmup-gated counter set shared by the network simulators.
#[derive(Clone, Debug)]
pub struct SimCounters {
    window: MeasurementWindow,
    /// Completions (results delivered / requests served) during
    /// measurement.
    pub returns: u64,
    /// Requests granted the shared resource during measurement.
    pub requests_granted: u64,
    /// Channel-cycles carrying a transfer during measurement.
    pub bus_busy_channel_cycles: u64,
    /// Module-cycles spent actively serving during measurement.
    pub module_busy_cycles: u64,
    /// Request waiting times (issue → grant), in cycles.
    pub wait: RunningStats,
    /// Round-trip times (issue → completion), in cycles.
    pub round_trip: RunningStats,
    /// Distribution of request waiting times.
    pub wait_histogram: Histogram,
    /// Completions credited to each entity (fairness analysis).
    pub per_entity_returns: Vec<u64>,
    /// Input-FIFO occupancy per module (disabled unless
    /// [`SimCounters::with_queue_occupancy`] was called).
    pub input_occupancy: QueueOccupancy,
    /// Output-FIFO occupancy per module (disabled unless
    /// [`SimCounters::with_queue_occupancy`] was called).
    pub output_occupancy: QueueOccupancy,
    /// Completed services that found their output FIFO full and had to
    /// stall (the §6 blocking event), during measurement.
    pub blocked_completions: u64,
    /// Requests granted toward each module during measurement (empty
    /// unless [`SimCounters::with_queue_occupancy`] enabled module
    /// tracking) — the observable the workload reference distribution
    /// is validated against.
    pub per_module_requests: Vec<u64>,
    /// Module-cycles each module spent actively serving during
    /// measurement (empty unless module tracking is enabled). Sums to
    /// [`SimCounters::module_busy_cycles`].
    pub per_module_busy_cycles: Vec<u64>,
    /// Units of engine work executed over the whole run (not warmup
    /// gated): events processed by an event-driven engine, cycles
    /// stepped by a cycle-stepped one. A portable, hardware-independent
    /// proxy for simulation cost — the currency of the adaptive
    /// stopping rule's savings and the CI event-budget gate.
    pub events: u64,
    /// Windowed transient-telemetry accumulators (disabled unless
    /// [`SimCounters::with_windows`] was called).
    windows: Option<WindowTelemetry>,
}

impl SimCounters {
    /// Counters over `window` for `entities` fairness-tracked entities,
    /// recording waits into `wait_histogram`, which must use unit-width
    /// (one-cycle) buckets — waits are whole cycles and the hot path
    /// records them by integer level.
    ///
    /// # Panics
    ///
    /// Panics if `wait_histogram` does not have `bucket_width == 1.0`.
    pub fn new(window: MeasurementWindow, entities: usize, wait_histogram: Histogram) -> Self {
        assert_eq!(wait_histogram.bucket_width(), 1.0, "wait histogram needs one-cycle buckets");
        SimCounters {
            window,
            returns: 0,
            requests_granted: 0,
            bus_busy_channel_cycles: 0,
            module_busy_cycles: 0,
            wait: RunningStats::new(),
            round_trip: RunningStats::new(),
            wait_histogram,
            per_entity_returns: vec![0; entities],
            input_occupancy: QueueOccupancy::disabled(),
            output_occupancy: QueueOccupancy::disabled(),
            blocked_completions: 0,
            per_module_requests: Vec::new(),
            per_module_busy_cycles: Vec::new(),
            events: 0,
            windows: None,
        }
    }

    /// Enables windowed transient telemetry: the measured region is cut
    /// into `width`-cycle windows and completions, busy channel-cycles,
    /// and input-queue level-cycles are additionally accumulated per
    /// window (integer accounting — window values recombine to the
    /// whole-run totals bit-exactly). The whole-run counters are
    /// unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn with_windows(mut self, width: u64) -> Self {
        self.windows = Some(WindowTelemetry::new(&self.window, width));
        self
    }

    /// Logs a workload phase transition: the chain enters `phase` at
    /// cycle `t` (no-op unless windowed telemetry is enabled; call with
    /// `t = 0` for the initial phase). Cycles must be non-decreasing.
    pub fn record_phase(&mut self, t: u64, phase: u32) {
        if let Some(w) = &mut self.windows {
            debug_assert!(w.phase_log.last().is_none_or(|&(last, _)| last <= t));
            w.phase_log.push((t, phase));
        }
    }

    /// The finalized windowed-telemetry series against the current
    /// (possibly truncated) window, or `None` when disabled. Call after
    /// the run ends, like [`SimCounters::finish_occupancy`].
    pub fn window_series(&self) -> Option<WindowSeries> {
        self.windows.as_ref().map(|w| w.finalize(&self.window))
    }

    /// Enables queue-occupancy telemetry for `modules` FIFO pairs whose
    /// input levels range over `0..=input_max` and output levels over
    /// `0..=output_max`, along with per-module request and busy-cycle
    /// tracking (the workload telemetry).
    pub fn with_queue_occupancy(mut self, modules: usize, input_max: u32, output_max: u32) -> Self {
        self.input_occupancy = QueueOccupancy::new(modules, input_max);
        self.output_occupancy = QueueOccupancy::new(modules, output_max);
        self.per_module_requests = vec![0; modules];
        self.per_module_busy_cycles = vec![0; modules];
        self
    }

    /// The measurement window the counters are gated by.
    pub fn window(&self) -> MeasurementWindow {
        self.window
    }

    /// Number of measured cycles (the EBW denominator).
    pub fn measured_cycles(&self) -> u64 {
        self.window.measured_cycles()
    }

    /// Whether cycle `t` falls inside the measurement window.
    pub fn is_measuring(&self, t: u64) -> bool {
        self.window.is_measuring(t)
    }

    /// Records a completed round trip landing at the end of cycle `t`:
    /// the request was issued at `issued`, the result reaches entity
    /// `entity` at the start of cycle `t + 1`.
    #[inline]
    pub fn record_return(&mut self, t: u64, entity: usize, issued: u64) {
        if self.window.is_measuring(t) {
            self.returns += 1;
            self.per_entity_returns[entity] += 1;
            self.round_trip.push((t + 1 - issued) as f64);
            if let Some(w) = &mut self.windows {
                let idx = w.index(self.window.warmup(), t);
                w.returns[idx] += 1;
            }
        }
    }

    /// Records a served request at cycle `t` without round-trip
    /// accounting (the crossbar's requests complete within the cycle).
    #[inline]
    pub fn record_served(&mut self, t: u64, entity: usize) {
        if self.window.is_measuring(t) {
            self.returns += 1;
            self.per_entity_returns[entity] += 1;
            if let Some(w) = &mut self.windows {
                let idx = w.index(self.window.warmup(), t);
                w.returns[idx] += 1;
            }
        }
    }

    /// Records a bus grant at cycle `t` for a request pending since
    /// `since`.
    #[inline]
    pub fn record_grant(&mut self, t: u64, since: u64) {
        if self.window.is_measuring(t) {
            self.requests_granted += 1;
            let wait = t - since;
            self.wait.push(wait as f64);
            // Waits are whole cycles into a unit-width histogram
            // (enforced by the constructor): the division-free path,
            // with the general one as fallback for astronomical waits.
            match u32::try_from(wait) {
                Ok(w) => self.wait_histogram.record_level(w, 1),
                Err(_) => self.wait_histogram.record(wait as f64),
            }
        }
    }

    /// Clips the half-open cycle span `[start, end)` to the window and
    /// returns the overlap length.
    #[inline]
    fn clipped(&self, start: u64, end: u64) -> u64 {
        let lo = start.max(self.window.warmup());
        let hi = end.min(self.window.total_cycles());
        hi.saturating_sub(lo)
    }

    /// Distributes the already-clipped span `[lo, hi)` into the busy
    /// window accumulators (no-op when windows are disabled).
    #[inline]
    fn window_busy_span(&mut self, lo: u64, hi: u64, add: bool) {
        if let Some(w) = &mut self.windows {
            if hi > lo {
                WindowTelemetry::apply_span(
                    &mut w.busy_channel_cycles,
                    self.window.warmup(),
                    w.width,
                    lo,
                    hi,
                    1,
                    add,
                );
            }
        }
    }

    /// Adds bus-channel occupancy over the half-open span
    /// `[start, end)` of cycles.
    #[inline]
    pub fn add_channel_busy_span(&mut self, start: u64, end: u64) {
        self.bus_busy_channel_cycles += self.clipped(start, end);
        let (lo, hi) = (start.max(self.window.warmup()), end.min(self.window.total_cycles()));
        self.window_busy_span(lo, hi, true);
    }

    /// Adds module service occupancy over the half-open span
    /// `[start, end)` of cycles.
    #[inline]
    pub fn add_module_busy_span(&mut self, start: u64, end: u64) {
        self.module_busy_cycles += self.clipped(start, end);
    }

    /// Removes previously added bus-channel occupancy over `[start,
    /// end)` (same clipping as [`SimCounters::add_channel_busy_span`]).
    /// Event engines record whole spans at scheduling time; when an
    /// adaptive run stops early, the in-flight tail past the stopping
    /// point is subtracted with this before the window is truncated.
    pub fn remove_channel_busy_span(&mut self, start: u64, end: u64) {
        self.bus_busy_channel_cycles -= self.clipped(start, end);
        let (lo, hi) = (start.max(self.window.warmup()), end.min(self.window.total_cycles()));
        self.window_busy_span(lo, hi, false);
    }

    /// Records a granted request toward `module` at cycle `t` (no-op
    /// when module tracking is disabled).
    #[inline]
    pub fn record_module_request(&mut self, t: u64, module: usize) {
        if !self.per_module_requests.is_empty() && self.window.is_measuring(t) {
            self.per_module_requests[module] += 1;
        }
    }

    /// Adds service occupancy for `module` over the half-open span
    /// `[start, end)`: the aggregate
    /// ([`SimCounters::add_module_busy_span`]) plus the per-module
    /// slot when tracking is enabled.
    #[inline]
    pub fn add_module_busy_span_at(&mut self, module: usize, start: u64, end: u64) {
        let span = self.clipped(start, end);
        self.module_busy_cycles += span;
        if let Some(slot) = self.per_module_busy_cycles.get_mut(module) {
            *slot += span;
        }
    }

    /// Removes previously added per-module service occupancy over
    /// `[start, end)` (the early-stop analogue of
    /// [`SimCounters::add_module_busy_span_at`]).
    pub fn remove_module_busy_span_at(&mut self, module: usize, start: u64, end: u64) {
        let span = self.clipped(start, end);
        self.module_busy_cycles -= span;
        if let Some(slot) = self.per_module_busy_cycles.get_mut(module) {
            *slot -= span;
        }
    }

    /// Per-cycle per-module busy accounting for cycle-stepped engines:
    /// `module` served during cycle `t` (updates the aggregate and the
    /// per-module slot).
    #[inline]
    pub fn tick_module_busy(&mut self, t: u64, module: usize) {
        if self.window.is_measuring(t) {
            self.module_busy_cycles += 1;
            if let Some(slot) = self.per_module_busy_cycles.get_mut(module) {
                *slot += 1;
            }
        }
    }

    /// Cuts the measurement window short at cycle `t` (exclusive).
    /// Call only after subtracting any pre-recorded spans that extend
    /// past `t`, and before [`SimCounters::finish_occupancy`].
    ///
    /// # Panics
    ///
    /// As [`MeasurementWindow::truncated`].
    pub fn truncate_window(&mut self, t: u64) {
        self.window = self.window.truncated(t);
    }

    /// Per-cycle busy accounting for cycle-stepped engines: `channels`
    /// busy channels and `modules` serving modules at cycle `t`.
    pub fn tick_busy(&mut self, t: u64, channels: u64, modules: u64) {
        if self.window.is_measuring(t) {
            self.bus_busy_channel_cycles += channels;
            self.module_busy_cycles += modules;
            if channels > 0 {
                if let Some(w) = &mut self.windows {
                    let idx = w.index(self.window.warmup(), t);
                    w.busy_channel_cycles[idx] += channels;
                }
            }
        }
    }

    /// Sets `module`'s input-FIFO level from cycle `t` on (no-op when
    /// occupancy tracking is disabled). Windowed telemetry, when
    /// enabled, accumulates the input-side level-cycles per window.
    #[inline]
    pub fn set_input_occupancy(&mut self, module: usize, t: u64, level: u32) {
        self.input_occupancy.set_level(&self.window, module, t, level, self.windows.as_mut());
    }

    /// Sets `module`'s output-FIFO level from cycle `t` on (no-op when
    /// occupancy tracking is disabled).
    #[inline]
    pub fn set_output_occupancy(&mut self, module: usize, t: u64, level: u32) {
        self.output_occupancy.set_level(&self.window, module, t, level, None);
    }

    /// Flushes all open occupancy spans up to `t_end` (call once when
    /// the run ends; safe to call on disabled trackers).
    pub fn finish_occupancy(&mut self, t_end: u64) {
        self.input_occupancy.finish(&self.window, t_end, self.windows.as_mut());
        self.output_occupancy.finish(&self.window, t_end, None);
    }

    /// Records a service that completed at cycle `t` but found its
    /// output FIFO full (the blocking event of the buffered scheme).
    #[inline]
    pub fn record_blocked_completion(&mut self, t: u64) {
        if self.window.is_measuring(t) {
            self.blocked_completions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> SimCounters {
        SimCounters::new(MeasurementWindow::new(10, 20), 3, Histogram::new(1.0, 8))
    }

    #[test]
    fn warmup_cutover_gates_every_counter() {
        let mut c = counters();
        c.record_return(9, 0, 0); // warmup: dropped
        c.record_grant(9, 4);
        c.record_served(9, 1);
        assert_eq!(c.returns, 0);
        assert_eq!(c.requests_granted, 0);
        assert_eq!(c.wait.count(), 0);

        c.record_return(10, 0, 6);
        c.record_grant(10, 4);
        c.record_served(29, 2);
        assert_eq!(c.returns, 2);
        assert_eq!(c.per_entity_returns, vec![1, 0, 1]);
        assert_eq!(c.requests_granted, 1);
        assert_eq!(c.wait.mean(), 6.0);
        assert_eq!(c.round_trip.mean(), 5.0); // 10 + 1 - 6

        c.record_return(30, 0, 0); // past the window: dropped
        assert_eq!(c.returns, 2);
    }

    #[test]
    fn busy_spans_clip_to_the_window() {
        let mut c = counters();
        c.add_channel_busy_span(0, 10); // entirely warmup
        assert_eq!(c.bus_busy_channel_cycles, 0);
        c.add_channel_busy_span(8, 12); // straddles the cutover
        assert_eq!(c.bus_busy_channel_cycles, 2);
        c.add_module_busy_span(28, 40); // straddles the end
        assert_eq!(c.module_busy_cycles, 2);
        c.add_module_busy_span(35, 40); // entirely past the end
        assert_eq!(c.module_busy_cycles, 2);
    }

    #[test]
    fn tick_matches_span_accounting() {
        let mut by_tick = counters();
        let mut by_span = counters();
        for t in 5..25 {
            by_tick.tick_busy(t, 2, 1);
        }
        by_span.add_channel_busy_span(5, 25);
        by_span.add_channel_busy_span(5, 25);
        by_span.add_module_busy_span(5, 25);
        assert_eq!(by_tick.bus_busy_channel_cycles, by_span.bus_busy_channel_cycles);
        assert_eq!(by_tick.module_busy_cycles, by_span.module_busy_cycles);
    }

    #[test]
    fn measured_cycles_come_from_the_window() {
        assert_eq!(counters().measured_cycles(), 20);
        assert!(counters().is_measuring(10));
        assert!(!counters().is_measuring(9));
    }

    #[test]
    fn occupancy_spans_clip_to_the_window() {
        // Window [10, 30): level 1 held over [5, 15) credits 5 cycles,
        // the warmup part is dropped.
        let mut c = counters().with_queue_occupancy(1, 2, 2);
        c.set_input_occupancy(0, 5, 1);
        c.set_input_occupancy(0, 15, 2);
        c.finish_occupancy(40); // level 2 over [15, 40) clips to 15
        assert_eq!(c.input_occupancy.histogram().bucket_counts(), &[0, 5, 15]);
        assert_eq!(c.input_occupancy.histogram().count(), 20); // = measured cycles
    }

    #[test]
    fn occupancy_finish_is_idempotent() {
        let mut c = counters().with_queue_occupancy(2, 1, 1);
        c.set_output_occupancy(0, 12, 1);
        c.finish_occupancy(30);
        let once = c.output_occupancy.histogram().clone();
        c.finish_occupancy(30);
        assert_eq!(&once, c.output_occupancy.histogram());
        // Both modules' timelines are covered: 2 × 20 measured cycles.
        assert_eq!(once.count(), 40);
    }

    #[test]
    fn disabled_occupancy_is_inert() {
        let mut c = counters();
        assert!(c.input_occupancy.levels.is_empty());
        c.set_input_occupancy(0, 5, 3); // out-of-range entity: no-op
        c.finish_occupancy(30);
        assert_eq!(c.input_occupancy.histogram().count(), 0);
    }

    #[test]
    fn per_module_requests_gated_and_sized() {
        let mut c = counters().with_queue_occupancy(2, 1, 1);
        c.record_module_request(9, 0); // warmup: dropped
        c.record_module_request(10, 0);
        c.record_module_request(15, 1);
        c.record_module_request(29, 1);
        c.record_module_request(30, 0); // past the window: dropped
        assert_eq!(c.per_module_requests, vec![1, 2]);
        // Disabled tracking is inert.
        let mut d = counters();
        d.record_module_request(10, 0);
        assert!(d.per_module_requests.is_empty());
    }

    #[test]
    fn per_module_busy_spans_sum_to_aggregate() {
        let mut c = counters().with_queue_occupancy(2, 1, 1);
        c.add_module_busy_span_at(0, 5, 15); // clips to [10, 15)
        c.add_module_busy_span_at(1, 12, 40); // clips to [12, 30)
        assert_eq!(c.per_module_busy_cycles, vec![5, 18]);
        assert_eq!(c.module_busy_cycles, 23);
        c.remove_module_busy_span_at(1, 20, 40); // removes [20, 30)
        assert_eq!(c.per_module_busy_cycles, vec![5, 8]);
        assert_eq!(c.module_busy_cycles, 13);
    }

    #[test]
    fn tick_module_busy_matches_span_accounting() {
        let mut by_tick = counters().with_queue_occupancy(1, 1, 1);
        let mut by_span = counters().with_queue_occupancy(1, 1, 1);
        for t in 5..25 {
            by_tick.tick_module_busy(t, 0);
        }
        by_span.add_module_busy_span_at(0, 5, 25);
        assert_eq!(by_tick.module_busy_cycles, by_span.module_busy_cycles);
        assert_eq!(by_tick.per_module_busy_cycles, by_span.per_module_busy_cycles);
    }

    #[test]
    fn occupancy_level_cycles_track_each_entity() {
        // Window [10, 30): entity 0 holds level 2 over [12, 20) and
        // level 1 over [20, 30); entity 1 stays at 0.
        let mut c = counters().with_queue_occupancy(2, 2, 2);
        c.set_input_occupancy(0, 12, 2);
        c.set_input_occupancy(0, 20, 1);
        c.finish_occupancy(30);
        assert_eq!(c.input_occupancy.level_cycles(), &[2 * 8 + 10, 0]);
        // Per-entity accumulators decompose the pooled histogram mean:
        // 26 level-cycles over 2 entities × 20 measured cycles.
        assert!((c.input_occupancy.histogram().mean() - 26.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn window_spans_partition_measured_region() {
        // Window [10, 30), width 7 → windows of 7, 7, 6 cycles starting
        // at 10, 17, 24: they tile the measured region exactly.
        let c = counters().with_windows(7);
        let series = c.window_series().unwrap();
        assert_eq!(series.width, 7);
        let spans: Vec<(u64, u64)> = series.windows.iter().map(|w| (w.start, w.cycles)).collect();
        assert_eq!(spans, vec![(10, 7), (17, 7), (24, 6)]);
        assert_eq!(series.windows.iter().map(|w| w.cycles).sum::<u64>(), 20);
        assert!(series.phase_cycles.is_empty());
    }

    #[test]
    fn window_truncation_shrinks_the_tail() {
        let mut c = counters().with_windows(7);
        c.truncate_window(20); // measured region becomes [10, 20)
        let series = c.window_series().unwrap();
        let spans: Vec<(u64, u64)> = series.windows.iter().map(|w| (w.start, w.cycles)).collect();
        assert_eq!(spans, vec![(10, 7), (17, 3)]);
    }

    #[test]
    fn window_aggregates_recombine_bit_exactly() {
        let mut c = counters().with_queue_occupancy(2, 4, 4).with_windows(7);
        // Returns sprinkled across warmup, all three windows, and past
        // the end.
        for (t, entity) in [(5, 0), (10, 1), (16, 0), (17, 2), (23, 1), (29, 0), (30, 1)] {
            c.record_return(t, entity, t.saturating_sub(3));
        }
        // Busy accounting by span (straddling windows and both edges).
        c.add_channel_busy_span(8, 19);
        c.add_channel_busy_span(22, 40);
        c.remove_channel_busy_span(28, 40); // early-stop style removal
                                            // And by tick.
        c.tick_busy(12, 2, 1);
        // Input occupancy: level 2 held over [12, 26).
        c.set_input_occupancy(0, 12, 2);
        c.set_input_occupancy(0, 26, 0);
        c.set_input_occupancy(1, 9, 3);
        c.set_input_occupancy(1, 18, 0);
        c.finish_occupancy(30);
        let series = c.window_series().unwrap();
        assert_eq!(series.windows.iter().map(|w| w.returns).sum::<u64>(), c.returns);
        assert_eq!(
            series.windows.iter().map(|w| w.busy_channel_cycles).sum::<u64>(),
            c.bus_busy_channel_cycles
        );
        assert_eq!(
            series.windows.iter().map(|w| w.input_level_cycles).sum::<u64>(),
            c.input_occupancy.level_cycles().iter().sum::<u64>()
        );
        // Spot-check the per-window split: span [10,19) puts 7 in W0
        // and 2 in W1; span [22,30) puts 2 in W1 and 6 in W2; the
        // removal [28,30) takes 2 back out of W2; the tick at 12 adds
        // 2 channels to W0.
        let busy: Vec<u64> = series.windows.iter().map(|w| w.busy_channel_cycles).collect();
        assert_eq!(busy, vec![7 + 2, 2 + 2, 6 - 2]);
    }

    #[test]
    fn window_phase_log_resolves_tags_and_cycles() {
        let mut c = counters().with_windows(10);
        c.record_phase(0, 0);
        c.record_phase(15, 1);
        c.record_phase(25, 0);
        let series = c.window_series().unwrap();
        // Window starts 10 and 20: phase in effect there is 0 and 1.
        let tags: Vec<Option<u32>> = series.windows.iter().map(|w| w.phase).collect();
        assert_eq!(tags, vec![Some(0), Some(1)]);
        // Measured phase cycles: phase 0 over [10,15) ∪ [25,30),
        // phase 1 over [15,25).
        assert_eq!(series.phase_cycles, vec![10, 10]);
        assert_eq!(series.phase_cycles.iter().sum::<u64>(), 20);
    }

    #[test]
    fn window_ebw_and_queue_views() {
        let mut c = counters().with_queue_occupancy(2, 4, 4).with_windows(10);
        c.record_return(12, 0, 10);
        c.record_return(14, 1, 10);
        c.set_input_occupancy(0, 10, 2);
        c.finish_occupancy(30);
        let series = c.window_series().unwrap();
        let w0 = &series.windows[0];
        // 2 returns over 10 cycles at rc = 10 → EBW 2.0.
        assert!((w0.ebw(10) - 2.0).abs() < 1e-12);
        // 20 level-cycles over 10 cycles × 2 modules → mean 1.0.
        assert!((w0.mean_input_queue(2) - 1.0).abs() < 1e-12);
        // Degenerate guards.
        let empty = SimWindow {
            start: 0,
            cycles: 0,
            returns: 0,
            busy_channel_cycles: 0,
            input_level_cycles: 0,
            phase: None,
        };
        assert_eq!(empty.ebw(10), 0.0);
        assert_eq!(empty.mean_input_queue(0), 0.0);
    }

    #[test]
    fn disabled_windows_are_inert() {
        let mut c = counters();
        assert!(c.windows.is_none());
        c.record_phase(0, 1);
        c.record_return(12, 0, 10);
        assert!(c.window_series().is_none());
    }

    #[test]
    fn blocked_completions_gated_by_warmup() {
        let mut c = counters();
        c.record_blocked_completion(9); // warmup
        c.record_blocked_completion(10);
        c.record_blocked_completion(29);
        c.record_blocked_completion(30); // past the end
        assert_eq!(c.blocked_completions, 2);
    }
}
