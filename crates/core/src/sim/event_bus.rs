//! Event-driven single-bus engine (the
//! [`EngineKind::Event`](crate::sim::bus::EngineKind) path).
//!
//! Realizes exactly the stochastic process of the cycle-stepped
//! [`BusSim`](crate::sim::bus::BusSim) — same dynamics, same
//! measurement windows — on the discrete-event kernel
//! (`busnet_sim::event`), so wall-clock cost scales with *activity*
//! rather than with the cycle count:
//!
//! * think timers are pre-sampled: the geometric number of failed
//!   Bernoulli(`p`) coin flips collapses into one `ProcReady` event
//!   (drawn through an O(1) `GeometricAlias` table), so an idle
//!   processor costs one event per *request*, not one check per
//!   processor cycle;
//! * memory service completions and bus transfer landings are
//!   scheduled events;
//! * arbitration runs only in cycles where a grant is actually
//!   possible: every state change is an event, so if no grant is
//!   possible after a cycle's events, none is possible until the next
//!   event fires (the engine proves idleness instead of simulating it).
//!
//! ## Structure-of-arrays hot state
//!
//! The per-entity state lives in flat parallel arrays rather than
//! per-entity structs: processor phases and pending-request fields are
//! column vectors, the depth-`k` module FIFOs are fixed-capacity rings
//! carved out of two contiguous token arrays, and the service stage is
//! three parallel columns (busy flag, token, completion time). Two
//! [`DenseBits`] sets — processors holding a pending request, modules
//! holding a finished result — replace the per-cycle scans of the old
//! struct-per-module layout: `arbitrate`, `land_transfer`, and
//! `complete_service` touch O(changed state) words, allocate nothing,
//! and build their candidate lists (in the same ascending index order
//! the arbiter contract requires) by iterating set bits.
//!
//! Each cycle has two event phases, encoded into the queue key:
//! *begin* (processors issue) and *end* (transfers land, services
//! complete) — mirroring the cycle engine's wake → arbitrate →
//! end-of-cycle order, including the paper's rule that a result lands
//! before the freed module pulls its input queue.
//!
//! Every stochastic entity owns an independent RNG stream derived from
//! the master seed (`busnet_sim::seeds::SeedSequence`), so results do
//! not depend on queue pop order among simultaneous events and runs are
//! bit-reproducible. Statistical equivalence with the cycle engine is
//! pinned by `tests/engine_equivalence.rs`.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use busnet_sim::arbiter::Arbiter;
use busnet_sim::bits::DenseBits;
use busnet_sim::counters::SimCounters;
use busnet_sim::event::EventQueue;
use busnet_sim::seeds::SeedSequence;

use crate::params::{Buffering, BusPolicy, SystemParams};
use crate::sim::address::{MmppState, ModuleSampler, ThinkSampler};
use crate::sim::bus::{
    grant_memory_side, module_can_accept, new_counters, BusSimBuilder, SimReport,
};
use crate::sim::service::ServiceTime;

/// A processor's request token.
#[derive(Clone, Copy, Debug, Default)]
struct Token {
    proc: usize,
    issued: u64,
}

/// Processor phase ids for the SoA `phase` column.
const THINKING: u8 = 0;
const PENDING: u8 = 1;
const WAITING: u8 = 2;

#[derive(Clone, Copy, Debug)]
enum Transfer {
    Request { token: Token, module: usize },
    Return { token: Token },
}

/// Scheduled occurrences. `ProcReady` fires at the *begin* phase of its
/// cycle; the others at the *end* phase.
enum Ev {
    /// The processor's think timer (with all failed coin flips folded
    /// in) expires: it issues a request this cycle.
    ProcReady(usize),
    /// The transfer on this channel completes at end of cycle.
    TransferDone(usize),
    /// The module's service may complete (original completion or a
    /// recheck after its output buffer drained).
    ServiceDone(usize),
}

/// Queue keys: two phases per cycle, begin before end.
fn begin(t: u64) -> u64 {
    2 * t
}

fn end(t: u64) -> u64 {
    2 * t + 1
}

/// One group of fixed-capacity FIFO rings (all modules' input queues,
/// or all their output queues) carved out of a single contiguous token
/// array: ring `j` occupies `tokens[j*capacity .. (j+1)*capacity]` with
/// its own head cursor and length column.
#[derive(Clone, Debug)]
struct FifoRings {
    tokens: Vec<Token>,
    head: Vec<u32>,
    len: Vec<u32>,
    capacity: u32,
}

impl FifoRings {
    fn new(entities: usize, capacity: u32) -> Self {
        FifoRings {
            tokens: vec![Token::default(); entities * capacity as usize],
            head: vec![0; entities],
            len: vec![0; entities],
            capacity,
        }
    }

    #[inline]
    fn len(&self, j: usize) -> u32 {
        self.len[j]
    }

    #[inline]
    fn is_empty(&self, j: usize) -> bool {
        self.len[j] == 0
    }

    #[inline]
    fn push_back(&mut self, j: usize, token: Token) {
        debug_assert!(self.len[j] < self.capacity, "FIFO ring overrun");
        let cap = self.capacity;
        let slot = (self.head[j] + self.len[j]) % cap;
        self.tokens[j * cap as usize + slot as usize] = token;
        self.len[j] += 1;
    }

    #[inline]
    fn pop_front(&mut self, j: usize) -> Token {
        debug_assert!(self.len[j] > 0, "pop from empty FIFO ring");
        let cap = self.capacity;
        let token = self.tokens[j * cap as usize + self.head[j] as usize];
        self.head[j] = (self.head[j] + 1) % cap;
        self.len[j] -= 1;
        token
    }
}

/// The event-driven single-bus simulator. Create via
/// [`BusSimBuilder::build_event`] or run directly through
/// [`BusSimBuilder::run`] with
/// [`EngineKind::Event`](crate::sim::bus::EngineKind).
pub struct EventBusSim {
    params: SystemParams,
    policy: BusPolicy,
    buffering: Buffering,
    depth: u32,
    /// Module-target sampler compiled from the workload.
    target: ModuleSampler,
    memory_service: ServiceTime,
    bus_transfer: ServiceTime,
    total: u64,
    queue: EventQueue<Ev>,
    /// Arbitration wake for the next cycle, set when a grant is known
    /// to be possible there.
    wake_at: Option<u64>,
    /// Processor phase column (`THINKING` / `PENDING` / `WAITING`).
    phase: Vec<u8>,
    /// Pending-request columns, valid where `phase == PENDING`.
    pend_module: Vec<u32>,
    pend_since: Vec<u64>,
    pend_issued: Vec<u64>,
    /// Processors currently in `PENDING` phase.
    pending: DenseBits,
    /// Module input FIFOs (capacity `depth`; unused rings when 0).
    inputs: FifoRings,
    /// Module output FIFOs (capacity `max(depth, 1)`).
    outputs: FifoRings,
    /// Modules with a non-empty output FIFO (memory-side candidates).
    out_nonempty: DenseBits,
    /// Count of modules with non-empty output.
    out_count: u32,
    /// Service-stage columns: busy flag, served token, end-of-cycle
    /// completion time. A busy slot with `done <= now` is blocked on a
    /// full output buffer.
    svc_busy: Vec<bool>,
    svc_token: Vec<Token>,
    svc_done: Vec<u64>,
    bus: Vec<Option<(Transfer, u64)>>,
    /// Requests currently on the bus, per destination module.
    inflight: Vec<u32>,
    /// Single-channel fast path: a transfer granted this cycle with
    /// duration 1 lands at this cycle's own end phase, so it skips the
    /// queue round trip. It is processed after every queued end-phase
    /// event — exactly the position its `TransferDone` event (scheduled
    /// last within `arbitrate`) would have popped in.
    landing_now: Option<usize>,
    proc_arbiter: Arbiter,
    module_arbiter: Arbiter,
    /// Per-processor streams: think-coin runs and address sampling.
    proc_rngs: Vec<SmallRng>,
    /// Per-module streams: service-time sampling.
    module_rngs: Vec<SmallRng>,
    /// Arbitration tie-breaks.
    arb_rng: SmallRng,
    /// Bus transfer durations.
    transfer_rng: SmallRng,
    /// O(1) alias-table think-timer sampler (no per-draw logarithm;
    /// one table per processor under heterogeneous traffic). Under an
    /// MMPP workload this is the *current phase's* table, swapped at
    /// every phase boundary.
    think: ThinkSampler,
    /// Phase-chain state for a bursty ([`Workload::Mmpp`]) workload;
    /// `None` for stationary workloads.
    ///
    /// [`Workload::Mmpp`]: crate::params::Workload::Mmpp
    mmpp: Option<MmppState>,
    /// The next phase boundary, folded into the main loop's time-min
    /// alongside `wake_at` so boundaries are processed even when no
    /// event is queued (dormant processors may re-awaken there).
    next_phase_tick: Option<u64>,
    /// Phase-chain transition draws (one per boundary). Unused — and
    /// never advanced — for stationary workloads.
    phase_rng: SmallRng,
    /// Per-processor think-timer anchors for *dormant* thinkers: a
    /// think draw capped at a phase boundary (success would land at or
    /// beyond it under the outgoing phase's `p`) schedules nothing;
    /// the coin-flip grid anchor is parked here and the processor is
    /// re-sampled at the boundary under the incoming phase — exact by
    /// memorylessness of the per-cycle Bernoulli coin.
    dormant_from: Vec<Option<u64>>,
    stats: SimCounters,
    candidate_scratch: Vec<usize>,
    ready_scratch: Vec<usize>,
    /// Reused buffer for draining one phase's events in a single
    /// bucket walk.
    event_scratch: Vec<Ev>,
    /// Whether the initial think timers have been scheduled.
    primed: bool,
}

impl EventBusSim {
    pub(crate) fn from_builder(b: BusSimBuilder) -> Self {
        let memory_service = b.memory_service.unwrap_or(ServiceTime::Constant(b.params.r()));
        memory_service.validate().expect("invalid memory service time");
        b.bus_transfer.validate().expect("invalid bus transfer time");
        let workload = b.resolved_workload().expect("invalid workload");
        let n = b.params.n() as usize;
        let m = b.params.m() as usize;
        let depth = b.resolved_depth().expect("invalid buffering scheme");
        let seeds = SeedSequence::new(b.seed);
        let proc_seeds = seeds.child(0);
        let module_seeds = seeds.child(1);
        let shared_seeds = seeds.child(2);
        let mmpp = workload
            .mmpp_spec()
            .map(|spec| MmppState::new(std::sync::Arc::clone(spec), b.params.n(), b.params.m()));
        let target = match &mmpp {
            Some(state) => state.module_sampler().clone(),
            None => ModuleSampler::for_workload(&workload, b.params.m()),
        };
        let think = match &mmpp {
            Some(state) => state.think_sampler().clone(),
            None => ThinkSampler::for_workload(&workload, b.params.n(), b.params.p()),
        };
        let next_phase_tick = mmpp.as_ref().and_then(|state| state.next_boundary(0));
        let mut stats = new_counters(&b.params, depth, b.warmup, b.measure, b.window_cycles);
        if let Some(state) = &mmpp {
            stats.record_phase(0, state.phase());
        }
        EventBusSim {
            params: b.params,
            policy: b.policy,
            buffering: b.buffering,
            depth,
            target,
            memory_service,
            bus_transfer: b.bus_transfer,
            total: b.warmup + b.measure,
            queue: EventQueue::with_capacity(n + m + b.channels as usize),
            wake_at: None,
            phase: vec![THINKING; n],
            pend_module: vec![0; n],
            pend_since: vec![0; n],
            pend_issued: vec![0; n],
            pending: DenseBits::new(n),
            inputs: FifoRings::new(m, depth),
            outputs: FifoRings::new(m, depth.max(1)),
            out_nonempty: DenseBits::new(m),
            out_count: 0,
            svc_busy: vec![false; m],
            svc_token: vec![Token::default(); m],
            svc_done: vec![0; m],
            bus: vec![None; b.channels as usize],
            inflight: vec![0; m],
            landing_now: None,
            proc_arbiter: Arbiter::new(b.arbitration),
            module_arbiter: Arbiter::new(b.arbitration),
            proc_rngs: (0..n)
                .map(|i| SmallRng::seed_from_u64(proc_seeds.stream(i as u64)))
                .collect(),
            module_rngs: (0..m)
                .map(|j| SmallRng::seed_from_u64(module_seeds.stream(j as u64)))
                .collect(),
            arb_rng: SmallRng::seed_from_u64(shared_seeds.stream(0)),
            transfer_rng: SmallRng::seed_from_u64(shared_seeds.stream(1)),
            think,
            mmpp,
            next_phase_tick,
            phase_rng: SmallRng::seed_from_u64(shared_seeds.stream(2)),
            dormant_from: vec![None; n],
            stats,
            candidate_scratch: Vec::with_capacity(n.max(m)),
            ready_scratch: Vec::with_capacity(m),
            event_scratch: Vec::with_capacity(n + m),
            primed: false,
        }
    }

    /// The parameters this simulator was built with.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Number of bus channels.
    pub fn channels(&self) -> u32 {
        self.bus.len() as u32
    }

    /// The admission rule shared with the cycle engine
    /// ([`module_can_accept`]), over the SoA columns.
    #[inline]
    fn can_accept(&self, j: usize) -> bool {
        module_can_accept(
            self.depth,
            self.svc_busy[j],
            self.inputs.len(j) as usize,
            self.outputs.len(j) as usize,
            self.inflight[j],
        )
    }

    /// The first cycle at or after `from` in which processor `i`'s
    /// Bernoulli(`p`) coin (flipped once per processor cycle) succeeds;
    /// `None` once the success falls beyond the simulated horizon.
    ///
    /// Under an MMPP workload the horizon is additionally capped at the
    /// next phase boundary: the current phase's `p` is only valid up to
    /// there, so a draw landing at or past the boundary is discarded
    /// and the processor parks as dormant (see [`Self::mark_dormant`])
    /// to be re-drawn under the incoming phase.
    fn sample_ready(&mut self, i: usize, from: u64) -> Option<u64> {
        let horizon = match self.next_phase_tick {
            Some(boundary) => self.total.min(boundary),
            None => self.total,
        };
        self.think.next_success(
            i,
            &mut self.proc_rngs[i],
            from,
            u64::from(self.params.processor_cycle()),
            horizon,
        )
    }

    /// Parks processor `i` as a dormant thinker whose coin-flip grid is
    /// anchored at `from`, to be re-sampled at the next phase boundary.
    /// A no-op when the think draw was capped by the run's end rather
    /// than by a phase boundary — then the processor simply never
    /// issues again, exactly as under a stationary workload.
    fn mark_dormant(&mut self, i: usize, from: u64) {
        if self.next_phase_tick.is_some_and(|boundary| boundary < self.total) {
            self.dormant_from[i] = Some(from);
        }
    }

    /// Crosses the phase boundary at cycle `t`: steps the chain, swaps
    /// in the new phase's pooled samplers, and re-draws every dormant
    /// thinker from its coin-flip grid anchor under the new phase's
    /// think probability. Runs before the begin-phase drain of cycle
    /// `t`, so requests issued at `t` already target by the new phase.
    fn step_phase(&mut self, t: u64) {
        let mmpp = self.mmpp.as_mut().expect("phase tick without a phase chain");
        let phase = mmpp.step(&mut self.phase_rng);
        self.target = mmpp.module_sampler().clone();
        self.think = mmpp.think_sampler().clone();
        self.stats.record_phase(t, phase);
        self.next_phase_tick = mmpp.next_boundary(t);
        let stride = u64::from(self.params.processor_cycle());
        for i in 0..self.dormant_from.len() {
            let Some(from) = self.dormant_from[i].take() else { continue };
            // First coin-flip grid point at or after the boundary: the
            // old phase's draw already covered (and failed) every grid
            // point before `t`, and the Bernoulli coin is memoryless.
            let anchor = if from >= t { from } else { from + (t - from).div_ceil(stride) * stride };
            match self.sample_ready(i, anchor) {
                Some(ready) => self.queue.schedule(begin(ready), Ev::ProcReady(i)),
                None => self.mark_dormant(i, anchor),
            }
        }
    }

    /// Runs warmup + measurement and returns the report.
    pub fn run(mut self) -> SimReport {
        let total = self.total;
        self.advance_until(total);
        self.finish_at(total)
    }

    /// Processes every event/wake cycle strictly before `limit`
    /// (clamped to the configured total), leaving the queue and wake
    /// state intact for a later call — the incremental entry point
    /// batch-by-batch adaptive runs use.
    pub fn advance_until(&mut self, limit: u64) {
        if !self.primed {
            self.primed = true;
            for i in 0..self.phase.len() {
                match self.sample_ready(i, 0) {
                    Some(t) => self.queue.schedule(begin(t), Ev::ProcReady(i)),
                    None => self.mark_dormant(i, 0),
                }
            }
        }
        let limit = limit.min(self.total);
        loop {
            let next = [self.wake_at, self.queue.peek_time().map(|key| key / 2)]
                .into_iter()
                .flatten()
                .chain(self.next_phase_tick.filter(|&b| b < self.total))
                .min();
            let t = match next {
                Some(t) => t,
                None => break,
            };
            if t >= limit {
                break; // wake/queue/phase state stays valid for resumption
            }
            self.wake_at = None;
            // Phase boundaries fire at the very top of their cycle,
            // before think timers expire, so issue decisions at `t`
            // are already made under the incoming phase.
            if self.next_phase_tick == Some(t) {
                self.step_phase(t);
            }
            // Begin of cycle: think timers expire, requests are issued.
            // Each phase drains its whole bucket in one walk; nothing
            // schedules into a phase while it is being processed.
            let mut drained = std::mem::take(&mut self.event_scratch);
            self.stats.events += self.queue.drain_at(begin(t), &mut drained) as u64;
            for ev in drained.drain(..) {
                match ev {
                    Ev::ProcReady(i) => {
                        debug_assert_eq!(self.phase[i], THINKING);
                        let m = self.params.m() as usize;
                        let module = self.target.sample(m, &mut self.proc_rngs[i]);
                        self.phase[i] = PENDING;
                        self.pend_module[i] = module as u32;
                        self.pend_since[i] = t;
                        self.pend_issued[i] = t;
                        self.pending.insert(i);
                    }
                    Ev::TransferDone(_) | Ev::ServiceDone(_) => {
                        unreachable!("end-phase event at a begin key")
                    }
                }
            }
            self.arbitrate(t);
            // End of cycle: transfers land, services complete. The
            // blocked-service recheck is scheduled in `arbitrate`,
            // before this drain, so it is included.
            self.stats.events += self.queue.drain_at(end(t), &mut drained) as u64;
            for ev in drained.drain(..) {
                match ev {
                    Ev::ProcReady(_) => unreachable!("begin-phase event at an end key"),
                    Ev::TransferDone(ch) => self.land_transfer(ch, t),
                    Ev::ServiceDone(j) => self.complete_service(j, t),
                }
            }
            self.event_scratch = drained;
            if let Some(ch) = self.landing_now.take() {
                self.stats.events += 1;
                self.land_transfer(ch, t);
            }
            // If a grant is possible next cycle, wake for it; otherwise
            // the next event is the next chance for state to change.
            if t + 1 < self.total && self.can_grant() {
                self.wake_at = Some(t + 1);
            }
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

    /// Closes the run at cycle `t` (exclusive) and builds the report.
    /// When the run stops before its configured total, the busy spans
    /// of in-flight transfers and services — which this engine records
    /// whole at scheduling time — are clipped back to `t` before the
    /// measurement window is truncated, so an early stop accounts
    /// exactly like a run configured to end at `t`.
    pub fn finish_at(mut self, t: u64) -> SimReport {
        if t < self.total {
            for slot in self.bus.iter().flatten() {
                let (_, until) = *slot;
                if until >= t {
                    // Transfer occupies [grant, until + 1).
                    self.stats.remove_channel_busy_span(t, until + 1);
                }
            }
            for j in 0..self.svc_busy.len() {
                if self.svc_busy[j] && self.svc_done[j] + 1 > t {
                    // Service occupies [start + 1, done + 1).
                    self.stats.remove_module_busy_span_at(j, t, self.svc_done[j] + 1);
                }
            }
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

    /// Same per-cycle arbitration as the cycle engine's `arbitrate`
    /// (`BusSim::arbitrate` in `bus.rs`): the semantic rules —
    /// admission ([`module_can_accept`]) and side priority
    /// ([`grant_memory_side`]) — are shared; only the engine-specific
    /// plumbing (event scheduling, busy-span accounting, bitset
    /// candidate tracking) differs. Change the two in lockstep.
    fn arbitrate(&mut self, t: u64) {
        for ch in 0..self.bus.len() {
            if self.bus[ch].is_some() {
                continue;
            }
            let memory_ready = self.out_count > 0;
            let mut candidates = std::mem::take(&mut self.candidate_scratch);
            candidates.clear();
            for i in self.pending.iter() {
                if self.can_accept(self.pend_module[i] as usize) {
                    candidates.push(i);
                }
            }
            let proc_ready = !candidates.is_empty();
            let grant_memory = grant_memory_side(self.policy, memory_ready, proc_ready);
            if !grant_memory && !proc_ready {
                self.candidate_scratch = candidates;
                break; // nothing left for the remaining channels either
            }
            let duration = u64::from(self.bus_transfer.sample(&mut self.transfer_rng));
            self.stats.add_channel_busy_span(t, t + duration);
            if grant_memory {
                let mut ready = std::mem::take(&mut self.ready_scratch);
                ready.clear();
                ready.extend(self.out_nonempty.iter());
                let j = self.module_arbiter.pick(t, &ready, &mut self.arb_rng);
                self.ready_scratch = ready;
                let token = self.outputs.pop_front(j);
                if self.outputs.is_empty(j) {
                    self.out_nonempty.remove(j);
                    self.out_count -= 1;
                }
                self.stats.set_output_occupancy(j, t + 1, self.outputs.len(j));
                if self.svc_busy[j] && self.svc_done[j] <= t {
                    // A finished service was blocked on this output
                    // slot; let it retry at the end of this cycle.
                    self.queue.schedule(end(t), Ev::ServiceDone(j));
                }
                self.bus[ch] = Some((Transfer::Return { token }, t + duration - 1));
            } else {
                let pick = self.proc_arbiter.pick(t, &candidates, &mut self.arb_rng);
                let module = self.pend_module[pick] as usize;
                self.stats.record_grant(t, self.pend_since[pick]);
                self.stats.record_module_request(t, module);
                self.phase[pick] = WAITING;
                self.pending.remove(pick);
                self.inflight[module] += 1;
                self.bus[ch] = Some((
                    Transfer::Request {
                        token: Token { proc: pick, issued: self.pend_issued[pick] },
                        module,
                    },
                    t + duration - 1,
                ));
            }
            self.candidate_scratch = candidates;
            if duration == 1 && self.bus.len() == 1 {
                // Lands at this cycle's end phase: skip the queue (see
                // `landing_now` for the ordering argument).
                self.landing_now = Some(ch);
            } else {
                self.queue.schedule(end(t + duration - 1), Ev::TransferDone(ch));
            }
        }
    }

    fn land_transfer(&mut self, ch: usize, t: u64) {
        let (transfer, until) = self.bus[ch].take().expect("transfer event on an empty channel");
        debug_assert_eq!(until, t);
        match transfer {
            Transfer::Return { token } => {
                debug_assert_eq!(self.phase[token.proc], WAITING);
                self.stats.record_return(t, token.proc, token.issued);
                self.phase[token.proc] = THINKING;
                match self.sample_ready(token.proc, t + 1) {
                    Some(next) => self.queue.schedule(begin(next), Ev::ProcReady(token.proc)),
                    None => self.mark_dormant(token.proc, t + 1),
                }
            }
            Transfer::Request { token, module } => {
                self.inflight[module] -= 1;
                if !self.svc_busy[module] {
                    debug_assert!(self.inputs.is_empty(module), "idle module with queued input");
                    self.start_service(module, token, t);
                } else {
                    debug_assert!(
                        self.depth > 0 && self.inputs.len(module) < self.depth,
                        "input buffer overrun"
                    );
                    self.inputs.push_back(module, token);
                    self.stats.set_input_occupancy(module, t + 1, self.inputs.len(module));
                }
            }
        }
    }

    /// Completes module `j`'s service if it is due and its output has
    /// room; stale events (already-completed or not-yet-due rechecks)
    /// are ignored.
    fn complete_service(&mut self, j: usize, t: u64) {
        if !self.svc_busy[j] {
            return;
        }
        let done = self.svc_done[j];
        if done > t {
            return; // not due yet
        }
        if self.outputs.len(j) >= self.outputs.capacity {
            // (Still) blocked on the output FIFO. Count only the first
            // due event — rechecks fire after the output drained.
            if done == t {
                self.stats.record_blocked_completion(t);
            }
            return;
        }
        if self.outputs.is_empty(j) {
            self.out_nonempty.insert(j);
            self.out_count += 1;
        }
        self.outputs.push_back(j, self.svc_token[j]);
        self.stats.set_output_occupancy(j, t + 1, self.outputs.len(j));
        self.svc_busy[j] = false;
        if !self.inputs.is_empty(j) {
            let token = self.inputs.pop_front(j);
            self.stats.set_input_occupancy(j, t + 1, self.inputs.len(j));
            self.start_service(j, token, t);
        }
    }

    /// Starts serving `token` on module `j` at end of cycle `t`: the
    /// module is busy for cycles `t+1 ..= done`.
    fn start_service(&mut self, j: usize, token: Token, t: u64) {
        let duration = u64::from(self.memory_service.sample(&mut self.module_rngs[j]));
        let done = t + duration;
        self.stats.add_module_busy_span_at(j, t + 1, done + 1);
        self.svc_busy[j] = true;
        self.svc_token[j] = token;
        self.svc_done[j] = done;
        self.queue.schedule(end(done), Ev::ServiceDone(j));
    }

    /// Whether arbitration could grant anything right now. Every state
    /// change is an event, so when this is false after a cycle's
    /// events, no grant is possible before the next event fires.
    fn can_grant(&self) -> bool {
        if self.bus.iter().all(|c| c.is_some()) {
            return false;
        }
        if self.out_count > 0 {
            return true;
        }
        self.pending.iter().any(|i| self.can_accept(self.pend_module[i] as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::bus::{ArbitrationKind, EngineKind};

    fn builder(n: u32, m: u32, r: u32) -> BusSimBuilder {
        BusSimBuilder::new(SystemParams::new(n, m, r).unwrap())
            .engine(EngineKind::Event)
            .warmup_cycles(2_000)
            .measure_cycles(40_000)
    }

    #[test]
    fn single_processor_round_trip_exact() {
        // One processor never contends: EBW is exactly 1, waits are 0.
        for buffering in [Buffering::Unbuffered, Buffering::Buffered] {
            let report = builder(1, 4, 6).buffering(buffering).seed(11).run();
            assert!((report.ebw() - 1.0).abs() < 0.01, "{buffering:?}: ebw = {}", report.ebw());
            assert_eq!(report.wait.mean(), 0.0);
            assert_eq!(report.round_trip.mean(), f64::from(6 + 2));
        }
    }

    #[test]
    fn golden_two_procs_one_module_unbuffered() {
        // Deterministic saturated pattern: one return every 4 cycles.
        let report = builder(2, 1, 2).warmup_cycles(40).measure_cycles(4_000).seed(3).run();
        assert_eq!(report.returns, 1_000, "one return every 4 cycles");
        assert!((report.ebw() - 1.0).abs() < 1e-12);
        assert!((report.bus_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn golden_two_procs_one_module_buffered_saturates() {
        let report = builder(2, 1, 2)
            .buffering(Buffering::Buffered)
            .warmup_cycles(40)
            .measure_cycles(4_000)
            .seed(3)
            .run();
        assert_eq!(report.returns, 2_000, "one return every 2 cycles");
        assert!((report.ebw() - 2.0).abs() < 1e-12);
        assert!((report.bus_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mmpp_run_is_deterministic_and_reports_windows() {
        use crate::params::Workload;
        let workload = Workload::on_off_burst(0.9, 0.02, 0.9, 500, Some((0.5, 0))).unwrap();
        let run = |seed| {
            builder(8, 8, 4)
                .workload(workload.clone())
                .window_cycles(500)
                .warmup_cycles(1_000)
                .measure_cycles(20_000)
                .seed(seed)
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
        // Both phases of the on/off chain must be visited in 40 dwells.
        assert!(windows.phase_cycles.iter().all(|&c| c > 0), "{:?}", windows.phase_cycles);
        assert_ne!(run(8).returns, a.returns);
    }

    #[test]
    fn deterministic_given_seed_and_sensitive_to_it() {
        let run = |seed| builder(8, 16, 8).buffering(Buffering::Buffered).seed(seed).run();
        let a = run(42);
        let b = run(42);
        assert_eq!(a.returns, b.returns);
        assert_eq!(a.bus_busy_channel_cycles, b.bus_busy_channel_cycles);
        assert_eq!(a.wait.mean(), b.wait.mean());
        assert_ne!(a.returns, run(43).returns);
    }

    #[test]
    fn low_p_load_is_bounded_by_offered_load() {
        let report =
            builder(8, 16, 8).memory_service(ServiceTime::Constant(8)).seed(21).run_with_p(0.3);
        assert!(report.ebw() <= 8.0 * 0.3 + 0.2, "ebw = {}", report.ebw());
        assert!(report.ebw() > 1.0, "ebw = {}", report.ebw());
    }

    #[test]
    fn all_arbitration_kinds_run_and_agree_on_capacity() {
        let ebw = |kind| builder(8, 8, 8).arbitration(kind).seed(13).run().ebw();
        let random = ebw(ArbitrationKind::Random);
        for kind in [ArbitrationKind::RoundRobin, ArbitrationKind::Lru, ArbitrationKind::Priority] {
            let other = ebw(kind);
            let rel = (random - other).abs() / random;
            assert!(rel < 0.05, "{kind:?}: {other} vs random {random}");
        }
    }

    #[test]
    fn priority_arbitration_starves_high_indices() {
        let report = builder(8, 8, 8).arbitration(ArbitrationKind::Priority).seed(17).run();
        let per = &report.per_processor_returns;
        assert!(per[0] > per[7], "priority should favor processor 0: {per:?}");
        assert!(report.fairness_index() < 0.999);
    }

    impl BusSimBuilder {
        /// Test helper: rebuild with request probability `p` and run.
        fn run_with_p(self, p: f64) -> SimReport {
            let params = self.params.with_request_probability(p).unwrap();
            BusSimBuilder { params, ..self }.run()
        }
    }
}
