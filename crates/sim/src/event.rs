//! Discrete-event kernel: a monotonic event clock and a bucketed
//! timing-wheel queue with deterministic FIFO tie-breaking.
//!
//! The cycle-stepped simulators pay for every bus cycle even when
//! nothing happens; the event kernel makes *time-to-next-event* the
//! unit of work instead. Events are `(time, payload)` pairs; among
//! events scheduled for the same time, delivery is in scheduling order
//! (FIFO), so a run is a pure function of its inputs — no hidden
//! dependence on queue internals.
//!
//! # The timing wheel
//!
//! [`EventQueue`] is a bucketed calendar queue tuned for the bounded
//! scheduling horizons of the engines here (an event lands at most a
//! few service times ahead of the clock):
//!
//! * events whose time falls inside the current *wheel window* of
//!   [`WHEEL_SLOTS`] ticks go into the bucket `time mod WHEEL_SLOTS` —
//!   O(1), no comparisons;
//! * buckets are intrusive FIFO lists threaded through a slab of
//!   reusable slots (a free-list), so steady-state operation allocates
//!   nothing per event;
//! * a two-level occupancy bitmap (one bit per bucket, one summary bit
//!   per 64 buckets) finds the next non-empty bucket in a handful of
//!   word operations;
//! * the rare event beyond the window parks in an overflow list (kept
//!   in scheduling order) and is re-binned when the window advances,
//!   preserving FIFO order among same-time events.
//!
//! Schedule and pop are therefore O(1) amortized, against the O(log n)
//! compare-and-swap churn of a binary heap. The previous heap survives
//! as [`HeapEventQueue`] — the independently-simple reference model the
//! differential tests pin the wheel against.
//!
//! The queue tracks a monotonic `now`: popping advances it, and
//! scheduling into the past is rejected. Model code that needs
//! several phases within one logical cycle (e.g. "begin of cycle"
//! arrivals vs "end of cycle" completions) encodes the phase into the
//! time key.
//!
//! # Example
//!
//! ```
//! use busnet_sim::event::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.schedule(5, "late");
//! q.schedule(2, "first");
//! q.schedule(2, "second"); // same time: FIFO
//! assert_eq!(q.pop(), Some((2, "first")));
//! assert_eq!(q.pop(), Some((2, "second")));
//! assert_eq!(q.now(), 2);
//! assert_eq!(q.pop(), Some((5, "late")));
//! assert_eq!(q.pop(), None);
//! ```

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::RngCore;

/// Which simulation engine advances the model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Cycle-stepped: one `step()` per bus cycle, the paper's original
    /// formulation. Cost grows with the cycle count even when almost
    /// every cycle is idle.
    #[default]
    Cycle,
    /// Event-driven: think timers, service completions, and bus
    /// transfers are scheduled events; idle cycles cost nothing.
    /// Statistically equivalent to `Cycle` (same dynamics, independent
    /// RNG streams).
    Event,
}

impl EngineKind {
    /// Every engine kind, in presentation order.
    pub const ALL: [EngineKind; 2] = [EngineKind::Cycle, EngineKind::Event];

    /// Stable textual id (`cycle` / `event`).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Cycle => "cycle",
            EngineKind::Event => "event",
        }
    }

    /// Parses a textual id.
    pub fn from_name(name: &str) -> Option<EngineKind> {
        EngineKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Maps a failure count to the success cycle `from + k·stride`, or
/// `None` when it overflows or falls at/beyond `horizon`.
#[inline]
fn success_at(k: u64, from: u64, stride: u64, horizon: u64) -> Option<u64> {
    let ready = k.checked_mul(stride).and_then(|d| from.checked_add(d))?;
    (ready < horizon).then_some(ready)
}

/// A constant-time geometric sampler: a Walker **alias table** over the
/// first [`GeometricAlias::CELLS`] failure counts plus a memoryless
/// tail-escape outcome, so one `next_u64` draw plus two table loads
/// replaces an inverse-CDF logarithm (`k = ⌊ln u / ln(1−p)⌋`) on the
/// engines' think-timer hot path (the `ln` was the single largest
/// per-request cost left in the event engines).
///
/// The cell index and the acceptance fraction come from disjoint bits
/// of one 64-bit draw; the escape outcome (mass `(1−p)^(CELLS−1)`)
/// adds `CELLS − 1` failures and redraws — geometric distributions are
/// memoryless, so the recursion is exact. The table is built from the
/// `(1−p)^k·p` masses an inverse-CDF draw realizes, so the alias draw
/// has the same distribution up to `f64` rounding (a different
/// uniform→count map), which the distribution tests pin.
///
/// # Example
///
/// ```
/// use busnet_sim::event::GeometricAlias;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let sampler = GeometricAlias::new(0.25);
/// let mut rng = SmallRng::seed_from_u64(9);
/// let mean = (0..40_000).map(|_| sampler.failures(&mut rng) as f64).sum::<f64>() / 40_000.0;
/// assert!((mean - 3.0).abs() < 0.1); // E[failures] = (1-p)/p = 3
/// ```
#[derive(Clone, Debug)]
pub struct GeometricAlias {
    p: f64,
    /// Per-cell acceptance probability (compared against a 53-bit
    /// uniform fraction).
    prob: Vec<f64>,
    /// Per-cell alternative outcome.
    alias: Vec<u16>,
}

impl GeometricAlias {
    /// Alias cells: outcomes `0..CELLS-1` are literal failure counts,
    /// outcome `CELLS-1` is the tail escape (add `CELLS-1` and redraw).
    /// 128 puts the escape mass at `(1−p)^127` — negligible for any
    /// practical request probability.
    pub const CELLS: usize = 128;

    /// Builds the table for success probability `p` (`p ≥ 1` succeeds
    /// immediately and consumes no randomness).
    pub fn new(p: f64) -> Self {
        let n = Self::CELLS;
        if p >= 1.0 {
            return GeometricAlias { p, prob: vec![1.0; n], alias: (0..n as u16).collect() };
        }
        let q = 1.0 - p;
        // Outcome masses: w[k] = q^k·p for k < n-1; w[n-1] = q^(n-1)
        // (the whole tail, escape).
        let mut scaled: Vec<f64> = Vec::with_capacity(n);
        let mut qk = 1.0;
        for _ in 0..n - 1 {
            scaled.push(qk * p * n as f64);
            qk *= q;
        }
        scaled.push(qk * n as f64);
        // Walker's method: pair each under-full cell with an over-full
        // donor.
        let mut prob = vec![1.0; n];
        let mut alias: Vec<u16> = (0..n as u16).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s] = scaled[s];
            alias[s] = l as u16;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers (rounding): saturate to certain acceptance.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        GeometricAlias { p, prob, alias }
    }

    /// The success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Number of failed Bernoulli(`p`) flips before the first success:
    /// one `next_u64` per draw (plus one per rare tail escape).
    /// `p ≥ 1` returns 0 without consuming randomness.
    #[inline]
    pub fn failures<R: RngCore>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 0;
        }
        let escape = (Self::CELLS - 1) as u64;
        let mut base = 0u64;
        loop {
            let r = rng.next_u64();
            let cell = (r & (Self::CELLS as u64 - 1)) as usize;
            let frac = (r >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let k = if frac < self.prob[cell] { cell as u64 } else { u64::from(self.alias[cell]) };
            if k != escape {
                return base + k;
            }
            // Tail: geometric memorylessness — add the escaped span
            // and redraw.
            base += escape;
        }
    }

    /// The first cycle at or after `from` at which the Bernoulli(`p`)
    /// coin, flipped once every `stride` cycles, succeeds; `None` when
    /// the success falls at or beyond `horizon` (or would overflow).
    #[inline]
    pub fn next_success<R: RngCore>(
        &self,
        rng: &mut R,
        from: u64,
        stride: u64,
        horizon: u64,
    ) -> Option<u64> {
        if self.p >= 1.0 {
            return (from < horizon).then_some(from);
        }
        success_at(self.failures(rng), from, stride, horizon)
    }
}

/// A constant-time categorical sampler over an arbitrary finite
/// distribution: the same Walker **alias table** machinery as
/// [`GeometricAlias`], over explicit outcome weights instead of the
/// geometric masses. One `next_u64` draw picks a cell (Lemire
/// reduction of the high 32 bits) and an acceptance fraction (the low
/// 32 bits — disjoint, so the two are independent); the draw costs the
/// same whether the distribution is uniform or arbitrarily skewed,
/// which is what keeps non-uniform workload sampling off the hot-path
/// profile.
///
/// # Example
///
/// ```
/// use busnet_sim::event::CategoricalAlias;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// // A 4-outcome hot-spot distribution concentrated on outcome 0.
/// let sampler = CategoricalAlias::new(&[0.7, 0.1, 0.1, 0.1]).unwrap();
/// let mut rng = SmallRng::seed_from_u64(3);
/// let hot = (0..20_000).filter(|_| sampler.sample(&mut rng) == 0).count();
/// assert!((hot as f64 / 20_000.0 - 0.7).abs() < 0.02);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CategoricalAlias {
    /// Per-cell acceptance probability (compared against a 32-bit
    /// uniform fraction).
    prob: Vec<f64>,
    /// Per-cell alternative outcome.
    alias: Vec<u32>,
}

impl CategoricalAlias {
    /// Builds the table from outcome weights (not necessarily
    /// normalized). Returns `None` when the weights cannot form a
    /// distribution: empty, any weight negative/non-finite, or zero
    /// total mass — callers that validate user input should reject
    /// those cases with their own typed error *before* reaching the
    /// sampler.
    pub fn new(weights: &[f64]) -> Option<Self> {
        let n = weights.len();
        if n == 0 || weights.iter().any(|&w| !w.is_finite() || w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if !(total.is_finite() && total > 0.0) {
            return None;
        }
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w / total * n as f64).collect();
        let mut prob = vec![1.0; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s] = scaled[s];
            alias[s] = l as u32;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        Some(CategoricalAlias { prob, alias })
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is degenerate (never: construction rejects
    /// empty weights), kept for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// The probability mass the table realizes for each outcome
    /// (reconstructed from the cell structure; sums to 1). Test and
    /// telemetry support — the hot path never calls this.
    pub fn masses(&self) -> Vec<f64> {
        let n = self.prob.len();
        let mut mass = vec![0.0; n];
        for c in 0..n {
            mass[c] += self.prob[c] / n as f64;
            mass[self.alias[c] as usize] += (1.0 - self.prob[c]) / n as f64;
        }
        mass
    }

    /// Draws one outcome index: a single `next_u64` plus two table
    /// loads, independent of the distribution's shape.
    #[inline]
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> usize {
        let r = rng.next_u64();
        // Lemire reduction of the high 32 bits → cell; low 32 bits →
        // acceptance fraction. Disjoint bits, so cell and fraction are
        // independent.
        let cell = (((r >> 32) * self.prob.len() as u64) >> 32) as usize;
        let frac = (r & 0xFFFF_FFFF) as f64 * (1.0 / 4_294_967_296.0);
        if frac < self.prob[cell] {
            cell
        } else {
            self.alias[cell] as usize
        }
    }
}

/// Number of buckets in the timing wheel: events within this many ticks
/// of the window base take the O(1) bucketed path; farther events park
/// in the overflow list until the window advances. 4096 covers the
/// engines' typical horizons (a few service times, in 2-phase keys)
/// with room to spare.
pub const WHEEL_SLOTS: usize = 4096;

const WHEEL_MASK: u64 = (WHEEL_SLOTS as u64) - 1;
const WORDS: usize = WHEEL_SLOTS / 64;
/// Slab/bucket list terminator.
const NIL: u32 = u32::MAX;

/// One slab slot: an event threaded into its bucket's FIFO list, or a
/// member of the free-list (`event == None`).
#[derive(Debug)]
struct Slot<E> {
    time: u64,
    next: u32,
    event: Option<E>,
}

#[derive(Clone, Copy, Debug)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket { head: NIL, tail: NIL };
}

/// A timing-wheel event queue with a monotonic clock and FIFO
/// tie-breaking: O(1) amortized schedule and pop for the bounded
/// horizons the event engines use. See the module docs for the design;
/// [`HeapEventQueue`] is the reference model it is differentially
/// tested against.
pub struct EventQueue<E> {
    /// Slab of event slots; buckets and the free-list thread through it
    /// by index, so steady-state scheduling allocates nothing.
    slots: Vec<Slot<E>>,
    free: u32,
    buckets: Box<[Bucket; WHEEL_SLOTS]>,
    /// One occupancy bit per bucket.
    occupied: [u64; WORDS],
    /// One summary bit per `occupied` word.
    summary: u64,
    /// The wheel window is `[base, base + WHEEL_SLOTS)`; `base` is a
    /// multiple of `WHEEL_SLOTS`, so a bucket index is just
    /// `time & WHEEL_MASK` regardless of the window.
    base: u64,
    /// Events at or beyond the window end, in scheduling order.
    overflow: Vec<(u64, E)>,
    /// Reused buffer for window-advance re-binning (keeps both
    /// overflow buffers' capacity across advances).
    overflow_scratch: Vec<(u64, E)>,
    /// Pending-event count (wheel + overflow).
    len: usize,
    now: u64,
    /// Memoized earliest pending time; `None` = unknown (recompute).
    next_cache: Cell<Option<u64>>,
    cache_valid: Cell<bool>,
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// An empty queue at time 0 with slab room for `capacity` pending
    /// events (engines pass their known event population — one per
    /// processor, module, and channel — to avoid slab growth on the
    /// hot path).
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            slots: Vec::with_capacity(capacity),
            free: NIL,
            buckets: Box::new([Bucket::EMPTY; WHEEL_SLOTS]),
            occupied: [0; WORDS],
            summary: 0,
            base: 0,
            overflow: Vec::new(),
            overflow_scratch: Vec::new(),
            len: 0,
            now: 0,
            next_cache: Cell::new(None),
            cache_valid: Cell::new(true),
        }
    }

    /// The time of the most recently popped event (0 before any pop).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn window_end(&self) -> u64 {
        self.base + WHEEL_SLOTS as u64
    }

    #[inline]
    fn mark(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.summary |= 1 << (idx / 64);
    }

    #[inline]
    fn unmark(&mut self, idx: usize) {
        let word = idx / 64;
        self.occupied[word] &= !(1 << (idx % 64));
        if self.occupied[word] == 0 {
            self.summary &= !(1 << word);
        }
    }

    /// First occupied bucket index at or after `from` (within the
    /// array; the window never wraps because `base` is aligned).
    #[inline]
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let word = from / 64;
        let masked = self.occupied[word] & (!0u64 << (from % 64));
        if masked != 0 {
            return Some(word * 64 + masked.trailing_zeros() as usize);
        }
        // Later words via the summary bitmap (one bit per word).
        if word + 1 >= WORDS {
            return None;
        }
        let higher = self.summary & (!0u64 << (word + 1));
        if higher == 0 {
            return None;
        }
        let w = higher.trailing_zeros() as usize;
        Some(w * 64 + self.occupied[w].trailing_zeros() as usize)
    }

    /// Allocates a slab slot for `(time, event)`.
    fn alloc(&mut self, time: u64, event: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.slots[idx as usize];
            self.free = slot.next;
            slot.time = time;
            slot.next = NIL;
            slot.event = Some(event);
            idx
        } else {
            let idx = self.slots.len() as u32;
            assert!(idx != NIL, "event queue slab exhausted");
            self.slots.push(Slot { time, next: NIL, event: Some(event) });
            idx
        }
    }

    /// Appends slab slot `idx` (already carrying its time) to the
    /// bucket for `time`, which must lie inside the current window.
    fn push_bucket(&mut self, time: u64, idx: u32) {
        debug_assert!(time >= self.base && time < self.window_end());
        let b = (time & WHEEL_MASK) as usize;
        let bucket = &mut self.buckets[b];
        if bucket.tail == NIL {
            bucket.head = idx;
            bucket.tail = idx;
            self.mark(b);
        } else {
            let tail = bucket.tail;
            self.slots[tail as usize].next = idx;
            bucket.tail = idx;
        }
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` lies in the past (`time < now()`): the clock is
    /// monotonic.
    pub fn schedule(&mut self, time: u64, event: E) {
        assert!(time >= self.now, "event scheduled in the past: {time} < {}", self.now);
        if time < self.window_end() {
            let idx = self.alloc(time, event);
            self.push_bucket(time, idx);
        } else {
            self.overflow.push((time, event));
        }
        self.len += 1;
        if self.cache_valid.get() {
            match self.next_cache.get() {
                Some(next) if next <= time => {}
                _ => self.next_cache.set(Some(time)),
            }
        }
    }

    /// Advances the window until the earliest pending event is
    /// bucketed. Caller guarantees the wheel is currently empty and the
    /// overflow is not.
    fn advance_window(&mut self) {
        debug_assert_eq!(self.summary, 0);
        debug_assert!(!self.overflow.is_empty());
        let min = self.overflow.iter().map(|&(t, _)| t).min().expect("overflow non-empty");
        self.base = min & !WHEEL_MASK;
        let end = self.window_end();
        // Re-bin in scheduling order: `overflow` is in push order, and
        // same-time events are never split between wheel and overflow,
        // so appending preserves FIFO delivery. The two buffers swap
        // roles so neither reallocates across advances.
        let mut scratch = std::mem::take(&mut self.overflow_scratch);
        std::mem::swap(&mut self.overflow, &mut scratch);
        self.overflow.clear();
        for (time, event) in scratch.drain(..) {
            if time < end {
                let idx = self.alloc(time, event);
                self.push_bucket(time, idx);
            } else {
                self.overflow.push((time, event));
            }
        }
        self.overflow_scratch = scratch;
    }

    /// The time of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<u64> {
        if self.cache_valid.get() {
            return self.next_cache.get();
        }
        self.peek_time_slow()
    }

    fn peek_time_slow(&self) -> Option<u64> {
        let from = self.now.max(self.base);
        // A bucketed time is `base + index` exactly: the window is
        // aligned, so no slab load is needed to recover it.
        let wheel_next = if from < self.window_end() {
            self.next_occupied((from & WHEEL_MASK) as usize).map(|b| self.base + b as u64)
        } else {
            None
        };
        let next = match wheel_next {
            Some(t) => Some(t),
            None => self.overflow.iter().map(|&(t, _)| t).min(),
        };
        self.next_cache.set(next);
        self.cache_valid.set(true);
        next
    }

    /// Pops the earliest event (FIFO among ties), advancing the clock.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let time = self.peek_time()?;
        if time >= self.window_end() {
            // Earliest event lives in the overflow: the wheel is empty
            // (all bucketed times precede the window end), so jump the
            // window to it.
            self.advance_window();
        }
        let b = (time & WHEEL_MASK) as usize;
        let bucket = &mut self.buckets[b];
        debug_assert!(bucket.head != NIL, "peeked time must be bucketed");
        let idx = bucket.head;
        let slot = &mut self.slots[idx as usize];
        debug_assert_eq!(slot.time, time);
        let event = slot.event.take().expect("bucketed slot holds an event");
        bucket.head = slot.next;
        if bucket.head == NIL {
            bucket.tail = NIL;
            self.unmark(b);
            self.cache_valid.set(false);
        }
        // A bucket holds one distinct time (all pending wheel times lie
        // in one aligned window), so a non-empty bucket leaves the
        // cached next time valid.
        let slot = &mut self.slots[idx as usize];
        slot.next = self.free;
        self.free = idx;
        self.len -= 1;
        debug_assert!(time >= self.now);
        self.now = time;
        Some((time, event))
    }

    /// Pops the earliest event only if it is scheduled exactly at
    /// `time`; the idiom for draining one phase of one cycle:
    ///
    /// ```
    /// # use busnet_sim::event::EventQueue;
    /// # let mut q = EventQueue::new();
    /// # q.schedule(3, ());
    /// while let Some(event) = q.pop_at(3) {
    ///     // handle every event of cycle 3
    ///     # let _ = event;
    /// }
    /// ```
    #[inline]
    pub fn pop_at(&mut self, time: u64) -> Option<E> {
        if self.peek_time() == Some(time) {
            self.pop().map(|(_, e)| e)
        } else {
            None
        }
    }

    /// Drains **every** event scheduled exactly at `time` (the earliest
    /// pending time) into `out`, in FIFO order, advancing the clock.
    /// Returns the number drained (0 when the earliest event is not at
    /// `time`). Equivalent to exhausting [`EventQueue::pop_at`], but
    /// locates the bucket once and walks its list in one pass — the
    /// engines' phase-drain fast path. Events scheduled at `time`
    /// *after* this call are not included (the engines never schedule
    /// into a phase while draining it).
    pub fn drain_at(&mut self, time: u64, out: &mut Vec<E>) -> usize {
        if self.peek_time() != Some(time) {
            return 0;
        }
        if time >= self.window_end() {
            self.advance_window();
        }
        let b = (time & WHEEL_MASK) as usize;
        let bucket = &mut self.buckets[b];
        debug_assert!(bucket.head != NIL, "peeked time must be bucketed");
        let mut idx = bucket.head;
        bucket.head = NIL;
        bucket.tail = NIL;
        let mut drained = 0usize;
        while idx != NIL {
            let slot = &mut self.slots[idx as usize];
            debug_assert_eq!(slot.time, time);
            out.push(slot.event.take().expect("bucketed slot holds an event"));
            let next = slot.next;
            slot.next = self.free;
            self.free = idx;
            idx = next;
            drained += 1;
        }
        self.unmark(b);
        self.cache_valid.set(false);
        self.len -= drained;
        debug_assert!(time >= self.now);
        self.now = time;
        drained
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// A scheduled event. Ordered by `(time, seq)` only — the payload does
/// not participate, so `E` needs no `Ord`.
struct Entry<E> {
    time: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) on top.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The binary-heap event queue the timing wheel replaced: kept as the
/// independently-simple **reference model** for differential tests.
/// Same API and the same documented
/// semantics as [`EventQueue`] — `(time, seq)` ordering with FIFO
/// tie-breaking and a monotonic clock — at O(log n) per operation with
/// a heap-allocated entry per event.
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: u64,
}

impl<E> HeapEventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        HeapEventQueue { heap: BinaryHeap::new(), seq: 0, now: 0 }
    }

    /// The time of the most recently popped event (0 before any pop).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` lies in the past (`time < now()`).
    pub fn schedule(&mut self, time: u64, event: E) {
        assert!(time >= self.now, "event scheduled in the past: {time} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest event (FIFO among ties), advancing the clock.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Pops the earliest event only if it is scheduled exactly at
    /// `time`.
    pub fn pop_at(&mut self, time: u64) -> Option<E> {
        if self.peek_time() == Some(time) {
            self.pop().map(|(_, e)| e)
        } else {
            None
        }
    }
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        HeapEventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn engine_kinds_roundtrip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EngineKind::from_name("warp"), None);
        assert_eq!(EngineKind::default(), EngineKind::Cycle);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(9, 'c');
        q.schedule(1, 'a');
        q.schedule(4, 'b');
        assert_eq!(q.pop(), Some((1, 'a')));
        assert_eq!(q.pop(), Some((4, 'b')));
        assert_eq!(q.pop(), Some((9, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(7, i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_is_monotonic() {
        let mut q = EventQueue::new();
        q.schedule(3, ());
        q.schedule(5, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 3);
        // Scheduling at the current time is allowed...
        q.schedule(3, ());
        assert_eq!(q.pop(), Some((3, ())));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_rejected() {
        let mut q = EventQueue::new();
        q.schedule(5, ());
        q.pop();
        q.schedule(4, ());
    }

    #[test]
    fn pop_at_drains_only_the_given_time() {
        let mut q = EventQueue::new();
        q.schedule(2, 'x');
        q.schedule(2, 'y');
        q.schedule(3, 'z');
        let mut drained = Vec::new();
        while let Some(e) = q.pop_at(2) {
            drained.push(e);
        }
        assert_eq!(drained, vec!['x', 'y']);
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.pop_at(99), None);
    }

    #[test]
    fn far_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        let far = 10 * WHEEL_SLOTS as u64 + 3;
        q.schedule(far, 'f');
        q.schedule(far, 'g'); // same far time: FIFO survives re-binning
        q.schedule(1, 'a');
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(1));
        assert_eq!(q.pop(), Some((1, 'a')));
        assert_eq!(q.pop(), Some((far, 'f')));
        assert_eq!(q.pop(), Some((far, 'g')));
        assert_eq!(q.pop(), None);
        // And near events scheduled after the window jumped still work.
        q.schedule(far + 1, 'h');
        assert_eq!(q.pop(), Some((far + 1, 'h')));
    }

    #[test]
    fn window_boundary_events_are_ordered() {
        // Times straddling the first window edge (one bucketed, one
        // overflowed) must still come out in time order.
        let mut q = EventQueue::new();
        let w = WHEEL_SLOTS as u64;
        q.schedule(w + 5, 'b'); // overflow
        q.schedule(w - 1, 'a'); // last bucket of the window
        q.schedule(w + 5, 'c'); // overflow, after 'b'
        assert_eq!(q.pop(), Some((w - 1, 'a')));
        assert_eq!(q.pop(), Some((w + 5, 'b')));
        assert_eq!(q.pop(), Some((w + 5, 'c')));
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..50u64 {
                q.schedule(round * 100 + i, i);
            }
            for _ in 0..50 {
                q.pop().unwrap();
            }
        }
        // 10 rounds of 50 events reuse the same 50 slots.
        assert!(q.slots.len() <= 50, "slab grew to {}", q.slots.len());
    }

    #[test]
    fn differential_against_heap_reference() {
        // Deterministic pseudo-random interleaving of schedules and
        // pops, including same-time bursts and far (overflow) times.
        let mut rng = SmallRng::seed_from_u64(0xD1FF);
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut clock = 0u64;
        for step in 0..20_000u32 {
            if step % 3 != 2 || wheel.is_empty() {
                let delta = match rng.gen_range(0u32..10) {
                    0 => 0,
                    1..=6 => rng.gen_range(0u64..64),
                    7 | 8 => rng.gen_range(0u64..2_000),
                    _ => rng.gen_range(0u64..40_000), // beyond the window
                };
                wheel.schedule(clock + delta, step);
                heap.schedule(clock + delta, step);
            } else {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "divergence at step {step}");
                if let Some((t, _)) = a {
                    clock = t;
                }
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peek_time(), heap.peek_time(), "peek divergence at step {step}");
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn alias_table_reconstructs_geometric_masses() {
        // P(outcome = k) recovered from the alias structure must match
        // q^k·p (and the escape cell the full tail mass) to rounding.
        for p in [0.05, 0.2, 0.5, 0.9] {
            let sampler = GeometricAlias::new(p);
            let n = GeometricAlias::CELLS;
            let mut mass = vec![0.0f64; n];
            for c in 0..n {
                mass[c] += sampler.prob[c] / n as f64;
                mass[usize::from(sampler.alias[c])] += (1.0 - sampler.prob[c]) / n as f64;
            }
            let q = 1.0 - p;
            let mut qk = 1.0;
            for (k, &m) in mass.iter().enumerate().take(n - 1) {
                assert!((m - qk * p).abs() < 1e-12, "p={p} k={k}: {m} vs {}", qk * p);
                qk *= q;
            }
            assert!((mass[n - 1] - qk).abs() < 1e-12, "p={p} tail: {} vs {qk}", mass[n - 1]);
        }
    }

    #[test]
    fn categorical_alias_reconstructs_masses() {
        // Cell structure must encode exactly the normalized weights.
        let weights = [3.0, 1.0, 0.0, 4.0, 2.0];
        let sampler = CategoricalAlias::new(&weights).unwrap();
        let total: f64 = weights.iter().sum();
        for (k, mass) in sampler.masses().iter().enumerate() {
            assert!((mass - weights[k] / total).abs() < 1e-12, "outcome {k}: {mass}");
        }
    }

    #[test]
    fn categorical_alias_rejects_degenerate_weights() {
        assert!(CategoricalAlias::new(&[]).is_none());
        assert!(CategoricalAlias::new(&[0.0, 0.0]).is_none());
        assert!(CategoricalAlias::new(&[1.0, -0.5]).is_none());
        assert!(CategoricalAlias::new(&[1.0, f64::NAN]).is_none());
        assert!(CategoricalAlias::new(&[1.0, f64::INFINITY]).is_none());
    }

    #[test]
    fn categorical_alias_sampling_matches_distribution() {
        // Empirical frequencies over a skewed 7-outcome distribution
        // (including a zero-mass outcome that must never be drawn).
        let weights = [5.0, 1.0, 0.5, 0.0, 2.0, 0.25, 1.25];
        let sampler = CategoricalAlias::new(&weights).unwrap();
        assert_eq!(sampler.len(), 7);
        let total: f64 = weights.iter().sum();
        let mut rng = SmallRng::seed_from_u64(11);
        let draws = 200_000;
        let mut counts = [0u64; 7];
        for _ in 0..draws {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[3], 0, "zero-mass outcome drawn");
        for (k, &c) in counts.iter().enumerate() {
            let expected = weights[k] / total;
            let observed = c as f64 / draws as f64;
            assert!(
                (observed - expected).abs() < 0.005,
                "outcome {k}: observed {observed} vs expected {expected}"
            );
        }
    }

    #[test]
    fn alias_sampler_distribution_matches_inverse_cdf() {
        // Alias draws realize the geometric law an inverse-CDF draw
        // would: compare the empirical mean and P(0) with the analytic
        // (1-p)/p and p over a large sample.
        let p = 0.18;
        let alias = GeometricAlias::new(p);
        let mut rng = SmallRng::seed_from_u64(21);
        let n = 200_000;
        let mut sum = 0u64;
        let mut zeros = 0u32;
        for _ in 0..n {
            let a = alias.failures(&mut rng);
            sum += a;
            zeros += u32::from(a == 0);
        }
        let mean = (1.0 - p) / p;
        assert!((sum as f64 / n as f64 - mean).abs() < 0.05, "alias mean");
        let f0 = f64::from(zeros) / n as f64;
        assert!((f0 - p).abs() < 0.005, "alias P(0) = {f0}");
    }

    #[test]
    fn alias_sampler_tail_and_edges() {
        // p = 1: immediate, no randomness.
        let mut rng = SmallRng::seed_from_u64(3);
        let one = GeometricAlias::new(1.0);
        assert_eq!(one.failures(&mut rng), 0);
        assert_eq!(one.next_success(&mut rng, 5, 10, 100), Some(5));
        assert_eq!(one.next_success(&mut rng, 100, 10, 100), None);
        // Tiny p: the tail escape fires routinely and counts keep the
        // geometric mean.
        let tiny = GeometricAlias::new(0.004);
        let n = 50_000;
        let mean = (0..n).map(|_| tiny.failures(&mut rng) as f64).sum::<f64>() / f64::from(n);
        let expect = (1.0 - 0.004) / 0.004;
        assert!((mean - expect).abs() / expect < 0.05, "tail mean {mean} vs {expect}");
        // Results honor the stride and the horizon.
        for _ in 0..1_000 {
            if let Some(t) = GeometricAlias::new(0.3).next_success(&mut rng, 7, 10, 200) {
                assert!((7..200).contains(&t) && (t - 7) % 10 == 0);
            }
        }
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, ());
        q.schedule(2, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
