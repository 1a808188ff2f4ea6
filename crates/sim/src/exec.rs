//! Deterministic serial/parallel fan-out of independent work items.
//!
//! Simulation workloads here are embarrassingly parallel (independent
//! replications, grid sweeps), and every item is a pure function of its
//! index and inputs. [`parallel_map`] exploits that: results are
//! returned **in item order** regardless of which worker computed them
//! or when, so a parallel run is bit-identical to a serial one — the
//! property the replication driver's determinism tests pin.
//!
//! # Work stealing
//!
//! Items are dealt out as contiguous per-worker ranges; a worker that
//! drains its own range **steals half of the largest remaining range**
//! (one compare-and-swap on the victim's packed `(lo, hi)` span). This
//! keeps all cores busy even when item costs are wildly uneven — the
//! situation a scenario sweep creates, where one saturated grid point
//! simulates 10× longer than an idle one — without any work-order
//! effect on results: an item's output depends only on its index.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;

/// Runs `f` under [`catch_unwind`], converting a panic into an `Err`
/// carrying the panic message (the conventional `&str`/`String`
/// payloads; anything else is reported opaquely). This is the isolation
/// primitive of the sweep supervisor: a panicking work unit becomes a
/// classifiable failure instead of tearing down the whole pool.
///
/// ```
/// use busnet_sim::exec::catch_panic;
///
/// assert_eq!(catch_panic(|| 2 + 2), Ok(4));
/// let err = catch_panic(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
/// assert_eq!(err, "boom 7");
/// ```
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// How a batch of independent items is executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// One item at a time on the calling thread.
    Serial,
    /// One worker per available CPU (`std::thread::available_parallelism`).
    #[default]
    Parallel,
    /// Exactly this many workers (clamped to at least 1).
    Threads(usize),
}

impl ExecutionMode {
    /// Number of worker threads this mode resolves to.
    pub fn threads(self) -> usize {
        match self {
            ExecutionMode::Serial => 1,
            ExecutionMode::Parallel => thread::available_parallelism().map_or(1, |n| n.get()),
            ExecutionMode::Threads(n) => n.max(1),
        }
    }
}

/// A shared deck of per-worker item ranges supporting lock-free local
/// pops and half-range steals. Each span packs `(lo, hi)` into one
/// `AtomicU64` (item counts are far below `u32::MAX`): the owner takes
/// from `lo`, thieves shrink `hi`.
struct StealDeck {
    spans: Vec<AtomicU64>,
}

fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

fn unpack(span: u64) -> (u32, u32) {
    ((span >> 32) as u32, span as u32)
}

impl StealDeck {
    /// Deals `items` out as `workers` contiguous balanced ranges.
    fn deal(items: usize, workers: usize) -> StealDeck {
        assert!(u32::try_from(items).is_ok(), "too many items for the steal deck");
        let chunk = items / workers;
        let extra = items % workers;
        let mut lo = 0u32;
        let spans = (0..workers)
            .map(|w| {
                let len = chunk + usize::from(w < extra);
                let hi = lo + len as u32;
                let span = AtomicU64::new(pack(lo, hi));
                lo = hi;
                span
            })
            .collect();
        StealDeck { spans }
    }

    /// Pops the next item of worker `w`'s own range.
    fn pop_own(&self, w: usize) -> Option<usize> {
        let span = &self.spans[w];
        let mut cur = span.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            match span.compare_exchange_weak(
                cur,
                pack(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo as usize),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Steals the upper half of the largest other range and installs it
    /// as worker `w`'s own (empty) range, returning the first stolen
    /// item. `None` when every visible range is empty.
    fn steal_into(&self, w: usize) -> Option<usize> {
        loop {
            let victim = self
                .spans
                .iter()
                .enumerate()
                .filter(|&(v, _)| v != w)
                .map(|(v, s)| {
                    let (lo, hi) = unpack(s.load(Ordering::Acquire));
                    (hi.saturating_sub(lo), v)
                })
                .max()
                .filter(|&(len, _)| len > 0)?
                .1;
            let span = &self.spans[victim];
            let cur = span.load(Ordering::Acquire);
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                continue; // drained between the scan and the read
            }
            let take = (hi - lo).div_ceil(2);
            let mid = hi - take;
            if span
                .compare_exchange(cur, pack(lo, mid), Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue; // raced another worker; rescan
            }
            // Claim [mid, hi): keep the first item, publish the rest as
            // our own range so other thieves can rebalance further.
            self.spans[w].store(pack(mid + 1, hi), Ordering::Release);
            return Some(mid as usize);
        }
    }

    /// Next item for worker `w`: own range first, then stealing.
    fn next(&self, w: usize) -> Option<usize> {
        self.pop_own(w).or_else(|| self.steal_into(w))
    }
}

/// Maps `f` over `items`, possibly in parallel, returning results in
/// item order. `f` must be deterministic in `(index, item)` for the
/// serial/parallel bit-identity guarantee to hold.
///
/// # Panics
///
/// A panic inside `f` is propagated to the caller once in-flight items
/// finish.
pub fn parallel_map<T, U, F>(items: &[T], mode: ExecutionMode, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let mut slots: Vec<Option<U>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    parallel_consume(items, mode, f, |i, u| slots[i] = Some(u));
    slots
        .into_iter()
        .map(|slot| slot.expect("worker panicked before delivering its item"))
        .collect()
}

/// Maps `f` over `items`, possibly in parallel, handing each result to
/// `consume` **by value** on the calling thread, once per item, in
/// **completion order** (which under parallel execution need not be
/// item order). Items are dealt out through the work-stealing deck.
///
/// # Panics
///
/// As [`parallel_map`].
pub fn parallel_consume<T, U, F, P>(items: &[T], mode: ExecutionMode, f: F, mut consume: P)
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
    P: FnMut(usize, U),
{
    let workers = mode.threads().min(items.len().max(1));
    if workers <= 1 {
        for (i, item) in items.iter().enumerate() {
            consume(i, f(i, item));
        }
        return;
    }
    let deck = StealDeck::deal(items.len(), workers);
    thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, U)>();
        for w in 0..workers {
            let tx = tx.clone();
            let deck = &deck;
            let f = &f;
            scope.spawn(move || {
                while let Some(i) = deck.next(w) {
                    if tx.send((i, f(i, &items[i]))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx); // the receive loop ends when the last worker exits
        for (i, u) in rx {
            consume(i, u);
        }
    });
}

/// A boxed unit of pool work.
type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// A persistent worker pool with a **bounded** job queue, shared by
/// every batch of a serve session.
///
/// The scoped fan-out of [`parallel_map`]/[`parallel_consume`] is the
/// right shape for one sweep; a long-running server instead needs one
/// set of threads that outlives any individual batch, plus an explicit
/// capacity so load beyond it surfaces as backpressure (the broker's
/// `overloaded` reply) instead of unbounded memory growth. Jobs run in
/// submission order per worker pickup; a panicking job is caught and
/// reported to stderr so one poisoned batch cannot kill a worker (and
/// with it, silently strand every queued job).
///
/// [`ExecPool::drain`] performs the graceful-shutdown half: it closes
/// the queue and joins every worker, returning only after all queued
/// and in-flight jobs have completed — which is exactly the guarantee
/// SIGTERM handling needs ("drain in-flight batches, then exit").
#[derive(Debug)]
pub struct ExecPool {
    jobs: Option<mpsc::SyncSender<PoolJob>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ExecPool {
    /// Spawns `threads` workers (at least one) over a queue holding at
    /// most `queue_depth` not-yet-started jobs.
    pub fn new(threads: usize, queue_depth: usize) -> ExecPool {
        let threads = threads.max(1);
        let (tx, rx) = mpsc::sync_channel::<PoolJob>(queue_depth.max(1));
        let rx = std::sync::Arc::new(std::sync::Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = std::sync::Arc::clone(&rx);
                thread::Builder::new()
                    .name(format!("busnet-pool-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while waiting, so
                        // idle workers queue on it and running workers
                        // do not serialize each other.
                        let job = {
                            let guard =
                                rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                            guard.recv()
                        };
                        match job {
                            Ok(job) => {
                                if let Err(message) = catch_panic(job) {
                                    eprintln!("# pool job panicked (caught): {message}");
                                }
                            }
                            Err(_) => break, // queue closed: drain complete
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ExecPool { jobs: Some(tx), workers }
    }

    /// Submits a job, blocking while the queue is full. Callers that
    /// need backpressure *without* blocking bound their own pending set
    /// before submitting (the broker's request queue does exactly
    /// that).
    ///
    /// # Panics
    ///
    /// If called after [`ExecPool::drain`] (the pool owns no queue
    /// then) — a caller bug by construction.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.jobs
            .as_ref()
            .expect("submit after drain")
            .send(Box::new(job))
            .expect("pool workers alive");
    }

    /// Closes the queue and joins every worker: returns once all
    /// queued and in-flight jobs have run.
    pub fn drain(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.jobs = None; // closing the channel ends each worker's recv loop
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_pool_runs_every_job_and_drains() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let pool = ExecPool::new(4, 8);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.drain();
        // drain() returning proves every queued job completed first.
        assert_eq!(done.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn exec_pool_survives_a_panicking_job() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let pool = ExecPool::new(1, 4);
        let done = Arc::new(AtomicUsize::new(0));
        pool.submit(|| panic!("poisoned batch"));
        // The single worker must survive the panic to run this one.
        let after = Arc::clone(&done);
        pool.submit(move || {
            after.fetch_add(1, Ordering::SeqCst);
        });
        pool.drain();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn modes_resolve_to_positive_thread_counts() {
        assert_eq!(ExecutionMode::Serial.threads(), 1);
        assert!(ExecutionMode::Parallel.threads() >= 1);
        assert_eq!(ExecutionMode::Threads(0).threads(), 1);
        assert_eq!(ExecutionMode::Threads(5).threads(), 5);
    }

    #[test]
    fn parallel_results_match_serial_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(i as u32);
        let serial = parallel_map(&items, ExecutionMode::Serial, f);
        let parallel = parallel_map(&items, ExecutionMode::Threads(8), f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_item_batches() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, ExecutionMode::Parallel, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], ExecutionMode::Parallel, |_, &x| x * 2), vec![14]);
    }

    #[test]
    fn progress_reports_every_item_exactly_once() {
        let items: Vec<u32> = (0..100).collect();
        for mode in [ExecutionMode::Serial, ExecutionMode::Threads(4)] {
            let mut seen = HashSet::new();
            parallel_consume(
                &items,
                mode,
                |_, &x| x + 1,
                |i, u| {
                    assert_eq!(u, items[i] + 1);
                    assert!(seen.insert(i), "item {i} consumed twice");
                },
            );
            assert_eq!(seen.len(), items.len(), "{mode:?}");
        }
    }

    #[test]
    fn work_is_actually_distributed() {
        // With more items than threads, every worker should pick up at
        // least one item (probabilistically certain with 4 threads and
        // blocking work; we only assert the batch completes and counts).
        let counter = AtomicU32::new(0);
        let items: Vec<u32> = (0..64).collect();
        parallel_map(&items, ExecutionMode::Threads(4), |_, _| {
            counter.fetch_add(1, Ordering::Relaxed)
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn steal_deck_covers_every_item_exactly_once() {
        // Drive the deck from one thread alternating workers, so every
        // pop path (own range, steal, drain) is exercised
        // deterministically.
        let deck = StealDeck::deal(103, 4);
        let mut seen = HashSet::new();
        let mut w = 0;
        while let Some(i) = deck.next(w) {
            assert!(seen.insert(i), "item {i} handed out twice");
            w = (w + 3) % 4;
        }
        assert_eq!(seen.len(), 103);
        for w in 0..4 {
            assert_eq!(deck.next(w), None);
        }
    }

    #[test]
    fn steal_deck_rebalances_under_contention() {
        // Hammer the deck from real threads with skewed per-item costs;
        // every item must be executed exactly once.
        let items: Vec<u64> = (0..500).collect();
        let hits: Vec<AtomicU32> = (0..items.len()).map(|_| AtomicU32::new(0)).collect();
        parallel_map(&items, ExecutionMode::Threads(8), |i, &x| {
            // Front-loaded cost: the first range is much slower, forcing
            // later workers to steal from it.
            let spin = if i < 60 { 20_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
            acc
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn work_stealing_results_bit_identical_across_thread_counts() {
        let items: Vec<u64> = (0..311).collect();
        let f = |i: usize, &x: &u64| {
            (x ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)).wrapping_mul(0x9E37_79B9)
        };
        let serial = parallel_map(&items, ExecutionMode::Serial, f);
        for threads in [2, 3, 4, 8] {
            let parallel = parallel_map(&items, ExecutionMode::Threads(threads), f);
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }
}
