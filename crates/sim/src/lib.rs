//! Discrete simulation kernel for the `busnet` reproduction.
//!
//! The ISCA'85 study is evaluated with synchronous, bus-cycle-granular
//! simulation; this crate supplies the domain-independent machinery for
//! both that cycle-stepped style and the event-driven engines layered
//! on top of it:
//!
//! * [`event`] — the discrete-event kernel: a monotonic event clock and
//!   a bucketed timing-wheel queue with deterministic FIFO
//!   tie-breaking (O(1) schedule/pop; the binary-heap reference model
//!   is kept as [`event::HeapEventQueue`] for differential testing),
//!   constant-time alias-table think-timer sampling
//!   ([`event::GeometricAlias`]), plus the [`event::EngineKind`] knob
//!   selecting cycle-stepped vs event-driven execution.
//! * [`bits`] — dense fixed-capacity bitsets for hot engine state
//!   (ascending-order iteration matching the arbitration candidate
//!   contract).
//! * [`arbiter`] — pluggable arbitration ([`arbiter::ArbitrationKind`]:
//!   uniform random, round robin, LRU, fixed priority) shared by the
//!   bus and crossbar simulators.
//! * [`counters`] — warmup-gated measurement bookkeeping shared by
//!   every network simulator (one warmup cutover, one accumulation
//!   path), including time-weighted queue-occupancy telemetry
//!   ([`counters::QueueOccupancy`]) for the depth-`k` buffering study.
//! * [`seeds`] — deterministic seed derivation (SplitMix64) so that every
//!   replication and every component gets an independent, reproducible
//!   stream.
//! * [`stats`] — running statistics (Welford), Jain fairness and
//!   Student-t confidence intervals.
//! * [`clock`] — a measurement window: warmup + measurement phases over a
//!   cycle counter.
//! * [`exec`] — deterministic work-stealing fan-out of independent
//!   work items (parallel results are bit-identical to serial), plus
//!   the persistent bounded [`exec::ExecPool`] shared by serve-mode
//!   batches.
//! * [`sink`] — a locked whole-line writer ([`sink::LineSink`]) so
//!   concurrent batch completions never interleave output rows.
//! * [`replication`] — summary statistics over independent
//!   replications (mean and Student-t confidence interval).
//! * [`batch`] — the sequential stopping rule over batch means
//!   ([`batch::SequentialStopping`]) behind adaptive-precision
//!   replication.
//! * [`histogram`] — fixed-width histograms for waiting-time
//!   distributions.
//!
//! # Example
//!
//! Estimate the mean of a noisy per-replication metric, one seed
//! stream per replication, fanned out in parallel (bit-identical to a
//! serial run):
//!
//! ```
//! use busnet_sim::exec::{parallel_map, ExecutionMode};
//! use busnet_sim::replication::ReplicationSummary;
//! use busnet_sim::seeds::SeedSequence;
//!
//! let seeds = SeedSequence::new(0xBEEF);
//! let streams: Vec<u64> = (0..8).map(|i| seeds.stream(i)).collect();
//! let values = parallel_map(&streams, ExecutionMode::Parallel, |_, &seed| {
//!     // A "simulation" that just hashes its seed into [0, 1).
//!     (seed % 1000) as f64 / 1000.0
//! });
//! let summary = ReplicationSummary::from_values(values);
//! assert_eq!(summary.replications(), 8);
//! assert!(summary.half_width_95() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod batch;
pub mod bits;
pub mod clock;
pub mod counters;
pub mod event;
pub mod exec;
pub mod fault;
pub mod histogram;
pub mod replication;
pub mod seeds;
pub mod sink;
pub mod stats;
