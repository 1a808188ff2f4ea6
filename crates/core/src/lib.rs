//! The multiplexed single-bus multiprocessor network of Llaberia,
//! Valero, Herrada & Labarta (ISCA 1985), reproduced in full.
//!
//! A system of `n` processors and `m` memory modules shares one
//! time-multiplexed bus: a bus cycle carries either a processor→memory
//! *request* or a memory→processor *return*; a memory access takes `r`
//! bus cycles, so a conflict-free round trip lasts one *processor cycle*
//! `(r+2)` bus cycles. The figure of merit is the effective bandwidth
//! `EBW`: memory requests serviced per processor cycle, at most
//! `(r+2)/2`.
//!
//! The crate provides every evaluation vehicle the paper uses:
//!
//! * [`sim`] — cycle-accurate simulators: the single bus (both
//!   arbitration priorities, with and without memory-module buffering,
//!   request probability `p ≤ 1`, deterministic or geometric service) and
//!   a synchronous crossbar baseline.
//! * [`analytic`] — the §3.1.1 exact occupancy Markov chain (priority to
//!   memories), the §3.2 combinational approximation, the §4 reduced
//!   `(i,c,e,b)` chain (priority to processors), crossbar and
//!   multiple-bus baselines, and the §6 product-form (exponential)
//!   model.
//! * [`params`] / [`metrics`] — validated system parameters and the
//!   derived performance measures of §2 (bus utilization, memory
//!   utilization, processor efficiency, waiting time).
//! * [`scenario`] — the unified scenario engine: a [`Scenario`] names an
//!   operating point once, every vehicle above implements the same
//!   [`Evaluator`] trait, and [`scenario::run_sweep`] fans
//!   [`ScenarioGrid`] cartesian sweeps out across evaluators, serially
//!   or in parallel.
//! * [`serve`] — the batch-serving front end: a JSON-lines request
//!   protocol plus a broker that dedupes, coalesces, and supervises
//!   scenario evaluations for the `busnet serve` daemon.
//!
//! # Example
//!
//! Table 1's corner cell — exact EBW of a 2×2 system with `r = 9`,
//! priority to memories:
//!
//! ```
//! use busnet_core::analytic::exact_chain::ExactChain;
//! use busnet_core::params::SystemParams;
//!
//! let params = SystemParams::new(2, 2, 9)?;
//! let ebw = ExactChain::new(params).ebw()?;
//! assert!((ebw - 1.417).abs() < 5e-4); // the paper prints 1.417
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod cache;
pub mod json;
pub mod metrics;
pub mod params;
pub mod scenario;
pub mod serve;
pub mod sim;

mod error;

pub use error::CoreError;
pub use metrics::Metrics;
pub use params::{Buffering, BusPolicy, SystemParams};
pub use scenario::{Evaluation, Evaluator, Scenario, ScenarioGrid};
