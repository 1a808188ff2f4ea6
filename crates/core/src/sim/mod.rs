//! Simulators: cycle-accurate and event-driven.
//!
//! * [`bus`] — the multiplexed single-bus system of §2 (and its §6
//!   buffered variant): one bus cycle per step, explicit arbitration,
//!   per-module state machines. This is the engine behind Figs 2, 3, 5,
//!   6 and Tables 3a and 4.
//! * [`event_bus`] — the same single-bus process on the discrete-event
//!   kernel: think timers, service completions, and bus grants are
//!   scheduled events, so idle cycles cost nothing. Selected via the
//!   [`bus::EngineKind`] knob on [`bus::BusSimBuilder`]; the
//!   cycle-stepped path stays alive for differential validation.
//! * [`crossbar`] — the synchronous crossbar / multiple-bus baseline
//!   with one step per processor cycle (references 1 and 5), with the
//!   same arbitration knob; it runs cycle-stepped only.
//!
//! All three engines advance through one slicing loop
//! ([`bus::BusSimBuilder::run_budgeted`] and the crossbar evaluator),
//! which checks a unit budget between slices and feeds the adaptive
//! stopping rule between batches.
//! * [`service`] — service-time distributions: the paper's constant
//!   times, plus geometric (discrete exponential) variants for the §6
//!   product-form comparison.
//!
//! Replicated runs with confidence intervals go through the scenario
//! API: [`crate::scenario::BusSimEval`] evaluates one
//! [`crate::scenario::Scenario`] under a [`crate::scenario::SimBudget`].
//!
//! Arbitration (`bus::ArbitrationKind`, re-exported from
//! `busnet_core::params`) is pluggable across both network simulators:
//! uniform random (the paper's hypothesis *h*), round robin, LRU, and
//! fixed priority.

pub mod address;
pub mod bus;
pub mod crossbar;
pub mod event_bus;
pub mod service;
