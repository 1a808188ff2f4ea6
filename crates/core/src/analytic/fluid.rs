//! Mean-field fluid (ODE) model of the multiplexed single bus.
//!
//! Every other vehicle in this crate costs at least O(events)
//! (simulators) or O(state space) (the exact chain, the PFQN solvers),
//! which caps the explorable system size at a few hundred processors.
//! This module takes the opposite limit: as `n → ∞` with the per-cycle
//! bus capacity held at one transfer, the stochastic system
//! concentrates on a deterministic fluid trajectory (a propagation-of-
//! chaos / mean-field limit in the spirit of the finite-buffer ODE
//! frameworks of arXiv 2411.03780 and arXiv 0710.4638). Solving the
//! ODEs to steady state costs microseconds *independent of `n`*, so an
//! `n = 10^6` scenario point is as cheap as an `n = 8` one.
//!
//! # State
//!
//! Processors and modules are grouped into *classes* (identical
//! parameters ⇒ identical fluid behaviour), so the state dimension
//! depends on the workload shape, never on `n` or `m`:
//!
//! * `U_d` — absolute mass of thinking processors per think class `d`
//!   (distinct think probabilities under [`Workload::Heterogeneous`],
//!   one class otherwise). Classes whose think time is negligible
//!   (`p ≈ 1`) are *direct*: returns re-issue immediately and the
//!   class carries no state.
//! * `w_c` — absolute mass of processors whose request has not yet won
//!   the request bus transfer, per module class `c` (hot/cold under
//!   [`Workload::HotSpot`], weight groups under
//!   [`Workload::Weighted`], one class otherwise).
//! * `u_R` — absolute mass of completed results waiting in output
//!   FIFOs for the return bus transfer (buffered systems).
//! * Per module class, the *queue-level chain*: occupancy fractions
//!   `π_ℓ` over module levels `ℓ ∈ 0..=C` where the level counts
//!   requests in the module including the one in service, and
//!   `C = min(k + 1, LEVEL_CAP)` clips the chain for very deep (or
//!   [`Buffering::Infinite`]) buffers. Unbuffered modules (`k = 0`)
//!   use a three-state chain instead — empty → serving → *holding*
//!   (the serviced result occupies the module until the return
//!   transfer wins the bus), which is exactly the paper's unbuffered
//!   module life cycle.
//!
//! # Dynamics
//!
//! Each bus cycle moves at most one transfer. With request-eligible
//! mass `e_c = min(w_c, m_c)·open_c` (at most one pending grant per
//! non-full module — the clip that keeps herded hot-spot waiters from
//! over-claiming the bus) and return-eligible mass `R`, the total
//! demand is `S = Σe_c + R`, the granted rate is `g = min(1, S)`, and
//! each eligible unit of mass is served at rate `η = g / S`. Requests
//! admitted to class `c` drive its birth–death chain at per-module
//! birth rate `λ_c = min(η·min(w_c, m_c)/m_c, 1)`; services complete
//! at rate `μ = 1/r̄`; completions feed `u_R` (or the holding state);
//! returns at rate `η` release processors back to thinking. The flux
//! balance conserves total mass `n` exactly, so RK4 preserves it to
//! round-off.
//!
//! # Steady state
//!
//! The integrator declares steady state from the *outputs*, not the
//! full state: chain derivatives below [`FluidOptions::chain_tolerance`]
//! and relative throughput drift below
//! [`FluidOptions::output_tolerance`] across a sampling window. (At
//! saturation the pools redistribute mass on an O(n) physical time
//! scale without moving the throughput — waiting for the full state
//! to freeze would take forever by design, not by accident.)
//!
//! Accuracy is that of a mean-field limit: exact round-trip timing at
//! light load, exact bus/module saturation ceilings, but no stochastic
//! queueing delay in between — the relative EBW gap versus simulation
//! shrinks roughly like 1/n (see `tests/fluid.rs`).

use crate::error::CoreError;
use crate::params::{Buffering, SystemParams, Workload};

/// Chain height cap: levels are tracked exactly up to
/// `min(k + 1, LEVEL_CAP)` and clipped beyond (deep buffers saturate
/// the tracked head of the distribution long before the cap matters).
pub const LEVEL_CAP: u32 = 256;

/// Maximum number of module classes a [`Workload::Weighted`] point is
/// bucketed into.
pub const MODULE_CLASS_CAP: usize = 256;

/// Maximum number of think classes a [`Workload::Heterogeneous`] point
/// is bucketed into.
pub const THINK_CLASS_CAP: usize = 64;

/// Think times below this (in bus cycles) make a think class *direct*:
/// its returns re-issue within the same derivative evaluation instead
/// of relaxing through an explicit thinking pool (which would force a
/// tiny RK4 step for no accuracy gain).
const DIRECT_THINK_THRESHOLD: f64 = 0.5;

/// Demand below this is treated as an idle bus (guards 0/0 in `g/S`).
const DEMAND_FLOOR: f64 = 1e-12;

/// Integration controls for [`FluidModel::solve`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FluidOptions {
    /// Steady-state threshold on the largest absolute chain
    /// derivative.
    pub chain_tolerance: f64,
    /// Steady-state threshold on the relative throughput drift across
    /// one sampling window.
    pub output_tolerance: f64,
    /// Sampling window for the throughput drift check, in bus cycles.
    pub window: f64,
    /// Hard cap on RK4 steps; exceeding it returns the best estimate
    /// with [`FluidSolution::converged`] `= false`.
    pub max_steps: u32,
}

impl Default for FluidOptions {
    fn default() -> Self {
        FluidOptions {
            chain_tolerance: 1e-7,
            output_tolerance: 1e-6,
            window: 50.0,
            max_steps: 200_000,
        }
    }
}

/// Hot-module view of a fluid solution (the skewed-workload analogue
/// of the simulators' empirical hot-module summary).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FluidHotModule {
    /// Index of the most-referenced module.
    pub module: usize,
    /// Its share of the reference stream.
    pub reference_share: f64,
    /// Its service utilization (fraction of time a request is in
    /// service).
    pub utilization: f64,
    /// Its mean input-FIFO length (0 when unbuffered).
    pub mean_input_queue: f64,
}

/// Steady-state outputs of one fluid solve.
#[derive(Clone, Debug, PartialEq)]
pub struct FluidSolution {
    /// Effective bandwidth `(r + 2) · X`.
    pub ebw: f64,
    /// Returns per bus cycle, `X`.
    pub throughput: f64,
    /// RK4 steps taken.
    pub steps: u32,
    /// Whether both steady-state criteria were met within
    /// [`FluidOptions::max_steps`].
    pub converged: bool,
    /// Largest absolute chain derivative at exit.
    pub residual: f64,
    /// Mean input-FIFO length over all modules (level above the
    /// in-service slot; 0 when unbuffered).
    pub mean_input_queue: f64,
    /// Mean output-FIFO length over all modules (`u_R / m`; for
    /// unbuffered systems the holding fraction).
    pub mean_output_queue: f64,
    /// Fraction of modules whose input FIFO is full (0 when
    /// unbuffered, clipped at [`LEVEL_CAP`] for very deep buffers).
    pub input_full_fraction: f64,
    /// Input-FIFO level distribution over `0..=min(k, LEVEL_CAP - 1)`
    /// (sums to 1).
    pub input_distribution: Vec<f64>,
    /// Mean module level (requests in module including in service).
    pub mean_module_level: f64,
    /// Mean module service utilization.
    pub module_utilization: f64,
    /// Thinking mass at exit (absolute processors).
    pub thinking_mass: f64,
    /// Mass waiting for the request transfer at exit.
    pub waiting_mass: f64,
    /// `|n − total accounted mass| / n` at exit (round-off plus any
    /// projection clipping; conservation is exact in the ODEs).
    pub conservation_error: f64,
    /// Hot-module summary for skewed reference workloads.
    pub hot: Option<FluidHotModule>,
}

#[derive(Clone, Copy, Debug)]
struct ModuleClass {
    /// Number of modules in the class, as mass.
    count: f64,
    /// The class's share of the reference stream (`Σ = 1`).
    share: f64,
    /// Whether this class holds the designated hot module.
    hot: bool,
}

#[derive(Clone, Copy, Debug)]
struct ThinkClass {
    /// Number of processors in the class, as mass.
    count: f64,
    /// Mean think time in bus cycles, `(r + 2)(1 − p)/p`.
    think: f64,
    /// `1 / think` for non-direct classes.
    rate: f64,
    /// Whether returns of this class re-issue immediately.
    direct: bool,
}

/// The assembled fluid model for one scenario point.
///
/// # Example
///
/// ```
/// use busnet_core::analytic::fluid::FluidModel;
/// use busnet_core::params::{Buffering, SystemParams, Workload};
///
/// let params = SystemParams::new(1_000_000, 1_000_000, 8)?;
/// let model =
///     FluidModel::new(params, Buffering::Depth(4), &Workload::Uniform, 8.0)?;
/// let solution = model.solve(&Default::default());
/// assert!(solution.converged);
/// // A million fully loaded processors saturate the bus: EBW → (r+2)/2.
/// assert!((solution.ebw - 5.0).abs() < 1e-3);
/// # Ok::<(), busnet_core::CoreError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FluidModel {
    n: f64,
    rc: f64,
    /// Service rate `1 / r̄`.
    mu: f64,
    /// Effective buffer depth `k` (clipped to [`LEVEL_CAP`]`- 1` for
    /// chain purposes; `0` = unbuffered three-state chain).
    depth: u32,
    /// Chain length per module class: `3` when unbuffered, else
    /// `C + 1` with `C = min(k + 1, LEVEL_CAP)`.
    chain_len: usize,
    modules: Vec<ModuleClass>,
    thinkers: Vec<ThinkClass>,
    /// Index of the designated hot module (skewed workloads).
    hot_module: Option<usize>,
    /// RK4 step, `0.25 / max(1, fastest rate)`.
    step: f64,
}

/// Scratch derivative products shared between the integrator and the
/// output extraction.
struct Flux {
    /// Return flux `η · R` = instantaneous throughput.
    returns: f64,
}

impl FluidModel {
    /// Builds the fluid model for one scenario point.
    ///
    /// `service_mean` is the mean memory service time `r̄` in bus
    /// cycles (the fluid limit only sees the mean).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when `service_mean` is not a
    /// finite positive number, or when the workload fails
    /// [`Workload::validate`] for `(n, m)`.
    pub fn new(
        params: SystemParams,
        buffering: Buffering,
        workload: &Workload,
        service_mean: f64,
    ) -> Result<FluidModel, CoreError> {
        if !(service_mean.is_finite() && service_mean > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "service mean",
                value: service_mean.to_string(),
                constraint: "finite and positive",
            });
        }
        buffering.validate()?;
        workload.validate(params.n(), params.m())?;

        let rc = f64::from(params.processor_cycle());
        let depth = buffering.effective_depth(params.n());
        let chain_len = if depth == 0 { 3 } else { (depth + 1).min(LEVEL_CAP) as usize + 1 };
        let (modules, hot_module) = module_classes(workload, params.m());
        let thinkers = think_classes(workload, params.n(), params.p(), rc);
        let mu = 1.0 / service_mean;
        let fastest =
            thinkers.iter().filter(|t| !t.direct).map(|t| t.rate).fold(1.0_f64.max(mu), f64::max);
        Ok(FluidModel {
            n: f64::from(params.n()),
            rc,
            mu,
            depth,
            chain_len,
            modules,
            thinkers,
            hot_module,
            step: 0.25 / fastest,
        })
    }

    /// State layout: `[U_d (non-direct) | w_c | u_R | chains…]`.
    fn dim(&self) -> usize {
        self.pool_len() + self.modules.len() * self.chain_len
    }

    fn pool_len(&self) -> usize {
        self.non_direct() + self.modules.len() + 1
    }

    fn non_direct(&self) -> usize {
        self.thinkers.iter().filter(|t| !t.direct).count()
    }

    fn chain_offset(&self, class: usize) -> usize {
        self.pool_len() + class * self.chain_len
    }

    fn u_r_index(&self) -> usize {
        self.non_direct() + self.modules.len()
    }

    /// Cold start: non-direct processors thinking, direct processors
    /// already waiting (spread by reference share), all modules empty.
    fn initial_state(&self) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        let mut slot = 0;
        let mut direct_mass = 0.0;
        for t in &self.thinkers {
            if t.direct {
                direct_mass += t.count;
            } else {
                y[slot] = t.count;
                slot += 1;
            }
        }
        for (c, class) in self.modules.iter().enumerate() {
            y[self.non_direct() + c] = direct_mass * class.share;
        }
        for c in 0..self.modules.len() {
            y[self.chain_offset(c)] = 1.0; // π_e or π_0
        }
        y
    }

    /// Builds a state near the fluid fixed point analytically.
    ///
    /// In saturated regimes the cold-start transient is *physically*
    /// `O(n)` bus cycles long — Θ(n) mass has to pump through a
    /// one-transfer-per-cycle bus before the pools reach their
    /// steady split — so integrating from the cold start would make
    /// solve time grow with `n`, defeating the point of the fluid
    /// limit. The fixed point itself is cheap: the stationary chains
    /// are truncated geometrics pinned by per-class flux balance
    /// (`A′_c = X·s_c`), the thinking masses follow from the routing
    /// shares, and one scalar bisection (on `X` below saturation, on
    /// `η` at the bus ceiling) closes total mass at `n`. RK4 then
    /// polishes the guess and the steady-state detector certifies it.
    fn equilibrium_state(&self) -> Option<Vec<f64>> {
        let r_bar = 1.0 / self.mu;
        let unbuffered = self.depth == 0;
        let top = self.chain_len - 1;

        // Per-module flux ceiling of each class (`λ ≤ 1`, `η ≤ 1`).
        let f_cap = if unbuffered {
            1.0 / (r_bar + 2.0)
        } else {
            self.mu * (1.0 - truncated_geometric(r_bar, self.chain_len)[0])
        };
        let mut x_hi = 0.5;
        let mut binding = None;
        for (c, class) in self.modules.iter().enumerate() {
            if class.share > 0.0 {
                let cap = f_cap * class.count / class.share;
                if cap < x_hi {
                    x_hi = cap;
                    binding = Some(c);
                }
            }
        }
        x_hi *= 1.0 - 1e-9;

        let assemble = |x: f64, eta: f64| self.assemble_equilibrium(x, eta, r_bar, top);

        let (mut state, mass) = match assemble(x_hi, 1.0) {
            Some((mass_hi, state_hi)) if mass_hi < self.n => {
                if binding.is_none() {
                    // Bus-bound: X is pinned at g/2; the return share η
                    // (and with it the w/u_R pool split) closes mass.
                    let (mut lo, mut hi) = (1e-12, 1.0);
                    let mut best = (mass_hi, state_hi);
                    for _ in 0..100 {
                        let eta = 0.5 * (lo + hi);
                        match assemble(x_hi, eta) {
                            // Infeasible (λ > η) or still too much mass:
                            // raise η (mass decreases with η).
                            None => lo = eta,
                            Some((mass, state)) => {
                                if mass > self.n {
                                    lo = eta;
                                } else {
                                    hi = eta;
                                }
                                best = (mass, state);
                            }
                        }
                    }
                    let (mass, state) = best;
                    (state, mass)
                } else {
                    (state_hi, mass_hi)
                }
            }
            _ => {
                // Unsaturated: bisect X on total mass (monotone).
                let (mut lo, mut hi) = (0.0, x_hi);
                let mut best = None;
                for _ in 0..100 {
                    let x = 0.5 * (lo + hi);
                    match assemble(x, 1.0) {
                        None => hi = x,
                        Some((mass, state)) => {
                            if mass > self.n {
                                hi = x;
                            } else {
                                lo = x;
                            }
                            best = Some((mass, state));
                        }
                    }
                }
                let (mass, state) = best?;
                (state, mass)
            }
        };

        // Park any unplaced mass in a waiting pool whose class is
        // request-capped (`min(w, m)` makes the excess inert there);
        // tiny bisection residue goes by reference share.
        let leftover = self.n - mass;
        if leftover > 0.0 {
            let sink = binding.unwrap_or_else(|| {
                (0..self.modules.len())
                    .max_by(|a, b| {
                        let key = |c: usize| state[self.non_direct() + c] / self.modules[c].count;
                        key(*a).total_cmp(&key(*b))
                    })
                    .unwrap_or(0)
            });
            state[self.non_direct() + sink] += leftover;
        } else {
            let nd = self.non_direct();
            let mut give_back = -leftover;
            for (c, class) in self.modules.iter().enumerate() {
                let take = (give_back * class.share).min(state[nd + c]);
                state[nd + c] -= take;
                give_back -= take;
            }
        }
        Some(state)
    }

    /// One candidate fixed point at throughput `x` and return-grant
    /// rate `eta`: `None` when infeasible (a class would need
    /// `λ > η`, or an unbuffered module has no idle fraction left).
    /// Returns the total mass it accounts for plus the packed state.
    #[allow(clippy::needless_range_loop)]
    fn assemble_equilibrium(
        &self,
        x: f64,
        eta: f64,
        r_bar: f64,
        top: usize,
    ) -> Option<(f64, Vec<f64>)> {
        let nd = self.non_direct();
        let unbuffered = self.depth == 0;
        let mut state = vec![0.0; self.dim()];

        // Thinking masses: the routing shares φ_d(s̄) must reproduce
        // themselves, which pins the mean sojourn s̄ by bisection on
        // H(s̄) = (n − U(s̄))/X − s̄ over the same clamp range the
        // vector field uses.
        let phi_at = |sojourn: f64| {
            let norm: f64 = self.thinkers.iter().map(|t| t.count / (t.think + sojourn)).sum();
            move |t: &ThinkClass| t.count / (t.think + sojourn) / norm
        };
        let thinking_at = |sojourn: f64| {
            let phi = phi_at(sojourn);
            self.thinkers.iter().map(|t| x * phi(t) * t.think).sum::<f64>()
        };
        let h_at = |sojourn: f64| (self.n - thinking_at(sojourn)) / x - sojourn;
        let mut sojourn = if h_at(1.0) <= 0.0 {
            1.0
        } else if h_at(1e12) >= 0.0 {
            1e12
        } else {
            let (mut lo, mut hi) = (1.0, 1e12);
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if h_at(mid) > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        if !sojourn.is_finite() {
            sojourn = 1.0;
        }
        let phi = phi_at(sojourn);
        let mut mass = 0.0;
        let mut slot = 0;
        for t in &self.thinkers {
            if !t.direct {
                state[slot] = x * phi(t) * t.think;
                mass += state[slot];
                slot += 1;
            }
        }

        // Per-class chains pinned by flux balance, waiting pools from
        // the grant rate.
        for (c, class) in self.modules.iter().enumerate() {
            let flux = x * class.share / class.count;
            let off = self.chain_offset(c);
            let (lambda, level) = if unbuffered {
                let serving = flux * r_bar;
                let holding = flux / eta;
                let empty = 1.0 - serving - holding;
                if empty <= 0.0 {
                    return None;
                }
                state[off] = empty;
                state[off + 1] = serving;
                state[off + 2] = holding;
                (flux / empty, serving + holding)
            } else {
                let busy_target = flux * r_bar;
                if busy_target >= 1.0 - truncated_geometric(r_bar, self.chain_len)[0] {
                    return None;
                }
                let (mut lo, mut hi) = (0.0, r_bar);
                for _ in 0..100 {
                    let rho = 0.5 * (lo + hi);
                    if 1.0 - truncated_geometric(rho, self.chain_len)[0] < busy_target {
                        lo = rho;
                    } else {
                        hi = rho;
                    }
                }
                let rho = 0.5 * (lo + hi);
                let pi = truncated_geometric(rho, self.chain_len);
                let mut level = 0.0;
                for l in 0..=top {
                    state[off + l] = pi[l];
                    level += l as f64 * pi[l];
                }
                (rho * self.mu, level)
            };
            if lambda > eta * (1.0 + 1e-9) {
                return None;
            }
            state[nd + c] = lambda * class.count / eta.max(1e-300);
            mass += state[nd + c] + class.count * level;
        }
        if !unbuffered {
            state[self.u_r_index()] = x / eta;
            mass += state[self.u_r_index()];
        }
        Some((mass, state))
    }

    /// The fluid vector field `dy = f(y)`; returns the instantaneous
    /// fluxes the outputs are read from.
    fn derivative(&self, y: &[f64], dy: &mut [f64]) -> Flux {
        dy.fill(0.0);
        let nd = self.non_direct();
        let unbuffered = self.depth == 0;
        let top = self.chain_len - 1;

        // Bus demand: one pending grant per open module at most.
        let mut demand = 0.0;
        for (c, class) in self.modules.iter().enumerate() {
            let w = y[nd + c].max(0.0);
            let open = if unbuffered {
                y[self.chain_offset(c)]
            } else {
                (1.0 - y[self.chain_offset(c) + top]).max(0.0)
            };
            demand += w.min(class.count) * open;
        }
        let returning = if unbuffered {
            self.modules
                .iter()
                .enumerate()
                .map(|(c, class)| class.count * y[self.chain_offset(c) + 2])
                .sum::<f64>()
        } else {
            y[self.u_r_index()].max(0.0)
        };
        demand += returning;
        let eta = if demand > DEMAND_FLOOR { demand.min(1.0) / demand } else { 0.0 };
        let returns = eta * returning;

        // Per-class chains and admission fluxes.
        let mut completions = 0.0;
        for (c, class) in self.modules.iter().enumerate() {
            let w = y[nd + c].max(0.0);
            let lambda = (eta * w.min(class.count) / class.count).min(1.0);
            let off = self.chain_offset(c);
            if unbuffered {
                let (pe, ps, ph) = (y[off], y[off + 1], y[off + 2]);
                dy[off] = eta * ph - lambda * pe;
                dy[off + 1] = lambda * pe - self.mu * ps;
                dy[off + 2] = self.mu * ps - eta * ph;
                dy[nd + c] -= lambda * pe * class.count;
            } else {
                let open = (1.0 - y[off + top]).max(0.0);
                dy[off] = self.mu * y[off + 1] - lambda * y[off];
                for l in 1..top {
                    dy[off + l] = lambda * y[off + l - 1] + self.mu * y[off + l + 1]
                        - (lambda + self.mu) * y[off + l];
                }
                dy[off + top] = lambda * y[off + top - 1] - self.mu * y[off + top];
                dy[nd + c] -= lambda * open * class.count;
                completions += class.count * self.mu * (1.0 - y[off]);
            }
        }
        if !unbuffered {
            dy[self.u_r_index()] = completions - returns;
        }

        // Route returns back to think classes in proportion to each
        // class's steady-state share of the cycle stream.
        let thinking: f64 = y[..nd].iter().sum();
        let in_flight = (self.n - thinking).max(0.0);
        let sojourn = (in_flight / returns.max(1e-9)).clamp(1.0, 1e12);
        let mut phi_norm = 0.0;
        for t in &self.thinkers {
            phi_norm += t.count / (t.think + sojourn);
        }
        let mut issue = 0.0;
        let mut slot = 0;
        for t in &self.thinkers {
            let phi = if phi_norm > 0.0 { (t.count / (t.think + sojourn)) / phi_norm } else { 0.0 };
            if t.direct {
                issue += returns * phi;
            } else {
                dy[slot] += returns * phi - t.rate * y[slot];
                issue += t.rate * y[slot];
                slot += 1;
            }
        }
        for (c, class) in self.modules.iter().enumerate() {
            dy[nd + c] += issue * class.share;
        }

        Flux { returns }
    }

    /// Projects the state back onto the physical simplex after a step:
    /// chain fractions into `[0, 1]` summing to 1, pools non-negative.
    fn project(&self, y: &mut [f64]) {
        for v in &mut y[..self.pool_len()] {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        for c in 0..self.modules.len() {
            let off = self.chain_offset(c);
            let chain = &mut y[off..off + self.chain_len];
            let mut sum = 0.0;
            for v in chain.iter_mut() {
                *v = v.clamp(0.0, 1.0);
                sum += *v;
            }
            if sum > 0.0 {
                for v in chain.iter_mut() {
                    *v /= sum;
                }
            } else {
                chain[0] = 1.0;
            }
        }
    }

    /// Integrates the fluid ODEs to steady state with fixed-step RK4,
    /// warm-started at the analytic fixed-point guess (the private
    /// `equilibrium_state`); integration both corrects the guess and
    /// certifies it through the steady-state detector.
    pub fn solve(&self, options: &FluidOptions) -> FluidSolution {
        let dim = self.dim();
        let mut y = self.equilibrium_state().unwrap_or_else(|| self.initial_state());
        self.project(&mut y);
        let (mut k1, mut k2, mut k3, mut k4) =
            (vec![0.0; dim], vec![0.0; dim], vec![0.0; dim], vec![0.0; dim]);
        let mut probe = vec![0.0; dim];
        let h = self.step;
        let window_steps = (options.window / h).ceil().max(1.0) as u32;

        let mut steps = 0;
        let mut converged = false;
        let mut residual = f64::INFINITY;
        let mut throughput = 0.0;
        let mut window_throughput = f64::NAN;
        while steps < options.max_steps {
            let flux = self.derivative(&y, &mut k1);
            throughput = flux.returns;
            residual = self.chain_residual(&k1);

            if steps % window_steps == 0 {
                let drift_ok = window_throughput.is_finite()
                    && (throughput - window_throughput).abs()
                        <= options.output_tolerance * throughput.abs().max(1e-12);
                if drift_ok && residual <= options.chain_tolerance {
                    converged = true;
                    break;
                }
                window_throughput = throughput;
            }

            for i in 0..dim {
                probe[i] = y[i] + 0.5 * h * k1[i];
            }
            self.derivative(&probe, &mut k2);
            for i in 0..dim {
                probe[i] = y[i] + 0.5 * h * k2[i];
            }
            self.derivative(&probe, &mut k3);
            for i in 0..dim {
                probe[i] = y[i] + h * k3[i];
            }
            self.derivative(&probe, &mut k4);
            for i in 0..dim {
                y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
            self.project(&mut y);
            steps += 1;
        }

        self.extract(&y, throughput, steps, converged, residual)
    }

    fn chain_residual(&self, dy: &[f64]) -> f64 {
        dy[self.pool_len()..].iter().fold(0.0_f64, |acc, d| acc.max(d.abs()))
    }

    fn extract(
        &self,
        y: &[f64],
        throughput: f64,
        steps: u32,
        converged: bool,
        residual: f64,
    ) -> FluidSolution {
        let nd = self.non_direct();
        let m_total: f64 = self.modules.iter().map(|c| c.count).sum();
        let unbuffered = self.depth == 0;
        let top = self.chain_len - 1;

        let thinking_mass: f64 = y[..nd].iter().sum();
        let waiting_mass: f64 = (0..self.modules.len()).map(|c| y[nd + c]).sum();
        let u_r = y[self.u_r_index()];

        let mut mean_level = 0.0;
        let mut mean_input = 0.0;
        let mut utilization = 0.0;
        let mut full = 0.0;
        let input_levels = if unbuffered { 1 } else { top };
        let mut input_distribution = vec![0.0; input_levels];
        let mut hot = None;
        for (c, class) in self.modules.iter().enumerate() {
            let off = self.chain_offset(c);
            let weight = class.count / m_total;
            let (level, input, busy, class_full) = if unbuffered {
                let level = y[off + 1] + y[off + 2];
                input_distribution[0] += weight;
                (level, 0.0, y[off + 1], 0.0)
            } else {
                let level: f64 = (0..=top).map(|l| l as f64 * y[off + l]).sum();
                let busy = 1.0 - y[off];
                let input = level - busy;
                input_distribution[0] += weight * (y[off] + y[off + 1]);
                for j in 1..top {
                    input_distribution[j] += weight * y[off + j + 1];
                }
                (level, input, busy, y[off + top])
            };
            mean_level += weight * level;
            mean_input += weight * input;
            utilization += weight * busy;
            full += weight * class_full;
            if class.hot {
                if let Some(module) = self.hot_module {
                    hot = Some(FluidHotModule {
                        module,
                        reference_share: class.share / class.count,
                        utilization: busy,
                        mean_input_queue: input,
                    });
                }
            }
        }

        let mean_output = if unbuffered {
            // The held result is the module's only "output" slot.
            (0..self.modules.len())
                .map(|c| self.modules[c].count / m_total * y[self.chain_offset(c) + 2])
                .sum()
        } else {
            u_r / m_total
        };

        let in_module = mean_level * m_total;
        let total = thinking_mass + waiting_mass + in_module + if unbuffered { 0.0 } else { u_r };
        let conservation_error = (self.n - total).abs() / self.n;

        FluidSolution {
            ebw: self.rc * throughput,
            throughput,
            steps,
            converged,
            residual,
            mean_input_queue: mean_input,
            mean_output_queue: mean_output,
            input_full_fraction: if unbuffered { 0.0 } else { full },
            input_distribution,
            mean_module_level: mean_level,
            module_utilization: utilization,
            thinking_mass,
            waiting_mass,
            conservation_error,
            hot,
        }
    }

    /// The effective depth the chains were built for.
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

/// The stationary distribution of a birth–death chain with constant
/// birth/death ratio `rho` truncated to `len` levels (a truncated
/// geometric), computed overflow-safely by normalizing from the
/// dominant end.
fn truncated_geometric(rho: f64, len: usize) -> Vec<f64> {
    let mut pi = vec![0.0; len];
    if rho <= 1.0 {
        let mut term = 1.0;
        for p in pi.iter_mut() {
            *p = term;
            term *= rho;
        }
    } else {
        let mut term = 1.0;
        for p in pi.iter_mut().rev() {
            *p = term;
            term /= rho;
        }
    }
    let total: f64 = pi.iter().sum();
    for p in pi.iter_mut() {
        *p /= total;
    }
    pi
}

/// Groups modules into classes by reference share.
fn module_classes(workload: &Workload, m: u32) -> (Vec<ModuleClass>, Option<usize>) {
    let m_f = f64::from(m);
    match workload {
        Workload::Uniform | Workload::Heterogeneous(_) => {
            (vec![ModuleClass { count: m_f, share: 1.0, hot: false }], None)
        }
        Workload::HotSpot { fraction, module } => {
            if m == 1 {
                return (
                    vec![ModuleClass { count: 1.0, share: 1.0, hot: true }],
                    Some(*module as usize),
                );
            }
            let base = (1.0 - fraction) / m_f;
            let hot_share = fraction + base;
            (
                vec![
                    ModuleClass { count: 1.0, share: hot_share, hot: true },
                    ModuleClass { count: m_f - 1.0, share: 1.0 - hot_share, hot: false },
                ],
                Some(*module as usize),
            )
        }
        Workload::Weighted(weights) => {
            let total: f64 = weights.iter().sum();
            let hot_module =
                weights.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);
            let groups = bucket_by_value(weights.iter().map(|w| w / total), MODULE_CLASS_CAP);
            let mut classes: Vec<ModuleClass> = groups
                .into_iter()
                .map(|(_, count, share)| ModuleClass { count, share, hot: false })
                .collect();
            // Groups come out sorted ascending, so the hot module — the
            // one with the largest share — lives in the last class.
            if let Some(last) = classes.last_mut() {
                last.hot = true;
            }
            (classes, hot_module)
        }
        Workload::Mmpp(_) => {
            // Only reachable through the quasi-stationary envelope's
            // long-run mixture view; classify the π-weighted mixture
            // distribution exactly like an explicit weight vector.
            let dist = workload.module_distribution(m);
            let hot_module =
                dist.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);
            let groups = bucket_by_value(dist.iter().copied(), MODULE_CLASS_CAP);
            let mut classes: Vec<ModuleClass> = groups
                .into_iter()
                .map(|(_, count, share)| ModuleClass { count, share, hot: false })
                .collect();
            if let Some(last) = classes.last_mut() {
                last.hot = true;
            }
            (classes, hot_module)
        }
    }
}

/// Groups processors into think classes by think probability.
fn think_classes(workload: &Workload, n: u32, p: f64, rc: f64) -> Vec<ThinkClass> {
    let think_of = |p_i: f64| rc * (1.0 - p_i) / p_i;
    let class_of = |think: f64, count: f64| {
        let direct = think < DIRECT_THINK_THRESHOLD;
        ThinkClass { count, think, rate: if direct { 0.0 } else { 1.0 / think }, direct }
    };
    match workload {
        Workload::Heterogeneous(probs) => {
            bucket_by_value(probs.iter().map(|p_i| think_of(*p_i)), THINK_CLASS_CAP)
                .into_iter()
                .map(|(_, count, sum)| class_of(sum / count, count))
                .collect()
        }
        _ => vec![class_of(think_of(p), f64::from(n))],
    }
}

/// Buckets a value stream into at most `cap` groups `(representative
/// value, member count, sum of member values)`, sorted ascending by
/// value: exact grouping by distinct value when that fits, contiguous
/// quantile buckets over the sorted values otherwise. Keeping both the
/// count and the value sum lets callers form count-weighted and
/// mass-weighted shares exactly.
fn bucket_by_value(values: impl Iterator<Item = f64>, cap: usize) -> Vec<(f64, f64, f64)> {
    let mut sorted: Vec<f64> = values.collect();
    sorted.sort_by(f64::total_cmp);
    let mut groups: Vec<(f64, f64, f64)> = Vec::new(); // (value, count, sum)
    for v in &sorted {
        match groups.last_mut() {
            Some(last) if (last.0 - v).abs() <= f64::EPSILON * 4.0 * v.abs().max(1.0) => {
                last.1 += 1.0;
                last.2 += v;
            }
            _ => groups.push((*v, 1.0, *v)),
        }
    }
    if groups.len() > cap {
        // Contiguous re-bucketing of the sorted groups into `cap`
        // near-equal-population buckets.
        let total: f64 = groups.iter().map(|g| g.1).sum();
        let per = total / cap as f64;
        let mut merged: Vec<(f64, f64, f64)> = Vec::with_capacity(cap);
        let mut acc = (0.0, 0.0, 0.0);
        for g in groups {
            acc.1 += g.1;
            acc.2 += g.2;
            if acc.1 >= per && merged.len() + 1 < cap {
                merged.push((acc.2 / acc.1, acc.1, acc.2));
                acc = (0.0, 0.0, 0.0);
            }
        }
        if acc.1 > 0.0 {
            merged.push((acc.2 / acc.1, acc.1, acc.2));
        }
        groups = merged;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(n: u32, m: u32, r: u32, p: f64, buffering: Buffering) -> FluidSolution {
        let params = SystemParams::new(n, m, r).unwrap().with_request_probability(p).unwrap();
        FluidModel::new(params, buffering, &Workload::Uniform, f64::from(r))
            .unwrap()
            .solve(&FluidOptions::default())
    }

    #[test]
    fn light_load_matches_round_trip_timing() {
        // n/(T + r + 2) returns per cycle when the bus never queues.
        let s = solve(8, 8, 8, 0.2, Buffering::Unbuffered);
        assert!(s.converged);
        let expected = 8.0 / (40.0 + 10.0);
        assert!(
            (s.throughput - expected).abs() / expected < 0.03,
            "X = {} vs {expected}",
            s.throughput
        );
    }

    #[test]
    fn saturated_bus_hits_the_ebw_ceiling() {
        let s = solve(4096, 64, 8, 1.0, Buffering::Depth(4));
        assert!(s.converged);
        assert!((s.ebw - 5.0).abs() < 5e-3, "ebw = {}", s.ebw);
    }

    #[test]
    fn module_limited_unbuffered_caps_at_module_cycle() {
        // m modules each need 1 (request) + r (service) + 1 (return)
        // cycles per reference when unbuffered.
        let s = solve(4096, 4, 8, 1.0, Buffering::Unbuffered);
        assert!(s.converged);
        let cap = 4.0 / 10.0;
        assert!((s.throughput - cap).abs() < 5e-3, "X = {}", s.throughput);
    }

    #[test]
    fn million_processor_point_solves() {
        let s = solve(1_000_000, 1_000_000, 8, 1.0, Buffering::Depth(4));
        assert!(s.converged, "steps = {}", s.steps);
        assert!((s.ebw - 5.0).abs() < 1e-3, "ebw = {}", s.ebw);
        assert!(s.conservation_error < 1e-6, "leak = {}", s.conservation_error);
    }

    #[test]
    fn chains_stay_normalized_and_mass_is_conserved() {
        for buffering in [Buffering::Unbuffered, Buffering::Depth(2), Buffering::Infinite] {
            let s = solve(64, 16, 8, 0.5, buffering);
            assert!(s.converged, "{buffering:?}");
            assert!(s.conservation_error < 1e-6, "{buffering:?}: {}", s.conservation_error);
            let sum: f64 = s.input_distribution.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{buffering:?}: Σ = {sum}");
            assert!(s.input_distribution.iter().all(|p| (0.0..=1.0).contains(p)));
        }
    }

    #[test]
    fn ebw_monotone_in_depth() {
        // Module-limited point: unbuffered modules cap each reference
        // at 1 + r + 1 cycles, buffering pipelines the transfers.
        let shallow = solve(128, 4, 8, 1.0, Buffering::Unbuffered);
        let deep = solve(128, 4, 8, 1.0, Buffering::Depth(4));
        assert!(deep.ebw > shallow.ebw + 0.5, "{} vs {}", deep.ebw, shallow.ebw);
        // And at a bus-saturated point buffering never hurts.
        let shallow = solve(128, 16, 8, 1.0, Buffering::Unbuffered);
        let deep = solve(128, 16, 8, 1.0, Buffering::Depth(4));
        assert!(deep.ebw >= shallow.ebw - 1e-3, "{} < {}", deep.ebw, shallow.ebw);
    }

    #[test]
    fn hot_spot_reports_the_hot_module() {
        let params = SystemParams::new(256, 16, 8).unwrap();
        let workload = Workload::hot_spot(0.5, 3).unwrap();
        let s = FluidModel::new(params, Buffering::Depth(4), &workload, 8.0)
            .unwrap()
            .solve(&FluidOptions::default());
        assert!(s.converged, "steps = {}", s.steps);
        let hot = s.hot.expect("hot module summary");
        assert_eq!(hot.module, 3);
        assert!(hot.reference_share > 0.5);
        assert!(hot.utilization > 0.9, "hot module should saturate: {}", hot.utilization);
        // Hot-spot pressure must cost bandwidth versus uniform.
        let uniform = solve(256, 16, 8, 1.0, Buffering::Depth(4));
        assert!(s.ebw < uniform.ebw, "{} vs {}", s.ebw, uniform.ebw);
    }

    #[test]
    fn weighted_buckets_cap_class_count() {
        let weights: Vec<f64> = (0..1024).map(|i| 1.0 + (i % 17) as f64).collect();
        let workload = Workload::weighted(weights).unwrap();
        let params = SystemParams::new(2048, 1024, 8).unwrap();
        let model = FluidModel::new(params, Buffering::Depth(2), &workload, 8.0).unwrap();
        assert!(model.dim() < 17 * 5 + 64);
        let s = model.solve(&FluidOptions::default());
        assert!(s.converged);
        assert!(s.hot.is_some());
    }

    #[test]
    fn heterogeneous_thinking_blends_rates() {
        // Half the processors at p = 1, half at p = 0.2: light-load
        // throughput is the sum of both groups' round-trip rates.
        let probs: Vec<f64> = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { 0.2 }).collect();
        let workload = Workload::heterogeneous(probs).unwrap();
        let params = SystemParams::new(64, 256, 8).unwrap().with_request_probability(0.5).unwrap();
        let model = FluidModel::new(params, Buffering::Depth(4), &workload, 8.0).unwrap();
        let s = model.solve(&FluidOptions::default());
        assert!(s.converged);
        // The p = 1 half alone saturates the bus.
        assert!(s.ebw > 4.0, "ebw = {}", s.ebw);
    }

    #[test]
    fn infinite_buffering_clips_the_chain() {
        // Module-bound point (m = 2): backlog piles inside the deep
        // module queues, up against the clip level.
        let s = solve(4096, 2, 8, 1.0, Buffering::Infinite);
        assert!(s.converged, "steps = {}", s.steps);
        assert_eq!(s.input_distribution.len(), LEVEL_CAP as usize);
        assert!(s.input_full_fraction > 0.5, "full = {}", s.input_full_fraction);
        // Bus-bound point (m = 8): the backlog sits upstream in the
        // request pool instead, and the module queues stay short.
        let s = solve(4096, 8, 8, 1.0, Buffering::Infinite);
        assert!(s.converged, "steps = {}", s.steps);
        assert!(s.input_full_fraction < 0.05, "full = {}", s.input_full_fraction);
        assert!(s.waiting_mass > 1000.0, "waiting = {}", s.waiting_mass);
    }

    #[test]
    fn invalid_service_mean_rejected() {
        let params = SystemParams::new(8, 8, 8).unwrap();
        assert!(FluidModel::new(params, Buffering::Unbuffered, &Workload::Uniform, 0.0).is_err());
        assert!(
            FluidModel::new(params, Buffering::Unbuffered, &Workload::Uniform, f64::NAN).is_err()
        );
    }
}
