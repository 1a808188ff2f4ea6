//! System parameters and operating-mode knobs (paper §2).

use std::sync::Arc;

use crate::error::CoreError;

/// Candidate tie-breaking rule (paper hypothesis *h* and its
/// relaxations), re-exported from the simulation kernel so every layer
/// — [`Scenario`](crate::scenario::Scenario) axes, evaluators, CLIs —
/// names one type.
pub use busnet_sim::arbiter::ArbitrationKind;

/// Bus-granting priority when both processors and memory modules want
/// the bus in the same cycle (paper hypothesis *g*).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BusPolicy {
    /// Hypothesis *g′*: processor requests win. The paper's preferred
    /// policy (higher EBW) and the one used in Tables 3–4.
    #[default]
    ProcessorPriority,
    /// Hypothesis *g″*: memory returns win. Used by the §3.1 exact
    /// chain and Table 1.
    MemoryPriority,
}

impl BusPolicy {
    /// Stable textual id (`proc`, `mem`) shared by scenario labels,
    /// sweep columns, the serve protocol, and cache fingerprints.
    pub fn name(self) -> &'static str {
        match self {
            BusPolicy::ProcessorPriority => "proc",
            BusPolicy::MemoryPriority => "mem",
        }
    }

    /// Parses a textual id as produced by [`BusPolicy::name`].
    pub fn from_name(name: &str) -> Option<BusPolicy> {
        [BusPolicy::ProcessorPriority, BusPolicy::MemoryPriority]
            .into_iter()
            .find(|policy| policy.name() == name)
    }
}

/// Memory-module buffering scheme (paper §6, generalized to depth `k`).
///
/// The paper studies two schemes: no buffers (§§2–5) and one-deep
/// input/output buffers (§6, Fig 4). This enum generalizes the axis to
/// arbitrary FIFO depth `k`, with the paper's two schemes preserved as
/// the named variants: [`Buffering::Unbuffered`] ≡ `Depth(0)` and
/// [`Buffering::Buffered`] ≡ `Depth(1)` (the cycle engine is
/// bit-identical across each pair, pinned by `tests/buffer_depth.rs`).
///
/// # Example
///
/// ```
/// use busnet_core::params::Buffering;
///
/// assert_eq!(Buffering::Unbuffered.effective_depth(8), 0);
/// assert_eq!(Buffering::Buffered.effective_depth(8), 1);
/// assert_eq!(Buffering::Depth(4).effective_depth(8), 4);
/// // At most n requests exist, so depth n behaves as unbounded:
/// assert_eq!(Buffering::Infinite.effective_depth(8), 8);
/// assert!(Buffering::Depth(4).is_buffered());
/// assert!(!Buffering::Depth(0).is_buffered());
/// assert_eq!(Buffering::from_name("depth4"), Some(Buffering::Depth(4)));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Buffering {
    /// No buffers: a module holds its result until the bus returns it,
    /// and accepts no new request before that (paper §§2–5).
    #[default]
    Unbuffered,
    /// One-deep input and output buffers on every module: a module can
    /// service back-to-back requests while results wait for the bus
    /// (paper §6, Fig 4).
    Buffered,
    /// `k`-deep input and output FIFOs on every module (the buffer
    /// sizing axis; `Depth(0)` behaves as [`Buffering::Unbuffered`],
    /// `Depth(1)` as [`Buffering::Buffered`]).
    Depth(u32),
    /// Unbounded FIFOs. Since at most `n` requests exist in the closed
    /// system, this is realized exactly as depth `n`.
    Infinite,
}

impl Buffering {
    /// The FIFO depth this scheme resolves to in a system with `n`
    /// processors: 0 (unbuffered), 1 (the paper's §6 scheme), `k`, or
    /// `n` for [`Buffering::Infinite`] (depth `n` is indistinguishable
    /// from unbounded because the closed system holds at most `n`
    /// requests).
    pub fn effective_depth(self, n: u32) -> u32 {
        match self {
            Buffering::Unbuffered => 0,
            Buffering::Buffered => 1,
            Buffering::Depth(k) => k,
            Buffering::Infinite => n,
        }
    }

    /// Whether modules have any buffering capacity (depth ≥ 1). The
    /// analytic vehicles for the unbuffered system accept exactly the
    /// schemes where this is `false`.
    pub fn is_buffered(self) -> bool {
        !matches!(self, Buffering::Unbuffered | Buffering::Depth(0))
    }

    /// Validates the scheme (`Depth(k)` is capped at 4096, the same
    /// guard as the system parameters).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an implausibly deep buffer.
    pub fn validate(self) -> Result<(), CoreError> {
        if let Buffering::Depth(k) = self {
            if k > 4096 {
                return Err(CoreError::InvalidParameter {
                    name: "buffer depth",
                    value: k.to_string(),
                    constraint: "depth <= 4096 (use Buffering::Infinite for unbounded)",
                });
            }
        }
        Ok(())
    }

    /// Stable textual id: `unbuffered`, `buffered`, `depthK`,
    /// `infinite`.
    pub fn name(self) -> String {
        match self {
            Buffering::Unbuffered => "unbuffered".to_owned(),
            Buffering::Buffered => "buffered".to_owned(),
            Buffering::Depth(k) => format!("depth{k}"),
            Buffering::Infinite => "infinite".to_owned(),
        }
    }

    /// Parses a textual id as produced by [`Buffering::name`] (also
    /// accepts `inf` for [`Buffering::Infinite`]).
    pub fn from_name(name: &str) -> Option<Buffering> {
        match name {
            "unbuffered" => Some(Buffering::Unbuffered),
            "buffered" => Some(Buffering::Buffered),
            "infinite" | "inf" => Some(Buffering::Infinite),
            _ => name.strip_prefix("depth")?.parse().ok().map(Buffering::Depth),
        }
    }

    /// The depth as a short column label: `0`, `1`, `k`, or `inf`.
    pub fn depth_label(self) -> String {
        match self {
            Buffering::Unbuffered => "0".to_owned(),
            Buffering::Buffered => "1".to_owned(),
            Buffering::Depth(k) => k.to_string(),
            Buffering::Infinite => "inf".to_owned(),
        }
    }
}

/// How the processors load the memory system: which module each
/// reference targets, and how eagerly each processor issues requests.
///
/// The paper's hypotheses *e* (uniform references) and *f* (one think
/// probability `p` for every processor) are the [`Workload::Uniform`]
/// variant; the others relax them one at a time:
///
/// * [`Workload::HotSpot`] — Pfister-style hot spot: each reference
///   goes to one hot module with extra probability `fraction`, and is
///   uniform over all `m` modules with the remaining `1 − fraction`
///   (so the hot module's total share is `fraction + (1 − fraction)/m`).
/// * [`Workload::Weighted`] — an arbitrary per-module reference
///   distribution, validated and normalized at construction.
/// * [`Workload::Heterogeneous`] — per-processor think probabilities
///   `p_i` (references stay uniform); the scalar `p` of
///   [`SystemParams`] is ignored for processors with an explicit
///   `p_i`.
/// * [`Workload::Mmpp`] — a Markov-modulated (bursty) workload: a
///   small phase chain steps every `dwell` cycles, and each phase
///   carries its own think probability and hot-spot reference skew.
///   The only **non-stationary** variant; analytic evaluators reject
///   it (see [`Workload::is_stationary`]).
///
/// Weight vectors are shared (`Arc`) so scenarios stay cheap to clone
/// across sweep grids.
///
/// # Example
///
/// ```
/// use busnet_core::params::Workload;
///
/// let hot = Workload::hot_spot(0.5, 0)?;
/// // P(module 0) = 0.5 + 0.5/8 = 0.5625 in an 8-module system.
/// assert!((hot.module_distribution(8)[0] - 0.5625).abs() < 1e-12);
/// let weighted = Workload::weighted([3.0, 1.0])?;
/// assert_eq!(weighted.module_distribution(2), vec![0.75, 0.25]);
/// assert!(Workload::weighted([0.0, 0.0]).is_err()); // zero mass
/// # Ok::<(), busnet_core::CoreError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Workload {
    /// Hypotheses *e* and *f* exactly: uniform references, one shared
    /// think probability. Bit-identical to the pre-workload engines.
    #[default]
    Uniform,
    /// Pfister-style hot spot: `fraction` of the reference mass
    /// concentrates on `module`, the rest is uniform over all modules.
    HotSpot {
        /// Extra probability mass routed to the hot module (`0 ≤
        /// fraction ≤ 1`; 0 is uniform, 1 serializes on the module).
        fraction: f64,
        /// Index of the hot module (must be `< m`).
        module: u32,
    },
    /// Arbitrary per-module reference distribution (normalized; length
    /// must equal `m`). Build with [`Workload::weighted`].
    Weighted(Arc<[f64]>),
    /// Per-processor think probabilities `p_i` (length must equal
    /// `n`); references stay uniform. Build with
    /// [`Workload::heterogeneous`].
    Heterogeneous(Arc<[f64]>),
    /// Markov-modulated bursty workload (validated phase chain; see
    /// [`MmppSpec`]). Build with [`Workload::mmpp`] or
    /// [`Workload::on_off_burst`].
    Mmpp(Arc<MmppSpec>),
}

/// One phase of a Markov-modulated workload: the think probability
/// every processor uses while the chain sits in this phase, plus an
/// optional hot-spot reference skew (`hot_fraction = 0` keeps
/// references uniform and ignores `hot_module`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MmppPhase {
    /// Think probability while in this phase (`0 < p ≤ 1`); replaces
    /// the scalar `p` of [`SystemParams`] for every processor.
    pub think_p: f64,
    /// Extra reference mass routed to `hot_module` while in this phase
    /// (`0 ≤ fraction ≤ 1`; 0 is uniform).
    pub hot_fraction: f64,
    /// Index of this phase's hot module (must be `< m`; unused when
    /// `hot_fraction == 0`).
    pub hot_module: u32,
}

/// A validated Markov-modulated workload specification: `k` phases, a
/// row-stochastic `k × k` transition matrix (row-major, normalized at
/// construction), and the deterministic per-phase dwell time in bus
/// cycles. The chain starts in phase 0 and steps at every boundary
/// `t = j · dwell`: the engines schedule these boundaries as events in
/// the timing wheel and swap in the phase's pooled alias samplers, so
/// re-sampling on a phase change is O(1) per processor.
#[derive(Clone, Debug, PartialEq)]
pub struct MmppSpec {
    phases: Vec<MmppPhase>,
    /// Row-major `k × k` transition probabilities, rows normalized.
    transition: Vec<f64>,
    dwell: u64,
}

impl MmppSpec {
    /// Number of phases `k`.
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// The validated phases.
    pub fn phases(&self) -> &[MmppPhase] {
        &self.phases
    }

    /// Deterministic dwell time between phase-transition boundaries,
    /// in bus cycles.
    pub fn dwell(&self) -> u64 {
        self.dwell
    }

    /// Row `s` of the normalized transition matrix: the distribution
    /// of the next phase given the chain is in phase `s`.
    pub fn transition_row(&self, s: usize) -> &[f64] {
        let k = self.phases.len();
        &self.transition[s * k..(s + 1) * k]
    }

    /// The *stationary* workload phase `s` presents while the chain
    /// dwells there: a hot-spot (or uniform) reference pattern. The
    /// engines build their per-phase module samplers from this, which
    /// routes them through the shared sampler pools.
    pub fn phase_workload(&self, s: usize) -> Workload {
        let phase = &self.phases[s];
        // Validated at construction, so this cannot fail.
        Workload::hot_spot(phase.hot_fraction, phase.hot_module)
            .expect("MmppSpec phases are validated at construction")
    }

    /// The stationary distribution `π` of the phase chain (`π P = π`),
    /// computed by damped power iteration (the damping handles
    /// periodic chains such as the strict-alternation matrix).
    pub fn stationary_distribution(&self) -> Vec<f64> {
        let k = self.phases.len();
        let mut pi = vec![1.0 / k as f64; k];
        let mut next = vec![0.0; k];
        for _ in 0..20_000 {
            next.iter_mut().for_each(|x| *x = 0.0);
            for (s, &ps) in pi.iter().enumerate() {
                let row = &self.transition[s * k..(s + 1) * k];
                for (t, p) in row.iter().enumerate() {
                    next[t] += ps * p;
                }
            }
            let mut delta = 0.0_f64;
            for s in 0..k {
                // Lazy-chain damping: π′ = (π + πP) / 2 shares P's
                // stationary distribution but always converges.
                let blended = 0.5 * (pi[s] + next[s]);
                delta = delta.max((blended - pi[s]).abs());
                pi[s] = blended;
            }
            if delta < 1e-15 {
                break;
            }
        }
        pi
    }
}

impl Workload {
    /// A hot-spot workload (validated: `fraction` must be a finite
    /// probability). `fraction = 0` **is** the uniform workload and
    /// normalizes to [`Workload::Uniform`], so a hot-spot sweep's
    /// baseline point stays bit-identical to (and in the same
    /// evaluator domains as) an explicit uniform run.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] unless `0 ≤ fraction ≤ 1`. The
    /// module index is checked against `m` by [`Workload::validate`].
    pub fn hot_spot(fraction: f64, module: u32) -> Result<Workload, CoreError> {
        if !(fraction.is_finite() && (0.0..=1.0).contains(&fraction)) {
            return Err(CoreError::InvalidParameter {
                name: "hot-spot fraction",
                value: fraction.to_string(),
                constraint: "0 <= fraction <= 1",
            });
        }
        if fraction == 0.0 {
            return Ok(Workload::Uniform);
        }
        Ok(Workload::HotSpot { fraction, module })
    }

    /// A weighted workload from raw per-module weights, normalized to
    /// a distribution.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the weights cannot form a
    /// distribution: empty, any weight negative or non-finite (NaN,
    /// ±∞), or zero total mass. This is the typed rejection the
    /// engines rely on — an invalid weight vector never reaches a
    /// sampler.
    pub fn weighted(weights: impl Into<Vec<f64>>) -> Result<Workload, CoreError> {
        let weights = weights.into();
        Self::check_module_weights(&weights)?;
        let total: f64 = weights.iter().sum();
        Ok(Workload::Weighted(weights.into_iter().map(|w| w / total).collect()))
    }

    /// The element checks shared by [`Workload::weighted`] and
    /// [`Workload::validate`] (no allocation: the variant is public,
    /// so validation must be re-runnable on a borrowed slice).
    fn check_module_weights(weights: &[f64]) -> Result<(), CoreError> {
        let reject = |value: String, constraint: &'static str| {
            Err(CoreError::InvalidParameter { name: "module weights", value, constraint })
        };
        if weights.is_empty() {
            return reject("[]".to_owned(), "at least one module weight");
        }
        if let Some(bad) = weights.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return reject(bad.to_string(), "weights must be finite and non-negative");
        }
        let total: f64 = weights.iter().sum();
        if !(total.is_finite() && total > 0.0) {
            return reject(total.to_string(), "weights must have positive total mass");
        }
        Ok(())
    }

    /// A heterogeneous-traffic workload from per-processor think
    /// probabilities.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the vector is empty or any
    /// `p_i` violates hypothesis *f*'s range (`0 < p_i ≤ 1`).
    pub fn heterogeneous(probs: impl Into<Vec<f64>>) -> Result<Workload, CoreError> {
        let probs = probs.into();
        Self::check_think_probs(&probs)?;
        Ok(Workload::Heterogeneous(probs.into()))
    }

    /// The element checks shared by [`Workload::heterogeneous`] and
    /// [`Workload::validate`].
    fn check_think_probs(probs: &[f64]) -> Result<(), CoreError> {
        if probs.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "think probabilities",
                value: "[]".to_owned(),
                constraint: "at least one per-processor probability",
            });
        }
        if let Some(bad) = probs.iter().find(|p| !(p.is_finite() && **p > 0.0 && **p <= 1.0)) {
            return Err(CoreError::InvalidParameter {
                name: "think probabilities",
                value: bad.to_string(),
                constraint: "0 < p_i <= 1",
            });
        }
        Ok(())
    }

    /// A Markov-modulated workload from per-phase parameters, a
    /// row-major `k × k` transition matrix (rows normalized at
    /// construction like [`Workload::weighted`]), and the per-phase
    /// dwell time in bus cycles.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an empty phase set, a phase
    /// think probability outside `(0, 1]` or hot fraction outside
    /// `[0, 1]` (or non-finite), a transition matrix whose length is
    /// not `k²`, a negative/non-finite transition entry, a
    /// non-stochastic row (zero mass), or a zero dwell. Hot-module
    /// indices are checked against `m` by [`Workload::validate`].
    pub fn mmpp(
        phases: impl Into<Vec<MmppPhase>>,
        transition: impl Into<Vec<f64>>,
        dwell: u64,
    ) -> Result<Workload, CoreError> {
        let phases = phases.into();
        let mut transition = transition.into();
        Self::check_mmpp(&phases, &transition, dwell)?;
        let k = phases.len();
        for row in transition.chunks_mut(k) {
            let total: f64 = row.iter().sum();
            row.iter_mut().for_each(|p| *p /= total);
        }
        Ok(Workload::Mmpp(Arc::new(MmppSpec { phases, transition, dwell })))
    }

    /// The classic two-phase bursty workload: an *on* phase (think
    /// probability `on_p`, optionally skewed onto a hot module) and an
    /// *off* phase (`off_p`, uniform references), each self-looping
    /// with probability `stay` per dwell.
    ///
    /// # Errors
    ///
    /// As [`Workload::mmpp`]; additionally rejects `stay` outside
    /// `[0, 1)` (a `stay` of 1 would make the chain reducible).
    pub fn on_off_burst(
        on_p: f64,
        off_p: f64,
        stay: f64,
        dwell: u64,
        hot: Option<(f64, u32)>,
    ) -> Result<Workload, CoreError> {
        if !(stay.is_finite() && (0.0..1.0).contains(&stay)) {
            return Err(CoreError::InvalidParameter {
                name: "burst stay probability",
                value: stay.to_string(),
                constraint: "0 <= stay < 1",
            });
        }
        let (hot_fraction, hot_module) = hot.unwrap_or((0.0, 0));
        let phases = vec![
            MmppPhase { think_p: on_p, hot_fraction, hot_module },
            MmppPhase { think_p: off_p, hot_fraction: 0.0, hot_module: 0 },
        ];
        Workload::mmpp(phases, vec![stay, 1.0 - stay, 1.0 - stay, stay], dwell)
    }

    /// The element checks shared by [`Workload::mmpp`] and
    /// [`Workload::validate`] (the variant is public, so validation
    /// must be re-runnable on a borrowed spec).
    fn check_mmpp(phases: &[MmppPhase], transition: &[f64], dwell: u64) -> Result<(), CoreError> {
        if phases.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "mmpp phases",
                value: "[]".to_owned(),
                constraint: "at least one phase",
            });
        }
        for phase in phases {
            if !(phase.think_p.is_finite() && phase.think_p > 0.0 && phase.think_p <= 1.0) {
                return Err(CoreError::InvalidParameter {
                    name: "mmpp phase think probability",
                    value: phase.think_p.to_string(),
                    constraint: "0 < p <= 1",
                });
            }
            if !(phase.hot_fraction.is_finite() && (0.0..=1.0).contains(&phase.hot_fraction)) {
                return Err(CoreError::InvalidParameter {
                    name: "mmpp phase hot fraction",
                    value: phase.hot_fraction.to_string(),
                    constraint: "0 <= fraction <= 1",
                });
            }
        }
        let k = phases.len();
        if transition.len() != k * k {
            return Err(CoreError::InvalidParameter {
                name: "mmpp transition matrix",
                value: format!("{} entries", transition.len()),
                constraint: "row-major k x k (one row per phase)",
            });
        }
        for (s, row) in transition.chunks(k).enumerate() {
            if let Some(bad) = row.iter().find(|p| !p.is_finite() || **p < 0.0) {
                return Err(CoreError::InvalidParameter {
                    name: "mmpp transition matrix",
                    value: bad.to_string(),
                    constraint: "entries must be finite and non-negative",
                });
            }
            let total: f64 = row.iter().sum();
            if !(total.is_finite() && total > 0.0) {
                return Err(CoreError::InvalidParameter {
                    name: "mmpp transition matrix",
                    value: format!("row {s} mass {total}"),
                    constraint: "every row needs positive mass",
                });
            }
        }
        if dwell == 0 {
            return Err(CoreError::InvalidParameter {
                name: "mmpp dwell",
                value: "0".to_owned(),
                constraint: "dwell >= 1 cycle",
            });
        }
        Ok(())
    }

    /// Validates the workload against a system of `n` processors and
    /// `m` modules (per-point checks a sweep grid applies at scenario
    /// construction).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an out-of-range hot module,
    /// a weight vector whose length differs from `m` (or with
    /// invalid/zero-mass weights), or a think-probability vector whose
    /// length differs from `n`.
    pub fn validate(&self, n: u32, m: u32) -> Result<(), CoreError> {
        match self {
            Workload::Uniform => Ok(()),
            Workload::HotSpot { fraction, module } => {
                // Re-run the constructor checks: the variant is public,
                // so a literal can bypass `hot_spot`.
                Workload::hot_spot(*fraction, *module)?;
                if *module >= m {
                    return Err(CoreError::InvalidParameter {
                        name: "hot-spot module",
                        value: module.to_string(),
                        constraint: "module index < m",
                    });
                }
                Ok(())
            }
            Workload::Weighted(weights) => {
                Workload::check_module_weights(weights)?;
                if weights.len() != m as usize {
                    return Err(CoreError::InvalidParameter {
                        name: "module weights",
                        value: format!("{} entries", weights.len()),
                        constraint: "one weight per module (length m)",
                    });
                }
                Ok(())
            }
            Workload::Heterogeneous(probs) => {
                Workload::check_think_probs(probs)?;
                if probs.len() != n as usize {
                    return Err(CoreError::InvalidParameter {
                        name: "think probabilities",
                        value: format!("{} entries", probs.len()),
                        constraint: "one probability per processor (length n)",
                    });
                }
                Ok(())
            }
            Workload::Mmpp(spec) => {
                Workload::check_mmpp(&spec.phases, &spec.transition, spec.dwell)?;
                for phase in &spec.phases {
                    if phase.hot_fraction > 0.0 && phase.hot_module >= m {
                        return Err(CoreError::InvalidParameter {
                            name: "mmpp phase hot module",
                            value: phase.hot_module.to_string(),
                            constraint: "module index < m",
                        });
                    }
                }
                Ok(())
            }
        }
    }

    /// Whether this is exactly the paper's workload (the variant the
    /// uniform-only analytic vehicles accept).
    pub fn is_uniform(&self) -> bool {
        matches!(self, Workload::Uniform)
    }

    /// Whether references are uniform over modules (true for
    /// [`Workload::Heterogeneous`], which only skews think timing).
    pub fn references_uniformly(&self) -> bool {
        matches!(self, Workload::Uniform | Workload::Heterogeneous(_))
    }

    /// Whether every processor shares one think probability *at any
    /// instant* (false only for [`Workload::Heterogeneous`]; an MMPP
    /// phase applies one `p` to every processor).
    pub fn has_homogeneous_thinking(&self) -> bool {
        !matches!(self, Workload::Heterogeneous(_))
    }

    /// Whether the workload is time-invariant. Every variant except
    /// [`Workload::Mmpp`] is stationary; the analytic and fluid
    /// steady-state evaluators only accept stationary workloads
    /// (non-stationary ones have no single operating point to solve
    /// for).
    pub fn is_stationary(&self) -> bool {
        !matches!(self, Workload::Mmpp(_))
    }

    /// The MMPP specification, when this is a bursty workload.
    pub fn mmpp_spec(&self) -> Option<&Arc<MmppSpec>> {
        match self {
            Workload::Mmpp(spec) => Some(spec),
            _ => None,
        }
    }

    /// The per-module reference distribution in an `m`-module system
    /// (sums to 1). For [`Workload::Heterogeneous`] references are
    /// uniform.
    ///
    /// # Panics
    ///
    /// Panics when a hot-spot module index is out of range for `m` —
    /// silently dropping the hot mass would renormalize to the wrong
    /// workload; [`Workload::validate`] rejects the case with a typed
    /// error first on every engine path.
    pub fn module_distribution(&self, m: u32) -> Vec<f64> {
        let m = m as usize;
        match self {
            Workload::Uniform | Workload::Heterogeneous(_) => vec![1.0 / m as f64; m],
            Workload::HotSpot { fraction, module } => {
                let base = (1.0 - fraction) / m as f64;
                let mut dist = vec![base; m];
                dist[*module as usize] += fraction;
                dist
            }
            Workload::Weighted(weights) => weights.to_vec(),
            Workload::Mmpp(spec) => {
                // Long-run average: the π-weighted mixture of the
                // per-phase reference distributions.
                let pi = spec.stationary_distribution();
                let mut dist = vec![0.0; m];
                for (s, weight) in pi.iter().enumerate() {
                    for (d, phase) in
                        dist.iter_mut().zip(spec.phase_workload(s).module_distribution(m as u32))
                    {
                        *d += weight * phase;
                    }
                }
                dist
            }
        }
    }

    /// Processor `i`'s think probability, given the scalar `p` of
    /// [`SystemParams`] (the fallback for every homogeneous variant).
    /// For [`Workload::Mmpp`] this is the *initial* (phase 0) think
    /// probability; the engines modulate it at phase boundaries.
    pub fn think_probability(&self, i: usize, p: f64) -> f64 {
        match self {
            Workload::Heterogeneous(probs) => probs[i],
            Workload::Mmpp(spec) => spec.phases[0].think_p,
            _ => p,
        }
    }

    /// Stable textual id for labels and sweep columns: `uniform`,
    /// `hot0.5@2`, `weighted`, `hetero`, `mmpp2d500` (`k` phases,
    /// dwell cycles).
    pub fn name(&self) -> String {
        match self {
            Workload::Uniform => "uniform".to_owned(),
            Workload::HotSpot { fraction, module } => format!("hot{fraction}@{module}"),
            Workload::Weighted(_) => "weighted".to_owned(),
            Workload::Heterogeneous(_) => "hetero".to_owned(),
            Workload::Mmpp(spec) => format!("mmpp{}d{}", spec.phase_count(), spec.dwell()),
        }
    }
}

/// Validated system parameters: `n` processors, `m` memory modules,
/// memory-to-bus cycle ratio `r`, and request probability `p`.
///
/// Invariants enforced at construction:
///
/// * `n ≥ 1`, `m ≥ 1` (hypothesis *a*);
/// * `r ≥ 1` (hypothesis *c*: memory cycle is `r·t`, `r` integer);
/// * `0 < p ≤ 1` (hypothesis *f*), default 1.
///
/// # Example
///
/// ```
/// use busnet_core::params::SystemParams;
///
/// let params = SystemParams::new(8, 16, 8)?.with_request_probability(0.5)?;
/// assert_eq!(params.processor_cycle(), 10);
/// assert_eq!(params.max_ebw(), 5.0);
/// # Ok::<(), busnet_core::CoreError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemParams {
    n: u32,
    m: u32,
    r: u32,
    p: f64,
}

impl SystemParams {
    /// Creates parameters with request probability `p = 1`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if any of `n`, `m`, `r` is zero,
    /// if `n` or `m` exceeds `16_777_216` (2^24, the fluid-evaluator
    /// scale ceiling), or if `r > 4096` (a guard against accidental
    /// astronomically long memory cycles). Evaluators with state spaces
    /// that grow in `n`/`m` impose their own tighter caps in
    /// `Evaluator::supports`.
    pub fn new(n: u32, m: u32, r: u32) -> Result<Self, CoreError> {
        fn check(
            name: &'static str,
            v: u32,
            max: u32,
            constraint: &'static str,
        ) -> Result<(), CoreError> {
            if v == 0 || v > max {
                return Err(CoreError::InvalidParameter { name, value: v.to_string(), constraint });
            }
            Ok(())
        }
        check("n", n, 16_777_216, "1 <= value <= 16777216")?;
        check("m", m, 16_777_216, "1 <= value <= 16777216")?;
        check("r", r, 4096, "1 <= value <= 4096")?;
        Ok(SystemParams { n, m, r, p: 1.0 })
    }

    /// Returns a copy with request probability `p` (hypothesis *f*).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] unless `0 < p ≤ 1`.
    pub fn with_request_probability(mut self, p: f64) -> Result<Self, CoreError> {
        if !(p.is_finite() && p > 0.0 && p <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "p",
                value: p.to_string(),
                constraint: "0 < p <= 1",
            });
        }
        self.p = p;
        Ok(self)
    }

    /// Number of processors `n`.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of memory modules `m`.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Memory cycle in bus cycles, `r`.
    pub fn r(&self) -> u32 {
        self.r
    }

    /// Request probability `p` after each completed service.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The processor cycle `(r + 2)` in bus cycles (hypothesis *d*).
    pub fn processor_cycle(&self) -> u32 {
        self.r + 2
    }

    /// `min(n, m)`, the paper's `v`.
    pub fn min_nm(&self) -> u32 {
        self.n.min(self.m)
    }

    /// The EBW ceiling `(r + 2) / 2` of a fully multiplexed bus.
    pub fn max_ebw(&self) -> f64 {
        f64::from(self.r + 2) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_params_roundtrip() {
        let p = SystemParams::new(8, 16, 8).unwrap();
        assert_eq!((p.n(), p.m(), p.r()), (8, 16, 8));
        assert_eq!(p.p(), 1.0);
        assert_eq!(p.processor_cycle(), 10);
        assert_eq!(p.min_nm(), 8);
        assert_eq!(p.max_ebw(), 5.0);
    }

    #[test]
    fn zero_values_rejected() {
        assert!(SystemParams::new(0, 1, 1).is_err());
        assert!(SystemParams::new(1, 0, 1).is_err());
        assert!(SystemParams::new(1, 1, 0).is_err());
    }

    #[test]
    fn oversized_values_rejected() {
        assert!(SystemParams::new(16_777_217, 1, 1).is_err());
        assert!(SystemParams::new(1, 16_777_217, 1).is_err());
        assert!(SystemParams::new(1, 1, 5000).is_err());
        // n and m may now exceed the old 4096 cap (fluid-evaluator scale).
        assert!(SystemParams::new(1_000_000, 1_000_000, 8).is_ok());
    }

    #[test]
    fn request_probability_bounds() {
        let p = SystemParams::new(2, 2, 2).unwrap();
        assert!(p.with_request_probability(0.0).is_err());
        assert!(p.with_request_probability(-0.5).is_err());
        assert!(p.with_request_probability(1.5).is_err());
        assert!(p.with_request_probability(f64::NAN).is_err());
        assert_eq!(p.with_request_probability(0.25).unwrap().p(), 0.25);
    }

    #[test]
    fn buffering_depths_resolve_and_roundtrip() {
        assert_eq!(Buffering::Unbuffered.effective_depth(8), 0);
        assert_eq!(Buffering::Buffered.effective_depth(8), 1);
        assert_eq!(Buffering::Depth(3).effective_depth(8), 3);
        assert_eq!(Buffering::Infinite.effective_depth(5), 5);
        assert!(!Buffering::Unbuffered.is_buffered());
        assert!(!Buffering::Depth(0).is_buffered());
        assert!(Buffering::Buffered.is_buffered());
        assert!(Buffering::Infinite.is_buffered());
        for b in [
            Buffering::Unbuffered,
            Buffering::Buffered,
            Buffering::Depth(0),
            Buffering::Depth(7),
            Buffering::Infinite,
        ] {
            assert_eq!(Buffering::from_name(&b.name()), Some(b));
            assert!(b.validate().is_ok());
        }
        assert_eq!(Buffering::from_name("inf"), Some(Buffering::Infinite));
        assert_eq!(Buffering::from_name("depthx"), None);
        assert_eq!(Buffering::from_name("nope"), None);
        assert!(Buffering::Depth(5000).validate().is_err());
        assert_eq!(Buffering::Depth(4).depth_label(), "4");
        assert_eq!(Buffering::Infinite.depth_label(), "inf");
    }

    #[test]
    fn error_message_names_parameter() {
        let err = SystemParams::new(0, 1, 1).unwrap_err();
        let text = err.to_string();
        assert!(text.contains('n'), "message should name the parameter: {text}");
    }

    #[test]
    fn weighted_workload_normalizes_and_validates() {
        let w = Workload::weighted([3.0, 1.0, 0.0, 4.0]).unwrap();
        let dist = w.module_distribution(4);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(dist, vec![0.375, 0.125, 0.0, 0.5]);
        assert!(w.validate(8, 4).is_ok());
        // Wrong length for the system is a validation error.
        assert!(w.validate(8, 5).is_err());
    }

    #[test]
    fn weighted_workload_rejects_each_degenerate_shape() {
        // The typed rejection paths: zero-sum, NaN, negative, ±∞,
        // empty — each must fail at construction, not in an engine.
        for (weights, what) in [
            (vec![0.0, 0.0, 0.0], "zero-sum"),
            (vec![1.0, f64::NAN], "NaN"),
            (vec![1.0, -0.25], "negative"),
            (vec![1.0, f64::INFINITY], "+inf"),
            (vec![1.0, f64::NEG_INFINITY], "-inf"),
            (vec![], "empty"),
        ] {
            let err = Workload::weighted(weights).expect_err(what);
            assert!(
                matches!(err, CoreError::InvalidParameter { name: "module weights", .. }),
                "{what}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn hot_spot_workload_bounds() {
        assert!(Workload::hot_spot(0.0, 0).is_ok());
        assert!(Workload::hot_spot(1.0, 3).is_ok());
        assert!(Workload::hot_spot(-0.1, 0).is_err());
        assert!(Workload::hot_spot(1.1, 0).is_err());
        assert!(Workload::hot_spot(f64::NAN, 0).is_err());
        // The module index is checked against m at validation time.
        let hot = Workload::hot_spot(0.5, 4).unwrap();
        assert!(hot.validate(8, 4).is_err());
        assert!(hot.validate(8, 5).is_ok());
        // Literal variants cannot bypass the constructor checks.
        assert!(Workload::HotSpot { fraction: 2.0, module: 0 }.validate(8, 8).is_err());
    }

    #[test]
    fn heterogeneous_workload_bounds() {
        let h = Workload::heterogeneous([1.0, 0.5, 0.25]).unwrap();
        assert_eq!(h.think_probability(1, 1.0), 0.5);
        assert!(h.validate(3, 8).is_ok());
        assert!(h.validate(4, 8).is_err()); // length must equal n
        assert!(Workload::heterogeneous([0.5, 0.0]).is_err());
        assert!(Workload::heterogeneous([1.5]).is_err());
        assert!(Workload::heterogeneous(Vec::<f64>::new()).is_err());
        assert!(Workload::heterogeneous([f64::NAN]).is_err());
    }

    fn on_off() -> Workload {
        Workload::on_off_burst(1.0, 0.05, 0.9, 500, Some((0.5, 2))).unwrap()
    }

    #[test]
    fn mmpp_constructor_normalizes_rows_and_validates() {
        let w = Workload::mmpp(
            vec![
                MmppPhase { think_p: 1.0, hot_fraction: 0.5, hot_module: 1 },
                MmppPhase { think_p: 0.1, hot_fraction: 0.0, hot_module: 0 },
            ],
            vec![3.0, 1.0, 1.0, 1.0],
            250,
        )
        .unwrap();
        let spec = w.mmpp_spec().unwrap();
        assert_eq!(spec.phase_count(), 2);
        assert_eq!(spec.dwell(), 250);
        assert_eq!(spec.transition_row(0), &[0.75, 0.25]);
        assert_eq!(spec.transition_row(1), &[0.5, 0.5]);
        assert!(w.validate(8, 4).is_ok());
        // Hot module out of range for the system.
        assert!(w.validate(8, 1).is_err());
        // A zero-fraction phase ignores its hot module index.
        let uniform_phases = Workload::mmpp(
            vec![MmppPhase { think_p: 0.5, hot_fraction: 0.0, hot_module: 99 }],
            vec![1.0],
            10,
        )
        .unwrap();
        assert!(uniform_phases.validate(4, 2).is_ok());
    }

    #[test]
    fn mmpp_rejects_each_degenerate_shape() {
        let good = MmppPhase { think_p: 0.5, hot_fraction: 0.0, hot_module: 0 };
        for (phases, transition, dwell, what) in [
            (vec![], vec![], 10, "empty phase set"),
            (vec![good], vec![1.0], 0, "zero dwell"),
            (vec![good], vec![1.0, 0.5], 10, "wrong matrix length"),
            (vec![good], vec![0.0], 10, "zero row mass"),
            (vec![good], vec![-1.0], 10, "negative rate"),
            (vec![good], vec![f64::NAN], 10, "NaN rate"),
            (vec![good], vec![f64::INFINITY], 10, "infinite rate"),
            (vec![MmppPhase { think_p: 0.0, ..good }], vec![1.0], 10, "zero think p"),
            (vec![MmppPhase { think_p: 1.5, ..good }], vec![1.0], 10, "think p > 1"),
            (vec![MmppPhase { think_p: f64::NAN, ..good }], vec![1.0], 10, "NaN think p"),
            (vec![MmppPhase { hot_fraction: -0.1, ..good }], vec![1.0], 10, "negative fraction"),
            (vec![MmppPhase { hot_fraction: 1.1, ..good }], vec![1.0], 10, "fraction > 1"),
            (vec![MmppPhase { hot_fraction: f64::NAN, ..good }], vec![1.0], 10, "NaN fraction"),
        ] {
            let err = Workload::mmpp(phases, transition, dwell).expect_err(what);
            assert!(
                matches!(err, CoreError::InvalidParameter { .. }),
                "{what}: unexpected error {err:?}"
            );
        }
        // The variant is public, so validate() re-runs the checks.
        let raw = Workload::Mmpp(Arc::new(MmppSpec {
            phases: vec![MmppPhase { think_p: 2.0, hot_fraction: 0.0, hot_module: 0 }],
            transition: vec![1.0],
            dwell: 10,
        }));
        assert!(raw.validate(4, 4).is_err());
        // on_off_burst rejects an absorbing stay probability.
        assert!(Workload::on_off_burst(1.0, 0.1, 1.0, 100, None).is_err());
        assert!(Workload::on_off_burst(1.0, 0.1, -0.1, 100, None).is_err());
    }

    #[test]
    fn mmpp_stationary_distribution_and_mixture() {
        let w = on_off();
        let spec = w.mmpp_spec().unwrap();
        // Symmetric on/off chain: π = (1/2, 1/2).
        let pi = spec.stationary_distribution();
        assert!((pi[0] - 0.5).abs() < 1e-9 && (pi[1] - 0.5).abs() < 1e-9);
        // Periodic strict-alternation chain still converges to (1/2, 1/2).
        let alternating = Workload::mmpp(
            vec![
                MmppPhase { think_p: 1.0, hot_fraction: 0.0, hot_module: 0 },
                MmppPhase { think_p: 0.5, hot_fraction: 0.0, hot_module: 0 },
            ],
            vec![0.0, 1.0, 1.0, 0.0],
            100,
        )
        .unwrap();
        let pi = alternating.mmpp_spec().unwrap().stationary_distribution();
        assert!((pi[0] - 0.5).abs() < 1e-9 && (pi[1] - 0.5).abs() < 1e-9);
        // Asymmetric chain: stay_on = 0.9, stay_off = 0.6 → π_on = 0.8.
        let skewed = Workload::mmpp(
            vec![
                MmppPhase { think_p: 1.0, hot_fraction: 0.0, hot_module: 0 },
                MmppPhase { think_p: 0.5, hot_fraction: 0.0, hot_module: 0 },
            ],
            vec![0.9, 0.1, 0.4, 0.6],
            100,
        )
        .unwrap();
        let pi = skewed.mmpp_spec().unwrap().stationary_distribution();
        assert!((pi[0] - 0.8).abs() < 1e-9, "pi = {pi:?}");
        // Long-run reference mixture: phase 0 is hot0.5@2 (share
        // 0.5 + 0.5/4 = 0.625 at m=4), phase 1 uniform, equal weights.
        let dist = w.module_distribution(4);
        assert!((dist[2] - (0.625 + 0.25) / 2.0).abs() < 1e-9, "dist = {dist:?}");
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mmpp_classification() {
        let w = on_off();
        assert!(!w.is_uniform());
        assert!(!w.references_uniformly());
        assert!(w.has_homogeneous_thinking());
        assert!(!w.is_stationary());
        assert!(Workload::Uniform.is_stationary());
        assert!(Workload::heterogeneous([0.5, 1.0]).unwrap().is_stationary());
        assert_eq!(w.name(), "mmpp2d500");
        // Initial think probability is phase 0's.
        assert_eq!(w.think_probability(0, 0.3), 1.0);
        // Phase workloads route through the hot-spot constructor
        // (fraction 0 normalizes to Uniform → shared sampler pools).
        let spec = w.mmpp_spec().unwrap();
        assert_eq!(spec.phase_workload(0), Workload::hot_spot(0.5, 2).unwrap());
        assert_eq!(spec.phase_workload(1), Workload::Uniform);
    }

    #[test]
    fn workload_classification_and_names() {
        let uniform = Workload::Uniform;
        let hot = Workload::hot_spot(0.5, 2).unwrap();
        let weighted = Workload::weighted([1.0, 3.0]).unwrap();
        let hetero = Workload::heterogeneous([0.5, 1.0]).unwrap();
        assert!(uniform.is_uniform() && !hot.is_uniform());
        assert!(uniform.references_uniformly() && hetero.references_uniformly());
        assert!(!hot.references_uniformly() && !weighted.references_uniformly());
        assert!(hot.has_homogeneous_thinking() && !hetero.has_homogeneous_thinking());
        assert_eq!(uniform.name(), "uniform");
        assert_eq!(hot.name(), "hot0.5@2");
        assert_eq!(weighted.name(), "weighted");
        assert_eq!(hetero.name(), "hetero");
        // Uniform distribution fallback, and scalar-p fallback.
        assert_eq!(uniform.module_distribution(4), vec![0.25; 4]);
        assert_eq!(hetero.module_distribution(4), vec![0.25; 4]);
        assert_eq!(hot.think_probability(0, 0.7), 0.7);
    }
}
