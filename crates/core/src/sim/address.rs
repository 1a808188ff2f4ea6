//! The shared workload samplers: module targets and think timers.
//!
//! The paper's hypothesis *e* assumes requests are uniformly
//! distributed over the `m` modules, and hypothesis *f* gives every
//! processor the same think probability `p`. The
//! [`Workload`] axis relaxes both; this
//! module holds the machinery every engine (cycle bus, event bus, and
//! cycle crossbar) samples through:
//!
//! * `ModuleSampler` — O(1) module-target draws. The uniform path is
//!   the legacy `gen_range(0..m)` call (bit-identical to the
//!   pre-workload engines); every non-uniform distribution compiles
//!   into one Walker alias table
//!   ([`busnet_sim::event::CategoricalAlias`]) whose draw cost is
//!   independent of the skew.
//! * `ThinkSampler` — per-processor geometric think timers for the
//!   event engine: one shared [`GeometricAlias`] table when thinking
//!   is homogeneous (the bit-identical legacy path), one table per
//!   processor under [`Workload::Heterogeneous`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::SmallRng;
use rand::Rng;

use busnet_sim::event::{CategoricalAlias, GeometricAlias};

use crate::cache::workload_fingerprint;
use crate::params::{MmppSpec, Workload};

/// Upper bound on entries per sampler pool. A sweep touches one entry
/// per distinct (workload, dimension) pair — typically a handful — so
/// the cap only guards against pathological churn; once full, new
/// tables are built unpooled rather than evicting.
const POOL_CAP: usize = 256;

/// A sampler pool: immutable tables shared by `Arc`, keyed by the
/// content that determines them.
type SamplerPool<K, V> = OnceLock<Mutex<HashMap<K, Arc<V>>>>;

static MODULE_POOL: SamplerPool<(String, u32), CategoricalAlias> = OnceLock::new();
static THINK_POOL: SamplerPool<(String, u32), Vec<GeometricAlias>> = OnceLock::new();
static GEOMETRIC_POOL: SamplerPool<u64, GeometricAlias> = OnceLock::new();

/// Fetches (or builds and caches) the pooled value under `key`. The
/// tables are immutable deterministic functions of their inputs, so
/// sharing one `Arc` across replications and grid points changes
/// nothing about any draw sequence.
fn pooled<K, V>(pool: &SamplerPool<K, V>, key: K, build: impl FnOnce() -> V) -> Arc<V>
where
    K: std::hash::Hash + Eq,
{
    let mut pool = pool.get_or_init(Mutex::default).lock().expect("sampler pool mutex");
    if let Some(found) = pool.get(&key) {
        return Arc::clone(found);
    }
    let built = Arc::new(build());
    if pool.len() < POOL_CAP {
        pool.insert(key, Arc::clone(&built));
    }
    built
}

/// O(1) module-target sampler shared by every engine: the uniform path
/// preserves the legacy `gen_range(0..m)` draw bit-for-bit; skewed
/// distributions go through one Walker alias table.
#[derive(Clone, Debug)]
pub(crate) enum ModuleSampler {
    /// Uniform over `0..m` (one `gen_range` draw — the pre-workload
    /// RNG stream, so `Workload::Uniform` runs stay bit-identical).
    Uniform,
    /// Alias-table draw over an arbitrary distribution (one `next_u64`
    /// regardless of skew). The table is shared through the process-wide
    /// pool: every replication and every grid point with the same
    /// `(workload, m)` reuses one immutable copy.
    Alias(Arc<CategoricalAlias>),
}

impl ModuleSampler {
    /// Builds (or fetches from the shared pool) the sampler for
    /// `workload` in an `m`-module system. The workload must already be
    /// validated (`Workload::validate`).
    ///
    /// # Panics
    ///
    /// Panics on an invalid distribution; engines validate at build
    /// time, so this indicates a builder bug.
    pub(crate) fn for_workload(workload: &Workload, m: u32) -> ModuleSampler {
        if workload.references_uniformly() {
            // The uniform path holds no table — nothing to pool.
            return ModuleSampler::Uniform;
        }
        let table = pooled(&MODULE_POOL, (workload_fingerprint(workload), m), || {
            let dist = workload.module_distribution(m);
            CategoricalAlias::new(&dist).expect("validated workload yields a distribution")
        });
        ModuleSampler::Alias(table)
    }

    /// Draws a module index in `0..m`.
    #[inline]
    pub(crate) fn sample(&self, m: usize, rng: &mut SmallRng) -> usize {
        match self {
            ModuleSampler::Uniform => rng.gen_range(0..m),
            ModuleSampler::Alias(table) => table.sample(rng),
        }
    }
}

/// Per-processor geometric think timers for the event engines: one
/// shared alias table when every processor thinks with the same `p`
/// (the legacy bit-identical path), one table per processor otherwise.
#[derive(Clone, Debug)]
pub(crate) enum ThinkSampler {
    /// One pooled table shared by all processors (homogeneous `p`).
    Shared(Arc<GeometricAlias>),
    /// One table per processor (`Workload::Heterogeneous`), the whole
    /// vector pooled per `(workload, n)`.
    PerProc(Arc<Vec<GeometricAlias>>),
}

impl ThinkSampler {
    /// Builds (or fetches from the shared pool) the timers for `n`
    /// processors under `workload`, with the scalar `p` as the
    /// homogeneous fallback.
    pub(crate) fn for_workload(workload: &Workload, n: u32, p: f64) -> ThinkSampler {
        match workload {
            Workload::Heterogeneous(probs) => {
                debug_assert_eq!(probs.len(), n as usize);
                let tables = pooled(&THINK_POOL, (workload_fingerprint(workload), n), || {
                    probs.iter().map(|&pi| GeometricAlias::new(pi)).collect()
                });
                ThinkSampler::PerProc(tables)
            }
            _ => ThinkSampler::Shared(pooled(&GEOMETRIC_POOL, p.to_bits(), || {
                GeometricAlias::new(p)
            })),
        }
    }

    /// The first cycle at or after `from` at which processor `i`'s
    /// Bernoulli coin (flipped once every `stride` cycles) succeeds;
    /// `None` once beyond `horizon`.
    #[inline]
    pub(crate) fn next_success(
        &self,
        i: usize,
        rng: &mut SmallRng,
        from: u64,
        stride: u64,
        horizon: u64,
    ) -> Option<u64> {
        match self {
            ThinkSampler::Shared(table) => table.next_success(rng, from, stride, horizon),
            ThinkSampler::PerProc(tables) => tables[i].next_success(rng, from, stride, horizon),
        }
    }
}

/// Shared phase-chain state for engines driving a [`Workload::Mmpp`]
/// bursty workload: the current phase, the per-phase pooled samplers
/// (one [`ModuleSampler`] and one [`ThinkSampler`] per phase, so a
/// phase change swaps `Arc`s instead of rebuilding tables), and the
/// deterministic dwell schedule.
///
/// The chain starts in phase 0 and steps at every boundary
/// `t = k · dwell` (`k ≥ 1`): the engine folds
/// [`MmppState::next_boundary`] into its time advance and calls
/// [`MmppState::step`] there, consuming exactly one RNG draw per
/// boundary from whichever stream the engine dedicates to the chain.
#[derive(Clone, Debug)]
pub(crate) struct MmppState {
    spec: Arc<MmppSpec>,
    phase: u32,
    /// Per-phase module samplers, pooled via the per-phase stationary
    /// workload's fingerprint.
    module_samplers: Vec<ModuleSampler>,
    /// Per-phase think samplers (every phase is homogeneous, so these
    /// pool through the geometric table pool keyed by `p`).
    think_samplers: Vec<ThinkSampler>,
}

impl MmppState {
    /// Builds the chain state for an `n × m` system. The spec must
    /// already be validated.
    pub(crate) fn new(spec: Arc<MmppSpec>, n: u32, m: u32) -> MmppState {
        let module_samplers = (0..spec.phase_count())
            .map(|s| ModuleSampler::for_workload(&spec.phase_workload(s), m))
            .collect();
        let think_samplers = (0..spec.phase_count())
            .map(|s| ThinkSampler::for_workload(&Workload::Uniform, n, spec.phases()[s].think_p))
            .collect();
        MmppState { spec, phase: 0, module_samplers, think_samplers }
    }

    /// The current phase index.
    pub(crate) fn phase(&self) -> u32 {
        self.phase
    }

    /// The current phase's think probability.
    pub(crate) fn think_p(&self) -> f64 {
        self.spec.phases()[self.phase as usize].think_p
    }

    /// The current phase's module-target sampler.
    pub(crate) fn module_sampler(&self) -> &ModuleSampler {
        &self.module_samplers[self.phase as usize]
    }

    /// The current phase's think sampler (for the event engines).
    pub(crate) fn think_sampler(&self) -> &ThinkSampler {
        &self.think_samplers[self.phase as usize]
    }

    /// The first phase boundary strictly after cycle `t`, or `None`
    /// for a single-phase (degenerate, stationary) chain, which never
    /// needs boundary processing.
    pub(crate) fn next_boundary(&self, t: u64) -> Option<u64> {
        if self.spec.phase_count() == 1 {
            return None;
        }
        let dwell = self.spec.dwell();
        Some((t / dwell + 1) * dwell)
    }

    /// Steps the chain across one boundary, drawing the next phase
    /// from the current phase's transition row (exactly one `f64` draw
    /// from `rng`). Returns the new phase.
    pub(crate) fn step(&mut self, rng: &mut SmallRng) -> u32 {
        let row = self.spec.transition_row(self.phase as usize);
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        let mut next = row.len() - 1;
        for (s, pr) in row.iter().enumerate() {
            acc += pr;
            if u < acc {
                next = s;
                break;
            }
        }
        self.phase = next as u32;
        self.phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_sampler_covers_all_modules() {
        let mut rng = SmallRng::seed_from_u64(1);
        let sampler = ModuleSampler::for_workload(&Workload::Uniform, 8);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[sampler.sample(8, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_sampler_is_bit_identical_to_gen_range() {
        // The Workload::Uniform path must consume the RNG exactly as
        // the pre-workload engines did.
        let sampler = ModuleSampler::for_workload(&Workload::Uniform, 16);
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..1_000 {
            assert_eq!(sampler.sample(16, &mut a), b.gen_range(0..16usize));
        }
    }

    #[test]
    fn hot_spot_sampler_concentrates_mass() {
        let mut rng = SmallRng::seed_from_u64(2);
        let workload = Workload::hot_spot(0.5, 0).unwrap();
        let sampler = ModuleSampler::for_workload(&workload, 8);
        let n = 100_000;
        let hits = (0..n).filter(|_| sampler.sample(8, &mut rng) == 0).count();
        // P(module 0) = 0.5 + 0.5/8 = 0.5625.
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.5625).abs() < 0.01, "hot fraction {frac}");
    }

    #[test]
    fn heterogeneous_workload_targets_uniformly() {
        let workload = Workload::heterogeneous([0.2, 1.0]).unwrap();
        assert!(matches!(ModuleSampler::for_workload(&workload, 4), ModuleSampler::Uniform));
    }

    #[test]
    fn think_sampler_is_per_processor_under_heterogeneous_traffic() {
        let workload = Workload::heterogeneous([1.0, 0.25]).unwrap();
        let think = ThinkSampler::for_workload(&workload, 2, 1.0);
        let mut rng = SmallRng::seed_from_u64(5);
        // p = 1 processors are ready immediately and consume no
        // randomness; the p = 0.25 processor lands on the flip grid.
        assert_eq!(think.next_success(0, &mut rng, 7, 10, 1_000), Some(7));
        for _ in 0..200 {
            if let Some(t) = think.next_success(1, &mut rng, 7, 10, 100_000) {
                assert!(t >= 7 && (t - 7) % 10 == 0);
            }
        }
    }

    #[test]
    fn sampler_pool_shares_tables_and_preserves_draws() {
        let workload = Workload::hot_spot(0.3, 1).unwrap();
        let a = ModuleSampler::for_workload(&workload, 8);
        let b = ModuleSampler::for_workload(&workload, 8);
        let (ModuleSampler::Alias(ta), ModuleSampler::Alias(tb)) = (&a, &b) else {
            panic!("hot-spot workloads build alias samplers");
        };
        assert!(Arc::ptr_eq(ta, tb), "identical (workload, m) shares one table");
        let hetero = Workload::heterogeneous([1.0, 0.25]).unwrap();
        let ha = ThinkSampler::for_workload(&hetero, 2, 1.0);
        let hb = ThinkSampler::for_workload(&hetero, 2, 1.0);
        let (ThinkSampler::PerProc(xa), ThinkSampler::PerProc(xb)) = (&ha, &hb) else {
            panic!("heterogeneous workloads build per-processor timers");
        };
        assert!(Arc::ptr_eq(xa, xb), "identical (workload, n) shares one timer vector");
        // Pooled draws are bit-identical to a freshly built table.
        let fresh = CategoricalAlias::new(&workload.module_distribution(8)).unwrap();
        let mut r1 = SmallRng::seed_from_u64(77);
        let mut r2 = SmallRng::seed_from_u64(77);
        for _ in 0..1_000 {
            assert_eq!(a.sample(8, &mut r1), fresh.sample(&mut r2));
        }
    }

    #[test]
    fn mmpp_state_swaps_pooled_samplers() {
        use crate::params::MmppPhase;
        let w = Workload::mmpp(
            vec![
                MmppPhase { think_p: 1.0, hot_fraction: 0.5, hot_module: 1 },
                MmppPhase { think_p: 0.25, hot_fraction: 0.0, hot_module: 0 },
            ],
            vec![0.0, 1.0, 1.0, 0.0], // strict alternation
            100,
        )
        .unwrap();
        let spec = w.mmpp_spec().unwrap();
        let mut state = MmppState::new(Arc::clone(spec), 4, 8);
        assert_eq!(state.phase(), 0);
        assert_eq!(state.think_p(), 1.0);
        // Phase 0 is a hot-spot → alias sampler, pooled with a
        // standalone build of the same phase workload.
        let standalone = ModuleSampler::for_workload(&Workload::hot_spot(0.5, 1).unwrap(), 8);
        let (ModuleSampler::Alias(a), ModuleSampler::Alias(b)) =
            (state.module_sampler(), &standalone)
        else {
            panic!("hot phase should build an alias sampler");
        };
        assert!(Arc::ptr_eq(a, b), "per-phase tables come from the shared pool");
        // Boundaries are the dwell grid.
        assert_eq!(state.next_boundary(0), Some(100));
        assert_eq!(state.next_boundary(99), Some(100));
        assert_eq!(state.next_boundary(100), Some(200));
        // Strict alternation: each step flips the phase.
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(state.step(&mut rng), 1);
        assert_eq!(state.think_p(), 0.25);
        assert!(matches!(state.module_sampler(), ModuleSampler::Uniform));
        assert_eq!(state.step(&mut rng), 0);
        // Single-phase chains never schedule boundaries.
        let single = Workload::mmpp(
            vec![MmppPhase { think_p: 0.5, hot_fraction: 0.0, hot_module: 0 }],
            vec![1.0],
            100,
        )
        .unwrap();
        let single_state = MmppState::new(Arc::clone(single.mmpp_spec().unwrap()), 2, 2);
        assert_eq!(single_state.next_boundary(0), None);
    }
}
