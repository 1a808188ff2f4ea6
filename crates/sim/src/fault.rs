//! Deterministic fault injection for exercising the sweep supervisor.
//!
//! A [`FaultPlan`] is a seeded, named-site fault generator: every
//! injection decision is a pure function of `(plan seed, site, unit
//! key, attempt)`, so a chaos run is exactly reproducible — rerunning
//! the same sweep under the same plan injects the same panics, delays,
//! and journal I/O errors at the same work units, regardless of thread
//! count or scheduling. That determinism is what lets the chaos suite
//! assert that every *surviving* point is bit-identical to a
//! fault-free run.
//!
//! Sites ([`FaultSite`]):
//!
//! * `unit-panic` — the work unit panics before evaluating (caught by
//!   the supervisor's `catch_unwind`, classified, and retried).
//! * `unit-delay` — the work unit sleeps [`FaultPlan::delay_ms`]
//!   before evaluating (exercises the wall-clock budget watchdog).
//! * `journal-append` — an evaluation-cache journal append fails as if
//!   the disk write errored (the record survives in memory only).
//! * `journal-load` — a journal line fails to load as if torn/corrupt
//!   (exercises the skip-and-warn recovery path).
//!
//! Plans parse from a colon-separated spec (`--fault-plan` /
//! `BUSNET_FAULT_PLAN`):
//!
//! ```text
//! seed=7:rate=0.3                      # all sites, 30% per decision
//! seed=7:rate=0.3:sites=unit-panic     # panics only
//! seed=7:rate=0.5:sites=unit-panic,journal-append:delay-ms=40
//! ```
//!
//! ```
//! use busnet_sim::fault::{FaultPlan, FaultSite};
//!
//! // `parse` returns Ok(None) for "off"/empty specs, hence the double unwrap.
//! let plan = FaultPlan::parse("seed=7:rate=0.5:sites=unit-panic").unwrap().unwrap();
//! // Decisions are deterministic: same (site, key, attempt) -> same verdict.
//! let a = plan.fires(FaultSite::UnitPanic, 3, 0);
//! assert_eq!(a, plan.fires(FaultSite::UnitPanic, 3, 0));
//! // Disarmed sites never fire.
//! assert!(!plan.fires(FaultSite::UnitDelay, 3, 0));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Marker embedded in every injected panic payload, so panic hooks and
/// tests can tell injected faults from genuine bugs.
pub const INJECTED_PANIC_MARKER: &str = "busnet-fault-injected";

/// A named location where a [`FaultPlan`] may inject a failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic at the top of a work unit's evaluation attempt.
    UnitPanic,
    /// Sleep [`FaultPlan::delay_ms`] at the top of an attempt.
    UnitDelay,
    /// Fail an evaluation-cache journal append.
    JournalAppend,
    /// Fail loading one evaluation-cache journal line.
    JournalLoad,
}

/// Every site, in spec/reporting order.
pub const ALL_FAULT_SITES: [FaultSite; 4] =
    [FaultSite::UnitPanic, FaultSite::UnitDelay, FaultSite::JournalAppend, FaultSite::JournalLoad];

impl FaultSite {
    /// Stable spec name (`unit-panic`, `unit-delay`, `journal-append`,
    /// `journal-load`).
    pub fn name(&self) -> &'static str {
        match self {
            FaultSite::UnitPanic => "unit-panic",
            FaultSite::UnitDelay => "unit-delay",
            FaultSite::JournalAppend => "journal-append",
            FaultSite::JournalLoad => "journal-load",
        }
    }

    /// Parses a spec name back into a site.
    pub fn from_name(name: &str) -> Option<FaultSite> {
        ALL_FAULT_SITES.into_iter().find(|s| s.name() == name)
    }

    fn bit(self) -> u8 {
        match self {
            FaultSite::UnitPanic => 1,
            FaultSite::UnitDelay => 2,
            FaultSite::JournalAppend => 4,
            FaultSite::JournalLoad => 8,
        }
    }

    fn salt(self) -> u64 {
        // Distinct odd salts decorrelate the per-site decision streams.
        match self {
            FaultSite::UnitPanic => 0x9E37_79B9_7F4A_7C15,
            FaultSite::UnitDelay => 0xBF58_476D_1CE4_E5B9,
            FaultSite::JournalAppend => 0x94D0_49BB_1331_11EB,
            FaultSite::JournalLoad => 0xD6E8_FEB8_6659_FD93,
        }
    }
}

/// How many faults a plan has injected, by site. Counters are shared
/// across clones of the plan (the sweep and the cache hold the same
/// plan), so one snapshot covers the whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Panics injected at `unit-panic`.
    pub panics: u64,
    /// Delays injected at `unit-delay`.
    pub delays: u64,
    /// Journal appends failed at `journal-append`.
    pub append_errors: u64,
    /// Journal lines failed at `journal-load`.
    pub load_errors: u64,
}

impl FaultStats {
    /// Total injected faults across all sites.
    pub fn total(&self) -> u64 {
        self.panics + self.delays + self.append_errors + self.load_errors
    }
}

#[derive(Debug, Default)]
struct Counters {
    panics: AtomicU64,
    delays: AtomicU64,
    append_errors: AtomicU64,
    load_errors: AtomicU64,
}

/// A seeded, deterministic fault generator (see the module docs).
/// Clones share their injection counters.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
    sites: u8,
    delay_ms: u64,
    counters: Arc<Counters>,
}

impl FaultPlan {
    /// A plan firing every site independently with probability `rate`
    /// per decision.
    ///
    /// # Errors
    ///
    /// When `rate` is not a probability in `[0, 1]`.
    pub fn new(seed: u64, rate: f64) -> Result<FaultPlan, String> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault rate {rate} must lie in [0, 1]"));
        }
        Ok(FaultPlan {
            seed,
            rate,
            sites: ALL_FAULT_SITES.iter().fold(0, |acc, s| acc | s.bit()),
            delay_ms: 25,
            counters: Arc::new(Counters::default()),
        })
    }

    /// Restricts the plan to the given sites.
    pub fn with_sites(mut self, sites: &[FaultSite]) -> FaultPlan {
        self.sites = sites.iter().fold(0, |acc, s| acc | s.bit());
        self
    }

    /// Overrides the injected delay duration.
    pub fn with_delay_ms(mut self, delay_ms: u64) -> FaultPlan {
        self.delay_ms = delay_ms;
        self
    }

    /// Parses a `seed=S:rate=R[:sites=a,b][:delay-ms=D]` spec.
    /// `off`/`none` parse to `None` (no plan).
    ///
    /// # Errors
    ///
    /// On unknown keys, unknown site names, or out-of-range values.
    pub fn parse(spec: &str) -> Result<Option<FaultPlan>, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "off" || spec == "none" {
            return Ok(None);
        }
        let mut seed = None;
        let mut rate = None;
        let mut sites: Option<Vec<FaultSite>> = None;
        let mut delay_ms = None;
        for part in spec.split(':') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad fault-plan part `{part}` (expected key=value)"))?;
            match key {
                "seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad fault-plan seed `{value}`"))?,
                    );
                }
                "rate" => {
                    rate = Some(
                        value
                            .parse::<f64>()
                            .map_err(|_| format!("bad fault-plan rate `{value}`"))?,
                    );
                }
                "sites" => {
                    sites = Some(
                        value
                            .split(',')
                            .map(|name| {
                                FaultSite::from_name(name).ok_or_else(|| {
                                    format!(
                                        "unknown fault site `{name}` (expected one of \
                                         unit-panic, unit-delay, journal-append, journal-load)"
                                    )
                                })
                            })
                            .collect::<Result<_, _>>()?,
                    );
                }
                "delay-ms" => {
                    delay_ms = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad fault-plan delay-ms `{value}`"))?,
                    );
                }
                other => return Err(format!("unknown fault-plan key `{other}`")),
            }
        }
        let rate = rate.ok_or("fault plan needs rate=R")?;
        let mut plan = FaultPlan::new(seed.unwrap_or(0x5EED_FA11), rate)?;
        if let Some(sites) = sites {
            plan = plan.with_sites(&sites);
        }
        if let Some(delay_ms) = delay_ms {
            plan = plan.with_delay_ms(delay_ms);
        }
        Ok(Some(plan))
    }

    /// The plan named by the `BUSNET_FAULT_PLAN` environment variable,
    /// if set and valid (invalid specs are reported, not fatal —
    /// chaos amplification must never break a production run).
    pub fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var("BUSNET_FAULT_PLAN").ok()?;
        match FaultPlan::parse(&spec) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("warning: ignoring BUSNET_FAULT_PLAN `{spec}`: {e}");
                None
            }
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-decision fault probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The injected sleep duration at `unit-delay`.
    pub fn delay_ms(&self) -> u64 {
        self.delay_ms
    }

    /// Whether `site` is armed at a nonzero rate.
    pub fn armed(&self, site: FaultSite) -> bool {
        self.rate > 0.0 && self.sites & site.bit() != 0
    }

    /// Spec round-trip (for reports and logs).
    pub fn spec(&self) -> String {
        let sites: Vec<&str> = ALL_FAULT_SITES
            .iter()
            .filter(|s| self.sites & s.bit() != 0)
            .map(|s| s.name())
            .collect();
        format!("seed={}:rate={}:sites={}", self.seed, self.rate, sites.join(","))
    }

    /// The deterministic injection verdict at `(site, key, attempt)`.
    /// `key` identifies the decision point (work-unit index, journal
    /// line number, record-key hash); `attempt` separates retry
    /// attempts so a retried unit is not doomed to refire forever.
    pub fn fires(&self, site: FaultSite, key: u64, attempt: u64) -> bool {
        if !self.armed(site) {
            return false;
        }
        let mut h = self
            .seed
            .wrapping_add(site.salt())
            .wrapping_add(key.wrapping_mul(0xA24B_AED4_963E_E407))
            .wrapping_add(attempt.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        // SplitMix64 finalizer: uniform output bits from sequential keys.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.rate
    }

    /// Runs the work-unit injection sites for unit `unit` of sweep
    /// pair `pair` at `attempt`: sleeps if `unit-delay` fires, then
    /// panics if `unit-panic` fires (the payload carries
    /// [`INJECTED_PANIC_MARKER`]). The decision key is the unit's
    /// `(pair, unit)` identity, never its position in a job queue, so
    /// the same units fail whatever a cache or screen settled first.
    /// Call under the supervisor's `catch_unwind`.
    pub fn inject_unit(&self, pair: u64, unit: u32, attempt: u64) {
        let key = (pair << 32) | u64::from(unit);
        if self.fires(FaultSite::UnitDelay, key, attempt) {
            self.counters.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
        }
        if self.fires(FaultSite::UnitPanic, key, attempt) {
            self.counters.panics.fetch_add(1, Ordering::Relaxed);
            panic!("{INJECTED_PANIC_MARKER}: pair {pair} unit {unit} attempt {attempt}");
        }
    }

    /// Whether a journal append keyed by `key` should fail this time
    /// (counted when it does).
    pub fn journal_append_fails(&self, key: u64) -> bool {
        let fires = self.fires(FaultSite::JournalAppend, key, 0);
        if fires {
            self.counters.append_errors.fetch_add(1, Ordering::Relaxed);
        }
        fires
    }

    /// Whether loading journal line `line` should fail (counted when
    /// it does).
    pub fn journal_load_fails(&self, line: u64) -> bool {
        let fires = self.fires(FaultSite::JournalLoad, line, 0);
        if fires {
            self.counters.load_errors.fetch_add(1, Ordering::Relaxed);
        }
        fires
    }

    /// Snapshot of the injected-fault counters (shared across clones).
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            panics: self.counters.panics.load(Ordering::Relaxed),
            delays: self.counters.delays.load(Ordering::Relaxed),
            append_errors: self.counters.append_errors.load(Ordering::Relaxed),
            load_errors: self.counters.load_errors.load(Ordering::Relaxed),
        }
    }
}

/// Chains the current panic hook with a filter that drops injected
/// panics (payloads carrying [`INJECTED_PANIC_MARKER`]): under an armed
/// fault plan they are expected control flow, and the default hook's
/// backtrace per injection would bury real diagnostics. Real panics
/// still reach the previous hook. Install once per process, before
/// running faulted work.
pub fn silence_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains(INJECTED_PANIC_MARKER))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains(INJECTED_PANIC_MARKER));
        if !injected {
            previous(info);
        }
    }));
}

/// FNV-1a hash of a string key, for keying journal-append decisions on
/// record content rather than insertion order (order varies across
/// thread counts; content does not).
pub fn fnv1a(key: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_bounded() {
        let plan = FaultPlan::new(1985, 0.3).unwrap();
        let fired: Vec<bool> = (0..1000).map(|k| plan.fires(FaultSite::UnitPanic, k, 0)).collect();
        let again: Vec<bool> = (0..1000).map(|k| plan.fires(FaultSite::UnitPanic, k, 0)).collect();
        assert_eq!(fired, again);
        let hits = fired.iter().filter(|&&f| f).count();
        // 1000 Bernoulli(0.3) draws: ~300 +- 45 at 3 sigma.
        assert!((155..=445).contains(&hits), "hit count {hits} wildly off the 0.3 rate");
    }

    #[test]
    fn rate_extremes() {
        let never = FaultPlan::new(7, 0.0).unwrap();
        let always = FaultPlan::new(7, 1.0).unwrap();
        for k in 0..100 {
            assert!(!never.fires(FaultSite::UnitPanic, k, 0));
            assert!(always.fires(FaultSite::UnitPanic, k, 0));
        }
        assert!(FaultPlan::new(7, 1.5).is_err());
        assert!(FaultPlan::new(7, -0.1).is_err());
        assert!(FaultPlan::new(7, f64::NAN).is_err());
    }

    #[test]
    fn attempts_decorrelate() {
        // A retried unit must not be doomed: across many keys, some
        // attempt-0 failures succeed on attempt 1.
        let plan = FaultPlan::new(42, 0.5).unwrap();
        let escaped = (0..200)
            .filter(|&k| {
                plan.fires(FaultSite::UnitPanic, k, 0) && !plan.fires(FaultSite::UnitPanic, k, 1)
            })
            .count();
        assert!(escaped > 10, "only {escaped} of ~50 expected retry escapes");
    }

    #[test]
    fn sites_are_independent_masks() {
        let plan = FaultPlan::new(9, 1.0).unwrap().with_sites(&[FaultSite::JournalAppend]);
        assert!(plan.armed(FaultSite::JournalAppend));
        assert!(!plan.armed(FaultSite::UnitPanic));
        assert!(!plan.fires(FaultSite::UnitPanic, 0, 0));
        assert!(plan.fires(FaultSite::JournalAppend, 0, 0));
    }

    #[test]
    fn spec_parsing_round_trips() {
        let plan = FaultPlan::parse("seed=7:rate=0.25:sites=unit-panic,journal-load:delay-ms=5")
            .unwrap()
            .unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.rate(), 0.25);
        assert_eq!(plan.delay_ms(), 5);
        assert!(plan.armed(FaultSite::UnitPanic));
        assert!(plan.armed(FaultSite::JournalLoad));
        assert!(!plan.armed(FaultSite::UnitDelay));
        assert_eq!(plan.spec(), "seed=7:rate=0.25:sites=unit-panic,journal-load");
        assert!(FaultPlan::parse("off").unwrap().is_none());
        assert!(FaultPlan::parse("").unwrap().is_none());
        assert!(FaultPlan::parse("rate=2").is_err());
        assert!(FaultPlan::parse("seed=1").is_err());
        assert!(FaultPlan::parse("sites=bogus:rate=0.1").is_err());
        assert!(FaultPlan::parse("seed=x:rate=0.1").is_err());
    }

    #[test]
    fn counters_are_shared_across_clones() {
        let plan = FaultPlan::new(3, 1.0).unwrap();
        let clone = plan.clone();
        assert!(clone.journal_append_fails(1));
        assert!(plan.journal_load_fails(1));
        let stats = plan.stats();
        assert_eq!(stats.append_errors, 1);
        assert_eq!(stats.load_errors, 1);
        assert_eq!(stats.total(), 2);
        assert_eq!(clone.stats(), stats);
    }

    #[test]
    fn injected_panic_carries_marker() {
        let plan = FaultPlan::new(5, 1.0).unwrap().with_sites(&[FaultSite::UnitPanic]);
        let caught = std::panic::catch_unwind(|| plan.inject_unit(0, 0, 0));
        let payload = caught.unwrap_err();
        let message = payload.downcast_ref::<String>().expect("string payload");
        assert!(message.contains(INJECTED_PANIC_MARKER));
        assert_eq!(plan.stats().panics, 1);
    }
}
