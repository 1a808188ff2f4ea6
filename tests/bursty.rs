//! Bursty MMPP workloads and windowed transient telemetry.
//!
//! * Stationary workloads are **unchanged** by the MMPP axis: golden
//!   fingerprints (including the hand-traced 2×1×2 saturation pin)
//!   reproduce bit-for-bit, and enabling telemetry windows perturbs no
//!   counter (windows consume no randomness).
//! * A degenerate single-phase MMPP is bit-identical to the stationary
//!   workload it collapses to: a one-phase chain schedules no
//!   transitions, so the phase RNG stream is never advanced.
//! * Phase occupancy matches the chain's stationary distribution π
//!   (chi-square over dwell counts, discounted by the chain's
//!   integrated autocorrelation time).
//! * Window spans partition the measured region exactly — including
//!   early-stop truncation — and per-window aggregates recombine to
//!   the whole-run counters bit-exactly (proptest + both engines).
//! * Cycle and event engines agree per-window at three MMPP points:
//!   order-statistic CI overlap on window-EBW trajectories plus a
//!   two-sample KS test on the pooled window-EBW distributions.
//! * The off-phase input queue drains monotonically after a burst for
//!   every FIFO depth, and deeper FIFOs hold more backlog at the edge.

mod common;

use common::stats::{
    assert_chi_square_fits, assert_ks_same_distribution, assert_windowwise_ci_overlap, master_seed,
    Estimate,
};

use busnet::core::params::{Buffering, BusPolicy, MmppPhase, SystemParams, Workload};
use busnet::core::sim::bus::{BusSimBuilder, SimReport};
use busnet::report::experiments::{bursty_draining, Effort, BURSTY_DEPTHS};
use busnet::sim::event::EngineKind;
use busnet::sim::stats::RunningStats;
use proptest::prelude::*;

/// `(n, m, r, p, buffering, policy, seed)` of one pinned bus run.
type RunConfig = (u32, u32, u32, f64, Buffering, BusPolicy, u64);

fn bus_report(engine: EngineKind, cfg: RunConfig) -> SimReport {
    let (n, m, r, p, buffering, policy, seed) = cfg;
    BusSimBuilder::new(SystemParams::new(n, m, r).unwrap().with_request_probability(p).unwrap())
        .policy(policy)
        .buffering(buffering)
        .engine(engine)
        .seed(seed)
        .warmup_cycles(2_000)
        .measure_cycles(30_000)
        .run()
}

/// The counters that must match for two runs to count as the same
/// execution: every integer, the exact sample means, and the fairness
/// split.
fn fingerprint(r: &SimReport) -> (u64, u64, u64, u64, u64, u64, u64, Vec<u64>) {
    (
        r.returns,
        r.requests_granted,
        r.bus_busy_channel_cycles,
        r.module_busy_cycles,
        r.wait.mean().to_bits(),
        r.round_trip.mean().to_bits(),
        r.events,
        r.per_processor_returns.clone(),
    )
}

/// Stationary golden fingerprints survive the MMPP axis (same pins as
/// `tests/workloads.rs`, captured before the workload refactor): the
/// stationary paths draw nothing from the phase RNG, so every counter
/// reproduces bit-for-bit.
#[test]
fn stationary_workloads_reproduce_golden_fingerprints() {
    let cycle = bus_report(
        EngineKind::Cycle,
        (8, 16, 8, 1.0, Buffering::Unbuffered, BusPolicy::ProcessorPriority, 42),
    );
    assert_eq!(
        (cycle.returns, cycle.requests_granted, cycle.bus_busy_channel_cycles, cycle.events),
        (14886, 14885, 29771, 32000)
    );
    assert_eq!(cycle.wait.mean().to_bits(), 3.4081289889150206e0f64.to_bits());
    assert_eq!(cycle.round_trip.mean().to_bits(), 1.612091898428049e1f64.to_bits());

    let event = bus_report(
        EngineKind::Event,
        (8, 16, 8, 1.0, Buffering::Unbuffered, BusPolicy::ProcessorPriority, 42),
    );
    assert_eq!(
        (event.returns, event.requests_granted, event.bus_busy_channel_cycles, event.events),
        (14890, 14891, 29781, 63537)
    );
    assert_eq!(event.wait.mean().to_bits(), 3.4121952857430555e0f64.to_bits());
    assert_eq!(event.round_trip.mean().to_bits(), 1.6117595701813244e1f64.to_bits());
}

/// The hand-traced 2×1×2 saturation pin still holds, and enabling
/// telemetry windows changes **no** counter: window accounting is pure
/// bookkeeping on the same execution (zero RNG draws).
#[test]
fn saturation_pin_holds_and_windows_are_rng_inert() {
    for engine in [EngineKind::Cycle, EngineKind::Event] {
        for (buffering, expected) in [(Buffering::Unbuffered, 1_000), (Buffering::Buffered, 2_000)]
        {
            let build = || {
                BusSimBuilder::new(SystemParams::new(2, 1, 2).unwrap())
                    .buffering(buffering)
                    .workload(Workload::Uniform)
                    .engine(engine)
                    .seed(3)
                    .warmup_cycles(40)
                    .measure_cycles(4_000)
            };
            let plain = build().run();
            assert_eq!(plain.returns, expected, "{engine:?} {buffering:?}");
            assert!((plain.ebw() - expected as f64 / 1_000.0).abs() < 1e-12);
            assert!(plain.windows.is_none());

            let windowed = build().window_cycles(250).run();
            assert_eq!(
                fingerprint(&plain),
                fingerprint(&windowed),
                "{engine:?} {buffering:?}: telemetry windows must not perturb the run"
            );
            let series = windowed.windows.expect("windowed run must carry telemetry");
            assert_eq!(series.windows.len(), 16);
        }
    }
}

/// A single-phase MMPP chain is *degenerate*: it has no boundaries to
/// schedule, never advances the phase RNG, and its one phase replaces
/// the scalar think probability with the same value — so the run is
/// bit-identical to the stationary workload it collapses to, windows
/// or not.
#[test]
fn degenerate_single_phase_mmpp_is_bit_identical_to_uniform() {
    let degenerate = Workload::mmpp(
        vec![MmppPhase { think_p: 0.7, hot_fraction: 0.0, hot_module: 0 }],
        vec![1.0],
        64,
    )
    .unwrap();
    for engine in [EngineKind::Cycle, EngineKind::Event] {
        for buffering in [Buffering::Unbuffered, Buffering::Depth(2)] {
            let run = |workload: Workload, windows: Option<u64>| {
                let mut b = BusSimBuilder::new(
                    SystemParams::new(8, 8, 6).unwrap().with_request_probability(0.7).unwrap(),
                )
                .buffering(buffering)
                .workload(workload)
                .engine(engine)
                .seed(master_seed())
                .warmup_cycles(1_000)
                .measure_cycles(20_000);
                if let Some(width) = windows {
                    b = b.window_cycles(width);
                }
                b.run()
            };
            let uniform = run(Workload::Uniform, None);
            let mmpp = run(degenerate.clone(), None);
            assert_eq!(fingerprint(&uniform), fingerprint(&mmpp), "{engine:?} {buffering:?}");
            assert_eq!(uniform.per_module_requests, mmpp.per_module_requests);

            // Telemetry on the degenerate chain: still the same
            // execution, every measured cycle tagged phase 0.
            let windowed = run(degenerate.clone(), Some(500));
            assert_eq!(
                fingerprint(&uniform),
                fingerprint(&windowed),
                "{engine:?} {buffering:?} (windowed)"
            );
            let series = windowed.windows.expect("windowed run must carry telemetry");
            assert_eq!(series.phase_cycles, vec![windowed.measured_cycles]);
            assert!(series.windows.iter().all(|w| w.phase == Some(0)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Measured phase occupancy matches the chain's stationary
    /// distribution π. Dwell intervals are serially correlated (the
    /// second eigenvalue of a two-state chain is
    /// `λ₂ = stay_on + stay_off − 1`), so the dwell counts are
    /// discounted by the integrated autocorrelation time
    /// `τ = (1 + |λ₂|) / (1 − |λ₂|)` before the chi-square bound.
    #[test]
    fn phase_occupancy_matches_the_chains_stationary_distribution(
        stay_on in 0.30f64..0.70,
        stay_off in 0.30f64..0.70,
        dwell in 40u64..120,
        seed in 0u64..1_000,
    ) {
        let workload = Workload::mmpp(
            vec![
                MmppPhase { think_p: 0.9, hot_fraction: 0.0, hot_module: 0 },
                MmppPhase { think_p: 0.3, hot_fraction: 0.0, hot_module: 0 },
            ],
            vec![stay_on, 1.0 - stay_on, 1.0 - stay_off, stay_off],
            dwell,
        )
        .unwrap();
        let pi = workload.mmpp_spec().unwrap().stationary_distribution();
        let report = BusSimBuilder::new(SystemParams::new(4, 4, 4).unwrap())
            .workload(workload)
            .engine(EngineKind::Event)
            .window_cycles(dwell)
            .seed(master_seed() ^ seed.wrapping_mul(0x9E37_79B9))
            .warmup_cycles(0)
            .measure_cycles(dwell * 800)
            .run();
        let series = report.windows.unwrap();
        let lambda2 = (stay_on + stay_off - 1.0).abs();
        let tau = (1.0 + lambda2) / (1.0 - lambda2);
        let observed: Vec<u64> = series
            .phase_cycles
            .iter()
            .map(|&c| ((c as f64 / dwell as f64) / tau).round() as u64)
            .collect();
        assert_chi_square_fits("phase occupancy", &observed, &pi);
    }

    /// Window spans partition the measured region exactly, under
    /// arbitrary warmup / width / early-stop truncation: contiguous
    /// starts, all-but-last windows at full width, and per-window
    /// aggregates recombining to the whole-run counters bit-exactly.
    #[test]
    fn windows_partition_the_measured_region_under_truncation(
        warmup in 0u64..300,
        measure in 600u64..3_000,
        width in 16u64..257,
        stop_frac in 0.1f64..1.0,
        seed in 0u64..1_000,
    ) {
        let sim = BusSimBuilder::new(SystemParams::new(4, 4, 4).unwrap())
            .workload(Workload::on_off_burst(0.9, 0.2, 0.6, 64, None).unwrap())
            .window_cycles(width)
            .seed(master_seed() ^ seed)
            .warmup_cycles(warmup)
            .measure_cycles(measure)
            .build();
        let t = warmup + ((measure as f64 * stop_frac) as u64).max(1);
        let report = sim.finish_at(t);
        let series = report.windows.as_ref().expect("windowed run must carry telemetry");

        let mut cursor = warmup;
        for w in &series.windows {
            prop_assert_eq!(w.start, cursor);
            prop_assert!(w.cycles >= 1 && w.cycles <= width);
            cursor += w.cycles;
        }
        prop_assert_eq!(cursor - warmup, report.measured_cycles);
        for w in &series.windows[..series.windows.len().saturating_sub(1)] {
            prop_assert_eq!(w.cycles, width);
        }

        let returns: u64 = series.windows.iter().map(|w| w.returns).sum();
        let busy: u64 = series.windows.iter().map(|w| w.busy_channel_cycles).sum();
        let levels: u64 = series.windows.iter().map(|w| w.input_level_cycles).sum();
        prop_assert_eq!(returns, report.returns);
        prop_assert_eq!(busy, report.bus_busy_channel_cycles);
        prop_assert_eq!(levels, report.per_module_input_level_cycles.iter().sum::<u64>());
        prop_assert_eq!(series.phase_cycles.iter().sum::<u64>(), report.measured_cycles);
    }
}

/// Whole-run metrics recombine from the windows **bit-exactly** on
/// both engines at a live MMPP point: EBW rebuilt from pooled window
/// integers equals `SimReport::ebw()` to the last bit.
#[test]
fn window_aggregates_recombine_bit_exactly_on_both_engines() {
    let workload = Workload::on_off_burst(1.0, 0.1, 0.85, 250, Some((0.4, 0))).unwrap();
    for engine in [EngineKind::Cycle, EngineKind::Event] {
        let report = BusSimBuilder::new(SystemParams::new(8, 16, 8).unwrap())
            .workload(workload.clone())
            .buffering(Buffering::Depth(2))
            .engine(engine)
            .window_cycles(250)
            .seed(master_seed())
            .warmup_cycles(2_000)
            .measure_cycles(20_000)
            .run();
        let series = report.windows.as_ref().unwrap();
        let returns: u64 = series.windows.iter().map(|w| w.returns).sum();
        let cycles: u64 = series.windows.iter().map(|w| w.cycles).sum();
        assert_eq!(returns, report.returns, "{engine:?}");
        assert_eq!(cycles, report.measured_cycles, "{engine:?}");
        let rebuilt = returns as f64 * 10.0 / cycles as f64; // rc = r + 2 = 10
        assert_eq!(rebuilt.to_bits(), report.ebw().to_bits(), "{engine:?}");
    }
}

/// One engine's sorted window-EBW trajectory across replications,
/// summarized per order-statistic index. The two engines' phase chains
/// are RNG-independent, so raw window indices cannot be paired; the
/// *order statistics* of the window-EBW distribution are the
/// engine-invariant view.
/// `(n, m, r, workload, dwell)` of one MMPP point.
type MmppPoint = (u32, u32, u32, Workload, u64);

fn sorted_window_ebw_stats(
    engine: EngineKind,
    point: &MmppPoint,
    reps: u64,
    index: u64,
) -> (Vec<RunningStats>, Vec<f64>) {
    let (n, m, r, ref workload, dwell) = *point;
    let rc = r + 2;
    let mut per_index: Vec<RunningStats> = Vec::new();
    let mut pooled = Vec::new();
    for rep in 0..reps {
        let report = BusSimBuilder::new(SystemParams::new(n, m, r).unwrap())
            .workload(workload.clone())
            .engine(engine)
            .window_cycles(dwell)
            .seed(
                master_seed()
                    .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(rep.wrapping_mul(0x0123_4567_89AB_CDEF)),
            )
            .warmup_cycles(1_000)
            .measure_cycles(dwell * 40)
            .run();
        let series = report.windows.unwrap();
        let mut ebw: Vec<f64> =
            series.windows.iter().filter(|w| w.cycles == series.width).map(|w| w.ebw(rc)).collect();
        ebw.sort_by(f64::total_cmp);
        pooled.extend_from_slice(&ebw);
        per_index.resize_with(per_index.len().max(ebw.len()), RunningStats::default);
        for (stats, x) in per_index.iter_mut().zip(ebw) {
            stats.push(x);
        }
    }
    (per_index, pooled)
}

/// Cycle and event engines agree **per-window** at three MMPP points:
/// at every order-statistic index of the window-EBW trajectory the 95%
/// intervals across replications overlap, and the pooled window-EBW
/// samples pass a two-sample KS test — the whole transient
/// distribution matches, not just its mean.
#[test]
fn engines_agree_per_window_at_mmpp_points() {
    let points: [MmppPoint; 3] = [
        (8, 16, 8, Workload::on_off_burst(1.0, 0.1, 0.85, 250, None).unwrap(), 250),
        (8, 8, 6, Workload::on_off_burst(0.9, 0.2, 0.7, 150, Some((0.5, 0))).unwrap(), 150),
        (4, 4, 4, Workload::on_off_burst(0.8, 0.3, 0.6, 100, None).unwrap(), 100),
    ];
    for (idx, point) in points.iter().enumerate() {
        let (n, m, r, ..) = point;
        let label = format!("mmpp point {idx} ({n}x{m}, r={r})");
        let reps = 5;
        let (cycle, cycle_pool) =
            sorted_window_ebw_stats(EngineKind::Cycle, point, reps, idx as u64);
        let (event, event_pool) =
            sorted_window_ebw_stats(EngineKind::Event, point, reps, idx as u64);

        let estimates = |stats: &[RunningStats]| -> Vec<Estimate> {
            stats.iter().map(|s| (s.mean(), s.half_width_95())).collect()
        };
        assert_windowwise_ci_overlap(&label, &estimates(&cycle), &estimates(&event), 0.20, 0.85);
        assert_ks_same_distribution(&label, &cycle_pool, &event_pool);
    }
}

/// The §6 burst-draining regression: after the chain drops to the off
/// phase, the mean input queue decays monotonically window over
/// window, for every FIFO depth — and a deeper FIFO holds more
/// backlog at the burst edge.
#[test]
fn off_phase_input_queue_drains_monotonically() {
    let report = bursty_draining(Effort::Quick).unwrap();
    assert_eq!(report.points.len(), BURSTY_DEPTHS.len());
    for point in &report.points {
        assert!(
            point.drain.len() >= 3,
            "depth {}: need at least three off-phase drain positions, got {}",
            point.depth,
            point.drain.len()
        );
        assert!(
            point.drain[0] > point.drain[1] && point.drain[1] > point.drain[2],
            "depth {}: off-phase queue must decay monotonically, got {:?}",
            point.depth,
            &point.drain[..3]
        );
        assert!(
            point.on_ebw > point.off_ebw,
            "depth {}: on-phase EBW {:.3} must exceed off-phase EBW {:.3}",
            point.depth,
            point.on_ebw,
            point.off_ebw
        );
    }
    let (k1, k4) = (&report.points[0], &report.points[1]);
    assert!(
        k4.drain[0] > k1.drain[0],
        "deeper FIFOs hold more backlog at the burst edge: k=4 {:.3} vs k=1 {:.3}",
        k4.drain[0],
        k1.drain[0]
    );
}
