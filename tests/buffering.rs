//! The §6 buffering study: gains, saturation, and the crossbar limit.

use busnet::core::analytic::crossbar::crossbar_ebw_exact;
use busnet::core::params::{Buffering, SystemParams};
use busnet::core::scenario::{BusSimEval, Evaluator, Scenario, SimBudget};

fn sim(params: SystemParams, buffering: Buffering) -> f64 {
    let budget =
        SimBudget { replications: 3, warmup: 4_000, measure: 40_000, ..SimBudget::paper() };
    let scenario = Scenario::new(params).with_buffering(buffering);
    BusSimEval::new(budget).evaluate(&scenario).unwrap().ebw()
}

#[test]
fn buffering_never_hurts() {
    for (n, m, r) in
        [(8u32, 4u32, 8u32), (8, 8, 8), (8, 16, 8), (8, 16, 16), (4, 4, 4), (16, 8, 12)]
    {
        let params = SystemParams::new(n, m, r).unwrap();
        let plain = sim(params, Buffering::Unbuffered);
        let buffered = sim(params, Buffering::Buffered);
        assert!(
            buffered >= plain - 0.03,
            "buffering hurt at ({n},{m},{r}): {buffered:.3} vs {plain:.3}"
        );
    }
}

#[test]
fn buffering_gain_grows_with_memory_pressure() {
    // §6: "the effect of buffering is proportionally larger as the
    // difference (n-m) increases".
    let gain = |m: u32| {
        let params = SystemParams::new(8, m, 8).unwrap();
        sim(params, Buffering::Buffered) / sim(params, Buffering::Unbuffered)
    };
    let tight = gain(4); // n - m = 4
    let loose = gain(16); // n - m = -8
    assert!(
        tight > loose,
        "buffering gain should grow with memory pressure: m=4 gain {tight:.3} vs m=16 gain {loose:.3}"
    );
}

#[test]
fn buffered_system_saturates_until_r_near_min_nm() {
    // §7: "operates in saturation (no underutilization) until r
    // approaches the value of MIN(n,m)".
    for r in [2u32, 4, 6] {
        let params = SystemParams::new(8, 16, r).unwrap();
        let measured = sim(params, Buffering::Buffered);
        assert!(
            measured >= params.max_ebw() * 0.98,
            "not saturated at r={r}: {measured:.3} vs ceiling {}",
            params.max_ebw()
        );
    }
}

#[test]
fn buffered_ebw_decays_toward_crossbar_for_large_r() {
    // §6: "when r increases, the buffered single-bus EBW tends to the
    // crossbar corresponding values". Measured: the limit is the
    // *queueing* crossbar (requests wait in the module buffers instead
    // of being resubmitted), which sits slightly above the classic
    // resubmission-crossbar chain — e.g. ≈3.50 vs 3.27 on 8×4, matching
    // the paper's own Table 4 m=4 row (3.499 at r=24). We assert the
    // decay shape and the band.
    let crossbar = crossbar_ebw_exact(8, 4).unwrap();
    let peak = sim(SystemParams::new(8, 4, 8).unwrap(), Buffering::Buffered);
    let tail = sim(SystemParams::new(8, 4, 24).unwrap(), Buffering::Buffered);
    assert!(peak > tail + 0.2, "EBW should decay past the peak: {peak:.3} -> {tail:.3}");
    assert!(tail >= crossbar - 0.05, "tail {tail:.3} below crossbar {crossbar:.3}");
    assert!(tail < crossbar * 1.10, "tail {tail:.3} too far above crossbar {crossbar:.3}");
    // And the tail matches the paper's Table 4 print.
    assert!((tail - 3.499).abs() / 3.499 < 0.02, "tail {tail:.3} vs paper 3.499");
}

#[test]
fn buffered_16x16_r18_performs_like_16x16_crossbar() {
    // §7's headline claim.
    let crossbar = crossbar_ebw_exact(16, 16).unwrap();
    let buffered = sim(SystemParams::new(16, 16, 18).unwrap(), Buffering::Buffered);
    assert!(
        (buffered - crossbar).abs() / crossbar < 0.02,
        "buffered 16x16 r=18 {buffered:.3} vs crossbar {crossbar:.3}"
    );
}

#[test]
fn buffers_help_less_at_light_load() {
    // §7: "the positive influence of buffering becomes less effective
    // as p decreases".
    let gain_at = |p: f64| {
        let params = SystemParams::new(8, 8, 8).unwrap().with_request_probability(p).unwrap();
        sim(params, Buffering::Buffered) - sim(params, Buffering::Unbuffered)
    };
    let heavy = gain_at(1.0);
    let light = gain_at(0.3);
    assert!(
        heavy > light - 0.02,
        "buffering gain should shrink with load: p=1 {heavy:.3} vs p=0.3 {light:.3}"
    );
}
