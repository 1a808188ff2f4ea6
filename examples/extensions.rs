//! Extensions beyond the paper: sensitivity of its conclusions to the
//! operation assumptions.
//!
//! * hypothesis *e* (uniform addressing) → hot-spot skew;
//! * hypothesis *h* (random arbitration) → round-robin, with fairness;
//! * §6's one-deep buffers → deeper FIFOs;
//! * single bus → multiplexed multi-channel bus;
//! * waiting-time distributions (the paper only derives means).
//!
//! Run with: `cargo run --release --example extensions`

use busnet::core::params::{Buffering, SystemParams, Workload};
use busnet::core::sim::bus::{ArbitrationKind, BusSimBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = SystemParams::new(8, 8, 8)?;
    let base = || {
        BusSimBuilder::new(params)
            .buffering(Buffering::Buffered)
            .seed(2024)
            .warmup_cycles(10_000)
            .measure_cycles(100_000)
    };

    println!("== hot-spot sensitivity (hypothesis e) ==");
    for hot in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let report = base().workload(Workload::hot_spot(hot, 0)?).build().run();
        println!(
            "  hot fraction {hot:.1}: EBW = {:.3}, fairness = {:.4}",
            report.ebw(),
            report.fairness_index()
        );
    }

    println!("\n== buffer depth (beyond the paper's one-deep proposal) ==");
    let congested = SystemParams::new(8, 4, 8)?;
    for depth in [1u32, 2, 4, 8] {
        let report = BusSimBuilder::new(congested)
            .buffering(Buffering::Depth(depth))
            .seed(11)
            .warmup_cycles(10_000)
            .measure_cycles(100_000)
            .build()
            .run();
        println!("  depth {depth}: EBW = {:.3}", report.ebw());
    }
    println!("  -> the bus, not buffer space, is the binding constraint;");
    println!("     the paper's minimal one-deep design is vindicated.");

    println!("\n== arbitration tie-breaking (hypothesis h) ==");
    for kind in [ArbitrationKind::Random, ArbitrationKind::RoundRobin] {
        let report = base().arbitration(kind).build().run();
        println!(
            "  {kind:?}: EBW = {:.3}, fairness = {:.4}, mean wait = {:.2} cycles",
            report.ebw(),
            report.fairness_index(),
            report.wait.mean()
        );
    }

    println!("\n== multiplexed channels (the multiple-bus question, revisited) ==");
    for channels in [1u32, 2, 3] {
        let report = base().channels(channels).build().run();
        println!("  channels {channels}: EBW = {:.3}", report.ebw());
    }

    println!("\n== analytic p < 1 reduced chain vs simulation (8x16, r=8) ==");
    for p10 in [3u32, 5, 7, 9] {
        let pr = f64::from(p10) / 10.0;
        let lp = SystemParams::new(8, 16, 8)?.with_request_probability(pr)?;
        let model = busnet::core::analytic::reduced::ReducedChain::new(lp).ebw()?;
        let sim = BusSimBuilder::new(lp)
            .seed(77)
            .warmup_cycles(10_000)
            .measure_cycles(100_000)
            .build()
            .run()
            .ebw();
        println!(
            "  p = {pr:.1}: model {model:.3}  sim {sim:.3}  ({:+.1}%)",
            (model - sim) / sim * 100.0
        );
    }
    println!("  -> the regime the paper could only simulate now has a model.");

    println!("\n== waiting-time distribution (8x8, r=8, buffered) ==");
    let report = base().build().run();
    let h = &report.wait_histogram;
    println!("  mean wait       : {:.2} cycles", h.mean());
    println!("  median          : <= {:.0} cycles", h.quantile(0.5));
    println!("  90th percentile : <= {:.0} cycles", h.quantile(0.9));
    println!("  99th percentile : <= {:.0} cycles", h.quantile(0.99));
    println!(
        "  waits >= one processor cycle: {:.1}%",
        h.tail_fraction(f64::from(params.processor_cycle())) * 100.0
    );
    Ok(())
}
