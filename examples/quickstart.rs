//! Quickstart: simulate an 8×16 multiplexed single-bus system, derive
//! the §2 performance measures, and cross-check against the analytic
//! models.
//!
//! Run with: `cargo run --release --example quickstart`

use busnet::core::analytic::pfqn::pfqn_ebw;
use busnet::core::analytic::reduced::ReducedChain;
use busnet::core::params::{Buffering, BusPolicy, SystemParams, Workload};
use busnet::core::sim::bus::BusSimBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 8 processors, 16 memory modules, memory cycle = 8 bus cycles.
    let params = SystemParams::new(8, 16, 8)?;
    println!(
        "System: n = {}, m = {}, r = {} (processor cycle = {} bus cycles, EBW ceiling = {})\n",
        params.n(),
        params.m(),
        params.r(),
        params.processor_cycle(),
        params.max_ebw()
    );

    for buffering in [Buffering::Unbuffered, Buffering::Buffered] {
        let report = BusSimBuilder::new(params)
            .policy(BusPolicy::ProcessorPriority)
            .buffering(buffering)
            .seed(42)
            .warmup_cycles(20_000)
            .measure_cycles(200_000)
            .build()
            .run();
        let metrics = report.metrics();
        println!("{buffering:?} simulation:");
        println!("  EBW                 : {:.3} requests / processor cycle", metrics.ebw);
        println!("  bus utilization     : {:.1}%", metrics.bus_utilization * 100.0);
        println!("  memory utilization  : {:.1}%", metrics.memory_utilization * 100.0);
        println!("  processor efficiency: {:.1}%", metrics.processor_efficiency * 100.0);
        if let Some(w) = metrics.mean_wait_cycles {
            println!("  mean queueing wait  : {w:.2} bus cycles");
        }
        println!(
            "  measured round trip : {:.2} bus cycles (min possible {})",
            report.round_trip.mean(),
            params.processor_cycle()
        );
        println!();
    }

    // Analytic cross-checks.
    let reduced = ReducedChain::new(params).ebw()?;
    println!("Reduced (i,c,e,b) chain (unbuffered model): EBW = {reduced:.3}");
    let exponential = pfqn_ebw(&params, &Workload::Uniform)?;
    println!("Product-form model (buffered, exponential): EBW = {exponential:.3}");
    println!("\nThe exponential model is pessimistic against the constant-time");
    println!("simulation — exactly the effect paper section 6 reports.");
    Ok(())
}
