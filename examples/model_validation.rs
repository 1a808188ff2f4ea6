//! The §5/§6 validation claims: how close are the paper's analytic
//! models to the simulated system, and how wrong is the exponential
//! assumption?
//!
//! Run with: `cargo run --release --example model_validation [-- --quick]`

use busnet::core::analytic::pfqn::pfqn_ebw;
use busnet::core::params::{Buffering, SystemParams, Workload};
use busnet::core::sim::bus::BusSimBuilder;
use busnet::core::sim::service::ServiceTime;
use busnet::report::experiments::{model_validation, Effort};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let effort =
        if std::env::args().any(|a| a == "--quick") { Effort::Quick } else { Effort::Paper };

    println!("{}", model_validation(effort)?);

    // The §6 service-time experiment in detail: constant vs geometric
    // (discrete exponential) service in the same buffered simulator,
    // against the MVA prediction.
    println!("Service-time characterization (buffered 8x8, r = 8):");
    let params = SystemParams::new(8, 8, 8)?;
    let constant = BusSimBuilder::new(params)
        .buffering(Buffering::Buffered)
        .seed(7)
        .warmup_cycles(20_000)
        .measure_cycles(200_000)
        .build()
        .run();
    let geometric = BusSimBuilder::new(params)
        .buffering(Buffering::Buffered)
        .memory_service(ServiceTime::Geometric { mean: 8.0 })
        .seed(7)
        .warmup_cycles(20_000)
        .measure_cycles(200_000)
        .build()
        .run();
    let mva = pfqn_ebw(&params, &Workload::Uniform)?;
    println!("  constant service (the real system): EBW = {:.3}", constant.ebw());
    println!("  geometric service (discrete exp.) : EBW = {:.3}", geometric.ebw());
    println!("  exponential product-form model    : EBW = {mva:.3}");
    println!(
        "  -> assuming exponential times understates EBW by {:.1}% (paper: 'pessimistic', '>25%')",
        (constant.ebw() - mva) / constant.ebw() * 100.0
    );
    Ok(())
}
