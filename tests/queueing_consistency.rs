//! The §6 product-form machinery: MVA vs Buzen vs geometric-service
//! simulation.

use busnet::core::analytic::pfqn::{buffered_network, pfqn_ebw, pfqn_ebw_buzen};
use busnet::core::params::{Buffering, SystemParams, Workload};
use busnet::core::sim::bus::BusSimBuilder;
use busnet::core::sim::service::ServiceTime;
use busnet::queueing::{ClosedNetwork, Station, StationKind};

#[test]
fn mva_equals_buzen_on_paper_networks() {
    for (n, m, r) in [(2u32, 2u32, 2u32), (8, 16, 8), (16, 4, 24), (8, 8, 12)] {
        let params = SystemParams::new(n, m, r).unwrap();
        let a = pfqn_ebw(&params, &Workload::Uniform).unwrap();
        let b = pfqn_ebw_buzen(&params, &Workload::Uniform).unwrap();
        assert!((a - b).abs() < 1e-8 * a.max(1.0), "({n},{m},{r}): {a} vs {b}");
    }
}

#[test]
fn population_conservation_in_solutions() {
    let params = SystemParams::new(8, 8, 8).unwrap().with_request_probability(0.5).unwrap();
    let net = buffered_network(&params, &Workload::Uniform.module_distribution(8), 1).unwrap();
    for solver in [ClosedNetwork::mva, ClosedNetwork::buzen] {
        let sol = solver(&net, 8).unwrap();
        assert!(sol.population_residual() < 1e-8, "residual {}", sol.population_residual());
    }
}

#[test]
fn geometric_service_sim_approaches_mva() {
    // Discrete-geometric service times approximate the exponential
    // product-form assumptions; the simulator and MVA should agree to
    // a few percent (residual gap: the bus transfer stays
    // deterministic in the DES).
    for (n, m, r) in [(8u32, 8u32, 8u32), (8, 16, 12)] {
        let params = SystemParams::new(n, m, r).unwrap();
        let mva = pfqn_ebw(&params, &Workload::Uniform).unwrap();
        let sim = BusSimBuilder::new(params)
            .buffering(Buffering::Buffered)
            .memory_service(ServiceTime::Geometric { mean: f64::from(r) })
            .seed(11)
            .warmup_cycles(10_000)
            .measure_cycles(150_000)
            .build()
            .run()
            .ebw();
        let rel = (sim - mva).abs() / mva;
        assert!(rel < 0.06, "({n},{m},{r}): geo-sim {sim:.3} vs MVA {mva:.3} ({rel:.3})");
    }
}

#[test]
fn exponential_model_is_pessimistic_for_constant_service() {
    // The direction of the §6 claim: assuming exponential service
    // under-predicts the constant-service system's EBW.
    for (n, m, r) in [(8u32, 4u32, 8u32), (8, 8, 8), (12, 16, 16)] {
        let params = SystemParams::new(n, m, r).unwrap();
        let mva = pfqn_ebw(&params, &Workload::Uniform).unwrap();
        let sim = BusSimBuilder::new(params)
            .buffering(Buffering::Buffered)
            .seed(13)
            .warmup_cycles(5_000)
            .measure_cycles(60_000)
            .build()
            .run()
            .ebw();
        assert!(
            mva < sim,
            "exponential model should be pessimistic at ({n},{m},{r}): mva {mva:.3} vs sim {sim:.3}"
        );
    }
}

#[test]
fn exponential_gap_is_substantial_at_memory_pressure() {
    // Measured magnitude of the §6 discrepancy (paper: "> 25%"; our
    // central-server mapping measures ≈ 15% against the sim — see
    // EXPERIMENTS.md for the discussion).
    let params = SystemParams::new(8, 8, 8).unwrap();
    let mva = pfqn_ebw(&params, &Workload::Uniform).unwrap();
    let sim = BusSimBuilder::new(params)
        .buffering(Buffering::Buffered)
        .seed(17)
        .warmup_cycles(10_000)
        .measure_cycles(100_000)
        .build()
        .run()
        .ebw();
    let gap = (sim - mva) / sim;
    assert!(gap > 0.12, "gap {gap:.3} should exceed 12%");
}

#[test]
fn multichannel_pfqn_matches_multichannel_des() {
    // The extension closes the loop: M/M/c bus station vs the
    // multi-channel DES with geometric service.
    use busnet::core::analytic::pfqn::pfqn_ebw_multichannel;
    let params = SystemParams::new(8, 8, 8).unwrap();
    for channels in [1u32, 2] {
        let model = pfqn_ebw_multichannel(&params, channels).unwrap();
        let sim = BusSimBuilder::new(params)
            .buffering(Buffering::Buffered)
            .channels(channels)
            .memory_service(ServiceTime::Geometric { mean: 8.0 })
            .seed(19)
            .warmup_cycles(10_000)
            .measure_cycles(150_000)
            .build()
            .run()
            .ebw();
        let rel = (sim - model).abs() / model;
        assert!(rel < 0.08, "channels={channels}: geo-sim {sim:.3} vs MVA {model:.3} ({rel:.3})");
    }
}

#[test]
fn direct_network_construction_is_flexible() {
    // The queueing crate stands alone: model an asymmetric system the
    // paper does not cover (hot memory module).
    let mut net = ClosedNetwork::new();
    net.add_station(Station::new("bus", StationKind::Queueing, 2.0, 1.0).unwrap());
    net.add_station(Station::new("hot", StationKind::Queueing, 0.5, 8.0).unwrap());
    net.add_station(Station::new("cold", StationKind::Queueing, 0.5, 2.0).unwrap());
    let sol = net.mva(6).unwrap();
    let hot = &sol.stations[1];
    let cold = &sol.stations[2];
    assert!(hot.mean_queue_length > cold.mean_queue_length);
    assert!(hot.utilization <= 1.0 + 1e-9);
}
