//! §6 — product-form (exponential-service) model of the buffered
//! system.
//!
//! "If random exponential variables could be used to characterize the
//! bus and memory modules service times, the buffered system could be
//! modeled with a product form queueing network (18) and thus its
//! performance evaluated using standard well established techniques
//! (19), (20)." — paper §6.
//!
//! The mapping is the classic central-server closed network:
//!
//! * one FIFO **bus** station, mean service 1 bus cycle, visited twice
//!   per memory access (request + return);
//! * `m` FIFO **memory** stations, mean service `r`, visit ratio `1/m`
//!   each (uniform addressing);
//! * for `p < 1`, a **delay** station modeling internal processing with
//!   mean think time `(r+2)(1−p)/p`;
//! * population `n` (one circulating customer per processor).
//!
//! The paper reports that this exponential model is *pessimistic* by
//! more than 25% against the constant-service simulation; the
//! model-validation example and tests quantify that gap.

use busnet_queueing::{BuzenSweep, ClosedNetwork, MvaSweep, Station, StationKind};

use crate::error::CoreError;
use crate::params::{SystemParams, Workload};

/// Builds the central-server network for `params` with `channels`
/// multiplexed bus channels and **per-module visit ratios**: memory
/// station `j` is visited with probability `reference[j]` per access
/// (the workload's module reference distribution; hypothesis *e*'s
/// uniform `1/m` for the paper's workload). Zero-mass modules are
/// simply absent from the network. One channel is the paper's single
/// FIFO bus; more make the bus an M/M/`channels` station, the
/// multiplexed multiple-bus system §7 alludes to via its reference 5
/// (this repository's extension).
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] when `channels == 0` or when
/// `reference` does not have one entry per module or is not a
/// distribution; otherwise propagates station-validation failures.
pub fn buffered_network(
    params: &SystemParams,
    reference: &[f64],
    channels: u32,
) -> Result<ClosedNetwork, CoreError> {
    if channels == 0 {
        return Err(CoreError::InvalidParameter {
            name: "channels",
            value: "0".to_owned(),
            constraint: "channels >= 1",
        });
    }
    let m = params.m();
    if reference.len() != m as usize {
        return Err(CoreError::InvalidParameter {
            name: "reference distribution",
            value: format!("{} entries", reference.len()),
            constraint: "one visit ratio per module (length m)",
        });
    }
    let total: f64 = reference.iter().sum();
    if reference.iter().any(|q| !q.is_finite() || *q < 0.0) || (total - 1.0).abs() > 1e-9 {
        return Err(CoreError::InvalidParameter {
            name: "reference distribution",
            value: format!("sum {total}"),
            constraint: "non-negative visit ratios summing to 1",
        });
    }
    let bus = match channels {
        1 => StationKind::Queueing,
        servers => StationKind::MultiServer { servers },
    };
    let mut net = ClosedNetwork::new();
    net.add_station(Station::new("bus", bus, 2.0, 1.0)?);
    for (j, &q) in reference.iter().enumerate() {
        if q > 0.0 {
            net.add_station(Station::new(
                format!("mem{j}"),
                StationKind::Queueing,
                q,
                f64::from(params.r()),
            )?);
        }
    }
    if params.p() < 1.0 {
        let think = f64::from(params.processor_cycle()) * (1.0 - params.p()) / params.p();
        net.add_station(Station::new("think", StationKind::Delay, 1.0, think)?);
    }
    Ok(net)
}

/// EBW predicted by the exponential product-form model under
/// `workload`, via exact MVA on the single-bus visit-ratio network
/// ([`buffered_network`]). The workload must reference modules through
/// a distribution ([`Workload::Uniform`], [`Workload::HotSpot`],
/// [`Workload::Weighted`]) — heterogeneous think probabilities have no
/// single-class product-form counterpart and are rejected.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] for [`Workload::Heterogeneous`];
/// otherwise propagates network construction/solution failures.
///
/// # Example
///
/// ```
/// use busnet_core::analytic::pfqn::pfqn_ebw;
/// use busnet_core::params::{SystemParams, Workload};
///
/// let params = SystemParams::new(8, 16, 8)?;
/// let ebw = pfqn_ebw(&params, &Workload::Uniform)?;
/// assert!(ebw > 0.0 && ebw <= params.max_ebw());
/// # Ok::<(), busnet_core::CoreError>(())
/// ```
pub fn pfqn_ebw(params: &SystemParams, workload: &Workload) -> Result<f64, CoreError> {
    let net = workload_network(params, workload)?;
    let sol = net.mva(params.n())?;
    // Throughput is in accesses per bus cycle; EBW is per processor
    // cycle (r + 2).
    Ok(sol.throughput * f64::from(params.processor_cycle()))
}

/// [`pfqn_ebw`] solved by Buzen's convolution (the cross-check pair).
///
/// # Errors
///
/// As [`pfqn_ebw`].
pub fn pfqn_ebw_buzen(params: &SystemParams, workload: &Workload) -> Result<f64, CoreError> {
    let net = workload_network(params, workload)?;
    let sol = net.buzen(params.n())?;
    Ok(sol.throughput * f64::from(params.processor_cycle()))
}

/// [`pfqn_ebw`] for a population-axis group: every entry of
/// `populations` solved against ONE shared network (the network
/// construction does not involve `n`) through a single incremental
/// [`MvaSweep`] pass — O(max n) total recursion work instead of
/// O(Σ nᵢ). Each returned EBW is bit-identical to the corresponding
/// scratch [`pfqn_ebw`] call, because the scratch solvers are
/// themselves the final yield of the same sweep.
///
/// # Errors
///
/// As [`pfqn_ebw`] for network construction; per-population solution
/// failures land in the inner results.
pub fn pfqn_ebw_group(
    params: &SystemParams,
    workload: &Workload,
    populations: &[u32],
) -> Result<Vec<Result<f64, CoreError>>, CoreError> {
    let Some(&max) = populations.iter().max() else {
        return Ok(Vec::new());
    };
    let net = workload_network(params, workload)?;
    let cycle = f64::from(params.processor_cycle());
    let mut sweep = MvaSweep::new(&net, max)?;
    let mut throughput_at = vec![0.0; max as usize + 1];
    let mut population = 0usize;
    while let Some(sol) = sweep.next_solution() {
        population += 1;
        throughput_at[population] = sol.throughput;
    }
    Ok(populations.iter().map(|&n| Ok(throughput_at[n as usize] * cycle)).collect())
}

/// [`pfqn_ebw_group`] solved by Buzen's convolution. Unlike MVA,
/// convolution can fail per population (normalization-constant
/// overflow), so each entry carries its own result — identical to what
/// the scratch [`pfqn_ebw_buzen`] call at that population would
/// return.
///
/// # Errors
///
/// As [`pfqn_ebw_group`].
pub fn pfqn_ebw_buzen_group(
    params: &SystemParams,
    workload: &Workload,
    populations: &[u32],
) -> Result<Vec<Result<f64, CoreError>>, CoreError> {
    let Some(&max) = populations.iter().max() else {
        return Ok(Vec::new());
    };
    let net = workload_network(params, workload)?;
    let cycle = f64::from(params.processor_cycle());
    let mut sweep = BuzenSweep::new(&net, max)?;
    let mut solution_at: Vec<Option<Result<f64, CoreError>>> = vec![None; max as usize + 1];
    let mut population = 0usize;
    while let Some(sol) = sweep.next_solution() {
        population += 1;
        solution_at[population] = Some(sol.map(|s| s.throughput * cycle).map_err(CoreError::from));
    }
    Ok(populations
        .iter()
        .map(|&n| solution_at[n as usize].clone().expect("population within sweep range"))
        .collect())
}

/// EBW of the buffered network under *deterministic* (constant)
/// service, via approximate MVA with the FCFS residual correction
/// (`scv = 0`). The paper's system serves in exactly `r` cycles, so
/// this sits between the pessimistic exponential model ([`pfqn_ebw`])
/// and the simulated constant-service system — it is the
/// unbounded-buffer limit used by the depth-aware approximation
/// ([`crate::analytic::approx::depth_aware_ebw`]) and the vehicle
/// pinned against simulation at the Table 3–4 points under hot-spot
/// workloads.
///
/// # Errors
///
/// As [`pfqn_ebw`].
pub fn pfqn_ebw_deterministic(
    params: &SystemParams,
    workload: &Workload,
) -> Result<f64, CoreError> {
    let net = workload_network(params, workload)?;
    let sol = net.amva_scv(params.n(), 0.0)?;
    Ok(sol.throughput * f64::from(params.processor_cycle()))
}

fn workload_network(
    params: &SystemParams,
    workload: &Workload,
) -> Result<ClosedNetwork, CoreError> {
    if !workload.has_homogeneous_thinking() {
        return Err(CoreError::InvalidParameter {
            name: "workload",
            value: workload.name(),
            constraint: "product-form visit ratios need homogeneous think probabilities",
        });
    }
    workload.validate(params.n(), params.m())?;
    buffered_network(params, &workload.module_distribution(params.m()), 1)
}

/// EBW predicted by the exponential model of the paper's uniform
/// workload with `channels` multiplexed bus channels.
///
/// # Errors
///
/// See [`buffered_network`].
pub fn pfqn_ebw_multichannel(params: &SystemParams, channels: u32) -> Result<f64, CoreError> {
    let net =
        buffered_network(params, &Workload::Uniform.module_distribution(params.m()), channels)?;
    let sol = net.mva(params.n())?;
    Ok(sol.throughput * f64::from(params.processor_cycle()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: u32, m: u32, r: u32) -> SystemParams {
        SystemParams::new(n, m, r).unwrap()
    }

    fn uniform_ebw(p: &SystemParams) -> f64 {
        pfqn_ebw(p, &Workload::Uniform).unwrap()
    }

    #[test]
    fn mva_and_buzen_agree() {
        for (n, m, r) in [(4, 4, 4), (8, 16, 8), (8, 4, 12), (16, 16, 18)] {
            let p = params(n, m, r);
            let a = uniform_ebw(&p);
            let b = pfqn_ebw_buzen(&p, &Workload::Uniform).unwrap();
            assert!((a - b).abs() < 1e-8 * a, "({n},{m},{r}): {a} vs {b}");
        }
    }

    #[test]
    fn ebw_within_physical_bounds() {
        for (n, m, r) in [(2, 2, 2), (8, 16, 8), (16, 8, 24)] {
            let p = params(n, m, r);
            let e = uniform_ebw(&p);
            assert!(e > 0.0 && e <= p.max_ebw() + 1e-9, "({n},{m},{r}): {e}");
        }
    }

    #[test]
    fn single_customer_no_queueing() {
        // n = 1: cycle time = 2·1 + r exactly; EBW = (r+2)/(r+2) = 1.
        let p = params(1, 4, 6);
        let e = uniform_ebw(&p);
        assert!((e - 1.0).abs() < 1e-9, "{e}");
    }

    #[test]
    fn think_time_reduces_ebw() {
        let full = uniform_ebw(&params(8, 16, 8));
        let half = uniform_ebw(&params(8, 16, 8).with_request_probability(0.5).unwrap());
        assert!(half < full);
    }

    #[test]
    fn network_station_count() {
        let uniform = Workload::Uniform.module_distribution(16);
        let net = buffered_network(&params(8, 16, 8), &uniform, 1).unwrap();
        assert_eq!(net.len(), 17); // bus + 16 memories, no think at p = 1
        let half = params(8, 16, 8).with_request_probability(0.5).unwrap();
        let net = buffered_network(&half, &uniform, 1).unwrap();
        assert_eq!(net.len(), 18);
    }

    #[test]
    fn one_channel_matches_base_model() {
        let p = params(8, 16, 8);
        let base = uniform_ebw(&p);
        let one = pfqn_ebw_multichannel(&p, 1).unwrap();
        assert_eq!(base.to_bits(), one.to_bits());
    }

    #[test]
    fn channels_raise_predicted_ebw_when_bus_bound() {
        let p = params(16, 16, 4); // r small: bus-bound
        let one = pfqn_ebw_multichannel(&p, 1).unwrap();
        let two = pfqn_ebw_multichannel(&p, 2).unwrap();
        let four = pfqn_ebw_multichannel(&p, 4).unwrap();
        assert!(two > one * 1.3, "2 channels {two} vs 1 {one}");
        assert!(four >= two, "4 channels {four} vs 2 {two}");
        // Widened ceiling b(r+2)/2 respected.
        assert!(two <= 2.0 * p.max_ebw() + 1e-9);
    }

    #[test]
    fn zero_channels_rejected() {
        assert!(pfqn_ebw_multichannel(&params(4, 4, 4), 0).is_err());
    }

    #[test]
    fn uniform_workload_matches_base_model_exactly() {
        // The paper's network with hypothesis e's visit ratio 1/m
        // spelled out literally, against the workload path.
        for p in [params(8, 16, 8), params(5, 3, 4).with_request_probability(0.5).unwrap()] {
            let literal = vec![1.0 / f64::from(p.m()); p.m() as usize];
            let net = buffered_network(&p, &literal, 1).unwrap();
            let cycle = f64::from(p.processor_cycle());
            let base = net.mva(p.n()).unwrap().throughput * cycle;
            assert_eq!(uniform_ebw(&p).to_bits(), base.to_bits());
            let buzen = net.buzen(p.n()).unwrap().throughput * cycle;
            let uniform_buzen = pfqn_ebw_buzen(&p, &Workload::Uniform).unwrap();
            assert_eq!(uniform_buzen.to_bits(), buzen.to_bits());
            let det = net.amva_scv(p.n(), 0.0).unwrap().throughput * cycle;
            let uniform_det = pfqn_ebw_deterministic(&p, &Workload::Uniform).unwrap();
            assert_eq!(uniform_det.to_bits(), det.to_bits());
        }
    }

    #[test]
    fn hot_spot_visit_ratios_lower_predicted_ebw_monotonically() {
        let p = params(8, 8, 8);
        let mut prev = f64::INFINITY;
        for fraction in [0.0, 0.2, 0.4, 0.6, 0.8] {
            let w = Workload::hot_spot(fraction, 0).unwrap();
            let e = pfqn_ebw(&p, &w).unwrap();
            assert!(e < prev + 1e-9, "fraction {fraction}: {e} after {prev}");
            assert!(e > 0.0 && e <= p.max_ebw() + 1e-9);
            prev = e;
        }
    }

    #[test]
    fn full_hot_spot_serializes_on_one_module() {
        // fraction = 1: the network is bus + one memory station. At
        // large n the memory saturates: throughput → 1/r accesses per
        // bus cycle, EBW → (r+2)/r.
        let p = params(8, 8, 8);
        let w = Workload::hot_spot(1.0, 3).unwrap();
        let e = pfqn_ebw(&p, &w).unwrap();
        assert!((e - 10.0 / 8.0).abs() < 0.05, "serialized EBW {e}");
    }

    #[test]
    fn weighted_and_hot_spot_agree_on_equivalent_distributions() {
        let p = params(8, 4, 8);
        let hot = Workload::hot_spot(0.4, 1).unwrap();
        let weighted = Workload::weighted(hot.module_distribution(4)).unwrap();
        let a = pfqn_ebw(&p, &hot).unwrap();
        let b = pfqn_ebw(&p, &weighted).unwrap();
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn zero_mass_modules_drop_out_of_the_network() {
        // Weights concentrated on 2 of 4 modules ≡ a 2-module system
        // with uniform references (same r, same population).
        let w = Workload::weighted([1.0, 0.0, 1.0, 0.0]).unwrap();
        let a = pfqn_ebw(&params(8, 4, 8), &w).unwrap();
        let b = uniform_ebw(&params(8, 2, 8));
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn heterogeneous_thinking_is_out_of_domain() {
        let w = Workload::heterogeneous([1.0; 8]).unwrap();
        assert!(pfqn_ebw(&params(8, 8, 8), &w).is_err());
    }

    #[test]
    fn mismatched_reference_distribution_rejected() {
        let p = params(4, 4, 4);
        assert!(buffered_network(&p, &[0.5, 0.5], 1).is_err()); // wrong length
        assert!(buffered_network(&p, &[0.5, 0.5, 0.5, 0.5], 1).is_err()); // sum != 1
        assert!(buffered_network(&p, &[1.5, -0.5, 0.0, 0.0], 1).is_err());
    }
}
