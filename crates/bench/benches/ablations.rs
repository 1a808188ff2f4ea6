//! Ablation benches for the design choices DESIGN.md calls out:
//! arbitration priority, buffering, the reduced chain's two scan
//! readings, the completion-probability model, and the approximation
//! variants. Each prints the EBW deltas once, then times the variants.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use busnet_core::analytic::approx::{ApproxModel, ApproxVariant};
use busnet_core::analytic::reduced::{CompletionModel, ReducedArbitration, ReducedChain};
use busnet_core::params::{Buffering, BusPolicy, SystemParams, Workload};
use busnet_core::sim::bus::{ArbitrationKind, BusSimBuilder};

fn params() -> SystemParams {
    SystemParams::new(8, 16, 8).expect("valid params")
}

fn sim_ebw(policy: BusPolicy, buffering: Buffering) -> f64 {
    BusSimBuilder::new(params())
        .policy(policy)
        .buffering(buffering)
        .seed(1)
        .warmup_cycles(2_000)
        .measure_cycles(30_000)
        .build()
        .run()
        .ebw()
}

fn ablation_priority_and_buffering(c: &mut Criterion) {
    println!("--- ablation: arbitration priority x buffering (8x16, r=8) ---");
    for policy in [BusPolicy::ProcessorPriority, BusPolicy::MemoryPriority] {
        for buffering in [Buffering::Unbuffered, Buffering::Buffered] {
            println!("  {policy:?} / {buffering:?}: EBW = {:.3}", sim_ebw(policy, buffering));
        }
    }
    let mut group = c.benchmark_group("ablation_sim_variants");
    group.sample_size(10);
    for (name, policy, buffering) in [
        ("proc_unbuffered", BusPolicy::ProcessorPriority, Buffering::Unbuffered),
        ("proc_buffered", BusPolicy::ProcessorPriority, Buffering::Buffered),
        ("mem_unbuffered", BusPolicy::MemoryPriority, Buffering::Unbuffered),
        ("mem_buffered", BusPolicy::MemoryPriority, Buffering::Buffered),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| black_box(sim_ebw(policy, buffering)))
        });
    }
    group.finish();
}

fn ablation_reduced_chain_readings(c: &mut Criterion) {
    println!("--- ablation: reduced-chain scan readings (8x16, r=8) ---");
    for arb in
        [ReducedArbitration::StrictProcessorPriority, ReducedArbitration::CompletionStealsBus]
    {
        for comp in [
            CompletionModel::Proportional,
            CompletionModel::SingleSlot,
            CompletionModel::Independent,
        ] {
            let chain =
                ReducedChain::new(params()).with_arbitration(arb).with_completion_model(comp);
            println!(
                "  {arb:?} / {comp:?}: EBW = {:.3}, |S| = {}",
                chain.ebw().expect("solvable"),
                chain.state_count().expect("buildable")
            );
        }
    }
    let mut group = c.benchmark_group("ablation_reduced_chain");
    for arb in
        [ReducedArbitration::StrictProcessorPriority, ReducedArbitration::CompletionStealsBus]
    {
        group.bench_with_input(BenchmarkId::from_parameter(format!("{arb:?}")), &arb, |b, &arb| {
            b.iter(|| {
                black_box(
                    ReducedChain::new(params()).with_arbitration(arb).ebw().expect("solvable"),
                )
            })
        });
    }
    group.finish();
}

fn ablation_approx_variants(c: &mut Criterion) {
    println!("--- ablation: approximation variants (8x4, r=11) ---");
    let asym = SystemParams::new(8, 4, 11).expect("valid");
    for variant in [ApproxVariant::Plain, ApproxVariant::Symmetric] {
        println!("  {variant:?}: EBW = {:.3}", ApproxModel::new(asym, variant).ebw());
    }
    let mut group = c.benchmark_group("ablation_approx");
    for variant in [ApproxVariant::Plain, ApproxVariant::Symmetric] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{variant:?}")),
            &variant,
            |b, &variant| b.iter(|| black_box(ApproxModel::new(asym, variant).ebw())),
        );
    }
    group.finish();
}

fn ablation_extensions(c: &mut Criterion) {
    println!("--- ablation: extension knobs (8x8, r=8, buffered) ---");
    let run = |builder: BusSimBuilder| {
        builder.seed(5).warmup_cycles(2_000).measure_cycles(30_000).build().run().ebw()
    };
    let base = || BusSimBuilder::new(params()).buffering(Buffering::Buffered);
    let depth4 = || base().buffering(Buffering::Depth(4));
    let hot_spot = || base().workload(Workload::hot_spot(0.4, 0).expect("valid fraction"));
    println!("  baseline              : {:.3}", run(base()));
    println!("  buffer depth 4        : {:.3}", run(depth4()));
    println!("  2 channels            : {:.3}", run(base().channels(2)));
    println!("  hot spot 40% on 1 mod : {:.3}", run(hot_spot()));
    println!(
        "  round-robin arbiter   : {:.3}",
        run(base().arbitration(ArbitrationKind::RoundRobin))
    );
    let mut group = c.benchmark_group("ablation_extensions");
    group.sample_size(10);
    group.bench_function("baseline", |b| b.iter(|| black_box(run(base()))));
    group.bench_function("depth4", |b| b.iter(|| black_box(run(depth4()))));
    group.bench_function("channels2", |b| b.iter(|| black_box(run(base().channels(2)))));
    group.bench_function("hotspot", |b| b.iter(|| black_box(run(hot_spot()))));
    group.bench_function("round_robin", |b| {
        b.iter(|| black_box(run(base().arbitration(ArbitrationKind::RoundRobin))))
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_priority_and_buffering,
    ablation_reduced_chain_readings,
    ablation_approx_variants,
    ablation_extensions
);
criterion_main!(benches);
