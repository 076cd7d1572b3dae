//! Model-side benchmarks: cost of unfolding spawn trees + running the DAG Rewriting
//! System, of the analysis metrics, and of the space-bounded scheduler simulation —
//! plus a σ-dilation ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nd_algorithms::common::Mode;
use nd_algorithms::trs::build_trs;
use nd_core::ecc::effective_cache_complexity;
use nd_core::pcc::pcc;
use nd_pmh::config::PmhConfig;
use nd_pmh::machine::MachineTree;
use nd_sched::space_bounded::{simulate_space_bounded, SbConfig};
use std::time::Duration;

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

fn bench_drs(c: &mut Criterion) {
    let mut group = c.benchmark_group("drs_build_trs");
    for n in [64usize, 128, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| build_trs(n, 8, Mode::Nd));
        });
    }
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let built = build_trs(128, 8, Mode::Nd);
    let root = built.tree.root();
    c.bench_function("pcc_trs_n128", |b| {
        b.iter(|| pcc(&built.tree, root, 1024));
    });
    c.bench_function("ecc_trs_n128", |b| {
        b.iter(|| effective_cache_complexity(&built.tree, &built.dag, root, 1024, 0.8));
    });
}

fn bench_sb_simulation(c: &mut Criterion) {
    let built = build_trs(128, 8, Mode::Nd);
    let machine = MachineTree::build(&PmhConfig::experiment_machine(2));
    c.bench_function("sb_simulate_trs_n128", |b| {
        b.iter(|| simulate_space_bounded(&built.tree, &built.dag, &machine, &SbConfig::default()));
    });
}

fn bench_sigma_ablation(c: &mut Criterion) {
    // The dilation parameter σ trades cache headroom against the
    // granularity of anchored tasks.  Completion time is the interesting output; the
    // bench reports the simulation cost, the exp_sched binary reports the times.
    let built = build_trs(128, 8, Mode::Nd);
    let machine = MachineTree::build(&PmhConfig::experiment_machine(2));
    let mut group = c.benchmark_group("ablation_sigma");
    for sigma_pct in [20u32, 33, 50, 80] {
        group.bench_with_input(
            BenchmarkId::from_parameter(sigma_pct),
            &sigma_pct,
            |b, &sigma_pct| {
                let cfg = SbConfig {
                    sigma: sigma_pct as f64 / 100.0,
                    alpha_prime: 1.0,
                };
                b.iter(|| simulate_space_bounded(&built.tree, &built.dag, &machine, &cfg));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = configure();
    targets = bench_drs, bench_metrics, bench_sb_simulation, bench_sigma_ablation
}
criterion_main!(benches);
