//! E12: real wall-clock execution on the work-stealing runtime — NP versus ND for
//! TRS, Cholesky, LCS and MM — plus a base-case-size ablation.
//!
//! Both models run through the *same* dataflow executor; only the dependency DAG
//! differs, so the comparison isolates the programming model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nd_algorithms::common::Mode;
use nd_algorithms::{cholesky, lcs, mm, trs};
use nd_linalg::lcs::random_sequence;
use nd_linalg::Matrix;
use nd_runtime::ThreadPool;
use std::time::Duration;

fn configure(c: &mut Criterion) -> Criterion {
    let _ = c;
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

fn bench_trs(c: &mut Criterion) {
    let pool = ThreadPool::with_available_parallelism();
    let n = 512;
    let base = 64;
    let t = Matrix::random_lower_triangular(n, 1);
    let b = Matrix::random(n, n, 2);
    let mut group = c.benchmark_group("wallclock_trs_n512");
    for mode in [Mode::Np, Mode::Nd] {
        group.bench_with_input(
            BenchmarkId::from_parameter(mode.name()),
            &mode,
            |bench, &mode| {
                bench.iter(|| {
                    let mut x = b.clone();
                    trs::solve_parallel(&pool, &t, &mut x, mode, base);
                    x
                });
            },
        );
    }
    group.finish();
}

fn bench_cholesky(c: &mut Criterion) {
    let pool = ThreadPool::with_available_parallelism();
    let n = 512;
    let base = 64;
    let a = Matrix::random_spd(n, 3);
    let mut group = c.benchmark_group("wallclock_cholesky_n512");
    for mode in [Mode::Np, Mode::Nd] {
        group.bench_with_input(
            BenchmarkId::from_parameter(mode.name()),
            &mode,
            |bench, &mode| {
                bench.iter(|| {
                    let mut l = a.clone();
                    cholesky::cholesky_parallel(&pool, &mut l, mode, base);
                    l
                });
            },
        );
    }
    group.finish();
}

fn bench_lcs(c: &mut Criterion) {
    let pool = ThreadPool::with_available_parallelism();
    let n = 2048;
    let base = 64;
    let s = random_sequence(n, 4);
    let t = random_sequence(n, 5);
    let mut group = c.benchmark_group("wallclock_lcs_n2048");
    for mode in [Mode::Np, Mode::Nd] {
        group.bench_with_input(
            BenchmarkId::from_parameter(mode.name()),
            &mode,
            |bench, &mode| {
                bench.iter(|| lcs::lcs_parallel(&pool, &s, &t, mode, base).0);
            },
        );
    }
    group.finish();
}

fn bench_mm(c: &mut Criterion) {
    let pool = ThreadPool::with_available_parallelism();
    let n = 256;
    let base = 32;
    let a = Matrix::random(n, n, 6);
    let b = Matrix::random(n, n, 7);
    let mut group = c.benchmark_group("wallclock_mm_n256");
    for mode in [Mode::Np, Mode::Nd] {
        group.bench_with_input(
            BenchmarkId::from_parameter(mode.name()),
            &mode,
            |bench, &mode| {
                bench.iter(|| {
                    let mut cmat = Matrix::zeros(n, n);
                    mm::multiply_parallel(&pool, &a, &b, &mut cmat, mode, base);
                    cmat
                });
            },
        );
    }
    group.finish();
}

fn bench_base_case_ablation(c: &mut Criterion) {
    // The base-case (strand) size trades scheduler overhead against
    // exposed parallelism.
    let pool = ThreadPool::with_available_parallelism();
    let n = 512;
    let t = Matrix::random_lower_triangular(n, 8);
    let b = Matrix::random(n, n, 9);
    let mut group = c.benchmark_group("ablation_trs_base_case");
    for base in [32usize, 64, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(base), &base, |bench, &base| {
            bench.iter(|| {
                let mut x = b.clone();
                trs::solve_parallel(&pool, &t, &mut x, Mode::Nd, base);
                x
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = configure(&mut Criterion::default());
    targets = bench_trs, bench_cholesky, bench_lcs, bench_mm, bench_base_case_ablation
}
criterion_main!(benches);
