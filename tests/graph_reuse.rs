//! Graph-reuse acceptance tests: a compiled graph is built **once** and
//! executed repeatedly — results must be bit-identical across executions and
//! the dependency counters must be fully restored after every run.

use nd_algorithms::common::Mode;
use nd_algorithms::exec::{compile_algorithm, ExecContext};
use nd_algorithms::mm::build_mm;
use nd_linalg::Matrix;
use nd_runtime::ThreadPool;

mod common;
use common::pool_sizes;

/// End to end: one compiled MM algorithm executed three times
/// against the same buffers produces bit-identical results, and construction
/// (DRS + graph build) happens exactly once.
#[test]
fn compiled_algorithm_reuse_is_bit_identical() {
    let pool = ThreadPool::new(4);
    let n = 64;
    let built = build_mm(n, 16, Mode::Nd, 1.0);
    let a = Matrix::random(n, n, 101);
    let b = Matrix::random(n, n, 102);
    let mut c = Matrix::zeros(n, n);
    let mut am = a.clone();
    let mut bm = b.clone();
    let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
    let compiled = compile_algorithm(&built.dag, &built.ops, &ctx);

    let mut reference: Option<Matrix> = None;
    for round in 0..3 {
        c.as_mut_slice().fill(0.0); // reset the output in place between runs
        let stats = compiled.execute(&pool).expect("run");
        assert_eq!(stats.tasks, compiled.task_count(), "round {round}");
        assert!(compiled.counters_are_reset(), "round {round}");
        match &reference {
            None => reference = Some(c.clone()),
            Some(r) => assert_eq!(
                c.max_abs_diff(r),
                0.0,
                "round {round}: re-execution must be bit-identical"
            ),
        }
    }
    let mut expected = Matrix::zeros(n, n);
    nd_linalg::gemm::gemm_naive(&mut expected, &a, &b, 1.0, 0.0);
    assert!(reference.unwrap().max_abs_diff(&expected) < 1e-9);
}

/// Reuse across pools: the same compiled graph may run on pools of different
/// sizes (scheduling changes, results must not).
#[test]
fn compiled_graph_reuse_across_pool_sizes() {
    let n = 32;
    let built = build_mm(n, 8, Mode::Nd, 1.0);
    let a = Matrix::random(n, n, 103);
    let b = Matrix::random(n, n, 104);
    let mut c = Matrix::zeros(n, n);
    let mut am = a.clone();
    let mut bm = b.clone();
    let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
    let compiled = compile_algorithm(&built.dag, &built.ops, &ctx);

    let mut reference: Option<Matrix> = None;
    for workers in pool_sizes() {
        let pool = ThreadPool::new(workers);
        c.as_mut_slice().fill(0.0);
        compiled.execute(&pool).expect("run");
        assert!(compiled.counters_are_reset(), "workers={workers}");
        match &reference {
            None => reference = Some(c.clone()),
            Some(r) => assert_eq!(c.max_abs_diff(r), 0.0, "workers={workers}"),
        }
    }
}
