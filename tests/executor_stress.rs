//! Executor stress test: compiled graphs over randomized DAGs must execute
//! every task exactly once, never before a predecessor, across pool sizes —
//! and stay reusable under repeated execution.

use nd_runtime::dataflow::{CompiledGraph, TaskTable};
use nd_runtime::{RunError, ThreadPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

mod common;
use common::pool_sizes;
#[path = "common/random_dag.rs"]
mod random_dag;
use random_dag::{edges_of, random_preds, Probe};

/// Three DAG shapes (sparse, medium, dense), three pool sizes.
#[test]
fn table_mode_runs_randomized_dags_exactly_once_in_order() {
    for (seed, density) in [(1u64, 10u64), (2, 45), (3, 85)] {
        let n = 400usize;
        let preds = random_preds(n, density, seed);
        for workers in pool_sizes() {
            let pool = ThreadPool::new(workers);
            // The probe *is* the task table.
            let table = Arc::new(Probe::new(preds.clone()));
            let graph = Arc::new(CompiledGraph::from_edges(n, &edges_of(&preds), Vec::new()));
            let stats = graph.execute(&pool, &table).expect("run");
            assert_eq!(stats.tasks, n);
            table.assert_round(1, &format!("seed={seed} workers={workers}"));
            assert!(graph.counters_are_reset());
        }
    }
}

/// A compiled graph stays correct under repeated execution: five rounds on
/// one compiled graph, each ordered and exactly-once, counters restored.
#[test]
fn table_mode_reuse_stays_ordered_over_many_rounds() {
    let n = 600usize;
    let preds = random_preds(n, 30, 42);
    let table = Arc::new(Probe::new(preds.clone()));
    let graph = Arc::new(CompiledGraph::from_edges(n, &edges_of(&preds), Vec::new()));
    let pool = ThreadPool::new(8);
    for round in 1..=5 {
        table.reset_round();
        let stats = graph.execute(&pool, &table).expect("run");
        assert_eq!(stats.tasks, n);
        assert!(graph.counters_are_reset(), "round {round}");
        table.assert_round(round, &format!("round {round}"));
    }
}

/// Serial chains exercise the inline tail-execution path: with one worker the
/// whole chain must run in order without ever leaving the worker.
#[test]
fn long_chain_runs_in_order_through_tail_execution() {
    let n = 5_000usize;
    let preds: Vec<Vec<usize>> = (0..n)
        .map(|j| if j == 0 { vec![] } else { vec![j - 1] })
        .collect();
    let table = Arc::new(Probe::new(preds.clone()));
    let graph = Arc::new(CompiledGraph::from_edges(n, &edges_of(&preds), Vec::new()));
    for workers in [1usize, 4] {
        let pool = ThreadPool::new(workers);
        table.reset_round();
        let stats = graph.execute(&pool, &table).expect("run");
        assert_eq!(stats.tasks, n);
        // The chain admits no parallelism: one worker must have run everything.
        assert_eq!(
            stats.tasks_per_worker.iter().filter(|&&c| c > 0).count(),
            1,
            "a serial chain must stay on a single worker (tail-execution)"
        );
    }
    table.assert_round(2, "chain");
    assert_eq!(table.violations.load(Ordering::SeqCst), 0);
}

/// One long serial chain plus a 64-way fan-in: tasks `0..CHAIN` form the
/// chain, 63 independent leaves follow, and the last task joins the chain's
/// tail and every leaf.  The chain runs as one inline chain, so its whole
/// latch count-down is one batch; the leaves and the sink are short chains
/// ending concurrently with it.
const CHAIN: usize = 20_000;

fn chain_and_fan_in_preds() -> Vec<Vec<usize>> {
    let leaves = 63usize;
    let sink = CHAIN + leaves;
    let mut preds: Vec<Vec<usize>> = (0..CHAIN)
        .map(|j| if j == 0 { vec![] } else { vec![j - 1] })
        .collect();
    preds.extend((0..leaves).map(|_| vec![]));
    preds.push(std::iter::once(CHAIN - 1).chain(CHAIN..sink).collect());
    preds
}

/// The batched latch count-down accounts for every task: 50 runs of the
/// chain-plus-fan-in graph, each exactly-once and ordered, with per-worker
/// task counts summing to the task count and the counters restored.
#[test]
fn batched_chain_count_down_accounts_for_every_task() {
    let preds = chain_and_fan_in_preds();
    let n = preds.len();
    let table = Arc::new(Probe::new(preds.clone()));
    let graph = Arc::new(CompiledGraph::from_edges(n, &edges_of(&preds), Vec::new()));
    let mut round = 0u32;
    for workers in pool_sizes() {
        let pool = ThreadPool::new(workers);
        for _ in 0..50 {
            round += 1;
            table.reset_round();
            let stats = graph.execute(&pool, &table).expect("run");
            assert_eq!(stats.tasks, n);
            assert_eq!(
                stats.tasks_per_worker.iter().sum::<u64>(),
                n as u64,
                "workers={workers} round={round}: per-worker counts must sum to the task count"
            );
            assert!(
                graph.counters_are_reset(),
                "workers={workers} round={round}"
            );
        }
        table.assert_round(round, &format!("chain + fan-in, workers={workers}"));
    }
}

/// A panic at the chain's midpoint drains the rest of the batched chain:
/// the run returns `Err(Panicked)` instead of hanging, and after `reset()`
/// the graph re-runs `Ok` to the output of a never-faulted run.
#[test]
fn panic_mid_chain_drains_the_batch_and_recovers() {
    let preds = chain_and_fan_in_preds();
    let n = preds.len();
    let boom = CHAIN / 2;
    let edges = edges_of(&preds);
    let reference = {
        let table = Arc::new(BombTable::new(preds.clone(), boom));
        table.armed.store(false, Ordering::SeqCst);
        let graph = Arc::new(CompiledGraph::from_edges(n, &edges, Vec::new()));
        graph
            .execute(&ThreadPool::new(1), &table)
            .expect("oracle run");
        table.snapshot()
    };
    for workers in pool_sizes() {
        let pool = ThreadPool::new(workers);
        let graph = Arc::new(CompiledGraph::from_edges(n, &edges, Vec::new()));
        for round in 0..10 {
            let table = Arc::new(BombTable::new(preds.clone(), boom));
            match graph.execute(&pool, &table) {
                Err(RunError::Panicked { task, .. }) => assert_eq!(task, boom as u32),
                other => {
                    panic!("workers={workers} round={round}: expected Panicked, got {other:?}")
                }
            }
            // Nothing after the bomb on the chain ran: the tail drained.
            assert_eq!(table.out[boom + 1].load(Ordering::SeqCst), 0);
            graph.reset();
            assert!(graph.counters_are_reset());
            table.armed.store(false, Ordering::SeqCst);
            let stats = graph.execute(&pool, &table).expect("recovery run");
            assert_eq!(stats.tasks_per_worker.iter().sum::<u64>(), n as u64);
            assert!(graph.counters_are_reset());
            assert_eq!(
                table.snapshot(),
                reference,
                "workers={workers} round={round}"
            );
        }
    }
}

/// A deterministic dataflow computation with an armable bomb: task `j` writes
/// `out[j] = 1 + Σ out[preds(j)]` (wrapping; a pure function of the DAG,
/// independent of the schedule), and panics instead when it is the bomb task
/// and the bomb is armed.
struct BombTable {
    preds: Vec<Vec<usize>>,
    out: Vec<AtomicU64>,
    boom: usize,
    armed: AtomicBool,
}

impl BombTable {
    fn new(preds: Vec<Vec<usize>>, boom: usize) -> Self {
        let n = preds.len();
        BombTable {
            preds,
            out: (0..n).map(|_| AtomicU64::new(0)).collect(),
            boom,
            armed: AtomicBool::new(true),
        }
    }

    fn snapshot(&self) -> Vec<u64> {
        self.out.iter().map(|v| v.load(Ordering::SeqCst)).collect()
    }
}

impl TaskTable for BombTable {
    fn run_task(&self, task: u32) {
        let j = task as usize;
        if j == self.boom && self.armed.load(Ordering::SeqCst) {
            panic!("injected panic at strand {j}");
        }
        let sum = self.preds[j].iter().fold(0u64, |acc, &p| {
            acc.wrapping_add(self.out[p].load(Ordering::SeqCst))
        });
        self.out[j].store(sum.wrapping_add(1), Ordering::SeqCst);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Panic-recovery property: a panic at a random strand of a random DAG
    /// surfaces as a typed [`RunError::Panicked`] naming that strand, the run
    /// drains (no hang, no strand after the fault runs), and after `reset()`
    /// the same graph re-executes to output bit-identical to a never-faulted
    /// run — on every pool size of the matrix.
    #[test]
    fn panic_at_random_strand_recovers_bit_identically(
        seed in 0u64..10_000,
        density in 10u64..80,
        boom in 0usize..300,
    ) {
        let n = 300usize;
        let preds = random_preds(n, density, seed);

        // The oracle: one clean run on one worker.
        let reference = {
            let table = Arc::new(BombTable::new(preds.clone(), boom));
            table.armed.store(false, Ordering::SeqCst);
            let graph = Arc::new(CompiledGraph::from_edges(n, &edges_of(&preds), Vec::new()));
            graph.execute(&ThreadPool::new(1), &table).expect("oracle run");
            table.snapshot()
        };

        for workers in pool_sizes() {
            let pool = ThreadPool::new(workers);
            let table = Arc::new(BombTable::new(preds.clone(), boom));
            let graph = Arc::new(CompiledGraph::from_edges(n, &edges_of(&preds), Vec::new()));

            let err = graph.execute(&pool, &table).expect_err("armed bomb must fault");
            match &err {
                RunError::Panicked { task, payload, .. } => {
                    prop_assert_eq!(*task, boom as u32);
                    prop_assert!(payload.contains("injected panic"), "payload: {}", payload);
                }
                other => prop_assert!(false, "expected Panicked, got {:?}", other),
            }
            // The bomb task itself never completed.
            prop_assert_eq!(table.out[boom].load(Ordering::SeqCst), 0);

            // Documented recovery: reset, disarm, re-execute.
            graph.reset();
            prop_assert!(graph.counters_are_reset(), "workers={}", workers);
            table.armed.store(false, Ordering::SeqCst);
            let stats = graph.execute(&pool, &table).expect("recovery run");
            prop_assert_eq!(stats.tasks, n);
            prop_assert!(graph.counters_are_reset(), "workers={}", workers);
            prop_assert_eq!(
                table.snapshot(),
                reference.clone(),
                "recovered output must be bit-identical (workers={})",
                workers
            );
        }
    }
}
