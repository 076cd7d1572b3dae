//! Property tests for the dataflow executor of `nd-runtime`: on randomized
//! DAGs and pool sizes 1 / 2 / 8, every task runs exactly once and never
//! before any of its predecessors.

use nd_runtime::dataflow::{CompiledGraph, Placement};
use nd_runtime::pool::{PoolTopology, ThreadPool};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

mod common;
use common::pool_sizes;
#[path = "common/random_dag.rs"]
mod random_dag;
use random_dag::{edges_of, random_preds, Probe};

/// Compiles a graph over `preds` (with `placement`) and its probe table.
fn instrumented_graph(
    preds: &[Vec<usize>],
    placement: Vec<Placement>,
) -> (Arc<CompiledGraph>, Arc<Probe>) {
    let graph = CompiledGraph::from_edges(preds.len(), &edges_of(preds), placement);
    (Arc::new(graph), Arc::new(Probe::new(preds.to_vec())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every task of a randomized DAG runs exactly once, and no task observes
    /// an unfinished predecessor, across pool sizes 1, 2 and 8.
    #[test]
    fn randomized_dags_run_exactly_once_in_order(
        seed in 0u64..10_000,
        n in 50usize..220,
        density in 5u64..60,
    ) {
        let preds = random_preds(n, density, seed);
        for pool_size in pool_sizes() {
            let (graph, probe) = instrumented_graph(&preds, Vec::new());
            prop_assert!(graph.is_acyclic());
            let pool = ThreadPool::new(pool_size);
            let stats = graph.execute(&pool, &probe).expect("run");
            prop_assert_eq!(stats.tasks, n);
            prop_assert_eq!(probe.violations.load(Ordering::SeqCst), 0,
                "a task started before a predecessor finished (pool = {})", pool_size);
            for j in 0..n {
                prop_assert_eq!(probe.runs[j].load(Ordering::SeqCst), 1,
                    "task {} ran a wrong number of times (pool = {})", j, pool_size);
            }
            prop_assert_eq!(stats.tasks_per_worker.iter().sum::<u64>(), n as u64);
        }
    }

    /// The same holds for placed execution on a grouped topology: random group
    /// placements neither lose tasks nor break the dependency order.
    #[test]
    fn randomized_placed_dags_respect_dependencies(seed in 0u64..10_000, n in 50usize..150) {
        // Two groups of two workers plus a root group, strict within-group stealing.
        let topology = PoolTopology {
            num_threads: 4,
            num_groups: 3,
            groups_of_worker: vec![vec![0, 2], vec![0, 2], vec![1, 2], vec![1, 2]],
            steal_order: vec![vec![1], vec![0], vec![3], vec![2]],
            steal_distance: vec![vec![0; 4]; 4],
        };
        let preds = random_preds(n, 30, seed);
        let placement: Vec<Placement> = (0..n)
            .map(|j| match j % 3 {
                0 => Placement::Group(0),
                1 => Placement::Group(1),
                _ => Placement::Anywhere,
            })
            .collect();
        let (graph, probe) = instrumented_graph(&preds, placement);
        let pool = ThreadPool::with_topology(topology);
        let stats = graph.execute(&pool, &probe).expect("run");
        prop_assert_eq!(stats.tasks, n);
        prop_assert_eq!(probe.violations.load(Ordering::SeqCst), 0);
        for j in 0..n {
            prop_assert_eq!(probe.runs[j].load(Ordering::SeqCst), 1);
        }
    }
}
