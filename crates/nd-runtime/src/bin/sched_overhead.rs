//! Scheduler-overhead probe for the tracing subsystem (experiment E19).
//!
//! Runs a wide layered empty-task DAG (64 × 256 tasks) and a serial chain,
//! and prints one JSON line with the best per-task scheduling cost of each.
//! Because this binary lives in `nd-runtime` itself, building it with
//! `--no-default-features` really does compile the executor without any
//! trace record sites (workspace feature unification cannot re-enable them),
//! so CI can compare:
//!
//! ```text
//! cargo run --release -p nd-runtime --bin sched_overhead            # trace feature in, disabled
//! cargo run --release -p nd-runtime --bin sched_overhead --no-default-features
//! cargo run --release -p nd-runtime --bin sched_overhead --features chaos   # chaos cfg-points in, disarmed
//! ```
//!
//! The acceptance bound: the two `per_task_ns` values agree within noise —
//! tracing that nobody turned on costs nothing measurable.
//!
//! Usage: `sched_overhead [workers] [reps]` (defaults: 2, 9).

use nd_runtime::dataflow::{CompiledGraph, TaskTable};
use nd_runtime::ThreadPool;
use std::sync::Arc;
use std::time::Instant;

struct NopTable;

impl TaskTable for NopTable {
    #[inline]
    fn run_task(&self, _task: u32) {}
}

fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let mut args = std::env::args().skip(1);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let reps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(9);

    let pool = ThreadPool::new(workers);
    let table = Arc::new(NopTable);

    // The wide layered DAG: 64 × 256 empty tasks, two predecessors each.
    let (layers, width) = (64u32, 256u32);
    let mut edges = Vec::new();
    for l in 1..layers {
        for w in 0..width {
            let task = l * width + w;
            edges.push(((l - 1) * width + w, task));
            edges.push(((l - 1) * width + (w + 1) % width, task));
        }
    }
    let tasks = (layers * width) as usize;
    let graph = Arc::new(CompiledGraph::from_edges(tasks, &edges, Vec::new()));
    graph.execute(&pool, &table).expect("warm-up run"); // warm up deques and counters
    let best = best_of(reps, || {
        graph.execute(&pool, &table).expect("timed run");
    });
    let per_task_ns = best * 1e9 / tasks as f64;

    // The pure serial chain: every step takes inline tail-execution.
    let chain_len = 50_000usize;
    let chain_edges: Vec<(u32, u32)> = (1..chain_len as u32).map(|t| (t - 1, t)).collect();
    let chain = Arc::new(CompiledGraph::from_edges(
        chain_len,
        &chain_edges,
        Vec::new(),
    ));
    chain.execute(&pool, &table).expect("warm-up run");
    let chain_best = best_of(reps, || {
        chain.execute(&pool, &table).expect("warm-up run");
    });
    let chain_task_ns = chain_best * 1e9 / chain_len as f64;

    println!(
        "{{\"trace_feature\": {}, \"chaos_feature\": {}, \"workers\": {}, \"tasks\": {}, \
         \"reps\": {}, \"per_task_ns\": {:.1}, \"chain_task_ns\": {:.1}}}",
        cfg!(feature = "trace"),
        cfg!(feature = "chaos"),
        workers,
        tasks,
        reps,
        per_task_ns,
        chain_task_ns,
    );
}
