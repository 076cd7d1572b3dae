//! # nd-runtime — a real multithreaded runtime for NP and ND programs
//!
//! The paper proposes the ND model so that *runtime schedulers can execute
//! inter-processor work like a dataflow model, while retaining the locality
//! advantages of the nested parallel model* for intra-processor execution.  This
//! crate is the real-machine counterpart of the simulated schedulers in `nd-sched`:
//! a from-scratch work-stealing thread pool plus a dependency-counting **dataflow
//! executor** that runs an algorithm DAG (produced by the DAG Rewriting System in
//! `nd-core`) on actual threads.
//!
//! * [`pool`] — the work-stealing thread pool (per-worker deques, a global
//!   injector, parking/unparking of idle workers); optionally topology-aware via
//!   [`PoolTopology`]: workers grouped into subclusters with per-group queues and
//!   a nearest-cluster-first steal order (the substrate `nd-exec` anchors on).
//! * [`latch`] — counting latches used for completion detection.
//! * [`dataflow`] — the compiled task-graph executor: dependencies flattened into
//!   one CSR arena, per-task atomic counters claimed lock-free (no per-task mutex
//!   or boxed-closure take on the hot path), graphs reusable across executions
//!   (build once, execute many — counters self-restore), and inline
//!   tail-execution of lone ready successors so serial chains never round-trip
//!   through the deque.  A finished task's remaining ready successors go onto the
//!   finishing worker's own deque (depth-first-ish execution for locality,
//!   stealing for load balance — the NP-style intra-processor order the paper
//!   advocates).
//! * [`lower`] — the lowering from the model layer's ground-truth object (the
//!   DRS-produced `AlgorithmDag` of `nd-core`) into both executable graph
//!   forms, preserving vertex indexing so per-vertex side tables (kernel
//!   tables, anchoring placements) line up without translation.
//! * [`join`] — a minimal fork-join façade built on the same pool, used by examples
//!   and by the NP wall-clock baselines.
//! * [`fault`] — the failure story: typed [`RunError`]s (strand panics are
//!   caught at the execution sites and the run drains to its latch instead of
//!   hanging) and per-run wall-clock [`RunBudget`] deadlines.
//! * `chaos` (behind the `chaos` feature, compiled out like `trace`) — a
//!   seeded deterministic fault-injection harness that attacks the above on
//!   purpose: panic strand *k*, delay worker *w*, fail the *n*-th steal.
//!
//! Executing an *NP* program and an *ND* program through the same executor differs
//! only in the DAG: the NP DAG contains the artificial dependencies the serial
//! construct introduces, the ND DAG does not.  That makes the wall-clock comparison
//! of experiment E12 an apples-to-apples measurement of the model, not of two
//! different runtimes.

#![warn(rust_2018_idioms)]
#![deny(missing_docs)]

/// Test-only: the range of 64-byte line indices that `$ty`'s field (path)
/// `$field` occupies, for the layout tests that keep hot fields apart.
#[cfg(test)]
macro_rules! field_lines {
    ($ty:ty, $($field:tt)+) => {{
        fn size<S, F>(_: fn(&S) -> &F) -> usize {
            std::mem::size_of::<F>()
        }
        let offset = std::mem::offset_of!($ty, $($field)+);
        offset / 64..(offset + size(|s: &$ty| &s.$($field)+)).div_ceil(64)
    }};
}

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod dataflow;
pub mod fault;
pub mod join;
pub mod latch;
pub mod lower;
pub mod pool;

#[cfg(feature = "chaos")]
pub use chaos::{ChaosStats, FaultPlan, WorkerDelay, CHAOS_PANIC_MARKER};
pub use dataflow::{
    CompiledGraph, ExecStats, Placement, ReusableGraph, ScheduleDriver, ScheduleError, StepOutcome,
    TaskGraph, TaskId, TaskTable,
};
pub use fault::{Priority, RunBudget, RunError};
pub use lower::{lower_dag, lower_dag_boxed, LoweredDag};
pub use pool::{PoolStats, PoolTopology, ThreadPool};

/// Aligns and pads `T` to whole 64-byte cache lines, so a field that every
/// worker writes shares no line with the fields they only read (and the
/// reads do not miss each time another core writes).
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct CacheLine<T>(pub(crate) T);

impl<T> std::ops::Deref for CacheLine<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}
