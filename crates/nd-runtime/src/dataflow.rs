//! The dataflow (ND) executor: compiled task graphs with dependency counters.
//!
//! An ND program's algorithm DAG — strands plus the dependency edges produced by the
//! DAG Rewriting System — is materialised as a [`CompiledGraph`] (a reusable,
//! allocation-free topology) whose tasks dispatch by index through a
//! [`TaskTable`].  Execution follows the dataflow discipline the paper
//! advocates for inter-processor work: a task becomes *ready*
//! when its last predecessor finishes, and ready tasks are pushed onto the finishing
//! worker's own deque, so that chains of dependent tasks tend to stay on one core
//! (the locality-preserving, depth-first intra-processor order) while idle workers
//! steal across chains for load balance.
//!
//! # The compiled-graph lifecycle: build → execute → (auto-)reset → execute
//!
//! Construction and execution are decoupled so repeated runs of the same algorithm
//! DAG pay the construction cost exactly once:
//!
//! 1. **Build.**  [`CompiledGraph::from_edges`] flattens the dependencies into
//!    one CSR arena (`succ_offsets` + `succ_targets`) and stores the *initial*
//!    predecessor counts separately from the *live* atomic counters.  It
//!    rejects self-dependencies, out-of-range edges, cycles and a placement
//!    vector of the wrong length.
//! 2. **Execute.**  The steady-state hot path performs **no heap allocation and
//!    acquires no mutex per task**: a ready task is an `(Arc<run state>, task
//!    index)` pair on the deque, its claim is the atomic decrement of its
//!    dependency counter (counters guarantee exactly-once execution, so no
//!    separate claim flag or `Mutex<Option<Box<…>>>` take is needed), and its
//!    successors come straight from the CSR arena.  The run's shared lines
//!    are written once per inline *chain*, not once per task: a worker counts
//!    the tasks it claims (drained ones included) and the ones whose work
//!    ran, and publishes both when its chain ends — one per-worker add, then
//!    one completion-latch decrement by the chain's length.
//! 3. **Reset.**  Each task restores its own live counter from the stored initial
//!    count the moment it is claimed, so when `execute` returns the graph is
//!    already reset and can be executed again without rebuilding.  An explicit
//!    [`CompiledGraph::reset`] exists for recovery after a faulted run.
//!
//! The whole lifecycle in a dozen lines:
//!
//! ```
//! use nd_runtime::dataflow::{CompiledGraph, TaskTable};
//! use nd_runtime::ThreadPool;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! struct Hits(AtomicUsize);
//! impl TaskTable for Hits {
//!     fn run_task(&self, _task: u32) {
//!         self.0.fetch_add(1, Ordering::SeqCst);
//!     }
//! }
//!
//! let pool = ThreadPool::new(2);
//! let hits = Arc::new(Hits(AtomicUsize::new(0)));
//! // Build once (task 0 before task 1) …
//! let graph = Arc::new(CompiledGraph::from_edges(2, &[(0, 1)], Vec::new()));
//! // … execute any number of times: the graph auto-resets after every run.
//! for round in 1..=3 {
//!     let stats = graph.execute(&pool, &hits).unwrap();
//!     assert_eq!(stats.tasks, 2);
//!     assert!(graph.counters_are_reset());
//!     assert_eq!(hits.0.load(Ordering::SeqCst), 2 * round);
//! }
//! ```
//!
//! # Faults: panics, deadlines, and the drain
//!
//! Every `execute` entry point returns `Result<…, RunError>` instead of
//! hanging or aborting on failure.  A strand's panic is caught **at its
//! execution site** (so the worker survives), converted into
//! [`RunError::Panicked`], and the run is *cancelled*: later claims skip
//! their work but still perform the full claim protocol — restore the
//! counter, decrement successors, count the latch down — so the completion
//! latch structurally reaches zero and the submitting thread gets its `Err`
//! back with the counters already reset.  A [`RunBudget`] deadline
//! (`execute_with`) is checked at the same claim boundaries and cancels the
//! run the same way via [`RunError::DeadlineExceeded`].  Recovery after an
//! `Err`: call [`CompiledGraph::reset`] (re-asserts counters, clears the
//! in-flight guard), re-initialise any runtime data the faulted run may have
//! half-written, and re-execute — the re-run is bit-identical to an
//! unfaulted run (the chaos property tests prove this across the worker
//! matrix).
//!
//! # Inline tail-execution
//!
//! When finishing a task makes **exactly one** successor ready (and placement
//! allows it to run on the current worker), the worker runs that successor in
//! place instead of round-tripping it through the deque.  Serial chains — the
//! common shape inside the paper's fine-grained ND DAGs — therefore execute with
//! zero push/pop/steal-check overhead while preserving the depth-first
//! intra-processor order.  When several successors become ready at once they are
//! all pushed onto the local deque (the first one last, so it is popped next),
//! keeping them stealable for load balance, and the chain ends there.  A whole
//! chain costs one latch decrement and one per-worker counter add, made after
//! its last push: the latch cannot reach zero while a task the chain readied
//! is still unaccounted for.

use crate::fault::{RunBudget, RunError, GENERIC_TASK_LABEL};
use crate::latch::CountLatch;
use crate::pool::{GraphTask, JobUnit, ThreadPool, WorkerCtx};
use crate::CacheLine;
use nd_trace::{EventKind, TraceEvent, EXEC_FLAG_INLINE, NO_TASK};
use parking_lot::Mutex;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records a run-boundary event ([`EventKind::RunBegin`] / [`EventKind::RunEnd`])
/// from the submitting thread, into the pool's external ring.
#[inline]
fn trace_run_boundary(pool: &ThreadPool, kind: EventKind, run_id: u32) {
    let tracer = pool.tracer();
    let now = tracer.now_ns();
    tracer.record(
        tracer.external_ring(),
        &TraceEvent {
            kind,
            worker: tracer.external_ring() as u32,
            task: NO_TASK,
            t0_ns: now,
            t1_ns: now,
            a: 0,
            b: run_id,
        },
    );
}

/// Statistics of one graph execution.
#[derive(Clone, Debug)]
pub struct ExecStats {
    /// Number of tasks executed.
    pub tasks: usize,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Tasks executed by each worker.
    pub tasks_per_worker: Vec<u64>,
    /// Successful steals performed by the pool during the execution (includes any
    /// concurrent activity on the same pool).
    pub steals: u64,
}

/// Where a task must run in a placed execution (one entry per task of
/// [`CompiledGraph::from_edges`]'s `placement`).
///
/// `Placement::Anywhere` keeps the classic behaviour: ready tasks go onto the
/// finishing worker's own deque.  `Placement::Group(g)` routes the task to the
/// pool's queue group `g` — the runtime counterpart of *anchoring* a task to a
/// cache subcluster.  Only group `g`'s workers poll that queue, but a task that
/// lands on a group member's own deque can still be stolen by an out-of-group
/// worker unless the pool's steal order stays within the group; such escapes
/// are what the pool's cross-cluster steal counters measure.  With a
/// within-group steal order the group boundary is never crossed: a placed task
/// that becomes ready goes to its group's injector, or stays on the finishing
/// worker's deque when that worker already belongs to the group.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// No constraint: run wherever dataflow order takes it.
    Anywhere,
    /// Run only on workers of the given queue group.
    Group(u32),
}

/// The per-task work of a compiled graph, dispatched by index.
///
/// There is no heap-boxed closure per strand: a table implementation matches
/// on the task index (typically through an operation enum, as
/// `nd-algorithms::exec` does with its block-operation table) and performs the
/// work directly.  The executor guarantees `run_task`
/// is called **exactly once per task per execution** — a task is claimed by the
/// atomic decrement of its dependency counter, so implementations may use
/// interior mutability without further synchronisation as long as distinct
/// tasks touch disjoint state.
pub trait TaskTable: Send + Sync + 'static {
    /// Runs the work of task `task`.
    fn run_task(&self, task: u32);

    /// A short static label for task `task`'s operation kind, carried by
    /// [`RunError::Panicked`] so fault reports name the operation (e.g.
    /// `"gemm"`) rather than just an index.  Tables without operation kinds
    /// keep the generic default.
    fn task_label(&self, task: u32) -> &'static str {
        let _ = task;
        GENERIC_TASK_LABEL
    }
}

/// The per-run fault state: the cancellation flag every claim consults, the
/// first-fault-wins error slot, and the armed deadline.
///
/// The deadline is stored as nanoseconds relative to a fixed `epoch`
/// (`u64::MAX` = unbounded) so the hot-path check is one relaxed load and a
/// compare — no `Instant` in an atomic.
struct FaultCell {
    /// Set on the first fault; claims in a cancelled run drain (full claim
    /// protocol, no work).
    cancelled: AtomicBool,
    /// The first fault observed; later faults in the same run lose the race
    /// and are dropped.
    error: Mutex<Option<RunError>>,
    /// Fixed time origin for the atomic deadline encoding.
    epoch: Instant,
    /// Nanoseconds from `epoch` to the current run's start.
    armed_at_ns: AtomicU64,
    /// Nanoseconds from `epoch` to the current run's deadline; `u64::MAX`
    /// when unbounded.
    deadline_ns: AtomicU64,
}

impl FaultCell {
    fn new() -> Self {
        FaultCell {
            cancelled: AtomicBool::new(false),
            error: Mutex::new(None),
            epoch: Instant::now(),
            armed_at_ns: AtomicU64::new(0),
            deadline_ns: AtomicU64::new(u64::MAX),
        }
    }

    /// Re-arms the cell for a fresh run under `budget`.
    fn arm(&self, budget: &RunBudget) {
        *self.error.lock() = None;
        self.cancelled.store(false, Ordering::Relaxed);
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.armed_at_ns.store(now, Ordering::Relaxed);
        let deadline = budget
            .deadline
            .map(|d| now.saturating_add(d.as_nanos() as u64))
            .unwrap_or(u64::MAX);
        self.deadline_ns.store(deadline, Ordering::Relaxed);
    }

    #[inline]
    fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// `Some((deadline, elapsed))` if the armed deadline has passed.
    #[inline]
    fn deadline_blown(&self) -> Option<(Duration, Duration)> {
        let deadline = self.deadline_ns.load(Ordering::Relaxed);
        if deadline == u64::MAX {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        if now <= deadline {
            return None;
        }
        let armed = self.armed_at_ns.load(Ordering::Relaxed);
        Some((
            Duration::from_nanos(deadline - armed),
            Duration::from_nanos(now.saturating_sub(armed)),
        ))
    }

    /// Records `err` (first fault wins) and cancels the run.  Returns `true`
    /// if this was the run's first fault.
    fn fail(&self, err: RunError) -> bool {
        let mut slot = self.error.lock();
        let first = slot.is_none();
        if first {
            *slot = Some(err);
        }
        drop(slot);
        self.cancelled.store(true, Ordering::Relaxed);
        first
    }

    /// Takes the run's error, if any (called once the latch has released, so
    /// all claims are complete).
    fn take(&self) -> Option<RunError> {
        self.error.lock().take()
    }
}

/// A compiled task-graph topology: one CSR successor arena plus dependency
/// counters, reusable across executions and shared between workers.
///
/// The graph stores *initial* predecessor counts separately from the *live*
/// atomic counters; every task restores its own live counter when it is
/// claimed, so after [`CompiledGraph::execute`] returns the graph is already
/// reset and can be executed again without rebuilding (see the module docs for
/// the full lifecycle).
pub struct CompiledGraph {
    /// CSR offsets into `succ_targets`; `succs(t) = succ_targets[o[t]..o[t+1]]`.
    succ_offsets: Vec<u32>,
    /// Flattened successor arena.
    succ_targets: Vec<u32>,
    /// Immutable predecessor counts (the reset values).
    initial_preds: Vec<u32>,
    /// Live dependency counters, decremented as predecessors finish.
    pending: Vec<AtomicU32>,
    /// Tasks with no predecessors, spawned at the start of every execution.
    roots: Vec<u32>,
    /// Per-task placement; empty means every task is `Anywhere`.
    placement: Vec<Placement>,
    edges: usize,
    /// Guards against two overlapping executions corrupting the counters.
    in_flight: AtomicBool,
}

impl CompiledGraph {
    /// Builds a compiled graph from its task count and dependency edges
    /// `(from, to)`; `placement` is empty (every task [`Placement::Anywhere`])
    /// or holds one entry per task.
    ///
    /// # Panics
    /// Panics on self-dependencies, out-of-range task indices, dependency
    /// cycles, or a placement length mismatch.
    pub fn from_edges(task_count: usize, edges: &[(u32, u32)], placement: Vec<Placement>) -> Self {
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); task_count];
        let mut preds = vec![0u32; task_count];
        for &(from, to) in edges {
            assert_ne!(from, to, "a task cannot depend on itself");
            assert!(
                (from as usize) < task_count && (to as usize) < task_count,
                "edge ({from}, {to}) out of range for {task_count} tasks"
            );
            succs[from as usize].push(to);
            preds[to as usize] += 1;
        }
        assert!(
            placement.is_empty() || placement.len() == task_count,
            "placement length {} does not match task count {}",
            placement.len(),
            task_count
        );
        let mut succ_offsets = Vec::with_capacity(task_count + 1);
        let mut succ_targets = Vec::with_capacity(edges.len());
        succ_offsets.push(0u32);
        for s in &succs {
            succ_targets.extend_from_slice(s);
            succ_offsets.push(succ_targets.len() as u32);
        }
        let roots = (0..task_count as u32)
            .filter(|&t| preds[t as usize] == 0)
            .collect();
        let graph = CompiledGraph {
            succ_offsets,
            succ_targets,
            pending: preds.iter().map(|&p| AtomicU32::new(p)).collect(),
            initial_preds: preds,
            roots,
            placement,
            edges: edges.len(),
            in_flight: AtomicBool::new(false),
        };
        assert!(graph.is_acyclic(), "task graph contains a dependency cycle");
        graph
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.initial_preds.len()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The successors of task `t`, straight from the CSR arena.
    #[inline]
    pub fn successors(&self, t: u32) -> &[u32] {
        let lo = self.succ_offsets[t as usize] as usize;
        let hi = self.succ_offsets[t as usize + 1] as usize;
        &self.succ_targets[lo..hi]
    }

    /// All dependency edges `(from, to)`, reconstructed from the CSR arena.
    /// A collection-time helper (trace side tables feed these to the
    /// critical-path estimate), not a hot path.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.edges);
        for t in 0..self.task_count() as u32 {
            for &s in self.successors(t) {
                out.push((t, s));
            }
        }
        out
    }

    /// `true` if the dependency graph is acyclic (checked by Kahn's algorithm).
    pub fn is_acyclic(&self) -> bool {
        let n = self.task_count();
        let mut indeg = self.initial_preds.clone();
        let mut queue: Vec<u32> = self.roots.clone();
        let mut seen = 0usize;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &s in self.successors(i) {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        seen == n
    }

    /// `true` if every live dependency counter equals its initial value.
    ///
    /// Holds before the first execution and after every completed execution
    /// (tasks restore their own counters as they are claimed).
    pub fn counters_are_reset(&self) -> bool {
        self.pending
            .iter()
            .zip(&self.initial_preds)
            .all(|(live, &init)| live.load(Ordering::Acquire) == init)
    }

    /// Restores every live dependency counter to its initial value and clears
    /// the in-flight guard.
    ///
    /// Not needed between successful executions (they leave the graph reset);
    /// provided for recovery after an execution that panicked mid-run — which
    /// may have left the in-flight guard set, so it is cleared here too.
    pub fn reset(&self) {
        for (live, &init) in self.pending.iter().zip(&self.initial_preds) {
            live.store(init, Ordering::Release);
        }
        self.in_flight.store(false, Ordering::Release);
    }

    #[inline]
    fn placement_of(&self, task: u32) -> Placement {
        self.placement
            .get(task as usize)
            .copied()
            .unwrap_or(Placement::Anywhere)
    }

    /// The claim boundary's self-reset half: restores `id`'s live counter to
    /// its initial value the moment the task is claimed.  All predecessors
    /// have finished (the counter was zero), and nothing decrements this slot
    /// again until the *next* execution, which cannot start before this one
    /// completes — so the store needs no ordering.
    ///
    /// Both execution paths go through here: the pool's workers
    /// ([`GraphTask::run_graph_task`]) and the deterministic
    /// [`ScheduleDriver`].  `nd-model` model-checks exactly this protocol;
    /// keeping it in one place is what makes the conformance replay honest.
    #[inline]
    pub(crate) fn claim_restore(&self, id: u32) {
        self.pending[id as usize].store(self.initial_preds[id as usize], Ordering::Relaxed);
    }

    /// The finish half of the protocol: decrements every successor's live
    /// counter (the atomic handoff that makes the *last* finishing
    /// predecessor the one that readies a task) and invokes `on_ready` for
    /// each successor whose counter reaches zero.
    ///
    /// The caller decides what "ready" means operationally — the pool path
    /// spawns or tail-executes, the [`ScheduleDriver`] pushes onto its
    /// frontier — but the counter discipline is shared.
    #[inline]
    pub(crate) fn finish_successors(&self, id: u32, mut on_ready: impl FnMut(u32)) {
        for &s in self.successors(id) {
            let prev = self.pending[s as usize].fetch_sub(1, Ordering::AcqRel);
            debug_assert!(prev > 0, "dependency counter underflow");
            if prev == 1 {
                on_ready(s);
            }
        }
    }

    /// Executes the graph on `pool`, dispatching every task through `table`,
    /// and blocks until every task has run.  On success the graph is left
    /// reset, ready for the next execution; on a fault (a strand panicked)
    /// the run is drained, the error returned, and [`CompiledGraph::reset`]
    /// is the documented recovery (see the module docs).
    ///
    /// # Panics
    /// Panics if another execution of this graph is still in flight.
    pub fn execute<T: TaskTable>(
        self: &Arc<Self>,
        pool: &ThreadPool,
        table: &Arc<T>,
    ) -> Result<ExecStats, RunError> {
        self.execute_with(pool, table, &RunBudget::UNBOUNDED)
    }

    /// [`CompiledGraph::execute`] under a [`RunBudget`]: a run that overstays
    /// the budget's wall-clock deadline is cancelled at the next claim
    /// boundary and drains into [`RunError::DeadlineExceeded`].
    ///
    /// # Panics
    /// Panics if another execution of this graph is still in flight.
    pub fn execute_with<T: TaskTable>(
        self: &Arc<Self>,
        pool: &ThreadPool,
        table: &Arc<T>,
        budget: &RunBudget,
    ) -> Result<ExecStats, RunError> {
        let n = self.task_count();
        assert!(
            !self.in_flight.swap(true, Ordering::Acquire),
            "compiled graph is already executing"
        );
        debug_assert!(
            self.counters_are_reset(),
            "dependency counters not at their initial values — \
             was a previous execution aborted without reset()?"
        );
        let steals_before = pool.steals();
        let run = Arc::new(ActiveRun {
            graph: Arc::clone(self),
            table: Arc::clone(table),
            latch: CacheLine(CountLatch::new(n)),
            per_worker: (0..pool.num_threads()).map(|_| AtomicU64::new(0)).collect(),
            fault: FaultCell::new(),
        });
        run.fault.arm(budget);

        let run_id = if pool.trace_enabled() {
            let id = pool.tracer().next_run_id();
            trace_run_boundary(pool, EventKind::RunBegin, id);
            Some(id)
        } else {
            None
        };
        let start = Instant::now();
        for &r in &self.roots {
            let unit = JobUnit::Graph(Arc::clone(&run) as Arc<dyn GraphTask>, r);
            match self.placement_of(r) {
                Placement::Group(g) => pool.spawn_unit_to_group(g as usize, unit),
                Placement::Anywhere => pool.spawn_unit(unit),
            }
        }
        run.latch.wait();
        let elapsed = start.elapsed();
        self.in_flight.store(false, Ordering::Release);
        if let Some(id) = run_id {
            trace_run_boundary(pool, EventKind::RunEnd, id);
        }
        if let Some(err) = run.fault.take() {
            return Err(err);
        }

        Ok(ExecStats {
            tasks: n,
            elapsed,
            tasks_per_worker: run
                .per_worker
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            steals: pool.steals() - steals_before,
        })
    }
}

/// Statistics of one steady-state execution (see [`PersistentRun`]): `Copy`,
/// so returning it performs no heap allocation — unlike [`ExecStats`], whose
/// per-worker task vector is collected per call.
#[derive(Clone, Copy, Debug)]
pub struct SteadyStats {
    /// Number of tasks executed.
    pub tasks: usize,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Successful steals performed by the pool during the execution.
    pub steals: u64,
}

/// A compiled graph bound to its task table and run state **once**, so that
/// re-execution is completely allocation-free.
///
/// [`CompiledGraph::execute`] builds a fresh shared run state (one `Arc`, a
/// per-worker counter vector, a latch) per call — cheap, but not *zero*.
/// `PersistentRun` hoists that state out of the loop: the latch is re-armed
/// and the counters zeroed in place before every run, ready tasks travel as
/// `(Arc clone, index)` pairs through deques whose buffers persist at their
/// high-water capacity, and the returned [`SteadyStats`] is `Copy`.  Combined
/// with the per-worker packing scratch of
/// [`with_pack_scratch`](crate::pool::with_pack_scratch) this is what makes
/// steady-state re-execution of a compiled algorithm perform **zero heap
/// allocations after the first run** (asserted by the workspace
/// counting-allocator test).
pub struct PersistentRun<T: TaskTable> {
    run: Arc<ActiveRun<T>>,
}

impl<T: TaskTable> PersistentRun<T> {
    /// Binds `graph` and `table` into a reusable run state able to serve pools
    /// of up to `max_workers` threads.
    pub fn new(graph: &Arc<CompiledGraph>, table: &Arc<T>, max_workers: usize) -> Self {
        PersistentRun {
            run: Arc::new(ActiveRun {
                graph: Arc::clone(graph),
                table: Arc::clone(table),
                latch: CacheLine(CountLatch::new(0)),
                per_worker: (0..max_workers).map(|_| AtomicU64::new(0)).collect(),
                fault: FaultCell::new(),
            }),
        }
    }

    /// Executes the graph, blocking until every task has run.  On success
    /// the graph is left reset, ready for the next call.  Performs no heap
    /// allocation beyond what the pool's deques may grow on their first
    /// runs.  On a fault the run drains into a [`RunError`]; recover with
    /// [`CompiledGraph::reset`] and re-execute.
    ///
    /// # Panics
    /// Panics if another execution of the graph is in flight, or if `pool`
    /// has more workers than this run state was built for.
    pub fn execute(&self, pool: &ThreadPool) -> Result<SteadyStats, RunError> {
        self.execute_with(pool, &RunBudget::UNBOUNDED)
    }

    /// [`PersistentRun::execute`] under a [`RunBudget`] (see
    /// [`CompiledGraph::execute_with`]).
    ///
    /// # Panics
    /// Panics if another execution of the graph is in flight, or if `pool`
    /// has more workers than this run state was built for.
    pub fn execute_with(
        &self,
        pool: &ThreadPool,
        budget: &RunBudget,
    ) -> Result<SteadyStats, RunError> {
        let run = &self.run;
        let g = &run.graph;
        let n = g.task_count();
        assert!(
            pool.num_threads() <= run.per_worker.len(),
            "persistent run built for {} workers, pool has {}",
            run.per_worker.len(),
            pool.num_threads()
        );
        assert!(
            !g.in_flight.swap(true, Ordering::Acquire),
            "compiled graph is already executing"
        );
        debug_assert!(g.counters_are_reset());
        run.latch.reset(n);
        run.fault.arm(budget);
        let run_id = if pool.trace_enabled() {
            let tracer = pool.tracer();
            let id = tracer.next_run_id();
            let now = tracer.now_ns();
            // The latch re-arm above is the persistent run's "recycle" moment;
            // record it so re-execution rounds are visible in the stream.
            tracer.record(
                tracer.external_ring(),
                &TraceEvent {
                    kind: EventKind::LatchReset,
                    worker: tracer.external_ring() as u32,
                    task: NO_TASK,
                    t0_ns: now,
                    t1_ns: now,
                    a: 0,
                    b: n as u32,
                },
            );
            trace_run_boundary(pool, EventKind::RunBegin, id);
            Some(id)
        } else {
            None
        };
        for c in &run.per_worker {
            c.store(0, Ordering::Relaxed);
        }
        let steals_before = pool.steals();
        let start = Instant::now();
        for &r in &g.roots {
            let unit = JobUnit::Graph(Arc::clone(&self.run) as Arc<dyn GraphTask>, r);
            match g.placement_of(r) {
                Placement::Group(grp) => pool.spawn_unit_to_group(grp as usize, unit),
                Placement::Anywhere => pool.spawn_unit(unit),
            }
        }
        run.latch.wait();
        let elapsed = start.elapsed();
        g.in_flight.store(false, Ordering::Release);
        if let Some(id) = run_id {
            trace_run_boundary(pool, EventKind::RunEnd, id);
        }
        if let Some(err) = run.fault.take() {
            return Err(err);
        }
        Ok(SteadyStats {
            tasks: n,
            elapsed,
            steals: pool.steals() - steals_before,
        })
    }

    /// Tasks executed per worker in the most recent run (allocates the
    /// returned vector; not part of the steady-state hot path).
    pub fn tasks_per_worker(&self) -> Vec<u64> {
        self.run
            .per_worker
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The underlying compiled graph.
    pub fn graph(&self) -> &Arc<CompiledGraph> {
        &self.run.graph
    }
}

/// The per-execution state shared by every in-flight task of one run.
///
/// Every field but `latch` is read-mostly while the run is in flight; the
/// latch is written once per inline chain by whichever worker ends it, so it
/// sits on a cache line of its own and its writes do not evict the fields
/// every claim reads.
struct ActiveRun<T: TaskTable> {
    graph: Arc<CompiledGraph>,
    table: Arc<T>,
    latch: CacheLine<CountLatch>,
    per_worker: Vec<AtomicU64>,
    fault: FaultCell,
}

impl<T: TaskTable> ActiveRun<T> {
    #[inline]
    fn spawn(self: &Arc<Self>, task: u32, ctx: &WorkerCtx<'_>) {
        let unit = JobUnit::Graph(Arc::clone(self) as Arc<dyn GraphTask>, task);
        match self.graph.placement_of(task) {
            Placement::Group(g) => ctx.spawn_unit_to_group(g as usize, unit),
            Placement::Anywhere => ctx.spawn_unit_local(unit),
        }
    }

    /// `true` if `task`'s placement allows it to run on the current worker
    /// (the precondition for inline tail-execution).
    #[inline]
    fn runnable_here(&self, task: u32, ctx: &WorkerCtx<'_>) -> bool {
        match self.graph.placement_of(task) {
            Placement::Group(g) => ctx.in_group(g as usize),
            Placement::Anywhere => true,
        }
    }

    /// Runs task `id`'s work inside a catch scope (recording the usual
    /// claim/exec trace events around it).  `chaos_armed` (read once per
    /// chain) routes the work through [`ActiveRun::exec_chaos`], whose scope
    /// also holds the chaos panic injection.
    #[inline]
    fn exec_one(
        &self,
        id: u32,
        ctx: &WorkerCtx<'_>,
        steal_wire: u16,
        exec_flags: u32,
        chaos_armed: bool,
    ) -> std::thread::Result<()> {
        // Disarmed, the catch scope holds exactly the strand, as in a build
        // without the chaos feature; the armed scope is out of line.
        let work = || {
            if chaos_armed {
                self.exec_chaos(id, ctx)
            } else {
                catch_unwind(AssertUnwindSafe(|| self.table.run_task(id)))
            }
        };
        if ctx.trace_enabled() {
            let tracer = ctx.tracer();
            let worker = ctx.worker_index;
            let t0 = tracer.now_ns();
            tracer.record(
                worker,
                &TraceEvent {
                    kind: EventKind::Claim,
                    worker: worker as u32,
                    task: id,
                    t0_ns: t0,
                    t1_ns: t0,
                    a: 0,
                    b: 0,
                },
            );
            let result = work();
            // The span is recorded even when the work panicked: the time up
            // to the unwind is real, and Perfetto shows the fault inline.
            tracer.record(
                worker,
                &TraceEvent {
                    kind: EventKind::Exec,
                    worker: worker as u32,
                    task: id,
                    t0_ns: t0,
                    t1_ns: tracer.now_ns(),
                    a: steal_wire,
                    b: exec_flags,
                },
            );
            result
        } else {
            work()
        }
    }

    /// [`ActiveRun::exec_one`]'s catch scope while a chaos plan is armed:
    /// the injected panic is raised inside it, so it takes exactly the real
    /// fault path.
    #[cold]
    #[inline(never)]
    fn exec_chaos(&self, id: u32, ctx: &WorkerCtx<'_>) -> std::thread::Result<()> {
        catch_unwind(AssertUnwindSafe(|| {
            if ctx.chaos_should_panic(id) {
                panic!("chaos: injected panic at strand {id}");
            }
            self.table.run_task(id);
        }))
    }

    /// Records `err` as the run's fault (first fault wins) and cancels the
    /// rest of the run; emits a trace `Fault` event for the winning fault.
    #[cold]
    fn record_fault(&self, err: RunError, task: u32, ctx: &WorkerCtx<'_>) {
        let kind_wire = err.kind_wire();
        if self.fault.fail(err) && ctx.trace_enabled() {
            let tracer = ctx.tracer();
            let worker = ctx.worker_index;
            let now = tracer.now_ns();
            tracer.record(
                worker,
                &TraceEvent {
                    kind: EventKind::Fault,
                    worker: worker as u32,
                    task,
                    t0_ns: now,
                    t1_ns: now,
                    a: kind_wire,
                    b: 0,
                },
            );
        }
    }
}

impl<T: TaskTable> GraphTask for ActiveRun<T> {
    fn run_graph_task(self: Arc<Self>, first: u32, ctx: &WorkerCtx<'_>) {
        let g = &*self.graph;
        let mut id = first;
        // The first task of the chain came off a queue (possibly stolen);
        // every further iteration is inline tail-execution.
        let mut steal_wire = ctx.steal_distance_wire();
        let mut exec_flags = 0u32;
        // The chain's shared-line writes are batched: `done` counts the tasks
        // claimed in this call (drained ones included) and `ran` those whose
        // work returned; both are published once, after the loop.
        let mut done = 0usize;
        let mut ran = 0u64;
        let chaos_armed = ctx.chaos_armed();
        loop {
            // Restore the live counter the moment the task is claimed (the
            // self-resetting half of the protocol; see
            // [`CompiledGraph::claim_restore`]).
            g.claim_restore(id);
            done += 1;
            // The claim boundary is also the fault boundary: a cancelled run
            // *drains* — every remaining task is still claimed exactly once
            // and performs full successor/latch bookkeeping below, just
            // without running its work — so the latch structurally reaches
            // zero and `execute` returns the error instead of hanging.
            let mut live = !self.fault.cancelled();
            if live {
                if let Some((deadline, elapsed)) = self.fault.deadline_blown() {
                    self.record_fault(
                        RunError::DeadlineExceeded { deadline, elapsed },
                        NO_TASK,
                        ctx,
                    );
                    live = false;
                }
            }
            if live {
                match self.exec_one(id, ctx, steal_wire, exec_flags, chaos_armed) {
                    Ok(()) => ran += 1,
                    Err(payload) => {
                        // The unwind stopped here: the worker survives, the
                        // fault becomes typed data, the run drains.
                        ctx.note_panicked();
                        self.record_fault(
                            RunError::Panicked {
                                task: id,
                                op_kind: self.table.task_label(id),
                                payload: RunError::payload_string(&*payload),
                            },
                            id,
                            ctx,
                        );
                    }
                }
            }

            let mut first_ready = None;
            let mut ready = 0u32;
            g.finish_successors(id, |s| {
                ready += 1;
                if first_ready.is_none() {
                    first_ready = Some(s);
                } else {
                    self.spawn(s, ctx);
                }
            });
            match first_ready {
                // Inline tail-execution: exactly one successor became ready
                // and may run here — run it in place, skipping the deque.
                Some(s) if ready == 1 && self.runnable_here(s, ctx) => {
                    id = s;
                    steal_wire = 0;
                    exec_flags = EXEC_FLAG_INLINE;
                }
                Some(s) => {
                    self.spawn(s, ctx);
                    break;
                }
                None => break,
            }
        }
        // Chain end.  Every task this chain readied is already on a queue,
        // and none of the `done` claims is counted yet, so the latch cannot
        // reach zero before this one decrement — and the per-worker count it
        // publishes (written first) is visible to whoever the release wakes.
        self.per_worker[ctx.worker_index].fetch_add(ran, Ordering::Relaxed);
        self.latch.count_down_by(done);
    }
}

/// What one [`ScheduleDriver::step`] did with its task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The task was claimed live and its work ran to completion.
    Executed,
    /// The task was claimed in a cancelled run: the full claim protocol was
    /// performed (counter restored, successors decremented, latch counted
    /// down) but the work was skipped — the drain path.
    Drained,
    /// The task's work panicked; the unwind was caught, the fault recorded
    /// (first fault wins) and the rest of the run will drain.
    Panicked,
}

/// A schedule handed to [`ScheduleDriver::step`] broke the protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// The driven task is not on the ready frontier: either its dependency
    /// counter has not reached zero (claiming it would violate the
    /// no-claim-of-unready-task invariant) or it was already claimed this
    /// run (claiming it again would violate exactly-once).
    NotReady {
        /// The task the schedule tried to claim.
        task: u32,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NotReady { task } => {
                write!(f, "task {task} is not on the ready frontier")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A deterministic schedule driver: executes a [`CompiledGraph`] **one claim
/// at a time on the calling thread**, with the schedule chosen by the caller
/// instead of by the pool's workers and thieves.
///
/// This is the conformance hook the `nd-model` state-space explorer replays
/// its sampled schedules through: every step performs the *real* protocol on
/// the *real* shared objects — the graph's atomic dependency counters
/// (`CompiledGraph::claim_restore` / `CompiledGraph::finish_successors`),
/// a genuine [`CountLatch`], and the same `FaultCell` cancellation/drain
/// machinery the pool path uses — so a schedule accepted here is a schedule
/// the concurrent executor could actually take, and the observable outcome
/// (claim order, executed-vs-drained partition, final error, counter state)
/// is the implementation's answer, not a simulation's.
///
/// The driver holds the graph's in-flight guard for its whole lifetime;
/// dropping it mid-run resets the graph (counters re-asserted, guard
/// cleared), so an abandoned replay cannot poison later executions.
///
/// ```
/// use nd_runtime::dataflow::{CompiledGraph, ScheduleDriver, StepOutcome, TaskTable};
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// struct Marks(Vec<AtomicUsize>);
/// impl TaskTable for Marks {
///     fn run_task(&self, task: u32) {
///         self.0[task as usize].fetch_add(1, Ordering::SeqCst);
///     }
/// }
///
/// // A diamond: 0 → {1, 2} → 3, driven in the order 0, 2, 1, 3.
/// let graph = Arc::new(CompiledGraph::from_edges(
///     4,
///     &[(0, 1), (0, 2), (1, 3), (2, 3)],
///     Vec::new(),
/// ));
/// let table = Arc::new(Marks((0..4).map(|_| AtomicUsize::new(0)).collect()));
/// let mut driver = ScheduleDriver::new(&graph, &table);
/// assert_eq!(driver.ready(), &[0]);
/// for &t in &[0, 2, 1, 3] {
///     assert_eq!(driver.step(t).unwrap(), StepOutcome::Executed);
/// }
/// assert_eq!(driver.claim_order(), &[0, 2, 1, 3]);
/// driver.finish().unwrap();
/// assert!(graph.counters_are_reset());
/// ```
pub struct ScheduleDriver<T: TaskTable> {
    graph: Arc<CompiledGraph>,
    table: Arc<T>,
    fault: FaultCell,
    latch: CountLatch,
    /// The ready frontier: unclaimed tasks whose dependency counters are
    /// zero, kept sorted for deterministic inspection.
    ready: Vec<u32>,
    claim_order: Vec<u32>,
}

impl<T: TaskTable> ScheduleDriver<T> {
    /// Starts a driven run of `graph` with an unbounded budget.
    ///
    /// # Panics
    /// Panics if another execution of the graph is still in flight.
    pub fn new(graph: &Arc<CompiledGraph>, table: &Arc<T>) -> Self {
        Self::with_budget(graph, table, &RunBudget::UNBOUNDED)
    }

    /// Starts a driven run of `graph` under `budget` (the deadline is checked
    /// at every claim, exactly like the pool path).
    ///
    /// # Panics
    /// Panics if another execution of the graph is still in flight.
    pub fn with_budget(graph: &Arc<CompiledGraph>, table: &Arc<T>, budget: &RunBudget) -> Self {
        assert!(
            !graph.in_flight.swap(true, Ordering::Acquire),
            "compiled graph is already executing"
        );
        debug_assert!(
            graph.counters_are_reset(),
            "dependency counters not at their initial values — \
             was a previous execution aborted without reset()?"
        );
        let fault = FaultCell::new();
        fault.arm(budget);
        let mut ready = graph.roots.clone();
        ready.sort_unstable();
        ScheduleDriver {
            graph: Arc::clone(graph),
            table: Arc::clone(table),
            fault,
            latch: CountLatch::new(graph.task_count()),
            ready,
            claim_order: Vec::with_capacity(graph.task_count()),
        }
    }

    /// The current ready frontier (sorted ascending): tasks whose dependency
    /// counters have reached zero and that have not been claimed yet.
    pub fn ready(&self) -> &[u32] {
        &self.ready
    }

    /// The tasks claimed so far, in claim order.
    pub fn claim_order(&self) -> &[u32] {
        &self.claim_order
    }

    /// `true` once every task has been claimed (the latch has released).
    pub fn is_complete(&self) -> bool {
        self.latch.is_released()
    }

    /// Cancels the rest of the run as `err` (first fault wins), exactly as a
    /// worker observing a fault would: subsequent claims drain.
    pub fn cancel(&self, err: RunError) {
        self.fault.fail(err);
    }

    /// Claims `task` and performs one full protocol step: counter self-reset,
    /// cancellation/deadline consult, the work (under the same catch scope as
    /// the pool path, so a panicking task becomes a typed fault and the run
    /// drains), successor decrements, latch countdown.
    ///
    /// # Errors
    /// [`ScheduleError::NotReady`] if `task` is not on the ready frontier —
    /// the driver refuses to double-claim or to claim an unready task, which
    /// is precisely the property the conformance replay checks.
    pub fn step(&mut self, task: u32) -> Result<StepOutcome, ScheduleError> {
        let at = self
            .ready
            .binary_search(&task)
            .map_err(|_| ScheduleError::NotReady { task })?;
        self.ready.remove(at);
        self.graph.claim_restore(task);
        let mut outcome = StepOutcome::Drained;
        let mut live = !self.fault.cancelled();
        if live {
            if let Some((deadline, elapsed)) = self.fault.deadline_blown() {
                self.fault
                    .fail(RunError::DeadlineExceeded { deadline, elapsed });
                live = false;
            }
        }
        if live {
            let table = &self.table;
            match catch_unwind(AssertUnwindSafe(|| table.run_task(task))) {
                Ok(()) => outcome = StepOutcome::Executed,
                Err(payload) => {
                    self.fault.fail(RunError::Panicked {
                        task,
                        op_kind: self.table.task_label(task),
                        payload: RunError::payload_string(&*payload),
                    });
                    outcome = StepOutcome::Panicked;
                }
            }
        }
        let ready = &mut self.ready;
        self.graph.finish_successors(task, |s| {
            if let Err(pos) = ready.binary_search(&s) {
                ready.insert(pos, s);
            }
        });
        self.latch.count_down();
        self.claim_order.push(task);
        Ok(outcome)
    }

    /// Ends the run: returns the fault (if any) once every task has been
    /// claimed, leaving the graph reset and ready for its next execution.
    ///
    /// # Panics
    /// Panics if tasks remain unclaimed — an incomplete schedule is a driver
    /// bug, not a run outcome.
    pub fn finish(self) -> Result<(), RunError> {
        assert!(
            self.latch.is_released(),
            "schedule incomplete: {} of {} tasks claimed",
            self.claim_order.len(),
            self.graph.task_count()
        );
        let result = match self.fault.take() {
            Some(err) => Err(err),
            None => Ok(()),
        };
        // Drop clears the in-flight guard (the latch is released, so the
        // counters are already restored).
        result
    }
}

impl<T: TaskTable> Drop for ScheduleDriver<T> {
    fn drop(&mut self) {
        if self.latch.is_released() {
            self.graph.in_flight.store(false, Ordering::Release);
        } else {
            // Abandoned mid-run: re-assert the counters and clear the guard
            // so the graph stays usable (the documented post-fault recovery).
            self.graph.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicUsize;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    /// A test table that runs one closure over the task index.
    struct FnTable<F>(F);

    impl<F: Fn(u32) + Send + Sync + 'static> TaskTable for FnTable<F> {
        fn run_task(&self, task: u32) {
            (self.0)(task)
        }
    }

    fn fn_table<F: Fn(u32) + Send + Sync + 'static>(f: F) -> Arc<FnTable<F>> {
        Arc::new(FnTable(f))
    }

    fn graph(n: usize, edges: &[(u32, u32)]) -> Arc<CompiledGraph> {
        Arc::new(CompiledGraph::from_edges(n, edges, Vec::new()))
    }

    /// A table that counts how often any task ran.
    fn counting_table() -> (Arc<AtomicUsize>, Arc<impl TaskTable>) {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let table = fn_table(move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        (counter, table)
    }

    #[test]
    fn empty_graph_returns_immediately() {
        let p = pool();
        let stats = graph(0, &[]).execute(&p, &fn_table(|_| {})).unwrap();
        assert_eq!(stats.tasks, 0);
    }

    #[test]
    fn diamond_respects_dependencies() {
        let p = pool();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        let table = fn_table(move |t| o.lock().push(t));
        let stats = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
            .execute(&p, &table)
            .unwrap();
        assert_eq!(stats.tasks, 4);
        let order = order.lock();
        let pos = |x: u32| order.iter().position(|&o| o == x).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let p = pool();
        let (counter, table) = counting_table();
        // Layered random-ish dependencies: task i depends on a few earlier tasks.
        let mut edges = Vec::new();
        for i in 1..500u32 {
            for k in 1..=3u32 {
                if i >= k * 7 {
                    edges.push((i - k * 7, i));
                }
            }
        }
        let g = graph(500, &edges);
        assert!(g.is_acyclic());
        let stats = g.execute(&p, &table).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 500);
        assert_eq!(stats.tasks, 500);
        assert_eq!(stats.tasks_per_worker.iter().sum::<u64>(), 500);
    }

    #[test]
    fn serial_chain_executes_in_order() {
        let p = ThreadPool::new(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        let n = 50u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|t| (t - 1, t)).collect();
        graph(n as usize, &edges)
            .execute(&p, &fn_table(move |t| l.lock().push(t)))
            .unwrap();
        assert_eq!(*log.lock(), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn independent_tasks_use_multiple_workers() {
        let p = ThreadPool::new(4);
        let table = fn_table(|_| {
            let mut x = 0u64;
            for i in 0..300_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
        });
        let stats = graph(64, &[]).execute(&p, &table).unwrap();
        let busy_workers = stats.tasks_per_worker.iter().filter(|&&c| c > 0).count();
        assert!(
            busy_workers >= 2,
            "expected at least two workers to run tasks, got {:?}",
            stats.tasks_per_worker
        );
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_graph_is_rejected() {
        let _ = CompiledGraph::from_edges(2, &[(0, 1), (1, 0)], Vec::new());
    }

    #[test]
    #[should_panic(expected = "cannot depend on itself")]
    fn self_dependency_is_rejected() {
        let _ = CompiledGraph::from_edges(1, &[(0, 0)], Vec::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_is_rejected() {
        let _ = CompiledGraph::from_edges(2, &[(0, 2)], Vec::new());
    }

    #[test]
    fn graph_reuse_of_pool_across_executions() {
        let p = pool();
        let edges: Vec<(u32, u32)> = (1..20).map(|t| (t - 1, t)).collect();
        for round in 0..5 {
            let (counter, table) = counting_table();
            graph(20, &edges).execute(&p, &table).unwrap();
            assert_eq!(counter.load(Ordering::SeqCst), 20, "round {round}");
        }
    }

    #[test]
    fn compiled_graph_executes_repeatedly_without_rebuilding() {
        let p = pool();
        let (counter, table) = counting_table();
        let edges: Vec<(u32, u32)> = (1..64).map(|t| (t / 2, t)).collect(); // binary tree
        let g = graph(64, &edges);
        assert!(g.counters_are_reset());
        for round in 1..=3 {
            let stats = g.execute(&p, &table).unwrap();
            assert_eq!(stats.tasks, 64, "round {round}");
            assert_eq!(counter.load(Ordering::SeqCst), 64 * round, "round {round}");
            assert!(
                g.counters_are_reset(),
                "counters must be restored after round {round}"
            );
        }
    }

    #[test]
    fn task_table_mode_runs_every_task_once() {
        struct Marks(Vec<AtomicUsize>);
        impl TaskTable for Marks {
            fn run_task(&self, task: u32) {
                self.0[task as usize].fetch_add(1, Ordering::SeqCst);
            }
        }
        let p = pool();
        let n = 300u32;
        // Edges: each task depends on its two "parents" in a heap layout.
        let mut edges = Vec::new();
        for t in 1..n {
            edges.push(((t - 1) / 2, t));
            if t >= 7 {
                edges.push((t - 7, t));
            }
        }
        let graph = Arc::new(CompiledGraph::from_edges(n as usize, &edges, Vec::new()));
        assert!(graph.is_acyclic());
        assert_eq!(graph.edge_count(), edges.len());
        let table = Arc::new(Marks((0..n).map(|_| AtomicUsize::new(0)).collect()));
        for round in 1..=3 {
            let stats = graph.execute(&p, &table).unwrap();
            assert_eq!(stats.tasks, n as usize);
            assert!(graph.counters_are_reset());
            assert!(
                table.0.iter().all(|m| m.load(Ordering::SeqCst) == round),
                "every task must have run exactly once per round"
            );
        }
    }

    #[test]
    fn persistent_run_re_executes_with_rearmed_state() {
        struct Marks(Vec<AtomicUsize>);
        impl TaskTable for Marks {
            fn run_task(&self, task: u32) {
                self.0[task as usize].fetch_add(1, Ordering::SeqCst);
            }
        }
        let p = pool();
        let n = 200u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|t| ((t - 1) / 3, t)).collect();
        let graph = Arc::new(CompiledGraph::from_edges(n as usize, &edges, Vec::new()));
        let table = Arc::new(Marks((0..n).map(|_| AtomicUsize::new(0)).collect()));
        let runner = PersistentRun::new(&graph, &table, p.num_threads());
        for round in 1..=4 {
            let stats = runner.execute(&p).unwrap();
            assert_eq!(stats.tasks, n as usize);
            assert!(graph.counters_are_reset(), "round {round}");
            assert!(
                table.0.iter().all(|m| m.load(Ordering::SeqCst) == round),
                "every task exactly once per round"
            );
            assert_eq!(
                runner.tasks_per_worker().iter().sum::<u64>(),
                n as u64,
                "per-worker counters must be re-zeroed each round"
            );
        }
        assert_eq!(runner.graph().task_count(), n as usize);
    }

    #[test]
    #[should_panic(expected = "pool has")]
    fn persistent_run_rejects_oversized_pools() {
        struct Nop;
        impl TaskTable for Nop {
            fn run_task(&self, _task: u32) {}
        }
        let p = ThreadPool::new(4);
        let graph = Arc::new(CompiledGraph::from_edges(1, &[], Vec::new()));
        let runner = PersistentRun::new(&graph, &Arc::new(Nop), 2);
        let _ = runner.execute(&p);
    }

    #[test]
    fn csr_successors_match_builder_edges() {
        let edges = vec![(0u32, 2u32), (0, 3), (1, 3), (2, 4), (3, 4)];
        let g = CompiledGraph::from_edges(5, &edges, Vec::new());
        assert_eq!(g.successors(0), &[2, 3]);
        assert_eq!(g.successors(1), &[3]);
        assert_eq!(g.successors(4), &[] as &[u32]);
        assert_eq!(g.task_count(), 5);
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn explicit_reset_recovers_counters() {
        let g = CompiledGraph::from_edges(3, &[(0, 1), (1, 2)], Vec::new());
        // Simulate a half-finished run by clobbering a counter.
        g.pending[2].store(0, Ordering::SeqCst);
        assert!(!g.counters_are_reset());
        g.reset();
        assert!(g.counters_are_reset());
    }

    #[test]
    fn reset_clears_the_in_flight_guard_after_a_panicked_execution() {
        struct Nop;
        impl TaskTable for Nop {
            fn run_task(&self, _task: u32) {}
        }
        // Root task anchored to group 1: a single-group pool panics while
        // spawning it (out-of-range injector), after the in-flight guard is
        // already set.
        let g = Arc::new(CompiledGraph::from_edges(
            2,
            &[(0, 1)],
            vec![Placement::Group(1), Placement::Anywhere],
        ));
        let table = Arc::new(Nop);
        let flat = ThreadPool::new(1);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.execute(&flat, &table)));
        assert!(result.is_err(), "out-of-range group must panic");
        g.reset();
        // A pool that actually has a group 1 can now run the graph.
        let topo = crate::pool::PoolTopology {
            num_threads: 2,
            num_groups: 2,
            groups_of_worker: vec![vec![0], vec![1]],
            steal_order: vec![vec![1], vec![0]],
            steal_distance: vec![vec![0; 2]; 2],
        };
        let pool = ThreadPool::with_topology(topo);
        let stats = g.execute(&pool, &table).unwrap();
        assert_eq!(stats.tasks, 2);
        assert!(g.counters_are_reset());
    }

    /// A table whose task `boom` panics whenever `armed` is set.
    struct Bomb {
        marks: Vec<AtomicUsize>,
        boom: u32,
        armed: std::sync::atomic::AtomicBool,
    }

    impl Bomb {
        fn new(n: u32, boom: u32) -> Self {
            Bomb {
                marks: (0..n).map(|_| AtomicUsize::new(0)).collect(),
                boom,
                armed: std::sync::atomic::AtomicBool::new(true),
            }
        }
    }

    impl TaskTable for Bomb {
        fn run_task(&self, task: u32) {
            if task == self.boom && self.armed.load(Ordering::SeqCst) {
                panic!("bomb at strand {task}");
            }
            self.marks[task as usize].fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn panicking_task_yields_typed_error_and_drains() {
        let p = pool();
        let n = 120u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|t| ((t - 1) / 2, t)).collect();
        let graph = Arc::new(CompiledGraph::from_edges(n as usize, &edges, Vec::new()));
        let table = Arc::new(Bomb::new(n, 5));
        let err = graph.execute(&p, &table).unwrap_err();
        match &err {
            RunError::Panicked {
                task,
                op_kind,
                payload,
            } => {
                assert_eq!(*task, 5);
                assert_eq!(*op_kind, GENERIC_TASK_LABEL);
                assert!(payload.contains("bomb at strand 5"), "payload: {payload}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The drain claimed every task exactly once, so the counters are
        // already reset and the run did not hang.
        assert!(graph.counters_are_reset());
        assert_eq!(table.marks[5].load(Ordering::SeqCst), 0);
        // Documented recovery: disarm, re-execute, everything runs.
        table.armed.store(false, Ordering::SeqCst);
        let stats = graph.execute(&p, &table).unwrap();
        assert_eq!(stats.tasks, n as usize);
        assert!(
            table.marks.iter().enumerate().all(|(i, m)| {
                let runs = m.load(Ordering::SeqCst);
                // Task 5 never ran in round 1; tasks cancelled by the drain
                // also ran only in round 2.  Nothing ran more than twice.
                (1..=2).contains(&runs) || (i == 5 && runs == 1)
            }),
            "exactly-once per completed run"
        );
        assert!(graph.counters_are_reset());
    }

    #[test]
    fn persistent_run_recovers_after_panic() {
        let p = pool();
        let n = 80u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|t| ((t - 1) / 3, t)).collect();
        let graph = Arc::new(CompiledGraph::from_edges(n as usize, &edges, Vec::new()));
        let table = Arc::new(Bomb::new(n, 2));
        let runner = PersistentRun::new(&graph, &table, p.num_threads());
        let err = runner.execute(&p).unwrap_err();
        assert_eq!(err.task(), Some(2));
        assert!(graph.counters_are_reset());
        table.armed.store(false, Ordering::SeqCst);
        for round in 1..=2 {
            let stats = runner.execute(&p).unwrap();
            assert_eq!(stats.tasks, n as usize, "round {round}");
            assert!(graph.counters_are_reset());
        }
    }

    #[test]
    fn blown_deadline_cancels_the_run() {
        struct Slow;
        impl TaskTable for Slow {
            fn run_task(&self, _task: u32) {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let p = ThreadPool::new(2);
        let n = 64u32;
        // Serial chain: the run needs ~128ms, the budget allows 5ms.
        let edges: Vec<(u32, u32)> = (1..n).map(|t| (t - 1, t)).collect();
        let graph = Arc::new(CompiledGraph::from_edges(n as usize, &edges, Vec::new()));
        let table = Arc::new(Slow);
        let budget = RunBudget::with_deadline(std::time::Duration::from_millis(5));
        let err = graph.execute_with(&p, &table, &budget).unwrap_err();
        match err {
            RunError::DeadlineExceeded { deadline, elapsed } => {
                assert_eq!(deadline, std::time::Duration::from_millis(5));
                assert!(elapsed >= deadline);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The drain left the graph reset; an unbounded run then completes.
        assert!(graph.counters_are_reset());
        let stats = graph.execute(&p, &table).unwrap();
        assert_eq!(stats.tasks, n as usize);
    }

    #[test]
    fn unbounded_budget_never_trips() {
        let p = pool();
        let stats = graph(32, &[])
            .execute_with(&p, &fn_table(|_| {}), &RunBudget::UNBOUNDED)
            .unwrap();
        assert_eq!(stats.tasks, 32);
    }

    /// Records each task's execution in claim order.
    struct RecordingTable {
        ran: Mutex<Vec<u32>>,
        panic_at: Option<u32>,
    }

    impl RecordingTable {
        fn new(panic_at: Option<u32>) -> Arc<Self> {
            Arc::new(RecordingTable {
                ran: Mutex::new(Vec::new()),
                panic_at,
            })
        }
    }

    impl TaskTable for RecordingTable {
        fn run_task(&self, task: u32) {
            if self.panic_at == Some(task) {
                panic!("injected fault at task {task}");
            }
            self.ran.lock().push(task);
        }
        fn task_label(&self, _task: u32) -> &'static str {
            "recorded"
        }
    }

    fn diamond() -> Arc<CompiledGraph> {
        Arc::new(CompiledGraph::from_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            Vec::new(),
        ))
    }

    #[test]
    fn driver_executes_a_chosen_schedule() {
        let graph = diamond();
        let table = RecordingTable::new(None);
        let mut d = ScheduleDriver::new(&graph, &table);
        assert_eq!(d.ready(), &[0]);
        assert!(!d.is_complete());
        assert_eq!(d.step(0).unwrap(), StepOutcome::Executed);
        assert_eq!(d.ready(), &[1, 2]);
        assert_eq!(d.step(2).unwrap(), StepOutcome::Executed);
        assert_eq!(d.ready(), &[1]);
        assert_eq!(d.step(1).unwrap(), StepOutcome::Executed);
        assert_eq!(d.ready(), &[3]);
        assert_eq!(d.step(3).unwrap(), StepOutcome::Executed);
        assert!(d.is_complete());
        assert_eq!(d.claim_order(), &[0, 2, 1, 3]);
        assert_eq!(*table.ran.lock(), vec![0, 2, 1, 3]);
        d.finish().unwrap();
        assert!(graph.counters_are_reset());
        assert!(!graph.in_flight.load(Ordering::SeqCst));
    }

    #[test]
    fn driver_rejects_unready_and_double_claims() {
        let graph = diamond();
        let table = RecordingTable::new(None);
        let mut d = ScheduleDriver::new(&graph, &table);
        // Task 3 still has pending predecessors.
        assert_eq!(d.step(3), Err(ScheduleError::NotReady { task: 3 }));
        d.step(0).unwrap();
        // Double claim.
        assert_eq!(d.step(0), Err(ScheduleError::NotReady { task: 0 }));
        // A rejected step must not have perturbed the run.
        assert_eq!(d.ready(), &[1, 2]);
        for t in [1, 2, 3] {
            d.step(t).unwrap();
        }
        d.finish().unwrap();
    }

    #[test]
    fn driver_panicking_task_drains_the_rest() {
        let graph = diamond();
        let table = RecordingTable::new(Some(1));
        let mut d = ScheduleDriver::new(&graph, &table);
        assert_eq!(d.step(0).unwrap(), StepOutcome::Executed);
        assert_eq!(d.step(1).unwrap(), StepOutcome::Panicked);
        // Every remaining claim performs the full protocol but skips the work.
        assert_eq!(d.step(2).unwrap(), StepOutcome::Drained);
        assert_eq!(d.step(3).unwrap(), StepOutcome::Drained);
        assert!(d.is_complete());
        match d.finish().unwrap_err() {
            RunError::Panicked { task, op_kind, .. } => {
                assert_eq!(task, 1);
                assert_eq!(op_kind, "recorded");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(*table.ran.lock(), vec![0]);
        // The drain restored every counter; the graph is immediately reusable.
        assert!(graph.counters_are_reset());
        let table2 = RecordingTable::new(None);
        let mut d = ScheduleDriver::new(&graph, &table2);
        for t in [0, 1, 2, 3] {
            d.step(t).unwrap();
        }
        d.finish().unwrap();
        assert_eq!(*table2.ran.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn driver_expired_deadline_drains_from_the_first_claim() {
        let graph = diamond();
        let table = RecordingTable::new(None);
        let budget = RunBudget::with_deadline(Duration::from_nanos(1));
        let mut d = ScheduleDriver::with_budget(&graph, &table, &budget);
        std::thread::sleep(Duration::from_millis(2));
        for t in [0, 1, 2, 3] {
            assert_eq!(d.step(t).unwrap(), StepOutcome::Drained);
        }
        match d.finish().unwrap_err() {
            RunError::DeadlineExceeded { .. } => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(table.ran.lock().is_empty());
        assert!(graph.counters_are_reset());
    }

    #[test]
    fn driver_abandoned_mid_run_resets_the_graph() {
        let graph = diamond();
        let table = RecordingTable::new(None);
        let mut d = ScheduleDriver::new(&graph, &table);
        d.step(0).unwrap();
        drop(d);
        assert!(graph.counters_are_reset());
        assert!(!graph.in_flight.load(Ordering::SeqCst));
        // The pool path still works on the same graph afterwards.
        let p = pool();
        let stats = graph.execute(&p, &table).unwrap();
        assert_eq!(stats.tasks, 4);
    }

    /// The run's latch — its only field written while the run is in flight —
    /// sits alone on its cache line, away from the fields every claim reads.
    #[test]
    fn active_run_latch_sits_alone_on_its_cache_line() {
        struct Nop;
        impl TaskTable for Nop {
            fn run_task(&self, _task: u32) {}
        }
        type Run = ActiveRun<Nop>;
        let latch = field_lines!(Run, latch);
        assert_eq!(std::mem::offset_of!(Run, latch) % 64, 0);
        for (name, lines) in [
            ("graph", field_lines!(Run, graph)),
            ("table", field_lines!(Run, table)),
            ("per_worker", field_lines!(Run, per_worker)),
            ("fault", field_lines!(Run, fault)),
        ] {
            assert!(
                lines.end <= latch.start || latch.end <= lines.start,
                "ActiveRun::{name} (lines {lines:?}) shares a line with the latch ({latch:?})"
            );
        }
    }
}
