//! The work-stealing thread pool.
//!
//! Every worker owns a LIFO deque; work it spawns goes onto its own deque
//! (preserving the depth-first order that gives nested-parallel programs their
//! locality), and idle workers steal from the top of other workers' deques or
//! from a global FIFO injector.  The deques and injectors use the
//! `crossbeam::deque` API, but the workspace builds offline against the
//! `shims/crossbeam` crate, where each one is a `Mutex<VecDeque>` rather than a
//! lock-free Chase–Lev deque (ROADMAP item 9 replaces them).  Idle workers park
//! on one condvar with a short timeout, so wake-ups cannot be lost.
//!
//! External jobs enter through one path, [`ThreadPool::spawn`] (or
//! [`ThreadPool::spawn_to_group`]): the pool never refuses, parks or counts
//! against a bound.  Admission control is the serving layer's job.
//!
//! The pool is optionally **topology-aware**: a [`PoolTopology`] groups workers
//! into nested *queue groups* (mirroring the subclusters of a PMH machine tree),
//! gives every group its own FIFO injector, and fixes each worker's victim order
//! so that idle workers steal **nearest-cluster-first**.  The flat pool built by
//! [`ThreadPool::new`] is the degenerate single-group topology, so existing
//! callers are unaffected.  The hierarchy-aware executor in `nd-exec` builds the
//! non-trivial topologies.

use crate::CacheLine;
use crossbeam::deque::{Injector, Stealer, Worker as Deque};
use nd_trace::{EventKind, QueueKind, TraceEvent, Tracer, NO_TASK};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

thread_local! {
    /// The calling thread's packing scratch arena (see [`with_pack_scratch`]).
    ///
    /// One arena per thread — workers and the submitting thread alike — so a
    /// kernel packing its operands never contends with another worker and
    /// never allocates once the arena has reached its high-water mark.
    static PACK_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the calling thread's packing scratch arena, grown (never
/// shrunk) to at least `min_len` elements first.
///
/// This is the per-worker scratch the GEMM panel-packing kernels copy strided
/// operands into.  The required capacity is known when an algorithm is
/// *compiled* (the largest `gemm_pack_len` over its operation table), so each
/// worker pays at most one grow-to-high-water allocation on its first strand —
/// after that, steady-state re-execution of compiled graphs performs **zero**
/// heap allocations for packing (asserted by the workspace counting-allocator
/// test).  Call [`reserve_pack_scratch`] to pre-pay the growth on the current
/// thread.
pub fn with_pack_scratch<R>(min_len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    PACK_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < min_len {
            buf.resize(min_len, 0.0);
        }
        f(&mut buf[..])
    })
}

/// Grows the calling thread's packing scratch arena to at least `min_len`
/// elements (see [`with_pack_scratch`]).
pub fn reserve_pack_scratch(min_len: usize) {
    with_pack_scratch(min_len, |_| {});
}

/// A unit of work: a closure executed on a worker thread.  It receives a
/// [`WorkerCtx`] through which it may spawn further jobs onto the *local* deque.
pub type Job = Box<dyn FnOnce(&WorkerCtx<'_>) + Send + 'static>;

/// One strand of a compiled task graph, dispatched without boxing a closure.
///
/// The dataflow executor implements this for its per-execution run state: the
/// pool stores `(Arc<dyn GraphTask>, task index)` pairs in its deques, so
/// spawning a ready graph task costs one reference-count increment instead of
/// a heap allocation.
pub(crate) trait GraphTask: Send + Sync {
    /// Runs task `task` (and possibly, by inline tail-execution, a chain of
    /// its successors) on the calling worker.
    fn run_graph_task(self: Arc<Self>, task: u32, ctx: &WorkerCtx<'_>);
}

/// What the pool's deques actually hold: either a classic boxed closure or an
/// allocation-free reference into a compiled task graph.
pub(crate) enum JobUnit {
    /// A boxed closure (the classic [`Job`]).
    Boxed(Job),
    /// One task (by index) of a compiled graph run.
    Graph(Arc<dyn GraphTask>, u32),
}

impl JobUnit {
    /// The graph task this unit carries, or [`NO_TASK`] for boxed closures
    /// (used to label trace events).
    #[inline]
    fn task_id(&self) -> u32 {
        match self {
            JobUnit::Boxed(_) => NO_TASK,
            JobUnit::Graph(_, task) => *task,
        }
    }

    #[inline]
    fn run(self, ctx: &WorkerCtx<'_>) {
        match self {
            JobUnit::Boxed(job) => {
                // Graph tasks record their own execution spans in the
                // dataflow executor; boxed closures are spanned here so
                // per-worker busy time covers both dispatch modes.
                let t0 = ctx.trace_enabled().then(|| ctx.shared.tracer.now_ns());
                job(ctx);
                if let Some(t0) = t0 {
                    let worker = ctx.worker_index;
                    ctx.shared.tracer.record(
                        worker,
                        &TraceEvent {
                            kind: EventKind::Exec,
                            worker: worker as u32,
                            task: NO_TASK,
                            t0_ns: t0,
                            t1_ns: ctx.shared.tracer.now_ns(),
                            a: ctx.steal_distance_wire(),
                            b: 0,
                        },
                    );
                }
            }
            JobUnit::Graph(run, task) => run.run_graph_task(task, ctx),
        }
    }
}

/// How a pool's workers are grouped into queue groups and which victims they
/// steal from, in which order.
///
/// A queue group is a set of workers sharing one FIFO injector.  Groups mirror
/// the cache subtrees of a PMH: every worker lists the groups it belongs to from
/// the innermost (smallest shared cache) outwards, and polls their injectors in
/// that order before falling back to the global injector.  Jobs pushed to a
/// group's injector therefore only ever run on that group's workers — the
/// *anchoring* property the space-bounded scheduler needs — while the per-worker
/// `steal_order` decides how far work may migrate between deques.
#[derive(Clone, Debug)]
pub struct PoolTopology {
    /// Number of worker threads.
    pub num_threads: usize,
    /// Number of queue groups (each gets one injector).
    pub num_groups: usize,
    /// For every worker, the groups it polls, innermost first.
    pub groups_of_worker: Vec<Vec<usize>>,
    /// For every worker, the other workers it may steal from, nearest first.
    pub steal_order: Vec<Vec<usize>>,
    /// For every (thief, victim) pair in `steal_order`, a small distance class
    /// recorded in the steal statistics (e.g. the PMH level of the lowest
    /// common cache).  Indexed `[thief][victim]`; entries for workers not in
    /// `steal_order[thief]` are ignored.
    pub steal_distance: Vec<Vec<usize>>,
}

impl PoolTopology {
    /// The flat topology: one group holding every worker, ring-order stealing,
    /// all steals at distance 0.
    pub fn flat(num_threads: usize) -> Self {
        let steal_order = (0..num_threads)
            .map(|i| (1..num_threads).map(|k| (i + k) % num_threads).collect())
            .collect();
        PoolTopology {
            num_threads,
            num_groups: 1,
            groups_of_worker: vec![vec![0]; num_threads],
            steal_order,
            steal_distance: vec![vec![0; num_threads]; num_threads],
        }
    }

    /// The largest distance class named in `steal_distance`.
    pub fn max_distance(&self) -> usize {
        self.steal_distance
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0)
    }

    fn validate(&self) {
        assert!(
            self.num_threads > 0,
            "a thread pool needs at least one thread"
        );
        assert!(self.num_groups > 0, "a topology needs at least one group");
        assert_eq!(self.groups_of_worker.len(), self.num_threads);
        assert_eq!(self.steal_order.len(), self.num_threads);
        assert_eq!(self.steal_distance.len(), self.num_threads);
        let mut group_has_member = vec![false; self.num_groups];
        for (w, groups) in self.groups_of_worker.iter().enumerate() {
            for &g in groups {
                assert!(g < self.num_groups, "worker {w} polls unknown group {g}");
                group_has_member[g] = true;
            }
        }
        // A memberless group would be a queue nobody ever drains: any job
        // spawned to it would silently hang the pool instead of failing fast.
        for (g, &has_member) in group_has_member.iter().enumerate() {
            assert!(has_member, "group {g} has no member worker to drain it");
        }
        for (w, order) in self.steal_order.iter().enumerate() {
            assert_eq!(self.steal_distance[w].len(), self.num_threads);
            for &v in order {
                assert!(v < self.num_threads && v != w, "bad victim {v} for {w}");
            }
        }
    }
}

/// Per-invocation context handed to every job: identifies the executing worker and
/// lets the job spawn follow-up work locally.
pub struct WorkerCtx<'a> {
    /// Index of the executing worker thread.
    pub worker_index: usize,
    /// `Some((victim, distance class))` when the unit being run was just
    /// stolen from another worker's deque; `None` when it came from this
    /// worker's own deque or an injector.  Execution-span trace events carry
    /// this so every strand's migration is attributable.
    steal: Option<(usize, usize)>,
    local: &'a Deque<JobUnit>,
    shared: &'a Shared,
}

impl WorkerCtx<'_> {
    /// `true` if a trace session is active on the pool (always `false`
    /// without the `trace` feature, so record sites fold away).
    #[inline]
    pub(crate) fn trace_enabled(&self) -> bool {
        self.shared.trace_enabled()
    }

    /// The pool's tracing sink.
    #[inline]
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// `true` while a chaos fault plan is armed: one relaxed load, constant
    /// `false` without the `chaos` feature.  The dataflow executor reads it
    /// once per inline chain and consults
    /// [`WorkerCtx::chaos_should_panic`] per task only when it is set.
    #[inline]
    pub(crate) fn chaos_armed(&self) -> bool {
        #[cfg(feature = "chaos")]
        {
            self.shared.chaos_on.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "chaos"))]
        {
            false
        }
    }

    /// Chaos injection site for the dataflow executor: `true` exactly when
    /// the armed plan names `task` for a one-shot strand panic (constant
    /// `false` without the `chaos` feature).
    #[inline]
    pub(crate) fn chaos_should_panic(&self, task: u32) -> bool {
        self.shared.chaos_should_panic(task)
    }

    /// Reports a caught graph-strand panic into the pool's fault counter.
    #[inline]
    pub(crate) fn note_panicked(&self) {
        self.shared.note_panicked();
    }

    /// The steal distance field of an execution-span event: distance class
    /// + 1 if the current unit was just stolen, 0 otherwise.
    #[inline]
    pub(crate) fn steal_distance_wire(&self) -> u16 {
        match self.steal {
            Some((_, d)) => d as u16 + 1,
            None => 0,
        }
    }

    /// Spawns a job onto the executing worker's own deque (LIFO: it will typically
    /// be the next thing this worker runs, unless someone steals it).
    pub fn spawn_local(&self, job: Job) {
        self.spawn_unit_local(JobUnit::Boxed(job));
    }

    /// Spawns a job onto a queue group's injector: only that group's workers
    /// will run it.  If the executing worker itself belongs to the group, the
    /// job goes onto its own deque instead (depth-first locality); with a
    /// topology whose steal order never leaves the group this preserves the
    /// anchoring property exactly.
    pub fn spawn_to_group(&self, group: usize, job: Job) {
        self.spawn_unit_to_group(group, JobUnit::Boxed(job));
    }

    /// Allocation-free counterpart of [`WorkerCtx::spawn_local`].
    pub(crate) fn spawn_unit_local(&self, unit: JobUnit) {
        self.shared
            .trace_enqueue(self.worker_index, unit.task_id(), QueueKind::LocalDeque, 0);
        self.local.push(unit);
        self.shared.notify_one();
    }

    /// Allocation-free counterpart of [`WorkerCtx::spawn_to_group`].
    pub(crate) fn spawn_unit_to_group(&self, group: usize, unit: JobUnit) {
        if self.in_group(group) {
            self.shared.trace_enqueue(
                self.worker_index,
                unit.task_id(),
                QueueKind::LocalDeque,
                group as u32,
            );
            self.local.push(unit);
        } else {
            self.shared.trace_enqueue(
                self.worker_index,
                unit.task_id(),
                QueueKind::Group,
                group as u32,
            );
            self.shared.group_injectors[group].push(unit);
        }
        self.shared.notify_all();
    }

    /// `true` if the executing worker polls the given queue group.
    pub fn in_group(&self, group: usize) -> bool {
        self.shared.topology.groups_of_worker[self.worker_index].contains(&group)
    }

    /// Number of workers in the pool.
    pub fn num_threads(&self) -> usize {
        self.shared.stealers.len()
    }
}

/// The pool's per-job counters, written by every worker (one `fetch_add`
/// per job or steal).
#[derive(Default)]
struct JobCounters {
    /// Total jobs executed (for statistics / tests).
    executed: AtomicU64,
    /// Total successful steals from another worker's deque.
    steals: AtomicU64,
}

/// The state every worker shares.  The fields written on every job — the
/// global injector (a push and a pop per external job) and the job counters —
/// each sit on cache lines of their own, so their writes do not evict the
/// read-mostly `tracer`/`topology`/`stealers` fields or the sleep state.
struct Shared {
    injector: CacheLine<Injector<JobUnit>>,
    /// One FIFO injector per queue group (see [`PoolTopology`]).
    group_injectors: Vec<Injector<JobUnit>>,
    stealers: Vec<Stealer<JobUnit>>,
    topology: PoolTopology,
    shutdown: AtomicBool,
    sleep_mutex: Mutex<()>,
    sleep_condvar: Condvar,
    counters: CacheLine<JobCounters>,
    /// Successful deque steals bucketed by the topology's distance class.
    steals_by_distance: Vec<AtomicU64>,
    /// Jobs whose panic was caught at an execution site (boxed jobs in the
    /// worker loop, graph strands in the dataflow executor).  The worker
    /// survives every one of these.
    panicked: AtomicU64,
    /// The pool's tracing sink: one event ring per worker plus one for
    /// external threads, disabled (one relaxed load per potential event)
    /// until a `TraceSession` starts.  Its `Instant` epoch is calibrated
    /// here, at pool creation, so all workers' timestamps share one origin.
    tracer: Arc<Tracer>,
    /// `true` while a chaos fault plan is armed (the chaos cfg-point: one
    /// relaxed load per injection site, constant `false` without the
    /// feature so the sites fold away — the tracer's pattern).
    #[cfg(feature = "chaos")]
    chaos_on: AtomicBool,
    /// The armed fault plan, if any.
    #[cfg(feature = "chaos")]
    chaos: Mutex<Option<Arc<crate::chaos::ChaosState>>>,
}

impl Shared {
    fn notify_one(&self) {
        // Cheap notification; parked workers also wake on a short timeout, so a
        // missed notification only costs a millisecond of latency, never progress.
        self.sleep_condvar.notify_one();
    }

    fn notify_all(&self) {
        self.sleep_condvar.notify_all();
    }

    /// `true` if a trace session is active.  Without the `trace` feature
    /// this is constant `false`, so every record site downstream of it is
    /// removed at compile time — the no-feature build is the honest
    /// zero-instrumentation baseline.
    #[inline]
    fn trace_enabled(&self) -> bool {
        #[cfg(feature = "trace")]
        {
            self.tracer.is_enabled()
        }
        #[cfg(not(feature = "trace"))]
        {
            false
        }
    }

    /// The armed chaos state, if any (one relaxed load when disarmed).
    #[cfg(feature = "chaos")]
    #[inline]
    fn chaos_state(&self) -> Option<Arc<crate::chaos::ChaosState>> {
        if self.chaos_on.load(Ordering::Relaxed) {
            self.chaos.lock().clone()
        } else {
            None
        }
    }

    /// Chaos injection site: `true` exactly when the armed plan names `task`
    /// for a one-shot strand panic.  Constant `false` without the feature.
    #[inline]
    pub(crate) fn chaos_should_panic(&self, task: u32) -> bool {
        #[cfg(feature = "chaos")]
        {
            if let Some(c) = self.chaos_state() {
                return c.should_panic(task);
            }
        }
        let _ = task;
        false
    }

    /// Chaos injection site: sleeps if the armed plan delays `worker` at its
    /// current step.  No-op without the feature.
    #[inline]
    fn chaos_on_unit(&self, worker: usize) {
        #[cfg(feature = "chaos")]
        {
            if let Some(c) = self.chaos_state() {
                c.on_unit(worker);
            }
        }
        let _ = worker;
    }

    /// Chaos injection site: `true` when the armed plan fails this
    /// deque-steal attempt.  Constant `false` without the feature.
    #[inline]
    fn chaos_fail_steal(&self) -> bool {
        #[cfg(feature = "chaos")]
        {
            if let Some(c) = self.chaos_state() {
                return c.fail_next_steal();
            }
        }
        false
    }

    /// Called by the dataflow executor when it catches a strand panic, so
    /// graph-strand faults land in the same pool counter as boxed-job faults.
    #[inline]
    pub(crate) fn note_panicked(&self) {
        self.panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an enqueue event (which queue, which group) if tracing.
    #[inline]
    fn trace_enqueue(&self, ring: usize, task: u32, queue: QueueKind, group: u32) {
        if self.trace_enabled() {
            let now = self.tracer.now_ns();
            self.tracer.record(
                ring,
                &TraceEvent {
                    kind: EventKind::Enqueue,
                    worker: ring as u32,
                    task,
                    t0_ns: now,
                    t1_ns: now,
                    a: queue as u16,
                    b: group,
                },
            );
        }
    }
}

/// A fixed-size work-stealing thread pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    num_threads: usize,
}

impl ThreadPool {
    /// Creates a flat pool with `num_threads` worker threads.
    ///
    /// # Panics
    /// Panics if `num_threads` is zero.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads > 0, "a thread pool needs at least one thread");
        ThreadPool::with_topology(PoolTopology::flat(num_threads))
    }

    /// Creates a pool whose workers are grouped and steal per `topology`.
    ///
    /// # Panics
    /// Panics if the topology is inconsistent (see [`PoolTopology`]).
    pub fn with_topology(topology: PoolTopology) -> Self {
        topology.validate();
        let num_threads = topology.num_threads;
        let deques: Vec<Deque<JobUnit>> = (0..num_threads).map(|_| Deque::new_lifo()).collect();
        let stealers: Vec<Stealer<JobUnit>> = deques.iter().map(|d| d.stealer()).collect();
        let max_distance = topology.max_distance();
        let shared = Arc::new(Shared {
            injector: CacheLine(Injector::new()),
            group_injectors: (0..topology.num_groups).map(|_| Injector::new()).collect(),
            stealers,
            steals_by_distance: (0..=max_distance).map(|_| AtomicU64::new(0)).collect(),
            topology,
            shutdown: AtomicBool::new(false),
            sleep_mutex: Mutex::new(()),
            sleep_condvar: Condvar::new(),
            counters: CacheLine::default(),
            panicked: AtomicU64::new(0),
            tracer: Arc::new(Tracer::new(num_threads)),
            #[cfg(feature = "chaos")]
            chaos_on: AtomicBool::new(false),
            #[cfg(feature = "chaos")]
            chaos: Mutex::new(None),
        });
        let handles = deques
            .into_iter()
            .enumerate()
            .map(|(index, deque)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nd-worker-{index}"))
                    .spawn(move || worker_loop(index, deque, shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            num_threads,
        }
    }

    /// A pool sized to the number of available hardware threads.
    pub fn with_available_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ThreadPool::new(n)
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// The topology this pool was built with.
    pub fn topology(&self) -> &PoolTopology {
        &self.shared.topology
    }

    /// Submits a job from outside the pool (goes to the global injector).
    pub fn spawn(&self, job: Job) {
        self.spawn_unit(JobUnit::Boxed(job));
    }

    /// Submits a job restricted to one queue group's workers.
    ///
    /// # Panics
    /// Panics if `group` is out of range for the pool's topology.
    pub fn spawn_to_group(&self, group: usize, job: Job) {
        self.spawn_unit_to_group(group, JobUnit::Boxed(job));
    }

    /// Allocation-free counterpart of [`ThreadPool::spawn`].
    pub(crate) fn spawn_unit(&self, unit: JobUnit) {
        self.shared.trace_enqueue(
            self.shared.tracer.external_ring(),
            unit.task_id(),
            QueueKind::Global,
            0,
        );
        self.shared.injector.push(unit);
        self.shared.notify_one();
    }

    /// Allocation-free counterpart of [`ThreadPool::spawn_to_group`].
    pub(crate) fn spawn_unit_to_group(&self, group: usize, unit: JobUnit) {
        self.shared.trace_enqueue(
            self.shared.tracer.external_ring(),
            unit.task_id(),
            QueueKind::Group,
            group as u32,
        );
        self.shared.group_injectors[group].push(unit);
        self.shared.notify_all();
    }

    /// Total jobs executed by the pool so far.
    pub fn jobs_executed(&self) -> u64 {
        self.shared.counters.executed.load(Ordering::Relaxed)
    }

    /// Total successful steals from other workers' deques so far.
    pub fn steals(&self) -> u64 {
        self.shared.counters.steals.load(Ordering::Relaxed)
    }

    /// Successful deque steals bucketed by the topology's distance class
    /// (index 0 = nearest).  The flat topology reports everything at 0.
    pub fn steals_by_distance(&self) -> Vec<u64> {
        self.shared
            .steals_by_distance
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total panics caught at the pool's execution sites so far (boxed jobs
    /// and graph strands; every one left its worker alive).
    pub fn jobs_panicked(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot of the pool's scheduling counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs_executed: self.jobs_executed(),
            steals: self.steals(),
            steals_by_distance: self.steals_by_distance(),
            jobs_panicked: self.jobs_panicked(),
        }
    }

    /// The pool's tracing sink.  Start a
    /// [`TraceSession`](nd_trace::TraceSession) on it to record per-strand
    /// events; with the `trace` feature disabled the executor never records,
    /// so a session on such a build collects an empty trace.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.shared.tracer
    }

    /// `true` if a trace session is active and this build records events.
    pub(crate) fn trace_enabled(&self) -> bool {
        self.shared.trace_enabled()
    }

    /// Arms a chaos [`FaultPlan`](crate::chaos::FaultPlan): subsequent
    /// executions inject its faults (each at most once).  Replaces any
    /// previously armed plan, counters and all.  The dataflow executor reads
    /// the armed flag once per inline chain, so a chain already running when
    /// the plan is armed injects no strand panic.
    #[cfg(feature = "chaos")]
    pub fn install_fault_plan(&self, plan: crate::chaos::FaultPlan) {
        *self.shared.chaos.lock() = Some(Arc::new(crate::chaos::ChaosState::new(
            plan,
            self.num_threads,
        )));
        self.shared.chaos_on.store(true, Ordering::Release);
    }

    /// Disarms the chaos plan; injection sites fall back to one relaxed load.
    #[cfg(feature = "chaos")]
    pub fn clear_fault_plan(&self) {
        self.shared.chaos_on.store(false, Ordering::Release);
        *self.shared.chaos.lock() = None;
    }

    /// Counts of faults the armed plan has injected so far (zeros when no
    /// plan is armed).
    #[cfg(feature = "chaos")]
    pub fn chaos_stats(&self) -> crate::chaos::ChaosStats {
        self.shared
            .chaos
            .lock()
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }
}

/// A snapshot of the pool's scheduling counters (see [`ThreadPool::stats`]):
/// the public form of the pool's internal totals, so callers measure
/// scheduling behaviour without reaching into pool internals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total jobs executed.
    pub jobs_executed: u64,
    /// Total successful steals from other workers' deques.
    pub steals: u64,
    /// Steals bucketed by the topology's distance class (index 0 = nearest).
    pub steals_by_distance: Vec<u64>,
    /// Panics caught at the pool's execution sites (workers all survived).
    pub jobs_panicked: u64,
}

impl PoolStats {
    /// Counter deltas `self − earlier`, for windowed measurements around a
    /// region of interest.  Distance buckets missing from `earlier` are
    /// treated as zero.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            jobs_executed: self.jobs_executed - earlier.jobs_executed,
            steals: self.steals - earlier.steals,
            steals_by_distance: self
                .steals_by_distance
                .iter()
                .enumerate()
                .map(|(d, &n)| n - earlier.steals_by_distance.get(d).copied().unwrap_or(0))
                .collect(),
            jobs_panicked: self.jobs_panicked - earlier.jobs_panicked,
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn find_work(
    index: usize,
    local: &Deque<JobUnit>,
    shared: &Shared,
) -> Option<(JobUnit, Option<usize>)> {
    // 1. Own deque (LIFO → depth-first order).
    if let Some(job) = local.pop() {
        return Some((job, None));
    }
    // 2. This worker's queue groups, innermost first (batch-steal into the
    //    local deque).  Only group members ever reach a group's injector, so
    //    work spawned to a group cannot leave its subcluster this way.
    for &g in &shared.topology.groups_of_worker[index] {
        loop {
            match shared.group_injectors[g].steal_batch_and_pop(local) {
                crossbeam::deque::Steal::Success(job) => return Some((job, None)),
                crossbeam::deque::Steal::Retry => continue,
                crossbeam::deque::Steal::Empty => break,
            }
        }
    }
    // 3. Global injector (batch-steal into the local deque).
    loop {
        match shared.injector.steal_batch_and_pop(local) {
            crossbeam::deque::Steal::Success(job) => return Some((job, None)),
            crossbeam::deque::Steal::Retry => continue,
            crossbeam::deque::Steal::Empty => break,
        }
    }
    // 4. Steal from another worker's deque, nearest victim first.
    for &victim in &shared.topology.steal_order[index] {
        // Chaos injection: a planned steal failure makes this attempt report
        // empty-handed.  Harmless by construction — the worker re-polls after
        // its 1ms park timeout, so a failed steal can delay work but never
        // lose it (the no-lost-wakeup invariant the chaos suite proves).
        if shared.chaos_fail_steal() {
            continue;
        }
        loop {
            match shared.stealers[victim].steal() {
                crossbeam::deque::Steal::Success(job) => return Some((job, Some(victim))),
                crossbeam::deque::Steal::Retry => continue,
                crossbeam::deque::Steal::Empty => break,
            }
        }
    }
    None
}

fn worker_loop(index: usize, local: Deque<JobUnit>, shared: Arc<Shared>) {
    loop {
        // Timestamp the work-finding attempt (only while tracing) so a
        // successful steal can be recorded as the span it actually cost.
        let search_t0 = shared.trace_enabled().then(|| shared.tracer.now_ns());
        match find_work(index, &local, &shared) {
            Some((unit, stolen_from)) => {
                let mut steal = None;
                if let Some(victim) = stolen_from {
                    shared.counters.steals.fetch_add(1, Ordering::Relaxed);
                    let d = shared.topology.steal_distance[index][victim];
                    shared.steals_by_distance[d].fetch_add(1, Ordering::Relaxed);
                    steal = Some((victim, d));
                    if let Some(t0) = search_t0 {
                        shared.tracer.record(
                            index,
                            &TraceEvent {
                                kind: EventKind::Steal,
                                worker: index as u32,
                                task: unit.task_id(),
                                t0_ns: t0,
                                t1_ns: shared.tracer.now_ns(),
                                a: victim as u16,
                                b: d as u32,
                            },
                        );
                    }
                }
                let ctx = WorkerCtx {
                    worker_index: index,
                    steal,
                    local: &local,
                    shared: &shared,
                };
                shared.chaos_on_unit(index);
                // Count the job before running it so that anyone released by a latch
                // the job signals observes an up-to-date counter.
                shared.counters.executed.fetch_add(1, Ordering::Relaxed);
                // Panic isolation: a panicking unit must not unwind through
                // the worker loop (it would silently shrink the pool for the
                // rest of the process).  Catch it, count it, keep going.
                // Graph strands catch their own panics in the dataflow
                // executor (where the run can be cancelled and typed); this
                // catch is their backstop and the boxed jobs' only net.
                if catch_unwind(AssertUnwindSafe(|| unit.run(&ctx))).is_err() {
                    shared.note_panicked();
                }
            }
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Park briefly; the timeout makes lost wake-ups harmless.
                let mut guard = shared.sleep_mutex.lock();
                shared
                    .sleep_condvar
                    .wait_for(&mut guard, Duration::from_millis(1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latch::CountLatch;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_submitted_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let latch = Arc::new(CountLatch::new(100));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            let l = Arc::clone(&latch);
            pool.spawn(Box::new(move |_ctx| {
                c.fetch_add(1, Ordering::SeqCst);
                l.count_down();
            }));
        }
        latch.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert!(pool.jobs_executed() >= 100);
    }

    #[test]
    fn jobs_can_spawn_more_jobs_locally() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        // Binary fan-out: each job spawns two children down to depth 6 → 2^7 - 1 jobs.
        let total = (1 << 7) - 1;
        let latch = Arc::new(CountLatch::new(total));
        fn fan_out(
            depth: usize,
            counter: Arc<AtomicUsize>,
            latch: Arc<CountLatch>,
            ctx: &WorkerCtx<'_>,
        ) {
            counter.fetch_add(1, Ordering::SeqCst);
            latch.count_down();
            if depth == 0 {
                return;
            }
            for _ in 0..2 {
                let c = Arc::clone(&counter);
                let l = Arc::clone(&latch);
                ctx.spawn_local(Box::new(move |ctx| fan_out(depth - 1, c, l, ctx)));
            }
        }
        let c = Arc::clone(&counter);
        let l = Arc::clone(&latch);
        pool.spawn(Box::new(move |ctx| fan_out(6, c, l, ctx)));
        latch.wait();
        assert_eq!(counter.load(Ordering::SeqCst), total);
    }

    #[test]
    fn work_is_distributed_across_workers() {
        let pool = ThreadPool::new(4);
        let latch = Arc::new(CountLatch::new(64));
        for _ in 0..64 {
            let l = Arc::clone(&latch);
            pool.spawn(Box::new(move |_| {
                // Enough work that a single worker cannot finish before others wake.
                let mut x = 0u64;
                for i in 0..200_000u64 {
                    x = x.wrapping_add(i).rotate_left(3);
                }
                std::hint::black_box(x);
                l.count_down();
            }));
        }
        latch.wait();
        assert!(pool.jobs_executed() >= 64);
    }

    #[test]
    fn single_thread_pool_still_completes() {
        let pool = ThreadPool::new(1);
        let latch = Arc::new(CountLatch::new(10));
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let l = Arc::clone(&latch);
            let c = Arc::clone(&counter);
            pool.spawn(Box::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                l.count_down();
            }));
        }
        latch.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert_eq!(pool.num_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let pool = ThreadPool::new(2);
        let latch = Arc::new(CountLatch::new(1));
        let l = Arc::clone(&latch);
        pool.spawn(Box::new(move |_| l.count_down()));
        latch.wait();
        drop(pool); // must not hang
    }

    /// Two groups of two workers each; group-targeted jobs must only run on the
    /// targeted group's workers, and the strict steal order (within-group only)
    /// must keep them there even under load.
    fn two_group_topology() -> PoolTopology {
        PoolTopology {
            num_threads: 4,
            num_groups: 3, // 0 = {0,1}, 1 = {2,3}, 2 = everyone (root)
            groups_of_worker: vec![vec![0, 2], vec![0, 2], vec![1, 2], vec![1, 2]],
            steal_order: vec![vec![1], vec![0], vec![3], vec![2]],
            steal_distance: vec![vec![0; 4]; 4],
        }
    }

    #[test]
    fn group_jobs_stay_on_group_workers() {
        let pool = ThreadPool::with_topology(two_group_topology());
        let latch = Arc::new(CountLatch::new(80));
        let where_ran: Arc<Vec<AtomicUsize>> =
            Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());
        for i in 0..80 {
            let group = i % 2;
            let l = Arc::clone(&latch);
            let w = Arc::clone(&where_ran);
            pool.spawn_to_group(
                group,
                Box::new(move |ctx| {
                    // A little work so jobs spread over both group members.
                    let mut x = 0u64;
                    for k in 0..50_000u64 {
                        x = x.wrapping_mul(31).wrapping_add(k);
                    }
                    std::hint::black_box(x);
                    w[ctx.worker_index].fetch_add(1, Ordering::SeqCst);
                    l.count_down();
                }),
            );
        }
        latch.wait();
        let counts: Vec<usize> = where_ran.iter().map(|c| c.load(Ordering::SeqCst)).collect();
        // 40 jobs went to group 0 = workers {0, 1}, 40 to group 1 = workers {2, 3}.
        assert_eq!(
            counts[0] + counts[1],
            40,
            "group 0 jobs on group 0 workers: {counts:?}"
        );
        assert_eq!(
            counts[2] + counts[3],
            40,
            "group 1 jobs on group 1 workers: {counts:?}"
        );
    }

    #[test]
    fn root_group_jobs_run_anywhere_and_pool_drains() {
        let pool = ThreadPool::with_topology(two_group_topology());
        let latch = Arc::new(CountLatch::new(30));
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..30 {
            let l = Arc::clone(&latch);
            let c = Arc::clone(&counter);
            pool.spawn_to_group(
                2,
                Box::new(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                    l.count_down();
                }),
            );
        }
        latch.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 30);
    }

    #[test]
    fn steal_distances_are_recorded() {
        // One group, but a two-class distance matrix: worker 0's victims are 1
        // (distance 0) and 2, 3 (distance 1), and symmetrically.
        let topo = PoolTopology {
            num_threads: 4,
            num_groups: 1,
            groups_of_worker: vec![vec![0]; 4],
            steal_order: vec![vec![1, 2, 3], vec![0, 3, 2], vec![3, 0, 1], vec![2, 1, 0]],
            steal_distance: vec![
                vec![0, 0, 1, 1],
                vec![0, 0, 1, 1],
                vec![1, 1, 0, 0],
                vec![1, 1, 0, 0],
            ],
        };
        let pool = ThreadPool::with_topology(topo);
        let latch = Arc::new(CountLatch::new(200));
        for _ in 0..200 {
            let l = Arc::clone(&latch);
            pool.spawn(Box::new(move |ctx| {
                // Spawn locally so deques fill up and stealing happens.
                l.count_down();
                let _ = ctx;
            }));
        }
        latch.wait();
        let by_distance = pool.steals_by_distance();
        assert_eq!(by_distance.len(), 2);
        assert_eq!(by_distance.iter().sum::<u64>(), pool.steals());
    }

    #[test]
    #[should_panic(expected = "unknown group")]
    fn inconsistent_topology_is_rejected() {
        let mut topo = PoolTopology::flat(2);
        topo.groups_of_worker[0] = vec![7];
        let _ = ThreadPool::with_topology(topo);
    }

    #[test]
    #[should_panic(expected = "no member worker")]
    fn memberless_group_is_rejected() {
        // A group nobody polls would swallow spawned jobs and hang the pool;
        // the constructor must refuse it up front.
        let mut topo = PoolTopology::flat(2);
        topo.num_groups = 2; // group 1 exists but no worker lists it
        let _ = ThreadPool::with_topology(topo);
    }

    /// Runs one job on every worker simultaneously (a rendezvous: each job
    /// occupies its worker until all `n` have started, so the jobs must land
    /// on `n` distinct workers), optionally panicking each afterwards.
    /// Returns the set of worker indices the jobs ran on.
    fn rendezvous_all_workers(pool: &ThreadPool, n: usize, then_panic: bool) -> Vec<usize> {
        let started = Arc::new(AtomicUsize::new(0));
        let seen: Arc<Vec<AtomicUsize>> = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let latch = Arc::new(CountLatch::new(n));
        for _ in 0..n {
            let started = Arc::clone(&started);
            let seen = Arc::clone(&seen);
            let latch = Arc::clone(&latch);
            pool.spawn(Box::new(move |ctx| {
                seen[ctx.worker_index].fetch_add(1, Ordering::SeqCst);
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while started.load(Ordering::SeqCst) < n {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "rendezvous stuck: a worker has died"
                    );
                    std::hint::spin_loop();
                }
                // Count down *before* panicking: the panic unwinds past the
                // rest of the closure.
                latch.count_down();
                if then_panic {
                    panic!("deliberate test panic on worker");
                }
            }));
        }
        latch.wait();
        seen.iter()
            .enumerate()
            .filter(|(_, c)| c.load(Ordering::SeqCst) > 0)
            .map(|(w, _)| w)
            .collect()
    }

    /// Regression test for the silent-worker-death bug: before panic
    /// isolation, a panicking boxed job unwound through the worker loop and
    /// that thread never restarted.  Panic a job on **every** worker, then
    /// prove all of them still execute jobs.
    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        let n = 4;
        let pool = ThreadPool::new(n);
        let before = pool.stats();
        let hit = rendezvous_all_workers(&pool, n, true);
        assert_eq!(hit.len(), n, "rendezvous must cover every worker: {hit:?}");
        // Wait for all unwinds to be caught and counted.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.jobs_panicked() - before.jobs_panicked < n as u64 {
            assert!(std::time::Instant::now() < deadline, "panics never counted");
            std::thread::yield_now();
        }
        // Every worker must still be alive and executing.
        let alive = rendezvous_all_workers(&pool, n, false);
        assert_eq!(alive.len(), n, "a worker died after a panic: {alive:?}");
        let after = pool.stats().since(&before);
        assert_eq!(after.jobs_panicked, n as u64);
        assert!(after.jobs_executed >= 2 * n as u64);
    }

    /// The fields written on every job keep off the lines the other fields
    /// live on: the injector starts a line and shares none, and the job
    /// counters do not share one with the tracer pointer every trace check
    /// reads.
    #[test]
    fn hot_shared_fields_sit_on_their_own_cache_lines() {
        let disjoint = |a: &std::ops::Range<usize>, b: &std::ops::Range<usize>| {
            a.end <= b.start || b.end <= a.start
        };
        assert_eq!(std::mem::offset_of!(Shared, injector) % 64, 0);
        let injector = field_lines!(Shared, injector);
        #[allow(unused_mut)]
        let mut others = vec![
            ("group_injectors", field_lines!(Shared, group_injectors)),
            ("stealers", field_lines!(Shared, stealers)),
            ("topology", field_lines!(Shared, topology)),
            ("shutdown", field_lines!(Shared, shutdown)),
            ("sleep_mutex", field_lines!(Shared, sleep_mutex)),
            ("sleep_condvar", field_lines!(Shared, sleep_condvar)),
            ("counters", field_lines!(Shared, counters)),
            (
                "steals_by_distance",
                field_lines!(Shared, steals_by_distance),
            ),
            ("panicked", field_lines!(Shared, panicked)),
            ("tracer", field_lines!(Shared, tracer)),
        ];
        #[cfg(feature = "chaos")]
        others.extend([
            ("chaos_on", field_lines!(Shared, chaos_on)),
            ("chaos", field_lines!(Shared, chaos)),
        ]);
        for (name, lines) in &others {
            assert!(
                disjoint(lines, &injector),
                "Shared::{name} (lines {lines:?}) shares a line with the injector ({injector:?})"
            );
        }
        let tracer = field_lines!(Shared, tracer);
        let counters = field_lines!(Shared, counters);
        assert!(
            disjoint(&tracer, &counters),
            "Shared::tracer (lines {tracer:?}) shares a line with the job counters ({counters:?})"
        );
    }
}
