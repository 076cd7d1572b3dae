//! The traced pass (`--trace 1`): every layer's own cost in its own unit,
//! measured from outside by timing calls into public functions, plus the
//! budget that checks the layers add up to the end-to-end time.
//!
//! Layers, bottom up: kernel (`nd-linalg` block kernels called directly) →
//! strand (`op_table().run_task` on one thread: dispatch + pack + kernel) →
//! graph (`CompiledGraph::execute` with a no-op table) → pool → anchor →
//! build → serve.  A serve workload measures the executor layers on its
//! first job kind, compiled and run directly.

use crate::probes::{self, Host};
use crate::report::{MetricSet, RunResult, PER_LAYER};
use crate::spans::{chrome_trace, self_time_summary, Recorder};
use crate::stats;
use crate::workloads::{
    quick_spec, repeat_setup, serve_window, ExecPool, ExecRig, Kind, Outcome, Params, Problem,
    ServeRig, ServeWindow, WorkloadDef, JOB_KINDS, SLO_MS,
};
use nd_algorithms::common::BlockOp;
use nd_algorithms::driver::compile;
use nd_algorithms::exec::Layout;
use nd_linalg::{gemm, getrf, lcs, potrf, trsm, Matrix};
use nd_runtime::dataflow::{CompiledGraph, TaskTable};
use nd_runtime::ThreadPool;
use nd_serve::{AlgoKind, GraphCache, JobSpec, ServeConfig, Server, TenantConfig};
use nd_trace::{Trace, TraceConfig, TraceSession};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Op kinds whose strand latency is reported by name (the costliest kinds
/// of the executor workloads).
const NAMED_OP_KINDS: [&str; 5] = ["gemm", "lu_panel", "lu_row_swap", "trsm_unit_lower", "lcs"];
/// Flat solves behind `anchor.vs_flat_ratio`.
const FLAT_SOLVES: usize = 30;
/// Traced and untraced direct solves of a serve workload's first job kind.
const DIRECT_SOLVES: usize = 200;
/// Fewest traced solves of an executor workload, whatever the time box.
const MIN_TRACED_SOLVES: usize = 8;

// ---------------------------------------------------------------------------
// kernel
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum KernelKind {
    Gemm,
    GemmNt,
    TrsmRightLt,
    TrsmUnitLower,
    Potrf,
    LuPanel,
    LuRowSwap,
    Lcs,
}

/// A block kernel and the operand shape it is called with.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct KernelShape {
    kind: KernelKind,
    m: usize,
    n: usize,
    k: usize,
}

impl KernelShape {
    /// `None` for a strand with no runtime effect.
    fn of(op: &BlockOp) -> Option<Self> {
        let shape = |kind, m, n, k| Some(KernelShape { kind, m, n, k });
        match op {
            BlockOp::Gemm { c, a, .. } => shape(KernelKind::Gemm, c.rows, c.cols, a.cols),
            BlockOp::GemmNt { c, a, .. } => shape(KernelKind::GemmNt, c.rows, c.cols, a.cols),
            BlockOp::TrsmRightLt { b, .. } => shape(KernelKind::TrsmRightLt, b.rows, b.cols, 0),
            BlockOp::TrsmUnitLower { b, .. } => shape(KernelKind::TrsmUnitLower, b.rows, b.cols, 0),
            BlockOp::Potrf { a } => shape(KernelKind::Potrf, a.rows, a.cols, 0),
            BlockOp::LuPanel { a, .. } => shape(KernelKind::LuPanel, a.rows, a.cols, 0),
            BlockOp::LuRowSwap { a, len, .. } => shape(KernelKind::LuRowSwap, a.rows, a.cols, *len),
            BlockOp::LcsBlock { i0, i1, j0, j1, .. } => shape(KernelKind::Lcs, i1 - i0, j1 - j0, 0),
            BlockOp::Nop => None,
            other => panic!("no workload of this benchmark runs {other:?}"),
        }
    }

    /// Floating-point operations of one call (0 for the row swap and for
    /// LCS, whose cells are integer compares and maxima).
    fn flops(&self) -> f64 {
        let (m, n, k) = (self.m as f64, self.n as f64, self.k as f64);
        match self.kind {
            KernelKind::Gemm | KernelKind::GemmNt => 2.0 * m * n * k,
            KernelKind::TrsmRightLt => n * n * m,
            KernelKind::TrsmUnitLower => m * m * n,
            KernelKind::Potrf => m * m * m / 3.0,
            KernelKind::LuPanel => m * n * n - n * n * n / 3.0,
            KernelKind::LuRowSwap | KernelKind::Lcs => 0.0,
        }
    }

    /// Bytes of the operands, each read or written once (computed, not
    /// measured).
    fn bytes(&self) -> f64 {
        let (m, n, k) = (self.m as f64, self.n as f64, self.k as f64);
        8.0 * match self.kind {
            KernelKind::Gemm | KernelKind::GemmNt => m * k + k * n + 2.0 * m * n,
            KernelKind::TrsmRightLt => n * n / 2.0 + 2.0 * m * n,
            KernelKind::TrsmUnitLower => m * m / 2.0 + 2.0 * m * n,
            KernelKind::Potrf => m * m,
            KernelKind::LuPanel | KernelKind::LuRowSwap | KernelKind::Lcs => 2.0 * m * n,
        }
    }

    /// Median nanoseconds of one call on warm, contiguous operands, one
    /// thread.  Kernels that overwrite their input get it restored (untimed)
    /// before every call; the others are timed in batches.
    fn isolated_ns(&self) -> f64 {
        let KernelShape { kind, m, n, k } = *self;
        match kind {
            KernelKind::Gemm | KernelKind::GemmNt => {
                let mut c = Matrix::zeros(m, n);
                let mut a = Matrix::random(m, k, 1);
                let mut b = if kind == KernelKind::Gemm {
                    Matrix::random(k, n, 2)
                } else {
                    Matrix::random(n, k, 2)
                };
                let (c, a, b) = (c.as_ptr_view(), a.as_ptr_view(), b.as_ptr_view());
                // SAFETY: c, a, b are live, distinct matrices used by this
                // thread only, with the shapes the kernel expects.
                time_batched(|| unsafe {
                    if kind == KernelKind::Gemm {
                        gemm::gemm_block(c, a, b, 1.0)
                    } else {
                        gemm::gemm_nt_block(c, a, b, 1.0)
                    }
                })
            }
            KernelKind::TrsmRightLt => {
                let mut l = Matrix::random_lower_triangular(n, 1);
                let b0 = Matrix::random(m, n, 2);
                let mut b = b0.clone();
                let (lp, bp) = (l.as_ptr_view(), b.as_ptr_view());
                time_restored(
                    || b.as_mut_slice().copy_from_slice(b0.as_slice()),
                    // SAFETY: l and b are live, distinct, single-threaded.
                    || unsafe { trsm::trsm_right_lower_trans_block_ptr(lp, bp) },
                )
            }
            KernelKind::TrsmUnitLower => {
                let mut l = Matrix::random(m, m, 1);
                let b0 = Matrix::random(m, n, 2);
                let mut b = b0.clone();
                let (lp, bp) = (l.as_ptr_view(), b.as_ptr_view());
                time_restored(
                    || b.as_mut_slice().copy_from_slice(b0.as_slice()),
                    // SAFETY: l and b are live, distinct, single-threaded.
                    || unsafe { getrf::trsm_unit_lower_block_ptr(lp, bp) },
                )
            }
            KernelKind::Potrf => {
                let a0 = Matrix::random_spd(m, 1);
                let mut a = a0.clone();
                let ap = a.as_ptr_view();
                time_restored(
                    || a.as_mut_slice().copy_from_slice(a0.as_slice()),
                    // SAFETY: a is live and used by this thread only.
                    || unsafe { potrf::potrf_block_ptr(ap) },
                )
            }
            KernelKind::LuPanel => {
                let a0 = Matrix::random(m, n, 1);
                let mut a = a0.clone();
                let ap = a.as_ptr_view();
                let mut piv = vec![0usize; n];
                time_restored(
                    || a.as_mut_slice().copy_from_slice(a0.as_slice()),
                    // SAFETY: a and piv are live and used by this thread only.
                    || unsafe { getrf::getrf_panel_block_into(ap, &mut piv) },
                )
            }
            KernelKind::LuRowSwap => {
                let mut a = Matrix::random(m, n, 1);
                let ap = a.as_ptr_view();
                // Local pivots as a panel produces them: row k swaps with a
                // row at or below it.
                let mut rng = stats::Rng::new(3);
                let piv: Vec<usize> = (0..k)
                    .map(|r| r + (rng.next_u64() as usize) % (m - r))
                    .collect();
                // SAFETY: a is live and used by this thread only; pivots are in range.
                time_batched(|| unsafe { getrf::swap_rows_block(ap, &piv) })
            }
            KernelKind::Lcs => {
                let mut table = Matrix::zeros(m + 1, n + 1);
                let view = table.as_ptr_view();
                let s = lcs::random_sequence(m, 1);
                let t = lcs::random_sequence(n, 2);
                // SAFETY: the table is live and used by this thread only; its
                // top row and left column (the block's boundary) are zero.
                time_batched(|| unsafe { lcs::lcs_block(view, &s, &t, 1, m + 1, 1, n + 1) })
            }
        }
    }
}

const KERNEL_SAMPLES: usize = 15;

/// Median ns per call of `f`, timed in batches long enough (≥ 20 µs) for
/// the clock's own cost not to matter.
fn time_batched(mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    let once_ns = t0.elapsed().as_nanos().max(1) as f64;
    let batch = ((20_000.0 / once_ns).ceil() as usize).max(1);
    let samples: Vec<f64> = (0..KERNEL_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    stats::median(&samples)
}

/// Median ns per call of `f`, with `restore` run (untimed) before each call.
fn time_restored(mut restore: impl FnMut(), mut f: impl FnMut()) -> f64 {
    restore();
    f();
    let samples: Vec<f64> = (0..KERNEL_SAMPLES)
        .map(|_| {
            restore();
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// What one solve asks of the kernels and what they cost in isolation;
/// returns `kernel.model_ms`.
fn kernel_layer(problem: &Problem, peak_gflops: Option<f64>, m: &mut MetricSet) -> f64 {
    let mut shapes: BTreeMap<KernelShape, u64> = BTreeMap::new();
    for op in &problem.built.ops {
        if let Some(shape) = KernelShape::of(op) {
            *shapes.entry(shape).or_insert(0) += 1;
        }
    }
    let timed: Vec<(KernelShape, u64, f64)> = shapes
        .iter()
        .map(|(s, &count)| (*s, count, s.isolated_ns()))
        .collect();
    let model_ns: f64 = timed.iter().map(|(_, count, ns)| *count as f64 * ns).sum();
    m.set("kernel.model_ms", model_ns / 1e6);
    m.set(
        "kernel.flops_per_solve",
        timed.iter().map(|(s, c, _)| *c as f64 * s.flops()).sum(),
    );
    m.set(
        "kernel.bytes_per_solve_computed",
        timed.iter().map(|(s, c, _)| *c as f64 * s.bytes()).sum(),
    );
    // Count-weighted mean ns per call of every shape of the given kinds.
    let per_call = |kinds: &[KernelKind]| {
        let (calls, ns) = timed
            .iter()
            .filter(|(s, _, _)| kinds.contains(&s.kind))
            .fold((0.0, 0.0), |(calls, total), (_, c, ns)| {
                (calls + *c as f64, total + *c as f64 * ns)
            });
        if calls > 0.0 {
            ns / calls
        } else {
            0.0
        }
    };
    m.set(
        "kernel.getrf_panel_ns_per_call",
        per_call(&[KernelKind::LuPanel]),
    );
    m.set(
        "kernel.trsm_ns_per_call",
        per_call(&[KernelKind::TrsmUnitLower, KernelKind::TrsmRightLt]),
    );
    m.set("kernel.lcs_block_ns_per_call", per_call(&[KernelKind::Lcs]));
    // The workload's GEMM: its most frequent multiply shape.
    let gemm = timed
        .iter()
        .filter(|(s, _, _)| matches!(s.kind, KernelKind::Gemm | KernelKind::GemmNt))
        .max_by_key(|(_, count, _)| *count);
    if let Some((shape, _, ns)) = gemm {
        let gflops = shape.flops() / ns;
        m.set("kernel.gemm_ns_per_call", *ns);
        m.set("kernel.gemm_gflops", gflops);
        m.set("kernel.gemm_ops_per_byte", shape.flops() / shape.bytes());
        if let Some(peak) = peak_gflops {
            m.set("kernel.gemm_roofline_share", gflops / peak);
        }
    }
    model_ns / 1e6
}

// ---------------------------------------------------------------------------
// strand
// ---------------------------------------------------------------------------

/// A topological order that, like a worker's own deque, runs the newest
/// ready task first.
fn topological_order(graph: &CompiledGraph) -> Vec<u32> {
    let n = graph.task_count();
    let mut pending = vec![0u32; n];
    for (_, to) in graph.edges() {
        pending[to as usize] += 1;
    }
    let mut ready: Vec<u32> = (0..n as u32)
        .filter(|&t| pending[t as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(t) = ready.pop() {
        order.push(t);
        for &s in graph.successors(t) {
            pending[s as usize] -= 1;
            if pending[s as usize] == 0 {
                ready.push(s);
            }
        }
    }
    assert_eq!(order.len(), n, "the compiled graph has a cycle");
    order
}

/// Every strand of one solve on the calling thread, no graph and no pool:
/// dispatch + pack + kernel.  Median of three, in milliseconds.
fn strand_serial_ms(problem: &mut Problem) -> f64 {
    let order = topological_order(problem.compiled.graph());
    let table = Arc::clone(problem.compiled.op_table());
    let mut times = Vec::new();
    for rep in 0..4 {
        problem.restore_inputs();
        let t0 = Instant::now();
        for &t in &order {
            table.run_task(t);
        }
        // The first repetition grows this thread's packing scratch.
        if rep > 0 {
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    stats::median(&times)
}

// ---------------------------------------------------------------------------
// graph and pool
// ---------------------------------------------------------------------------

struct NoopTable;

impl TaskTable for NoopTable {
    fn run_task(&self, task: u32) {
        black_box(task);
    }
}

/// Median wall nanoseconds of executing `graph` with a table that does
/// nothing: claim, decrement, enqueue, steal and wake, and no strand.
fn empty_graph_ns(graph: &Arc<CompiledGraph>, pool: &ThreadPool) -> f64 {
    let table = Arc::new(NoopTable);
    let budget = Instant::now();
    let mut times = Vec::new();
    for rep in 0..16 {
        let t0 = Instant::now();
        graph
            .execute(pool, &table)
            .expect("a no-op task cannot fail");
        if rep > 0 {
            times.push(t0.elapsed().as_nanos() as f64);
        }
        if times.len() >= 5 && budget.elapsed() > Duration::from_millis(400) {
            break;
        }
    }
    stats::median(&times)
}

/// Spawn-to-run latency on an idle pool (workers parked), microseconds.
fn pool_wake_us_p50(pool: &ThreadPool) -> f64 {
    let (tx, rx) = channel::<Instant>();
    let samples: Vec<f64> = (0..1000)
        .map(|_| {
            std::thread::sleep(Duration::from_micros(150));
            let tx = tx.clone();
            let t0 = Instant::now();
            pool.spawn(Box::new(move |_| {
                let _ = tx.send(Instant::now());
            }));
            let ran = rx.recv().expect("the pool ran the job");
            ran.duration_since(t0).as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&samples)
}

/// Wall nanoseconds per empty job, 100 000 jobs spawned from outside.
fn pool_spawn_ns_per_job(pool: &ThreadPool) -> f64 {
    const JOBS: u64 = 100_000;
    let done = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    for _ in 0..JOBS {
        let done = Arc::clone(&done);
        pool.spawn(Box::new(move |_| {
            done.fetch_add(1, Ordering::Release);
        }));
    }
    while done.load(Ordering::Acquire) < JOBS {
        std::thread::yield_now();
    }
    t0.elapsed().as_nanos() as f64 / JOBS as f64
}

// ---------------------------------------------------------------------------
// traced solves
// ---------------------------------------------------------------------------

/// Per-solve numbers read from the `nd-trace` events of traced solves.
#[derive(Default)]
struct TraceAgg {
    busy_share: Vec<f64>,
    steal_share: Vec<f64>,
    idle_share: Vec<f64>,
    steals: Vec<f64>,
    critical_path_ns: Vec<f64>,
    cp_efficiency: Vec<f64>,
    inline_share: Vec<f64>,
    enqueues: Vec<f64>,
    tasks_cv: Vec<f64>,
    steal_histogram: Vec<u64>,
    /// Per op kind: the solves' p50s and p99s.
    op_ns: BTreeMap<String, (Vec<f64>, Vec<f64>)>,
    events: u64,
    dropped: u64,
}

impl TraceAgg {
    fn add(&mut self, trace: &Trace) {
        let tm = &trace.metrics;
        let worker_ns = (trace.wall_ns.max(1) * tm.per_worker.len().max(1) as u64) as f64;
        let share = |f: fn(&nd_trace::WorkerSummary) -> u64| {
            tm.per_worker.iter().map(f).sum::<u64>() as f64 / worker_ns
        };
        self.busy_share.push(share(|w| w.busy_ns));
        self.steal_share.push(share(|w| w.steal_ns));
        self.idle_share.push(share(|w| w.idle_ns));
        self.steals.push(tm.steals as f64);
        self.critical_path_ns.push(tm.critical_path_ns as f64);
        self.cp_efficiency
            .push(tm.critical_path_ns as f64 / trace.wall_ns.max(1) as f64);
        self.inline_share
            .push(tm.inline_execs as f64 / tm.exec_spans.max(1) as f64);
        self.enqueues.push(tm.enqueues as f64);
        let tasks: Vec<f64> = tm.per_worker.iter().map(|w| w.tasks as f64).collect();
        self.tasks_cv.push(stats::cv(&tasks));
        if self.steal_histogram.len() < tm.steal_distance_histogram.len() {
            self.steal_histogram
                .resize(tm.steal_distance_histogram.len(), 0);
        }
        for (total, n) in self
            .steal_histogram
            .iter_mut()
            .zip(&tm.steal_distance_histogram)
        {
            *total += n;
        }
        for op in &tm.op_latency {
            let (p50, p99) = self.op_ns.entry(op.op_kind.clone()).or_default();
            p50.push(op.p50_ns as f64);
            p99.push(op.p99_ns as f64);
        }
        self.events += trace.events.len() as u64;
        self.dropped += trace.dropped;
    }

    fn write(&self, m: &mut MetricSet) {
        m.set("pool.busy_share", stats::median(&self.busy_share));
        m.set("pool.steal_share", stats::median(&self.steal_share));
        m.set("pool.idle_share", stats::median(&self.idle_share));
        m.set("pool.steals_per_solve", stats::median(&self.steals));
        m.set("pool.tasks_per_worker_cv", stats::median(&self.tasks_cv));
        let steals: u64 = self.steal_histogram.iter().sum();
        if steals > 0 {
            m.set(
                "pool.steals_d0_share",
                self.steal_histogram[0] as f64 / steals as f64,
            );
            let cross: u64 = self.steal_histogram.iter().skip(1).sum();
            m.set(
                "anchor.cross_cluster_steal_share",
                cross as f64 / steals as f64,
            );
        }
        m.set(
            "graph.critical_path_ms",
            stats::median(&self.critical_path_ns) / 1e6,
        );
        m.set("graph.cp_efficiency", stats::median(&self.cp_efficiency));
        m.set("graph.inline_exec_share", stats::median(&self.inline_share));
        m.set("graph.enqueues_per_solve", stats::median(&self.enqueues));
        for kind in NAMED_OP_KINDS {
            if let Some((p50, p99)) = self.op_ns.get(kind) {
                m.set(&format!("strand.op_ns_p50.{kind}"), stats::median(p50));
                m.set(&format!("strand.op_ns_p99.{kind}"), stats::median(p99));
            }
        }
    }
}

/// How long to keep solving: a time box (with a floor on the pairs) or a
/// fixed number of pairs.
enum SolveBudget {
    Seconds(f64),
    Pairs(usize),
}

struct SolvePhase {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    agg: TraceAgg,
    signatures: Vec<u64>,
    errors: u64,
}

/// Alternates an untraced and a traced solve.  Each traced solve is its own
/// `TraceSession` (a fine-grained solve would overflow any ring shared with
/// the next one); collecting the trace is outside the timed span.
fn solve_phase(
    rig: &mut ExecRig,
    rec: &mut Recorder,
    budget: SolveBudget,
    corrupt_op: Option<u64>,
) -> SolvePhase {
    let tasks = rig.problem.compiled.task_count();
    let config = TraceConfig {
        capacity: (4 * tasks).max(1 << 16),
    };
    let mut phase = SolvePhase {
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        agg: TraceAgg::default(),
        signatures: Vec::new(),
        errors: 0,
    };
    let start = Instant::now();
    let mut op = 1u64;
    loop {
        let pairs = phase.traced_ms.len();
        let more = match budget {
            SolveBudget::Seconds(s) => {
                pairs < MIN_TRACED_SOLVES || start.elapsed().as_secs_f64() < s
            }
            SolveBudget::Pairs(n) => pairs < n,
        };
        if !more || phase.errors > 0 {
            return phase;
        }
        for traced in [false, true] {
            let session = traced.then(|| TraceSession::start(rig.pool.pool().tracer(), config));
            let solved = rig.checked_solve(rec, op, corrupt_op);
            if let Some(session) = session {
                phase
                    .agg
                    .add(&session.finish_with_meta(rig.problem.compiled.trace_meta()));
            }
            match solved {
                Some((ms, signature)) => {
                    if traced {
                        &mut phase.traced_ms
                    } else {
                        &mut phase.untraced_ms
                    }
                    .push(ms);
                    phase.signatures.push(signature);
                }
                None => phase.errors += 1,
            }
            op += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// the executor layers of one rig
// ---------------------------------------------------------------------------

/// Measures kernel, strand, graph, pool, anchor and trace on `rig`, writes
/// the executor side of the budget, and returns the solves attempted and
/// failed.
fn exec_layers(
    rig: &mut ExecRig,
    rec: &mut Recorder,
    host: &Host,
    peak: Option<f64>,
    budget: SolveBudget,
    corrupt_op: Option<u64>,
    m: &mut MetricSet,
) -> (u64, u64) {
    let workers = host.workers as f64;
    let tasks = rig.problem.compiled.task_count() as f64;
    m.set("graph.tasks", tasks);
    m.set("graph.edges", rig.problem.compiled.edge_count() as f64);
    m.set(
        "strand.pack_scratch_len",
        rig.problem.compiled.pack_scratch_len() as f64,
    );

    let model_ms = kernel_layer(&rig.problem, peak, m);
    let serial_ms = strand_serial_ms(&mut rig.problem);
    m.set("strand.serial_ms", serial_ms);
    m.set("strand.ns_per_task", serial_ms * 1e6 / tasks);
    m.set("strand.overhead_share", (serial_ms - model_ms) / serial_ms);

    // The workload's own graph on its own pool; and the flat graph on one
    // worker (an anchored graph names queue groups a flat pool lacks).
    let empty_ns = empty_graph_ns(rig.problem.compiled.graph(), rig.pool.pool());
    m.set("graph.empty_ns_per_task", empty_ns / tasks);
    let flat = compile(&rig.problem.built, &rig.problem.ctx);
    m.set(
        "graph.serial_ns_per_task",
        empty_graph_ns(flat.graph(), &ThreadPool::new(1)) / tasks,
    );

    m.set("pool.wake_us_p50", pool_wake_us_p50(rig.pool.pool()));
    m.set(
        "pool.spawn_ns_per_job",
        pool_spawn_ns_per_job(rig.pool.pool()),
    );

    let phase = solve_phase(rig, rec, budget, corrupt_op);
    phase.agg.write(m);
    let op_ms = stats::median(&phase.untraced_ms);
    let traced_ms = stats::median(&phase.traced_ms);
    eprintln!("bench: solve p50 {op_ms:.4} ms untraced, {traced_ms:.4} ms traced");
    m.set("trace.op_ms_p50", traced_ms);
    m.set("trace.overhead_share", (traced_ms - op_ms) / op_ms);
    m.set("trace.events", phase.agg.events as f64);
    m.set("trace.dropped", phase.agg.dropped as f64);
    m.set("pool.parallel_efficiency", serial_ms / (workers * op_ms));

    if let (Some(anchoring), ExecPool::Anchored(_)) = (&rig.problem.anchoring, &rig.pool) {
        let level = |l: usize| anchoring.anchors_per_level.get(l).copied().unwrap_or(0) as f64;
        m.set("anchor.anchors_l1", level(0));
        m.set("anchor.anchors_l2", level(1));
        m.set("anchor.overflow_events", anchoring.overflow_events as f64);
        // The same compiled problem, unplaced, on a flat pool of equal size.
        let flat_pool = ThreadPool::new(host.workers);
        let flat_ms: Vec<f64> = (0..FLAT_SOLVES + 2)
            .map(|_| {
                rig.problem.restore_inputs();
                let t0 = Instant::now();
                flat.execute_steady(&flat_pool).expect("flat solve failed");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .skip(2)
            .collect();
        m.set("anchor.vs_flat_ratio", op_ms / stats::median(&flat_ms));
    }

    // The budget: isolated kernel and strand time spread over the workers,
    // the empty graph's wall time, and the worker time the traced solves
    // spent outside strands that the empty graph does not explain.
    let busy_share = stats::median(&phase.agg.busy_share);
    let graph_ms = empty_ns / 1e6;
    let idle_ms = ((1.0 - busy_share) * op_ms - graph_ms).max(0.0);
    m.set("budget.kernel_ms", model_ms / workers);
    m.set("budget.strand_ms", (serial_ms - model_ms) / workers);
    m.set("budget.graph_ms", graph_ms);
    m.set("budget.idle_ms", idle_ms);
    m.set("budget.op_ms", op_ms);
    let sum = serial_ms / workers + graph_ms + idle_ms;
    m.set("budget.residual_share", (op_ms - sum).abs() / op_ms);

    rig.tally(&phase.signatures, phase.errors)
}

/// `build.*` and `anchor.compute_ms` from the set-up spans (median over the
/// repeated set-ups).
fn build_layer(rec: &Recorder, tasks: f64, m: &mut MetricSet) {
    let ms = |name: &str| stats::median(&rec.durations(name)) / 1e6;
    m.set("build.drs_ms", ms("build"));
    m.set("build.compile_ms", ms("compile"));
    m.set(
        "build.ns_per_task",
        (ms("build") + ms("compile")) * 1e6 / tasks,
    );
    m.set("anchor.compute_ms", ms("anchor"));
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// Latency of the first job on each of 24 keys no server has compiled yet.
fn cold_job_ms_p50(host: &Host) -> f64 {
    let server = Server::new(
        Arc::new(ThreadPool::new(host.workers)),
        ServeConfig::default(),
    );
    server.register_tenant("cold", TenantConfig::default());
    let mut ms = Vec::new();
    for algo in [AlgoKind::Mm, AlgoKind::Cholesky] {
        for (n, base) in [(32, 8), (32, 16), (64, 8), (64, 16), (128, 16), (128, 32)] {
            for layout in [Layout::RowMajor, Layout::Tiled] {
                let t0 = Instant::now();
                let outcome = server
                    .submit("cold", JobSpec::new(algo, n, base, layout, 7))
                    .expect("cold job refused")
                    .wait();
                assert!(outcome.is_done(), "cold job did not finish: {outcome:?}");
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    server.shutdown(Duration::from_secs(30));
    stats::median(&ms)
}

/// `GraphCache::get_or_compile` on a miss, over the workload's keys.
fn compile_miss_ms_p50(rig: &ServeRig) -> f64 {
    let mut ms = Vec::new();
    for _ in 0..5 {
        let cache = GraphCache::new();
        for kind in rig.kinds() {
            let t0 = Instant::now();
            black_box(cache.get_or_compile(kind.spec(0).key()));
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    stats::median(&ms)
}

/// The first job kind compiled and run through `nd-algorithms` directly, on
/// a pool like the server's: load inputs, execute, digest — the work of one
/// job without the server.
fn direct_exec_ms_p50(rig: &mut ExecRig) -> f64 {
    let ms: Vec<f64> = (0..DIRECT_SOLVES as u64)
        .map(|seed| {
            let t0 = Instant::now();
            rig.problem.load_job_inputs(seed);
            rig.problem
                .compiled
                .execute_steady(rig.pool.pool())
                .expect("direct solve failed");
            black_box(rig.problem.job_digest());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&ms)
}

fn serve_layer(
    untraced: &ServeWindow,
    traced: &ServeWindow,
    trace: &Trace,
    direct_ms: f64,
    m: &mut MetricSet,
) {
    let job_ms_p50 = stats::median(&untraced.small_job_ms());
    let submit_us: Vec<f64> = untraced.records.iter().map(|r| r.submit_us).collect();
    m.set("serve.submit_us_p50", stats::percentile(&submit_us, 50.0));
    m.set("serve.submit_us_p99", stats::percentile(&submit_us, 99.0));
    m.set("serve.direct_exec_ms_p50", direct_ms);
    m.set("serve.overhead_ms_p50", job_ms_p50 - direct_ms);
    m.set("serve.job_ms_p50.small", job_ms_p50);
    m.set(
        "serve.job_ms_p50.large",
        stats::median(&untraced.done_ms(|kind| kind.large)),
    );
    let h = &untraced.health_final;
    m.set(
        "serve.cache_hit_share",
        h.cache.hits as f64 / (h.cache.hits + h.cache.misses).max(1) as f64,
    );
    m.set(
        "serve.attempts_per_done",
        h.done as f64 / h.attempts.max(1) as f64,
    );
    m.set("serve.retries", h.retries as f64);
    m.set("serve.injected_faults", h.injected_faults as f64);
    m.set("serve.shed", h.shed as f64);
    m.set("serve.poisoned", h.poisoned as f64);
    m.set("serve.accepted", h.accepted as f64);
    m.set("serve.terminal", h.terminal as f64);
    let missed = untraced
        .records
        .iter()
        .filter(|r| {
            !matches!(r.outcome, Outcome::Done { .. })
                || r.latency_ms > SLO_MS[usize::from(JOB_KINDS[r.kind].large)]
        })
        .count();
    m.set(
        "serve.slo_miss_share",
        missed as f64 / untraced.records.len().max(1) as f64,
    );
    let late_us: Vec<f64> = untraced.records.iter().map(|r| r.late_us).collect();
    m.set("serve.gen_late_us_p99", stats::percentile(&late_us, 99.0));
    let backlog = |h: &Option<nd_serve::HealthSnapshot>| {
        h.as_ref().map_or(0.0, |h| {
            (h.ready_jobs + h.delayed_jobs + h.in_flight) as f64
        })
    };
    m.set("serve.backlog_mid", backlog(&untraced.health_mid));
    m.set("serve.backlog_end", backlog(&untraced.health_end));
    m.set("serve.drain_ms", untraced.drain_ms);
    m.set(
        "serve.pool_steals_per_job",
        h.pool.steals as f64 / h.done.max(1) as f64,
    );

    // From the traced window: the pool's time split while serving, and the
    // serve budget.  By Little's law the mean number of jobs queued, running
    // and backing off, each divided by the throughput, is the mean time a
    // job spends there; the three should add up to the mean job latency.
    let mut agg = TraceAgg::default();
    agg.add(trace);
    m.set("pool.busy_share", stats::median(&agg.busy_share));
    m.set("pool.steal_share", stats::median(&agg.steal_share));
    m.set("pool.idle_share", stats::median(&agg.idle_share));
    let traced_p50 = stats::median(&traced.small_job_ms());
    m.set("trace.op_ms_p50", traced_p50);
    m.set(
        "trace.overhead_share",
        (traced_p50 - job_ms_p50) / job_ms_p50,
    );
    let traced_ms = traced.done_ms(|_| true);
    m.set("trace.events", trace.events.len() as f64);
    m.set("trace.dropped", trace.dropped as f64);
    if let Some(o) = traced.occupancy {
        let per_ms = traced_ms.len() as f64 / (traced.wall_s * 1e3);
        let (queue, exec, backoff) = (o.ready / per_ms, o.in_flight / per_ms, o.delayed / per_ms);
        m.set("budget.queue_ms", queue);
        m.set("budget.exec_ms", exec);
        m.set("budget.backoff_ms", backoff);
        let mean_ms = stats::mean(&traced_ms);
        m.set("budget.op_ms", mean_ms);
        m.set(
            "budget.residual_share",
            (mean_ms - (queue + exec + backoff)).abs() / mean_ms,
        );
    }
}

// ---------------------------------------------------------------------------
// the traced pass
// ---------------------------------------------------------------------------

fn host_layer(host: &Host, m: &mut MetricSet) -> Option<f64> {
    eprintln!("bench: host: {}", host.summary());
    m.set("host.nproc", host.nproc as f64);
    m.set("host.workers", host.workers as f64);
    let peak = probes::peak_gflops();
    match peak {
        Some(g) => m.set("host.peak_gflops", g),
        None => eprintln!("bench: no AVX2+FMA: peak probe skipped, roofline share omitted"),
    }
    let triad = probes::stream_triad(host);
    eprintln!(
        "bench: stream triad over {} MiB of arrays ({} MiB of last-level cache)",
        triad.footprint_bytes >> 20,
        host.llc_bytes() >> 20
    );
    m.set("host.stream_gbps", triad.gbps);
    peak
}

/// `<target>/bench`, beside the profile directory this executable was built
/// into — inside the checkout wherever `CARGO_TARGET_DIR` points.
fn trace_dir() -> std::io::Result<std::path::PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe.parent().and_then(|profile| profile.parent());
    Ok(target.unwrap_or(std::path::Path::new(".")).join("bench"))
}

/// Writes every recorder's spans as one Chrome-trace file and prints the
/// self time per span name.
fn write_spans(def: &WorkloadDef, seed: u64, recorders: &[&Recorder]) {
    for (name, count, self_ms) in self_time_summary(recorders) {
        eprintln!("bench: spans: {name:>15} x{count:<7} self {self_ms:.3} ms");
    }
    let written = trace_dir().and_then(|dir| {
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans_{}_{seed}.json", def.name));
        std::fs::write(&path, chrome_trace(recorders).write())?;
        Ok(path)
    });
    match written {
        Ok(path) => eprintln!("bench: spans written to {}", path.display()),
        Err(e) => eprintln!("bench: could not write the spans: {e}"),
    }
}

/// The traced pass of one workload.
pub fn run_traced(def: &WorkloadDef, p: &Params, host: &Host) -> RunResult {
    let mut m = MetricSet::new(PER_LAYER);
    let peak = host_layer(host, &mut m);
    let mut rec = Recorder::new(true);
    let corrupt = p.self_test.then_some(2);
    let (attempted, failed) = match def.kind {
        Kind::Exec(spec) => {
            let spec = quick_spec(spec, p.quick);
            let (mut rig, _) = repeat_setup(p.quick, || ExecRig::new(spec, p.seed, host, &mut rec));
            build_layer(&rec, rig.problem.compiled.task_count() as f64, &mut m);
            let layers = exec_layers(
                &mut rig,
                &mut rec,
                host,
                peak,
                SolveBudget::Seconds(0.45 * p.seconds),
                corrupt,
                &mut m,
            );
            write_spans(def, p.seed, &[&rec]);
            layers
        }
        Kind::ServeClosed | Kind::ServeOpen => {
            let open_loop = matches!(def.kind, Kind::ServeOpen);
            // The executor layers, on the first job kind run directly.
            let mut direct = ExecRig::new(JOB_KINDS[0].direct_spec(), p.seed, host, &mut rec);
            build_layer(&rec, direct.problem.compiled.task_count() as f64, &mut m);
            let layers = exec_layers(
                &mut direct,
                &mut rec,
                host,
                peak,
                SolveBudget::Pairs(DIRECT_SOLVES),
                None,
                &mut m,
            );
            let direct_ms = direct_exec_ms_p50(&mut direct);
            drop(direct);

            m.set("serve.cold_job_ms_p50", cold_job_ms_p50(host));
            // A drained server admits nothing more, so each window gets its own.
            let (rig, _) =
                repeat_setup(p.quick, || ServeRig::new(open_loop, p.seed, host, &mut rec));
            m.set("serve.compile_ms_p50", compile_miss_ms_p50(&rig));
            let window_s = 0.35 * p.seconds;
            // A closed loop sends ~150 trace events per job as fast as it can;
            // a tenth of the run is thousands of jobs and still fits the rings.
            let traced_s = if open_loop { window_s } else { 0.1 * p.seconds };
            let untraced = serve_window(
                &rig,
                &Recorder::new(false),
                p.seed,
                window_s,
                host.workers,
                false,
            );
            rig.server.shutdown(Duration::from_secs(30));
            let rig = ServeRig::new(open_loop, p.seed, host, &mut rec);
            let session = TraceSession::start(rig.pool.tracer(), TraceConfig { capacity: 1 << 20 });
            let traced = serve_window(&rig, &rec, p.seed ^ 1, traced_s, host.workers, true);
            let trace = session.finish();
            rig.server.shutdown(Duration::from_secs(30));
            serve_layer(&untraced, &traced, &trace, direct_ms, &mut m);

            let (mut attempted, mut failed) = layers;
            for (w, corrupt_first) in [(&untraced, p.self_test), (&traced, false)] {
                attempted += w.records.len() as u64;
                failed += w.failed_jobs(host.workers, corrupt_first);
            }
            let mut recorders: Vec<&Recorder> = vec![&rec];
            recorders.extend(traced.recorders.iter());
            write_spans(def, p.seed, &recorders);
            (attempted, failed)
        }
    };
    RunResult {
        correct: failed == 0 && attempted > 0,
        attempted: attempted.max(1),
        failed,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Algo, ProblemSpec};
    use nd_algorithms::common::Rect;

    #[test]
    fn kernel_shapes_carry_flops_and_bytes() {
        let r = |rows, cols| Rect::new(0, 0, 0, rows, cols);
        let g = KernelShape::of(&BlockOp::Gemm {
            c: r(64, 64),
            a: r(64, 64),
            b: r(64, 64),
            alpha: 1.0,
        })
        .unwrap();
        assert_eq!(g.flops(), 2.0 * 64.0 * 64.0 * 64.0);
        assert_eq!(g.bytes(), 8.0 * 4.0 * 64.0 * 64.0);
        assert!(KernelShape::of(&BlockOp::Nop).is_none());
        let l = KernelShape::of(&BlockOp::LcsBlock {
            table: 0,
            i0: 1,
            i1: 9,
            j0: 1,
            j1: 9,
        })
        .unwrap();
        assert_eq!((l.m, l.n, l.flops()), (8, 8, 0.0));
        assert!(l.isolated_ns() > 0.0);
    }

    #[test]
    fn topological_order_respects_every_edge() {
        let graph = Arc::new(CompiledGraph::from_edges(
            5,
            &[(0, 2), (1, 2), (2, 3), (2, 4)],
            Vec::new(),
        ));
        let order = topological_order(&graph);
        let pos = |t: u32| order.iter().position(|&x| x == t).unwrap();
        for (from, to) in graph.edges() {
            assert!(pos(from) < pos(to));
        }
    }

    #[test]
    fn the_layers_of_a_small_problem_are_all_measured() {
        let host = Host::detect();
        let mut rec = Recorder::new(true);
        let spec = ProblemSpec {
            algo: Algo::Lu,
            n: 128,
            base: 32,
            anchored: true,
        };
        let mut rig = ExecRig::new(spec, 1, &host, &mut rec);
        let mut m = MetricSet::new(PER_LAYER);
        build_layer(&rec, rig.problem.compiled.task_count() as f64, &mut m);
        let layers = exec_layers(
            &mut rig,
            &mut rec,
            &host,
            None,
            SolveBudget::Pairs(3),
            None,
            &mut m,
        );
        assert_eq!(layers, (6, 0));
        for name in [
            "kernel.model_ms",
            "strand.serial_ms",
            "graph.empty_ns_per_task",
            "pool.busy_share",
            "anchor.anchors_l1",
            "build.drs_ms",
            "anchor.compute_ms",
            "trace.events",
            "budget.op_ms",
            "strand.op_ns_p50.lu_panel",
        ] {
            assert!(m.get(name) > 0.0, "{name} = {}", m.get(name));
        }
        assert_eq!(m.get("trace.dropped"), 0.0);
        assert_eq!(
            m.get("kernel.gemm_roofline_share"),
            0.0,
            "no peak, no share"
        );
        assert!(m.get("kernel.gemm_ops_per_byte") > 0.0);
        assert!(!rec.durations("execute").is_empty());
    }
}
