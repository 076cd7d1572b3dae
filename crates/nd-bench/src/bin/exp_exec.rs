//! E14: real wall-clock execution — flat work stealing versus the
//! hierarchy-aware space-bounded executor of `nd-exec`, on MM, Cholesky, LU
//! (partial pivoting) and 2-D Floyd–Warshall — plus E15: executor hot-path
//! microbenchmarks (per-task scheduling overhead, tasks/second, and
//! rebuild-vs-reuse of compiled graphs), E16: rebuild-vs-reuse of the
//! compiled LU and FW-2D drivers (the loop-blocked algorithms this repo
//! lowers through the same compiled path as the recursive ones), and E17: the
//! fire-rule frontend — DRS expansion + compile cost versus the access-set
//! oracle rebuilding the same dependency structure, plus the reuse speedup of
//! a DRS-built graph (MM and LCS), and E19: the `nd-trace` subsystem — the
//! runtime cost of toggling tracing on, and the derived scheduler metrics of
//! one traced anchored MM (written to the `trace` section of
//! `BENCH_exec.json`), and E20: the fault paths — drain-to-latch cancellation
//! latency after a strand panic, `reset()` + rerun recovery, the trip latency
//! of a blown wall-clock deadline (the `faults` section).
//!
//! Both executors run the *same* deterministic ND task graph; only the
//! scheduling differs: the flat baseline steals blindly in ring order (but its
//! pool carries the machine's distance matrix, so its cross-cluster steals are
//! *measured*, not assumed), while the `nd-exec` pool routes every strand to
//! the subcluster its `σ·M_i`-maximal task was anchored to and steals
//! nearest-cluster-first.  Each executor gets its own pool, constructed and
//! dropped around its own measurement so idle workers of one never perturb the
//! other's timings.  Results are checked bit-for-bit against each other before
//! timing, and one JSON object per (algorithm, executor) measurement is
//! emitted on stdout.
//!
//! The scheduler microbenchmarks run all-empty-task graphs through the
//! non-boxed [`TaskTable`] mode, so what they time is the executor itself —
//! counter claims, CSR successor walks, deque traffic, tail-execution — not
//! the kernels; and they compare rebuilding a compiled MM graph every
//! repetition against reusing one graph across repetitions.
//!
//! Everything is also written to `BENCH_exec.json` (one JSON object; the CI
//! bench-smoke step parses it and checks `tasks_per_sec` / `reuse_speedup`).
//!
//! Usage: `cargo run --release --bin exp_exec -- [n] [reps]` (default 256, 3).

use nd_algorithms::access::access_oracle_dag;
use nd_algorithms::cholesky::{build_cholesky, cholesky_parallel};
use nd_algorithms::common::{BuiltAlgorithm, Mode};
use nd_algorithms::driver::{self, bind_layout, ContextExtras};
use nd_algorithms::exec::{compile_algorithm, ExecContext, Layout};
use nd_algorithms::fw2d::{apsp_parallel, build_fw2d};
use nd_algorithms::lcs::build_lcs;
use nd_algorithms::lu::{build_lu, lu_parallel};
use nd_algorithms::mm::{build_mm, multiply_parallel};
use nd_exec::execute::{apsp_anchored, cholesky_anchored, lu_anchored, multiply_anchored};
use nd_exec::pool::flat_topology_with_distances;
use nd_exec::{AnchorConfig, HierarchicalPool, StealPolicy};
use nd_linalg::fw::random_digraph;
use nd_linalg::gemm::{gemm_block, gemm_block_packed, gemm_pack_len};
use nd_linalg::tile::TileMatrix;
use nd_linalg::Matrix;
use nd_pmh::machine::MachineTree;
use nd_pmh::topology::detect_host;
use nd_runtime::dataflow::{CompiledGraph, TaskTable};
use nd_runtime::pool::with_pack_scratch;
use nd_runtime::{RunBudget, RunError, ThreadPool};
use nd_trace::{metrics_summary_json, TraceConfig, TraceSession};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Measurement {
    best_seconds: f64,
    mean_seconds: f64,
    cross_cluster_steals: u64,
    total_steals: u64,
}

fn measurement_json(
    algorithm: &str,
    executor: &str,
    layout: &str,
    workers: usize,
    m: &Measurement,
) -> String {
    format!(
        "{{\"experiment\":\"exp_exec\",\"algorithm\":\"{}\",\"executor\":\"{}\",\
\"layout\":\"{}\",\"workers\":{},\"best_seconds\":{:.6},\"mean_seconds\":{:.6},\
\"cross_cluster_steals\":{},\"total_steals\":{}}}",
        algorithm,
        executor,
        layout,
        workers,
        m.best_seconds,
        m.mean_seconds,
        m.cross_cluster_steals,
        m.total_steals
    )
}

/// An all-empty-task table: executing a graph through it times the scheduler
/// alone (claim, CSR walk, deque traffic, tail-execution), not the kernels.
struct NopTable;

impl TaskTable for NopTable {
    #[inline]
    fn run_task(&self, _task: u32) {}
}

/// Scheduler hot-path numbers: per-task overhead, throughput, reuse speedup.
struct SchedulerBench {
    graph_tasks: usize,
    graph_edges: usize,
    /// Best per-task scheduling overhead on a wide layered graph (ns).
    per_task_ns: f64,
    /// Best empty-task throughput on the same graph (tasks per second).
    tasks_per_sec: f64,
    /// Best per-task overhead on a pure serial chain (all tail-execution, ns).
    chain_task_ns: f64,
    /// Mean seconds to build + compile + execute the MM graph (the old
    /// every-call cost).
    rebuild_seconds: f64,
    /// Mean seconds to re-execute the already-compiled MM graph.
    reuse_seconds: f64,
    /// `rebuild_seconds / reuse_seconds`.
    reuse_speedup: f64,
}

impl SchedulerBench {
    fn json(&self) -> String {
        format!(
            "{{\"graph_tasks\":{},\"graph_edges\":{},\"per_task_ns\":{:.1},\
\"tasks_per_sec\":{:.0},\"chain_task_ns\":{:.1},\"rebuild_seconds\":{:.6},\
\"reuse_seconds\":{:.6},\"reuse_speedup\":{:.2}}}",
            self.graph_tasks,
            self.graph_edges,
            self.per_task_ns,
            self.tasks_per_sec,
            self.chain_task_ns,
            self.rebuild_seconds,
            self.reuse_seconds,
            self.reuse_speedup
        )
    }
}

/// Measures the executor hot path with empty tasks and the rebuild-vs-reuse
/// cost of a compiled MM graph of size `n`.
fn bench_scheduler(workers: usize, n: usize, base: usize, reps: usize) -> SchedulerBench {
    let pool = ThreadPool::new(workers);
    let table = Arc::new(NopTable);

    // A wide layered DAG: `layers × width` empty tasks, two predecessors each
    // (same column and a neighbour of the previous layer) — plenty of
    // parallelism and dependency traffic, zero task work.
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
    let (best, _) = time_reps(reps.max(3), || {
        graph.execute(&pool, &table).expect("timed run");
    });
    let per_task_ns = best * 1e9 / tasks as f64;
    let tasks_per_sec = tasks as f64 / best;

    // A pure serial chain: every step takes the inline tail-execution path.
    let chain_len = 50_000usize;
    let chain_edges: Vec<(u32, u32)> = (1..chain_len as u32).map(|t| (t - 1, t)).collect();
    let chain = Arc::new(CompiledGraph::from_edges(
        chain_len,
        &chain_edges,
        Vec::new(),
    ));
    let (chain_best, _) = time_reps(reps.max(3), || {
        chain.execute(&pool, &table).expect("timed run");
    });
    let chain_task_ns = chain_best * 1e9 / chain_len as f64;

    // Rebuild-vs-reuse on the real MM graph: the old path paid DRS + graph
    // construction on every execution; the compiled path pays it once.  A
    // fine base case puts the graph in the paper's fine-grained-strand
    // regime, where construction is a significant share of every run.
    let fine_base = base.min(8);
    let a = Matrix::random(n, n, 11);
    let b = Matrix::random(n, n, 12);
    let mut c = Matrix::zeros(n, n);
    let mut am = a.clone();
    let mut bm = b.clone();
    let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
    let (_, rebuild_seconds) = time_reps(reps, || {
        let built = build_mm(n, fine_base, Mode::Nd, 1.0);
        let compiled = compile_algorithm(&built.dag, &built.ops, &ctx);
        compiled.execute(&pool).expect("timed run");
    });
    let built = build_mm(n, fine_base, Mode::Nd, 1.0);
    let compiled = compile_algorithm(&built.dag, &built.ops, &ctx);
    let (_, reuse_seconds) = time_reps(reps, || {
        compiled.execute(&pool).expect("timed run");
    });

    SchedulerBench {
        graph_tasks: tasks,
        graph_edges: edges.len(),
        per_task_ns,
        tasks_per_sec,
        chain_task_ns,
        rebuild_seconds,
        reuse_seconds,
        reuse_speedup: rebuild_seconds / reuse_seconds,
    }
}

/// E19: cost and content of the `nd-trace` subsystem.  `disabled_per_task_ns`
/// and `enabled_per_task_ns` time the same wide layered empty-task DAG with
/// the pool's tracer off and on (the off/on ratio is the *runtime* toggle
/// cost; the compile-time cost of carrying the feature at all is measured by
/// `nd-runtime`'s `sched_overhead` binary built with and without the
/// feature).  The `traced_mm` sub-object is the compact metrics summary of
/// one traced anchored MM run, and `pool` carries the [`nd_runtime::PoolStats`]
/// deltas of that run.
struct TraceBench {
    disabled_per_task_ns: f64,
    enabled_per_task_ns: f64,
    /// `enabled / disabled` (1.0 = tracing costs nothing when on).
    enabled_overhead_ratio: f64,
    /// Events collected while timing the enabled runs (sanity: > 0).
    events_collected: usize,
    /// Events lost to ring wraparound during those runs.
    events_dropped: u64,
    /// Jobs executed / steals during the traced MM run (Pool::stats deltas).
    mm_jobs_executed: u64,
    mm_steals: u64,
    /// `metrics_summary_json` of the traced anchored MM run.
    traced_mm: String,
}

impl TraceBench {
    fn json(&self) -> String {
        format!(
            "{{\"disabled_per_task_ns\":{:.1},\"enabled_per_task_ns\":{:.1},\
\"enabled_overhead_ratio\":{:.3},\"events_collected\":{},\"events_dropped\":{},\
\"mm_jobs_executed\":{},\"mm_steals\":{},\"traced_mm\":{}}}",
            self.disabled_per_task_ns,
            self.enabled_per_task_ns,
            self.enabled_overhead_ratio,
            self.events_collected,
            self.events_dropped,
            self.mm_jobs_executed,
            self.mm_steals,
            self.traced_mm
        )
    }
}

/// Measures the tracing subsystem: runtime-toggle overhead on the empty-task
/// DAG, then one traced anchored MM whose derived metrics land in the
/// `trace` section of `BENCH_exec.json`.
fn bench_trace(
    machine: &MachineTree,
    workers: usize,
    n: usize,
    base: usize,
    reps: usize,
) -> TraceBench {
    let pool = ThreadPool::new(workers);
    let table = Arc::new(NopTable);
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
    graph.execute(&pool, &table).expect("warm-up run"); // warm up
    let (disabled_best, _) = time_reps(reps.max(3), || {
        graph.execute(&pool, &table).expect("timed run");
    });
    let session = TraceSession::start(pool.tracer(), TraceConfig::from_env());
    let (enabled_best, _) = time_reps(reps.max(3), || {
        graph.execute(&pool, &table).expect("timed run");
    });
    let trace = session.finish();
    let disabled_per_task_ns = disabled_best * 1e9 / tasks as f64;
    let enabled_per_task_ns = enabled_best * 1e9 / tasks as f64;

    // One traced anchored MM (the acceptance scenario of the trace tests);
    // the pool stats around it exercise the snapshot API.
    let hier = HierarchicalPool::new(machine.clone(), StealPolicy::NearestFirst);
    let a = Matrix::random(n, n, 21);
    let b = Matrix::random(n, n, 22);
    let mut c = Matrix::zeros(n, n);
    let mut am = a.clone();
    let mut bm = b.clone();
    let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
    let built = build_mm(n, base, Mode::Nd, 1.0);
    let before = hier.pool().stats();
    let (_, mm_trace) =
        nd_exec::execute::run_anchored_traced(&hier, &built, &ctx, &AnchorConfig::default());
    let delta = hier.pool().stats().since(&before);

    TraceBench {
        disabled_per_task_ns,
        enabled_per_task_ns,
        enabled_overhead_ratio: enabled_per_task_ns / disabled_per_task_ns,
        events_collected: trace.events.len(),
        events_dropped: trace.dropped,
        mm_jobs_executed: delta.jobs_executed,
        mm_steals: delta.steals,
        traced_mm: metrics_summary_json(&mm_trace),
    }
}

/// Rebuild-vs-reuse of one compiled algorithm driver (E16): the old path paid
/// build + compile on every execution; the compiled path pays it once.
struct ReuseBench {
    algorithm: &'static str,
    rebuild_seconds: f64,
    reuse_seconds: f64,
    reuse_speedup: f64,
}

impl ReuseBench {
    fn json(&self) -> String {
        format!(
            "{{\"algorithm\":\"{}\",\"rebuild_seconds\":{:.6},\"reuse_seconds\":{:.6},\
\"reuse_speedup\":{:.2}}}",
            self.algorithm, self.rebuild_seconds, self.reuse_seconds, self.reuse_speedup
        )
    }
}

/// Measures rebuild-every-run versus build-once/execute-many for one
/// algorithm through the shared driver layer.  `reinit` restores the bound
/// buffers in place before every execution (charged to both sides equally).
fn bench_algorithm_reuse(
    pool: &ThreadPool,
    reps: usize,
    algorithm: &'static str,
    build: impl Fn() -> BuiltAlgorithm,
    ctx: &ExecContext,
    mut reinit: impl FnMut(),
) -> ReuseBench {
    let (_, rebuild_seconds) = time_reps(reps, || {
        reinit();
        let built = build();
        driver::compile(&built, ctx)
            .execute(pool)
            .expect("timed run");
    });
    let built = build();
    let compiled = driver::compile(&built, ctx);
    let (_, reuse_seconds) = time_reps(reps, || {
        reinit();
        compiled.execute(pool).expect("timed run");
    });
    ReuseBench {
        algorithm,
        rebuild_seconds,
        reuse_seconds,
        reuse_speedup: rebuild_seconds / reuse_seconds,
    }
}

/// The fire-rule frontend (E17): DRS expansion cost versus the access-oracle
/// rebuild of the same dependency structure, compile cost, and the reuse
/// speedup of the DRS-built graph.
struct FrontendBench {
    algorithm: &'static str,
    /// Mean seconds to unfold + validate + DRS-rewrite the ND program.
    drs_build_seconds: f64,
    /// Mean seconds the access-set oracle takes to rebuild the same
    /// dependency structure from the recorded block operations.
    access_build_seconds: f64,
    /// Mean seconds to lower the built algorithm to its compiled form.
    compile_seconds: f64,
    /// Mean seconds of build + compile + execute on every run (the old path).
    rebuild_seconds: f64,
    /// Mean seconds to re-execute the already-compiled graph.
    reuse_seconds: f64,
    /// `rebuild_seconds / reuse_seconds`.
    reuse_speedup: f64,
}

impl FrontendBench {
    fn json(&self) -> String {
        format!(
            "{{\"algorithm\":\"{}\",\"drs_build_seconds\":{:.6},\
\"access_build_seconds\":{:.6},\"compile_seconds\":{:.6},\
\"rebuild_seconds\":{:.6},\"reuse_seconds\":{:.6},\"reuse_speedup\":{:.2}}}",
            self.algorithm,
            self.drs_build_seconds,
            self.access_build_seconds,
            self.compile_seconds,
            self.rebuild_seconds,
            self.reuse_seconds,
            self.reuse_speedup
        )
    }
}

/// Measures one algorithm's fire-rule frontend: program build (unfold + DRS),
/// the access-oracle rebuild of the same structure, compile cost, and
/// rebuild-vs-reuse through the shared driver layer.
fn bench_frontend(
    pool: &ThreadPool,
    reps: usize,
    algorithm: &'static str,
    build: impl Fn() -> BuiltAlgorithm,
    ctx: &ExecContext,
    reinit: impl FnMut(),
) -> FrontendBench {
    let (_, drs_build_seconds) = time_reps(reps, || {
        std::hint::black_box(&build());
    });
    let built = build();
    let (_, access_build_seconds) = time_reps(reps, || {
        std::hint::black_box(&access_oracle_dag(&built));
    });
    let (_, compile_seconds) = time_reps(reps, || {
        std::hint::black_box(&driver::compile(&built, ctx));
    });
    let reuse = bench_algorithm_reuse(pool, reps, algorithm, &build, ctx, reinit);
    FrontendBench {
        algorithm,
        drs_build_seconds,
        access_build_seconds,
        compile_seconds,
        rebuild_seconds: reuse.rebuild_seconds,
        reuse_seconds: reuse.reuse_seconds,
        reuse_speedup: reuse.reuse_speedup,
    }
}

/// E18: the GEMM base case on both storage layouts.  A full blocked multiply
/// sweep over `sweep_n × sweep_n` matrices at base-case granularity `b` — the
/// access pattern an executed algorithm's strands actually produce — measured
/// three ways: strided row-major block views (the pre-tile-packed status
/// quo), row-major with per-worker panel packing, and contiguous tile-packed
/// slabs.
struct GemmLayoutBench {
    b: usize,
    /// Size of the in-cache sweep matrices (`16·b`; the whole working set
    /// exceeds L2 but stays in the outer cache).
    warm_sweep_n: usize,
    warm_rowmajor_gflops: f64,
    warm_rowmajor_packed_gflops: f64,
    warm_tiled_gflops: f64,
    warm_tiled_speedup: f64,
    /// Size of the cold-operand matrices (memory-resident; every sampled tile
    /// triple is cold — the regime the paper's `Q*(t; σ·M_j)` bounds target).
    cold_n: usize,
    cold_samples: usize,
    /// Headline numbers: the cold regime, where layout dominates.
    rowmajor_gflops: f64,
    tiled_gflops: f64,
    /// `rowmajor_seconds / tiled_seconds` in the cold regime.
    tiled_speedup: f64,
}

impl GemmLayoutBench {
    fn json(&self) -> String {
        format!(
            "{{\"b\":{},\"warm_sweep_n\":{},\"warm_rowmajor_gflops\":{:.2},\
\"warm_rowmajor_packed_gflops\":{:.2},\"warm_tiled_gflops\":{:.2},\
\"warm_tiled_speedup\":{:.3},\"cold_n\":{},\"cold_samples\":{},\
\"rowmajor_gflops\":{:.2},\"tiled_gflops\":{:.2},\"tiled_speedup\":{:.3}}}",
            self.b,
            self.warm_sweep_n,
            self.warm_rowmajor_gflops,
            self.warm_rowmajor_packed_gflops,
            self.warm_tiled_gflops,
            self.warm_tiled_speedup,
            self.cold_n,
            self.cold_samples,
            self.rowmajor_gflops,
            self.tiled_gflops,
            self.tiled_speedup
        )
    }
}

/// Measures one base-case size on both layouts.
///
/// Two regimes, identical kernel and op order on each side:
///
/// * **warm** — a full blocked-multiply sweep over `16b × 16b` matrices
///   (working set larger than L2, tiles revisited): the in-cache regime the
///   repo's default experiment sizes run in.
/// * **cold** — pseudo-randomly sampled tile triples over memory-resident
///   matrices, so every operand tile is cold: a strided row-major tile pays
///   `b` separate page-and-line streams where the packed tile is one
///   sequential slab.  Row-major and tiled reps are interleaved so ambient
///   noise on a shared host hits both sides equally.
fn bench_gemm_layout(b: usize, n: usize, reps: usize) -> GemmLayoutBench {
    let reps = reps.max(3);
    let warm_sweep_n = 16 * b;
    let g = warm_sweep_n / b;
    let a = Matrix::random(warm_sweep_n, warm_sweep_n, 91);
    let bm = Matrix::random(warm_sweep_n, warm_sweep_n, 92);
    let warm_flops = 2.0 * (warm_sweep_n as f64).powi(3);

    let mut am = a.clone();
    let mut bmm = bm.clone();
    let mut c = Matrix::zeros(warm_sweep_n, warm_sweep_n);
    let mut at = TileMatrix::pack(&a, b);
    let mut bt = TileMatrix::pack(&bm, b);
    let mut ct = TileMatrix::zeros(warm_sweep_n, warm_sweep_n, b);
    let (mut row_best, mut packed_best, mut tiled_best) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let start = Instant::now();
        {
            let (cv, av, bv) = (c.as_ptr_view(), am.as_ptr_view(), bmm.as_ptr_view());
            for bi in 0..g {
                for bj in 0..g {
                    for bk in 0..g {
                        // SAFETY: single-threaded sweep on disjoint C tiles.
                        unsafe {
                            gemm_block(
                                cv.block(bi * b, bj * b, b, b),
                                av.block(bi * b, bk * b, b, b),
                                bv.block(bk * b, bj * b, b, b),
                                1.0,
                            );
                        }
                    }
                }
            }
        }
        row_best = row_best.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        {
            let (cv, av, bv) = (c.as_ptr_view(), am.as_ptr_view(), bmm.as_ptr_view());
            with_pack_scratch(gemm_pack_len(b, b, b), |scratch| {
                for bi in 0..g {
                    for bj in 0..g {
                        for bk in 0..g {
                            // SAFETY: as above; scratch is this thread's arena.
                            unsafe {
                                gemm_block_packed(
                                    cv.block(bi * b, bj * b, b, b),
                                    av.block(bi * b, bk * b, b, b),
                                    bv.block(bk * b, bj * b, b, b),
                                    1.0,
                                    scratch,
                                );
                            }
                        }
                    }
                }
            });
        }
        packed_best = packed_best.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        for bi in 0..g {
            for bj in 0..g {
                for bk in 0..g {
                    // SAFETY: single-threaded sweep on disjoint tile slabs.
                    unsafe {
                        gemm_block(
                            ct.tile_ptr(bi, bj).as_mat_ptr(),
                            at.tile_ptr(bi, bk).as_mat_ptr(),
                            bt.tile_ptr(bk, bj).as_mat_ptr(),
                            1.0,
                        );
                    }
                }
            }
        }
        tiled_best = tiled_best.min(start.elapsed().as_secs_f64());
    }
    std::hint::black_box((&c, &ct));
    drop((am, bmm, c, at, bt, ct));

    // Cold regime: big matrices (small ones on CI smoke sizes — same
    // plumbing, truncated magnitudes), sampled tile triples.
    let (cold_n, cold_samples) = if n >= 256 { (8192, 8192) } else { (2048, 2048) };
    let cg = cold_n / b;
    // Hash each sample index into a tile triple.  The three components must
    // come from *different* bit ranges of the mix: deriving them all as
    // linear functions of `s % cg` would give the sequence period `cg`,
    // collapsing the sampled footprint to a few MB that an outer cache keeps
    // resident after the first rep — silently turning the cold regime warm.
    let visit = |s: usize| {
        let h = (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (
            (h >> 16) as usize % cg,
            (h >> 32) as usize % cg,
            (h >> 48) as usize % cg,
        )
    };
    let cold_flops = (cold_samples as f64) * 2.0 * (b as f64).powi(3);
    // Pack the tiled operands first and then *move* (not clone) the row-major
    // sources into the strided side, so peak residency is the six matrices
    // the measurement needs and nothing more.
    let a = Matrix::random(cold_n, cold_n, 93);
    let bm = Matrix::random(cold_n, cold_n, 94);
    let mut at = TileMatrix::pack(&a, b);
    let mut bt = TileMatrix::pack(&bm, b);
    let mut ct = TileMatrix::zeros(cold_n, cold_n, b);
    let mut am = a;
    let mut bmm = bm;
    let mut c = Matrix::zeros(cold_n, cold_n);
    let (mut cold_row_best, mut cold_tiled_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let start = Instant::now();
        {
            let (cv, av, bv) = (c.as_ptr_view(), am.as_ptr_view(), bmm.as_ptr_view());
            for s in 0..cold_samples {
                let (bi, bj, bk) = visit(s);
                // SAFETY: single-threaded sweep.
                unsafe {
                    gemm_block(
                        cv.block(bi * b, bj * b, b, b),
                        av.block(bi * b, bk * b, b, b),
                        bv.block(bk * b, bj * b, b, b),
                        1.0,
                    );
                }
            }
        }
        cold_row_best = cold_row_best.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        for s in 0..cold_samples {
            let (bi, bj, bk) = visit(s);
            // SAFETY: single-threaded sweep.
            unsafe {
                gemm_block(
                    ct.tile_ptr(bi, bj).as_mat_ptr(),
                    at.tile_ptr(bi, bk).as_mat_ptr(),
                    bt.tile_ptr(bk, bj).as_mat_ptr(),
                    1.0,
                );
            }
        }
        cold_tiled_best = cold_tiled_best.min(start.elapsed().as_secs_f64());
    }
    std::hint::black_box((&c, &ct));

    GemmLayoutBench {
        b,
        warm_sweep_n,
        warm_rowmajor_gflops: warm_flops / row_best / 1e9,
        warm_rowmajor_packed_gflops: warm_flops / packed_best / 1e9,
        warm_tiled_gflops: warm_flops / tiled_best / 1e9,
        warm_tiled_speedup: row_best / tiled_best,
        cold_n,
        cold_samples,
        rowmajor_gflops: cold_flops / cold_row_best / 1e9,
        tiled_gflops: cold_flops / cold_tiled_best / 1e9,
        tiled_speedup: cold_row_best / cold_tiled_best,
    }
}

/// E18: whole-algorithm wall clock on both layouts (compiled once per layout,
/// re-executed per rep with in-place re-initialisation — the kernel layer and
/// the scheduler, not build cost, are what differs).
struct AlgLayoutBench {
    algorithm: &'static str,
    rowmajor_seconds: f64,
    tiled_seconds: f64,
    tiled_speedup: f64,
}

impl AlgLayoutBench {
    fn json(&self) -> String {
        format!(
            "{{\"algorithm\":\"{}\",\"rowmajor_seconds\":{:.6},\"tiled_seconds\":{:.6},\
\"tiled_speedup\":{:.3}}}",
            self.algorithm, self.rowmajor_seconds, self.tiled_seconds, self.tiled_speedup
        )
    }
}

/// Measures one algorithm on one layout: bind → compile once → (reinit,
/// execute) × reps, timing only the executions, best-of-reps.
fn bench_alg_on_layout(
    pool: &ThreadPool,
    built: &BuiltAlgorithm,
    pristine: &[Matrix],
    base: usize,
    layout: Layout,
    extras: ContextExtras,
    reps: usize,
) -> f64 {
    let mut mats: Vec<Matrix> = pristine.to_vec();
    let mut refs: Vec<&mut Matrix> = mats.iter_mut().collect();
    let (mut tiles, ctx) = bind_layout(&mut refs, base, layout, extras);
    let compiled = driver::compile(built, &ctx);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(2) {
        match layout {
            Layout::RowMajor => {
                for (m, p) in mats.iter_mut().zip(pristine) {
                    m.as_mut_slice().copy_from_slice(p.as_slice());
                }
            }
            Layout::Tiled => {
                for (t, p) in tiles.iter_mut().zip(pristine) {
                    t.pack_from(p);
                }
            }
        }
        let start = Instant::now();
        compiled.execute(pool).expect("timed run");
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn time_reps(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        let dt = start.elapsed().as_secs_f64();
        best = best.min(dt);
        total += dt;
    }
    (best, total / reps as f64)
}

/// Steals that crossed a level-1 cluster boundary (distance class ≥ 1).
fn cross_steals(by_distance: &[u64]) -> u64 {
    by_distance.iter().skip(1).sum()
}

/// Measures `work` on a freshly built flat (ring-stealing) pool, classifying
/// its steals by the machine's distance matrix.  The pool is dropped before
/// returning, so the next measurement starts with no idle workers around.
fn measure_flat(
    machine: &MachineTree,
    reps: usize,
    mut work: impl FnMut(&ThreadPool),
) -> Measurement {
    let pool = ThreadPool::with_topology(flat_topology_with_distances(machine));
    let before = pool.steals_by_distance();
    let (best_seconds, mean_seconds) = time_reps(reps, || work(&pool));
    let after = pool.steals_by_distance();
    let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    Measurement {
        best_seconds,
        mean_seconds,
        cross_cluster_steals: cross_steals(&delta),
        total_steals: delta.iter().sum(),
    }
}

/// Measures `work` on a freshly built anchored (nearest-cluster-first) pool.
fn measure_anchored(
    machine: &MachineTree,
    reps: usize,
    mut work: impl FnMut(&HierarchicalPool),
) -> Measurement {
    let pool = HierarchicalPool::new(machine.clone(), StealPolicy::NearestFirst);
    let before = pool.steals_by_distance();
    let (best_seconds, mean_seconds) = time_reps(reps, || work(&pool));
    let after = pool.steals_by_distance();
    let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    Measurement {
        best_seconds,
        mean_seconds,
        cross_cluster_steals: cross_steals(&delta),
        total_steals: delta.iter().sum(),
    }
}

/// A strand table that panics at one task while armed and does nothing
/// otherwise — the natural-panic probe for the fault-path measurements (no
/// `chaos` feature involved: the recovery machinery is always on).
struct FaultProbeTable {
    boom: u32,
    armed: AtomicBool,
}

impl TaskTable for FaultProbeTable {
    fn run_task(&self, task: u32) {
        if task == self.boom && self.armed.load(Ordering::Relaxed) {
            panic!("bench: injected fault at strand {task}");
        }
    }
}

/// E20: the robustness layer's costs.  A mid-run strand panic cancels the run
/// by *draining* to the completion latch — every remaining strand is claimed
/// but skipped — so a faulted run should return no slower than a clean one
/// (`drain_ratio` ≈ 1.0 or below is the claim; the fault path never adds a
/// second traversal).  `recovery_seconds` is the documented recovery
/// (`reset()` + rerun) back to a complete result, `deadline_trip_seconds` is
/// how long a run whose wall-clock budget is already blown takes to notice at
/// a claim boundary and drain out.  All of it runs without the `chaos` feature: the panic here is a
/// natural one, so this section also proves the fault path needs no harness.
struct FaultBench {
    graph_tasks: usize,
    /// Best clean execution of the probe graph (all fault machinery armed but
    /// unused — this is the happy-path cost of the fallible executor).
    clean_seconds: f64,
    /// Best faulted execution: strand panic at mid-graph, drain, `Err` return.
    drain_seconds: f64,
    /// `drain_seconds / clean_seconds`.
    drain_ratio: f64,
    /// Best `reset()` + clean rerun after a faulted run.
    recovery_seconds: f64,
    /// Best time for a run with an already-blown deadline to drain out.
    deadline_trip_seconds: f64,
}

impl FaultBench {
    fn json(&self) -> String {
        format!(
            "{{\"graph_tasks\":{},\"clean_seconds\":{:.6},\"drain_seconds\":{:.6},\
\"drain_ratio\":{:.3},\"recovery_seconds\":{:.6},\"deadline_trip_seconds\":{:.6}}}",
            self.graph_tasks,
            self.clean_seconds,
            self.drain_seconds,
            self.drain_ratio,
            self.recovery_seconds,
            self.deadline_trip_seconds
        )
    }
}

/// Measures the fault paths on the same wide layered empty-task DAG the
/// scheduler microbenchmarks use, with the bomb planted mid-graph.
fn bench_faults(workers: usize, reps: usize) -> FaultBench {
    let pool = ThreadPool::new(workers);
    let (layers, width) = (32u32, 128u32);
    let mut edges = Vec::new();
    for l in 1..layers {
        for w in 0..width {
            let task = l * width + w;
            edges.push(((l - 1) * width + w, task));
            edges.push(((l - 1) * width + (w + 1) % width, task));
        }
    }
    let tasks = (layers * width) as usize;
    let boom = (layers / 2) * width; // first strand of the middle layer
    let graph = Arc::new(CompiledGraph::from_edges(tasks, &edges, Vec::new()));
    let table = Arc::new(FaultProbeTable {
        boom,
        armed: AtomicBool::new(false),
    });
    let reps = reps.max(3);

    // Happy path through the fallible executor.
    let (clean_seconds, _) = time_reps(reps, || {
        graph.execute(&pool, &table).expect("clean run");
    });

    // The injected panics below would each print a backtrace through the
    // default hook — silence it so drain_seconds times the drain, not stderr.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // Drain latency: arm, fault, Err — reset between reps (documented
    // recovery; the drain already restores the counters, reset() is the
    // belt-and-suspenders the API prescribes).
    table.armed.store(true, Ordering::Relaxed);
    let (drain_seconds, _) = time_reps(reps, || {
        graph
            .execute(&pool, &table)
            .expect_err("armed probe must fault");
        graph.reset();
    });

    // Recovery: fault the graph, then time only reset + disarmed rerun.
    let mut recovery_best = f64::INFINITY;
    for _ in 0..reps {
        table.armed.store(true, Ordering::Relaxed);
        graph
            .execute(&pool, &table)
            .expect_err("armed probe must fault");
        table.armed.store(false, Ordering::Relaxed);
        let start = Instant::now();
        graph.reset();
        graph.execute(&pool, &table).expect("recovery run");
        recovery_best = recovery_best.min(start.elapsed().as_secs_f64());
    }
    std::panic::set_hook(prev_hook);

    // Deadline trip: the budget is blown before the first claim; the run must
    // notice at a claim boundary and drain straight out.
    table.armed.store(false, Ordering::Relaxed);
    let budget = RunBudget::with_deadline(Duration::from_nanos(1));
    let mut deadline_best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let err = graph
            .execute_with(&pool, &table, &budget)
            .expect_err("blown budget must trip");
        assert!(
            matches!(err, RunError::DeadlineExceeded { .. }),
            "expected DeadlineExceeded, got {err:?}"
        );
        deadline_best = deadline_best.min(start.elapsed().as_secs_f64());
        graph.reset();
    }

    FaultBench {
        graph_tasks: tasks,
        clean_seconds,
        drain_seconds,
        drain_ratio: drain_seconds / clean_seconds,
        recovery_seconds: recovery_best,
        deadline_trip_seconds: deadline_best,
    }
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let reps: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let base = 32.min(n);
    let cfg = AnchorConfig::default();

    let host = detect_host();
    let machine = host.machine();
    let workers = machine.processor_count();
    let layout = format!(
        "{:?}:{}L/{}p",
        host.source,
        host.config.cache_levels(),
        workers
    );
    eprintln!("exp_exec: n = {n}, base = {base}, reps = {reps}, host layout {layout}");

    // ------------------------------------------------------------------ MM ----
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);

    // Correctness cross-check first, each executor on its own short-lived pool.
    let mut c_flat = Matrix::zeros(n, n);
    {
        let pool = ThreadPool::new(workers);
        multiply_parallel(&pool, &a, &b, &mut c_flat, Mode::Nd, base);
    }
    {
        let pool = HierarchicalPool::new(machine.clone(), StealPolicy::NearestFirst);
        let mut c_hier = Matrix::zeros(n, n);
        multiply_anchored(&pool, &a, &b, &mut c_hier, base, &cfg);
        assert_eq!(
            c_flat.max_abs_diff(&c_hier),
            0.0,
            "executors disagree on MM — scheduling must not change results"
        );
    }

    // Each measurement line is printed as soon as it exists (a crash in a
    // later run must not lose earlier results) and also collected for the
    // BENCH_exec.json summary.
    let mut measurements = Vec::new();
    let mut record = |line: String| {
        println!("{line}");
        measurements.push(line);
    };
    let m = measure_flat(&machine, reps, |pool| {
        let mut c = Matrix::zeros(n, n);
        multiply_parallel(pool, &a, &b, &mut c, Mode::Nd, base);
        std::hint::black_box(&c);
    });
    record(measurement_json("mm", "flat-ws", &layout, workers, &m));

    let m = measure_anchored(&machine, reps, |pool| {
        let mut c = Matrix::zeros(n, n);
        multiply_anchored(pool, &a, &b, &mut c, base, &cfg);
        std::hint::black_box(&c);
    });
    record(measurement_json("mm", "nd-exec", &layout, workers, &m));

    // ------------------------------------------------------------ Cholesky ----
    let spd = Matrix::random_spd(n, 3);

    let mut l_flat = spd.clone();
    {
        let pool = ThreadPool::new(workers);
        cholesky_parallel(&pool, &mut l_flat, Mode::Nd, base);
    }
    {
        let pool = HierarchicalPool::new(machine.clone(), StealPolicy::NearestFirst);
        let mut l_hier = spd.clone();
        cholesky_anchored(&pool, &mut l_hier, base, &cfg);
        assert_eq!(
            l_flat.max_abs_diff(&l_hier),
            0.0,
            "executors disagree on Cholesky — scheduling must not change results"
        );
    }

    let m = measure_flat(&machine, reps, |pool| {
        let mut l = spd.clone();
        cholesky_parallel(pool, &mut l, Mode::Nd, base);
        std::hint::black_box(&l);
    });
    record(measurement_json(
        "cholesky", "flat-ws", &layout, workers, &m,
    ));

    let m = measure_anchored(&machine, reps, |pool| {
        let mut l = spd.clone();
        cholesky_anchored(pool, &mut l, base, &cfg);
        std::hint::black_box(&l);
    });
    record(measurement_json(
        "cholesky", "nd-exec", &layout, workers, &m,
    ));

    // ------------------------------------------------------------------ LU ----
    let lua = Matrix::random(n, n, 5);

    let mut lu_flat = lua.clone();
    {
        let pool = ThreadPool::new(workers);
        lu_parallel(&pool, &mut lu_flat, Mode::Nd, base);
    }
    {
        let pool = HierarchicalPool::new(machine.clone(), StealPolicy::NearestFirst);
        let mut lu_hier = lua.clone();
        lu_anchored(&pool, &mut lu_hier, base, &cfg);
        assert_eq!(
            lu_flat.max_abs_diff(&lu_hier),
            0.0,
            "executors disagree on LU — scheduling must not change results"
        );
    }

    let m = measure_flat(&machine, reps, |pool| {
        let mut a = lua.clone();
        lu_parallel(pool, &mut a, Mode::Nd, base);
        std::hint::black_box(&a);
    });
    record(measurement_json("lu", "flat-ws", &layout, workers, &m));

    let m = measure_anchored(&machine, reps, |pool| {
        let mut a = lua.clone();
        lu_anchored(pool, &mut a, base, &cfg);
        std::hint::black_box(&a);
    });
    record(measurement_json("lu", "nd-exec", &layout, workers, &m));

    // ------------------------------------------------------------- 2-D FW ----
    let d0 = random_digraph(n, 4, 6);

    let mut d_flat = d0.clone();
    {
        let pool = ThreadPool::new(workers);
        apsp_parallel(&pool, &mut d_flat, Mode::Nd, base);
    }
    {
        let pool = HierarchicalPool::new(machine.clone(), StealPolicy::NearestFirst);
        let mut d_hier = d0.clone();
        apsp_anchored(&pool, &mut d_hier, base, &cfg);
        assert_eq!(
            d_flat.max_abs_diff(&d_hier),
            0.0,
            "executors disagree on APSP — scheduling must not change results"
        );
    }

    let m = measure_flat(&machine, reps, |pool| {
        let mut d = d0.clone();
        apsp_parallel(pool, &mut d, Mode::Nd, base);
        std::hint::black_box(&d);
    });
    record(measurement_json("fw2d", "flat-ws", &layout, workers, &m));

    let m = measure_anchored(&machine, reps, |pool| {
        let mut d = d0.clone();
        apsp_anchored(pool, &mut d, base, &cfg);
        std::hint::black_box(&d);
    });
    record(measurement_json("fw2d", "nd-exec", &layout, workers, &m));

    // -------------------------------- tile-packed layout (E18) ----
    eprintln!("exp_exec: layout section (row-major vs tile-packed)");
    let mut gemm_layout = Vec::new();
    for b in [32usize, 64] {
        let bench = bench_gemm_layout(b, n, reps);
        eprintln!(
            "exp_exec: gemm base {b}²: warm row {:.2} / packed {:.2} / tiled {:.2} GFLOP/s \
             ({:.2}x); cold row {:.2} / tiled {:.2} GFLOP/s ({:.2}x)",
            bench.warm_rowmajor_gflops,
            bench.warm_rowmajor_packed_gflops,
            bench.warm_tiled_gflops,
            bench.warm_tiled_speedup,
            bench.rowmajor_gflops,
            bench.tiled_gflops,
            bench.tiled_speedup
        );
        gemm_layout.push(bench.json());
    }
    let layout_pool = ThreadPool::new(workers);
    let mut alg_layout = Vec::new();
    let alg_cases: Vec<(&'static str, BuiltAlgorithm, Vec<Matrix>, bool)> = vec![
        (
            "mm",
            build_mm(n, base, Mode::Nd, 1.0),
            vec![Matrix::zeros(n, n), a.clone(), b.clone()],
            false,
        ),
        (
            "cholesky",
            build_cholesky(n, base, Mode::Nd),
            vec![spd.clone()],
            false,
        ),
        ("lu", build_lu(n, base, Mode::Nd), vec![lua.clone()], true),
        (
            "fw2d",
            build_fw2d(n, base, Mode::Nd),
            vec![d0.clone()],
            false,
        ),
    ];
    for (algorithm, built, pristine, needs_pivots) in &alg_cases {
        let extras = || {
            if *needs_pivots {
                ContextExtras::Pivots(n)
            } else {
                ContextExtras::None
            }
        };
        let row = bench_alg_on_layout(
            &layout_pool,
            built,
            pristine,
            base,
            Layout::RowMajor,
            extras(),
            reps,
        );
        let tiled = bench_alg_on_layout(
            &layout_pool,
            built,
            pristine,
            base,
            Layout::Tiled,
            extras(),
            reps,
        );
        alg_layout.push(
            AlgLayoutBench {
                algorithm,
                rowmajor_seconds: row,
                tiled_seconds: tiled,
                tiled_speedup: row / tiled,
            }
            .json(),
        );
    }
    drop(layout_pool);
    for line in gemm_layout.iter().chain(alg_layout.iter()) {
        println!("{{\"experiment\":\"exp_exec\",\"section\":\"layout\",\"bench\":{line}}}");
    }

    // -------------------------------- LU / FW-2D rebuild-vs-reuse (E16) ----
    eprintln!("exp_exec: LU / FW-2D rebuild-vs-reuse (compiled drivers)");
    let fine_base = base.min(8);
    let reuse_pool = ThreadPool::new(workers);
    let mut algorithm_reuse = Vec::new();
    {
        let mut a = lua.clone();
        let ctx = ExecContext::with_pivots(&mut [&mut a], n);
        let bench = bench_algorithm_reuse(
            &reuse_pool,
            reps,
            "lu",
            || build_lu(n, fine_base, Mode::Nd),
            &ctx,
            || a.as_mut_slice().copy_from_slice(lua.as_slice()),
        );
        algorithm_reuse.push(bench.json());
    }
    {
        let mut d = d0.clone();
        let ctx = ExecContext::from_matrices(&mut [&mut d]);
        let bench = bench_algorithm_reuse(
            &reuse_pool,
            reps,
            "fw2d",
            || build_fw2d(n, fine_base, Mode::Nd),
            &ctx,
            || d.as_mut_slice().copy_from_slice(d0.as_slice()),
        );
        algorithm_reuse.push(bench.json());
    }
    for line in &algorithm_reuse {
        println!(
            "{{\"experiment\":\"exp_exec\",\"section\":\"algorithm_reuse\",\"bench\":{line}}}"
        );
    }

    // ----------------------------- DRS fire-rule frontend (E17) ----
    eprintln!("exp_exec: DRS frontend (fire-rule build vs access oracle, reuse)");
    let mut drs_frontend = Vec::new();
    {
        let mut c = Matrix::zeros(n, n);
        let mut am = a.clone();
        let mut bm = b.clone();
        let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
        let bench = bench_frontend(
            &reuse_pool,
            reps,
            "mm",
            || build_mm(n, fine_base, Mode::Nd, 1.0),
            &ctx,
            || c.as_mut_slice().fill(0.0),
        );
        drs_frontend.push(bench.json());
    }
    {
        let s = nd_linalg::lcs::random_sequence(n, 41);
        let t = nd_linalg::lcs::random_sequence(n, 42);
        let mut table = Matrix::zeros(n + 1, n + 1);
        let ctx = ExecContext::with_sequences(&mut [&mut table], s, t);
        let bench = bench_frontend(
            &reuse_pool,
            reps,
            "lcs",
            || build_lcs(n, fine_base, Mode::Nd),
            &ctx,
            || table.as_mut_slice().fill(0.0),
        );
        drs_frontend.push(bench.json());
    }
    drop(reuse_pool);
    for line in &drs_frontend {
        println!("{{\"experiment\":\"exp_exec\",\"section\":\"drs_frontend\",\"bench\":{line}}}");
    }

    // -------------------------------------------- scheduler hot path ----
    eprintln!("exp_exec: scheduler microbenchmarks (empty tasks + rebuild-vs-reuse)");
    let sched = bench_scheduler(workers, n, base, reps);
    let sched_json = sched.json();
    println!(
        "{{\"experiment\":\"exp_exec\",\"section\":\"scheduler\",\
\"workers\":{workers},\"scheduler\":{sched_json}}}"
    );

    // ----------------------------------------------- tracing (E19) ----
    eprintln!("exp_exec: tracing overhead + traced anchored MM");
    let trace_bench = bench_trace(&machine, workers, n, base, reps);
    let trace_json = trace_bench.json();
    println!(
        "{{\"experiment\":\"exp_exec\",\"section\":\"trace\",\
\"workers\":{workers},\"trace\":{trace_json}}}"
    );

    // ------------------------------------------------- faults (E20) ----
    eprintln!("exp_exec: fault paths (drain latency, recovery, deadline)");
    let fault_bench = bench_faults(workers, reps);
    let faults_json = fault_bench.json();
    println!(
        "{{\"experiment\":\"exp_exec\",\"section\":\"faults\",\
\"workers\":{workers},\"faults\":{faults_json}}}"
    );

    let file = format!(
        "{{\n  \"experiment\": \"exp_exec\",\n  \"n\": {n},\n  \"reps\": {reps},\n  \
\"workers\": {workers},\n  \"layout\": \"{layout}\",\n  \"measurements\": [\n    {}\n  ],\n  \
\"layouts\": {{\n    \"gemm\": [\n      {}\n    ],\n    \"algorithms\": [\n      {}\n    ]\n  }},\n  \
\"algorithm_reuse\": [\n    {}\n  ],\n  \"drs_frontend\": [\n    {}\n  ],\n  \
\"scheduler\": {sched_json},\n  \"trace\": {trace_json},\n  \"faults\": {faults_json}\n}}\n",
        measurements.join(",\n    "),
        gemm_layout.join(",\n      "),
        alg_layout.join(",\n      "),
        algorithm_reuse.join(",\n    "),
        drs_frontend.join(",\n    ")
    );
    std::fs::write("BENCH_exec.json", &file).expect("failed to write BENCH_exec.json");
    eprintln!("exp_exec: wrote BENCH_exec.json");
}
