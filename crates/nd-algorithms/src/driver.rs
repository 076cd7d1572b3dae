//! The shared driver layer: build once → compile once → execute many.
//!
//! Every algorithm in this crate follows the same lifecycle — build the
//! spawn tree + DAG + operation table ([`BuiltAlgorithm`]), bind the runtime
//! data ([`ExecContext`]), lower to the compiled, reusable, allocation-free
//! graph form ([`CompiledAlgorithm`]), and execute (flat, or placed under
//! `nd-exec`'s anchoring).  This module is the one place that lifecycle is
//! written down; the per-algorithm `*_parallel` drivers, the anchored
//! wrappers of `nd-exec`, the `exp_exec` benchmark sections and the
//! graph-reuse test harnesses all go through it instead of each carrying
//! their own copy (which is what the `mm`/`trs`/`cholesky`/`lcs`/`fw1d`
//! modules did before LU and 2-D Floyd–Warshall joined the compiled path).

use crate::common::BuiltAlgorithm;
use crate::exec::{compile_algorithm_placed, CompiledAlgorithm, ExecContext, Layout};
use nd_linalg::getrf::PivotStore;
use nd_linalg::tile::TileMatrix;
use nd_linalg::Matrix;
use nd_runtime::dataflow::{ExecStats, Placement};
use nd_runtime::fault::RunError;
use nd_runtime::ThreadPool;
use nd_trace::{TaskMeta, Trace, TraceConfig, TraceSession};
use std::sync::Arc;

/// Lowers a built algorithm to its compiled form against `ctx` (no placement
/// constraints — the flat executor's fast path).
pub fn compile(built: &BuiltAlgorithm, ctx: &ExecContext) -> CompiledAlgorithm {
    compile_placed(built, ctx, Vec::new())
}

/// Lowers a built algorithm to its compiled form with per-task placement
/// constraints (the anchored executor of `nd-exec` routes every strand to its
/// subcluster this way).
pub fn compile_placed(
    built: &BuiltAlgorithm,
    ctx: &ExecContext,
    placement: Vec<Placement>,
) -> CompiledAlgorithm {
    compile_algorithm_placed(&built.dag, &built.ops, ctx, placement)
}

/// One-shot execution: compile and run once on the flat pool.  To amortise
/// construction, keep the [`CompiledAlgorithm`] from [`compile`] and
/// re-execute it.
///
/// # Errors
/// Returns [`RunError::Panicked`] if a strand panics; the run drains and the
/// matrices may hold partial results.
pub fn run_once(
    pool: &ThreadPool,
    built: &BuiltAlgorithm,
    ctx: &ExecContext,
) -> Result<ExecStats, RunError> {
    compile(built, ctx).execute(pool)
}

/// The full per-task trace side tables for a built + compiled algorithm:
/// the compiled form supplies operation kinds and dependency edges, the DAG
/// supplies the pedigree column (each strand's spawn-tree node — the paper's
/// pedigree coordinate).  Anchoring columns stay empty here; the anchored
/// executor of `nd-exec` fills them from its placement.
pub fn trace_meta(built: &BuiltAlgorithm, compiled: &CompiledAlgorithm) -> TaskMeta {
    let mut meta = compiled.trace_meta();
    meta.home_nodes = built
        .dag
        .vertex_ids()
        .map(|v| match built.dag.vertex(v).tree_node() {
            Some(node) => node.0,
            None => u32::MAX,
        })
        .collect();
    meta
}

/// One-shot **traced** execution on the flat pool: compiles `built`, runs it
/// under a [`TraceSession`] on the pool's tracer, and returns the execution
/// statistics together with the finished [`Trace`] (per-strand spans plus
/// derived scheduler metrics, side tables attached).  Tracing is enabled only
/// for the duration of the run; the capacity knob is read from
/// [`nd_trace::CAPACITY_ENV`].
///
/// # Errors
/// Returns [`RunError::Panicked`] if a strand panics.  The trace is finished
/// and returned either way — a faulted run's trace shows the caught fault
/// inline (an `EventKind::Fault` instant on the recording worker's track).
pub fn run_once_traced(
    pool: &ThreadPool,
    built: &BuiltAlgorithm,
    ctx: &ExecContext,
) -> (Result<ExecStats, RunError>, Trace) {
    let compiled = compile(built, ctx);
    let session = TraceSession::start(pool.tracer(), TraceConfig::from_env());
    let stats = compiled.execute(pool);
    let trace = session.finish_with_meta(trace_meta(built, &compiled));
    (stats, trace)
}

/// The non-matrix runtime state an algorithm binds besides its matrices.
pub enum ContextExtras {
    /// Matrices only (MM, TRS, Cholesky, 2-D Floyd–Warshall).
    None,
    /// The two LCS sequences.
    Sequences(Vec<u8>, Vec<u8>),
    /// A pre-sized pivot store of the given length (LU).
    Pivots(usize),
}

/// What [`run_once_on_layout`] returns: the execution statistics plus the
/// pivot store the run wrote into (empty unless the algorithm binds
/// [`ContextExtras::Pivots`]).
pub struct LayoutRun {
    /// The underlying dataflow execution statistics.
    pub stats: ExecStats,
    /// The context's pivot store after the run.
    pub pivots: Arc<PivotStore>,
}

/// Binds row-major matrices into a context on the chosen layout.  For
/// [`Layout::Tiled`] the matrices are packed into tile-packed storage with
/// tile dimension `tile`; the returned storage must outlive the context (the
/// context holds raw views into it).
pub fn bind_layout(
    mats: &mut [&mut Matrix],
    tile: usize,
    layout: Layout,
    extras: ContextExtras,
) -> (Vec<TileMatrix>, ExecContext) {
    match layout {
        Layout::RowMajor => {
            let ctx = match extras {
                ContextExtras::None => ExecContext::from_matrices(mats),
                ContextExtras::Sequences(s, t) => ExecContext::with_sequences(mats, s, t),
                ContextExtras::Pivots(len) => ExecContext::with_pivots(mats, len),
            };
            (Vec::new(), ctx)
        }
        Layout::Tiled => {
            let mut tiles: Vec<TileMatrix> =
                mats.iter().map(|m| TileMatrix::pack(m, tile)).collect();
            let mut refs: Vec<&mut TileMatrix> = tiles.iter_mut().collect();
            let ctx = match extras {
                ContextExtras::None => ExecContext::tiled(&mut refs),
                ContextExtras::Sequences(s, t) => {
                    ExecContext::tiled_with_sequences(&mut refs, s, t)
                }
                ContextExtras::Pivots(len) => ExecContext::tiled_with_pivots(&mut refs, len),
            };
            (tiles, ctx)
        }
    }
}

/// The layout knob: executes `built` once against row-major matrices on
/// either layout.  For [`Layout::Tiled`] the matrices are packed into
/// tile-packed storage (tile dimension `tile`, normally the algorithm's
/// base-case size so every base block is one contiguous slab), executed, and
/// unpacked back — so results land in `mats` on both layouts and can be
/// compared bit-for-bit.  All seven algorithms run through this entry point
/// (their extras are [`ContextExtras`]).
pub fn run_once_on_layout(
    pool: &ThreadPool,
    built: &BuiltAlgorithm,
    mats: &mut [&mut Matrix],
    tile: usize,
    layout: Layout,
    extras: ContextExtras,
) -> LayoutRun {
    let (tiles, ctx) = bind_layout(mats, tile, layout, extras);
    let stats = run_once(pool, built, &ctx).expect("algorithm strand panicked");
    for (tile_mat, m) in tiles.iter().zip(mats.iter_mut()) {
        tile_mat.unpack_into(m);
    }
    LayoutRun {
        stats,
        pivots: Arc::clone(&ctx.pivots),
    }
}

/// The shared build-once / execute-many harness: compiles `built` once, then
/// runs `rounds` executions on `pool`.  `data` is the driver-owned runtime
/// state the context's raw views point into (output matrix, DP table, …).
/// Before each round `reinit` restores it **in place** (the compiled table
/// holds raw views, so buffers must never be reallocated); after each round
/// `capture` snapshots the result.
///
/// Asserts, every round, that every task ran and that the dependency
/// counters were restored, and that each round's snapshot is **bit-identical**
/// to the first.  Returns the first snapshot for comparison against an
/// oracle.
///
/// # Panics
/// Panics if `rounds == 0`, if a round loses tasks or leaves counters
/// unrestored, or if any re-execution is not bit-identical.
pub fn execute_reuse_rounds<D, S, R, C>(
    pool: &ThreadPool,
    built: &BuiltAlgorithm,
    ctx: &ExecContext,
    data: &mut D,
    rounds: usize,
    mut reinit: R,
    mut capture: C,
) -> S
where
    S: PartialEq + std::fmt::Debug,
    R: FnMut(&mut D, usize),
    C: FnMut(&D, usize) -> S,
{
    let compiled = compile(built, ctx);
    let mut reference: Option<S> = None;
    for round in 0..rounds {
        reinit(data, round);
        let stats = compiled.execute(pool).expect("algorithm strand panicked");
        assert_eq!(
            stats.tasks,
            compiled.task_count(),
            "round {round}: every task must run"
        );
        assert!(
            compiled.counters_are_reset(),
            "round {round}: counters must be restored"
        );
        let snapshot = capture(data, round);
        match &reference {
            None => reference = Some(snapshot),
            Some(r) => assert_eq!(
                &snapshot, r,
                "round {round}: re-execution must be bit-identical"
            ),
        }
    }
    reference.expect("execute_reuse_rounds needs at least one round")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Mode;
    use crate::mm::build_mm;
    use nd_linalg::Matrix;

    /// The layout knob: the same built algorithm executed against row-major
    /// and tile-packed bindings must produce bit-identical results.
    #[test]
    fn layout_knob_is_bit_identical_for_mm() {
        let pool = ThreadPool::new(4);
        let n = 32;
        let base = 8;
        let built = build_mm(n, base, Mode::Nd, 1.0);
        let a = Matrix::random(n, n, 5);
        let b = Matrix::random(n, n, 6);
        let mut results = Vec::new();
        for layout in [Layout::RowMajor, Layout::Tiled] {
            let mut c = Matrix::zeros(n, n);
            let mut am = a.clone();
            let mut bm = b.clone();
            let run = run_once_on_layout(
                &pool,
                &built,
                &mut [&mut c, &mut am, &mut bm],
                base,
                layout,
                ContextExtras::None,
            );
            assert!(run.stats.tasks > 0);
            results.push(c);
        }
        assert_eq!(
            results[0].max_abs_diff(&results[1]),
            0.0,
            "layouts must agree bit-for-bit"
        );
    }

    #[test]
    fn reuse_rounds_detects_counters_and_identity() {
        let pool = ThreadPool::new(2);
        let n = 16;
        let built = build_mm(n, 8, Mode::Nd, 1.0);
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let mut c = Matrix::zeros(n, n);
        let mut am = a.clone();
        let mut bm = b.clone();
        let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
        let result = execute_reuse_rounds(
            &pool,
            &built,
            &ctx,
            &mut c,
            3,
            |c, _| c.as_mut_slice().fill(0.0),
            |c, _| c.clone(),
        );
        let mut expected = Matrix::zeros(n, n);
        nd_linalg::gemm::gemm_naive(&mut expected, &a, &b, 1.0, 0.0);
        assert!(result.max_abs_diff(&expected) < 1e-9);
    }
}
