//! Executing algorithm DAGs on the real runtime.
//!
//! The strands of a [`BuiltAlgorithm`](crate::common::BuiltAlgorithm) carry
//! indices into a table of [`BlockOp`]s; this module lowers the algorithm DAG
//! plus that table into the dataflow executor of `nd-runtime`.  [`compile_algorithm`] resolves every
//! block operation's `Rect`s into raw [`MatPtr`] views once, stores them in a
//! [`CompiledOp`] table, and builds a reusable [`CompiledGraph`] whose CSR
//! successor arena and atomic dependency counters are shared across
//! executions.  Strands dispatch by index through the enum — no heap-boxed
//! closure per strand, no per-task mutex — and the same [`CompiledAlgorithm`]
//! can be executed any number of times (build → execute → execute → …),
//! paying DRS + graph construction exactly once.  All seven algorithms run
//! this way, LU included: its runtime pivot vector lives in a lock-free
//! [`PivotStore`] ordered by the DAG.  The one-shot and anchored drivers of
//! [`crate::driver`] and `nd-exec` go through the same path.
//!
//! # Safety
//!
//! The block kernels of `nd-linalg` write through raw [`MatPtr`] views.  The safety
//! argument for calling them from concurrently running worker threads is the central
//! invariant of this repository: **the algorithm DAG produced by the DAG Rewriting
//! System orders every pair of conflicting block accesses**, and the dataflow
//! executor never starts a task before all of its predecessors have finished.  The
//! correctness tests in every algorithm module validate the invariant end-to-end by
//! comparing parallel results against the sequential reference kernels.

use crate::common::{BlockOp, Rect};
use nd_core::dag::AlgorithmDag;
use nd_linalg::getrf::{self, PivotStore};
use nd_linalg::matrix::{MatPtr, Matrix};
use nd_linalg::tile::{TileMatrix, TileSubView, TileView};
use nd_linalg::{fw, gemm, lcs, potrf, trsm};
use nd_runtime::dataflow::{
    CompiledGraph, ExecStats, PersistentRun, Placement, SteadyStats, TaskTable,
};
use nd_runtime::fault::{RunBudget, RunError};
use nd_runtime::pool::{with_pack_scratch, ThreadPool};
use std::sync::{Arc, OnceLock};

/// How an execution context's matrices are stored in memory.
///
/// The layout is a property of the *bound data*, not of the algorithm: the
/// same [`BuiltAlgorithm`](crate::common::BuiltAlgorithm) compiles against
/// either layout and produces bit-identical results (packing moves bytes,
/// never changes a floating-point operation).  `Tiled` is the cache-friendly choice the paper's locality
/// bounds assume: every base-case operand is one contiguous slab.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Layout {
    /// One row-major allocation per matrix; base-case blocks are strided views.
    RowMajor,
    /// Tile-packed (block-major) storage; tile-aligned base-case blocks are
    /// contiguous `b × b` slabs (see [`TileMatrix`]).
    Tiled,
}

/// One matrix of an execution context: a raw view in either layout.
#[derive(Clone, Copy)]
pub enum MatSlot {
    /// A strided row-major view.
    Row(MatPtr),
    /// A tile-addressed view of tile-packed storage.
    Tiled(TileView),
}

/// The runtime data an algorithm's block operations refer to.
#[derive(Clone)]
pub struct ExecContext {
    /// Raw views of the matrices (either layout), indexed by [`Rect::mat`].
    pub mats: Vec<MatSlot>,
    /// First sequence (LCS).
    pub seq_s: Arc<Vec<u8>>,
    /// Second sequence (LCS).
    pub seq_t: Arc<Vec<u8>>,
    /// Runtime pivot slots (LU); empty for every other algorithm.
    pub pivots: Arc<PivotStore>,
}

impl ExecContext {
    /// A context over row-major matrices only.
    pub fn from_matrices(mats: &mut [&mut Matrix]) -> Self {
        Self::with_pivots(mats, 0)
    }

    /// A context over row-major matrices plus the two LCS sequences.
    pub fn with_sequences(mats: &mut [&mut Matrix], s: Vec<u8>, t: Vec<u8>) -> Self {
        ExecContext {
            mats: mats
                .iter_mut()
                .map(|m| MatSlot::Row(m.as_ptr_view()))
                .collect(),
            seq_s: Arc::new(s),
            seq_t: Arc::new(t),
            pivots: Arc::new(PivotStore::new(0)),
        }
    }

    /// A context over row-major matrices plus a pre-sized pivot store of
    /// `piv_len` slots (LU: one slot per matrix column).
    pub fn with_pivots(mats: &mut [&mut Matrix], piv_len: usize) -> Self {
        ExecContext {
            mats: mats
                .iter_mut()
                .map(|m| MatSlot::Row(m.as_ptr_view()))
                .collect(),
            seq_s: Arc::new(Vec::new()),
            seq_t: Arc::new(Vec::new()),
            pivots: Arc::new(PivotStore::new(piv_len)),
        }
    }

    /// A context over tile-packed matrices only.
    pub fn tiled(mats: &mut [&mut TileMatrix]) -> Self {
        Self::tiled_with_pivots(mats, 0)
    }

    /// A context over tile-packed matrices plus the two LCS sequences.
    pub fn tiled_with_sequences(mats: &mut [&mut TileMatrix], s: Vec<u8>, t: Vec<u8>) -> Self {
        ExecContext {
            mats: mats
                .iter_mut()
                .map(|m| MatSlot::Tiled(m.as_tile_view()))
                .collect(),
            seq_s: Arc::new(s),
            seq_t: Arc::new(t),
            pivots: Arc::new(PivotStore::new(0)),
        }
    }

    /// A context over tile-packed matrices plus a pre-sized pivot store.
    pub fn tiled_with_pivots(mats: &mut [&mut TileMatrix], piv_len: usize) -> Self {
        ExecContext {
            mats: mats
                .iter_mut()
                .map(|m| MatSlot::Tiled(m.as_tile_view()))
                .collect(),
            seq_s: Arc::new(Vec::new()),
            seq_t: Arc::new(Vec::new()),
            pivots: Arc::new(PivotStore::new(piv_len)),
        }
    }

    /// Resolves a rectangle to a strided/contiguous [`MatPtr`] view.
    ///
    /// Row-major slots resolve to the classic strided block view.  Tiled
    /// slots resolve to a **contiguous tile base pointer** (stride = tile
    /// width) when the rectangle lies within one tile — the fast path every
    /// tile-aligned base case takes.
    ///
    /// # Panics
    /// Panics if a tiled slot's rectangle spans a tile seam (those operations
    /// must resolve through [`ExecContext::tile_view`] instead; `compile_op`
    /// does).
    fn block(&self, r: &Rect) -> MatPtr {
        match &self.mats[r.mat] {
            MatSlot::Row(m) => m.block(r.r, r.c, r.rows, r.cols),
            MatSlot::Tiled(v) => v.tile_block(r.r, r.c, r.rows, r.cols).unwrap_or_else(|| {
                panic!(
                    "block ({},{}) {}x{} of matrix {} spans a tile seam (tile = {}); \
                     tile-packed execution requires tile-aligned base-case blocks for this \
                     operation — bind the data with tile dimension == base-case size",
                    r.r,
                    r.c,
                    r.rows,
                    r.cols,
                    r.mat,
                    v.tile_dim()
                )
            }),
        }
    }

    /// `true` if this rectangle resolves to a contiguous single-tile view or
    /// a row-major block; `false` if it needs tile-seam addressing.
    fn spans_tile_seam(&self, r: &Rect) -> bool {
        match &self.mats[r.mat] {
            MatSlot::Row(_) => false,
            MatSlot::Tiled(v) => v.tile_block(r.r, r.c, r.rows, r.cols).is_none(),
        }
    }

    /// The tiled whole-matrix view of slot `mat`.
    ///
    /// # Panics
    /// Panics if the slot is row-major.
    fn tile_view(&self, mat: usize) -> TileView {
        match &self.mats[mat] {
            MatSlot::Tiled(v) => *v,
            MatSlot::Row(_) => panic!("matrix {mat} is row-major, not tile-packed"),
        }
    }
}

/// A block operation with its `Rect`s resolved into raw views — the
/// per-strand work unit dispatched by [`OpTable`].
///
/// `Copy`, pointer-sized fields only: a whole algorithm's strands live in one
/// flat `Vec<CompiledOp>` instead of one heap allocation per strand.
#[derive(Clone, Copy)]
pub enum CompiledOp {
    /// `C += α·A·B`.
    Gemm {
        /// Output view.
        c: MatPtr,
        /// Left operand view.
        a: MatPtr,
        /// Right operand view.
        b: MatPtr,
        /// Scale factor.
        alpha: f64,
    },
    /// `C += α·A·Bᵀ`.
    GemmNt {
        /// Output view.
        c: MatPtr,
        /// Left operand view.
        a: MatPtr,
        /// Right operand view (transposed when applied).
        b: MatPtr,
        /// Scale factor.
        alpha: f64,
    },
    /// Solve `T·X = B` in place in `B`.
    TrsmLower {
        /// Triangular view.
        t: MatPtr,
        /// Right-hand side view.
        b: MatPtr,
    },
    /// Solve `X·Lᵀ = B` in place in `B`.
    TrsmRightLt {
        /// Triangular view.
        l: MatPtr,
        /// Right-hand side view.
        b: MatPtr,
    },
    /// In-place Cholesky factorization of a block.
    Potrf {
        /// The block view.
        a: MatPtr,
    },
    /// In-place partially pivoted LU of a panel (pivot slots live on the
    /// [`OpTable`]).
    LuPanel {
        /// The panel view.
        a: MatPtr,
        /// First pivot-store slot owned by this panel.
        piv: usize,
    },
    /// [`CompiledOp::LuPanel`] on a tall panel of a tile-packed matrix (the
    /// panel spans a column of tiles, so it runs through tile addressing —
    /// same generic kernel body, bit-identical result).
    LuPanelTiled {
        /// Tile-addressed panel view.
        a: TileSubView,
        /// First pivot-store slot owned by this panel.
        piv: usize,
    },
    /// Applies a panel's row interchanges to a block column.
    LuRowSwap {
        /// The block-column view.
        a: MatPtr,
        /// First pivot-store slot of the owning panel.
        piv: usize,
        /// Number of interchanges.
        len: usize,
    },
    /// [`CompiledOp::LuRowSwap`] on a tall block column of a tile-packed
    /// matrix.
    LuRowSwapTiled {
        /// Tile-addressed block-column view.
        a: TileSubView,
        /// First pivot-store slot of the owning panel.
        piv: usize,
        /// Number of interchanges.
        len: usize,
    },
    /// Solve `L·X = B` in place in `B` (unit lower-triangular `L`).
    TrsmUnitLower {
        /// Unit-lower-triangular view.
        l: MatPtr,
        /// Right-hand side view.
        b: MatPtr,
    },
    /// [`CompiledOp::Lcs`] on a tile-packed table (boundary reads cross tile
    /// seams, so the block runs through tile addressing).
    LcsTiled {
        /// Tile-addressed whole-table view.
        view: TileView,
        /// First row (inclusive).
        i0: usize,
        /// Last row (exclusive).
        i1: usize,
        /// First column (inclusive).
        j0: usize,
        /// Last column (exclusive).
        j1: usize,
    },
    /// [`CompiledOp::Fw1d`] on a tile-packed table.
    Fw1dTiled {
        /// Tile-addressed whole-table view.
        view: TileView,
        /// First time step (inclusive).
        t0: usize,
        /// Last time step (exclusive).
        t1: usize,
        /// First cell (inclusive).
        i0: usize,
        /// Last cell (exclusive).
        i1: usize,
    },
    /// One block of the LCS table (sequences live on the [`OpTable`]).
    Lcs {
        /// Whole-table view.
        view: MatPtr,
        /// First row (inclusive).
        i0: usize,
        /// Last row (exclusive).
        i1: usize,
        /// First column (inclusive).
        j0: usize,
        /// Last column (exclusive).
        j1: usize,
    },
    /// One block of the 1-D Floyd–Warshall table.
    Fw1d {
        /// Whole-table view.
        view: MatPtr,
        /// First time step (inclusive).
        t0: usize,
        /// Last time step (exclusive).
        t1: usize,
        /// First cell (inclusive).
        i0: usize,
        /// Last cell (exclusive).
        i1: usize,
    },
    /// Min-plus block update `X = min(X, U + V)`.
    FwUpdate {
        /// Updated view.
        x: MatPtr,
        /// Row-panel view.
        u: MatPtr,
        /// Column-panel view.
        v: MatPtr,
    },
    /// A strand with no runtime effect.
    Nop,
}

impl CompiledOp {
    /// Display names of the operation kinds, indexed by
    /// [`CompiledOp::kind_index`] (the trace side tables use them to label
    /// execution spans per strand).
    pub const KIND_NAMES: &'static [&'static str] = &[
        "gemm",
        "gemm_nt",
        "trsm_lower",
        "trsm_right_lt",
        "potrf",
        "lu_panel",
        "lu_panel_tiled",
        "lu_row_swap",
        "lu_row_swap_tiled",
        "trsm_unit_lower",
        "lcs_tiled",
        "fw1d_tiled",
        "lcs",
        "fw1d",
        "fw_update",
        "nop",
    ];

    /// The operation's kind discriminant, an index into
    /// [`CompiledOp::KIND_NAMES`].
    pub fn kind_index(&self) -> u16 {
        match self {
            CompiledOp::Gemm { .. } => 0,
            CompiledOp::GemmNt { .. } => 1,
            CompiledOp::TrsmLower { .. } => 2,
            CompiledOp::TrsmRightLt { .. } => 3,
            CompiledOp::Potrf { .. } => 4,
            CompiledOp::LuPanel { .. } => 5,
            CompiledOp::LuPanelTiled { .. } => 6,
            CompiledOp::LuRowSwap { .. } => 7,
            CompiledOp::LuRowSwapTiled { .. } => 8,
            CompiledOp::TrsmUnitLower { .. } => 9,
            CompiledOp::LcsTiled { .. } => 10,
            CompiledOp::Fw1dTiled { .. } => 11,
            CompiledOp::Lcs { .. } => 12,
            CompiledOp::Fw1d { .. } => 13,
            CompiledOp::FwUpdate { .. } => 14,
            CompiledOp::Nop => 15,
        }
    }
}

/// The task table of one compiled algorithm: one [`CompiledOp`] per
/// graph task, dispatched by index through the enum.
pub struct OpTable {
    ops: Vec<CompiledOp>,
    seq_s: Arc<Vec<u8>>,
    seq_t: Arc<Vec<u8>>,
    pivots: Arc<PivotStore>,
    /// Scratch elements GEMM panel packing needs for the largest strided
    /// multiply in the table (0 = no strided multiply, packing never runs).
    /// Computed once at compile time; each worker's arena grows to it on the
    /// worker's first packed strand and is never touched by the allocator
    /// again.
    pack_len: usize,
}

impl TaskTable for OpTable {
    #[inline]
    fn run_task(&self, task: u32) {
        dispatch_op(
            self.ops[task as usize],
            &self.seq_s,
            &self.seq_t,
            &self.pivots,
            self.pack_len,
        );
    }

    #[inline]
    fn task_label(&self, task: u32) -> &'static str {
        CompiledOp::KIND_NAMES[self.ops[task as usize].kind_index() as usize]
    }
}

/// Runs one resolved block operation.
#[inline]
fn dispatch_op(op: CompiledOp, seq_s: &[u8], seq_t: &[u8], pivots: &PivotStore, pack_len: usize) {
    // SAFETY (for every unsafe kernel call below): the algorithm DAG orders
    // all conflicting block and pivot-slot accesses and the executor runs
    // each task after its predecessors — see the module-level safety section.
    match op {
        CompiledOp::Gemm { c, a, b, alpha } => unsafe {
            if op_pack_len(&op) == 0 {
                gemm::gemm_block(c, a, b, alpha)
            } else {
                with_pack_scratch(pack_len, |s| gemm::gemm_block_packed(c, a, b, alpha, s))
            }
        },
        CompiledOp::GemmNt { c, a, b, alpha } => unsafe {
            if op_pack_len(&op) == 0 {
                gemm::gemm_nt_block(c, a, b, alpha)
            } else {
                with_pack_scratch(pack_len, |s| gemm::gemm_nt_block_packed(c, a, b, alpha, s))
            }
        },
        CompiledOp::TrsmLower { t, b } => unsafe { trsm::trsm_lower_block_ptr(t, b) },
        CompiledOp::TrsmRightLt { l, b } => unsafe { trsm::trsm_right_lower_trans_block_ptr(l, b) },
        CompiledOp::Potrf { a } => unsafe { potrf::potrf_block_ptr(a) },
        CompiledOp::LuPanel { a, piv } => unsafe {
            let out = pivots.slice_mut(piv, a.cols());
            getrf::getrf_panel_block_into(a, out);
        },
        CompiledOp::LuPanelTiled { a, piv } => unsafe {
            // The tall panel spans a column of tiles.  Pack it into the
            // worker's scratch, factor the contiguous copy, and write it
            // back: copies are O(rows·b) tile-addressed accesses where
            // factoring in place would pay tile addressing on all
            // O(rows·b²) accesses — and copying changes no floating-point
            // operation, so pivots and factors stay bit-identical.
            use nd_linalg::MatView;
            let (rows, cols) = (MatView::rows(&a), MatView::cols(&a));
            with_pack_scratch(pack_len, |s| {
                for i in 0..rows {
                    for j in 0..cols {
                        s[i * cols + j] = a.get(i, j);
                    }
                }
                let panel = MatPtr::from_raw_parts(s.as_mut_ptr(), cols, rows, cols);
                let out = pivots.slice_mut(piv, cols);
                getrf::getrf_panel_block_into(panel, out);
                for i in 0..rows {
                    for j in 0..cols {
                        a.set(i, j, s[i * cols + j]);
                    }
                }
            });
        },
        CompiledOp::LuRowSwap { a, piv, len } => unsafe {
            getrf::swap_rows_block(a, pivots.slice(piv, len));
        },
        CompiledOp::LuRowSwapTiled { a, piv, len } => unsafe {
            getrf::swap_rows_block(a, pivots.slice(piv, len));
        },
        CompiledOp::TrsmUnitLower { l, b } => unsafe { getrf::trsm_unit_lower_block_ptr(l, b) },
        CompiledOp::Lcs {
            view,
            i0,
            i1,
            j0,
            j1,
        } => unsafe { lcs::lcs_block(view, seq_s, seq_t, i0, i1, j0, j1) },
        CompiledOp::LcsTiled {
            view,
            i0,
            i1,
            j0,
            j1,
        } => unsafe { lcs::lcs_block(view, seq_s, seq_t, i0, i1, j0, j1) },
        CompiledOp::Fw1d {
            view,
            t0,
            t1,
            i0,
            i1,
        } => unsafe { fw::fw1d_block(view, t0, t1, i0, i1) },
        CompiledOp::Fw1dTiled {
            view,
            t0,
            t1,
            i0,
            i1,
        } => unsafe { fw::fw1d_block(view, t0, t1, i0, i1) },
        CompiledOp::FwUpdate { x, u, v } => unsafe { fw::fw_update_block(x, u, v) },
        CompiledOp::Nop => {}
    }
}

/// Resolves one block operation against the runtime data.
fn compile_op(op: &BlockOp, ctx: &ExecContext) -> CompiledOp {
    match op {
        BlockOp::Gemm { c, a, b, alpha } => CompiledOp::Gemm {
            c: ctx.block(c),
            a: ctx.block(a),
            b: ctx.block(b),
            alpha: *alpha,
        },
        BlockOp::GemmNt { c, a, b, alpha } => CompiledOp::GemmNt {
            c: ctx.block(c),
            a: ctx.block(a),
            b: ctx.block(b),
            alpha: *alpha,
        },
        BlockOp::TrsmLower { t, b } => CompiledOp::TrsmLower {
            t: ctx.block(t),
            b: ctx.block(b),
        },
        BlockOp::TrsmRightLt { l, b } => CompiledOp::TrsmRightLt {
            l: ctx.block(l),
            b: ctx.block(b),
        },
        BlockOp::Potrf { a } => CompiledOp::Potrf { a: ctx.block(a) },
        BlockOp::LuPanel { a, piv } => {
            if ctx.spans_tile_seam(a) {
                CompiledOp::LuPanelTiled {
                    a: ctx.tile_view(a.mat).sub_view(a.r, a.c, a.rows, a.cols),
                    piv: *piv,
                }
            } else {
                CompiledOp::LuPanel {
                    a: ctx.block(a),
                    piv: *piv,
                }
            }
        }
        BlockOp::LuRowSwap { a, piv, len } => {
            if ctx.spans_tile_seam(a) {
                CompiledOp::LuRowSwapTiled {
                    a: ctx.tile_view(a.mat).sub_view(a.r, a.c, a.rows, a.cols),
                    piv: *piv,
                    len: *len,
                }
            } else {
                CompiledOp::LuRowSwap {
                    a: ctx.block(a),
                    piv: *piv,
                    len: *len,
                }
            }
        }
        BlockOp::TrsmUnitLower { l, b } => CompiledOp::TrsmUnitLower {
            l: ctx.block(l),
            b: ctx.block(b),
        },
        BlockOp::LcsBlock {
            table,
            i0,
            i1,
            j0,
            j1,
        } => match &ctx.mats[*table] {
            MatSlot::Row(m) => CompiledOp::Lcs {
                view: *m,
                i0: *i0,
                i1: *i1,
                j0: *j0,
                j1: *j1,
            },
            MatSlot::Tiled(v) => CompiledOp::LcsTiled {
                view: *v,
                i0: *i0,
                i1: *i1,
                j0: *j0,
                j1: *j1,
            },
        },
        BlockOp::Fw1dBlock {
            table,
            t0,
            t1,
            i0,
            i1,
        } => match &ctx.mats[*table] {
            MatSlot::Row(m) => CompiledOp::Fw1d {
                view: *m,
                t0: *t0,
                t1: *t1,
                i0: *i0,
                i1: *i1,
            },
            MatSlot::Tiled(v) => CompiledOp::Fw1dTiled {
                view: *v,
                t0: *t0,
                t1: *t1,
                i0: *i0,
                i1: *i1,
            },
        },
        BlockOp::FwUpdate { x, u, v } => CompiledOp::FwUpdate {
            x: ctx.block(x),
            u: ctx.block(u),
            v: ctx.block(v),
        },
        BlockOp::Nop => CompiledOp::Nop,
    }
}

/// An algorithm lowered to the reusable execution form: a compiled
/// graph (CSR arena + dependency counters) plus its operation table.
///
/// Build once with [`compile_algorithm`], then call
/// [`CompiledAlgorithm::execute`] as many times as needed — every execution
/// after the first skips DRS and graph construction entirely.  Note that the
/// block operations accumulate into the context's matrices, so re-running a
/// mutation-heavy algorithm (e.g. `C += A·B`) composes with whatever state the
/// previous run left behind; callers re-initialise the data between runs.
/// The operation table caches the context's raw [`MatPtr`] views, so the
/// matrices must stay alive and must never be reallocated (grown, replaced)
/// while the compiled algorithm exists — re-initialise them **in place**.
/// This is the same raw-view aliasing contract every executor in this
/// repository relies on (see the [`MatPtr`] type-level documentation).
pub struct CompiledAlgorithm {
    graph: Arc<CompiledGraph>,
    table: Arc<OpTable>,
    /// The persistent run state behind [`CompiledAlgorithm::execute_steady`],
    /// created on the first call (sized to that call's pool).
    runner: OnceLock<PersistentRun<OpTable>>,
}

impl CompiledAlgorithm {
    /// Executes the algorithm on a pool, blocking until every strand has run.
    /// The graph is left reset, ready for the next call.
    ///
    /// # Errors
    /// Returns [`RunError::Panicked`] if a strand panics; the run drains
    /// (remaining strands are claimed but not executed), the graph is left
    /// reset, and the error names the strand and its operation kind.  The
    /// matrices may hold partial results — re-initialise them before retrying.
    pub fn execute(&self, pool: &ThreadPool) -> Result<ExecStats, RunError> {
        self.graph.execute(pool, &self.table)
    }

    /// Like [`CompiledAlgorithm::execute`], with a per-run [`RunBudget`]
    /// (wall-clock deadline checked at every strand claim).
    ///
    /// # Errors
    /// Returns [`RunError::DeadlineExceeded`] if the budget expires mid-run,
    /// or [`RunError::Panicked`] if a strand panics.
    pub fn execute_with(
        &self,
        pool: &ThreadPool,
        budget: &RunBudget,
    ) -> Result<ExecStats, RunError> {
        self.graph.execute_with(pool, &self.table, budget)
    }

    /// Steady-state execution: like [`CompiledAlgorithm::execute`], but
    /// through a persistent run state created on the first call — every
    /// subsequent call performs **zero heap allocations** (the run state is
    /// re-armed in place, ready tasks are `(Arc, index)` pairs, GEMM packing
    /// reuses the per-worker scratch arenas, and the returned
    /// [`SteadyStats`] is `Copy`).
    ///
    /// # Panics
    /// Panics if called with a pool larger than the first call's pool (the
    /// per-worker state was sized to that).
    ///
    /// # Errors
    /// Returns [`RunError::Panicked`] if a strand panics; the run state and
    /// counters are left re-armed, so the next call executes normally.
    pub fn execute_steady(&self, pool: &ThreadPool) -> Result<SteadyStats, RunError> {
        self.runner
            .get_or_init(|| PersistentRun::new(&self.graph, &self.table, pool.num_threads()))
            .execute(pool)
    }

    /// Like [`CompiledAlgorithm::execute_steady`], with a per-run
    /// [`RunBudget`].
    ///
    /// # Errors
    /// Returns [`RunError::DeadlineExceeded`] if the budget expires mid-run,
    /// or [`RunError::Panicked`] if a strand panics.
    pub fn execute_steady_with(
        &self,
        pool: &ThreadPool,
        budget: &RunBudget,
    ) -> Result<SteadyStats, RunError> {
        self.runner
            .get_or_init(|| PersistentRun::new(&self.graph, &self.table, pool.num_threads()))
            .execute_with(pool, budget)
    }

    /// Scratch elements GEMM panel packing needs per worker (0 when every
    /// multiply operand is contiguous, e.g. on the tile-packed layout).
    /// Computed when the algorithm was compiled.
    pub fn pack_scratch_len(&self) -> usize {
        self.table.pack_len
    }

    /// Number of tasks (strands plus barrier vertices).
    pub fn task_count(&self) -> usize {
        self.graph.task_count()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// `true` if the dependency counters are at their initial values (always
    /// holds between executions).
    pub fn counters_are_reset(&self) -> bool {
        self.graph.counters_are_reset()
    }

    /// The compiled dependency graph (task indices equal DAG vertex indices).
    pub fn graph(&self) -> &Arc<CompiledGraph> {
        &self.graph
    }

    /// The operation table the graph executes against.  Exposed so callers
    /// that need a custom execution harness (e.g. a serving layer wrapping
    /// the table to inject deterministic faults on the production fault
    /// path) can drive [`CompiledGraph::execute_with`] themselves.
    pub fn op_table(&self) -> &Arc<OpTable> {
        &self.table
    }

    /// Per-task trace side tables this compiled form can supply by itself:
    /// operation kinds (from the operation table) and dependency edges (from
    /// the graph, for the critical-path estimate).  Pedigree and anchoring
    /// columns are filled in by [`crate::driver::trace_meta`] and the
    /// anchored executor, which hold the DAG and the placement.
    pub fn trace_meta(&self) -> nd_trace::TaskMeta {
        nd_trace::TaskMeta {
            op_kinds: self.table.ops.iter().map(|op| op.kind_index()).collect(),
            op_kind_names: CompiledOp::KIND_NAMES
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            edges: self.graph.edges(),
            ..nd_trace::TaskMeta::default()
        }
    }
}

/// Lowers an algorithm DAG plus its operation table into the reusable
/// execution form.
pub fn compile_algorithm(
    dag: &AlgorithmDag,
    ops: &[BlockOp],
    ctx: &ExecContext,
) -> CompiledAlgorithm {
    compile_algorithm_placed(dag, ops, ctx, Vec::new())
}

/// Like [`compile_algorithm`], with per-task placement constraints (the
/// anchored executor of `nd-exec` routes every strand to its subcluster this
/// way).
///
/// # Panics
/// Panics if `placement` is non-empty and its length differs from the DAG's
/// vertex count.
pub fn compile_algorithm_placed(
    dag: &AlgorithmDag,
    ops: &[BlockOp],
    ctx: &ExecContext,
    placement: Vec<Placement>,
) -> CompiledAlgorithm {
    let lowered = nd_runtime::lower::lower_dag(dag, placement);
    let compiled_ops: Vec<CompiledOp> = lowered
        .op_tags
        .iter()
        .map(|tag| match tag {
            Some(op) => compile_op(&ops[*op as usize], ctx),
            None => CompiledOp::Nop,
        })
        .collect();
    // The packing high-water mark: the largest scratch any strided multiply in
    // this table will ask its worker's arena for.  Known here — at compile
    // time — so steady-state execution never grows the arena more than once.
    let pack_len = compiled_ops.iter().map(op_pack_len).max().unwrap_or(0);
    CompiledAlgorithm {
        graph: Arc::new(lowered.graph),
        table: Arc::new(OpTable {
            ops: compiled_ops,
            seq_s: Arc::clone(&ctx.seq_s),
            seq_t: Arc::clone(&ctx.seq_t),
            pivots: Arc::clone(&ctx.pivots),
            pack_len,
        }),
        runner: OnceLock::new(),
    }
}

/// Scratch elements `op` will ask its worker's packing arena for; 0 when the
/// operation never packs.  The one predicate for "this op packs": the
/// compile-time high-water mark and [`dispatch_op`] both read it.
#[inline]
fn op_pack_len(op: &CompiledOp) -> usize {
    match op {
        // Only `B` is read in vector rows; a strided `A` goes to the kernel
        // as it is (see `gemm::gemm_block_packed`).
        CompiledOp::Gemm { c, a, b, .. } if !b.is_contiguous() => {
            gemm::gemm_pack_len(c.rows(), c.cols(), a.cols())
        }
        // The dot-product kernel streams rows of both operands.
        CompiledOp::GemmNt { a, b, .. } if !(a.is_contiguous() && b.is_contiguous()) => {
            a.rows() * a.cols() + b.rows() * b.cols()
        }
        CompiledOp::LuPanelTiled { a, .. } => {
            nd_linalg::MatView::rows(a) * nd_linalg::MatView::cols(a)
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::dag::AlgorithmDag;
    use nd_core::spawn_tree::NodeId;

    #[test]
    fn compiled_graph_preserves_shape() {
        let mut dag = AlgorithmDag::new();
        let a = dag.add_strand(NodeId(0), 1, 1, Some(0), "a".into());
        let bar = dag.add_barrier();
        let b = dag.add_strand(NodeId(1), 1, 1, Some(1), "b".into());
        dag.add_edge(a, bar);
        dag.add_edge(bar, b);
        let ops = vec![BlockOp::Nop, BlockOp::Nop];
        let mut m = Matrix::zeros(2, 2);
        let ctx = ExecContext::from_matrices(&mut [&mut m]);
        let compiled = compile_algorithm(&dag, &ops, &ctx);
        assert_eq!(compiled.task_count(), 3);
        assert_eq!(compiled.edge_count(), 2);
        assert!(compiled.graph().is_acyclic());
    }

    #[test]
    fn gemm_op_executes_on_pool() {
        let pool = ThreadPool::new(2);
        let a = Matrix::random(8, 8, 1);
        let b = Matrix::random(8, 8, 2);
        let mut c = Matrix::zeros(8, 8);
        let expected = a.matmul(&b);

        let mut am = a.clone();
        let mut bm = b.clone();
        let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
        let mut dag = AlgorithmDag::new();
        dag.add_strand(NodeId(0), 1, 1, Some(0), String::new());
        let ops = vec![BlockOp::Gemm {
            c: Rect::new(0, 0, 0, 8, 8),
            a: Rect::new(1, 0, 0, 8, 8),
            b: Rect::new(2, 0, 0, 8, 8),
            alpha: 1.0,
        }];
        compile_algorithm(&dag, &ops, &ctx).execute(&pool).unwrap();
        assert!(c.max_abs_diff(&expected) < 1e-12);
    }
}
