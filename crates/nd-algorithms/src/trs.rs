//! The Triangular System Solver (TRS) — the paper's flagship example (Section 3,
//! Figures 6–8).
//!
//! `TRS(T, B)` solves `T·X = B` for a lower-triangular `T`, overwriting `B` with
//! `X`.  The 2-way divide-and-conquer recursion (Eq. 2) spawns two TRS subtasks on
//! the top half, two multiply-subtract (MMS) updates, and two TRS subtasks on the
//! bottom half.  In the NP model (Eq. 3) the halves are serialised and the span is
//! `Θ(n log n)`; in the ND model (Eq. 4) the serial constructs are replaced by the
//! typed fire constructs `TM⤳` and `2TM2T⤳` and the span drops to the optimal
//! `Θ(n)`.
//!
//! ## Fire-rule tables
//!
//! With the spawn-tree structure used here —
//!
//! ```text
//! TRS  = ( (TRS₀₀ TM⤳ MMS₁₀) ‖ (TRS₀₁ TM⤳ MMS₁₁) )  2TM2T⤳  ( TRS₁₀ ‖ TRS₁₁ )
//! MMS  = (4 multiplies ‖)  MMG⤳  (4 multiplies ‖)
//! ```
//!
//! the tables are (`+○` = source, `-○` = sink):
//!
//! * `TM` (a TRS producing `X`, an MMS reading `X` as its second operand) — exactly
//!   Eq. (8) of the paper:
//!   `{+111→111, +111→121, +121→112, +121→122, +21→211, +21→221, +22→212, +22→222}`,
//!   every rule recursing as `TM`.
//! * `2TM2T` — exactly Eq. (5): `{ +○1○2○ MT⤳ -○1○, +○2○2○ MT⤳ -○2○ }`.
//! * `MT` (an MMS finishing a block, a TRS solving on that block).  The paper's
//!   printed Eq. (8) block for `MT` is garbled in the source we reproduce from; the
//!   prose derivation ("the matrix updated by the source is the second argument in
//!   the sink") gives
//!   `{ +○2○1○1○ MT⤳ -○1○1○1○, +○2○1○2○ MT⤳ -○1○2○1○,
//!      +○2○2○1○ MMP⤳ -○1○1○2○, +○2○2○2○ MMP⤳ -○1○2○2○ }`:
//!   the final writer of each quadrant of the block precedes the sink subtask that
//!   consumes that quadrant (a TRS for the top quadrants, another MMS — hence the
//!   `MMP` pair type of [`crate::mm`] — for the bottom ones).
//! * `MMG` / `MMP` — the multiply types shared with [`crate::mm`].

use crate::common::{check_power_of_two_ratio, BlockOp, BuiltAlgorithm, Mode, Rect};
use crate::frontend::{build_program, FireProgram, OpRecorder};
use crate::mm::{mm_composition, mm_size, mm_work, register_mm_fire_types, MmTask};
use crate::{driver::run_once, exec::ExecContext};
use nd_core::fire::{FireRuleSpec, FireTable};
use nd_core::program::{Composition, Expansion, NdProgram};
use nd_linalg::Matrix;
use nd_runtime::ThreadPool;

/// A task of the TRS program.
#[derive(Clone, Debug)]
pub enum TrsTask {
    /// Solve `T·X = B` in place in `B`.
    Trs {
        /// Lower-triangular block of `T`.
        t: Rect,
        /// Right-hand-side block of `B` (overwritten with `X`).
        b: Rect,
    },
    /// `C -= A·B` (the MMS update).
    Mms(MmTask),
}

/// Registers the TRS fire types (`TM`, `MT`, `2TM2T`) plus the shared MM types.
pub fn register_trs_fire_types(fires: &mut FireTable) {
    register_mm_fire_types(fires);
    // TM: TRS source produces X, MMS sink reads X as its second operand (Eq. 8).
    fires.define(
        "TM",
        vec![
            FireRuleSpec::fire(&[1, 1, 1], "TM", &[1, 1, 1]),
            FireRuleSpec::fire(&[1, 1, 1], "TM", &[1, 2, 1]),
            FireRuleSpec::fire(&[1, 2, 1], "TM", &[1, 1, 2]),
            FireRuleSpec::fire(&[1, 2, 1], "TM", &[1, 2, 2]),
            FireRuleSpec::fire(&[2, 1], "TM", &[2, 1, 1]),
            FireRuleSpec::fire(&[2, 1], "TM", &[2, 2, 1]),
            FireRuleSpec::fire(&[2, 2], "TM", &[2, 1, 2]),
            FireRuleSpec::fire(&[2, 2], "TM", &[2, 2, 2]),
        ],
    );
    // 2TM2T: the arrow between the top half and the bottom half of a TRS (Eq. 5).
    fires.define(
        "2TM2T",
        vec![
            FireRuleSpec::fire(&[1, 2], "MT", &[1]),
            FireRuleSpec::fire(&[2, 2], "MT", &[2]),
        ],
    );
    // MT: MMS source finishes a block, TRS sink solves on it (prose derivation of
    // Eq. 8; see the module documentation).
    fires.define(
        "MT",
        vec![
            FireRuleSpec::fire(&[2, 1, 1], "MT", &[1, 1, 1]),
            FireRuleSpec::fire(&[2, 1, 2], "MT", &[1, 2, 1]),
            FireRuleSpec::fire(&[2, 2, 1], "MMP", &[1, 1, 2]),
            FireRuleSpec::fire(&[2, 2, 2], "MMP", &[1, 2, 2]),
        ],
    );
}

/// Work of a base-case triangular solve (`d × d` triangle, `d × e` right-hand side).
pub fn trs_work(d: usize, e: usize) -> u64 {
    (d * d * e) as u64
}

/// Size of a TRS task: the triangle of `T` plus the right-hand-side block.
pub fn trs_size(t: &Rect, b: &Rect) -> u64 {
    (t.rows * (t.rows + 1) / 2) as u64 + b.area()
}

/// The TRS program.
pub struct TrsProgram {
    /// Base-case block dimension.
    pub base: usize,
    /// NP or ND.
    pub mode: Mode,
    fires: FireTable,
    ops: OpRecorder,
}

impl TrsProgram {
    /// Creates a program with the TRS and MM fire types registered.
    pub fn new(base: usize, mode: Mode) -> Self {
        let mut fires = FireTable::new();
        register_trs_fire_types(&mut fires);
        fires.resolve();
        TrsProgram {
            base,
            mode,
            fires,
            ops: OpRecorder::new(),
        }
    }

    fn expand_trs(&self, t: &Rect, b: &Rect) -> Expansion<TrsTask> {
        let d = t.rows;
        if d <= self.base {
            return self.ops.strand(
                trs_work(d, b.cols),
                trs_size(t, b),
                BlockOp::TrsmLower { t: *t, b: *b },
            );
        }
        let t00 = t.quadrant(0, 0);
        let t10 = t.quadrant(1, 0);
        let t11 = t.quadrant(1, 1);
        let b00 = b.quadrant(0, 0);
        let b01 = b.quadrant(0, 1);
        let b10 = b.quadrant(1, 0);
        let b11 = b.quadrant(1, 1);
        let trs = |t: Rect, b: Rect| Composition::task(TrsTask::Trs { t, b });
        let mms = |c: Rect, a: Rect, b: Rect| Composition::task(TrsTask::Mms(MmTask { c, a, b }));

        // Top half: solve the top block rows, update the bottom block rows.
        // Bottom half: solve the bottom block rows.
        let pair0 = (trs(t00, b00), mms(b10, t10, b00));
        let pair1 = (trs(t00, b01), mms(b11, t10, b01));
        let bottom = Composition::par2(trs(t11, b10), trs(t11, b11));
        match self.mode {
            Mode::Np => Composition::seq2(
                Composition::par2(
                    Composition::seq2(pair0.0, pair0.1),
                    Composition::seq2(pair1.0, pair1.1),
                ),
                bottom,
            ),
            Mode::Nd => Composition::fire(
                Composition::par2(
                    Composition::fire(pair0.0, self.fires.id("TM"), pair0.1),
                    Composition::fire(pair1.0, self.fires.id("TM"), pair1.1),
                ),
                self.fires.id("2TM2T"),
                bottom,
            ),
        }
        .into_expansion()
    }

    fn expand_mms(&self, task: &MmTask) -> Expansion<TrsTask> {
        let d = task.c.rows;
        if d <= self.base {
            return self.ops.strand(
                mm_work(task.c.rows, task.c.cols, task.a.cols),
                mm_size(task),
                BlockOp::Gemm {
                    c: task.c,
                    a: task.a,
                    b: task.b,
                    alpha: -1.0,
                },
            );
        }
        Expansion::compose(mm_composition(task, self.mode, &self.fires, |t| {
            Composition::task(TrsTask::Mms(t))
        }))
    }
}

impl FireProgram for TrsProgram {
    fn recorder(&self) -> &OpRecorder {
        &self.ops
    }
    fn mode(&self) -> Mode {
        self.mode
    }
}

/// Small helper turning a composition into an expansion (keeps `expand_trs` tidy).
trait IntoExpansion<T> {
    fn into_expansion(self) -> Expansion<T>;
}

impl<T> IntoExpansion<T> for Composition<T> {
    fn into_expansion(self) -> Expansion<T> {
        Expansion::compose(self)
    }
}

impl NdProgram for TrsProgram {
    type Task = TrsTask;

    fn fire_table(&self) -> &FireTable {
        &self.fires
    }

    fn task_size(&self, t: &TrsTask) -> u64 {
        match t {
            TrsTask::Trs { t, b } => trs_size(t, b),
            TrsTask::Mms(m) => mm_size(m),
        }
    }

    fn expand(&self, t: &TrsTask) -> Expansion<TrsTask> {
        match t {
            TrsTask::Trs { t, b } => self.expand_trs(t, b),
            TrsTask::Mms(m) => self.expand_mms(m),
        }
    }

    fn task_label(&self, t: &TrsTask) -> Option<String> {
        Some(match t {
            TrsTask::Trs { t, .. } => format!("TRS({})", t.rows),
            TrsTask::Mms(m) => format!("MMS({})", m.c.rows),
        })
    }
}

/// Builds the spawn tree, DAG and operation table for `TRS(T, B)` with `T` an
/// `n × n` lower-triangular matrix and `B` an `n × n` right-hand side
/// (matrix ids: `T = 0`, `B = 1`).
pub fn build_trs(n: usize, base: usize, mode: Mode) -> BuiltAlgorithm {
    check_power_of_two_ratio(n, base);
    let program = TrsProgram::new(base, mode);
    let root = TrsTask::Trs {
        t: Rect::new(0, 0, 0, n, n),
        b: Rect::new(1, 0, 0, n, n),
    };
    build_program(
        &program,
        root,
        format!("trs-{}-n{}-b{}", mode.name(), n, base),
    )
}

/// Solves `T·X = B` in parallel, overwriting `b` with the solution.
pub fn solve_parallel(pool: &ThreadPool, t: &Matrix, b: &mut Matrix, mode: Mode, base: usize) {
    let n = t.rows();
    assert_eq!(t.cols(), n);
    assert_eq!(b.rows(), n);
    assert_eq!(b.cols(), n, "this driver expects a square right-hand side");
    let built = build_trs(n, base, mode);
    let mut tm = t.clone();
    let ctx = ExecContext::from_matrices(&mut [&mut tm, b]);
    run_once(pool, &built, &ctx).expect("algorithm strand panicked");
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::work_span::{fit_power_law, WorkSpan};

    #[test]
    fn np_and_nd_share_leaves_and_work() {
        let np = build_trs(32, 8, Mode::Np);
        let nd = build_trs(32, 8, Mode::Nd);
        assert_eq!(np.dag.strand_count(), nd.dag.strand_count());
        assert_eq!(np.dag.work(), nd.dag.work());
        assert!(np.dag.is_acyclic());
        assert!(nd.dag.is_acyclic());
    }

    /// One compiled TRS graph re-solves three right-hand sides (restored in
    /// place between runs) bit-identically, with counters fully restored.
    #[test]
    fn compiled_trs_reuse_is_bit_identical() {
        let pool = ThreadPool::new(4);
        let n = 32;
        let built = build_trs(n, 8, Mode::Nd);
        let t = Matrix::random_lower_triangular(n, 21);
        let b0 = Matrix::random(n, n, 22);
        let mut tm = t.clone();
        let mut b = b0.clone();
        let ctx = crate::exec::ExecContext::from_matrices(&mut [&mut tm, &mut b]);
        let reference = crate::driver::execute_reuse_rounds(
            &pool,
            &built,
            &ctx,
            &mut b,
            3,
            |b, _| b.as_mut_slice().copy_from_slice(b0.as_slice()),
            |b, _| b.clone(),
        );
        let mut expected = b0.clone();
        nd_linalg::trsm::trsm_lower_naive(&t, &mut expected);
        assert!(reference.max_abs_diff(&expected) < 1e-9);
    }

    #[test]
    fn nd_span_is_strictly_smaller() {
        let np = WorkSpan::of_dag(&build_trs(64, 8, Mode::Np).dag);
        let nd = WorkSpan::of_dag(&build_trs(64, 8, Mode::Nd).dag);
        assert!(nd.span < np.span, "nd {} vs np {}", nd.span, np.span);
        assert_eq!(nd.work, np.work);
    }

    #[test]
    fn span_shapes_match_the_paper() {
        // NP span grows like n·log n (fitted exponent noticeably above 1);
        // ND span grows like n (fitted exponent ≈ 1).
        let sizes = [16usize, 32, 64, 128];
        let spans = |mode: Mode| -> Vec<(f64, f64)> {
            sizes
                .iter()
                .map(|&n| {
                    let ws = WorkSpan::of_dag(&build_trs(n, 8, mode).dag);
                    (n as f64, ws.span as f64)
                })
                .collect()
        };
        let (e_np, _) = fit_power_law(&spans(Mode::Np));
        let (e_nd, _) = fit_power_law(&spans(Mode::Nd));
        assert!(e_nd < e_np, "nd exponent {e_nd} should be below np {e_np}");
        assert!(
            e_nd < 1.25,
            "nd TRS span should be ~linear in n, fitted exponent {e_nd}"
        );
        assert!(
            e_np > 1.15,
            "np TRS span should carry a log factor, fitted exponent {e_np}"
        );
    }

    #[test]
    fn parallel_solve_matches_sequential_nd() {
        let pool = ThreadPool::new(4);
        for mode in [Mode::Np, Mode::Nd] {
            let n = 64;
            let t = Matrix::random_lower_triangular(n, 3);
            let x_true = Matrix::random(n, n, 4);
            let b = t.matmul(&x_true);
            let mut x = b.clone();
            solve_parallel(&pool, &t, &mut x, mode, 16);
            assert!(
                x.max_abs_diff(&x_true) < 1e-8,
                "{mode:?} parallel TRS diverged: {}",
                x.max_abs_diff(&x_true)
            );
        }
    }

    #[test]
    fn parallel_solve_small_base_case_stresses_the_rule_tables() {
        // A small base case exercises several levels of fire-rule rewriting; any
        // missing dependency shows up as a numerical error here.
        let pool = ThreadPool::new(4);
        let n = 64;
        let t = Matrix::random_lower_triangular(n, 7);
        let x_true = Matrix::random(n, n, 8);
        let b = t.matmul(&x_true);
        let mut x = b.clone();
        solve_parallel(&pool, &t, &mut x, Mode::Nd, 4);
        assert!(x.max_abs_diff(&x_true) < 1e-8);
    }

    #[test]
    fn ready_width_is_larger_in_nd() {
        let np = build_trs(64, 8, Mode::Np);
        let nd = build_trs(64, 8, Mode::Nd);
        assert!(nd.dag.max_ready_width() >= np.dag.max_ready_width());
    }
}
