//! Recursive matrix multiplication (MM) and multiply-subtract (MMS) — Section 2 of
//! the paper.
//!
//! `MM(A, B, C)` computes `C += α·A·B` by splitting every matrix into quadrants and
//! spawning eight recursive multiplies; the two multiplies that write the same
//! quadrant of `C` must be ordered.  In the NP model the eight subtasks are split
//! into two groups of four with a serial construct between them; in the ND model the
//! serial construct is replaced by a fire construct so that only the *matching*
//! writers are ordered.
//!
//! ## Fire-rule table
//!
//! The paper's Eq. (1) writes the rule set as `{ +○1○ MM⤳ -○1○, +○2○ MM⤳ -○2○ }`,
//! applying the same two rules at every nesting level.  Taken literally, that rule
//! set leaves the *cross-group* writers of the same `C` quadrant unordered (the last
//! contribution of the source group and the first contribution of the sink group
//! race on the same memory), which a real executor cannot tolerate.  We therefore
//! split the construct into two named types with explicit pedigrees:
//!
//! * `MMG` — the arrow between the two groups of four inside one MM task:
//!   `{ +○1○1○ MMP⤳ -○1○1○, +○1○2○ MMP⤳ -○1○2○, +○2○1○ MMP⤳ -○2○1○, +○2○2○ MMP⤳ -○2○2○ }`
//!   (matching positions in the two groups write the same `C` quadrant);
//! * `MMP` — the arrow between two MM tasks that write the same `C` block:
//!   `{ +○2○x○y○ MMP⤳ -○1○x○y○ }` for the four quadrant positions `x, y ∈ {1, 2}`
//!   (the *last* writer of each sub-quadrant in the source precedes the *first*
//!   writer of the same sub-quadrant in the sink; everything else follows from the
//!   tasks' internal `MMG` arrows).
//!
//! The span of both the NP and ND versions is Θ(n) (the chain of contributions to
//! any one element of `C`), but the ND DAG exposes strictly more ready parallelism —
//! the property the space-bounded scheduler exploits (Section 4).

use crate::common::{check_power_of_two_ratio, BlockOp, BuiltAlgorithm, Mode, Rect};
use crate::frontend::{build_program, FireProgram, OpRecorder};
use crate::{driver::run_once, exec::ExecContext};
use nd_core::fire::{FireRuleSpec, FireTable};
use nd_core::program::{Composition, Expansion, NdProgram};
use nd_linalg::Matrix;
use nd_runtime::ThreadPool;

/// One multiply task: `C += α·A·B` on the given blocks.
#[derive(Clone, Debug)]
pub struct MmTask {
    /// Output block.
    pub c: Rect,
    /// Left operand block.
    pub a: Rect,
    /// Right operand block.
    pub b: Rect,
}

/// Registers the MM fire types (`MMG`, `MMP`) into a fire table.
/// Shared with the TRS, Cholesky and other modules that contain MM subtasks.
pub fn register_mm_fire_types(fires: &mut FireTable) {
    fires.define(
        "MMG",
        vec![
            FireRuleSpec::fire(&[1, 1], "MMP", &[1, 1]),
            FireRuleSpec::fire(&[1, 2], "MMP", &[1, 2]),
            FireRuleSpec::fire(&[2, 1], "MMP", &[2, 1]),
            FireRuleSpec::fire(&[2, 2], "MMP", &[2, 2]),
        ],
    );
    fires.define(
        "MMP",
        vec![
            FireRuleSpec::fire(&[2, 1, 1], "MMP", &[1, 1, 1]),
            FireRuleSpec::fire(&[2, 1, 2], "MMP", &[1, 1, 2]),
            FireRuleSpec::fire(&[2, 2, 1], "MMP", &[1, 2, 1]),
            FireRuleSpec::fire(&[2, 2, 2], "MMP", &[1, 2, 2]),
        ],
    );
}

/// Builds the composition of one MM task's eight subtasks (shared with modules that
/// embed MM subtasks, e.g. TRS).  `wrap` lifts a sub-multiply into the caller's task
/// type.
pub fn mm_composition<T>(
    task: &MmTask,
    mode: Mode,
    fires: &FireTable,
    wrap: impl Fn(MmTask) -> Composition<T>,
) -> Composition<T> {
    let c = &task.c;
    let a = &task.a;
    let b = &task.b;
    let sub = |ci: usize, cj: usize, ak: usize, bk: usize| {
        wrap(MmTask {
            c: c.quadrant(ci, cj),
            a: a.quadrant(ci, ak),
            b: b.quadrant(bk, cj),
        })
    };
    // Group 1 uses the left half of A / top half of B (k = 0); group 2 the other.
    let group = |k: usize| {
        Composition::par2(
            Composition::par2(sub(0, 0, k, k), sub(0, 1, k, k)),
            Composition::par2(sub(1, 0, k, k), sub(1, 1, k, k)),
        )
    };
    match mode {
        Mode::Np => Composition::seq2(group(0), group(1)),
        Mode::Nd => Composition::fire(group(0), fires.id("MMG"), group(1)),
    }
}

/// Work of a base-case multiply on an `m × n × k` block.
pub fn mm_work(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

/// Size (distinct memory locations) of a multiply task.
pub fn mm_size(t: &MmTask) -> u64 {
    t.c.area() + t.a.area() + t.b.area()
}

/// The MM / MMS program: `C += α·A·B` with quadrant recursion down to `base`.
pub struct MmProgram {
    /// Base-case block dimension.
    pub base: usize,
    /// NP or ND.
    pub mode: Mode,
    /// Scale factor (use `-1.0` for the paper's MMS).
    pub alpha: f64,
    fires: FireTable,
    ops: OpRecorder,
}

impl MmProgram {
    /// Creates a program with the MM fire types registered.
    pub fn new(base: usize, mode: Mode, alpha: f64) -> Self {
        let mut fires = FireTable::new();
        register_mm_fire_types(&mut fires);
        fires.resolve();
        MmProgram {
            base,
            mode,
            alpha,
            fires,
            ops: OpRecorder::new(),
        }
    }
}

impl FireProgram for MmProgram {
    fn recorder(&self) -> &OpRecorder {
        &self.ops
    }
    fn mode(&self) -> Mode {
        self.mode
    }
}

impl NdProgram for MmProgram {
    type Task = MmTask;

    fn fire_table(&self) -> &FireTable {
        &self.fires
    }

    fn task_size(&self, t: &MmTask) -> u64 {
        mm_size(t)
    }

    fn expand(&self, t: &MmTask) -> Expansion<MmTask> {
        let d = t.c.rows;
        if d <= self.base {
            return self.ops.strand(
                mm_work(t.c.rows, t.c.cols, t.a.cols),
                mm_size(t),
                BlockOp::Gemm {
                    c: t.c,
                    a: t.a,
                    b: t.b,
                    alpha: self.alpha,
                },
            );
        }
        Expansion::compose(mm_composition(t, self.mode, &self.fires, Composition::task))
    }

    fn task_label(&self, t: &MmTask) -> Option<String> {
        Some(format!(
            "MM{}({}x{})",
            if self.alpha < 0.0 { "S" } else { "" },
            t.c.rows,
            t.c.cols
        ))
    }
}

/// Builds the spawn tree, DAG and operation table for `C += α·A·B` on `n × n`
/// matrices (matrix ids: `C = 0`, `A = 1`, `B = 2`) — through the fire-rule
/// frontend ([`crate::frontend::build_program`]), like every recursive
/// algorithm in this crate.
pub fn build_mm(n: usize, base: usize, mode: Mode, alpha: f64) -> BuiltAlgorithm {
    check_power_of_two_ratio(n, base);
    let program = MmProgram::new(base, mode, alpha);
    let root = MmTask {
        c: Rect::new(0, 0, 0, n, n),
        a: Rect::new(1, 0, 0, n, n),
        b: Rect::new(2, 0, 0, n, n),
    };
    build_program(
        &program,
        root,
        format!("mm-{}-n{}-b{}", mode.name(), n, base),
    )
}

/// Computes `C += A·B` in parallel on the pool using the given model and base case.
pub fn multiply_parallel(
    pool: &ThreadPool,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    mode: Mode,
    base: usize,
) {
    let n = c.rows();
    assert_eq!(a.rows(), n);
    assert_eq!(b.cols(), n);
    assert_eq!(a.cols(), b.rows());
    let built = build_mm(n, base, mode, 1.0);
    let mut a = a.clone();
    let mut b = b.clone();
    let ctx = ExecContext::from_matrices(&mut [c, &mut a, &mut b]);
    run_once(pool, &built, &ctx).expect("algorithm strand panicked");
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::work_span::WorkSpan;

    #[test]
    fn np_and_nd_have_identical_leaves_and_work() {
        for n in [16usize, 32] {
            let np = build_mm(n, 8, Mode::Np, 1.0);
            let nd = build_mm(n, 8, Mode::Nd, 1.0);
            assert_eq!(np.dag.strand_count(), nd.dag.strand_count());
            assert_eq!(np.dag.work(), nd.dag.work());
            assert_eq!(np.ops.len(), nd.ops.len());
            assert!(np.dag.is_acyclic());
            assert!(nd.dag.is_acyclic());
        }
    }

    #[test]
    fn nd_span_never_exceeds_np_span_and_exposes_more_parallelism() {
        let np = build_mm(32, 4, Mode::Np, 1.0);
        let nd = build_mm(32, 4, Mode::Nd, 1.0);
        let ws_np = WorkSpan::of_dag(&np.dag);
        let ws_nd = WorkSpan::of_dag(&nd.dag);
        assert!(ws_nd.span <= ws_np.span);
        assert!(nd.dag.max_ready_width() >= np.dag.max_ready_width());
    }

    #[test]
    fn spans_are_linear_in_n() {
        // With the base case fixed, span(2n) / span(n) ≈ 2 for both models (MM has
        // Θ(n) span in the NP model already).
        for mode in [Mode::Np, Mode::Nd] {
            let s16 = WorkSpan::of_dag(&build_mm(16, 4, mode, 1.0).dag).span as f64;
            let s32 = WorkSpan::of_dag(&build_mm(32, 4, mode, 1.0).dag).span as f64;
            let ratio = s32 / s16;
            assert!(
                (1.8..=2.4).contains(&ratio),
                "{mode:?}: span ratio {ratio} not ≈ 2"
            );
        }
    }

    #[test]
    fn leaf_count_matches_recursion() {
        let built = build_mm(32, 8, Mode::Nd, 1.0);
        // (32/8)^3 = 64 base multiplies.
        assert_eq!(built.ops.len(), 64);
        assert_eq!(built.dag.strand_count(), 64);
    }

    #[test]
    fn parallel_multiply_matches_reference() {
        let pool = ThreadPool::new(4);
        for mode in [Mode::Np, Mode::Nd] {
            let a = Matrix::random(64, 64, 1);
            let b = Matrix::random(64, 64, 2);
            let mut c = Matrix::random(64, 64, 3);
            let mut expected = c.clone();
            nd_linalg::gemm::gemm_naive(&mut expected, &a, &b, 1.0, 1.0);
            multiply_parallel(&pool, &a, &b, &mut c, mode, 16);
            assert!(
                c.max_abs_diff(&expected) < 1e-9,
                "{mode:?} parallel multiply diverged"
            );
        }
    }

    /// One compiled graph executed three times: the DRS + graph construction
    /// runs once, every re-execution is bit-identical, and the dependency
    /// counters are fully restored after each run.
    #[test]
    fn compiled_mm_reuse_is_bit_identical() {
        let pool = ThreadPool::new(4);
        let n = 32;
        let built = build_mm(n, 8, Mode::Nd, 1.0);
        let a = Matrix::random(n, n, 11);
        let b = Matrix::random(n, n, 12);
        let mut c = Matrix::zeros(n, n);
        let mut am = a.clone();
        let mut bm = b.clone();
        let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
        let reference = crate::driver::execute_reuse_rounds(
            &pool,
            &built,
            &ctx,
            &mut c,
            3,
            // Reset C in place (the compiled table holds raw views into it).
            |c, _| c.as_mut_slice().fill(0.0),
            |c, _| c.clone(),
        );
        let mut expected = Matrix::zeros(n, n);
        nd_linalg::gemm::gemm_naive(&mut expected, &a, &b, 1.0, 0.0);
        assert!(reference.max_abs_diff(&expected) < 1e-9);
    }

    #[test]
    fn mms_subtracts() {
        let pool = ThreadPool::new(2);
        let n = 32;
        let built = build_mm(n, 8, Mode::Nd, -1.0);
        let a = Matrix::random(n, n, 5);
        let b = Matrix::random(n, n, 6);
        let mut c = Matrix::random(n, n, 7);
        let mut expected = c.clone();
        nd_linalg::gemm::gemm_naive(&mut expected, &a, &b, -1.0, 1.0);
        let mut am = a.clone();
        let mut bm = b.clone();
        let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
        run_once(&pool, &built, &ctx).expect("algorithm strand panicked");
        assert!(c.max_abs_diff(&expected) < 1e-9);
    }
}
