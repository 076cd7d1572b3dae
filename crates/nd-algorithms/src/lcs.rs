//! Longest Common Subsequence (LCS) — Section 3 and Figure 11 of the paper.
//!
//! The LCS dynamic-programming table is solved by a 2-way divide-and-conquer
//! algorithm: split the table into quadrants `X00, X01, X10, X11`; `X01` and `X10`
//! depend only on parts of `X00`'s boundary, and `X11` on parts of `X01`'s and
//! `X10`'s boundaries.  In the NP model the three stages are serialised and the span
//! is `Θ(n log n)`; in the ND model the fire constructs `HV⤳`, `VH⤳` and the
//! boundary types `H⤳` (a block feeding the block to its *right* through its last
//! column) and `V⤳` (feeding the block *below* through its last row) reduce the
//! span to the optimal `Θ(n)` — the wavefront order of Figure 11b.
//!
//! The rule tables are exactly Eqs. (18)–(21) of the paper (the `VH⤳` table is
//! spelled out against this module's spawn-tree layout, where the source of `VH⤳`
//! is the subtree containing `X00, X01, X10`):
//!
//! ```text
//! HV⤳ = { +○      H⤳ -○1○ ,  +○      V⤳ -○2○ }
//! VH⤳ = { +○2○1○  V⤳ -○   ,  +○2○2○  H⤳ -○   }
//! H⤳  = { +○1○2○1○ H⤳ -○1○1○ ,  +○2○ H⤳ -○1○2○2○ }
//! V⤳  = { +○1○2○2○ V⤳ -○1○1○ ,  +○2○ V⤳ -○1○2○1○ }
//! ```

use crate::common::{check_power_of_two_ratio, BlockOp, BuiltAlgorithm, Mode};
use crate::frontend::{build_program, FireProgram, OpRecorder};
use crate::{driver::run_once, exec::ExecContext};
use nd_core::fire::{FireRuleSpec, FireTable};
use nd_core::program::{Composition, Expansion, NdProgram};
use nd_linalg::Matrix;
use nd_runtime::dataflow::ExecStats;
use nd_runtime::ThreadPool;

/// One LCS task: a block of the dynamic-programming table, as 1-based half-open row
/// and column ranges.
#[derive(Clone, Copy, Debug)]
pub struct LcsTask {
    /// First row (inclusive, 1-based).
    pub i0: usize,
    /// Last row (exclusive).
    pub i1: usize,
    /// First column (inclusive, 1-based).
    pub j0: usize,
    /// Last column (exclusive).
    pub j1: usize,
}

impl LcsTask {
    fn rows(&self) -> usize {
        self.i1 - self.i0
    }
    fn cols(&self) -> usize {
        self.j1 - self.j0
    }
    fn quadrant(&self, qi: usize, qj: usize) -> LcsTask {
        let rm = self.i0 + self.rows() / 2;
        let cm = self.j0 + self.cols() / 2;
        LcsTask {
            i0: if qi == 0 { self.i0 } else { rm },
            i1: if qi == 0 { rm } else { self.i1 },
            j0: if qj == 0 { self.j0 } else { cm },
            j1: if qj == 0 { cm } else { self.j1 },
        }
    }
}

/// Registers the LCS fire types (`HV`, `VH`, `H`, `V`).
pub fn register_lcs_fire_types(fires: &mut FireTable) {
    fires.define(
        "H",
        vec![
            FireRuleSpec::fire(&[1, 2, 1], "H", &[1, 1]),
            FireRuleSpec::fire(&[2], "H", &[1, 2, 2]),
        ],
    );
    fires.define(
        "V",
        vec![
            FireRuleSpec::fire(&[1, 2, 2], "V", &[1, 1]),
            FireRuleSpec::fire(&[2], "V", &[1, 2, 1]),
        ],
    );
    fires.define(
        "HV",
        vec![
            FireRuleSpec::fire(&[], "H", &[1]),
            FireRuleSpec::fire(&[], "V", &[2]),
        ],
    );
    fires.define(
        "VH",
        vec![
            FireRuleSpec::fire(&[2, 1], "V", &[]),
            FireRuleSpec::fire(&[2, 2], "H", &[]),
        ],
    );
}

/// The LCS program over an `n × n` dynamic-programming table.
pub struct LcsProgram {
    /// Base-case block dimension.
    pub base: usize,
    /// NP or ND.
    pub mode: Mode,
    fires: FireTable,
    ops: OpRecorder,
}

impl LcsProgram {
    /// Creates the program with the LCS fire types registered.
    pub fn new(base: usize, mode: Mode) -> Self {
        let mut fires = FireTable::new();
        register_lcs_fire_types(&mut fires);
        fires.resolve();
        LcsProgram {
            base,
            mode,
            fires,
            ops: OpRecorder::new(),
        }
    }
}

impl FireProgram for LcsProgram {
    fn recorder(&self) -> &OpRecorder {
        &self.ops
    }
    fn mode(&self) -> Mode {
        self.mode
    }
}

impl NdProgram for LcsProgram {
    type Task = LcsTask;

    fn fire_table(&self) -> &FireTable {
        &self.fires
    }

    fn task_size(&self, t: &LcsTask) -> u64 {
        (t.rows() * t.cols()) as u64
    }

    fn expand(&self, t: &LcsTask) -> Expansion<LcsTask> {
        if t.rows() <= self.base {
            return self.ops.strand(
                2 * (t.rows() * t.cols()) as u64,
                (t.rows() * t.cols()) as u64,
                BlockOp::LcsBlock {
                    table: 0,
                    i0: t.i0,
                    i1: t.i1,
                    j0: t.j0,
                    j1: t.j1,
                },
            );
        }
        let x00 = Composition::task(t.quadrant(0, 0));
        let x01 = Composition::task(t.quadrant(0, 1));
        let x10 = Composition::task(t.quadrant(1, 0));
        let x11 = Composition::task(t.quadrant(1, 1));
        match self.mode {
            Mode::Np => Expansion::compose(Composition::Seq(vec![
                x00,
                Composition::par2(x01, x10),
                x11,
            ])),
            Mode::Nd => Expansion::compose(Composition::fire(
                Composition::fire(x00, self.fires.id("HV"), Composition::par2(x01, x10)),
                self.fires.id("VH"),
                x11,
            )),
        }
    }

    fn task_label(&self, t: &LcsTask) -> Option<String> {
        Some(format!("LCS({}x{})", t.rows(), t.cols()))
    }
}

/// Builds the spawn tree, DAG and operation table for an LCS instance on sequences
/// of length `n` (table matrix id 0, sized `(n+1) × (n+1)`).
pub fn build_lcs(n: usize, base: usize, mode: Mode) -> BuiltAlgorithm {
    check_power_of_two_ratio(n, base);
    let program = LcsProgram::new(base, mode);
    let root = LcsTask {
        i0: 1,
        i1: n + 1,
        j0: 1,
        j1: n + 1,
    };
    build_program(
        &program,
        root,
        format!("lcs-{}-n{}-b{}", mode.name(), n, base),
    )
}

/// Computes the LCS length of two equal-length sequences in parallel.  Returns the
/// LCS length and the executor statistics.
pub fn lcs_parallel(
    pool: &ThreadPool,
    s: &[u8],
    t: &[u8],
    mode: Mode,
    base: usize,
) -> (u64, ExecStats) {
    assert_eq!(
        s.len(),
        t.len(),
        "this driver expects equal-length sequences"
    );
    let n = s.len();
    let built = build_lcs(n, base, mode);
    let mut table = Matrix::zeros(n + 1, n + 1);
    let ctx = ExecContext::with_sequences(&mut [&mut table], s.to_vec(), t.to_vec());
    let stats = run_once(pool, &built, &ctx).expect("algorithm strand panicked");
    (table[(n, n)] as u64, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::work_span::{fit_power_law, WorkSpan};
    use nd_linalg::lcs::{lcs_naive, random_sequence};

    /// One compiled LCS graph recomputes the table (zeroed in place between
    /// runs) three times bit-identically, counters restored.
    #[test]
    fn compiled_lcs_reuse_is_bit_identical() {
        let pool = ThreadPool::new(4);
        let n = 64;
        let s = random_sequence(n, 71);
        let t = random_sequence(n, 72);
        let built = build_lcs(n, 16, Mode::Nd);
        let mut table = Matrix::zeros(n + 1, n + 1);
        let ctx = ExecContext::with_sequences(&mut [&mut table], s.clone(), t.clone());
        let reference = crate::driver::execute_reuse_rounds(
            &pool,
            &built,
            &ctx,
            &mut table,
            3,
            |table, _| table.as_mut_slice().fill(0.0),
            |table, _| table.clone(),
        );
        assert_eq!(reference[(n, n)] as u64, lcs_naive(&s, &t));
    }

    #[test]
    fn np_and_nd_share_leaves_and_work() {
        let np = build_lcs(64, 8, Mode::Np);
        let nd = build_lcs(64, 8, Mode::Nd);
        assert_eq!(np.dag.strand_count(), 64);
        assert_eq!(nd.dag.strand_count(), 64);
        assert_eq!(np.dag.work(), nd.dag.work());
        assert!(np.dag.is_acyclic());
        assert!(nd.dag.is_acyclic());
    }

    #[test]
    fn nd_span_is_smaller_and_linear() {
        let sizes = [32usize, 64, 128, 256];
        let spans = |mode: Mode| -> Vec<(f64, f64)> {
            sizes
                .iter()
                .map(|&n| {
                    let ws = WorkSpan::of_dag(&build_lcs(n, 8, mode).dag);
                    (n as f64, ws.span as f64)
                })
                .collect()
        };
        let np = spans(Mode::Np);
        let nd = spans(Mode::Nd);
        for (a, b) in np.iter().zip(nd.iter()) {
            assert!(b.1 <= a.1, "nd span must not exceed np span at n={}", a.0);
        }
        let (e_np, _) = fit_power_law(&np);
        let (e_nd, _) = fit_power_law(&nd);
        assert!(e_nd < e_np);
        assert!(
            e_nd < 1.2,
            "nd LCS span should be ~linear, got exponent {e_nd}"
        );
        assert!(
            e_np > 1.2,
            "np LCS span should carry a log factor, got {e_np}"
        );
    }

    #[test]
    fn nd_wavefront_width_exceeds_np() {
        let np = build_lcs(128, 8, Mode::Np);
        let nd = build_lcs(128, 8, Mode::Nd);
        assert!(nd.dag.max_ready_width() >= np.dag.max_ready_width());
    }

    #[test]
    fn parallel_lcs_matches_sequential() {
        let pool = ThreadPool::new(4);
        let s = random_sequence(128, 11);
        let t = random_sequence(128, 12);
        let expected = lcs_naive(&s, &t);
        for mode in [Mode::Np, Mode::Nd] {
            let (got, stats) = lcs_parallel(&pool, &s, &t, mode, 16);
            assert_eq!(got, expected, "{mode:?} LCS length mismatch");
            // At least one runnable task per 16x16 block (the NP DAG also carries
            // zero-work barrier vertices, so this is a lower bound).
            assert!(stats.tasks >= (128 / 16) * (128 / 16));
        }
    }

    #[test]
    fn parallel_lcs_with_tiny_base_case() {
        // Deep fire-rule recursion: every missing boundary dependency would corrupt
        // the table.
        let pool = ThreadPool::new(4);
        let s = random_sequence(64, 21);
        let t = random_sequence(64, 22);
        let expected = lcs_naive(&s, &t);
        let (got, _) = lcs_parallel(&pool, &s, &t, Mode::Nd, 2);
        assert_eq!(got, expected);
    }

    #[test]
    fn identical_sequences_have_full_length_lcs() {
        let pool = ThreadPool::new(2);
        let s = random_sequence(32, 33);
        let (got, _) = lcs_parallel(&pool, &s, &s, Mode::Nd, 8);
        assert_eq!(got, 32);
    }
}
