//! Quickstart: the MAIN / F / G example of Figure 3 of the paper, plus a first real
//! parallel run of an ND algorithm.
//!
//! Run with `cargo run --release --example quickstart`.

use nested_dataflow::prelude::*;

/// The program of Figure 3: `MAIN() { F() FG⤳ G() }`, `F() { A() ; B() }`,
/// `G() { C() ; D() }`, with the single fire rule `+○ FG⤳ -○ = { +○1○ ; -○1○ }`
/// saying that only `A` (the first subtask of `F`) must precede `C` (the first
/// subtask of `G`).
#[derive(Clone, Debug)]
enum Task {
    Main,
    F,
    G,
    Strand(&'static str),
}

struct MainProgram {
    fires: FireTable,
}

impl MainProgram {
    fn new() -> Self {
        let mut fires = FireTable::new();
        fires.define("FG", vec![FireRuleSpec::full(&[1], &[1])]);
        fires.resolve();
        MainProgram { fires }
    }
}

impl NdProgram for MainProgram {
    type Task = Task;
    fn fire_table(&self) -> &FireTable {
        &self.fires
    }
    fn task_size(&self, _t: &Task) -> u64 {
        1
    }
    fn expand(&self, t: &Task) -> Expansion<Task> {
        use Composition::*;
        match t {
            Task::Main => Expansion::compose(Fire(
                Box::new(Leaf(Task::F)),
                self.fires.id("FG"),
                Box::new(Leaf(Task::G)),
            )),
            Task::F => {
                Expansion::compose(Seq(vec![Leaf(Task::Strand("A")), Leaf(Task::Strand("B"))]))
            }
            Task::G => {
                Expansion::compose(Seq(vec![Leaf(Task::Strand("C")), Leaf(Task::Strand("D"))]))
            }
            Task::Strand(name) => Expansion::strand(1, 1).with_label(*name),
        }
    }
}

fn main() {
    // ---- Part 1: the model -------------------------------------------------
    println!("== Figure 3: MAIN() {{ F() FG⤳ G() }} ==\n");
    let program = MainProgram::new();
    let tree = SpawnTree::unfold(&program, Task::Main);
    println!("Spawn tree:\n{}", tree.render(4));

    let dag = DagRewriter::new(&tree, program.fire_table()).build();
    let ws = WorkSpan::of_dag(&dag);
    println!(
        "Algorithm DAG: {} strands, {} edges",
        dag.strand_count(),
        dag.edge_count()
    );
    println!(
        "  A → C (the fire rule):        {}",
        dag.depends_transitively_by_label("A", "C")
    );
    println!(
        "  B → C (artificial, NP-only):  {}",
        dag.depends_transitively_by_label("B", "C")
    );
    println!(
        "  work = {}, span = {} (the NP version would have span 4)\n",
        ws.work, ws.span
    );

    // ---- Part 2: a real ND computation on the runtime ----------------------
    println!("== Triangular solve, NP vs ND, on the dataflow runtime ==\n");
    let n = 256;
    let base = 32;
    let pool = ThreadPool::with_available_parallelism();
    let t = nd_linalg::Matrix::random_lower_triangular(n, 1);
    let x_true = nd_linalg::Matrix::random(n, n, 2);
    let b = t.matmul(&x_true);

    for mode in [Mode::Np, Mode::Nd] {
        let built = nd_algorithms::trs::build_trs(n, base, mode);
        let ws = built.work_span();
        let mut x = b.clone();
        let start = std::time::Instant::now();
        nd_algorithms::trs::solve_parallel(&pool, &t, &mut x, mode, base);
        let elapsed = start.elapsed();
        let err = x.max_abs_diff(&x_true);
        println!(
            "  {:>2}: span = {:>9} (parallelism {:>6.1})   wall = {:>8.2?}   max |x - x*| = {:.2e}",
            mode.name(),
            ws.span,
            ws.parallelism(),
            elapsed,
            err
        );
    }
    println!(
        "\nThe ND span is Θ(n) versus Θ(n log n) for NP — `cargo run --release -p nd-bench --bin exp_spans` \
         runs the full sweeps (E1–E7; see PAPER.md's section map)."
    );
}
