//! # Nested Dataflow
//!
//! Facade crate re-exporting the public API of every workspace member of the
//! Nested Dataflow (ND) model reproduction:
//!
//! * [`core`] — the ND programming model: pedigrees, fire rules, spawn trees, the
//!   DAG rewriting system, and the analysis metrics (work/span, `Q*`, `Q̂_α`,
//!   parallelizability).
//! * [`pmh`] — the Parallel Memory Hierarchy machine model, cache simulators, and
//!   host-topology detection.
//! * [`sched`] — space-bounded and work-stealing schedulers simulated on a PMH.
//! * [`runtime`] — a real multithreaded work-stealing runtime whose dataflow
//!   executor runs both NP and ND DAGs, optionally topology-aware.
//! * [`exec`] — the hierarchy-aware space-bounded executor: real execution under
//!   the paper's anchoring discipline on a pool shaped like the PMH.
//! * [`linalg`] — the dense linear-algebra and dynamic-programming kernel substrate.
//! * [`algorithms`] — the paper's algorithms (MM, TRS, Cholesky, LU, Floyd–Warshall,
//!   LCS) expressed in both the NP and ND models.
//! * [`trace`] — per-strand execution tracing for both executors: lock-free
//!   per-worker event rings, derived scheduler metrics, and Chrome-trace
//!   (Perfetto) export.  Zero-cost when disabled; see the README's
//!   "Tracing" quickstart.
//! * [`serve`] — the fault-tolerant multi-tenant serving layer: many tenants
//!   submitting algorithm jobs onto one shared pool, with a compiled-graph
//!   cache, per-tenant QoS envelopes, retry/backoff, per-graph circuit
//!   breakers, and graceful drain (see the README's "Serving" section).
//!
//! ## Quickstart: simulate, then really execute, one algorithm
//!
//! The paper's pipeline has two halves.  The *model* half unfolds an algorithm
//! into a spawn tree, rewrites its fire constructs into a DAG, and simulates
//! the space-bounded scheduler on a PMH; the *machine* half runs the same DAG
//! on real threads.  Both halves share one artifact — the
//! [`BuiltAlgorithm`](prelude::BuiltAlgorithm) — so comparing them is a few
//! lines:
//!
//! ```
//! use nested_dataflow::prelude::*;
//! use nested_dataflow::algorithms::trs::build_trs;
//! use nested_dataflow::exec::{AnchorConfig, HierarchicalPool, StealPolicy};
//! use nested_dataflow::linalg::Matrix;
//!
//! // One algorithm, built once: TRS (triangular solve), n = 64, base case 8,
//! // in the Nested Dataflow model.
//! let built = build_trs(64, 8, Mode::Nd);
//!
//! // ---- simulate: the space-bounded scheduler on a 2-socket PMH model ----
//! let config = PmhConfig::experiment_machine(2);
//! let machine = MachineTree::build(&config);
//! let sim = simulate_space_bounded(&built.tree, &built.dag, &machine, &SbConfig::default());
//! assert_eq!(sim.strands, built.dag.strand_count()); // every strand scheduled
//! assert!(sim.completion_time > 0.0);
//!
//! // ---- execute: the same DAG, for real, under the same anchoring rules ----
//! let pool = HierarchicalPool::new(MachineTree::build(&config), StealPolicy::NearestFirst);
//! let t = Matrix::random_lower_triangular(64, 1);
//! let x_true = Matrix::random(64, 64, 2);
//! let b = t.matmul(&x_true);
//! let mut x = b.clone();
//! nested_dataflow::exec::execute::solve_anchored(&pool, &t, &mut x, 8, &AnchorConfig::default());
//! assert!(x.max_abs_diff(&x_true) < 1e-7); // the real run solved the system
//! ```
//!
//! The flat (locality-blind) executor remains available through
//! [`runtime`]'s [`ThreadPool`](prelude::ThreadPool) and the `*_parallel`
//! drivers in [`algorithms`]; the `benchmark/` package's `bench` binary reports
//! the anchored-versus-flat ratio as `anchor.vs_flat_ratio`.

pub use nd_algorithms as algorithms;
pub use nd_core as core;
pub use nd_exec as exec;
pub use nd_linalg as linalg;
pub use nd_pmh as pmh;
pub use nd_runtime as runtime;
pub use nd_sched as sched;
pub use nd_serve as serve;
pub use nd_trace as trace;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use nd_algorithms::common::{BlockOp, BuiltAlgorithm, Mode, Rect};
    pub use nd_core::dag::AlgorithmDag;
    pub use nd_core::drs::DagRewriter;
    pub use nd_core::fire::{FireRule, FireRuleSpec, FireTable, FireType};
    pub use nd_core::pedigree::Pedigree;
    pub use nd_core::program::{Composition, Expansion, NdProgram};
    pub use nd_core::spawn_tree::{NodeId, SpawnTree};
    pub use nd_core::work_span::WorkSpan;
    pub use nd_exec::{AnchorConfig, HierarchicalPool, StealPolicy};
    pub use nd_pmh::config::PmhConfig;
    pub use nd_pmh::machine::MachineTree;
    pub use nd_pmh::topology::detect_host;
    pub use nd_runtime::pool::{PoolTopology, ThreadPool};
    pub use nd_sched::space_bounded::{simulate_space_bounded, SbConfig};
    pub use nd_sched::work_stealing::simulate_work_stealing;
    pub use nd_serve::{AlgoKind, JobOutcome, JobSpec, ServeConfig, Server, TenantConfig};
}
