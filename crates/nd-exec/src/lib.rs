//! # nd-exec — the real hierarchy-aware space-bounded executor
//!
//! This crate is where the two halves of the paper finally meet.  `nd-sched`
//! *simulates* the space-bounded scheduler of Section 4 on a PMH model;
//! `nd-runtime` *really executes* algorithm DAGs, but with locality-blind flat
//! work stealing.  `nd-exec` runs the same
//! [`CompiledGraph`](nd_runtime::CompiledGraph)s on real threads **under the
//! paper's anchoring discipline**:
//!
//! 1. the host's memory hierarchy is detected (or synthesized) by
//!    [`nd_pmh::topology`] and instantiated as a
//!    [`MachineTree`](nd_pmh::machine::MachineTree);
//! 2. a [`HierarchicalPool`] lays a topology over
//!    `nd-runtime`'s work-stealing pool: workers are grouped into subclusters
//!    mirroring the machine tree, each subcluster gets its own task queue, and
//!    idle workers steal **nearest-cluster-first**;
//! 3. the [`anchor`] module reuses `nd-sched`'s `σ·M_i`-maximal task
//!    decomposition ([`StrandCosts`](nd_sched::cost::StrandCosts)) and
//!    allocation function `g_i(S)` to pin every task subtree to a subcluster
//!    ahead of execution;
//! 4. the [`execute`] module lowers the algorithm to the compiled graph
//!    form of `nd-algorithms::exec` (CSR successor arena, atomic
//!    counter claims, self-resetting counters — see `nd_runtime::dataflow`
//!    for the build → execute → reset → execute lifecycle) and routes each
//!    ready strand to its anchor's subcluster queue, so chains of dependent
//!    tasks stay inside the cache subtree that holds their working set.
//!    Inline tail-execution applies under anchoring too: a lone ready
//!    successor runs in place only when the finishing worker belongs to the
//!    successor's anchor group, otherwise it is routed to that group's queue.
//!
//! The result is the repository's *paper-faithful real execution path*: all
//! seven algorithms — MM, TRS, Cholesky, LCS, 1-D Floyd–Warshall, LU with
//! partial pivoting and 2-D Floyd–Warshall (APSP) — run end-to-end on the
//! anchored executor and the tests check their outputs bit-for-bit against
//! the serial kernels of `nd-linalg`.  The loop-blocked algorithms (LU,
//! FW-2D) get their spawn trees from the access-set builder of
//! `nd-algorithms`, so the same `σ·M_i`-maximal decomposition anchors them
//! too; LU's runtime pivots travel through a lock-free
//! [`PivotStore`](nd_linalg::PivotStore) ordered by the DAG.
//!
//! ```
//! use nd_exec::{AnchorConfig, HierarchicalPool, StealPolicy};
//! use nd_pmh::config::PmhConfig;
//! use nd_pmh::machine::MachineTree;
//! use nd_linalg::Matrix;
//!
//! // Two sockets of 2×2 workers — or use `HierarchicalPool::from_host()`.
//! let machine = MachineTree::build(&PmhConfig::experiment_machine(1));
//! let pool = HierarchicalPool::new(machine, StealPolicy::NearestFirst);
//! let a = Matrix::random(32, 32, 1);
//! let b = Matrix::random(32, 32, 2);
//! let mut c = Matrix::zeros(32, 32);
//! nd_exec::execute::multiply_anchored(&pool, &a, &b, &mut c, 8, &AnchorConfig::default());
//! // Bit-identical to the serial block kernel (same per-process SIMD/scalar
//! // dispatch); the textbook triple loop agrees to rounding.
//! assert!(c.max_abs_diff(&a.matmul(&b)) < 1e-12);
//! ```

#![warn(rust_2018_idioms)]
#![deny(missing_docs)]

pub mod anchor;
pub mod execute;
pub mod pool;

pub use anchor::{compute_anchoring, AnchorConfig, Anchoring};
pub use execute::{run_anchored, run_anchored_traced, HierExecStats};
pub use pool::{HierarchicalPool, StealPolicy};
