//! nd-model: exhaustive state-space model checking of the executor protocol.
//!
//! Everything `nd-runtime` ships rests on one concurrent protocol:
//! exactly-once task claiming via atomic dependency-counter decrement with
//! self-resetting counters, a counting latch for run completion, and a
//! first-fault-wins drain for cancellation.  This crate verifies that
//! protocol the way a stateright-style checker would — but in plain Rust
//! with no registry dependencies, consistent with the workspace's offline
//! shim policy:
//!
//! * [`dag`] enumerates every DAG shape up to 6 tasks (one representative
//!   per isomorphism class — 1, 2, 6, 31, 302, 5984 for n = 1..=6);
//! * [`state`] is the finite global state: counters, queues, latch, fault
//!   cell, and a per-worker program counter at the granularity of the real
//!   implementation's atomics;
//! * [`model`] is the transition system — take/steal, claim, work, successor
//!   decrement, latch countdown, reset — with the safety checks (no double
//!   claim, no claim of an unready task, no counter underflow, no torn
//!   result-slot write, counters bit-restored and latch released exactly
//!   once at quiescence) attached to the transitions that could commit them,
//!   plus deliberately-broken [`model::Mutation`]s proving the checker
//!   actually catches regressions;
//! * [`checker`] explores by memoized DFS (optionally pruned by worker
//!   symmetry) and extracts a counterexample path on any violation; liveness
//!   ("every ready strand is eventually claimed", "the drain terminates")
//!   reduces to vetting terminal states because the transition graph is
//!   acyclic;
//! * [`conformance`] closes the loop with the implementation: schedules
//!   sampled from the model replay through the real
//!   [`CompiledGraph`](nd_runtime::CompiledGraph) via
//!   [`ScheduleDriver`](nd_runtime::ScheduleDriver), checking that the claim
//!   order is accepted bit-identically and the fault partitions agree.
//!
//! The CI entry point is the `verify_model` binary, which runs the full
//! small-N sweep (every DAG shape × 1–3 workers × clean/panic/deadline) and
//! fails loudly, with the counterexample, on any violation.

pub mod checker;
pub mod conformance;
pub mod dag;
pub mod model;
pub mod state;

pub use checker::{check, CheckStats, Counterexample};
pub use conformance::{replay_through_executor, sample_schedule, Schedule};
pub use dag::{enumerate_dags, Dag};
pub use model::{Action, Config, Fault, Model, Mutation, Violation};
