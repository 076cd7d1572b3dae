//! # nd-trace — per-strand execution tracing and scheduler metrics
//!
//! Every claim this reproduction makes about the paper's scheduler —
//! nearest-cluster-first stealing, σ·M_i anchoring keeping strands near
//! their cache level — needs to be checkable against *where each strand
//! actually ran*.  This crate is the recorder: a low-overhead tracing sink
//! the `nd-runtime` executor threads through its pool and dataflow layers.
//!
//! * [`ring`] — one lock-free, fixed-capacity event ring per worker (plus
//!   one for external threads), owned by a per-pool [`Tracer`].  Recording
//!   is a relaxed sequence claim, four relaxed word stores, and one release
//!   store — no allocation, no locks; overflow overwrites the oldest events
//!   and counts them as dropped.  When no session is active the entire
//!   subsystem costs one relaxed load per potential event.
//! * [`event`] — the event schema: enqueue (which deque/group), claim,
//!   execute begin/end (with inline-tail-execution flag and steal
//!   distance), steal (thief, victim, distance class), latch re-arm, run
//!   boundaries.  Timestamps are nanoseconds since the tracer's single
//!   `Instant` epoch, calibrated at pool creation, so events merged across
//!   workers compare consistently.
//! * [`session`] — [`TraceSession`]: enable → run → `finish()` collects the
//!   window into a [`Trace`].
//! * [`trace`] — the collected [`Trace`]: time-sorted events, per-task side
//!   tables ([`TaskMeta`]: op kinds, pedigree nodes, anchor groups/levels,
//!   dependency edges), and derived [`TraceMetrics`] (per-worker
//!   busy/idle/steal time, steal-distance histogram, per-op-kind latency
//!   percentiles, queue-depth samples, critical-path estimate).
//! * [`export`] — Chrome `trace_event` JSON (open in Perfetto or
//!   `chrome://tracing`) and a compact metrics summary
//!   (one JSON object; `examples/trace_mm.rs` prints it).
//!
//! The event stream is deliberately the replay input format for the
//! ROADMAP's trace-driven scheduler simulator: each event carries enough to
//! re-run the schedule decision-for-decision.

#![warn(rust_2018_idioms)]
#![deny(missing_docs)]

pub mod event;
pub mod export;
pub mod ring;
pub mod session;
pub mod trace;

pub use event::{EventKind, QueueKind, TraceEvent, EXEC_FLAG_INLINE, NO_TASK};
pub use export::{chrome_trace_json, metrics_summary_json};
pub use ring::{Ring, Tracer};
pub use session::{TraceConfig, TraceSession, CAPACITY_ENV, DEFAULT_CAPACITY};
pub use trace::{OpLatency, TaskMeta, Trace, TraceMetrics, WorkerSummary};
