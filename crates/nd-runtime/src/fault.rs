//! nd-fault: the executor's failure story — typed run errors and run budgets.
//!
//! Until this module existed the runtime had no way to *report* failure: a
//! panicking strand unwound through the worker loop and silently killed that
//! worker, and `execute` could only return statistics or hang.  The two
//! pieces here close those holes:
//!
//! * [`RunError`] — what a graph execution returns instead of hanging or
//!   aborting: the panicked strand (task index, operation kind, payload), or
//!   the blown [`RunBudget`] deadline.  On error the run is *cancelled*:
//!   workers stop claiming work for it and the remaining tasks drain to the
//!   completion latch without executing, so the submitting thread always gets
//!   its `Err` back.  Recovery is `reset()` + re-execute (bit-identical to an
//!   unfaulted run; see `CompiledGraph::reset`).
//! * [`RunBudget`] — a per-run wall-clock deadline checked at claim
//!   boundaries (the same exactly-once point the dependency counters
//!   guarantee), so a runaway run degrades into a fast structural drain
//!   rather than unbounded occupancy.
//!
//! It also defines [`Priority`], the criticality label the serving layer
//! (`nd-serve`) attaches to tenants.
//!
//! The module is plain data; the enforcement lives at the dataflow
//! executor's claim sites.

use std::fmt;
use std::time::Duration;

/// Operation-kind label carried by [`RunError::Panicked`] when the task table
/// does not override [`TaskTable::task_label`](crate::dataflow::TaskTable::task_label).
pub const GENERIC_TASK_LABEL: &str = "task";

/// Why a graph execution failed.
///
/// Returned by every `execute` entry point (`CompiledGraph::execute`,
/// `PersistentRun::execute` and everything layered on them).  The run is fully drained before the error is returned: every
/// task was claimed exactly once (executed or skipped), the dependency
/// counters are back at their initial values, and the pool is fully usable.
/// Call `reset()` on the graph before re-executing — it re-asserts the
/// counters and clears the in-flight guard — and re-initialise the runtime
/// data the faulted run may have half-written; the re-run is then
/// bit-identical to an unfaulted run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A strand panicked.  The unwind was caught at the execution site, the
    /// worker survived, and the rest of the run was cancelled.
    Panicked {
        /// Graph index of the panicked task.
        task: u32,
        /// Operation kind of the panicked task (from
        /// [`TaskTable::task_label`](crate::dataflow::TaskTable::task_label);
        /// [`GENERIC_TASK_LABEL`] when the table carries no kinds).
        op_kind: &'static str,
        /// The panic payload, rendered to a string (`"<non-string panic
        /// payload>"` when the payload was not a string).
        payload: String,
    },
    /// The run's wall-clock [`RunBudget`] deadline passed before every task
    /// had been claimed.  Tasks claimed after the deadline are skipped, so
    /// the run drains structurally instead of finishing its work.
    DeadlineExceeded {
        /// The configured deadline.
        deadline: Duration,
        /// Wall-clock time from run start to the claim that noticed the
        /// overrun.
        elapsed: Duration,
    },
}

impl RunError {
    /// Renders a caught panic payload the way [`RunError::Panicked`] carries
    /// it: `&str` and `String` payloads verbatim, anything else as a fixed
    /// marker.
    pub fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        }
    }

    /// The graph task this error concerns ([`RunError::Panicked`] only).
    pub fn task(&self) -> Option<u32> {
        match self {
            RunError::Panicked { task, .. } => Some(*task),
            RunError::DeadlineExceeded { .. } => None,
        }
    }

    /// Stable wire discriminant, recorded in trace `Fault` events.
    pub fn kind_wire(&self) -> u16 {
        match self {
            RunError::Panicked { .. } => 0,
            RunError::DeadlineExceeded { .. } => 1,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panicked {
                task,
                op_kind,
                payload,
            } => {
                write!(f, "task {task} ({op_kind}) panicked: {payload}")
            }
            RunError::DeadlineExceeded { deadline, elapsed } => {
                write!(f, "run deadline of {deadline:?} exceeded after {elapsed:?}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Per-run resource limits, checked at claim boundaries.
///
/// The default budget is unbounded — `execute` without a budget behaves
/// exactly as before.  A deadline turns a run that overstays its wall-clock
/// allowance into [`RunError::DeadlineExceeded`]: the first claim past the
/// deadline cancels the run, and the remaining tasks drain to the latch
/// without executing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock allowance from run start; `None` = unbounded.
    pub deadline: Option<Duration>,
}

impl RunBudget {
    /// The unbounded budget (no deadline).
    pub const UNBOUNDED: RunBudget = RunBudget { deadline: None };

    /// A budget with the given wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        RunBudget {
            deadline: Some(deadline),
        }
    }
}

/// Criticality of a tenant's jobs in the serving layer.
///
/// `nd-serve` keeps one ready queue per priority and always dequeues the
/// `High` queue before the `Low` one, so a tenant's priority decides the
/// order in which admitted jobs reach the pool.  The pool itself runs every
/// job it is given and never consults a priority.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive work: dequeued before any `Low` job.
    High,
    /// Background work: dequeued only while no `High` job is ready.
    Low,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_error_renders_both_variants() {
        let p = RunError::Panicked {
            task: 7,
            op_kind: "gemm",
            payload: "boom".into(),
        };
        assert_eq!(p.to_string(), "task 7 (gemm) panicked: boom");
        assert_eq!(p.task(), Some(7));
        assert_eq!(p.kind_wire(), 0);
        let d = RunError::DeadlineExceeded {
            deadline: Duration::from_millis(5),
            elapsed: Duration::from_millis(9),
        };
        assert!(d.to_string().contains("deadline"));
        assert_eq!(d.task(), None);
        assert_eq!(d.kind_wire(), 1);
    }

    #[test]
    fn payload_string_handles_the_three_shapes() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(RunError::payload_string(&*s), "static");
        let o: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(RunError::payload_string(&*o), "owned");
        let n: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(RunError::payload_string(&*n), "<non-string panic payload>");
    }

    /// `RunError` must cross service/API boundaries: boxable into
    /// `Box<dyn Error + Send + Sync>` (the `anyhow`-style erased type) with
    /// the `Display` rendering intact, and convertible through `?`.
    #[test]
    fn run_error_crosses_an_erased_error_boundary() {
        fn serve() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
            Err(RunError::Panicked {
                task: 3,
                op_kind: "trsm",
                payload: "boundary".into(),
            })?; // `?` must auto-box via From<RunError>
            Ok(())
        }
        let boxed = serve().unwrap_err();
        assert_eq!(boxed.to_string(), "task 3 (trsm) panicked: boundary");
        // Downcast back to the typed error on the far side of the boundary.
        let typed = boxed.downcast::<RunError>().expect("downcasts back");
        assert_eq!(typed.task(), Some(3));
        // And the plain single-threaded erased form works too.
        let d: Box<dyn std::error::Error> = Box::new(RunError::DeadlineExceeded {
            deadline: Duration::from_millis(1),
            elapsed: Duration::from_millis(2),
        });
        assert!(d.to_string().contains("deadline"));
        assert!(d.source().is_none());
    }

    #[test]
    fn budget_constructors() {
        assert_eq!(RunBudget::default(), RunBudget::UNBOUNDED);
        assert_eq!(
            RunBudget::with_deadline(Duration::from_secs(1)).deadline,
            Some(Duration::from_secs(1))
        );
    }
}
