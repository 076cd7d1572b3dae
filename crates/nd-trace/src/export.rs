//! Trace exporters: Chrome `trace_event` JSON (loadable in Perfetto or
//! `chrome://tracing`) and a compact metrics summary for embedding into
//! benchmark reports.
//!
//! Both exporters build JSON by hand — the workspace's serde shim is not
//! needed for these two fixed shapes, and keeping `nd-trace` dependency-free
//! keeps it trivially always-compilable.

use crate::event::{EventKind, QueueKind, NO_TASK};
use crate::trace::Trace;
use std::fmt::Write as _;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microsecond timestamp with nanosecond precision, as Chrome's `ts` expects.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn u64_list(values: impl IntoIterator<Item = u64>) -> String {
    let items: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Renders the trace in Chrome `trace_event` JSON array format.
///
/// Execution and steal events become duration (`"ph":"X"`) events on their
/// worker's track; claims, enqueues, latch re-arms and run boundaries become
/// instant (`"ph":"i"`) events.  Execution spans carry the task id, operation
/// kind, pedigree node, steal distance, inline flag, and anchor group/level
/// in `args`, so the σ·M_i placement of every strand is inspectable span by
/// span.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.events.len() * 160 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    // Thread-name metadata rows: one per worker plus the external track.
    for w in 0..=trace.num_workers {
        let name = if w == trace.num_workers {
            "external".to_string()
        } else {
            format!("worker {w}")
        };
        let _ = writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{w},\
             \"args\":{{\"name\":\"{name}\"}}}},"
        );
    }
    let mut first = true;
    for e in &trace.events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let tid = e.worker;
        match e.kind {
            EventKind::Exec => {
                let name = if e.task == NO_TASK {
                    "job"
                } else {
                    trace.meta.op_kind_name(e.task).unwrap_or("task")
                };
                let steal_distance = i64::from(e.a) - 1; // −1 = not stolen
                let inline = e.b & crate::event::EXEC_FLAG_INLINE != 0;
                let task = i64::from(e.task as i32); // NO_TASK renders as −1
                let anchor_group = trace.meta.anchor_group(e.task).map(i64::from).unwrap_or(-1);
                let anchor_level = trace.meta.anchor_level(e.task);
                let node = trace.meta.home_node(e.task).map(i64::from).unwrap_or(-1);
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"exec\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"task\":{task},\"worker\":{tid},\
                     \"inline\":{inline},\"steal_distance\":{steal_distance},\
                     \"anchor_group\":{anchor_group},\"anchor_level\":{anchor_level},\
                     \"node\":{node}}}}}",
                    json_escape(name),
                    us(e.t0_ns),
                    us(e.duration_ns()),
                );
            }
            EventKind::Steal => {
                let _ = write!(
                    out,
                    "{{\"name\":\"steal\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"victim\":{},\"distance\":{}}}}}",
                    us(e.t0_ns),
                    us(e.duration_ns()),
                    e.a,
                    e.b,
                );
            }
            EventKind::Enqueue => {
                let queue = QueueKind::from_wire(e.a).map(|q| q.name()).unwrap_or("?");
                let task = i64::from(e.task as i32);
                let _ = write!(
                    out,
                    "{{\"name\":\"enqueue\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"task\":{task},\"queue\":\"{queue}\",\"group\":{}}}}}",
                    us(e.t0_ns),
                    e.b,
                );
            }
            EventKind::Fault => {
                let task = i64::from(e.task as i32);
                let fault_kind = match e.a {
                    0 => "panic",
                    1 => "deadline",
                    _ => "?",
                };
                let _ = write!(
                    out,
                    "{{\"name\":\"fault\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{},\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"task\":{task},\"fault\":\"{fault_kind}\"}}}}",
                    us(e.t0_ns),
                );
            }
            EventKind::Retry => {
                let task = i64::from(e.task as i32);
                let _ = write!(
                    out,
                    "{{\"name\":\"retry\",\"cat\":\"serve\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"task\":{task},\"attempt\":{},\"backoff_us\":{}}}}}",
                    us(e.t0_ns),
                    e.a,
                    e.b,
                );
            }
            EventKind::Breaker => {
                let state = match e.a {
                    0 => "closed",
                    1 => "open",
                    2 => "half_open",
                    _ => "?",
                };
                let _ = write!(
                    out,
                    "{{\"name\":\"breaker\",\"cat\":\"serve\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{},\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"state\":\"{state}\",\"key_hash\":{}}}}}",
                    us(e.t0_ns),
                    e.b,
                );
            }
            EventKind::Drain => {
                let phase = match e.a {
                    0 => "begin",
                    1 => "complete",
                    2 => "deadline_expired",
                    _ => "?",
                };
                let _ = write!(
                    out,
                    "{{\"name\":\"drain\",\"cat\":\"serve\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{},\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"phase\":\"{phase}\",\"in_flight\":{}}}}}",
                    us(e.t0_ns),
                    e.b,
                );
            }
            EventKind::Claim | EventKind::LatchReset | EventKind::RunBegin | EventKind::RunEnd => {
                let name = e.kind.name();
                let task = i64::from(e.task as i32);
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":1,\"tid\":{tid},\"args\":{{\"task\":{task},\"b\":{}}}}}",
                    us(e.t0_ns),
                    e.b,
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders the derived metrics as one compact JSON object (what
/// `examples/trace_mm.rs` prints beside the Chrome trace).
pub fn metrics_summary_json(trace: &Trace) -> String {
    let m = &trace.metrics;
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"events\": {}, \"dropped\": {}, \"wall_ns\": {}, \"exec_spans\": {}, \
         \"claims\": {}, \"inline_execs\": {}, \"steals\": {}, \"enqueues\": {}, \
         \"busy_ns_total\": {}, \"critical_path_ns\": {}, \"critical_path_tasks\": {}, \
         \"faults\": {}, \"retries\": {}, \"breaker_transitions\": {}, \
         \"drain_events\": {}",
        trace.events.len(),
        trace.dropped,
        trace.wall_ns,
        m.exec_spans,
        m.claims,
        m.inline_execs,
        m.steals,
        m.enqueues,
        m.busy_ns_total,
        m.critical_path_ns,
        m.critical_path_tasks,
        m.faults,
        m.retries,
        m.breaker_transitions,
        m.drain_events,
    );
    let _ = write!(
        out,
        ", \"steal_distance_histogram\": {}",
        u64_list(m.steal_distance_histogram.iter().copied())
    );
    let _ = write!(
        out,
        ", \"per_worker_tasks\": {}",
        u64_list(m.per_worker.iter().map(|w| w.tasks))
    );
    let _ = write!(
        out,
        ", \"per_worker_busy_ns\": {}",
        u64_list(m.per_worker.iter().map(|w| w.busy_ns))
    );
    let _ = write!(
        out,
        ", \"per_worker_idle_ns\": {}",
        u64_list(m.per_worker.iter().map(|w| w.idle_ns))
    );
    let _ = write!(
        out,
        ", \"per_worker_steal_ns\": {}",
        u64_list(m.per_worker.iter().map(|w| w.steal_ns))
    );
    out.push_str(", \"op_latency\": [");
    for (i, op) in m.op_latency.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"op\": \"{}\", \"count\": {}, \"total_ns\": {}, \"p50_ns\": {}, \
             \"p90_ns\": {}, \"p99_ns\": {}}}",
            json_escape(&op.op_kind),
            op.count,
            op.total_ns,
            op.p50_ns,
            op.p90_ns,
            op.p99_ns,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TraceEvent, NO_TASK};
    use crate::trace::{TaskMeta, Trace};

    fn sample_trace() -> Trace {
        let events = vec![
            TraceEvent {
                kind: EventKind::Enqueue,
                worker: 2,
                task: 0,
                t0_ns: 0,
                t1_ns: 0,
                a: QueueKind::Global as u16,
                b: 0,
            },
            TraceEvent {
                kind: EventKind::Claim,
                worker: 0,
                task: 0,
                t0_ns: 5,
                t1_ns: 5,
                a: 0,
                b: 0,
            },
            TraceEvent {
                kind: EventKind::Exec,
                worker: 0,
                task: 0,
                t0_ns: 5,
                t1_ns: 1500,
                a: 0,
                b: 0,
            },
            TraceEvent {
                kind: EventKind::Steal,
                worker: 1,
                task: NO_TASK,
                t0_ns: 8,
                t1_ns: 20,
                a: 0,
                b: 1,
            },
        ];
        let meta = TaskMeta {
            op_kinds: vec![0],
            op_kind_names: vec!["gemm".into()],
            anchor_groups: vec![3],
            anchor_levels: vec![1],
            home_nodes: vec![7],
            edges: vec![],
        };
        Trace::build(events, 0, 2, meta)
    }

    #[test]
    fn chrome_export_carries_span_args() {
        let json = chrome_trace_json(&sample_trace());
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"gemm\""));
        assert!(json.contains("\"steal_distance\":-1"));
        assert!(json.contains("\"anchor_group\":3"));
        assert!(json.contains("\"anchor_level\":1"));
        assert!(json.contains("\"node\":7"));
        assert!(json.contains("\"name\":\"steal\""));
        assert!(json.contains("\"queue\":\"global\""));
        // Microsecond conversion: 1495 ns span → "1.495".
        assert!(json.contains("\"dur\":1.495"));
    }

    #[test]
    fn metrics_summary_is_compact_and_complete() {
        let json = metrics_summary_json(&sample_trace());
        assert!(json.contains("\"exec_spans\": 1"));
        assert!(json.contains("\"claims\": 1"));
        assert!(json.contains("\"steals\": 1"));
        assert!(json.contains("\"steal_distance_histogram\": [0,1]"));
        assert!(json.contains("\"op_latency\": [{\"op\": \"gemm\""));
        assert!(json.contains("\"per_worker_busy_ns\": [1495,0]"));
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
