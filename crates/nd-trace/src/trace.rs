//! The collected trace: sorted events, per-task side tables, and the derived
//! scheduler metrics.

use crate::event::{EventKind, TraceEvent, EXEC_FLAG_INLINE, NO_TASK};

/// Per-task side tables supplied by the layer that compiled the DAG.
///
/// The hot path records only task *indices*; everything a human (or the
/// replay simulator) wants to know about a task — its operation kind, its
/// spawn-tree pedigree, where the σ·M_i anchoring placed it — is looked up
/// here at collection time.  All vectors are indexed by task id and may be
/// shorter than the task count (missing entries mean "unknown"), so partial
/// metadata is always valid.
#[derive(Clone, Debug, Default)]
pub struct TaskMeta {
    /// Per-task operation kind, an index into `op_kind_names`.
    pub op_kinds: Vec<u16>,
    /// Display names of the operation kinds.
    pub op_kind_names: Vec<String>,
    /// Per-task spawn-tree node (the pedigree anchor); `u32::MAX` = unknown.
    pub home_nodes: Vec<u32>,
    /// Per-task anchored queue group; `u32::MAX` = unanchored (`Anywhere`).
    pub anchor_groups: Vec<u32>,
    /// Per-task cache level of the anchor (1-based); 0 = unanchored.
    pub anchor_levels: Vec<u8>,
    /// Dependency edges `(from, to)` of the executed graph, for the
    /// critical-path estimate.
    pub edges: Vec<(u32, u32)>,
}

impl TaskMeta {
    /// The operation-kind name of a task, if known.
    pub fn op_kind_name(&self, task: u32) -> Option<&str> {
        let k = *self.op_kinds.get(task as usize)? as usize;
        self.op_kind_names.get(k).map(|s| s.as_str())
    }

    /// The anchored queue group of a task, if known and anchored.
    pub fn anchor_group(&self, task: u32) -> Option<u32> {
        match self.anchor_groups.get(task as usize) {
            Some(&g) if g != u32::MAX => Some(g),
            _ => None,
        }
    }

    /// The cache level a task was anchored at (0 = unanchored/unknown).
    pub fn anchor_level(&self, task: u32) -> u8 {
        self.anchor_levels.get(task as usize).copied().unwrap_or(0)
    }

    /// The spawn-tree node of a task, if known.
    pub fn home_node(&self, task: u32) -> Option<u32> {
        match self.home_nodes.get(task as usize) {
            Some(&n) if n != u32::MAX => Some(n),
            _ => None,
        }
    }
}

/// Summary of one worker's activity over the traced window.
#[derive(Clone, Debug, Default)]
pub struct WorkerSummary {
    /// Tasks and boxed jobs this worker executed.
    pub tasks: u64,
    /// Of those, graph tasks reached by inline tail-execution.
    pub inline_execs: u64,
    /// Nanoseconds spent inside execution spans.
    pub busy_ns: u64,
    /// Nanoseconds spent in work-finding attempts that ended in a steal.
    pub steal_ns: u64,
    /// The rest of the traced window (parked or scanning empty queues).
    pub idle_ns: u64,
    /// Successful steals performed by this worker.
    pub steals: u64,
}

/// Latency distribution of one operation kind.
#[derive(Clone, Debug)]
pub struct OpLatency {
    /// Operation-kind name (from [`TaskMeta::op_kind_names`], or a
    /// placeholder for unknown kinds).
    pub op_kind: String,
    /// Execution spans observed.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
    /// 50th-percentile span, nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile span, nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile span, nanoseconds.
    pub p99_ns: u64,
}

/// Metrics derived from the merged event stream at collection time.
#[derive(Clone, Debug, Default)]
pub struct TraceMetrics {
    /// Execution spans (graph tasks + boxed jobs).
    pub exec_spans: u64,
    /// Graph-task claims (each task's exactly-once point).
    pub claims: u64,
    /// Execution spans reached by inline tail-execution.
    pub inline_execs: u64,
    /// Successful steals.
    pub steals: u64,
    /// Enqueue events.
    pub enqueues: u64,
    /// Steals bucketed by the topology's distance class.
    pub steal_distance_histogram: Vec<u64>,
    /// One summary per worker (the external ring is excluded).
    pub per_worker: Vec<WorkerSummary>,
    /// Latency percentiles per operation kind, sorted by total time
    /// descending.
    pub op_latency: Vec<OpLatency>,
    /// `(t_ns, depth)` samples of the enqueued-but-not-yet-running count,
    /// uniformly spaced over the traced window.
    pub queue_depth_samples: Vec<(u64, u32)>,
    /// Length of the heaviest dependency chain, by measured span durations
    /// (needs [`TaskMeta::edges`]; without them, the longest single span).
    pub critical_path_ns: u64,
    /// Tasks on that chain.
    pub critical_path_tasks: u32,
    /// Sum of all execution spans (total busy time).
    pub busy_ns_total: u64,
    /// Run faults observed (caught strand panics + blown deadlines).
    pub faults: u64,
    /// Serving-layer retry re-queues (a faulted job scheduled for rerun).
    pub retries: u64,
    /// Serving-layer circuit-breaker state transitions.
    pub breaker_transitions: u64,
    /// Serving-layer drain milestones (begin / complete / deadline expired).
    pub drain_events: u64,
}

/// A finished trace: the merged, time-sorted event stream plus side tables
/// and derived metrics.  This is also the replay input the ROADMAP's
/// trace-driven simulator consumes: events carry everything needed to re-run
/// the schedule decision-for-decision.
#[derive(Debug, Default)]
pub struct Trace {
    /// All collected events, sorted by `(t0_ns, t1_ns)`.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound (oldest-first overwrite) or torn slots.
    pub dropped: u64,
    /// Workers in the traced pool.
    pub num_workers: usize,
    /// Span of the traced window: `max t1 - min t0` over all events.
    pub wall_ns: u64,
    /// Per-task side tables.
    pub meta: TaskMeta,
    /// Derived metrics.
    pub metrics: TraceMetrics,
}

/// How many uniformly spaced queue-depth samples to derive.
const DEPTH_SAMPLES: usize = 64;

impl Trace {
    /// Builds a trace from raw collected events: sorts them and derives the
    /// metrics.
    pub fn build(
        mut events: Vec<TraceEvent>,
        dropped: u64,
        num_workers: usize,
        meta: TaskMeta,
    ) -> Self {
        events.sort_by_key(|e| (e.t0_ns, e.t1_ns));
        let wall_ns = match (events.first(), events.iter().map(|e| e.t1_ns).max()) {
            (Some(first), Some(max_t1)) => max_t1.saturating_sub(first.t0_ns),
            _ => 0,
        };
        let metrics = derive_metrics(&events, num_workers, wall_ns, &meta);
        Trace {
            events,
            dropped,
            num_workers,
            wall_ns,
            meta,
            metrics,
        }
    }

    /// Events of one kind.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }
}

fn percentile(sorted_ns: &[u64], p: usize) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = (sorted_ns.len() - 1) * p / 100;
    sorted_ns[idx]
}

fn derive_metrics(
    events: &[TraceEvent],
    num_workers: usize,
    wall_ns: u64,
    meta: &TaskMeta,
) -> TraceMetrics {
    let mut m = TraceMetrics {
        per_worker: (0..num_workers).map(|_| WorkerSummary::default()).collect(),
        ..TraceMetrics::default()
    };
    // Per-op-kind span durations; the last slot collects unknown kinds.
    let n_kinds = meta.op_kind_names.len();
    let mut op_durations: Vec<Vec<u64>> = vec![Vec::new(); n_kinds + 1];
    // Per-task best-known span duration, for the critical path.
    let task_count = meta
        .edges
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .max()
        .map(|t| t as usize + 1)
        .unwrap_or(0)
        .max(
            events
                .iter()
                .filter(|e| e.task != NO_TASK)
                .map(|e| e.task as usize + 1)
                .max()
                .unwrap_or(0),
        );
    let mut task_dur = vec![0u64; task_count];
    // Queue-depth deltas: +1 on enqueue, −1 when a non-inline span starts.
    let mut depth_deltas: Vec<(u64, i32)> = Vec::new();

    for e in events {
        match e.kind {
            EventKind::Enqueue => {
                m.enqueues += 1;
                depth_deltas.push((e.t0_ns, 1));
            }
            EventKind::Claim => m.claims += 1,
            EventKind::Exec => {
                m.exec_spans += 1;
                let dur = e.duration_ns();
                m.busy_ns_total += dur;
                let inline = e.b & EXEC_FLAG_INLINE != 0;
                if inline {
                    m.inline_execs += 1;
                } else {
                    depth_deltas.push((e.t0_ns, -1));
                }
                if let Some(w) = m.per_worker.get_mut(e.worker as usize) {
                    w.tasks += 1;
                    w.busy_ns += dur;
                    if inline {
                        w.inline_execs += 1;
                    }
                }
                if e.task != NO_TASK {
                    let kind = meta
                        .op_kinds
                        .get(e.task as usize)
                        .map(|&k| (k as usize).min(n_kinds))
                        .unwrap_or(n_kinds);
                    op_durations[kind].push(dur);
                    if let Some(slot) = task_dur.get_mut(e.task as usize) {
                        *slot = (*slot).max(dur);
                    }
                } else {
                    op_durations[n_kinds].push(dur);
                }
            }
            EventKind::Steal => {
                m.steals += 1;
                let d = e.b as usize;
                if m.steal_distance_histogram.len() <= d {
                    m.steal_distance_histogram.resize(d + 1, 0);
                }
                m.steal_distance_histogram[d] += 1;
                if let Some(w) = m.per_worker.get_mut(e.worker as usize) {
                    w.steals += 1;
                    w.steal_ns += e.duration_ns();
                }
            }
            EventKind::Fault => m.faults += 1,
            EventKind::Retry => m.retries += 1,
            EventKind::Breaker => m.breaker_transitions += 1,
            EventKind::Drain => m.drain_events += 1,
            EventKind::LatchReset | EventKind::RunBegin | EventKind::RunEnd => {}
        }
    }

    for w in &mut m.per_worker {
        w.idle_ns = wall_ns.saturating_sub(w.busy_ns + w.steal_ns);
    }

    // Per-op-kind latency percentiles, heaviest kinds first.
    for (k, mut durations) in op_durations.into_iter().enumerate() {
        if durations.is_empty() {
            continue;
        }
        durations.sort_unstable();
        m.op_latency.push(OpLatency {
            op_kind: meta
                .op_kind_names
                .get(k)
                .cloned()
                .unwrap_or_else(|| "(other)".to_string()),
            count: durations.len() as u64,
            total_ns: durations.iter().sum(),
            p50_ns: percentile(&durations, 50),
            p90_ns: percentile(&durations, 90),
            p99_ns: percentile(&durations, 99),
        });
    }
    m.op_latency
        .sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.op_kind.cmp(&b.op_kind)));

    // Queue-depth samples at uniform times over the window.
    if !depth_deltas.is_empty() && wall_ns > 0 {
        depth_deltas.sort_unstable();
        let t_base = depth_deltas[0].0;
        let mut depth = 0i64;
        let mut next = 0usize;
        for i in 0..DEPTH_SAMPLES {
            let t = t_base + wall_ns * i as u64 / (DEPTH_SAMPLES as u64 - 1);
            while next < depth_deltas.len() && depth_deltas[next].0 <= t {
                depth += depth_deltas[next].1 as i64;
                next += 1;
            }
            m.queue_depth_samples.push((t, depth.max(0) as u32));
        }
    }

    // Critical path over the dependency edges, weighting each task by its
    // measured span.  Kahn's algorithm; cycles cannot occur in executed DAGs.
    if task_count > 0 {
        let mut indeg = vec![0u32; task_count];
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); task_count];
        for &(from, to) in &meta.edges {
            succs[from as usize].push(to);
            indeg[to as usize] += 1;
        }
        // dist = (cumulative ns, tasks on chain) ending at the task.
        let mut dist: Vec<(u64, u32)> = (0..task_count)
            .map(|t| (task_dur[t], u32::from(task_dur[t] > 0)))
            .collect();
        let mut queue: Vec<u32> = (0..task_count as u32)
            .filter(|&t| indeg[t as usize] == 0)
            .collect();
        while let Some(t) = queue.pop() {
            let (d, len) = dist[t as usize];
            for &s in &succs[t as usize] {
                let cand = (d + task_dur[s as usize], len + 1);
                if cand > dist[s as usize] {
                    dist[s as usize] = cand;
                }
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        if let Some(&(ns, tasks)) = dist.iter().max() {
            m.critical_path_ns = ns;
            m.critical_path_tasks = tasks;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(worker: u32, task: u32, t0: u64, t1: u64, inline: bool) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Exec,
            worker,
            task,
            t0_ns: t0,
            t1_ns: t1,
            a: 0,
            b: u32::from(inline) * EXEC_FLAG_INLINE,
        }
    }

    #[test]
    fn empty_trace_has_zeroed_metrics() {
        let t = Trace::build(Vec::new(), 0, 2, TaskMeta::default());
        assert_eq!(t.wall_ns, 0);
        assert_eq!(t.metrics.exec_spans, 0);
        assert_eq!(t.metrics.per_worker.len(), 2);
    }

    #[test]
    fn events_are_sorted_and_wall_spans_them() {
        let events = vec![exec(1, 1, 50, 90, false), exec(0, 0, 10, 40, false)];
        let t = Trace::build(events, 0, 2, TaskMeta::default());
        assert_eq!(t.events[0].task, 0);
        assert_eq!(t.wall_ns, 80);
        assert_eq!(t.metrics.busy_ns_total, 70);
        assert_eq!(t.metrics.per_worker[0].busy_ns, 30);
        assert_eq!(t.metrics.per_worker[1].busy_ns, 40);
    }

    #[test]
    fn critical_path_follows_the_heavier_chain() {
        // 0 → 1 → 3 (10 + 5 + 1 = 16) vs 0 → 2 → 3 (10 + 100 + 1 = 111).
        let meta = TaskMeta {
            edges: vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            ..TaskMeta::default()
        };
        let events = vec![
            exec(0, 0, 0, 10, false),
            exec(0, 1, 10, 15, true),
            exec(1, 2, 10, 110, false),
            exec(1, 3, 110, 111, true),
        ];
        let t = Trace::build(events, 0, 2, meta);
        assert_eq!(t.metrics.critical_path_ns, 111);
        assert_eq!(t.metrics.critical_path_tasks, 3);
        assert_eq!(t.metrics.inline_execs, 2);
    }

    #[test]
    fn op_latency_groups_by_kind_and_sorts_by_weight() {
        let meta = TaskMeta {
            op_kinds: vec![0, 0, 1],
            op_kind_names: vec!["gemm".into(), "trsm".into()],
            ..TaskMeta::default()
        };
        let events = vec![
            exec(0, 0, 0, 10, false),
            exec(0, 1, 10, 30, false),
            exec(0, 2, 30, 35, false),
        ];
        let t = Trace::build(events, 0, 1, meta);
        assert_eq!(t.metrics.op_latency.len(), 2);
        assert_eq!(t.metrics.op_latency[0].op_kind, "gemm");
        assert_eq!(t.metrics.op_latency[0].count, 2);
        assert_eq!(t.metrics.op_latency[0].total_ns, 30);
        assert_eq!(t.metrics.op_latency[1].op_kind, "trsm");
    }

    #[test]
    fn steal_histogram_buckets_by_distance() {
        let mk = |worker, b| TraceEvent {
            kind: EventKind::Steal,
            worker,
            task: NO_TASK,
            t0_ns: 0,
            t1_ns: 5,
            a: 0,
            b,
        };
        let t = Trace::build(
            vec![mk(0, 0), mk(1, 2), mk(1, 2)],
            0,
            2,
            TaskMeta::default(),
        );
        assert_eq!(t.metrics.steal_distance_histogram, vec![1, 0, 2]);
        assert_eq!(t.metrics.per_worker[1].steals, 2);
        assert_eq!(t.metrics.per_worker[1].steal_ns, 10);
    }
}
