//! The benchmark's own spans: one around every call into a layer of the
//! program (`build`, `anchor`, `compile`, `restore_inputs`, `execute`,
//! `submit`, `wait`, `drain`).  Kept in memory, written once at exit as
//! Chrome-trace JSON.  Spans *inside* the program are a later change.
//!
//! A disabled recorder still times the call (the end-to-end pass needs the
//! duration) but keeps nothing.

use crate::report::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub t0_ns: u64,
    pub t1_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// One id per solve or job; 0 for set-up work.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.t1_ns - self.t0_ns
    }
}

/// One thread's spans.  Threads record into their own recorder (sharing the
/// epoch) and are merged at the end, so recording takes no lock.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    track: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            track: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same time axis.
    pub fn for_thread(&self, track: u32) -> Recorder {
        Recorder {
            enabled: self.enabled,
            epoch: self.epoch,
            track,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in nanoseconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        let t0_ns = self.now_ns();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                t0_ns,
                t1_ns: t0_ns,
                parent: self.open.last().copied(),
                op_id,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let result = f(self);
        let t1_ns = self.now_ns();
        if let Some(i) = index {
            self.spans[i].t1_ns = t1_ns;
            self.open.pop();
        }
        (result, t1_ns - t0_ns)
    }

    /// Records a span whose ends were measured elsewhere (a job's life from
    /// its due time, seen by the collector thread).
    pub fn record(&mut self, name: &'static str, op_id: u64, t0_ns: u64, t1_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                t0_ns,
                t1_ns,
                parent: None,
                op_id,
            });
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time of each span: its duration minus what its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }
}

/// `(name, spans, total self ms)` per span name over all recorders, heaviest
/// first.
pub fn self_time_summary(recorders: &[&Recorder]) -> Vec<(&'static str, usize, f64)> {
    let mut rows: Vec<(&'static str, usize, f64)> = Vec::new();
    for rec in recorders {
        for (s, ns) in rec.spans.iter().zip(rec.self_times_ns()) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += ns as f64 / 1e6;
                }
                None => rows.push((s.name, 1, ns as f64 / 1e6)),
            }
        }
    }
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    rows
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto) of several recorders, one
/// track each.
pub fn chrome_trace(recorders: &[&Recorder]) -> Json {
    let mut events = Vec::new();
    for rec in recorders {
        let own = rec.self_times_ns();
        for (s, self_ns) in rec.spans.iter().zip(own) {
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("ph".into(), Json::Str("X".into())),
                ("pid".into(), Json::Num(1.0)),
                ("tid".into(), Json::Num(f64::from(rec.track))),
                ("ts".into(), Json::Num(s.t0_ns as f64 / 1e3)),
                ("dur".into(), Json::Num(s.duration_ns() as f64 / 1e3)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("op_id".into(), Json::Num(s.op_id as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_us".into(), Json::Num(self_ns as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
    }
    Json::Obj(vec![("traceEvents".into(), Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_know_their_parent_and_self_time() {
        let mut rec = Recorder::new(true);
        rec.span("setup", 0, |rec| {
            rec.span("build", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.span("compile", 0, |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = rec.self_times_ns();
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
        assert!(spans[1].duration_ns() >= 2_000_000);
        assert_eq!(rec.durations("build").len(), 1);
    }

    #[test]
    fn a_disabled_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let (v, ns) = rec.span("execute", 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        assert!(ns >= 1_000_000);
        rec.record("job", 1, 0, 10);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_trace_carries_op_id_and_parent() {
        let mut rec = Recorder::new(true);
        rec.span("wait", 42, |_| ());
        let json = chrome_trace(&[&rec]);
        let ev = &json.get("traceEvents").unwrap().as_arr().unwrap()[0];
        assert_eq!(ev.get("name").unwrap().as_str(), Some("wait"));
        let args = ev.get("args").unwrap();
        assert_eq!(args.get("op_id").unwrap().as_f64(), Some(42.0));
        assert_eq!(args.get("parent"), Some(&Json::Null));
    }
}
