//! The metric registry, the one JSON writer/reader, the result line the
//! driver reads, and `compare`.
//!
//! Every metric the benchmark may print is declared here once, with its unit
//! and direction; `BENCHMARK.json` lists the same names (a unit test checks
//! the two against each other).

use crate::stats;
use std::fmt::Write as _;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees.  Every workload reports every one of
/// these; an *operation* is one steady solve (executor workloads) or one
/// served job (serve workloads).  Measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("op_ms_p50", "ms", Better::Lower, 0.10),
    e2e("op_ms_tail", "ms", Better::Lower, 0.10),
    e2e("ops_per_s", "1/s", Better::Higher, 0.10),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// One layer's own cost in its own unit, from the traced pass.  A layer a
/// workload does not pass through reports 0 for all of its metrics.
pub const PER_LAYER: &[MetricDef] = &[
    // kernel — nd-linalg block kernels called directly, one thread.
    hi("kernel.gemm_gflops", "GFLOP/s"),
    lo("kernel.gemm_ns_per_call", "ns"),
    hi("kernel.gemm_roofline_share", "ratio"),
    hi("kernel.gemm_ops_per_byte", "flop/B"),
    lo("kernel.getrf_panel_ns_per_call", "ns"),
    lo("kernel.trsm_ns_per_call", "ns"),
    lo("kernel.lcs_block_ns_per_call", "ns"),
    lo("kernel.flops_per_solve", "count"),
    lo("kernel.bytes_per_solve_computed", "B"),
    lo("kernel.model_ms", "ms"),
    // strand — nd-algorithms::exec, op_table().run_task on one thread.
    lo("strand.serial_ms", "ms"),
    lo("strand.overhead_share", "ratio"),
    lo("strand.ns_per_task", "ns"),
    lo("strand.pack_scratch_len", "count"),
    lo("strand.op_ns_p50.gemm", "ns"),
    lo("strand.op_ns_p99.gemm", "ns"),
    lo("strand.op_ns_p50.lu_panel", "ns"),
    lo("strand.op_ns_p99.lu_panel", "ns"),
    lo("strand.op_ns_p50.lu_row_swap", "ns"),
    lo("strand.op_ns_p99.lu_row_swap", "ns"),
    lo("strand.op_ns_p50.trsm_unit_lower", "ns"),
    lo("strand.op_ns_p99.trsm_unit_lower", "ns"),
    lo("strand.op_ns_p50.lcs", "ns"),
    lo("strand.op_ns_p99.lcs", "ns"),
    // graph — nd-runtime::dataflow, the workload's graph with a no-op table.
    lo("graph.tasks", "count"),
    lo("graph.edges", "count"),
    lo("graph.empty_ns_per_task", "ns"),
    lo("graph.serial_ns_per_task", "ns"),
    lo("graph.critical_path_ms", "ms"),
    hi("graph.cp_efficiency", "ratio"),
    hi("graph.inline_exec_share", "ratio"),
    lo("graph.enqueues_per_solve", "count"),
    // pool — nd-runtime::pool.
    hi("pool.busy_share", "ratio"),
    lo("pool.steal_share", "ratio"),
    lo("pool.idle_share", "ratio"),
    lo("pool.steals_per_solve", "count"),
    hi("pool.steals_d0_share", "ratio"),
    hi("pool.parallel_efficiency", "ratio"),
    lo("pool.wake_us_p50", "us"),
    lo("pool.spawn_ns_per_job", "ns"),
    lo("pool.tasks_per_worker_cv", "ratio"),
    // anchor — nd-exec.
    lo("anchor.compute_ms", "ms"),
    lo("anchor.anchors_l1", "count"),
    lo("anchor.anchors_l2", "count"),
    lo("anchor.overflow_events", "count"),
    lo("anchor.cross_cluster_steal_share", "ratio"),
    lo("anchor.vs_flat_ratio", "ratio"),
    // build — nd-algorithms::{frontend,driver} + nd-runtime::lower.
    lo("build.drs_ms", "ms"),
    lo("build.compile_ms", "ms"),
    lo("build.ns_per_task", "ns"),
    // serve — nd-serve.
    lo("serve.submit_us_p50", "us"),
    lo("serve.submit_us_p99", "us"),
    lo("serve.direct_exec_ms_p50", "ms"),
    lo("serve.overhead_ms_p50", "ms"),
    lo("serve.job_ms_p50.small", "ms"),
    lo("serve.job_ms_p50.large", "ms"),
    lo("serve.cold_job_ms_p50", "ms"),
    lo("serve.compile_ms_p50", "ms"),
    hi("serve.cache_hit_share", "ratio"),
    hi("serve.attempts_per_done", "ratio"),
    lo("serve.retries", "count"),
    lo("serve.injected_faults", "count"),
    lo("serve.shed", "count"),
    lo("serve.poisoned", "count"),
    hi("serve.accepted", "count"),
    hi("serve.terminal", "count"),
    lo("serve.slo_miss_share", "ratio"),
    lo("serve.gen_late_us_p99", "us"),
    lo("serve.backlog_mid", "count"),
    lo("serve.backlog_end", "count"),
    lo("serve.drain_ms", "ms"),
    lo("serve.pool_steals_per_job", "count"),
    // trace — nd-trace.
    lo("trace.overhead_share", "ratio"),
    lo("trace.events", "count"),
    lo("trace.dropped", "count"),
    lo("trace.op_ms_p50", "ms"),
    // host — fingerprint of the machine, not a cost of the program.
    hi("host.nproc", "count"),
    hi("host.workers", "count"),
    hi("host.peak_gflops", "GFLOP/s"),
    hi("host.stream_gbps", "GB/s"),
    // budget — the layers must add up to the end-to-end time.
    lo("budget.kernel_ms", "ms"),
    lo("budget.strand_ms", "ms"),
    lo("budget.graph_ms", "ms"),
    lo("budget.idle_ms", "ms"),
    lo("budget.queue_ms", "ms"),
    lo("budget.exec_ms", "ms"),
    lo("budget.backoff_ms", "ms"),
    lo("budget.op_ms", "ms"),
    lo("budget.residual_share", "ratio"),
];

pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The values of one run, in registry order.  `set` refuses a name the
/// registry does not declare, so nothing unlisted can be printed.
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    /// # Panics
    /// Panics if a declared name is outside `[A-Za-z0-9_.-]`: the writer
    /// never prints such a name.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        for d in defs {
            assert!(
                is_valid_name(d.name),
                "metric name '{}' is not printable",
                d.name
            );
        }
        MetricSet {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// # Panics
    /// Panics on an undeclared name or a non-finite value: both are bugs in
    /// the benchmark, not measurements.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in report.rs"));
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        self.values[i] = Some(value);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .and_then(|i| self.values[i])
            .unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` with every declared metric;
    /// one the workload never set is 0 (a layer it does not pass through).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.defs
                .iter()
                .zip(&self.values)
                .map(|(d, v)| {
                    (
                        d.name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(v.unwrap_or(0.0))),
                            ("unit".into(), Json::Str(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// What one run of one workload produced.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
}

impl RunResult {
    /// The object the driver reads from the last line of standard output.
    pub fn to_json(&self, quick: bool) -> Json {
        let mut fields = vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), self.metrics.to_json()),
        ];
        if quick {
            fields.push(("quick".to_string(), Json::Bool(true)));
        }
        Json::Obj(fields)
    }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// One line, numbers with all their digits.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                assert!(v.is_finite(), "JSON has no encoding for {v}");
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b'}')?;
                    return Ok(Json::Obj(fields));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b']')?;
                    return Ok(Json::Arr(items));
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let c = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × end-to-end metric row of `compare`.
pub struct CompareRow {
    pub workload: String,
    pub metric: &'static str,
    pub a: [f64; 3],
    pub b: [f64; 3],
    /// How much worse B's median is than A's, as a share of A's median
    /// (negative = better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges B against A for one metric: `regressed` when B's median is worse
/// than A's by more than the bound, `unresolved` when either side's own
/// run-to-run spread is wider than the bound (so the comparison cannot tell),
/// otherwise `ok`.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let bound = def.bound.expect("only end-to-end metrics are judged");
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        match def.better {
            Better::Lower => (mb - ma) / ma,
            Better::Higher => (ma - mb) / ma,
        }
    };
    let verdict = if stats::spread(a) > bound || stats::spread(b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// A result set as `bench run --out <dir>` writes it: one file per run, each
/// `{"seed", "trace", "quick", "workloads": {name: result-object}}`.
pub fn load_result_set(dir: &str) -> Result<Vec<Json>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if run.get("quick").and_then(Json::as_bool) == Some(true) {
            return Err(format!(
                "{}: a --quick run is a smoke test, not a measurement; compare refuses it",
                path.display()
            ));
        }
        if run.get("trace").and_then(Json::as_bool) == Some(true) {
            continue; // end-to-end numbers come only from untraced runs
        }
        runs.push(run);
    }
    if runs.is_empty() {
        return Err(format!("{dir}: no untraced run files (*.json)"));
    }
    Ok(runs)
}

fn metric_values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

pub fn compare(a: &[Json], b: &[Json], workloads: &[&str]) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for &workload in workloads {
        for def in END_TO_END {
            let va = metric_values(a, workload, def.name);
            let vb = metric_values(b, workload, def.name);
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, verdict) = judge(def, &va, &vb);
            rows.push(CompareRow {
                workload: workload.to_string(),
                metric: def.name,
                a: stats::quantiles(&va),
                b: stats::quantiles(&vb),
                worse_by,
                bound: def.bound.expect("end-to-end metrics carry a bound"),
                verdict,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_the_parser() {
        let v = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::Num(8123.0)),
            ("x".into(), Json::Num(0.000_012_345_678_912_345)),
            ("big".into(), Json::Num(1.234_567_890_123e15)),
            ("s".into(), Json::Str("a \"quoted\"\n\\ line\u{1}".into())),
            (
                "arr".into(),
                Json::Arr(vec![Json::Null, Json::Num(-1.5), Json::Arr(vec![])]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = v.write();
        assert!(!text.contains('\n'), "the result must stay on one line");
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
    }

    #[test]
    fn names_outside_the_allowed_alphabet_are_rejected() {
        for ok in ["op_ms_p50", "serve.job_ms_p50.small", "a-b", "9lives"] {
            assert!(is_valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!is_valid_name(bad), "{bad}");
        }
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} is declared twice", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_cannot_be_set() {
        MetricSet::new(END_TO_END).set("made_up", 1.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = MetricSet::new(END_TO_END);
        metrics.set("op_ms_p50", 1.25);
        let line = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
        }
        .to_json(false)
        .write();
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = parsed.get("metrics").unwrap();
        assert_eq!(m.as_obj().unwrap().len(), END_TO_END.len());
        let p50 = m.get("op_ms_p50").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let lower = &END_TO_END[0]; // op_ms_p50, bound 0.10
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        assert_eq!(judge(lower, &base, &base).1, Verdict::Ok);
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let (worse, verdict) = judge(lower, &base, &slower);
        assert!((worse - 0.2).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regressed);
        let faster: Vec<f64> = base.iter().map(|v| v * 0.5).collect();
        assert_eq!(judge(lower, &base, &faster).1, Verdict::Ok);
        let noisy = [5.0, 10.0, 15.0, 20.0, 2.0];
        assert_eq!(judge(lower, &base, &noisy).1, Verdict::Unresolved);
        let higher = END_TO_END.iter().find(|d| d.name == "ops_per_s").unwrap();
        let fewer: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(higher, &base, &fewer).1, Verdict::Regressed);
        assert_eq!(judge(higher, &base, &slower).1, Verdict::Ok);
    }

    /// `BENCHMARK.json` and the registry must list the same metrics with the
    /// same units, directions and bounds, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = manifest.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (item, def) in listed.iter().zip(defs) {
                assert_eq!(item.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(item.get("unit").unwrap().as_str(), Some(def.unit));
                assert_eq!(
                    item.get("better").unwrap().as_str(),
                    Some(def.better.as_str())
                );
                assert_eq!(item.get("bound").and_then(Json::as_f64), def.bound);
            }
        }
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let declared: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, declared);
    }
}
