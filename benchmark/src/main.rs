//! `bench` — the repo's benchmark.  See README.md beside Cargo.toml.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--self-test]
//!     one workload, one pass; the last line of stdout is the result object
//! bench run --seed <n> [--trace] [--quick] [--seconds <s>] [--out <dir>]
//!     every workload, each in its own child process; prints every metric
//! bench compare <dirA> <dirB>
//!     judges two result sets written by `run --out`
//! ```

mod layers;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use report::{Json, Verdict, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Seconds one pass measures when `run` is not told otherwise (the
/// `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 12.0;
/// `--quick`: the whole suite in about ten seconds.
const QUICK_SECONDS: f64 = 1.0;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// `--name value` pairs, bare `--switches` and positionals.
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        const SWITCHES: [&str; 3] = ["--quick", "--self-test", "--trace"];
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if !a.starts_with("--") {
                args.positional.push(a);
                continue;
            }
            // `--trace` is a switch for `run` and takes 0|1 for one workload.
            let takes_value = !SWITCHES.contains(&a.as_str())
                || (a == "--trace" && raw.peek().is_some_and(|v| v == "0" || v == "1"));
            let value = if takes_value {
                Some(raw.next().ok_or_else(|| format!("{a} needs a value"))?)
            } else {
                None
            };
            args.flags.push((a, value));
        }
        Ok(args)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("{name}: cannot read '{v}'"))
            })
            .transpose()
    }
}

/// Keeps the faults `serve_open_faulty` injects on purpose out of the log:
/// the default hook would print (and symbolise) a backtrace for each of them
/// inside the measured window.  Every other panic is reported as usual.
fn silence_injected_faults() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        if !message.is_some_and(|m| m.contains(nd_serve::INJECTED_PANIC_MARKER)) {
            default_hook(info);
        }
    }));
}

fn main() -> ExitCode {
    silence_injected_faults();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let outcome = match args.positional.first().map(String::as_str) {
        None if args.has("--workload") => one_workload(&args),
        Some("run") => run_all(&args),
        Some("compare") => compare(&args),
        _ => return usage("expected --workload <name>, `run` or `compare`"),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        ExitCode::from(2)
    })
}

fn usage(error: &str) -> ExitCode {
    eprintln!("bench: {error}");
    eprintln!("usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--self-test]");
    eprintln!("       bench run --seed <n> [--trace] [--quick] [--seconds <s>] [--out <dir>]");
    eprintln!("       bench compare <dirA> <dirB>");
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

/// One workload, one pass: what the driver runs.
fn one_workload(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    let def = workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let quick = args.has("--quick");
    let params = workloads::Params {
        seed: args.number("--seed")?.ok_or("--seed is required")?,
        seconds: args
            .number::<f64>("--seconds")?
            .filter(|s| *s > 0.0)
            .unwrap_or(if quick {
                QUICK_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
        quick,
        self_test: args.has("--self-test"),
    };
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let host = probes::Host::detect();
    let result = if traced {
        layers::run_traced(def, &params, &host)
    } else {
        workloads::run_end_to_end(def, &params, &host)
    };
    println!("{}", result.to_json(quick).write());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench: {name}: {} of {} operations failed their check",
            result.failed, result.attempted
        );
        ExitCode::FAILURE
    })
}

/// Every workload, each in a child process of its own (so `peak_rss_mb` is
/// per workload), every metric printed by name with its unit.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("--seed")?.ok_or("--seed is required")?;
    let (traced, quick) = (args.has("--trace"), args.has("--quick"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for def in workloads::WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", def.name, "--seed", &seed.to_string()]);
        child.args(["--trace", if traced { "1" } else { "0" }]);
        if let Some(s) = args.value("--seconds") {
            child.args(["--seconds", s]);
        }
        if quick {
            child.arg("--quick");
        }
        eprintln!("bench: running {} — {}", def.name, def.why);
        let output = child
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("{}: no result line", def.name))?;
        let result = Json::parse(line).map_err(|e| format!("{}: {e}", def.name))?;
        all_correct &=
            output.status.success() && result.get("correct").and_then(Json::as_bool) == Some(true);
        print_result(
            def.name,
            &result,
            if traced { PER_LAYER } else { END_TO_END },
        );
        results.push((def.name.to_string(), result));
    }
    if let Some(dir) = args.value("--out") {
        let host = probes::Host::detect();
        let file = Json::Obj(vec![
            ("seed".into(), Json::Num(seed as f64)),
            ("trace".into(), Json::Bool(traced)),
            ("quick".into(), Json::Bool(quick)),
            // This benchmark claims no gain; it is what later claims are measured with.
            ("claim".into(), Json::Null),
            ("host".into(), Json::Str(host.summary())),
            ("workloads".into(), Json::Obj(results)),
        ]);
        let path = std::path::Path::new(dir).join(format!(
            "run_{seed}{}.json",
            if traced { "_trace" } else { "" }
        ));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, file.write() + "\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("bench: wrote {}", path.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_result(workload: &str, result: &Json, defs: &[report::MetricDef]) {
    let number = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "{workload}: correct {} attempted {} failed {} failed_share {:.6}",
        result
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        number("attempted"),
        number("failed"),
        number("failed") / number("attempted").max(1.0),
    );
    for def in defs {
        let value = result
            .get("metrics")
            .and_then(|m| m.get(def.name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        println!(
            "  {:<36} {:>16.6} {:<8} ({} is better)",
            def.name,
            value,
            def.unit,
            def.better.as_str()
        );
    }
}

/// One row per workload × end-to-end metric; non-zero exit on `regressed`.
fn compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("compare takes two result directories".into());
    };
    let (runs_a, runs_b) = (report::load_result_set(a)?, report::load_result_set(b)?);
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    let rows = report::compare(&runs_a, &runs_b, &names);
    println!(
        "A = {a} ({} runs)   B = {b} ({} runs)",
        runs_a.len(),
        runs_b.len()
    );
    println!(
        "{:<18} {:<12} {:>36} {:>36} {:>22} {:>6}  verdict",
        "workload",
        "metric",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "B worse by (of A)",
        "bound"
    );
    for r in &rows {
        let side = |q: [f64; 3]| format!("{:.5} [{:.5}, {:.5}]", q[1], q[0], q[2]);
        println!(
            "{:<18} {:<12} {:>36} {:>36} {:>+10.4} of {:<9.5} {:>6.3}  {}",
            r.workload,
            r.metric,
            side(r.a),
            side(r.b),
            r.worse_by,
            r.a[1],
            r.bound,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved (spread wider than the bound)",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(if count(Verdict::Regressed) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn the_drivers_command_line_is_understood() {
        let a = parse("--workload mm_dense --seed 7 --seconds 12 --trace 1");
        assert_eq!(a.value("--workload"), Some("mm_dense"));
        assert_eq!(a.number::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(a.value("--trace"), Some("1"));
        assert!(a.positional.is_empty());
    }

    #[test]
    fn run_takes_trace_as_a_switch() {
        let a = parse("run --seed 3 --trace --quick --out results/a");
        assert_eq!(a.positional, ["run"]);
        assert!(a.has("--trace") && a.value("--trace").is_none());
        assert!(a.has("--quick"));
        assert_eq!(a.value("--out"), Some("results/a"));
        assert!(Args::parse(["--seed".to_string()].into_iter()).is_err());
        assert!(parse("--seed x").number::<u64>("--seed").is_err());
    }
}
