//! CI entry point: the full small-N model-checking sweep.
//!
//! Explores every DAG shape (one representative per isomorphism class) up to
//! `--max-tasks` tasks, for 1..=3 workers, under a clean run, a panic
//! injected at every strand, and a nondeterministically-tripping deadline —
//! each as a two-run (execute → reset → re-execute) exploration.  Prints
//! explored-state counts per configuration tier and exits nonzero with the
//! counterexample on any safety or liveness violation.
//!
//! Usage: `verify_model [--max-tasks N] [--samples K]` (defaults: 6, 200).
//! `--samples` additionally replays K model-sampled schedules through the
//! real executor (the conformance loop).  Finally every deliberate
//! [`Mutation`] must yield a counterexample, or the checker itself is broken.

use nd_model::{
    check, enumerate_dags, replay_through_executor, sample_schedule, CheckStats, Config, Fault,
    Mutation,
};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut max_tasks = 6usize;
    let mut samples = 200usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-tasks" => {
                max_tasks = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-tasks takes a number 1..=6")
            }
            "--samples" => {
                samples = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--samples takes a number")
            }
            other => {
                eprintln!(
                    "unknown argument {other}; usage: verify_model [--max-tasks N] [--samples K]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let started = Instant::now();
    let mut grand = CheckStats::default();
    let mut configs = 0u64;
    for n in 1..=max_tasks {
        let dags = enumerate_dags(n);
        let tier_start = Instant::now();
        let mut tier = CheckStats::default();
        for dag in &dags {
            for workers in 1..=3usize {
                let mut faults = vec![Fault::None, Fault::DeadlineAnytime];
                faults.extend((0..n).map(|t| Fault::PanicAt(t as u8)));
                for fault in faults {
                    configs += 1;
                    match check(Config::new(*dag, workers, fault)) {
                        Ok(stats) => tier.absorb(stats),
                        Err(cex) => {
                            eprintln!(
                                "VIOLATION in {n}-task DAG {:?} × {workers} workers × {fault:?}:",
                                dag.edges()
                            );
                            eprintln!("{cex}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
        }
        println!(
            "n={n}: {:>5} DAG shapes, {:>12} states, {:>13} transitions, {:>9} terminals  ({:.1?})",
            dags.len(),
            tier.states,
            tier.transitions,
            tier.terminals,
            tier_start.elapsed()
        );
        grand.absorb(tier);
    }
    println!(
        "sweep clean: {configs} configurations, {} states, {} transitions in {:.1?}",
        grand.states,
        grand.transitions,
        started.elapsed()
    );

    // Conformance: model-sampled schedules through the real executor.  The
    // panic-fault replays unwind through the driver's catch scope by design;
    // silence the default hook so the log stays readable, and restore it
    // afterwards.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let conf_start = Instant::now();
    let dags4 = enumerate_dags(4.min(max_tasks));
    let mut replayed = 0usize;
    let mut seed = 0x5EED_u64;
    'outer: while replayed < samples {
        for dag in &dags4 {
            for workers in 1..=3usize {
                for fault in [
                    Fault::None,
                    Fault::PanicAt((seed % dag.task_count() as u64) as u8),
                    Fault::DeadlineAnytime,
                ] {
                    if replayed >= samples {
                        break 'outer;
                    }
                    seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut config = Config::new(*dag, workers, fault);
                    config.runs = 1;
                    let schedule = sample_schedule(&config, seed);
                    if let Err(divergence) = replay_through_executor(&schedule) {
                        eprintln!(
                            "CONFORMANCE FAILURE ({:?} × {workers} workers × {fault:?}): {divergence}",
                            dag.edges()
                        );
                        return ExitCode::FAILURE;
                    }
                    replayed += 1;
                }
            }
        }
    }
    std::panic::set_hook(default_hook);
    println!(
        "conformance clean: {replayed} model-sampled schedules replayed through the real executor ({:.1?})",
        conf_start.elapsed()
    );

    // The checker must still catch regressions: every deliberate mutation
    // must produce a counterexample somewhere in the (clean, deadline, panic
    // at each strand) sweep over shapes of up to four tasks.
    let mutation_start = Instant::now();
    for mutation in [
        Mutation::SkipCounterRestore,
        Mutation::SkipDrainCountDown,
        Mutation::DropSecondReady,
        Mutation::SpawnReadyTwice,
        Mutation::SharedResultSlot,
        Mutation::DropChainBatch,
    ] {
        match first_counterexample(mutation, 4.min(max_tasks)) {
            Some(found) => println!("self-check: {mutation:?} caught — {found}"),
            None => {
                eprintln!(
                    "SELF-CHECK FAILURE: the checker accepted the deliberately-broken {mutation:?}"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "self-check clean: all 6 deliberate regressions produced counterexamples ({:.1?})",
        mutation_start.elapsed()
    );
    ExitCode::SUCCESS
}

/// Sweeps shapes of up to `max_tasks` tasks × 1–3 workers × every fault
/// under `mutation` and describes the first counterexample found, if any.
fn first_counterexample(mutation: Mutation, max_tasks: usize) -> Option<String> {
    for n in 1..=max_tasks {
        for dag in enumerate_dags(n) {
            for workers in 1..=3usize {
                let mut faults = vec![Fault::None, Fault::DeadlineAnytime];
                faults.extend((0..n).map(|t| Fault::PanicAt(t as u8)));
                for fault in faults {
                    let mut config = Config::new(dag, workers, fault);
                    config.mutation = mutation;
                    if let Err(cex) = check(config) {
                        return Some(format!(
                            "{} in {n}-task DAG {:?} × {workers} workers × {fault:?}",
                            cex.violation,
                            dag.edges()
                        ));
                    }
                }
            }
        }
    }
    None
}
