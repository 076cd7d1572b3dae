//! # nd-bench — the experiment harness
//!
//! Each binary in `src/bin/` regenerates one of the analytical "tables/figures" of
//! the paper (the index below; PAPER.md's section map places each one in the
//! paper):
//!
//! * `exp_spans` — E1–E7: NP vs ND spans for every algorithm, with fitted growth
//!   exponents (the `Θ(n log n)` → `Θ(n)` collapses).
//! * `exp_pcc` — E8 (Claim 1): parallel cache complexity `Q*(N; M)` sweeps.
//! * `exp_alpha` — E9 (Claims 2–3): parallelizability `α_max` estimates.
//! * `exp_sched` — E10–E11 (Theorems 1 and 3): space-bounded scheduler miss bounds
//!   and completion-time scaling versus work stealing and the perfect-balance bound.
//! * `exp_cache_q1` — E13: serial (depth-first) cache misses of the cache-oblivious
//!   recursive order versus the loop order.
//! * `exp_exec` — E14: real wall-clock comparison of flat work stealing versus the
//!   hierarchy-aware space-bounded executor (`nd-exec`) on MM, Cholesky, LU and
//!   2-D Floyd–Warshall, with cross-cluster steal counts, emitted as JSON;
//!   E15: executor hot-path microbenchmarks (per-task overhead, tasks/second,
//!   serial-chain tail-execution, rebuild-vs-reuse of a compiled MM graph);
//!   E16: rebuild-vs-reuse of the compiled LU and FW-2D drivers (the
//!   `algorithm_reuse` section of `BENCH_exec.json`);
//!   E17: the fire-rule frontend — DRS expansion + compile cost versus the
//!   access-set oracle rebuilding the same dependency structure, plus the
//!   reuse speedup of DRS-built MM and LCS graphs (the `drs_frontend`
//!   section of `BENCH_exec.json`);
//!   E18: storage layouts — the GEMM base case on strided row-major block
//!   views versus contiguous tile-packed slabs (warm full-sweep and cold
//!   sampled-tile regimes), plus whole-algorithm wall clock for
//!   MM / Cholesky / LU / FW-2D on both layouts (the `layouts` section of
//!   `BENCH_exec.json`);
//!   E19: the `nd-trace` subsystem — the runtime cost of toggling tracing on
//!   (empty-task DAG with the tracer off versus on) and the derived
//!   scheduler metrics of one traced anchored MM (the `trace` section of
//!   `BENCH_exec.json`; the compile-out-versus-disabled cost is measured by
//!   `nd-runtime`'s `sched_overhead` binary and bounded by CI);
//!   E20: the fault paths — drain-to-latch cancellation latency after a
//!   mid-run strand panic, `reset()` + rerun recovery cost, and the trip
//!   latency of a blown wall-clock deadline (the `faults` section of
//!   `BENCH_exec.json`; the cost of carrying the *uninstalled* `chaos`
//!   fault-injection harness is bounded by the same `sched_overhead`
//!   comparison, run by the CI chaos job).
//! * `exp_scaling` — E21: the multicore scaling study — strong and weak
//!   scaling of MM, LU and FW-2D at 1 / 2 / 8 workers on synthesized PMH
//!   machines, flat ring-order work stealing versus `σ·M_i`-anchored
//!   execution, with per-configuration steal-distance histograms and
//!   busy/steal/idle breakdowns from `nd-trace`, plus an in-process
//!   scalar-versus-SIMD GFLOP/s comparison of the packed GEMM base case and
//!   the detected CPU features (the `scaling`, `simd` and `cpu` sections
//!   spliced into the `BENCH_exec.json` written by `exp_exec`).
//! * `exp_serve` — E22: the serving layer (`nd-serve`) under mixed-tenant
//!   load with 1-in-50 chaos-injected panics and a deterministically
//!   poisoned graph key: acceptance/terminal accounting (the zero-loss
//!   invariant), per-tenant p50/p99 latency and throughput, retry volume
//!   and healthy-tenant availability, circuit-breaker trips / fast rejects
//!   / recovery, and graceful-drain timing (the `serve` section of
//!   `BENCH_exec.json`).
//!
//! The Criterion benches in `benches/` measure the real-runtime wall-clock
//! counterparts (E12) and the model-construction costs.

use nd_core::work_span::fit_power_law;

/// Formats a `(x, y)` series with a fitted power-law exponent, for the experiment
/// tables.
pub fn fitted_exponent(series: &[(f64, f64)]) -> f64 {
    fit_power_law(series).0
}

/// Renders one row of an aligned plain-text table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths.iter())
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_exponent_of_linear_series_is_one() {
        let series: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((fitted_exponent(&series) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn row_aligns_cells() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
