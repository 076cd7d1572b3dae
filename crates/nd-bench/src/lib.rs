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
//!
//! The executor's measured numbers (E14–E22: wall clock, per-task overhead,
//! storage layouts, tracing, fault paths, serving) come from the stand-alone
//! `benchmark/` package's `bench` binary, not from this crate; PAPER.md's
//! experiment index names the `bench` metric or test that carries each one.
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
