//! Sample statistics and the seeded generator every workload input comes from.

/// SplitMix64: the benchmark's own generator, so its inputs do not change
/// when the program's generators do.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one purpose (`salt`) of one run (`seed`).
    pub fn stream(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// One inter-arrival gap of a Poisson process with `rate_per_s` arrivals
    /// per second, in nanoseconds.
    pub fn exp_gap_ns(&mut self, rate_per_s: f64) -> u64 {
        (-self.next_f64().ln() / rate_per_s * 1e9) as u64
    }
}

/// Which tail percentile a workload reports beside its median.  Fixed per
/// workload (not chosen from the sample count at run time) so a faster
/// program cannot change what the metric means.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tail {
    P90,
    P99,
}

impl Tail {
    pub fn percent(self) -> f64 {
        match self {
            Tail::P90 => 90.0,
            Tail::P99 => 99.0,
        }
    }
}

/// The highest of p99 / p90 / p50 that still has at least ten samples beyond
/// it (the choosing-metrics rule), or `None` when even the median has fewer.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    [99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(samples, p) >= 10)
}

/// How many of `samples` sorted values lie strictly beyond percentile `p`.
pub fn samples_beyond(samples: usize, p: f64) -> usize {
    if samples == 0 {
        return 0;
    }
    samples - 1 - percentile_index(samples, p)
}

fn percentile_index(samples: usize, p: f64) -> usize {
    (((samples - 1) as f64) * p / 100.0).round() as usize
}

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[percentile_index(v.len(), p)]
}

pub fn median(values: &[f64]) -> f64 {
    quantiles(values)[1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Coefficient of variation (population standard deviation ÷ mean).
pub fn cv(values: &[f64]) -> f64 {
    let m = mean(values);
    if m == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt() / m
}

/// `[q1, median, q3]` as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so `compare` and the driver agree.  A single
/// value is its own quartiles.
pub fn quantiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        _ => [1usize, 2, 3].map(|i| {
            let pos = i * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            let delta = pos as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        }),
    }
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quantiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_choice_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(21), Some(50.0));
        // 200 solves: 20 beyond p90, only 2 beyond p99.
        assert_eq!(highest_supported_percentile(200), Some(90.0));
        assert_eq!(samples_beyond(200, 90.0), 20);
        assert_eq!(samples_beyond(200, 99.0), 2);
        // 8000 jobs: 80 beyond p99.
        assert_eq!(highest_supported_percentile(8000), Some(99.0));
        assert_eq!(samples_beyond(8000, 99.0), 80);
        for n in 21..3000 {
            let p = highest_supported_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 90.0), 91.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quantiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0; 10]), 0.0);
        assert!((cv(&[2.0, 4.0]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn streams_repeat_for_equal_seeds_and_differ_otherwise() {
        let a: Vec<u64> = {
            let mut r = Rng::stream(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::stream(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::stream(8, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::stream(7, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let mut r = Rng::new(1);
        let n = 200_000;
        let total: u64 = (0..n).map(|_| r.exp_gap_ns(1000.0)).sum();
        let mean_ms = total as f64 / n as f64 / 1e6;
        assert!((mean_ms - 1.0).abs() < 0.02, "mean gap {mean_ms} ms");
    }
}
