//! What the machine can do: host fingerprint, a peak-FMA probe and a
//! stream-triad probe.  They run in the same process as the kernel
//! measurements, so `kernel.gemm_roofline_share` is never computed against a
//! number from another run.

use nd_pmh::topology::{detect_host, HostTopology, TopologySource};
use std::hint::black_box;
use std::time::Instant;

/// The three triad arrays together cover at least this many times the
/// last-level caches …
const TRIAD_LLC_MULTIPLE: usize = 4;
/// … but never more than this (a 55 MiB virtualised L3 would otherwise ask
/// for a quarter of a small container's memory).
const TRIAD_MAX_BYTES: usize = 768 << 20;
const TRIAD_MIN_BYTES: usize = 96 << 20;

pub struct Host {
    pub nproc: usize,
    /// Pool workers every workload uses: `min(nproc, 4)`.
    pub workers: usize,
    pub topology: HostTopology,
}

impl Host {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            nproc,
            workers: nproc.min(4),
            topology: detect_host(),
        }
    }

    /// Bytes of last-level cache, summed over its instances.
    pub fn llc_bytes(&self) -> usize {
        let cfg = &self.topology.config;
        let top = cfg.cache_levels();
        cfg.size(top) as usize * 8 * cfg.caches_at_level(top)
    }

    /// One line for the log: strings cannot be metrics.
    pub fn summary(&self) -> String {
        let cfg = &self.topology.config;
        let levels: Vec<String> = (1..=cfg.cache_levels())
            .map(|l| {
                format!(
                    "L{l} {} KiB x{} (fan-out {})",
                    cfg.size(l) * 8 / 1024,
                    cfg.caches_at_level(l),
                    cfg.fanout(l)
                )
            })
            .collect();
        format!(
            "nproc {} workers {} kernel_path {} topology {} [{}]",
            self.nproc,
            self.workers,
            nd_linalg::simd::kernel_name(),
            match self.topology.source {
                TopologySource::Sysfs => "sysfs",
                TopologySource::Synthesized => "synthesized",
            },
            levels.join(", ")
        )
    }
}

/// Peak double-precision GFLOP/s of one core from a register-resident FMA
/// loop, or `None` where the probe cannot run (no AVX2+FMA): the roofline
/// share is then omitted rather than computed against a guess.
pub fn peak_gflops() -> Option<f64> {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            const ITERS: u64 = 4_000_000;
            let mut best = 0.0f64;
            for _ in 0..5 {
                let t0 = Instant::now();
                // SAFETY: AVX2 and FMA were detected on this CPU just above.
                let sink = unsafe { fma_loop(ITERS) };
                let secs = t0.elapsed().as_secs_f64();
                black_box(sink);
                // 12 accumulators × 4 lanes × 2 flops per FMA.
                best = best.max(ITERS as f64 * 12.0 * 4.0 * 2.0 / secs / 1e9);
            }
            return Some(best);
        }
    }
    None
}

/// Twelve independent FMA chains (two FMA ports × four cycles of latency
/// need eight; twelve leaves slack), all in registers.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_loop(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let mul = _mm256_set1_pd(black_box(0.999_999_9));
    let add = _mm256_set1_pd(black_box(1e-9));
    let mut acc = [_mm256_set1_pd(1.0); 12];
    for _ in 0..iters {
        for a in &mut acc {
            *a = _mm256_fmadd_pd(*a, mul, add);
        }
    }
    let mut sum = _mm256_setzero_pd();
    for a in acc {
        sum = _mm256_add_pd(sum, a);
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), sum);
    lanes.iter().sum()
}

pub struct Triad {
    pub gbps: f64,
    /// Bytes of the three arrays together.
    pub footprint_bytes: usize,
}

/// Stream triad `a[i] = b[i] + s·c[i]` on `workers` threads over arrays far
/// larger than the last-level caches; best of five passes, counting the
/// three streams the loop names (24 bytes per element).
pub fn stream_triad(host: &Host) -> Triad {
    let footprint = (TRIAD_LLC_MULTIPLE * host.llc_bytes()).clamp(TRIAD_MIN_BYTES, TRIAD_MAX_BYTES);
    let len = footprint / 24;
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let chunk = len.div_ceil(host.workers);
    let mut best = 0.0f64;
    // The first pass pays the page faults of `a`; it is not counted.
    for pass in 0..6 {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = *b + 3.0 * *c;
                    }
                });
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        if pass > 0 {
            best = best.max(len as f64 * 24.0 / secs / 1e9);
        }
    }
    black_box(&a);
    Triad {
        gbps: best,
        footprint_bytes: len * 24,
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_is_detected_and_rss_is_read() {
        let host = Host::detect();
        assert!(host.nproc >= 1 && (1..=4).contains(&host.workers));
        assert!(host.llc_bytes() > 0);
        assert!(host.summary().contains("kernel_path"));
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn fma_probe_is_plausible_when_it_runs() {
        if let Some(g) = peak_gflops() {
            assert!(g > 1.0 && g < 1000.0, "{g} GFLOP/s per core");
        }
    }
}
