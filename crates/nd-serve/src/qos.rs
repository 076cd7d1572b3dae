//! Per-tenant QoS envelopes: token-bucket rate limiting, an
//! outstanding-job cap, and a [`Priority`] class that picks the tenant's
//! ready queue (the server dequeues `ready_high` before `ready_low`) — one
//! tenant's burst cannot starve another.

use crate::clock::ServeClock;
use crate::error::ServeError;
use nd_runtime::Priority;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A tenant's envelope.
#[derive(Clone, Copy, Debug)]
pub struct TenantConfig {
    /// Token refill rate, jobs per second.  `f64::INFINITY` = unlimited.
    pub rate_per_sec: f64,
    /// Bucket capacity (burst allowance), tokens.
    pub burst: f64,
    /// Maximum jobs accepted but not yet terminal.
    pub max_outstanding: usize,
    /// Scheduling class: the server keeps one ready queue per class and
    /// dequeues `High` tenants' jobs before `Low` tenants'.
    pub priority: Priority,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            rate_per_sec: f64::INFINITY,
            burst: 64.0,
            max_outstanding: 1024,
            priority: Priority::High,
        }
    }
}

/// Monotonic per-tenant counters (relaxed atomics; read by snapshots).
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Submissions attempted.
    pub submitted: AtomicU64,
    /// Submissions accepted.
    pub admitted: AtomicU64,
    /// Rejections: empty token bucket.
    pub rate_limited: AtomicU64,
    /// Rejections: outstanding cap.
    pub busy: AtomicU64,
    /// Terminal `Done` outcomes.
    pub done: AtomicU64,
    /// Terminal `Shed` outcomes.
    pub shed: AtomicU64,
    /// Terminal `Poisoned` outcomes.
    pub poisoned: AtomicU64,
    /// Retry re-queues of this tenant's jobs.
    pub retries: AtomicU64,
}

/// Point-in-time view of one tenant, exported by the health snapshot.
#[derive(Clone, Debug)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub name: String,
    /// Jobs accepted but not yet terminal.
    pub outstanding: usize,
    /// Submissions attempted / accepted.
    pub submitted: u64,
    /// Submissions accepted.
    pub admitted: u64,
    /// Rate-limit rejections.
    pub rate_limited: u64,
    /// Outstanding-cap rejections.
    pub busy: u64,
    /// Terminal outcomes by kind.
    pub done: u64,
    /// Terminal sheds.
    pub shed: u64,
    /// Terminal poisonings.
    pub poisoned: u64,
    /// Retry re-queues.
    pub retries: u64,
}

struct Bucket {
    tokens: f64,
    last_refill_ns: u64,
}

/// One registered tenant: config, bucket, outstanding count, counters.
pub(crate) struct TenantState {
    pub name: String,
    pub cfg: TenantConfig,
    bucket: Mutex<Bucket>,
    pub outstanding: AtomicUsize,
    pub counters: TenantCounters,
}

impl TenantState {
    pub fn new(name: &str, cfg: TenantConfig, now_ns: u64) -> Self {
        TenantState {
            name: name.to_string(),
            cfg,
            bucket: Mutex::new(Bucket {
                tokens: cfg.burst,
                last_refill_ns: now_ns,
            }),
            outstanding: AtomicUsize::new(0),
            counters: TenantCounters::default(),
        }
    }

    /// The admission gate: refills the bucket from the clock, takes a token
    /// and an outstanding slot, or rejects with the typed reason.  On
    /// success the outstanding count has been incremented — the caller must
    /// guarantee a terminal outcome eventually releases it.
    pub fn try_admit(&self, clock: &ServeClock) -> Result<(), ServeError> {
        // Outstanding cap first (cheap, and failing it should not burn a
        // token).
        let cap = self.cfg.max_outstanding;
        let mut cur = self.outstanding.load(Ordering::Relaxed);
        loop {
            if cur >= cap {
                self.counters.busy.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::TenantBusy {
                    tenant: self.name.clone(),
                    outstanding: cur,
                    cap,
                });
            }
            match self.outstanding.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }

        if self.cfg.rate_per_sec.is_finite() {
            let now = clock.now_ns();
            let mut b = self.bucket.lock();
            let dt_s = now.saturating_sub(b.last_refill_ns) as f64 / 1e9;
            b.tokens = (b.tokens + dt_s * self.cfg.rate_per_sec).min(self.cfg.burst);
            b.last_refill_ns = now;
            if b.tokens < 1.0 {
                let deficit = 1.0 - b.tokens;
                let retry_after_ns = (deficit / self.cfg.rate_per_sec * 1e9).ceil() as u64;
                drop(b);
                self.outstanding.fetch_sub(1, Ordering::AcqRel);
                self.counters.rate_limited.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::RateLimited {
                    tenant: self.name.clone(),
                    retry_after_ns,
                });
            }
            b.tokens -= 1.0;
        }
        Ok(())
    }

    /// Releases the outstanding slot a terminal outcome frees.
    pub fn release(&self) {
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }

    pub fn snapshot(&self) -> TenantSnapshot {
        let c = &self.counters;
        TenantSnapshot {
            name: self.name.clone(),
            outstanding: self.outstanding.load(Ordering::Relaxed),
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            rate_limited: c.rate_limited.load(Ordering::Relaxed),
            busy: c.busy.load(Ordering::Relaxed),
            done: c.done.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            poisoned: c.poisoned.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_limits_and_refills_on_the_clock() {
        let clock = ServeClock::virtual_at(0);
        let t = TenantState::new(
            "t",
            TenantConfig {
                rate_per_sec: 2.0,
                burst: 2.0,
                max_outstanding: 100,
                priority: Priority::High,
            },
            0,
        );
        assert!(t.try_admit(&clock).is_ok());
        assert!(t.try_admit(&clock).is_ok());
        let err = t.try_admit(&clock).unwrap_err();
        let ServeError::RateLimited { retry_after_ns, .. } = err else {
            panic!("expected RateLimited, got {err:?}");
        };
        assert!(retry_after_ns > 0 && retry_after_ns <= 500_000_000);
        // The failed admit must not leak an outstanding slot.
        assert_eq!(t.outstanding.load(Ordering::Relaxed), 2);
        // Half a second refills one token at 2/s.
        clock.advance(500_000_000);
        assert!(t.try_admit(&clock).is_ok());
        assert!(t.try_admit(&clock).is_err());
    }

    #[test]
    fn outstanding_cap_rejects_without_burning_tokens() {
        let clock = ServeClock::virtual_at(0);
        let t = TenantState::new(
            "t",
            TenantConfig {
                rate_per_sec: 1000.0,
                burst: 1.0,
                max_outstanding: 1,
                priority: Priority::Low,
            },
            0,
        );
        assert!(t.try_admit(&clock).is_ok());
        let err = t.try_admit(&clock).unwrap_err();
        assert!(matches!(
            err,
            ServeError::TenantBusy {
                outstanding: 1,
                cap: 1,
                ..
            }
        ));
        t.release();
        clock.advance(2_000_000); // refill the single-token bucket
        assert!(t.try_admit(&clock).is_ok());
        assert_eq!(t.counters.busy.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn infinite_rate_never_rate_limits() {
        let clock = ServeClock::virtual_at(0);
        let t = TenantState::new("t", TenantConfig::default(), 0);
        for _ in 0..500 {
            assert!(t.try_admit(&clock).is_ok());
        }
    }
}
