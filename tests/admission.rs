//! Overload-shedding property tests: bursts of external submissions far above
//! the admission layer's high-water mark, under each [`OverloadPolicy`].  The
//! queue-depth bound must hold, shed counts must be exact, and every job that
//! was not shed must run exactly once.

use nd_runtime::{
    AdmissionConfig, CompiledGraph, OverloadPolicy, Priority, RunBudget, RunError, SubmitOutcome,
    TaskTable, ThreadPool,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::pool_sizes;

/// Spin until `cond` holds (10 s deadline — generous; these bursts drain in
/// milliseconds).
fn wait_until(label: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting: {label}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Waits until every admission slot is released.  A slot is freed only after
/// its job's closure returns, so a job's own side effects (the counters the
/// drain waits watch) are visible while it still counts as outstanding; a
/// leaked slot makes this time out.
fn wait_slots_released(pool: &ThreadPool) {
    wait_until("slots released", || {
        pool.admission_stats()
            .expect("admission layer is on")
            .outstanding
            == 0
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Shed policy: a burst of `burst` jobs against a `high_water` mark
    /// admits at most `high_water` at any instant, refuses the overflow with
    /// an exact count, and runs every admitted job exactly once.
    #[test]
    fn shed_policy_bounds_depth_and_counts_exactly(
        high_water in 1usize..16,
        burst in 50usize..300,
    ) {
        for workers in pool_sizes() {
            let pool = ThreadPool::with_admission(
                workers,
                AdmissionConfig::new(high_water, OverloadPolicy::Shed),
            );
            let ran = Arc::new(AtomicUsize::new(0));
            // Hold the admitted jobs on a gate so the burst really races the
            // high-water mark instead of draining as fast as it fills.
            let gate = Arc::new(AtomicUsize::new(0));
            let mut admitted = 0usize;
            let mut shed = 0usize;
            for _ in 0..burst {
                let ran = Arc::clone(&ran);
                let gate = Arc::clone(&gate);
                match pool.submit(Priority::High, Box::new(move |_| {
                    while gate.load(Ordering::SeqCst) == 0 {
                        std::hint::spin_loop();
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                })) {
                    SubmitOutcome::Admitted => admitted += 1,
                    SubmitOutcome::Shed => shed += 1,
                    SubmitOutcome::Degraded => prop_assert!(false, "Shed policy never degrades"),
                }
                let snap = pool.admission_stats().expect("admission layer is on");
                prop_assert!(
                    snap.outstanding <= high_water,
                    "outstanding {} exceeded high-water {} (workers={})",
                    snap.outstanding, high_water, workers
                );
            }
            prop_assert_eq!(admitted + shed, burst);
            prop_assert!(admitted <= burst);
            prop_assert_eq!(pool.jobs_shed(), shed as u64, "workers={}", workers);
            gate.store(1, Ordering::SeqCst);
            let ran2 = Arc::clone(&ran);
            wait_until("shed burst drains", move || {
                ran2.load(Ordering::SeqCst) == admitted
            });
            wait_slots_released(&pool);
            let snap = pool.admission_stats().expect("admission layer is on");
            prop_assert_eq!(ran.load(Ordering::SeqCst), admitted, "exactly once");
            prop_assert!(snap.max_outstanding <= high_water);
            prop_assert_eq!(snap.outstanding, 0, "all slots released");
        }
    }

    /// Degrade policy: low-priority overflow is parked, never lost — the
    /// burst's every job still runs exactly once, the admitted depth never
    /// exceeds the mark, and the degraded count is exact.
    #[test]
    fn degrade_policy_parks_overflow_but_loses_nothing(
        high_water in 1usize..12,
        burst in 40usize..200,
    ) {
        for workers in pool_sizes() {
            let pool = ThreadPool::with_admission(
                workers,
                AdmissionConfig::new(high_water, OverloadPolicy::Degrade),
            );
            let sum = Arc::new(AtomicU64::new(0));
            let mut degraded = 0usize;
            for i in 0..burst {
                let sum = Arc::clone(&sum);
                match pool.submit(Priority::Low, Box::new(move |_| {
                    sum.fetch_add(i as u64 + 1, Ordering::SeqCst);
                })) {
                    SubmitOutcome::Admitted => {}
                    SubmitOutcome::Degraded => degraded += 1,
                    SubmitOutcome::Shed => prop_assert!(false, "Degrade policy never refuses"),
                }
                let snap = pool.admission_stats().expect("admission layer is on");
                prop_assert!(
                    snap.outstanding <= high_water,
                    "outstanding {} exceeded high-water {} (workers={})",
                    snap.outstanding, high_water, workers
                );
            }
            prop_assert_eq!(pool.jobs_degraded(), degraded as u64);
            // Σ 1..=burst — every job ran exactly once, parked or not.
            let expected = (burst as u64 * (burst as u64 + 1)) / 2;
            let sum2 = Arc::clone(&sum);
            wait_until("degraded burst drains", move || {
                sum2.load(Ordering::SeqCst) >= expected
            });
            prop_assert_eq!(sum.load(Ordering::SeqCst), expected, "workers={}", workers);
            wait_slots_released(&pool);
            let snap = pool.admission_stats().expect("admission layer is on");
            prop_assert_eq!(snap.outstanding, 0);
            prop_assert_eq!(snap.overflow_queued, 0);
            prop_assert!(snap.max_outstanding <= high_water);
        }
    }

    /// Block policy: backpressure instead of loss — the submitting thread
    /// stalls at the mark, so every job of the burst is admitted and runs
    /// exactly once, and the depth bound still holds.
    #[test]
    fn block_policy_admits_everything_within_the_bound(
        high_water in 1usize..8,
        burst in 30usize..120,
    ) {
        for workers in pool_sizes() {
            let pool = ThreadPool::with_admission(
                workers,
                AdmissionConfig::new(high_water, OverloadPolicy::Block),
            );
            let ran = Arc::new(AtomicUsize::new(0));
            for _ in 0..burst {
                let ran = Arc::clone(&ran);
                let outcome = pool.submit(Priority::High, Box::new(move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                }));
                prop_assert!(
                    matches!(outcome, SubmitOutcome::Admitted),
                    "Block admits everything eventually"
                );
            }
            let ran2 = Arc::clone(&ran);
            wait_until("blocked burst drains", move || {
                ran2.load(Ordering::SeqCst) == burst
            });
            prop_assert_eq!(ran.load(Ordering::SeqCst), burst);
            wait_slots_released(&pool);
            let snap = pool.admission_stats().expect("admission layer is on");
            prop_assert!(snap.max_outstanding <= high_water);
            prop_assert_eq!(snap.outstanding, 0);
            prop_assert_eq!(pool.jobs_shed(), 0);
            prop_assert_eq!(pool.jobs_degraded(), 0);
        }
    }
}

/// Shedding is visible in the pool's cumulative statistics snapshot and its
/// deltas, alongside the panic counter.
#[test]
fn pool_stats_carry_fault_counters() {
    let pool = ThreadPool::with_admission(2, AdmissionConfig::new(1, OverloadPolicy::Shed));
    let before = pool.stats();
    let gate = Arc::new(AtomicUsize::new(0));
    let g = Arc::clone(&gate);
    assert!(matches!(
        pool.submit(
            Priority::High,
            Box::new(move |_| {
                while g.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
            })
        ),
        SubmitOutcome::Admitted
    ));
    // The slot is full: this one is refused.
    assert!(matches!(
        pool.submit(Priority::High, Box::new(|_| {})),
        SubmitOutcome::Shed
    ));
    gate.store(1, Ordering::SeqCst);
    wait_slots_released(&pool);
    let delta = pool.stats().since(&before);
    assert_eq!(delta.jobs_shed, 1);
    assert_eq!(delta.jobs_degraded, 0);
}

/// A `RunBudget` deadline expiring while Degrade-parked low-priority jobs are
/// queued: the faulted graph run must drain structurally, the parked queue
/// must still be pumped to empty once the slot-holder finishes, and the pool
/// must stay fully usable — the deadline fault and the admission layer are
/// independent mechanisms and neither may wedge the other.
#[test]
fn deadline_fault_does_not_wedge_the_degrade_overflow_queue() {
    struct Slow;
    impl TaskTable for Slow {
        fn run_task(&self, _task: u32) {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // Two workers minimum: one runs the gated slot-holder, the rest make
    // progress on the graph (a 1-worker pool would have no one to claim the
    // graph's tasks until the gate opens, which is the blocker's scenario,
    // not the deadline's).
    for workers in [2usize, 8] {
        let pool =
            ThreadPool::with_admission(workers, AdmissionConfig::new(1, OverloadPolicy::Degrade));

        // Fill the single admission slot with a gated blocker…
        let gate = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        assert!(matches!(
            pool.submit(
                Priority::High,
                Box::new(move |_| {
                    while g.load(Ordering::SeqCst) == 0 {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                })
            ),
            SubmitOutcome::Admitted
        ));
        // …and park a pile of low-priority jobs behind it.
        let parked_ran = Arc::new(AtomicUsize::new(0));
        let parked = 12usize;
        for _ in 0..parked {
            let ran = Arc::clone(&parked_ran);
            assert!(matches!(
                pool.submit(
                    Priority::Low,
                    Box::new(move |_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    })
                ),
                SubmitOutcome::Degraded
            ));
        }
        let snap = pool.admission_stats().expect("admission layer is on");
        assert_eq!(snap.overflow_queued, parked);

        // A serial chain needing ~64 ms against a 5 ms budget: the deadline
        // expires while the overflow queue is populated and the slot is held.
        let n = 32u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|t| (t - 1, t)).collect();
        let graph = Arc::new(CompiledGraph::from_edges(n as usize, &edges, Vec::new()));
        let table = Arc::new(Slow);
        let budget = RunBudget::with_deadline(Duration::from_millis(5));
        let err = graph.execute_with(&pool, &table, &budget).unwrap_err();
        assert!(
            matches!(err, RunError::DeadlineExceeded { .. }),
            "expected DeadlineExceeded, got {err:?} (workers={workers})"
        );
        // The drain finished and self-reset the graph; the parked jobs are
        // untouched (the slot is still held).
        assert!(graph.counters_are_reset());
        let snap = pool.admission_stats().expect("admission layer is on");
        assert_eq!(snap.overflow_queued, parked, "workers={workers}");
        assert_eq!(parked_ran.load(Ordering::SeqCst), 0);

        // Open the gate: the slot releases and the overflow queue must pump
        // dry, one injection per completion.
        gate.store(1, Ordering::SeqCst);
        let ran = Arc::clone(&parked_ran);
        wait_until("parked overflow drains after deadline fault", move || {
            ran.load(Ordering::SeqCst) == parked
        });
        wait_slots_released(&pool);
        let snap = pool.admission_stats().expect("admission layer is on");
        assert_eq!(snap.overflow_queued, 0);
        assert_eq!(snap.outstanding, 0);

        // The pool stays usable on both paths: the same graph completes
        // under an unbounded budget, and fresh submissions are admitted.
        let stats = graph.execute(&pool, &table).unwrap();
        assert_eq!(stats.tasks, n as usize);
        let after = Arc::new(AtomicUsize::new(0));
        let a = Arc::clone(&after);
        assert!(matches!(
            pool.submit(
                Priority::Low,
                Box::new(move |_| {
                    a.fetch_add(1, Ordering::SeqCst);
                })
            ),
            SubmitOutcome::Admitted
        ));
        let a2 = Arc::clone(&after);
        wait_until("post-fault submission runs", move || {
            a2.load(Ordering::SeqCst) == 1
        });
    }
}
