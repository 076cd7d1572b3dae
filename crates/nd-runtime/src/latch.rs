//! Counting latches for completion detection.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A latch that starts at a given count and releases waiters when it reaches zero.
///
/// Decrements are `AcqRel` read-modify-writes and the final decrement wakes all
/// waiters, so a thread returning from [`CountLatch::wait`] observes all writes
/// performed by the threads that counted the latch down.  A thread may count
/// down several units in one step (`count_down_by`, crate-internal): the
/// dataflow executor counts down once per inline chain, not once per task.
#[derive(Debug)]
pub struct CountLatch {
    remaining: AtomicUsize,
    mutex: Mutex<()>,
    condvar: Condvar,
}

impl CountLatch {
    /// Creates a latch with the given initial count.
    pub fn new(count: usize) -> Self {
        CountLatch {
            remaining: AtomicUsize::new(count),
            mutex: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    /// The current count.
    pub fn count(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    /// Re-arms a released latch with a fresh count, so one latch can serve
    /// many sequential rendezvous without reallocation (the persistent run
    /// state of [`crate::dataflow`] re-arms its latch before every execution).
    ///
    /// # Panics
    /// Panics (in debug builds) if the latch has not been released: resetting
    /// a latch that threads still count down or wait on would corrupt both
    /// rendezvous.
    pub fn reset(&self, count: usize) {
        debug_assert_eq!(
            self.remaining.load(Ordering::Acquire),
            0,
            "CountLatch::reset on a latch that is still in use"
        );
        self.remaining.store(count, Ordering::Release);
    }

    /// Decrements the count by one; when it reaches zero all waiters are woken.
    ///
    /// # Panics
    /// Panics (in debug builds) if the latch is decremented below zero.
    pub fn count_down(&self) {
        self.count_down_by(1);
    }

    /// Decrements the count by `k` in one `AcqRel` read-modify-write; the
    /// decrement that brings it to zero wakes all waiters.  `k == 0` is a
    /// no-op.  The dataflow executor calls this once per inline chain with
    /// the number of tasks the chain claimed, so a chain writes the latch's
    /// cache line once instead of once per task.
    ///
    /// # Panics
    /// Panics (in debug builds) if the latch is decremented below zero.
    #[inline]
    pub(crate) fn count_down_by(&self, k: usize) {
        if k == 0 {
            return;
        }
        let prev = self.remaining.fetch_sub(k, Ordering::AcqRel);
        debug_assert!(prev >= k, "CountLatch decremented below zero");
        if prev == k {
            let _guard = self.mutex.lock();
            self.condvar.notify_all();
        }
    }

    /// Blocks until the count reaches zero.
    pub fn wait(&self) {
        if self.remaining.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut guard = self.mutex.lock();
        while self.remaining.load(Ordering::Acquire) != 0 {
            self.condvar.wait(&mut guard);
        }
    }

    /// `true` if the latch has reached zero.
    pub fn is_released(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn single_threaded_count_down() {
        let latch = CountLatch::new(3);
        assert_eq!(latch.count(), 3);
        assert!(!latch.is_released());
        latch.count_down();
        latch.count_down();
        latch.count_down();
        assert!(latch.is_released());
        latch.wait(); // does not block
    }

    #[test]
    fn wait_blocks_until_other_threads_finish() {
        let latch = Arc::new(CountLatch::new(4));
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&latch);
            let c = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
                l.count_down();
            }));
        }
        latch.wait();
        // All increments must be visible after wait().
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn batched_count_down_releases_exactly_when_the_batches_sum_to_the_count() {
        let latch = CountLatch::new(10);
        latch.count_down_by(3);
        assert_eq!(latch.count(), 7);
        latch.count_down_by(6);
        assert!(!latch.is_released());
        latch.count_down_by(1);
        assert!(latch.is_released());
        latch.wait(); // does not block
                      // Re-armed, a single batch of the whole count releases it too.
        latch.reset(4);
        latch.count_down_by(4);
        assert!(latch.is_released());
    }

    #[test]
    fn count_down_by_zero_is_a_no_op() {
        let latch = CountLatch::new(2);
        latch.count_down_by(0);
        assert_eq!(latch.count(), 2);
        latch.count_down_by(2);
        latch.count_down_by(0); // on a released latch: no underflow, no wake
        assert_eq!(latch.count(), 0);
        assert!(latch.is_released());
    }

    #[test]
    fn uneven_batches_from_four_threads_publish_their_writes() {
        // Thread i writes `i + 1` values, then counts all of them down in
        // batches of up to i + 1; the waiter must see every write.
        let per_thread: Vec<usize> = vec![1, 7, 30, 200];
        let total: usize = per_thread.iter().sum();
        let latch = Arc::new(CountLatch::new(total));
        let slots: Arc<Vec<AtomicUsize>> =
            Arc::new((0..total).map(|_| AtomicUsize::new(0)).collect());
        let mut handles = Vec::new();
        let mut base = 0usize;
        for (i, &len) in per_thread.iter().enumerate() {
            let (l, s) = (Arc::clone(&latch), Arc::clone(&slots));
            let batch = i + 1;
            handles.push(thread::spawn(move || {
                let mut done = 0usize;
                while done < len {
                    let k = batch.min(len - done);
                    for slot in &s[base + done..base + done + k] {
                        slot.store(i + 1, Ordering::Relaxed);
                    }
                    done += k;
                    l.count_down_by(k);
                }
            }));
            base += len;
        }
        latch.wait();
        let mut base = 0usize;
        for (i, &len) in per_thread.iter().enumerate() {
            for slot in &slots[base..base + len] {
                assert_eq!(
                    slot.load(Ordering::Relaxed),
                    i + 1,
                    "thread {i}'s write lost"
                );
            }
            base += len;
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn zero_count_is_immediately_released() {
        let latch = CountLatch::new(0);
        assert!(latch.is_released());
        latch.wait();
    }
}
