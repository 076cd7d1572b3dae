//! The model's global state: a finite snapshot of everything the executor
//! protocol shares between workers, compact enough to memoize millions of
//! times.
//!
//! Each field mirrors one shared object in `nd-runtime` (see NOTATION.md for
//! the full mapping):
//!
//! | model field      | real object                                          |
//! |------------------|------------------------------------------------------|
//! | `pending`        | `CompiledGraph::pending` (live atomic counters)      |
//! | `claimed`        | the exactly-once property itself (ghost state)       |
//! | `executed`       | which tasks' work ran (ghost state)                  |
//! | `drained`        | claims that skipped work in a cancelled run (ghost)  |
//! | `latch`          | `ActiveRun::latch` (`CountLatch`)                    |
//! | `cancelled`      | `FaultCell::cancelled`                               |
//! | `injector`       | the pool's global injector (roots are submitted there)|
//! | `deques[w]`      | worker `w`'s Chase–Lev deque                         |
//! | `workers[w]`     | worker `w`'s program counter inside `run_graph_task` |

use std::hash::{BuildHasherDefault, Hasher};

/// The model checks DAGs up to this many tasks (the ISSUE's small-N bound).
pub const MAX_TASKS: usize = 6;
/// The model checks pools of 1–3 workers.
pub const MAX_WORKERS: usize = 3;
/// Sentinel for "no task" in packed fields.
pub const NO_TASK: u8 = u8::MAX;

/// A bounded task queue.  Owners push and pop at the back (LIFO, the
/// depth-first local order); thieves and injector consumers take from the
/// front (FIFO) — exactly the Chase–Lev discipline of `nd-runtime::pool`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Deque {
    items: [u8; MAX_TASKS],
    len: u8,
}

impl Deque {
    pub fn push_back(&mut self, t: u8) {
        assert!((self.len as usize) < MAX_TASKS, "deque overflow");
        self.items[self.len as usize] = t;
        self.len += 1;
    }

    pub fn pop_back(&mut self) -> Option<u8> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let t = self.items[self.len as usize];
        self.items[self.len as usize] = 0; // keep unused slots canonical for Eq/Hash
        Some(t)
    }

    pub fn take_front(&mut self) -> Option<u8> {
        if self.len == 0 {
            return None;
        }
        let t = self.items[0];
        self.items.copy_within(1..self.len as usize, 0);
        self.len -= 1;
        self.items[self.len as usize] = 0;
        Some(t)
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// The contents, front to back.
    pub fn as_slice(&self) -> &[u8] {
        &self.items[..self.len as usize]
    }

    /// The back element (the owner's next pop), if any.
    pub fn last(&self) -> Option<&u8> {
        self.as_slice().last()
    }

    /// The front element (the next steal / injector take), if any.
    pub fn first(&self) -> Option<&u8> {
        self.as_slice().first()
    }
}

/// A worker's program counter inside `run_graph_task` — one variant per
/// distinct shared-memory program point, so every interleaving of the real
/// atomics is a distinct path through the model.
///
/// `owed` is the chain's batched latch debt: the number of tasks this call of
/// `run_graph_task` claimed *before* the current one (the code's local
/// `done`, minus the current task).  The latch is only written at the chain
/// end, which subtracts `owed + 1` in one step.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WorkerPc {
    /// In `find_work`: no task in hand.
    Idle,
    /// Holds `task` freshly taken from a queue, or tail-executed inline; the
    /// next step is the claim (counter restore + cancellation/deadline gate).
    Claiming { task: u8, owed: u8 },
    /// Past the fault gate: the task's work is running.  Two workers
    /// simultaneously `Working` on the same result slot is the torn-write
    /// hazard the `PivotStore` invariant forbids.
    Working { task: u8, owed: u8 },
    /// In `finish_successors`: `next_succ` counts decrements already done;
    /// `first_ready` ([`NO_TASK`] if none yet, or once pushed) is the first
    /// successor that became ready, held back for inline tail-execution;
    /// `spilled` records that a second one became ready too (it and any later
    /// ones were pushed at their decrement).  Once every successor is
    /// decremented (`next_succ == successor count`) the worker either
    /// tail-executes `first_ready` (exactly one ready: the `CountDown` action
    /// with a tail), or — when `spilled` — first pushes `first_ready` (the
    /// `Spawn` action) and then ends the chain with its batched
    /// `latch.count_down_by(owed + 1)` (`CountDown` without a tail).
    Finishing {
        task: u8,
        next_succ: u8,
        first_ready: u8,
        spilled: bool,
        owed: u8,
    },
}

/// One global protocol state.  `Eq + Hash` so the checker can memoize it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct State {
    /// Live dependency counters, one per task.
    pub pending: [u8; MAX_TASKS],
    /// Bitmask: tasks whose claim has begun (ghost — the double-claim check).
    pub claimed: u8,
    /// Bitmask: tasks whose work ran to completion.
    pub executed: u8,
    /// Bitmask: tasks claimed in a cancelled run (full protocol, no work).
    pub drained: u8,
    /// The run's `CountLatch` value.
    pub latch: u8,
    /// How many times the latch has hit zero this run (must end at exactly 1).
    pub latch_zeroed: u8,
    /// `FaultCell::cancelled`.
    pub cancelled: bool,
    /// Whether the configured injected fault has fired yet.
    pub fault_fired: bool,
    /// Which execution of the reusable graph this is (`Reset` increments it).
    pub run: u8,
    /// The pool's global injector; roots are submitted here in ascending
    /// order before workers start.
    pub injector: Deque,
    /// Per-worker deques (indices past the configured worker count unused).
    pub deques: [Deque; MAX_WORKERS],
    /// Per-worker program counters.
    pub workers: [WorkerPc; MAX_WORKERS],
}

impl State {
    /// Canonicalizes under worker symmetry: in a flat-topology pool the
    /// workers are interchangeable (every action is available to every
    /// worker, steals target any victim), so states differing only by a
    /// permutation of the `(pc, deque)` pairs are behaviourally identical.
    /// Sorting the pairs picks one representative per orbit, cutting the
    /// visited set by up to `workers!`.
    pub fn worker_canonical(&self, workers: usize) -> State {
        let mut s = self.clone();
        // Insertion sort of ≤ 3 (pc, deque) pairs by their encoded ordering.
        for i in 1..workers {
            let mut j = i;
            while j > 0 && Self::worker_key(&s, j) < Self::worker_key(&s, j - 1) {
                s.workers.swap(j, j - 1);
                s.deques.swap(j, j - 1);
                j -= 1;
            }
        }
        s
    }

    fn worker_key(s: &State, w: usize) -> (WorkerPc, Deque) {
        (s.workers[w], s.deques[w])
    }
}

// WorkerPc ordering for the canonical sort: derive-by-hand to avoid exposing
// an Ord with semantic meaning.
impl PartialOrd for WorkerPc {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorkerPc {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(pc: &WorkerPc) -> (u8, u8, u8, u8, bool, u8) {
            match *pc {
                WorkerPc::Idle => (0, 0, 0, 0, false, 0),
                WorkerPc::Claiming { task, owed } => (1, task, 0, 0, false, owed),
                WorkerPc::Working { task, owed } => (2, task, 0, 0, false, owed),
                WorkerPc::Finishing {
                    task,
                    next_succ,
                    first_ready,
                    spilled,
                    owed,
                } => (3, task, next_succ, first_ready, spilled, owed),
            }
        }
        rank(self).cmp(&rank(other))
    }
}

impl PartialOrd for Deque {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Deque {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.len, self.items).cmp(&(other.len, other.items))
    }
}

/// A fast, non-cryptographic hasher for the memoization set (the default
/// SipHash costs a measurable fraction of exploration time on millions of
/// small states).  Multiply-rotate mixing in the FxHash family.
#[derive(Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut v = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                v |= (b as u64) << (8 * i);
            }
            self.mix(v);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FastHasher`]-keyed sets.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deque_is_lifo_for_owner_fifo_for_thief() {
        let mut d = Deque::default();
        d.push_back(1);
        d.push_back(2);
        d.push_back(3);
        assert_eq!(d.pop_back(), Some(3));
        assert_eq!(d.take_front(), Some(1));
        assert_eq!(d.pop_back(), Some(2));
        assert_eq!(d.pop_back(), None);
        assert_eq!(d.take_front(), None);
    }

    #[test]
    fn popped_deques_compare_equal_to_fresh_ones() {
        // Stale item slots must not leak into Eq/Hash.
        let mut d = Deque::default();
        d.push_back(5);
        d.pop_back();
        assert_eq!(d, Deque::default());
    }

    #[test]
    fn worker_canonicalization_sorts_pairs() {
        let mut s = State {
            pending: [0; MAX_TASKS],
            claimed: 0,
            executed: 0,
            drained: 0,
            latch: 0,
            latch_zeroed: 0,
            cancelled: false,
            fault_fired: false,
            run: 0,
            injector: Deque::default(),
            deques: [Deque::default(); MAX_WORKERS],
            workers: [
                WorkerPc::Working { task: 2, owed: 0 },
                WorkerPc::Idle,
                WorkerPc::Claiming { task: 1, owed: 0 },
            ],
        };
        s.deques[0].push_back(4);
        let canon = s.worker_canonical(3);
        assert_eq!(
            canon.workers,
            [
                WorkerPc::Idle,
                WorkerPc::Claiming { task: 1, owed: 0 },
                WorkerPc::Working { task: 2, owed: 0 }
            ]
        );
        // Deque 0 travelled with its worker (now at index 2).
        assert_eq!(canon.deques[2].len(), 1);
        // Permuted states share one canonical form.
        let mut t = s.clone();
        t.workers.swap(0, 1);
        t.deques.swap(0, 1);
        assert_eq!(t.worker_canonical(3), canon);
    }
}
