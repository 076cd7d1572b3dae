//! The transition system: which actions are enabled in a state, what each
//! does to the shared objects, and which invariant each can violate.
//!
//! Every action is one shared-memory step of the real protocol
//! (`nd-runtime::dataflow::run_graph_task` plus the pool's take/steal paths),
//! at the granularity of its atomics: taking a task from a queue, the claim
//! (counter restore + fault gate), the work, each successor `fetch_sub`, the
//! push of a held ready successor, the chain's batched latch count-down, and
//! the reusable graph's reset.  Safety violations are reported *on the
//! transition that commits them*, so a counterexample path ends exactly at
//! the faulty step.

use crate::dag::Dag;
use crate::state::{Deque, State, WorkerPc, MAX_TASKS, MAX_WORKERS, NO_TASK};
use std::fmt;

/// The injected fault of a model configuration, mirroring `nd-runtime`'s two
/// fault sources.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Clean run: no fault.
    None,
    /// The given task's work panics (on the first run; the second run models
    /// the post-recovery re-execution, which the real executor documents as
    /// supported after a faulted run).
    PanicAt(u8),
    /// The `RunBudget` deadline may be observed blown at *any* claim — the
    /// model branches nondeterministically at every claim until it trips, so
    /// all trip points are explored.
    DeadlineAnytime,
}

/// Deliberate protocol regressions.  Each mutation removes one line of the
/// real protocol; the checker must find a counterexample for every one of
/// them (and none for [`Mutation::None`]) — this is the model's own test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// The faithful protocol.
    None,
    /// The claim forgets to restore the dependency counter from its initial
    /// count (drops `CompiledGraph::claim_restore`): the re-executed run
    /// finds stale counters.
    SkipCounterRestore,
    /// Drained claims are left out of the chain's batched count-down (the
    /// code's `done` skips them): a cancelled run's latch never releases and
    /// the drain hangs.
    SkipDrainCountDown,
    /// Only the first ready successor is scheduled; further ready successors
    /// are dropped instead of pushed — a lost-wakeup deadlock.
    DropSecondReady,
    /// The tail-executed successor is *also* pushed onto the deque, so two
    /// workers can run it — breaks exactly-once claiming.
    SpawnReadyTwice,
    /// Every task writes result slot 0 instead of its own slot — the torn
    /// concurrent write the `PivotStore` ownership discipline forbids.
    SharedResultSlot,
    /// The spawn-and-return chain end counts down only its last task instead
    /// of the chain's whole batch (`owed + 1`): the tasks tail-executed before
    /// it are never counted and the latch never releases.
    DropChainBatch,
}

/// One model-checking configuration: a DAG shape, a worker count, a fault,
/// how many back-to-back runs to explore, and an optional mutation.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub dag: Dag,
    pub workers: usize,
    pub fault: Fault,
    /// `2` exercises the reset/re-arm transition (counters must be
    /// bit-restored for the second run to claim correctly); `1` for quick
    /// sweeps.
    pub runs: u8,
    pub mutation: Mutation,
    /// Prune the visited set by worker symmetry (sound for a flat-topology
    /// pool; see [`State::worker_canonical`]).
    pub symmetry: bool,
}

impl Config {
    /// A clean two-run configuration with symmetry reduction on.
    pub fn new(dag: Dag, workers: usize, fault: Fault) -> Self {
        assert!((1..=MAX_WORKERS).contains(&workers));
        Config {
            dag,
            workers,
            fault,
            runs: 2,
            mutation: Mutation::None,
            symmetry: true,
        }
    }
}

/// Where an [`Action::Take`] got its task.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TakeSource {
    /// Popped from the worker's own deque (back — the depth-first order).
    OwnDeque,
    /// Taken from the global injector (front).
    Injector,
    /// Stolen from `victim`'s deque (front — breadth-first theft).
    Steal { victim: u8 },
}

/// One atomic protocol step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Worker `worker` takes `task` from a queue.
    Take {
        worker: u8,
        task: u8,
        source: TakeSource,
    },
    /// Worker `worker` claims `task`: counter restore plus the
    /// cancellation/deadline gate.  `deadline_trips` marks the branch where
    /// the armed deadline is observed blown at this claim.
    Claim {
        worker: u8,
        task: u8,
        deadline_trips: bool,
    },
    /// Worker `worker` runs `task`'s work (`panics` if the injected fault
    /// fires here).
    Work { worker: u8, task: u8, panics: bool },
    /// Worker `worker` decrements successor `succ` of `task` (`now_ready` if
    /// the counter hit zero).
    Decrement {
        worker: u8,
        task: u8,
        succ: u8,
        now_ready: bool,
    },
    /// Worker `worker` ends `task`'s successor loop having found two or more
    /// ready successors: it pushes the held first one, `succ`, onto its own
    /// deque too (the others were pushed at their decrements).
    Spawn { worker: u8, task: u8, succ: u8 },
    /// Worker `worker` is done with `task`: with a `tail` (exactly one
    /// successor became ready) it tail-executes it and carries the chain's
    /// latch debt along without touching the latch; without one the chain
    /// ends and the latch is counted down by `batch` (the chain's
    /// `owed + 1`) in one step.
    CountDown {
        worker: u8,
        task: u8,
        tail: Option<u8>,
        batch: u8,
    },
    /// The external thread observes the latch released and re-arms the
    /// reusable graph for its next run.
    Reset,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Action::Take {
                worker,
                task,
                source,
            } => match source {
                TakeSource::OwnDeque => write!(f, "w{worker}: pop t{task} from own deque"),
                TakeSource::Injector => write!(f, "w{worker}: take t{task} from injector"),
                TakeSource::Steal { victim } => {
                    write!(f, "w{worker}: steal t{task} from w{victim}")
                }
            },
            Action::Claim {
                worker,
                task,
                deadline_trips,
            } => {
                if deadline_trips {
                    write!(
                        f,
                        "w{worker}: claim t{task} — deadline observed blown, run cancelled"
                    )
                } else {
                    write!(f, "w{worker}: claim t{task} (restore counter, fault gate)")
                }
            }
            Action::Work {
                worker,
                task,
                panics,
            } => {
                if panics {
                    write!(f, "w{worker}: work t{task} — PANICS, run cancelled")
                } else {
                    write!(f, "w{worker}: work t{task}")
                }
            }
            Action::Decrement {
                worker,
                task,
                succ,
                now_ready,
            } => {
                if now_ready {
                    write!(
                        f,
                        "w{worker}: decrement t{succ} (successor of t{task}) → READY"
                    )
                } else {
                    write!(f, "w{worker}: decrement t{succ} (successor of t{task})")
                }
            }
            Action::Spawn { worker, task, succ } => {
                write!(f, "w{worker}: push held t{succ} (successor of t{task})")
            }
            Action::CountDown {
                worker,
                task,
                tail,
                batch,
            } => match tail {
                Some(t) => write!(f, "w{worker}: done with t{task}, tail-exec t{t}"),
                None => write!(
                    f,
                    "w{worker}: chain ends at t{task}, latch.count_down_by({batch}), go idle"
                ),
            },
            Action::Reset => write!(f, "external: latch released — reset graph for next run"),
        }
    }
}

/// A violated invariant, reported on the transition (or terminal state) that
/// exposes it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// A task was claimed twice — exactly-once execution broken.
    DoubleClaim { task: u8 },
    /// A task was claimed while its dependency counter was still nonzero.
    ClaimUnready { task: u8, pending: u8 },
    /// A dependency counter was decremented below zero.
    CounterUnderflow { task: u8 },
    /// The latch was counted below zero (it reached zero more than once).
    LatchUnderflow,
    /// Two workers were concurrently inside work that writes the same result
    /// slot — a torn `PivotStore`-style write.
    TornWrite { slot: u8, writer: u8, other: u8 },
    /// At quiescence a live counter did not equal its initial count.
    CounterNotRestored { task: u8, expected: u8, found: u8 },
    /// At quiescence the latch had not released exactly once.
    LatchNotReleased { latch: u8, zeroed: u8 },
    /// Terminal state with unclaimed tasks: a ready strand is never claimed
    /// (lost wakeup) or the drain failed to terminate the run.
    Stuck { unclaimed_mask: u8, latch: u8 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::DoubleClaim { task } => write!(f, "double claim of t{task}"),
            Violation::ClaimUnready { task, pending } => {
                write!(f, "claim of unready t{task} (pending = {pending})")
            }
            Violation::CounterUnderflow { task } => {
                write!(f, "dependency counter underflow on t{task}")
            }
            Violation::LatchUnderflow => write!(f, "latch counted below zero"),
            Violation::TornWrite {
                slot,
                writer,
                other,
            } => {
                write!(
                    f,
                    "torn write: t{writer} and t{other} concurrently in slot {slot}"
                )
            }
            Violation::CounterNotRestored {
                task,
                expected,
                found,
            } => write!(
                f,
                "counter of t{task} not restored at quiescence (expected {expected}, found {found})"
            ),
            Violation::LatchNotReleased { latch, zeroed } => write!(
                f,
                "latch not released exactly once at quiescence (latch = {latch}, zeroed {zeroed}×)"
            ),
            Violation::Stuck {
                unclaimed_mask,
                latch,
            } => write!(
                f,
                "stuck: terminal state with unclaimed tasks {unclaimed_mask:#08b} (latch = {latch})"
            ),
        }
    }
}

/// The transition system for one [`Config`].
pub struct Model {
    pub config: Config,
    initial_preds: [u8; MAX_TASKS],
    full_mask: u8,
}

impl Model {
    pub fn new(config: Config) -> Self {
        let n = config.dag.task_count();
        assert!((1..=MAX_TASKS).contains(&n));
        Model {
            initial_preds: config.dag.initial_preds(),
            full_mask: ((1u16 << n) - 1) as u8,
            config,
        }
    }

    /// The initial state: counters at their initial counts, the latch armed
    /// at the task count, and the roots submitted to the global injector in
    /// ascending order (the order `execute` pushes them).
    pub fn initial_state(&self) -> State {
        let mut injector = Deque::default();
        for r in self.config.dag.roots() {
            injector.push_back(r);
        }
        State {
            pending: self.initial_preds,
            claimed: 0,
            executed: 0,
            drained: 0,
            latch: self.config.dag.task_count() as u8,
            latch_zeroed: 0,
            cancelled: false,
            fault_fired: false,
            run: 0,
            injector,
            deques: [Deque::default(); MAX_WORKERS],
            workers: [WorkerPc::Idle; MAX_WORKERS],
        }
    }

    fn bit(task: u8) -> u8 {
        1 << task
    }

    /// The result slot task `t`'s work writes — its own index, unless the
    /// [`Mutation::SharedResultSlot`] regression aliases every task to slot 0.
    fn slot(&self, t: u8) -> u8 {
        if self.config.mutation == Mutation::SharedResultSlot {
            0
        } else {
            t
        }
    }

    /// All enabled transitions from `s`.  `Err` marks a transition that
    /// commits an invariant violation.
    pub fn successors(&self, s: &State) -> Vec<(Action, Result<State, Violation>)> {
        let mut out = Vec::new();
        for w in 0..self.config.workers {
            match s.workers[w] {
                WorkerPc::Idle => self.take_actions(s, w, &mut out),
                WorkerPc::Claiming { task, owed } => {
                    out.push((
                        Action::Claim {
                            worker: w as u8,
                            task,
                            deadline_trips: false,
                        },
                        self.claim(s, w, task, owed, false),
                    ));
                    if self.config.fault == Fault::DeadlineAnytime && !s.fault_fired && !s.cancelled
                    {
                        out.push((
                            Action::Claim {
                                worker: w as u8,
                                task,
                                deadline_trips: true,
                            },
                            self.claim(s, w, task, owed, true),
                        ));
                    }
                }
                WorkerPc::Working { task, owed } => {
                    let panics =
                        self.config.fault == Fault::PanicAt(task) && s.run == 0 && !s.fault_fired;
                    out.push((
                        Action::Work {
                            worker: w as u8,
                            task,
                            panics,
                        },
                        self.work(s, w, task, owed, panics),
                    ));
                }
                WorkerPc::Finishing {
                    task,
                    next_succ,
                    first_ready,
                    spilled,
                    owed,
                } => {
                    let nsucc = self.config.dag.successor_count(task as usize);
                    if (next_succ as usize) < nsucc {
                        let succ =
                            self.config.dag.successor(task as usize, next_succ as usize) as u8;
                        let now_ready = s.pending[succ as usize] == 1;
                        out.push((
                            Action::Decrement {
                                worker: w as u8,
                                task,
                                succ,
                                now_ready,
                            },
                            self.decrement(s, w, succ),
                        ));
                    } else if spilled && first_ready != NO_TASK {
                        let mut n = s.clone();
                        n.deques[w].push_back(first_ready);
                        n.workers[w] = WorkerPc::Finishing {
                            task,
                            next_succ,
                            first_ready: NO_TASK,
                            spilled,
                            owed,
                        };
                        out.push((
                            Action::Spawn {
                                worker: w as u8,
                                task,
                                succ: first_ready,
                            },
                            Ok(n),
                        ));
                    } else {
                        let (action, next) =
                            self.count_down(s, w, task, first_ready, spilled, owed);
                        out.push((action, next));
                    }
                }
            }
        }
        if self.reset_enabled(s) {
            out.push((Action::Reset, self.reset(s)));
        }
        out
    }

    fn take_actions(&self, s: &State, w: usize, out: &mut Vec<(Action, Result<State, Violation>)>) {
        // Mirrors find_work's sources: own deque (back), then the global
        // injector (front), then steals (victim front).  The model exposes
        // all three as independently-enabled actions rather than a fixed
        // priority, so every interleaving the relaxed real ordering permits
        // is explored.  A failed steal (victim emptied between size check and
        // CAS) leaves the state unchanged — a stutter step — so it is not
        // generated.
        if let Some(&t) = s.deques[w].last() {
            let mut n = s.clone();
            n.deques[w].pop_back();
            n.workers[w] = WorkerPc::Claiming { task: t, owed: 0 };
            out.push((
                Action::Take {
                    worker: w as u8,
                    task: t,
                    source: TakeSource::OwnDeque,
                },
                Ok(n),
            ));
        }
        if let Some(&t) = s.injector.first() {
            let mut n = s.clone();
            n.injector.take_front();
            n.workers[w] = WorkerPc::Claiming { task: t, owed: 0 };
            out.push((
                Action::Take {
                    worker: w as u8,
                    task: t,
                    source: TakeSource::Injector,
                },
                Ok(n),
            ));
        }
        for v in 0..self.config.workers {
            if v == w {
                continue;
            }
            if let Some(&t) = s.deques[v].first() {
                let mut n = s.clone();
                n.deques[v].take_front();
                n.workers[w] = WorkerPc::Claiming { task: t, owed: 0 };
                out.push((
                    Action::Take {
                        worker: w as u8,
                        task: t,
                        source: TakeSource::Steal { victim: v as u8 },
                    },
                    Ok(n),
                ));
            }
        }
    }

    fn claim(
        &self,
        s: &State,
        w: usize,
        t: u8,
        owed: u8,
        deadline_trips: bool,
    ) -> Result<State, Violation> {
        if s.claimed & Self::bit(t) != 0 {
            return Err(Violation::DoubleClaim { task: t });
        }
        if s.pending[t as usize] != 0 {
            return Err(Violation::ClaimUnready {
                task: t,
                pending: s.pending[t as usize],
            });
        }
        let mut n = s.clone();
        n.claimed |= Self::bit(t);
        if self.config.mutation != Mutation::SkipCounterRestore {
            n.pending[t as usize] = self.initial_preds[t as usize];
        }
        if deadline_trips {
            n.cancelled = true;
            n.fault_fired = true;
        }
        if n.cancelled {
            // Drain: full claim protocol, no work.
            n.drained |= Self::bit(t);
            n.workers[w] = Self::finishing(t, owed);
        } else {
            // Entering the work window: this is where a second concurrent
            // writer of the same result slot would manifest.
            for v in 0..self.config.workers {
                if v == w {
                    continue;
                }
                if let WorkerPc::Working { task: u, .. } = s.workers[v] {
                    if self.slot(u) == self.slot(t) {
                        return Err(Violation::TornWrite {
                            slot: self.slot(t),
                            writer: t,
                            other: u,
                        });
                    }
                }
            }
            n.workers[w] = WorkerPc::Working { task: t, owed };
        }
        Ok(n)
    }

    /// The program counter entering `t`'s successor loop.
    fn finishing(t: u8, owed: u8) -> WorkerPc {
        WorkerPc::Finishing {
            task: t,
            next_succ: 0,
            first_ready: NO_TASK,
            spilled: false,
            owed,
        }
    }

    fn work(&self, s: &State, w: usize, t: u8, owed: u8, panics: bool) -> Result<State, Violation> {
        let mut n = s.clone();
        if panics {
            // The unwind is caught; the fault cell records it and cancels the
            // run.  The task is neither executed nor drained.
            n.fault_fired = true;
            n.cancelled = true;
        } else {
            n.executed |= Self::bit(t);
        }
        n.workers[w] = Self::finishing(t, owed);
        Ok(n)
    }

    /// One successor `fetch_sub` by worker `w`, which is in its successor
    /// loop (`Finishing`).
    fn decrement(&self, s: &State, w: usize, succ: u8) -> Result<State, Violation> {
        let WorkerPc::Finishing {
            task,
            next_succ,
            mut first_ready,
            mut spilled,
            owed,
        } = s.workers[w]
        else {
            unreachable!("decrement outside the successor loop")
        };
        if s.pending[succ as usize] == 0 {
            return Err(Violation::CounterUnderflow { task: succ });
        }
        let mut n = s.clone();
        n.pending[succ as usize] -= 1;
        if n.pending[succ as usize] == 0 {
            if first_ready == NO_TASK {
                first_ready = succ;
                if self.config.mutation == Mutation::SpawnReadyTwice {
                    // Pushed as well as held — the held copy and the deque
                    // copy will both be claimed.
                    n.deques[w].push_back(succ);
                }
            } else {
                spilled = true;
                if self.config.mutation != Mutation::DropSecondReady {
                    n.deques[w].push_back(succ);
                }
                // else: the ready successor is silently lost.
            }
        }
        n.workers[w] = WorkerPc::Finishing {
            task,
            next_succ: next_succ + 1,
            first_ready,
            spilled,
            owed,
        };
        Ok(n)
    }

    /// The end of `t`'s successor loop: tail-execute the lone ready
    /// successor (carrying the chain's latch debt along), or end the chain
    /// with one batched latch count-down and go idle.
    fn count_down(
        &self,
        s: &State,
        w: usize,
        t: u8,
        first_ready: u8,
        spilled: bool,
        owed: u8,
    ) -> (Action, Result<State, Violation>) {
        let mut n = s.clone();
        let counted = !(self.config.mutation == Mutation::SkipDrainCountDown
            && s.drained & Self::bit(t) != 0);
        let owed = owed + counted as u8;
        let action = |tail, batch| Action::CountDown {
            worker: w as u8,
            task: t,
            tail,
            batch,
        };
        if first_ready != NO_TASK {
            // Inline tail-execution: the lone ready successor runs in place
            // (drained claims tail-exec too — the drain must visit every
            // task), and the latch is not touched yet.
            debug_assert!(
                !spilled,
                "a spilled chain end pushes its held successor first"
            );
            n.workers[w] = WorkerPc::Claiming {
                task: first_ready,
                owed,
            };
            return (action(Some(first_ready), 0), Ok(n));
        }
        let batch = if spilled && self.config.mutation == Mutation::DropChainBatch {
            1
        } else {
            owed
        };
        n.workers[w] = WorkerPc::Idle;
        if n.latch < batch {
            return (action(None, batch), Err(Violation::LatchUnderflow));
        }
        n.latch -= batch;
        if batch > 0 && n.latch == 0 {
            n.latch_zeroed += 1;
        }
        (action(None, batch), Ok(n))
    }

    fn quiescent(&self, s: &State) -> bool {
        s.claimed == self.full_mask
            && s.injector.is_empty()
            && (0..self.config.workers)
                .all(|w| s.workers[w] == WorkerPc::Idle && s.deques[w].is_empty())
    }

    fn reset_enabled(&self, s: &State) -> bool {
        s.run + 1 < self.config.runs && self.quiescent(s)
    }

    fn reset(&self, s: &State) -> Result<State, Violation> {
        self.check_quiescence(s)?;
        let mut n = self.initial_state();
        n.run = s.run + 1;
        // The injected fault was consumed; the next run models the
        // documented post-fault recovery (re-execute after the faulted run).
        n.fault_fired = s.fault_fired;
        Ok(n)
    }

    /// The quiescence invariants: counters bit-restored, latch released
    /// exactly once.
    fn check_quiescence(&self, s: &State) -> Result<(), Violation> {
        for t in 0..self.config.dag.task_count() {
            if s.pending[t] != self.initial_preds[t] {
                return Err(Violation::CounterNotRestored {
                    task: t as u8,
                    expected: self.initial_preds[t],
                    found: s.pending[t],
                });
            }
        }
        if s.latch != 0 || s.latch_zeroed != 1 {
            return Err(Violation::LatchNotReleased {
                latch: s.latch,
                zeroed: s.latch_zeroed,
            });
        }
        Ok(())
    }

    /// Checks a terminal state (one with no enabled transitions).  The only
    /// legal terminal state is full quiescence of the final run; anything
    /// else is a liveness failure — a ready strand never claimed, or a drain
    /// that failed to release the run.
    pub fn check_terminal(&self, s: &State) -> Result<(), Violation> {
        if !self.quiescent(s) || s.run + 1 != self.config.runs {
            return Err(Violation::Stuck {
                unclaimed_mask: self.full_mask & !s.claimed,
                latch: s.latch,
            });
        }
        self.check_quiescence(s)
    }
}
