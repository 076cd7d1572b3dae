//! The explorer: memoized depth-first search over the model's state graph,
//! with counterexample path extraction.
//!
//! The state graph is finite and — apart from stutter steps, which the model
//! does not generate — acyclic: every action strictly advances a well-founded
//! measure (tasks move from queues into workers, program counters advance,
//! counters and the latch only decrease between resets, and the run index
//! only increases).  DFS with a visited set therefore terminates, visits
//! every reachable state exactly once, and every maximal path ends in a
//! terminal state that [`Model::check_terminal`] vets — which is how the
//! liveness properties ("every ready strand is eventually claimed", "the
//! drain terminates") reduce to a safety check on terminal states.

use crate::model::{Action, Config, Model, Violation};
use crate::state::{FastBuildHasher, State};
use std::collections::HashSet;
use std::fmt;

/// Exploration statistics, reported by the CI sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Distinct states visited (after symmetry canonicalization, if on).
    pub states: u64,
    /// Transitions taken (including transitions into already-visited states).
    pub transitions: u64,
    /// Terminal (quiescent) states vetted.
    pub terminals: u64,
}

impl CheckStats {
    pub fn absorb(&mut self, other: CheckStats) {
        self.states += other.states;
        self.transitions += other.transitions;
        self.terminals += other.terminals;
    }
}

/// A concrete interleaving ending in an invariant violation.
#[derive(Clone, Debug)]
pub struct Counterexample {
    pub violation: Violation,
    /// The actions from the initial state to the violating step (for a
    /// terminal-state violation, to the stuck state).
    pub path: Vec<Action>,
    pub stats: CheckStats,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.violation)?;
        writeln!(f, "counterexample ({} steps):", self.path.len())?;
        for (i, action) in self.path.iter().enumerate() {
            writeln!(f, "  {:>3}. {action}", i + 1)?;
        }
        write!(
            f,
            "({} states, {} transitions explored before the violation)",
            self.stats.states, self.stats.transitions
        )
    }
}

struct Dfs {
    model: Model,
    visited: HashSet<State, FastBuildHasher>,
    path: Vec<Action>,
    stats: CheckStats,
}

impl Dfs {
    fn explore(&mut self, s: &State) -> Result<(), Counterexample> {
        let key = if self.model.config.symmetry {
            s.worker_canonical(self.model.config.workers)
        } else {
            s.clone()
        };
        if !self.visited.insert(key) {
            return Ok(());
        }
        self.stats.states += 1;
        let succs = self.model.successors(s);
        if succs.is_empty() {
            self.stats.terminals += 1;
            return self
                .model
                .check_terminal(s)
                .map_err(|v| self.counterexample(v));
        }
        for (action, next) in succs {
            self.stats.transitions += 1;
            self.path.push(action);
            match next {
                Err(violation) => return Err(self.counterexample(violation)),
                Ok(next) => self.explore(&next)?,
            }
            self.path.pop();
        }
        Ok(())
    }

    fn counterexample(&self, violation: Violation) -> Counterexample {
        Counterexample {
            violation,
            path: self.path.clone(),
            stats: self.stats,
        }
    }
}

/// Exhaustively explores `config`'s state space.  Returns exploration
/// statistics, or the first counterexample found.
pub fn check(config: Config) -> Result<CheckStats, Box<Counterexample>> {
    let model = Model::new(config);
    let initial = model.initial_state();
    let mut dfs = Dfs {
        model,
        visited: HashSet::with_hasher(FastBuildHasher::default()),
        path: Vec::new(),
        stats: CheckStats::default(),
    };
    dfs.explore(&initial).map_err(Box::new)?;
    Ok(dfs.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Dag;
    use crate::model::{Fault, Mutation};

    fn diamond() -> Dag {
        Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn clean_diamond_has_no_violations() {
        for workers in 1..=3 {
            let stats = check(Config::new(diamond(), workers, Fault::None)).unwrap();
            assert!(stats.states > 0);
            assert!(stats.terminals > 0);
        }
    }

    #[test]
    fn faulted_diamond_has_no_violations() {
        for workers in 1..=3 {
            for fault in [Fault::PanicAt(0), Fault::PanicAt(3), Fault::DeadlineAnytime] {
                check(Config::new(diamond(), workers, fault)).unwrap();
            }
        }
    }

    #[test]
    fn symmetry_reduction_preserves_the_verdict_and_shrinks_the_space() {
        let full = {
            let mut c = Config::new(diamond(), 3, Fault::None);
            c.symmetry = false;
            check(c).unwrap()
        };
        let reduced = check(Config::new(diamond(), 3, Fault::None)).unwrap();
        assert!(
            reduced.states < full.states,
            "expected symmetry to prune: {} !< {}",
            reduced.states,
            full.states
        );
    }

    #[test]
    fn skip_counter_restore_is_caught_with_a_counterexample() {
        let mut c = Config::new(diamond(), 1, Fault::None);
        c.mutation = Mutation::SkipCounterRestore;
        let cex = check(c).unwrap_err();
        assert!(
            matches!(
                cex.violation,
                Violation::CounterNotRestored { .. } | Violation::ClaimUnready { .. }
            ),
            "unexpected violation: {}",
            cex.violation
        );
        let rendered = cex.to_string();
        assert!(rendered.contains("counterexample"), "{rendered}");
        assert!(rendered.contains("claim"), "{rendered}");
    }

    #[test]
    fn skip_drain_count_down_hangs_the_cancelled_run() {
        let mut c = Config::new(diamond(), 2, Fault::PanicAt(0));
        c.mutation = Mutation::SkipDrainCountDown;
        let cex = check(c).unwrap_err();
        assert!(
            matches!(
                cex.violation,
                Violation::Stuck { .. } | Violation::LatchNotReleased { .. }
            ),
            "unexpected violation: {}",
            cex.violation
        );
    }

    #[test]
    fn drop_second_ready_deadlocks() {
        // A fork: 0 → {1, 2}.  Claiming 0 readies both successors; dropping
        // the second loses a strand forever.
        let fork = Dag::from_edges(3, &[(0, 1), (0, 2)]);
        let mut c = Config::new(fork, 1, Fault::None);
        c.mutation = Mutation::DropSecondReady;
        let cex = check(c).unwrap_err();
        assert!(
            matches!(cex.violation, Violation::Stuck { .. }),
            "unexpected violation: {}",
            cex.violation
        );
    }

    #[test]
    fn spawn_ready_twice_double_claims() {
        let fork = Dag::from_edges(3, &[(0, 1), (0, 2)]);
        let mut c = Config::new(fork, 1, Fault::None);
        c.mutation = Mutation::SpawnReadyTwice;
        let cex = check(c).unwrap_err();
        assert!(
            matches!(
                cex.violation,
                Violation::DoubleClaim { .. } | Violation::LatchUnderflow
            ),
            "unexpected violation: {}",
            cex.violation
        );
    }

    #[test]
    fn shared_result_slot_tears_with_two_workers() {
        // Two independent tasks, two workers: both can be mid-work at once.
        let parallel = Dag::from_edges(2, &[]);
        let mut c = Config::new(parallel, 2, Fault::None);
        c.mutation = Mutation::SharedResultSlot;
        let cex = check(c).unwrap_err();
        assert!(
            matches!(cex.violation, Violation::TornWrite { .. }),
            "unexpected violation: {}",
            cex.violation
        );
        // …but is indistinguishable from correct with a single worker, which
        // is exactly why the sweep runs the full worker matrix.
        let mut c1 = Config::new(parallel, 1, Fault::None);
        c1.mutation = Mutation::SharedResultSlot;
        check(c1).unwrap();
    }

    #[test]
    fn drop_chain_batch_never_releases_the_latch() {
        // 0 → 1 → {2, 3}: task 1 is tail-executed after 0 and then readies
        // two successors, so the chain 0, 1 ends on the spawn-and-return
        // exit owing two latch units; counting down only one strands it.
        let chain_then_fork = Dag::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let mut c = Config::new(chain_then_fork, 1, Fault::None);
        c.mutation = Mutation::DropChainBatch;
        let cex = check(c).unwrap_err();
        assert!(
            matches!(
                cex.violation,
                Violation::LatchNotReleased { .. } | Violation::Stuck { .. }
            ),
            "unexpected violation: {}",
            cex.violation
        );
        assert!(
            cex.to_string().contains("count_down_by(1)"),
            "the counterexample ends on the short batch:\n{cex}"
        );
        // A fork straight from a root owes nothing beyond its last task, so
        // the regression only shows once a chain precedes the spill.
        let fork = Dag::from_edges(3, &[(0, 1), (0, 2)]);
        let mut c = Config::new(fork, 1, Fault::None);
        c.mutation = Mutation::DropChainBatch;
        check(c).unwrap();
    }

    #[test]
    fn two_ready_successors_spill_instead_of_tail_executing() {
        // The executor's tail rule: with two ready successors both go onto
        // the deque (the held one pushed last) and the worker ends its chain.
        let fork = Dag::from_edges(3, &[(0, 1), (0, 2)]);
        let model = Model::new(Config::new(fork, 1, Fault::None));
        let mut s = model.initial_state();
        let mut trace = Vec::new();
        while let Some((action, next)) = model.successors(&s).into_iter().next() {
            trace.push(action);
            s = next.unwrap();
            if matches!(action, Action::CountDown { task: 0, .. }) {
                break;
            }
        }
        assert!(
            matches!(
                trace.last(),
                Some(Action::CountDown {
                    tail: None,
                    batch: 1,
                    ..
                })
            ),
            "{trace:?}"
        );
        assert!(trace.contains(&Action::Spawn {
            worker: 0,
            task: 0,
            succ: 1
        }));
        assert_eq!(s.deques[0].as_slice(), &[2, 1]);
    }
}
