//! Randomized DAGs and the precedence-checking task table shared by the
//! executor test binaries that include this file.

// Each including binary uses a subset of these helpers.
#![allow(dead_code)]

use nd_runtime::dataflow::TaskTable;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Deterministic random predecessor lists: task `j` depends on each task in a
/// window of earlier tasks with probability `density_percent`%.  (Edges always
/// point forward, so the graph is acyclic by construction.)
pub fn random_preds(n: usize, density_percent: u64, seed: u64) -> Vec<Vec<usize>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (j, p) in preds.iter_mut().enumerate().skip(1) {
        let window = 24.min(j);
        for i in (j - window)..j {
            if next() % 100 < density_percent {
                p.push(i);
            }
        }
    }
    preds
}

/// A task table that records per-task run counts and precedence
/// violations (a task observing an unfinished predecessor at start time).
pub struct Probe {
    preds: Vec<Vec<usize>>,
    done: Vec<AtomicBool>,
    pub runs: Vec<AtomicU32>,
    pub violations: AtomicU32,
}

impl Probe {
    pub fn new(preds: Vec<Vec<usize>>) -> Self {
        let n = preds.len();
        Probe {
            preds,
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            runs: (0..n).map(|_| AtomicU32::new(0)).collect(),
            violations: AtomicU32::new(0),
        }
    }

    pub fn reset_round(&self) {
        for d in &self.done {
            d.store(false, Ordering::SeqCst);
        }
    }

    pub fn assert_round(&self, round: u32, label: &str) {
        assert_eq!(self.violations.load(Ordering::SeqCst), 0, "{label}");
        assert!(
            self.runs.iter().all(|r| r.load(Ordering::SeqCst) == round),
            "{label}: every task must have run exactly {round} times"
        );
    }
}

impl TaskTable for Probe {
    fn run_task(&self, task: u32) {
        let j = task as usize;
        for &p in &self.preds[j] {
            if !self.done[p].load(Ordering::SeqCst) {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
        }
        self.runs[j].fetch_add(1, Ordering::SeqCst);
        // The flag write is the task's final action, so a successor
        // observing it may rely on everything before it.
        self.done[j].store(true, Ordering::SeqCst);
    }
}

pub fn edges_of(preds: &[Vec<usize>]) -> Vec<(u32, u32)> {
    preds
        .iter()
        .enumerate()
        .flat_map(|(j, ps)| ps.iter().map(move |&i| (i as u32, j as u32)))
        .collect()
}
