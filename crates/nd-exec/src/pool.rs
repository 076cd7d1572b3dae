//! A thread pool whose workers mirror a PMH machine tree.
//!
//! [`HierarchicalPool`] instantiates `nd-runtime`'s work-stealing pool with a
//! [`PoolTopology`] derived from a [`MachineTree`]: one worker per simulated
//! processor, one queue group per cache instance (so a task anchored at any
//! cache level has a queue only that subtree's workers poll), and a per-worker
//! victim order that steals from the closest workers first — measured by the
//! level of the lowest cache the thief and victim share.
//!
//! The steal *distance* of every successful deque steal is recorded by the
//! underlying pool: distance 0 means thief and victim share a level-1 cache,
//! distance `d` means the lowest common cache is at level `d + 1`, and the
//! largest class means the steal crossed the root memory.  Cross-cluster
//! steals (distance ≥ 1) are exactly the locality violations flat work
//! stealing commits freely; [`StealPolicy::Strict`] forbids them outright,
//! which is the paper's anchoring property enforced to the letter.

use nd_pmh::machine::{MachineTree, ProcId};
use nd_pmh::topology::detect_host;
use nd_runtime::pool::{Job, PoolTopology, ThreadPool};

/// How far idle workers may steal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StealPolicy {
    /// Steal from anyone, nearest cluster first (work-conserving; cross-cluster
    /// steals are permitted but counted).
    NearestFirst,
    /// Steal only from workers sharing a level-1 cache (paper-faithful
    /// anchoring: a task anchored to a subcluster can never leave it).
    Strict,
}

/// A work-stealing pool shaped like a PMH machine tree.
pub struct HierarchicalPool {
    pool: ThreadPool,
    machine: MachineTree,
    policy: StealPolicy,
}

impl HierarchicalPool {
    /// Builds a pool with one worker per processor of `machine`.
    pub fn new(machine: MachineTree, policy: StealPolicy) -> Self {
        let topology = topology_of(&machine, policy);
        HierarchicalPool {
            pool: ThreadPool::with_topology(topology),
            machine,
            policy,
        }
    }

    /// Builds a pool mirroring the detected host hierarchy.
    pub fn from_host(policy: StealPolicy) -> Self {
        HierarchicalPool::new(detect_host().machine(), policy)
    }

    /// The underlying thread pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// The machine tree this pool mirrors.
    pub fn machine(&self) -> &MachineTree {
        &self.machine
    }

    /// The steal policy the pool was built with.
    pub fn policy(&self) -> StealPolicy {
        self.policy
    }

    /// Number of worker threads (= processors of the machine tree).
    pub fn num_workers(&self) -> usize {
        self.pool.num_threads()
    }

    /// Number of level-1 subclusters (the innermost worker groups).
    pub fn cluster_count(&self) -> usize {
        self.machine.caches_at_level(1).len()
    }

    /// Submits a job restricted to the subcluster of one cache instance.
    pub fn spawn_to_cache(&self, cache: nd_pmh::machine::CacheId, job: Job) {
        self.pool.spawn_to_group(cache.0 as usize, job);
    }

    /// Successful deque steals bucketed by distance class (0 = same level-1
    /// cache, rising with the level of the lowest common cache).
    pub fn steals_by_distance(&self) -> Vec<u64> {
        self.pool.steals_by_distance()
    }

    /// Steals that left a level-1 subcluster (distance ≥ 1).  Always zero under
    /// [`StealPolicy::Strict`].
    pub fn cross_cluster_steals(&self) -> u64 {
        self.steals_by_distance().iter().skip(1).sum()
    }
}

/// The distance class between two workers: the index (into the thief's cache
/// path) of the lowest cache containing both, or one past the last level when
/// only the root memory is shared.
fn worker_distance(machine: &MachineTree, a: usize, b: usize) -> usize {
    let path = machine.path_of(ProcId(a as u32));
    for (i, &cache) in path.iter().enumerate() {
        if machine.cache(cache).processors.contains(&ProcId(b as u32)) {
            return i;
        }
    }
    path.len()
}

/// A *flat* topology (single group, ring-order locality-blind stealing) that
/// still carries `machine`'s distance classification, so the steal counters
/// reveal how many steals plain work stealing commits across the machine's
/// cluster boundaries.  This is the instrumented baseline `tests/scaling_steals.rs`
/// compares the anchored executor's steal locality against.
pub fn flat_topology_with_distances(machine: &MachineTree) -> PoolTopology {
    let p = machine.processor_count();
    let mut topology = PoolTopology::flat(p);
    for w in 0..p {
        topology.steal_distance[w] = (0..p).map(|v| worker_distance(machine, w, v)).collect();
    }
    topology
}

/// Derives the pool topology of a machine tree.
fn topology_of(machine: &MachineTree, policy: StealPolicy) -> PoolTopology {
    let p = machine.processor_count();
    let num_groups = machine.cache_count();
    let mut groups_of_worker = Vec::with_capacity(p);
    let mut steal_order = Vec::with_capacity(p);
    let mut steal_distance = Vec::with_capacity(p);
    for w in 0..p {
        groups_of_worker.push(
            machine
                .path_of(ProcId(w as u32))
                .iter()
                .map(|c| c.0 as usize)
                .collect::<Vec<_>>(),
        );
        let distances: Vec<usize> = (0..p).map(|v| worker_distance(machine, w, v)).collect();
        let mut order: Vec<usize> = (0..p).filter(|&v| v != w).collect();
        order.sort_by_key(|&v| (distances[v], v));
        if policy == StealPolicy::Strict {
            order.retain(|&v| distances[v] == 0);
        }
        steal_order.push(order);
        steal_distance.push(distances);
    }
    PoolTopology {
        num_threads: p,
        num_groups,
        groups_of_worker,
        steal_order,
        steal_distance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_pmh::config::PmhConfig;

    fn machine() -> MachineTree {
        // 2 cache levels: L1s hold 2 workers, L2s hold 2 L1s, 2 L2s → 8 workers.
        MachineTree::build(&PmhConfig::new(
            vec![
                nd_pmh::config::CacheLevelSpec::new(64, 2, 10),
                nd_pmh::config::CacheLevelSpec::new(512, 2, 100),
            ],
            2,
        ))
    }

    #[test]
    fn steal_order_is_nearest_cluster_first() {
        let m = machine();
        let topo = topology_of(&m, StealPolicy::NearestFirst);
        assert_eq!(topo.num_threads, 8);
        // Worker 0 shares its L1 with worker 1, its L2 with workers 2–3, and
        // nothing below the root with workers 4–7.
        assert_eq!(topo.steal_order[0][0], 1);
        assert_eq!(&topo.steal_order[0][1..3], &[2, 3]);
        assert_eq!(&topo.steal_order[0][3..], &[4, 5, 6, 7]);
        assert_eq!(topo.steal_distance[0][1], 0);
        assert_eq!(topo.steal_distance[0][2], 1);
        assert_eq!(topo.steal_distance[0][5], 2);
        // Distances are symmetric.
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(topo.steal_distance[a][b], topo.steal_distance[b][a]);
            }
        }
    }

    #[test]
    fn strict_policy_only_keeps_l1_siblings() {
        let m = machine();
        let topo = topology_of(&m, StealPolicy::Strict);
        for w in 0..8 {
            assert_eq!(topo.steal_order[w].len(), 1, "one L1 sibling each");
            assert_eq!(topo.steal_distance[w][topo.steal_order[w][0]], 0);
        }
    }

    #[test]
    fn flat_topology_keeps_machine_distances_but_ring_order() {
        let m = machine();
        let topo = flat_topology_with_distances(&m);
        assert_eq!(topo.num_groups, 1, "flat baseline has a single group");
        // Ring order: worker 0 steals 1, 2, … in index order (locality-blind).
        assert_eq!(topo.steal_order[0], vec![1, 2, 3, 4, 5, 6, 7]);
        // But distances still classify cluster boundaries for the counters.
        assert_eq!(topo.steal_distance[0][1], 0);
        assert_eq!(topo.steal_distance[0][2], 1);
        assert_eq!(topo.steal_distance[0][4], 2);
        assert_eq!(topo.max_distance(), 2);
    }

    #[test]
    fn groups_follow_the_cache_paths() {
        let m = machine();
        let topo = topology_of(&m, StealPolicy::NearestFirst);
        assert_eq!(topo.num_groups, m.cache_count());
        for w in 0..topo.num_threads {
            let path = m.path_of(ProcId(w as u32));
            assert_eq!(topo.groups_of_worker[w].len(), path.len());
            // Innermost group first (the level-1 cache).
            assert_eq!(topo.groups_of_worker[w][0], path[0].0 as usize);
        }
    }

    #[test]
    fn idle_clusters_steal_cross_cluster_and_strict_ones_never_do() {
        // Load only the first L1 subcluster (workers {0, 1}) and leave the
        // other three idle.  Under `NearestFirst` the idle workers must help
        // by stealing across the cluster boundary — observed through the
        // distance-classified steal counters — while under `Strict` the same
        // workload must finish with zero cross-cluster steals.
        use nd_runtime::latch::CountLatch;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let run = |policy: StealPolicy| -> (u64, Vec<u64>, Vec<u64>) {
            let pool = HierarchicalPool::new(machine(), policy);
            let first_l1 = pool.machine().caches_at_level(1)[0];
            let jobs = 400;
            let latch = Arc::new(CountLatch::new(jobs));
            let ran_on: Arc<Vec<AtomicU64>> =
                Arc::new((0..pool.num_workers()).map(|_| AtomicU64::new(0)).collect());
            for _ in 0..jobs {
                let l = Arc::clone(&latch);
                let r = Arc::clone(&ran_on);
                pool.spawn_to_cache(
                    first_l1,
                    Box::new(move |ctx| {
                        let mut x = 0u64;
                        for i in 0..100_000u64 {
                            x = x.wrapping_mul(31).wrapping_add(i);
                        }
                        std::hint::black_box(x);
                        r[ctx.worker_index].fetch_add(1, Ordering::Relaxed);
                        l.count_down();
                    }),
                );
            }
            latch.wait();
            let counts = ran_on.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            (
                pool.cross_cluster_steals(),
                pool.steals_by_distance(),
                counts,
            )
        };

        let (cross, by_distance, _) = run(StealPolicy::NearestFirst);
        assert!(
            cross > 0,
            "idle clusters should have stolen across the boundary: {by_distance:?}"
        );
        assert_eq!(cross, by_distance[1] + by_distance[2]);

        let (cross_strict, _, counts) = run(StealPolicy::Strict);
        assert_eq!(
            cross_strict, 0,
            "strict stealing must never leave the cluster"
        );
        // ... and under strict anchoring the work really stayed on workers 0–1.
        assert_eq!(
            counts[0] + counts[1],
            400,
            "strict run leaked work: {counts:?}"
        );
        assert!(counts[2..].iter().all(|&c| c == 0));
    }

    #[test]
    fn pool_runs_jobs_and_counts_no_steals_when_idle() {
        let pool = HierarchicalPool::new(machine(), StealPolicy::NearestFirst);
        assert_eq!(pool.num_workers(), 8);
        assert_eq!(pool.cluster_count(), 4);
        let latch = std::sync::Arc::new(nd_runtime::latch::CountLatch::new(1));
        let l = std::sync::Arc::clone(&latch);
        pool.pool().spawn(Box::new(move |_| l.count_down()));
        latch.wait();
        assert_eq!(pool.steals_by_distance().len(), 3);
    }
}
