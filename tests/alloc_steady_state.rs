//! Counting-allocator proof of the allocation-free steady state: once a
//! compiled algorithm has warmed up (run state built, per-worker packing
//! scratch grown to its compile-time high-water mark, deque buffers at
//! capacity), re-executing it performs **zero heap allocations** — on the
//! row-major layout with GEMM panel packing active, and on the tile-packed
//! layout.  Runs at every pool size of the `ND_POOL_WORKERS` CI matrix.

use nd_algorithms::common::Mode;
use nd_algorithms::driver::bind_layout;
use nd_algorithms::driver::ContextExtras;
use nd_algorithms::exec::Layout;
use nd_algorithms::mm::build_mm;
use nd_algorithms::{cholesky, driver};
use nd_linalg::Matrix;
use nd_runtime::pool::reserve_pack_scratch;
use nd_runtime::ThreadPool;
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

mod common;

/// Wraps the system allocator and counts allocations while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter is a
// side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts heap allocations performed anywhere in the process while `f` runs.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst) - before
}

/// Forces every worker of the pool to grow its thread-local packing scratch
/// to `len` now, so no worker pays that allocation during the measured runs
/// (a worker idle through warm-up would otherwise first touch its arena
/// mid-measurement).  The barrier keeps each worker on its first job until
/// all workers have taken one, so the jobs cannot pile onto one thread.
fn reserve_scratch_on_all_workers(pool: &ThreadPool, len: usize) {
    let workers = pool.num_threads();
    let barrier = Arc::new(Barrier::new(workers + 1));
    for _ in 0..workers {
        let b = Arc::clone(&barrier);
        pool.spawn(Box::new(move |_| {
            reserve_pack_scratch(len);
            b.wait();
        }));
    }
    barrier.wait();
}

#[test]
fn compiled_reexecution_with_packing_scratch_allocates_nothing() {
    let n = 32;
    let base = 8;
    for workers in common::pool_sizes() {
        let pool = ThreadPool::new(workers);

        // --- Row-major MM: strided operands, so GEMM panel packing is live. ---
        let built = build_mm(n, base, Mode::Nd, 1.0);
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let mut c = Matrix::zeros(n, n);
        let mut am = a.clone();
        let mut bm = b.clone();
        let (_storage, ctx) = bind_layout(
            &mut [&mut c, &mut am, &mut bm],
            base,
            Layout::RowMajor,
            ContextExtras::None,
        );
        let compiled = driver::compile(&built, &ctx);
        // The compile-time high-water mark is exactly the `k × n` panel of
        // `B` of the largest strided multiply: only `B` is packed, and there
        // is no pad.
        assert_eq!(
            compiled.pack_scratch_len(),
            base * base,
            "row-major MM packs one B panel per multiply, nothing else"
        );
        // The deque shim pre-reserves 1024 slots; stay far under it so a
        // queue can never grow mid-measurement.
        assert!(
            compiled.task_count() < 512,
            "keep the graph under the deque capacity"
        );
        reserve_scratch_on_all_workers(&pool, compiled.pack_scratch_len());
        // Warm up: builds the persistent run state, reaches every queue's
        // high-water mark.
        for _ in 0..3 {
            c.as_mut_slice().fill(0.0);
            let stats = compiled.execute_steady(&pool).expect("steady run");
            assert_eq!(stats.tasks, compiled.task_count());
        }
        // Steady state: re-initialisation + re-execution, zero allocations.
        let allocs = count_allocs(|| {
            for _ in 0..5 {
                c.as_mut_slice().fill(0.0);
                let stats = compiled.execute_steady(&pool).expect("steady run");
                assert_eq!(stats.tasks, compiled.task_count());
            }
        });
        assert_eq!(
            allocs, 0,
            "row-major steady-state re-execution allocated ({workers} workers)"
        );
        let mut expected = Matrix::zeros(n, n);
        nd_linalg::gemm::gemm_naive(&mut expected, &a, &b, 1.0, 0.0);
        assert!(c.max_abs_diff(&expected) < 1e-9, "result must stay correct");

        // --- Tile-packed Cholesky: contiguous tiles, no packing needed. ---
        let built = cholesky::build_cholesky(n, base, Mode::Nd);
        let spd = Matrix::random_spd(n, 3);
        let mut l = spd.clone();
        let (mut storage, ctx) =
            bind_layout(&mut [&mut l], base, Layout::Tiled, ContextExtras::None);
        let compiled = driver::compile(&built, &ctx);
        assert_eq!(
            compiled.pack_scratch_len(),
            0,
            "tile-packed operands are contiguous; packing must be off"
        );
        for _ in 0..3 {
            storage[0].pack_from(&spd);
            compiled.execute_steady(&pool).expect("steady run");
        }
        let allocs = count_allocs(|| {
            for _ in 0..5 {
                storage[0].pack_from(&spd);
                let stats = compiled.execute_steady(&pool).expect("steady run");
                assert_eq!(stats.tasks, compiled.task_count());
            }
        });
        assert_eq!(
            allocs, 0,
            "tile-packed steady-state re-execution allocated ({workers} workers)"
        );
    }
}
