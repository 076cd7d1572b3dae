//! Kernel-dispatch correctness: the AVX2+FMA microkernels against the scalar
//! oracle, the forced-scalar dispatch against the original kernels
//! bit-for-bit, and the end-to-end executor across the `ND_POOL_WORKERS`
//! matrix under both kernel paths.
//!
//! The dispatch mode is process-global (`nd_linalg::simd`), so every test
//! that toggles or depends on it serialises on [`DISPATCH_LOCK`] and restores
//! the ambient (env-resolved) mode before releasing it.  On hosts without
//! AVX2+FMA — or under `ND_FORCE_SCALAR=1` — the "simd" side of each
//! comparison resolves to the scalar path and the agreement checks hold
//! trivially; the bit-identity checks are the ones doing the work there.

use nd_algorithms::common::Mode;
use nd_algorithms::mm::multiply_parallel;
use nd_linalg::gemm::{
    gemm_block, gemm_block_packed, gemm_block_scalar, gemm_naive, gemm_nt_block,
    gemm_nt_block_scalar, gemm_pack_len,
};
use nd_linalg::getrf::{trsm_unit_lower_block, trsm_unit_lower_block_ptr};
use nd_linalg::potrf::{potrf_block, potrf_block_ptr};
use nd_linalg::simd::force_scalar;
use nd_linalg::trsm::{
    trsm_lower_block, trsm_lower_block_ptr, trsm_right_lower_trans_block,
    trsm_right_lower_trans_block_ptr,
};
use nd_linalg::Matrix;
use nd_runtime::ThreadPool;
use proptest::prelude::*;
use std::sync::Mutex;

mod common;

/// Serialises every test that reads or writes the process-global kernel
/// dispatch (the test binary runs tests on parallel threads).
static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

fn lock_dispatch() -> std::sync::MutexGuard<'static, ()> {
    DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `scalar` under the forced-scalar path and `vector` under the ambient
/// (env-resolved) path, holding the dispatch lock across both.
fn scalar_then_ambient(scalar: impl FnOnce(), vector: impl FnOnce()) {
    let _g = lock_dispatch();
    force_scalar(true);
    scalar();
    force_scalar(false);
    vector();
}

/// Per-element agreement bound for a `k`-term fused accumulation: each side
/// performs at most `k` multiply-accumulates plus the α fold, every rounding
/// is `≤ ε/2` relative, and errors compound along the chain.  `scale` is the
/// magnitude the roundings act on (Σ|α·a·b| + |c₀|).
fn fma_tol(k: usize, scale: f64) -> f64 {
    (2.0 * k as f64 + 4.0) * f64::EPSILON * scale.max(1.0)
}

/// A random matrix whose block `(rows × cols)` at offset `(r0, c0)` is the
/// view under test — the parent is larger, so the view is strided/ragged.
fn strided_parent(rows: usize, cols: usize, r0: usize, c0: usize, seed: u64) -> Matrix {
    Matrix::random(rows + r0 + 3, cols + c0 + 5, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `C += α·A·B` agrees between the SIMD and scalar kernels within the
    /// fused-accumulation error bound, on ragged shapes and non-trivial
    /// strides (sub-blocks of larger parents).
    #[test]
    fn gemm_simd_and_scalar_agree_within_ulp(
        m in 1usize..18,
        n in 1usize..18,
        k in 1usize..18,
        r0 in 0usize..3,
        c0 in 0usize..3,
        alpha_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let alpha = [1.0, -1.0, 0.5][alpha_sel];
        let ap = strided_parent(m, k, r0, c0, seed);
        let bp = strided_parent(k, n, c0, r0, seed + 1);
        let cp = strided_parent(m, n, r0, r0, seed + 2);
        let mut c_scalar = cp.clone();
        let mut c_simd = cp.clone();

        scalar_then_ambient(
            || {
                // SAFETY: disjoint blocks of distinct matrices, single thread.
                unsafe {
                    gemm_block(
                        c_scalar.as_ptr_view().block(r0, r0, m, n),
                        ap.clone().as_ptr_view().block(r0, c0, m, k),
                        bp.clone().as_ptr_view().block(c0, r0, k, n),
                        alpha,
                    );
                }
            },
            || {
                // SAFETY: as above.
                unsafe {
                    gemm_block(
                        c_simd.as_ptr_view().block(r0, r0, m, n),
                        ap.clone().as_ptr_view().block(r0, c0, m, k),
                        bp.clone().as_ptr_view().block(c0, r0, k, n),
                        alpha,
                    );
                }
            },
        );

        for i in 0..m {
            for j in 0..n {
                let mut scale = cp[(i + r0, j + r0)].abs();
                for p in 0..k {
                    scale += (alpha * ap[(i + r0, p + c0)] * bp[(p + c0, j + r0)]).abs();
                }
                let diff = (c_scalar[(i + r0, j + r0)] - c_simd[(i + r0, j + r0)]).abs();
                prop_assert!(
                    diff <= fma_tol(k, scale),
                    "gemm mismatch at ({i},{j}): {diff:e} > tol (k={k})"
                );
            }
        }
    }

    /// Same agreement for the `C += α·A·Bᵀ` kernel.
    #[test]
    fn gemm_nt_simd_and_scalar_agree_within_ulp(
        m in 1usize..18,
        n in 1usize..18,
        k in 1usize..18,
        r0 in 0usize..3,
        alpha_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let alpha = [1.0, -1.0, 0.5][alpha_sel];
        let ap = strided_parent(m, k, r0, 0, seed);
        let bp = strided_parent(n, k, 0, r0, seed + 1);
        let cp = strided_parent(m, n, r0, r0, seed + 2);
        let mut c_scalar = cp.clone();
        let mut c_simd = cp.clone();

        scalar_then_ambient(
            || {
                // SAFETY: disjoint blocks of distinct matrices, single thread.
                unsafe {
                    gemm_nt_block(
                        c_scalar.as_ptr_view().block(r0, r0, m, n),
                        ap.clone().as_ptr_view().block(r0, 0, m, k),
                        bp.clone().as_ptr_view().block(0, r0, n, k),
                        alpha,
                    );
                }
            },
            || {
                // SAFETY: as above.
                unsafe {
                    gemm_nt_block(
                        c_simd.as_ptr_view().block(r0, r0, m, n),
                        ap.clone().as_ptr_view().block(r0, 0, m, k),
                        bp.clone().as_ptr_view().block(0, r0, n, k),
                        alpha,
                    );
                }
            },
        );

        for i in 0..m {
            for j in 0..n {
                let mut scale = cp[(i + r0, j + r0)].abs();
                for p in 0..k {
                    scale += (alpha * ap[(i + r0, p)] * bp[(j, p + r0)]).abs();
                }
                let diff = (c_scalar[(i + r0, j + r0)] - c_simd[(i + r0, j + r0)]).abs();
                prop_assert!(
                    diff <= fma_tol(k, scale),
                    "gemm_nt mismatch at ({i},{j}): {diff:e} > tol (k={k})"
                );
            }
        }
    }

    /// Split-independence under the ambient dispatch: computing `C += A·B`
    /// in one kernel call is **bit-identical** to splitting the update along
    /// m, n or k into separate calls.  This is the property that makes
    /// results independent of the executor's block decomposition, and it
    /// must hold on the SIMD path exactly as it does on the scalar path
    /// (uniform fused-accumulate order in tiles and remainders).
    #[test]
    fn gemm_is_bit_identical_under_block_splits(
        m in 2usize..20,
        n in 2usize..20,
        k in 2usize..20,
        sm in 1usize..19,
        sn in 1usize..19,
        sk in 1usize..19,
        seed in 0u64..1000,
    ) {
        let sm = sm.min(m - 1);
        let sn = sn.min(n - 1);
        let sk = sk.min(k - 1);
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let c0 = Matrix::random(m, n, seed + 2);

        let _g = lock_dispatch();
        let mut ac = a.clone();
        let mut bc = b.clone();
        let mut whole = c0.clone();
        // SAFETY: single-threaded, exclusive views.
        unsafe {
            gemm_block(whole.as_ptr_view(), ac.as_ptr_view(), bc.as_ptr_view(), 1.0);
        }

        // k-split: two sequential rank-sk/rank-(k−sk) updates.
        let mut split = c0.clone();
        // SAFETY: as above; the two updates touch all of C sequentially.
        unsafe {
            let (cv, av, bv) = (split.as_ptr_view(), ac.as_ptr_view(), bc.as_ptr_view());
            gemm_block(cv, av.block(0, 0, m, sk), bv.block(0, 0, sk, n), 1.0);
            gemm_block(cv, av.block(0, sk, m, k - sk), bv.block(sk, 0, k - sk, n), 1.0);
        }
        prop_assert_eq!(whole.max_abs_diff(&split), 0.0, "k-split changed bits");

        // m×n quadrant split: four disjoint C blocks.
        let mut quad = c0.clone();
        // SAFETY: the four updates write disjoint C quadrants.
        unsafe {
            let (cv, av, bv) = (quad.as_ptr_view(), ac.as_ptr_view(), bc.as_ptr_view());
            for (ri, rh) in [(0, sm), (sm, m - sm)] {
                for (cj, cw) in [(0, sn), (sn, n - sn)] {
                    gemm_block(
                        cv.block(ri, cj, rh, cw),
                        av.block(ri, 0, rh, k),
                        bv.block(0, cj, k, cw),
                        1.0,
                    );
                }
            }
        }
        prop_assert_eq!(whole.max_abs_diff(&quad), 0.0, "quadrant split changed bits");
    }
}

/// One GEMM operand: a `rows × cols` view that is either a whole matrix
/// (contiguous) or a block of a larger parent (strided).
struct Operand {
    parent: Matrix,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
}

impl Operand {
    fn new(rows: usize, cols: usize, strided: bool, seed: u64) -> Self {
        let (r0, c0) = if strided { (1, 2) } else { (0, 0) };
        let parent = if strided {
            strided_parent(rows, cols, r0, c0, seed)
        } else {
            Matrix::random(rows, cols, seed)
        };
        Operand {
            parent,
            r0,
            c0,
            rows,
            cols,
        }
    }

    fn view(&mut self) -> nd_linalg::MatPtr {
        self.parent
            .as_ptr_view()
            .block(self.r0, self.c0, self.rows, self.cols)
    }

    fn at(&self, i: usize, j: usize) -> f64 {
        self.parent[(i + self.r0, j + self.c0)]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every tile shape of the vector kernel equals the fused-scalar chain
    /// `fma(a[i][p], α·b[p][j], acc)` in ascending `p`, **bit for bit**: all
    /// `(m mod 6, n mod 8)` remainder classes × contiguous/strided `A`, `B`,
    /// `C` × the three `α` specialisations.  The chain is taken twice: from
    /// the kernel's own remainder (a one-row multiply is all fused scalar) and
    /// spelled out with `f64::mul_add`.  Any tile shape that computes this
    /// chain gives the same bits, so the tile shape is free to change.
    /// Under `ND_FORCE_SCALAR` the row-at-a-time comparison still holds (the
    /// scalar kernels are split-independent too); the `mul_add` one is the
    /// vector path's alone.
    #[test]
    fn gemm_tiles_equal_the_fused_scalar_chain_bit_for_bit(
        strips in 0usize..3,
        tiles in 0usize..3,
        k in 1usize..20,
        seed in 0u64..1000,
    ) {
        let _g = lock_dispatch();
        let vector = nd_linalg::simd::simd_active();
        for (m, n) in (0..6).flat_map(|mr| (0..8).map(move |nr| (6 * strips + mr, 8 * tiles + nr))) {
            if m == 0 || n == 0 {
                continue;
            }
            for strided in 0..8u64 {
                let mut a = Operand::new(m, k, strided & 1 != 0, seed);
                let mut b = Operand::new(k, n, strided & 2 != 0, seed + 1);
                let c0 = Operand::new(m, n, strided & 4 != 0, seed + 2);
                for alpha in [1.0, -1.0, 0.37] {
                    let mut whole = Operand { parent: c0.parent.clone(), ..c0 };
                    let mut by_row = Operand { parent: c0.parent.clone(), ..c0 };
                    let mut packed = Operand { parent: c0.parent.clone(), ..c0 };
                    let mut scratch = vec![0.0; gemm_pack_len(m, n, k)];
                    // SAFETY: single-threaded; C is a distinct matrix from A
                    // and B, and the row blocks of C are disjoint.
                    unsafe {
                        gemm_block(whole.view(), a.view(), b.view(), alpha);
                        gemm_block_packed(packed.view(), a.view(), b.view(), alpha, &mut scratch);
                        for i in 0..m {
                            gemm_block(
                                by_row.view().block(i, 0, 1, n),
                                a.view().block(i, 0, 1, k),
                                b.view(),
                                alpha,
                            );
                        }
                    }
                    prop_assert_eq!(
                        whole.parent.max_abs_diff(&by_row.parent), 0.0,
                        "tile != remainder chain: m={} n={} k={} strided={:03b} alpha={}",
                        m, n, k, strided, alpha
                    );
                    prop_assert_eq!(
                        whole.parent.max_abs_diff(&packed.parent), 0.0,
                        "packing B changed bits: m={} n={} k={} strided={:03b} alpha={}",
                        m, n, k, strided, alpha
                    );
                    if vector {
                        for i in 0..m {
                            for j in 0..n {
                                let mut acc = c0.at(i, j);
                                for p in 0..k {
                                    acc = a.at(i, p).mul_add(alpha * b.at(p, j), acc);
                                }
                                prop_assert_eq!(
                                    whole.at(i, j).to_bits(), acc.to_bits(),
                                    "({},{}) != mul_add chain: m={} n={} k={} strided={:03b} alpha={}",
                                    i, j, m, n, k, strided, alpha
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The forced-scalar dispatcher is **bit-identical** to the pre-dispatch
/// scalar kernels — `ND_FORCE_SCALAR` reproduces the seed's numerics exactly.
#[test]
fn forced_scalar_dispatch_is_bit_identical_to_the_oracle() {
    for n in [1usize, 3, 4, 7, 8, 12, 16, 17, 31] {
        let a = Matrix::random(n, n, n as u64);
        let b = Matrix::random(n, n, n as u64 + 1);
        let c0 = Matrix::random(n, n, n as u64 + 2);

        let mut via_dispatch = c0.clone();
        let mut via_oracle = c0.clone();
        {
            let _g = lock_dispatch();
            force_scalar(true);
            // SAFETY: single-threaded, exclusive views.
            unsafe {
                gemm_block(
                    via_dispatch.as_ptr_view(),
                    a.clone().as_ptr_view(),
                    b.clone().as_ptr_view(),
                    -1.0,
                );
                gemm_block_scalar(
                    via_oracle.as_ptr_view(),
                    a.clone().as_ptr_view(),
                    b.clone().as_ptr_view(),
                    -1.0,
                );
            }
            force_scalar(false);
        }
        assert_eq!(
            via_dispatch.max_abs_diff(&via_oracle),
            0.0,
            "forced-scalar gemm dispatch diverged from the oracle at n={n}"
        );

        let mut nt_dispatch = c0.clone();
        let mut nt_oracle = c0.clone();
        {
            let _g = lock_dispatch();
            force_scalar(true);
            // SAFETY: as above.
            unsafe {
                gemm_nt_block(
                    nt_dispatch.as_ptr_view(),
                    a.clone().as_ptr_view(),
                    b.clone().as_ptr_view(),
                    1.0,
                );
                gemm_nt_block_scalar(
                    nt_oracle.as_ptr_view(),
                    a.clone().as_ptr_view(),
                    b.clone().as_ptr_view(),
                    1.0,
                );
            }
            force_scalar(false);
        }
        assert_eq!(
            nt_dispatch.max_abs_diff(&nt_oracle),
            0.0,
            "forced-scalar gemm_nt dispatch diverged from the oracle at n={n}"
        );
    }
}

/// A well-conditioned random lower-triangular matrix (diagonally dominant).
fn random_lower(n: usize, seed: u64) -> Matrix {
    let mut t = Matrix::random(n, n, seed);
    t.zero_upper_triangle();
    for i in 0..n {
        let row_sum: f64 = (0..n).map(|j| t[(i, j)].abs()).sum();
        t[(i, i)] = row_sum + 1.0;
    }
    t
}

/// The triangular-solve and factorization `*_ptr` dispatchers: forced-scalar
/// is bit-identical to the generic kernels, and the SIMD path agrees to
/// rounding on well-conditioned systems.
#[test]
fn trsm_and_potrf_ptr_dispatch_agree_with_the_generic_kernels() {
    for n in [1usize, 2, 4, 5, 8, 9, 13, 16, 24] {
        let t = random_lower(n, 7 * n as u64 + 1);
        let b0 = Matrix::random(n, n, 7 * n as u64 + 2);
        let spd = Matrix::random_spd(n, 7 * n as u64 + 3);

        // Forward solve T·X = B.
        let mut b_scalar = b0.clone();
        let mut b_generic = b0.clone();
        let mut b_simd = b0.clone();
        scalar_then_ambient(
            || {
                // SAFETY: single-threaded, exclusive views.
                unsafe {
                    trsm_lower_block_ptr(t.clone().as_ptr_view(), b_scalar.as_ptr_view());
                    trsm_lower_block(t.clone().as_ptr_view(), b_generic.as_ptr_view());
                }
            },
            || {
                // SAFETY: as above.
                unsafe {
                    trsm_lower_block_ptr(t.clone().as_ptr_view(), b_simd.as_ptr_view());
                }
            },
        );
        assert_eq!(
            b_scalar.max_abs_diff(&b_generic),
            0.0,
            "forced-scalar trsm diverged from the generic kernel at n={n}"
        );
        assert!(
            b_scalar.max_abs_diff(&b_simd) < 1e-12,
            "simd trsm disagrees at n={n}"
        );

        // Right solve X·Lᵀ = B.
        let mut r_scalar = b0.clone();
        let mut r_generic = b0.clone();
        let mut r_simd = b0.clone();
        scalar_then_ambient(
            || {
                // SAFETY: as above.
                unsafe {
                    trsm_right_lower_trans_block_ptr(
                        t.clone().as_ptr_view(),
                        r_scalar.as_ptr_view(),
                    );
                    trsm_right_lower_trans_block(t.clone().as_ptr_view(), r_generic.as_ptr_view());
                }
            },
            || {
                // SAFETY: as above.
                unsafe {
                    trsm_right_lower_trans_block_ptr(t.clone().as_ptr_view(), r_simd.as_ptr_view());
                }
            },
        );
        assert_eq!(
            r_scalar.max_abs_diff(&r_generic),
            0.0,
            "forced-scalar right-trsm diverged from the generic kernel at n={n}"
        );
        assert!(
            r_scalar.max_abs_diff(&r_simd) < 1e-12,
            "simd right-trsm disagrees at n={n}"
        );

        // Unit-diagonal forward solve (the LU update).
        let mut u_scalar = b0.clone();
        let mut u_generic = b0.clone();
        let mut u_simd = b0.clone();
        scalar_then_ambient(
            || {
                // SAFETY: as above.
                unsafe {
                    trsm_unit_lower_block_ptr(t.clone().as_ptr_view(), u_scalar.as_ptr_view());
                    trsm_unit_lower_block(t.clone().as_ptr_view(), u_generic.as_ptr_view());
                }
            },
            || {
                // SAFETY: as above.
                unsafe {
                    trsm_unit_lower_block_ptr(t.clone().as_ptr_view(), u_simd.as_ptr_view());
                }
            },
        );
        assert_eq!(
            u_scalar.max_abs_diff(&u_generic),
            0.0,
            "forced-scalar unit-trsm diverged from the generic kernel at n={n}"
        );
        assert!(
            u_scalar.max_abs_diff(&u_simd) < 1e-12,
            "simd unit-trsm disagrees at n={n}"
        );

        // Cholesky base case.
        let mut p_scalar = spd.clone();
        let mut p_generic = spd.clone();
        let mut p_simd = spd.clone();
        scalar_then_ambient(
            || {
                // SAFETY: as above.
                unsafe {
                    potrf_block_ptr(p_scalar.as_ptr_view());
                    potrf_block(p_generic.as_ptr_view());
                }
            },
            || {
                // SAFETY: as above.
                unsafe {
                    potrf_block_ptr(p_simd.as_ptr_view());
                }
            },
        );
        assert_eq!(
            p_scalar.max_abs_diff(&p_generic),
            0.0,
            "forced-scalar potrf diverged from the generic kernel at n={n}"
        );
        assert!(
            p_scalar.max_abs_diff(&p_simd) < 1e-10,
            "simd potrf disagrees at n={n}"
        );
    }
}

/// End-to-end through the executor across the `ND_POOL_WORKERS` matrix: the
/// parallel result is schedule-independent (bit-identical across pool sizes)
/// under **both** kernel paths, and numerically correct against the naive
/// triple loop.
#[test]
fn parallel_mm_is_schedule_independent_under_both_kernel_paths() {
    let n = 64;
    let base = 16;
    let a = Matrix::random(n, n, 11);
    let b = Matrix::random(n, n, 12);
    let mut expected = Matrix::zeros(n, n);
    gemm_naive(&mut expected, &a, &b, 1.0, 0.0);

    for forced in [false, true] {
        let _g = lock_dispatch();
        force_scalar(forced);
        let mut reference: Option<Matrix> = None;
        for workers in common::pool_sizes() {
            let pool = ThreadPool::new(workers);
            let mut c = Matrix::zeros(n, n);
            multiply_parallel(&pool, &a, &b, &mut c, Mode::Nd, base);
            assert!(
                c.max_abs_diff(&expected) < 1e-12,
                "parallel MM wrong (workers={workers}, forced_scalar={forced})"
            );
            match &reference {
                None => reference = Some(c),
                Some(r) => assert_eq!(
                    r.max_abs_diff(&c),
                    0.0,
                    "MM result depends on the pool size (workers={workers}, \
forced_scalar={forced})"
                ),
            }
        }
        force_scalar(false);
    }
}
