//! Runtime-dispatched SIMD microkernels (AVX2 + FMA) for the block kernels.
//!
//! The scalar 4×4 register-tiled kernels in [`crate::gemm`] leave most of an
//! AVX2 machine's FLOP peak on the table.  This module provides the vector
//! path: explicit `std::arch` intrinsics kernels with a **6×8 `f64` register
//! tile** for `C += α·A·B` (twelve YMM accumulators — six `C` rows by two
//! four-lane registers — plus two `B` vectors and one `A` broadcast: 15 of the
//! 16 YMM registers, 8 loads per 12 FMAs, so the `k`-loop is FMA-bound), and
//! dot-product kernels for the `Bᵀ` / triangular variants.  The loops carry no
//! software prefetch: every stream is linear, which the hardware prefetchers
//! follow on their own, and a hint would compete with the loads for issue
//! slots.
//!
//! # Dispatch
//!
//! Kernel selection is resolved once per process and cached in an atomic:
//!
//! * `ND_FORCE_SCALAR` set (to anything but `0`/empty) pins the scalar path —
//!   the deterministic-FP configuration used by the bit-identity test suites;
//! * otherwise `is_x86_feature_detected!("avx2")` + `("fma")` selects the
//!   vector path at runtime (never on non-x86_64 targets).
//!
//! The selection is deliberately independent of operand shape, stride and
//! layout, so within one process every GEMM/TRSM/POTRF block op runs the same
//! kernel family and cross-layout / packed-vs-unpacked / flat-vs-anchored
//! bit-identity is preserved.
//!
//! # Floating-point semantics
//!
//! FMA fuses multiply and add into one rounding, so the vector path is **not**
//! bit-identical to the scalar path (it agrees to a few ULPs per accumulated
//! term; see `tests/simd_kernels.rs` for the bound).  What the vector path
//! *does* preserve is the scalar path's split-independence: every element of
//! `C += α·A·B` receives `fma(a[i][p], α·b[p][j], acc)` in ascending-`p`
//! order — in the vector tiles of every shape **and** in the row/column
//! remainders (which use `f64::mul_add`) — so results are independent of how
//! the multiply is decomposed into blocks, exactly like the scalar kernels.
//! `α = 1` (no multiply) and `α = −1` (`fnmadd`) are specialised outside the
//! `k`-loop; both are exactly that chain, because `1·b` and `−b` are exact.
//! The triangular
//! solves use the matching fused `acc − t·b` update (`fnmadd`), keeping
//! blocked TRS decompositions (TRSM on diagonal blocks + GEMM updates with
//! `α = −1`) self-consistent in vector mode too.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel family [`simd_active`] resolved to for this process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// The always-available scalar 4×4 kernels (the bit-exact oracle path).
    Scalar,
    /// AVX2 + FMA vector kernels (6×8 f64 register tile).
    Avx2Fma,
}

const UNRESOLVED: u8 = 0;
const SCALAR: u8 = 1;
const VECTOR: u8 = 2;

/// Process-wide kernel selection: resolved on first use, re-resolved after
/// [`force_scalar`]`(false)`.
static MODE: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// `true` if block kernels dispatch to the AVX2+FMA vector path.
///
/// Resolved once (env override, then CPU feature detection) and cached; a
/// relaxed atomic load afterwards, cheap enough for per-block-op dispatch.
#[inline]
pub fn simd_active() -> bool {
    match MODE.load(Ordering::Relaxed) {
        SCALAR => false,
        VECTOR => true,
        _ => resolve(),
    }
}

/// The resolved kernel family (see [`simd_active`]).
pub fn kernel_path() -> KernelPath {
    if simd_active() {
        KernelPath::Avx2Fma
    } else {
        KernelPath::Scalar
    }
}

/// Display name of the resolved kernel family (bench metadata).  The vector
/// name is built from the kernel's own tile constants, so it cannot go stale.
pub fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        static NAME: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        return NAME.get_or_init(|| format!("avx2+fma-{}x{}", avx2::MR, avx2::NR));
    }
    "scalar-4x4"
}

#[cold]
fn resolve() -> bool {
    let forced = std::env::var("ND_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    let active = !forced && detected_avx2_fma();
    MODE.store(if active { VECTOR } else { SCALAR }, Ordering::Relaxed);
    active
}

/// Raw CPU capability (ignores the `ND_FORCE_SCALAR` override) — recorded into
/// bench metadata so numbers are interpretable across machines.
pub fn detected_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Process-wide dispatch override for tests and benches: `true` pins the
/// scalar path, `false` returns to automatic resolution (env + detection).
///
/// Affects every thread; callers that toggle it around a measurement must
/// serialise with other dispatch-sensitive work (the test suites hold a lock).
pub fn force_scalar(on: bool) {
    MODE.store(if on { SCALAR } else { UNRESOLVED }, Ordering::Relaxed);
}

/// The AVX2+FMA kernel bodies.  Every `fn` here requires the `avx2` and `fma`
/// target features at runtime — callers must check [`simd_active`] first.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use crate::matrix::MatPtr;
    use std::arch::x86_64::*;

    /// Rows per vector register tile.
    pub const MR: usize = 6;
    /// Columns per vector register tile (two YMM registers of f64 lanes).
    pub const NR: usize = 8;
    /// `f64` lanes per YMM register.
    const LANES: usize = 4;

    /// Deterministic horizontal sum: `(l0+l2) + (l1+l3)` — a fixed lane order,
    /// so dot-product results depend only on operand values and length.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum4(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd::<1>(v);
        let s = _mm_add_pd(lo, hi);
        let odd = _mm_unpackhi_pd(s, s);
        _mm_cvtsd_f64(_mm_add_sd(s, odd))
    }

    /// Fused dot product `Σ_p x[p]·y[p]`: 4-lane FMA accumulation, [`hsum4`],
    /// then a `mul_add` tail — one fixed order for any caller.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_fused(x: *const f64, y: *const f64, len: usize) -> f64 {
        let lv = len & !3;
        let mut acc = _mm256_setzero_pd();
        let mut p = 0;
        while p < lv {
            acc = _mm256_fmadd_pd(_mm256_loadu_pd(x.add(p)), _mm256_loadu_pd(y.add(p)), acc);
            p += 4;
        }
        let mut s = hsum4(acc);
        for pp in lv..len {
            s = (*x.add(pp)).mul_add(*y.add(pp), s);
        }
        s
    }

    /// How the microkernel applies `α`, chosen once per block, outside the
    /// `k`-loop.  Every mode is exactly `fma(a, α·b, acc)`: `1·b` and `−b` are
    /// exact, and `fnmadd(a, b, acc) = fma(a, −b, acc)`.
    const ALPHA_ONE: u8 = 0;
    const ALPHA_NEG_ONE: u8 = 1;
    const ALPHA_ANY: u8 = 2;

    /// Vector `C += α·A·B` — 6×8 tiles, 4- and 2-row strips and a 4-column
    /// edge of the same body, then fused remainders (the same per-element
    /// `fma(a, α·b, acc)` ascending-`p` chain everywhere, so results are
    /// independent of the block decomposition).
    ///
    /// # Safety
    /// Same contract as [`crate::gemm::gemm_block`]; AVX2+FMA must be
    /// available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_block(c: MatPtr, a: MatPtr, b: MatPtr, alpha: f64) {
        debug_assert_eq!(a.rows(), c.rows());
        debug_assert_eq!(b.rows(), a.cols());
        debug_assert_eq!(b.cols(), c.cols());
        if alpha == 1.0 {
            gemm_strips::<ALPHA_ONE>(c, a, b, alpha)
        } else if alpha == -1.0 {
            gemm_strips::<ALPHA_NEG_ONE>(c, a, b, alpha)
        } else {
            gemm_strips::<ALPHA_ANY>(c, a, b, alpha)
        }
    }

    /// Cuts `C` into row strips of 6, then at most one of 4 and one of 2 (so a
    /// power-of-two block is all vector tiles); an odd last row is fused
    /// scalar.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_strips<const ALPHA: u8>(c: MatPtr, a: MatPtr, b: MatPtr, alpha: f64) {
        let m = c.rows();
        let mut i = 0;
        while i + MR <= m {
            gemm_strip::<MR, ALPHA>(c, a, b, alpha, i);
            i += MR;
        }
        if i + 4 <= m {
            gemm_strip::<4, ALPHA>(c, a, b, alpha, i);
            i += 4;
        }
        if i + 2 <= m {
            gemm_strip::<2, ALPHA>(c, a, b, alpha, i);
            i += 2;
        }
        if i < m {
            gemm_fused_scalar(c, a, b, alpha, i, m, 0, c.cols(), a.cols());
        }
    }

    /// One `R`-row strip of `C`: 8-column tiles, one 4-column tile if it fits,
    /// fused-scalar columns after that.  The strip's `R × k` slice of `A` is
    /// re-read by every tile and stays in L1 whatever `A`'s stride.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_strip<const R: usize, const ALPHA: u8>(
        c: MatPtr,
        a: MatPtr,
        b: MatPtr,
        alpha: f64,
        i: usize,
    ) {
        let (n, k) = (c.cols(), a.cols());
        let mut j = 0;
        while j + NR <= n {
            gemm_micro::<R, { NR / LANES }, ALPHA>(c, a, b, alpha, i, j, k);
            j += NR;
        }
        if j + LANES <= n {
            gemm_micro::<R, 1, ALPHA>(c, a, b, alpha, i, j, k);
            j += LANES;
        }
        if j < n {
            gemm_fused_scalar(c, a, b, alpha, i, i + R, j, n, k);
        }
    }

    /// One `R × 4V` register tile of `C += α·A·B` over the whole `k`-panel:
    /// `R·V` accumulators, `V` vectors of the current `B` row and one `A`
    /// broadcast live at a time (15 YMM at 6×8).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_micro<const R: usize, const V: usize, const ALPHA: u8>(
        c: MatPtr,
        a: MatPtr,
        b: MatPtr,
        alpha: f64,
        i: usize,
        j: usize,
        k: usize,
    ) {
        let alphav = _mm256_set1_pd(alpha);
        let mut a_rows = [std::ptr::null::<f64>(); R];
        let mut c_ptrs = [std::ptr::null_mut::<f64>(); R];
        let mut acc = [[_mm256_setzero_pd(); V]; R];
        for r in 0..R {
            a_rows[r] = a.row_ptr(i + r);
            c_ptrs[r] = c.row_ptr(i + r).add(j);
            for (v, accv) in acc[r].iter_mut().enumerate() {
                *accv = _mm256_loadu_pd(c_ptrs[r].add(LANES * v));
            }
        }
        let b_stride = b.stride();
        let mut b_row = b.row_ptr(0).add(j) as *const f64;
        for p in 0..k {
            let mut bv = [_mm256_setzero_pd(); V];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = _mm256_loadu_pd(b_row.add(LANES * v));
                if ALPHA == ALPHA_ANY {
                    // One rounding of α·b[p][j], then each row's term is one
                    // fmadd — the chain the fused remainders reproduce.
                    *bvv = _mm256_mul_pd(alphav, *bvv);
                }
            }
            for r in 0..R {
                let av = _mm256_broadcast_sd(&*a_rows[r].add(p));
                for v in 0..V {
                    acc[r][v] = if ALPHA == ALPHA_NEG_ONE {
                        _mm256_fnmadd_pd(av, bv[v], acc[r][v])
                    } else {
                        _mm256_fmadd_pd(av, bv[v], acc[r][v])
                    };
                }
            }
            b_row = b_row.wrapping_add(b_stride);
        }
        for r in 0..R {
            for (v, &accv) in acc[r].iter().enumerate() {
                _mm256_storeu_pd(c_ptrs[r].add(LANES * v), accv);
            }
        }
    }

    /// Fused-scalar remainder of `C += α·A·B`: per element the identical
    /// `fma(a, α·b, acc)` ascending-`p` chain as the vector tile.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_fused_scalar(
        c: MatPtr,
        a: MatPtr,
        b: MatPtr,
        alpha: f64,
        i0: usize,
        i1: usize,
        j0: usize,
        j1: usize,
        k: usize,
    ) {
        for i in i0..i1 {
            let a_row = a.row_ptr(i);
            let c_row = c.row_ptr(i);
            for p in 0..k {
                let av = *a_row.add(p);
                let b_row = b.row_ptr(p);
                for j in j0..j1 {
                    let bj = alpha * *b_row.add(j);
                    *c_row.add(j) = av.mul_add(bj, *c_row.add(j));
                }
            }
        }
    }

    /// Vector `C += α·A·Bᵀ` (`B` is `n × k`): 4×4 tiles of dot products, each
    /// accumulated 4 lanes at a time and reduced with [`hsum4`] — per element
    /// exactly [`dot_fused`]`(a_row, b_row, k)`, so tile and edge elements
    /// agree.
    ///
    /// # Safety
    /// Same contract as [`crate::gemm::gemm_nt_block`]; AVX2+FMA must be
    /// available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_nt_block(c: MatPtr, a: MatPtr, b: MatPtr, alpha: f64) {
        let (m, n, k) = (c.rows(), c.cols(), a.cols());
        debug_assert_eq!(a.rows(), m);
        debug_assert_eq!(b.cols(), k, "B must be n x k so that Bᵀ is k x n");
        debug_assert_eq!(b.rows(), n);
        let mut i = 0;
        while i + 4 <= m {
            let mut j = 0;
            while j + 4 <= n {
                gemm_nt_micro_4x4(c, a, b, alpha, i, j, k);
                j += 4;
            }
            if j < n {
                gemm_nt_edge(c, a, b, alpha, i, i + 4, j, n, k);
            }
            i += 4;
        }
        if i < m {
            gemm_nt_edge(c, a, b, alpha, i, m, 0, n, k);
        }
    }

    /// One 4×4 tile of `C += α·A·Bᵀ`: sixteen fused dot products.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_nt_micro_4x4(
        c: MatPtr,
        a: MatPtr,
        b: MatPtr,
        alpha: f64,
        i: usize,
        j: usize,
        k: usize,
    ) {
        let kv = k & !3;
        let b_rows = [
            b.row_ptr(j) as *const f64,
            b.row_ptr(j + 1) as *const f64,
            b.row_ptr(j + 2) as *const f64,
            b.row_ptr(j + 3) as *const f64,
        ];
        for r in 0..4 {
            let a_row = a.row_ptr(i + r) as *const f64;
            let c_row = c.row_ptr(i + r).add(j);
            let mut acc = [_mm256_setzero_pd(); 4];
            let mut p = 0;
            while p < kv {
                let av = _mm256_loadu_pd(a_row.add(p));
                for (s, accs) in acc.iter_mut().enumerate() {
                    *accs = _mm256_fmadd_pd(av, _mm256_loadu_pd(b_rows[s].add(p)), *accs);
                }
                p += 4;
            }
            for (s, &accs) in acc.iter().enumerate() {
                let mut sum = hsum4(accs);
                for pp in kv..k {
                    sum = (*a_row.add(pp)).mul_add(*b_rows[s].add(pp), sum);
                }
                *c_row.add(s) += alpha * sum;
            }
        }
    }

    /// Row/column remainder of `C += α·A·Bᵀ` — per element the same
    /// [`dot_fused`] the 4×4 tile computes.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_nt_edge(
        c: MatPtr,
        a: MatPtr,
        b: MatPtr,
        alpha: f64,
        i0: usize,
        i1: usize,
        j0: usize,
        j1: usize,
        k: usize,
    ) {
        for i in i0..i1 {
            let a_row = a.row_ptr(i) as *const f64;
            let c_row = c.row_ptr(i);
            for j in j0..j1 {
                let sum = dot_fused(a_row, b.row_ptr(j), k);
                *c_row.add(j) += alpha * sum;
            }
        }
    }

    /// Vector forward substitution `T·X = B` (in place in `B`): four RHS
    /// columns per YMM register, `acc ← fnmadd(t[i][k], b[k][j..], acc)` in
    /// ascending-`k` order — the fused twin of the scalar kernel, and the same
    /// fused update GEMM's `α = −1` blocks apply, so blocked TRS
    /// decompositions stay self-consistent.
    ///
    /// # Safety
    /// Same contract as [`crate::trsm::trsm_lower_block`]; AVX2+FMA must be
    /// available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn trsm_lower_block(t: MatPtr, b: MatPtr) {
        let n = t.rows();
        debug_assert_eq!(t.cols(), n);
        debug_assert_eq!(b.rows(), n);
        let m = b.cols();
        let mv = m & !3;
        let mut j = 0;
        while j < mv {
            for i in 0..n {
                let t_row = t.row_ptr(i);
                let b_ij = b.row_ptr(i).add(j);
                let mut acc = _mm256_loadu_pd(b_ij);
                for kk in 0..i {
                    let tv = _mm256_broadcast_sd(&*t_row.add(kk));
                    acc = _mm256_fnmadd_pd(tv, _mm256_loadu_pd(b.row_ptr(kk).add(j)), acc);
                }
                let d = _mm256_broadcast_sd(&*t_row.add(i));
                _mm256_storeu_pd(b_ij, _mm256_div_pd(acc, d));
            }
            j += 4;
        }
        for jj in mv..m {
            for i in 0..n {
                let t_row = t.row_ptr(i);
                let mut acc = *b.row_ptr(i).add(jj);
                for kk in 0..i {
                    acc = (-*t_row.add(kk)).mul_add(*b.row_ptr(kk).add(jj), acc);
                }
                *b.row_ptr(i).add(jj) = acc / *t_row.add(i);
            }
        }
    }

    /// [`trsm_lower_block`] with an implicit unit diagonal (LU's `L·X = B`).
    ///
    /// # Safety
    /// Same contract as [`crate::getrf::trsm_unit_lower_block`]; AVX2+FMA must
    /// be available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn trsm_unit_lower_block(l: MatPtr, b: MatPtr) {
        let n = l.rows();
        debug_assert_eq!(l.cols(), n);
        debug_assert_eq!(b.rows(), n);
        let m = b.cols();
        let mv = m & !3;
        let mut j = 0;
        while j < mv {
            for i in 0..n {
                let l_row = l.row_ptr(i);
                let b_ij = b.row_ptr(i).add(j);
                let mut acc = _mm256_loadu_pd(b_ij);
                for kk in 0..i {
                    let lv = _mm256_broadcast_sd(&*l_row.add(kk));
                    acc = _mm256_fnmadd_pd(lv, _mm256_loadu_pd(b.row_ptr(kk).add(j)), acc);
                }
                _mm256_storeu_pd(b_ij, acc);
            }
            j += 4;
        }
        for jj in mv..m {
            for i in 0..n {
                let l_row = l.row_ptr(i);
                let mut acc = *b.row_ptr(i).add(jj);
                for kk in 0..i {
                    acc = (-*l_row.add(kk)).mul_add(*b.row_ptr(kk).add(jj), acc);
                }
                *b.row_ptr(i).add(jj) = acc;
            }
        }
    }

    /// Vector `X·Lᵀ = B` (in place in `B`): each element subtracts one fused
    /// dot product of its `B` row prefix with an `L` row (both row-contiguous
    /// streams).
    ///
    /// # Safety
    /// Same contract as [`crate::trsm::trsm_right_lower_trans_block`];
    /// AVX2+FMA must be available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn trsm_right_lower_trans_block(l: MatPtr, b: MatPtr) {
        let n = l.rows();
        debug_assert_eq!(l.cols(), n);
        debug_assert_eq!(b.cols(), n);
        let m = b.rows();
        for i in 0..m {
            let b_row = b.row_ptr(i);
            for j in 0..n {
                let l_row = l.row_ptr(j);
                let s = dot_fused(b_row, l_row, j);
                *b_row.add(j) = (*b_row.add(j) - s) / *l_row.add(j);
            }
        }
    }

    /// Vector in-place Cholesky of one block: the column update's dot products
    /// (`a[i][·]·a[j][·]` over the factored prefix) run through [`dot_fused`].
    ///
    /// # Safety
    /// Same contract as [`crate::potrf::potrf_block`]; AVX2+FMA must be
    /// available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn potrf_block(a: MatPtr) {
        let n = a.rows();
        debug_assert_eq!(a.cols(), n);
        for j in 0..n {
            let j_row = a.row_ptr(j);
            let d = *j_row.add(j) - dot_fused(j_row, j_row, j);
            debug_assert!(d > 0.0, "matrix is not positive definite (pivot {j})");
            let d = d.sqrt();
            *j_row.add(j) = d;
            for i in (j + 1)..n {
                let i_row = a.row_ptr(i);
                let v = *i_row.add(j) - dot_fused(i_row, j_row, j);
                *i_row.add(j) = v / d;
            }
        }
    }
}
