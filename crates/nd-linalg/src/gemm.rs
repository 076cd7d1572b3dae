//! General matrix multiply kernels.
//!
//! The paper's algorithms use MM / MMS — cache-oblivious multiply(-subtract) —
//! as the workhorse subtask (`C += A·B` and `C -= A·B`).  This module provides:
//!
//! * [`gemm_naive`]: a safe whole-matrix reference implementation (the oracle
//!   the tiled kernels are tested against),
//! * [`gemm_block`] and [`gemm_nt_block`]: the register-tiled raw-view block
//!   kernels used as base-case strands by the parallel executors — dispatched
//!   once per process between AVX2+FMA vector kernels (6×8 `f64` register
//!   tiles, see [`crate::simd`]) and the scalar `4×4` fallbacks
//!   [`gemm_block_scalar`] / [`gemm_nt_block_scalar`], so each base-case
//!   strand does real floating-point work per scheduling event (the `nt`
//!   variant computes `C += α·A·Bᵀ`, needed by Cholesky's trailing update
//!   `A₁₁ -= L₁₀·L₁₀ᵀ`),
//! * [`gemm_recursive`]: the sequential 2-way divide-and-conquer multiply used by the
//!   serial cache-complexity experiments (E13) — the same traversal order the
//!   divide-and-conquer spawn tree induces.

use crate::matrix::{MatPtr, Matrix};

/// `C = β·C + α·A·B` (safe reference implementation).
///
/// # Panics
/// Panics if the dimensions are inconsistent.
pub fn gemm_naive(c: &mut Matrix, a: &Matrix, b: &Matrix, alpha: f64, beta: f64) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.cols());
    for i in 0..c.rows() {
        for j in 0..c.cols() {
            c[(i, j)] *= beta;
        }
        for k in 0..a.cols() {
            let aik = alpha * a[(i, k)];
            for j in 0..c.cols() {
                c[(i, j)] += aik * b[(k, j)];
            }
        }
    }
}

/// Rows per register tile of the GEMM microkernels.
const MR: usize = 4;
/// Columns per register tile of the GEMM microkernels.
const NR: usize = 4;

/// Scratch elements [`gemm_block_packed`] needs for an `m × n × k` multiply:
/// the `k × n` panel of `B`, the one operand the kernels read in vector rows.
/// Exact — there is no pad.
#[inline]
pub fn gemm_pack_len(_m: usize, n: usize, k: usize) -> usize {
    k * n
}

/// Copies a (possibly strided) view row by row into the front of `dst` and
/// returns the packed, contiguous view over it.  Pure data movement — the
/// values (and therefore every downstream floating-point result) are
/// unchanged.
///
/// # Safety
/// Same read contract as [`gemm_block`] for `src`; `dst` must hold at least
/// `src.rows() * src.cols()` elements and must not overlap `src`'s storage.
#[inline]
unsafe fn pack_panel(src: MatPtr, dst: &mut [f64]) -> MatPtr {
    let (m, n) = (src.rows(), src.cols());
    debug_assert!(dst.len() >= m * n);
    let out = dst.as_mut_ptr();
    for i in 0..m {
        std::ptr::copy_nonoverlapping(src.row_ptr(i), out.add(i * n), n);
    }
    MatPtr::from_raw_parts(out, n, m, n)
}

/// `C += α·A·B` with **panel packing**: a strided `B` is first copied into the
/// caller's scratch (typically a per-worker arena owned by the thread pool),
/// then the register-tiled [`gemm_block`] runs on the contiguous copy.  `B` is
/// the operand read in vector rows — `k` rows under every tile, which at a
/// power-of-two parent stride all fall into one cache set.  A strided `A` goes
/// to the kernel as it is: a row strip of it is a handful of short linear
/// streams that stay in L1 across the strip's tiles, so copying it only costs.
/// An already-contiguous `B` (tile-packed layout, or a whole-matrix view)
/// skips the copy.  Packing moves data without touching a single
/// floating-point operation, so the result is bit-identical to calling
/// [`gemm_block`] on the original views.
///
/// # Safety
/// Same contract as [`gemm_block`]; additionally, when `B` is strided,
/// `scratch` must hold at least [`gemm_pack_len`]`(m, n, k)` elements and must
/// not overlap any operand's storage.
pub unsafe fn gemm_block_packed(c: MatPtr, a: MatPtr, b: MatPtr, alpha: f64, scratch: &mut [f64]) {
    let bp = if b.is_contiguous() {
        b
    } else {
        pack_panel(b, &mut scratch[..b.rows() * b.cols()])
    };
    gemm_block(c, a, bp, alpha);
}

/// `C += α·A·Bᵀ` with panel packing of **both** operands (`B` is `n × k`): the
/// dot-product kernel streams rows of `A` and rows of `B` alike, so whichever
/// of the two is strided is copied into `scratch` (`A`'s panel first).
///
/// # Safety
/// Same contract as [`gemm_nt_block`]; additionally `scratch` must hold the
/// strided operands' panels (at most `m·k + n·k` elements) and must not
/// overlap any operand's storage.
pub unsafe fn gemm_nt_block_packed(
    c: MatPtr,
    a: MatPtr,
    b: MatPtr,
    alpha: f64,
    scratch: &mut [f64],
) {
    let (ap, rest): (MatPtr, &mut [f64]) = if a.is_contiguous() {
        (a, scratch)
    } else {
        let (head, rest) = scratch.split_at_mut(a.rows() * a.cols());
        (pack_panel(a, head), rest)
    };
    let bp = if b.is_contiguous() {
        b
    } else {
        pack_panel(b, &mut rest[..b.rows() * b.cols()])
    };
    gemm_nt_block(c, ap, bp, alpha);
}

/// Block kernel: `C += α·A·B` on raw views.
///
/// Dispatches once per process (see [`crate::simd`]) between the AVX2+FMA
/// vector kernel (6×8 f64 register tile) and the scalar [`gemm_block_scalar`]
/// fallback — selection is independent of shape, stride and layout, so all
/// execution paths of one process agree bit-for-bit, and `ND_FORCE_SCALAR=1`
/// pins the deterministic scalar path everywhere.  Within either path, results
/// are independent of the block decomposition (each element's `k` terms
/// accumulate in ascending-`p` order with a per-path-uniform rounding rule).
///
/// # Safety
/// The caller must uphold the [`MatPtr`] safety contract: the views must be live and
/// no other thread may concurrently access any element of `C`, nor write any element
/// of `A` or `B`, for the duration of the call.
pub unsafe fn gemm_block(c: MatPtr, a: MatPtr, b: MatPtr, alpha: f64) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_active() {
        return crate::simd::avx2::gemm_block(c, a, b, alpha);
    }
    gemm_block_scalar(c, a, b, alpha)
}

/// The scalar 4×4 register-tiled `C += α·A·B` kernel — the always-available
/// fallback and the bit-exact oracle path of the vector dispatch.
///
/// Full `4×4` tiles of `C` are held in registers while the whole `k`-panel is
/// accumulated (one pass over a row-quad of `A` and the rows of `B`), and
/// row/column remainders fall back to a scalar loop with the same per-element
/// accumulation order.  Every element of `C` receives its `k` terms in
/// ascending-`p` order starting from its prior value, so results are
/// independent of the tiling (and of the tile/remainder split).
///
/// # Safety
/// Same contract as [`gemm_block`].
pub unsafe fn gemm_block_scalar(c: MatPtr, a: MatPtr, b: MatPtr, alpha: f64) {
    let (m, n, k) = (c.rows(), c.cols(), a.cols());
    debug_assert_eq!(a.rows(), m);
    debug_assert_eq!(b.rows(), k);
    debug_assert_eq!(b.cols(), n);
    let mut i = 0;
    while i + MR <= m {
        let mut j = 0;
        while j + NR <= n {
            gemm_micro(c, a, b, alpha, i, j, k);
            j += NR;
        }
        if j < n {
            gemm_scalar(c, a, b, alpha, i, i + MR, j, n, k);
        }
        i += MR;
    }
    if i < m {
        gemm_scalar(c, a, b, alpha, i, m, 0, n, k);
    }
}

/// One `MR×NR` register tile of `C += α·A·B` over the full `k`-panel.
///
/// # Safety
/// Same contract as [`gemm_block`], plus `i + MR ≤ m` and `j + NR ≤ n`.
#[inline]
unsafe fn gemm_micro(c: MatPtr, a: MatPtr, b: MatPtr, alpha: f64, i: usize, j: usize, k: usize) {
    let a_rows = [
        a.row_ptr(i),
        a.row_ptr(i + 1),
        a.row_ptr(i + 2),
        a.row_ptr(i + 3),
    ];
    let c_rows = [
        c.row_ptr(i).add(j),
        c.row_ptr(i + 1).add(j),
        c.row_ptr(i + 2).add(j),
        c.row_ptr(i + 3).add(j),
    ];
    // Accumulators start from C so each element's terms are added in the same
    // order a scalar `c += …` loop would use.
    let mut acc = [[0.0f64; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        for (s, v) in row.iter_mut().enumerate() {
            *v = *c_rows[r].add(s);
        }
    }
    for p in 0..k {
        let b_row = b.row_ptr(p).add(j);
        let b_regs = [*b_row, *b_row.add(1), *b_row.add(2), *b_row.add(3)];
        for (r, row) in acc.iter_mut().enumerate() {
            let ar = alpha * *a_rows[r].add(p);
            for (v, &bv) in row.iter_mut().zip(&b_regs) {
                *v += ar * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (s, &v) in row.iter().enumerate() {
            *c_rows[r].add(s) = v;
        }
    }
}

/// Scalar remainder of `C += α·A·B` over rows `i0..i1` and columns `j0..j1`,
/// accumulating each element's `k` terms in the same order as the microkernel.
///
/// # Safety
/// Same contract as [`gemm_block`], plus the row/column ranges must lie inside
/// the views.
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_scalar(
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
    // p stays outside the j-loop so B is read row-contiguously; each element
    // of C still accumulates its k terms in ascending-p order.
    for i in i0..i1 {
        let a_row = a.row_ptr(i);
        let c_row = c.row_ptr(i);
        for p in 0..k {
            let aip = alpha * *a_row.add(p);
            let b_row = b.row_ptr(p);
            for j in j0..j1 {
                *c_row.add(j) += aip * *b_row.add(j);
            }
        }
    }
}

/// Block kernel: `C += α·A·Bᵀ` on raw views.
///
/// Dispatches like [`gemm_block`] between the AVX2+FMA vector kernel and the
/// scalar [`gemm_nt_block_scalar`] fallback.
///
/// # Safety
/// Same contract as [`gemm_block`].
pub unsafe fn gemm_nt_block(c: MatPtr, a: MatPtr, b: MatPtr, alpha: f64) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_active() {
        return crate::simd::avx2::gemm_nt_block(c, a, b, alpha);
    }
    gemm_nt_block_scalar(c, a, b, alpha)
}

/// The scalar 4×4 register-tiled `C += α·A·Bᵀ` kernel (fallback / oracle path
/// of [`gemm_nt_block`]).
///
/// Register-tiled like [`gemm_block_scalar`]; because both `A` and `Bᵀ`'s
/// storage (`B` is `n×k`) are walked along rows, the `k`-loop reads both
/// operands contiguously — `4×4` tiles accumulate sixteen dot products at
/// once.
///
/// # Safety
/// Same contract as [`gemm_block`].
pub unsafe fn gemm_nt_block_scalar(c: MatPtr, a: MatPtr, b: MatPtr, alpha: f64) {
    let (m, n, k) = (c.rows(), c.cols(), a.cols());
    debug_assert_eq!(a.rows(), m);
    debug_assert_eq!(b.cols(), k, "B must be n x k so that Bᵀ is k x n");
    debug_assert_eq!(b.rows(), n);
    let mut i = 0;
    while i + MR <= m {
        let mut j = 0;
        while j + NR <= n {
            gemm_nt_micro(c, a, b, alpha, i, j, k);
            j += NR;
        }
        if j < n {
            gemm_nt_scalar(c, a, b, alpha, i, i + MR, j, n, k);
        }
        i += MR;
    }
    if i < m {
        gemm_nt_scalar(c, a, b, alpha, i, m, 0, n, k);
    }
}

/// One `MR×NR` register tile of `C += α·A·Bᵀ` over the full `k`-panel.
///
/// # Safety
/// Same contract as [`gemm_block`], plus `i + MR ≤ m` and `j + NR ≤ n`.
#[inline]
unsafe fn gemm_nt_micro(c: MatPtr, a: MatPtr, b: MatPtr, alpha: f64, i: usize, j: usize, k: usize) {
    let a_rows = [
        a.row_ptr(i),
        a.row_ptr(i + 1),
        a.row_ptr(i + 2),
        a.row_ptr(i + 3),
    ];
    let b_rows = [
        b.row_ptr(j),
        b.row_ptr(j + 1),
        b.row_ptr(j + 2),
        b.row_ptr(j + 3),
    ];
    // Dot-product accumulators start at zero (`c += α·acc` happens once at the
    // end), matching the scalar loop's per-element order exactly.
    let mut acc = [[0.0f64; NR]; MR];
    for p in 0..k {
        let a_regs = [
            *a_rows[0].add(p),
            *a_rows[1].add(p),
            *a_rows[2].add(p),
            *a_rows[3].add(p),
        ];
        let b_regs = [
            *b_rows[0].add(p),
            *b_rows[1].add(p),
            *b_rows[2].add(p),
            *b_rows[3].add(p),
        ];
        for (row, &av) in acc.iter_mut().zip(&a_regs) {
            for (v, &bv) in row.iter_mut().zip(&b_regs) {
                *v += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let c_row = c.row_ptr(i + r).add(j);
        for (s, &v) in row.iter().enumerate() {
            *c_row.add(s) += alpha * v;
        }
    }
}

/// Scalar remainder of `C += α·A·Bᵀ` over rows `i0..i1` and columns `j0..j1`.
///
/// # Safety
/// Same contract as [`gemm_block`], plus the row/column ranges must lie inside
/// the views.
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_nt_scalar(
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
        for j in j0..j1 {
            let b_row = b.row_ptr(j);
            let mut acc = 0.0;
            for p in 0..k {
                acc += *a_row.add(p) * *b_row.add(p);
            }
            *c_row.add(j) += alpha * acc;
        }
    }
}

/// Sequential 2-way divide-and-conquer `C += α·A·B` with base case `base`, following
/// the recursion of Section 2 of the paper (split every matrix into quadrants, eight
/// recursive multiplies, the two writers of each quadrant of `C` serialised).
///
/// # Safety
/// Same contract as [`gemm_block`].
pub unsafe fn gemm_recursive(c: MatPtr, a: MatPtr, b: MatPtr, alpha: f64, base: usize) {
    let (m, n, k) = (c.rows(), c.cols(), a.cols());
    if m <= base || n <= base || k <= base {
        gemm_block(c, a, b, alpha);
        return;
    }
    let (mh, nh, kh) = (m / 2, n / 2, k / 2);
    let a00 = a.block(0, 0, mh, kh);
    let a01 = a.block(0, kh, mh, k - kh);
    let a10 = a.block(mh, 0, m - mh, kh);
    let a11 = a.block(mh, kh, m - mh, k - kh);
    let b00 = b.block(0, 0, kh, nh);
    let b01 = b.block(0, nh, kh, n - nh);
    let b10 = b.block(kh, 0, k - kh, nh);
    let b11 = b.block(kh, nh, k - kh, n - nh);
    let c00 = c.block(0, 0, mh, nh);
    let c01 = c.block(0, nh, mh, n - nh);
    let c10 = c.block(mh, 0, m - mh, nh);
    let c11 = c.block(mh, nh, m - mh, n - nh);

    gemm_recursive(c00, a00, b00, alpha, base);
    gemm_recursive(c01, a00, b01, alpha, base);
    gemm_recursive(c10, a10, b00, alpha, base);
    gemm_recursive(c11, a10, b01, alpha, base);
    gemm_recursive(c00, a01, b10, alpha, base);
    gemm_recursive(c01, a01, b11, alpha, base);
    gemm_recursive(c10, a11, b10, alpha, base);
    gemm_recursive(c11, a11, b11, alpha, base);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_gemm_matches_matmul() {
        let a = Matrix::random(5, 7, 1);
        let b = Matrix::random(7, 4, 2);
        let mut c = Matrix::zeros(5, 4);
        gemm_naive(&mut c, &a, &b, 1.0, 0.0);
        assert!(c.max_abs_diff(&a.matmul(&b)) < 1e-12);
    }

    #[test]
    fn naive_gemm_accumulates_with_beta() {
        let a = Matrix::random(3, 3, 1);
        let b = Matrix::random(3, 3, 2);
        let mut c = Matrix::identity(3);
        gemm_naive(&mut c, &a, &b, 2.0, 1.0);
        let mut expected = Matrix::identity(3);
        let prod = a.matmul(&b);
        for i in 0..3 {
            for j in 0..3 {
                expected[(i, j)] += 2.0 * prod[(i, j)];
            }
        }
        assert!(c.max_abs_diff(&expected) < 1e-12);
    }

    #[test]
    fn block_gemm_matches_naive() {
        let a = Matrix::random(6, 5, 3);
        let b = Matrix::random(5, 8, 4);
        let mut c1 = Matrix::random(6, 8, 5);
        let mut c2 = c1.clone();
        gemm_naive(&mut c1, &a, &b, -1.0, 1.0);
        let mut am = a.clone();
        let mut bm = b.clone();
        unsafe {
            gemm_block(c2.as_ptr_view(), am.as_ptr_view(), bm.as_ptr_view(), -1.0);
        }
        assert!(c1.max_abs_diff(&c2) < 1e-12);
    }

    #[test]
    fn block_gemm_on_subblocks() {
        // Multiply only the top-left quadrants.
        let mut a = Matrix::random(8, 8, 6);
        let mut b = Matrix::random(8, 8, 7);
        let mut c = Matrix::zeros(8, 8);
        unsafe {
            let cv = c.as_ptr_view().block(0, 0, 4, 4);
            let av = a.as_ptr_view().block(0, 0, 4, 4);
            let bv = b.as_ptr_view().block(0, 0, 4, 4);
            gemm_block(cv, av, bv, 1.0);
        }
        let expected = a.block(0, 0, 4, 4).matmul(&b.block(0, 0, 4, 4));
        assert!(c.block(0, 0, 4, 4).max_abs_diff(&expected) < 1e-12);
        // Everything outside the quadrant is untouched.
        assert_eq!(c[(5, 5)], 0.0);
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let a = Matrix::random(5, 6, 8);
        let b = Matrix::random(4, 6, 9); // Bᵀ is 6x4
        let mut c = Matrix::zeros(5, 4);
        let mut am = a.clone();
        let mut bm = b.clone();
        unsafe {
            gemm_nt_block(c.as_ptr_view(), am.as_ptr_view(), bm.as_ptr_view(), 1.0);
        }
        let expected = a.matmul(&b.transpose());
        assert!(c.max_abs_diff(&expected) < 1e-12);
    }

    /// The tiled kernel must agree with the naive oracle on every tile /
    /// remainder split: full tiles only, row remainders, column remainders,
    /// both, and degenerate tiny shapes.
    #[test]
    fn tiled_gemm_matches_naive_on_awkward_shapes() {
        for &(m, n, k) in &[
            (8usize, 8usize, 8usize), // full tiles
            (8, 8, 1),                // minimal k-panel
            (9, 8, 5),                // row remainder
            (8, 10, 5),               // column remainder
            (7, 9, 11),               // both remainders
            (3, 2, 4),                // smaller than one tile
            (1, 1, 1),                // degenerate
            (4, 17, 3),               // wide with remainder
            (19, 4, 6),               // tall with remainder
        ] {
            let a = Matrix::random(m, k, (m * 31 + k) as u64);
            let b = Matrix::random(k, n, (n * 17 + k) as u64);
            let mut c1 = Matrix::random(m, n, (m + n) as u64);
            let mut c2 = c1.clone();
            gemm_naive(&mut c1, &a, &b, 1.5, 1.0);
            let mut am = a.clone();
            let mut bm = b.clone();
            unsafe {
                gemm_block(c2.as_ptr_view(), am.as_ptr_view(), bm.as_ptr_view(), 1.5);
            }
            assert!(c1.max_abs_diff(&c2) < 1e-12, "m={m} n={n} k={k}");
        }
    }

    /// Dense inputs containing exact zeros (the case the old `aip == 0.0` skip
    /// branch special-cased) go through the same accumulation path as any
    /// other value.
    #[test]
    fn tiled_gemm_handles_zero_entries_like_the_oracle() {
        let mut a = Matrix::random(9, 9, 41);
        for i in 0..9 {
            a[(i, (i * 2) % 9)] = 0.0;
        }
        let b = Matrix::random(9, 9, 42);
        let mut c1 = Matrix::random(9, 9, 43);
        let mut c2 = c1.clone();
        gemm_naive(&mut c1, &a, &b, -2.0, 1.0);
        let mut am = a.clone();
        let mut bm = b.clone();
        unsafe {
            gemm_block(c2.as_ptr_view(), am.as_ptr_view(), bm.as_ptr_view(), -2.0);
        }
        assert!(c1.max_abs_diff(&c2) < 1e-12);
    }

    /// The nt kernel on awkward shapes, against an explicit transpose.
    #[test]
    fn tiled_gemm_nt_matches_transpose_on_awkward_shapes() {
        for &(m, n, k) in &[(8usize, 8usize, 8usize), (9, 7, 5), (5, 11, 3), (2, 2, 1)] {
            let a = Matrix::random(m, k, (m * 7 + n) as u64);
            let b = Matrix::random(n, k, (k * 13 + m) as u64); // Bᵀ is k×n
            let mut c = Matrix::random(m, n, 77);
            let mut expected = c.clone();
            gemm_naive(&mut expected, &a, &b.transpose(), 0.5, 1.0);
            let mut am = a.clone();
            let mut bm = b.clone();
            unsafe {
                gemm_nt_block(c.as_ptr_view(), am.as_ptr_view(), bm.as_ptr_view(), 0.5);
            }
            assert!(c.max_abs_diff(&expected) < 1e-12, "m={m} n={n} k={k}");
        }
    }

    /// Tiled kernels must respect sub-block strides (views into a larger
    /// parent matrix) and leave everything outside the block untouched.
    #[test]
    fn tiled_gemm_on_strided_subblocks() {
        let mut a = Matrix::random(16, 16, 51);
        let mut b = Matrix::random(16, 16, 52);
        let mut c = Matrix::zeros(16, 16);
        unsafe {
            let cv = c.as_ptr_view().block(2, 3, 9, 10);
            let av = a.as_ptr_view().block(1, 0, 9, 6);
            let bv = b.as_ptr_view().block(4, 2, 6, 10);
            gemm_block(cv, av, bv, 1.0);
        }
        let expected = a.block(1, 0, 9, 6).matmul(&b.block(4, 2, 6, 10));
        assert!(c.block(2, 3, 9, 10).max_abs_diff(&expected) < 1e-12);
        assert_eq!(c[(0, 0)], 0.0);
        assert_eq!(c[(1, 2)], 0.0);
        assert_eq!(c[(11, 13)], 0.0);
        assert_eq!(c[(15, 15)], 0.0);
    }

    /// Packing is pure data movement: the packed kernel must be bit-identical
    /// to the unpacked one on strided sub-blocks of a larger matrix.
    #[test]
    fn packed_gemm_is_bit_identical_to_unpacked_on_strided_blocks() {
        let mut a = Matrix::random(24, 24, 61);
        let mut b = Matrix::random(24, 24, 62);
        let mut c1 = Matrix::random(24, 24, 63);
        let mut c2 = c1.clone();
        let (m, n, k) = (9, 10, 7);
        let mut scratch = vec![0.0; gemm_pack_len(m, n, k)];
        unsafe {
            let av = a.as_ptr_view().block(2, 3, m, k);
            let bv = b.as_ptr_view().block(5, 1, k, n);
            gemm_block(c1.as_ptr_view().block(4, 6, m, n), av, bv, -1.5);
            gemm_block_packed(
                c2.as_ptr_view().block(4, 6, m, n),
                av,
                bv,
                -1.5,
                &mut scratch,
            );
        }
        assert_eq!(c1.max_abs_diff(&c2), 0.0);
        // Contiguous operands skip packing and still agree (scratch untouched).
        let mut c3 = Matrix::zeros(8, 8);
        let mut c4 = Matrix::zeros(8, 8);
        let mut am = a.block(0, 0, 8, 8);
        let mut bm = b.block(0, 0, 8, 8);
        unsafe {
            gemm_block(c3.as_ptr_view(), am.as_ptr_view(), bm.as_ptr_view(), 1.0);
            gemm_block_packed(
                c4.as_ptr_view(),
                am.as_ptr_view(),
                bm.as_ptr_view(),
                1.0,
                &mut [],
            );
        }
        assert_eq!(c3.max_abs_diff(&c4), 0.0);
    }

    #[test]
    fn packed_gemm_nt_is_bit_identical_to_unpacked() {
        let mut a = Matrix::random(20, 20, 71);
        let mut b = Matrix::random(20, 20, 72);
        let mut c1 = Matrix::random(20, 20, 73);
        let mut c2 = c1.clone();
        let (m, n, k) = (6, 5, 9);
        let mut scratch = vec![0.0; m * k + n * k];
        unsafe {
            let av = a.as_ptr_view().block(1, 2, m, k);
            let bv = b.as_ptr_view().block(3, 4, n, k); // Bᵀ is k×n
            gemm_nt_block(c1.as_ptr_view().block(7, 8, m, n), av, bv, 0.75);
            gemm_nt_block_packed(
                c2.as_ptr_view().block(7, 8, m, n),
                av,
                bv,
                0.75,
                &mut scratch,
            );
        }
        assert_eq!(c1.max_abs_diff(&c2), 0.0);
    }

    /// The tile-packed layout's single-tile views (stride = tile width) drive
    /// the same microkernel as row-major views and must agree bit-for-bit.
    #[test]
    fn gemm_on_tile_ptr_views_matches_row_major() {
        use crate::tile::TileMatrix;
        let n = 16;
        let b_dim = 8;
        let a = Matrix::random(n, n, 81);
        let b = Matrix::random(n, n, 82);
        let mut c_row = Matrix::zeros(n, n);
        let mut ct = TileMatrix::zeros(n, n, b_dim);
        let mut at = TileMatrix::pack(&a, b_dim);
        let mut bt = TileMatrix::pack(&b, b_dim);
        let mut am = a.clone();
        let mut bm = b.clone();
        for bi in 0..2 {
            for bj in 0..2 {
                for bk in 0..2 {
                    unsafe {
                        gemm_block(
                            c_row
                                .as_ptr_view()
                                .block(bi * b_dim, bj * b_dim, b_dim, b_dim),
                            am.as_ptr_view().block(bi * b_dim, bk * b_dim, b_dim, b_dim),
                            bm.as_ptr_view().block(bk * b_dim, bj * b_dim, b_dim, b_dim),
                            1.0,
                        );
                        gemm_block(
                            ct.tile_ptr(bi, bj).as_mat_ptr(),
                            at.tile_ptr(bi, bk).as_mat_ptr(),
                            bt.tile_ptr(bk, bj).as_mat_ptr(),
                            1.0,
                        );
                    }
                }
            }
        }
        assert_eq!(ct.unpack().max_abs_diff(&c_row), 0.0);
    }

    #[test]
    fn recursive_gemm_matches_naive_on_non_power_of_two() {
        for n in [7usize, 16, 24, 33] {
            let a = Matrix::random(n, n, 10 + n as u64);
            let b = Matrix::random(n, n, 20 + n as u64);
            let mut c1 = Matrix::zeros(n, n);
            gemm_naive(&mut c1, &a, &b, 1.0, 0.0);
            let mut c2 = Matrix::zeros(n, n);
            let mut am = a.clone();
            let mut bm = b.clone();
            unsafe {
                gemm_recursive(c2.as_ptr_view(), am.as_ptr_view(), bm.as_ptr_view(), 1.0, 4);
            }
            assert!(c1.max_abs_diff(&c2) < 1e-10, "n={n}");
        }
    }
}
