//! # nd-linalg — dense linear algebra and dynamic-programming kernels
//!
//! The substrate crate for the Nested Dataflow reproduction: dense matrices, the
//! sequential reference algorithms the paper's divide-and-conquer algorithms are
//! checked against, and the small *block kernels* that become the base-case strands
//! of the parallel spawn trees.
//!
//! Contents:
//!
//! * [`matrix`] — row-major [`Matrix`], random/SPD generators, norms,
//!   the raw block view [`MatPtr`] used by parallel executors, and the
//!   [`MatView`] accessor trait the get/set kernels are generic over.
//! * [`tile`] — tile-packed (block-major) storage: [`TileMatrix`] keeps every
//!   `b × b` tile in one contiguous, 64-byte-aligned slab, with pack/unpack
//!   conversions, single-tile [`tile::TilePtr`] views (stride = tile width)
//!   and the tile-addressed whole-matrix [`tile::TileView`].
//! * [`gemm`] — matrix multiply(-subtract) kernels (`C ± A·B`, `C ± A·Bᵀ`).
//! * [`simd`] — runtime-dispatched AVX2+FMA vector microkernels (6×8 `f64`
//!   register tiles) with the `ND_FORCE_SCALAR` override;
//!   the scalar kernels remain the always-available fallback and oracle.
//! * [`trsm`] — triangular solves (left lower, and right lower-transposed).
//! * [`potrf`] — Cholesky factorization.
//! * [`getrf`] — LU factorization with partial pivoting.
//! * [`fw`] — Floyd–Warshall: the 1-D synthetic benchmark of the paper and the 2-D
//!   all-pairs-shortest-paths kernels.
//! * [`lcs`] — longest common subsequence dynamic program.
//!
//! Every module has a *naive* (triple-loop / textbook) reference implementation used
//! by tests and by the benchmark harness as ground truth, plus block kernels on
//! [`MatPtr`] views.  The block kernels are `unsafe fn`: they write
//! through raw pointers and the caller must guarantee that concurrent invocations
//! never overlap — the guarantee the Nested Dataflow algorithm DAG provides by
//! construction.

#![warn(rust_2018_idioms)]
#![deny(missing_docs)]

pub mod fw;
pub mod gemm;
pub mod getrf;
pub mod lcs;
pub mod matrix;
pub mod potrf;
pub mod simd;
pub mod tile;
pub mod trsm;

pub use getrf::PivotStore;
pub use matrix::{MatPtr, MatView, Matrix};
pub use tile::TileMatrix;
