//! Dense linear algebra over GF(2), the Galois field of two elements.
//!
//! This crate is the reproduction's stand-in for the M4RI library used by the
//! original Bosphorus tool. It provides a bit-packed dense matrix type,
//! [`BitMatrix`], together with Gauss–Jordan elimination, rank computation,
//! kernel bases and linear system solving. Everything operates on rows packed
//! 64 columns per `u64` word, so elementary row operations are word-parallel
//! XORs.
//!
//! Two elimination kernels sit behind one API, picked automatically by
//! [`select_kernel`] from the matrix shape:
//!
//! * a **schoolbook** reference kernel for tiny matrices,
//! * a **cache-blocked multi-table Method of the Four Russians** (M4RM)
//!   kernel for everything else: pivot columns processed in Gray-code
//!   blocks of up to 8 per table (see [`m4rm_block_size`]), three tables
//!   per sweep so each non-pivot row is cleared with one fused
//!   word-parallel XOR per `3k` columns, column-tiled row updates sized to
//!   [`GF2_L2_CACHE_BYTES`], all in place over the matrix arena (see
//!   `blocked.rs` and `crates/bench/DESIGN.md`).
//!
//! Both produce bit-identical RREF, so `gauss_jordan`, `rank`, `rref`,
//! `kernel` and `solve` all ride on the fast path transparently.
//! [`BitMatrix`] stores its rows in one contiguous `Vec<u64>` arena with a
//! fixed per-row word stride, which is what lets the blocked kernel
//! eliminate in place without copying.
//!
//! # Examples
//!
//! ```
//! use bosphorus_gf2::BitMatrix;
//!
//! // The linearised system from Table I of the paper has 7 rows over
//! // 8 monomial columns; here is a tiny 3x4 system instead.
//! let mut m = BitMatrix::zero(3, 4);
//! m.set(0, 0, true);
//! m.set(0, 3, true);
//! m.set(1, 1, true);
//! m.set(1, 3, true);
//! m.set(2, 0, true);
//! m.set(2, 1, true);
//! let rank = m.gauss_jordan();
//! assert_eq!(rank, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocked;
mod gje;
mod matrix;
pub mod sparse;
mod vector;

pub use blocked::{blocked_tile_words, m4rm_block_size, GF2_L2_CACHE_BYTES, M4RM_MAX_BLOCK};
pub use gje::{select_kernel, GaussStats, KernelChoice, SolveOutcome};
pub use matrix::{BitMatrix, RowRef};
pub use sparse::{PresolveStats, RowShape, SparseMatrix, SparseRref};
pub use vector::BitVec;

#[cfg(test)]
mod proptests;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::BitMatrix;

    /// Deterministic SplitMix64-filled dense matrix — the shared input
    /// generator of the kernel unit and property tests, self-contained so
    /// they do not depend on the rand shim.
    pub(crate) fn splitmix_matrix(rows: usize, cols: usize, seed: u64) -> BitMatrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut m = BitMatrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if next() & 1 == 1 {
                    m.set(r, c, true);
                }
            }
        }
        m
    }
}
