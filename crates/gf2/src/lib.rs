//! Gauss–Jordan elimination over GF(2), the Galois field of two elements.
//!
//! XL and ElimLin (§II-B/C of the paper) need one thing from linear
//! algebra: the reduced row-echelon form of a linearised system. The
//! original Bosphorus tool calls the M4RI library for it; this crate is the
//! reproduction's elimination, and nothing more.
//!
//! * [`SparseMatrix::rref`] runs exact structural reductions on the sparse
//!   rows a linearisation produces and hands only the residual cores to a
//!   dense kernel (`sparse.rs`).
//! * [`BitMatrix`] stores its rows packed 64 columns per `u64` word in one
//!   contiguous arena, so elementary row operations are word-parallel XORs
//!   and the kernels eliminate in place. [`BitMatrix::gauss_jordan`] picks
//!   one of two kernels with [`select_kernel`] from the matrix shape:
//!   * a **schoolbook** reference kernel for tiny matrices
//!     ([`BitMatrix::gauss_jordan_plain`]),
//!   * a **cache-blocked multi-table Method of the Four Russians** (M4RM)
//!     kernel for everything else
//!     ([`BitMatrix::gauss_jordan_blocked_m4rm`]): pivot columns
//!     processed in Gray-code blocks of up to 8 per table (see
//!     [`m4rm_block_size`]), three tables per sweep so each non-pivot row
//!     is cleared with one fused word-parallel XOR per `3k` columns, and
//!     column-tiled row updates sized to a per-core L2 estimate (see
//!     `blocked.rs` and `crates/bench/DESIGN.md`).
//!
//!   Both produce bit-identical RREF.
//!
//! Every entry point takes a [`CancelToken`](bosphorus_interrupt::CancelToken)
//! and polls it at coarse checkpoints.
//!
//! # Examples
//!
//! ```
//! use bosphorus_gf2::BitMatrix;
//! use bosphorus_interrupt::CancelToken;
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
//! let stats = m.gauss_jordan(&CancelToken::never());
//! assert_eq!(stats.rank, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocked;
mod gje;
mod matrix;
pub mod sparse;
mod vector;

pub use blocked::m4rm_block_size;
pub use gje::{select_kernel, GaussStats, KernelChoice};
pub use matrix::BitMatrix;
pub use sparse::{PresolveStats, RowShape, SparseMatrix, SparseRref};
pub use vector::RowRef;

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
