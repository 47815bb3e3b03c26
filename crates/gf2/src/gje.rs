//! Gauss–Jordan elimination.
//!
//! Two elimination kernels sit behind one entry point: the schoolbook
//! kernel ([`BitMatrix::gauss_jordan_plain`], kept as the reference
//! baseline) and the cache-blocked multi-table M4RM kernel
//! ([`BitMatrix::gauss_jordan_blocked_m4rm`]). Both produce bit-identical
//! RREF; [`BitMatrix::gauss_jordan`] picks between them with
//! [`select_kernel`].

use bosphorus_interrupt::CancelToken;

use crate::blocked::{m4rm_block_size, KernelScratch, M4RM_MIN_DIM};
use crate::BitMatrix;

/// The elimination kernel [`select_kernel`] picked for a matrix shape.
///
/// Mostly useful for tests and diagnostics: production callers go through
/// [`BitMatrix::gauss_jordan`], which consults [`select_kernel`]
/// internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Schoolbook Gauss–Jordan: one pivot column at a time.
    Plain,
    /// Cache-blocked multi-table M4RM (three Gray-code tables per sweep,
    /// column-tiled updates, in place over the matrix arena) with this
    /// per-table block width.
    BlockedM4rm {
        /// Per-table Gray-code block width, in `[1, 8]`.
        block: usize,
    },
}

/// Picks the elimination kernel for an `nrows × ncols` matrix from its
/// dimensions.
///
/// The heuristic has two regimes:
///
/// * **Tiny** (`min(nrows, ncols) < 16`): schoolbook. A Gray-code table
///   costs more to set up than it saves when only a handful of rows need
///   clearing per block.
/// * **Everything else**: the cache-blocked multi-table kernel with the
///   [`m4rm_block_size`] per-table width. A per-core L2 estimate steers
///   the *shape* of its work: rows too wide for all three Gray-code tables
///   to stay L2-resident have their updates column-tiled.
///
/// ```
/// use bosphorus_gf2::{select_kernel, KernelChoice};
/// assert_eq!(select_kernel(8, 8), KernelChoice::Plain);
/// assert_eq!(select_kernel(512, 512), KernelChoice::BlockedM4rm { block: 7 });
/// // XL-shaped: few equations, tens of thousands of monomial columns.
/// assert_eq!(select_kernel(2048, 16384), KernelChoice::BlockedM4rm { block: 8 });
/// ```
pub fn select_kernel(nrows: usize, ncols: usize) -> KernelChoice {
    if nrows.min(ncols) < M4RM_MIN_DIM {
        return KernelChoice::Plain;
    }
    KernelChoice::BlockedM4rm {
        block: m4rm_block_size(nrows, ncols),
    }
}

/// Statistics reported by the elimination entry points.
///
/// The Bosphorus engine uses these to report how much work each XL / ElimLin
/// round performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GaussStats {
    /// Rank of the matrix (number of pivot rows after elimination).
    pub rank: usize,
    /// Number of row XOR operations performed (for M4RM this counts both
    /// Gray-code table construction and per-row clearing XORs).
    pub row_xors: usize,
    /// Number of row swaps performed.
    pub row_swaps: usize,
    /// Elimination sweeps of the blocked M4RM kernel that established at
    /// least one pivot (0 for the schoolbook kernel).
    pub sweeps: usize,
    /// Those of the [`sweeps`](GaussStats::sweeps) whose pivot columns were
    /// not one contiguous run, so their table indices were gathered from
    /// scattered window bits.
    pub scattered_sweeps: usize,
    /// Whether the elimination observed cancellation and stopped early.
    /// When set, the matrix is only partially reduced (not RREF) and
    /// `rank` counts the pivots established so far; callers must discard
    /// the matrix rather than read facts out of it.
    pub interrupted: bool,
}

impl GaussStats {
    /// Folds another elimination's counters into this one. Used by callers
    /// that run several eliminations (e.g. ElimLin rounds) and report the
    /// cumulative work; `rank` accumulates too, so it becomes the *total*
    /// rank across the merged eliminations.
    pub fn merge(&mut self, other: GaussStats) {
        self.rank += other.rank;
        self.row_xors += other.row_xors;
        self.row_swaps += other.row_swaps;
        self.sweeps += other.sweeps;
        self.scattered_sweeps += other.scattered_sweeps;
        self.interrupted |= other.interrupted;
    }
}

impl BitMatrix {
    /// Performs in-place Gauss–Jordan elimination, bringing the matrix into
    /// reduced row-echelon form (RREF), and reports the rank and the
    /// operation counts.
    ///
    /// Pivot columns are chosen left to right; after the call every pivot
    /// column contains exactly one `1` and pivot rows are sorted by pivot
    /// column, followed by all-zero rows. The kernel is the one
    /// [`select_kernel`] picks — schoolbook for tiny matrices, the
    /// cache-blocked multi-table kernel for everything else. Both produce
    /// bit-identical RREF, so callers only ever observe a change in speed.
    ///
    /// `token` is polled at coarse checkpoints (once per elimination sweep
    /// for the blocked kernel, once per pivot column for the schoolbook
    /// kernel). On cancellation the elimination stops between sweeps and
    /// returns with [`GaussStats::interrupted`] set; the matrix is then only
    /// partially reduced, so callers must treat it as scratch and discard
    /// any facts they would otherwise read from the RREF.
    ///
    /// # Examples
    ///
    /// ```
    /// use bosphorus_gf2::BitMatrix;
    /// use bosphorus_interrupt::CancelToken;
    /// // x0 + x1 = 0 and x0 + x1 + x2 = 0 reduce to x0 + x1 = 0, x2 = 0.
    /// let mut m = BitMatrix::zero(3, 3);
    /// for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)] {
    ///     m.set(r, c, true);
    /// }
    /// let stats = m.gauss_jordan(&CancelToken::never());
    /// assert_eq!(stats.rank, 2);
    /// assert_eq!(m.row(0).to_string(), "110");
    /// assert_eq!(m.row(1).to_string(), "001");
    /// assert_eq!(m.row(2).to_string(), "000");
    /// ```
    pub fn gauss_jordan(&mut self, token: &CancelToken) -> GaussStats {
        self.gauss_jordan_in(token, &mut KernelScratch::default())
    }

    /// [`BitMatrix::gauss_jordan`] with the blocked kernel's buffers taken
    /// from `scratch` (the sparse presolve eliminates many cores per call
    /// through one).
    pub(crate) fn gauss_jordan_in(
        &mut self,
        token: &CancelToken,
        scratch: &mut KernelScratch,
    ) -> GaussStats {
        match select_kernel(self.nrows(), self.ncols()) {
            KernelChoice::Plain => self.gauss_jordan_plain(token),
            KernelChoice::BlockedM4rm { block } => {
                self.gauss_jordan_blocked_m4rm_in(block, token, scratch)
            }
        }
    }

    /// Schoolbook Gauss–Jordan elimination: one pivot column at a time, one
    /// row XOR per offending row, polling `token` once per pivot column.
    ///
    /// Kept as the reference the M4RM kernel is checked and benchmarked
    /// against (`gje_bench`); production callers should use
    /// [`BitMatrix::gauss_jordan`] instead.
    pub fn gauss_jordan_plain(&mut self, token: &CancelToken) -> GaussStats {
        let mut stats = GaussStats::default();
        let nrows = self.nrows();
        let ncols = self.ncols();
        let mut pivot_row = 0usize;
        for col in 0..ncols {
            if pivot_row >= nrows {
                break;
            }
            if token.is_cancelled() {
                stats.interrupted = true;
                break;
            }
            // Find a row at or below pivot_row with a 1 in this column.
            let Some(found) = (pivot_row..nrows).find(|&r| self.get(r, col)) else {
                continue;
            };
            if found != pivot_row {
                self.swap_rows(found, pivot_row);
                stats.row_swaps += 1;
            }
            // Eliminate the column from every other row.
            for r in 0..nrows {
                if r != pivot_row && self.get(r, col) {
                    self.xor_row_into(pivot_row, r);
                    stats.row_xors += 1;
                }
            }
            pivot_row += 1;
        }
        stats.rank = pivot_row;
        stats
    }

    /// The rank of the matrix, which is left unchanged.
    #[cfg(test)]
    pub(crate) fn rank(&self) -> usize {
        self.rref().1
    }

    /// The reduced row-echelon form of the matrix and its rank; the matrix
    /// is left unchanged.
    #[cfg(test)]
    pub(crate) fn rref(&self) -> (BitMatrix, usize) {
        let mut m = self.clone();
        let rank = m.gauss_jordan(&CancelToken::never()).rank;
        (m, rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_table1_matrix() -> BitMatrix {
        // Columns: x1x2x3, x2x3, x1x3, x1x2, x3, x2, x1, 1 (Table I(a)).
        BitMatrix::from_dense(&[
            // x1x2 + x1 + 1
            vec![false, false, false, true, false, false, true, true],
            // (x1x2 + x1 + 1) * x1 = x1x2 + x1 + x1 = x1x2  ... wait: x1*x1x2=x1x2, x1*x1=x1, x1*1=x1 -> x1x2
            vec![false, false, false, true, false, false, false, false],
            // (x1x2 + x1 + 1) * x2 = x1x2 + x1x2 + x2 = x2
            vec![false, false, false, false, false, true, false, false],
            // (x1x2 + x1 + 1) * x3 = x1x2x3 + x1x3 + x3
            vec![true, false, true, false, true, false, false, false],
            // x2x3 + x3
            vec![false, true, false, false, true, false, false, false],
            // (x2x3 + x3) * x1 = x1x2x3 + x1x3
            vec![true, false, true, false, false, false, false, false],
            // (x2x3 + x3) * x3 = x2x3 + x3
            vec![false, true, false, false, true, false, false, false],
        ])
    }

    #[test]
    fn table1_gje_learns_unit_facts() {
        // Reproduces Table I(b): after GJE the last three non-zero rows are
        // x1 + 1, x2, and x3 (i.e. facts x1=1, x2=0, x3=0).
        let mut m = paper_table1_matrix();
        let rank = m.gauss_jordan(&CancelToken::never()).rank;
        assert_eq!(rank, 6);
        let rows: Vec<String> = m
            .iter()
            .filter(|r| !r.is_zero())
            .map(|r| r.to_string())
            .collect();
        assert!(rows.contains(&"00000011".to_string()), "x1 + 1 learnt");
        assert!(rows.contains(&"00000100".to_string()), "x2 learnt");
        assert!(rows.contains(&"00001000".to_string()), "x3 learnt");
    }

    #[test]
    fn gje_idempotent() {
        let mut m = paper_table1_matrix();
        m.gauss_jordan(&CancelToken::never());
        let once = m.clone();
        m.gauss_jordan(&CancelToken::never());
        assert_eq!(m, once);
    }

    #[test]
    fn rank_of_identity_and_zero() {
        assert_eq!(BitMatrix::identity(17).rank(), 17);
        assert_eq!(BitMatrix::zero(5, 9).rank(), 0);
    }

    #[test]
    fn default_kernel_matches_plain_kernel() {
        // The dispatcher (M4RM above the size threshold) must produce the
        // exact RREF of the schoolbook kernel.
        let mut wide = BitMatrix::zero(48, 130);
        for r in 0..48 {
            for c in 0..130 {
                if (r * 131 + c * 17) % 5 == 0 {
                    wide.set(r, c, true);
                }
            }
        }
        let mut plain = wide.clone();
        let plain_stats = plain.gauss_jordan_plain(&CancelToken::never());
        let stats = wide.gauss_jordan(&CancelToken::never());
        assert_eq!(stats.rank, plain_stats.rank);
        assert_eq!(wide, plain);
    }

    #[test]
    fn blocked_gje_matches_plain() {
        let m = paper_table1_matrix();
        let (plain, rank_plain) = m.rref();
        for block in [1usize, 2, 3, 8, 16] {
            let mut b = m.clone();
            let rank_b = b
                .gauss_jordan_blocked_m4rm(block, &CancelToken::never())
                .rank;
            assert_eq!(rank_b, rank_plain, "rank mismatch for block {block}");
            assert_eq!(b, plain, "RREF mismatch for block {block}");
        }
    }

    #[test]
    fn blocked_gje_reports_stats() {
        let mut m = paper_table1_matrix();
        let stats = m.gauss_jordan_blocked_m4rm(4, &CancelToken::never());
        assert_eq!(stats.rank, 6);
        assert!(stats.row_xors > 0, "elimination work must be counted");
    }

    #[test]
    fn stats_counts_operations() {
        let mut m = BitMatrix::from_dense(&[vec![false, true], vec![true, false]]);
        let stats = m.gauss_jordan(&CancelToken::never());
        assert_eq!(stats.rank, 2);
        assert_eq!(stats.row_swaps, 1);
        assert_eq!(stats.row_xors, 0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut total = GaussStats::default();
        total.merge(GaussStats {
            rank: 3,
            row_xors: 10,
            row_swaps: 1,
            sweeps: 4,
            scattered_sweeps: 3,
            interrupted: false,
        });
        total.merge(GaussStats {
            rank: 2,
            row_xors: 4,
            row_swaps: 0,
            sweeps: 2,
            scattered_sweeps: 0,
            interrupted: true,
        });
        assert_eq!(
            total,
            GaussStats {
                rank: 5,
                row_xors: 14,
                row_swaps: 1,
                sweeps: 6,
                scattered_sweeps: 3,
                interrupted: true,
            }
        );
    }

    #[test]
    fn kernel_selection_is_pinned_at_representative_sizes() {
        // Regression guard for the auto-selection heuristic: these are the
        // shapes the engine actually produces (tiny propagation systems,
        // mid-size ElimLin matrices, paper-scale XL linearisations). A
        // change in any of these is a deliberate retuning, not drift.
        use crate::{select_kernel, KernelChoice};
        let blocked = |block: usize| KernelChoice::BlockedM4rm { block };
        assert_eq!(select_kernel(0, 0), KernelChoice::Plain);
        assert_eq!(select_kernel(7, 128), KernelChoice::Plain);
        assert_eq!(select_kernel(15, 15), KernelChoice::Plain);
        assert_eq!(select_kernel(16, 16), blocked(3));
        assert_eq!(select_kernel(64, 64), blocked(5));
        assert_eq!(select_kernel(256, 256), blocked(6));
        assert_eq!(select_kernel(1024, 1024), blocked(8));
        assert_eq!(select_kernel(2048, 2048), blocked(8));
        assert_eq!(select_kernel(4096, 4096), blocked(8));
        // XL-shaped: wide beyond cache even with modest row counts.
        assert_eq!(select_kernel(2048, 16384), blocked(8));
        // Tall and narrow: k comes from the smaller dimension.
        assert_eq!(select_kernel(200_000, 24), blocked(3));
        assert_eq!(select_kernel(100, 4096), blocked(5));
        // The dispatcher must agree with the choice (rank sanity check).
        let mut m = BitMatrix::identity(64);
        assert_eq!(m.gauss_jordan(&CancelToken::never()).rank, 64);
        let mut m2 = BitMatrix::identity(4096);
        assert_eq!(m2.gauss_jordan(&CancelToken::never()).rank, 4096);
    }

    #[test]
    fn blocked_kernel_clamps_the_block_width() {
        // Out-of-range widths are clamped to [1, 8] and still produce the
        // canonical RREF.
        let m = paper_table1_matrix();
        let (plain, rank) = m.rref();
        for block in [0usize, 1, 8, 100] {
            let mut b = m.clone();
            assert_eq!(
                b.gauss_jordan_blocked_m4rm(block, &CancelToken::never())
                    .rank,
                rank,
                "block {block}"
            );
            assert_eq!(b, plain, "block {block}");
        }
    }

    #[test]
    fn pivot_columns_after_rref() {
        let (rref, _) = paper_table1_matrix().rref();
        let pivots: Vec<usize> = rref.iter().filter_map(|row| row.first_one()).collect();
        assert_eq!(pivots.len(), 6);
        assert!(pivots.windows(2).all(|w| w[0] < w[1]));
    }
}
