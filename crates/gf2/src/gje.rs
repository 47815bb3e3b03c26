//! Gauss–Jordan elimination, rank, kernel and linear-system solving.
//!
//! Two elimination kernels sit behind one API: the schoolbook kernel
//! ([`BitMatrix::gauss_jordan_plain_with_stats`], kept as the reference
//! baseline) and the cache-blocked multi-table M4RM kernel
//! ([`BitMatrix::gauss_jordan_blocked_m4rm_with_stats`]). Both produce
//! bit-identical RREF; [`BitMatrix::gauss_jordan_with_stats`] picks between
//! them with [`select_kernel`], so `rank`, `rref`, `kernel` and `solve` all
//! ride on the fast path.

use bosphorus_interrupt::CancelToken;

use crate::blocked::{m4rm_block_size, M4RM_MIN_DIM};
use crate::{BitMatrix, BitVec};

/// The elimination kernel [`select_kernel`] picked for a matrix shape.
///
/// Mostly useful for tests and diagnostics: production callers go through
/// [`BitMatrix::gauss_jordan_with_stats`], which consults [`select_kernel`]
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
///   [`m4rm_block_size`] per-table width. The cache estimate
///   [`GF2_L2_CACHE_BYTES`](crate::GF2_L2_CACHE_BYTES) steers the *shape*
///   of its work: matrices wider than
///   [`blocked_tile_words`](crate::blocked_tile_words) have their updates
///   column-tiled so all three Gray-code tables stay L2-resident.
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

/// Statistics reported by the `*_with_stats` elimination entry points.
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
        self.interrupted |= other.interrupted;
    }
}

/// Result of solving a linear system `A x = b` over GF(2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// The system has at least one solution; a particular solution is given.
    Solution(BitVec),
    /// The system is inconsistent (a row reduces to `0 = 1`).
    Inconsistent,
}

impl BitMatrix {
    /// Performs in-place Gauss–Jordan elimination, bringing the matrix into
    /// reduced row-echelon form (RREF), and returns the rank.
    ///
    /// Pivot columns are chosen left to right; after the call every pivot
    /// column contains exactly one `1` and pivot rows are sorted by pivot
    /// column, followed by all-zero rows.
    ///
    /// Dispatches to the blocked Method-of-Four-Russians kernel for all but
    /// tiny matrices; see [`BitMatrix::gauss_jordan_with_stats`].
    ///
    /// # Examples
    ///
    /// ```
    /// use bosphorus_gf2::BitMatrix;
    /// let mut m = BitMatrix::from_dense(&[
    ///     vec![true, true, false],
    ///     vec![true, true, true],
    ///     vec![false, false, true],
    /// ]);
    /// assert_eq!(m.gauss_jordan(), 2);
    /// ```
    pub fn gauss_jordan(&mut self) -> usize {
        self.gauss_jordan_with_stats().rank
    }

    /// Like [`BitMatrix::gauss_jordan`] but also reports operation counts.
    ///
    /// This is the unified elimination entry point: it dispatches on
    /// [`select_kernel`] — schoolbook for tiny matrices, the cache-blocked
    /// multi-table kernel for everything else. Both kernels produce
    /// bit-identical RREF, so callers only ever observe a change in speed.
    ///
    /// ```
    /// use bosphorus_gf2::BitMatrix;
    /// let mut m = BitMatrix::identity(100);
    /// m.set(99, 0, true);
    /// let stats = m.gauss_jordan_with_stats();
    /// assert_eq!(stats.rank, 100);
    /// assert_eq!(m, BitMatrix::identity(100));
    /// ```
    pub fn gauss_jordan_with_stats(&mut self) -> GaussStats {
        self.gauss_jordan_cancellable(&CancelToken::never())
    }

    /// Like [`BitMatrix::gauss_jordan_with_stats`], polling `token` at
    /// coarse checkpoints (once per elimination sweep for the blocked
    /// kernel, once per pivot column for the schoolbook kernel).
    ///
    /// On cancellation the elimination stops between sweeps and returns
    /// with [`GaussStats::interrupted`] set; the matrix is then only
    /// partially reduced, so callers must treat it as scratch and discard
    /// any facts they would otherwise read from the RREF.
    pub fn gauss_jordan_cancellable(&mut self, token: &CancelToken) -> GaussStats {
        match select_kernel(self.nrows(), self.ncols()) {
            KernelChoice::Plain => self.gauss_jordan_plain_cancellable(token),
            KernelChoice::BlockedM4rm { block } => {
                self.gauss_jordan_blocked_m4rm_cancellable(block, token)
            }
        }
    }

    /// Schoolbook Gauss–Jordan elimination: one pivot column at a time, one
    /// row XOR per offending row.
    ///
    /// Kept as the reference the M4RM kernel is checked and benchmarked
    /// against (`gje_kernels` bench); production callers should use
    /// [`BitMatrix::gauss_jordan_with_stats`] instead.
    pub fn gauss_jordan_plain_with_stats(&mut self) -> GaussStats {
        self.gauss_jordan_plain_cancellable(&CancelToken::never())
    }

    /// Like [`BitMatrix::gauss_jordan_plain_with_stats`], polling `token`
    /// once per pivot column (the schoolbook kernel only runs on tiny
    /// matrices, so per-column polling is already coarse).
    pub fn gauss_jordan_plain_cancellable(&mut self, token: &CancelToken) -> GaussStats {
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

    /// Returns the rank of the matrix without modifying it.
    ///
    /// # Examples
    ///
    /// ```
    /// use bosphorus_gf2::BitMatrix;
    /// assert_eq!(BitMatrix::identity(17).rank(), 17);
    /// assert_eq!(BitMatrix::zero(5, 9).rank(), 0);
    /// ```
    pub fn rank(&self) -> usize {
        self.clone().gauss_jordan()
    }

    /// Returns the reduced row-echelon form of the matrix without modifying
    /// it, together with its rank.
    ///
    /// # Examples
    ///
    /// ```
    /// use bosphorus_gf2::BitMatrix;
    /// // x0 + x1 = 0 and x1 = 0 reduce to the unit facts x0 = 0, x1 = 0.
    /// let m = BitMatrix::from_dense(&[vec![true, true], vec![false, true]]);
    /// let (rref, rank) = m.rref();
    /// assert_eq!(rank, 2);
    /// assert_eq!(rref, BitMatrix::identity(2));
    /// ```
    pub fn rref(&self) -> (BitMatrix, usize) {
        let mut m = self.clone();
        let rank = m.gauss_jordan();
        (m, rank)
    }

    /// Returns the pivot column index of each pivot row, assuming the matrix
    /// is already in reduced row-echelon form (e.g. after
    /// [`BitMatrix::gauss_jordan`]).
    pub fn pivot_columns(&self) -> Vec<usize> {
        self.iter().filter_map(|row| row.first_one()).collect()
    }

    /// Computes a basis of the right kernel (null space) of the matrix.
    ///
    /// Every returned vector `v` satisfies `self * v = 0`. The basis has
    /// `ncols - rank` elements.
    ///
    /// # Examples
    ///
    /// ```
    /// use bosphorus_gf2::BitMatrix;
    /// let m = BitMatrix::from_dense(&[vec![true, true, false]]);
    /// let kernel = m.kernel();
    /// assert_eq!(kernel.len(), 2);
    /// for v in &kernel {
    ///     assert!(m.mul_vec(v).is_zero());
    /// }
    /// ```
    pub fn kernel(&self) -> Vec<BitVec> {
        let (rref, rank) = self.rref();
        let ncols = self.ncols();
        let pivots = rref.pivot_columns();
        let is_pivot: Vec<bool> = {
            let mut v = vec![false; ncols];
            for &p in &pivots {
                v[p] = true;
            }
            v
        };
        // Building a basis vector reads a whole *column* of the RREF (the
        // free column's coefficients in every pivot row). The arena's fixed
        // row stride makes that one direct word probe per pivot row — no
        // transposed copy of the whole RREF needs materialising, which for
        // the paper-scale XL matrices (thousands of rows, tens of thousands
        // of columns) used to double the working set. Only the first `rank`
        // rows need probing: zero rows have no ones.
        let word = |free_col: usize| free_col / 64;
        let bit = |free_col: usize| free_col % 64;
        let mut basis = Vec::with_capacity(ncols - rank);
        for free_col in (0..ncols).filter(|&c| !is_pivot[c]) {
            let mut v = BitVec::zero(ncols);
            v.set(free_col, true);
            for (row_idx, &pivot_col) in pivots.iter().enumerate() {
                if (rref.row_words(row_idx)[word(free_col)] >> bit(free_col)) & 1 == 1 {
                    v.set(pivot_col, true);
                }
            }
            basis.push(v);
        }
        basis
    }

    /// Solves `self * x = b` over GF(2), returning a particular solution when
    /// one exists.
    ///
    /// The augmented matrix `[A | b]` is assembled with the word-level
    /// [`BitMatrix::hstack`] row copies, then eliminated with the default
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.nrows()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use bosphorus_gf2::{BitMatrix, BitVec, SolveOutcome};
    /// // x0 + x1 = 1, x1 = 1  ->  x0 = 0, x1 = 1.
    /// let a = BitMatrix::from_dense(&[vec![true, true], vec![false, true]]);
    /// let b = BitVec::from_bits([true, true]);
    /// match a.solve(&b) {
    ///     SolveOutcome::Solution(x) => assert_eq!(a.mul_vec(&x), b),
    ///     SolveOutcome::Inconsistent => unreachable!(),
    /// }
    /// ```
    pub fn solve(&self, b: &BitVec) -> SolveOutcome {
        assert_eq!(
            b.len(),
            self.nrows(),
            "right-hand side length must equal the row count"
        );
        let ncols = self.ncols();
        let mut aug = self.hstack(&BitMatrix::column_vector(b));
        aug.gauss_jordan();
        let mut x = BitVec::zero(ncols);
        for row in aug.iter() {
            match row.first_one() {
                None => {}
                Some(p) if p == ncols => return SolveOutcome::Inconsistent,
                Some(p) if row.get(ncols) => x.set(p, true),
                Some(_) => {}
            }
        }
        SolveOutcome::Solution(x)
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
        let rank = m.gauss_jordan();
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
        m.gauss_jordan();
        let once = m.clone();
        m.gauss_jordan();
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
        let plain_stats = plain.gauss_jordan_plain_with_stats();
        let stats = wide.gauss_jordan_with_stats();
        assert_eq!(stats.rank, plain_stats.rank);
        assert_eq!(wide, plain);
    }

    #[test]
    fn kernel_dimension_and_membership() {
        let m = BitMatrix::from_dense(&[
            vec![true, true, false, false],
            vec![false, true, true, false],
        ]);
        let k = m.kernel();
        assert_eq!(k.len(), 2);
        for v in &k {
            assert!(m.mul_vec(v).is_zero());
        }
    }

    #[test]
    fn solve_consistent_system() {
        // x0 + x1 = 1, x1 = 1  ->  x0 = 0, x1 = 1
        let m = BitMatrix::from_dense(&[vec![true, true], vec![false, true]]);
        let b = BitVec::from_bits([true, true]);
        match m.solve(&b) {
            SolveOutcome::Solution(x) => {
                assert_eq!(m.mul_vec(&x), b);
                assert!(!x.get(0));
                assert!(x.get(1));
            }
            SolveOutcome::Inconsistent => panic!("system should be consistent"),
        }
    }

    #[test]
    fn solve_inconsistent_system() {
        // x0 = 0 and x0 = 1.
        let m = BitMatrix::from_dense(&[vec![true], vec![true]]);
        let b = BitVec::from_bits([false, true]);
        assert_eq!(m.solve(&b), SolveOutcome::Inconsistent);
    }

    #[test]
    fn solve_across_word_boundary_widths() {
        for &n in &[63usize, 64, 65, 127] {
            let mut m = BitMatrix::identity(n);
            // Mix in some off-diagonal structure.
            for r in 1..n {
                m.set(r, r - 1, true);
            }
            let x = BitVec::from_bits((0..n).map(|i| i % 3 == 0));
            let b = m.mul_vec(&x);
            match m.solve(&b) {
                SolveOutcome::Solution(sol) => assert_eq!(m.mul_vec(&sol), b, "width {n}"),
                SolveOutcome::Inconsistent => panic!("consistent by construction (width {n})"),
            }
        }
    }

    #[test]
    fn blocked_gje_matches_plain() {
        let m = paper_table1_matrix();
        let (plain, rank_plain) = m.rref();
        for block in [1usize, 2, 3, 8, 16] {
            let mut b = m.clone();
            let rank_b = b.gauss_jordan_blocked_m4rm_with_stats(block).rank;
            assert_eq!(rank_b, rank_plain, "rank mismatch for block {block}");
            assert_eq!(b, plain, "RREF mismatch for block {block}");
        }
    }

    #[test]
    fn blocked_gje_reports_stats() {
        let mut m = paper_table1_matrix();
        let stats = m.gauss_jordan_blocked_m4rm_with_stats(4);
        assert_eq!(stats.rank, 6);
        assert!(stats.row_xors > 0, "elimination work must be counted");
    }

    #[test]
    fn stats_counts_operations() {
        let mut m = BitMatrix::from_dense(&[vec![false, true], vec![true, false]]);
        let stats = m.gauss_jordan_with_stats();
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
            interrupted: false,
        });
        total.merge(GaussStats {
            rank: 2,
            row_xors: 4,
            row_swaps: 0,
            interrupted: true,
        });
        assert_eq!(
            total,
            GaussStats {
                rank: 5,
                row_xors: 14,
                row_swaps: 1,
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
        assert_eq!(m.gauss_jordan_with_stats().rank, 64);
        let mut m2 = BitMatrix::identity(4096);
        assert_eq!(m2.gauss_jordan_with_stats().rank, 4096);
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
                b.gauss_jordan_blocked_m4rm_with_stats(block).rank,
                rank,
                "block {block}"
            );
            assert_eq!(b, plain, "block {block}");
        }
    }

    #[test]
    fn pivot_columns_after_rref() {
        let (rref, _) = paper_table1_matrix().rref();
        let pivots = rref.pivot_columns();
        assert_eq!(pivots.len(), 6);
        assert!(pivots.windows(2).all(|w| w[0] < w[1]));
    }
}
