//! Sparse structural presolve ahead of the dense Gauss–Jordan kernels.
//!
//! XL and ElimLin rows are born sparse — one polynomial, a handful of
//! monomials — yet packed whole into a bit arena they make a dense kernel
//! rediscover that structure by brute force. This module runs a set of
//! *exact* structural reductions on the sparse rows first and hands only the
//! residual core(s) to the dense kernel:
//!
//! * **R1 empty-row drop**: all-zero rows contribute nothing to the RREF.
//! * **R2 duplicate-row drop**: of two identical rows one XORs the other to
//!   zero, so the later one is dropped (one row XOR).
//! * **R3 singleton-row elimination**: a row `{c}` *is* its final RREF row;
//!   column `c` is deleted from every other row (cascading).
//! * **R4 weight-2 substitution**: a row `{a, b}` (with `a` its leading
//!   column) is set aside as pivot `a` with tail `{b}`; XORing it into every
//!   other row containing `a` renames column `a` to `b` without fill.
//! * **R5 pure-leading-column extraction**: a row whose *leading* column
//!   appears in no other row is set aside with zero forward work — on XL
//!   matrices the top product monomials are mostly unique, so this rule
//!   cascades deeply.
//!
//! What survives is split into connected components (union–find over
//! columns); each component becomes a small column-compacted [`BitMatrix`]
//! eliminated by the existing auto-selected dense kernel, one after another
//! in component order, and the component
//! RREFs plus the set-aside rows are stitched back — set-asides
//! back-substituted in reverse removal order — into the full RREF.
//!
//! # Storage
//!
//! Everything lives in flat arrays whose number does not grow with the
//! matrix. The rows are one CSR arena (a [`SparseMatrix`] built from a
//! linearisation takes the builder's term arena over): no rule ever grows a
//! row — R1–R5 only delete a column or rename one — so each row shrinks in
//! place inside its original slot. A set-aside row keeps its slot, frozen
//! at removal, as its pivot and tail. Column occurrences are one
//! counting-sorted CSC of the input plus one append list for the columns R4
//! renames into a row; both may hold stale entries, which are re-validated
//! against the live rows when read through one reused buffer. The component
//! split, the cores and the stitched RREF rows are ranges of flat arrays
//! too, and [`SparseRref`] hands the rows out as slices. A caller that
//! wants only some rows says which by their [`RowShape`]
//! ([`SparseMatrix::rref`]); a dense-core row it rejects is read
//! back only if a set-aside row's back-substitution needs it.
//!
//! # Exactness
//!
//! The RREF of a matrix is unique, so any sequence of elementary row
//! operations followed by a canonical stitching yields *the* RREF. Rules
//! R2/R4 are plain row XORs; R1 only drops zero rows (which the
//! callers filter anyway). The set-aside rules (R3/R4/R5) all pivot on a
//! row's **leading** column at a moment where that column occurs in no other
//! remaining row: if column `c` is non-zero only in row `r` and
//! `c = min(support(r))`, then `RREF(M) = {reduce(r)} ∪ RREF(M ∖ {r})`,
//! where `reduce(r)` XORs in the finished RREF rows whose pivot lies in
//! `r`'s tail (all such pivots exceed `c`, so the leading column survives,
//! and the finished rows' tails only hold free columns, so one pass
//! suffices). Pivoting a *non*-leading pure column would break this — the
//! stitched row could gain a smaller leading column — so R5 deliberately
//! fires on leading columns only. Set-aside pivots never reappear in any
//! remaining row (purity at removal time, and later XORs combine rows that
//! are all zero there), which is what makes the reverse-order
//! back-substitution a single pass.
//!
//! # Cancellation
//!
//! Cancellation is transactional: the presolve loops poll an amortised
//! [`Checkpoint`], the component loop polls the token before each
//! component and the dense kernel once per sweep; on a trip the result
//! reports [`GaussStats::interrupted`] with no rows, so callers discard it
//! exactly like a partially reduced dense matrix.

use std::time::{Duration, Instant};

use bosphorus_interrupt::{CancelToken, Checkpoint};

use crate::blocked::KernelScratch;
use crate::{BitMatrix, GaussStats};

/// Cancellation poll interval of the presolve loops: fine enough that a
/// deadline lands within milliseconds, coarse enough that the atomic load
/// never shows up in a profile.
const PRESOLVE_CHECK_INTERVAL: u64 = 1 << 12;

/// Marks a removed row's length and an absent index in the flat maps.
const NONE: u32 = u32::MAX;

/// Counters describing what one presolve run eliminated, reported alongside
/// the dense-kernel [`GaussStats`] so callers can see how much of the matrix
/// never reached the dense arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PresolveStats {
    /// Rows of the input sparse matrix.
    pub input_rows: usize,
    /// Columns of the input sparse matrix (the full linearised width).
    pub input_cols: usize,
    /// Empty rows dropped (R1), counting rows emptied by other rules.
    pub empty_rows: usize,
    /// Duplicate rows dropped (R2).
    pub duplicate_rows: usize,
    /// Singleton rows set aside (R3).
    pub singleton_rows: usize,
    /// Weight-2 rows set aside (R4).
    pub weight2_rows: usize,
    /// Pure-leading-column rows set aside (R5).
    pub pure_leading_rows: usize,
    /// Rows removed before the dense kernel ran (drops plus set-asides).
    pub rows_eliminated: usize,
    /// Columns absent from every dense core (eliminated or never occupied).
    pub cols_eliminated: usize,
    /// Connected components the residual matrix split into.
    pub components: usize,
    /// Total rows across all dense cores.
    pub dense_rows: usize,
    /// Total (compacted) columns across all dense cores.
    pub dense_cols: usize,
    /// Wall-clock nanoseconds of the sparse path outside the dense cores:
    /// rule fixpoint, component split, core compaction, read-back and
    /// stitching — plus, when a caller hands a linearisation over, its CSR
    /// hand-off and fact read-back, so that this and
    /// [`PresolveStats::dense_ns`] add up to the whole elimination.
    pub presolve_ns: u64,
    /// Wall-clock nanoseconds spent inside the dense core eliminations,
    /// summed over the components.
    pub dense_ns: u64,
    /// Entries (column ids) dropped with duplicate rows (R2).
    pub duplicate_nnz: usize,
    /// Entries removed by singleton eliminations (R3): one per set-aside
    /// row plus one per deletion its cascade performed.
    pub singleton_nnz: usize,
    /// Entries deleted by weight-2 substitutions (R4); insertions of the
    /// replacement column are not netted against this.
    pub weight2_nnz: usize,
    /// Entries of the rows set aside by pure-leading extraction (R5).
    pub pure_leading_nnz: usize,
    /// High-water mark of rows held live at once. The presolve stores every
    /// input row before any rule fires, so this equals `input_rows`. Merges
    /// take the max.
    pub peak_interned_rows: usize,
    /// High-water mark of stored row entries (32-bit column ids) at the
    /// same moments as [`PresolveStats::peak_interned_rows`]. Merges take
    /// the max.
    pub peak_interned_words: usize,
    /// Wall-clock nanoseconds inside the R1/R3/R4/R5 cascade queues.
    pub cascade_ns: u64,
    /// Wall-clock nanoseconds inside batch duplicate-drop passes (R2).
    pub dedup_ns: u64,
}

impl PresolveStats {
    /// Folds another presolve run's counters into this one (used by callers
    /// that run several eliminations per pass and report cumulative work).
    /// Peak fields take the max of the merged runs; every other field
    /// accumulates, so shape fields become totals across the merged runs.
    pub fn merge(&mut self, other: PresolveStats) {
        self.input_rows += other.input_rows;
        self.input_cols += other.input_cols;
        self.empty_rows += other.empty_rows;
        self.duplicate_rows += other.duplicate_rows;
        self.singleton_rows += other.singleton_rows;
        self.weight2_rows += other.weight2_rows;
        self.pure_leading_rows += other.pure_leading_rows;
        self.rows_eliminated += other.rows_eliminated;
        self.cols_eliminated += other.cols_eliminated;
        self.components += other.components;
        self.dense_rows += other.dense_rows;
        self.dense_cols += other.dense_cols;
        self.presolve_ns += other.presolve_ns;
        self.dense_ns += other.dense_ns;
        self.duplicate_nnz += other.duplicate_nnz;
        self.singleton_nnz += other.singleton_nnz;
        self.weight2_nnz += other.weight2_nnz;
        self.pure_leading_nnz += other.pure_leading_nnz;
        self.peak_interned_rows = self.peak_interned_rows.max(other.peak_interned_rows);
        self.peak_interned_words = self.peak_interned_words.max(other.peak_interned_words);
        self.cascade_ns += other.cascade_ns;
        self.dedup_ns += other.dedup_ns;
    }

    /// Rows set aside by the pivoting rules (each contributes one final RREF
    /// row without ever entering the dense arena).
    pub fn rows_set_aside(&self) -> usize {
        self.singleton_rows + self.weight2_rows + self.pure_leading_rows
    }
}

/// A sparse GF(2) matrix in CSR form: one arena of column ids, each row a
/// strictly ascending run of it.
///
/// This is the presolve's working representation of the linearised system —
/// the CSR store of `LinearizationBuilder` (one term-id arena plus row
/// offsets) is taken over by [`SparseMatrix::from_csr`] without copying or
/// densifying.
///
/// # Examples
///
/// ```
/// use bosphorus_gf2::SparseMatrix;
/// use bosphorus_interrupt::CancelToken;
///
/// let mut m = SparseMatrix::new(4);
/// m.push_row([0, 3]);
/// m.push_row([3]);
/// let r = m.rref(&CancelToken::never(), |_| true);
/// assert_eq!(r.rank, 2);
/// // {0, 3} ^ {3} = {0}: the RREF rows are {0} and {3}.
/// assert_eq!(r.rows().collect::<Vec<_>>(), [&[0][..], &[3][..]]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseMatrix {
    ncols: usize,
    /// Every row's column ids, concatenated.
    entries: Vec<u32>,
    /// Row `r` is `entries[offsets[r]..offsets[r + 1]]`; starts with `0`.
    offsets: Vec<usize>,
}

impl SparseMatrix {
    /// An empty matrix with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        SparseMatrix {
            ncols,
            entries: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Builds a matrix from per-row column-id lists. Rows are normalised
    /// (sorted; duplicate pairs cancel, XOR-style).
    #[cfg(test)]
    pub(crate) fn from_rows(ncols: usize, rows: Vec<Vec<u32>>) -> Self {
        let mut m = SparseMatrix::new(ncols);
        m.offsets.reserve(rows.len());
        for row in rows {
            m.push_row(row);
        }
        m
    }

    /// Takes over a CSR store: `entries` is the concatenated column-id
    /// arena, `offsets` the per-row half-open ranges
    /// (`offsets[r]..offsets[r + 1]`, so `offsets.len()` is `nrows + 1`).
    /// Each row is normalised in place (sorted; duplicate pairs cancel,
    /// XOR-style) and the arena compacted, so no row is copied out.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` does not start at 0, decreases, or does not end
    /// at `entries.len()`, or if a column id is out of range.
    pub fn from_csr(ncols: usize, mut entries: Vec<u32>, mut offsets: Vec<usize>) -> Self {
        assert_eq!(offsets.first(), Some(&0), "offsets must start at 0");
        assert_eq!(
            offsets.last(),
            Some(&entries.len()),
            "offsets must end at the arena length"
        );
        let mut write = 0usize;
        let mut start = 0usize;
        for r in 0..offsets.len() - 1 {
            let end = offsets[r + 1];
            assert!(start <= end, "offsets must be non-decreasing");
            offsets[r + 1] = normalize_into(&mut entries, start, end, write);
            write = offsets[r + 1];
            start = end;
        }
        entries.truncate(write);
        let m = SparseMatrix {
            ncols,
            entries,
            offsets,
        };
        for r in 0..m.nrows() {
            m.check_width(m.row(r));
        }
        m
    }

    /// Appends a row given as column ids in any order; duplicate pairs
    /// cancel (XOR semantics).
    ///
    /// # Panics
    ///
    /// Panics if a column id is out of range.
    pub fn push_row<I: IntoIterator<Item = u32>>(&mut self, cols: I) {
        let start = self.entries.len();
        self.entries.extend(cols);
        let len = self.entries.len();
        let end = normalize_into(&mut self.entries, start, len, start);
        self.entries.truncate(end);
        self.offsets.push(end);
        self.check_width(&self.entries[start..end]);
    }

    fn check_width(&self, row: &[u32]) {
        if let Some(&last) = row.last() {
            assert!(
                (last as usize) < self.ncols,
                "column id {last} out of range for width {}",
                self.ncols
            );
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Row `r` as a strictly ascending column-id slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.entries[self.offsets[r]..self.offsets[r + 1]]
    }

    /// The rows in order, as strictly ascending column-id slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.offsets.windows(2).map(|w| &self.entries[w[0]..w[1]])
    }

    /// Densifies into a [`BitMatrix`] (diagnostics and tests; the presolve
    /// itself only densifies the residual cores).
    pub fn to_dense(&self) -> BitMatrix {
        let mut m = BitMatrix::zero(self.nrows(), self.ncols);
        for (r, row) in self.rows().enumerate() {
            for &c in row {
                m.set(r, c as usize, true);
            }
        }
        m
    }

    /// Presolves and eliminates, returning the RREF rows whose
    /// [`RowShape`] `keep` accepts (see [`SparseRref`]);
    /// [`SparseRref::rank`] still counts every row. A dense-core row `keep`
    /// rejects is never read back into sparse form unless a set-aside row's
    /// back-substitution needs it — the saving for callers that want a few
    /// rows of a large RREF, like XL's retainable facts.
    ///
    /// `token` is polled throughout the presolve loops and once per sweep
    /// inside the dense core eliminations. On cancellation the result
    /// carries [`GaussStats::interrupted`] and *no* rows — partial output is
    /// never exposed.
    pub fn rref(self, token: &CancelToken, keep: impl Fn(RowShape) -> bool) -> SparseRref {
        presolve_rref(self, token, &keep)
    }
}

/// What [`SparseMatrix::rref`] tells its filter about an RREF row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowShape {
    /// The leading (pivot) column.
    pub lead: u32,
    /// The last column.
    pub last: u32,
    /// The number of entries.
    pub weight: usize,
}

impl RowShape {
    fn of(row: &[u32]) -> Self {
        RowShape {
            lead: row[0],
            last: row[row.len() - 1],
            weight: row.len(),
        }
    }
}

/// The stitched result of [`SparseMatrix::rref`]: the non-zero rows of the
/// dense-path RREF that its filter accepts, in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseRref {
    /// The rows' column ids, in the order they were produced.
    entries: Vec<u32>,
    /// `entries` range of each RREF row, sorted by leading column.
    spans: Vec<(usize, usize)>,
    /// Rank (= the number of rows when not interrupted; pivots established
    /// before the trip otherwise).
    pub rank: usize,
    /// Elimination work: the merged dense-core counters plus every presolve
    /// row operation folded into `row_xors`, with `rank` set to the total.
    pub gauss: GaussStats,
    /// What the presolve eliminated before the dense cores ran.
    pub presolve: PresolveStats,
}

impl SparseRref {
    /// Number of RREF rows returned (0 when `gauss.interrupted` is set).
    pub fn num_rows(&self) -> usize {
        self.spans.len()
    }

    /// The non-zero RREF rows as strictly ascending column-id lists, sorted
    /// by leading (pivot) column — byte-identical to the non-zero rows the
    /// dense kernel would produce. Empty when `gauss.interrupted` is set.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.spans
            .iter()
            .map(|&(start, end)| &self.entries[start..end])
    }
}

/// Sorts `arena[start..end]`, cancels duplicate pairs (XOR semantics) and
/// writes the survivors to `arena[write..]`, returning the end of what was
/// written. `write <= start`, so compaction never overtakes the reads.
fn normalize_into(arena: &mut [u32], start: usize, end: usize, write: usize) -> usize {
    debug_assert!(write <= start);
    arena[start..end].sort_unstable();
    let mut keep = write;
    let mut i = start;
    while i < end {
        let c = arena[i];
        let mut run = 1usize;
        while i + run < end && arena[i + run] == c {
            run += 1;
        }
        if run % 2 == 1 {
            arena[keep] = c;
            keep += 1;
        }
        i += run;
    }
    keep
}

/// Calls `f` with the index of every set bit of `words`, ascending.
fn push_ones(words: &[u64], mut f: impl FnMut(usize)) {
    for (i, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            f(i * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// One set-aside row: its slot `row`, frozen at removal with `len` entries —
/// the leading column (pure at removal time) followed by the tail awaiting
/// back-substitution.
#[derive(Clone, Copy)]
struct SetAside {
    row: u32,
    len: u32,
}

/// The iterated rule engine over the flat row arena.
///
/// Row `r` lives in `entries[offsets[r]..][..len[r]]` (`len[r] == NONE` once
/// removed); `col_count` is the exact live occupancy per column. The rows
/// containing column `c` are among the input CSC's `col_rows[col_start[c]..
/// col_start[c + 1]]` and the `renamed` chain starting at `renamed_head[c]`
/// — candidates that may be stale and are re-validated on use.
struct Presolver {
    entries: Vec<u32>,
    offsets: Vec<usize>,
    len: Vec<u32>,
    col_count: Vec<u32>,
    col_start: Vec<u32>,
    col_rows: Vec<u32>,
    renamed_head: Vec<u32>,
    /// `(row, next)` links of the per-column append lists R4 renames feed.
    renamed: Vec<(u32, u32)>,
    set_asides: Vec<SetAside>,
    stats: PresolveStats,
    /// Elementary row operations performed, folded into
    /// [`GaussStats::row_xors`].
    xors: usize,
    /// Rows that shrank to weight ≤ 2 and await R1/R3/R4.
    small: Vec<u32>,
    /// Columns whose live count dropped to 1 and await R5.
    pure_cols: Vec<u32>,
    /// Reused result buffer of [`Presolver::rows_containing`] and the R2
    /// duplicate list.
    found: Vec<u32>,
    /// `(row hash, row)` keys of the rows the last R2 pass saw live,
    /// ascending; a row killed or changed since has a stale key here.
    keys: Vec<(u64, u32)>,
    /// Reused buffers of the R2 pass: the new keys, and the merge target.
    fresh_keys: Vec<(u64, u32)>,
    merged_keys: Vec<(u64, u32)>,
    /// Rows changed since the last R2 pass (each listed once), and the
    /// flags that say so.
    changed: Vec<u32>,
    is_changed: Vec<bool>,
}

impl Presolver {
    fn new(m: SparseMatrix) -> Self {
        let SparseMatrix {
            ncols,
            entries,
            offsets,
        } = m;
        let nrows = offsets.len() - 1;
        assert!(
            entries.len() < NONE as usize && nrows < NONE as usize,
            "the presolve indexes rows and entries with u32"
        );
        let len: Vec<u32> = offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        // Counting-sort the entries by column: one CSC of the input, its row
        // lists ascending.
        let mut col_count = vec![0u32; ncols];
        for &c in &entries {
            col_count[c as usize] += 1;
        }
        let mut col_start = Vec::with_capacity(ncols + 1);
        let mut total = 0u32;
        col_start.push(0);
        for &n in &col_count {
            total += n;
            col_start.push(total);
        }
        let mut col_rows = vec![0u32; entries.len()];
        let mut fill: Vec<u32> = col_start[..ncols].to_vec();
        for r in 0..nrows {
            for &c in &entries[offsets[r]..offsets[r + 1]] {
                col_rows[fill[c as usize] as usize] = r as u32;
                fill[c as usize] += 1;
            }
        }
        let small = (0..nrows as u32)
            .filter(|&r| len[r as usize] <= 2)
            .collect();
        let pure_cols = (0..ncols as u32)
            .filter(|&c| col_count[c as usize] == 1)
            .collect();
        let stats = PresolveStats {
            input_rows: nrows,
            input_cols: ncols,
            // Batch presolve materialises every row before a rule fires.
            peak_interned_rows: nrows,
            peak_interned_words: entries.len(),
            ..PresolveStats::default()
        };
        Presolver {
            entries,
            offsets,
            len,
            col_count,
            col_start,
            col_rows,
            renamed_head: vec![NONE; ncols],
            renamed: Vec::new(),
            set_asides: Vec::new(),
            stats,
            xors: 0,
            small,
            pure_cols,
            found: Vec::new(),
            keys: Vec::new(),
            fresh_keys: Vec::new(),
            merged_keys: Vec::new(),
            // The first R2 pass keys every row.
            changed: (0..nrows as u32).collect(),
            is_changed: vec![true; nrows],
        }
    }

    fn nrows(&self) -> usize {
        self.len.len()
    }

    fn is_live(&self, r: usize) -> bool {
        self.len[r] != NONE
    }

    /// Live row `r`'s current entries.
    fn row(&self, r: usize) -> &[u32] {
        debug_assert!(self.is_live(r));
        let start = self.offsets[r];
        &self.entries[start..start + self.len[r] as usize]
    }

    /// Decrements a column's live count, queueing it for R5 at count 1.
    fn dec_col(&mut self, c: u32) {
        let count = &mut self.col_count[c as usize];
        *count -= 1;
        if *count == 1 {
            self.pure_cols.push(c);
        }
    }

    /// Removes live row `r`, releasing its column counts, and returns its
    /// length; its slot keeps the entries it had.
    fn kill_row(&mut self, r: usize) -> u32 {
        let len = self.len[r];
        debug_assert!(len != NONE, "killing a live row");
        self.len[r] = NONE;
        let start = self.offsets[r];
        for i in start..start + len as usize {
            self.dec_col(self.entries[i]);
        }
        len
    }

    /// Removes live row `r` as a set-aside (its slot holds pivot and tail).
    fn set_aside(&mut self, r: usize) -> u32 {
        let len = self.kill_row(r);
        self.set_asides.push(SetAside { row: r as u32, len });
        len
    }

    /// Deletes the entry at `pos` of live row `r`.
    fn remove_at(&mut self, r: usize, pos: usize) {
        let start = self.offsets[r];
        let len = self.len[r] as usize;
        self.entries
            .copy_within(start + pos + 1..start + len, start + pos);
        self.len[r] -= 1;
        self.mark_changed(r);
    }

    /// Notes that row `r`'s entries changed, so the next R2 pass re-keys
    /// it.
    fn mark_changed(&mut self, r: usize) {
        if !self.is_changed[r] {
            self.is_changed[r] = true;
            self.changed.push(r as u32);
        }
    }

    /// Fills `found` with the live rows currently containing column `c`, in
    /// ascending order. A row removed from and later re-added to the column
    /// can be listed twice, so the result is deduplicated — callers may
    /// mutate each returned row exactly once.
    fn rows_containing(&self, c: u32, found: &mut Vec<u32>) {
        found.clear();
        let contains = |r: u32| {
            let r = r as usize;
            self.is_live(r) && self.row(r).binary_search(&c).is_ok()
        };
        let listed = &self.col_rows
            [self.col_start[c as usize] as usize..self.col_start[c as usize + 1] as usize];
        found.extend(listed.iter().copied().filter(|&r| contains(r)));
        let mut link = self.renamed_head[c as usize];
        if link == NONE {
            return; // the CSC lists are ascending and distinct already
        }
        while link != NONE {
            let (r, next) = self.renamed[link as usize];
            if contains(r) {
                found.push(r);
            }
            link = next;
        }
        found.sort_unstable();
        found.dedup();
    }

    /// XORs the weight-2 set-aside `{a, b}` into row `j` (which contains
    /// `a`): deletes `a`, toggles `b`. Never increases the row's weight.
    fn xor_pair_into(&mut self, j: usize, a: u32, b: u32) {
        let start = self.offsets[j];
        let len = self.len[j] as usize;
        let row = &mut self.entries[start..start + len];
        let pos_a = row.binary_search(&a).expect("row contains the pivot");
        // `a` leads the pair, so `b` sits (or belongs) after it.
        match row.binary_search(&b) {
            Ok(pos_b) => {
                row.copy_within(pos_b + 1..len, pos_b);
                row.copy_within(pos_a + 1..len - 1, pos_a);
                self.len[j] -= 2;
                self.dec_col(a);
                self.dec_col(b);
                self.stats.weight2_nnz += 2;
            }
            Err(ins) => {
                row.copy_within(pos_a + 1..ins, pos_a);
                row[ins - 1] = b;
                self.dec_col(a);
                self.col_count[b as usize] += 1;
                self.renamed.push((j as u32, self.renamed_head[b as usize]));
                self.renamed_head[b as usize] = (self.renamed.len() - 1) as u32;
                self.stats.weight2_nnz += 1;
            }
        }
        if self.len[j] <= 2 {
            self.small.push(j as u32);
        }
        self.mark_changed(j);
        self.xors += 1;
    }

    /// Drains the R1/R3/R4 (small rows) and R5 (pure leading columns)
    /// queues to a joint fixed point. Returns `true` on cancellation.
    fn drain_queues(&mut self, check: &mut Checkpoint) -> bool {
        loop {
            if check.check() {
                return true;
            }
            if let Some(r) = self.small.pop() {
                self.reduce_small_row(r as usize);
                continue;
            }
            if let Some(c) = self.pure_cols.pop() {
                self.extract_pure_leading(c);
                continue;
            }
            return false;
        }
    }

    /// Applies R1/R3/R4 to row `r` if it (still) has weight ≤ 2.
    fn reduce_small_row(&mut self, r: usize) {
        if !self.is_live(r) {
            return;
        }
        let mut found = std::mem::take(&mut self.found);
        match *self.row(r) {
            [] => {
                self.kill_row(r);
                self.stats.empty_rows += 1;
            }
            [c] => {
                self.set_aside(r);
                self.stats.singleton_rows += 1;
                self.stats.singleton_nnz += 1;
                self.rows_containing(c, &mut found);
                for &j in &found {
                    let j = j as usize;
                    let pos = self.row(j).binary_search(&c).expect("contains c");
                    self.remove_at(j, pos);
                    self.dec_col(c);
                    self.xors += 1;
                    self.stats.singleton_nnz += 1;
                    if self.len[j] <= 2 {
                        self.small.push(j as u32);
                    }
                }
            }
            [a, b] => {
                self.set_aside(r);
                self.stats.weight2_rows += 1;
                self.stats.weight2_nnz += 2;
                self.rows_containing(a, &mut found);
                for &j in &found {
                    self.xor_pair_into(j as usize, a, b);
                }
            }
            _ => {}
        }
        self.found = found;
    }

    /// Applies R5 to column `c` if it is (still) pure and leading in its
    /// single row.
    fn extract_pure_leading(&mut self, c: u32) {
        if self.col_count[c as usize] != 1 {
            return;
        }
        let mut found = std::mem::take(&mut self.found);
        self.rows_containing(c, &mut found);
        let found_one = match found[..] {
            [r] => Some(r as usize),
            _ => None,
        };
        self.found = found;
        let Some(r) = found_one else {
            return;
        };
        let row = self.row(r);
        if row[0] != c || row.len() <= 2 {
            // Non-leading pure columns must stay (pivoting them would change
            // the stitched row's leading column and break RREF); weight ≤ 2
            // rows belong to the small-row rules.
            return;
        }
        let len = self.set_aside(r);
        self.stats.pure_leading_nnz += len as usize;
        self.stats.pure_leading_rows += 1;
    }

    /// R2: drops each live row equal to a lower-numbered one (it XORs to
    /// zero). Rows are grouped by hash through the sorted `(hash, row)`
    /// keys, and the duplicates dropped in ascending row order. Only rows
    /// changed since the previous pass are hashed again: the others kept
    /// their entries, so their keys still hold, and two of them cannot have
    /// become equal. Returns `(changed, interrupted)`.
    fn dedup_pass(&mut self, check: &mut Checkpoint) -> (bool, bool) {
        let mut changed = false;
        // The keys of rows killed or changed since the last pass go.
        let (len, is_changed) = (&self.len, &self.is_changed);
        self.keys
            .retain(|&(_, r)| len[r as usize] != NONE && !is_changed[r as usize]);
        let mut fresh = std::mem::take(&mut self.fresh_keys);
        fresh.clear();
        let mut rows = std::mem::take(&mut self.changed);
        for &r in &rows {
            if check.check() {
                // The pass is abandoned with the presolve; nothing reads the
                // keys again.
                self.fresh_keys = fresh;
                self.changed = rows;
                return (changed, true);
            }
            let r = r as usize;
            self.is_changed[r] = false;
            if !self.is_live(r) {
                continue;
            }
            if self.len[r] == 0 {
                self.kill_row(r);
                self.stats.empty_rows += 1;
                changed = true;
                continue;
            }
            fresh.push((hash_row(self.row(r)), r as u32));
        }
        rows.clear();
        self.changed = rows;
        fresh.sort_unstable();
        // Merge the kept keys with the new ones.
        let mut keys = std::mem::take(&mut self.merged_keys);
        keys.clear();
        let mut old = self.keys.iter().copied().peekable();
        for &key in &fresh {
            while let Some(&next) = old.peek().filter(|&&next| next < key) {
                keys.push(next);
                old.next();
            }
            keys.push(key);
        }
        keys.extend(old);
        self.merged_keys = std::mem::replace(&mut self.keys, keys);
        self.fresh_keys = fresh;
        let keys = &self.keys;
        let mut duplicates = std::mem::take(&mut self.found);
        duplicates.clear();
        let mut run = 0usize;
        for i in 1..keys.len() {
            if keys[i].0 != keys[run].0 {
                run = i;
                continue;
            }
            // Equal rows share a hash, and row equality is transitive, so a
            // match against any lower-numbered row of the run decides.
            let row = self.row(keys[i].1 as usize);
            if keys[run..i]
                .iter()
                .any(|&(_, p)| self.row(p as usize) == row)
            {
                duplicates.push(keys[i].1);
            }
        }
        duplicates.sort_unstable();
        for &r in &duplicates {
            let dropped = self.kill_row(r as usize);
            self.stats.duplicate_rows += 1;
            self.stats.duplicate_nnz += dropped as usize;
            self.xors += 1;
            changed = true;
        }
        self.found = duplicates;
        (changed, false)
    }

    /// Runs the rules to a fixed point, attributing wall-clock to the two
    /// rule phases. Returns `true` on cancellation.
    fn run(&mut self, check: &mut Checkpoint) -> bool {
        loop {
            let t = Instant::now();
            let interrupted = self.drain_queues(check);
            self.stats.cascade_ns += t.elapsed().as_nanos() as u64;
            if interrupted {
                return true;
            }
            let t = Instant::now();
            let (changed, interrupted) = self.dedup_pass(check);
            self.stats.dedup_ns += t.elapsed().as_nanos() as u64;
            if interrupted {
                return true;
            }
            if !changed {
                return false;
            }
        }
    }
}

/// FxHash-style mix over a row's column ids.
fn hash_row(row: &[u32]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = (row.len() as u64).wrapping_mul(K);
    for &c in row {
        h = (h.rotate_left(5) ^ u64::from(c)).wrapping_mul(K);
    }
    h
}

/// Union–find with path halving over column ids.
struct ColumnForest {
    parent: Vec<u32>,
}

impl ColumnForest {
    fn new(n: usize) -> Self {
        ColumnForest {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut c: u32) -> u32 {
        while self.parent[c as usize] != c {
            let grand = self.parent[self.parent[c as usize] as usize];
            self.parent[c as usize] = grand;
            c = grand;
        }
        c
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }
}

/// Groups `items` by the group ids in `group_of` (one per item, each below
/// `groups`) with a counting sort that keeps the items' order within a
/// group: returns the grouped items and the per-group start offsets
/// (`groups + 1` entries).
fn group_by(items: &[u32], group_of: &[u32], groups: usize) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; groups + 1];
    for &g in group_of {
        start[g as usize + 1] += 1;
    }
    for g in 0..groups {
        start[g + 1] += start[g];
    }
    let mut grouped = vec![0u32; items.len()];
    let mut fill = start.clone();
    for (&item, &g) in items.iter().zip(group_of) {
        grouped[fill[g as usize] as usize] = item;
        fill[g as usize] += 1;
    }
    (grouped, start)
}

/// An interrupted result: no rows, pivots-so-far as the rank, counters as
/// far as they got.
fn interrupted_result(presolver: Presolver, partial_dense_rank: usize) -> SparseRref {
    let mut stats = presolver.stats;
    stats.rows_eliminated = stats.empty_rows + stats.duplicate_rows + stats.rows_set_aside();
    let rank = presolver.set_asides.len() + partial_dense_rank;
    SparseRref {
        entries: Vec::new(),
        spans: Vec::new(),
        rank,
        gauss: GaussStats {
            rank,
            row_xors: presolver.xors,
            interrupted: true,
            ..GaussStats::default()
        },
        presolve: stats,
    }
}

/// The full presolve → dense cores → stitch pipeline behind
/// [`SparseMatrix::rref`], returning the rows `keep` accepts.
fn presolve_rref(
    m: SparseMatrix,
    token: &CancelToken,
    keep: &dyn Fn(RowShape) -> bool,
) -> SparseRref {
    let started = Instant::now();
    let ncols = m.ncols;
    let mut presolver = Presolver::new(m);
    let mut check = token.checkpoint_every(PRESOLVE_CHECK_INTERVAL);
    if check.check_now() || presolver.run(&mut check) {
        return interrupted_result(presolver, 0);
    }

    // Connected components of the residual rows (union–find over columns;
    // each live row unions its support), numbered in first-seen row order
    // (deterministic).
    let p = &presolver;
    let live_rows: Vec<u32> = (0..p.nrows() as u32)
        .filter(|&r| p.is_live(r as usize))
        .collect();
    let mut forest = ColumnForest::new(ncols);
    for &r in &live_rows {
        let row = p.row(r as usize);
        debug_assert!(!row.is_empty(), "empty rows were drained by R1");
        for &c in &row[1..] {
            forest.union(row[0], c);
        }
    }
    let mut comp_of_root = vec![NONE; ncols];
    let mut components = 0usize;
    let row_comp: Vec<u32> = live_rows
        .iter()
        .map(|&r| {
            let root = forest.find(p.row(r as usize)[0]) as usize;
            if comp_of_root[root] == NONE {
                comp_of_root[root] = components as u32;
                components += 1;
            }
            comp_of_root[root]
        })
        .collect();
    let (comp_rows, comp_row_start) = group_by(&live_rows, &row_comp, components);
    // Per-component column supports, ascending (compaction keeps the global
    // order, so component pivots are exactly the whole matrix's dense RREF
    // pivots restricted to the component).
    let live_cols: Vec<u32> = (0..ncols as u32)
        .filter(|&c| p.col_count[c as usize] > 0)
        .collect();
    let col_comp: Vec<u32> = live_cols
        .iter()
        .map(|&c| comp_of_root[forest.find(c) as usize])
        .collect();
    let (comp_cols, comp_col_start) = group_by(&live_cols, &col_comp, components);
    drop((live_rows, row_comp, live_cols, col_comp, forest));
    // Columns in some set-aside tail: the back-substitution needs the final
    // rows pivoting there, kept or not.
    let words_per_set = ncols.div_ceil(64);
    let mut referenced: Vec<u64> = vec![0; words_per_set];
    for sa in &presolver.set_asides {
        let start = presolver.offsets[sa.row as usize] + 1;
        for &c in &presolver.entries[start..start + sa.len as usize - 1] {
            referenced[c as usize / 64] |= 1 << (c % 64);
        }
    }
    // Pivot columns of the rows `keep` accepted.
    let mut kept: Vec<u64> = vec![0; words_per_set];
    let is_set = |set: &[u64], c: u32| set[c as usize / 64] >> (c % 64) & 1 == 1;

    // Each component becomes a column-compacted dense matrix, eliminated in
    // component order; the token is polled before each component and once
    // per sweep inside the kernel. Its RREF rows that `keep` accepts or the
    // back-substitution needs are read back into one output arena.
    let mut gauss = GaussStats::default();
    let mut entries: Vec<u32> = Vec::new();
    let mut spans: Vec<(usize, usize)> =
        Vec::with_capacity(comp_rows.len() + presolver.set_asides.len());
    let mut dense_elapsed = Duration::ZERO;
    presolver.stats.components = components;
    // Global column → column of the current component's core. Components
    // own disjoint columns, so each one overwrites just its own entries.
    let mut local_col = comp_of_root;
    // One word arena and one set of kernel buffers, recycled from core to
    // core.
    let mut words: Vec<u64> = Vec::new();
    let mut kernel = KernelScratch::default();
    for comp in 0..components {
        if token.is_cancelled() {
            gauss.interrupted = true;
            break;
        }
        let rows = &comp_rows[comp_row_start[comp] as usize..comp_row_start[comp + 1] as usize];
        let cols = &comp_cols[comp_col_start[comp] as usize..comp_col_start[comp + 1] as usize];
        for (local_c, &c) in cols.iter().enumerate() {
            local_col[c as usize] = local_c as u32;
        }
        let stride = cols.len().div_ceil(64);
        words.clear();
        words.resize(rows.len() * stride, 0);
        for (local_r, &r) in rows.iter().enumerate() {
            let row_words = &mut words[local_r * stride..(local_r + 1) * stride];
            for &c in presolver.row(r as usize) {
                let local_c = local_col[c as usize] as usize;
                debug_assert_eq!(cols[local_c], c, "col is in the component");
                row_words[local_c / 64] |= 1 << (local_c % 64);
            }
        }
        let mut dense = BitMatrix::from_row_words(words, rows.len(), cols.len());
        let dense_started = Instant::now();
        let stats = dense.gauss_jordan_in(token, &mut kernel);
        dense_elapsed += dense_started.elapsed();
        gauss.merge(stats);
        if stats.interrupted {
            break;
        }
        for r in 0..stats.rank {
            let row = dense.row_words(r);
            let first = row
                .iter()
                .position(|&w| w != 0)
                .expect("rank rows are non-zero");
            let last = row
                .iter()
                .rposition(|&w| w != 0)
                .expect("rank rows are non-zero");
            let shape = RowShape {
                lead: cols[first * 64 + row[first].trailing_zeros() as usize],
                last: cols[last * 64 + 63 - row[last].leading_zeros() as usize],
                weight: row.iter().map(|w| w.count_ones() as usize).sum(),
            };
            if keep(shape) {
                kept[shape.lead as usize / 64] |= 1 << (shape.lead % 64);
            } else if !is_set(&referenced, shape.lead) {
                continue;
            }
            let start = entries.len();
            push_ones(row, |c| entries.push(cols[c]));
            spans.push((start, entries.len()));
        }
        words = dense.into_row_words();
    }
    if gauss.interrupted {
        presolver.xors += gauss.row_xors;
        return interrupted_result(presolver, gauss.rank);
    }
    presolver.stats.dense_rows = comp_rows.len();
    presolver.stats.dense_cols = comp_cols.len();
    presolver.stats.rows_eliminated = presolver.stats.input_rows - comp_rows.len();
    presolver.stats.cols_eliminated = ncols - comp_cols.len();
    drop((comp_rows, comp_cols, comp_row_start, comp_col_start));

    // Back-substitute the set-asides in reverse removal order: each becomes
    // pivot ∪ (tail with every finished-pivot column replaced by that final
    // row). One pass per set-aside suffices — finished rows are fully
    // reduced and set-aside pivots never occur in other rows.
    let mut pivot_row = local_col;
    pivot_row.fill(NONE);
    for (i, &(start, _)) in spans.iter().enumerate() {
        pivot_row[entries[start] as usize] = i as u32;
    }
    // The stitched row accumulates as a bit set over the columns; every
    // entry lies at or after the pivot, so only those words are read back.
    let mut acc = referenced;
    acc.fill(0);
    let mut backsub_xors = 0usize;
    for sa in presolver.set_asides.iter().rev() {
        let start = presolver.offsets[sa.row as usize];
        let frozen = &presolver.entries[start..start + sa.len as usize];
        let pivot = frozen[0] as usize;
        let out = entries.len();
        if frozen[1..].iter().all(|&c| pivot_row[c as usize] == NONE) {
            // Nothing to substitute: the frozen row is final.
            entries.extend_from_slice(frozen);
        } else {
            let mut last = 0usize;
            let mut toggle = |row: &[u32]| {
                for &c in row {
                    acc[c as usize / 64] ^= 1 << (c % 64);
                }
                last = last.max(row[row.len() - 1] as usize);
            };
            toggle(frozen);
            for &c in &frozen[1..] {
                let idx = pivot_row[c as usize];
                if idx != NONE {
                    // Toggling the full final row cancels `c` (parity) and
                    // adds its free-column tail.
                    let (s, e) = spans[idx as usize];
                    toggle(&entries[s..e]);
                    backsub_xors += 1;
                }
            }
            let (first_word, last_word) = (pivot / 64, last / 64);
            for (w, word) in acc[first_word..=last_word].iter_mut().enumerate() {
                let base = (first_word + w) * 64;
                push_ones(&[*word], |c| entries.push((base + c) as u32));
                *word = 0;
            }
        }
        debug_assert_eq!(entries.get(out), Some(&frozen[0]), "pivot survives");
        if keep(RowShape::of(&entries[out..])) {
            kept[pivot / 64] |= 1 << (pivot % 64);
        }
        pivot_row[pivot] = spans.len() as u32;
        spans.push((out, entries.len()));
    }
    // Order the kept rows by pivot: every pivot column indexes its row.
    let ordered: Vec<(usize, usize)> = (0..ncols as u32)
        .filter(|&c| is_set(&kept, c))
        .map(|c| spans[pivot_row[c as usize] as usize])
        .collect();

    gauss.rank += presolver.set_asides.len();
    gauss.row_xors += presolver.xors + backsub_xors;
    presolver.stats.dense_ns += dense_elapsed.as_nanos() as u64;
    presolver.stats.presolve_ns +=
        (started.elapsed().saturating_sub(dense_elapsed)).as_nanos() as u64;
    SparseRref {
        rank: gauss.rank,
        entries,
        spans: ordered,
        gauss,
        presolve: presolver.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::splitmix_matrix;

    /// The full RREF, never cancelled.
    fn full_rref(m: SparseMatrix) -> SparseRref {
        m.rref(&CancelToken::never(), |_| true)
    }

    /// The non-zero rows of the dense-path RREF as sorted column lists.
    fn dense_nonzero_rows(m: &BitMatrix) -> Vec<Vec<u32>> {
        let (rref, _) = m.rref();
        rref.iter()
            .map(|row| row.iter_ones().map(|c| c as u32).collect::<Vec<u32>>())
            .filter(|row| !row.is_empty())
            .collect()
    }

    fn rows_of(r: &SparseRref) -> Vec<Vec<u32>> {
        r.rows().map(<[u32]>::to_vec).collect()
    }

    fn sparse_from_dense(m: &BitMatrix) -> SparseMatrix {
        let rows = m
            .iter()
            .map(|row| row.iter_ones().map(|c| c as u32).collect())
            .collect();
        SparseMatrix::from_rows(m.ncols(), rows)
    }

    /// Deterministic sparse test matrix: `fill` entries per row drawn from
    /// a SplitMix64 stream (duplicate draws cancel XOR-style).
    fn splitmix_sparse(rows: usize, cols: usize, fill: usize, seed: u64) -> SparseMatrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut m = SparseMatrix::new(cols);
        for _ in 0..rows {
            m.push_row((0..fill).map(|_| (next() % cols as u64) as u32));
        }
        m
    }

    fn assert_matches_dense(m: SparseMatrix) -> SparseRref {
        let dense = m.to_dense();
        let expected = dense_nonzero_rows(&dense);
        let got = full_rref(m);
        assert!(!got.gauss.interrupted);
        assert_eq!(
            rows_of(&got),
            expected,
            "stitched RREF must equal dense RREF"
        );
        assert_eq!(got.rank, expected.len());
        assert_eq!(got.gauss.rank, expected.len());
        got
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let r = full_rref(SparseMatrix::new(0));
        assert_eq!(r.rank, 0);
        assert_eq!(r.num_rows(), 0);
        let mut m = SparseMatrix::new(5);
        m.push_row(vec![]);
        m.push_row(vec![2, 2]); // cancels to empty
        let r = full_rref(m);
        assert_eq!(r.rank, 0);
        assert_eq!(r.presolve.empty_rows, 2);
        assert_eq!(r.presolve.rows_eliminated, 2);
    }

    #[test]
    fn singleton_cascade_matches_dense() {
        // {2} deletes column 2 everywhere, turning {2,4} into a new
        // singleton {4}, which cascades into {4,5}.
        let m = SparseMatrix::from_rows(6, vec![vec![2], vec![2, 4], vec![4, 5], vec![0, 1, 5]]);
        let r = assert_matches_dense(m);
        // {2} → {4} → {5} all cascade to singletons; {0,1,5} shrinks to the
        // weight-2 row {0,1}. Nothing reaches the dense kernel.
        assert_eq!(r.presolve.rows_set_aside(), 4);
        assert_eq!(r.presolve.dense_rows, 0);
        assert_eq!(r.rank, 4);
    }

    #[test]
    fn duplicate_rows_are_dropped_once() {
        let m = SparseMatrix::from_rows(
            8,
            vec![vec![0, 3, 5], vec![0, 3, 5], vec![0, 3, 5], vec![1, 5, 6]],
        );
        let r = assert_matches_dense(m);
        assert_eq!(r.presolve.duplicate_rows, 2);
        assert!(r.gauss.row_xors >= 2, "duplicate drops count as row XORs");
    }

    #[test]
    fn duplicate_pass_keys_equal_a_full_rekeying() {
        // After the rule fixpoint the kept keys are exactly what hashing
        // every live row afresh gives, and no two live rows are equal.
        for seed in 0..8 {
            let m = splitmix_sparse(300, 40, 4, seed);
            let mut presolver = Presolver::new(m);
            assert!(!presolver.run(&mut CancelToken::never().checkpoint()));
            let live: Vec<usize> = (0..presolver.nrows())
                .filter(|&r| presolver.is_live(r))
                .collect();
            let mut expected: Vec<(u64, u32)> = live
                .iter()
                .map(|&r| (hash_row(presolver.row(r)), r as u32))
                .collect();
            expected.sort_unstable();
            assert_eq!(presolver.keys, expected, "seed {seed}");
            assert!(presolver.changed.is_empty());
            let mut rows: Vec<&[u32]> = live.iter().map(|&r| presolver.row(r)).collect();
            rows.sort_unstable();
            rows.dedup();
            assert_eq!(rows.len(), live.len(), "seed {seed}: a duplicate survived");
        }
    }

    #[test]
    fn pure_leading_column_is_extracted_exactly() {
        // Row {0,4,6}: column 0 appears nowhere else and is leading — set
        // aside with tail {4,6}; the tail is then back-substituted against
        // the finished rows.
        let m = SparseMatrix::from_rows(
            8,
            vec![vec![0, 4, 6], vec![4, 5, 6], vec![5, 6, 7], vec![4, 7, 6]],
        );
        let r = assert_matches_dense(m);
        assert!(r.presolve.pure_leading_rows >= 1);
    }

    #[test]
    fn non_leading_pure_column_is_not_pivoted() {
        // Column 2 is pure in {0,2} but NOT leading; pivoting it would
        // produce a wrong RREF (the regression this guards: the stitched
        // row would get leading column 3 < free column order). The dense
        // comparison is the oracle.
        let m = SparseMatrix::from_rows(4, vec![vec![0, 2], vec![0, 3]]);
        assert_matches_dense(m);
    }

    #[test]
    fn weight2_substitution_matches_dense() {
        let m = SparseMatrix::from_rows(
            6,
            vec![vec![1, 3], vec![1, 2, 4], vec![1, 3, 5], vec![2, 3, 4, 5]],
        );
        let r = assert_matches_dense(m);
        assert!(r.presolve.weight2_rows >= 1);
    }

    #[test]
    fn disconnected_components_are_split_and_stitched() {
        // Columns {0..3} and {4..7} never meet: two components. Each block
        // is all weight-3 distinct rows with every column shared, so no
        // reduction rule fires and both cores reach the dense kernel.
        let m = SparseMatrix::from_rows(
            8,
            vec![
                vec![0, 1, 2],
                vec![0, 1, 3],
                vec![0, 2, 3],
                vec![1, 2, 3],
                vec![4, 5, 6],
                vec![4, 5, 7],
                vec![4, 6, 7],
                vec![5, 6, 7],
            ],
        );
        let r = assert_matches_dense(m);
        assert_eq!(r.presolve.components, 2);
        assert_eq!(r.presolve.dense_rows, 8);
    }

    #[test]
    fn interleaved_components_map_their_columns() {
        // Three dense random 24x36 blocks whose columns interleave:
        // component j owns the columns c with c % 3 == j. Each core is
        // column-compacted through the shared local-column map, and its
        // rows come back on the right global columns.
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for j in 0..3u32 {
            let block = splitmix_matrix(24, 36, 100 + u64::from(j));
            for row in block.iter() {
                rows.push(row.iter_ones().map(|c| 3 * c as u32 + j).collect());
            }
        }
        let r = assert_matches_dense(SparseMatrix::from_rows(108, rows));
        assert_eq!(r.presolve.components, 3);
        assert_eq!(r.presolve.dense_rows, 72);
        assert_eq!(r.presolve.dense_cols, 108);
    }

    #[test]
    fn fully_dense_matrix_is_a_pass_through() {
        let dense = splitmix_matrix(24, 24, 7);
        let m = sparse_from_dense(&dense);
        let r = assert_matches_dense(m);
        // Dense random square matrices give the rules nothing to do: every
        // row reaches the (single) dense core untouched.
        assert_eq!(r.presolve.rows_set_aside(), 0);
        assert_eq!(r.presolve.duplicate_rows, 0);
        assert_eq!(r.presolve.components, 1);
        assert_eq!(r.presolve.dense_rows, r.presolve.input_rows);
        assert_eq!(r.presolve.rows_eliminated, 0);
    }

    #[test]
    fn random_sparse_shapes_match_dense() {
        for (rows, cols, fill, seed) in [
            (40usize, 40usize, 3usize, 1u64),
            (60, 33, 4, 2),
            (33, 80, 3, 3),
            (100, 64, 2, 4), // word-boundary width
            (50, 65, 3, 5),
            (80, 129, 4, 6),
            (120, 30, 3, 7), // tall, rank-deficient
            (300, 200, 4, 11),
        ] {
            let m = splitmix_sparse(rows, cols, fill, seed);
            assert_matches_dense(m);
        }
    }

    #[test]
    fn kept_rows_are_the_filtered_rref() {
        // Filters that reject most rows — including rows that set-aside
        // back-substitution still needs — return exactly the accepted rows
        // of the full RREF, with the full rank.
        let filters: [fn(RowShape) -> bool; 3] = [
            |row| row.lead % 3 == 0,
            |row| row.weight <= 2,
            |row| row.lead >= 40 || (row.weight == 2 && row.last % 2 == 1),
        ];
        for (rows, cols, fill, seed) in [
            (33usize, 80usize, 3usize, 3u64),
            (50, 65, 3, 5),
            (80, 129, 4, 6),
        ] {
            let m = splitmix_sparse(rows, cols, fill, seed);
            let full = full_rref(m.clone());
            assert!(full.presolve.rows_set_aside() > 0 && full.presolve.dense_rows > 0);
            for keep in filters {
                let got = m.clone().rref(&CancelToken::never(), keep);
                let expected: Vec<Vec<u32>> = full
                    .rows()
                    .filter(|row| keep(RowShape::of(row)))
                    .map(<[u32]>::to_vec)
                    .collect();
                assert_eq!(rows_of(&got), expected);
                assert_eq!(got.rank, full.rank);
                assert_eq!(got.gauss, full.gauss);
            }
        }
    }

    #[test]
    fn pre_cancelled_token_reports_interrupted_with_no_rows() {
        let token = CancelToken::new();
        token.cancel();
        let m = splitmix_sparse(30, 30, 3, 9);
        let r = m.rref(&token, |_| true);
        assert!(r.gauss.interrupted);
        assert_eq!(r.num_rows(), 0, "partial output is never exposed");
    }

    #[test]
    fn mid_run_cancellation_is_transactional() {
        let token = CancelToken::new().cancel_after_checks(2);
        let m = splitmix_sparse(200, 150, 4, 10);
        let r = m.rref(&token, |_| true);
        assert!(r.gauss.interrupted);
        assert_eq!(r.num_rows(), 0);
    }

    #[test]
    fn csr_construction_round_trips() {
        let cols = vec![3u32, 1, 0, 2, 2];
        let offsets = vec![0usize, 2, 2, 5];
        let m = SparseMatrix::from_csr(4, cols, offsets);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.row(0), [1, 3]);
        assert!(m.row(1).is_empty());
        assert_eq!(m.row(2), [0], "duplicate 2s cancel");
        assert_eq!(m.nnz(), 3, "the arena is compacted in place");
        assert_matches_dense(m);
    }

    #[test]
    fn stats_shape_fields_are_consistent() {
        let m = splitmix_sparse(64, 48, 3, 12);
        let (nrows, ncols) = (m.nrows(), m.ncols());
        let r = full_rref(m);
        assert_eq!(r.presolve.input_rows, nrows);
        assert_eq!(r.presolve.input_cols, ncols);
        assert_eq!(
            r.presolve.rows_eliminated,
            nrows - r.presolve.dense_rows,
            "rows either reach a dense core or were eliminated"
        );
        assert_eq!(r.presolve.cols_eliminated, ncols - r.presolve.dense_cols);
    }

    #[test]
    fn per_rule_nnz_attribution_is_populated() {
        let m = SparseMatrix::from_rows(
            8,
            vec![
                vec![2],       // singleton
                vec![2, 4],    // cascades to singleton {4}
                vec![0, 3, 5], // duplicate pair
                vec![0, 3, 5],
                vec![1, 5, 6, 7], // pure leading column 1
            ],
        );
        let r = assert_matches_dense(m);
        // {2,4} pops from the small queue before {2}, so it is consumed by
        // R4 (weight-2) and the cascaded singleton is {4}.
        assert!(r.presolve.singleton_nnz >= 1);
        assert!(r.presolve.weight2_nnz >= 2);
        assert_eq!(r.presolve.duplicate_nnz, 3);
        assert!(r.presolve.pure_leading_nnz >= 4);
    }

    #[test]
    fn presolve_stats_merge_accumulates() {
        let mut a = PresolveStats {
            input_rows: 10,
            singleton_rows: 2,
            components: 1,
            peak_interned_rows: 80,
            peak_interned_words: 200,
            ..PresolveStats::default()
        };
        a.merge(PresolveStats {
            input_rows: 5,
            pure_leading_rows: 3,
            components: 2,
            peak_interned_rows: 50,
            peak_interned_words: 300,
            ..PresolveStats::default()
        });
        assert_eq!(a.input_rows, 15);
        assert_eq!(a.rows_set_aside(), 5);
        assert_eq!(a.components, 3);
        assert_eq!(a.peak_interned_rows, 80, "peaks merge by max");
        assert_eq!(a.peak_interned_words, 300, "peaks merge by max");
    }
}
