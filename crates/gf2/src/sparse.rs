//! Sparse structural presolve ahead of the dense Gauss–Jordan kernels.
//!
//! XL and ElimLin rows are born sparse — one polynomial, a handful of
//! monomials — yet the dense path packs all of them into a bit arena and
//! rediscovers that structure by brute force. This module runs a set of
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
//! * **bounded subset cancellation**: if `support(A) ⊆ support(B)` then
//!   `B ^= A` shrinks `B` without fill; candidates are found through `A`'s
//!   rarest column and capped so the rule stays linear-ish.
//!
//! What survives is split into connected components (union–find over
//! columns); each component becomes a small column-compacted [`BitMatrix`]
//! eliminated by the existing auto-selected dense kernel, one after another
//! in component order, and the component
//! RREFs plus the set-aside rows are stitched back — set-asides
//! back-substituted in reverse removal order — into the full RREF.
//!
//! # Exactness
//!
//! The RREF of a matrix is unique, so any sequence of elementary row
//! operations followed by a canonical stitching yields *the* RREF. Rules
//! R2/R4/subset are plain row XORs; R1 only drops zero rows (which the
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

use std::collections::HashMap;

use bosphorus_interrupt::{CancelToken, Checkpoint};

use crate::{BitMatrix, GaussStats};

/// Cap on how many rows sharing a row's rarest column the bounded
/// subset-cancellation rule will test for containment. Columns more popular
/// than this are poor discriminators and scanning them would make the rule
/// quadratic on dense blocks.
pub const SUBSET_CANDIDATE_LIMIT: u32 = 16;

/// Cancellation poll interval of the presolve loops: fine enough that a
/// deadline lands within milliseconds, coarse enough that the atomic load
/// never shows up in a profile.
const PRESOLVE_CHECK_INTERVAL: u64 = 1 << 12;

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
    /// Subset cancellations applied (`B ^= A` for `A ⊆ B`).
    pub subset_cancellations: usize,
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
    /// Wall-clock nanoseconds of the sparse phase: rule fixpoint, component
    /// split, core compaction, read-back and stitching.
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
    /// Entries removed from superset rows by subset cancellation.
    pub subset_nnz: usize,
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
    /// Wall-clock nanoseconds inside bounded subset-cancellation passes.
    pub subset_ns: u64,
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
        self.subset_cancellations += other.subset_cancellations;
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
        self.subset_nnz += other.subset_nnz;
        self.peak_interned_rows = self.peak_interned_rows.max(other.peak_interned_rows);
        self.peak_interned_words = self.peak_interned_words.max(other.peak_interned_words);
        self.cascade_ns += other.cascade_ns;
        self.dedup_ns += other.dedup_ns;
        self.subset_ns += other.subset_ns;
    }

    /// Rows set aside by the pivoting rules (each contributes one final RREF
    /// row without ever entering the dense arena).
    pub fn rows_set_aside(&self) -> usize {
        self.singleton_rows + self.weight2_rows + self.pure_leading_rows
    }
}

/// A sparse GF(2) matrix: rows of strictly ascending column ids.
///
/// This is the presolve's working representation of the linearised system —
/// the CSR store of `LinearizationBuilder` (one term-id arena plus
/// row offsets) converts into it without densifying.
///
/// # Examples
///
/// ```
/// use bosphorus_gf2::SparseMatrix;
///
/// let mut m = SparseMatrix::new(4);
/// m.push_row(vec![0, 3]);
/// m.push_row(vec![3]);
/// let r = m.rref();
/// assert_eq!(r.rank, 2);
/// assert_eq!(r.rows, vec![vec![0], vec![3]]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseMatrix {
    ncols: usize,
    rows: Vec<Vec<u32>>,
}

impl SparseMatrix {
    /// An empty matrix with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        SparseMatrix {
            ncols,
            rows: Vec::new(),
        }
    }

    /// Builds a matrix from per-row column-id lists. Rows are normalised
    /// (sorted; duplicate pairs cancel, XOR-style).
    pub fn from_rows(ncols: usize, rows: Vec<Vec<u32>>) -> Self {
        let mut m = SparseMatrix::new(ncols);
        m.rows.reserve(rows.len());
        for row in rows {
            m.push_row(row);
        }
        m
    }

    /// Builds a matrix from a CSR store: `cols` is the concatenated
    /// column-id arena, `offsets` the per-row half-open ranges
    /// (`offsets[r]..offsets[r + 1]`, so `offsets.len()` is `nrows + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty or not non-decreasing within `cols`.
    pub fn from_csr(ncols: usize, cols: &[u32], offsets: &[usize]) -> Self {
        assert!(!offsets.is_empty(), "offsets must hold nrows + 1 entries");
        let mut m = SparseMatrix::new(ncols);
        m.rows.reserve(offsets.len() - 1);
        for w in offsets.windows(2) {
            m.push_row(cols[w[0]..w[1]].to_vec());
        }
        m
    }

    /// Appends a row given as column ids in any order; duplicate pairs
    /// cancel (XOR semantics).
    ///
    /// # Panics
    ///
    /// Panics if a column id is out of range.
    pub fn push_row(&mut self, mut cols: Vec<u32>) {
        normalize_row(&mut cols);
        if let Some(&last) = cols.last() {
            assert!(
                (last as usize) < self.ncols,
                "column id {last} out of range for width {}",
                self.ncols
            );
        }
        self.rows.push(cols);
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// The rows as sorted column-id lists.
    pub fn rows(&self) -> &[Vec<u32>] {
        &self.rows
    }

    /// Densifies into a [`BitMatrix`] (diagnostics and tests; the presolve
    /// itself only densifies the residual cores).
    pub fn to_dense(&self) -> BitMatrix {
        let mut m = BitMatrix::zero(self.rows.len(), self.ncols);
        for (r, row) in self.rows.iter().enumerate() {
            for &c in row {
                m.set(r, c as usize, true);
            }
        }
        m
    }

    /// Presolves and eliminates, returning the full RREF (see
    /// [`SparseRref`]).
    pub fn rref(self) -> SparseRref {
        self.rref_cancellable(&CancelToken::never())
    }

    /// Like [`SparseMatrix::rref`], polling `token` throughout the presolve
    /// loops and once per sweep inside the dense core eliminations. On
    /// cancellation the result carries [`GaussStats::interrupted`] and *no*
    /// rows — partial output is never exposed.
    pub fn rref_cancellable(self, token: &CancelToken) -> SparseRref {
        presolve_rref(self, token)
    }
}

/// The stitched result of [`SparseMatrix::rref`]: exactly the non-zero rows
/// of the dense-path RREF, in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseRref {
    /// Non-zero RREF rows as strictly ascending column-id lists, sorted by
    /// leading (pivot) column — byte-identical to the non-zero rows the
    /// dense kernel would produce. Empty when `gauss.interrupted` is set.
    pub rows: Vec<Vec<u32>>,
    /// Rank (= `rows.len()` when not interrupted; pivots established before
    /// the trip otherwise).
    pub rank: usize,
    /// Elimination work: the merged dense-core counters plus every presolve
    /// row operation folded into `row_xors`, with `rank` set to the total.
    pub gauss: GaussStats,
    /// What the presolve eliminated before the dense cores ran.
    pub presolve: PresolveStats,
}

/// Sorts a column list and cancels duplicate pairs (XOR semantics).
fn normalize_row(cols: &mut Vec<u32>) {
    cols.sort_unstable();
    let mut keep = 0usize;
    let mut i = 0usize;
    while i < cols.len() {
        let mut run = 1usize;
        while i + run < cols.len() && cols[i + run] == cols[i] {
            run += 1;
        }
        if run % 2 == 1 {
            cols[keep] = cols[i];
            keep += 1;
        }
        i += run;
    }
    cols.truncate(keep);
}

/// One set-aside row: `pivot` is its leading column (pure at removal time),
/// `tail` the rest of its support, awaiting back-substitution.
struct SetAside {
    pivot: u32,
    tail: Vec<u32>,
}

/// The iterated rule engine. Rows live in `rows` (`None` = removed);
/// `col_count` is the exact live occupancy per column; `col_rows` maps each
/// column to candidate row indices (append-only, may hold stale entries
/// that are re-validated on use).
struct Presolver {
    rows: Vec<Option<Vec<u32>>>,
    col_count: Vec<u32>,
    col_rows: Vec<Vec<u32>>,
    set_asides: Vec<SetAside>,
    stats: PresolveStats,
    /// Elementary row operations performed, folded into
    /// [`GaussStats::row_xors`].
    xors: usize,
    /// Rows that shrank to weight ≤ 2 and await R1/R3/R4.
    small: Vec<u32>,
    /// Columns whose live count dropped to 1 and await R5.
    pure_cols: Vec<u32>,
}

impl Presolver {
    fn new(m: SparseMatrix) -> Self {
        let ncols = m.ncols;
        let nnz: usize = m.rows.iter().map(Vec::len).sum();
        let mut col_count = vec![0u32; ncols];
        let mut col_rows = vec![Vec::new(); ncols];
        for (r, row) in m.rows.iter().enumerate() {
            for &c in row {
                col_count[c as usize] += 1;
                col_rows[c as usize].push(r as u32);
            }
        }
        let small = (0..m.rows.len())
            .filter(|&r| m.rows[r].len() <= 2)
            .map(|r| r as u32)
            .collect();
        let pure_cols = (0..ncols)
            .filter(|&c| col_count[c] == 1)
            .map(|c| c as u32)
            .collect();
        let stats = PresolveStats {
            input_rows: m.rows.len(),
            input_cols: ncols,
            // Batch presolve materialises every row before a rule fires.
            peak_interned_rows: m.rows.len(),
            peak_interned_words: nnz,
            ..PresolveStats::default()
        };
        Presolver {
            rows: m.rows.into_iter().map(Some).collect(),
            col_count,
            col_rows,
            set_asides: Vec::new(),
            stats,
            xors: 0,
            small,
            pure_cols,
        }
    }

    /// Decrements a column's live count, queueing it for R5 at count 1.
    fn dec_col(&mut self, c: u32) {
        let count = &mut self.col_count[c as usize];
        *count -= 1;
        if *count == 1 {
            self.pure_cols.push(c);
        }
    }

    /// Removes row `r` from the live set, releasing its column counts.
    fn kill_row(&mut self, r: usize) -> Vec<u32> {
        let row = self.rows[r].take().expect("killing a live row");
        for &c in &row {
            self.dec_col(c);
        }
        row
    }

    /// Live rows currently containing column `c`, re-validating the
    /// append-only `col_rows` list. A row removed from and later re-added
    /// to the column carries duplicate list entries, so the result is
    /// deduplicated — callers may mutate each returned row exactly once.
    fn rows_containing(&self, c: u32) -> Vec<usize> {
        let mut rows: Vec<usize> = self.col_rows[c as usize]
            .iter()
            .map(|&r| r as usize)
            .filter(|&r| {
                self.rows[r]
                    .as_ref()
                    .is_some_and(|row| row.binary_search(&c).is_ok())
            })
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// XORs the weight-2 set-aside `{a, b}` into row `j` (which contains
    /// `a`): deletes `a`, toggles `b`. Never increases the row's weight.
    fn xor_pair_into(&mut self, j: usize, a: u32, b: u32) {
        let row = self.rows[j].as_mut().expect("target row is live");
        let pos = row.binary_search(&a).expect("row contains the pivot");
        row.remove(pos);
        match row.binary_search(&b) {
            Ok(p) => {
                row.remove(p);
                let small_now = row.len() <= 2;
                self.dec_col(a);
                self.dec_col(b);
                self.stats.weight2_nnz += 2;
                if small_now {
                    self.small.push(j as u32);
                }
            }
            Err(p) => {
                row.insert(p, b);
                let small_now = row.len() <= 2;
                self.dec_col(a);
                self.col_count[b as usize] += 1;
                self.col_rows[b as usize].push(j as u32);
                self.stats.weight2_nnz += 1;
                if small_now {
                    self.small.push(j as u32);
                }
            }
        }
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
        let Some(row) = self.rows[r].as_ref() else {
            return;
        };
        match row.len() {
            0 => {
                self.kill_row(r);
                self.stats.empty_rows += 1;
            }
            1 => {
                let c = row[0];
                self.kill_row(r);
                self.set_asides.push(SetAside {
                    pivot: c,
                    tail: Vec::new(),
                });
                self.stats.singleton_rows += 1;
                self.stats.singleton_nnz += 1;
                for j in self.rows_containing(c) {
                    let row_j = self.rows[j].as_mut().expect("live by construction");
                    let pos = row_j.binary_search(&c).expect("contains c");
                    row_j.remove(pos);
                    let small_now = row_j.len() <= 2;
                    self.dec_col(c);
                    self.xors += 1;
                    self.stats.singleton_nnz += 1;
                    if small_now {
                        self.small.push(j as u32);
                    }
                }
            }
            2 => {
                let (a, b) = (row[0], row[1]);
                self.kill_row(r);
                self.set_asides.push(SetAside {
                    pivot: a,
                    tail: vec![b],
                });
                self.stats.weight2_rows += 1;
                self.stats.weight2_nnz += 2;
                for j in self.rows_containing(a) {
                    self.xor_pair_into(j, a, b);
                }
            }
            _ => {}
        }
    }

    /// Applies R5 to column `c` if it is (still) pure and leading in its
    /// single row.
    fn extract_pure_leading(&mut self, c: u32) {
        if self.col_count[c as usize] != 1 {
            return;
        }
        let rows = self.rows_containing(c);
        let [r] = rows[..] else {
            return;
        };
        let row = self.rows[r].as_ref().expect("validated live");
        if row[0] != c || row.len() <= 2 {
            // Non-leading pure columns must stay (pivoting them would change
            // the stitched row's leading column and break RREF); weight ≤ 2
            // rows belong to the small-row rules.
            return;
        }
        let mut tail = self.kill_row(r);
        self.stats.pure_leading_nnz += tail.len();
        tail.remove(0);
        self.set_asides.push(SetAside { pivot: c, tail });
        self.stats.pure_leading_rows += 1;
    }

    /// R2: one global pass hashing every live row and dropping exact
    /// duplicates (the later row XORs to zero). Returns
    /// `(changed, interrupted)`.
    fn dedup_pass(&mut self, check: &mut Checkpoint) -> (bool, bool) {
        let mut changed = false;
        let mut seen: HashMap<u64, Vec<u32>> = HashMap::new();
        for r in 0..self.rows.len() {
            if check.check() {
                return (changed, true);
            }
            let Some(row) = self.rows[r].as_ref() else {
                continue;
            };
            if row.is_empty() {
                self.kill_row(r);
                self.stats.empty_rows += 1;
                changed = true;
                continue;
            }
            let hash = hash_row(row);
            let bucket = seen.entry(hash).or_default();
            let duplicate_of = bucket
                .iter()
                .copied()
                .find(|&p| self.rows[p as usize].as_deref() == self.rows[r].as_deref());
            if duplicate_of.is_some() {
                let dropped = self.kill_row(r);
                self.stats.duplicate_rows += 1;
                self.stats.duplicate_nnz += dropped.len();
                self.xors += 1;
                changed = true;
            } else {
                seen.entry(hash).or_default().push(r as u32);
            }
        }
        (changed, false)
    }

    /// Bounded subset cancellation: for each live row `A`, candidate
    /// supersets are the rows sharing `A`'s rarest column; when
    /// `A ⊆ B`, `B ^= A`. Returns `(changed, interrupted)`.
    fn subset_pass(&mut self, check: &mut Checkpoint) -> (bool, bool) {
        let mut changed = false;
        for r in 0..self.rows.len() {
            if check.check() {
                return (changed, true);
            }
            let Some(row) = self.rows[r].as_ref() else {
                continue;
            };
            if row.len() < 3 {
                continue; // weight ≤ 2 rows are the queue rules' job
            }
            let (&rarest, rarest_count) = row
                .iter()
                .map(|c| (c, self.col_count[*c as usize]))
                .min_by_key(|&(_, n)| n)
                .expect("row is non-empty");
            if rarest_count > SUBSET_CANDIDATE_LIMIT {
                continue;
            }
            for j in self.rows_containing(rarest) {
                if j == r {
                    continue;
                }
                let a = self.rows[r].as_ref().expect("source row stays live");
                let b = self.rows[j].as_ref().expect("validated live");
                if b.len() < a.len() || !is_subset(a, b) {
                    continue;
                }
                self.xor_subset_into(r, j);
                self.stats.subset_cancellations += 1;
                changed = true;
            }
        }
        (changed, false)
    }

    /// `rows[j] ^= rows[r]` where `rows[r] ⊆ rows[j]` (pure removal, no
    /// fill).
    fn xor_subset_into(&mut self, r: usize, j: usize) {
        let src = self.rows[r].clone().expect("source row is live");
        let dst = self.rows[j].as_mut().expect("target row is live");
        dst.retain(|c| src.binary_search(c).is_err());
        self.stats.subset_nnz += src.len();
        let small_now = dst.len() <= 2;
        for &c in &src {
            self.dec_col(c);
        }
        self.xors += 1;
        if small_now {
            self.small.push(j as u32);
        }
    }

    /// Runs the rules to a fixed point, attributing wall-clock to the three
    /// rule phases. Returns `true` on cancellation.
    fn run(&mut self, check: &mut Checkpoint) -> bool {
        loop {
            let t = std::time::Instant::now();
            let interrupted = self.drain_queues(check);
            self.stats.cascade_ns += t.elapsed().as_nanos() as u64;
            if interrupted {
                return true;
            }
            let t = std::time::Instant::now();
            let (changed, interrupted) = self.dedup_pass(check);
            self.stats.dedup_ns += t.elapsed().as_nanos() as u64;
            if interrupted {
                return true;
            }
            if changed {
                continue;
            }
            let t = std::time::Instant::now();
            let (changed, interrupted) = self.subset_pass(check);
            self.stats.subset_ns += t.elapsed().as_nanos() as u64;
            if interrupted {
                return true;
            }
            if !changed && self.small.is_empty() && self.pure_cols.is_empty() {
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

/// Two-pointer containment test over sorted column lists.
fn is_subset(a: &[u32], b: &[u32]) -> bool {
    let mut i = 0usize;
    for &c in a {
        loop {
            if i >= b.len() || b[i] > c {
                return false;
            }
            if b[i] == c {
                i += 1;
                break;
            }
            i += 1;
        }
    }
    true
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

/// An interrupted result: no rows, pivots-so-far as the rank, counters as
/// far as they got.
fn interrupted_result(presolver: Presolver, partial_dense_rank: usize) -> SparseRref {
    let mut stats = presolver.stats;
    stats.rows_eliminated = stats.empty_rows + stats.duplicate_rows + stats.rows_set_aside();
    let rank = presolver.set_asides.len() + partial_dense_rank;
    SparseRref {
        rows: Vec::new(),
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
/// [`SparseMatrix::rref_cancellable`].
fn presolve_rref(m: SparseMatrix, token: &CancelToken) -> SparseRref {
    let started = std::time::Instant::now();
    let ncols = m.ncols;
    let mut presolver = Presolver::new(m);
    let mut check = token.checkpoint_every(PRESOLVE_CHECK_INTERVAL);
    if check.check_now() || presolver.run(&mut check) {
        return interrupted_result(presolver, 0);
    }

    // Connected components of the residual rows (union–find over columns;
    // each live row unions its support).
    let mut forest = ColumnForest::new(ncols);
    for row in presolver.rows.iter().flatten() {
        for &c in &row[1..] {
            forest.union(row[0], c);
        }
    }
    // Group rows by component root, in first-seen row order (deterministic).
    let mut comp_of_root: HashMap<u32, usize> = HashMap::new();
    let mut comp_rows: Vec<Vec<usize>> = Vec::new();
    for r in 0..presolver.rows.len() {
        let Some(row) = presolver.rows[r].as_ref() else {
            continue;
        };
        debug_assert!(!row.is_empty(), "empty rows were drained by R1");
        let root = forest.find(row[0]);
        let comp = *comp_of_root.entry(root).or_insert_with(|| {
            comp_rows.push(Vec::new());
            comp_rows.len() - 1
        });
        comp_rows[comp].push(r);
    }

    // Per-component column supports (compaction keeps the ascending global
    // order, so component pivots are exactly the dense path's pivots
    // restricted to the component).
    let comp_cols: Vec<Vec<u32>> = comp_rows
        .iter()
        .map(|rows| {
            let mut cols: Vec<u32> = Vec::new();
            for &r in rows {
                cols.extend_from_slice(presolver.rows[r].as_ref().expect("grouped rows are live"));
            }
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect();

    // Each component becomes a column-compacted dense matrix, eliminated in
    // component order; the token is polled before each component and once
    // per sweep inside the kernel.
    let mut gauss = GaussStats::default();
    let mut rows_out: Vec<Vec<u32>> = Vec::new();
    let mut dense_elapsed = std::time::Duration::ZERO;
    presolver.stats.components = comp_rows.len();
    // Global column → column of the current component's core. Components
    // own disjoint columns, so each one overwrites just its own entries.
    let mut local_col: Vec<u32> = vec![0; ncols];
    for (rows, cols) in comp_rows.iter().zip(&comp_cols) {
        if token.is_cancelled() {
            gauss.interrupted = true;
            break;
        }
        for (local_c, &c) in cols.iter().enumerate() {
            local_col[c as usize] = local_c as u32;
        }
        let mut dense = BitMatrix::zero(rows.len(), cols.len());
        for (local_r, &r) in rows.iter().enumerate() {
            for &c in presolver.rows[r].as_ref().expect("grouped rows are live") {
                let local_c = local_col[c as usize] as usize;
                debug_assert_eq!(cols[local_c], c, "col is in the component");
                dense.set(local_r, local_c, true);
            }
        }
        let dense_started = std::time::Instant::now();
        let stats = dense.gauss_jordan_cancellable(token);
        dense_elapsed += dense_started.elapsed();
        gauss.merge(stats);
        if stats.interrupted {
            break;
        }
        for row in dense.iter() {
            let cols_of_row: Vec<u32> = row.iter_ones().map(|c| cols[c]).collect();
            if cols_of_row.is_empty() {
                break; // RREF sorts zero rows last
            }
            rows_out.push(cols_of_row);
        }
    }
    if gauss.interrupted {
        presolver.xors += gauss.row_xors;
        return interrupted_result(presolver, gauss.rank);
    }
    let dense_rows_total: usize = comp_rows.iter().map(Vec::len).sum();
    let dense_cols_total: usize = comp_cols.iter().map(Vec::len).sum();
    presolver.stats.dense_rows = dense_rows_total;
    presolver.stats.dense_cols = dense_cols_total;
    presolver.stats.rows_eliminated = presolver.stats.input_rows - dense_rows_total;
    presolver.stats.cols_eliminated = ncols - dense_cols_total;

    // Back-substitute the set-asides in reverse removal order: each becomes
    // pivot ∪ (tail with every finished-pivot column replaced by that final
    // row). One pass per set-aside suffices — finished rows are fully
    // reduced and set-aside pivots never occur in other rows.
    let mut pivot_row: Vec<u32> = vec![u32::MAX; ncols];
    for (i, row) in rows_out.iter().enumerate() {
        pivot_row[row[0] as usize] = i as u32;
    }
    let mut acc: Vec<u32> = Vec::new();
    let mut backsub_xors = 0usize;
    for sa in presolver.set_asides.iter().rev() {
        acc.clear();
        acc.push(sa.pivot);
        for &c in &sa.tail {
            let idx = pivot_row[c as usize];
            if idx == u32::MAX {
                acc.push(c);
            } else {
                // Toggling the full final row cancels `c` (parity) and adds
                // its free-column tail.
                acc.push(c);
                acc.extend_from_slice(&rows_out[idx as usize]);
                backsub_xors += 1;
            }
        }
        let mut stitched = acc.clone();
        normalize_row(&mut stitched);
        debug_assert_eq!(stitched.first(), Some(&sa.pivot), "pivot survives");
        pivot_row[sa.pivot as usize] = rows_out.len() as u32;
        rows_out.push(stitched);
    }
    rows_out.sort_unstable_by_key(|row| row[0]);

    gauss.rank += presolver.set_asides.len();
    gauss.row_xors += presolver.xors + backsub_xors;
    debug_assert_eq!(gauss.rank, rows_out.len());
    presolver.stats.dense_ns += dense_elapsed.as_nanos() as u64;
    presolver.stats.presolve_ns +=
        (started.elapsed().saturating_sub(dense_elapsed)).as_nanos() as u64;
    SparseRref {
        rank: rows_out.len(),
        rows: rows_out,
        gauss,
        presolve: presolver.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::splitmix_matrix;

    /// The non-zero rows of the dense-path RREF as sorted column lists.
    fn dense_nonzero_rows(m: &BitMatrix) -> Vec<Vec<u32>> {
        let (rref, _) = m.rref();
        rref.iter()
            .map(|row| row.iter_ones().map(|c| c as u32).collect::<Vec<u32>>())
            .filter(|row| !row.is_empty())
            .collect()
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
            let row: Vec<u32> = (0..fill).map(|_| (next() % cols as u64) as u32).collect();
            m.push_row(row);
        }
        m
    }

    fn assert_matches_dense(m: SparseMatrix) -> SparseRref {
        let dense = m.to_dense();
        let expected = dense_nonzero_rows(&dense);
        let got = m.rref();
        assert!(!got.gauss.interrupted);
        assert_eq!(got.rows, expected, "stitched RREF must equal dense RREF");
        assert_eq!(got.rank, expected.len());
        assert_eq!(got.gauss.rank, expected.len());
        got
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let r = SparseMatrix::new(0).rref();
        assert_eq!(r.rank, 0);
        assert!(r.rows.is_empty());
        let mut m = SparseMatrix::new(5);
        m.push_row(vec![]);
        m.push_row(vec![2, 2]); // cancels to empty
        let r = m.rref();
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
    fn subset_rows_cancel() {
        let m = SparseMatrix::from_rows(
            10,
            vec![
                vec![1, 4, 7],
                vec![1, 2, 4, 6, 7, 9],
                vec![1, 4, 7, 8],
                vec![2, 6, 9],
                vec![0, 3, 5, 8, 9],
            ],
        );
        let r = assert_matches_dense(m);
        assert!(r.presolve.subset_cancellations >= 1);
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
    fn pre_cancelled_token_reports_interrupted_with_no_rows() {
        let token = CancelToken::new();
        token.cancel();
        let m = splitmix_sparse(30, 30, 3, 9);
        let r = m.rref_cancellable(&token);
        assert!(r.gauss.interrupted);
        assert!(r.rows.is_empty(), "partial output is never exposed");
    }

    #[test]
    fn mid_run_cancellation_is_transactional() {
        let token = CancelToken::new().cancel_after_checks(2);
        let m = splitmix_sparse(200, 150, 4, 10);
        let r = m.rref_cancellable(&token);
        assert!(r.gauss.interrupted);
        assert!(r.rows.is_empty());
    }

    #[test]
    fn csr_construction_round_trips() {
        let cols = vec![3u32, 1, 0, 2, 2];
        let offsets = vec![0usize, 2, 2, 5];
        let m = SparseMatrix::from_csr(4, &cols, &offsets);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.rows()[0], vec![1, 3]);
        assert!(m.rows()[1].is_empty());
        assert_eq!(m.rows()[2], vec![0], "duplicate 2s cancel");
        assert_matches_dense(m);
    }

    #[test]
    fn stats_shape_fields_are_consistent() {
        let m = splitmix_sparse(64, 48, 3, 12);
        let (nrows, ncols) = (m.nrows(), m.ncols());
        let r = m.rref();
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
