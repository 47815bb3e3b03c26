//! Cache-blocked, multi-table M4RM Gauss–Jordan elimination.
//!
//! This is the paper-scale GF(2) elimination kernel, in the style of the
//! M4RI library's `mzd_echelonize_m4ri`. The classic Method of the Four
//! Russians processes `k ≤ 8` pivot columns per sweep over the trailing
//! matrix, which at tens of thousands of columns — the linearised systems
//! the paper's Table 2 instances produce — becomes memory-bound on
//! re-reading the matrix. This kernel cuts that traffic three ways:
//!
//! 1. **In-place arena elimination.** [`BitMatrix`] already stores its rows
//!    in one contiguous `nrows × words_per_row` arena, so the kernel
//!    eliminates directly over `&mut BitMatrix` — no flatten on entry, no
//!    read-back on exit. The update pass streams one contiguous region the
//!    hardware prefetcher can follow.
//! 2. **Pivot blocks in triples.** Each sweep establishes up to `3k ≤ 24`
//!    pivots at once and splits them over *three* `2^k` Gray-code tables.
//!    Because [`establish_block_pivots`] leaves the pivot rows identity on
//!    *all* the sweep's pivot columns, the three table indices of a row are
//!    independent: entries of one table have zeros at the other tables'
//!    pivot columns. All three indices come out of one windowed read of at
//!    most two row words (24 bits always fit), and each row is cleared with
//!    one fused `row ^= A[ia] ^ B[ib] ^ C[ic]` pass ([`xor3_words`]). The
//!    trailing matrix is read and written once per `3k` columns instead of
//!    once per `k`. When the pivot columns are contiguous the window *is*
//!    the packed index; when free columns sit between them (the usual
//!    shape of XL's dense cores) three per-sweep byte tables compress the
//!    window's pivot bits into the index ([`PivotGather`], a software
//!    `pext`).
//! 3. **Column-tiled updates.** For very wide matrices the three tables
//!    (`3 · 2^k · stride · 8` bytes) fall out of L2 and every table lookup
//!    becomes a cache miss. Beyond [`blocked_tile_words`] words per row the
//!    update is applied tile by tile — the table indices are computed once
//!    (during the first tile, while the row's leading words are hot), then
//!    each subsequent tile streams the rows against an L2-resident slice of
//!    all three tables.
//!
//! Pivot establishment is read-only window math: a candidate row's
//! post-cleanup window is `window ^ ⊕ pivot windows of its dirty bits` (each
//! pivot row is identity on the pivot columns so far, so one windowed read
//! yields the exact dirty set). No row is written during the scan, and only
//! the row actually chosen as a pivot is cleaned — the rest are cleared
//! wholesale by the sweep's fused table XOR. The rows' raw windows are read
//! once per sweep into a compact cache, whose OR skips the columns absent
//! from every remaining row without a scan; a present column's scan tests
//! one parity per cached window.
//!
//! The inner loops are the slice-trimmed word XORs of `vector.rs` — plain
//! `u64` code the compiler autovectorises, no architecture intrinsics, per
//! the offline-build constraint.
//!
//! The produced RREF is **bit-identical** to the schoolbook kernel
//! ([`BitMatrix::gauss_jordan_plain_with_stats`]): RREF is unique and both
//! kernels order rows canonically (pivot rows sorted by pivot column, zero
//! rows last). Property tests in `proptests.rs` assert this equivalence,
//! including at widths 2048, 4096 and non-powers-of-two.
//!
//! Kernel selection (which sizes run this kernel) lives in
//! [`select_kernel`](crate::select_kernel); the tuning knobs are documented
//! in `crates/bench/DESIGN.md`.

use std::ops::Range;

use bosphorus_interrupt::CancelToken;

use crate::vector::{xor2_words, xor3_words, xor_into_words, xor_words};
use crate::{BitMatrix, GaussStats};

/// Conservative per-core L2 cache estimate, in bytes.
///
/// Used by [`blocked_tile_words`]: the column-tile width is chosen so a tile
/// of all three Gray-code tables stays resident. 1 MiB sits at the low end
/// of contemporary per-core L2 sizes: underestimating costs a little tiling
/// overhead, overestimating reintroduces the cache misses the tiling exists
/// to avoid.
pub const GF2_L2_CACHE_BYTES: usize = 1024 * 1024;

/// Maximum per-table M4RM block width: `2^8 = 256` Gray-code table entries.
///
/// Wider blocks would grow the tables exponentially while the per-row saving
/// only grows linearly; 8 is also the widest block the `u8`-indexed lookup
/// of the original M4RI implementation uses per table.
pub const M4RM_MAX_BLOCK: usize = 8;

/// Matrices whose smaller dimension is below this threshold take the
/// schoolbook kernel: the Gray-code table setup costs more than it saves
/// when there are only a handful of rows to clear per block.
pub(crate) const M4RM_MIN_DIM: usize = 16;

/// Picks the M4RM per-table block width `k` for an `nrows × ncols`
/// elimination.
///
/// Uses the classic `k ≈ ¾·log₂(n)` rule of the M4RI library (with `n` the
/// smaller dimension), clamped to `[1, 8]`: a Gray-code table costs
/// `2^k − 1` row XORs per sweep, which amortises only while `2^k` stays far
/// below the number of rows.
///
/// ```
/// use bosphorus_gf2::m4rm_block_size;
/// assert_eq!(m4rm_block_size(1024, 1024), 8);
/// assert!(m4rm_block_size(64, 64) < m4rm_block_size(4096, 4096));
/// assert_eq!(m4rm_block_size(2, 2), 1);
/// ```
pub fn m4rm_block_size(nrows: usize, ncols: usize) -> usize {
    let n = nrows.min(ncols).max(2);
    // floor(log2(n)) + 1, i.e. the bit length of n.
    let bit_length = (usize::BITS - n.leading_zeros()) as usize;
    (bit_length * 3 / 4).clamp(1, M4RM_MAX_BLOCK)
}

/// Column-tile width, in 64-bit words, of the blocked kernel's row updates
/// for per-table block width `k`.
///
/// Chosen so one tile of *all three* `2^k`-entry Gray-code tables fits in
/// [`GF2_L2_CACHE_BYTES`] (the rows only stream through the cache, so the
/// tables get the whole budget), with a floor of 16 words so the inner loops
/// keep enough straight-line work to amortise the per-row-per-tile
/// bookkeeping.
///
/// ```
/// use bosphorus_gf2::blocked_tile_words;
/// // k = 8: 3 tables x 256 entries x 170 words x 8 bytes <= 1 MiB resident.
/// assert_eq!(blocked_tile_words(8), 170);
/// // Smaller tables allow wider tiles.
/// assert!(blocked_tile_words(4) > blocked_tile_words(8));
/// ```
pub fn blocked_tile_words(k: usize) -> usize {
    let budget = GF2_L2_CACHE_BYTES;
    let table_entries = 3 * (1usize << k.clamp(1, M4RM_MAX_BLOCK));
    (budget / (table_entries * 8)).max(16)
}

impl BitMatrix {
    /// Cache-blocked three-table M4RM Gauss–Jordan elimination, in place
    /// over the matrix arena, with per-table block width `block` (clamped to
    /// `[1, 8]`), reporting operation counts.
    ///
    /// Each sweep establishes up to `3 · block` pivots, builds three
    /// Gray-code tables, and clears every other row with one fused
    /// three-table XOR pass (column-tiled once rows outgrow the L2
    /// estimate). The result is identical to
    /// [`BitMatrix::gauss_jordan_plain_with_stats`]; only the operation
    /// schedule differs. This is the kernel
    /// [`BitMatrix::gauss_jordan_with_stats`] dispatches to for all but tiny
    /// matrices — see [`select_kernel`](crate::select_kernel).
    ///
    /// ```
    /// use bosphorus_gf2::BitMatrix;
    /// let mut a = BitMatrix::identity(20);
    /// a.set(0, 19, true);
    /// let stats = a.gauss_jordan_blocked_m4rm_with_stats(8);
    /// assert_eq!(stats.rank, 20);
    /// assert_eq!(a, BitMatrix::identity(20));
    /// ```
    pub fn gauss_jordan_blocked_m4rm_with_stats(&mut self, block: usize) -> GaussStats {
        self.gauss_jordan_blocked_m4rm_cancellable(block, &CancelToken::never())
    }

    /// Like [`BitMatrix::gauss_jordan_blocked_m4rm_with_stats`], polling
    /// `token` once per elimination sweep, before the sweep starts: a
    /// sweep's row updates are the unit of committed work, so no row is
    /// ever left half updated.
    ///
    /// On cancellation the elimination stops before the next sweep and
    /// returns with [`GaussStats::interrupted`](crate::GaussStats) set and
    /// the pivots established so far as the rank; the matrix is then only
    /// partially reduced and must be treated as scratch.
    pub fn gauss_jordan_blocked_m4rm_cancellable(
        &mut self,
        block: usize,
        token: &CancelToken,
    ) -> GaussStats {
        self.gauss_jordan_blocked_m4rm_in(block, token, &mut KernelScratch::default())
    }

    /// [`BitMatrix::gauss_jordan_blocked_m4rm_cancellable`] with its buffers
    /// taken from `scratch`, so a caller eliminating many matrices allocates
    /// them once.
    pub(crate) fn gauss_jordan_blocked_m4rm_in(
        &mut self,
        block: usize,
        token: &CancelToken,
        scratch: &mut KernelScratch,
    ) -> GaussStats {
        let k = block.clamp(1, M4RM_MAX_BLOCK);
        let mut stats = GaussStats::default();
        let nrows = self.nrows();
        let ncols = self.ncols();
        if nrows == 0 || ncols == 0 {
            return stats;
        }
        let words = self.words_per_row();
        let tile = blocked_tile_words(k);
        let KernelScratch {
            tables,
            scan,
            indices,
        } = scratch;
        tables.reset(k, words);
        let mut gather = PivotGather::new();
        let mut pivot_row = 0usize;
        let mut col_start = 0usize;
        while pivot_row < nrows && col_start < ncols {
            if token.is_cancelled() {
                stats.interrupted = true;
                break;
            }
            let Some(next_col) = leading_column(self, pivot_row, col_start) else {
                break;
            };
            col_start = next_col;
            let col_end = (col_start + 3 * k).min(ncols);
            let block_start = pivot_row;
            let window = Window {
                w0: col_start / 64,
                shift: col_start % 64,
            };
            establish_block_pivots(
                self,
                block_start,
                col_start,
                col_end,
                window,
                scan,
                &mut stats,
            );
            let pivot_cols = &scan.cols;
            let p = pivot_cols.len();
            let block_end = block_start + p;
            if p > 0 {
                // Split the sweep's pivots over the three tables. The pivot
                // rows are identity on all p pivot columns, so each table's
                // entries are zero at the other tables' columns: the three
                // indices of a row are independent of each other and stable
                // under any table's XOR.
                let pa = p.min(k);
                let pb = (p - pa).min(k);
                let pc = p - pa - pb;
                let w0 = window.w0;
                build_gray_table(&mut tables.a, self, block_start, pa, w0, &mut stats);
                build_gray_table(&mut tables.b, self, block_start + pa, pb, w0, &mut stats);
                build_gray_table(
                    &mut tables.c,
                    self,
                    block_start + pa + pb,
                    pc,
                    w0,
                    &mut stats,
                );
                // On dense random systems the sweep's pivot columns are almost
                // always the contiguous range starting at col_start, and the
                // window read *is* the table index. XL's dense cores leave
                // free columns between the pivots; their window bits are
                // compressed into the index through per-sweep byte tables.
                let contiguous = pivot_cols
                    .iter()
                    .enumerate()
                    .all(|(j, &c)| c == col_start + j);
                if !contiguous {
                    gather.rebuild(pivot_cols.iter().map(|&c| c - col_start));
                }
                stats.sweeps += 1;
                stats.scattered_sweeps += usize::from(!contiguous);
                let sweep = Sweep {
                    tables,
                    window,
                    tile,
                    pa,
                    pb,
                    pc,
                    gather: (!contiguous).then_some(&gather),
                    pivot_rows: block_start..block_end,
                };
                stats.row_xors += sweep.update(self.words_raw_mut(), words, indices);
            }
            pivot_row = block_end;
            col_start = col_end;
        }
        stats.rank = pivot_row;
        stats
    }
}

/// The buffers of the blocked kernel: the Gray-code tables and the
/// per-sweep scratch, reused across the sweeps of a call and, through
/// [`BitMatrix::gauss_jordan_blocked_m4rm_in`], across calls.
#[derive(Default)]
pub(crate) struct KernelScratch {
    tables: Tables,
    scan: PivotScan,
    /// The rows' table indices of a tiled update.
    indices: Vec<(u8, u8, u8)>,
}

/// The buffers of one sweep's pivot search ([`establish_block_pivots`]).
#[derive(Default)]
struct PivotScan {
    /// Cached raw windows of the rows the scan has read.
    windows: Vec<u32>,
    /// The sweep's pivot columns, ascending.
    cols: Vec<usize>,
    /// The current windows of the sweep's pivot rows.
    col_windows: Vec<usize>,
}

/// The three Gray-code tables of a sweep. Entry 0 of each is the zero row
/// and is never written; entries `1..2^p` are rebuilt per sweep, in buffers
/// reused across sweeps.
#[derive(Default)]
struct Tables {
    a: Vec<u64>,
    b: Vec<u64>,
    c: Vec<u64>,
}

impl Tables {
    /// Sizes the tables for block width `k` over rows of `words` words,
    /// all zero.
    fn reset(&mut self, k: usize, words: usize) {
        let size = (1usize << k) * words;
        for table in [&mut self.a, &mut self.b, &mut self.c] {
            table.clear();
            table.resize(size, 0);
        }
    }
}

/// Where a sweep's column window (the up-to-24 bits starting at the sweep's
/// first column) sits in a row: word `w0`, bit `shift`.
#[derive(Clone, Copy)]
struct Window {
    w0: usize,
    shift: usize,
}

impl Window {
    /// Reads a row's window out of at most two row words.
    #[inline]
    fn read(self, row: &[u64]) -> usize {
        let lo = row[self.w0] >> self.shift;
        if self.shift == 0 || self.w0 + 1 >= row.len() {
            lo as usize
        } else {
            (lo | (row[self.w0 + 1] << (64 - self.shift))) as usize
        }
    }
}

/// A software `pext` over a sweep window: compresses a row's window bits at
/// the sweep's pivot offsets into the dense `p`-bit table index (pivot `j`
/// to bit `j`) with one 256-entry table per window byte. The window spans at
/// most `3k <= 24` bits, so three lookups cover it.
struct PivotGather {
    bytes: [[u32; 256]; 3],
}

impl PivotGather {
    fn new() -> Self {
        PivotGather {
            bytes: [[0; 256]; 3],
        }
    }

    /// Rebuilds the byte tables for pivots at the ascending window offsets
    /// `offsets`.
    fn rebuild(&mut self, offsets: impl Iterator<Item = usize>) {
        let mut bit_index = [[0u32; 8]; 3];
        for (j, off) in offsets.enumerate() {
            bit_index[off / 8][off % 8] = 1 << j;
        }
        for (table, bits) in self.bytes.iter_mut().zip(&bit_index) {
            // Entry v extends the entry of v without its lowest set bit.
            for v in 1..256usize {
                table[v] = table[v & (v - 1)] | bits[v.trailing_zeros() as usize];
            }
        }
    }

    /// The table index of a row whose window reads `window`.
    #[inline]
    fn index(&self, window: usize) -> usize {
        (self.bytes[0][window & 0xff]
            | self.bytes[1][(window >> 8) & 0xff]
            | self.bytes[2][(window >> 16) & 0xff]) as usize
    }
}

/// One sweep's row-update pass: the three tables plus the sweep geometry.
struct Sweep<'a> {
    tables: &'a Tables,
    window: Window,
    tile: usize,
    pa: usize,
    pb: usize,
    pc: usize,
    /// The byte tables of a scattered sweep; `None` when the pivot columns
    /// are the window's first `pa + pb + pc` columns and the window read is
    /// already the index.
    gather: Option<&'a PivotGather>,
    /// The sweep's pivot rows; they are already identity on the pivot
    /// columns and must not be updated.
    pivot_rows: Range<usize>,
}

impl Sweep<'_> {
    /// Clears the sweep's pivot columns from every row of `arena` (rows of
    /// `words` words) outside the pivot block: per row, read the three table
    /// indices, then apply the fused table XOR, column tile by column tile.
    /// Returns the row-XOR count.
    /// `indices` is scratch for the rows' table indices of a tiled update.
    fn update(&self, arena: &mut [u64], words: usize, indices: &mut Vec<(u8, u8, u8)>) -> usize {
        match self.gather {
            None => self.update_rows(arena, words, indices, |window| window),
            Some(gather) => self.update_rows(arena, words, indices, |window| gather.index(window)),
        }
    }

    /// [`Sweep::update`] with `index` turning a row's window read into its
    /// packed `pa + pb + pc`-bit table index.
    fn update_rows(
        &self,
        arena: &mut [u64],
        words: usize,
        indices: &mut Vec<(u8, u8, u8)>,
        index: impl Fn(usize) -> usize,
    ) -> usize {
        let w0 = self.window.w0;
        let stride = words - w0;
        let first_tile = stride.min(self.tile);
        let tables = self.tables;
        let mask_a = (1usize << self.pa) - 1;
        let mask_b = (1usize << self.pb) - 1;
        let mask_c = (1usize << self.pc) - 1;
        let shift_c = self.pa + self.pb;
        let tiled = stride > first_tile;
        if tiled {
            indices.clear();
            indices.resize(arena.len() / words, (0, 0, 0));
        }
        let mut xors = 0usize;
        // First (or only) column tile: compute all three table indices while
        // the row's leading words are hot, buffer them if more tiles follow,
        // and apply the fused three-table XOR.
        for (r, row) in arena.chunks_exact_mut(words).enumerate() {
            if self.pivot_rows.contains(&r) {
                continue;
            }
            let index = index(self.window.read(row));
            let (ia, ib, ic) = (
                index & mask_a,
                (index >> self.pa) & mask_b,
                (index >> shift_c) & mask_c,
            );
            if tiled {
                indices[r] = (ia as u8, ib as u8, ic as u8);
            }
            if ia == 0 && ib == 0 && ic == 0 {
                continue;
            }
            xors += usize::from(ia != 0) + usize::from(ib != 0) + usize::from(ic != 0);
            apply_entries(
                &mut row[w0..w0 + first_tile],
                &tables.a[ia * stride..ia * stride + first_tile],
                &tables.b[ib * stride..ib * stride + first_tile],
                &tables.c[ic * stride..ic * stride + first_tile],
                ia,
                ib,
                ic,
            );
        }
        // Remaining tiles (wide matrices only): stream the rows against an
        // L2-resident slice of all three tables.
        let mut tw = first_tile;
        while tw < stride {
            let tw_end = (tw + self.tile).min(stride);
            for (row, &(ia, ib, ic)) in arena.chunks_exact_mut(words).zip(indices.iter()) {
                let (ia, ib, ic) = (ia as usize, ib as usize, ic as usize);
                if ia == 0 && ib == 0 && ic == 0 {
                    continue;
                }
                apply_entries(
                    &mut row[w0 + tw..w0 + tw_end],
                    &tables.a[ia * stride + tw..ia * stride + tw_end],
                    &tables.b[ib * stride + tw..ib * stride + tw_end],
                    &tables.c[ic * stride + tw..ic * stride + tw_end],
                    ia,
                    ib,
                    ic,
                );
            }
            tw = tw_end;
        }
        xors
    }
}

/// Applies the table entries with non-zero indices to `dst`, fusing the
/// XORs into a single pass over `dst` when more than one fires.
#[inline]
fn apply_entries(
    dst: &mut [u64],
    a: &[u64],
    b: &[u64],
    c: &[u64],
    ia: usize,
    ib: usize,
    ic: usize,
) {
    match (ia != 0, ib != 0, ic != 0) {
        (true, true, true) => xor3_words(dst, a, b, c),
        (true, true, false) => xor2_words(dst, a, b),
        (true, false, true) => xor2_words(dst, a, c),
        (false, true, true) => xor2_words(dst, b, c),
        (true, false, false) => xor_words(dst, a),
        (false, true, false) => xor_words(dst, b),
        (false, false, true) => xor_words(dst, c),
        (false, false, false) => {}
    }
}

/// The leftmost column `>= col_floor` in which any row at or below
/// `row_start` has a one, found with word-skipping row scans that stop
/// early at the best column found so far.
fn leading_column(m: &BitMatrix, row_start: usize, col_floor: usize) -> Option<usize> {
    let words = m.words_per_row();
    let first_word = col_floor / 64;
    let floor_mask = !0u64 << (col_floor % 64);
    let mut best: Option<usize> = None;
    for r in row_start..m.nrows() {
        let row = m.row_words(r);
        let limit_word = best.map_or(words - 1, |b| b / 64);
        for (wi, &raw) in row.iter().enumerate().take(limit_word + 1).skip(first_word) {
            let w = if wi == first_word {
                raw & floor_mask
            } else {
                raw
            };
            if w != 0 {
                let c = wi * 64 + w.trailing_zeros() as usize;
                if c == col_floor {
                    return Some(c);
                }
                if best.map_or(true, |b| c < b) {
                    best = Some(c);
                }
                break;
            }
        }
    }
    best.filter(|&c| c < m.ncols())
}

/// The parity (0 or 1) of the set bits of `x`, in shifts and XORs that
/// vectorise without a population-count instruction.
#[inline]
fn parity(mut x: u32) -> u32 {
    x ^= x >> 16;
    x ^= x >> 8;
    x ^= x >> 4;
    x ^= x >> 2;
    x ^= x >> 1;
    x & 1
}

/// The position of the first of `windows` with odd parity under `probe`.
/// Tests a chunk at a time, so the common all-even chunk costs a few
/// vector instructions.
fn first_odd_parity(windows: &[u32], probe: u32) -> Option<usize> {
    const CHUNK: usize = 16;
    for (ci, chunk) in windows.chunks(CHUNK).enumerate() {
        if chunk.iter().fold(0, |any, &w| any | parity(w & probe)) != 0 {
            let i = chunk.iter().position(|&w| parity(w & probe) == 1);
            return i.map(|i| ci * CHUNK + i);
        }
    }
    None
}

/// XORs row `src` into row `dst` from word `w0` on (everything left of the
/// sweep's first word is already zero in both rows).
fn xor_row_from(m: &mut BitMatrix, src: usize, dst: usize, w0: usize) {
    let (s, d) = m.row_pair_mut(src, dst);
    xor_words(&mut d[w0..], &s[w0..]);
}

/// Establishes pivots for the sweep columns `col_start..col_end`, moving
/// pivot rows to positions `block_start..`, reducing them to identity on the
/// sweep's pivot columns, and leaving the pivot columns found in
/// `scan.cols`.
///
/// The candidate scan is read-only window math: no row is written while
/// searching, and only the chosen pivot row is physically cleaned on the
/// earlier pivot columns. Every *other* row keeps its pivot-column bits
/// until the sweep's fused table XOR clears them wholesale — the Gray-code
/// entry indexed by those bits is exactly the pivot-row combination a
/// per-row cleanup would apply, so deferring it removes the scan's
/// full-width row XORs without changing any result.
///
/// A row's post-cleanup bit at column `c` is its raw bit XOR the parity of
/// its dirty bits (window bits at the pivot columns so far) whose pivot row
/// has a one at `c`: each pivot row is identity on the pivot columns, so the
/// dirty set read off the raw window is exact. The scan therefore tests one
/// cached raw window per row against one mask per column. The raw windows
/// of the rows below the block are read into `scan.windows` once per sweep, in
/// row order and only as far as the scans reach; since only the chosen row
/// is written and then leaves the scanned range, the cache stays exact with
/// one entry moved per row swap.
fn establish_block_pivots(
    m: &mut BitMatrix,
    block_start: usize,
    col_start: usize,
    col_end: usize,
    window: Window,
    scan: &mut PivotScan,
    stats: &mut GaussStats,
) {
    let PivotScan {
        windows,
        cols: pivot_cols,
        col_windows: pivot_windows,
    } = scan;
    let nrows = m.nrows();
    let w0 = window.w0;
    pivot_cols.clear();
    // Offsets (relative to col_start) of the pivot columns found so far, as
    // a bit mask over the sweep window, and the current pivot-row windows.
    // The window spans `col_end - col_start <= 3k <= 24` bits, so one read
    // of at most two row words yields every pivot-column bit of a row at
    // once.
    let mut pivot_mask: usize = 0;
    pivot_windows.clear();
    let width_mask = (1usize << (col_end - col_start)) - 1;
    let read = |m: &BitMatrix, r: usize| (window.read(m.row_words(r)) & width_mask) as u32;
    // Only columns present in some row at or below the block can hold a
    // pivot: every row's post-cleanup window is a combination of these rows'
    // windows, so a column absent from all of them is skipped unscanned.
    windows.clear();
    let mut present = 0usize;
    for r in block_start..nrows {
        let w = read(m, r);
        windows.push(w);
        present |= w as usize;
        if present == width_mask {
            break;
        }
    }
    while present != 0 {
        let c_off = present.trailing_zeros() as usize;
        present &= present - 1;
        let c = col_start + c_off;
        let dest = block_start + pivot_cols.len();
        if dest >= nrows {
            break;
        }
        // A row's post-cleanup bit c is the parity of its raw window under
        // `probe`: bit c itself plus the dirty bits whose pivot row has a
        // one at c.
        let probe = pivot_cols
            .iter()
            .zip(pivot_windows.iter())
            .filter(|&(_, &pw)| (pw >> c_off) & 1 == 1)
            .fold(1u32 << c_off, |acc, (&pc, _)| acc | 1 << (pc - col_start));
        let cached = dest - block_start;
        let mut found =
            first_odd_parity(&windows[cached..], probe).map(|i| block_start + cached + i);
        for r in block_start + windows.len()..nrows {
            if found.is_some() {
                break;
            }
            let w = read(m, r);
            windows.push(w);
            if parity(w & probe) == 1 {
                found = Some(r);
            }
        }
        let Some(found) = found else {
            continue;
        };
        // Physically clean the chosen row on the earlier pivot columns (the
        // scan left it untouched).
        let mut dirty = windows[found - block_start] as usize & pivot_mask;
        while dirty != 0 {
            let off = dirty.trailing_zeros() as usize;
            let j = (pivot_mask & ((1usize << off) - 1)).count_ones() as usize;
            xor_row_from(m, block_start + j, found, w0);
            stats.row_xors += 1;
            dirty &= dirty - 1;
        }
        debug_assert!(m.get(found, c), "scan math matches the cleanup");
        if found != dest {
            m.swap_rows(found, dest);
            windows[found - block_start] = windows[dest - block_start];
            stats.row_swaps += 1;
        }
        // Back-eliminate column c from the earlier pivot rows of this
        // sweep, keeping the pivot rows identity on the pivot columns (the
        // property the independent Gray-code indices rely on).
        for j in 0..pivot_cols.len() {
            if m.get(block_start + j, c) {
                xor_row_from(m, dest, block_start + j, w0);
                stats.row_xors += 1;
            }
        }
        pivot_cols.push(c);
        pivot_mask |= 1usize << c_off;
        // Refresh the cached pivot windows: back-elimination rewrote the
        // earlier pivot rows' non-pivot window bits and a new pivot row
        // joined the block.
        pivot_windows.clear();
        for j in 0..pivot_cols.len() {
            pivot_windows.push(window.read(m.row_words(block_start + j)));
        }
    }
}

/// Builds the `2^p` Gray-code lookup table over rows
/// `first_pivot_row..first_pivot_row + p`, each entry covering the row words
/// from `w0` on. Each entry is written as its predecessor XOR one pivot row
/// in a single word-parallel pass, so the whole table costs `2^p − 1` row
/// XORs. With `p == 0` the table is untouched (all lookups hit the
/// never-written zero entry 0).
fn build_gray_table(
    table: &mut [u64],
    m: &BitMatrix,
    first_pivot_row: usize,
    p: usize,
    w0: usize,
    stats: &mut GaussStats,
) {
    let stride = m.words_per_row() - w0;
    let mut prev = 0usize;
    for i in 1..(1usize << p) {
        let gray = i ^ (i >> 1);
        let bit = i.trailing_zeros() as usize;
        let (src, dst) = if prev < gray {
            let (lo, hi) = table.split_at_mut(gray * stride);
            (&lo[prev * stride..(prev + 1) * stride], &mut hi[..stride])
        } else {
            let (lo, hi) = table.split_at_mut(prev * stride);
            (&hi[..stride], &mut lo[gray * stride..(gray + 1) * stride])
        };
        xor_into_words(dst, src, &m.row_words(first_pivot_row + bit)[w0..]);
        stats.row_xors += 1;
        prev = gray;
    }
}

#[cfg(test)]
mod tests {
    use super::{blocked_tile_words, m4rm_block_size, GF2_L2_CACHE_BYTES, M4RM_MAX_BLOCK};
    use crate::testutil::splitmix_matrix;
    use crate::{BitMatrix, BitVec};

    fn assert_matches_plain(m: &BitMatrix, k: usize) {
        let mut reference = m.clone();
        let reference_stats = reference.gauss_jordan_plain_with_stats();
        let mut blocked = m.clone();
        let blocked_stats = blocked.gauss_jordan_blocked_m4rm_with_stats(k);
        assert_eq!(
            blocked_stats.rank,
            reference_stats.rank,
            "rank mismatch at {}x{}, k={k}",
            m.nrows(),
            m.ncols()
        );
        assert_eq!(
            blocked,
            reference,
            "RREF mismatch at {}x{}, k={k}",
            m.nrows(),
            m.ncols()
        );
    }

    /// 90×120 with rows 30..60 duplicating rows 0..30 and rows 60..90 zero:
    /// rank at most 30.
    fn rank_deficient_90x120() -> BitMatrix {
        let mut deficient = splitmix_matrix(90, 120, 13);
        for r in 0..30 {
            let dup = deficient.row(r).to_bitvec();
            deficient.set_row(r + 30, &dup);
            deficient.set_row(r + 60, &BitVec::zero(120));
        }
        deficient
    }

    /// A random `rows × cols` matrix in which every third column (2, 5, 8,
    /// ...) is the XOR of the two before it, so it is never a pivot column:
    /// most sweeps of the blocked kernel see scattered pivot columns, the
    /// shape of XL's dense cores.
    fn every_third_column_dependent(rows: usize, cols: usize, seed: u64) -> BitMatrix {
        let mut m = splitmix_matrix(rows, cols, seed);
        for r in 0..rows {
            for c in (2..cols).step_by(3) {
                let sum = m.get(r, c - 2) ^ m.get(r, c - 1);
                m.set(r, c, sum);
            }
        }
        m
    }

    /// FNV-1a over the little-endian bytes of every row word.
    fn fnv1a_words(m: &BitMatrix) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in 0..m.nrows() {
            for w in m.row_words(r) {
                for b in w.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// `(rank, row_xors, row_swaps, FNV-1a of the RREF words)`.
    fn kernel_work(
        m: &BitMatrix,
        eliminate: impl Fn(&mut BitMatrix) -> crate::GaussStats,
    ) -> (usize, usize, usize, u64) {
        let mut a = m.clone();
        let stats = eliminate(&mut a);
        (stats.rank, stats.row_xors, stats.row_swaps, fnv1a_words(&a))
    }

    #[test]
    fn kernel_work_is_pinned() {
        // The auto-selected kernel's pivots, row order and operation counts
        // on fixed inputs. A change here is a change of schedule, not only
        // of speed.
        let mut bottom_heavy = BitMatrix::zero(5000, 192);
        let dense = splitmix_matrix(100, 192, 42);
        for r in 0..100 {
            bottom_heavy.set_row(4900 + r, &dense.row(r).to_bitvec());
        }
        let wide = splitmix_matrix(40, 20_480, 77);
        let auto = |a: &mut BitMatrix| a.gauss_jordan_with_stats();
        assert_eq!(
            kernel_work(&splitmix_matrix(320, 320, 2019), auto),
            (318, 21760, 149, 0x94c5_0d07_d09b_c945)
        );
        assert_eq!(
            kernel_work(&wide, auto),
            (40, 625, 18, 0x40eb_56b5_6a3c_b9b3)
        );
        // Every pivot scan passes thousands of zero rows first.
        assert_eq!(
            kernel_work(&bottom_heavy, auto),
            (100, 3209, 100, 0x6ed5_c81c_cfeb_ea72)
        );
        assert_eq!(
            kernel_work(&rank_deficient_90x120(), auto),
            (30, 624, 16, 0x0214_6b17_c1ed_6dac)
        );
        // Every third column is never a pivot, so most sweeps are scattered.
        assert_eq!(
            kernel_work(&every_third_column_dependent(200, 300, 31), auto),
            (200, 9385, 115, 0xe01f_40c8_bf91_be44)
        );
        // At k = 8 the 320-word rows exceed the tile width, so the update
        // runs tile by tile.
        assert!(20_480 / 64 > blocked_tile_words(8));
        assert_eq!(
            kernel_work(&wide, |a| a.gauss_jordan_blocked_m4rm_with_stats(8)),
            (40, 1777, 18, 0x40eb_56b5_6a3c_b9b3)
        );
    }

    /// Widths one word either side of 64 and 128, rows around square, at
    /// every block size from 1 to 8; `seed_row_mul` picks the inputs.
    fn assert_word_boundary_widths_match_plain(seed_row_mul: usize) {
        for &cols in &[63usize, 64, 65, 127, 129] {
            for &rows in &[cols - 1, cols, cols + 3] {
                let m = splitmix_matrix(rows, cols, (rows * seed_row_mul + cols) as u64);
                for k in [1usize, 3, 5, 8] {
                    assert_matches_plain(&m, k);
                }
            }
        }
    }

    #[test]
    fn matches_plain_across_word_boundary_widths() {
        assert_word_boundary_widths_match_plain(2000);
    }

    #[test]
    fn matches_plain_across_word_boundary_widths_reseeded() {
        assert_word_boundary_widths_match_plain(1000);
    }

    #[test]
    fn matches_plain_at_paper_scale_widths() {
        // The acceptance widths: 2048, 4096, and a non-power-of-two. Row
        // counts stay modest so the comparison is fast in debug builds; the
        // widths exercise both the single-tile path (stride below the tile
        // width) and, together with the wide shapes below, the tiled one.
        for &cols in &[2048usize, 3000, 4096] {
            for &rows in &[33usize, 96] {
                let m = splitmix_matrix(rows, cols, (rows * 31 + cols) as u64);
                assert_matches_plain(&m, 8);
            }
        }
    }

    #[test]
    fn scattered_pivot_columns_match_plain() {
        for (rows, cols) in [(40usize, 60usize), (200, 300), (700, 1050)] {
            let m = every_third_column_dependent(rows, cols, (rows + cols) as u64);
            assert_eq!(m.clone().gauss_jordan_plain_with_stats().sweeps, 0);
            for k in [1usize, 3, 5, 7, 8] {
                assert_matches_plain(&m, k);
                // At k = 1 a sweep spans three columns and finds its pivots
                // in the first two, a contiguous run; wider sweeps skip the
                // dependent columns between their pivots.
                let stats = m.clone().gauss_jordan_blocked_m4rm_with_stats(k);
                assert!(stats.scattered_sweeps <= stats.sweeps);
                assert!(
                    k == 1 || stats.scattered_sweeps > 0,
                    "{rows}x{cols}, k={k}: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn tiled_update_path_matches_plain() {
        // Wide enough that the stride (ncols/64 = 320 words) exceeds the
        // k=8 tile width, forcing the multi-tile update loop.
        let cols = 20_480;
        assert!(cols / 64 > blocked_tile_words(8));
        let m = splitmix_matrix(40, cols, 77);
        assert_matches_plain(&m, 8);
    }

    #[test]
    fn matches_plain_on_rank_deficient_and_wide_tall_shapes() {
        assert_matches_plain(&splitmix_matrix(300, 60, 11), 7);
        assert_matches_plain(&splitmix_matrix(60, 300, 12), 7);
        let deficient = rank_deficient_90x120();
        assert_matches_plain(&deficient, 8);
        assert!(
            deficient
                .clone()
                .gauss_jordan_blocked_m4rm_with_stats(8)
                .rank
                <= 30
        );
    }

    #[test]
    fn matches_plain_on_tall_wide_and_deficient_shapes() {
        // Tall, wide, and a 60x80 with rows 20..40 duplicating rows 0..20
        // and rows 40..60 zero.
        assert_matches_plain(&splitmix_matrix(200, 40, 7), 6);
        assert_matches_plain(&splitmix_matrix(40, 200, 8), 6);
        let mut deficient = splitmix_matrix(60, 80, 9);
        for r in 0..20 {
            let dup = deficient.row(r).to_bitvec();
            deficient.set_row(r + 20, &dup);
            deficient.set_row(r + 40, &BitVec::zero(80));
        }
        assert_matches_plain(&deficient, 8);
        assert!(
            deficient
                .clone()
                .gauss_jordan_blocked_m4rm_with_stats(8)
                .rank
                <= 20
        );
    }

    #[test]
    fn square_dense_matches_plain_kernel_exactly() {
        // Direct agreement on a square dense matrix large enough to run
        // several multi-sweep iterations.
        let m = splitmix_matrix(320, 320, 2019);
        let mut plain = m.clone();
        let plain_stats = plain.gauss_jordan_plain_with_stats();
        let mut blocked = m.clone();
        let blocked_stats = blocked.gauss_jordan_blocked_m4rm_with_stats(8);
        assert_eq!(blocked_stats.rank, plain_stats.rank);
        assert_eq!(blocked, plain);
    }

    #[test]
    fn stats_rank_matches_plain_and_xors_are_fewer_when_large() {
        let m = splitmix_matrix(512, 512, 42);
        let mut plain = m.clone();
        let plain_stats = plain.gauss_jordan_plain_with_stats();
        let mut fast = m.clone();
        let fast_stats = fast.gauss_jordan_blocked_m4rm_with_stats(m4rm_block_size(512, 512));
        assert_eq!(fast_stats.rank, plain_stats.rank);
        assert!(
            fast_stats.row_xors * 2 < plain_stats.row_xors,
            "M4RM should do far fewer row XORs: {} vs {}",
            fast_stats.row_xors,
            plain_stats.row_xors
        );
    }

    #[test]
    fn block_size_heuristic_is_monotonic_and_clamped() {
        assert_eq!(m4rm_block_size(0, 0), 1);
        assert_eq!(m4rm_block_size(1, 1), 1);
        let mut last = 0usize;
        for exp in 1..16 {
            let k = m4rm_block_size(1 << exp, 1 << exp);
            assert!(k >= last, "block size must not shrink with matrix size");
            assert!((1..=M4RM_MAX_BLOCK).contains(&k));
            last = k;
        }
        assert_eq!(m4rm_block_size(1 << 20, 1 << 20), M4RM_MAX_BLOCK);
        // Rectangular: governed by the smaller dimension.
        assert_eq!(m4rm_block_size(1 << 20, 8), m4rm_block_size(8, 8));
    }

    /// Empty, column-less and all-zero matrices have rank 0 and cost no
    /// XORs; an `identity_dim`-square identity is a fixed point of full rank.
    fn assert_degenerate_cases(identity_dim: usize) {
        let mut empty = BitMatrix::zero(0, 0);
        assert_eq!(empty.gauss_jordan_blocked_m4rm_with_stats(4).rank, 0);
        let mut no_cols = BitMatrix::zero(5, 0);
        assert_eq!(no_cols.gauss_jordan_blocked_m4rm_with_stats(4).rank, 0);
        let mut zero = BitMatrix::zero(9, 9);
        let stats = zero.gauss_jordan_blocked_m4rm_with_stats(4);
        assert_eq!(stats.rank, 0);
        assert_eq!(stats.row_xors, 0);
        let mut id = BitMatrix::identity(identity_dim);
        assert_eq!(
            id.gauss_jordan_blocked_m4rm_with_stats(8).rank,
            identity_dim
        );
        assert_eq!(id, BitMatrix::identity(identity_dim));
    }

    #[test]
    fn handles_empty_and_degenerate_matrices() {
        assert_degenerate_cases(130);
    }

    #[test]
    fn handles_empty_and_degenerate_matrices_at_65_columns() {
        assert_degenerate_cases(65);
    }

    #[test]
    fn sparse_distant_column_clusters_are_handled() {
        let mut m = BitMatrix::zero(40, 3000);
        for r in 0..20 {
            m.set(r, 5 + r, true);
            m.set(r, 2900 + (r % 25), true);
        }
        assert_matches_plain(&m, 8);
    }

    #[test]
    fn sparse_columns_are_skipped_not_scanned() {
        // Ones only in two distant column clusters; the word-skipping pivot
        // search must land on both and the RREF must match plain GJE.
        let mut m = BitMatrix::zero(30, 500);
        for r in 0..15 {
            m.set(r, 3 + r, true);
            m.set(r, 450 + (r % 20), true);
        }
        assert_matches_plain(&m, 8);
    }

    #[test]
    fn pre_cancelled_token_interrupts_before_any_sweep() {
        use bosphorus_interrupt::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let m = splitmix_matrix(96, 256, 9);
        let mut a = m.clone();
        let stats = a.gauss_jordan_blocked_m4rm_cancellable(8, &token);
        assert!(stats.interrupted);
        assert_eq!(stats.rank, 0, "no pivots established");
        assert_eq!(a, m, "no sweep ran, matrix untouched");
    }

    #[test]
    fn mid_run_cancellation_stops_between_sweeps() {
        use bosphorus_interrupt::CancelToken;
        // 320x320 at k=8 needs several sweeps (24 pivots each); tripping
        // the token on its second poll stops after exactly one sweep, with
        // the partial pivot count as the rank.
        let token = CancelToken::new().cancel_after_checks(2);
        let mut m = splitmix_matrix(320, 320, 2019);
        let stats = m.gauss_jordan_blocked_m4rm_cancellable(8, &token);
        assert!(stats.interrupted);
        assert!(stats.rank > 0, "one sweep committed");
        assert!(
            stats.rank <= 24,
            "at most one sweep's pivots (rank={})",
            stats.rank
        );
    }

    #[test]
    fn never_token_elimination_is_unchanged() {
        use bosphorus_interrupt::CancelToken;
        let m = splitmix_matrix(96, 256, 9);
        let mut plain = m.clone();
        let plain_stats = plain.gauss_jordan_blocked_m4rm_with_stats(8);
        let mut cancellable = m.clone();
        let stats = cancellable.gauss_jordan_blocked_m4rm_cancellable(8, &CancelToken::never());
        assert!(!stats.interrupted);
        assert_eq!(stats, plain_stats);
        assert_eq!(cancellable, plain);
    }

    #[test]
    fn tile_words_track_the_cache_budget() {
        for k in 1..=8usize {
            let tile = blocked_tile_words(k);
            assert!(tile >= 16);
            // All three tables' resident tile slices fit the cache budget
            // (up to the 16-word floor).
            let resident = 3 * (1usize << k) * tile * 8;
            assert!(
                resident <= GF2_L2_CACHE_BYTES || tile == 16,
                "k={k}: {resident} bytes resident"
            );
        }
    }
}
