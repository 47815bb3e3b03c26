//! Bit-packed dense GF(2) matrices on a contiguous word arena.

use std::fmt;

use crate::vector::{first_one_in_range_words, iter_ones_words, word_get, xor_words};
use crate::BitVec;

/// A dense matrix over GF(2) with rows packed 64 columns per `u64` word.
///
/// Storage is a single contiguous `Vec<u64>` arena with a fixed per-row word
/// stride (`ncols.div_ceil(64)`), so row `r` occupies
/// `words[r * stride .. (r + 1) * stride]`. Rows are never separate
/// allocations: the elimination kernels work in place on the arena through
/// word-level row views ([`BitMatrix::row_words`],
/// [`BitMatrix::row_words_mut`], [`BitMatrix::row_pair_mut`]) and, for the
/// blocked kernel's row-update pass, one streaming walk over the whole
/// arena, without flattening or read-back copies.
///
/// The matrix supports the elementary row operations needed by Gauss–Jordan
/// elimination (row swap, row XOR) as word-parallel operations, which is what
/// makes linearisation-based reasoning (XL, ElimLin) practical on systems with
/// tens of thousands of monomial columns.
///
/// Like [`BitVec`], every row keeps the unused high bits of its last word
/// zero, so word-level consumers can operate on whole words without masking.
///
/// # Examples
///
/// ```
/// use bosphorus_gf2::BitMatrix;
///
/// let m = BitMatrix::identity(4);
/// assert_eq!(m.rank(), 4);
/// assert!(m.get(2, 2));
/// assert!(!m.get(2, 3));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    words: Vec<u64>,
    nrows: usize,
    ncols: usize,
    stride: usize,
}

/// A borrowed, read-only view of one matrix row: a `&[u64]` window into the
/// arena plus the logical bit length.
///
/// `RowRef` mirrors the read API of [`BitVec`] (`get`, `first_one`,
/// `iter_ones`, …) without copying the row out of the arena. Use
/// [`RowRef::to_bitvec`] when an owned row is needed.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> RowRef<'a> {
    /// Number of bits in the row (the matrix column count).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the row has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        word_get(self.words, index)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Index of the first set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        first_one_in_range_words(self.words, 0, self.len)
    }

    /// Index of the first set bit inside `start..end`, if any. Word-parallel,
    /// like [`BitVec::first_one_in_range`].
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn first_one_in_range(&self, start: usize, end: usize) -> Option<usize> {
        assert!(
            start <= end && end <= self.len,
            "bit range {start}..{end} out of range {}",
            self.len
        );
        first_one_in_range_words(self.words, start, end)
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + 'a {
        iter_ones_words(self.words)
    }

    /// The backing words of the row, least-significant bit first. Unused
    /// high bits of the last word are zero.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Copies the row out of the arena into an owned [`BitVec`].
    pub fn to_bitvec(&self) -> BitVec {
        BitVec::from_words(self.words.to_vec(), self.len)
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words == other.words
    }
}

impl Eq for RowRef<'_> {}

impl PartialEq<BitVec> for RowRef<'_> {
    fn eq(&self, other: &BitVec) -> bool {
        self.len == other.len() && self.words == other.words()
    }
}

impl PartialEq<&BitVec> for RowRef<'_> {
    fn eq(&self, other: &&BitVec) -> bool {
        *self == **other
    }
}

impl PartialEq<RowRef<'_>> for BitVec {
    fn eq(&self, other: &RowRef<'_>) -> bool {
        *other == *self
    }
}

impl fmt::Display for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RowRef[{self}]")
    }
}

impl BitMatrix {
    /// Creates an all-zero matrix with `rows` rows and `cols` columns.
    pub fn zero(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64);
        BitMatrix {
            words: vec![0; rows * stride],
            nrows: rows,
            ncols: cols,
            stride,
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = BitMatrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: Vec<BitVec>) -> Self {
        let cols = rows.first().map_or(0, BitVec::len);
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same number of columns"
        );
        let stride = cols.div_ceil(64);
        let mut words = Vec::with_capacity(rows.len() * stride);
        for row in &rows {
            words.extend_from_slice(row.words());
        }
        BitMatrix {
            words,
            nrows: rows.len(),
            ncols: cols,
            stride,
        }
    }

    /// Builds a matrix directly from a pre-assembled row-major word arena:
    /// row `r` occupies `words[r * ncols.div_ceil(64) ..][.. ncols.div_ceil(64)]`,
    /// bit `c` of a row is bit `c % 64` of its word `c / 64`.
    ///
    /// This is the zero-copy construction path for builders that stream
    /// whole rows into one buffer (e.g. linearisation). Unused high bits of
    /// each row's last word are cleared, preserving the padding invariant.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != nrows * ncols.div_ceil(64)`.
    ///
    /// ```
    /// use bosphorus_gf2::BitMatrix;
    /// // two rows of 3 columns: 0b101 and 0b010
    /// let m = BitMatrix::from_row_words(vec![0b101, 0b010], 2, 3);
    /// assert!(m.get(0, 0) && m.get(0, 2) && m.get(1, 1));
    /// assert!(!m.get(0, 1) && !m.get(1, 0) && !m.get(1, 2));
    /// ```
    pub fn from_row_words(mut words: Vec<u64>, nrows: usize, ncols: usize) -> Self {
        let stride = ncols.div_ceil(64);
        assert_eq!(
            words.len(),
            nrows * stride,
            "word buffer does not match nrows * words_per_row"
        );
        if ncols % 64 != 0 && stride > 0 {
            let mask = (1u64 << (ncols % 64)) - 1;
            for r in 0..nrows {
                words[r * stride + stride - 1] &= mask;
            }
        }
        BitMatrix {
            words,
            nrows,
            ncols,
            stride,
        }
    }

    /// Builds a matrix from a nested boolean slice (row major).
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_dense(data: &[Vec<bool>]) -> Self {
        BitMatrix::from_rows(
            data.iter()
                .map(|r| BitVec::from_bits(r.iter().copied()))
                .collect(),
        )
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of `u64` words per row in the arena (`ncols.div_ceil(64)`).
    pub fn words_per_row(&self) -> usize {
        self.stride
    }

    /// Returns `true` if the matrix has no rows or no columns.
    pub fn is_empty(&self) -> bool {
        self.nrows == 0 || self.ncols == 0
    }

    /// Returns the entry at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(
            row < self.nrows,
            "row index {row} out of range {}",
            self.nrows
        );
        assert!(
            col < self.ncols,
            "bit index {col} out of range {}",
            self.ncols
        );
        word_get(&self.words[row * self.stride..], col)
    }

    /// Sets the entry at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(
            row < self.nrows,
            "row index {row} out of range {}",
            self.nrows
        );
        assert!(
            col < self.ncols,
            "bit index {col} out of range {}",
            self.ncols
        );
        let word = &mut self.words[row * self.stride + col / 64];
        let mask = 1u64 << (col % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Borrows row `row` as a read-only view into the arena.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> RowRef<'_> {
        RowRef {
            words: self.row_words(row),
            len: self.ncols,
        }
    }

    /// The words of row `row`, least-significant bit first — a direct window
    /// into the arena, no copy.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_words(&self, row: usize) -> &[u64] {
        assert!(
            row < self.nrows,
            "row index {row} out of range {}",
            self.nrows
        );
        &self.words[row * self.stride..(row + 1) * self.stride]
    }

    /// Mutable words of row `row`. Callers must keep the unused high bits of
    /// the last word zero (the padding invariant all word-level consumers
    /// rely on).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_words_mut(&mut self, row: usize) -> &mut [u64] {
        assert!(
            row < self.nrows,
            "row index {row} out of range {}",
            self.nrows
        );
        &mut self.words[row * self.stride..(row + 1) * self.stride]
    }

    /// Mutable words of two *distinct* rows at once — the disjoint-pair
    /// access behind in-place row XOR and row swap.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn row_pair_mut(&mut self, a: usize, b: usize) -> (&mut [u64], &mut [u64]) {
        assert_ne!(a, b, "row_pair_mut requires two distinct rows");
        assert!(
            a < self.nrows && b < self.nrows,
            "row pair ({a}, {b}) out of range {}",
            self.nrows
        );
        let stride = self.stride;
        if a < b {
            let (lo, hi) = self.words.split_at_mut(b * stride);
            (&mut lo[a * stride..(a + 1) * stride], &mut hi[..stride])
        } else {
            let (lo, hi) = self.words.split_at_mut(a * stride);
            (&mut hi[..stride], &mut lo[b * stride..(b + 1) * stride])
        }
    }

    /// The whole arena, row-major with stride [`BitMatrix::words_per_row`].
    pub(crate) fn words_raw_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Iterates over the rows in order as [`RowRef`] views.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + '_ {
        (0..self.nrows).map(move |r| self.row(r))
    }

    /// Appends a row to the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.ncols()`.
    pub fn push_row(&mut self, row: BitVec) {
        assert_eq!(row.len(), self.ncols, "row length must equal column count");
        self.words.extend_from_slice(row.words());
        self.nrows += 1;
    }

    /// Overwrites row `row` with the bits of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `src.len() != self.ncols()`.
    pub fn set_row(&mut self, row: usize, src: &BitVec) {
        assert_eq!(src.len(), self.ncols, "row length must equal column count");
        self.row_words_mut(row).copy_from_slice(src.words());
    }

    /// Swaps two rows.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(
            a < self.nrows && b < self.nrows,
            "row pair ({a}, {b}) out of range {}",
            self.nrows
        );
        if a == b {
            return;
        }
        let (ra, rb) = self.row_pair_mut(a, b);
        ra.swap_with_slice(rb);
    }

    /// XORs row `src` into row `dst` (`dst ^= src`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `src == dst`.
    pub fn xor_row_into(&mut self, src: usize, dst: usize) {
        assert_ne!(src, dst, "cannot XOR a row into itself");
        let (s, d) = self.row_pair_mut(src, dst);
        xor_words(d, s);
    }

    /// Builds an `n × 1` matrix from a vector, one bit per row.
    ///
    /// Useful as the right operand of [`BitMatrix::hstack`] when augmenting
    /// a system matrix with a right-hand side.
    pub fn column_vector(v: &BitVec) -> BitMatrix {
        let mut m = BitMatrix::zero(v.len(), 1);
        for i in 0..v.len() {
            if v.get(i) {
                m.words[i] = 1;
            }
        }
        m
    }

    /// Horizontally concatenates two matrices with the same row count:
    /// `[self | right]`.
    ///
    /// Rows are assembled with word-level copies straight into the result
    /// arena (a shifted-OR merge), not bit-by-bit.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use bosphorus_gf2::BitMatrix;
    /// let a = BitMatrix::identity(2);
    /// let b = BitMatrix::from_dense(&[vec![true], vec![false]]);
    /// let ab = a.hstack(&b);
    /// assert_eq!(ab.ncols(), 3);
    /// assert!(ab.get(0, 0) && ab.get(0, 2) && ab.get(1, 1) && !ab.get(1, 2));
    /// ```
    pub fn hstack(&self, right: &BitMatrix) -> BitMatrix {
        assert_eq!(
            self.nrows, right.nrows,
            "hstack operands must have the same row count"
        );
        let cols = self.ncols + right.ncols;
        let mut out = BitMatrix::zero(self.nrows, cols);
        let shift = self.ncols % 64;
        let w0 = self.ncols / 64;
        for r in 0..self.nrows {
            let dst_start = r * out.stride;
            out.words[dst_start..dst_start + self.stride].copy_from_slice(self.row_words(r));
            let src = right.row_words(r);
            if shift == 0 {
                out.words[dst_start + w0..dst_start + w0 + right.stride].copy_from_slice(src);
            } else {
                for (si, &sw) in src.iter().enumerate() {
                    // The left row's padding bits are zero, so a plain OR
                    // splices the shifted right row in.
                    out.words[dst_start + w0 + si] |= sw << shift;
                    let spill = sw >> (64 - shift);
                    if spill != 0 {
                        out.words[dst_start + w0 + si + 1] |= spill;
                    }
                }
            }
        }
        out
    }

    /// Multiplies the matrix by a column vector.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.ncols()`.
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.ncols, "vector length must equal column count");
        BitVec::from_bits((0..self.nrows).map(|r| {
            self.row_words(r)
                .iter()
                .zip(v.words())
                .fold(0u32, |acc, (a, b)| acc ^ (a & b).count_ones())
                & 1
                == 1
        }))
    }

    /// Returns the transpose of the matrix.
    ///
    /// Runs at word level: the matrix is processed as 64×64 bit tiles, each
    /// transposed in registers with the recursive block-swap of Hacker's
    /// Delight (§7-3), so the cost is `O(rows · cols / 64)` word operations
    /// instead of one scatter per set bit.
    pub fn transpose(&self) -> BitMatrix {
        let nrows = self.nrows;
        let ncols = self.ncols;
        let mut t = BitMatrix::zero(ncols, nrows);
        let mut tile = [0u64; 64];
        for row_band in 0..nrows.div_ceil(64) {
            let r0 = row_band * 64;
            let rows_here = (nrows - r0).min(64);
            for word in 0..self.stride {
                for (i, slot) in tile.iter_mut().enumerate() {
                    *slot = if i < rows_here {
                        self.words[(r0 + i) * self.stride + word]
                    } else {
                        0
                    };
                }
                transpose_64x64(&mut tile);
                let cols_here = (ncols - word * 64).min(64);
                for (j, &bits) in tile.iter().enumerate().take(cols_here) {
                    if bits != 0 {
                        t.words[(word * 64 + j) * t.stride + row_band] = bits;
                    }
                }
            }
        }
        t
    }

    /// Matrix product over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `self.ncols() != other.nrows()`.
    pub fn mul(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(
            self.ncols,
            other.nrows(),
            "inner dimensions must agree in matrix product"
        );
        let mut out = BitMatrix::zero(self.nrows, other.ncols());
        for i in 0..self.nrows {
            for k in self.row(i).iter_ones() {
                xor_words(out.row_words_mut(i), other.row_words(k));
            }
        }
        out
    }

    /// Removes and returns rows that are entirely zero, keeping the rest in
    /// their original order. Kept rows are compacted toward the front of the
    /// arena with word-level moves.
    pub fn drop_zero_rows(&mut self) -> usize {
        let stride = self.stride;
        let mut kept = 0usize;
        for r in 0..self.nrows {
            let start = r * stride;
            let is_zero = self.words[start..start + stride].iter().all(|&w| w == 0);
            if !is_zero {
                if kept != r {
                    self.words.copy_within(start..start + stride, kept * stride);
                }
                kept += 1;
            }
        }
        let dropped = self.nrows - kept;
        self.nrows = kept;
        self.words.truncate(kept * stride);
        dropped
    }

    /// Consumes the matrix and returns its rows as owned vectors.
    pub fn into_rows(self) -> Vec<BitVec> {
        (0..self.nrows)
            .map(|r| {
                BitVec::from_words(
                    self.words[r * self.stride..(r + 1) * self.stride].to_vec(),
                    self.ncols,
                )
            })
            .collect()
    }
}

/// Transposes a 64×64 bit tile in place: bit `c` of `tile[r]` moves to bit
/// `r` of `tile[c]` (bit `i` = column `i`, least-significant first).
///
/// The recursive block swap of Hacker's Delight §7-3, with the shifts
/// arranged for LSB-first column order: at each level the top-right and
/// bottom-left `j × j` quadrants swap, for `j` = 32, 16, …, 1.
fn transpose_64x64(tile: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((tile[k] >> j) ^ tile[k + j]) & mask;
            tile[k] ^= t << j;
            tile[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{} [", self.nrows, self.ncols)?;
        for row in self.iter() {
            writeln!(f, "  {row}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, row) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_properties() {
        let id = BitMatrix::identity(5);
        assert_eq!(id.nrows(), 5);
        assert_eq!(id.ncols(), 5);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(id.get(i, j), i == j);
            }
        }
    }

    #[test]
    fn from_dense_roundtrip() {
        let m = BitMatrix::from_dense(&[vec![true, false, true], vec![false, true, true]]);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert!(m.get(0, 0) && m.get(0, 2) && m.get(1, 1) && m.get(1, 2));
        assert!(!m.get(0, 1) && !m.get(1, 0));
    }

    #[test]
    fn xor_row_into_both_directions() {
        let mut m = BitMatrix::from_dense(&[vec![true, false], vec![true, true]]);
        m.xor_row_into(0, 1);
        assert_eq!(m.row(1).to_string(), "01");
        m.xor_row_into(1, 0);
        assert_eq!(m.row(0).to_string(), "11");
    }

    #[test]
    fn mul_vec_matches_manual() {
        let m = BitMatrix::from_dense(&[
            vec![true, true, false],
            vec![false, true, true],
            vec![true, false, true],
        ]);
        let v = BitVec::from_bits([true, true, true]);
        let out = m.mul_vec(&v);
        // each row has exactly two ones -> parity 0
        assert_eq!(out.to_string(), "000");
    }

    #[test]
    fn transpose_involution() {
        let m = BitMatrix::from_dense(&[
            vec![true, false, true, true],
            vec![false, true, false, false],
        ]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().nrows(), 4);
    }

    #[test]
    fn transpose_across_row_and_column_bands() {
        // 150 rows x 130 cols: three 64-row bands and three column bands,
        // deterministically covering the multi-band write path that
        // paper-scale RREFs take.
        let mut m = BitMatrix::zero(150, 130);
        for r in 0..150 {
            for c in 0..130 {
                if (r * 31 + c * 17 + r * c) % 7 == 0 {
                    m.set(r, c, true);
                }
            }
        }
        let t = m.transpose();
        assert_eq!((t.nrows(), t.ncols()), (130, 150));
        for r in 0..150 {
            for c in 0..130 {
                assert_eq!(t.get(c, r), m.get(r, c), "({r}, {c})");
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matrix_product_with_identity() {
        let m = BitMatrix::from_dense(&[vec![true, false, true], vec![false, true, true]]);
        let id = BitMatrix::identity(3);
        assert_eq!(m.mul(&id), m);
    }

    #[test]
    fn drop_zero_rows_counts() {
        let mut m = BitMatrix::zero(3, 4);
        m.set(1, 2, true);
        assert_eq!(m.drop_zero_rows(), 2);
        assert_eq!(m.nrows(), 1);
        assert!(m.get(0, 2));
    }

    #[test]
    fn drop_zero_rows_compacts_the_arena_in_order() {
        let mut m = BitMatrix::zero(6, 130);
        m.set(1, 0, true);
        m.set(3, 64, true);
        m.set(3, 129, true);
        m.set(5, 129, true);
        assert_eq!(m.drop_zero_rows(), 3);
        assert_eq!(m.nrows(), 3);
        assert!(m.get(0, 0));
        assert!(m.get(1, 64) && m.get(1, 129));
        assert!(m.get(2, 129));
        assert_eq!(m.words.len(), 3 * m.words_per_row());
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn push_row_wrong_length_panics() {
        let mut m = BitMatrix::zero(1, 4);
        m.push_row(BitVec::zero(3));
    }

    #[test]
    fn hstack_concatenates_across_word_boundaries() {
        for &left_cols in &[5usize, 63, 64, 65, 127] {
            let mut a = BitMatrix::zero(3, left_cols);
            let mut b = BitMatrix::zero(3, 70);
            for r in 0..3 {
                for c in (r..left_cols).step_by(3) {
                    a.set(r, c, true);
                }
                for c in (r..70).step_by(5) {
                    b.set(r, c, true);
                }
            }
            let ab = a.hstack(&b);
            assert_eq!(ab.ncols(), left_cols + 70);
            for r in 0..3 {
                for c in 0..left_cols {
                    assert_eq!(ab.get(r, c), a.get(r, c), "left {left_cols} ({r},{c})");
                }
                for c in 0..70 {
                    assert_eq!(ab.get(r, left_cols + c), b.get(r, c), "right ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn column_vector_roundtrip() {
        let v = BitVec::from_bits([true, false, true, true]);
        let m = BitMatrix::column_vector(&v);
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 1);
        for i in 0..4 {
            assert_eq!(m.get(i, 0), v.get(i));
        }
    }

    #[test]
    #[should_panic(expected = "same row count")]
    fn hstack_rejects_mismatched_rows() {
        let _ = BitMatrix::zero(2, 3).hstack(&BitMatrix::zero(3, 3));
    }

    #[test]
    fn mul_associativity_small() {
        let a = BitMatrix::from_dense(&[vec![true, true], vec![false, true]]);
        let b = BitMatrix::from_dense(&[vec![true, false], vec![true, true]]);
        let c = BitMatrix::from_dense(&[vec![false, true], vec![true, false]]);
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn from_rows_into_rows_roundtrip_at_word_boundaries() {
        for &cols in &[1usize, 63, 64, 65, 129] {
            let rows: Vec<BitVec> = (0..5)
                .map(|r| BitVec::from_bits((0..cols).map(|c| (r * 7 + c) % 3 == 0)))
                .collect();
            let m = BitMatrix::from_rows(rows.clone());
            assert_eq!(m.nrows(), 5);
            assert_eq!(m.ncols(), cols);
            assert_eq!(m.words_per_row(), cols.div_ceil(64));
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(m.row(r), row, "cols {cols} row {r}");
            }
            assert_eq!(m.into_rows(), rows, "cols {cols}");
        }
    }

    #[test]
    fn from_row_words_masks_row_padding() {
        // All-ones words: the padding bits above column 65 must be cleared
        // so word-level consumers see a clean arena.
        let m = BitMatrix::from_row_words(vec![!0u64; 4], 2, 65);
        assert_eq!(m.words_per_row(), 2);
        for r in 0..2 {
            assert_eq!(m.row_words(r), &[!0u64, 1u64], "row {r}");
            assert_eq!(m.row(r).count_ones(), 65);
        }
    }

    #[test]
    fn row_pair_mut_is_disjoint_in_both_orders() {
        let mut m = BitMatrix::zero(3, 70);
        m.set(0, 69, true);
        m.set(2, 1, true);
        {
            let (a, b) = m.row_pair_mut(0, 2);
            assert_eq!(a[1], 1u64 << 5);
            assert_eq!(b[0], 2);
            std::mem::swap(&mut a[0], &mut b[0]);
        }
        assert!(m.get(0, 1) && m.get(0, 69) && !m.get(2, 1));
        let (hi, lo) = m.row_pair_mut(2, 0);
        assert_eq!(lo[1], 1u64 << 5);
        hi[0] = 0b100;
        assert!(m.get(2, 2));
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn row_pair_mut_rejects_identical_rows() {
        let mut m = BitMatrix::zero(2, 4);
        let _ = m.row_pair_mut(1, 1);
    }

    #[test]
    fn set_row_and_swap_rows_preserve_other_rows() {
        let mut m = BitMatrix::zero(3, 130);
        m.set(0, 129, true);
        m.set(2, 0, true);
        let mid = BitVec::from_bits((0..130).map(|c| c % 64 == 0));
        m.set_row(1, &mid);
        assert_eq!(m.row(1), &mid);
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &mid);
        assert!(m.get(1, 129) && m.get(2, 0));
        m.swap_rows(2, 2);
        assert!(m.get(2, 0));
    }

    #[test]
    fn row_views_equal_their_owned_copies() {
        let m = BitMatrix::from_dense(&[vec![true, false, true], vec![false, true, true]]);
        let owned = m.row(0).to_bitvec();
        assert_eq!(m.row(0), owned);
        assert_eq!(owned, m.row(0));
        assert_ne!(m.row(1), owned);
        assert_eq!(format!("{:?}", m.row(1)), "RowRef[011]");
    }
}
