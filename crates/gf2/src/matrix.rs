//! Bit-packed dense GF(2) matrices on a contiguous word arena.

use std::fmt;

use crate::vector::{word_get, xor_words, RowRef};

/// A dense matrix over GF(2) with rows packed 64 columns per `u64` word.
///
/// Storage is a single contiguous `Vec<u64>` arena with a fixed per-row word
/// stride (`ncols.div_ceil(64)`), so row `r` occupies
/// `words[r * stride .. (r + 1) * stride]`. Rows are never separate
/// allocations: the elimination kernels work in place on the arena through
/// word-level row views (read-only ones are public as
/// [`BitMatrix::row_words`]) and, for the blocked kernel's row-update pass,
/// one streaming walk over the whole arena, without flattening or read-back
/// copies.
///
/// The matrix supports the elementary row operations needed by Gauss–Jordan
/// elimination (row swap, row XOR) as word-parallel operations, which is what
/// makes linearisation-based reasoning (XL, ElimLin) practical on systems with
/// tens of thousands of monomial columns.
///
/// Every row keeps the unused high bits of its last word zero, so
/// word-level consumers can operate on whole words without masking.
///
/// # Examples
///
/// ```
/// use bosphorus_gf2::BitMatrix;
///
/// let mut m = BitMatrix::zero(4, 70);
/// m.set(2, 69, true);
/// assert!(m.get(2, 69));
/// assert!(!m.get(2, 68));
/// assert_eq!(m.row(2).iter_ones().collect::<Vec<_>>(), [69]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    words: Vec<u64>,
    nrows: usize,
    ncols: usize,
    stride: usize,
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
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = BitMatrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
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
    pub(crate) fn from_row_words(mut words: Vec<u64>, nrows: usize, ncols: usize) -> Self {
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
    #[cfg(test)]
    pub(crate) fn from_dense(data: &[Vec<bool>]) -> Self {
        let ncols = data.first().map_or(0, Vec::len);
        let mut m = BitMatrix::zero(data.len(), ncols);
        for (r, row) in data.iter().enumerate() {
            assert_eq!(row.len(), ncols, "all rows must have the same length");
            for (c, &bit) in row.iter().enumerate() {
                m.set(r, c, bit);
            }
        }
        m
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
    pub(crate) fn words_per_row(&self) -> usize {
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
        RowRef::new(self.row_words(row), self.ncols)
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
    #[cfg(test)]
    pub(crate) fn row_words_mut(&mut self, row: usize) -> &mut [u64] {
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
    pub(crate) fn row_pair_mut(&mut self, a: usize, b: usize) -> (&mut [u64], &mut [u64]) {
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

    /// Swaps two rows.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub(crate) fn swap_rows(&mut self, a: usize, b: usize) {
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
    pub(crate) fn xor_row_into(&mut self, src: usize, dst: usize) {
        assert_ne!(src, dst, "cannot XOR a row into itself");
        let (s, d) = self.row_pair_mut(src, dst);
        xor_words(d, s);
    }

    /// Consumes the matrix and returns its row-major word arena — the
    /// inverse of [`BitMatrix::from_row_words`], so a caller eliminating
    /// many matrices can recycle one buffer.
    pub(crate) fn into_row_words(self) -> Vec<u64> {
        self.words
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
        let mid = [1u64, 1, 1];
        m.row_words_mut(1).copy_from_slice(&mid);
        assert_eq!(m.row(1).iter_ones().collect::<Vec<_>>(), [0, 64, 128]);
        m.swap_rows(0, 1);
        assert_eq!(m.row_words(0), mid);
        assert!(m.get(1, 129) && m.get(2, 0));
        m.swap_rows(2, 2);
        assert!(m.get(2, 0));
    }

    #[test]
    fn row_views_equal_their_owned_copies() {
        let m = BitMatrix::from_dense(&[vec![true, false, true], vec![false, true, true]]);
        let owned = m.clone();
        assert_eq!(m.row(0), owned.row(0));
        assert_ne!(m.row(1), owned.row(0));
        assert_eq!(format!("{:?}", m.row(1)), "RowRef[011]");
    }
}
