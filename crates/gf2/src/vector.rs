//! GF(2) row vectors: the borrowed row view [`RowRef`] and the word-level
//! primitives the elimination kernels share — XORs over packed `u64` rows,
//! bit reads and set-bit scans.

use std::fmt;

/// XORs `src` into `dst` word by word (`dst[i] ^= src[i]`) over the common
/// prefix of the two slices.
///
/// Trimming both slices to the common length up front removes every bounds
/// check from the loop body, which lets the compiler unroll it four-plus
/// `u64`s at a time into full-width SIMD XORs — measured faster than manual
/// `chunks_exact(4)` unrolling, which caps the vector width the optimiser
/// will use. No architecture-specific intrinsics, per the offline-build
/// constraint. This is the innermost loop of every elimination kernel.
pub(crate) fn xor_words(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    let dst = &mut dst[..n];
    let src = &src[..n];
    for i in 0..n {
        dst[i] ^= src[i];
    }
}

/// Writes `a ^ b` into `dst` word by word (`dst[i] = a[i] ^ b[i]`) over the
/// common prefix of the three slices: a copy and an XOR in one pass, for
/// the Gray-code tables, whose every entry is its predecessor XOR one pivot
/// row. Same codegen strategy as [`xor_words`].
pub(crate) fn xor_into_words(dst: &mut [u64], a: &[u64], b: &[u64]) {
    let n = dst.len().min(a.len()).min(b.len());
    let dst = &mut dst[..n];
    let a = &a[..n];
    let b = &b[..n];
    for i in 0..n {
        dst[i] = a[i] ^ b[i];
    }
}

/// XORs two sources into `dst` in one pass (`dst[i] ^= a[i] ^ b[i]`) over the
/// common prefix of the three slices.
///
/// The blocked elimination kernel applies two Gray-code table entries per row
/// with this, halving the loads and stores on `dst` compared to two separate
/// [`xor_words`] passes — the point of processing pivot blocks in pairs.
/// Same codegen strategy as [`xor_words`]: slice-trim, then a plain indexed
/// loop the compiler autovectorises.
pub(crate) fn xor2_words(dst: &mut [u64], a: &[u64], b: &[u64]) {
    let n = dst.len().min(a.len()).min(b.len());
    let dst = &mut dst[..n];
    let a = &a[..n];
    let b = &b[..n];
    for i in 0..n {
        dst[i] ^= a[i] ^ b[i];
    }
}

/// XORs three sources into `dst` in one pass
/// (`dst[i] ^= a[i] ^ b[i] ^ c[i]`) over the common prefix of the slices.
///
/// The three-table blocked kernel fuses all three Gray-code table entries of
/// a sweep into a single pass over each row tile — one load/store on `dst`
/// where three separate [`xor_words`] passes would take three. Same codegen
/// strategy as [`xor_words`]: slice-trim, then a plain indexed loop the
/// compiler autovectorises.
pub(crate) fn xor3_words(dst: &mut [u64], a: &[u64], b: &[u64], c: &[u64]) {
    let n = dst.len().min(a.len()).min(b.len()).min(c.len());
    let dst = &mut dst[..n];
    let a = &a[..n];
    let b = &b[..n];
    let c = &c[..n];
    for i in 0..n {
        dst[i] ^= a[i] ^ b[i] ^ c[i];
    }
}

/// Reads bit `index` of a packed word slice (LSB first: bit `i` is bit
/// `i % 64` of word `i / 64`).
pub(crate) fn word_get(words: &[u64], index: usize) -> bool {
    (words[index / 64] >> (index % 64)) & 1 == 1
}

/// Index of the first set bit inside `start..end` of a packed word slice.
///
/// Word-parallel: whole zero words are skipped and the first non-zero
/// (masked) word is resolved with a single `trailing_zeros`. Callers
/// guarantee `start <= end` and `end` within the represented length; the
/// padding bits above the logical length must be zero.
pub(crate) fn first_one_in_range_words(words: &[u64], start: usize, end: usize) -> Option<usize> {
    if start == end {
        return None;
    }
    let first_word = start / 64;
    let last_word = (end - 1) / 64;
    for (wi, &word) in words
        .iter()
        .enumerate()
        .take(last_word + 1)
        .skip(first_word)
    {
        let mut w = word;
        if wi == first_word {
            w &= !0u64 << (start % 64);
        }
        if wi == last_word {
            let used = end - wi * 64;
            if used < 64 {
                w &= (1u64 << used) - 1;
            }
        }
        if w != 0 {
            return Some(wi * 64 + w.trailing_zeros() as usize);
        }
    }
    None
}

/// Iterates the indices of set bits of a packed word slice in ascending
/// order.
pub(crate) fn iter_ones_words(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

/// A borrowed, read-only view of one matrix row: a `&[u64]` window into the
/// arena plus the logical bit length.
///
/// Bit `i` of the row is bit `i % 64` of word `i / 64`; the unused high bits
/// of the last word are zero.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct RowRef<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> RowRef<'a> {
    /// A view of the `len` bits packed in `words`.
    pub(crate) fn new(words: &'a [u64], len: usize) -> Self {
        RowRef { words, len }
    }

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
    #[cfg(test)]
    pub(crate) fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no bit is set.
    #[cfg(test)]
    pub(crate) fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Index of the first set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        first_one_in_range_words(self.words, 0, self.len)
    }

    /// Index of the first set bit inside `start..end`, if any. Whole zero
    /// words are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    #[cfg(test)]
    pub(crate) fn first_one_in_range(&self, start: usize, end: usize) -> Option<usize> {
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
    #[cfg(test)]
    pub(crate) fn words(&self) -> &'a [u64] {
        self.words
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A row view of the `len` bits `bit(i)`.
    fn with_row<T>(len: usize, bit: impl Fn(usize) -> bool, f: impl Fn(RowRef<'_>) -> T) -> T {
        let mut words = vec![0u64; len.div_ceil(64)];
        for i in (0..len).filter(|&i| bit(i)) {
            words[i / 64] |= 1 << (i % 64);
        }
        f(RowRef::new(&words, len))
    }

    #[test]
    fn zero_vector_has_no_ones() {
        with_row(
            130,
            |_| false,
            |v| {
                assert_eq!(v.len(), 130);
                assert_eq!(v.count_ones(), 0);
                assert!(v.is_zero());
                assert_eq!(v.first_one(), None);
                assert_eq!(v.iter_ones().next(), None);
            },
        );
    }

    #[test]
    fn iter_ones_is_sorted_and_complete() {
        let idx = [0usize, 1, 63, 64, 65, 127, 128, 199];
        let mut words = vec![0u64; 4];
        for &i in &idx {
            words[i / 64] |= 1 << (i % 64);
        }
        let got: Vec<usize> = iter_ones_words(&words).collect();
        assert_eq!(got, idx);
        assert_eq!(first_one_in_range_words(&words, 0, 200), Some(0));
    }

    #[test]
    fn xor_is_involution() {
        let a: Vec<u64> = (0..7u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let b: Vec<u64> = (0..7u64).map(|i| !i.rotate_left(13)).collect();
        let mut c = a.clone();
        xor_words(&mut c, &b);
        assert_ne!(c, a);
        xor_words(&mut c, &b);
        assert_eq!(c, a);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        with_row(3, |_| true, |v| v.get(3));
    }

    #[test]
    fn display_and_debug() {
        with_row(
            3,
            |i| i != 1,
            |v| {
                assert_eq!(v.to_string(), "101");
                assert_eq!(format!("{v:?}"), "RowRef[101]");
            },
        );
    }

    #[test]
    fn first_one_in_range_word_boundaries() {
        let mut words = vec![0u64; 4];
        for &i in &[0usize, 63, 64, 65, 127, 128, 199] {
            words[i / 64] |= 1 << (i % 64);
        }
        let first = |start, end| first_one_in_range_words(&words, start, end);
        assert_eq!(first(0, 200), Some(0));
        assert_eq!(first(1, 200), Some(63));
        assert_eq!(first(64, 200), Some(64));
        assert_eq!(first(65, 127), Some(65));
        assert_eq!(first(66, 127), None);
        assert_eq!(first(129, 200), Some(199));
        assert_eq!(first(129, 199), None);
        assert_eq!(first(63, 64), Some(63));
        assert_eq!(first(5, 5), None);
    }

    #[test]
    fn first_one_in_range_matches_naive_scan() {
        with_row(
            150,
            |i| i % 7 == 3,
            |v| {
                for start in 0..150 {
                    for end in start..=150 {
                        let naive = (start..end).find(|&i| v.get(i));
                        assert_eq!(v.first_one_in_range(start, end), naive, "{start}..{end}");
                        assert_eq!(first_one_in_range_words(v.words(), start, end), naive);
                    }
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn first_one_in_range_rejects_bad_range() {
        with_row(10, |_| false, |v| v.first_one_in_range(0, 11));
    }

    #[test]
    fn xor_words_matches_scalar_at_all_remainders() {
        // Lengths 0..9 cover every unroll remainder (0..=3) on both sides of
        // the 4-word chunk boundary.
        for len in 0..9usize {
            let a: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
            let b: Vec<u64> = (0..len as u64).map(|i| !i ^ 0xABCD).collect();
            let c: Vec<u64> = (0..len as u64).map(|i| i.rotate_left(7)).collect();
            let mut one_pass = a.clone();
            xor_words(&mut one_pass, &b);
            let expected: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            assert_eq!(one_pass, expected, "xor_words len {len}");
            let mut two_src = a.clone();
            xor2_words(&mut two_src, &b, &c);
            let expected2: Vec<u64> = expected.iter().zip(&c).map(|(x, y)| x ^ y).collect();
            assert_eq!(two_src, expected2, "xor2_words len {len}");
            let d: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x5851_F42D))
                .collect();
            let mut three_src = a.clone();
            xor3_words(&mut three_src, &b, &c, &d);
            let expected3: Vec<u64> = expected2.iter().zip(&d).map(|(x, y)| x ^ y).collect();
            assert_eq!(three_src, expected3, "xor3_words len {len}");
            let mut into = d.clone();
            xor_into_words(&mut into, &a, &b);
            assert_eq!(into, expected, "xor_into_words len {len}");
        }
    }

    #[test]
    fn words_exposes_zero_padded_storage() {
        with_row(
            70,
            |i| i == 69,
            |v| {
                assert_eq!(v.words().len(), 2);
                assert_eq!(v.words()[1], 1u64 << 5);
            },
        );
    }
}
