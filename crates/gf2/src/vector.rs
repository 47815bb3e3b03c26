//! Bit-packed GF(2) vectors and the word-level XOR primitives shared by the
//! elimination kernels.

use std::fmt;
use std::ops::{BitXor, BitXorAssign};

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

/// Reads bit `index` of a packed word slice (LSB-first layout shared by
/// [`BitVec`] and matrix row views).
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
/// order. Shared by [`BitVec::iter_ones`] and the matrix row views.
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

/// A fixed-length vector over GF(2), packed 64 bits per word.
///
/// `BitVec` is used both as a matrix row view (owned) and as a standalone
/// vector for right-hand sides, solutions and kernel basis elements.
///
/// # Examples
///
/// ```
/// use bosphorus_gf2::BitVec;
///
/// let mut v = BitVec::zero(10);
/// v.set(3, true);
/// v.set(7, true);
/// assert_eq!(v.count_ones(), 2);
/// assert!(v.get(3));
/// assert!(!v.get(4));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zero(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a vector of `len` bits directly from its backing words (bit
    /// `i` of the vector is bit `i % 64` of word `i / 64`), taking ownership
    /// of the buffer. The word-level construction path used by builders that
    /// assemble whole rows at once (e.g. linearisation).
    ///
    /// Unused high bits of the last word are cleared, preserving the
    /// invariant [`BitVec::words`] documents.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match `len.div_ceil(64)`.
    ///
    /// ```
    /// use bosphorus_gf2::BitVec;
    /// let v = BitVec::from_words(vec![0b101], 3);
    /// assert!(v.get(0) && !v.get(1) && v.get(2));
    /// ```
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "word buffer does not match the bit length"
        );
        if len % 64 != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        BitVec { words, len }
    }

    /// Creates a vector from an iterator of booleans.
    ///
    /// ```
    /// use bosphorus_gf2::BitVec;
    /// let v = BitVec::from_bits([true, false, true]);
    /// assert_eq!(v.len(), 3);
    /// assert!(v.get(0) && !v.get(1) && v.get(2));
    /// ```
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut v = BitVec::zero(bits.len());
        for (i, b) in bits.into_iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector has zero length.
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
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets the bit at `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % 64);
        if value {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Flips the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn flip(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] ^= 1u64 << (index % 64);
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
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Index of the first set bit inside `start..end`, if any.
    ///
    /// The scan is word-parallel: whole zero words are skipped and the first
    /// non-zero (masked) word is resolved with a single `trailing_zeros`.
    /// This is the pivot-search primitive of the elimination kernels — column
    /// scans stop touching every bit individually.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    ///
    /// ```
    /// use bosphorus_gf2::BitVec;
    /// let mut v = BitVec::zero(200);
    /// v.set(3, true);
    /// v.set(130, true);
    /// assert_eq!(v.first_one_in_range(0, 200), Some(3));
    /// assert_eq!(v.first_one_in_range(4, 200), Some(130));
    /// assert_eq!(v.first_one_in_range(4, 130), None);
    /// ```
    pub fn first_one_in_range(&self, start: usize, end: usize) -> Option<usize> {
        assert!(
            start <= end && end <= self.len,
            "bit range {start}..{end} out of range {}",
            self.len
        );
        first_one_in_range_words(&self.words, start, end)
    }

    /// Copies every bit of `src` into `self` starting at bit `offset`
    /// (a word-parallel `copy_from_slice` with shift — the row-assembly
    /// primitive behind [`BitMatrix::hstack`](crate::BitMatrix::hstack)).
    ///
    /// Bits of `self` outside `offset..offset + src.len()` are preserved.
    ///
    /// # Panics
    ///
    /// Panics if `offset + src.len() > self.len()`.
    pub fn copy_bits_from(&mut self, src: &BitVec, offset: usize) {
        assert!(
            offset + src.len() <= self.len,
            "copy_bits_from: range {}..{} exceeds destination length {}",
            offset,
            offset + src.len(),
            self.len
        );
        if src.is_empty() {
            return;
        }
        let shift = offset % 64;
        let n = src.len();
        let dst_word0 = offset / 64;
        for (si, &raw) in src.words.iter().enumerate() {
            let wi = dst_word0 + si;
            let bits = (n - si * 64).min(64);
            let mask = if bits == 64 {
                !0u64
            } else {
                (1u64 << bits) - 1
            };
            let sw = raw & mask;
            self.words[wi] = (self.words[wi] & !(mask << shift)) | (sw << shift);
            if shift != 0 {
                // High bits of the source word that did not fit spill into
                // the next destination word.
                let spill_mask = mask >> (64 - shift);
                if spill_mask != 0 {
                    self.words[wi + 1] = (self.words[wi + 1] & !spill_mask) | (sw >> (64 - shift));
                }
            }
        }
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        iter_ones_words(&self.words)
    }

    /// XORs `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch in BitVec XOR");
        xor_words(&mut self.words, &other.words);
    }

    /// Dot product over GF(2) (parity of the AND of the two vectors).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "length mismatch in BitVec dot");
        self.words
            .iter()
            .zip(&other.words)
            .fold(0u32, |acc, (a, b)| acc ^ (a & b).count_ones())
            & 1
            == 1
    }

    /// The backing `u64` words, least-significant bit first: bit `i` of the
    /// vector is bit `i % 64` of word `i / 64`.
    ///
    /// The unused high bits of the last word are always zero, so word-level
    /// consumers (the elimination kernels, benchmark harnesses) can operate
    /// on whole words without masking.
    ///
    /// ```
    /// use bosphorus_gf2::BitVec;
    /// let mut v = BitVec::zero(65);
    /// v.set(64, true);
    /// assert_eq!(v.words(), &[0, 1]);
    /// ```
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl BitXorAssign<&BitVec> for BitVec {
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        self.xor_assign(rhs);
    }
}

impl BitXor<&BitVec> for &BitVec {
    type Output = BitVec;

    fn bitxor(self, rhs: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_assign(rhs);
        out
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_vector_has_no_ones() {
        let v = BitVec::zero(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        assert!(v.is_zero());
        assert_eq!(v.first_one(), None);
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut v = BitVec::zero(70);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(69, true);
        assert!(v.get(0) && v.get(63) && v.get(64) && v.get(69));
        assert_eq!(v.count_ones(), 4);
        v.flip(64);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 3);
        v.set(0, false);
        assert!(!v.get(0));
    }

    #[test]
    fn iter_ones_is_sorted_and_complete() {
        let mut v = BitVec::zero(200);
        let idx = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &i in &idx {
            v.set(i, true);
        }
        let got: Vec<usize> = v.iter_ones().collect();
        assert_eq!(got, idx);
        assert_eq!(v.first_one(), Some(0));
    }

    #[test]
    fn xor_is_involution() {
        let a = BitVec::from_bits((0..100).map(|i| i % 3 == 0));
        let b = BitVec::from_bits((0..100).map(|i| i % 5 == 0));
        let mut c = a.clone();
        c.xor_assign(&b);
        c.xor_assign(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn dot_product_parity() {
        let a = BitVec::from_bits([true, true, false, true]);
        let b = BitVec::from_bits([true, false, true, true]);
        // overlap at indices 0 and 3 -> even parity
        assert!(!a.dot(&b));
        let c = BitVec::from_bits([true, false, false, false]);
        assert!(a.dot(&c));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let v = BitVec::zero(3);
        let _ = v.get(3);
    }

    #[test]
    fn bitxor_operator() {
        let a = BitVec::from_bits([true, false, true]);
        let b = BitVec::from_bits([true, true, false]);
        let c = &a ^ &b;
        assert_eq!(c, BitVec::from_bits([false, true, true]));
    }

    #[test]
    fn display_and_debug() {
        let v = BitVec::from_bits([true, false, true]);
        assert_eq!(v.to_string(), "101");
        assert_eq!(format!("{v:?}"), "BitVec[101]");
    }

    #[test]
    fn from_iterator_collect() {
        let v: BitVec = (0..5).map(|i| i % 2 == 0).collect();
        assert_eq!(v.to_string(), "10101");
    }

    #[test]
    fn first_one_in_range_word_boundaries() {
        let mut v = BitVec::zero(200);
        for &i in &[0usize, 63, 64, 65, 127, 128, 199] {
            v.set(i, true);
        }
        assert_eq!(v.first_one_in_range(0, 200), Some(0));
        assert_eq!(v.first_one_in_range(1, 200), Some(63));
        assert_eq!(v.first_one_in_range(64, 200), Some(64));
        assert_eq!(v.first_one_in_range(65, 127), Some(65));
        assert_eq!(v.first_one_in_range(66, 127), None);
        assert_eq!(v.first_one_in_range(129, 200), Some(199));
        assert_eq!(v.first_one_in_range(129, 199), None);
        assert_eq!(v.first_one_in_range(63, 64), Some(63));
        assert_eq!(v.first_one_in_range(5, 5), None);
    }

    #[test]
    fn first_one_in_range_matches_naive_scan() {
        let v = BitVec::from_bits((0..150).map(|i| i % 7 == 3));
        for start in 0..150 {
            for end in start..=150 {
                let naive = (start..end).find(|&i| v.get(i));
                assert_eq!(v.first_one_in_range(start, end), naive, "{start}..{end}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn first_one_in_range_rejects_bad_range() {
        let v = BitVec::zero(10);
        let _ = v.first_one_in_range(0, 11);
    }

    #[test]
    fn copy_bits_from_at_offsets() {
        let src = BitVec::from_bits((0..70).map(|i| i % 3 == 0));
        for offset in [0usize, 1, 5, 62, 63, 64, 65, 100] {
            let mut dst = BitVec::from_bits((0..200).map(|i| i % 2 == 0));
            let before = dst.clone();
            dst.copy_bits_from(&src, offset);
            for i in 0..200 {
                let expected = if (offset..offset + 70).contains(&i) {
                    src.get(i - offset)
                } else {
                    before.get(i)
                };
                assert_eq!(dst.get(i), expected, "offset {offset}, bit {i}");
            }
        }
    }

    #[test]
    fn copy_bits_from_empty_source_is_noop() {
        let mut dst = BitVec::from_bits([true, false, true]);
        let before = dst.clone();
        dst.copy_bits_from(&BitVec::zero(0), 2);
        assert_eq!(dst, before);
    }

    #[test]
    #[should_panic(expected = "exceeds destination")]
    fn copy_bits_from_rejects_overflow() {
        let mut dst = BitVec::zero(10);
        dst.copy_bits_from(&BitVec::zero(8), 3);
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
        let mut v = BitVec::zero(70);
        v.set(69, true);
        assert_eq!(v.words().len(), 2);
        assert_eq!(v.words()[1], 1u64 << 5);
        v.set(69, false);
        assert!(v.words().iter().all(|&w| w == 0), "padding stays zero");
    }
}
