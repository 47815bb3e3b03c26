//! Property-based tests for the GF(2) linear algebra kernels.

use proptest::prelude::*;

use bosphorus_interrupt::CancelToken;

use crate::sparse::{SparseMatrix, SparseRref};
use crate::vector::{first_one_in_range_words, xor_words};
use crate::BitMatrix;

fn arb_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = BitMatrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), c), r)
            .prop_map(move |rows| BitMatrix::from_dense(&rows))
    })
}

/// The non-zero rows of the dense-path RREF as ascending column-id lists —
/// the reference the sparse presolve path must reproduce byte for byte.
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

/// `len` bits packed LSB first, bit `i` taken from bit `i % 64` of `seed`.
fn seeded_words(len: usize, seed: u64) -> Vec<u64> {
    let mut words = vec![0u64; len.div_ceil(64)];
    for i in (0..len).filter(|&i| (seed >> (i % 64)) & 1 == 1) {
        words[i / 64] |= 1 << (i % 64);
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The rank never exceeds either dimension and GJE is idempotent.
    #[test]
    fn rank_bounded_and_gje_idempotent(m in arb_matrix(12, 20)) {
        let mut a = m.clone();
        let rank = a.gauss_jordan(&CancelToken::never()).rank;
        prop_assert!(rank <= m.nrows());
        prop_assert!(rank <= m.ncols());
        let frozen = a.clone();
        a.gauss_jordan(&CancelToken::never());
        prop_assert_eq!(a, frozen);
    }

    /// GJE preserves the row space: every original row is a GF(2) combination
    /// of the RREF pivot rows (checked by reducing it against them).
    #[test]
    fn gje_preserves_row_space(m in arb_matrix(10, 16)) {
        let (rref, _) = m.rref();
        for row in m.iter() {
            let mut residual = row.words().to_vec();
            for p in rref.iter().filter(|r| !r.is_zero()) {
                let pivot_col = p.first_one().expect("pivot row is non-zero");
                if (residual[pivot_col / 64] >> (pivot_col % 64)) & 1 == 1 {
                    xor_words(&mut residual, p.words());
                }
            }
            prop_assert!(residual.iter().all(|&w| w == 0), "row {row} not in RREF row space");
        }
    }

    /// RREF structure: each pivot column has exactly one set bit.
    #[test]
    fn rref_pivot_columns_are_unit(m in arb_matrix(10, 16)) {
        let (rref, rank) = m.rref();
        let pivots: Vec<usize> = rref.iter().filter_map(|row| row.first_one()).collect();
        prop_assert_eq!(pivots.len(), rank);
        for &p in &pivots {
            let ones = rref.iter().filter(|r| r.get(p)).count();
            prop_assert_eq!(ones, 1, "pivot column {} not unit", p);
        }
    }

    /// Blocked GJE computes the same RREF and rank as the plain algorithm.
    #[test]
    fn blocked_gje_agrees_with_plain(m in arb_matrix(12, 20), block in 1usize..10) {
        let (plain, rank) = m.rref();
        let mut blocked = m.clone();
        let blocked_rank = blocked.gauss_jordan_blocked_m4rm(block, &CancelToken::never()).rank;
        prop_assert_eq!(blocked_rank, rank);
        prop_assert_eq!(blocked, plain);
    }

    /// Blocked M4RM agreement with the schoolbook kernel at widths
    /// straddling the 64-bit word boundaries (63/64/65/127/129 columns) and
    /// on tall / wide / rank-deficient shapes built by duplicating and
    /// zeroing rows.
    #[test]
    fn m4rm_agrees_at_word_boundary_widths(
        width_idx in 0usize..5,
        rows in 1usize..40,
        seed in any::<u64>(),
        dup in any::<bool>(),
    ) {
        const WIDTHS: [usize; 5] = [63, 64, 65, 127, 129];
        let cols = WIDTHS[width_idx];
        // SplitMix64-filled matrix, deterministic in the proptest seed.
        let mut m = crate::testutil::splitmix_matrix(rows, cols, seed);
        if dup && rows >= 2 {
            // Force rank deficiency: duplicate the first row over the last.
            let (first, last) = m.row_pair_mut(0, rows - 1);
            last.copy_from_slice(first);
        }
        let mut plain = m.clone();
        let plain_stats = plain.gauss_jordan_plain(&CancelToken::never());
        let mut fast = m.clone();
        let fast_stats = fast.gauss_jordan_blocked_m4rm(8, &CancelToken::never());
        prop_assert_eq!(fast_stats.rank, plain_stats.rank);
        prop_assert_eq!(fast.rank(), plain_stats.rank);
        prop_assert_eq!(fast, plain);
    }

    /// The cache-blocked multi-table kernel produces RREF bit-identical to
    /// the schoolbook kernel on random matrices, including rank-deficient
    /// ones (duplicated rows) and wide/tall shapes, for every per-table
    /// block width.
    #[test]
    fn blocked_kernel_agrees_with_plain(
        m in arb_matrix(36, 56),
        block in 1usize..=8,
        dup in any::<bool>(),
    ) {
        let mut m = m;
        if dup && m.nrows() >= 2 {
            // Force rank deficiency: overwrite the last row with the first.
            let last = m.nrows() - 1;
            let (first, last) = m.row_pair_mut(0, last);
            last.copy_from_slice(first);
        }
        let mut reference = m.clone();
        let reference_stats = reference.gauss_jordan_plain(&CancelToken::never());
        let mut blocked = m.clone();
        let blocked_stats = blocked.gauss_jordan_blocked_m4rm(block, &CancelToken::never());
        prop_assert_eq!(blocked_stats.rank, reference_stats.rank);
        prop_assert_eq!(blocked, reference);
    }

    /// Blocked-kernel agreement at the paper-scale acceptance widths — 2048,
    /// 4096 and a non-power-of-two in between — plus 20480 columns, wide
    /// enough (320 words > the 170-word k=8 tile) to push random matrices
    /// through the column-tiled update path.
    #[test]
    fn blocked_kernel_agrees_at_paper_scale_widths(
        width_idx in 0usize..4,
        rows in 1usize..28,
        seed in any::<u64>(),
    ) {
        const WIDTHS: [usize; 4] = [2048, 3000, 4096, 20_480];
        let cols = WIDTHS[width_idx];
        let m = crate::testutil::splitmix_matrix(rows, cols, seed);
        let mut reference = m.clone();
        let reference_stats = reference.gauss_jordan_plain(&CancelToken::never());
        let mut blocked = m.clone();
        let blocked_stats = blocked.gauss_jordan_blocked_m4rm(8, &CancelToken::never());
        prop_assert_eq!(blocked_stats.rank, reference_stats.rank);
        prop_assert_eq!(blocked, reference);
    }

    /// The sparse presolve path produces **byte-identical** non-zero RREF
    /// rows, and the same rank, as the dense-only kernel — on random sparse
    /// matrices at widths straddling the 64-bit word boundaries. This is the
    /// exactness contract every learnt fact downstream rests on.
    #[test]
    fn presolve_rref_equals_dense_rref(
        rows in 1usize..48,
        width_idx in 0usize..6,
        fill in 1usize..5,
        seed in any::<u64>(),
    ) {
        const WIDTHS: [usize; 6] = [30, 63, 64, 65, 127, 129];
        let cols = WIDTHS[width_idx];
        // `fill` draws per row from a SplitMix64 stream; duplicate draws
        // cancel XOR-style inside `push_row`, so real row weights vary.
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
        let dense = m.to_dense();
        let expected = dense_nonzero_rows(&dense);
        let got = m.rref(&CancelToken::never(), |_| true);
        prop_assert!(!got.gauss.interrupted);
        prop_assert_eq!(&rows_of(&got), &expected);
        prop_assert_eq!(got.rank, expected.len());
        prop_assert_eq!(got.gauss.rank, got.rank);
        prop_assert_eq!(got.presolve.input_rows, rows);
        prop_assert_eq!(got.presolve.input_cols, cols);
        prop_assert_eq!(got.presolve.dense_rows,
            rows - got.presolve.rows_eliminated);
    }

    /// On matrices where no rule's precondition holds — distinct rows of
    /// weight ≥ 3, every column in ≥ 2 rows, no two rows column-disjoint —
    /// the presolve is a pure pass-through: nothing is eliminated or set
    /// aside and the single dense core sees every input row. Dense random
    /// matrices satisfy the preconditions essentially always; they are
    /// re-checked here so the stronger assertions never misfire on a
    /// degenerate draw.
    #[test]
    fn presolve_is_pass_through_on_dense_matrices(
        rows in 16usize..40,
        width_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        const WIDTHS: [usize; 4] = [32, 63, 64, 65];
        let cols = WIDTHS[width_idx];
        let dense = crate::testutil::splitmix_matrix(rows, cols, seed);
        let supports: Vec<Vec<u32>> = dense
            .iter()
            .map(|row| row.iter_ones().map(|c| c as u32).collect())
            .collect();
        let mut col_count = vec![0usize; cols];
        for s in &supports {
            for &c in s {
                col_count[c as usize] += 1;
            }
        }
        let weights_ok = supports.iter().all(|s| s.len() >= 3);
        let cols_ok = col_count.iter().all(|&n| n != 1);
        let mut orders_ok = true;
        for a in &supports {
            for b in &supports {
                if std::ptr::eq(a, b) {
                    continue;
                }
                let shared = a.iter().filter(|c| b.contains(c)).count();
                // No duplicate pair, no disjoint pair.
                if a == b || shared == 0 {
                    orders_ok = false;
                }
            }
        }
        let expected = dense_nonzero_rows(&dense);
        let got = sparse_from_dense(&dense).rref(&CancelToken::never(), |_| true);
        prop_assert_eq!(&rows_of(&got), &expected);
        prop_assert_eq!(got.rank, expected.len());
        if weights_ok && cols_ok && orders_ok {
            prop_assert_eq!(got.presolve.rows_eliminated, 0);
            prop_assert_eq!(got.presolve.rows_set_aside(), 0);
            prop_assert_eq!(got.presolve.components, 1);
            prop_assert_eq!(got.presolve.dense_rows, rows);
            // The compacted core keeps exactly the occupied columns.
            let unoccupied = col_count.iter().filter(|&&n| n == 0).count();
            prop_assert_eq!(got.presolve.cols_eliminated, unoccupied);
            prop_assert_eq!(got.presolve.dense_cols, cols - unoccupied);
        }
    }

    /// `first_one_in_range_words` matches a naive bit scan on arbitrary
    /// vectors and sub-ranges.
    #[test]
    fn first_one_in_range_matches_naive(bits in proptest::collection::vec(any::<bool>(), 1..200), cut in any::<u64>()) {
        let len = bits.len();
        let mut words = vec![0u64; len.div_ceil(64)];
        for i in (0..len).filter(|&i| bits[i]) {
            words[i / 64] |= 1 << (i % 64);
        }
        let start = (cut as usize) % (len + 1);
        let end = start + ((cut >> 32) as usize) % (len - start + 1);
        let naive = (start..end).find(|&i| bits[i]);
        prop_assert_eq!(first_one_in_range_words(&words, start, end), naive);
    }

    /// Word-level XOR of bit vectors is associative and has the zero
    /// vector as identity.
    #[test]
    fn bitvec_xor_group_laws(len in 1usize..100, s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>()) {
        let (a, b, c) = (seeded_words(len, s1), seeded_words(len, s2), seeded_words(len, s3));
        let xor = |x: &[u64], y: &[u64]| {
            let mut out = x.to_vec();
            xor_words(&mut out, y);
            out
        };
        prop_assert_eq!(xor(&xor(&a, &b), &c), xor(&a, &xor(&b, &c)));
        prop_assert_eq!(xor(&a, &vec![0; a.len()]), a.clone());
        prop_assert!(xor(&a, &a).iter().all(|&w| w == 0));
    }
}
