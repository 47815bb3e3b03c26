//! Linearisation: treating each monomial as an independent variable so that a
//! polynomial system becomes a GF(2) linear system.
//!
//! Both XL and ElimLin rest on this transformation: the polynomials become
//! rows of a [`BitMatrix`], Gauss–Jordan elimination is applied, and the rows
//! are mapped back to polynomials.
//!
//! The column index is a [`MonomialInterner`] — a fast-hash monomial→dense-id
//! map that stores each distinct monomial exactly once — instead of an
//! ordered map cloning every key, and matrix rows are assembled word-wise
//! from the interned ids. [`LinearizationBuilder`] exposes the construction
//! incrementally so the XL expansion can intern each product's terms straight
//! from a scratch buffer without materialising the product polynomial.
//!
//! The elimination itself goes through `gauss_jordan_with_stats`, which
//! auto-selects the kernel via `bosphorus_gf2::select_kernel`: XL-expanded
//! systems routinely reach thousands of monomial columns, the regime the
//! cache-blocked multi-table M4RM kernel is built for (see
//! `crates/gf2/src/blocked.rs` and `crates/bench/DESIGN.md`).

use std::time::{Duration, Instant};

use bosphorus_anf::{Monomial, MonomialInterner, Polynomial, TermScratch};
use bosphorus_gf2::{
    BitMatrix, GaussStats, PresolveStats, RowRef, RowShape, SparseMatrix, SparseRref,
};
use bosphorus_interrupt::CancelToken;

/// Incremental construction of a [`Linearization`].
///
/// Rows are pushed one polynomial (or one polynomial × monomial product) at
/// a time; every term is interned into the shared monomial table as it
/// arrives, so no intermediate copy of the expanded system exists.
///
/// # Examples
///
/// ```
/// use bosphorus::LinearizationBuilder;
/// use bosphorus_anf::{Monomial, Polynomial, TermScratch};
///
/// let base: Polynomial = "x1*x2 + x1 + 1".parse()?;
/// let mut builder = LinearizationBuilder::new();
/// builder.push(&base);
/// let mut scratch = TermScratch::new();
/// // (x1*x2 + x1 + 1)·x2 = x1*x2 ⊕ x1*x2 ⊕ x2 = x2: the two products
/// // cancel and a single-term row is appended.
/// let terms = builder.push_product(&base, &Monomial::variable(2), &mut scratch);
/// assert_eq!(terms, 1);
/// let lin = builder.finish();
/// assert_eq!(lin.num_rows(), 2);
/// # Ok::<(), bosphorus_anf::ParsePolynomialError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LinearizationBuilder {
    interner: MonomialInterner,
    /// Interned term ids of all rows, flattened.
    terms: Vec<u32>,
    /// Row `r` owns `terms[row_offsets[r]..row_offsets[r + 1]]`. Invariant:
    /// always starts with the sentinel `0` (established by `new`, relied on
    /// by `finish`), so `Default` must go through `new` too.
    row_offsets: Vec<usize>,
}

impl Default for LinearizationBuilder {
    fn default() -> Self {
        LinearizationBuilder::new()
    }
}

impl LinearizationBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        LinearizationBuilder {
            interner: MonomialInterner::new(),
            terms: Vec::new(),
            row_offsets: vec![0],
        }
    }

    /// Number of rows pushed so far.
    pub fn num_rows(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of distinct monomials seen so far (the eventual column count).
    pub fn num_columns(&self) -> usize {
        self.interner.len()
    }

    /// Appends one polynomial as a row (a zero polynomial becomes an
    /// all-zero row, as in the eager construction).
    pub fn push(&mut self, poly: &Polynomial) {
        for m in poly.monomials() {
            let id = self.interner.intern(m);
            self.terms.push(id);
        }
        self.row_offsets.push(self.terms.len());
    }

    /// Computes `base · m` into `scratch` and appends it as a row, interning
    /// the product's terms directly from the scratch buffer. Returns the
    /// number of terms; a product that cancels to zero appends **no** row
    /// (matching how the XL expansion skips zero products) and returns 0.
    pub fn push_product(
        &mut self,
        base: &Polynomial,
        m: &Monomial,
        scratch: &mut TermScratch,
    ) -> usize {
        let terms = base.mul_monomial_scratch(m, scratch);
        if terms.is_empty() {
            return 0;
        }
        for t in terms {
            let id = self.interner.intern(t);
            self.terms.push(id);
        }
        self.row_offsets.push(self.terms.len());
        terms.len()
    }

    /// Orders the columns (descending graded lex) and assembles the matrix.
    pub fn finish(self) -> Linearization {
        let LinearizationBuilder {
            interner,
            terms,
            row_offsets,
        } = self;
        let num_cols = interner.len();
        // Columns are the distinct monomials in descending graded-lex order,
        // so each RREF row's pivot is its leading monomial (Table I layout).
        let (order, col_of_id) = interner.column_order_desc();
        // Assemble the rows word-wise straight into one flat arena — the
        // exact backing store `BitMatrix` uses — so the matrix constructor
        // takes ownership of the buffer instead of copying per-row vectors.
        let words_per_row = num_cols.div_ceil(64);
        let nrows = row_offsets.len() - 1;
        let mut arena = vec![0u64; nrows * words_per_row];
        for r in 0..nrows {
            let row = &mut arena[r * words_per_row..(r + 1) * words_per_row];
            for &id in &terms[row_offsets[r]..row_offsets[r + 1]] {
                let col = col_of_id[id as usize] as usize;
                row[col >> 6] |= 1u64 << (col & 63);
            }
        }
        let matrix = BitMatrix::from_row_words(arena, nrows, num_cols);
        Linearization {
            interner,
            order,
            col_of_id,
            matrix,
        }
    }

    /// Orders the columns like [`LinearizationBuilder::finish`] but keeps
    /// the rows *sparse*: the builder's CSR term store is handed over as
    /// is — each term id rewritten to its column in place, each row sorted
    /// in place — without ever materialising the dense bit arena or a
    /// per-row copy. This is the entry to the structural presolve
    /// ([`bosphorus_gf2::SparseMatrix`]); the column assignment is shared
    /// with the dense path, so the two eliminate to byte-identical facts.
    /// The hand-off's wall-clock is charged to the elimination's
    /// [`PresolveStats::presolve_ns`].
    pub fn finish_sparse(self) -> SparseLinearization {
        let started = Instant::now();
        let LinearizationBuilder {
            interner,
            mut terms,
            row_offsets,
        } = self;
        let (order, col_of_id) = interner.column_order_desc();
        for t in &mut terms {
            *t = col_of_id[*t as usize];
        }
        let matrix = SparseMatrix::from_csr(interner.len(), terms, row_offsets);
        SparseLinearization {
            interner,
            order,
            matrix,
            handoff: started.elapsed(),
        }
    }
}

/// A linearised view of a set of polynomials: a column ordering over the
/// monomials that occur, and the corresponding GF(2) matrix.
///
/// Columns are ordered by *descending* graded-lexicographic monomial order,
/// so that after Gauss–Jordan elimination each row's pivot is its leading
/// monomial — exactly the layout of Table I in the paper.
///
/// # Examples
///
/// ```
/// use bosphorus::Linearization;
/// use bosphorus_anf::PolynomialSystem;
///
/// let system = PolynomialSystem::parse("x1*x2 + x1 + 1; x2*x3 + x3;")?;
/// let lin = Linearization::build(system.polynomials().iter());
/// assert_eq!(lin.num_columns(), 5); // x2x3, x1x2, x3, x1 and the constant 1
/// # Ok::<(), bosphorus_anf::ParseSystemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Linearization {
    /// Every distinct monomial, stored once (id = first-seen order).
    interner: MonomialInterner,
    /// Column → interner id, in descending graded-lex monomial order.
    order: Vec<u32>,
    /// Interner id → column.
    col_of_id: Vec<u32>,
    /// The linearised coefficient matrix, one row per polynomial.
    matrix: BitMatrix,
}

impl Linearization {
    /// Builds the linearisation of the given polynomials.
    pub fn build<'a, I: IntoIterator<Item = &'a Polynomial>>(polynomials: I) -> Self {
        let mut builder = LinearizationBuilder::new();
        for poly in polynomials {
            builder.push(poly);
        }
        builder.finish()
    }

    /// Number of monomial columns.
    pub fn num_columns(&self) -> usize {
        self.order.len()
    }

    /// Number of polynomial rows.
    pub fn num_rows(&self) -> usize {
        self.matrix.nrows()
    }

    /// The monomial of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn column_monomial(&self, col: usize) -> &Monomial {
        self.interner.monomial(self.order[col])
    }

    /// The column of a monomial, if it occurs in the linearised system.
    pub fn column_of(&self, monomial: &Monomial) -> Option<usize> {
        self.interner
            .get(monomial)
            .map(|id| self.col_of_id[id as usize] as usize)
    }

    /// Borrow the coefficient matrix.
    pub fn matrix(&self) -> &BitMatrix {
        &self.matrix
    }

    /// Mutable access to the coefficient matrix (e.g. to run GJE in place).
    pub fn matrix_mut(&mut self) -> &mut BitMatrix {
        &mut self.matrix
    }

    /// Converts a matrix row view back into a polynomial.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the number of columns.
    pub fn row_to_polynomial(&self, row: RowRef<'_>) -> Polynomial {
        assert_eq!(row.len(), self.order.len(), "row/column count mismatch");
        // Ascending columns are descending monomials (and distinct), so the
        // polynomial assembles with a reverse instead of a sort.
        Polynomial::from_descending_monomials(
            row.iter_ones()
                .map(|c| self.interner.monomial(self.order[c]).clone()),
        )
    }

    /// Runs Gauss–Jordan elimination in place and returns the non-zero rows
    /// as polynomials (the reduced system), in matrix row order.
    pub fn eliminate(&mut self) -> Vec<Polynomial> {
        self.eliminate_with_stats().0
    }

    /// Like [`Linearization::eliminate`], but also reports the elimination
    /// kernel's operation counts ([`GaussStats`]) so callers on the XL /
    /// ElimLin hot path can surface how much work each round performed.
    pub fn eliminate_with_stats(&mut self) -> (Vec<Polynomial>, GaussStats) {
        self.eliminate_cancellable(&CancelToken::never())
    }

    /// Like [`Linearization::eliminate_with_stats`], but the GF(2) kernel
    /// polls `token` between sweeps. When the elimination is interrupted
    /// (`stats.interrupted`), **no rows are read back**: the matrix is only
    /// partially reduced and the caller is expected to discard the round.
    pub fn eliminate_cancellable(&mut self, token: &CancelToken) -> (Vec<Polynomial>, GaussStats) {
        let stats = self.matrix.gauss_jordan_cancellable(token);
        if stats.interrupted {
            return (Vec::new(), stats);
        }
        let reduced = self
            .matrix
            .iter()
            .filter(|r| !r.is_zero())
            .map(|r| self.row_to_polynomial(r))
            .collect();
        (reduced, stats)
    }

    /// Estimated memory footprint in bits (rows × columns), the quantity the
    /// paper bounds by `2^M` when subsampling.
    pub fn size_bits(&self) -> u128 {
        self.num_rows() as u128 * self.num_columns() as u128
    }

    /// Runs Gauss–Jordan elimination in place and returns only the
    /// *retainable* rows (see `is_retainable_fact`: linear polynomials and
    /// `monomial ⊕ 1` facts) together with the number of non-zero rows and
    /// the kernel stats.
    ///
    /// Because columns are in descending graded-lex order, the degree-≤1
    /// monomials occupy a contiguous column suffix: a row is linear exactly
    /// when its first set bit lies in that suffix, and the `monomial ⊕ 1`
    /// shape is two set bits with one in the constant column. Both checks
    /// run on the bit rows directly, so the (typically dominant) share of
    /// non-retainable RREF rows is never materialised as polynomials — the
    /// XL fast path.
    pub fn eliminate_retainable_with_stats(&mut self) -> (Vec<Polynomial>, usize, GaussStats) {
        self.eliminate_retainable_cancellable(&CancelToken::never())
    }

    /// Like [`Linearization::eliminate_retainable_with_stats`], but the
    /// GF(2) kernel polls `token` between sweeps. On interruption
    /// (`stats.interrupted`) no facts are read back and the non-zero row
    /// count is 0 — the partially reduced matrix is not the RREF.
    pub fn eliminate_retainable_cancellable(
        &mut self,
        token: &CancelToken,
    ) -> (Vec<Polynomial>, usize, GaussStats) {
        let stats = self.matrix.gauss_jordan_cancellable(token);
        if stats.interrupted {
            return (Vec::new(), 0, stats);
        }
        let (facts, non_zero_rows) = self.retainable_rows();
        (facts, non_zero_rows, stats)
    }

    /// Scans the current matrix rows for retainable facts — the read-back
    /// half of [`Linearization::eliminate_retainable_with_stats`]. Returns
    /// the facts in row order together with the number of non-zero rows.
    fn retainable_rows(&self) -> (Vec<Polynomial>, usize) {
        let ncols = self.num_columns();
        // First column whose monomial has degree <= 1 (degrees are
        // non-increasing across the descending graded-lex order).
        let linear_boundary = self
            .order
            .partition_point(|&id| self.interner.monomial(id).degree() > 1);
        let has_constant_column =
            ncols > 0 && self.interner.monomial(self.order[ncols - 1]).is_one();
        let mut non_zero_rows = 0usize;
        let mut facts: Vec<Polynomial> = Vec::new();
        for row in self.matrix.iter() {
            let Some(first) = row.first_one() else {
                continue; // zero row
            };
            non_zero_rows += 1;
            let retainable = first >= linear_boundary // every monomial is degree <= 1
                || (has_constant_column && row.get(ncols - 1) && row.count_ones() == 2);
            if !retainable {
                continue;
            }
            facts.push(Polynomial::from_descending_monomials(
                row.iter_ones()
                    .map(|c| self.interner.monomial(self.order[c]).clone()),
            ));
        }
        (facts, non_zero_rows)
    }
}

/// A linearised view that keeps the rows sparse for the structural presolve
/// (see [`LinearizationBuilder::finish_sparse`]).
///
/// The column ordering is identical to [`Linearization`]'s — descending
/// graded-lex, shared through `MonomialInterner::column_order_desc` — so the
/// presolved elimination returns the exact facts of the dense path; only the
/// route there differs (structural rules and component-wise dense cores
/// instead of one monolithic arena).
#[derive(Debug, Clone)]
pub struct SparseLinearization {
    /// Every distinct monomial, stored once (id = first-seen order).
    interner: MonomialInterner,
    /// Column → interner id, in descending graded-lex monomial order.
    order: Vec<u32>,
    /// The linearised coefficient matrix, one sparse row per polynomial.
    matrix: SparseMatrix,
    /// Wall-clock of [`LinearizationBuilder::finish_sparse`].
    handoff: Duration,
}

impl SparseLinearization {
    /// Builds the sparse linearisation of the given polynomials.
    pub fn build<'a, I: IntoIterator<Item = &'a Polynomial>>(polynomials: I) -> Self {
        let mut builder = LinearizationBuilder::new();
        for poly in polynomials {
            builder.push(poly);
        }
        builder.finish_sparse()
    }

    /// Number of monomial columns.
    pub fn num_columns(&self) -> usize {
        self.order.len()
    }

    /// Number of polynomial rows.
    pub fn num_rows(&self) -> usize {
        self.matrix.nrows()
    }

    /// Borrow the sparse coefficient matrix.
    pub fn matrix(&self) -> &SparseMatrix {
        &self.matrix
    }

    /// Presolves, eliminates and returns all non-zero RREF rows as
    /// polynomials — the sparse twin of
    /// [`Linearization::eliminate_cancellable`], returning the same facts in
    /// the same order. On interruption (`stats.interrupted`) no rows are
    /// read back.
    pub fn eliminate_cancellable(
        self,
        token: &CancelToken,
    ) -> (Vec<Polynomial>, GaussStats, PresolveStats) {
        let (reduced, rref) = self.eliminate_keeping(token, |_| true);
        (reduced, rref.gauss, rref.presolve)
    }

    /// Presolves, eliminates and returns only the *retainable* rows (linear
    /// polynomials and `monomial ⊕ 1` facts) together with the non-zero row
    /// count — the sparse twin of
    /// [`Linearization::eliminate_retainable_cancellable`], with the
    /// byte-identical predicate of the dense read-back. Non-retainable
    /// rows are never materialised as polynomials, nor read back out of
    /// the dense cores unless the presolve's back-substitution needs them.
    pub fn eliminate_retainable_cancellable(
        self,
        token: &CancelToken,
    ) -> (Vec<Polynomial>, usize, GaussStats, PresolveStats) {
        // The degree-≤ 1 monomials are a column suffix (descending graded
        // lex), the constant its last column.
        let (interner, order) = (&self.interner, &self.order);
        let ncols = order.len();
        let linear_boundary =
            order.partition_point(|&id| interner.monomial(id).degree() > 1) as u32;
        let has_constant_column = ncols > 0 && interner.monomial(order[ncols - 1]).is_one();
        let constant_col = ncols.wrapping_sub(1) as u32;
        let (facts, rref) = self.eliminate_keeping(token, |row| {
            row.lead >= linear_boundary // every monomial is degree <= 1
                || (has_constant_column && row.weight == 2 && row.last == constant_col)
        });
        let non_zero_rows = if rref.gauss.interrupted { 0 } else { rref.rank };
        (facts, non_zero_rows, rref.gauss, rref.presolve)
    }

    /// Eliminates, returning the RREF rows `keep` accepts as polynomials;
    /// charges the hand-off and the read-back to
    /// [`PresolveStats::presolve_ns`].
    fn eliminate_keeping(
        self,
        token: &CancelToken,
        keep: impl Fn(RowShape) -> bool,
    ) -> (Vec<Polynomial>, SparseRref) {
        let SparseLinearization {
            interner,
            order,
            matrix,
            handoff,
        } = self;
        let mut rref = matrix.rref_keeping(token, keep);
        let read_back = Instant::now();
        let polys = rref
            .rows()
            .map(|row| sparse_row_to_polynomial(&interner, &order, row))
            .collect();
        rref.presolve.presolve_ns += (handoff + read_back.elapsed()).as_nanos() as u64;
        (polys, rref)
    }
}

/// Converts a stitched sparse RREF row (ascending column ids) back to a
/// polynomial. Ascending columns are descending monomials (shared column
/// order), so the polynomial assembles without a sort.
fn sparse_row_to_polynomial(interner: &MonomialInterner, order: &[u32], row: &[u32]) -> Polynomial {
    Polynomial::from_descending_monomials(
        row.iter()
            .map(|&c| interner.monomial(order[c as usize]).clone()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosphorus_anf::PolynomialSystem;

    fn polys(s: &str) -> Vec<Polynomial> {
        PolynomialSystem::parse(s)
            .expect("test system parses")
            .into_polynomials()
    }

    #[test]
    fn columns_are_descending_graded_lex() {
        let ps = polys("x1*x2 + x1 + 1; x2*x3 + x3;");
        let lin = Linearization::build(ps.iter());
        let names: Vec<String> = (0..lin.num_columns())
            .map(|c| lin.column_monomial(c).to_string())
            .collect();
        assert_eq!(names, vec!["x2*x3", "x1*x2", "x3", "x1", "1"]);
        assert_eq!(lin.num_rows(), 2);
    }

    #[test]
    fn roundtrip_row_to_polynomial() {
        let ps = polys("x0*x1 + x2 + 1; x2 + x0;");
        let lin = Linearization::build(ps.iter());
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(&lin.row_to_polynomial(lin.matrix().row(i)), p);
        }
    }

    #[test]
    fn eliminate_reproduces_paper_table_1_facts() {
        // The fully expanded Table I system (degree-1 expansion of
        // {x1x2+x1+1, x2x3+x3}); after GJE the facts x1+1, x2, x3 appear.
        let ps = polys(
            "x1*x2 + x1 + 1;
             x1*x2;
             x2;
             x1*x2*x3 + x1*x3 + x3;
             x2*x3 + x3;
             x1*x2*x3 + x1*x3;",
        );
        let mut lin = Linearization::build(ps.iter());
        let reduced = lin.eliminate();
        assert!(reduced.contains(&"x1 + 1".parse().expect("parses")));
        assert!(reduced.contains(&"x2".parse().expect("parses")));
        assert!(reduced.contains(&"x3".parse().expect("parses")));
    }

    #[test]
    fn eliminate_with_stats_reports_rank_and_work() {
        let ps = polys(
            "x1*x2 + x1 + 1;
             x1*x2;
             x2;
             x1*x2*x3 + x1*x3 + x3;
             x2*x3 + x3;
             x1*x2*x3 + x1*x3;",
        );
        let mut lin = Linearization::build(ps.iter());
        let (reduced, stats) = lin.eliminate_with_stats();
        assert_eq!(stats.rank, 6, "Table I(b) rank");
        assert_eq!(reduced.len(), stats.rank);
        assert!(stats.row_xors > 0, "elimination work must be counted");
    }

    #[test]
    fn column_of_lookup() {
        let ps = polys("x0*x1 + x2;");
        let lin = Linearization::build(ps.iter());
        let m: Polynomial = "x0*x1".parse().expect("parses");
        let mono = m.leading_monomial().expect("non-zero").clone();
        assert_eq!(lin.column_of(&mono), Some(0));
        let absent: Polynomial = "x9".parse().expect("parses");
        assert_eq!(
            lin.column_of(absent.leading_monomial().expect("non-zero")),
            None
        );
    }

    #[test]
    fn size_bits_is_rows_times_cols() {
        let ps = polys("x0 + x1; x1 + x2;");
        let lin = Linearization::build(ps.iter());
        assert_eq!(
            lin.size_bits(),
            (lin.num_rows() * lin.num_columns()) as u128
        );
    }

    #[test]
    fn empty_input_builds_empty_linearization() {
        let lin = Linearization::build(std::iter::empty());
        assert_eq!(lin.num_rows(), 0);
        assert_eq!(lin.num_columns(), 0);
    }

    #[test]
    fn builder_products_match_the_eager_construction() {
        // Expand the Table I system and the Section II-E worked example with
        // the degree-1 multipliers both ways: eagerly (materialised products
        // through Linearization::build) and through `LinearizationBuilder`.
        // The linearisations must agree column for column and row for row.
        for text in [
            "x1*x2 + x1 + 1; x2*x3 + x3;",
            "x1*x2 + x3 + x4 + 1; x1*x2*x3 + x1 + x3 + 1; x1*x3 + x3*x4*x5 + x3;
             x2*x3 + x3*x5 + 1; x2*x3 + x5 + 1;",
        ] {
            let base = polys(text);
            let mut vars: Vec<bosphorus_anf::Var> =
                base.iter().flat_map(Polynomial::variables).collect();
            vars.sort_unstable();
            vars.dedup();
            let multipliers = crate::expansion_monomials(&vars, 1);
            let mut eager: Vec<Polynomial> = base.clone();
            for p in &base {
                for m in &multipliers {
                    let product = p.mul_monomial(m);
                    if !product.is_zero() {
                        eager.push(product);
                    }
                }
            }
            let eager_lin = Linearization::build(eager.iter());

            let mut builder = LinearizationBuilder::new();
            for p in &base {
                builder.push(p);
            }
            let mut scratch = bosphorus_anf::TermScratch::new();
            for p in &base {
                for m in &multipliers {
                    builder.push_product(p, m, &mut scratch);
                }
            }
            assert_eq!(builder.num_rows(), eager.len(), "{text}");
            let lin = builder.finish();
            assert_eq!(lin.num_rows(), eager_lin.num_rows(), "{text}");
            assert_eq!(lin.num_columns(), eager_lin.num_columns(), "{text}");
            for c in 0..lin.num_columns() {
                assert_eq!(lin.column_monomial(c), eager_lin.column_monomial(c));
            }
            for r in 0..lin.num_rows() {
                assert_eq!(lin.matrix().row(r), eager_lin.matrix().row(r));
            }
        }
    }

    #[test]
    fn builder_skips_zero_products() {
        // (x0 + x0*x1) · x1 = x0x1 + x0x1 = 0: no row is appended.
        let p = polys("x0 + x0*x1;").remove(0);
        let mut builder = LinearizationBuilder::new();
        let mut scratch = bosphorus_anf::TermScratch::new();
        let terms = builder.push_product(&p, &bosphorus_anf::Monomial::variable(1), &mut scratch);
        assert_eq!(terms, 0);
        assert_eq!(builder.num_rows(), 0);
        // The zero *polynomial* pushed directly still becomes a zero row
        // (Linearization::build keeps one row per input polynomial).
        builder.push(&Polynomial::zero());
        assert_eq!(builder.num_rows(), 1);
    }

    #[test]
    fn zero_polynomial_rows_survive_word_wise_assembly() {
        let ps = [
            "x0 + x1".parse::<Polynomial>().expect("parses"),
            Polynomial::zero(),
        ];
        let lin = Linearization::build(ps.iter());
        assert_eq!(lin.num_rows(), 2);
        assert!(lin.matrix().row(1).is_zero());
    }

    #[test]
    fn sparse_eliminate_matches_dense_facts_exactly() {
        // Table I expansion (contains a duplicate row) plus mixed systems:
        // the sparse presolve path must return byte-identical facts, in the
        // same order, with the same non-zero row count and rank.
        for text in [
            "x1*x2 + x1 + 1;
             x1*x2;
             x2;
             x1*x2*x3 + x1*x3 + x3;
             x2*x3 + x3;
             x1*x2*x3 + x1*x3;",
            "x0*x1 + x2; x0 + x1 + 1; x1*x2 + x0 + 1;",
            "x1 + x2 + x3; x1*x2 + x2*x3 + 1;",
        ] {
            let ps = polys(text);
            let mut dense = Linearization::build(ps.iter());
            let (dense_facts, dense_stats) = dense.eliminate_with_stats();
            let sparse = SparseLinearization::build(ps.iter());
            let (sparse_facts, gauss, presolve) =
                sparse.eliminate_cancellable(&CancelToken::never());
            assert_eq!(sparse_facts, dense_facts, "facts must be identical");
            assert_eq!(gauss.rank, dense_stats.rank);
            assert_eq!(presolve.input_rows, ps.len());
        }
    }

    #[test]
    fn sparse_retainable_matches_dense_retainable() {
        let ps = polys(
            "x1*x2 + x1 + 1;
             x1*x2;
             x2;
             x1*x2*x3 + x1*x3 + x3;
             x2*x3 + x3;
             x1*x2*x3 + x1*x3;",
        );
        let mut dense = Linearization::build(ps.iter());
        let (dense_facts, dense_nonzero, dense_stats) = dense.eliminate_retainable_with_stats();
        let sparse = SparseLinearization::build(ps.iter());
        let (sparse_facts, sparse_nonzero, gauss, presolve) =
            sparse.eliminate_retainable_cancellable(&CancelToken::never());
        assert_eq!(sparse_facts, dense_facts);
        assert_eq!(sparse_nonzero, dense_nonzero);
        assert_eq!(gauss.rank, dense_stats.rank);
        assert!(gauss.row_xors > 0, "presolve ops count as elimination work");
        assert_eq!(presolve.input_cols, 8);
    }

    #[test]
    fn sparse_interrupted_returns_no_facts() {
        let ps = polys("x0*x1 + x2; x0 + x1 + 1; x1*x2 + x0 + 1;");
        let token = CancelToken::new();
        token.cancel();
        let sparse = SparseLinearization::build(ps.iter());
        let (facts, nonzero, gauss, _) = sparse.eliminate_retainable_cancellable(&token);
        assert!(gauss.interrupted);
        assert!(facts.is_empty());
        assert_eq!(nonzero, 0);
    }

    #[test]
    fn wide_linearizations_cross_word_boundaries() {
        // 70 distinct variables → 71 columns (with the constant), i.e. more
        // than one 64-bit word per row; every bit must land where the
        // per-bit construction would have put it.
        let mut text = String::new();
        for v in 0..70u32 {
            text.push_str(&format!("x{v} + 1;"));
        }
        let ps = polys(&text);
        let lin = Linearization::build(ps.iter());
        assert_eq!(lin.num_columns(), 71);
        for (r, p) in ps.iter().enumerate() {
            assert_eq!(&lin.row_to_polynomial(lin.matrix().row(r)), p);
        }
    }
}
