//! Linearisation: treating each monomial as an independent variable so that a
//! polynomial system becomes a GF(2) linear system.
//!
//! Both XL and ElimLin rest on this transformation: the polynomials become
//! sparse rows of a [`SparseMatrix`], the structural presolve reduces them
//! and hands its residual cores to the dense kernel
//! (`crates/gf2/src/sparse.rs`), and the RREF rows are mapped back to
//! polynomials.
//!
//! The column index is a [`MonomialInterner`] — a fast-hash monomial→dense-id
//! map that stores each distinct monomial exactly once — instead of an
//! ordered map cloning every key. [`LinearizationBuilder`] exposes the
//! construction incrementally so the XL expansion can intern each product's
//! terms straight from a scratch buffer without materialising the product
//! polynomial.

use std::time::{Duration, Instant};

use bosphorus_anf::{Monomial, MonomialInterner, Polynomial, TermScratch};
use bosphorus_gf2::{GaussStats, PresolveStats, RowShape, SparseMatrix, SparseRref};
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

    /// Orders the columns (descending graded lex) and hands the builder's
    /// CSR term store over as the sparse matrix — each term id rewritten to
    /// its column in place, each row sorted in place — without a per-row
    /// copy. The hand-off's wall-clock is charged to the elimination's
    /// [`PresolveStats::presolve_ns`].
    pub fn finish(self) -> Linearization {
        let started = Instant::now();
        let LinearizationBuilder {
            interner,
            mut terms,
            row_offsets,
        } = self;
        // Columns are the distinct monomials in descending graded-lex order,
        // so each RREF row's pivot is its leading monomial (Table I layout).
        let (order, col_of_id) = interner.column_order_desc();
        for t in &mut terms {
            *t = col_of_id[*t as usize];
        }
        let matrix = SparseMatrix::from_csr(interner.len(), terms, row_offsets);
        Linearization {
            interner,
            order,
            matrix,
            handoff: started.elapsed(),
        }
    }
}

/// A linearised view of a set of polynomials: a column ordering over the
/// monomials that occur, and the corresponding sparse GF(2) matrix.
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
    /// The linearised coefficient matrix, one sparse row per polynomial.
    matrix: SparseMatrix,
    /// Wall-clock of [`LinearizationBuilder::finish`].
    handoff: Duration,
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

    /// Borrow the sparse coefficient matrix, one row per polynomial.
    pub fn matrix(&self) -> &SparseMatrix {
        &self.matrix
    }

    /// Presolves, eliminates and returns all non-zero RREF rows as
    /// polynomials, in pivot order. The GF(2) kernel polls `token`; on
    /// interruption (`stats.interrupted`) no rows are read back.
    pub fn eliminate(self, token: &CancelToken) -> (Vec<Polynomial>, GaussStats, PresolveStats) {
        let (reduced, rref) = self.eliminate_keeping(token, |_| true);
        (reduced, rref.gauss, rref.presolve)
    }

    /// Presolves, eliminates and returns only the *retainable* rows (linear
    /// polynomials and `monomial ⊕ 1` facts, see `is_retainable_fact`)
    /// together with the non-zero row count. The predicate reads each RREF
    /// row's shape, so non-retainable rows are never materialised as
    /// polynomials, nor read back out of the dense cores unless the
    /// presolve's back-substitution needs them — the XL fast path. On
    /// interruption no facts are read back and the row count is 0.
    pub fn eliminate_retainable(
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
        let Linearization {
            interner,
            order,
            matrix,
            handoff,
        } = self;
        let mut rref = matrix.rref(token, keep);
        let read_back = Instant::now();
        let polys = rref
            .rows()
            .map(|row| row_to_polynomial(&interner, &order, row))
            .collect();
        rref.presolve.presolve_ns += (handoff + read_back.elapsed()).as_nanos() as u64;
        (polys, rref)
    }
}

/// Converts a sparse row (ascending column ids) back to a polynomial.
/// Ascending columns are descending monomials, so the polynomial assembles
/// without a sort.
fn row_to_polynomial(interner: &MonomialInterner, order: &[u32], row: &[u32]) -> Polynomial {
    Polynomial::from_descending_monomials(
        row.iter()
            .map(|&c| interner.monomial(order[c as usize]).clone()),
    )
}

#[cfg(test)]
impl Linearization {
    /// Test oracle for the presolve: the whole matrix densified and reduced
    /// by the dense kernel alone, its non-zero RREF rows read back in the
    /// same column order.
    pub(crate) fn dense_rref(&self) -> Vec<Polynomial> {
        let mut dense = self.matrix.to_dense();
        dense.gauss_jordan(&CancelToken::never());
        dense
            .iter()
            .map(|r| r.iter_ones().map(|c| c as u32).collect::<Vec<u32>>())
            .filter(|cols| !cols.is_empty())
            .map(|cols| row_to_polynomial(&self.interner, &self.order, &cols))
            .collect()
    }
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

    /// The fully expanded Table I system (degree-1 expansion of
    /// {x1x2+x1+1, x2x3+x3}); it contains a duplicate row.
    const TABLE_1: &str = "x1*x2 + x1 + 1;
         x1*x2;
         x2;
         x1*x2*x3 + x1*x3 + x3;
         x2*x3 + x3;
         x1*x2*x3 + x1*x3;";

    /// The matrix rows read back as polynomials.
    fn rows(lin: &Linearization) -> Vec<Polynomial> {
        lin.matrix()
            .rows()
            .map(|row| row_to_polynomial(&lin.interner, &lin.order, row))
            .collect()
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
        assert_eq!(rows(&Linearization::build(ps.iter())), ps);
    }

    #[test]
    fn eliminate_reproduces_paper_table_1_facts() {
        // After GJE the facts x1+1, x2, x3 appear.
        let lin = Linearization::build(polys(TABLE_1).iter());
        let (reduced, _, _) = lin.eliminate(&CancelToken::never());
        assert!(reduced.contains(&"x1 + 1".parse().expect("parses")));
        assert!(reduced.contains(&"x2".parse().expect("parses")));
        assert!(reduced.contains(&"x3".parse().expect("parses")));
    }

    #[test]
    fn eliminate_with_stats_reports_rank_and_work() {
        let lin = Linearization::build(polys(TABLE_1).iter());
        let (reduced, stats, _) = lin.eliminate(&CancelToken::never());
        assert_eq!(stats.rank, 6, "Table I(b) rank");
        assert_eq!(reduced.len(), stats.rank);
        assert!(stats.row_xors > 0, "elimination work must be counted");
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
            let multipliers =
                crate::xl::expansion_monomials(&PolynomialSystem::from_polynomials(base.clone()));
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
            assert_eq!(rows(&lin), eager, "{text}");
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
        // A zero polynomial is an empty sparse row, and an all-zero word
        // row once densified for the oracle.
        let ps = [
            "x0 + x1".parse::<Polynomial>().expect("parses"),
            Polynomial::zero(),
        ];
        let lin = Linearization::build(ps.iter());
        assert_eq!(lin.num_rows(), 2);
        assert!(lin.matrix().row(1).is_empty());
        assert_eq!(lin.matrix().to_dense().row(1).iter_ones().next(), None);
    }

    #[test]
    fn sparse_eliminate_matches_dense_facts_exactly() {
        // Table I expansion (contains a duplicate row) plus mixed systems:
        // the presolve path must return the dense oracle's RREF rows
        // byte for byte, in the same order, with the same rank.
        for text in [
            TABLE_1,
            "x0*x1 + x2; x0 + x1 + 1; x1*x2 + x0 + 1;",
            "x1 + x2 + x3; x1*x2 + x2*x3 + 1;",
        ] {
            let ps = polys(text);
            let lin = Linearization::build(ps.iter());
            let oracle = lin.dense_rref();
            let (facts, gauss, presolve) = lin.eliminate(&CancelToken::never());
            assert_eq!(facts, oracle, "facts must be identical");
            assert_eq!(gauss.rank, oracle.len());
            assert_eq!(presolve.input_rows, ps.len());
        }
    }

    #[test]
    fn sparse_retainable_matches_dense_retainable() {
        let lin = Linearization::build(polys(TABLE_1).iter());
        let oracle = lin.dense_rref();
        let (facts, nonzero, gauss, presolve) = lin.eliminate_retainable(&CancelToken::never());
        let retainable: Vec<Polynomial> = oracle
            .iter()
            .filter(|p| crate::is_retainable_fact(p))
            .cloned()
            .collect();
        assert_eq!(facts, retainable);
        assert_eq!(nonzero, oracle.len());
        assert_eq!(gauss.rank, oracle.len());
        assert!(gauss.row_xors > 0, "presolve ops count as elimination work");
        assert_eq!(presolve.input_cols, 8);
    }

    #[test]
    fn sparse_interrupted_returns_no_facts() {
        let ps = polys("x0*x1 + x2; x0 + x1 + 1; x1*x2 + x0 + 1;");
        let token = CancelToken::new();
        token.cancel();
        let lin = Linearization::build(ps.iter());
        let (facts, nonzero, gauss, _) = lin.eliminate_retainable(&token);
        assert!(gauss.interrupted);
        assert!(facts.is_empty());
        assert_eq!(nonzero, 0);
    }

    #[test]
    fn wide_linearizations_cross_word_boundaries() {
        // 70 distinct variables → 71 columns (with the constant), i.e. more
        // than one 64-bit word per densified row; the oracle's read-back
        // must put every bit back in its column.
        let mut text = String::new();
        for v in 0..70u32 {
            text.push_str(&format!("x{v} + 1;"));
        }
        let ps = polys(&text);
        let lin = Linearization::build(ps.iter());
        assert_eq!(lin.num_columns(), 71);
        assert_eq!(rows(&lin), ps);
        // Already reduced: each row pivots on its own variable, and the RREF
        // lists the rows by pivot column, x69 + 1 first.
        let by_pivot: Vec<Polynomial> = ps.iter().rev().cloned().collect();
        assert_eq!(lin.dense_rref(), by_pivot);
    }
}
