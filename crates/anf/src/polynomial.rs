//! Boolean polynomials: XOR sums of monomials, read as equations `p = 0`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul};

use crate::{Monomial, Var};

/// A reusable working buffer for polynomial arithmetic.
///
/// The merge-based operations ([`Polynomial::mul_monomial_with`],
/// [`Polynomial::substitute_poly_with`], …) accumulate raw monomial products
/// in a buffer, sort and cancel them in place, and build the result from
/// it. Threading one `TermScratch` through a hot loop (an XL expansion
/// round, ElimLin's substitutions, ANF propagation) reuses that buffer
/// across calls instead of growing a fresh vector per polynomial.
#[derive(Debug, Default, Clone)]
pub struct TermScratch {
    buf: Vec<Monomial>,
    /// Variable buffers of [`Polynomial::substitute_all_with`].
    kept: Vec<Var>,
    negated: Vec<Var>,
}

impl TermScratch {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        TermScratch::default()
    }

    /// A tightly-sized polynomial from the current buffer contents (which
    /// must already be sorted and cancelled).
    fn emit(&self) -> Polynomial {
        Polynomial {
            monomials: self.buf.clone(),
        }
    }
}

/// Sorts the buffer into graded-lexicographic order and cancels equal pairs
/// (XOR semantics: a monomial appearing an even number of times vanishes).
fn sort_and_cancel(buf: &mut Vec<Monomial>) {
    buf.sort_unstable();
    let mut out = 0usize;
    let mut i = 0usize;
    while i < buf.len() {
        let mut j = i + 1;
        while j < buf.len() && buf[j] == buf[i] {
            j += 1;
        }
        if (j - i) % 2 == 1 {
            buf.swap(out, i);
            out += 1;
        }
        i = j;
    }
    buf.truncate(out);
}

/// Merges the sorted, duplicate-free monomials of `a` (`a_len` of them)
/// and `b`, cancelling the monomials they share (XOR semantics).
fn merge_cancel<'a>(
    a: impl Iterator<Item = &'a Monomial>,
    a_len: usize,
    b: &[Monomial],
) -> Vec<Monomial> {
    let mut out = Vec::with_capacity(a_len + b.len());
    let mut j = 0;
    for m in a {
        loop {
            match b.get(j).map(|n| n.cmp(m)) {
                Some(Ordering::Less) => {
                    out.push(b[j].clone());
                    j += 1;
                }
                Some(Ordering::Equal) => {
                    j += 1;
                    break;
                }
                _ => {
                    out.push(m.clone());
                    break;
                }
            }
        }
    }
    out.extend_from_slice(&b[j..]);
    out
}

/// What [`Polynomial::substitute_all_with`] puts in place of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Image {
    /// The variable stays.
    Keep,
    /// A constant.
    Const(bool),
    /// The literal `var`, or `var ⊕ 1` when the flag is set.
    Literal(Var, bool),
}

/// A Boolean polynomial in Algebraic Normal Form: a GF(2) sum (XOR) of
/// distinct [`Monomial`]s.
///
/// Following the paper's convention, a polynomial always denotes the equation
/// `p = 0`; "the polynomial `x1 ⊕ 1`" therefore states that `x1 = 1`.
///
/// The monomials are stored sorted in increasing graded-lexicographic order
/// with no duplicates, so equality of polynomials is structural equality.
///
/// # Examples
///
/// ```
/// use bosphorus_anf::{Monomial, Polynomial};
///
/// let x1 = Polynomial::variable(1);
/// let x2 = Polynomial::variable(2);
/// let p = x1.clone() * x2.clone() + x1 + Polynomial::one();
/// assert_eq!(p.to_string(), "x1*x2 + x1 + 1");
/// assert_eq!(p.degree(), 2);
/// assert!(!p.is_linear());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Polynomial {
    /// Sorted (graded lex), de-duplicated monomials.
    monomials: Vec<Monomial>,
}

impl Polynomial {
    /// The zero polynomial (the trivially true equation `0 = 0`).
    pub fn zero() -> Self {
        Polynomial {
            monomials: Vec::new(),
        }
    }

    /// The constant polynomial `1` (the contradictory equation `1 = 0`).
    pub fn one() -> Self {
        Polynomial {
            monomials: vec![Monomial::one()],
        }
    }

    /// The constant polynomial for `value` (`0` or `1`).
    pub fn constant(value: bool) -> Self {
        if value {
            Polynomial::one()
        } else {
            Polynomial::zero()
        }
    }

    /// The polynomial consisting of the single variable `v`.
    pub fn variable(v: Var) -> Self {
        Polynomial {
            monomials: vec![Monomial::variable(v)],
        }
    }

    /// The polynomial consisting of a single monomial.
    pub fn from_monomial(m: Monomial) -> Self {
        Polynomial { monomials: vec![m] }
    }

    /// Builds a polynomial by XOR-ing together the given monomials; pairs of
    /// equal monomials cancel.
    ///
    /// The monomials are collected, sorted once and cancelled in a single
    /// pass — O(n log n) instead of the O(n²) insert-per-term of a naive
    /// construction.
    ///
    /// ```
    /// use bosphorus_anf::{Monomial, Polynomial};
    /// let p = Polynomial::from_monomials([
    ///     Monomial::variable(0),
    ///     Monomial::variable(0),
    ///     Monomial::one(),
    /// ]);
    /// assert_eq!(p, Polynomial::one());
    /// ```
    pub fn from_monomials<I: IntoIterator<Item = Monomial>>(monomials: I) -> Self {
        let mut buf: Vec<Monomial> = monomials.into_iter().collect();
        sort_and_cancel(&mut buf);
        Polynomial { monomials: buf }
    }

    /// Builds a polynomial from monomials that are already **strictly
    /// decreasing** in graded-lexicographic order (so distinct, with nothing
    /// to cancel). The list is reversed in place — no sort, no scan.
    ///
    /// This is the linearisation read-back path: matrix columns are stored
    /// in descending monomial order, so a row's set bits enumerate its
    /// monomials largest-first.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the input is not strictly decreasing.
    pub fn from_descending_monomials<I: IntoIterator<Item = Monomial>>(monomials: I) -> Self {
        let mut buf: Vec<Monomial> = monomials.into_iter().collect();
        buf.reverse();
        debug_assert!(
            buf.windows(2).all(|w| w[0] < w[1]),
            "input monomials must be strictly decreasing"
        );
        Polynomial { monomials: buf }
    }

    /// Returns `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.monomials.is_empty()
    }

    /// Returns `true` if this is the constant polynomial `1`, i.e. the
    /// contradiction `1 = 0`.
    pub fn is_one(&self) -> bool {
        self.monomials.len() == 1 && self.monomials[0].is_one()
    }

    /// Returns `true` if the polynomial is a constant (`0` or `1`).
    pub fn is_constant(&self) -> bool {
        self.is_zero() || self.is_one()
    }

    /// The number of monomials (terms).
    pub fn len(&self) -> usize {
        self.monomials.len()
    }

    /// Returns `true` if there are no monomials (the zero polynomial).
    pub fn is_empty(&self) -> bool {
        self.monomials.is_empty()
    }

    /// Total degree: the maximum degree over all monomials (0 for constants
    /// and the zero polynomial).
    pub fn degree(&self) -> usize {
        self.monomials.last().map_or(0, Monomial::degree)
    }

    /// The monomials in increasing graded-lexicographic order.
    pub fn monomials(&self) -> &[Monomial] {
        &self.monomials
    }

    /// The leading (largest) monomial, if the polynomial is non-zero.
    pub fn leading_monomial(&self) -> Option<&Monomial> {
        self.monomials.last()
    }

    /// Returns `true` if the constant term `1` is present.
    pub fn has_constant_term(&self) -> bool {
        self.monomials.first().is_some_and(Monomial::is_one)
    }

    /// Returns `true` if the polynomial contains the exact monomial `m`.
    pub fn contains_monomial(&self, m: &Monomial) -> bool {
        self.monomials.binary_search(m).is_ok()
    }

    /// Returns `true` if variable `v` occurs in any monomial.
    pub fn contains_var(&self, v: Var) -> bool {
        self.monomials.iter().any(|m| m.contains(v))
    }

    /// The set of variables occurring in the polynomial, in increasing order.
    ///
    /// Every monomial's variables go into one buffer, which is sorted and
    /// deduplicated once: a merge per monomial would copy the partial set
    /// once per monomial, which dominates on long polynomials.
    pub fn variables(&self) -> Vec<Var> {
        let mut result = Vec::with_capacity(self.monomials.iter().map(|m| m.vars().len()).sum());
        for m in &self.monomials {
            result.extend_from_slice(m.vars());
        }
        result.sort_unstable();
        result.dedup();
        result
    }

    /// The largest variable index occurring in the polynomial, if any.
    pub fn max_var(&self) -> Option<Var> {
        self.monomials.iter().filter_map(Monomial::max_var).max()
    }

    /// Returns `true` if every monomial has degree at most one (the
    /// polynomial is an affine/linear equation).
    pub fn is_linear(&self) -> bool {
        self.degree() <= 1
    }

    /// If the polynomial is linear, returns its variables and constant term
    /// as `(vars, constant)`, representing `x_{i1} ⊕ … ⊕ x_{ip} ⊕ c = 0`.
    pub fn as_linear(&self) -> Option<(Vec<Var>, bool)> {
        if !self.is_linear() {
            return None;
        }
        let constant = self.has_constant_term();
        let vars = self
            .monomials
            .iter()
            .filter(|m| !m.is_one())
            .map(|m| m.vars()[0])
            .collect();
        Some((vars, constant))
    }

    /// If the polynomial has the "all-ones" shape `x_{i1}·…·x_{ip} ⊕ 1`
    /// (a single non-constant monomial plus the constant), returns the
    /// monomial. Such a fact forces every involved variable to 1.
    pub fn as_monomial_plus_one(&self) -> Option<&Monomial> {
        if self.monomials.len() == 2 && self.monomials[0].is_one() && !self.monomials[1].is_one() {
            Some(&self.monomials[1])
        } else {
            None
        }
    }

    /// XORs a single monomial into the polynomial (adding it if absent,
    /// cancelling it if present).
    pub fn toggle_monomial(&mut self, m: Monomial) {
        match self.monomials.binary_search(&m) {
            Ok(pos) => {
                self.monomials.remove(pos);
            }
            Err(pos) => {
                self.monomials.insert(pos, m);
            }
        }
    }

    /// XORs `other` into `self`.
    pub fn add_assign(&mut self, other: &Polynomial) {
        if other.is_zero() {
            return;
        }
        if self.is_zero() {
            self.monomials = other.monomials.clone();
            return;
        }
        self.monomials = merge_cancel(self.monomials.iter(), self.len(), &other.monomials);
    }

    /// Fills `scratch` with the sorted, cancelled terms of `self · m` and
    /// returns them as a slice (borrowed from the scratch buffer).
    ///
    /// This is the allocation-free core of [`Polynomial::mul_monomial`]:
    /// callers that only need to *read* the product (e.g. the XL expansion
    /// interning terms straight into a matrix row) avoid materialising a
    /// `Polynomial` entirely.
    pub fn mul_monomial_scratch<'a>(
        &self,
        m: &Monomial,
        scratch: &'a mut TermScratch,
    ) -> &'a [Monomial] {
        scratch.buf.clear();
        scratch.buf.extend(self.monomials.iter().map(|t| t.mul(m)));
        sort_and_cancel(&mut scratch.buf);
        &scratch.buf
    }

    /// Multiplies the polynomial by a single monomial.
    pub fn mul_monomial(&self, m: &Monomial) -> Polynomial {
        let mut buf: Vec<Monomial> = self.monomials.iter().map(|t| t.mul(m)).collect();
        sort_and_cancel(&mut buf);
        Polynomial { monomials: buf }
    }

    /// Like [`Polynomial::mul_monomial`], reusing `scratch` as the working
    /// buffer; the returned polynomial is tightly sized.
    pub fn mul_monomial_with(&self, m: &Monomial, scratch: &mut TermScratch) -> Polynomial {
        self.mul_monomial_scratch(m, scratch);
        scratch.emit()
    }

    /// Product of two polynomials with Boolean reduction (`x² = x`).
    ///
    /// All pairwise monomial products are collected and cancelled in one
    /// sort pass (a k-way merge by sorting) instead of merging one partial
    /// product at a time.
    pub fn mul(&self, other: &Polynomial) -> Polynomial {
        let mut buf: Vec<Monomial> = Vec::with_capacity(self.len() * other.len());
        for a in &self.monomials {
            for b in &other.monomials {
                buf.push(a.mul(b));
            }
        }
        sort_and_cancel(&mut buf);
        Polynomial { monomials: buf }
    }

    /// Substitutes the constant `value` for variable `v` and returns the
    /// simplified polynomial.
    ///
    /// ```
    /// use bosphorus_anf::Polynomial;
    /// let p: Polynomial = "x0*x1 + x1 + 1".parse()?;
    /// assert_eq!(p.substitute_const(0, true).to_string(), "1");
    /// assert_eq!(p.substitute_const(0, false).to_string(), "x1 + 1");
    /// # Ok::<(), bosphorus_anf::ParsePolynomialError>(())
    /// ```
    pub fn substitute_const(&self, v: Var, value: bool) -> Polynomial {
        let mut buf = Vec::with_capacity(self.monomials.len());
        self.substitute_const_into(v, value, &mut buf);
        Polynomial { monomials: buf }
    }

    /// Like [`Polynomial::substitute_const`], reusing `scratch` as the
    /// working buffer.
    pub fn substitute_const_with(
        &self,
        v: Var,
        value: bool,
        scratch: &mut TermScratch,
    ) -> Polynomial {
        scratch.buf.clear();
        self.substitute_const_into(v, value, &mut scratch.buf);
        scratch.emit()
    }

    fn substitute_const_into(&self, v: Var, value: bool, buf: &mut Vec<Monomial>) {
        for m in &self.monomials {
            if !m.contains(v) {
                buf.push(m.clone());
            } else if value {
                buf.push(m.without(v));
            }
            // value == false and m contains v: the monomial vanishes.
        }
        sort_and_cancel(buf);
    }

    /// Substitutes the polynomial `replacement` for variable `v`.
    ///
    /// Every monomial `v·m'` becomes `replacement · m'`. This is the
    /// operation ElimLin uses to eliminate a variable using a linear
    /// equation, and ANF propagation uses it (with a literal) to apply
    /// equivalences. Only the new products are sorted and cancelled; they
    /// are then merged into the monomials free of `v`, which are already in
    /// order.
    pub fn substitute_poly(&self, v: Var, replacement: &Polynomial) -> Polynomial {
        self.substitute_poly_with(v, replacement, &mut TermScratch::new())
    }

    /// Like [`Polynomial::substitute_poly`], reusing `scratch` as the
    /// working buffer; ElimLin threads one scratch through its whole
    /// substitution sweep.
    pub fn substitute_poly_with(
        &self,
        v: Var,
        replacement: &Polynomial,
        scratch: &mut TermScratch,
    ) -> Polynomial {
        scratch.buf.clear();
        let mut touched = 0;
        for m in self.monomials.iter().filter(|m| m.contains(v)) {
            touched += 1;
            let rest = m.without(v);
            for r in &replacement.monomials {
                scratch.buf.push(r.mul(&rest));
            }
        }
        sort_and_cancel(&mut scratch.buf);
        let kept = self.monomials.iter().filter(|m| !m.contains(v));
        Polynomial {
            monomials: merge_cancel(kept, self.len() - touched, &scratch.buf),
        }
    }

    /// Substitutes variable `v` by the literal `other` (negated when
    /// `negated` is true), i.e. applies the equivalence `v = other` or
    /// `v = ¬other`.
    pub fn substitute_literal(&self, v: Var, other: Var, negated: bool) -> Polynomial {
        let mut replacement = Polynomial::variable(other);
        if negated {
            replacement.toggle_monomial(Monomial::one());
        }
        self.substitute_poly(v, &replacement)
    }

    /// Like [`Polynomial::substitute_literal`], reusing `scratch` as the
    /// working buffer.
    pub fn substitute_literal_with(
        &self,
        v: Var,
        other: Var,
        negated: bool,
        scratch: &mut TermScratch,
    ) -> Polynomial {
        let mut replacement = Polynomial::variable(other);
        if negated {
            replacement.toggle_monomial(Monomial::one());
        }
        self.substitute_poly_with(v, &replacement, scratch)
    }

    /// Substitutes every variable by its `image` at once, reusing `scratch`
    /// as the working buffer; returns `None` when every image is
    /// [`Image::Keep`]. A literal image must itself map to `Keep`, so the
    /// result equals the substitutions made one variable at a time.
    ///
    /// Each monomial expands to `kept · Π (r ⊕ 1)` over its negated
    /// literals `r`, one product per subset of them, and all products are
    /// sorted and cancelled once.
    pub(crate) fn substitute_all_with(
        &self,
        image: impl Fn(Var) -> Image,
        scratch: &mut TermScratch,
    ) -> Option<Polynomial> {
        let keeps = |m: &Monomial| m.vars().iter().all(|&v| image(v) == Image::Keep);
        if self.monomials.iter().all(keeps) {
            return None;
        }
        let TermScratch { buf, kept, negated } = scratch;
        buf.clear();
        'monomials: for m in &self.monomials {
            if keeps(m) {
                buf.push(m.clone());
                continue;
            }
            kept.clear();
            negated.clear();
            for &v in m.vars() {
                match image(v) {
                    Image::Keep => kept.push(v),
                    Image::Const(true) => {}
                    Image::Const(false) => continue 'monomials,
                    Image::Literal(root, false) => kept.push(root),
                    Image::Literal(root, true) => negated.push(root),
                }
            }
            assert!(
                negated.len() < 64,
                "too many negated literals in one monomial"
            );
            for subset in 0u64..1 << negated.len() {
                let chosen = (0..negated.len())
                    .filter(|&i| subset >> i & 1 == 1)
                    .map(|i| negated[i]);
                buf.push(Monomial::from_vars(kept.iter().copied().chain(chosen)));
            }
        }
        sort_and_cancel(buf);
        Some(scratch.emit())
    }

    /// Evaluates the polynomial under the predicate `value(v)`.
    ///
    /// Returns the GF(2) value of the polynomial; the equation `p = 0` is
    /// satisfied exactly when this returns `false`.
    pub fn evaluate<F: Fn(Var) -> bool>(&self, value: F) -> bool {
        self.monomials
            .iter()
            .fold(false, |acc, m| acc ^ m.evaluate(&value))
    }
}

impl Add for Polynomial {
    type Output = Polynomial;

    fn add(mut self, rhs: Polynomial) -> Polynomial {
        AddAssign::add_assign(&mut self, &rhs);
        self
    }
}

impl Add<&Polynomial> for Polynomial {
    type Output = Polynomial;

    fn add(mut self, rhs: &Polynomial) -> Polynomial {
        AddAssign::add_assign(&mut self, rhs);
        self
    }
}

impl AddAssign<&Polynomial> for Polynomial {
    fn add_assign(&mut self, rhs: &Polynomial) {
        Polynomial::add_assign(self, rhs);
    }
}

impl AddAssign for Polynomial {
    fn add_assign(&mut self, rhs: Polynomial) {
        Polynomial::add_assign(self, &rhs);
    }
}

impl Mul for Polynomial {
    type Output = Polynomial;

    fn mul(self, rhs: Polynomial) -> Polynomial {
        Polynomial::mul(&self, &rhs)
    }
}

impl Mul<&Polynomial> for &Polynomial {
    type Output = Polynomial;

    fn mul(self, rhs: &Polynomial) -> Polynomial {
        Polynomial::mul(self, rhs)
    }
}

impl FromIterator<Monomial> for Polynomial {
    fn from_iter<I: IntoIterator<Item = Monomial>>(iter: I) -> Self {
        Polynomial::from_monomials(iter)
    }
}

impl From<Monomial> for Polynomial {
    fn from(m: Monomial) -> Self {
        Polynomial::from_monomial(m)
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Print highest-degree terms first but keep terms of equal degree in
        // ascending variable order, matching the paper's notation
        // (e.g. "x1*x2 + x3 + x4 + 1").
        let mut terms: Vec<&Monomial> = self.monomials.iter().collect();
        terms.sort_by(|a, b| {
            b.degree()
                .cmp(&a.degree())
                .then_with(|| a.vars().cmp(b.vars()))
        });
        for (i, m) in terms.into_iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{m}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polynomial({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Polynomial {
        s.parse().expect("test polynomial must parse")
    }

    #[test]
    fn zero_and_one_constants() {
        assert!(Polynomial::zero().is_zero());
        assert!(Polynomial::one().is_one());
        assert!(Polynomial::constant(false).is_zero());
        assert!(Polynomial::constant(true).is_one());
        assert_eq!(Polynomial::zero().to_string(), "0");
        assert_eq!(Polynomial::one().to_string(), "1");
    }

    #[test]
    fn xor_cancels_pairs() {
        let p = Polynomial::from_monomials([
            Monomial::variable(1),
            Monomial::variable(2),
            Monomial::variable(1),
        ]);
        assert_eq!(p, Polynomial::variable(2));
        let q = p.clone() + Polynomial::variable(2);
        assert!(q.is_zero());
    }

    #[test]
    fn from_monomials_cancels_any_even_multiplicity() {
        let m = Monomial::from_vars([0, 1]);
        let p = Polynomial::from_monomials(vec![m.clone(); 4]);
        assert!(p.is_zero(), "4 copies cancel");
        let q = Polynomial::from_monomials(vec![m.clone(); 3]);
        assert_eq!(q, Polynomial::from_monomial(m), "3 copies leave one");
    }

    #[test]
    fn display_matches_paper_convention() {
        let p = parse("x1*x2 + x3 + x4 + 1");
        assert_eq!(p.to_string(), "x1*x2 + x3 + x4 + 1");
        assert_eq!(p.degree(), 2);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn multiplication_distributes_and_reduces() {
        // (x2 + x3) * x2 = x2 + x2*x3  (using x2*x2 = x2)
        let p = parse("x2 + x3");
        let q = Polynomial::variable(2);
        assert_eq!((&p * &q).to_string(), "x2*x3 + x2");
    }

    #[test]
    fn elimlin_worked_example_from_section_2c() {
        // ANF {x1+x2+x3, x1*x2 + x2*x3 + 1}: substituting x1 = x2 + x3 in the
        // second polynomial must simplify to x2 + 1.
        let second = parse("x1*x2 + x2*x3 + 1");
        let replacement = parse("x2 + x3");
        let result = second.substitute_poly(1, &replacement);
        assert_eq!(result, parse("x2 + 1"));
    }

    #[test]
    fn substitute_const_both_values() {
        let p = parse("x0*x1 + x0 + x2");
        assert_eq!(p.substitute_const(0, false), parse("x2"));
        assert_eq!(p.substitute_const(0, true), parse("x1 + x2 + 1"));
        // Substituting a variable that does not occur leaves p unchanged.
        assert_eq!(p.substitute_const(9, true), p);
    }

    #[test]
    fn substitute_literal_equivalence() {
        // Applying x1 = ¬x3 to x1 + x3 + 1 must give 0 (the equation holds).
        let p = parse("x1 + x3 + 1");
        assert!(p.substitute_literal(1, 3, true).is_zero());
        // Applying x1 = x3 gives 1, a contradiction.
        assert!(p.substitute_literal(1, 3, false).is_one());
    }

    #[test]
    fn scratch_variants_match_the_allocating_ones() {
        let mut scratch = TermScratch::new();
        let p = parse("x0*x1 + x1*x2 + x0 + 1");
        let m = Monomial::from_vars([1, 3]);
        assert_eq!(p.mul_monomial_with(&m, &mut scratch), p.mul_monomial(&m));
        let r = parse("x2 + x3 + 1");
        assert_eq!(
            p.substitute_poly_with(0, &r, &mut scratch),
            p.substitute_poly(0, &r)
        );
        assert_eq!(
            p.substitute_const_with(1, true, &mut scratch),
            p.substitute_const(1, true)
        );
        assert_eq!(
            p.substitute_literal_with(2, 4, true, &mut scratch),
            p.substitute_literal(2, 4, true)
        );
        // The scratch slice view exposes the same terms.
        let terms = p.mul_monomial_scratch(&m, &mut scratch).to_vec();
        assert_eq!(Polynomial::from_monomials(terms), p.mul_monomial(&m));
    }

    #[test]
    fn linear_classification() {
        let linear = parse("x0 + x3 + 1");
        assert!(linear.is_linear());
        assert_eq!(linear.as_linear(), Some((vec![0, 3], true)));
        let nonlinear = parse("x0*x1 + x2");
        assert!(!nonlinear.is_linear());
        assert_eq!(nonlinear.as_linear(), None);
    }

    #[test]
    fn monomial_plus_one_detection() {
        let p = parse("x1*x2*x5 + 1");
        assert_eq!(
            p.as_monomial_plus_one(),
            Some(&Monomial::from_vars([1, 2, 5]))
        );
        assert_eq!(parse("x1*x2 + x3").as_monomial_plus_one(), None);
        assert_eq!(Polynomial::one().as_monomial_plus_one(), None);
    }

    #[test]
    fn evaluate_example_solution() {
        // The unique solution of the Section II-E system is
        // x1=x2=x3=x4=1, x5=0; check the first equation.
        let p = parse("x1*x2 + x3 + x4 + 1");
        let assignment = |v: Var| v != 5;
        assert!(!p.evaluate(assignment), "equation is satisfied");
        assert!(p.evaluate(|_| false), "all-zero violates it");
    }

    #[test]
    fn variables_and_max_var() {
        let p = parse("x7*x2 + x4 + 1");
        assert_eq!(p.variables(), vec![2, 4, 7]);
        assert_eq!(p.max_var(), Some(7));
        assert!(p.contains_var(4));
        assert!(!p.contains_var(5));
    }

    #[test]
    fn variables_merges_overlapping_lists() {
        let p = parse("x0*x2*x4 + x1*x2*x3 + x0*x4 + x5");
        assert_eq!(p.variables(), vec![0, 1, 2, 3, 4, 5]);
        assert!(Polynomial::one().variables().is_empty());
        assert!(Polynomial::zero().variables().is_empty());
    }

    #[test]
    fn leading_monomial_is_graded_lex_max() {
        let p = parse("x0*x1 + x9 + 1");
        assert_eq!(p.leading_monomial(), Some(&Monomial::from_vars([0, 1])));
    }
}
