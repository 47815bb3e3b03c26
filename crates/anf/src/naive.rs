//! The *reference* term layer: the seed implementation of monomials and
//! polynomials, kept verbatim as an executable specification.
//!
//! The production [`Monomial`]/[`Polynomial`] types use an inline
//! small-buffer representation and merge-based arithmetic; this module
//! preserves the original heap-`Vec` monomials, insert-per-term polynomial
//! construction and merge-per-partial-product multiplication. It is compiled
//! only for tests: the property tests in `crates/anf` assert that every
//! production operation is observationally identical to this model.

use std::cmp::Ordering;

use crate::{Monomial, Polynomial, Var};

/// The seed monomial: a sorted, de-duplicated heap-allocated variable list.
#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
pub struct NaiveMonomial {
    vars: Vec<Var>,
}

impl NaiveMonomial {
    /// The constant monomial `1`.
    pub fn one() -> Self {
        NaiveMonomial { vars: Vec::new() }
    }

    /// Builds a monomial from an iterator of variables; duplicates collapse.
    pub fn from_vars<I: IntoIterator<Item = Var>>(vars: I) -> Self {
        let mut vars: Vec<Var> = vars.into_iter().collect();
        vars.sort_unstable();
        vars.dedup();
        NaiveMonomial { vars }
    }

    /// The sorted variable indices.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// The total degree.
    pub fn degree(&self) -> usize {
        self.vars.len()
    }

    /// Returns `true` if the monomial contains variable `v`.
    pub fn contains(&self, v: Var) -> bool {
        self.vars.binary_search(&v).is_ok()
    }

    /// Product of two monomials (the seed's allocating sorted merge).
    pub fn mul(&self, other: &NaiveMonomial) -> NaiveMonomial {
        let mut vars = Vec::with_capacity(self.vars.len() + other.vars.len());
        let (mut i, mut j) = (0, 0);
        while i < self.vars.len() && j < other.vars.len() {
            match self.vars[i].cmp(&other.vars[j]) {
                Ordering::Less => {
                    vars.push(self.vars[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    vars.push(other.vars[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    vars.push(self.vars[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        vars.extend_from_slice(&self.vars[i..]);
        vars.extend_from_slice(&other.vars[j..]);
        NaiveMonomial { vars }
    }

    /// Removes variable `v`, returning `true` if it was present.
    pub fn remove_var(&mut self, v: Var) -> bool {
        if let Ok(pos) = self.vars.binary_search(&v) {
            self.vars.remove(pos);
            true
        } else {
            false
        }
    }

    /// Converts to the production monomial type.
    pub fn to_monomial(&self) -> Monomial {
        Monomial::from_vars(self.vars.iter().copied())
    }
}

impl From<&Monomial> for NaiveMonomial {
    fn from(m: &Monomial) -> Self {
        NaiveMonomial {
            vars: m.vars().to_vec(),
        }
    }
}

impl PartialOrd for NaiveMonomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NaiveMonomial {
    fn cmp(&self, other: &Self) -> Ordering {
        // Graded lexicographic, as in the seed.
        self.degree()
            .cmp(&other.degree())
            .then_with(|| self.vars.cmp(&other.vars))
    }
}

/// The seed polynomial: a sorted monomial vector built by binary-search
/// insert/remove per term (O(n²) construction) with merge-per-partial-product
/// multiplication.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct NaivePolynomial {
    monomials: Vec<NaiveMonomial>,
}

impl NaivePolynomial {
    /// The zero polynomial.
    pub fn zero() -> Self {
        NaivePolynomial {
            monomials: Vec::new(),
        }
    }

    /// Builds a polynomial by toggling the monomials in one at a time (the
    /// seed's `from_monomials`).
    pub fn from_monomials<I: IntoIterator<Item = NaiveMonomial>>(monomials: I) -> Self {
        let mut p = NaivePolynomial::zero();
        for m in monomials {
            p.toggle_monomial(m);
        }
        p
    }

    /// Returns `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.monomials.is_empty()
    }

    /// The number of terms.
    pub fn len(&self) -> usize {
        self.monomials.len()
    }

    /// XORs a single monomial in (insert if absent, cancel if present).
    pub fn toggle_monomial(&mut self, m: NaiveMonomial) {
        match self.monomials.binary_search(&m) {
            Ok(pos) => {
                self.monomials.remove(pos);
            }
            Err(pos) => {
                self.monomials.insert(pos, m);
            }
        }
    }

    /// XORs `other` into `self` via the seed's sorted merge.
    pub fn add_assign(&mut self, other: &NaivePolynomial) {
        let mut out = Vec::with_capacity(self.monomials.len() + other.monomials.len());
        let (a, b) = (&self.monomials, &other.monomials);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    out.push(a[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j].clone());
                    j += 1;
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        self.monomials = out;
    }

    /// Multiplies by a single monomial (toggle-insert per product term).
    pub fn mul_monomial(&self, m: &NaiveMonomial) -> NaivePolynomial {
        NaivePolynomial::from_monomials(self.monomials.iter().map(|t| t.mul(m)))
    }

    /// Product of two polynomials, one merged partial product at a time.
    pub fn mul(&self, other: &NaivePolynomial) -> NaivePolynomial {
        let mut out = NaivePolynomial::zero();
        for m in &other.monomials {
            out.add_assign(&self.mul_monomial(m));
        }
        out
    }

    /// Substitutes the constant `value` for variable `v` (the seed's
    /// toggle-per-monomial loop).
    pub fn substitute_const(&self, v: Var, value: bool) -> NaivePolynomial {
        let mut out = NaivePolynomial::zero();
        for m in &self.monomials {
            if !m.contains(v) {
                out.toggle_monomial(m.clone());
            } else if value {
                let mut reduced = m.clone();
                reduced.remove_var(v);
                out.toggle_monomial(reduced);
            }
        }
        out
    }

    /// Substitutes the polynomial `replacement` for variable `v` (merging
    /// one partial product per affected monomial, as the seed did).
    pub fn substitute_poly(&self, v: Var, replacement: &NaivePolynomial) -> NaivePolynomial {
        let mut out = NaivePolynomial::zero();
        for m in &self.monomials {
            if m.contains(v) {
                let mut rest = m.clone();
                rest.remove_var(v);
                out.add_assign(&replacement.mul_monomial(&rest));
            } else {
                out.toggle_monomial(m.clone());
            }
        }
        out
    }

    /// Converts to the production polynomial type.
    pub fn to_polynomial(&self) -> Polynomial {
        Polynomial::from_monomials(self.monomials.iter().map(NaiveMonomial::to_monomial))
    }
}

impl From<&Polynomial> for NaivePolynomial {
    fn from(p: &Polynomial) -> Self {
        // The production representation is already sorted and distinct, and
        // the two orders agree, so the terms can be taken as-is.
        NaivePolynomial {
            monomials: p.monomials().iter().map(NaiveMonomial::from).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_the_production_types() {
        let p: Polynomial = "x0*x1*x2*x3*x4 + x1*x2 + x5 + 1".parse().expect("parses");
        let naive = NaivePolynomial::from(&p);
        assert_eq!(naive.to_polynomial(), p);
        assert_eq!(naive.len(), p.len());
    }

    #[test]
    fn naive_ops_behave_like_the_seed() {
        let a = NaivePolynomial::from_monomials([
            NaiveMonomial::from_vars([0, 1]),
            NaiveMonomial::one(),
        ]);
        let b = NaivePolynomial::from_monomials([NaiveMonomial::from_vars([1])]);
        let product = a.mul(&b);
        // (x0x1 + 1) * x1 = x0x1 + x1.
        assert_eq!(
            product.to_polynomial(),
            "x0*x1 + x1".parse::<Polynomial>().expect("parses")
        );
        let mut sum = a.clone();
        sum.add_assign(&a);
        assert!(sum.is_zero(), "p + p = 0");
    }
}
