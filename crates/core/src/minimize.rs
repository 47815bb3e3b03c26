//! Two-level logic minimisation (the ESPRESSO / Karnaugh-map role).
//!
//! The original tool calls ESPRESSO to turn a K-variate polynomial into a
//! near-minimal set of CNF clauses. This module provides the same service
//! with the Quine–McCluskey procedure: prime implicants of the polynomial's
//! ON-set are computed exactly, then a small cover is chosen (essential prime
//! implicants first, greedy afterwards). Each chosen implicant — a forbidden
//! combination of the polynomial's variables — becomes one CNF clause.

use std::collections::{BTreeSet, HashMap};

use bosphorus_anf::{Polynomial, Var};
use bosphorus_cnf::{Clause, Lit};

/// A partial assignment over `k` variables: `values` gives the fixed bits and
/// `cares` marks which positions are fixed (bit set = the variable matters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Implicant {
    values: u32,
    cares: u32,
}

impl Implicant {
    fn covers(&self, minterm: u32) -> bool {
        (minterm ^ self.values) & self.cares == 0
    }

    /// Tries to merge two implicants that differ in exactly one cared-for bit.
    fn merge(&self, other: &Implicant) -> Option<Implicant> {
        if self.cares != other.cares {
            return None;
        }
        let diff = (self.values ^ other.values) & self.cares;
        if diff.count_ones() == 1 {
            Some(Implicant {
                values: self.values & !diff,
                cares: self.cares & !diff,
            })
        } else {
            None
        }
    }
}

/// Computes all prime implicants of the function whose ON-set (over `k`
/// variables, as bitmask minterms) is given.
fn prime_implicants(minterms: &[u32], k: usize) -> Vec<Implicant> {
    let full_mask = if k >= 32 { u32::MAX } else { (1u32 << k) - 1 };
    let mut current: BTreeSet<Implicant> = minterms
        .iter()
        .map(|&m| Implicant {
            values: m & full_mask,
            cares: full_mask,
        })
        .collect();
    let mut primes: Vec<Implicant> = Vec::new();
    while !current.is_empty() {
        let items: Vec<Implicant> = current.iter().copied().collect();
        let mut merged_flags = vec![false; items.len()];
        let mut next: BTreeSet<Implicant> = BTreeSet::new();
        for i in 0..items.len() {
            for j in (i + 1)..items.len() {
                if let Some(m) = items[i].merge(&items[j]) {
                    merged_flags[i] = true;
                    merged_flags[j] = true;
                    next.insert(m);
                }
            }
        }
        for (item, merged) in items.iter().zip(&merged_flags) {
            if !merged && !primes.contains(item) {
                primes.push(*item);
            }
        }
        current = next;
    }
    primes
}

/// Selects a small cover of the minterms using essential prime implicants
/// followed by a greedy set cover.
fn select_cover(minterms: &[u32], primes: &[Implicant]) -> Vec<Implicant> {
    let mut uncovered: BTreeSet<u32> = minterms.iter().copied().collect();
    let mut cover: Vec<Implicant> = Vec::new();
    // Essential primes: minterms covered by exactly one prime.
    for &m in minterms {
        let covering: Vec<&Implicant> = primes.iter().filter(|p| p.covers(m)).collect();
        if covering.len() == 1 && !cover.contains(covering[0]) {
            cover.push(*covering[0]);
        }
    }
    for p in &cover {
        uncovered.retain(|&m| !p.covers(m));
    }
    // Greedy: repeatedly take the prime covering the most uncovered minterms.
    while !uncovered.is_empty() {
        let best = primes
            .iter()
            .max_by_key(|p| uncovered.iter().filter(|&&m| p.covers(m)).count())
            .copied()
            .expect("uncovered minterms imply at least one prime exists");
        uncovered.retain(|&m| !best.covers(m));
        if cover.contains(&best) {
            // Should not happen, but guards against an infinite loop.
            break;
        }
        cover.push(best);
    }
    cover
}

/// Converts a polynomial over at most 32 variables into a near-minimal set of
/// CNF clauses over the *original* variables, expressing the constraint
/// `p = 0`.
///
/// This is the "Karnaugh map" conversion path of the paper (Section III-C,
/// option 1): no auxiliary variables are introduced.
///
/// Returns `None` when the polynomial mentions more variables than `max_vars`
/// (the caller should fall back to the Tseitin-style encoding) and
/// `Some(clauses)` otherwise. A constant `1` polynomial yields the empty
/// clause; the zero polynomial yields no clauses.
///
/// # Examples
///
/// ```
/// use bosphorus::karnaugh_clauses;
/// use bosphorus_anf::Polynomial;
///
/// // The paper's Fig. 2 example: x1x3 + x1 + x2 + x4 + 1 needs only 6
/// // clauses with the Karnaugh-map conversion (vs 11 with Tseitin).
/// let p: Polynomial = "x1*x3 + x1 + x2 + x4 + 1".parse()?;
/// let clauses = karnaugh_clauses(&p, 8).expect("4 variables is within K");
/// assert_eq!(clauses.len(), 6);
/// # Ok::<(), bosphorus_anf::ParsePolynomialError>(())
/// ```
pub fn karnaugh_clauses(poly: &Polynomial, max_vars: usize) -> Option<Vec<Clause>> {
    Some(match on_set(poly, max_vars)? {
        OnSet::Decided(clauses) => clauses,
        OnSet::Table { vars, minterms } => {
            clauses_from_cover(&vars, &minimal_cover(&minterms, vars.len()))
        }
    })
}

/// Supports of at most this many variables have their covers memoised: the
/// truth table then fits the fixed-size key of [`KarnaughCache`].
const CACHED_MAX_VARS: usize = 8;

/// Memoised Karnaugh covers for one CNF conversion.
///
/// The cover [`karnaugh_clauses`] chooses depends only on the truth table
/// of the polynomial over its sorted support — the support size and the
/// ON-set — so it is computed once per distinct table and mapped onto each
/// polynomial's own variables. A conversion sees few distinct tables (the
/// S-box and round equations of a cipher repeat over fresh variables), so
/// Quine–McCluskey runs a handful of times instead of once per polynomial.
/// The clauses are exactly those of [`karnaugh_clauses`].
#[derive(Debug, Default)]
pub(crate) struct KarnaughCache {
    /// `(support size, ON-set bitmap)` → the chosen implicants.
    covers: HashMap<(u8, [u64; 4]), Vec<Implicant>>,
}

impl KarnaughCache {
    /// [`karnaugh_clauses`] through the memo.
    pub(crate) fn clauses(&mut self, poly: &Polynomial, max_vars: usize) -> Option<Vec<Clause>> {
        Some(match on_set(poly, max_vars)? {
            OnSet::Decided(clauses) => clauses,
            OnSet::Table { vars, minterms } => {
                let k = vars.len();
                if k > CACHED_MAX_VARS {
                    return Some(clauses_from_cover(&vars, &minimal_cover(&minterms, k)));
                }
                let mut table = [0u64; 4];
                for &m in &minterms {
                    table[m as usize / 64] |= 1 << (m % 64);
                }
                let cover = self
                    .covers
                    .entry((k as u8, table))
                    .or_insert_with(|| minimal_cover(&minterms, k));
                clauses_from_cover(&vars, cover)
            }
        })
    }

    /// Distinct truth tables memoised so far.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> usize {
        self.covers.len()
    }
}

/// What the constraint `p = 0` needs from the minimiser.
enum OnSet {
    /// Answered without a cover: no clauses, or the empty clause.
    Decided(Vec<Clause>),
    /// The sorted support and the assignments over it (bit `i` = `vars[i]`)
    /// where `p = 1`: neither empty nor everything.
    Table { vars: Vec<Var>, minterms: Vec<u32> },
}

/// The ON-set of `poly` over its support, or `None` when the support is
/// wider than `max_vars` (or 32).
fn on_set(poly: &Polynomial, max_vars: usize) -> Option<OnSet> {
    if poly.is_zero() {
        return Some(OnSet::Decided(Vec::new()));
    }
    if poly.is_one() {
        return Some(OnSet::Decided(vec![Clause::empty()]));
    }
    let vars: Vec<Var> = poly.variables();
    if vars.len() > max_vars.min(32) {
        return None;
    }
    let k = vars.len();
    // ON-set of the polynomial: assignments (over the support) where p = 1.
    // These are the forbidden assignments for the equation p = 0. Each
    // monomial is precompiled to a bitmask over the support, so evaluating
    // one assignment is a mask test per term instead of a positional lookup
    // per variable occurrence.
    let masks: Vec<u32> = poly
        .monomials()
        .iter()
        .map(|m| {
            m.vars().iter().fold(0u32, |acc, v| {
                let idx = vars.binary_search(v).expect("v is in support");
                acc | 1 << idx
            })
        })
        .collect();
    let minterms: Vec<u32> = (0u32..(1 << k))
        .filter(|&bits| {
            masks
                .iter()
                .fold(false, |acc, &mask| acc ^ ((bits & mask) == mask))
        })
        .collect();
    if minterms.is_empty() {
        // p is identically zero on its support (cannot happen for a reduced
        // ANF, but handle it defensively).
        return Some(OnSet::Decided(Vec::new()));
    }
    if minterms.len() == 1 << k {
        return Some(OnSet::Decided(vec![Clause::empty()]));
    }
    Some(OnSet::Table { vars, minterms })
}

/// Quine–McCluskey: the prime implicants of the ON-set, then a small cover.
fn minimal_cover(minterms: &[u32], k: usize) -> Vec<Implicant> {
    let primes = prime_implicants(minterms, k);
    select_cover(minterms, &primes)
}

/// One clause per implicant, over the support `vars`.
fn clauses_from_cover(vars: &[Var], cover: &[Implicant]) -> Vec<Clause> {
    cover
        .iter()
        .map(|imp| {
            Clause::from_lits(
                (0..vars.len())
                    .filter(|&i| imp.cares >> i & 1 == 1)
                    .map(|i| {
                        // Forbid the implicant: the literal must be false exactly on
                        // the covered assignments.
                        Lit::new(vars[i], imp.values >> i & 1 == 1)
                    }),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(s: &str) -> Polynomial {
        s.parse().expect("test polynomial parses")
    }

    /// Checks that the clauses are satisfied exactly by the assignments on
    /// which the polynomial evaluates to zero.
    fn assert_equivalent(p: &Polynomial, clauses: &[Clause]) {
        let vars = p.variables();
        let k = vars.len();
        for bits in 0u32..(1 << k) {
            let value = |v: Var| {
                let idx = vars.iter().position(|&w| w == v).expect("in support");
                (bits >> idx) & 1 == 1
            };
            let poly_zero = !p.evaluate(value);
            let clauses_ok = clauses.iter().all(|c| c.evaluate(value));
            assert_eq!(poly_zero, clauses_ok, "mismatch at assignment {bits:b}");
        }
    }

    #[test]
    fn fig2_example_produces_six_clauses() {
        let p = poly("x1*x3 + x1 + x2 + x4 + 1");
        let clauses = karnaugh_clauses(&p, 8).expect("within K");
        assert_eq!(clauses.len(), 6, "paper's Fig. 2 reports 6 clauses");
        assert_equivalent(&p, &clauses);
    }

    #[test]
    fn simple_equations() {
        // x0 = 0  ->  single clause ¬x0.
        let clauses = karnaugh_clauses(&poly("x0"), 8).expect("within K");
        assert_eq!(clauses, vec![Clause::from_lits([Lit::negative(0)])]);
        // x0 + 1 = 0  ->  single clause x0.
        let clauses = karnaugh_clauses(&poly("x0 + 1"), 8).expect("within K");
        assert_eq!(clauses, vec![Clause::from_lits([Lit::positive(0)])]);
    }

    #[test]
    fn conjunction_fact() {
        // x0*x1 + 1 = 0 forces both variables to 1: two unit clauses.
        let clauses = karnaugh_clauses(&poly("x0*x1 + 1"), 8).expect("within K");
        assert_eq!(clauses.len(), 2);
        assert_equivalent(&poly("x0*x1 + 1"), &clauses);
    }

    #[test]
    fn xor_of_two_variables() {
        // x0 + x1 = 0 (equality) needs exactly two binary clauses.
        let p = poly("x0 + x1");
        let clauses = karnaugh_clauses(&p, 8).expect("within K");
        assert_eq!(clauses.len(), 2);
        assert_equivalent(&p, &clauses);
    }

    #[test]
    fn constants_and_limits() {
        assert_eq!(karnaugh_clauses(&Polynomial::zero(), 8), Some(Vec::new()));
        assert_eq!(
            karnaugh_clauses(&Polynomial::one(), 8),
            Some(vec![Clause::empty()])
        );
        // Too many variables for the requested K.
        let wide = poly("x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8");
        assert_eq!(karnaugh_clauses(&wide, 8), None);
    }

    #[test]
    fn random_polynomials_are_equivalent() {
        for text in [
            "x0*x1 + x2",
            "x0*x1*x2 + x0 + x3 + 1",
            "x0*x2 + x1*x3 + x2*x3",
            "x0 + x1 + x2 + x3 + 1",
            "x0*x1 + x0*x2 + x0*x3 + x1*x2*x3",
        ] {
            let p = poly(text);
            let clauses = karnaugh_clauses(&p, 8).expect("within K");
            assert_equivalent(&p, &clauses);
        }
    }

    #[test]
    fn cover_is_not_larger_than_onset() {
        let p = poly("x0*x1 + x2*x3 + 1");
        let clauses = karnaugh_clauses(&p, 8).expect("within K");
        // Never worse than one clause per forbidden assignment.
        assert!(clauses.len() <= 16);
        assert_equivalent(&p, &clauses);
    }
}
