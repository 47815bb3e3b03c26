//! Systems of ANF polynomial equations.

use std::fmt;

use crate::{Assignment, Polynomial, Var};

/// An ordered system of Boolean polynomial equations over a shared variable
/// space `x0 .. x{n-1}`.
///
/// Each polynomial denotes the equation `p = 0`; the system is satisfied by
/// an assignment exactly when every polynomial evaluates to zero.
///
/// The system tracks the number of variables explicitly so that variables
/// which have been eliminated (and no longer occur in any polynomial) still
/// count towards the problem size, mirroring the master-copy ANF kept by
/// Bosphorus.
///
/// # Examples
///
/// ```
/// use bosphorus_anf::PolynomialSystem;
///
/// let system = PolynomialSystem::parse("x0*x1 + 1; x1 + x2;")?;
/// assert_eq!(system.len(), 2);
/// assert_eq!(system.num_vars(), 3);
/// assert_eq!(system.max_degree(), 2);
/// # Ok::<(), bosphorus_anf::ParseSystemError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct PolynomialSystem {
    polynomials: Vec<Polynomial>,
    num_vars: usize,
}

impl PolynomialSystem {
    /// Creates an empty system with no variables.
    pub fn new() -> Self {
        PolynomialSystem::default()
    }

    /// Creates an empty system over `num_vars` variables.
    pub fn with_num_vars(num_vars: usize) -> Self {
        PolynomialSystem {
            polynomials: Vec::new(),
            num_vars,
        }
    }

    /// Builds a system from polynomials, inferring the variable count from
    /// the largest variable index present.
    pub fn from_polynomials<I: IntoIterator<Item = Polynomial>>(polys: I) -> Self {
        let mut system = PolynomialSystem::new();
        system.extend(polys);
        system
    }

    /// Number of polynomial equations.
    pub fn len(&self) -> usize {
        self.polynomials.len()
    }

    /// Returns `true` if the system has no equations.
    pub fn is_empty(&self) -> bool {
        self.polynomials.is_empty()
    }

    /// Number of variables in the system's variable space.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Grows the variable space to at least `num_vars` variables.
    ///
    /// Shrinking is not supported; a smaller value is ignored.
    pub fn ensure_num_vars(&mut self, num_vars: usize) {
        self.num_vars = self.num_vars.max(num_vars);
    }

    /// Allocates and returns a fresh variable index.
    pub fn new_var(&mut self) -> Var {
        let v = self.num_vars as Var;
        self.num_vars += 1;
        v
    }

    /// The polynomials in insertion order.
    pub fn polynomials(&self) -> &[Polynomial] {
        &self.polynomials
    }

    /// The polynomials, for propagation to rewrite and compact in place.
    pub(crate) fn polynomials_mut(&mut self) -> &mut Vec<Polynomial> {
        &mut self.polynomials
    }

    /// Iterates over the polynomials.
    pub fn iter(&self) -> std::slice::Iter<'_, Polynomial> {
        self.polynomials.iter()
    }

    /// Mutable access to polynomial `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn polynomial_mut(&mut self, idx: usize) -> &mut Polynomial {
        &mut self.polynomials[idx]
    }

    /// Replaces polynomial `idx` with `poly`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn replace(&mut self, idx: usize, poly: Polynomial) {
        self.ensure_num_vars(poly.max_var().map_or(0, |v| v as usize + 1));
        self.polynomials[idx] = poly;
    }

    /// Appends a polynomial, growing the variable space if needed.
    pub fn push(&mut self, poly: Polynomial) {
        self.ensure_num_vars(poly.max_var().map_or(0, |v| v as usize + 1));
        self.polynomials.push(poly);
    }

    /// Appends a polynomial only if it is non-zero and an equal polynomial is
    /// not already present; returns `true` if it was inserted.
    ///
    /// This compares against every equation. The master ANF copy of the
    /// engine, [`AnfDatabase`](crate::AnfDatabase), keeps a hash index of
    /// its rows instead.
    pub fn push_unique(&mut self, poly: Polynomial) -> bool {
        if poly.is_zero() || self.polynomials.contains(&poly) {
            false
        } else {
            self.push(poly);
            true
        }
    }

    /// Returns `true` if any equation is the contradiction `1 = 0`.
    pub fn has_contradiction(&self) -> bool {
        self.polynomials.iter().any(Polynomial::is_one)
    }

    /// The maximum total degree over all equations (0 for an empty system).
    pub fn max_degree(&self) -> usize {
        self.polynomials
            .iter()
            .map(Polynomial::degree)
            .max()
            .unwrap_or(0)
    }

    /// Total number of monomial occurrences across all equations.
    pub fn total_terms(&self) -> usize {
        self.polynomials.iter().map(Polynomial::len).sum()
    }

    /// Builds the occurrence list: for each variable, the indices of the
    /// polynomials it occurs in, ascending.
    ///
    /// This is the occurrence-list optimisation Bosphorus borrows from the
    /// SAT literature: propagation uses these lists so that new knowledge
    /// about a variable only touches the polynomials listed for it.
    pub fn occurrence_lists(&self) -> Vec<Vec<u32>> {
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); self.num_vars];
        for (idx, poly) in (0..).zip(&self.polynomials) {
            for m in poly.monomials() {
                for &v in m.vars() {
                    let list = &mut occ[v as usize];
                    if list.last() != Some(&idx) {
                        list.push(idx);
                    }
                }
            }
        }
        occ
    }

    /// Evaluates the whole system under `assignment`, returning `true` when
    /// every equation is satisfied.
    ///
    /// # Panics
    ///
    /// Panics if the assignment has fewer variables than the system.
    pub fn is_satisfied_by(&self, assignment: &Assignment) -> bool {
        assert!(
            assignment.len() >= self.num_vars,
            "assignment covers {} variables but the system has {}",
            assignment.len(),
            self.num_vars
        );
        self.polynomials
            .iter()
            .all(|p| !p.evaluate(|v| assignment.get(v)))
    }

    /// Consumes the system and returns its polynomials.
    pub fn into_polynomials(self) -> Vec<Polynomial> {
        self.polynomials
    }
}

impl Extend<Polynomial> for PolynomialSystem {
    fn extend<I: IntoIterator<Item = Polynomial>>(&mut self, iter: I) {
        for p in iter {
            self.push(p);
        }
    }
}

impl FromIterator<Polynomial> for PolynomialSystem {
    fn from_iter<I: IntoIterator<Item = Polynomial>>(iter: I) -> Self {
        PolynomialSystem::from_polynomials(iter)
    }
}

impl IntoIterator for PolynomialSystem {
    type Item = Polynomial;
    type IntoIter = std::vec::IntoIter<Polynomial>;

    fn into_iter(self) -> Self::IntoIter {
        self.polynomials.into_iter()
    }
}

impl<'a> IntoIterator for &'a PolynomialSystem {
    type Item = &'a Polynomial;
    type IntoIter = std::slice::Iter<'a, Polynomial>;

    fn into_iter(self) -> Self::IntoIter {
        self.polynomials.iter()
    }
}

impl fmt::Display for PolynomialSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.polynomials {
            writeln!(f, "{p};")?;
        }
        Ok(())
    }
}

impl fmt::Debug for PolynomialSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PolynomialSystem({} equations, {} variables)",
            self.len(),
            self.num_vars
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section_2e_system() -> PolynomialSystem {
        PolynomialSystem::parse(
            "x1*x2 + x3 + x4 + 1;
             x1*x2*x3 + x1 + x3 + 1;
             x1*x3 + x3*x4*x5 + x3;
             x2*x3 + x3*x5 + 1;
             x2*x3 + x5 + 1;",
        )
        .expect("paper system parses")
    }

    #[test]
    fn parse_infers_variable_count() {
        let s = section_2e_system();
        assert_eq!(s.len(), 5);
        assert_eq!(s.num_vars(), 6, "variables x0..x5");
        assert_eq!(s.max_degree(), 3);
    }

    #[test]
    fn paper_solution_satisfies_system() {
        let s = section_2e_system();
        // x1 = x2 = x3 = x4 = 1, x5 = 0 (x0 unused).
        let good = Assignment::from_bits([false, true, true, true, true, false]);
        assert!(s.is_satisfied_by(&good));
        let bad = Assignment::from_bits([false, true, true, true, true, true]);
        assert!(!s.is_satisfied_by(&bad));
    }

    #[test]
    fn push_unique_deduplicates() {
        let mut s = PolynomialSystem::new();
        let p: Polynomial = "x0 + 1".parse().expect("parses");
        assert!(s.push_unique(p.clone()));
        assert!(!s.push_unique(p));
        assert!(!s.push_unique(Polynomial::zero()));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn occurrence_lists_match_paper_observation() {
        // In the Section II-E system, x1 does not occur in the last two
        // equations (indices 3 and 4), so its occurrence list is {0,1,2}.
        let s = section_2e_system();
        let occ = s.occurrence_lists();
        assert_eq!(occ[1], vec![0, 1, 2]);
        assert_eq!(occ[5], vec![2, 3, 4]);
        assert!(occ[0].is_empty(), "x0 never occurs");
    }

    #[test]
    fn contradiction_detection() {
        let mut s = PolynomialSystem::new();
        s.push("x0 + 1".parse().expect("parses"));
        assert!(!s.has_contradiction());
        s.push(Polynomial::one());
        assert!(s.has_contradiction());
    }

    #[test]
    fn new_var_grows_space() {
        let mut s = PolynomialSystem::with_num_vars(3);
        assert_eq!(s.new_var(), 3);
        assert_eq!(s.new_var(), 4);
        assert_eq!(s.num_vars(), 5);
    }

    #[test]
    fn collect_from_iterator() {
        let polys: Vec<Polynomial> = vec![
            "x0".parse().expect("parses"),
            "x3 + 1".parse().expect("parses"),
        ];
        let s: PolynomialSystem = polys.into_iter().collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_vars(), 4);
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let s = section_2e_system();
        let printed = s.to_string();
        let reparsed = PolynomialSystem::parse(&printed).expect("round-trip parses");
        assert_eq!(reparsed.polynomials(), s.polynomials());
    }
}
