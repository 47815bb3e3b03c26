//! CNF formulas: conjunctions of clauses.

use std::error::Error;
use std::fmt;

use crate::{Clause, CnfVar, Lit};

/// Error returned by [`CnfFormula::evaluate`] when the valuation does not
/// cover all variables of the formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvaluateError {
    /// Number of variables in the formula.
    pub num_vars: usize,
    /// Number of values supplied.
    pub supplied: usize,
}

impl fmt::Display for EvaluateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "valuation covers {} variables but the formula has {}",
            self.supplied, self.num_vars
        )
    }
}

impl Error for EvaluateError {}

/// A CNF formula: a conjunction of [`Clause`]s over variables
/// `x0 .. x{n-1}`.
///
/// # Examples
///
/// ```
/// use bosphorus_cnf::{CnfFormula, Lit};
///
/// let mut cnf = CnfFormula::new(3);
/// cnf.add_clause([Lit::positive(0), Lit::positive(1)]);
/// cnf.add_clause([Lit::negative(0), Lit::positive(2)]);
/// assert_eq!(cnf.num_vars(), 3);
/// assert_eq!(cnf.num_clauses(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CnfFormula {
    clauses: Vec<Clause>,
    num_vars: usize,
}

impl CnfFormula {
    /// Creates an empty formula over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        CnfFormula {
            clauses: Vec::new(),
            num_vars,
        }
    }

    /// Builds a formula from clauses, inferring the variable count.
    pub fn from_clauses<I: IntoIterator<Item = Clause>>(clauses: I) -> Self {
        let mut cnf = CnfFormula::new(0);
        for c in clauses {
            cnf.push_clause(c);
        }
        cnf
    }

    /// Number of variables in the formula's variable space.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Returns `true` if the formula has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The clauses in insertion order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Iterates over the clauses.
    pub fn iter(&self) -> std::slice::Iter<'_, Clause> {
        self.clauses.iter()
    }

    /// Grows the variable space to at least `num_vars` variables.
    pub fn ensure_num_vars(&mut self, num_vars: usize) {
        self.num_vars = self.num_vars.max(num_vars);
    }

    /// Allocates and returns a fresh variable.
    pub fn new_var(&mut self) -> CnfVar {
        let v = self.num_vars as CnfVar;
        self.num_vars += 1;
        v
    }

    /// Adds a clause built from the given literals.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.push_clause(Clause::from_lits(lits));
    }

    /// Adds an already-built clause, growing the variable space if needed.
    pub fn push_clause(&mut self, clause: Clause) {
        if let Some(max) = clause.max_var() {
            self.ensure_num_vars(max as usize + 1);
        }
        self.clauses.push(clause);
    }

    /// Returns `true` if the formula contains an empty clause (trivially
    /// unsatisfiable).
    pub fn has_empty_clause(&self) -> bool {
        self.clauses.iter().any(Clause::is_empty)
    }

    /// Total number of literal occurrences.
    pub fn num_literals(&self) -> usize {
        self.clauses.iter().map(Clause::len).sum()
    }

    /// Removes tautological clauses and exact duplicates. Returns how many
    /// clauses were removed.
    pub fn simplify_trivial(&mut self) -> usize {
        let before = self.clauses.len();
        let mut seen: Vec<Clause> = Vec::with_capacity(before);
        for c in self.clauses.drain(..) {
            if !c.is_tautology() && !seen.contains(&c) {
                seen.push(c);
            }
        }
        self.clauses = seen;
        before - self.clauses.len()
    }

    /// Evaluates the formula under a complete valuation indexed by variable.
    ///
    /// # Errors
    ///
    /// Returns [`EvaluateError`] if `values` has fewer entries than
    /// [`CnfFormula::num_vars`].
    pub fn evaluate(&self, values: &[bool]) -> Result<bool, EvaluateError> {
        if values.len() < self.num_vars {
            return Err(EvaluateError {
                num_vars: self.num_vars,
                supplied: values.len(),
            });
        }
        Ok(self
            .clauses
            .iter()
            .all(|c| c.evaluate(|v| values[v as usize])))
    }
}

impl Extend<Clause> for CnfFormula {
    fn extend<I: IntoIterator<Item = Clause>>(&mut self, iter: I) {
        for c in iter {
            self.push_clause(c);
        }
    }
}

impl FromIterator<Clause> for CnfFormula {
    fn from_iter<I: IntoIterator<Item = Clause>>(iter: I) -> Self {
        CnfFormula::from_clauses(iter)
    }
}

impl fmt::Display for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "({c})")?;
        }
        Ok(())
    }
}

impl fmt::Debug for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CnfFormula({} vars, {} clauses)",
            self.num_vars,
            self.clauses.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_clause_grows_vars() {
        let mut cnf = CnfFormula::new(0);
        cnf.add_clause([Lit::positive(4)]);
        assert_eq!(cnf.num_vars(), 5);
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.num_literals(), 1);
    }

    #[test]
    fn evaluate_requires_full_valuation() {
        let mut cnf = CnfFormula::new(2);
        cnf.add_clause([Lit::positive(0), Lit::positive(1)]);
        assert_eq!(
            cnf.evaluate(&[true]),
            Err(EvaluateError {
                num_vars: 2,
                supplied: 1
            })
        );
        assert_eq!(cnf.evaluate(&[false, true]), Ok(true));
        assert_eq!(cnf.evaluate(&[false, false]), Ok(false));
    }

    #[test]
    fn simplify_removes_tautologies_and_duplicates() {
        let mut cnf = CnfFormula::new(2);
        cnf.add_clause([Lit::positive(0), Lit::negative(0)]);
        cnf.add_clause([Lit::positive(1)]);
        cnf.add_clause([Lit::positive(1)]);
        assert_eq!(cnf.simplify_trivial(), 2);
        assert_eq!(cnf.num_clauses(), 1);
    }

    #[test]
    fn empty_clause_detection() {
        let mut cnf = CnfFormula::new(1);
        assert!(!cnf.has_empty_clause());
        cnf.push_clause(Clause::empty());
        assert!(cnf.has_empty_clause());
        assert_eq!(cnf.evaluate(&[true]), Ok(false));
    }

    #[test]
    fn new_var_allocation() {
        let mut cnf = CnfFormula::new(3);
        assert_eq!(cnf.new_var(), 3);
        assert_eq!(cnf.num_vars(), 4);
    }

    #[test]
    fn collect_and_display() {
        let cnf: CnfFormula = vec![
            Clause::from_lits([Lit::positive(0)]),
            Clause::from_lits([Lit::negative(1), Lit::positive(0)]),
        ]
        .into_iter()
        .collect();
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.to_string(), "(x0) ∧ (x0 ∨ ¬x1)");
    }
}
