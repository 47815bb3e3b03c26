//! CNF formulas: conjunctions of clauses.

use std::error::Error;
use std::fmt;

use crate::{clause, CnfVar, Lit};

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

/// A CNF formula: a conjunction of clauses over variables `x0 .. x{n-1}`.
///
/// The clauses live back to back in one literal arena, each sorted by code
/// and free of duplicate literals, so adding a clause allocates nothing of
/// its own. [`CnfFormula::iter`] and [`CnfFormula::clause`] hand out each
/// clause as a literal slice.
///
/// # Examples
///
/// ```
/// use bosphorus_cnf::{CnfFormula, Lit};
///
/// let mut cnf = CnfFormula::new(3);
/// cnf.add_clause([Lit::positive(1), Lit::positive(0)]);
/// cnf.add_clause([Lit::negative(0), Lit::positive(2)]);
/// assert_eq!(cnf.num_vars(), 3);
/// assert_eq!(cnf.num_clauses(), 2);
/// assert_eq!(cnf.clause(0), &[Lit::positive(0), Lit::positive(1)]);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CnfFormula {
    /// Every clause's literals, in clause order.
    lits: Vec<Lit>,
    /// Where each clause ends in `lits`: clause `i` is
    /// `lits[ends[i - 1]..ends[i]]` (from 0 for the first).
    ends: Vec<usize>,
    num_vars: usize,
}

impl CnfFormula {
    /// Creates an empty formula over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        CnfFormula {
            lits: Vec::new(),
            ends: Vec::new(),
            num_vars,
        }
    }

    /// Number of variables in the formula's variable space.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` if the formula has no clauses.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The literals of clause `index` (in insertion order), sorted by code.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`CnfFormula::num_clauses`].
    pub fn clause(&self, index: usize) -> &[Lit] {
        let start = if index == 0 { 0 } else { self.ends[index - 1] };
        &self.lits[start..self.ends[index]]
    }

    /// Iterates over the clauses in insertion order, each as its sorted
    /// literals.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Lit]> + '_ {
        (0..self.num_clauses()).map(|index| self.clause(index))
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

    /// Adds a clause built from the given literals, sorting them and
    /// dropping duplicates in place, and grows the variable space if needed.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let start = self.lits.len();
        self.lits.extend(lits);
        let kept = clause::normalise(&mut self.lits[start..]);
        self.lits.truncate(start + kept);
        // Sorted by code, so the last literal has the largest variable.
        if let Some(last) = self.lits[start..].last() {
            self.num_vars = self.num_vars.max(last.var() as usize + 1);
        }
        self.ends.push(self.lits.len());
    }

    /// Returns `true` if the formula contains an empty clause (trivially
    /// unsatisfiable).
    pub fn has_empty_clause(&self) -> bool {
        self.iter().any(<[Lit]>::is_empty)
    }

    /// Total number of literal occurrences.
    pub fn num_literals(&self) -> usize {
        self.lits.len()
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
        Ok(self.iter().all(|c| clause::evaluate(c, values)))
    }
}

impl fmt::Display for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(" ∧ ")?;
            }
            write!(f, "({})", clause::Show(c))?;
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
            self.num_clauses()
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
    fn clauses_are_stored_back_to_back_in_normal_form() {
        let mut cnf = CnfFormula::new(0);
        cnf.add_clause([Lit::negative(3), Lit::positive(1), Lit::negative(3)]);
        cnf.add_clause([]);
        cnf.add_clause([Lit::positive(2), Lit::negative(0)]);
        assert_eq!(cnf.num_clauses(), 3);
        assert_eq!(cnf.num_vars(), 4);
        assert_eq!(cnf.num_literals(), 4);
        assert_eq!(cnf.clause(0), &[Lit::positive(1), Lit::negative(3)]);
        assert_eq!(cnf.clause(1), &[]);
        assert_eq!(cnf.clause(2), &[Lit::negative(0), Lit::positive(2)]);
        let clauses: Vec<&[Lit]> = cnf.iter().collect();
        assert_eq!(clauses, [cnf.clause(0), cnf.clause(1), cnf.clause(2)]);
        assert_eq!(cnf.iter().len(), 3);
        assert!(cnf.has_empty_clause());
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
    fn empty_clause_detection() {
        let mut cnf = CnfFormula::new(1);
        assert!(!cnf.has_empty_clause());
        cnf.add_clause([]);
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
        let mut cnf = CnfFormula::new(0);
        assert_eq!(cnf.to_string(), "");
        cnf.add_clause([Lit::positive(0)]);
        cnf.add_clause([Lit::negative(1), Lit::positive(0)]);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.to_string(), "(x0) ∧ (x0 ∨ ¬x1)");
        cnf.add_clause([]);
        assert_eq!(cnf.to_string(), "(x0) ∧ (x0 ∨ ¬x1) ∧ (⊥)");
    }
}
