//! CNF → ANF conversion (Section III-D of the paper).
//!
//! Each CNF variable is assigned the ANF variable with the same index, and
//! each clause becomes the product of its negated literals (Hsiang's
//! encoding): the clause `¬x1 ∨ x2` becomes the polynomial
//! `x1·(x2 ⊕ 1) = x1·x2 ⊕ x1`.
//!
//! A clause with `n` positive literals expands to `2^n` monomials, so clauses
//! are first split — in the style of the k-SAT → 3-SAT reduction — into
//! pieces containing at most `L'` positive literals each, using fresh
//! auxiliary variables.

use bosphorus_anf::{Polynomial, PolynomialSystem, Var};
use bosphorus_cnf::{CnfFormula, Lit};

use crate::CLAUSE_CUT_LENGTH;

/// The product of a CNF → ANF conversion.
#[derive(Debug, Clone)]
pub struct AnfConversion {
    /// The resulting polynomial system.
    pub system: PolynomialSystem,
    /// Number of variables of the original CNF; variables with larger
    /// indices in [`AnfConversion::system`] are splitting auxiliaries.
    pub original_vars: usize,
    /// Number of clauses that had to be split.
    pub split_clauses: usize,
}

/// Converts a single clause, given as its literals, into the polynomial
/// `∏ ¬l = 0`. The product does not depend on the order of the literals or
/// on repeated ones.
///
/// # Examples
///
/// ```
/// use bosphorus::clause_to_polynomial;
/// use bosphorus_cnf::Lit;
///
/// // ¬x1 ∨ x2   becomes   x1*x2 + x1.
/// let clause = [Lit::negative(1), Lit::positive(2)];
/// assert_eq!(clause_to_polynomial(&clause).to_string(), "x1*x2 + x1");
/// ```
pub fn clause_to_polynomial(clause: &[Lit]) -> Polynomial {
    // The clause is violated exactly when every literal is false, i.e. when
    // the product of the negations of its literals is 1.
    let mut product = Polynomial::one();
    for &lit in clause {
        let mut factor = Polynomial::variable(lit.var() as Var);
        if lit.is_positive() {
            factor += &Polynomial::one();
        }
        product = product.mul(&factor);
    }
    product
}

/// Converts a CNF formula into an equisatisfiable ANF system, splitting
/// clauses so that no piece has more than
/// [`CLAUSE_CUT_LENGTH`] positive literals.
pub fn cnf_to_anf(cnf: &CnfFormula) -> AnfConversion {
    cnf_to_anf_with_cut(cnf, CLAUSE_CUT_LENGTH)
}

/// [`cnf_to_anf`] with the clause-cutting length `cut` (at least 2) in place
/// of `L'`, so tests can force splits on short clauses.
pub(crate) fn cnf_to_anf_with_cut(cnf: &CnfFormula, cut: usize) -> AnfConversion {
    let mut system = PolynomialSystem::with_num_vars(cnf.num_vars());
    let mut next_aux = cnf.num_vars() as Var;
    let mut split_clauses = 0usize;
    for clause in cnf.iter() {
        if clause.is_empty() {
            system.push(Polynomial::one());
            continue;
        }
        let mut remaining: Vec<Lit> = clause.to_vec();
        // Order positive literals first so that each split piece takes a full
        // batch of positives.
        remaining.sort_by_key(|l| l.is_negative());
        let mut was_split = false;
        while remaining.iter().filter(|l| l.is_positive()).count() > cut {
            was_split = true;
            // Take (cut − 1) positive literals into a new piece closed by a
            // fresh (positive) auxiliary variable — the piece then has
            // exactly `cut` positive literals — and replace them by ¬a in
            // the remaining clause.
            let mut piece: Vec<Lit> = remaining.drain(..cut - 1).collect();
            let aux = next_aux;
            next_aux += 1;
            piece.push(Lit::positive(aux));
            system.push(clause_to_polynomial(&piece));
            remaining.insert(0, Lit::negative(aux));
        }
        if was_split {
            split_clauses += 1;
        }
        system.push(clause_to_polynomial(&remaining));
    }
    system.ensure_num_vars(next_aux as usize);
    AnfConversion {
        system,
        original_vars: cnf.num_vars(),
        split_clauses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosphorus_anf::Assignment;

    #[test]
    fn paper_example_clause() {
        let poly = clause_to_polynomial(&[Lit::negative(1), Lit::positive(2)]);
        assert_eq!(poly, "x1*x2 + x1".parse().expect("parses"));
    }

    #[test]
    fn clause_polynomial_degree_equals_clause_length() {
        let clause = [
            Lit::negative(0),
            Lit::positive(1),
            Lit::negative(2),
            Lit::positive(3),
        ];
        assert_eq!(clause_to_polynomial(&clause).degree(), 4);
    }

    #[test]
    fn positive_literal_count_drives_term_blowup() {
        // n positive literals -> 2^n monomials.
        let clause = [Lit::positive(0), Lit::positive(1), Lit::positive(2)];
        assert_eq!(clause_to_polynomial(&clause).len(), 8);
        let negs = [Lit::negative(0), Lit::negative(1), Lit::negative(2)];
        assert_eq!(clause_to_polynomial(&negs).len(), 1);
    }

    #[test]
    fn clause_and_polynomial_have_the_same_models() {
        let clause = [Lit::negative(0), Lit::positive(1), Lit::positive(2)];
        let poly = clause_to_polynomial(&clause);
        for bits in 0u32..8 {
            let value = |v: u32| (bits >> v) & 1 == 1;
            let satisfied = clause.iter().any(|l| l.evaluate(value(l.var())));
            assert_eq!(satisfied, !poly.evaluate(value));
        }
    }

    #[test]
    fn conversion_without_splitting_preserves_models_exactly() {
        let cnf = CnfFormula::parse_dimacs("p cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n").expect("parses");
        let result = cnf_to_anf(&cnf);
        assert_eq!(result.split_clauses, 0);
        assert_eq!(result.system.num_vars(), 3);
        for bits in 0u64..8 {
            let assignment: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            let cnf_ok = cnf.evaluate(&assignment) == Ok(true);
            let anf_ok = result
                .system
                .is_satisfied_by(&Assignment::from_bits(assignment.iter().copied()));
            assert_eq!(cnf_ok, anf_ok);
        }
    }

    #[test]
    fn long_positive_clause_is_split_and_equisatisfiable() {
        // Nine positive literals with L' = 5 forces splitting.
        let mut cnf = CnfFormula::new(9);
        cnf.add_clause((0..9).map(Lit::positive));
        cnf.add_clause([Lit::negative(0)]);
        let result = cnf_to_anf(&cnf);
        assert_eq!(result.split_clauses, 1);
        assert!(result.system.num_vars() > 9, "auxiliary variables appear");
        // Every polynomial has at most 2^5 monomials.
        assert!(result
            .system
            .iter()
            .all(|p| p.len() <= 1 << CLAUSE_CUT_LENGTH));
        // Equisatisfiability: for every assignment of the original variables,
        // the CNF is satisfied iff some extension to the auxiliaries
        // satisfies the ANF.
        let n_orig = 9usize;
        let n_all = result.system.num_vars();
        for bits in 0u64..(1 << n_orig) {
            let orig: Vec<bool> = (0..n_orig).map(|i| (bits >> i) & 1 == 1).collect();
            let cnf_ok = cnf.evaluate(&orig) == Ok(true);
            let mut anf_ok = false;
            for aux_bits in 0u64..(1 << (n_all - n_orig)) {
                let mut full = orig.clone();
                full.extend((0..n_all - n_orig).map(|i| (aux_bits >> i) & 1 == 1));
                if result
                    .system
                    .is_satisfied_by(&Assignment::from_bits(full.iter().copied()))
                {
                    anf_ok = true;
                    break;
                }
            }
            assert_eq!(cnf_ok, anf_ok, "mismatch at assignment {bits:b}");
        }
    }

    #[test]
    fn empty_clause_becomes_the_contradiction() {
        let mut cnf = CnfFormula::new(2);
        cnf.add_clause([]);
        let result = cnf_to_anf(&cnf);
        assert!(result.system.has_contradiction());
    }

    #[test]
    fn empty_formula_converts_to_empty_system() {
        let cnf = CnfFormula::new(4);
        let result = cnf_to_anf(&cnf);
        assert!(result.system.is_empty());
        assert_eq!(result.system.num_vars(), 4);
    }
}
