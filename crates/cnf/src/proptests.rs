//! Property-based tests for the CNF data structures and DIMACS I/O.

use proptest::prelude::*;

use crate::{CnfFormula, Lit};

const MAX_VARS: u32 = 12;

fn arb_lit() -> impl Strategy<Value = Lit> {
    (0..MAX_VARS, any::<bool>()).prop_map(|(v, n)| Lit::new(v, n))
}

fn arb_clause() -> impl Strategy<Value = Vec<Lit>> {
    proptest::collection::vec(arb_lit(), 0..6)
}

fn arb_formula() -> impl Strategy<Value = CnfFormula> {
    proptest::collection::vec(arb_clause(), 0..20).prop_map(|clauses| {
        let mut cnf = CnfFormula::new(MAX_VARS as usize);
        for clause in clauses {
            cnf.add_clause(clause);
        }
        cnf
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Literal negation is an involution and flips evaluation.
    #[test]
    fn literal_negation_laws(lit in arb_lit(), value in any::<bool>()) {
        prop_assert_eq!(!!lit, lit);
        prop_assert_eq!((!lit).var(), lit.var());
        prop_assert_ne!((!lit).evaluate(value), lit.evaluate(value));
    }

    /// DIMACS literal encoding round-trips.
    #[test]
    fn dimacs_literal_roundtrip(lit in arb_lit()) {
        let encoded = lit.to_dimacs();
        prop_assert_ne!(encoded, 0);
        prop_assert_eq!(Lit::from_dimacs(encoded), Some(lit));
    }

    /// `add_clause` is order-insensitive and idempotent under duplication
    /// of literals: the stored clause is the sorted, de-duplicated set.
    #[test]
    fn clause_construction_normalises(lits in arb_clause()) {
        let mut reversed = lits.clone();
        reversed.reverse();
        let mut cnf = CnfFormula::new(0);
        cnf.add_clause(lits.iter().copied());
        cnf.add_clause(reversed);
        cnf.add_clause(lits.iter().chain(&lits).copied());
        let mut expected = lits.clone();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(cnf.clause(0), &expected[..]);
        prop_assert_eq!(cnf.clause(1), &expected[..]);
        prop_assert_eq!(cnf.clause(2), &expected[..]);
    }

    /// A one-clause formula evaluates to true exactly when one of the
    /// clause's literals does.
    #[test]
    fn clause_evaluation_matches_literals(clause in arb_clause(), seed in any::<u64>()) {
        let values: Vec<bool> = (0..MAX_VARS).map(|v| (seed >> v) & 1 == 1).collect();
        let expected = clause.iter().any(|l| l.evaluate(values[l.var() as usize]));
        let mut cnf = CnfFormula::new(MAX_VARS as usize);
        cnf.add_clause(clause);
        prop_assert_eq!(cnf.evaluate(&values), Ok(expected));
    }

    /// Formulas survive a DIMACS print/parse round trip: same variable
    /// count, same clauses.
    #[test]
    fn dimacs_formula_roundtrip(cnf in arb_formula()) {
        let text = cnf.to_dimacs();
        let reparsed = CnfFormula::parse_dimacs(&text).expect("printed DIMACS reparses");
        prop_assert_eq!(reparsed.num_vars(), cnf.num_vars());
        prop_assert_eq!(reparsed.num_clauses(), cnf.num_clauses());
        // ...and in fact the whole formula is reproduced exactly:
        // parse_dimacs(to_dimacs(f)) == f.
        prop_assert_eq!(reparsed, cnf);
    }

    /// Evaluation after a round trip is unchanged on every assignment.
    #[test]
    fn roundtrip_preserves_semantics(cnf in arb_formula(), seed in any::<u64>()) {
        let reparsed = CnfFormula::parse_dimacs(&cnf.to_dimacs()).expect("reparses");
        let assignment: Vec<bool> = (0..cnf.num_vars()).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        prop_assert_eq!(cnf.evaluate(&assignment), reparsed.evaluate(&assignment));
    }

    /// The DIMACS parser is total: arbitrary bytes produce `Ok` or a
    /// structured error, never a panic, wrap-around or runaway allocation.
    #[test]
    fn dimacs_parser_never_panics_on_raw_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = CnfFormula::parse_dimacs(&text);
        let _ = CnfFormula::parse_dimacs_from(&bytes[..]);
    }

    /// Same totality check on inputs biased towards near-valid DIMACS, so the
    /// fuzz actually reaches the header and clause code paths (random bytes
    /// rarely spell `p cnf`).
    #[test]
    fn dimacs_parser_never_panics_on_near_valid_documents(
        header_vars in any::<i64>(),
        header_clauses in any::<i64>(),
        values in proptest::collection::vec(any::<i64>(), 0..32),
        terminate in any::<bool>(),
    ) {
        let mut text = format!("c fuzz\np cnf {header_vars} {header_clauses}\n");
        for (i, value) in values.iter().enumerate() {
            text.push_str(&value.to_string());
            text.push(if i % 5 == 4 { '\n' } else { ' ' });
        }
        if terminate {
            text.push_str(" 0\n");
        }
        if let Ok(cnf) = CnfFormula::parse_dimacs(&text) {
            // Whatever parsed must be internally consistent: every literal
            // references a declared variable.
            for clause in cnf.iter() {
                for lit in clause.iter() {
                    prop_assert!((lit.var() as usize) < cnf.num_vars());
                }
            }
        }
    }
}
