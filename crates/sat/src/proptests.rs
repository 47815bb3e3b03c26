//! Property-based tests: the CDCL solver must agree with brute force on
//! random small formulas, for every configuration.

use proptest::prelude::*;

use bosphorus_cnf::{CnfFormula, Lit};

use crate::{SolveResult, Solver, SolverConfig, XorConstraint};

const MAX_VARS: u32 = 7;

fn arb_formula() -> impl Strategy<Value = CnfFormula> {
    let clause = proptest::collection::vec((0..MAX_VARS, any::<bool>()), 1..4);
    proptest::collection::vec(clause, 0..25).prop_map(|clauses| {
        let mut cnf = CnfFormula::new(MAX_VARS as usize);
        for lits in clauses {
            cnf.add_clause(lits.into_iter().map(|(v, neg)| Lit::new(v, neg)));
        }
        cnf
    })
}

fn arb_xors() -> impl Strategy<Value = Vec<XorConstraint>> {
    proptest::collection::vec(
        (proptest::collection::vec(0..MAX_VARS, 1..4), any::<bool>()),
        0..4,
    )
    .prop_map(|xs| {
        xs.into_iter()
            .map(|(vars, rhs)| XorConstraint::new(vars, rhs))
            .collect()
    })
}

/// Exhaustively checks satisfiability of a CNF plus XOR constraints.
fn brute_force(cnf: &CnfFormula, xors: &[XorConstraint]) -> Option<Vec<bool>> {
    let n = cnf.num_vars().max(
        xors.iter()
            .filter_map(XorConstraint::max_var)
            .map(|v| v as usize + 1)
            .max()
            .unwrap_or(0),
    );
    for bits in 0u64..(1 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
        let cnf_ok = cnf.evaluate(&assignment).unwrap_or(false);
        let xor_ok = xors.iter().all(|x| x.evaluate(|v| assignment[v as usize]));
        if cnf_ok && xor_ok {
            return Some(assignment);
        }
    }
    None
}

fn configs() -> Vec<SolverConfig> {
    vec![
        SolverConfig::minimal(),
        SolverConfig::aggressive(),
        SolverConfig::xor_gauss(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every configuration agrees with brute force on random CNF formulas,
    /// and returned models really satisfy the formula.
    #[test]
    fn solver_agrees_with_brute_force(cnf in arb_formula()) {
        let expected_sat = brute_force(&cnf, &[]).is_some();
        for config in configs() {
            let name = config.name;
            let mut solver = Solver::from_formula(config, &cnf);
            match solver.solve() {
                SolveResult::Sat => {
                    prop_assert!(expected_sat, "{name} claimed SAT on an UNSAT formula");
                    let model = solver.model().expect("SAT implies a model");
                    prop_assert_eq!(cnf.evaluate(model), Ok(true), "{} returned a bad model", name);
                }
                SolveResult::Unsat => {
                    prop_assert!(!expected_sat, "{name} claimed UNSAT on a SAT formula");
                }
                SolveResult::Unknown => prop_assert!(false, "{name} gave up without a budget"),
            }
        }
    }

    /// The XOR-aware configuration agrees with brute force on mixed
    /// CNF + XOR problems.
    #[test]
    fn xor_solver_agrees_with_brute_force(cnf in arb_formula(), xors in arb_xors()) {
        let expected_sat = brute_force(&cnf, &xors).is_some();
        let mut solver = Solver::from_formula(SolverConfig::xor_gauss(), &cnf);
        let mut early_unsat = false;
        for x in &xors {
            if !solver.add_xor(x.clone()) {
                early_unsat = true;
            }
        }
        if early_unsat {
            prop_assert!(!expected_sat);
            return Ok(());
        }
        match solver.solve() {
            SolveResult::Sat => {
                prop_assert!(expected_sat, "claimed SAT on an UNSAT instance");
                let model = solver.model().expect("model").to_vec();
                prop_assert_eq!(cnf.evaluate(&model), Ok(true));
                for x in &xors {
                    prop_assert!(x.evaluate(|v| model[v as usize]), "XOR {} violated", x);
                }
            }
            SolveResult::Unsat => prop_assert!(!expected_sat, "claimed UNSAT on a SAT instance"),
            SolveResult::Unknown => prop_assert!(false, "gave up without a budget"),
        }
    }

    /// Top-level assignments and learnt units are always consequences of the
    /// formula: they hold in *every* satisfying assignment.
    #[test]
    fn top_level_facts_are_entailed(cnf in arb_formula()) {
        let mut solver = Solver::from_formula(SolverConfig::aggressive(), &cnf);
        let result = solver.solve();
        if result == SolveResult::Unknown {
            return Ok(());
        }
        let facts = solver.top_level_assignments();
        if result == SolveResult::Unsat {
            return Ok(());
        }
        // Enumerate all models of the original CNF and check each fact.
        let n = cnf.num_vars();
        for bits in 0u64..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            if cnf.evaluate(&assignment) == Ok(true) {
                for &fact in &facts {
                    prop_assert!(
                        fact.evaluate(assignment[fact.var() as usize]),
                        "top-level fact {} violated by a model",
                        fact
                    );
                }
            }
        }
    }

    /// A conflict budget of zero conflicts still terminates, and solving the
    /// same instance again without a budget gives the definitive answer.
    #[test]
    fn budgeted_solve_is_sound(cnf in arb_formula()) {
        let expected_sat = brute_force(&cnf, &[]).is_some();
        let mut solver = Solver::from_formula(SolverConfig::minimal(), &cnf);
        solver.set_conflict_budget(Some(1));
        let first = solver.solve();
        if first != SolveResult::Unknown {
            prop_assert_eq!(first == SolveResult::Sat, expected_sat);
        }
        solver.set_conflict_budget(None);
        let second = solver.solve();
        prop_assert_eq!(second == SolveResult::Sat, expected_sat);
    }

    /// Forcing the clause-database reduction schedule to fire constantly
    /// (tiny allowance, no growth headroom lost) never changes any verdict
    /// or produces a bad model, with CCMin verification on throughout.
    #[test]
    fn aggressive_db_reduction_is_invisible(cnf in arb_formula(), xors in arb_xors()) {
        let expected_sat = brute_force(&cnf, &xors).is_some();
        for reduce in [false, true] {
            let mut config = SolverConfig::xor_gauss();
            config.learnt_ratio = if reduce { 0.01 } else { f64::INFINITY };
            config.verify_minimization = true;
            let mut solver = Solver::from_formula(config, &cnf);
            let mut early_unsat = false;
            for x in &xors {
                if !solver.add_xor(x.clone()) {
                    early_unsat = true;
                }
            }
            if early_unsat {
                prop_assert!(!expected_sat);
                continue;
            }
            match solver.solve() {
                SolveResult::Sat => {
                    prop_assert!(expected_sat, "reduce_db={reduce}: SAT on UNSAT instance");
                    let model = solver.model().expect("model").to_vec();
                    prop_assert_eq!(cnf.evaluate(&model), Ok(true));
                    for x in &xors {
                        prop_assert!(x.evaluate(|v| model[v as usize]));
                    }
                }
                SolveResult::Unsat => {
                    prop_assert!(!expected_sat, "reduce_db={reduce}: UNSAT on SAT instance");
                }
                SolveResult::Unknown => prop_assert!(false, "gave up without a budget"),
            }
        }
    }
}
