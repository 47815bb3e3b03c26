//! Property-based tests for the Bosphorus engine and its conversions.

use proptest::prelude::*;

use bosphorus_anf::{Assignment, Monomial, Polynomial, PolynomialSystem};
use bosphorus_cnf::{Clause, CnfFormula, Lit};
use bosphorus_sat::{SolveResult, Solver, SolverConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cnf_to_anf::cnf_to_anf_with_cut;
use crate::elimlin::elimlin_by_scan;
use crate::xl::exhaustive_round_oracle;
use crate::{
    anf_to_cnf, elimlin_on, karnaugh_clauses, xl_learn, AnfPropagator, Bosphorus, BosphorusConfig,
    CancelToken, PassKind, PreprocessStatus, SolveStatus,
};

const MAX_VARS: u32 = 5;

fn arb_polynomial() -> impl Strategy<Value = Polynomial> {
    proptest::collection::vec(
        proptest::collection::vec(0..MAX_VARS, 0..3).prop_map(Monomial::from_vars),
        1..5,
    )
    .prop_map(Polynomial::from_monomials)
}

fn arb_system() -> impl Strategy<Value = PolynomialSystem> {
    proptest::collection::vec(arb_polynomial(), 1..6).prop_map(|mut polys| {
        polys.retain(|p| !p.is_zero());
        let mut s = PolynomialSystem::from_polynomials(polys);
        s.ensure_num_vars(MAX_VARS as usize);
        s
    })
}

fn arb_cnf() -> impl Strategy<Value = CnfFormula> {
    proptest::collection::vec(
        proptest::collection::vec((0..MAX_VARS, any::<bool>()), 1..4),
        1..10,
    )
    .prop_map(|clauses| {
        let mut cnf = CnfFormula::from_clauses(
            clauses
                .into_iter()
                .map(|lits| Clause::from_lits(lits.into_iter().map(|(v, n)| Lit::new(v, n)))),
        );
        cnf.ensure_num_vars(MAX_VARS as usize);
        cnf
    })
}

fn brute_force_sat(system: &PolynomialSystem) -> bool {
    let n = system.num_vars();
    (0u64..(1 << n)).any(|bits| {
        let a = Assignment::from_bits((0..n).map(|i| (bits >> i) & 1 == 1));
        system.is_satisfied_by(&a)
    })
}

/// A random system over at most 12 variables and of degree at most 3,
/// shaped to stress ElimLin's victim choice. Besides random polynomials it
/// holds linear equations, polynomials that give two variables of an
/// equation the same occurrence count, and multiples of an equation that a
/// substitution cancels to zero or to a linear polynomial. Three systems in
/// four get a planted solution; the rest get random constant terms.
fn elimlin_stress_system(rng: &mut StdRng) -> Vec<Polynomial> {
    let n = rng.gen_range(3..=12u32);
    let mut var = || Polynomial::variable(rng.gen_range(0..n));
    let mut polys = Vec::new();
    let mut equations = Vec::new();
    for _ in 0..3 {
        let equation = var() + var() + var();
        polys.push(var() * var() * var() + var() * var() + var());
        polys.push(&equation * &(var() * var()));
        polys.push(&equation * &var() + var() + var());
        equations.push(equation);
    }
    for equation in &equations {
        // The product of two variables of the equation, which puts both in
        // one more polynomial.
        let pair = equation.variables().into_iter().take(2);
        polys.push(pair.fold(var(), |acc, v| acc * Polynomial::variable(v)) + var());
    }
    polys.extend(equations);
    // Constant terms: fitted to a planted solution, or random.
    let planted = rng.gen_range(0..4) > 0;
    let solution: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    for poly in &mut polys {
        let toggle = if planted {
            poly.evaluate(|v| solution[v as usize])
        } else {
            rng.gen()
        };
        if toggle {
            *poly += Polynomial::one();
        }
    }
    polys.retain(|p| !p.is_zero());
    polys
}

/// The indexed step (3) of ElimLin makes the same choices as the scan it
/// replaced: same facts in the same order, same rounds, eliminations and
/// GJE ranks. Every fact vanishes on every solution of the system.
#[test]
fn indexed_elimlin_matches_the_scan_reference() {
    let mut rng = StdRng::seed_from_u64(0xe1);
    let (mut eliminated, mut satisfiable, mut contradictions) = (0, 0, 0);
    for case in 0..300 {
        let polys = elimlin_stress_system(&mut rng);
        let indexed = elimlin_on(polys.clone(), &CancelToken::never());
        let reference = elimlin_by_scan(polys.clone());
        let summary = |o: &crate::ElimLinOutcome| {
            (
                o.facts.clone(),
                o.rounds,
                o.eliminated_vars,
                o.contradiction,
                o.gauss.rank,
            )
        };
        assert_eq!(
            summary(&indexed),
            summary(&reference),
            "case {case}: {polys:?}"
        );
        eliminated += indexed.eliminated_vars;
        contradictions += usize::from(indexed.contradiction);
        let n = polys
            .iter()
            .filter_map(Polynomial::max_var)
            .max()
            .map_or(0, |v| v + 1);
        let solutions = (0u32..(1 << n))
            .map(|bits| move |v: u32| (bits >> v) & 1 == 1)
            .filter(|value| polys.iter().all(|p| !p.evaluate(value)));
        let mut solved = false;
        for value in solutions {
            solved = true;
            for fact in &indexed.facts {
                assert!(!fact.evaluate(value), "case {case}: fact {fact} violated");
            }
        }
        satisfiable += usize::from(solved);
    }
    assert!(eliminated >= 1000, "only {eliminated} eliminations");
    assert!(satisfiable >= 150, "only {satisfiable} satisfiable systems");
    assert!(contradictions >= 20, "only {contradictions} contradictions");
}

/// SAT rounds that alternate with the algebra agree with brute force.
/// With a 1-conflict budget and the SAT pass before or between XL and
/// ElimLin, each SAT round searches a new encoding of a revision the other
/// passes changed. The verdict and model of `solve` are
/// checked, and so is every learnt fact against every solution of the
/// input.
#[test]
fn sat_rounds_between_revisions_agree_with_brute_force() {
    let mut rng = StdRng::seed_from_u64(0x5a7);
    let orders = [
        vec![PassKind::Sat, PassKind::Xl, PassKind::ElimLin],
        vec![
            PassKind::Xl,
            PassKind::Sat,
            PassKind::ElimLin,
            PassKind::Sat,
        ],
    ];
    for case in 0..1000 {
        let system = PolynomialSystem::from_polynomials(elimlin_stress_system(&mut rng));
        let n = system.num_vars();
        let solutions: Vec<Assignment> = (0u64..(1 << n))
            .map(|bits| Assignment::from_bits((0..n).map(|i| (bits >> i) & 1 == 1)))
            .filter(|a| system.is_satisfied_by(a))
            .collect();
        for order in &orders {
            let config = BosphorusConfig {
                pass_order: order.clone(),
                sat_conflict_budget: 1,
                ..BosphorusConfig::default()
            };
            let mut engine = Bosphorus::new(system.clone(), config.clone());
            match engine.solve(&SolverConfig::aggressive()) {
                SolveStatus::Sat(a) => {
                    assert!(!solutions.is_empty(), "case {case} {order:?}: SAT on UNSAT");
                    assert!(
                        system.is_satisfied_by(&a),
                        "case {case} {order:?}: bad model"
                    );
                }
                SolveStatus::Unsat => {
                    assert!(solutions.is_empty(), "case {case} {order:?}: UNSAT on SAT");
                }
                SolveStatus::Interrupted => panic!("no cancel token was set"),
            }

            let mut engine = Bosphorus::new(system.clone(), config);
            let _ = engine.preprocess();
            for fact in engine.learnt_facts() {
                for a in &solutions {
                    assert!(
                        !fact.evaluate(|v| a.get(v)),
                        "case {case} {order:?}: fact {fact} violated"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The full engine agrees with brute force and returns genuine models,
    /// whichever solver preset runs the final solve. Most systems are
    /// decided by the default loop, so each preset also solves every system
    /// with no loop iteration (`max_iterations: 0`), where only propagation
    /// stands before the final solve, and through its conversion solver
    /// straight from the input, where nothing does.
    #[test]
    fn engine_agrees_with_brute_force(system in arb_system()) {
        let expected = brute_force_sat(&system);
        for (name, solver) in [
            ("minimal", SolverConfig::minimal()),
            ("aggressive", SolverConfig::aggressive()),
            ("xor_gauss", SolverConfig::xor_gauss()),
        ] {
            for max_iterations in [BosphorusConfig::default().max_iterations, 0] {
                let config = BosphorusConfig { max_iterations, ..BosphorusConfig::default() };
                let mut engine = Bosphorus::new(system.clone(), config);
                match engine.solve(&solver) {
                    SolveStatus::Sat(a) => {
                        prop_assert!(expected, "{name}/{max_iterations}: engine claimed SAT on an UNSAT system");
                        prop_assert!(
                            system.is_satisfied_by(&a),
                            "{name}/{max_iterations}: model violates the input system"
                        );
                    }
                    SolveStatus::Unsat => {
                        prop_assert!(!expected, "{name}/{max_iterations}: engine claimed UNSAT on a SAT system");
                    }
                    SolveStatus::Interrupted => prop_assert!(false, "{name}: no cancel token was set"),
                }
            }
            let propagator = AnfPropagator::new(system.num_vars());
            let conversion = anf_to_cnf(&system, &propagator, &BosphorusConfig::default());
            let mut direct = conversion.solver(&solver);
            match direct.solve() {
                SolveResult::Sat => {
                    prop_assert!(expected, "{name}: conversion solver claimed SAT on an UNSAT system");
                    let model = direct.model().expect("model");
                    let restricted = Assignment::from_bits(
                        (0..system.num_vars()).map(|v| model.get(v).copied().unwrap_or(false)),
                    );
                    prop_assert!(
                        system.is_satisfied_by(&restricted),
                        "{name}: conversion solver's model violates the input system"
                    );
                }
                SolveResult::Unsat => {
                    prop_assert!(!expected, "{name}: conversion solver claimed UNSAT on a SAT system");
                }
                SolveResult::Unknown => prop_assert!(false, "{name}: no budget was set"),
            }
        }
    }

    /// Every learnt fact is a consequence of the input system.
    #[test]
    fn learnt_facts_are_consequences(system in arb_system()) {
        let mut engine = Bosphorus::new(system.clone(), BosphorusConfig::default());
        let _ = engine.preprocess();
        let n = system.num_vars();
        for bits in 0u64..(1 << n) {
            let a = Assignment::from_bits((0..n).map(|i| (bits >> i) & 1 == 1));
            if system.is_satisfied_by(&a) {
                for fact in engine.learnt_facts() {
                    prop_assert!(!fact.evaluate(|v| a.get(v)), "fact {} violated", fact);
                }
            }
        }
    }

    /// ANF → CNF conversion is equisatisfiable and model-preserving on the
    /// original variables.
    #[test]
    fn anf_to_cnf_is_equisatisfiable(system in arb_system()) {
        let propagator = AnfPropagator::new(system.num_vars());
        let conversion = anf_to_cnf(&system, &propagator, &BosphorusConfig::default());
        let anf_sat = brute_force_sat(&system);
        let mut solver = Solver::from_formula(SolverConfig::minimal(), &conversion.cnf);
        match solver.solve() {
            SolveResult::Sat => {
                prop_assert!(anf_sat, "CNF SAT but ANF UNSAT");
                let model = solver.model().expect("model");
                let restricted = Assignment::from_bits(
                    (0..system.num_vars()).map(|v| model.get(v).copied().unwrap_or(false)),
                );
                prop_assert!(system.is_satisfied_by(&restricted), "CNF model violates the ANF");
            }
            SolveResult::Unsat => prop_assert!(!anf_sat, "CNF UNSAT but ANF SAT"),
            SolveResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    /// CNF → ANF conversion preserves satisfiability (auxiliary splitting
    /// variables are existentially quantified by the SAT check).
    #[test]
    fn cnf_to_anf_is_equisatisfiable(cnf in arb_cnf()) {
        let conversion = cnf_to_anf_with_cut(&cnf, 2);
        let cnf_sat = {
            let mut solver = Solver::from_formula(SolverConfig::minimal(), &cnf);
            solver.solve() == SolveResult::Sat
        };
        let anf_sat = brute_force_sat(&conversion.system);
        prop_assert_eq!(cnf_sat, anf_sat);
    }

    /// The Karnaugh-map conversion of a small polynomial is logically
    /// equivalent to the polynomial.
    #[test]
    fn karnaugh_conversion_is_equivalent(p in arb_polynomial()) {
        let Some(clauses) = karnaugh_clauses(&p, 8) else {
            return Ok(());
        };
        let vars = p.variables();
        for bits in 0u32..(1 << vars.len()) {
            let value = |v: u32| {
                let idx = vars.iter().position(|&w| w == v).expect("in support");
                (bits >> idx) & 1 == 1
            };
            let poly_zero = !p.evaluate(value);
            let clauses_ok = clauses.iter().all(|c| c.evaluate(value));
            prop_assert_eq!(poly_zero, clauses_ok);
        }
    }

    /// XL and ElimLin facts are consequences of the system they were learnt
    /// from.
    #[test]
    fn xl_and_elimlin_facts_are_consequences(system in arb_system(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xl = xl_learn(&system, &BosphorusConfig::exhaustive(), &mut rng, &CancelToken::never());
        let el = elimlin_on(system.polynomials().to_vec(), &CancelToken::never());
        let n = system.num_vars();
        for bits in 0u64..(1 << n) {
            let a = Assignment::from_bits((0..n).map(|i| (bits >> i) & 1 == 1));
            if system.is_satisfied_by(&a) {
                for fact in xl.facts.iter().chain(&el.facts) {
                    prop_assert!(!fact.evaluate(|v| a.get(v)), "fact {} violated", fact);
                }
            }
        }
    }

    /// An exhaustive XL round commits exactly the retainable rows of the
    /// dense kernel's RREF of the whole expansion, at the same rank.
    #[test]
    fn xl_facts_equal_the_dense_oracle(system in arb_system(), seed in any::<u64>()) {
        let config = BosphorusConfig::exhaustive();
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = xl_learn(&system, &config, &mut rng, &CancelToken::never());
        prop_assert!(!outcome.subsampled);
        let (facts, rank) = exhaustive_round_oracle(&system);
        prop_assert_eq!(outcome.facts, facts);
        prop_assert_eq!(outcome.rank, rank);
    }

    /// Preprocessing a CNF never changes its satisfiability (the
    /// CNF-preprocessor use-case).
    #[test]
    fn cnf_preprocessing_preserves_satisfiability(cnf in arb_cnf()) {
        let original_sat = {
            let mut solver = Solver::from_formula(SolverConfig::minimal(), &cnf);
            solver.solve() == SolveResult::Sat
        };
        let mut engine = Bosphorus::from_cnf(&cnf, BosphorusConfig::default());
        match engine.solve(&SolverConfig::minimal()) {
            SolveStatus::Sat(_) => prop_assert!(original_sat),
            SolveStatus::Unsat => prop_assert!(!original_sat),
            SolveStatus::Interrupted => prop_assert!(false, "no cancel token was set"),
        }
    }

    /// Interruption is transactional: tripping the token after an arbitrary
    /// number of checkpoint polls leaves (a) the learnt facts a prefix of
    /// the uninterrupted run's — only fully-committed work survives — and
    /// (b) the database equisatisfiable with the input, i.e. the processed
    /// system plus the propagated knowledge has a solution exactly when the
    /// original system does.
    #[test]
    fn cancellation_is_transactional(system in arb_system(), trip in 1u64..400) {
        // Uninterrupted reference run: same seed, so identical pass
        // decisions up to the point where the interrupted run stops.
        let mut reference = Bosphorus::new(system.clone(), BosphorusConfig::default());
        let _ = reference.preprocess();

        let mut engine = Bosphorus::new(system.clone(), BosphorusConfig::default());
        engine.set_cancel_token(CancelToken::new().cancel_after_checks(trip));
        let status = engine.preprocess();

        prop_assert!(
            reference.learnt_facts().starts_with(engine.learnt_facts()),
            "interrupted facts are not a prefix of the reference run's \
             ({} vs {} facts, trip at {} checks)",
            engine.learnt_facts().len(),
            reference.learnt_facts().len(),
            trip
        );

        let n = system.num_vars();
        let knowledge_holds = |engine: &Bosphorus, a: &Assignment| {
            use crate::VarKnowledge;
            (0..n as u32).all(|v| match engine.propagator().knowledge(v) {
                VarKnowledge::Free => true,
                VarKnowledge::Value(b) => a.get(v) == b,
                VarKnowledge::Equivalent { other, negated } => {
                    a.get(v) == (a.get(other) ^ negated)
                }
            })
        };
        let restored_sat = match status {
            PreprocessStatus::Solved(_) => true,
            PreprocessStatus::Unsat => false,
            PreprocessStatus::Simplified | PreprocessStatus::Interrupted => (0u64..(1 << n))
                .any(|bits| {
                    let a = Assignment::from_bits((0..n).map(|i| (bits >> i) & 1 == 1));
                    engine.processed_system().is_satisfied_by(&a)
                        && knowledge_holds(&engine, &a)
                }),
        };
        prop_assert_eq!(
            brute_force_sat(&system),
            restored_sat,
            "interrupted database lost equisatisfiability (status {:?})",
            status
        );
    }

    /// The SAT pass is invisible to the verdict: with it in the pass order
    /// or dropped from it, the engine returns the same verdict and genuine
    /// models. Each SAT round is a new deterministic search, so a repeat
    /// run commits exactly the same learnt facts.
    #[test]
    fn incremental_sat_pass_is_invisible(system in arb_system()) {
        let expected = brute_force_sat(&system);
        let with_sat = BosphorusConfig::default();
        let without_sat = BosphorusConfig {
            pass_order: vec![PassKind::Xl, PassKind::ElimLin],
            ..BosphorusConfig::default()
        };
        for config in [&with_sat, &without_sat] {
            let mut engine = Bosphorus::new(system.clone(), config.clone());
            match engine.solve(&SolverConfig::aggressive()) {
                SolveStatus::Sat(a) => {
                    prop_assert!(expected, "SAT verdict on an UNSAT system (passes {:?})", config.pass_order);
                    prop_assert!(system.is_satisfied_by(&a));
                }
                SolveStatus::Unsat => prop_assert!(!expected, "UNSAT verdict on a SAT system (passes {:?})", config.pass_order),
                SolveStatus::Interrupted => prop_assert!(false, "no cancel token was set"),
            }
        }
        let mut fact_sets = Vec::new();
        for _ in 0..2 {
            let mut engine = Bosphorus::new(system.clone(), with_sat.clone());
            let _ = engine.preprocess();
            fact_sets.push(engine.learnt_facts().to_vec());
        }
        prop_assert_eq!(
            &fact_sets[0],
            &fact_sets[1],
            "learnt facts diverge between two identical runs"
        );
    }
}
