//! Property-based tests: the Gröbner engine must agree with brute force on
//! random small Boolean polynomial systems.

use proptest::prelude::*;

use bosphorus_anf::{Assignment, Monomial, Polynomial, PolynomialSystem};

use crate::{groebner_basis, normal_form, GroebnerConfig, GroebnerOutcome};

const MAX_VARS: u32 = 4;

fn arb_polynomial() -> impl Strategy<Value = Polynomial> {
    proptest::collection::vec(
        proptest::collection::vec(0..MAX_VARS, 0..3).prop_map(Monomial::from_vars),
        1..4,
    )
    .prop_map(Polynomial::from_monomials)
}

fn arb_system() -> impl Strategy<Value = PolynomialSystem> {
    proptest::collection::vec(arb_polynomial(), 1..5).prop_map(|mut polys| {
        polys.retain(|p| !p.is_zero());
        let mut s = PolynomialSystem::from_polynomials(polys);
        s.ensure_num_vars(MAX_VARS as usize);
        s
    })
}

fn brute_force_solutions(system: &PolynomialSystem) -> Vec<Assignment> {
    let n = system.num_vars();
    let mut solutions = Vec::new();
    for bits in 0u64..(1 << n) {
        let a = Assignment::from_bits((0..n).map(|i| (bits >> i) & 1 == 1));
        if system.is_satisfied_by(&a) {
            solutions.push(a);
        }
    }
    solutions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The basis proves inconsistency exactly when brute force finds no
    /// solution (on systems small enough to complete).
    #[test]
    fn consistency_agrees_with_brute_force(system in arb_system()) {
        let result = groebner_basis(&system, &GroebnerConfig::default());
        prop_assume!(result.outcome != GroebnerOutcome::BudgetExhausted);
        let solutions = brute_force_solutions(&system);
        match result.outcome {
            GroebnerOutcome::Inconsistent => prop_assert!(
                solutions.is_empty(),
                "basis claims inconsistent but {} solutions exist",
                solutions.len()
            ),
            GroebnerOutcome::Complete => prop_assert!(
                !solutions.is_empty(),
                "basis is complete and proper but the system has no solutions"
            ),
            // groebner_basis runs with a never-token, so Interrupted
            // cannot occur here either.
            GroebnerOutcome::BudgetExhausted | GroebnerOutcome::Interrupted => unreachable!(),
        }
    }

    /// Every basis element vanishes on every solution of the original system
    /// (the basis generates a sub-ideal of the solution ideal).
    #[test]
    fn basis_elements_vanish_on_all_solutions(system in arb_system()) {
        let result = groebner_basis(&system, &GroebnerConfig::default());
        let solutions = brute_force_solutions(&system);
        for a in &solutions {
            for g in &result.basis {
                prop_assert!(
                    !g.evaluate(|v| a.get(v)),
                    "basis element {} does not vanish on solution {}",
                    g,
                    a
                );
            }
        }
    }

    /// Normal forms are ideal-preserving: p and its normal form agree on
    /// every common zero of the basis polynomials.
    #[test]
    fn normal_form_preserves_values_on_zeros(system in arb_system(), p in arb_polynomial()) {
        let result = groebner_basis(&system, &GroebnerConfig::default());
        let nf = normal_form(&p, &result.basis);
        let n = system.num_vars().max(
            p.max_var().map_or(0, |v| v as usize + 1)
        );
        for bits in 0u64..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            let vanishes = result
                .basis
                .iter()
                .all(|g| !g.evaluate(|v| assignment[v as usize]));
            if vanishes {
                prop_assert_eq!(
                    p.evaluate(|v| assignment[v as usize]),
                    nf.evaluate(|v| assignment[v as usize])
                );
            }
        }
    }

    /// Reduction always returns a polynomial no larger (in leading monomial)
    /// than the input and is idempotent.
    #[test]
    fn normal_form_is_idempotent(system in arb_system(), p in arb_polynomial()) {
        let result = groebner_basis(&system, &GroebnerConfig::tight_budget());
        let once = normal_form(&p, &result.basis);
        let twice = normal_form(&once, &result.basis);
        prop_assert_eq!(once, twice);
    }
}
