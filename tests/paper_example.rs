//! Integration test: the worked examples of the paper, end to end across all
//! crates (Table I, Section II-C, Section II-E, Fig. 2).

use bosphorus_repro::anf::{Assignment, Polynomial, PolynomialSystem};
use bosphorus_repro::core::{
    elimlin_on, karnaugh_clauses, tseitin_clause_count, xl_learn, Bosphorus, BosphorusConfig,
    CancelToken, PreprocessStatus, SolveStatus,
};
use bosphorus_repro::sat::SolverConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn section_2e_system() -> PolynomialSystem {
    PolynomialSystem::parse(
        "x1*x2 + x3 + x4 + 1;
         x1*x2*x3 + x1 + x3 + 1;
         x1*x3 + x3*x4*x5 + x3;
         x2*x3 + x3*x5 + 1;
         x2*x3 + x5 + 1;",
    )
    .expect("the paper's system parses")
}

#[test]
fn table1_xl_learns_the_three_unit_facts() {
    let system = PolynomialSystem::parse("x1*x2 + x1 + 1; x2*x3 + x3;").expect("parses");
    let mut rng = StdRng::seed_from_u64(1);
    let outcome = xl_learn(
        &system,
        &BosphorusConfig::exhaustive(),
        &mut rng,
        &CancelToken::never(),
    );
    for expected in ["x1 + 1", "x2", "x3"] {
        let fact: Polynomial = expected.parse().expect("parses");
        assert!(
            outcome.facts.contains(&fact),
            "missing Table I fact {expected}"
        );
    }
    assert_eq!(outcome.rank, 6, "Table I(b) has six non-zero rows");
}

#[test]
fn section_2c_elimlin_worked_example() {
    let outcome = elimlin_on(
        PolynomialSystem::parse("x1 + x2 + x3; x1*x2 + x2*x3 + 1;")
            .expect("parses")
            .into_polynomials(),
        &CancelToken::never(),
    );
    assert!(outcome.facts.contains(&"x2 + 1".parse().expect("parses")));
}

#[test]
fn section_2e_xl_learns_the_six_documented_facts() {
    let mut rng = StdRng::seed_from_u64(1);
    let outcome = xl_learn(
        &section_2e_system(),
        &BosphorusConfig::exhaustive(),
        &mut rng,
        &CancelToken::never(),
    );
    for expected in [
        "x2*x3*x4 + 1",
        "x1*x3*x4 + 1",
        "x1 + x5 + 1",
        "x1 + x4",
        "x3 + 1",
        "x1 + x2",
    ] {
        let fact: Polynomial = expected.parse().expect("parses");
        assert!(
            outcome.facts.contains(&fact),
            "missing Section II-E XL fact {expected}"
        );
    }
}

#[test]
fn section_2e_preprocessing_alone_solves_the_system() {
    let system = section_2e_system();
    let mut engine = Bosphorus::new(system.clone(), BosphorusConfig::default());
    match engine.preprocess() {
        PreprocessStatus::Solved(assignment) => {
            let expected = Assignment::from_bits([false, true, true, true, true, false]);
            assert!(system.is_satisfied_by(&assignment));
            for v in 1..=5u32 {
                assert_eq!(assignment.get(v), expected.get(v), "variable x{v}");
            }
        }
        other => panic!("expected the loop to solve the system, got {other:?}"),
    }
    assert!(engine.stats().total_facts() > 0);
}

#[test]
fn section_2e_full_solve_and_fact_soundness() {
    let system = section_2e_system();
    let mut engine = Bosphorus::new(system.clone(), BosphorusConfig::default());
    match engine.solve(&SolverConfig::xor_gauss()) {
        SolveStatus::Sat(assignment) => assert!(system.is_satisfied_by(&assignment)),
        SolveStatus::Unsat => panic!("the system is satisfiable"),
        SolveStatus::Interrupted => panic!("no cancel token was set"),
    }
    // Every learnt fact holds in the system's unique solution.
    let solution = Assignment::from_bits([false, true, true, true, true, false]);
    for fact in engine.learnt_facts() {
        assert!(
            !fact.evaluate(|v| solution.get(v)),
            "fact {fact} is not a consequence"
        );
    }
}

#[test]
fn fig2_conversion_counts() {
    let poly: Polynomial = "x1*x3 + x1 + x2 + x4 + 1".parse().expect("parses");
    let clauses = karnaugh_clauses(&poly, 8).expect("4 variables is within K = 8");
    assert_eq!(
        clauses.num_clauses(),
        6,
        "Fig. 2 (left): Karnaugh-map conversion"
    );
    assert_eq!(
        tseitin_clause_count(&poly),
        11,
        "Fig. 2 (right): Tseitin-based conversion"
    );
}
