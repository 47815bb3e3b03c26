//! Differential fuzzing of the CDCL SAT core against brute force.
//!
//! Random CNF (and CNF+XOR) instances over at most 16 variables are solved
//! by the modernized solver and by exhaustive enumeration; the verdicts must
//! match, every reported model must satisfy the instance, and every learnt
//! clause must be entailed by it (checked against *all* satisfying
//! assignments). The CCMin self-check (`verify_minimization`) is enabled
//! throughout, so a minimization bug fails the run instead of silently
//! weakening learnt clauses.
//!
//! The first two arms are mostly far below the satisfiability threshold,
//! and none of their runs needs more than one conflict; the random 3-SAT
//! arm sits at the threshold (about 4.26 clauses per variable), where the
//! solver has to search. The clause-DB reduction schedule is switched on
//! and off, but at this size it never fires: its allowance never drops
//! below 100 learnt clauses. Reduction and the arena garbage collection
//! are covered by the solver's unit tests, which check the clause store
//! after every reduction.
//!
//! The proptest shim seeds deterministically per test name, and the 3-SAT
//! arm uses a fixed seed, so CI runs the same cases every time.

use bosphorus_repro::ciphers::satcomp;
use bosphorus_repro::cnf::{Clause, CnfFormula, Lit};
use bosphorus_repro::sat::{SolveResult, Solver, SolverConfig, SolverStats, XorConstraint};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_VARS: u32 = 16;

/// A random CNF over `2..=MAX_VARS` variables: 1–4 literals per clause,
/// clause count scaled with the variable count so instances straddle the
/// SAT/UNSAT boundary.
fn arb_cnf() -> impl Strategy<Value = CnfFormula> {
    (2u32..=MAX_VARS).prop_flat_map(|n| {
        proptest::collection::vec(
            proptest::collection::vec((0..n, any::<bool>()), 1..5),
            1..(2 * n as usize + 1),
        )
        .prop_map(move |clauses| {
            let mut cnf =
                CnfFormula::from_clauses(clauses.into_iter().map(|lits| {
                    Clause::from_lits(lits.into_iter().map(|(v, neg)| Lit::new(v, neg)))
                }));
            cnf.ensure_num_vars(n as usize);
            cnf
        })
    })
}

/// A random CNF plus native XOR constraints over the same variables.
fn arb_cnf_with_xors() -> impl Strategy<Value = (CnfFormula, Vec<XorConstraint>)> {
    (2u32..=MAX_VARS).prop_flat_map(|n| {
        (
            proptest::collection::vec(
                proptest::collection::vec((0..n, any::<bool>()), 1..4),
                1..(n as usize + 1),
            ),
            proptest::collection::vec((proptest::collection::vec(0..n, 1..5), any::<bool>()), 1..4),
        )
            .prop_map(move |(clauses, xors)| {
                let mut cnf = CnfFormula::from_clauses(clauses.into_iter().map(|lits| {
                    Clause::from_lits(lits.into_iter().map(|(v, neg)| Lit::new(v, neg)))
                }));
                cnf.ensure_num_vars(n as usize);
                let xors = xors
                    .into_iter()
                    .map(|(vars, rhs)| XorConstraint::new(vars, rhs))
                    .collect();
                (cnf, xors)
            })
    })
}

/// `cnf` with each XOR spelled out as its 2^(n−1)-clause block: one clause
/// per assignment of the XOR's variables with the wrong parity, excluding
/// it. A contradictory XOR (`0 = 1`) becomes the empty clause.
fn with_xor_blocks(cnf: &CnfFormula, xors: &[XorConstraint]) -> CnfFormula {
    let mut out = cnf.clone();
    for xor in xors {
        let vars = xor.vars();
        for pattern in 0u32..(1 << vars.len()) {
            if (pattern.count_ones() % 2 == 1) != xor.rhs() {
                out.push_clause(Clause::from_lits(
                    (0..vars.len()).map(|i| Lit::new(vars[i], (pattern >> i) & 1 == 1)),
                ));
            }
        }
    }
    out
}

/// All satisfying assignments of `cnf` ∧ `xors`, as variable bit patterns.
fn brute_force_models(cnf: &CnfFormula, xors: &[XorConstraint]) -> Vec<u64> {
    let n = cnf.num_vars();
    (0u64..(1 << n))
        .filter(|bits| {
            let value = |v: u32| (bits >> v) & 1 == 1;
            cnf.iter().all(|c| c.evaluate(value)) && xors.iter().all(|x| x.evaluate(value))
        })
        .collect()
}

/// Solves, then checks verdict, model, and learnt-clause entailment against
/// the brute-force model set. Returns the (checked) verdict and the
/// solver's statistics.
fn check_differential(
    cnf: &CnfFormula,
    xors: &[XorConstraint],
    config: SolverConfig,
) -> (SolveResult, SolverStats) {
    let models = brute_force_models(cnf, xors);
    let mut solver = Solver::from_formula(config.clone(), cnf);
    let mut ok = true;
    for xor in xors {
        ok &= solver.add_xor(xor.clone());
    }
    let result = if ok {
        solver.solve()
    } else {
        SolveResult::Unsat
    };
    match result {
        SolveResult::Sat => {
            assert!(
                !models.is_empty(),
                "{}: SAT verdict on an UNSAT instance",
                config.name
            );
            let model = solver.model().expect("SAT implies a model").to_vec();
            let value = |v: u32| model[v as usize];
            for clause in cnf.iter() {
                assert!(
                    clause.evaluate(value),
                    "{}: model violates a clause",
                    config.name
                );
            }
            for xor in xors {
                assert!(
                    xor.evaluate(value),
                    "{}: model violates an XOR constraint",
                    config.name
                );
            }
        }
        SolveResult::Unsat => {
            assert!(
                models.is_empty(),
                "{}: UNSAT verdict on an instance with {} models",
                config.name,
                models.len()
            );
        }
        SolveResult::Unknown => {
            panic!("{}: Unknown without a budget or token", config.name);
        }
    }
    // Entailment: every learnt unit and clause must hold in *every* model of
    // the original instance — a learnt clause that rules out a model is a
    // soundness bug (an over-minimized conflict clause, a bad DB
    // reduction, ...).
    for &bits in &models {
        let value = |v: u32| (bits >> v) & 1 == 1;
        for lit in solver.learnt_units() {
            assert!(
                lit.evaluate(value(lit.var())),
                "{}: learnt unit {lit:?} rules out a model",
                config.name
            );
        }
        for clause in solver.learnt_clauses() {
            assert!(
                clause.evaluate(value),
                "{}: learnt clause rules out a model",
                config.name
            );
        }
    }
    (result, *solver.stats())
}

/// The aggressive preset with the CCMin self-check armed and the clause-DB
/// reduction on only when `reduce` holds.
fn checked_config(reduce: bool) -> SolverConfig {
    let mut config = SolverConfig::aggressive();
    if !reduce {
        config.learnt_ratio = f64::INFINITY;
    }
    config.verify_minimization = true;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// CNF instances, clause-DB reduction on and off: 240 solver runs.
    #[test]
    fn solver_agrees_with_brute_force(cnf in arb_cnf()) {
        for reduce in [true, false] {
            check_differential(&cnf, &[], checked_config(reduce));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// CNF+XOR instances through the CryptoMiniSat-role configuration,
    /// solved twice: with each XOR as its clause block, and as a native
    /// constraint (two watched variables plus top-level Gauss–Jordan).
    /// Both runs agree with brute force, and so with each other.
    #[test]
    fn xor_solver_agrees_with_brute_force(instance in arb_cnf_with_xors()) {
        let (cnf, xors) = instance;
        let mut config = SolverConfig::xor_gauss();
        config.verify_minimization = true;
        let (as_blocks, _) = check_differential(&with_xor_blocks(&cnf, &xors), &[], config.clone());
        let (native, _) = check_differential(&cnf, &xors, config);
        prop_assert_eq!(as_blocks, native);
    }
}

/// Random 3-SAT at the satisfiability threshold, `n` in `10..=16` and
/// `m = round(4.26 n)` clauses of three distinct variables: 200 instances,
/// each solved with the CCMin self-check armed. Unlike the arms above,
/// these instances make the solver search (about five conflicts each on
/// average), which the conflict total asserts, and both verdicts occur.
#[test]
fn threshold_3sat_solver_agrees_with_brute_force() {
    let mut rng = StdRng::seed_from_u64(426);
    let mut conflicts = 0;
    let mut unsat = 0;
    for _ in 0..200 {
        let vars = rng.gen_range(10..=16usize);
        let clauses = (4.26 * vars as f64).round() as usize;
        let cnf = satcomp::generate(satcomp::CnfFamily::Random3Sat { vars, clauses }, &mut rng);
        let (result, stats) = check_differential(&cnf, &[], checked_config(true));
        conflicts += stats.conflicts;
        unsat += usize::from(result == SolveResult::Unsat);
    }
    assert!(conflicts >= 500, "the arm searches: {conflicts} conflicts");
    assert!(
        (20..=180).contains(&unsat),
        "both verdicts occur: {unsat} of 200 unsatisfiable"
    );
}
