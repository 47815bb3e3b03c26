//! Pins the CDCL search trajectory: exact `SolverStats` on fixed instances.
//!
//! Every counter below was recorded with the solver that kept each clause
//! in its own heap vector, and re-checked after the clause store moved to a
//! flat arena. The counters cover decisions, conflicts, propagations,
//! restarts, the learnt database and minimization, so any change to them
//! means the search itself changed, not just how fast it runs.
//!
//! A conflict budget pauses the search instead of ending it, so a budget
//! split over two calls must reach exactly the state of one call.

use bosphorus_repro::ciphers::satcomp;
use bosphorus_repro::cnf::CnfFormula;
use bosphorus_repro::core::{anf_to_cnf, AnfPropagator, BosphorusConfig, CnfConversion};
use bosphorus_repro::sat::{SolveResult, Solver, SolverConfig, SolverStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn simon_2_8_conversion() -> CnfConversion {
    let path = format!(
        "{}/examples/instances/simon_2_8.anf",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let system = bosphorus_repro::anf::PolynomialSystem::parse(&text)
        .unwrap_or_else(|e| panic!("parse {path}: {e}"));
    anf_to_cnf(
        &system,
        &AnfPropagator::new(system.num_vars()),
        &BosphorusConfig::default(),
    )
}

fn seed_13_random_3sat() -> CnfFormula {
    let mut rng = StdRng::seed_from_u64(13);
    satcomp::generate(
        satcomp::CnfFamily::Random3Sat {
            vars: 150,
            clauses: 639,
        },
        &mut rng,
    )
}

#[test]
fn simon_2_8_search_at_a_20000_conflict_budget_is_pinned() {
    let cnf = simon_2_8_conversion().cnf;
    let mut solver = Solver::from_formula(SolverConfig::aggressive(), &cnf);
    solver.set_conflict_budget(Some(20_000));
    assert_eq!(solver.solve(), SolveResult::Unknown);
    assert_eq!(
        *solver.stats(),
        SolverStats {
            conflicts: 20_000,
            decisions: 30_761,
            propagations: 3_861_258,
            restarts: 114,
            learnt_clauses: 8_986,
            removed_clauses: 11_014,
            db_reductions: 3,
            minimized_literals: 205_909,
            ..SolverStats::default()
        }
    );
}

#[test]
fn satcomp_random_3sat_search_is_pinned() {
    let cnf = seed_13_random_3sat();
    let mut solver = Solver::from_formula(SolverConfig::aggressive(), &cnf);
    assert_eq!(solver.solve(), SolveResult::Unsat);
    assert_eq!(
        *solver.stats(),
        SolverStats {
            conflicts: 3_071,
            decisions: 3_678,
            propagations: 125_452,
            restarts: 24,
            learnt_clauses: 1_379,
            removed_clauses: 1_688,
            db_reductions: 5,
            minimized_literals: 7_523,
            ..SolverStats::default()
        }
    );
}

#[test]
fn a_split_conflict_budget_continues_the_search_exactly() {
    let simon = simon_2_8_conversion();
    let random = seed_13_random_3sat();
    for config in [
        SolverConfig::minimal(),
        SolverConfig::aggressive(),
        SolverConfig::xor_gauss(),
    ] {
        // Simon's solver gets its native XORs under `xor_gauss`, so the
        // continued search also carries XOR propagation and the top-level
        // Gauss-Jordan schedule across the pause.
        let fresh = |instance: &str| match instance {
            "simon_2_8" => simon.solver(&config),
            _ => Solver::from_formula(config.clone(), &random),
        };
        for instance in ["simon_2_8", "random_3sat_seed_13"] {
            for (a, b) in [(4_000, 2_000), (1, 2_999), (700, 700)] {
                let label = format!("{} on {instance}, {a} + {b}", config.name);
                let mut whole = fresh(instance);
                whole.set_conflict_budget(Some(a + b));
                let whole_result = whole.solve();

                let mut split = fresh(instance);
                split.set_conflict_budget(Some(a));
                let mut split_result = split.solve();
                if split_result == SolveResult::Unknown {
                    split.set_conflict_budget(Some(b));
                    split_result = split.solve();
                }

                assert_eq!(split_result, whole_result, "{label}: result");
                assert_eq!(split.stats(), whole.stats(), "{label}: stats");
                assert!(
                    split.learnt_clauses() == whole.learnt_clauses(),
                    "{label}: learnt clauses"
                );
                assert_eq!(
                    split.top_level_assignments(),
                    whole.top_level_assignments(),
                    "{label}: top-level trail"
                );
                assert_eq!(split.model(), whole.model(), "{label}: model");
            }
        }
    }
}
