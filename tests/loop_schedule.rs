//! Pins how the fact-learning loop moves its sizes under custom pass orders.
//!
//! The SAT conflict budget grows after every dry SAT pass, not once per
//! iteration, so a second SAT pass in the same iteration already runs with
//! the raised budget. The iteration limit bounds the loop, and a limit of 0
//! runs no iteration at all.

use bosphorus_repro::core::{Bosphorus, BosphorusConfig, PassKind};

fn simon_2_8() -> bosphorus_repro::anf::PolynomialSystem {
    let path = format!(
        "{}/examples/instances/simon_2_8.anf",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    bosphorus_repro::anf::PolynomialSystem::parse(&text)
        .unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

#[test]
fn two_sat_passes_share_a_budget_that_grows_after_each_dry_pass() {
    // Each pass keeps its own search. Iteration 1: the first pass (new
    // search, 2,000 conflicts) learns the only new fact, so the budget
    // stays at 2,000; the second (new search, 2,000, on the new revision)
    // is dry and raises the budget to 4,000. Iteration 2: the first pass
    // continues its 2,000-conflict search to 4,000 (2,000 more, on the
    // revision its fact made), is dry and raises the budget to 6,000; the
    // second continues its 2,000-conflict search to 6,000 (4,000 more), is
    // dry, and the quiet iteration ends the loop: 10,000 conflicts and 2
    // resumes. Raising the budget once per iteration instead would run the
    // second pass of iteration 2 to 4,000 (2,000 more), for 8,000 in all.
    let config = BosphorusConfig {
        pass_order: vec![PassKind::Sat, PassKind::Sat],
        ..BosphorusConfig::default()
    };
    let mut engine = Bosphorus::new(simon_2_8(), config);
    let _ = engine.preprocess();
    let stats = engine.stats();
    assert_eq!(stats.iterations, 2, "{stats}");
    let sat = stats.pass("sat").expect("the SAT passes ran");
    assert_eq!(sat.runs, 4, "{stats}");
    assert_eq!(sat.sat_conflicts, 10_000, "{stats}");
    assert_eq!(stats.sat_conflicts, 10_000, "{stats}");
    assert_eq!(sat.sat_resumes, 2, "{stats}");
    assert_eq!(sat.facts, 1, "{stats}");
    assert_eq!(stats.facts_from_sat, 1, "{stats}");
}

#[test]
fn an_iteration_limit_of_zero_runs_no_iteration() {
    let config = BosphorusConfig {
        max_iterations: 0,
        ..BosphorusConfig::default()
    };
    let mut engine = Bosphorus::new(simon_2_8(), config);
    let _ = engine.preprocess();
    assert_eq!(engine.stats().iterations, 0);
    assert!(engine.learnt_facts().is_empty());
    assert_eq!(engine.stats().total_facts(), 0);
}
