//! Pins the fact-learning loop's sizes and stop rule under custom pass
//! orders.
//!
//! The SAT conflict budget stays at its start value for the whole run, on
//! every pass order: the paper's rise of the budget after a dry SAT call is
//! not reproduced. Every SAT round that runs is a new search for the full
//! budget, and a SAT pass skips a revision it already searched without a
//! verdict. The iteration limit bounds the loop, and a limit of 0 runs no
//! iteration at all.

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
fn two_sat_passes_share_a_budget_that_a_productive_pass_holds_flat() {
    // Each pass keeps its own skip memo. Iteration 1: the first pass
    // searches 2,000 conflicts and is dry; the revision is unchanged, but
    // the second pass has not searched it yet, so it searches it too
    // (2,000) and is dry. The quiet iteration ends the loop: 2 runs, no
    // skip, 2,000 × 2 = 4,000 conflicts.
    let config = BosphorusConfig {
        pass_order: vec![PassKind::Sat, PassKind::Sat],
        ..BosphorusConfig::default()
    };
    let mut engine = Bosphorus::new(simon_2_8(), config);
    let _ = engine.preprocess();
    let stats = engine.stats();
    assert_eq!(stats.iterations, 1, "{stats}");
    let sat = stats.pass("sat").expect("the SAT passes ran");
    assert_eq!((sat.runs, sat.skips), (2, 0), "{stats}");
    assert_eq!(sat.sat_conflicts, 4_000, "{stats}");
    assert_eq!(stats.sat_conflicts, 4_000, "{stats}");
    assert_eq!(sat.facts, 0, "{stats}");
    assert_eq!(stats.total_facts(), 0, "{stats}");
    let budgets: Vec<u64> = stats.timeline.iter().map(|e| e.sat_budget).collect();
    assert_eq!(budgets, [2_000; 2], "{stats}");
}

#[test]
fn a_sat_first_order_searches_afresh_each_round() {
    // Iteration 1: the search spends 2,000 conflicts and is dry; XL and
    // ElimLin then commit facts. Iteration 2: the revision changed, so
    // the pass searches the new encoding (2,000) and is dry; XL commits
    // more facts. Iteration 3: the revision changed again, so the pass
    // searches again (2,000) and is dry, and XL and ElimLin learn nothing:
    // 3 runs, 2,000 × 3 = 6,000 conflicts.
    let config = BosphorusConfig {
        pass_order: vec![PassKind::Sat, PassKind::Xl, PassKind::ElimLin],
        ..BosphorusConfig::default()
    };
    let mut engine = Bosphorus::new(simon_2_8(), config);
    let _ = engine.preprocess();
    let stats = engine.stats();
    assert_eq!(stats.iterations, 3, "{stats}");
    let sat = stats.pass("sat").expect("the SAT pass ran");
    assert_eq!(sat.runs, 3, "{stats}");
    assert_eq!(sat.sat_conflicts, 6_000, "{stats}");
    assert_eq!(sat.facts, 0, "{stats}");
    assert_eq!(stats.total_facts(), 74, "{stats}");
    let budgets: Vec<u64> = stats
        .timeline
        .iter()
        .filter(|e| e.pass == "sat")
        .map(|e| e.sat_budget)
        .collect();
    assert_eq!(budgets, [2_000; 3], "{stats}");
    // Each timeline entry records the conflicts its execution spent.
    assert!(
        stats
            .timeline
            .iter()
            .all(|e| e.sat_conflicts == if e.pass == "sat" { 2_000 } else { 0 }),
        "{stats}"
    );
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
