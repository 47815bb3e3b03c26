//! Pins how the fact-learning loop moves its sizes under custom pass orders.
//!
//! A dry SAT pass raises the SAT conflict budget only when no earlier pass
//! of its iteration committed a fact; the raise applies at once, so a
//! second SAT pass in the same iteration already runs with the raised
//! budget. On the default order (XL, ElimLin, SAT) the budget therefore
//! stays at its start value for every SAT round, while a SAT-first order
//! grows it after every dry round. Every SAT round that runs is a new
//! search for the full budget; a SAT pass skips only a revision it already
//! searched at a budget that has not risen since. The iteration limit
//! bounds the loop, and a limit of 0 runs no iteration at all.

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
    // searches 2,000 conflicts and learns the only new fact, so the budget
    // stays at 2,000; the second searches the new revision (2,000) and is
    // dry, but a fact was committed earlier in the iteration, so the
    // budget still stays at 2,000. Iteration 2: the revision changed since
    // the first pass's last round (its own fact), so it searches again at
    // 2,000; it is dry with nothing committed before it and raises the
    // budget to 4,000. The second pass's revision is unchanged, but its
    // budget rose from 2,000 to 4,000, so it searches again from scratch
    // (4,000), is dry and raises the budget to 6,000, and the quiet
    // iteration ends the loop: 2,000 + 2,000 + 2,000 + 4,000 = 10,000
    // conflicts.
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
    assert_eq!(sat.facts, 1, "{stats}");
    assert_eq!(stats.facts_from_sat, 1, "{stats}");
    let budgets: Vec<u64> = stats.timeline.iter().map(|e| e.sat_budget).collect();
    assert_eq!(budgets, [2_000, 2_000, 2_000, 4_000], "{stats}");
}

#[test]
fn a_sat_first_order_grows_the_budget_and_searches_afresh_each_round() {
    // SAT opens every iteration, so no earlier fact holds its budget flat.
    // Iteration 1: the search spends 2,000 conflicts and learns 1 fact, so
    // the budget stays at 2,000; XL and ElimLin then commit facts.
    // Iteration 2: the revision changed, so the pass searches again
    // (2,000), is dry and raises the budget to 4,000; XL commits more
    // facts. Iteration 3: the revision changed again, so the pass searches
    // the new encoding from scratch for the full 4,000, is dry, and XL and
    // ElimLin learn nothing: 3 runs, 2,000 + 2,000 + 4,000 = 8,000
    // conflicts. The rule that raised the budget after every dry pass gives
    // the same counts on this order.
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
    assert_eq!(sat.sat_conflicts, 8_000, "{stats}");
    assert_eq!(sat.facts, 1, "{stats}");
    assert_eq!(stats.total_facts(), 74, "{stats}");
    let budgets: Vec<u64> = stats
        .timeline
        .iter()
        .filter(|e| e.pass == "sat")
        .map(|e| e.sat_budget)
        .collect();
    assert_eq!(budgets, [2_000, 2_000, 4_000], "{stats}");
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
