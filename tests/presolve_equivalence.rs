//! The pipeline preprocesses identically with the sparse presolve on or off.
//!
//! The presolve is exact: it hands the dense kernel a smaller matrix with
//! the same RREF, so XL and ElimLin learn the same facts either way. Every
//! SAT pass encodes the current system from scratch and runs a fresh
//! conflict-bounded solver, so the whole outcome depends on the system
//! alone: fresh engines with the presolve on and off must give the same
//! status, the same learnt facts in the same order, the same per-pass fact
//! counts and the same iteration count. These tests pin that on the
//! committed example instances; the fact streams themselves are pinned by
//! the golden test in `tests/pipeline.rs`.

use bosphorus_repro::anf::PolynomialSystem;
use bosphorus_repro::core::{Bosphorus, BosphorusConfig};

/// Preprocesses `system` with the presolve on and off and asserts the
/// outcomes are indistinguishable.
fn assert_preprocess_equivalent(name: &str, system: &PolynomialSystem, config: &BosphorusConfig) {
    let mut outcomes = Vec::new();
    for presolve in [true, false] {
        let config = BosphorusConfig {
            presolve,
            ..config.clone()
        };
        let mut engine = Bosphorus::new(system.clone(), config);
        let status = engine.preprocess();
        let stats = engine.stats();
        let pass_facts: Vec<(String, usize)> = stats
            .passes
            .iter()
            .map(|p| (p.name.clone(), p.facts))
            .collect();
        outcomes.push((
            presolve,
            status,
            engine.learnt_facts().to_vec(),
            pass_facts,
            stats.iterations,
            stats.facts_from_sat,
        ));
    }
    let reference = &outcomes[0];
    for other in &outcomes[1..] {
        let setting = format!("presolve={}", other.0);
        assert_eq!(reference.1, other.1, "{name} {setting}: status diverges");
        assert_eq!(
            reference.2, other.2,
            "{name} {setting}: learnt facts diverge"
        );
        assert_eq!(
            reference.3, other.3,
            "{name} {setting}: per-pass fact counts diverge"
        );
        assert_eq!(
            reference.4, other.4,
            "{name} {setting}: iteration counts diverge"
        );
        assert_eq!(
            reference.5, other.5,
            "{name} {setting}: SAT fact totals diverge"
        );
    }
}

fn committed_instance(file: &str) -> PolynomialSystem {
    let path = format!("{}/examples/instances/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    PolynomialSystem::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

#[test]
fn worked_example_preprocesses_identically() {
    let system = committed_instance("worked_example.anf");
    assert_preprocess_equivalent("worked_example", &system, &BosphorusConfig::default());
}

#[test]
fn table1_preprocesses_identically() {
    let system = committed_instance("table1.anf");
    assert_preprocess_equivalent("table1", &system, &BosphorusConfig::default());
}

#[test]
fn unsat_instance_preprocesses_identically() {
    let system = committed_instance("unsat.anf");
    assert_preprocess_equivalent("unsat", &system, &BosphorusConfig::default());
}

#[test]
fn simon_2_8_preprocesses_identically() {
    // The multi-iteration instance, where the SAT pass runs in several
    // rounds. Iterations and budget are trimmed so the debug-mode test run
    // stays quick.
    let system = committed_instance("simon_2_8.anf");
    let config = BosphorusConfig {
        max_iterations: 4,
        sat_conflict_budget: 300,
        sat_budget_max: 300,
        ..BosphorusConfig::default()
    };
    assert_preprocess_equivalent("simon_2_8", &system, &config);
}
