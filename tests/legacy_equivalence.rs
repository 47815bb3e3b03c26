//! The default pipeline must be behavior-identical to the pre-pipeline
//! engine: this test re-implements the original hard-coded `preprocess`
//! loop (PR 2 vintage, one 90-line function) on top of the public technique
//! APIs and checks that the pipeline-based engine reaches the same status
//! with the same learnt facts, fact counts and iteration count on the
//! paper examples and on cipher instances.
//!
//! Deliberately *not* compared: `gauss_row_xors` and `sat_conflicts`. The
//! pipeline skips a pass when nothing it reads changed since its last
//! deterministic run, so it performs strictly less elimination/solver work
//! in the fixed-point tail; what it learns (and when it stops) is
//! unchanged.

use bosphorus_repro::anf::{AnfPropagator, Assignment, Polynomial, PolynomialSystem, Var};
use bosphorus_repro::ciphers::{aes, simon};
use bosphorus_repro::core::{
    elimlin_learn, is_retainable_fact, sat_step, xl_learn, Bosphorus, BosphorusConfig, CancelToken,
    PreprocessStatus, SatStepStatus,
};
use bosphorus_repro::sat::SolverConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What the legacy loop produced, counted as `EngineStats` counts it.
#[derive(Debug, Default, PartialEq, Eq)]
struct LegacyCounts {
    iterations: usize,
    xl_facts: usize,
    elimlin_facts: usize,
    sat_facts: usize,
    propagated_assignments: usize,
    propagated_equivalences: usize,
}

#[derive(Debug, PartialEq, Eq)]
enum LegacyStatus {
    Solved(Assignment),
    Unsat,
    Simplified,
}

struct LegacyRun {
    status: LegacyStatus,
    counts: LegacyCounts,
    learnt: Vec<Polynomial>,
}

/// A port of the pre-pipeline `Bosphorus::preprocess`: XL, then ElimLin,
/// then the conflict-bounded SAT step, ANF propagation after each, until a
/// full iteration adds no facts. Three rules are the shipped ones, not the
/// original's: the SAT budget stays at its start value, a fact counts as
/// new only if the system does not already imply it, and the loop stops as
/// soon as propagation has emptied the system. Every SAT call is a new
/// search on a new encoding, as in the shipped SAT pass.
fn legacy_preprocess(system: &PolynomialSystem, config: &BosphorusConfig) -> LegacyRun {
    let original = system.clone();
    let original_num_vars = system.num_vars();
    let mut master = system.clone();
    let mut propagator = AnfPropagator::new(original_num_vars);
    let mut rng = StdRng::seed_from_u64(config.rng_seed);
    let mut counts = LegacyCounts::default();
    let mut learnt: Vec<Polynomial> = Vec::new();

    /// Commits each retainable fact reduced by the propagation knowledge
    /// (rejecting one that reduces to zero or to a row already present),
    /// and logs the fact as it was returned.
    fn add_facts(
        master: &mut PolynomialSystem,
        propagator: &AnfPropagator,
        learnt: &mut Vec<Polynomial>,
        facts: Vec<Polynomial>,
    ) -> usize {
        let mut added = 0;
        for fact in facts {
            if !is_retainable_fact(&fact) && !fact.is_one() {
                continue;
            }
            if master.push_unique(propagator.apply_to_polynomial(&fact)) {
                learnt.push(fact);
                added += 1;
            }
        }
        added
    }

    fn propagate(
        master: &mut PolynomialSystem,
        propagator: &mut AnfPropagator,
        counts: &mut LegacyCounts,
    ) -> bool {
        let outcome = propagator.propagate(master);
        counts.propagated_assignments += outcome.new_assignments;
        counts.propagated_equivalences += outcome.new_equivalences;
        outcome.contradiction
    }

    fn reconstruct(
        propagator: &AnfPropagator,
        original_num_vars: usize,
        partial: &Assignment,
    ) -> Assignment {
        let value_of = |v: Var| -> bool {
            if let Some(value) = propagator.value(v) {
                value
            } else if let Some((root, negated)) = propagator.equivalence(v) {
                let base = if (root as usize) < partial.len() {
                    partial.get(root)
                } else {
                    false
                };
                base ^ negated
            } else if (v as usize) < partial.len() {
                partial.get(v)
            } else {
                false
            }
        };
        Assignment::from_bits((0..original_num_vars as Var).map(value_of))
    }

    if propagate(&mut master, &mut propagator, &mut counts) {
        return LegacyRun {
            status: LegacyStatus::Unsat,
            counts,
            learnt,
        };
    }
    for _ in 0..config.max_iterations {
        if master.is_empty() {
            break;
        }
        counts.iterations += 1;
        let mut new_facts = 0usize;

        // --- XL -------------------------------------------------------
        let xl = xl_learn(&master, config, &mut rng, &CancelToken::never());
        let added = add_facts(&mut master, &propagator, &mut learnt, xl.facts);
        counts.xl_facts += added;
        new_facts += added;
        if propagate(&mut master, &mut propagator, &mut counts) {
            return LegacyRun {
                status: LegacyStatus::Unsat,
                counts,
                learnt,
            };
        }
        if master.is_empty() {
            break;
        }

        // --- ElimLin --------------------------------------------------
        let elimlin = elimlin_learn(&master, config, &mut rng, &CancelToken::never());
        if elimlin.contradiction {
            return LegacyRun {
                status: LegacyStatus::Unsat,
                counts,
                learnt,
            };
        }
        let added = add_facts(&mut master, &propagator, &mut learnt, elimlin.facts);
        counts.elimlin_facts += added;
        new_facts += added;
        if propagate(&mut master, &mut propagator, &mut counts) {
            return LegacyRun {
                status: LegacyStatus::Unsat,
                counts,
                learnt,
            };
        }
        if master.is_empty() {
            break;
        }

        // --- Conflict-bounded SAT ------------------------------------
        let sat = sat_step(
            &master,
            &propagator,
            config,
            &SolverConfig::aggressive(),
            config.sat_conflict_budget,
            &CancelToken::never(),
        );
        match sat.status {
            SatStepStatus::Unsatisfiable => {
                return LegacyRun {
                    status: LegacyStatus::Unsat,
                    counts,
                    learnt,
                };
            }
            SatStepStatus::Satisfiable(assignment) => {
                let full = reconstruct(&propagator, original_num_vars, &assignment);
                return LegacyRun {
                    status: LegacyStatus::Solved(full),
                    counts,
                    learnt,
                };
            }
            SatStepStatus::Undecided => {}
            SatStepStatus::Interrupted => unreachable!("no cancel token was set"),
        }
        let added = add_facts(&mut master, &propagator, &mut learnt, sat.facts);
        counts.sat_facts += added;
        new_facts += added;
        if propagate(&mut master, &mut propagator, &mut counts) {
            return LegacyRun {
                status: LegacyStatus::Unsat,
                counts,
                learnt,
            };
        }

        if new_facts == 0 {
            break;
        }
    }
    if master.is_empty() && !propagator.has_contradiction() {
        let assignment = reconstruct(
            &propagator,
            original_num_vars,
            &Assignment::all_false(original_num_vars),
        );
        if original.is_satisfied_by(&assignment) {
            return LegacyRun {
                status: LegacyStatus::Solved(assignment),
                counts,
                learnt,
            };
        }
    }
    LegacyRun {
        status: LegacyStatus::Simplified,
        counts,
        learnt,
    }
}

fn assert_equivalent(label: &str, system: &PolynomialSystem, config: &BosphorusConfig) {
    let legacy = legacy_preprocess(system, config);
    let mut engine = Bosphorus::new(system.clone(), config.clone());
    let status = engine.preprocess();
    let stats = engine.stats();

    match (&legacy.status, &status) {
        (LegacyStatus::Solved(a), PreprocessStatus::Solved(b)) => {
            assert_eq!(a, b, "{label}: solutions diverge");
        }
        (LegacyStatus::Unsat, PreprocessStatus::Unsat) => {}
        (LegacyStatus::Simplified, PreprocessStatus::Simplified) => {}
        (l, n) => panic!("{label}: legacy ended {l:?}, pipeline ended {n:?}"),
    }
    let pipeline_counts = LegacyCounts {
        iterations: stats.iterations,
        xl_facts: stats.facts_from("xl"),
        elimlin_facts: stats.facts_from("elimlin"),
        sat_facts: stats.facts_from("sat"),
        propagated_assignments: stats.propagated_assignments,
        propagated_equivalences: stats.propagated_equivalences,
    };
    assert_eq!(legacy.counts, pipeline_counts, "{label}: counters diverge");
    assert_eq!(
        legacy.learnt,
        engine.learnt_facts(),
        "{label}: learnt-fact logs diverge"
    );
}

#[test]
fn section_2e_example_matches_the_legacy_loop() {
    let system = PolynomialSystem::parse(
        "x1*x2 + x3 + x4 + 1;
         x1*x2*x3 + x1 + x3 + 1;
         x1*x3 + x3*x4*x5 + x3;
         x2*x3 + x3*x5 + 1;
         x2*x3 + x5 + 1;",
    )
    .expect("paper system parses");
    assert_equivalent("section-2e", &system, &BosphorusConfig::default());
    assert_equivalent(
        "section-2e/exhaustive",
        &system,
        &BosphorusConfig::exhaustive(),
    );
}

#[test]
fn small_handwritten_systems_match_the_legacy_loop() {
    let texts = [
        "x1*x2 + x1 + 1; x2*x3 + x3;",
        "x0*x1 + x2; x1 + x2 + 1; x0*x2 + x0 + x1;",
        "x0*x1 + 1; x0 + x1 + 1;",
        "x0 + x1; x1 + x2; x0*x2 + 1;",
        "x0*x1 + x0 + x1; x2 + 1; x0*x2 + x1;",
        "x0*x1*x2 + 1; x0 + x1;",
        // Propagation leaves these two alone and XL does not empty them, so
        // every technique runs on them.
        "x0*x1 + x2; x1*x2 + x3;",
        "x0*x1 + x1*x2 + x2*x3 + 1; x0*x2 + x1*x3;",
    ];
    for text in texts {
        let system = PolynomialSystem::parse(text).expect("parses");
        assert_equivalent(text, &system, &BosphorusConfig::default());
    }
}

#[test]
fn simon_instances_match_the_legacy_loop() {
    let mut rng = StdRng::seed_from_u64(2019);
    for rounds in [3usize, 4] {
        let instance = simon::generate(
            simon::SimonParams {
                num_plaintexts: 2,
                rounds,
            },
            &mut rng,
        );
        assert_equivalent(
            &format!("simon-2-{rounds}"),
            &instance.system,
            &BosphorusConfig::default(),
        );
    }
}

#[test]
fn committed_simon_2_8_matches_the_legacy_loop() {
    // The SAT pass reads values propagation already knows back off its
    // trail here; neither loop counts them as new facts.
    let path = format!(
        "{}/examples/instances/simon_2_8.anf",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let system = PolynomialSystem::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    assert_equivalent("simon_2_8.anf", &system, &BosphorusConfig::default());
}

#[test]
fn simon_under_a_small_sat_budget_matches_the_legacy_loop() {
    // A budget of 100 conflicts leaves more SAT rounds undecided.
    let config = BosphorusConfig {
        sat_conflict_budget: 100,
        ..BosphorusConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(11);
    for rounds in [5usize, 6, 7] {
        let instance = simon::generate(
            simon::SimonParams {
                num_plaintexts: 2,
                rounds,
            },
            &mut rng,
        );
        assert_equivalent(&format!("simon-2-{rounds}/c100"), &instance.system, &config);
    }
}

#[test]
fn simon_under_a_tight_subsample_budget_matches_the_legacy_loop() {
    // A small subsampling budget forces the non-deterministic regime where
    // the passes must never skip; the shared random stream keeps the
    // pipeline aligned with the legacy loop draw for draw.
    let mut rng = StdRng::seed_from_u64(7);
    let instance = simon::generate(
        simon::SimonParams {
            num_plaintexts: 2,
            rounds: 3,
        },
        &mut rng,
    );
    let config = BosphorusConfig {
        subsample_m: 8,
        ..BosphorusConfig::default()
    };
    assert_equivalent("simon-2-3/m8", &instance.system, &config);
}

#[test]
fn aes_small_scale_matches_the_legacy_loop() {
    let mut rng = StdRng::seed_from_u64(5);
    let instance = aes::generate(aes::AesParams::small(1), &mut rng);
    assert_equivalent("sr-1224", &instance.system, &BosphorusConfig::default());
}
