//! Integration tests spanning the whole pipeline: benchmark generators →
//! Bosphorus preprocessing → SAT solving, plus the Gröbner baseline.

use bosphorus_repro::anf::Assignment;
use bosphorus_repro::ciphers::{aes, bitcoin, satcomp, simon};
use bosphorus_repro::core::{anf_to_cnf, AnfPropagator, Bosphorus, BosphorusConfig, SolveStatus};
use bosphorus_repro::groebner::{groebner_basis, GroebnerConfig, GroebnerOutcome};
use bosphorus_repro::sat::{SolveResult, Solver, SolverConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn simon_key_recovery_end_to_end() {
    let mut rng = StdRng::seed_from_u64(2019);
    let instance = simon::generate(
        simon::SimonParams {
            num_plaintexts: 2,
            rounds: 3,
        },
        &mut rng,
    );
    let mut engine = Bosphorus::new(instance.system.clone(), BosphorusConfig::default());
    match engine.solve(&SolverConfig::xor_gauss()) {
        SolveStatus::Sat(assignment) => {
            assert!(instance.system.is_satisfied_by(&assignment));
        }
        SolveStatus::Unsat => panic!("the instance has a witness by construction"),
        SolveStatus::Interrupted => panic!("no cancel token was set"),
    }
}

#[test]
fn aes_small_scale_end_to_end_direct_vs_bosphorus() {
    let mut rng = StdRng::seed_from_u64(5);
    let instance = aes::generate(aes::AesParams::small(1), &mut rng);
    let config = BosphorusConfig::default();

    // Direct: ANF -> CNF -> SAT.
    let conversion = anf_to_cnf(
        &instance.system,
        &AnfPropagator::new(instance.system.num_vars()),
        &config,
    );
    let mut solver = Solver::from_formula(SolverConfig::aggressive(), &conversion.cnf);
    assert_eq!(solver.solve(), SolveResult::Sat);

    // Through Bosphorus.
    let mut engine = Bosphorus::new(instance.system.clone(), config);
    match engine.solve(&SolverConfig::aggressive()) {
        SolveStatus::Sat(assignment) => assert!(instance.system.is_satisfied_by(&assignment)),
        SolveStatus::Unsat => panic!("satisfiable by construction"),
        SolveStatus::Interrupted => panic!("no cancel token was set"),
    }
}

#[test]
fn bitcoin_nonce_finding_is_satisfiable_and_verified() {
    let mut rng = StdRng::seed_from_u64(77);
    let params = bitcoin::BitcoinParams {
        difficulty: 4,
        rounds: 3,
    };
    let instance = bitcoin::generate(params, &mut rng);
    // The generator's witness satisfies the system, and solving recovers a
    // (possibly different) valid nonce.
    assert!(instance.system.is_satisfied_by(&instance.encoding.witness));
    let mut engine = Bosphorus::new(instance.system.clone(), BosphorusConfig::default());
    match engine.solve(&SolverConfig::aggressive()) {
        SolveStatus::Sat(assignment) => assert!(instance.system.is_satisfied_by(&assignment)),
        SolveStatus::Unsat => panic!("a witness nonce exists by construction"),
        SolveStatus::Interrupted => panic!("no cancel token was set"),
    }
}

#[test]
fn satcomp_suite_preprocessing_preserves_answers() {
    let mut rng = StdRng::seed_from_u64(3);
    for family in [
        satcomp::CnfFamily::Pigeonhole { pigeons: 4 },
        satcomp::CnfFamily::XorChain {
            length: 16,
            contradictory: true,
        },
        satcomp::CnfFamily::XorChain {
            length: 16,
            contradictory: false,
        },
        satcomp::CnfFamily::Random3Sat {
            vars: 12,
            clauses: 40,
        },
    ] {
        let cnf = satcomp::generate(family, &mut rng);
        let mut direct = Solver::from_formula(SolverConfig::aggressive(), &cnf);
        let expected = direct.solve();
        let mut engine = Bosphorus::from_cnf(&cnf, BosphorusConfig::default());
        let through = match engine.solve(&SolverConfig::aggressive()) {
            SolveStatus::Sat(_) => SolveResult::Sat,
            SolveStatus::Unsat => SolveResult::Unsat,
            SolveStatus::Interrupted => panic!("no cancel token was set"),
        };
        assert_eq!(expected, through, "family {family:?}");
    }
}

#[test]
fn groebner_baseline_cross_checks_bosphorus_on_toy_systems() {
    // On systems small enough for the Buchberger baseline to finish, its
    // consistency verdict must agree with the Bosphorus engine's.
    let texts = [
        "x0*x1 + 1; x0 + x1 + 1;",
        "x0*x1 + x2; x1 + x2 + 1; x0 + 1;",
        "x0 + x1; x1 + x2; x0 + x2 + 1;",
    ];
    for text in texts {
        let system = bosphorus_repro::anf::PolynomialSystem::parse(text).expect("parses");
        let groebner = groebner_basis(&system, &GroebnerConfig::default());
        let mut engine = Bosphorus::new(system.clone(), BosphorusConfig::default());
        let bosphorus_sat = matches!(engine.solve(&SolverConfig::minimal()), SolveStatus::Sat(_));
        match groebner.outcome {
            GroebnerOutcome::Inconsistent => assert!(!bosphorus_sat, "disagreement on {text}"),
            GroebnerOutcome::Complete => assert!(bosphorus_sat, "disagreement on {text}"),
            GroebnerOutcome::BudgetExhausted => {}
            GroebnerOutcome::Interrupted => panic!("no cancel token was set"),
        }
    }
}

#[test]
fn simon_witness_round_trips_through_preprocessing() {
    // The generator's witness must stay a model of the *processed* system
    // plus the propagator's assignments (preprocessing preserves solutions).
    let mut rng = StdRng::seed_from_u64(21);
    let instance = simon::generate(
        simon::SimonParams {
            num_plaintexts: 1,
            rounds: 3,
        },
        &mut rng,
    );
    let mut engine = Bosphorus::new(instance.system.clone(), BosphorusConfig::default());
    let _ = engine.preprocess();
    let witness = &instance.witness;
    // Every learnt fact must hold under the witness.
    for fact in engine.learnt_facts() {
        assert!(
            !fact.evaluate(|v| witness.get(v)),
            "learnt fact {fact} violated by the generator's witness"
        );
    }
    // The propagator's determined values must agree with the witness.
    for v in 0..instance.system.num_vars() as u32 {
        if let Some(value) = engine.propagator().value(v) {
            assert_eq!(value, witness.get(v), "variable x{v}");
        }
    }
}

#[test]
fn reconstructed_assignments_cover_eliminated_variables() {
    let mut rng = StdRng::seed_from_u64(8);
    let instance = aes::generate(aes::AesParams::small(1), &mut rng);
    let num_vars = instance.system.num_vars();
    let mut engine = Bosphorus::new(instance.system.clone(), BosphorusConfig::default());
    if let SolveStatus::Sat(assignment) = engine.solve(&SolverConfig::minimal()) {
        assert_eq!(assignment.len(), num_vars);
        assert!(instance.system.is_satisfied_by(&assignment));
    } else {
        panic!("satisfiable by construction");
    }
    let _ = Assignment::all_false(0);
}

/// FNV-1a over a byte string: a stable hash, unlike the standard library's
/// `DefaultHasher`, whose algorithm may change between Rust releases.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn committed_instance(file: &str) -> bosphorus_repro::anf::PolynomialSystem {
    let path = format!("{}/examples/instances/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    bosphorus_repro::anf::PolynomialSystem::parse(&text)
        .unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

#[test]
fn learnt_fact_stream_matches_the_recorded_golden_values() {
    // The learnt-fact count and the FNV-1a hash of the facts' `Display`
    // text (one fact per line, in commit order), recorded when the engine
    // still had a streaming presolve and a warm incremental SAT pass. Every
    // configuration then produced this stream, so any change to it is a
    // behaviour change, not a refactoring. Simon-[2,8] is trimmed to four
    // iterations at a 300-conflict budget so the debug build stays quick.
    //
    // The Simon-[2,8] entry was re-recorded (210 facts before, 74 now) when
    // the database started rejecting facts it already implies: the SAT pass
    // had been re-committing determined values that propagation had moved
    // out of the rows. The new stream is an order-preserving subsequence of
    // the old one with no new fact, under this trimmed config and under the
    // default one alike. No config reproduces the old stream.
    //
    // The Table I entry was re-recorded (3 facts before, none now) when
    // propagation learnt to read a product of literals plus one:
    // x1*x2 + x1 + 1 = x1·(x2 ⊕ 1) ⊕ 1 gives x1 = 1 and x2 = 0 before XL
    // runs, and propagation then decides the system on its own.
    let simon = BosphorusConfig {
        max_iterations: 4,
        sat_conflict_budget: 300,
        sat_budget_max: 300,
        ..BosphorusConfig::default()
    };
    for (file, config, count, hash) in [
        (
            "worked_example.anf",
            BosphorusConfig::default(),
            6,
            0xb718_6c12_7095_1a6c,
        ),
        (
            "table1.anf",
            BosphorusConfig::default(),
            0,
            0xcbf2_9ce4_8422_2325,
        ),
        (
            "unsat.anf",
            BosphorusConfig::default(),
            0,
            0xcbf2_9ce4_8422_2325,
        ),
        ("simon_2_8.anf", simon, 74, 0x39fe_85e1_33cb_b52b),
    ] {
        let mut engine = Bosphorus::new(committed_instance(file), config);
        let _ = engine.preprocess();
        let text: String = engine
            .learnt_facts()
            .iter()
            .map(|fact| format!("{fact}\n"))
            .collect();
        assert_eq!(engine.learnt_facts().len(), count, "{file}: fact count");
        assert_eq!(fnv1a(&text), hash, "{file}: fact stream hash");
    }
}

#[test]
fn simon_facts_are_distinct_and_the_loop_reaches_its_fixed_point() {
    // Every determined value is encoded as a unit clause and read back off
    // the SAT solver's level-0 trail. Such echoes must not count as new
    // facts, or the loop never sees a quiet iteration.
    let config = BosphorusConfig::default();
    let max_iterations = config.max_iterations;
    let mut engine = Bosphorus::new(committed_instance("simon_2_8.anf"), config);
    let _ = engine.preprocess();
    let facts = engine.learnt_facts();
    for (i, fact) in facts.iter().enumerate() {
        assert!(!facts[..i].contains(fact), "fact {fact} committed twice");
    }
    let stats = engine.stats();
    assert!(stats.iterations < max_iterations, "{stats}");
    let sat = stats.pass("sat").expect("the SAT pass ran");
    assert!(sat.known_facts > 0, "the SAT pass re-derives known values");
    assert_eq!(sat.facts, 0, "{stats}");
}

#[test]
fn sat_pass_continues_its_search_while_the_database_is_unchanged() {
    // Under the default config the SAT pass runs at 2,000, 4,000 and 6,000
    // conflicts on Simon-[2,8]. The database changes between the first two
    // rounds, so the second starts a new search; the third sees the same
    // revision and continues the second's search for 2,000 more conflicts
    // instead of spending all 6,000 again.
    let mut engine = Bosphorus::new(
        committed_instance("simon_2_8.anf"),
        BosphorusConfig::default(),
    );
    let _ = engine.preprocess();
    let sat = engine.stats().pass("sat").expect("the SAT pass ran");
    assert_eq!((sat.runs, sat.sat_resumes), (3, 1), "{}", engine.stats());
    assert_eq!(sat.sat_conflicts, 2_000 + 4_000 + 2_000);
    // The continued search learns what a new one would: the fact stream is
    // the golden Simon-[2,8] stream of the trimmed config, which the default
    // config also produced when every round searched from scratch.
    let text: String = engine
        .learnt_facts()
        .iter()
        .map(|fact| format!("{fact}\n"))
        .collect();
    assert_eq!(engine.learnt_facts().len(), 74);
    assert_eq!(fnv1a(&text), 0x39fe_85e1_33cb_b52b);
}
