//! Integration tests for the ANF↔CNF conversions on realistic (cipher)
//! polynomials rather than toy systems.

use bosphorus_repro::anf::{Assignment, Monomial, Polynomial, PolynomialSystem, TermScratch, Var};
use bosphorus_repro::ciphers::{aes, bitcoin, satcomp, simon};
use bosphorus_repro::cnf::CnfFormula;
use bosphorus_repro::core::{
    anf_to_cnf, cnf_to_anf, AnfPropagator, BosphorusConfig, CancelToken, Linearization,
    LinearizationBuilder,
};
use bosphorus_repro::sat::{SolveResult, Solver, SolverConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Converting a Simon instance to CNF and solving it yields a model whose
/// restriction to the ANF variables satisfies the original system — i.e. the
/// conversion is model-preserving on real cryptographic instances, not just
/// on the random systems covered by the property tests.
#[test]
fn simon_instance_cnf_models_restrict_to_anf_models() {
    let mut rng = StdRng::seed_from_u64(4);
    let instance = simon::generate(
        simon::SimonParams {
            num_plaintexts: 1,
            rounds: 3,
        },
        &mut rng,
    );
    let config = BosphorusConfig::default();
    let conversion = anf_to_cnf(
        &instance.system,
        &AnfPropagator::new(instance.system.num_vars()),
        &config,
    );
    assert!(!conversion.xors.is_empty());
    let mut solver = conversion.solver(&SolverConfig::xor_gauss());
    assert_eq!(solver.solve(), SolveResult::Sat);
    assert!(solver.stats().xor_gauss_rounds > 0);
    let model = solver.model().expect("model");
    let restricted = Assignment::from_bits(
        (0..instance.system.num_vars()).map(|v| model.get(v).copied().unwrap_or(false)),
    );
    assert!(instance.system.is_satisfied_by(&restricted));
}

/// CNF → ANF → CNF round trip on the synthetic SAT-competition suite keeps
/// the answer of every instance.
#[test]
fn cnf_anf_cnf_roundtrip_preserves_answers() {
    let mut rng = StdRng::seed_from_u64(10);
    let config = BosphorusConfig::default();
    for family in satcomp::default_suite(1) {
        let cnf = satcomp::generate(family, &mut rng);
        let expected = {
            let mut solver = Solver::from_formula(SolverConfig::aggressive(), &cnf);
            solver.solve()
        };
        // CNF -> ANF.
        let anf = cnf_to_anf(&cnf);
        // ANF -> CNF again.
        let back = anf_to_cnf(
            &anf.system,
            &AnfPropagator::new(anf.system.num_vars()),
            &config,
        );
        let roundtrip = {
            let mut solver = Solver::from_formula(SolverConfig::aggressive(), &back.cnf);
            solver.solve()
        };
        assert_eq!(expected, roundtrip, "family {family:?}");
    }
}

/// The DIMACS writer/parser round-trips the generated CNF suite.
#[test]
fn generated_suite_survives_dimacs_roundtrip() {
    let mut rng = StdRng::seed_from_u64(11);
    for family in satcomp::default_suite(1) {
        let cnf = satcomp::generate(family, &mut rng);
        let reparsed = CnfFormula::parse_dimacs(&cnf.to_dimacs()).expect("round-trip parses");
        assert_eq!(reparsed, cnf);
    }
}

/// The committed DIMACS instances round-trip through the writer and the
/// parser: `parse_dimacs(to_dimacs(f)) == f`.
#[test]
fn committed_cnf_files_survive_dimacs_roundtrip() {
    for name in ["small.cnf", "unsat.cnf"] {
        let path = format!("{}/examples/instances/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let cnf = CnfFormula::parse_dimacs(&text).expect("the committed file parses");
        assert!(cnf.num_clauses() > 0, "{name}");
        let reparsed = CnfFormula::parse_dimacs(&cnf.to_dimacs()).expect("round-trip parses");
        assert_eq!(reparsed, cnf, "{name}");
    }
}

/// The textual ANF format round-trips a full cipher instance.
#[test]
fn simon_system_survives_text_roundtrip() {
    let mut rng = StdRng::seed_from_u64(12);
    let instance = simon::generate(
        simon::SimonParams {
            num_plaintexts: 1,
            rounds: 3,
        },
        &mut rng,
    );
    let text = instance.system.to_string();
    let reparsed = PolynomialSystem::parse(&text).expect("round-trip parses");
    assert_eq!(reparsed.polynomials(), instance.system.polynomials());
    assert!(reparsed.is_satisfied_by(&instance.witness));
}

/// Conversion statistics: cipher systems with small-support polynomials go
/// through the Karnaugh path, long XOR-ish polynomials through Tseitin.
#[test]
fn conversion_paths_match_polynomial_shape() {
    let config = BosphorusConfig::default();
    // Simon equations have at most ~8-variable support: Karnaugh path.
    let mut rng = StdRng::seed_from_u64(13);
    let simon_instance = simon::generate(
        simon::SimonParams {
            num_plaintexts: 1,
            rounds: 3,
        },
        &mut rng,
    );
    let simon_conv = anf_to_cnf(
        &simon_instance.system,
        &AnfPropagator::new(simon_instance.system.num_vars()),
        &config,
    );
    assert!(simon_conv.karnaugh_clauses > 0);

    // A wide parity constraint must take the Tseitin path with XOR cutting.
    let wide =
        PolynomialSystem::parse("x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + x10 + x11 + 1;")
            .expect("parses");
    let wide_conv = anf_to_cnf(&wide, &AnfPropagator::new(wide.num_vars()), &config);
    assert!(wide_conv.tseitin_clauses > 0);
    assert!(wide_conv.cnf.num_vars() > wide.num_vars());
}

/// One exhaustive degree-1 XL round on a Simon-[2,3] instance, built two
/// ways: streamed through `LinearizationBuilder` (the engine's path) and from
/// materialised products (`Linearization::build`). The two linearisations are
/// identical column for column and row for row, and after elimination they
/// have the same rank and the same retainable facts. The presolve's
/// agreement with the dense kernel is pinned by its own tests.
#[test]
fn simon_xl_round_builder_matches_the_eager_construction() {
    let mut rng = StdRng::seed_from_u64(2019);
    let instance = simon::generate(
        simon::SimonParams {
            num_plaintexts: 2,
            rounds: 3,
        },
        &mut rng,
    );
    let system = &instance.system;
    let mut vars: Vec<Var> = system.iter().flat_map(Polynomial::variables).collect();
    vars.sort_unstable();
    vars.dedup();
    let multipliers: Vec<Monomial> = vars.into_iter().map(Monomial::variable).collect();

    let mut eager: Vec<Polynomial> = system.iter().cloned().collect();
    let mut builder = LinearizationBuilder::new();
    for poly in system.iter() {
        builder.push(poly);
    }
    let mut scratch = TermScratch::new();
    for base in system.iter() {
        for m in &multipliers {
            let product = base.mul_monomial(m);
            if !product.is_zero() {
                eager.push(product);
            }
            builder.push_product(base, m, &mut scratch);
        }
    }
    let lin = builder.finish();
    let eager_lin = Linearization::build(eager.iter());
    assert_eq!(
        (lin.num_rows(), lin.num_columns()),
        (eager_lin.num_rows(), eager_lin.num_columns())
    );
    for c in 0..lin.num_columns() {
        assert_eq!(lin.column_monomial(c), eager_lin.column_monomial(c));
    }
    for r in 0..lin.num_rows() {
        assert_eq!(lin.matrix().row(r), eager_lin.matrix().row(r), "row {r}");
    }

    let never = CancelToken::never();
    let (facts, rank, _, _) = lin.eliminate_retainable(&never);
    let (eager_facts, eager_rank, _, _) = eager_lin.eliminate_retainable(&never);
    assert_eq!(rank, eager_rank);
    assert_eq!(facts, eager_facts);
    assert!(!facts.is_empty(), "the round learns facts");
    for fact in &facts {
        assert!(!fact.evaluate(|v| instance.witness.get(v)), "{fact}");
    }
}

/// 64-bit FNV-1a over `bytes`: stable across Rust releases.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The seeded systems whose raw conversions are pinned, each generated from
/// its own `StdRng` seed 1: Simon-[4,5], SR-[1,2,2,4] (its 8-variable
/// S-box covers), Bitcoin-[8,16] and Simon-[2,8].
fn pinned_systems() -> Vec<(&'static str, PolynomialSystem)> {
    let simon = |num_plaintexts, rounds| {
        let params = simon::SimonParams {
            num_plaintexts,
            rounds,
        };
        simon::generate(params, &mut StdRng::seed_from_u64(1)).system
    };
    let bitcoin = bitcoin::BitcoinParams {
        difficulty: 8,
        rounds: 16,
    };
    vec![
        ("Simon-[4,5]", simon(4, 5)),
        (
            "SR-[1,2,2,4]",
            aes::generate(aes::AesParams::small(1), &mut StdRng::seed_from_u64(1)).system,
        ),
        (
            "Bitcoin-[8,16]",
            bitcoin::generate(bitcoin, &mut StdRng::seed_from_u64(1)).system,
        ),
        ("Simon-[2,8]", simon(2, 8)),
    ]
}

/// The raw ANF → CNF conversion with a fresh propagator (the Table II
/// "w/o" path) is pinned clause for clause: the FNV-1a hash covers the
/// DIMACS text and every recorded XOR (its variables, right-hand side and
/// clause range). A change to the Karnaugh covers, the Tseitin cut, the
/// clause order or the XOR bookkeeping shows up here.
#[test]
fn raw_conversions_of_seeded_systems_are_pinned() {
    let pinned: [(&str, u64); 4] = [
        ("Simon-[4,5]", 0x3fc8_ca4b_16f8_443f),
        ("SR-[1,2,2,4]", 0xc92b_4b23_febb_f795),
        ("Bitcoin-[8,16]", 0x9829_bfcc_a1dd_4da2),
        ("Simon-[2,8]", 0xce64_5c7f_8365_30a5),
    ];
    let config = BosphorusConfig::default();
    let mut hashes = Vec::new();
    for (name, system) in pinned_systems() {
        let conversion = anf_to_cnf(&system, &AnfPropagator::new(system.num_vars()), &config);
        let mut text = conversion.cnf.to_dimacs();
        assert_eq!(
            CnfFormula::parse_dimacs(&text).as_ref(),
            Ok(&conversion.cnf),
            "{name}: parse_dimacs(to_dimacs(f)) == f"
        );
        for piece in &conversion.xors {
            text.push('x');
            for var in piece.xor.vars() {
                text.push_str(&format!(" {var}"));
            }
            text.push_str(&format!(
                " = {} @ {}..{}\n",
                u8::from(piece.xor.rhs()),
                piece.clauses.start,
                piece.clauses.end
            ));
        }
        hashes.push((name, fnv1a(text.as_bytes())));
    }
    assert_eq!(hashes, pinned, "(system, FNV-1a of its conversion)");
}

/// The raw CNF → ANF conversion (Hsiang's encoding with clauses cut at
/// `L'`) is pinned input for input: the FNV-1a hash of the printed ANF,
/// the number of split clauses and the original variable count. The inputs
/// are the committed DIMACS files and the synthetic SAT-comp suite at scale
/// 3, each family generated from its own `StdRng` seed 1. The Pigeonhole
/// instance (7 pigeons, 6 holes) has clauses of 6 positive literals, more
/// than `L' = 5`, so the cut is covered.
#[test]
fn raw_cnf_to_anf_conversions_are_pinned() {
    let pinned: [(&str, u64, usize, usize); 9] = [
        ("small.cnf", 0x2928_f547_e684_a4db, 0, 4),
        ("unsat.cnf", 0xf65a_4feb_bf55_d99b, 0, 1),
        (
            "Random3Sat { vars: 60, clauses: 240 }",
            0xcda9_c0a7_83a8_dc30,
            0,
            60,
        ),
        (
            "Random3Sat { vars: 60, clauses: 273 }",
            0xab81_b0fc_db9d_8d2b,
            0,
            60,
        ),
        ("Pigeonhole { pigeons: 7 }", 0xa701_c943_906a_40e6, 7, 42),
        (
            "XorChain { length: 72, contradictory: false }",
            0xe4a4_9290_93f5_3969,
            0,
            72,
        ),
        (
            "XorChain { length: 72, contradictory: true }",
            0x76fe_d975_55e4_0d13,
            0,
            72,
        ),
        (
            "GraphColouring { vertices: 30, edges: 60, colours: 3 }",
            0xbdb0_ad84_b1cd_51e9,
            0,
            90,
        ),
        (
            "CounterBmc { width: 6, steps: 12 }",
            0xd517_6619_a004_0c0e,
            0,
            126,
        ),
    ];
    let mut inputs = Vec::new();
    for name in ["small.cnf", "unsat.cnf"] {
        let path = format!("{}/examples/instances/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let cnf = CnfFormula::parse_dimacs(&text).expect("the committed file parses");
        inputs.push((name.to_string(), cnf));
    }
    for family in satcomp::default_suite(3) {
        let cnf = satcomp::generate(family, &mut StdRng::seed_from_u64(1));
        inputs.push((format!("{family:?}"), cnf));
    }
    let recorded: Vec<(String, u64, usize, usize)> = inputs
        .iter()
        .map(|(name, cnf)| {
            let conversion = cnf_to_anf(cnf);
            (
                name.clone(),
                fnv1a(conversion.system.to_string().as_bytes()),
                conversion.split_clauses,
                conversion.original_vars,
            )
        })
        .collect();
    assert!(recorded.iter().any(|&(_, _, split, _)| split > 0));
    let pinned: Vec<(String, u64, usize, usize)> = pinned
        .iter()
        .map(|&(name, hash, split, vars)| (name.to_string(), hash, split, vars))
        .collect();
    assert_eq!(
        recorded, pinned,
        "(input, FNV-1a of its ANF, split clauses, original vars)"
    );
}
