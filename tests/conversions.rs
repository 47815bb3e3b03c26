//! Integration tests for the ANF↔CNF conversions on realistic (cipher)
//! polynomials rather than toy systems.

use bosphorus_repro::anf::{Assignment, Polynomial, PolynomialSystem, TermScratch, Var};
use bosphorus_repro::ciphers::{satcomp, simon};
use bosphorus_repro::cnf::CnfFormula;
use bosphorus_repro::core::{
    anf_to_cnf, cnf_to_anf, expansion_monomials, AnfPropagator, BosphorusConfig, CancelToken,
    Linearization, LinearizationBuilder,
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
        let anf = cnf_to_anf(&cnf, &config);
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
        assert_eq!(reparsed.num_vars(), cnf.num_vars());
        assert_eq!(reparsed.clauses(), cnf.clauses());
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
    let multipliers = expansion_monomials(&vars, 1);

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
