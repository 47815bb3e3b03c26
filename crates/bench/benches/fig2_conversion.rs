//! Reproduces Fig. 2 / Fig. 3: the Karnaugh-map conversion of
//! x1x3 + x1 + x2 + x4 + 1 produces 6 clauses, the Tseitin-based conversion
//! 11 clauses.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bosphorus::{
    anf_to_cnf, karnaugh_clauses, tseitin_clause_count, AnfPropagator, BosphorusConfig,
};
use bosphorus_anf::{Polynomial, PolynomialSystem};

fn fig2_polynomial() -> Polynomial {
    "x1*x3 + x1 + x2 + x4 + 1"
        .parse()
        .expect("Fig. 2 polynomial parses")
}

fn bench_fig2(c: &mut Criterion) {
    let poly = fig2_polynomial();
    let config = BosphorusConfig::default();

    let karnaugh = karnaugh_clauses(&poly, config.karnaugh_vars).expect("within K");
    let tseitin = tseitin_clause_count(&poly);
    println!("Fig. 2 reproduction for {poly}:");
    println!(
        "  Karnaugh-map conversion: {} clauses (paper: 6)",
        karnaugh.len()
    );
    println!("  Tseitin-based conversion: {tseitin} clauses (paper: 11)");
    assert_eq!(karnaugh.len(), 6);
    assert_eq!(tseitin, 11);

    c.bench_function("fig2_karnaugh_conversion", |b| {
        b.iter(|| black_box(karnaugh_clauses(black_box(&poly), config.karnaugh_vars)))
    });
    c.bench_function("fig2_tseitin_conversion", |b| {
        b.iter(|| black_box(tseitin_clause_count(black_box(&poly))))
    });
    c.bench_function("fig2_full_polynomial_to_cnf", |b| {
        let system = PolynomialSystem::from_polynomials([poly.clone()]);
        let propagator = AnfPropagator::new(system.num_vars());
        b.iter(|| black_box(anf_to_cnf(black_box(&system), &propagator, &config)))
    });
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
