//! Reproduces Table I: XL with degree-1 expansion on {x1x2 + x1 + 1,
//! x2x3 + x3} learns the facts x1 + 1, x2 and x3.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bosphorus::{xl_learn, BosphorusConfig, CancelToken};
use bosphorus_anf::PolynomialSystem;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn table1_system() -> PolynomialSystem {
    PolynomialSystem::parse("x1*x2 + x1 + 1; x2*x3 + x3;").expect("Table I system parses")
}

fn bench_table1(c: &mut Criterion) {
    let system = table1_system();
    let config = BosphorusConfig::exhaustive();

    // Verify the reproduction once, outside the measurement loop, and print
    // the learnt facts next to the paper's expected output.
    let mut rng = StdRng::seed_from_u64(1);
    let outcome = xl_learn(&system, &config, &mut rng, &CancelToken::never());
    println!("Table I reproduction — facts learnt by XL (D = 1):");
    for fact in &outcome.facts {
        println!("  {fact}");
    }
    println!("paper expects: x1 + 1, x2, x3 (from the rank-6 expanded system)");
    assert!(outcome.facts.contains(&"x1 + 1".parse().expect("parses")));
    assert!(outcome.facts.contains(&"x2".parse().expect("parses")));
    assert!(outcome.facts.contains(&"x3".parse().expect("parses")));

    c.bench_function("table1_xl_degree1", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(xl_learn(
                black_box(&system),
                &config,
                &mut rng,
                &CancelToken::never(),
            ))
        })
    });
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
