//! Reproduces the Section II-E worked example: the five-equation system (1)
//! is solved by the fact-learning loop alone (XL, ElimLin and the SAT step
//! each contribute facts; ANF propagation collapses the system to (2)).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bosphorus::{elimlin_on, xl_learn, Bosphorus, BosphorusConfig, CancelToken, PreprocessStatus};
use bosphorus_anf::PolynomialSystem;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn section_2e_system() -> PolynomialSystem {
    PolynomialSystem::parse(
        "x1*x2 + x3 + x4 + 1;
         x1*x2*x3 + x1 + x3 + 1;
         x1*x3 + x3*x4*x5 + x3;
         x2*x3 + x3*x5 + 1;
         x2*x3 + x5 + 1;",
    )
    .expect("Section II-E system parses")
}

fn bench_example(c: &mut Criterion) {
    let system = section_2e_system();

    // Reproduce the example once and report what each technique learns.
    let mut rng = StdRng::seed_from_u64(1);
    let xl = xl_learn(
        &system,
        &BosphorusConfig::exhaustive(),
        &mut rng,
        &CancelToken::never(),
    );
    println!(
        "Section II-E — XL facts: {:?}",
        xl.facts.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
    let elimlin = elimlin_on(system.polynomials().to_vec(), &CancelToken::never());
    println!(
        "Section II-E — ElimLin facts: {:?}",
        elimlin
            .facts
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    let mut engine = Bosphorus::new(system.clone(), BosphorusConfig::default());
    match engine.preprocess() {
        PreprocessStatus::Solved(assignment) => {
            println!("engine solution: {assignment} (paper: x1=x2=x3=x4=1, x5=0)");
            assert!(assignment.get(1) && assignment.get(4) && !assignment.get(5));
        }
        other => panic!("the example must be solved by preprocessing, got {other:?}"),
    }

    c.bench_function("sec2e_xl_step", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(xl_learn(
                black_box(&system),
                &BosphorusConfig::exhaustive(),
                &mut rng,
                &CancelToken::never(),
            ))
        })
    });
    c.bench_function("sec2e_elimlin_step", |b| {
        b.iter(|| {
            black_box(elimlin_on(
                black_box(system.polynomials().to_vec()),
                &CancelToken::never(),
            ))
        })
    });
    c.bench_function("sec2e_full_engine", |b| {
        b.iter(|| {
            let mut engine = Bosphorus::new(system.clone(), BosphorusConfig::default());
            black_box(engine.preprocess())
        })
    });
}

criterion_group!(benches, bench_example);
criterion_main!(benches);
