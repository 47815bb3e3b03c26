//! Micro-benchmarks of the ANF term layer: polynomial multiplication, one
//! XL expansion sweep, linearisation build — the three operations the
//! inline-monomial / merge-arithmetic / interner redesign targets — and
//! the incremental propagation the engine runs after each fact commit.
//!
//! Run with `cargo bench -p bosphorus-bench --bench anf_ops`. The
//! end-to-end cost of these operations in real jobs is perfbench's
//! `core.xl_s`, `core.elimlin_s` and (for propagation)
//! `core.driver_self_s` (`perfbench/README.md`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bosphorus::{
    expansion_monomials, xl_learn, BosphorusConfig, CancelToken, Linearization,
    LinearizationBuilder,
};
use bosphorus_anf::{AnfDatabase, Polynomial, PolynomialSystem, TermScratch, Var};
use bosphorus_ciphers::simon;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn occurring_vars(system: &PolynomialSystem) -> Vec<Var> {
    let mut vars: Vec<Var> = system.iter().flat_map(Polynomial::variables).collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

fn simon_system() -> PolynomialSystem {
    let mut rng = StdRng::seed_from_u64(2019);
    simon::generate(
        simon::SimonParams {
            num_plaintexts: 2,
            rounds: 3,
        },
        &mut rng,
    )
    .system
}

fn bench_mul(c: &mut Criterion) {
    let a: Polynomial = "x0*x1 + x2*x3 + x0*x4 + x1*x5 + x6 + 1"
        .parse()
        .expect("parses");
    let b: Polynomial = "x1*x2 + x3*x6 + x4 + x5 + 1".parse().expect("parses");
    let mut group = c.benchmark_group("anf_ops/mul");
    group.bench_function("poly_mul_6x5_terms", |bench| {
        bench.iter(|| black_box(&a) * black_box(&b))
    });
    let m = bosphorus_anf::Monomial::from_vars([2, 7]);
    let mut scratch = TermScratch::new();
    group.bench_function("mul_monomial_with_scratch", |bench| {
        bench.iter(|| black_box(&a).mul_monomial_with(black_box(&m), &mut scratch))
    });
    group.finish();
}

fn bench_xl_expand(c: &mut Criterion) {
    let system = simon_system();
    let multipliers = expansion_monomials(&occurring_vars(&system), 1);
    let mut group = c.benchmark_group("anf_ops/xl_expand");
    group.sample_size(10);
    group.bench_function("simon_2_3_degree_1", |bench| {
        bench.iter(|| {
            let mut builder = LinearizationBuilder::new();
            for poly in system.iter() {
                builder.push(poly);
            }
            let mut scratch = TermScratch::new();
            for base in system.iter() {
                for m in &multipliers {
                    builder.push_product(base, m, &mut scratch);
                }
            }
            black_box(builder.num_rows())
        })
    });
    group.finish();
}

fn bench_linearize_build(c: &mut Criterion) {
    let system = simon_system();
    // Pre-expand once; the benchmark isolates Linearization::build (intern,
    // column sort, CSR hand-off).
    let multipliers = expansion_monomials(&occurring_vars(&system), 1);
    let mut expanded: Vec<Polynomial> = system.iter().cloned().collect();
    for base in system.iter() {
        for m in &multipliers {
            let product = base.mul_monomial(m);
            if !product.is_zero() {
                expanded.push(product);
            }
        }
    }
    let mut group = c.benchmark_group("anf_ops/linearize_build");
    group.sample_size(10);
    group.bench_function(format!("simon_2_3_{}_rows", expanded.len()), |bench| {
        bench.iter(|| {
            let lin = Linearization::build(black_box(&expanded));
            black_box((lin.num_rows(), lin.num_columns()))
        })
    });
    group.finish();
}

/// One fact commit of the engine's loop on a Simon-[4,5] instance: the
/// input propagated, then the facts of one default XL round pushed and
/// propagated. Each iteration starts from a clone of the propagated
/// database; `clone` times that alone.
fn bench_propagate(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2019);
    let system = simon::generate(
        simon::SimonParams {
            num_plaintexts: 4,
            rounds: 5,
        },
        &mut rng,
    )
    .system;
    let mut db = AnfDatabase::new(system);
    assert!(!db.propagate().contradiction);
    let config = BosphorusConfig::default();
    let facts = xl_learn(db.system(), &config, &mut rng, &CancelToken::never()).facts;
    let mut group = c.benchmark_group("anf_ops/propagate");
    group.sample_size(10);
    group.bench_function("clone", |bench| bench.iter(|| black_box(&db).clone()));
    group.bench_function(format!("simon_4_5_{}_xl_facts", facts.len()), |bench| {
        bench.iter(|| {
            let mut db = black_box(&db).clone();
            for fact in &facts {
                db.push_unique(fact.clone());
            }
            black_box(db.propagate())
        })
    });
    group.finish();
}

criterion_group!(
    anf_ops,
    bench_mul,
    bench_xl_expand,
    bench_linearize_build,
    bench_propagate
);
criterion_main!(anf_ops);
