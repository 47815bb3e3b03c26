//! Records the end-to-end pipeline baseline: per-pass wall time and learnt
//! facts for `Bosphorus::preprocess` on the paper's instances, plus a
//! before/after comparison of one exhaustive XL round built on the
//! *reference* (seed) term layer versus the production term layer.
//!
//! The reference round uses `bosphorus_anf::naive` (heap-`Vec` monomials,
//! toggle-insert polynomial construction, a `BTreeMap` column index with a
//! per-bit matrix fill) — exactly the seed implementation this repo started
//! from — while the production round runs the inline-monomial /
//! interner-based path the engine uses today. Both feed the *same* GF(2)
//! elimination kernel, so the measured gap is the term layer alone, and the
//! learnt facts are asserted identical before any number is reported.
//!
//! Emits a machine-readable `BENCH_pipeline.json` next to the human-readable
//! table — the repo's recorded pipeline-level perf baseline.
//!
//! ```text
//! cargo run --release -p bosphorus-bench --bin pipeline_bench -- [--smoke] [--out PATH] [--seed N]
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use bosphorus::{
    expansion_monomials, is_retainable_fact, Bosphorus, BosphorusConfig, CancelToken,
    LinearizationBuilder, PresolveStats,
};
use bosphorus_anf::naive::{NaiveMonomial, NaivePolynomial};
use bosphorus_anf::{Polynomial, PolynomialSystem, TermScratch, Var};
use bosphorus_ciphers::{aes, simon};
use bosphorus_gf2::BitMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Section II-E worked example.
const WORKED_EXAMPLE: &str = "x1*x2 + x3 + x4 + 1;
x1*x2*x3 + x1 + x3 + 1;
x1*x3 + x3*x4*x5 + x3;
x2*x3 + x3*x5 + 1;
x2*x3 + x5 + 1;";

/// The Table I system.
const TABLE1: &str = "x1*x2 + x1 + 1; x2*x3 + x3;";

/// One preprocessing measurement.
struct PreprocessResult {
    name: String,
    equations: usize,
    variables: usize,
    status: &'static str,
    total_facts: usize,
    iterations: usize,
    preprocess_ns: u128,
    passes: Vec<PassLine>,
}

struct PassLine {
    name: String,
    runs: usize,
    skips: usize,
    facts: usize,
    time_ns: u128,
    /// Rows the sparse presolve removed ahead of this pass's dense
    /// eliminations (cumulative over its runs).
    presolve_rows_eliminated: usize,
    /// Wall clock of the sparse phase inside this pass.
    presolve_ns: u64,
}

/// One before/after XL-round measurement.
///
/// The round is expansion → linearise → Gauss–Jordan → row readback. The
/// elimination kernel is *bit-identical* in both configurations (it is the
/// recorded subject of `BENCH_gje.json`), so its time is reported once and
/// the before/after comparison is over the term-layer phases the two
/// configurations actually differ in: expansion, linearisation build, and
/// mapping the reduced rows back to polynomials.
struct XlRoundResult {
    name: String,
    rows: usize,
    cols: usize,
    rank: usize,
    facts: usize,
    reps: usize,
    /// Term-layer time of the reference (seed) round.
    naive_term_ns: u128,
    /// Term-layer time of the production round.
    fast_term_ns: u128,
    /// Shared elimination-kernel time (taken from the production run).
    gauss_ns: u128,
    /// Whole-round times, kernel included, for context.
    naive_total_ns: u128,
    fast_total_ns: u128,
    /// Whole-round time of the sparse-presolve configuration (expansion
    /// into the sparse row store, presolve, residual dense cores, stitching
    /// and readback) — the facts are asserted byte-identical to the dense
    /// rounds before any number is reported.
    presolve_round_ns: u128,
    /// Phase split and rule counters of the best presolve round.
    presolve: PresolveStats,
}

impl XlRoundResult {
    fn term_speedup(&self) -> f64 {
        self.naive_term_ns as f64 / self.fast_term_ns.max(1) as f64
    }

    fn total_speedup(&self) -> f64 {
        self.naive_total_ns as f64 / self.fast_total_ns.max(1) as f64
    }

    /// Elimination-phase gain of the sparse path: dense-only `gauss_ns`
    /// against `presolve_ns + dense-core gauss_ns` — the tentpole's
    /// acceptance ratio.
    fn presolve_gauss_speedup(&self) -> f64 {
        let sparse_ns = (self.presolve.presolve_ns + self.presolve.dense_ns).max(1);
        self.gauss_ns as f64 / sparse_ns as f64
    }
}

/// Phase timings and outputs of one measured round.
struct RoundRun {
    term_ns: u128,
    gauss_ns: u128,
    rows: usize,
    cols: usize,
    rank: usize,
    facts: Vec<Polynomial>,
}

impl RoundRun {
    fn total_ns(&self) -> u128 {
        self.term_ns + self.gauss_ns
    }
}

fn occurring_vars(system: &PolynomialSystem) -> Vec<Var> {
    let mut vars: Vec<Var> = system.iter().flat_map(Polynomial::variables).collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

/// One exhaustive (budget-free, unshuffled) XL round on the production term
/// layer: expand by all degree-≤1 multipliers straight into the
/// linearisation builder, eliminate, keep the retainable rows.
///
/// The multiplier list is passed in pre-built: it is identical for both
/// configurations and its construction is not part of the term layer under
/// comparison.
fn fast_xl_round(system: &PolynomialSystem, multipliers: &[bosphorus_anf::Monomial]) -> RoundRun {
    let term_start = Instant::now();
    let mut builder = LinearizationBuilder::new();
    for poly in system.iter() {
        builder.push(poly);
    }
    let mut scratch = TermScratch::new();
    for base in system.iter() {
        for m in multipliers {
            builder.push_product(base, m, &mut scratch);
        }
    }
    let mut lin = builder.finish();
    let (rows, cols) = (lin.num_rows(), lin.num_columns());
    let mut term_ns = term_start.elapsed().as_nanos();

    let gauss_start = Instant::now();
    lin.matrix_mut().gauss_jordan_with_stats();
    let gauss_ns = gauss_start.elapsed().as_nanos();

    // Retainable-only readback, exactly as `xl_learn` performs it: the
    // shared `Linearization::retainable_rows` scan, called after the
    // separately-timed elimination so kernel and term layer split cleanly.
    let readback_start = Instant::now();
    let (facts, rank) = lin.retainable_rows();
    debug_assert!(facts.iter().all(is_retainable_fact));
    term_ns += readback_start.elapsed().as_nanos();
    RoundRun {
        term_ns,
        gauss_ns,
        rows,
        cols,
        rank,
        facts,
    }
}

/// The same round on the reference (seed) term layer: materialised naive
/// products, a `BTreeMap` column index cloning every key, per-bit matrix
/// fill — feeding the identical elimination kernel.
///
/// The system and multipliers arrive pre-converted to the naive types: the
/// seed engine held its problem in this representation already, so the
/// conversion is harness overhead, not seed work.
fn naive_xl_round(polys: &[NaivePolynomial], multipliers: &[NaiveMonomial]) -> RoundRun {
    let term_start = Instant::now();
    let mut expanded: Vec<NaivePolynomial> = polys.to_vec();
    for base in polys {
        for m in multipliers {
            let product = base.mul_monomial(m);
            if !product.is_zero() {
                expanded.push(product);
            }
        }
    }
    let mut columns: Vec<NaiveMonomial> = expanded
        .iter()
        .flat_map(|p| p.monomials().iter().cloned())
        .collect();
    columns.sort();
    columns.dedup();
    columns.reverse(); // descending graded lex
    let index: BTreeMap<NaiveMonomial, usize> = columns
        .iter()
        .enumerate()
        .map(|(i, m)| (m.clone(), i))
        .collect();
    let mut matrix = BitMatrix::zero(expanded.len(), columns.len());
    for (row, poly) in expanded.iter().enumerate() {
        for m in poly.monomials() {
            matrix.set(row, index[m], true);
        }
    }
    let (rows, cols) = (matrix.nrows(), matrix.ncols());
    let mut term_ns = term_start.elapsed().as_nanos();

    let gauss_start = Instant::now();
    matrix.gauss_jordan_with_stats();
    let gauss_ns = gauss_start.elapsed().as_nanos();

    let readback_start = Instant::now();
    let mut rank = 0usize;
    let mut facts: Vec<Polynomial> = Vec::new();
    for row in matrix.iter() {
        if row.is_zero() {
            continue;
        }
        rank += 1;
        let poly = NaivePolynomial::from_monomials(row.iter_ones().map(|c| columns[c].clone()))
            .to_polynomial();
        if is_retainable_fact(&poly) {
            facts.push(poly);
        }
    }
    term_ns += readback_start.elapsed().as_nanos();
    RoundRun {
        term_ns,
        gauss_ns,
        rows,
        cols,
        rank,
        facts,
    }
}

/// The same exhaustive round through the sparse-presolve path: expansion
/// into the sparse row store (no dense arena), structural presolve, residual
/// dense cores, stitched readback — the configuration the engine runs by
/// default. Returns the whole-round wall clock alongside the facts and the
/// internally-measured phase split.
fn presolve_xl_round(
    system: &PolynomialSystem,
    multipliers: &[bosphorus_anf::Monomial],
) -> (u128, Vec<Polynomial>, usize, PresolveStats) {
    let start = Instant::now();
    let mut builder = LinearizationBuilder::new();
    for poly in system.iter() {
        builder.push(poly);
    }
    let mut scratch = TermScratch::new();
    for base in system.iter() {
        for m in multipliers {
            builder.push_product(base, m, &mut scratch);
        }
    }
    let sparse = builder.finish_sparse();
    let (facts, rank, _gauss, presolve) =
        sparse.eliminate_retainable_cancellable(&CancelToken::never());
    (start.elapsed().as_nanos(), facts, rank, presolve)
}

/// Best-of-`reps` run of `f`, keeping the run with the smallest total time.
fn best_run(reps: usize, mut f: impl FnMut() -> RoundRun) -> RoundRun {
    let mut best: Option<RoundRun> = None;
    for _ in 0..reps {
        let run = f();
        if best
            .as_ref()
            .map_or(true, |b| run.total_ns() < b.total_ns())
        {
            best = Some(run);
        }
    }
    best.expect("reps >= 1")
}

fn measure_xl_round(name: &str, system: &PolynomialSystem, reps: usize) -> XlRoundResult {
    // Shared inputs, pre-built in each configuration's own representation.
    let multipliers = expansion_monomials(&occurring_vars(system), 1);
    let naive_polys: Vec<NaivePolynomial> = system.iter().map(NaivePolynomial::from).collect();
    let naive_multipliers: Vec<NaiveMonomial> =
        multipliers.iter().map(NaiveMonomial::from).collect();
    let naive = best_run(reps, || naive_xl_round(&naive_polys, &naive_multipliers));
    let fast = best_run(reps, || fast_xl_round(system, &multipliers));
    assert_eq!(
        (fast.rows, fast.cols, fast.rank),
        (naive.rows, naive.cols, naive.rank),
        "{name}: shapes diverge"
    );
    assert_eq!(
        fast.facts, naive.facts,
        "{name}: learnt facts diverge between term layers"
    );
    // The sparse-presolve configuration, best of reps by whole-round time,
    // with the learnt facts asserted byte-identical to the dense rounds.
    let mut presolve_round_ns = u128::MAX;
    let mut presolve_split: Option<PresolveStats> = None;
    for _ in 0..reps {
        let (round_ns, facts, rank, split) = presolve_xl_round(system, &multipliers);
        assert_eq!(rank, fast.rank, "{name}: presolve rank diverges");
        assert_eq!(facts, fast.facts, "{name}: presolve learnt facts diverge");
        if round_ns < presolve_round_ns {
            presolve_round_ns = round_ns;
            presolve_split = Some(split);
        }
    }
    let presolve = presolve_split.expect("reps >= 1");
    XlRoundResult {
        name: name.to_string(),
        rows: fast.rows,
        cols: fast.cols,
        rank: fast.rank,
        facts: fast.facts.len(),
        reps,
        naive_term_ns: naive.term_ns,
        fast_term_ns: fast.term_ns,
        gauss_ns: fast.gauss_ns,
        naive_total_ns: naive.total_ns(),
        fast_total_ns: fast.total_ns(),
        presolve_round_ns,
        presolve,
    }
}

fn measure_preprocess(name: &str, system: &PolynomialSystem) -> PreprocessResult {
    let mut engine = Bosphorus::new(system.clone(), BosphorusConfig::default());
    let start = Instant::now();
    let status = engine.preprocess();
    let preprocess_ns = start.elapsed().as_nanos();
    let stats = engine.stats();
    PreprocessResult {
        name: name.to_string(),
        equations: system.len(),
        variables: system.num_vars(),
        status: match status {
            bosphorus::PreprocessStatus::Solved(_) => "solved",
            bosphorus::PreprocessStatus::Unsat => "unsat",
            bosphorus::PreprocessStatus::Simplified => "simplified",
            bosphorus::PreprocessStatus::Interrupted => "interrupted",
        },
        total_facts: stats.total_facts(),
        iterations: stats.iterations,
        preprocess_ns,
        passes: stats
            .passes
            .iter()
            .map(|p| PassLine {
                name: p.name.clone(),
                runs: p.runs,
                skips: p.skips,
                facts: p.facts,
                time_ns: p.time.as_nanos(),
                presolve_rows_eliminated: p.presolve.rows_eliminated,
                presolve_ns: p.presolve.presolve_ns,
            })
            .collect(),
    }
}

fn to_json(
    preprocess: &[PreprocessResult],
    rounds: &[XlRoundResult],
    mode: &str,
    seed: u64,
) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"pipeline\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(out, "  \"time_metric\": \"best_of_reps_ns\",");
    out.push_str("  \"instances\": [\n");
    for (i, r) in preprocess.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"equations\": {}, \"variables\": {}, \
             \"status\": \"{}\", \"facts\": {}, \"iterations\": {}, \
             \"preprocess_ms\": {:.3}, \"passes\": [",
            r.name,
            r.equations,
            r.variables,
            r.status,
            r.total_facts,
            r.iterations,
            r.preprocess_ns as f64 / 1e6
        );
        for (j, p) in r.passes.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"runs\": {}, \"skips\": {}, \"facts\": {}, \
                 \"time_ms\": {:.3}, \"presolve_rows_eliminated\": {}, \
                 \"presolve_ms\": {:.3}}}",
                p.name,
                p.runs,
                p.skips,
                p.facts,
                p.time_ns as f64 / 1e6,
                p.presolve_rows_eliminated,
                p.presolve_ns as f64 / 1e6
            );
        }
        out.push_str("]}");
        out.push_str(if i + 1 < preprocess.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"xl_rounds\": [\n");
    for (i, r) in rounds.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"rows\": {}, \"cols\": {}, \"rank\": {}, \
             \"facts\": {}, \"reps\": {}, \
             \"naive_term_ns\": {}, \"fast_term_ns\": {}, \"term_speedup\": {:.2}, \
             \"gauss_ns\": {}, ",
            r.name,
            r.rows,
            r.cols,
            r.rank,
            r.facts,
            r.reps,
            r.naive_term_ns,
            r.fast_term_ns,
            r.term_speedup(),
            r.gauss_ns
        );
        let _ = write!(
            out,
            "\"naive_total_ns\": {}, \"fast_total_ns\": {}, \"total_speedup\": {:.2}, ",
            r.naive_total_ns,
            r.fast_total_ns,
            r.total_speedup()
        );
        // The sparse-presolve phase split of the same round (facts asserted
        // byte-identical): presolve_ns + dense_core_gauss_ns is the sparse
        // path's elimination phase, compared against the dense `gauss_ns`.
        let p = &r.presolve;
        let _ = write!(
            out,
            "\"presolve\": {{\"round_total_ns\": {}, \"presolve_ns\": {}, \
             \"dense_core_gauss_ns\": {}, \"gauss_speedup_vs_dense\": {:.2}, \
             \"dense_core_rows\": {}, \"dense_core_cols\": {}, \"components\": {}, \
             \"rows_eliminated\": {}, \"cols_eliminated\": {}, \
             \"empty_rows\": {}, \"duplicate_rows\": {}, \"singleton_rows\": {}, \
             \"weight2_rows\": {}, \"pure_leading_rows\": {}, \
             \"subset_cancellations\": {}, \
             \"peak_interned_rows\": {}, \"peak_interned_words\": {}}}}}",
            r.presolve_round_ns,
            p.presolve_ns,
            p.dense_ns,
            r.presolve_gauss_speedup(),
            p.dense_rows,
            p.dense_cols,
            p.components,
            p.rows_eliminated,
            p.cols_eliminated,
            p.empty_rows,
            p.duplicate_rows,
            p.singleton_rows,
            p.weight2_rows,
            p.pure_leading_rows,
            p.subset_cancellations,
            p.peak_interned_rows,
            p.peak_interned_words
        );
        out.push_str(if i + 1 < rounds.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    // The recorded headline: production vs seed *term layer* on one
    // exhaustive XL round at Simon scale (identical learnt facts asserted
    // above). The shared elimination kernel — bit-identical in both
    // configurations and recorded separately in BENCH_gje.json — is
    // excluded from the headline ratio but reported next to it.
    let simon = rounds
        .iter()
        .find(|r| r.name.starts_with("simon"))
        .expect("a Simon round is always measured");
    let _ = writeln!(
        out,
        "  \"headline\": {{\"xl_round_speedup_simon\": {:.2}, \
         \"presolve_gauss_speedup_simon\": {:.2}, \
         \"peak_rows_simon\": {}, \
         \"headline_instance\": \"{}\", \
         \"headline_metric\": \"term-layer (expand + linearise + readback) \
         best-of-reps; shared GJE kernel excluded. presolve_gauss_speedup \
         compares dense-only gauss_ns against presolve_ns + dense-core \
         gauss_ns on the same round, identical learnt facts. peak_rows is \
         the max interned rows held at once (the full expansion)\"}}",
        simon.term_speedup(),
        simon.presolve_gauss_speedup(),
        simon.presolve.peak_interned_rows,
        simon.name
    );
    out.push('}');
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut seed = 2019u64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" | "--quick" => smoke = true,
            "--out" => out_path = iter.next().expect("--out requires a path").clone(),
            "--seed" => {
                seed = iter
                    .next()
                    .expect("--seed requires a value")
                    .parse()
                    .expect("--seed must be a u64")
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: pipeline_bench [--smoke] [--out PATH] [--seed N]");
                std::process::exit(1);
            }
        }
    }
    let mode = if smoke { "smoke" } else { "full" };
    let reps = if smoke { 1 } else { 3 };

    let worked = PolynomialSystem::parse(WORKED_EXAMPLE).expect("worked example parses");
    let table1 = PolynomialSystem::parse(TABLE1).expect("table 1 parses");
    let mut rng = StdRng::seed_from_u64(seed);
    let simon_small = simon::generate(
        simon::SimonParams {
            num_plaintexts: 2,
            rounds: 3,
        },
        &mut rng,
    );
    let mut preprocess = vec![
        measure_preprocess("worked_example", &worked),
        measure_preprocess("table1", &table1),
        measure_preprocess("simon-2-3", &simon_small.system),
    ];
    let mut rounds = vec![
        measure_xl_round("table1", &table1, reps),
        measure_xl_round("simon-2-3", &simon_small.system, reps),
    ];
    if !smoke {
        let simon_large = simon::generate(
            simon::SimonParams {
                num_plaintexts: 2,
                rounds: 4,
            },
            &mut rng,
        );
        let sr_aes = aes::generate(aes::AesParams::small(1), &mut rng);
        preprocess.push(measure_preprocess("simon-2-4", &simon_large.system));
        preprocess.push(measure_preprocess("sr-aes-small-1", &sr_aes.system));
        rounds.push(measure_xl_round("simon-2-4", &simon_large.system, reps));
        rounds.push(measure_xl_round("sr-aes-small-1", &sr_aes.system, reps));
        // The headline round is the *largest* Simon instance measured.
        rounds.swap(1, 2);
    }

    println!("pipeline preprocessing ({mode}):");
    for r in &preprocess {
        println!(
            "  {:<16} {:>4} eqs {:>4} vars  {:<10} {:>3} facts {:>2} iters {:>10.3} ms",
            r.name,
            r.equations,
            r.variables,
            r.status,
            r.total_facts,
            r.iterations,
            r.preprocess_ns as f64 / 1e6
        );
        for p in &r.passes {
            println!(
                "      {:<10} runs={:<3} skips={:<3} facts={:<4} {:>10.3} ms",
                p.name,
                p.runs,
                p.skips,
                p.facts,
                p.time_ns as f64 / 1e6
            );
        }
    }
    println!("exhaustive XL round, seed term layer vs production ({mode}):");
    println!("  (term = expand + linearise + readback; the GJE kernel is shared)");
    for r in &rounds {
        println!(
            "  {:<16} {:>5}x{:<5} rank {:>4} facts {:>3}  term {:>9.3} -> {:>9.3} ms ({:>5.2}x)  gje {:>9.3} ms  total {:>5.2}x",
            r.name,
            r.rows,
            r.cols,
            r.rank,
            r.facts,
            r.naive_term_ns as f64 / 1e6,
            r.fast_term_ns as f64 / 1e6,
            r.term_speedup(),
            r.gauss_ns as f64 / 1e6,
            r.total_speedup()
        );
        let p = &r.presolve;
        println!(
            "      presolve {:>9.3} ms + dense cores {:>9.3} ms ({:.2}x vs dense gje) \
             core {}x{} comps {} rows -{:.1}% cols -{:.1}%",
            p.presolve_ns as f64 / 1e6,
            p.dense_ns as f64 / 1e6,
            r.presolve_gauss_speedup(),
            p.dense_rows,
            p.dense_cols,
            p.components,
            100.0 * p.rows_eliminated as f64 / p.input_rows.max(1) as f64,
            100.0 * p.cols_eliminated as f64 / p.input_cols.max(1) as f64
        );
        println!(
            "      presolve round {:>9.3} ms  peak rows {}",
            r.presolve_round_ns as f64 / 1e6,
            p.peak_interned_rows
        );
    }

    let json = to_json(&preprocess, &rounds, mode, seed);
    std::fs::write(&out_path, format!("{json}\n")).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
