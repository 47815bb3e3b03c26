//! Records the GF(2) elimination-kernel baseline: schoolbook ("plain", the
//! seed kernel) vs the in-place three-table blocked M4RM kernel, across
//! matrix sizes from the 64-bit word boundaries up to paper scale
//! (4096×4096 and an XL-shaped 2048×16384 wide case), the sparse
//! structural presolve against densify-then-eliminate on XL-shaped inputs,
//! and the dense cores real XL rounds hand the kernel (`xl_cores`: seeded
//! `SR-[1,2,2,4]` rounds at the default configuration, whose pivot columns
//! are scattered between free columns).
//!
//! Emits a machine-readable `BENCH_gje.json` next to the human-readable
//! table — the repo's recorded perf baseline for the XL/ElimLin hot path.
//! `host_cpus` records the machine the numbers were taken on.
//!
//! ```text
//! cargo run --release -p bosphorus-bench --bin gje_bench -- [--quick] [--out PATH] [--seed N]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use bosphorus::{xl_learn, BosphorusConfig};
use bosphorus_bench::{random_dense_matrix, random_sparse_matrix};
use bosphorus_ciphers::aes;
use bosphorus_gf2::{
    m4rm_block_size, select_kernel, BitMatrix, GaussStats, KernelChoice, PresolveStats,
    SparseMatrix,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One (size, kernel-comparison) measurement.
struct SizeResult {
    rows: usize,
    cols: usize,
    rank: usize,
    k: usize,
    /// What `gauss_jordan_with_stats` would pick at this size.
    auto_kernel: &'static str,
    reps: usize,
    plain_ns: u128,
    blocked_ns: u128,
}

impl SizeResult {
    fn speedup_blocked_vs_plain(&self) -> f64 {
        self.plain_ns as f64 / self.blocked_ns.max(1) as f64
    }
}

/// Best-of-`reps` wall clock of `f` on a fresh clone per repetition.
fn time_best<F: Fn(&mut BitMatrix) -> usize>(m: &BitMatrix, reps: usize, f: F) -> (u128, usize) {
    let mut best = u128::MAX;
    let mut rank = 0usize;
    for _ in 0..reps {
        let mut a = m.clone();
        let start = Instant::now();
        rank = f(&mut a);
        best = best.min(start.elapsed().as_nanos());
    }
    (best, rank)
}

/// One (sparse shape, presolve-vs-dense) measurement: the structural
/// presolve plus its residual dense cores against densify-then-eliminate on
/// the same XL-shaped sparse rows.
struct SparseResult {
    rows: usize,
    cols: usize,
    fill: usize,
    rank: usize,
    reps: usize,
    /// Densify + dense elimination, best of reps.
    dense_only_ns: u128,
    /// The whole sparse path (presolve + dense cores + stitching), best of
    /// reps.
    presolve_total_ns: u128,
    /// The phase split and rule counters of the best presolve run.
    presolve: PresolveStats,
}

impl SparseResult {
    fn speedup_presolve_vs_dense(&self) -> f64 {
        self.dense_only_ns as f64 / self.presolve_total_ns.max(1) as f64
    }
}

fn measure_sparse(m: &SparseMatrix, reps: usize) -> SparseResult {
    let (rows, cols) = (m.nrows(), m.ncols());
    let fill = m.nnz().div_ceil(rows.max(1));
    let mut dense_only_ns = u128::MAX;
    let mut dense_rank = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        let mut a = m.to_dense();
        dense_rank = a.gauss_jordan_with_stats().rank;
        dense_only_ns = dense_only_ns.min(start.elapsed().as_nanos());
    }
    let mut presolve_total_ns = u128::MAX;
    let mut best: Option<PresolveStats> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = m.clone().rref();
        let elapsed = start.elapsed().as_nanos();
        assert_eq!(r.rank, dense_rank, "presolve path rank disagrees");
        if elapsed < presolve_total_ns {
            presolve_total_ns = elapsed;
            best = Some(r.presolve);
        }
    }
    SparseResult {
        rows,
        cols,
        fill,
        rank: dense_rank,
        reps,
        dense_only_ns,
        presolve_total_ns,
        presolve: best.expect("reps >= 1"),
    }
}

/// The `xl_cores` section: `rounds` seeded `SR-[1,2,2,4]` XL rounds at the
/// default configuration, each run `reps` times on the same subsample. The
/// times are each round's best of reps, summed over the rounds; the counts
/// are the rounds' totals (every rep does the same work).
struct XlCoresResult {
    rounds: usize,
    reps: usize,
    dense_ns: u128,
    presolve_ns: u128,
    expanded_rows: usize,
    expanded_cols: usize,
    core_rows: usize,
    core_cols: usize,
    gauss: GaussStats,
}

fn measure_xl_cores(rounds: usize, reps: usize, seed: u64) -> XlCoresResult {
    let config = BosphorusConfig::default();
    let mut instances = StdRng::seed_from_u64(seed);
    let mut result = XlCoresResult {
        rounds,
        reps,
        dense_ns: 0,
        presolve_ns: 0,
        expanded_rows: 0,
        expanded_cols: 0,
        core_rows: 0,
        core_cols: 0,
        gauss: GaussStats::default(),
    };
    for round in 0..rounds {
        let system = aes::generate(aes::AesParams::small(1), &mut instances).system;
        let (mut dense_ns, mut presolve_ns) = (u64::MAX, u64::MAX);
        let mut first: Option<GaussStats> = None;
        for _ in 0..reps {
            let mut subsample = StdRng::seed_from_u64(seed ^ round as u64);
            let outcome = xl_learn(&system, &config, &mut subsample);
            let p = outcome.presolve;
            dense_ns = dense_ns.min(p.dense_ns);
            presolve_ns = presolve_ns.min(p.presolve_ns);
            if let Some(work) = first {
                assert_eq!(work, outcome.gauss, "an XL round repeats its work exactly");
                continue;
            }
            first = Some(outcome.gauss);
            result.expanded_rows += outcome.expanded_rows;
            result.expanded_cols += outcome.expanded_columns;
            result.core_rows += p.dense_rows;
            result.core_cols += p.dense_cols;
            result.gauss.merge(outcome.gauss);
        }
        result.dense_ns += u128::from(dense_ns);
        result.presolve_ns += u128::from(presolve_ns);
    }
    result
}

fn measure(m: &BitMatrix, reps: usize) -> SizeResult {
    let (rows, cols) = (m.nrows(), m.ncols());
    let k = m4rm_block_size(rows, cols);
    let auto_kernel = match select_kernel(rows, cols) {
        KernelChoice::Plain => "plain",
        KernelChoice::BlockedM4rm { .. } => "blocked",
    };
    let (plain_ns, plain_rank) = time_best(m, reps, |a| a.gauss_jordan_plain_with_stats().rank);
    let (blocked_ns, blocked_rank) =
        time_best(m, reps, |a| a.gauss_jordan_blocked_m4rm_with_stats(k).rank);
    assert_eq!(plain_rank, blocked_rank, "blocked kernel disagrees");
    SizeResult {
        rows,
        cols,
        rank: plain_rank,
        k,
        auto_kernel,
        reps,
        plain_ns,
        blocked_ns,
    }
}

fn to_json(
    results: &[SizeResult],
    sparse: &[SparseResult],
    xl: &XlCoresResult,
    mode: &str,
    seed: u64,
) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"gje_kernels\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(out, "  \"time_metric\": \"best_of_reps_ns\",");
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"rows\": {}, \"cols\": {}, \"rank\": {}, \"k\": {}, \
             \"auto_kernel\": \"{}\", \"reps\": {}, \
             \"plain_ns\": {}, \"blocked_ns\": {}, \
             \"speedup_blocked_vs_plain\": {:.2}}}",
            r.rows,
            r.cols,
            r.rank,
            r.k,
            r.auto_kernel,
            r.reps,
            r.plain_ns,
            r.blocked_ns,
            r.speedup_blocked_vs_plain()
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    // The sparse XL-shaped comparison: structural presolve (+ residual dense
    // cores) vs densify-then-eliminate, with the presolve phase split and
    // per-rule reduction counts of the best run.
    out.push_str("  \"sparse\": [\n");
    for (i, r) in sparse.iter().enumerate() {
        let p = &r.presolve;
        let _ = write!(
            out,
            "    {{\"rows\": {}, \"cols\": {}, \"fill\": {}, \"rank\": {}, \"reps\": {}, \
             \"dense_only_ns\": {}, \"presolve_total_ns\": {}, \
             \"speedup_presolve_vs_dense\": {:.2}, \
             \"presolve_ns\": {}, \"dense_core_gauss_ns\": {}, \
             \"dense_core_rows\": {}, \"dense_core_cols\": {}, \"components\": {}, \
             \"rows_eliminated\": {}, \"cols_eliminated\": {}, \
             \"empty_rows\": {}, \"duplicate_rows\": {}, \"singleton_rows\": {}, \
             \"weight2_rows\": {}, \"pure_leading_rows\": {}, \
             \"duplicate_nnz\": {}, \"singleton_nnz\": {}, \"weight2_nnz\": {}, \
             \"pure_leading_nnz\": {}, \
             \"peak_interned_rows\": {}, \"peak_interned_words\": {}}}",
            r.rows,
            r.cols,
            r.fill,
            r.rank,
            r.reps,
            r.dense_only_ns,
            r.presolve_total_ns,
            r.speedup_presolve_vs_dense(),
            p.presolve_ns,
            p.dense_ns,
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
            p.duplicate_nnz,
            p.singleton_nnz,
            p.weight2_nnz,
            p.pure_leading_nnz,
            p.peak_interned_rows,
            p.peak_interned_words
        );
        out.push_str(if i + 1 < sparse.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"xl_cores\": {{\"family\": \"SR-[1,2,2,4]\", \"rounds\": {}, \"reps\": {}, \
         \"dense_ns\": {}, \"presolve_ns\": {}, \
         \"expanded_rows\": {}, \"expanded_cols\": {}, \
         \"core_rows\": {}, \"core_cols\": {}, \"rank\": {}, \"row_xors\": {}, \
         \"row_swaps\": {}, \"sweeps\": {}, \"scattered_sweeps\": {}}},",
        xl.rounds,
        xl.reps,
        xl.dense_ns,
        xl.presolve_ns,
        xl.expanded_rows,
        xl.expanded_cols,
        xl.core_rows,
        xl.core_cols,
        xl.gauss.rank,
        xl.gauss.row_xors,
        xl.gauss.row_swaps,
        xl.gauss.sweeps,
        xl.gauss.scattered_sweeps
    );
    let headline = |rows: usize, cols: usize| {
        results
            .iter()
            .find(|r| r.rows == rows && r.cols == cols)
            .map(SizeResult::speedup_blocked_vs_plain)
    };
    // The recorded headline numbers: the blocked kernel's gain over the
    // seed kernel at 1024x1024 (measured in quick mode too) and at
    // 4096x4096 (full mode only; null otherwise).
    let emit = |out: &mut String, key: &str, value: Option<f64>, comma: bool| {
        let sep = if comma { "," } else { "" };
        match value {
            Some(s) => {
                let _ = writeln!(out, "  \"{key}\": {s:.2}{sep}");
            }
            None => {
                let _ = writeln!(out, "  \"{key}\": null{sep}");
            }
        }
    };
    emit(
        &mut out,
        "speedup_1024_blocked_vs_plain",
        headline(1024, 1024),
        true,
    );
    emit(
        &mut out,
        "speedup_4096_blocked_vs_plain",
        headline(4096, 4096),
        true,
    );
    // The presolve headline: best sparse-path gain over densify-then-
    // eliminate across the measured XL-shaped inputs (the largest shape in
    // practice; recorded per-shape above).
    emit(
        &mut out,
        "speedup_sparse_presolve_vs_dense",
        sparse
            .iter()
            .map(SparseResult::speedup_presolve_vs_dense)
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.max(s)))
            }),
        false,
    );
    out.push_str("}\n");
    out
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_gje.json".to_string();
    let mut seed = 2019u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().unwrap_or(out_path),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--help" | "-h" => {
                println!("usage: gje_bench [--quick] [--out PATH] [--seed N]");
                return;
            }
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    // (rows, cols) grid. 1024x1024 stays in quick mode (the recorded
    // headline the CI smoke check relies on); 2048x2048 joins it so the
    // blocked kernel's auto-selected regime is exercised on every CI run.
    // Full mode adds paper scale: 4096x4096 and the XL-shaped 2048x16384.
    let sizes: &[(usize, usize)] = if quick {
        &[(64, 64), (129, 129), (1024, 1024), (2048, 2048)]
    } else {
        &[
            (63, 63),
            (64, 64),
            (65, 65),
            (127, 127),
            (129, 129),
            (256, 256),
            (512, 512),
            (1024, 1024),
            (2048, 2048),
            (4096, 4096),
            (2048, 16384),
        ]
    };
    let mode = if quick { "quick" } else { "full" };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut results = Vec::new();
    println!("GF(2) Gauss-Jordan kernels, dense random matrices (best of N reps):");
    println!(
        "{:>12} {:>6} {:>2} {:>8} {:>4} {:>14} {:>14} {:>8}",
        "size", "rank", "k", "auto", "reps", "plain", "blocked", "bl/pl"
    );
    for &(rows, cols) in sizes {
        // Big matrices pay most of their wall clock in the first rep; the
        // small ones need more reps to shake scheduler noise out of best-of.
        let reps = if quick {
            2
        } else if rows.max(cols) >= 2048 {
            3
        } else {
            5
        };
        let m = random_dense_matrix(&mut rng, rows, cols);
        let r = measure(&m, reps);
        println!(
            "{:>12} {:>6} {:>2} {:>8} {:>4} {:>12}ns {:>12}ns {:>7.2}x",
            format!("{rows}x{cols}"),
            r.rank,
            r.k,
            r.auto_kernel,
            r.reps,
            r.plain_ns,
            r.blocked_ns,
            r.speedup_blocked_vs_plain()
        );
        results.push(r);
    }

    // Sparse XL-shaped inputs: the structural presolve against
    // densify-then-eliminate on the same rows (~fill entries per row).
    let sparse_shapes: &[(usize, usize, usize)] = if quick {
        &[(2048, 2048, 3)]
    } else {
        &[(2048, 2048, 3), (4096, 4096, 3), (8192, 4096, 4)]
    };
    let mut sparse_results = Vec::new();
    println!("\nsparse XL-shaped inputs, presolve vs densify-then-eliminate:");
    println!(
        "{:>12} {:>4} {:>6} {:>14} {:>14} {:>8} {:>7} {:>12} {:>5}",
        "size", "fill", "rank", "dense_only", "presolve", "speedup", "elim%", "core", "comps"
    );
    for &(rows, cols, fill) in sparse_shapes {
        let m = random_sparse_matrix(&mut rng, rows, cols, fill);
        let r = measure_sparse(&m, if quick { 2 } else { 3 });
        println!(
            "{:>12} {:>4} {:>6} {:>12}ns {:>12}ns {:>7.2}x {:>6.1}% {:>12} {:>5}",
            format!("{rows}x{cols}"),
            r.fill,
            r.rank,
            r.dense_only_ns,
            r.presolve_total_ns,
            r.speedup_presolve_vs_dense(),
            100.0 * r.presolve.rows_eliminated as f64 / r.presolve.input_rows.max(1) as f64,
            format!("{}x{}", r.presolve.dense_rows, r.presolve.dense_cols),
            r.presolve.components
        );
        sparse_results.push(r);
    }

    // Real XL rounds: the dense cores the presolve hands the kernel, with
    // free columns interleaved between the pivots.
    let xl = measure_xl_cores(if quick { 5 } else { 30 }, if quick { 2 } else { 7 }, seed);
    println!(
        "\nXL cores, {} SR-[1,2,2,4] rounds (best of {} each, summed):",
        xl.rounds, xl.reps
    );
    println!(
        "  expanded {}x{}, cores {}x{}, dense {}ns, presolve {}ns, \
         row_xors {}, sweeps {} ({} scattered)",
        xl.expanded_rows,
        xl.expanded_cols,
        xl.core_rows,
        xl.core_cols,
        xl.dense_ns,
        xl.presolve_ns,
        xl.gauss.row_xors,
        xl.gauss.sweeps,
        xl.gauss.scattered_sweeps
    );

    let json = to_json(&results, &sparse_results, &xl, mode, seed);
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("\nwrote {out_path}");
    if let Some(r) = results.iter().find(|r| r.rows == 4096 && r.cols == 4096) {
        println!(
            "4096x4096 blocked speedup over the seed kernel: {:.2}x",
            r.speedup_blocked_vs_plain()
        );
    }
}
