//! Records the GF(2) elimination-kernel baseline: schoolbook ("plain", the
//! seed kernel) vs single-table M4RM (the PR-2 kernel) vs the in-place
//! three-table blocked kernel, across matrix sizes from the 64-bit word
//! boundaries up to paper scale (4096×4096 and an XL-shaped 2048×16384 wide
//! case). Shapes of 2048 rows/columns and up additionally time the blocked
//! kernel at 2, 4, and 8 row-band update threads (the result is bit-identical
//! to serial, so only wall clock varies).
//!
//! Emits a machine-readable `BENCH_gje.json` next to the human-readable
//! table — the repo's recorded perf baseline for the XL/ElimLin hot path.
//! `host_cpus` records the parallelism available where the numbers were
//! taken: thread-scaling rows from a single-core host are expected to be
//! flat, and the recorded `speedup_4096_par4_vs_serial` headline is only
//! meaningful alongside it.
//!
//! ```text
//! cargo run --release -p bosphorus-bench --bin gje_bench -- [--quick] [--out PATH] [--seed N]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use bosphorus_bench::{random_dense_matrix, random_sparse_matrix};
use bosphorus_gf2::{
    m4rm_block_size, select_kernel, BitMatrix, KernelChoice, PresolveStats, SparseMatrix,
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
    m4rm_ns: u128,
    blocked_ns: u128,
    /// Blocked-kernel wall clock at >1 row-band threads, as
    /// `(threads, best_ns)` pairs; empty for shapes below the parallel
    /// measurement cutoff.
    par_ns: Vec<(usize, u128)>,
}

impl SizeResult {
    fn speedup_m4rm_vs_plain(&self) -> f64 {
        self.plain_ns as f64 / self.m4rm_ns.max(1) as f64
    }

    fn speedup_blocked_vs_m4rm(&self) -> f64 {
        self.m4rm_ns as f64 / self.blocked_ns.max(1) as f64
    }

    fn speedup_par_vs_serial(&self, threads: usize) -> Option<f64> {
        self.par_ns
            .iter()
            .find(|&&(t, _)| t == threads)
            .map(|&(_, ns)| self.blocked_ns as f64 / ns.max(1) as f64)
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
        dense_rank = a.gauss_jordan_with_stats(1).rank;
        dense_only_ns = dense_only_ns.min(start.elapsed().as_nanos());
    }
    let mut presolve_total_ns = u128::MAX;
    let mut best: Option<PresolveStats> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = m.clone().rref(1);
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

/// Row-band thread counts timed on the large shapes (1 is `blocked_ns`).
const PAR_THREADS: &[usize] = &[2, 4, 8];

/// Shapes this large get per-thread-count rows in the output.
const PAR_MIN_DIM: usize = 2048;

fn measure(m: &BitMatrix, reps: usize) -> SizeResult {
    let (rows, cols) = (m.nrows(), m.ncols());
    let k = m4rm_block_size(rows, cols);
    let auto_kernel = match select_kernel(rows, cols, 1) {
        KernelChoice::Plain => "plain",
        KernelChoice::M4rm(_) => "m4rm",
        KernelChoice::BlockedM4rm { .. } => "blocked",
    };
    let (plain_ns, plain_rank) = time_best(m, reps, |a| a.gauss_jordan_plain_with_stats().rank);
    let (m4rm_ns, m4rm_rank) = time_best(m, reps, |a| a.gauss_jordan_m4rm_with_stats(k).rank);
    let (blocked_ns, blocked_rank) = time_best(m, reps, |a| {
        a.gauss_jordan_blocked_m4rm_with_stats(k, 1).rank
    });
    assert_eq!(plain_rank, m4rm_rank, "M4RM kernel disagrees");
    assert_eq!(plain_rank, blocked_rank, "blocked kernel disagrees");
    let mut par_ns = Vec::new();
    if rows.max(cols) >= PAR_MIN_DIM {
        for &threads in PAR_THREADS {
            let (ns, rank) = time_best(m, reps, |a| {
                a.gauss_jordan_blocked_m4rm_with_stats(k, threads).rank
            });
            assert_eq!(plain_rank, rank, "parallel blocked kernel disagrees");
            par_ns.push((threads, ns));
        }
    }
    SizeResult {
        rows,
        cols,
        rank: plain_rank,
        k,
        auto_kernel,
        reps,
        plain_ns,
        m4rm_ns,
        blocked_ns,
        par_ns,
    }
}

fn to_json(results: &[SizeResult], sparse: &[SparseResult], mode: &str, seed: u64) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let single_cpu_host = host_cpus == 1;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"gje_kernels\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(out, "  \"single_cpu_host\": {single_cpu_host},");
    let _ = writeln!(out, "  \"time_metric\": \"best_of_reps_ns\",");
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"rows\": {}, \"cols\": {}, \"rank\": {}, \"k\": {}, \
             \"auto_kernel\": \"{}\", \"reps\": {}, \
             \"plain_ns\": {}, \"m4rm_ns\": {}, \"blocked_ns\": {}, \
             \"speedup_m4rm_vs_plain\": {:.2}, \"speedup_blocked_vs_m4rm\": {:.2}, \
             \"par_ns\": {{",
            r.rows,
            r.cols,
            r.rank,
            r.k,
            r.auto_kernel,
            r.reps,
            r.plain_ns,
            r.m4rm_ns,
            r.blocked_ns,
            r.speedup_m4rm_vs_plain(),
            r.speedup_blocked_vs_m4rm()
        );
        for (j, &(threads, ns)) in r.par_ns.iter().enumerate() {
            let sep = if j + 1 < r.par_ns.len() { ", " } else { "" };
            let _ = write!(out, "\"{threads}\": {ns}{sep}");
        }
        out.push_str("}}");
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
             \"weight2_rows\": {}, \"pure_leading_rows\": {}, \"subset_cancellations\": {}, \
             \"duplicate_nnz\": {}, \"singleton_nnz\": {}, \"weight2_nnz\": {}, \
             \"pure_leading_nnz\": {}, \"subset_nnz\": {}, \
             \"peak_interned_rows\": {}, \"peak_interned_words\": {}, \
             \"components_parallel\": {}}}",
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
            p.subset_cancellations,
            p.duplicate_nnz,
            p.singleton_nnz,
            p.weight2_nnz,
            p.pure_leading_nnz,
            p.subset_nnz,
            p.peak_interned_rows,
            p.peak_interned_words,
            p.components_parallel
        );
        out.push_str(if i + 1 < sparse.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let headline = |rows: usize, cols: usize, f: &dyn Fn(&SizeResult) -> Option<f64>| {
        results
            .iter()
            .find(|r| r.rows == rows && r.cols == cols)
            .and_then(f)
    };
    // The recorded headline numbers: the PR-2 M4RM gain over the seed kernel
    // at 1024x1024 (kept for continuity; CI greps it), the blocked kernel's
    // gain over M4RM at 4096x4096, and the 4-thread band-parallel gain over
    // the serial blocked kernel at 4096x4096. On a single-CPU host the
    // parallel headline only measures channel overhead, so it is recorded
    // as null and `single_cpu_host` is set instead of publishing a
    // meaningless ~1.0x.
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
        "speedup_1024_m4rm_vs_plain",
        headline(1024, 1024, &|r| Some(r.speedup_m4rm_vs_plain())),
        true,
    );
    emit(
        &mut out,
        "speedup_4096_blocked_vs_m4rm",
        headline(4096, 4096, &|r| Some(r.speedup_blocked_vs_m4rm())),
        true,
    );
    emit(
        &mut out,
        "speedup_4096_par4_vs_serial",
        if single_cpu_host {
            None
        } else {
            headline(4096, 4096, &|r| r.speedup_par_vs_serial(4))
        },
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
    // (rows, cols) grid. 1024x1024 stays in quick mode (the recorded M4RM
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
        "{:>12} {:>6} {:>2} {:>8} {:>4} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "size", "rank", "k", "auto", "reps", "plain", "m4rm", "blocked", "m4/pl", "bl/m4"
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
            "{:>12} {:>6} {:>2} {:>8} {:>4} {:>12}ns {:>12}ns {:>12}ns {:>7.2}x {:>7.2}x",
            format!("{rows}x{cols}"),
            r.rank,
            r.k,
            r.auto_kernel,
            r.reps,
            r.plain_ns,
            r.m4rm_ns,
            r.blocked_ns,
            r.speedup_m4rm_vs_plain(),
            r.speedup_blocked_vs_m4rm()
        );
        for &(threads, ns) in &r.par_ns {
            println!(
                "{:>12} {:>48}ns {:>7.2}x vs serial",
                format!("  .. {threads} threads"),
                ns,
                r.blocked_ns as f64 / ns.max(1) as f64
            );
        }
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

    let json = to_json(&results, &sparse_results, mode, seed);
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("\nwrote {out_path}");
    if let Some(r) = results.iter().find(|r| r.rows == 4096 && r.cols == 4096) {
        println!(
            "4096x4096 blocked speedup over single-table M4RM: {:.2}x \
             ({:.2}x over the seed kernel)",
            r.speedup_blocked_vs_m4rm(),
            r.plain_ns as f64 / r.blocked_ns.max(1) as f64
        );
        if let Some(s) = r.speedup_par_vs_serial(4) {
            let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            if host_cpus > 1 {
                println!(
                    "4096x4096 4-thread speedup over serial blocked: {s:.2}x \
                     (host has {host_cpus} CPU(s))"
                );
            } else {
                println!(
                    "4096x4096 4-thread run measured only channel overhead \
                     (single-CPU host); parallel headline recorded as null"
                );
            }
        }
    }
}
