//! Benchmark harness reproducing the paper's evaluation (Section IV).
//!
//! The harness mirrors the experimental setup of Table II: every instance is
//! solved once *without* Bosphorus (direct conversion to CNF, then a SAT
//! solver) and once *with* Bosphorus (the fact-learning loop runs first, the
//! processed CNF goes to the same solver), for each of the three solver
//! configurations (MiniSat-like, Lingeling-like, CryptoMiniSat-like).
//!
//! Two deliberate substitutions keep runs laptop-sized and reproducible (see
//! DESIGN.md): instances are much smaller than the paper's, and the per-call
//! resource limit is a **conflict budget** rather than a 5,000-second
//! wall-clock timeout (the paper itself argues conflict budgets are the
//! replicable choice for the inner loop). PAR-2 scores are computed from
//! measured wall-clock time with a nominal timeout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod par2;
pub mod parallel;
pub mod runner;
pub mod tables;

pub use args::{Table2Args, TABLE2_USAGE};
pub use par2::{Par2Scorer, ScoredRun};
pub use parallel::run_indexed;

use bosphorus_gf2::{BitMatrix, SparseMatrix};
use rand::rngs::StdRng;
use rand::Rng;

/// Builds a dense uniform random GF(2) matrix — the shared input generator
/// of the `gje_kernels` bench and the `gje_bench` baseline binary, so both
/// measure the same distribution for a given seed.
pub fn random_dense_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> BitMatrix {
    let mut m = BitMatrix::zero(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            if rng.gen::<bool>() {
                m.set(r, c, true);
            }
        }
    }
    m
}

/// Builds a sparse random GF(2) matrix with up to `fill` entries per row
/// (duplicate column draws cancel XOR-style, like repeated monomials) — the
/// XL-shaped input the presolve comparisons in `gje_kernels` and `gje_bench`
/// share, so both measure the same distribution for a given seed.
pub fn random_sparse_matrix(
    rng: &mut StdRng,
    rows: usize,
    cols: usize,
    fill: usize,
) -> SparseMatrix {
    let mut m = SparseMatrix::new(cols);
    for _ in 0..rows {
        m.push_row((0..fill).map(|_| rng.gen_range(0..cols) as u32));
    }
    m
}
pub use runner::{solve_anf_instance, solve_cnf_instance, Approach, InstanceOutcome, RunSettings};
pub use tables::{run_table2, Table2Options, Table2Row};
