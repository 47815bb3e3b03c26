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

pub use runner::{solve_instance, Approach, Instance, InstanceOutcome, RunSettings};
pub use tables::{run_table2, FamilySelector, Table2Options, Table2Row};
