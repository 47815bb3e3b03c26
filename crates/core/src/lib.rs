//! Bosphorus: bridging ANF and CNF solvers.
//!
//! This crate is a from-scratch reproduction of the Bosphorus tool described
//! in *"BOSPHORUS: Bridging ANF and CNF Solvers"* (DATE 2019). Problems stated
//! as Boolean polynomial systems (ANF) or as CNF formulas are iteratively
//! simplified by a fact-learning loop that alternates between algebraic and
//! SAT-based reasoning:
//!
//! 1. **ANF propagation** ([`AnfPropagator`]) — value and equivalence
//!    assignments extracted from unit-like polynomials, applied to a fixed
//!    point (Section II-A).
//! 2. **XL** ([`xl_learn`]) — eXtended Linearization: multiply equations by
//!    every variable (`D = 1`), linearise, run Gauss–Jordan elimination and
//!    keep the linear / "all-ones monomial" rows (Section II-B).
//! 3. **ElimLin** ([`elimlin_learn`]) — iterated GJE + variable elimination
//!    by substitution of linear equations (Section II-C).
//! 4. **Conflict-bounded SAT** ([`sat_step`]) — convert to CNF, run a CDCL
//!    solver with a conflict budget, harvest unit and binary learnt clauses
//!    (Section II-D). Each round is one new search on a new encoding of the
//!    current system.
//!
//! Each technique has one entry point, and it takes a [`CancelToken`]:
//! pass [`CancelToken::never`] for a run that cannot be interrupted.
//!
//! The techniques are [`LearningPass`] objects registered in a [`Pipeline`]
//! over the incremental [`AnfDatabase`](bosphorus_anf::AnfDatabase); the
//! [`Bosphorus`] engine drives the pipeline until no new facts are produced
//! (Fig. 1 of the paper), then emits a processed ANF and CNF that downstream
//! solvers decide faster. Pass order and budgets are configuration data
//! ([`BosphorusConfig::pass_order`]), and an optional Gröbner/Buchberger
//! pass ([`GroebnerPass`]) can join the loop. Conversions in both directions
//! are provided: [`anf_to_cnf`] (Karnaugh-map minimisation for small-support
//! polynomials, XOR cutting plus Tseitin expansion otherwise) and
//! [`cnf_to_anf`] (clause products with clause cutting).
//!
//! # Quick start
//!
//! ```
//! use bosphorus::{Bosphorus, BosphorusConfig, SolveStatus};
//! use bosphorus_anf::PolynomialSystem;
//! use bosphorus_sat::SolverConfig;
//!
//! let system = PolynomialSystem::parse("x0*x1 + x2 + 1; x1 + x2; x0*x2 + x1;")?;
//! let mut engine = Bosphorus::new(system.clone(), BosphorusConfig::default());
//! match engine.solve(&SolverConfig::aggressive()) {
//!     SolveStatus::Sat(assignment) => assert!(system.is_satisfied_by(&assignment)),
//!     SolveStatus::Unsat => println!("unsatisfiable"),
//!     SolveStatus::Interrupted => println!("cancelled before a verdict"),
//! }
//! # Ok::<(), bosphorus_anf::ParseSystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anf_to_cnf;
mod cnf_to_anf;
mod config;
mod elimlin;
mod engine;
mod linearize;
mod minimize;
mod pipeline;
mod satstep;
mod stats;
mod xl;

pub use anf_to_cnf::{anf_to_cnf, tseitin_clause_count, CnfConversion, XorPiece};
// The propagator moved into `bosphorus-anf` (it is part of the shared
// problem representation, see `AnfDatabase`); re-exported here so existing
// `bosphorus::AnfPropagator` paths keep working.
pub use bosphorus_anf::{is_retainable_fact, AnfPropagator, PropagationOutcome, VarKnowledge};
pub use bosphorus_gf2::{GaussStats, PresolveStats};
// The cancellation token lives in its own bottom-level crate so every layer
// (gf2, sat, groebner) can poll it; re-exported here as the engine-facing
// entry point for deadlines and signal-driven (SIGINT/SIGTERM)
// interruption.
pub use bosphorus_interrupt::{CancelToken, Checkpoint};
pub use cnf_to_anf::{clause_to_polynomial, cnf_to_anf, AnfConversion};
pub use config::{BosphorusConfig, CLAUSE_CUT_LENGTH, EXPANSION_DELTA_M, XOR_CUT_LENGTH};
pub use elimlin::{elimlin_learn, elimlin_on, ElimLinOutcome};
pub use engine::{Bosphorus, PreprocessStatus, SolveStatus};
pub use linearize::{Linearization, LinearizationBuilder};
pub use minimize::karnaugh_clauses;
pub use pipeline::{
    ElimLinPass, GroebnerPass, LearningPass, PassBudget, PassKind, PassOutcome, PassStatus,
    Pipeline, PropagatePass, SatPass, XlPass,
};
pub use satstep::{sat_step, SatStepOutcome, SatStepStatus};
pub use stats::{EngineStats, FinalSolveStats, PassStats, TimelineEntry};
pub use xl::{xl_learn, XlOutcome};

#[cfg(test)]
mod proptests;
