//! A conflict-driven clause learning (CDCL) SAT solver.
//!
//! This crate replaces the three off-the-shelf solvers used in the paper's
//! evaluation (MiniSat 2.2, Lingeling and CryptoMiniSat 5) with a single
//! handwritten solver that can be instantiated in three strength tiers via
//! [`SolverConfig`] presets:
//!
//! * [`SolverConfig::minimal`] — static clause database, geometric restarts,
//!   no clause-DB reduction: comparable in spirit to MiniSat 2.2.
//! * [`SolverConfig::aggressive`] — Luby restarts, activity-based clause-DB
//!   reduction, phase saving and stronger decay: the "high-performance"
//!   stand-in for Lingeling.
//! * [`SolverConfig::xor_gauss`] — the aggressive configuration plus native
//!   XOR constraints with watched-variable propagation and top-level
//!   Gauss–Jordan elimination, the role CryptoMiniSat 5 plays in the paper.
//!
//! Two features matter specifically for Bosphorus:
//!
//! * **Conflict budgets** ([`Solver::set_conflict_budget`]) — the
//!   conflict-bounded SAT step of the fact-learning loop needs the solver to
//!   stop after a fixed number of conflicts and report
//!   [`SolveResult::Unknown`]. A budget pauses; cancellation backs out. A
//!   call that spends its budget keeps the search where it stopped, so the
//!   next [`Solver::solve`] continues it: budget `a` then budget `b` is
//!   exactly the search of one call with budget `a + b`. A cancelled
//!   [`CancelToken`](bosphorus_interrupt::CancelToken) backs out to
//!   decision level zero and ends the search, and adding a clause, an XOR
//!   or a variable abandons a paused search the same way.
//! * **Learnt-clause extraction** ([`Solver::learnt_units`],
//!   [`Solver::learnt_binaries`], [`Solver::learnt_clauses`]) — Bosphorus
//!   harvests unit and binary learnt clauses and turns them into ANF facts.
//!   The whole learnt database comes back as one
//!   [`CnfFormula`](bosphorus_cnf::CnfFormula), the clause store every
//!   crate shares.
//!
//! # Examples
//!
//! ```
//! use bosphorus_cnf::Lit;
//! use bosphorus_sat::{SolveResult, Solver, SolverConfig};
//!
//! let mut solver = Solver::new(SolverConfig::minimal());
//! solver.new_vars(2);
//! solver.add_clause([Lit::positive(0), Lit::positive(1)]);
//! solver.add_clause([Lit::negative(0)]);
//! match solver.solve() {
//!     SolveResult::Sat => {
//!         let model = solver.model().expect("SAT result has a model");
//!         assert!(!model[0] && model[1]);
//!     }
//!     other => panic!("unexpected result {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod solver;
mod stats;
mod varorder;
mod xor;

pub use config::{RestartStrategy, SolverConfig};
pub use solver::{SolveResult, Solver, SOLVER_CHECK_INTERVAL};
pub use stats::SolverStats;
pub use xor::{xor_gauss_eliminate, XorConstraint, XorGaussOutcome};

#[cfg(test)]
mod proptests;
