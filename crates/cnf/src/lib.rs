//! Conjunctive Normal Form (CNF) formulas.
//!
//! This crate provides the CNF side of the ANF↔CNF bridge: [`Lit`]erals,
//! [`Clause`]s, [`CnfFormula`]s and DIMACS text I/O. It is shared by the SAT
//! solver ([`bosphorus-sat`]) and by the conversion code in the core crate.
//!
//! # Examples
//!
//! ```
//! use bosphorus_cnf::{CnfFormula, Lit};
//!
//! // (x0 ∨ ¬x1) ∧ (x1)
//! let mut cnf = CnfFormula::new(2);
//! cnf.add_clause([Lit::positive(0), Lit::negative(1)]);
//! cnf.add_clause([Lit::positive(1)]);
//! assert_eq!(cnf.num_clauses(), 2);
//! assert!(cnf.evaluate(&[true, true]).unwrap());
//! assert!(!cnf.evaluate(&[false, true]).unwrap());
//! ```
//!
//! [`bosphorus-sat`]: https://example.invalid/bosphorus-repro

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clause;
mod dimacs;
mod formula;
mod lit;

pub use clause::Clause;
pub use dimacs::ParseDimacsError;
pub use formula::{CnfFormula, EvaluateError};
pub use lit::Lit;

/// Index of a CNF variable (0-based; DIMACS numbering is 1-based).
pub type CnfVar = u32;

#[cfg(test)]
mod proptests;
