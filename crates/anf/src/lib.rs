//! Boolean polynomials in Algebraic Normal Form (ANF) over GF(2).
//!
//! This crate is the reproduction's stand-in for PolyBoRi, the Boolean
//! polynomial framework used by the original Bosphorus tool. It provides:
//!
//! * [`Monomial`] — a product of distinct Boolean variables (idempotent, since
//!   `x² = x` in GF(2)); the empty monomial is the constant `1`.
//! * [`Polynomial`] — an XOR (GF(2) sum) of monomials; the polynomial is
//!   implicitly an equation `p = 0`, following the paper's convention.
//! * [`PolynomialSystem`] — an ordered collection of polynomials sharing one
//!   variable space, with parsing, printing, evaluation and substitution.
//! * [`AnfPropagator`] — the Section II-A propagation engine: values and
//!   equivalence literals extracted from unit-like polynomials and applied
//!   to a fixed point.
//! * [`AnfDatabase`] — the master system plus propagation knowledge behind
//!   one revision counter, so incremental consumers (the engine's learning
//!   passes) can skip work when nothing they read has changed. Its
//!   occurrence lists and row hash index let propagation revisit only the
//!   rows a new fact reaches.
//! * [`MonomialInterner`] and [`TermScratch`] — the supporting cast of the
//!   allocation-conscious term layer: a fast-hash monomial→dense-id map used
//!   by linearisation, and a reusable working buffer for the merge-based
//!   polynomial arithmetic. The original (seed) term layer survives only
//!   under `cfg(test)`, as the reference the property tests compare the
//!   production types against.
//!
//! # Examples
//!
//! ```
//! use bosphorus_anf::{Monomial, Polynomial, PolynomialSystem};
//!
//! // The first polynomial from the paper's Section II-E example:
//! // x1*x2 + x3 + x4 + 1.
//! let p = Polynomial::from_monomials([
//!     Monomial::from_vars([1, 2]),
//!     Monomial::from_vars([3]),
//!     Monomial::from_vars([4]),
//!     Monomial::one(),
//! ]);
//! assert_eq!(p.degree(), 2);
//! assert_eq!(p.to_string(), "x1*x2 + x3 + x4 + 1");
//!
//! // The same polynomial via the parser.
//! let system = PolynomialSystem::parse("x1*x2 + x3 + x4 + 1;")?;
//! assert_eq!(system.polynomials()[0], p);
//! # Ok::<(), bosphorus_anf::ParseSystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod database;
mod eval;
mod intern;
mod monomial;
#[cfg(test)]
mod naive;
mod parser;
mod polynomial;
mod propagate;
mod system;
mod worklist;

pub use database::{AnfDatabase, Revision};
pub use eval::Assignment;
pub use intern::MonomialInterner;
pub use monomial::Monomial;
pub use parser::{ParsePolynomialError, ParseSystemError};
pub use polynomial::{Polynomial, TermScratch};
pub use propagate::{is_retainable_fact, AnfPropagator, PropagationOutcome, VarKnowledge};
pub use system::PolynomialSystem;

/// Index of a Boolean variable. Variables are named `x0, x1, ...` in the
/// textual format.
pub type Var = u32;

#[cfg(test)]
mod proptests;
