//! A degree-bounded Buchberger Gröbner-basis engine over the Boolean
//! polynomial ring GF(2)[x₀,…,x_{n−1}] / (xᵢ² + xᵢ).
//!
//! It backs the optional Gröbner learning pass, which runs it under a work
//! budget and learns the retainable elements of the (possibly partial)
//! basis. It is *correct* on toy systems (verified against brute force by
//! property tests), so it doubles as a cross-check for the Bosphorus engine.
//! The paper cites M4GB, the fastest off-the-shelf ANF solver, only as a
//! reference that "times out on all the instances"; this crate does not
//! stand in for it.
//!
//! Because the Boolean ring has zero divisors, plain Buchberger is
//! incomplete; following the PolyBoRi treatment, every generator `f` also
//! contributes *field pairs* `(x_v + 1)·f` for each variable `v` in its
//! leading monomial, which restores completeness for ideal-triviality
//! detection.
//!
//! # Examples
//!
//! ```
//! use bosphorus_anf::PolynomialSystem;
//! use bosphorus_groebner::{GroebnerConfig, GroebnerOutcome, groebner_basis};
//!
//! // x0*x1 + x0 + 1 forces x0 = 1, x1 = 0; adding x1 + 1 is contradictory.
//! let system = PolynomialSystem::parse("x0*x1 + x0 + 1; x1 + 1;")?;
//! let result = groebner_basis(&system, &GroebnerConfig::default());
//! assert_eq!(result.outcome, GroebnerOutcome::Inconsistent);
//! # Ok::<(), bosphorus_anf::ParseSystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buchberger;
mod reduce;

pub use buchberger::{
    groebner_basis, groebner_basis_cancellable, GroebnerConfig, GroebnerOutcome, GroebnerResult,
};
pub use reduce::normal_form;

#[cfg(test)]
mod proptests;
