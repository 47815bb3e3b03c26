//! Native XOR constraints.
//!
//! CryptoMiniSat — the GJE-enabled solver of the paper's evaluation — treats
//! XOR constraints as first-class citizens instead of expanding them to
//! exponentially many CNF clauses. This module provides the constraint type
//! used by the [`xor_gauss`](crate::SolverConfig::xor_gauss) configuration,
//! which takes each polynomial's XOR in the ANF encoding as one constraint
//! instead of its clause block. The solver keeps two watched variables per
//! XOR: assigning a watched variable moves its watch to another unassigned
//! variable, and an XOR left with a single unassigned variable implies it.
//! As a reason or a conflict, an XOR acts as the one clause of its 2^(n−1)
//! clause expansion that the current assignment falsifies. With
//! `xor_reasoning` the solver also combines its XORs by Gauss–Jordan
//! elimination at decision level zero.
//!
//! The elimination itself ([`xor_gauss_eliminate`]) packs the constraints
//! into a dense [`BitMatrix`] over the occurring variables (plus a
//! right-hand-side column) and runs the shared auto-selected elimination
//! kernel of `bosphorus-gf2` (`select_kernel`: schoolbook for tiny systems,
//! the cache-blocked multi-table M4RM kernel otherwise) — the same dispatch
//! the XL/ElimLin hot path uses — instead of the earlier ad-hoc sparse
//! sweep with its linear pivot lookups.

use std::fmt;

use bosphorus_cnf::CnfVar;
use bosphorus_gf2::{BitMatrix, GaussStats};
use bosphorus_interrupt::CancelToken;

/// An XOR constraint `x_{i1} ⊕ x_{i2} ⊕ … ⊕ x_{ik} = rhs`.
///
/// Variables are stored sorted and de-duplicated; a variable appearing twice
/// cancels out. An empty constraint with `rhs = true` is unsatisfiable.
///
/// # Examples
///
/// ```
/// use bosphorus_sat::XorConstraint;
///
/// let c = XorConstraint::new([0, 2, 2, 1], true);
/// assert_eq!(c.vars(), &[0, 1]);
/// assert!(c.rhs());
/// assert!(c.evaluate(|v| v == 0));   // 1 ⊕ 0 = 1 ✓
/// assert!(!c.evaluate(|_| false));   // 0 ⊕ 0 ≠ 1 ✗
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct XorConstraint {
    vars: Vec<CnfVar>,
    rhs: bool,
}

impl XorConstraint {
    /// Builds a constraint from variables and a right-hand side; duplicated
    /// variables cancel in pairs.
    pub fn new<I: IntoIterator<Item = CnfVar>>(vars: I, rhs: bool) -> Self {
        let mut vars: Vec<CnfVar> = vars.into_iter().collect();
        vars.sort_unstable();
        // Cancel pairs: x ⊕ x = 0.
        let mut out: Vec<CnfVar> = Vec::with_capacity(vars.len());
        for v in vars {
            if out.last() == Some(&v) {
                out.pop();
            } else {
                out.push(v);
            }
        }
        XorConstraint { vars: out, rhs }
    }

    /// The sorted, de-duplicated variables.
    pub fn vars(&self) -> &[CnfVar] {
        &self.vars
    }

    /// The right-hand side constant.
    pub fn rhs(&self) -> bool {
        self.rhs
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Returns `true` if the constraint has no variables.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The largest variable index, if any.
    pub fn max_var(&self) -> Option<CnfVar> {
        self.vars.last().copied()
    }

    /// Evaluates the constraint under a variable valuation.
    pub fn evaluate<F: Fn(CnfVar) -> bool>(&self, value: F) -> bool {
        let parity = self.vars.iter().fold(false, |acc, &v| acc ^ value(v));
        parity == self.rhs
    }
}

/// Result of [`xor_gauss_eliminate`]: the reduced XOR system in RREF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorGaussOutcome {
    /// The non-trivial reduced constraints, one per RREF pivot row, ordered
    /// by leading variable. Unit rows are forced assignments.
    pub rows: Vec<XorConstraint>,
    /// `true` if some row reduced to the contradiction `0 = 1`.
    pub contradiction: bool,
    /// Operation counts of the underlying dense elimination.
    pub stats: GaussStats,
}

/// Gauss–Jordan elimination over a set of XOR constraints via the dense
/// GF(2) kernel.
///
/// Columns are the occurring variables in ascending order followed by the
/// right-hand-side column; after RREF every returned row is a constraint
/// whose leading variable appears in no other row, so forced assignments
/// surface as single-variable rows and inconsistencies as the empty
/// `0 = 1` row.
///
/// # Examples
///
/// ```
/// use bosphorus_sat::{xor_gauss_eliminate, XorConstraint};
///
/// // x0 ⊕ x1 = 1 and x1 = 1 force x0 = 0.
/// let outcome = xor_gauss_eliminate(&[
///     XorConstraint::new([0, 1], true),
///     XorConstraint::new([1], true),
/// ]);
/// assert!(!outcome.contradiction);
/// assert!(outcome.rows.contains(&XorConstraint::new([0], false)));
/// ```
pub fn xor_gauss_eliminate(constraints: &[XorConstraint]) -> XorGaussOutcome {
    let mut vars: Vec<CnfVar> = constraints
        .iter()
        .flat_map(|c| c.vars().iter().copied())
        .collect();
    vars.sort_unstable();
    vars.dedup();
    let rhs_col = vars.len();
    let mut matrix = BitMatrix::zero(constraints.len(), rhs_col + 1);
    for (i, constraint) in constraints.iter().enumerate() {
        for v in constraint.vars() {
            let col = vars.binary_search(v).expect("var collected above");
            matrix.set(i, col, true);
        }
        if constraint.rhs() {
            matrix.set(i, rhs_col, true);
        }
    }
    let stats = matrix.gauss_jordan(&CancelToken::never());
    let mut rows = Vec::with_capacity(stats.rank);
    let mut contradiction = false;
    for row in matrix.iter().take(stats.rank) {
        let leading = row.first_one().expect("pivot rows are non-zero");
        if leading == rhs_col {
            contradiction = true;
            rows.push(XorConstraint::new([], true));
            continue;
        }
        let rhs = row.get(rhs_col);
        let row_vars = row.iter_ones().filter(|&c| c < rhs_col).map(|c| vars[c]);
        rows.push(XorConstraint::new(row_vars, rhs));
    }
    XorGaussOutcome {
        rows,
        contradiction,
        stats,
    }
}

impl fmt::Display for XorConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.vars.is_empty() {
            return write!(f, "0 = {}", u8::from(self.rhs));
        }
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, " ⊕ ")?;
            }
            write!(f, "x{v}")?;
        }
        write!(f, " = {}", u8::from(self.rhs))
    }
}

impl fmt::Debug for XorConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XorConstraint({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_cancel() {
        let c = XorConstraint::new([3, 1, 3, 3], false);
        assert_eq!(c.vars(), &[1, 3]);
        let d = XorConstraint::new([2, 2], true);
        assert!(d.is_empty());
        assert!(d.rhs());
    }

    #[test]
    fn evaluation() {
        let c = XorConstraint::new([0, 1, 2], false);
        assert!(c.evaluate(|_| false));
        assert!(c.evaluate(|v| v < 2), "two ones -> even parity");
        assert!(!c.evaluate(|v| v == 0));
    }

    #[test]
    fn display() {
        let c = XorConstraint::new([0, 2], true);
        assert_eq!(c.to_string(), "x0 ⊕ x2 = 1");
        assert_eq!(XorConstraint::new([], false).to_string(), "0 = 0");
    }

    #[test]
    fn gauss_eliminate_forces_assignments() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, x2 = 0  =>  x1 = 1, x0 = 0.
        let outcome = xor_gauss_eliminate(&[
            XorConstraint::new([0, 1], true),
            XorConstraint::new([1, 2], true),
            XorConstraint::new([2], false),
        ]);
        assert!(!outcome.contradiction);
        assert_eq!(outcome.stats.rank, 3);
        assert!(outcome.rows.contains(&XorConstraint::new([0], false)));
        assert!(outcome.rows.contains(&XorConstraint::new([1], true)));
        assert!(outcome.rows.contains(&XorConstraint::new([2], false)));
    }

    #[test]
    fn gauss_eliminate_detects_contradiction() {
        // x0 ⊕ x1 = 0 together with x0 ⊕ x1 = 1 is unsatisfiable.
        let outcome = xor_gauss_eliminate(&[
            XorConstraint::new([0, 1], false),
            XorConstraint::new([0, 1], true),
        ]);
        assert!(outcome.contradiction);
        assert!(outcome.rows.contains(&XorConstraint::new([], true)));
    }

    #[test]
    fn gauss_eliminate_full_rref_exposes_hidden_units() {
        // The old forward-only sweep would leave x5 buried; full RREF
        // isolates every pivot. System: x3 ⊕ x5 = 1, x3 ⊕ x7 = 0,
        // x5 ⊕ x7 = 1 (rank 2, consistent).
        let outcome = xor_gauss_eliminate(&[
            XorConstraint::new([3, 5], true),
            XorConstraint::new([3, 7], false),
            XorConstraint::new([5, 7], true),
        ]);
        assert!(!outcome.contradiction);
        assert_eq!(outcome.stats.rank, 2);
        // RREF rows: x3 ⊕ x7 = 0 and x5 ⊕ x7 = 1 (pivots x3 and x5).
        assert!(outcome.rows.contains(&XorConstraint::new([3, 7], false)));
        assert!(outcome.rows.contains(&XorConstraint::new([5, 7], true)));
    }

    #[test]
    fn gauss_eliminate_handles_trivial_inputs() {
        let empty = xor_gauss_eliminate(&[]);
        assert!(empty.rows.is_empty() && !empty.contradiction);
        let trivial = xor_gauss_eliminate(&[XorConstraint::new([2, 2], false)]);
        assert!(trivial.rows.is_empty() && !trivial.contradiction);
        let unsat = xor_gauss_eliminate(&[XorConstraint::new([], true)]);
        assert!(unsat.contradiction);
    }

    #[test]
    fn gauss_eliminate_agrees_with_pairwise_combination() {
        // Every reduced row must lie in the GF(2) span of the inputs: check
        // by evaluating both systems over all assignments of the 4 vars.
        let system = [
            XorConstraint::new([0, 1, 2], true),
            XorConstraint::new([1, 2, 3], false),
            XorConstraint::new([0, 3], true),
        ];
        let outcome = xor_gauss_eliminate(&system);
        for bits in 0u32..16 {
            let value = |v: CnfVar| (bits >> v) & 1 == 1;
            let sat_in = system.iter().all(|c| c.evaluate(value));
            if sat_in {
                for row in &outcome.rows {
                    assert!(row.evaluate(value), "row {row} not implied by inputs");
                }
            }
        }
    }
}
