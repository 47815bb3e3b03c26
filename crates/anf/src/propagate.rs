//! ANF propagation (Section II-A of the paper).
//!
//! For each variable the propagator tracks a value (0, 1 or undetermined) and
//! an equivalence literal. Polynomials of special shapes yield assignments:
//!
//! * `x` or `x ⊕ 1` assign a constant to `x`;
//! * `x_{i1}·…·x_{ip} ⊕ 1` assigns 1 to every variable of the monomial;
//! * `x ⊕ y` and `x ⊕ y ⊕ 1` record the equivalences `x = y` and `x = ¬y`.
//!
//! Assignments are substituted into the system and the process repeats until
//! a fixed point is reached. Equivalence classes are kept as links from the
//! larger to the smaller variable index, so each class is represented by its
//! smallest variable, and values sit on those representatives.
//!
//! [`AnfPropagator`] holds the knowledge; applying it to a system is the job
//! of the worklist in `worklist.rs`, which revisits only the rows a new fact
//! can change (through occurrence lists) yet reaches exactly the fixed point
//! of repeated in-order sweeps. The sweeps themselves survive as the test
//! oracle `AnfPropagator::propagate_by_sweeps`.
//!
//! The propagator lives next to [`PolynomialSystem`] (rather than in the
//! engine crate) because together they form the shared problem
//! representation every learning technique reads: see
//! [`AnfDatabase`](crate::AnfDatabase).

use crate::polynomial::Image;
use crate::worklist::RowIndex;
use crate::{Polynomial, PolynomialSystem, TermScratch, Var};

/// What the propagator knows about one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarKnowledge {
    /// Nothing is known; the variable stands for itself.
    #[default]
    Free,
    /// The variable has a fixed Boolean value.
    Value(bool),
    /// The variable equals another variable or its negation
    /// (`negated = true` means `x = ¬other`).
    Equivalent {
        /// The representative variable.
        other: Var,
        /// Whether the equivalence is negated.
        negated: bool,
    },
}

/// Result of running [`AnfPropagator::propagate`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropagationOutcome {
    /// `true` if the contradiction `1 = 0` was derived.
    pub contradiction: bool,
    /// Number of value assignments made during this call.
    pub new_assignments: usize,
    /// Number of equivalences recorded during this call.
    pub new_equivalences: usize,
    /// `true` if the call rewrote the system in an observable way (a
    /// polynomial changed, vanished, or a duplicate was removed). Revision
    /// tracking in [`AnfDatabase`](crate::AnfDatabase) uses this to decide
    /// whether downstream passes must re-read the system.
    pub system_changed: bool,
}

/// The ANF propagation engine.
///
/// The propagator owns the per-variable knowledge (values and equivalence
/// literals) accumulated over the whole Bosphorus run; the polynomial system
/// it is applied to is rewritten in place.
///
/// # Examples
///
/// ```
/// use bosphorus_anf::{AnfPropagator, PolynomialSystem};
///
/// let mut system = PolynomialSystem::parse("x0 + 1; x0*x1 + x2;")?;
/// let mut prop = AnfPropagator::new(system.num_vars());
/// let outcome = prop.propagate(&mut system);
/// assert!(!outcome.contradiction);
/// assert_eq!(prop.value(0), Some(true));
/// // With x0 = 1 the second equation becomes x1 + x2, i.e. x1 = x2.
/// assert!(prop.equivalence(1).is_some() || prop.equivalence(2).is_some());
/// # Ok::<(), bosphorus_anf::ParseSystemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnfPropagator {
    knowledge: Vec<VarKnowledge>,
    contradiction: bool,
}

impl AnfPropagator {
    /// Creates a propagator for `num_vars` variables, all initially free.
    pub fn new(num_vars: usize) -> Self {
        AnfPropagator {
            knowledge: vec![VarKnowledge::Free; num_vars],
            contradiction: false,
        }
    }

    /// Number of variables tracked.
    pub fn num_vars(&self) -> usize {
        self.knowledge.len()
    }

    /// Grows the tracked variable space.
    pub fn ensure_num_vars(&mut self, num_vars: usize) {
        if self.knowledge.len() < num_vars {
            self.knowledge.resize(num_vars, VarKnowledge::Free);
        }
    }

    /// Returns `true` if a contradiction has been derived.
    pub fn has_contradiction(&self) -> bool {
        self.contradiction
    }

    /// Records that the contradiction `1 = 0` was derived.
    pub(crate) fn flag_contradiction(&mut self) {
        self.contradiction = true;
    }

    /// Returns `true` if `var` has no value and represents its own class.
    pub(crate) fn is_free_root(&self, var: Var) -> bool {
        matches!(
            self.knowledge.get(var as usize),
            None | Some(VarKnowledge::Free)
        )
    }

    /// The value of `var`, if determined (following equivalence chains).
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.resolve(var) {
            Resolved::Value(b) => Some(b),
            Resolved::Literal { .. } => None,
        }
    }

    /// The equivalence literal of `var`: `Some((root, negated))` when the
    /// variable has been merged into another variable's class, following
    /// chains to the class representative.
    pub fn equivalence(&self, var: Var) -> Option<(Var, bool)> {
        match self.resolve(var) {
            Resolved::Value(_) => None,
            Resolved::Literal { root, negated } => {
                if root == var && !negated {
                    None
                } else {
                    Some((root, negated))
                }
            }
        }
    }

    /// Per-variable knowledge, resolved to representatives.
    pub fn knowledge(&self, var: Var) -> VarKnowledge {
        match self.resolve(var) {
            Resolved::Value(b) => VarKnowledge::Value(b),
            Resolved::Literal { root, negated } => {
                if root == var && !negated {
                    VarKnowledge::Free
                } else {
                    VarKnowledge::Equivalent {
                        other: root,
                        negated,
                    }
                }
            }
        }
    }

    /// Count of variables with a determined value.
    pub fn num_assigned(&self) -> usize {
        (0..self.knowledge.len() as Var)
            .filter(|&v| self.value(v).is_some())
            .count()
    }

    /// Records the fact `var = value`. Returns `false` (and flags a
    /// contradiction) if it conflicts with existing knowledge.
    pub fn assign(&mut self, var: Var, value: bool) -> bool {
        self.ensure_num_vars(var as usize + 1);
        match self.resolve(var) {
            Resolved::Value(existing) => {
                if existing != value {
                    self.contradiction = true;
                    false
                } else {
                    true
                }
            }
            Resolved::Literal { root, negated } => {
                self.knowledge[root as usize] = VarKnowledge::Value(value ^ negated);
                true
            }
        }
    }

    /// Records the equivalence `a = b` (or `a = ¬b` when `negated`).
    /// Returns `false` (and flags a contradiction) on conflict.
    pub fn equate(&mut self, a: Var, b: Var, negated: bool) -> bool {
        self.ensure_num_vars(a.max(b) as usize + 1);
        match (self.resolve(a), self.resolve(b)) {
            (Resolved::Value(va), Resolved::Value(vb)) => {
                // a = b ⊕ negated is consistent exactly when va ⊕ vb = negated.
                if (va ^ vb) == negated {
                    true
                } else {
                    self.contradiction = true;
                    false
                }
            }
            (Resolved::Value(va), Resolved::Literal { root, negated: nb }) => {
                self.knowledge[root as usize] = VarKnowledge::Value(va ^ negated ^ nb);
                true
            }
            (Resolved::Literal { root, negated: na }, Resolved::Value(vb)) => {
                self.knowledge[root as usize] = VarKnowledge::Value(vb ^ negated ^ na);
                true
            }
            (
                Resolved::Literal {
                    root: ra,
                    negated: na,
                },
                Resolved::Literal {
                    root: rb,
                    negated: nb,
                },
            ) => {
                if ra == rb {
                    if na ^ nb != negated {
                        self.contradiction = true;
                        return false;
                    }
                    return true;
                }
                // Merge the larger-indexed root into the smaller one so the
                // representative is stable.
                let (child, parent, neg) = if ra > rb {
                    (ra, rb, na ^ nb ^ negated)
                } else {
                    (rb, ra, na ^ nb ^ negated)
                };
                self.knowledge[child as usize] = VarKnowledge::Equivalent {
                    other: parent,
                    negated: neg,
                };
                true
            }
        }
    }

    /// Applies the current knowledge to `poly`, substituting determined
    /// values and equivalence representatives.
    pub fn apply_to_polynomial(&self, poly: &Polynomial) -> Polynomial {
        self.reduce_with(poly, &mut TermScratch::new())
            .unwrap_or_else(|| poly.clone())
    }

    /// `poly` with the current knowledge substituted, or `None` when every
    /// variable of `poly` is a free root (the polynomial is reduced
    /// already). `scratch` is the working buffer, reused across calls.
    pub(crate) fn reduce_with(
        &self,
        poly: &Polynomial,
        scratch: &mut TermScratch,
    ) -> Option<Polynomial> {
        poly.substitute_all_with(
            |v| match self.resolve(v) {
                Resolved::Value(b) => Image::Const(b),
                Resolved::Literal { root, negated } if root != v || negated => {
                    Image::Literal(root, negated)
                }
                Resolved::Literal { .. } => Image::Keep,
            },
            scratch,
        )
    }

    /// Runs propagation on `system` until a fixed point: extracts value and
    /// equivalence assignments from suitably-shaped polynomials and
    /// substitutes them into the rows that contain the affected variables,
    /// until no row yields anything new. The system is rewritten in place
    /// (zero polynomials are dropped, later duplicates removed); the result
    /// equals that of sweeping every row in order until a sweep learns
    /// nothing.
    pub fn propagate(&mut self, system: &mut PolynomialSystem) -> PropagationOutcome {
        RowIndex::new(system).propagate(system, self, 0)
    }

    /// Inspects a single polynomial for the fact shapes of Section II-A.
    /// Returns `true` if new knowledge was recorded.
    pub(crate) fn extract_fact(
        &mut self,
        poly: &Polynomial,
        outcome: &mut PropagationOutcome,
    ) -> bool {
        // Value assignment: x or x ⊕ 1. (A polynomial of more than three
        // terms is neither of the linear shapes below.)
        let linear = if poly.len() <= 3 {
            poly.as_linear()
        } else {
            None
        };
        if let Some((vars, constant)) = linear {
            match vars.len() {
                1 => {
                    let var = vars[0];
                    if self.value(var) != Some(constant) {
                        self.assign(var, constant);
                        outcome.new_assignments += 1;
                        return true;
                    }
                    return false;
                }
                2 => {
                    // x ⊕ y (= 0): x = y;  x ⊕ y ⊕ 1: x = ¬y.
                    let (a, b) = (vars[0], vars[1]);
                    let already = match (self.resolve(a), self.resolve(b)) {
                        (
                            Resolved::Literal {
                                root: ra,
                                negated: na,
                            },
                            Resolved::Literal {
                                root: rb,
                                negated: nb,
                            },
                        ) => ra == rb && (na ^ nb) == constant,
                        (Resolved::Value(va), Resolved::Value(vb)) => (va ^ vb) == constant,
                        _ => false,
                    };
                    if !already {
                        self.equate(a, b, constant);
                        outcome.new_equivalences += 1;
                        return true;
                    }
                    return false;
                }
                _ => return false,
            }
        }
        // All-ones fact: x_{i1}…x_{ip} ⊕ 1 forces every variable to 1.
        if let Some(monomial) = poly.as_monomial_plus_one() {
            let mut any = false;
            for &v in monomial.vars() {
                if self.value(v) != Some(true) {
                    self.assign(v, true);
                    outcome.new_assignments += 1;
                    any = true;
                }
                if self.contradiction {
                    return true;
                }
            }
            return any;
        }
        false
    }

    /// The textbook reduction, kept for the oracle below: substitute one
    /// variable at a time until nothing changes.
    #[cfg(test)]
    fn apply_by_steps(&self, poly: &Polynomial, scratch: &mut TermScratch) -> Polynomial {
        let mut result = poly.clone();
        loop {
            let mut changed = false;
            for v in result.variables() {
                match self.resolve(v) {
                    Resolved::Value(b) => {
                        result = result.substitute_const_with(v, b, scratch);
                        changed = true;
                    }
                    Resolved::Literal { root, negated } => {
                        if root != v || negated {
                            result = result.substitute_literal_with(v, root, negated, scratch);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return result;
            }
        }
    }

    /// The textbook propagation loop, kept as the oracle of the worklist:
    /// sweep every row in order (substitute, extract facts), drop zero rows
    /// and later duplicates after the sweep, and repeat until a sweep learns
    /// nothing. On a contradiction the system keeps its state from before
    /// the sweep.
    #[cfg(test)]
    pub(crate) fn propagate_by_sweeps(
        &mut self,
        system: &mut PolynomialSystem,
    ) -> PropagationOutcome {
        self.ensure_num_vars(system.num_vars());
        let mut outcome = PropagationOutcome {
            contradiction: false,
            new_assignments: 0,
            new_equivalences: 0,
            system_changed: false,
        };
        let mut scratch = TermScratch::new();
        loop {
            let mut changed = false;
            let mut rewritten: Vec<Polynomial> = Vec::with_capacity(system.len());
            for poly in system.iter() {
                let reduced = self.apply_by_steps(poly, &mut scratch);
                if reduced != *poly {
                    outcome.system_changed = true;
                }
                if reduced.is_zero() {
                    continue;
                }
                if reduced.is_one() {
                    self.contradiction = true;
                    outcome.contradiction = true;
                    outcome.system_changed = true;
                    return outcome;
                }
                changed |= self.extract_fact(&reduced, &mut outcome);
                if self.contradiction {
                    outcome.contradiction = true;
                    outcome.system_changed = true;
                    return outcome;
                }
                rewritten.push(reduced);
            }
            if rewritten.len() != system.len() {
                // A polynomial vanished (reduced to zero, or was zero).
                outcome.system_changed = true;
            }
            let mut next = PolynomialSystem::with_num_vars(system.num_vars());
            for p in rewritten {
                if next.polynomials().contains(&p) {
                    outcome.system_changed = true;
                } else {
                    next.push(p);
                }
            }
            *system = next;
            if !changed {
                return outcome;
            }
        }
    }

    fn resolve(&self, var: Var) -> Resolved {
        let mut current = var;
        let mut negated = false;
        // Follow equivalence links; the merge discipline (larger index points
        // to smaller index) guarantees termination.
        loop {
            match self
                .knowledge
                .get(current as usize)
                .copied()
                .unwrap_or_default()
            {
                VarKnowledge::Free => {
                    return Resolved::Literal {
                        root: current,
                        negated,
                    }
                }
                VarKnowledge::Value(b) => return Resolved::Value(b ^ negated),
                VarKnowledge::Equivalent { other, negated: n } => {
                    negated ^= n;
                    current = other;
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolved {
    Value(bool),
    Literal { root: Var, negated: bool },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(s: &str) -> PolynomialSystem {
        PolynomialSystem::parse(s).expect("test system parses")
    }

    #[test]
    fn unit_polynomials_assign_values() {
        let mut s = system("x0; x1 + 1;");
        let mut prop = AnfPropagator::new(s.num_vars());
        let outcome = prop.propagate(&mut s);
        assert!(!outcome.contradiction);
        assert!(outcome.system_changed);
        assert_eq!(prop.value(0), Some(false));
        assert_eq!(prop.value(1), Some(true));
        assert!(s.is_empty(), "fully determined system becomes empty");
    }

    #[test]
    fn monomial_plus_one_forces_all_ones() {
        let mut s = system("x0*x2*x5 + 1;");
        let mut prop = AnfPropagator::new(s.num_vars());
        prop.propagate(&mut s);
        assert_eq!(prop.value(0), Some(true));
        assert_eq!(prop.value(2), Some(true));
        assert_eq!(prop.value(5), Some(true));
        assert_eq!(prop.value(1), None);
    }

    #[test]
    fn equivalences_are_recorded_and_applied() {
        let mut s = system("x0 + x1; x1 + x2 + 1; x2 + 1;");
        let mut prop = AnfPropagator::new(s.num_vars());
        let outcome = prop.propagate(&mut s);
        assert!(!outcome.contradiction);
        // x2 = 1, x1 = ¬x2 = 0, x0 = x1 = 0.
        assert_eq!(prop.value(2), Some(true));
        assert_eq!(prop.value(1), Some(false));
        assert_eq!(prop.value(0), Some(false));
    }

    #[test]
    fn contradiction_is_detected() {
        let mut s = system("x0; x0 + 1;");
        let mut prop = AnfPropagator::new(s.num_vars());
        let outcome = prop.propagate(&mut s);
        assert!(outcome.contradiction);
        assert!(prop.has_contradiction());
    }

    #[test]
    fn equivalence_contradiction_detected() {
        // x0 = x1, x0 = ¬x1 is contradictory.
        let mut s = system("x0 + x1; x0 + x1 + 1;");
        let mut prop = AnfPropagator::new(s.num_vars());
        let outcome = prop.propagate(&mut s);
        assert!(outcome.contradiction);
    }

    #[test]
    fn propagation_simplifies_nonlinear_equations() {
        // Worked example from Section II-C: after learning x2 = 1, the
        // equation x1x2 + x2x3 + 1 becomes x1 + x3 + 1, i.e. x1 = ¬x3.
        let mut s = system("x2 + 1; x1*x2 + x2*x3 + 1;");
        let mut prop = AnfPropagator::new(s.num_vars());
        let outcome = prop.propagate(&mut s);
        assert!(!outcome.contradiction);
        assert_eq!(prop.value(2), Some(true));
        // One of x1/x3 is expressed in terms of the other, negated.
        let e1 = prop.equivalence(1);
        let e3 = prop.equivalence(3);
        assert!(
            e1 == Some((3, true)) || e3 == Some((1, true)),
            "expected x1 = ¬x3, got {e1:?} / {e3:?}"
        );
    }

    #[test]
    fn section_2e_facts_solve_the_system() {
        // Applying the facts learnt by XL/ElimLin/SAT in Section II-E to the
        // original system (1) must produce the solved form (2).
        let mut s = system(
            "x1*x2 + x3 + x4 + 1;
             x1*x2*x3 + x1 + x3 + 1;
             x1*x3 + x3*x4*x5 + x3;
             x2*x3 + x3*x5 + 1;
             x2*x3 + x5 + 1;
             x2*x3*x4 + 1;
             x1*x3*x4 + 1;
             x1 + x5 + 1;
             x1 + x4;
             x3 + 1;
             x1 + x2;
             x1 + 1;",
        );
        let mut prop = AnfPropagator::new(s.num_vars());
        let outcome = prop.propagate(&mut s);
        assert!(!outcome.contradiction);
        assert_eq!(prop.value(1), Some(true));
        assert_eq!(prop.value(2), Some(true));
        assert_eq!(prop.value(3), Some(true));
        assert_eq!(prop.value(4), Some(true));
        assert_eq!(prop.value(5), Some(false));
        assert!(s.is_empty(), "system (2) is fully determined");
    }

    #[test]
    fn apply_to_polynomial_uses_equivalences() {
        let mut prop = AnfPropagator::new(4);
        prop.equate(0, 1, true); // x0 = ¬x1
        prop.assign(2, true);
        let p: Polynomial = "x0*x2 + x1".parse().expect("parses");
        // x0*x2 -> (x1+1)*1 = x1 + 1; plus x1 -> 1.
        assert_eq!(prop.apply_to_polynomial(&p), Polynomial::one());
    }

    #[test]
    fn assign_conflicts_set_contradiction_flag() {
        let mut prop = AnfPropagator::new(2);
        assert!(prop.assign(0, true));
        assert!(!prop.assign(0, false));
        assert!(prop.has_contradiction());
    }

    #[test]
    fn num_assigned_counts_through_equivalences() {
        let mut prop = AnfPropagator::new(3);
        prop.equate(0, 1, false);
        assert_eq!(prop.num_assigned(), 0);
        prop.assign(1, true);
        assert_eq!(prop.num_assigned(), 2, "x0 inherits x1's value");
    }

    #[test]
    fn fixpoint_propagation_reports_no_system_change() {
        let mut s = system("x0 + 1; x0*x1 + x2;");
        let mut prop = AnfPropagator::new(s.num_vars());
        let first = prop.propagate(&mut s);
        assert!(first.system_changed);
        // A second run over the already-propagated system is a no-op.
        let second = prop.propagate(&mut s);
        assert!(!second.system_changed);
        assert_eq!(second.new_assignments, 0);
        assert_eq!(second.new_equivalences, 0);
    }
}
