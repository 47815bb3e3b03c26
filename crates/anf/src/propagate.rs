//! ANF propagation (Section II-A of the paper).
//!
//! For each variable the propagator tracks a value (0, 1 or undetermined) and
//! an equivalence literal. A reduced polynomial of one of three shapes yields
//! facts:
//!
//! * `x` or `x ⊕ 1` assigns a constant to `x`;
//! * `x ⊕ y` and `x ⊕ y ⊕ 1` record the equivalences `x = y` and `x = ¬y`;
//! * a product of literals plus one, `(x_1 ⊕ a_1)·…·(x_k ⊕ a_k) ⊕ 1` with
//!   k ≥ 2, forces every `x_i = ¬a_i`. With every `a_i = 0` this is the
//!   paper's all-ones rule `x_{i1}·…·x_{ip} ⊕ 1`.
//!
//! Assignments are substituted into the system and the process repeats until
//! a fixed point is reached. Equivalence classes are kept as links from the
//! larger to the smaller variable index, so each class is represented by its
//! smallest variable, and values sit on those representatives.
//!
//! The fixed point does not depend on the order rows are visited in, because
//! the three shapes are closed under substitution: putting a constant or a
//! literal into a row of one of them gives a row of one of them, `0` or the
//! contradiction `1` (a factor that becomes 1 drops out, one that becomes 0
//! zeroes the product, and two factors over the same variable collapse or
//! cancel). So a row that yields a fact keeps yielding it, or its facts are
//! already known, whatever is learnt first, and every visiting order ends
//! with the same resolved knowledge and the same reduced rows. The all-ones
//! rule alone is not closed: after `x1 = ¬x0` the fact `x1*x2 + 1` reads
//! `x0*x2 + x2 + 1`, which only the product rule sees as `x0 = 0, x2 = 1`.
//!
//! [`AnfPropagator`] holds the knowledge; applying it to a system is the job
//! of the worklist in `worklist.rs`, which revisits only the rows a new fact
//! can change (through occurrence lists). Whole-system sweeps survive as the
//! test oracle `AnfPropagator::propagate_by_sweeps`.
//!
//! The propagator lives next to [`PolynomialSystem`] (rather than in the
//! engine crate) because together they form the shared problem
//! representation every learning technique reads: see
//! [`AnfDatabase`](crate::AnfDatabase).

use crate::polynomial::Image;
use crate::worklist::RowIndex;
use crate::{Monomial, Polynomial, PolynomialSystem, TermScratch, Var};

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
    /// (zero polynomials are dropped, later duplicates removed). The rows
    /// and the resolved knowledge at the fixed point do not depend on the
    /// order of the rows. On a contradiction the rows stay as rewritten so
    /// far.
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
        // Product of literals plus one: every literal is forced to 1.
        if let Some(forced) = forced_by_literal_product(poly) {
            let mut any = false;
            for (v, value) in forced {
                if self.value(v) != Some(value) {
                    self.assign(v, value);
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

/// The values forced by `poly = 0` when `poly ⊕ 1` is a product of literals
/// `(x_1 ⊕ a_1)·…·(x_k ⊕ a_k)` over k ≥ 2 distinct variables: every
/// `x_i = ¬a_i`, in the order of the variables. `None` for any other
/// polynomial.
///
/// The expansion of the product has one term per set of variables that
/// holds every `x_i` with `a_i = 0`, `2^#{a_i = 1}` terms in all, and its
/// largest one is `x_1·…·x_k`. So the largest term of `poly` names the
/// variables, `a_i` says whether that term without `x_i` is a term of
/// `poly`, and the constant 1 of the product cancels exactly when every
/// `a_i = 1`. The term count is checked first, in O(1), because propagation
/// asks this of every row it visits.
fn forced_by_literal_product(poly: &Polynomial) -> Option<Vec<(Var, bool)>> {
    let terms = poly.monomials();
    let top = terms.last()?;
    let constant = poly.has_constant_term();
    let product_terms = if constant {
        terms.len() - 1
    } else {
        terms.len() + 1
    };
    if top.degree() < 2 || !product_terms.is_power_of_two() {
        return None;
    }
    // (x_i, ¬a_i) for every variable of the top term.
    let forced: Vec<(Var, bool)> = top
        .vars()
        .iter()
        .map(|&v| (v, !poly.contains_monomial(&top.without(v))))
        .collect();
    let negated = forced.iter().filter(|&&(_, value)| !value).count();
    if product_terms.trailing_zeros() as usize != negated || constant == (negated == forced.len()) {
        return None;
    }
    // The count matches, so the terms are all the sets between the
    // variables forced to 1 and the top term exactly when each lies there.
    let ones = Monomial::from_vars(forced.iter().filter(|f| f.1).map(|f| f.0));
    terms
        .iter()
        .filter(|m| !m.is_one())
        .all(|m| ones.divides(m) && m.divides(top))
        .then_some(forced)
}

/// The shapes of learnt fact a pass keeps: linear equations and
/// `x_{i1}·…·x_{ip} ⊕ 1` (the two fact shapes of Section II), plus the
/// contradiction `1`, which lets the engine conclude UNSAT. Every pass's
/// facts go through this filter before they are committed, and XL reads
/// back only rows of these shapes.
///
/// It is narrower than propagation's product-of-literals rule on purpose:
/// XL recognises retainable rows of its eliminated matrix by their column
/// pattern (every term linear, or one term plus the constant column), which
/// sees only these shapes. Widening the filter means widening that
/// read-back too.
pub fn is_retainable_fact(p: &Polynomial) -> bool {
    !p.is_zero() && (p.is_linear() || p.as_monomial_plus_one().is_some())
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
    fn every_product_of_literals_plus_one_forces_its_literals() {
        let vars: [Var; 4] = [1, 3, 4, 7];
        for k in 2..=4 {
            for signs in 0u32..(1 << k) {
                // (x_{v_i} ⊕ a_i) over the first k variables, a_i = bit i.
                let negated = |i: usize| signs >> i & 1 == 1;
                let mut p = Polynomial::one();
                for (i, &v) in vars[..k].iter().enumerate() {
                    p = &p * &(Polynomial::variable(v) + Polynomial::constant(negated(i)));
                }
                p += &Polynomial::one();
                let expected: Vec<(Var, bool)> = (0..k).map(|i| (vars[i], !negated(i))).collect();
                assert_eq!(forced_by_literal_product(&p), Some(expected.clone()), "{p}");
                let mut s = PolynomialSystem::from_polynomials([p.clone()]);
                let mut prop = AnfPropagator::new(s.num_vars());
                prop.propagate(&mut s);
                assert!(s.is_empty(), "{p}");
                for (v, value) in expected {
                    assert_eq!(prop.value(v), Some(value), "{p}: x{v}");
                }
            }
        }
    }

    #[test]
    fn a_product_of_negated_literals_forces_zeros() {
        // x0*x1 + x0 + x1 = (x0 ⊕ 1)(x1 ⊕ 1) ⊕ 1: both are 0.
        let mut s = system("x0*x1 + x0 + x1;");
        let mut prop = AnfPropagator::new(s.num_vars());
        let outcome = prop.propagate(&mut s);
        assert_eq!(outcome.new_assignments, 2);
        assert_eq!(prop.value(0), Some(false));
        assert_eq!(prop.value(1), Some(false));
        assert!(s.is_empty());
    }

    #[test]
    fn other_shapes_are_not_products_of_literals() {
        for text in [
            "x0*x1 + x1*x2 + 1",
            "x0*x1 + x2 + 1",
            "x0*x1 + x2",
            "x0*x1",
            "x0 + 1",
            "x0 + x1 + 1",
            // Right count and top term, but the constant does not cancel.
            "x0*x1*x2 + x0*x2 + x1*x2",
            // Right count, signs and constant, but x3 is not under the top.
            "x0*x1*x2 + x0*x1 + x0*x2 + x1*x2 + x0 + x1 + x3",
        ] {
            let p: Polynomial = text.parse().expect("parses");
            assert_eq!(forced_by_literal_product(&p), None, "{text}");
        }
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
    fn values_resolve_through_equivalences() {
        let mut prop = AnfPropagator::new(3);
        prop.equate(0, 1, false);
        assert_eq!(prop.value(0), None);
        prop.assign(1, true);
        assert_eq!(prop.value(0), Some(true), "x0 inherits x1's value");
        assert_eq!(prop.value(2), None);
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
