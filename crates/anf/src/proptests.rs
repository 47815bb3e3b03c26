//! Property-based tests for the Boolean polynomial ring.

use proptest::prelude::*;

use crate::naive::{NaiveMonomial, NaivePolynomial};
use crate::{AnfDatabase, AnfPropagator, Assignment, Monomial, Polynomial, PolynomialSystem, Var};

const MAX_VARS: u32 = 6;

fn arb_monomial() -> impl Strategy<Value = Monomial> {
    proptest::collection::vec(0..MAX_VARS, 0..4).prop_map(Monomial::from_vars)
}

fn arb_polynomial() -> impl Strategy<Value = Polynomial> {
    proptest::collection::vec(arb_monomial(), 0..6).prop_map(Polynomial::from_monomials)
}

fn arb_assignment() -> impl Strategy<Value = Assignment> {
    proptest::collection::vec(any::<bool>(), MAX_VARS as usize).prop_map(Assignment::from_bits)
}

/// Monomials straddling the inline/spill boundary: degree up to 6 over a
/// wide variable space, so products and substitutions cross
/// `Monomial::INLINE_DEGREE` in both directions.
fn arb_boundary_monomial() -> impl Strategy<Value = Monomial> {
    proptest::collection::vec(0..64u32, 0..7).prop_map(Monomial::from_vars)
}

fn arb_boundary_polynomial() -> impl Strategy<Value = Polynomial> {
    proptest::collection::vec(arb_boundary_monomial(), 0..8).prop_map(Polynomial::from_monomials)
}

/// A monomial of exactly `degree` distinct variables (offset keeps the
/// choice of variables varied).
fn arb_exact_degree(degree: usize) -> impl Strategy<Value = Monomial> {
    (0..32u32)
        .prop_map(move |offset| Monomial::from_vars((0..degree as u32).map(|i| offset + 2 * i)))
}

/// A row biased towards the shapes propagation reads: a variable, a pair
/// of variables, a single monomial (an all-ones fact with the constant),
/// or an arbitrary polynomial; each with or without the constant 1.
fn arb_propagation_row() -> impl Strategy<Value = Polynomial> {
    (
        (0..5u8, 0..MAX_VARS, 0..MAX_VARS, any::<bool>()),
        arb_monomial(),
        arb_polynomial(),
    )
        .prop_map(|((shape, a, b, constant), m, p)| {
            let mut row = match shape {
                0 => Polynomial::variable(a),
                1 => Polynomial::variable(a) + Polynomial::variable(b),
                2 => Polynomial::from_monomial(m),
                _ => p,
            };
            if constant {
                row += &Polynomial::one();
            }
            row
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Addition (XOR) forms an abelian group with every element self-inverse.
    #[test]
    fn addition_group_laws(a in arb_polynomial(), b in arb_polynomial(), c in arb_polynomial()) {
        prop_assert_eq!(a.clone() + b.clone(), b.clone() + a.clone());
        prop_assert_eq!((a.clone() + b.clone()) + c.clone(), a.clone() + (b.clone() + c.clone()));
        prop_assert_eq!(a.clone() + Polynomial::zero(), a.clone());
        prop_assert!((a.clone() + a.clone()).is_zero());
    }

    /// Multiplication is commutative, associative, idempotent, and
    /// distributes over addition — the Boolean ring axioms.
    #[test]
    fn boolean_ring_laws(a in arb_polynomial(), b in arb_polynomial(), c in arb_polynomial()) {
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        prop_assert_eq!(&a * &a, a.clone(), "idempotence p*p = p");
        prop_assert_eq!(&a * &Polynomial::one(), a.clone());
        prop_assert!((&a * &Polynomial::zero()).is_zero());
        let lhs = &a * &(b.clone() + c.clone());
        let rhs = (&a * &b) + (&a * &c);
        prop_assert_eq!(lhs, rhs, "distributivity");
    }

    /// Evaluation is a ring homomorphism to GF(2): it commutes with + and *.
    #[test]
    fn evaluation_is_homomorphism(a in arb_polynomial(), b in arb_polynomial(), assignment in arb_assignment()) {
        let value = |v: Var| assignment.get(v);
        let sum = a.clone() + b.clone();
        prop_assert_eq!(sum.evaluate(value), a.evaluate(value) ^ b.evaluate(value));
        let product = &a * &b;
        prop_assert_eq!(product.evaluate(value), a.evaluate(value) & b.evaluate(value));
    }

    /// Substituting a constant agrees with evaluating with that constant.
    #[test]
    fn substitute_const_agrees_with_evaluation(
        p in arb_polynomial(),
        v in 0..MAX_VARS,
        value in any::<bool>(),
        assignment in arb_assignment(),
    ) {
        let substituted = p.substitute_const(v, value);
        prop_assert!(!substituted.contains_var(v));
        let patched = |w: Var| if w == v { value } else { assignment.get(w) };
        prop_assert_eq!(substituted.evaluate(patched), p.evaluate(patched));
    }

    /// Substituting a polynomial for a variable is semantically the same as
    /// evaluating the replacement first.
    #[test]
    fn substitute_poly_is_semantic(
        p in arb_polynomial(),
        r in arb_polynomial(),
        v in 0..MAX_VARS,
        assignment in arb_assignment(),
    ) {
        // Single-pass substitution only has the intended semantics when the
        // replacement does not itself mention the eliminated variable, which
        // is exactly how ElimLin uses it (v is solved for and removed).
        prop_assume!(!r.contains_var(v));
        let substituted = p.substitute_poly(v, &r);
        let r_value = r.evaluate(|w| assignment.get(w));
        let patched = |w: Var| if w == v { r_value } else { assignment.get(w) };
        prop_assert!(!substituted.contains_var(v));
        prop_assert_eq!(substituted.evaluate(|w| assignment.get(w)), p.evaluate(patched));
    }

    /// Display/parse round-trips preserve the polynomial exactly.
    #[test]
    fn display_parse_roundtrip(p in arb_polynomial()) {
        let text = p.to_string();
        let reparsed: Polynomial = text.parse().expect("printed polynomial must reparse");
        prop_assert_eq!(reparsed, p);
    }

    /// System display/parse round-trips preserve every equation.
    #[test]
    fn system_roundtrip(polys in proptest::collection::vec(arb_polynomial(), 0..5)) {
        let system = PolynomialSystem::from_polynomials(polys.clone());
        let reparsed = PolynomialSystem::parse(&system.to_string()).expect("reparses");
        // Zero polynomials print as "0" and reparse as zero, so compare
        // filtered content.
        let original: Vec<&Polynomial> = system.polynomials().iter().collect();
        let roundtripped: Vec<&Polynomial> = reparsed.polynomials().iter().collect();
        prop_assert_eq!(original, roundtripped);
    }

    /// Monomial divisibility is consistent with the quotient.
    #[test]
    fn monomial_division_laws(a in arb_monomial(), b in arb_monomial()) {
        let product = a.mul(&b);
        prop_assert!(a.divides(&product));
        prop_assert!(b.divides(&product));
        if let Some(q) = a.divide(&product) {
            prop_assert_eq!(q.mul(&a), product);
        } else {
            prop_assert!(false, "a must divide a*b");
        }
    }

    /// The graded-lex order is total and compatible with multiplication on
    /// these small monomials.
    #[test]
    fn monomial_order_compatible_with_mul(a in arb_monomial(), b in arb_monomial(), c in arb_monomial()) {
        if a < b {
            let ac = a.mul(&c);
            let bc = b.mul(&c);
            // Multiplication by a common monomial never inverts strict order
            // into the opposite strict order (it may collapse to equality).
            prop_assert!(ac <= bc || !c.divides(&a) || !c.divides(&b));
        }
    }

    /// The production term layer is observationally identical to the seed
    /// (naive) reference model: `from_monomials` construction and `mul`.
    #[test]
    fn production_matches_naive_construction_and_mul(
        a in arb_boundary_polynomial(),
        b in arb_boundary_polynomial(),
    ) {
        let na = NaivePolynomial::from(&a);
        let nb = NaivePolynomial::from(&b);
        prop_assert_eq!(na.to_polynomial(), a.clone(), "conversion is faithful");
        prop_assert_eq!(na.mul(&nb).to_polynomial(), &a * &b);
        // Construction from the raw (duplicated) term list agrees too.
        let mut raw: Vec<Monomial> = Vec::new();
        raw.extend(a.monomials().iter().cloned());
        raw.extend(b.monomials().iter().cloned());
        raw.extend(a.monomials().iter().cloned());
        let fast = Polynomial::from_monomials(raw.clone());
        let naive = NaivePolynomial::from_monomials(
            raw.iter().map(NaiveMonomial::from)
        );
        prop_assert_eq!(naive.to_polynomial(), fast);
    }

    /// `add_assign` and the substitution family agree with the naive model.
    #[test]
    fn production_matches_naive_add_and_substitute(
        a in arb_boundary_polynomial(),
        r in arb_boundary_polynomial(),
        v in 0..64u32,
        value in any::<bool>(),
    ) {
        let na = NaivePolynomial::from(&a);
        let nr = NaivePolynomial::from(&r);
        let mut sum = a.clone();
        sum += &r;
        let mut nsum = na.clone();
        nsum.add_assign(&nr);
        prop_assert_eq!(nsum.to_polynomial(), sum);
        prop_assert_eq!(
            na.substitute_const(v, value).to_polynomial(),
            a.substitute_const(v, value)
        );
        prop_assume!(!r.contains_var(v));
        prop_assert_eq!(
            na.substitute_poly(v, &nr).to_polynomial(),
            a.substitute_poly(v, &r)
        );
    }

    /// Monomial products agree with the naive model across the inline/spill
    /// boundary, and the representation invariant holds: inline exactly for
    /// degree ≤ `Monomial::INLINE_DEGREE`.
    #[test]
    fn monomial_mul_matches_naive_and_keeps_the_inline_invariant(
        a in arb_boundary_monomial(),
        b in arb_boundary_monomial(),
    ) {
        let product = a.mul(&b);
        let naive = NaiveMonomial::from(&a).mul(&NaiveMonomial::from(&b));
        prop_assert_eq!(product.vars(), naive.vars());
        prop_assert_eq!(product.is_inline(), product.degree() <= Monomial::INLINE_DEGREE);
        prop_assert!(a.is_inline() == (a.degree() <= Monomial::INLINE_DEGREE));
    }

    /// Parse → print round-trips at the inline/spill boundary: polynomials
    /// whose terms have degree exactly N−1, N and N+1 (for inline capacity
    /// N) survive the textual format unchanged, on either side of the
    /// representation switch.
    #[test]
    fn boundary_degree_parse_print_roundtrip(
        low in arb_exact_degree(Monomial::INLINE_DEGREE - 1),
        at in arb_exact_degree(Monomial::INLINE_DEGREE),
        above in arb_exact_degree(Monomial::INLINE_DEGREE + 1),
        constant in any::<bool>(),
    ) {
        prop_assert!(low.is_inline() && at.is_inline());
        prop_assert!(!above.is_inline());
        let mut terms = vec![low, at, above];
        if constant {
            terms.push(Monomial::one());
        }
        let p = Polynomial::from_monomials(terms);
        let reparsed: Polynomial = p.to_string().parse().expect("round-trip parses");
        prop_assert_eq!(&reparsed, &p);
        // The reparsed polynomial restores the same representations.
        for m in reparsed.monomials() {
            prop_assert_eq!(m.is_inline(), m.degree() <= Monomial::INLINE_DEGREE);
        }
    }

    /// Occurrence lists cover exactly the polynomials a variable appears in.
    #[test]
    fn occurrence_lists_are_exact(polys in proptest::collection::vec(arb_polynomial(), 1..6)) {
        let system = PolynomialSystem::from_polynomials(polys);
        let occ = system.occurrence_lists();
        for (v, list) in occ.iter().enumerate() {
            for (idx, poly) in system.iter().enumerate() {
                let occurs = poly.contains_var(v as Var);
                prop_assert_eq!(occurs, list.contains(&(idx as u32)));
            }
        }
    }

    /// The worklist reaches exactly the sweeps' result: the same rows in the
    /// same order, the same knowledge (down to the equivalence links), the
    /// same contradiction flag and the same counters.
    #[test]
    fn worklist_propagation_equals_the_sweep_oracle(
        rows in proptest::collection::vec(arb_propagation_row(), 0..12),
    ) {
        let system = PolynomialSystem::from_polynomials(rows);
        let (mut fast, mut slow) = (system.clone(), system.clone());
        let mut fast_prop = AnfPropagator::new(system.num_vars());
        let mut slow_prop = fast_prop.clone();
        let fast_outcome = fast_prop.propagate(&mut fast);
        let slow_outcome = slow_prop.propagate_by_sweeps(&mut slow);
        prop_assert_eq!(&fast_outcome, &slow_outcome);
        prop_assert_eq!(fast.polynomials(), slow.polynomials());
        prop_assert_eq!(fast_prop.has_contradiction(), slow_prop.has_contradiction());
        for v in 0..MAX_VARS {
            prop_assert_eq!(fast_prop.knowledge(v), slow_prop.knowledge(v));
        }
        prop_assert_eq!(format!("{fast_prop:?}"), format!("{slow_prop:?}"));
    }

    /// Propagating the database after appending facts equals sweeping its
    /// whole system with the same knowledge, call after call, including
    /// after a contradiction.
    #[test]
    fn database_propagation_equals_sweeping_the_whole_system(
        rows in proptest::collection::vec(arb_propagation_row(), 0..10),
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_propagation_row(), 0..4),
            0..4,
        ),
    ) {
        let mut db = AnfDatabase::new(PolynomialSystem::from_polynomials(rows));
        for batch in std::iter::once(Vec::new()).chain(batches) {
            for fact in batch {
                db.push_unique(fact);
            }
            let mut system = db.system().clone();
            let mut prop = db.propagator().clone();
            let expected = prop.propagate_by_sweeps(&mut system);
            let before = db.revision();
            let outcome = db.propagate();
            prop_assert_eq!(&outcome, &expected);
            prop_assert_eq!(db.system().polynomials(), system.polynomials());
            prop_assert_eq!(format!("{:?}", db.propagator()), format!("{prop:?}"));
            let changed = outcome.system_changed
                || outcome.new_assignments > 0
                || outcome.new_equivalences > 0
                || outcome.contradiction;
            prop_assert_eq!(db.has_changed_since(before), changed);
        }
    }

    /// The ANF parser is total: arbitrary bytes (lossily decoded) produce
    /// `Ok` or a structured error, never a panic.
    #[test]
    fn anf_parser_never_panics_on_raw_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = PolynomialSystem::parse(&text);
        let _ = text.parse::<Polynomial>();
    }

    /// Totality on inputs biased towards near-valid ANF text, so the fuzz
    /// exercises the term/factor grammar instead of failing at the first
    /// byte. Anything that parses must re-print and re-parse to itself.
    #[test]
    fn anf_parser_never_panics_on_near_valid_text(
        pieces in proptest::collection::vec(
            (0..8usize, any::<u32>(), any::<bool>()),
            0..24,
        ),
    ) {
        let mut text = String::from("# fuzz\n");
        for (shape, index, big) in pieces {
            let idx = if big { index } else { index % 9 };
            match shape {
                0 => text.push_str(&format!("x{idx}")),
                1 => text.push_str(&format!("X{idx}")),
                2 => text.push('+'),
                3 => text.push('*'),
                4 => text.push(';'),
                5 => text.push('1'),
                6 => text.push('0'),
                _ => text.push(' '),
            }
        }
        if let Ok(system) = PolynomialSystem::parse(&text) {
            let reparsed = PolynomialSystem::parse(&system.to_string())
                .expect("printed ANF reparses");
            prop_assert_eq!(reparsed.len(), system.len());
        }
    }
}
