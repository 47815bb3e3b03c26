//! Buchberger's algorithm with a work budget.

use std::collections::VecDeque;

use bosphorus_anf::{is_retainable_fact, Monomial, Polynomial, PolynomialSystem, Var};
use bosphorus_interrupt::CancelToken;

use crate::normal_form;

/// How many critical-pair iterations elapse between cancel-token polls in
/// [`groebner_basis_cancellable`]. Most iterations run a full normal-form
/// reduction, so a small window keeps deadline response tight at no
/// measurable cost.
const GROEBNER_CHECK_INTERVAL: u64 = 64;

/// Budget and bounds for [`groebner_basis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroebnerConfig {
    /// Maximum number of S-polynomial reductions before giving up.
    pub max_reductions: usize,
    /// Maximum number of polynomials kept in the basis before giving up.
    pub max_basis_size: usize,
    /// S-polynomials whose degree exceeds this bound are skipped (a degree
    /// truncation in the style of degree-bounded Gröbner computations).
    /// `usize::MAX` disables the bound.
    pub max_degree: usize,
}

impl Default for GroebnerConfig {
    fn default() -> Self {
        GroebnerConfig {
            max_reductions: 50_000,
            max_basis_size: 2_000,
            max_degree: usize::MAX,
        }
    }
}

#[cfg(test)]
impl GroebnerConfig {
    /// A deliberately small budget, for tests that must finish quickly on
    /// random systems.
    pub(crate) fn tight_budget() -> Self {
        GroebnerConfig {
            max_reductions: 2_000,
            max_basis_size: 200,
            max_degree: usize::MAX,
        }
    }
}

/// How a [`groebner_basis`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroebnerOutcome {
    /// All critical pairs were processed; the returned basis is a Gröbner
    /// basis of the ideal (plus the field equations).
    Complete,
    /// The constant polynomial `1` entered the basis: the system has no
    /// solution.
    Inconsistent,
    /// The work budget was exhausted before completion.
    BudgetExhausted,
    /// A cancellation token tripped before completion. Like
    /// [`GroebnerOutcome::BudgetExhausted`], the returned basis is a
    /// partial generating set whose every element lies in the ideal.
    Interrupted,
}

/// Result of a Gröbner-basis computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroebnerResult {
    /// How the computation ended.
    pub outcome: GroebnerOutcome,
    /// The (possibly partial) reduced generating set at termination.
    pub basis: Vec<Polynomial>,
    /// Number of S-polynomial reductions performed.
    pub reductions: usize,
}

impl GroebnerResult {
    /// Returns `true` if the computation proved the system unsatisfiable.
    pub fn is_inconsistent(&self) -> bool {
        self.outcome == GroebnerOutcome::Inconsistent
    }

    /// Extracts the basis elements that have one of the learnt-fact shapes
    /// Bosphorus feeds back into its master ANF copy ([`is_retainable_fact`]):
    /// linear polynomials and `monomial ⊕ 1` facts. Every element of the (possibly partial) basis
    /// lies in the ideal generated by the input system and the field
    /// equations, so each returned polynomial vanishes on every solution of
    /// the input — they are sound learnt facts even when the budget ran out.
    ///
    /// When the computation proved inconsistency, the single fact `1` (the
    /// contradiction `1 = 0`) is returned.
    pub fn learnt_facts(&self) -> Vec<Polynomial> {
        if self.is_inconsistent() {
            return vec![Polynomial::one()];
        }
        self.basis
            .iter()
            .filter(|p| is_retainable_fact(p))
            .cloned()
            .collect()
    }
}

/// One entry in the critical-pair queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pair {
    /// Classic S-polynomial between basis elements `i` and `j`.
    Basis(usize, usize),
    /// Field pair `(x_v + 1) · f_i`, needed because the Boolean ring has zero
    /// divisors.
    Field(usize, Var),
}

/// Computes a Gröbner basis of the ideal generated by `system` (together with
/// the implicit field equations) under the given budget.
///
/// The computation is performed entirely in the quotient ring, i.e. all
/// products are idempotent (`x² = x`), matching the representation used by
/// [`bosphorus_anf`].
pub fn groebner_basis(system: &PolynomialSystem, config: &GroebnerConfig) -> GroebnerResult {
    groebner_basis_cancellable(system, config, &CancelToken::never())
}

/// Like [`groebner_basis`], polling `token` every few critical pairs (and
/// between interreduction rounds).
///
/// On cancellation the computation stops with
/// [`GroebnerOutcome::Interrupted`] and the partial basis accumulated so
/// far — every element lies in the ideal, so the basis is sound, merely
/// incomplete (same contract as budget exhaustion).
pub fn groebner_basis_cancellable(
    system: &PolynomialSystem,
    config: &GroebnerConfig,
    token: &CancelToken,
) -> GroebnerResult {
    let mut basis: Vec<Polynomial> = Vec::new();
    let mut queue: VecDeque<Pair> = VecDeque::new();
    let mut reductions = 0usize;
    let mut checkpoint = token.checkpoint_every(GROEBNER_CHECK_INTERVAL);

    // Seed the basis with the interreduced input. Each iteration runs a
    // full normal-form reduction, so the poll is unamortised here.
    for p in system.iter() {
        if checkpoint.check_now() {
            return GroebnerResult {
                outcome: GroebnerOutcome::Interrupted,
                basis,
                reductions,
            };
        }
        let reduced = normal_form(p, &basis);
        if reduced.is_one() {
            return GroebnerResult {
                outcome: GroebnerOutcome::Inconsistent,
                basis: vec![Polynomial::one()],
                reductions,
            };
        }
        if !reduced.is_zero() {
            push_generator(&mut basis, &mut queue, reduced);
        }
    }

    while let Some(pair) = queue.pop_front() {
        if checkpoint.check() {
            return GroebnerResult {
                outcome: GroebnerOutcome::Interrupted,
                basis,
                reductions,
            };
        }
        if reductions >= config.max_reductions || basis.len() >= config.max_basis_size {
            return GroebnerResult {
                outcome: GroebnerOutcome::BudgetExhausted,
                basis,
                reductions,
            };
        }
        let candidate = match pair {
            Pair::Basis(i, j) => {
                let (f, g) = (&basis[i], &basis[j]);
                if f.is_zero() || g.is_zero() {
                    continue;
                }
                let lf = f.leading_monomial().expect("non-zero").clone();
                let lg = g.leading_monomial().expect("non-zero").clone();
                // Note: Buchberger's coprimality criterion is *not* applied —
                // it is unsound in the Boolean quotient ring, where even
                // coprime leading monomials can interact through the field
                // equations.
                let lcm = lf.lcm(&lg);
                if lcm.degree() > config.max_degree {
                    continue;
                }
                let cf = lf.divide(&lcm).expect("lf divides the lcm");
                let cg = lg.divide(&lcm).expect("lg divides the lcm");
                let mut s = f.mul_monomial(&cf);
                s += &g.mul_monomial(&cg);
                s
            }
            Pair::Field(i, v) => {
                let f = &basis[i];
                if f.is_zero() {
                    continue;
                }
                // (x_v + 1) * f  — the annihilator of x_v kills the leading
                // term, exposing consequences plain S-pairs miss.
                let mut annihilator = Polynomial::variable(v);
                annihilator += &Polynomial::one();
                f.mul(&annihilator)
            }
        };
        reductions += 1;
        let reduced = normal_form(&candidate, &basis);
        if reduced.is_zero() {
            continue;
        }
        if reduced.is_one() {
            return GroebnerResult {
                outcome: GroebnerOutcome::Inconsistent,
                basis: vec![Polynomial::one()],
                reductions,
            };
        }
        if reduced.degree() > config.max_degree {
            continue;
        }
        push_generator(&mut basis, &mut queue, reduced);
    }

    // Final interreduction for a tidy basis. A token tripping mid-way
    // demotes the outcome: the basis generates the ideal either way, but
    // only a fully interreduced basis matches what an uninterrupted run
    // would have returned.
    let (basis, interreduce_interrupted) = interreduce(basis, token);
    GroebnerResult {
        outcome: if interreduce_interrupted {
            GroebnerOutcome::Interrupted
        } else {
            GroebnerOutcome::Complete
        },
        basis,
        reductions,
    }
}

fn push_generator(basis: &mut Vec<Polynomial>, queue: &mut VecDeque<Pair>, p: Polynomial) {
    let idx = basis.len();
    let leading: Monomial = p
        .leading_monomial()
        .expect("generators are non-zero")
        .clone();
    for i in 0..idx {
        queue.push_back(Pair::Basis(i, idx));
    }
    for &v in leading.vars() {
        queue.push_back(Pair::Field(idx, v));
    }
    basis.push(p);
}

/// Reduces every basis element against the others, dropping zeros. Polls
/// `token` once per round; the second return value reports whether the
/// interreduction was cut short.
fn interreduce(mut basis: Vec<Polynomial>, token: &CancelToken) -> (Vec<Polynomial>, bool) {
    let mut interrupted = false;
    loop {
        if token.is_cancelled() {
            interrupted = true;
            break;
        }
        let mut changed = false;
        for i in 0..basis.len() {
            let others: Vec<Polynomial> = basis
                .iter()
                .enumerate()
                .filter(|&(j, p)| j != i && !p.is_zero())
                .map(|(_, p)| p.clone())
                .collect();
            let reduced = normal_form(&basis[i], &others);
            if reduced != basis[i] {
                basis[i] = reduced;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    basis.retain(|p| !p.is_zero());
    basis.sort_by(|a, b| a.monomials().cmp(b.monomials()));
    basis.dedup();
    (basis, interrupted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(s: &str) -> PolynomialSystem {
        PolynomialSystem::parse(s).expect("test system parses")
    }

    #[test]
    fn consistent_linear_system_is_complete() {
        let result = groebner_basis(&system("x0 + x1; x1 + 1;"), &GroebnerConfig::default());
        assert_eq!(result.outcome, GroebnerOutcome::Complete);
        // The reduced basis pins both variables to 1.
        assert!(result.basis.contains(&"x1 + 1".parse().expect("parses")));
        assert!(result.basis.contains(&"x0 + 1".parse().expect("parses")));
    }

    #[test]
    fn inconsistent_system_detected() {
        // x0 = 0 and x0 = 1.
        let result = groebner_basis(&system("x0; x0 + 1;"), &GroebnerConfig::default());
        assert_eq!(result.outcome, GroebnerOutcome::Inconsistent);
        assert!(result.is_inconsistent());
    }

    #[test]
    fn table1_system_forces_unique_solution() {
        // {x1x2 + x1 + 1, x2x3 + x3} has the unique solution x1=1, x2=0, x3=0.
        let result = groebner_basis(
            &system("x1*x2 + x1 + 1; x2*x3 + x3;"),
            &GroebnerConfig::default(),
        );
        assert_eq!(result.outcome, GroebnerOutcome::Complete);
        assert!(result.basis.contains(&"x1 + 1".parse().expect("parses")));
        assert!(result.basis.contains(&"x2".parse().expect("parses")));
        assert!(result.basis.contains(&"x3".parse().expect("parses")));
    }

    #[test]
    fn nonlinear_contradiction_needs_field_pairs() {
        // x0*x1 + 1 forces x0 = x1 = 1; combined with x0 + x1 + 1 (exactly
        // one of them) the system is unsatisfiable. Detecting this requires
        // the Boolean-ring field pairs.
        let result = groebner_basis(
            &system("x0*x1 + 1; x0 + x1 + 1;"),
            &GroebnerConfig::default(),
        );
        assert_eq!(result.outcome, GroebnerOutcome::Inconsistent);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // A random-looking quadratic system with a one-reduction budget.
        let config = GroebnerConfig {
            max_reductions: 1,
            max_basis_size: 2,
            max_degree: usize::MAX,
        };
        let result = groebner_basis(
            &system("x0*x1 + x2; x1*x2 + x0; x0*x2 + x1 + 1; x0 + x1 + x2;"),
            &config,
        );
        assert_eq!(result.outcome, GroebnerOutcome::BudgetExhausted);
        assert!(result.reductions <= 1);
    }

    #[test]
    fn pre_cancelled_token_interrupts_with_a_sound_partial_basis() {
        let token = CancelToken::new();
        token.cancel();
        let s = system("x0*x1 + x2; x1*x2 + x0; x0*x2 + x1 + 1; x0 + x1 + x2;");
        let result = groebner_basis_cancellable(&s, &GroebnerConfig::default(), &token);
        assert_eq!(result.outcome, GroebnerOutcome::Interrupted);
        // Whatever made it into the basis is an ideal member; for a
        // pre-cancelled token that is nothing at all.
        assert!(result.basis.is_empty());
        assert_eq!(result.reductions, 0);
    }

    #[test]
    fn mid_run_cancellation_reports_interrupted() {
        // Seeding polls once per input polynomial, so tripping on the
        // third poll stops mid-seeding with two committed basis elements —
        // a deterministic mid-run interruption of a consistent system.
        let token = CancelToken::new().cancel_after_checks(3);
        let s = system("x0 + x1; x1 + x2; x2 + x3; x3*x4 + x0; x4 + 1;");
        let result = groebner_basis_cancellable(&s, &GroebnerConfig::default(), &token);
        assert_eq!(result.outcome, GroebnerOutcome::Interrupted);
        assert!(!result.basis.is_empty(), "two seeds committed before trip");
        // The partial basis elements all lie in the ideal: every solution
        // of the input must satisfy them (checked by brute force).
        let n = s.num_vars();
        for bits in 0u64..(1 << n) {
            let assign: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            if s.iter().all(|p| !p.evaluate(|v| assign[v as usize])) {
                for p in &result.basis {
                    assert!(!p.evaluate(|v| assign[v as usize]), "{p} not in the ideal");
                }
            }
        }
    }

    #[test]
    fn never_token_matches_the_plain_entry_point() {
        let s = system("x1*x2 + x1 + 1; x2*x3 + x3;");
        let plain = groebner_basis(&s, &GroebnerConfig::default());
        let cancellable =
            groebner_basis_cancellable(&s, &GroebnerConfig::default(), &CancelToken::never());
        assert_eq!(plain.outcome, cancellable.outcome);
        assert_eq!(plain.basis, cancellable.basis);
        assert_eq!(plain.reductions, cancellable.reductions);
    }

    #[test]
    fn empty_system_is_trivially_complete() {
        let result = groebner_basis(&PolynomialSystem::new(), &GroebnerConfig::default());
        assert_eq!(result.outcome, GroebnerOutcome::Complete);
        assert!(result.basis.is_empty());
    }

    #[test]
    fn tight_budget_preset_is_smaller() {
        let tight = GroebnerConfig::tight_budget();
        let default = GroebnerConfig::default();
        assert!(tight.max_reductions < default.max_reductions);
        assert!(tight.max_basis_size < default.max_basis_size);
    }

    #[test]
    fn learnt_facts_have_retainable_shapes_and_are_consequences() {
        // x0*x1 + x0 + 1 forces x0 = 1 and x1 = 0; the basis contains the
        // unit facts, and every extracted fact vanishes on every solution.
        let s = system("x0*x1 + x0 + 1; x1 + x2;");
        let result = groebner_basis(&s, &GroebnerConfig::default());
        let facts = result.learnt_facts();
        assert!(!facts.is_empty(), "unit facts should surface in the basis");
        for fact in &facts {
            assert!(
                is_retainable_fact(fact),
                "fact {fact} has a non-retainable shape"
            );
        }
        let n = s.num_vars();
        for bits in 0u64..(1 << n) {
            let assign: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            if s.iter().all(|p| !p.evaluate(|v| assign[v as usize])) {
                for fact in &facts {
                    assert!(
                        !fact.evaluate(|v| assign[v as usize]),
                        "fact {fact} violated by a solution of the input"
                    );
                }
            }
        }
    }

    #[test]
    fn learnt_facts_of_an_inconsistent_system_is_the_contradiction() {
        let result = groebner_basis(
            &system("x0*x1 + x0 + 1; x1 + 1;"),
            &GroebnerConfig::default(),
        );
        assert!(result.is_inconsistent());
        assert_eq!(result.learnt_facts(), vec![Polynomial::one()]);
    }
}
