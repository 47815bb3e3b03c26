//! Conflict-bounded SAT solving (Section II-D of the paper).
//!
//! The current ANF is converted to CNF and handed to a new CDCL solver with
//! a conflict budget ([`sat_step`]), once per round. Three outcomes are
//! possible: UNSAT (the learnt fact is the contradiction `1 = 0`), SAT (a
//! satisfying assignment is stored), or undecided within the budget. Only in
//! the last case are unit and binary learnt clauses over variables with an
//! ANF meaning harvested and turned into ANF facts: a verdict ends the
//! preprocessing loop. The solver is dropped at the end of the round; the
//! next round encodes the database again and searches from scratch.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use bosphorus_anf::{Assignment, Polynomial, PolynomialSystem};
use bosphorus_cnf::Lit;
use bosphorus_interrupt::CancelToken;
use bosphorus_sat::{SolveResult, Solver, SolverConfig};

use crate::anf_to_cnf::{anf_to_cnf, CnfConversion};
use crate::BosphorusConfig;
use bosphorus_anf::AnfPropagator;

/// How the conflict-bounded SAT call ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatStepStatus {
    /// The CNF (and hence the ANF) is unsatisfiable.
    Unsatisfiable,
    /// A satisfying assignment of the converted CNF was found; the values of
    /// the original ANF variables are reported.
    Satisfiable(Assignment),
    /// The conflict budget ran out before a decision. The search is
    /// dropped; what it learnt survives only as the harvested facts.
    Undecided,
    /// The cancellation token tripped before a decision. Unlike
    /// [`SatStepStatus::Undecided`] no facts are harvested: the round's unit
    /// of committed work is the full budgeted call.
    Interrupted,
}

/// Result of one conflict-bounded SAT round: one new search, from
/// conflict 0, so its work counts (`conflicts`, `learnt_clauses`, ...) are
/// the solver's own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatStepOutcome {
    /// Termination status.
    pub status: SatStepStatus,
    /// ANF facts harvested from top-level assignments and from unit/binary
    /// learnt clauses whose variables have an ANF meaning (undecided runs
    /// only; the contradiction `1 = 0` on UNSAT).
    pub facts: Vec<Polynomial>,
    /// Conflicts spent by the solver in this round.
    pub conflicts: u64,
    /// Non-unit clauses learnt by the solver in this round (deleted ones
    /// included; the counter is monotone even across database reductions).
    pub learnt_clauses: u64,
    /// Learnt clauses deleted by database reductions in this round.
    pub removed_clauses: u64,
    /// Literals removed from conflict clauses by CCMin in this round.
    pub minimized_literals: u64,
    /// Restarts performed in this round.
    pub restarts: u64,
    /// Time spent encoding the system to CNF and building the solver,
    /// apart from the search.
    pub encode_time: Duration,
}

/// One conflict-bounded SAT round: converts `system` (with `propagator`'s
/// knowledge) to CNF, searches it with a new `solver_config` solver for at
/// most `budget` conflicts while polling `token`, and, when the budget runs
/// out undecided, harvests facts from what the search learnt (a budget of 0
/// spends no conflict, so only level-zero reasoning is harvested).
pub fn sat_step(
    system: &PolynomialSystem,
    propagator: &AnfPropagator,
    config: &BosphorusConfig,
    solver_config: &SolverConfig,
    budget: u64,
    token: &CancelToken,
) -> SatStepOutcome {
    let started = Instant::now();
    let mut conversion = anf_to_cnf(system, propagator, config);
    let mut solver = conversion.solver(solver_config);
    // The solver holds its own copy of the clauses and XORs; harvesting
    // needs only the map from CNF variables to monomials, so the rest of
    // the conversion is not kept alive next to the solver's (growing)
    // clause database.
    drop(std::mem::take(&mut conversion.cnf));
    drop(std::mem::take(&mut conversion.xors));
    let encode_time = started.elapsed();
    solver.set_conflict_budget(Some(budget));
    solver.set_cancel_token(token.clone());
    let result = solver.solve();

    let mut facts: Vec<Polynomial> = Vec::new();
    let status = match result {
        SolveResult::Unsat => {
            facts.push(Polynomial::one());
            SatStepStatus::Unsatisfiable
        }
        // A model ends the preprocessing: nothing learnt alongside it would
        // be used, so nothing is harvested.
        SolveResult::Sat => {
            let model = solver.model().expect("SAT implies a model");
            let assignment = Assignment::from_bits(
                (0..system.num_vars()).map(|v| model.get(v).copied().unwrap_or(false)),
            );
            SatStepStatus::Satisfiable(assignment)
        }
        // The solver reports Unknown for both budget exhaustion and
        // cancellation; the token distinguishes them.
        SolveResult::Unknown if token.is_cancelled() => SatStepStatus::Interrupted,
        SolveResult::Unknown => {
            harvest_facts(&mut facts, &solver, &conversion);
            SatStepStatus::Undecided
        }
    };
    let stats = solver.stats();
    SatStepOutcome {
        status,
        facts,
        conflicts: stats.conflicts,
        // `learnt_clauses` alone is a gauge (reductions decrement it);
        // adding the removed counter back makes the count monotone.
        learnt_clauses: stats.learnt_clauses + stats.removed_clauses,
        removed_clauses: stats.removed_clauses,
        minimized_literals: stats.minimized_literals,
        restarts: stats.restarts,
        encode_time,
    }
}

/// Extracts ANF facts from the solver state: every top-level assignment of a
/// variable with an ANF meaning becomes a value fact, and complementary
/// pairs of binary learnt clauses become (linear or monomial) equations.
///
/// The harvest is returned in graded-lex order of the fact polynomials, not
/// in trail or clause-database order. The sort keeps the committed fact
/// stream byte-identical to earlier releases (pinned by the golden test in
/// `tests/pipeline.rs`), and it makes the stream independent of the order in
/// which the solver happened to reach its conclusions.
fn harvest_facts(facts: &mut Vec<Polynomial>, solver: &Solver, conversion: &CnfConversion) {
    // Unit facts from decision-level-zero assignments (this subsumes the
    // learnt unit clauses).
    for lit in solver.top_level_assignments() {
        if let Some(fact) = conversion.literal_fact(lit) {
            if !facts.contains(&fact) {
                facts.push(fact);
            }
        }
    }
    // Binary learnt clauses: (a ∨ b) together with (¬a ∨ ¬b) yields
    // A ⊕ B ⊕ 1 = 0; (a ∨ ¬b) with (¬a ∨ b) yields A ⊕ B = 0, where A and B
    // are the ANF monomials of the two CNF variables.
    let binaries: BTreeSet<(Lit, Lit)> = solver
        .learnt_binaries()
        .into_iter()
        .map(|[a, b]| if a <= b { (a, b) } else { (b, a) })
        .collect();
    for &(a, b) in &binaries {
        let complement = {
            let (na, nb) = (!a, !b);
            if na <= nb {
                (na, nb)
            } else {
                (nb, na)
            }
        };
        if !binaries.contains(&complement) || a.var() == b.var() {
            continue;
        }
        let (Some(ma), Some(mb)) = (conversion.monomial(a.var()), conversion.monomial(b.var()))
        else {
            continue;
        };
        // (a ∨ b) ∧ (¬a ∨ ¬b): exactly one of the two literals holds, i.e.
        // value(a.var) ⊕ value(b.var) = 1 ⊕ a.neg ⊕ b.neg.
        let constant = !(a.is_negative() ^ b.is_negative());
        let mut fact = Polynomial::from_monomial(ma.clone());
        fact += &Polynomial::from_monomial(mb.clone());
        if constant {
            fact += &Polynomial::one();
        }
        if !fact.is_zero() && !facts.contains(&fact) {
            facts.push(fact);
        }
    }
    facts.sort_by(|a, b| a.monomials().cmp(b.monomials()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(text: &str, budget: u64) -> (PolynomialSystem, SatStepOutcome) {
        let system = PolynomialSystem::parse(text).expect("test system parses");
        let propagator = AnfPropagator::new(system.num_vars());
        let outcome = sat_step(
            &system,
            &propagator,
            &BosphorusConfig::default(),
            &SolverConfig::aggressive(),
            budget,
            &CancelToken::never(),
        );
        (system, outcome)
    }

    #[test]
    fn satisfiable_system_returns_model_over_anf_vars() {
        let (system, outcome) = run(
            "x1*x2 + x3 + x4 + 1;
             x1*x2*x3 + x1 + x3 + 1;
             x1*x3 + x3*x4*x5 + x3;
             x2*x3 + x3*x5 + 1;
             x2*x3 + x5 + 1;",
            10_000,
        );
        match outcome.status {
            SatStepStatus::Satisfiable(assignment) => {
                assert!(system.is_satisfied_by(&assignment));
                assert!(assignment.get(1) && assignment.get(2) && !assignment.get(5));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn unsatisfiable_system_learns_the_contradiction() {
        let (_, outcome) = run("x0 + 1; x0; x1*x2 + x1;", 10_000);
        assert_eq!(outcome.status, SatStepStatus::Unsatisfiable);
        assert!(outcome.facts.contains(&Polynomial::one()));
    }

    #[test]
    fn harvested_facts_are_consequences() {
        // Three conflicts leave this system undecided; the fourth equation
        // alone forces x7 = 1.
        let (system, outcome) = run(
            "x6*x7 + x2*x12 + x1*x11 + x7 + x0 + 1;
             x2*x5 + x5*x12 + x8 + x12;
             x0*x3 + x4*x8 + x9*x11 + x7 + x4;
             x4*x7 + x7*x8 + 1;
             x0*x5 + x0*x6 + x0*x2 + x4 + x12;
             x1*x10 + x5*x6 + x7*x9 + x13 + x11;
             x6*x9 + x7*x9 + x4*x12 + x9 + x6;
             x0*x3 + x2*x7 + x1 + x8;
             x6*x13 + x7*x13 + x1 + x6 + 1;
             x5*x6 + x1*x7 + x10 + x9;",
            3,
        );
        assert_eq!(outcome.status, SatStepStatus::Undecided);
        assert!(
            outcome.facts.contains(&"x7 + 1".parse().expect("parses")),
            "harvest: {:?}",
            outcome.facts
        );
        let n = system.num_vars();
        for bits in 0u64..(1 << n) {
            let assign: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            if system.iter().all(|p| !p.evaluate(|v| assign[v as usize])) {
                for fact in &outcome.facts {
                    assert!(
                        !fact.evaluate(|v| assign[v as usize]),
                        "fact {fact} violated by an ANF solution"
                    );
                }
            }
        }
    }

    #[test]
    fn a_model_comes_without_harvested_facts() {
        let (_, outcome) = run(
            "x1*x2 + x3 + x4 + 1;
             x1*x2*x3 + x1 + x3 + 1;
             x1*x3 + x3*x4*x5 + x3;
             x2*x3 + x3*x5 + 1;
             x2*x3 + x5 + 1;",
            10_000,
        );
        assert!(matches!(outcome.status, SatStepStatus::Satisfiable(_)));
        assert!(outcome.facts.is_empty());
    }

    #[test]
    fn zero_budget_reports_progress_only() {
        // With essentially no budget the solver may still finish instances it
        // can decide by propagation alone, but must never mislabel them.
        let (system, outcome) = run("x0 + x1; x1 + 1;", 1);
        match outcome.status {
            SatStepStatus::Satisfiable(a) => assert!(system.is_satisfied_by(&a)),
            SatStepStatus::Undecided => {}
            SatStepStatus::Unsatisfiable => panic!("system is satisfiable"),
            SatStepStatus::Interrupted => panic!("no cancel token was set"),
        }
    }

    #[test]
    fn xor_reasoning_configuration_accepts_native_xors() {
        let system =
            PolynomialSystem::parse("x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + 1;")
                .expect("parses");
        let propagator = AnfPropagator::new(system.num_vars());
        let outcome = sat_step(
            &system,
            &propagator,
            &BosphorusConfig::default(),
            &SolverConfig::xor_gauss(),
            10_000,
            &CancelToken::never(),
        );
        match outcome.status {
            SatStepStatus::Satisfiable(a) => assert!(system.is_satisfied_by(&a)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }
}
