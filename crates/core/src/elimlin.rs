//! ElimLin (Section II-C of the paper).
//!
//! ElimLin iterates three steps until a fixed point: (1) Gauss–Jordan
//! elimination on the linearisation of the system; (2) extraction of the
//! linear equations; (3) elimination of one variable per linear equation by
//! substitution (choosing the variable that occurs in the fewest remaining
//! equations). Every linear equation found along the way is a consequence of
//! the original system and is reported as a learnt fact.

use bosphorus_anf::{Polynomial, PolynomialSystem, TermScratch, Var};
use bosphorus_gf2::{GaussStats, PresolveStats};
use bosphorus_interrupt::CancelToken;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::linearize::{Linearization, SparseLinearization};
use crate::BosphorusConfig;

/// Outcome of one ElimLin round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElimLinOutcome {
    /// Learnt linear facts (including any derived in later substitution
    /// rounds), expressed over the original variables.
    pub facts: Vec<Polynomial>,
    /// Number of GJE/substitution rounds executed before the fixed point.
    pub rounds: usize,
    /// Number of variables eliminated by substitution.
    pub eliminated_vars: usize,
    /// `true` if a contradiction (`1 = 0`) was derived.
    pub contradiction: bool,
    /// Cumulative elimination-kernel operation counts across all rounds
    /// (the `rank` field is the *sum* of per-round ranks).
    pub gauss: GaussStats,
    /// Cumulative sparse-presolve reduction counts across all rounds
    /// (all-zero when [`BosphorusConfig::presolve`] is off).
    pub presolve: PresolveStats,
    /// `true` when the round worked on a strict subsample of the input
    /// system. An exhaustive round is deterministic for a given system, so
    /// the pipeline may skip re-running it while the system is unchanged.
    /// Always `false` for [`elimlin_on`], which takes its working set
    /// verbatim.
    pub subsampled: bool,
    /// `true` when the run observed cancellation and wound down early. The
    /// committed [`ElimLinOutcome::facts`] then come from fully completed
    /// GJE rounds only — a prefix of what the uninterrupted run would have
    /// learnt — so they are safe to keep.
    pub interrupted: bool,
}

/// Runs ElimLin fact learning on (a subsample of) `system`.
///
/// Like XL, ElimLin operates on a random subset of polynomials whose
/// linearised size is roughly `2^M` (see
/// [`BosphorusConfig::subsample_m`]); the substitutions are performed on a
/// local copy, so the input system is not modified.
pub fn elimlin_learn<R: Rng>(
    system: &PolynomialSystem,
    config: &BosphorusConfig,
    rng: &mut R,
) -> ElimLinOutcome {
    elimlin_learn_cancellable(system, config, rng, &CancelToken::never())
}

/// Like [`elimlin_learn`], but polls `token` between rounds, between
/// substitutions and once per elimination sweep inside the GF(2) kernel.
/// When the token trips the run returns early with
/// [`ElimLinOutcome::interrupted`] set; the reported facts come from fully
/// completed GJE rounds only.
pub fn elimlin_learn_cancellable<R: Rng>(
    system: &PolynomialSystem,
    config: &BosphorusConfig,
    rng: &mut R,
    token: &CancelToken,
) -> ElimLinOutcome {
    let budget = 1u128 << config.subsample_m.min(126);
    let mut selected: Vec<&Polynomial> = system.iter().collect();
    selected.shuffle(rng);
    let mut working: Vec<Polynomial> = Vec::new();
    let mut terms = 0u128;
    for poly in selected {
        working.push(poly.clone());
        terms += poly.len() as u128;
        if working.len() as u128 * terms >= budget {
            break;
        }
    }
    let subsampled = working.len() < system.len();
    let mut outcome = elimlin_run(working, config.threads, config.presolve, token);
    outcome.subsampled = subsampled;
    outcome
}

/// Runs ElimLin on exactly the given polynomials (no subsampling).
/// `threads` is the row-band parallelism of each round's GF(2) elimination
/// (1 = serial; the learnt facts are identical at every thread count). The
/// sparse presolve is on, as in the default engine configuration; it is
/// exact, so this is a wall-clock choice only.
pub fn elimlin_on(working: Vec<Polynomial>, threads: usize) -> ElimLinOutcome {
    elimlin_on_cancellable(working, threads, &CancelToken::never())
}

/// Like [`elimlin_on`], but cooperatively cancellable (see
/// [`elimlin_learn_cancellable`] for the checkpoint placement and the
/// completed-rounds fact guarantee).
pub fn elimlin_on_cancellable(
    working: Vec<Polynomial>,
    threads: usize,
    token: &CancelToken,
) -> ElimLinOutcome {
    elimlin_run(working, threads, true, token)
}

/// The ElimLin fixed-point loop behind every public entry point, with each
/// round's elimination routed through the sparse presolve or straight to the
/// dense kernel according to `presolve` (both commit identical facts).
fn elimlin_run(
    mut working: Vec<Polynomial>,
    threads: usize,
    presolve: bool,
    token: &CancelToken,
) -> ElimLinOutcome {
    // One scratch buffer serves every substitution of every round.
    let mut scratch = TermScratch::new();
    let mut outcome = ElimLinOutcome {
        facts: Vec::new(),
        rounds: 0,
        eliminated_vars: 0,
        contradiction: false,
        gauss: GaussStats::default(),
        presolve: PresolveStats::default(),
        subsampled: false,
        interrupted: false,
    };
    loop {
        if token.is_cancelled() {
            outcome.interrupted = true;
            return outcome;
        }
        outcome.rounds += 1;
        working.retain(|p| !p.is_zero());
        if working.iter().any(Polynomial::is_one) {
            outcome.contradiction = true;
            outcome.facts.push(Polynomial::one());
            return outcome;
        }
        // Step (1): Gauss–Jordan elimination on the linearisation, with or
        // without the sparse presolve ahead of the dense kernel.
        let (reduced, round_stats, round_presolve) = if presolve {
            SparseLinearization::build(working.iter()).eliminate_cancellable(threads, token)
        } else {
            let mut lin = Linearization::build(working.iter());
            let (reduced, stats) = lin.eliminate_cancellable(threads, token);
            (reduced, stats, PresolveStats::default())
        };
        let round_interrupted = round_stats.interrupted;
        outcome.gauss.merge(round_stats);
        outcome.presolve.merge(round_presolve);
        if round_interrupted {
            // The round's elimination was cut between sweeps: discard the
            // partial reduction so the facts stay a completed-rounds prefix.
            outcome.interrupted = true;
            return outcome;
        }
        if reduced.iter().any(Polynomial::is_one) {
            outcome.contradiction = true;
            outcome.facts.push(Polynomial::one());
            return outcome;
        }
        // Step (2): gather the linear equations.
        let (linear, mut nonlinear): (Vec<Polynomial>, Vec<Polynomial>) =
            reduced.into_iter().partition(Polynomial::is_linear);
        if linear.is_empty() {
            return outcome;
        }
        for fact in &linear {
            if !outcome.facts.contains(fact) {
                outcome.facts.push(fact.clone());
            }
        }
        // Step (3): for each linear equation pick the variable occurring in
        // the fewest remaining equations and eliminate it by substitution.
        for equation in &linear {
            if token.is_cancelled() {
                // This round's linear facts are already recorded (its GJE
                // completed); only the remaining substitutions are dropped.
                outcome.interrupted = true;
                return outcome;
            }
            let Some((vars, constant)) = equation.as_linear() else {
                continue;
            };
            if vars.is_empty() {
                continue;
            }
            let occurrences = |v: Var| nonlinear.iter().filter(|p| p.contains_var(v)).count();
            let &victim = vars
                .iter()
                .min_by_key(|&&v| occurrences(v))
                .expect("vars is non-empty");
            // replacement = sum of the other variables (+ constant).
            let mut replacement = Polynomial::constant(constant);
            for &v in vars.iter().filter(|&&v| v != victim) {
                replacement += &Polynomial::variable(v);
            }
            for poly in &mut nonlinear {
                if poly.contains_var(victim) {
                    *poly = poly.substitute_poly_with(victim, &replacement, &mut scratch);
                }
            }
            outcome.eliminated_vars += 1;
        }
        working = nonlinear;
        if working.is_empty() {
            return outcome;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn polys(s: &str) -> Vec<Polynomial> {
        PolynomialSystem::parse(s)
            .expect("test system parses")
            .into_polynomials()
    }

    #[test]
    fn section_2c_worked_example() {
        // {x1+x2+x3, x1x2 + x2x3 + 1}: substituting x1 = x2 + x3 gives
        // x2 + 1, so ElimLin learns both x1+x2+x3 and x2+1.
        let outcome = elimlin_on(polys("x1 + x2 + x3; x1*x2 + x2*x3 + 1;"), 1);
        assert!(!outcome.contradiction);
        assert!(outcome
            .facts
            .contains(&"x1 + x2 + x3".parse().expect("parses")));
        assert!(outcome.facts.contains(&"x2 + 1".parse().expect("parses")));
        assert!(outcome.eliminated_vars >= 1);
        assert!(outcome.rounds >= 2);
        assert!(
            outcome.gauss.rank >= 2,
            "cumulative rank spans every GJE round"
        );
    }

    #[test]
    fn section_2e_example_learns_x1_equals_one() {
        // Section II-E: in the Bosphorus pipeline ElimLin sees the master
        // copy, i.e. the original system augmented with the linear facts XL
        // already contributed. Its initial GJE then reports those four
        // linear equations, and after substituting them it learns a unit
        // fact (the paper derives x1 + 1).
        let outcome = elimlin_on(
            polys(
                "x1*x2 + x3 + x4 + 1;
             x1*x2*x3 + x1 + x3 + 1;
             x1*x3 + x3*x4*x5 + x3;
             x2*x3 + x3*x5 + 1;
             x2*x3 + x5 + 1;
             x1 + x5 + 1;
             x1 + x4;
             x3 + 1;
             x1 + x2;",
            ),
            1,
        );
        assert!(!outcome.contradiction);
        // The four linear equations from the initial GJE...
        for expected in ["x1 + x5 + 1", "x1 + x4", "x3 + 1", "x1 + x2"] {
            assert!(
                outcome.facts.contains(&expected.parse().expect("parses")),
                "missing initial linear fact {expected}; facts: {:?}",
                outcome.facts
            );
        }
        // ...and a second-round unit fact. The paper derives x1 + 1; which
        // variable ends up pinned depends on the elimination order, but a
        // single-variable assignment must be learnt, and combined with the
        // four linear equations it forces x1 = 1.
        let unit_fact = outcome
            .facts
            .iter()
            .find(|f| f.as_linear().is_some_and(|(vars, _)| vars.len() == 1));
        assert!(
            unit_fact.is_some(),
            "ElimLin should learn a unit fact; facts: {:?}",
            outcome.facts
        );
        // All facts must hold in the system's unique solution
        // x1=x2=x3=x4=1, x5=0.
        for fact in &outcome.facts {
            assert!(!fact.evaluate(|v| v != 5 && v != 0));
        }
    }

    #[test]
    fn contradiction_is_detected() {
        let outcome = elimlin_on(polys("x0 + x1; x0 + x1 + 1;"), 1);
        assert!(outcome.contradiction);
        assert!(outcome.facts.contains(&Polynomial::one()));
    }

    #[test]
    fn facts_are_consequences() {
        let source = polys("x0*x1 + x2; x0 + x1 + 1; x1*x2 + x0 + 1;");
        let outcome = elimlin_on(source.clone(), 1);
        let n = 3usize;
        for bits in 0u64..(1 << n) {
            let assign: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            if source.iter().all(|p| !p.evaluate(|v| assign[v as usize])) {
                for fact in &outcome.facts {
                    assert!(
                        !fact.evaluate(|v| assign[v as usize]),
                        "fact {fact} violated by a solution"
                    );
                }
            }
        }
    }

    #[test]
    fn purely_nonlinear_system_terminates_quickly() {
        let outcome = elimlin_on(polys("x0*x1 + x1*x2; x0*x2 + x1*x2;"), 1);
        assert!(!outcome.contradiction);
        assert!(outcome.rounds >= 1);
        assert_eq!(outcome.eliminated_vars, 0);
    }

    #[test]
    fn empty_input_is_a_noop() {
        let outcome = elimlin_on(Vec::new(), 1);
        assert!(outcome.facts.is_empty());
        assert!(!outcome.contradiction);
    }

    #[test]
    fn presolve_and_dense_runs_learn_identical_facts() {
        let source = polys(
            "x1*x2 + x3 + x4 + 1;
             x1*x2*x3 + x1 + x3 + 1;
             x1*x3 + x3*x4*x5 + x3;
             x2*x3 + x3*x5 + 1;
             x2*x3 + x5 + 1;
             x1 + x5 + 1;
             x1 + x4;
             x3 + 1;
             x1 + x2;",
        );
        let token = CancelToken::never();
        let with = elimlin_run(source.clone(), 1, true, &token);
        let without = elimlin_run(source, 1, false, &token);
        assert_eq!(with.facts, without.facts, "facts diverge");
        assert_eq!(with.rounds, without.rounds, "rounds diverge");
        assert_eq!(with.eliminated_vars, without.eliminated_vars);
        assert_eq!(with.gauss.rank, without.gauss.rank);
        assert!(with.presolve.input_rows > 0, "presolve ran");
        assert_eq!(without.presolve, PresolveStats::default());
    }

    #[test]
    fn subsampled_variant_is_sound() {
        let system = PolynomialSystem::parse(
            "x0*x1 + x2; x1 + x2 + 1; x0*x2 + x0 + x1; x2*x3 + x0; x3 + x1;",
        )
        .expect("parses");
        let config = BosphorusConfig {
            subsample_m: 3,
            ..BosphorusConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = elimlin_learn(&system, &config, &mut rng);
        let n = system.num_vars();
        for bits in 0u64..(1 << n) {
            let assign: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            if system.iter().all(|p| !p.evaluate(|v| assign[v as usize])) {
                for fact in &outcome.facts {
                    assert!(!fact.evaluate(|v| assign[v as usize]));
                }
            }
        }
    }
}
