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
use rand::Rng;

use crate::linearize::Linearization;
use crate::xl::subsample;
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
    /// Cumulative sparse-presolve reduction counts across all rounds.
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
///
/// `token` is polled between rounds, between substitutions and once per
/// elimination sweep inside the GF(2) kernel. When the token trips the run
/// returns early with [`ElimLinOutcome::interrupted`] set; the reported
/// facts come from fully completed GJE rounds only.
pub fn elimlin_learn<R: Rng>(
    system: &PolynomialSystem,
    config: &BosphorusConfig,
    rng: &mut R,
    token: &CancelToken,
) -> ElimLinOutcome {
    let working: Vec<Polynomial> = subsample(system, config, rng)
        .into_iter()
        .cloned()
        .collect();
    let subsampled = working.len() < system.len();
    let mut outcome = elimlin_on(working, token);
    outcome.subsampled = subsampled;
    outcome
}

/// Runs ElimLin on exactly the given polynomials (no subsampling),
/// cooperatively cancellable (see [`elimlin_learn`] for the checkpoint
/// placement and the completed-rounds fact guarantee).
pub fn elimlin_on(working: Vec<Polynomial>, token: &CancelToken) -> ElimLinOutcome {
    elimlin_run(working, token, eliminate, substitute_linear)
}

/// Step (1) of an ElimLin round: the non-zero RREF rows of the linearised
/// working set, with the elimination's work counts. No rows are returned
/// when `token` tripped (`GaussStats::interrupted`).
type Eliminate = fn(&[Polynomial], &CancelToken) -> (Vec<Polynomial>, GaussStats, PresolveStats);

/// The engine's step (1): the structural presolve, then the dense kernel on
/// its residual cores.
fn eliminate(
    working: &[Polynomial],
    token: &CancelToken,
) -> (Vec<Polynomial>, GaussStats, PresolveStats) {
    Linearization::build(working).eliminate(token)
}

/// Step (3) of an ElimLin round: eliminates one variable per equation of
/// `linear` from `nonlinear` by substitution, adding one to `eliminated`
/// per equation used. Returns `true` if `token` tripped before every
/// equation was used.
type Substitute =
    fn(&[Polynomial], &mut [Polynomial], &mut TermScratch, &CancelToken, &mut usize) -> bool;

/// The ElimLin fixed-point loop behind every public entry point, with each
/// round's step (1) done by `eliminate` and its step (3) by `substitute`.
fn elimlin_run(
    mut working: Vec<Polynomial>,
    token: &CancelToken,
    eliminate: Eliminate,
    substitute: Substitute,
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
        // Step (1): Gauss–Jordan elimination on the linearisation.
        let (reduced, round_stats, round_presolve) = eliminate(&working, token);
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
        // Step (3): eliminate one variable per linear equation.
        if substitute(
            &linear,
            &mut nonlinear,
            &mut scratch,
            token,
            &mut outcome.eliminated_vars,
        ) {
            // This round's linear facts are already recorded (its GJE
            // completed); only the remaining substitutions are dropped.
            outcome.interrupted = true;
            return outcome;
        }
        working = nonlinear;
        if working.is_empty() {
            return outcome;
        }
    }
}

/// The replacement of `victim` taken from the linear equation over `vars`
/// (+ `constant`): the sum of the other variables (+ the constant).
fn replacement_for(victim: Var, vars: &[Var], constant: bool) -> Polynomial {
    let mut replacement = Polynomial::constant(constant);
    for &v in vars.iter().filter(|&&v| v != victim) {
        replacement += &Polynomial::variable(v);
    }
    replacement
}

/// Step (3) over an occurrence index: for each linear equation, eliminates
/// the variable occurring in the fewest polynomials of `nonlinear` (the
/// first such variable of the equation on a tie) from exactly the
/// polynomials that contain it. See [`Substitute`] for the contract.
fn substitute_linear(
    linear: &[Polynomial],
    nonlinear: &mut [Polynomial],
    scratch: &mut TermScratch,
    token: &CancelToken,
    eliminated: &mut usize,
) -> bool {
    let mut index = OccurrenceIndex::build(linear, nonlinear);
    for equation in linear {
        if token.is_cancelled() {
            return true;
        }
        let Some((vars, constant)) = equation.as_linear() else {
            continue;
        };
        let Some(&victim) = vars.iter().min_by_key(|&&v| index.count[v as usize]) else {
            continue;
        };
        let replacement = replacement_for(victim, &vars, constant);
        for i in index.take_holders(victim) {
            let poly = &mut nonlinear[i as usize];
            *poly = poly.substitute_poly_with(victim, &replacement, scratch);
            index.update(i, poly);
        }
        *eliminated += 1;
    }
    false
}

/// Which polynomials of a round's `nonlinear` set contain each variable.
///
/// The counts are exact at every point of step (3), so the victim chosen
/// from them is the one a rescan of the polynomials would choose. The index
/// lives for one round.
struct OccurrenceIndex {
    /// Each polynomial's sorted variable set, as of its last rewrite.
    vars: Vec<Vec<Var>>,
    /// `count[v]`: how many polynomials contain `v`.
    count: Vec<u32>,
    /// `holders[v]`: every polynomial that contains `v`, in no particular
    /// order. Entries are appended on a rewrite and never removed, so the
    /// list may also name polynomials that no longer contain `v`, and name
    /// a polynomial twice; [`OccurrenceIndex::take_holders`] filters them.
    holders: Vec<Vec<u32>>,
}

impl OccurrenceIndex {
    /// Indexes `nonlinear`, sized for every variable that occurs in it or in
    /// `linear` (a substitution only brings in variables of an equation).
    fn build(linear: &[Polynomial], nonlinear: &[Polynomial]) -> Self {
        let num_vars = linear
            .iter()
            .chain(nonlinear)
            .filter_map(Polynomial::max_var)
            .max()
            .map_or(0, |v| v as usize + 1);
        let mut index = OccurrenceIndex {
            vars: Vec::with_capacity(nonlinear.len()),
            count: vec![0; num_vars],
            holders: vec![Vec::new(); num_vars],
        };
        for (i, poly) in nonlinear.iter().enumerate() {
            let i = u32::try_from(i).expect("a round holds fewer than 2^32 polynomials");
            let vars = poly.variables();
            for &v in &vars {
                index.count[v as usize] += 1;
                index.holders[v as usize].push(i);
            }
            index.vars.push(vars);
        }
        index
    }

    /// Removes and returns the polynomials that contain `v`, in index order.
    fn take_holders(&mut self, v: Var) -> Vec<u32> {
        let mut holders = std::mem::take(&mut self.holders[v as usize]);
        holders.sort_unstable();
        holders.dedup();
        holders.retain(|&i| self.vars[i as usize].binary_search(&v).is_ok());
        holders
    }

    /// Records that polynomial `i` has been rewritten to `poly`.
    fn update(&mut self, i: u32, poly: &Polynomial) {
        let after = poly.variables();
        let OccurrenceIndex {
            vars,
            count,
            holders,
        } = self;
        let before = std::mem::replace(&mut vars[i as usize], after);
        let after = &vars[i as usize];
        let (mut a, mut b) = (0usize, 0usize);
        while a < before.len() && b < after.len() {
            let (x, y) = (before[a], after[b]);
            if x < y {
                count[x as usize] -= 1;
            } else if y < x {
                count[y as usize] += 1;
                holders[y as usize].push(i);
            }
            a += usize::from(x <= y);
            b += usize::from(y <= x);
        }
        for &v in &before[a..] {
            count[v as usize] -= 1;
        }
        for &v in &after[b..] {
            count[v as usize] += 1;
            holders[v as usize].push(i);
        }
    }
}

/// The scan-based step (3) the index replaced, kept as a test oracle: it
/// recounts each candidate's occurrences over every polynomial and sweeps
/// every polynomial for the victim.
#[cfg(test)]
fn substitute_linear_by_scan(
    linear: &[Polynomial],
    nonlinear: &mut [Polynomial],
    scratch: &mut TermScratch,
    token: &CancelToken,
    eliminated: &mut usize,
) -> bool {
    for equation in linear {
        if token.is_cancelled() {
            return true;
        }
        let Some((vars, constant)) = equation.as_linear() else {
            continue;
        };
        let occurrences = |v: Var| nonlinear.iter().filter(|p| p.contains_var(v)).count();
        let Some(&victim) = vars.iter().min_by_key(|&&v| occurrences(v)) else {
            continue;
        };
        let replacement = replacement_for(victim, &vars, constant);
        for poly in nonlinear.iter_mut() {
            if poly.contains_var(victim) {
                *poly = poly.substitute_poly_with(victim, &replacement, scratch);
            }
        }
        *eliminated += 1;
    }
    false
}

/// [`elimlin_on`] with the scan-based step (3), as a reference for the
/// indexed one.
#[cfg(test)]
pub(crate) fn elimlin_by_scan(working: Vec<Polynomial>) -> ElimLinOutcome {
    elimlin_run(
        working,
        &CancelToken::never(),
        eliminate,
        substitute_linear_by_scan,
    )
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
        let outcome = elimlin_on(
            polys("x1 + x2 + x3; x1*x2 + x2*x3 + 1;"),
            &CancelToken::never(),
        );
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
            &CancelToken::never(),
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
        let outcome = elimlin_on(polys("x0 + x1; x0 + x1 + 1;"), &CancelToken::never());
        assert!(outcome.contradiction);
        assert!(outcome.facts.contains(&Polynomial::one()));
    }

    #[test]
    fn facts_are_consequences() {
        let source = polys("x0*x1 + x2; x0 + x1 + 1; x1*x2 + x0 + 1;");
        let outcome = elimlin_on(source.clone(), &CancelToken::never());
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
        let outcome = elimlin_on(
            polys("x0*x1 + x1*x2; x0*x2 + x1*x2;"),
            &CancelToken::never(),
        );
        assert!(!outcome.contradiction);
        assert!(outcome.rounds >= 1);
        assert_eq!(outcome.eliminated_vars, 0);
    }

    #[test]
    fn empty_input_is_a_noop() {
        let outcome = elimlin_on(Vec::new(), &CancelToken::never());
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
        let dense_oracle: Eliminate = |working, _| {
            let reduced = Linearization::build(working).dense_rref();
            let gauss = GaussStats {
                rank: reduced.len(),
                ..GaussStats::default()
            };
            (reduced, gauss, PresolveStats::default())
        };
        let with = elimlin_run(source.clone(), &token, eliminate, substitute_linear);
        let oracle = elimlin_run(source, &token, dense_oracle, substitute_linear);
        assert_eq!(with.facts, oracle.facts, "facts diverge");
        assert_eq!(with.rounds, oracle.rounds, "rounds diverge");
        assert_eq!(with.eliminated_vars, oracle.eliminated_vars);
        assert_eq!(with.gauss.rank, oracle.gauss.rank, "summed ranks diverge");
        assert!(with.presolve.input_rows > 0, "presolve ran");
    }

    /// Runs step (3) both ways on copies of `nonlinear` and returns the
    /// indexed result after checking it against the scan.
    fn step_three_both_ways(linear: &[Polynomial], nonlinear: &[Polynomial]) -> Vec<Polynomial> {
        let token = CancelToken::never();
        let mut scratch = TermScratch::new();
        let run = |substitute: Substitute, scratch: &mut TermScratch| {
            let mut polys = nonlinear.to_vec();
            let mut eliminated = 0;
            assert!(!substitute(
                linear,
                &mut polys,
                scratch,
                &token,
                &mut eliminated
            ));
            (polys, eliminated)
        };
        let indexed = run(substitute_linear, &mut scratch);
        let scan = run(substitute_linear_by_scan, &mut scratch);
        assert_eq!(indexed, scan, "linear {linear:?}, nonlinear {nonlinear:?}");
        indexed.0
    }

    #[test]
    fn step_three_breaks_a_tie_on_the_first_variable() {
        // x0 and x1 both occur once, so x0 (listed first) is eliminated.
        let result = step_three_both_ways(&polys("x0 + x1;"), &polys("x0*x2 + x3; x1*x2 + x4;"));
        assert_eq!(result, polys("x1*x2 + x3; x1*x2 + x4;"));
    }

    #[test]
    fn step_three_recounts_after_a_cancellation() {
        // x0 and x1 tie at three occurrences, so x0 = x1 + 1 goes first. It
        // cancels x1 out of every polynomial (the first to 0, the second to
        // the linear x5), so the second victim is x1, although x2 occurred
        // less often when the round began.
        let result = step_three_both_ways(
            &polys("x0 + x1 + 1; x1 + x2;"),
            &polys(
                "x0*x3 + x1*x3 + x3;
                 x0*x4 + x1*x4 + x4 + x5;
                 x0*x1*x2 + x2*x3;
                 x2*x4 + x6;",
            ),
        );
        let mut expected = polys("x5; x2*x3; x2*x4 + x6;");
        expected.insert(0, Polynomial::zero());
        assert_eq!(result, expected);
    }

    #[test]
    fn step_three_matches_the_scan_on_random_rounds() {
        // Random equations over few variables, so victims are often tied,
        // reintroduced by a later equation's replacement, or cancelled out
        // of a polynomial entirely; the replay counts how often the cases
        // occur and the run checks that each one did.
        let mut rng = StdRng::seed_from_u64(3);
        let (mut ties, mut to_zero, mut to_linear) = (0, 0, 0);
        for _ in 0..400 {
            let n = rng.gen_range(2..=8u32);
            let mut var = || Polynomial::variable(rng.gen_range(0..n));
            let mut linear = Vec::new();
            let mut nonlinear = Vec::new();
            for _ in 0..3 {
                let equation = var() + var() + var();
                let multiplier = var() * var();
                nonlinear.push(&equation * &multiplier);
                nonlinear.push(&equation * &multiplier + var());
                nonlinear.push(var() * var() * var() + var() * var() + var());
                linear.push(equation);
            }
            let result = step_three_both_ways(&linear, &nonlinear);
            // Replay one equation at a time to see which cases occurred.
            let mut current = nonlinear;
            for equation in &linear {
                let occurrences = |v: Var| current.iter().filter(|p| p.contains_var(v)).count();
                let counts: Vec<usize> =
                    equation.variables().into_iter().map(occurrences).collect();
                let fewest = counts.iter().min();
                ties += usize::from(counts.iter().filter(|&c| Some(c) == fewest).count() > 1);
                let next = step_three_both_ways(std::slice::from_ref(equation), &current);
                for (after, before) in next.iter().zip(&current) {
                    if after != before {
                        to_zero += usize::from(after.is_zero());
                        to_linear += usize::from(!after.is_zero() && after.is_linear());
                    }
                }
                current = next;
            }
            assert_eq!(current, result, "one equation at a time agrees");
        }
        assert!(
            ties >= 50 && to_zero >= 100 && to_linear >= 100,
            "ties {ties}, to zero {to_zero}, to linear {to_linear}"
        );
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
        let outcome = elimlin_learn(&system, &config, &mut rng, &CancelToken::never());
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
