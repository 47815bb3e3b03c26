//! eXtended Linearization (XL), Section II-B of the paper.
//!
//! XL expands a polynomial system by multiplying each equation with every
//! variable of the system (the paper's degree `D = 1`), linearises the
//! expanded system
//! (treating each monomial as an independent variable) and applies
//! Gauss–Jordan elimination. Rows of the reduced system that are linear
//! equations or "all-ones" monomial facts are retained as learnt facts.
//!
//! To bound memory, the equations are uniformly subsampled so the linearised
//! size stays near `2^M`, and expansion stops near `2^(M + δM)` — the scheme
//! described in the paper. Because the purpose is to *learn facts*, not to
//! solve the system, working on a subsample is acceptable.

use bosphorus_anf::{is_retainable_fact, Monomial, Polynomial, PolynomialSystem, TermScratch, Var};
use bosphorus_gf2::{GaussStats, PresolveStats};
use bosphorus_interrupt::CancelToken;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::linearize::LinearizationBuilder;
use crate::{BosphorusConfig, EXPANSION_DELTA_M};

/// How many expansion products are appended between cancellation polls.
/// Each product costs a monomial multiplication plus a row append, so a few
/// hundred of them amortise the poll to nothing while still bounding the
/// response latency to well under a millisecond.
const XL_CHECK_INTERVAL: u64 = 256;

/// Outcome of one XL round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XlOutcome {
    /// Learnt facts: linear polynomials and `monomial ⊕ 1` facts found in
    /// the reduced system.
    pub facts: Vec<Polynomial>,
    /// Number of rows of the expanded linearised system.
    pub expanded_rows: usize,
    /// Number of monomial columns of the expanded linearised system.
    pub expanded_columns: usize,
    /// Rank of the expanded system after Gauss–Jordan elimination.
    pub rank: usize,
    /// Operation counts of the elimination kernel (the dominant cost of the
    /// round).
    pub gauss: GaussStats,
    /// Reduction counts and phase timing of the sparse structural presolve
    /// that ran before the dense kernel. All-zero when the round never
    /// reached the elimination.
    pub presolve: PresolveStats,
    /// `true` when the round worked on a strict subsample of the system (or
    /// truncated the expansion at the size budget). An exhaustive round
    /// (`subsampled == false`) is deterministic for a given input system, so
    /// re-running it on an unchanged system cannot learn anything new — the
    /// property the pipeline's revision-based skipping relies on.
    pub subsampled: bool,
    /// `true` when the round observed cancellation and wound down early. An
    /// interrupted round reports **no facts**: partially reduced rows are
    /// still consequences of the system, but only a completed elimination
    /// yields the facts the uninterrupted round would have committed.
    pub interrupted: bool,
}

/// XL's multipliers at degree `D = 1`: one monomial per variable that
/// occurs in `system`, in ascending order. (Multiplying by the constant
/// monomial would reproduce the original equation, which is already present.)
pub(crate) fn expansion_monomials(system: &PolynomialSystem) -> Vec<Monomial> {
    let mut vars: Vec<Var> = system.iter().flat_map(Polynomial::variables).collect();
    vars.sort_unstable();
    vars.dedup();
    vars.into_iter().map(Monomial::variable).collect()
}

/// The paper's uniform subsample of `system` (§II-B): its polynomials in a
/// random order, cut after the shortest prefix whose linearised size — rows
/// times the running term count — reaches `2^M`
/// ([`BosphorusConfig::subsample_m`]).
///
/// XL and ElimLin both work on this subsample, and a pass that skips a run
/// draws it anyway, so the random stream does not depend on skip decisions.
/// The draws are those of one shuffle of the whole system.
pub(crate) fn subsample<'a, R: Rng>(
    system: &'a PolynomialSystem,
    config: &BosphorusConfig,
    rng: &mut R,
) -> Vec<&'a Polynomial> {
    let budget = 1u128 << config.subsample_m.min(126);
    let mut selected: Vec<&Polynomial> = system.iter().collect();
    selected.shuffle(rng);
    let mut taken = 0usize;
    let mut terms = 0u128;
    for poly in &selected {
        taken += 1;
        terms += poly.len() as u128;
        if taken as u128 * terms >= budget {
            break;
        }
    }
    selected.truncate(taken);
    selected
}

/// Runs one round of XL fact learning on `system`.
///
/// The polynomials are subsampled ([`BosphorusConfig::subsample_m`]) and
/// each is multiplied by every variable of the system, until the expansion
/// reaches about `2^(M + δM)` ([`EXPANSION_DELTA_M`]);
/// the random source drives the uniform subsampling.
///
/// Every returned fact is a GF(2) linear combination of (multiples of) input
/// equations, hence a consequence of the system.
///
/// `token` is polled at coarse checkpoints: once per 256 expansion products
/// and once per elimination sweep (inside the GF(2) kernel). When the token
/// trips, the round returns with [`XlOutcome::interrupted`] set and **no
/// facts** — XL's unit of committed work is the whole round, so an
/// interrupted round contributes nothing and the pipeline simply stops
/// cleanly after it.
pub fn xl_learn<R: Rng>(
    system: &PolynomialSystem,
    config: &BosphorusConfig,
    rng: &mut R,
    token: &CancelToken,
) -> XlOutcome {
    if system.is_empty() {
        return XlOutcome {
            facts: Vec::new(),
            expanded_rows: 0,
            expanded_columns: 0,
            rank: 0,
            gauss: GaussStats::default(),
            presolve: PresolveStats::default(),
            subsampled: false,
            interrupted: false,
        };
    }
    let expansion_budget = 1u128 << (config.subsample_m + EXPANSION_DELTA_M).min(126);
    let mut subsample = subsample(system, config, rng);

    // Expand in ascending degree order (the paper selects equations in
    // ascending degree order) by every variable that actually occurs,
    // stopping when the estimated size exceeds 2^(M + δM).
    subsample.sort_by_key(|p| p.degree());
    let multipliers = expansion_monomials(system);
    // Expand straight into the linearisation: every product's terms are
    // computed into one reusable scratch buffer and interned directly as a
    // matrix row, so the expansion allocates no intermediate copy of the
    // (much larger) expanded system.
    let mut builder = LinearizationBuilder::new();
    for &poly in &subsample {
        builder.push(poly);
    }
    let mut scratch = TermScratch::new();
    let mut terms_estimate: u128 = subsample.iter().map(|p| p.len() as u128).sum();
    let mut truncated = false;
    let mut checkpoint = token.checkpoint_every(XL_CHECK_INTERVAL);
    let mut interrupted = false;
    'expansion: for &base in &subsample {
        for m in &multipliers {
            if checkpoint.check() {
                interrupted = true;
                break 'expansion;
            }
            let terms = builder.push_product(base, m, &mut scratch);
            if terms == 0 {
                // The product cancelled to zero; no row was appended.
                continue;
            }
            terms_estimate += terms as u128;
            let size = builder.num_rows() as u128 * terms_estimate;
            if size >= expansion_budget {
                truncated = true;
                break 'expansion;
            }
        }
    }
    let subsampled = subsample.len() < system.len() || truncated;

    if interrupted || checkpoint.check_now() {
        // Skip the elimination entirely: the matrix was never reduced, so
        // there is nothing committed to report.
        return XlOutcome {
            facts: Vec::new(),
            expanded_rows: builder.num_rows(),
            expanded_columns: builder.num_columns(),
            rank: 0,
            gauss: GaussStats::default(),
            presolve: PresolveStats::default(),
            subsampled,
            interrupted: true,
        };
    }

    let expanded_rows = builder.num_rows();
    let expanded_columns = builder.num_columns();
    // Read back only the retainable rows: the non-retainable bulk of the
    // RREF is detected from each row's shape and never built as polynomials.
    // The structural rules run on the interned sparse rows and only the
    // residual dense cores reach the blocked kernel (see
    // `crates/gf2/src/sparse.rs`).
    let (facts, rank, gauss, presolve) = builder.finish().eliminate_retainable(token);
    if gauss.interrupted {
        // The elimination stopped between sweeps (or mid-presolve); its
        // partial reduction is not the RREF, so no facts were read back (the
        // cancellable readers already guarantee this).
        return XlOutcome {
            facts: Vec::new(),
            expanded_rows,
            expanded_columns,
            rank: 0,
            gauss,
            presolve,
            subsampled,
            interrupted: true,
        };
    }
    debug_assert_eq!(rank, gauss.rank, "non-zero RREF rows must equal rank");
    debug_assert!(facts.iter().all(is_retainable_fact));
    XlOutcome {
        facts,
        expanded_rows,
        expanded_columns,
        rank,
        gauss,
        presolve,
        subsampled,
        interrupted: false,
    }
}

/// Test oracle for an exhaustive XL round: the retainable rows and the rank
/// of the dense kernel's RREF of the whole expansion — every polynomial of
/// `system` and its products with every variable.
/// The RREF depends only on the span of the rows and on the column order,
/// not on the order the round expanded in.
#[cfg(test)]
pub(crate) fn exhaustive_round_oracle(system: &PolynomialSystem) -> (Vec<Polynomial>, usize) {
    let multipliers = expansion_monomials(system);
    let mut rows: Vec<Polynomial> = system.iter().cloned().collect();
    for base in system.iter() {
        rows.extend(multipliers.iter().map(|m| base.mul_monomial(m)));
    }
    let mut rref = crate::Linearization::build(rows.iter()).dense_rref();
    let rank = rref.len();
    rref.retain(is_retainable_fact);
    (rref, rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn system(s: &str) -> PolynomialSystem {
        PolynomialSystem::parse(s).expect("test system parses")
    }

    fn exhaustive_config() -> BosphorusConfig {
        BosphorusConfig::exhaustive()
    }

    #[test]
    fn expansion_monomials_degree_one() {
        let ms = expansion_monomials(&system("x2 + x0*x1; x1*x2 + 1;"));
        assert_eq!(ms, [0, 1, 2].map(Monomial::variable));
    }

    #[test]
    fn table1_example_learns_unit_facts() {
        // Table I: XL with D = 1 on {x1x2 + x1 + 1, x2x3 + x3} learns
        // x1 + 1, x2 and x3.
        let s = system("x1*x2 + x1 + 1; x2*x3 + x3;");
        let mut rng = StdRng::seed_from_u64(7);
        let outcome = xl_learn(&s, &exhaustive_config(), &mut rng, &CancelToken::never());
        assert!(outcome.facts.contains(&"x1 + 1".parse().expect("parses")));
        assert!(outcome.facts.contains(&"x2".parse().expect("parses")));
        assert!(outcome.facts.contains(&"x3".parse().expect("parses")));
        assert_eq!(outcome.rank, 6, "Table I(b) has six non-zero rows");
        assert_eq!(outcome.gauss.rank, 6, "kernel stats agree with the rank");
        assert!(outcome.gauss.row_xors > 0, "elimination work is reported");
        assert!(!outcome.subsampled, "exhaustive config covers everything");
    }

    #[test]
    fn section_2e_example_learns_documented_facts() {
        // Section II-E: XL with D = 1 learns x2x3x4+1, x1x3x4+1, x1+x5+1,
        // x1+x4, x3+1 and x1+x2.
        let s = system(
            "x1*x2 + x3 + x4 + 1;
             x1*x2*x3 + x1 + x3 + 1;
             x1*x3 + x3*x4*x5 + x3;
             x2*x3 + x3*x5 + 1;
             x2*x3 + x5 + 1;",
        );
        let mut rng = StdRng::seed_from_u64(7);
        let outcome = xl_learn(&s, &exhaustive_config(), &mut rng, &CancelToken::never());
        for expected in [
            "x2*x3*x4 + 1",
            "x1*x3*x4 + 1",
            "x1 + x5 + 1",
            "x1 + x4",
            "x3 + 1",
            "x1 + x2",
        ] {
            let fact: Polynomial = expected.parse().expect("parses");
            assert!(
                outcome.facts.contains(&fact),
                "expected XL to learn {expected}, facts: {:?}",
                outcome.facts
            );
        }
    }

    #[test]
    fn facts_are_consequences_of_the_system() {
        // Every learnt fact must vanish on every solution of the system.
        let s = system("x0*x1 + x2; x1 + x2 + 1; x0*x2 + x0 + x1;");
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = xl_learn(&s, &exhaustive_config(), &mut rng, &CancelToken::never());
        let n = s.num_vars();
        for bits in 0u64..(1 << n) {
            let assign: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            let satisfies = s.iter().all(|p| !p.evaluate(|v| assign[v as usize]));
            if satisfies {
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
    fn empty_system_learns_nothing() {
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = xl_learn(
            &PolynomialSystem::new(),
            &exhaustive_config(),
            &mut rng,
            &CancelToken::never(),
        );
        assert!(outcome.facts.is_empty());
        assert_eq!(outcome.expanded_rows, 0);
    }

    #[test]
    fn tiny_subsample_budget_still_sound() {
        let s = system("x0*x1 + x0 + 1; x1*x2 + x2; x0 + x2;");
        let config = BosphorusConfig {
            subsample_m: 2,
            ..BosphorusConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(11);
        let outcome = xl_learn(&s, &config, &mut rng, &CancelToken::never());
        assert!(outcome.subsampled, "a 2^2 budget cannot cover the system");
        // With such a small budget little may be learnt, but whatever is
        // learnt must still be a consequence.
        let n = s.num_vars();
        for bits in 0u64..(1 << n) {
            let assign: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            if s.iter().all(|p| !p.evaluate(|v| assign[v as usize])) {
                for fact in &outcome.facts {
                    assert!(!fact.evaluate(|v| assign[v as usize]));
                }
            }
        }
    }

    #[test]
    fn presolve_and_dense_rounds_commit_identical_facts() {
        let s = system(
            "x1*x2 + x3 + x4 + 1;
             x1*x2*x3 + x1 + x3 + 1;
             x1*x3 + x3*x4*x5 + x3;
             x2*x3 + x3*x5 + 1;
             x2*x3 + x5 + 1;",
        );
        let config = exhaustive_config();
        let (oracle, rank) = exhaustive_round_oracle(&s);
        for seed in [7u64, 13, 2019] {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = xl_learn(&s, &config, &mut rng, &CancelToken::never());
            assert!(!outcome.subsampled);
            assert_eq!(outcome.facts, oracle, "facts diverge at seed {seed}");
            assert_eq!(outcome.rank, rank);
            assert!(
                outcome.presolve.input_rows > 0,
                "presolve ran and reported its input shape"
            );
        }
    }

    #[test]
    fn retainable_fact_classification() {
        assert!(is_retainable_fact(&"x0 + x3 + 1".parse().expect("parses")));
        assert!(is_retainable_fact(&"x0*x1*x2 + 1".parse().expect("parses")));
        assert!(is_retainable_fact(&Polynomial::one()));
        assert!(!is_retainable_fact(&Polynomial::zero()));
        assert!(!is_retainable_fact(&"x0*x1 + x2".parse().expect("parses")));
        // Propagation reads this product of literals; the fact filter does
        // not.
        assert!(!is_retainable_fact(
            &"x0*x1 + x0 + 1".parse().expect("parses")
        ));
    }
}
