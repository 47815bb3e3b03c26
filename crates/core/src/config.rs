//! Configuration of the Bosphorus fact-learning loop.

use crate::pipeline::PassKind;

/// XL expansion allowance `δM`: expansion stops once the linearised size
/// reaches about `2^(M + δM)`, where `M` is
/// [`BosphorusConfig::subsample_m`]. The paper uses `δM = 4`.
pub const EXPANSION_DELTA_M: u32 = 4;

/// XOR-cutting length `L`: in ANF→CNF conversion, long XORs are split into
/// chunks of at most this many terms using auxiliary variables. The paper
/// uses `L = 5`.
pub const XOR_CUT_LENGTH: usize = 5;

/// Clause-cutting length `L'`: in CNF→ANF conversion, clauses are split so
/// that each piece has at most this many positive literals. The paper uses
/// `L' = 5`.
pub const CLAUSE_CUT_LENGTH: usize = 5;

/// Tunable parameters of the [`Bosphorus`](crate::Bosphorus) engine.
///
/// Field names follow the paper's notation (Section IV lists the defaults the
/// authors used): `M` controls XL/ElimLin subsampling, `K` the Karnaugh-map
/// variable limit and `C` the SAT conflict budget. The paper's `D`, `δM`,
/// `L` and `L'` take one value in every experiment and preset, so they are
/// constants: `D = 1` is built into [`xl_learn`](crate::xl_learn), and the
/// others are [`EXPANSION_DELTA_M`], [`XOR_CUT_LENGTH`] and
/// [`CLAUSE_CUT_LENGTH`].
///
/// The defaults here are scaled down from the paper's values so the full
/// benchmark table regenerates on a laptop in minutes; every field can be
/// overridden.
///
/// # Examples
///
/// ```
/// use bosphorus::BosphorusConfig;
///
/// let config = BosphorusConfig {
///     sat_conflict_budget: 500,
///     ..BosphorusConfig::default()
/// };
/// assert_eq!(config.sat_conflict_budget, 500);
/// assert_eq!(config.karnaugh_vars, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BosphorusConfig {
    /// Subsampling parameter `M`: XL and ElimLin operate on a random subset
    /// of polynomials whose linearised size (rows × columns) is about `2^M`.
    /// The paper uses `M = 30`; the default here is smaller.
    pub subsample_m: u32,
    /// Karnaugh parameter `K`: polynomials over at most this many variables
    /// are converted to CNF through logic minimisation; larger ones use the
    /// Tseitin-style XOR encoding. The paper uses `K = 8`.
    pub karnaugh_vars: usize,
    /// SAT conflict budget `C` of every in-loop SAT round. The paper starts
    /// at 10,000 and raises `C` by 10,000, up to 100,000, after every SAT
    /// call that learnt nothing (Section IV). That rise is not reproduced:
    /// `C` stays at this value for the whole run. While XL or ElimLin still
    /// change the system, the next SAT round searches a new CNF anyway, and
    /// a longer search on the old one spent more conflicts for the same
    /// facts when measured on Simon-\[2,8\]. On the paper's order
    /// (XL, ElimLin, SAT), a dry SAT round with no fact before it in its
    /// iteration ends the loop, so a raised `C` would never be used.
    pub sat_conflict_budget: u64,
    /// Upper bound on the number of XL–ElimLin–SAT iterations of the
    /// fact-learning loop (a safeguard on top of the fixed-point test).
    pub max_iterations: usize,
    /// The learning passes of one loop iteration, in run order. This is the
    /// paper's Fig. 1 sequence by default (`[Xl, ElimLin, Sat]`); reorder,
    /// drop, or extend it (e.g. with [`PassKind::Groebner`]) to change the
    /// pipeline without touching engine code. The driver propagates learnt
    /// facts after every pass, so [`PassKind::Propagate`] is only needed in
    /// custom orders that want additional propagation points.
    pub pass_order: Vec<PassKind>,
    /// Reduction budget of the optional Gröbner pass (see
    /// [`PassKind::Groebner`]); matches
    /// `bosphorus_groebner::GroebnerConfig::max_reductions`.
    pub groebner_max_reductions: usize,
    /// Basis-size budget of the optional Gröbner pass.
    pub groebner_max_basis_size: usize,
    /// Degree bound of the optional Gröbner pass; S-polynomials above this
    /// degree are skipped, keeping the pass cheap enough to sit in the loop.
    pub groebner_max_degree: usize,
    /// Seed for the subsampling random number generator, fixed for
    /// reproducibility of experiments.
    pub rng_seed: u64,
}

impl Default for BosphorusConfig {
    fn default() -> Self {
        BosphorusConfig {
            subsample_m: 20,
            karnaugh_vars: 8,
            sat_conflict_budget: 2_000,
            max_iterations: 16,
            pass_order: vec![PassKind::Xl, PassKind::ElimLin, PassKind::Sat],
            groebner_max_reductions: 5_000,
            groebner_max_basis_size: 500,
            groebner_max_degree: 4,
            rng_seed: 0xB05F0405,
        }
    }
}

impl BosphorusConfig {
    /// The parameter values reported in the paper (Section IV). These are
    /// sized for the authors' 5,000-second timeout and are rarely what you
    /// want on small reproduction runs, but they document the reference
    /// setting.
    pub fn paper_defaults() -> Self {
        BosphorusConfig {
            subsample_m: 30,
            sat_conflict_budget: 10_000,
            max_iterations: 64,
            ..BosphorusConfig::default()
        }
    }

    /// A configuration that skips subsampling entirely (suitable for the
    /// small systems used in unit tests and examples).
    pub fn exhaustive() -> Self {
        BosphorusConfig {
            subsample_m: 63,
            ..BosphorusConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_4() {
        let c = BosphorusConfig::paper_defaults();
        assert_eq!(c.subsample_m, 30);
        assert_eq!(EXPANSION_DELTA_M, 4);
        assert_eq!(c.karnaugh_vars, 8);
        assert_eq!(XOR_CUT_LENGTH, 5);
        assert_eq!(CLAUSE_CUT_LENGTH, 5);
        assert_eq!(c.sat_conflict_budget, 10_000);
    }

    #[test]
    fn default_is_scaled_down_but_same_shape() {
        let d = BosphorusConfig::default();
        let p = BosphorusConfig::paper_defaults();
        assert_eq!(d.karnaugh_vars, p.karnaugh_vars);
        assert!(d.sat_conflict_budget <= p.sat_conflict_budget);
        assert!(d.subsample_m <= p.subsample_m);
    }

    #[test]
    fn exhaustive_disables_subsampling_in_practice() {
        assert_eq!(BosphorusConfig::exhaustive().subsample_m, 63);
    }

    #[test]
    fn default_pass_order_is_the_paper_loop() {
        let d = BosphorusConfig::default();
        assert_eq!(
            d.pass_order,
            vec![PassKind::Xl, PassKind::ElimLin, PassKind::Sat]
        );
        assert_eq!(d.pass_order, BosphorusConfig::paper_defaults().pass_order);
    }
}
