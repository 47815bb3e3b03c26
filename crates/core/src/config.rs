//! Configuration of the Bosphorus fact-learning loop.

use crate::pipeline::PassKind;

/// Tunable parameters of the [`Bosphorus`](crate::Bosphorus) engine.
///
/// Field names follow the paper's notation (Section IV lists the defaults the
/// authors used): `M` and `δM` control XL/ElimLin subsampling, `D` the XL
/// expansion degree, `K` the Karnaugh-map variable limit, `L`/`L'` the
/// XOR-cutting and clause-cutting lengths, and `C` the SAT conflict budget.
///
/// The defaults here are scaled down from the paper's values so the full
/// benchmark table regenerates on a laptop in minutes; every parameter can be
/// overridden.
///
/// # Examples
///
/// ```
/// use bosphorus::BosphorusConfig;
///
/// let config = BosphorusConfig {
///     xl_degree: 1,
///     karnaugh_vars: 8,
///     ..BosphorusConfig::default()
/// };
/// assert_eq!(config.xl_degree, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BosphorusConfig {
    /// XL expansion degree `D`: equations are multiplied by all monomials of
    /// degree at most `D`. The paper uses `D = 1`.
    pub xl_degree: usize,
    /// Subsampling parameter `M`: XL and ElimLin operate on a random subset
    /// of polynomials whose linearised size (rows × columns) is about `2^M`.
    /// The paper uses `M = 30`; the default here is smaller.
    pub subsample_m: u32,
    /// XL expansion allowance `δM`: expansion stops once the linearised size
    /// reaches about `2^(M + δM)`. The paper uses `δM = 4`.
    pub expansion_delta_m: u32,
    /// Karnaugh parameter `K`: polynomials over at most this many variables
    /// are converted to CNF through logic minimisation; larger ones use the
    /// Tseitin-style XOR encoding. The paper uses `K = 8`.
    pub karnaugh_vars: usize,
    /// XOR-cutting length `L`: long XORs are split into chunks of at most
    /// this many terms using auxiliary variables. The paper uses `L = 5`.
    pub xor_cut_length: usize,
    /// Clause-cutting length `L'`: in CNF→ANF conversion, clauses are split
    /// so that each piece has at most this many positive literals.
    /// The paper uses `L' = 5`.
    pub clause_cut_length: usize,
    /// Initial SAT conflict budget `C`. The paper starts at 10,000.
    pub sat_conflict_budget: u64,
    /// Budget increment applied when a SAT round produces no new facts.
    /// The paper increments by 10,000.
    pub sat_budget_increment: u64,
    /// Maximum SAT conflict budget. The paper caps at 100,000.
    pub sat_budget_max: u64,
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
    /// Whether native XOR constraints are handed to the SAT solver in
    /// addition to the CNF clauses (exercised by the CryptoMiniSat-like
    /// configuration).
    pub emit_xor_constraints: bool,
    /// Seed for the subsampling random number generator, fixed for
    /// reproducibility of experiments.
    pub rng_seed: u64,
    /// Whether the XL and ElimLin eliminations run the sparse structural
    /// presolve (singleton, duplicate, weight-2, pure-leading-column and
    /// subset rules over interned sparse rows) before materialising the
    /// residual dense core for the blocked M4RM kernel. The presolve is
    /// exact — learnt facts are byte-identical with it on or off — so this
    /// only changes wall-clock; the dense-only path exists as an escape
    /// hatch (the CLI's `--no-presolve`) and as the test oracle the presolve
    /// is checked against. Default `true`.
    pub presolve: bool,
}

impl Default for BosphorusConfig {
    fn default() -> Self {
        BosphorusConfig {
            xl_degree: 1,
            subsample_m: 20,
            expansion_delta_m: 4,
            karnaugh_vars: 8,
            xor_cut_length: 5,
            clause_cut_length: 5,
            sat_conflict_budget: 2_000,
            sat_budget_increment: 2_000,
            sat_budget_max: 20_000,
            max_iterations: 16,
            pass_order: vec![PassKind::Xl, PassKind::ElimLin, PassKind::Sat],
            groebner_max_reductions: 5_000,
            groebner_max_basis_size: 500,
            groebner_max_degree: 4,
            emit_xor_constraints: false,
            rng_seed: 0xB05F0405,
            presolve: true,
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
            xl_degree: 1,
            subsample_m: 30,
            expansion_delta_m: 4,
            karnaugh_vars: 8,
            xor_cut_length: 5,
            clause_cut_length: 5,
            sat_conflict_budget: 10_000,
            sat_budget_increment: 10_000,
            sat_budget_max: 100_000,
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
        assert_eq!(c.xl_degree, 1);
        assert_eq!(c.subsample_m, 30);
        assert_eq!(c.expansion_delta_m, 4);
        assert_eq!(c.karnaugh_vars, 8);
        assert_eq!(c.xor_cut_length, 5);
        assert_eq!(c.clause_cut_length, 5);
        assert_eq!(c.sat_conflict_budget, 10_000);
        assert_eq!(c.sat_budget_max, 100_000);
    }

    #[test]
    fn default_is_scaled_down_but_same_shape() {
        let d = BosphorusConfig::default();
        let p = BosphorusConfig::paper_defaults();
        assert_eq!(d.xl_degree, p.xl_degree);
        assert_eq!(d.karnaugh_vars, p.karnaugh_vars);
        assert!(d.sat_conflict_budget <= p.sat_conflict_budget);
        assert!(d.subsample_m <= p.subsample_m);
    }

    #[test]
    fn exhaustive_disables_subsampling_in_practice() {
        assert_eq!(BosphorusConfig::exhaustive().subsample_m, 63);
    }

    #[test]
    fn presolve_defaults_on_everywhere() {
        assert!(BosphorusConfig::default().presolve);
        assert!(BosphorusConfig::paper_defaults().presolve);
        assert!(BosphorusConfig::exhaustive().presolve);
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
