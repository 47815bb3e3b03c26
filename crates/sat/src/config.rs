//! Solver configuration presets.

/// Restart strategy used by the CDCL search loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartStrategy {
    /// Restart after `base`, then `base * 1.5`, `base * 1.5²`, ... conflicts
    /// (the MiniSat 2.2 scheme).
    Geometric,
    /// Restart after `base * luby(i)` conflicts following the Luby sequence
    /// (1, 1, 2, 1, 1, 2, 4, ...).
    Luby,
}

/// Tunable parameters of the [`Solver`](crate::Solver).
///
/// Use one of the three presets — [`SolverConfig::minimal`],
/// [`SolverConfig::aggressive`] or [`SolverConfig::xor_gauss`] — as a starting
/// point and override individual fields as needed. Recursive conflict-clause
/// minimization (CCMin), which every preset used, is always on.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Human-readable name of the configuration, reported in benchmark rows.
    pub name: &'static str,
    /// Exponential decay applied to variable activities (0 < decay < 1).
    pub var_decay: f64,
    /// Restart strategy.
    pub restart: RestartStrategy,
    /// Base interval (in conflicts) between restarts.
    pub restart_base: u64,
    /// Initial ratio of learnt clauses to problem clauses that triggers a
    /// database reduction (grows geometrically afterwards). A non-finite
    /// ratio (`f64::INFINITY`) never reduces the database.
    pub learnt_ratio: f64,
    /// Re-validate every minimized learnt clause by cloning the solver,
    /// asserting the clause's negation at a fresh decision level and checking
    /// that unit propagation refutes it. Very expensive (one solver clone per
    /// conflict) — meant for the differential-testing harness and
    /// `debug_assertions` builds, never for production runs.
    pub verify_minimization: bool,
    /// Whether the saved phase of a variable is reused when deciding it.
    pub phase_saving: bool,
    /// Whether the solver takes native XOR constraints: a solver built by
    /// `CnfConversion::solver` (crate `bosphorus`) receives each XOR piece
    /// of the encoding as one watched constraint instead of its clause
    /// block, and the solver combines its XORs by top-level Gauss–Jordan
    /// elimination at the start of each search and periodically after.
    /// XORs given through [`Solver::add_xor`](crate::Solver::add_xor) are
    /// propagated either way.
    pub xor_reasoning: bool,
}

impl SolverConfig {
    /// A minimalistic configuration comparable to MiniSat 2.2: geometric
    /// restarts, no clause-database reduction, no XOR reasoning.
    pub fn minimal() -> Self {
        SolverConfig {
            name: "minisat-like",
            var_decay: 0.95,
            restart: RestartStrategy::Geometric,
            restart_base: 100,
            learnt_ratio: f64::INFINITY,
            verify_minimization: false,
            phase_saving: false,
            xor_reasoning: false,
        }
    }

    /// A high-performance configuration standing in for Lingeling: Luby
    /// restarts, clause-database reduction and phase saving.
    pub fn aggressive() -> Self {
        SolverConfig {
            name: "lingeling-like",
            var_decay: 0.92,
            restart: RestartStrategy::Luby,
            restart_base: 64,
            learnt_ratio: 0.4,
            verify_minimization: false,
            phase_saving: true,
            xor_reasoning: false,
        }
    }

    /// The aggressive configuration plus native XOR reasoning, standing in
    /// for CryptoMiniSat 5 (which "natively performs Gauss–Jordan
    /// elimination" in the paper's evaluation).
    pub fn xor_gauss() -> Self {
        SolverConfig {
            name: "cryptominisat-like",
            xor_reasoning: true,
            ..SolverConfig::aggressive()
        }
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig::aggressive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_documented_ways() {
        let minimal = SolverConfig::minimal();
        let aggressive = SolverConfig::aggressive();
        let xor = SolverConfig::xor_gauss();
        assert!(!minimal.learnt_ratio.is_finite());
        assert!(aggressive.learnt_ratio.is_finite());
        assert!(!minimal.xor_reasoning && !aggressive.xor_reasoning);
        assert!(xor.xor_reasoning);
        assert_eq!(minimal.restart, RestartStrategy::Geometric);
        assert_eq!(aggressive.restart, RestartStrategy::Luby);
        assert_ne!(minimal.name, aggressive.name);
        assert_ne!(aggressive.name, xor.name);
    }

    #[test]
    fn default_is_aggressive() {
        assert_eq!(SolverConfig::default(), SolverConfig::aggressive());
    }

    #[test]
    fn verification_is_off_by_default() {
        for config in [
            SolverConfig::minimal(),
            SolverConfig::aggressive(),
            SolverConfig::xor_gauss(),
        ] {
            assert!(
                !config.verify_minimization,
                "{}: the per-conflict self-check is opt-in",
                config.name
            );
        }
    }
}
