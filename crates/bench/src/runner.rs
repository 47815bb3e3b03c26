//! Per-instance runners: direct solving vs solving through Bosphorus.

use std::time::{Duration, Instant};

use bosphorus::{anf_to_cnf, AnfPropagator, Bosphorus, BosphorusConfig, PreprocessStatus};
use bosphorus_anf::PolynomialSystem;
use bosphorus_cnf::CnfFormula;
use bosphorus_sat::{SolveResult, Solver, SolverConfig};

use crate::par2::ScoredRun;

/// Whether the fact-learning loop runs before the final SAT call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// Convert to CNF (if needed) and hand the instance straight to the
    /// solver — the "w/o" rows of Table II.
    Direct,
    /// Run the Bosphorus loop first and solve the processed CNF — the "w"
    /// rows of Table II.
    WithBosphorus,
}

impl Approach {
    /// The two rows of every Table II block.
    pub fn both() -> [Approach; 2] {
        [Approach::Direct, Approach::WithBosphorus]
    }

    /// The label used in the table ("w/o" or "w").
    pub fn label(self) -> &'static str {
        match self {
            Approach::Direct => "w/o",
            Approach::WithBosphorus => "w",
        }
    }
}

/// Resource limits and parameters of a benchmark run.
#[derive(Debug, Clone)]
pub struct RunSettings {
    /// Configuration of the Bosphorus preprocessing loop.
    pub bosphorus: BosphorusConfig,
    /// Conflict cap for the final SAT call; exceeding it counts as unsolved
    /// (the replicable stand-in for the paper's 5,000-second timeout).
    pub final_conflict_cap: u64,
    /// Nominal per-instance timeout used by the PAR-2 formula.
    pub nominal_timeout: Duration,
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings {
            bosphorus: BosphorusConfig::default(),
            final_conflict_cap: 200_000,
            nominal_timeout: Duration::from_secs(5),
        }
    }
}

/// The outcome of one instance under one approach and solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceOutcome {
    /// `Some(true)` for SAT, `Some(false)` for UNSAT, `None` for unsolved
    /// within the conflict cap.
    pub result: Option<bool>,
    /// Total wall-clock time, including preprocessing when applicable.
    pub total_time: Duration,
    /// Time spent inside the Bosphorus loop (zero for direct runs).
    pub preprocessing_time: Duration,
}

impl InstanceOutcome {
    /// Converts the outcome into a PAR-2 run record.
    pub fn scored(&self) -> ScoredRun {
        ScoredRun {
            duration: self.total_time,
            solved: self.result.is_some(),
            satisfiable: self.result == Some(true),
        }
    }
}

/// Solves an ANF instance with the given approach and solver configuration.
pub fn solve_anf_instance(
    system: &PolynomialSystem,
    approach: Approach,
    solver_config: &SolverConfig,
    settings: &RunSettings,
) -> InstanceOutcome {
    let start = Instant::now();
    match approach {
        Approach::Direct => {
            let propagator = AnfPropagator::new(system.num_vars());
            let conversion = anf_to_cnf(system, &propagator, &settings.bosphorus);
            let result = run_solver(conversion.solver(solver_config), settings);
            InstanceOutcome {
                result,
                total_time: start.elapsed(),
                preprocessing_time: Duration::ZERO,
            }
        }
        Approach::WithBosphorus => {
            let mut engine = Bosphorus::new(system.clone(), settings.bosphorus.clone());
            let status = engine.preprocess();
            let preprocessing_time = start.elapsed();
            let result = match status {
                PreprocessStatus::Solved(_) => Some(true),
                PreprocessStatus::Unsat => Some(false),
                // No cancel token is set here, so Interrupted cannot occur;
                // treated as undecided for robustness.
                PreprocessStatus::Interrupted => None,
                PreprocessStatus::Simplified => {
                    let conversion = engine.to_cnf();
                    run_solver(conversion.solver(solver_config), settings)
                }
            };
            InstanceOutcome {
                result,
                total_time: start.elapsed(),
                preprocessing_time,
            }
        }
    }
}

/// Solves a CNF instance with the given approach (the SAT-2017-style
/// experiment: Bosphorus acts as a CNF preprocessor).
pub fn solve_cnf_instance(
    cnf: &CnfFormula,
    approach: Approach,
    solver_config: &SolverConfig,
    settings: &RunSettings,
) -> InstanceOutcome {
    let start = Instant::now();
    match approach {
        Approach::Direct => {
            let result = run_solver(Solver::from_formula(solver_config.clone(), cnf), settings);
            InstanceOutcome {
                result,
                total_time: start.elapsed(),
                preprocessing_time: Duration::ZERO,
            }
        }
        Approach::WithBosphorus => {
            let mut engine = Bosphorus::from_cnf(cnf, settings.bosphorus.clone());
            let status = engine.preprocess();
            let preprocessing_time = start.elapsed();
            let result = match status {
                PreprocessStatus::Solved(_) => Some(true),
                PreprocessStatus::Unsat => Some(false),
                PreprocessStatus::Interrupted => None,
                PreprocessStatus::Simplified => {
                    let conversion = engine.to_cnf();
                    run_solver(conversion.solver(solver_config), settings)
                }
            };
            InstanceOutcome {
                result,
                total_time: start.elapsed(),
                preprocessing_time,
            }
        }
    }
}

fn run_solver(mut solver: Solver, settings: &RunSettings) -> Option<bool> {
    solver.set_conflict_budget(Some(settings.final_conflict_cap));
    match solver.solve() {
        SolveResult::Sat => Some(true),
        SolveResult::Unsat => Some(false),
        SolveResult::Unknown => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings() -> RunSettings {
        RunSettings::default()
    }

    #[test]
    fn both_approaches_agree_on_a_small_anf() {
        let system = PolynomialSystem::parse(
            "x0*x1 + x2; x1 + x2 + 1; x0*x2 + x0 + x1; x2*x3 + x0; x3 + x1;",
        )
        .expect("parses");
        for config in [SolverConfig::minimal(), SolverConfig::xor_gauss()] {
            let direct = solve_anf_instance(&system, Approach::Direct, &config, &settings());
            let with = solve_anf_instance(&system, Approach::WithBosphorus, &config, &settings());
            assert_eq!(direct.result, with.result, "config {}", config.name);
            assert!(direct.result.is_some());
            assert!(with.preprocessing_time <= with.total_time);
        }
    }

    #[test]
    fn both_approaches_agree_on_unsat_cnf() {
        let cnf = CnfFormula::parse_dimacs("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
            .expect("parses");
        let direct = solve_cnf_instance(
            &cnf,
            Approach::Direct,
            &SolverConfig::aggressive(),
            &settings(),
        );
        let with = solve_cnf_instance(
            &cnf,
            Approach::WithBosphorus,
            &SolverConfig::aggressive(),
            &settings(),
        );
        assert_eq!(direct.result, Some(false));
        assert_eq!(with.result, Some(false));
    }

    #[test]
    fn scored_run_conversion() {
        let outcome = InstanceOutcome {
            result: Some(true),
            total_time: Duration::from_millis(10),
            preprocessing_time: Duration::ZERO,
        };
        let scored = outcome.scored();
        assert!(scored.solved && scored.satisfiable);
        let unsolved = InstanceOutcome {
            result: None,
            total_time: Duration::from_millis(10),
            preprocessing_time: Duration::ZERO,
        };
        assert!(!unsolved.scored().solved);
    }

    #[test]
    fn approach_labels_match_the_paper() {
        assert_eq!(Approach::Direct.label(), "w/o");
        assert_eq!(Approach::WithBosphorus.label(), "w");
        assert_eq!(Approach::both().len(), 2);
    }
}
