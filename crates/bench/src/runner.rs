//! The per-instance runner: direct solving vs solving through Bosphorus,
//! with every SAT model checked against the input.

use std::time::{Duration, Instant};

use bosphorus::{anf_to_cnf, AnfPropagator, Bosphorus, BosphorusConfig, PreprocessStatus};
use bosphorus_anf::{Assignment, PolynomialSystem};
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

/// One benchmark instance: an ANF system or a CNF formula.
#[derive(Debug)]
pub enum Instance {
    /// An ANF system (the cipher families).
    Anf(PolynomialSystem),
    /// A CNF formula (the SAT-2017-style experiment: Bosphorus acts as a CNF
    /// preprocessor).
    Cnf(CnfFormula),
}

impl Instance {
    /// Whether `model` satisfies the instance. An ANF instance reads it
    /// over the ANF variables, a CNF instance over the CNF variables; ANF
    /// variable i is CNF variable i in every conversion, so a solver's model
    /// of the converted CNF can be checked as it is.
    pub fn is_satisfied_by(&self, model: &Assignment) -> bool {
        match self {
            Instance::Anf(system) => system.is_satisfied_by(model),
            Instance::Cnf(cnf) => cnf.evaluate(model.as_bits()) == Ok(true),
        }
    }
}

/// A final answer before it is checked and scored.
enum Verdict {
    Sat(Assignment),
    Unsat,
    Unknown,
}

/// Solves an instance with the given approach and solver configuration.
///
/// # Panics
///
/// Panics, naming the arm and the solver, if a SAT answer's model does not
/// satisfy the instance, so that a wrong answer never counts as solved.
pub fn solve_instance(
    instance: &Instance,
    approach: Approach,
    solver_config: &SolverConfig,
    settings: &RunSettings,
) -> InstanceOutcome {
    let start = Instant::now();
    let (verdict, preprocessing_time) = match approach {
        Approach::Direct => {
            let solver = match instance {
                Instance::Anf(system) => {
                    let propagator = AnfPropagator::new(system.num_vars());
                    anf_to_cnf(system, &propagator, &settings.bosphorus).solver(solver_config)
                }
                Instance::Cnf(cnf) => Solver::from_formula(solver_config.clone(), cnf),
            };
            (run_solver(solver, settings), Duration::ZERO)
        }
        Approach::WithBosphorus => {
            let config = settings.bosphorus.clone();
            let mut engine = match instance {
                Instance::Anf(system) => Bosphorus::new(system.clone(), config),
                Instance::Cnf(cnf) => Bosphorus::from_cnf(cnf, config),
            };
            let status = engine.preprocess();
            let preprocessing_time = start.elapsed();
            let verdict = match status {
                PreprocessStatus::Solved(model) => Verdict::Sat(model),
                PreprocessStatus::Unsat => Verdict::Unsat,
                // No cancel token is set here, so Interrupted cannot occur;
                // treated as undecided for robustness.
                PreprocessStatus::Interrupted => Verdict::Unknown,
                PreprocessStatus::Simplified => {
                    match run_solver(engine.to_cnf().solver(solver_config), settings) {
                        Verdict::Sat(model) => Verdict::Sat(engine.reconstruct_assignment(&model)),
                        other => other,
                    }
                }
            };
            (verdict, preprocessing_time)
        }
    };
    let total_time = start.elapsed();
    let result = match verdict {
        Verdict::Sat(model) => {
            assert!(
                instance.is_satisfied_by(&model),
                "the {} arm with {} returned a model that falsifies the input",
                approach.label(),
                solver_config.name
            );
            Some(true)
        }
        Verdict::Unsat => Some(false),
        Verdict::Unknown => None,
    };
    InstanceOutcome {
        result,
        total_time,
        preprocessing_time,
    }
}

/// Runs `solver` under the final conflict cap; a SAT verdict carries the
/// model over every solver variable.
fn run_solver(mut solver: Solver, settings: &RunSettings) -> Verdict {
    solver.set_conflict_budget(Some(settings.final_conflict_cap));
    match solver.solve() {
        SolveResult::Sat => {
            let model = solver.model().expect("SAT implies a model");
            Verdict::Sat(Assignment::from_bits(model.iter().copied()))
        }
        SolveResult::Unsat => Verdict::Unsat,
        SolveResult::Unknown => Verdict::Unknown,
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
        // An UNSAT system and the SAT worked example of Section II-E.
        for (text, expected) in [
            (
                "x0*x1 + x2; x1 + x2 + 1; x0*x2 + x0 + x1; x2*x3 + x0; x3 + x1;",
                false,
            ),
            (
                "x1*x2 + x3 + x4 + 1; x1*x2*x3 + x1 + x3 + 1; x1*x3 + x3*x4*x5 + x3; \
                 x2*x3 + x3*x5 + 1; x2*x3 + x5 + 1;",
                true,
            ),
        ] {
            let instance = Instance::Anf(PolynomialSystem::parse(text).expect("parses"));
            for config in [SolverConfig::minimal(), SolverConfig::xor_gauss()] {
                let direct = solve_instance(&instance, Approach::Direct, &config, &settings());
                let with = solve_instance(&instance, Approach::WithBosphorus, &config, &settings());
                assert_eq!(direct.result, Some(expected), "config {}", config.name);
                assert_eq!(with.result, Some(expected), "config {}", config.name);
                assert!(with.preprocessing_time <= with.total_time);
            }
        }
    }

    #[test]
    fn both_approaches_agree_on_unsat_cnf() {
        let cnf = CnfFormula::parse_dimacs("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
            .expect("parses");
        let instance = Instance::Cnf(cnf);
        for approach in Approach::both() {
            let outcome = solve_instance(
                &instance,
                approach,
                &SolverConfig::aggressive(),
                &settings(),
            );
            assert_eq!(outcome.result, Some(false), "{}", approach.label());
        }
    }

    #[test]
    fn the_instance_check_accepts_models_and_rejects_falsifying_assignments() {
        // x0 = 1, x1 = 0, x2 = 1 is the only solution of the ANF.
        let anf =
            Instance::Anf(PolynomialSystem::parse("x0 + 1; x0*x1; x1 + x2 + 1;").expect("parses"));
        assert!(anf.is_satisfied_by(&Assignment::from_bits([true, false, true])));
        assert!(!anf.is_satisfied_by(&Assignment::from_bits([true, true, true])));
        // DIMACS (1 ∨ 2) ∧ ¬1: variable 0 is false and variable 1 true.
        let cnf =
            Instance::Cnf(CnfFormula::parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n").expect("parses"));
        assert!(cnf.is_satisfied_by(&Assignment::from_bits([false, true])));
        assert!(!cnf.is_satisfied_by(&Assignment::from_bits([true, true])));
        // A model that does not cover every CNF variable is rejected.
        assert!(!cnf.is_satisfied_by(&Assignment::from_bits([false])));
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
