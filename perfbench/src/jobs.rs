//! One job: parse the generated text, run one arm on it, and report the
//! verdict with the time spent in each layer. [`check`] then validates the
//! answer against the input and the generator's ground truth.

use std::time::{Duration, Instant};

use bosphorus::{
    anf_to_cnf, AnfPropagator, Bosphorus, BosphorusConfig, EngineStats, PreprocessStatus,
};
use bosphorus_anf::{Assignment, Polynomial, PolynomialSystem};
use bosphorus_cnf::CnfFormula;
use bosphorus_sat::{SolveResult, Solver, SolverConfig, SolverStats};

use crate::trace::{cpu_time, timed, timed_pipeline, PassLog, PassSpan};
use crate::workloads::{Arm, Instance, Source};

/// Conflict cap of the final solve (`RunSettings::final_conflict_cap` of the
/// Table II harness, justified in `crates/bench/DESIGN.md`).
pub const FINAL_CONFLICT_CAP: u64 = 200_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A model over the input's variables.
    Sat(Vec<bool>),
    Unsat,
    /// The final solve hit [`FINAL_CONFLICT_CAP`].
    Capped,
    /// Preprocessing reached its fixed point (preprocess-only jobs).
    Simplified,
}

impl Verdict {
    pub fn decided(&self) -> bool {
        matches!(self, Verdict::Sat(_) | Verdict::Unsat)
    }

    fn code(&self) -> u64 {
        match self {
            Verdict::Sat(_) => 1,
            Verdict::Unsat => 2,
            Verdict::Capped => 3,
            Verdict::Simplified => 4,
        }
    }
}

/// Time spent in the layers the benchmark calls directly.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub anf_parse: Duration,
    pub cnf_parse: Duration,
    pub cnf_to_anf: Duration,
    pub anf_to_cnf: Duration,
    /// Engine construction plus `preprocess`.
    pub preprocess: Duration,
    /// Solver construction, the capped search and model read-back.
    pub sat_solve: Duration,
}

pub struct Outcome {
    pub verdict: Verdict,
    pub wall: Duration,
    /// CPU time of the same interval as `wall`.
    pub cpu: Duration,
    pub layers: Layers,
    pub facts: Vec<Polynomial>,
    /// Preprocessing statistics (`None` on the direct arm).
    pub engine: Option<EngineStats>,
    /// Pass spans (traced runs only).
    pub passes: Vec<PassSpan>,
    /// Size of the CNF handed to the final solve, or emitted.
    pub cnf_clauses: usize,
    pub cnf_vars: usize,
    /// Statistics of the final solve, if one ran.
    pub sat: Option<SolverStats>,
}

impl Outcome {
    /// The counts that must repeat exactly for the same input: verdict,
    /// iterations, facts, in-loop and final conflicts.
    pub fn fingerprint(&self) -> [u64; 5] {
        let (iterations, loop_conflicts) = self
            .engine
            .as_ref()
            .map_or((0, 0), |e| (e.iterations as u64, e.sat_conflicts));
        [
            self.verdict.code(),
            iterations,
            self.facts.len() as u64,
            loop_conflicts,
            self.sat.as_ref().map_or(0, |s| s.conflicts),
        ]
    }
}

enum Parsed {
    Anf(PolynomialSystem),
    Cnf(CnfFormula),
}

/// Runs `arm` on `instance`. With `traced`, preprocessing drives the
/// standard passes wrapped in timing passes instead of calling
/// [`Bosphorus::preprocess`].
pub fn run(instance: &Instance, arm: Arm, traced: bool) -> Result<Outcome, String> {
    let config = BosphorusConfig::default();
    let started = Instant::now();
    let cpu_started = cpu_time();
    let mut layers = Layers::default();
    let parsed = match &instance.source {
        Source::Anf(text) => {
            let (system, time) = timed(|| PolynomialSystem::parse(text));
            layers.anf_parse = time;
            Parsed::Anf(system.map_err(|e| format!("ANF parse: {e}"))?)
        }
        Source::Cnf(text) => {
            let (cnf, time) = timed(|| CnfFormula::parse_dimacs(text));
            layers.cnf_parse = time;
            Parsed::Cnf(cnf.map_err(|e| format!("DIMACS parse: {e}"))?)
        }
    };
    let mut outcome = Outcome {
        verdict: Verdict::Simplified,
        wall: Duration::ZERO,
        cpu: Duration::ZERO,
        layers,
        facts: Vec::new(),
        engine: None,
        passes: Vec::new(),
        cnf_clauses: 0,
        cnf_vars: 0,
        sat: None,
    };
    if arm == Arm::Direct {
        let converted;
        let (cnf, num_vars) = match &parsed {
            Parsed::Anf(system) => {
                let propagator = AnfPropagator::new(system.num_vars());
                let (conversion, time) = timed(|| anf_to_cnf(system, &propagator, &config));
                outcome.layers.anf_to_cnf = time;
                converted = conversion.cnf;
                (&converted, system.num_vars())
            }
            Parsed::Cnf(cnf) => (cnf, cnf.num_vars()),
        };
        outcome.cnf_clauses = cnf.num_clauses();
        outcome.cnf_vars = cnf.num_vars();
        let ((verdict, stats), time) = timed(|| {
            let (result, stats) = capped_solve(cnf);
            let verdict = match result {
                Ok(model) => Verdict::Sat(model[..num_vars].to_vec()),
                Err(verdict) => verdict,
            };
            (verdict, stats)
        });
        outcome.layers.sat_solve = time;
        outcome.verdict = verdict;
        outcome.sat = Some(stats);
    } else {
        let from_cnf = matches!(parsed, Parsed::Cnf(_));
        let (mut engine, time) = timed(|| match parsed {
            Parsed::Anf(system) => Bosphorus::new(system, config.clone()),
            Parsed::Cnf(cnf) => Bosphorus::from_cnf(&cnf, config.clone()),
        });
        if from_cnf {
            outcome.layers.cnf_to_anf = time;
        } else {
            outcome.layers.preprocess += time;
        }
        let log = PassLog::default();
        let (status, time) = timed(|| {
            if traced {
                engine.preprocess_with(&mut timed_pipeline(&config, &log))
            } else {
                engine.preprocess()
            }
        });
        outcome.layers.preprocess += time;
        outcome.verdict = match status {
            PreprocessStatus::Solved(assignment) => Verdict::Sat(assignment.as_bits().to_vec()),
            PreprocessStatus::Unsat => Verdict::Unsat,
            PreprocessStatus::Interrupted => {
                return Err("preprocessing interrupted without a cancel token".into())
            }
            PreprocessStatus::Simplified => {
                let (conversion, time) = timed(|| engine.to_cnf());
                outcome.layers.anf_to_cnf = time;
                outcome.cnf_clauses = conversion.cnf.num_clauses();
                outcome.cnf_vars = conversion.cnf.num_vars();
                if arm == Arm::Preprocess {
                    Verdict::Simplified
                } else {
                    let ((verdict, stats), time) = timed(|| {
                        let (result, stats) = capped_solve(&conversion.cnf);
                        let verdict = match result {
                            Ok(model) => {
                                let partial = Assignment::from_bits(
                                    (0..engine.original_num_vars())
                                        .map(|v| model.get(v).copied().unwrap_or(false)),
                                );
                                let full = engine.reconstruct_assignment(&partial);
                                Verdict::Sat(full.as_bits().to_vec())
                            }
                            Err(verdict) => verdict,
                        };
                        (verdict, stats)
                    });
                    outcome.layers.sat_solve = time;
                    outcome.sat = Some(stats);
                    verdict
                }
            }
        };
        outcome.facts = engine.learnt_facts().to_vec();
        outcome.engine = Some(engine.stats().clone());
        outcome.passes = log.take();
    }
    outcome.wall = started.elapsed();
    outcome.cpu = cpu_time() - cpu_started;
    Ok(outcome)
}

/// The final solve: `SolverConfig::aggressive()` capped at
/// [`FINAL_CONFLICT_CAP`]. `Ok` carries the model of a SAT answer, `Err` the
/// verdict of any other.
fn capped_solve(cnf: &CnfFormula) -> (Result<Vec<bool>, Verdict>, SolverStats) {
    let mut solver = Solver::from_formula(SolverConfig::aggressive(), cnf);
    solver.set_conflict_budget(Some(FINAL_CONFLICT_CAP));
    let result = match solver.solve() {
        SolveResult::Sat => Ok(solver.model().expect("SAT implies a model").to_vec()),
        SolveResult::Unsat => Err(Verdict::Unsat),
        SolveResult::Unknown => Err(Verdict::Capped),
    };
    (result, *solver.stats())
}

/// Checks an outcome against its input: a model must satisfy the original
/// ANF or CNF (re-parsed here, independently of the run), an UNSAT verdict
/// must match the known answer, and every learnt fact must vanish on the
/// generator's witness.
pub fn check(instance: &Instance, outcome: &Outcome) -> Result<(), String> {
    match &outcome.verdict {
        Verdict::Sat(model) => {
            if !instance.satisfiable {
                return Err("SAT verdict on an unsatisfiable instance".into());
            }
            let satisfied = match &instance.source {
                Source::Anf(text) => {
                    let system = PolynomialSystem::parse(text).map_err(|e| e.to_string())?;
                    model.len() >= system.num_vars()
                        && system.is_satisfied_by(&Assignment::from_bits(model.iter().copied()))
                }
                Source::Cnf(text) => {
                    let cnf = CnfFormula::parse_dimacs(text).map_err(|e| e.to_string())?;
                    cnf.evaluate(model).unwrap_or(false)
                }
            };
            if !satisfied {
                return Err("the model does not satisfy the input".into());
            }
        }
        Verdict::Unsat if instance.satisfiable => {
            return Err("UNSAT verdict on a satisfiable instance".into());
        }
        Verdict::Unsat | Verdict::Capped | Verdict::Simplified => {}
    }
    if let Some(witness) = &instance.witness {
        let value = |v| (v as usize) < witness.len() && witness.get(v);
        if let Some(fact) = outcome.facts.iter().find(|fact| fact.evaluate(value)) {
            return Err(format!("learnt fact {fact} does not vanish on the witness"));
        }
    }
    Ok(())
}
