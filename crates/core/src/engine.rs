//! The Bosphorus engine: the XL–ElimLin–SAT fact-learning loop of Fig. 1,
//! expressed as a [`Pipeline`] of [`LearningPass`](crate::LearningPass)
//! objects driven to a fixed point over an incremental [`AnfDatabase`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bosphorus_anf::{
    is_retainable_fact, AnfDatabase, AnfPropagator, Assignment, Polynomial, PolynomialSystem, Var,
};
use bosphorus_cnf::CnfFormula;
use bosphorus_interrupt::CancelToken;
use bosphorus_sat::{SolveResult, SolverConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::anf_to_cnf::{anf_to_cnf, CnfConversion};
use crate::cnf_to_anf::cnf_to_anf;
use crate::pipeline::{PassBudget, PassStatus, Pipeline, Schedule};
use crate::{BosphorusConfig, EngineStats, FinalSolveStats, TimelineEntry};

/// Outcome of [`Bosphorus::preprocess`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreprocessStatus {
    /// Preprocessing alone found a satisfying assignment (over the original
    /// variables).
    Solved(Assignment),
    /// Preprocessing proved the instance unsatisfiable.
    Unsat,
    /// The fixed point was reached without deciding the instance; the
    /// simplified ANF/CNF should be handed to a SAT solver.
    Simplified,
    /// The cancellation token tripped (deadline, SIGINT/SIGTERM or an
    /// explicit cancel) before the fixed point. The database is consistent — only
    /// fully-committed facts were applied — so the simplified ANF/CNF can
    /// still be dumped and is equisatisfiable with the input; it is simply
    /// less processed than an uninterrupted run would have left it.
    Interrupted,
}

/// Outcome of [`Bosphorus::solve`] (preprocessing followed by a final,
/// unbounded SAT call).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveStatus {
    /// A satisfying assignment over the original variables.
    Sat(Assignment),
    /// The instance is unsatisfiable.
    Unsat,
    /// The cancellation token tripped before a decision; the partial
    /// preprocessing result is consistent (see
    /// [`PreprocessStatus::Interrupted`]).
    Interrupted,
}

/// The Bosphorus preprocessing and solving engine.
///
/// The engine owns the *master* ANF copy of the problem inside an
/// [`AnfDatabase`]; only ANF propagation rewrites it, while XL, ElimLin and
/// the conflict-bounded SAT step operate on copies and feed learnt facts
/// back (Section III-A of the paper). The techniques themselves are
/// [`LearningPass`](crate::LearningPass) objects in a [`Pipeline`]; the
/// engine merely drives the pipeline until no pass learns anything new.
/// [`Bosphorus::preprocess`] uses the pipeline described by
/// [`BosphorusConfig::pass_order`]; [`Bosphorus::preprocess_with`] accepts a
/// custom one.
///
/// # Examples
///
/// ```
/// use bosphorus::{Bosphorus, BosphorusConfig, PreprocessStatus};
/// use bosphorus_anf::PolynomialSystem;
///
/// // The worked example of Section II-E; preprocessing alone solves it.
/// let system = PolynomialSystem::parse(
///     "x1*x2 + x3 + x4 + 1;
///      x1*x2*x3 + x1 + x3 + 1;
///      x1*x3 + x3*x4*x5 + x3;
///      x2*x3 + x3*x5 + 1;
///      x2*x3 + x5 + 1;",
/// )?;
/// let mut engine = Bosphorus::new(system, BosphorusConfig::default());
/// match engine.preprocess() {
///     PreprocessStatus::Solved(assignment) => {
///         assert!(assignment.get(1) && !assignment.get(5));
///     }
///     other => panic!("expected a solution, got {other:?}"),
/// }
/// # Ok::<(), bosphorus_anf::ParseSystemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Bosphorus {
    original: PolynomialSystem,
    db: AnfDatabase,
    original_num_vars: usize,
    original_cnf: Option<CnfFormula>,
    config: BosphorusConfig,
    learnt_facts: Vec<Polynomial>,
    stats: EngineStats,
    rng: StdRng,
    cancel: CancelToken,
}

impl Bosphorus {
    /// Creates an engine for a problem given in ANF.
    pub fn new(system: PolynomialSystem, config: BosphorusConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.rng_seed);
        let num_vars = system.num_vars();
        Bosphorus {
            original: system.clone(),
            db: AnfDatabase::new(system),
            original_num_vars: num_vars,
            original_cnf: None,
            config,
            learnt_facts: Vec::new(),
            stats: EngineStats::default(),
            rng,
            cancel: CancelToken::never(),
        }
    }

    /// Attaches a cancellation token: every pass and the final SAT call poll
    /// it cooperatively, so tripping it (deadline, SIGINT/SIGTERM, or an
    /// explicit [`CancelToken::cancel`]) makes the engine stop at the next
    /// checkpoint with a consistent partial result
    /// ([`PreprocessStatus::Interrupted`] / [`SolveStatus::Interrupted`]).
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// Creates an engine for a problem given in CNF (the CNF-preprocessor
    /// use-case of Section III-D). The clauses are converted to ANF, cut at
    /// [`CLAUSE_CUT_LENGTH`](crate::CLAUSE_CUT_LENGTH); the original CNF is
    /// kept and returned alongside the processed one by [`Bosphorus::output_cnf`].
    pub fn from_cnf(cnf: &CnfFormula, config: BosphorusConfig) -> Self {
        let conversion = cnf_to_anf(cnf);
        let mut engine = Bosphorus::new(conversion.system, config);
        engine.original_num_vars = conversion.original_vars;
        engine.original_cnf = Some(cnf.clone());
        engine
    }

    /// The incremental database holding the master ANF and the propagation
    /// knowledge, with its revision counter.
    pub fn database(&self) -> &AnfDatabase {
        &self.db
    }

    /// The master ANF after the preprocessing performed so far.
    pub fn processed_system(&self) -> &PolynomialSystem {
        self.db.system()
    }

    /// Number of variables of the original problem (before any auxiliary
    /// variables introduced by CNF→ANF conversion).
    pub fn original_num_vars(&self) -> usize {
        self.original_num_vars
    }

    /// The ANF propagation state (determined variables and equivalences).
    pub fn propagator(&self) -> &AnfPropagator {
        self.db.propagator()
    }

    /// All facts learnt so far (in the order they were added to the master
    /// copy).
    pub fn learnt_facts(&self) -> &[Polynomial] {
        &self.learnt_facts
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Runs the fact-learning pipeline of Fig. 1 until the fixed point (no
    /// new facts), a solution, a contradiction, or the iteration limit.
    ///
    /// The pipeline is built from [`BosphorusConfig::pass_order`]; use
    /// [`Bosphorus::preprocess_with`] to supply a custom pipeline (e.g. one
    /// containing a pass the configuration cannot name).
    pub fn preprocess(&mut self) -> PreprocessStatus {
        let mut pipeline = Pipeline::standard(&self.config);
        self.preprocess_with(&mut pipeline)
    }

    /// Runs a caller-supplied pipeline to the fixed point.
    ///
    /// Every call starts the loop's sizes (the SAT conflict budget, XL and
    /// ElimLin's subsample size) afresh from the configuration. Pass state
    /// (revision bookkeeping, the SAT pass's skip memo) lives in the
    /// pipeline: handing the same pipeline to a second call keeps its
    /// revision memory, so already-converged passes skip immediately.
    pub fn preprocess_with(&mut self, pipeline: &mut Pipeline) -> PreprocessStatus {
        let mut budget = PassBudget::with_rng(&self.config, self.rng.clone())
            .with_cancel_token(self.cancel.clone());
        let status = self.drive(pipeline, &mut budget);
        self.rng = budget.into_rng();
        status
    }

    /// The fixed-point driver: run every pass in order, commit and propagate
    /// its facts, and stop when a full iteration learns nothing. The loop's
    /// sizes and its stop rule are the [`Schedule`]'s: the driver records
    /// after every pass whether it committed a fact and starts each
    /// iteration with nothing committed, and an iteration that ends with
    /// nothing committed is quiet. The loop also stops, before its first
    /// iteration or after any commit, once propagation has emptied the
    /// database: nothing is left for a pass to read, and the model is read
    /// off the propagator.
    ///
    /// Each pass runs inside `catch_unwind`: a panicking pass is marked
    /// poisoned (skipped for the rest of the run, recorded in
    /// [`EngineStats::poisoned_passes`]) instead of tearing down the whole
    /// preprocessing — its facts from previous runs are already committed
    /// and remain valid.
    fn drive(&mut self, pipeline: &mut Pipeline, budget: &mut PassBudget) -> PreprocessStatus {
        // Initial ANF propagation on the input.
        if self.propagate_master() {
            return PreprocessStatus::Unsat;
        }
        let (mut iterations, mut quiet) = (0, false);
        while !self.db.is_empty() && !Schedule::stops(&self.config, iterations, quiet) {
            if budget.cancel_token().is_cancelled() {
                self.stats.interrupted = true;
                return PreprocessStatus::Interrupted;
            }
            iterations += 1;
            self.stats.iterations += 1;
            budget.schedule = budget.schedule.next_iteration();
            for index in 0..pipeline.len() {
                if pipeline.is_poisoned(index) {
                    continue;
                }
                let pass = &mut pipeline.passes_mut()[index];
                let name = pass.name();
                let started = Instant::now();
                let run = catch_unwind(AssertUnwindSafe(|| pass.run(&mut self.db, &*budget)));
                let elapsed = started.elapsed();
                // Commit facts first (a Ran pass's full results, an
                // Interrupted pass's fully-committed prefix), then record
                // the timeline entry once for every run — the recorded
                // revision is the post-commit one.
                let (status, added) = match run {
                    Ok(outcome) => {
                        self.stats.record_pass(name, &outcome, elapsed);
                        let commits =
                            matches!(outcome.status, PassStatus::Ran | PassStatus::Interrupted);
                        let (added, known) = if commits {
                            self.add_facts(outcome.facts)
                        } else {
                            (0, 0)
                        };
                        self.stats.record_facts(name, added);
                        self.stats.record_known_facts(name, known);
                        (Some(outcome.status), added)
                    }
                    // The pass panicked mid-run. The database may hold a
                    // half-applied rewrite only if the pass mutates it
                    // directly; the built-in passes work on copies and
                    // return facts, so the master copy is intact.
                    Err(_) => {
                        self.stats.record_poisoned(name, elapsed);
                        (None, 0)
                    }
                };
                self.stats.record_timeline(TimelineEntry {
                    iteration: self.stats.iterations,
                    pass: name.to_string(),
                    revision: self.db.revision(),
                    facts: added,
                    skipped: status == Some(PassStatus::Skipped),
                    poisoned: status.is_none(),
                    time: elapsed,
                    subsample_m: budget.subsample_m(),
                    sat_budget: budget.sat_conflicts(),
                });
                // Poison a panicked pass and carry on with the rest.
                let Some(status) = status else {
                    pipeline.mark_poisoned(index);
                    continue;
                };
                budget.schedule = budget.schedule.after_pass(added);
                match status {
                    PassStatus::Skipped => continue,
                    PassStatus::Unsat => return PreprocessStatus::Unsat,
                    PassStatus::Solved(partial) => {
                        // The paper exits the loop and provides the solution
                        // when the SAT solver finds one; the solution is not
                        // used to simplify the ANF because it may not be
                        // unique.
                        let full = self.checked_solution(&partial);
                        self.stats.decided_during_preprocessing = true;
                        return PreprocessStatus::Solved(full);
                    }
                    PassStatus::Interrupted => {
                        // Propagate the committed prefix so the dumped
                        // ANF/CNF reflects every fact, then stop cleanly.
                        if added > 0 && self.propagate_master() {
                            return PreprocessStatus::Unsat;
                        }
                        self.stats.interrupted = true;
                        return PreprocessStatus::Interrupted;
                    }
                    PassStatus::Ran => {}
                }
                pass.facts_committed(added, budget);
                if added > 0 {
                    if self.propagate_master() {
                        return PreprocessStatus::Unsat;
                    }
                    if self.db.is_empty() {
                        break;
                    }
                }
            }
            quiet = !budget.schedule.committed;
        }
        if self.db.is_empty() && !self.db.has_contradiction() {
            // Everything is determined: read the solution off the propagator.
            let model = self.complete_assignment(
                &Assignment::all_false(self.original.num_vars()),
                self.original.num_vars(),
            );
            if self.satisfies_input(&model) {
                let assignment = self.restrict_to_original_vars(model);
                self.stats.decided_during_preprocessing = true;
                return PreprocessStatus::Solved(assignment);
            }
        }
        PreprocessStatus::Simplified
    }

    /// Converts the current master ANF (plus the propagation state) to CNF.
    pub fn to_cnf(&self) -> CnfConversion {
        anf_to_cnf(self.db.system(), self.db.propagator(), &self.config)
    }

    /// The CNF output of the preprocessor: the processed CNF (with learnt
    /// facts), plus the original CNF when the engine was built with
    /// [`Bosphorus::from_cnf`] (the paper returns both, since a
    /// CNF→ANF→CNF round-trip alone can be a suboptimal description).
    pub fn output_cnf(&self) -> (CnfFormula, Option<&CnfFormula>) {
        (self.to_cnf().cnf, self.original_cnf.as_ref())
    }

    /// Runs preprocessing and then a final (unbounded) SAT call on the
    /// processed CNF with the given solver configuration.
    pub fn solve(&mut self, solver_config: &SolverConfig) -> SolveStatus {
        match self.preprocess() {
            PreprocessStatus::Solved(a) => return SolveStatus::Sat(a),
            PreprocessStatus::Unsat => return SolveStatus::Unsat,
            PreprocessStatus::Interrupted => return SolveStatus::Interrupted,
            PreprocessStatus::Simplified => {}
        }
        let conversion = self.to_cnf();
        let mut solver = conversion.solver(solver_config);
        solver.set_cancel_token(self.cancel.clone());
        let start = Instant::now();
        let result = solver.solve();
        self.stats.final_solve = Some(FinalSolveStats {
            solver: *solver.stats(),
            time: start.elapsed(),
        });
        match result {
            SolveResult::Sat => {
                let model = solver.model().expect("SAT implies a model");
                let partial = Assignment::from_bits(
                    (0..self.original.num_vars()).map(|v| model.get(v).copied().unwrap_or(false)),
                );
                SolveStatus::Sat(self.checked_solution(&partial))
            }
            SolveResult::Unsat => SolveStatus::Unsat,
            SolveResult::Unknown => {
                // The final SAT call runs without a conflict budget, so the
                // only way it returns Unknown is a tripped cancel token.
                debug_assert!(self.cancel.is_cancelled());
                self.stats.interrupted = true;
                SolveStatus::Interrupted
            }
        }
    }

    /// Completes a partial assignment of the remaining free variables into an
    /// assignment of every original variable, filling in values that
    /// propagation determined and following equivalence chains.
    pub fn reconstruct_assignment(&self, partial: &Assignment) -> Assignment {
        self.complete_assignment(partial, self.original_num_vars)
    }

    /// [`Bosphorus::reconstruct_assignment`] over the first `num_vars`
    /// variables; `self.original.num_vars()` also covers the clause-cutting
    /// variables a CNF input's ANF form adds.
    fn complete_assignment(&self, partial: &Assignment, num_vars: usize) -> Assignment {
        let propagator = self.db.propagator();
        let value_of = |v: Var| -> bool {
            if let Some(value) = propagator.value(v) {
                value
            } else if let Some((root, negated)) = propagator.equivalence(v) {
                let base = if (root as usize) < partial.len() {
                    partial.get(root)
                } else {
                    false
                };
                base ^ negated
            } else if (v as usize) < partial.len() {
                partial.get(v)
            } else {
                false
            }
        };
        Assignment::from_bits((0..num_vars as Var).map(value_of))
    }

    /// Whether `model`, over every variable of the original ANF, satisfies
    /// the input: the original ANF and, for [`Bosphorus::from_cnf`], the
    /// original CNF as well.
    fn satisfies_input(&self, model: &Assignment) -> bool {
        self.original.is_satisfied_by(model)
            && self.original_cnf.as_ref().map_or(true, |cnf| {
                cnf.evaluate(&model.as_bits()[..self.original_num_vars]) == Ok(true)
            })
    }

    /// The assignment of the original problem's variables within `model`.
    fn restrict_to_original_vars(&self, model: Assignment) -> Assignment {
        Assignment::from_bits(model.as_bits()[..self.original_num_vars].iter().copied())
    }

    /// Completes a SAT model of the processed problem (`partial`, over the
    /// ANF variables) and checks it against the input before it is handed
    /// out. A model that fails the check is an internal error: every pass
    /// and conversion is meant to preserve solutions.
    ///
    /// # Panics
    ///
    /// Panics if the completed model does not satisfy the original input.
    fn checked_solution(&self, partial: &Assignment) -> Assignment {
        let model = self.complete_assignment(partial, self.original.num_vars());
        assert!(
            self.satisfies_input(&model),
            "internal error: the SAT model does not satisfy the original input"
        );
        self.restrict_to_original_vars(model)
    }

    /// Adds retainable facts to the master copy, and logs the ones it did
    /// not already hold or imply in the learnt-fact log (as returned, not
    /// reduced). Returns how many were new and how many were already known.
    fn add_facts(&mut self, facts: Vec<Polynomial>) -> (usize, usize) {
        let (mut added, mut known) = (0, 0);
        for fact in facts {
            if !is_retainable_fact(&fact) && !fact.is_one() {
                continue;
            }
            if self.db.push_unique(fact.clone()) {
                self.learnt_facts.push(fact);
                added += 1;
            } else {
                known += 1;
            }
        }
        (added, known)
    }

    /// Runs ANF propagation on the master copy; returns `true` when a
    /// contradiction was found.
    fn propagate_master(&mut self) -> bool {
        let outcome = self.db.propagate();
        self.stats
            .record_driver_propagation(outcome.new_assignments, outcome.new_equivalences);
        outcome.contradiction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PassKind;
    use crate::PassOutcome;
    use bosphorus_sat::Solver;

    fn section_2e() -> PolynomialSystem {
        PolynomialSystem::parse(
            "x1*x2 + x3 + x4 + 1;
             x1*x2*x3 + x1 + x3 + 1;
             x1*x3 + x3*x4*x5 + x3;
             x2*x3 + x3*x5 + 1;
             x2*x3 + x5 + 1;",
        )
        .expect("paper system parses")
    }

    #[test]
    fn section_2e_example_is_solved_by_preprocessing() {
        let mut engine = Bosphorus::new(section_2e(), BosphorusConfig::default());
        match engine.preprocess() {
            PreprocessStatus::Solved(assignment) => {
                assert!(assignment.get(1));
                assert!(assignment.get(2));
                assert!(assignment.get(3));
                assert!(assignment.get(4));
                assert!(!assignment.get(5));
            }
            other => panic!("expected Solved, got {other:?}"),
        }
        assert!(engine.stats().total_facts() > 0);
        assert!(engine.stats().iterations >= 1);
    }

    #[test]
    fn unsatisfiable_system_is_detected() {
        let system = PolynomialSystem::parse("x0*x1 + 1; x0 + x1 + 1;").expect("parses");
        let mut engine = Bosphorus::new(system, BosphorusConfig::default());
        assert_eq!(engine.preprocess(), PreprocessStatus::Unsat);
    }

    #[test]
    fn solve_agrees_with_brute_force_on_small_systems() {
        let texts = [
            "x0*x1 + x2; x1 + x2 + 1; x0*x2 + x0 + x1;",
            "x0 + x1; x1 + x2; x0*x2 + 1;",
            "x0*x1*x2 + 1; x0 + x1;",
            "x0*x1 + x0 + x1; x2 + 1; x0*x2 + x1;",
        ];
        for text in texts {
            let system = PolynomialSystem::parse(text).expect("parses");
            let n = system.num_vars();
            let expected_sat = (0u64..(1 << n)).any(|bits| {
                let a = Assignment::from_bits((0..n).map(|i| (bits >> i) & 1 == 1));
                system.is_satisfied_by(&a)
            });
            let mut engine = Bosphorus::new(system.clone(), BosphorusConfig::default());
            match engine.solve(&SolverConfig::aggressive()) {
                SolveStatus::Sat(assignment) => {
                    assert!(expected_sat, "engine claimed SAT on {text}");
                    assert!(
                        system.is_satisfied_by(&assignment),
                        "returned assignment violates {text}"
                    );
                }
                SolveStatus::Unsat => assert!(!expected_sat, "engine claimed UNSAT on {text}"),
                SolveStatus::Interrupted => panic!("no cancel token was set for {text}"),
            }
        }
    }

    #[test]
    fn learnt_facts_are_consequences_of_the_original_system() {
        let system = PolynomialSystem::parse(
            "x0*x1 + x2; x1 + x2 + 1; x0*x2 + x0 + x1; x2*x3 + x0; x3 + x1;",
        )
        .expect("parses");
        let mut engine = Bosphorus::new(system.clone(), BosphorusConfig::default());
        let _ = engine.preprocess();
        let n = system.num_vars();
        for bits in 0u64..(1 << n) {
            let a = Assignment::from_bits((0..n).map(|i| (bits >> i) & 1 == 1));
            if system.is_satisfied_by(&a) {
                for fact in engine.learnt_facts() {
                    assert!(
                        !fact.evaluate(|v| a.get(v)),
                        "learnt fact {fact} violated by a solution of the input"
                    );
                }
            }
        }
    }

    #[test]
    fn cnf_preprocessor_mode_roundtrip() {
        // A small satisfiable CNF; preprocessing must preserve
        // satisfiability and the output CNF must include the original one.
        let cnf = CnfFormula::parse_dimacs("p cnf 4 5\n1 2 0\n-1 3 0\n-2 -3 0\n3 4 0\n-3 -4 0\n")
            .expect("parses");
        let mut engine = Bosphorus::from_cnf(&cnf, BosphorusConfig::default());
        let status = engine.preprocess();
        assert_ne!(status, PreprocessStatus::Unsat);
        let (processed, original) = engine.output_cnf();
        assert!(original.is_some());
        // The processed CNF must be satisfiable (the original is).
        let mut solver = Solver::from_formula(SolverConfig::aggressive(), &processed);
        assert_eq!(solver.solve(), SolveResult::Sat);
    }

    #[test]
    fn cnf_preprocessor_detects_unsat() {
        let cnf = CnfFormula::parse_dimacs("p cnf 1 2\n1 0\n-1 0\n").expect("parses");
        let mut engine = Bosphorus::from_cnf(&cnf, BosphorusConfig::default());
        assert_eq!(engine.preprocess(), PreprocessStatus::Unsat);
    }

    #[test]
    fn table1_system_is_fully_determined_by_preprocessing() {
        let system = PolynomialSystem::parse("x1*x2 + x1 + 1; x2*x3 + x3;").expect("parses");
        let mut engine = Bosphorus::new(system, BosphorusConfig::default());
        match engine.preprocess() {
            PreprocessStatus::Solved(a) => {
                assert!(a.get(1));
                assert!(!a.get(2));
                assert!(!a.get(3));
            }
            other => panic!("expected Solved, got {other:?}"),
        }
    }

    #[test]
    fn stats_track_fact_sources() {
        let mut engine = Bosphorus::new(section_2e(), BosphorusConfig::default());
        let _ = engine.preprocess();
        let stats = engine.stats();
        assert!(
            stats.facts_from("xl") > 0,
            "XL learns facts on the paper example"
        );
        assert_eq!(stats.total_facts(), engine.learnt_facts().len());
    }

    #[test]
    fn empty_system_is_trivially_solved() {
        let mut engine = Bosphorus::new(PolynomialSystem::new(), BosphorusConfig::default());
        match engine.preprocess() {
            PreprocessStatus::Solved(a) => assert_eq!(a.len(), 0),
            other => panic!("expected Solved, got {other:?}"),
        }
    }

    /// A chain that propagation leaves alone and XL does not empty, so every
    /// pass of the first iteration gets its turn.
    fn chain() -> PolynomialSystem {
        PolynomialSystem::parse("x0*x1 + x2; x1*x2 + x3;").expect("parses")
    }

    #[test]
    fn an_emptied_database_stops_the_loop() {
        // Table I: the initial propagation determines every variable, so no
        // iteration runs and the model is read off the propagator.
        let system = PolynomialSystem::parse("x1*x2 + x1 + 1; x2*x3 + x3;").expect("parses");
        let mut engine = Bosphorus::new(system.clone(), BosphorusConfig::default());
        match engine.preprocess() {
            PreprocessStatus::Solved(a) => assert!(system.is_satisfied_by(&a)),
            other => panic!("expected Solved, got {other:?}"),
        }
        assert_eq!(engine.stats().iterations, 0);
        assert!(engine.stats().passes.is_empty(), "no pass ran");
        assert!(engine.stats().timeline.is_empty());

        // Section II-E: XL's facts empty the database, so ElimLin and SAT
        // never run.
        let mut engine = Bosphorus::new(section_2e(), BosphorusConfig::default());
        assert!(matches!(engine.preprocess(), PreprocessStatus::Solved(_)));
        assert_eq!(engine.stats().iterations, 1);
        let names: Vec<&str> = engine
            .stats()
            .timeline
            .iter()
            .map(|e| e.pass.as_str())
            .collect();
        assert_eq!(names, ["xl"]);
    }

    #[test]
    fn per_pass_stats_follow_the_configured_order() {
        let mut engine = Bosphorus::new(chain(), BosphorusConfig::default());
        let _ = engine.preprocess();
        let names: Vec<&str> = engine
            .stats()
            .passes
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(names, vec!["xl", "elimlin", "sat"]);
        let xl = engine.stats().pass("xl").expect("xl entry");
        assert!(xl.runs >= 1);
    }

    #[test]
    fn disabling_a_pass_removes_its_stats_entry() {
        let config = BosphorusConfig {
            pass_order: vec![PassKind::ElimLin, PassKind::Sat],
            ..BosphorusConfig::default()
        };
        let mut engine = Bosphorus::new(section_2e(), config);
        let status = engine.preprocess();
        assert_ne!(status, PreprocessStatus::Unsat);
        assert!(engine.stats().pass("xl").is_none(), "XL never registered");
        assert!(engine.stats().pass("elimlin").is_some());
    }

    #[test]
    fn reordered_pipeline_still_solves_and_attributes_facts_differently() {
        // ElimLin-first runs (and is recorded) before XL on the Section II-E
        // example, and the instance is still decided.
        let config = BosphorusConfig {
            pass_order: vec![PassKind::ElimLin, PassKind::Xl, PassKind::Sat],
            ..BosphorusConfig::default()
        };
        let mut engine = Bosphorus::new(section_2e(), config);
        match engine.preprocess() {
            PreprocessStatus::Solved(a) => {
                assert!(a.get(1) && !a.get(5));
            }
            other => panic!("expected Solved, got {other:?}"),
        }
        let names: Vec<&str> = engine
            .stats()
            .passes
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(names[0], "elimlin");
        assert!(engine.stats().pass("elimlin").expect("entry").runs >= 1);
    }

    #[test]
    fn groebner_pass_can_run_inside_the_pipeline() {
        let config = BosphorusConfig {
            pass_order: vec![PassKind::Groebner, PassKind::Sat],
            ..BosphorusConfig::default()
        };
        let system = chain();
        let mut engine = Bosphorus::new(system.clone(), config);
        match engine.preprocess() {
            PreprocessStatus::Solved(a) => assert!(system.is_satisfied_by(&a)),
            other => panic!("expected Solved, got {other:?}"),
        }
        let gb = engine.stats().pass("groebner").expect("groebner entry");
        assert!(gb.runs >= 1);
    }

    #[test]
    fn groebner_only_pipeline_detects_unsat() {
        let config = BosphorusConfig {
            pass_order: vec![PassKind::Groebner],
            ..BosphorusConfig::default()
        };
        let system = PolynomialSystem::parse("x0*x1 + x0 + 1; x1 + 1;").expect("parses");
        let mut engine = Bosphorus::new(system, config);
        assert_eq!(engine.preprocess(), PreprocessStatus::Unsat);
    }

    #[test]
    fn converged_passes_skip_instead_of_rescanning() {
        // Once XL and ElimLin have brought the chain to its fixed point,
        // re-running preprocessing with the same (stateful) pipeline skips
        // every pass.
        let system = chain();
        let config = BosphorusConfig {
            // Keep the SAT pass out: it would decide the chain.
            pass_order: vec![PassKind::Xl, PassKind::ElimLin],
            ..BosphorusConfig::exhaustive()
        };
        let mut engine = Bosphorus::new(system, config.clone());
        let mut pipeline = Pipeline::standard(&config);
        let first = engine.preprocess_with(&mut pipeline);
        assert_eq!(first, PreprocessStatus::Simplified);
        let runs_before: usize = engine.stats().passes.iter().map(|p| p.runs).sum();
        let _ = engine.preprocess_with(&mut pipeline);
        let runs_after: usize = engine.stats().passes.iter().map(|p| p.runs).sum();
        let skips: usize = engine.stats().passes.iter().map(|p| p.skips).sum();
        assert_eq!(
            runs_before, runs_after,
            "no pass re-ran on the unchanged database"
        );
        assert!(skips > 0, "the second call skipped instead");
    }

    #[test]
    fn database_revision_advances_with_learning() {
        let mut engine = Bosphorus::new(section_2e(), BosphorusConfig::default());
        assert_eq!(engine.database().revision(), 0);
        let _ = engine.preprocess();
        assert!(
            engine.database().revision() > 0,
            "learning mutates the database"
        );
    }

    #[test]
    fn pre_cancelled_token_interrupts_before_any_pass_runs() {
        let mut engine = Bosphorus::new(section_2e(), BosphorusConfig::default());
        let token = CancelToken::new();
        token.cancel();
        engine.set_cancel_token(token);
        assert_eq!(engine.preprocess(), PreprocessStatus::Interrupted);
        assert!(engine.stats().interrupted);
        assert_eq!(engine.stats().iterations, 0, "no pipeline iteration ran");
        assert!(engine.learnt_facts().is_empty());
        // The database is still the (propagated) input: a fresh engine on
        // the same system reaches the same verdict as the paper's example.
        let mut fresh = Bosphorus::new(
            engine.processed_system().clone(),
            BosphorusConfig::default(),
        );
        assert!(matches!(fresh.preprocess(), PreprocessStatus::Solved(_)));
    }

    #[test]
    fn interrupted_engine_solve_reports_interrupted() {
        let mut engine = Bosphorus::new(section_2e(), BosphorusConfig::default());
        let token = CancelToken::new();
        token.cancel();
        engine.set_cancel_token(token);
        assert_eq!(
            engine.solve(&SolverConfig::aggressive()),
            SolveStatus::Interrupted
        );
        assert!(engine.stats().interrupted);
    }

    #[test]
    fn deadline_token_interrupts_mid_run_consistently() {
        // A token tripped after a fixed number of checkpoint polls lands in
        // the middle of some pass; whatever was committed must be a genuine
        // consequence of the input (checked against the unique solution).
        let solution = Assignment::from_bits([false, true, true, true, true, false]);
        for trip in [1u64, 2, 3, 5, 8, 13, 21] {
            let mut engine = Bosphorus::new(section_2e(), BosphorusConfig::default());
            engine.set_cancel_token(CancelToken::new().cancel_after_checks(trip));
            let status = engine.preprocess();
            if status == PreprocessStatus::Interrupted {
                assert!(engine.stats().interrupted, "trip at {trip}");
            }
            for fact in engine.learnt_facts() {
                assert!(
                    !fact.evaluate(|v| solution.get(v)),
                    "fact {fact} committed at trip {trip} is not a consequence"
                );
            }
        }
    }

    /// A pass that panics on its first run and would learn a bogus fact on
    /// any later one — poisoning must prevent the second run entirely.
    struct ExplodingPass {
        runs: std::cell::Cell<usize>,
    }

    impl crate::LearningPass for ExplodingPass {
        fn name(&self) -> &'static str {
            "exploding"
        }

        fn run(&mut self, _db: &mut AnfDatabase, _budget: &PassBudget) -> PassOutcome {
            let runs = self.runs.get() + 1;
            self.runs.set(runs);
            panic!("pass blew up on run {runs}");
        }
    }

    #[test]
    fn panicking_pass_is_poisoned_and_the_run_continues() {
        // Silence the unwind's default stderr backtrace for this test.
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let config = BosphorusConfig::default();
        let mut engine = Bosphorus::new(section_2e(), config.clone());
        // The exploding pass goes FIRST so it provably gets its chance to
        // panic before the real passes decide the instance.
        let mut pipeline = Pipeline::new();
        pipeline.push(Box::new(ExplodingPass {
            runs: std::cell::Cell::new(0),
        }));
        for kind in config.pass_order.clone() {
            pipeline.push_kind(kind, &config);
        }
        let status = engine.preprocess_with(&mut pipeline);
        std::panic::set_hook(previous);
        // The remaining passes still solve the Section II-E system.
        assert!(
            matches!(status, PreprocessStatus::Solved(_)),
            "run did not survive the panicking pass: {status:?}"
        );
        assert_eq!(
            engine.stats().poisoned_passes,
            vec!["exploding".to_string()]
        );
        assert!(
            engine
                .stats()
                .timeline
                .iter()
                .any(|entry| entry.pass == "exploding" && entry.poisoned),
            "the poisoned run is recorded in the timeline"
        );
        let poisoned_runs: usize = engine
            .stats()
            .timeline
            .iter()
            .filter(|entry| entry.pass == "exploding")
            .count();
        assert_eq!(poisoned_runs, 1, "a poisoned pass never runs again");
    }

    #[test]
    fn the_input_check_rejects_corrupted_models() {
        // ANF input: the Section II-E solution passes, one flipped bit fails.
        let engine = Bosphorus::new(section_2e(), BosphorusConfig::default());
        let mut model = Assignment::from_bits([false, true, true, true, true, false]);
        assert!(engine.satisfies_input(&model));
        model.set(5, true);
        assert!(!engine.satisfies_input(&model));

        // CNF input: (x0 ∨ x1) ∧ ¬x0.
        let cnf = CnfFormula::parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n").expect("parses");
        let mut engine = Bosphorus::from_cnf(&cnf, BosphorusConfig::default());
        let model = Assignment::from_bits([false, true]);
        assert!(engine.satisfies_input(&model));
        assert!(!engine.satisfies_input(&Assignment::from_bits([true, true])));
        // The original CNF is checked too, not just its ANF form.
        engine.original_cnf = Some(CnfFormula::parse_dimacs("p cnf 2 1\n-2 0\n").expect("parses"));
        assert!(!engine.satisfies_input(&model));
    }

    #[test]
    #[should_panic(expected = "does not satisfy the original input")]
    fn a_corrupted_sat_model_is_an_internal_error() {
        let engine = Bosphorus::new(section_2e(), BosphorusConfig::default());
        let corrupted = Assignment::from_bits([false, true, true, true, true, true]);
        let _ = engine.checked_solution(&corrupted);
    }
}
