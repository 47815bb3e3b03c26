//! The composable fact-learning pipeline.
//!
//! The Fig. 1 loop of the paper — ANF propagation, XL, ElimLin and a
//! conflict-bounded SAT call feeding learnt facts into one shared problem
//! representation — is expressed here as a sequence of [`LearningPass`]
//! objects registered in a [`Pipeline`]. The engine
//! ([`Bosphorus::preprocess`](crate::Bosphorus::preprocess)) merely drives
//! the pipeline to a fixed point; which techniques run, in which order, and
//! under which budgets is data ([`BosphorusConfig::pass_order`]) instead of
//! control flow.
//!
//! Every pass reads the shared [`AnfDatabase`] and may return learnt facts;
//! the driver commits them (after the retainability filter of Section II)
//! and re-propagates. Because the database stamps each mutation with a
//! [`Revision`](bosphorus_anf::Revision), a pass can record the revision it
//! last read and *skip* its work when nothing changed since — provided its
//! previous run was deterministic (see
//! [`XlOutcome::subsampled`](crate::XlOutcome::subsampled)). A skipped
//! subsample-style pass still draws its (unused) subsample from the shared
//! randomness so that skip decisions never shift the random stream of later
//! passes; the expensive part — building and eliminating the linearised
//! matrix — is what the skip saves.

use std::cell::RefCell;
use std::fmt;
use std::str::FromStr;

use bosphorus_anf::{AnfDatabase, Assignment, Polynomial, Revision};
use bosphorus_gf2::{GaussStats, PresolveStats};
use bosphorus_groebner::{groebner_basis_cancellable, GroebnerConfig, GroebnerOutcome};
use bosphorus_interrupt::CancelToken;
use bosphorus_sat::SolverConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::elimlin::elimlin_learn;
use crate::satstep::{sat_step, SatStepStatus};
use crate::xl::{subsample, xl_learn};
use crate::BosphorusConfig;

/// Identifier of a built-in pass, used to describe pass order and
/// enable/disable as configuration data ([`BosphorusConfig::pass_order`])
/// and to parse `--passes` lists on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// ANF propagation (Section II-A). The driver already propagates after
    /// every fact commit, so this is only needed in explicit custom orders.
    Propagate,
    /// eXtended Linearization (Section II-B).
    Xl,
    /// ElimLin (Section II-C).
    ElimLin,
    /// Conflict-bounded SAT (Section II-D).
    Sat,
    /// The optional degree-bounded Buchberger/Gröbner pass (not part of the
    /// paper's loop; off by default).
    Groebner,
}

impl PassKind {
    /// Every built-in pass kind.
    pub const ALL: [PassKind; 5] = [
        PassKind::Propagate,
        PassKind::Xl,
        PassKind::ElimLin,
        PassKind::Sat,
        PassKind::Groebner,
    ];

    /// The canonical lower-case name (also what [`FromStr`] accepts).
    pub fn name(self) -> &'static str {
        match self {
            PassKind::Propagate => "propagate",
            PassKind::Xl => "xl",
            PassKind::ElimLin => "elimlin",
            PassKind::Sat => "sat",
            PassKind::Groebner => "groebner",
        }
    }

    /// Parses a comma-separated pass list (the `--passes` syntax shared by
    /// the CLI and the benchmark driver), e.g. `"elimlin,xl,sat"`. Empty
    /// items are ignored; an effectively empty list is an error.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown pass, or explaining that at
    /// least one pass is required.
    pub fn parse_list(list: &str) -> Result<Vec<PassKind>, String> {
        let kinds = list
            .split(',')
            .filter(|part| !part.trim().is_empty())
            .map(PassKind::from_str)
            .collect::<Result<Vec<_>, _>>()?;
        if kinds.is_empty() {
            return Err("--passes requires at least one pass".to_string());
        }
        Ok(kinds)
    }
}

impl fmt::Display for PassKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PassKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "propagate" | "prop" => Ok(PassKind::Propagate),
            "xl" => Ok(PassKind::Xl),
            "elimlin" | "el" => Ok(PassKind::ElimLin),
            "sat" => Ok(PassKind::Sat),
            "groebner" | "grobner" | "gb" => Ok(PassKind::Groebner),
            other => Err(format!(
                "unknown pass {other:?} (expected one of propagate, xl, elimlin, sat, groebner)"
            )),
        }
    }
}

/// The sizes of the Fig. 1 loop: the subsample size `M` of XL and ElimLin
/// and the SAT conflict budget `C`, plus whether the current iteration has
/// committed a new fact yet.
///
/// The driver owns the schedule and moves it only through these pure rules;
/// passes read the current sizes off their [`PassBudget`]. The sizes are
/// set at the start of a run and do not move (see
/// [`BosphorusConfig::sat_conflict_budget`] for why `C` stays flat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Schedule {
    pub(crate) subsample_m: u32,
    pub(crate) sat_conflicts: u64,
    /// Whether a pass of the current iteration has committed a new fact.
    pub(crate) committed: bool,
}

impl Schedule {
    /// The sizes a run starts with.
    pub(crate) fn start(config: &BosphorusConfig) -> Self {
        Schedule {
            subsample_m: config.subsample_m,
            sat_conflicts: config.sat_conflict_budget,
            committed: false,
        }
    }

    /// The schedule at the start of the next iteration: the sizes carry
    /// over, and nothing is committed yet.
    pub(crate) fn next_iteration(self) -> Self {
        Schedule {
            committed: false,
            ..self
        }
    }

    /// The schedule after a pass's facts were committed, `added` of them
    /// new.
    pub(crate) fn after_pass(self, added: usize) -> Self {
        Schedule {
            committed: self.committed || added > 0,
            ..self
        }
    }

    /// Whether the loop stops after `iterations` iterations, `quiet` when
    /// the last of them committed no new fact. A limit of 0 runs none.
    pub(crate) fn stops(config: &BosphorusConfig, iterations: usize, quiet: bool) -> bool {
        quiet || iterations >= config.max_iterations
    }
}

/// The run-scoped resources shared by every pass: the loop's current sizes,
/// the subsampling randomness and the cancellation token.
///
/// Passes read the sizes and never move them: the driver writes its
/// schedule in between passes. The rng is interior-mutable so that the
/// fixed `&PassBudget` in [`LearningPass::run`] suffices: XL and ElimLin
/// draw their subsamples from one shared stream so the default pipeline
/// consumes randomness exactly like the pre-pipeline engine did.
///
/// The [`CancelToken`] is the anytime-preprocessing hook: every built-in
/// pass polls it at coarse checkpoints and winds down transactionally when
/// it trips (see [`PassStatus::Interrupted`]). The default token never
/// cancels and costs nothing to poll.
#[derive(Debug)]
pub struct PassBudget {
    pub(crate) schedule: Schedule,
    rng: RefCell<StdRng>,
    cancel: CancelToken,
}

impl PassBudget {
    /// Builds the budget from a configuration, seeding the randomness from
    /// [`BosphorusConfig::rng_seed`].
    pub fn new(config: &BosphorusConfig) -> Self {
        PassBudget::with_rng(config, StdRng::seed_from_u64(config.rng_seed))
    }

    /// Builds the budget with an explicit random state (used by the engine
    /// so that repeated `preprocess` calls continue one stream).
    pub fn with_rng(config: &BosphorusConfig, rng: StdRng) -> Self {
        PassBudget {
            schedule: Schedule::start(config),
            rng: RefCell::new(rng),
            cancel: CancelToken::never(),
        }
    }

    /// Attaches a cancellation token; passes poll it at their checkpoints.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The cancellation token shared by every pass of this run.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The current SAT conflict budget `C`.
    pub fn sat_conflicts(&self) -> u64 {
        self.schedule.sat_conflicts
    }

    /// The current subsample size `M` of XL and ElimLin.
    pub fn subsample_m(&self) -> u32 {
        self.schedule.subsample_m
    }

    /// Runs `f` with the shared random stream.
    pub fn with_rng_mut<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.rng.borrow_mut())
    }

    /// Consumes the budget, returning the (advanced) random state.
    pub fn into_rng(self) -> StdRng {
        self.rng.into_inner()
    }
}

/// How a pass's run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PassStatus {
    /// The pass executed; any learnt facts are in
    /// [`PassOutcome::facts`].
    Ran,
    /// Nothing the pass reads changed since its last (deterministic) run,
    /// so the work was skipped.
    Skipped,
    /// The pass found a satisfying assignment of the current system (over
    /// the ANF variables); the driver reconstructs the original variables
    /// and stops.
    Solved(Assignment),
    /// The pass proved the system unsatisfiable.
    Unsat,
    /// The pass observed cancellation (deadline, SIGINT/SIGTERM or an
    /// explicit [`CancelToken::cancel`]) and wound down early. Interruption is
    /// *transactional*: [`PassOutcome::facts`] contains only fully-committed
    /// work — facts that the uninterrupted run would also have learnt — so
    /// the driver can commit them and stop with a consistent database.
    Interrupted,
}

/// What one [`LearningPass::run`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassOutcome {
    /// Termination status.
    pub status: PassStatus,
    /// Learnt facts to commit to the database (the driver applies the
    /// Section II retainability filter and deduplication).
    pub facts: Vec<Polynomial>,
    /// GF(2) elimination work performed by this run.
    pub gauss: GaussStats,
    /// Sparse-presolve reductions performed by this run's eliminations
    /// (all-zero for passes without a GF(2) stage).
    pub presolve: PresolveStats,
    /// SAT conflicts spent by this run.
    pub sat_conflicts: u64,
    /// Clauses learnt by this run's SAT solving (deleted ones included).
    pub sat_learnt: u64,
    /// Learnt clauses deleted by SAT database reductions in this run.
    pub sat_removed: u64,
    /// Literals removed from SAT conflict clauses by CCMin in this run.
    pub sat_minimized_lits: u64,
    /// SAT restarts performed by this run.
    pub sat_restarts: u64,
    /// Value assignments recorded by this run (propagation pass only).
    pub new_assignments: usize,
    /// Equivalences recorded by this run (propagation pass only).
    pub new_equivalences: usize,
}

impl PassOutcome {
    /// An executed run with no results yet (fields are filled in by the
    /// pass).
    pub fn ran() -> Self {
        PassOutcome {
            status: PassStatus::Ran,
            facts: Vec::new(),
            gauss: GaussStats::default(),
            presolve: PresolveStats::default(),
            sat_conflicts: 0,
            sat_learnt: 0,
            sat_removed: 0,
            sat_minimized_lits: 0,
            sat_restarts: 0,
            new_assignments: 0,
            new_equivalences: 0,
        }
    }

    /// A skipped run: nothing read, nothing produced.
    pub fn skipped() -> Self {
        PassOutcome {
            status: PassStatus::Skipped,
            ..PassOutcome::ran()
        }
    }
}

/// One technique of the fact-learning loop, as a pipeline stage.
///
/// A pass owns whatever per-run state it needs (configuration snapshot, the
/// revision it last read); the shared problem lives in the
/// [`AnfDatabase`] and the shared run-scoped resources, the loop's current
/// sizes among them, in the [`PassBudget`].
pub trait LearningPass {
    /// Stable lower-case name, used for per-pass statistics and CLI output.
    fn name(&self) -> &'static str;

    /// Executes (or skips) one round of the technique against the database.
    fn run(&mut self, db: &mut AnfDatabase, budget: &PassBudget) -> PassOutcome;

    /// Called by the driver after this pass ran and its facts were
    /// committed, with the number that were actually new. An observer hook:
    /// the built-in passes do not implement it.
    fn facts_committed(&mut self, _added: usize, _budget: &PassBudget) {}
}

/// ANF propagation as an explicit pass (Section II-A).
///
/// The driver already propagates after every fact commit, so the default
/// pass order does not include this pass; it exists for custom orders that
/// want propagation at specific points.
#[derive(Debug, Default)]
pub struct PropagatePass {
    last_seen: Option<Revision>,
}

impl PropagatePass {
    /// Creates the pass.
    pub fn new() -> Self {
        PropagatePass::default()
    }
}

impl LearningPass for PropagatePass {
    fn name(&self) -> &'static str {
        "propagate"
    }

    fn run(&mut self, db: &mut AnfDatabase, _budget: &PassBudget) -> PassOutcome {
        if self.last_seen == Some(db.revision()) {
            return PassOutcome::skipped();
        }
        let propagation = db.propagate();
        // Propagation runs to a fixed point, so its own rewrite is already
        // incorporated: record the post-run revision.
        self.last_seen = Some(db.revision());
        let mut outcome = PassOutcome::ran();
        outcome.new_assignments = propagation.new_assignments;
        outcome.new_equivalences = propagation.new_equivalences;
        if propagation.contradiction {
            outcome.status = PassStatus::Unsat;
        }
        outcome
    }
}

/// eXtended Linearization as a pass (Section II-B).
///
/// Each run subsamples at the budget's [`PassBudget::subsample_m`].
#[derive(Debug)]
pub struct XlPass {
    config: BosphorusConfig,
    last_seen: Option<Revision>,
    last_exhaustive: bool,
}

impl XlPass {
    /// Creates the pass with a snapshot of the engine configuration.
    pub fn new(config: BosphorusConfig) -> Self {
        XlPass {
            config,
            last_seen: None,
            last_exhaustive: false,
        }
    }
}

impl LearningPass for XlPass {
    fn name(&self) -> &'static str {
        "xl"
    }

    fn run(&mut self, db: &mut AnfDatabase, budget: &PassBudget) -> PassOutcome {
        self.config.subsample_m = budget.subsample_m();
        if self.last_exhaustive && self.last_seen == Some(db.revision()) {
            // The previous run saw the whole system and nothing changed:
            // re-running would reproduce the same (already committed) RREF.
            // Draw the subsample the skipped run would have drawn so the
            // random stream stays independent of skip decisions.
            budget.with_rng_mut(|rng| subsample(db.system(), &self.config, rng));
            return PassOutcome::skipped();
        }
        self.last_seen = Some(db.revision());
        let xl = budget
            .with_rng_mut(|rng| xl_learn(db.system(), &self.config, rng, budget.cancel_token()));
        // An interrupted round must not arm the skip: it neither saw the
        // whole system nor committed the full RREF.
        self.last_exhaustive = !xl.subsampled && !xl.interrupted;
        let mut outcome = PassOutcome::ran();
        outcome.facts = xl.facts;
        outcome.gauss = xl.gauss;
        outcome.presolve = xl.presolve;
        if xl.interrupted {
            outcome.status = PassStatus::Interrupted;
        }
        outcome
    }
}

/// ElimLin as a pass (Section II-C).
///
/// Each run subsamples at the budget's [`PassBudget::subsample_m`].
#[derive(Debug)]
pub struct ElimLinPass {
    config: BosphorusConfig,
    last_seen: Option<Revision>,
    last_exhaustive: bool,
}

impl ElimLinPass {
    /// Creates the pass with a snapshot of the engine configuration.
    pub fn new(config: BosphorusConfig) -> Self {
        ElimLinPass {
            config,
            last_seen: None,
            last_exhaustive: false,
        }
    }
}

impl LearningPass for ElimLinPass {
    fn name(&self) -> &'static str {
        "elimlin"
    }

    fn run(&mut self, db: &mut AnfDatabase, budget: &PassBudget) -> PassOutcome {
        self.config.subsample_m = budget.subsample_m();
        if self.last_exhaustive && self.last_seen == Some(db.revision()) {
            budget.with_rng_mut(|rng| subsample(db.system(), &self.config, rng));
            return PassOutcome::skipped();
        }
        self.last_seen = Some(db.revision());
        let elimlin = budget.with_rng_mut(|rng| {
            elimlin_learn(db.system(), &self.config, rng, budget.cancel_token())
        });
        self.last_exhaustive = !elimlin.subsampled && !elimlin.interrupted;
        let mut outcome = PassOutcome::ran();
        outcome.gauss = elimlin.gauss;
        outcome.presolve = elimlin.presolve;
        if elimlin.contradiction {
            outcome.status = PassStatus::Unsat;
        } else {
            // Facts from completed rounds only (`elimlin_learn` guarantees
            // this), so committing them on interruption is safe.
            outcome.facts = elimlin.facts;
            if elimlin.interrupted {
                outcome.status = PassStatus::Interrupted;
            }
        }
        outcome
    }
}

/// The conflict-bounded SAT step as a pass (Section II-D).
///
/// Each round converts the database to CNF and runs a new search for the
/// full budget `C` ([`sat_step`]) with [`SolverConfig::xor_gauss`], which
/// takes each XOR piece of the encoding as one watched constraint instead
/// of its clause block. It harvests the search's facts and drops it; no
/// solver lives between rounds. The pass remembers only the revision of its
/// last undecided round, and skips a round on that revision: the solver is
/// deterministic and `C` does not move, so that search would end where the
/// last one did. A decided or interrupted round forgets it, so the next
/// round searches again.
#[derive(Debug)]
pub struct SatPass {
    config: BosphorusConfig,
    /// The revision of the last undecided round.
    last_undecided: Option<Revision>,
}

impl SatPass {
    /// Creates the pass. The in-loop SAT calls run the aggressive
    /// restart/activity configuration with native XOR reasoning
    /// ([`SolverConfig::xor_gauss`]), CryptoMiniSat's role in the paper.
    pub fn new(config: BosphorusConfig) -> Self {
        SatPass {
            config,
            last_undecided: None,
        }
    }
}

impl LearningPass for SatPass {
    fn name(&self) -> &'static str {
        "sat"
    }

    fn run(&mut self, db: &mut AnfDatabase, budget: &PassBudget) -> PassOutcome {
        if self.last_undecided == Some(db.revision()) {
            return PassOutcome::skipped();
        }
        let sat = sat_step(
            db.system(),
            db.propagator(),
            &self.config,
            &SolverConfig::xor_gauss(),
            budget.sat_conflicts(),
            budget.cancel_token(),
        );
        self.last_undecided = (sat.status == SatStepStatus::Undecided).then_some(db.revision());
        let mut outcome = PassOutcome::ran();
        outcome.sat_conflicts = sat.conflicts;
        outcome.sat_learnt = sat.learnt_clauses;
        outcome.sat_removed = sat.removed_clauses;
        outcome.sat_minimized_lits = sat.minimized_literals;
        outcome.sat_restarts = sat.restarts;
        match sat.status {
            SatStepStatus::Unsatisfiable => outcome.status = PassStatus::Unsat,
            SatStepStatus::Satisfiable(assignment) => {
                outcome.status = PassStatus::Solved(assignment);
            }
            SatStepStatus::Undecided => outcome.facts = sat.facts,
            SatStepStatus::Interrupted => outcome.status = PassStatus::Interrupted,
        }
        outcome
    }
}

/// The optional degree-bounded Buchberger/Gröbner pass.
///
/// Not part of the paper's loop (the authors use M4GB only as a baseline
/// that times out); here it is a pipeline citizen so the reproduction can
/// experiment with algebraic closures beyond XL — enable it with
/// `pass_order: vec![PassKind::Groebner, ...]` or `--passes groebner,...`.
/// Facts are the retainable-shaped elements of the (possibly partial)
/// basis, which lie in the ideal of the input and are therefore sound.
#[derive(Debug)]
pub struct GroebnerPass {
    config: GroebnerConfig,
    last_seen: Option<Revision>,
}

impl GroebnerPass {
    /// Creates the pass from the engine configuration's Gröbner budget.
    pub fn new(config: &BosphorusConfig) -> Self {
        GroebnerPass {
            config: GroebnerConfig {
                max_reductions: config.groebner_max_reductions,
                max_basis_size: config.groebner_max_basis_size,
                max_degree: config.groebner_max_degree,
            },
            last_seen: None,
        }
    }
}

impl LearningPass for GroebnerPass {
    fn name(&self) -> &'static str {
        "groebner"
    }

    fn run(&mut self, db: &mut AnfDatabase, budget: &PassBudget) -> PassOutcome {
        // Buchberger is deterministic, so an unchanged database always
        // allows the skip.
        if self.last_seen == Some(db.revision()) {
            return PassOutcome::skipped();
        }
        self.last_seen = Some(db.revision());
        let result = groebner_basis_cancellable(db.system(), &self.config, budget.cancel_token());
        let mut outcome = PassOutcome::ran();
        if result.is_inconsistent() {
            outcome.status = PassStatus::Unsat;
        } else if result.outcome == GroebnerOutcome::Interrupted {
            // The partial basis is sound, but which elements it contains
            // depends on where the interreduction was cut; commit nothing so
            // interrupted runs only ever contribute fully-settled facts.
            // Forget the revision so a later run redoes the work.
            self.last_seen = None;
            outcome.status = PassStatus::Interrupted;
        } else {
            outcome.facts = result.learnt_facts();
        }
        outcome
    }
}

/// An ordered sequence of [`LearningPass`] objects.
///
/// The default pipeline ([`Pipeline::standard`]) reproduces the paper's
/// loop; custom pipelines are built by pushing passes (built-in via
/// [`PassKind`], or any `Box<dyn LearningPass>`) in the desired order and
/// handing the result to
/// [`Bosphorus::preprocess_with`](crate::Bosphorus::preprocess_with).
#[derive(Default)]
pub struct Pipeline {
    passes: Vec<Box<dyn LearningPass>>,
    /// Panic-isolation flags, one per pass: a pass whose `run` panicked is
    /// marked poisoned by the driver and skipped for the rest of the run.
    poisoned: Vec<bool>,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// The paper's pipeline for `config`: the passes of
    /// [`BosphorusConfig::pass_order`], in order.
    pub fn standard(config: &BosphorusConfig) -> Self {
        let mut pipeline = Pipeline::new();
        for &kind in &config.pass_order {
            pipeline.push_kind(kind, config);
        }
        pipeline
    }

    /// Appends a built-in pass.
    pub fn push_kind(&mut self, kind: PassKind, config: &BosphorusConfig) {
        let pass: Box<dyn LearningPass> = match kind {
            PassKind::Propagate => Box::new(PropagatePass::new()),
            PassKind::Xl => Box::new(XlPass::new(config.clone())),
            PassKind::ElimLin => Box::new(ElimLinPass::new(config.clone())),
            PassKind::Sat => Box::new(SatPass::new(config.clone())),
            PassKind::Groebner => Box::new(GroebnerPass::new(config)),
        };
        self.push(pass);
    }

    /// Appends an arbitrary pass.
    pub fn push(&mut self, pass: Box<dyn LearningPass>) {
        self.passes.push(pass);
        self.poisoned.push(false);
    }

    /// Marks the pass at `index` poisoned: its `run` panicked and the driver
    /// will skip it for the remainder of the run (and of any later run
    /// reusing this pipeline).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn mark_poisoned(&mut self, index: usize) {
        self.poisoned[index] = true;
    }

    /// Whether the pass at `index` is poisoned.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn is_poisoned(&self, index: usize) -> bool {
        self.poisoned[index]
    }

    /// Number of registered passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Returns `true` when no passes are registered.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// The registered pass names, in run order.
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Mutable access to the passes, in run order (the driver's view).
    pub fn passes_mut(&mut self) -> &mut [Box<dyn LearningPass>] {
        &mut self.passes
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("passes", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosphorus_anf::{PolynomialSystem, Var};
    use rand::RngCore;

    fn db(text: &str) -> AnfDatabase {
        AnfDatabase::new(PolynomialSystem::parse(text).expect("test system parses"))
    }

    fn exhaustive() -> BosphorusConfig {
        BosphorusConfig::exhaustive()
    }

    #[test]
    fn pass_kind_names_roundtrip_through_from_str() {
        for kind in PassKind::ALL {
            assert_eq!(kind.name().parse::<PassKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("nonsense".parse::<PassKind>().is_err());
        assert_eq!("GB".parse::<PassKind>(), Ok(PassKind::Groebner));
    }

    #[test]
    fn standard_pipeline_follows_the_configured_order() {
        let mut config = exhaustive();
        config.pass_order = vec![PassKind::ElimLin, PassKind::Xl];
        let pipeline = Pipeline::standard(&config);
        assert_eq!(pipeline.names(), vec!["elimlin", "xl"]);
    }

    #[test]
    fn the_commit_flag_resets_at_the_next_iteration() {
        let start = Schedule::start(&BosphorusConfig::default());
        assert!(!start.after_pass(0).committed, "a dry pass commits nothing");
        let productive = start.after_pass(1);
        assert!(productive.committed);
        assert!(
            productive.after_pass(0).committed,
            "a later dry pass does not clear the flag"
        );
        assert_eq!(productive.next_iteration(), start, "the sizes carry over");
    }

    #[test]
    fn the_subsample_size_does_not_move() {
        let config = BosphorusConfig {
            subsample_m: 11,
            sat_conflict_budget: 10,
            ..BosphorusConfig::default()
        };
        let mut schedule = Schedule::start(&config);
        assert_eq!(PassBudget::new(&config).subsample_m(), 11);
        for added in [0, 0, 3, 0] {
            schedule = schedule.after_pass(added);
            assert_eq!(
                (schedule.subsample_m, schedule.sat_conflicts),
                (11, 10),
                "after a pass that added {added}"
            );
            schedule = schedule.next_iteration();
            assert_eq!((schedule.subsample_m, schedule.sat_conflicts), (11, 10));
        }
    }

    #[test]
    fn a_quiet_iteration_stops_the_loop() {
        let config = BosphorusConfig::default();
        assert!(!Schedule::stops(&config, 1, false));
        assert!(Schedule::stops(&config, 1, true));
    }

    #[test]
    fn the_loop_stops_at_its_iteration_limit() {
        let config = BosphorusConfig {
            max_iterations: 3,
            ..BosphorusConfig::default()
        };
        assert!(!Schedule::stops(&config, 0, false));
        assert!(!Schedule::stops(&config, 2, false));
        assert!(Schedule::stops(&config, 3, false));
    }

    #[test]
    fn an_iteration_limit_of_zero_runs_nothing() {
        let config = BosphorusConfig {
            max_iterations: 0,
            ..BosphorusConfig::default()
        };
        assert!(Schedule::stops(&config, 0, false));
    }

    #[test]
    fn xl_pass_skips_only_when_nothing_changed() {
        let mut database = db("x1*x2 + x1 + 1; x2*x3 + x3;");
        let config = exhaustive();
        let budget = PassBudget::new(&config);
        let mut pass = XlPass::new(config);
        let first = pass.run(&mut database, &budget);
        assert_eq!(first.status, PassStatus::Ran);
        assert!(!first.facts.is_empty());
        // Nothing was committed: the database is unchanged, so the second
        // run is skipped.
        let second = pass.run(&mut database, &budget);
        assert_eq!(second.status, PassStatus::Skipped);
        // A commit invalidates the skip.
        assert!(database.push_unique("x1 + 1".parse().expect("parses")));
        let third = pass.run(&mut database, &budget);
        assert_eq!(third.status, PassStatus::Ran);
    }

    #[test]
    fn subsampled_xl_never_skips() {
        let config = BosphorusConfig {
            subsample_m: 2,
            ..BosphorusConfig::default()
        };
        let mut database = db("x0*x1 + x0 + 1; x1*x2 + x2; x0 + x2; x1*x0 + x2;");
        let budget = PassBudget::new(&config);
        let mut pass = XlPass::new(config);
        for _ in 0..3 {
            let outcome = pass.run(&mut database, &budget);
            assert_eq!(
                outcome.status,
                PassStatus::Ran,
                "a subsampled run may see a different subsample next time"
            );
        }
    }

    #[test]
    fn elimlin_pass_reports_contradictions_as_unsat() {
        let mut database = db("x0 + x1; x0 + x1 + 1;");
        let config = exhaustive();
        let budget = PassBudget::new(&config);
        let mut pass = ElimLinPass::new(config);
        let outcome = pass.run(&mut database, &budget);
        assert_eq!(outcome.status, PassStatus::Unsat);
    }

    /// Seven pigeons in six holes: unsatisfiable, and far too hard for the
    /// SAT pass to decide in a few hundred conflicts.
    fn pigeonhole_db() -> AnfDatabase {
        let (pigeons, holes) = (7, 6);
        let var = |i: Var, j: Var| Polynomial::variable(i * holes + j);
        let mut system = Vec::new();
        for i in 0..pigeons {
            // Pigeon `i` sits in some hole: the product of the negations
            // vanishes.
            let mut nowhere = Polynomial::one();
            for j in 0..holes {
                nowhere = nowhere * (var(i, j) + Polynomial::one());
            }
            system.push(nowhere);
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    system.push(var(i1, j) * var(i2, j));
                }
            }
        }
        AnfDatabase::new(PolynomialSystem::from_polynomials(system))
    }

    fn small_sat_budget() -> BosphorusConfig {
        BosphorusConfig {
            sat_conflict_budget: 100,
            ..exhaustive()
        }
    }

    #[test]
    fn sat_pass_skips_a_revision_it_already_searched() {
        // The solver is deterministic: on an unchanged revision, the same
        // budget would end the search where the last one ended.
        let config = small_sat_budget();
        let mut database = pigeonhole_db();
        let budget = PassBudget::new(&config);
        let mut pass = SatPass::new(config.clone());
        assert_eq!(pass.run(&mut database, &budget).sat_conflicts, 100);
        let same = pass.run(&mut database, &budget);
        assert_eq!(same.status, PassStatus::Skipped);
        // A second run of the loop starts the same budget afresh: there is
        // still nothing to search for.
        let again = pass.run(&mut database, &PassBudget::new(&config));
        assert_eq!(again.status, PassStatus::Skipped);
    }

    #[test]
    fn sat_pass_reruns_on_a_changed_revision() {
        let config = small_sat_budget();
        let mut database = pigeonhole_db();
        let budget = PassBudget::new(&config);
        let mut pass = SatPass::new(config.clone());
        let first = pass.run(&mut database, &budget);
        let pigeon_0_in_hole_0: Polynomial = "x0 + 1".parse().expect("parses");
        assert!(!first.facts.contains(&pigeon_0_in_hole_0));
        assert!(database.push_unique(pigeon_0_in_hole_0.clone()));
        assert!(!database.propagate().contradiction);
        let rerun = pass.run(&mut database, &budget);
        assert_eq!(rerun.status, PassStatus::Ran);
        assert_eq!(rerun.sat_conflicts, 100);
        assert!(
            rerun.facts.contains(&pigeon_0_in_hole_0),
            "the value is a unit clause of the new encoding: {:?}",
            rerun.facts
        );
    }

    #[test]
    fn the_sat_round_after_an_interrupted_one_runs() {
        let config = small_sat_budget();
        let mut database = pigeonhole_db();
        let mut pass = SatPass::new(config.clone());
        let token = CancelToken::new();
        token.cancel();
        let cancelled = PassBudget::new(&config).with_cancel_token(token);
        let interrupted = pass.run(&mut database, &cancelled);
        assert_eq!(interrupted.status, PassStatus::Interrupted);

        // Same revision, but an interrupted round does not count as a
        // search of it.
        let rerun = pass.run(&mut database, &PassBudget::new(&config));
        assert_eq!(rerun.status, PassStatus::Ran);
        assert_eq!(rerun.sat_conflicts, 100);
    }

    #[test]
    fn groebner_pass_learns_facts_and_detects_unsat() {
        let config = exhaustive();
        let budget = PassBudget::new(&config);
        let mut pass = GroebnerPass::new(&config);

        let mut sat_db = db("x0*x1 + x0 + 1; x1 + x2;");
        let outcome = pass.run(&mut sat_db, &budget);
        assert_eq!(outcome.status, PassStatus::Ran);
        assert!(!outcome.facts.is_empty(), "unit facts surface in the basis");

        let mut pass = GroebnerPass::new(&config);
        let mut unsat_db = db("x0*x1 + x0 + 1; x1 + 1;");
        let outcome = pass.run(&mut unsat_db, &budget);
        assert_eq!(outcome.status, PassStatus::Unsat);
    }

    #[test]
    fn propagate_pass_records_knowledge_and_skips_at_fixpoint() {
        let mut database = db("x0 + 1; x0*x1 + x2;");
        let config = exhaustive();
        let budget = PassBudget::new(&config);
        let mut pass = PropagatePass::new();
        let outcome = pass.run(&mut database, &budget);
        assert_eq!(outcome.status, PassStatus::Ran);
        assert!(outcome.new_assignments >= 1);
        assert_eq!(database.propagator().value(0), Some(true));
        let again = pass.run(&mut database, &budget);
        assert_eq!(again.status, PassStatus::Skipped);
    }

    #[test]
    fn skipping_burns_the_same_randomness_as_running() {
        // Two XL passes over the same (exhaustive) database: one skips its
        // second call, the other is forced to rerun by a revision bump that
        // does not alter the polynomials it reads. Afterwards both budgets
        // must be at the same point of the random stream.
        let config = exhaustive();
        let text = "x1*x2 + x1 + 1; x2*x3 + x3;";

        let mut db_a = db(text);
        let budget_a = PassBudget::new(&config);
        let mut pass_a = XlPass::new(config.clone());
        pass_a.run(&mut db_a, &budget_a);
        assert_eq!(pass_a.run(&mut db_a, &budget_a).status, PassStatus::Skipped);

        let mut db_b = db(text);
        let budget_b = PassBudget::new(&config);
        let mut pass_b = XlPass::new(config.clone());
        pass_b.run(&mut db_b, &budget_b);
        // Force a rerun on identical polynomial content by resetting the
        // pass's memory (a fresh pass forgets its last revision).
        let mut pass_b = XlPass::new(config);
        assert_eq!(pass_b.run(&mut db_b, &budget_b).status, PassStatus::Ran);

        let next_a = budget_a.with_rng_mut(|rng| rng.next_u64());
        let next_b = budget_b.with_rng_mut(|rng| rng.next_u64());
        assert_eq!(next_a, next_b, "skip and rerun consume identical draws");
    }
}
