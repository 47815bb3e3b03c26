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

use std::cell::{Cell, RefCell};
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
use crate::satstep::{SatSearch, SatStepStatus};
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

/// The run-scoped resources shared by every pass: the adaptive SAT conflict
/// budget, the subsampling randomness and the cancellation token.
///
/// The budget and rng are interior-mutable so that the fixed `&PassBudget` in
/// [`LearningPass::run`] suffices: the SAT pass escalates its own conflict
/// budget when a round produces no new facts (Section IV), and XL/ElimLin
/// draw their subsamples from one shared stream so the default pipeline
/// consumes randomness exactly like the pre-pipeline engine did.
///
/// The [`CancelToken`] is the anytime-preprocessing hook: every built-in
/// pass polls it at coarse checkpoints and winds down transactionally when
/// it trips (see [`PassStatus::Interrupted`]). The default token never
/// cancels and costs nothing to poll.
#[derive(Debug)]
pub struct PassBudget {
    sat_conflicts: Cell<u64>,
    sat_budget_increment: u64,
    sat_budget_max: u64,
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
            sat_conflicts: Cell::new(config.sat_conflict_budget),
            sat_budget_increment: config.sat_budget_increment,
            sat_budget_max: config.sat_budget_max,
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
        self.sat_conflicts.get()
    }

    /// Increases the SAT conflict budget by the configured increment, up to
    /// the configured maximum (Section IV's escalation rule).
    pub fn escalate_sat(&self) {
        let next = (self.sat_conflicts.get() + self.sat_budget_increment).min(self.sat_budget_max);
        self.sat_conflicts.set(next);
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
    /// `true` when this run continued the SAT search of an earlier run on
    /// the same database revision instead of starting a new one.
    pub sat_resumed: bool,
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
            sat_resumed: false,
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
/// revision it last read, adaptive budgets); the shared problem lives in the
/// [`AnfDatabase`] and the shared run-scoped resources in the
/// [`PassBudget`].
pub trait LearningPass {
    /// Stable lower-case name, used for per-pass statistics and CLI output.
    fn name(&self) -> &'static str;

    /// Executes (or skips) one round of the technique against the database.
    fn run(&mut self, db: &mut AnfDatabase, budget: &PassBudget) -> PassOutcome;

    /// Called by the driver after this pass's facts were committed, with the
    /// number that were actually new. The SAT pass uses this to escalate its
    /// conflict budget when a round learnt nothing (Section IV).
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
/// A round on a new database revision converts the database to CNF and
/// starts a new search. A round that ends undecided keeps its search: when
/// the next round sees the same revision with a larger budget, it continues
/// that search up to the new budget instead of spending the old budget's
/// conflicts again. The result is the one a new search with the full
/// budget would reach, because the solver's budget pauses its search and
/// the solver is deterministic. No clause is ever added to a kept search.
#[derive(Debug)]
pub struct SatPass {
    config: BosphorusConfig,
    last_seen: Option<Revision>,
    last_budget: Option<u64>,
    /// The undecided search of the last round, over the CNF of revision
    /// `last_seen`.
    search: Option<SatSearch>,
}

impl SatPass {
    /// Creates the pass. The paper runs the in-loop SAT calls with an
    /// aggressive restart/activity configuration.
    pub fn new(config: BosphorusConfig) -> Self {
        SatPass {
            config,
            last_seen: None,
            last_budget: None,
            search: None,
        }
    }
}

impl LearningPass for SatPass {
    fn name(&self) -> &'static str {
        "sat"
    }

    fn run(&mut self, db: &mut AnfDatabase, budget: &PassBudget) -> PassOutcome {
        let conflicts = budget.sat_conflicts();
        // The solver's input is the database *and* the conflict budget: a
        // rerun with an escalated budget can decide what the last run could
        // not, so both must be unchanged for the skip.
        if self.last_seen == Some(db.revision()) && self.last_budget == Some(conflicts) {
            return PassOutcome::skipped();
        }
        // A kept search continues only on the CNF it was built from, and
        // only forward: one that has already spent the budget cannot stop
        // at it. Otherwise it is dropped before the new one is built, so
        // the two never coexist.
        let resumable = self.last_seen == Some(db.revision())
            && self
                .search
                .as_ref()
                .is_some_and(|search| search.conflicts() < conflicts);
        if !resumable {
            self.search = None;
        }
        self.last_seen = Some(db.revision());
        self.last_budget = Some(conflicts);
        let mut outcome = PassOutcome::ran();
        outcome.sat_resumed = resumable;
        // A new search has spent no conflicts, so it runs the full budget.
        let search = self.search.get_or_insert_with(|| {
            SatSearch::new(
                db.system(),
                db.propagator(),
                &self.config,
                &SolverConfig::aggressive(),
            )
        });
        let sat = search.run(conflicts - search.conflicts(), budget.cancel_token());
        if sat.status != SatStepStatus::Undecided {
            self.search = None;
        }
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
            SatStepStatus::Interrupted => {
                // Forget the skip state: the interrupted call spent less
                // than its conflict budget, so a rerun can still decide.
                self.last_seen = None;
                self.last_budget = None;
                outcome.status = PassStatus::Interrupted;
            }
        }
        outcome
    }

    fn facts_committed(&mut self, added: usize, budget: &PassBudget) {
        if added == 0 {
            budget.escalate_sat();
        }
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
        GroebnerPass::with_config(GroebnerConfig {
            max_reductions: config.groebner_max_reductions,
            max_basis_size: config.groebner_max_basis_size,
            max_degree: config.groebner_max_degree,
        })
    }

    /// Creates the pass with an explicit Gröbner configuration.
    pub fn with_config(config: GroebnerConfig) -> Self {
        GroebnerPass {
            config,
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
        Pipeline::from_kinds(&config.pass_order, config)
    }

    /// Builds a pipeline of built-in passes in the given order.
    pub fn from_kinds(kinds: &[PassKind], config: &BosphorusConfig) -> Self {
        let mut pipeline = Pipeline::new();
        for &kind in kinds {
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
    fn budget_escalation_respects_the_cap() {
        let config = BosphorusConfig {
            sat_conflict_budget: 10,
            sat_budget_increment: 7,
            sat_budget_max: 20,
            ..BosphorusConfig::default()
        };
        let budget = PassBudget::new(&config);
        assert_eq!(budget.sat_conflicts(), 10);
        budget.escalate_sat();
        assert_eq!(budget.sat_conflicts(), 17);
        budget.escalate_sat();
        assert_eq!(budget.sat_conflicts(), 20, "clamped at the maximum");
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
            expansion_delta_m: 1,
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

    #[test]
    fn sat_pass_reruns_when_its_budget_escalates() {
        let config = BosphorusConfig {
            sat_conflict_budget: 1,
            sat_budget_increment: 1,
            sat_budget_max: 10,
            ..exhaustive()
        };
        // Hard enough that one conflict cannot decide it, small enough to be
        // fast: a random-ish 3-variable system.
        let mut database = db("x0*x1 + x2; x1 + x2 + 1; x0*x2 + x0 + x1;");
        let budget = PassBudget::new(&config);
        let mut pass = SatPass::new(config);
        let first = pass.run(&mut database, &budget);
        assert_ne!(first.status, PassStatus::Skipped);
        // Same database, same budget: skip.
        let same = pass.run(&mut database, &budget);
        assert_eq!(same.status, PassStatus::Skipped);
        // Escalating the budget re-arms the pass.
        budget.escalate_sat();
        let rerun = pass.run(&mut database, &budget);
        assert_ne!(rerun.status, PassStatus::Skipped);
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
            sat_budget_increment: 100,
            sat_budget_max: 1_000,
            ..exhaustive()
        }
    }

    #[test]
    fn sat_pass_continues_its_search_on_an_unchanged_revision() {
        let config = small_sat_budget();
        let mut database = pigeonhole_db();
        let budget = PassBudget::new(&config);
        let mut pass = SatPass::new(config.clone());
        let first = pass.run(&mut database, &budget);
        assert_eq!((first.status, first.sat_resumed), (PassStatus::Ran, false));
        assert_eq!(first.sat_conflicts, 100);
        budget.escalate_sat();
        let second = pass.run(&mut database, &budget);
        assert_eq!((second.status, second.sat_resumed), (PassStatus::Ran, true));
        assert_eq!(
            second.sat_conflicts, 100,
            "only the new conflicts are spent"
        );

        // A new search with the full budget harvests the same facts.
        let mut fresh_pass = SatPass::new(config.clone());
        let fresh_budget = PassBudget::new(&config);
        fresh_budget.escalate_sat();
        let fresh = fresh_pass.run(&mut database, &fresh_budget);
        assert_eq!((fresh.sat_conflicts, fresh.sat_resumed), (200, false));
        assert_eq!(second.facts, fresh.facts);
    }

    #[test]
    fn sat_pass_starts_a_new_search_on_a_new_revision() {
        let config = small_sat_budget();
        let mut database = pigeonhole_db();
        let budget = PassBudget::new(&config);
        let mut pass = SatPass::new(config);
        pass.run(&mut database, &budget);
        assert!(database.push_unique(Polynomial::variable(0) * Polynomial::variable(7)));
        budget.escalate_sat();
        let rerun = pass.run(&mut database, &budget);
        assert!(!rerun.sat_resumed);
        assert_eq!(rerun.sat_conflicts, 200, "the full budget, from scratch");
    }

    #[test]
    fn an_interrupted_sat_run_drops_its_search() {
        let config = small_sat_budget();
        let mut database = pigeonhole_db();
        let budget = PassBudget::new(&config);
        let mut pass = SatPass::new(config.clone());
        pass.run(&mut database, &budget);
        assert!(pass.search.is_some(), "an undecided search is kept");

        let token = CancelToken::new();
        token.cancel();
        let cancelled = PassBudget::new(&config).with_cancel_token(token);
        cancelled.escalate_sat();
        let interrupted = pass.run(&mut database, &cancelled);
        assert_eq!(interrupted.status, PassStatus::Interrupted);
        assert!(pass.search.is_none(), "cancellation ends the search");

        budget.escalate_sat();
        let rerun = pass.run(&mut database, &budget);
        assert!(!rerun.sat_resumed);
        assert_eq!(rerun.sat_conflicts, 200);
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
