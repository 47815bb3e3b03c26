//! The CDCL search engine.
//!
//! Clauses live back to back in one flat `u32` arena: a two-word header
//! (literal count, index into the cold [`ClauseMeta`] side table) followed
//! by the literal codes. A [`ClauseRef`] is the header's offset, so a
//! watcher is eight bytes and visiting a clause during propagation touches
//! one contiguous run of words. Every database reduction compacts the
//! arena, so deleted clauses never linger.

use std::ops::Range;

use bosphorus_cnf::{CnfFormula, CnfVar, Lit};
use bosphorus_interrupt::CancelToken;

use crate::varorder::VarOrderHeap;
use crate::xor::xor_gauss_eliminate;
use crate::{RestartStrategy, SolverConfig, SolverStats, XorConstraint};

/// Truth value of a literal during search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

/// How many conflicts/decisions elapse between cancel-token polls inside
/// [`Solver::solve`].
///
/// Small enough that a wall-clock deadline is honoured within milliseconds,
/// large enough that the amortised poll cost vanishes next to propagation.
pub const SOLVER_CHECK_INTERVAL: u64 = 1024;

/// Exponential decay applied to learnt-clause activities.
const CLAUSE_DECAY: f64 = 0.999;

/// Growth factor of the learnt-clause allowance after every database
/// reduction (the geometric schedule; MiniSat uses 1.1–1.5).
const REDUCE_DB_GROWTH: f64 = 1.5;

/// Literal-block distance at or below which a learnt clause is "glue" and
/// never deleted by a database reduction.
const LBD_GLUE: u32 = 2;

/// Bound on the reason-side expansions of one recursive redundancy check of
/// CCMin, which keeps the minimisation linear in practice on pathological
/// implication graphs.
const CCMIN_DEPTH: usize = 1000;

/// Polarity of a decision when no phase has been saved.
const DEFAULT_PHASE: bool = false;

/// Conflicts between two top-level XOR Gauss–Jordan runs (with
/// `xor_reasoning`).
const XOR_GAUSS_INTERVAL: u64 = 4000;

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; retrieve it with
    /// [`Solver::model`].
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a decision was reached.
    Unknown,
}

/// Offset of a clause's header in the clause arena.
type ClauseRef = u32;

/// Arena words ahead of a clause's literals: its length and its index in
/// the [`ClauseMeta`] table.
const HEADER: usize = 2;

/// The per-clause fields propagation never reads, kept out of the arena.
/// The table is in arena order: the `i`-th clause in the arena owns entry
/// `i`.
#[derive(Debug, Clone, Copy)]
struct ClauseMeta {
    learnt: bool,
    activity: f64,
    /// Literal block distance at learning time (0 for original clauses):
    /// the number of distinct decision levels among the clause's literals.
    /// Low-LBD ("glue") clauses are protected from database reduction.
    lbd: u32,
    /// Marked by a reduction; the clause is freed by the garbage
    /// collection that immediately follows.
    deleted: bool,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Why a variable is assigned — and, returned from propagation, which
/// constraint is in conflict (never `Decision` there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    Decision,
    Clause(ClauseRef),
    Xor(XorRef),
}

/// Offset of a native XOR constraint's header in the XOR arena.
type XorRef = u32;

/// A conflict-driven clause learning SAT solver with conflict budgets,
/// learnt-fact extraction and optional native XOR reasoning.
///
/// See the [crate-level documentation](crate) for an overview and an example.
#[derive(Debug, Clone)]
pub struct Solver {
    config: SolverConfig,
    ok: bool,

    /// Every clause, back to back: `[len, meta index, literal codes...]`.
    arena: Vec<u32>,
    meta: Vec<ClauseMeta>,
    num_original_clauses: usize,
    watches: Vec<Vec<Watcher>>,

    /// Value of every literal, indexed by [`Lit::code`].
    values: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarOrderHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,

    /// Conflict-analysis buffers, reused from one conflict to the next:
    /// the learnt clause, the variables to unmark in `seen`, and the
    /// redundancy walk's stack.
    learnt_buf: Vec<Lit>,
    to_clear: Vec<Lit>,
    redundancy_stack: Vec<Lit>,
    /// [`Solver::add_clause`]'s buffer for normalising its literals.
    clause_buf: Vec<Lit>,
    /// LBD counting: a level is counted once per clause by stamping it with
    /// the clause's `lbd_epoch`.
    level_stamp: Vec<u64>,
    lbd_epoch: u64,

    /// Every native XOR constraint `⊕ vars = rhs`, back to back:
    /// `[len << 1 | rhs, vars...]`. The first two variables are the XOR's
    /// watches: while two or more of its variables are unassigned, both
    /// watches are among them.
    xor_arena: Vec<u32>,
    num_xors: usize,
    /// The XORs watching each variable, indexed by variable.
    xor_watches: Vec<Vec<XorRef>>,
    conflicts_since_gauss: u64,

    conflict_budget: Option<u64>,
    cancel_token: CancelToken,
    /// Set when a `solve` call ran out of conflict budget: the search is
    /// paused where it stopped, possibly above decision level zero, and
    /// the next `solve` carries on from `propagate()`. Adding a clause, an
    /// XOR or a variable abandons it (see `abandon_paused_search`).
    paused: bool,
    /// The restart clock: conflicts since the last restart, and the count
    /// that triggers the next one. A pause keeps it running.
    conflicts_since_restart: u64,
    restart_limit: u64,
    model: Option<Vec<bool>>,
    learnt_unit_lits: Vec<Lit>,

    /// Learnt-clause allowance for the geometric reduction schedule; kept
    /// across `solve` calls so re-solving does not reset the schedule and
    /// churn the database. `0.0` means "not yet initialised".
    max_learnts: f64,

    stats: SolverStats,
}

impl Solver {
    /// Creates an empty solver with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        Solver {
            config,
            ok: true,
            arena: Vec::new(),
            meta: Vec::new(),
            num_original_clauses: 0,
            watches: Vec::new(),
            values: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarOrderHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            learnt_buf: Vec::new(),
            to_clear: Vec::new(),
            redundancy_stack: Vec::new(),
            clause_buf: Vec::new(),
            level_stamp: vec![0],
            lbd_epoch: 0,
            xor_arena: Vec::new(),
            num_xors: 0,
            xor_watches: Vec::new(),
            conflicts_since_gauss: 0,
            conflict_budget: None,
            cancel_token: CancelToken::never(),
            paused: false,
            conflicts_since_restart: 0,
            restart_limit: 0,
            model: None,
            learnt_unit_lits: Vec::new(),
            max_learnts: 0.0,
            stats: SolverStats::default(),
        }
    }

    /// Creates a solver pre-loaded with the clauses of a CNF formula.
    pub fn from_formula(config: SolverConfig, formula: &CnfFormula) -> Self {
        let mut solver = Solver::new(config);
        solver.new_vars(formula.num_vars());
        solver
            .arena
            .reserve(formula.num_literals() + HEADER * formula.num_clauses());
        solver.meta.reserve(formula.num_clauses());
        solver.add_formula_clauses(formula, 0..formula.num_clauses());
        solver
    }

    /// The configuration this solver was built with.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Adds a single fresh variable and returns its index. A paused search
    /// is abandoned first.
    pub fn new_var(&mut self) -> CnfVar {
        self.abandon_paused_search();
        let v = self.num_vars() as CnfVar;
        self.values.extend([LBool::Undef, LBool::Undef]);
        self.level.push(0);
        self.reason.push(Reason::Decision);
        self.activity.push(0.0);
        self.phase.push(DEFAULT_PHASE);
        self.seen.push(false);
        self.level_stamp.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.xor_watches.push(Vec::new());
        self.order.insert(v, &self.activity);
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn new_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state after adding it (e.g. the clause is empty or
    /// contradicts top-level assignments).
    ///
    /// A search paused by its conflict budget is abandoned first: the
    /// solver backs out to decision level zero, and the next
    /// [`Solver::solve`] starts a new search.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        let mut clause = std::mem::take(&mut self.clause_buf);
        clause.clear();
        clause.extend(lits);
        clause.sort_unstable();
        clause.dedup();
        let ok = self.add_normalised_clause(&clause);
        self.clause_buf = clause;
        ok
    }

    /// Adds the clauses `clauses` of `formula`, in order, as
    /// [`Solver::add_clause`] would. A formula's clauses are already sorted
    /// and free of duplicates, so they are loaded as they are. Returns
    /// `false` if the solver is unsatisfiable afterwards.
    pub fn add_formula_clauses(&mut self, formula: &CnfFormula, clauses: Range<usize>) -> bool {
        for index in clauses {
            if !self.add_normalised_clause(formula.clause(index)) {
                return false;
            }
        }
        self.ok
    }

    /// [`Solver::add_clause`] on literals sorted by code without
    /// duplicates: the unassigned literals go straight into the arena.
    fn add_normalised_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert!(lits.windows(2).all(|w| w[0] < w[1]), "{lits:?}");
        self.abandon_paused_search();
        if !self.ok {
            return false;
        }
        if let Some(last) = lits.last() {
            self.new_vars(last.var() as usize + 1);
        }
        // Tautology or satisfied at top level: nothing to do.
        if lits.windows(2).any(|w| w[0].var() == w[1].var())
            || lits.iter().any(|&l| self.value_lit(l) == LBool::True)
        {
            return true;
        }
        // Top-level false literals are dropped.
        let cref = self.arena.len();
        let values = &self.values;
        self.arena.extend([0; HEADER]);
        self.arena.extend(
            lits.iter()
                .filter(|l| values[l.code()] == LBool::Undef)
                .map(|l| l.code() as u32),
        );
        match self.arena.len() - cref - HEADER {
            0 => {
                self.arena.truncate(cref);
                self.ok = false;
                false
            }
            1 => {
                let unit = Lit::from_code(self.arena[cref + HEADER] as usize);
                self.arena.truncate(cref);
                self.enqueue(unit, Reason::Decision);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_pushed_clause(cref, false);
                true
            }
        }
    }

    /// Adds a native XOR constraint, propagated as one constraint with two
    /// watched variables. It stands in for the 2^(n−1) clauses of its CNF
    /// block; [`SolverConfig::xor_reasoning`] adds top-level Gauss–Jordan
    /// elimination over all of them.
    ///
    /// Returns `false` if the solver is unsatisfiable after adding it. A
    /// paused search is abandoned first, as in [`Solver::add_clause`].
    pub fn add_xor(&mut self, xor: XorConstraint) -> bool {
        self.abandon_paused_search();
        if !self.ok {
            return false;
        }
        if let Some(max) = xor.max_var() {
            self.new_vars(max as usize + 1);
        }
        // Fold top-level assignments into the right-hand side, as
        // `add_clause` drops false literals.
        let mut rhs = xor.rhs();
        let vars: Vec<CnfVar> = xor
            .vars()
            .iter()
            .copied()
            .filter(|&v| match self.value_var(v) {
                LBool::Undef => true,
                value => {
                    rhs ^= value == LBool::True;
                    false
                }
            })
            .collect();
        match vars.len() {
            0 => {
                self.ok = !rhs;
                self.ok
            }
            1 => {
                self.enqueue(Lit::new(vars[0], !rhs), Reason::Decision);
                self.ok = self.propagate().is_none();
                self.ok
            }
            len => {
                let xi = XorRef::try_from(self.xor_arena.len())
                    .expect("the XOR arena outgrew u32 offsets");
                self.xor_watches[vars[0] as usize].push(xi);
                self.xor_watches[vars[1] as usize].push(xi);
                self.xor_arena.push((len as u32) << 1 | u32::from(rhs));
                self.xor_arena.extend_from_slice(&vars);
                self.num_xors += 1;
                true
            }
        }
    }

    /// Number of problem clauses of two or more literals the solver holds.
    /// Units are top-level assignments, and satisfied or tautological
    /// clauses are dropped when added, so neither counts.
    pub fn num_clauses(&self) -> usize {
        self.num_original_clauses
    }

    /// Number of native XOR constraints of two or more variables the solver
    /// holds.
    pub fn num_xors(&self) -> usize {
        self.num_xors
    }

    /// Limits each following [`Solver::solve`] call to `budget` conflicts;
    /// `None` removes the limit. No call exceeds its budget: a budget of 0
    /// runs only the level-zero work of a new search (propagation and, with
    /// XOR reasoning, Gauss–Jordan elimination) and spends no conflict.
    ///
    /// A budget pauses the search; it does not end it. A call that spends
    /// its budget returns [`SolveResult::Unknown`] and leaves the trail,
    /// the learnt clauses and the restart clock where they are, so the
    /// next `solve` carries on: budget `a` followed by budget `b` is
    /// exactly the search of one call with budget `a + b`.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Makes [`Solver::solve`] poll `token` alongside the conflict budget
    /// (checked every [`SOLVER_CHECK_INTERVAL`] conflicts/decisions). A
    /// cancelled token makes `solve` back out to decision level zero and
    /// return [`SolveResult::Unknown`], abandoning a paused search too.
    /// Unlike a spent budget, cancellation ends the search; callers that
    /// need to tell the two apart consult the token they passed in.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel_token = token;
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// The satisfying assignment found by the most recent successful
    /// [`Solver::solve`] call, indexed by variable.
    pub fn model(&self) -> Option<&[bool]> {
        self.model.as_deref()
    }

    /// All literals known to hold at decision level zero (facts implied by
    /// the formula). Bosphorus turns these into unit ANF facts.
    pub fn top_level_assignments(&self) -> Vec<Lit> {
        self.trail
            .iter()
            .copied()
            .filter(|&l| self.level[l.var() as usize] == 0)
            .collect()
    }

    /// Unit clauses learnt by conflict analysis (a subset of
    /// [`Solver::top_level_assignments`], kept separately so callers can see
    /// exactly what conflict analysis derived).
    pub fn learnt_units(&self) -> &[Lit] {
        &self.learnt_unit_lits
    }

    /// Binary learnt clauses currently in the database.
    pub fn learnt_binaries(&self) -> Vec<[Lit; 2]> {
        self.clause_refs()
            .filter(|&c| self.clause_meta(c).learnt && self.clause_len(c) == 2)
            .map(|c| [self.clause_lit(c, 0), self.clause_lit(c, 1)])
            .collect()
    }

    /// All learnt clauses currently in the database, in arena order, as a
    /// formula over the solver's variables.
    pub fn learnt_clauses(&self) -> CnfFormula {
        let mut learnt = CnfFormula::new(self.num_vars());
        for c in self.clause_refs().filter(|&c| self.clause_meta(c).learnt) {
            learnt.add_clause((0..self.clause_len(c)).map(|k| self.clause_lit(c, k)));
        }
        learnt
    }

    /// Runs the CDCL search until a result is reached or the conflict budget
    /// is spent. Learnt clauses, activities and saved phases survive into
    /// the next call.
    ///
    /// A budget pauses; cancellation backs out. A call that spends its
    /// budget keeps the search where it stopped, and the next call carries
    /// on from there (see [`Solver::set_conflict_budget`]). A cancelled
    /// token, including one already cancelled when the call starts, backs
    /// out to decision level zero and ends a paused search.
    pub fn solve(&mut self) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.model = None;
        // Checked before each propagation, so a spent budget (0 included)
        // pauses before the next conflict is counted.
        let conflict_limit = self.conflict_budget.map_or(u64::MAX, |budget| {
            self.stats.conflicts.saturating_add(budget)
        });
        // The checkpoint amortises the token poll so the per-conflict and
        // per-decision cost is a decrement and branch.
        let mut checkpoint = self.cancel_token.checkpoint_every(SOLVER_CHECK_INTERVAL);
        if checkpoint.check_now() {
            self.abandon_paused_search();
            return SolveResult::Unknown;
        }
        // A paused search skips the level-0 prologue and re-enters the loop
        // at `propagate()`, where the call that paused it left off.
        if !std::mem::take(&mut self.paused) {
            if self.propagate().is_some() {
                self.ok = false;
                return SolveResult::Unsat;
            }
            if self.config.xor_reasoning && !self.xor_gauss_top_level() {
                self.ok = false;
                return SolveResult::Unsat;
            }
            self.conflicts_since_restart = 0;
            self.restart_limit = self.next_restart_limit();
            // The learnt-clause allowance persists across solve calls (a
            // repeated call would otherwise reset the geometric schedule);
            // it only ratchets up when clause additions raise the initial
            // target above the stored value. The finiteness test comes
            // first: an empty formula times an infinite ratio is NaN, and
            // `NaN.max(100.0)` is 100.
            if self.config.learnt_ratio.is_finite() {
                let initial =
                    (self.num_original_clauses as f64 * self.config.learnt_ratio).max(100.0);
                if self.max_learnts < initial {
                    self.max_learnts = initial;
                }
            } else {
                self.max_learnts = f64::INFINITY;
            }
        }

        loop {
            if self.stats.conflicts >= conflict_limit {
                self.paused = true;
                return SolveResult::Unknown;
            }
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                self.conflicts_since_restart += 1;
                self.conflicts_since_gauss += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                let (backtrack_level, lbd) = self.analyze(conflict);
                self.cancel_until(backtrack_level);
                self.record_learnt(lbd);
                self.decay_activities();
                if checkpoint.check() {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
            } else {
                // No conflict.
                if self.conflicts_since_restart >= self.restart_limit {
                    self.stats.restarts += 1;
                    self.conflicts_since_restart = 0;
                    self.restart_limit = self.next_restart_limit();
                    self.cancel_until(0);
                    continue;
                }
                if self.decision_level() == 0
                    && self.config.xor_reasoning
                    && self.conflicts_since_gauss >= XOR_GAUSS_INTERVAL
                {
                    if !self.xor_gauss_top_level() {
                        self.ok = false;
                        return SolveResult::Unsat;
                    }
                    self.conflicts_since_gauss = 0;
                }
                if (self.stats.learnt_clauses as f64) >= self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= REDUCE_DB_GROWTH;
                }
                match self.pick_branch_var() {
                    None => {
                        // Every variable is assigned: we have a model.
                        self.model = Some(
                            (0..self.num_vars() as CnfVar)
                                .map(|v| self.value_var(v) == LBool::True)
                                .collect(),
                        );
                        self.cancel_until(0);
                        return SolveResult::Sat;
                    }
                    Some(var) => {
                        if checkpoint.check() {
                            // Backing out re-inserts only the variables on
                            // the trail; the popped one goes back by hand,
                            // or no later search would ever decide it.
                            self.order.insert(var, &self.activity);
                            self.cancel_until(0);
                            return SolveResult::Unknown;
                        }
                        self.stats.decisions += 1;
                        let phase = if self.config.phase_saving {
                            self.phase[var as usize]
                        } else {
                            DEFAULT_PHASE
                        };
                        let lit = Lit::new(var, !phase);
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, Reason::Decision);
                    }
                }
            }
        }
    }

    // ----- internal helpers -------------------------------------------------

    /// Ends a search paused by its conflict budget: backs out to decision
    /// level zero, so the next `solve` starts a new search. A no-op when no
    /// search is paused.
    fn abandon_paused_search(&mut self) {
        if std::mem::take(&mut self.paused) {
            self.cancel_until(0);
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn value_var(&self, var: CnfVar) -> LBool {
        self.values[Lit::positive(var).code()]
    }

    fn value_lit(&self, lit: Lit) -> LBool {
        self.values[lit.code()]
    }

    // ----- clause arena -----------------------------------------------------

    fn clause_len(&self, cref: ClauseRef) -> usize {
        self.arena[cref as usize] as usize
    }

    fn clause_lit(&self, cref: ClauseRef, k: usize) -> Lit {
        Lit::from_code(self.arena[cref as usize + HEADER + k] as usize)
    }

    fn meta_index(&self, cref: ClauseRef) -> usize {
        self.arena[cref as usize + 1] as usize
    }

    fn clause_meta(&self, cref: ClauseRef) -> &ClauseMeta {
        &self.meta[self.meta_index(cref)]
    }

    fn clause_meta_mut(&mut self, cref: ClauseRef) -> &mut ClauseMeta {
        let index = self.meta_index(cref);
        &mut self.meta[index]
    }

    /// Every clause in the arena, in arena (= creation) order.
    fn clause_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let next = |cref: ClauseRef| cref as usize + HEADER + self.clause_len(cref);
        std::iter::successors((!self.arena.is_empty()).then_some(0), move |&cref| {
            (next(cref) < self.arena.len()).then(|| next(cref) as ClauseRef)
        })
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        let cref = self.arena.len();
        self.arena.extend([0; HEADER]);
        self.arena.extend(lits.iter().map(|l| l.code() as u32));
        self.attach_pushed_clause(cref, learnt)
    }

    /// Attaches the clause whose literals were just pushed onto the arena
    /// behind a placeholder header at `cref`: fills in the header, watches
    /// its first two literals and records its metadata.
    fn attach_pushed_clause(&mut self, cref: usize, learnt: bool) -> ClauseRef {
        let len = self.arena.len() - cref - HEADER;
        debug_assert!(len >= 2);
        let cref = ClauseRef::try_from(cref).expect("the clause arena outgrew u32 offsets");
        let [first, second] = [0, 1].map(|k| self.clause_lit(cref, k));
        self.watches[first.code()].push(Watcher {
            cref,
            blocker: second,
        });
        self.watches[second.code()].push(Watcher {
            cref,
            blocker: first,
        });
        if learnt {
            self.stats.learnt_clauses += 1;
        } else {
            self.num_original_clauses += 1;
        }
        self.arena[cref as usize] = len as u32;
        self.arena[cref as usize + 1] = self.meta.len() as u32;
        self.meta.push(ClauseMeta {
            learnt,
            activity: 0.0,
            lbd: 0,
            deleted: false,
        });
        cref
    }

    fn enqueue(&mut self, lit: Lit, reason: Reason) {
        debug_assert_eq!(self.value_lit(lit), LBool::Undef);
        let var = lit.var() as usize;
        self.values[lit.code()] = LBool::True;
        self.values[(!lit).code()] = LBool::False;
        self.level[var] = self.decision_level();
        self.reason[var] = reason;
        if self.config.phase_saving {
            self.phase[var] = lit.is_positive();
        }
        self.trail.push(lit);
        self.stats.propagations += 1;
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let keep = self.trail_lim[level as usize];
        while self.trail.len() > keep {
            let lit = self.trail.pop().expect("trail is non-empty");
            let var = lit.var() as usize;
            self.phase[var] = lit.is_positive();
            self.values[lit.code()] = LBool::Undef;
            self.values[(!lit).code()] = LBool::Undef;
            self.reason[var] = Reason::Decision;
            self.order.insert(lit.var(), &self.activity);
        }
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<CnfVar> {
        while let Some(var) = self.order.pop_max(&self.activity) {
            if self.value_var(var) == LBool::Undef {
                return Some(var);
            }
        }
        None
    }

    /// Unit propagation over clauses and XOR constraints. Returns the
    /// conflicting constraint (all of its literals false) when a conflict
    /// is found.
    fn propagate(&mut self) -> Option<Reason> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            if let Some(cref) = self.propagate_clauses(p) {
                self.qhead = self.trail.len();
                return Some(Reason::Clause(cref));
            }
            if let Some(xi) = self.propagate_xors(p) {
                self.qhead = self.trail.len();
                return Some(Reason::Xor(xi));
            }
        }
        None
    }

    /// Visits the watchers of `!p`, compacting its watch list in place.
    /// The list is moved out for the visit so `enqueue` and pushes onto
    /// other lists can borrow `self`; moving a `Vec` does not allocate. No
    /// watcher is added to `!p`'s own list meanwhile, because a replacement
    /// watch is never a false literal.
    fn propagate_clauses(&mut self, p: Lit) -> Option<ClauseRef> {
        let false_lit = !p;
        let false_code = false_lit.code() as u32;
        let mut watchers = std::mem::take(&mut self.watches[false_lit.code()]);
        let mut conflict = None;
        let (mut i, mut j) = (0, 0);
        while i < watchers.len() {
            let w = watchers[i];
            i += 1;
            if self.values[w.blocker.code()] == LBool::True {
                watchers[j] = w;
                j += 1;
                continue;
            }
            let start = w.cref as usize + HEADER;
            let end = start + self.arena[w.cref as usize] as usize;
            let lits = &mut self.arena[start..end];
            // Ensure the falsified literal is at position 1.
            if lits[0] == false_code {
                lits.swap(0, 1);
            }
            debug_assert_eq!(lits[1], false_code);
            let first = Lit::from_code(lits[0] as usize);
            let kept = Watcher {
                cref: w.cref,
                blocker: first,
            };
            if self.values[first.code()] == LBool::True {
                watchers[j] = kept;
                j += 1;
                continue;
            }
            // Look for a replacement watch among the remaining literals.
            let mut k = 2;
            while k < lits.len() && self.values[lits[k] as usize] == LBool::False {
                k += 1;
            }
            if k < lits.len() {
                lits.swap(1, k);
                self.watches[lits[1] as usize].push(kept);
                continue;
            }
            // The clause is unit or conflicting under the current assignment.
            watchers[j] = kept;
            j += 1;
            if self.values[first.code()] == LBool::False {
                conflict = Some(w.cref);
                // Keep the remaining, unprocessed watchers.
                watchers.copy_within(i.., j);
                j += watchers.len() - i;
                break;
            }
            self.enqueue(first, Reason::Clause(w.cref));
        }
        watchers.truncate(j);
        self.watches[false_lit.code()] = watchers;
        conflict
    }

    /// The variables of the XOR at `xi`.
    fn xor_vars(&self, xi: XorRef) -> &[CnfVar] {
        let start = xi as usize + 1;
        &self.xor_arena[start..start + (self.xor_arena[xi as usize] >> 1) as usize]
    }

    /// Visits the XORs watching `p`'s variable, which was just assigned,
    /// and moves each watch to another unassigned variable where there is
    /// one. An XOR with no other unassigned variable is unit: its other
    /// watch is implied, or, if assigned too, checked. An XOR that implied
    /// `p` itself is skipped; it was unit, and consistent, when it did.
    /// Compacts the watch list in place as [`Solver::propagate_clauses`]
    /// does; a replacement watch is unassigned, so it is never `p`'s
    /// variable.
    fn propagate_xors(&mut self, p: Lit) -> Option<XorRef> {
        let var = p.var();
        let mut watchers = std::mem::take(&mut self.xor_watches[var as usize]);
        let mut conflict = None;
        let (mut i, mut j) = (0, 0);
        while i < watchers.len() {
            let xi = watchers[i];
            i += 1;
            if self.reason[var as usize] == Reason::Xor(xi) {
                watchers[j] = xi;
                j += 1;
                continue;
            }
            let header = self.xor_arena[xi as usize];
            let start = xi as usize + 1;
            let vars = &mut self.xor_arena[start..start + (header >> 1) as usize];
            // Ensure the assigned watch is at position 1.
            if vars[0] == var {
                vars.swap(0, 1);
            }
            debug_assert_eq!(vars[1], var);
            // The value `vars[0]` must take: the right-hand side plus every
            // other variable, as far as the search for a new watch reads.
            let mut implied = (header & 1 == 1) ^ p.is_positive();
            let mut k = 2;
            while k < vars.len() {
                match self.values[Lit::positive(vars[k]).code()] {
                    LBool::Undef => break,
                    LBool::True => implied = !implied,
                    LBool::False => {}
                }
                k += 1;
            }
            if k < vars.len() {
                vars.swap(1, k);
                self.xor_watches[vars[1] as usize].push(xi);
                continue;
            }
            watchers[j] = xi;
            j += 1;
            let first = vars[0];
            match self.values[Lit::positive(first).code()] {
                LBool::Undef => {
                    self.stats.xor_propagations += 1;
                    self.enqueue(Lit::new(first, !implied), Reason::Xor(xi));
                }
                value if (value == LBool::True) != implied => {
                    conflict = Some(xi);
                    watchers.copy_within(i.., j);
                    j += watchers.len() - i;
                    break;
                }
                _ => {}
            }
        }
        watchers.truncate(j);
        self.xor_watches[var as usize] = watchers;
        conflict
    }

    /// Number of literals of a propagating or conflicting constraint.
    fn constraint_len(&self, constraint: Reason) -> usize {
        match constraint {
            Reason::Decision => 0,
            Reason::Clause(cref) => self.clause_len(cref),
            Reason::Xor(xi) => self.xor_vars(xi).len(),
        }
    }

    /// The `k`-th literal of a propagating or conflicting constraint. An
    /// XOR yields, for each of its variables, the literal false under the
    /// current assignment: with every variable assigned, that is the
    /// clause the XOR acts as, and the implied variable's entry is the
    /// negation of the implied literal.
    fn constraint_lit(&self, constraint: Reason, k: usize) -> Lit {
        match constraint {
            Reason::Decision => unreachable!("a decision has no antecedents"),
            Reason::Clause(cref) => self.clause_lit(cref, k),
            Reason::Xor(xi) => {
                let v = self.xor_vars(xi)[k];
                Lit::new(v, self.value_var(v) == LBool::True)
            }
        }
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `learnt_buf` (asserting literal first) and returns the decision
    /// level to backtrack to and the clause's literal block distance.
    fn analyze(&mut self, conflict: Reason) -> (u32, u32) {
        let current_level = self.decision_level();
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        learnt.clear();
        learnt.push(Lit::positive(0)); // placeholder for the asserting literal
        let mut path_count: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut constraint = conflict;

        loop {
            // The reason of `p` contains `p` itself (a clause leads with
            // it, an XOR lists its variable); skip it.
            for k in 0..self.constraint_len(constraint) {
                let q = self.constraint_lit(constraint, k);
                if p.is_some_and(|p| p.var() == q.var()) {
                    continue;
                }
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= current_level {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var() as usize] = false;
            path_count -= 1;
            p = Some(pl);
            if path_count == 0 {
                break;
            }
            constraint = self.reason[pl.var() as usize];
        }
        learnt[0] = !p.expect("analysis terminates with an asserting literal");

        // Recursive conflict-clause minimization (CCMin, MiniSat lineage):
        // a non-asserting literal is redundant when the implication graph
        // below it resolves entirely into other learnt literals and
        // level-zero facts, checked by a depth-first walk of its reasons.
        // `seen` is still set for every learnt literal here, which is
        // exactly the marking `lit_is_redundant` consults; the walk marks
        // additional interior vars and records them in `to_clear`.
        let mut to_clear = std::mem::take(&mut self.to_clear);
        to_clear.clear();
        to_clear.extend_from_slice(&learnt);
        if learnt.len() > 1 {
            // Levels represented in the clause, folded into a 32-bit
            // signature: a literal whose reason leaves this signature can
            // never be redundant, which prunes most walks immediately.
            let mut abstract_levels = 0u32;
            for &l in &learnt[1..] {
                abstract_levels |= Self::abstract_level(self.level[l.var() as usize]);
            }
            let before = learnt.len();
            let mut kept = 1;
            for i in 1..learnt.len() {
                let l = learnt[i];
                let redundant = !matches!(self.reason[l.var() as usize], Reason::Decision)
                    && self.lit_is_redundant(l, abstract_levels, &mut to_clear);
                if !redundant {
                    learnt[kept] = l;
                    kept += 1;
                }
            }
            learnt.truncate(kept);
            self.stats.minimized_literals += (before - learnt.len()) as u64;
        }
        for &l in &to_clear {
            self.seen[l.var() as usize] = false;
        }
        self.to_clear = to_clear;

        if self.config.verify_minimization {
            assert!(
                self.learnt_is_propagation_implied(&learnt),
                "minimized learnt clause {learnt:?} is no longer implied by unit propagation"
            );
        }

        let lbd = self.clause_lbd(&learnt);

        // Compute the backtrack level and place a literal of that level at
        // position 1 (the second watch).
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var() as usize]
        };
        self.learnt_buf = learnt;
        (backtrack_level, lbd)
    }

    /// One bit per decision level modulo 32 — a cheap level-set signature
    /// used to prune the recursive redundancy walk.
    fn abstract_level(level: u32) -> u32 {
        1u32 << (level & 31)
    }

    /// Whether learnt literal `lit` is redundant: walking its implication
    /// ancestry only ever reaches literals that are level-zero facts or
    /// already in the learnt clause (`seen`). Iterative with an explicit
    /// stack; `to_clear` records every interior variable marked along the
    /// way so the caller can reset `seen`. Aborts (non-redundant) on a
    /// decision ancestor, an ancestor outside the clause's level signature,
    /// or when the walk exceeds `CCMIN_DEPTH` expansions.
    fn lit_is_redundant(
        &mut self,
        lit: Lit,
        abstract_levels: u32,
        to_clear: &mut Vec<Lit>,
    ) -> bool {
        let rollback_from = to_clear.len();
        let mut stack = std::mem::take(&mut self.redundancy_stack);
        stack.clear();
        stack.push(lit);
        let mut expansions = 0usize;
        let mut redundant = true;
        'walk: while let Some(q) = stack.pop() {
            expansions += 1;
            // `q` is false under the current assignment; `!q` is the
            // propagated trail literal whose reason we expand, and that
            // reason's entry for `q`'s variable is skipped.
            let reason = self.reason[q.var() as usize];
            debug_assert!(!matches!(reason, Reason::Clause(c) if self.clause_lit(c, 0) != !q));
            for k in 0..self.constraint_len(reason) {
                let l = self.constraint_lit(reason, k);
                let v = l.var() as usize;
                if v == q.var() as usize || self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                if matches!(self.reason[v], Reason::Decision)
                    || Self::abstract_level(self.level[v]) & abstract_levels == 0
                    || expansions > CCMIN_DEPTH
                {
                    // Roll back the speculative marks: only literals proven
                    // redundant may stay marked, otherwise a later check
                    // would treat this unproven ancestry as already covered.
                    for &m in &to_clear[rollback_from..] {
                        self.seen[m.var() as usize] = false;
                    }
                    to_clear.truncate(rollback_from);
                    redundant = false;
                    break 'walk;
                }
                self.seen[v] = true;
                to_clear.push(l);
                stack.push(l);
            }
        }
        self.redundancy_stack = stack;
        redundant
    }

    /// Literal block distance: the number of distinct non-zero decision
    /// levels among the clause's literals, counted by stamping each level
    /// with a fresh epoch.
    fn clause_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_epoch += 1;
        let mut distinct = 0;
        for l in lits {
            let level = self.level[l.var() as usize] as usize;
            if level > 0 && self.level_stamp[level] != self.lbd_epoch {
                self.level_stamp[level] = self.lbd_epoch;
                distinct += 1;
            }
        }
        distinct
    }

    /// The CCMin self-check: a learnt clause is sound iff asserting the
    /// negation of all its literals makes unit propagation derive a
    /// conflict (1-UIP clauses are propagation-implied by construction, and
    /// minimization must preserve that). Runs on a clone backed out to
    /// level zero so the probe cannot disturb the live search.
    fn learnt_is_propagation_implied(&self, learnt: &[Lit]) -> bool {
        let mut probe = self.clone();
        probe.cancel_until(0);
        probe.trail_lim.push(probe.trail.len());
        for &l in learnt {
            match probe.value_lit(l) {
                // Satisfied at level zero: trivially implied.
                LBool::True => return true,
                LBool::False => {}
                LBool::Undef => probe.enqueue(!l, Reason::Decision),
            }
        }
        probe.propagate().is_some()
    }

    /// Records the clause `analyze` left in `learnt_buf`.
    fn record_learnt(&mut self, lbd: u32) {
        let learnt = std::mem::take(&mut self.learnt_buf);
        debug_assert!(!learnt.is_empty());
        if learnt.len() == 1 {
            debug_assert_eq!(self.decision_level(), 0);
            self.learnt_unit_lits.push(learnt[0]);
            if self.value_lit(learnt[0]) == LBool::Undef {
                self.enqueue(learnt[0], Reason::Decision);
            }
        } else {
            let cref = self.attach_clause(&learnt, true);
            self.clause_meta_mut(cref).lbd = lbd;
            self.bump_clause(cref);
            self.enqueue(learnt[0], Reason::Clause(cref));
        }
        self.learnt_buf = learnt;
    }

    fn bump_var(&mut self, var: CnfVar) {
        self.activity[var as usize] += self.var_inc;
        if self.activity[var as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(var, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let cla_inc = self.cla_inc;
        let meta = self.clause_meta_mut(cref);
        meta.activity += cla_inc;
        if meta.activity > 1e20 {
            for m in &mut self.meta {
                m.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.cla_inc /= CLAUSE_DECAY;
    }

    fn next_restart_limit(&self) -> u64 {
        match self.config.restart {
            RestartStrategy::Geometric => {
                let factor = 1.5f64.powi(self.stats.restarts as i32);
                (self.config.restart_base as f64 * factor) as u64
            }
            RestartStrategy::Luby => self.config.restart_base * luby(self.stats.restarts),
        }
    }

    /// Removes roughly the coldest half of the learnt clauses (see
    /// [`Solver::mark_cold_learnts`]), frees them from the arena and
    /// rebuilds the watch lists.
    ///
    /// A cancelled token makes this a no-op: the reduction rebuilds the
    /// watch lists wholesale, and skipping it entirely is the transactional
    /// way to wind down (the database is merely larger than the schedule
    /// wants, which is always sound).
    fn reduce_db(&mut self) {
        if self.cancel_token.is_cancelled() {
            return;
        }
        let removed = self.mark_cold_learnts();
        self.stats.db_reductions += 1;
        self.stats.removed_clauses += removed as u64;
        self.stats.learnt_clauses -= removed as u64;
        self.collect_garbage();
        self.rebuild_watches();
        #[cfg(test)]
        self.check_invariants();
    }

    /// Marks roughly the coldest half of the learnt clauses deleted and
    /// returns how many it marked: candidates are ranked worst-first by
    /// (highest LBD, lowest activity); binary clauses, low-LBD "glue"
    /// clauses and clauses that are the reason for a current assignment are
    /// never deleted.
    fn mark_cold_learnts(&mut self) -> usize {
        let mut learnt_refs: Vec<ClauseRef> = self
            .clause_refs()
            .filter(|&c| self.clause_meta(c).learnt)
            .collect();
        learnt_refs.sort_by(|&a, &b| {
            let (ma, mb) = (self.clause_meta(a), self.clause_meta(b));
            mb.lbd.cmp(&ma.lbd).then(
                ma.activity
                    .partial_cmp(&mb.activity)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let target = learnt_refs.len() / 2;
        let mut removed = 0usize;
        for &cref in learnt_refs.iter() {
            if removed >= target {
                break;
            }
            if self.clause_len(cref) <= 2
                || self.clause_meta(cref).lbd <= LBD_GLUE
                || self.clause_is_locked(cref)
            {
                continue;
            }
            self.clause_meta_mut(cref).deleted = true;
            removed += 1;
        }
        removed
    }

    fn clause_is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.clause_lit(cref, 0);
        self.value_lit(first) == LBool::True
            && self.reason[first.var() as usize] == Reason::Clause(cref)
    }

    /// Frees the clauses marked deleted: slides every live clause down over
    /// the gaps, in its original relative order, compacts the meta table
    /// alongside, and points each clause reason on the trail at its
    /// clause's new offset. Locked clauses are never deleted, so every
    /// reason survives. The watch lists are stale afterwards.
    fn collect_garbage(&mut self) {
        // New offset of each live clause, by meta index.
        let mut relocated = vec![0 as ClauseRef; self.meta.len()];
        let mut write = 0usize;
        for cref in self.clause_refs() {
            if !self.clause_meta(cref).deleted {
                relocated[self.meta_index(cref)] = write as ClauseRef;
                write += HEADER + self.clause_len(cref);
            }
        }
        for &lit in &self.trail {
            let var = lit.var() as usize;
            if let Reason::Clause(cref) = self.reason[var] {
                self.reason[var] = Reason::Clause(relocated[self.meta_index(cref)]);
            }
        }
        let (mut read, mut write, mut kept) = (0usize, 0usize, 0usize);
        while read < self.arena.len() {
            let size = HEADER + self.arena[read] as usize;
            let meta = self.meta[self.arena[read + 1] as usize];
            if !meta.deleted {
                self.arena.copy_within(read..read + size, write);
                self.arena[write + 1] = kept as u32;
                self.meta[kept] = meta;
                write += size;
                kept += 1;
            }
            read += size;
        }
        self.arena.truncate(write);
        self.meta.truncate(kept);
    }

    fn rebuild_watches(&mut self) {
        for w in &mut self.watches {
            w.clear();
        }
        let mut cref = 0;
        while cref < self.arena.len() as ClauseRef {
            let (l0, l1) = (self.clause_lit(cref, 0), self.clause_lit(cref, 1));
            self.watches[l0.code()].push(Watcher { cref, blocker: l1 });
            self.watches[l1.code()].push(Watcher { cref, blocker: l0 });
            cref += (HEADER + self.clause_len(cref)) as ClauseRef;
        }
    }

    /// Checks the clause and XOR stores against the watches and the trail:
    /// every clause in the arena is live and watched by exactly its first
    /// two literals, every XOR by exactly its first two variables, no
    /// watcher points anywhere else, the meta table is in arena order, and
    /// every clause reason on the trail is a live clause led by the literal
    /// it implied.
    #[cfg(test)]
    fn check_invariants(&self) {
        use std::collections::HashMap;
        let mut watched: HashMap<ClauseRef, Vec<usize>> = HashMap::new();
        for (code, list) in self.watches.iter().enumerate() {
            for w in list {
                watched.entry(w.cref).or_default().push(code);
            }
        }
        let mut live = std::collections::HashSet::new();
        let mut words = 0;
        for (i, cref) in self.clause_refs().enumerate() {
            assert_eq!(self.meta_index(cref), i, "meta table out of arena order");
            assert!(
                !self.clause_meta(cref).deleted,
                "clause {cref} was freed but is still in the arena"
            );
            assert!(self.clause_len(cref) >= 2);
            let mut expected = [
                self.clause_lit(cref, 0).code(),
                self.clause_lit(cref, 1).code(),
            ];
            expected.sort_unstable();
            let mut got = watched.remove(&cref).unwrap_or_default();
            got.sort_unstable();
            assert_eq!(
                got, expected,
                "clause {cref} is watched by its first two literals"
            );
            live.insert(cref);
            words += HEADER + self.clause_len(cref);
        }
        assert_eq!(live.len(), self.meta.len(), "one meta entry per clause");
        assert_eq!(
            words,
            self.arena.len(),
            "the arena holds only whole clauses"
        );
        assert!(watched.is_empty(), "watchers of freed clauses: {watched:?}");
        let mut xor_watched: HashMap<XorRef, Vec<CnfVar>> = HashMap::new();
        for (var, list) in self.xor_watches.iter().enumerate() {
            for &xi in list {
                xor_watched.entry(xi).or_default().push(var as CnfVar);
            }
        }
        let mut xi = 0;
        while xi < self.xor_arena.len() {
            let vars = self.xor_vars(xi as XorRef);
            let mut expected = [vars[0], vars[1]];
            expected.sort_unstable();
            assert_eq!(
                xor_watched.remove(&(xi as XorRef)).unwrap_or_default(),
                expected,
                "XOR {xi} is watched by its first two variables"
            );
            xi += 1 + vars.len();
        }
        assert!(
            xor_watched.is_empty(),
            "watchers of no XOR: {xor_watched:?}"
        );
        for &lit in &self.trail {
            if let Reason::Clause(cref) = self.reason[lit.var() as usize] {
                assert!(live.contains(&cref), "{lit:?} has a freed reason clause");
                assert_eq!(
                    self.clause_lit(cref, 0),
                    lit,
                    "a reason clause leads with its implied literal"
                );
            }
        }
    }

    /// Top-level Gauss–Jordan elimination over the XOR constraints: combines
    /// constraints to expose forced assignments and contradictions. Returns
    /// `false` when the XOR system is inconsistent with the current top-level
    /// assignment.
    ///
    /// The elimination runs on the dense M4RM kernel via
    /// [`xor_gauss_eliminate`]; bringing the system into full RREF surfaces
    /// every forced assignment implied by the XOR subsystem, not only those
    /// exposed by a forward sweep.
    fn xor_gauss_top_level(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if self.num_xors == 0 {
            return true;
        }
        self.stats.xor_gauss_rounds += 1;
        // Reduce each XOR by the current top-level assignment.
        let mut rows: Vec<XorConstraint> = Vec::with_capacity(self.num_xors);
        let mut xi = 0;
        while xi < self.xor_arena.len() {
            let mut vars = Vec::new();
            let mut rhs = self.xor_arena[xi] & 1 == 1;
            let xor_vars = self.xor_vars(xi as XorRef);
            xi += 1 + xor_vars.len();
            for &v in xor_vars {
                match self.value_var(v) {
                    LBool::Undef => vars.push(v),
                    LBool::True => rhs = !rhs,
                    LBool::False => {}
                }
            }
            rows.push(XorConstraint::new(vars, rhs));
        }
        let outcome = xor_gauss_eliminate(&rows);
        self.stats.xor_gauss_row_xors += outcome.stats.row_xors as u64;
        if outcome.contradiction {
            return false;
        }
        // Extract forced assignments from single-variable rows.
        for row in &outcome.rows {
            if row.len() == 1 {
                let v = row.vars()[0];
                let lit = Lit::new(v, !row.rhs());
                match self.value_lit(lit) {
                    LBool::Undef => self.enqueue(lit, Reason::Decision),
                    LBool::False => return false,
                    LBool::True => {}
                }
            }
        }
        self.propagate().is_none()
    }
}

/// The Luby sequence (1, 1, 2, 1, 1, 2, 4, ...), 0-indexed: `luby(0) = 1`.
fn luby(i: u64) -> u64 {
    // Find the finite subsequence that contains index i, and the index within.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut i = i;
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_configs() -> Vec<SolverConfig> {
        vec![
            SolverConfig::minimal(),
            SolverConfig::aggressive(),
            SolverConfig::xor_gauss(),
        ]
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(prefix, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn empty_formula_is_sat() {
        for config in all_configs() {
            let mut s = Solver::new(config);
            assert_eq!(s.solve(), SolveResult::Sat);
            assert_eq!(s.model().map(<[bool]>::len), Some(0));
        }
    }

    #[test]
    fn unit_clauses_propagate() {
        let mut s = Solver::new(SolverConfig::minimal());
        s.new_vars(3);
        s.add_clause([Lit::positive(0)]);
        s.add_clause([Lit::negative(0), Lit::positive(1)]);
        s.add_clause([Lit::negative(1), Lit::negative(2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model().expect("model");
        assert!(model[0] && model[1] && !model[2]);
        assert_eq!(s.top_level_assignments().len(), 3);
    }

    #[test]
    fn simple_unsat_detected() {
        for config in all_configs() {
            let mut s = Solver::new(config);
            s.new_vars(1);
            s.add_clause([Lit::positive(0)]);
            let ok = s.add_clause([Lit::negative(0)]);
            assert!(!ok || s.solve() == SolveResult::Unsat);
        }
    }

    #[test]
    fn empty_clause_makes_unsat() {
        let mut s = Solver::new(SolverConfig::minimal());
        s.new_vars(1);
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_three_pigeons_two_holes_is_unsat() {
        // Variables p_{i,j}: pigeon i in hole j, i in 0..3, j in 0..2.
        let var = |i: u32, j: u32| i * 2 + j;
        for config in all_configs() {
            let mut s = Solver::new(config);
            s.new_vars(6);
            for i in 0..3 {
                s.add_clause([Lit::positive(var(i, 0)), Lit::positive(var(i, 1))]);
            }
            for j in 0..2 {
                for i1 in 0..3 {
                    for i2 in (i1 + 1)..3 {
                        s.add_clause([Lit::negative(var(i1, j)), Lit::negative(var(i2, j))]);
                    }
                }
            }
            assert_eq!(s.solve(), SolveResult::Unsat, "config {}", s.config().name);
        }
    }

    #[test]
    fn satisfiable_chain_has_model_satisfying_all_clauses() {
        for config in all_configs() {
            let mut s = Solver::new(config);
            let n = 20u32;
            s.new_vars(n as usize + 1);
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for i in 0..n {
                clauses.push(vec![Lit::negative(i), Lit::positive(i + 1)]);
            }
            clauses.push(vec![Lit::positive(0)]);
            for c in &clauses {
                s.add_clause(c.iter().copied());
            }
            assert_eq!(s.solve(), SolveResult::Sat);
            let model = s.model().expect("model");
            for c in &clauses {
                assert!(c.iter().any(|l| l.evaluate(model[l.var() as usize])));
            }
        }
    }

    #[test]
    fn pre_cancelled_token_returns_unknown_and_solver_stays_usable() {
        use bosphorus_interrupt::CancelToken;
        let mut s = Solver::new(SolverConfig::minimal());
        s.new_vars(3);
        s.add_clause([Lit::positive(0), Lit::positive(1)]);
        s.add_clause([Lit::negative(0), Lit::positive(2)]);
        let token = CancelToken::new();
        token.cancel();
        s.set_cancel_token(token);
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Replacing the token with a live one resumes normal solving.
        s.set_cancel_token(CancelToken::never());
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn cancellation_mid_search_returns_unknown() {
        use bosphorus_interrupt::CancelToken;
        // The pigeonhole instance needs far more than one checkpoint
        // window of conflicts; a token tripping on its first poll stops
        // the search long before a verdict.
        let pigeons = 8u32;
        let holes = 7u32;
        let var = |i: u32, j: u32| i * holes + j;
        let mut s = Solver::new(SolverConfig::minimal());
        s.new_vars((pigeons * holes) as usize);
        for i in 0..pigeons {
            s.add_clause((0..holes).map(|j| Lit::positive(var(i, j))));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    s.add_clause([Lit::negative(var(i1, j)), Lit::negative(var(i2, j))]);
                }
            }
        }
        // 2 polls: the check_now at solve() entry passes, the first
        // in-loop window trips.
        s.set_cancel_token(CancelToken::new().cancel_after_checks(2));
        assert_eq!(s.solve(), SolveResult::Unknown);
        // The tripping call itself records no decision, so one full window
        // leaves interval - 1 counted steps.
        assert!(
            s.stats().conflicts + s.stats().decisions >= super::SOLVER_CHECK_INTERVAL - 1,
            "at least one full checkpoint window ran"
        );
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A hard unsatisfiable pigeonhole instance with a tiny budget.
        let pigeons = 7u32;
        let holes = 6u32;
        let var = |i: u32, j: u32| i * holes + j;
        let mut s = Solver::new(SolverConfig::minimal());
        s.new_vars((pigeons * holes) as usize);
        for i in 0..pigeons {
            s.add_clause((0..holes).map(|j| Lit::positive(var(i, j))));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    s.add_clause([Lit::negative(var(i1, j)), Lit::negative(var(i2, j))]);
                }
            }
        }
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert!(s.stats().conflicts >= 5);
        // Removing the budget lets the solver finish.
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn no_call_exceeds_its_conflict_budget() {
        for config in all_configs() {
            let mut s = pigeonhole(7, 6, config);
            for (budget, total) in [(0, 0), (0, 0), (1, 1), (0, 1), (3, 4)] {
                s.set_conflict_budget(Some(budget));
                assert_eq!(s.solve(), SolveResult::Unknown);
                assert_eq!(s.stats().conflicts, total, "budget {budget}");
            }
            s.set_conflict_budget(None);
            assert_eq!(s.solve(), SolveResult::Unsat);
        }
    }

    #[test]
    fn a_spent_budget_pauses_the_search_and_a_new_clause_abandons_it() {
        let mut s = pigeonhole(7, 6, SolverConfig::minimal());
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert!(s.paused, "the budget pauses the search");
        assert!(s.decision_level() > 0, "the paused search keeps its trail");
        // Adding a clause backs out to level zero first, as the budget exit
        // did before searches could pause.
        assert!(s.add_clause([Lit::positive(0), Lit::positive(1)]));
        assert!(!s.paused);
        assert_eq!(s.decision_level(), 0);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn a_cancelled_token_abandons_a_paused_search() {
        use bosphorus_interrupt::CancelToken;
        let mut s = pigeonhole(7, 6, SolverConfig::aggressive());
        s.set_conflict_budget(Some(50));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert!(s.paused);
        let token = CancelToken::new();
        token.cancel();
        s.set_cancel_token(token);
        let conflicts = s.stats().conflicts;
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert!(!s.paused, "cancellation ends the paused search");
        assert_eq!(s.decision_level(), 0);
        assert_eq!(s.stats().conflicts, conflicts, "no search ran");
        s.set_cancel_token(CancelToken::never());
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn a_cancelled_decision_keeps_its_variable() {
        use bosphorus_interrupt::CancelToken;
        // Positive 3-clauses over more variables than one checkpoint window
        // of decisions, from a splitmix64 stream. Each solve below trips its
        // token on the first in-loop poll, which comes right after a
        // decision variable was popped from the heap. A variable lost there
        // would never be decided again and would read `false` in the model.
        let mut state = 0xdec1_5104_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let n = 6_000u64;
        let clauses: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..3).map(|_| Lit::positive((next() % n) as u32)).collect())
            .collect();
        let mut s = Solver::new(SolverConfig::minimal());
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        for _ in 0..3_000 {
            s.set_cancel_token(CancelToken::new().cancel_after_checks(2));
            assert_eq!(s.solve(), SolveResult::Unknown);
        }
        s.set_cancel_token(CancelToken::never());
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model().expect("model");
        let violated = clauses
            .iter()
            .filter(|c| !c.iter().any(|l| l.evaluate(model[l.var() as usize])))
            .count();
        assert_eq!(violated, 0, "the model violates {violated} clauses");
    }

    #[test]
    fn xor_constraints_propagate_and_conflict() {
        let mut s = Solver::new(SolverConfig::xor_gauss());
        s.new_vars(3);
        // x0 ⊕ x1 ⊕ x2 = 1, x0 = 1, x1 = 0  =>  x2 = 0.
        s.add_xor(XorConstraint::new([0, 1, 2], true));
        s.add_clause([Lit::positive(0)]);
        s.add_clause([Lit::negative(1)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model().expect("model");
        assert!(model[0] && !model[1] && !model[2]);
    }

    #[test]
    fn inconsistent_xor_system_is_unsat() {
        let mut s = Solver::new(SolverConfig::xor_gauss());
        s.new_vars(2);
        s.add_xor(XorConstraint::new([0, 1], true));
        s.add_xor(XorConstraint::new([0, 1], false));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn xor_with_clauses_mix() {
        let mut s = Solver::new(SolverConfig::xor_gauss());
        s.new_vars(4);
        s.add_xor(XorConstraint::new([0, 1, 2, 3], false));
        s.add_clause([Lit::positive(0)]);
        s.add_clause([Lit::positive(1)]);
        s.add_clause([Lit::positive(2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model().expect("model");
        assert!(model[3], "x3 must be 1 to keep even parity");
    }

    #[test]
    fn watched_xors_survive_db_reductions() {
        // Pigeonhole 7/6 searches long enough for reductions to fire, and
        // each reduction checks the XOR watches along with the clause
        // store. The XORs chain prefix parities of the pigeonhole
        // variables into fresh variables, so they move watches throughout
        // the search without changing the verdict.
        let mut config = SolverConfig::aggressive();
        config.learnt_ratio = 0.05;
        let mut s = pigeonhole(7, 6, config);
        let n = s.num_vars() as CnfVar;
        let mut prefix = 0;
        for v in 1..n {
            let next = s.new_var();
            assert!(s.add_xor(XorConstraint::new([prefix, v, next], v % 2 == 0)));
            prefix = next;
        }
        assert_eq!(s.num_xors(), n as usize - 1);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().db_reductions > 0, "{:?}", s.stats());
        assert!(s.stats().xor_propagations > 0);
    }

    #[test]
    fn learnt_units_are_exposed() {
        // Force the solver to learn x0 must be false:
        // (¬x0 ∨ x1) (¬x0 ∨ ¬x1) plus chaff to require search.
        let mut s = Solver::new(SolverConfig::minimal());
        s.new_vars(4);
        s.add_clause([Lit::negative(0), Lit::positive(1)]);
        s.add_clause([Lit::negative(0), Lit::negative(1)]);
        s.add_clause([Lit::positive(2), Lit::positive(3)]);
        s.add_clause([Lit::positive(0), Lit::positive(2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model().expect("model");
        assert!(!model[0]);
        // Whether a unit was learnt depends on the search path, but top-level
        // assignments must at least be consistent with the model.
        for lit in s.top_level_assignments() {
            assert!(lit.evaluate(model[lit.var() as usize]));
        }
    }

    #[test]
    fn from_formula_roundtrip() {
        let cnf = bosphorus_cnf::CnfFormula::parse_dimacs("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")
            .expect("parses");
        let mut s = Solver::from_formula(SolverConfig::aggressive(), &cnf);
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model().expect("model");
        assert_eq!(cnf.evaluate(model), Ok(true));
    }

    #[test]
    fn repeated_solve_calls_are_consistent() {
        let mut s = Solver::new(SolverConfig::aggressive());
        s.new_vars(3);
        s.add_clause([Lit::positive(0), Lit::positive(1), Lit::positive(2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Adding a contradiction afterwards flips the result.
        s.add_clause([Lit::negative(0)]);
        s.add_clause([Lit::negative(1)]);
        s.add_clause([Lit::negative(2)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Unsat, "unsat is remembered");
    }

    #[test]
    fn tautological_clause_is_ignored() {
        let mut s = Solver::new(SolverConfig::minimal());
        s.new_vars(2);
        assert!(s.add_clause([Lit::positive(0), Lit::negative(0)]));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    fn pigeonhole(pigeons: u32, holes: u32, config: SolverConfig) -> Solver {
        let var = |i: u32, j: u32| i * holes + j;
        let mut s = Solver::new(config);
        s.new_vars((pigeons * holes) as usize);
        for i in 0..pigeons {
            s.add_clause((0..holes).map(|j| Lit::positive(var(i, j))));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    s.add_clause([Lit::negative(var(i1, j)), Lit::negative(var(i2, j))]);
                }
            }
        }
        s
    }

    #[test]
    fn ccmin_shortens_clauses_and_preserves_verdicts() {
        // An unsatisfiable pigeonhole instance with every minimized clause
        // re-checked: the verdict must hold, and CCMin must report deleted
        // literals.
        let mut config = SolverConfig::minimal();
        config.verify_minimization = true;
        let mut s = pigeonhole(5, 4, config);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(
            s.stats().minimized_literals > 0,
            "CCMin fires on pigeonhole conflicts"
        );
    }

    #[test]
    fn verify_minimization_holds_under_xor_reasoning() {
        let mut config = SolverConfig::xor_gauss();
        config.verify_minimization = true;
        let mut s = Solver::new(config);
        s.new_vars(6);
        // XOR chain plus clauses that force search and conflicts.
        s.add_xor(XorConstraint::new([0, 1, 2], true));
        s.add_xor(XorConstraint::new([2, 3, 4], false));
        s.add_xor(XorConstraint::new([4, 5, 0], true));
        s.add_clause([Lit::positive(0), Lit::positive(3)]);
        s.add_clause([Lit::negative(1), Lit::positive(5)]);
        s.add_clause([Lit::negative(3), Lit::negative(5)]);
        let result = s.solve();
        assert_ne!(result, SolveResult::Unknown);
        if result == SolveResult::Sat {
            let model = s.model().expect("model");
            assert!(model[0] ^ model[1] ^ model[2]);
        }
    }

    #[test]
    fn db_reduction_protects_glue_and_counts_reductions() {
        let mut config = SolverConfig::aggressive();
        config.learnt_ratio = 0.05;
        let mut s = pigeonhole(7, 6, config);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().db_reductions > 0, "the schedule fired");
        assert!(s.stats().removed_clauses > 0);
        for c in s.clause_refs().filter(|&c| s.clause_meta(c).learnt) {
            assert!(
                s.clause_meta(c).lbd > 0,
                "learnt clauses carry their learning-time LBD"
            );
        }
        // Glue clauses are never deleted, whatever their activity: grow a
        // database without reductions, then run one reduction step by step.
        let mut config = SolverConfig::aggressive();
        config.learnt_ratio = f64::INFINITY;
        let mut s = pigeonhole(7, 6, config);
        s.set_conflict_budget(Some(300));
        assert_eq!(s.solve(), SolveResult::Unknown);
        let removed = s.mark_cold_learnts();
        assert!(removed > 0);
        let marked: Vec<ClauseRef> = s
            .clause_refs()
            .filter(|&c| s.clause_meta(c).deleted)
            .collect();
        assert_eq!(marked.len(), removed);
        for &c in &marked {
            let meta = s.clause_meta(c);
            assert!(meta.learnt && meta.lbd > LBD_GLUE && s.clause_len(c) > 2);
        }
        let clauses_before = s.clause_refs().count();
        s.collect_garbage();
        s.rebuild_watches();
        s.check_invariants();
        assert_eq!(s.clause_refs().count(), clauses_before - removed);
    }

    #[test]
    fn cancelled_token_skips_db_reduction() {
        use bosphorus_interrupt::CancelToken;
        let mut s = Solver::new(SolverConfig::aggressive());
        s.new_vars(4);
        s.add_clause([Lit::positive(0), Lit::positive(1)]);
        // Simulate a learnt database mid-flight, then a cancelled token:
        // reduce_db must leave every clause in place.
        s.attach_clause(
            &[Lit::positive(0), Lit::positive(2), Lit::positive(3)],
            true,
        );
        let token = CancelToken::new();
        token.cancel();
        s.set_cancel_token(token);
        let before = s.clause_refs().count();
        s.reduce_db();
        let after = s.clause_refs().count();
        assert_eq!(before, after, "a cancelled reduction deletes nothing");
        assert_eq!(s.stats().db_reductions, 0);
    }

    /// Every `reduce_db` in a test build ends with `check_invariants`, so
    /// these runs check the watches, the trail's reasons and the garbage
    /// collection after each of their reductions.
    #[test]
    fn reductions_keep_the_clause_store_consistent_on_pigeonhole() {
        let mut s = pigeonhole(8, 7, SolverConfig::aggressive());
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().db_reductions >= 3, "{}", s.stats().db_reductions);
    }

    #[test]
    fn reductions_keep_the_clause_store_consistent_on_random_3sat() {
        // A seeded 150-variable random 3-SAT instance just below the threshold
        // (ratio 4.2), from a splitmix64 stream.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let n = 150u64;
        let clauses: Vec<Vec<Lit>> = (0..630)
            .map(|_| {
                (0..3)
                    .map(|_| Lit::new((next() % n) as u32, next() & 1 == 1))
                    .collect()
            })
            .collect();
        let mut s = Solver::new(SolverConfig::aggressive());
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model().expect("model");
        for c in &clauses {
            assert!(c.iter().any(|l| l.evaluate(model[l.var() as usize])));
        }
        assert!(s.stats().db_reductions >= 3, "{}", s.stats().db_reductions);
    }

    #[test]
    fn stats_are_populated() {
        let mut s = Solver::new(SolverConfig::aggressive());
        s.new_vars(9);
        // 3-colouring-ish random-ish clauses to force a few decisions.
        for i in 0..3u32 {
            s.add_clause([
                Lit::positive(3 * i),
                Lit::positive(3 * i + 1),
                Lit::positive(3 * i + 2),
            ]);
            s.add_clause([Lit::negative(3 * i), Lit::negative(3 * i + 1)]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.stats().decisions > 0);
        assert!(s.stats().propagations > 0);
    }
}
