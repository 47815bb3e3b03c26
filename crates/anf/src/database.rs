//! The incremental ANF database backing the fact-learning pipeline.
//!
//! Bosphorus's learning techniques all read (and feed facts back into) one
//! shared problem representation: the master ANF copy plus the propagation
//! knowledge accumulated so far. [`AnfDatabase`] bundles the two and stamps
//! every observable change with a monotonically increasing [`Revision`], so
//! a learning pass can record the revision it last read and skip its work
//! entirely when nothing has changed since — turning the engine's
//! fixed-point loop from repeated full-system rescans into incremental
//! updates.
//!
//! The database also keeps a propagation index of its rows: occurrence
//! lists (variable → rows) and a hash index. [`AnfDatabase::push_unique`]
//! is a hash lookup, and [`AnfDatabase::propagate`] starts a worklist from
//! the rows appended since its previous call. A row is visited again only
//! when one of its variables receives a value or joins another variable's
//! class; rows the new facts do not reach are never touched.

use crate::worklist::RowIndex;
use crate::{AnfPropagator, Polynomial, PolynomialSystem, PropagationOutcome, TermScratch};

/// A monotonically increasing change counter. Revision 0 is the freshly
/// constructed database; every observable mutation bumps it by one.
pub type Revision = u64;

/// The master ANF copy plus propagation knowledge, with revision tracking.
///
/// # Examples
///
/// ```
/// use bosphorus_anf::{AnfDatabase, PolynomialSystem};
///
/// let system = PolynomialSystem::parse("x0*x1 + x2; x1 + x2;")?;
/// let mut db = AnfDatabase::new(system);
/// let before = db.revision();
///
/// // Adding a new fact bumps the revision...
/// assert!(db.push_unique("x0 + 1".parse()?));
/// assert!(db.has_changed_since(before));
///
/// // ...and propagating it rewrites the system (another bump).
/// let after_push = db.revision();
/// let outcome = db.propagate();
/// assert!(!outcome.contradiction);
/// assert_eq!(db.propagator().value(0), Some(true));
/// assert!(db.has_changed_since(after_push));
///
/// // A fact the database already implies is not new.
/// let propagated = db.revision();
/// assert!(!db.push_unique("x0 + 1".parse()?));
/// assert!(!db.has_changed_since(propagated));
///
/// // A database nobody touched reports no change.
/// let quiet = db.revision();
/// assert!(!db.has_changed_since(quiet));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnfDatabase {
    system: PolynomialSystem,
    propagator: AnfPropagator,
    /// Occurrence lists and row hashes of `system`.
    index: RowIndex,
    revision: Revision,
    /// Number of rows at the end of the last [`AnfDatabase::propagate`]
    /// call (`None` before the first): the rows after it were appended
    /// since, and only they can seed new knowledge.
    propagated_rows: Option<usize>,
}

impl AnfDatabase {
    /// Creates a database owning `system`, with a fresh propagator sized to
    /// the system's variable space.
    pub fn new(system: PolynomialSystem) -> Self {
        let propagator = AnfPropagator::new(system.num_vars());
        AnfDatabase::with_propagator(system, propagator)
    }

    /// Creates a database from an existing system and propagation state.
    pub fn with_propagator(system: PolynomialSystem, mut propagator: AnfPropagator) -> Self {
        propagator.ensure_num_vars(system.num_vars());
        AnfDatabase {
            index: RowIndex::new(&system),
            system,
            propagator,
            revision: 0,
            propagated_rows: None,
        }
    }

    /// The master polynomial system.
    pub fn system(&self) -> &PolynomialSystem {
        &self.system
    }

    /// The propagation knowledge (determined variables and equivalences).
    pub fn propagator(&self) -> &AnfPropagator {
        &self.propagator
    }

    /// The current revision. Any mutation that a reader could observe bumps
    /// this counter.
    pub fn revision(&self) -> Revision {
        self.revision
    }

    /// Returns `true` when the database has been mutated after `revision`
    /// was observed.
    pub fn has_changed_since(&self, revision: Revision) -> bool {
        self.revision > revision
    }

    /// Number of polynomial equations.
    pub fn len(&self) -> usize {
        self.system.len()
    }

    /// Returns `true` if the system has no equations.
    pub fn is_empty(&self) -> bool {
        self.system.is_empty()
    }

    /// Number of variables in the system's variable space.
    pub fn num_vars(&self) -> usize {
        self.system.num_vars()
    }

    /// Appends a learnt fact unless the database already implies it.
    /// Returns `true` (and bumps the revision) when it was inserted.
    ///
    /// This is the one place that decides whether a fact is new. The fact is
    /// first reduced by the propagation knowledge: one that reduces to zero
    /// restates a determined value or equivalence and is rejected. Otherwise
    /// the *reduced* row is appended unless an equal row is already present
    /// (a hash lookup), which also rejects a fact that reduces to an
    /// existing row — exactly what [`AnfDatabase::propagate`] would have
    /// reduced it to anyway.
    pub fn push_unique(&mut self, poly: Polynomial) -> bool {
        let reduced = self
            .propagator
            .reduce_with(&poly, &mut TermScratch::new())
            .unwrap_or(poly);
        if self.index.push_unique(&mut self.system, reduced) {
            self.revision += 1;
            self.propagator.ensure_num_vars(self.system.num_vars());
            true
        } else {
            false
        }
    }

    /// Runs ANF propagation on the master system to a fixed point, and
    /// bumps the revision once when it rewrote the system or recorded new
    /// knowledge.
    ///
    /// Propagation is *incremental*: its worklist starts from the rows
    /// appended since the previous call (every row on the first call, or
    /// after a contradiction), and reaches the rest of the system only
    /// through the occurrence lists of variables that received new
    /// knowledge. A call with nothing appended is a no-op. The outcome
    /// (rows, knowledge, counters, `system_changed`) is identical to
    /// sweeping the whole system until nothing changes.
    pub fn propagate(&mut self) -> PropagationOutcome {
        let first = match self.propagated_rows {
            Some(rows) if !self.propagator.has_contradiction() => rows,
            _ => 0,
        };
        let outcome = self
            .index
            .propagate(&mut self.system, &mut self.propagator, first);
        if outcome.system_changed
            || outcome.new_assignments > 0
            || outcome.new_equivalences > 0
            || outcome.contradiction
        {
            self.revision += 1;
        }
        self.propagated_rows = Some(self.system.len());
        outcome
    }

    /// Returns `true` if the propagator has derived a contradiction.
    pub fn has_contradiction(&self) -> bool {
        self.propagator.has_contradiction()
    }

    /// Consumes the database, returning the system and propagation state.
    pub fn into_parts(self) -> (PolynomialSystem, AnfPropagator) {
        (self.system, self.propagator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(text: &str) -> AnfDatabase {
        AnfDatabase::new(PolynomialSystem::parse(text).expect("test system parses"))
    }

    #[test]
    fn fresh_database_is_at_revision_zero() {
        let db = db("x0*x1 + x2;");
        assert_eq!(db.revision(), 0);
        assert!(!db.has_changed_since(0));
    }

    #[test]
    fn push_unique_bumps_revision_and_marks_dirty() {
        let mut db = db("x0*x1 + x2;");
        assert!(db.push_unique("x0 + x1".parse().expect("parses")));
        assert_eq!(db.revision(), 1);
        assert_eq!(db.len(), 2, "the new row is appended");
        assert_eq!(
            db.system().polynomials()[1],
            "x0 + x1".parse().expect("parses")
        );
        // A duplicate changes nothing.
        assert!(!db.push_unique("x0 + x1".parse().expect("parses")));
        assert_eq!(db.revision(), 1);
    }

    #[test]
    fn push_unique_grows_the_propagator() {
        let mut db = db("x0;");
        assert!(db.push_unique("x7 + 1".parse().expect("parses")));
        assert_eq!(db.num_vars(), 8);
        assert_eq!(db.propagator().num_vars(), 8);
    }

    #[test]
    fn propagate_marks_everything_dirty_on_change() {
        let mut db = db("x0 + 1; x0*x1 + x2;");
        let outcome = db.propagate();
        assert!(!outcome.contradiction);
        assert!(outcome.system_changed);
        assert_eq!(db.revision(), 1);
        // The rewritten system is one revision past the input.
        assert!(db.has_changed_since(0));
        assert!(db.is_empty(), "x0 = 1, then x1 + x2 becomes x1 = x2");
    }

    #[test]
    fn propagate_at_fixpoint_keeps_the_revision() {
        let mut db = db("x0 + 1; x0*x1 + x2;");
        db.propagate();
        let rev = db.revision();
        let outcome = db.propagate();
        assert!(!outcome.system_changed);
        assert_eq!(db.revision(), rev, "no-op propagation is revision-silent");
    }

    #[test]
    fn contradiction_bumps_revision_and_is_reported() {
        let mut db = db("x0; x0 + 1;");
        let outcome = db.propagate();
        assert!(outcome.contradiction);
        assert!(db.has_contradiction());
        assert!(db.has_changed_since(0));
    }

    #[test]
    fn incremental_propagation_merges_knowledge_free_facts_without_a_rescan() {
        let mut db = db("x5 + 1; x0*x1 + x2*x3;");
        db.propagate();
        assert_eq!(db.len(), 1, "x5 is propagated away");
        // A long linear fact carries no propagatable knowledge: the suffix
        // path keeps it verbatim and reports no change beyond the push.
        assert!(db.push_unique("x0 + x1 + x2".parse().expect("parses")));
        let rev = db.revision();
        let outcome = db.propagate();
        assert_eq!(outcome.new_assignments, 0);
        assert_eq!(outcome.new_equivalences, 0);
        assert!(!outcome.system_changed, "nothing reduced");
        assert_eq!(db.revision(), rev, "no extra revision bump");
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn push_unique_rejects_a_fact_the_propagator_implies() {
        let mut db = db("x5 + 1; x0*x1 + x2*x3;");
        db.propagate();
        let rev = db.revision();
        // x5 = 1 was propagated out of the rows; restating it is no news.
        assert!(!db.push_unique("x5 + 1".parse().expect("parses")));
        assert_eq!(db.revision(), rev, "a rejected fact is revision-silent");
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn push_unique_rejects_a_fact_that_reduces_to_an_existing_row() {
        let mut db = db("x5 + 1; x0*x1 + x2*x3;");
        db.propagate();
        let rev = db.revision();
        // Under x5 = 1 this reduces to the already-present x0*x1 + x2*x3.
        assert!(!db.push_unique("x0*x1*x5 + x2*x3*x5".parse().expect("parses")));
        assert_eq!(db.revision(), rev);
        // A fact that reduces to something new is stored reduced.
        assert!(db.push_unique("x0*x5 + x2".parse().expect("parses")));
        assert_eq!(
            db.system().polynomials()[1],
            "x0 + x2".parse().expect("parses")
        );
    }

    #[test]
    fn incremental_propagation_falls_back_when_facts_carry_knowledge() {
        let mut db = db("x0*x1 + x2*x3;");
        db.propagate();
        assert!(db.push_unique("x9 + 1".parse().expect("parses")));
        let outcome = db.propagate();
        assert_eq!(outcome.new_assignments, 1, "the unit fact is absorbed");
        assert_eq!(db.propagator().value(9), Some(true));
        assert_eq!(db.len(), 1, "the absorbed fact leaves the system");
    }

    #[test]
    fn into_parts_returns_system_and_knowledge() {
        let mut db = db("x0 + 1;");
        db.propagate();
        let (system, propagator) = db.into_parts();
        assert!(system.is_empty());
        assert_eq!(propagator.value(0), Some(true));
    }
}
