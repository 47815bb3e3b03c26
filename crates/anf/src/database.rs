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
//! A per-polynomial dirty set is kept alongside the global revision: each
//! polynomial remembers the revision at which it was last modified, and
//! [`AnfDatabase::dirty_since`] reports which indices a consumer must
//! re-read. [`AnfDatabase::propagate`] is itself such a consumer: it
//! propagates only the rows appended since its previous call and touches
//! the (already fixpointed) rest of the system only when those rows
//! actually produce new knowledge.

use crate::{AnfPropagator, Polynomial, PolynomialSystem, PropagationOutcome};

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
    revision: Revision,
    /// Revision at which each polynomial (by index) was last modified.
    /// Kept parallel to `system.polynomials()`.
    modified: Vec<Revision>,
    /// Revision observed at the end of the last [`AnfDatabase::propagate`]
    /// call (`None` before the first). Together with `modified` this
    /// identifies the rows appended since — the only rows an incremental
    /// propagation has to look at.
    last_propagated: Option<Revision>,
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
        let modified = vec![0; system.len()];
        AnfDatabase {
            system,
            propagator,
            revision: 0,
            modified,
            last_propagated: None,
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

    /// Indices of the polynomials modified after `revision` was observed —
    /// the dirty set an incremental pass must re-read.
    pub fn dirty_since(&self, revision: Revision) -> Vec<usize> {
        self.modified
            .iter()
            .enumerate()
            .filter(|&(_, &rev)| rev > revision)
            .map(|(idx, _)| idx)
            .collect()
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
    /// the *reduced* row is appended unless an equal row is already present,
    /// which also rejects a fact that reduces to an existing row — exactly
    /// what [`AnfDatabase::propagate`] would have reduced it to anyway.
    pub fn push_unique(&mut self, poly: Polynomial) -> bool {
        let reduced = self.propagator.apply_to_polynomial(&poly);
        if self.system.push_unique(reduced) {
            self.revision += 1;
            self.modified.push(self.revision);
            self.propagator.ensure_num_vars(self.system.num_vars());
            debug_assert_eq!(self.modified.len(), self.system.len());
            true
        } else {
            false
        }
    }

    /// Runs ANF propagation on the master system to a fixed point. When the
    /// propagation rewrote the system (or recorded new knowledge), the whole
    /// system is stamped with a new revision: propagation substitutes into
    /// every polynomial, so a wholesale rewrite dirties everything.
    ///
    /// Propagation is *incremental*: the dirty set identifies the rows
    /// appended since the previous call, and when reducing just those rows
    /// yields no new knowledge, the untouched prefix — already at its fixed
    /// point — is not rescanned at all. An empty dirty set short-circuits to
    /// a no-op. The observable outcome (counters, `system_changed`, the
    /// resulting system) is identical to a full-system propagation.
    pub fn propagate(&mut self) -> PropagationOutcome {
        let outcome = self.propagate_incremental();
        if outcome.system_changed
            || outcome.new_assignments > 0
            || outcome.new_equivalences > 0
            || outcome.contradiction
        {
            self.revision += 1;
            self.modified = vec![self.revision; self.system.len()];
        } else {
            debug_assert_eq!(self.modified.len(), self.system.len());
        }
        self.last_propagated = Some(self.revision);
        outcome
    }

    /// Chooses between the incremental suffix path and a full-system sweep.
    fn propagate_incremental(&mut self) -> PropagationOutcome {
        let full = |this: &mut AnfDatabase| -> PropagationOutcome {
            this.propagator.propagate(&mut this.system)
        };
        // First call, or a propagator in an exceptional state: full sweep.
        let Some(last) = self.last_propagated else {
            return full(self);
        };
        if self.propagator.has_contradiction() {
            return full(self);
        }
        let dirty = self.dirty_since(last);
        // An empty dirty set is the fixpoint invariant: nothing was appended
        // since the previous propagation, and only propagation itself changes
        // knowledge, so a sweep would reduce every row to itself.
        if !dirty.is_empty() {
            let clean_len = self.system.len() - dirty.len();
            // Appended facts form a trailing suffix (propagation stamps the
            // whole system with one revision; `push_unique` appends at later
            // ones). Anything else — including an all-dirty system — takes
            // the full path.
            if clean_len == 0 || dirty.first() != Some(&clean_len) {
                return full(self);
            }
            // Trial: propagate only the appended suffix against a clone of
            // the knowledge. If that yields no new knowledge, the clean
            // prefix (already at its fixed point under unchanged knowledge)
            // cannot be affected, and the suffix — reduced by that same
            // knowledge when it was pushed — is at its fixed point too.
            let mut suffix = PolynomialSystem::with_num_vars(self.system.num_vars());
            suffix.extend(self.system.iter().skip(clean_len).cloned());
            let sub = self.propagator.clone().propagate(&mut suffix);
            if sub.contradiction || sub.new_assignments > 0 || sub.new_equivalences > 0 {
                // The new rows carry knowledge that reaches the prefix: redo
                // everything from the untouched state so counters and
                // ordering match a from-scratch sweep exactly.
                return full(self);
            }
            debug_assert!(!sub.system_changed, "pushed rows are stored reduced");
        }
        PropagationOutcome {
            contradiction: false,
            new_assignments: 0,
            new_equivalences: 0,
            system_changed: false,
        }
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
        assert!(db.dirty_since(0).is_empty());
    }

    #[test]
    fn push_unique_bumps_revision_and_marks_dirty() {
        let mut db = db("x0*x1 + x2;");
        assert!(db.push_unique("x0 + x1".parse().expect("parses")));
        assert_eq!(db.revision(), 1);
        assert_eq!(db.dirty_since(0), vec![1], "only the new row is dirty");
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
        // The whole (rewritten) system is dirty relative to revision 0.
        assert_eq!(db.dirty_since(0).len(), db.len());
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
        assert!(db.dirty_since(rev).is_empty());
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
