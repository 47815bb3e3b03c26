//! Incremental ANF propagation: occurrence lists, a row hash index, and a
//! worklist that revisits only the rows a new fact can change.
//!
//! Both [`AnfPropagator::propagate`] and
//! [`AnfDatabase::propagate`](crate::AnfDatabase::propagate) run
//! [`RowIndex::propagate`]. It substitutes the current knowledge into the
//! rows and extracts the facts of Section II-A until no row yields anything
//! new, then drops zero rows and later duplicates:
//!
//! * A reduced row contains only *free roots*: variables that have no value
//!   and are not merged into another variable's class. A row whose
//!   variables are all still free roots reduces to itself and yields no new
//!   fact. A row therefore needs another visit only when one of its
//!   variables stops being a free root, and the occurrence lists (variable →
//!   rows) name exactly those rows. A variable never becomes a free root
//!   again, so its list is consumed when it changes.
//! * The fixed point does not depend on the visiting order (see
//!   `propagate.rs`), so the worklist is one set of dirty rows, scanned
//!   circularly: the next row is the smallest dirty position after the
//!   last one visited, wrapping to the start. The rows before the first
//!   appended one are at the fixed point, so visiting them yields nothing
//!   until a fact reaches them: a call seeded with every row visits the
//!   rows a call seeded with the appended ones visits, in the same order,
//!   and counts the same facts.
//! * Only rewritten rows can have become duplicates, so the one
//!   deduplication at the end of a call looks just those up in a hash index
//!   of the rows; the same index makes adding a fact a hash lookup.
//! * On a contradiction the call stops, and the rows stay as rewritten so
//!   far: each is equivalent to its input under the knowledge, which now
//!   holds the contradiction.

use std::collections::HashMap;

use crate::intern::hash_polynomial;
use crate::{AnfPropagator, Polynomial, PolynomialSystem, PropagationOutcome, TermScratch};

/// Bookkeeping for one row of the indexed system.
#[derive(Debug, Clone, Copy)]
struct RowMeta {
    /// Stable id: handed out in append order and never reused, so ids
    /// ascend with the row position and survive the removal of other rows.
    id: u32,
    /// The row's hash, the key it is filed under in `by_hash`.
    hash: u64,
    /// Removed during the running [`RowIndex::propagate`] call; the slot
    /// holds the zero polynomial until the call compacts the system.
    dropped: bool,
}

/// The ids of the rows filed under one hash: almost always a single row.
#[derive(Debug, Clone)]
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

impl Bucket {
    fn ids(&self) -> &[u32] {
        match self {
            Bucket::One(id) => std::slice::from_ref(id),
            Bucket::Many(ids) => ids,
        }
    }
}

/// A set of row positions, visited circularly. A bitset, so that
/// seeding every row of a first propagation costs a word per 64 rows.
struct RowSet {
    words: Vec<u64>,
    len: usize,
}

impl RowSet {
    fn new(rows: usize) -> Self {
        RowSet {
            words: vec![0; rows.div_ceil(64)],
            len: 0,
        }
    }

    fn insert(&mut self, pos: usize) {
        let (word, bit) = (pos / 64, 1u64 << (pos % 64));
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.len += 1;
        }
    }

    /// Removes and returns the smallest position at or after `from`, or the
    /// smallest one overall when there is none after it.
    fn pop_circular(&mut self, from: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let pos = self.first_from(from).or_else(|| self.first_from(0))?;
        self.words[pos / 64] &= !(1u64 << (pos % 64));
        self.len -= 1;
        Some(pos)
    }

    /// The smallest position at or after `from`.
    fn first_from(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.words.get(word)? & (!0u64 << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.words.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }
}

/// The propagation index of a [`PolynomialSystem`]: per-row ids and
/// hashes, occurrence lists and the row hash index.
///
/// It mirrors the system it was built from: every change to the system's
/// rows goes through [`RowIndex::push_unique`] or
/// [`RowIndex::propagate`].
#[derive(Debug, Clone)]
pub(crate) struct RowIndex {
    /// One entry per row of the system, in row order.
    rows: Vec<RowMeta>,
    next_id: u32,
    /// Variable → ids of rows that contained it when they were indexed. A
    /// list may also name rows that are gone or no longer contain the
    /// variable; such entries are skipped.
    occurrences: Vec<Vec<u32>>,
    /// Row hash → ids of the live rows with that hash.
    by_hash: HashMap<u64, Bucket>,
}

impl RowIndex {
    /// Indexes every row of `system`.
    pub(crate) fn new(system: &PolynomialSystem) -> Self {
        let mut index = RowIndex {
            rows: Vec::with_capacity(system.len()),
            next_id: system.len() as u32,
            occurrences: system.occurrence_lists(),
            by_hash: HashMap::with_capacity(system.len()),
        };
        for (id, poly) in (0..).zip(system.iter()) {
            let hash = hash_polynomial(poly);
            index.rows.push(RowMeta {
                id,
                hash,
                dropped: false,
            });
            index.file(hash, id);
        }
        index
    }

    /// Appends `poly` to `system` unless it is zero or equal to a row
    /// already there; returns `true` if it was appended.
    pub(crate) fn push_unique(&mut self, system: &mut PolynomialSystem, poly: Polynomial) -> bool {
        if poly.is_zero() {
            return false;
        }
        let hash = hash_polynomial(&poly);
        if self.find(system.polynomials(), &poly, hash).is_some() {
            return false;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.occurrences.resize(
            self.occurrences
                .len()
                .max(poly.max_var().map_or(0, |v| v as usize + 1)),
            Vec::new(),
        );
        self.index_vars(&poly, id, None);
        system.push(poly);
        self.rows.push(RowMeta {
            id,
            hash,
            dropped: false,
        });
        self.file(hash, id);
        true
    }

    /// Propagates `prop`'s knowledge through `system` to the fixed point,
    /// starting from the rows at positions `first..`. The rows before
    /// `first` must be at the fixed point of the current knowledge (each
    /// contains only free roots and yields no fact); pass 0 when nothing is
    /// known about them.
    ///
    /// Zero rows and later duplicates are removed. On a contradiction the
    /// rows stay as rewritten so far.
    pub(crate) fn propagate(
        &mut self,
        system: &mut PolynomialSystem,
        prop: &mut AnfPropagator,
        first: usize,
    ) -> PropagationOutcome {
        prop.ensure_num_vars(system.num_vars());
        let mut outcome = PropagationOutcome::default();
        let mut scratch = TermScratch::new();
        let mut dirty = RowSet::new(self.rows.len());
        for pos in first..self.rows.len() {
            dirty.insert(pos);
        }
        // Rows that may duplicate another at the end: the rewritten ones,
        // and on a first propagation the rows of the input that share their
        // hash with another.
        let mut candidates: Vec<usize> = Vec::new();
        if first == 0 {
            for bucket in self.by_hash.values() {
                if let Bucket::Many(ids) = bucket {
                    candidates.extend(ids.iter().filter_map(|&id| self.position(id)));
                }
            }
        }
        let mut any_dropped = false;
        let polys = system.polynomials_mut();
        let mut cursor = 0;
        while let Some(pos) = dirty.pop_circular(cursor) {
            cursor = pos + 1;
            if self.rows[pos].dropped {
                continue;
            }
            let reduced = prop.reduce_with(&polys[pos], &mut scratch);
            if reduced.as_ref().unwrap_or(&polys[pos]).is_one() {
                prop.flag_contradiction();
                break;
            }
            if reduced.is_some() || polys[pos].is_zero() {
                // The row is rewritten, or vanishes (a zero row of the input
                // reduces to nothing new but vanishes too).
                outcome.system_changed = true;
                let RowMeta { id, hash, .. } = self.rows[pos];
                self.unfile(hash, id);
                let reduced = reduced.unwrap_or_default();
                if reduced.is_zero() {
                    any_dropped = true;
                    self.rows[pos].dropped = true;
                    polys[pos] = reduced;
                    continue;
                }
                let hash = hash_polynomial(&reduced);
                self.rows[pos].hash = hash;
                self.file(hash, id);
                self.index_vars(&reduced, id, Some(&polys[pos]));
                candidates.push(pos);
                polys[pos] = reduced;
            }
            if prop.extract_fact(&polys[pos], &mut outcome) {
                self.requeue(prop, &polys[pos], &mut dirty);
            }
            if prop.has_contradiction() {
                break;
            }
        }
        if prop.has_contradiction() {
            outcome.contradiction = true;
            outcome.system_changed = true;
        }
        // Drop later duplicates: of equal rows, the first one stays.
        candidates.sort_unstable();
        candidates.dedup();
        for pos in candidates {
            if self.rows[pos].dropped {
                continue;
            }
            for dup in self.later_equals(polys, pos) {
                let meta = &mut self.rows[dup];
                meta.dropped = true;
                let (hash, id) = (meta.hash, meta.id);
                self.unfile(hash, id);
                polys[dup] = Polynomial::zero();
                any_dropped = true;
                outcome.system_changed = true;
            }
        }
        if any_dropped {
            self.compact(polys);
        }
        outcome
    }

    /// The position of the live row with this id, if it is still present.
    fn position(&self, id: u32) -> Option<usize> {
        self.rows.binary_search_by_key(&id, |r| r.id).ok()
    }

    /// The position of a row equal to `poly` (whose hash is `hash`).
    fn find(&self, polys: &[Polynomial], poly: &Polynomial, hash: u64) -> Option<usize> {
        let bucket = self.by_hash.get(&hash)?;
        bucket
            .ids()
            .iter()
            .filter_map(|&id| self.position(id))
            .find(|&pos| polys[pos] == *poly)
    }

    /// The live rows equal to row `pos`, except the first of them.
    fn later_equals(&self, polys: &[Polynomial], pos: usize) -> Vec<usize> {
        let ids = self.by_hash[&self.rows[pos].hash].ids();
        if ids.len() == 1 {
            return Vec::new();
        }
        let mut equal: Vec<usize> = ids
            .iter()
            .filter_map(|&id| self.position(id))
            .filter(|&p| polys[p] == polys[pos])
            .collect();
        equal.sort_unstable();
        equal.remove(0);
        equal
    }

    /// Queues every row that contains a variable of `reduced` (a row that
    /// just yielded a fact from it) that is no longer a free root.
    fn requeue(&mut self, prop: &AnfPropagator, reduced: &Polynomial, dirty: &mut RowSet) {
        for m in reduced.monomials() {
            for &v in m.vars() {
                if prop.is_free_root(v) {
                    continue;
                }
                for id in std::mem::take(&mut self.occurrences[v as usize]) {
                    if let Some(row) = self.position(id) {
                        dirty.insert(row);
                    }
                }
            }
        }
    }

    /// Adds row `id` to the occurrence lists of the variables of `poly`,
    /// skipping those `old` (its previous contents) has.
    fn index_vars(&mut self, poly: &Polynomial, id: u32, old: Option<&Polynomial>) {
        for m in poly.monomials() {
            for &v in m.vars() {
                let list = &mut self.occurrences[v as usize];
                if list.last() != Some(&id) && !old.is_some_and(|old| old.contains_var(v)) {
                    list.push(id);
                }
            }
        }
    }

    /// Removes the dropped rows from the system and the index.
    fn compact(&mut self, polys: &mut Vec<Polynomial>) {
        let mut dropped = self.rows.iter().map(|r| r.dropped);
        polys.retain(|_| !dropped.next().expect("one entry per row"));
        self.rows.retain(|r| !r.dropped);
    }

    fn file(&mut self, hash: u64, id: u32) {
        match self.by_hash.get_mut(&hash) {
            None => {
                self.by_hash.insert(hash, Bucket::One(id));
            }
            Some(bucket) => {
                let mut ids = bucket.ids().to_vec();
                ids.push(id);
                *bucket = Bucket::Many(ids);
            }
        }
    }

    fn unfile(&mut self, hash: u64, id: u32) {
        let Some(bucket) = self.by_hash.get_mut(&hash) else {
            return;
        };
        match bucket {
            Bucket::One(only) => {
                if *only == id {
                    self.by_hash.remove(&hash);
                }
            }
            Bucket::Many(ids) => {
                ids.retain(|&other| other != id);
                match ids[..] {
                    [] => {
                        self.by_hash.remove(&hash);
                    }
                    [last] => *bucket = Bucket::One(last),
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{AnfPropagator, PolynomialSystem};

    /// Propagates `text` with the worklist and with the sweep oracle,
    /// checks that the two agree on the rows, the resolved knowledge and
    /// the contradiction, and returns the worklist's result.
    fn propagate_both(text: &str) -> (PolynomialSystem, AnfPropagator) {
        let mut fast = PolynomialSystem::parse(text).expect("test system parses");
        let mut slow = fast.clone();
        let mut fast_prop = AnfPropagator::new(fast.num_vars());
        let mut slow_prop = fast_prop.clone();
        let contradiction = fast_prop.propagate(&mut fast).contradiction;
        assert_eq!(
            contradiction,
            slow_prop.propagate_by_sweeps(&mut slow).contradiction
        );
        if !contradiction {
            assert_eq!(fast.polynomials(), slow.polynomials());
            for v in 0..fast.num_vars() as u32 {
                assert_eq!(fast_prop.knowledge(v), slow_prop.knowledge(v), "x{v}");
            }
        }
        (fast, fast_prop)
    }

    #[test]
    fn both_visiting_orders_reach_the_same_fixed_point() {
        // x1 = ¬x0 first turns x1*x2 + 1 into x0*x2 + x2 + 1, which is
        // (x0 ⊕ 1)·x2 ⊕ 1 and still forces x0 = 0 and x2 = 1; x1*x2 + 1
        // first gives x1 = x2 = 1 and then x0 = 0.
        for text in ["x0 + x1 + 1; x1*x2 + 1;", "x1*x2 + 1; x0 + x1 + 1;"] {
            let (system, prop) = propagate_both(text);
            assert!(system.is_empty(), "{text}");
            assert_eq!(prop.value(0), Some(false), "{text}");
            assert_eq!(prop.value(1), Some(true), "{text}");
            assert_eq!(prop.value(2), Some(true), "{text}");
        }
    }

    #[test]
    fn rows_dirtied_ahead_of_the_cursor_join_the_running_sweep() {
        // The first row is (x7 ⊕ 1)·x9 ⊕ 1: x7 = 0 and x9 = 1. That dirties
        // the second row, ahead of the cursor, which becomes x1*x2 + 1 and
        // is visited in the same pass, before the third row.
        let (system, prop) =
            propagate_both("x9*x7 + x9 + 1; x1*x2 + x7 + 1; x0 + x1 + x9; x9 + 1;");
        assert!(system.is_empty());
        assert_eq!(prop.value(0), Some(false));
        assert_eq!(prop.value(2), Some(true));
    }

    #[test]
    fn a_contradiction_keeps_the_rows_rewritten_so_far() {
        // The first pass learns x0 = 1 (rewriting the second row), then
        // x1 = x2 = 1 and x7 = 0. The scan wraps, drops the now zero first
        // row and reduces the third row to 1 = 0: the call stops there, and
        // the rows it had not revisited stay as they were.
        let (system, prop) =
            propagate_both("x0 + 1; x0*x3 + x4*x5; x1*x2 + x7; x1 + 1; x2 + 1; x7;");
        assert!(prop.has_contradiction());
        assert_eq!(
            system.to_string(),
            "x4*x5 + x3;\nx1*x2 + x7;\nx1 + 1;\nx2 + 1;\nx7;\n"
        );
    }
}
