//! A fast-hash monomial interner: monomial → dense `u32` id.
//!
//! Linearisation (treating each distinct monomial as a matrix column) needs
//! a monomial→index map on its hottest path: every term of every expanded
//! polynomial is looked up once. A `BTreeMap<Monomial, usize>` pays a
//! logarithmic chain of full monomial comparisons per lookup and clones
//! every key; this interner is an open-addressing hash table with an
//! FxHash-style mixer over the variable indices, storing each distinct
//! monomial exactly once.

use crate::{Monomial, Polynomial};

const EMPTY: u32 = u32::MAX;

/// Maps monomials to dense ids `0..len`, cloning each distinct monomial
/// exactly once.
///
/// Ids are assigned in first-seen order, which makes interning deterministic
/// for a deterministic input sequence — the property the engine's
/// reproducibility tests rely on.
///
/// # Examples
///
/// ```
/// use bosphorus_anf::{Monomial, MonomialInterner};
///
/// let mut interner = MonomialInterner::new();
/// let a = Monomial::from_vars([0, 2]);
/// let id = interner.intern(&a);
/// assert_eq!(interner.intern(&a), id, "re-interning is stable");
/// assert_eq!(interner.get(&a), Some(id));
/// assert_eq!(interner.monomial(id), &a);
/// assert_eq!(interner.get(&Monomial::variable(9)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MonomialInterner {
    /// id → monomial (the single stored clone).
    monomials: Vec<Monomial>,
    /// id → cached hash (so table growth never re-hashes keys).
    hashes: Vec<u64>,
    /// Open-addressing table of ids; `EMPTY` marks a free slot. Length is a
    /// power of two; empty until the first insertion.
    table: Vec<u32>,
}

impl MonomialInterner {
    /// An empty interner.
    pub fn new() -> Self {
        MonomialInterner::default()
    }

    /// An empty interner with room for about `n` distinct monomials before
    /// the first table growth.
    pub fn with_capacity(n: usize) -> Self {
        let mut interner = MonomialInterner {
            monomials: Vec::with_capacity(n),
            hashes: Vec::with_capacity(n),
            table: Vec::new(),
        };
        interner.grow_table((n * 2).next_power_of_two().max(16));
        interner
    }

    /// Number of distinct monomials interned so far.
    pub fn len(&self) -> usize {
        self.monomials.len()
    }

    /// Returns `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.monomials.is_empty()
    }

    /// The monomial behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this interner.
    pub fn monomial(&self, id: u32) -> &Monomial {
        &self.monomials[id as usize]
    }

    /// All interned monomials, indexed by id (first-seen order).
    pub fn monomials(&self) -> &[Monomial] {
        &self.monomials
    }

    /// The id of `m`, interning it (one clone) on first sight.
    pub fn intern(&mut self, m: &Monomial) -> u32 {
        if self.table.is_empty() || (self.monomials.len() + 1) * 4 > self.table.len() * 3 {
            self.grow_table((self.table.len() * 2).max(16));
        }
        let hash = hash_monomial(m);
        let mask = self.table.len() - 1;
        let mut idx = hash as usize & mask;
        loop {
            let slot = self.table[idx];
            if slot == EMPTY {
                let id = self.monomials.len() as u32;
                self.monomials.push(m.clone());
                self.hashes.push(hash);
                self.table[idx] = id;
                return id;
            }
            if self.hashes[slot as usize] == hash && &self.monomials[slot as usize] == m {
                return slot;
            }
            idx = (idx + 1) & mask;
        }
    }

    /// The id of `m`, if it has been interned.
    pub fn get(&self, m: &Monomial) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let hash = hash_monomial(m);
        let mask = self.table.len() - 1;
        let mut idx = hash as usize & mask;
        loop {
            let slot = self.table[idx];
            if slot == EMPTY {
                return None;
            }
            if self.hashes[slot as usize] == hash && &self.monomials[slot as usize] == m {
                return Some(slot);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// The linearisation column ordering: all interned ids sorted by
    /// *descending* graded-lexicographic monomial order (so column 0 is the
    /// largest monomial and each RREF row's pivot is its leading monomial),
    /// together with the inverse id → column map.
    ///
    /// Sorts precomputed (degree, packed variables) keys; only monomials of
    /// degree above four whose first four variables agree need the full
    /// comparison.
    pub fn column_order_desc(&self) -> (Vec<u32>, Vec<u32>) {
        let mut keyed: Vec<((usize, u128), u32)> = self
            .monomials
            .iter()
            .zip(0..)
            .map(|(m, id)| (m.graded_key(), id))
            .collect();
        keyed.sort_unstable_by(|(ka, a), (kb, b)| {
            kb.cmp(ka)
                .then_with(|| self.monomials[*b as usize].cmp(&self.monomials[*a as usize]))
        });
        let order: Vec<u32> = keyed.into_iter().map(|(_, id)| id).collect();
        let mut col_of_id = vec![0u32; order.len()];
        for (col, &id) in order.iter().enumerate() {
            col_of_id[id as usize] = col as u32;
        }
        (order, col_of_id)
    }

    fn grow_table(&mut self, new_len: usize) {
        debug_assert!(new_len.is_power_of_two());
        self.table.clear();
        self.table.resize(new_len, EMPTY);
        let mask = new_len - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut idx = hash as usize & mask;
            while self.table[idx] != EMPTY {
                idx = (idx + 1) & mask;
            }
            self.table[idx] = id as u32;
        }
    }
}

/// FxHash-style mix over the monomials' hashes (plus the term count).
pub(crate) fn hash_polynomial(p: &Polynomial) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = (p.len() as u64).wrapping_mul(K);
    for m in p.monomials() {
        h = (h.rotate_left(5) ^ hash_monomial(m)).wrapping_mul(K);
    }
    h
}

/// FxHash-style mix over the variable indices (plus the degree, so short
/// prefixes of longer monomials do not collide trivially).
fn hash_monomial(m: &Monomial) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = (m.degree() as u64).wrapping_mul(K);
    for &v in m.vars() {
        h = (h.rotate_left(5) ^ u64::from(v)).wrapping_mul(K);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_dense() {
        let mut interner = MonomialInterner::new();
        let ms: Vec<Monomial> = (0..100u32)
            .map(|i| Monomial::from_vars([i, i + 1, (i * 7) % 50]))
            .collect();
        let ids: Vec<u32> = ms.iter().map(|m| interner.intern(m)).collect();
        // Ids are dense, first-seen ordered and stable on re-intern.
        for (m, &id) in ms.iter().zip(&ids) {
            assert_eq!(interner.intern(m), id);
            assert_eq!(interner.get(m), Some(id));
            assert_eq!(interner.monomial(id), m);
        }
        assert_eq!(interner.len(), ms.len());
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ms.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn duplicates_are_interned_once() {
        let mut interner = MonomialInterner::new();
        let a = Monomial::from_vars([3, 5]);
        let b = Monomial::from_vars([5, 3]); // same monomial, different input
        assert_eq!(interner.intern(&a), interner.intern(&b));
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn growth_preserves_all_entries() {
        let mut interner = MonomialInterner::with_capacity(4);
        let ms: Vec<Monomial> = (0..1000u32).map(Monomial::variable).collect();
        for m in &ms {
            interner.intern(m);
        }
        assert_eq!(interner.len(), 1000);
        for (i, m) in ms.iter().enumerate() {
            assert_eq!(interner.get(m), Some(i as u32), "entry survives growth");
        }
    }

    #[test]
    fn empty_interner_lookups_miss() {
        let interner = MonomialInterner::new();
        assert!(interner.is_empty());
        assert_eq!(interner.get(&Monomial::one()), None);
    }

    #[test]
    fn column_order_is_descending_graded_lex_with_inverse() {
        let mut interner = MonomialInterner::new();
        // Interned out of order on purpose.
        for m in [
            Monomial::variable(3),
            Monomial::from_vars([1, 2]),
            Monomial::one(),
            Monomial::from_vars([1, 2, 3]),
            Monomial::variable(1),
        ] {
            interner.intern(&m);
        }
        let (order, col_of_id) = interner.column_order_desc();
        let sorted: Vec<String> = order
            .iter()
            .map(|&id| interner.monomial(id).to_string())
            .collect();
        assert_eq!(sorted, vec!["x1*x2*x3", "x1*x2", "x3", "x1", "1"]);
        for (col, &id) in order.iter().enumerate() {
            assert_eq!(col_of_id[id as usize] as usize, col, "inverse map");
        }
    }

    #[test]
    fn column_order_equals_the_monomial_order() {
        // Inline and heap monomials mixed, including heap ones of equal
        // degree that share their first four variables (the keys tie).
        let mut interner = MonomialInterner::new();
        for i in 0..200u32 {
            let degree = (i % 7) as usize;
            let vars = (0..degree as u32).map(|k| (i * 13 + k * 5) % 11 + k * 11);
            interner.intern(&Monomial::from_vars(vars));
        }
        for tail in [[0, 1, 2, 3, 9], [0, 1, 2, 3, 7], [0, 1, 2, 3, 8]] {
            interner.intern(&Monomial::from_vars(tail));
        }
        let (order, _) = interner.column_order_desc();
        let mut expected: Vec<u32> = (0..interner.len() as u32).collect();
        expected.sort_by(|&a, &b| interner.monomial(b).cmp(interner.monomial(a)));
        assert_eq!(order, expected);
    }

    #[test]
    fn heap_and_inline_spellings_agree() {
        let mut interner = MonomialInterner::new();
        let inline = Monomial::from_vars([1, 2, 3, 4]);
        let mut shrunk = Monomial::from_vars([0, 1, 2, 3, 4]);
        shrunk.remove_var(0);
        assert_eq!(interner.intern(&inline), interner.intern(&shrunk));
    }
}
