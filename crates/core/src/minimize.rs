//! Two-level logic minimisation (the ESPRESSO / Karnaugh-map role).
//!
//! The original tool calls ESPRESSO to turn a K-variate polynomial into a
//! near-minimal set of CNF clauses. This module does the same on truth
//! tables: a support of at most [`TABLE_MAX_VARS`] variables has a 256-bit
//! table, so every step is a handful of word operations.
//!
//! 1. The ON-set (where `p = 1`) is the XOR of the monomials' tables, each
//!    the AND of its variables' tables.
//! 2. For every don't-care mask `D`, the implicant table `I_D` marks the
//!    assignments `v` (zero on `D`) whose cube `v + D` lies inside the
//!    ON-set: `I_∅` is the ON-set, and `I_{D ∪ {i}}` is `I_D & (I_D >> 2^i)`
//!    on the positions whose bit `i` is clear.
//! 3. The prime implicants are the implicants that no one-bit-larger
//!    implicant contains.
//! 4. The cover takes the essential primes first (in the order of the
//!    smallest minterm each covers alone), then greedily the prime covering
//!    the most uncovered minterms, the last such prime on ties. Primes are
//!    ordered by their number of don't-cares, then by `(values, cares)`.
//!
//! This is exactly the cover of the Quine–McCluskey procedure with the same
//! rules, which the tests keep as the oracle. Each chosen implicant — a
//! forbidden combination of the polynomial's variables — becomes one CNF
//! clause.

use std::collections::HashMap;

use bosphorus_anf::{Polynomial, Var};
use bosphorus_cnf::{CnfFormula, Lit};

/// The widest support with a truth table: `2^8` bits, four words. Wider
/// polynomials take the Tseitin path whatever
/// [`BosphorusConfig::karnaugh_vars`](crate::BosphorusConfig::karnaugh_vars)
/// says.
pub(crate) const TABLE_MAX_VARS: usize = 8;

/// A truth table over at most [`TABLE_MAX_VARS`] support variables: bit `m`
/// is the function's value at the assignment `m` (bit `i` of `m` is the
/// `i`-th support variable). Bits at or above `2^k` are zero.
type Table = [u64; 4];

/// A cube over the support: `values` gives the fixed bits and `cares`
/// marks which positions are fixed (bit set = the variable matters).
/// `values` is zero outside `cares`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Implicant {
    values: u32,
    cares: u32,
}

impl Implicant {
    /// The assignments of a `k`-variable support inside the cube.
    fn minterms(self, k: usize) -> Table {
        let mut table = [0; 4];
        table[self.values as usize / 64] = 1 << (self.values % 64);
        for i in (0..k).filter(|&i| self.cares >> i & 1 == 0) {
            table = or(table, shift_up(table, i));
        }
        table
    }
}

fn and(a: Table, b: Table) -> Table {
    std::array::from_fn(|w| a[w] & b[w])
}

fn or(a: Table, b: Table) -> Table {
    std::array::from_fn(|w| a[w] | b[w])
}

fn xor(a: Table, b: Table) -> Table {
    std::array::from_fn(|w| a[w] ^ b[w])
}

fn and_not(a: Table, b: Table) -> Table {
    std::array::from_fn(|w| a[w] & !b[w])
}

fn popcount(t: Table) -> u32 {
    t.iter().map(|w| w.count_ones()).sum()
}

/// The positions set in `t`, ascending.
fn positions(t: Table) -> impl Iterator<Item = u32> {
    (0..4u32).flat_map(move |w| {
        let mut word = t[w as usize];
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros();
                word &= word - 1;
                w * 64 + bit
            })
        })
    })
}

/// The table of support variable `i`: every assignment with bit `i` set.
fn var_table(i: usize) -> Table {
    const WORDS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    match i {
        0..=5 => [WORDS[i]; 4],
        6 => [0, !0, 0, !0],
        _ => [0, 0, !0, !0],
    }
}

/// Every assignment of a `k`-variable support.
fn full_table(k: usize) -> Table {
    let bits = 1usize << k;
    std::array::from_fn(|w| match bits.saturating_sub(64 * w) {
        0 => 0,
        n if n >= 64 => !0,
        n => (1 << n) - 1,
    })
}

/// `t` moved down by `2^i` positions: bit `m + 2^i` lands on bit `m`, for
/// every `m` with bit `i` clear (other positions get arbitrary bits).
fn shift_down(t: Table, i: usize) -> Table {
    match i {
        0..=5 => t.map(|w| w >> (1 << i)),
        6 => [t[1], 0, t[3], 0],
        _ => [t[2], t[3], 0, 0],
    }
}

/// `t` moved up by `2^i` positions: bit `m` lands on bit `m + 2^i`, for
/// every `m` with bit `i` clear (other positions get arbitrary bits).
fn shift_up(t: Table, i: usize) -> Table {
    match i {
        0..=5 => t.map(|w| w << (1 << i)),
        6 => [0, t[0], 0, t[2]],
        _ => [0, 0, t[0], t[1]],
    }
}

/// The ON-set of `poly` over its sorted support `vars`.
fn on_set(poly: &Polynomial, vars: &[Var]) -> Table {
    let full = full_table(vars.len());
    poly.monomials().iter().fold([0; 4], |on, m| {
        let term = m.vars().iter().fold(full, |term, v| {
            let i = vars.binary_search(v).expect("v is in the support");
            and(term, var_table(i))
        });
        xor(on, term)
    })
}

/// The prime implicants of the ON-set `on` over `k ≥ 1` variables, by
/// number of don't-cares, then by `(values, cares)`.
fn prime_implicants(on: Table, k: usize) -> Vec<Implicant> {
    let masks = 1usize << k;
    // implicants[d]: the cubes with don't-care mask d inside the ON-set,
    // each marked at its assignment with the d bits clear.
    let mut implicants: Vec<Table> = Vec::with_capacity(masks);
    implicants.push(on);
    for d in 1..masks {
        let i = d.trailing_zeros() as usize;
        let smaller = implicants[d & (d - 1)];
        let halves = and(smaller, shift_down(smaller, i));
        implicants.push(and_not(halves, var_table(i)));
    }
    let care_mask = (1u32 << k) - 1;
    let mut primes = Vec::new();
    for (d, &table) in implicants.iter().enumerate() {
        if table == [0; 4] {
            continue;
        }
        let mut prime = table;
        for i in (0..k).filter(|&i| d >> i & 1 == 0) {
            let wider = implicants[d | 1 << i];
            prime = and_not(prime, or(wider, shift_up(wider, i)));
        }
        let cares = care_mask & !(d as u32);
        primes.extend(positions(prime).map(|values| Implicant { values, cares }));
    }
    primes.sort_unstable_by_key(|p| (k as u32 - p.cares.count_ones(), p.values, p.cares));
    primes
}

/// A small cover of the ON-set `on` (neither empty nor everything) over
/// `k ≥ 1` variables: the essential primes, then the greedy choice.
fn minimal_cover(on: Table, k: usize) -> Vec<Implicant> {
    let primes = prime_implicants(on, k);
    let minterms: Vec<Table> = primes.iter().map(|p| p.minterms(k)).collect();
    // The minterms covered by exactly one prime.
    let (mut once, mut twice) = ([0; 4], [0; 4]);
    for &covered in &minterms {
        twice = or(twice, and(once, covered));
        once = or(once, covered);
    }
    let alone = and_not(once, twice);
    // Essential primes, in the order of the smallest minterm each covers
    // alone.
    let mut essential: Vec<(u32, usize)> = minterms
        .iter()
        .enumerate()
        .filter_map(|(j, &covered)| positions(and(covered, alone)).next().map(|m| (m, j)))
        .collect();
    essential.sort_unstable();
    let mut uncovered = on;
    let mut cover = Vec::new();
    for &(_, j) in &essential {
        uncovered = and_not(uncovered, minterms[j]);
        cover.push(primes[j]);
    }
    // Greedy: the last prime covering the most uncovered minterms.
    while uncovered != [0; 4] {
        let (best, _) = minterms
            .iter()
            .map(|&covered| popcount(and(covered, uncovered)))
            .enumerate()
            .max_by_key(|&(_, count)| count)
            .expect("uncovered minterms imply at least one prime exists");
        uncovered = and_not(uncovered, minterms[best]);
        cover.push(primes[best]);
    }
    cover
}

/// Converts a polynomial over at most `max_vars` variables (and at most 8,
/// the widest truth table) into a near-minimal set of CNF clauses over the
/// *original* variables, expressing the constraint `p = 0`.
///
/// This is the "Karnaugh map" conversion path of the paper (Section III-C,
/// option 1): no auxiliary variables are introduced.
///
/// Returns `None` when the polynomial mentions more variables than that
/// (the caller should fall back to the Tseitin-style encoding) and
/// `Some(cnf)` otherwise, a formula whose variable space ends at the
/// largest variable of the polynomial. A constant `1` polynomial yields the
/// empty clause; the zero polynomial yields no clauses.
///
/// # Examples
///
/// ```
/// use bosphorus::karnaugh_clauses;
/// use bosphorus_anf::Polynomial;
///
/// // The paper's Fig. 2 example: x1x3 + x1 + x2 + x4 + 1 needs only 6
/// // clauses with the Karnaugh-map conversion (vs 11 with Tseitin).
/// let p: Polynomial = "x1*x3 + x1 + x2 + x4 + 1".parse()?;
/// let cnf = karnaugh_clauses(&p, 8).expect("4 variables is within K");
/// assert_eq!(cnf.num_clauses(), 6);
/// // No auxiliary variables: every literal is over x1..x4.
/// assert!(cnf.iter().all(|clause| clause.iter().all(|l| l.var() <= 4)));
/// # Ok::<(), bosphorus_anf::ParsePolynomialError>(())
/// ```
pub fn karnaugh_clauses(poly: &Polynomial, max_vars: usize) -> Option<CnfFormula> {
    let mut cnf = CnfFormula::new(0);
    KarnaughCache::default().encode(poly, max_vars, &mut cnf)?;
    Some(cnf)
}

/// Memoised Karnaugh covers for one CNF conversion.
///
/// The cover [`karnaugh_clauses`] chooses depends only on the truth table
/// of the polynomial over its sorted support — the support size and the
/// ON-set — so it is computed once per distinct table and mapped onto each
/// polynomial's own variables. A conversion sees few distinct tables (the
/// S-box and round equations of a cipher repeat over fresh variables), so
/// the minimiser runs a handful of times instead of once per polynomial.
#[derive(Debug, Default)]
pub(crate) struct KarnaughCache {
    /// `(support size, ON-set)` → the chosen implicants.
    covers: HashMap<(u8, Table), Vec<Implicant>>,
    /// The support of the polynomial being encoded, reused between calls.
    support: Vec<Var>,
}

impl KarnaughCache {
    /// Appends the Karnaugh clauses of `p = 0` to `cnf` and returns how
    /// many there are, or `None` (appending nothing) when the support is
    /// wider than `max_vars` or [`TABLE_MAX_VARS`]. Each clause lists its
    /// variables in support order, so it is already sorted.
    pub(crate) fn encode(
        &mut self,
        poly: &Polynomial,
        max_vars: usize,
        cnf: &mut CnfFormula,
    ) -> Option<usize> {
        if poly.is_zero() {
            return Some(0);
        }
        if poly.is_one() {
            cnf.add_clause([]);
            return Some(1);
        }
        let vars = &mut self.support;
        vars.clear();
        for m in poly.monomials() {
            vars.extend_from_slice(m.vars());
        }
        vars.sort_unstable();
        vars.dedup();
        let k = vars.len();
        if k > max_vars.min(TABLE_MAX_VARS) {
            return None;
        }
        let on = on_set(poly, vars);
        if on == [0; 4] {
            // p is identically zero on its support (cannot happen for a
            // reduced ANF, but handle it defensively).
            return Some(0);
        }
        if on == full_table(k) {
            cnf.add_clause([]);
            return Some(1);
        }
        let cover = self
            .covers
            .entry((k as u8, on))
            .or_insert_with(|| minimal_cover(on, k));
        for imp in cover.iter() {
            // Forbid the implicant: each literal is false exactly on the
            // covered assignments. One literal per cared-for position,
            // ascending.
            let mut cares = imp.cares;
            cnf.add_clause(std::iter::from_fn(|| {
                (cares != 0).then(|| {
                    let i = cares.trailing_zeros();
                    cares &= cares - 1;
                    Lit::new(vars[i as usize], imp.values >> i & 1 == 1)
                })
            }));
        }
        Some(cover.len())
    }

    /// Distinct truth tables memoised so far.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> usize {
        self.covers.len()
    }
}

/// The Quine–McCluskey procedure over minterm lists, with the cover rules
/// of [`minimal_cover`]: the oracle the truth-table minimiser must match.
#[cfg(test)]
mod quine_mccluskey {
    use std::collections::BTreeSet;

    use super::Implicant;

    impl Implicant {
        fn covers(&self, minterm: u32) -> bool {
            (minterm ^ self.values) & self.cares == 0
        }

        /// Merges two implicants that differ in exactly one cared-for bit.
        fn merge(&self, other: &Implicant) -> Option<Implicant> {
            if self.cares != other.cares {
                return None;
            }
            let diff = (self.values ^ other.values) & self.cares;
            (diff.count_ones() == 1).then_some(Implicant {
                values: self.values & !diff,
                cares: self.cares & !diff,
            })
        }
    }

    /// All prime implicants of the ON-set `minterms` over `k` variables,
    /// level by level (by number of don't-cares), each level sorted.
    fn prime_implicants(minterms: &[u32], k: usize) -> Vec<Implicant> {
        let full_mask = (1u32 << k) - 1;
        let mut current: BTreeSet<Implicant> = minterms
            .iter()
            .map(|&m| Implicant {
                values: m,
                cares: full_mask,
            })
            .collect();
        let mut primes = Vec::new();
        while !current.is_empty() {
            let items: Vec<Implicant> = current.iter().copied().collect();
            let mut merged = vec![false; items.len()];
            let mut next = BTreeSet::new();
            for i in 0..items.len() {
                for j in (i + 1)..items.len() {
                    if let Some(m) = items[i].merge(&items[j]) {
                        merged[i] = true;
                        merged[j] = true;
                        next.insert(m);
                    }
                }
            }
            primes.extend(
                items
                    .iter()
                    .zip(&merged)
                    .filter(|(_, &merged)| !merged)
                    .map(|(&item, _)| item),
            );
            current = next;
        }
        primes
    }

    /// Essential primes (by the first minterm each covers alone), then
    /// greedily the last prime covering the most uncovered minterms.
    pub(super) fn cover(minterms: &[u32], k: usize) -> Vec<Implicant> {
        let primes = prime_implicants(minterms, k);
        let mut cover: Vec<Implicant> = Vec::new();
        for &m in minterms {
            let covering: Vec<&Implicant> = primes.iter().filter(|p| p.covers(m)).collect();
            if covering.len() == 1 && !cover.contains(covering[0]) {
                cover.push(*covering[0]);
            }
        }
        let mut uncovered: BTreeSet<u32> = minterms.iter().copied().collect();
        for p in &cover {
            uncovered.retain(|&m| !p.covers(m));
        }
        while !uncovered.is_empty() {
            let best = *primes
                .iter()
                .max_by_key(|p| uncovered.iter().filter(|&&m| p.covers(m)).count())
                .expect("uncovered minterms imply a prime");
            uncovered.retain(|&m| !best.covers(m));
            cover.push(best);
        }
        cover
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn poly(s: &str) -> Polynomial {
        s.parse().expect("test polynomial parses")
    }

    /// Checks that the clauses are satisfied exactly by the assignments on
    /// which the polynomial evaluates to zero.
    fn assert_equivalent(p: &Polynomial, clauses: &CnfFormula) {
        let vars = p.variables();
        let k = vars.len();
        for bits in 0u32..(1 << k) {
            let value = |v: Var| {
                let idx = vars.iter().position(|&w| w == v).expect("in support");
                (bits >> idx) & 1 == 1
            };
            let poly_zero = !p.evaluate(value);
            let clauses_ok = clauses
                .iter()
                .all(|c| c.iter().any(|l| l.evaluate(value(l.var()))));
            assert_eq!(poly_zero, clauses_ok, "mismatch at assignment {bits:b}");
        }
    }

    /// The truth-table cover of the table `on` over `k` variables equals
    /// the Quine–McCluskey cover, implicant for implicant and in order.
    fn assert_matches_oracle(on: Table, k: usize) {
        let minterms: Vec<u32> = positions(on).collect();
        assert_eq!(
            minimal_cover(on, k),
            quine_mccluskey::cover(&minterms, k),
            "k = {k}, ON-set {minterms:?}"
        );
    }

    #[test]
    fn covers_equal_the_oracle_on_every_function_of_up_to_four_variables() {
        for k in 1..=4 {
            let full = full_table(k)[0];
            // Every table but the empty and the full one.
            for on in 1..full {
                assert_matches_oracle([on, 0, 0, 0], k);
            }
        }
    }

    #[test]
    fn covers_equal_the_oracle_on_seeded_tables_of_five_to_eight_variables() {
        let mut rng = StdRng::seed_from_u64(34);
        for k in 5..=TABLE_MAX_VARS {
            let full = full_table(k);
            // Sparse, balanced and dense ON-sets.
            for density in [0.05, 0.25, 0.5, 0.75, 0.95] {
                let tables = if k == TABLE_MAX_VARS { 12 } else { 30 };
                for _ in 0..tables {
                    let mut on = [0; 4];
                    for m in 0..1u32 << k {
                        if rng.gen_bool(density) {
                            on[m as usize / 64] |= 1 << (m % 64);
                        }
                    }
                    if on != [0; 4] && on != full {
                        assert_matches_oracle(on, k);
                    }
                }
            }
        }
    }

    #[test]
    fn tables_of_variables_and_their_shifts_agree_with_the_assignments() {
        for i in 0..TABLE_MAX_VARS {
            let table = var_table(i);
            for m in 0..256u32 {
                assert_eq!(positions(table).any(|p| p == m), m >> i & 1 == 1);
            }
            let low = and_not(full_table(TABLE_MAX_VARS), table);
            assert_eq!(shift_up(low, i), table, "x{i}");
            assert_eq!(and_not(shift_down(table, i), table), low, "x{i}");
        }
        for k in 0..=TABLE_MAX_VARS {
            assert_eq!(popcount(full_table(k)), 1 << k);
        }
    }

    #[test]
    fn fig2_example_produces_six_clauses() {
        let p = poly("x1*x3 + x1 + x2 + x4 + 1");
        let clauses = karnaugh_clauses(&p, 8).expect("within K");
        assert_eq!(clauses.num_clauses(), 6, "paper's Fig. 2 reports 6 clauses");
        assert_equivalent(&p, &clauses);
    }

    #[test]
    fn simple_equations() {
        // x0 = 0  ->  single clause ¬x0.
        let clauses = karnaugh_clauses(&poly("x0"), 8).expect("within K");
        assert_eq!(clauses.to_string(), "(¬x0)");
        // x0 + 1 = 0  ->  single clause x0.
        let clauses = karnaugh_clauses(&poly("x0 + 1"), 8).expect("within K");
        assert_eq!(clauses.to_string(), "(x0)");
    }

    #[test]
    fn conjunction_fact() {
        // x0*x1 + 1 = 0 forces both variables to 1: two unit clauses.
        let clauses = karnaugh_clauses(&poly("x0*x1 + 1"), 8).expect("within K");
        assert_eq!(clauses.num_clauses(), 2);
        assert_equivalent(&poly("x0*x1 + 1"), &clauses);
    }

    #[test]
    fn xor_of_two_variables() {
        // x0 + x1 = 0 (equality) needs exactly two binary clauses.
        let p = poly("x0 + x1");
        let clauses = karnaugh_clauses(&p, 8).expect("within K");
        assert_eq!(clauses.num_clauses(), 2);
        assert_equivalent(&p, &clauses);
    }

    #[test]
    fn constants_and_limits() {
        assert_eq!(
            karnaugh_clauses(&Polynomial::zero(), 8),
            Some(CnfFormula::new(0))
        );
        let one = karnaugh_clauses(&Polynomial::one(), 8).expect("a constant is within K");
        assert_eq!(one.to_string(), "(⊥)");
        // Too many variables for the requested K.
        let wide = poly("x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8");
        assert_eq!(karnaugh_clauses(&wide, 8), None);
        // Too many variables for a truth table, whatever K allows.
        assert_eq!(karnaugh_clauses(&wide, 32), None);
        let eight = poly("x0*x1 + x2 + x3 + x4 + x5 + x6 + x9");
        let clauses = karnaugh_clauses(&eight, 32).expect("a table holds 8 variables");
        assert_equivalent(&eight, &clauses);
    }

    #[test]
    fn random_polynomials_are_equivalent() {
        for text in [
            "x0*x1 + x2",
            "x0*x1*x2 + x0 + x3 + 1",
            "x0*x2 + x1*x3 + x2*x3",
            "x0 + x1 + x2 + x3 + 1",
            "x0*x1 + x0*x2 + x0*x3 + x1*x2*x3",
        ] {
            let p = poly(text);
            let clauses = karnaugh_clauses(&p, 8).expect("within K");
            assert_equivalent(&p, &clauses);
        }
    }

    #[test]
    fn cover_is_not_larger_than_onset() {
        let p = poly("x0*x1 + x2*x3 + 1");
        let clauses = karnaugh_clauses(&p, 8).expect("within K");
        // Never worse than one clause per forbidden assignment.
        assert!(clauses.num_clauses() <= 16);
        assert_equivalent(&p, &clauses);
    }
}
