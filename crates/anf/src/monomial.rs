//! Monomials: products of distinct Boolean variables.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::Var;

/// Number of variables stored inline (without a heap allocation). Monomials
/// of degree at most this are the overwhelming majority in paper workloads
/// (XL with `D = 1` over quadratic ciphers never exceeds degree 3), so the
/// XL/ElimLin hot loops run allocation-free.
const INLINE_CAP: usize = 4;

/// A product of zero or more distinct Boolean variables.
///
/// Because `x² = x` over GF(2), every variable appears at most once; the
/// variables are stored sorted in increasing index order. The empty monomial
/// is the multiplicative identity, the constant `1`.
///
/// Monomials are ordered by *graded lexicographic* order (first by degree,
/// then lexicographically on the sorted variable list), which is the term
/// order used by the XL linearisation and by the Gröbner-basis baseline.
///
/// # Representation
///
/// Monomials of degree at most [`Monomial::INLINE_DEGREE`] store their
/// variables in a fixed inline array — constructing, multiplying, cloning and
/// comparing them performs no heap allocation. Higher degrees spill to a
/// heap-allocated vector. The representation is an internal detail (the
/// public API is identical for both); [`Monomial::is_inline`] exposes it so
/// tests can pin the allocation-free property.
///
/// # Examples
///
/// ```
/// use bosphorus_anf::Monomial;
///
/// let m = Monomial::from_vars([3, 1, 3]);
/// assert_eq!(m.degree(), 2);            // duplicates collapse (x*x = x)
/// assert_eq!(m.to_string(), "x1*x3");
/// assert!(Monomial::one() < m);          // constant sorts first
/// ```
#[derive(Clone)]
pub struct Monomial {
    repr: Repr,
}

/// Invariant: `Inline` is used exactly when the degree is at most
/// `INLINE_CAP`, and its unused slots are zero (so the packed comparison key
/// can read all slots unconditionally).
#[derive(Clone)]
enum Repr {
    Inline { len: u8, vars: [Var; INLINE_CAP] },
    Heap(Vec<Var>),
}

impl Monomial {
    /// Maximum degree stored inline, i.e. without heap allocation. See the
    /// type-level documentation.
    pub const INLINE_DEGREE: usize = INLINE_CAP;

    /// The constant monomial `1` (empty product).
    pub fn one() -> Self {
        Monomial {
            repr: Repr::Inline {
                len: 0,
                vars: [0; INLINE_CAP],
            },
        }
    }

    /// The monomial consisting of the single variable `v`.
    pub fn variable(v: Var) -> Self {
        let mut vars = [0; INLINE_CAP];
        vars[0] = v;
        Monomial {
            repr: Repr::Inline { len: 1, vars },
        }
    }

    /// Builds a monomial from a slice that is already sorted and
    /// de-duplicated, choosing the inline representation when it fits.
    fn from_sorted(sorted: &[Var]) -> Self {
        if sorted.len() <= INLINE_CAP {
            let mut vars = [0; INLINE_CAP];
            vars[..sorted.len()].copy_from_slice(sorted);
            Monomial {
                repr: Repr::Inline {
                    len: sorted.len() as u8,
                    vars,
                },
            }
        } else {
            Monomial {
                repr: Repr::Heap(sorted.to_vec()),
            }
        }
    }

    /// Like [`Monomial::from_sorted`], but reuses the vector's allocation
    /// when the monomial spills.
    fn from_sorted_vec(sorted: Vec<Var>) -> Self {
        if sorted.len() <= INLINE_CAP {
            Monomial::from_sorted(&sorted)
        } else {
            Monomial {
                repr: Repr::Heap(sorted),
            }
        }
    }

    /// Builds a monomial from an iterator of variables; duplicates collapse.
    pub fn from_vars<I: IntoIterator<Item = Var>>(vars: I) -> Self {
        let mut inline = [0 as Var; INLINE_CAP];
        let mut len = 0usize;
        let mut iter = vars.into_iter();
        for v in iter.by_ref() {
            if len == INLINE_CAP {
                // Too many raw entries for the inline buffer: spill, finish
                // collecting on the heap, and normalise there. (After
                // dedup the result may fit inline again; `from_sorted_vec`
                // restores the representation invariant.)
                let mut heap: Vec<Var> = Vec::with_capacity(2 * INLINE_CAP);
                heap.extend_from_slice(&inline);
                heap.push(v);
                heap.extend(iter);
                heap.sort_unstable();
                heap.dedup();
                return Monomial::from_sorted_vec(heap);
            }
            inline[len] = v;
            len += 1;
        }
        let slice = &mut inline[..len];
        slice.sort_unstable();
        let mut deduped = 0usize;
        for i in 0..len {
            if i == 0 || inline[i] != inline[i - 1] {
                inline[deduped] = inline[i];
                deduped += 1;
            }
        }
        Monomial::from_sorted(&inline[..deduped])
    }

    /// Returns `true` when the monomial uses the allocation-free inline
    /// representation (always the case for degree ≤
    /// [`Monomial::INLINE_DEGREE`]).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// The number of variables in the monomial (its total degree).
    pub fn degree(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(vars) => vars.len(),
        }
    }

    /// Returns `true` if this is the constant monomial `1`.
    pub fn is_one(&self) -> bool {
        self.degree() == 0
    }

    /// The sorted variable indices.
    pub fn vars(&self) -> &[Var] {
        match &self.repr {
            Repr::Inline { len, vars } => &vars[..*len as usize],
            Repr::Heap(vars) => vars,
        }
    }

    /// Returns `true` if the monomial contains variable `v`.
    pub fn contains(&self, v: Var) -> bool {
        self.vars().binary_search(&v).is_ok()
    }

    /// Product of two monomials (union of their variable sets).
    ///
    /// Allocation-free whenever the result has degree at most
    /// [`Monomial::INLINE_DEGREE`].
    ///
    /// ```
    /// use bosphorus_anf::Monomial;
    /// let a = Monomial::from_vars([0, 2]);
    /// let b = Monomial::from_vars([2, 5]);
    /// assert_eq!(a.mul(&b), Monomial::from_vars([0, 2, 5]));
    /// ```
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let (a, b) = (self.vars(), other.vars());
        if a.is_empty() {
            return other.clone();
        }
        if b.is_empty() {
            return self.clone();
        }
        if a.len() + b.len() <= 2 * INLINE_CAP {
            // Both operands are small: merge into a stack buffer and only
            // allocate if the union spills past the inline capacity.
            let mut buf = [0 as Var; 2 * INLINE_CAP];
            let n = merge_sorted(a, b, &mut buf);
            return Monomial::from_sorted(&buf[..n]);
        }
        let mut vars = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    vars.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    vars.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    vars.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        vars.extend_from_slice(&a[i..]);
        vars.extend_from_slice(&b[j..]);
        Monomial::from_sorted_vec(vars)
    }

    /// Returns `true` if `self` divides `other`, i.e. every variable of
    /// `self` also occurs in `other`.
    pub fn divides(&self, other: &Monomial) -> bool {
        let others = other.vars();
        let mut j = 0;
        for &v in self.vars() {
            loop {
                if j >= others.len() {
                    return false;
                }
                match others[j].cmp(&v) {
                    Ordering::Less => j += 1,
                    Ordering::Equal => {
                        j += 1;
                        break;
                    }
                    Ordering::Greater => return false,
                }
            }
        }
        true
    }

    /// The quotient `other / self` when `self` divides `other`.
    ///
    /// Returns `None` when `self` does not divide `other`.
    pub fn divide(&self, other: &Monomial) -> Option<Monomial> {
        if !self.divides(other) {
            return None;
        }
        Some(Monomial::from_vars(
            other.vars().iter().copied().filter(|v| !self.contains(*v)),
        ))
    }

    /// Least common multiple of two monomials (same as their product, since
    /// exponents are at most one).
    pub fn lcm(&self, other: &Monomial) -> Monomial {
        self.mul(other)
    }

    /// The monomial with variable `v` removed (`self` unchanged when `v`
    /// does not occur). Allocation-free for inline monomials.
    pub fn without(&self, v: Var) -> Monomial {
        match &self.repr {
            Repr::Inline { len, vars } => {
                let len = *len as usize;
                let Ok(pos) = vars[..len].binary_search(&v) else {
                    return self.clone();
                };
                let mut out = [0 as Var; INLINE_CAP];
                out[..pos].copy_from_slice(&vars[..pos]);
                out[pos..len - 1].copy_from_slice(&vars[pos + 1..len]);
                Monomial {
                    repr: Repr::Inline {
                        len: (len - 1) as u8,
                        vars: out,
                    },
                }
            }
            Repr::Heap(vars) => match vars.binary_search(&v) {
                Ok(pos) => {
                    let mut out = vars.clone();
                    out.remove(pos);
                    Monomial::from_sorted_vec(out)
                }
                Err(_) => self.clone(),
            },
        }
    }

    /// Removes variable `v` from the monomial, returning `true` if it was
    /// present.
    pub fn remove_var(&mut self, v: Var) -> bool {
        if !self.contains(v) {
            return false;
        }
        *self = self.without(v);
        true
    }

    /// The largest variable index in the monomial, if any.
    pub fn max_var(&self) -> Option<Var> {
        self.vars().last().copied()
    }

    /// Evaluates the monomial under the predicate `value(v)` giving each
    /// variable's Boolean value.
    pub fn evaluate<F: Fn(Var) -> bool>(&self, value: F) -> bool {
        self.vars().iter().all(|&v| value(v))
    }

    /// A precomputed graded-lex sort key: the degree, then the first four
    /// variables packed like the inline comparison key. Keys order
    /// monomials exactly as [`Ord`] does, except that two monomials of
    /// degree above four that share their first four variables tie.
    pub(crate) fn graded_key(&self) -> (usize, u128) {
        match &self.repr {
            Repr::Inline { len, vars } => (*len as usize, Monomial::packed_key(vars)),
            Repr::Heap(vars) => {
                let mut head = [0; INLINE_CAP];
                head.copy_from_slice(&vars[..INLINE_CAP]);
                (vars.len(), Monomial::packed_key(&head))
            }
        }
    }

    /// The inline comparison key: the four variable slots packed big-endian
    /// into a `u128`. Unused slots are zero, so for monomials of *equal
    /// degree* numeric comparison of the keys is exactly lexicographic
    /// comparison of the variable lists.
    fn packed_key(vars: &[Var; INLINE_CAP]) -> u128 {
        (u128::from(vars[0]) << 96)
            | (u128::from(vars[1]) << 64)
            | (u128::from(vars[2]) << 32)
            | u128::from(vars[3])
    }
}

impl Default for Monomial {
    fn default() -> Self {
        Monomial::one()
    }
}

/// Merges two sorted, de-duplicated slices into `out` (union, still sorted
/// and de-duplicated), returning the merged length. `out` must be large
/// enough for `a.len() + b.len()`.
fn merge_sorted(a: &[Var], b: &[Var], out: &mut [Var]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out[n] = if x <= y { x } else { y };
        n += 1;
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    for &v in &a[i..] {
        out[n] = v;
        n += 1;
    }
    for &v in &b[j..] {
        out[n] = v;
        n += 1;
    }
    n
}

impl PartialEq for Monomial {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Inline { len: la, vars: va }, Repr::Inline { len: lb, vars: vb }) => {
                la == lb && va == vb
            }
            _ => self.vars() == other.vars(),
        }
    }
}

impl Eq for Monomial {}

impl Hash for Monomial {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.vars().hash(state);
    }
}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Monomial {
    fn cmp(&self, other: &Self) -> Ordering {
        // Graded lexicographic: compare degree first, then variable lists.
        // Two inline monomials compare via one length compare plus one
        // 128-bit key compare — no loops, no allocation.
        match (&self.repr, &other.repr) {
            (Repr::Inline { len: la, vars: va }, Repr::Inline { len: lb, vars: vb }) => la
                .cmp(lb)
                .then_with(|| Monomial::packed_key(va).cmp(&Monomial::packed_key(vb))),
            _ => {
                let (a, b) = (self.vars(), other.vars());
                a.len().cmp(&b.len()).then_with(|| a.cmp(b))
            }
        }
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        for (i, v) in self.vars().iter().enumerate() {
            if i > 0 {
                write!(f, "*")?;
            }
            write!(f, "x{v}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Monomial({self})")
    }
}

impl From<Var> for Monomial {
    fn from(v: Var) -> Self {
        Monomial::variable(v)
    }
}

impl FromIterator<Var> for Monomial {
    fn from_iter<I: IntoIterator<Item = Var>>(iter: I) -> Self {
        Monomial::from_vars(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_is_empty_and_degree_zero() {
        let one = Monomial::one();
        assert!(one.is_one());
        assert_eq!(one.degree(), 0);
        assert_eq!(one.to_string(), "1");
        assert_eq!(one.max_var(), None);
    }

    #[test]
    fn from_vars_dedups_and_sorts() {
        let m = Monomial::from_vars([5, 1, 5, 3, 1]);
        assert_eq!(m.vars(), &[1, 3, 5]);
        assert_eq!(m.degree(), 3);
        assert_eq!(m.to_string(), "x1*x3*x5");
    }

    #[test]
    fn multiplication_is_idempotent_union() {
        let a = Monomial::from_vars([0, 2, 4]);
        let b = Monomial::from_vars([2, 3]);
        let ab = a.mul(&b);
        assert_eq!(ab.vars(), &[0, 2, 3, 4]);
        assert_eq!(a.mul(&a), a, "x*x = x");
        assert_eq!(a.mul(&Monomial::one()), a);
    }

    #[test]
    fn divides_and_divide() {
        let a = Monomial::from_vars([1, 3]);
        let b = Monomial::from_vars([1, 2, 3, 4]);
        assert!(a.divides(&b));
        assert!(!b.divides(&a));
        assert_eq!(a.divide(&b), Some(Monomial::from_vars([2, 4])));
        assert_eq!(b.divide(&a), None);
        assert!(Monomial::one().divides(&a));
        assert_eq!(Monomial::one().divide(&a), Some(a.clone()));
    }

    #[test]
    fn graded_lex_ordering() {
        let one = Monomial::one();
        let x0 = Monomial::variable(0);
        let x5 = Monomial::variable(5);
        let x0x1 = Monomial::from_vars([0, 1]);
        let x0x2 = Monomial::from_vars([0, 2]);
        assert!(one < x0);
        assert!(x0 < x5);
        assert!(x5 < x0x1, "degree dominates variable index");
        assert!(x0x1 < x0x2);
    }

    #[test]
    fn remove_var_updates_monomial() {
        let mut m = Monomial::from_vars([1, 2, 3]);
        assert!(m.remove_var(2));
        assert!(!m.remove_var(2));
        assert_eq!(m.vars(), &[1, 3]);
    }

    #[test]
    fn evaluate_is_conjunction() {
        let m = Monomial::from_vars([0, 2]);
        assert!(m.evaluate(|_| true));
        assert!(!m.evaluate(|v| v == 0));
        assert!(Monomial::one().evaluate(|_| false), "1 evaluates to true");
    }

    #[test]
    fn lcm_equals_product() {
        let a = Monomial::from_vars([0, 1]);
        let b = Monomial::from_vars([1, 2]);
        assert_eq!(a.lcm(&b), a.mul(&b));
    }

    #[test]
    fn conversion_traits() {
        let m: Monomial = 7u32.into();
        assert_eq!(m, Monomial::variable(7));
        let c: Monomial = [3u32, 1, 2].into_iter().collect();
        assert_eq!(c.vars(), &[1, 2, 3]);
    }

    #[test]
    fn degree_at_most_four_stays_inline() {
        // The acceptance property of the representation: every operation on
        // monomials of degree ≤ INLINE_DEGREE keeps the inline (heap-free)
        // form — construction, products, quotients, removal and clones.
        assert_eq!(Monomial::INLINE_DEGREE, 4);
        assert!(Monomial::one().is_inline());
        assert!(Monomial::variable(1_000_000).is_inline());
        let a = Monomial::from_vars([0, 7]);
        let b = Monomial::from_vars([3, 9]);
        assert!(a.is_inline() && b.is_inline());
        let ab = a.mul(&b); // degree 4: still inline
        assert_eq!(ab.degree(), 4);
        assert!(ab.is_inline());
        assert!(ab.clone().is_inline());
        assert!(a.divide(&ab).expect("a | ab").is_inline());
        assert!(ab.without(7).is_inline());
        // Comparison of two inline monomials takes the packed-key fast path
        // (no allocation by construction: it only reads the fixed arrays).
        assert!(a < ab);
    }

    #[test]
    fn degree_five_spills_and_comes_back() {
        let big = Monomial::from_vars([0, 1, 2, 3, 4]);
        assert_eq!(big.degree(), 5);
        assert!(!big.is_inline(), "degree 5 exceeds the inline capacity");
        // Removing a variable drops it back to degree 4 = inline again,
        // keeping the representation invariant (inline ⇔ degree ≤ 4).
        let back = big.without(2);
        assert_eq!(back.vars(), &[0, 1, 3, 4]);
        assert!(back.is_inline());
        // A product crossing the boundary spills.
        let spilled = Monomial::from_vars([0, 1, 2]).mul(&Monomial::from_vars([3, 4]));
        assert_eq!(spilled, big);
        assert!(!spilled.is_inline());
    }

    #[test]
    fn inline_and_heap_compare_and_hash_consistently() {
        use std::collections::hash_map::DefaultHasher;
        // Build the same degree-4 monomial twice: once directly (inline) and
        // once by shrinking a degree-5 heap monomial through the Vec path.
        let inline = Monomial::from_vars([1, 2, 3, 4]);
        let mut shrunk = Monomial::from_vars([0, 1, 2, 3, 4]);
        assert!(shrunk.remove_var(0));
        assert!(inline.is_inline() && shrunk.is_inline());
        assert_eq!(inline, shrunk);
        assert_eq!(inline.cmp(&shrunk), Ordering::Equal);
        let hash = |m: &Monomial| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&inline), hash(&shrunk));
        // Mixed-representation ordering agrees with graded lex.
        let heap = Monomial::from_vars([0, 1, 2, 3, 4]);
        assert!(inline < heap, "lower degree sorts first across reprs");
        assert!(heap > inline);
    }

    #[test]
    fn from_vars_spill_path_dedups_back_to_inline() {
        // More than INLINE_CAP raw entries, but only 3 distinct variables:
        // the spill path must normalise back to the inline representation.
        let m = Monomial::from_vars([5, 1, 5, 1, 3, 3, 5]);
        assert_eq!(m.vars(), &[1, 3, 5]);
        assert!(m.is_inline());
    }
}
