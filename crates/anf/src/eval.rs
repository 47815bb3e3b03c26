//! Variable assignments and system evaluation helpers.

use std::fmt;

use crate::Var;

/// A total assignment of Boolean values to variables `x0 .. x{n-1}`.
///
/// Assignments are produced by the SAT-solving step (satisfying models) and
/// consumed when checking that preprocessing preserved the solution set.
///
/// # Examples
///
/// ```
/// use bosphorus_anf::{Assignment, PolynomialSystem};
///
/// let system = PolynomialSystem::parse("x0 + x1 + 1;")?;
/// let a = Assignment::from_bits([true, false]);
/// assert!(system.is_satisfied_by(&a));
/// # Ok::<(), bosphorus_anf::ParseSystemError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Assignment {
    values: Vec<bool>,
}

impl Assignment {
    /// Creates an all-false assignment over `num_vars` variables.
    pub fn all_false(num_vars: usize) -> Self {
        Assignment {
            values: vec![false; num_vars],
        }
    }

    /// Builds an assignment from an iterator of bits (index 0 first).
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        Assignment {
            values: bits.into_iter().collect(),
        }
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the assignment covers no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the assignment.
    pub fn get(&self, v: Var) -> bool {
        self.values[v as usize]
    }

    /// Sets the value of variable `v`, growing the assignment with `false`
    /// values if needed.
    pub fn set(&mut self, v: Var, value: bool) {
        let idx = v as usize;
        if idx >= self.values.len() {
            self.values.resize(idx + 1, false);
        }
        self.values[idx] = value;
    }

    /// The values as a slice, indexed by variable.
    pub fn as_bits(&self) -> &[bool] {
        &self.values
    }

    /// Iterates over `(variable, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Var, bool)> + '_ {
        self.values.iter().enumerate().map(|(i, &b)| (i as Var, b))
    }
}

impl FromIterator<bool> for Assignment {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Assignment::from_bits(iter)
    }
}

impl From<Vec<bool>> for Assignment {
    fn from(values: Vec<bool>) -> Self {
        Assignment { values }
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.values {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Assignment[{self}]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let a = Assignment::from_bits([true, false, true]);
        assert_eq!(a.len(), 3);
        assert!(a.get(0) && !a.get(1) && a.get(2));
        assert_eq!(a.to_string(), "101");
    }

    #[test]
    fn set_grows_assignment() {
        let mut a = Assignment::all_false(2);
        a.set(5, true);
        assert_eq!(a.len(), 6);
        assert!(a.get(5));
        assert!(!a.get(3));
    }

    #[test]
    fn iter_pairs() {
        let a = Assignment::from_bits([false, true]);
        let pairs: Vec<(Var, bool)> = a.iter().collect();
        assert_eq!(pairs, vec![(0, false), (1, true)]);
    }

    #[test]
    fn conversions() {
        let a: Assignment = vec![true, true].into();
        assert_eq!(a.as_bits(), [true, true]);
        let b: Assignment = [false, true].into_iter().collect();
        assert_eq!(b.len(), 2);
    }
}
