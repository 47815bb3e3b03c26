//! Operations on one clause, held as a slice of literals.
//!
//! A clause has no type of its own: [`CnfFormula`](crate::CnfFormula) keeps
//! its clauses in one literal arena and these helpers act on a clause's
//! slice of it.

use std::fmt;

use crate::Lit;

/// Sorts `clause` by code and moves its distinct literals to the front,
/// returning how many there are. A clause that is already strictly
/// increasing is left as it is.
pub(crate) fn normalise(clause: &mut [Lit]) -> usize {
    if clause.windows(2).all(|w| w[0] < w[1]) {
        return clause.len();
    }
    clause.sort_unstable();
    let mut kept = 1;
    for read in 1..clause.len() {
        if clause[read] != clause[kept - 1] {
            clause[kept] = clause[read];
            kept += 1;
        }
    }
    kept
}

/// Returns `true` if some literal of `clause` is true under `values`,
/// indexed by variable. The empty clause is false.
pub(crate) fn evaluate(clause: &[Lit], values: &[bool]) -> bool {
    clause.iter().any(|l| l.evaluate(values[l.var() as usize]))
}

/// Displays a clause as its literals joined by `∨`, and the empty clause
/// as `⊥`.
pub(crate) struct Show<'a>(pub(crate) &'a [Lit]);

impl fmt::Display for Show<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("⊥");
        }
        for (k, l) in self.0.iter().enumerate() {
            if k > 0 {
                f.write_str(" ∨ ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lits_sorts_and_dedups() {
        let mut c = [Lit::positive(3), Lit::positive(1), Lit::positive(3)];
        assert_eq!(normalise(&mut c), 2);
        assert_eq!(&c[..2], &[Lit::positive(1), Lit::positive(3)]);
        let mut sorted = [Lit::negative(0), Lit::positive(2)];
        assert_eq!(normalise(&mut sorted), 2);
        assert_eq!(sorted, [Lit::negative(0), Lit::positive(2)]);
        assert_eq!(normalise(&mut []), 0);
    }

    #[test]
    fn evaluation() {
        let c = [Lit::positive(0), Lit::negative(1)];
        assert!(evaluate(&c, &[true, false]));
        assert!(evaluate(&c, &[false, false]));
        assert!(!evaluate(&c, &[false, true]));
        assert!(!evaluate(&[], &[true, true]));
    }

    #[test]
    fn display_format() {
        let c = [Lit::positive(0), Lit::negative(1)];
        assert_eq!(Show(&c).to_string(), "x0 ∨ ¬x1");
        assert_eq!(Show(&[]).to_string(), "⊥");
    }
}
