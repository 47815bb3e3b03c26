//! DIMACS CNF text format parsing and printing.
//!
//! Parsing is streaming: [`CnfFormula::parse_dimacs_from`] consumes any
//! [`BufRead`] line by line through one reused buffer, so multi-gigabyte
//! CNF files are never slurped into memory. [`CnfFormula::parse_dimacs`] is
//! the in-memory convenience wrapper over the same code path.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::io::BufRead;

use crate::{CnfFormula, Lit};

/// Error returned when a DIMACS CNF document fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseDimacsError {
    /// The `p cnf <vars> <clauses>` header is missing or malformed.
    InvalidHeader {
        /// The offending line (1-based).
        line: usize,
    },
    /// A token that should be an integer literal is not.
    InvalidLiteral {
        /// The offending line (1-based).
        line: usize,
        /// The token that failed to parse.
        token: String,
    },
    /// The final clause is missing its terminating `0`.
    UnterminatedClause,
    /// The underlying reader failed (streaming input only).
    Read {
        /// The I/O error, rendered as text.
        message: String,
    },
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDimacsError::InvalidHeader { line } => {
                write!(f, "invalid or missing DIMACS header at line {line}")
            }
            ParseDimacsError::InvalidLiteral { line, token } => {
                write!(f, "invalid literal {token:?} at line {line}")
            }
            ParseDimacsError::UnterminatedClause => {
                write!(f, "last clause is not terminated by 0")
            }
            ParseDimacsError::Read { message } => {
                write!(f, "cannot read DIMACS input: {message}")
            }
        }
    }
}

impl Error for ParseDimacsError {}

impl CnfFormula {
    /// Parses a CNF formula from DIMACS text.
    ///
    /// Comment lines (`c ...`) and the problem line (`p cnf V C`) are
    /// handled; the declared variable count is honoured even when some
    /// variables do not occur in any clause. The declared clause count is not
    /// enforced (many real-world files get it wrong). A `0` with no literal
    /// before it is the empty clause, and a `%` line ends the clauses (the
    /// SATLIB convention), so [`CnfFormula::to_dimacs`] output re-parses to
    /// the same formula.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDimacsError`] when the header or a literal is
    /// malformed, or when the final clause is not `0`-terminated.
    ///
    /// # Examples
    ///
    /// ```
    /// use bosphorus_cnf::CnfFormula;
    /// let cnf = CnfFormula::parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n")?;
    /// assert_eq!(cnf.num_vars(), 2);
    /// assert_eq!(cnf.num_clauses(), 2);
    /// # Ok::<(), bosphorus_cnf::ParseDimacsError>(())
    /// ```
    pub fn parse_dimacs(input: &str) -> Result<Self, ParseDimacsError> {
        CnfFormula::parse_dimacs_from(input.as_bytes())
    }

    /// Parses a CNF formula from a [`BufRead`] source, streaming line by
    /// line through one reused buffer — the whole document is never held in
    /// memory. Same grammar and errors as [`CnfFormula::parse_dimacs`], plus
    /// [`ParseDimacsError::Read`] when the reader itself fails.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDimacsError`] when the header or a literal is
    /// malformed, when the final clause is not `0`-terminated, or when
    /// reading from the source fails.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::io::BufReader;
    /// use bosphorus_cnf::CnfFormula;
    /// let file = &b"p cnf 2 2\n1 -2 0\n2 0\n"[..];
    /// let cnf = CnfFormula::parse_dimacs_from(BufReader::new(file))?;
    /// assert_eq!(cnf.num_vars(), 2);
    /// assert_eq!(cnf.num_clauses(), 2);
    /// # Ok::<(), bosphorus_cnf::ParseDimacsError>(())
    /// ```
    pub fn parse_dimacs_from<R: BufRead>(mut reader: R) -> Result<Self, ParseDimacsError> {
        let mut cnf = CnfFormula::new(0);
        let mut declared_vars: Option<usize> = None;
        let mut current: Vec<Lit> = Vec::new();
        let mut line = String::new();
        let mut line_no = 0usize;
        loop {
            line.clear();
            let read = reader
                .read_line(&mut line)
                .map_err(|e| ParseDimacsError::Read {
                    message: e.to_string(),
                })?;
            if read == 0 {
                break;
            }
            line_no += 1;
            let trimmed = line.trim();
            // SATLIB files end their clauses with a `%` line, followed by
            // a stray `0` that is not a clause.
            if trimmed.starts_with('%') {
                break;
            }
            if trimmed.is_empty() || trimmed.starts_with('c') {
                continue;
            }
            if trimmed.starts_with('p') {
                let mut parts = trimmed.split_whitespace();
                let _p = parts.next();
                let format = parts.next();
                let vars = parts
                    .next()
                    .and_then(|t| t.parse::<usize>().ok())
                    // More variables than literals can encode (2³¹) is a
                    // malformed header, not a licence to overflow later.
                    .filter(|&v| v <= (crate::CnfVar::MAX >> 1) as usize + 1);
                if format != Some("cnf") || vars.is_none() {
                    return Err(ParseDimacsError::InvalidHeader { line: line_no });
                }
                declared_vars = vars;
                continue;
            }
            for token in trimmed.split_whitespace() {
                let value: i64 = token
                    .parse()
                    .map_err(|_| ParseDimacsError::InvalidLiteral {
                        line: line_no,
                        token: token.to_string(),
                    })?;
                if value == 0 {
                    // A `0` with no pending literals is the empty clause.
                    cnf.add_clause(current.drain(..));
                } else {
                    // `from_dimacs` is None only for magnitudes beyond the
                    // u32 literal encoding — report them, never truncate.
                    let lit = Lit::from_dimacs(value).ok_or_else(|| {
                        ParseDimacsError::InvalidLiteral {
                            line: line_no,
                            token: token.to_string(),
                        }
                    })?;
                    current.push(lit);
                }
            }
        }
        if !current.is_empty() {
            return Err(ParseDimacsError::UnterminatedClause);
        }
        if let Some(v) = declared_vars {
            cnf.ensure_num_vars(v);
        }
        Ok(cnf)
    }

    /// Renders the formula as DIMACS text, including a `p cnf` header.
    ///
    /// # Examples
    ///
    /// ```
    /// use bosphorus_cnf::{CnfFormula, Lit};
    /// let mut cnf = CnfFormula::new(2);
    /// cnf.add_clause([Lit::positive(0), Lit::negative(1)]);
    /// assert_eq!(cnf.to_dimacs(), "p cnf 2 1\n1 -2 0\n");
    /// ```
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.num_vars(), self.num_clauses());
        for clause in self.iter() {
            for lit in clause.iter() {
                let _ = write!(out, "{} ", lit.to_dimacs());
            }
            let _ = writeln!(out, "0");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_document() {
        let text = "c comment\np cnf 3 2\n1 -3 0\n2 3 -1 0\n";
        let cnf = CnfFormula::parse_dimacs(text).expect("parses");
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clause(0), &[Lit::positive(0), Lit::negative(2)]);
    }

    #[test]
    fn parse_multiline_clause_and_trailing_percent() {
        let text = "p cnf 2 1\n1\n-2\n0\n%\n0\n";
        // The trailing "%\n0" idiom from SATLIB files: '%' ends the clauses,
        // so the stray 0 is not read as an empty clause.
        let cnf = CnfFormula::parse_dimacs(text).expect("parses");
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.clause(0), &[Lit::positive(0), Lit::negative(1)]);
    }

    #[test]
    fn the_empty_clause_survives_a_round_trip() {
        let mut cnf = CnfFormula::new(2);
        cnf.add_clause([Lit::positive(0), Lit::negative(1)]);
        cnf.add_clause([]);
        let text = cnf.to_dimacs();
        assert_eq!(text, "p cnf 2 2\n1 -2 0\n0\n");
        let reparsed = CnfFormula::parse_dimacs(&text).expect("parses");
        assert!(reparsed.has_empty_clause());
        assert_eq!(reparsed, cnf);
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            CnfFormula::parse_dimacs("p cnf x 2\n1 0\n"),
            Err(ParseDimacsError::InvalidHeader { line: 1 })
        ));
        assert!(matches!(
            CnfFormula::parse_dimacs("p cnf 2 1\n1 foo 0\n"),
            Err(ParseDimacsError::InvalidLiteral { line: 2, .. })
        ));
        assert!(matches!(
            CnfFormula::parse_dimacs("p cnf 2 1\n1 2\n"),
            Err(ParseDimacsError::UnterminatedClause)
        ));
    }

    #[test]
    fn malformed_headers_are_rejected_with_their_line() {
        // Wrong format tag.
        assert!(matches!(
            CnfFormula::parse_dimacs("p dnf 2 2\n1 0\n"),
            Err(ParseDimacsError::InvalidHeader { line: 1 })
        ));
        // Missing the variable count entirely.
        assert!(matches!(
            CnfFormula::parse_dimacs("p cnf\n1 0\n"),
            Err(ParseDimacsError::InvalidHeader { line: 1 })
        ));
        // Negative variable count is not a usize.
        assert!(matches!(
            CnfFormula::parse_dimacs("p cnf -3 2\n1 0\n"),
            Err(ParseDimacsError::InvalidHeader { line: 1 })
        ));
        // The header line number is reported even after leading comments.
        assert!(matches!(
            CnfFormula::parse_dimacs("c hello\nc world\np oops 2 2\n1 0\n"),
            Err(ParseDimacsError::InvalidHeader { line: 3 })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected_with_its_line() {
        // Non-numeric junk after a well-formed clause list.
        assert!(matches!(
            CnfFormula::parse_dimacs("p cnf 2 1\n1 2 0\nxyz\n"),
            Err(ParseDimacsError::InvalidLiteral { line: 3, .. })
        ));
        // Junk spliced into a clause.
        assert!(matches!(
            CnfFormula::parse_dimacs("p cnf 2 1\n1 two 0\n"),
            Err(ParseDimacsError::InvalidLiteral { line: 2, .. })
        ));
        // A trailing unterminated clause after valid ones.
        assert!(matches!(
            CnfFormula::parse_dimacs("p cnf 3 2\n1 2 0\n-3\n"),
            Err(ParseDimacsError::UnterminatedClause)
        ));
        // An out-of-range literal (beyond i64 digits).
        assert!(matches!(
            CnfFormula::parse_dimacs("p cnf 2 1\n99999999999999999999999 0\n"),
            Err(ParseDimacsError::InvalidLiteral { line: 2, .. })
        ));
    }

    #[test]
    fn oversized_literals_and_headers_are_rejected_not_truncated() {
        // Fits in i64 but not in the u32 literal encoding: before the
        // explicit range check this silently truncated to a small variable.
        assert!(matches!(
            CnfFormula::parse_dimacs("p cnf 2 1\n4294967297 0\n"),
            Err(ParseDimacsError::InvalidLiteral { line: 2, .. })
        ));
        assert!(matches!(
            CnfFormula::parse_dimacs("p cnf 2 1\n-9223372036854775807 0\n"),
            Err(ParseDimacsError::InvalidLiteral { line: 2, .. })
        ));
        // A variable count no literal could ever reference.
        assert!(matches!(
            CnfFormula::parse_dimacs("p cnf 99999999999999999999 1\n1 0\n"),
            Err(ParseDimacsError::InvalidHeader { line: 1 })
        ));
        assert!(matches!(
            CnfFormula::parse_dimacs("p cnf 4294967296 1\n1 0\n"),
            Err(ParseDimacsError::InvalidHeader { line: 1 })
        ));
    }

    #[test]
    fn error_messages_name_the_problem() {
        let header = ParseDimacsError::InvalidHeader { line: 4 };
        assert!(header.to_string().contains("line 4"));
        let literal = ParseDimacsError::InvalidLiteral {
            line: 2,
            token: "xyz".to_string(),
        };
        let message = literal.to_string();
        assert!(message.contains("xyz") && message.contains("line 2"));
        assert!(ParseDimacsError::UnterminatedClause
            .to_string()
            .contains("not terminated"));
    }

    #[test]
    fn declared_vars_override_inferred() {
        let cnf = CnfFormula::parse_dimacs("p cnf 10 1\n1 0\n").expect("parses");
        assert_eq!(cnf.num_vars(), 10);
    }

    #[test]
    fn streaming_parse_matches_in_memory_parse() {
        use std::io::BufReader;
        let text = "c big file\np cnf 5 3\n1 -2 3 0\n-4\n5 0\n2 -5 0\n";
        let in_memory = CnfFormula::parse_dimacs(text).expect("parses");
        // A tiny buffer forces many refills, exercising the streaming path's
        // chunk handling.
        let streamed = CnfFormula::parse_dimacs_from(BufReader::with_capacity(4, text.as_bytes()))
            .expect("parses");
        assert_eq!(streamed, in_memory);
    }

    #[test]
    fn streaming_reader_errors_surface_as_read_errors() {
        use std::io::{self, Read};
        struct FailingReader;
        impl Read for FailingReader {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
        }
        let result = CnfFormula::parse_dimacs_from(io::BufReader::new(FailingReader));
        match result {
            Err(ParseDimacsError::Read { message }) => {
                assert!(message.contains("disk on fire"));
            }
            other => panic!("expected a Read error, got {other:?}"),
        }
        let rendered = ParseDimacsError::Read {
            message: "nope".to_string(),
        }
        .to_string();
        assert!(rendered.contains("cannot read") && rendered.contains("nope"));
    }

    #[test]
    fn roundtrip_through_dimacs() {
        let mut cnf = CnfFormula::new(4);
        cnf.add_clause([Lit::positive(0), Lit::negative(3)]);
        cnf.add_clause([Lit::negative(1), Lit::positive(2), Lit::positive(3)]);
        let text = cnf.to_dimacs();
        let reparsed = CnfFormula::parse_dimacs(&text).expect("round-trip parses");
        assert_eq!(reparsed, cnf);
    }
}
