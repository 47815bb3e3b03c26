//! Argument parsing for the `table2` driver, split out of `main` so the
//! parser has unit tests (notably the `--jobs 0` and `--timeout 0` error
//! paths).

use bosphorus::PassKind;

use crate::tables::FamilySelector;

/// Everything the `table2` command line can specify.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Args {
    /// The benchmark families to run.
    pub family: FamilySelector,
    /// Instances generated per family.
    pub instances: usize,
    /// Nominal PAR-2 timeout in seconds (at least 1).
    pub timeout_secs: u64,
    /// Worker threads for the instance × approach × solver grid.
    pub jobs: usize,
    /// Pipeline pass order for the Bosphorus runs (None = engine default).
    pub passes: Option<Vec<PassKind>>,
    /// `true` when `--help` was requested.
    pub help: bool,
}

impl Default for Table2Args {
    fn default() -> Self {
        Table2Args {
            family: FamilySelector::All,
            instances: 3,
            timeout_secs: 5,
            jobs: 1,
            passes: None,
            help: false,
        }
    }
}

/// The usage line printed for `--help` and after argument errors.
pub const TABLE2_USAGE: &str = "usage: table2 \
[--family all|sr|simon|bitcoin|satcomp] [--instances N] \
[--timeout SECONDS] [--jobs N] [--passes LIST]";

impl Table2Args {
    /// Parses the command line (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags, missing or unparseable values,
    /// an unknown family, `--jobs 0` and `--timeout 0` (a zero timeout
    /// would score every unsolved run at 2 × 0 seconds).
    pub fn parse<S: AsRef<str>, I: IntoIterator<Item = S>>(args: I) -> Result<Self, String> {
        let mut parsed = Table2Args::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref().to_string();
            let mut value_of = |flag: &str| {
                iter.next()
                    .map(|s| s.as_ref().to_string())
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--help" | "-h" => parsed.help = true,
                "--family" => {
                    let name = value_of("--family")?;
                    parsed.family = FamilySelector::from_name(&name).ok_or_else(|| {
                        format!(
                            "unknown family {name:?} (expected one of {})",
                            FamilySelector::ALL.map(FamilySelector::name).join(", ")
                        )
                    })?;
                }
                "--instances" => {
                    let raw = value_of("--instances")?;
                    parsed.instances = raw
                        .parse()
                        .map_err(|_| format!("--instances: {raw:?} is not a count"))?;
                }
                "--timeout" => {
                    let raw = value_of("--timeout")?;
                    let timeout_secs: u64 = raw
                        .parse()
                        .map_err(|_| format!("--timeout: {raw:?} is not a number of seconds"))?;
                    if timeout_secs == 0 {
                        return Err("--timeout must be at least 1 second".to_string());
                    }
                    parsed.timeout_secs = timeout_secs;
                }
                "--jobs" => {
                    let raw = value_of("--jobs")?;
                    let jobs: usize = raw
                        .parse()
                        .map_err(|_| format!("--jobs: {raw:?} is not a count"))?;
                    if jobs == 0 {
                        return Err(
                            "--jobs must be at least 1 (use --jobs 1 for a sequential run)"
                                .to_string(),
                        );
                    }
                    parsed.jobs = jobs;
                }
                "--passes" => parsed.passes = Some(PassKind::parse_list(&value_of("--passes")?)?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Table2Args, String> {
        Table2Args::parse(args.iter().copied())
    }

    #[test]
    fn defaults_match_the_historic_flags() {
        let args = parse(&[]).expect("empty parses");
        assert_eq!(args.family, FamilySelector::All);
        assert_eq!(args.instances, 3);
        assert_eq!(args.timeout_secs, 5);
        assert_eq!(args.jobs, 1);
        assert_eq!(args.passes, None);
        assert!(!args.help);
    }

    #[test]
    fn jobs_zero_is_a_clean_error() {
        let err = parse(&["--jobs", "0"]).unwrap_err();
        assert!(err.contains("--jobs must be at least 1"), "got: {err}");
    }

    #[test]
    fn timeout_zero_is_a_clean_error() {
        let err = parse(&["--timeout", "0"]).unwrap_err();
        assert!(err.contains("--timeout must be at least 1"), "got: {err}");
        assert_eq!(parse(&["--timeout", "1"]).expect("parses").timeout_secs, 1);
    }

    #[test]
    fn jobs_values_parse_and_garbage_is_rejected() {
        assert_eq!(parse(&["--jobs", "4"]).expect("parses").jobs, 4);
        assert!(parse(&["--jobs", "many"]).unwrap_err().contains("--jobs"));
        assert!(parse(&["--jobs"]).unwrap_err().contains("requires a value"));
    }

    #[test]
    fn family_is_validated() {
        for family in FamilySelector::ALL {
            assert_eq!(
                parse(&["--family", family.name()]).expect("parses").family,
                family
            );
            assert!(TABLE2_USAGE.contains(family.name()));
        }
        for unknown in ["nonsense", "groebner-baseline"] {
            assert!(parse(&["--family", unknown])
                .unwrap_err()
                .contains("unknown family"));
        }
    }

    #[test]
    fn passes_list_parses_into_pass_kinds() {
        let args = parse(&["--passes", "elimlin,sat"]).expect("parses");
        assert_eq!(args.passes, Some(vec![PassKind::ElimLin, PassKind::Sat]));
        assert!(parse(&["--passes", "bogus"])
            .unwrap_err()
            .contains("unknown pass"));
    }

    #[test]
    fn unknown_arguments_are_errors_not_warnings() {
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown argument"));
    }

    #[test]
    fn help_is_not_an_unknown_argument() {
        // `table2 --help` must parse cleanly (the binary prints TABLE2_USAGE
        // and exits 0), in both spellings and mixed with other flags.
        assert!(parse(&["--help"]).expect("--help parses").help);
        assert!(parse(&["-h"]).expect("-h parses").help);
        let mixed = parse(&["--family", "simon", "--help"]).expect("parses");
        assert!(mixed.help);
        assert_eq!(mixed.family, FamilySelector::Simon);
        assert!(!parse(&[]).expect("parses").help);
        // The usage text names the flags so `--help` output stays useful.
        for flag in ["--family", "--instances", "--timeout", "--jobs", "--passes"] {
            assert!(TABLE2_USAGE.contains(flag), "usage must mention {flag}");
        }
    }
}
