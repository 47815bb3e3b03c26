//! Library behind the `bosphorus` binary: argument parsing, the run driver,
//! and the text/JSON writers, kept separate from `main` so they are unit- and
//! integration-testable.
//!
//! The binary mirrors the original Bosphorus tool's role: read a problem in
//! ANF (`.anf`, the paper's polynomial text format) or CNF (DIMACS), run a
//! user-configurable [`Pipeline`](bosphorus::Pipeline) of learning passes,
//! and write the simplified ANF/DIMACS — or, with `--solve`, a model
//! extended back to the original variables.
//!
//! Output conventions: machine-readable results (the `s`/`v` solution lines,
//! dumps routed to `-`, `--stats-json`) go to stdout; progress and summary
//! lines go to stderr. Exit codes follow the SAT-competition convention when
//! `--solve` is given (10 = SAT, 20 = UNSAT), otherwise 0 on success; usage,
//! I/O and parse errors exit 1; a run interrupted by `--timeout`, SIGINT or
//! SIGTERM that still produced a consistent partial result exits
//! [`EXIT_INTERRUPTED`] (30). A reader that closes stdout early (`| head`)
//! changes no exit code: the rest of the output is dropped.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::str::FromStr;
use std::time::Duration;

use bosphorus::{
    Bosphorus, BosphorusConfig, CancelToken, EngineStats, PassKind, PreprocessStatus, SolveStatus,
};
use bosphorus_anf::{PolynomialSystem, Var, VarKnowledge};
use bosphorus_cnf::CnfFormula;
use bosphorus_interrupt::sigint;
use bosphorus_sat::SolverConfig;

/// Exit code of a run that was interrupted (deadline, SIGINT or SIGTERM) but
/// wound down transactionally: any requested dumps were still written and
/// describe a consistent, equisatisfiable partial simplification.
pub const EXIT_INTERRUPTED: i32 = 30;

/// The usage text printed for `--help` and after argument errors.
pub const USAGE: &str = "\
bosphorus — bridging ANF and CNF solvers (DATE 2019 reproduction)

usage: bosphorus (--anf FILE | --cnf FILE) [options]

input:
  --anf FILE            read a Boolean polynomial system (.anf text format:
                        `x1*x2 + x3 + 1;` per equation, `#` comments)
  --cnf FILE            read a DIMACS CNF formula

actions:
  --solve               preprocess, then run the SAT solver to completion and
                        print `s SATISFIABLE` + a `v` model line over the
                        original variables (exit 10) or `s UNSATISFIABLE`
                        (exit 20)
  --cnfdump FILE        write the processed CNF as DIMACS (`-` for stdout)
  --anfdump FILE        write the simplified ANF, including the propagated
                        values/equivalences, re-parseable by --anf
  --stats-json          print engine statistics as JSON on stdout: per-pass
                        totals plus a per-iteration timeline (pass, revision,
                        facts, elapsed, subsample size M, SAT budget C, SAT
                        conflicts spent)

pipeline:
  --passes LIST         comma-separated pass order, e.g. `elimlin,xl,sat`
                        (available: propagate, xl, elimlin, sat, groebner)
  --config PRESET       default | paper | exhaustive
  --max-iterations N    cap the number of pipeline iterations
  --sat-budget N        SAT conflict budget C of every in-loop SAT round
                        (C does not rise during the run; 0 spends no conflict)
  --seed N              subsampling RNG seed
  --solver NAME         solver configuration for the final --solve call:
                        minimal | aggressive | xorgauss (the in-loop SAT
                        pass always uses xorgauss, with native XORs)

misc:
  --timeout SECS        wall-clock deadline (fractional seconds allowed);
                        when it expires every pass winds down at its next
                        checkpoint and the run exits 30 with whatever was
                        learnt so far (dumps stay valid). The exception is
                        groebner: it checks between critical pairs only,
                        and a single reduction can overrun the deadline by
                        far (32 s against --timeout 3 on simon_2_8.anf).
                        SIGINT (Ctrl-C) or SIGTERM triggers the same
                        graceful wind-down; a second delivery of the same
                        signal kills the process immediately.
  --help, -h            this text

exit codes:
   0  success (preprocessing finished; or decided without --solve)
   1  usage, parse or I/O error
  10  satisfiable (--solve)
  20  unsatisfiable (--solve)
  30  interrupted by --timeout, SIGINT or SIGTERM; partial result is
      consistent
";

/// Where the problem comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputSource {
    /// A `.anf` polynomial-system file.
    Anf(String),
    /// A DIMACS CNF file.
    Cnf(String),
}

/// Which built-in solver configuration to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// `SolverConfig::minimal()` — the MiniSat-like baseline.
    Minimal,
    /// `SolverConfig::aggressive()` — the default.
    #[default]
    Aggressive,
    /// `SolverConfig::xor_gauss()` — with native XOR reasoning.
    XorGauss,
}

impl SolverChoice {
    fn to_config(self) -> SolverConfig {
        match self {
            SolverChoice::Minimal => SolverConfig::minimal(),
            SolverChoice::Aggressive => SolverConfig::aggressive(),
            SolverChoice::XorGauss => SolverConfig::xor_gauss(),
        }
    }
}

impl FromStr for SolverChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "minimal" | "minisat" => Ok(SolverChoice::Minimal),
            "aggressive" | "lingeling" => Ok(SolverChoice::Aggressive),
            "xorgauss" | "xor" | "cryptominisat" => Ok(SolverChoice::XorGauss),
            other => Err(format!(
                "unknown solver {other:?} (expected minimal, aggressive or xorgauss)"
            )),
        }
    }
}

/// The configuration preset `--config` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConfigPreset {
    /// Scaled-down defaults (regenerate in minutes on a laptop).
    #[default]
    Default,
    /// The paper's Section IV parameters.
    Paper,
    /// Subsampling disabled (small instances, deterministic passes).
    Exhaustive,
}

impl FromStr for ConfigPreset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "default" => Ok(ConfigPreset::Default),
            "paper" => Ok(ConfigPreset::Paper),
            "exhaustive" => Ok(ConfigPreset::Exhaustive),
            other => Err(format!(
                "unknown config preset {other:?} (expected default, paper or exhaustive)"
            )),
        }
    }
}

/// Everything the command line specified.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// The input problem.
    pub input: InputSource,
    /// Run the final SAT call and print a model.
    pub solve: bool,
    /// Write the processed CNF here (`-` = stdout).
    pub cnfdump: Option<String>,
    /// Write the simplified ANF here (`-` = stdout).
    pub anfdump: Option<String>,
    /// Print engine statistics as JSON.
    pub stats_json: bool,
    /// Override of the pass order (None = the preset's default).
    pub passes: Option<Vec<PassKind>>,
    /// Base configuration preset.
    pub preset: ConfigPreset,
    /// Override of `max_iterations`.
    pub max_iterations: Option<usize>,
    /// Override of the initial SAT conflict budget.
    pub sat_budget: Option<u64>,
    /// Override of the RNG seed.
    pub seed: Option<u64>,
    /// Solver configuration for the final `--solve` call. The in-loop SAT
    /// pass is pinned to `xorgauss`; under `xorgauss` the final solver, too,
    /// receives each polynomial's XOR as one native constraint instead of
    /// its clause block.
    pub solver: SolverChoice,
    /// Wall-clock deadline in seconds (`--timeout`); `None` = no deadline.
    pub timeout: Option<f64>,
}

/// What `parse_args` decided.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print [`USAGE`] and exit 0.
    Help,
    /// Run with these options.
    Run(Box<CliOptions>),
}

/// Parses the command line (without the program name).
///
/// # Errors
///
/// Returns a human-readable message when an option is unknown, a value is
/// missing or unparseable, or no input file was given.
pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<Command, String> {
    let mut input: Option<InputSource> = None;
    let mut options = CliOptions {
        input: InputSource::Anf(String::new()),
        solve: false,
        cnfdump: None,
        anfdump: None,
        stats_json: false,
        passes: None,
        preset: ConfigPreset::Default,
        max_iterations: None,
        sat_budget: None,
        seed: None,
        solver: SolverChoice::Aggressive,
        timeout: None,
    };
    let mut iter = args.iter().map(|s| s.as_ref());
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .map(str::to_string)
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let mut set_input = |source: InputSource| {
            if input.is_some() {
                return Err(
                    "conflicting inputs: --anf and --cnf are mutually exclusive \
                            (pass exactly one input file)"
                        .to_string(),
                );
            }
            input = Some(source);
            Ok(())
        };
        match arg {
            "--help" | "-h" => return Ok(Command::Help),
            "--anf" => set_input(InputSource::Anf(value_of("--anf")?))?,
            "--cnf" => set_input(InputSource::Cnf(value_of("--cnf")?))?,
            "--solve" => options.solve = true,
            "--cnfdump" => options.cnfdump = Some(value_of("--cnfdump")?),
            "--anfdump" => options.anfdump = Some(value_of("--anfdump")?),
            "--stats-json" => options.stats_json = true,
            "--passes" => options.passes = Some(PassKind::parse_list(&value_of("--passes")?)?),
            "--config" => options.preset = value_of("--config")?.parse()?,
            "--max-iterations" => {
                let raw = value_of("--max-iterations")?;
                options.max_iterations = Some(
                    raw.parse()
                        .map_err(|_| format!("--max-iterations: {raw:?} is not a count"))?,
                );
            }
            "--sat-budget" => {
                let raw = value_of("--sat-budget")?;
                options.sat_budget = Some(
                    raw.parse()
                        .map_err(|_| format!("--sat-budget: {raw:?} is not a count"))?,
                );
            }
            "--seed" => {
                let raw = value_of("--seed")?;
                options.seed = Some(
                    raw.parse()
                        .map_err(|_| format!("--seed: {raw:?} is not a 64-bit seed"))?,
                );
            }
            "--solver" => options.solver = value_of("--solver")?.parse()?,
            "--timeout" => {
                let raw = value_of("--timeout")?;
                options.timeout = Some(
                    raw.parse()
                        .ok()
                        // Beyond about 1.8e19 s no `Duration` holds the
                        // deadline.
                        .filter(|t: &f64| *t > 0.0 && Duration::try_from_secs_f64(*t).is_ok())
                        .ok_or_else(|| {
                            format!("--timeout: {raw:?} is not a positive number of seconds")
                        })?,
                );
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }
    match input {
        Some(input) => {
            options.input = input;
            Ok(Command::Run(Box::new(options)))
        }
        None => Err("no input: pass --anf FILE or --cnf FILE (see --help)".to_string()),
    }
}

/// Materialises the engine configuration an option set describes.
pub fn build_config(options: &CliOptions) -> BosphorusConfig {
    let mut config = match options.preset {
        ConfigPreset::Default => BosphorusConfig::default(),
        ConfigPreset::Paper => BosphorusConfig::paper_defaults(),
        ConfigPreset::Exhaustive => BosphorusConfig::exhaustive(),
    };
    if let Some(passes) = &options.passes {
        config.pass_order = passes.clone();
    }
    if let Some(n) = options.max_iterations {
        config.max_iterations = n;
    }
    if let Some(c) = options.sat_budget {
        config.sat_conflict_budget = c;
    }
    if let Some(seed) = options.seed {
        config.rng_seed = seed;
    }
    config
}

/// Runs the tool; returns the process exit code.
///
/// # Errors
///
/// I/O and parse failures are reported as human-readable messages (the
/// binary prints them to stderr and exits 1).
pub fn run(options: &CliOptions) -> Result<i32, String> {
    let config = build_config(options);
    let mut engine = match &options.input {
        InputSource::Anf(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read ANF file {path:?}: {e}"))?;
            let system = PolynomialSystem::parse(&text)
                .map_err(|e| format!("cannot parse ANF file {path:?}: {e}"))?;
            eprintln!(
                "c read {} equations over {} variables from {path}",
                system.len(),
                system.num_vars()
            );
            Bosphorus::new(system, config)
        }
        InputSource::Cnf(path) => {
            // DIMACS files can be huge; stream them through a buffered
            // reader instead of slurping the whole document.
            let file = std::fs::File::open(path)
                .map_err(|e| format!("cannot read CNF file {path:?}: {e}"))?;
            let cnf = CnfFormula::parse_dimacs_from(std::io::BufReader::new(file))
                .map_err(|e| format!("cannot parse DIMACS file {path:?}: {e}"))?;
            eprintln!(
                "c read {} clauses over {} variables from {path}",
                cnf.num_clauses(),
                cnf.num_vars()
            );
            Bosphorus::from_cnf(&cnf, config)
        }
    };

    // One token serves both interruption sources: `--timeout` arms a
    // wall-clock deadline, and SIGINT or SIGTERM (registered process-wide,
    // polled by every checkpoint) trips the same flag, so each pass winds
    // down transactionally whichever fires first.
    sigint::install();
    let token = match options.timeout {
        Some(secs) => CancelToken::with_timeout(Duration::from_secs_f64(secs)),
        None => CancelToken::new(),
    }
    .honoring_sigint();
    engine.set_cancel_token(token);

    let (status_label, exit_code) = if options.solve {
        match engine.solve(&options.solver.to_config()) {
            SolveStatus::Sat(assignment) => {
                print_stdout(&format!("s SATISFIABLE\n{}\n", model_line(&assignment)))?;
                ("sat", 10)
            }
            SolveStatus::Unsat => {
                print_stdout("s UNSATISFIABLE\n")?;
                ("unsat", 20)
            }
            SolveStatus::Interrupted => {
                print_stdout("s UNKNOWN\n")?;
                ("interrupted", EXIT_INTERRUPTED)
            }
        }
    } else {
        match engine.preprocess() {
            PreprocessStatus::Solved(assignment) => {
                print_stdout(&format!("s SATISFIABLE\n{}\n", model_line(&assignment)))?;
                ("solved", 0)
            }
            PreprocessStatus::Unsat => {
                print_stdout("s UNSATISFIABLE\n")?;
                ("unsat", 0)
            }
            PreprocessStatus::Simplified => ("simplified", 0),
            PreprocessStatus::Interrupted => ("interrupted", EXIT_INTERRUPTED),
        }
    };
    eprintln!(
        "c {}: {} equations remain, {}",
        status_label,
        engine.processed_system().len(),
        engine.stats()
    );

    if let Some(target) = &options.cnfdump {
        let (cnf, _original) = engine.output_cnf();
        write_output(target, &cnf.to_dimacs())?;
    }
    if let Some(target) = &options.anfdump {
        write_output(target, &simplified_anf(&engine))?;
    }
    if options.stats_json {
        print_stdout(&format!("{}\n", stats_json(engine.stats(), status_label)))?;
    }
    Ok(exit_code)
}

/// The DIMACS-style `v` line of a model over the original variables.
pub fn model_line(assignment: &bosphorus_anf::Assignment) -> String {
    let mut line = String::from("v");
    for v in 0..assignment.len() as Var {
        let lit = v as i64 + 1;
        let _ = write!(line, " {}", if assignment.get(v) { lit } else { -lit });
    }
    line.push_str(" 0");
    line
}

/// Renders the simplified problem as re-parseable `.anf` text: the remaining
/// master equations plus one equation per propagated value/equivalence, so
/// the dump is equisatisfiable with the input (over the original variables)
/// on its own.
pub fn simplified_anf(engine: &Bosphorus) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# simplified ANF: {} equations + propagated knowledge",
        engine.processed_system().len()
    );
    let _ = write!(out, "{}", engine.processed_system());
    let propagator = engine.propagator();
    for v in 0..engine.database().num_vars() as Var {
        match propagator.knowledge(v) {
            VarKnowledge::Free => {}
            VarKnowledge::Value(true) => {
                let _ = writeln!(out, "x{v} + 1;");
            }
            VarKnowledge::Value(false) => {
                let _ = writeln!(out, "x{v};");
            }
            VarKnowledge::Equivalent { other, negated } => {
                if negated {
                    let _ = writeln!(out, "x{v} + x{other} + 1;");
                } else {
                    let _ = writeln!(out, "x{v} + x{other};");
                }
            }
        }
    }
    out
}

/// Renders engine statistics (including the per-pass breakdown) as JSON.
pub fn stats_json(stats: &EngineStats, status: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"status\": \"{status}\",");
    let _ = writeln!(out, "  \"interrupted\": {},", stats.interrupted);
    let mut poisoned = String::new();
    for (i, name) in stats.poisoned_passes.iter().enumerate() {
        if i > 0 {
            poisoned.push_str(", ");
        }
        let _ = write!(poisoned, "\"{name}\"");
    }
    let _ = writeln!(out, "  \"poisoned_passes\": [{poisoned}],");
    let _ = writeln!(out, "  \"iterations\": {},", stats.iterations);
    let _ = writeln!(
        out,
        "  \"facts\": {{\"xl\": {}, \"elimlin\": {}, \"sat\": {}, \"groebner\": {}, \"total\": {}}},",
        stats.facts_from("xl"),
        stats.facts_from("elimlin"),
        stats.facts_from("sat"),
        stats.facts_from("groebner"),
        stats.total_facts()
    );
    let _ = writeln!(
        out,
        "  \"propagation\": {{\"assignments\": {}, \"equivalences\": {}}},",
        stats.propagated_assignments, stats.propagated_equivalences
    );
    let _ = writeln!(out, "  \"sat_conflicts\": {},", stats.sat_conflicts);
    let _ = writeln!(out, "  \"gauss_row_xors\": {},", stats.gauss_row_xors);
    // ANF → CNF encoding plus solver construction, apart from search.
    let _ = writeln!(
        out,
        "  \"encode_ms\": {:.3},",
        stats.encode_time.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        out,
        "  \"decided_during_preprocessing\": {},",
        stats.decided_during_preprocessing
    );
    // The final SAT call of `--solve`; null when none ran.
    let final_solve = stats.final_solve.map_or("null".to_string(), |last| {
        format!(
            "{{\"conflicts\": {}, \"restarts\": {}, \"time_ms\": {:.3}}}",
            last.solver.conflicts,
            last.solver.restarts,
            last.time.as_secs_f64() * 1e3
        )
    });
    let _ = writeln!(out, "  \"final_solve\": {final_solve},");
    out.push_str("  \"passes\": [");
    for (i, pass) in stats.passes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"runs\": {}, \"skips\": {}, \"facts\": {}, \
             \"known_facts\": {}, \"gauss_rank\": {}, \"gauss_row_xors\": {}, \
             \"gauss_sweeps\": {}, \"gauss_scattered_sweeps\": {}, \
             \"sat_conflicts\": {}, \"sat_learnt\": {}, \"sat_removed\": {}, \
             \"sat_minimized_lits\": {}, \"sat_restarts\": {}, \
             \"time_ms\": {:.3}, ",
            pass.name,
            pass.runs,
            pass.skips,
            pass.facts,
            pass.known_facts,
            pass.gauss.rank,
            pass.gauss.row_xors,
            pass.gauss.sweeps,
            pass.gauss.scattered_sweeps,
            pass.sat_conflicts,
            pass.sat_learnt,
            pass.sat_removed,
            pass.sat_minimized_lits,
            pass.sat_restarts,
            pass.time.as_secs_f64() * 1e3
        );
        // The sparse-presolve phase split for this pass, cumulative over
        // its runs; all-zero when the pass has no GF(2) elimination.
        let p = &pass.presolve;
        let _ = write!(
            out,
            "\"presolve\": {{\"input_rows\": {}, \"input_cols\": {}, \
             \"rows_eliminated\": {}, \"cols_eliminated\": {}, \
             \"components\": {}, \"dense_core_rows\": {}, \"dense_core_cols\": {}, \
             \"empty_rows\": {}, \"duplicate_rows\": {}, \"singleton_rows\": {}, \
             \"weight2_rows\": {}, \"pure_leading_rows\": {}, \
             \"presolve_ns\": {}, \"dense_ns\": {}, ",
            p.input_rows,
            p.input_cols,
            p.rows_eliminated,
            p.cols_eliminated,
            p.components,
            p.dense_rows,
            p.dense_cols,
            p.empty_rows,
            p.duplicate_rows,
            p.singleton_rows,
            p.weight2_rows,
            p.pure_leading_rows,
            p.presolve_ns,
            p.dense_ns
        );
        // Per-rule nnz attribution and peak row storage.
        let _ = write!(
            out,
            "\"duplicate_nnz\": {}, \"singleton_nnz\": {}, \"weight2_nnz\": {}, \
             \"pure_leading_nnz\": {}, \
             \"cascade_ns\": {}, \"dedup_ns\": {}, \
             \"peak_interned_rows\": {}, \"peak_interned_words\": {}}}}}",
            p.duplicate_nnz,
            p.singleton_nnz,
            p.weight2_nnz,
            p.pure_leading_nnz,
            p.cascade_ns,
            p.dedup_ns,
            p.peak_interned_rows,
            p.peak_interned_words
        );
    }
    if stats.passes.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    // The chronological timeline: one entry per pass execution, so the
    // evolution of the run (which iteration learnt what, at which database
    // revision, and how long each step took) is machine-readable.
    out.push_str("  \"timeline\": [");
    for (i, entry) in stats.timeline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"iteration\": {}, \"pass\": \"{}\", \"revision\": {}, \
             \"facts\": {}, \"skipped\": {}, \"poisoned\": {}, \"time_ms\": {:.3}, \
             \"encode_ms\": {:.3}, \"subsample_m\": {}, \"sat_budget\": {}, \"sat_conflicts\": {}}}",
            entry.iteration,
            entry.pass,
            entry.revision,
            entry.facts,
            entry.skipped,
            entry.poisoned,
            entry.time.as_secs_f64() * 1e3,
            entry.encode_time.as_secs_f64() * 1e3,
            entry.subsample_m,
            entry.sat_budget,
            entry.sat_conflicts
        );
    }
    if stats.timeline.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push('}');
    out
}

/// Writes `text` to stdout. A reader that closed the pipe early (`EPIPE`)
/// is not an error: the text is dropped, and the run ends with the exit
/// code it would otherwise have had.
///
/// # Errors
///
/// Any other write failure, as a message.
pub fn print_stdout(text: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

fn write_output(target: &str, content: &str) -> Result<(), String> {
    if target == "-" {
        print_stdout(content)
    } else {
        std::fs::write(target, content).map_err(|e| format!("cannot write {target:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args)
    }

    fn options(args: &[&str]) -> CliOptions {
        match parse(args).expect("parses") {
            Command::Run(options) => *options,
            Command::Help => panic!("expected Run"),
        }
    }

    #[test]
    fn minimal_anf_invocation() {
        let options = options(&["--anf", "in.anf"]);
        assert_eq!(options.input, InputSource::Anf("in.anf".to_string()));
        assert!(!options.solve);
        assert_eq!(options.passes, None);
    }

    #[test]
    fn full_invocation_round_trips_every_flag() {
        let options = options(&[
            "--cnf",
            "in.cnf",
            "--solve",
            "--cnfdump",
            "out.cnf",
            "--anfdump",
            "-",
            "--stats-json",
            "--passes",
            "elimlin,xl,sat",
            "--config",
            "exhaustive",
            "--max-iterations",
            "5",
            "--sat-budget",
            "123",
            "--seed",
            "42",
            "--solver",
            "xorgauss",
        ]);
        assert_eq!(options.input, InputSource::Cnf("in.cnf".to_string()));
        assert!(options.solve && options.stats_json);
        assert_eq!(options.cnfdump.as_deref(), Some("out.cnf"));
        assert_eq!(options.anfdump.as_deref(), Some("-"));
        assert_eq!(
            options.passes,
            Some(vec![PassKind::ElimLin, PassKind::Xl, PassKind::Sat])
        );
        assert_eq!(options.preset, ConfigPreset::Exhaustive);
        assert_eq!(options.max_iterations, Some(5));
        assert_eq!(options.sat_budget, Some(123));
        assert_eq!(options.seed, Some(42));
        assert_eq!(options.solver, SolverChoice::XorGauss);
    }

    #[test]
    fn errors_are_clean() {
        assert!(parse(&[]).unwrap_err().contains("no input"));
        assert!(parse(&["--anf"]).unwrap_err().contains("requires a value"));
        assert!(parse(&["--anf", "a", "--passes", "bogus"])
            .unwrap_err()
            .contains("unknown pass"));
        assert!(parse(&["--anf", "a", "--passes", ","])
            .unwrap_err()
            .contains("at least one pass"));
        assert!(parse(&["--anf", "a", "--jobs", "3"])
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse(&["--anf", "a", "--max-iterations", "many"])
            .unwrap_err()
            .contains("not a count"));
    }

    #[test]
    fn help_wins() {
        assert_eq!(parse(&["--help"]).expect("parses"), Command::Help);
        assert_eq!(parse(&["-h"]).expect("parses"), Command::Help);
    }

    #[test]
    fn build_config_applies_overrides() {
        let options = options(&[
            "--anf",
            "a",
            "--passes",
            "groebner,sat",
            "--sat-budget",
            "999999",
            "--seed",
            "7",
        ]);
        let config = build_config(&options);
        assert_eq!(config.pass_order, vec![PassKind::Groebner, PassKind::Sat]);
        assert_eq!(config.sat_conflict_budget, 999_999);
        assert_eq!(config.rng_seed, 7);
    }

    #[test]
    fn threads_flag_is_rejected_as_unknown() {
        // The GF(2) elimination is serial, so there is no thread-count flag.
        assert!(parse(&["--anf", "a", "--threads", "4"])
            .unwrap_err()
            .contains("unknown argument \"--threads\""));
    }

    #[test]
    fn model_line_is_dimacs_style() {
        let assignment = bosphorus_anf::Assignment::from_bits([true, false, true]);
        assert_eq!(model_line(&assignment), "v 1 -2 3 0");
    }

    #[test]
    fn stats_json_is_well_formed_enough() {
        let stats = EngineStats {
            iterations: 2,
            ..EngineStats::default()
        };
        let json = stats_json(&stats, "simplified");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"status\": \"simplified\""));
        assert!(json.contains("\"iterations\": 2"));
        assert!(json.contains("\"encode_ms\": 0.000,"));
        assert!(json.contains("\"passes\": []"));
        assert!(json.contains("\"timeline\": []"));
    }

    #[test]
    fn stats_json_serialises_timeline_entries() {
        use std::time::Duration;
        let stats = EngineStats {
            iterations: 1,
            timeline: vec![bosphorus::TimelineEntry {
                iteration: 1,
                pass: "xl".to_string(),
                revision: 3,
                facts: 4,
                skipped: false,
                poisoned: false,
                time: Duration::from_millis(2),
                subsample_m: 20,
                sat_budget: 2_000,
                sat_conflicts: 17,
                encode_time: Duration::from_micros(1250),
            }],
            ..EngineStats::default()
        };
        let json = stats_json(&stats, "solved");
        assert!(json.contains("\"timeline\": ["));
        assert!(json.contains("\"iteration\": 1"));
        assert!(json.contains("\"pass\": \"xl\""));
        assert!(json.contains("\"revision\": 3"));
        assert!(json.contains("\"facts\": 4"));
        assert!(json.contains("\"skipped\": false"));
        assert!(json.contains("\"poisoned\": false"));
        assert!(json.contains("\"subsample_m\": 20"));
        assert!(json.contains("\"sat_budget\": 2000"));
        assert!(json.contains("\"sat_conflicts\": 17}"));
        assert!(json.contains("\"time_ms\": 2.000, \"encode_ms\": 1.250,"));
    }

    #[test]
    fn stats_json_serialises_the_presolve_phase_split() {
        let mut pass = bosphorus::PassStats {
            name: "xl".to_string(),
            runs: 1,
            ..bosphorus::PassStats::default()
        };
        pass.presolve.input_rows = 100;
        pass.presolve.input_cols = 60;
        pass.presolve.rows_eliminated = 40;
        pass.presolve.cols_eliminated = 10;
        pass.presolve.singleton_rows = 25;
        pass.presolve.duplicate_rows = 15;
        pass.presolve.components = 2;
        pass.presolve.dense_rows = 60;
        pass.presolve.dense_cols = 50;
        pass.presolve.presolve_ns = 1234;
        pass.presolve.duplicate_nnz = 45;
        pass.presolve.singleton_nnz = 26;
        pass.presolve.weight2_nnz = 14;
        pass.presolve.pure_leading_nnz = 9;
        pass.presolve.cascade_ns = 400;
        pass.presolve.dedup_ns = 300;
        pass.presolve.peak_interned_rows = 80;
        pass.presolve.peak_interned_words = 480;
        let stats = EngineStats {
            passes: vec![pass],
            ..EngineStats::default()
        };
        let json = stats_json(&stats, "simplified");
        assert!(json.contains("\"presolve\": {"));
        assert!(json.contains("\"rows_eliminated\": 40"));
        assert!(json.contains("\"cols_eliminated\": 10"));
        assert!(json.contains("\"singleton_rows\": 25"));
        assert!(json.contains("\"duplicate_rows\": 15"));
        assert!(json.contains("\"components\": 2"));
        assert!(json.contains("\"dense_core_rows\": 60"));
        assert!(json.contains("\"dense_core_cols\": 50"));
        assert!(json.contains("\"presolve_ns\": 1234"));
        // Per-rule attribution and peaks.
        assert!(json.contains("\"duplicate_nnz\": 45"));
        assert!(json.contains("\"singleton_nnz\": 26"));
        assert!(json.contains("\"weight2_nnz\": 14"));
        assert!(json.contains("\"pure_leading_nnz\": 9"));
        assert!(json.contains("\"cascade_ns\": 400"));
        assert!(json.contains("\"dedup_ns\": 300"));
        assert!(json.contains("\"peak_interned_rows\": 80"));
        assert!(json.contains("\"peak_interned_words\": 480"));
    }

    #[test]
    fn stats_json_serialises_known_facts_per_pass() {
        let pass = bosphorus::PassStats {
            name: "sat".to_string(),
            runs: 1,
            known_facts: 34,
            ..bosphorus::PassStats::default()
        };
        let stats = EngineStats {
            passes: vec![pass],
            ..EngineStats::default()
        };
        let json = stats_json(&stats, "simplified");
        assert!(json.contains("\"facts\": 0, \"known_facts\": 34"));
    }

    #[test]
    fn stats_json_serialises_the_sat_learning_counters() {
        let pass = bosphorus::PassStats {
            name: "sat".to_string(),
            runs: 2,
            sat_conflicts: 17,
            sat_learnt: 11,
            sat_removed: 4,
            sat_minimized_lits: 9,
            sat_restarts: 2,
            ..bosphorus::PassStats::default()
        };
        let stats = EngineStats {
            passes: vec![pass],
            ..EngineStats::default()
        };
        let json = stats_json(&stats, "simplified");
        assert!(json.contains("\"sat_conflicts\": 17"));
        assert!(json.contains("\"sat_learnt\": 11"));
        assert!(json.contains("\"sat_removed\": 4"));
        assert!(json.contains("\"sat_minimized_lits\": 9"));
        assert!(json.contains("\"sat_restarts\": 2"));
    }

    #[test]
    fn stats_json_reports_interruption_and_poisoning() {
        let stats = EngineStats {
            interrupted: true,
            poisoned_passes: vec!["xl".to_string(), "sat".to_string()],
            ..EngineStats::default()
        };
        let json = stats_json(&stats, "interrupted");
        assert!(json.contains("\"status\": \"interrupted\""));
        assert!(json.contains("\"interrupted\": true"));
        assert!(json.contains("\"poisoned_passes\": [\"xl\", \"sat\"]"));
    }

    #[test]
    fn timeout_parses_fractional_seconds() {
        assert_eq!(
            options(&["--anf", "a", "--timeout", "2.5"]).timeout,
            Some(2.5)
        );
        assert_eq!(options(&["--anf", "a"]).timeout, None);
    }

    #[test]
    fn timeout_rejects_nonpositive_and_garbage() {
        for bad in ["0", "-1", "nan", "inf", "soon", "1e20"] {
            assert!(
                parse(&["--anf", "a", "--timeout", bad])
                    .unwrap_err()
                    .contains("not a positive number of seconds"),
                "--timeout {bad} should be rejected"
            );
        }
    }

    #[test]
    fn anf_and_cnf_inputs_conflict() {
        let err = parse(&["--anf", "a.anf", "--cnf", "b.cnf"]).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse(&["--cnf", "b.cnf", "--cnf", "c.cnf"]).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }
}
