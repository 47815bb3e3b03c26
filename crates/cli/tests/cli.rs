//! End-to-end tests of the `bosphorus` binary against the sample instances
//! in `examples/instances/`.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use bosphorus::{Bosphorus, BosphorusConfig, SolveStatus};
use bosphorus_anf::{Assignment, PolynomialSystem};
use bosphorus_cnf::{CnfFormula, Lit};
use bosphorus_sat::{SolveResult, Solver, SolverConfig};

fn instance(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/instances")
        .join(name);
    path.to_str().expect("utf-8 path").to_string()
}

fn bosphorus(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bosphorus"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("utf-8 stdout")
}

fn temp_file(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("bosphorus_cli_{}_{name}", std::process::id()));
    path.to_str().expect("utf-8 path").to_string()
}

#[test]
fn worked_example_solves_with_the_paper_solution() {
    let output = bosphorus(&["--anf", &instance("worked_example.anf"), "--solve"]);
    assert_eq!(output.status.code(), Some(10), "SAT exit code");
    let text = stdout(&output);
    assert!(text.contains("s SATISFIABLE"), "stdout: {text}");
    // x1..x4 = 1, x5 = 0, x0 unused (false): v -1 2 3 4 5 -6 0.
    assert!(text.contains("v -1 2 3 4 5 -6 0"), "stdout: {text}");
}

#[test]
fn unsat_anf_reports_unsatisfiable() {
    let output = bosphorus(&["--anf", &instance("unsat.anf"), "--solve"]);
    assert_eq!(output.status.code(), Some(20), "UNSAT exit code");
    assert!(stdout(&output).contains("s UNSATISFIABLE"));
}

/// The witness of `simon_2_8.anf`: its generator's first Simon-[2,8]
/// instance at seed 7.
fn simon_2_8_witness() -> Assignment {
    use rand::SeedableRng;
    let params = bosphorus_ciphers::simon::SimonParams {
        num_plaintexts: 2,
        rounds: 8,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let generated = bosphorus_ciphers::simon::generate(params, &mut rng);
    let committed = std::fs::read_to_string(instance("simon_2_8.anf")).expect("readable");
    assert_eq!(
        PolynomialSystem::parse(&committed).expect("parses"),
        generated.system,
        "simon_2_8.anf is the generator's instance"
    );
    generated.witness
}

/// Solves `cnf`, with the ANF variables fixed to `witness` when given, and
/// checks a model against every clause.
fn solve_cnf(cnf: &CnfFormula, witness: Option<&Assignment>) -> bool {
    let mut solver = Solver::from_formula(SolverConfig::aggressive(), cnf);
    if let Some(witness) = witness {
        for v in 0..witness.len() as u32 {
            solver.add_clause([Lit::new(v, !witness.get(v))]);
        }
    }
    match solver.solve() {
        SolveResult::Sat => {
            let model = solver.model().expect("SAT implies a model");
            assert_eq!(
                cnf.evaluate(model),
                Ok(true),
                "the model satisfies the dump"
            );
            true
        }
        SolveResult::Unsat => false,
        SolveResult::Unknown => unreachable!("an uncapped solve decides"),
    }
}

/// Solves `system` through the engine, with its variables fixed to
/// `witness` when given.
fn solve_anf(mut system: PolynomialSystem, witness: Option<&Assignment>) -> bool {
    if let Some(witness) = witness {
        for v in 0..witness.len() as u32 {
            let value = if witness.get(v) { " + 1" } else { "" };
            system.push(format!("x{v}{value}").parse().expect("a unit equation"));
        }
    }
    let mut engine = Bosphorus::new(system.clone(), BosphorusConfig::default());
    match engine.solve(&SolverConfig::aggressive()) {
        SolveStatus::Sat(model) => {
            assert!(
                system.is_satisfied_by(&model),
                "the model satisfies the dump"
            );
            true
        }
        SolveStatus::Unsat => false,
        SolveStatus::Interrupted => unreachable!("no cancel token was set"),
    }
}

#[test]
fn cnfdump_output_reparses_and_stays_satisfiable() {
    // Every committed instance with its known verdict. Both dumps must
    // re-parse, and solving either gives that verdict. Simon-[2,8] takes
    // minutes to solve from scratch, so its dumps are solved with the ANF
    // variables fixed to the generator's witness: the dumps must still
    // admit it.
    let instances = [
        ("worked_example.anf", true),
        ("table1.anf", true),
        ("unsat.anf", false),
        ("simon_2_8.anf", true),
        ("small.cnf", true),
        ("unsat.cnf", false),
    ];
    for (name, satisfiable) in instances {
        let format = if name.ends_with(".cnf") {
            "--cnf"
        } else {
            "--anf"
        };
        let anf_dump = temp_file(&format!("reparse_{name}.anf"));
        let cnf_dump = temp_file(&format!("reparse_{name}.cnf"));
        let output = bosphorus(&[
            format,
            &instance(name),
            "--anfdump",
            &anf_dump,
            "--cnfdump",
            &cnf_dump,
        ]);
        assert_eq!(output.status.code(), Some(0), "{name}");
        let anf_text = std::fs::read_to_string(&anf_dump).expect("anf dump written");
        let cnf_text = std::fs::read_to_string(&cnf_dump).expect("cnf dump written");
        let _ = std::fs::remove_file(&anf_dump);
        let _ = std::fs::remove_file(&cnf_dump);
        let system = PolynomialSystem::parse(&anf_text).expect("the anf dump re-parses");
        let cnf = CnfFormula::parse_dimacs(&cnf_text).expect("the cnf dump re-parses");
        assert_eq!(cnf.to_dimacs(), cnf_text, "{name}: the cnf dump re-prints");
        let witness = (name == "simon_2_8.anf").then(simon_2_8_witness);
        assert_eq!(
            solve_cnf(&cnf, witness.as_ref()),
            satisfiable,
            "{name}: cnf dump"
        );
        assert_eq!(
            solve_anf(system, witness.as_ref()),
            satisfiable,
            "{name}: anf dump"
        );
    }
}

#[test]
fn a_contradiction_in_the_database_stays_unsat_through_the_cnf_dump() {
    // The master copy keeps the contradiction `1`, which the CNF encodes
    // as the empty clause: its dump must re-parse as unsatisfiable.
    let input = temp_file("contradiction.anf");
    let dump = temp_file("contradiction.cnf");
    std::fs::write(&input, "x0 + x1;\n1;\n").expect("input written");
    let output = bosphorus(&["--anf", &input, "--cnfdump", &dump]);
    assert_eq!(output.status.code(), Some(0));
    let output = bosphorus(&["--cnf", &dump, "--solve"]);
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&dump);
    assert_eq!(output.status.code(), Some(20), "UNSAT exit code");
}

#[test]
fn dumped_cnf_round_trips_through_the_cnf_front_end() {
    let dump = temp_file("roundtrip.cnf");
    let output = bosphorus(&["--anf", &instance("worked_example.anf"), "--cnfdump", &dump]);
    assert_eq!(output.status.code(), Some(0));
    let output = bosphorus(&["--cnf", &dump, "--solve"]);
    assert_eq!(
        output.status.code(),
        Some(10),
        "the processed CNF of a satisfiable instance stays satisfiable"
    );
    let _ = std::fs::remove_file(&dump);
}

#[test]
fn anfdump_reparses_and_is_satisfied_by_the_paper_solution() {
    let dump = temp_file("worked_example.anf");
    let output = bosphorus(&["--anf", &instance("worked_example.anf"), "--anfdump", &dump]);
    assert_eq!(output.status.code(), Some(0));
    let text = std::fs::read_to_string(&dump).expect("dump written");
    let system = PolynomialSystem::parse(&text).expect("anfdump re-parses");
    // x1..x4 = 1, x5 = 0 satisfies the simplified form.
    let solution = Assignment::from_bits([false, true, true, true, true, false]);
    assert!(system.is_satisfied_by(&solution), "dump:\n{text}");
    let _ = std::fs::remove_file(&dump);
}

#[test]
fn cnf_input_solves_and_unsat_cnf_is_detected() {
    let output = bosphorus(&["--cnf", &instance("small.cnf"), "--solve"]);
    assert_eq!(output.status.code(), Some(10));
    let output = bosphorus(&["--cnf", &instance("unsat.cnf"), "--solve"]);
    assert_eq!(output.status.code(), Some(20));
}

#[test]
fn table1_preprocesses_to_a_solution_without_solving() {
    let output = bosphorus(&["--anf", &instance("table1.anf")]);
    assert_eq!(output.status.code(), Some(0), "preprocess-only exits 0");
    let text = stdout(&output);
    assert!(
        text.contains("s SATISFIABLE"),
        "preprocessing alone decides Table I: {text}"
    );
}

#[test]
fn pass_flags_change_the_stats_json_pass_entries() {
    // Propagation leaves this chain alone and XL does not empty it, so
    // every configured pass gets its turn in the first iteration.
    let chain = temp_file("chain.anf");
    std::fs::write(&chain, "x0*x1 + x2; x1*x2 + x3;\n").expect("chain written");
    let defaults = stdout(&bosphorus(&["--anf", &chain, "--stats-json"]));
    assert!(defaults.contains("\"name\": \"xl\""), "json: {defaults}");
    assert!(defaults.contains("\"name\": \"elimlin\""));

    let reordered = stdout(&bosphorus(&[
        "--anf",
        &chain,
        "--passes",
        "elimlin,sat",
        "--stats-json",
    ]));
    assert!(
        !reordered.contains("\"name\": \"xl\""),
        "xl was disabled: {reordered}"
    );
    assert!(reordered.contains("\"name\": \"elimlin\""));
    assert!(reordered.contains("\"name\": \"sat\""));
    assert_ne!(defaults, reordered, "pass flags visibly change the stats");

    let groebner = stdout(&bosphorus(&[
        "--anf",
        &chain,
        "--passes",
        "groebner,sat",
        "--stats-json",
    ]));
    assert!(groebner.contains("\"name\": \"groebner\""), "{groebner}");
    let _ = std::fs::remove_file(&chain);
}

#[test]
fn stats_json_includes_a_per_iteration_timeline() {
    let output = bosphorus(&["--anf", &instance("worked_example.anf"), "--stats-json"]);
    assert_eq!(output.status.code(), Some(0));
    let json = stdout(&output);
    // The timeline records every pass execution chronologically: the
    // worked example is decided in iteration 1, with XL contributing the
    // first facts at a post-commit revision.
    assert!(json.contains("\"timeline\": ["), "json: {json}");
    assert!(json.contains("\"iteration\": 1"), "json: {json}");
    assert!(
        json.contains("\"pass\": \"xl\"") && json.contains("\"revision\": "),
        "json: {json}"
    );
    assert!(
        json.contains("\"skipped\": false") && json.contains("\"time_ms\": "),
        "json: {json}"
    );
    // Each entry carries the sizes its pass ran with: the default subsample
    // size M = 20 and SAT budget C = 2,000.
    assert!(
        json.contains("\"subsample_m\": 20") && json.contains("\"sat_budget\": 2000"),
        "json: {json}"
    );
    // The first timeline entry is the first configured pass (xl) and
    // carries its facts; the entry order follows execution order.
    let timeline_pos = json.find("\"timeline\"").expect("timeline present");
    let first_entry = &json[timeline_pos..];
    let xl_pos = first_entry.find("\"pass\": \"xl\"").expect("xl entry");
    let elimlin_pos = first_entry.find("\"pass\": \"elimlin\"");
    if let Some(e) = elimlin_pos {
        assert!(xl_pos < e, "xl runs before elimlin in the timeline");
    }
    // Each entry also carries the SAT conflicts it spent: none for XL, and
    // the whole budget for a SAT round on Simon-[2,8], which no round of
    // 100 conflicts decides.
    let output = bosphorus(&[
        "--anf",
        &instance("simon_2_8.anf"),
        "--passes",
        "xl,sat",
        "--max-iterations",
        "1",
        "--sat-budget",
        "100",
        "--stats-json",
    ]);
    assert_eq!(output.status.code(), Some(0));
    let json = stdout(&output);
    let entries: Vec<&str> = json
        .lines()
        .filter(|line| line.contains("\"iteration\": "))
        .collect();
    assert_eq!(entries.len(), 2, "json: {json}");
    assert!(
        entries[0].contains("\"pass\": \"xl\"") && entries[0].contains("\"sat_conflicts\": 0}"),
        "json: {json}"
    );
    assert!(
        entries[1].contains("\"pass\": \"sat\"") && entries[1].contains("\"sat_conflicts\": 100}"),
        "json: {json}"
    );
}

#[test]
fn a_final_solve_reports_its_statistics() {
    // With no loop iteration the worked example reaches the final search,
    // whose counters appear in the JSON and on the summary line.
    let output = bosphorus(&[
        "--anf",
        &instance("worked_example.anf"),
        "--max-iterations",
        "0",
        "--solve",
        "--stats-json",
    ]);
    assert_eq!(output.status.code(), Some(10));
    let json = stdout(&output);
    assert!(
        json.contains("\"final_solve\": {\"conflicts\": ")
            && json.contains("\"restarts\": ")
            && json.contains("\"time_ms\": "),
        "json: {json}"
    );
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(stderr.contains(" final_solve(conflicts="), "{stderr}");
    // The default loop decides the instance, so no final search runs.
    let output = bosphorus(&[
        "--anf",
        &instance("worked_example.anf"),
        "--solve",
        "--stats-json",
    ]);
    assert_eq!(output.status.code(), Some(10));
    assert!(stdout(&output).contains("\"final_solve\": null"));
}

#[test]
fn stats_json_carries_the_presolve_phase_split() {
    let output = bosphorus(&["--anf", &instance("worked_example.anf"), "--stats-json"]);
    assert_eq!(output.status.code(), Some(0));
    let json = stdout(&output);
    // Every pass entry carries a presolve block; the XL pass actually fed
    // rows through it (presolve is on by default).
    assert!(json.contains("\"presolve\": {"), "json: {json}");
    assert!(json.contains("\"rows_eliminated\": "), "json: {json}");
    assert!(json.contains("\"dense_core_rows\": "), "json: {json}");
    assert!(json.contains("\"components\": "), "json: {json}");
    assert!(json.contains("\"presolve_ns\": "), "json: {json}");
    assert!(json.contains("\"gauss_sweeps\": "), "json: {json}");
    assert!(
        json.contains("\"gauss_scattered_sweeps\": "),
        "json: {json}"
    );
    let xl_entry = &json[json.find("\"name\": \"xl\"").expect("xl entry")..];
    let input_rows = xl_entry
        .split("\"input_rows\": ")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse::<usize>().ok())
        .expect("input_rows field");
    assert!(input_rows > 0, "XL fed rows into the presolve: {json}");
}

#[test]
fn summary_line_times_every_pass() {
    // The one-line `c ...` summary on stderr gives each pass as
    // `name(runs=…, skips=…, facts=…, ms=…)`.
    let output = bosphorus(&[
        "--anf",
        &instance("worked_example.anf"),
        "--passes",
        "xl,elimlin,sat",
    ]);
    assert_eq!(output.status.code(), Some(0));
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    let summary = stderr
        .lines()
        .find(|l| l.starts_with("c ") && l.contains("iterations="))
        .expect("summary line");
    let passes: Vec<&str> = summary.split("(runs=").skip(1).collect();
    assert!(!passes.is_empty(), "summary: {summary}");
    for pass in passes {
        let fields = &pass[..pass.find(')').expect("closing parenthesis")];
        let ms = fields
            .split(", ms=")
            .nth(1)
            .and_then(|v| v.parse::<f64>().ok());
        assert!(ms.is_some_and(|v| v >= 0.0), "summary: {summary}");
    }
}

#[test]
fn bad_usage_exits_one_with_a_message() {
    let output = bosphorus(&["--frobnicate"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unknown argument"), "stderr: {stderr}");

    let output = bosphorus(&["--anf", "/nonexistent/definitely_missing.anf"]);
    assert_eq!(output.status.code(), Some(1));
}

#[test]
fn missing_and_unreadable_inputs_exit_one_with_a_clean_message() {
    // Missing ANF file: a named error, no panic output.
    let output = bosphorus(&["--anf", "/nonexistent/definitely_missing.anf"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("error:") && stderr.contains("cannot read ANF file"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    // Missing CNF file.
    let output = bosphorus(&["--cnf", "/nonexistent/definitely_missing.cnf"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("cannot read CNF file"), "stderr: {stderr}");

    // A file that exists but is not parseable as its claimed format.
    let garbage = temp_file("garbage.anf");
    std::fs::write(&garbage, "this is } not % anf \u{fffd}\n").expect("write");
    let output = bosphorus(&["--anf", &garbage]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("cannot parse ANF file"), "stderr: {stderr}");
    let output = bosphorus(&["--cnf", &garbage]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("cannot parse DIMACS file"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_file(&garbage);
}

#[test]
fn conflicting_and_malformed_flags_exit_one() {
    let output = bosphorus(&[
        "--anf",
        &instance("worked_example.anf"),
        "--cnf",
        &instance("small.cnf"),
    ]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("mutually exclusive"), "stderr: {stderr}");

    let output = bosphorus(&["--anf", &instance("worked_example.anf"), "--timeout", "-3"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("not a positive number of seconds"),
        "stderr: {stderr}"
    );
}

#[test]
fn generous_timeout_changes_nothing_about_a_fast_run() {
    let output = bosphorus(&[
        "--anf",
        &instance("worked_example.anf"),
        "--solve",
        "--timeout",
        "600",
        "--stats-json",
    ]);
    assert_eq!(output.status.code(), Some(10), "deadline never fires");
    let text = stdout(&output);
    assert!(text.contains("s SATISFIABLE"), "stdout: {text}");
    assert!(text.contains("\"interrupted\": false"), "stdout: {text}");
    assert!(text.contains("\"poisoned_passes\": []"), "stdout: {text}");
}

#[cfg(unix)]
#[test]
fn sigint_and_sigterm_wind_the_run_down_with_exit_30() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    for signal in ["INT", "TERM"] {
        // `--timeout 120` only guards the test against a signal that is
        // never observed; the wind-down must come long before it.
        let mut child = Command::new(env!("CARGO_BIN_EXE_bosphorus"))
            .args(["--anf", &instance("simon_2_8.anf"), "--config", "paper"])
            .args(["--stats-json", "--timeout", "120"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        // The handler is installed right after the input is read; wait for
        // that line, then give the process a moment to get there.
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        stderr.read_line(&mut line).expect("stderr is readable");
        assert!(line.starts_with("c read"), "first stderr line: {line}");
        std::thread::sleep(Duration::from_millis(500));
        let sent = Instant::now();
        let kill = Command::new("kill")
            .args(["-s", signal, &child.id().to_string()])
            .status()
            .expect("kill runs");
        assert!(kill.success(), "kill -s {signal}");
        let output = child.wait_with_output().expect("child exits");
        assert_eq!(
            output.status.code(),
            Some(30),
            "exit code after SIG{signal}"
        );
        assert!(
            sent.elapsed() < Duration::from_secs(60),
            "SIG{signal} took {:?} to wind the run down",
            sent.elapsed()
        );
        let text = stdout(&output);
        assert!(
            text.contains("\"status\": \"interrupted\""),
            "stdout: {text}"
        );
        assert!(text.contains("\"interrupted\": true"), "stdout: {text}");
    }
}

#[test]
fn help_prints_usage_and_exits_zero() {
    // `--help` is a supported flag, not an unknown-argument error: usage on
    // stdout, nothing on stderr, exit code 0 — even with other flags around.
    for args in [
        &["--help"][..],
        &["-h"][..],
        &["--anf", "x.anf", "--help"][..],
    ] {
        let output = bosphorus(args);
        assert_eq!(output.status.code(), Some(0), "exit code for {args:?}");
        let text = stdout(&output);
        assert!(
            text.contains("usage: bosphorus"),
            "stdout for {args:?}: {text}"
        );
        assert!(text.contains("--passes"), "flag list for {args:?}");
        assert!(
            output.stderr.is_empty(),
            "stderr must stay quiet for {args:?}"
        );
    }
}

#[test]
fn a_reader_that_closes_stdout_early_changes_no_exit_code() {
    // As in `bosphorus ... | head -1`, but with the read end closed before
    // the first write, so every write meets a closed pipe (EPIPE).
    let worked = instance("worked_example.anf");
    let table1 = instance("table1.anf");
    for (args, code) in [
        (vec!["--anf", &worked, "--solve", "--stats-json"], 10),
        (vec!["--anf", &table1, "--stats-json", "--anfdump", "-"], 0),
        (vec!["--help"], 0),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_bosphorus"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn dumps_of_the_committed_instances_are_pinned() {
    // (instance, FNV-1a of `--anfdump`, FNV-1a of `--cnfdump`) under the
    // default configuration. A change to propagation, the learning passes
    // or the CNF encoding that alters either dump shows up here.
    let pinned: [(&str, u64, u64); 6] = [
        (
            "worked_example.anf",
            0x2778_4e6f_43be_f416,
            0x973f_0f55_8e98_ce32,
        ),
        ("table1.anf", 0x7e7a_deb5_adbb_5c2b, 0x8e8c_0070_0200_db04),
        ("unsat.anf", 0x9677_ffd0_894c_d314, 0x1757_d44a_4c39_1f20),
        (
            "simon_2_8.anf",
            0x6a47_1308_4c1f_8c40,
            0xa8b4_7381_c712_3372,
        ),
        ("small.cnf", 0x11a5_7a07_508b_62fe, 0x741d_b120_e831_3622),
        ("unsat.cnf", 0xa32c_d416_c84e_0993, 0x57f0_1853_fe02_3e72),
    ];
    for (name, anf_hash, cnf_hash) in pinned {
        let format = if name.ends_with(".cnf") {
            "--cnf"
        } else {
            "--anf"
        };
        let anf_dump = temp_file(&format!("golden_{name}.anf"));
        let cnf_dump = temp_file(&format!("golden_{name}.cnf"));
        let output = bosphorus(&[
            format,
            &instance(name),
            "--anfdump",
            &anf_dump,
            "--cnfdump",
            &cnf_dump,
        ]);
        assert_eq!(
            output.status.code(),
            Some(0),
            "{name}: preprocess-only exit"
        );
        let anf = std::fs::read(&anf_dump).expect("anf dump written");
        let cnf = std::fs::read(&cnf_dump).expect("cnf dump written");
        let _ = std::fs::remove_file(&anf_dump);
        let _ = std::fs::remove_file(&cnf_dump);
        assert_eq!(
            (fnv1a(&anf), fnv1a(&cnf)),
            (anf_hash, cnf_hash),
            "{name}: dump hashes (anf, cnf)"
        );
    }
}
