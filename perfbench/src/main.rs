//! End-to-end benchmark of the Bosphorus reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <loop-simon28|table2-mix|small-mix> --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! A run generates the workload's instances from the seed (the set-up), then
//! runs the whole job list sequentially, again while another repetition fits
//! into `--seconds`, and at least twice. Times are CPU times of the thread
//! that runs the jobs, scaled to a nominal host speed by [`speed`]. Every
//! answer is checked, and the counts each job reports must repeat exactly
//! between repetitions. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer split with `--trace 1`. `--smoke` runs a
//! reduced-size variant of every workload, traced, and reports whether all
//! answers were correct. `perfbench/README.md` describes the workloads and
//! the metrics.

mod jobs;
mod speed;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::jobs::{Outcome, Verdict};
use crate::speed::Speedometer;
use crate::trace::{cpu_timed, timed};
use crate::workloads::{Arm, Workload, WORKLOADS};

/// PAR-2's nominal timeout (`RunSettings::nominal_timeout` of the Table II
/// harness).
const NOMINAL_TIMEOUT_S: f64 = 5.0;
/// Untimed set-ups a run makes first, so that the heap and caches are warm.
const SETUP_WARMUP: usize = 3;
/// Timed set-ups a run makes at least, and the CPU seconds they take at
/// least; `setup_s` is their median.
const SETUP_REPS: usize = 31;
const SETUP_SECONDS: f64 = 1.0;
/// Repetitions of the job list a run makes at least, so that the counts can
/// be compared.
const MIN_BATCHES: usize = 2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()? as f64,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_none() && !args.smoke {
        return Err(format!(
            "--workload is required (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.smoke {
            smoke(args.seed)
        } else {
            let name = args.workload.as_deref().expect("checked in parse_args");
            measure(name, args.seed, args.seconds, args.trace)
        }
    });
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// The final line of output.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sums over the jobs of one batch, by name.
#[derive(Default)]
struct Sums(BTreeMap<String, f64>);

impl Sums {
    fn add(&mut self, key: impl Into<String>, value: f64) {
        *self.0.entry(key.into()).or_default() += value;
    }

    fn max(&mut self, key: &str, value: f64) {
        let entry = self.0.entry(key.to_string()).or_default();
        *entry = entry.max(value);
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// One pass over the workload's job list.
#[derive(Default)]
struct Batch {
    /// Untraced wall time of every job, in job order.
    job_walls: Vec<f64>,
    /// Untraced CPU time of every job, in job order.
    job_cpus: Vec<f64>,
    /// Scales the batch's CPU times to the nominal host speed.
    scale: f64,
    fingerprints: Vec<[u64; 5]>,
    attempted: usize,
    failed: usize,
    /// Job-level sums (PAR-2, solved counts) and, when traced, the layers.
    sums: Sums,
}

fn secs(duration: Duration) -> f64 {
    duration.as_secs_f64()
}

fn run_batch(workload: &Workload, traced: bool) -> Result<Batch, String> {
    let mut batch = Batch::default();
    for &(index, arm) in &workload.jobs {
        let instance = &workload.instances[index];
        let plain = jobs::run(instance, arm, false)?;
        let (checked, check_time) = timed(|| jobs::check(instance, &plain));
        batch.attempted += 1;
        if let Err(message) = checked {
            batch.failed += 1;
            eprintln!("perfbench: {} ({arm:?}): {message}", instance.family);
        }
        batch.job_walls.push(secs(plain.wall));
        batch.job_cpus.push(secs(plain.cpu));
        batch.fingerprints.push(plain.fingerprint());
        add_job(&mut batch.sums, arm, &plain);
        if traced {
            let traced = jobs::run(instance, arm, true)?;
            let same = traced.verdict == plain.verdict && traced.facts == plain.facts;
            if !same {
                batch.failed += 1;
                eprintln!(
                    "perfbench: {} ({arm:?}): the timed pipeline disagrees with a plain preprocess",
                    instance.family
                );
            }
            batch.sums.add("check", secs(check_time));
            batch.sums.add("untraced.wall", secs(plain.wall));
            add_layers(&mut batch.sums, &traced);
        }
    }
    Ok(batch)
}

/// PAR-2 and solved counts of one job.
fn add_job(sums: &mut Sums, arm: Arm, outcome: &Outcome) {
    let key = match arm {
        Arm::Direct => "par2.direct",
        Arm::With => "par2.with",
        Arm::Preprocess => return,
    };
    let decided = outcome.verdict.decided();
    let score = if decided {
        secs(outcome.wall).min(NOMINAL_TIMEOUT_S)
    } else {
        2.0 * NOMINAL_TIMEOUT_S
    };
    sums.add(key, score);
    sums.add("solve.jobs", 1.0);
    sums.add("solve.decided", f64::from(u8::from(decided)));
}

/// The per-layer sums of one traced job.
fn add_layers(sums: &mut Sums, outcome: &Outcome) {
    let layers = &outcome.layers;
    sums.add("trace.wall", secs(outcome.wall));
    sums.add("anf.parse", secs(layers.anf_parse));
    sums.add("cnf.parse", secs(layers.cnf_parse));
    sums.add("core.cnf_to_anf", secs(layers.cnf_to_anf));
    sums.add("core.anf_to_cnf", secs(layers.anf_to_cnf));
    sums.add("core.preprocess", secs(layers.preprocess));
    sums.add("sat.solve", secs(layers.sat_solve));
    sums.add("core.anf_to_cnf.clauses", outcome.cnf_clauses as f64);
    sums.add("core.anf_to_cnf.vars", outcome.cnf_vars as f64);

    let mut in_passes = 0.0;
    for span in &outcome.passes {
        let time = secs(span.time);
        in_passes += time;
        // The in-loop SAT pass, distinct from the final solve (`sat.*`).
        let layer = match span.pass {
            "sat" => "core.sat_pass".to_string(),
            name => format!("core.{name}"),
        };
        sums.add(format!("{layer}.runs"), 1.0);
        sums.add(format!("{layer}.facts"), span.added as f64);
        sums.add(
            format!("{layer}.productive"),
            f64::from(u8::from(span.added > 0)),
        );
        sums.add(format!("{layer}.conflicts"), span.conflicts as f64);
        sums.add(layer, time);
    }
    sums.add("core.driver_self", secs(layers.preprocess) - in_passes);
    // The warm solver's throughput across the loop: first against last SAT
    // round of every job that ran at least two.
    let sat_rounds: Vec<_> = outcome.passes.iter().filter(|s| s.pass == "sat").collect();
    if let [first, .., last] = sat_rounds.as_slice() {
        sums.add("sat_pass.first.conflicts", first.conflicts as f64);
        sums.add("sat_pass.first.s", secs(first.time));
        sums.add("sat_pass.last.conflicts", last.conflicts as f64);
        sums.add("sat_pass.last.s", secs(last.time));
    }

    if let Some(engine) = &outcome.engine {
        sums.add("core.iterations", engine.iterations as f64);
        sums.add("core.facts", outcome.facts.len() as f64);
        sums.add("anf.propagate.values", engine.propagated_assignments as f64);
        sums.add(
            "anf.propagate.equivalences",
            engine.propagated_equivalences as f64,
        );
        for pass in &engine.passes {
            let presolve = &pass.presolve;
            sums.add("gf2.presolve", presolve.presolve_ns as f64 * 1e-9);
            sums.add("gf2.rows_eliminated", presolve.rows_eliminated as f64);
            sums.add("gf2.dense_core_rows", presolve.dense_rows as f64);
            sums.max("gf2.peak_interned_rows", presolve.peak_interned_rows as f64);
            sums.add("gf2.row_xors", pass.gauss.row_xors as f64);
        }
    }
    if let Some(sat) = &outcome.sat {
        sums.add("sat.conflicts", sat.conflicts as f64);
        sums.add("sat.propagations", sat.propagations as f64);
        sums.add(
            "sat.capped",
            f64::from(u8::from(outcome.verdict == Verdict::Capped)),
        );
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Generates the workload [`SETUP_WARMUP`] times untimed, then at least
/// [`SETUP_REPS`] times and for at least [`SETUP_SECONDS`] of CPU time, and
/// returns it with the median CPU time of the timed set-ups. Every
/// repetition must produce the same inputs. The smoke mode sets up once.
fn set_up(
    name: &str,
    seed: u64,
    smoke: bool,
    speed: &Speedometer,
) -> Result<(Workload, f64), String> {
    let (warmup, reps, seconds) = if smoke {
        (0, 1, 0.0)
    } else {
        (SETUP_WARMUP, SETUP_REPS, SETUP_SECONDS)
    };
    let mut times = Vec::new();
    let mut kept: Option<(Workload, Vec<u8>)> = None;
    let mut from = speed.now();
    for rep in 0.. {
        if times.len() >= reps && times.iter().sum::<f64>() >= seconds {
            break;
        }
        if rep == warmup {
            from = speed.now();
        }
        let (workload, time) = cpu_timed(|| workloads::generate(name, seed, smoke));
        let workload = workload?;
        if rep >= warmup {
            times.push(secs(time));
        }
        let digest = workload.digest();
        match &kept {
            Some((_, first)) if *first != digest => {
                return Err(format!("{name}: seed {seed} generated different inputs"))
            }
            Some(_) => {}
            None => kept = Some((workload, digest)),
        }
    }
    let (workload, _) = kept.expect("at least one set-up ran");
    Ok((workload, median(&times) * speed.scale(from, speed.now())))
}

/// Runs at least [`MIN_BATCHES`] batches, and more while another one fits
/// into `seconds`, then checks that the counts repeated.
fn run_batches(
    name: &str,
    workload: &Workload,
    seconds: f64,
    traced: bool,
    speed: &Speedometer,
) -> Result<Vec<Batch>, String> {
    let started = Instant::now();
    let mut batches = Vec::new();
    let mut last = 0.0;
    while batches.len() < MIN_BATCHES || secs(started.elapsed()) + last <= seconds {
        let from = speed.now();
        let (batch, time) = timed(|| run_batch(workload, traced));
        let mut batch = batch?;
        batch.scale = speed.scale(from, speed.now());
        batches.push(batch);
        last = secs(time);
    }
    let first = batches[0].fingerprints.clone();
    for batch in &mut batches[1..] {
        let differing = first
            .iter()
            .zip(&batch.fingerprints)
            .filter(|(a, b)| a != b)
            .count();
        if differing > 0 {
            eprintln!("perfbench: {name}: {differing} jobs reported different counts on a repeat");
            batch.failed += differing;
        }
    }
    Ok(batches)
}

/// The CPU time of one batch at the nominal host speed, median over the
/// batches.
fn scaled_cpu(batches: &[Batch]) -> f64 {
    let scaled: Vec<f64> = batches
        .iter()
        .map(|b| b.job_cpus.iter().sum::<f64>() * b.scale)
        .collect();
    median(&scaled)
}

/// Per-batch means of the sums (the counts are identical in every batch).
fn batch_means(batches: &[Batch]) -> Sums {
    let mut mean = Sums::default();
    for batch in batches {
        for (key, value) in &batch.sums.0 {
            mean.add(key.as_str(), value / batches.len() as f64);
        }
    }
    mean
}

fn measure(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let speed = Speedometer::start()?;
    let (workload, setup_s) = set_up(name, seed, false, &speed)?;
    let batches = run_batches(name, &workload, seconds, traced, &speed)?;
    let attempted = batches.iter().map(|b| b.attempted).sum();
    let failed: usize = batches.iter().map(|b| b.failed).sum();
    let job_walls: Vec<f64> = batches.iter().flat_map(|b| b.job_walls.clone()).collect();
    let mean = batch_means(&batches);
    summarize(name, seed, &workload, &batches, &mean);
    let failed = failed + uncovered(name, traced, &mean);
    let metrics = if traced {
        per_layer(&mean, &job_walls)
    } else {
        vec![
            ("setup_s".to_string(), setup_s, "s"),
            ("cpu_s".to_string(), scaled_cpu(&batches), "s"),
            ("peak_rss_mb".to_string(), peak_rss_mb()?, "MB"),
        ]
    };
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// 1 when a traced run's spans cover less than [`MIN_COVERAGE`] of the job
/// wall, else 0.
fn uncovered(name: &str, traced: bool, mean: &Sums) -> usize {
    let share = coverage(mean);
    if traced && share < MIN_COVERAGE {
        eprintln!("perfbench: {name}: the spans cover only {share:.3} of the job wall");
        1
    } else {
        0
    }
}

/// A human-readable account of the run on standard error.
fn summarize(name: &str, seed: u64, workload: &Workload, batches: &[Batch], mean: &Sums) {
    let sums = |times: fn(&Batch) -> &Vec<f64>| -> String {
        let sums: Vec<String> = batches
            .iter()
            .map(|b| format!("{:.3}", times(b).iter().sum::<f64>()))
            .collect();
        sums.join(", ")
    };
    eprintln!(
        "{name} seed {seed}: {} instances, {} jobs, {} batches, batch CPU [{}] s, batch walls [{}] s",
        workload.instances.len(),
        workload.jobs.len(),
        batches.len(),
        sums(|b| &b.job_cpus),
        sums(|b| &b.job_walls),
    );
    let scales: Vec<String> = batches.iter().map(|b| format!("{:.3}", b.scale)).collect();
    eprintln!("  speed scale [{}]", scales.join(", "));
    let mut families: BTreeMap<(&str, String), (usize, f64)> = BTreeMap::new();
    for (&(index, arm), wall) in workload.jobs.iter().zip(&batches[0].job_walls) {
        let entry = families
            .entry((
                workload.instances[index].family.as_str(),
                format!("{arm:?}"),
            ))
            .or_default();
        entry.0 += 1;
        entry.1 += wall;
    }
    for ((family, arm), (jobs, wall)) in families {
        eprintln!("  {family} {arm}: {jobs} jobs, {wall:.3} s");
    }
    let counts = batches[0]
        .fingerprints
        .iter()
        .fold([0u64; 5], |mut acc, f| {
            for (a, b) in acc.iter_mut().zip(f) {
                *a += b;
            }
            acc
        });
    eprintln!(
        "  counts: iterations {} facts {} loop conflicts {} final conflicts {}; decided {}/{}; PAR-2 w {:.3} s, w/o {:.3} s",
        counts[1],
        counts[2],
        counts[3],
        counts[4],
        mean.get("solve.decided"),
        mean.get("solve.jobs"),
        mean.get("par2.with"),
        mean.get("par2.direct"),
    );
}

/// Runs the reduced-size variant of every workload: two traced batches each,
/// with every answer and count checked.
fn smoke(seed: u64) -> Result<Report, String> {
    let mut report = Report {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for name in WORKLOADS {
        let speed = Speedometer::start()?;
        let (workload, setup_s) = set_up(name, seed, true, &speed)?;
        let batches = run_batches(name, &workload, 0.0, true, &speed)?;
        let mean = batch_means(&batches);
        summarize(name, seed, &workload, &batches, &mean);
        report.attempted += batches.iter().map(|b| b.attempted).sum::<usize>();
        report.failed += batches.iter().map(|b| b.failed).sum::<usize>();
        report.failed += uncovered(name, true, &mean);
        report
            .metrics
            .push((format!("{name}.setup_s"), setup_s, "s"));
        report
            .metrics
            .push((format!("{name}.cpu_s"), scaled_cpu(&batches), "s"));
    }
    Ok(report)
}

/// Minimum share of the traced job wall the spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// Share of the traced job wall covered by the layer spans. Preprocessing
/// splits without remainder into the pass spans and the driver's self time,
/// so the top-level spans add up to the same total as the leaf self times.
fn coverage(m: &Sums) -> f64 {
    let covered: f64 = [
        "anf.parse",
        "cnf.parse",
        "core.cnf_to_anf",
        "core.anf_to_cnf",
        "core.preprocess",
        "sat.solve",
    ]
    .iter()
    .map(|key| m.get(key))
    .sum();
    ratio(covered, m.get("trace.wall"))
}

/// The per-layer metrics of a traced run, from the per-batch means.
fn per_layer(m: &Sums, job_walls: &[f64]) -> Vec<(String, f64, &'static str)> {
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    // Layers every workload enters: seconds per batch.
    for key in [
        "anf.parse",
        "core.preprocess",
        "core.driver_self",
        "core.xl",
        "core.elimlin",
        "core.sat_pass",
        "gf2.presolve",
        "check",
        "untraced.wall",
        "trace.wall",
    ] {
        metrics.push((format!("{key}_s"), m.get(key), "s"));
    }
    // Layers some workload never enters, as shares of the traced job wall:
    // where a layer is absent its share reads 0.
    let wall = m.get("trace.wall");
    for key in [
        "cnf.parse",
        "core.cnf_to_anf",
        "core.anf_to_cnf",
        "sat.solve",
    ] {
        metrics.push((format!("{key}_frac"), ratio(m.get(key), wall), "frac"));
    }
    for key in [
        "core.iterations",
        "core.facts",
        "core.sat_pass.conflicts",
        "core.sat_pass.facts",
        "core.xl.runs",
        "core.xl.facts",
        "core.elimlin.runs",
        "core.elimlin.facts",
        "gf2.rows_eliminated",
        "gf2.dense_core_rows",
        "gf2.peak_interned_rows",
        "gf2.row_xors",
        "anf.propagate.values",
        "anf.propagate.equivalences",
        "core.anf_to_cnf.clauses",
        "core.anf_to_cnf.vars",
        "sat.conflicts",
        "sat.propagations",
        "sat.capped",
    ] {
        metrics.push((key.to_string(), m.get(key), "count"));
    }
    let first_rate = ratio(m.get("sat_pass.first.conflicts"), m.get("sat_pass.first.s"));
    let last_rate = ratio(m.get("sat_pass.last.conflicts"), m.get("sat_pass.last.s"));
    let derived = [
        (
            "core.sat_pass.conflicts_per_s",
            ratio(m.get("core.sat_pass.conflicts"), m.get("core.sat_pass")),
            "1/s",
        ),
        (
            "core.sat_pass.yield",
            ratio(
                m.get("core.sat_pass.facts"),
                m.get("core.sat_pass.conflicts"),
            ),
            "facts/conflict",
        ),
        (
            "core.sat_pass.last_over_first_rate",
            ratio(last_rate, first_rate),
            "x",
        ),
        (
            "core.xl.yield",
            ratio(m.get("core.xl.productive"), m.get("core.xl.runs")),
            "frac",
        ),
        (
            "core.elimlin.yield",
            ratio(m.get("core.elimlin.productive"), m.get("core.elimlin.runs")),
            "frac",
        ),
        (
            "sat.conflicts_per_s",
            ratio(m.get("sat.conflicts"), m.get("sat.solve")),
            "1/s",
        ),
        (
            "sat.propagations_per_s",
            ratio(m.get("sat.propagations"), m.get("sat.solve")),
            "1/s",
        ),
        (
            "solved_frac",
            ratio(m.get("solve.decided"), m.get("solve.jobs")),
            "frac",
        ),
        (
            "par2_ratio",
            ratio(m.get("par2.direct"), m.get("par2.with")),
            "x",
        ),
        ("job_p50_s", median(job_walls), "s"),
        ("job_p90_s", percentile(job_walls, 0.9), "s"),
        ("trace.coverage", coverage(m), "frac"),
        ("trace.overhead", ratio(wall, m.get("untraced.wall")), "x"),
    ];
    for (name, value, unit) in derived {
        metrics.push((name.to_string(), value, unit));
    }
    metrics
}
