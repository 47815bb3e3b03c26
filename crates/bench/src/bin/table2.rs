//! Regenerates Table II of the paper (PAR-2 scores and solved counts, with
//! and without Bosphorus, for three solver configurations).
//!
//! ```text
//! cargo run --release -p bosphorus-bench --bin table2 -- \
//!     [--family all|sr|simon|bitcoin|satcomp] \
//!     [--instances N] [--timeout SECONDS] [--jobs N] [--passes LIST]
//! ```
//!
//! `--passes` drives the Bosphorus runs through a custom pipeline order
//! (e.g. `--passes elimlin,sat` to measure the table without XL).

use std::time::Duration;

use bosphorus_bench::args::{Table2Args, TABLE2_USAGE};
use bosphorus_bench::tables::{format_table2, run_table2, Table2Options};
use bosphorus_bench::RunSettings;

fn main() {
    let args = match Table2Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{TABLE2_USAGE}");
            std::process::exit(1);
        }
    };
    if args.help {
        println!("{TABLE2_USAGE}");
        return;
    }

    let mut settings = RunSettings {
        nominal_timeout: Duration::from_secs(args.timeout_secs),
        ..RunSettings::default()
    };
    if let Some(passes) = &args.passes {
        settings.bosphorus.pass_order = passes.clone();
    }
    let options = Table2Options {
        instances_per_family: args.instances,
        families: args.family,
        settings,
        jobs: args.jobs,
        ..Table2Options::default()
    };

    println!("Table II reproduction (PAR-2 in seconds, lower is better; (sat+unsat) solved)");
    println!(
        "instances per family: {}, nominal timeout: {}s, final conflict cap: {}, jobs: {}",
        options.instances_per_family,
        options.settings.nominal_timeout.as_secs(),
        options.settings.final_conflict_cap,
        options.jobs
    );
    println!(
        "pipeline: {}",
        options
            .settings
            .bosphorus
            .pass_order
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(",")
    );
    println!();

    if options.jobs > 1 {
        println!(
            "note: --jobs {} — solved counts stay deterministic, but measured \
             runtimes (and PAR-2) inflate under CPU contention; use --jobs 1 \
             for PAR-2 values comparable to a sequential baseline",
            options.jobs
        );
        println!();
    }
    let rows = run_table2(&options);
    println!("{}", format_table2(&rows));
}
