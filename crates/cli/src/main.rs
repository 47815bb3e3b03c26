//! The `bosphorus` binary: a thin shell around [`bosphorus_cli`].

use bosphorus_cli::{parse_args, print_stdout, run, Command, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|command| match command {
        Command::Help => print_stdout(USAGE).map(|()| 0),
        Command::Run(options) => run(&options),
    });
    match result {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}
