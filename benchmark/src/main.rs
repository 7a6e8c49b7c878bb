//! GUPster's wall-clock benchmark: four workloads measured from outside
//! through the public API, end-to-end metrics from an untraced run and
//! per-layer metrics from a separate traced run. See `README.md`.
//!
//! ```text
//! gupster-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gupster-benchmark [--seed <n>] [--seconds <s>]             # whole suite
//! gupster-benchmark --repeat <N> [--seed <n>] [--seconds <s>]
//! ```

#![deny(unsafe_code)]

mod alloc;
mod fleet;
mod gen;
mod ops;
mod repeat;
mod report;
mod run;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Default `--seed` (the issue number, for want of a better one).
const DEFAULT_SEED: u64 = 11;
/// Default `--seconds`; `BENCHMARK.json` passes the same value.
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    /// Internal: build the workload's fleet once, print the seconds it
    /// took, exit (see `run::cold_setups`).
    setup_only: bool,
}

fn usage() -> String {
    let names: Vec<&str> = spec::all().iter().map(|s| s.name).collect();
    format!(
        "usage: gupster-benchmark [--workload <{}>] [--seed <n>] [--seconds <1..60>] [--trace <0|1>] [--repeat <N>]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: None,
        setup_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                spec::by_name(value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                args.workload = Some(value.clone());
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(1.0..=60.0).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--setup-only" => args.setup_only = value == "1",
            "--repeat" => args.repeat = Some(value.parse().ok().filter(|&n: &usize| n >= 1).ok_or_else(bad)?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.workload, args.repeat) {
        (Some(name), None) => {
            let spec = spec::by_name(name).expect("validated by parse_args");
            if args.setup_only {
                println!("{}", run::timed_setup(&spec).1);
                return ExitCode::SUCCESS;
            }
            let outcome = if args.trace {
                trace::run(&spec, args.seed, args.seconds)
            } else {
                run::run(&spec, args.seed, args.seconds)
            };
            match outcome {
                Ok(outcome) => {
                    outcome.print_human();
                    println!("{}", outcome.json_line());
                    outcome.gate.correct()
                }
                Err(e) => {
                    eprintln!("{e}");
                    false
                }
            }
        }
        (None, None) => repeat::suite(args.seed, args.seconds),
        (workload, Some(n)) => repeat::repeat(n, workload.as_deref(), args.seed, args.seconds),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv("--workload call_path --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload.as_deref(), a.seed, a.seconds, a.trace), (Some("call_path"), 7, 10.0, true));
        let a = parse_args(&[]).unwrap();
        assert_eq!((a.workload, a.seed, a.trace, a.repeat), (None, DEFAULT_SEED, false, None));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--repeat 0",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
