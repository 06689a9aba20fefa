//! `dgnn-benchmark`: the repository's one benchmark.
//!
//! ```text
//! dgnn-benchmark --workload W --seed N --seconds S --trace 0|1   one run; what the driver calls
//! dgnn-benchmark all [--seed N] [--seconds S] [--runs R] [--out FILE]
//! dgnn-benchmark compare A.json B.json
//! ```
//!
//! A run prints every metric by name with its unit, then the outcome of
//! its checks, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod adapter;
mod catalog;
mod compare;
mod host;
mod json;
mod report;
mod spans;
mod stats;
mod suite;
mod trace_file;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  dgnn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  dgnn-benchmark all [--seed <n>] [--seconds <s>] [--runs <r>] [--out <file>]
  dgnn-benchmark compare <a.json> <b.json>
workloads: train_mem train_ooc train_dist stream_train stream_serve serve_mixed";

/// `--key value` pairs after the subcommand, and the bare arguments.
struct Args {
    flags: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Args {
            flags: Vec::new(),
            bare: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    out.flags.push((key.to_string(), value.clone()));
                }
                None => out.bare.push(a.clone()),
            }
        }
        Ok(out)
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key} {v}: not a valid value")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

/// One run of one workload in this process.
fn run_one(args: &Args) -> Result<ExitCode, String> {
    args.only(&["workload", "seed", "seconds", "trace"])?;
    let name: String = args.get("workload")?.ok_or("--workload is required")?;
    let workload = catalog::workload(&name).ok_or(format!("unknown workload {name}"))?;
    let seed: u64 = args.get("seed")?.unwrap_or(suite::DEFAULT_SEED);
    let seconds: f64 = args.get("seconds")?.unwrap_or(suite::DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: must be in (0, 60]"));
    }
    let trace = match args.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: must be 0 or 1")),
    };

    let mut outcome = workloads::run(workload.name, seed, seconds, trace);
    let line = outcome.result_line(trace);
    println!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        workload.name,
        u8::from(trace)
    );
    for (key, value) in &outcome.notes {
        println!("  size {key} = {value}");
    }
    let wanted: &[catalog::Metric] = if trace {
        &catalog::PER_LAYER
    } else {
        &catalog::END_TO_END
    };
    for m in wanted {
        let v = outcome.values.get(m.name).copied().unwrap_or(0.0);
        println!("{}", report::metric_line(m, Some(v)));
    }
    println!(
        "  checks: {} attempted, {} failed",
        outcome.checks.attempted, outcome.checks.failed
    );
    for f in &outcome.checks.failures {
        println!("  FAILED: {f}");
        // On standard error too, which is what a driver keeps of a run.
        eprintln!("dgnn-benchmark: {} seed {seed}: FAILED: {f}", workload.name);
    }
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // Before anything else: the program reads these lazily, and the
    // numbers must be those of its defaults.
    let found = host::strip_dgnn_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("all") => Args::parse(&argv[1..]).and_then(|a| suite::run_all(&a, &found)),
        Some("compare") => Args::parse(&argv[1..]).and_then(|a| compare::run(&a.bare)),
        Some(_) => Args::parse(&argv).and_then(|a| run_one(&a)),
        None => Err("no arguments".to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("dgnn-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
