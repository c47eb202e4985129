//! `aeetes-benchmark` — one seeded harness for the end-to-end and per-layer
//! numbers declared in `BENCHMARK.json`. See `README.md` in this directory;
//! `run.sh` builds this binary and the released `aeetes` and invokes it.
//!
//! ```text
//! aeetes-benchmark --workload NAME --trace 0|1 [--seed N] [--seconds S]
//!                  --aeetes PATH --out DIR
//! aeetes-benchmark --summarise FILE      (the statistics of repeat.sh)
//! ```
//!
//! The last line of standard output is the result object of the contract:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod check;
mod inputs;
mod layers;
mod paths;
mod procfs;
mod run;
mod schema;
mod servectl;
mod stats;
mod summarise;
mod trace;

use run::{Report, Settings};
use std::path::PathBuf;

/// Default seed (the issue number this harness was written for).
const DEFAULT_SEED: u64 = 12;
/// Default length of a run's rounds in seconds (`run_seconds` of
/// `BENCHMARK.json`).
pub(crate) const DEFAULT_SECONDS: f64 = 20.0;

fn usage() -> String {
    let names: Vec<&str> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: aeetes-benchmark --workload <{}> --trace 0|1 [--seed N] [--seconds S] --aeetes PATH --out DIR\n       aeetes-benchmark --summarise FILE",
        names.join("|")
    )
}

struct Cli {
    settings: Settings,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = None;
    let mut aeetes = None;
    let mut out_dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--aeetes" => aeetes = Some(PathBuf::from(value()?)),
            "--out" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let name = workload.ok_or_else(usage)?;
    let spec = inputs::spec(&name).ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let aeetes = aeetes.ok_or_else(|| format!("--aeetes PATH is required\n{}", usage()))?;
    if !aeetes.is_file() {
        return Err(format!("{}: not a file (build aeetes-cli first; run.sh does)", aeetes.display()));
    }
    let out_dir = out_dir.ok_or_else(|| format!("--out DIR is required\n{}", usage()))?;
    let trace = trace.ok_or_else(|| format!("--trace 0|1 is required\n{}", usage()))?;
    Ok(Cli { settings: Settings { spec, seed, seconds, aeetes, out_dir }, trace })
}

fn print_report(settings: &Settings, trace: bool, report: &Report) {
    let schema: &[(&str, &str)] = if trace { &schema::PER_LAYER } else { &schema::END_TO_END };
    println!("# workload {} seed {} seconds {} trace {}", settings.spec.name, settings.seed, settings.seconds, u8::from(trace));
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, unit) in schema {
        if let Some(v) = report.metrics.get(name) {
            println!("{name:<48} {v:>18.4} {unit}");
        }
    }
    println!("# operations: attempted {} succeeded {} failed {}", report.attempted, report.attempted - report.failed, report.failed);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        report.metrics.to_json(schema)
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--summarise") {
        let code = match argv.get(1) {
            Some(path) => summarise::run(std::path::Path::new(path)).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                1
            }),
            None => {
                eprintln!("{}", usage());
                1
            }
        };
        std::process::exit(code);
    }
    let cli = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    match run::run(&cli.settings, cli.trace) {
        Ok(report) => {
            print_report(&cli.settings, cli.trace, &report);
            // A wrong answer is reported *and* fails the command.
            std::process::exit(i32::from(report.failed > 0));
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
