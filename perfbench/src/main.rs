//! The repository's benchmark: runs one workload from a seed for a
//! fixed time, checks every result, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lowload-med --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! the full record, stamped with the machine it ran on. With
//! `--trace 0` the metrics are the end-to-end ones of `BENCHMARK.json`,
//! with `--trace 1` the per-layer ones. See `perfbench/README.md` for
//! what each metric means on each workload.

mod calib;
mod instance;
mod mix;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use gossip_sim::export::Json;
use report::{Metrics, Tally};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

/// The metric names and units `BENCHMARK.json` declares for this mode.
fn declared(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("run from the repository root: BENCHMARK.json: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let section = if trace { "per_layer" } else { "end_to_end" };
    let Some(Json::Arr(items)) = json.get(section) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    items
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: a {section} entry lacks name or unit"))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let declared = match declared(args.trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    if let Err(e) = workloads::run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &mut tally,
        &mut metrics,
    ) {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let mut produced: Vec<(String, String)> = metrics
        .entries()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let mut declared = declared;
    produced.sort();
    declared.sort();
    if produced != declared {
        eprintln!("perfbench: metrics {produced:?} do not match BENCHMARK.json {declared:?}");
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        report::record_line(&args.workload, args.seed, args.trace, &tally, &metrics)
    );
    println!("{}", report::result_line(&tally, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload serve-mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mixed", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload event-wan").is_err());
        assert!(args("--workload event-wan --seed 1 --trace 2").is_err());
        assert!(args("--workload event-wan --seed 1 --seconds 0").is_err());
        assert!(args("--workload event-wan --seed 1 --bogus 1").is_err());
    }
}
