//! The result line the benchmark prints, and the machine stamp that
//! goes with every record.

use crate::calib::Calibration;
use crate::stats;
use std::fmt::Write as _;

/// Named metrics in insertion order, each with its unit, plus latency
/// distributions that go to the record line only.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, &'static str)>,
    latencies: Vec<String>,
    /// Times and rates as measured, before calibration.
    raw: Vec<String>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.values.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.values.push((name, value, unit));
    }

    /// Puts a time measured in this run, at the calibration kernel's
    /// reference speed; the measured value goes to the record line.
    pub fn put_time(
        &mut self,
        name: &'static str,
        raw: f64,
        unit: &'static str,
        cal: &Calibration,
    ) {
        self.put_measured(name, cal.time(raw), raw, unit);
    }

    /// [`Metrics::put_time`] for a rate.
    pub fn put_rate(
        &mut self,
        name: &'static str,
        raw: f64,
        unit: &'static str,
        cal: &Calibration,
    ) {
        self.put_measured(name, cal.rate(raw), raw, unit);
    }

    /// Puts a value already converted to reference speed; the measured
    /// value goes to the record line.
    pub fn put_measured(&mut self, name: &'static str, value: f64, raw: f64, unit: &'static str) {
        self.put(name, value, unit);
        self.raw.push(format!("\"{name}\": {raw:?}"));
    }

    /// Records the calibration kernel's median for the record line, so
    /// that unscaled times of different runs can be compared.
    pub fn record_kernel(&mut self, cal: &Calibration) {
        self.raw
            .push(format!("\"kernel_ms\": {:?}", cal.kernel_ms()));
    }

    /// Records a latency distribution for the record line: its sample
    /// count, median, and tail by the [`stats::tail`] rule. Tails are
    /// not result metrics: a percentile with only ten samples beyond
    /// it moves too much from run to run to carry a bound.
    pub fn latency(&mut self, name: &str, samples_ms: &[f64]) {
        let p50 = stats::median(samples_ms).unwrap_or(0.0);
        let tail = stats::tail(samples_ms).map_or_else(
            || "null".to_string(),
            |(p, v)| format!("{{\"percentile\": {p:?}, \"ms\": {v:?}}}"),
        );
        self.latencies.push(format!(
            "{}: {{\"samples\": {}, \"p50_ms\": {p50:?}, \"tail\": {tail}}}",
            json_str(name),
            samples_ms.len()
        ));
    }

    /// `(name, unit)` of every metric, in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        self.values.iter().map(|(n, _, u)| (*n, *u))
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.values.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push('}');
        s
    }
}

/// Operation counts and the correctness verdict of one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the record line.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(what());
            }
        }
    }
}

/// The contract line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics.json()
    )
}

/// The record line printed before the result: the same numbers, plus
/// what they were measured on.
pub fn record_line(
    workload: &str,
    seed: u64,
    trace: bool,
    tally: &Tally,
    metrics: &Metrics,
) -> String {
    let notes: Vec<String> = tally.notes.iter().map(|n| json_str(n)).collect();
    format!(
        "{{\"record\": \"perfbench\", \"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \
         \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"attempted\": {}, \
         \"failed\": {}, \"failures\": [{}], \"metrics\": {}, \"latency\": {{{}}}, \"measured\": {{{}}}}}",
        json_str(workload),
        nproc(),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_commit()),
        tally.attempted,
        tally.failed,
        notes.join(", "),
        metrics.json(),
        metrics.latencies.join(", "),
        metrics.raw.join(", ")
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{refname}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        let mut t = Tally::default();
        t.check(true, String::new);
        let line = result_line(&t, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        t.check(false, || "bad".to_string());
        assert!(
            result_line(&t, &m).starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1")
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
