//! The grooming stack's benchmark: four closed-loop workloads over the
//! public APIs of the workspace crates, every output certified from
//! outside, end-to-end metrics by default and per-layer metrics with
//! `--trace 1`.
//!
//! ```text
//! grooming-benchmark --workload <plan_portfolio|plan_scale|serve_wire|churn_warm>
//!                    --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! An untraced run of a planning or warm workload splits its time over
//! three child processes of this same binary, run one after another, and
//! reports the median of their figures: identical work varies by ±10–20%
//! between processes on a shared host (heap and code placement differ per
//! process), and the median over processes narrows that. `serve_wire`
//! runs in one process: its latencies rest on per-request medians over
//! passes, and a third of the run leaves too few passes for them.

mod certify;
mod corpus;
mod layers;
mod plan;
mod run;
mod serve;
mod stats;
mod warm;

use std::process::{Command, ExitCode, Stdio};

use run::Verdict;
use stats::Metrics;

/// Child processes per untraced run of `workload` (see the crate docs).
fn children(workload: &str) -> usize {
    if workload == "serve_wire" {
        1
    } else {
        3
    }
}

const WORKLOADS: [&str; 4] = ["plan_portfolio", "plan_scale", "serve_wire", "churn_warm"];

const USAGE: &str =
    "usage: grooming-benchmark --workload <plan_portfolio|plan_scale|serve_wire|churn_warm> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child processes of an untraced run.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" if value == "0" || value == "1" => args.trace = value == "1",
            "--child" if value == "1" => args.child = true,
            "--workload" | "--trace" | "--child" => return Err(bad()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} ({} cores)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let (verdict, metrics) = if trace || args.child || children(&args.workload) == 1 {
        match args.workload.as_str() {
            "plan_portfolio" => plan::run(plan::Kind::Portfolio, seed, seconds, trace),
            "plan_scale" => plan::run(plan::Kind::Scale, seed, seconds, trace),
            "serve_wire" => serve::run(seed, seconds, trace),
            _ => warm::run(seed, seconds, trace),
        }
    } else {
        match run_children(&args) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    };
    for m in &metrics.list {
        println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        stats::result_line(
            verdict.correct(),
            verdict.attempted,
            verdict.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}

/// Runs the workload in [`children`] child processes, one after another,
/// each for an equal share of the time, and folds their results: the
/// median of every metric, the sum of the operation counts, and `correct`
/// only if every child was.
fn run_children(args: &Args) -> Result<(Verdict, Metrics), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let count = children(&args.workload);
    let mut lines = Vec::with_capacity(count);
    for _ in 0..count {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / count as f64).to_string()])
            .args(["--trace", "0", "--child", "1"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a child run: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("a child run failed ({}):\n{stdout}", out.status));
        }
        let mut child_lines: Vec<&str> = stdout.lines().collect();
        let last = child_lines.pop().unwrap_or_default().to_string();
        for line in child_lines {
            println!("child {}: {line}", lines.len() + 1);
        }
        lines.push(last);
    }
    let mut verdict = Verdict::default();
    for line in &lines {
        verdict.attempted += field::<u64>(line, "\"attempted\": ")?;
        verdict.failed += field::<u64>(line, "\"failed\": ")?;
        if !line.contains("\"correct\": true") {
            verdict.fail("a child run's outputs failed certification".into());
        }
    }
    let mut metrics = Metrics::default();
    for (name, unit) in run::END_TO_END {
        let values = lines
            .iter()
            .map(|l| field(l, &format!("\"{name}\": {{\"value\": ")))
            .collect::<Result<Vec<f64>, String>>()?;
        metrics.push(name, stats::median(&values), unit);
    }
    Ok((verdict, metrics))
}

/// The number following `key` in a result line.
fn field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String> {
    line.split_once(key)
        .and_then(|(_, rest)| rest.split([',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("child result lacks {key:?}: {line}"))
}
