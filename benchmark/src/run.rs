//! The pieces every workload shares: repeated set-up, the closed-loop
//! pass runner, the verdict and the end-to-end metric block.

use std::time::Instant;

use crate::certify::Quality;
use crate::stats::{self, median, Latencies, Metrics};

/// Set-ups per run: at least [`MIN_SETUPS`], and more until
/// [`SETUP_BUDGET_S`] is spent, up to [`MAX_SETUPS`]; `setup_s` is their
/// median.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 49;
pub const SETUP_BUDGET_S: f64 = 0.5;

/// Runs `setup` repeatedly and keeps the last result; returns it with the
/// median set-up time in seconds. Every earlier result is handed to
/// `teardown` outside the timed region.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// The verdict of a run: operations attempted and failed, and the first
/// certification failure if any.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub error: Option<String>,
}

impl Verdict {
    /// Records a certification failure (the first one is kept).
    pub fn fail(&mut self, what: String) {
        if self.error.is_none() {
            eprintln!("check failed: {what}");
            self.error = Some(what);
        }
    }

    /// Folds a check result in, returning its value if it passed.
    pub fn check<T>(&mut self, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.error.is_none()
    }
}

/// Timings of the closed-loop phase: the per-operation latencies of every
/// pass. A pass lasts the sum of its operations' latencies, so the
/// benchmark's own bookkeeping between operations is not counted.
pub struct Passes {
    pub pass_ms: Vec<f64>,
    latency: Latencies,
    ops_per_pass: usize,
    work_per_pass: usize,
}

impl Passes {
    pub fn new(ops_per_pass: usize) -> Self {
        Passes {
            pass_ms: Vec::new(),
            latency: Latencies::new(ops_per_pass),
            ops_per_pass,
            work_per_pass: ops_per_pass,
        }
    }

    /// Counts `work` completed units per pass in the throughput (items
    /// when an operation is a request of several).
    pub fn with_work(mut self, work: usize) -> Self {
        self.work_per_pass = work;
        self
    }

    /// Records one whole pass: `times[i]` is operation `i`'s latency.
    pub fn record_pass(&mut self, times: &[f64]) {
        assert_eq!(
            times.len(),
            self.ops_per_pass,
            "a pass runs every operation"
        );
        for (i, &ms) in times.iter().enumerate() {
            self.latency.record(i, ms);
        }
        self.pass_ms.push(times.iter().sum());
    }

    /// Runs one whole pass: `op(i)` performs operation `i` and returns its
    /// latency in milliseconds.
    pub fn pass(&mut self, mut op: impl FnMut(usize) -> f64) {
        let times: Vec<f64> = (0..self.ops_per_pass).map(&mut op).collect();
        self.record_pass(&times);
    }

    /// The latest latency of operation `i`.
    pub fn last(&self, i: usize) -> f64 {
        self.latency.last(i)
    }

    pub fn attempted(&self) -> u64 {
        (self.pass_ms.len() * self.ops_per_pass) as u64
    }

    /// Completed units per second over the median whole pass.
    pub fn throughput(&self) -> f64 {
        self.work_per_pass as f64 / (median(&self.pass_ms) / 1e3)
    }

    /// Median and tail of the per-operation medians, with the tail's
    /// percentile and sample count.
    pub fn latency(&self) -> (f64, f64, f64, usize) {
        let per_op = self.latency.per_op_medians();
        let (tail, pct) = stats::tail(&per_op);
        (median(&per_op), tail, pct, per_op.len())
    }
}

/// `true` while another pass should start: always until `min` passes
/// ran, then until `seconds` have elapsed since `start`.
pub fn more(start: Instant, seconds: f64, passes: usize, min: usize) -> bool {
    passes < min || start.elapsed().as_secs_f64() < seconds
}

/// Every end-to-end metric, in print order, with its unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("sadms_per_demand", "ratio"),
    ("wavelengths_over_min", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The end-to-end metric block every workload prints.
pub fn end_to_end(setup_s: f64, passes: &Passes, quality: Quality, unit_name: &str) -> Metrics {
    let (p50, tail, pct, samples) = passes.latency();
    println!(
        "{} passes of {} {unit_name}; latency p50 {p50:.4} ms, tail p{pct:.1} {tail:.4} ms \
         over {samples} per-{unit_name} medians; {} carried demands",
        passes.pass_ms.len(),
        passes.ops_per_pass,
        quality.carried
    );
    let passes_ms: Vec<String> = passes.pass_ms.iter().map(|ms| format!("{ms:.1}")).collect();
    println!("pass times (ms): {}", passes_ms.join(" "));
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    m.push("throughput_per_s", passes.throughput(), "1/s");
    m.push("latency_p50_ms", p50, "ms");
    m.push("latency_tail_ms", tail, "ms");
    m.push("sadms_per_demand", quality.sadms_per_demand(), "ratio");
    m.push(
        "wavelengths_over_min",
        quality.wavelengths_over_min(),
        "ratio",
    );
    m.push("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    m
}
