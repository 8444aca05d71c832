//! Order statistics, timers, the peak-RSS probe and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail of a latency sample: the highest order statistic with at
/// least ten samples above it, with the percentile it stands for.
/// Samples of fewer than forty have no tail worth the name; the median
/// stands in and the percentile reads 50.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 40 {
        return (median(values), 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 11;
    (v[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

/// Per-operation latencies collected over whole passes of a fixed corpus:
/// `samples[i]` holds every timing of operation `i`, one per pass.
pub struct Latencies {
    samples: Vec<Vec<f64>>,
}

impl Latencies {
    pub fn new(ops: usize) -> Self {
        Latencies {
            samples: vec![Vec::new(); ops],
        }
    }

    pub fn record(&mut self, op: usize, ms: f64) {
        self.samples[op].push(ms);
    }

    /// The latest sample of operation `op`.
    pub fn last(&self, op: usize) -> f64 {
        *self.samples[op].last().expect("operation timed")
    }

    /// Each operation's median over the passes — the fixed-size corpus
    /// the p50 and tail are read from, so their sample count does not
    /// depend on how many passes fit in the run.
    pub fn per_op_medians(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect()
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds the list of metrics one run prints.
#[derive(Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
}

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.list.push(Metric { name, value, unit });
    }
}

/// The last line of a run: one JSON object with the verdict, the
/// operation counts and every metric by name and unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.list.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        let short: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail(&short), (5.0, 50.0));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.push("latency_p50_ms", 1.25, "ms");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
