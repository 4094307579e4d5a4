//! Result plumbing: the metric set, the one-line JSON result, order
//! statistics and the process's peak memory.

use std::collections::BTreeMap;

/// Named metrics with their units, printed in name order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Record `name` (overwriting an earlier value).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Names of metrics whose value is NaN or infinite (a bug in the
    /// benchmark or a broken output; counted as a failure).
    pub fn non_finite(&self) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(_, (v, _))| !v.is_finite())
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        self.values
            .iter()
            .map(|(k, (v, u))| format!("  {k:<34} {v:>18.6} {u}\n"))
            .collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(k, &(v, u))| {
                // non-finite values have no JSON spelling; they are
                // already counted as failures by the caller
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(v))
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Quantile `q` of `sorted` by linear interpolation between order
/// statistics (the "type 7" rule); 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Latency histogram: 1 ns buckets below `FINE_NS`, `COARSE_NS`-wide
/// buckets up to `LIMIT_NS`, and one overflow bucket. Small and fixed
/// in size, so every repetition keeps its own without the measured
/// loop allocating or the benchmark inflating peak memory.
#[derive(Clone)]
pub struct NsHist {
    buckets: Vec<u64>,
    count: u64,
}

impl NsHist {
    const FINE_NS: u64 = 4096;
    const COARSE_NS: u64 = 32;
    const LIMIT_NS: u64 = 1 << 16;
    const BUCKETS: usize =
        (Self::FINE_NS + (Self::LIMIT_NS - Self::FINE_NS) / Self::COARSE_NS) as usize + 1;

    pub fn new() -> Self {
        NsHist {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        let i = if ns < Self::FINE_NS {
            ns as usize
        } else if ns < Self::LIMIT_NS {
            (Self::FINE_NS + (ns - Self::FINE_NS) / Self::COARSE_NS) as usize
        } else {
            Self::BUCKETS - 1
        };
        self.buckets[i] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &NsHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// `[start, start + width)` in ns covered by bucket `b`.
    fn span(b: usize) -> (f64, f64) {
        let b = b as u64;
        if b < Self::FINE_NS {
            (b as f64, 1.0)
        } else {
            let start = Self::FINE_NS + (b - Self::FINE_NS) * Self::COARSE_NS;
            (start as f64, Self::COARSE_NS as f64)
        }
    }

    /// Quantile `q`, interpolated uniformly inside the bucket that holds
    /// it; the overflow bucket reads as `LIMIT_NS`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets[..Self::BUCKETS - 1].iter().enumerate() {
            if n > 0 && (seen + n) as f64 >= target {
                let inside = ((target - seen as f64) / n as f64).clamp(0.0, 1.0);
                let (start, width) = Self::span(b);
                return start + inside * width;
            }
            seen += n;
        }
        Self::LIMIT_NS as f64
    }
}

/// Element-wise minimum over repetitions: the fastest time each piece
/// of identical work (a chunk or block at one position of the measured
/// region) took in any repetition. Interference on a shared host comes
/// in phases of seconds and only ever slows work down, so this keeps
/// each piece from whichever repetition the interference spared.
pub fn best_per_position<'a>(rows: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for row in rows {
        if best.is_empty() {
            best = row.to_vec();
        } else {
            for (b, &v) in best.iter_mut().zip(row) {
                *b = b.min(v);
            }
        }
    }
    best
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
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
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn hist_quantiles_land_in_their_bucket() {
        let mut h = NsHist::new();
        for ns in 0..1000u64 {
            h.record(ns);
        }
        let p50 = h.quantile(0.5);
        assert!((499.0..=501.0).contains(&p50), "{p50}");
        let p99 = h.quantile(0.99);
        assert!((989.0..=991.0).contains(&p99), "{p99}");
    }

    #[test]
    fn coarse_buckets_and_merge() {
        let mut a = NsHist::new();
        let mut b = NsHist::new();
        for _ in 0..10 {
            a.record(5000);
            b.record(100);
        }
        b.record(1 << 20);
        a.merge(&b);
        assert_eq!(a.count(), 21);
        assert!(a.quantile(0.25) < 101.0);
        let p75 = a.quantile(0.75);
        assert!((4992.0..5024.0).contains(&p75), "{p75}");
        assert_eq!(a.quantile(1.0), 65536.0);
    }

    #[test]
    fn best_per_position_takes_columnwise_minimum() {
        let a = [3.0, 1.0, 5.0];
        let b = [2.0, 4.0, 6.0];
        assert_eq!(best_per_position([&a[..], &b[..]]), vec![2.0, 1.0, 5.0]);
    }

    #[test]
    fn json_line_shape() {
        let mut m = Metrics::default();
        m.set("b", 2.0, "s");
        m.set("a", 0.5, "ms");
        assert_eq!(
            m.json_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
