//! Small measurement helpers: quantiles, the tail-percentile rule, metric
//! sets and their name check, and the process's peak resident memory.

/// Percentiles the benchmark may report as a tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 80.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank quantile `q` (0–1) of an ascending slice; `None` when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps binary rounding of `q` (99.9 / 100 is a hair above
    // 0.999) from pushing an exact rank up by one.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of unsorted samples; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The highest percentile on the reporting ladder that has at least
/// [`TAIL_SAMPLES_BEYOND`] of `n` samples beyond its nearest rank, so a
/// tail is never read off a handful of values. `None` when even the
/// median has fewer than that beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= TAIL_SAMPLES_BEYOND && n - rank(n, p / 100.0) >= TAIL_SAMPLES_BEYOND)
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters, all of them letters, digits, `_`, `.` or `-`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An ordered set of named metrics with units.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Looks a recorded value up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|&(_, v, _)| v)
    }

    /// The entries, in recording order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.0
    }

    /// Names that break [`valid_metric_name`] or occur twice.
    pub fn bad_names(&self) -> Vec<String> {
        let mut seen = std::collections::BTreeSet::new();
        self.0
            .iter()
            .filter(|(n, ..)| !valid_metric_name(n) || !seen.insert(n.as_str()))
            .map(|(n, ..)| n.clone())
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (JSON has no NaN or infinity; those become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(5.0));
        assert_eq!(quantile(&v, 0.8), Some(8.0));
        assert_eq!(quantile(&v, 1.0), Some(10.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Too few samples for any tail.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: the median (rank 10) has 10 beyond it, p80 only 4.
        assert_eq!(tail_percentile(20), Some(50.0));
        // ~51 seals per stream pass: p80 (rank 41) has exactly 10 beyond,
        // p90 (rank 46) only 5.
        assert_eq!(tail_percentile(50), Some(80.0));
        assert_eq!(tail_percentile(51), Some(80.0));
        assert_eq!(tail_percentile(99), Some(80.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The rule itself, over a range of sizes.
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, p / 100.0) >= TAIL_SAMPLES_BEYOND, "n={n} p={p}");
            if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&q| q > p) {
                assert!(n - rank(n, higher / 100.0) < TAIL_SAMPLES_BEYOND, "n={n}");
            }
        }
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "setup_s",
            "rel.join.calls",
            "core.stream.seal_lag-p80",
            "9lives",
            "a",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".dot",
            "-dash",
            "has space",
            "µs",
            "a/b",
            "a:b",
            &long,
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));

        let mut m = Metrics::default();
        m.put("ok.name", 1.0, "s");
        m.put("bad name", 2.0, "s");
        m.put("ok.name", 3.0, "s");
        assert_eq!(
            m.bad_names(),
            vec!["bad name".to_owned(), "ok.name".to_owned()]
        );
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.put("work_s", 1.25, "s");
        m.put("nan", f64::NAN, "count");
        assert_eq!(
            m.to_json(),
            r#"{"work_s": {"value": 1.25, "unit": "s"}, "nan": {"value": 0.0, "unit": "count"}}"#
        );
        assert_eq!(m.get("work_s"), Some(1.25));
    }
}
