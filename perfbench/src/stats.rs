//! Sample summaries, the percentile rule, metric naming, and the result
//! line the benchmark prints last.

use std::fmt::Write as _;

/// The percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Index (into a sorted sample of `n`) of the nearest-rank percentile `p`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps an exact rank exact: 99.99% of 100 000 must not
    // round up past 99 990.
    let k = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    k.clamp(1, n.max(1)) - 1
}

/// Nearest-rank percentile `p` of an ascending sample (`NaN` when empty).
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p)]
}

/// The highest percentile of [`LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples strictly above its rank; `None` when
/// even the median does not.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .take_while(|&p| n.saturating_sub(rank(n, p) + 1) >= MIN_BEYOND)
        .last()
}

/// Summary of one timed quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The percentile [`tail_percentile`] allows (`NaN` when none).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples` (reordered in place).
    #[must_use]
    pub fn of(samples: &mut [f64]) -> Self {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let mean = if n == 0 {
            f64::NAN
        } else {
            samples.iter().sum::<f64>() / n as f64
        };
        let tail_pct = tail_percentile(n).unwrap_or(f64::NAN);
        Self {
            n,
            mean,
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
            tail_pct,
            tail: if tail_pct.is_nan() {
                f64::NAN
            } else {
                percentile(samples, tail_pct)
            },
        }
    }
}

/// Summaries over equal consecutive slices of a run's timed operations.
///
/// The run is cut, in the order its operations ran, into slices of
/// (nearly) equal count; each slice gets its own mean, p50 and p99. The
/// run reports the median of each over the slices, and the lowest
/// slice mean and p50. The host is shared, so another tenant's burst can
/// stall a stretch of the run; a burst that spans fewer than half of the
/// slices moves no median, and one that spares a single slice moves
/// neither lowest value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sliced {
    /// Operations timed.
    pub n: usize,
    /// Slices the run was cut into.
    pub slices: usize,
    /// Median of the slices' means.
    pub mean: f64,
    /// Median of the slices' medians.
    pub p50: f64,
    /// Median of the slices' 99th percentiles.
    pub p99: f64,
    /// Lowest slice mean.
    pub best_mean: f64,
    /// Lowest slice median.
    pub best_p50: f64,
}

impl Sliced {
    /// Slices `samples` (in the order they were taken) into `slices`
    /// parts, fewer when there are fewer samples.
    #[must_use]
    pub fn of(samples: &[f64], slices: usize) -> Self {
        let n = samples.len();
        let slices = slices.clamp(1, n.max(1));
        let (mut means, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..slices {
            let mut part = samples[k * n / slices..(k + 1) * n / slices].to_vec();
            let s = Summary::of(&mut part);
            means.push(s.mean);
            p50s.push(s.p50);
            p99s.push(s.p99);
        }
        Self {
            n,
            slices,
            mean: median(&means),
            p50: median(&p50s),
            p99: median(&p99s),
            best_mean: lowest(&means),
            best_p50: lowest(&p50s),
        }
    }
}

/// Smallest value of a sample (`inf` when empty).
#[must_use]
pub fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of a small sample (the set-up repetitions).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered set of metrics, printed as a table and as the JSON line.
#[derive(Debug, Default)]
pub struct Metrics {
    list: Vec<Metric>,
}

impl Metrics {
    /// Records `name` (panics on a duplicate or malformed name: both are
    /// bugs in this benchmark).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "malformed metric name {name:?}");
        assert!(valid_unit(unit), "malformed unit {unit:?} for {name}");
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.list.push(Metric { name, value, unit });
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.list.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Every recorded metric, in recording order.
    #[must_use]
    pub fn all(&self) -> &[Metric] {
        &self.list
    }

    /// Moves every metric whose name is in `names` into a new set, in
    /// the order of `names`; missing names are returned as the error.
    ///
    /// # Errors
    ///
    /// The names that were never recorded.
    pub fn select(&self, names: &[&str]) -> Result<Metrics, Vec<String>> {
        let mut out = Metrics::default();
        let mut missing = Vec::new();
        for &name in names {
            match self.list.iter().find(|m| m.name == name) {
                Some(m) if m.value.is_finite() => out.list.push(m.clone()),
                _ => missing.push(name.to_owned()),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(missing)
        }
    }
}

/// Formats a float for JSON with every digit it has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.all().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // Fewer than 20 samples leave nothing reportable.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(99_999), Some(99.9));
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond_it() {
        for n in [20, 57, 100, 101, 999, 1_000, 1_234, 10_000, 123_456] {
            let mut v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let s = Summary::of(&mut v);
            assert_eq!(s.n, n, "the sample count is reported");
            let beyond = v.iter().filter(|&&x| x > s.tail).count();
            assert!(
                beyond >= MIN_BEYOND,
                "n={n}: only {beyond} beyond p{}",
                s.tail_pct
            );
            // The next rung up would leave fewer than ten.
            if let Some(next) = LADDER.iter().find(|&&p| p > s.tail_pct) {
                let above = v.iter().filter(|&&x| x > percentile(&v, *next)).count();
                assert!(above < MIN_BEYOND, "n={n}: p{next} was also reportable");
            }
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.mean, 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_burst_in_a_minority_of_slices_moves_nothing() {
        let steady: Vec<f64> = (0..1_000).map(|i| f64::from(i % 100 + 1)).collect();
        let mut burst = steady.clone();
        // Stall every sample of slices 3 and 7 (of ten).
        for (i, v) in burst.iter_mut().enumerate() {
            if matches!(i / 100, 3 | 7) {
                *v *= 50.0;
            }
        }
        let (a, b) = (Sliced::of(&steady, 10), Sliced::of(&burst, 10));
        assert_eq!((a.n, a.slices), (1_000, 10));
        assert_eq!(a, b);
        assert_eq!((a.p50, a.p99, a.mean), (50.0, 99.0, 50.5));
        assert_eq!((a.best_p50, a.best_mean), (50.0, 50.5));
        // Fewer samples than slices: one sample per slice.
        assert_eq!(Sliced::of(&[2.0, 4.0], 10).slices, 2);
    }

    #[test]
    fn one_undisturbed_slice_sets_the_lowest_values() {
        // A slow spell over nine slices of ten moves every median but
        // not the lowest slice.
        let mut run: Vec<f64> = (0..1_000).map(|i| f64::from(i % 100 + 1)).collect();
        for (i, v) in run.iter_mut().enumerate() {
            if i / 100 != 4 {
                *v *= 2.0;
            }
        }
        let s = Sliced::of(&run, 10);
        assert_eq!((s.p50, s.mean), (100.0, 101.0));
        assert_eq!((s.best_p50, s.best_mean), (50.0, 50.5));
        assert_eq!(lowest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(lowest(&[]), f64::INFINITY);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        assert!(valid_name("setup_s"));
        assert!(valid_name("session.ns_per_load.hybrid_gap8"));
        assert!(valid_name("replay-fleet"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("loads/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("µs") && !valid_unit("") && !valid_unit("insts per s"));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("op_p50_us", 35.25, "us");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"op_p50_us\": {\"value\": 35.25, \"unit\": \"us\"}}}"
        );
        assert_eq!(m.select(&["op_p50_us"]).expect("present").all().len(), 1);
        assert_eq!(m.select(&["nope"]).unwrap_err(), vec!["nope".to_owned()]);
    }

    #[test]
    #[should_panic(expected = "malformed metric name")]
    fn malformed_names_are_refused() {
        Metrics::default().put("bad name", 1.0, "s");
    }
}
