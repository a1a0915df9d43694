//! Order statistics for the benchmark's reports.

/// Sorts a copy of `samples` (NaNs last).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks, or `None` when the samples cannot support it: no
/// samples at all, or — for a tail percentile above the median — fewer
/// than ten samples beyond it (p90 needs at least 100 samples, p99 at
/// least 1000).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    if p > 50.0 && (n as f64) * (1.0 - p / 100.0) < 10.0 - 1e-9 {
        return None;
    }
    let v = sorted(samples);
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The median (`None` for no samples).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// First and third quartiles with the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads reported here match the ones a reviewer computes
/// from the printed values. `None` with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let v = sorted(samples);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Run count, median and quartiles of one metric's per-pass values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub runs: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Spread {
    /// `None` for no samples; a single sample is its own quartiles.
    pub fn of(samples: &[f64]) -> Option<Spread> {
        let median = median(samples)?;
        let (q1, q3) = quartiles(samples).unwrap_or((median, median));
        Some(Spread {
            runs: samples.len(),
            median,
            q1,
            q3,
        })
    }

    /// Interquartile distance as a share of the median.
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 90.0),
            None,
            "99 samples leave 9.9 beyond p90"
        );
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 90.0).expect("100 samples support p90");
        assert!((p90 - 90.1).abs() < 1e-9, "{p90}");
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v, 50.0), Some(50.5));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_reports_relative_iqr() {
        let s = Spread::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.runs, s.median, s.q1, s.q3), (5, 3.0, 1.5, 4.5));
        assert!((s.relative_iqr() - 1.0).abs() < 1e-12);
        let one = Spread::of(&[2.0]).unwrap();
        assert_eq!((one.q1, one.q3), (2.0, 2.0));
    }
}
