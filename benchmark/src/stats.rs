//! Order statistics over the benchmark's own samples.

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// First quartile, median and third quartile of `v`, by linear
/// interpolation between closest ranks.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    assert!(!v.is_empty(), "no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Percentiles of a set of durations (any unit), nearest-rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tail {
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// The highest percentile that still has at least ten samples beyond
    /// it (as a percentage), and its value; equals the median when there
    /// are too few samples for anything higher.
    pub top: (f64, u64),
}

impl Tail {
    /// Sorts `samples` in place and reads the percentiles; all zero for
    /// an empty set (a layer the workload never called).
    pub fn of(samples: &mut [u64]) -> Tail {
        if samples.is_empty() {
            return Tail::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let rank = |p: f64| samples[((p * n as f64).ceil() as usize).clamp(1, n) - 1];
        let top_p = if n > 20 { 1.0 - 10.0 / n as f64 } else { 0.5 };
        Tail {
            p50: rank(0.5),
            p99: rank(0.99),
            p999: rank(0.999),
            top: (top_p * 100.0, rank(top_p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let (q1, q2, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_top() {
        let mut v: Vec<u64> = (1..=1000).collect();
        let t = Tail::of(&mut v);
        assert_eq!(t.p50, 500);
        assert_eq!(t.p99, 990);
        assert_eq!(t.top, (99.0, 990));
        assert_eq!(Tail::of(&mut []).p50, 0);
    }
}
