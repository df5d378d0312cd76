//! Order statistics used by every workload: medians, nearest-rank
//! percentiles, and the tail rule that decides which percentile a sample
//! can support.

use std::time::Instant;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median wall time of `f` over `inputs`, in microseconds.
pub fn per_call_us<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = inputs
        .iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            secs(t) * 1e6
        })
        .collect();
    median(&times)
}

/// Candidate tail percentiles, lowest first.
const TAILS: [(f64, &str); 4] = [
    (0.9, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
];

/// Samples that must lie strictly beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest value with
/// at least `q·n` samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q` percentile among `n` samples. The small
/// epsilon keeps products like `0.99 * 1000` from rounding up a rank.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).min(n)
}

/// The highest candidate tail percentile with at least [`MIN_BEYOND`]
/// samples beyond it, as `(q, label)`; `None` when even p90 is unsupported.
pub fn highest_supported(n: usize) -> Option<(f64, &'static str)> {
    TAILS
        .iter()
        .rev()
        .find(|(q, _)| n > 0 && beyond(n, *q) >= MIN_BEYOND)
        .copied()
}

/// A latency sample summarised by its median and the tail rule.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// p99, when the sample supports it.
    pub p99: Option<f64>,
    /// The highest supported tail percentile `(label, value)`.
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    /// Summarises an unsorted sample.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Summary {
                n,
                p50: f64::NAN,
                p99: None,
                tail: None,
            };
        }
        let p99 = (beyond(n, 0.99) >= MIN_BEYOND).then(|| percentile(&v, 0.99));
        let tail = highest_supported(n).map(|(q, label)| (label, percentile(&v, q)));
        Summary {
            n,
            p50: percentile(&v, 0.5),
            p99,
            tail,
        }
    }

    /// One human-readable line: median, highest supported tail, count.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((label, v)) => format!(
                "n={} p50={:.4}{unit} {label}={v:.4}{unit} (highest percentile with >= {MIN_BEYOND} samples beyond)",
                self.n, self.p50
            ),
            None => format!(
                "n={} p50={:.4}{unit} (too few samples for any tail percentile)",
                self.n, self.p50
            ),
        }
    }
}

/// The run's figure from per-window figures: their lower quartile
/// (nearest rank), the least disturbed quarter of the run's time windows.
/// The host is shared, and other tenants slow this machine by up to 2x for
/// seconds at a time; a change to the program moves every window,
/// interference only some. The quartile rather than the minimum, because a
/// rare window also runs unusually fast (a lucky thread placement).
pub fn least_disturbed(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.25)
}

/// A latency sample in time order, cut into consecutive segments of at
/// least `seg` samples. Each segment's p50, p90 and p99 are taken, and the
/// run reports the least disturbed of each (see [`least_disturbed`]).
#[derive(Debug, Clone)]
pub struct Segmented {
    /// Per-segment `(p50, p90, p99)`.
    pub segments: Vec<(f64, f64, f64)>,
    /// Least disturbed segment p50.
    pub p50: f64,
    /// Least disturbed segment p90.
    pub p90: f64,
    /// Least disturbed segment p99.
    pub p99: f64,
}

impl Segmented {
    /// `None` unless there is at least one full segment. `seg` must be large
    /// enough for p99 to have ten samples beyond it.
    pub fn of(in_order: &[f64], seg: usize) -> Option<Segmented> {
        assert!(
            beyond(seg, 0.99) >= MIN_BEYOND,
            "segment of {seg} cannot support p99"
        );
        let k = in_order.len() / seg;
        if k == 0 {
            return None;
        }
        let segments: Vec<(f64, f64, f64)> = (0..k)
            .map(|i| {
                let end = if i + 1 == k {
                    in_order.len()
                } else {
                    (i + 1) * seg
                };
                let mut v = in_order[i * seg..end].to_vec();
                v.sort_by(f64::total_cmp);
                (
                    percentile(&v, 0.5),
                    percentile(&v, 0.9),
                    percentile(&v, 0.99),
                )
            })
            .collect();
        Some(Segmented {
            p50: least_disturbed(&segments.iter().map(|s| s.0).collect::<Vec<_>>()),
            p90: least_disturbed(&segments.iter().map(|s| s.1).collect::<Vec<_>>()),
            p99: least_disturbed(&segments.iter().map(|s| s.2).collect::<Vec<_>>()),
            segments,
        })
    }

    /// One human-readable line.
    pub fn describe(&self) -> String {
        format!(
            "{} segments, least disturbed p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms; per segment (p50, p90, p99): {:?}",
            self.segments.len(),
            self.p50,
            self.p90,
            self.p99,
            self.segments
                .iter()
                .map(|&(a, b, c)| [a, b, c].map(|x| (x * 1e3).round() / 1e3))
                .collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 999 samples leaves 9 beyond it; of 1000 samples, 10.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(highest_supported(999).map(|t| t.1), Some("p90"));
        assert_eq!(highest_supported(1000).map(|t| t.1), Some("p99"));
        assert_eq!(highest_supported(9_999).map(|t| t.1), Some("p99"));
        assert_eq!(highest_supported(10_000).map(|t| t.1), Some("p99.9"));
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100).map(|t| t.1), Some("p90"));
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn summary_reports_p99_only_when_supported() {
        let small: Vec<f64> = (0..500).map(f64::from).collect();
        let s = Summary::of(&small);
        assert_eq!(s.n, 500);
        assert!(s.p99.is_none());
        assert_eq!(s.tail.map(|t| t.0), Some("p90"));
        assert!(s.describe("ms").contains("n=500"));

        let big: Vec<f64> = (0..2000).map(f64::from).collect();
        let s = Summary::of(&big);
        assert_eq!(s.p99, Some(1979.0));
        assert_eq!(s.tail.map(|t| t.0), Some("p99"));
    }

    #[test]
    fn segments_report_the_least_disturbed_segment() {
        // Four segments of 1000; one of them hit by a stall.
        let mut v: Vec<f64> = Vec::new();
        for seg in 0..4 {
            for i in 0..1000 {
                v.push(if seg == 2 { 100.0 } else { (i % 100) as f64 });
            }
        }
        v.extend([1.0; 500]); // the remainder joins the last segment
        let s = Segmented::of(&v, 1000).expect("four segments");
        assert_eq!(s.segments.len(), 4);
        assert_eq!(s.segments[0], (49.0, 89.0, 98.0));
        assert_eq!(s.segments[2], (100.0, 100.0, 100.0));
        assert_eq!(s.segments[3], (24.0, 84.0, 98.0));
        assert_eq!((s.p50, s.p90, s.p99), (24.0, 84.0, 98.0));
        assert!(Segmented::of(&v[..999], 1000).is_none());
        assert_eq!(least_disturbed(&[5.0, 1.5, 3.0]), 1.5);
        assert_eq!(
            least_disturbed(&[5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 8.0, 7.0]),
            2.0
        );
        assert!(least_disturbed(&[]).is_nan());
    }
}
