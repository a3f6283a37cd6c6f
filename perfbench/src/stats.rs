//! The benchmark's arithmetic: percentiles, rates, load skew, the results
//! digest, and the metric-name rule. Kept free of I/O so the tests below pin
//! every formula the reported numbers rest on.

use rnuca_sim::MeasuredRun;
use rnuca_types::{Fnv64, Snap};
use std::time::Duration;

/// The `p`-th percentile (0..=100) of `values` by linear interpolation
/// between closest ranks (NumPy's default method). `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// `count` per second over `elapsed`; 0 for an empty interval.
pub fn rate(count: f64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den != 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Load skew across slices: the busiest slice's load over the mean load.
/// 1.0 is perfectly even; `n` means one slice carries everything. 0 when
/// there is no load at all.
pub fn skew(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if loads.is_empty() || total == 0 {
        return 0.0;
    }
    let max = *loads.iter().max().expect("non-empty") as f64;
    max / (total as f64 / loads.len() as f64)
}

/// FNV-64 over every field of every run, in the order given (the
/// canonical little-endian `Snap` encoding covers each field exactly).
pub fn results_digest<'a>(runs: impl IntoIterator<Item = &'a MeasuredRun>) -> u64 {
    let mut h = Fnv64::new();
    let mut buf = Vec::new();
    for run in runs {
        buf.clear();
        run.encode(&mut buf);
        h.write(&buf);
    }
    h.finish()
}

/// The digest as a JSON-safe number: its top 48 bits, which an IEEE double
/// holds exactly.
pub fn digest_hi48(digest: u64) -> f64 {
    (digest >> 16) as f64
}

/// Whether `name` is a legal metric name: non-empty, at most 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        // rank 0.9 * 3 = 2.7 -> 3 + 0.7 * (4 - 3)
        let p90 = percentile(&v, 90.0).unwrap();
        assert!((p90 - 3.7).abs() < 1e-12, "{p90}");
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn rates_and_ratios_guard_zero_denominators() {
        assert_eq!(rate(10.0, Duration::from_millis(500)), 20.0);
        assert_eq!(rate(10.0, Duration::ZERO), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn skew_is_max_over_mean() {
        assert_eq!(skew(&[5, 5, 5, 5]), 1.0);
        assert_eq!(skew(&[8, 0, 0, 0]), 4.0);
        assert_eq!(skew(&[3, 1]), 1.5);
        assert_eq!(skew(&[]), 0.0);
        assert_eq!(skew(&[0, 0]), 0.0);
    }

    #[test]
    fn digest_depends_on_every_run_and_their_order() {
        let a = MeasuredRun {
            cpi: Default::default(),
            accesses: 10,
            instructions: 20.0,
            off_chip_rate: 0.1,
            l1_to_l1_rate: 0.2,
            misclassification_rate: 0.0,
            reclassifications: 3,
        };
        let b = MeasuredRun {
            reclassifications: 4,
            ..a
        };
        assert_eq!(results_digest([&a, &b]), results_digest([&a, &b]));
        assert_ne!(results_digest([&a, &b]), results_digest([&b, &a]));
        assert_ne!(results_digest([&a, &a]), results_digest([&a, &b]));
        let d = results_digest([&a]);
        assert_eq!(digest_hi48(d), (d >> 16) as f64);
        assert!(digest_hi48(u64::MAX) < 2f64.powi(53));
    }

    #[test]
    fn metric_name_rule() {
        for ok in [
            "design_refs_per_s",
            "cache.probe_fill_ns",
            "span.warm.self_s",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "has space",
            "_lead",
            ".lead",
            "slash/no",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
