//! Small numeric helpers shared by the run, trace and self-check modes.

use std::time::Instant;

use hm_common::metrics::Histogram;

/// Order-sensitive 64-bit combiner for virtual-result fingerprints (the
/// same splitmix step `bench_sim_core` uses, so the two read alike).
pub fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 31)
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Host time of the last quarter of the stamped ops over that of the first
/// quarter: above 1 when an op costs more the more ops came before it.
pub fn growth_ratio(stamps: &[Instant]) -> f64 {
    let quarter = stamps.len() / 4;
    if quarter == 0 {
        return 0.0;
    }
    let last = stamps.len() - 1;
    let head = (stamps[quarter] - stamps[0]).as_secs_f64();
    let tail = (stamps[last] - stamps[last - quarter]).as_secs_f64();
    tail / head.max(f64::MIN_POSITIVE)
}

/// Peak resident set size of this process in MB (`VmHWM`, the same
/// high-water mark `ru_maxrss` reports), read without a libc dependency.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How many of the histogram's samples are at or below `limit_ns`, to the
/// histogram's bucket resolution (binary search over ranks).
pub fn count_at_or_below(h: &Histogram, limit_ns: u64) -> u64 {
    let n = h.count();
    let at_rank = |r: u64| h.quantile_ns(r as f64 / n as f64).unwrap_or(u64::MAX);
    if n == 0 || h.quantile_ns(0.0).unwrap_or(u64::MAX) > limit_ns {
        return 0;
    }
    if h.quantile_ns(1.0).unwrap_or(u64::MAX) <= limit_ns {
        return n;
    }
    // Invariant: rank `lo` is at or below the limit, rank `hi` is above.
    let (mut lo, mut hi) = (0u64, n);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if mid == 0 || at_rank(mid) <= limit_ns {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The `q`-quantile in milliseconds, interpolated inside its bucket.
///
/// `Histogram::quantile_ns` answers with a bucket midpoint, so across
/// seeds it either repeats exactly or jumps a whole bucket (1.6 %). Here
/// the bucket's share of the ranks places the answer between the previous
/// occupied bucket's midpoint and this one's, which keeps every digit the
/// samples carry and stays a pure function of the histogram.
pub fn quantile_ms(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let at_rank = |r: u64| h.quantile_ns(r.max(1) as f64 / n as f64).unwrap_or(0);
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    let value = at_rank(target);
    // First and last rank that share the target's bucket.
    let (mut lo, mut hi) = (1u64, target);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if at_rank(mid) < value {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (target, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if at_rank(mid) > value {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let below = if first > 1 { at_rank(first - 1) } else { value };
    let share = (target - first + 1) as f64 / (last - first + 1) as f64;
    (below as f64 + share * (value - below) as f64) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn interpolated_quantile_tracks_the_samples() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(Duration::from_micros(20_000 + i));
        }
        let p50 = quantile_ms(&h, 0.5);
        assert!((p50 - 25.0).abs() < 0.25, "p50 {p50}");
        assert_eq!(count_at_or_below(&h, 40_000_000), 10_000);
        assert_eq!(count_at_or_below(&h, 1_000), 0);
        let half = count_at_or_below(&h, 25_000_000);
        assert!((4_500..=5_500).contains(&half), "half {half}");
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
