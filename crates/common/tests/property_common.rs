//! Property-based tests of the shared primitives: histogram quantile
//! accuracy, log-normal fitting, version-tuple ordering, Zipf support, and
//! value fingerprint stability.
//!
//! The environment has no proptest, so each property runs as a seeded-RNG
//! case loop: inputs derive from a fixed base seed plus the case index, so
//! failures reproduce exactly and every run explores the same cases.

use std::time::Duration;

use hm_common::dist::Zipf;
use hm_common::latency::LogNormalLatency;
use hm_common::metrics::{Histogram, TimeWeightedGauge};
use hm_common::{SeqNum, Value, VersionTuple};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Runs `body` for `cases` deterministic cases, handing each its own RNG.
fn for_cases(base_seed: u64, cases: u64, mut body: impl FnMut(u64, &mut SmallRng)) {
    for case in 0..cases {
        let mut rng = SmallRng::seed_from_u64(base_seed.wrapping_mul(0x9e37).wrapping_add(case));
        body(case, &mut rng);
    }
}

/// The histogram's quantiles are within its documented relative error of
/// the exact empirical quantiles, for arbitrary samples.
#[test]
fn histogram_quantiles_bounded_error() {
    for_cases(0x1157, 128, |case, rng| {
        let len = rng.random_range(1usize..200);
        let mut samples: Vec<u64> = (0..len)
            .map(|_| rng.random_range(1_000u64..10_000_000_000))
            .collect();
        let q = rng.random_range(0.01f64..0.999);
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(Duration::from_nanos(s));
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1] as f64 / 1e6;
        let got = h.quantile_ms(q).unwrap();
        let rel = (got - exact).abs() / exact;
        assert!(
            rel < 0.03,
            "case {case}: q={q} exact={exact} got={got} rel={rel}"
        );
    });
}

/// The extreme quantiles bracket the mean for arbitrary samples:
/// `quantile_ms(0.0) ≤ mean ≤ quantile_ms(1.0)`. This is only guaranteed
/// because q=0/q=1 return the exact raw extremes — bucket midpoints can
/// land on the wrong side of the mean when all samples share one bucket.
#[test]
fn histogram_extremes_bracket_mean() {
    for_cases(0x8e11, 256, |case, rng| {
        let len = rng.random_range(1usize..100);
        let mut h = Histogram::new();
        for _ in 0..len {
            h.record(Duration::from_nanos(
                rng.random_range(1_000u64..100_000_000_000),
            ));
        }
        let lo = h.quantile_ms(0.0).unwrap();
        let mean = h.mean_ms().unwrap();
        let hi = h.quantile_ms(1.0).unwrap();
        assert!(lo <= mean, "case {case}: min {lo} > mean {mean}");
        assert!(mean <= hi, "case {case}: mean {mean} > max {hi}");
        assert_eq!(Some(lo), h.min_ms(), "case {case}");
        assert_eq!(Some(hi), h.max_ms(), "case {case}");
    });
}

/// Merging two histograms equals recording all samples into one.
#[test]
fn histogram_merge_equivalence() {
    for_cases(0x3e26, 128, |case, rng| {
        let a: Vec<u64> = (0..rng.random_range(0usize..60))
            .map(|_| rng.random_range(1_000u64..1_000_000_000))
            .collect();
        let b: Vec<u64> = (0..rng.random_range(0usize..60))
            .map(|_| rng.random_range(1_000u64..1_000_000_000))
            .collect();
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hall = Histogram::new();
        for &s in &a {
            ha.record(Duration::from_nanos(s));
            hall.record(Duration::from_nanos(s));
        }
        for &s in &b {
            hb.record(Duration::from_nanos(s));
            hall.record(Duration::from_nanos(s));
        }
        ha.merge(&hb);
        assert_eq!(ha.count(), hall.count(), "case {case}");
        if ha.count() > 0 {
            assert_eq!(ha.median_ms(), hall.median_ms(), "case {case}");
            assert_eq!(ha.p99_ms(), hall.p99_ms(), "case {case}");
        }
    });
}

/// Fitting recovers the requested quantiles for any valid pair.
#[test]
fn lognormal_fit_roundtrip() {
    for_cases(0x10f1, 128, |case, rng| {
        let median = rng.random_range(0.01f64..100.0);
        let ratio = rng.random_range(1.0f64..20.0);
        let d = LogNormalLatency::fit_ms(median, median * ratio);
        assert!(
            (d.median_ms() - median).abs() / median < 1e-9,
            "case {case}: median {median} got {}",
            d.median_ms()
        );
        assert!(
            (d.p99_ms() - median * ratio).abs() / (median * ratio) < 1e-9,
            "case {case}: p99 {} want {}",
            d.p99_ms(),
            median * ratio
        );
    });
}

/// Samples are always positive and finite.
#[test]
fn lognormal_samples_positive() {
    for_cases(0x70c1, 64, |case, rng| {
        let median = rng.random_range(0.01f64..50.0);
        let ratio = rng.random_range(1.0f64..10.0);
        let seed = rng.random_range(0u64..1000);
        let d = LogNormalLatency::fit_ms(median, median * ratio);
        let mut srng = SmallRng::seed_from_u64(seed);
        for _ in 0..32 {
            let s = d.sample(&mut srng);
            assert!(s > Duration::ZERO, "case {case}");
            assert!(s < Duration::from_secs(3600), "case {case}");
        }
    });
}

/// Version tuples order lexicographically: cursor first, counter second.
#[test]
fn version_tuple_lexicographic() {
    for_cases(0x5e40, 256, |case, rng| {
        let a: (u64, u32) = (rng.random(), rng.random());
        // Mix in near-misses so equal-cursor cases actually occur.
        let b: (u64, u32) = if rng.random_bool(0.3) {
            (a.0, rng.random())
        } else {
            (rng.random(), rng.random())
        };
        let va = VersionTuple::new(SeqNum(a.0), a.1);
        let vb = VersionTuple::new(SeqNum(b.0), b.1);
        assert_eq!(va.cmp(&vb), a.cmp(&b), "case {case}: {a:?} vs {b:?}");
    });
}

/// Zipf sampling always lands in range and is deterministic per seed.
#[test]
fn zipf_in_range_and_deterministic() {
    for_cases(0x21bf, 64, |case, rng| {
        let n = rng.random_range(1usize..500);
        let s = rng.random_range(0.0f64..2.5);
        let seed = rng.random_range(0u64..1000);
        let z = Zipf::new(n, s);
        let mut r1 = SmallRng::seed_from_u64(seed);
        let mut r2 = SmallRng::seed_from_u64(seed);
        for _ in 0..64 {
            let x = z.sample(&mut r1);
            assert!(x < n, "case {case}: {x} out of range {n}");
            assert_eq!(x, z.sample(&mut r2), "case {case}");
        }
    });
}

/// Value fingerprints are stable under clone and sensitive to content.
#[test]
fn value_fingerprint_properties() {
    for_cases(0xf19e, 128, |case, rng| {
        let n: i64 = rng.random();
        let len = rng.random_range(0usize..=24);
        let s: String = (0..len)
            .map(|_| char::from(rng.random_range(0x20u8..0x7f)))
            .collect();
        let v = Value::map([("n", Value::Int(n)), ("s", Value::str(s.clone()))]);
        assert_eq!(v.fingerprint(), v.fingerprint(), "case {case}");
        let v2 = Value::map([("n", Value::Int(n.wrapping_add(1))), ("s", Value::str(s))]);
        assert_ne!(v.fingerprint(), v2.fingerprint(), "case {case}");
    });
}

/// The time-weighted gauge equals the hand-computed integral for any
/// monotone schedule of (time, level) updates.
#[test]
fn gauge_matches_manual_integral() {
    for_cases(0x6a03, 128, |case, rng| {
        let steps: Vec<(u64, f64)> = (0..rng.random_range(1usize..20))
            .map(|_| {
                (
                    rng.random_range(1u64..1000),
                    rng.random_range(0.0f64..100.0),
                )
            })
            .collect();
        let mut g = TimeWeightedGauge::new(Duration::ZERO);
        let mut now = Duration::ZERO;
        let mut integral = 0.0;
        let mut level = 0.0;
        for (gap_ms, next_level) in steps {
            let gap = Duration::from_millis(gap_ms);
            integral += level * gap.as_secs_f64();
            now += gap;
            g.set(now, next_level);
            level = next_level;
        }
        let horizon = now + Duration::from_millis(500);
        integral += level * 0.5;
        let expect = integral / horizon.as_secs_f64();
        let got = g.average(horizon);
        assert!(
            (got - expect).abs() < 1e-6,
            "case {case}: got {got} expect {expect}"
        );
    });
}
