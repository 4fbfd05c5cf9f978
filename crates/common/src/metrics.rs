//! Measurement primitives for the benchmark harness.
//!
//! Three instruments cover everything the paper reports:
//! - [`Histogram`]: latency quantiles (median / p99 bars and curves);
//! - [`TimeWeightedGauge`]: time-averaged storage usage (Figure 12 reports
//!   *time-averaged* MB over a 10-minute window);
//! - [`OpCounters`]: logging-operation counts, used to report "logging
//!   overhead" in units of abstract log operations (§4.3).
//!
//! [`op_counters!`](crate::op_counters) declares every counter struct of
//! the workspace (`OpCounters` here, the log's `FlushStats`, the client's
//! `RecoveryStats`) with its arithmetic and its field table, and the
//! [`MetricsRegistry`] is a virtual-time series of named values that
//! `hm_runtime::MetricsDriver` fills from those tables.
//! `hm_common::trace` re-exports the registry because the repo benchmark
//! (`benchmark/src/apps.rs`) imports it as
//! `hm_common::trace::MetricsRegistry`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use crate::trace::escape;

/// A latency histogram with logarithmic buckets.
///
/// Buckets span 1 µs to ~17 minutes with 64 buckets per octave, giving a
/// worst-case quantile error below ~1.1 % — far finer than the effects the
/// paper reports. Recording is O(1); quantile queries are O(#buckets).
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

/// Sub-buckets per power of two. 64 gives ≤ 1.6 % relative bucket width.
const SUBBUCKETS: u64 = 64;
/// Lowest representable latency: 1 µs (everything below clamps up).
const MIN_NS: u64 = 1_000;
/// Number of octaves covered: 1 µs × 2^30 ≈ 17.9 min.
const OCTAVES: usize = 30;

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; OCTAVES * SUBBUCKETS as usize],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    fn bucket_index(ns: u64) -> usize {
        let ns = ns.max(MIN_NS);
        let ratio = ns / MIN_NS;
        let octave = (63 - ratio.leading_zeros()) as u64; // floor(log2(ratio))
        let octave = octave.min(OCTAVES as u64 - 1);
        let base = MIN_NS << octave;
        // Position within the octave, scaled to SUBBUCKETS slots.
        let within = ((ns - base).saturating_mul(SUBBUCKETS)) / base;
        (octave * SUBBUCKETS + within.min(SUBBUCKETS - 1)) as usize
    }

    fn bucket_value_ns(index: usize) -> u64 {
        let octave = index as u64 / SUBBUCKETS;
        let within = index as u64 % SUBBUCKETS;
        let base = MIN_NS << octave;
        // Midpoint of the bucket.
        base + (base * within) / SUBBUCKETS + base / (2 * SUBBUCKETS)
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one latency observation given directly in nanoseconds
    /// (the anatomy layer accrues integer ns off the virtual clock).
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) in milliseconds, or `None` if the
    /// histogram is empty.
    #[must_use]
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        Some(self.quantile_ns(q)? as f64 / 1e6)
    }

    /// The `q`-quantile in integer nanoseconds, or `None` if the histogram
    /// is empty.
    ///
    /// HDR-style cumulative-count walk over the log2 buckets, coherent with
    /// the tracked extremes: `quantile_ns(0.0)` and `quantile_ns(1.0)` return
    /// the raw min/max observation exactly (a bucket midpoint can sit on
    /// either side of the true extreme, which would break the invariant
    /// `quantile(0.0) ≤ mean ≤ quantile(1.0)`), and every interior quantile
    /// is clamped into `[min, max]` so no answer can lie outside the
    /// observed range.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return Some(self.min_ns);
        }
        if q >= 1.0 {
            return Some(self.max_ns);
        }
        // Rank of the target observation (1-based ceil, like numpy 'lower').
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= target {
                return Some(Self::bucket_value_ns(i).clamp(self.min_ns, self.max_ns));
            }
        }
        Some(self.max_ns)
    }

    /// Median latency in milliseconds.
    #[must_use]
    pub fn median_ms(&self) -> Option<f64> {
        self.quantile_ms(0.5)
    }

    /// 99th-percentile latency in milliseconds.
    #[must_use]
    pub fn p99_ms(&self) -> Option<f64> {
        self.quantile_ms(0.99)
    }

    /// Mean latency in milliseconds.
    #[must_use]
    pub fn mean_ms(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum_ns as f64 / self.count as f64 / 1e6)
        }
    }

    /// Largest recorded latency in milliseconds.
    #[must_use]
    pub fn max_ms(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max_ns as f64 / 1e6)
        }
    }

    /// Smallest recorded latency in milliseconds.
    #[must_use]
    pub fn min_ms(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min_ns as f64 / 1e6)
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram(n={}, min={:?}ms, p50={:?}ms, p99={:?}ms)",
            self.count,
            self.min_ms(),
            self.median_ms(),
            self.p99_ms()
        )
    }
}

/// Integrates a step function of "current usage" over virtual time to report
/// its time-weighted average — how Figure 12 measures storage.
///
/// Call [`TimeWeightedGauge::set`] whenever the usage level changes, passing
/// the current virtual time; call [`TimeWeightedGauge::average`] at the end
/// of the measurement window.
#[derive(Clone, Debug)]
pub struct TimeWeightedGauge {
    level: f64,
    last_change: Duration,
    weighted_sum: f64,
    started: Duration,
}

impl TimeWeightedGauge {
    /// Creates a gauge at level 0 whose window starts at virtual time `now`.
    #[must_use]
    pub fn new(now: Duration) -> TimeWeightedGauge {
        TimeWeightedGauge {
            level: 0.0,
            last_change: now,
            weighted_sum: 0.0,
            started: now,
        }
    }

    /// Updates the level at virtual time `now`.
    ///
    /// # Panics
    /// Panics if `now` moves backwards (virtual time is monotone).
    pub fn set(&mut self, now: Duration, level: f64) {
        assert!(now >= self.last_change, "virtual time went backwards");
        self.weighted_sum += self.level * (now - self.last_change).as_secs_f64();
        self.level = level;
        self.last_change = now;
    }

    /// Adds a delta to the current level at virtual time `now`.
    pub fn add(&mut self, now: Duration, delta: f64) {
        let next = self.level + delta;
        self.set(now, next);
    }

    /// The current level.
    #[must_use]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Time-weighted average level over `[start, now]`.
    #[must_use]
    pub fn average(&self, now: Duration) -> f64 {
        let window = (now - self.started).as_secs_f64();
        if window <= 0.0 {
            return self.level;
        }
        let tail = self.level * (now - self.last_change).as_secs_f64();
        (self.weighted_sum + tail) / window
    }

    /// Restarts the measurement window at `now`, keeping the current level.
    pub fn reset_window(&mut self, now: Duration) {
        self.weighted_sum = 0.0;
        self.last_change = now;
        self.started = now;
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Series {
    columns: Vec<String>,
    rows: Vec<(Duration, Vec<f64>)>,
}

/// A virtual-time series of named values: each [`MetricsRegistry::sample`]
/// appends one row. The first row fixes the column names; every later row
/// names the same columns in the same order. Sampling is driven from
/// outside (`hm_runtime::MetricsDriver`); the registry never spawns tasks.
#[derive(Default)]
pub struct MetricsRegistry {
    series: RefCell<Series>,
}

impl MetricsRegistry {
    /// A fresh, empty series behind an `Rc` for sharing.
    #[must_use]
    pub fn new() -> Rc<MetricsRegistry> {
        Rc::new(MetricsRegistry::default())
    }

    /// Appends `row`, sampled at virtual time `now`.
    ///
    /// # Panics
    /// Panics if `row` names other columns than the first row did.
    pub fn sample(&self, now: Duration, row: Vec<(String, f64)>) {
        let (columns, values): (Vec<String>, Vec<f64>) = row.into_iter().unzip();
        let mut series = self.series.borrow_mut();
        if series.rows.is_empty() {
            series.columns = columns;
        } else {
            assert_eq!(columns, series.columns, "the columns changed");
        }
        series.rows.push((now, values));
    }

    /// The value of column `name` in the latest row, if there is one.
    #[must_use]
    pub fn latest(&self, name: &str) -> Option<f64> {
        let series = self.series.borrow();
        let i = series.columns.iter().position(|c| c == name)?;
        Some(series.rows.last()?.1[i])
    }

    /// Exports the series as JSON: the column names, then one row per
    /// sample in sampling order. Identical seeds yield identical bytes.
    #[must_use]
    pub fn series_json(&self) -> String {
        let series = self.series.borrow();
        let quote = |c: &String| format!("\"{}\"", escape(c));
        let columns: Vec<String> = series.columns.iter().map(quote).collect();
        let rows: Vec<String> = series
            .rows
            .iter()
            .map(|(at, values)| {
                let values: Vec<String> = values.iter().map(f64::to_string).collect();
                let (at, values) = (at.as_nanos(), values.join(","));
                format!("    {{\"at_ns\":{at},\"values\":[{values}]}}")
            })
            .collect();
        let (columns, rows) = (columns.join(","), rows.join(",\n"));
        format!("{{\n  \"columns\": [{columns}],\n  \"samples\": [\n{rows}\n  ]\n}}\n")
    }
}

/// Declares a counter struct from one field list: every field a public
/// `u64`, and with them the element-wise windowing arithmetic (`since`,
/// `merged`) and a field-name/value table (`table`), generated in lockstep
/// (the `record_op!` pattern: one declaration, every derived method).
/// Adding a counter is a one-line change that cannot miss any of them, and
/// a reader of the table (the metrics series) names no field by hand.
#[macro_export]
macro_rules! op_counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$doc:meta])* $field:ident ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$doc])* pub $field: u64, )+
        }

        impl $name {
            /// Every counter at zero, the base of `const` struct updates.
            pub const ZERO: $name = $name { $( $field: 0, )+ };

            /// Element-wise difference `self - earlier`, for windowed
            /// measurement.
            ///
            /// Saturating: a mis-ordered window (an `earlier` snapshot taken
            /// after `self`) yields zeros for the affected fields rather
            /// than panicking in debug builds or wrapping in release builds.
            #[must_use]
            pub fn since(&self, earlier: &$name) -> $name {
                $name {
                    $( $field: self.$field.saturating_sub(earlier.$field), )+
                }
            }

            /// Element-wise sum `self + other`, for aggregating snapshots
            /// (per shard, per request) into one view. Saturating, like
            /// [`since`](Self::since).
            #[must_use]
            pub fn merged(&self, other: &$name) -> $name {
                $name {
                    $( $field: self.$field.saturating_add(other.$field), )+
                }
            }

            /// Every field as `(name, value)`, in declaration order.
            #[must_use]
            pub fn table(&self) -> [(&'static str, u64); [$(stringify!($field)),+].len()] {
                [$( (stringify!($field), self.$field) ),+]
            }
        }
    };
}

op_counters! {
    /// Counters for the abstract logging operations of §4.3, plus raw
    /// store traffic. "Logging overhead" in the paper is measured in
    /// these units.
    pub struct OpCounters {
        /// Log appends (including conditional appends that succeeded).
        log_appends,
        /// Conditional appends that lost the peer race and were undone.
        cond_append_conflicts,
        /// Log reads (`read_prev` / `read_next`).
        log_reads,
        /// Log trims issued by the garbage collector.
        log_trims,
        /// Raw store reads.
        db_reads,
        /// Raw store writes (unconditional).
        db_writes,
        /// Conditional store writes.
        db_cond_writes,
        /// Store deletes (garbage collection of old versions).
        db_deletes,
        /// Log reads answered from the per-node record cache.
        cache_hits,
        /// Log reads that missed the per-node record cache and paid the
        /// storage round-trip. Reads that find no record are counted in
        /// neither bucket (they are answered from the node's stream index).
        cache_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_micros(i * 10)); // 10µs..10ms uniform
        }
        let median = h.median_ms().unwrap();
        assert!((median - 5.0).abs() < 0.2, "median {median}");
        let p99 = h.p99_ms().unwrap();
        assert!((p99 - 9.9).abs() < 0.3, "p99 {p99}");
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_relative_error_bound() {
        let mut h = Histogram::new();
        let v = Duration::from_nanos(1_234_567);
        h.record(v);
        let got = h.median_ms().unwrap();
        let want = 1.234_567;
        assert!((got - want).abs() / want < 0.02, "got {got}");
    }

    #[test]
    fn histogram_empty_returns_none() {
        let h = Histogram::new();
        assert!(h.median_ms().is_none());
        assert!(h.mean_ms().is_none());
    }

    #[test]
    fn histogram_merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Duration::from_millis(1));
        b.record(Duration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.max_ms().unwrap() > 2.9);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = Histogram::new();
        h.record(Duration::from_nanos(1)); // clamps to 1µs bucket
        h.record(Duration::from_secs(3600)); // clamps into last octave
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ms(0.0).unwrap() <= 0.002);
    }

    #[test]
    fn histogram_min_accessor_and_debug() {
        let mut h = Histogram::new();
        assert!(h.min_ms().is_none());
        h.record(Duration::from_millis(3));
        h.record(Duration::from_millis(7));
        assert!((h.min_ms().unwrap() - 3.0).abs() < 1e-9);
        assert!((h.max_ms().unwrap() - 7.0).abs() < 1e-9);
        let dbg = format!("{h:?}");
        assert!(dbg.contains("min="), "{dbg}");
    }

    #[test]
    fn histogram_extreme_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(Duration::from_micros(123));
        h.record(Duration::from_millis(45));
        // q=0 / q=1 return the raw extremes, not bucket midpoints.
        assert!((h.quantile_ms(0.0).unwrap() - 0.123).abs() < 1e-12);
        assert!((h.quantile_ms(1.0).unwrap() - 45.0).abs() < 1e-12);
        assert_eq!(h.quantile_ms(0.0), h.min_ms());
        assert_eq!(h.quantile_ms(1.0), h.max_ms());
    }

    /// Property test (seeded splitmix loop, no proptest in this workspace):
    /// under arbitrary recorded sets, quantiles are coherent — `q=0`/`q=1`
    /// equal the recorded min/max *exactly*, quantiles are monotone in `q`,
    /// and every interior quantile stays inside the observed range.
    #[test]
    fn histogram_quantile_coherence_property() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..200 {
            let n = 1 + (next() % 300) as usize;
            let mut h = Histogram::new();
            let mut min = u64::MAX;
            let mut max = 0u64;
            for _ in 0..n {
                // Span sub-bucket ns up through minutes.
                let ns = 1 + next() % 100_000_000_000;
                h.record(Duration::from_nanos(ns));
                min = min.min(ns);
                max = max.max(ns);
            }
            assert_eq!(h.quantile_ns(0.0), Some(min), "case {case}");
            assert_eq!(h.quantile_ns(1.0), Some(max), "case {case}");
            assert_eq!(h.quantile_ms(0.0), h.min_ms(), "case {case}");
            assert_eq!(h.quantile_ms(1.0), h.max_ms(), "case {case}");
            let mut prev = 0u64;
            for step in 0..=20 {
                let q = f64::from(step) / 20.0;
                let v = h.quantile_ns(q).unwrap();
                assert!(v >= min && v <= max, "case {case} q {q}: {v} outside");
                assert!(v >= prev, "case {case} q {q}: not monotone");
                prev = v;
            }
        }
    }

    #[test]
    fn counters_since_saturates_on_misordered_window() {
        let newer = OpCounters {
            log_appends: 5,
            db_reads: 100,
            ..OpCounters::default()
        };
        let older = OpCounters {
            log_appends: 10, // "earlier" snapshot actually taken later
            db_reads: 40,
            ..OpCounters::default()
        };
        let d = newer.since(&older);
        assert_eq!(d.log_appends, 0, "mis-ordered field saturates to zero");
        assert_eq!(d.db_reads, 60, "well-ordered fields still subtract");
    }

    #[test]
    fn gauge_time_weighted_average() {
        let mut g = TimeWeightedGauge::new(Duration::ZERO);
        g.set(Duration::from_secs(0), 10.0);
        g.set(Duration::from_secs(5), 20.0); // 10 for 5s
        let avg = g.average(Duration::from_secs(10)); // 20 for 5s
        assert!((avg - 15.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn gauge_add_and_reset() {
        let mut g = TimeWeightedGauge::new(Duration::ZERO);
        g.add(Duration::ZERO, 4.0);
        g.add(Duration::from_secs(2), -2.0);
        assert_eq!(g.level(), 2.0);
        g.reset_window(Duration::from_secs(2));
        let avg = g.average(Duration::from_secs(4));
        assert!((avg - 2.0).abs() < 1e-9);
    }

    #[test]
    fn counters_windowed_difference() {
        let a = OpCounters {
            log_appends: 10,
            db_reads: 4,
            ..OpCounters::default()
        };
        let b = OpCounters {
            log_appends: 25,
            db_reads: 9,
            ..OpCounters::default()
        };
        let d = b.since(&a);
        assert_eq!(d.log_appends, 15);
        assert_eq!(d.db_reads, 5);
    }

    #[test]
    fn counters_table_names_every_field_in_order() {
        let a = OpCounters {
            log_appends: 1,
            cache_misses: 2,
            ..OpCounters::default()
        };
        let table = a.merged(&a).table();
        let names: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "log_appends",
                "cond_append_conflicts",
                "log_reads",
                "log_trims",
                "db_reads",
                "db_writes",
                "db_cond_writes",
                "db_deletes",
                "cache_hits",
                "cache_misses",
            ]
        );
        assert_eq!(table[0], ("log_appends", 2));
        assert_eq!(table[9], ("cache_misses", 4));
        assert_eq!(table.iter().map(|&(_, v)| v).sum::<u64>(), 6);
    }

    #[test]
    fn metrics_registry_samples_rows_of_named_values() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.latest("log_appends"), None);
        let row = |appends: f64| {
            vec![
                ("log_appends".to_string(), appends),
                ("mean".to_string(), 2.5),
            ]
        };
        reg.sample(Duration::from_millis(100), row(4.0));
        reg.sample(Duration::from_millis(200), row(5.0));
        assert_eq!(reg.latest("log_appends"), Some(5.0));
        assert_eq!(reg.latest("missing"), None);
        let json = reg.series_json();
        assert!(
            json.contains("\"columns\": [\"log_appends\",\"mean\"]"),
            "{json}"
        );
        assert!(
            json.contains("{\"at_ns\":100000000,\"values\":[4,2.5]},\n"),
            "{json}"
        );
        assert!(
            json.contains("{\"at_ns\":200000000,\"values\":[5,2.5]}\n"),
            "{json}"
        );
    }
}
