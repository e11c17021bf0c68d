//! Lock-free metrics: counters and log2 latency histograms behind a
//! name-indexed [`MetricsRegistry`].
//!
//! Recording never blocks: a counter is a single relaxed atomic, a
//! histogram record is three. Registration (get-or-create by name) takes
//! a registry write lock, so handles are meant to be looked up once at
//! startup and cached. A gauge is not an instrument here: a
//! point-in-time value has its home in whatever state it is read from,
//! and reaches the renderers as a [`GaugeRow`] computed at export time.

use crate::json_escape_into;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of log2 buckets per histogram.
///
/// Bucket 0 holds the value 0; bucket `i` (1 ≤ i < 63) holds values with
/// bit length `i`, i.e. the range `[2^(i-1), 2^i - 1]`; bucket 63 holds
/// everything from `2^62` up. With nanosecond samples that spans 1ns to
/// ~146 years at 2x resolution — plenty for latency work.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Bucket index for a recorded value.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket (used as the Prometheus `le` label).
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// Monotonically increasing counter. Cheap to clone; clones share state.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One gauge family as the renderers take it: `(name, help, value)`,
/// the value read by the caller at export time.
pub type GaugeRow = (&'static str, &'static str, u64);

/// Fixed-bucket log2 latency histogram with lock-free recording.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation (three relaxed atomic adds).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy. Concurrent recording may tear `sum` against
    /// the bucket counts by a few in-flight samples; bucket counts
    /// themselves are internally consistent per bucket.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Owned copy of a [`Histogram`]'s state, for percentiles and export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper bound on the `q`-quantile (`0.0 ≤ q ≤ 1.0`).
    ///
    /// Returns the inclusive upper bound of the bucket holding the
    /// rank-`⌈q·count⌉` observation, so the estimate `e` of a true value
    /// `v ≥ 1` satisfies `v ≤ e < 2v` (log2 buckets). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

struct Family<T: ?Sized> {
    name: String,
    help: String,
    value: Arc<T>,
}

impl<T: ?Sized> Family<T> {
    fn new(name: &str, help: &str, value: Arc<T>) -> Self {
        debug_assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "metric name {name:?} is not a valid Prometheus identifier"
        );
        Self {
            name: name.to_string(),
            help: help.to_string(),
            value,
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Family<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Family").field("name", &self.name).finish()
    }
}

/// A family list's read guard, recovered if a thread panicked holding
/// its lock: a list is only ever pushed to, so a poisoned one is whole.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`read`]'s write side.
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Name-indexed collection of metric families, in registration order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<Vec<Family<AtomicU64>>>,
    histograms: RwLock<Vec<Family<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut families = write(&self.counters);
        if let Some(f) = families.iter().find(|f| f.name == name) {
            return Counter(Arc::clone(&f.value));
        }
        let cell = Arc::new(AtomicU64::new(0));
        families.push(Family::new(name, help, Arc::clone(&cell)));
        Counter(cell)
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut families = write(&self.histograms);
        if let Some(f) = families.iter().find(|f| f.name == name) {
            return Arc::clone(&f.value);
        }
        let hist = Arc::new(Histogram::new());
        families.push(Family::new(name, help, Arc::clone(&hist)));
        hist
    }

    /// Snapshot of the histogram `name`, if registered.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        let families = read(&self.histograms);
        families
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.value.snapshot())
    }

    /// Names of all registered histogram families, in registration order.
    pub fn histogram_names(&self) -> Vec<String> {
        let families = read(&self.histograms);
        families.iter().map(|f| f.name.clone()).collect()
    }

    /// Render every family, and the caller's `gauges` between the
    /// counters and the histograms, in the Prometheus text exposition
    /// format.
    ///
    /// Histograms emit cumulative `_bucket{le=...}` samples up to the
    /// highest non-empty bucket plus `le="+Inf"`, then `_sum`/`_count`.
    pub fn render_prometheus(&self, gauges: &[GaugeRow]) -> String {
        let mut out = String::new();
        for f in read(&self.counters).iter() {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} counter", f.name);
            let _ = writeln!(out, "{} {}", f.name, f.value.load(Ordering::Relaxed));
        }
        for (name, help, value) in gauges {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for f in read(&self.histograms).iter() {
            let snap = f.value.snapshot();
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} histogram", f.name);
            let top = snap
                .buckets
                .iter()
                .rposition(|&c| c != 0)
                .map_or(0, |i| i + 1)
                .min(HISTOGRAM_BUCKETS - 1);
            let mut cumulative = 0u64;
            for (i, &c) in snap.buckets.iter().enumerate().take(top + 1) {
                cumulative += c;
                let _ = writeln!(
                    out,
                    "{}_bucket{{le=\"{}\"}} {}",
                    f.name,
                    bucket_upper_bound(i),
                    cumulative
                );
            }
            let total = snap.count();
            let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", f.name, total);
            let _ = writeln!(out, "{}_sum {}", f.name, snap.sum);
            let _ = writeln!(out, "{}_count {}", f.name, total);
        }
        out
    }

    /// Render every family and the caller's `gauges` as one JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,p50,p90,p99,buckets:[[le,n],..]}}}`.
    pub fn render_json(&self, gauges: &[GaugeRow]) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, f) in read(&self.counters).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_escape_into(&mut out, &f.name);
            let _ = write!(out, ":{}", f.value.load(Ordering::Relaxed));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, _, value)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_escape_into(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, f) in read(&self.histograms).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let snap = f.value.snapshot();
            json_escape_into(&mut out, &f.name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                snap.count(),
                snap.sum,
                snap.p50(),
                snap.p90(),
                snap.p99()
            );
            let mut first = true;
            for (b, &c) in snap.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{},{}]", bucket_upper_bound(b), c);
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 15, 16, 1023, 1024, 1 << 40] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} above bucket {i}");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "{v} below bucket {i}");
            }
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum, 5050);
        // True p50 is 50 → bucket [32,63]; estimate must bracket it.
        let p50 = s.p50();
        assert!((50..100).contains(&p50), "p50 estimate {p50}");
        let p99 = s.p99();
        assert!((99..198).contains(&p99), "p99 estimate {p99}");
        assert_eq!(s.quantile(0.0), s.quantile(0.000001));
        assert!(s.quantile(1.0) >= p99);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn registry_get_or_create_shares_state() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("wf_test_total", "a test counter");
        let c2 = reg.counter("wf_test_total", "a test counter");
        c1.add(3);
        c2.inc();
        assert_eq!((c1.get(), c2.get()), (4, 4));
        let h = reg.histogram("wf_test_ns", "a histogram");
        h.record(42);
        assert_eq!(
            reg.histogram_snapshot("wf_test_ns").map(|s| s.count()),
            Some(1)
        );
        assert_eq!(reg.histogram_snapshot("missing"), None);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("wf_ops_total", "ops").add(7);
        let h = reg.histogram("wf_lat_ns", "latency");
        h.record(0);
        h.record(5);
        h.record(700);
        let text = reg.render_prometheus(&[("wf_depth", "queue depth", 3)]);
        assert!(text.contains("# TYPE wf_ops_total counter"));
        assert!(text.contains("wf_ops_total 7"));
        assert!(text.contains("# HELP wf_depth queue depth\n# TYPE wf_depth gauge\nwf_depth 3\n"));
        assert!(text.contains("# TYPE wf_lat_ns histogram"));
        assert!(text.contains("wf_lat_ns_bucket{le=\"0\"} 1"));
        assert!(text.contains("wf_lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("wf_lat_ns_sum 705"));
        assert!(text.contains("wf_lat_ns_count 3"));
        // Cumulative counts never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("wf_lat_ns_bucket")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last, "non-cumulative bucket line: {line}");
            last = n;
        }
    }

    #[test]
    fn json_rendering_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("wf_a_total", "a").inc();
        reg.histogram("wf_b_ns", "b").record(9);
        let json = reg.render_json(&[("wf_depth", "queue depth", 3)]);
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"wf_a_total\":1"));
        assert!(json.contains("\"gauges\":{\"wf_depth\":3}"));
        assert!(json.contains("\"wf_b_ns\":{\"count\":1,\"sum\":9"));
        assert!(json.ends_with("}}"));
    }
}
