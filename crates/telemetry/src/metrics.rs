//! A dependency-free metrics registry: counters, gauges, log-linear
//! histograms, and Prometheus-text / JSON renderers.
//!
//! Design constraints:
//!
//! * **Atomic hot paths.** [`Counter::inc`], [`Gauge::set`] and
//!   [`Histogram::observe`] are single relaxed atomic operations (the
//!   histogram adds a handful of shift/mask instructions to pick a
//!   bucket). No locks, no allocation.
//! * **No dependencies.** The exposition format is hand-rolled and
//!   follows the Prometheus text format 0.0.4 conventions (`# HELP`/`# TYPE`
//!   headers, cumulative `le` buckets, `_sum`/`_count` series, label-value
//!   escaping); the JSON goes through `guesstimate_core::json`'s writer.
//! * **Registration is cold.** Instruments are registered once behind a
//!   mutex and handed out as `Arc`s; the hot path never touches the
//!   registry again.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use guesstimate_core::json::{self, JsonWriter};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating; counters never wrap).
    pub fn add(&self, n: u64) {
        let prev = self.value.fetch_add(n, Ordering::Relaxed);
        debug_assert!(prev.checked_add(n).is_some(), "counter wrapped");
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is currently lower.
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`].
///
/// Log-linear layout, 4 sub-buckets per power of two: values `0..=3` get
/// exact buckets (index = value), and every larger power-of-two range
/// `[2^m, 2^(m+1))` is split into 4 equal sub-buckets. The highest index
/// is reached at `u64::MAX` (`m = 63`, sub-bucket 3): `4*62 + 3 = 251`.
pub const HISTOGRAM_BUCKETS: usize = 252;

/// A log-linear histogram of `u64` samples.
///
/// Relative error of a bucket's bounds is at most 25%, and small values
/// (`0..=7`) are recorded *exactly* — which is what lets the exec-count
/// histogram distinguish "executed 3 times" (the paper's bound) from
/// "executed 4 times" with no ambiguity.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Maps a sample to its bucket index.
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let m = 63 - v.leading_zeros() as usize; // floor(log2 v) >= 2
        4 * (m - 1) + ((v >> (m - 2)) & 3) as usize
    }
}

/// The largest sample value a bucket contains (inclusive upper bound).
pub fn bucket_upper(idx: usize) -> u64 {
    assert!(idx < HISTOGRAM_BUCKETS, "bucket index out of range");
    if idx < 4 {
        idx as u64
    } else {
        let m = idx / 4 + 1;
        let sub = (idx % 4) as u128;
        let upper = (1u128 << m) + (sub + 1) * (1u128 << (m - 2)) - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative), indexed by bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Number of samples strictly greater than `v`.
    pub fn count_above(&self, v: u64) -> u64 {
        let cut = bucket_index(v);
        self.buckets[cut + 1..]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// The largest recorded sample, rounded up to its bucket's upper
    /// bound. `None` if empty.
    pub fn max_upper(&self) -> Option<u64> {
        let counts = self.bucket_counts();
        counts.iter().rposition(|&c| c > 0).map(bucket_upper)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) as the upper bound of
    /// the bucket holding the q-th sample. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_upper(idx);
            }
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1)
    }
}

/// The instrument behind one registry entry.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn type_name(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// A collection of named instruments, renderable as Prometheus text or
/// JSON.
///
/// Registration is the only locked operation; the returned `Arc`
/// handles are the hot-path interface.
#[derive(Debug, Default)]
pub struct Registry {
    entries: parking_lot::Mutex<Vec<Entry>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, name: &str, help: &str, labels: &[(&str, &str)], instrument: Instrument) {
        self.entries.lock().push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            instrument,
        });
    }

    /// Registers a counter and returns its handle.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with_labels(name, help, &[])
    }

    /// Registers a counter with fixed labels.
    pub fn counter_with_labels(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.push(name, help, labels, Instrument::Counter(c.clone()));
        c
    }

    /// Registers a gauge and returns its handle.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with_labels(name, help, &[])
    }

    /// Registers a gauge with fixed labels.
    pub fn gauge_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.push(name, help, labels, Instrument::Gauge(g.clone()));
        g
    }

    /// Registers a histogram and returns its handle.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with_labels(name, help, &[])
    }

    /// Registers a histogram with fixed labels.
    pub fn histogram_with_labels(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.push(name, help, labels, Instrument::Histogram(h.clone()));
        h
    }

    /// Renders every instrument in the Prometheus text exposition
    /// format (headers, escaped labels, cumulative histogram buckets).
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().clone();
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for e in &entries {
            if last_name != Some(e.name.as_str()) {
                out.push_str(&format!(
                    "# HELP {} {}\n# TYPE {} {}\n",
                    e.name,
                    escape_help(&e.help),
                    e.name,
                    e.instrument.type_name()
                ));
                last_name = Some(e.name.as_str());
            }
            match &e.instrument {
                Instrument::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        c.get()
                    ));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        g.get()
                    ));
                }
                Instrument::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cum = 0u64;
                    let highest = counts.iter().rposition(|&c| c > 0);
                    if let Some(hi) = highest {
                        for (idx, &c) in counts[..=hi].iter().enumerate() {
                            if c == 0 && idx != hi {
                                continue;
                            }
                            cum += c;
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                e.name,
                                label_block(&e.labels, Some(&bucket_upper(idx).to_string())),
                                cum
                            ));
                        }
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        e.name,
                        label_block(&e.labels, Some("+Inf")),
                        h.count()
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        h.sum()
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        h.count()
                    ));
                }
            }
        }
        out
    }

    /// Renders every instrument as a JSON document
    /// (`{"metrics": [...]}`; histograms carry non-cumulative buckets).
    pub fn render_json(&self) -> String {
        let entries = self.entries.lock().clone();
        json::object(|w| {
            w.key("metrics").array(|w| {
                for e in &entries {
                    w.object(|w| write_entry(w, e));
                }
            });
        })
    }
}

fn write_entry(w: &mut JsonWriter, e: &Entry) {
    w.field("name", &e.name)
        .field("type", e.instrument.type_name());
    w.key("labels").object(|w| {
        for (k, v) in &e.labels {
            w.field(k, v);
        }
    });
    match &e.instrument {
        Instrument::Counter(c) => w.field("value", c.get()),
        Instrument::Gauge(g) => w.field("value", g.get()),
        Instrument::Histogram(h) => w
            .field("count", h.count())
            .field("sum", h.sum())
            .key("buckets")
            .array(|w| {
                for (idx, c) in h.bucket_counts().into_iter().enumerate() {
                    if c > 0 {
                        w.object(|w| {
                            w.field("le", bucket_upper(idx)).field("count", c);
                        });
                    }
                }
            }),
    };
}

fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escapes a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n`.
pub fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes a Prometheus HELP string: `\` → `\\`, newline → `\n`.
pub fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v) as u64, v, "value {v} must be exact");
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_monotonic() {
        // Every index's upper bound + 1 must land in the next index.
        for idx in 0..HISTOGRAM_BUCKETS - 1 {
            let upper = bucket_upper(idx);
            assert_eq!(bucket_index(upper), idx, "upper bound of {idx} stays in it");
            assert_eq!(
                bucket_index(upper + 1),
                idx + 1,
                "upper+1 of {idx} starts the next bucket"
            );
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // For values >= 4 the bucket width is 2^(m-2), i.e. <= 25% of
        // the bucket's lower bound.
        for &v in &[4u64, 100, 1_000, 65_537, 1 << 40] {
            let idx = bucket_index(v);
            let upper = bucket_upper(idx);
            assert!(upper >= v);
            assert!((upper - v) as f64 <= 0.25 * v as f64 + 1.0);
        }
    }

    #[test]
    fn histogram_counts_sum_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        // Median of 1..=100 is 50; its bucket [48, 55] has upper 55.
        let med = h.quantile(0.5);
        assert!((48..=55).contains(&med), "median bucket upper: {med}");
        assert_eq!(h.quantile(1.0), bucket_upper(bucket_index(100)));
        assert_eq!(h.count_above(100), 0);
        assert!(h.count_above(40) > 0);
        assert_eq!(h.max_upper(), Some(bucket_upper(bucket_index(100))));
    }

    #[test]
    fn count_above_uses_exact_small_buckets() {
        let h = Histogram::new();
        h.observe(2);
        h.observe(3);
        h.observe(3);
        assert_eq!(h.count_above(3), 0);
        h.observe(4);
        assert_eq!(h.count_above(3), 1);
        assert_eq!(h.count_above(2), 3);
    }

    #[test]
    fn prometheus_rendering_has_headers_buckets_and_escaping() {
        let r = Registry::new();
        let c = r.counter_with_labels(
            "test_total",
            "a \"help\" with\nnewline and back\\slash",
            &[("app", "va\"l\nue\\x")],
        );
        c.add(3);
        let h = r.histogram("lat_us", "latency");
        h.observe(2);
        h.observe(10);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP test_total a \"help\" with\\nnewline and back\\\\slash\n"));
        assert!(text.contains("# TYPE test_total counter\n"));
        assert!(text.contains("test_total{app=\"va\\\"l\\nue\\\\x\"} 3\n"));
        assert!(text.contains("# TYPE lat_us histogram\n"));
        assert!(text.contains("lat_us_bucket{le=\"2\"} 1\n"));
        // Bucket for 10 is [10, 11]; cumulative count there is 2.
        assert!(text.contains("lat_us_bucket{le=\"11\"} 2\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_us_sum 12\n"));
        assert!(text.contains("lat_us_count 2\n"));
    }

    #[test]
    fn json_rendering_is_wellformed_and_escaped() {
        let r = Registry::new();
        r.counter_with_labels("c", "h", &[("k", "a\"b\\c\nd")])
            .inc();
        let g = r.gauge("g", "h");
        g.set(-5);
        let h = r.histogram("h", "h");
        h.observe(7);
        let json = r.render_json();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"k\":\"a\\\"b\\\\c\\nd\""));
        assert!(json.contains("\"value\":-5"));
        assert!(json.contains("{\"le\":7,\"count\":1}"));
    }

    #[test]
    fn json_rendering_matches_its_golden_bytes() {
        let r = Registry::new();
        r.counter("ops_total", "ops").add(3);
        r.gauge("depth", "d").set(-2);
        let h = r.histogram_with_labels("lag_us", "lag", &[("app", "sudoku"), ("kind", "a\"b")]);
        h.observe(2);
        h.observe(10);
        h.observe(10);
        assert_eq!(
            r.render_json(),
            r#"{"metrics":[{"name":"ops_total","type":"counter","labels":{},"value":3},{"name":"depth","type":"gauge","labels":{},"value":-2},{"name":"lag_us","type":"histogram","labels":{"app":"sudoku","kind":"a\"b"},"count":3,"sum":22,"buckets":[{"le":2,"count":1},{"le":11,"count":2}]}]}"#
        );
    }

    #[test]
    fn gauge_set_max_only_raises() {
        let g = Gauge::new();
        g.set(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }
}
