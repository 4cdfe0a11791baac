//! # sara-telemetry
//!
//! The observability substrate of the SARA reproduction: one deterministic
//! metrics vocabulary every layer reports through.
//!
//! The simulation stack is proudly byte-deterministic — identical inputs
//! produce identical reports and traces, whatever the thread count or
//! lane-stepping strategy — and the metrics layer must not be the place
//! that property dies. Everything here is built around that constraint:
//!
//! * [`Counter`] / [`Gauge`] — plain monotonic counts and last-value
//!   readings, no interior mutability, no clock reads;
//! * [`Histogram`] — log2-bucketed latency distributions whose merge is an
//!   element-wise integer add: **exact** (no rebinning error) and
//!   **commutative/associative**, so folding per-lane histograms in any
//!   order yields bit-identical state;
//! * [`Registry`] — an insertion-ordered bag of named metrics with a
//!   deterministic JSON snapshot (via the in-tree `json` document model);
//! * [`chrome`] — a builder for Chrome trace-event / Perfetto JSON
//!   (`chrome://tracing`, <https://ui.perfetto.dev>), used by
//!   `sara govern --chrome-trace` and `sara matrix --chrome-trace`.
//!
//! The *service* layer (`sara serve`) additionally measures wall-clock
//! time, which deterministic simulation never may. Two modules keep that
//! boundary crisp:
//!
//! * [`TimeSource`] / [`WallClock`] / [`MockClock`] — pluggable
//!   microsecond clocks, so service timing is testable under a
//!   deterministic mock;
//! * [`prometheus`] — text exposition (format 0.0.4) of a [`Registry`]
//!   snapshot for scraping, histograms as cumulative `le` series, and the
//!   strict checker that reads an exposition back.
//!
//! # Examples
//!
//! ```
//! use sara_telemetry::{Histogram, Registry};
//!
//! let mut shard_a = Histogram::new();
//! let mut shard_b = Histogram::new();
//! shard_a.record(130); // → bucket [128, 255]
//! shard_b.record(9);   // → bucket [8, 15]
//!
//! let mut merged = Histogram::new();
//! merged.merge(&shard_a);
//! merged.merge(&shard_b);
//! assert_eq!(merged.count(), 2);
//! assert_eq!(merged.max(), 130);
//!
//! let mut reg = Registry::new();
//! reg.counter("completions").add(2);
//! reg.histogram("latency_cycles").merge(&merged);
//! let doc = reg.to_json_value();
//! assert!(doc.get("completions").is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
mod clock;
mod hist;
pub mod prometheus;

pub use chrome::ChromeTrace;
pub use clock::{MockClock, TimeSource, WallClock};
pub use hist::Histogram;

use ::json::Value;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A last-value reading (queue depth, occupancy, frequency, …).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge(f64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Gauge(0.0)
    }

    /// Replaces the reading.
    #[inline]
    pub fn set(&mut self, v: f64) {
        self.0 = v;
    }

    /// Current reading.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

/// One named metric in a [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonic count.
    Counter(Counter),
    /// A last-value reading.
    Gauge(Gauge),
    /// A log2-bucketed distribution.
    Histogram(Histogram),
}

impl Metric {
    fn to_json_value(&self) -> Value {
        match self {
            Metric::Counter(c) => c.get().into(),
            Metric::Gauge(g) => g.get().into(),
            Metric::Histogram(h) => h.to_json_value(),
        }
    }
}

/// An insertion-ordered bag of named metrics with a deterministic JSON
/// snapshot: same registrations in the same order → byte-identical output.
///
/// Lookup is linear, which is exactly right for the intended shape (a few
/// dozen metrics assembled at snapshot time); hot simulation paths keep
/// typed [`Counter`]s/[`Histogram`]s in their own structs and fold them
/// into a registry only when a report is built.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: Vec<(String, Metric)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The index of the metric named `name`, registered as `default` on
    /// first use.
    fn slot(&mut self, name: &str, default: Metric) -> usize {
        if let Some(i) = self.metrics.iter().position(|(n, _)| n == name) {
            return i;
        }
        self.metrics.push((name.to_string(), default));
        self.metrics.len() - 1
    }

    /// The counter named `name`, registered on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind —
    /// a registry is one vocabulary, not a union type per name.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        let index = self.counter_index(name);
        self.counter_at(index)
    }

    /// The index of the counter named `name`, registered on first use.
    /// Metrics are only ever appended, so an index holds for the
    /// registry's life: a hot caller resolves a name once and counts
    /// through [`Registry::counter_at`] without searching for it again.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter_index(&mut self, name: &str) -> usize {
        let index = self.slot(name, Metric::Counter(Counter::new()));
        self.counter_at(index); // the kind check
        index
    }

    /// The counter at `index` ([`Registry::counter_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or holds another metric kind.
    pub fn counter_at(&mut self, index: usize) -> &mut Counter {
        match &mut self.metrics[index] {
            (_, Metric::Counter(c)) => c,
            (name, other) => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    /// The gauge named `name`, registered on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        let index = self.slot(name, Metric::Gauge(Gauge::new()));
        match &mut self.metrics[index] {
            (_, Metric::Gauge(g)) => g,
            (name, other) => panic!("metric {name:?} is not a gauge: {other:?}"),
        }
    }

    /// The histogram named `name`, registered on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        let index = self.histogram_index(name);
        self.histogram_at(index)
    }

    /// The index of the histogram named `name`, registered on first use;
    /// see [`Registry::counter_index`].
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram_index(&mut self, name: &str) -> usize {
        let index = self.slot(name, Metric::Histogram(Histogram::new()));
        self.histogram_at(index); // the kind check
        index
    }

    /// The histogram at `index` ([`Registry::histogram_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or holds another metric kind.
    pub fn histogram_at(&mut self, index: usize) -> &mut Histogram {
        match &mut self.metrics[index] {
            (_, Metric::Histogram(h)) => h,
            (name, other) => panic!("metric {name:?} is not a histogram: {other:?}"),
        }
    }

    /// Reads a metric back.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// Iterates `(name, metric)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Folds another registry into this one: counters add, histograms
    /// merge exactly, gauges take the other's reading (last write wins).
    /// Metrics missing on either side are kept/appended, so merging is
    /// total.
    ///
    /// # Panics
    ///
    /// Panics if the two registries disagree on a metric's kind.
    pub fn merge(&mut self, other: &Registry) {
        for (name, m) in &other.metrics {
            match m {
                Metric::Counter(c) => self.counter(name).add(c.get()),
                Metric::Gauge(g) => self.gauge(name).set(g.get()),
                Metric::Histogram(h) => self.histogram(name).merge(h),
            }
        }
    }

    /// The registry as one JSON object node, members in registration
    /// order.
    pub fn to_json_value(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|(name, m)| (name.clone(), m.to_json_value()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::new();
        c.add(1);
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn registry_is_insertion_ordered_and_deterministic() {
        let build = || {
            let mut r = Registry::new();
            r.counter("b").add(2);
            r.gauge("a").set(1.0);
            r.histogram("h").record(7);
            r.counter("b").add(1);
            r
        };
        let (x, y) = (build(), build());
        assert_eq!(x, y);
        let json = x.to_json_value().to_string_compact();
        assert_eq!(json, y.to_json_value().to_string_compact());
        // "b" registered first stays first despite sorting "a" before it.
        assert!(json.starts_with("{\"b\":3,"), "{json}");
        assert_eq!(x.len(), 3);
        assert!(!x.is_empty());
        assert!(matches!(x.get("h"), Some(Metric::Histogram(h)) if h.count() == 1));
        assert!(x.get("missing").is_none());
    }

    #[test]
    fn registry_merge_adds_counts_and_merges_histograms() {
        let mut a = Registry::new();
        a.counter("n").add(1);
        a.histogram("lat").record(10);
        let mut b = Registry::new();
        b.counter("n").add(2);
        b.histogram("lat").record(1000);
        b.gauge("depth").set(4.0);
        a.merge(&b);
        assert_eq!(a.counter("n").get(), 3);
        assert_eq!(a.histogram("lat").count(), 2);
        assert_eq!(a.gauge("depth").get(), 4.0);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_is_loud() {
        let mut r = Registry::new();
        r.gauge("x").set(1.0);
        let _ = r.counter("x");
    }
}
