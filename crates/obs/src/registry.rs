//! The metrics registry: named counters, gauges and histograms.
//!
//! A component counts by holding handles (`Arc<Counter>`, `Arc<Gauge>`,
//! `Arc<Histogram>`) and updating them on its hot path. It either asks the
//! registry for them (`counter`, `gauge`, `histogram` — get-or-create) or,
//! when it is built without a registry in reach, creates them itself and
//! has a registry [`adopt`](MetricsRegistry::adopt) them later. Either way
//! the registry reads the very words the component writes: there is no
//! second copy to keep in step and nothing to poll.

use std::collections::BTreeMap;
use std::sync::Arc;

use clio_testkit::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use clio_testkit::sync::Mutex;

use crate::hist::{HistSnapshot, Histogram};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic gauge (a value that can go up and down).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A metric handle of any of the three kinds (what
/// [`MetricsRegistry::adopt`] takes; `Arc<Counter>` etc. convert into it).
#[derive(Debug, Clone)]
pub enum Handle {
    /// A counter.
    Counter(Arc<Counter>),
    /// A gauge.
    Gauge(Arc<Gauge>),
    /// A histogram.
    Histogram(Arc<Histogram>),
}

impl From<Arc<Counter>> for Handle {
    fn from(c: Arc<Counter>) -> Handle {
        Handle::Counter(c)
    }
}

impl From<Arc<Gauge>> for Handle {
    fn from(g: Arc<Gauge>) -> Handle {
        Handle::Gauge(g)
    }
}

impl From<Arc<Histogram>> for Handle {
    fn from(h: Arc<Histogram>) -> Handle {
        Handle::Histogram(h)
    }
}

impl Handle {
    fn read(&self) -> MetricValue {
        match self {
            Handle::Counter(c) => MetricValue::Counter(c.get()),
            Handle::Gauge(g) => MetricValue::Gauge(g.get()),
            Handle::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
        }
    }
}

/// One series: the label set it was created with and the handles behind
/// it, all of one kind — the one it was created with and, for a component
/// that counts per shard, one more *stripe* per further shard (the series
/// reads as their sum). The map key is the full series identity
/// (`name{k="v",...}`), so differently labeled series of one family are
/// distinct entries that sort together.
struct Entry {
    labels: Vec<(String, String)>,
    first: Handle,
    more: Vec<Handle>,
}

impl Entry {
    fn read(&self) -> MetricValue {
        self.more
            .iter()
            .map(Handle::read)
            .fold(self.first.read(), |a, b| match (a, b) {
                (MetricValue::Counter(x), MetricValue::Counter(y)) => MetricValue::Counter(x + y),
                (MetricValue::Gauge(x), MetricValue::Gauge(y)) => MetricValue::Gauge(x + y),
                (MetricValue::Histogram(mut x), MetricValue::Histogram(y)) => {
                    x.merge(&y);
                    MetricValue::Histogram(x)
                }
                _ => unreachable!("invariant: the stripes of a series are of one kind"),
            })
    }
}

/// Renders `{k="v",...}` with Prometheus escaping, or `""` when empty.
#[must_use]
pub fn label_suffix(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

fn identity(name: &str, labels: &[(String, String)]) -> String {
    let mut id = name.to_owned();
    id.push_str(&label_suffix(labels));
    id
}

/// One gathered metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram snapshot (boxed: a snapshot is ~500 bytes of buckets,
    /// which would otherwise bloat every counter sample to match).
    Histogram(Box<HistSnapshot>),
}

/// One named sample from [`MetricsRegistry::gather`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The metric family name (see the crate docs for the naming scheme).
    pub name: String,
    /// Label pairs distinguishing this series within its family
    /// (empty for unlabeled metrics).
    pub labels: Vec<(String, String)>,
    /// The value at gather time.
    pub value: MetricValue,
}

impl Sample {
    /// The full series identity: `name{k="v",...}` (or just the name when
    /// unlabeled). Used as the JSON exposition key.
    #[must_use]
    pub fn identity(&self) -> String {
        identity(&self.name, &self.labels)
    }
}

/// A registry of named metrics.
///
/// # Examples
///
/// ```
/// use clio_obs::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// reg.counter("clio_demo_ops_total").add(3);
/// reg.histogram("clio_demo_latency_ns").record(1500);
/// let text = clio_obs::expo::render_prometheus(&reg);
/// assert!(text.contains("clio_demo_ops_total 3"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Entry>>,
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The first handle of series `name{labels…}`: `fresh()` if the series
    /// did not exist.
    fn get_or_create(&self, name: &str, labels: &[(&str, &str)], fresh: fn() -> Handle) -> Handle {
        let labels = owned_labels(labels);
        let mut m = self.metrics.lock();
        let entry = m.entry(identity(name, &labels)).or_insert_with(|| Entry {
            labels,
            first: fresh(),
            more: Vec::new(),
        });
        entry.first.clone()
    }

    /// The counter named `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind —
    /// that is a wiring bug, not a runtime condition.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// The counter series `name{labels…}`, creating it if absent. Series
    /// of one family with different label values are independent counters.
    ///
    /// # Panics
    /// Panics if the series is already registered as a different kind.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_create(name, labels, || Handle::Counter(Arc::default())) {
            Handle::Counter(c) => c,
            _ => panic!("metric {name} is not a counter"),
        }
    }

    /// The gauge named `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_create(name, &[], || Handle::Gauge(Arc::default())) {
            Handle::Gauge(g) => g,
            _ => panic!("metric {name} is not a gauge"),
        }
    }

    /// The histogram named `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// The histogram series `name{labels…}`, creating it if absent.
    ///
    /// # Panics
    /// Panics if the series is already registered as a different kind.
    #[must_use]
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.get_or_create(name, labels, || Handle::Histogram(Arc::default())) {
            Handle::Histogram(h) => h,
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// Adopts a handle its component created itself (a component built
    /// with no registry in reach, like the block cache) as series `name`.
    /// Adopting under a name that already has handles adds a stripe: the
    /// series reads as the sum of its handles, which is how a component
    /// that counts per shard serves its total without a second counter on
    /// the hot path.
    ///
    /// # Panics
    /// Panics if `name` already holds handles of a different kind.
    pub fn adopt(&self, name: &str, handle: impl Into<Handle>) {
        use std::collections::btree_map::Entry::{Occupied, Vacant};
        let handle = handle.into();
        match self.metrics.lock().entry(name.to_owned()) {
            Vacant(slot) => {
                slot.insert(Entry {
                    labels: Vec::new(),
                    first: handle,
                    more: Vec::new(),
                });
            }
            Occupied(mut series) => {
                let series = series.get_mut();
                assert!(
                    std::mem::discriminant(&series.first) == std::mem::discriminant(&handle),
                    "metric {name} adopted as two kinds"
                );
                series.more.push(handle);
            }
        }
    }

    /// Reads every metric, sorted by series identity (labeled series of
    /// one family sort together, after the unlabeled series if any).
    #[must_use]
    pub fn gather(&self) -> Vec<Sample> {
        let m = self.metrics.lock();
        m.iter()
            .map(|(key, entry)| Sample {
                name: match key.find('{') {
                    Some(brace) => key[..brace].to_owned(),
                    None => key.clone(),
                },
                labels: entry.labels.clone(),
                value: entry.read(),
            })
            .collect()
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.lock().len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("clio_test_ops_total");
        c.inc();
        c.add(4);
        reg.gauge("clio_test_depth").set(-3);
        // Re-asking by name returns the same underlying atomic.
        assert_eq!(reg.counter("clio_test_ops_total").get(), 5);
        let samples = reg.gather();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "clio_test_depth");
        assert_eq!(samples[0].value, MetricValue::Gauge(-3));
        assert_eq!(samples[1].value, MetricValue::Counter(5));
    }

    #[test]
    fn adopted_handles_are_read_in_place_and_stripes_sum() {
        let reg = MetricsRegistry::new();
        let stripes = [Arc::new(Counter::default()), Arc::new(Counter::default())];
        for (i, c) in stripes.iter().enumerate() {
            reg.adopt(&format!("clio_test_shard{i}_total"), c.clone());
            reg.adopt("clio_test_total", c.clone());
        }
        let depth = Arc::new(Gauge::default());
        reg.adopt("clio_test_depth", depth.clone());
        stripes[0].add(7);
        stripes[1].add(2);
        depth.set(-4);
        let value = |name: &str| {
            let samples = reg.gather();
            samples
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.value.clone())
        };
        assert_eq!(
            value("clio_test_shard0_total"),
            Some(MetricValue::Counter(7))
        );
        assert_eq!(value("clio_test_total"), Some(MetricValue::Counter(9)));
        assert_eq!(value("clio_test_depth"), Some(MetricValue::Gauge(-4)));
        stripes[1].inc();
        assert_eq!(value("clio_test_total"), Some(MetricValue::Counter(10)));
    }

    #[test]
    #[should_panic(expected = "adopted as two kinds")]
    fn adopting_a_second_kind_panics() {
        let reg = MetricsRegistry::new();
        reg.adopt("clio_test_x", Arc::new(Counter::default()));
        reg.adopt("clio_test_x", Arc::new(Gauge::default()));
    }

    #[test]
    fn histograms_register_and_gather() {
        let reg = MetricsRegistry::new();
        reg.histogram("clio_test_latency_ns").record(100);
        let external = Arc::new(Histogram::new());
        external.record(9);
        reg.adopt("clio_test_ext_ns", external);
        let samples = reg.gather();
        assert_eq!(samples.len(), 2);
        let MetricValue::Histogram(h) = &samples[0].value else {
            panic!("expected histogram");
        };
        assert_eq!(h.count, 1);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.gauge("clio_test_x");
        let _ = reg.counter("clio_test_x");
    }

    #[test]
    fn labeled_series_are_independent_and_identified() {
        let reg = MetricsRegistry::new();
        reg.counter_with("clio_log_appends_total", &[("log", "1")])
            .add(2);
        reg.counter_with("clio_log_appends_total", &[("log", "2")])
            .add(5);
        // Re-asking with the same labels returns the same series.
        assert_eq!(
            reg.counter_with("clio_log_appends_total", &[("log", "1")])
                .get(),
            2
        );
        reg.histogram_with("clio_log_append_ns", &[("log", "1")])
            .record(100);
        let samples = reg.gather();
        assert_eq!(samples.len(), 3);
        let appends: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.name == "clio_log_appends_total")
            .collect();
        assert_eq!(appends.len(), 2);
        assert_eq!(appends[0].labels, vec![("log".to_owned(), "1".to_owned())]);
        assert_eq!(appends[0].identity(), "clio_log_appends_total{log=\"1\"}");
        assert_eq!(appends[0].value, MetricValue::Counter(2));
        assert_eq!(appends[1].value, MetricValue::Counter(5));
    }

    #[test]
    fn label_values_are_escaped() {
        let labels = vec![("k".to_owned(), "a\"b\\c\n".to_owned())];
        assert_eq!(label_suffix(&labels), "{k=\"a\\\"b\\\\c\\n\"}");
        assert_eq!(label_suffix(&[]), "");
    }
}
