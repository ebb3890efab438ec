//! The metrics registry: named counters, gauges and histograms.
//!
//! A component counts by holding handles (`Arc<Counter>`, `Arc<Gauge>`,
//! `Arc<Histogram>`) and updating them on its hot path. It registers once,
//! as one [`MetricSource`] that reads those same handles in place when a
//! scrape asks: there is no second copy to keep in step, nothing to poll,
//! and no per-series registration. A scrape ([`MetricsRegistry::gather`])
//! names every series then, and sums the samples that share an identity,
//! so a total over finer series (per shard, per log) is not counted again:
//! each stripe emits it, and it reads as their sum.

use std::ops::Range;
use std::sync::Arc;

use clio_testkit::sync::atomic::{RelaxedI64, RelaxedU64};
use clio_testkit::sync::Mutex;

use crate::hist::HistSnapshot;

/// A monotonically increasing atomic counter (bookkeeping: see `RelaxedU64`).
#[derive(Debug, Default)]
pub struct Counter(RelaxedU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load()
    }
}

/// An atomic gauge (a value that can go up and down; bookkeeping).
#[derive(Debug, Default)]
pub struct Gauge(RelaxedI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load()
    }
}

/// A component's metrics, registered once and read in place at scrape.
pub trait MetricSource: Send + Sync {
    /// Emits the current value of every series the component serves.
    fn collect(&self, out: &mut Collector);
}

fn push_labels<K: AsRef<str>, V: AsRef<str>>(out: &mut String, labels: &[(K, V)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k.as_ref());
        out.push_str("=\"");
        for c in v.as_ref().chars() {
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
}

/// Renders `{k="v",...}` with Prometheus escaping, or `""` when empty.
#[must_use]
pub fn label_suffix(labels: &[(String, String)]) -> String {
    let mut out = String::new();
    push_labels(&mut out, labels);
    out
}

fn identity<K: AsRef<str>, V: AsRef<str>>(name: &str, labels: &[(K, V)]) -> String {
    let mut id = name.to_owned();
    push_labels(&mut id, labels);
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

/// What one scrape gathers into. Each emission is appended to a few
/// growing buffers rather than given allocations of its own; at the end
/// of the scrape they are sorted by identity, and the emissions that
/// share one are summed. A scrape of a service with many logs thus
/// allocates per series it serves, as a registry of series would, and
/// leaves no trail of small short-lived allocations among the service's.
#[derive(Default)]
pub struct Collector {
    /// Each emission's identity, followed by its raw label keys and values.
    text: String,
    emitted: Vec<Emitted>,
    /// Spans of `text` holding each emitted label's key and value.
    labels: Vec<(Range<usize>, Range<usize>)>,
    hists: Vec<HistSnapshot>,
}

/// One emission: spans of the collector's buffers, and its value.
struct Emitted {
    /// The identity, `name{k="v",...}`, in `text`; the name is its prefix.
    id: Range<usize>,
    name_len: usize,
    /// Its label pairs, in `labels`.
    labels: Range<usize>,
    value: Emission,
}

enum Emission {
    Counter(u64),
    Gauge(i64),
    /// An index into `hists`.
    Histogram(usize),
}

fn clash(name: &str) -> ! {
    panic!("metric {name} emitted as two kinds")
}

impl Collector {
    fn emit(&mut self, name: &str, labels: &[(&str, &str)], value: Emission) {
        let start = self.text.len();
        self.text.push_str(name);
        push_labels(&mut self.text, labels);
        let id = start..self.text.len();
        let first_label = self.labels.len();
        for (k, v) in labels {
            let k_at = self.text.len();
            self.text.push_str(k);
            let v_at = self.text.len();
            self.text.push_str(v);
            self.labels.push((k_at..v_at, v_at..self.text.len()));
        }
        self.emitted.push(Emitted {
            id,
            name_len: name.len(),
            labels: first_label..self.labels.len(),
            value,
        });
    }

    /// Adds `v` to counter `name{labels…}`.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.emit(name, labels, Emission::Counter(v));
    }

    /// Adds `v` to gauge `name{labels…}`.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], v: i64) {
        self.emit(name, labels, Emission::Gauge(v));
    }

    /// Merges `h` into histogram `name{labels…}`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &HistSnapshot) {
        self.hists.push(*h);
        self.emit(name, labels, Emission::Histogram(self.hists.len() - 1));
    }

    /// The gathered samples, sorted by identity, one per identity: the
    /// sum of that identity's emissions.
    ///
    /// # Panics
    /// Panics if two emissions of one identity disagree on its kind.
    #[must_use]
    fn finish(mut self) -> Vec<Sample> {
        let text = self.text.as_str();
        let id = |e: &Emitted| &text[e.id.clone()];
        self.emitted.sort_by(|a, b| id(a).cmp(id(b)));
        let runs = self.emitted.chunk_by(|a, b| id(a) == id(b));
        let mut samples = Vec::with_capacity(runs.clone().count());
        for run in runs {
            let first = &run[0];
            let name = &text[first.id.start..first.id.start + first.name_len];
            let mut value = match first.value {
                Emission::Counter(_) => MetricValue::Counter(0),
                Emission::Gauge(_) => MetricValue::Gauge(0),
                Emission::Histogram(_) => MetricValue::Histogram(Box::default()),
            };
            for e in run {
                match (&mut value, &e.value) {
                    (MetricValue::Counter(x), Emission::Counter(v)) => *x += v,
                    (MetricValue::Gauge(x), Emission::Gauge(v)) => *x += v,
                    (MetricValue::Histogram(x), Emission::Histogram(i)) => {
                        x.merge(&self.hists[*i]);
                    }
                    _ => clash(name),
                }
            }
            samples.push(Sample {
                name: name.to_owned(),
                labels: self.labels[first.labels.clone()]
                    .iter()
                    .map(|(k, v)| (text[k.clone()].to_owned(), text[v.clone()].to_owned()))
                    .collect(),
                value,
            });
        }
        samples
    }
}

/// A registry of metric sources.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use clio_obs::{Collector, Counter, MetricSource, MetricsRegistry};
///
/// #[derive(Default)]
/// struct Demo {
///     ops: Counter,
/// }
///
/// impl MetricSource for Demo {
///     fn collect(&self, out: &mut Collector) {
///         out.counter("clio_demo_ops_total", &[], self.ops.get());
///     }
/// }
///
/// let reg = MetricsRegistry::new();
/// let demo = Arc::new(Demo::default());
/// reg.register(demo.clone());
/// demo.ops.add(3);
/// let text = clio_obs::expo::render_prometheus(&reg);
/// assert!(text.contains("clio_demo_ops_total 3"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<Vec<Arc<dyn MetricSource>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers `source`: every later [`gather`](Self::gather) reads it.
    pub fn register(&self, source: Arc<dyn MetricSource>) {
        self.sources.lock().push(source);
    }

    /// Sources registered so far: the registry's share of a service's
    /// fixed cost, one per component.
    #[must_use]
    pub fn registrations(&self) -> usize {
        self.sources.lock().len()
    }

    /// Reads every metric, sorted by series identity (labeled series of
    /// one family sort together, after the unlabeled series if any). The
    /// sources are read outside the registry's lock.
    ///
    /// # Panics
    /// Panics if two emitters of one identity disagree on its kind.
    #[must_use]
    pub fn gather(&self) -> Vec<Sample> {
        let sources = self.sources.lock().clone();
        let mut out = Collector::default();
        for source in &sources {
            source.collect(&mut out);
        }
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    /// A test component: one handle of each kind.
    #[derive(Default)]
    struct Part {
        ops: Counter,
        depth: Gauge,
        ns: Histogram,
    }

    impl MetricSource for Part {
        fn collect(&self, out: &mut Collector) {
            out.counter("clio_test_ops_total", &[], self.ops.get());
            out.gauge("clio_test_depth", &[], self.depth.get());
            out.histogram("clio_test_ns", &[], &self.ns.snapshot());
        }
    }

    fn value(reg: &MetricsRegistry, id: &str) -> Option<MetricValue> {
        reg.gather()
            .into_iter()
            .find(|s| s.identity() == id)
            .map(|s| s.value)
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let part = Arc::new(Part::default());
        reg.register(part.clone());
        part.ops.inc();
        part.ops.add(4);
        part.depth.set(-3);
        let samples = reg.gather();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "clio_test_depth");
        assert_eq!(samples[0].value, MetricValue::Gauge(-3));
        assert_eq!(samples[2].value, MetricValue::Counter(5));
        // The source reads its handles in place: a later event shows.
        part.ops.inc();
        assert_eq!(
            value(&reg, "clio_test_ops_total"),
            Some(MetricValue::Counter(6))
        );
    }

    #[test]
    fn histograms_register_and_gather() {
        let reg = MetricsRegistry::new();
        let part = Arc::new(Part::default());
        reg.register(part.clone());
        part.ns.record(100);
        let Some(MetricValue::Histogram(h)) = value(&reg, "clio_test_ns") else {
            panic!("expected histogram");
        };
        assert_eq!((h.count, h.sum), (1, 100));
    }

    #[test]
    fn equal_identities_from_two_sources_sum() {
        let reg = MetricsRegistry::new();
        let (a, b) = (Arc::new(Part::default()), Arc::new(Part::default()));
        reg.register(a.clone());
        reg.register(b.clone());
        a.ops.add(7);
        b.ops.add(2);
        a.depth.set(-4);
        b.depth.set(1);
        a.ns.record(5);
        b.ns.record(9);
        assert_eq!(
            value(&reg, "clio_test_ops_total"),
            Some(MetricValue::Counter(9))
        );
        assert_eq!(value(&reg, "clio_test_depth"), Some(MetricValue::Gauge(-3)));
        let Some(MetricValue::Histogram(ns)) = value(&reg, "clio_test_ns") else {
            panic!("expected a histogram");
        };
        assert_eq!((ns.count, ns.sum, ns.min, ns.max), (2, 14, 5, 9));
        assert_eq!(reg.registrations(), 2);
    }

    #[test]
    fn a_source_registered_before_any_event_reads_zero() {
        let reg = MetricsRegistry::new();
        reg.register(Arc::new(Part::default()));
        assert_eq!(
            value(&reg, "clio_test_ops_total"),
            Some(MetricValue::Counter(0))
        );
        assert_eq!(value(&reg, "clio_test_depth"), Some(MetricValue::Gauge(0)));
        let Some(MetricValue::Histogram(ns)) = value(&reg, "clio_test_ns") else {
            panic!("expected a histogram");
        };
        assert!(ns.is_empty());
    }

    /// Emits labeled series out of order, and one total they share.
    struct Logs;

    impl MetricSource for Logs {
        fn collect(&self, out: &mut Collector) {
            for (log, n) in [("9", 9), ("10", 10), ("8", 8)] {
                out.counter("clio_log_appends_total", &[("log", log)], n);
                out.counter("clio_log_appends_total", &[], n);
            }
            out.counter("clio_log_appends_total_x", &[], 1);
        }
    }

    /// Sorted by identity: the family's unlabeled total first, then a
    /// family that shares its prefix, then the labeled series.
    #[test]
    fn labeled_series_are_independent_and_identified() {
        let reg = MetricsRegistry::new();
        reg.register(Arc::new(Logs));
        let ids: Vec<String> = reg.gather().iter().map(Sample::identity).collect();
        assert_eq!(
            ids,
            [
                "clio_log_appends_total",
                "clio_log_appends_total_x",
                "clio_log_appends_total{log=\"10\"}",
                "clio_log_appends_total{log=\"8\"}",
                "clio_log_appends_total{log=\"9\"}",
            ]
        );
        let samples = reg.gather();
        assert_eq!(samples[0].value, MetricValue::Counter(27));
        assert_eq!(samples[3].name, "clio_log_appends_total");
        assert_eq!(samples[3].labels, vec![("log".to_owned(), "8".to_owned())]);
        assert_eq!(samples[3].value, MetricValue::Counter(8));
        assert_eq!(samples[4].value, MetricValue::Counter(9));
    }

    struct GaugeOps;

    impl MetricSource for GaugeOps {
        fn collect(&self, out: &mut Collector) {
            out.gauge("clio_test_ops_total", &[], 1);
        }
    }

    #[test]
    #[should_panic(expected = "emitted as two kinds")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.register(Arc::new(Part::default()));
        reg.register(Arc::new(GaugeOps));
        let _ = reg.gather();
    }

    #[test]
    fn label_values_are_escaped() {
        let labels = vec![("k".to_owned(), "a\"b\\c\n".to_owned())];
        assert_eq!(label_suffix(&labels), "{k=\"a\\\"b\\\\c\\n\"}");
        assert_eq!(label_suffix(&[]), "");
        let mut out = Collector::default();
        out.counter("clio_test_total", &[("k", "a\"b\\c\n")], 1);
        let samples = out.finish();
        let ids: Vec<String> = samples.iter().map(Sample::identity).collect();
        assert_eq!(ids, ["clio_test_total{k=\"a\\\"b\\\\c\\n\"}"]);
        assert_eq!(
            samples[0].labels,
            [("k".to_owned(), "a\"b\\c\n".to_owned())]
        );
    }
}
