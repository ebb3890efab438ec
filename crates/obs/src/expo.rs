//! Exposition: rendering a [`MetricsRegistry`] as Prometheus-style text
//! or as a JSON document.
//!
//! The text format follows the Prometheus conventions closely enough to be
//! scraped (one `# TYPE` line per metric, `_bucket{le=...}` /`_sum`/
//! `_count` series for histograms) while staying dependency-free. The JSON
//! form is the same sample set as a single object keyed by metric name —
//! histograms become objects with `count`/`sum`/`min`/`max`/quantiles.

use std::fmt::Write as _;

use crate::hist::{bucket_upper_bound, HistSnapshot, BUCKETS};
use crate::json::Value;
use crate::registry::{label_suffix, MetricValue, MetricsRegistry};

/// Renders the registry in a Prometheus-style text format. Labeled series
/// of one family share a single `# TYPE` line (gather order keeps them
/// adjacent); histogram labels merge with the `le` bucket label.
#[must_use]
pub fn render_prometheus(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut last_family: Option<(String, &'static str)> = None;
    for sample in reg.gather() {
        let kind = match &sample.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        if last_family.as_ref() != Some(&(sample.name.clone(), kind)) {
            let _ = writeln!(out, "# TYPE {} {}", sample.name, kind);
            last_family = Some((sample.name.clone(), kind));
        }
        let labels = label_suffix(&sample.labels);
        match &sample.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {}", sample.name, labels, v);
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{}{} {}", sample.name, labels, v);
            }
            MetricValue::Histogram(h) => {
                // `le` joins the series' own labels inside one brace set.
                let open = if sample.labels.is_empty() {
                    "{".to_owned()
                } else {
                    let mut o = labels.clone();
                    o.pop();
                    o.push(',');
                    o
                };
                let mut cumulative = 0u64;
                for i in 0..BUCKETS {
                    if h.buckets[i] == 0 {
                        continue;
                    }
                    cumulative += h.buckets[i];
                    let _ = writeln!(
                        out,
                        "{}_bucket{}le=\"{}\"}} {}",
                        sample.name,
                        open,
                        bucket_upper_bound(i),
                        cumulative
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{}le=\"+Inf\"}} {}",
                    sample.name, open, h.count
                );
                let _ = writeln!(out, "{}_sum{} {}", sample.name, labels, h.sum);
                let _ = writeln!(out, "{}_count{} {}", sample.name, labels, h.count);
            }
        }
    }
    out
}

fn hist_to_json(h: &HistSnapshot) -> Value {
    Value::obj(vec![
        ("count", Value::Int(h.count as i64)),
        ("sum", Value::Int(h.sum as i64)),
        (
            "min",
            if h.is_empty() {
                Value::Null
            } else {
                Value::Int(h.min as i64)
            },
        ),
        ("max", Value::Int(h.max as i64)),
        ("p50", Value::Int(h.p50() as i64)),
        ("p90", Value::Int(h.p90() as i64)),
        ("p99", Value::Int(h.p99() as i64)),
        ("mean", Value::Float(h.mean())),
    ])
}

/// Renders the registry as a JSON [`Value`]: one object keyed by series
/// identity (`name` or `name{k="v"}` for labeled series), with
/// counters/gauges as integers and histograms as summary objects.
#[must_use]
pub fn to_json(reg: &MetricsRegistry) -> Value {
    Value::Obj(
        reg.gather()
            .into_iter()
            .map(|sample| {
                let v = match &sample.value {
                    MetricValue::Counter(v) => Value::Int(*v as i64),
                    MetricValue::Gauge(v) => Value::Int(*v),
                    MetricValue::Histogram(h) => hist_to_json(h),
                };
                (sample.identity(), v)
            })
            .collect(),
    )
}

/// Renders the registry as a pretty-printed JSON string.
#[must_use]
pub fn render_json(reg: &MetricsRegistry) -> String {
    to_json(reg).encode_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    struct Demo;

    impl crate::MetricSource for Demo {
        fn collect(&self, out: &mut crate::Collector) {
            out.counter("clio_demo_reads_total", &[], 12);
            out.gauge("clio_demo_open", &[], 2);
            let h = crate::Histogram::new();
            for v in [100u64, 200, 400, 100_000] {
                h.record(v);
            }
            out.histogram("clio_demo_latency_ns", &[], &h.snapshot());
        }
    }

    fn demo_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.register(std::sync::Arc::new(Demo));
        reg
    }

    #[test]
    fn prometheus_text_has_types_and_series() {
        let text = render_prometheus(&demo_registry());
        assert!(text.contains("# TYPE clio_demo_reads_total counter"));
        assert!(text.contains("clio_demo_reads_total 12"));
        assert!(text.contains("# TYPE clio_demo_open gauge"));
        assert!(text.contains("# TYPE clio_demo_latency_ns histogram"));
        assert!(text.contains("clio_demo_latency_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("clio_demo_latency_ns_count 4"));
        assert!(text.contains("clio_demo_latency_ns_sum 100700"));
        // Bucket series are cumulative.
        assert!(text.contains("_bucket{le=\"255\"} 2"));
    }

    #[test]
    fn json_round_trips_and_has_quantiles() {
        let text = render_json(&demo_registry());
        let v = json::parse(&text).unwrap();
        assert_eq!(
            v.get("clio_demo_reads_total").and_then(Value::as_i64),
            Some(12)
        );
        let h = v.get("clio_demo_latency_ns").unwrap();
        assert_eq!(h.get("count").and_then(Value::as_i64), Some(4));
        assert_eq!(h.get("max").and_then(Value::as_i64), Some(100_000));
        let p50 = h.get("p50").and_then(Value::as_i64).unwrap();
        assert!((200..=400).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn empty_registry_renders_empty() {
        let reg = MetricsRegistry::new();
        assert_eq!(render_prometheus(&reg), "");
        assert_eq!(to_json(&reg), Value::Obj(vec![]));
    }

    struct Logs;

    impl crate::MetricSource for Logs {
        fn collect(&self, out: &mut crate::Collector) {
            out.counter("clio_log_appends_total", &[("log", "1")], 3);
            out.counter("clio_log_appends_total", &[("log", "2")], 4);
            let h = crate::Histogram::new();
            h.record(100);
            h.record(300);
            out.histogram("clio_log_append_ns", &[("log", "1")], &h.snapshot());
        }
    }

    #[test]
    fn labeled_series_share_one_type_line() {
        let reg = MetricsRegistry::new();
        reg.register(std::sync::Arc::new(Logs));
        let text = render_prometheus(&reg);
        assert_eq!(
            text.matches("# TYPE clio_log_appends_total counter")
                .count(),
            1,
            "one TYPE line for the whole family:\n{text}"
        );
        assert!(text.contains("clio_log_appends_total{log=\"1\"} 3"));
        assert!(text.contains("clio_log_appends_total{log=\"2\"} 4"));
        // Histogram labels merge with `le` in one brace set.
        assert!(text.contains("clio_log_append_ns_bucket{log=\"1\",le=\"+Inf\"} 2"));
        assert!(text.contains("clio_log_append_ns_sum{log=\"1\"} 400"));
        assert!(text.contains("clio_log_append_ns_count{log=\"1\"} 2"));

        let v = json::parse(&render_json(&reg)).unwrap();
        assert_eq!(
            v.get("clio_log_appends_total{log=\"2\"}")
                .and_then(Value::as_i64),
            Some(4)
        );
        assert_eq!(
            v.get("clio_log_append_ns{log=\"1\"}")
                .and_then(|h| h.get("count"))
                .and_then(Value::as_i64),
            Some(2)
        );
    }
}
