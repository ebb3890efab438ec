//! Acceptance test for the ops plane: a forced append's causal span tree
//! is visible over `GET /trace`, `GET /metrics` is valid Prometheus text
//! with per-log labels, and `/health` answers — all scraped with a plain
//! `std::net::TcpStream` (the same way the CI smoke does it).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use clio_core::server::{LogServer, Request, Response};
use clio_core::service::LogService;
use clio_core::ServiceConfig;
use clio_obs::json::{self, Value};
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::MemDevicePool;

fn spawn_server() -> LogServer {
    // Two append domains, so the per-shard series carry both labels.
    let cfg = ServiceConfig::small()
        .with_shards(2)
        .with_http_addr("127.0.0.1:0");
    let svc = LogService::create(
        VolumeSeqId(9),
        Arc::new(MemDevicePool::new(256, 4096)),
        cfg,
        Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
    )
    .expect("create service");
    LogServer::spawn(svc)
}

/// One HTTP GET over a raw TcpStream; returns (head, body).
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
    let mut response = String::new();
    s.read_to_string(&mut response).expect("read");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    (head.to_owned(), body.to_owned())
}

/// Finds the first span node named `name` among `nodes` (breadth only).
fn child<'a>(nodes: &'a [Value], name: &str) -> Option<&'a Value> {
    nodes
        .iter()
        .find(|n| n.get("name").and_then(Value::as_str) == Some(name))
}

fn children(node: &Value) -> &[Value] {
    node.get("children").and_then(Value::as_arr).unwrap_or(&[])
}

fn dur_us(node: &Value) -> i64 {
    node.get("dur_us").and_then(Value::as_i64).expect("dur_us")
}

/// A forced append produces one span tree whose phases — stage, seal,
/// commit-gate wait with leader attribution, vectored device write,
/// snapshot publish — nest under the `append` root and fit inside the
/// observed end-to-end latency.
#[test]
fn forced_append_span_tree_is_served_over_http() {
    let server = spawn_server();
    let addr = server.http_addr().expect("endpoint is configured");
    let client = server.client();

    match client.call(Request::CreateLog {
        path: "/t".to_owned(),
    }) {
        Response::Created(_) => {}
        other => panic!("create failed: {other:?}"),
    }
    let t0 = clio_obs::clock::now_us();
    client.append_sync("/t", b"traced payload").expect("append");
    let e2e_us = clio_obs::clock::now_us() - t0;

    let (head, body) = get(addr, "/trace");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let doc = json::parse(&body).expect("trace body parses as JSON");
    let traces = doc.get("traces").and_then(Value::as_arr).expect("traces");

    // Find the forced append's tree: an `append` root with a commit_gate
    // child (catalog writes and the create don't go through the gate
    // with a root span open).
    let mut found = None;
    for t in traces {
        let spans = t.get("spans").and_then(Value::as_arr).expect("spans");
        if let Some(root) = child(spans, "append") {
            if child(children(root), "commit_gate").is_some() {
                found = Some(root);
            }
        }
    }
    let root = found.expect("a forced append trace with a commit gate");
    assert!(
        root.get("target").and_then(Value::as_i64).is_some(),
        "append span carries the log id"
    );
    let attrs = root.get("attrs").expect("append attrs");
    assert_eq!(
        attrs.get("bytes").and_then(Value::as_i64),
        Some(b"traced payload".len() as i64)
    );
    let shard = attrs
        .get("shard")
        .and_then(Value::as_i64)
        .expect("append span carries its shard");

    let kids = children(root);
    let stage = child(kids, "stage").expect("stage phase");
    let gate = child(kids, "commit_gate").expect("commit gate phase");
    let gate_attrs = gate.get("attrs").expect("gate attrs");
    let role = gate_attrs
        .get("role")
        .and_then(Value::as_str)
        .expect("role attribution");
    assert_eq!(role, "leader", "a lone forced append leads its own batch");
    // The leader's fourth attribute, so it also proves none was dropped.
    assert_eq!(
        gate_attrs.get("wait").and_then(Value::as_str),
        Some("none"),
        "a lone forced append neither polls nor parks"
    );
    assert_eq!(
        gate_attrs.get("shard").and_then(Value::as_i64),
        Some(shard),
        "commit gate span carries the same shard as its append"
    );

    let gate_kids = children(gate);
    let seal = child(gate_kids, "seal").expect("seal phase");
    let write = child(gate_kids, "device_write").expect("device write phase");
    let publish = child(gate_kids, "publish").expect("publish phase");

    // Phases are disjoint subintervals measured on one clock: they sum
    // to at most their parent, which fits inside the e2e latency.
    assert!(dur_us(seal) + dur_us(write) + dur_us(publish) <= dur_us(gate));
    assert!(dur_us(stage) + dur_us(gate) <= dur_us(root));
    assert!(
        dur_us(root) <= i64::try_from(e2e_us).expect("e2e fits"),
        "server-side span ({}us) cannot exceed e2e latency ({e2e_us}us)",
        dur_us(root)
    );
}

/// `/metrics` is a valid Prometheus text exposition — every line is a
/// comment or `name[{labels}] value` — and carries the per-log series.
#[test]
fn metrics_exposition_is_valid_prometheus_with_per_log_labels() {
    let server = spawn_server();
    let addr = server.http_addr().expect("endpoint is configured");
    let client = server.client();

    let id = match client.call(Request::CreateLog {
        path: "/t".to_owned(),
    }) {
        Response::Created(id) => id,
        other => panic!("create failed: {other:?}"),
    };
    client.append_sync("/t", b"one").expect("append");
    client.append_sync("/t", b"two").expect("append");
    // A second top-level log: consecutive ids route to the *other* of
    // the two append domains, so both shard labels carry appends.
    let id2 = match client.call(Request::CreateLog {
        path: "/u".to_owned(),
    }) {
        Response::Created(id) => id,
        other => panic!("create failed: {other:?}"),
    };
    client.append_sync("/u", b"three").expect("append");

    let (head, body) = get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "Prometheus content type: {head}"
    );

    let mut samples = 0usize;
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("SERIES VALUE");
        let name = series.split('{').next().expect("metric name");
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in line: {line}"
        );
        if let Some(rest) = series.strip_prefix(name) {
            if !rest.is_empty() {
                assert!(
                    rest.starts_with('{') && rest.ends_with('}'),
                    "malformed labels in line: {line}"
                );
            }
        }
        assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
        samples += 1;
    }
    assert!(samples > 10, "exposition looks empty:\n{body}");

    // Per-log series, labeled with the created log's id.
    let labeled = format!("clio_log_appends_total{{log=\"{}\"}} 2", id.0);
    assert!(body.contains(&labeled), "missing {labeled} in:\n{body}");
    assert!(body.contains(&format!(
        "clio_log_append_latency_ns_bucket{{log=\"{}\",le=\"+Inf\"}} 2",
        id.0
    )));
    // The scrape counted itself (this is the first scrape, so 1).
    assert!(body.contains("clio_http_scrapes_total 1"), "{body}");

    // Per-shard series: top-level routing is id & (shards-1), so the two
    // logs hit different append domains with their own counters.
    let (s_t, s_u) = (id.0 & 1, id2.0 & 1);
    assert_ne!(s_t, s_u, "consecutive top-level logs must split shards");
    let shard_t = format!("clio_shard_appends_total{{shard=\"{s_t}\"}} 2");
    assert!(body.contains(&shard_t), "missing {shard_t} in:\n{body}");
    let shard_u = format!("clio_shard_appends_total{{shard=\"{s_u}\"}} 1");
    assert!(body.contains(&shard_u), "missing {shard_u} in:\n{body}");
    for s in [s_t, s_u] {
        for series in [
            format!("clio_shard_commits_total{{shard=\"{s}\"}}"),
            format!("clio_shard_leader_elections_total{{shard=\"{s}\"}}"),
            format!("clio_shard_commit_batch_blocks_bucket{{shard=\"{s}\""),
            format!("clio_core_shard{s}_sealed_queue_blocks "),
        ] {
            assert!(body.contains(&series), "missing {series} in:\n{body}");
        }
    }

    // The JSON form serves the same labeled series.
    let (_, body) = get(addr, "/metrics.json");
    let doc = json::parse(&body).expect("metrics.json parses");
    let key = format!("clio_log_appends_total{{log=\"{}\"}}", id.0);
    assert_eq!(doc.get(&key).and_then(Value::as_i64), Some(2));
    let key = format!("clio_shard_appends_total{{shard=\"{s_t}\"}}");
    assert_eq!(doc.get(&key).and_then(Value::as_i64), Some(2));
}

/// `/health` answers, unknown routes 404, and an unconfigured server
/// exposes no endpoint at all.
#[test]
fn health_and_absence() {
    let server = spawn_server();
    let addr = server.http_addr().expect("endpoint is configured");
    let (head, body) = get(addr, "/health");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(body.contains("\"status\":\"ok\""));
    let (head, _) = get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    server.shutdown();

    let svc = LogService::create(
        VolumeSeqId(10),
        Arc::new(MemDevicePool::new(256, 4096)),
        ServiceConfig::small(),
        Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
    )
    .expect("create service");
    let server = LogServer::spawn(svc);
    assert!(server.http_addr().is_none(), "no knob, no socket");
}
