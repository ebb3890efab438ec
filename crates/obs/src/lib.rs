#![warn(missing_docs)]
//! Unified observability for the Clio log service.
//!
//! Every evaluation claim in the paper reduces to counts of physical block
//! operations and their modelled costs (§3, Table 1, Figs. 2–4). This crate
//! is the substrate that lets every layer report those counts uniformly:
//!
//! - [`MetricsRegistry`]: a named registry of atomic [`Counter`]s,
//!   [`Gauge`]s and [`Histogram`]s — the handles a component counts with,
//!   handed out by the registry or created by the component and adopted;
//! - [`Histogram`]: lock-free log₂-bucketed latency/size distributions with
//!   `p50/p90/p99/max` quantile estimates, snapshot and merge;
//! - [`TraceRing`]: a fixed-capacity ring of causally linked [`Span`]s
//!   (trace id, parent id, per-phase timestamps, key/value attributes)
//!   with per-trace tree rendering, a crash-readable flight-recorder text
//!   dump, and a JSON form for the `/trace` endpoint;
//! - [`expo`]: exposition of a registry in a Prometheus-style text format
//!   and in JSON, including per-series labels (`name{log="3"}`);
//! - [`http`]: a std-only HTTP/1.1 observability endpoint
//!   (`/metrics`, `/metrics.json`, `/trace`, `/health`);
//! - [`json`]: a minimal in-tree JSON encoder/decoder (the workspace is
//!   std-only by policy — see DESIGN.md — so the bench `--json` output and
//!   its CI validation both use this).
//!
//! Metric naming scheme: `clio_<layer>_<what>[_total|_ns|_us|_bytes]`,
//! e.g. `clio_device_reads_total`, `clio_cache_hits_total`,
//! `clio_core_append_latency_ns`. Counters end in `_total`; histograms
//! name their unit.

pub mod clock;
pub mod expo;
pub mod hist;
pub mod http;
pub mod json;
pub mod registry;
pub mod trace;

pub use hist::{HistSnapshot, Histogram};
pub use http::{ObsHttpServer, ObsProvider};
pub use registry::{Counter, Gauge, Handle, MetricValue, MetricsRegistry, Sample};
pub use trace::{AttrValue, Attrs, Span, SpanGuard, SpanNode, TraceRing, TraceTree};
