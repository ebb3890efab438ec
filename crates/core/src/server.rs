//! The client/server boundary.
//!
//! Clio was "implemented as an extension of a conventional disk-based file
//! server" reached through the V-System's synchronous IPC; the §3.2
//! measurements decompose a synchronous log write into IPC, timestamping
//! and block-cache work. [`LogServer`] runs a [`LogService`] on its own
//! thread behind a message channel, and [`ClioClient`] issues synchronous
//! requests, counting round trips so the `clio-costmodel` cost model can charge
//! the paper's measured per-IPC latency.

use clio_testkit::sync::atomic::{AtomicU64, Ordering};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

use std::sync::mpsc::{channel, Sender};

use clio_obs::{Collector, Counter, MetricSource, ObsHttpServer, ObsProvider};
use clio_types::{ClioError, LogFileId, Result, SeqNo, Timestamp};

use crate::read::Entry;
use crate::service::{AppendOpts, Durability, LogService, Receipt};

/// A request to the log server.
#[derive(Debug, Clone)]
pub enum Request {
    /// Create a log file (and implicitly a directory entry), §2.2.
    CreateLog {
        /// Full path; ancestors must exist.
        path: String,
    },
    /// Append one entry.
    Append {
        /// Target log file path.
        path: String,
        /// Entry payload.
        data: Vec<u8>,
        /// Synchronous (forced) write — §2.3.1.
        forced: bool,
        /// Client sequence number for async unique identification (§2.1).
        seqno: Option<SeqNo>,
    },
    /// Append one entry to each of several log files in a single round
    /// trip; the reply carries every receipt. A forced batch pays one
    /// durability point (one group commit) for all items.
    AppendBatch {
        /// `(path, payload)` per entry, appended in order.
        items: Vec<(String, Vec<u8>)>,
        /// Synchronous (forced) write covering the whole batch — §2.3.1.
        forced: bool,
    },
    /// Read up to `max` entries at or after `from`.
    ReadFrom {
        /// Log file path (sublogs included).
        path: String,
        /// Start time.
        from: Timestamp,
        /// Entry budget.
        max: usize,
    },
    /// Read the last `max` entries (newest first).
    ReadLast {
        /// Log file path (sublogs included).
        path: String,
        /// Entry budget.
        max: usize,
    },
    /// List sublog names.
    List {
        /// Parent path.
        path: String,
    },
    /// Fetch a log file's catalog attributes.
    Stat {
        /// Log file path.
        path: String,
    },
    /// Seal a log file against further appends.
    Seal {
        /// Log file path.
        path: String,
    },
    /// Change a log file's permission bits.
    SetPerms {
        /// Log file path.
        path: String,
        /// New permission bits.
        perms: u16,
    },
    /// Force buffered entries to stable storage.
    Flush,
    /// Fetch the unified metrics exposition.
    Stats {
        /// `true` for JSON, `false` for the Prometheus-style text format.
        json: bool,
    },
    /// Stop the server thread.
    Shutdown,
}

/// A response from the log server.
#[derive(Debug, Clone)]
pub enum Response {
    /// A log file was created.
    Created(LogFileId),
    /// An entry was appended.
    Appended(Receipt),
    /// A batch was appended; one receipt per item, in order.
    Receipts(Vec<Receipt>),
    /// Entries read.
    Entries(Vec<Entry>),
    /// Sublog names.
    Names(Vec<String>),
    /// Catalog attributes.
    Attrs(clio_format::LogFileAttrs),
    /// The rendered metrics exposition.
    Stats(String),
    /// Generic success.
    Done,
    /// Failure.
    Fail(ClioError),
}

impl Response {
    /// Unwraps an append response.
    pub fn receipt(self) -> Result<Receipt> {
        match self {
            Response::Appended(r) => Ok(r),
            Response::Fail(e) => Err(e),
            other => Err(ClioError::Internal(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Unwraps a batch-append response.
    pub fn receipts(self) -> Result<Vec<Receipt>> {
        match self {
            Response::Receipts(v) => Ok(v),
            Response::Fail(e) => Err(e),
            other => Err(ClioError::Internal(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Unwraps an entries response.
    pub fn entries(self) -> Result<Vec<Entry>> {
        match self {
            Response::Entries(v) => Ok(v),
            Response::Fail(e) => Err(e),
            other => Err(ClioError::Internal(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Unwraps a stats response.
    pub fn stats(self) -> Result<String> {
        match self {
            Response::Stats(s) => Ok(s),
            Response::Fail(e) => Err(e),
            other => Err(ClioError::Internal(format!(
                "unexpected response {other:?}"
            ))),
        }
    }
}

type Envelope = (Request, Sender<Response>);

/// The server: a [`LogService`] owned by a dedicated thread, plus (when
/// [`crate::ServiceConfig::http_addr`] is set) the HTTP observability
/// endpoint serving the service's metrics and trace ring.
pub struct LogServer {
    tx: Sender<Envelope>,
    handle: Option<JoinHandle<()>>,
    ipc_round_trips: Arc<AtomicU64>,
    http: Option<ObsHttpServer>,
}

/// Serves the observability endpoint from the live service: metrics and
/// traces are snapshotted per request (lock-free or short-lock reads, no
/// state lock), and every scrape counts itself in the registry it scrapes.
struct ServiceObsProvider {
    svc: Arc<LogService>,
    scrapes: Arc<Scrapes>,
}

/// The endpoint's scrape count, `clio_http_scrapes_total`.
#[derive(Default)]
struct Scrapes(Counter);

impl MetricSource for Scrapes {
    fn collect(&self, out: &mut Collector) {
        out.counter("clio_http_scrapes_total", &[], self.0.get());
    }
}

impl ObsProvider for ServiceObsProvider {
    fn metrics_text(&self) -> String {
        self.scrapes.0.inc();
        self.svc.metrics_text()
    }
    fn metrics_json(&self) -> String {
        self.scrapes.0.inc();
        self.svc.metrics_json()
    }
    fn trace_json(&self) -> String {
        self.scrapes.0.inc();
        self.svc.trace_json()
    }
}

impl LogServer {
    /// Spawns the server thread around `svc`. When the config carries an
    /// `http_addr`, also starts the observability endpoint; a bind failure
    /// is reported on stderr and the server runs without it (the store
    /// must not fail to serve because a diagnostics port is taken).
    #[must_use]
    pub fn spawn(svc: LogService) -> LogServer {
        let http_addr = svc.cfg.http_addr.clone();
        let svc = Arc::new(svc);
        let http = http_addr.and_then(|bind| {
            let scrapes = Arc::new(Scrapes::default());
            svc.obs.registry().register(scrapes.clone());
            let provider = Arc::new(ServiceObsProvider {
                svc: svc.clone(),
                scrapes,
            });
            match ObsHttpServer::start(&bind, provider) {
                Ok(server) => Some(server),
                Err(e) => {
                    eprintln!("clio: observability endpoint bind {bind} failed: {e}");
                    None
                }
            }
        });
        let (tx, rx) = channel::<Envelope>();
        let handle = std::thread::spawn(move || {
            while let Ok((req, reply)) = rx.recv() {
                let shutdown = matches!(req, Request::Shutdown);
                let resp = handle_request(&svc, req);
                let _ = reply.send(resp);
                if shutdown {
                    break;
                }
            }
        });
        LogServer {
            tx,
            handle: Some(handle),
            ipc_round_trips: Arc::new(AtomicU64::new(0)),
            http,
        }
    }

    /// The bound address of the observability endpoint, when one is
    /// running (the real port, when configured on `:0`).
    #[must_use]
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(ObsHttpServer::local_addr)
    }

    /// A client handle for this server.
    #[must_use]
    pub fn client(&self) -> ClioClient {
        ClioClient {
            tx: self.tx.clone(),
            ipc_round_trips: self.ipc_round_trips.clone(),
        }
    }

    /// Total synchronous round trips served (for the §3.2 cost model).
    #[must_use]
    pub fn ipc_round_trips(&self) -> u64 {
        self.ipc_round_trips.load(Ordering::Relaxed)
    }

    /// Stops the server thread.
    pub fn shutdown(mut self) {
        let _ = self.client().call(Request::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for LogServer {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            let (reply_tx, _reply_rx) = channel();
            let _ = self.tx.send((Request::Shutdown, reply_tx));
            let _ = h.join();
        }
    }
}

/// A synchronous client of a [`LogServer`] (models the V-System IPC
/// boundary of §3.2).
#[derive(Clone)]
pub struct ClioClient {
    tx: Sender<Envelope>,
    ipc_round_trips: Arc<AtomicU64>,
}

impl ClioClient {
    /// Issues one synchronous request.
    pub fn call(&self, req: Request) -> Response {
        let (reply_tx, reply_rx) = channel();
        self.ipc_round_trips.fetch_add(1, Ordering::Relaxed);
        if self.tx.send((req, reply_tx)).is_err() {
            return Response::Fail(ClioError::Internal("server is gone".into()));
        }
        reply_rx
            .recv()
            .unwrap_or(Response::Fail(ClioError::Internal("server is gone".into())))
    }

    /// Convenience: synchronous (forced) append, as measured in §3.2.
    pub fn append_sync(&self, path: &str, data: &[u8]) -> Result<Receipt> {
        self.call(Request::Append {
            path: path.to_owned(),
            data: data.to_vec(),
            forced: true,
            seqno: None,
        })
        .receipt()
    }

    /// Convenience: appends to many log files in one round trip, one
    /// receipt per item.
    pub fn append_batch(
        &self,
        items: Vec<(String, Vec<u8>)>,
        forced: bool,
    ) -> Result<Vec<Receipt>> {
        self.call(Request::AppendBatch { items, forced }).receipts()
    }

    /// Convenience: the server's metrics in the Prometheus-style text
    /// format.
    pub fn stats_text(&self) -> Result<String> {
        self.call(Request::Stats { json: false }).stats()
    }

    /// Convenience: the server's metrics as JSON.
    pub fn stats_json(&self) -> Result<String> {
        self.call(Request::Stats { json: true }).stats()
    }
}

fn handle_request(svc: &LogService, req: Request) -> Response {
    match req {
        Request::CreateLog { path } => match svc.create_log(&path) {
            Ok(id) => Response::Created(id),
            Err(e) => Response::Fail(e),
        },
        Request::Append {
            path,
            data,
            forced,
            seqno,
        } => {
            let opts = AppendOpts {
                durability: if forced {
                    Durability::Forced
                } else {
                    Durability::Buffered
                },
                timestamped: true,
                seqno,
            };
            match svc.append_path(&path, &data, opts) {
                Ok(r) => Response::Appended(r),
                Err(e) => Response::Fail(e),
            }
        }
        Request::AppendBatch { items, forced } => {
            let opts = AppendOpts {
                durability: if forced {
                    Durability::Forced
                } else {
                    Durability::Buffered
                },
                timestamped: true,
                seqno: None,
            };
            match svc.append_batch(&items, opts) {
                Ok(v) => Response::Receipts(v),
                Err(e) => Response::Fail(e),
            }
        }
        Request::ReadFrom { path, from, max } => {
            let run = || -> Result<Vec<Entry>> {
                let mut cur = svc.cursor_from_time(&path, from)?;
                let mut out = Vec::new();
                while out.len() < max {
                    match cur.next()? {
                        Some(e) => out.push(e),
                        None => break,
                    }
                }
                Ok(out)
            };
            match run() {
                Ok(v) => Response::Entries(v),
                Err(e) => Response::Fail(e),
            }
        }
        Request::ReadLast { path, max } => {
            let run = || -> Result<Vec<Entry>> {
                let mut cur = svc.cursor_from_end(&path)?;
                let mut out = Vec::new();
                while out.len() < max {
                    match cur.prev()? {
                        Some(e) => out.push(e),
                        None => break,
                    }
                }
                Ok(out)
            };
            match run() {
                Ok(v) => Response::Entries(v),
                Err(e) => Response::Fail(e),
            }
        }
        Request::List { path } => match svc.list(&path) {
            Ok(v) => Response::Names(v),
            Err(e) => Response::Fail(e),
        },
        Request::Stat { path } => match svc.resolve(&path).and_then(|id| svc.attrs(id)) {
            Ok(a) => Response::Attrs(a),
            Err(e) => Response::Fail(e),
        },
        Request::Seal { path } => match svc.resolve(&path).and_then(|id| svc.seal_log(id)) {
            Ok(()) => Response::Done,
            Err(e) => Response::Fail(e),
        },
        Request::SetPerms { path, perms } => {
            match svc.resolve(&path).and_then(|id| svc.set_perms(id, perms)) {
                Ok(()) => Response::Done,
                Err(e) => Response::Fail(e),
            }
        }
        Request::Flush => match svc.flush() {
            Ok(()) => Response::Done,
            Err(e) => Response::Fail(e),
        },
        Request::Stats { json } => Response::Stats(if json {
            svc.metrics_json()
        } else {
            svc.metrics_text()
        }),
        Request::Shutdown => Response::Done,
    }
}
