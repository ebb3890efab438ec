//! The client/server boundary.
//!
//! Clio was "implemented as an extension of a conventional disk-based file
//! server" reached through the V-System's synchronous IPC; the §3.2
//! measurements decompose a synchronous log write into IPC, timestamping
//! and block-cache work. [`LogServer`] runs a [`LogService`] on its own
//! thread behind a channel, and [`ClioClient::call`] ships one operation
//! to that thread and waits for its result, counting round trips so the
//! `clio-costmodel` cost model can charge the paper's measured per-IPC
//! latency. Every service operation is reachable this way; the boundary
//! only forwards.

use clio_testkit::sync::atomic::{AtomicU64, Ordering};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

use std::sync::mpsc::{channel, Sender};

use clio_obs::{Collector, Counter, MetricSource, ObsHttpServer, ObsProvider};
use clio_types::{ClioError, Result};

use crate::service::{AppendOpts, LogService, Receipt};

/// One forwarded operation: runs on the server thread and sends its own
/// reply.
type Job = Box<dyn FnOnce(&LogService) + Send>;

/// A message to the server thread: a job to run, or `None` to stop.
type Msg = Option<Job>;

/// The server: a [`LogService`] owned by a dedicated thread, plus (when
/// spawned with an address) the HTTP observability endpoint serving the
/// service's metrics and trace ring.
pub struct LogServer {
    tx: Sender<Msg>,
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
    /// Spawns the server thread around `svc`. With `http_addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port), also starts the std-only
    /// observability endpoint (`/metrics`, `/metrics.json`, `/trace`,
    /// `/health`); a bind failure is reported on stderr and the server runs
    /// without it (the store must not fail to serve because a diagnostics
    /// port is taken). A bare [`LogService`] never opens sockets.
    #[must_use]
    pub fn spawn(svc: LogService, http_addr: Option<&str>) -> LogServer {
        let svc = Arc::new(svc);
        let http = http_addr.and_then(|bind| {
            let scrapes = Arc::new(Scrapes::default());
            svc.obs.registry().register(scrapes.clone());
            let provider = Arc::new(ServiceObsProvider {
                svc: svc.clone(),
                scrapes,
            });
            match ObsHttpServer::start(bind, provider) {
                Ok(server) => Some(server),
                Err(e) => {
                    eprintln!("clio: observability endpoint bind {bind} failed: {e}");
                    None
                }
            }
        });
        let (tx, rx) = channel::<Msg>();
        let handle = std::thread::spawn(move || {
            while let Ok(Some(job)) = rx.recv() {
                job(&svc);
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
    /// running (the real port, when spawned on `:0`).
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

    /// Stops the server thread once the jobs already sent have run.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for LogServer {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = self.tx.send(None);
            let _ = h.join();
        }
    }
}

/// A synchronous client of a [`LogServer`] (models the V-System IPC
/// boundary of §3.2).
#[derive(Clone)]
pub struct ClioClient {
    tx: Sender<Msg>,
    ipc_round_trips: Arc<AtomicU64>,
}

impl ClioClient {
    /// One synchronous round trip: runs `op` against the service on the
    /// server thread and returns its result, or an error if the server is
    /// gone.
    pub fn call<T: Send + 'static>(
        &self,
        op: impl FnOnce(&LogService) -> Result<T> + Send + 'static,
    ) -> Result<T> {
        let gone = || ClioError::Internal("server is gone".into());
        let (reply_tx, reply_rx) = channel();
        self.ipc_round_trips.fetch_add(1, Ordering::Relaxed);
        let job: Job = Box::new(move |svc| {
            let _ = reply_tx.send(op(svc));
        });
        self.tx.send(Some(job)).map_err(|_| gone())?;
        reply_rx.recv().unwrap_or_else(|_| Err(gone()))
    }

    /// Synchronous (forced) append, as measured in §3.2.
    pub fn append_sync(&self, path: &str, data: &[u8]) -> Result<Receipt> {
        let (path, data) = (path.to_owned(), data.to_vec());
        self.call(move |svc| svc.append_path(&path, &data, AppendOpts::forced()))
    }
}
