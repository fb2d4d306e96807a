//! The long-running daemon: one [`VerificationService`] shared by two
//! listeners.
//!
//! * The **sync listener** speaks the `rvaas-client` delta-sync protocol
//!   over length-prefixed TCP frames: each frame is an in-band
//!   [`rvaas_client::SyncRequest`], answered from the live epoch store. A
//!   peer speaking an unsupported protocol major version gets a
//!   [`SyncReject`] frame back (the negotiation half of the version
//!   handshake) and the connection is closed.
//! * The **HTTP listener** serves the query/trace/status API and the
//!   Prometheus exposition (see [`crate::http`]) over persistent
//!   keep-alive connections.
//!
//! There is **one thread tier** and no queue: each listener's `workers`
//! connection threads share its socket, and each loops `accept → serve`:
//! it parses, verifies (the service runs a query on the calling thread) and
//! writes the response. A misbehaving client burns at most one of them. A
//! connection beyond the `workers` being served waits in the kernel's listen
//! backlog, not in the daemon, and is counted (`*_total`) only when a thread
//! accepts it. Shutdown is cooperative: [`Daemon::shutdown`] flips a shared
//! flag and opens one wake-up connection per thread on each listener; a
//! thread reads the flag before and after each `accept`, so an idle one
//! exits on the next connection and a busy one once its connection ends. A
//! connection no thread has taken by then is closed unanswered.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rvaas::NetworkSnapshot;
use rvaas_client::{read_frame, write_frame, SyncReject};
use rvaas_controlplane::benign_rules;
use rvaas_service::{ServiceError, SyncServer, VerificationService};
use rvaas_telemetry::{Counter, Gauge, Registry};
use rvaas_types::SimTime;

use crate::config::DaemonConfig;
use crate::http;

/// Pause after a failed `accept`, so a persistent error cannot spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// Read timeout on sync connections: bounds both a stuck peer and the
/// drain latency at shutdown.
const SYNC_READ_TIMEOUT: Duration = Duration::from_millis(100);
/// Read timeout on HTTP connections: bounds a stalled request and caps how
/// long an idle keep-alive connection can pin a connection thread.
const HTTP_READ_TIMEOUT: Duration = Duration::from_millis(1000);

/// A running `rvaas` daemon.
#[derive(Debug)]
pub struct Daemon {
    service: Arc<VerificationService>,
    sync_server: Arc<SyncServer>,
    shutdown: Arc<AtomicBool>,
    http_addr: Option<SocketAddr>,
    sync_addr: Option<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
    /// Connection threads per listener, as `workers` configures them.
    workers: usize,
    started: Instant,
}

impl Daemon {
    /// Builds the topology, starts the verification service, publishes the
    /// initial routing epoch and binds the configured listeners.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Config`] for a bad topology spec or an
    /// unbindable listen address, and propagates publish failures.
    pub fn start(config: &DaemonConfig) -> Result<Self, ServiceError> {
        let topology = config.build_topology()?;
        let service = Arc::new(VerificationService::new(topology.clone(), config.cache));
        let registry = service.registry();
        let workers = config.workers.max(1);
        workers_gauge(&registry).set(workers as i64);
        registry
            .gauge_with(
                "rvaas_build_info",
                "Build metadata; always 1, version in the label.",
                &[("version", env!("CARGO_PKG_VERSION"))],
            )
            .set(1);
        // Epoch 1: the configured rules file when one is given, the benign
        // shortest-path routing state otherwise (the daemon's stand-in for a
        // controller feed; `try_publish` on the service keeps advancing it).
        let rules = match &config.rules_file {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| ServiceError::Config(format!("cannot read {path}: {e}")))?;
                crate::rules::parse_rules(&text)
                    .map_err(|e| ServiceError::Config(format!("{path}: {e}")))?
            }
            None => benign_rules(&topology),
        };
        let at = SimTime::from_millis(1);
        let snapshot = NetworkSnapshot::with_rules(at, rules, at);
        service.try_publish(&snapshot, at)?;

        // Distinct per process start, so reconnecting clients detect a
        // restart and fall back to a reset (session 0 means "none").
        let session_id = (std::process::id() % u32::from(u16::MAX - 1) + 1) as u16;
        let sync_server = Arc::new(SyncServer::new(session_id, &registry));

        let shutdown = Arc::new(AtomicBool::new(false));
        let mut daemon = Daemon {
            service,
            sync_server,
            shutdown,
            http_addr: None,
            sync_addr: None,
            threads: Vec::new(),
            workers,
            started: Instant::now(),
        };
        if let Some(addr) = &config.sync_listen {
            let listener = bind(addr)?;
            daemon.sync_addr = Some(local_addr(&listener)?);
            daemon.spawn_listener(
                listener,
                "rvaas_sync_sessions_total",
                "Sync TCP sessions accepted.",
                serve_sync_connection,
            );
        }
        if let Some(addr) = &config.http_listen {
            let listener = bind(addr)?;
            daemon.http_addr = Some(local_addr(&listener)?);
            daemon.spawn_listener(
                listener,
                "rvaas_http_connections_total",
                "HTTP connections accepted.",
                serve_http_connection,
            );
        }
        Ok(daemon)
    }

    /// The shared verification service (publish epochs, query directly).
    #[must_use]
    pub fn service(&self) -> &Arc<VerificationService> {
        &self.service
    }

    /// The sync server answering the TCP endpoint.
    #[must_use]
    pub fn sync_server(&self) -> &Arc<SyncServer> {
        &self.sync_server
    }

    /// Bound address of the HTTP listener, if one was configured.
    #[must_use]
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Bound address of the sync listener, if one was configured.
    #[must_use]
    pub fn sync_addr(&self) -> Option<SocketAddr> {
        self.sync_addr
    }

    /// Flips the shutdown flag and joins every connection thread: on
    /// return no daemon thread is running and both listeners are closed.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // A thread blocked in `accept` reads the flag when it returns: one
        // connection per thread on each listener wakes them all.
        for addr in [self.sync_addr, self.http_addr].into_iter().flatten() {
            for _ in 0..self.workers {
                let _ = TcpStream::connect(addr);
            }
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }

    /// Spawns a listener's `workers` connection threads: the one place that
    /// setting starts any, and the only threads answering queries.
    fn spawn_listener(
        &mut self,
        listener: TcpListener,
        counter_name: &'static str,
        counter_help: &'static str,
        serve: fn(&ConnectionContext, TcpStream),
    ) {
        let registry = self.service.registry();
        let context = ConnectionContext {
            service: Arc::clone(&self.service),
            sync_server: Arc::clone(&self.sync_server),
            shutdown: Arc::clone(&self.shutdown),
            accepted: registry.counter(counter_name, counter_help),
            http_requests: registry.counter(
                "rvaas_http_requests_total",
                "HTTP requests parsed by the daemon.",
            ),
            sync_frames: registry.counter(
                "rvaas_sync_frames_total",
                "Sync request frames answered by the daemon.",
            ),
            active: registry.gauge(
                "rvaas_http_connections_active",
                "HTTP connections currently being served, of at most rvaas_workers.",
            ),
            sync_active: registry.gauge(
                "rvaas_sync_sessions_active",
                "Sync TCP sessions currently being served, of at most rvaas_workers.",
            ),
            started: self.started,
        };
        let listener = Arc::new(listener);
        for _ in 0..self.workers {
            let context = context.clone();
            let listener = Arc::clone(&listener);
            self.threads.push(thread::spawn(move || {
                while !context.shutdown.load(Ordering::SeqCst) {
                    let accepted = listener.accept();
                    // Read again after every return: the connection that
                    // ended the wait may be `Daemon::shutdown`'s wake-up.
                    if context.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    match accepted {
                        Ok((stream, _peer)) => {
                            context.accepted.inc();
                            serve(&context, stream);
                        }
                        // Accept errors (e.g. a reset mid-handshake) are
                        // transient and must not kill the thread.
                        Err(_) => thread::sleep(ACCEPT_BACKOFF),
                    }
                }
            }));
        }
    }
}

/// Everything a connection thread needs, cloned per thread.
#[derive(Clone)]
struct ConnectionContext {
    service: Arc<VerificationService>,
    sync_server: Arc<SyncServer>,
    shutdown: Arc<AtomicBool>,
    accepted: Arc<Counter>,
    http_requests: Arc<Counter>,
    sync_frames: Arc<Counter>,
    active: Arc<Gauge>,
    sync_active: Arc<Gauge>,
    started: Instant,
}

/// The `rvaas_workers` gauge: the daemon sets it at start, `/v1/status`
/// reads it back.
pub(crate) fn workers_gauge(registry: &Registry) -> Arc<Gauge> {
    registry.gauge(
        "rvaas_workers",
        "Configured connection threads per listener, each answering its own requests.",
    )
}

fn bind(addr: &str) -> Result<TcpListener, ServiceError> {
    TcpListener::bind(addr).map_err(|e| ServiceError::Config(format!("cannot bind {addr}: {e}")))
}

fn local_addr(listener: &TcpListener) -> Result<SocketAddr, ServiceError> {
    listener
        .local_addr()
        .map_err(|e| ServiceError::Config(format!("listener has no local address: {e}")))
}

/// One sync session: frames in, frames out, until EOF, error or shutdown.
fn serve_sync_connection(context: &ConnectionContext, mut stream: TcpStream) {
    // A response is one frame in one write (`write_frame`): send it at once
    // rather than wait for the peer to acknowledge the previous one.
    if stream.set_read_timeout(Some(SYNC_READ_TIMEOUT)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    context.sync_active.inc();
    loop {
        if context.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let frame = match read_frame(&mut stream) {
            Ok(None) => break, // peer closed cleanly
            Ok(Some(frame)) => frame,
            Err(e) if e.is_retryable() => continue,
            Err(_) => break, // torn, oversized or dead: drop the connection
        };
        match context.sync_server.handle_frame(&context.service, &frame) {
            Ok(response) => {
                context.sync_frames.inc();
                if write_frame(&mut stream, &response).is_err() {
                    break;
                }
            }
            Err(ServiceError::VersionMismatch { supported, got }) => {
                // Negotiation: tell the peer what we speak, then hang up.
                let reject = SyncReject { supported, got }.encode();
                let _ = write_frame(&mut stream, &reject);
                break;
            }
            Err(_) => break, // undecodable frame: drop the connection
        }
    }
    context.sync_active.dec();
}

/// One HTTP connection: requests served in a keep-alive loop until the
/// client asks to close, goes idle, sends garbage or the daemon shuts down.
fn serve_http_connection(context: &ConnectionContext, mut stream: TcpStream) {
    if stream.set_read_timeout(Some(HTTP_READ_TIMEOUT)).is_err() {
        return;
    }
    context.active.inc();
    loop {
        match http::read_request(&mut stream) {
            Ok(None) => break, // idle or clean close between requests
            Ok(Some(request)) => {
                // Counted at parse time, before dispatch: a scrape of
                // /metrics observes itself.
                context.http_requests.inc();
                let response = http::route(
                    &context.service,
                    &context.sync_server,
                    &request,
                    context.started.elapsed().as_secs(),
                );
                let keep_alive = !request.close && !context.shutdown.load(Ordering::SeqCst);
                if response.write_to(&mut stream, keep_alive).is_err() || !keep_alive {
                    break;
                }
            }
            Err(why) => {
                let _ = http::HttpResponse::error(400, &why).write_to(&mut stream, false);
                break;
            }
        }
    }
    context.active.dec();
}
