//! The daemon itself: socket, routing, lifecycle, runner supervision.
//!
//! [`Daemon::bind`] opens the store, recovers the queue, and binds the
//! listener; [`Daemon::run`] spawns the runner pool and serves
//! connections until the process-global shutdown flag
//! ([`walshcheck_core::shutdown`]) is raised — by a SIGTERM/SIGINT handler
//! in the binary, or programmatically in tests. Shutdown is graceful: the
//! listener stops accepting, every in-flight sweep checkpoints and
//! returns (its job is marked `interrupted` and auto-resumes on the next
//! start), and `run` returns.
//!
//! The accept thread blocks in `accept` and does nothing else: it applies
//! the connection cap ([`DaemonConfig::max_connections`]; past the cap it
//! answers `503` with `Retry-After` instead of spawning threads without
//! bound) and hands each connection to a thread of its own.
//!
//! Supervision runs on a `walshcheckd-supervisor` thread. It owns the
//! runner threads: it spawns them, beats [`JobManager::tick`] (job
//! deadlines, retry backoff) and respawns any runner that retired after a
//! caught panic, so a poisoned sweep costs one job, never the service.
//! Between beats it sleeps until the next deadline or backoff comes due,
//! or until a runner retires, a deadline starts or `stop` is called, and
//! never longer than 100 ms: the shutdown flag is raised by a signal
//! handler that can only store it, so nothing notifies the supervisor of
//! it. Once the supervisor sees the flag, it wakes the blocked `accept`
//! with a connection to the daemon's own address.
//!
//! ## Routes
//!
//! | Method + path                 | Meaning                                   |
//! |-------------------------------|-------------------------------------------|
//! | `GET /v1/health`              | liveness + version                        |
//! | `POST /v1/jobs`               | submit `{"spec":…,"netlist":"<ILANG>"}`   |
//! | `GET /v1/jobs`                | list all jobs                             |
//! | `GET /v1/jobs/{id}`           | one job's status                          |
//! | `GET /v1/jobs/{id}/report`    | the report/5 artifact, verbatim bytes     |
//! | `GET /v1/jobs/{id}/events?since=N&wait_ms=M` | progress events from line N; `wait_ms` long-polls |
//! | `POST /v1/jobs/{id}/resume`   | re-enqueue a killed/interrupted/failed/timed-out job |
//! | `DELETE /v1/jobs/{id}`        | kill a queued/running job                 |

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use walshcheck_core::json::{self, Json};
use walshcheck_core::shutdown;

use crate::http::{self, read_request, Request, Response};
use crate::jobs::{ApiError, JobManager, JobRecord, PoolConfig};
use crate::store::{FsyncEvents, Store};
use walshcheck_core::iofs::RealFs;

/// The longest the supervisor sleeps without looking at the shutdown
/// flag, and so the most a signal-raised stop waits before `accept` is
/// woken. Every other supervisor wake comes from a timer or a notify.
const FLAG_RECHECK: Duration = Duration::from_millis(100);

/// How the daemon is configured.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root directory of the artifact store.
    pub store: PathBuf,
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub listen: String,
    /// Minimum interval between checkpoint writes of a running job
    /// ([`Duration::ZERO`] writes after every batch — what the lifecycle
    /// tests use).
    pub checkpoint_every: Duration,
    /// Request-body cap; larger submissions are rejected with 413.
    pub max_body: usize,
    /// Size of the runner pool (how many jobs sweep concurrently).
    pub runners: usize,
    /// Automatic retries per `failed`/`timed-out` job (0 disables).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry, capped at 30 s.
    pub retry_base: Duration,
    /// Concurrent-connection cap; excess connections get `503` with
    /// `Retry-After` instead of a thread.
    pub max_connections: usize,
    /// Event-log durability policy (the `--fsync-events` CLI flag):
    /// how often `events.jsonl` appends are fsynced.
    pub fsync_events: FsyncEvents,
}

impl DaemonConfig {
    /// The default configuration over `store`: ephemeral port, 2 s
    /// checkpoint interval, 8 MiB body cap, no automatic retries,
    /// 128-connection cap, and a runner pool sized by the
    /// `WALSHCHECKD_RUNNERS` environment variable (default 1 — the
    /// byte-compatible single-runner behavior).
    pub fn new(store: impl Into<PathBuf>) -> DaemonConfig {
        let runners = std::env::var("WALSHCHECKD_RUNNERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1);
        DaemonConfig {
            store: store.into(),
            listen: "127.0.0.1:0".into(),
            checkpoint_every: Duration::from_secs(2),
            max_body: http::DEFAULT_MAX_BODY,
            runners,
            max_retries: 0,
            retry_base: Duration::from_millis(500),
            max_connections: 128,
            fsync_events: FsyncEvents::default(),
        }
    }
}

/// A bound, not-yet-serving daemon.
pub struct Daemon {
    listener: TcpListener,
    addr: SocketAddr,
    manager: Arc<JobManager>,
    max_body: usize,
    runners: usize,
    gate: Arc<ConnGate>,
}

impl Daemon {
    /// Opens the store, recovers queue state (including the artifact
    /// integrity scan), binds the listener and records the bound address
    /// in `<store>/daemon.addr` (so the CLI and tests can find an
    /// ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates store and socket failures.
    pub fn bind(config: &DaemonConfig) -> io::Result<Daemon> {
        let store = Store::open_with(&config.store, RealFs::shared(), config.fsync_events)?;
        let pool = PoolConfig {
            max_retries: config.max_retries,
            retry_base: config.retry_base,
        };
        let manager = JobManager::open(store.clone(), config.checkpoint_every, pool)
            .map_err(|e| io::Error::other(e.message))?;
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        std::fs::write(store.root().join("daemon.addr"), format!("{addr}\n"))?;
        Ok(Daemon {
            listener,
            addr,
            manager: Arc::new(manager),
            max_body: config.max_body,
            runners: config.runners.max(1),
            gate: Arc::new(ConnGate::new(config.max_connections.max(1))),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The job manager (for in-process inspection in tests).
    pub fn manager(&self) -> &Arc<JobManager> {
        &self.manager
    }

    /// Serves until the shutdown flag is raised, then drains gracefully.
    /// Consumes the daemon; the listener closes on return.
    ///
    /// The calling thread becomes the accept thread; the runners run
    /// under a `walshcheckd-supervisor` thread (see the module docs). On
    /// the way out — the flag, or a fatal accept error — `run` stops the
    /// manager and joins the supervisor, which joins the runners.
    ///
    /// # Errors
    ///
    /// Propagates a failure to spawn the supervisor, fatal accept errors
    /// (an interrupted accept is retried, not propagated) and a panic of
    /// the supervisor.
    pub fn run(self) -> io::Result<()> {
        let supervisor = {
            let manager = Arc::clone(&self.manager);
            let runners = self.runners;
            let wake = wake_addr(self.addr);
            std::thread::Builder::new()
                .name("walshcheckd-supervisor".into())
                .spawn(move || supervise(&manager, runners, wake))?
        };
        let served = self.accept_loop();
        // The flag also interrupts the in-flight sweeps; the runners mark
        // their jobs interrupted and exit once told to stop.
        self.manager.stop();
        let supervised = supervisor.join();
        served?;
        supervised.map_err(|_| io::Error::other("walshcheckd supervisor panicked"))
    }

    /// Accepts until the shutdown flag is raised. Daemon stop is the
    /// *only* raiser of the global flag — kills and deadlines go through
    /// per-job interrupt tokens — so a raised flag always means "stop
    /// serving"; the connection that woke `accept` is dropped unanswered.
    fn accept_loop(&self) -> io::Result<()> {
        loop {
            let accepted = self.listener.accept();
            if shutdown::requested() {
                return Ok(());
            }
            match accepted {
                Ok((stream, _peer)) => match self.gate.acquire() {
                    Some(permit) => {
                        let manager = Arc::clone(&self.manager);
                        let max_body = self.max_body;
                        // One thread per connection; Connection: close
                        // keeps lifetimes trivially bounded, the gate
                        // keeps their number bounded.
                        let _ = std::thread::Builder::new()
                            .name("walshcheckd-conn".into())
                            .spawn(move || {
                                let _permit = permit;
                                handle_connection(stream, &manager, max_body);
                            });
                    }
                    None => {
                        // Saturated: answer on the accept thread — tiny
                        // write, no request read — and move on.
                        let mut stream = stream;
                        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                        let _ = Response::error(503, "connection limit reached")
                            .with_header("Retry-After", "1")
                            .write_to(&mut stream);
                    }
                },
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The supervisor thread: spawns `runners` runner threads and, until the
/// manager stops, beats [`JobManager::tick`], respawns retired runners
/// and wakes the accept thread at `wake` once the shutdown flag is up.
/// A runner that fails to spawn is retried on the next wake. Joins every
/// runner before it returns.
fn supervise(manager: &Arc<JobManager>, runners: usize, wake: SocketAddr) {
    let mut slots: Vec<Option<JoinHandle<()>>> = (0..runners).map(|_| None).collect();
    while !manager.stopping() {
        if shutdown::requested() {
            // Repeated on every wake until `run` stops the manager, so a
            // connect that fails or races the accept thread costs one
            // re-check, never a hang.
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        }
        manager.tick();
        let retired = manager.take_retired();
        for (index, slot) in slots.iter_mut().enumerate() {
            let live = slot
                .as_ref()
                .is_some_and(|h| !h.is_finished() && !retired.contains(&h.thread().id()));
            if !live {
                if let Some(handle) = slot.take() {
                    let _ = handle.join();
                }
                *slot = spawn_runner(manager, index).ok();
            }
        }
        manager.wait_for_beat(FLAG_RECHECK);
    }
    for handle in slots.into_iter().flatten() {
        let _ = handle.join();
    }
}

fn spawn_runner(manager: &Arc<JobManager>, index: usize) -> io::Result<JoinHandle<()>> {
    let manager = Arc::clone(manager);
    std::thread::Builder::new()
        .name(format!("walshcheckd-runner-{index}"))
        .spawn(move || manager.run_loop())
}

/// Where the supervisor connects to wake the accept thread: the bound
/// address, with an unspecified IP (`0.0.0.0`, `[::]`) mapped to the
/// loopback address of its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// A counting semaphore over the connection threads. `std` has no
/// semaphore; a mutex-guarded counter with an RAII permit is all the
/// accept loop needs (acquisition never blocks — saturation is answered,
/// not queued).
struct ConnGate {
    active: Mutex<usize>,
    limit: usize,
}

/// RAII side of [`ConnGate`]: releases the slot on drop, whatever path
/// the connection thread exits through.
struct ConnPermit {
    gate: Arc<ConnGate>,
}

impl ConnGate {
    fn new(limit: usize) -> ConnGate {
        ConnGate {
            active: Mutex::new(0),
            limit,
        }
    }

    fn acquire(self: &Arc<Self>) -> Option<ConnPermit> {
        let mut active = self
            .active
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if *active >= self.limit {
            return None;
        }
        *active += 1;
        Some(ConnPermit {
            gate: Arc::clone(self),
        })
    }
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        let mut active = self
            .gate
            .active
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *active = active.saturating_sub(1);
    }
}

fn handle_connection(mut stream: TcpStream, manager: &Arc<JobManager>, max_body: usize) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let (response, drain) = match read_request(&mut stream, max_body) {
        Ok(request) => (route(&request, manager), false),
        Err(e) => (Response::error(e.status, &e.message), true),
    };
    let _ = response.write_to(&mut stream);
    if drain {
        // A rejected request (413, malformed) leaves unread body bytes on
        // the socket; closing now would RST the response out of the
        // client's receive buffer. Discard a bounded remainder until the
        // client's half-close instead (the read timeout caps a stuck peer).
        use std::io::Read as _;
        let _ = std::io::copy(
            &mut (&mut stream).take(32 * 1024 * 1024),
            &mut std::io::sink(),
        );
    }
}

fn api_result(result: Result<Response, ApiError>) -> Response {
    result.unwrap_or_else(|e| Response::error(e.status, &e.message))
}

/// Dispatches one request to the manager.
fn route(request: &Request, manager: &Arc<JobManager>) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "health"]) => Response::json(
            200,
            Json::obj([
                ("ok", Json::Bool(true)),
                ("service", Json::str("walshcheckd")),
                ("version", Json::str(env!("CARGO_PKG_VERSION"))),
            ])
            .to_canonical(),
        ),
        (_, ["v1", "health"]) => Response::error(405, "health is GET-only"),
        ("POST", ["v1", "jobs"]) => api_result(submit(request, manager)),
        ("GET", ["v1", "jobs"]) => {
            let jobs = manager.list().iter().map(JobRecord::to_json).collect();
            Response::json(200, Json::obj([("jobs", Json::Arr(jobs))]).to_canonical())
        }
        (_, ["v1", "jobs"]) => Response::error(405, "jobs is GET/POST-only"),
        ("GET", ["v1", "jobs", id]) => api_result(
            manager
                .status(id)
                .map(|r| Response::json(200, r.to_json().to_canonical())),
        ),
        ("DELETE", ["v1", "jobs", id]) => api_result(manager.kill(id).map(|state| {
            Response::json(
                202,
                Json::obj([
                    ("id", Json::str(*id)),
                    ("killing", Json::Bool(true)),
                    ("was", Json::str(state.as_str())),
                ])
                .to_canonical(),
            )
        })),
        (_, ["v1", "jobs", _id]) => Response::error(405, "job is GET/DELETE-only"),
        ("GET", ["v1", "jobs", id, "report"]) => {
            api_result(manager.report(id).map(|body| Response::json(200, body)))
        }
        ("GET", ["v1", "jobs", id, "events"]) => {
            let since = request
                .query_param("since")
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(0);
            let wait_ms = request
                .query_param("wait_ms")
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0);
            api_result(
                manager
                    .events(id, since, wait_ms)
                    .map(|body| Response::json(200, body)),
            )
        }
        ("POST", ["v1", "jobs", id, "resume"]) => api_result(manager.resume(id).map(|state| {
            Response::json(
                200,
                Json::obj([("id", Json::str(*id)), ("state", Json::str(state.as_str()))])
                    .to_canonical(),
            )
        })),
        _ => Response::error(
            404,
            &format!("no route {} {}", request.method, request.path),
        ),
    }
}

fn submit(request: &Request, manager: &Arc<JobManager>) -> Result<Response, ApiError> {
    let text = std::str::from_utf8(&request.body).map_err(|_| ApiError {
        status: 400,
        message: "body is not UTF-8".into(),
    })?;
    let doc = json::parse(text).map_err(|e| ApiError {
        status: 400,
        message: format!("body: {e}"),
    })?;
    let spec = doc.get("spec").ok_or(ApiError {
        status: 400,
        message: "body needs a \"spec\" object".into(),
    })?;
    let netlist = doc
        .get("netlist")
        .and_then(json::Json::as_str)
        .ok_or(ApiError {
            status: 400,
            message: "body needs a \"netlist\" ILANG string".into(),
        })?;
    let submitted = manager.submit(spec, netlist)?;
    let status = if submitted.created { 201 } else { 200 };
    Ok(Response::json(
        status,
        Json::obj([
            ("id", Json::str(submitted.id)),
            ("state", Json::str(submitted.state.as_str())),
            ("cached", Json::Bool(submitted.cached)),
        ])
        .to_canonical(),
    ))
}
