//! The TCP front door's shared protocol logic: configuration, the
//! handshake's token check, the idempotency replay cache, network
//! boundary validation, the analysis workers behind their one bounded
//! queue, and the server handle with its graceful drain.
//!
//! Sessions are driven by the sharded event loop in
//! [`crate::eventloop`]; each accepted connection becomes a nonblocking
//! state machine parked on poll(2) readiness, so ten thousand idle
//! sessions cost ten thousand small structs, not ten thousand OS
//! threads. A session may keep a bounded window of calls outstanding,
//! answered out of order as they complete.
//!
//! Each session speaks the frame protocol ([`crate::wire`]), tracks
//! per-session state (tenant tag, statement sequence numbers,
//! idempotency replays), and dispatches decoded requests onto the
//! analysis queue. A full queue sheds the call as `Overloaded`; a worker
//! runs [`perfdmf_explorer::handle`] with the call's trace and meter,
//! isolates a handler panic as a non-retryable `Failed`, and drops
//! unrun a job whose deadline lapsed in the queue (its call has already
//! answered the lapse).
//!
//! Failure semantics (see `docs/server.md` for the client's view):
//!
//! * malformed frames (bad magic, oversized, garbage body) → one
//!   `Goodbye` with the decode error, then close; the stream cannot be
//!   trusted to stay in frame sync;
//! * sequence regressions → `Goodbye("sequence regression")`, close;
//! * stalled peers → after `idle_timeout` without a complete frame,
//!   `Goodbye("idle timeout")`, close;
//! * drain → in-flight requests finish (or shed at their deadline),
//!   then every session gets `ShuttingDown`/`Goodbye` and the acceptor
//!   stops; telemetry is flushed into the metrics time series.

use crate::eventloop::WakeHandle;
use crate::stream::NetFaultPlan;
use crate::wire::Message;
use crossbeam::channel::{bounded, Receiver, Sender};
use perfdmf_db::Connection;
use perfdmf_explorer::{Request, Response};
use perfdmf_telemetry as telemetry;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest the acceptor and each event-loop shard sleep before
/// re-checking the drain flag, deadlines, and idle budgets.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Next session id to grant. Process-wide rather than per server: the
/// session registry behind `perfdmf_sessions` is keyed by id and shared
/// by every server in the process, so two servers must never grant the
/// same id.
pub(crate) static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// Entries retained by the idempotency replay cache.
const REPLAY_CACHE_CAPACITY: usize = 4096;

/// How long a duplicate request with no deadline waits for the original
/// execution to finish before giving up with a retryable failure.
/// Matches the client's default reply wait.
pub(crate) const DUPLICATE_WAIT: Duration = Duration::from_secs(10);

/// Default bound on outstanding pipelined calls per session, on both
/// the server ([`ServerConfig::window`]) and the client
/// ([`crate::NetClient::with_window`]). Calls beyond the window are
/// answered immediately with a typed `Response::Error` naming the
/// window, so a runaway client cannot queue unbounded work behind one
/// connection.
pub const DEFAULT_PIPELINE_WINDOW: usize = 32;

/// Default bound on the analysis queue ([`ServerConfig::queue_capacity`]).
const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Tuning knobs for [`PerfdmfServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind. The default, `127.0.0.1:0`, picks an ephemeral
    /// loopback port (tests); the CLI's `serve` command sets a real one.
    pub addr: SocketAddr,
    /// Analysis worker threads behind the queue.
    pub workers: usize,
    /// Bound on the request queue; submissions beyond it are shed as
    /// [`Response::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum concurrent sessions; connections beyond it are told
    /// `Goodbye("server at connection capacity")` and closed.
    pub max_sessions: usize,
    /// Close sessions that fail to deliver a complete frame for this
    /// long (defense against stalled peers holding threads hostage).
    pub idle_timeout: Duration,
    /// Bound on outstanding pipelined calls per session.
    pub window: usize,
    /// Shared-secret session token. `Some` requires every `Hello` to
    /// present a matching token (constant-time compare) before any
    /// request is admitted; mismatches get a typed `AuthFailed`.
    /// Defaults from `PERFDMF_SERVER_TOKEN` (unset = open).
    pub token: Option<String>,
    /// Test aid: wrap every **accepted** stream in a
    /// [`crate::stream::FaultStream`] with this plan, so chaos tests
    /// can tear the server side of connections too. `None` in
    /// production.
    pub fault: Option<NetFaultPlan>,
    /// Test aid: accept the fault-injection requests
    /// (`Request::InjectPanic`, `Request::Stall`) over the network.
    /// `false` in production — with it off (the default), any client
    /// sending them gets `Response::Error`, so the network boundary
    /// cannot be used to panic workers or park them in long stalls.
    pub allow_fault_injection: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 4,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            max_sessions: 4096,
            idle_timeout: Duration::from_secs(30),
            window: DEFAULT_PIPELINE_WINDOW,
            token: std::env::var("PERFDMF_SERVER_TOKEN").ok(),
            fault: None,
            allow_fault_injection: false,
        }
    }
}

/// Constant-time byte equality: the comparison touches every byte of
/// both inputs regardless of where they first differ, so a client
/// cannot binary-search the token by timing rejections.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = (a.len() ^ b.len()) as u8;
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= x ^ y;
    }
    diff == 0
}

/// Check a `Hello`'s token against the configured secret. `Ok(flag)`
/// admits the session (`flag` = a secret was required and matched);
/// `Err(message)` is the typed [`Message::AuthFailed`] rejection frame
/// to send before closing.
pub(crate) fn authenticate(
    config: &ServerConfig,
    token: &Option<String>,
) -> Result<bool, Box<Message>> {
    let Some(expected) = &config.token else {
        // Open server: tokens (if any) are accepted but nothing was
        // verified, so the session does not count as authenticated.
        return Ok(false);
    };
    let presented = token.as_deref().unwrap_or("");
    if token.is_some() && constant_time_eq(presented.as_bytes(), expected.as_bytes()) {
        return Ok(true);
    }
    telemetry::add("server.auth_failures", 1);
    let reason = if token.is_some() {
        "session token mismatch".to_string()
    } else {
        "session token required".to_string()
    };
    Err(Box::new(Message::AuthFailed { reason }))
}

/// One replay-cache slot: either the recorded response of a completed
/// execution, or a marker that the execution is still running so a
/// concurrent retry waits for its outcome instead of re-executing.
pub(crate) enum ReplayEntry {
    /// The keyed request was dispatched and has not completed yet.
    InFlight,
    /// The recorded response of the first successful execution.
    Done(Response),
}

/// Bounded idempotency-key → response cache (FIFO eviction). One cache
/// per server, not per session: a retried request usually arrives on a
/// *new* connection after the old one died mid-reply. The in-flight
/// marker is inserted **before** dispatch, closing the window where a
/// retry of a still-executing request would miss the cache and apply
/// the write twice; eviction never removes in-flight entries.
pub(crate) struct ReplayCache {
    map: HashMap<u64, ReplayEntry>,
    order: VecDeque<u64>,
}

impl ReplayCache {
    fn new() -> ReplayCache {
        ReplayCache {
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    pub(crate) fn entry(&self, key: u64) -> Option<&ReplayEntry> {
        self.map.get(&key)
    }

    /// Mark `key` as executing. The caller must have checked the key is
    /// absent while holding the same lock.
    pub(crate) fn begin(&mut self, key: u64) {
        self.map.insert(key, ReplayEntry::InFlight);
        self.order.push_back(key);
    }

    /// Record the outcome of the execution running under `key`: cache a
    /// successful response for replay, drop the marker for outcomes an
    /// honest retry should re-attempt. Calls parked on the key see the
    /// outcome on their next tick.
    pub(crate) fn resolve(&mut self, key: u64, response: &Response) {
        match response {
            Response::Overloaded
            | Response::Error(_)
            | Response::Failed { .. }
            | Response::ShuttingDown => self.abandon(key),
            _ => {
                self.finish(key, response.clone());
                telemetry::add("server.replay_inserts", 1);
            }
        }
    }

    /// Record the response of a completed execution under `key`.
    fn finish(&mut self, key: u64, response: Response) {
        self.map.insert(key, ReplayEntry::Done(response));
        self.trim();
    }

    /// Drop `key` without recording a response (the execution failed in
    /// a way that an honest retry should re-attempt, or never reported
    /// an outcome).
    pub(crate) fn abandon(&mut self, key: u64) {
        self.map.remove(&key);
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
    }

    /// Evict oldest completed entries beyond capacity. In-flight
    /// entries are rotated past, never evicted — their population is
    /// bounded by the number of concurrent sessions.
    fn trim(&mut self) {
        let mut rotations = 0;
        while self.map.len() > REPLAY_CACHE_CAPACITY && rotations <= self.order.len() {
            match self.order.pop_front() {
                None => break,
                Some(key) => match self.map.get(&key) {
                    Some(ReplayEntry::Done(_)) => {
                        self.map.remove(&key);
                    }
                    Some(ReplayEntry::InFlight) => {
                        self.order.push_back(key);
                        rotations += 1;
                    }
                    None => {}
                },
            }
        }
    }
}

/// One dispatched call on its way to an analysis worker.
pub(crate) struct Job {
    pub(crate) request: Request,
    /// Where the worker sends the response; the call polls the other end.
    pub(crate) reply: Sender<Response>,
    /// When the job was queued: the base of its queue wait.
    pub(crate) submitted: Instant,
    /// When the call stops waiting for the reply (`None`: never).
    pub(crate) deadline: Option<Instant>,
    /// Trace context of the dispatching scope, so the worker's spans are
    /// children of the call's.
    pub(crate) trace: Option<telemetry::SpanContext>,
    /// The call's meter: queue wait, execution, and everything the
    /// handler touches (rows, chunk cache, WAL) bill to the call.
    pub(crate) meter: telemetry::RequestMeter,
    /// Wakes the call's shard once the reply is sent.
    pub(crate) waker: Arc<WakeHandle>,
}

/// An analysis worker: serve jobs until the queue is closed and empty.
fn work(conn: &Connection, queue: &Receiver<Job>) {
    let _adopted = conn.telemetry().adopt();
    while let Ok(job) = queue.recv() {
        // The call of a job that lapsed in the queue has already answered
        // and counted the lapse; running it would only delay calls that
        // can still meet their deadlines.
        if job.deadline.is_some_and(|d| Instant::now() > d) {
            continue;
        }
        let _adopted = job.trace.map(telemetry::trace::adopt_context);
        let _metered = telemetry::adopt_meter(job.meter);
        let _span = telemetry::span("explorer.request");
        let waited = job.submitted.elapsed();
        telemetry::meter::add_queue_wait_ns(nanos(waited));
        if telemetry::enabled() {
            telemetry::record_duration("explorer.queue_wait_ns", waited);
            telemetry::record("explorer.queue_depth", queue.len() as u64);
        }
        let _ = job.reply.send(execute(conn, &job.request));
        job.waker.wake();
    }
}

/// Run one request under the `explorer.handle` span. A handler panic
/// becomes a non-retryable `Failed`, since the same request would panic
/// again, and the worker goes on to its next job.
fn execute(conn: &Connection, request: &Request) -> Response {
    let _span = telemetry::span("explorer.handle");
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| perfdmf_explorer::handle(conn, request)));
    let busy = nanos(started.elapsed());
    telemetry::meter::add_execute_ns(busy);
    telemetry::add("explorer.busy_ns", busy);
    outcome.unwrap_or_else(|payload| {
        telemetry::add("explorer.request_panics", 1);
        let reason = if let Some(s) = payload.downcast_ref::<&'static str>() {
            s
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s
        } else {
            "non-string panic payload"
        };
        let trace_tag = telemetry::trace::current_trace_id()
            .map(|t| format!(" [trace {}]", t.as_hex()))
            .unwrap_or_default();
        Response::Failed {
            reason: format!("analysis worker panicked: {reason}{trace_tag}"),
            retryable: false,
        }
    })
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// State shared by the acceptor and every session state machine.
pub(crate) struct Shared {
    /// The analysis queue; a full queue sheds the call.
    pub(crate) queue: Sender<Job>,
    /// The served database's registry, adopted by every server thread.
    pub(crate) telemetry: telemetry::Registry,
    pub(crate) config: ServerConfig,
    pub(crate) draining: AtomicBool,
    pub(crate) live_sessions: AtomicUsize,
    pub(crate) replay: Mutex<ReplayCache>,
}

/// A running network server.
pub struct PerfdmfServer {
    addr: SocketAddr,
    /// `None` once stopped: dropping it closes the analysis queue.
    shared: Option<Arc<Shared>>,
    acceptor: Option<JoinHandle<()>>,
    executors: Vec<crate::eventloop::ExecutorHandle>,
    workers: Vec<JoinHandle<()>>,
}

impl PerfdmfServer {
    /// Bind `127.0.0.1:0` (an ephemeral loopback port) and start
    /// serving with the default configuration.
    pub fn start(conn: Connection) -> perfdmf_db::Result<PerfdmfServer> {
        PerfdmfServer::start_with_config(conn, ServerConfig::default())
    }

    /// Bind [`ServerConfig::addr`] and start serving with an explicit
    /// configuration.
    pub fn start_with_config(
        conn: Connection,
        config: ServerConfig,
    ) -> perfdmf_db::Result<PerfdmfServer> {
        perfdmf_explorer::install(&conn)?;
        let listener = TcpListener::bind(config.addr).map_err(io_to_db)?;
        listener.set_nonblocking(true).map_err(io_to_db)?;
        let addr = listener.local_addr().map_err(io_to_db)?;
        // One event-loop shard per core.
        let shard_count = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let (queue, jobs) = bounded::<Job>(config.queue_capacity.max(1));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let (conn, jobs) = (conn.clone(), jobs.clone());
                std::thread::Builder::new()
                    .name(format!("perfdmf-analysis-{i}"))
                    .spawn(move || work(&conn, &jobs))
                    .expect("spawn analysis worker")
            })
            .collect();
        let shared = Arc::new(Shared {
            queue,
            telemetry: conn.telemetry(),
            config,
            draining: AtomicBool::new(false),
            live_sessions: AtomicUsize::new(0),
            replay: Mutex::new(ReplayCache::new()),
        });
        let executors: Vec<crate::eventloop::ExecutorHandle> = (0..shard_count)
            .map(|i| crate::eventloop::ExecutorHandle::spawn(shared.clone(), i))
            .collect();
        let intakes: Vec<_> = executors.iter().map(|e| e.intake()).collect();
        let acceptor = {
            let shared = shared.clone();
            std::thread::spawn(move || crate::eventloop::accept_loop(listener, shared, intakes))
        };
        Ok(PerfdmfServer {
            addr,
            shared: Some(shared),
            acceptor: Some(acceptor),
            executors,
            workers,
        })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently live sessions.
    pub fn live_sessions(&self) -> usize {
        self.shared
            .as_ref()
            .map_or(0, |shared| shared.live_sessions.load(Ordering::Relaxed))
    }

    /// Graceful drain: stop accepting, let every session finish (or
    /// shed) its in-flight request and say goodbye, stop the analysis
    /// workers, and flush a final telemetry sample into the metrics
    /// time series.
    pub fn shutdown(mut self) {
        let _adopted = self.shared.as_ref().map(|s| s.telemetry.adopt());
        self.stop();
        telemetry::add("server.drains", 1);
        telemetry::sample_now();
    }

    /// Raise the drain flag, then join the acceptor, the event-loop
    /// shards (each says goodbye to its sessions), and the analysis
    /// workers. Idempotent: later calls find the handles taken.
    fn stop(&mut self) {
        let Some(shared) = self.shared.take() else {
            return;
        };
        shared.draining.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for executor in std::mem::take(&mut self.executors) {
            executor.join();
        }
        // The acceptor and the shards have dropped their references, so
        // this drop closes the queue: each worker finishes the jobs left
        // in it and exits.
        debug_assert_eq!(Arc::strong_count(&shared), 1);
        drop(shared);
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
    }
}

impl Drop for PerfdmfServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn io_to_db(e: std::io::Error) -> perfdmf_db::DbError {
    perfdmf_db::DbError::Unsupported(format!("server socket: {e}"))
}

/// Largest accepted value for any clustering cardinality parameter
/// (`k`, `max_k`, `pca_components`). A bit-flipped or hostile frame can
/// decode to a structurally valid request with a parameter like
/// `max_k = 2^30`, which would pin an analysis worker in a
/// CPU-bound sweep no deadline can interrupt — the chaos harness found
/// exactly this. Real trials never need more clusters than threads.
const MAX_CLUSTER_PARAM: usize = 4096;

/// Largest accepted `Stall` duration; anything longer parks a worker
/// for what is effectively forever.
const MAX_STALL_MS: u64 = 60_000;

/// Network-boundary validation: requests that decode fine but carry
/// values that would capture a worker are rejected before dispatch.
pub(crate) fn validate(request: &Request, config: &ServerConfig) -> Result<(), String> {
    match request {
        Request::Shutdown => {
            // Shutdown is an in-process control request; no remote
            // client may send it.
            Err("Shutdown is not accepted over the network".into())
        }
        Request::InjectPanic(_) | Request::Stall { .. } if !config.allow_fault_injection => {
            // Fault-injection aids exist for the chaos harness; over
            // the network they would let any client panic workers or
            // park them all in minute-long stalls — a trivial denial of
            // service. Only a server explicitly configured for testing
            // accepts them.
            Err("fault-injection requests are not accepted over the network".into())
        }
        Request::ClusterTrial {
            k,
            max_k,
            pca_components,
            ..
        } => {
            let biggest = k.unwrap_or(0).max(*max_k).max(*pca_components);
            if *k == Some(0) {
                Err("cluster count k must be at least 1".into())
            } else if biggest > MAX_CLUSTER_PARAM {
                Err(format!(
                    "clustering parameter {biggest} exceeds limit {MAX_CLUSTER_PARAM}"
                ))
            } else {
                Ok(())
            }
        }
        Request::Stall { millis } if *millis > MAX_STALL_MS => Err(format!(
            "stall of {millis}ms exceeds limit {MAX_STALL_MS}ms"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf_explorer::{ClusterMethod, FeatureSpace};

    #[test]
    fn validate_rejects_zero_and_oversized_cluster_counts() {
        let cluster = |k| Request::ClusterTrial {
            trial_id: 1,
            features: FeatureSpace::EventsOfMetric("TIME".into()),
            k,
            max_k: 4,
            pca_components: 0,
            method: ClusterMethod::KMeans,
        };
        let config = ServerConfig::default();
        assert!(validate(&cluster(Some(0)), &config).is_err());
        assert!(validate(&cluster(Some(MAX_CLUSTER_PARAM + 1)), &config).is_err());
        assert!(validate(&cluster(Some(1)), &config).is_ok());
        assert!(validate(&cluster(None), &config).is_ok());
    }

    #[test]
    fn replay_cache_evicts_oldest_done_but_never_in_flight() {
        let mut cache = ReplayCache::new();
        let pinned = u64::MAX;
        cache.begin(pinned);
        for key in 1..=(REPLAY_CACHE_CAPACITY as u64 + 8) {
            cache.begin(key);
            cache.finish(key, Response::Pong);
        }
        assert!(cache.map.len() <= REPLAY_CACHE_CAPACITY);
        assert!(
            matches!(cache.entry(pinned), Some(ReplayEntry::InFlight)),
            "in-flight entries must survive churn"
        );
        assert!(
            cache.entry(1).is_none(),
            "the oldest completed entry must be evicted first"
        );
        assert!(
            matches!(
                cache.entry(REPLAY_CACHE_CAPACITY as u64 + 8),
                Some(ReplayEntry::Done(_))
            ),
            "the newest completed entry must be retained"
        );
        cache.abandon(pinned);
        assert!(cache.entry(pinned).is_none());
        assert!(
            !cache.order.contains(&pinned),
            "abandon must drop the eviction-order slot too"
        );
    }
}
