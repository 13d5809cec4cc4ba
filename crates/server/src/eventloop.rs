//! The server's session executor: many connections per thread.
//!
//! One OS thread per connection (stack, scheduler slot, context
//! switches) collapses under thousands of mostly-idle sessions — the
//! classic C10K wall. This module instead drives every session from a
//! small sharded set of event-loop threads; the analysis workers behind
//! the server's one bounded queue are separate.
//!
//! Architecture:
//!
//! ```text
//! TcpListener ── acceptor ──(round robin)──┬─ executor 0 ─ poll(2) over N sessions
//!                                          ├─ executor 1 ─ poll(2) over N sessions
//!                                          └─ executor K ─ poll(2) over N sessions
//!                                                 │ try_send(Job)
//!                                                 ▼
//!                                          bounded queue → analysis workers
//!                                                          (perfdmf_explorer::handle)
//! ```
//!
//! Each accepted socket becomes a nonblocking [`Session`] state machine
//! (handshake → framed read → dispatch → framed write) parked on
//! readiness. Dispatch puts a [`Job`] on the analysis queue: the reply
//! channel is polled with `try_recv`, and the job's [`WakeHandle`] (one
//! byte down a socketpair) pokes the loop out of `poll` the moment a
//! worker finishes — no thread ever blocks on a reply.
//!
//! Readiness comes from [`PollReactor`], which calls `poll(2)` directly
//! through a one-function `extern "C"` declaration — no async runtime,
//! no polling-crate dependency, and the blocking [`crate::stream::Stream`]
//! seam (including [`crate::stream::FaultStream`] chaos injection)
//! stays intact underneath.
//!
//! Because sessions are state machines rather than blocked threads,
//! the executor also serves **pipelined** calls: a client may keep a
//! bounded window ([`crate::server::ServerConfig::window`]) of seqs
//! outstanding on one connection; replies are written as executions
//! complete, matched by seq, possibly out of order. Calls beyond the
//! window are answered immediately with a typed `Response::Error` so a
//! runaway client cannot queue unbounded work.
//!
//! Every session gets the full protocol semantics: idempotency
//! admission (replay, park-on-duplicate, at-most-once), deadline expiry
//! with a retryable failure, span parentage into the caller's trace,
//! `RequestMeter` resource accounting, and the telemetry counters the
//! chaos harness asserts on. Each admitted call is one `Call` from
//! admission to reply, and `Call::settle` is its one exit: it moves
//! the counters, resolves the replay cache, and files the
//! `perfdmf_requests` row (`docs/server.md`, "Call lifecycle").

use crate::server::{
    authenticate, validate, Job, ReplayEntry, Shared, DUPLICATE_WAIT, NEXT_SESSION, POLL_INTERVAL,
};
use crate::stream::{write_all, write_available, FrameReader, ReadStep, RealStream, Stream};
use crate::wire::{Message, PROTOCOL_VERSION};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError, TrySendError};
use perfdmf_explorer::{Request, Response};
use perfdmf_telemetry as telemetry;
use perfdmf_telemetry::sessions::{SessionRecord, SessionState};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many sched_yields the shard spends re-checking completion
/// channels before parking in the reactor (see the eager-completion
/// pass in [`run`]).
const EAGER_SPINS: usize = 4;

// ---------------------------------------------------------------------
// PollReactor: readiness via poll(2).
// ---------------------------------------------------------------------

/// One descriptor the reactor should watch, and for what.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interest {
    /// The raw descriptor.
    pub fd: RawFd,
    /// Wake when readable (or the peer hung up).
    pub read: bool,
    /// Wake when writable.
    pub write: bool,
}

/// Readiness facts for one watched descriptor.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Readiness {
    /// Data (or EOF) is available to read.
    pub readable: bool,
    /// The socket will accept bytes.
    pub writable: bool,
    /// The peer hung up or the descriptor is in an error state.
    pub hangup: bool,
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

unsafe extern "C" {
    /// Declared directly instead of through a bindings crate: one
    /// POSIX function is not worth a dependency, and the signature is
    /// ABI-stable everywhere this server builds.
    fn poll(
        fds: *mut PollFd,
        nfds: core::ffi::c_ulong,
        timeout: core::ffi::c_int,
    ) -> core::ffi::c_int;
}

/// The one operation an event loop needs from the OS: block on
/// `poll(2)` until any watched descriptor is ready or the timeout
/// lapses. `poll` (not `epoll`/`kqueue`) keeps it portable across
/// POSIX and dependency-free; the interest lists here are per-shard
/// (hundreds, not millions), where poll's O(n) scan is noise next to
/// the syscall.
#[derive(Default)]
pub(crate) struct PollReactor {
    fds: Vec<PollFd>,
}

impl PollReactor {
    /// Wait up to `timeout`; returns one [`Readiness`] per `interests`
    /// slot (all-false on timeout).
    pub(crate) fn wait(
        &mut self,
        interests: &[Interest],
        timeout: Duration,
    ) -> std::io::Result<Vec<Readiness>> {
        self.fds.clear();
        for interest in interests {
            let mut events = 0i16;
            if interest.read {
                events |= POLLIN;
            }
            if interest.write {
                events |= POLLOUT;
            }
            self.fds.push(PollFd {
                fd: interest.fd,
                events,
                revents: 0,
            });
        }
        // Round sub-millisecond timeouts *up* so a 200µs deadline wait
        // does not degenerate into a zero-timeout busy loop.
        let millis = timeout
            .as_micros()
            .div_ceil(1000)
            .min(core::ffi::c_int::MAX as u128) as core::ffi::c_int;
        loop {
            let rc = unsafe {
                poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as core::ffi::c_ulong,
                    millis,
                )
            };
            if rc >= 0 {
                break;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
            // EINTR: retry. Re-waiting the full timeout slightly
            // overshoots, which is fine — the loop re-derives every
            // deadline from the clock each tick anyway.
        }
        Ok(self
            .fds
            .iter()
            .map(|p| Readiness {
                readable: p.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                writable: p.revents & (POLLOUT | POLLERR) != 0,
                hangup: p.revents & (POLLHUP | POLLERR | POLLNVAL) != 0,
            })
            .collect())
    }
}

// ---------------------------------------------------------------------
// Waker: cross-thread "poke the poll loop".
// ---------------------------------------------------------------------

/// Wakes a parked executor by writing one byte down a nonblocking
/// socketpair whose read end sits in the executor's interest list.
/// Cloned (via `Arc`) into every [`Job`] the shard dispatches.
pub(crate) struct WakeHandle {
    pipe: UnixStream,
    /// True while the owning shard is parked (or committing to park)
    /// in the reactor — see the park gate in [`run`]. `wake` pays the
    /// pipe-write syscall only when someone may actually be asleep;
    /// a shard that is awake sweeps every wakeable condition itself
    /// before it parks, so skipping the byte can never lose a signal.
    parked: AtomicBool,
}

impl WakeHandle {
    fn new(pipe: UnixStream) -> WakeHandle {
        WakeHandle {
            pipe,
            // Conservative until the shard's first park gate: early
            // wakes write the byte and are drained on the first tick.
            parked: AtomicBool::new(true),
        }
    }

    /// Poke the loop. A full pipe means a wake is already pending,
    /// which is exactly the desired state — the error is ignored.
    pub(crate) fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) {
            let _ = (&self.pipe).write(&[1u8]);
        }
    }
}

// ---------------------------------------------------------------------
// Executor handles and intake.
// ---------------------------------------------------------------------

/// A freshly accepted connection on its way to an executor shard.
pub(crate) struct NewSession {
    /// The (possibly fault-wrapped) stream; the underlying socket is
    /// already nonblocking.
    pub(crate) stream: Box<dyn Stream>,
    /// Raw descriptor of the underlying socket, captured before the
    /// stream was boxed (the [`Stream`] seam deliberately hides it).
    pub(crate) fd: RawFd,
}

/// The acceptor's end of one executor shard: a channel plus the waker
/// that makes the shard notice the delivery.
pub(crate) struct Intake {
    tx: Sender<NewSession>,
    waker: Arc<WakeHandle>,
}

impl Intake {
    /// Hand a new connection to the shard and wake it.
    pub(crate) fn deliver(&self, session: NewSession) {
        // A send can only fail once the executor has exited, which only
        // happens during drain — dropping the stream closes the socket,
        // and the client sees a clean EOF, same as a drain farewell
        // racing the accept.
        let _ = self.tx.send(session);
        self.waker.wake();
    }

    /// Wake the shard without delivering anything (drain notification).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }
}

/// One spawned executor shard, owned by `PerfdmfServer`.
pub(crate) struct ExecutorHandle {
    tx: Sender<NewSession>,
    waker: Arc<WakeHandle>,
    thread: Option<JoinHandle<()>>,
}

impl ExecutorHandle {
    /// Spawn shard `index` over `shared`.
    pub(crate) fn spawn(shared: Arc<Shared>, index: usize) -> ExecutorHandle {
        let (tx, rx) = unbounded::<NewSession>();
        let (wake_tx, wake_rx) = UnixStream::pair().expect("executor wake socketpair");
        wake_tx
            .set_nonblocking(true)
            .expect("nonblocking wake writer");
        wake_rx
            .set_nonblocking(true)
            .expect("nonblocking wake reader");
        let waker = Arc::new(WakeHandle::new(wake_tx));
        let thread = {
            let waker = waker.clone();
            std::thread::Builder::new()
                .name(format!("perfdmf-exec-{index}"))
                .spawn(move || run(shared, rx, wake_rx, waker))
                .expect("spawn executor thread")
        };
        ExecutorHandle {
            tx,
            waker,
            thread: Some(thread),
        }
    }

    /// The acceptor-side delivery handle for this shard.
    pub(crate) fn intake(&self) -> Intake {
        Intake {
            tx: self.tx.clone(),
            waker: self.waker.clone(),
        }
    }

    /// Wake the shard (it re-reads the drain flag) and wait for it to
    /// finish closing its sessions.
    pub(crate) fn join(mut self) {
        self.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

// ---------------------------------------------------------------------
// Accept loop.
// ---------------------------------------------------------------------

/// Accept connections and deal them round-robin across the shards,
/// shedding connections past [`crate::ServerConfig::max_sessions`] and
/// stopping once the server drains.
pub(crate) fn accept_loop(listener: TcpListener, shared: Arc<Shared>, intakes: Vec<Intake>) {
    let _adopted = shared.telemetry.adopt();
    let mut next = 0usize;
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((socket, _peer)) => {
                // The executor never blocks on this socket; readiness
                // decides when it is touched.
                let _ = socket.set_nonblocking(true);
                let fd = socket.as_raw_fd();
                let mut stream: Box<dyn Stream> = Box::new(RealStream::new(socket));
                if let Some(plan) = shared.config.fault.clone() {
                    // Decorrelate per-connection schedules while keeping
                    // each a function of the configured seed and the
                    // process's session count.
                    let nth = NEXT_SESSION.load(Ordering::Relaxed);
                    let mut plan = plan;
                    plan.seed = plan.seed.wrapping_add(nth.wrapping_mul(0x9E37_79B9));
                    stream = Box::new(crate::stream::FaultStream::new(stream, plan));
                }
                if shared.live_sessions.load(Ordering::Relaxed) >= shared.config.max_sessions {
                    telemetry::add("server.connection_sheds", 1);
                    let _ = write_all(
                        stream.as_mut(),
                        &Message::Goodbye {
                            reason: "server at connection capacity".into(),
                        }
                        .to_frame(),
                    );
                    stream.shutdown();
                    continue;
                }
                shared.live_sessions.fetch_add(1, Ordering::Relaxed);
                telemetry::add("server.connections", 1);
                intakes[next % intakes.len()].deliver(NewSession { stream, fd });
                next += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    // Make every shard notice the drain flag promptly.
    for intake in &intakes {
        intake.wake();
    }
}

// ---------------------------------------------------------------------
// One call, from admission to reply.
// ---------------------------------------------------------------------

/// Where an admitted call waits.
enum State {
    /// Holding its request: about to be dispatched, or waiting behind a
    /// duplicate idempotency key still executing (possibly on another
    /// connection), re-checked against the replay cache every tick
    /// until `wait_until`.
    Parked {
        request: Request,
        wait_until: Instant,
    },
    /// Queued for an analysis worker; the reply channel is polled until
    /// a response arrives or `deadline` lapses.
    Dispatched {
        rx: Receiver<Response>,
        deadline: Option<Instant>,
    },
}

/// How a call leaves the server. The exit fixes the status its row is
/// filed under and the counters and session tallies it moves
/// (`docs/server.md`, "Call lifecycle").
enum Exit {
    /// A worker answered, the full queue shed it, or its deadline
    /// lapsed: the status is read off the response.
    Answered,
    /// The recorded response of its idempotency key was re-delivered.
    Replayed,
    /// Network-boundary validation refused it.
    Rejected,
    /// It arrived with the session's pipelining window full.
    Overflowed,
    /// The server began draining before it ran.
    Drained,
    /// Its duplicate key was still executing when the wait ran out.
    WaitExpired,
}

/// What a call needs from its session next.
enum Step {
    Wait,
    Dispatch,
    Settle(Response, Exit),
}

/// One admitted call: its identity, its resource meter, its
/// idempotency key, and where it waits. Every call ends in exactly one
/// [`Call::settle`], which files its `perfdmf_requests` row; a call
/// dropped unsettled while its thread panics files `status = "panic"`
/// instead.
struct Call {
    seq: u64,
    kind: &'static str,
    /// Client deadline in milliseconds (0 = none).
    deadline_ms: u32,
    /// Admission: the base of the row's elapsed time and slack.
    started: Instant,
    /// Dispatch: the base of `server.request_latency_ns`.
    submitted: Instant,
    /// The caller's trace context, adopted while dispatching.
    trace: Option<telemetry::SpanContext>,
    /// The trace the row is filed under.
    trace_id: Option<u64>,
    session: u64,
    tenant: String,
    meter: telemetry::RequestMeter,
    /// Idempotency key (0 = none).
    key: u64,
    /// Set while this call's execution owns the key's in-flight marker
    /// in the server's replay cache: settling resolves the marker, and
    /// dropping the call unsettled abandons it so a retry re-executes.
    replay: Option<Arc<Shared>>,
    settled: bool,
    state: State,
}

impl Call {
    /// Admit one decoded `Call` frame on the session `record`.
    fn new(
        seq: u64,
        deadline_ms: u32,
        key: u64,
        trace: Option<telemetry::SpanContext>,
        request: Request,
        record: &SessionRecord,
    ) -> Call {
        let started = Instant::now();
        let wait = if deadline_ms > 0 {
            Duration::from_millis(u64::from(deadline_ms))
        } else {
            DUPLICATE_WAIT
        };
        Call {
            seq,
            kind: request.kind(),
            deadline_ms,
            started,
            submitted: started,
            trace,
            trace_id: trace.map(|c| c.trace.0),
            session: record.id,
            tenant: record.tenant.clone(),
            meter: telemetry::RequestMeter::new(),
            key,
            replay: None,
            settled: false,
            state: State::Parked {
                request,
                wait_until: started + wait,
            },
        }
    }

    /// The request of a call not yet dispatched.
    fn request(&mut self) -> &mut Request {
        match &mut self.state {
            State::Parked { request, .. } => request,
            State::Dispatched { .. } => unreachable!("a dispatched call's request is submitted"),
        }
    }

    /// The reply channel of a dispatched call.
    fn reply(&self) -> Option<&Receiver<Response>> {
        match &self.state {
            State::Dispatched { rx, .. } => Some(rx),
            State::Parked { .. } => None,
        }
    }

    /// When the loop must look at this call even if nothing wakes it.
    fn wake_at(&self) -> Option<Instant> {
        match self.state {
            State::Parked { wait_until, .. } => Some(wait_until),
            State::Dispatched { deadline, .. } => deadline,
        }
    }

    /// Decide the call's next step. A dispatched call settles once its
    /// reply arrives or its deadline lapses: this is the one place a
    /// lapse is answered and counted. A parked call without a key
    /// dispatches; with one, the replay cache decides: a recorded
    /// response replays, a free key is claimed and the call dispatches,
    /// and a key still in flight keeps it waiting until the server
    /// drains or `wait_until` passes.
    fn poll(&mut self, shared: &Arc<Shared>, now: Instant) -> Step {
        let wait_until = match &self.state {
            State::Dispatched { rx, deadline } => {
                return match rx.try_recv() {
                    Ok(response) => Step::Settle(response, Exit::Answered),
                    Err(TryRecvError::Empty) if deadline.is_none_or(|d| now < d) => Step::Wait,
                    // Past the deadline a missing reply is a lapse, whether
                    // it is still to come or the worker dropped the lapsed
                    // job unrun. Dropping `rx` with the call discards a
                    // late reply.
                    Err(_) if deadline.is_some_and(|d| Instant::now() >= d) => {
                        let deadline = Duration::from_millis(u64::from(self.deadline_ms));
                        Step::Settle(deadline_timeout(deadline, self.trace_id), Exit::Answered)
                    }
                    Err(_) => Step::Settle(
                        Response::Error("analysis server dropped the request".into()),
                        Exit::Answered,
                    ),
                };
            }
            State::Parked { wait_until, .. } => *wait_until,
        };
        if self.key == 0 {
            return Step::Dispatch;
        }
        let mut cache = shared.replay.lock().expect("replay cache lock poisoned");
        match cache.entry(self.key) {
            Some(ReplayEntry::Done(response)) => Step::Settle(response.clone(), Exit::Replayed),
            None => {
                cache.begin(self.key);
                self.replay = Some(shared.clone());
                Step::Dispatch
            }
            Some(ReplayEntry::InFlight) if shared.draining.load(Ordering::SeqCst) => {
                Step::Settle(Response::ShuttingDown, Exit::Drained)
            }
            Some(ReplayEntry::InFlight) if now >= wait_until => Step::Settle(
                Response::Failed {
                    reason: "duplicate request still executing".into(),
                    retryable: true,
                },
                Exit::WaitExpired,
            ),
            Some(ReplayEntry::InFlight) => Step::Wait,
        }
    }

    /// Settle the call: move the counters and `record` tallies its exit
    /// names, resolve its replay-cache marker, and file its row.
    /// Returns the usage filed, which the reply carries. A live session
    /// passes its registry row; an orphan passes a scratch record.
    fn settle(
        mut self,
        record: &mut SessionRecord,
        response: &Response,
        exit: Exit,
    ) -> telemetry::ResourceUsage {
        let status = match exit {
            Exit::Answered => {
                telemetry::add("server.requests", 1);
                telemetry::record_duration("server.request_latency_ns", self.submitted.elapsed());
                record.requests += 1;
                match response {
                    Response::Overloaded => {
                        record.sheds += 1;
                        "overloaded"
                    }
                    Response::Error(_) | Response::Failed { .. } => {
                        telemetry::add("server.request_errors", 1);
                        record.errors += 1;
                        if matches!(response, Response::Error(_)) {
                            "error"
                        } else {
                            "failed"
                        }
                    }
                    Response::ShuttingDown => "shutting_down",
                    _ => "ok",
                }
            }
            Exit::Replayed => {
                telemetry::add("server.idempotent_replays", 1);
                record.replays += 1;
                "replayed"
            }
            Exit::Rejected | Exit::Overflowed => {
                if let Exit::Overflowed = exit {
                    telemetry::add("server.window_overflows", 1);
                }
                telemetry::add("server.requests_rejected", 1);
                record.errors += 1;
                "rejected"
            }
            Exit::Drained => "shutting_down",
            Exit::WaitExpired => {
                telemetry::add("server.duplicate_waits_expired", 1);
                "failed"
            }
        };
        if let Some(shared) = self.replay.take() {
            let mut cache = shared.replay.lock().expect("replay cache lock poisoned");
            cache.resolve(self.key, response);
        }
        self.file(status)
    }

    /// File the call's `perfdmf_requests` row; returns its usage.
    fn file(&mut self, status: &'static str) -> telemetry::ResourceUsage {
        self.settled = true;
        let usage = self.meter.snapshot();
        let elapsed = self.started.elapsed();
        telemetry::requests::record(telemetry::RequestRecord {
            seq: 0,
            trace_id: self.trace_id,
            session: self.session,
            tenant: std::mem::take(&mut self.tenant),
            kind: self.kind,
            status,
            // Milliseconds of deadline left; negative once exceeded.
            deadline_slack_ms: (self.deadline_ms > 0).then(|| {
                i64::from(self.deadline_ms) - elapsed.as_millis().min(i64::MAX as u128) as i64
            }),
            elapsed_ns: elapsed.as_nanos().min(u64::MAX as u128) as u64,
            slow: false,
            usage,
        });
        usage
    }
}

impl Drop for Call {
    /// An unsettled call abandons its replay-cache marker. If its thread
    /// is panicking, it also files `status = "panic"` and freezes the
    /// flight recorder, so the request that killed a session keeps its
    /// row and its trace.
    fn drop(&mut self) {
        if let Some(shared) = self.replay.take() {
            // Skip a poisoned lock: panicking in `drop` would abort.
            if let Ok(mut cache) = shared.replay.lock() {
                cache.abandon(self.key);
            }
        }
        if !self.settled && std::thread::panicking() {
            telemetry::add("server.request_panics", 1);
            self.file("panic");
            telemetry::trace::fault_dump();
        }
    }
}

/// The reply to a call whose deadline lapsed before its response
/// arrived: a retryable `Failed` tagged with the caller's trace, counted
/// in `explorer.timeouts`.
fn deadline_timeout(deadline: Duration, trace_id: Option<u64>) -> Response {
    telemetry::add("explorer.timeouts", 1);
    let trace_tag = trace_id
        .map(|t| format!(" [trace {t:016x}]"))
        .unwrap_or_default();
    Response::Failed {
        reason: format!("no response within {deadline:?}{trace_tag}"),
        retryable: true,
    }
}

// ---------------------------------------------------------------------
// Per-session state machine.
// ---------------------------------------------------------------------

/// Lifecycle phase of a session state machine.
enum Phase {
    /// Waiting for the Hello frame.
    Handshake,
    /// Serving calls.
    Serving,
    /// A farewell (or auth rejection) is queued; close once the out
    /// buffer drains or the linger budget lapses. Nothing further is
    /// read.
    Closing { since: Instant },
}

/// One connection as a state machine.
struct Session {
    stream: Box<dyn Stream>,
    fd: RawFd,
    phase: Phase,
    record: SessionRecord,
    /// `false` until the handshake succeeds (no registry row exists to
    /// finalize) and after a session panic.
    record_on_close: bool,
    started: Instant,
    last_progress: Instant,
    reader: FrameReader,
    outbuf: Vec<u8>,
    /// Admitted calls not yet settled, in admission order.
    calls: Vec<Call>,
    window: usize,
    close_reason: Option<String>,
    dead: bool,
}

impl Session {
    fn new(new: NewSession, window: usize, now: Instant) -> Session {
        Session {
            stream: new.stream,
            fd: new.fd,
            phase: Phase::Handshake,
            record: SessionRecord::new(0, ""),
            record_on_close: false,
            started: now,
            last_progress: now,
            reader: FrameReader::new(),
            outbuf: Vec::new(),
            calls: Vec::new(),
            window,
            close_reason: None,
            dead: false,
        }
    }

    /// Readiness this session currently cares about.
    fn interest(&self) -> Interest {
        Interest {
            fd: self.fd,
            read: !matches!(self.phase, Phase::Closing { .. }),
            write: !self.outbuf.is_empty(),
        }
    }

    /// Queue a `Goodbye` and stop reading; the connection closes once
    /// the farewell is flushed.
    fn farewell(&mut self, message: &str, close_reason: String, now: Instant) {
        self.outbuf.extend_from_slice(
            &Message::Goodbye {
                reason: message.into(),
            }
            .to_frame(),
        );
        self.close_reason.get_or_insert(close_reason);
        self.phase = Phase::Closing { since: now };
    }

    /// Per-tick work that is not I/O readiness: reply completions,
    /// deadline expiry, parked-duplicate resolution, drain/idle
    /// transitions, and the write flush.
    fn tick(&mut self, shared: &Arc<Shared>, waker: &Arc<WakeHandle>, now: Instant) {
        if self.dead {
            return;
        }
        self.poll_calls(shared, waker, now);
        let draining = shared.draining.load(Ordering::SeqCst);
        let quiescent = self.calls.is_empty();
        match self.phase {
            Phase::Handshake if draining => {
                self.farewell("server draining", "server drained".into(), now);
            }
            Phase::Serving if draining && quiescent => {
                self.farewell("server draining", "server drained".into(), now);
            }
            Phase::Handshake | Phase::Serving
                if quiescent && self.last_progress.elapsed() > shared.config.idle_timeout =>
            {
                if matches!(self.phase, Phase::Serving) {
                    telemetry::add("server.idle_closes", 1);
                    self.farewell("idle timeout", "idle timeout".into(), now);
                } else {
                    // A peer that connects and never says Hello is
                    // filed as a disconnect.
                    telemetry::add("server.disconnects", 1);
                    self.dead = true;
                }
            }
            _ => {}
        }
        self.flush_outbuf();
        if let Phase::Closing { since } = self.phase {
            if self.outbuf.is_empty() || since.elapsed() > shared.config.idle_timeout {
                self.dead = true;
            }
        }
    }

    /// Take every call one step: settle the answered and expired,
    /// dispatch the unblocked, leave the rest waiting.
    fn poll_calls(&mut self, shared: &Arc<Shared>, waker: &Arc<WakeHandle>, now: Instant) {
        let mut i = 0;
        while i < self.calls.len() {
            match self.calls[i].poll(shared, now) {
                Step::Wait => i += 1,
                step => {
                    let call = self.calls.remove(i);
                    self.advance(shared, waker, call, step, now);
                }
            }
        }
    }

    /// Carry out `step` for `call`.
    fn advance(
        &mut self,
        shared: &Arc<Shared>,
        waker: &Arc<WakeHandle>,
        call: Call,
        step: Step,
        now: Instant,
    ) {
        match step {
            Step::Wait => self.calls.push(call),
            Step::Dispatch => self.dispatch(shared, waker, call, now),
            Step::Settle(response, exit) => self.finish(call, response, exit),
        }
    }

    /// Queue a parked call for the analysis workers with its trace
    /// context and meter, so worker spans and usage attribute to it, and
    /// its deadline counted from `now`. The call then waits dispatched,
    /// or settles the shed.
    fn dispatch(
        &mut self,
        shared: &Arc<Shared>,
        waker: &Arc<WakeHandle>,
        mut call: Call,
        now: Instant,
    ) {
        let request = std::mem::replace(call.request(), Request::Ping);
        let _adopted = call.trace.map(telemetry::trace::adopt_context);
        let deadline = (call.deadline_ms > 0)
            .then(|| now + Duration::from_millis(u64::from(call.deadline_ms)));
        call.submitted = now;
        let (reply, rx) = bounded(1);
        let job = Job {
            request,
            reply,
            submitted: Instant::now(),
            deadline,
            trace: telemetry::trace::current_context(),
            meter: call.meter.clone(),
            waker: waker.clone(),
        };
        match shared.queue.try_send(job) {
            Ok(()) => {
                call.state = State::Dispatched { rx, deadline };
                self.calls.push(call);
            }
            Err(TrySendError::Full(_)) => {
                telemetry::add("explorer.sheds", 1);
                self.finish(call, Response::Overloaded, Exit::Answered);
            }
            Err(TrySendError::Disconnected(_)) => {
                let down = Response::Error("analysis server is down".into());
                self.finish(call, down, Exit::Answered);
            }
        }
    }

    /// Settle an admitted call, release its in-flight slot in the
    /// session's bookkeeping, and queue its reply.
    fn finish(&mut self, call: Call, response: Response, exit: Exit) {
        let seq = call.seq;
        let usage = call.settle(&mut self.record, &response, exit);
        self.record.requests_inflight = self.record.requests_inflight.saturating_sub(1);
        if self.record.requests_inflight == 0 {
            self.record.trace_id = None;
        }
        telemetry::sessions::note_request_finished(self.record.id);
        self.queue_reply(seq, usage, response);
    }

    /// Queue a `Reply` frame carrying the call's resource usage. A
    /// reply over the frame cap, which the client would reject with
    /// its connection, goes out as a final `Failed` under the same seq.
    fn queue_reply(&mut self, seq: u64, usage: telemetry::ResourceUsage, response: Response) {
        let reply = |response| Message::Reply {
            seq,
            usage: Some(usage),
            response,
        };
        let frame = reply(response).frame().unwrap_or_else(|e| {
            reply(Response::Failed {
                reason: format!("reply {e}"),
                retryable: false,
            })
            .to_frame()
        });
        self.outbuf.extend_from_slice(&frame);
    }

    /// Push queued bytes at the socket; park the rest on `WouldBlock`.
    fn flush_outbuf(&mut self) {
        if self.outbuf.is_empty() || self.dead {
            return;
        }
        match write_available(self.stream.as_mut(), &mut self.outbuf) {
            Ok(_) => {
                self.last_progress = Instant::now();
            }
            Err(_) => {
                if !matches!(self.phase, Phase::Closing { .. }) {
                    telemetry::add("server.disconnects", 1);
                    self.close_reason
                        .get_or_insert_with(|| "transport error: reply write failed".into());
                }
                self.dead = true;
            }
        }
    }

    /// Pull frames while the socket has them, dispatching each.
    fn on_readable(&mut self, shared: &Arc<Shared>, waker: &Arc<WakeHandle>, now: Instant) {
        loop {
            if self.dead || matches!(self.phase, Phase::Closing { .. }) {
                return;
            }
            let mut progressed = false;
            let step = self.reader.step(self.stream.as_mut(), &mut progressed);
            if progressed {
                self.last_progress = Instant::now();
            }
            match step {
                ReadStep::Frame(body) => self.on_frame(shared, waker, body, now),
                ReadStep::Blocked => return,
                ReadStep::Eof => {
                    telemetry::add("server.disconnects", 1);
                    if matches!(self.phase, Phase::Serving) {
                        self.close_reason.get_or_insert("client closed".into());
                    }
                    self.stream.shutdown();
                    self.dead = true;
                    return;
                }
                ReadStep::TornEof => {
                    telemetry::add("server.disconnects", 1);
                    self.close_reason
                        .get_or_insert("transport error: peer closed mid-frame".into());
                    self.stream.shutdown();
                    self.dead = true;
                    return;
                }
                ReadStep::Wire(e) => {
                    telemetry::add("server.frames_rejected", 1);
                    if matches!(self.phase, Phase::Serving) {
                        self.record.protocol_errors += 1;
                        self.farewell(
                            &format!("bad frame: {e}"),
                            format!("protocol error: {e}"),
                            now,
                        );
                    } else {
                        self.farewell(
                            &format!("bad hello frame: {e}"),
                            format!("protocol error: {e}"),
                            now,
                        );
                    }
                    self.flush_outbuf();
                    return;
                }
                ReadStep::Io(e) => {
                    telemetry::add("server.disconnects", 1);
                    self.close_reason
                        .get_or_insert_with(|| format!("transport error: {e}"));
                    self.stream.shutdown();
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Dispatch one decoded frame per the current phase.
    fn on_frame(
        &mut self,
        shared: &Arc<Shared>,
        waker: &Arc<WakeHandle>,
        body: Vec<u8>,
        now: Instant,
    ) {
        match self.phase {
            Phase::Handshake => self.on_hello(shared, body, now),
            Phase::Serving => self.on_call_frame(shared, waker, body, now),
            Phase::Closing { .. } => {}
        }
    }

    /// Handshake: the first frame must be a Hello speaking exactly
    /// [`PROTOCOL_VERSION`] and, when required, authenticated.
    fn on_hello(&mut self, shared: &Arc<Shared>, body: Vec<u8>, now: Instant) {
        match Message::decode(&body) {
            Ok(Message::Hello {
                protocol,
                tenant,
                token,
            }) => {
                if protocol != PROTOCOL_VERSION {
                    telemetry::add("server.protocol_errors", 1);
                    self.farewell(
                        &format!(
                            "protocol version {protocol} unsupported (want {PROTOCOL_VERSION})"
                        ),
                        "protocol error: unsupported version".into(),
                        now,
                    );
                    return;
                }
                match authenticate(&shared.config, &token) {
                    Ok(authenticated) => {
                        let id = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
                        self.outbuf.extend_from_slice(
                            &Message::HelloAck {
                                session: id,
                                key_space: id & 0xFFFF_FFFF,
                            }
                            .to_frame(),
                        );
                        let mut record = SessionRecord::new(id, tenant);
                        record.authenticated = authenticated;
                        telemetry::sessions::upsert(record.clone());
                        self.record = record;
                        self.record_on_close = true;
                        self.phase = Phase::Serving;
                    }
                    Err(rejection) => {
                        self.outbuf.extend_from_slice(&rejection.to_frame());
                        self.close_reason
                            .get_or_insert("authentication failed".into());
                        self.phase = Phase::Closing { since: now };
                    }
                }
            }
            Ok(_) => {
                telemetry::add("server.protocol_errors", 1);
                self.farewell(
                    "expected Hello as the first frame",
                    "protocol error: expected Hello".into(),
                    now,
                );
            }
            Err(e) => {
                telemetry::add("server.frames_rejected", 1);
                self.farewell(
                    &format!("bad hello frame: {e}"),
                    format!("protocol error: {e}"),
                    now,
                );
            }
        }
        self.flush_outbuf();
    }

    /// A frame on an established session: Call, Goodbye, or garbage.
    fn on_call_frame(
        &mut self,
        shared: &Arc<Shared>,
        waker: &Arc<WakeHandle>,
        body: Vec<u8>,
        now: Instant,
    ) {
        match Message::decode(&body) {
            Ok(Message::Goodbye { .. }) => {
                self.close_reason.get_or_insert("client goodbye".into());
                self.stream.shutdown();
                self.dead = true;
            }
            Ok(Message::Call {
                seq,
                deadline_ms,
                idempotency,
                trace,
                request,
            }) => {
                if seq <= self.record.last_seq {
                    telemetry::add("server.protocol_errors", 1);
                    self.record.protocol_errors += 1;
                    self.farewell(
                        &format!("sequence regression: {seq} after {}", self.record.last_seq),
                        "protocol error: sequence regression".into(),
                        now,
                    );
                    return;
                }
                self.record.last_seq = seq;
                let call = Call::new(seq, deadline_ms, idempotency, trace, request, &self.record);
                self.begin_call(shared, waker, call);
            }
            Ok(_) => {
                telemetry::add("server.protocol_errors", 1);
                self.record.protocol_errors += 1;
                self.farewell(
                    "unexpected message kind",
                    "protocol error: unexpected message kind".into(),
                    now,
                );
            }
            Err(e) => {
                telemetry::add("server.frames_rejected", 1);
                self.record.protocol_errors += 1;
                self.farewell(
                    &format!("bad frame: {e}"),
                    format!("protocol error: {e}"),
                    now,
                );
            }
        }
    }

    /// Admit one call: the window check, then the traced, metered scope
    /// in which it is validated, checked against the drain and the
    /// replay cache, and dispatched.
    fn begin_call(&mut self, shared: &Arc<Shared>, waker: &Arc<WakeHandle>, mut call: Call) {
        if self.calls.len() >= self.window {
            // The window bounds queued work per connection; rejecting
            // beyond it is a protocol-visible, typed error the client's
            // pipeline API surfaces verbatim. The call never took an
            // in-flight slot, so it settles and replies directly.
            let response = Response::Error(format!(
                "pipelining window of {} outstanding calls exceeded",
                self.window
            ));
            let seq = call.seq;
            let usage = call.settle(&mut self.record, &response, Exit::Overflowed);
            self.queue_reply(seq, usage, response);
            return;
        }
        self.record.requests_inflight += 1;
        self.record.trace_id = call.trace_id;
        telemetry::sessions::note_request_started(self.record.id, self.record.trace_id);

        // The traced, metered scope: everything from here to the
        // queue hand-off runs under the adopted client context and a
        // `server.request` span, so worker spans parent correctly. The
        // span closes before `call` drops, so a session-injected panic
        // dumps the span along with the call's row.
        let _adopted = call.trace.map(telemetry::trace::adopt_context);
        let _metered = telemetry::adopt_meter(call.meter.clone());
        let _span = telemetry::span("server.request");
        call.trace_id = call
            .trace_id
            .or_else(|| telemetry::trace::current_trace_id().map(|t| t.0));
        if shared.config.allow_fault_injection {
            if let Request::InjectPanic(message) = call.request() {
                if let Some(rest) = message.strip_prefix("session:") {
                    panic!("injected session panic: {rest}");
                }
            }
        }
        if let Err(reason) = validate(call.request(), &shared.config) {
            self.finish(call, Response::Error(reason), Exit::Rejected);
        } else if shared.draining.load(Ordering::SeqCst) {
            self.finish(call, Response::ShuttingDown, Exit::Drained);
        } else {
            let now = call.started;
            let step = call.poll(shared, now);
            self.advance(shared, waker, call, step, now);
        }
    }

    /// A panic escaped this session's tick or I/O dispatch: count it,
    /// freeze the flight recorder, and close without the final registry
    /// upsert.
    fn panic_close(&mut self) {
        telemetry::add("server.session_panics", 1);
        telemetry::trace::fault_dump();
        self.record_on_close = false;
        self.stream.shutdown();
        self.dead = true;
    }

    /// Tear down: release the socket, hand dispatched calls to the
    /// executor's orphan list (their outcomes must still resolve
    /// replay-cache markers and move the counters), and finalize the
    /// registry row.
    fn finalize(mut self, shared: &Arc<Shared>, orphans: &mut Vec<Call>) {
        self.stream.shutdown();
        // Parked calls hold no cache marker; dropping them stops the
        // wait and files no row.
        orphans.extend(self.calls.drain(..).filter(|call| call.reply().is_some()));
        if self.record_on_close {
            self.record.state = SessionState::Closed;
            self.record.connected_ms =
                self.started.elapsed().as_millis().min(u64::MAX as u128) as u64;
            self.record.close_reason = Some(
                self.close_reason
                    .take()
                    .unwrap_or_else(|| "connection closed".into()),
            );
            telemetry::sessions::upsert(self.record.clone());
            telemetry::record_duration("server.session_lifetime_ns", self.started.elapsed());
        }
        shared.live_sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// The executor loop.
// ---------------------------------------------------------------------

/// One shard: poll over the wake pipe plus every session's socket;
/// tick sessions; dispatch readiness; reap the dead.
fn run(
    shared: Arc<Shared>,
    intake: Receiver<NewSession>,
    wake_rx: UnixStream,
    waker: Arc<WakeHandle>,
) {
    let _adopted = shared.telemetry.adopt();
    let mut reactor = PollReactor::default();
    let window = shared.config.window;
    let wake_fd = wake_rx.as_raw_fd();
    let mut wake_scratch = [0u8; 64];
    let mut sessions: Vec<Session> = Vec::new();
    let mut orphans: Vec<Call> = Vec::new();
    let mut interests: Vec<Interest> = Vec::new();
    // Whether the last poll reported the wake pipe readable; pending
    // bytes must be drained then (level-triggered poll would spin on
    // them otherwise), and only then — the drain read is a syscall on
    // the per-request path.
    let mut drain_wake = true;
    loop {
        let now = Instant::now();
        // Intake: adopt newly accepted connections.
        while let Ok(new) = intake.try_recv() {
            sessions.push(Session::new(new, window, now));
        }
        if drain_wake {
            drain_wake = false;
            loop {
                match (&wake_rx).read(&mut wake_scratch) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
        // Tick every session; a panic (e.g. an injected session panic)
        // kills only that session, never the shard.
        for session in &mut sessions {
            if catch_unwind(AssertUnwindSafe(|| session.tick(&shared, &waker, now))).is_err() {
                session.panic_close();
            }
        }
        // Calls orphaned by closed sessions settle with no reply. The
        // session's registry row is already final, so their tallies go
        // to a scratch record; the global counters still move.
        let mut i = 0;
        while i < orphans.len() {
            match orphans[i].poll(&shared, now) {
                Step::Settle(response, exit) => {
                    let call = orphans.swap_remove(i);
                    call.settle(&mut SessionRecord::new(0, ""), &response, exit);
                }
                _ => i += 1,
            }
        }
        // Reap the dead.
        let mut i = 0;
        while i < sessions.len() {
            if sessions[i].dead {
                let session = sessions.swap_remove(i);
                session.finalize(&shared, &mut orphans);
            } else {
                i += 1;
            }
        }
        if shared.draining.load(Ordering::SeqCst) && sessions.is_empty() && orphans.is_empty() {
            // Intake was drained at the top of this iteration; anything
            // delivered after this check finds a dropped receiver and
            // the connection closes cleanly.
            return;
        }
        // Eager completions: a dispatched call often finishes within
        // microseconds (Ping, replay-cache hits), and parking in the
        // reactor first would tax every such reply with a wake-pipe
        // round trip — a worker write, a poll(2) wakeup, and a drain
        // read. Yield to the workers a few times and re-check the
        // completion channels; park only once the spin comes up dry.
        // Slow calls cost at most EAGER_SPINS sched_yields here, noise
        // against their execution time.
        let mut pending: usize = sessions.iter().map(|s| s.calls.len()).sum();
        if pending > 0 {
            for _ in 0..EAGER_SPINS {
                std::thread::yield_now();
                let now = Instant::now();
                let mut remaining = 0;
                for session in &mut sessions {
                    if session.dead || session.calls.is_empty() {
                        continue;
                    }
                    if catch_unwind(AssertUnwindSafe(|| {
                        session.poll_calls(&shared, &waker, now);
                        session.flush_outbuf();
                    }))
                    .is_err()
                    {
                        session.panic_close();
                        continue;
                    }
                    remaining += session.calls.len();
                }
                if remaining < pending {
                    // Progress: replies are flushed; resume the loop so
                    // fresh intake and I/O aren't starved by the spin.
                    break;
                }
                pending = remaining;
            }
        }
        // Park gate: advertise the shard as parked, then make one
        // final non-blocking sweep of everything a wake() signals —
        // intake deliveries and completion channels. A producer that
        // loaded `parked == false` is ordered before the store below,
        // so its message is visible to this sweep; a producer that
        // sees `true` pays the pipe write and poll(2) returns at once.
        // Either way nothing actionable slips into the gap, and the
        // steady path (shard awake, eager spin already flushed the
        // reply) skips the wake byte, its drain read, and the spurious
        // poll return entirely. The drain flag is deliberately not
        // swept: every sleep is capped at POLL_INTERVAL, so a drain
        // landing mid-gate is noticed one tick later at worst.
        waker.parked.store(true, Ordering::SeqCst);
        let mut calls = sessions.iter().flat_map(|s| &s.calls).chain(&orphans);
        if !intake.is_empty() || calls.any(|c| c.reply().is_some_and(|rx| !rx.is_empty())) {
            waker.parked.store(false, Ordering::SeqCst);
            continue;
        }
        // Build the interest list and the poll timeout.
        interests.clear();
        interests.push(Interest {
            fd: wake_fd,
            read: true,
            write: false,
        });
        interests.extend(sessions.iter().map(Session::interest));
        // Deadlines and duplicate-wait expiries need the loop even
        // without I/O; idle and linger budgets ride on the tick.
        let mut timeout = POLL_INTERVAL;
        let calls = sessions.iter().flat_map(|s| &s.calls).chain(&orphans);
        if let Some(wake_at) = calls.filter_map(Call::wake_at).min() {
            timeout = timeout.min(wake_at.saturating_duration_since(now));
        }
        let waited = reactor.wait(&interests, timeout);
        waker.parked.store(false, Ordering::SeqCst);
        let ready = match waited {
            Ok(ready) => ready,
            Err(_) => {
                // A reactor failure (resource exhaustion) must not spin
                // the shard; back off one tick and retry.
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
        };
        // Dispatch readiness. ready[0] is the wake pipe, drained at the
        // top of the next iteration.
        drain_wake = ready.first().is_some_and(|r| r.readable);
        let now = Instant::now();
        for (session, readiness) in sessions.iter_mut().zip(ready.iter().skip(1)) {
            if session.dead {
                continue;
            }
            let io = catch_unwind(AssertUnwindSafe(|| {
                if readiness.writable {
                    session.flush_outbuf();
                }
                if readiness.readable {
                    session.on_readable(&shared, &waker, now);
                }
                if readiness.hangup && !readiness.readable && !session.dead {
                    telemetry::add("server.disconnects", 1);
                    session
                        .close_reason
                        .get_or_insert("transport error: hangup".into());
                    session.dead = true;
                }
            }));
            if io.is_err() {
                session.panic_close();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_reactor_times_out_then_reports_readable() {
        let (a, b) = UnixStream::pair().expect("pair");
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let mut reactor = PollReactor::default();
        let interests = [Interest {
            fd: b.as_raw_fd(),
            read: true,
            write: false,
        }];
        let idle = reactor
            .wait(&interests, Duration::from_millis(20))
            .expect("poll");
        assert!(!idle[0].readable, "nothing written yet");
        (&a).write_all(&[7u8]).unwrap();
        let ready = reactor
            .wait(&interests, Duration::from_millis(200))
            .expect("poll");
        assert!(ready[0].readable, "a pending byte must report readable");
    }

    #[test]
    fn poll_reactor_reports_writable_and_hangup() {
        let (a, b) = UnixStream::pair().expect("pair");
        let mut reactor = PollReactor::default();
        let writable = reactor
            .wait(
                &[Interest {
                    fd: a.as_raw_fd(),
                    read: false,
                    write: true,
                }],
                Duration::from_millis(100),
            )
            .expect("poll");
        assert!(writable[0].writable, "fresh socket must accept bytes");
        drop(b);
        let hung = reactor
            .wait(
                &[Interest {
                    fd: a.as_raw_fd(),
                    read: true,
                    write: false,
                }],
                Duration::from_millis(100),
            )
            .expect("poll");
        assert!(
            hung[0].readable && hung[0].hangup,
            "peer close must surface as readable EOF + hangup, got {:?}",
            hung[0]
        );
    }

    #[test]
    fn wake_handle_unblocks_a_parked_wait() {
        let (wake_tx, wake_rx) = UnixStream::pair().expect("pair");
        wake_tx.set_nonblocking(true).unwrap();
        wake_rx.set_nonblocking(true).unwrap();
        let waker = Arc::new(WakeHandle::new(wake_tx));
        let poker = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            poker.wake();
        });
        let mut reactor = PollReactor::default();
        let started = Instant::now();
        let ready = reactor
            .wait(
                &[Interest {
                    fd: wake_rx.as_raw_fd(),
                    read: true,
                    write: false,
                }],
                Duration::from_secs(5),
            )
            .expect("poll");
        assert!(ready[0].readable, "the wake byte must be readable");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the wake must cut the 5s timeout short"
        );
        handle.join().unwrap();
        // Repeated wakes while one is pending must not error or block.
        waker.wake();
        waker.wake();
    }
}
