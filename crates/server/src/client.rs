//! The network client: PerfExplorer requests over a TCP connection,
//! with retries that survive torn connections.
//!
//! [`NetClient`] answers `request(Request) -> Response` like the
//! in-process [`perfdmf_explorer::handle`], and adds pipelining
//! ([`NetClient::pipeline`]) plus what a network hop requires. A single
//! request is a pipelined batch of one: every call goes through one
//! retry loop over one windowed send pass, so these rules hold for
//! both:
//!
//! * **reconnect-and-retry** — a transport failure (reset, torn or
//!   corrupt frame, `Goodbye`, reply timeout) tears down the connection
//!   and resends only the unanswered calls on a fresh one; `Overloaded`
//!   and retryable `Failed` verdicts are resent too, until the policy's
//!   last attempt. Retries are paced by a [`RetryPolicy`] with
//!   seed-deterministic backoff jitter; an auth rejection is
//!   terminal;
//! * **idempotency keys** — every *effectful* request carries a key
//!   drawn from the client's server-assigned key space (granted in
//!   `HelloAck`, so clients in different processes can never collide)
//!   and keeps it on every resend; the server records the response
//!   under it, so a retry whose predecessor *did* execute (the ack was
//!   lost, not the write) replays the recorded response instead of
//!   applying the write twice. Pure reads and pings send no key,
//!   keeping the server's bounded replay cache for the writes that
//!   need it;
//! * **deadline propagation** — an optional deadline covers *all*
//!   attempts; each `Call` frame carries the milliseconds still
//!   remaining at send time, and the server enforces that budget across
//!   queue wait and execution. A call whose deadline expires before it
//!   is sent gets a non-retryable `Failed`, and so does a call whose
//!   frame would exceed [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN), which
//!   is never sent;
//! * **tracing** — one `client.request` span per exchange, its context
//!   carried on every `Call`.
//!
//! Transport failures that outlive the retry budget surface as
//! [`Response::Failed`] with `retryable: true` — the caller sees the
//! protocol's own vocabulary, never an `io::Error`.

use crate::server::DEFAULT_PIPELINE_WINDOW;
use crate::stream::{write_all, FrameReader, NetFaultPlan, ReadStep, RealStream, Stream};
use crate::wire::{Message, PROTOCOL_VERSION};
use perfdmf_explorer::{Request, Response};
use perfdmf_telemetry as telemetry;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a single connect attempt may take.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Read-poll granularity while waiting for a reply.
const READ_POLL: Duration = Duration::from_millis(25);

/// How long to wait for a reply when the request has no deadline.
const DEFAULT_REPLY_WAIT: Duration = Duration::from_secs(10);

/// How [`NetClient`] retries requests that fail transiently.
///
/// Retries apply to [`Response::Overloaded`] (the queue was full) and to
/// [`Response::Failed`] with `retryable: true` (a deadline expired in
/// the queue, or the transport dropped mid-request). Deterministic
/// failures — panics, analysis errors — are returned immediately. Delay
/// doubles after each attempt, capped at `max_delay`, plus a jitter term
/// of up to `jitter` so simultaneous retriers don't re-collide in
/// lockstep.
///
/// The jitter is **seed-deterministic**: it is a pure function of
/// `(seed, key, attempt)`, where the seed is the fixed `RETRY_SEED`
/// and `key` is the client's per-exchange nonce (not the idempotency
/// key: reads have none). A chaos-test failure therefore replays with
/// exactly the same backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = no retries).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Upper bound on the per-attempt exponential delay (jitter rides
    /// on top).
    pub max_delay: Duration,
    /// Upper bound on the additive per-attempt jitter.
    pub jitter: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter: Duration::from_millis(10),
        }
    }
}

/// The jitter seed.
const RETRY_SEED: u64 = 0x5045_5246_444D_4601;

impl RetryPolicy {
    /// No retries at all: every failure is returned to the caller.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter: Duration::ZERO,
        }
    }

    /// Backoff before retry attempt `n` (0-based) of the request
    /// identified by `key`: `base_delay` doubling per attempt and
    /// saturating at `max_delay`, plus a deterministic jitter in
    /// `[0, jitter]` drawn from `(seed, key, attempt)`.
    pub fn delay(&self, attempt: u32, key: u64) -> Duration {
        self.delay_seeded(attempt, key, RETRY_SEED)
    }

    /// [`RetryPolicy::delay`] with an explicit seed (tests).
    fn delay_seeded(&self, attempt: u32, key: u64, seed: u64) -> Duration {
        let factor = 1u32 << attempt.min(16);
        let exp = (self.base_delay * factor).min(self.max_delay);
        let jitter_ns = self.jitter.as_nanos().min(u64::MAX as u128) as u64;
        if jitter_ns == 0 {
            return exp;
        }
        // One SplitMix64 draw, the generator the fault seams use too.
        let state = seed ^ key.rotate_left(17) ^ (u64::from(attempt) << 1);
        let draw = telemetry::mix64(state.wrapping_add(telemetry::GOLDEN_GAMMA));
        exp + Duration::from_nanos(draw % (jitter_ns + 1))
    }
}

/// A TCP client for [`crate::PerfdmfServer`].
pub struct NetClient {
    addr: SocketAddr,
    tenant: String,
    /// Session token presented in the handshake. Defaults to
    /// `PERFDMF_SERVER_TOKEN` so a client process pointed at a
    /// token-guarded server authenticates without code changes.
    token: Option<String>,
    policy: RetryPolicy,
    deadline: Option<Duration>,
    /// Max calls left unanswered on the wire by [`NetClient::pipeline`].
    window: usize,
    fault: Option<NetFaultPlan>,
    stream: Option<Box<dyn Stream>>,
    /// Server-assigned session id of the current connection (0 = none).
    session: u64,
    next_seq: u64,
    /// Idempotency key space (high 32 bits of every drawn key).
    /// 0 = not yet assigned: the server grants one in the first
    /// `HelloAck`, uniquely across *all* clients of that server —
    /// a process-local counter could hand two clients in different
    /// processes the same space and let one replay the other's cached
    /// responses. [`NetClient::with_key_space`] pins it for tests.
    key_space: u64,
    next_key: u64,
    next_jitter: u64,
    connects: u64,
    /// Server-side resource usage attached to the most recent reply
    /// (`None` before the first reply, or when the server sent none).
    last_usage: Option<telemetry::ResourceUsage>,
}

impl NetClient {
    /// A client for `addr`, tagged with `tenant`. No I/O happens until
    /// the first request (or [`NetClient::ping`]).
    pub fn new(addr: SocketAddr, tenant: impl Into<String>) -> NetClient {
        NetClient {
            addr,
            tenant: tenant.into(),
            token: std::env::var("PERFDMF_SERVER_TOKEN").ok(),
            policy: RetryPolicy::default(),
            deadline: None,
            window: DEFAULT_PIPELINE_WINDOW,
            fault: None,
            stream: None,
            session: 0,
            next_seq: 1,
            key_space: 0,
            next_key: 1,
            next_jitter: 0,
            connects: 0,
            last_usage: None,
        }
    }

    /// Builder: replace the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder: present `token` in the handshake (overrides the
    /// `PERFDMF_SERVER_TOKEN` environment default; `None` clears it).
    pub fn with_token(mut self, token: Option<String>) -> Self {
        self.token = token;
        self
    }

    /// Builder: cap how many pipelined calls may be outstanding at once
    /// (see [`NetClient::pipeline`]). Keep at or below the server's
    /// window or the excess comes back as typed errors.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Builder: give every request this overall deadline (covering all
    /// retry attempts, propagated to the server in each frame).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder: wrap every connection in a
    /// [`crate::stream::FaultStream`] with this plan (chaos tests). The
    /// plan's seed is decorrelated per reconnect so retries don't replay
    /// the identical tear.
    pub fn with_fault_plan(mut self, plan: NetFaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builder: pin the idempotency-key space instead of adopting the
    /// server-assigned one (chaos tests want keys that are a pure
    /// function of the scenario seed). Pinned spaces bypass the
    /// server's uniqueness guarantee — the caller owns non-collision.
    pub fn with_key_space(mut self, space: u64) -> Self {
        self.key_space = space;
        self
    }

    /// The session id granted by the server's `HelloAck` (0 before the
    /// first successful handshake).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The idempotency-key space in use: pinned via
    /// [`NetClient::with_key_space`], else granted by the server's
    /// first `HelloAck` (0 before then). Stable across reconnects —
    /// keys drawn before a reconnect stay valid for replay.
    pub fn key_space(&self) -> u64 {
        self.key_space
    }

    /// Times this client has (re)connected.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// The server-side [`telemetry::ResourceUsage`] attached to the most
    /// recent reply: what the last request cost the server in rows,
    /// cache traffic, WAL bytes, and queue/execute time. `None` before
    /// the first reply, or when the reply carried no usage.
    pub fn last_usage(&self) -> Option<telemetry::ResourceUsage> {
        self.last_usage
    }

    /// Draw the next idempotency key: `key_space` in the high 32 bits,
    /// a local counter below. Never zero (zero means "no key"). Only
    /// called once a key space exists — post-handshake or pinned.
    fn draw_key(&mut self) -> u64 {
        let key = (self.key_space << 32) | self.next_key;
        self.next_key += 1;
        key
    }

    /// Liveness probe; `true` when the server answered `Pong`.
    pub fn ping(&mut self) -> bool {
        matches!(self.request(Request::Ping), Response::Pong)
    }

    /// Send `request` as a batch of one, through the same retry loop as
    /// [`NetClient::pipeline`]: transport failures and retryable
    /// rejections are retried per the policy. Effectful requests (see
    /// [`Request::is_effectful`]) automatically draw an idempotency key
    /// from the server-assigned key space on their first send; pure
    /// reads and pings carry none. Use [`NetClient::request_keyed`] to
    /// control the key explicitly.
    pub fn request(&mut self, request: Request) -> Response {
        self.exchange(std::slice::from_ref(&request), vec![None])
            .pop()
            .expect("one reply per request")
    }

    /// Send `request` under an explicit idempotency key. Reusing a key
    /// re-delivers the recorded response of the first successful
    /// execution instead of executing again.
    pub fn request_keyed(&mut self, request: Request, key: u64) -> Response {
        self.exchange(std::slice::from_ref(&request), vec![Some(key)])
            .pop()
            .expect("one reply per request")
    }

    /// Send `requests` pipelined on one connection: up to the client
    /// window are left outstanding at once, replies are matched to
    /// requests by seq (the server may answer them out of order), and
    /// the result lines up index-for-index with the input.
    ///
    /// Retries follow the same rules as [`NetClient::request`]: a
    /// transport failure reconnects and resends only the *unanswered*
    /// requests, under their original idempotency keys, so an effectful
    /// request whose reply was lost replays the recorded response
    /// instead of executing twice; `Overloaded` and retryable `Failed`
    /// verdicts are resent until the policy's last attempt. Other
    /// verdicts, window-overflow errors included, are returned as-is.
    pub fn pipeline(&mut self, requests: &[Request]) -> Vec<Response> {
        telemetry::add("netclient.pipelines", 1);
        self.exchange(requests, vec![None; requests.len()])
    }

    /// The one retry loop. `keys[i]` is `None` until the first send of
    /// request `i` resolves it (drawn post-handshake so the space is
    /// the server-assigned one); every resend reuses it. Each attempt
    /// is one [`NetClient::send_pending`] pass over the requests that
    /// are still unanswered or hold a transient verdict.
    fn exchange(&mut self, requests: &[Request], mut keys: Vec<Option<u64>>) -> Vec<Response> {
        let started = Instant::now();
        telemetry::add("netclient.requests", requests.len() as u64);
        let deadline = self.deadline.map(|d| started + d);
        // The client half of the end-to-end trace: when tracing is on
        // and the sampler elects this exchange (`PERFDMF_TRACE_SAMPLE`),
        // open a `client.request` span covering every attempt and
        // propagate its context in each Call frame, so the server's
        // `server.request` spans parent into it across the wire.
        let sampled = telemetry::tracing_enabled() && telemetry::trace::sample_request();
        let _span = sampled.then(|| telemetry::span("client.request"));
        let trace = sampled.then(telemetry::trace::current_context).flatten();
        // Backoff jitter seed: a per-exchange nonce, deterministic and
        // independent of idempotency keys (reads have none).
        self.next_jitter = self.next_jitter.wrapping_add(1);
        let jitter = self.next_jitter;
        let mut replies: Vec<Option<Response>> = vec![None; requests.len()];
        let mut pending: Vec<usize> = (0..requests.len()).collect();
        let mut transport = String::from("transport: no reply");
        for attempt in 0..=self.policy.max_retries {
            if attempt > 0 {
                let mut pause = self.policy.delay(attempt - 1, jitter);
                if let Some(deadline) = deadline {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        break;
                    }
                    pause = pause.min(remaining);
                }
                telemetry::add("netclient.retries", 1);
                std::thread::sleep(pause);
            }
            match self.send_pending(requests, &pending, &mut keys, &mut replies, deadline, trace) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::PermissionDenied => {
                    telemetry::add("netclient.auth_rejections", 1);
                    self.disconnect();
                    for &i in &pending {
                        replies[i] = Some(Response::Error(e.to_string()));
                    }
                    break;
                }
                Err(e) => {
                    telemetry::add("netclient.transport_errors", 1);
                    self.disconnect();
                    transport = format!("transport: {e}");
                }
            }
            pending.retain(|&i| {
                matches!(
                    replies[i],
                    None | Some(Response::Overloaded)
                        | Some(Response::Failed {
                            retryable: true,
                            ..
                        })
                )
            });
            if pending.is_empty() {
                break;
            }
        }
        telemetry::record_duration("netclient.request_latency_ns", started.elapsed());
        replies
            .into_iter()
            .map(|reply| {
                reply.unwrap_or_else(|| Response::Failed {
                    reason: transport.clone(),
                    retryable: true,
                })
            })
            .collect()
    }

    /// One windowed pass over the current (or a fresh) connection: keep
    /// up to `window` of the `pending` requests outstanding and read
    /// replies (any order) until none remain. Answered slots keep their
    /// verdicts even when the pass fails; `Err` means the transport
    /// failed (a reply timeout included) and the caller reconnects.
    fn send_pending(
        &mut self,
        requests: &[Request],
        pending: &[usize],
        keys: &mut [Option<u64>],
        replies: &mut [Option<Response>],
        deadline: Option<Instant>,
        trace: Option<telemetry::SpanContext>,
    ) -> std::io::Result<()> {
        self.ensure_connected()?;
        // Give the server its full deadline plus slack for the reply to
        // cross the wire; without a deadline, wait a bounded default.
        let reply_by = deadline
            .map(|d| d + Duration::from_millis(250))
            .unwrap_or_else(|| Instant::now() + DEFAULT_REPLY_WAIT);
        let mut outstanding: Vec<(u64, usize)> = Vec::new();
        let mut unsent = pending.iter().copied();
        loop {
            while outstanding.len() < self.window {
                let Some(i) = unsent.next() else { break };
                let deadline_ms = match deadline {
                    Some(d) => {
                        let remaining = d.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            replies[i] = Some(Response::Failed {
                                reason: "deadline expired before send".into(),
                                retryable: false,
                            });
                            continue;
                        }
                        remaining.as_millis().min(u128::from(u32::MAX)) as u32
                    }
                    None => 0,
                };
                let key = match keys[i] {
                    Some(k) => k,
                    None if requests[i].is_effectful() => {
                        let k = self.draw_key();
                        keys[i] = Some(k);
                        k
                    }
                    None => 0,
                };
                let seq = self.next_seq;
                self.next_seq += 1;
                let call = Message::Call {
                    seq,
                    deadline_ms,
                    idempotency: key,
                    trace,
                    request: requests[i].clone(),
                };
                let frame = match call.frame() {
                    Ok(frame) => frame,
                    Err(e) => {
                        // Resending cannot shrink it: a final verdict,
                        // and the connection stays in frame sync.
                        replies[i] = Some(Response::Failed {
                            reason: format!("call {e}"),
                            retryable: false,
                        });
                        continue;
                    }
                };
                let stream = self.stream.as_mut().expect("connected");
                write_all(stream.as_mut(), &frame)?;
                outstanding.push((seq, i));
            }
            if outstanding.is_empty() {
                return Ok(());
            }
            let stream = self.stream.as_mut().expect("connected");
            match read_message(stream.as_mut(), reply_by)? {
                Some(Message::Reply {
                    seq,
                    usage,
                    response,
                }) => {
                    // Every failed pass drops its connection, so a reply
                    // on this one can only answer a call of this pass.
                    let Some(pos) = outstanding.iter().position(|&(s, _)| s == seq) else {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("reply to seq {seq}, which is not outstanding"),
                        ));
                    };
                    let (_, i) = outstanding.swap_remove(pos);
                    self.last_usage = usage;
                    replies[i] = Some(response);
                }
                Some(Message::Goodbye { reason }) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        format!("server goodbye: {reason}"),
                    ));
                }
                Some(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "unexpected message while awaiting replies",
                    ));
                }
                None => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "reply deadline expired",
                    ));
                }
            }
        }
    }

    /// Connect and handshake if there is no live connection.
    fn ensure_connected(&mut self) -> std::io::Result<()> {
        if self.stream.is_some() {
            return Ok(());
        }
        let socket = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
        let mut stream: Box<dyn Stream> = Box::new(RealStream::new(socket));
        if let Some(plan) = self.fault.clone() {
            let mut plan = plan;
            plan.seed = plan
                .seed
                .wrapping_add(self.connects.wrapping_mul(0x9E37_79B9));
            stream = Box::new(crate::stream::FaultStream::new(stream, plan));
        }
        stream.set_read_timeout(Some(READ_POLL))?;
        self.connects += 1;
        telemetry::add("netclient.connects", 1);
        let hello = Message::Hello {
            protocol: PROTOCOL_VERSION,
            tenant: self.tenant.clone(),
            token: self.token.clone(),
        };
        write_all(stream.as_mut(), &hello.frame().map_err(wire_to_io)?)?;
        let reply_by = Instant::now() + DEFAULT_REPLY_WAIT;
        match read_message(stream.as_mut(), reply_by)? {
            Some(Message::HelloAck { session, key_space }) => {
                self.session = session;
                // Adopt the server-assigned key space once, on the
                // first handshake; reconnects grant fresh spaces that
                // are ignored so keys drawn before the reconnect stay
                // in a space no other client can ever be assigned.
                if self.key_space == 0 {
                    self.key_space = key_space;
                }
                self.stream = Some(stream);
                Ok(())
            }
            Some(Message::AuthFailed { reason }) => Err(std::io::Error::new(
                // PermissionDenied is terminal: the retry loop gives up
                // immediately — retrying the same bad token cannot help
                // and would hammer the server's auth-failure path.
                std::io::ErrorKind::PermissionDenied,
                format!("authentication rejected: {reason}"),
            )),
            Some(Message::Goodbye { reason }) => Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                format!("server refused session: {reason}"),
            )),
            Some(_) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "unexpected handshake reply",
            )),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "no handshake reply",
            )),
        }
    }

    /// Tear down the current connection, if any.
    fn disconnect(&mut self) {
        if let Some(mut stream) = self.stream.take() {
            stream.shutdown();
        }
    }

    /// Say goodbye and close. Dropping the client without calling this
    /// is also fine — the server treats the EOF as a clean close.
    pub fn close(mut self) {
        if let Some(mut stream) = self.stream.take() {
            let _ = write_all(
                stream.as_mut(),
                &Message::Goodbye {
                    reason: "client done".into(),
                }
                .to_frame(),
            );
            stream.shutdown();
        }
    }
}

/// Read one message, polling until `reply_by`. `Ok(None)` means the
/// wait expired with no complete frame; any transport or protocol
/// defect is an `Err` (the connection is no longer trustworthy).
fn read_message(stream: &mut dyn Stream, reply_by: Instant) -> std::io::Result<Option<Message>> {
    let mut reader = FrameReader::new();
    let mut progressed = false;
    loop {
        match reader.step(stream, &mut progressed) {
            ReadStep::Frame(body) => return Message::decode(&body).map(Some).map_err(wire_to_io),
            ReadStep::Blocked if Instant::now() >= reply_by => return Ok(None),
            ReadStep::Blocked => {}
            ReadStep::Eof | ReadStep::TornEof => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            ReadStep::Wire(e) => return Err(wire_to_io(e)),
            ReadStep::Io(e) => return Err(e),
        }
    }
}

fn wire_to_io(e: crate::wire::WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("wire: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_backoff_jitter_is_seed_deterministic() {
        let policy = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            jitter: Duration::from_millis(20),
        };
        // Replay: the whole schedule is a pure function of
        // (seed, key, attempt), so a failing chaos run re-executes with
        // identical backoff.
        for attempt in 0..8 {
            for key in [0u64, 1, 42, u64::MAX] {
                let a = policy.delay_seeded(attempt, key, 7);
                let b = policy.delay_seeded(attempt, key, 7);
                assert_eq!(a, b, "attempt {attempt} key {key}");
                // Jitter is additive and bounded: exp <= delay <= exp + jitter.
                let exp = (policy.base_delay * (1u32 << attempt.min(16))).min(policy.max_delay);
                assert!(a >= exp && a <= exp + policy.jitter, "{a:?} vs {exp:?}");
            }
        }
        // Different seeds (or keys) decorrelate the schedules: at least
        // one attempt must differ.
        assert!(
            (0..8).any(|n| policy.delay_seeded(n, 42, 7) != policy.delay_seeded(n, 42, 8)),
            "seed must influence the jitter"
        );
        assert!(
            (0..8).any(|n| policy.delay_seeded(n, 1, 7) != policy.delay_seeded(n, 2, 7)),
            "key must influence the jitter"
        );
        // Zero jitter degrades to the pure exponential schedule.
        let bare = RetryPolicy {
            jitter: Duration::ZERO,
            ..policy
        };
        assert_eq!(bare.delay_seeded(2, 9, 1), Duration::from_millis(40));
    }
}
