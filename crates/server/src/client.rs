//! The network client: `ExplorerClient` semantics over a TCP
//! connection, with retries that survive torn connections.
//!
//! [`NetClient`] mirrors the in-process [`ExplorerClient`] API —
//! `request(Request) -> Response` — but adds what a network hop
//! requires:
//!
//! * **reconnect-and-retry** — transport failures (reset, torn frame,
//!   refused reply) tear down the connection and retry on a fresh one,
//!   paced by the explorer's [`RetryPolicy`] with its seed-deterministic
//!   backoff jitter;
//! * **idempotency keys** — every *effectful* request carries a key
//!   drawn from the client's server-assigned key space (granted in
//!   `HelloAck`, so clients in different processes can never collide);
//!   the server records the response under it, so a retry whose
//!   predecessor *did* execute (the ack was lost, not the write)
//!   replays the recorded response instead of applying the write twice.
//!   Pure reads and pings send no key, keeping the server's bounded
//!   replay cache for the writes that need it;
//! * **deadline propagation** — an optional per-request deadline covers
//!   *all* attempts; each `Call` frame carries the milliseconds still
//!   remaining at send time, and the server enforces that budget across
//!   queue wait and execution.
//!
//! Transport failures that outlive the retry budget surface as
//! [`Response::Failed`] with `retryable: true` — the caller sees the
//! same vocabulary the in-process client uses, never an `io::Error`.

use crate::server::DEFAULT_PIPELINE_WINDOW;
use crate::stream::{write_all, NetFaultPlan, RealStream, Stream};
use crate::wire::{parse_header, verify_body, Message, HEADER_LEN, PROTOCOL_VERSION};
use perfdmf_explorer::{Request, Response, RetryPolicy};
use perfdmf_telemetry as telemetry;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a single connect attempt may take.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Read-poll granularity while waiting for a reply.
const READ_POLL: Duration = Duration::from_millis(25);

/// How long to wait for a reply when the request has no deadline.
const DEFAULT_REPLY_WAIT: Duration = Duration::from_secs(10);

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

    /// Send `request`, retrying transport failures and retryable
    /// rejections per the policy. Effectful requests (see
    /// [`Request::is_effectful`]) automatically draw an idempotency key
    /// from the server-assigned key space on their first attempt; pure
    /// reads and pings carry none. Use [`NetClient::request_keyed`] to
    /// control the key explicitly.
    pub fn request(&mut self, request: Request) -> Response {
        self.run_request(request, None)
    }

    /// Send `request` under an explicit idempotency key. Reusing a key
    /// re-delivers the recorded response of the first successful
    /// execution instead of executing again.
    pub fn request_keyed(&mut self, request: Request, key: u64) -> Response {
        self.run_request(request, Some(key))
    }

    /// Send `requests` pipelined on one connection: up to the client
    /// window are left outstanding at once, replies are matched to
    /// requests by seq (the server may answer them out of order), and
    /// the result lines up index-for-index with the input.
    ///
    /// A transport failure tears the connection down and resends only
    /// the *unanswered* requests on a fresh one, under their original
    /// idempotency keys — so an effectful request whose reply was lost
    /// replays the recorded response instead of executing twice, the
    /// same at-most-once contract as [`NetClient::request`]. Server
    /// verdicts (including window-overflow errors and overload sheds)
    /// are returned as-is, never retried here.
    pub fn pipeline(&mut self, requests: &[Request]) -> Vec<Response> {
        telemetry::add("netclient.pipelines", 1);
        let deadline = self.deadline.map(|d| Instant::now() + d);
        let mut responses: Vec<Option<Response>> = vec![None; requests.len()];
        let mut keys: Vec<Option<u64>> = vec![None; requests.len()];
        for attempt in 0..=self.policy.max_retries {
            if attempt > 0 {
                telemetry::add("netclient.retries", 1);
                self.next_jitter = self.next_jitter.wrapping_add(1);
                let mut pause = self.policy.delay(attempt - 1, self.next_jitter);
                if let Some(deadline) = deadline {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        break;
                    }
                    pause = pause.min(remaining);
                }
                std::thread::sleep(pause);
            }
            match self.pipeline_attempt(requests, &mut keys, &mut responses, deadline) {
                Ok(()) => break,
                Err(e) if e.kind() == std::io::ErrorKind::PermissionDenied => {
                    telemetry::add("netclient.auth_rejections", 1);
                    self.disconnect();
                    let reason = e.to_string();
                    for slot in responses.iter_mut().filter(|s| s.is_none()) {
                        *slot = Some(Response::Error(reason.clone()));
                    }
                    break;
                }
                Err(_) => {
                    telemetry::add("netclient.transport_errors", 1);
                    self.disconnect();
                }
            }
        }
        responses
            .into_iter()
            .map(|r| {
                r.unwrap_or(Response::Failed {
                    reason: "transport: pipelined request unanswered after retries".into(),
                    retryable: true,
                })
            })
            .collect()
    }

    /// One pipelined pass: keep the window full of unanswered requests,
    /// read replies (any order) until none remain. `Err` means the
    /// transport failed mid-flight; answered slots keep their verdicts
    /// and only the rest are retried by [`NetClient::pipeline`].
    fn pipeline_attempt(
        &mut self,
        requests: &[Request],
        keys: &mut [Option<u64>],
        responses: &mut [Option<Response>],
        deadline: Option<Instant>,
    ) -> std::io::Result<()> {
        self.ensure_connected()?;
        let pending: Vec<usize> = (0..requests.len())
            .filter(|&i| responses[i].is_none())
            .collect();
        let mut outstanding: Vec<(u64, usize)> = Vec::new();
        let mut next = 0usize;
        let reply_by = deadline
            .map(|d| d + Duration::from_millis(250))
            .unwrap_or_else(|| Instant::now() + DEFAULT_REPLY_WAIT);
        while next < pending.len() || !outstanding.is_empty() {
            while next < pending.len() && outstanding.len() < self.window {
                let i = pending[next];
                next += 1;
                let key = match keys[i] {
                    Some(k) => k,
                    None if requests[i].is_effectful() => {
                        let k = self.draw_key();
                        keys[i] = Some(k);
                        k
                    }
                    None => 0,
                };
                let deadline_ms = match deadline {
                    Some(d) => {
                        let remaining = d.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                "deadline expired before send",
                            ));
                        }
                        remaining.as_millis().min(u128::from(u32::MAX)) as u32
                    }
                    None => 0,
                };
                let seq = self.next_seq;
                self.next_seq += 1;
                let frame = Message::Call {
                    seq,
                    deadline_ms,
                    idempotency: key,
                    trace: None,
                    request: requests[i].clone(),
                }
                .to_frame();
                let stream = self.stream.as_mut().expect("connected");
                write_all(stream.as_mut(), &frame)?;
                outstanding.push((seq, i));
            }
            let stream = self.stream.as_mut().expect("connected");
            match read_message(stream.as_mut(), reply_by)? {
                Some(Message::Reply {
                    seq,
                    usage,
                    response,
                }) => {
                    if let Some(pos) = outstanding.iter().position(|&(s, _)| s == seq) {
                        let (_, i) = outstanding.swap_remove(pos);
                        self.last_usage = usage;
                        responses[i] = Some(response);
                    }
                    // Unknown seq: a stale reply from an abandoned
                    // attempt on this connection; skip it.
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
                        "unexpected message while awaiting pipelined replies",
                    ));
                }
                None => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "pipelined reply deadline expired",
                    ));
                }
            }
        }
        Ok(())
    }

    /// The retry loop shared by [`NetClient::request`] and
    /// [`NetClient::request_keyed`]. `key` is `None` until the first
    /// attempt resolves it (drawn post-handshake so the space is the
    /// server-assigned one); every retry then reuses the same key.
    fn run_request(&mut self, request: Request, mut key: Option<u64>) -> Response {
        let deadline = self.deadline.map(|d| Instant::now() + d);
        telemetry::add("netclient.requests", 1);
        let started = Instant::now();
        // The client half of the end-to-end trace: when tracing is on
        // and the sampler elects this request (`PERFDMF_TRACE_SAMPLE`),
        // open a `client.request` span covering every attempt and
        // propagate its context in each Call frame, so the server's
        // `server.request` span parents into it across the wire.
        let sampled = telemetry::tracing_enabled() && telemetry::trace::sample_request();
        let _span = sampled.then(|| telemetry::span("client.request"));
        let trace = if sampled {
            telemetry::trace::current_context()
        } else {
            None
        };
        // Backoff jitter seed: the pinned key when there is one, else a
        // per-client nonce — deterministic either way, and independent
        // of the idempotency key, which may not exist yet (or at all,
        // for reads).
        let jitter = key.unwrap_or_else(|| {
            self.next_jitter = self.next_jitter.wrapping_add(1);
            self.next_jitter
        });
        let mut last = Response::Failed {
            reason: "request not attempted".into(),
            retryable: true,
        };
        for attempt in 0..=self.policy.max_retries {
            if attempt > 0 {
                telemetry::add("netclient.retries", 1);
                let mut pause = self.policy.delay(attempt - 1, jitter);
                if let Some(deadline) = deadline {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        break;
                    }
                    pause = pause.min(remaining);
                }
                std::thread::sleep(pause);
            }
            match self.attempt(&request, &mut key, deadline, trace) {
                Ok(response) => {
                    let transient = matches!(
                        response,
                        Response::Overloaded
                            | Response::Failed {
                                retryable: true,
                                ..
                            }
                    );
                    if !transient || attempt == self.policy.max_retries {
                        telemetry::record_duration(
                            "netclient.request_latency_ns",
                            started.elapsed(),
                        );
                        return response;
                    }
                    last = response;
                }
                Err(e) if e.kind() == std::io::ErrorKind::PermissionDenied => {
                    telemetry::add("netclient.auth_rejections", 1);
                    self.disconnect();
                    telemetry::record_duration("netclient.request_latency_ns", started.elapsed());
                    return Response::Error(e.to_string());
                }
                Err(e) => {
                    telemetry::add("netclient.transport_errors", 1);
                    self.disconnect();
                    last = Response::Failed {
                        reason: format!("transport: {e}"),
                        retryable: true,
                    };
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break;
                    }
                }
            }
        }
        telemetry::record_duration("netclient.request_latency_ns", started.elapsed());
        last
    }

    /// One attempt over the current (or a fresh) connection.
    /// `Err` means the transport failed and the caller should
    /// reconnect; `Ok` is the server's verdict, favorable or not.
    ///
    /// An unresolved `key` is settled here, after the handshake has
    /// granted a key space: effectful requests draw a fresh key (stored
    /// back so retries reuse it), everything else sends 0 (no key).
    fn attempt(
        &mut self,
        request: &Request,
        key: &mut Option<u64>,
        deadline: Option<Instant>,
        trace: Option<telemetry::SpanContext>,
    ) -> std::io::Result<Response> {
        self.ensure_connected()?;
        let key = match *key {
            Some(k) => k,
            None if request.is_effectful() => {
                let k = self.draw_key();
                *key = Some(k);
                k
            }
            None => 0,
        };
        let deadline_ms = match deadline {
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Ok(Response::Failed {
                        reason: "deadline expired before send".into(),
                        retryable: false,
                    });
                }
                remaining.as_millis().min(u128::from(u32::MAX)) as u32
            }
            None => 0,
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = Message::Call {
            seq,
            deadline_ms,
            idempotency: key,
            trace,
            request: request.clone(),
        }
        .to_frame();
        let stream = self.stream.as_mut().expect("connected");
        write_all(stream.as_mut(), &frame)?;
        // Give the server its full deadline plus slack for the reply to
        // cross the wire; without a deadline, wait a bounded default.
        let reply_by = deadline
            .map(|d| d + Duration::from_millis(250))
            .unwrap_or_else(|| Instant::now() + DEFAULT_REPLY_WAIT);
        loop {
            let message = match read_message(stream.as_mut(), reply_by) {
                Ok(Some(message)) => message,
                Ok(None) => {
                    // No reply in time. Drop the connection so a stale
                    // reply can never be matched to a future request.
                    self.disconnect();
                    return Ok(Response::Failed {
                        reason: "reply deadline expired".into(),
                        retryable: true,
                    });
                }
                Err(e) => return Err(e),
            };
            match message {
                Message::Reply {
                    seq: reply_seq,
                    usage,
                    response,
                } => {
                    if reply_seq == seq {
                        self.last_usage = usage;
                        return Ok(response);
                    }
                    // A stale reply from an abandoned attempt on this
                    // connection; skip it and keep reading.
                }
                Message::Goodbye { reason } => {
                    self.disconnect();
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        format!("server goodbye: {reason}"),
                    ));
                }
                _ => {
                    self.disconnect();
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "unexpected message while awaiting reply",
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
        write_all(
            stream.as_mut(),
            &Message::Hello {
                protocol: PROTOCOL_VERSION,
                tenant: self.tenant.clone(),
                token: self.token.clone(),
            }
            .to_frame(),
        )?;
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
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    let mut crc = 0u32;
    let mut body: Option<(Vec<u8>, usize)> = None;
    loop {
        if Instant::now() >= reply_by {
            return Ok(None);
        }
        let target: &mut [u8] = match &mut body {
            None => &mut header[filled..],
            Some((buf, at)) => &mut buf[*at..],
        };
        match stream.read(target) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            Ok(n) => match &mut body {
                None => {
                    filled += n;
                    if filled == header.len() {
                        let (len, declared) = parse_header(&header).map_err(wire_to_io)?;
                        crc = declared;
                        if len == 0 {
                            verify_body(crc, &[]).map_err(wire_to_io)?;
                            return Message::decode(&[]).map(Some).map_err(wire_to_io);
                        }
                        body = Some((vec![0u8; len as usize], 0));
                    }
                }
                Some((buf, at)) => {
                    *at += n;
                    if *at == buf.len() {
                        let (buf, _) = body.take().expect("body present");
                        verify_body(crc, &buf).map_err(wire_to_io)?;
                        return Message::decode(&buf).map(Some).map_err(wire_to_io);
                    }
                }
            },
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn wire_to_io(e: crate::wire::WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("wire: {e}"))
}
