//! perfdmf-server — the fault-tolerant TCP front door to the PerfDMF
//! archive.
//!
//! PerfDMF's analysis API (`perfdmf-explorer`) is a library function,
//! `handle(&Connection, &Request) -> Response`. This crate is the
//! paper's analysis server (Figure 3): it puts that function on the
//! network behind one bounded queue and its own worker threads, with
//! load shedding, deadlines, and panic isolation:
//!
//! * [`wire`] — a length-prefixed binary frame protocol (`"PDMF"`
//!   magic, u32 length, CRC-32, tagged-tree body with one tag per
//!   message) carrying the existing `Request`/`Response` enums. Decoding is *total*: truncated,
//!   oversized, and garbage frames produce typed [`wire::WireError`]s,
//!   never panics and never attacker-controlled allocation.
//! * [`stream`] — the transport seam. [`RealStream`] is a plain
//!   `TcpStream`; [`FaultStream`] injects seed-deterministic delays,
//!   partial reads/writes, mid-frame disconnects, corruption, and
//!   stalls per a [`NetFaultPlan`] — the network analogue of the
//!   storage layer's `RealVfs`/`FaultVfs` split — and the one frame
//!   reader both the client and the event loop use.
//! * `server` — [`PerfdmfServer`]: acceptor, per-connection sessions
//!   (handshake with optional token auth, tenant tag,
//!   strictly-increasing sequence numbers, idempotency replay cache),
//!   the analysis queue (a full queue sheds with `Overloaded`) and its
//!   workers (each runs `handle` under the call's trace and meter and
//!   isolates panics), graceful drain, and telemetry that surfaces in
//!   the `perfdmf_sessions` system table.
//! * `eventloop` — the session executor: sharded event-loop threads
//!   over nonblocking sockets behind a minimal poll(2) reactor, so
//!   sessions scale as parked state machines rather than OS threads,
//!   with bounded-window request pipelining; a call's deadline lapse is
//!   answered and counted here, once.
//! * `client` — [`NetClient`]: `request(Request) -> Response` over TCP
//!   with pipelining, and one retry loop for single requests and
//!   batches alike: reconnect-on-failure retries paced by a
//!   [`RetryPolicy`] (seed-deterministic backoff jitter), idempotency
//!   keys so retried writes apply at most once, and deadlines
//!   propagated in every frame.
//!
//! The chaos harness (`tests/chaos.rs`) drives seeded multi-client
//! workloads through randomized fault schedules and asserts the
//! invariants that matter: no panics, every request answered or cleanly
//! failed within its deadline, and no acknowledged write lost.

#![warn(unreachable_pub)]

mod client;
mod eventloop;
mod server;
pub mod stream;
pub mod wire;

pub use client::{NetClient, RetryPolicy};
pub use server::{PerfdmfServer, ServerConfig, DEFAULT_PIPELINE_WINDOW};
pub use stream::{FaultStream, NetFaultPlan, RealStream, Stream};
pub use wire::{Message, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf_core::DatabaseSession;
    use perfdmf_db::Connection;
    use perfdmf_explorer::{ClusterMethod, FeatureSpace, Request, Response};
    use perfdmf_profile::{IntervalData, IntervalEvent, Metric, Profile, ThreadId};

    fn server() -> PerfdmfServer {
        let conn = Connection::open_in_memory();
        // Applying the core schema is what makes the analysis layer's
        // tables resolvable.
        let _session = DatabaseSession::new(conn.clone()).expect("schema");
        PerfdmfServer::start_with_config(
            conn,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("server start")
    }

    /// A handler panic over the network: the call gets a non-retryable
    /// `Failed` naming the panic, `explorer.request_panics` rises, and
    /// the same (single) worker serves the next call.
    #[test]
    fn panicking_request_is_isolated_and_server_keeps_serving() {
        let conn = Connection::open_in_memory();
        let mut session = DatabaseSession::new(conn.clone()).expect("schema");
        // Two obvious thread-behaviour groups, so clustering finds k = 2.
        let mut p = Profile::new("bimodal");
        let m = p.add_metric(Metric::measured("TIME"));
        let a = p.add_event(IntervalEvent::ungrouped("compute"));
        let b = p.add_event(IntervalEvent::ungrouped("exchange"));
        p.add_threads((0..8).map(|n| ThreadId::new(n, 0, 0)));
        for (i, &t) in p.threads().to_vec().iter().enumerate() {
            let (ca, cb) = if i < 4 { (100.0, 5.0) } else { (10.0, 80.0) };
            p.set_interval(a, t, m, IntervalData::new(ca, ca, 10.0, 0.0));
            p.set_interval(b, t, m, IntervalData::new(cb, cb, 10.0, 0.0));
        }
        let trial = session.store_profile("app", "exp", &p).expect("store");
        let config = ServerConfig {
            workers: 1,
            allow_fault_injection: true,
            ..ServerConfig::default()
        };
        let registry = conn.telemetry();
        let server = PerfdmfServer::start_with_config(conn, config).expect("server start");
        let mut client = NetClient::new(server.addr(), "panic").with_policy(RetryPolicy::none());
        let panics = || registry.counter("explorer.request_panics").value();
        let before = panics();
        match client.request(Request::InjectPanic("boom".into())) {
            Response::Failed { reason, retryable } => {
                assert!(reason.contains("panicked"), "{reason}");
                assert!(reason.contains("boom"), "{reason}");
                assert!(!retryable, "a deterministic panic is not retryable");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        let cluster = Request::ClusterTrial {
            trial_id: trial,
            features: FeatureSpace::EventsOfMetric("TIME".into()),
            k: None,
            max_k: 4,
            pca_components: 0,
            method: ClusterMethod::KMeans,
        };
        match client.request(cluster) {
            Response::Clustering { k, .. } => assert_eq!(k, 2),
            other => panic!("the worker did not survive the panic: {other:?}"),
        }
        assert!(panics() > before, "the panic must be visible in telemetry");
        client.close();
        server.shutdown();
    }

    #[test]
    fn ping_round_trips_over_tcp() {
        let server = server();
        let mut client = NetClient::new(server.addr(), "smoke");
        assert!(client.ping(), "server should answer Pong");
        assert!(client.session() > 0, "handshake grants a session id");
        client.close();
        server.shutdown();
    }

    #[test]
    fn shutdown_request_is_rejected_over_the_network() {
        let server = server();
        let mut client = NetClient::new(server.addr(), "smoke");
        match client.request(Request::Shutdown) {
            Response::Error(reason) => {
                assert!(reason.contains("not accepted"), "got: {reason}")
            }
            other => panic!("expected Error, got {other:?}"),
        }
        // The workers must still be alive afterwards.
        assert!(client.ping());
        client.close();
        server.shutdown();
    }

    #[test]
    fn drain_answers_new_requests_with_goodbye() {
        let server = server();
        let addr = server.addr();
        let mut client = NetClient::new(addr, "drain");
        assert!(client.ping());
        server.shutdown();
        // The old connection is gone and reconnects are refused; the
        // client surfaces that as a retryable transport failure, not a
        // panic or a hang.
        match client.request(Request::Ping) {
            Response::Failed { .. } | Response::ShuttingDown => {}
            other => panic!("expected failure after drain, got {other:?}"),
        }
    }
}
