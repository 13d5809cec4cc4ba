//! perfdmf-server — the fault-tolerant TCP front door to the PerfDMF
//! archive.
//!
//! PerfDMF's analysis API (`perfdmf-explorer`) runs in-process: a
//! bounded queue, worker pool, deadline shedding, and panic isolation
//! behind `ExplorerClient`. This crate puts that API on the network
//! without weakening any of it:
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
//! * [`server`] — [`PerfdmfServer`]: acceptor, per-connection sessions
//!   (handshake with optional token auth, tenant tag,
//!   strictly-increasing sequence numbers, idempotency replay cache),
//!   graceful drain, and telemetry that surfaces in the
//!   `perfdmf_sessions` system table.
//! * [`eventloop`] — the session executor: sharded event-loop threads
//!   over nonblocking sockets behind a minimal poll(2) reactor, so
//!   sessions scale as parked state machines rather than OS threads,
//!   with bounded-window request pipelining.
//! * [`client`] — [`NetClient`]: `ExplorerClient` semantics over TCP
//!   with pipelining, and one retry loop for single requests and
//!   batches alike: reconnect-on-failure retries (seed-deterministic
//!   backoff jitter), idempotency keys so retried writes apply at most
//!   once, and deadlines propagated in every frame.
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

pub use client::NetClient;
pub use server::{PerfdmfServer, ServerConfig, DEFAULT_PIPELINE_WINDOW};
pub use stream::{FaultStream, NetFaultPlan, RealStream, Stream};
pub use wire::{Message, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf_core::DatabaseSession;
    use perfdmf_db::Connection;
    use perfdmf_explorer::{Request, Response};

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
