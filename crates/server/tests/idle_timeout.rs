//! A peer that freezes mid-frame is closed with `Goodbye("idle
//! timeout")` once `ServerConfig::idle_timeout` passes without a
//! complete frame, and its `perfdmf_sessions` row says so.
//!
//! The client writes and reads one byte per operation
//! (`partial_io(1)`), so the operation count of the handshake is the
//! byte length of `Hello` plus `HelloAck`. The stall is armed halfway
//! through the following `Call` frame.

mod common;

use common::closed_session;
use perfdmf_explorer::{Request, Response};
use perfdmf_server::{
    Message, NetClient, NetFaultPlan, PerfdmfServer, RetryPolicy, ServerConfig, PROTOCOL_VERSION,
};
use std::time::Duration;

const TENANT: &str = "idle-timeout";
const IDLE_TIMEOUT: Duration = Duration::from_millis(150);
const STALL_MS: u64 = 1_000;

fn frame_len(message: Message) -> u64 {
    message.frame().expect("frame encodes").len() as u64
}

#[test]
fn peer_stalled_mid_frame_is_closed_as_idle() {
    let conn = perfdmf_db::Connection::open_in_memory();
    perfdmf_core::create_schema(&conn).expect("schema");
    let server = PerfdmfServer::start_with_config(
        conn.clone(),
        ServerConfig {
            idle_timeout: IDLE_TIMEOUT,
            token: None,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let handshake = frame_len(Message::Hello {
        protocol: PROTOCOL_VERSION,
        tenant: TENANT.into(),
        token: None,
    }) + frame_len(Message::HelloAck {
        session: 1,
        key_space: 1,
    });
    let call = frame_len(Message::Call {
        seq: 1,
        deadline_ms: 0,
        idempotency: 0,
        trace: None,
        request: Request::Ping,
    });
    let plan = NetFaultPlan::seeded(7)
        .partial_io(1)
        .stall_at(handshake + call / 2, STALL_MS);
    let mut client = NetClient::new(server.addr(), TENANT)
        .with_token(None)
        .with_policy(RetryPolicy::none())
        .with_fault_plan(plan);

    let response = client.request(Request::Ping);
    assert!(
        !matches!(response, Response::Pong),
        "the stalled call must not be answered"
    );
    assert_eq!(client.connects(), 1);
    let session = client.session();
    assert_ne!(session, 0, "the handshake completed before the stall");

    let record = closed_session(&conn, session);
    assert_eq!(record.tenant, TENANT);
    assert_eq!(record.close_reason.as_deref(), Some("idle timeout"));
    assert_eq!(record.requests, 0, "the torn call was never admitted");
}
