//! Regression tests for the idempotency and session-lifecycle defects
//! found in review:
//!
//! * key spaces are **server-assigned** (granted in `HelloAck`), so two
//!   clients — even in different processes — can never draw colliding
//!   keys and replay each other's cached responses;
//! * a retry that arrives while the original keyed request is still
//!   executing waits for its outcome instead of executing the write a
//!   second time (in-flight replay-cache markers);
//! * fault-injection requests (`Stall`, `InjectPanic`) are rejected at
//!   the network boundary unless the server opts in for testing;
//! * a closed session leaves no server state behind, even when no
//!   further connection arrives to prompt a sweep.

mod common;

use common::{cluster_request, seeded_database};
use perfdmf_explorer::{Request, Response};
use perfdmf_server::{NetClient, NetFaultPlan, PerfdmfServer, RetryPolicy, ServerConfig};
use std::time::{Duration, Instant};

#[test]
fn key_spaces_are_server_assigned_distinct_and_stable() {
    let (conn, _trial) = seeded_database("idem", 8);
    let server = PerfdmfServer::start(conn).expect("server start");

    // Two fresh clients: each adopts the space granted in HelloAck.
    let mut a = NetClient::new(server.addr(), "space-a");
    let mut b = NetClient::new(server.addr(), "space-b");
    assert_eq!(a.key_space(), 0, "no space before the first handshake");
    assert!(a.ping());
    assert!(b.ping());
    assert_ne!(a.key_space(), 0, "handshake must grant a key space");
    assert_ne!(b.key_space(), 0);
    assert_ne!(
        a.key_space(),
        b.key_space(),
        "concurrent clients must never share a key space"
    );
    assert_eq!(
        a.key_space(),
        a.session() & 0xFFFF_FFFF,
        "the space is derived from the server-unique session id"
    );
    a.close();
    b.close();

    // A reconnecting client keeps its original space: keys drawn before
    // the reconnect must stay in a space no other client can be granted.
    let mut c = NetClient::new(server.addr(), "space-c")
        .with_fault_plan(NetFaultPlan::seeded(7).disconnect_after(200));
    assert!(c.ping());
    let first_space = c.key_space();
    for _ in 0..20 {
        let _ = c.request(Request::Ping);
    }
    assert!(c.connects() > 1, "the fault plan must force reconnects");
    assert_eq!(
        c.key_space(),
        first_space,
        "the key space must survive reconnects"
    );
    c.close();
    server.shutdown();
}

#[test]
fn concurrent_duplicate_with_same_key_executes_once() {
    let (conn, trial) = seeded_database("idem", 8);
    let server = PerfdmfServer::start_with_config(
        conn,
        ServerConfig {
            workers: 1,
            // The staller below needs Stall over the wire.
            allow_fault_injection: true,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.addr();

    // Park the single worker so both duplicates are in flight at once.
    let staller = std::thread::spawn(move || {
        let mut c = NetClient::new(addr, "staller").with_policy(RetryPolicy::none());
        c.request(Request::Stall { millis: 800 });
        c.close();
    });
    std::thread::sleep(Duration::from_millis(100));

    // Two clients race the same idempotency key while the original is
    // still queued/executing. Without the in-flight marker both would
    // miss the replay cache and the write would apply twice — visible
    // as two distinct settings_ids.
    let key = 0x5EED_0001u64;
    let racers: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = NetClient::new(addr, format!("racer-{i}"));
                let response = c.request_keyed(cluster_request(trial), key);
                c.close();
                response
            })
        })
        .collect();
    let settings: Vec<i64> = racers
        .into_iter()
        .map(|h| match h.join().expect("racer must not panic") {
            Response::Clustering { settings_id, .. } => settings_id,
            other => panic!("duplicate race must still answer the request: {other:?}"),
        })
        .collect();
    assert_eq!(
        settings[0], settings[1],
        "a concurrent retry of an in-flight key must replay, not re-execute"
    );
    staller.join().unwrap();
    server.shutdown();
}

#[test]
fn fault_injection_requests_are_rejected_by_default() {
    let (conn, _trial) = seeded_database("idem", 8);
    let server = PerfdmfServer::start(conn).expect("server start");
    let mut client = NetClient::new(server.addr(), "hostile").with_policy(RetryPolicy::none());
    for request in [
        Request::Stall { millis: 10 },
        Request::InjectPanic("boom".into()),
        Request::Shutdown,
    ] {
        match client.request(request.clone()) {
            Response::Error(reason) => assert!(
                reason.contains("not accepted over the network"),
                "unexpected rejection reason for {request:?}: {reason}"
            ),
            other => panic!("{request:?} must be rejected at the boundary, got {other:?}"),
        }
    }
    // The server is still healthy afterwards.
    assert!(client.ping());
    client.close();
    server.shutdown();
}

#[test]
fn closed_sessions_release_server_state_without_new_connections() {
    // After a burst of short sessions the server must drop back to zero
    // live sessions on its own: a quiet server must not hold state for
    // connections that are already gone.
    let (conn, _trial) = seeded_database("idem", 8);
    let server = PerfdmfServer::start(conn).expect("server start");

    for i in 0..8 {
        let mut c = NetClient::new(server.addr(), format!("quiet-churn-{i}"));
        assert!(c.ping());
        c.close();
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let live = server.live_sessions();
        if live == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "closed sessions never released: still {live} live"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown();
}
