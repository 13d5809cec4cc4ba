//! One call into each status the server files in `perfdmf_requests`,
//! and the `perfdmf_sessions` tallies each status moves.
//!
//! Every admitted call ends as exactly one accounting row. This binary
//! drives one call to each exit the server has:
//!
//! | status       | how it is provoked                                   |
//! |--------------|------------------------------------------------------|
//! | `ok`         | a `Ping`                                             |
//! | `error`      | clustering a trial that does not exist               |
//! | `rejected`   | validation (`Shutdown` over the network)             |
//! | `replayed`   | the same idempotency key twice                       |
//! | `panic`      | `InjectPanic("session:…")` with fault injection on   |
//! | `failed`     | a deadline behind the single worker parked in `Stall`|
//! | `rejected`   | a second pipelined call beyond a window of one       |
//! | `overloaded` | a call while the one-slot queue is still full        |
//!
//! `shutting_down` is covered by the chaos harness's drain test.
//!
//! Rows and sessions are read from the served database's registry, so
//! the test reads only what its own server filed.

mod common;

use common::{closed_session, cluster_request, seeded_database};
use perfdmf_db::Connection;
use perfdmf_explorer::{Request, Response};
use perfdmf_server::{NetClient, PerfdmfServer, RetryPolicy, ServerConfig};
use perfdmf_telemetry::RequestRecord;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const PREFIX: &str = "request-status-";

/// A client with no retries (each call is one server row) and a
/// generous deadline (so every row but the timed-out one has positive
/// slack).
fn client(addr: SocketAddr, name: &str) -> NetClient {
    NetClient::new(addr, format!("{PREFIX}{name}"))
        .with_policy(RetryPolicy::none())
        .with_deadline(Duration::from_secs(10))
}

/// The rows filed for one tenant of this test, oldest first.
fn rows(conn: &Connection, name: &str) -> Vec<RequestRecord> {
    let tenant = format!("{PREFIX}{name}");
    conn.telemetry()
        .requests()
        .into_iter()
        .filter(|r| r.tenant == tenant)
        .collect()
}

/// `(requests, sheds, errors, replays)` of a session once it closes.
fn tallies(conn: &Connection, c: NetClient) -> (u64, u64, u64, u64) {
    let id = c.session();
    c.close();
    let r = closed_session(conn, id);
    (r.requests, r.sheds, r.errors, r.replays)
}

/// Assert one row's status, kind and deadline-slack sign.
fn check(row: &RequestRecord, status: &str, kind: &str, slack_positive: bool) {
    assert_eq!(row.status, status, "row {row:?}");
    assert_eq!(row.kind, kind, "row {row:?}");
    let slack = row
        .deadline_slack_ms
        .expect("every call carried a deadline");
    assert_eq!(slack > 0, slack_positive, "slack sign of {row:?}");
}

#[test]
fn each_exit_files_one_row_with_its_status_and_tallies() {
    let (conn, trial) = seeded_database("status", 8);
    let server = PerfdmfServer::start_with_config(
        conn.clone(),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            window: 1,
            allow_fault_injection: true,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.addr();

    // ok
    let mut ok = client(addr, "ok");
    assert!(ok.ping());
    assert_eq!(tallies(&conn, ok), (1, 0, 0, 0));

    // error: the trial does not exist.
    let mut error = client(addr, "error");
    let response = error.request(cluster_request(987_654_321));
    assert!(matches!(response, Response::Error(_)), "{response:?}");
    assert_eq!(tallies(&conn, error), (1, 0, 1, 0));

    // rejected by validation: never reaches the explorer.
    let mut invalid = client(addr, "invalid");
    let response = invalid.request(Request::Shutdown);
    assert!(matches!(response, Response::Error(_)), "{response:?}");
    assert_eq!(tallies(&conn, invalid), (0, 0, 1, 0));

    // replayed: the second send of a key returns the recorded answer.
    let mut replay = client(addr, "replay");
    let first = replay.request_keyed(cluster_request(trial), 0x5157_0001);
    assert!(matches!(first, Response::Clustering { .. }), "{first:?}");
    let second = replay.request_keyed(cluster_request(trial), 0x5157_0001);
    assert_eq!(first, second, "a replay returns the recorded response");
    assert_eq!(tallies(&conn, replay), (1, 0, 0, 1));

    // panic: the session dies mid-call; the client sees a transport
    // failure, the ring still gets the row.
    let mut panic = client(addr, "panic");
    let response = panic.request(Request::InjectPanic("session:request-status".into()));
    assert!(matches!(response, Response::Failed { .. }), "{response:?}");
    panic.close();

    // Park the single worker so the queue's one slot stays occupied.
    let staller = std::thread::spawn(move || {
        let mut stall = client(addr, "stall");
        let response = stall.request(Request::Stall { millis: 2_000 });
        assert!(matches!(response, Response::Stored { .. }), "{response:?}");
        stall.close();
    });
    // Once the server has admitted the stall, the idle worker takes it
    // off the queue at once; the pause covers that hand-off.
    let admitted = Instant::now() + Duration::from_secs(10);
    while !conn
        .telemetry()
        .sessions()
        .iter()
        .any(|r| r.tenant == format!("{PREFIX}stall") && r.requests_inflight == 1)
    {
        assert!(Instant::now() < admitted, "the stall was never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));

    // failed + rejected by the window: the first ping waits in the
    // queue behind the stall until its 200ms deadline lapses; the
    // second exceeds the window of one while the first is in flight.
    let mut windowed = client(addr, "window")
        .with_window(2)
        .with_deadline(Duration::from_millis(200));
    let replies = windowed.pipeline(&[Request::Ping, Request::Ping]);
    assert!(
        matches!(replies[0], Response::Failed { .. }),
        "{:?}",
        replies[0]
    );
    match &replies[1] {
        Response::Error(reason) => assert!(reason.contains("window"), "{reason}"),
        other => panic!("expected a window error, got {other:?}"),
    }
    assert_eq!(tallies(&conn, windowed), (1, 0, 2, 0));

    // overloaded: the timed-out ping still holds the queue's one slot.
    let mut shed = client(addr, "shed");
    let response = shed.request(Request::Ping);
    assert_eq!(response, Response::Overloaded);
    assert_eq!(tallies(&conn, shed), (1, 1, 0, 0));

    staller.join().expect("staller");

    let one = |name: &str| {
        let rows = rows(&conn, name);
        assert_eq!(rows.len(), 1, "{name}: {rows:?}");
        rows.into_iter().next().unwrap()
    };
    check(&one("ok"), "ok", "ping", true);
    check(&one("error"), "error", "cluster_trial", true);
    check(&one("invalid"), "rejected", "shutdown", true);
    check(&one("panic"), "panic", "inject_panic", true);
    check(&one("shed"), "overloaded", "ping", true);
    check(&one("stall"), "ok", "stall", true);

    let replay = rows(&conn, "replay");
    assert_eq!(replay.len(), 2, "{replay:?}");
    check(&replay[0], "ok", "cluster_trial", true);
    check(&replay[1], "replayed", "cluster_trial", true);

    // The window rejection is filed at admission, before the timeout.
    let window = rows(&conn, "window");
    assert_eq!(window.len(), 2, "{window:?}");
    check(&window[0], "rejected", "ping", true);
    check(&window[1], "failed", "ping", false);

    server.shutdown();
}
