//! A call whose deadline lapses while it waits in the analysis queue is
//! answered and counted once: `explorer.timeouts` rises by exactly one,
//! both at the reply and after the worker has dequeued (and dropped)
//! the lapsed job. The count is read from the served database's own
//! registry.

mod common;

use common::seeded_database;
use perfdmf_explorer::{Request, Response};
use perfdmf_server::{NetClient, PerfdmfServer, RetryPolicy, ServerConfig};
use std::time::{Duration, Instant};

#[test]
fn a_lapsed_deadline_is_answered_and_counted_once() {
    let (conn, _trial) = seeded_database("lapse", 4);
    let registry = conn.telemetry();
    let timeouts = || registry.counter("explorer.timeouts").value();
    let server = PerfdmfServer::start_with_config(
        conn,
        ServerConfig {
            workers: 1,
            allow_fault_injection: true,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.addr();

    // Hold the single worker for 800 ms.
    let staller = std::thread::spawn(move || {
        let mut stall = NetClient::new(addr, "lapse-stall").with_policy(RetryPolicy::none());
        let response = stall.request(Request::Stall { millis: 800 });
        stall.close();
        response
    });
    std::thread::sleep(Duration::from_millis(150));

    // A 100 ms ping waits in the queue behind the stall and lapses.
    let before = timeouts();
    let mut client = NetClient::new(addr, "lapse-ping")
        .with_policy(RetryPolicy::none())
        .with_deadline(Duration::from_millis(100));
    let started = Instant::now();
    match client.request(Request::Ping) {
        Response::Failed { reason, retryable } => {
            assert!(retryable, "a lapse is retryable: {reason}");
            assert!(reason.contains("no response within"), "{reason}");
        }
        other => panic!("expected a retryable Failed, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "the lapse is answered at the deadline, not when the worker frees up"
    );
    assert_eq!(timeouts() - before, 1, "counted once at the reply");
    client.close();

    assert!(matches!(
        staller.join().expect("staller"),
        Response::Stored { .. }
    ));
    // The queue is FIFO with one worker: once a later ping is served,
    // the worker has dequeued the lapsed job.
    let mut probe = NetClient::new(addr, "lapse-probe").with_policy(RetryPolicy::none());
    assert!(probe.ping(), "the worker serves the next call");
    probe.close();
    assert_eq!(
        timeouts() - before,
        1,
        "the worker drops the lapsed job without counting it again"
    );
    server.shutdown();
}
