//! The frame cap holds in both directions. A frame over
//! [`MAX_FRAME_LEN`] is never put on the wire: the client answers an
//! over-cap call itself, and the server replaces an over-cap reply
//! with a `Failed` under the same seq. Both are final verdicts —
//! resending the same request would overflow again — so the caller
//! sees `retryable: false` at once, on the connection it already had.

mod common;

use perfdmf_explorer::{Request, Response};
use perfdmf_server::{NetClient, PerfdmfServer, MAX_FRAME_LEN};

/// A verdict short enough for an assertion message (an echoed 8 MiB
/// event name is not).
fn brief(response: &Response) -> String {
    format!("{response:?}").chars().take(160).collect()
}

#[test]
fn over_cap_call_and_reply_fail_final_without_reconnect() {
    let (conn, trial) = common::seeded_database("cap", 8);
    let server = PerfdmfServer::start(conn).expect("server start");
    let mut client = NetClient::new(server.addr(), "cap");
    assert!(client.ping());
    assert_eq!(client.connects(), 1);
    let cap = MAX_FRAME_LEN.to_string();

    // The call fits under the cap; the error that echoes its event name
    // does not.
    let event = "e".repeat(MAX_FRAME_LEN as usize - 64);
    match client.request(Request::CorrelateMetrics {
        trial_id: trial,
        event,
    }) {
        Response::Failed {
            reason,
            retryable: false,
        } => assert!(reason.contains(&cap), "reason names the cap: {reason}"),
        other => panic!("over-cap reply: {}", brief(&other)),
    }

    // The call itself is over the cap.
    let metric = "m".repeat(MAX_FRAME_LEN as usize + 10);
    match client.request(Request::SpeedupStudy {
        experiment_id: 1,
        metric,
    }) {
        Response::Failed {
            reason,
            retryable: false,
        } => assert!(reason.contains(&cap), "reason names the cap: {reason}"),
        other => panic!("over-cap call: {}", brief(&other)),
    }

    assert_eq!(client.connects(), 1, "no over-cap exchange reconnects");
    assert!(client.ping(), "the connection is still in frame sync");
    assert_eq!(client.connects(), 1);
    client.close();
    server.shutdown();
}
