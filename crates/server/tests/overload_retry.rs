//! Shed-then-retry through the network client: while a stall holds the
//! server's one worker busy and its one queue slot full, every new call
//! is shed as `Overloaded`. `NetClient` must resend shed calls with
//! backoff until they are served — for a single `request` and for each
//! call of a `pipeline` alike, since both run the same retry loop.

use perfdmf_core::DatabaseSession;
use perfdmf_db::Connection;
use perfdmf_explorer::{Request, Response};
use perfdmf_server::{NetClient, PerfdmfServer, RetryPolicy, ServerConfig};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

/// Occupy the worker with a 400 ms stall and the queue slot with a
/// second stall behind it; returns once both are admitted.
fn hold_queue_full(addr: SocketAddr) -> Vec<JoinHandle<Response>> {
    let mut holders = Vec::new();
    for millis in [400, 1] {
        holders.push(std::thread::spawn(move || {
            NetClient::new(addr, "holder").request(Request::Stall { millis })
        }));
        std::thread::sleep(Duration::from_millis(100));
    }
    holders
}

#[test]
fn shed_requests_and_pipelines_are_retried_until_served() {
    let conn = Connection::open_in_memory();
    let _schema = DatabaseSession::new(conn.clone()).expect("schema");
    // Server counters land in the served database's registry, the
    // client's in the registry this thread adopts.
    let server_side = conn.telemetry();
    let client_side = perfdmf_telemetry::Registry::new();
    let _client_side = client_side.adopt();
    let sheds = || server_side.counter("explorer.sheds").value();
    let retries = || client_side.counter("netclient.retries").value();
    let server = PerfdmfServer::start_with_config(
        conn,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            allow_fault_injection: true,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let mut client = NetClient::new(server.addr(), "retrier").with_policy(RetryPolicy {
        max_retries: 20,
        base_delay: Duration::from_millis(50),
        max_delay: Duration::from_millis(200),
        jitter: Duration::from_millis(10),
    });
    // The served answer for an unknown settings id is an analysis
    // error; a shed call would come back as `Overloaded`.
    let served = |response: &Response| matches!(response, Response::Error(_));

    let (sheds_before, retries_before) = (sheds(), retries());
    let holders = hold_queue_full(server.addr());
    let response = client.request(Request::FetchResult {
        settings_id: 424_242,
    });
    assert!(
        served(&response),
        "request must be served, got {response:?}"
    );
    assert!(sheds() > sheds_before, "the first send was shed");
    assert!(retries() > retries_before, "and then retried");
    for holder in holders {
        holder.join().unwrap();
    }

    let (sheds_before, retries_before) = (sheds(), retries());
    let holders = hold_queue_full(server.addr());
    let responses = client.pipeline(&[
        Request::FetchResult {
            settings_id: 424_243,
        },
        Request::FetchResult {
            settings_id: 424_244,
        },
    ]);
    for (i, response) in responses.iter().enumerate() {
        assert!(
            served(response),
            "pipelined call {i} must be served, got {response:?}"
        );
    }
    assert!(sheds() > sheds_before, "the first pass was shed");
    assert!(retries() > retries_before, "and then retried");
    for holder in holders {
        holder.join().unwrap();
    }
    client.close();
    server.shutdown();
}
