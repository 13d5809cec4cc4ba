//! The replay cache must hold only what retries need: effectful
//! requests. Keying every Ping and read would churn the bounded FIFO
//! cache until a genuine write retry finds its recorded response
//! evicted — quietly weakening the at-most-once guarantee. The exact
//! counts come from the served database's own registry.

mod common;

use common::{cluster_request, seeded_database};
use perfdmf_explorer::{Request, Response};
use perfdmf_server::{NetClient, PerfdmfServer};

#[test]
fn only_effectful_requests_populate_the_replay_cache() {
    let (conn, trial) = seeded_database("churn", 8);
    let registry = conn.telemetry();
    let counter = |name| registry.counter(name).value();
    let server = PerfdmfServer::start(conn).expect("server start");
    let mut client = NetClient::new(server.addr(), "churn");

    let inserts_before = counter("server.replay_inserts");

    // One explicitly keyed write: exactly one cache insert.
    let key = 0xCAFE_0001u64;
    let first = match client.request_keyed(cluster_request(trial), key) {
        Response::Clustering { settings_id, .. } => settings_id,
        other => panic!("clustering failed: {other:?}"),
    };

    // Reads and pings through the automatic path draw no key and must
    // not touch the cache.
    for _ in 0..20 {
        assert!(client.ping());
    }
    match client.request(Request::FetchResult { settings_id: first }) {
        Response::Stored { .. } => {}
        other => panic!("fetch failed: {other:?}"),
    }
    assert_eq!(
        counter("server.replay_inserts") - inserts_before,
        1,
        "reads and pings must not populate the replay cache"
    );

    // An automatic effectful request draws its own key and is cached.
    match client.request(cluster_request(trial)) {
        Response::Clustering { .. } => {}
        other => panic!("auto-keyed clustering failed: {other:?}"),
    }
    assert_eq!(
        counter("server.replay_inserts") - inserts_before,
        2,
        "automatically keyed writes must be cached for replay"
    );

    // The keyed write from the start is still replayable — no churn
    // evicted it.
    let replays_before = counter("server.idempotent_replays");
    match client.request_keyed(cluster_request(trial), key) {
        Response::Clustering { settings_id, .. } => assert_eq!(
            settings_id, first,
            "the recorded response must replay, not re-execute"
        ),
        other => panic!("replay failed: {other:?}"),
    }
    assert_eq!(counter("server.idempotent_replays") - replays_before, 1);

    client.close();
    server.shutdown();
}
