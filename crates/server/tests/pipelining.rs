//! Request pipelining on the event-loop executor.
//!
//! A connection may keep a bounded window of calls outstanding; the
//! server admits them concurrently and writes replies as executions
//! finish — possibly out of the order the calls were sent. These tests
//! pin the three load-bearing properties:
//!
//! 1. **Out-of-order replies match by seq.** A slow call does not delay
//!    fast calls behind it, and every reply lands at the index of the
//!    request that caused it.
//! 2. **The window is a hard bound.** Calls beyond it are answered
//!    immediately with a typed error, not queued, not dropped, and not
//!    a connection teardown.
//! 3. **Retries stay at-most-once.** A pipelined batch torn by
//!    connection faults resends only unanswered calls under their
//!    original idempotency keys, so every acknowledged write executed
//!    exactly once.

mod common;

use common::{cluster_request, seeded_database};
use perfdmf_db::Connection;
use perfdmf_explorer::{Request, Response};
use perfdmf_server::wire::{parse_header, verify_body, Message, HEADER_LEN};
use perfdmf_server::{NetClient, NetFaultPlan, PerfdmfServer, ServerConfig, PROTOCOL_VERSION};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Read one complete frame off a blocking socket.
fn read_frame(stream: &mut TcpStream) -> Message {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).expect("frame header");
    let (len, crc) = parse_header(&header).expect("valid header");
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body).expect("frame body");
    verify_body(crc, &body).expect("valid checksum");
    Message::decode(&body).expect("decodable frame")
}

/// Raw handshake on a plain socket (the pipelining shape under test
/// is below the `NetClient` API, so the test speaks wire directly).
fn raw_handshake(addr: std::net::SocketAddr, tenant: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            &Message::Hello {
                protocol: PROTOCOL_VERSION,
                tenant: tenant.into(),
                token: None,
            }
            .to_frame(),
        )
        .expect("hello");
    match read_frame(&mut stream) {
        Message::HelloAck { .. } => stream,
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// Property 2, deterministically: one worker, window of 2. A burst of
/// [Stall, 5×Ping] written in a single sweep admits exactly two calls
/// (the stall occupies the worker, so nothing can complete and free a
/// slot) and rejects the other four with the typed window error —
/// immediately, while the admitted calls are still executing.
#[test]
fn calls_beyond_the_window_get_typed_errors() {
    let (conn, _trial) = seeded_database("pipe", 8);
    let server = PerfdmfServer::start_with_config(
        conn,
        ServerConfig {
            workers: 1,
            window: 2,
            allow_fault_injection: true,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let mut stream = raw_handshake(server.addr(), "window-burst");

    let mut burst = Vec::new();
    for seq in 1..=6u64 {
        let request = if seq == 1 {
            Request::Stall { millis: 300 }
        } else {
            Request::Ping
        };
        burst.extend_from_slice(
            &Message::Call {
                seq,
                deadline_ms: 0,
                idempotency: 0,
                trace: None,
                request,
            }
            .to_frame(),
        );
    }
    stream.write_all(&burst).expect("burst write");

    let mut replies: HashMap<u64, Response> = HashMap::new();
    for _ in 0..6 {
        match read_frame(&mut stream) {
            Message::Reply { seq, response, .. } => {
                assert!(replies.insert(seq, response).is_none(), "duplicate seq");
            }
            other => panic!("expected Reply, got {other:?}"),
        }
    }
    // Seq 1 (the stall) and seq 2 (one ping) were admitted.
    assert!(
        matches!(replies[&1], Response::Stored { .. }),
        "stall reply: {:?}",
        replies[&1]
    );
    assert!(
        matches!(replies[&2], Response::Pong),
        "admitted ping reply: {:?}",
        replies[&2]
    );
    // Seqs 3..=6 overflowed the window of 2.
    for seq in 3..=6u64 {
        match &replies[&seq] {
            Response::Error(reason) => assert!(
                reason.contains("window"),
                "seq {seq}: rejection must name the window, got {reason:?}"
            ),
            other => panic!("seq {seq}: expected a window error, got {other:?}"),
        }
    }
    server.shutdown();
}

/// Property 1, deterministically: with two workers, a slow call and a
/// fast call pipelined together answer fast-first on the wire — and the
/// reply seqs prove the out-of-order matching.
#[test]
fn fast_calls_overtake_slow_ones_and_replies_match_by_seq() {
    let (conn, _trial) = seeded_database("pipe", 8);
    let server = PerfdmfServer::start_with_config(
        conn,
        ServerConfig {
            workers: 2,
            allow_fault_injection: true,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let mut stream = raw_handshake(server.addr(), "overtake");

    let mut burst = Vec::new();
    for (seq, request) in [
        (1u64, Request::Stall { millis: 400 }),
        (2u64, Request::Ping),
    ] {
        burst.extend_from_slice(
            &Message::Call {
                seq,
                deadline_ms: 0,
                idempotency: 0,
                trace: None,
                request,
            }
            .to_frame(),
        );
    }
    stream.write_all(&burst).expect("burst write");

    let first = match read_frame(&mut stream) {
        Message::Reply { seq, response, .. } => (seq, response),
        other => panic!("expected Reply, got {other:?}"),
    };
    let second = match read_frame(&mut stream) {
        Message::Reply { seq, response, .. } => (seq, response),
        other => panic!("expected Reply, got {other:?}"),
    };
    assert_eq!(first.0, 2, "the ping must overtake the 400ms stall");
    assert!(matches!(first.1, Response::Pong));
    assert_eq!(second.0, 1);
    assert!(matches!(second.1, Response::Stored { .. }));
    server.shutdown();
}

/// Property 3: a pipelined batch of effectful writes driven through
/// disconnect/corruption faults still applies each write exactly once.
/// Every acknowledged settings_id must replay (not re-execute) when its
/// key is presented again by a clean client.
#[test]
fn pipelined_retries_apply_at_most_once_under_faults() {
    let (conn, trial) = seeded_database("pipe", 8);
    let server = PerfdmfServer::start_with_config(
        conn.clone(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.addr();
    let settings_rows = |conn: &Connection| -> i64 {
        match conn
            .execute("SELECT COUNT(*) FROM analysis_settings", &[])
            .expect("count settings")
        {
            perfdmf_db::Outcome::Rows(rs) => rs.rows[0][0].as_int().expect("count"),
            other => panic!("unexpected outcome {other:?}"),
        }
    };
    let rows_before = settings_rows(&conn);

    let mut client = NetClient::new(addr, "pipeline-faulted")
        .with_deadline(Duration::from_secs(10))
        .with_key_space(0x00AB_CDEF)
        .with_window(4)
        .with_fault_plan(
            NetFaultPlan::seeded(0xFEED)
                .partial_io(7)
                .disconnect_after(900),
        );
    let batch: Vec<Request> = (0..6).map(|_| cluster_request(trial)).collect();
    let responses = client.pipeline(&batch);
    assert!(
        client.connects() > 1,
        "the fault plan must force reconnects"
    );
    client.close();

    let mut settings = Vec::new();
    for (i, response) in responses.iter().enumerate() {
        match response {
            Response::Clustering { settings_id, .. } => settings.push(*settings_id),
            other => panic!("batch item {i} unanswered under faults: {other:?}"),
        }
    }
    // Each batch item drew its own key, so each executed independently —
    // the acked ids must be pairwise distinct...
    let mut dedup = settings.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(
        dedup.len(),
        batch.len(),
        "acked ids must be distinct: {settings:?}"
    );
    // ...and at-most-once means the archive gained *exactly* one
    // settings row per batch item: a retry whose predecessor executed
    // (only the ack was torn) must have replayed, never re-run.
    let rows_after = settings_rows(&conn);
    assert_eq!(
        rows_after - rows_before,
        batch.len() as i64,
        "faulted pipelined retries wrote extra settings rows"
    );
    // And every acked id is durably fetchable (no acknowledged write lost).
    let mut clean = NetClient::new(addr, "pipeline-verify");
    for (i, &id) in settings.iter().enumerate() {
        match clean.request(Request::FetchResult { settings_id: id }) {
            Response::Stored { .. } => {}
            other => panic!("batch item {i}: acked settings_id {id} lost: {other:?}"),
        }
    }
    clean.close();
    server.shutdown();
}

proptest! {
    // Full server per case: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 1, generatively: any mix of request kinds pipelined in
    /// any order comes back index-aligned — each slot holds the reply
    /// type its request demands, regardless of wire arrival order.
    #[test]
    fn pipelined_replies_always_line_up_with_requests(kinds in proptest::collection::vec(0u8..3, 1..12)) {
        let (conn, trial) = seeded_database("pipe", 8);
        let server = PerfdmfServer::start_with_config(
            conn,
            ServerConfig { workers: 3, ..ServerConfig::default() },
        ).expect("server start");
        let mut client = NetClient::new(server.addr(), "pipeline-prop").with_window(5);
        let batch: Vec<Request> = kinds.iter().map(|k| match k {
            0 => Request::Ping,
            1 => cluster_request(trial),
            _ => Request::CorrelateMetrics { trial_id: trial, event: "compute".into() },
        }).collect();
        let responses = client.pipeline(&batch);
        prop_assert_eq!(responses.len(), batch.len());
        for (i, (kind, response)) in kinds.iter().zip(&responses).enumerate() {
            let ok = match kind {
                0 => matches!(response, Response::Pong),
                1 => matches!(response, Response::Clustering { .. }),
                _ => matches!(response, Response::Correlation { .. }),
            };
            prop_assert!(ok, "slot {} (kind {}) got mismatched reply {:?}", i, kind, response);
        }
        client.close();
        server.shutdown();
    }
}
