//! Shared-secret session authentication at the front door.
//!
//! When a server is configured with a token, every handshake must
//! present it: a match grants an authenticated session (visible in the
//! `perfdmf_sessions` system table), a mismatch or absence is rejected
//! with a typed `AuthFailed` before any session state is created, and
//! the client gives up immediately — re-presenting the same bad token
//! can never succeed, so retrying would only hammer the server.
//!
//! The handshake also pins the wire protocol: a `Hello` speaking any
//! version other than [`PROTOCOL_VERSION`], or in an older version's
//! byte layout, gets a `Goodbye` and never a `HelloAck`.

use perfdmf_core::DatabaseSession;
use perfdmf_db::Connection;
use perfdmf_explorer::Response;
use perfdmf_server::wire::{crc32, parse_header, verify_body, Message, HEADER_LEN, MAGIC};
use perfdmf_server::{NetClient, PerfdmfServer, ServerConfig, PROTOCOL_VERSION};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn open_database() -> Connection {
    let conn = Connection::open_in_memory();
    let _session = DatabaseSession::new(conn.clone()).expect("schema");
    conn
}

fn guarded_server(conn: Connection) -> PerfdmfServer {
    PerfdmfServer::start_with_config(
        conn,
        ServerConfig {
            workers: 2,
            token: Some("sesame".into()),
            ..ServerConfig::default()
        },
    )
    .expect("server start")
}

#[test]
fn right_token_authenticates_and_marks_the_session() {
    let conn = open_database();
    let server = guarded_server(conn.clone());
    let mut client = NetClient::new(server.addr(), "auth-good").with_token(Some("sesame".into()));
    assert!(client.ping(), "the right token must be admitted");
    let session = client.session();
    client.close();

    // The registry row claims authentication — and so does the
    // `perfdmf_sessions` system table the registry backs.
    let record = conn
        .telemetry()
        .sessions()
        .into_iter()
        .find(|r| r.id == session)
        .expect("session record");
    assert!(record.authenticated, "verified token must mark the record");
    match conn
        .execute(
            &format!("SELECT authenticated FROM perfdmf_sessions WHERE id = {session}"),
            &[],
        )
        .expect("query sessions table")
    {
        perfdmf_db::Outcome::Rows(rs) => {
            assert_eq!(rs.rows[0][0].as_int(), Some(1), "authenticated column");
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    server.shutdown();
}

#[test]
fn wrong_token_is_rejected_without_retries() {
    let conn = open_database();
    // Server counters land in the served database's registry, the
    // client's in the registry this thread adopts.
    let server_side = conn.telemetry();
    let client_side = perfdmf_telemetry::Registry::new();
    let _client_side = client_side.adopt();
    let failures = || server_side.counter("server.auth_failures").value();
    let retries = || client_side.counter("netclient.retries").value();
    let server = guarded_server(conn);
    let failures_before = failures();
    let retries_before = retries();

    let mut client = NetClient::new(server.addr(), "auth-bad").with_token(Some("swordfish".into()));
    let started = Instant::now();
    let response = client.request(perfdmf_explorer::Request::Ping);
    let elapsed = started.elapsed();
    match response {
        Response::Error(reason) => assert!(
            reason.contains("authentication rejected") && reason.contains("mismatch"),
            "got: {reason}"
        ),
        other => panic!("expected a terminal auth error, got {other:?}"),
    }
    // Terminal means terminal: no backoff retries burned on a
    // credential that cannot start working.
    assert_eq!(
        retries(),
        retries_before,
        "auth rejection must not be retried"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "rejection must be immediate, took {elapsed:?}"
    );
    assert!(
        failures() > failures_before,
        "the failure must be counted server-side"
    );
    // No session record exists for the rejected handshake.
    assert!(
        server_side.sessions().is_empty(),
        "a rejected handshake must not create a session record"
    );
    server.shutdown();
}

#[test]
fn missing_token_is_rejected_when_required() {
    let conn = open_database();
    let server = guarded_server(conn);
    let mut client = NetClient::new(server.addr(), "auth-none").with_token(None);
    match client.request(perfdmf_explorer::Request::Ping) {
        Response::Error(reason) => assert!(reason.contains("required"), "got: {reason}"),
        other => panic!("expected a terminal auth error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn open_server_admits_but_does_not_claim_authentication() {
    let conn = open_database();
    let server = PerfdmfServer::start_with_config(
        conn.clone(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    // Even a client that volunteers a token is admitted — but nothing
    // was verified, so the session must not claim authentication.
    let mut client =
        NetClient::new(server.addr(), "auth-open").with_token(Some("unchecked".into()));
    assert!(client.ping());
    let session = client.session();
    client.close();
    let record = conn
        .telemetry()
        .sessions()
        .into_iter()
        .find(|r| r.id == session)
        .expect("session record");
    assert!(
        !record.authenticated,
        "an open server verifies nothing and must claim nothing"
    );
    server.shutdown();
}

/// Every frame the server sends on `stream` until it closes.
fn frames_until_close(stream: &mut TcpStream) -> Vec<Message> {
    let mut frames = Vec::new();
    loop {
        let mut header = [0u8; HEADER_LEN];
        if stream.read_exact(&mut header).is_err() {
            return frames;
        }
        let (len, crc) = parse_header(&header).expect("valid header");
        let mut body = vec![0u8; len as usize];
        stream.read_exact(&mut body).expect("frame body");
        verify_body(crc, &body).expect("valid checksum");
        frames.push(Message::decode(&body).expect("decodable frame"));
    }
}

#[test]
fn hello_with_any_other_protocol_version_gets_goodbye() {
    let server = PerfdmfServer::start(open_database()).expect("server start");
    for protocol in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        stream
            .write_all(
                &Message::Hello {
                    protocol,
                    tenant: "version-probe".into(),
                    token: None,
                }
                .to_frame(),
            )
            .expect("hello");
        let frames = frames_until_close(&mut stream);
        match frames.as_slice() {
            [Message::Goodbye { reason }] => assert!(
                reason.contains(&format!("protocol version {protocol} ")),
                "goodbye for v{protocol} must name the version, got: {reason}"
            ),
            other => panic!("v{protocol} hello must get exactly one Goodbye, got {other:?}"),
        }
    }
    server.shutdown();
}

/// A peer still speaking the version-4 layout (a `Hello` with no token
/// flag byte, or the old tag 7 for a tokened `Hello`) fails to decode:
/// it gets one `Goodbye` naming the bad frame, never a `HelloAck`, and
/// the server closes the session.
#[test]
fn v4_layout_hello_gets_goodbye_and_close() {
    let server = PerfdmfServer::start(open_database()).expect("server start");
    let mut tokenless = vec![0u8];
    tokenless.extend_from_slice(&4u32.to_le_bytes());
    tokenless.extend_from_slice(&4u32.to_le_bytes());
    tokenless.extend_from_slice(b"old4");
    let mut tokened = tokenless.clone();
    tokened[0] = 7;
    tokened.extend_from_slice(&6u32.to_le_bytes());
    tokened.extend_from_slice(b"sesame");
    for body in [tokenless, tokened] {
        let mut frame = MAGIC.to_le_bytes().to_vec();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        stream.write_all(&frame).expect("hello");
        let frames = frames_until_close(&mut stream);
        match frames.as_slice() {
            [Message::Goodbye { reason }] => {
                assert!(reason.contains("bad hello frame"), "got: {reason}")
            }
            other => panic!("a v4 hello must get exactly one Goodbye, got {other:?}"),
        }
        match stream.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("the server must close the session, got {other:?}"),
        }
    }
    server.shutdown();
}
