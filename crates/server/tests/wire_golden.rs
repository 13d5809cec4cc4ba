//! Byte-for-byte goldens for every wire layout.
//!
//! A round-trip property cannot see a layout change that the encoder
//! and decoder make together; this corpus can. Every case below is
//! encoded and compared, as hex, with its line in
//! `tests/fixtures/wire_golden.hex`, and the golden bytes must decode
//! back to the same message. The corpus covers every `Request` inside
//! a `Call` (with and without trace context), every `Response` inside
//! a `Reply` (with and without usage), both `FeatureSpace` and both
//! `ClusterMethod` values, `Some`/`None` for each optional field, and
//! the handshake and control messages.
//!
//! Regenerate after an intentional layout change (which also bumps
//! `PROTOCOL_VERSION`) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p perfdmf-server --test wire_golden
//! ```
//!
//! and review the fixture diff like any other code change.

use perfdmf_explorer::{ClusterMethod, ClusterSummary, FeatureSpace, Request, Response};
use perfdmf_server::wire::Message;
use perfdmf_telemetry::{ResourceUsage, SpanContext, SpanId, TraceId};
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire_golden.hex")
}

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "cluster_trial_events_kmeans_k",
            Request::ClusterTrial {
                trial_id: -7,
                features: FeatureSpace::EventsOfMetric("TIME".into()),
                k: Some(3),
                max_k: 8,
                pca_components: 2,
                method: ClusterMethod::KMeans,
            },
        ),
        (
            "cluster_trial_metrics_hierarchical_auto",
            Request::ClusterTrial {
                trial_id: 41,
                features: FeatureSpace::MetricsOfEvent("main".into()),
                k: None,
                max_k: 6,
                pca_components: 0,
                method: ClusterMethod::Hierarchical,
            },
        ),
        (
            "correlate_metrics",
            Request::CorrelateMetrics {
                trial_id: 1,
                event: "main".into(),
            },
        ),
        ("fetch_result", Request::FetchResult { settings_id: 9 }),
        (
            "speedup_study",
            Request::SpeedupStudy {
                experiment_id: 2,
                metric: "TIME".into(),
            },
        ),
        (
            "regression_scan",
            Request::RegressionScan {
                experiment_id: 3,
                threshold: 0.1,
            },
        ),
        (
            "watchdog_check",
            Request::WatchdogCheck {
                experiment_id: 4,
                trial_id: 5,
                metric: "PAPI_FP_OPS".into(),
                min_ratio: 1.25,
            },
        ),
        ("ping", Request::Ping),
        ("shutdown", Request::Shutdown),
        ("inject_panic", Request::InjectPanic("boom".into())),
        ("stall", Request::Stall { millis: 10 }),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    vec![
        (
            "clustering",
            Response::Clustering {
                settings_id: 1,
                k: 2,
                assignments: vec![0, 1, 1],
                summaries: vec![
                    ClusterSummary {
                        cluster: 0,
                        size: 1,
                        centroid: vec![1.0, -2.5],
                    },
                    ClusterSummary {
                        cluster: 1,
                        size: 2,
                        centroid: vec![],
                    },
                ],
                silhouette: 0.8,
                columns: vec!["a".into(), "b".into()],
            },
        ),
        (
            "correlation",
            Response::Correlation {
                settings_id: 2,
                metrics: vec!["A".into(), "B".into()],
                matrix: vec![vec![1.0, -0.5], vec![-0.5, 1.0]],
            },
        ),
        (
            "speedup_amdahl",
            Response::Speedup {
                application: vec![(1, 1.0, 1.0), (8, 6.0, 0.75)],
                amdahl_serial_fraction: Some(0.05),
                routines: vec![("f".into(), 8, 1.0, 2.0, 3.0)],
            },
        ),
        (
            "speedup_no_amdahl",
            Response::Speedup {
                application: vec![],
                amdahl_serial_fraction: None,
                routines: vec![],
            },
        ),
        (
            "regressions",
            Response::Regressions {
                findings: vec![(1, 2, "e".into(), "TIME".into(), 0.5)],
                pairs_compared: 1,
            },
        ),
        (
            "watchdog",
            Response::Watchdog {
                baseline_trials: 4,
                findings: vec![("hot".into(), 20.0, 40.0, 2.0)],
            },
        ),
        (
            "stored",
            Response::Stored {
                method: "kmeans".into(),
                rows: vec![("assignment".into(), 0, 1.0, "0.0.0".into())],
            },
        ),
        ("pong", Response::Pong),
        ("error", Response::Error("nope".into())),
        ("overloaded", Response::Overloaded),
        (
            "failed_retryable",
            Response::Failed {
                reason: "deadline".into(),
                retryable: true,
            },
        ),
        (
            "failed_final",
            Response::Failed {
                reason: "worker panicked".into(),
                retryable: false,
            },
        ),
        ("shutting_down", Response::ShuttingDown),
    ]
}

fn cases() -> Vec<(String, Message)> {
    let mut cases: Vec<(String, Message)> = vec![
        (
            "hello_no_token".into(),
            Message::Hello {
                protocol: 5,
                tenant: "acme/ci".into(),
                token: None,
            },
        ),
        (
            "hello_token".into(),
            Message::Hello {
                protocol: 5,
                tenant: "acme/ci".into(),
                token: Some("s3cret".into()),
            },
        ),
        (
            "hello_ack".into(),
            Message::HelloAck {
                session: 42,
                key_space: 0x2A,
            },
        ),
        (
            "goodbye".into(),
            Message::Goodbye {
                reason: "drain".into(),
            },
        ),
        (
            "auth_failed".into(),
            Message::AuthFailed {
                reason: "token mismatch".into(),
            },
        ),
    ];
    for (name, request) in requests() {
        for (suffix, trace) in [
            ("no_trace", None),
            (
                "trace",
                Some(SpanContext {
                    trace: TraceId(0x0123_4567_89AB_CDEF),
                    span: SpanId(0xFEDC_BA98_7654_3210),
                }),
            ),
        ] {
            cases.push((
                format!("call_{name}_{suffix}"),
                Message::Call {
                    seq: 0x0102_0304_0506_0708,
                    deadline_ms: 250,
                    idempotency: 0xDEAD_BEEF,
                    trace,
                    request: request.clone(),
                },
            ));
        }
    }
    for (name, response) in responses() {
        for (suffix, usage) in [
            ("no_usage", None),
            (
                "usage",
                Some(ResourceUsage {
                    rows_scanned: 1,
                    chunk_hits: 2,
                    chunk_misses: 3,
                    pool_tasks: 4,
                    wal_bytes: 5,
                    queue_wait_ns: 6,
                    execute_ns: 7,
                }),
            ),
        ] {
            cases.push((
                format!("reply_{name}_{suffix}"),
                Message::Reply {
                    seq: 7,
                    usage,
                    response: response.clone(),
                },
            ));
        }
    }
    cases
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

#[test]
fn every_layout_matches_its_golden_bytes() {
    let cases = cases();
    let path = fixture_path();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        let mut out = String::new();
        for (name, message) in &cases {
            let _ = writeln!(out, "{name} {}", hex(&message.encode()));
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, out).unwrap();
        return;
    }
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    let golden: Vec<(&str, &str)> = fixture
        .lines()
        .map(|line| line.split_once(' ').expect("`name hex` line"))
        .collect();
    let names: Vec<&str> = cases.iter().map(|(n, _)| n.as_str()).collect();
    let golden_names: Vec<&str> = golden.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, golden_names, "case list differs from the fixture");
    let mut drift = Vec::new();
    for ((name, message), &(_, want)) in cases.iter().zip(&golden) {
        let got = hex(&message.encode());
        if got != want {
            drift.push(format!("{name}:\n  golden {want}\n  actual {got}"));
        }
        assert_eq!(
            Message::decode(&unhex(want)).as_ref(),
            Ok(message),
            "golden bytes of {name} decode to a different message"
        );
    }
    assert!(
        drift.is_empty(),
        "{}\n({} layout(s) drifted; UPDATE_GOLDEN=1 regenerates after review)",
        drift.join("\n"),
        drift.len()
    );
}
