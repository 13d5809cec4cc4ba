//! Property tests for the wire codec: encoding is total and decoding
//! is total — any `Message` round-trips bit-exactly, and any byte
//! soup (truncations, bit flips, pure garbage) yields a typed
//! [`WireError`], never a panic and never an outsized allocation.

use perfdmf_explorer::{ClusterMethod, ClusterSummary, FeatureSpace, Request, Response};
use perfdmf_server::stream::{read_exact, write_all, FaultStream, NetFaultPlan, Stream};
use perfdmf_server::wire::{
    crc32, parse_header, verify_body, Message, WireError, HEADER_LEN, MAGIC, MAX_FRAME_LEN,
};
use perfdmf_telemetry::{ResourceUsage, SpanContext, SpanId, TraceId};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    "[A-Za-z0-9 _.:/-]{0,24}"
}

fn arb_feature_space() -> BoxedStrategy<FeatureSpace> {
    prop_oneof![
        arb_name().prop_map(FeatureSpace::EventsOfMetric),
        arb_name().prop_map(FeatureSpace::MetricsOfEvent),
    ]
    .boxed()
}

fn arb_request() -> BoxedStrategy<Request> {
    prop_oneof![
        (
            any::<i64>(),
            arb_feature_space(),
            prop_oneof![Just(None), (1usize..64).prop_map(Some)],
            1usize..64,
            0usize..8,
            prop_oneof![
                Just(ClusterMethod::KMeans),
                Just(ClusterMethod::Hierarchical)
            ],
        )
            .prop_map(|(trial_id, features, k, max_k, pca_components, method)| {
                Request::ClusterTrial {
                    trial_id,
                    features,
                    k,
                    max_k,
                    pca_components,
                    method,
                }
            }),
        (any::<i64>(), arb_name())
            .prop_map(|(trial_id, event)| Request::CorrelateMetrics { trial_id, event }),
        any::<i64>().prop_map(|settings_id| Request::FetchResult { settings_id }),
        (any::<i64>(), arb_name()).prop_map(|(experiment_id, metric)| Request::SpeedupStudy {
            experiment_id,
            metric
        }),
        (any::<i64>(), -2.0..2.0).prop_map(|(experiment_id, threshold)| {
            Request::RegressionScan {
                experiment_id,
                threshold,
            }
        }),
        (any::<i64>(), any::<i64>(), arb_name(), -4.0..4.0).prop_map(
            |(experiment_id, trial_id, metric, min_ratio)| Request::WatchdogCheck {
                experiment_id,
                trial_id,
                metric,
                min_ratio,
            }
        ),
        Just(Request::Ping),
        Just(Request::Shutdown),
        arb_name().prop_map(Request::InjectPanic),
        (0u64..100_000).prop_map(|millis| Request::Stall { millis }),
    ]
    .boxed()
}

fn arb_summaries() -> impl Strategy<Value = Vec<ClusterSummary>> {
    proptest::collection::vec(
        (
            0usize..16,
            0usize..4096,
            proptest::collection::vec(-1e9..1e9, 0..6),
        )
            .prop_map(|(cluster, size, centroid)| ClusterSummary {
                cluster,
                size,
                centroid,
            }),
        0..4,
    )
}

fn arb_response() -> BoxedStrategy<Response> {
    prop_oneof![
        (
            any::<i64>(),
            0usize..64,
            proptest::collection::vec(0usize..8, 0..32),
            arb_summaries(),
            -1.0..1.0,
            proptest::collection::vec(arb_name(), 0..4),
        )
            .prop_map(
                |(settings_id, k, assignments, summaries, silhouette, columns)| {
                    Response::Clustering {
                        settings_id,
                        k,
                        assignments,
                        summaries,
                        silhouette,
                        columns,
                    }
                }
            ),
        (
            any::<i64>(),
            proptest::collection::vec(arb_name(), 0..3),
            proptest::collection::vec(proptest::collection::vec(-1.0..1.0, 0..3), 0..3),
        )
            .prop_map(|(settings_id, metrics, matrix)| Response::Correlation {
                settings_id,
                metrics,
                matrix,
            }),
        (
            proptest::collection::vec((1usize..4096, 0.0..64.0, 0.0..1.5), 0..4),
            prop_oneof![Just(None), (0.0..1.0).prop_map(Some)],
            proptest::collection::vec(
                (arb_name(), 1usize..4096, 0.0..64.0, 0.0..64.0, 0.0..64.0),
                0..3
            ),
        )
            .prop_map(|(application, amdahl_serial_fraction, routines)| {
                Response::Speedup {
                    application,
                    amdahl_serial_fraction,
                    routines,
                }
            }),
        (
            proptest::collection::vec(
                (
                    any::<i64>(),
                    any::<i64>(),
                    arb_name(),
                    arb_name(),
                    -2.0..2.0
                ),
                0..3
            ),
            0usize..1000,
        )
            .prop_map(|(findings, pairs_compared)| Response::Regressions {
                findings,
                pairs_compared,
            }),
        (
            0usize..100,
            proptest::collection::vec((arb_name(), 0.0..1e6, 0.0..1e6, 0.0..100.0), 0..3),
        )
            .prop_map(|(baseline_trials, findings)| Response::Watchdog {
                baseline_trials,
                findings,
            }),
        (
            arb_name(),
            proptest::collection::vec((arb_name(), any::<i64>(), -1e9..1e9, arb_name()), 0..4),
        )
            .prop_map(|(method, rows)| Response::Stored { method, rows }),
        Just(Response::Pong),
        arb_name().prop_map(Response::Error),
        Just(Response::Overloaded),
        (arb_name(), any::<bool>())
            .prop_map(|(reason, retryable)| Response::Failed { reason, retryable }),
        Just(Response::ShuttingDown),
    ]
    .boxed()
}

fn arb_trace() -> BoxedStrategy<Option<SpanContext>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), any::<u64>()).prop_map(|(t, s)| Some(SpanContext {
            trace: TraceId(t),
            span: SpanId(s),
        })),
    ]
    .boxed()
}

fn arb_usage() -> BoxedStrategy<Option<ResourceUsage>> {
    prop_oneof![
        Just(None),
        proptest::collection::vec(any::<u64>(), 7).prop_map(|v| Some(ResourceUsage {
            rows_scanned: v[0],
            chunk_hits: v[1],
            chunk_misses: v[2],
            pool_tasks: v[3],
            wal_bytes: v[4],
            queue_wait_ns: v[5],
            execute_ns: v[6],
        })),
    ]
    .boxed()
}

fn arb_message() -> BoxedStrategy<Message> {
    prop_oneof![
        (
            any::<u32>(),
            arb_name(),
            prop_oneof![Just(None), arb_name().prop_map(Some)]
        )
            .prop_map(|(protocol, tenant, token)| Message::Hello {
                protocol,
                tenant,
                token,
            }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(session, key_space)| Message::HelloAck { session, key_space }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            arb_trace(),
            arb_request()
        )
            .prop_map(
                |(seq, deadline_ms, idempotency, trace, request)| Message::Call {
                    seq,
                    deadline_ms,
                    idempotency,
                    trace,
                    request,
                }
            ),
        (any::<u64>(), arb_usage(), arb_response()).prop_map(|(seq, usage, response)| {
            Message::Reply {
                seq,
                usage,
                response,
            }
        }),
        arb_name().prop_map(|reason| Message::Goodbye { reason }),
        arb_name().prop_map(|reason| Message::AuthFailed { reason }),
    ]
    .boxed()
}

/// In-memory half-duplex pipe, so the fault layer can be exercised
/// without sockets.
#[derive(Clone, Default)]
struct Pipe(std::sync::Arc<std::sync::Mutex<std::collections::VecDeque<u8>>>);

impl Stream for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut inner = self.0.lock().unwrap();
        let n = buf.len().min(inner.len());
        for slot in buf[..n].iter_mut() {
            *slot = inner.pop_front().unwrap();
        }
        Ok(n)
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend(buf.iter().copied());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn shutdown(&mut self) {}

    fn set_read_timeout(&mut self, _t: Option<std::time::Duration>) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    /// Any message round-trips bit-exactly through encode/decode.
    #[test]
    fn message_roundtrips(message in arb_message()) {
        let body = message.encode();
        prop_assert_eq!(Message::decode(&body).unwrap(), message);
    }

    /// Every strict prefix of a valid body is a typed error — the
    /// decoder never reads past the buffer and never panics on torn
    /// frames.
    #[test]
    fn every_truncation_is_a_typed_error(message in arb_message(), cut in 0usize..4096) {
        let body = message.encode();
        if !body.is_empty() {
            let cut = cut % body.len();
            prop_assert!(Message::decode(&body[..cut]).is_err());
        }
    }

    /// A single flipped bit never panics the decoder: it either still
    /// decodes (the flip landed in a value) or yields a typed error
    /// (the flip landed in structure).
    #[test]
    fn single_bit_flips_never_panic(
        message in arb_message(),
        pos in 0usize..4096,
        bit in 0u8..8,
    ) {
        let mut body = message.encode();
        if !body.is_empty() {
            let pos = pos % body.len();
            body[pos] ^= 1 << bit;
            let _ = Message::decode(&body);
        }
    }

    /// Pure garbage never panics and never allocates beyond the body
    /// it was handed (forged collection lengths are rejected against
    /// the remaining byte count before any allocation).
    #[test]
    fn garbage_bodies_never_panic(body in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode(&body);
    }

    /// Random frame headers are only accepted when both the magic and
    /// the length bound hold; the declared checksum passes through
    /// untouched for the body check.
    #[test]
    fn headers_reject_bad_magic_and_oversized_lengths(
        magic in any::<u32>(),
        len in any::<u32>(),
        crc in any::<u32>(),
    ) {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&magic.to_le_bytes());
        header[4..8].copy_from_slice(&len.to_le_bytes());
        header[8..].copy_from_slice(&crc.to_le_bytes());
        match parse_header(&header) {
            Ok((got_len, got_crc)) => {
                prop_assert_eq!(magic, MAGIC);
                prop_assert!(len <= MAX_FRAME_LEN);
                prop_assert_eq!(got_len, len);
                prop_assert_eq!(got_crc, crc);
            }
            Err(WireError::BadMagic(m)) => prop_assert_eq!(m, magic),
            Err(WireError::Oversized(l)) => {
                prop_assert_eq!(magic, MAGIC);
                prop_assert_eq!(l, len);
                prop_assert!(len > MAX_FRAME_LEN);
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error {other:?}"))),
        }
    }

    /// Any single flipped bit in any encoded body is caught by the
    /// frame checksum — this is the CRC guarantee the fault-tolerant
    /// transport leans on, since the chaos fault injector corrupts
    /// streams exactly one bit at a time.
    #[test]
    fn single_bit_flips_always_fail_the_checksum(
        message in arb_message(),
        pos in 0usize..4096,
        bit in 0u8..8,
    ) {
        let mut body = message.encode();
        let declared = crc32(&body);
        if !body.is_empty() {
            let pos = pos % body.len();
            body[pos] ^= 1 << bit;
            let caught = matches!(
                verify_body(declared, &body),
                Err(WireError::ChecksumMismatch { declared: _, actual: _ })
            );
            prop_assert!(caught, "flip at byte {} bit {} went undetected", pos, bit);
        }
    }

    /// A declared-huge collection length inside an otherwise valid
    /// frame fails fast with `BadLength` instead of allocating.
    #[test]
    fn forged_collection_lengths_fail_before_allocating(declared in 4096u32..u32::MAX) {
        // Call { seq, deadline_ms, idempotency, no trace, ClusterTrial {
        // trial_id, EventsOfMetric(<declared-length string>) ... } } cut
        // so the declared length exceeds the remaining bytes.
        let mut body = vec![2u8]; // Call
        body.extend_from_slice(&1u64.to_le_bytes()); // seq
        body.extend_from_slice(&0u32.to_le_bytes()); // deadline
        body.extend_from_slice(&0u64.to_le_bytes()); // idempotency
        body.push(0); // no trace context
        body.push(0); // Request::ClusterTrial
        body.extend_from_slice(&7i64.to_le_bytes()); // trial_id
        body.push(0); // FeatureSpace::EventsOfMetric
        body.extend_from_slice(&declared.to_le_bytes()); // forged string length
        body.extend_from_slice(b"tiny"); // far fewer bytes than declared
        match Message::decode(&body) {
            Err(WireError::BadLength { declared: d, .. }) => prop_assert_eq!(d, declared),
            Err(WireError::Truncated { .. }) => {}
            other => return Err(TestCaseError::fail(format!("expected length rejection, got {other:?}"))),
        }
    }

    /// A corrupted trace field never sneaks a wrong context past the
    /// frame boundary: any bit flip inside the trace/span id bytes of a
    /// trace-carrying `Call` fails the CRC check.
    #[test]
    fn corrupted_trace_context_fails_the_frame_checksum(
        seq in any::<u64>(),
        trace in any::<u64>(),
        span in any::<u64>(),
        pos in 0usize..16,
        bit in 0u8..8,
    ) {
        let message = Message::Call {
            seq,
            deadline_ms: 0,
            idempotency: 0,
            trace: Some(SpanContext { trace: TraceId(trace), span: SpanId(span) }),
            request: Request::Ping,
        };
        let mut body = message.encode();
        let declared = crc32(&body);
        // Call layout: tag, seq, deadline_ms, idempotency and the trace
        // flag fill bytes 0..22; bytes 22..38 are the trace and span ids.
        body[22 + pos] ^= 1 << bit;
        let caught = matches!(
            verify_body(declared, &body),
            Err(WireError::ChecksumMismatch { .. })
        );
        prop_assert!(caught, "flip at trace byte {} bit {} went undetected", pos, bit);
    }

    /// Trace context survives the fault-injecting transport bit-exactly:
    /// a trace-carrying frame written and read through `FaultStream`
    /// partial I/O reassembles into the identical message.
    #[test]
    fn trace_context_roundtrips_through_faulty_partial_io(
        seq in any::<u64>(),
        trace in any::<u64>(),
        span in any::<u64>(),
        request in arb_request(),
        seed in any::<u64>(),
        max_read in 1usize..5,
        max_write in 1usize..5,
    ) {
        let message = Message::Call {
            seq,
            deadline_ms: 7,
            idempotency: 9,
            trace: Some(SpanContext { trace: TraceId(trace), span: SpanId(span) }),
            request,
        };
        let frame = message.to_frame();
        let pipe = Pipe::default();
        let mut writer = FaultStream::new(
            Box::new(pipe.clone()),
            NetFaultPlan::seeded(seed).partial_io(max_write),
        );
        write_all(&mut writer, &frame).unwrap();
        let mut reader = FaultStream::new(
            Box::new(pipe),
            NetFaultPlan::seeded(seed.wrapping_add(1)).partial_io(max_read),
        );
        let mut header = [0u8; HEADER_LEN];
        prop_assert!(read_exact(&mut reader, &mut header).unwrap());
        let (len, declared) = parse_header(&header).unwrap();
        let mut body = vec![0u8; len as usize];
        prop_assert!(read_exact(&mut reader, &mut body).unwrap());
        verify_body(declared, &body).unwrap();
        prop_assert_eq!(Message::decode(&body).unwrap(), message);
    }
}
