//! The length-prefixed binary wire protocol.
//!
//! Every frame on the wire is `magic(u32) | len(u32) | crc(u32) |
//! body`, little endian, where `body` encodes one [`Message`] and `crc`
//! is the CRC-32 (IEEE) of the body. The body is a tagged tree: one
//! `u8` tag per enum variant, `u64`/`i64`/`u32` little-endian integers,
//! `f64` as IEEE bits, strings and vectors as `u32` length + elements.
//!
//! Decoding is **total**: any byte sequence yields either a value or a
//! typed [`WireError`] — never a panic and never an unbounded
//! allocation. Three guards enforce that:
//!
//! * frames longer than [`MAX_FRAME_LEN`] are rejected from the header
//!   alone, before any body byte is read or buffered;
//! * the body checksum must match the header's `crc` before decoding —
//!   in-flight corruption becomes a typed error and a clean retry, not
//!   a structurally valid frame with silently altered values (a flipped
//!   bit in an idempotency key or a clustering parameter would
//!   otherwise *execute*, as the chaos harness demonstrated);
//! * every declared collection length is checked against the bytes
//!   actually remaining in the frame before allocating, so a forged
//!   length can never make the decoder reserve more memory than the
//!   attacker sent.
//!
//! The codec is versioned by [`PROTOCOL_VERSION`], carried in the
//! [`Message::Hello`] handshake; servers serve exactly
//! [`PROTOCOL_VERSION`] and reject any other version with a `Goodbye`.
//!
//! Each message has exactly one tag and one layout:
//!
//! | tag | message      | body after the tag                                          |
//! |-----|--------------|-------------------------------------------------------------|
//! | 0   | `Hello`      | protocol, tenant, flag, [token]                             |
//! | 1   | `HelloAck`   | session, key_space                                          |
//! | 2   | `Call`       | seq, deadline_ms, idempotency, flag, [trace id, span id], request |
//! | 3   | `Reply`      | seq, flag, [seven `ResourceUsage` u64s], response           |
//! | 4   | `Goodbye`    | reason                                                      |
//! | 5   | `AuthFailed` | reason                                                      |
//!
//! A flag byte is 0 (the bracketed field is absent) or 1 (it follows);
//! any other value is a typed [`WireError::UnknownTag`]. The trace
//! context rides inside the CRC-protected body, so a corrupted trace id
//! is caught at the frame boundary like any other field.
//!
//! Pipelining needs no frames of its own: every `Call` carries a
//! per-session `seq` and every `Reply` echoes it, so a client may keep
//! a bounded window of calls outstanding and match replies out of
//! order.

use perfdmf_explorer::{ClusterMethod, ClusterSummary, FeatureSpace, Request, Response};
use perfdmf_telemetry::{ResourceUsage, SpanContext, SpanId, TraceId};

/// Frame magic: `"PDMF"` little-endian.
pub const MAGIC: u32 = 0x464D_4450;

/// Bytes in a frame header: magic, body length, body CRC-32.
pub const HEADER_LEN: usize = 12;

/// Hard cap on a frame body. Large enough for any real analysis
/// response (a 16K-thread clustering reply is well under 1 MiB);
/// anything bigger is a corrupt or hostile frame and is rejected before
/// allocation.
pub const MAX_FRAME_LEN: u32 = 8 * 1024 * 1024;

/// Wire-protocol version carried in the handshake. A peer speaking any
/// other version gets a `Goodbye`: the byte layout in the module docs
/// is the only one this codec reads or writes.
pub const PROTOCOL_VERSION: u32 = 5;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`. Chosen over a fast non-cryptographic hash
/// because it *guarantees* detection of any single-bit error — exactly
/// the corruption model the chaos harness injects.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Why a frame or body failed to decode. Every variant is a protocol
/// error: the connection that produced it cannot be trusted to stay in
/// frame sync and should be closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame header carried the wrong magic — the peer is not
    /// speaking this protocol (or the stream lost sync).
    BadMagic(u32),
    /// The declared frame length exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The body ended before the value it declared was complete.
    Truncated {
        /// What was being decoded when bytes ran out.
        context: &'static str,
    },
    /// A declared collection length exceeds the bytes remaining in the
    /// frame — a forged length that would otherwise force a huge
    /// allocation.
    BadLength {
        /// What was being decoded.
        context: &'static str,
        /// The declared element count.
        declared: u32,
    },
    /// An enum tag outside the known range.
    UnknownTag {
        /// Which enum was being decoded.
        context: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// The body's CRC-32 did not match the header's — the frame was
    /// corrupted in flight.
    ChecksumMismatch {
        /// The checksum the header declared.
        declared: u32,
        /// The checksum of the body as received.
        actual: u32,
    },
    /// The body decoded completely but bytes were left over — a framing
    /// bug or tampering.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::Oversized(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            WireError::Truncated { context } => {
                write!(f, "truncated frame while decoding {context}")
            }
            WireError::BadLength { context, declared } => {
                write!(
                    f,
                    "declared length {declared} of {context} exceeds frame size"
                )
            }
            WireError::UnknownTag { context, tag } => {
                write!(f, "unknown tag {tag} for {context}")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::ChecksumMismatch { declared, actual } => write!(
                f,
                "body checksum {actual:#010x} does not match header {declared:#010x}"
            ),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// One protocol message, the unit carried by a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server, first frame on a connection.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Tenant tag attached to the session (multi-tenant accounting;
        /// surfaces in the `perfdmf_sessions` system table).
        tenant: String,
        /// Shared-secret session token (`None` when the deployment runs
        /// open). Compared in constant time
        /// against `PERFDMF_SERVER_TOKEN` before any request is
        /// admitted.
        token: Option<String>,
    },
    /// Server → client handshake acknowledgement.
    HelloAck {
        /// Server-assigned session id.
        session: u64,
        /// Server-assigned idempotency-key space (the high 32 bits of
        /// every key this client draws). Server-wide uniqueness is what
        /// keeps two clients — possibly in different processes — from
        /// ever colliding in the replay cache.
        key_space: u64,
    },
    /// Client → server: one analysis request.
    Call {
        /// Statement sequence number; must be strictly increasing per
        /// session.
        seq: u64,
        /// Milliseconds of deadline remaining when the frame was sent
        /// (0 = no deadline). The server converts this to an absolute
        /// deadline that covers queue wait and execution.
        deadline_ms: u32,
        /// Idempotency key (0 = none). Retries of an effectful request
        /// must carry the same key; the server replays the recorded
        /// response instead of applying the write twice.
        idempotency: u64,
        /// Trace context of the client span issuing this call (`None`
        /// when tracing/sampling skips the request). The server adopts
        /// it so its `server.request` span
        /// joins the client's causal trace.
        trace: Option<SpanContext>,
        /// The request itself.
        request: Request,
    },
    /// Server → client: the answer to the `Call` with the same `seq`.
    Reply {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Server-side resource accounting for this request (`None`
        /// when the server did not meter the request).
        usage: Option<ResourceUsage>,
        /// The response.
        response: Response,
    },
    /// Either direction: the sender is about to close the connection
    /// cleanly. Carries a human-readable reason.
    Goodbye {
        /// Why the connection is closing.
        reason: String,
    },
    /// Server → client: the `Hello` token was rejected. Sent
    /// instead of `HelloAck`, after which the server closes the
    /// connection; no request was admitted.
    AuthFailed {
        /// Why authentication failed (never echoes the token).
        reason: String,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    fn bool(&mut self, context: &'static str) -> Result<bool, WireError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag { context, tag }),
        }
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self, context: &'static str) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Declared element count, pre-checked so `count * min_elem_bytes`
    /// never exceeds the bytes actually present — the allocation bound.
    fn len(&mut self, min_elem_bytes: usize, context: &'static str) -> Result<usize, WireError> {
        let declared = self.u32(context)?;
        let need = (declared as usize).saturating_mul(min_elem_bytes.max(1));
        if need > self.remaining() {
            return Err(WireError::BadLength { context, declared });
        }
        Ok(declared as usize)
    }

    fn str(&mut self, context: &'static str) -> Result<String, WireError> {
        let n = self.len(1, context)?;
        let bytes = self.take(n, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn opt_f64(&mut self, context: &'static str) -> Result<Option<f64>, WireError> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.f64(context)?)),
            tag => Err(WireError::UnknownTag { context, tag }),
        }
    }

    fn opt_u64(&mut self, context: &'static str) -> Result<Option<u64>, WireError> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(context)?)),
            tag => Err(WireError::UnknownTag { context, tag }),
        }
    }
}

// ---------------------------------------------------------------------
// Request / Response codecs
// ---------------------------------------------------------------------

fn encode_feature_space(w: &mut Writer, fs: &FeatureSpace) {
    match fs {
        FeatureSpace::EventsOfMetric(m) => {
            w.u8(0);
            w.str(m);
        }
        FeatureSpace::MetricsOfEvent(e) => {
            w.u8(1);
            w.str(e);
        }
    }
}

fn decode_feature_space(r: &mut Reader) -> Result<FeatureSpace, WireError> {
    match r.u8("FeatureSpace")? {
        0 => Ok(FeatureSpace::EventsOfMetric(r.str("FeatureSpace metric")?)),
        1 => Ok(FeatureSpace::MetricsOfEvent(r.str("FeatureSpace event")?)),
        tag => Err(WireError::UnknownTag {
            context: "FeatureSpace",
            tag,
        }),
    }
}

fn encode_request(w: &mut Writer, req: &Request) {
    match req {
        Request::ClusterTrial {
            trial_id,
            features,
            k,
            max_k,
            pca_components,
            method,
        } => {
            w.u8(0);
            w.i64(*trial_id);
            encode_feature_space(w, features);
            w.opt_u64(k.map(|v| v as u64));
            w.u64(*max_k as u64);
            w.u64(*pca_components as u64);
            w.u8(match method {
                ClusterMethod::KMeans => 0,
                ClusterMethod::Hierarchical => 1,
            });
        }
        Request::CorrelateMetrics { trial_id, event } => {
            w.u8(1);
            w.i64(*trial_id);
            w.str(event);
        }
        Request::FetchResult { settings_id } => {
            w.u8(2);
            w.i64(*settings_id);
        }
        Request::SpeedupStudy {
            experiment_id,
            metric,
        } => {
            w.u8(3);
            w.i64(*experiment_id);
            w.str(metric);
        }
        Request::RegressionScan {
            experiment_id,
            threshold,
        } => {
            w.u8(4);
            w.i64(*experiment_id);
            w.f64(*threshold);
        }
        Request::WatchdogCheck {
            experiment_id,
            trial_id,
            metric,
            min_ratio,
        } => {
            w.u8(5);
            w.i64(*experiment_id);
            w.i64(*trial_id);
            w.str(metric);
            w.f64(*min_ratio);
        }
        Request::Ping => w.u8(6),
        Request::Shutdown => w.u8(7),
        Request::InjectPanic(msg) => {
            w.u8(8);
            w.str(msg);
        }
        Request::Stall { millis } => {
            w.u8(9);
            w.u64(*millis);
        }
    }
}

fn decode_request(r: &mut Reader) -> Result<Request, WireError> {
    match r.u8("Request")? {
        0 => Ok(Request::ClusterTrial {
            trial_id: r.i64("ClusterTrial trial_id")?,
            features: decode_feature_space(r)?,
            k: r.opt_u64("ClusterTrial k")?.map(|v| v as usize),
            max_k: r.u64("ClusterTrial max_k")? as usize,
            pca_components: r.u64("ClusterTrial pca_components")? as usize,
            method: match r.u8("ClusterMethod")? {
                0 => ClusterMethod::KMeans,
                1 => ClusterMethod::Hierarchical,
                tag => {
                    return Err(WireError::UnknownTag {
                        context: "ClusterMethod",
                        tag,
                    })
                }
            },
        }),
        1 => Ok(Request::CorrelateMetrics {
            trial_id: r.i64("CorrelateMetrics trial_id")?,
            event: r.str("CorrelateMetrics event")?,
        }),
        2 => Ok(Request::FetchResult {
            settings_id: r.i64("FetchResult settings_id")?,
        }),
        3 => Ok(Request::SpeedupStudy {
            experiment_id: r.i64("SpeedupStudy experiment_id")?,
            metric: r.str("SpeedupStudy metric")?,
        }),
        4 => Ok(Request::RegressionScan {
            experiment_id: r.i64("RegressionScan experiment_id")?,
            threshold: r.f64("RegressionScan threshold")?,
        }),
        5 => Ok(Request::WatchdogCheck {
            experiment_id: r.i64("WatchdogCheck experiment_id")?,
            trial_id: r.i64("WatchdogCheck trial_id")?,
            metric: r.str("WatchdogCheck metric")?,
            min_ratio: r.f64("WatchdogCheck min_ratio")?,
        }),
        6 => Ok(Request::Ping),
        7 => Ok(Request::Shutdown),
        8 => Ok(Request::InjectPanic(r.str("InjectPanic message")?)),
        9 => Ok(Request::Stall {
            millis: r.u64("Stall millis")?,
        }),
        tag => Err(WireError::UnknownTag {
            context: "Request",
            tag,
        }),
    }
}

fn encode_response(w: &mut Writer, resp: &Response) {
    match resp {
        Response::Clustering {
            settings_id,
            k,
            assignments,
            summaries,
            silhouette,
            columns,
        } => {
            w.u8(0);
            w.i64(*settings_id);
            w.u64(*k as u64);
            w.u32(assignments.len() as u32);
            for &a in assignments {
                w.u64(a as u64);
            }
            w.u32(summaries.len() as u32);
            for s in summaries {
                w.u64(s.cluster as u64);
                w.u64(s.size as u64);
                w.u32(s.centroid.len() as u32);
                for &c in &s.centroid {
                    w.f64(c);
                }
            }
            w.f64(*silhouette);
            w.u32(columns.len() as u32);
            for c in columns {
                w.str(c);
            }
        }
        Response::Correlation {
            settings_id,
            metrics,
            matrix,
        } => {
            w.u8(1);
            w.i64(*settings_id);
            w.u32(metrics.len() as u32);
            for m in metrics {
                w.str(m);
            }
            w.u32(matrix.len() as u32);
            for row in matrix {
                w.u32(row.len() as u32);
                for &v in row {
                    w.f64(v);
                }
            }
        }
        Response::Speedup {
            application,
            amdahl_serial_fraction,
            routines,
        } => {
            w.u8(2);
            w.u32(application.len() as u32);
            for &(p, s, e) in application {
                w.u64(p as u64);
                w.f64(s);
                w.f64(e);
            }
            w.opt_f64(*amdahl_serial_fraction);
            w.u32(routines.len() as u32);
            for (name, p, min, mean, max) in routines {
                w.str(name);
                w.u64(*p as u64);
                w.f64(*min);
                w.f64(*mean);
                w.f64(*max);
            }
        }
        Response::Regressions {
            findings,
            pairs_compared,
        } => {
            w.u8(3);
            w.u32(findings.len() as u32);
            for (older, newer, event, metric, rel) in findings {
                w.i64(*older);
                w.i64(*newer);
                w.str(event);
                w.str(metric);
                w.f64(*rel);
            }
            w.u64(*pairs_compared as u64);
        }
        Response::Watchdog {
            baseline_trials,
            findings,
        } => {
            w.u8(4);
            w.u64(*baseline_trials as u64);
            w.u32(findings.len() as u32);
            for (event, baseline, candidate, ratio) in findings {
                w.str(event);
                w.f64(*baseline);
                w.f64(*candidate);
                w.f64(*ratio);
            }
        }
        Response::Stored { method, rows } => {
            w.u8(5);
            w.str(method);
            w.u32(rows.len() as u32);
            for (ty, item, value, label) in rows {
                w.str(ty);
                w.i64(*item);
                w.f64(*value);
                w.str(label);
            }
        }
        Response::Pong => w.u8(6),
        Response::Error(msg) => {
            w.u8(7);
            w.str(msg);
        }
        Response::Overloaded => w.u8(8),
        Response::Failed { reason, retryable } => {
            w.u8(9);
            w.str(reason);
            w.bool(*retryable);
        }
        Response::ShuttingDown => w.u8(10),
    }
}

fn decode_response(r: &mut Reader) -> Result<Response, WireError> {
    match r.u8("Response")? {
        0 => {
            let settings_id = r.i64("Clustering settings_id")?;
            let k = r.u64("Clustering k")? as usize;
            let n = r.len(8, "Clustering assignments")?;
            let mut assignments = Vec::with_capacity(n);
            for _ in 0..n {
                assignments.push(r.u64("Clustering assignment")? as usize);
            }
            let n = r.len(20, "Clustering summaries")?;
            let mut summaries = Vec::with_capacity(n);
            for _ in 0..n {
                let cluster = r.u64("ClusterSummary cluster")? as usize;
                let size = r.u64("ClusterSummary size")? as usize;
                let d = r.len(8, "ClusterSummary centroid")?;
                let mut centroid = Vec::with_capacity(d);
                for _ in 0..d {
                    centroid.push(r.f64("ClusterSummary centroid value")?);
                }
                summaries.push(ClusterSummary {
                    cluster,
                    size,
                    centroid,
                });
            }
            let silhouette = r.f64("Clustering silhouette")?;
            let n = r.len(4, "Clustering columns")?;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                columns.push(r.str("Clustering column")?);
            }
            Ok(Response::Clustering {
                settings_id,
                k,
                assignments,
                summaries,
                silhouette,
                columns,
            })
        }
        1 => {
            let settings_id = r.i64("Correlation settings_id")?;
            let n = r.len(4, "Correlation metrics")?;
            let mut metrics = Vec::with_capacity(n);
            for _ in 0..n {
                metrics.push(r.str("Correlation metric")?);
            }
            let n = r.len(4, "Correlation matrix")?;
            let mut matrix = Vec::with_capacity(n);
            for _ in 0..n {
                let d = r.len(8, "Correlation matrix row")?;
                let mut row = Vec::with_capacity(d);
                for _ in 0..d {
                    row.push(r.f64("Correlation matrix value")?);
                }
                matrix.push(row);
            }
            Ok(Response::Correlation {
                settings_id,
                metrics,
                matrix,
            })
        }
        2 => {
            let n = r.len(24, "Speedup application")?;
            let mut application = Vec::with_capacity(n);
            for _ in 0..n {
                application.push((
                    r.u64("Speedup processors")? as usize,
                    r.f64("Speedup speedup")?,
                    r.f64("Speedup efficiency")?,
                ));
            }
            let amdahl_serial_fraction = r.opt_f64("Speedup amdahl")?;
            let n = r.len(36, "Speedup routines")?;
            let mut routines = Vec::with_capacity(n);
            for _ in 0..n {
                routines.push((
                    r.str("Speedup routine name")?,
                    r.u64("Speedup routine processors")? as usize,
                    r.f64("Speedup routine min")?,
                    r.f64("Speedup routine mean")?,
                    r.f64("Speedup routine max")?,
                ));
            }
            Ok(Response::Speedup {
                application,
                amdahl_serial_fraction,
                routines,
            })
        }
        3 => {
            let n = r.len(32, "Regressions findings")?;
            let mut findings = Vec::with_capacity(n);
            for _ in 0..n {
                findings.push((
                    r.i64("Regression older")?,
                    r.i64("Regression newer")?,
                    r.str("Regression event")?,
                    r.str("Regression metric")?,
                    r.f64("Regression relative")?,
                ));
            }
            let pairs_compared = r.u64("Regressions pairs_compared")? as usize;
            Ok(Response::Regressions {
                findings,
                pairs_compared,
            })
        }
        4 => {
            let baseline_trials = r.u64("Watchdog baseline_trials")? as usize;
            let n = r.len(28, "Watchdog findings")?;
            let mut findings = Vec::with_capacity(n);
            for _ in 0..n {
                findings.push((
                    r.str("Watchdog event")?,
                    r.f64("Watchdog baseline")?,
                    r.f64("Watchdog candidate")?,
                    r.f64("Watchdog ratio")?,
                ));
            }
            Ok(Response::Watchdog {
                baseline_trials,
                findings,
            })
        }
        5 => {
            let method = r.str("Stored method")?;
            let n = r.len(24, "Stored rows")?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push((
                    r.str("Stored result_type")?,
                    r.i64("Stored item")?,
                    r.f64("Stored value")?,
                    r.str("Stored label")?,
                ));
            }
            Ok(Response::Stored { method, rows })
        }
        6 => Ok(Response::Pong),
        7 => Ok(Response::Error(r.str("Error message")?)),
        8 => Ok(Response::Overloaded),
        9 => Ok(Response::Failed {
            reason: r.str("Failed reason")?,
            retryable: r.bool("Failed retryable")?,
        }),
        10 => Ok(Response::ShuttingDown),
        tag => Err(WireError::UnknownTag {
            context: "Response",
            tag,
        }),
    }
}

fn encode_usage(w: &mut Writer, usage: &ResourceUsage) {
    w.u64(usage.rows_scanned);
    w.u64(usage.chunk_hits);
    w.u64(usage.chunk_misses);
    w.u64(usage.pool_tasks);
    w.u64(usage.wal_bytes);
    w.u64(usage.queue_wait_ns);
    w.u64(usage.execute_ns);
}

fn decode_usage(r: &mut Reader) -> Result<ResourceUsage, WireError> {
    Ok(ResourceUsage {
        rows_scanned: r.u64("ResourceUsage rows_scanned")?,
        chunk_hits: r.u64("ResourceUsage chunk_hits")?,
        chunk_misses: r.u64("ResourceUsage chunk_misses")?,
        pool_tasks: r.u64("ResourceUsage pool_tasks")?,
        wal_bytes: r.u64("ResourceUsage wal_bytes")?,
        queue_wait_ns: r.u64("ResourceUsage queue_wait_ns")?,
        execute_ns: r.u64("ResourceUsage execute_ns")?,
    })
}

impl Message {
    /// Encode the message body (without the frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Message::Hello {
                protocol,
                tenant,
                token,
            } => {
                w.u8(0);
                w.u32(*protocol);
                w.str(tenant);
                w.bool(token.is_some());
                if let Some(token) = token {
                    w.str(token);
                }
            }
            Message::HelloAck { session, key_space } => {
                w.u8(1);
                w.u64(*session);
                w.u64(*key_space);
            }
            Message::Call {
                seq,
                deadline_ms,
                idempotency,
                trace,
                request,
            } => {
                w.u8(2);
                w.u64(*seq);
                w.u32(*deadline_ms);
                w.u64(*idempotency);
                w.bool(trace.is_some());
                if let Some(ctx) = trace {
                    w.u64(ctx.trace.0);
                    w.u64(ctx.span.0);
                }
                encode_request(&mut w, request);
            }
            Message::Reply {
                seq,
                usage,
                response,
            } => {
                w.u8(3);
                w.u64(*seq);
                w.bool(usage.is_some());
                if let Some(u) = usage {
                    encode_usage(&mut w, u);
                }
                encode_response(&mut w, response);
            }
            Message::Goodbye { reason } => {
                w.u8(4);
                w.str(reason);
            }
            Message::AuthFailed { reason } => {
                w.u8(5);
                w.str(reason);
            }
        }
        w.buf
    }

    /// Decode a message body. Total: every input yields a value or a
    /// typed error, and trailing bytes are rejected.
    pub fn decode(body: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::new(body);
        let msg = match r.u8("Message")? {
            0 => Message::Hello {
                protocol: r.u32("Hello protocol")?,
                tenant: r.str("Hello tenant")?,
                token: if r.bool("Hello token flag")? {
                    Some(r.str("Hello token")?)
                } else {
                    None
                },
            },
            1 => Message::HelloAck {
                session: r.u64("HelloAck session")?,
                key_space: r.u64("HelloAck key_space")?,
            },
            2 => Message::Call {
                seq: r.u64("Call seq")?,
                deadline_ms: r.u32("Call deadline_ms")?,
                idempotency: r.u64("Call idempotency")?,
                trace: if r.bool("Call trace flag")? {
                    Some(SpanContext {
                        trace: TraceId(r.u64("Call trace id")?),
                        span: SpanId(r.u64("Call span id")?),
                    })
                } else {
                    None
                },
                request: decode_request(&mut r)?,
            },
            3 => Message::Reply {
                seq: r.u64("Reply seq")?,
                usage: if r.bool("Reply usage flag")? {
                    Some(decode_usage(&mut r)?)
                } else {
                    None
                },
                response: decode_response(&mut r)?,
            },
            4 => Message::Goodbye {
                reason: r.str("Goodbye reason")?,
            },
            5 => Message::AuthFailed {
                reason: r.str("AuthFailed reason")?,
            },
            tag => {
                return Err(WireError::UnknownTag {
                    context: "Message",
                    tag,
                })
            }
        };
        if r.remaining() > 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(msg)
    }

    /// Encode the message as a complete frame: header (magic, length,
    /// body CRC-32) + body.
    pub fn to_frame(&self) -> Vec<u8> {
        let body = self.encode();
        let mut frame = Vec::with_capacity(HEADER_LEN + body.len());
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        frame
    }
}

/// Parse a frame header. Returns the declared body length and CRC-32
/// after validating magic and the [`MAX_FRAME_LEN`] cap — the caller
/// must not buffer any body byte before this check passes, and must
/// confirm the received body with [`verify_body`] before decoding it.
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u32, u32), WireError> {
    let magic = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    let crc = u32::from_le_bytes(header[8..].try_into().expect("4 bytes"));
    Ok((len, crc))
}

/// Check a received body against the checksum its header declared.
pub fn verify_body(declared: u32, body: &[u8]) -> Result<(), WireError> {
    let actual = crc32(body);
    if actual != declared {
        return Err(WireError::ChecksumMismatch { declared, actual });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let frame = msg.to_frame();
        let (len, crc) = parse_header(frame[..HEADER_LEN].try_into().unwrap()).unwrap();
        assert_eq!(len as usize, frame.len() - HEADER_LEN);
        verify_body(crc, &frame[HEADER_LEN..]).unwrap();
        assert_eq!(Message::decode(&frame[HEADER_LEN..]).unwrap(), msg);
    }

    #[test]
    fn handshake_and_control_roundtrip() {
        roundtrip(Message::Hello {
            protocol: PROTOCOL_VERSION,
            tenant: "acme/ci".into(),
            token: None,
        });
        roundtrip(Message::Hello {
            protocol: PROTOCOL_VERSION,
            tenant: "acme/ci".into(),
            token: Some("s3cret".into()),
        });
        roundtrip(Message::HelloAck {
            session: 42,
            key_space: 42,
        });
        roundtrip(Message::Goodbye {
            reason: "drain".into(),
        });
        roundtrip(Message::AuthFailed {
            reason: "token mismatch".into(),
        });
    }

    #[test]
    fn every_request_variant_roundtrips() {
        for request in [
            Request::ClusterTrial {
                trial_id: -7,
                features: FeatureSpace::EventsOfMetric("TIME".into()),
                k: Some(3),
                max_k: 8,
                pca_components: 2,
                method: ClusterMethod::Hierarchical,
            },
            Request::CorrelateMetrics {
                trial_id: 1,
                event: "main".into(),
            },
            Request::FetchResult { settings_id: 9 },
            Request::SpeedupStudy {
                experiment_id: 2,
                metric: "TIME".into(),
            },
            Request::RegressionScan {
                experiment_id: 3,
                threshold: 0.1,
            },
            Request::WatchdogCheck {
                experiment_id: 4,
                trial_id: 5,
                metric: "TIME".into(),
                min_ratio: 1.25,
            },
            Request::Ping,
            Request::Shutdown,
            Request::InjectPanic("boom".into()),
            Request::Stall { millis: 10 },
        ] {
            roundtrip(Message::Call {
                seq: 1,
                deadline_ms: 250,
                idempotency: 0xDEAD_BEEF,
                trace: None,
                request: request.clone(),
            });
            roundtrip(Message::Call {
                seq: 1,
                deadline_ms: 250,
                idempotency: 0xDEAD_BEEF,
                trace: Some(SpanContext {
                    trace: TraceId(0x0123_4567_89AB_CDEF),
                    span: SpanId(0xFEDC_BA98_7654_3210),
                }),
                request,
            });
        }
    }

    // The one layout per tag (see the module docs) is built by hand in
    // the next two tests, so the bytes are checked against the spec,
    // not against the codec.
    #[test]
    fn hello_layout_is_pinned_byte_for_byte() {
        let hello = Message::Hello {
            protocol: 5,
            tenant: "acme".into(),
            token: Some("s3".into()),
        };
        let mut bytes = vec![0u8];
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(b"acme");
        bytes.push(1); // token flag
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(b"s3");
        assert_eq!(hello.encode(), bytes);
        // A flag byte other than 0/1 is a typed error, not a guess.
        let flag = bytes.len() - 7;
        bytes[flag] = 2;
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::UnknownTag {
                context: "Hello token flag",
                tag: 2,
            })
        );
    }

    #[test]
    fn call_and_reply_layout_is_pinned_byte_for_byte() {
        let call = Message::Call {
            seq: 0x0102_0304_0506_0708,
            deadline_ms: 250,
            idempotency: 0xAA,
            trace: Some(SpanContext {
                trace: TraceId(0x11),
                span: SpanId(0x22),
            }),
            request: Request::Ping,
        };
        let mut bytes = vec![2u8];
        bytes.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        bytes.extend_from_slice(&250u32.to_le_bytes());
        bytes.extend_from_slice(&0xAAu64.to_le_bytes());
        bytes.push(1); // trace flag
        assert_eq!(bytes.len(), 22, "trace ids start at byte 22");
        bytes.extend_from_slice(&0x11u64.to_le_bytes());
        bytes.extend_from_slice(&0x22u64.to_le_bytes());
        bytes.push(6); // Request::Ping
        assert_eq!(call.encode(), bytes);

        let reply = Message::Reply {
            seq: 7,
            usage: Some(ResourceUsage {
                rows_scanned: 1,
                chunk_hits: 2,
                chunk_misses: 3,
                pool_tasks: 4,
                wal_bytes: 5,
                queue_wait_ns: 6,
                execute_ns: 7,
            }),
            response: Response::Pong,
        };
        let mut bytes = vec![3u8];
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.push(1); // usage flag
        for field in 1u64..=7 {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        bytes.push(6); // Response::Pong
        assert_eq!(reply.encode(), bytes);
    }

    #[test]
    fn reply_usage_roundtrips() {
        let usage = ResourceUsage {
            rows_scanned: 1,
            chunk_hits: 2,
            chunk_misses: 3,
            pool_tasks: 4,
            wal_bytes: 5,
            queue_wait_ns: 6,
            execute_ns: 7,
        };
        roundtrip(Message::Reply {
            seq: 7,
            usage: Some(usage),
            response: Response::Pong,
        });
        roundtrip(Message::Reply {
            seq: 7,
            usage: None,
            response: Response::Pong,
        });
    }

    #[test]
    fn every_response_variant_roundtrips() {
        for response in [
            Response::Clustering {
                settings_id: 1,
                k: 2,
                assignments: vec![0, 1, 1],
                summaries: vec![ClusterSummary {
                    cluster: 0,
                    size: 1,
                    centroid: vec![1.0, -2.5],
                }],
                silhouette: 0.8,
                columns: vec!["a".into(), "b".into()],
            },
            Response::Correlation {
                settings_id: 2,
                metrics: vec!["A".into()],
                matrix: vec![vec![1.0]],
            },
            Response::Speedup {
                application: vec![(8, 6.0, 0.75)],
                amdahl_serial_fraction: Some(0.05),
                routines: vec![("f".into(), 8, 1.0, 2.0, 3.0)],
            },
            Response::Regressions {
                findings: vec![(1, 2, "e".into(), "TIME".into(), 0.5)],
                pairs_compared: 1,
            },
            Response::Watchdog {
                baseline_trials: 4,
                findings: vec![("hot".into(), 20.0, 40.0, 2.0)],
            },
            Response::Stored {
                method: "kmeans".into(),
                rows: vec![("assignment".into(), 0, 1.0, "0.0.0".into())],
            },
            Response::Pong,
            Response::Error("nope".into()),
            Response::Overloaded,
            Response::Failed {
                reason: "deadline".into(),
                retryable: true,
            },
            Response::ShuttingDown,
        ] {
            roundtrip(Message::Reply {
                seq: 7,
                usage: None,
                response,
            });
        }
    }

    #[test]
    fn nan_silhouette_survives_bit_exactly() {
        let msg = Message::Reply {
            seq: 1,
            usage: None,
            response: Response::Clustering {
                settings_id: 1,
                k: 1,
                assignments: vec![],
                summaries: vec![],
                silhouette: f64::NAN,
                columns: vec![],
            },
        };
        match Message::decode(&msg.encode()).unwrap() {
            Message::Reply {
                response: Response::Clustering { silhouette, .. },
                ..
            } => assert_eq!(silhouette.to_bits(), f64::NAN.to_bits()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn header_rejects_bad_magic_and_oversized_frames() {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&0x6261_6421u32.to_le_bytes());
        assert_eq!(parse_header(&header), Err(WireError::BadMagic(0x6261_6421)));
        header[..4].copy_from_slice(&MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            parse_header(&header),
            Err(WireError::Oversized(MAX_FRAME_LEN + 1))
        );
        header[4..8].copy_from_slice(&0u32.to_le_bytes());
        header[8..].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(parse_header(&header), Ok((0, 7)));
    }

    #[test]
    fn any_single_bit_flip_in_the_body_fails_the_checksum() {
        let frame = Message::Call {
            seq: 9,
            deadline_ms: 100,
            idempotency: 0xAB_0001,
            trace: Some(SpanContext {
                trace: TraceId(0xD00D_F00D),
                span: SpanId(0xBEEF),
            }),
            request: Request::Ping,
        }
        .to_frame();
        let (_, crc) = parse_header(frame[..HEADER_LEN].try_into().unwrap()).unwrap();
        let body = &frame[HEADER_LEN..];
        verify_body(crc, body).unwrap();
        for pos in 0..body.len() {
            for bit in 0..8 {
                let mut corrupted = body.to_vec();
                corrupted[pos] ^= 1 << bit;
                assert!(
                    matches!(
                        verify_body(crc, &corrupted),
                        Err(WireError::ChecksumMismatch { .. })
                    ),
                    "flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_yields_typed_errors_never_panics() {
        let full = Message::Call {
            seq: 3,
            deadline_ms: 100,
            idempotency: 77,
            trace: Some(SpanContext {
                trace: TraceId(0x11),
                span: SpanId(0x22),
            }),
            request: Request::SpeedupStudy {
                experiment_id: 2,
                metric: "TIME".into(),
            },
        }
        .encode();
        for cut in 0..full.len() {
            let err = Message::decode(&full[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. } | WireError::BadLength { .. }
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn forged_length_is_rejected_before_allocation() {
        // A Reply/Clustering body whose assignments count claims 2^32-1
        // elements with no bytes behind it: must fail fast with
        // BadLength, not attempt a 32 GiB Vec.
        let mut body = vec![3u8]; // Message::Reply
        body.extend_from_slice(&7u64.to_le_bytes()); // seq
        body.push(0); // no usage
        body.push(0); // Response::Clustering
        body.extend_from_slice(&1i64.to_le_bytes()); // settings_id
        body.extend_from_slice(&2u64.to_le_bytes()); // k
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // assignments len
        assert_eq!(
            Message::decode(&body),
            Err(WireError::BadLength {
                context: "Clustering assignments",
                declared: u32::MAX,
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Message::HelloAck {
            session: 1,
            key_space: 1,
        }
        .encode();
        body.push(0xFF);
        assert_eq!(Message::decode(&body), Err(WireError::TrailingBytes(1)));
    }
}
