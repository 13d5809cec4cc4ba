//! The length-prefixed binary wire protocol.
//!
//! Every frame on the wire is `magic(u32) | len(u32) | crc(u32) |
//! body`, little endian, where `body` encodes one [`Message`] and `crc`
//! is the CRC-32 (IEEE) of the body. The body is a tagged tree: one
//! `u8` tag per enum variant, `u64`/`i64`/`u32` little-endian integers,
//! `f64` as IEEE bits, strings and vectors as `u32` length + elements.
//!
//! Each layout is written once, as one line per variant or struct in
//! the codec table (the `wire!` invocations below): the tag, the
//! variant and its fields in order. Both directions and the allocation
//! bound of every collection are generated from that line, so a field
//! cannot be added on one side only.
//!
//! Encoding is **bounded**: [`Message::frame`] refuses a body longer
//! than [`MAX_FRAME_LEN`] with [`WireError::Oversized`] instead of
//! sending a frame the peer would reject, so the cap holds in both
//! directions.
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
//! | 0   | `Hello`      | protocol, tenant, flag, \[token\]                           |
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
/// frame sync and should be closed. The one exception is `Oversized`
/// from [`Message::frame`], which refuses to encode and sends nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame header carried the wrong magic — the peer is not
    /// speaking this protocol (or the stream lost sync).
    BadMagic(u32),
    /// The frame length exceeds [`MAX_FRAME_LEN`]: declared by a
    /// received header, or measured on an encoded body before sending
    /// (saturated at `u32::MAX`).
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
// The codec: one trait, implemented once per layout
// ---------------------------------------------------------------------

/// A cursor over one frame body. Every read goes through
/// [`Reader::take`], so running out of bytes is always a typed
/// `Truncated`, and every collection count through [`Reader::len`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
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

    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], WireError> {
        Ok(self.take(N, context)?.try_into().expect("N bytes"))
    }

    /// A bool or presence flag: 0 or 1, any other byte is a typed
    /// `UnknownTag` rather than a guess.
    fn flag(&mut self, context: &'static str) -> Result<bool, WireError> {
        match self.take(1, context)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag { context, tag }),
        }
    }

    /// Declared element count of a collection of `T`, pre-checked so
    /// `count * T::MIN` never exceeds the bytes actually present — the
    /// allocation bound.
    fn len<T: Wire>(&mut self, context: &'static str) -> Result<usize, WireError> {
        let declared = u32::from_le_bytes(self.array(context)?);
        let need = (declared as usize).saturating_mul(T::MIN.max(1));
        if need > self.remaining() {
            return Err(WireError::BadLength { context, declared });
        }
        Ok(declared as usize)
    }
}

/// What a decode error names: `what` for the value itself, `flag` for
/// an `Option`'s presence byte (`"Hello token"`, `"Hello token flag"`).
#[derive(Clone, Copy)]
struct Ctx {
    what: &'static str,
    flag: &'static str,
}

/// The context of field `$field` of `$owner` (a struct or variant).
macro_rules! ctx {
    ($owner:ident $field:ident) => {
        Ctx {
            what: concat!(stringify!($owner), " ", stringify!($field)),
            flag: concat!(stringify!($owner), " ", stringify!($field), " flag"),
        }
    };
}

/// One layout, both directions. `put` appends the encoding; `take`
/// reads it back, naming `ctx` in any error; `MIN` is the fewest bytes
/// an encoding can occupy, which bounds what a declared collection
/// count may allocate. Counts are written as `u32`; a count that does
/// not fit comes only with a body far over [`MAX_FRAME_LEN`], which
/// [`Message::frame`] refuses to send.
trait Wire: Sized {
    const MIN: usize;
    fn put(&self, buf: &mut Vec<u8>);
    fn take(r: &mut Reader, ctx: Ctx) -> Result<Self, WireError>;
}

macro_rules! wire_int {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            const MIN: usize = std::mem::size_of::<$int>();
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn take(r: &mut Reader, ctx: Ctx) -> Result<Self, WireError> {
                Ok(<$int>::from_le_bytes(r.array(ctx.what)?))
            }
        }
    )*};
}

wire_int!(u8, u32, u64, i64);

/// Types that travel as one `u64`: `usize`, `f64` (IEEE bits) and the
/// trace ids.
macro_rules! wire_as_u64 {
    ($($ty:ty: |$v:ident| $to:expr, |$w:ident| $from:expr;)*) => {$(
        impl Wire for $ty {
            const MIN: usize = 8;
            fn put(&self, buf: &mut Vec<u8>) {
                let $v = *self;
                u64::put(&$to, buf);
            }
            fn take(r: &mut Reader, ctx: Ctx) -> Result<Self, WireError> {
                let $w = u64::take(r, ctx)?;
                Ok($from)
            }
        }
    )*};
}

wire_as_u64! {
    usize: |v| v as u64, |w| w as usize;
    f64: |v| v.to_bits(), |w| f64::from_bits(w);
    TraceId: |v| v.0, |w| TraceId(w);
    SpanId: |v| v.0, |w| SpanId(w);
}

impl Wire for bool {
    const MIN: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn take(r: &mut Reader, ctx: Ctx) -> Result<Self, WireError> {
        r.flag(ctx.what)
    }
}

impl Wire for String {
    const MIN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn take(r: &mut Reader, ctx: Ctx) -> Result<Self, WireError> {
        let n = r.len::<u8>(ctx.what)?;
        let bytes = r.take(n, ctx.what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(self.is_some() as u8);
        if let Some(v) = self {
            v.put(buf);
        }
    }
    fn take(r: &mut Reader, ctx: Ctx) -> Result<Self, WireError> {
        Ok(if r.flag(ctx.flag)? {
            Some(T::take(r, ctx)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for v in self {
            v.put(buf);
        }
    }
    fn take(r: &mut Reader, ctx: Ctx) -> Result<Self, WireError> {
        let n = r.len::<T>(ctx.what)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::take(r, ctx)?);
        }
        Ok(v)
    }
}

/// Tuple elements are unnamed: each reports its collection's context.
macro_rules! wire_tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN: usize = 0 $(+ $t::MIN)+;
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$i.put(buf);)+
            }
            fn take(r: &mut Reader, ctx: Ctx) -> Result<Self, WireError> {
                Ok(($($t::take(r, ctx)?,)+))
            }
        }
    };
}

wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);
wire_tuple!(A 0, B 1, C 2, D 3);
wire_tuple!(A 0, B 1, C 2, D 3, E 4);

/// The codec table. A struct is its fields in order. An enum is a `u8`
/// tag, written explicitly per variant, then that variant's fields in
/// order; a variant is a unit, a tuple with named positions, or a
/// struct. `put`, `take` and `MIN` are all generated from the one
/// entry, and each field decodes under the context `"Owner field"`.
macro_rules! wire {
    (struct $ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        impl Wire for $ty {
            const MIN: usize = 0 $(+ <$fty as Wire>::MIN)*;
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$field.put(buf);)*
            }
            fn take(r: &mut Reader, _: Ctx) -> Result<Self, WireError> {
                Ok($ty { $($field: <$fty as Wire>::take(r, ctx!($ty $field))?),* })
            }
        }
    };
    (enum $ty:ident { $($tag:literal => $variant:ident
        $(($($pos:ident: $pty:ty),*))?
        $({$($field:ident: $fty:ty),* $(,)?})?),* $(,)? }) => {
        impl Wire for $ty {
            const MIN: usize = 1 + {
                let mut min = usize::MAX;
                $(
                    let body = 0 $($(+ <$pty as Wire>::MIN)*)? $($(+ <$fty as Wire>::MIN)*)?;
                    if body < min {
                        min = body;
                    }
                )*
                min
            };
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(($($pos),*))? $({$($field),*})? => {
                        buf.push($tag);
                        $($($pos.put(buf);)*)?
                        $($($field.put(buf);)*)?
                    })*
                }
            }
            fn take(r: &mut Reader, _: Ctx) -> Result<Self, WireError> {
                Ok(match r.take(1, stringify!($ty))?[0] {
                    $($tag => $ty::$variant
                        $(($(<$pty as Wire>::take(r, ctx!($variant $pos))?),*))?
                        $({$($field: <$fty as Wire>::take(r, ctx!($variant $field))?),*})?,)*
                    tag => return Err(WireError::UnknownTag { context: stringify!($ty), tag }),
                })
            }
        }
    };
}

wire! { enum Message {
    0 => Hello { protocol: u32, tenant: String, token: Option<String> },
    1 => HelloAck { session: u64, key_space: u64 },
    2 => Call {
        seq: u64,
        deadline_ms: u32,
        idempotency: u64,
        trace: Option<SpanContext>,
        request: Request
    },
    3 => Reply { seq: u64, usage: Option<ResourceUsage>, response: Response },
    4 => Goodbye { reason: String },
    5 => AuthFailed { reason: String },
}}

wire! { enum Request {
    0 => ClusterTrial {
        trial_id: i64,
        features: FeatureSpace,
        k: Option<usize>,
        max_k: usize,
        pca_components: usize,
        method: ClusterMethod
    },
    1 => CorrelateMetrics { trial_id: i64, event: String },
    2 => FetchResult { settings_id: i64 },
    3 => SpeedupStudy { experiment_id: i64, metric: String },
    4 => RegressionScan { experiment_id: i64, threshold: f64 },
    5 => WatchdogCheck { experiment_id: i64, trial_id: i64, metric: String, min_ratio: f64 },
    6 => Ping,
    7 => Shutdown,
    8 => InjectPanic(message: String),
    9 => Stall { millis: u64 },
}}

wire! { enum Response {
    0 => Clustering {
        settings_id: i64,
        k: usize,
        assignments: Vec<usize>,
        summaries: Vec<ClusterSummary>,
        silhouette: f64,
        columns: Vec<String>
    },
    1 => Correlation { settings_id: i64, metrics: Vec<String>, matrix: Vec<Vec<f64>> },
    2 => Speedup {
        application: Vec<(usize, f64, f64)>,
        amdahl_serial_fraction: Option<f64>,
        routines: Vec<(String, usize, f64, f64, f64)>
    },
    3 => Regressions { findings: Vec<(i64, i64, String, String, f64)>, pairs_compared: usize },
    4 => Watchdog { baseline_trials: usize, findings: Vec<(String, f64, f64, f64)> },
    5 => Stored { method: String, rows: Vec<(String, i64, f64, String)> },
    6 => Pong,
    7 => Error(message: String),
    8 => Overloaded,
    9 => Failed { reason: String, retryable: bool },
    10 => ShuttingDown,
}}

wire! { enum FeatureSpace {
    0 => EventsOfMetric(metric: String),
    1 => MetricsOfEvent(event: String),
}}

wire! { enum ClusterMethod {
    0 => KMeans,
    1 => Hierarchical,
}}

wire! { struct ClusterSummary { cluster: usize, size: usize, centroid: Vec<f64> } }

wire! { struct ResourceUsage {
    rows_scanned: u64,
    chunk_hits: u64,
    chunk_misses: u64,
    pool_tasks: u64,
    wal_bytes: u64,
    queue_wait_ns: u64,
    execute_ns: u64,
}}

wire! { struct SpanContext { trace: TraceId, span: SpanId } }

impl Message {
    /// Encode the message body (without the frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.put(&mut buf);
        buf
    }

    /// Decode a message body. Total: every input yields a value or a
    /// typed error, and trailing bytes are rejected.
    pub fn decode(body: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader { buf: body, pos: 0 };
        let msg = Message::take(&mut r, ctx!(Message body))?;
        if r.remaining() > 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(msg)
    }

    /// Encode the message as a complete frame: header (magic, length,
    /// body CRC-32) + body. Bounded: a body over [`MAX_FRAME_LEN`] is
    /// refused as [`WireError::Oversized`], because the peer's
    /// [`parse_header`] would reject it and drop the connection.
    pub fn frame(&self) -> Result<Vec<u8>, WireError> {
        let mut frame = vec![0; HEADER_LEN];
        self.put(&mut frame);
        let len = frame.len() - HEADER_LEN;
        if len > MAX_FRAME_LEN as usize {
            return Err(WireError::Oversized(u32::try_from(len).unwrap_or(u32::MAX)));
        }
        let crc = crc32(&frame[HEADER_LEN..]);
        frame[..4].copy_from_slice(&MAGIC.to_le_bytes());
        frame[4..8].copy_from_slice(&(len as u32).to_le_bytes());
        frame[8..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        Ok(frame)
    }

    /// [`Message::frame`] for a message that cannot reach the cap: the
    /// handshake, `Goodbye`, and replies the server already bounded.
    /// Panics on an over-cap message.
    pub fn to_frame(&self) -> Vec<u8> {
        self.frame().expect("message within MAX_FRAME_LEN")
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
        // Reply bodies whose innermost collection count claims 2^32-1
        // elements with no bytes behind it: each must fail fast with
        // BadLength, not attempt a multi-gigabyte Vec. One count per
        // shape: a flat collection, a tuple collection, and one nested
        // inside a struct inside a collection.
        let reply = |tag: u8| {
            let mut body = vec![3u8]; // Message::Reply
            body.extend_from_slice(&7u64.to_le_bytes()); // seq
            body.push(0); // no usage
            body.push(tag);
            body
        };
        let mut assignments = reply(0); // Response::Clustering
        assignments.extend_from_slice(&1i64.to_le_bytes()); // settings_id
        assignments.extend_from_slice(&2u64.to_le_bytes()); // k
        let mut centroid = assignments.clone();
        assignments.extend_from_slice(&u32::MAX.to_le_bytes()); // assignments len
        centroid.extend_from_slice(&0u32.to_le_bytes()); // no assignments
        centroid.extend_from_slice(&1u32.to_le_bytes()); // one summary
        centroid.extend_from_slice(&0u64.to_le_bytes()); // cluster
        centroid.extend_from_slice(&1u64.to_le_bytes()); // size
        centroid.extend_from_slice(&u32::MAX.to_le_bytes()); // centroid len
        centroid.extend_from_slice(&[0u8; 16]); // silhouette, no columns
        let mut routines = reply(2); // Response::Speedup
        routines.extend_from_slice(&0u32.to_le_bytes()); // no application
        routines.push(0); // no amdahl fraction
        routines.extend_from_slice(&u32::MAX.to_le_bytes()); // routines len
        routines.extend_from_slice(&[0u8; 35]); // less than one routine
        for (body, context) in [
            (assignments, "Clustering assignments"),
            (centroid, "ClusterSummary centroid"),
            (routines, "Speedup routines"),
        ] {
            assert_eq!(
                Message::decode(&body),
                Err(WireError::BadLength {
                    context,
                    declared: u32::MAX,
                })
            );
        }
    }

    #[test]
    fn derived_minimums_match_the_allocation_bounds() {
        // The bound each collection had when it was written by hand.
        for (collection, derived, bound) in [
            ("Clustering assignments", <usize as Wire>::MIN, 8),
            ("Clustering summaries", ClusterSummary::MIN, 20),
            ("ClusterSummary centroid", <f64 as Wire>::MIN, 8),
            ("Clustering columns", <String as Wire>::MIN, 4),
            ("Correlation metrics", <String as Wire>::MIN, 4),
            ("Correlation matrix", <Vec<f64> as Wire>::MIN, 4),
            ("Correlation matrix row", <f64 as Wire>::MIN, 8),
            ("Speedup application", <(usize, f64, f64)>::MIN, 24),
            (
                "Speedup routines",
                <(String, usize, f64, f64, f64)>::MIN,
                36,
            ),
            (
                "Regressions findings",
                <(i64, i64, String, String, f64)>::MIN,
                32,
            ),
            ("Watchdog findings", <(String, f64, f64, f64)>::MIN, 28),
            ("Stored rows", <(String, i64, f64, String)>::MIN, 24),
        ] {
            assert_eq!(derived, bound, "{collection}");
        }
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
