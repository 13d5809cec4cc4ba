//! Byte-stream seam: the transport analogue of the storage layer's
//! `Vfs` trait.
//!
//! All wire I/O goes through [`Stream`] — [`RealStream`] forwards to a
//! `TcpStream`, while [`FaultStream`] wraps another stream and injects
//! seed-deterministic network faults (delays, partial reads and writes,
//! mid-frame disconnects, corrupted bytes, stalls) per a
//! [`NetFaultPlan`]. The same Real/Fault split that lets the
//! crash-consistency harness enumerate disk failures lets the chaos
//! harness enumerate network failures: a given `(plan, workload)` pair
//! always tears the connection at the same byte.
//!
//! On top of the seam sit the byte movers both ends of a connection
//! share: [`write_all`] (blocking), `write_available` (the event
//! loop's nonblocking write) and `FrameReader`, the one incremental
//! frame reader.

use crate::wire::{parse_header, verify_body, WireError, HEADER_LEN};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The byte-stream operations the wire layer needs. Deliberately
/// narrow — read, write, flush, half-close, and a read timeout — so a
/// fault injector can meter every interaction with the peer.
pub trait Stream: Send {
    /// Read up to `buf.len()` bytes; `Ok(0)` means end of stream.
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize>;
    /// Write up to `buf.len()` bytes, returning how many were accepted.
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize>;
    /// Flush buffered writes toward the peer.
    fn flush(&mut self) -> std::io::Result<()>;
    /// Best-effort close of both directions; errors are ignored (the
    /// peer may already be gone).
    fn shutdown(&mut self);
    /// Bound how long a single `read` may block (`None` = forever).
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;
}

/// The production [`Stream`]: a plain `TcpStream` with `TCP_NODELAY`
/// (frames are small and latency-sensitive; Nagle only hurts).
pub struct RealStream(TcpStream);

impl RealStream {
    /// Wrap a connected socket.
    pub fn new(socket: TcpStream) -> RealStream {
        let _ = socket.set_nodelay(true);
        RealStream(socket)
    }
}

impl Stream for RealStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }

    fn shutdown(&mut self) {
        let _ = self.0.shutdown(std::net::Shutdown::Both);
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.0.set_read_timeout(timeout)
    }
}

/// Deterministic schedule of network faults for one [`FaultStream`].
///
/// All randomness derives from `seed` via SplitMix64, keyed by the
/// stream's operation counter, so a failing schedule replays exactly.
/// The default plan injects nothing.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    /// Seed for every per-operation draw.
    pub seed: u64,
    /// Cap each read to a seeded chunk of `1..=n` bytes (models a slow
    /// or fragmenting network: the frame layer must reassemble).
    pub max_read: Option<usize>,
    /// Cap each write to a seeded chunk of `1..=n` bytes (models
    /// partial writes: a disconnect mid-frame leaves the peer a torn
    /// frame).
    pub max_write: Option<usize>,
    /// Sleep a seeded `0..=n` milliseconds before each operation
    /// (models latency and reordering pressure).
    pub delay_ms: Option<u64>,
    /// Hard-disconnect after this many total bytes have crossed the
    /// stream (reads + writes). Everything after fails with
    /// `ConnectionReset` — mid-frame if the budget lands there.
    pub disconnect_after_bytes: Option<u64>,
    /// Flip one seeded bit in roughly 1-in-`n` writes (models
    /// corruption in flight; the receiver must reject the frame, not
    /// crash).
    pub corrupt_one_in: Option<u64>,
    /// Stall (sleep) this many milliseconds once, at the stream's Nth
    /// operation (models a peer that freezes mid-conversation).
    pub stall: Option<(u64, u64)>,
}

impl NetFaultPlan {
    /// A plan with the given seed and no faults armed.
    pub fn seeded(seed: u64) -> NetFaultPlan {
        NetFaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Builder: fragment reads and writes into chunks of at most `n`.
    pub fn partial_io(mut self, n: usize) -> Self {
        self.max_read = Some(n.max(1));
        self.max_write = Some(n.max(1));
        self
    }

    /// Builder: delay each operation by up to `ms` milliseconds.
    pub fn delays(mut self, ms: u64) -> Self {
        self.delay_ms = Some(ms);
        self
    }

    /// Builder: disconnect after `n` total bytes.
    pub fn disconnect_after(mut self, n: u64) -> Self {
        self.disconnect_after_bytes = Some(n);
        self
    }

    /// Builder: corrupt roughly one write in `n`.
    pub fn corrupt_one_in(mut self, n: u64) -> Self {
        self.corrupt_one_in = Some(n.max(1));
        self
    }

    /// Builder: stall for `ms` milliseconds at operation `op`.
    pub fn stall_at(mut self, op: u64, ms: u64) -> Self {
        self.stall = Some((op, ms));
        self
    }
}

/// A [`Stream`] that injects deterministic faults per a
/// [`NetFaultPlan`]. Wraps any inner stream (usually a [`RealStream`];
/// tests also stack it over in-memory pipes).
pub struct FaultStream {
    inner: Box<dyn Stream>,
    plan: NetFaultPlan,
    ops: u64,
    bytes: u64,
    disconnected: bool,
}

impl FaultStream {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: Box<dyn Stream>, plan: NetFaultPlan) -> FaultStream {
        FaultStream {
            inner,
            plan,
            ops: 0,
            bytes: 0,
            disconnected: false,
        }
    }

    /// Total operations metered so far.
    pub fn ops_performed(&self) -> u64 {
        self.ops
    }

    /// Did the disconnect budget fire?
    #[cfg(test)]
    pub(crate) fn disconnected(&self) -> bool {
        self.disconnected
    }

    /// One SplitMix64 draw for the current operation.
    fn draw(&self, salt: u64) -> u64 {
        let state = self.plan.seed ^ self.ops.wrapping_mul(0x517C_C1B7_2722_0A95) ^ salt;
        perfdmf_telemetry::mix64(state.wrapping_add(perfdmf_telemetry::GOLDEN_GAMMA))
    }

    /// Meter one operation: apply delays/stalls, check the disconnect
    /// budget. Returns `Err` once the stream is torn down.
    fn gate(&mut self) -> std::io::Result<()> {
        let op = self.ops;
        self.ops += 1;
        if self.disconnected {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected fault: post-disconnect operation",
            ));
        }
        if let Some((stall_op, ms)) = self.plan.stall {
            if op == stall_op {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        if let Some(max_ms) = self.plan.delay_ms {
            if max_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.draw(1) % (max_ms + 1)));
            }
        }
        if let Some(budget) = self.plan.disconnect_after_bytes {
            if self.bytes >= budget {
                self.disconnected = true;
                self.inner.shutdown();
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "injected fault: disconnect budget exhausted",
                ));
            }
        }
        Ok(())
    }
}

impl Stream for FaultStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.gate()?;
        let cap = self
            .plan
            .max_read
            .map(|n| 1 + (self.draw(2) as usize) % n)
            .unwrap_or(buf.len())
            .min(buf.len())
            .max(1.min(buf.len()));
        let n = self.inner.read(&mut buf[..cap])?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.gate()?;
        let cap = self
            .plan
            .max_write
            .map(|n| 1 + (self.draw(3) as usize) % n)
            .unwrap_or(buf.len())
            .min(buf.len())
            .max(1.min(buf.len()));
        // Respect the disconnect budget mid-write: never let more bytes
        // through than remain, so the tear lands exactly on the byte.
        let cap = match self.plan.disconnect_after_bytes {
            Some(budget) => cap.min((budget - self.bytes) as usize).max(1),
            None => cap,
        };
        let chunk = &buf[..cap];
        let n = if self
            .plan
            .corrupt_one_in
            .is_some_and(|n| self.draw(4).is_multiple_of(n) && !chunk.is_empty())
        {
            let mut corrupted = chunk.to_vec();
            let r = self.draw(5);
            let pos = (r as usize) % corrupted.len();
            corrupted[pos] ^= 1 << ((r >> 32) % 8);
            self.inner.write(&corrupted)?
        } else {
            self.inner.write(chunk)?
        };
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.disconnected {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected fault: flush after disconnect",
            ));
        }
        self.inner.flush()
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
}

/// Write the whole buffer through partial-write-returning streams.
pub fn write_all(stream: &mut dyn Stream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "stream accepted no bytes",
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// Drain as much of `buf` as the stream will take *right now*, removing
/// the written prefix from the front. Returns `true` when the buffer
/// emptied (and the stream was flushed), `false` when the stream
/// reported `WouldBlock` with bytes still pending — the event-loop
/// executor's write path: park the remainder and retry on writability.
/// `Ok(0)` from a would-block-capable stream is treated as `WriteZero`
/// like [`write_all`] does.
pub(crate) fn write_available(stream: &mut dyn Stream, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut written = 0;
    let done = loop {
        if written == buf.len() {
            break true;
        }
        match stream.write(&buf[written..]) {
            Ok(0) => {
                buf.drain(..written);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "stream accepted no bytes",
                ));
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
            Err(e) => {
                buf.drain(..written);
                return Err(e);
            }
        }
    };
    buf.drain(..written);
    if done {
        stream.flush()?;
    }
    Ok(done)
}

/// Incremental frame reassembly: the one reader both ends of the
/// connection use. Validates each header (magic, [`MAX_FRAME_LEN`])
/// before buffering any body byte, and each body against its CRC-32.
///
/// [`MAX_FRAME_LEN`]: crate::wire::MAX_FRAME_LEN
pub(crate) struct FrameReader {
    header: [u8; HEADER_LEN],
    filled: usize,
    crc: u32,
    body: Option<(Vec<u8>, usize)>,
}

/// What one [`FrameReader::step`] produced.
pub(crate) enum ReadStep {
    /// A complete frame body, already length- and checksum-checked.
    Frame(Vec<u8>),
    /// No complete frame buffered and the socket would block.
    Blocked,
    /// The peer closed cleanly between frames.
    Eof,
    /// The peer closed mid-frame (a torn frame).
    TornEof,
    /// The frame failed validation (bad magic / oversized / checksum).
    Wire(WireError),
    /// The transport failed (reset, ...).
    Io(std::io::Error),
}

impl FrameReader {
    pub(crate) fn new() -> FrameReader {
        FrameReader {
            header: [0u8; HEADER_LEN],
            filled: 0,
            crc: 0,
            body: None,
        }
    }

    /// Pull bytes until a complete frame, `WouldBlock` (or a read
    /// timeout), or failure. Sets `*progressed` whenever any bytes
    /// arrived, so the caller can reset its idle clock.
    pub(crate) fn step(&mut self, stream: &mut dyn Stream, progressed: &mut bool) -> ReadStep {
        loop {
            let target: &mut [u8] = match &mut self.body {
                None => &mut self.header[self.filled..],
                Some((buf, at)) => &mut buf[*at..],
            };
            let n = match stream.read(target) {
                Ok(0) if self.filled > 0 || self.body.is_some() => return ReadStep::TornEof,
                Ok(0) => return ReadStep::Eof,
                Ok(n) => n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return ReadStep::Blocked
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return ReadStep::Io(e),
            };
            *progressed = true;
            match &mut self.body {
                None => {
                    self.filled += n;
                    if self.filled < HEADER_LEN {
                        continue;
                    }
                    self.filled = 0;
                    match parse_header(&self.header) {
                        Ok((len, crc)) => {
                            self.crc = crc;
                            self.body = Some((vec![0u8; len as usize], 0));
                        }
                        Err(e) => return ReadStep::Wire(e),
                    }
                }
                Some((_, at)) => *at += n,
            }
            if let Some((buf, at)) = &self.body {
                if *at == buf.len() {
                    let (buf, _) = self.body.take().expect("body present");
                    return match verify_body(self.crc, &buf) {
                        Ok(()) => ReadStep::Frame(buf),
                        Err(e) => ReadStep::Wire(e),
                    };
                }
            }
        }
    }
}

/// Fill the whole buffer through partial-read-returning streams.
/// `Ok(false)` reports a clean end-of-stream **before the first byte**;
/// EOF mid-buffer is an `UnexpectedEof` error (a torn frame).
pub fn read_exact(stream: &mut dyn Stream, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "stream ended mid-frame",
                    ))
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// In-memory half-duplex pipe for exercising the fault layer
    /// without sockets.
    #[derive(Default)]
    struct PipeInner {
        data: VecDeque<u8>,
    }

    struct Pipe(Arc<Mutex<PipeInner>>);

    impl Stream for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let mut inner = self.0.lock().unwrap();
            let n = buf.len().min(inner.data.len());
            for slot in buf[..n].iter_mut() {
                *slot = inner.data.pop_front().unwrap();
            }
            Ok(n)
        }

        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().data.extend(buf.iter().copied());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }

        fn shutdown(&mut self) {}

        fn set_read_timeout(&mut self, _t: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn pipe() -> (Pipe, Pipe) {
        let shared = Arc::new(Mutex::new(PipeInner::default()));
        (Pipe(shared.clone()), Pipe(shared))
    }

    #[test]
    fn partial_io_still_delivers_every_byte_in_order() {
        let (w, r) = pipe();
        let mut faulty = FaultStream::new(Box::new(w), NetFaultPlan::seeded(7).partial_io(3));
        let payload: Vec<u8> = (0..=255).collect();
        write_all(&mut faulty, &payload).unwrap();
        let mut reader = FaultStream::new(Box::new(r), NetFaultPlan::seeded(8).partial_io(2));
        let mut got = vec![0u8; payload.len()];
        assert!(read_exact(&mut reader, &mut got).unwrap());
        assert_eq!(got, payload);
        assert!(faulty.ops_performed() >= (payload.len() / 3) as u64);
    }

    #[test]
    fn disconnect_budget_tears_mid_write_deterministically() {
        let run = || {
            let (w, _r) = pipe();
            let mut faulty =
                FaultStream::new(Box::new(w), NetFaultPlan::seeded(9).disconnect_after(10));
            let err = write_all(&mut faulty, &[0u8; 64]).unwrap_err();
            (err.kind(), faulty.ops_performed(), faulty.disconnected())
        };
        let (kind, ops, disconnected) = run();
        assert_eq!(kind, std::io::ErrorKind::ConnectionReset);
        assert!(disconnected);
        // Same plan, same workload → identical tear point.
        assert_eq!(run(), (kind, ops, disconnected));
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let (w, r) = pipe();
        let mut faulty = FaultStream::new(Box::new(w), NetFaultPlan::seeded(3).corrupt_one_in(1));
        let payload = [0u8; 32];
        write_all(&mut faulty, &payload).unwrap();
        let mut reader = r;
        let mut got = vec![0u8; 32];
        assert!(read_exact(&mut reader, &mut got).unwrap());
        let flipped: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert!(flipped >= 1, "at least one write must have been corrupted");
    }

    /// A pipe whose write side accepts a bounded number of bytes per
    /// "tick" and then reports `WouldBlock`, like a full socket buffer.
    struct Throttled {
        inner: Pipe,
        budget: usize,
    }

    impl Stream for Throttled {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inner.read(buf)
        }

        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "send buffer full",
                ));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.inner.write(&buf[..n])
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }

        fn shutdown(&mut self) {}

        fn set_read_timeout(&mut self, _t: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_available_parks_on_would_block_and_resumes() {
        let (w, mut r) = pipe();
        let mut throttled = Throttled {
            inner: w,
            budget: 5,
        };
        let mut pending: Vec<u8> = (0u8..12).collect();
        assert!(!write_available(&mut throttled, &mut pending).unwrap());
        assert_eq!(pending.len(), 7, "unwritten suffix stays queued");
        throttled.budget = 100; // "socket drained" — writable again
        assert!(write_available(&mut throttled, &mut pending).unwrap());
        assert!(pending.is_empty());
        let mut got = vec![0u8; 12];
        assert!(read_exact(&mut r, &mut got).unwrap());
        assert_eq!(got, (0u8..12).collect::<Vec<u8>>());
    }

    #[test]
    fn eof_before_first_byte_is_clean_mid_frame_is_an_error() {
        let (mut w, r) = pipe();
        let mut buf = [0u8; 4];
        let mut reader = FaultStream::new(Box::new(r), NetFaultPlan::default());
        assert!(!read_exact(&mut reader, &mut buf).unwrap(), "clean EOF");
        w.write(&[1, 2]).unwrap();
        let err = read_exact(&mut reader, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
