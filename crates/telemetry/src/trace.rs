//! Causal tracing: trace/span ids, cross-thread context propagation, a
//! flight recorder, and Chrome-trace export.
//!
//! This rides on the same [`crate::span`] guards that feed the latency
//! histograms. When tracing is on ([`set_tracing`]`(true)`, default
//! **off**), each guard additionally allocates a `SpanId`, links it to
//! the enclosing span (or to a context adopted from another thread via
//! [`adopt_context`]), and on drop pushes a [`SpanRecord`] into the
//! flight recorder — a [`BoundedLog`] of the most recent
//! `RECORDER_CAPACITY` spans behind one mutex, held only to push a
//! record or copy the log.
//!
//! Propagation rules:
//! * a span opened while another span is live on the same thread becomes
//!   its child and inherits the trace id;
//! * a span opened on a thread holding an adopted remote context (pool
//!   workers, explorer request handlers) becomes a child of the remote
//!   span — this is how one trace crosses thread boundaries;
//! * otherwise the span starts a fresh trace as its root.
//!
//! Dump triggers: [`dump`] on demand and [`fault_dump`], which the db
//! layer calls whenever a durability fault counter fires (fsync error,
//! torn WAL tail, poisoned WAL). Fault dumps also capture the calling
//! thread's still-*open* spans, so the span that observed the fault is
//! present even though it has not finished.

use parking_lot::{Mutex, RwLock};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::BoundedLog;

/// Capacity of the process-global flight recorder, in spans.
pub(crate) const RECORDER_CAPACITY: usize = 16 * 1024;

/// Identifies one causal trace (a request and everything it triggered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl TraceId {
    /// Fixed-width lowercase hex, the form used in log lines and JSON.
    pub fn as_hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl SpanId {
    pub fn as_hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The (trace, span) pair to hand to another thread so its spans join
/// this trace. Obtain with [`current_context`], adopt with
/// [`adopt_context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    pub trace: TraceId,
    pub span: SpanId,
}

static TRACING: AtomicBool = AtomicBool::new(false);

/// Is causal tracing currently collecting? Independent of the telemetry
/// enabled flag so the overhead can be priced separately; note spans are
/// only opened at all while `crate::enabled()`.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turn causal tracing on or off globally (default off). Off, each span
/// costs one extra relaxed atomic load.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// 0 = not yet initialized (read `PERFDMF_TRACE_SAMPLE` on first use).
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);
static SAMPLE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The request-trace sampling period: `NetClient` attaches trace
/// context to (and opens a `client.request` span for) one request in
/// every `trace_sample_every()`. Initialized from `PERFDMF_TRACE_SAMPLE`
/// (default 1 — every request while tracing is on).
pub(crate) fn trace_sample_every() -> u64 {
    let current = SAMPLE_EVERY.load(Ordering::Relaxed);
    if current != 0 {
        return current;
    }
    let every = std::env::var("PERFDMF_TRACE_SAMPLE")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1);
    SAMPLE_EVERY.store(every, Ordering::Relaxed);
    every
}

/// Draw from the process-wide sampling sequence: true for one request
/// in every sampling period (`PERFDMF_TRACE_SAMPLE`). Always true at the
/// default period of 1.
pub fn sample_request() -> bool {
    let every = trace_sample_every();
    if every <= 1 {
        return true;
    }
    SAMPLE_COUNTER
        .fetch_add(1, Ordering::Relaxed)
        .is_multiple_of(every)
}

/// Unique non-zero id: the SplitMix64 finaliser of a global sequence
/// counter times the golden gamma — well distributed, allocation-free,
/// and deterministic given call order.
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    crate::mix64(
        NEXT.fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(crate::GOLDEN_GAMMA),
    ) | 1
}

/// Monotonic process epoch all span timestamps are relative to.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Small per-thread label for trace output (1, 2, 3, … in first-use
/// order) — stabler across runs than OS thread ids.
fn thread_label() -> u64 {
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static LABEL: Cell<u64> = const { Cell::new(0) };
    }
    LABEL.with(|l| {
        if l.get() == 0 {
            l.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

struct Frame {
    name: &'static str,
    trace: u64,
    span: u64,
    parent: u64,
    start_ns: u64,
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static REMOTE: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// Called by [`crate::span`] on entry. Returns the new span id, or 0
/// when tracing is off (the guard then skips [`exit_span`]).
pub(crate) fn enter_span(name: &'static str) -> u64 {
    if !tracing_enabled() {
        return 0;
    }
    let span = next_id();
    FRAMES.with(|f| {
        let mut f = f.borrow_mut();
        let (trace, parent) = match f.last() {
            Some(top) => (top.trace, top.span),
            None => match REMOTE.with(Cell::get) {
                Some((t, s)) => (t, s),
                None => (next_id(), 0),
            },
        };
        f.push(Frame {
            name,
            trace,
            span,
            parent,
            start_ns: now_ns(),
        });
    });
    span
}

/// Called by the span guard's drop: closes the frame and publishes its
/// record to the flight recorder. Tolerates out-of-order guard drops.
pub(crate) fn exit_span(span: u64) {
    if span == 0 {
        return;
    }
    let frame = FRAMES.with(|f| {
        let mut f = f.borrow_mut();
        match f.last() {
            Some(top) if top.span == span => f.pop(),
            _ => f
                .iter()
                .rposition(|fr| fr.span == span)
                .map(|i| f.remove(i)),
        }
    });
    if let Some(fr) = frame {
        let end = now_ns();
        let thread = thread_label();
        RECORDER.lock().push(|_| SpanRecord {
            trace: fr.trace,
            span: fr.span,
            parent: fr.parent,
            name: fr.name,
            thread,
            start_ns: fr.start_ns,
            dur_ns: end.saturating_sub(fr.start_ns),
            open: false,
        });
    }
}

/// Context of the innermost span live on this thread (falling back to an
/// adopted remote context), or `None` when tracing is off or nothing is
/// open. Capture this before handing work to another thread.
pub fn current_context() -> Option<SpanContext> {
    if !tracing_enabled() {
        return None;
    }
    FRAMES
        .with(|f| {
            f.borrow().last().map(|fr| SpanContext {
                trace: TraceId(fr.trace),
                span: SpanId(fr.span),
            })
        })
        .or_else(|| {
            REMOTE.with(Cell::get).map(|(t, s)| SpanContext {
                trace: TraceId(t),
                span: SpanId(s),
            })
        })
}

/// Trace id of the active context, if any — what log lines carry.
pub fn current_trace_id() -> Option<TraceId> {
    current_context().map(|c| c.trace)
}

/// Restores the previously adopted context when dropped.
pub struct ContextGuard {
    prev: Option<(u64, u64)>,
}

/// Adopt `ctx` as this thread's parent context: until the guard drops,
/// spans opened with no local parent become children of `ctx.span` in
/// `ctx.trace`. Used on pool workers and explorer request threads.
pub fn adopt_context(ctx: SpanContext) -> ContextGuard {
    let prev = REMOTE.with(|r| r.replace(Some((ctx.trace.0, ctx.span.0))));
    ContextGuard { prev }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        REMOTE.with(|r| r.set(prev));
    }
}

/// One finished (or, in fault dumps, still-open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace: u64,
    pub span: u64,
    /// 0 for trace roots.
    pub parent: u64,
    pub name: &'static str,
    /// Small per-thread label (see module docs), not an OS thread id.
    pub thread: u64,
    /// Nanoseconds since the process trace epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// True only in fault dumps: the span had not finished when the dump
    /// was taken; `dur_ns` is its elapsed time so far.
    pub open: bool,
}

impl SpanRecord {
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// The flight recorder: the most recent [`RECORDER_CAPACITY`] finished
/// spans, oldest evicted first.
static RECORDER: Mutex<BoundedLog<SpanRecord>> = Mutex::new(BoundedLog::new(RECORDER_CAPACITY));

/// Snapshot the flight recorder's spans, ordered by `(start_ns, span)`.
pub fn dump() -> Vec<SpanRecord> {
    let mut out = RECORDER.lock().to_vec();
    out.sort_by_key(|r| (r.start_ns, r.span));
    out
}

/// Discard the buffered spans; [`recorded_total`] keeps counting.
pub fn clear() {
    RECORDER.lock().clear();
}

/// Spans recorded over the process's lifetime (not capped, not reset by
/// [`clear`]).
pub fn recorded_total() -> u64 {
    RECORDER.lock().total()
}

/// Records for the calling thread's currently-open spans (marked
/// `open: true`, duration = elapsed so far). Fault dumps append these so
/// the span inside which the fault fired is visible.
pub(crate) fn open_spans() -> Vec<SpanRecord> {
    let end = now_ns();
    let thread = thread_label();
    FRAMES.with(|f| {
        f.borrow()
            .iter()
            .map(|fr| SpanRecord {
                trace: fr.trace,
                span: fr.span,
                parent: fr.parent,
                name: fr.name,
                thread,
                start_ns: fr.start_ns,
                dur_ns: end.saturating_sub(fr.start_ns),
                open: true,
            })
            .collect()
    })
}

fn fault_dump_path() -> &'static RwLock<Option<PathBuf>> {
    static PATH: OnceLock<RwLock<Option<PathBuf>>> = OnceLock::new();
    PATH.get_or_init(|| RwLock::new(None))
}

/// Configure where [`fault_dump`] (and the panic hook) writes its
/// Chrome-trace JSON; `None` disables fault dumps.
pub fn set_fault_dump_path(path: Option<PathBuf>) {
    *fault_dump_path().write() = path;
}

/// Dump the flight recorder (plus this thread's open spans) as
/// Chrome-trace JSON to the configured fault-dump path. Called by the db
/// layer when a durability fault counter fires (the counter names the
/// fault); a no-op returning `None` when tracing is off or no path is
/// configured.
///
/// The dump is written to a temp file beside the target and renamed
/// over it, so a concurrent reader sees a whole dump, never a
/// truncated one.
pub fn fault_dump() -> Option<PathBuf> {
    static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);
    if !tracing_enabled() {
        return None;
    }
    let path = fault_dump_path().read().clone()?;
    let mut records = dump();
    records.extend(open_spans());
    let json = export_chrome_trace(&records);
    let mut temp = path.clone().into_os_string();
    let nth = NEXT_TEMP.fetch_add(1, Ordering::Relaxed);
    temp.push(format!(".{}.{nth}.tmp", std::process::id()));
    if std::fs::write(&temp, json)
        .and_then(|()| std::fs::rename(&temp, &path))
        .is_err()
    {
        let _ = std::fs::remove_file(&temp);
        return None;
    }
    crate::add("trace.fault_dumps", 1);
    Some(path)
}

/// One process's worth of spans for [`export_chrome_trace_merged`]:
/// its Chrome-trace `pid`, a display name, and its records.
#[derive(Debug, Clone, Copy)]
pub struct TraceProcess<'a> {
    /// Chrome-trace process id (must be distinct per group).
    pub pid: u64,
    /// Display name emitted as `process_name` metadata.
    pub name: &'a str,
    /// The process's span records.
    pub records: &'a [SpanRecord],
}

/// Render spans as Chrome-trace / Perfetto JSON (load via
/// `chrome://tracing` or <https://ui.perfetto.dev>). Each span becomes a
/// complete (`"X"`) event; when a span's parent ran on a *different*
/// thread, a flow arrow (`"s"`/`"f"` pair) is added from the parent's
/// slice to the child's, making cross-thread causality visible.
pub fn export_chrome_trace(records: &[SpanRecord]) -> String {
    export_chrome_trace_merged(&[TraceProcess {
        pid: 1,
        name: "perfdmf",
        records,
    }])
}

/// Render spans from several processes as one merged Chrome-trace
/// timeline: each group gets its own `pid` (with a `process_name`
/// metadata event), and parent links are resolved *across* groups, so a
/// child whose parent span lives in another process gets a
/// cross-process flow arrow — this is how a client-side `client.request`
/// slice visibly dispatches into the server's `server.request` slice in
/// Perfetto.
pub fn export_chrome_trace_merged(processes: &[TraceProcess<'_>]) -> String {
    // Parent lookup spans every process: (pid, record).
    let by_span: HashMap<u64, (u64, &SpanRecord)> = processes
        .iter()
        .flat_map(|p| p.records.iter().map(move |r| (r.span, (p.pid, r))))
        .collect();
    let mut events = Vec::new();
    for proc in processes {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            proc.pid,
            json_escape(proc.name)
        ));
    }
    for proc in processes {
        for r in proc.records {
            let ts = r.start_ns as f64 / 1000.0;
            let dur = r.dur_ns as f64 / 1000.0;
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"perfdmf\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\
                 \"parent\":\"{:016x}\",\"open\":{}}}}}",
                json_escape(r.name),
                proc.pid,
                r.thread,
                r.trace,
                r.span,
                r.parent,
                r.open
            ));
            if r.parent != 0 {
                if let Some(&(parent_pid, p)) = by_span.get(&r.parent) {
                    if parent_pid != proc.pid || p.thread != r.thread {
                        // Flow endpoints must lie inside their slices for the
                        // viewer to bind them; clamp into the parent interval.
                        let s_ts = (r.start_ns.clamp(p.start_ns, p.end_ns()) as f64) / 1000.0;
                        events.push(format!(
                            "{{\"name\":\"dispatch\",\"cat\":\"perfdmf\",\"ph\":\"s\",\
                             \"id\":\"{:x}\",\"ts\":{s_ts:.3},\"pid\":{},\"tid\":{}}}",
                            r.span, parent_pid, p.thread
                        ));
                        events.push(format!(
                            "{{\"name\":\"dispatch\",\"cat\":\"perfdmf\",\"ph\":\"f\",\"bp\":\"e\",\
                             \"id\":\"{:x}\",\"ts\":{ts:.3},\"pid\":{},\"tid\":{}}}",
                            r.span, proc.pid, r.thread
                        ));
                    }
                }
            }
        }
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global tracing flag (they also
    /// need telemetry enabled, so take the enabled-flag write lock too).
    fn tracing_test_lock() -> parking_lot::RwLockWriteGuard<'static, ()> {
        crate::enabled_flag_lock().write()
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn spans_link_parent_child_and_record() {
        let _g = tracing_test_lock();
        crate::set_enabled(true);
        set_tracing(true);
        let (root_ctx, child_ctx) = {
            let _root = crate::span("trace.test.root");
            let root_ctx = current_context().unwrap();
            let _child = crate::span("trace.test.child");
            let child_ctx = current_context().unwrap();
            (root_ctx, child_ctx)
        };
        set_tracing(false);
        assert_eq!(root_ctx.trace, child_ctx.trace);
        assert_ne!(root_ctx.span, child_ctx.span);
        let recs = dump();
        let child = recs
            .iter()
            .find(|r| r.span == child_ctx.span.0)
            .expect("child recorded");
        assert_eq!(child.parent, root_ctx.span.0);
        assert_eq!(child.trace, root_ctx.trace.0);
        let root = recs.iter().find(|r| r.span == root_ctx.span.0).unwrap();
        assert_eq!(root.parent, 0);
        assert!(root.end_ns() >= child.end_ns());
    }

    #[test]
    fn adopted_context_crosses_threads() {
        let _g = tracing_test_lock();
        crate::set_enabled(true);
        set_tracing(true);
        let (ctx, remote_span) = {
            let _root = crate::span("trace.test.xthread.root");
            let ctx = current_context().unwrap();
            let remote_span = std::thread::scope(|s| {
                s.spawn(|| {
                    let _adopt = adopt_context(ctx);
                    let _w = crate::span("trace.test.xthread.worker");
                    current_context().unwrap()
                })
                .join()
                .unwrap()
            });
            (ctx, remote_span)
        };
        set_tracing(false);
        assert_eq!(remote_span.trace, ctx.trace);
        let recs = dump();
        let worker = recs.iter().find(|r| r.span == remote_span.span.0).unwrap();
        assert_eq!(worker.parent, ctx.span.0);
        let root = recs.iter().find(|r| r.span == ctx.span.0).unwrap();
        assert_ne!(worker.thread, root.thread);
    }

    #[test]
    fn dump_during_recording_sees_whole_records() {
        const THREADS: usize = 4;
        const ROOTS: usize = 500;
        const ROOT: &str = "trace.test.concurrent.root";
        const CHILD: &str = "trace.test.concurrent.child";
        let _g = tracing_test_lock();
        crate::set_enabled(true);
        set_tracing(true);
        clear();
        let before = recorded_total();
        let start = std::sync::Barrier::new(THREADS + 1);
        let finished = AtomicU64::new(0);
        let opened: Vec<SpanContext> = std::thread::scope(|s| {
            let writers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let mut opened = Vec::with_capacity(2 * ROOTS);
                        start.wait();
                        for _ in 0..ROOTS {
                            let _root = crate::span(ROOT);
                            opened.push(current_context().unwrap());
                            let _child = crate::span(CHILD);
                            opened.push(current_context().unwrap());
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                        opened
                    })
                })
                .collect();
            start.wait();
            loop {
                let done = finished.load(Ordering::Relaxed) == THREADS as u64;
                // Only this test records while it holds the tracing lock,
                // so every record dumped is one of its spans.
                let recs = dump();
                let trace_of: HashMap<u64, u64> = recs.iter().map(|r| (r.span, r.trace)).collect();
                for r in &recs {
                    assert!(r.name == ROOT || r.name == CHILD, "torn name {:?}", r.name);
                    assert_eq!(r.parent == 0, r.name == ROOT, "{r:?}");
                    if let Some(&trace) = trace_of.get(&r.parent) {
                        assert_eq!(trace, r.trace, "parent in another trace: {r:?}");
                    }
                }
                if done {
                    break;
                }
            }
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        set_tracing(false);
        assert_eq!(recorded_total() - before, opened.len() as u64);
        let recs: HashMap<u64, SpanRecord> = dump().into_iter().map(|r| (r.span, r)).collect();
        for ctx in &opened {
            let r = recs.get(&ctx.span.0).expect("every opened span recorded");
            assert_eq!(r.trace, ctx.trace.0);
            if r.name == CHILD {
                assert_eq!(recs[&r.parent].trace, r.trace);
            }
        }
    }

    #[test]
    fn chrome_export_emits_slices_and_cross_thread_flows() {
        let recs = vec![
            SpanRecord {
                trace: 7,
                span: 1,
                parent: 0,
                name: "root \"q\"",
                thread: 1,
                start_ns: 1_000,
                dur_ns: 9_000,
                open: false,
            },
            SpanRecord {
                trace: 7,
                span: 2,
                parent: 1,
                name: "worker",
                thread: 2,
                start_ns: 2_000,
                dur_ns: 3_000,
                open: false,
            },
        ];
        let json = export_chrome_trace(&recs);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("root \\\"q\\\""));
        // Same-thread child produces no flow.
        let same_thread = vec![
            recs[0].clone(),
            SpanRecord {
                thread: 1,
                ..recs[1].clone()
            },
        ];
        assert!(!export_chrome_trace(&same_thread).contains("\"ph\":\"s\""));
    }

    #[test]
    fn json_escapes_quotes_newlines_and_controls() {
        assert_eq!(
            json_escape("SELECT \"a\",\n\t'b\\c'\u{1} FROM t\r"),
            "SELECT \\\"a\\\",\\n\\t'b\\\\c'\\u0001 FROM t\\r"
        );
    }

    #[test]
    fn open_spans_capture_unfinished_frames() {
        let _g = tracing_test_lock();
        crate::set_enabled(true);
        set_tracing(true);
        let _root = crate::span("trace.test.open");
        let open = open_spans();
        set_tracing(false);
        assert!(open.iter().any(|r| r.name == "trace.test.open" && r.open));
    }

    #[test]
    fn merged_export_links_parents_across_processes() {
        let client = vec![SpanRecord {
            trace: 9,
            span: 1,
            parent: 0,
            name: "client.request",
            thread: 1,
            start_ns: 1_000,
            dur_ns: 9_000,
            open: false,
        }];
        let server = vec![SpanRecord {
            trace: 9,
            span: 2,
            parent: 1,
            name: "server.request",
            thread: 1, // same thread label, different process
            start_ns: 2_000,
            dur_ns: 3_000,
            open: false,
        }];
        let json = export_chrome_trace_merged(&[
            TraceProcess {
                pid: 1,
                name: "client",
                records: &client,
            },
            TraceProcess {
                pid: 2,
                name: "server",
                records: &server,
            },
        ]);
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"pid\":2"));
        // The server span's parent lives in the client process: the
        // same thread label must still produce a flow pair.
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
    }

    #[test]
    fn sampling_period_is_configurable() {
        let before = trace_sample_every();
        SAMPLE_EVERY.store(1, Ordering::Relaxed);
        assert!(sample_request());
        assert!(sample_request());
        SAMPLE_EVERY.store(3, Ordering::Relaxed);
        let hits = (0..30).filter(|_| sample_request()).count();
        assert_eq!(hits, 10, "1-in-3 sampling must hit exactly a third");
        SAMPLE_EVERY.store(before, Ordering::Relaxed);
    }

    #[test]
    fn tracing_off_is_inert() {
        let _g = tracing_test_lock();
        crate::set_enabled(true);
        set_tracing(false);
        let _s = crate::span("trace.test.off");
        assert!(current_context().is_none());
        assert!(current_trace_id().is_none());
    }
}
