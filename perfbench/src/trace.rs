//! The benchmark's own span recorder.
//!
//! Spans wrap calls into each layer's public functions from the outside;
//! nothing inside the crates is instrumented. When tracing is off,
//! [`Tracer::span`] is a branch and a direct call. When it is on, every
//! span is pushed onto an in-memory list (never written mid-run) with
//! its parent, so self time — a span's duration minus its children's —
//! can be summed per layer at the end.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::util::Json;

/// The layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark itself: input generation, output checks, loop glue.
    Harness,
    /// `perfdmf-import` parsers.
    Import,
    /// `perfdmf-core`: store, load, aggregates (including the SQL they
    /// issue, which cannot be split off without instrumenting the crate).
    Core,
    /// `perfdmf-db` called directly: open/recovery, checkpoint, queries.
    Db,
    /// Client, wire codec and event loop: request round trip minus the
    /// server's queue wait and execution.
    Server,
    /// Explorer admission queue wait (from the server's bill).
    Queue,
    /// Explorer worker execution, analysis plus its db work (from the
    /// server's bill).
    Explorer,
    /// Deliberate waiting (the open-loop generator's sleeps); excluded
    /// from shares.
    Idle,
}

impl Layer {
    pub const REPORTED: [Layer; 7] = [
        Layer::Harness,
        Layer::Import,
        Layer::Core,
        Layer::Db,
        Layer::Server,
        Layer::Queue,
        Layer::Explorer,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Import => "import",
            Layer::Core => "core",
            Layer::Db => "db",
            Layer::Server => "server",
            Layer::Queue => "queue",
            Layer::Explorer => "explorer",
            Layer::Idle => "idle",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: Layer,
    pub name: &'static str,
    pub thread: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Indices of the spans open on this thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: RefCell<&'static str> = const { RefCell::new("main") };
}

/// Label this thread's spans (e.g. `analyst`, `probe`).
pub fn set_thread_label(label: &'static str) {
    THREAD.with(|t| *t.borrow_mut() = label);
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span charged to `layer`.
    pub fn span<R>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = STACK.with(|s| s.borrow().last().copied());
        let thread = THREAD.with(|t| *t.borrow());
        let start = Instant::now();
        let idx = {
            let mut spans = self.spans.lock().expect("a span recorder thread panicked");
            spans.push(Span {
                layer,
                name,
                thread,
                parent,
                start_ns: (start - self.origin).as_nanos() as u64,
                dur_ns: 0,
            });
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(idx));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        let dur = start.elapsed().as_nanos() as u64;
        self.spans.lock().expect("a span recorder thread panicked")[idx].dur_ns = dur;
        out
    }

    /// Index of the innermost open span on this thread.
    pub fn current(&self) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Record a child interval of `parent` measured by someone else —
    /// the server bill's queue wait and execution inside a request span.
    pub fn child(
        &self,
        parent: Option<usize>,
        layer: Layer,
        name: &'static str,
        at: Duration,
        dur: Duration,
    ) {
        let Some(parent) = parent else { return };
        let mut spans = self.spans.lock().expect("a span recorder thread panicked");
        let (thread, start_ns) = {
            let p = &spans[parent];
            (p.thread, p.start_ns + at.as_nanos() as u64)
        };
        spans.push(Span {
            layer,
            name,
            thread,
            parent: Some(parent),
            start_ns,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Self time per layer in nanoseconds: each span's duration minus
    /// its children's (clamped at zero).
    pub fn self_ns(&self) -> Vec<(Layer, u64)> {
        let spans = self.spans.lock().expect("a span recorder thread panicked");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut per_layer: Vec<(Layer, u64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let own = s.dur_ns.saturating_sub(child_ns[i]);
            match per_layer.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, ns)) => *ns += own,
                None => per_layer.push((s.layer, own)),
            }
        }
        per_layer.sort();
        per_layer
    }

    /// Percent of non-idle traced wall time spent in each reported layer.
    pub fn shares_pct(&self) -> Vec<(Layer, f64)> {
        let self_ns = self.self_ns();
        let busy: u64 = self_ns
            .iter()
            .filter(|(l, _)| *l != Layer::Idle)
            .map(|(_, ns)| ns)
            .sum();
        Layer::REPORTED
            .iter()
            .map(|&layer| {
                let ns = self_ns
                    .iter()
                    .find(|(l, _)| *l == layer)
                    .map_or(0, |(_, ns)| *ns);
                let pct = if busy == 0 {
                    0.0
                } else {
                    100.0 * ns as f64 / busy as f64
                };
                (layer, pct)
            })
            .collect()
    }

    pub fn span_count(&self) -> usize {
        self.spans
            .lock()
            .expect("a span recorder thread panicked")
            .len()
    }

    /// The recorded spans as Chrome trace-event JSON (load it in
    /// `chrome://tracing` or Perfetto): one complete event per span,
    /// one track per benchmark thread, the layer as the category.
    pub fn chrome_trace(&self) -> Json {
        let spans = self.spans.lock().expect("a span recorder thread panicked");
        let mut threads: Vec<&'static str> = Vec::new();
        let events = spans
            .iter()
            .map(|s| {
                let tid = match threads.iter().position(|t| *t == s.thread) {
                    Some(i) => i,
                    None => {
                        threads.push(s.thread);
                        threads.len() - 1
                    }
                };
                Json::obj(vec![
                    ("name", Json::Str(s.name.into())),
                    ("cat", Json::Str(s.layer.name().into())),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(tid as u64)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns as f64 / 1e3)),
                ])
            })
            .collect();
        Json::obj(vec![("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span(Layer::Harness, "root", || {
            t.span(Layer::Db, "open", || {
                std::thread::sleep(Duration::from_millis(20))
            });
            let cur = t.current();
            t.child(
                cur,
                Layer::Queue,
                "queue",
                Duration::ZERO,
                Duration::from_millis(5),
            );
        });
        let self_ns = t.self_ns();
        let get = |l| self_ns.iter().find(|(x, _)| *x == l).unwrap().1;
        assert!(get(Layer::Db) >= 20_000_000);
        assert_eq!(get(Layer::Queue), 5_000_000);
        let total: f64 = t.shares_pct().iter().map(|(_, p)| p).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(Layer::Db, "x", || 3), 3);
        assert_eq!(t.span_count(), 0);
        assert!(t.current().is_none());
    }
}
