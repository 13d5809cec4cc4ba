//! perfdmf-pool — a small deterministic worker pool shared by the query
//! engine and the importer.
//!
//! Work is split into index-addressed partitions. Partitions are *dispatched*
//! to workers in a seeded pseudo-random order (so tests exercise
//! order-independence), but results are always collected **by partition
//! index**, so the output of [`run`]/[`try_run`] is independent of thread
//! scheduling: same input + same partitioning → same output, on any machine.
//!
//! Thread count resolution, in priority order:
//! 1. a thread-local override installed with [`override_for_thread`]
//!    (used by tests to force the parallel or serial path),
//! 2. the `PERFDMF_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Callers gate parallelism on [`partitions`], which returns `None` when the
//! work is too small to be worth fanning out (below
//! [`min_partition_items`]) or when only one thread is available — the
//! caller then runs its existing serial path.

#![warn(unreachable_pub)]

use crossbeam::channel;
use perfdmf_telemetry as telemetry;
use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

/// Work below this many items stays on the caller's serial path unless a
/// test override lowers the threshold. The unit is the one engine
/// caller's, the columnar chunk scan's slab slots: at ~20 ns per row in
/// the kernels, 32,768 slots (eight chunks) are ~0.65 ms of work, ten
/// times the ~60 µs a 2-partition [`run`] spends spawning its threads.
pub const DEFAULT_MIN_PARTITION_ITEMS: usize = 32_768;

/// Dispatch-order seed.
const DISPATCH_SEED: u64 = 0x5eed_9e37_79b9_7f4a;

thread_local! {
    static OVERRIDE_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
    static OVERRIDE_MIN_ITEMS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        env_usize("PERFDMF_THREADS").unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Effective worker count for the calling thread.
pub fn threads() -> usize {
    OVERRIDE_THREADS
        .with(|c| c.get())
        .unwrap_or_else(default_threads)
}

/// Minimum number of items before [`partitions`] engages the pool.
pub fn min_partition_items() -> usize {
    OVERRIDE_MIN_ITEMS
        .with(|c| c.get())
        .unwrap_or(DEFAULT_MIN_PARTITION_ITEMS)
}

/// RAII guard restoring the previous thread-local pool configuration.
pub struct OverrideGuard {
    prev_threads: Option<usize>,
    prev_min_items: Option<usize>,
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        OVERRIDE_THREADS.with(|c| c.set(self.prev_threads));
        OVERRIDE_MIN_ITEMS.with(|c| c.set(self.prev_min_items));
    }
}

/// Force `threads` workers and a `min_items` engagement threshold for the
/// calling thread until the guard drops. Tests use this to pin the serial
/// path (`threads = 1`) or force the parallel path on any input size
/// (`threads = 4, min_items = 1`) without racing other tests in the same
/// process.
pub fn override_for_thread(threads: usize, min_items: usize) -> OverrideGuard {
    let guard = OverrideGuard {
        prev_threads: OVERRIDE_THREADS.with(|c| c.get()),
        prev_min_items: OVERRIDE_MIN_ITEMS.with(|c| c.get()),
    };
    OVERRIDE_THREADS.with(|c| c.set(Some(threads.max(1))));
    OVERRIDE_MIN_ITEMS.with(|c| c.set(Some(min_items.max(1))));
    guard
}

/// Split `0..n_items` into contiguous ranges, one per prospective worker.
/// Returns `None` when the caller should stay serial: a single worker, or
/// fewer than [`min_partition_items`] items. Ranges concatenated in order
/// cover `0..n_items` exactly, so order-preserving callers can concatenate
/// per-partition output and match their serial result order.
pub fn partitions(n_items: usize) -> Option<Vec<Range<usize>>> {
    let workers = threads();
    if workers <= 1 || n_items < min_partition_items() || n_items < 2 {
        telemetry::add("pool.serial_fallbacks", 1);
        return None;
    }
    let parts = workers.min(n_items);
    let chunk = n_items.div_ceil(parts);
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    while start < n_items {
        let end = (start + chunk).min(n_items);
        ranges.push(start..end);
        start = end;
    }
    Some(ranges)
}

/// Seeded Fisher–Yates permutation of `0..n` using xorshift64*; this is the
/// order partitions are handed to workers (results still land by index).
fn dispatch_order(n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = DISPATCH_SEED | 1;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Run `f(partition_index)` for every index in `0..parts` across the pool
/// and return the results in partition-index order. Falls back to a plain
/// serial loop when one worker suffices.
pub fn run<R, F>(parts: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if parts == 0 {
        return Vec::new();
    }
    let workers = threads().min(parts);
    if workers <= 1 {
        return (0..parts).map(f).collect();
    }
    telemetry::add("pool.runs", 1);
    telemetry::add("pool.partitions_dispatched", parts as u64);
    telemetry::record("pool.workers_per_run", workers as u64);
    telemetry::meter::add_pool_tasks(parts as u64);

    let (task_tx, task_rx) = channel::unbounded::<usize>();
    for i in dispatch_order(parts) {
        let _ = task_tx.send(i);
    }
    drop(task_tx);
    let (res_tx, res_rx) = channel::unbounded::<(usize, R)>();
    let timing = telemetry::enabled().then(Instant::now);
    // Capture the dispatching thread's trace context so worker-side spans
    // join the same trace as children of the span that called run().
    let trace_ctx = telemetry::trace::current_context();
    // Likewise the resource meter, so work the partitions do (chunk
    // cache lookups, row scans) bills to the request being served, and
    // the registry, so their instruments land in the caller's database.
    let meter = telemetry::current_meter();
    let registry = telemetry::current_registry();
    let f = &f;

    let mut slots: Vec<Option<R>> = std::thread::scope(|s| {
        for _ in 0..workers {
            let task_rx = task_rx.clone();
            let res_tx = res_tx.clone();
            let meter = meter.clone();
            let registry = &registry;
            s.spawn(move || {
                let _adopted = trace_ctx.map(telemetry::trace::adopt_context);
                let _metered = meter.map(telemetry::adopt_meter);
                let _registry = registry.adopt();
                let mut busy_ns: u64 = 0;
                while let Ok(i) = task_rx.recv() {
                    let _task_span = telemetry::span("pool.task");
                    let started = timing.is_some().then(Instant::now);
                    let r = f(i);
                    if let Some(started) = started {
                        busy_ns += started.elapsed().as_nanos() as u64;
                    }
                    if res_tx.send((i, r)).is_err() {
                        break;
                    }
                }
                if timing.is_some() {
                    telemetry::add("pool.busy_ns", busy_ns);
                }
            });
        }
        drop(res_tx);
        drop(task_rx);
        let mut slots: Vec<Option<R>> = (0..parts).map(|_| None).collect();
        while let Ok((i, r)) = res_rx.recv() {
            slots[i] = Some(r);
        }
        slots
    });

    if let Some(started) = timing {
        // Utilization ≈ summed busy time / (wall time × workers); the busy
        // counter is cumulative, so snapshot consumers diff it per run.
        let wall_ns = started.elapsed().as_nanos() as u64 * workers as u64;
        telemetry::record("pool.run_capacity_ns", wall_ns);
    }
    slots
        .iter_mut()
        .map(|s| s.take().expect("pool delivered every partition"))
        .collect()
}

/// Like [`run`] for fallible work. If any partition fails, the error from
/// the **lowest-index** failing partition is returned — the same error a
/// serial left-to-right loop would surface, keeping error reporting
/// deterministic.
pub fn try_run<R, E, F>(parts: usize, f: F) -> std::result::Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(usize) -> std::result::Result<R, E> + Sync,
{
    let results = run(parts, f);
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

/// Map `f` over a slice with one partition per item (used for per-file
/// work such as importer fan-out), preserving item order and serial error
/// semantics.
pub fn try_map<T, R, E, F>(items: &[T], f: F) -> std::result::Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> std::result::Result<R, E> + Sync,
{
    try_run(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_cover_range_exactly() {
        let _g = override_for_thread(4, 1);
        let ranges = partitions(10).expect("parallel engaged");
        let flat: Vec<usize> = ranges.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn partitions_decline_small_or_serial_work() {
        {
            let _g = override_for_thread(1, 1);
            assert!(partitions(1_000_000).is_none());
        }
        {
            let _g = override_for_thread(8, 100);
            assert!(partitions(99).is_none());
            assert!(partitions(100).is_some());
        }
    }

    #[test]
    fn run_returns_results_in_index_order() {
        let _g = override_for_thread(4, 1);
        let out = run(17, |i| i * 3);
        assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_matches_serial_regardless_of_thread_count() {
        let serial: Vec<usize> = {
            let _g = override_for_thread(1, 1);
            run(40, |i| i + 7)
        };
        for threads in [2, 3, 8] {
            let _g = override_for_thread(threads, 1);
            assert_eq!(run(40, |i| i + 7), serial);
        }
    }

    #[test]
    fn try_run_reports_lowest_index_error() {
        let _g = override_for_thread(4, 1);
        let err = try_run(20, |i| {
            if i == 5 || i == 13 {
                Err(format!("boom {i}"))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, "boom 5");
    }

    #[test]
    fn try_map_preserves_item_order() {
        let _g = override_for_thread(4, 1);
        let items: Vec<String> = (0..12).map(|i| format!("item-{i}")).collect();
        let out: Vec<String> = try_map(&items, |s| Ok::<_, ()>(s.to_uppercase())).unwrap();
        assert_eq!(out[0], "ITEM-0");
        assert_eq!(out[11], "ITEM-11");
    }

    #[test]
    fn override_guard_restores_previous_config() {
        let before = threads();
        {
            let _g = override_for_thread(7, 3);
            assert_eq!(threads(), 7);
            assert_eq!(min_partition_items(), 3);
        }
        assert_eq!(threads(), before);
    }

    #[test]
    fn run_propagates_trace_context_to_workers() {
        let _g = override_for_thread(4, 1);
        telemetry::set_tracing(true);
        let ctx = {
            let _root = telemetry::span("pool.test.trace_root");
            let ctx = telemetry::trace::current_context().expect("context inside span");
            let out = run(8, |i| i * 2);
            assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
            ctx
        };
        telemetry::set_tracing(false);
        let recs = telemetry::trace::dump();
        let root = recs
            .iter()
            .find(|r| r.span == ctx.span.0)
            .expect("root span recorded");
        let tasks: Vec<_> = recs
            .iter()
            .filter(|r| r.trace == ctx.trace.0 && r.name == "pool.task")
            .collect();
        assert_eq!(tasks.len(), 8, "one pool.task span per partition");
        assert!(tasks.iter().all(|t| t.parent == ctx.span.0));
        assert!(
            tasks.iter().all(|t| t.thread != root.thread),
            "pool.task spans run on worker threads, not the dispatcher"
        );
    }

    #[test]
    fn dispatch_order_is_a_permutation() {
        let order = dispatch_order(50);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
