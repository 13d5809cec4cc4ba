//! Large-scale data handling (paper §3.1 / §5.3) — experiment E1.
//!
//! "Our tests with large profile data (101 events on 16K processors)
//! showed the framework adequately handled the mass of data. ... The 16K
//! processor run consisted of over 1.6 million data points, and the
//! PerfDMF API was able to handle the data without problems."
//!
//! This example sweeps Miranda-shaped trials over processor counts,
//! measuring generate / store / query / summarize times and printing the
//! data-point counts, the process's resident memory and its live heap
//! right after each store. `rss (MiB)` never falls when an earlier sweep
//! point frees its heap, so `heap (MiB)`, counted by a global allocator
//! wrapper, is the store's own footprint (the source profile included).
//! The default sweep tops out at 4K processors to stay
//! quick in debug builds; pass `--full` for the paper's 8K and 16K points
//! (use `--release`).
//!
//! Run with: `cargo run --release --example large_scale_miranda [-- --full]`

use perfdmf::core::{load_trial_filtered, DatabaseSession, LoadFilter};
use perfdmf::db::{Connection, Value};
use perfdmf::workload::MirandaModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// The system allocator, counting live bytes in [`LIVE`].
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static HEAP: Counting = Counting;

// SAFETY: every call forwards to `System` unchanged; only a counter moves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let proc_counts: &[usize] = if full {
        &[1024, 2048, 4096, 8192, 16384]
    } else {
        &[256, 512, 1024, 2048, 4096]
    };
    let model = MirandaModel::default();
    println!(
        "Miranda-shaped scale sweep: {} events per trial, 1 metric (WALL_CLOCK)",
        model.events
    );
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "procs",
        "data points",
        "gen (s)",
        "store (s)",
        "rss (MiB)",
        "heap (MiB)",
        "query (s)",
        "summ (s)"
    );

    for &procs in proc_counts {
        let conn = Connection::open_in_memory();
        let mut session = DatabaseSession::new(conn.clone()).unwrap();

        let t0 = Instant::now();
        let profile = model.generate(procs);
        let gen_s = t0.elapsed().as_secs_f64();
        let points = profile.data_point_count();

        let t0 = Instant::now();
        let trial_id = session.store_profile("miranda", "bgl", &profile).unwrap();
        let store_s = t0.elapsed().as_secs_f64();
        let rss = rss_mib();
        let heap = LIVE.load(Relaxed) as f64 / (1024.0 * 1024.0);

        // Representative analysis queries over the mass of data:
        let t0 = Instant::now();
        // (a) SQL aggregate across every location row
        let rs = conn
            .query(
                "SELECT COUNT(*), AVG(p.exclusive), MAX(p.exclusive)
                 FROM interval_event e
                 JOIN interval_location_profile p ON p.interval_event = e.id
                 WHERE e.trial = ?",
                &[Value::Int(trial_id)],
            )
            .unwrap();
        let row_count = rs.rows[0][0].as_int().unwrap();
        // (b) selective load of a single node (the partial-load API)
        let part = load_trial_filtered(
            &conn,
            trial_id,
            &LoadFilter {
                node: Some(0),
                ..Default::default()
            },
        )
        .unwrap();
        let query_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let m = profile.find_metric("WALL_CLOCK").unwrap();
        let totals = profile.total_summary(m);
        let summ_s = t0.elapsed().as_secs_f64();

        assert_eq!(row_count as usize, points, "no rows lost");
        assert_eq!(part.threads().len(), 1);
        assert_eq!(totals.len(), model.events);

        println!(
            "{procs:>8} {points:>12} {gen_s:>10.3} {store_s:>10.3} {rss:>10.1} {heap:>10.1} {query_s:>10.3} {summ_s:>10.3}"
        );
    }
    if full {
        println!("\n(16384 procs × 101 events = 1,654,784 data points — the paper's 1.6M)");
    } else {
        println!("\n(pass --full with --release for the paper's 8K/16K processor points)");
    }
}

/// The process's resident set size in MiB, read from `VmRSS` in
/// `/proc/self/status`; NaN where that file is not available.
fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
            line.split_whitespace().next()?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
