//! Shared helpers for the PerfDMF benchmark harness.
//!
//! Each bench target regenerates one experiment from the paper's
//! evaluation (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded results).

#![warn(unreachable_pub)]

use perfdmf_core::DatabaseSession;
use perfdmf_db::Connection;
use perfdmf_profile::Profile;

/// True when `PERFDMF_BENCH_QUICK` is set: size sweeps shrink to their
/// smallest point so CI can smoke-test the whole harness in seconds.
pub fn quick() -> bool {
    std::env::var_os("PERFDMF_BENCH_QUICK").is_some()
}

/// The full size sweep, or only its first (smallest) entry in quick mode.
pub fn sizes(full: &[usize]) -> Vec<usize> {
    if quick() {
        full[..1].to_vec()
    } else {
        full.to_vec()
    }
}

/// Store a profile in a fresh in-memory database; returns (connection,
/// trial id).
pub fn store_fresh(profile: &Profile) -> (Connection, i64) {
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).expect("schema");
    let trial = session
        .store_profile("bench", "bench", profile)
        .expect("store");
    (conn, trial)
}

/// Deterministic row-major data for clustering benches: `n` rows in `k`
/// well-separated blobs of dimension `d`.
pub fn blob_data(n: usize, d: usize, k: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|c| {
            (0..d)
                .map(|j| (c * 37 + j * 11) as f64 % 23.0 * 5.0)
                .collect()
        })
        .collect();
    let mut data = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % k;
        labels.push(c);
        data.push(
            centers[c]
                .iter()
                .map(|&x| x + rng.gen_range(-1.0..1.0))
                .collect(),
        );
    }
    (data, labels)
}
