//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! tens of percent over minutes, with every operation of a run slowed
//! alike (see the README's steadiness section). So a fixed reference
//! computation, [`kernel`], is timed before the set-ups and after the
//! rounds of every run, outside the timed regions, and the run's timings
//! are rescaled by [`REF_KERNEL_MS`] over the kernel's time. A change
//! to the program moves the timings but not the kernel, which uses only
//! `std`; a host slowdown moves both, and cancels.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::util::Rng;

/// The kernel time, in ms, that timings are rescaled to: about its
/// [`host_ms`] on the 2-vCPU VM the benchmark was tuned on, in a fast
/// stretch.
pub const REF_KERNEL_MS: f64 = 2.0;

/// Kernel runs per calibration.
const REPS: usize = 3;

/// A fixed mix of the work the archive does: sorting, hashing, string
/// formatting, allocation and a strided pass over a buffer larger than
/// the L2 cache. Deterministic, and independent of the crates.
pub fn kernel() -> u64 {
    let mut rng = Rng::new(0x5eed);
    let mut keys: Vec<u64> = (0..1 << 14).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, &k) in keys.iter().step_by(4).enumerate() {
        map.insert(k, i as u64);
    }
    let mut acc = 0u64;
    for &k in keys.iter().step_by(2) {
        acc = acc.wrapping_add(map.get(&k).copied().unwrap_or(1));
    }
    let mut text = String::new();
    for &k in keys.iter().take(1024) {
        text.clear();
        text.push_str(&format!("{:.6}", k as f64 / 3.0));
        acc ^= text.len() as u64;
    }
    let buf: Vec<u64> = black_box(vec![1; 1 << 19]);
    for i in (0..buf.len()).step_by(8) {
        acc = acc.wrapping_add(buf[i]);
    }
    black_box(acc)
}

/// Time [`REPS`] kernel runs and append their times in ms. A short pause
/// first lets the pool's workers go idle, so they do not compete with it.
pub fn sample(into: &mut Vec<f64>) {
    std::thread::sleep(Duration::from_millis(2));
    for _ in 0..REPS {
        let t = Instant::now();
        black_box(kernel());
        into.push(t.elapsed().as_secs_f64() * 1e3);
    }
}

/// The host's kernel time over a run: the mean of the fastest nine
/// tenths of its samples. The host flips between a fast and a slow mode
/// within seconds, and the workload's operations, each tens of ms or
/// more, pay the average of the two; a median would jump between them.
/// Dropping the slowest tenth drops runs that an interrupt stretched.
pub fn host_ms(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate((v.len() * 9).div_ceil(10).max(1));
    v.iter().sum::<f64>() / v.len() as f64
}
