//! The host-speed reference that the host-clock end-to-end metrics are
//! rescaled by.
//!
//! The benchmark runs on a shared VM. Another tenant's work on the
//! sibling hyperthread of the benchmark's core slows it by up to 1.9x, in
//! phases of 10 to 60 s, without any steal time: a run's raw median
//! depends on which phases it caught (see "Host speed" in `README.md`).
//! So each set-up and each replay is timed between two runs of a fixed
//! reference kernel, and its wall time is rescaled by how much slower
//! the kernel ran than on an uncontended core: the metrics read as the
//! wall time the same work takes on an uncontended core of the
//! development VM.
//!
//! The kernel has two parts, because contention does not slow all code
//! alike: independent float arithmetic over an L1-sized array slows the
//! most (up to 1.9x), an ordered map with allocation over an L2-sized
//! working set the least (1.4x), and the replay and set-up sit in
//! between. The speed factor is the geometric mean of the two parts'
//! factors. The kernel depends on nothing in the repository, so a change
//! to the program cannot move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The float part's wall time on an uncontended core of the
/// development VM (a shared 2-vCPU Intel Xeon VM), ms.
const FLOAT_UNCONTENDED_MS: f64 = 0.50;
/// The map part's wall time on the same core, ms.
const MAP_UNCONTENDED_MS: f64 = 2.45;

/// Wall time of one run of each reference part, ms.
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    float_ms: f64,
    map_ms: f64,
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64() * 1e3
}

/// Independent multiply-adds over 2048 floats, 1200 passes.
fn float_part() -> f64 {
    let mut values = vec![1.0f64; 2048];
    time_ms(|| {
        for pass in 0..1200 {
            let scale = 1.0 + f64::from(pass) * 1e-9;
            for value in values.iter_mut() {
                *value = *value * scale + 1e-12;
            }
        }
        black_box(&values);
    })
}

/// 20 000 xorshift-keyed inserts, updates and removals on a
/// `BTreeMap<u64, Vec<f64>>` of up to 4096 keys.
fn map_part() -> f64 {
    time_ms(|| {
        let mut map: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 4096;
            if i % 3 == 0 {
                map.remove(&key);
            } else {
                map.entry(key)
                    .or_insert_with(|| vec![0.0; 8])
                    .iter_mut()
                    .for_each(|v| *v += 1.0);
            }
        }
        black_box(map.len());
    })
}

/// Runs the reference kernel once.
pub fn measure() -> Speed {
    Speed {
        float_ms: float_part(),
        map_ms: map_part(),
    }
}

/// How many times slower than an uncontended core the host ran a piece
/// of work timed between `before` and `after`: multiply its wall time by
/// the inverse of this to rescale it.
pub fn slowdown(before: Speed, after: Speed) -> f64 {
    let float_ms = (before.float_ms + after.float_ms) / 2.0;
    let map_ms = (before.map_ms + after.map_ms) / 2.0;
    ((float_ms / FLOAT_UNCONTENDED_MS) * (map_ms / MAP_UNCONTENDED_MS)).sqrt()
}
