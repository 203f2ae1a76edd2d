//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! tens of percent over minutes as other tenants come and go: on a
//! shared 2-vCPU Xeon virtual machine, the median of the same 40
//! campaign deltas ranged from 583 to 955 ms over one hour, far more
//! than any regression bound. So every run also times a fixed reference
//! routine that does not depend on the program under test, at fixed
//! points of the run while nothing else is busy, and every end-to-end
//! time is reported scaled by [`REFERENCE_MS`] over the median of those
//! timings: the time the run would have taken on a host where the
//! routine takes [`REFERENCE_MS`]. The measured median is reported as
//! the per-layer `host.ref_ms`, so the wall-clock values can be
//! recovered.
//!
//! The routine is integer arithmetic over an array that stays in the L1
//! cache, so it measures how fast the core runs at the moment (the share
//! a hyperthread sibling leaves it), the part of the drift that slows
//! every program alike. A routine bound by random memory access was
//! tried first: it reacts to the host more strongly than `cfs` does, and
//! scaling by it left `batch_paper` and `query_steady` noisier than not
//! scaling at all.

use std::time::Instant;

use crate::stats;

/// What the reference routine takes on the host the reported times are
/// scaled to, in ms (roughly its median on that 2.1 GHz Xeon machine).
pub const REFERENCE_MS: f64 = 9.0;

/// Reference runs in one calibration burst.
pub const BURST: usize = 16;

/// Times the reference routine `runs` times, appending each wall time in
/// ms to `out`.
pub fn calibrate(out: &mut Vec<f64>, runs: usize) {
    for _ in 0..runs {
        out.push(reference_ms());
    }
}

/// The factor that scales a time measured during a run to the reference
/// host, from the run's calibration timings.
pub fn scale(ref_ms: &[f64]) -> Result<f64, String> {
    let median = stats::median(ref_ms).ok_or("no calibration timings")?;
    Ok(REFERENCE_MS / median)
}

/// One run of the reference routine, in ms: 3.2 million xorshift steps
/// folded into a 64-word array.
fn reference_ms() -> f64 {
    let t = Instant::now();
    let mut words = [0u64; 64];
    let mut x: u64 = 7;
    for round in 0..50_000u32 {
        for (i, w) in (0u32..).zip(words.iter_mut()) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = w.wrapping_add(x.rotate_left((i + round) & 63));
        }
    }
    std::hint::black_box(&words);
    t.elapsed().as_secs_f64() * 1e3
}
