//! The one ordered fan-out: every parallel stage of the workspace
//! (traceroute campaigns, remote-peering tests, follow-up probes, MIDAR
//! estimation, observation extraction) maps a pure function over
//! contiguous chunks of its input on scoped worker threads and merges
//! the results on the calling thread in chunk order. Work items are
//! deterministic per index, so the merged output is identical at any
//! worker count; only the wall clock differs.
//!
//! The worker is `Fn + Sync`: it can only read what it captures, so a
//! worker that mutates shared state does not compile, and one that
//! reaches for interior mutability is what cfs-lint's
//! `determinism-race` rule looks for in the closure passed here.

use std::ops::Range;

/// Effective worker count for a `threads` setting: `0` means the
/// available parallelism, and the result is clamped to `1..=16`.
pub fn workers(threads: usize) -> usize {
    let n = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    n.clamp(1, 16)
}

/// Runs `work` over `range` split into at most `workers` contiguous
/// chunks of `len.div_ceil(workers)` items, one scoped thread per chunk,
/// and returns the chunks' results in chunk order. With one worker,
/// fewer than `min` items or a single chunk, it runs `work(range)` on the
/// calling thread instead. A panicking worker panics the caller with
/// the worker's payload.
pub fn fan_out<T, F>(range: Range<usize>, workers: usize, min: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let len = range.len();
    if workers <= 1 || len < min.max(2) {
        return vec![work(range)];
    }
    let (chunk, end) = (len.div_ceil(workers), range.end);
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = range
            .step_by(chunk)
            .map(|lo| scope.spawn(move || work(lo..(lo + chunk).min(end))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Concatenates [`fan_out`]'s per-chunk lists in chunk order; a lone
/// chunk (the inline run) is returned as it is, not copied.
pub fn concat<T>(mut chunks: Vec<Vec<T>>) -> Vec<T> {
    match chunks.len() {
        1 => chunks.pop().unwrap_or_default(),
        _ => chunks.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN: usize = 8;

    fn squares(range: Range<usize>) -> Vec<usize> {
        range.map(|i| i * i).collect()
    }

    #[test]
    fn concatenated_chunks_equal_a_serial_map() {
        for workers in [1, 2, 3, 8, 16] {
            for len in [0, 1, MIN - 1, MIN, workers - 1, workers / 2, 100] {
                let out = concat(fan_out(5..5 + len, workers, MIN, squares));
                assert_eq!(out, squares(5..5 + len), "workers={workers}, len={len}");
            }
        }
    }

    #[test]
    fn chunks_are_contiguous_and_at_most_one_per_worker() {
        let chunks = fan_out(10..19, 4, 0, |r| r);
        assert_eq!(chunks, vec![10..13, 13..16, 16..19]);
        assert_eq!(fan_out(0..100, 3, 0, |r| r).len(), 3);
        // Below the minimum, or with one worker, one inline chunk.
        assert_eq!(fan_out(0..7, 8, 8, |r| r), vec![0..7]);
        assert_eq!(fan_out(0..100, 1, 0, |r| r), vec![0..100]);
        assert_eq!(fan_out(0..0, 8, 0, |r| r), vec![0..0]);
    }

    #[test]
    #[should_panic(expected = "worker 2 failed")]
    fn a_panicking_worker_panics_the_caller() {
        fan_out(0..64, 4, 0, |r| {
            if r.contains(&40) {
                panic!("worker 2 failed");
            }
            r.len()
        });
    }

    #[test]
    fn workers_reads_zero_as_every_core() {
        assert!((1..=16).contains(&workers(0)));
        assert_eq!(workers(1), 1);
        assert_eq!(workers(5), 5);
        assert_eq!(workers(64), 16);
    }
}
