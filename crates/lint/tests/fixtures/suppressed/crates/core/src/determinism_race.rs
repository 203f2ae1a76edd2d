// Fixture: justified suppressions silence `determinism-race`.
pub fn stage(chunks: &[&[u32]], shared: &Mutex<Vec<u32>>) {
    std::thread::scope(|scope| {
        for chunk in chunks {
            scope.spawn(move || {
                for t in chunk {
                    results.push(work(*t)); // cfs-lint: allow(determinism-race) — fixture: results re-sorted by key before reporting
                }
                total += chunk.len(); // cfs-lint: allow(determinism-race) — fixture: a commutative counter, merge order cannot show
                let guard = shared.lock(); // cfs-lint: allow(determinism-race) — fixture: lock guards an append-only log, drained sorted
                seen = HashSet::new(); // cfs-lint: allow(determinism-race) — fixture: the captured set is rebuilt, never read back
            });
        }
    });
}

pub fn fanned(paths: &[u32], hits: &AtomicUsize) -> Vec<usize> {
    par::fan_out(0..paths.len(), par::workers(0), 64, |range| {
        hits.fetch_add(range.len(), Ordering::Relaxed); // cfs-lint: allow(determinism-race) — fixture: a commutative counter read only after the join
        range.len()
    })
}
