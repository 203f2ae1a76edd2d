// Fixture: justified suppressions silence `determinism-race`.
pub fn stage(chunks: &[&[u32]], shared: &Mutex<Vec<u32>>) {
    crossbeam::thread::scope(|scope| {
        for chunk in chunks {
            scope.spawn(move |_| {
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
