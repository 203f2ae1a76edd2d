// Fixture: `determinism-race` must fire five times inside the worker
// closures — a mutation method on a captured Vec, two assignments to
// captured variables, a `.lock()` acquisition, and a read-modify-write
// in the closure passed to the workspace's ordered fan-out. The
// `HashSet` token itself is no finding: clippy.toml bans the type
// everywhere, so the closure analysis leaves it to clippy.
pub fn stage(chunks: &[&[u32]], shared: &Mutex<Vec<u32>>) {
    std::thread::scope(|scope| {
        for chunk in chunks {
            scope.spawn(move || {
                for t in chunk {
                    results.push(work(*t));
                }
                total += chunk.len();
                let guard = shared.lock();
                seen = HashSet::new();
            });
        }
    });
}

pub fn fanned(paths: &[u32], hits: &AtomicUsize) -> Vec<usize> {
    par::fan_out(0..paths.len(), par::workers(0), 64, |range| {
        hits.fetch_add(range.len(), Ordering::Relaxed);
        range.len()
    })
}
