// Fixture: `determinism-race` must fire four times inside the worker
// closure — a mutation method on a captured Vec, two assignments to
// captured variables, and a `.lock()` acquisition. The `HashSet` token
// itself is no finding: clippy.toml bans the type everywhere, so the
// closure analysis leaves it to clippy.
pub fn stage(chunks: &[&[u32]], shared: &Mutex<Vec<u32>>) {
    crossbeam::thread::scope(|scope| {
        for chunk in chunks {
            scope.spawn(move |_| {
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
