// Fixture: `unused-allow` must fire when a justified directive names a
// real rule but its target line carries no such finding — the directive
// is stale and hides nothing.
pub fn spotless() {
    let x = 1; // cfs-lint: allow(raw-socket) — stale: nothing here opens a socket
    let _ = x;
}
