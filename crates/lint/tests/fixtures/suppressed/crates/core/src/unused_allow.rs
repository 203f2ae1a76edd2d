// Fixture: a directive whose target line genuinely carries the named
// finding is *used*, so `unused-allow` stays quiet.
pub fn busy() {
    let _s = std::net::UdpSocket::bind(addr); // cfs-lint: allow(raw-socket) — fixture: the suppression is live
}
