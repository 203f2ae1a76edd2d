// Fixture: a justified allow naming a real rule produces no
// `unjustified-allow` finding.
pub fn tidy() {
    let _s = std::net::UdpSocket::bind(addr); // cfs-lint: allow(raw-socket) — fixture for the justified form
}
