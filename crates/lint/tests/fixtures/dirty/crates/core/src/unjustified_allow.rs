// Fixture: `unjustified-allow` must fire twice — a suppression with no
// justification text, and one naming a rule that does not exist. The
// bare allow still suppresses its raw-socket finding (the directive
// works; its missing justification is the finding).
pub fn sloppy() {
    let _s = std::net::UdpSocket::bind(addr); // cfs-lint: allow(raw-socket)
}

// cfs-lint: allow(no-such-rule) — the rule name is wrong on purpose
pub fn misnamed() {}
