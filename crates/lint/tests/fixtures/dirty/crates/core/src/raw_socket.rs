// Fixture: `raw-socket` must fire — socket I/O is single-homed in
// `crates/svc`; everything else speaks cfs-api/1 through the client.
use std::net::TcpListener;

pub fn listen(addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let (stream, _) = listener.accept()?;
    drop(stream);
    let _datagram = std::os::unix::net::UnixDatagram::unbound()?;
    Ok(())
}
