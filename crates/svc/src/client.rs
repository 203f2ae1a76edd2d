//! The blocking line-oriented client `cfs query` and the tests use.
//!
//! Living here keeps raw socket use single-homed in `crates/svc`
//! (`clippy.toml` bans the socket types everywhere else): the rest of
//! the workspace talks to a daemon through [`Client`], never through
//! `std::net` directly.
#![expect(
    clippy::disallowed_types,
    reason = "the cfs-api/1 client is one of the two sanctioned homes of socket I/O"
)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

/// Where a daemon listens.
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:4015`.
    Tcp(String),
    /// A Unix socket path.
    Unix(PathBuf),
}

enum Stream {
    Tcp(BufReader<TcpStream>, TcpStream),
    Unix(BufReader<UnixStream>, UnixStream),
}

/// A connected `cfs-api/1` client.
pub struct Client {
    stream: Stream,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Self> {
        let stream = match endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                Stream::Tcp(BufReader::new(s.try_clone()?), s)
            }
            Endpoint::Unix(path) => {
                let s = UnixStream::connect(path)?;
                Stream::Unix(BufReader::new(s.try_clone()?), s)
            }
        };
        Ok(Self { stream })
    }

    /// Sends one request line and reads one response line. The newline
    /// is appended here; `request` must not contain one.
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<String> {
        let mut line = String::new();
        match &mut self.stream {
            Stream::Tcp(reader, writer) => {
                writer.write_all(request.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                reader.read_line(&mut line)?;
            }
            Stream::Unix(reader, writer) => {
                writer.write_all(request.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                reader.read_line(&mut line)?;
            }
        }
        if line.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection without responding",
            ));
        }
        Ok(line.trim_end_matches(['\n', '\r']).to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Reply, Request};
    use crate::server::{Outcome, Server};

    /// End-to-end over a real Unix socket: daemon thread + client
    /// roundtrips, including a malformed line and a shutdown.
    #[test]
    fn client_and_server_speak_over_a_unix_socket() {
        let dir = std::env::temp_dir().join(format!("cfs-svc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cfsd.sock");
        let server = Server::bind_unix(&path).unwrap();
        #[expect(clippy::disallowed_methods)] // test-only daemon thread, joined before exit
        let handle = std::thread::spawn(move || {
            server
                .serve(|req| match req {
                    Request::Status => Outcome::reply(Reply::ok().str("state", "serving").finish()),
                    Request::Shutdown => {
                        Outcome::last(Reply::ok().str("state", "stopping").finish())
                    }
                    _ => Outcome::reply(Reply::ok().finish()),
                })
                .unwrap();
        });

        let mut client = Client::connect(&Endpoint::Unix(path.clone())).unwrap();
        let status = client
            .roundtrip("{\"schema\":\"cfs-api/1\",\"op\":\"status\"}")
            .unwrap();
        assert!(status.contains("\"state\":\"serving\""));
        let bad = client.roundtrip("{broken").unwrap();
        assert!(bad.contains("\"ok\":false"));
        assert!(bad.contains("\"code\":\"bad_request\""));
        let bye = client
            .roundtrip("{\"schema\":\"cfs-api/1\",\"op\":\"shutdown\"}")
            .unwrap();
        assert!(bye.contains("\"state\":\"stopping\""));
        handle.join().unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    /// The same over TCP on an ephemeral port, with a read deadline
    /// armed: a client that hangs up without a request leaves the
    /// accept loop serving the next connection.
    #[test]
    fn client_and_server_speak_over_tcp() {
        let server = Server::bind_tcp("127.0.0.1:0")
            .unwrap()
            .with_read_deadline(Some(std::time::Duration::from_secs(30)));
        let addr = server.tcp_addr().unwrap();
        assert_ne!(addr.port(), 0, "port 0 resolves to the bound port");
        let addr = addr.to_string();
        #[expect(clippy::disallowed_methods)] // test-only daemon thread, joined before exit
        let handle = std::thread::spawn(move || {
            server
                .serve(|req| match req {
                    Request::Shutdown => Outcome::last(Reply::ok().finish()),
                    _ => Outcome::reply(Reply::ok().u64("answer", 42).finish()),
                })
                .unwrap();
        });
        drop(Client::connect(&Endpoint::Tcp(addr.clone())).unwrap());
        let mut client = Client::connect(&Endpoint::Tcp(addr)).unwrap();
        let reply = client
            .roundtrip("{\"schema\":\"cfs-api/1\",\"op\":\"status\"}")
            .unwrap();
        assert!(reply.contains("\"answer\":42"));
        client
            .roundtrip("{\"schema\":\"cfs-api/1\",\"op\":\"shutdown\"}")
            .unwrap();
        handle.join().unwrap();
    }
}
