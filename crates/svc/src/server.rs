//! The `cfsd` daemon loop: a deliberately single-threaded accept loop
//! over a TCP or Unix socket.
//!
//! One thread, one connection at a time, one request line → one response
//! line. The session behind the dispatch function is `&mut` state with
//! no locks — serialization *is* the concurrency model, exactly like the
//! engine's submission-order merges: answers depend only on the order
//! requests arrive, never on scheduling.
//!
//! Because one connection at a time is the whole model, one *client* can
//! wedge the daemon in two ways a multi-threaded server shrugs off:
//! holding the connection open without ever finishing a line (the read
//! deadline drops it), or streaming an unbounded line that would grow
//! the daemon's buffer without limit (the request-line cap answers
//! `bad_request` and drops it). Both bounds live here in the transport;
//! dispatch never sees the abuse.
//!
//! Malformed or unversioned lines are answered in the loop with the
//! typed errors of [`crate::proto`]; the embedder's dispatch function
//! only ever sees well-formed [`Request`]s.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::time::Duration;

use crate::proto::{parse_request, ApiError, Request};

/// Hard cap on one request line, bytes (newline excluded). `cfs-api/1`
/// requests are a few hundred bytes; anything past this is a runaway or
/// hostile client, not a request.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// What the dispatch function returns: the response line (without
/// newline) and whether the daemon should stop after sending it.
pub struct Outcome {
    /// The `cfs-api/1` response line.
    pub response: String,
    /// `true` to stop accepting after this response ([`Request::Shutdown`]).
    pub shutdown: bool,
}

impl Outcome {
    /// A keep-serving outcome.
    pub fn reply(response: String) -> Self {
        Self {
            response,
            shutdown: false,
        }
    }

    /// A stop-after-this outcome.
    pub fn last(response: String) -> Self {
        Self {
            response,
            shutdown: true,
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// The daemon's listening socket.
pub struct Server {
    listener: Listener,
    read_deadline: Option<Duration>,
}

impl Server {
    /// Binds a TCP listener (e.g. `127.0.0.1:4015`).
    pub fn bind_tcp(addr: &str) -> std::io::Result<Self> {
        Ok(Self {
            listener: Listener::Tcp(TcpListener::bind(addr)?),
            read_deadline: None,
        })
    }

    /// Binds a Unix socket, replacing a stale socket file from a
    /// previous daemon if one is in the way.
    pub fn bind_unix(path: &Path) -> std::io::Result<Self> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        Ok(Self {
            listener: Listener::Unix(UnixListener::bind(path)?),
            read_deadline: None,
        })
    }

    /// Sets the per-connection read deadline: a connection that goes
    /// this long without completing a request line is dropped (the
    /// daemon keeps accepting). `None` — the default — waits forever,
    /// which is fine for trusted local sockets.
    pub fn with_read_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.read_deadline = deadline.filter(|d| !d.is_zero());
        self
    }

    /// The bound TCP address, when listening on TCP (useful with port 0).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        }
    }

    /// Runs the accept loop until a dispatch returns
    /// [`Outcome::shutdown`] or accepting fails. Connection-level I/O
    /// errors (a client hanging up mid-line, a read past the deadline)
    /// drop that connection and keep serving.
    pub fn serve(self, mut dispatch: impl FnMut(Request) -> Outcome) -> std::io::Result<()> {
        let deadline = self.read_deadline;
        match self.listener {
            Listener::Tcp(listener) => accept_loop(
                listener.incoming(),
                |s| s.set_read_timeout(deadline).and_then(|()| s.try_clone()),
                &mut dispatch,
            ),
            Listener::Unix(listener) => accept_loop(
                listener.incoming(),
                |s| s.set_read_timeout(deadline).and_then(|()| s.try_clone()),
                &mut dispatch,
            ),
        }
    }
}

/// The one accept loop both transports share: one connection at a time
/// (`reader` arms the read deadline and returns the reading handle),
/// until a shutdown is acknowledged or accepting fails.
fn accept_loop<S: Read + Write>(
    incoming: impl Iterator<Item = std::io::Result<S>>,
    reader: impl Fn(&S) -> std::io::Result<S>,
    dispatch: &mut impl FnMut(Request) -> Outcome,
) -> std::io::Result<()> {
    for stream in incoming {
        let stream = stream?;
        if serve_connection(BufReader::new(reader(&stream)?), stream, dispatch)? {
            return Ok(());
        }
    }
    Ok(())
}

/// Reads one `\n`-terminated line of at most [`MAX_REQUEST_LINE`] bytes.
///
/// * `Ok(Some(line))` — a complete line (newline stripped).
/// * `Ok(None)` — clean end of stream before any byte of a new line.
/// * `Err(Overflow)` — the cap was hit before a newline arrived.
/// * `Err(Io)` — the client hung up mid-line or a read timed out.
enum LineError {
    Overflow,
    Io,
}

fn read_bounded_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, LineError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(_) => return Err(LineError::Io),
        };
        if chunk.is_empty() {
            // EOF: a partial unterminated line is I/O noise, a clean
            // boundary is end-of-connection.
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(LineError::Io)
            };
        }
        match chunk.iter().position(|b| *b == b'\n') {
            Some(newline) => {
                if buf.len() + newline > MAX_REQUEST_LINE {
                    return Err(LineError::Overflow);
                }
                buf.extend_from_slice(&chunk[..newline]);
                reader.consume(newline + 1);
                return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
            }
            None => {
                let take = chunk.len();
                if buf.len() + take > MAX_REQUEST_LINE {
                    return Err(LineError::Overflow);
                }
                buf.extend_from_slice(chunk);
                reader.consume(take);
            }
        }
    }
}

/// Serves one connection; returns `Ok(true)` when a shutdown was
/// requested and acknowledged.
fn serve_connection<R: BufRead, W: Write>(
    mut reader: R,
    mut writer: W,
    dispatch: &mut impl FnMut(Request) -> Outcome,
) -> std::io::Result<bool> {
    loop {
        let line = match read_bounded_line(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(false), // clean end of connection
            Err(LineError::Io) => return Ok(false), // hang-up or deadline; keep serving
            Err(LineError::Overflow) => {
                // Tell the client why before cutting it loose; the rest
                // of its stream is undelimited garbage by definition.
                let e = ApiError::new(
                    "bad_request",
                    format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                );
                let _ = writer
                    .write_all(e.to_response().as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush());
                return Ok(false);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = match parse_request(&line) {
            Err(e) => (e.to_response(), false),
            Ok(req) => {
                let outcome = dispatch(req);
                (outcome.response, outcome.shutdown)
            }
        };
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            return Ok(false); // client gone before the answer; keep serving
        }
        if shutdown {
            return Ok(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Reply;

    #[test]
    fn connection_loop_answers_parse_errors_without_dispatch() {
        let input = b"{nonsense\n{\"schema\":\"cfs-api/1\",\"op\":\"status\"}\n".to_vec();
        let mut out = Vec::new();
        let mut dispatched = 0;
        let done = serve_connection(&input[..], &mut out, &mut |req| {
            dispatched += 1;
            assert_eq!(req, Request::Status);
            Outcome::reply(Reply::ok().str("state", "serving").finish())
        })
        .unwrap();
        assert!(!done);
        assert_eq!(dispatched, 1, "malformed line must not reach dispatch");
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"code\":\"bad_request\""));
        assert!(lines[1].contains("\"state\":\"serving\""));
    }

    #[test]
    fn shutdown_outcome_ends_the_loop_after_responding() {
        let input =
            b"{\"schema\":\"cfs-api/1\",\"op\":\"shutdown\"}\n{\"schema\":\"cfs-api/1\",\"op\":\"status\"}\n"
                .to_vec();
        let mut out = Vec::new();
        let mut dispatched = 0;
        let done = serve_connection(&input[..], &mut out, &mut |req| {
            dispatched += 1;
            match req {
                Request::Shutdown => Outcome::last(Reply::ok().str("state", "stopping").finish()),
                _ => Outcome::reply(Reply::ok().finish()),
            }
        })
        .unwrap();
        assert!(done);
        assert_eq!(dispatched, 1, "requests after shutdown must not dispatch");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let input = b"\n  \n{\"schema\":\"cfs-api/1\",\"op\":\"status\"}\n".to_vec();
        let mut out = Vec::new();
        serve_connection(&input[..], &mut out, &mut |_| {
            Outcome::reply(Reply::ok().finish())
        })
        .unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 1);
    }

    #[test]
    fn oversized_request_line_is_refused_without_dispatch() {
        // A line one byte past the cap, then a well-formed request the
        // connection never gets to: overflow drops the connection.
        let mut input = vec![b'x'; MAX_REQUEST_LINE + 1];
        input.push(b'\n');
        input.extend_from_slice(b"{\"schema\":\"cfs-api/1\",\"op\":\"status\"}\n");
        let mut out = Vec::new();
        let mut dispatched = 0;
        let done = serve_connection(&input[..], &mut out, &mut |_| {
            dispatched += 1;
            Outcome::reply(Reply::ok().finish())
        })
        .unwrap();
        assert!(!done);
        assert_eq!(dispatched, 0, "overflow must never reach dispatch");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"code\":\"bad_request\""), "{text}");
        assert!(text.contains("exceeds"), "{text}");
    }

    #[test]
    fn lines_at_the_cap_still_parse() {
        // Exactly MAX_REQUEST_LINE bytes: refused by the parser (it is
        // not valid JSON) but NOT by the length guard — the error code
        // still flows back and the connection stays up for the next
        // request.
        let mut input = vec![b'y'; MAX_REQUEST_LINE];
        input.push(b'\n');
        input.extend_from_slice(b"{\"schema\":\"cfs-api/1\",\"op\":\"status\"}\n");
        let mut out = Vec::new();
        let mut dispatched = 0;
        serve_connection(&input[..], &mut out, &mut |_| {
            dispatched += 1;
            Outcome::reply(Reply::ok().finish())
        })
        .unwrap();
        assert_eq!(dispatched, 1, "the follow-up request must dispatch");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn mid_line_hangup_keeps_the_loop_alive() {
        let input = b"{\"schema\":\"cfs-api/1\"".to_vec(); // no newline, then EOF
        let mut out = Vec::new();
        let done = serve_connection(&input[..], &mut out, &mut |_| {
            Outcome::reply(Reply::ok().finish())
        })
        .unwrap();
        assert!(!done);
        assert!(out.is_empty());
    }
}
