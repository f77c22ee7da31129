//! Persistent-connection framing: buffered, pipelined request reads and
//! deadline-bounded response writes over one [`TcpStream`].
//!
//! A [`Conn`] owns the socket and a receive buffer that survives across
//! requests, so bytes of a pipelined second request read together with
//! the first are not lost. The socket is nonblocking and reads and
//! writes park in [`crate::poll::wait_fd`] under an explicit deadline.

use crate::http::{self, Request, RequestError, Response};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::poll;
use std::os::unix::io::{AsRawFd, RawFd};

/// What a connection should do after a response was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum After {
    /// More request bytes are already buffered (pipelining): serve the
    /// next request immediately, without going back through the poller.
    Buffered,
    /// Nothing buffered and no data pending: park the connection in the
    /// event loop's idle set until it turns readable or times out.
    Idle,
    /// The peer closed (or the socket failed): drop the connection.
    Closed,
}

/// One client connection with its cross-request receive buffer.
pub(crate) struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Requests served on this connection so far (maintained by the
    /// server; `> 0` means the connection was reused).
    pub(crate) served: u64,
    /// When the connection last finished a request (or was accepted);
    /// the event loop expires idle connections against this.
    pub(crate) idle_since: Instant,
}

impl Conn {
    /// Wraps an accepted stream: disables Nagle and switches the socket
    /// to nonblocking mode for readiness-driven I/O.
    ///
    /// # Errors
    ///
    /// When the socket options cannot be set.
    pub(crate) fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            served: 0,
            idle_since: Instant::now(),
        })
    }

    /// The raw descriptor, for the event loop's poll set.
    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Reads and frames the next request, completing within `timeout`.
    ///
    /// Consumes exactly one request's bytes from the buffer; bytes of a
    /// pipelined successor stay buffered for the next call.
    ///
    /// # Errors
    ///
    /// [`RequestError::Closed`] on a clean close at a request boundary,
    /// [`RequestError::TimedOut`] when the deadline passes, and the
    /// parse-level `TooLarge`/`Malformed` errors from [`http`].
    pub(crate) fn next_request(&mut self, timeout: Duration) -> Result<Request, RequestError> {
        let deadline = Instant::now() + timeout;
        // Head: buffer until the blank line (or the size cap trips).
        let head_end = loop {
            match http::find_head_end(&self.buf)? {
                Some(end) => break end,
                None => self.fill(deadline)?,
            }
        };
        let mut request = http::parse_head(&self.buf[..head_end])?;
        let length = http::content_length(&request)?;
        while self.buf.len() < head_end + length {
            self.fill(deadline).map_err(|e| match e {
                // EOF mid-body is a protocol violation, not a clean close.
                RequestError::Closed => {
                    RequestError::Malformed("connection closed mid-body".into())
                }
                other => other,
            })?;
        }
        request.body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok(request)
    }

    /// Serializes and writes `response`, bounded by `timeout`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] when the peer stops reading, or any
    /// underlying socket error.
    pub(crate) fn write_response(
        &mut self,
        response: &Response,
        keep_alive: bool,
        allow_chunked: bool,
        timeout: Duration,
    ) -> io::Result<()> {
        let mut out = Vec::with_capacity(response.body.len() + 256);
        response.write_to(&mut out, keep_alive, allow_chunked)?;
        self.write_all_deadline(&out, Instant::now() + timeout)
    }

    /// What to do with the connection after a keep-alive response.
    pub(crate) fn after_response(&mut self) -> After {
        self.served += 1;
        self.idle_since = Instant::now();
        if !self.buf.is_empty() {
            return After::Buffered;
        }
        // Probe without blocking: data already in the socket buffer is
        // a pipelined request we should serve now; EOF is a close.
        let mut probe = [0u8; 4096];
        match self.stream.read(&mut probe) {
            Ok(0) => After::Closed,
            Ok(n) => {
                self.buf.extend_from_slice(&probe[..n]);
                After::Buffered
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => After::Idle,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => After::Idle,
            Err(_) => After::Closed,
        }
    }

    /// Reads at least one more byte into the buffer, waiting for
    /// readiness up to `deadline`.
    fn fill(&mut self, deadline: Instant) -> Result<(), RequestError> {
        let mut chunk = [0u8; 8192];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(if self.buf.is_empty() {
                        RequestError::Closed
                    } else {
                        RequestError::Malformed("connection closed mid-request".into())
                    })
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.wait_readable(deadline)?;
                }
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    return Err(RequestError::TimedOut)
                }
                Err(e) => return Err(RequestError::Io(e.to_string())),
            }
        }
    }

    fn wait_readable(&mut self, deadline: Instant) -> Result<(), RequestError> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(RequestError::TimedOut);
        }
        match poll::wait_fd(self.fd(), poll::POLLIN, Some(remaining)) {
            Ok(true) => Ok(()),
            Ok(false) => Err(RequestError::TimedOut),
            Err(e) => Err(RequestError::Io(e.to_string())),
        }
    }

    fn write_all_deadline(&mut self, bytes: &[u8], deadline: Instant) -> io::Result<()> {
        let mut written = 0;
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    if !poll::wait_fd(self.fd(), poll::POLLOUT, Some(remaining))? {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                }
                Err(e) => return Err(e),
            }
        }
        self.stream.flush()
    }
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn")
            .field("peer", &self.stream.peer_addr().ok())
            .field("buffered", &self.buf.len())
            .field("served", &self.served)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (client, Conn::new(accepted).unwrap())
    }

    #[test]
    fn frames_two_pipelined_requests_from_one_write() {
        let (mut client, mut conn) = pair();
        client
            .write_all(
                b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                  GET /b HTTP/1.1\r\nHost: t\r\n\r\n",
            )
            .unwrap();
        let first = conn.next_request(Duration::from_secs(5)).unwrap();
        assert_eq!((first.method.as_str(), first.path.as_str()), ("POST", "/a"));
        assert_eq!(first.body, b"hi");
        assert_eq!(conn.after_response(), After::Buffered, "pipelined bytes");
        let second = conn.next_request(Duration::from_secs(5)).unwrap();
        assert_eq!(second.path, "/b");
        assert!(second.body.is_empty());
    }

    #[test]
    fn read_deadline_and_clean_close_are_distinguished() {
        let (client, mut conn) = pair();
        assert!(matches!(
            conn.next_request(Duration::from_millis(40)),
            Err(RequestError::TimedOut)
        ));
        drop(client);
        assert!(matches!(
            conn.next_request(Duration::from_secs(5)),
            Err(RequestError::Closed)
        ));
    }

    #[test]
    fn eof_mid_request_is_malformed_not_closed() {
        let (mut client, mut conn) = pair();
        client.write_all(b"POST /a HTTP/1.1\r\nConte").unwrap();
        drop(client);
        assert!(matches!(
            conn.next_request(Duration::from_secs(5)),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn responses_round_trip_through_the_deadline_writer() {
        let (mut client, mut conn) = pair();
        let response = Response::text(200, "pong\n");
        conn.write_response(&response, false, true, Duration::from_secs(5))
            .unwrap();
        drop(conn);
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        assert!(raw.contains("Connection: close\r\n"), "{raw}");
        assert!(raw.ends_with("pong\n"), "{raw}");
    }
}
