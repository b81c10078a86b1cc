//! A minimal blocking client for the serve protocol.
//!
//! One [`Client`] wraps one TCP connection and drives the strict
//! request → response alternation the protocol defines. The load
//! generator opens many of these (one per concurrent connection), the
//! integration suite uses them to script exact scenarios, and the
//! `dtm-dist` coordinator builds its per-worker channels out of them —
//! which is why the client carries its own connect and read timeouts:
//! a retry loop must never block forever on a half-dead TCP peer. A
//! connection that fails or times out is dropped, and the caller dials
//! a fresh [`Client`].

use crate::protocol::{write_frame, FrameReader, ReadOutcome, Request, Response, ServerInfo};
use crate::request::SimRequest;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A connected protocol client.
///
/// The single `TcpStream` serves both directions ([`write_frame`]
/// issues one `write_all`, so no write buffering is needed).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    read_timeout: Option<Duration>,
}

impl Client {
    /// Connects to a server (no timeouts: reads block indefinitely).
    ///
    /// # Errors
    ///
    /// Propagates resolution and connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects with a bounded connect timeout (first resolved
    /// address).
    ///
    /// # Errors
    ///
    /// Propagates resolution and connection failures.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
        })?;
        Client::from_stream(TcpStream::connect_timeout(&addr, timeout)?)
    }

    /// A client over a freshly connected stream.
    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            reader: FrameReader::new(),
            read_timeout: None,
        })
    }

    /// Bounds every subsequent response wait: a [`Client::call`] whose
    /// reply does not arrive within `timeout` fails with
    /// `io::ErrorKind::TimedOut` instead of blocking forever.
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn with_read_timeout(mut self, timeout: Duration) -> io::Result<Client> {
        self.stream.set_read_timeout(Some(timeout))?;
        self.read_timeout = Some(timeout);
        Ok(self)
    }

    /// Sends one request and blocks for its response, honoring the
    /// configured read timeout (if any).
    ///
    /// # Errors
    ///
    /// I/O errors, `TimedOut` when the read timeout elapses, a
    /// mid-response hangup, or an undecodable response.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.call_inner(request, self.read_timeout)
    }

    /// Like [`Client::call`], but with an explicit overall deadline for
    /// this one exchange (overriding the configured read timeout).
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn call_deadline(&mut self, request: &Request, deadline: Duration) -> io::Result<Response> {
        let prev = self.stream.read_timeout()?;
        let out = self.call_inner(request, Some(deadline));
        // Restore the standing timeout whatever happened.
        let _ = self.stream.set_read_timeout(prev);
        out
    }

    fn call_inner(&mut self, request: &Request, budget: Option<Duration>) -> io::Result<Response> {
        write_frame(&mut &self.stream, &request.encode())?;
        let start = Instant::now();
        loop {
            if let Some(budget) = budget {
                let remaining = budget
                    .checked_sub(start.elapsed())
                    .unwrap_or(Duration::ZERO);
                if remaining.is_zero() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("no response within {budget:?}"),
                    ));
                }
                self.stream.set_read_timeout(Some(remaining))?;
            }
            match self.reader.read(&mut &self.stream)? {
                ReadOutcome::Frame(payload) => {
                    return Response::decode(&payload)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
                }
                ReadOutcome::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server hung up before responding",
                    ));
                }
                ReadOutcome::TimedOut => {
                    // With an explicit budget the loop re-checks the
                    // remaining time; with only a standing read timeout
                    // the timeout IS the budget.
                    if budget.is_none() {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "no response within the read timeout",
                        ));
                    }
                }
            }
        }
    }

    /// Convenience: one simulate round-trip.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn simulate(&mut self, req: SimRequest) -> io::Result<Response> {
        self.call(&Request::Simulate(Box::new(req)))
    }

    /// Convenience: fetches the Prometheus metrics dump.
    ///
    /// # Errors
    ///
    /// See [`Client::call`]; also errors if the server answers with
    /// anything but a metrics payload.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected metrics, got {other:?}"),
            )),
        }
    }

    /// Convenience: liveness probe.
    ///
    /// # Errors
    ///
    /// See [`Client::call`]; errors unless the server answers `pong`.
    pub fn ping(&mut self) -> io::Result<()> {
        self.ping_info().map(|_| ())
    }

    /// Liveness probe returning the server's version/capability
    /// payload — `None` when the server predates the handshake.
    ///
    /// # Errors
    ///
    /// See [`Client::call`]; errors unless the server answers `pong`.
    pub fn ping_info(&mut self) -> io::Result<Option<ServerInfo>> {
        match self.call(&Request::Ping)? {
            Response::Pong { info } => Ok(info),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected pong, got {other:?}"),
            )),
        }
    }

    /// Convenience: requests a server shutdown.
    ///
    /// # Errors
    ///
    /// See [`Client::call`]; errors unless the server acknowledges.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected shutdown ack, got {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn read_timeout_fires_against_a_silent_listener() {
        // A listener that accepts and then says nothing — the shape of
        // a half-dead peer. The client must fail with TimedOut in
        // bounded time instead of hanging.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            // Keep the accepted socket alive long enough for the
            // client to time out (dropping it would EOF instead).
            let (sock, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(2));
            drop(sock);
        });

        let t0 = Instant::now();
        let mut client = Client::connect_timeout(addr, Duration::from_secs(1))
            .unwrap()
            .with_read_timeout(Duration::from_millis(100))
            .unwrap();
        let err = client.ping().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "timed out promptly, not after {:?}",
            t0.elapsed()
        );

        // An explicit per-call deadline works too, and overrides the
        // standing timeout.
        let t1 = Instant::now();
        let err = client
            .call_deadline(&Request::Ping, Duration::from_millis(300))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        let waited = t1.elapsed();
        assert!(
            waited >= Duration::from_millis(250) && waited < Duration::from_secs(1),
            "deadline governed the wait: {waited:?}"
        );
        hold.join().unwrap();
    }
}
