//! Wire protocol: length-prefixed JSON frames and the request/response
//! vocabulary.
//!
//! A frame is a big-endian `u32` payload length followed by that many
//! bytes of UTF-8 JSON. Both directions use the same framing; a
//! connection carries a strict request → response alternation. The
//! payload vocabulary is deliberately small — four request verbs, seven
//! response verbs — and every message is a JSON object whose `verb`
//! field selects the variant, so the protocol stays greppable in a
//! packet capture. Unknown verbs, and fields a `simulate` request does
//! not know, are an explicit error response, not a dead connection.

use crate::request::SimRequest;
use dtm_core::RunResult;
use dtm_harness::codec::{result_from_json, result_to_json};
use dtm_harness::json::Json;
use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload, server- and client-side.
/// A simulate request or a result response is tens of KiB at most;
/// anything near this limit is a corrupt or hostile length prefix, and
/// rejecting it keeps one connection from ballooning the server's
/// memory.
pub const MAX_FRAME: u32 = 4 * 1024 * 1024;

/// A typed framing violation, carried as the source of the `io::Error`
/// the codec functions return. Callers that need to distinguish "the
/// peer is speaking garbage" (drop the worker) from transient socket
/// errors (retry) classify with [`ProtocolError::classify`] instead of
/// string-matching error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// A length prefix (or outgoing payload) exceeded [`MAX_FRAME`].
    Oversize {
        /// The offending length, in bytes.
        len: u64,
    },
    /// The connection closed mid-frame (torn header or short payload).
    Truncated,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Oversize { len } => {
                write!(f, "frame of {len} B exceeds MAX_FRAME ({MAX_FRAME} B)")
            }
            ProtocolError::Truncated => write!(f, "connection closed mid-frame"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl ProtocolError {
    /// Extracts the protocol violation behind an `io::Error`, if that
    /// is what it wraps.
    pub fn classify(e: &io::Error) -> Option<ProtocolError> {
        e.get_ref()
            .and_then(|inner| inner.downcast_ref::<ProtocolError>())
            .copied()
    }

    fn oversize(len: u64) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, ProtocolError::Oversize { len })
    }

    fn truncated() -> io::Error {
        io::Error::new(io::ErrorKind::UnexpectedEof, ProtocolError::Truncated)
    }
}

/// Writes one frame as a single buffered `write_all` (header and
/// payload in one syscall on the happy path).
///
/// # Errors
///
/// Propagates I/O errors; refuses payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(ProtocolError::oversize(payload.len() as u64));
    }
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Reads one frame from a blocking stream.
///
/// Returns `Ok(None)` on a clean EOF *at a frame boundary* (the peer
/// hung up between requests); EOF mid-frame is an error. Only suitable
/// for sockets without read timeouts — the server side uses
/// [`FrameReader`], which survives timeouts with partial bytes buffered.
///
/// # Errors
///
/// Propagates I/O errors; rejects length prefixes over [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    // First byte by hand so a boundary EOF is distinguishable from a
    // torn header.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    len[0] = first[0];
    r.read_exact(&mut len[1..]).map_err(truncation)?;
    let n = u32::from_be_bytes(len);
    if n > MAX_FRAME {
        return Err(ProtocolError::oversize(u64::from(n)));
    }
    let mut payload = vec![0u8; n as usize];
    r.read_exact(&mut payload).map_err(truncation)?;
    Ok(Some(payload))
}

/// Maps a mid-frame `UnexpectedEof` onto the typed
/// [`ProtocolError::Truncated`]; other I/O errors pass through.
fn truncation(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        ProtocolError::truncated()
    } else {
        e
    }
}

/// Outcome of one [`FrameReader::read`] attempt.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// The socket's read timeout elapsed; any partial bytes stay
    /// buffered and the next call resumes where this one stopped.
    TimedOut,
}

/// Incremental frame reader for sockets with a read timeout.
///
/// Server connection handlers poll their socket with a short timeout so
/// they can notice the drain flag between requests. A timeout can land
/// mid-frame; this reader keeps whatever bytes arrived in an internal
/// buffer, so no byte is ever dropped across attempts (which plain
/// `read_exact` cannot guarantee).
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        FrameReader::default()
    }

    fn try_extract(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let n = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if n > MAX_FRAME {
            return Err(ProtocolError::oversize(u64::from(n)));
        }
        let total = 4 + n as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(payload))
    }

    /// Reads until one complete frame, EOF, or the stream's read
    /// timeout.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (including EOF mid-frame) and oversized
    /// length prefixes.
    pub fn read(&mut self, stream: &mut impl Read) -> io::Result<ReadOutcome> {
        loop {
            if let Some(frame) = self.try_extract()? {
                return Ok(ReadOutcome::Frame(frame));
            }
            let mut chunk = [0u8; 16 * 1024];
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(ReadOutcome::Eof)
                    } else {
                        Err(ProtocolError::truncated())
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(ReadOutcome::TimedOut);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or serve from cache) one simulation. Boxed: a `SimRequest`
    /// carries full config overrides and dwarfs the other variants.
    Simulate(Box<SimRequest>),
    /// Dump the server's metrics in Prometheus text exposition format.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain and exit.
    Shutdown,
}

impl Request {
    /// Encodes the request as a JSON payload.
    pub fn encode(&self) -> Vec<u8> {
        let json = match self {
            Request::Simulate(req) => {
                let mut fields = vec![("verb".into(), Json::str("simulate"))];
                fields.extend(req.to_fields());
                Json::Obj(fields)
            }
            Request::Metrics => Json::Obj(vec![("verb".into(), Json::str("metrics"))]),
            Request::Ping => Json::Obj(vec![("verb".into(), Json::str("ping"))]),
            Request::Shutdown => Json::Obj(vec![("verb".into(), Json::str("shutdown"))]),
        };
        json.emit().into_bytes()
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed payloads — the
    /// server relays it verbatim in an error response.
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
        let json = Json::parse(text).map_err(|e| format!("malformed request: {e}"))?;
        let verb = json
            .field("verb")
            .and_then(|v| v.as_str())
            .map_err(|_| "request has no string `verb` field".to_string())?;
        match verb {
            "simulate" => Ok(Request::Simulate(Box::new(SimRequest::from_json(&json)?))),
            // `GET /metrics` is accepted as a verb spelling so that
            // scrape configs written against HTTP exporters port over
            // with only a framing shim.
            "metrics" | "GET /metrics" => Ok(Request::Metrics),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown verb `{other}`")),
        }
    }
}

/// Where a served result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultSource {
    /// Freshly simulated by a worker.
    Simulated,
    /// Served from the in-memory memo table.
    Memo,
    /// Served from the on-disk content-addressed cache.
    Disk,
}

impl ResultSource {
    fn wire(self) -> &'static str {
        match self {
            ResultSource::Simulated => "sim",
            ResultSource::Memo => "memo",
            ResultSource::Disk => "disk",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "sim" => Ok(ResultSource::Simulated),
            "memo" => Ok(ResultSource::Memo),
            "disk" => Ok(ResultSource::Disk),
            other => Err(format!("unknown result source `{other}`")),
        }
    }
}

/// Version and capability payload a server attaches to its `pong`
/// reply, so a coordinator can refuse workers whose configuration
/// would break the sweep's bit-identical determinism guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// Workspace version the server was built from.
    pub version: String,
    /// Simulation worker threads the server runs.
    pub workers: usize,
    /// Whether a content-addressed result cache is attached.
    pub cache: bool,
    /// `Debug` rendering of the server's base `SimConfig` (requests
    /// resolve against it, so it is part of the result identity).
    pub base_sim: String,
    /// `Debug` rendering of the server's trace-generation config.
    pub tracegen: String,
}

/// A completed simulation, as returned to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResponse {
    /// The cell's content address (same keyspace as the sweep cache).
    pub key: String,
    /// Where the result came from.
    pub source: ResultSource,
    /// Wall-clock µs from accept to completion, server-side.
    pub wall_us: u64,
    /// µs the request waited in the queue before a worker picked it up.
    pub queue_us: u64,
    /// The simulation metrics.
    pub result: RunResult,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The simulation completed.
    Result(Box<SimResponse>),
    /// Admission control rejected the request (queue full or draining).
    Overloaded {
        /// Queue depth observed at rejection.
        queue_depth: usize,
    },
    /// The request's deadline elapsed before a worker could start it.
    Timeout {
        /// How long the request had waited when it was abandoned (ms).
        waited_ms: u64,
    },
    /// The request was malformed or unmappable.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Metrics dump in Prometheus text exposition format.
    Metrics {
        /// The exposition text.
        text: String,
    },
    /// Liveness reply, optionally carrying the server's version and
    /// capabilities. Servers predating the handshake send a bare
    /// `pong`; decoding maps that onto `info: None`.
    Pong {
        /// The responding server's self-description, if it sent one.
        info: Option<ServerInfo>,
    },
    /// Acknowledgement that the server is draining.
    ShuttingDown,
}

impl Response {
    /// Encodes the response as a JSON payload.
    pub fn encode(&self) -> Vec<u8> {
        let json = match self {
            Response::Result(r) => Json::Obj(vec![
                ("verb".into(), Json::str("result")),
                ("key".into(), Json::str(&r.key)),
                ("source".into(), Json::str(r.source.wire())),
                ("wall_us".into(), Json::u64(r.wall_us)),
                ("queue_us".into(), Json::u64(r.queue_us)),
                ("result".into(), result_to_json(&r.result)),
            ]),
            Response::Overloaded { queue_depth } => Json::Obj(vec![
                ("verb".into(), Json::str("overloaded")),
                ("queue_depth".into(), Json::usize(*queue_depth)),
            ]),
            Response::Timeout { waited_ms } => Json::Obj(vec![
                ("verb".into(), Json::str("timeout")),
                ("waited_ms".into(), Json::u64(*waited_ms)),
            ]),
            Response::Error { message } => Json::Obj(vec![
                ("verb".into(), Json::str("error")),
                ("message".into(), Json::str(message)),
            ]),
            Response::Metrics { text } => Json::Obj(vec![
                ("verb".into(), Json::str("metrics")),
                ("text".into(), Json::str(text)),
            ]),
            Response::Pong { info } => {
                let mut fields = vec![("verb".into(), Json::str("pong"))];
                if let Some(i) = info {
                    fields.push(("version".into(), Json::str(&i.version)));
                    fields.push(("workers".into(), Json::usize(i.workers)));
                    fields.push(("cache".into(), Json::Bool(i.cache)));
                    fields.push(("base_sim".into(), Json::str(&i.base_sim)));
                    fields.push(("tracegen".into(), Json::str(&i.tracegen)));
                }
                Json::Obj(fields)
            }
            Response::ShuttingDown => Json::Obj(vec![("verb".into(), Json::str("shutting-down"))]),
        };
        json.emit().into_bytes()
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed payloads.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
        let json = Json::parse(text).map_err(|e| format!("malformed response: {e}"))?;
        let verb = json
            .field("verb")
            .and_then(|v| v.as_str())
            .map_err(|_| "response has no string `verb` field".to_string())?;
        let str_field = |name: &str| -> Result<String, String> {
            json.field(name)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .map_err(|e| format!("bad `{name}`: {e}"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            json.field(name)
                .and_then(|v| v.as_u64())
                .map_err(|e| format!("bad `{name}`: {e}"))
        };
        match verb {
            "result" => Ok(Response::Result(Box::new(SimResponse {
                key: str_field("key")?,
                source: ResultSource::parse(&str_field("source")?)?,
                wall_us: u64_field("wall_us")?,
                queue_us: u64_field("queue_us")?,
                result: result_from_json(
                    json.field("result")
                        .map_err(|e| format!("bad result: {e}"))?,
                )
                .map_err(|e| format!("bad result: {e}"))?,
            }))),
            "overloaded" => Ok(Response::Overloaded {
                queue_depth: json
                    .field("queue_depth")
                    .and_then(|v| v.as_usize())
                    .map_err(|e| format!("bad `queue_depth`: {e}"))?,
            }),
            "timeout" => Ok(Response::Timeout {
                waited_ms: u64_field("waited_ms")?,
            }),
            "error" => Ok(Response::Error {
                message: str_field("message")?,
            }),
            "metrics" => Ok(Response::Metrics {
                text: str_field("text")?,
            }),
            "pong" => {
                // A bare pong (pre-handshake server) carries no
                // `version` field; the capability payload is all-or-
                // nothing beyond that.
                let info = if json.field("version").is_ok() {
                    Some(ServerInfo {
                        version: str_field("version")?,
                        workers: json
                            .field("workers")
                            .and_then(|v| v.as_usize())
                            .map_err(|e| format!("bad `workers`: {e}"))?,
                        cache: match json.field("cache") {
                            Ok(Json::Bool(b)) => *b,
                            Ok(other) => return Err(format!("bad `cache`: {other:?}")),
                            Err(e) => return Err(format!("bad `cache`: {e}")),
                        },
                        base_sim: str_field("base_sim")?,
                        tracegen: str_field("tracegen")?,
                    })
                } else {
                    None
                };
                Ok(Response::Pong { info })
            }
            "shutting-down" => Ok(Response::ShuttingDown),
            other => Err(format!("unknown response verb `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"beta-gamma").unwrap();
        let mut r = Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"beta-gamma");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn torn_header_is_an_error_not_a_silent_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        wire.truncate(2); // half a length prefix
        let mut r = Cursor::new(wire);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = (MAX_FRAME + 1).to_be_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        let mut r = Cursor::new(wire);
        assert!(read_frame(&mut r).is_err());
        let mut fr = FrameReader::new();
        let mut r2 = Cursor::new((MAX_FRAME + 1).to_be_bytes().to_vec());
        assert!(fr.read(&mut r2).is_err());
    }

    #[test]
    fn frame_reader_survives_byte_at_a_time_delivery() {
        // A reader that yields one byte per read() call, imitating the
        // worst fragmentation a timeout-polled socket can produce.
        struct Trickle(Vec<u8>, usize);
        impl std::io::Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, b"slow boat").unwrap();
        let mut fr = FrameReader::new();
        match fr.read(&mut Trickle(wire, 0)).unwrap() {
            ReadOutcome::Frame(p) => assert_eq!(p, b"slow boat"),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [Request::Metrics, Request::Ping, Request::Shutdown] {
            let back = Request::decode(&req.encode()).unwrap();
            assert_eq!(back, req);
        }
        // The HTTP-flavored metrics spelling maps onto the same verb.
        let get = br#"{"verb":"GET /metrics"}"#;
        assert_eq!(Request::decode(get).unwrap(), Request::Metrics);
    }

    #[test]
    fn malformed_requests_are_described_not_dropped() {
        assert!(Request::decode(b"\xff\xfe").unwrap_err().contains("UTF-8"));
        assert!(Request::decode(b"[1,2]").unwrap_err().contains("verb"));
        assert!(Request::decode(br#"{"verb":"dance"}"#)
            .unwrap_err()
            .contains("dance"));
    }

    #[test]
    fn deeply_nested_request_is_an_error_not_an_abort() {
        // 16 KiB, far under MAX_FRAME: unbounded recursion would
        // overflow a connection thread's stack and abort the server.
        let err = Request::decode(&[b'['; 16 << 10]).unwrap_err();
        assert!(err.contains("malformed request"), "{err}");
    }

    #[test]
    fn control_responses_round_trip() {
        for resp in [
            Response::Overloaded { queue_depth: 64 },
            Response::Timeout { waited_ms: 250 },
            Response::Error {
                message: "no such workload".into(),
            },
            Response::Metrics {
                text: "# TYPE x counter\nx 1\n".into(),
            },
            Response::Pong { info: None },
            Response::Pong {
                info: Some(ServerInfo {
                    version: "0.2.0".into(),
                    workers: 4,
                    cache: true,
                    base_sim: "SimConfig { .. }".into(),
                    tracegen: "TraceGenConfig { .. }".into(),
                }),
            },
            Response::ShuttingDown,
        ] {
            let back = Response::decode(&resp.encode()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn bare_pong_from_an_old_server_still_parses() {
        // Pre-handshake servers reply with exactly this payload; the
        // coordinator must keep accepting it (and treat the worker as
        // version-unknown rather than erroring out).
        let old = br#"{"verb":"pong"}"#;
        assert_eq!(
            Response::decode(old).unwrap(),
            Response::Pong { info: None }
        );
        // And unknown extra fields on a modern pong stay ignored.
        let future = br#"{"verb":"pong","version":"9.9.9","workers":2,"cache":false,"base_sim":"s","tracegen":"t","quantum_lanes":64}"#;
        match Response::decode(future).unwrap() {
            Response::Pong { info: Some(i) } => {
                assert_eq!(i.version, "9.9.9");
                assert_eq!(i.workers, 2);
                assert!(!i.cache);
            }
            other => panic!("expected pong+info, got {other:?}"),
        }
    }

    #[test]
    fn oversize_and_truncation_classify_as_protocol_errors() {
        // Oversize outgoing payload.
        let big = vec![0u8; MAX_FRAME as usize + 1];
        let err = write_frame(&mut Vec::new(), &big).unwrap_err();
        assert_eq!(
            ProtocolError::classify(&err),
            Some(ProtocolError::Oversize {
                len: MAX_FRAME as u64 + 1
            })
        );

        // Oversize incoming length prefix, both codec paths.
        let wire = (MAX_FRAME + 1).to_be_bytes().to_vec();
        let err = read_frame(&mut Cursor::new(wire.clone())).unwrap_err();
        assert!(matches!(
            ProtocolError::classify(&err),
            Some(ProtocolError::Oversize { .. })
        ));
        let err = FrameReader::new().read(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(
            ProtocolError::classify(&err),
            Some(ProtocolError::Oversize { .. })
        ));

        // Truncation: torn header and short payload.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        for cut in [2, 6] {
            let mut torn = wire.clone();
            torn.truncate(cut);
            let err = read_frame(&mut Cursor::new(torn.clone())).unwrap_err();
            assert_eq!(
                ProtocolError::classify(&err),
                Some(ProtocolError::Truncated),
                "read_frame, cut at {cut}"
            );
            let err = FrameReader::new().read(&mut Cursor::new(torn)).unwrap_err();
            assert_eq!(
                ProtocolError::classify(&err),
                Some(ProtocolError::Truncated),
                "FrameReader, cut at {cut}"
            );
        }

        // An unrelated io::Error classifies as nothing.
        let plain = io::Error::new(io::ErrorKind::ConnectionReset, "peer reset");
        assert_eq!(ProtocolError::classify(&plain), None);
    }

    /// Feeds `wire` to a `FrameReader` in chunks whose boundaries are
    /// chosen by `cuts`, returning every decoded frame.
    fn read_split(wire: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
        // A reader that returns the queued segments one per call, then
        // EOF — each segment delivery may split a frame anywhere.
        struct Segments(Vec<Vec<u8>>);
        impl std::io::Read for Segments {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                loop {
                    if self.0.is_empty() {
                        return Ok(0);
                    }
                    if self.0[0].is_empty() {
                        self.0.remove(0);
                        continue;
                    }
                    let seg = &mut self.0[0];
                    let n = seg.len().min(buf.len());
                    buf[..n].copy_from_slice(&seg[..n]);
                    seg.drain(..n);
                    return Ok(n);
                }
            }
        }
        let mut segments = Vec::new();
        let mut start = 0;
        let mut sorted: Vec<usize> = cuts.iter().map(|&c| c % (wire.len() + 1)).collect();
        sorted.sort_unstable();
        for c in sorted {
            segments.push(wire[start..c.max(start)].to_vec());
            start = c.max(start);
        }
        segments.push(wire[start..].to_vec());
        let mut src = Segments(segments);
        let mut fr = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match fr.read(&mut src).expect("valid wire decodes") {
                ReadOutcome::Frame(p) => frames.push(p),
                ReadOutcome::Eof => return frames,
                ReadOutcome::TimedOut => unreachable!("Segments never times out"),
            }
        }
    }

    proptest::proptest! {
        /// Any sequence of frames survives any segmentation of the byte
        /// stream: the reader reassembles exactly the payloads written,
        /// in order, regardless of where reads split.
        #[test]
        fn frame_reader_round_trips_over_random_split_boundaries(
            payloads in proptest::collection::vec(
                proptest::collection::vec(0u8..255, 0usize..200),
                1usize..6,
            ),
            cuts in proptest::collection::vec(0usize..5000, 1usize..12),
        ) {
            let mut wire = Vec::new();
            for p in &payloads {
                write_frame(&mut wire, p).unwrap();
            }
            let frames = read_split(&wire, &cuts);
            proptest::prop_assert_eq!(frames, payloads);
        }

        /// Truncating a valid stream anywhere strictly inside a frame
        /// yields the typed truncation error, never a hang or a silent
        /// partial decode.
        #[test]
        fn truncation_anywhere_inside_a_frame_is_typed(
            payload in proptest::collection::vec(0u8..255, 1usize..100),
            cut_seed in 0usize..1_000_000,
        ) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            let cut = 1 + cut_seed % (wire.len() - 1); // 1..wire.len()
            wire.truncate(cut);
            let mut fr = FrameReader::new();
            let err = match fr.read(&mut Cursor::new(wire)) {
                Err(e) => e,
                Ok(other) => panic!("truncated frame produced {other:?}"),
            };
            proptest::prop_assert_eq!(
                ProtocolError::classify(&err),
                Some(ProtocolError::Truncated)
            );
        }
    }
}
