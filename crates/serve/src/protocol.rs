//! Wire protocol: length-prefixed JSON frames and the request/response
//! vocabulary.
//!
//! A frame is a big-endian `u32` payload length followed by that many
//! bytes of UTF-8 JSON. Both directions use the same framing; a
//! connection carries a strict request → response alternation. The
//! payload vocabulary is deliberately small — four request verbs, seven
//! response verbs — and every message is a JSON object whose `verb`
//! field selects the variant, so the protocol stays greppable in a
//! packet capture. The rest of a payload is written and read through
//! its codec (`dtm_harness::codec`), and a field a `simulate` request
//! or a response does not know is an error. A request with an unknown
//! verb or field gets an explicit error response, not a dead
//! connection.

use crate::request::SimRequest;
use dtm_core::RunResult;
use dtm_harness::codec::{struct_codec, JsonCodec};
use dtm_harness::json::{Json, JsonError};
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

/// A frame's payload bytes: `verb`, then the fields of `payload` (an
/// object).
fn frame(verb: &str, payload: Json) -> Vec<u8> {
    let mut pairs = vec![("verb".to_string(), Json::str(verb))];
    if let Json::Obj(fields) = payload {
        pairs.extend(fields);
    }
    Json::Obj(pairs).emit().into_bytes()
}

impl Request {
    /// Encodes the request as a JSON payload.
    pub fn encode(&self) -> Vec<u8> {
        let (verb, payload) = match self {
            Request::Simulate(req) => ("simulate", Json::Obj(req.to_fields())),
            Request::Metrics => ("metrics", Json::Obj(Vec::new())),
            Request::Ping => ("ping", Json::Obj(Vec::new())),
            Request::Shutdown => ("shutdown", Json::Obj(Vec::new())),
        };
        frame(verb, payload)
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
            "metrics" => Ok(Request::Metrics),
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

impl JsonCodec for ResultSource {
    fn to_json(&self) -> Json {
        Json::str(match self {
            ResultSource::Simulated => "sim",
            ResultSource::Memo => "memo",
            ResultSource::Disk => "disk",
        })
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str()? {
            "sim" => Ok(ResultSource::Simulated),
            "memo" => Ok(ResultSource::Memo),
            "disk" => Ok(ResultSource::Disk),
            other => Err(JsonError(format!("unknown result source `{other}`"))),
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

struct_codec!(ServerInfo; version, workers, cache, base_sim, tracegen);

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

struct_codec!(SimResponse; key, source, wall_us, queue_us, result);

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
    /// Encodes the response as a JSON payload: the verb, then the
    /// payload's fields.
    pub fn encode(&self) -> Vec<u8> {
        let field = |name: &str, v: Json| Json::Obj(vec![(name.into(), v)]);
        let (verb, payload) = match self {
            Response::Result(r) => ("result", r.to_json()),
            Response::Overloaded { queue_depth } => {
                ("overloaded", field("queue_depth", queue_depth.to_json()))
            }
            Response::Timeout { waited_ms } => ("timeout", field("waited_ms", waited_ms.to_json())),
            Response::Error { message } => ("error", field("message", message.to_json())),
            Response::Metrics { text } => ("metrics", field("text", text.to_json())),
            Response::Pong { info } => (
                "pong",
                info.as_ref()
                    .map_or(Json::Obj(Vec::new()), JsonCodec::to_json),
            ),
            Response::ShuttingDown => ("shutting-down", Json::Obj(Vec::new())),
        };
        frame(verb, payload)
    }

    /// Decodes a response payload. Every field but the verb is read
    /// through the payload's codec, and an unknown or repeated field is
    /// an error.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed payloads.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
        let json = Json::parse(text).map_err(|e| format!("malformed response: {e}"))?;
        let (verb, rest) = split_verb(json).ok_or("response has no string `verb` field")?;
        let decoded = match verb.as_str() {
            "result" => SimResponse::from_json(&rest).map(|r| Response::Result(Box::new(r))),
            "overloaded" => sole_field(&rest, "queue_depth")
                .and_then(usize::from_json)
                .map(|queue_depth| Response::Overloaded { queue_depth }),
            "timeout" => sole_field(&rest, "waited_ms")
                .and_then(u64::from_json)
                .map(|waited_ms| Response::Timeout { waited_ms }),
            "error" => sole_field(&rest, "message")
                .and_then(String::from_json)
                .map(|message| Response::Error { message }),
            "metrics" => sole_field(&rest, "text")
                .and_then(String::from_json)
                .map(|text| Response::Metrics { text }),
            // A server that predates the handshake sends a bare pong.
            "pong" if rest == Json::Obj(Vec::new()) => Ok(Response::Pong { info: None }),
            "pong" => ServerInfo::from_json(&rest).map(|i| Response::Pong { info: Some(i) }),
            "shutting-down" => rest
                .fields()
                .and_then(|o| o.end())
                .map(|()| Response::ShuttingDown),
            other => return Err(format!("unknown response verb `{other}`")),
        };
        decoded.map_err(|e| format!("bad `{verb}` response: {e}"))
    }
}

/// Splits a decoded frame into its string `verb` and an object of its
/// other fields.
fn split_verb(json: Json) -> Option<(String, Json)> {
    let Json::Obj(mut pairs) = json else {
        return None;
    };
    let i = pairs.iter().position(|(k, _)| k == "verb")?;
    match pairs.remove(i).1 {
        Json::Str(verb) => Some((verb, Json::Obj(pairs))),
        _ => None,
    }
}

/// The value of the field `name`, which must be the object's only one.
fn sole_field<'a>(payload: &'a Json, name: &str) -> Result<&'a Json, JsonError> {
    let mut o = payload.fields()?;
    let v = o.req(name)?;
    o.end()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Reads one frame from a fresh `FrameReader` over `wire`.
    fn read_one(wire: Vec<u8>) -> io::Result<ReadOutcome> {
        FrameReader::new().read(&mut Cursor::new(wire))
    }

    /// The fields of `payload` after its leading `verb`, decoded by
    /// `T::read` with no tree.
    fn read_past_verb<T: JsonCodec>(payload: &[u8]) -> Result<T, JsonError> {
        let text = std::str::from_utf8(payload).unwrap();
        let rest = &text[text.find(',').unwrap() + 1..];
        let body = format!("{{{rest}");
        let mut r = dtm_harness::json::Reader::new(&body);
        let v = T::read(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"beta-gamma").unwrap();
        let mut r = Cursor::new(wire);
        let mut fr = FrameReader::new();
        for want in [&b"alpha"[..], b"", b"beta-gamma"] {
            match fr.read(&mut r).unwrap() {
                ReadOutcome::Frame(p) => assert_eq!(p, want),
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        assert!(
            matches!(fr.read(&mut r).unwrap(), ReadOutcome::Eof),
            "clean EOF"
        );
    }

    #[test]
    fn torn_header_is_an_error_not_a_silent_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        wire.truncate(2); // half a length prefix
        assert!(read_one(wire).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = (MAX_FRAME + 1).to_be_bytes().to_vec();
        assert!(read_one(wire.clone()).is_err(), "prefix alone");
        wire.extend_from_slice(&[0u8; 16]);
        assert!(read_one(wire).is_err(), "prefix and payload bytes");
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
        // `metrics` has one spelling.
        let get = br#"{"verb":"GET /metrics"}"#;
        assert!(Request::decode(get).unwrap_err().contains("unknown verb"));
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
            if let Response::Pong { info: Some(info) } = &resp {
                assert_eq!(&read_past_verb::<ServerInfo>(&resp.encode()).unwrap(), info);
            }
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
        // A capability payload is read strictly: a field this build
        // does not know is an error, not silently dropped.
        let info = r#"{"verb":"pong","version":"9.9.9","workers":2,"cache":false,"base_sim":"s","tracegen":"t""#;
        match Response::decode(format!("{info}}}").as_bytes()).unwrap() {
            Response::Pong { info: Some(i) } => {
                assert_eq!(i.version, "9.9.9");
                assert_eq!(i.workers, 2);
                assert!(!i.cache);
            }
            other => panic!("expected pong+info, got {other:?}"),
        }
        let future = format!(r#"{info},"quantum_lanes":64}}"#);
        let err = Response::decode(future.as_bytes()).unwrap_err();
        assert!(err.contains("quantum_lanes"), "{err}");
    }

    #[test]
    fn result_frames_round_trip_and_decode_strictly() {
        let resp = Response::Result(Box::new(SimResponse {
            key: "f".repeat(32),
            source: ResultSource::Disk,
            wall_us: 1_234,
            queue_us: 56,
            result: RunResult {
                duration: 0.05,
                cores: 4,
                instructions: 1e8 + 1.0 / 3.0,
                duty_cycle: 0.5,
                max_temp: 80.125,
                emergency_time: 0.0,
                migrations: 2,
                dvfs_transitions: 7,
                stalls: 1,
                energy: 2.0,
                robustness: dtm_core::Robustness::default(),
                steady: None,
                phases: None,
                gain_stats: None,
                threads: vec![dtm_core::ThreadStats::default()],
            },
        }));
        let wire = String::from_utf8(resp.encode()).unwrap();
        assert!(
            wire.starts_with(r#"{"verb":"result","key":"ffff"#),
            "{wire}"
        );
        assert_eq!(Response::decode(wire.as_bytes()).unwrap(), resp);
        let Response::Result(sim) = &resp else {
            unreachable!()
        };
        assert_eq!(
            &read_past_verb::<SimResponse>(wire.as_bytes()).unwrap(),
            sim.as_ref()
        );
        // An unknown or repeated field, at the top or inside the
        // result, is an error, to both decoders.
        let head = r#"{"verb":"result","#;
        for (from, to) in [
            (head, r#"{"verb":"result","lanes":8,"#),
            (head, r#"{"verb":"result","wall_us":1,"#),
            (head, r#"{"verb":"result","verb":"result","#),
            (r#""stalls":1,"#, r#""stalls":1,"lanes":8,"#),
            (r#""source":"disk""#, r#""source":"tape""#),
        ] {
            let bad = wire.replacen(from, to, 1);
            assert_ne!(bad, wire);
            assert!(Response::decode(bad.as_bytes()).is_err(), "{bad}");
            assert!(
                read_past_verb::<SimResponse>(bad.as_bytes()).is_err(),
                "{bad}"
            );
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

        // Oversize incoming length prefix.
        let err = read_one((MAX_FRAME + 1).to_be_bytes().to_vec()).unwrap_err();
        assert!(matches!(
            ProtocolError::classify(&err),
            Some(ProtocolError::Oversize { .. })
        ));

        // Truncation: a cut at every byte, through the header and the
        // payload.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        for cut in 1..wire.len() {
            let err = read_one(wire[..cut].to_vec()).unwrap_err();
            assert_eq!(
                ProtocolError::classify(&err),
                Some(ProtocolError::Truncated),
                "cut at {cut}"
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
