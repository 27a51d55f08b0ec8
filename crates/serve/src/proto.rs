//! The wire protocol of `boxagg serve`: length-framed, checksummed
//! binary messages.
//!
//! Every message travels as one **frame**, the exact shape the
//! write-ahead log uses for its records (see `boxagg-pagestore`'s
//! `wal` module):
//!
//! ```text
//! [body_len: u32 LE] [body: body_len bytes] [crc: u64 LE]
//! ```
//!
//! with `crc = fnv1a_64(body)`. (Pages and the WAL moved to the
//! word-parallel `checksum::sum64` with on-disk format v2; bodies here
//! are under 100 bytes, where a bytewise hash costs nothing worth a
//! wire break.) The body starts with a tag byte;
//! request tags live below 16, response tags at 16 and above, so the
//! two directions cannot be confused.
//!
//! **v2**: every request body carries a deadline right after the tag
//! (`[tag u8][deadline_ms u32][payload]`, `0` = none); writes carry a
//! client-chosen idempotency token (and a per-token sequence number on
//! buffered ops) so a commit retried across a reconnect or server
//! restart applies exactly once; error frames carry a retry-after hint
//! so an accept-time [`code::OVERLOADED`] refusal can say when to dial
//! again.
//!
//! Failure taxonomy mirrors the WAL's: a cleanly closed connection at a
//! frame boundary is EOF (like a truncated-but-valid log tail), while a
//! checksum mismatch, an oversized length prefix or a malformed body is
//! a *structural* error — the server answers with a typed
//! [`Response::Error`] frame and closes; it never panics on hostile
//! bytes (see the fuzz test in `tests/`).

use std::io::{Read, Write};

use boxagg_common::bytes::{ByteReader, ByteWriter};
use boxagg_common::error::{invalid_arg, Error, Result};
use boxagg_common::geom::{Point, Rect, MAX_DIM};
use boxagg_pagestore::checksum::fnv1a_64;

/// Protocol version carried in the [`Hello`] frame. Bump on any wire
/// change.
pub const PROTO_VERSION: u32 = 2;

/// Hard cap on a frame body. The largest legitimate message is a
/// [`Hello`] with `MAX_DIM` bounds (a few hundred bytes); the cap only
/// exists so a hostile or corrupt length prefix cannot make the server
/// allocate gigabytes.
pub const MAX_BODY: usize = 64 * 1024;

/// Server → client error codes carried by [`Response::Error`].
pub mod code {
    /// The request was well-formed but invalid (bad dims, unknown mask…).
    pub const INVALID_ARGUMENT: u16 = 1;
    /// The frame or body was structurally broken (bad tag, truncation,
    /// checksum mismatch). The server closes the connection after this.
    pub const PROTOCOL: u16 = 2;
    /// The operation needs a writable store but the server is read-only.
    pub const READ_ONLY: u16 = 3;
    /// Anything else that failed server-side (I/O, corruption).
    pub const INTERNAL: u16 = 4;
    /// The request's deadline elapsed before the server could answer;
    /// the work was dropped (possibly before it ever started).
    pub const DEADLINE_EXCEEDED: u16 = 5;
    /// The server turned the connection away at accept: it already
    /// serves its connection limit. The frame carries a retry-after
    /// hint; dialling again after it is always safe.
    pub const OVERLOADED: u16 = 6;
}

const TAG_BOX_SUM: u8 = 2;
const TAG_DOM_SUM: u8 = 3;
const TAG_INSERT: u8 = 4;
const TAG_DELETE: u8 = 5;
const TAG_COMMIT: u8 = 6;
const TAG_STATS: u8 = 7;

const TAG_HELLO: u8 = 16;
const TAG_SUM: u8 = 17;
const TAG_OK: u8 = 18;
const TAG_ERROR: u8 = 19;
const TAG_STATS_REPLY: u8 = 20;

/// The handshake the server sends immediately after accepting a
/// connection: protocol version plus the store geometry a client needs
/// to form valid requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// [`PROTO_VERSION`] of the server.
    pub version: u32,
    /// Dimensionality of the indexed space.
    pub dims: u32,
    /// Store page size in bytes.
    pub page_size: u32,
    /// Objects in the index at connect time.
    pub objects: u64,
    /// The indexed space, one `(low, high)` pair per dimension.
    pub bounds: Vec<(f64, f64)>,
}

/// A client → server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Total value of objects intersecting the box (corner reduction).
    BoxSum(Rect),
    /// Raw dominance-sum against the corner tree for `mask`.
    DomSum {
        /// Corner selector (bit `i` set ⇒ the tree stores `o.h_i`).
        mask: u32,
        /// The dominance query point.
        point: Point,
    },
    /// Insert one weighted box (buffered until [`Request::Commit`]).
    Insert {
        /// The object's extent.
        rect: Rect,
        /// Its aggregate value.
        value: f64,
        /// Client-chosen idempotency token this op belongs to
        /// (`0` = untokened, no replay protection).
        token: u64,
        /// Position of this op within the token's write sequence; the
        /// server skips `(token, seq)` pairs it has already applied,
        /// so a replayed stream after a reconnect is harmless.
        seq: u32,
    },
    /// Delete by negation; must match the original insertion.
    Delete {
        /// The object's extent.
        rect: Rect,
        /// Its aggregate value.
        value: f64,
        /// Idempotency token (see [`Request::Insert`]).
        token: u64,
        /// Sequence number within the token (see [`Request::Insert`]).
        seq: u32,
    },
    /// Make all buffered writes durable. Concurrent commits run one
    /// after another server-side, each as its own WAL transaction.
    Commit {
        /// Idempotency token: a token the server already committed is
        /// *not* re-applied — the server answers `Ok` with the
        /// originally recorded object count. `0` = untokened.
        token: u64,
    },
    /// Server statistics snapshot.
    Stats,
}

/// Serving statistics carried by [`Response::StatsReply`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Read queries (box-sums + dominance-sums) answered.
    pub queries: u64,
    /// Snapshots pinned for reads. Reads run one per pin, so this
    /// equals `queries`; the field dates from admission groups and
    /// keeps its place on the wire.
    pub groups: u64,
    /// Decoded-node accesses across all reads.
    pub node_accesses: u64,
    /// The subset of accesses that actually ran the codec.
    pub node_decodes: u64,
    /// Commits run: requests that took the write lock in time (a
    /// replayed or an expired commit is not counted).
    pub commits: u64,
    /// Equals `commits`: each commit runs on its own connection thread
    /// as one WAL transaction. The field dates from commits merged into
    /// rounds and keeps its place on the wire.
    pub commit_rounds: u64,
    /// Structurally broken frames answered with a typed error.
    pub protocol_errors: u64,
    /// Always 0: no admitted request is answered `OVERLOADED`, since
    /// the server sheds only connections, at accept (counted in
    /// `refused_conns`). The field keeps its place on the wire.
    pub shed: u64,
    /// Requests dropped because their deadline had already expired.
    pub expired: u64,
    /// Commits answered from the durable idempotency-token record
    /// instead of being re-applied.
    pub replays: u64,
    /// Connections refused at accept time by the connection limit.
    pub refused_conns: u64,
    /// Whether `SharedStore::validate` passed when stats were taken.
    /// `validate` takes the store's writer lock, so a stats request
    /// waits out a commit in flight; pinned reads go on beside it.
    pub validate_ok: bool,
}

/// A server → client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Connection handshake.
    Hello(Hello),
    /// Answer to a [`Request::BoxSum`] or [`Request::DomSum`].
    Sum(f64),
    /// Acknowledgement of a write, with the resulting object count.
    Ok {
        /// Objects in the index after the operation.
        objects: u64,
    },
    /// A typed failure; the connection stays open for
    /// [`code::INVALID_ARGUMENT`] and [`code::DEADLINE_EXCEEDED`], and
    /// closes for [`code::PROTOCOL`] and the accept-time
    /// [`code::OVERLOADED`].
    Error {
        /// One of the [`code`] constants.
        code: u16,
        /// Human-readable diagnosis.
        message: String,
        /// Backoff hint in milliseconds, nonzero only for
        /// [`code::OVERLOADED`]: how long the client should wait
        /// before retrying.
        retry_after_ms: u32,
    },
    /// Answer to a [`Request::Stats`].
    StatsReply(ServeStats),
}

// ---------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------

/// Wraps `body` into a `[len][body][fnv1a_64]` frame.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len() + 8);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&fnv1a_64(body).to_le_bytes());
    out
}

/// Writes one frame to `w`.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame(body))
}

/// The peer went away where a frame was owed: an [`Error::Io`] of kind
/// `UnexpectedEof` saying where. The connection died; a reconnect may
/// succeed ([`is_connection_error`](crate::client::is_connection_error)).
pub(crate) fn closed(what: &str) -> Error {
    Error::Io(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what))
}

/// [`closed`] for an EOF inside a frame; any other I/O error as it is.
fn torn(e: std::io::Error, what: &str) -> Error {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        closed(what)
    } else {
        e.into()
    }
}

/// Reads one frame body from `r`.
///
/// `Ok(None)` on a clean EOF at a frame boundary (the peer closed).
/// EOF *inside* a frame — a torn frame — is an [`Error::Io`] of kind
/// `UnexpectedEof`: the connection died. Structural problems — an
/// oversized length prefix, a checksum mismatch — are typed
/// `InvalidArgument` errors. Either way the caller answers with a
/// [`code::PROTOCOL`] error frame and drops the connection.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    // The length prefix is filled incrementally so that EOF *before*
    // any byte (a clean close) is distinguishable from EOF after a
    // partial prefix (a truncated frame).
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(closed("connection closed inside a frame length prefix")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_BODY {
        return Err(invalid_arg(format!(
            "frame body of {len} bytes exceeds the {MAX_BODY}-byte cap"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|e| torn(e, "connection closed mid-frame"))?;
    let mut crc_buf = [0u8; 8];
    r.read_exact(&mut crc_buf)
        .map_err(|e| torn(e, "connection closed before the frame checksum"))?;
    let stored = u64::from_le_bytes(crc_buf);
    let computed = fnv1a_64(&body);
    if stored != computed {
        return Err(invalid_arg(format!(
            "frame checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        )));
    }
    Ok(Some(body))
}

// ---------------------------------------------------------------------
// Body codec
// ---------------------------------------------------------------------

// A point travels as its dimension byte and its coordinates; a rect as
// its low point and its high point.

fn get_point(r: &mut ByteReader<'_>) -> Result<Point> {
    let d = r.get_u8()? as usize;
    Point::decode(r, d)
}

fn get_rect(r: &mut ByteReader<'_>) -> Result<Rect> {
    let low = get_point(r)?;
    let high = get_point(r)?;
    if low.dim() != high.dim() {
        return Err(invalid_arg("rect corner dimensions disagree"));
    }
    for i in 0..low.dim() {
        let (l, h) = (low.get(i), high.get(i));
        if l.is_nan() || h.is_nan() || l > h {
            return Err(invalid_arg(format!(
                "rect is inverted or NaN in dimension {i}: low {l} > high {h}"
            )));
        }
    }
    Ok(Rect::new(low, high))
}

/// Fails unless the body ended where its message did.
fn done(r: &ByteReader<'_>) -> Result<()> {
    if r.remaining() != 0 {
        return Err(invalid_arg(format!(
            "{} trailing bytes after the message (at byte {})",
            r.remaining(),
            r.position()
        )));
    }
    Ok(())
}

/// Encodes a request body with no deadline (un-framed; see [`frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode_request_with_deadline(req, 0)
}

/// Encodes a request body carrying a deadline of `deadline_ms`
/// milliseconds (`0` = no deadline). The deadline sits between the tag
/// and the payload so every request shape shares one header.
pub fn encode_request_with_deadline(req: &Request, deadline_ms: u32) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(match req {
        Request::BoxSum(_) => TAG_BOX_SUM,
        Request::DomSum { .. } => TAG_DOM_SUM,
        Request::Insert { .. } => TAG_INSERT,
        Request::Delete { .. } => TAG_DELETE,
        Request::Commit { .. } => TAG_COMMIT,
        Request::Stats => TAG_STATS,
    });
    w.put_u32(deadline_ms);
    match req {
        Request::BoxSum(rect) => {
            for p in [rect.low(), rect.high()] {
                w.put_u8(p.dim() as u8);
                p.encode(&mut w);
            }
        }
        Request::DomSum { mask, point } => {
            w.put_u32(*mask);
            w.put_u8(point.dim() as u8);
            point.encode(&mut w);
        }
        Request::Insert {
            rect,
            value,
            token,
            seq,
        }
        | Request::Delete {
            rect,
            value,
            token,
            seq,
        } => {
            for p in [rect.low(), rect.high()] {
                w.put_u8(p.dim() as u8);
                p.encode(&mut w);
            }
            w.put_f64(*value);
            w.put_u64(*token);
            w.put_u32(*seq);
        }
        Request::Commit { token } => w.put_u64(*token),
        Request::Stats => {}
    }
    w.into_vec()
}

/// Decodes a request body into the request and its deadline budget in
/// milliseconds (`0` = none). Every structural defect — unknown tag,
/// truncation, trailing garbage, inverted rect — is a typed error
/// naming the offending byte where applicable.
pub fn decode_request(body: &[u8]) -> Result<(Request, u32)> {
    let mut r = ByteReader::new(body);
    let tag = r.get_u8()?;
    let deadline_ms = r.get_u32()?;
    let req = match tag {
        TAG_BOX_SUM => Request::BoxSum(get_rect(&mut r)?),
        TAG_DOM_SUM => {
            let mask = r.get_u32()?;
            let point = get_point(&mut r)?;
            Request::DomSum { mask, point }
        }
        TAG_INSERT | TAG_DELETE => {
            let rect = get_rect(&mut r)?;
            let value = r.get_f64()?;
            let token = r.get_u64()?;
            let seq = r.get_u32()?;
            if tag == TAG_INSERT {
                Request::Insert {
                    rect,
                    value,
                    token,
                    seq,
                }
            } else {
                Request::Delete {
                    rect,
                    value,
                    token,
                    seq,
                }
            }
        }
        TAG_COMMIT => Request::Commit {
            token: r.get_u64()?,
        },
        TAG_STATS => Request::Stats,
        tag => return Err(invalid_arg(format!("unknown request tag {tag}"))),
    };
    done(&r)?;
    Ok((req, deadline_ms))
}

/// Encodes a response body (un-framed; see [`frame`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match resp {
        Response::Hello(h) => {
            w.put_u8(TAG_HELLO);
            w.put_u32(h.version);
            w.put_u32(h.dims);
            w.put_u32(h.page_size);
            w.put_u64(h.objects);
            w.put_u8(h.bounds.len() as u8);
            for &(l, hi) in &h.bounds {
                w.put_f64(l);
                w.put_f64(hi);
            }
        }
        Response::Sum(v) => {
            w.put_u8(TAG_SUM);
            w.put_f64(*v);
        }
        Response::Ok { objects } => {
            w.put_u8(TAG_OK);
            w.put_u64(*objects);
        }
        Response::Error {
            code,
            message,
            retry_after_ms,
        } => {
            w.put_u8(TAG_ERROR);
            w.put_u16(*code);
            w.put_u32(*retry_after_ms);
            let msg = message.as_bytes();
            let n = msg.len().min(MAX_BODY - 24);
            w.put_u32(n as u32);
            w.put_bytes(&msg[..n]);
        }
        Response::StatsReply(s) => {
            w.put_u8(TAG_STATS_REPLY);
            for v in [
                s.queries,
                s.groups,
                s.node_accesses,
                s.node_decodes,
                s.commits,
                s.commit_rounds,
                s.protocol_errors,
                s.shed,
                s.expired,
                s.replays,
                s.refused_conns,
            ] {
                w.put_u64(v);
            }
            w.put_u8(u8::from(s.validate_ok));
        }
    }
    w.into_vec()
}

/// Decodes a response body (same defect discipline as
/// [`decode_request`]).
pub fn decode_response(body: &[u8]) -> Result<Response> {
    let mut r = ByteReader::new(body);
    let resp = match r.get_u8()? {
        TAG_HELLO => {
            let version = r.get_u32()?;
            let dims = r.get_u32()?;
            let page_size = r.get_u32()?;
            let objects = r.get_u64()?;
            let nb = r.get_u8()? as usize;
            if nb > MAX_DIM {
                return Err(invalid_arg(format!("hello carries {nb} bounds")));
            }
            let mut bounds = Vec::with_capacity(nb);
            for _ in 0..nb {
                let l = r.get_f64()?;
                let h = r.get_f64()?;
                bounds.push((l, h));
            }
            Response::Hello(Hello {
                version,
                dims,
                page_size,
                objects,
                bounds,
            })
        }
        TAG_SUM => Response::Sum(r.get_f64()?),
        TAG_OK => Response::Ok {
            objects: r.get_u64()?,
        },
        TAG_ERROR => {
            let code = r.get_u16()?;
            let retry_after_ms = r.get_u32()?;
            let n = r.get_u32()? as usize;
            let message = String::from_utf8_lossy(r.get_bytes(n)?).into_owned();
            Response::Error {
                code,
                message,
                retry_after_ms,
            }
        }
        TAG_STATS_REPLY => {
            let s = ServeStats {
                queries: r.get_u64()?,
                groups: r.get_u64()?,
                node_accesses: r.get_u64()?,
                node_decodes: r.get_u64()?,
                commits: r.get_u64()?,
                commit_rounds: r.get_u64()?,
                protocol_errors: r.get_u64()?,
                shed: r.get_u64()?,
                expired: r.get_u64()?,
                replays: r.get_u64()?,
                refused_conns: r.get_u64()?,
                validate_ok: r.get_u8()? != 0,
            };
            Response::StatsReply(s)
        }
        tag => return Err(invalid_arg(format!("unknown response tag {tag}"))),
    };
    done(&r)?;
    Ok(resp)
}

/// Maps a server-side error onto a wire error code.
pub fn code_for(err: &Error) -> u16 {
    match err {
        Error::InvalidArgument(_) => code::INVALID_ARGUMENT,
        Error::ReadOnly { .. } => code::READ_ONLY,
        Error::DeadlineExceeded { .. } => code::DEADLINE_EXCEEDED,
        Error::Overloaded { .. } => code::OVERLOADED,
        _ => code::INTERNAL,
    }
}

/// The retry-after hint a typed error frame should carry:
/// `fallback_ms` for overload-class errors (unless the error names its
/// own hint), `0` for everything else.
pub fn retry_after_for(err: &Error, fallback_ms: u32) -> u32 {
    match err {
        Error::Overloaded { retry_after_ms } if *retry_after_ms > 0 => *retry_after_ms,
        Error::Overloaded { .. } => fallback_ms,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::rng::StdRng;

    fn rect2(b: &[(f64, f64)]) -> Rect {
        Rect::from_bounds(b)
    }

    fn all_requests() -> Vec<Request> {
        vec![
            Request::BoxSum(rect2(&[(0.0, 1.0), (-2.5, 3.5)])),
            Request::DomSum {
                mask: 3,
                point: Point::new(&[0.25, 0.75]),
            },
            Request::Insert {
                rect: rect2(&[(0.1, 0.2)]),
                value: -7.25,
                token: 0xDEAD_BEEF_0BAD_F00D,
                seq: 3,
            },
            Request::Delete {
                rect: rect2(&[(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]),
                value: f64::MIN_POSITIVE,
                token: u64::MAX,
                seq: u32::MAX,
            },
            Request::Commit { token: 7 },
            Request::Commit { token: 0 },
            Request::Stats,
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Hello(Hello {
                version: PROTO_VERSION,
                dims: 2,
                page_size: 8192,
                objects: 12345,
                bounds: vec![(0.0, 1.0), (-1.0, 2.0)],
            }),
            Response::Sum(-0.0),
            Response::Sum(f64::MAX),
            Response::Ok { objects: u64::MAX },
            Response::Error {
                code: code::PROTOCOL,
                message: "frame checksum mismatch".into(),
                retry_after_ms: 0,
            },
            Response::Error {
                code: code::OVERLOADED,
                message: "admission queue full".into(),
                retry_after_ms: 35,
            },
            Response::StatsReply(ServeStats {
                queries: 1,
                groups: 2,
                node_accesses: 3,
                node_decodes: 4,
                commits: 5,
                commit_rounds: 6,
                protocol_errors: 7,
                shed: 8,
                expired: 9,
                replays: 10,
                refused_conns: 11,
                validate_ok: true,
            }),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            let body = encode_request(&req);
            let (back, deadline) = decode_request(&body).expect("decode what we encoded");
            assert_eq!(req, back, "body {body:?}");
            assert_eq!(deadline, 0, "encode_request carries no deadline");
        }
    }

    #[test]
    fn deadlines_round_trip_on_every_request_shape() {
        for (i, req) in all_requests().into_iter().enumerate() {
            let want = 1 + 250 * i as u32;
            let body = encode_request_with_deadline(&req, want);
            let (back, deadline) = decode_request(&body).expect("decode what we encoded");
            assert_eq!(req, back, "body {body:?}");
            assert_eq!(deadline, want, "deadline lost on {req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in all_responses() {
            let body = encode_response(&resp);
            let back = decode_response(&body).expect("decode what we encoded");
            assert_eq!(resp, back, "body {body:?}");
        }
    }

    /// The wire bytes of every message in [`all_requests`] (without
    /// and with a deadline) and [`all_responses`], framed and hashed:
    /// a codec change that moves one byte fails here.
    #[test]
    fn the_wire_bytes_are_pinned() {
        let mut wire = Vec::new();
        for (i, req) in all_requests().iter().enumerate() {
            write_frame(&mut wire, &encode_request(req)).expect("write to Vec");
            let body = encode_request_with_deadline(req, 1 + 250 * i as u32);
            write_frame(&mut wire, &body).expect("write to Vec");
        }
        for resp in all_responses() {
            write_frame(&mut wire, &encode_response(&resp)).expect("write to Vec");
        }
        assert_eq!((wire.len(), fnv1a_64(&wire)), (916, 0xf202_8a5a_53ee_758f));
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let mut stream = Vec::new();
        for req in all_requests() {
            write_frame(&mut stream, &encode_request(&req)).expect("write to Vec");
        }
        let mut cursor = &stream[..];
        let mut back = Vec::new();
        while let Some(body) = read_frame(&mut cursor).expect("valid frames") {
            back.push(decode_request(&body).expect("valid bodies").0);
        }
        assert_eq!(back, all_requests());
    }

    #[test]
    fn clean_eof_is_none_but_mid_frame_eof_is_an_error() {
        assert!(read_frame(&mut &[][..]).expect("clean EOF").is_none());
        let full = frame(&encode_request(&Request::Commit { token: 0 }));
        for cut in 1..full.len() {
            let err = match read_frame(&mut &full[..cut]) {
                Ok(Some(_)) => panic!("cut {cut}: decoded a truncated frame"),
                Ok(None) => panic!("cut {cut}: truncation mistaken for clean EOF"),
                Err(e) => e,
            };
            let msg = err.to_string();
            assert!(
                msg.contains("closed") || msg.contains("truncat"),
                "cut {cut}: {msg}"
            );
        }
    }

    #[test]
    fn corrupted_frames_are_refused_with_a_checksum_error() {
        let full = frame(&encode_request(&Request::BoxSum(rect2(&[(0.0, 1.0)]))));
        // Flip each body byte in turn: the checksum must catch it.
        for i in 4..full.len() - 8 {
            let mut bad = full.clone();
            bad[i] ^= 0x40;
            let err = read_frame(&mut &bad[..]).expect_err("corrupt body");
            assert!(err.to_string().contains("checksum"), "byte {i}: {err}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_capped() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&(MAX_BODY as u32 + 1).to_le_bytes());
        bad.extend_from_slice(&[0u8; 64]);
        let err = read_frame(&mut &bad[..]).expect_err("oversized frame");
        assert!(err.to_string().contains("cap"), "got: {err}");
    }

    #[test]
    fn trailing_garbage_in_bodies_is_rejected_with_the_offset() {
        let mut body = encode_request(&Request::Stats);
        let clean_len = body.len();
        body.push(0xAB);
        let err = decode_request(&body).expect_err("trailing byte");
        let msg = err.to_string();
        assert!(msg.contains("trailing"), "got: {msg}");
        assert!(msg.contains(&format!("byte {clean_len}")), "got: {msg}");
    }

    #[test]
    fn truncated_bodies_name_the_offset() {
        let body = encode_request(&Request::BoxSum(rect2(&[(0.0, 1.0), (0.0, 1.0)])));
        let err = decode_request(&body[..body.len() - 3]).expect_err("truncated");
        assert!(err.to_string().contains("truncated at byte"), "{err}");
    }

    #[test]
    fn inverted_and_nan_rects_are_rejected() {
        // Hand-encode an inverted rect: low > high in dimension 0.
        // The four zero bytes after the tag are the (empty) deadline.
        let mut body = vec![TAG_BOX_SUM, 0, 0, 0, 0];
        for p in [[2.0f64], [1.0f64]] {
            body.push(1);
            body.extend_from_slice(&p[0].to_bits().to_le_bytes());
        }
        let err = decode_request(&body).expect_err("inverted rect");
        assert!(err.to_string().contains("inverted"), "{err}");

        let mut body = vec![TAG_BOX_SUM, 0, 0, 0, 0];
        for p in [[f64::NAN], [1.0f64]] {
            body.push(1);
            body.extend_from_slice(&p[0].to_bits().to_le_bytes());
        }
        assert!(decode_request(&body).is_err(), "NaN rect must be refused");
    }

    #[test]
    fn error_codes_map_from_typed_errors() {
        assert_eq!(code_for(&invalid_arg("x")), code::INVALID_ARGUMENT);
        assert_eq!(code_for(&Error::ReadOnly { op: "commit" }), code::READ_ONLY);
        assert_eq!(
            code_for(&boxagg_common::error::corrupt("x")),
            code::INTERNAL
        );
        assert_eq!(
            code_for(&Error::DeadlineExceeded { budget_ms: 5 }),
            code::DEADLINE_EXCEEDED
        );
        assert_eq!(
            code_for(&Error::Overloaded { retry_after_ms: 5 }),
            code::OVERLOADED
        );
    }

    #[test]
    fn retry_after_hints_only_accompany_overload() {
        assert_eq!(retry_after_for(&invalid_arg("x"), 40), 0);
        assert_eq!(
            retry_after_for(&Error::Overloaded { retry_after_ms: 15 }, 40),
            15
        );
        assert_eq!(
            retry_after_for(&Error::Overloaded { retry_after_ms: 0 }, 40),
            40
        );
    }

    /// A refusal from a wire decoder: a typed error, never a panic.
    fn assert_typed(e: &Error, what: &str) {
        assert!(
            matches!(
                e,
                Error::InvalidArgument(_) | Error::Corrupt(_) | Error::Io(_)
            ),
            "{what}: {e:?}"
        );
    }

    /// `body` as a request and as a response. Each decode refuses with a
    /// typed error or gives a message that re-encodes to the bytes it
    /// came from — a request and most responses exactly; an error
    /// message (read with `from_utf8_lossy`) and a stats reply (any
    /// non-zero `validate_ok` byte is `true`) once in canonical form.
    /// Returns whether either decoded.
    fn check_body(body: &[u8]) -> bool {
        let request = match decode_request(body) {
            Ok((req, deadline)) => {
                assert_eq!(encode_request_with_deadline(&req, deadline), body);
                true
            }
            Err(e) => {
                assert_typed(&e, "request");
                false
            }
        };
        let response = match decode_response(body) {
            Ok(resp) => {
                let again = encode_response(&resp);
                if matches!(resp, Response::Error { .. } | Response::StatsReply(_)) {
                    let canonical = decode_response(&again).expect("re-decodes");
                    assert_eq!(encode_response(&canonical), again);
                } else {
                    assert_eq!(again, body);
                }
                true
            }
            Err(e) => {
                assert_typed(&e, "response");
                false
            }
        };
        request || response
    }

    /// One mutant through every decoder here that reads a peer's bytes:
    /// `body` through [`check_body`], and `stream` through
    /// [`read_frame`], which refuses typed or reads back exactly the
    /// frame it consumed, whose body then goes through [`check_body`]
    /// too. Returns whether `body` decoded.
    fn check_wire_mutant(body: &[u8], stream: &[u8]) -> bool {
        let mut rest = stream;
        match read_frame(&mut rest) {
            Ok(None) => assert!(stream.is_empty(), "a frame was skipped"),
            Ok(Some(read)) => {
                let used = stream.len() - rest.len();
                assert_eq!(stream[..used], frame(&read), "a frame reads as it was");
                check_body(&read);
            }
            Err(e) => assert_typed(&e, "frame"),
        }
        check_body(body)
    }

    /// Runs `inputs` seeded mutants of every message in [`all_requests`]
    /// and [`all_responses`] through [`check_wire_mutant`]: the mutant
    /// body framed whole (the body decoders behind the frame layer) or,
    /// every other input, a mutant of the seed's frame (the frame layer
    /// itself). Returns how many mutant bodies decoded.
    fn fuzz_wire(inputs: usize, seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seeds: Vec<Vec<u8>> = all_requests()
            .iter()
            .enumerate()
            .map(|(i, req)| encode_request_with_deadline(req, 250 * i as u32))
            .collect();
        seeds.extend(all_responses().iter().map(encode_response));
        let mut decoded = 0;
        for i in 0..inputs {
            let seed = &seeds[i % seeds.len()];
            let body = rng.mutate(seed);
            let stream = if (i / seeds.len()).is_multiple_of(2) {
                frame(&body)
            } else {
                rng.mutate(&frame(seed))
            };
            decoded += usize::from(check_wire_mutant(&body, &stream));
        }
        decoded
    }

    #[test]
    fn fuzz_mutated_wire_bytes_decode_or_refuse() {
        let decoded = fuzz_wire(20_000, 0x5E_27E);
        assert!(
            (2_000..18_000).contains(&decoded),
            "{decoded} of 20,000 mutants decoded: the mutator is degenerate"
        );
    }

    /// The documented longer run: `cargo test --release -p boxagg-serve
    /// --lib fuzz -- --ignored`.
    #[test]
    #[ignore = "long fuzz run"]
    fn fuzz_long_run() {
        for seed in 0..50 {
            fuzz_wire(200_000, seed);
        }
    }
}
