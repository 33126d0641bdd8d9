//! The wire protocol: length-prefixed frames carrying requests and replies.
//!
//! Everything on the wire is little-endian and self-describing enough for a
//! blocking reader: a `u32` payload length, then the payload. Requests open
//! with an opcode byte; per-statement options ride along as `(key, u64)`
//! pairs (floats as IEEE bits), so the option set can grow without a frame
//! version bump — unknown keys are a decode error, which is the right
//! failure for a single-version protocol. Replies open with a status byte;
//! errors round-trip *typed* (a `DeadlineExceeded` on the server is a
//! `DeadlineExceeded` in the client), because the concurrency harness and
//! the fuzzer assert on error identity, not just error text.
//!
//! Decoding never trusts the peer: lengths are bounded by the frame size
//! (itself capped at [`MAX_FRAME`]), and every read checks the remaining
//! buffer, so a malformed frame yields a protocol error instead of a panic
//! or an unbounded allocation.

use mylite::{CacheOutcome, SessionOpts};
use std::io::{Read, Write};
use taurus_common::error::{Error, Result};
use taurus_common::Value;

/// Upper bound on a frame payload (16 MiB): big enough for any plausible
/// result set at benchmark scale, small enough that a corrupt length
/// prefix cannot trigger a multi-gigabyte allocation.
pub const MAX_FRAME: usize = 16 << 20;

// Request opcodes.
const OP_QUERY: u8 = 0x01;
const OP_EXPLAIN: u8 = 0x02;
const OP_SET: u8 = 0x03;
const OP_ANALYZE: u8 = 0x04;
const OP_QUIT: u8 = 0x06;

// Reply status bytes.
const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

// Ok-reply kinds.
const REPLY_ROWS: u8 = 0;
const REPLY_TEXT: u8 = 1;
const REPLY_UNIT: u8 = 2;

// Value tags.
const VAL_NULL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_DOUBLE: u8 = 2;
const VAL_STR: u8 = 3;
const VAL_DATE: u8 = 4;
const VAL_BOOL: u8 = 5;

// Error codes.
const ERR_PARSE: u8 = 1;
const ERR_RESOLUTION: u8 = 2;
const ERR_SEMANTIC: u8 = 3;
const ERR_CATALOG: u8 = 4;
const ERR_FALLBACK: u8 = 5;
const ERR_EXECUTION: u8 = 6;
const ERR_RESOURCE: u8 = 7;
const ERR_CANCELLED: u8 = 8;
const ERR_DEADLINE: u8 = 9;
const ERR_MEMORY: u8 = 10;
const ERR_INTERNAL: u8 = 11;

/// How a statement was served, as reported to the client. Mirrors the
/// engine's [`CacheOutcome`] plus `Uncached` for statements that bypass
/// the plan cache entirely (INSERT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    Miss,
    Hit,
    Invalidated,
    Reoptimized,
    Uncached,
}

impl From<CacheOutcome> for ServeOutcome {
    fn from(o: CacheOutcome) -> ServeOutcome {
        match o {
            CacheOutcome::Miss => ServeOutcome::Miss,
            CacheOutcome::Hit => ServeOutcome::Hit,
            CacheOutcome::Invalidated => ServeOutcome::Invalidated,
            CacheOutcome::Reoptimized => ServeOutcome::Reoptimized,
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a statement. Options apply to this statement only, layered
    /// over the session's `SET` state.
    Query { opts: SessionOpts, sql: String },
    /// EXPLAIN a statement through the plan cache.
    Explain { opts: SessionOpts, sql: String },
    /// Fold options into the session state (later statements inherit them).
    Set { opts: SessionOpts },
    /// Run ANALYZE on every table — the DDL that bumps the catalog version.
    Analyze,
    /// Close the session.
    Quit,
}

/// One server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Query results.
    Rows { outcome: ServeOutcome, columns: Vec<String>, rows: Vec<Vec<Value>> },
    /// EXPLAIN text.
    Text(String),
    /// Success with no payload (SET, ANALYZE).
    Unit,
    /// The statement failed; the error is reconstructed typed.
    Err(Error),
}

fn protocol_err(what: &str) -> Error {
    Error::internal(format!("wire protocol: {what}"))
}

// ---------------------------------------------------------------- framing

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    // One write per frame: splitting the length prefix and the payload
    // into separate small writes puts the payload segment behind Nagle
    // waiting on the peer's delayed ACK of the prefix segment — a ~40ms
    // stall per round trip on back-to-back requests.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    // A clean EOF before any length byte is a normal hangup.
    match r.read(&mut len) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len[n..])?,
        Err(e) => return Err(e),
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------- cursor

/// A bounds-checked reader over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|e| *e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(protocol_err("truncated frame")),
        }
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    fn string(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| protocol_err("non-UTF-8 string"))
    }

    fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(protocol_err("trailing bytes after message"))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------- options

/// Options travel as a count byte and `(key, u64)` pairs. Which keys exist
/// and what they carry is the engine's knob table's business
/// (`mylite::knobs`); this codec only frames the pairs.
fn encode_opts(out: &mut Vec<u8>, opts: &SessionOpts) {
    let count_at = out.len();
    out.push(0);
    opts.for_each_wire(|key, bits| {
        out[count_at] += 1;
        out.push(key);
        out.extend_from_slice(&bits.to_le_bytes());
    });
}

fn decode_opts(c: &mut Cursor) -> Result<SessionOpts> {
    let n = c.u8()?;
    let mut opts = SessionOpts::default();
    for _ in 0..n {
        let key = c.u8()?;
        let bits = c.u64()?;
        if !opts.set_wire(key, bits) {
            return Err(protocol_err(&format!("unknown option key {key}")));
        }
    }
    Ok(opts)
}

// ---------------------------------------------------------------- requests

pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Query { opts, sql } => {
            out.push(OP_QUERY);
            encode_opts(&mut out, opts);
            put_string(&mut out, sql);
        }
        Request::Explain { opts, sql } => {
            out.push(OP_EXPLAIN);
            encode_opts(&mut out, opts);
            put_string(&mut out, sql);
        }
        Request::Set { opts } => {
            out.push(OP_SET);
            encode_opts(&mut out, opts);
        }
        Request::Analyze => out.push(OP_ANALYZE),
        Request::Quit => out.push(OP_QUIT),
    }
    out
}

pub fn decode_request(payload: &[u8]) -> Result<Request> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        OP_QUERY => {
            let opts = decode_opts(&mut c)?;
            let sql = c.string()?;
            Request::Query { opts, sql }
        }
        OP_EXPLAIN => {
            let opts = decode_opts(&mut c)?;
            let sql = c.string()?;
            Request::Explain { opts, sql }
        }
        OP_SET => Request::Set { opts: decode_opts(&mut c)? },
        OP_ANALYZE => Request::Analyze,
        OP_QUIT => Request::Quit,
        other => return Err(protocol_err(&format!("unknown opcode {other:#04x}"))),
    };
    c.done()?;
    Ok(req)
}

// ---------------------------------------------------------------- values

fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(VAL_NULL),
        Value::Int(i) => {
            out.push(VAL_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(VAL_DOUBLE);
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            put_string(out, s);
        }
        Value::Date(d) => {
            out.push(VAL_DATE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(*b as u8);
        }
    }
}

fn decode_value(c: &mut Cursor) -> Result<Value> {
    Ok(match c.u8()? {
        VAL_NULL => Value::Null,
        VAL_INT => Value::Int(c.i64()?),
        VAL_DOUBLE => Value::Double(f64::from_bits(c.u64()?)),
        VAL_STR => Value::str(c.string()?),
        VAL_DATE => Value::Date(c.u32()? as i32),
        VAL_BOOL => Value::Bool(c.u8()? != 0),
        other => return Err(protocol_err(&format!("unknown value tag {other}"))),
    })
}

// ---------------------------------------------------------------- errors

fn encode_error(out: &mut Vec<u8>, e: &Error) {
    match e {
        Error::Parse { message, offset } => {
            out.push(ERR_PARSE);
            out.extend_from_slice(&(*offset as u64).to_le_bytes());
            put_string(out, message);
        }
        Error::Resolution(m) => {
            out.push(ERR_RESOLUTION);
            put_string(out, m);
        }
        Error::Semantic(m) => {
            out.push(ERR_SEMANTIC);
            put_string(out, m);
        }
        Error::CatalogMissing(m) => {
            out.push(ERR_CATALOG);
            put_string(out, m);
        }
        Error::OrcaFallback(m) => {
            out.push(ERR_FALLBACK);
            put_string(out, m);
        }
        Error::Execution(m) => {
            out.push(ERR_EXECUTION);
            put_string(out, m);
        }
        Error::ResourceExhausted { resource, limit } => {
            out.push(ERR_RESOURCE);
            out.extend_from_slice(&limit.to_le_bytes());
            put_string(out, resource);
        }
        Error::Cancelled => out.push(ERR_CANCELLED),
        Error::DeadlineExceeded { budget_ms } => {
            out.push(ERR_DEADLINE);
            out.extend_from_slice(&budget_ms.to_le_bytes());
        }
        Error::MemoryExceeded { used, budget } => {
            out.push(ERR_MEMORY);
            out.extend_from_slice(&used.to_le_bytes());
            out.extend_from_slice(&budget.to_le_bytes());
        }
        Error::Internal(m) => {
            out.push(ERR_INTERNAL);
            put_string(out, m);
        }
    }
}

fn decode_error(c: &mut Cursor) -> Result<Error> {
    Ok(match c.u8()? {
        ERR_PARSE => {
            let offset = c.u64()? as usize;
            Error::Parse { message: c.string()?, offset }
        }
        ERR_RESOLUTION => Error::Resolution(c.string()?),
        ERR_SEMANTIC => Error::Semantic(c.string()?),
        ERR_CATALOG => Error::CatalogMissing(c.string()?),
        ERR_FALLBACK => Error::OrcaFallback(c.string()?),
        ERR_EXECUTION => Error::Execution(c.string()?),
        ERR_RESOURCE => {
            let limit = c.u64()?;
            Error::ResourceExhausted { resource: c.string()?, limit }
        }
        ERR_CANCELLED => Error::Cancelled,
        ERR_DEADLINE => Error::DeadlineExceeded { budget_ms: c.u64()? },
        ERR_MEMORY => {
            let used = c.u64()?;
            Error::MemoryExceeded { used, budget: c.u64()? }
        }
        ERR_INTERNAL => Error::Internal(c.string()?),
        other => return Err(protocol_err(&format!("unknown error code {other}"))),
    })
}

// ---------------------------------------------------------------- replies

pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut out = Vec::new();
    match reply {
        Reply::Rows { outcome, columns, rows } => {
            out.push(STATUS_OK);
            out.push(REPLY_ROWS);
            out.push(match outcome {
                ServeOutcome::Miss => 0,
                ServeOutcome::Hit => 1,
                ServeOutcome::Invalidated => 2,
                ServeOutcome::Reoptimized => 3,
                ServeOutcome::Uncached => 4,
            });
            out.extend_from_slice(&(columns.len() as u32).to_le_bytes());
            for col in columns {
                put_string(&mut out, col);
            }
            out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for row in rows {
                for v in row {
                    encode_value(&mut out, v);
                }
            }
        }
        Reply::Text(t) => {
            out.push(STATUS_OK);
            out.push(REPLY_TEXT);
            put_string(&mut out, t);
        }
        Reply::Unit => {
            out.push(STATUS_OK);
            out.push(REPLY_UNIT);
        }
        Reply::Err(e) => {
            out.push(STATUS_ERR);
            encode_error(&mut out, e);
        }
    }
    out
}

pub fn decode_reply(payload: &[u8]) -> Result<Reply> {
    let mut c = Cursor::new(payload);
    let reply = match c.u8()? {
        STATUS_OK => match c.u8()? {
            REPLY_ROWS => {
                let outcome = match c.u8()? {
                    0 => ServeOutcome::Miss,
                    1 => ServeOutcome::Hit,
                    2 => ServeOutcome::Invalidated,
                    3 => ServeOutcome::Reoptimized,
                    4 => ServeOutcome::Uncached,
                    other => {
                        return Err(protocol_err(&format!("unknown outcome {other}")));
                    }
                };
                let ncols = c.u32()? as usize;
                let mut columns = Vec::with_capacity(ncols.min(1024));
                for _ in 0..ncols {
                    columns.push(c.string()?);
                }
                let nrows = c.u32()? as usize;
                let mut rows = Vec::new();
                for _ in 0..nrows {
                    let mut row = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        row.push(decode_value(&mut c)?);
                    }
                    rows.push(row);
                }
                Reply::Rows { outcome, columns, rows }
            }
            REPLY_TEXT => Reply::Text(c.string()?),
            REPLY_UNIT => Reply::Unit,
            other => return Err(protocol_err(&format!("unknown reply kind {other}"))),
        },
        STATUS_ERR => Reply::Err(decode_error(&mut c)?),
        other => return Err(protocol_err(&format!("unknown status {other}"))),
    };
    c.done()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Query {
                opts: SessionOpts {
                    dop: Some(4),
                    deadline_ms: Some(0),
                    reopt_q_threshold: Some(2.5),
                    ..SessionOpts::default()
                },
                sql: "SELECT 1".into(),
            },
            Request::Explain { opts: SessionOpts::default(), sql: "SELECT x FROM t".into() },
            Request::Set {
                opts: SessionOpts {
                    memory_budget: Some(1 << 20),
                    morsel_rows: Some(512),
                    parallel_threshold: Some(9),
                    order_opt: Some(false),
                    ..SessionOpts::default()
                },
            },
            Request::Analyze,
            Request::Quit,
        ];
        for req in reqs {
            let decoded = decode_request(&encode_request(&req)).unwrap();
            assert_eq!(decoded, req);
        }
    }

    fn wire_pairs(opts: &SessionOpts) -> Vec<(u8, u64)> {
        let mut pairs = Vec::new();
        opts.for_each_wire(|k, v| pairs.push((k, v)));
        pairs
    }

    #[test]
    fn every_knob_in_the_table_round_trips_at_its_default_and_its_edges() {
        // Walks the engine's knob table, so a new row is covered as is.
        let none = encode_request(&Request::Set { opts: SessionOpts::default() });
        assert_eq!(none, [OP_SET, 0], "absent knobs cost one count byte");
        for row in mylite::knobs::table() {
            let edges =
                [row.default_bits, 0, u64::MAX, f64::INFINITY.to_bits(), f64::NAN.to_bits()];
            for bits in edges {
                let mut opts = SessionOpts::default();
                assert!(opts.set_wire(row.wire_key, bits), "{}", row.name);
                let frame = encode_request(&Request::Query { opts, sql: "SELECT 1".into() });
                assert_eq!(frame[..3], [OP_QUERY, 1, row.wire_key], "{}", row.name);
                let Request::Query { opts: back, sql } = decode_request(&frame).unwrap() else {
                    panic!("{}: decoded as another request", row.name);
                };
                // Compared as wire pairs: a NaN option is not `==` itself.
                assert_eq!(wire_pairs(&back), wire_pairs(&opts), "{} at {bits:#x}", row.name);
                assert_eq!(sql, "SELECT 1");
            }
        }
    }

    #[test]
    fn option_frames_keep_their_bytes() {
        // The frame a pre-table client sent for these options, byte for
        // byte: count, then (key, u64 LE) pairs in ascending key order.
        let opts = SessionOpts {
            order_opt: Some(false),
            dop: Some(4),
            reopt_q_threshold: Some(2.5),
            deadline_ms: Some(0),
            morsel_rows: Some(512),
            memory_budget: Some(1 << 20),
            parallel_threshold: Some(9),
        };
        let mut want = vec![OP_SET, 7];
        for (key, bits) in
            [(1u8, 4u64), (2, 512), (3, 9), (4, 0), (5, 1 << 20), (6, 2.5f64.to_bits()), (8, 0)]
        {
            want.push(key);
            want.extend_from_slice(&bits.to_le_bytes());
        }
        assert_eq!(encode_request(&Request::Set { opts }), want);
        assert_eq!(decode_request(&want).unwrap(), Request::Set { opts });
    }

    #[test]
    fn replies_round_trip_values_and_typed_errors() {
        let rows = Reply::Rows {
            outcome: ServeOutcome::Reoptimized,
            columns: vec!["a".into(), "b".into()],
            rows: vec![
                vec![Value::Int(-7), Value::str("héllo")],
                vec![Value::Null, Value::Double(2.5)],
                vec![Value::Date(-3), Value::Bool(true)],
            ],
        };
        for reply in [
            rows,
            Reply::Text("EXPLAIN\n-> scan".into()),
            Reply::Unit,
            Reply::Err(Error::DeadlineExceeded { budget_ms: 42 }),
            Reply::Err(Error::MemoryExceeded { used: 100, budget: 64 }),
            Reply::Err(Error::Cancelled),
            Reply::Err(Error::Parse { message: "bad token".into(), offset: 17 }),
            Reply::Err(Error::ResourceExhausted { resource: "groups".into(), limit: 9 }),
        ] {
            let decoded = decode_reply(&encode_reply(&reply)).unwrap();
            assert_eq!(decoded, reply);
        }
    }

    #[test]
    fn malformed_frames_fail_without_panicking() {
        assert!(decode_request(&[]).is_err(), "empty payload");
        assert!(decode_request(&[0xEE]).is_err(), "unknown opcode");
        assert!(decode_request(&[0x01, 1, 99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err(), "bad key");
        assert!(decode_request(&[0x01, 1, 7, 1, 0, 0, 0, 0, 0, 0, 0]).is_err(), "retired key");
        // Truncated string length.
        assert!(decode_request(&[0x01, 0, 255, 0, 0, 0]).is_err());
        let mut ok = encode_request(&Request::Analyze);
        ok.push(0);
        assert!(decode_request(&ok).is_err(), "trailing bytes rejected");
        assert!(decode_reply(&[0, 0, 9]).is_err(), "unknown outcome");
    }

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let payload = encode_request(&Request::Query {
            opts: SessionOpts::default(),
            sql: "SELECT 1".into(),
        });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after last frame");
    }
}
