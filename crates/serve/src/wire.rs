//! Wire protocol: one logical message vocabulary, two framings.
//!
//! A connection speaks either **NDJSON** (one JSON object per `\n`-
//! terminated line — trivially scriptable: `nc` + a text editor is a
//! client) or **length-prefixed binary** (a 4-byte `IMPB` magic, then
//! frames of `u32`-LE length + payload — the fast path, with raw
//! little-endian event batches instead of JSON number parsing). The
//! server sniffs the first byte: `{` opens an NDJSON session, the magic
//! opens a binary one, and replies always use the session's framing.
//!
//! The protocol is strict request/reply ordering: the server answers
//! client frames in arrival order, one reply per request, so lockstep
//! clients never deadlock on socket buffers and the network-fault suite
//! (`tests/session_resume.rs`) can diff byte streams. (The server may
//! additionally send one unsolicited [`ServerMsg::Close`] frame right
//! before it hangs up — a drain shutdown, an idle-deadline eviction, or a
//! slow-consumer eviction.)
//!
//! **Sessions.** Every frame travels inside an envelope. Client frames
//! ([`ClientFrame`]) carry a session **sequence number** `seq` (1-based;
//! 0 marks unsequenced messages: open / metrics / ping) and a receive
//! acknowledgement `ack` ("I have processed every reply with sequence ≤
//! ack"). Server frames ([`ServerFrame`]) echo the `seq` they answer.
//! Sequence numbers make reconnects exactly-once: a client that lost a
//! connection re-opens with a resume token and **resends its unacked
//! window**; the server deduplicates the already-applied prefix (replying
//! from its bounded reply cache) and applies only the genuinely new
//! suffix. See `DESIGN.md` §15 for the full contract.
//!
//! Binary frame payloads begin with a tag byte: `J` (a JSON control
//! message, identical to the NDJSON form), `E` (a raw client event
//! batch), or `O` (a raw server output frame).

use crate::error::ServeError;
use impatience_core::{json, Event, Json, Timestamp};
use std::io::{BufRead, Read, Write};

/// Connection magic opening a binary-framed session.
pub const BINARY_MAGIC: &[u8; 4] = b"IMPB";

/// Frames larger than this are rejected as protocol violations — a
/// corrupt length prefix must not trigger a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// How a session frames its messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// One JSON object per newline-terminated line.
    Ndjson,
    /// `IMPB` magic, then `u32`-LE length-prefixed tagged frames.
    Binary,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Open (or recover, or resume) a tenant from its declarative config.
    Open {
        /// The tenant config, as its JSON wire form.
        config: Json,
        /// Resume token from a previous `open` reply: re-attach to the
        /// named tenant's surviving session instead of starting fresh.
        resume: Option<String>,
        /// Ask the server to keep the session resumable: on disconnect
        /// the tenant runtime is parked (within the server's park
        /// deadline) instead of being torn down.
        resumable: bool,
    },
    /// Ingest a batch of events (sync time, key, payload).
    Events {
        /// The batch, in arrival order; disorder is expected.
        batch: Vec<Event<i64>>,
    },
    /// Force a punctuation at `t` (normally the service punctuates
    /// adaptively; this is for drains and tests).
    Punctuate {
        /// The punctuation timestamp.
        t: Timestamp,
    },
    /// Flush and complete the tenant's stream.
    Complete,
    /// Fetch the tenant's metrics snapshot.
    Metrics,
    /// Hot-swap the tenant onto a new config (flushes the old pipeline).
    Reconfigure {
        /// The replacement tenant config, as its JSON wire form.
        config: Json,
    },
    /// Liveness probe; the server answers [`ServerMsg::Pong`] with the
    /// same nonce.
    Ping {
        /// Opaque correlation value echoed back.
        nonce: u64,
    },
}

impl ClientMsg {
    /// Whether this message mutates tenant state and therefore must carry
    /// a nonzero sequence number.
    pub fn is_sequenced(&self) -> bool {
        matches!(
            self,
            ClientMsg::Events { .. }
                | ClientMsg::Punctuate { .. }
                | ClientMsg::Complete
                | ClientMsg::Reconfigure { .. }
        )
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// The request succeeded and produced no stream output.
    Ok {
        /// Supplemental detail (e.g. recovery info), often `Null`.
        info: Json,
    },
    /// Stream output released by the request: events, punctuations
    /// crossed, and whether the stream completed.
    Out {
        /// Released events, in emission order.
        batch: Vec<Event<i64>>,
        /// Punctuations emitted alongside.
        puncts: Vec<Timestamp>,
        /// True once the tenant's stream is complete.
        completed: bool,
    },
    /// The tenant's metrics snapshot.
    Metrics {
        /// The snapshot, as registry JSON.
        snapshot: Json,
    },
    /// Reply to [`ClientMsg::Ping`].
    Pong {
        /// The request's nonce, echoed.
        nonce: u64,
    },
    /// Unsolicited terminal frame: the server is about to close this
    /// connection (drain shutdown, idle deadline, slow-consumer
    /// eviction). A resumable session survives parked; re-open with the
    /// resume token.
    Close {
        /// Why the connection is closing.
        reason: String,
    },
    /// The request failed; the tenant may or may not still be usable
    /// (see [`ServeError`] variants).
    Error {
        /// The typed failure.
        error: ServeError,
    },
}

/// A client message inside its session envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientFrame {
    /// 1-based request sequence; 0 for unsequenced messages.
    pub seq: u64,
    /// Receive high-water: every reply with sequence ≤ `ack` has been
    /// processed by the client (the server may evict its cached copies).
    pub ack: u64,
    /// The message itself.
    pub msg: ClientMsg,
}

impl ClientFrame {
    /// An unsequenced frame (open / metrics / ping).
    pub fn unsequenced(msg: ClientMsg) -> Self {
        ClientFrame {
            seq: 0,
            ack: 0,
            msg,
        }
    }
}

/// A server message inside its session envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerFrame {
    /// Sequence of the client request this frame answers; 0 for replies
    /// to unsequenced requests and for unsolicited frames.
    pub seq: u64,
    /// The message itself.
    pub msg: ServerMsg,
}

impl ServerFrame {
    /// A reply to an unsequenced request (or an unsolicited frame).
    pub fn unsequenced(msg: ServerMsg) -> Self {
        ServerFrame { seq: 0, msg }
    }
}

fn event_to_json(e: &Event<i64>) -> Json {
    json!([
        e.sync_time.ticks(),
        e.other_time.ticks(),
        e.key as i64,
        e.payload
    ])
}

fn event_from_json(v: &Json) -> Result<Event<i64>, ServeError> {
    let bad = |detail: &str| ServeError::Protocol {
        detail: detail.to_string(),
    };
    let parts = v.as_array().ok_or_else(|| bad("event must be an array"))?;
    let num = |i: usize| -> Result<i64, ServeError> {
        parts
            .get(i)
            .and_then(Json::as_i64)
            .ok_or_else(|| bad("event fields must be integers"))
    };
    // The key is a u32, as in the binary framing; no other value narrows.
    let key = |i: usize| -> Result<u32, ServeError> {
        u32::try_from(num(i)?).map_err(|_| bad("event key must be in 0..=4294967295"))
    };
    match parts.len() {
        // [sync, key, payload] — a point event.
        3 => Ok(Event::keyed(Timestamp::new(num(0)?), key(1)?, num(2)?)),
        // [sync, other, key, payload] — full interval form.
        4 => {
            let mut e = Event::keyed(Timestamp::new(num(0)?), key(2)?, num(3)?);
            e.other_time = Timestamp::new(num(1)?);
            Ok(e)
        }
        n => Err(bad(&format!("event array has {n} fields, expected 3 or 4"))),
    }
}

fn events_to_json(batch: &[Event<i64>]) -> Json {
    Json::Array(batch.iter().map(event_to_json).collect())
}

fn events_from_json(v: Option<&Json>) -> Result<Vec<Event<i64>>, ServeError> {
    let arr = v
        .and_then(Json::as_array)
        .ok_or_else(|| ServeError::Protocol {
            detail: "missing \"batch\" array".to_string(),
        })?;
    arr.iter().map(event_from_json).collect()
}

/// Appends the nonzero envelope fields onto a control object.
fn with_envelope(v: Json, seq: u64, ack: u64) -> Json {
    let Json::Object(mut fields) = v else {
        return v;
    };
    if seq != 0 {
        fields.push(("seq".to_string(), Json::Int(seq as i128)));
    }
    if ack != 0 {
        fields.push(("ack".to_string(), Json::Int(ack as i128)));
    }
    Json::Object(fields)
}

fn envelope_field(v: &Json, name: &str) -> Result<u64, ServeError> {
    match v.get(name) {
        None | Some(Json::Null) => Ok(0),
        Some(f) => f
            .as_i64()
            .filter(|n| *n >= 0)
            .map(|n| n as u64)
            .ok_or_else(|| ServeError::Protocol {
                detail: format!("\"{name}\" must be a non-negative integer"),
            }),
    }
}

impl ClientMsg {
    /// The JSON control form shared by both framings (without envelope).
    pub fn to_json(&self) -> Json {
        match self {
            ClientMsg::Open {
                config,
                resume,
                resumable,
            } => {
                let mut fields = vec![
                    ("type".to_string(), json!("open")),
                    ("tenant".to_string(), config.clone()),
                ];
                if let Some(token) = resume {
                    fields.push(("resume".to_string(), json!(token.as_str())));
                }
                if *resumable {
                    fields.push(("resumable".to_string(), Json::Bool(true)));
                }
                Json::Object(fields)
            }
            ClientMsg::Events { batch } => {
                json!({"type": "events", "batch": events_to_json(batch)})
            }
            ClientMsg::Punctuate { t } => json!({"type": "punctuate", "t": t.ticks()}),
            ClientMsg::Complete => json!({"type": "complete"}),
            ClientMsg::Metrics => json!({"type": "metrics"}),
            ClientMsg::Reconfigure { config } => {
                json!({"type": "reconfigure", "tenant": config.clone()})
            }
            ClientMsg::Ping { nonce } => json!({"type": "ping", "nonce": *nonce as i64}),
        }
    }

    /// Parses the JSON control form (envelope fields are ignored here;
    /// [`ClientFrame::from_json`] reads them).
    pub fn from_json(v: &Json) -> Result<ClientMsg, ServeError> {
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::Protocol {
                detail: "client frame has no \"type\"".to_string(),
            })?;
        match ty {
            "open" | "reconfigure" => {
                let config = v
                    .get("tenant")
                    .cloned()
                    .ok_or_else(|| ServeError::Protocol {
                        detail: format!("\"{ty}\" frame has no \"tenant\" config"),
                    })?;
                Ok(if ty == "open" {
                    ClientMsg::Open {
                        config,
                        resume: v
                            .get("resume")
                            .and_then(Json::as_str)
                            .map(|s| s.to_string()),
                        resumable: v.get("resumable").and_then(Json::as_bool).unwrap_or(false),
                    }
                } else {
                    ClientMsg::Reconfigure { config }
                })
            }
            "events" => Ok(ClientMsg::Events {
                batch: events_from_json(v.get("batch"))?,
            }),
            "punctuate" => Ok(ClientMsg::Punctuate {
                t: Timestamp::new(v.get("t").and_then(Json::as_i64).ok_or_else(|| {
                    ServeError::Protocol {
                        detail: "\"punctuate\" frame has no integer \"t\"".to_string(),
                    }
                })?),
            }),
            "complete" => Ok(ClientMsg::Complete),
            "metrics" => Ok(ClientMsg::Metrics),
            "ping" => Ok(ClientMsg::Ping {
                nonce: envelope_field(v, "nonce")?,
            }),
            other => Err(ServeError::Protocol {
                detail: format!("unknown client frame type \"{other}\""),
            }),
        }
    }
}

impl ClientFrame {
    /// The enveloped JSON form.
    pub fn to_json(&self) -> Json {
        with_envelope(self.msg.to_json(), self.seq, self.ack)
    }

    /// Parses the enveloped JSON form.
    pub fn from_json(v: &Json) -> Result<ClientFrame, ServeError> {
        Ok(ClientFrame {
            seq: envelope_field(v, "seq")?,
            ack: envelope_field(v, "ack")?,
            msg: ClientMsg::from_json(v)?,
        })
    }
}

impl ServerMsg {
    /// The JSON control form shared by both framings (without envelope).
    pub fn to_json(&self) -> Json {
        match self {
            ServerMsg::Ok { info } => json!({"type": "ok", "info": info.clone()}),
            ServerMsg::Out {
                batch,
                puncts,
                completed,
            } => json!({
                "type": "out",
                "batch": events_to_json(batch),
                "puncts": Json::Array(puncts.iter().map(|t| json!(t.ticks())).collect()),
                "completed": *completed,
            }),
            ServerMsg::Metrics { snapshot } => {
                json!({"type": "metrics", "snapshot": snapshot.clone()})
            }
            ServerMsg::Pong { nonce } => json!({"type": "pong", "nonce": *nonce as i64}),
            ServerMsg::Close { reason } => json!({"type": "close", "reason": reason.as_str()}),
            ServerMsg::Error { error } => json!({"type": "error", "error": error.to_json()}),
        }
    }

    /// Parses the JSON control form.
    pub fn from_json(v: &Json) -> Result<ServerMsg, ServeError> {
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::Protocol {
                detail: "server frame has no \"type\"".to_string(),
            })?;
        match ty {
            "ok" => Ok(ServerMsg::Ok {
                info: v.get("info").cloned().unwrap_or(Json::Null),
            }),
            "out" => Ok(ServerMsg::Out {
                batch: events_from_json(v.get("batch"))?,
                puncts: v
                    .get("puncts")
                    .and_then(Json::as_array)
                    .map(|a| {
                        a.iter()
                            .filter_map(Json::as_i64)
                            .map(Timestamp::new)
                            .collect()
                    })
                    .unwrap_or_default(),
                completed: v.get("completed").and_then(Json::as_bool).unwrap_or(false),
            }),
            "metrics" => Ok(ServerMsg::Metrics {
                snapshot: v.get("snapshot").cloned().unwrap_or(Json::Null),
            }),
            "pong" => Ok(ServerMsg::Pong {
                nonce: envelope_field(v, "nonce")?,
            }),
            "close" => Ok(ServerMsg::Close {
                reason: v
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("closed")
                    .to_string(),
            }),
            "error" => Ok(ServerMsg::Error {
                error: v
                    .get("error")
                    .map(ServeError::from_json)
                    .unwrap_or(ServeError::Protocol {
                        detail: "error frame without error object".to_string(),
                    }),
            }),
            other => Err(ServeError::Protocol {
                detail: format!("unknown server frame type \"{other}\""),
            }),
        }
    }
}

impl ServerFrame {
    /// The enveloped JSON form.
    pub fn to_json(&self) -> Json {
        with_envelope(self.msg.to_json(), self.seq, 0)
    }

    /// Parses the enveloped JSON form.
    pub fn from_json(v: &Json) -> Result<ServerFrame, ServeError> {
        Ok(ServerFrame {
            seq: envelope_field(v, "seq")?,
            msg: ServerMsg::from_json(v)?,
        })
    }
}

// ---- binary event codec -------------------------------------------------

/// Bytes of one binary event record: `sync | other | key | payload`,
/// little-endian — the bytes `StateCodec for Event<i64>` writes, so a
/// batch on the wire reads like a batch in the WAL.
const RECORD: usize = 28;

/// Bytes of an event frame staged before each write: a frame goes out in
/// slices this size, each still in cache when it is written, so no copy
/// of a whole batch is ever built in wire form.
const STAGE_BYTES: usize = 64 << 10;

/// Appends every event as one fixed-stride record, into room made once.
fn encode_records(out: &mut Vec<u8>, batch: &[Event<i64>]) {
    let start = out.len();
    out.resize(start + RECORD * batch.len(), 0);
    for (record, e) in out[start..].chunks_exact_mut(RECORD).zip(batch) {
        record[..8].copy_from_slice(&e.sync_time.ticks().to_le_bytes());
        record[8..16].copy_from_slice(&e.other_time.ticks().to_le_bytes());
        record[16..20].copy_from_slice(&e.key.to_le_bytes());
        record[20..].copy_from_slice(&e.payload.to_le_bytes());
    }
}

/// Writes one binary event frame: the length prefix, `head` (tag and
/// envelope), the batch's count and records, then `tail`, staging at most
/// about [`STAGE_BYTES`] at a time.
fn write_events_frame(
    w: &mut impl Write,
    head: &[u8],
    batch: &[Event<i64>],
    tail: &[u8],
) -> Result<(), ServeError> {
    let len = head.len() + 4 + RECORD * batch.len() + tail.len();
    let mut stage = Vec::with_capacity((4 + len).min(STAGE_BYTES + 64));
    stage.extend_from_slice(&(len as u32).to_le_bytes());
    stage.extend_from_slice(head);
    stage.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    let io = |e| ServeError::io("write frame", e);
    for slice in batch.chunks(STAGE_BYTES / RECORD) {
        encode_records(&mut stage, slice);
        if stage.len() >= STAGE_BYTES {
            w.write_all(&stage).map_err(io)?;
            stage.clear();
        }
    }
    stage.extend_from_slice(tail);
    w.write_all(&stage).and_then(|_| w.flush()).map_err(io)
}

fn decode_record(record: &[u8]) -> Event<i64> {
    let word = |at: usize| i64::from_le_bytes(record[at..at + 8].try_into().expect("8 bytes"));
    let key = u32::from_le_bytes(record[16..20].try_into().expect("4 bytes"));
    let mut e = Event::keyed(Timestamp::new(word(0)), key, word(20));
    e.other_time = Timestamp::new(word(8));
    e
}

struct RawReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> RawReader<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], ServeError> {
        Ok(self.records(1, N)?.try_into().expect("length checked"))
    }

    /// The next `count` records of `stride` bytes, checked against the
    /// frame once.
    fn records(&mut self, count: usize, stride: usize) -> Result<&'a [u8], ServeError> {
        let end = count
            .checked_mul(stride)
            .and_then(|bytes| bytes.checked_add(self.at))
            .filter(|end| *end <= self.buf.len())
            .ok_or_else(|| ServeError::Protocol {
                detail: "binary frame truncated".to_string(),
            })?;
        let records = &self.buf[self.at..end];
        self.at = end;
        Ok(records)
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    fn events(&mut self) -> Result<Vec<Event<i64>>, ServeError> {
        let n = self.u32()? as usize;
        let records = self.records(n, RECORD).map_err(|_| ServeError::Protocol {
            detail: "binary batch count exceeds frame".to_string(),
        })?;
        Ok(records.chunks_exact(RECORD).map(decode_record).collect())
    }

    fn timestamps(&mut self) -> Result<Vec<Timestamp>, ServeError> {
        let n = self.u32()? as usize;
        let words = self.records(n, 8)?.chunks_exact(8);
        Ok(words
            .map(|w| Timestamp::new(i64::from_le_bytes(w.try_into().expect("8 bytes"))))
            .collect())
    }
}

// ---- NDJSON event frames ------------------------------------------------
//
// `events` and `out` frames carry the bulk of an NDJSON session, so they
// skip the `Json` tree: the writer prints exactly what
// `to_json().to_string()` prints, and the scanner reads exactly that shape
// back. Any other spelling of the same frame — another key order,
// whitespace, the 3-field point form, a number out of range — makes the
// scanner give up, and the line goes through `core::json` instead.

/// Most bytes one event takes in a batch: `[`, four integers of at most
/// 20 characters, three commas, `]` and the separating comma.
const TEXT_EVENT_MAX: usize = 4 * 20 + 5;

const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `n` in decimal, two digits per step. Through `write!` the
/// traced NDJSON encode rows read 75–79 ns/event on a 2-vCPU host,
/// against 35–36 with this loop.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    out.extend_from_slice(&buf[at..]);
}

fn push_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    push_u64(out, n.unsigned_abs());
}

/// `[[sync,other,key,payload],...]`, as [`events_to_json`] prints it.
fn push_events(out: &mut Vec<u8>, batch: &[Event<i64>]) {
    out.reserve(2 + TEXT_EVENT_MAX * batch.len());
    out.push(b'[');
    for (i, e) in batch.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        push_i64(out, e.sync_time.ticks());
        out.push(b',');
        push_i64(out, e.other_time.ticks());
        out.push(b',');
        push_u64(out, u64::from(e.key));
        out.push(b',');
        push_i64(out, e.payload);
        out.push(b']');
    }
    out.push(b']');
}

/// The nonzero envelope fields, as [`with_envelope`] appends them.
fn push_envelope(out: &mut Vec<u8>, seq: u64, ack: u64) {
    if seq != 0 {
        out.extend_from_slice(b",\"seq\":");
        push_u64(out, seq);
    }
    if ack != 0 {
        out.extend_from_slice(b",\"ack\":");
        push_u64(out, ack);
    }
}

/// The line of an `events` frame.
fn events_line(seq: u64, ack: u64, batch: &[Event<i64>]) -> Vec<u8> {
    let mut line = Vec::new();
    line.extend_from_slice(b"{\"type\":\"events\",\"batch\":");
    push_events(&mut line, batch);
    push_envelope(&mut line, seq, ack);
    line.extend_from_slice(b"}\n");
    line
}

/// The line of an `out` frame.
fn out_line(seq: u64, batch: &[Event<i64>], puncts: &[Timestamp], completed: bool) -> Vec<u8> {
    let mut line = Vec::with_capacity(64 + 21 * puncts.len());
    line.extend_from_slice(b"{\"type\":\"out\",\"batch\":");
    push_events(&mut line, batch);
    line.extend_from_slice(b",\"puncts\":[");
    for (i, t) in puncts.iter().enumerate() {
        if i > 0 {
            line.push(b',');
        }
        push_i64(&mut line, t.ticks());
    }
    line.extend_from_slice(if completed {
        b"],\"completed\":true"
    } else {
        b"],\"completed\":false"
    });
    push_envelope(&mut line, seq, 0);
    line.extend_from_slice(b"}\n");
    line
}

/// A cursor over one frame's text that accepts only the writer's shape;
/// every method answers `None` at the first byte that deviates.
struct Scan<'a> {
    text: &'a [u8],
    at: usize,
}

impl Scan<'_> {
    fn literal(&mut self, word: &[u8]) -> Option<()> {
        self.text[self.at..]
            .starts_with(word)
            .then(|| self.at += word.len())
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.at).copied()
    }

    /// An integer in `i64`, in at most 19 digits (so the sum cannot
    /// overflow); anything longer goes to the generic parser.
    fn int(&mut self) -> Option<i64> {
        let negative = self.peek() == Some(b'-');
        self.at += usize::from(negative);
        let start = self.at;
        let mut n = 0u64;
        while let Some(d) = self
            .peek()
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|d| *d < 10)
        {
            if self.at - start == 19 {
                return None;
            }
            n = n * 10 + u64::from(d);
            self.at += 1;
        }
        match (self.at == start, negative) {
            (true, _) => None,
            (false, false) => i64::try_from(n).ok(),
            (false, true) => (n <= 1 << 63).then(|| (n as i64).wrapping_neg()),
        }
    }

    /// A non-negative envelope field after its `,"name":`, or 0 when the
    /// field is absent.
    fn envelope(&mut self, field: &[u8]) -> Option<u64> {
        if self.literal(field).is_none() {
            return Some(0);
        }
        self.int().and_then(|n| u64::try_from(n).ok())
    }

    /// `[[sync,other,key,payload],...]`.
    fn events(&mut self) -> Option<Vec<Event<i64>>> {
        self.literal(b"[")?;
        // Each event closes one bracket and takes at least ten bytes, so
        // both bound the count: room for the batch is made once, and never
        // more than a few times the line. The brackets are tallied in byte
        // lanes, 255 bytes at a time, so the count runs vectorised.
        let rest = &self.text[self.at..];
        let closes: usize = rest
            .chunks(255)
            .map(|chunk| chunk.iter().fold(0u8, |n, b| n + u8::from(*b == b']')) as usize)
            .sum();
        let mut batch = Vec::with_capacity(closes.min(rest.len() / 10 + 1));
        if self.peek() == Some(b']') {
            self.at += 1;
            return Some(batch);
        }
        loop {
            self.literal(b"[")?;
            let sync = self.int()?;
            self.literal(b",")?;
            let other = self.int()?;
            self.literal(b",")?;
            let key = u32::try_from(self.int()?).ok()?;
            self.literal(b",")?;
            let payload = self.int()?;
            self.literal(b"]")?;
            let mut e = Event::keyed(Timestamp::new(sync), key, payload);
            e.other_time = Timestamp::new(other);
            batch.push(e);
            match self.peek()? {
                b',' => self.at += 1,
                b']' => {
                    self.at += 1;
                    return Some(batch);
                }
                _ => return None,
            }
        }
    }

    /// `[t,...]`.
    fn timestamps(&mut self) -> Option<Vec<Timestamp>> {
        self.literal(b"[")?;
        let mut puncts = Vec::new();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Some(puncts);
        }
        loop {
            puncts.push(Timestamp::new(self.int()?));
            match self.peek()? {
                b',' => self.at += 1,
                b']' => {
                    self.at += 1;
                    return Some(puncts);
                }
                _ => return None,
            }
        }
    }

    /// The closing brace; where the frame ends.
    fn end(&mut self) -> Option<usize> {
        self.literal(b"}")?;
        Some(self.at)
    }
}

/// An `events` frame in exactly the shape [`events_line`] writes, at the
/// start of `text`, and where it ends.
fn scan_events_frame(text: &[u8]) -> Option<(ClientFrame, usize)> {
    let mut scan = Scan { text, at: 0 };
    scan.literal(b"{\"type\":\"events\",\"batch\":")?;
    let batch = scan.events()?;
    let seq = scan.envelope(b",\"seq\":")?;
    let ack = scan.envelope(b",\"ack\":")?;
    let end = scan.end()?;
    let msg = ClientMsg::Events { batch };
    Some((ClientFrame { seq, ack, msg }, end))
}

/// An `out` frame in exactly the shape [`out_line`] writes, at the start
/// of `text`, and where it ends.
fn scan_out_frame(text: &[u8]) -> Option<(ServerFrame, usize)> {
    let mut scan = Scan { text, at: 0 };
    scan.literal(b"{\"type\":\"out\",\"batch\":")?;
    let batch = scan.events()?;
    scan.literal(b",\"puncts\":")?;
    let puncts = scan.timestamps()?;
    scan.literal(b",\"completed\":")?;
    let completed = if scan.literal(b"true").is_some() {
        true
    } else {
        scan.literal(b"false")?;
        false
    };
    let seq = scan.envelope(b",\"seq\":")?;
    let end = scan.end()?;
    let msg = ServerMsg::Out {
        batch,
        puncts,
        completed,
    };
    Some((ServerFrame { seq, msg }, end))
}

/// A client frame's JSON text: the scanner's shape, else the generic parse.
fn client_frame_of_text(text: &str) -> Result<ClientFrame, ServeError> {
    match scan_events_frame(text.as_bytes()) {
        Some((frame, end)) if end == text.len() => Ok(frame),
        _ => ClientFrame::from_json(&json_of_line(text)?),
    }
}

/// A server frame's JSON text: the scanner's shape, else the generic parse.
fn server_frame_of_text(text: &str) -> Result<ServerFrame, ServeError> {
    match scan_out_frame(text.as_bytes()) {
        Some((frame, end)) if end == text.len() => Ok(frame),
        _ => ServerFrame::from_json(&json_of_line(text)?),
    }
}

// ---- framing ------------------------------------------------------------

fn json_of_line(line: &str) -> Result<Json, ServeError> {
    Json::parse(line).map_err(|e| ServeError::Protocol {
        detail: format!("invalid JSON frame: {e:?}"),
    })
}

fn write_ndjson(w: &mut impl Write, v: &Json) -> Result<(), ServeError> {
    let mut line = v.to_string();
    line.push('\n');
    write_whole(w, line.as_bytes())
}

/// Writes one whole frame at once, then flushes.
fn write_whole(w: &mut impl Write, frame: &[u8]) -> Result<(), ServeError> {
    w.write_all(frame)
        .and_then(|_| w.flush())
        .map_err(|e| ServeError::io("write frame", e))
}

/// Writes a control message as a binary frame: tag `J`, then its JSON text.
fn write_json_frame(w: &mut impl Write, v: &Json) -> Result<(), ServeError> {
    let text = v.to_string();
    let mut frame = Vec::with_capacity(5 + text.len());
    frame.extend_from_slice(&(1 + text.len() as u32).to_le_bytes());
    frame.push(b'J');
    frame.extend_from_slice(text.as_bytes());
    write_whole(w, &frame)
}

fn read_binary_payload(r: &mut impl BufRead) -> Result<Option<Vec<u8>>, ServeError> {
    // Read the length prefix byte-wise so EOF exactly at a frame
    // boundary is a clean end of stream while EOF *inside* the prefix is
    // a typed truncation error.
    let mut len = [0u8; 4];
    let mut got = 0usize;
    while got < len.len() {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(ServeError::Protocol {
                    detail: format!("truncated frame length prefix ({got} of 4 bytes)"),
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::io("read frame length", e)),
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(ServeError::Protocol {
            detail: format!("frame length {len} out of range"),
        });
    }
    // Filled straight into spare capacity: the payload is never zeroed.
    let mut payload = Vec::with_capacity(len);
    r.take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| ServeError::io("read frame payload", e))?;
    if payload.len() < len {
        // EOF inside a declared payload is a protocol violation by the
        // peer (mid-frame hangup), not transport trouble.
        return Err(ServeError::Protocol {
            detail: format!("mid-frame EOF: frame declared {len} payload bytes"),
        });
    }
    Ok(Some(payload))
}

/// Writes one client frame under the session's framing.
pub fn write_client_frame(
    w: &mut impl Write,
    mode: WireMode,
    frame: &ClientFrame,
) -> Result<(), ServeError> {
    write_client_msg(w, mode, frame.seq, frame.ack, &frame.msg)
}

/// Writes `msg` inside the envelope `seq`, `ack` — the frame
/// [`write_client_frame`] writes, without a frame that owns the message.
pub(crate) fn write_client_msg(
    w: &mut impl Write,
    mode: WireMode,
    seq: u64,
    ack: u64,
    msg: &ClientMsg,
) -> Result<(), ServeError> {
    match (mode, msg) {
        (WireMode::Ndjson, ClientMsg::Events { batch }) => {
            write_whole(w, &events_line(seq, ack, batch))
        }
        (WireMode::Ndjson, msg) => write_ndjson(w, &with_envelope(msg.to_json(), seq, ack)),
        (WireMode::Binary, ClientMsg::Events { batch }) => {
            let mut head = [b'E'; 17];
            head[1..9].copy_from_slice(&seq.to_le_bytes());
            head[9..].copy_from_slice(&ack.to_le_bytes());
            write_events_frame(w, &head, batch, &[])
        }
        (WireMode::Binary, msg) => write_json_frame(w, &with_envelope(msg.to_json(), seq, ack)),
    }
}

/// Reads one NDJSON line, skipping blank ones; `None` at end of stream.
fn read_line(r: &mut impl BufRead) -> Result<Option<String>, ServeError> {
    let mut line = String::new();
    loop {
        line.clear();
        let n = r
            .read_line(&mut line)
            .map_err(|e| ServeError::io("read frame", e))?;
        if n == 0 {
            return Ok(None);
        }
        if !line.trim().is_empty() {
            return Ok(Some(line));
        }
    }
}

/// The JSON text of a binary `J` frame.
fn control_text(payload: &[u8]) -> Result<&str, ServeError> {
    std::str::from_utf8(&payload[1..]).map_err(|_| ServeError::Protocol {
        detail: "control frame is not UTF-8".to_string(),
    })
}

/// Reads one client frame; `Ok(None)` is a clean end of stream.
pub fn read_client_frame(
    r: &mut impl BufRead,
    mode: WireMode,
) -> Result<Option<ClientFrame>, ServeError> {
    match mode {
        WireMode::Ndjson => match read_line(r)? {
            Some(line) => client_frame_of_text(line.trim()).map(Some),
            None => Ok(None),
        },
        WireMode::Binary => {
            let Some(payload) = read_binary_payload(r)? else {
                return Ok(None);
            };
            match payload.first() {
                Some(b'E') => {
                    let mut raw = RawReader {
                        buf: &payload,
                        at: 1,
                    };
                    let seq = raw.u64()?;
                    let ack = raw.u64()?;
                    Ok(Some(ClientFrame {
                        seq,
                        ack,
                        msg: ClientMsg::Events {
                            batch: raw.events()?,
                        },
                    }))
                }
                Some(b'J') => client_frame_of_text(control_text(&payload)?).map(Some),
                tag => Err(ServeError::Protocol {
                    detail: format!("unknown client frame tag {tag:?}"),
                }),
            }
        }
    }
}

/// Writes one server frame under the session's framing.
pub fn write_server_frame(
    w: &mut impl Write,
    mode: WireMode,
    frame: &ServerFrame,
) -> Result<(), ServeError> {
    match (mode, &frame.msg) {
        (
            WireMode::Ndjson,
            ServerMsg::Out {
                batch,
                puncts,
                completed,
            },
        ) => write_whole(w, &out_line(frame.seq, batch, puncts, *completed)),
        (WireMode::Ndjson, _) => write_ndjson(w, &frame.to_json()),
        (
            WireMode::Binary,
            ServerMsg::Out {
                batch,
                puncts,
                completed,
            },
        ) => {
            let mut head = [b'O'; 9];
            head[1..].copy_from_slice(&frame.seq.to_le_bytes());
            let mut tail = Vec::with_capacity(4 + 8 * puncts.len() + 1);
            tail.extend_from_slice(&(puncts.len() as u32).to_le_bytes());
            for t in puncts {
                tail.extend_from_slice(&t.ticks().to_le_bytes());
            }
            tail.push(u8::from(*completed));
            write_events_frame(w, &head, batch, &tail)
        }
        (WireMode::Binary, _) => write_json_frame(w, &frame.to_json()),
    }
}

/// Reads one server frame; `Ok(None)` is a clean end of stream.
pub fn read_server_frame(
    r: &mut impl BufRead,
    mode: WireMode,
) -> Result<Option<ServerFrame>, ServeError> {
    match mode {
        WireMode::Ndjson => match read_line(r)? {
            Some(line) => server_frame_of_text(line.trim()).map(Some),
            None => Ok(None),
        },
        WireMode::Binary => {
            let Some(payload) = read_binary_payload(r)? else {
                return Ok(None);
            };
            match payload.first() {
                Some(b'O') => {
                    let mut raw = RawReader {
                        buf: &payload,
                        at: 1,
                    };
                    let seq = raw.u64()?;
                    let batch = raw.events()?;
                    let puncts = raw.timestamps()?;
                    let completed = raw.take::<1>()?[0] != 0;
                    Ok(Some(ServerFrame {
                        seq,
                        msg: ServerMsg::Out {
                            batch,
                            puncts,
                            completed,
                        },
                    }))
                }
                Some(b'J') => server_frame_of_text(control_text(&payload)?).map(Some),
                tag => Err(ServeError::Protocol {
                    detail: format!("unknown server frame tag {tag:?}"),
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_events() -> Vec<Event<i64>> {
        (0..5)
            .map(|i| Event::keyed(Timestamp::new(100 + i), i as u32, i * 7))
            .collect()
    }

    fn open(config: Json) -> ClientMsg {
        ClientMsg::Open {
            config,
            resume: None,
            resumable: false,
        }
    }

    #[test]
    fn client_frames_round_trip_both_modes() {
        let frames = vec![
            ClientFrame::unsequenced(open(json!({"name": "a"}))),
            ClientFrame::unsequenced(ClientMsg::Open {
                config: json!({"name": "a"}),
                resume: Some("tok-17".to_string()),
                resumable: true,
            }),
            ClientFrame {
                seq: 3,
                ack: 2,
                msg: ClientMsg::Events {
                    batch: sample_events(),
                },
            },
            ClientFrame {
                seq: 4,
                ack: 3,
                msg: ClientMsg::Punctuate {
                    t: Timestamp::new(90),
                },
            },
            ClientFrame::unsequenced(ClientMsg::Metrics),
            ClientFrame::unsequenced(ClientMsg::Ping { nonce: 99 }),
            ClientFrame {
                seq: 5,
                ack: 4,
                msg: ClientMsg::Complete,
            },
        ];
        for mode in [WireMode::Ndjson, WireMode::Binary] {
            let mut buf = Vec::new();
            for f in &frames {
                write_client_frame(&mut buf, mode, f).expect("write");
            }
            let mut r = Cursor::new(buf);
            for f in &frames {
                let got = read_client_frame(&mut r, mode)
                    .expect("read")
                    .expect("some");
                assert_eq!(&got, f, "{mode:?}");
            }
            assert_eq!(read_client_frame(&mut r, mode).expect("eof"), None);
        }
    }

    #[test]
    fn server_frames_round_trip_both_modes() {
        let frames = vec![
            ServerFrame::unsequenced(ServerMsg::Ok { info: Json::Null }),
            ServerFrame {
                seq: 7,
                msg: ServerMsg::Out {
                    batch: sample_events(),
                    puncts: vec![Timestamp::new(80), Timestamp::new(95)],
                    completed: true,
                },
            },
            ServerFrame::unsequenced(ServerMsg::Pong { nonce: 42 }),
            ServerFrame::unsequenced(ServerMsg::Close {
                reason: "drain".to_string(),
            }),
            ServerFrame::unsequenced(ServerMsg::Error {
                error: ServeError::Admission {
                    reason: "full".into(),
                },
            }),
        ];
        for mode in [WireMode::Ndjson, WireMode::Binary] {
            let mut buf = Vec::new();
            for f in &frames {
                write_server_frame(&mut buf, mode, f).expect("write");
            }
            let mut r = Cursor::new(buf);
            for f in &frames {
                let got = read_server_frame(&mut r, mode)
                    .expect("read")
                    .expect("some");
                assert_eq!(&got, f, "{mode:?}");
            }
        }
    }

    #[test]
    fn oversized_binary_frame_is_a_typed_protocol_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let got = read_client_frame(&mut Cursor::new(buf), WireMode::Binary);
        assert!(matches!(got, Err(ServeError::Protocol { .. })), "{got:?}");
    }

    #[test]
    fn zero_length_binary_frame_is_a_typed_protocol_error() {
        let buf = 0u32.to_le_bytes().to_vec();
        let got = read_client_frame(&mut Cursor::new(buf), WireMode::Binary);
        assert!(matches!(got, Err(ServeError::Protocol { .. })), "{got:?}");
    }

    #[test]
    fn truncated_binary_frames_are_typed_errors_never_panics() {
        // A declared length with no payload behind it: mid-frame EOF.
        let mut buf = Vec::new();
        buf.extend_from_slice(&64u32.to_le_bytes());
        buf.extend_from_slice(b"short");
        let got = read_client_frame(&mut Cursor::new(buf), WireMode::Binary);
        assert!(matches!(got, Err(ServeError::Protocol { .. })), "{got:?}");

        // A truncated length prefix (fewer than 4 bytes then EOF): only a
        // fully absent prefix is a clean end of stream.
        let got = read_client_frame(&mut Cursor::new(vec![0x10u8, 0x00]), WireMode::Binary);
        assert!(matches!(got, Err(ServeError::Protocol { .. })), "{got:?}");

        // An 'E' frame whose declared batch count exceeds its bytes.
        let mut payload = vec![b'E'];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&1000u32.to_le_bytes());
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        let got = read_client_frame(&mut Cursor::new(buf), WireMode::Binary);
        assert!(matches!(got, Err(ServeError::Protocol { .. })), "{got:?}");
    }

    #[test]
    fn garbage_json_and_unknown_tags_are_typed_errors() {
        let got = read_client_frame(
            &mut Cursor::new(b"{\"type\": \"open\", oops}\n".to_vec()),
            WireMode::Ndjson,
        );
        assert!(matches!(got, Err(ServeError::Protocol { .. })), "{got:?}");

        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(b"Zzz");
        let got = read_client_frame(&mut Cursor::new(buf), WireMode::Binary);
        assert!(matches!(got, Err(ServeError::Protocol { .. })), "{got:?}");
    }

    #[test]
    fn negative_envelope_fields_are_rejected() {
        let got = ClientFrame::from_json(
            &Json::parse(r#"{"type": "complete", "seq": -4}"#).expect("json"),
        );
        assert!(matches!(got, Err(ServeError::Protocol { .. })), "{got:?}");
    }

    #[test]
    fn interval_events_survive_the_json_form() {
        let mut e = Event::keyed(Timestamp::new(5), 2, 42);
        e.other_time = Timestamp::new(55);
        let back = event_from_json(&event_to_json(&e)).expect("parse");
        assert_eq!(back, e);
    }

    #[test]
    fn ndjson_keys_outside_u32_are_refused_not_wrapped() {
        let parse = |text: &str| event_from_json(&Json::parse(text).expect("json"));
        for bad in [
            "[1, -1, 7]",
            "[1, 4294967296, 7]",
            "[1, 2, -1, 7]",
            "[1, 2, 4294967296, 7]",
        ] {
            let got = parse(bad);
            assert!(
                matches!(got, Err(ServeError::Protocol { .. })),
                "{bad}: {got:?}"
            );
        }
        let top = parse("[1, 4294967295, 7]").expect("largest key");
        assert_eq!(
            (top.key, top.hash),
            (u32::MAX, impatience_core::hash_key(u32::MAX))
        );
        let top = parse("[1, 2, 4294967295, 7]").expect("largest key, interval form");
        assert_eq!(top.key, u32::MAX);
    }
}
