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
use std::io::{BufRead, Write};

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

fn encode_events_raw(out: &mut Vec<u8>, batch: &[Event<i64>]) {
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for e in batch {
        out.extend_from_slice(&e.sync_time.ticks().to_le_bytes());
        out.extend_from_slice(&e.other_time.ticks().to_le_bytes());
        out.extend_from_slice(&e.key.to_le_bytes());
        out.extend_from_slice(&e.payload.to_le_bytes());
    }
}

struct RawReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> RawReader<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], ServeError> {
        let end = self.at + N;
        let slice = self
            .buf
            .get(self.at..end)
            .ok_or_else(|| ServeError::Protocol {
                detail: "binary frame truncated".to_string(),
            })?;
        self.at = end;
        Ok(slice.try_into().expect("length checked"))
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    fn i64(&mut self) -> Result<i64, ServeError> {
        Ok(i64::from_le_bytes(self.take::<8>()?))
    }

    fn events(&mut self) -> Result<Vec<Event<i64>>, ServeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(28) > self.buf.len() {
            return Err(ServeError::Protocol {
                detail: "binary batch count exceeds frame".to_string(),
            });
        }
        let mut batch = Vec::with_capacity(n);
        for _ in 0..n {
            let sync = self.i64()?;
            let other = self.i64()?;
            let key = self.u32()?;
            let payload = self.i64()?;
            let mut e = Event::keyed(Timestamp::new(sync), key, payload);
            e.other_time = Timestamp::new(other);
            batch.push(e);
        }
        Ok(batch)
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
    w.write_all(line.as_bytes())
        .and_then(|_| w.flush())
        .map_err(|e| ServeError::io("write frame", e))
}

/// A binary frame under construction: room for the 4-byte length prefix,
/// then capacity for a payload of `payload_bytes`.
fn binary_frame(payload_bytes: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + payload_bytes);
    frame.extend_from_slice(&[0; 4]);
    frame
}

/// Bytes [`encode_events_raw`] appends for `n` events.
fn raw_events_bytes(n: usize) -> usize {
    4 + 28 * n
}

/// Patches the length prefix of a [`binary_frame`] and writes it once.
fn write_binary(w: &mut impl Write, mut frame: Vec<u8>) -> Result<(), ServeError> {
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(&frame)
        .and_then(|_| w.flush())
        .map_err(|e| ServeError::io("write frame", e))
}

/// A control message as a binary frame: tag `J`, then its JSON text.
fn json_frame(v: &Json) -> Vec<u8> {
    let text = v.to_string();
    let mut frame = binary_frame(1 + text.len());
    frame.push(b'J');
    frame.extend_from_slice(text.as_bytes());
    frame
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
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        // EOF inside a declared payload is a protocol violation by the
        // peer (mid-frame hangup); anything else is transport trouble.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ServeError::Protocol {
                detail: format!("mid-frame EOF: frame declared {len} payload bytes"),
            }
        } else {
            ServeError::io("read frame payload", e)
        }
    })?;
    Ok(Some(payload))
}

/// Writes one client frame under the session's framing.
pub fn write_client_frame(
    w: &mut impl Write,
    mode: WireMode,
    frame: &ClientFrame,
) -> Result<(), ServeError> {
    match mode {
        WireMode::Ndjson => write_ndjson(w, &frame.to_json()),
        WireMode::Binary => {
            let buf = if let ClientMsg::Events { batch } = &frame.msg {
                let mut buf = binary_frame(1 + 16 + raw_events_bytes(batch.len()));
                buf.push(b'E');
                buf.extend_from_slice(&frame.seq.to_le_bytes());
                buf.extend_from_slice(&frame.ack.to_le_bytes());
                encode_events_raw(&mut buf, batch);
                buf
            } else {
                json_frame(&frame.to_json())
            };
            write_binary(w, buf)
        }
    }
}

/// Reads one client frame; `Ok(None)` is a clean end of stream.
pub fn read_client_frame(
    r: &mut impl BufRead,
    mode: WireMode,
) -> Result<Option<ClientFrame>, ServeError> {
    match mode {
        WireMode::Ndjson => {
            let mut line = String::new();
            let n = r
                .read_line(&mut line)
                .map_err(|e| ServeError::io("read frame", e))?;
            if n == 0 {
                return Ok(None);
            }
            if line.trim().is_empty() {
                return read_client_frame(r, mode);
            }
            ClientFrame::from_json(&json_of_line(line.trim())?).map(Some)
        }
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
                Some(b'J') => {
                    let text =
                        std::str::from_utf8(&payload[1..]).map_err(|_| ServeError::Protocol {
                            detail: "control frame is not UTF-8".to_string(),
                        })?;
                    ClientFrame::from_json(&json_of_line(text)?).map(Some)
                }
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
    match mode {
        WireMode::Ndjson => write_ndjson(w, &frame.to_json()),
        WireMode::Binary => {
            let buf = if let ServerMsg::Out {
                batch,
                puncts,
                completed,
            } = &frame.msg
            {
                let mut buf =
                    binary_frame(1 + 8 + raw_events_bytes(batch.len()) + 4 + 8 * puncts.len() + 1);
                buf.push(b'O');
                buf.extend_from_slice(&frame.seq.to_le_bytes());
                encode_events_raw(&mut buf, batch);
                buf.extend_from_slice(&(puncts.len() as u32).to_le_bytes());
                for t in puncts {
                    buf.extend_from_slice(&t.ticks().to_le_bytes());
                }
                buf.push(u8::from(*completed));
                buf
            } else {
                json_frame(&frame.to_json())
            };
            write_binary(w, buf)
        }
    }
}

/// Reads one server frame; `Ok(None)` is a clean end of stream.
pub fn read_server_frame(
    r: &mut impl BufRead,
    mode: WireMode,
) -> Result<Option<ServerFrame>, ServeError> {
    match mode {
        WireMode::Ndjson => {
            let mut line = String::new();
            let n = r
                .read_line(&mut line)
                .map_err(|e| ServeError::io("read frame", e))?;
            if n == 0 {
                return Ok(None);
            }
            if line.trim().is_empty() {
                return read_server_frame(r, mode);
            }
            ServerFrame::from_json(&json_of_line(line.trim())?).map(Some)
        }
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
                    let n = raw.u32()? as usize;
                    let mut puncts = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        puncts.push(Timestamp::new(raw.i64()?));
                    }
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
                Some(b'J') => {
                    let text =
                        std::str::from_utf8(&payload[1..]).map_err(|_| ServeError::Protocol {
                            detail: "control frame is not UTF-8".to_string(),
                        })?;
                    ServerFrame::from_json(&json_of_line(text)?).map(Some)
                }
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
