//! Clients for the service: a lockstep [`Client`] and a fault-tolerant
//! [`SessionClient`].
//!
//! [`Client`] is the reference implementation: one request out, one
//! reply back, sequence numbers stamped so the server's exactly-once
//! machinery sees a well-formed session (the NDJSON framing needs
//! nothing beyond a socket and a JSON library to port). Used by the
//! `served --demo` walkthrough, the stack benchmark, and the isolation
//! suite.
//!
//! [`SessionClient`] is the survivable client: it opens its tenant
//! `resumable`, keeps every sequenced frame in a **bounded send window**
//! until the matching reply arrives, and on any connection failure
//! reconnects with seeded exponential backoff, re-opens with its resume
//! token, and **resends the whole window** — the server answers the
//! already-applied prefix from its reply cache and applies only the new
//! suffix, so a kill→reconnect→resume cycle delivers every event exactly
//! once and loses no output (the property `session_resume.rs` replays a
//! few hundred seeded times through the fault proxy).

use crate::error::ServeError;
use crate::tenant::{Released, TenantConfig};
use crate::wire::{
    read_server_frame, write_client_frame, write_client_msg, ClientFrame, ClientMsg, ServerMsg,
    WireMode, BINARY_MAGIC,
};
use impatience_core::{Event, Json, Timestamp};
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default socket read/write deadline for clients.
pub const DEFAULT_IO_DEADLINE: Duration = Duration::from_secs(30);

fn connect_stream(
    addr: impl ToSocketAddrs,
    mode: WireMode,
    io_deadline: Duration,
) -> Result<(TcpStream, BufReader<TcpStream>), ServeError> {
    let stream = TcpStream::connect(addr).map_err(|e| ServeError::io("connect", e))?;
    stream
        .set_nodelay(true)
        .map_err(|e| ServeError::io("set nodelay", e))?;
    stream
        .set_read_timeout(Some(io_deadline))
        .map_err(|e| ServeError::io("set read timeout", e))?;
    stream
        .set_write_timeout(Some(io_deadline))
        .map_err(|e| ServeError::io("set write timeout", e))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| ServeError::io("clone stream", e))?;
    if mode == WireMode::Binary {
        writer
            .write_all(BINARY_MAGIC)
            .map_err(|e| ServeError::io("write magic", e))?;
    }
    Ok((writer, BufReader::new(stream)))
}

/// A connected tenant session, strict lockstep.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    mode: WireMode,
    next_seq: u64,
    processed: u64,
}

impl core::fmt::Debug for Client {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Client").field("mode", &self.mode).finish()
    }
}

impl Client {
    /// Connects and announces the chosen framing (binary sessions send
    /// the magic immediately; NDJSON is recognized by its first `{`).
    /// Socket reads and writes carry [`DEFAULT_IO_DEADLINE`], so a wedged
    /// or vanished server surfaces as a typed I/O error instead of
    /// blocking forever.
    pub fn connect(addr: impl ToSocketAddrs, mode: WireMode) -> Result<Client, ServeError> {
        let (writer, reader) = connect_stream(addr, mode, DEFAULT_IO_DEADLINE)?;
        Ok(Client {
            writer,
            reader,
            mode,
            next_seq: 1,
            processed: 0,
        })
    }

    /// Sends one request and reads its reply; server-side errors come
    /// back as `Err` with the typed [`ServeError`]. Sequenced messages
    /// are stamped from the client's counter; replies are matched and
    /// acknowledged on the next request.
    pub fn request(&mut self, msg: &ClientMsg) -> Result<ServerMsg, ServeError> {
        let seq = if msg.is_sequenced() {
            let s = self.next_seq;
            self.next_seq += 1;
            s
        } else {
            0
        };
        write_client_msg(&mut self.writer, self.mode, seq, self.processed, msg)?;
        loop {
            match read_server_frame(&mut self.reader, self.mode)? {
                Some(reply) => {
                    if let ServerMsg::Close { reason } = reply.msg {
                        return Err(ServeError::Session {
                            detail: format!("server closed the session: {reason}"),
                            retryable: true,
                        });
                    }
                    if reply.seq != 0 && reply.seq <= self.processed {
                        // A duplicate of an already-processed reply
                        // (possible through replaying middleboxes).
                        continue;
                    }
                    if reply.seq != 0 {
                        self.processed = reply.seq;
                    }
                    return match reply.msg {
                        ServerMsg::Error { error } => Err(error),
                        m => Ok(m),
                    };
                }
                None => {
                    return Err(ServeError::Protocol {
                        detail: "server closed the connection mid-request".to_string(),
                    })
                }
            }
        }
    }

    fn expect_out(&mut self, msg: &ClientMsg) -> Result<Released, ServeError> {
        match self.request(msg)? {
            ServerMsg::Out {
                batch,
                puncts,
                completed,
            } => Ok(Released {
                events: batch,
                puncts,
                completed,
            }),
            other => Err(ServeError::Protocol {
                detail: format!("expected an \"out\" reply, got {other:?}"),
            }),
        }
    }

    /// Opens the tenant; returns the server's info object (recovery
    /// details for durable tenants).
    pub fn open(&mut self, config: &TenantConfig) -> Result<Json, ServeError> {
        self.open_inner(ClientMsg::Open {
            config: config.to_json(),
            resume: None,
            resumable: false,
        })
    }

    /// Opens the tenant resumably; the returned info's
    /// `session.token` re-attaches after a disconnect.
    pub fn open_resumable(&mut self, config: &TenantConfig) -> Result<Json, ServeError> {
        self.open_inner(ClientMsg::Open {
            config: config.to_json(),
            resume: None,
            resumable: true,
        })
    }

    fn open_inner(&mut self, msg: ClientMsg) -> Result<Json, ServeError> {
        match self.request(&msg)? {
            ServerMsg::Ok { info } => Ok(info),
            other => Err(ServeError::Protocol {
                detail: format!("expected an \"ok\" reply, got {other:?}"),
            }),
        }
    }

    /// Ingests a batch; returns output released by it.
    pub fn send(&mut self, batch: Vec<Event<i64>>) -> Result<Released, ServeError> {
        self.expect_out(&ClientMsg::Events { batch })
    }

    /// Forces a punctuation at `t`; returns output released by it.
    pub fn punctuate(&mut self, t: Timestamp) -> Result<Released, ServeError> {
        self.expect_out(&ClientMsg::Punctuate { t })
    }

    /// Completes the stream; returns the final flush.
    pub fn complete(&mut self) -> Result<Released, ServeError> {
        self.expect_out(&ClientMsg::Complete)
    }

    /// Hot-swaps the tenant's config; returns the old pipeline's flush.
    pub fn reconfigure(&mut self, config: &TenantConfig) -> Result<Released, ServeError> {
        self.expect_out(&ClientMsg::Reconfigure {
            config: config.to_json(),
        })
    }

    /// Fetches `{"metrics": <registry>, "trace": <summary|null>}`.
    pub fn metrics(&mut self) -> Result<Json, ServeError> {
        match self.request(&ClientMsg::Metrics)? {
            ServerMsg::Metrics { snapshot } => Ok(snapshot),
            other => Err(ServeError::Protocol {
                detail: format!("expected a \"metrics\" reply, got {other:?}"),
            }),
        }
    }

    /// Heartbeat: sends a ping and checks the pong echoes its nonce.
    pub fn ping(&mut self, nonce: u64) -> Result<(), ServeError> {
        match self.request(&ClientMsg::Ping { nonce })? {
            ServerMsg::Pong { nonce: echoed } if echoed == nonce => Ok(()),
            other => Err(ServeError::Protocol {
                detail: format!("expected pong({nonce}), got {other:?}"),
            }),
        }
    }
}

/// Tuning for [`SessionClient`]'s retry loop.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Reconnect attempts per operation before giving up.
    pub max_reconnects: u32,
    /// First backoff sleep; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Socket read/write deadline per connection.
    pub io_deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_reconnects: 8,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            seed: 0x5eed_5e55,
            io_deadline: DEFAULT_IO_DEADLINE,
        }
    }
}

/// Client-side session statistics (observability for tests and bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Successful reconnect+resume cycles.
    pub reconnects: u64,
    /// Frames resent after a reconnect.
    pub resends: u64,
    /// Duplicate replies discarded by sequence.
    pub duplicate_replies: u64,
}

/// A fault-tolerant client: bounded send window, seeded backoff
/// reconnect, resume-token re-attach, exactly-once delivery. See the
/// module docs.
pub struct SessionClient {
    addr: std::net::SocketAddr,
    mode: WireMode,
    config: TenantConfig,
    policy: RetryPolicy,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    token: Option<String>,
    next_seq: u64,
    processed: u64,
    window: VecDeque<ClientFrame>,
    window_cap: usize,
    collected: Released,
    rng: u64,
    stats: SessionStats,
}

impl core::fmt::Debug for SessionClient {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SessionClient")
            .field("mode", &self.mode)
            .field("next_seq", &self.next_seq)
            .field("processed", &self.processed)
            .finish_non_exhaustive()
    }
}

impl SessionClient {
    /// Connects, opens `config` resumably, and returns the live session.
    pub fn open(
        addr: std::net::SocketAddr,
        mode: WireMode,
        config: TenantConfig,
        policy: RetryPolicy,
    ) -> Result<SessionClient, ServeError> {
        let mut me = SessionClient {
            addr,
            mode,
            config,
            rng: policy.seed | 1,
            policy,
            conn: None,
            token: None,
            next_seq: 1,
            processed: 0,
            window: VecDeque::new(),
            window_cap: 4,
            collected: Released::default(),
            stats: SessionStats::default(),
        };
        me.ensure_connected()?;
        Ok(me)
    }

    /// Sets the send-window capacity (frames in flight before the
    /// client blocks on replies).
    pub fn with_window(mut self, frames: usize) -> Self {
        self.window_cap = frames.max(1);
        self
    }

    /// Client-side session statistics.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The resume token, once the session is open.
    pub fn token(&self) -> Option<&str> {
        self.token.as_deref()
    }

    fn next_jitter(&mut self) -> u64 {
        // xorshift64*: deterministic per seed, no external RNG needed.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = self.policy.backoff_base.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(16));
        let jitter = if base == 0 {
            0
        } else {
            self.next_jitter() % base.max(1)
        };
        Duration::from_millis(exp + jitter).min(self.policy.backoff_cap)
    }

    /// Establishes (or re-establishes) the connection, opening fresh or
    /// resuming, and resends the unacked window.
    fn ensure_connected(&mut self) -> Result<(), ServeError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut last_err = None;
        for attempt in 0..=self.policy.max_reconnects {
            if attempt > 0 {
                let sleep = self.backoff(attempt - 1);
                std::thread::sleep(sleep);
            }
            match self.try_attach() {
                Ok(()) => return Ok(()),
                Err(
                    e @ ServeError::Session {
                        retryable: false, ..
                    },
                ) => return Err(e),
                Err(e @ ServeError::Config(_)) => return Err(e),
                Err(e) => last_err = Some(e),
            }
        }
        // Exhaustion is terminal even when the last attempt's error was
        // itself retryable: `submit`'s retry loop treats retryable
        // session errors as connection trouble and would otherwise hand
        // this method a fresh budget forever (a session evicted or
        // expired server-side would reconnect-storm until the process
        // ran out of sockets).
        let detail = match last_err {
            Some(e) => format!(
                "reconnect attempts exhausted after {} tries: {e}",
                self.policy.max_reconnects + 1
            ),
            None => "reconnect attempts exhausted".to_string(),
        };
        Err(ServeError::Session {
            detail,
            retryable: false,
        })
    }

    fn try_attach(&mut self) -> Result<(), ServeError> {
        let (writer, reader) = connect_stream(self.addr, self.mode, self.policy.io_deadline)?;
        self.conn = Some((writer, reader));
        let open = ClientFrame::unsequenced(ClientMsg::Open {
            config: self.config.to_json(),
            resume: self.token.clone(),
            resumable: true,
        });
        let reply = self.roundtrip_raw(&open)?;
        let info = match reply {
            ServerMsg::Ok { info } => info,
            ServerMsg::Error { error } => {
                self.conn = None;
                return Err(error);
            }
            other => {
                self.conn = None;
                return Err(ServeError::Protocol {
                    detail: format!("expected an \"ok\" open reply, got {other:?}"),
                });
            }
        };
        let session = info.get("session");
        if let Some(token) = session.and_then(|s| s.get("token")).and_then(Json::as_str) {
            self.token = Some(token.to_string());
        }
        if !self.window.is_empty() || self.processed > 0 {
            self.stats.reconnects += 1;
        }
        // Resend the whole unacked window in order: the server answers
        // the already-applied prefix from its reply cache and applies
        // only the fresh suffix.
        let pending: Vec<u64> = self.window.iter().map(|f| f.seq).collect();
        for seq in pending {
            let (writer, _) = self.conn.as_mut().ok_or_else(not_connected)?;
            let Some(frame) = self.window.iter_mut().find(|f| f.seq == seq) else {
                continue;
            };
            frame.ack = self.processed;
            self.stats.resends += 1;
            write_client_frame(writer, self.mode, frame)?;
            self.read_one_reply()?;
        }
        Ok(())
    }

    fn write_frame(&mut self, frame: &ClientFrame) -> Result<(), ServeError> {
        let (writer, _) = self.conn.as_mut().ok_or_else(not_connected)?;
        write_client_frame(writer, self.mode, frame)
    }

    /// Writes the window's frame `seq` as the window holds it, if it is
    /// still there.
    fn write_window_frame(&mut self, seq: u64) -> Result<(), ServeError> {
        let (writer, _) = self.conn.as_mut().ok_or_else(not_connected)?;
        match self.window.iter().find(|f| f.seq == seq) {
            Some(frame) => write_client_frame(writer, self.mode, frame),
            None => Ok(()),
        }
    }

    /// One raw request/reply on the live connection (open handshake).
    fn roundtrip_raw(&mut self, frame: &ClientFrame) -> Result<ServerMsg, ServeError> {
        self.write_frame(frame)?;
        let (_, reader) = self.conn.as_mut().expect("connected");
        match read_server_frame(reader, self.mode) {
            Ok(Some(reply)) => Ok(reply.msg),
            Ok(None) => {
                self.conn = None;
                Err(ServeError::io(
                    "open handshake",
                    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"),
                ))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Reads one server frame and folds it into the session: pops the
    /// window head it answers, accumulates its output, discards
    /// duplicates. Server errors surface as `Err`.
    fn read_one_reply(&mut self) -> Result<(), ServeError> {
        loop {
            let (_, reader) = self.conn.as_mut().ok_or_else(not_connected)?;
            let reply = match read_server_frame(reader, self.mode) {
                Ok(Some(r)) => r,
                Ok(None) => {
                    self.conn = None;
                    return Err(ServeError::io(
                        "read reply",
                        std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"),
                    ));
                }
                Err(e) => {
                    self.conn = None;
                    return Err(e);
                }
            };
            if let ServerMsg::Close { .. } = reply.msg {
                // Unsolicited close: the connection is ending; the parked
                // session (if any) is re-attached on the next operation.
                self.conn = None;
                return Err(ServeError::Session {
                    detail: "server closed the connection".to_string(),
                    retryable: true,
                });
            }
            if reply.seq != 0 && reply.seq <= self.processed {
                self.stats.duplicate_replies += 1;
                continue;
            }
            if reply.seq != 0 {
                self.processed = reply.seq;
                while self.window.front().is_some_and(|f| f.seq <= reply.seq) {
                    self.window.pop_front();
                }
            }
            return match reply.msg {
                ServerMsg::Out {
                    batch,
                    puncts,
                    completed,
                } => {
                    self.collected.events.extend(batch);
                    self.collected.puncts.extend(puncts);
                    self.collected.completed |= completed;
                    Ok(())
                }
                ServerMsg::Error { error } => Err(error),
                _ => Ok(()),
            };
        }
    }

    /// Submits one sequenced message, retrying through connection
    /// failures; blocks only when the send window is full.
    fn submit(&mut self, msg: ClientMsg) -> Result<(), ServeError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        // The window holds the one copy of the frame, and it is written
        // from there.
        self.window.push_back(ClientFrame {
            seq,
            ack: self.processed,
            msg,
        });
        let mut cycles = 0u32;
        loop {
            let step = (|me: &mut Self| -> Result<(), ServeError> {
                me.ensure_connected()?;
                // The frame may already have been delivered by the
                // window resend inside a reconnect.
                if me.processed < seq {
                    me.write_window_frame(seq)?;
                }
                while me.window.len() >= me.window_cap {
                    me.read_one_reply()?;
                }
                Ok(())
            })(self);
            match step {
                Ok(()) => return Ok(()),
                Err(e) if is_connection_error(&e) => {
                    self.conn = None;
                    self.check_cycle_budget(&mut cycles, &e)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocks until every in-flight frame is answered, retrying through
    /// connection failures.
    fn flush_window(&mut self) -> Result<(), ServeError> {
        let mut cycles = 0u32;
        while !self.window.is_empty() {
            let step = (|me: &mut Self| -> Result<(), ServeError> {
                me.ensure_connected()?;
                while !me.window.is_empty() {
                    me.read_one_reply()?;
                }
                Ok(())
            })(self);
            match step {
                Ok(()) => break,
                Err(e) if is_connection_error(&e) => {
                    self.conn = None;
                    self.check_cycle_budget(&mut cycles, &e)?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Bounds reconnect *cycles* within one operation. `ensure_connected`
    /// caps consecutive failed attach attempts, but a flapping server
    /// that attaches cleanly and then breaks every subsequent read or
    /// write would re-enter it with a fresh budget on every pass of the
    /// outer retry loop — an unbounded reconnect storm. One operation
    /// gets `max_reconnects` full cycles; exhaustion is terminal.
    fn check_cycle_budget(&self, cycles: &mut u32, cause: &ServeError) -> Result<(), ServeError> {
        *cycles += 1;
        if *cycles > self.policy.max_reconnects {
            return Err(ServeError::Session {
                detail: format!(
                    "reconnect budget exhausted: the connection failed {cycles} times \
                     within one operation (last error: {cause})"
                ),
                retryable: false,
            });
        }
        Ok(())
    }

    /// Ingests a batch; returns output collected so far (which may
    /// belong to earlier, pipelined batches).
    pub fn send(&mut self, batch: Vec<Event<i64>>) -> Result<Released, ServeError> {
        self.submit(ClientMsg::Events { batch })?;
        Ok(core::mem::take(&mut self.collected))
    }

    /// Forces a punctuation at `t`.
    pub fn punctuate(&mut self, t: Timestamp) -> Result<Released, ServeError> {
        self.submit(ClientMsg::Punctuate { t })?;
        Ok(core::mem::take(&mut self.collected))
    }

    /// Completes the stream and drains every outstanding reply; returns
    /// all output collected since the last call.
    pub fn complete(&mut self) -> Result<Released, ServeError> {
        self.submit(ClientMsg::Complete)?;
        self.flush_window()?;
        Ok(core::mem::take(&mut self.collected))
    }

    /// Heartbeat over the live connection (reconnects first if needed).
    pub fn ping(&mut self, nonce: u64) -> Result<(), ServeError> {
        self.ensure_connected()?;
        self.flush_window()?;
        let frame = ClientFrame {
            seq: 0,
            ack: self.processed,
            msg: ClientMsg::Ping { nonce },
        };
        match self.roundtrip_raw(&frame)? {
            ServerMsg::Pong { nonce: echoed } if echoed == nonce => Ok(()),
            other => Err(ServeError::Protocol {
                detail: format!("expected pong({nonce}), got {other:?}"),
            }),
        }
    }
}

fn not_connected() -> ServeError {
    ServeError::Session {
        detail: "not connected".to_string(),
        retryable: true,
    }
}

/// Whether an error means "the connection is gone; reconnect+resume may
/// recover" rather than a server-reported request failure.
fn is_connection_error(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Io { .. }
            | ServeError::Session {
                retryable: true,
                ..
            }
    ) || matches!(e, ServeError::Protocol { detail } if detail.contains("mid-request"))
}
