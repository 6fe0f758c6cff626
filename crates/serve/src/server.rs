//! The socket front-end: an accept loop multiplexing many concurrent
//! tenant sessions, one OS thread per connection.
//!
//! Isolation is structural: each connection owns its tenant's entire
//! runtime ([`TenantRuntime`]) — pipeline, registry, meter, directories —
//! and shares only the admission budget with its neighbours. A panic,
//! budget breach, or disk fault inside one tenant therefore surfaces as
//! a typed [`ServeError`] frame **on that connection only**; the accept
//! loop and every other session never observe it (the property the chaos
//! suite replays a few hundred seeded times).
//!
//! **Survivability.** Connections are expendable; sessions are not. A
//! connection carrying a resumable session that dies (reset, stall past
//! the idle deadline, drain) parks its session in the [`SessionTable`];
//! a reconnecting client re-opens with its resume token, learns the
//! durable sequence high-water, and resends only the unacked suffix —
//! the server deduplicates anything already applied via the sequence
//! envelope and the bounded reply cache (see `session` and DESIGN.md
//! §15). Sockets carry read/write deadlines (a wedged peer can no longer
//! pin a thread forever), Ping/Pong heartbeats keep long-idle healthy
//! sessions alive, and [`Server::shutdown`] is a graceful drain: stop
//! accepting, send typed `Close` frames, punctuate/checkpoint/sync every
//! tenant, and join every connection thread against a deadline.

use crate::admission::AdmissionController;
use crate::error::ServeError;
use crate::session::{SessionCounters, SessionState, SessionTable};
use crate::tenant::{Released, TenantConfig, TenantRuntime};
use crate::wire::{
    read_client_frame, write_server_frame, ClientFrame, ClientMsg, ServerFrame, ServerMsg,
    WireMode, BINARY_MAGIC,
};
use impatience_core::{json, ConfigError, Json, MemoryMeter, MetricsRegistry, Validate};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The socket-level poll tick: how often a blocked read re-checks the
/// shutdown flag and idle deadline. Small enough that drain is prompt,
/// large enough to stay off the profile.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Service-level configuration, following the workspace builder
/// convention (`with_*` + `Default` + typed validation).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Root under which each tenant gets `<root>/<name>/{wal,ckpt,spill}`.
    pub root: PathBuf,
    /// Maximum concurrently active tenants.
    pub max_tenants: usize,
    /// Service-wide admission budget in bytes; `None` is unbudgeted.
    pub memory_budget: Option<usize>,
    /// How long a connection may sit idle (no frame started) before the
    /// server closes it with a typed `Close`. Resumable sessions park.
    pub idle_deadline: Duration,
    /// How long a peer may stall *mid-frame* before the read is declared
    /// wedged and the connection dropped.
    pub read_deadline: Duration,
    /// Socket write deadline: a peer that stops reading cannot block a
    /// reply write past this.
    pub write_deadline: Duration,
    /// How long a resumable session survives parked after its connection
    /// dies before being reaped.
    pub park_timeout: Duration,
    /// Reply-cache bound per session: a client whose unacked replies
    /// exceed this many bytes is evicted as a slow consumer.
    pub reply_cache_bytes: usize,
    /// How long [`Server::shutdown`] waits for connection threads to
    /// drain and exit before giving up on the stragglers.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            root: PathBuf::new(),
            max_tenants: 64,
            memory_budget: None,
            idle_deadline: Duration::from_secs(60),
            read_deadline: Duration::from_secs(10),
            write_deadline: Duration::from_secs(10),
            park_timeout: Duration::from_secs(30),
            reply_cache_bytes: 8 << 20,
            drain_deadline: Duration::from_secs(10),
        }
    }
}

impl ServerConfig {
    /// A config serving tenants under `root` on an ephemeral local port.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServerConfig {
            root: root.into(),
            ..ServerConfig::default()
        }
    }

    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the concurrent-tenant cap.
    pub fn with_max_tenants(mut self, n: usize) -> Self {
        self.max_tenants = n;
        self
    }

    /// Sets the service-wide admission budget (bytes).
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Sets the idle deadline (no frame started).
    pub fn with_idle_deadline(mut self, d: Duration) -> Self {
        self.idle_deadline = d;
        self
    }

    /// Sets the mid-frame read deadline.
    pub fn with_read_deadline(mut self, d: Duration) -> Self {
        self.read_deadline = d;
        self
    }

    /// Sets the socket write deadline.
    pub fn with_write_deadline(mut self, d: Duration) -> Self {
        self.write_deadline = d;
        self
    }

    /// Sets how long a disconnected resumable session stays parked.
    pub fn with_park_timeout(mut self, d: Duration) -> Self {
        self.park_timeout = d;
        self
    }

    /// Sets the per-session reply-cache (slow-consumer) bound.
    pub fn with_reply_cache_bytes(mut self, bytes: usize) -> Self {
        self.reply_cache_bytes = bytes;
        self
    }

    /// Sets the graceful-drain join deadline.
    pub fn with_drain_deadline(mut self, d: Duration) -> Self {
        self.drain_deadline = d;
        self
    }
}

impl Validate for ServerConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        if self.addr.is_empty() {
            return Err(ConfigError::new("addr", "must not be empty"));
        }
        if self.root.as_os_str().is_empty() {
            return Err(ConfigError::new(
                "root",
                "tenant root directory is required",
            ));
        }
        if self.max_tenants == 0 {
            return Err(ConfigError::new("max_tenants", "must be >= 1"));
        }
        if self.memory_budget == Some(0) {
            return Err(ConfigError::new("memory_budget", "must be > 0 bytes"));
        }
        for (field, d) in [
            ("idle_deadline", self.idle_deadline),
            ("read_deadline", self.read_deadline),
            ("write_deadline", self.write_deadline),
            ("drain_deadline", self.drain_deadline),
        ] {
            if d.is_zero() {
                return Err(ConfigError::new(field, "must be > 0"));
            }
        }
        if self.reply_cache_bytes == 0 {
            return Err(ConfigError::new("reply_cache_bytes", "must be > 0 bytes"));
        }
        Ok(())
    }
}

struct Shared {
    root: PathBuf,
    admission: Arc<AdmissionController>,
    registry: MetricsRegistry,
    shutdown: AtomicBool,
    sessions: SessionTable,
    session_counters: SessionCounters,
    idle_deadline: Duration,
    read_deadline: Duration,
    write_deadline: Duration,
    reply_cache_bytes: usize,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// A running service instance. Dropping (or [`Server::shutdown`])
/// performs a graceful drain: the accept loop stops, every live
/// connection gets a typed `Close` frame, every tenant is
/// punctuated/checkpointed/synced, and connection threads are joined
/// against the configured drain deadline.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    drain_deadline: Duration,
}

impl core::fmt::Debug for Server {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Validates `config`, binds the listener, and spawns the accept
    /// loop. All failures are typed.
    pub fn start(config: ServerConfig) -> Result<Server, ServeError> {
        config.validate()?;
        std::fs::create_dir_all(&config.root).map_err(|e| {
            ServeError::io(&format!("create service root {}", config.root.display()), e)
        })?;
        let listener = TcpListener::bind(config.addr.as_str())
            .map_err(|e| ServeError::io(&format!("bind {}", config.addr), e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::io("set listener nonblocking", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::io("local addr", e))?;

        let registry = MetricsRegistry::new();
        let meter = match config.memory_budget {
            Some(b) => MemoryMeter::with_budget(b),
            None => MemoryMeter::new(),
        };
        let admission = Arc::new(AdmissionController::new(
            meter,
            config.max_tenants,
            &registry,
        ));
        let session_counters = SessionCounters::new(&registry);
        let shared = Arc::new(Shared {
            root: config.root,
            admission,
            shutdown: AtomicBool::new(false),
            sessions: SessionTable::new(config.park_timeout),
            session_counters,
            idle_deadline: config.idle_deadline,
            read_deadline: config.read_deadline,
            write_deadline: config.write_deadline,
            reply_cache_bytes: config.reply_cache_bytes,
            conns: Mutex::new(Vec::new()),
            registry,
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| ServeError::io("spawn accept thread", e))?;

        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            drain_deadline: config.drain_deadline,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Service-level metrics (admission + `serve.session.*` counters),
    /// as registry JSON.
    pub fn metrics(&self) -> Json {
        self.shared.registry.snapshot().to_json()
    }

    /// Currently active tenant count.
    pub fn active_tenants(&self) -> usize {
        self.shared.admission.active_tenants()
    }

    /// Currently parked (disconnected but resumable) session count.
    pub fn parked_sessions(&self) -> usize {
        self.shared.sessions.len()
    }

    /// Graceful drain: stop accepting, notify live connections with a
    /// typed `Close` frame, punctuate/flush/checkpoint every tenant
    /// (live and parked), and join connection threads against the drain
    /// deadline. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Connection threads notice the flag at their next poll tick,
        // close out their sessions, and exit; join them with a deadline
        // so one wedged peer cannot hang shutdown.
        let deadline = Instant::now() + self.drain_deadline;
        let handles: Vec<JoinHandle<()>> = {
            let mut conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            conns.drain(..).collect()
        };
        for handle in handles {
            loop {
                if handle.is_finished() {
                    let _ = handle.join();
                    break;
                }
                if Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(POLL_TICK);
            }
        }
        // Parked sessions have no thread; drain them here.
        for mut s in self.shared.sessions.drain_all() {
            let _ = s.runtime.drain_shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let connections = shared.registry.counter("serve.connections");
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                connections.inc();
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        // A panicking session must never take down the
                        // accept loop or any sibling session; the tenant's
                        // runtime (and admission ticket) unwind with it.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let _ = serve_connection(stream, conn_shared);
                        }));
                    });
                if let Ok(handle) = spawned {
                    let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
                    // Prune finished threads so a long-lived server does
                    // not accumulate handles without bound.
                    conns.retain(|h| !h.is_finished());
                    conns.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Why the per-connection frame wait returned.
enum Wait {
    /// Bytes are buffered: a frame is starting.
    Frame,
    /// Clean end of stream.
    Eof,
    /// No frame started within the idle deadline.
    IdleDeadline,
    /// The server is draining.
    Shutdown,
}

fn timeout_kind(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Blocks until a frame starts, the peer hangs up, the idle deadline
/// passes, or the server begins draining. The socket runs a short
/// `SO_RCVTIMEO` tick so each wakeup can re-check the shutdown flag.
fn wait_for_frame(reader: &mut BufReader<TcpStream>, shared: &Shared) -> Result<Wait, ServeError> {
    let start = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(Wait::Shutdown);
        }
        match reader.fill_buf() {
            Ok([]) => return Ok(Wait::Eof),
            Ok(_) => return Ok(Wait::Frame),
            Err(e) if timeout_kind(&e) => {
                if start.elapsed() >= shared.idle_deadline {
                    return Ok(Wait::IdleDeadline);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::io("poll frame", e)),
        }
    }
}

/// Sniffs the framing: `{` opens NDJSON, the 4-byte magic opens binary.
fn sniff_mode(reader: &mut BufReader<TcpStream>) -> Result<WireMode, ServeError> {
    let first = {
        let buf = reader
            .fill_buf()
            .map_err(|e| ServeError::io("sniff framing", e))?;
        match buf.first() {
            Some(b) => *b,
            None => {
                return Err(ServeError::Protocol {
                    detail: "connection closed before any frame".to_string(),
                })
            }
        }
    };
    if first == b'{' {
        return Ok(WireMode::Ndjson);
    }
    let mut magic = [0u8; 4];
    reader
        .read_exact(&mut magic)
        .map_err(|e| ServeError::io("read magic", e))?;
    if &magic != BINARY_MAGIC {
        return Err(ServeError::Protocol {
            detail: format!("unknown connection magic {magic:?}"),
        });
    }
    Ok(WireMode::Binary)
}

/// How the session loop ended, deciding the session's fate.
enum ConnEnd {
    /// Peer hung up or the connection broke: park if resumable.
    Disconnect,
    /// Idle deadline: typed close, park if resumable.
    Idle,
    /// Graceful drain: typed close, then flush/checkpoint the tenant.
    Drain,
    /// The session was evicted with a terminal error already sent.
    Evicted,
}

/// One tenant session: strict request/reply until the connection ends.
fn serve_connection(stream: TcpStream, shared: Arc<Shared>) -> Result<(), ServeError> {
    stream
        .set_nodelay(true)
        .map_err(|e| ServeError::io("set nodelay", e))?;
    stream
        .set_write_timeout(Some(shared.write_deadline))
        .map_err(|e| ServeError::io("set write timeout", e))?;
    // The idle wait runs a short receive tick (shutdown responsiveness);
    // mid-frame reads get the full read deadline via this second handle.
    let ctrl = stream
        .try_clone()
        .map_err(|e| ServeError::io("clone stream", e))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| ServeError::io("clone stream", e))?;
    let mut reader = BufReader::new(stream);
    ctrl.set_read_timeout(Some(POLL_TICK))
        .map_err(|e| ServeError::io("set read timeout", e))?;

    // The sniff byte may lag connect; wait under the idle deadline.
    let mode = match wait_for_frame(&mut reader, &shared)? {
        Wait::Frame => match sniff_mode(&mut reader) {
            Ok(mode) => mode,
            Err(e) => {
                // Best-effort reject in the only framing we can assume.
                let _ = write_server_frame(
                    &mut writer,
                    WireMode::Ndjson,
                    &ServerFrame::unsequenced(ServerMsg::Error { error: e }),
                );
                return Ok(());
            }
        },
        Wait::Eof | Wait::IdleDeadline | Wait::Shutdown => return Ok(()),
    };

    let mut session: Option<SessionState> = None;
    let end = session_loop(&mut reader, &mut writer, &ctrl, mode, &mut session, &shared);
    finish_connection(end, session, &mut writer, mode, &shared);
    Ok(())
}

fn session_loop(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    ctrl: &TcpStream,
    mode: WireMode,
    session: &mut Option<SessionState>,
    shared: &Shared,
) -> ConnEnd {
    loop {
        match wait_for_frame(reader, shared) {
            Ok(Wait::Frame) => {}
            Ok(Wait::Eof) => return ConnEnd::Disconnect,
            Ok(Wait::IdleDeadline) => return ConnEnd::Idle,
            Ok(Wait::Shutdown) => return ConnEnd::Drain,
            Err(_) => return ConnEnd::Disconnect,
        }
        // A frame is arriving: give the peer the full read deadline to
        // deliver it. A timeout mid-frame means a wedged peer — the
        // partial frame is unrecoverable, so the connection ends.
        let _ = ctrl.set_read_timeout(Some(shared.read_deadline));
        let frame = read_client_frame(reader, mode);
        let _ = ctrl.set_read_timeout(Some(POLL_TICK));
        let frame = match frame {
            Ok(Some(frame)) => frame,
            Ok(None) => return ConnEnd::Disconnect,
            Err(e @ ServeError::Protocol { .. }) => {
                // Malformed frame: answer with the typed error, then
                // close — the stream position is no longer trustworthy.
                let _ = write_server_frame(
                    writer,
                    mode,
                    &ServerFrame::unsequenced(ServerMsg::Error { error: e }),
                );
                return ConnEnd::Disconnect;
            }
            Err(_) => return ConnEnd::Disconnect,
        };
        let (reply, evict) = handle_frame(frame, session, shared);
        if write_server_frame(writer, mode, &reply).is_err() {
            return ConnEnd::Disconnect;
        }
        if evict {
            return ConnEnd::Evicted;
        }
    }
}

/// Ends the connection: typed close frames where the peer is still
/// there, then park / drain / drop the session as the ending dictates.
fn finish_connection(
    end: ConnEnd,
    session: Option<SessionState>,
    writer: &mut TcpStream,
    mode: WireMode,
    shared: &Shared,
) {
    let close = |writer: &mut TcpStream, reason: &str| {
        let _ = write_server_frame(
            writer,
            mode,
            &ServerFrame::unsequenced(ServerMsg::Close {
                reason: reason.to_string(),
            }),
        );
    };
    match end {
        ConnEnd::Drain => {
            close(writer, "drain: server shutting down");
            if let Some(mut s) = session {
                let _ = s.runtime.drain_shutdown();
            }
        }
        ConnEnd::Idle => {
            close(writer, "idle deadline exceeded");
            park_or_drop(session, shared);
        }
        ConnEnd::Disconnect => park_or_drop(session, shared),
        ConnEnd::Evicted => {}
    }
    let _ = writer.flush();
}

fn park_or_drop(session: Option<SessionState>, shared: &Shared) {
    if let Some(s) = session {
        if s.parkable() {
            shared.sessions.park(s, &shared.session_counters);
        }
    }
}

/// A fresh resume token: 128 bits of entropy, hex-encoded. Tokens are
/// bearer credentials — any holder can resume (hijack) the parked
/// session, its runtime, and its admission ticket — so they must be
/// unguessable and carry no tenant-derived structure a client of one
/// tenant could use to enumerate another's.
fn fresh_resume_token() -> String {
    use core::fmt::Write as _;
    let mut s = String::with_capacity(32);
    for b in token_entropy() {
        let _ = write!(s, "{b:02x}");
    }
    s
}

fn token_entropy() -> [u8; 16] {
    let mut buf = [0u8; 16];
    // The OS CSPRNG where available (every platform this runs on).
    if let Ok(mut f) = std::fs::File::open("/dev/urandom") {
        if f.read_exact(&mut buf).is_ok() {
            return buf;
        }
    }
    // Fallback without new dependencies: RandomState hashers are keyed
    // from OS entropy per instance; mix two of them over a process
    // counter and the clock.
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    for (i, chunk) in buf.chunks_mut(8).enumerate() {
        let mut h = RandomState::new().build_hasher();
        h.write_u64(n);
        h.write_u128(now);
        h.write_usize(i);
        chunk.copy_from_slice(&h.finish().to_le_bytes());
    }
    buf
}

fn out_msg(released: Released) -> ServerMsg {
    ServerMsg::Out {
        batch: released.events,
        puncts: released.puncts,
        completed: released.completed,
    }
}

/// Applies one client frame to the session, mapping every failure —
/// including a panic that escapes an unhardened tenant pipeline — to an
/// error frame scoped to this connection. Returns the reply and whether
/// the session was terminally evicted (connection must close).
fn handle_frame(
    frame: ClientFrame,
    session: &mut Option<SessionState>,
    shared: &Shared,
) -> (ServerFrame, bool) {
    let ClientFrame { seq, ack, msg } = frame;

    // The ack horizon frees cached replies regardless of what follows —
    // including heartbeats: an idle client pinging with its ack current
    // must still drain the reply cache, or it pins reply_bytes and can
    // trip the slow-consumer eviction despite having acked everything.
    if let Some(s) = session.as_mut() {
        s.acknowledge(ack);
    }

    // Heartbeats are envelope-level: no session required, never cached.
    if let ClientMsg::Ping { nonce } = msg {
        shared.session_counters.heartbeats.inc();
        return (ServerFrame::unsequenced(ServerMsg::Pong { nonce }), false);
    }

    // Sequenced requests get exactly-once treatment: an already-applied
    // sequence is answered from the cache (a retry) or dropped as a
    // duplicate; only `applied + 1` reaches the pipeline; a gap is a
    // typed session error.
    if seq > 0 && msg.is_sequenced() {
        let Some(s) = session.as_mut() else {
            return (
                ServerFrame {
                    seq,
                    msg: ServerMsg::Error {
                        error: ServeError::Protocol {
                            detail: "no tenant open on this connection (send \"open\" first)"
                                .to_string(),
                        },
                    },
                },
                false,
            );
        };
        let applied = s.applied_seq();
        if seq <= applied {
            if let Some(cached) = s.cached_reply(seq) {
                shared.session_counters.retries.inc();
                return (cached.clone(), false);
            }
            // Applied and acked (or pre-resume): nothing to re-deliver.
            shared.session_counters.duplicates_dropped.inc();
            let completed = s.runtime.is_completed();
            return (
                ServerFrame {
                    seq,
                    msg: ServerMsg::Out {
                        batch: vec![],
                        puncts: vec![],
                        completed,
                    },
                },
                false,
            );
        }
        if seq > applied + 1 {
            return (
                ServerFrame {
                    seq,
                    msg: ServerMsg::Error {
                        error: ServeError::Session {
                            detail: format!("sequence gap: got {seq}, expected {}", applied + 1),
                            retryable: false,
                        },
                    },
                },
                false,
            );
        }
        // Fresh: record the sequence (journaled as the WAL tag by any
        // durable append below), apply, cache the reply until acked.
        s.runtime.note_seq(seq);
        let reply = ServerFrame {
            seq,
            msg: dispatch(msg, session, shared),
        };
        if let Some(s) = session.as_mut() {
            s.cache_reply(reply.clone());
            if s.reply_bytes() > shared.reply_cache_bytes {
                shared.session_counters.slow_client_evictions.inc();
                let tenant = s.runtime.name().to_string();
                let buffered = s.reply_bytes() as u64;
                *session = None;
                return (
                    ServerFrame {
                        seq,
                        msg: ServerMsg::Error {
                            error: ServeError::SlowConsumer { tenant, buffered },
                        },
                    },
                    true,
                );
            }
        }
        return (reply, false);
    }

    // Unsequenced path: opens, metrics, and legacy lockstep clients
    // that never stamp sequences (they forgo retry dedup).
    let msg = dispatch(msg, session, shared);
    (ServerFrame { seq, msg }, false)
}

/// Applies one request, already past sequence dedup, mapping every
/// failure to an error message scoped to this connection.
fn dispatch(msg: ClientMsg, session: &mut Option<SessionState>, shared: &Shared) -> ServerMsg {
    match dispatch_inner(msg, session, shared) {
        Ok(m) => m,
        Err(e) => {
            if matches!(
                e,
                ServeError::Stream(_) | ServeError::TenantFailed { .. } | ServeError::Io { .. }
            ) {
                // The pipeline is no longer trustworthy: evict the tenant
                // so the name and budget free up for a re-open. The
                // connection itself stays usable (the client may re-open),
                // so this is not a connection-evicting error.
                *session = None;
            }
            ServerMsg::Error { error: e }
        }
    }
}

fn dispatch_inner(
    msg: ClientMsg,
    session: &mut Option<SessionState>,
    shared: &Shared,
) -> Result<ServerMsg, ServeError> {
    match msg {
        ClientMsg::Open {
            config,
            resume,
            resumable,
        } => {
            if session.is_some() {
                return Err(ServeError::Protocol {
                    detail: "tenant already open on this connection".to_string(),
                });
            }
            if let Some(token) = resume {
                let state = shared.sessions.resume(&token, &shared.session_counters)?;
                shared.session_counters.resumes.inc();
                let info = json!({
                    "tenant": state.runtime.name(),
                    "resumed": true,
                    "session": session_info(&state),
                });
                *session = Some(state);
                return Ok(ServerMsg::Ok { info });
            }
            let config = TenantConfig::from_json(&config)?;
            let ticket = shared
                .admission
                .admit(config.name(), config.memory_budget)?;
            let runtime = TenantRuntime::start(config, &shared.root)?;
            let token = resumable.then(fresh_resume_token);
            let state = SessionState::new(runtime, ticket, token);
            let info = json!({
                "tenant": state.runtime.name(),
                "resumed": false,
                "plan": state.runtime.config().pipeline.plan().to_string(),
                "recovery": state.runtime.recovery_info(),
                "session": session_info(&state),
            });
            *session = Some(state);
            Ok(ServerMsg::Ok { info })
        }
        ClientMsg::Events { batch } => {
            let s = open_session(session)?;
            s.runtime.ingest(batch)?;
            Ok(out_msg(s.runtime.drain()))
        }
        ClientMsg::Punctuate { t } => {
            let s = open_session(session)?;
            s.runtime.force_punctuate(t)?;
            Ok(out_msg(s.runtime.drain()))
        }
        ClientMsg::Complete => {
            let s = open_session(session)?;
            s.runtime.complete()?;
            Ok(out_msg(s.runtime.drain()))
        }
        ClientMsg::Metrics => {
            let s = open_session(session)?;
            let trace = s.runtime.trace_summary().unwrap_or(Json::Null);
            Ok(ServerMsg::Metrics {
                snapshot: json!({
                    "metrics": s.runtime.metrics(),
                    "trace": trace,
                }),
            })
        }
        ClientMsg::Reconfigure { config } => {
            let s = open_session(session)?;
            let config = TenantConfig::from_json(&config)?;
            let released = s.runtime.reconfigure(config)?;
            Ok(out_msg(released))
        }
        ClientMsg::Ping { .. } => unreachable!("handled in handle_frame"),
    }
}

/// The session block of an `open` reply: resume token (when resumable)
/// and the durable sequence high-water the client may trim its send
/// window to.
fn session_info(state: &SessionState) -> Json {
    let mut fields = vec![(
        "durable_seq".to_string(),
        Json::Int(state.applied_seq() as i128),
    )];
    if let Some(token) = &state.token {
        fields.push(("token".to_string(), json!(token.as_str())));
    }
    if let Some(idx) = state.runtime.wal_durable_index() {
        fields.push(("wal_index".to_string(), Json::Int(idx as i128)));
    }
    Json::Object(fields)
}

fn open_session(session: &mut Option<SessionState>) -> Result<&mut SessionState, ServeError> {
    session.as_mut().ok_or_else(|| ServeError::Protocol {
        detail: "no tenant open on this connection (send \"open\" first)".to_string(),
    })
}
