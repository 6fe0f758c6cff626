//! `serve-durable` and `serve-paced`: CloudLog through a real loopback
//! socket into one tenant of the service.
//!
//! * `serve-durable` — binary framing, durable + checkpointed + adaptive
//!   tenant, closed loop (lockstep `Client::send`, batch 32 768), ops
//!   `[TumblingWindow, SumByKey]`.
//! * `serve-paced` — NDJSON framing, non-durable adaptive tenant, open
//!   loop at a fixed rate (batch 256, each batch timed from its due time),
//!   op `[Scale]`.
//!
//! The oracle for both is an in-process `TenantRuntime` fed the same
//! batches: the socket's replies must fold to the same digest, reply by
//! reply. The traced pass re-runs the input through an open-coded copy of
//! the served path built only from public calls, one span per call.

use crate::harness::{discard, dump_trace, timed_section, timed_setups, Ctx};
use crate::measure::{
    end_to_end_metrics, process_cpu_ns, put_ungated_timings, EmitTracker, Outcome, Segment,
    SEGMENTS,
};
use crate::oracle::{self, Fold};
use crate::pace::{drive_open_loop, Clock, SpinClock};
use crate::span::Tracer;
use crate::{alloc, inputs, layers, stats};
use impatience_core::{
    Event, MemoryMeter, MetricsRegistry, SnapshotWriter, StateCodec, StreamMessage, Timestamp,
};
use impatience_disorder::{AdaptiveConfig, AdaptiveLatency};
use impatience_engine::{OpSpec, Output, PipelineEnv, PipelineSpec, ReorderSpec, WalIngress};
use impatience_serve::{
    read_client_frame, read_server_frame, write_client_frame, write_server_frame, Client,
    ClientFrame, ClientMsg, Released, Server, ServerConfig, ServerFrame, ServerMsg, TenantConfig,
    TenantRuntime, WireMode,
};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Completeness target of the adaptive ladder.
const QUALITY: f64 = 0.99;
/// Sliding window and step-down hold of the ladder controller (the
/// `ReorderSpec` defaults).
const ADAPT_WINDOW: usize = 4096;
const ADAPT_HOLD: u32 = 3;
/// Factor of the paced tenant's 1:1 `Scale` op.
const SCALE: i64 = 3;
/// Events of the per-layer drives of `serve-paced` (a dataset prefix).
const PACED_LAYER_EVENTS: usize = 200_000;
/// Name of the in-process reference tenant (its metrics prefix).
const SOLO: &str = "solo";
/// The four wire calls a request makes (span `serve.wire.<call>`).
const WIRE_CALLS: [&str; 4] = [
    "encode_client",
    "decode_client",
    "encode_server",
    "decode_server",
];
/// Name (directory and metrics prefix) of the traced open-coded tenant.
const OC_TRACED: &str = "oc-traced";

/// Which of the two served workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve-durable`.
    Durable,
    /// `serve-paced`.
    Paced,
}

impl Kind {
    fn tag(self) -> &'static str {
        match self {
            Kind::Durable => "serve-durable",
            Kind::Paced => "serve-paced",
        }
    }

    fn mode(self) -> WireMode {
        match self {
            Kind::Durable => WireMode::Binary,
            Kind::Paced => WireMode::Ndjson,
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            Kind::Durable => "bin",
            Kind::Paced => "ndjson",
        }
    }

    fn batch(self) -> usize {
        match self {
            Kind::Durable => inputs::DURABLE_BATCH,
            Kind::Paced => inputs::PACED_BATCH,
        }
    }

    /// The tenant under test.
    fn config(self, name: &str) -> TenantConfig {
        let spec = PipelineSpec::new(name).with_reorder(ReorderSpec::Adaptive {
            ladder: inputs::serve_ladder(),
            quality: QUALITY,
            window: ADAPT_WINDOW,
            hold: ADAPT_HOLD,
        });
        match self {
            Kind::Durable => TenantConfig::new(
                spec.with_checkpoint(16)
                    .with_op(OpSpec::TumblingWindow {
                        size: inputs::WINDOW,
                    })
                    .with_op(OpSpec::SumByKey),
            )
            .with_durable(true),
            Kind::Paced => TenantConfig::new(spec.with_op(OpSpec::Scale { factor: SCALE })),
        }
    }

    /// The output punctuation that finalises a batch whose highest event
    /// time is `max`: window-aligned when the op chain windows.
    fn mark(self, max: Timestamp) -> Timestamp {
        match self {
            Kind::Durable => max.align_down(inputs::WINDOW),
            Kind::Paced => max,
        }
    }
}

/// Folds one reply the way both sides of the oracle do.
fn fold_reply(fold: &mut Fold, reply: &Released) {
    fold.events_i64(&reply.events);
    for p in &reply.puncts {
        fold.punct(*p);
    }
    if reply.completed {
        fold.punct(Timestamp::MAX);
    }
}

// ---------------------------------------------------------------------
// The reference: an in-process TenantRuntime fed the same batches
// ---------------------------------------------------------------------

/// What the solo runtime produced and cost.
struct Solo {
    fold: Fold,
    /// Output punctuations released by each batch's ingest.
    puncts: Vec<Vec<Timestamp>>,
    /// Output events, kept only on request (the stable-sort check).
    events: Vec<Event<i64>>,
    ingest_s: f64,
    drain_s: f64,
    registry: MetricsRegistry,
}

fn solo_run(
    kind: Kind,
    name: &str,
    root: &Path,
    batches: &[Vec<Event<i64>>],
    keep_events: bool,
) -> Result<Solo, String> {
    let mut rt = TenantRuntime::start(kind.config(name), root).map_err(|e| e.to_string())?;
    let mut solo = Solo {
        fold: Fold::default(),
        puncts: Vec::with_capacity(batches.len()),
        events: Vec::new(),
        ingest_s: 0.0,
        drain_s: 0.0,
        registry: rt.registry().clone(),
    };
    let take = |rt: &mut TenantRuntime, solo: &mut Solo| {
        let t = Instant::now();
        let released = rt.drain();
        solo.drain_s += t.elapsed().as_secs_f64();
        fold_reply(&mut solo.fold, &released);
        if keep_events {
            solo.events.extend_from_slice(&released.events);
        }
        released.puncts
    };
    for (i, batch) in batches.iter().enumerate() {
        let owned = batch.clone();
        rt.note_seq(i as u64 + 1);
        let t = Instant::now();
        rt.ingest(owned).map_err(|e| e.to_string())?;
        solo.ingest_s += t.elapsed().as_secs_f64();
        let puncts = take(&mut rt, &mut solo);
        solo.puncts.push(puncts);
    }
    rt.note_seq(batches.len() as u64 + 1);
    rt.complete().map_err(|e| e.to_string())?;
    take(&mut rt, &mut solo);
    Ok(solo)
}

// ---------------------------------------------------------------------
// Socket runs
// ---------------------------------------------------------------------

/// One connection's worth of observations.
#[derive(Default)]
struct SocketRun {
    fold: Fold,
    reply_ms: Vec<f64>,
    emit: EmitTracker,
    wall_s: f64,
    requests: u64,
    failed: u64,
    errors: Vec<String>,
}

impl SocketRun {
    fn reply(&mut self, released: Result<Released, impatience_serve::ServeError>, now: Instant) {
        self.requests += 1;
        match released {
            Ok(r) => {
                fold_reply(&mut self.fold, &r);
                for p in &r.puncts {
                    self.emit.punctuation(*p, now);
                }
                if r.completed {
                    self.emit.completed(now);
                }
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(e.to_string());
            }
        }
    }
}

fn connect_and_open(
    server: &Server,
    kind: Kind,
    name: &str,
    run: &mut SocketRun,
) -> Option<Client> {
    run.requests += 1;
    let opened = Client::connect(server.addr(), kind.mode()).and_then(|mut c| {
        c.open(&kind.config(name))?;
        Ok(c)
    });
    match opened {
        Ok(c) => Some(c),
        Err(e) => {
            run.failed += 1;
            run.errors.push(format!("open {name}: {e}"));
            None
        }
    }
}

/// Lockstep: the next batch goes out when the previous reply is read.
fn closed_loop(server: &Server, kind: Kind, name: &str, batches: &[Vec<Event<i64>>]) -> SocketRun {
    let mut run = SocketRun::default();
    let Some(mut client) = connect_and_open(server, kind, name, &mut run) else {
        return run;
    };
    let owned: Vec<Vec<Event<i64>>> = batches.to_vec(); // copied before the clock starts
    let start = Instant::now();
    for batch in owned {
        let sent = Instant::now();
        run.emit.hand_in(sent, kind.mark(inputs::max_sync(&batch)));
        let reply = client.send(batch);
        let now = Instant::now();
        run.reply_ms.push((now - sent).as_secs_f64() * 1e3);
        run.reply(reply, now);
        if run.failed > 0 {
            return run;
        }
    }
    let reply = client.complete();
    let now = Instant::now();
    run.reply(reply, now);
    run.wall_s = (now - start).as_secs_f64();
    run
}

/// What one paced stretch observed beyond the [`SocketRun`] samples.
#[derive(Default)]
struct PacedStretch {
    lag_ms: Vec<f64>,
    backlog_max: u64,
    wall_s: f64,
    events: u64,
    /// Process CPU over the stretch minus the generator's own busy-wait:
    /// the wait is the harness's, not the system's, and would otherwise
    /// read as one full core whatever the system does.
    cpu_ns: u64,
}

/// Sends `batches[range]` on the open-loop schedule starting at
/// `first_due` (clock ns); returns the stretch's lag and span.
fn paced_stretch(
    client: &mut Client,
    clock: &SpinClock,
    batches: &mut [Vec<Event<i64>>],
    first_due: u64,
    interval_ns: u64,
    run: &mut SocketRun,
) -> PacedStretch {
    let mut events = 0u64;
    let mut last_done = first_due;
    let (cpu, spun) = (process_cpu_ns(), clock.spun_ns());
    let paced = drive_open_loop(clock, batches.len(), first_due, interval_ns, |i, due| {
        let batch = std::mem::take(&mut batches[i]);
        events += batch.len() as u64;
        let due_at = clock.instant_at(due);
        run.emit
            .hand_in(due_at, Kind::Paced.mark(inputs::max_sync(&batch)));
        let reply = client.send(batch);
        run.reply(reply, Instant::now());
        last_done = clock.now_ns();
    });
    run.reply_ms
        .extend(paced.latency_ns.iter().map(|&ns| ns as f64 / 1e6));
    PacedStretch {
        lag_ms: paced.lag_ns.iter().map(|&ns| ns as f64 / 1e6).collect(),
        backlog_max: paced.backlog_max,
        wall_s: (last_done - first_due) as f64 / 1e9,
        events,
        cpu_ns: process_cpu_ns()
            .saturating_sub(cpu)
            .saturating_sub(clock.spun_ns() - spun),
    }
}

fn interval_ns(rate_eps: usize) -> u64 {
    (inputs::PACED_BATCH as f64 * 1e9 / rate_eps as f64) as u64
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

struct Setup {
    server: Server,
    root: PathBuf,
    batches: Vec<Vec<Event<i64>>>,
    events: usize,
    /// `serve-paced`: the tenant opened and warmed during set-up, with the
    /// digest of the warm-up replies.
    live: Option<(Client, SocketRun)>,
    /// Batches already streamed by the warm-up.
    warm_batches: usize,
}

fn start_server(ctx: &Ctx, kind: Kind, i: usize) -> (Server, PathBuf) {
    let root = ctx.fresh_dir(&format!("{}-srv{i}", kind.tag()));
    let server = Server::start(ServerConfig::new(&root))
        .unwrap_or_else(|e| panic!("start the service under {}: {e}", root.display()));
    (server, root)
}

fn set_up(ctx: &Ctx, kind: Kind, i: usize) -> Setup {
    let warm_events = ctx.sizes.serve_warmup;
    let total = match kind {
        Kind::Durable => ctx.sizes.serve_durable,
        Kind::Paced => warm_events + (inputs::PACED_RATE_EPS as f64 * ctx.seconds) as usize,
    };
    let events = inputs::cloudlog(ctx.seed, total);
    let batches = inputs::batches(&events, kind.batch());
    let (server, root) = start_server(ctx, kind, i);
    let warm_batches = warm_events / kind.batch();
    let live = match kind {
        // Warm-up: a short closed-loop tenant of its own.
        Kind::Durable => {
            let warm = closed_loop(
                &server,
                kind,
                "warm",
                &batches[..warm_batches.min(batches.len())],
            );
            assert!(warm.failed == 0, "warm-up failed: {:?}", warm.errors);
            None
        }
        // Warm-up: the head of the very stream the schedule continues, so
        // the ladder controller has left its start rung.
        Kind::Paced => {
            let mut run = SocketRun::default();
            let mut client = connect_and_open(&server, kind, "paced", &mut run)
                .unwrap_or_else(|| panic!("open the paced tenant: {:?}", run.errors));
            for batch in &batches[..warm_batches] {
                let reply = client.send(batch.clone());
                run.reply(reply, Instant::now());
            }
            assert!(run.failed == 0, "warm-up failed: {:?}", run.errors);
            Some((client, run))
        }
    };
    Setup {
        server,
        root,
        events: events.len(),
        batches,
        live,
        warm_batches,
    }
}

fn tear_down(mut setup: Setup) {
    drop(setup.live.take());
    setup.server.shutdown();
    discard(&[setup.root]);
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

fn account(run: &SocketRun, expected: &Fold, out: &mut Outcome) {
    out.attempted += run.requests + 1;
    out.failed += run.failed;
    for e in &run.errors {
        out.notes.push(format!("FAILED request: {e}"));
    }
    if run.failed == 0 && run.fold != *expected {
        out.fail(format!(
            "socket output differs from the in-process tenant: {} events / {} punctuations \
             (hash {:016x}), expected {} / {} (hash {:016x})",
            run.fold.events,
            run.fold.puncts,
            run.fold.hash,
            expected.events,
            expected.puncts,
            expected.hash
        ));
    }
}

/// Runs the workload; `traced` selects the per-layer pass.
pub fn run(ctx: &Ctx, kind: Kind, traced: bool) -> Outcome {
    let (mut setup, setup_s) = timed_setups(|i| set_up(ctx, kind, i), tear_down);
    let mut out = Outcome::default();
    let solo_root = ctx.fresh_dir(&format!("{}-solo", kind.tag()));
    match solo_run(kind, SOLO, &solo_root, &setup.batches, kind == Kind::Paced) {
        Ok(solo) => {
            if kind == Kind::Paced {
                check_stable_sort(&setup, &solo, &mut out);
            }
            if traced {
                trace(ctx, kind, &mut setup, &solo, &mut out);
            } else {
                let segments = match kind {
                    Kind::Durable => durable_section(ctx, &setup, &solo.fold, &mut out),
                    Kind::Paced => paced_section(&mut setup, &solo.fold, &mut out),
                };
                out.metrics = end_to_end_metrics(&setup_s, &segments);
            }
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("in-process reference tenant: {e}"));
            if !traced {
                out.metrics = end_to_end_metrics(&setup_s, &[]);
            }
        }
    }
    tear_down(setup);
    discard(&[solo_root]);
    out
}

/// The 1:1 workload also proves the order contract: the output is in
/// event-time order and is exactly the admitted events, where admission
/// follows from the punctuations the replies carried. Events with equal
/// times are compared as a set: the in-memory sorter's run merge does not
/// keep arrival order among ties (observed here, not changed here), so
/// "the stable `(sync_time, arrival)` sort" holds up to tie order.
fn check_stable_sort(setup: &Setup, solo: &Solo, out: &mut Outcome) {
    out.attempted += 1;
    let puncts: Vec<Option<Timestamp>> = solo
        .puncts
        .iter()
        .map(|p| p.iter().copied().max())
        .collect();
    let admitted = oracle::admitted(&setup.batches, &puncts);
    if !solo.events.is_sorted_by_key(|e| e.sync_time) {
        out.fail("output is not in event-time order");
        return;
    }
    let mut got = solo.events.clone();
    got.sort_by_key(|e| (e.sync_time, e.payload));
    if got != oracle::stable_sorted_scaled(&admitted, SCALE) {
        out.fail("output is not the (sync_time, arrival) sort of the admitted events");
    }
}

fn durable_section(ctx: &Ctx, setup: &Setup, expected: &Fold, out: &mut Outcome) -> Vec<Segment> {
    let mut rep_no = 0usize;
    timed_section(ctx.seconds, |seg, trash| {
        rep_no += 1;
        let name = format!("sd{rep_no}");
        let run = closed_loop(&setup.server, Kind::Durable, &name, &setup.batches);
        trash.push(setup.root.join(&name));
        account(&run, expected, out);
        if run.failed == 0 {
            seg.events += setup.events as u64;
            seg.rep_eps.push(setup.events as f64 / run.wall_s);
        }
        seg.emit_ms.extend_from_slice(&run.emit.emit_ms);
    })
}

/// One continuous schedule, read in five consecutive stretches so the
/// segment values exist; the stream is the one the warm-up started.
fn paced_section(setup: &mut Setup, expected: &Fold, out: &mut Outcome) -> Vec<Segment> {
    let (mut client, mut run) = setup
        .live
        .take()
        .expect("paced set-up leaves a live tenant");
    run.emit = EmitTracker::default();
    let timed = &mut setup.batches[setup.warm_batches..];
    let per_stretch = timed.len().div_ceil(SEGMENTS);
    let interval = interval_ns(inputs::PACED_RATE_EPS);
    let clock = SpinClock::start();
    let mut next_due = clock.now_ns() + 1_000_000;
    let mut segments = Vec::with_capacity(SEGMENTS);
    for stretch in timed.chunks_mut(per_stretch.max(1)) {
        let emits_before = run.emit.emit_ms.len();
        let n = stretch.len() as u64;
        let s = paced_stretch(&mut client, &clock, stretch, next_due, interval, &mut run);
        next_due += n * interval;
        segments.push(Segment {
            events: s.events,
            rep_eps: vec![s.events as f64 / s.wall_s],
            emit_ms: run.emit.emit_ms[emits_before..].to_vec(),
        });
        if run.failed > 0 {
            break;
        }
    }
    let emits_before = run.emit.emit_ms.len();
    let reply = client.complete();
    run.reply(reply, Instant::now());
    if let Some(last) = segments.last_mut() {
        last.emit_ms
            .extend_from_slice(&run.emit.emit_ms[emits_before..]);
    }
    account(&run, expected, out);
    segments
}

// ---------------------------------------------------------------------
// The open-coded served path (traced pass)
// ---------------------------------------------------------------------

/// What the open-coded path produced and cost.
#[derive(Default)]
struct OpenCoded {
    fold: Fold,
    wall_s: f64,
    /// Seconds between "request decoded" and "reply ready": the part a
    /// real `TenantRuntime` covers with `ingest` + `drain`.
    tenant_s: f64,
    bytes_in: u64,
    bytes_out: u64,
    wal_bytes: u64,
    checkpoint_ms: Vec<f64>,
    plain_punct_ms: Vec<f64>,
    rung_switches: u64,
    final_latency_ticks: i64,
    registry: MetricsRegistry,
}

fn wal_record_bytes(msg: &StreamMessage<i64>) -> u64 {
    let mut w = SnapshotWriter::new();
    w.put_u64(0);
    msg.encode(&mut w);
    8 + w.len() as u64 // `len | crc` header + tag + message
}

/// The tenant's applied-sequence sidecar, written before every WAL
/// truncation (two fsyncs per checkpoint on the served path).
fn persist_applied(wal_dir: &Path, seq: u64) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = wal_dir.join("applied.seq.tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(seq.to_string().as_bytes())?;
    f.sync_all()?;
    std::fs::rename(&tmp, wal_dir.join("applied.seq"))?;
    std::fs::File::open(wal_dir)?.sync_all()
}

/// `write_client_frame` → `read_client_frame` → `WalIngress::append_tagged`
/// → `AdaptiveLatency::observe` → `handle.push` (batch, then punctuation)
/// → `Output::take_messages` → `write_server_frame` → `read_server_frame`,
/// each inside its own span.
fn open_coded(
    kind: Kind,
    name: &str,
    root: &Path,
    batches: &[Vec<Event<i64>>],
    tracer: &mut Tracer,
) -> Result<OpenCoded, String> {
    let config = kind.config(name);
    let mode = kind.mode();
    let dir = root.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let registry = MetricsRegistry::new();
    let meter = MemoryMeter::new();
    let mut env = PipelineEnv::new()
        .with_registry(&registry)
        .with_meter(&meter);
    if config.pipeline.checkpoint.is_some() {
        env = env.with_checkpoint_dir(dir.join("ckpt"));
    }
    let (output, sink) = Output::new();
    let built = config
        .pipeline
        .build(&env, Box::new(sink))
        .map_err(|e| e.to_string())?;
    let mut adaptive = AdaptiveLatency::new(
        AdaptiveConfig::new()
            .with_ladder(inputs::serve_ladder())
            .with_quality(QUALITY)
            .with_window(ADAPT_WINDOW)
            .with_hold(ADAPT_HOLD),
    )
    .map_err(|e| e.to_string())?;
    let applied = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let wal = if config.durable {
        let wal_dir = dir.join("wal");
        let wal = Arc::new(Mutex::new(
            WalIngress::<i64>::open(&wal_dir).map_err(|e| e.to_string())?,
        ));
        if let Some(ckpt) = &built.ckpt {
            let (w, seq) = (Arc::clone(&wal), Arc::clone(&applied));
            ckpt.on_checkpoint(move |note| {
                let mut w = w.lock().unwrap_or_else(|e| e.into_inner());
                // SeqCst: the callback runs on the pushing thread; nothing
                // else is published through this value.
                let seq = seq.load(std::sync::atomic::Ordering::SeqCst);
                if persist_applied(&wal_dir, seq).is_ok() {
                    let _ = w.truncate_before(note.safe_truncate_index);
                }
            });
        }
        Some(wal)
    } else {
        None
    };
    let written = registry.counter(&format!("{name}.checkpoint.written"));

    let mut oc = OpenCoded {
        registry: registry.clone(),
        ..OpenCoded::default()
    };
    let mut watermark = Timestamp::MIN;
    let mut last_punct: Option<Timestamp> = None;
    let (mut wire_in, mut wire_out) = (Vec::new(), Vec::new());
    let journal = |msg: &StreamMessage<i64>,
                   seq: u64,
                   i: u32,
                   tracer: &mut Tracer,
                   oc: &mut OpenCoded|
     -> Result<(), String> {
        let Some(wal) = &wal else { return Ok(()) };
        let mut w = wal.lock().unwrap_or_else(|e| e.into_inner());
        oc.wal_bytes += wal_record_bytes(msg);
        tracer
            .scope("engine.ingress.wal_append", i, || w.append_tagged(msg, seq))
            .map_err(|e| e.to_string())?;
        tracer
            .scope("engine.ingress.wal_sync", i, || w.sync())
            .map_err(|e| e.to_string())
    };

    let start = Instant::now();
    // One extra turn for the `complete` request.
    for turn in 0..=batches.len() {
        let i = turn as u32;
        let seq = turn as u64 + 1;
        tracer.enter("serve.request", i);
        let request = match batches.get(turn) {
            Some(batch) => ClientMsg::Events {
                batch: batch.clone(),
            },
            None => ClientMsg::Complete,
        };
        wire_in.clear();
        tracer
            .scope("serve.wire.encode_client", i, || {
                // `Client::request` clones the message into its frame.
                let frame = ClientFrame {
                    seq,
                    ack: seq - 1,
                    msg: request.clone(),
                };
                write_client_frame(&mut wire_in, mode, &frame)
            })
            .map_err(|e| e.to_string())?;
        oc.bytes_in += wire_in.len() as u64;
        let frame = tracer
            .scope("serve.wire.decode_client", i, || {
                read_client_frame(&mut Cursor::new(&wire_in), mode)
            })
            .map_err(|e| e.to_string())?
            .ok_or("client frame vanished")?;

        let tenant_start = Instant::now();
        applied.store(seq, std::sync::atomic::Ordering::SeqCst);
        match frame.msg {
            ClientMsg::Events { batch } => {
                tracer.scope("disorder.online.observe", i, || {
                    for e in &batch {
                        watermark = watermark.max(e.sync_time);
                        adaptive.observe(e.sync_time);
                    }
                });
                let msg = StreamMessage::batch(batch);
                journal(&msg, seq, i, tracer, &mut oc)?;
                tracer
                    .scope("engine.pipeline.push", i, || built.handle.push(msg))
                    .map_err(|e| e.to_string())?;
                let target = watermark.saturating_sub(adaptive.current());
                if last_punct.is_none_or(|p| target > p) {
                    let msg = StreamMessage::Punctuation(target);
                    journal(&msg, seq, i, tracer, &mut oc)?;
                    let before = written.get();
                    let t = Instant::now();
                    tracer
                        .scope("engine.pipeline.punctuate", i, || built.handle.push(msg))
                        .map_err(|e| e.to_string())?;
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    if written.get() > before {
                        oc.checkpoint_ms.push(ms);
                    } else {
                        oc.plain_punct_ms.push(ms);
                    }
                    last_punct = Some(target);
                }
            }
            ClientMsg::Complete => {
                let msg = StreamMessage::Completed;
                journal(&msg, seq, i, tracer, &mut oc)?;
                tracer
                    .scope("engine.pipeline.complete", i, || built.handle.push(msg))
                    .map_err(|e| e.to_string())?;
            }
            other => return Err(format!("unexpected request {other:?}")),
        }
        let released = tracer.scope("serve.tenant.drain", i, || {
            let mut released = Released::default();
            for msg in output.take_messages() {
                match msg {
                    StreamMessage::Batch(b) => released.events.extend(b.visible_to_vec()),
                    StreamMessage::Punctuation(t) => released.puncts.push(t),
                    StreamMessage::Completed => released.completed = true,
                }
            }
            released
        });
        oc.tenant_s += tenant_start.elapsed().as_secs_f64();

        let reply = ServerFrame {
            seq,
            msg: ServerMsg::Out {
                batch: released.events,
                puncts: released.puncts,
                completed: released.completed,
            },
        };
        // The session layer keeps a copy of every reply until it is acked.
        let cached = tracer.scope("serve.session.cache_reply", i, || reply.clone());
        wire_out.clear();
        tracer
            .scope("serve.wire.encode_server", i, || {
                write_server_frame(&mut wire_out, mode, &reply)
            })
            .map_err(|e| e.to_string())?;
        drop(cached);
        oc.bytes_out += wire_out.len() as u64;
        let reply = tracer
            .scope("serve.wire.decode_server", i, || {
                read_server_frame(&mut Cursor::new(&wire_out), mode)
            })
            .map_err(|e| e.to_string())?
            .ok_or("server frame vanished")?;
        match reply.msg {
            ServerMsg::Out {
                batch,
                puncts,
                completed,
            } => fold_reply(
                &mut oc.fold,
                &Released {
                    events: batch,
                    puncts,
                    completed,
                },
            ),
            other => return Err(format!("unexpected reply {other:?}")),
        }
        tracer.exit();
    }
    oc.wall_s = start.elapsed().as_secs_f64();
    oc.rung_switches = adaptive.switches();
    oc.final_latency_ticks = adaptive.current().as_ticks();
    Ok(oc)
}

// ---------------------------------------------------------------------
// The traced pass
// ---------------------------------------------------------------------

fn counter(registry: &MetricsRegistry, name: &str) -> f64 {
    registry.counter(name).get() as f64
}

/// Median `ping` round trip in microseconds: the syscall + thread-wake
/// floor every lockstep request pays.
fn ping_rtt_us(server: &Server, mode: WireMode, out: &mut Outcome) -> f64 {
    let mut samples = Vec::new();
    match Client::connect(server.addr(), mode) {
        Ok(mut c) => {
            for nonce in 0..2_000u64 {
                let t = Instant::now();
                out.attempted += 1;
                match c.ping(nonce) {
                    Ok(()) => samples.push(t.elapsed().as_secs_f64() * 1e6),
                    Err(e) => {
                        out.fail(format!("ping: {e}"));
                        break;
                    }
                }
            }
        }
        Err(e) => out.fail(format!("ping connect: {e}")),
    }
    // The first pings include connection warm-up.
    stats::median(&samples[samples.len().min(100)..])
}

fn trace(ctx: &Ctx, kind: Kind, setup: &mut Setup, solo_full: &Solo, out: &mut Outcome) {
    let sfx = kind.suffix();
    let calib_a = layers::calibration_ns();
    drop(setup.live.take()); // the warmed tenant is not used in this pass
    let setup = &*setup;
    let scratch = ctx.fresh_dir(&format!("{}-layers", kind.tag()));
    // The per-layer drives run on the whole input (`serve-durable`: the
    // reference tenant of `run` already is the real runtime on it) or on a
    // prefix of the paced stream, with a reference tenant of its own.
    let prefix_solo;
    let (layer_batches, solo): (&[Vec<Event<i64>>], &Solo) = match kind {
        Kind::Durable => (&setup.batches, solo_full),
        Kind::Paced => {
            let keep = (PACED_LAYER_EVENTS / kind.batch()).clamp(1, setup.batches.len());
            let prefix = &setup.batches[..keep];
            prefix_solo = match solo_run(kind, SOLO, &scratch, prefix, false) {
                Ok(s) => s,
                Err(e) => {
                    out.attempted += 1;
                    out.fail(format!("in-process tenant (layer input): {e}"));
                    return;
                }
            };
            (prefix, &prefix_solo)
        }
    };
    let n: f64 = layer_batches.iter().map(Vec::len).sum::<usize>() as f64;

    // 1. The socket, untraced: what the rows must add up to.
    let mut e2e = Vec::new();
    let mut frames = 0u64;
    let (mut reply_ms, mut emit_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let cpu = process_cpu_ns();
    for rep in 0.. {
        let name = format!("e2e{rep}");
        let run = closed_loop(&setup.server, kind, &name, layer_batches);
        account(&run, &solo.fold, out);
        frames = run.requests;
        if run.failed == 0 {
            e2e.push(run.wall_s * 1e9 / n);
        }
        reply_ms.extend_from_slice(&run.reply_ms);
        emit_ms.extend_from_slice(&run.emit.emit_ms);
        discard(&[setup.root.join(&name)]);
        if rep >= 2 && started.elapsed().as_secs_f64() >= ctx.seconds * 0.2 {
            break;
        }
    }
    // Connection set-up and directory removal ride along; both are small.
    let e2e_cpu = process_cpu_ns().saturating_sub(cpu) as f64 / (e2e.len().max(1) as f64 * n);
    let e2e_ns = stats::median(&e2e);
    let rtt_us = ping_rtt_us(&setup.server, kind.mode(), out);

    // 2. The real runtime and the open-coded path (untraced), alternating
    // so host drift hits both alike.
    let (mut tenant_ns, mut ingest_ns, mut drain_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut plain = Vec::new();
    let started = Instant::now();
    for rep in 0.. {
        if let Ok(s) = solo_run(
            kind,
            &format!("tenant{rep}"),
            &scratch,
            layer_batches,
            false,
        ) {
            tenant_ns.push((s.ingest_s + s.drain_s) * 1e9 / n);
            ingest_ns.push(s.ingest_s * 1e9 / n);
            drain_ns.push(s.drain_s * 1e9 / n);
        }
        out.attempted += 1;
        match open_coded(
            kind,
            &format!("oc{rep}"),
            &scratch,
            layer_batches,
            &mut Tracer::new(false),
        ) {
            Ok(oc) if oc.fold != solo.fold => {
                out.fail("open-coded path output differs from the in-process tenant")
            }
            Ok(oc) => plain.push(oc),
            Err(e) => out.fail(format!("open-coded path: {e}")),
        }
        if rep >= 2 && started.elapsed().as_secs_f64() >= ctx.seconds * 0.3 {
            break;
        }
    }
    let (_, tenant_allocs) =
        alloc::counted(|| solo_run(kind, "tenant-alloc", &scratch, layer_batches, false));

    // 3. The open-coded path with spans, three times: the repetition with
    // the median wall time gives the rows, so one slow fsync among a few
    // dozen cannot skew them.
    let mut traced_reps = Vec::new();
    for _ in 0..3 {
        discard(&[scratch.join(OC_TRACED)]);
        let mut tracer = Tracer::new(true);
        alloc::set_counting(true);
        let oc = open_coded(kind, OC_TRACED, &scratch, layer_batches, &mut tracer);
        alloc::set_counting(false);
        if let Ok(oc) = oc {
            traced_reps.push((oc, tracer));
        }
    }
    let calib_b = layers::calibration_ns();
    traced_reps.sort_by(|a, b| a.0.wall_s.total_cmp(&b.0.wall_s));
    let median_rep = (traced_reps.len() == 3).then(|| traced_reps.swap_remove(1));
    let (false, Some((traced, tracer))) = (plain.is_empty(), median_rep) else {
        out.attempted += 1;
        out.fail("open-coded path did not run; per-layer rows are missing");
        return;
    };
    dump_trace(ctx, kind.tag(), &tracer, out);

    let rows = tracer.self_times();
    let ns = |row: &str| rows.get(row).map_or(0.0, |r| r.self_ns as f64 / n);
    let allocs = |row: &str| rows.get(row).map_or(0.0, |r| r.self_allocs as f64 / n);
    for call in WIRE_CALLS {
        out.put(
            &format!("serve.wire.{call}_ns_per_event.{sfx}"),
            ns(&format!("serve.wire.{call}")),
        );
    }
    out.put(
        &format!("serve.wire.alloc_per_event.{sfx}"),
        WIRE_CALLS
            .iter()
            .map(|call| allocs(&format!("serve.wire.{call}")))
            .sum(),
    );
    out.put(
        &format!("serve.wire.bytes_per_event.in.{sfx}"),
        traced.bytes_in as f64 / n,
    );
    out.put(
        &format!("serve.wire.bytes_per_event.out.{sfx}"),
        traced.bytes_out as f64 / n,
    );
    out.put(
        "serve.session.cache_reply_ns_per_event",
        ns("serve.session.cache_reply"),
    );
    out.put(
        "disorder.online.observe_ns_per_event",
        ns("disorder.online.observe"),
    );
    out.put("disorder.online.rung_switches", traced.rung_switches as f64);
    out.put(
        "disorder.online.final_latency_ticks",
        traced.final_latency_ticks as f64,
    );
    out.put(
        "engine.pipeline.push_ns_per_event",
        ns("engine.pipeline.push"),
    );
    out.put(
        "engine.pipeline.punctuate_ns_per_event",
        ns("engine.pipeline.punctuate") + ns("engine.pipeline.complete"),
    );
    out.put(
        "engine.pipeline.alloc_per_event",
        allocs("engine.pipeline.push")
            + allocs("engine.pipeline.punctuate")
            + allocs("engine.pipeline.complete"),
    );
    out.put("serve.tenant.drain_ns_per_event", stats::median(&drain_ns));
    out.put("serve.tenant.alloc_per_event", tenant_allocs as f64 / n);
    let in_batches = layer_batches.len() as f64;
    let out_batches = match kind {
        Kind::Durable => counter(
            &solo.registry,
            &format!("{SOLO}.02.reduce_by_key.batches_out"),
        ),
        Kind::Paced => counter(&solo.registry, &format!("{SOLO}.01.select.batches_out")),
    };
    out.put(
        "serve.tenant.out_batches_per_in_batch",
        out_batches / in_batches,
    );
    out.put("serve.client.frames", frames as f64);
    out.put("serve.socket.ping_rtt_us_p50", rtt_us);

    let late = counter(&solo.registry, &format!("{SOLO}.00.sort.late_dropped"));
    out.put("stack.completeness_pct", 100.0 * (n - late) / n);
    out.put(
        "stack.peak_state_bytes",
        solo.registry
            .gauge(&format!("{SOLO}.00.sorter.state_bytes"))
            .high_water() as f64,
    );

    match kind {
        Kind::Durable => {
            out.put(
                "serve.tenant.ingest_durable_ns_per_event",
                stats::median(&ingest_ns),
            );
            out.put(
                "engine.ingress.wal_append_ns_per_event",
                ns("engine.ingress.wal_append"),
            );
            out.put(
                "engine.ingress.wal_alloc_per_event",
                allocs("engine.ingress.wal_append"),
            );
            out.put(
                "engine.ingress.wal_bytes_per_event",
                traced.wal_bytes as f64 / n,
            );
            let syncs = tracer.durations_of("engine.ingress.wal_sync");
            out.put("engine.ingress.wal_fsyncs", syncs.len() as f64);
            out.put(
                "engine.ingress.wal_fsync_ms_p50",
                stats::median(&syncs) / 1e6,
            );
            let written = counter(&traced.registry, &format!("{OC_TRACED}.checkpoint.written"));
            let bytes = counter(&traced.registry, &format!("{OC_TRACED}.checkpoint.bytes"));
            out.put("engine.checkpoint.count", written);
            out.put(
                "engine.checkpoint.bytes_per_snapshot",
                bytes / written.max(1.0),
            );
            // A punctuation that checkpoints minus one that does not.
            out.put(
                "engine.checkpoint.write_ms_p50",
                (stats::median(&traced.checkpoint_ms) - stats::median(&traced.plain_punct_ms))
                    .max(0.0),
            );
            out.put("core.snapshot.crc32c_gbps", layers::crc32c_gbps(0.2));
            put_ungated_timings(out, &reply_ms, &emit_ms, e2e_cpu);
            out.put(
                "stack.disk_write_bytes_per_event",
                (traced.wal_bytes as f64 + bytes) / n,
            );
        }
        Kind::Paced => {
            out.put(
                "serve.tenant.ingest_ns_per_event",
                stats::median(&ingest_ns),
            );
            // One events frame exactly as the wire carries it.
            let mut frame_text = Vec::new();
            let frame = ClientFrame {
                seq: 1,
                ack: 0,
                msg: ClientMsg::Events {
                    batch: layer_batches[0].clone(),
                },
            };
            if write_client_frame(&mut frame_text, WireMode::Ndjson, &frame).is_ok() {
                let text = String::from_utf8_lossy(&frame_text);
                let (parse, write) = layers::json_mbps(text.trim_end(), 0.3);
                out.put("core.json.parse_mbps", parse);
                out.put("core.json.write_mbps", write);
            }
            out.put("serve.client.closed_loop_capacity_eps", 1e9 / e2e_ns);
            paced_probes(ctx, setup, solo_full, out);
        }
    }

    // Rows partition the open-coded path's wall time; add the socket floor
    // each lockstep request pays and hold the total against the socket run.
    let sum_ns = traced.wall_s * 1e9 / n + rtt_us * 1e3 / kind.batch() as f64;
    let plain_wall = stats::median(&plain.iter().map(|oc| oc.wall_s).collect::<Vec<_>>());
    let tenant = stats::median(&tenant_ns);
    let open_tenant = stats::median(
        &plain
            .iter()
            .map(|oc| oc.tenant_s * 1e9 / n)
            .collect::<Vec<_>>(),
    );
    out.put("stack.e2e_ns_per_event", e2e_ns);
    out.put("stack.sum_ns_per_event", sum_ns);
    out.put("stack.unattributed_pct", 100.0 * (e2e_ns - sum_ns) / e2e_ns);
    out.put(
        "stack.reconstruction_gap_pct",
        100.0 * (open_tenant - tenant) / tenant,
    );
    out.put(
        "stack.trace_overhead_pct",
        100.0 * (traced.wall_s - plain_wall) / plain_wall,
    );
    let calib_c = layers::calibration_ns();
    out.put(
        "stack.calibration_ns",
        stats::median(&[calib_a, calib_b, calib_c]),
    );
    discard(&[scratch]);
}

/// Open-loop hygiene rows: the gated rate's generator lag, backlog and
/// deadline misses, plus short probes either side of it.
fn paced_probes(ctx: &Ctx, setup: &Setup, solo_full: &Solo, out: &mut Outcome) {
    let warm = setup.warm_batches;
    let probe = |rate: usize, secs: f64, tag: &str, out: &mut Outcome| {
        let want = ((rate as f64 * secs) as usize / inputs::PACED_BATCH).max(8);
        let upto = (warm + want).min(setup.batches.len());
        let mut run = SocketRun::default();
        let mut client = connect_and_open(&setup.server, Kind::Paced, tag, &mut run)?;
        for batch in &setup.batches[..warm] {
            let reply = client.send(batch.clone());
            run.reply(reply, Instant::now());
        }
        run.emit = EmitTracker::default();
        let mut timed: Vec<Vec<Event<i64>>> = setup.batches[warm..upto].to_vec();
        let clock = SpinClock::start();
        let first_due = clock.now_ns() + 1_000_000;
        let stretch = paced_stretch(
            &mut client,
            &clock,
            &mut timed,
            first_due,
            interval_ns(rate),
            &mut run,
        );
        out.attempted += run.requests;
        out.failed += run.failed;
        for e in &run.errors {
            out.notes.push(format!("FAILED request ({tag}): {e}"));
        }
        Some((run, stretch, upto))
    };

    let share = ctx.seconds * 0.1;
    if let Some((run, _, _)) = probe(inputs::PACED_RATE_EPS / 2, share, "r50k", out) {
        out.put(
            "serve.client.emit_latency_ms_p99.r50k",
            stats::percentile(&run.emit.emit_ms, 99.0).0,
        );
    }
    if let Some((run, _, _)) = probe(inputs::PACED_RATE_EPS * 2, share, "r200k", out) {
        out.put(
            "serve.client.emit_latency_ms_p99.r200k",
            stats::percentile(&run.emit.emit_ms, 99.0).0,
        );
    }
    if let Some((run, stretch, upto)) =
        probe(inputs::PACED_RATE_EPS, ctx.seconds * 0.3, "gated", out)
    {
        out.put(
            "serve.client.generator_lag_ms_p99",
            stats::percentile(&stretch.lag_ms, 99.0).0,
        );
        out.put(
            "serve.client.backlog_batches_max",
            stretch.backlog_max as f64,
        );
        put_ungated_timings(
            out,
            &run.reply_ms,
            &run.emit.emit_ms,
            stretch.cpu_ns as f64 / stretch.events.max(1) as f64,
        );
        // Per batch: finalised within the limit? Events the late policy
        // dropped are never emitted and miss it by definition.
        let timed_events: usize = setup.batches[warm..upto].iter().map(Vec::len).sum();
        let puncts: Vec<Option<Timestamp>> = solo_full.puncts[..upto]
            .iter()
            .map(|p| p.iter().copied().max())
            .collect();
        let admitted_all = oracle::admitted(&setup.batches[..upto], &puncts).len();
        let admitted_warm = oracle::admitted(&setup.batches[..warm], &puncts[..warm]).len();
        let dropped = timed_events - (admitted_all - admitted_warm);
        let late_batches = run
            .emit
            .emit_ms
            .iter()
            .filter(|&&ms| ms > inputs::DEADLINE_MS)
            .count();
        let missed = dropped
            + late_batches * inputs::PACED_BATCH
            + run.failed as usize * inputs::PACED_BATCH;
        out.put(
            "serve.client.deadline_miss_pct",
            100.0 * missed.min(timed_events) as f64 / timed_events.max(1) as f64,
        );
    }
}
