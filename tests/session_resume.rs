//! Exactly-once wire sessions under seeded network chaos: the
//! survivability property of the serving layer.
//!
//! Every run boots a real [`Server`], puts the testkit's [`FaultProxy`]
//! in front of it, and drives a [`SessionClient`] through a seeded plan
//! of connection faults — kills, resets, stalls, partial frame writes,
//! and duplicate frame delivery, all injected at frame boundaries. The
//! client reconnects with seeded backoff, resumes by token, and resends
//! its unacked window; the server deduplicates the replayed prefix from
//! its reply cache.
//!
//! The property, replayed across both framings (NDJSON and binary),
//! both durability modes, and many seeds for **well over 200
//! kill→reconnect→resume cycles** in total: the faulted run's output is
//! **byte-identical** to an unbroken run of the same workload — zero
//! lost events, zero duplicated events, identical punctuation — and the
//! server's `serve.session.*` counters account for every resume.
//!
//! Replay one cell with `IMPATIENCE_PROP_SEED=0x<seed> cargo test
//! sessions_survive_seeded_network_chaos`.

use impatience_core::{Event, Json, TickDuration};
use impatience_engine::{OpSpec, PipelineSpec, ReorderSpec};
use impatience_serve::{
    read_client_frame, read_server_frame, write_client_frame, write_server_frame, Client,
    ClientFrame, ClientMsg, Released, RetryPolicy, ServeError, Server, ServerConfig, ServerFrame,
    ServerMsg, SessionClient, TenantConfig, WireMode,
};
use impatience_testkit::netchaos::{FaultProxy, NetFault};
use impatience_testkit::rng::{Rng, SeedableRng, StdRng};
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "impatience-session-resume-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A seeded disordered workload: `batches` batches of `per_batch`
/// events, shuffled within a bounded disorder window.
fn workload(seed: u64, batches: usize, per_batch: usize) -> Vec<Vec<Event<i64>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0i64;
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|_| {
                    t += 1;
                    let disorder = rng.gen_range(0..8u64) as i64;
                    Event::keyed((t - disorder).into(), (t % 5) as u32, t)
                })
                .collect()
        })
        .collect()
}

/// A checkpoint only for the durable tenant: without a WAL there is no
/// suffix to replay behind a restored slot.
fn tenant(name: &str, durable: bool) -> TenantConfig {
    let mut spec = PipelineSpec::new(name)
        .with_op(OpSpec::Scale { factor: 3 })
        .with_reorder(ReorderSpec::Fixed {
            latency: TickDuration::ticks(16),
        });
    if durable {
        spec = spec.with_checkpoint(4);
    }
    TenantConfig::new(spec).with_durable(durable)
}

/// A kill-heavy seeded fault plan: most connections are severed (kill or
/// abortive reset) after forwarding 2–4 frames, with duplicates and
/// stalls mixed in. Unlike the testkit's generic `seeded_fault_plan`,
/// this plan is weighted so every run exercises many reconnect cycles.
fn severing_plan(seed: u64, n: usize) -> Vec<NetFault> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_11a5);
    (0..n)
        .map(|i| {
            let after_frames = 2 + rng.gen_range(0..3u64) as usize;
            // The first connection's fault must sever: `Duplicate` is
            // transparent after the replay, so a plan that leads with it
            // would let the first connection run to completion and the
            // cell would exercise zero reconnect cycles (visible when
            // replaying an arbitrary seed via IMPATIENCE_PROP_SEED).
            let draw = match rng.gen_range(0..6u64) {
                1 if i == 0 => 5,
                d => d,
            };
            match draw {
                0 => NetFault::Reset { after_frames },
                1 => NetFault::Duplicate {
                    frame: after_frames,
                },
                2 => NetFault::Stall {
                    after_frames,
                    millis: 5,
                },
                _ => NetFault::Kill { after_frames },
            }
        })
        .collect()
}

fn policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_reconnects: 12,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(60),
        seed,
        io_deadline: Duration::from_secs(5),
    }
}

/// Canonical byte form of a run's output, for byte-identical diffing.
fn canonical(out: &Released) -> String {
    use core::fmt::Write as _;
    let mut s = String::new();
    for e in &out.events {
        let _ = writeln!(
            s,
            "{} {} {} {}",
            e.sync_time.ticks(),
            e.other_time.ticks(),
            e.key,
            e.payload
        );
    }
    let _ = writeln!(
        s,
        "puncts {:?} completed {}",
        out.puncts.iter().map(|p| p.ticks()).collect::<Vec<_>>(),
        out.completed
    );
    s
}

fn drive(
    addr: std::net::SocketAddr,
    mode: WireMode,
    config: TenantConfig,
    batches: &[Vec<Event<i64>>],
    seed: u64,
) -> (Released, impatience_serve::SessionStats) {
    let mut client = SessionClient::open(addr, mode, config, policy(seed)).expect("open session");
    let mut all = Released::default();
    let fold = |r: Released, all: &mut Released| {
        all.events.extend(r.events);
        all.puncts.extend(r.puncts);
        all.completed |= r.completed;
    };
    for batch in batches {
        let r = client.send(batch.clone()).expect("send batch");
        fold(r, &mut all);
    }
    let r = client.complete().expect("complete");
    fold(r, &mut all);
    let stats = client.stats();
    (all, stats)
}

fn counter(metrics: &Json, name: &str) -> i64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_i64)
        .unwrap_or(0)
}

/// A bare NDJSON connection driven one frame at a time, for sequences no
/// well-behaved client sends (withheld acks, replays of acked frames).
/// Returns the request → reply roundtrip.
fn raw_connection(server: &Server) -> impl FnMut(&ClientFrame) -> ServerMsg {
    let mode = WireMode::Ndjson;
    let stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    move |frame| {
        write_client_frame(&mut writer, mode, frame).expect("write frame");
        read_server_frame(&mut reader, mode)
            .expect("read frame")
            .expect("server closed the connection")
            .msg
    }
}

fn open_frame(config: &TenantConfig) -> ClientFrame {
    ClientFrame::unsequenced(ClientMsg::Open {
        config: config.to_json(),
        resume: None,
        resumable: false,
    })
}

#[test]
fn sessions_survive_seeded_network_chaos() {
    let seeds: Vec<u64> = match std::env::var("IMPATIENCE_PROP_SEED") {
        Ok(s) => {
            let s = s.trim_start_matches("0x").to_string();
            vec![u64::from_str_radix(&s, 16).expect("hex seed")]
        }
        Err(_) => (1..=7u64).map(|i| 0xc4a0_5e55 ^ (i * 0x9e37)).collect(),
    };

    let mut total_cycles = 0u64;
    let mut total_duplicated_frames = 0u64;

    for &seed in &seeds {
        for (mode, mode_tag) in [(WireMode::Ndjson, "nd"), (WireMode::Binary, "bin")] {
            for durable in [false, true] {
                let tag = format!("{seed:x}-{mode_tag}-{durable}");
                let root = scratch(&tag);
                let mut server = Server::start(
                    ServerConfig::new(&root)
                        .with_park_timeout(Duration::from_secs(20))
                        .with_idle_deadline(Duration::from_secs(20))
                        .with_read_deadline(Duration::from_secs(3)),
                )
                .expect("server");

                let batches = workload(seed ^ 0xbeef, 30, 16);

                // Unbroken reference run: same workload, direct socket.
                let (reference, ref_stats) = drive(
                    server.addr(),
                    mode,
                    tenant(&format!("ref-{tag}"), durable),
                    &batches,
                    seed,
                );
                assert_eq!(ref_stats.reconnects, 0, "reference run must not reconnect");
                assert!(reference.completed, "reference run must complete");

                // Chaos run: same workload through the fault proxy.
                let plan = severing_plan(seed, 24);
                let mut proxy = FaultProxy::start(server.addr(), plan).expect("proxy");
                let (chaotic, stats) = drive(
                    proxy.addr(),
                    mode,
                    tenant(&format!("chaos-{tag}"), durable),
                    &batches,
                    seed,
                );

                assert_eq!(
                    canonical(&chaotic),
                    canonical(&reference),
                    "[{tag}] chaos output must be byte-identical to the unbroken run \
                     ({} vs {} events)",
                    chaotic.events.len(),
                    reference.events.len(),
                );

                let metrics = server.metrics();
                let resumes = counter(&metrics, "serve.session.resumes");
                assert!(
                    resumes as u64 >= stats.reconnects,
                    "[{tag}] server saw {resumes} resumes, client made {} reconnects",
                    stats.reconnects
                );
                total_cycles += stats.reconnects;
                total_duplicated_frames += proxy
                    .stats()
                    .duplicated
                    .load(std::sync::atomic::Ordering::Relaxed);

                proxy.stop();
                server.shutdown();
                let _ = std::fs::remove_dir_all(&root);
            }
        }
    }

    // The acceptance bar: across the matrix this suite must exercise a
    // substantial number of kill→reconnect→resume cycles (≥200 for the
    // full default seed set; a single replayed seed proportionally
    // fewer).
    let floor = if seeds.len() >= 7 { 200 } else { 4 };
    assert!(
        total_cycles >= floor,
        "only {total_cycles} reconnect cycles across the matrix (need >= {floor})"
    );
    assert!(
        total_duplicated_frames > 0,
        "the seeded plans should have exercised duplicate frame delivery"
    );
}

/// Duplicate frame delivery alone (no connection loss) must not
/// duplicate output: the server answers the replayed sequence from its
/// reply cache and the client discards the duplicate reply.
#[test]
fn duplicated_frames_do_not_duplicate_output() {
    use impatience_testkit::netchaos::NetFault;
    let root = scratch("dup-only");
    let mut server = Server::start(ServerConfig::new(&root)).expect("server");
    let batches = workload(0xd0d0, 6, 16);

    let (reference, _) = drive(
        server.addr(),
        WireMode::Binary,
        tenant("dup-ref", false),
        &batches,
        1,
    );

    let plan = vec![
        NetFault::Duplicate { frame: 1 },
        NetFault::Duplicate { frame: 3 },
    ];
    let mut proxy = FaultProxy::start(server.addr(), plan).expect("proxy");
    let (doubled, stats) = drive(
        proxy.addr(),
        WireMode::Binary,
        tenant("dup-chaos", false),
        &batches,
        1,
    );
    assert_eq!(canonical(&doubled), canonical(&reference));
    assert!(
        stats.duplicate_replies > 0,
        "the duplicated frame should have produced a discarded duplicate reply"
    );
    let metrics = server.metrics();
    assert!(
        counter(&metrics, "serve.session.retries")
            + counter(&metrics, "serve.session.duplicates_dropped")
            > 0,
        "server-side dedup should have fired"
    );
    proxy.stop();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A durable session's applied high-water must survive a full **server
/// restart** — not just a reconnect. `shutdown` drains gracefully
/// (punctuate, force a checkpoint, sync the WAL), so the restarted
/// server replays (almost) no WAL suffix; the reported `durable_seq`
/// must still come back complete. A client following the resume
/// contract trims its send window to `durable_seq` — if the server
/// under-reported, the client's resends would be re-applied as fresh
/// sequences, duplicating events.
#[test]
fn durable_seq_survives_a_server_restart() {
    let root = scratch("server-restart");
    let config = tenant("restart-durable", true);
    let batches = workload(0xabcd, 6, 16);

    let mut server = Server::start(ServerConfig::new(&root)).expect("server");
    let mut client = Client::connect(server.addr(), WireMode::Ndjson).expect("connect");
    client.open(&config).expect("open");
    for batch in &batches {
        client.send(batch.clone()).expect("send");
    }
    // Shut down with the session live: the drain path checkpoints and
    // syncs every tenant, covering all six sequenced records.
    server.shutdown();
    drop(client);

    let mut server = Server::start(ServerConfig::new(&root)).expect("restarted server");
    let mut client = Client::connect(server.addr(), WireMode::Ndjson).expect("reconnect");
    let info = client.open(&config).expect("re-open");
    let durable = info
        .get("session")
        .and_then(|s| s.get("durable_seq"))
        .and_then(Json::as_i64)
        .expect("durable_seq");
    assert_eq!(
        durable as usize,
        batches.len(),
        "the restarted server must report the WAL-durable high-water, not 0/stale: {info}"
    );

    // Frames at or below the high-water must be deduplicated, never
    // re-applied (the fresh client's counter starts at 1).
    let r = client
        .send(batches[0].clone())
        .expect("resend below high-water");
    assert!(
        r.events.is_empty(),
        "an already-durable frame was re-applied after restart ({} events)",
        r.events.len()
    );
    let metrics = server.metrics();
    assert!(
        counter(&metrics, "serve.session.duplicates_dropped") > 0,
        "server-side dedup should have dropped the replayed frame"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Resume tokens are bearer credentials: they must not embed the tenant
/// name or any enumerable structure, and must be long random hex.
#[test]
fn resume_tokens_are_opaque_and_unpredictable() {
    let root = scratch("tokens");
    let mut server = Server::start(ServerConfig::new(&root)).expect("server");
    let token_of = |info: &Json| {
        info.get("session")
            .and_then(|s| s.get("token"))
            .and_then(Json::as_str)
            .expect("token")
            .to_string()
    };
    let mut c1 = Client::connect(server.addr(), WireMode::Ndjson).expect("c1");
    let t1 = token_of(
        &c1.open_resumable(&tenant("tok-alpha", false))
            .expect("open"),
    );
    let mut c2 = Client::connect(server.addr(), WireMode::Ndjson).expect("c2");
    let t2 = token_of(&c2.open_resumable(&tenant("tok-beta", false)).expect("open"));

    assert_ne!(t1, t2);
    for (token, name) in [(&t1, "tok-alpha"), (&t2, "tok-beta")] {
        assert!(
            token.len() >= 32,
            "token too short to be unguessable: {token:?}"
        );
        assert!(
            token.chars().all(|c| c.is_ascii_hexdigit()),
            "token leaks structure: {token:?}"
        );
        assert!(
            !token.contains(name),
            "token embeds the tenant name: {token:?}"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Acks carried on heartbeat frames must free the server's reply cache.
/// An idle client holding its session alive with pings (acking
/// everything it has read) must never trip the slow-consumer eviction.
#[test]
fn pings_advance_the_ack_horizon_and_free_the_reply_cache() {
    let root = scratch("ping-ack");
    let mut server = Server::start(
        // Small enough that 17 unacked empty-batch replies (64 bytes
        // each) would overflow it; pings acking the first 12 keep the
        // cache bounded.
        ServerConfig::new(&root).with_reply_cache_bytes(1024),
    )
    .expect("server");
    let mut roundtrip = raw_connection(&server);

    let open = roundtrip(&open_frame(&tenant("ping-ack", false)));
    assert!(matches!(open, ServerMsg::Ok { .. }), "{open:?}");

    let mut seq = 0u64;
    let mut events = |roundtrip: &mut dyn FnMut(&ClientFrame) -> ServerMsg, n: usize| {
        for _ in 0..n {
            seq += 1;
            let reply = roundtrip(&ClientFrame {
                seq,
                // Never ack via data frames: in this scenario all the
                // acking happens on heartbeats.
                ack: 0,
                msg: ClientMsg::Events { batch: vec![] },
            });
            assert!(
                matches!(reply, ServerMsg::Out { .. }),
                "frame {seq} was not answered with output (slow-consumer \
                 eviction despite acked replies?): {reply:?}"
            );
        }
    };
    events(&mut roundtrip, 12);
    let pong = roundtrip(&ClientFrame {
        seq: 0,
        ack: 12,
        msg: ClientMsg::Ping { nonce: 7 },
    });
    assert!(matches!(pong, ServerMsg::Pong { nonce: 7 }), "{pong:?}");
    events(&mut roundtrip, 12);

    let metrics = server.metrics();
    assert!(counter(&metrics, "serve.session.heartbeats") >= 1);
    assert_eq!(
        counter(&metrics, "serve.session.slow_client_evictions"),
        0,
        "the ping's ack must have freed the reply cache"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The other side of the test above: a client that never acks overflows
/// the byte-bounded reply cache and is evicted with the typed error.
#[test]
fn an_unacking_client_is_evicted_as_a_typed_slow_consumer() {
    let root = scratch("slow-consumer");
    let mut server =
        Server::start(ServerConfig::new(&root).with_reply_cache_bytes(4096)).expect("server");
    let mut roundtrip = raw_connection(&server);
    let config = TenantConfig::new(
        PipelineSpec::new("slow-consumer")
            .with_reorder(ReorderSpec::Fixed {
                latency: TickDuration::ticks(1),
            })
            .with_op(OpSpec::SumByKey),
    );
    let open = roundtrip(&open_frame(&config));
    assert!(matches!(open, ServerMsg::Ok { .. }), "{open:?}");

    let mut t = 0i64;
    let evicted = (1..=64u64).any(|seq| {
        let batch: Vec<Event<i64>> = (0..64)
            .map(|_| {
                t += 1;
                Event::keyed(t.into(), (t % 8) as u32, t)
            })
            .collect();
        let reply = roundtrip(&ClientFrame {
            seq,
            ack: 0, // never acknowledge: the reply cache can only grow
            msg: ClientMsg::Events { batch },
        });
        match reply {
            ServerMsg::Out { .. } => false,
            ServerMsg::Error {
                error: ServeError::SlowConsumer { .. },
            } => true,
            other => panic!("frame {seq} answered {other:?}"),
        }
    });
    assert!(evicted, "the reply cache never overflowed");
    assert!(counter(&server.metrics(), "serve.session.slow_client_evictions") > 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The two server-side dedup paths, told apart: a sequenced frame replayed
/// *before* its ack is answered from the reply cache (`retries`), the same
/// frame replayed *after* its ack — the cache entry is gone — is dropped
/// as a stale duplicate (`duplicates_dropped`). A lossy middlebox sends
/// both; a well-behaved client neither.
#[test]
fn pre_ack_replays_hit_the_reply_cache_and_post_ack_replays_are_dropped() {
    let root = scratch("dedup-paths");
    let mut server = Server::start(ServerConfig::new(&root)).expect("server");
    let mut roundtrip = raw_connection(&server);
    let config =
        TenantConfig::new(PipelineSpec::new("dedup-exercise").with_op(OpSpec::Scale { factor: 2 }));
    let open = roundtrip(&open_frame(&config));
    assert!(matches!(open, ServerMsg::Ok { .. }), "{open:?}");

    let events = ClientFrame {
        seq: 1,
        ack: 0,
        msg: ClientMsg::Events {
            batch: vec![Event::keyed(10.into(), 1, 7)],
        },
    };
    let fresh = roundtrip(&events);
    assert!(matches!(fresh, ServerMsg::Out { .. }), "{fresh:?}");
    assert_eq!(roundtrip(&events), fresh, "pre-ack replay");
    assert!(counter(&server.metrics(), "serve.session.retries") > 0);
    assert_eq!(
        counter(&server.metrics(), "serve.session.duplicates_dropped"),
        0
    );

    match roundtrip(&ClientFrame { ack: 1, ..events }) {
        ServerMsg::Out { batch, .. } => {
            assert!(batch.is_empty(), "post-ack duplicate produced {batch:?}")
        }
        other => panic!("post-ack duplicate answered {other:?}"),
    }
    assert!(counter(&server.metrics(), "serve.session.duplicates_dropped") > 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// One operation gets a bounded number of reconnect cycles. The fake
/// server here is byzantine: it completes the open handshake, answers
/// each data frame with an unsequenced `Pong` (which never settles the
/// send window), then drops the connection — so every attach looks
/// healthy and every subsequent read fails. Without a per-operation
/// cycle budget the client reconnects forever, re-entering
/// `ensure_connected` with a fresh attempt budget each time.
#[test]
fn reconnect_cycles_are_bounded_per_operation() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.set_nonblocking(true).expect("nonblocking");
    let addr = listener.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let stop_accept = Arc::clone(&stop);
    let flapper = std::thread::spawn(move || {
        let ok_info = Json::parse(
            r#"{"tenant": "flap", "resumed": false,
                "session": {"token": "flap-token", "durable_seq": 0}}"#,
        )
        .expect("info json");
        while !stop_accept.load(Ordering::Relaxed) {
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Err(_) => break,
            };
            let _ = stream.set_nonblocking(false);
            let mut writer = match stream.try_clone() {
                Ok(w) => w,
                Err(_) => continue,
            };
            let mut reader = std::io::BufReader::new(stream);
            let Ok(Some(_open)) = read_client_frame(&mut reader, WireMode::Ndjson) else {
                continue;
            };
            let _ = write_server_frame(
                &mut writer,
                WireMode::Ndjson,
                &ServerFrame::unsequenced(ServerMsg::Ok {
                    info: ok_info.clone(),
                }),
            );
            if let Ok(Some(_data)) = read_client_frame(&mut reader, WireMode::Ndjson) {
                let _ = write_server_frame(
                    &mut writer,
                    WireMode::Ndjson,
                    &ServerFrame::unsequenced(ServerMsg::Pong { nonce: 0 }),
                );
            }
            // Dropping the streams severs the connection.
        }
    });

    let policy = RetryPolicy {
        max_reconnects: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        seed: 7,
        io_deadline: Duration::from_secs(2),
    };
    let mut client = SessionClient::open(addr, WireMode::Ndjson, tenant("flap", false), policy)
        .expect("open")
        .with_window(1);
    let err = client
        .send(workload(1, 1, 4).remove(0))
        .expect_err("the client must give up instead of reconnecting forever");
    assert!(
        matches!(
            err,
            ServeError::Session {
                retryable: false,
                ..
            }
        ),
        "exhaustion must be a terminal session error: {err:?}"
    );
    stop.store(true, Ordering::Relaxed);
    flapper.join().expect("flapper thread");
}
