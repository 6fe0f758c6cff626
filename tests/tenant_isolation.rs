//! Multi-tenant isolation under seeded chaos: the service property.
//!
//! Every run boots a real [`Server`] on an ephemeral loopback port,
//! connects four tenants over real sockets (alternating NDJSON and
//! binary framing), and injects exactly one fault into one of them:
//!
//! * **panic** — the tenant's pipeline carries a `PanicOn` operator whose
//!   poison payload is planted in its workload; alternate panic runs keep
//!   the default hardened spec (the fence delivers the panic to the
//!   pipeline's sink) or turn hardening off (the panic unwinds the push);
//! * **budget breach** — the tenant declares a memory budget the
//!   service-wide admission meter cannot cover;
//! * **disk fault** — the tenant's directory is pre-blocked by a plain
//!   file, so its runtime cannot create `<root>/<name>`.
//!
//! The property, replayed across 270 seeded runs: the faulted tenant
//! receives a **typed** error on **its own connection only**, every
//! healthy tenant's output is **byte-identical** to a solo in-process run
//! of the same spec over the same workload, and the server keeps accepting
//! new tenants afterwards.
//!
//! Replay one run with `IMPATIENCE_PROP_SEED=0x<seed> cargo test
//! isolation_under_seeded_chaos`.

use impatience_core::{Event, Json, TickDuration, Timestamp};
use impatience_engine::{OpSpec, PipelineSpec, ReorderSpec};
use impatience_serve::{
    Client, Released, ServeError, Server, ServerConfig, TenantConfig, TenantRuntime, WireMode,
};
use impatience_testkit::rng::{Rng, SeedableRng, StdRng};
use std::path::PathBuf;

const RUNS: u64 = 270;
const TENANTS: usize = 4;
const BATCHES: usize = 8;
const BATCH_LEN: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Panic,
    BudgetBreach,
    Disk,
}

fn scratch(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "serve-isolation-{tag}-{seed:x}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A mostly-advancing stream with seeded disorder, split into batches.
fn workload(rng: &mut StdRng) -> Vec<Vec<Event<i64>>> {
    workload_with(rng, 6, 0.15, 40, 8)
}

/// A mostly-*ordered* stream: stragglers at most 6 ticks late, inside rung
/// 8's tolerance at the 0.99 quality target and far inside rung 64's, so
/// an adaptive tenant on a {1, 8, 64} ladder must step down.
fn mostly_ordered(rng: &mut StdRng) -> Vec<Vec<Event<i64>>> {
    workload_with(rng, 4, 0.1, 7, 16)
}

/// Advances under `step` ticks per event; with probability `straggle` an
/// event is under `late` ticks late; keys under `keys`.
fn workload_with(
    rng: &mut StdRng,
    step: i64,
    straggle: f64,
    late: i64,
    keys: u32,
) -> Vec<Vec<Event<i64>>> {
    let mut t = 1_000i64;
    (0..BATCHES)
        .map(|_| {
            (0..BATCH_LEN)
                .map(|_| {
                    t += rng.gen_range(0..step);
                    let sync = if rng.gen_bool(straggle) {
                        t - rng.gen_range(1..late)
                    } else {
                        t
                    };
                    Event::keyed(
                        Timestamp::new(sync.max(0)),
                        rng.gen_range(0..keys),
                        rng.gen_range(0..1_000i64),
                    )
                })
                .collect()
        })
        .collect()
}

/// Four deliberately different tenant shapes: fixed-latency filter,
/// adaptive keyed sums, durable checkpointed scaling, traced top-k.
fn tenant_spec(i: usize, run: u64) -> TenantConfig {
    let name = format!("t{i}-r{run}");
    match i {
        0 => TenantConfig::new(
            PipelineSpec::new(name)
                .with_op(OpSpec::FilterMin { min: 200 })
                .with_reorder(ReorderSpec::Fixed {
                    latency: TickDuration::ticks(16),
                }),
        ),
        1 => TenantConfig::new(
            PipelineSpec::new(name)
                .with_reorder(ReorderSpec::Adaptive {
                    ladder: vec![
                        TickDuration::ticks(1),
                        TickDuration::ticks(8),
                        TickDuration::ticks(64),
                    ],
                    quality: 0.99,
                    window: 64,
                    hold: 2,
                })
                .with_op(OpSpec::SumByKey),
        ),
        2 => TenantConfig::new(
            PipelineSpec::new(name)
                .with_checkpoint(4)
                .with_op(OpSpec::Scale { factor: 3 })
                .with_reorder(ReorderSpec::Fixed {
                    latency: TickDuration::ticks(8),
                }),
        )
        .with_durable(true),
        _ => TenantConfig::new(
            PipelineSpec::new(name)
                .with_op(OpSpec::TumblingWindow {
                    size: TickDuration::ticks(50),
                })
                .with_op(OpSpec::TopK { k: 3 })
                .with_reorder(ReorderSpec::Fixed {
                    latency: TickDuration::ticks(32),
                }),
        ),
    }
}

/// The reference: the same config over the same batches, in-process,
/// no sockets and no neighbours.
fn run_solo(config: TenantConfig, batches: &[Vec<Event<i64>>], seed: u64) -> Released {
    let root = scratch("solo", seed ^ fxhash(config.name()));
    std::fs::create_dir_all(&root).expect("solo root");
    let mut rt = TenantRuntime::start(config, &root).expect("solo start");
    let mut total = Released::default();
    for batch in batches {
        rt.ingest(batch.clone()).expect("solo ingest");
        merge(&mut total, rt.drain());
    }
    rt.complete().expect("solo complete");
    merge(&mut total, rt.drain());
    let _ = std::fs::remove_dir_all(&root);
    total
}

fn merge(into: &mut Released, part: Released) {
    into.events.extend(part.events);
    into.puncts.extend(part.puncts);
    into.completed |= part.completed;
}

fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn mode_of(i: usize) -> WireMode {
    if i.is_multiple_of(2) {
        WireMode::Ndjson
    } else {
        WireMode::Binary
    }
}

/// Whether a panic run keeps the default hardened spec: consecutive panic
/// seeds are three apart, so the two arms alternate.
fn hardened_arm(seed: u64) -> bool {
    (seed / 3).is_multiple_of(2)
}

/// One seeded chaos run; returns the faulted tenant's typed error for
/// the caller's bookkeeping.
fn chaos_run(seed: u64) -> ServeError {
    let mut rng = StdRng::seed_from_u64(seed);
    let faulted = rng.gen_range(0..TENANTS);
    let fault = match seed % 3 {
        0 => Fault::Panic,
        1 => Fault::BudgetBreach,
        _ => Fault::Disk,
    };

    let mut configs: Vec<TenantConfig> = (0..TENANTS).map(|i| tenant_spec(i, seed)).collect();
    let batches: Vec<Vec<Vec<Event<i64>>>> = (0..TENANTS).map(|_| workload(&mut rng)).collect();

    // Solo baselines for the healthy tenants, before any service exists.
    let expected: Vec<Option<Released>> = (0..TENANTS)
        .map(|i| (i != faulted).then(|| run_solo(configs[i].clone(), &batches[i], seed)))
        .collect();

    // Arm the fault.
    let root = scratch("svc", seed);
    let mut server_config = ServerConfig::new(&root);
    match fault {
        Fault::Panic => {
            // Plant a poison payload mid-stream and panic on it, fenced by
            // the hardened wrapper or, with it off, unwinding the push.
            let poison = batches[faulted][BATCHES / 2][BATCH_LEN / 2].payload;
            let spec = &mut configs[faulted].pipeline;
            spec.ops.insert(0, OpSpec::PanicOn { value: poison });
            spec.hardened = hardened_arm(seed);
        }
        Fault::BudgetBreach => {
            server_config = server_config.with_memory_budget(16 << 20);
            for (i, c) in configs.iter_mut().enumerate() {
                c.memory_budget = Some(if i == faulted { 1 << 30 } else { 1 << 20 });
            }
        }
        Fault::Disk => {
            std::fs::create_dir_all(&root).expect("service root");
            std::fs::write(root.join(configs[faulted].name()), b"blocked").expect("block dir");
        }
    }

    let mut server = Server::start(server_config).expect("server start");
    let addr = server.addr();

    let mut clients: Vec<Option<Client>> = (0..TENANTS)
        .map(|i| Some(Client::connect(addr, mode_of(i)).expect("connect")))
        .collect();

    // Open all four; under budget/disk faults the faulted open fails.
    let mut fault_error: Option<ServeError> = None;
    for (i, slot) in clients.iter_mut().enumerate() {
        let result = slot.as_mut().expect("client").open(&configs[i]);
        match result {
            Ok(_) => {}
            Err(e) if i == faulted && fault != Fault::Panic => {
                match (&fault, &e) {
                    (Fault::BudgetBreach, ServeError::Admission { .. }) => {}
                    (Fault::Disk, ServeError::Io { .. }) => {}
                    other => panic!("seed {seed:#x}: wrong fault error {other:?}"),
                }
                fault_error = Some(e);
                *slot = None;
            }
            Err(e) => panic!("seed {seed:#x}: tenant {i} failed to open: {e}"),
        }
    }

    // Round-robin the batches so tenants interleave on the service.
    let mut got: Vec<Released> = (0..TENANTS).map(|_| Released::default()).collect();
    #[allow(clippy::needless_range_loop)]
    for b in 0..BATCHES {
        for i in 0..TENANTS {
            let Some(client) = clients[i].as_mut() else {
                continue;
            };
            match client.send(batches[i][b].clone()) {
                Ok(part) => merge(&mut got[i], part),
                Err(e) if i == faulted => {
                    assert!(
                        matches!(e, ServeError::Stream(_) | ServeError::TenantFailed { .. }),
                        "seed {seed:#x}: untyped fault {e:?}"
                    );
                    fault_error.get_or_insert(e);
                    clients[i] = None;
                }
                Err(e) => panic!("seed {seed:#x}: healthy tenant {i} failed: {e}"),
            }
        }
    }
    for i in 0..TENANTS {
        let Some(client) = clients[i].as_mut() else {
            continue;
        };
        match client.complete() {
            Ok(part) => merge(&mut got[i], part),
            Err(e) if i == faulted => {
                fault_error.get_or_insert(e);
                clients[i] = None;
            }
            Err(e) => panic!("seed {seed:#x}: healthy complete {i} failed: {e}"),
        }
    }

    // Healthy tenants are byte-identical to their solo runs.
    for i in 0..TENANTS {
        if i == faulted {
            continue;
        }
        let want = expected[i].as_ref().expect("baseline");
        assert_eq!(
            got[i], *want,
            "seed {seed:#x}: tenant {i} diverged from its solo run"
        );
        assert!(got[i].completed, "seed {seed:#x}: tenant {i} not completed");
    }
    let fault_error = fault_error.unwrap_or_else(|| {
        panic!("seed {seed:#x}: fault {fault:?} on tenant {faulted} never surfaced")
    });

    // The service survived: a brand-new tenant opens and runs clean.
    let fresh = TenantConfig::new(
        PipelineSpec::new(format!("fresh-r{seed}")).with_op(OpSpec::Scale { factor: 2 }),
    );
    let fresh_batches = workload(&mut rng);
    let want = run_solo(fresh.clone(), &fresh_batches, seed ^ 0xF5);
    let mut client = Client::connect(addr, mode_of(faulted)).expect("fresh connect");
    client.open(&fresh).expect("fresh open");
    let mut fresh_got = Released::default();
    for batch in &fresh_batches {
        merge(
            &mut fresh_got,
            client.send(batch.clone()).expect("fresh send"),
        );
    }
    merge(&mut fresh_got, client.complete().expect("fresh complete"));
    assert_eq!(
        fresh_got, want,
        "seed {seed:#x}: post-fault tenant diverged"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    fault_error
}

#[test]
fn isolation_under_seeded_chaos() {
    let base = std::env::var("IMPATIENCE_PROP_SEED").ok().and_then(|s| {
        let s = s.trim().trim_start_matches("0x");
        u64::from_str_radix(s, 16).ok()
    });
    if let Some(seed) = base {
        let err = chaos_run(seed);
        eprintln!("seed {seed:#x}: fault surfaced as {err}");
        return;
    }
    // Panics split by arm: [unhardened, hardened].
    let (mut panics, mut budgets, mut disks) = ([0u32; 2], 0u32, 0u32);
    for run in 0..RUNS {
        let seed = 0xC0FF_EE00_0000_0000 | run;
        match chaos_run(seed) {
            ServeError::Stream(_) | ServeError::TenantFailed { .. } => {
                panics[hardened_arm(seed) as usize] += 1
            }
            ServeError::Admission { .. } => budgets += 1,
            ServeError::Io { .. } => disks += 1,
            other => panic!("seed {seed:#x}: unexpected fault class {other:?}"),
        }
    }
    // All three fault classes, and both panic arms, actually exercised.
    assert!(
        panics[0] > 0 && panics[1] > 0 && budgets > 0 && disks > 0,
        "{panics:?}/{budgets}/{disks}"
    );
}

/// With no fault armed, four socket tenants each match their solo runs —
/// the zero-chaos control for the property above — under either framing,
/// and the adaptive tenant, fed a mostly-ordered stream, reports a reorder
/// latency that has stepped down from the rung it started at.
#[test]
fn concurrent_tenants_match_solo_runs() {
    const ADAPTIVE: usize = 1;
    let seed = 0x000D_15C0;
    let mut rng = StdRng::seed_from_u64(seed);
    // Every tenant speaks NDJSON in one round and binary in the other.
    for flip in 0..2 {
        let configs: Vec<TenantConfig> = (0..TENANTS)
            .map(|i| tenant_spec(i, 999 - flip as u64))
            .collect();
        let batches: Vec<Vec<Vec<Event<i64>>>> = (0..TENANTS)
            .map(|i| match i {
                ADAPTIVE => mostly_ordered(&mut rng),
                _ => workload(&mut rng),
            })
            .collect();
        let expected: Vec<Released> = (0..TENANTS)
            .map(|i| run_solo(configs[i].clone(), &batches[i], seed + i as u64))
            .collect();

        let root = scratch("ctrl", seed);
        let mut server = Server::start(ServerConfig::new(&root)).expect("server");
        let addr = server.addr();

        // Truly concurrent: each tenant drives its own connection from its
        // own thread.
        let results: Vec<(Released, Json)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..TENANTS)
                .map(|i| {
                    let config = configs[i].clone();
                    let batches = batches[i].clone();
                    scope.spawn(move || {
                        let mut client = Client::connect(addr, mode_of(i + flip)).expect("connect");
                        client.open(&config).expect("open");
                        let mut got = Released::default();
                        for batch in batches {
                            merge(&mut got, client.send(batch).expect("send"));
                        }
                        merge(&mut got, client.complete().expect("complete"));
                        (got, client.metrics().expect("metrics"))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });

        for i in 0..TENANTS {
            assert_eq!(results[i].0, expected[i], "tenant {i} diverged");
        }
        let latency = results[ADAPTIVE]
            .1
            .get("metrics")
            .and_then(|m| m.get("gauges"))
            .and_then(|g| g.get("serve.adaptive.latency"))
            .expect("adaptive gauges in the tenant's snapshot");
        let read = |field| latency.get(field).and_then(Json::as_i64).expect(field);
        let (value, high_water) = (read("value"), read("high_water"));
        assert!(
            high_water > 0 && value < high_water,
            "adaptive latency {value} never stepped down from {high_water}"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
