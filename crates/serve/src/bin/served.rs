//! `served` — the multi-tenant streaming service.
//!
//! ```sh
//! served --root target/serve [--addr 127.0.0.1:7171] \
//!        [--max-tenants 64] [--memory-budget BYTES]
//! served --demo    # self-contained two-tenant walkthrough
//! ```
//!
//! In serving mode the process binds the address, prints it, and serves
//! until killed. `--demo` starts a server on an ephemeral port, drives
//! two tenants over real sockets — one NDJSON, one binary, one of them
//! durable and adaptive — and prints what each side saw (the same
//! walkthrough as README "Running the service").

use impatience_core::{Event, TickDuration, Timestamp, Validate};
use impatience_engine::{OpSpec, PipelineSpec, ReorderSpec};
use impatience_serve::{Client, Server, ServerConfig, TenantConfig, WireMode};

fn usage() -> ! {
    eprintln!(
        "usage: served --root DIR [--addr HOST:PORT] [--max-tenants N] \
         [--memory-budget BYTES] | served --demo"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig::default();
    let mut demo = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--demo" => demo = true,
            "--root" => config.root = value().into(),
            "--addr" => config.addr = value(),
            "--max-tenants" => {
                config.max_tenants = value().parse().unwrap_or_else(|_| usage());
            }
            "--memory-budget" => {
                config.memory_budget = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            _ => usage(),
        }
    }

    if demo {
        run_demo();
        return;
    }
    if let Err(e) = config.validate() {
        eprintln!("served: {e}");
        std::process::exit(2);
    }
    match Server::start(config) {
        Ok(server) => {
            println!("served: listening on {}", server.addr());
            // Serve until killed; the accept loop runs on its own thread.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Err(e) => {
            eprintln!("served: {e}");
            std::process::exit(1);
        }
    }
}

/// The two-tenant walkthrough from README "Running the service".
fn run_demo() {
    let root = std::env::temp_dir().join(format!("served-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut server = Server::start(ServerConfig::new(&root)).expect("start server");
    println!("demo server on {}", server.addr());

    // Tenant "alerts": NDJSON framing, fixed reorder latency, a filter.
    let alerts = TenantConfig::new(
        PipelineSpec::new("alerts")
            .with_op(OpSpec::FilterMin { min: 500 })
            .with_reorder(ReorderSpec::Fixed {
                latency: TickDuration::ticks(16),
            }),
    );
    // Tenant "totals": binary framing, durable, adaptive latency,
    // keyed sums over tumbling windows.
    let totals = TenantConfig::new(
        PipelineSpec::new("totals")
            .with_checkpoint(8)
            .with_reorder(ReorderSpec::Adaptive {
                ladder: vec![
                    TickDuration::ticks(1),
                    TickDuration::ticks(16),
                    TickDuration::ticks(128),
                ],
                quality: 0.999,
                window: 256,
                hold: 2,
            })
            .with_op(OpSpec::TumblingWindow {
                size: TickDuration::ticks(100),
            })
            .with_op(OpSpec::SumByKey),
    )
    .with_durable(true);

    let mut a = Client::connect(server.addr(), WireMode::Ndjson).expect("connect alerts");
    let mut b = Client::connect(server.addr(), WireMode::Binary).expect("connect totals");
    // The open reply says what each spec became: which ops the planner
    // runs below the sort.
    for (client, config) in [(&mut a, &alerts), (&mut b, &totals)] {
        let info = client.open(config).expect("open tenant");
        println!("{} opened: {info}", config.name());
    }

    let mut a_events = 0usize;
    let mut b_events = 0usize;
    for step in 0..10i64 {
        let base = step * 100;
        // Mild disorder: every third event arrives 7 ticks late.
        let batch: Vec<Event<i64>> = (0..100)
            .map(|i| {
                let t = base + i - if i % 3 == 0 { 7 } else { 0 };
                Event::keyed(Timestamp::new(t.max(0)), (i % 4) as u32, t * 10)
            })
            .collect();
        a_events += a.send(batch.clone()).expect("send alerts").events.len();
        b_events += b.send(batch).expect("send totals").events.len();
    }
    let fa = a.complete().expect("complete alerts");
    let fb = b.complete().expect("complete totals");
    a_events += fa.events.len();
    b_events += fb.events.len();
    println!("alerts: {a_events} events out (filtered >= 500)");
    println!("totals: {b_events} windowed sums out");

    let snap = b.metrics().expect("metrics");
    let latency = snap
        .get("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.get("serve.adaptive.latency"))
        .map(|g| g.to_string())
        .unwrap_or_default();
    println!("totals adaptive latency gauge: {latency}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    println!("demo ok");
}
