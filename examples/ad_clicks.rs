//! The paper's first framework example (§V-C): "compute a one-second
//! windowed count of clicks for each ad, with two reorder latencies
//! {1 sec, 1 min}" — PIQ = per-ad partial counts, merge = add partials.
//!
//! ```sh
//! cargo run --release --example ad_clicks
//! ```

use impatience::prelude::*;
use impatience_engine::Streamable;
use impatience_testkit::rng::{Rng, SeedableRng, StdRng};

const ADS: u32 = 20;

/// Simulated click feed: 200k clicks over ~200 s, ad popularity is
/// Zipf-ish, and ~2% of clicks arrive 5–30 s late (mobile clients).
fn click_feed() -> Vec<Event<u32>> {
    let mut rng = StdRng::seed_from_u64(42);
    let mut out = Vec::with_capacity(200_000);
    for i in 0..200_000i64 {
        let t = i; // one click per ms
                   // Zipf-ish ad choice: ad k with weight ~ 1/(k+1).
        let ad = loop {
            let k = rng.gen_range(0..ADS);
            if rng.gen::<f64>() < 1.0 / (k as f64 + 1.0) {
                break k;
            }
        };
        let sync = if rng.gen::<f64>() < 0.02 {
            (t - rng.gen_range(5_000i64..30_000)).max(0)
        } else {
            t
        };
        out.push(Event::keyed(Timestamp::new(sync), ad, ad));
    }
    out
}

fn main() {
    let meter = MemoryMeter::new();
    let latencies = [TickDuration::secs(1), TickDuration::minutes(1)];

    // The §V-C sample, transliterated:
    //   ds = ToDisorderedStreamable().Select(e => e.AdId).TumblingWindow(1s)
    //   piq = GroupApply(AdId).Aggregate(Count)
    //   merge = Add
    //   ss = ds.ToStreamables({1s, 1m}, piq, merge)
    let ds = DisorderedStreamable::from_arrivals(
        click_feed(),
        &IngressPolicy::new(1_000, TickDuration::ZERO),
    )
    .tumbling_window(TickDuration::secs(1));

    let mut ss = ds
        .to_streamables(
            &latencies,
            |s: Streamable<u32>| s.group_aggregate(CountAgg),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &meter,
            Default::default(),
        )
        .expect("valid latencies");

    // ss.Streamable(0).Subscribe(...): live per-ad counts.
    let live = ss
        .take_stream(0)
        .expect("take output stream")
        .collect_output();
    // ss.Streamable(1).Subscribe(...): corrected counts one minute later.
    let corrected = ss
        .take_stream(1)
        .expect("take output stream")
        .collect_output();

    println!(
        "live stream     : {} (window, ad, count) results",
        live.event_count()
    );
    println!("corrected stream: {} results", corrected.event_count());

    // Show the top ads in the first second, live vs corrected.
    let window0 = |o: &Output<u64>| -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = o
            .events()
            .iter()
            .filter(|e| e.sync_time == Timestamp::ZERO)
            .map(|e| (e.key, e.payload))
            .collect();
        v.sort_by_key(|&(_, c)| core::cmp::Reverse(c));
        v.truncate(5);
        v
    };
    println!(
        "\ntop ads in window [0, 1s) — live@1s    : {:?}",
        window0(&live)
    );
    println!(
        "top ads in window [0, 1s) — corrected@1m: {:?}",
        window0(&corrected)
    );

    let stats = ss.stats();
    println!(
        "\ncompleteness: {:.2}% within 1s, {:.2}% within 1m (dropped: {})",
        stats.completeness(0) * 100.0,
        stats.completeness(1) * 100.0,
        stats.dropped()
    );
    println!(
        "peak buffered state: {} (partial counts only — the advanced framework never \
         buffers raw clicks in its unions)",
        impatience::core::format_bytes(meter.peak())
    );
}
