//! The paper's second framework example (§V-C): "find users who click ad X
//! followed by clicking ad Y within a one-minute window" — query logic
//! that has no obvious PIQ/merge split, so it runs on the **basic**
//! framework: pattern matching is applied per output stream.
//!
//! ```sh
//! cargo run --release --example pattern_funnel
//! ```

use impatience::prelude::*;
use impatience_testkit::rng::{Rng, SeedableRng, StdRng};

const AD_X: u32 = 7;
const AD_Y: u32 = 11;
const USERS: u32 = 500;

/// Click feed where some users follow the X→Y funnel; a slice of traffic
/// arrives minutes late (retried uploads).
fn click_feed() -> Vec<Event<u32>> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut out = Vec::with_capacity(150_000);
    for i in 0..150_000i64 {
        let t = i * 2; // one click every 2 ms
        let user = rng.gen_range(0..USERS);
        // 1 in 12 clicks is X; a third of those are followed by Y shortly
        // after (the funnel we want to detect).
        let ad = if rng.gen_ratio(1, 12) {
            AD_X
        } else if rng.gen_ratio(1, 25) {
            AD_Y
        } else {
            rng.gen_range(0u32..20)
        };
        let sync = if rng.gen::<f64>() < 0.05 {
            // Retried uploads: 2–20 minutes late, so a 5-minute reorder
            // latency misses some of them and the 1-hour tier recovers
            // the funnels they complete.
            (t - rng.gen_range(120_000i64..1_200_000)).max(0)
        } else {
            t
        };
        out.push(Event::keyed(Timestamp::new(sync), user, ad));
    }
    out
}

fn main() {
    let meter = MemoryMeter::new();
    // ds = ToDisorderedStreamable().Where(AdId == X || AdId == Y).Window(1m)
    // ss = ds.ToStreamables({5m, 1h})       // basic framework: no PIQ/merge
    let ds = DisorderedStreamable::from_arrivals(
        click_feed(),
        &IngressPolicy::new(2_000, TickDuration::ZERO),
    )
    .where_(|e| e.payload == AD_X || e.payload == AD_Y);

    let mut ss = ds
        .to_streamables(
            &[TickDuration::minutes(5), TickDuration::hours(1)],
            |s| s,
            |s| s,
            &meter,
            Default::default(),
        )
        .expect("valid latencies");

    // PatternMatch per output stream (redundant computation — the price
    // of the basic framework for non-decomposable queries, §V-C).
    let fast_matches = ss
        .take_stream(0)
        .expect("take output stream")
        .followed_by(
            |ad: &u32| *ad == AD_X,
            |ad: &u32| *ad == AD_Y,
            TickDuration::minutes(1),
        )
        .collect_output();
    let full_matches = ss
        .take_stream(1)
        .expect("take output stream")
        .followed_by(
            |ad: &u32| *ad == AD_X,
            |ad: &u32| *ad == AD_Y,
            TickDuration::minutes(1),
        )
        .collect_output();

    println!(
        "funnel matches @5m latency : {}",
        fast_matches.event_count()
    );
    println!(
        "funnel matches @1h latency : {}",
        full_matches.event_count()
    );
    println!(
        "extra funnels recovered from late clicks: {}",
        full_matches.event_count() as i64 - fast_matches.event_count() as i64
    );

    let sample: Vec<(i64, u32)> = full_matches
        .events()
        .iter()
        .take(5)
        .map(|e| (e.sync_time.ticks(), e.key))
        .collect();
    println!("first matches (time, user): {sample:?}");

    let stats = ss.stats();
    println!(
        "completeness: {:.2}% @5m, {:.2}% @1h; dropped {}",
        stats.completeness(0) * 100.0,
        stats.completeness(1) * 100.0,
        stats.dropped()
    );
    println!(
        "peak buffered state: {} (raw events — the basic framework buffers \
         originals in its unions)",
        impatience::core::format_bytes(meter.peak())
    );
}
