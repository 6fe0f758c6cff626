//! CloudLog model: "a log of a large-scale cloud application deployed at
//! Microsoft" (§II).
//!
//! The real dataset is proprietary; this generator reproduces its
//! *disorder structure*, which is what every algorithm in the paper reacts
//! to (Fig 2(a)/(b), Table I):
//!
//! * hundreds of distributed application servers forward events to a
//!   central collector **immediately**, each with its own base network
//!   latency plus per-event jitter → fine-grained chaos: millions of tiny
//!   natural runs (mean ≈ 2.7 events), but a bounded *interleaved* measure
//!   (≈ number of servers — Proposition 3.1's good case);
//! * occasional **failure bursts**: a server disconnects, buffers its
//!   events, and dumps them much later → the pronounced spikes of
//!   Fig 2(b) and the multi-million-event *distance* in Table I.
//!
//! Events are emitted in arrival order (`event_time + latency`), with
//! event times at one event per tick overall.

use crate::dataset::Dataset;
use crate::rand_util::{exponential, normal, ordered_bits};
use impatience_core::{Event, Timestamp};
use impatience_testkit::rng::{Rng, SeedableRng, StdRng};

/// Configuration for [`generate_cloudlog`].
#[derive(Debug, Clone, Copy)]
pub struct CloudLogConfig {
    /// Number of events.
    pub events: usize,
    /// Number of application servers (drives the interleaved measure;
    /// Table I reports 387).
    pub servers: usize,
    /// Events generated per tick across the fleet. Density matters: the
    /// interleaved measure grows with `latency spread × density`, since a
    /// decreasing witness chain needs many in-flight events with crossing
    /// delays.
    pub events_per_tick: i64,
    /// Spread of per-server base network latency, in ticks. Kept well
    /// under one second so the Table II "98% complete within 1 s" story
    /// holds.
    pub base_latency_spread: i64,
    /// Std-dev of per-event network jitter, in ticks. Small: the common
    /// path has a nearly constant delay.
    pub jitter_std: f64,
    /// Fraction of events taking a slow path (retries, GC pauses,
    /// congested links). Real delay distributions are a fast common case
    /// plus a heavy tail — this mixture is what makes Patience's run-size
    /// distribution "highly skewed" (§III-E1): prompt events pile onto the
    /// first runs, stragglers spread geometrically across deeper runs.
    pub late_fraction: f64,
    /// Mean extra delay of slow-path events, in ticks (exponential).
    pub late_mean: f64,
    /// Expected number of failure bursts over the whole log.
    pub failure_bursts: usize,
    /// Events buffered per failure burst.
    pub burst_len: usize,
    /// How long a failed server stays disconnected, in ticks (drives the
    /// distance measure; Table I reports 13.6M positions ≈ 68% of the
    /// stream).
    pub burst_delay: i64,
    /// Mean re-entry jitter of replayed burst events, in ticks. A real
    /// outage dump re-traverses the jittery network (often from several
    /// co-failing machines), so the replay is internally disordered — this
    /// is what makes bursts *sharply* inflate Patience's run count in
    /// Fig 5 rather than forming one tidy late run.
    pub burst_rejitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CloudLogConfig {
    fn default() -> Self {
        CloudLogConfig {
            events: 1_000_000,
            servers: 387,
            events_per_tick: 8,
            base_latency_spread: 5,
            jitter_std: 0.8,
            late_fraction: 0.35,
            late_mean: 40.0,
            failure_bursts: 4,
            burst_len: 5_000,
            burst_delay: 60_000,
            burst_rejitter: 2_000.0,
            seed: 0x0C10_D106,
        }
    }
}

impl CloudLogConfig {
    /// Default shape at a given event count, burst sizes scaled
    /// proportionally so small CI datasets keep the same structure.
    pub fn sized(events: usize) -> Self {
        let d = CloudLogConfig::default();
        let scale = (events as f64 / d.events as f64).max(1e-6);
        CloudLogConfig {
            events,
            burst_len: ((d.burst_len as f64 * scale) as usize).max(16),
            burst_delay: ((d.burst_delay as f64 * scale) as i64).max(1_000),
            ..d
        }
    }
}

/// Generates the CloudLog-model dataset.
pub fn generate_cloudlog(cfg: &CloudLogConfig) -> Dataset {
    assert!(cfg.servers > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Per-server base latency: uniform over the spread.
    let base_latency: Vec<i64> = (0..cfg.servers)
        .map(|_| rng.gen_range(0..=cfg.base_latency_spread))
        .collect();

    // Pre-plan failure bursts as disjoint event-index intervals.
    let mut burst_starts: Vec<usize> = (0..cfg.failure_bursts)
        .map(|_| rng.gen_range(0..cfg.events.saturating_sub(cfg.burst_len).max(1)))
        .collect();
    burst_starts.sort_unstable();
    let mut bursts: Vec<(usize, usize, usize)> = Vec::new(); // (start, end, server)
    let mut prev_end = 0usize;
    for s in burst_starts {
        let s = s.max(prev_end);
        let e = (s + cfg.burst_len).min(cfg.events);
        if s < e {
            bursts.push((s, e, rng.gen_range(0..cfg.servers)));
            prev_end = e;
        }
    }

    // Arrival order is (arrival_time, tiebreak, seq): events landing on
    // the same arrival tick are delivered in arbitrary order (random
    // tiebreak), as a real collector would see them; seq keeps generation
    // deterministic. The three pack into one 16-byte key that sorts the
    // same way, and seq is the event's index, so the sort moves keys, not
    // events.
    assert!(
        u32::try_from(cfg.events).is_ok(),
        "CloudLog numbers its events in u32"
    );
    let mut generated: Vec<Event<impatience_core::EvalPayload>> = Vec::with_capacity(cfg.events);
    let mut order: Vec<u128> = Vec::with_capacity(cfg.events);
    let mut burst_idx = 0usize;
    for i in 0..cfg.events {
        while burst_idx < bursts.len() && i >= bursts[burst_idx].1 {
            burst_idx += 1;
        }
        let in_burst =
            burst_idx < bursts.len() && i >= bursts[burst_idx].0 && i < bursts[burst_idx].1;
        // During a burst window the failed server owns these events (it is
        // replaying its buffered traffic); otherwise a random server.
        let server = if in_burst {
            bursts[burst_idx].2
        } else {
            rng.gen_range(0..cfg.servers)
        };
        let event_time = i as i64 / cfg.events_per_tick;
        let mut jitter = normal(&mut rng, cfg.jitter_std).abs();
        if rng.gen::<f64>() < cfg.late_fraction {
            jitter += exponential(&mut rng, cfg.late_mean);
        }
        let mut arrival = event_time + base_latency[server] + jitter.round() as i64;
        if in_burst {
            // Buffered until reconnection: everything in the burst lands
            // just after `burst_delay`, closely packed but re-jittered by
            // the same network on replay.
            arrival =
                event_time + cfg.burst_delay + exponential(&mut rng, cfg.burst_rejitter) as i64;
        }
        let payload = [server as u32, i as u32, rng.gen(), rng.gen()];
        let tie: u32 = rng.gen();
        order.push(u128::from(ordered_bits(arrival)) << 64 | u128::from(tie) << 32 | i as u128);
        generated.push(Event::keyed(
            Timestamp::new(event_time),
            server as u32,
            payload,
        ));
    }
    // Every key is distinct (it holds its index), so the unstable sort
    // gives the one order there is.
    order.sort_unstable();
    Dataset {
        name: "CloudLog".into(),
        events: order
            .iter()
            .map(|key| generated[*key as u32 as usize])
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_disorder::DisorderReport;

    fn small() -> Dataset {
        generate_cloudlog(&CloudLogConfig {
            events: 60_000,
            servers: 100,
            burst_len: 2_000,
            burst_delay: 20_000,
            failure_bursts: 2,
            ..Default::default()
        })
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn fine_grained_chaos_coarse_grained_order() {
        // The Table I signature: short natural runs, interleaved bounded by
        // roughly the server count.
        let d = small();
        let r = DisorderReport::of_events(&d.events);
        assert_eq!(r.events, 60_000);
        let mean_run = r.mean_run_length();
        assert!(
            (1.5..=6.0).contains(&mean_run),
            "mean natural run length {mean_run} outside CloudLog regime"
        );
        assert!(
            r.interleaved <= 2 * 100 + 50,
            "interleaved {} far above server count",
            r.interleaved
        );
        assert!(r.interleaved >= 20, "too orderly: {}", r.interleaved);
    }

    #[test]
    fn bursts_create_large_distance() {
        let with = small();
        let without = generate_cloudlog(&CloudLogConfig {
            events: 60_000,
            servers: 100,
            failure_bursts: 0,
            ..Default::default()
        });
        let rw = DisorderReport::of_events(&with.events);
        let ro = DisorderReport::of_events(&without.events);
        assert!(
            rw.distance > 5 * ro.distance,
            "burst distance {} vs baseline {}",
            rw.distance,
            ro.distance
        );
        assert!(rw.distance > 10_000, "distance {}", rw.distance);
    }

    #[test]
    fn majority_of_events_arrive_promptly() {
        // Table II: CloudLog at 1s latency is already 98.1% complete. With
        // our tick = 1 ms, base latencies ≤ 300 ticks keep non-burst events
        // well within one second.
        let d = small();
        let c = d.completeness_at(impatience_core::TickDuration::secs(1));
        assert!(c > 0.9, "completeness at 1s = {c}");
        let c0 = d.completeness_at(impatience_core::TickDuration::millis(1));
        assert!(c0 < 0.9, "near-zero latency should lose events: {c0}");
    }

    #[test]
    fn sized_scales_burst_structure() {
        let cfg = CloudLogConfig::sized(10_000);
        assert_eq!(cfg.events, 10_000);
        assert!(cfg.burst_len >= 16);
        assert!(cfg.burst_delay >= 1_000);
        let d = generate_cloudlog(&cfg);
        assert_eq!(d.len(), 10_000);
    }
}
