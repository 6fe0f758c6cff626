//! Inputs: every workload's events come from `--seed` through the
//! `impatience-workloads` generators, and the system under test receives
//! only the generated events.

use impatience_core::{EvalPayload, Event, TickDuration, Timestamp};
use impatience_workloads::{
    generate_androidlog, generate_cloudlog, AndroidLogConfig, CloudLogConfig,
};

/// Events per closed-loop `serve-durable` repetition: twenty requests
/// (~0.3 s on the reference host).
const SERVE_DURABLE_EVENTS: usize = 20 * DURABLE_BATCH;
/// Events per `engine-*` repetition: the same input for both, sized so a
/// spilling repetition takes ~2.5 s and five fit in one run.
const ENGINE_EVENTS: usize = 100_000;
/// Events per `framework-ladder` repetition. At ~20 s of device time per
/// event over 227 devices this spans ~5 h, inside the 1-day top rung, so
/// the most complete output holds every event. Kept this small on
/// purpose: at 600 000 events every repetition allocates and frees ~100 MB
/// (input copy + union buffers) and its throughput followed the host's
/// page-fault cost (20% spread between identical runs against 3% on the
/// cache-resident `engine-inmem`); at 200 000 the same runs agree within 9%.
const FRAMEWORK_EVENTS: usize = 200_000;
/// Offered rate of the open loop. Verified on the reference host to be
/// below half the closed-loop capacity of the same configuration (see the
/// README); lower it once if `serve.client.closed_loop_capacity_eps`
/// says otherwise.
pub const PACED_RATE_EPS: usize = 100_000;
/// Events a served workload streams during set-up: a short tenant of its
/// own (`serve-durable`), or the head of the paced stream, unpaced, so the
/// adaptive controller has left its start rung before the schedule starts.
const SERVE_WARMUP_EVENTS: usize = 51_200;

/// Batch size of the closed-loop binary client. The tenant fsyncs twice per
/// request, and this host's fsync latency moves 2-3x between phases that
/// last minutes: at 4096 events a request that moved `throughput_eps` by
/// 40%, at 32 768 (fsync ~8% of the wall time) by 16%, inside the bound.
pub const DURABLE_BATCH: usize = 32_768;
/// Batch size of the paced NDJSON client.
pub const PACED_BATCH: usize = 256;
/// Batch size of the in-process drives.
pub const ENGINE_BATCH: usize = 512;
/// Tumbling window of the `[TumblingWindow, SumByKey]` op chain, ticks.
pub const WINDOW: TickDuration = TickDuration::ticks(100);
/// Latency limit an admitted event must be emitted within (open loop).
pub const DEADLINE_MS: f64 = 100.0;

/// The adaptive ladder of both served tenants, ticks.
pub fn serve_ladder() -> Vec<TickDuration> {
    [16, 64, 256, 1024].map(TickDuration::ticks).to_vec()
}

/// The three-rung ladder of `framework-ladder` (Fig 10's AndroidLog one).
pub fn framework_ladder() -> [TickDuration; 3] {
    [
        TickDuration::minutes(10),
        TickDuration::hours(1),
        TickDuration::days(1),
    ]
}

/// Event counts, scaled down together for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `serve-durable` events per repetition.
    pub serve_durable: usize,
    /// Warm-up events of the served workloads.
    pub serve_warmup: usize,
    /// `engine-*` events per repetition.
    pub engine: usize,
    /// `framework-ladder` events per repetition.
    pub framework: usize,
}

impl Sizes {
    /// Full size times `scale`, never below a few batches.
    pub fn scaled(scale: f64) -> Sizes {
        let s = |n: usize, batch: usize| ((n as f64 * scale) as usize).max(8 * batch);
        Sizes {
            serve_durable: s(SERVE_DURABLE_EVENTS, DURABLE_BATCH),
            serve_warmup: s(SERVE_WARMUP_EVENTS, PACED_BATCH),
            engine: s(ENGINE_EVENTS, ENGINE_BATCH),
            framework: s(FRAMEWORK_EVENTS, ENGINE_BATCH),
        }
    }
}

/// CloudLog in arrival order with `payload = arrival index`, so every
/// output maps back to the input that produced it.
pub fn cloudlog(seed: u64, events: usize) -> Vec<Event<i64>> {
    let ds = generate_cloudlog(&CloudLogConfig {
        seed,
        ..CloudLogConfig::sized(events)
    });
    ds.events
        .iter()
        .enumerate()
        .map(|(i, e)| Event::keyed(e.sync_time, e.key, i as i64))
        .collect()
}

/// AndroidLog in arrival order with the generator's own four-`u32`
/// payload (field 2 is the random value Q2 groups on).
pub fn androidlog(seed: u64, events: usize) -> Vec<Event<EvalPayload>> {
    generate_androidlog(&AndroidLogConfig {
        seed,
        ..AndroidLogConfig::sized(events)
    })
    .events
}

/// Cuts arrivals into client batches.
pub fn batches<P: Clone>(events: &[Event<P>], size: usize) -> Vec<Vec<Event<P>>> {
    events.chunks(size).map(<[_]>::to_vec).collect()
}

/// Highest event time in a batch.
pub fn max_sync<P>(batch: &[Event<P>]) -> Timestamp {
    batch
        .iter()
        .map(|e| e.sync_time)
        .max()
        .unwrap_or(Timestamp::MIN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_and_payload_is_arrival_index() {
        let a = cloudlog(11, 5_000);
        assert_eq!(a, cloudlog(11, 5_000));
        assert_ne!(a, cloudlog(12, 5_000));
        assert!(a.iter().enumerate().all(|(i, e)| e.payload == i as i64));
        assert_eq!(androidlog(3, 4_000), androidlog(3, 4_000));
        let cut = batches(&a, 512);
        assert_eq!(cut.iter().map(Vec::len).sum::<usize>(), 5_000);
        assert_eq!(cut.len(), 10);
    }

    #[test]
    fn smoke_scale_keeps_every_workload_non_trivial() {
        let s = Sizes::scaled(0.01);
        assert_eq!(s.serve_durable, 8 * DURABLE_BATCH);
        assert!(s.engine >= 8 * ENGINE_BATCH && s.framework >= 8 * ENGINE_BATCH);
    }
}
