//! AndroidLog model: the Device Analyzer dataset (§II, Fig 2(c)/(d)).
//!
//! Smartphones record activity events continuously but upload them "when
//! the phone is attached to a charger", hours or days later. The arrival
//! stream is therefore a concatenation of long, internally ordered batches
//! from different devices:
//!
//! * **runs** ≈ number of uploads (Table I: 5,560 runs over 20M events →
//!   very long runs, the speculative-run-selection sweet spot);
//! * **interleaved** ≈ number of devices (227);
//! * **inversions/distance** enormous, because whole multi-hour batches
//!   are displaced (well-ordered at fine granularity, chaotic at coarse
//!   granularity — the mirror image of CloudLog).

use crate::dataset::Dataset;
use crate::rand_util::{exponential, log_normal, ordered_bits};
use impatience_core::{Event, Timestamp};
use impatience_testkit::rng::{Rng, SeedableRng, StdRng};

/// Configuration for [`generate_androidlog`].
#[derive(Debug, Clone, Copy)]
pub struct AndroidLogConfig {
    /// Number of events.
    pub events: usize,
    /// Number of devices (drives the interleaved measure; Table I: 227).
    pub devices: usize,
    /// Mean ticks between two events on one device.
    pub event_gap: f64,
    /// Median ticks between uploads (charger attachments). Actual
    /// intervals are log-normal around this, so some devices upload within
    /// minutes and others after days — the Table II completeness mix.
    pub upload_median: f64,
    /// Log-normal shape for upload intervals.
    pub upload_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AndroidLogConfig {
    fn default() -> Self {
        AndroidLogConfig {
            events: 1_000_000,
            devices: 227,
            // ~1 event/20s of device time — at the default 1M events this
            // stretches the stream over ~24 h so day-scale upload delays
            // fit inside it (the real dataset spans months).
            event_gap: 20_000.0,
            // Median ~4 h between uploads, heavy upper tail to days.
            upload_median: 14_400_000.0,
            upload_sigma: 1.4,
            seed: 0xA14D_1406,
        }
    }
}

impl AndroidLogConfig {
    /// Default shape at a given event count.
    pub fn sized(events: usize) -> Self {
        AndroidLogConfig {
            events,
            ..Default::default()
        }
    }
}

/// Generates the AndroidLog-model dataset.
pub fn generate_androidlog(cfg: &AndroidLogConfig) -> Dataset {
    assert!(cfg.devices > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let per_device = cfg.events / cfg.devices;
    let remainder = cfg.events % cfg.devices;

    // Arrival order is (upload_time, device, within-upload sequence),
    // generation order breaking what ties remain: by upload time; within
    // one upload, device order is preserved (the batch arrives as one
    // ordered blob). The four pack into one 16-byte key that sorts the
    // same way — upload time in the high word; device, sequence and
    // generation index in the low one, each in as few bits as its range
    // needs — so the sort moves keys, not events.
    let width = |max: usize| usize::BITS - max.leading_zeros();
    let index_bits = width(cfg.events);
    let seq_bits = width(per_device + 1);
    let device_bits = width(cfg.devices);
    assert!(
        index_bits + seq_bits + device_bits <= 64,
        "AndroidLog's arrival key needs {} bits of device, sequence and index",
        index_bits + seq_bits + device_bits
    );
    let mut generated: Vec<Event<impatience_core::EvalPayload>> = Vec::with_capacity(cfg.events);
    let mut order: Vec<u128> = Vec::with_capacity(cfg.events);

    for dev in 0..cfg.devices {
        let n = per_device + usize::from(dev < remainder);
        // Devices start phase-shifted so their timelines interleave.
        let mut t = rng.gen_range(0.0..cfg.event_gap * 10.0);
        let mut next_upload = t + log_normal(&mut rng, cfg.upload_median, cfg.upload_sigma);
        let mut seq_in_upload = 0u64;
        for i in 0..n {
            t += exponential(&mut rng, cfg.event_gap);
            if t > next_upload {
                // Past a charge point: this and later events go in the next
                // upload.
                while t > next_upload {
                    next_upload += log_normal(&mut rng, cfg.upload_median, cfg.upload_sigma);
                }
                seq_in_upload = 0;
            }
            let payload = [dev as u32, i as u32, rng.gen(), rng.gen()];
            let low = (dev as u64) << (seq_bits + index_bits)
                | seq_in_upload << index_bits
                | generated.len() as u64;
            order.push(u128::from(ordered_bits(next_upload as i64)) << 64 | u128::from(low));
            generated.push(Event::keyed(Timestamp::new(t as i64), dev as u32, payload));
            seq_in_upload += 1;
        }
    }
    // Every key is distinct (it holds its index), so the unstable sort
    // gives the one order there is.
    order.sort_unstable();
    let index_mask = (1u64 << index_bits) - 1;
    Dataset {
        name: "AndroidLog".into(),
        events: order
            .iter()
            .map(|key| generated[(*key as u64 & index_mask) as usize])
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::TickDuration;
    use impatience_disorder::DisorderReport;

    fn small() -> Dataset {
        generate_androidlog(&AndroidLogConfig {
            events: 60_000,
            devices: 50,
            ..Default::default()
        })
    }

    #[test]
    fn deterministic() {
        assert_eq!(small().events, small().events);
        assert_eq!(small().len(), 60_000);
    }

    #[test]
    fn long_runs_few_interleaves() {
        let d = small();
        let r = DisorderReport::of_events(&d.events);
        // Fine-grained order: long natural runs (Table I: ~3,600 events
        // per run; we only require "long" to stay robust at small sizes).
        assert!(
            r.mean_run_length() > 20.0,
            "mean run length {} too short for AndroidLog",
            r.mean_run_length()
        );
        // Coarse-grained chaos bounded by device count.
        assert!(
            r.interleaved <= 2 * 50,
            "interleaved {} >> devices",
            r.interleaved
        );
    }

    #[test]
    fn android_more_inversions_than_cloudlog_shape() {
        // §II: AndroidLog has orders of magnitude more inversions but far
        // fewer runs than CloudLog at equal size.
        let a = DisorderReport::of_events(&small().events);
        let c = DisorderReport::of_events(
            &crate::cloudlog::generate_cloudlog(&crate::cloudlog::CloudLogConfig {
                events: 60_000,
                servers: 100,
                ..Default::default()
            })
            .events,
        );
        assert!(
            a.inversions > c.inversions,
            "a={} c={}",
            a.inversions,
            c.inversions
        );
        assert!(a.runs < c.runs / 10, "a={} c={}", a.runs, c.runs);
    }

    #[test]
    fn completeness_profile_matches_table_ii_shape() {
        // Low completeness at 10 minutes, much higher at 1 day.
        let d = small();
        let c10m = d.completeness_at(TickDuration::minutes(10));
        let c1d = d.completeness_at(TickDuration::days(1));
        assert!(c10m < 0.6, "10m completeness {c10m} too high");
        assert!(c1d > 0.75, "1d completeness {c1d} too low");
        assert!(c1d > c10m + 0.2, "no separation: {c10m} vs {c1d}");
    }

    #[test]
    fn uploads_are_internally_ordered() {
        // Each device's events must appear in nondecreasing event time
        // when restricted to that device (batches preserve order).
        let d = small();
        let mut last_per_dev: std::collections::HashMap<u32, Timestamp> = Default::default();
        for e in &d.events {
            let entry = last_per_dev.entry(e.key).or_insert(Timestamp::MIN);
            assert!(e.sync_time >= *entry, "device {} regressed", e.key);
            *entry = e.sync_time;
        }
    }
}
