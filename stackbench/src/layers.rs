//! Direct drives of single layers, on the inputs the served path hands
//! them, plus the calibration kernel.

use impatience_core::{
    crc32c, Event, EventTimed, Json, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec,
    StreamError, TickDuration, Timestamp,
};
use impatience_sort::{ExternalImpatienceSorter, ImpatienceSorter, OnlineSorter, SpillStats};
use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Times one seeded 1M-element `sort_unstable`, in nanoseconds: a fixed
/// amount of CPU- and cache-bound work recorded next to every run so a
/// later reader can normalise rows across hosts.
pub fn calibration_ns() -> f64 {
    let mut state = 0x5eed_ca11_b8a7_e000u64;
    let mut data: Vec<u64> = (0..1_000_000)
        .map(|_| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect();
    let start = Instant::now();
    data.sort_unstable();
    let ns = start.elapsed().as_nanos() as f64;
    black_box(data[data.len() / 2]);
    ns
}

/// Takes samples until `budget_s` has passed (at least three) and returns
/// their median. `sample` times whatever part of itself it wants counted.
pub fn median_sample(budget_s: f64, mut sample: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        samples.push(sample());
    }
    crate::stats::median(&samples)
}

/// Median seconds per call of `f`, over [`median_sample`]'s repetitions.
pub fn median_secs(budget_s: f64, mut f: impl FnMut()) -> f64 {
    median_sample(budget_s, || {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    })
}

/// `core::snapshot::crc32c` throughput over a 1 MiB buffer, GB/s — the
/// checksum WAL records, checkpoints and spill blocks all pay.
pub fn crc32c_gbps(budget_s: f64) -> f64 {
    let buf: Vec<u8> = (0..1 << 20).map(|i| (i * 31 + 7) as u8).collect();
    let secs = median_secs(budget_s, || {
        black_box(crc32c(black_box(&buf)));
    });
    buf.len() as f64 / secs / 1e9
}

/// `core::json` parse and write throughput over `text` (one NDJSON events
/// frame as the wire carries it), MB/s each.
pub fn json_mbps(text: &str, budget_s: f64) -> (f64, f64) {
    let parsed = Json::parse(text).expect("frame text is valid JSON");
    let parse = median_secs(budget_s / 2.0, || {
        black_box(Json::parse(black_box(text)).expect("valid"));
    });
    let write = median_secs(budget_s / 2.0, || {
        black_box(black_box(&parsed).to_string());
    });
    let mb = text.len() as f64 / 1e6;
    (mb / parse, mb / write)
}

/// What one direct drive of an online sorter observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SorterDrive {
    /// Nanoseconds spent in `push`, per input event.
    pub push_ns_per_event: f64,
    /// Nanoseconds spent in `punctuate` / `drain_all`, per input event.
    pub punctuate_ns_per_event: f64,
    /// Most sorted runs alive just before any punctuation.
    pub runs_hwm: usize,
    /// Events emitted.
    pub emitted: usize,
}

/// Drives `sorter` exactly as the sorting operator does — admitted events
/// pushed batch by batch, `punctuate` after a batch when the schedule says
/// so, `drain_all` at the end — timing the two calls separately.
/// `runs` reads the sorter's live run count; `after_batch` is where the
/// external sorter's budget enforcement goes.
pub fn drive_sorter<T: EventTimed + Clone, S: OnlineSorter<T>>(
    sorter: &mut S,
    batches: &[Vec<T>],
    puncts: &[Option<Timestamp>],
    runs: impl Fn(&S) -> usize,
    mut after_batch: impl FnMut(&mut S) -> Result<(), StreamError>,
) -> Result<SorterDrive, StreamError> {
    let mut drive = SorterDrive::default();
    let (mut push_ns, mut punct_ns, mut events) = (0u128, 0u128, 0usize);
    let mut watermark = Timestamp::MIN;
    let mut out = Vec::new();
    for (batch, p) in batches.iter().zip(puncts) {
        events += batch.len();
        let t = Instant::now();
        for item in batch {
            if item.event_time() > watermark {
                sorter.push(item.clone());
            }
        }
        after_batch(sorter)?;
        push_ns += t.elapsed().as_nanos();
        if let Some(p) = *p {
            drive.runs_hwm = drive.runs_hwm.max(runs(sorter));
            let t = Instant::now();
            sorter.punctuate(p, &mut out);
            punct_ns += t.elapsed().as_nanos();
            watermark = p;
            drive.emitted += out.len();
            black_box(out.last().map(EventTimed::event_time));
            out.clear();
        }
        if let Some(fault) = sorter.take_fault() {
            return Err(fault);
        }
    }
    drive.runs_hwm = drive.runs_hwm.max(runs(sorter));
    let t = Instant::now();
    sorter.drain_all(&mut out);
    punct_ns += t.elapsed().as_nanos();
    drive.emitted += out.len();
    if let Some(fault) = sorter.take_fault() {
        return Err(fault);
    }
    let n = events.max(1) as f64;
    drive.push_ns_per_event = push_ns as f64 / n;
    drive.punctuate_ns_per_event = punct_ns as f64 / n;
    Ok(drive)
}

/// Median-of-`reps` direct drive of a fresh in-memory Impatience sorter.
/// Returns the drive, the speculation hit percentage and the run
/// high-water mark (counts repeat exactly across repetitions).
pub fn drive_impatience<P: impatience_core::Payload>(
    batches: &[Vec<Event<P>>],
    puncts: &[Option<Timestamp>],
    reps: usize,
) -> (SorterDrive, f64) {
    let mut drives = Vec::new();
    let mut hit_pct = 0.0;
    for _ in 0..reps.max(1) {
        let mut sorter: ImpatienceSorter<Event<P>> = ImpatienceSorter::new();
        let d = drive_sorter(
            &mut sorter,
            batches,
            puncts,
            ImpatienceSorter::run_count,
            |_| Ok(()),
        )
        .expect("the in-memory sorter has no fault path");
        let (hits, misses) = (sorter.speculative_hits(), sorter.speculative_misses());
        hit_pct = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
        drives.push(d);
    }
    let med = |f: fn(&SorterDrive) -> f64| {
        crate::stats::median(&drives.iter().map(f).collect::<Vec<_>>())
    };
    let drive = SorterDrive {
        push_ns_per_event: med(|d| d.push_ns_per_event),
        punctuate_ns_per_event: med(|d| d.punctuate_ns_per_event),
        ..drives[0]
    };
    (drive, hit_pct)
}

/// One direct drive of the spilling sorter under `budget` bytes, enforced
/// after every batch the way the sorting operator enforces its meter.
pub fn drive_external(
    spill_dir: &Path,
    batches: &[Vec<Event<i64>>],
    puncts: &[Option<Timestamp>],
    budget: usize,
) -> Result<(SorterDrive, SpillStats), StreamError> {
    let mut sorter: ExternalImpatienceSorter<Event<i64>> = ExternalImpatienceSorter::new(spill_dir);
    let drive = drive_sorter(
        &mut sorter,
        batches,
        puncts,
        ExternalImpatienceSorter::run_count,
        |s| {
            while s.state_bytes() > budget {
                if s.spill_cold(budget)? == 0 {
                    break;
                }
            }
            Ok(())
        },
    )?;
    Ok((drive, sorter.spill_stats()))
}

thread_local! {
    // Per thread, so concurrent drives (parallel tests) cannot mix counts.
    static CLONES: Cell<u64> = const { Cell::new(0) };
}

/// A sorter element that counts its clones, for
/// `sort.impatience.clones_per_event`.
#[derive(Debug)]
struct CountedItem(Timestamp);

impl Clone for CountedItem {
    fn clone(&self) -> Self {
        CLONES.with(|c| c.set(c.get() + 1));
        CountedItem(self.0)
    }
}

impl EventTimed for CountedItem {
    fn event_time(&self) -> Timestamp {
        self.0
    }
}

impl StateCodec for CountedItem {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.0.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CountedItem(Timestamp::decode(r)?))
    }
}

/// Clones the in-memory Impatience sorter makes per admitted event between
/// `push` and emission (the clone the drive itself makes to push is
/// excluded). Exact: repeats on every run of the same input.
pub fn impatience_clones_per_event<P>(batches: &[Vec<Event<P>>], latency: TickDuration) -> f64 {
    let mut sorter: ImpatienceSorter<CountedItem> = ImpatienceSorter::new();
    let (mut high, mut watermark) = (Timestamp::MIN, Timestamp::MIN);
    let mut out = Vec::new();
    let mut admitted = 0u64;
    let before = CLONES.with(Cell::get);
    for batch in batches {
        for e in batch {
            high = high.max(e.sync_time);
            if e.sync_time > watermark {
                admitted += 1;
                sorter.push(CountedItem(e.sync_time));
            }
        }
        let p = high.saturating_sub(latency);
        if p > watermark {
            watermark = p;
            sorter.punctuate(p, &mut out);
            out.clear();
        }
    }
    sorter.drain_all(&mut out);
    let clones = CLONES.with(Cell::get) - before;
    clones as f64 / admitted.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{inputs, oracle};

    #[test]
    fn direct_drive_emits_every_admitted_event() {
        let events = inputs::cloudlog(5, 6_000);
        let batches = inputs::batches(&events, 512);
        let puncts = oracle::fixed_latency_schedule(&batches, TickDuration::ticks(64));
        let admitted = oracle::admitted(&batches, &puncts).len();
        assert!(
            admitted < events.len(),
            "a 64-tick latency drops stragglers"
        );
        let (drive, hit_pct) = drive_impatience(&batches, &puncts, 2);
        assert_eq!(drive.emitted, admitted);
        assert!(drive.runs_hwm >= 1 && (0.0..=100.0).contains(&hit_pct));
        assert!(drive.push_ns_per_event > 0.0 && drive.punctuate_ns_per_event > 0.0);
    }

    #[test]
    fn clone_count_is_exact_and_repeatable() {
        let events = inputs::cloudlog(5, 4_000);
        let batches = inputs::batches(&events, 512);
        let a = impatience_clones_per_event(&batches, TickDuration::ticks(256));
        let b = impatience_clones_per_event(&batches, TickDuration::ticks(256));
        assert_eq!(a, b);
    }

    #[test]
    fn micro_kernels_report_positive_rates() {
        assert!(crc32c_gbps(0.01) > 0.0);
        let (parse, write) = json_mbps(r#"{"type":"events","batch":[[1,2,3,4],[5,6,7,8]]}"#, 0.01);
        assert!(parse > 0.0 && write > 0.0);
    }
}
