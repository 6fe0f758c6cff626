//! Run context, the set-up timer, the timed-section loop and the output
//! probe shared by all workloads.

use crate::inputs::Sizes;
use crate::measure::{EmitTracker, Outcome, Segment, SEGMENTS};
use crate::oracle::Fold;
use crate::span::Tracer;
use impatience_core::{EventBatch, Payload, StreamError, Timestamp};
use impatience_engine::Observer;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Set-ups made per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Everything a workload needs to know about this invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed section should last.
    pub seconds: f64,
    /// Event counts (scaled down for `--smoke`).
    pub sizes: Sizes,
    /// Directory for WAL, checkpoint and spill files and the trace dump.
    pub scratch: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory under the scratch root.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        remove_dir(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create scratch dir {}: {e}", dir.display()));
        dir
    }
}

/// Writes the pass's spans as Chrome trace-event JSON to
/// `<scratch>/trace-<workload>.json`; a failed write is a note, not a
/// failed operation.
pub fn dump_trace(ctx: &Ctx, workload: &str, tracer: &Tracer, out: &mut Outcome) {
    let path = ctx.scratch.join(format!("trace-{workload}.json"));
    if let Err(e) = std::fs::write(&path, tracer.to_chrome_trace().to_string()) {
        out.notes
            .push(format!("trace not written to {}: {e}", path.display()));
    }
}

/// Removes a scratch directory; a leftover is harmless, so errors are
/// ignored.
fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Removes scratch directories and then forces the filesystem to commit
/// the removal. Unlinking thousands of spill files queues block discards
/// that the *next* fsync would otherwise pay for; syncing the parent here,
/// outside every timed region, keeps that cost off the workload.
pub fn discard(dirs: &[PathBuf]) {
    for dir in dirs {
        remove_dir(dir);
    }
    if let Some(parent) = dirs.first().and_then(|d| d.parent()) {
        if let Ok(d) = std::fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
}

/// Sets up [`SETUPS`] times, timing each, and keeps the last result.
/// `teardown` disposes of the earlier ones outside the timed region.
pub fn timed_setups<S>(
    mut setup: impl FnMut(usize) -> S,
    mut teardown: impl FnMut(S),
) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let start = Instant::now();
        kept = Some(setup(i));
        times.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("SETUPS >= 1"), times)
}

/// Runs whole repetitions for about `seconds`, cut into [`SEGMENTS`]
/// segments of at least one repetition each (so every timing is the
/// median of five or more). `rep` adds its samples to the segment and may
/// push directories onto the trash list; they are removed between
/// segments (see [`discard`]), never inside a repetition's clock.
/// A host far slower than the reference stops after three times the
/// budget with fewer segments rather than overrunning the run limit.
pub fn timed_section(
    seconds: f64,
    mut rep: impl FnMut(&mut Segment, &mut Vec<PathBuf>),
) -> Vec<Segment> {
    let started = Instant::now();
    let per_segment = seconds / SEGMENTS as f64;
    let mut segments = Vec::with_capacity(SEGMENTS);
    for _ in 0..SEGMENTS {
        let mut seg = Segment::default();
        let mut trash: Vec<PathBuf> = Vec::new();
        let seg_start = Instant::now();
        loop {
            rep(&mut seg, &mut trash);
            if seg_start.elapsed().as_secs_f64() >= per_segment {
                break;
            }
        }
        discard(&trash);
        segments.push(seg);
        if started.elapsed().as_secs_f64() > 3.0 * seconds {
            break;
        }
    }
    segments
}

/// What a [`ProbeSink`] has seen.
#[derive(Debug, Default)]
pub struct Probe {
    /// Digest of every event received, in order.
    pub fold: Fold,
    /// Output batches received.
    pub batches: u64,
    /// Output punctuations received.
    pub puncts: u64,
    /// The stream completed.
    pub completed: bool,
    /// Terminal errors received.
    pub errors: Vec<String>,
    /// Finalisation times of the input batches.
    pub emit: EmitTracker,
}

/// Terminal observer: counts, folds the output into the oracle digest and
/// stamps punctuation arrival times. One lock per message, none per
/// event.
pub struct ProbeSink<P> {
    probe: Arc<Mutex<Probe>>,
    widen: fn(&P) -> u64,
}

/// Locks a probe; a panic elsewhere must not hide what was recorded.
pub fn lock(probe: &Mutex<Probe>) -> MutexGuard<'_, Probe> {
    probe.lock().unwrap_or_else(|e| e.into_inner())
}

impl<P> ProbeSink<P> {
    /// A sink and the handle its observations are read through. `widen`
    /// maps a payload onto the 64 bits the digest folds.
    pub fn new(widen: fn(&P) -> u64) -> (ProbeSink<P>, Arc<Mutex<Probe>>) {
        let probe = Arc::new(Mutex::new(Probe::default()));
        (
            ProbeSink {
                probe: probe.clone(),
                widen,
            },
            probe,
        )
    }
}

impl<P: Payload> Observer<P> for ProbeSink<P> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        let mut p = lock(&self.probe);
        p.batches += 1;
        for e in batch.iter_visible() {
            p.fold
                .event(e.sync_time, e.other_time, e.key, (self.widen)(&e.payload));
        }
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        let now = Instant::now();
        let mut p = lock(&self.probe);
        p.puncts += 1;
        p.emit.punctuation(t, now);
    }

    fn on_completed(&mut self) {
        let now = Instant::now();
        let mut p = lock(&self.probe);
        p.completed = true;
        p.emit.completed(now);
    }

    fn on_error(&mut self, err: StreamError) {
        lock(&self.probe).errors.push(err.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn timed_section_runs_at_least_one_rep_per_segment() {
        let mut reps = 0;
        let segments = timed_section(0.05, |seg, _| {
            reps += 1;
            seg.events += 10;
            std::thread::sleep(Duration::from_millis(4));
        });
        assert_eq!(segments.len(), SEGMENTS);
        assert!(segments.iter().all(|s| s.events >= 10));
        assert!(reps >= SEGMENTS);
    }

    #[test]
    fn a_slow_host_stops_early_instead_of_overrunning() {
        let segments = timed_section(0.01, |seg, _| {
            seg.events += 1;
            std::thread::sleep(Duration::from_millis(20));
        });
        assert!(segments.len() < SEGMENTS, "{}", segments.len());
    }

    #[test]
    fn setups_are_timed_and_earlier_ones_torn_down() {
        let mut torn = Vec::new();
        let (kept, times) = timed_setups(|i| i * 10, |s| torn.push(s));
        assert_eq!(kept, 40);
        assert_eq!(times.len(), SETUPS);
        assert_eq!(torn, vec![0, 10, 20, 30]);
    }
}
