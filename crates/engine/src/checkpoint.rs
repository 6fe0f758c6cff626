//! Durable pipelines: checkpoint/restore of operator state.
//!
//! The engine's execution model makes checkpointing unusually clean: a
//! pipeline is single-threaded and push-based, so when a punctuation call
//! into the first operator *returns*, every downstream operator has fully
//! quiesced at that cut. A [`CheckpointGate`] inserted directly after the
//! source exploits this — after forwarding each punctuation it can encode
//! the entire pipeline's state without any other synchronization.
//!
//! The pieces:
//!
//! * [`Checkpointable`] — the object-safe trait stateful operators
//!   implement (encode into / restore from the [`SnapshotWriter`] /
//!   [`SnapshotReader`] codec of `impatience-core`);
//! * [`CheckpointCtx`] — a shared registry the streamable chain threads
//!   through its combinators: each stateful stage registers itself at
//!   connect time, plus an egress counter for exactly-once accounting;
//! * [`Checkpointer`] — two alternating on-disk slots (`ckpt-a.bin` /
//!   `ckpt-b.bin`), each a checksummed frame with a monotonically
//!   increasing generation. A write overwrites the older slot in place and
//!   pays one `sync_data` — a crash mid-write can only tear the checkpoint
//!   being written, never the newer good one, and the WAL still holds the
//!   newer one's replay suffix because truncation trails both slots (the
//!   write creating a slot goes through a temp file and a rename).
//!   Recovery picks the newest checksum-valid slot and falls back to the
//!   other generation (recording the typed error) when the newest is
//!   corrupt;
//! * [`CheckpointGate`] — the observer stage that counts ingested
//!   messages, triggers a checkpoint every N punctuations, restores state
//!   at connect time, and reports recovery through the shared context.
//!
//! Combined with the write-ahead ingest log ([`crate::ingress::Wal`]),
//! recovery is: restore the newest valid checkpoint, then replay the WAL
//! suffix from the checkpoint's message offset. The committed output
//! prefix is the egress count stored in the checkpoint header — output
//! beyond it is regenerated identically by the replay.

use crate::observer::Observer;
use impatience_core::metrics::{Counter, MetricsRegistry};
use impatience_core::{
    EventBatch, Payload, SnapshotError, SnapshotReader, SnapshotWriter, StreamError, Timestamp,
    SNAPSHOT_VERSION,
};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Checkpoint machinery never holds a lock across user code, so a poison
/// can at worst tear one registration — recover rather than cascade.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Magic prefix of a checkpoint frame.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"IMPCKPT\0";

const SLOT_FILES: [&str; 2] = ["ckpt-a.bin", "ckpt-b.bin"];

/// A pipeline operator whose state can be checkpointed and restored.
///
/// Object-safe so heterogeneous operators can share one registry. The
/// codec contract mirrors [`impatience_core::StateCodec`]: `restore_state`
/// must consume exactly the bytes `encode_state` produced, and a failed
/// restore must leave the operator unchanged (or at least unusable only
/// via the typed error path — never panic). `Send` is a supertrait so
/// checkpointed pipelines can run on sharded worker threads.
pub trait Checkpointable: Send {
    /// Stable identifier for this operator's state format, stored in the
    /// checkpoint and verified on restore so a topology change between
    /// runs fails with a typed error instead of misdecoding.
    fn state_id(&self) -> &'static str;

    /// Appends this operator's full state to `w`.
    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError>;

    /// Replaces this operator's state with a previously encoded snapshot.
    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;

    /// Called after a checkpoint containing this operator's state has been
    /// durably committed. Operators holding deferred-deletion resources
    /// (e.g. an external sorter's drained spill files) advance their
    /// reclamation here: with two retained checkpoint slots, a resource
    /// unreferenced since two commits is provably unreachable from every
    /// retained generation and safe to delete. The default is a no-op.
    fn on_checkpoint_committed(&mut self) {}
}

/// Counters published by the checkpoint/recovery machinery, registered
/// under `{prefix}.checkpoint.*` and `{prefix}.recovery.*`.
#[derive(Clone, Default)]
pub struct CheckpointMetrics {
    /// Checkpoints successfully written (`checkpoint.written`).
    pub written: Counter,
    /// Total checkpoint frame bytes written (`checkpoint.bytes`).
    pub bytes: Counter,
    /// Checkpoints skipped because a participant does not support state
    /// encoding (`checkpoint.skipped`).
    pub skipped: Counter,
    /// Checkpoint writes that failed with an I/O error
    /// (`checkpoint.errors`). Durability degrades but the stream keeps
    /// running on the previous good generation.
    pub errors: Counter,
    /// Successful state restores at connect time (`recovery.restores`).
    pub restores: Counter,
    /// Restores that had to fall back to the previous generation because
    /// the newest slot was corrupt (`recovery.fallbacks`).
    pub fallbacks: Counter,
    /// Terminal recovery failures delivered as
    /// [`StreamError::RecoveryFailed`] (`recovery.failures`).
    pub failures: Counter,
}

impl CheckpointMetrics {
    /// Fresh unregistered counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters backed by `registry` under `{prefix}.checkpoint.*` /
    /// `{prefix}.recovery.*`.
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> Self {
        CheckpointMetrics {
            written: registry.counter(&format!("{prefix}.checkpoint.written")),
            bytes: registry.counter(&format!("{prefix}.checkpoint.bytes")),
            skipped: registry.counter(&format!("{prefix}.checkpoint.skipped")),
            errors: registry.counter(&format!("{prefix}.checkpoint.errors")),
            restores: registry.counter(&format!("{prefix}.recovery.restores")),
            fallbacks: registry.counter(&format!("{prefix}.recovery.fallbacks")),
            failures: registry.counter(&format!("{prefix}.recovery.failures")),
        }
    }
}

/// What a completed recovery restored, reported through the
/// [`CheckpointCtx`] after the pipeline is connected.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryInfo {
    /// Generation of the restored checkpoint.
    pub generation: u64,
    /// Ingest messages consumed at the checkpoint — replay the WAL from
    /// this index.
    pub messages_seen: u64,
    /// Visible events the pipeline had emitted at the checkpoint — the
    /// committed output prefix for exactly-once consumers.
    pub egress_events: u64,
    /// The typed error that invalidated the newest slot, when recovery
    /// fell back to the previous generation.
    pub fallback: Option<SnapshotError>,
}

/// Details of one successfully written checkpoint, delivered to the
/// [`CheckpointCtx::on_checkpoint`] callback (e.g. to truncate the WAL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointNote {
    /// Generation just written.
    pub generation: u64,
    /// Ingest messages consumed at this checkpoint.
    pub messages_seen: u64,
    /// Visible events emitted at this checkpoint.
    pub egress_events: u64,
    /// WAL records below this index are no longer needed by *any*
    /// retained generation and may be truncated. This trails
    /// `messages_seen` by one checkpoint interval because a fallback to
    /// the previous generation must still find its replay suffix.
    pub safe_truncate_index: u64,
}

type OnCheckpoint = Box<dyn FnMut(&CheckpointNote) + Send>;

struct CtxInner {
    participants: Vec<Arc<Mutex<dyn Checkpointable>>>,
    egress_events: Counter,
    recovery: Option<RecoveryInfo>,
    metrics: CheckpointMetrics,
    on_checkpoint: Option<OnCheckpoint>,
    force_requested: bool,
}

/// Shared checkpoint context threaded along a streamable chain.
///
/// Stateful stages register themselves at connect time (in sink-to-source
/// build order, which is deterministic for a given topology); the
/// [`CheckpointGate`] — built last, being nearest the source — snapshots
/// and restores every registered participant.
#[derive(Clone)]
pub struct CheckpointCtx {
    inner: Arc<Mutex<CtxInner>>,
}

impl Default for CheckpointCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl CheckpointCtx {
    /// A fresh context with no participants.
    pub fn new() -> Self {
        CheckpointCtx {
            inner: Arc::new(Mutex::new(CtxInner {
                participants: Vec::new(),
                egress_events: Counter::new(),
                recovery: None,
                metrics: CheckpointMetrics::new(),
                on_checkpoint: None,
                force_requested: false,
            })),
        }
    }

    /// Requests a checkpoint at the next punctuation regardless of the
    /// gate's `every_n` cadence. Used by a graceful service drain: the
    /// server punctuates each tenant at its watermark and wants that cut
    /// durable before the process exits, so the next start replays as
    /// little WAL as possible.
    pub fn request_checkpoint(&self) {
        lock(&self.inner).force_requested = true;
    }

    fn take_force_request(&self) -> bool {
        let mut inner = lock(&self.inner);
        core::mem::take(&mut inner.force_requested)
    }

    /// Registers a stateful operator. Called by the streamable combinators;
    /// registration order must be identical across the runs that write and
    /// restore a checkpoint (it is, for an unchanged topology).
    pub fn register(&self, participant: Arc<Mutex<dyn Checkpointable>>) {
        lock(&self.inner).participants.push(participant);
    }

    /// Number of registered stateful operators.
    pub fn participant_count(&self) -> usize {
        lock(&self.inner).participants.len()
    }

    /// The shared egress counter; bump it once per visible output event
    /// (the `checkpoint_egress` stage does this).
    pub fn egress_counter(&self) -> Counter {
        lock(&self.inner).egress_events.clone()
    }

    /// Visible events emitted so far.
    pub fn egress_events(&self) -> u64 {
        lock(&self.inner).egress_events.get()
    }

    /// Backs the checkpoint/recovery counters with `registry` under
    /// `{prefix}.checkpoint.*` / `{prefix}.recovery.*` names.
    pub fn bind_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        let mut inner = lock(&self.inner);
        let new = CheckpointMetrics::register(registry, prefix);
        // Carry over anything counted before binding — in particular a
        // restore performed at subscribe time, before the caller had a
        // chance to attach its registry.
        new.written.add(inner.metrics.written.get());
        new.bytes.add(inner.metrics.bytes.get());
        new.skipped.add(inner.metrics.skipped.get());
        new.errors.add(inner.metrics.errors.get());
        new.restores.add(inner.metrics.restores.get());
        new.fallbacks.add(inner.metrics.fallbacks.get());
        new.failures.add(inner.metrics.failures.get());
        inner.metrics = new;
    }

    /// Registers a callback invoked after every successful checkpoint —
    /// the hook for WAL truncation.
    pub fn on_checkpoint(&self, f: impl FnMut(&CheckpointNote) + Send + 'static) {
        lock(&self.inner).on_checkpoint = Some(Box::new(f));
    }

    /// What recovery restored, if the pipeline was recovered at connect
    /// time. `None` means a fresh start (no checkpoint on disk).
    pub fn recovery(&self) -> Option<RecoveryInfo> {
        lock(&self.inner).recovery.clone()
    }

    fn metrics(&self) -> CheckpointMetrics {
        lock(&self.inner).metrics.clone()
    }

    fn set_recovery(&self, info: RecoveryInfo) {
        lock(&self.inner).recovery = Some(info);
    }

    fn participants(&self) -> Vec<Arc<Mutex<dyn Checkpointable>>> {
        lock(&self.inner).participants.clone()
    }

    fn notify_checkpoint(&self, note: &CheckpointNote) {
        let cb = lock(&self.inner).on_checkpoint.take();
        if let Some(mut cb) = cb {
            cb(note);
            let mut inner = lock(&self.inner);
            if inner.on_checkpoint.is_none() {
                inner.on_checkpoint = Some(cb);
            }
        }
    }
}

/// One parsed, checksum-valid checkpoint slot.
struct SlotContents {
    generation: u64,
    messages_seen: u64,
    egress_events: u64,
    /// `(state_id, state bytes)` per participant, in registration order.
    frames: Vec<(String, Vec<u8>)>,
}

fn parse_slot(bytes: &[u8]) -> Result<SlotContents, SnapshotError> {
    let mut r = SnapshotReader::unseal(bytes, CHECKPOINT_MAGIC, SNAPSHOT_VERSION)?;
    let generation = r.get_u64()?;
    let messages_seen = r.get_u64()?;
    let egress_events = r.get_u64()?;
    let n = r.get_count()?;
    let mut frames = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.get_str()?;
        let body = r.get_bytes()?.to_vec();
        frames.push((id.to_string(), body));
    }
    if !r.is_exhausted() {
        return Err(SnapshotError::corrupt(format!(
            "{} trailing bytes after checkpoint body",
            r.remaining()
        )));
    }
    Ok(SlotContents {
        generation,
        messages_seen,
        egress_events,
        frames,
    })
}

/// Two-slot checkpoint storage in a directory.
pub struct Checkpointer {
    dir: PathBuf,
    /// Per-slot `(generation, messages_seen)` of the retained valid
    /// checkpoint, if any. Kept in memory to pick the write target and the
    /// safe WAL truncation floor without re-reading files.
    retained: [Option<(u64, u64)>; 2],
    next_generation: u64,
}

impl Checkpointer {
    /// Opens (creating if needed) the checkpoint directory and scans the
    /// two slots so new generations continue after any existing ones.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut retained = [None, None];
        let mut max_gen = 0u64;
        for (i, name) in SLOT_FILES.iter().enumerate() {
            let path = dir.join(name);
            if let Ok(bytes) = fs::read(&path) {
                if let Ok(slot) = parse_slot(&bytes) {
                    max_gen = max_gen.max(slot.generation);
                    retained[i] = Some((slot.generation, slot.messages_seen));
                }
            }
        }
        Ok(Checkpointer {
            dir,
            retained,
            next_generation: max_gen + 1,
        })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// WAL records below this index are covered by every retained valid
    /// generation and can be truncated.
    pub fn safe_truncate_index(&self) -> u64 {
        self.retained
            .iter()
            .flatten()
            .map(|&(_, msgs)| msgs)
            .min()
            .unwrap_or(0)
    }

    /// Writes one checkpoint over the *older* slot, in place: truncate,
    /// `write_all`, one `sync_data`. A crash mid-write tears only that
    /// slot — the other holds the newer generation, and its WAL suffix is
    /// still on disk because truncation runs after this returns and stays
    /// below [`Self::safe_truncate_index`]. A slot with no valid
    /// generation yet goes through `<slot>.tmp`, a rename and a directory
    /// sync: torn in place, a lone first slot could not be told from a
    /// damaged one. Returns the frame size in bytes.
    pub fn write(
        &mut self,
        messages_seen: u64,
        egress_events: u64,
        participants: &[Arc<Mutex<dyn Checkpointable>>],
    ) -> Result<u64, SnapshotError> {
        let generation = self.next_generation;
        let mut w = SnapshotWriter::new();
        w.put_u64(generation);
        w.put_u64(messages_seen);
        w.put_u64(egress_events);
        w.put_u64(participants.len() as u64);
        for p in participants {
            let p = lock(p);
            let mut sub = SnapshotWriter::new();
            p.encode_state(&mut sub)?;
            w.put_str(p.state_id());
            w.put_bytes(&sub.into_body());
        }
        let frame = w.seal(CHECKPOINT_MAGIC, SNAPSHOT_VERSION);
        let len = frame.len() as u64;

        // Target the slot whose retained generation is oldest (or empty).
        let slot = match (self.retained[0], self.retained[1]) {
            (None, _) => 0,
            (_, None) => 1,
            (Some((a, _)), Some((b, _))) => usize::from(a >= b),
        };
        let path = self.dir.join(SLOT_FILES[slot]);
        let tmp = path.with_extension("bin.tmp");
        let creating = self.retained[slot].is_none();
        let mut f = fs::File::create(if creating { &tmp } else { &path })?;
        f.write_all(&frame)?;
        f.sync_data()?;
        if creating {
            fs::rename(&tmp, &path)?;
            fs::File::open(&self.dir)?.sync_all()?;
        }
        self.retained[slot] = Some((generation, messages_seen));
        self.next_generation += 1;
        Ok(len)
    }

    /// Reads the newest checksum-valid checkpoint, if any.
    ///
    /// * Neither slot exists → `Ok(None)` (fresh start). A torn first
    ///   write leaves only `<slot>.tmp`, which is never read.
    /// * Newest-generation slot corrupt, other valid → the valid one, with
    ///   the typed corruption error attached as
    ///   [`RecoveryInfo::fallback`].
    /// * Every present slot corrupt → the typed error.
    fn read_newest(&self) -> Result<Option<(SlotContents, Option<SnapshotError>)>, SnapshotError> {
        let mut valid: Vec<SlotContents> = Vec::new();
        let mut first_error: Option<SnapshotError> = None;
        let mut present = 0usize;
        for name in SLOT_FILES {
            let path = self.dir.join(name);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            present += 1;
            match parse_slot(&bytes) {
                Ok(slot) => valid.push(slot),
                Err(e) => first_error = Some(first_error.unwrap_or(e)),
            }
        }
        if present == 0 {
            return Ok(None);
        }
        valid.sort_by_key(|s| core::cmp::Reverse(s.generation));
        match valid.into_iter().next() {
            Some(newest) => Ok(Some((newest, first_error))),
            None => Err(first_error.expect("present but no valid slot implies an error")),
        }
    }
}

/// The checkpointing stage, inserted directly after a pipeline's source by
/// [`crate::Streamable::checkpointed`].
///
/// Counts every ingested message (so checkpoint offsets line up with WAL
/// record indices), restores registered participants from the newest valid
/// checkpoint when constructed, and writes a checkpoint after every
/// `every_n_punctuations` forwarded punctuations plus one at completion.
pub struct CheckpointGate<P: Payload> {
    ctx: CheckpointCtx,
    checkpointer: Checkpointer,
    every_n: u32,
    puncts_since: u32,
    messages_seen: u64,
    failed: bool,
    next: Box<dyn Observer<P>>,
}

impl<P: Payload> CheckpointGate<P> {
    /// Builds the gate and immediately runs recovery against the
    /// checkpointer's directory. A recovery failure poisons the chain with
    /// a typed [`StreamError::RecoveryFailed`] — never a panic.
    pub fn new(
        ctx: CheckpointCtx,
        checkpointer: Checkpointer,
        every_n_punctuations: u32,
        next: Box<dyn Observer<P>>,
    ) -> Self {
        let mut gate = CheckpointGate {
            ctx,
            checkpointer,
            every_n: every_n_punctuations,
            puncts_since: 0,
            messages_seen: 0,
            failed: false,
            next,
        };
        gate.recover();
        gate
    }

    fn fail_recovery(&mut self, err: SnapshotError) {
        self.ctx.metrics().failures.inc();
        self.failed = true;
        self.next.on_error(StreamError::RecoveryFailed {
            detail: err.to_string(),
        });
    }

    fn recover(&mut self) {
        let newest = match self.checkpointer.read_newest() {
            Ok(None) => return,
            Ok(Some(found)) => found,
            Err(e) => return self.fail_recovery(e),
        };
        let (slot, fallback) = newest;
        let participants = self.ctx.participants();
        if participants.len() != slot.frames.len() {
            return self.fail_recovery(SnapshotError::corrupt(format!(
                "checkpoint holds {} operator states but the pipeline registered {}",
                slot.frames.len(),
                participants.len()
            )));
        }
        for (p, (id, body)) in participants.iter().zip(&slot.frames) {
            // The participant guard MUST be released before fail_recovery:
            // the typed error is delivered down the live chain, which locks
            // the very operator that failed to restore (it sits behind the
            // same shared cell). Failing while holding the guard deadlocks.
            let restored = {
                let mut p = lock(p);
                if p.state_id() != id {
                    Err(SnapshotError::corrupt(format!(
                        "checkpoint state '{id}' does not match operator '{}'",
                        p.state_id()
                    )))
                } else {
                    let mut r = SnapshotReader::new(body);
                    p.restore_state(&mut r).and_then(|()| {
                        if r.is_exhausted() {
                            Ok(())
                        } else {
                            Err(SnapshotError::corrupt(format!(
                                "operator '{id}' left {} bytes of its state frame unread",
                                r.remaining()
                            )))
                        }
                    })
                }
            };
            if let Err(e) = restored {
                return self.fail_recovery(e);
            }
        }
        self.messages_seen = slot.messages_seen;
        self.ctx.egress_counter().add(slot.egress_events);
        let metrics = self.ctx.metrics();
        metrics.restores.inc();
        if fallback.is_some() {
            metrics.fallbacks.inc();
        }
        self.ctx.set_recovery(RecoveryInfo {
            generation: slot.generation,
            messages_seen: slot.messages_seen,
            egress_events: slot.egress_events,
            fallback,
        });
    }

    fn take_checkpoint(&mut self) {
        let metrics = self.ctx.metrics();
        let participants = self.ctx.participants();
        let egress = self.ctx.egress_events();
        match self
            .checkpointer
            .write(self.messages_seen, egress, &participants)
        {
            Ok(bytes) => {
                metrics.written.inc();
                metrics.bytes.add(bytes);
                // The generation is durable: let every operator advance
                // deferred cleanup (e.g. spill-file GC) that must lag the
                // retained checkpoint slots.
                for p in &participants {
                    lock(p).on_checkpoint_committed();
                }
                let note = CheckpointNote {
                    generation: self.checkpointer.next_generation - 1,
                    messages_seen: self.messages_seen,
                    egress_events: egress,
                    safe_truncate_index: self.checkpointer.safe_truncate_index(),
                };
                self.ctx.notify_checkpoint(&note);
            }
            // A participant that cannot encode (e.g. a baseline sorter
            // without snapshot support) makes the whole pipeline
            // non-checkpointable; the stream itself is unaffected.
            Err(SnapshotError::Unsupported { .. }) => metrics.skipped.inc(),
            // An I/O failure degrades durability to the previous good
            // generation but must not corrupt or stop the live stream.
            Err(_) => metrics.errors.inc(),
        }
    }
}

impl<P: Payload> Observer<P> for CheckpointGate<P> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        if self.failed {
            return;
        }
        self.messages_seen += 1;
        self.next.on_batch(batch);
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        if self.failed {
            return;
        }
        self.messages_seen += 1;
        self.next.on_punctuation(t);
        // The downstream call returned: every operator has quiesced at
        // this cut and can be encoded consistently.
        self.puncts_since += 1;
        let forced = self.ctx.take_force_request();
        if self.every_n > 0 && (forced || self.puncts_since >= self.every_n) {
            self.puncts_since = 0;
            self.take_checkpoint();
        }
    }

    fn on_completed(&mut self) {
        if self.failed {
            return;
        }
        self.messages_seen += 1;
        self.next.on_completed();
        // Final checkpoint: a restart after completion replays nothing.
        if self.every_n > 0 {
            self.take_checkpoint();
        }
    }

    fn on_error(&mut self, err: StreamError) {
        if self.failed {
            return;
        }
        self.failed = true;
        self.next.on_error(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::Output;
    use impatience_core::StateCodec;

    /// A minimal stateful participant: remembers a running sum.
    struct SumState {
        sum: u64,
    }

    impl Checkpointable for SumState {
        fn state_id(&self) -> &'static str {
            "test.sum"
        }
        fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
            self.sum.encode(w);
            Ok(())
        }
        fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
            self.sum = u64::decode(r)?;
            Ok(())
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("impatience-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn participant(sum: u64) -> Arc<Mutex<SumState>> {
        Arc::new(Mutex::new(SumState { sum }))
    }

    #[test]
    fn write_and_recover_round_trip() {
        let dir = tempdir("roundtrip");
        let p = participant(41);
        let mut ck = Checkpointer::open(&dir).unwrap();
        ck.write(10, 3, &[p.clone() as Arc<Mutex<dyn Checkpointable>>])
            .unwrap();
        p.lock().unwrap().sum = 99;
        ck.write(20, 7, &[p.clone() as Arc<Mutex<dyn Checkpointable>>])
            .unwrap();

        let ck2 = Checkpointer::open(&dir).unwrap();
        let (slot, fallback) = ck2.read_newest().unwrap().unwrap();
        assert!(fallback.is_none());
        assert_eq!(slot.generation, 2);
        assert_eq!(slot.messages_seen, 20);
        assert_eq!(slot.egress_events, 7);
        assert_eq!(slot.frames.len(), 1);
        assert_eq!(slot.frames[0].0, "test.sum");
        assert_eq!(ck2.safe_truncate_index(), 10, "older slot still retained");
        assert_eq!(ck2.next_generation, 3, "generations continue after reopen");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_recovers_nothing() {
        let dir = tempdir("empty");
        let ck = Checkpointer::open(&dir).unwrap();
        assert!(ck.read_newest().unwrap().is_none());
        assert_eq!(ck.safe_truncate_index(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_generation() {
        let dir = tempdir("fallback");
        let p = participant(1);
        let mut ck = Checkpointer::open(&dir).unwrap();
        ck.write(10, 1, &[p.clone() as Arc<Mutex<dyn Checkpointable>>])
            .unwrap(); // gen 1 → slot a
        p.lock().unwrap().sum = 2;
        ck.write(20, 2, &[p.clone() as Arc<Mutex<dyn Checkpointable>>])
            .unwrap(); // gen 2 → slot b

        // Flip one byte of the newest slot (gen 2 lives in slot b).
        let newest = dir.join(SLOT_FILES[1]);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();

        let ck2 = Checkpointer::open(&dir).unwrap();
        let (slot, fallback) = ck2.read_newest().unwrap().unwrap();
        assert_eq!(slot.generation, 1, "fell back to the previous generation");
        assert_eq!(slot.messages_seen, 10);
        assert!(fallback.is_some(), "typed corruption error is surfaced");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_slots_corrupt_is_a_typed_error_not_a_panic() {
        let dir = tempdir("allcorrupt");
        let p = participant(1);
        let mut ck = Checkpointer::open(&dir).unwrap();
        ck.write(10, 0, &[p.clone() as Arc<Mutex<dyn Checkpointable>>])
            .unwrap();
        ck.write(20, 0, &[p as Arc<Mutex<dyn Checkpointable>>])
            .unwrap();
        for name in SLOT_FILES {
            let path = dir.join(name);
            let mut bytes = fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            fs::write(&path, &bytes).unwrap();
        }
        let ck2 = Checkpointer::open(&dir).unwrap();
        assert!(matches!(
            ck2.read_newest(),
            Err(SnapshotError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_checkpoint_write_is_detected() {
        let dir = tempdir("torn");
        let p = participant(5);
        let mut ck = Checkpointer::open(&dir).unwrap();
        ck.write(10, 0, &[p as Arc<Mutex<dyn Checkpointable>>])
            .unwrap();
        let path = dir.join(SLOT_FILES[0]);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let ck2 = Checkpointer::open(&dir).unwrap();
        assert!(matches!(
            ck2.read_newest(),
            Err(SnapshotError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_first_write_leaves_a_fresh_start() {
        let dir = tempdir("torn-first");
        let p = [participant(5) as Arc<Mutex<dyn Checkpointable>>];
        let (slot_a, tmp) = (dir.join(SLOT_FILES[0]), dir.join("ckpt-a.bin.tmp"));
        let mut ck = Checkpointer::open(&dir).unwrap();
        let len = ck.write(10, 0, &p).unwrap() as usize;
        let frame = fs::read(&slot_a).unwrap();
        assert!(!tmp.exists(), "the temp file was renamed into place");
        // A crash inside the first write leaves a prefix of the temp file
        // and no slot: nothing to restore, nothing truncated from the WAL.
        for keep in [0, len - 1, len / 2] {
            fs::remove_file(&slot_a).unwrap();
            fs::write(&tmp, &frame[..keep]).unwrap();
            ck = Checkpointer::open(&dir).unwrap();
            assert!(ck.read_newest().unwrap().is_none(), "keep {keep}");
            // The retried first write replaces the stale temp file.
            ck.write(10, 0, &p).unwrap();
            assert!(!tmp.exists());
            assert_eq!(fs::read(&slot_a).unwrap(), frame);
        }

        // An in-place write cut before its first byte falls back, and
        // says so.
        ck.write(20, 0, &p).unwrap(); // gen 2 → slot b, created
        ck.write(30, 0, &p).unwrap(); // gen 3 → slot a, in place
        fs::write(&slot_a, b"").unwrap();
        let (slot, fallback) = Checkpointer::open(&dir)
            .unwrap()
            .read_newest()
            .unwrap()
            .unwrap();
        assert_eq!(slot.generation, 2);
        assert!(matches!(fallback, Some(SnapshotError::Corrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_slot_overwritten_by_a_shorter_frame_has_no_stale_tail() {
        let dir = tempdir("shorter");
        let p = participant(7) as Arc<Mutex<dyn Checkpointable>>;
        let (three, one) = ([p.clone(), p.clone(), p.clone()], [p]);
        let mut ck = Checkpointer::open(&dir).unwrap();
        let long = ck.write(10, 0, &three).unwrap(); // slot a
        ck.write(20, 0, &one).unwrap(); // slot b
        let short = ck.write(30, 0, &one).unwrap(); // slot a, in place
        assert!(short < long);
        assert_eq!(fs::metadata(dir.join(SLOT_FILES[0])).unwrap().len(), short);
        let (slot, fallback) = Checkpointer::open(&dir)
            .unwrap()
            .read_newest()
            .unwrap()
            .unwrap();
        assert_eq!((slot.generation, slot.messages_seen), (3, 30));
        assert_eq!(slot.frames.len(), 1);
        assert!(fallback.is_none(), "both slots parse");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_1_slot_is_refused_typed() {
        let dir = tempdir("v1");
        let p = participant(3);
        // A well-formed one-participant checkpoint, sealed as version 1.
        let mut w = SnapshotWriter::new();
        for header in [1, 10, 0, 1] {
            w.put_u64(header); // generation, messages, egress, participants
        }
        w.put_str("test.sum");
        let mut state = SnapshotWriter::new();
        p.lock().unwrap().encode_state(&mut state).unwrap();
        w.put_bytes(&state.into_body());
        fs::write(dir.join(SLOT_FILES[0]), w.seal(CHECKPOINT_MAGIC, 1)).unwrap();

        let ctx = CheckpointCtx::new();
        ctx.register(p);
        let (out, sink) = Output::<u32>::new();
        let _gate = CheckpointGate::new(
            ctx.clone(),
            Checkpointer::open(&dir).unwrap(),
            1,
            Box::new(sink),
        );
        match out.error() {
            Some(StreamError::RecoveryFailed { detail }) => {
                assert!(detail.contains("version 1"), "{detail}")
            }
            other => panic!("expected RecoveryFailed, got {other:?}"),
        }
        assert!(ctx.recovery().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gate_restores_participants_and_counts_messages() {
        let dir = tempdir("gate");
        let p = participant(0);

        // First run: two punctuations per checkpoint, three messages.
        {
            let ctx = CheckpointCtx::new();
            ctx.register(p.clone());
            let (_out, sink) = Output::<u32>::new();
            let mut gate = CheckpointGate::new(
                ctx.clone(),
                Checkpointer::open(&dir).unwrap(),
                2,
                Box::new(sink),
            );
            assert!(ctx.recovery().is_none(), "fresh start");
            p.lock().unwrap().sum = 11;
            ctx.egress_counter().add(4);
            gate.on_batch(EventBatch::from_events(vec![]));
            gate.on_punctuation(Timestamp::new(1));
            gate.on_punctuation(Timestamp::new(2)); // checkpoint here: 3 msgs
            gate.on_batch(EventBatch::from_events(vec![])); // beyond checkpoint
        } // crash

        // Second run: state and offsets come back.
        let p2 = participant(0);
        let ctx = CheckpointCtx::new();
        ctx.register(p2.clone());
        let (_out, sink) = Output::<u32>::new();
        let gate = CheckpointGate::new(
            ctx.clone(),
            Checkpointer::open(&dir).unwrap(),
            2,
            Box::new(sink),
        );
        let info = ctx.recovery().expect("recovered");
        assert_eq!(info.messages_seen, 3);
        assert_eq!(info.egress_events, 4);
        assert!(info.fallback.is_none());
        assert_eq!(p2.lock().unwrap().sum, 11, "participant state restored");
        assert_eq!(gate.messages_seen, 3);
        assert_eq!(ctx.egress_events(), 4, "egress counter resumes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gate_topology_mismatch_is_typed_error() {
        let dir = tempdir("mismatch");
        let p = participant(3);
        {
            let ctx = CheckpointCtx::new();
            ctx.register(p.clone());
            let (_out, sink) = Output::<u32>::new();
            let mut gate =
                CheckpointGate::new(ctx, Checkpointer::open(&dir).unwrap(), 1, Box::new(sink));
            gate.on_punctuation(Timestamp::new(1));
        }
        // Recover with zero registered participants: count mismatch.
        let ctx = CheckpointCtx::new();
        let (out, sink) = Output::<u32>::new();
        let _gate = CheckpointGate::new(ctx, Checkpointer::open(&dir).unwrap(), 1, Box::new(sink));
        match out.error() {
            Some(StreamError::RecoveryFailed { detail }) => {
                assert!(detail.contains("registered"), "{detail}")
            }
            other => panic!("expected RecoveryFailed, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
