//! Ingress: turning an arrival sequence into a punctuated stream.
//!
//! SPEs "insert punctuations based on user-specified settings when events
//! are ingested" (§III-A): every `frequency` events, a punctuation is
//! emitted at `high_watermark - reorder_latency`. The reorder latency is
//! the buffer-and-sort knob — a low value gives low latency but drops more
//! late events; a high value the reverse (Fig 1, Table II).
//!
//! For durable pipelines this module also provides the append-only
//! **write-ahead ingest log** ([`Wal`] / [`WalIngress`]): every ingested
//! message is persisted (checksummed, batched fsync) before it is
//! considered acknowledged, so crash recovery can restore the newest
//! checkpoint and replay exactly the unprocessed suffix.

use crate::streamable::Streamable;
use impatience_core::{
    crc32c, Event, EventBatch, IngressStats, MemoryMeter, Payload, SnapshotError, SnapshotReader,
    SnapshotWriter, StateCodec, StreamMessage, TickDuration, Timestamp, DEFAULT_BATCH_SIZE,
};
use impatience_sort::OnlineSorter;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Punctuation-insertion policy.
#[derive(Debug, Clone, Copy)]
pub struct IngressPolicy {
    /// Emit a punctuation after every this many events (the paper's
    /// "punctuation frequency", Fig 8's x-axis).
    pub punctuation_frequency: usize,
    /// Punctuation timestamp = high watermark − this latency.
    pub reorder_latency: TickDuration,
    /// Events per emitted batch.
    pub batch_size: usize,
}

impl Default for IngressPolicy {
    fn default() -> Self {
        IngressPolicy {
            punctuation_frequency: 10_000,
            reorder_latency: TickDuration::secs(1),
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }
}

impl IngressPolicy {
    /// Policy with the given frequency and latency, default batch size.
    pub fn new(punctuation_frequency: usize, reorder_latency: TickDuration) -> Self {
        IngressPolicy {
            punctuation_frequency,
            reorder_latency,
            ..Default::default()
        }
    }
}

/// Converts an arrival-ordered event sequence into punctuated disordered
/// messages per `policy`. Does **not** sort or drop anything — that is the
/// sorting operator's job downstream.
pub fn punctuate_arrivals<P: Payload>(
    arrivals: Vec<Event<P>>,
    policy: &IngressPolicy,
) -> Vec<StreamMessage<P>> {
    let mut msgs = Vec::new();
    let mut batch = EventBatch::with_capacity(policy.batch_size.min(arrivals.len()));
    let mut high = Timestamp::MIN;
    let mut last_punct = Timestamp::MIN;
    let mut since_punct = 0usize;
    for e in arrivals {
        high = high.max(e.sync_time);
        batch.push(e);
        since_punct += 1;
        let batch_full = batch.len() >= policy.batch_size;
        let punct_due = since_punct >= policy.punctuation_frequency;
        if batch_full || punct_due {
            if !batch.is_empty() {
                let cap = policy.batch_size.min(64);
                msgs.push(StreamMessage::Batch(core::mem::replace(
                    &mut batch,
                    EventBatch::with_capacity(cap),
                )));
            }
            if punct_due {
                since_punct = 0;
                let p = high.saturating_sub(policy.reorder_latency);
                if p > last_punct {
                    last_punct = p;
                    msgs.push(StreamMessage::Punctuation(p));
                }
            }
        }
    }
    if !batch.is_empty() {
        msgs.push(StreamMessage::Batch(batch));
    }
    msgs.push(StreamMessage::Completed);
    msgs
}

/// Full ingress: arrivals → punctuated → ordered [`Streamable`] through
/// `sorter` (Impatience sort, or a baseline for comparison). Late-event
/// drops and throughput counters go to `stats`; sorter state bytes to
/// `meter`.
pub fn ingress_sorted<P: Payload>(
    arrivals: Vec<Event<P>>,
    policy: &IngressPolicy,
    sorter: Box<dyn OnlineSorter<Event<P>>>,
    meter: &MemoryMeter,
    stats: &IngressStats,
) -> Streamable<P> {
    stats.add_ingested(arrivals.len() as u64);
    let msgs = punctuate_arrivals(arrivals, policy);
    let stats = stats.clone();
    let disordered = Streamable::from_connector(move |mut sink| {
        for m in msgs {
            if m.is_punctuation() {
                stats.add_punctuation();
            }
            sink.on_message(m);
        }
    });
    disordered
        .sorted(sorter, meter, Default::default())
        .expect("default sort policy")
}

/// Tuning knobs for the write-ahead ingest log.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Roll to a new segment file once the current one reaches this size.
    pub segment_bytes: u64,
    /// fsync after at most this many unsynced records. `1` syncs every
    /// append; larger values batch the cost (a crash may lose the unsynced
    /// tail, which is exactly the *unacknowledged* suffix — the sender
    /// must resend it).
    pub sync_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 4 << 20,
            sync_every: 64,
        }
    }
}

const WAL_SEG_PREFIX: &str = "wal-";
const WAL_SEG_SUFFIX: &str = ".seg";
/// `len: u32 LE | crc32c(payload): u32 LE` precede every record payload.
const WAL_RECORD_HEADER: usize = 8;

/// The payload length as the record header stores it; a payload the
/// `u32` cannot hold is refused rather than written with a wrapped length.
fn record_len(payload_len: usize) -> Result<u32, SnapshotError> {
    u32::try_from(payload_len).map_err(|_| SnapshotError::Io {
        detail: format!("wal record payload of {payload_len} B exceeds the u32 length header"),
    })
}

fn segment_path(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("{WAL_SEG_PREFIX}{base:020}{WAL_SEG_SUFFIX}"))
}

/// Sorted `(base_index, path)` list of the segments present in `dir`.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, SnapshotError> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(WAL_SEG_PREFIX)
            .and_then(|s| s.strip_suffix(WAL_SEG_SUFFIX))
        else {
            continue;
        };
        let Ok(base) = stem.parse::<u64>() else {
            continue;
        };
        segs.push((base, entry.path()));
    }
    segs.sort_by_key(|&(base, _)| base);
    Ok(segs)
}

/// A parsed segment: `(global_index, payload)` records plus the byte
/// length of the valid prefix they occupy.
type ParsedSegment = (Vec<(u64, Vec<u8>)>, u64);

/// Parses one segment's records as `(global_index, payload)` pairs.
///
/// A record whose header or payload runs past the end of the *last*
/// segment is a torn write — the valid prefix is returned along with the
/// byte length of that prefix so callers can repair the file. Anywhere
/// else, or on a checksum mismatch with all bytes present, the segment is
/// corrupt.
fn parse_segment(bytes: &[u8], base: u64, is_last: bool) -> Result<ParsedSegment, SnapshotError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut index = base;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        let torn = |detail: String| -> Result<(), SnapshotError> {
            if is_last {
                Ok(())
            } else {
                Err(SnapshotError::corrupt(detail))
            }
        };
        if remaining < WAL_RECORD_HEADER {
            torn(format!(
                "wal record {index}: {remaining} header bytes mid-log"
            ))?;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let body_at = pos + WAL_RECORD_HEADER;
        if len > bytes.len() - body_at {
            torn(format!(
                "wal record {index}: length {len} exceeds segment mid-log"
            ))?;
            break;
        }
        let payload = &bytes[body_at..body_at + len];
        if crc32c(payload) != crc {
            // All bytes present but the checksum disagrees: bit rot, not a
            // torn append — always an error.
            return Err(SnapshotError::corrupt(format!(
                "wal record {index}: checksum mismatch"
            )));
        }
        records.push((index, payload.to_vec()));
        pos = body_at + len;
        index += 1;
    }
    Ok((records, pos as u64))
}

/// Append-only segmented write-ahead log of opaque records.
///
/// Records get consecutive global indices starting at 0; segment files are
/// named `wal-{base}.seg` after the index of their first record. Appends
/// are checksummed and fsynced in batches of [`WalConfig::sync_every`];
/// [`Wal::truncate_before`] discards segments wholly below a checkpoint's
/// safe index. Opening an existing log repairs a torn tail (the crash may
/// have lost only unsynced — unacknowledged — records).
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    next_index: u64,
    synced_index: u64,
    current: Option<(fs::File, u64)>,
    current_bytes: u64,
    /// The one record frame, `len | crc | payload`: encoded in place,
    /// written with a single `write_all`, and reused by the next append.
    frame: Vec<u8>,
    /// The first failed record write. The segment may end in a torn
    /// frame, so every later append is refused with the same error —
    /// nothing is ever written behind it, and reopening repairs the tail.
    failed: Option<SnapshotError>,
}

impl Wal {
    /// Opens (creating if needed) the log in `dir` with default tuning.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        Self::open_with(dir, WalConfig::default())
    }

    /// Opens (creating if needed) the log in `dir`.
    pub fn open_with(dir: impl Into<PathBuf>, config: WalConfig) -> Result<Self, SnapshotError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let segs = list_segments(&dir)?;
        let mut next_index = 0u64;
        let mut current = None;
        let mut current_bytes = 0u64;
        if let Some((base, path)) = segs.last() {
            let bytes = fs::read(path)?;
            let (records, valid_len) = parse_segment(&bytes, *base, true)?;
            if valid_len < bytes.len() as u64 {
                // Torn tail: cut the file back to its valid prefix so new
                // appends don't interleave with garbage.
                let f = fs::OpenOptions::new().write(true).open(path)?;
                f.set_len(valid_len)?;
                f.sync_all()?;
            }
            next_index = base + records.len() as u64;
            // Resume appending into the tail segment. Rolling instead
            // would collide on the segment name whenever the repaired
            // tail holds zero records (`wal-{next_index}` already
            // exists), and would litter the log with short segments.
            let file = fs::OpenOptions::new().append(true).open(path)?;
            current = Some((file, *base));
            current_bytes = valid_len;
        }
        Ok(Wal {
            dir,
            config,
            next_index,
            synced_index: next_index,
            current,
            current_bytes,
            frame: Vec::new(),
            failed: None,
        })
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Index the next appended record will receive.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Records at indices below this are guaranteed on stable storage —
    /// the acknowledgeable prefix.
    pub fn synced_index(&self) -> u64 {
        self.synced_index
    }

    /// Appends one record, returning its global index. Rolls segments and
    /// batches fsyncs per the [`WalConfig`].
    ///
    /// A payload too large for the record header and any write failure
    /// are typed errors; after a write failure the log refuses every
    /// further append with that same error (see [`Wal`]'s torn-tail
    /// repair on reopen).
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, SnapshotError> {
        self.append_with(|frame| frame.extend_from_slice(payload))
    }

    /// [`Self::append`] with the payload produced by `encode` directly
    /// behind the header placeholder in the reused frame buffer, so a
    /// record costs no allocation and no copy before the write.
    fn append_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<u64, SnapshotError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        self.frame.clear();
        self.frame.extend_from_slice(&[0; WAL_RECORD_HEADER]);
        encode(&mut self.frame);
        let (header, payload) = self.frame.split_at_mut(WAL_RECORD_HEADER);
        header[..4].copy_from_slice(&record_len(payload.len())?.to_le_bytes());
        header[4..].copy_from_slice(&crc32c(payload).to_le_bytes());

        let roll = match &self.current {
            None => true,
            Some(_) => self.current_bytes >= self.config.segment_bytes,
        };
        if roll {
            self.sync()?;
            let path = segment_path(&self.dir, self.next_index);
            let file = fs::OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)?;
            self.current = Some((file, self.next_index));
            self.current_bytes = 0;
        }
        let (file, _) = self.current.as_mut().expect("segment just opened");
        // Records synced into a new segment are durable only once its name
        // is: one directory sync per roll, latched like a failed write.
        let named = if roll {
            fs::File::open(&self.dir).and_then(|d| d.sync_all())
        } else {
            Ok(())
        };
        if let Err(e) = named.and_then(|()| file.write_all(&self.frame)) {
            let e = SnapshotError::from(e);
            self.failed = Some(e.clone());
            return Err(e);
        }
        self.current_bytes += self.frame.len() as u64;
        let index = self.next_index;
        self.next_index += 1;
        if self.next_index - self.synced_index >= self.config.sync_every {
            self.sync()?;
        }
        Ok(index)
    }

    /// Forces every appended record to stable storage.
    pub fn sync(&mut self) -> Result<(), SnapshotError> {
        if let Some((file, _)) = &self.current {
            file.sync_all()?;
        }
        self.synced_index = self.next_index;
        Ok(())
    }

    /// Deletes segments whose records all lie below `index` (typically a
    /// checkpoint's safe-truncation floor). The active segment is never
    /// deleted. Returns the number of segments removed.
    pub fn truncate_before(&mut self, index: u64) -> Result<usize, SnapshotError> {
        let segs = list_segments(&self.dir)?;
        let active_base = self.current.as_ref().map(|&(_, base)| base);
        let mut removed = 0usize;
        for pair in segs.windows(2) {
            let (base, ref path) = pair[0];
            let (next_base, _) = pair[1];
            if next_base <= index && Some(base) != active_base {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Reads every record with global index `>= start` from the log in `dir`.
///
/// A torn tail on the final segment is tolerated (those records were never
/// acknowledged); a checksum mismatch or a hole anywhere else is a typed
/// [`SnapshotError::Corrupt`]. An empty or missing directory replays
/// nothing.
pub fn replay_wal(dir: &Path, start: u64) -> Result<Vec<(u64, Vec<u8>)>, SnapshotError> {
    let segs = match list_segments(dir) {
        Ok(s) => s,
        Err(SnapshotError::Io { .. }) if !dir.exists() => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for (i, (base, path)) in segs.iter().enumerate() {
        let is_last = i + 1 == segs.len();
        // Skip segments wholly below `start` without reading them.
        if let Some(&(next_base, _)) = segs.get(i + 1) {
            if next_base <= start {
                continue;
            }
            // Segments must abut: record count is implied by the next base.
            let bytes = fs::read(path)?;
            let (records, _) = parse_segment(&bytes, *base, false)?;
            let found = *base + records.len() as u64;
            if found != next_base {
                return Err(SnapshotError::corrupt(format!(
                    "wal segment {base} ends at record {found} but the next segment starts at \
                     {next_base}"
                )));
            }
            out.extend(records.into_iter().filter(|&(idx, _)| idx >= start));
        } else {
            let bytes = fs::read(path)?;
            let (records, _) = parse_segment(&bytes, *base, is_last)?;
            out.extend(records.into_iter().filter(|&(idx, _)| idx >= start));
        }
    }
    Ok(out)
}

/// A typed write-ahead log of [`StreamMessage`]s — the durable front door
/// of a checkpointed pipeline.
///
/// Record indices line up 1:1 with the message counts a
/// [`CheckpointGate`](crate::checkpoint::CheckpointGate) stores, so
/// recovery is: restore the checkpoint at message offset `M`, then feed
/// [`WalIngress::replay_from`]`(dir, M)` back into the input.
pub struct WalIngress<P: Payload> {
    wal: Wal,
    _p: core::marker::PhantomData<P>,
}

impl<P: Payload> WalIngress<P> {
    /// Opens (creating if needed) the log in `dir` with default tuning.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        Self::open_with(dir, WalConfig::default())
    }

    /// Opens (creating if needed) the log in `dir`.
    pub fn open_with(dir: impl Into<PathBuf>, config: WalConfig) -> Result<Self, SnapshotError> {
        Ok(WalIngress {
            wal: Wal::open_with(dir, config)?,
            _p: core::marker::PhantomData,
        })
    }

    /// The underlying record log.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Index the next appended message will receive.
    pub fn next_index(&self) -> u64 {
        self.wal.next_index()
    }

    /// Logs one message, returning its global index. The message is only
    /// *acknowledgeable* once [`Self::sync`] (or a batched auto-sync)
    /// covers it.
    pub fn append(&mut self, msg: &StreamMessage<P>) -> Result<u64, SnapshotError> {
        self.append_tagged(msg, 0)
    }

    /// Logs one message carrying an application-level `tag` (the serving
    /// layer stores the client session sequence number here, tying its
    /// ingest acks to WAL-durable offsets). Untagged appends write tag 0.
    pub fn append_tagged(
        &mut self,
        msg: &StreamMessage<P>,
        tag: u64,
    ) -> Result<u64, SnapshotError> {
        self.wal.append_with(|frame| {
            let mut w = SnapshotWriter::with_buffer(core::mem::take(frame));
            w.put_u64(tag);
            msg.encode(&mut w);
            *frame = w.into_body();
        })
    }

    /// Forces every appended message to stable storage.
    pub fn sync(&mut self) -> Result<(), SnapshotError> {
        self.wal.sync()
    }

    /// Drops segments wholly below `index`; see [`Wal::truncate_before`].
    pub fn truncate_before(&mut self, index: u64) -> Result<usize, SnapshotError> {
        self.wal.truncate_before(index)
    }

    /// Decodes every logged message with index `>= start`, dropping tags.
    pub fn replay_from(
        dir: &Path,
        start: u64,
    ) -> Result<Vec<(u64, StreamMessage<P>)>, SnapshotError> {
        Ok(Self::replay_tagged_from(dir, start)?
            .into_iter()
            .map(|(index, _, msg)| (index, msg))
            .collect())
    }

    /// Decodes every logged message with index `>= start` as
    /// `(index, tag, message)` triples. The tag is whatever
    /// [`Self::append_tagged`] stored (0 for untagged appends); the
    /// serving layer uses it to recover the last applied session sequence
    /// after a process restart.
    pub fn replay_tagged_from(
        dir: &Path,
        start: u64,
    ) -> Result<Vec<(u64, u64, StreamMessage<P>)>, SnapshotError> {
        let mut out = Vec::new();
        for (index, payload) in replay_wal(dir, start)? {
            let mut r = SnapshotReader::new(&payload);
            let tag = r.get_u64()?;
            let msg = StreamMessage::<P>::decode(&mut r)?;
            if !r.is_exhausted() {
                return Err(SnapshotError::corrupt(format!(
                    "wal record {index}: {} trailing bytes after message",
                    r.remaining()
                )));
            }
            out.push((index, tag, msg));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::validate_punctuation_contract;
    use impatience_sort::ImpatienceSorter;

    fn ev(t: i64) -> Event<u32> {
        Event::point(Timestamp::new(t), t as u32)
    }

    #[test]
    fn punctuations_trail_high_watermark_by_latency() {
        let policy = IngressPolicy {
            punctuation_frequency: 2,
            reorder_latency: TickDuration::ticks(5),
            batch_size: 100,
        };
        let msgs = punctuate_arrivals(vec![ev(10), ev(20), ev(15), ev(30)], &policy);
        let puncts: Vec<i64> = msgs
            .iter()
            .filter_map(|m| match m {
                StreamMessage::Punctuation(t) => Some(t.ticks()),
                _ => None,
            })
            .collect();
        // After events {10,20}: high=20, punct 15. After {15,30}: high=30,
        // punct 25.
        assert_eq!(puncts, vec![15, 25]);
        // The raw punctuated arrivals legitimately violate the contract —
        // event 15 arrives exactly `latency` late, at the punctuation
        // boundary. The downstream sorting operator drops such events;
        // ingress itself promises nothing.
        assert_eq!(validate_punctuation_contract(&msgs), Err(2));
    }

    #[test]
    fn punctuations_never_regress() {
        let policy = IngressPolicy {
            punctuation_frequency: 1,
            reorder_latency: TickDuration::ticks(0),
            batch_size: 1,
        };
        // Decreasing arrivals: watermark stays at 30, so only one
        // punctuation value is ever legal.
        let msgs = punctuate_arrivals(vec![ev(30), ev(20), ev(10)], &policy);
        let puncts: Vec<i64> = msgs
            .iter()
            .filter_map(|m| match m {
                StreamMessage::Punctuation(t) => Some(t.ticks()),
                _ => None,
            })
            .collect();
        assert_eq!(puncts, vec![30]);
    }

    #[test]
    fn batches_respect_batch_size() {
        let policy = IngressPolicy {
            punctuation_frequency: 1_000_000,
            reorder_latency: TickDuration::ZERO,
            batch_size: 3,
        };
        let msgs = punctuate_arrivals((0..10).map(ev).collect(), &policy);
        let sizes: Vec<usize> = msgs
            .iter()
            .filter_map(|m| match m {
                StreamMessage::Batch(b) => Some(b.len()),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
        assert!(matches!(msgs.last(), Some(StreamMessage::Completed)));
    }

    #[test]
    fn ingress_sorted_end_to_end() {
        let meter = MemoryMeter::new();
        let stats = IngressStats::new();
        let policy = IngressPolicy {
            punctuation_frequency: 4,
            reorder_latency: TickDuration::ticks(3),
            batch_size: 4,
        };
        // Mildly disordered arrivals.
        let arrivals: Vec<Event<u32>> = [5i64, 3, 7, 6, 9, 8, 12, 11, 15, 14]
            .iter()
            .map(|&t| ev(t))
            .collect();
        let out = ingress_sorted(
            arrivals,
            &policy,
            Box::new(ImpatienceSorter::new()),
            &meter,
            &stats,
        )
        .collect_output();
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![3, 5, 6, 7, 8, 9, 11, 12, 14, 15]);
        assert!(impatience_core::validate_ordered_stream(&out.messages()).is_ok());
        assert_eq!(stats.ingested(), 10);
        assert!(stats.punctuations() >= 2);
        assert_eq!(meter.current(), 0, "all sorter state flushed");
    }

    #[test]
    fn low_latency_drops_late_events() {
        let meter = MemoryMeter::new();
        let stats = IngressStats::new();
        let policy = IngressPolicy {
            punctuation_frequency: 2,
            reorder_latency: TickDuration::ZERO,
            batch_size: 2,
        };
        // Event 5 arrives after the watermark has reached 20.
        let arrivals: Vec<Event<u32>> = [10i64, 20, 5, 30].iter().map(|&t| ev(t)).collect();
        let out = ingress_sorted(
            arrivals,
            &policy,
            Box::new(ImpatienceSorter::new()),
            &meter,
            &stats,
        )
        .collect_output();
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![10, 20, 30], "late event 5 dropped");
    }

    fn wal_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("impatience-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_config() -> WalConfig {
        WalConfig {
            segment_bytes: 64,
            sync_every: 2,
        }
    }

    #[test]
    fn wal_append_and_replay_round_trip() {
        let dir = wal_dir("roundtrip");
        let mut wal: WalIngress<u32> = WalIngress::open_with(&dir, tiny_config()).unwrap();
        let msgs: Vec<StreamMessage<u32>> = vec![
            StreamMessage::Batch(EventBatch::from_events(vec![ev(3), ev(1)])),
            StreamMessage::Punctuation(Timestamp::new(2)),
            StreamMessage::Batch(EventBatch::from_events(vec![ev(5)])),
            StreamMessage::Completed,
        ];
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(wal.append(m).unwrap(), i as u64);
        }
        wal.sync().unwrap();

        let all = WalIngress::<u32>::replay_from(&dir, 0).unwrap();
        assert_eq!(all.len(), 4);
        for (i, (idx, m)) in all.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(m, &msgs[i]);
        }
        // Suffix replay starts mid-log.
        let tail = WalIngress::<u32>::replay_from(&dir, 2).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].0, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_tags_round_trip_and_default_to_zero() {
        let dir = wal_dir("tags");
        let mut wal: WalIngress<u32> = WalIngress::open_with(&dir, tiny_config()).unwrap();
        wal.append(&StreamMessage::Punctuation(Timestamp::new(1)))
            .unwrap();
        wal.append_tagged(
            &StreamMessage::Batch(EventBatch::from_events(vec![ev(2)])),
            7,
        )
        .unwrap();
        wal.append_tagged(&StreamMessage::Completed, 8).unwrap();
        wal.sync().unwrap();
        let tagged = WalIngress::<u32>::replay_tagged_from(&dir, 0).unwrap();
        let tags: Vec<u64> = tagged.iter().map(|&(_, tag, _)| tag).collect();
        assert_eq!(tags, vec![0, 7, 8]);
        // The untagged view still decodes the same messages.
        assert_eq!(WalIngress::<u32>::replay_from(&dir, 0).unwrap().len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_rolls_segments_and_truncates() {
        let dir = wal_dir("truncate");
        let mut wal = Wal::open_with(&dir, tiny_config()).unwrap();
        for i in 0..20u8 {
            wal.append(&[i; 24]).unwrap();
        }
        wal.sync().unwrap();
        let segs = list_segments(&dir).unwrap();
        assert!(
            segs.len() >= 3,
            "tiny segments must roll, got {}",
            segs.len()
        );

        // Records below 10 are checkpoint-covered; their segments go away.
        let removed = wal.truncate_before(10).unwrap();
        assert!(removed >= 1);
        let replayed = replay_wal(&dir, 10).unwrap();
        assert_eq!(replayed.len(), 10, "suffix intact after truncation");
        assert_eq!(replayed[0].0, 10);
        assert_eq!(replayed[0].1, vec![10u8; 24]);

        // Reopen continues numbering after the retained suffix.
        let wal2 = Wal::open_with(&dir, tiny_config()).unwrap();
        assert_eq!(wal2.next_index(), 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_torn_tail_is_repaired_on_open() {
        let dir = wal_dir("torn");
        let mut wal = Wal::open_with(
            &dir,
            WalConfig {
                segment_bytes: 1 << 20,
                sync_every: 1,
            },
        )
        .unwrap();
        for i in 0..5u8 {
            wal.append(&[i; 16]).unwrap();
        }
        drop(wal);
        // Tear the last record mid-payload, as a crash mid-write would.
        let (base, path) = list_segments(&dir).unwrap().pop().unwrap();
        assert_eq!(base, 0);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let wal2 = Wal::open_with(&dir, tiny_config()).unwrap();
        assert_eq!(wal2.next_index(), 4, "torn record dropped");
        let replayed = replay_wal(&dir, 0).unwrap();
        assert_eq!(replayed.len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_flipped_byte_is_typed_corruption() {
        let dir = wal_dir("corrupt");
        let mut wal = Wal::open_with(&dir, tiny_config()).unwrap();
        for i in 0..3u8 {
            wal.append(&[i; 16]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            replay_wal(&dir, 0),
            Err(SnapshotError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Bit-at-a-time CRC32C, sharing nothing with `core::snapshot`'s
    /// kernels: the oracle for what a record's checksum must be.
    fn crc32c_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0x82F6_3B78 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// `len | crc | payload`, built by hand.
    fn golden_record(payload: &[u8]) -> Vec<u8> {
        let mut rec = (payload.len() as u32).to_le_bytes().to_vec();
        rec.extend_from_slice(&crc32c_bitwise(payload).to_le_bytes());
        rec.extend_from_slice(payload);
        rec
    }

    /// One `Event<i64>` as a record holds it, built by hand: sync time,
    /// other time, key, payload — 28 bytes, no hash.
    fn golden_event(t: i64, key: u32, payload: i64) -> Vec<u8> {
        let mut e = t.to_le_bytes().to_vec();
        e.extend_from_slice(&(t + 1).to_le_bytes());
        e.extend_from_slice(&key.to_le_bytes());
        e.extend_from_slice(&payload.to_le_bytes());
        e
    }

    /// `tag | batch marker | count | events`, built by hand.
    fn golden_batch(tag: u64, events: &[Vec<u8>]) -> Vec<u8> {
        let mut body = tag.to_le_bytes().to_vec();
        body.push(0);
        body.extend_from_slice(&(events.len() as u64).to_le_bytes());
        body.extend(events.concat());
        body
    }

    #[test]
    fn wal_segment_bytes_match_the_hand_built_format() {
        let one_segment = WalConfig {
            segment_bytes: 1 << 20,
            sync_every: 64,
        };
        let events = [(3, 1, -7i64), (1, 0, 5), (2, 9, i64::MAX)];
        let batch = StreamMessage::batch(
            events
                .iter()
                .map(|&(t, k, p)| Event::keyed(Timestamp::new(t), k, p))
                .collect(),
        );
        let hand: Vec<_> = events
            .iter()
            .map(|&(t, k, p)| golden_event(t, k, p))
            .collect();
        assert!(hand.iter().all(|e| e.len() == 28));
        let payloads = [vec![0xAB; 300], Vec::new(), golden_batch(9, &hand)];
        let golden: Vec<u8> = payloads.iter().flat_map(|p| golden_record(p)).collect();

        // Written by the log: raw appends, then a typed one reusing the
        // same frame buffer after a longer and an empty record.
        let dir = wal_dir("golden-written");
        let mut wal: WalIngress<i64> = WalIngress::open_with(&dir, one_segment).unwrap();
        wal.wal.append(&payloads[0]).unwrap();
        wal.wal.append(&payloads[1]).unwrap();
        wal.append_tagged(&batch, 9).unwrap();
        wal.sync().unwrap();
        assert_eq!(fs::read(segment_path(&dir, 0)).unwrap(), golden);

        // Written by hand: the log reads it back record for record.
        let hand = wal_dir("golden-hand");
        fs::create_dir_all(&hand).unwrap();
        fs::write(segment_path(&hand, 0), &golden).unwrap();
        let replayed = replay_wal(&hand, 0).unwrap();
        let expected: Vec<(u64, Vec<u8>)> = (0u64..).zip(payloads).collect();
        assert_eq!(replayed, expected);
        assert_eq!(
            WalIngress::<i64>::replay_tagged_from(&hand, 2).unwrap(),
            vec![(2, 9, batch)]
        );
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&hand);
    }

    #[test]
    fn a_version_1_record_is_typed_corruption_never_a_wrong_event() {
        let dir = wal_dir("v1-record");
        let mut wal = Wal::open_with(&dir, WalConfig::default()).unwrap();
        for n in 1..=4i64 {
            // Version 1 wrote the key's hash behind the key: 36 B per event.
            let v1: Vec<_> = (0..n)
                .map(|t| {
                    let mut e = golden_event(t, 2, t * 10);
                    e.splice(20..20, impatience_core::hash_key(2).to_le_bytes());
                    e
                })
                .collect();
            wal.append(&golden_batch(n as u64, &v1)).unwrap();
        }
        wal.sync().unwrap();
        for start in 0..4u64 {
            match WalIngress::<i64>::replay_tagged_from(&dir, start) {
                Err(SnapshotError::Corrupt { detail }) => {
                    let trailing = format!("{} trailing bytes", 8 * (start + 1));
                    assert!(detail.contains(&trailing), "{detail}");
                }
                other => panic!("record {start}: expected Corrupt, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_keeps_the_newest_record_however_often_the_log_rolled() {
        let dir = wal_dir("tail");
        let mut wal = Wal::open_with(&dir, tiny_config()).unwrap();
        for i in 0..20u8 {
            wal.append(&[i; 24]).unwrap();
        }
        wal.sync().unwrap();
        assert!(list_segments(&dir).unwrap().len() >= 4, "three rolls");
        // Every record lies below the index, yet the tail segment — and
        // with it the newest record, whose tag is the session high-water
        // — stays, in this incarnation and the next.
        wal.truncate_before(wal.next_index()).unwrap();
        drop(wal);
        let mut wal = Wal::open_with(&dir, tiny_config()).unwrap();
        wal.truncate_before(wal.next_index()).unwrap();
        assert_eq!(
            replay_wal(&dir, 0).unwrap().last(),
            Some(&(19, vec![19; 24]))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_refuses_a_payload_the_length_header_cannot_hold() {
        assert_eq!(record_len(u32::MAX as usize).unwrap(), u32::MAX);
        #[cfg(target_pointer_width = "64")]
        assert!(matches!(
            record_len(u32::MAX as usize + 1),
            Err(SnapshotError::Io { .. })
        ));
    }

    #[test]
    fn wal_write_failure_latches_and_leaves_a_replayable_log() {
        let dir = wal_dir("write-fail");
        let mut wal = Wal::open_with(&dir, WalConfig::default()).unwrap();
        wal.append(&[1; 16]).unwrap();
        wal.append(&[2; 16]).unwrap();
        wal.sync().unwrap();
        // Swap in a read-only handle on the segment: the next write fails
        // the way a full or failing disk would.
        let path = segment_path(&dir, 0);
        let writable = wal.current.replace((fs::File::open(&path).unwrap(), 0));
        let err = wal.append(&[3; 16]).unwrap_err();
        assert!(matches!(err, SnapshotError::Io { .. }), "{err:?}");
        // Even with a healthy handle back, the log stays failed: nothing
        // may land behind a possibly torn frame.
        wal.current = writable;
        assert_eq!(wal.append(&[4; 16]).unwrap_err(), err);
        assert_eq!(wal.next_index(), 2);
        drop(wal);
        let replayed = replay_wal(&dir, 0).unwrap();
        assert_eq!(replayed, vec![(0, vec![1; 16]), (1, vec![2; 16])]);
        // A fresh incarnation appends again.
        let mut wal = Wal::open_with(&dir, WalConfig::default()).unwrap();
        assert_eq!(wal.append(&[5; 16]).unwrap(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_missing_dir_replays_nothing() {
        let dir = wal_dir("missing");
        assert!(replay_wal(&dir, 0).unwrap().is_empty());
    }
}
