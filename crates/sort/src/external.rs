//! External Impatience sort: lossless spill-to-disk under memory pressure.
//!
//! [`ExternalImpatienceSorter`] is the Impatience sorter with a third,
//! *lossless* answer to a tripped memory budget
//! ([`ShedPolicy::SpillColdRuns`](impatience_core::ShedPolicy)): instead of
//! dead-lettering cold runs or forcing a punctuation, it seals them into
//! checksummed on-disk **run files** and merges them back at punctuation
//! boundaries with a streaming k-way loser tree
//! ([`crate::loser_tree`]). Nothing is dropped and output order is exactly
//! the stable sort of the accepted input.
//!
//! # Why arrival tags make spilling sound
//!
//! Every pushed item is wrapped as [`Tagged`] with a monotone arrival
//! sequence number, and every merge — in memory, spill-time, or tiered
//! compaction — is keyed by `(event_time, seq)`. That total order means any
//! partition of the buffer into sorted sources merges back to the same
//! sequence, so freezing an *arbitrary* subset of runs to disk (and later
//! compacting arbitrary subsets of the frozen files) cannot perturb the
//! output: it is always the stable sort of what was accepted. (The
//! in-memory [`ImpatienceSorter`](crate::ImpatienceSorter) has no tags and
//! does *not* share this: among equal event times it keeps arrival order
//! only within a run, so `spill: true` and `spill: false` agree up to tie
//! order — see `tests/props.rs`.)
//!
//! # Run-file format
//!
//! A run file is a header frame followed by block frames, each sealed with
//! the [`core::snapshot`](impatience_core) frame codec
//! (`magic | version | body_len | body | crc32c`):
//!
//! ```text
//! run-000000000007.run
//! ┌────────────────────────────────────────────────────────┐
//! │ header frame: items, min (ts,seq), max (ts,seq), blocks│
//! ├────────────────────────────────────────────────────────┤
//! │ block frame 0: count, count × Tagged<T>    (~256 KiB)  │
//! ├────────────────────────────────────────────────────────┤
//! │ block frame 1: ...                                     │
//! └────────────────────────────────────────────────────────┘
//! ```
//!
//! Blocks let punctuation merges stream a file without loading it whole and
//! localise corruption: a bit flip fails one block's CRC and surfaces as a
//! typed [`StreamError::SpillFailed`], never an abort. Files are immutable
//! after seal (`fsync` file + directory); consumption is tracked as a
//! per-file cursor in the sorter's checkpointable state, and files are
//! deleted only through the deferred [`spill_gc`](OnlineSorter::spill_gc)
//! path so a crash can always fall back to an older checkpoint generation
//! that still references them.

use crate::gauges::SorterGauges;
use crate::loser_tree::{MergeSource, StreamingLoserTree, VecSource};
use crate::runset::RunSet;
use crate::tiered::TieredMergePolicy;
use crate::traits::OnlineSorter;
use impatience_core::{
    EventTimed, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec, StreamError, Timestamp,
    SNAPSHOT_VERSION,
};
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic for spilled run files.
pub const RUN_MAGIC: &[u8; 8] = b"IMPRUN\0\0";
/// Run-file format version. Blocks hold [`StateCodec`]-encoded items, so
/// the run format moves with the codec's.
pub const RUN_VERSION: u32 = SNAPSHOT_VERSION;
/// Upper bound accepted for a single frame body when scanning a run file,
/// so a corrupted length field cannot drive an unbounded allocation.
const MAX_FRAME_BODY: u64 = 64 * 1024 * 1024;
/// Sealed size of the fixed-layout header frame: 24 B frame overhead plus
/// six 8-byte fields (items, min ts, min seq, max ts, max seq, blocks).
const HEADER_FRAME_LEN: usize = 24 + 48;

/// An item wrapped with its arrival sequence number.
///
/// The pair `(event_time, seq)` is a *total* order over a stream (seq is
/// unique), which is what lets the external sorter merge arbitrary
/// partitions of its buffer — hot runs, frozen files, compacted files —
/// and always reproduce the stable sort of the accepted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tagged<T> {
    /// The wrapped item.
    pub item: T,
    /// Monotone arrival sequence number, unique per sorter lifetime.
    pub seq: u64,
}

impl<T: EventTimed> Tagged<T> {
    /// The total-order merge key.
    #[inline]
    fn key(&self) -> (i64, u64) {
        (self.item.event_time().ticks(), self.seq)
    }
}

impl<T: EventTimed> EventTimed for Tagged<T> {
    #[inline]
    fn event_time(&self) -> Timestamp {
        self.item.event_time()
    }
}

impl<T: StateCodec> StateCodec for Tagged<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.seq);
        self.item.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let seq = r.get_u64()?;
        let item = T::decode(r)?;
        Ok(Tagged { item, seq })
    }
}

/// Configuration for [`ExternalImpatienceSorter`].
#[derive(Debug, Clone)]
pub struct ExternalSortConfig {
    /// Directory holding this sorter's run files. Created on first spill;
    /// never cleared at construction (recovery may still need its files).
    pub spill_dir: PathBuf,
    /// Target encoded bytes per block frame.
    pub block_bytes: usize,
    /// When and what to compact.
    pub tiered: TieredMergePolicy,
    /// Speculative run selection for the hot run set (§III-E2).
    pub speculative_run_selection: bool,
}

impl ExternalSortConfig {
    /// Defaults (256 KiB blocks, default tiered policy) over `spill_dir`.
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        ExternalSortConfig {
            spill_dir: spill_dir.into(),
            block_bytes: 256 * 1024,
            tiered: TieredMergePolicy::default(),
            speculative_run_selection: true,
        }
    }
}

/// Lifetime spill I/O counters (mirrored into the `spill.*` gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Runs sealed into run files.
    pub runs_spilled: u64,
    /// Tiered compaction passes.
    pub merge_passes: u64,
    /// Bytes read back from run files.
    pub bytes_read: u64,
    /// Bytes written to run files.
    pub bytes_written: u64,
    /// fsyncs issued (file and directory).
    pub fsyncs: u64,
}

/// Byte extent and item count of one sealed block frame.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    /// File offset of the frame.
    offset: u64,
    /// Sealed frame length, bytes.
    frame_len: u64,
    /// Items in the block.
    items: u64,
    /// Cumulative items before this block.
    start_index: u64,
}

/// One immutable on-disk run file plus its consumption cursor.
#[derive(Debug, Clone)]
struct FrozenRun {
    file_name: String,
    /// Total items in the file.
    items: u64,
    /// Items already merged back out (a cursor, not a mutation: the file
    /// itself is immutable).
    consumed: u64,
    /// File length, bytes.
    bytes: u64,
    min_key: (i64, u64),
    max_key: (i64, u64),
    /// Event time of the first unconsumed item; punctuations below it skip
    /// the file without touching disk.
    next_ts: i64,
    /// Block index, rebuilt by a full scan on restore.
    blocks: Vec<BlockMeta>,
}

impl FrozenRun {
    fn live_items(&self) -> u64 {
        self.items - self.consumed
    }
}

fn spill_err(file: &str, detail: impl std::fmt::Display) -> StreamError {
    StreamError::SpillFailed {
        detail: format!("{file}: {detail}"),
    }
}

/// Incremental run-file writer: buffers items into ~`block_bytes` blocks,
/// seals each with the frame codec, and back-patches the fixed-size header
/// frame on finish.
struct RunFileWriter<T> {
    file: File,
    file_name: String,
    block_limit: usize,
    block_bytes: usize,
    block: Vec<Tagged<T>>,
    blocks: Vec<BlockMeta>,
    total_items: u64,
    offset: u64,
    min_key: (i64, u64),
    max_key: (i64, u64),
}

/// What a finished run file looks like on disk.
struct RunFileMeta {
    items: u64,
    bytes: u64,
    min_key: (i64, u64),
    max_key: (i64, u64),
    blocks: Vec<BlockMeta>,
}

impl<T: EventTimed + StateCodec> RunFileWriter<T> {
    fn create(dir: &Path, file_name: &str, block_bytes: usize) -> Result<Self, StreamError> {
        let path = dir.join(file_name);
        let mut file = File::create(&path).map_err(|e| spill_err(file_name, e))?;
        // Placeholder header, back-patched on finish.
        file.write_all(&[0u8; HEADER_FRAME_LEN])
            .map_err(|e| spill_err(file_name, e))?;
        Ok(RunFileWriter {
            file,
            file_name: file_name.to_string(),
            block_limit: 0,
            block_bytes: block_bytes.max(64),
            block: Vec::new(),
            blocks: Vec::new(),
            total_items: 0,
            offset: HEADER_FRAME_LEN as u64,
            min_key: (i64::MAX, u64::MAX),
            max_key: (i64::MIN, 0),
        })
    }

    fn push(&mut self, item: Tagged<T>) -> Result<(), StreamError> {
        if self.block_limit == 0 {
            // Size the block item budget from the first item's encoding.
            let mut w = SnapshotWriter::new();
            w.encode(&item);
            let per_item = w.into_body().len().max(1);
            self.block_limit = (self.block_bytes / per_item).max(1);
        }
        let key = item.key();
        self.min_key = self.min_key.min(key);
        self.max_key = self.max_key.max(key);
        self.block.push(item);
        if self.block.len() >= self.block_limit {
            self.seal_block()?;
        }
        Ok(())
    }

    fn seal_block(&mut self) -> Result<(), StreamError> {
        if self.block.is_empty() {
            return Ok(());
        }
        let mut w = SnapshotWriter::new();
        w.put_u64(self.block.len() as u64);
        for item in &self.block {
            w.encode(item);
        }
        let frame = w.seal(RUN_MAGIC, RUN_VERSION);
        self.file
            .write_all(&frame)
            .map_err(|e| spill_err(&self.file_name, e))?;
        self.blocks.push(BlockMeta {
            offset: self.offset,
            frame_len: frame.len() as u64,
            items: self.block.len() as u64,
            start_index: self.total_items,
        });
        self.offset += frame.len() as u64;
        self.total_items += self.block.len() as u64;
        self.block.clear();
        Ok(())
    }

    /// Seals the trailing block, back-patches the header, and fsyncs the
    /// file. The caller fsyncs the directory.
    fn finish(mut self) -> Result<RunFileMeta, StreamError> {
        self.seal_block()?;
        if self.total_items == 0 {
            return Err(spill_err(&self.file_name, "refusing to seal an empty run"));
        }
        let mut w = SnapshotWriter::new();
        w.put_u64(self.total_items);
        w.put_i64(self.min_key.0);
        w.put_u64(self.min_key.1);
        w.put_i64(self.max_key.0);
        w.put_u64(self.max_key.1);
        w.put_u64(self.blocks.len() as u64);
        let header = w.seal(RUN_MAGIC, RUN_VERSION);
        debug_assert_eq!(header.len(), HEADER_FRAME_LEN);
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.write_all(&header))
            .and_then(|_| self.file.sync_all())
            .map_err(|e| spill_err(&self.file_name, e))?;
        Ok(RunFileMeta {
            items: self.total_items,
            bytes: self.offset,
            min_key: self.min_key,
            max_key: self.max_key,
            blocks: self.blocks,
        })
    }
}

/// Everything a full validating scan learns about a run file.
struct ScanInfo {
    items: u64,
    bytes: u64,
    min_key: (i64, u64),
    max_key: (i64, u64),
    blocks: Vec<BlockMeta>,
    /// Key at the probed item index, when requested and in range.
    probe_key: Option<(i64, u64)>,
}

/// Reads and fully validates a run file: header and every block frame
/// (magic, version, CRC), per-block counts against the header total, and
/// strictly increasing `(ts, seq)` keys across the whole file. Returns the
/// rebuilt block index. `probe_index`, when given, also reports the key at
/// that item index (the consumption cursor's next event time on restore).
fn scan_run_file<T: EventTimed + StateCodec>(
    path: &Path,
    probe_index: Option<u64>,
) -> Result<ScanInfo, SnapshotError> {
    let raw = fs::read(path)?;
    if raw.len() < HEADER_FRAME_LEN {
        return Err(SnapshotError::corrupt(format!(
            "run file truncated to {} B (header needs {HEADER_FRAME_LEN} B)",
            raw.len()
        )));
    }
    let mut h = SnapshotReader::unseal(&raw[..HEADER_FRAME_LEN], RUN_MAGIC, RUN_VERSION)?;
    let items = h.get_u64()?;
    let min_key = (h.get_i64()?, h.get_u64()?);
    let max_key = (h.get_i64()?, h.get_u64()?);
    let block_count = h.get_u64()?;
    let mut blocks = Vec::new();
    let mut offset = HEADER_FRAME_LEN as u64;
    let mut seen: u64 = 0;
    let mut first: Option<(i64, u64)> = None;
    let mut prev: Option<(i64, u64)> = None;
    let mut probe_key = None;
    while (blocks.len() as u64) < block_count {
        let at = offset as usize;
        if raw.len() < at + 24 {
            return Err(SnapshotError::corrupt(format!(
                "block {} frame header torn at offset {offset}",
                blocks.len()
            )));
        }
        let body_len = u64::from_le_bytes(raw[at + 12..at + 20].try_into().unwrap());
        if body_len > MAX_FRAME_BODY {
            return Err(SnapshotError::corrupt(format!(
                "block {} declares an implausible {body_len} B body",
                blocks.len()
            )));
        }
        let frame_len = 24 + body_len as usize;
        if raw.len() < at + frame_len {
            return Err(SnapshotError::corrupt(format!(
                "block {} torn: {} B on disk, {frame_len} B declared",
                blocks.len(),
                raw.len() - at
            )));
        }
        let mut r = SnapshotReader::unseal(&raw[at..at + frame_len], RUN_MAGIC, RUN_VERSION)?;
        let count = r.get_count()?;
        for i in 0..count {
            let item: Tagged<T> = r.decode()?;
            let key = item.key();
            if prev.is_some_and(|p| p >= key) {
                return Err(SnapshotError::corrupt(format!(
                    "keys regress at item {} of block {}",
                    i,
                    blocks.len()
                )));
            }
            if probe_index == Some(seen + i as u64) {
                probe_key = Some(key);
            }
            first.get_or_insert(key);
            prev = Some(key);
        }
        blocks.push(BlockMeta {
            offset,
            frame_len: frame_len as u64,
            items: count as u64,
            start_index: seen,
        });
        seen += count as u64;
        offset += frame_len as u64;
    }
    if seen != items {
        return Err(SnapshotError::corrupt(format!(
            "header declares {items} items but blocks hold {seen}"
        )));
    }
    if offset != raw.len() as u64 {
        return Err(SnapshotError::corrupt(format!(
            "{} trailing bytes after final block",
            raw.len() as u64 - offset
        )));
    }
    // Keys are strictly increasing, so the first decoded key is the true
    // minimum and the last the true maximum; both must match the header.
    if items > 0 && (first != Some(min_key) || prev != Some(max_key)) {
        return Err(SnapshotError::corrupt(
            "header key range does not match file contents",
        ));
    }
    Ok(ScanInfo {
        items,
        bytes: raw.len() as u64,
        min_key,
        max_key,
        blocks,
        probe_key,
    })
}

/// Streaming reader over one frozen run: loads one block at a time, skips
/// the consumed prefix, verifies CRCs and key monotonicity as it goes, and
/// stops (without consuming) at the first item beyond `bound_ts`.
struct FrozenRunReader<T> {
    file: File,
    file_name: String,
    blocks: Vec<BlockMeta>,
    bound_ts: i64,
    next_block: usize,
    skip: u64,
    current: std::vec::IntoIter<Tagged<T>>,
    emitted: u64,
    /// Key of the first item *beyond* the bound, once seen.
    next_key: Option<(i64, u64)>,
    prev_key: Option<(i64, u64)>,
    bytes_read: u64,
    done: bool,
}

impl<T: EventTimed + StateCodec> FrozenRunReader<T> {
    fn open(dir: &Path, run: &FrozenRun, bound_ts: i64) -> Result<Self, StreamError> {
        let file =
            File::open(dir.join(&run.file_name)).map_err(|e| spill_err(&run.file_name, e))?;
        // First block holding an unconsumed item.
        let next_block = run
            .blocks
            .partition_point(|b| b.start_index + b.items <= run.consumed);
        Ok(FrozenRunReader {
            file,
            file_name: run.file_name.clone(),
            blocks: run.blocks.clone(),
            bound_ts,
            next_block,
            skip: run.consumed,
            current: Vec::new().into_iter(),
            emitted: 0,
            next_key: None,
            prev_key: None,
            bytes_read: 0,
            done: false,
        })
    }

    fn load_block(&mut self) -> Result<(), StreamError> {
        let meta = self.blocks[self.next_block];
        self.next_block += 1;
        let mut frame = vec![0u8; meta.frame_len as usize];
        self.file
            .seek(SeekFrom::Start(meta.offset))
            .and_then(|_| self.file.read_exact(&mut frame))
            .map_err(|e| spill_err(&self.file_name, e))?;
        self.bytes_read += meta.frame_len;
        let mut r = SnapshotReader::unseal(&frame, RUN_MAGIC, RUN_VERSION)
            .map_err(|e| spill_err(&self.file_name, e))?;
        let count = r.get_count().map_err(|e| spill_err(&self.file_name, e))?;
        if count as u64 != meta.items {
            return Err(spill_err(
                &self.file_name,
                format!("block holds {count} items, index says {}", meta.items),
            ));
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(
                r.decode::<Tagged<T>>()
                    .map_err(|e| spill_err(&self.file_name, e))?,
            );
        }
        let mut it = items.into_iter();
        // Skip the already-consumed prefix of this block.
        let skip_here = self.skip.saturating_sub(meta.start_index);
        for _ in 0..skip_here {
            if let Some(skipped) = it.next() {
                self.prev_key = Some(skipped.key());
            }
        }
        self.current = it;
        Ok(())
    }
}

impl<T: EventTimed + StateCodec> MergeSource for FrozenRunReader<T> {
    type Item = Tagged<T>;

    fn next(&mut self) -> Result<Option<Tagged<T>>, StreamError> {
        if self.done {
            return Ok(None);
        }
        loop {
            if let Some(item) = self.current.next() {
                let key = item.key();
                if self.prev_key.is_some_and(|p| p >= key) {
                    return Err(spill_err(&self.file_name, "keys regress inside run file"));
                }
                self.prev_key = Some(key);
                if key.0 > self.bound_ts {
                    self.next_key = Some(key);
                    self.done = true;
                    return Ok(None);
                }
                self.emitted += 1;
                return Ok(Some(item));
            }
            if self.next_block >= self.blocks.len() {
                self.done = true;
                return Ok(None);
            }
            self.load_block()?;
        }
    }
}

/// A merge feed: an in-memory head run or a frozen-file reader.
enum Feed<T> {
    Mem(VecSource<Tagged<T>>),
    Disk(FrozenRunReader<T>),
}

impl<T: EventTimed + StateCodec> MergeSource for Feed<T> {
    type Item = Tagged<T>;
    fn next(&mut self) -> Result<Option<Tagged<T>>, StreamError> {
        match self {
            Feed::Mem(s) => s.next(),
            Feed::Disk(s) => s.next(),
        }
    }
}

/// The spilling Impatience sorter. See the [module docs](self).
#[derive(Debug)]
pub struct ExternalImpatienceSorter<T> {
    hot: RunSet<Tagged<T>>,
    cfg: ExternalSortConfig,
    last_punctuation: Timestamp,
    next_seq: u64,
    next_file_seq: u64,
    pushed: u64,
    frozen: Vec<FrozenRun>,
    /// Files fully consumed but possibly still referenced by the newest
    /// retained checkpoint; promoted to `doomed_ready` on the next commit.
    doomed_pending: Vec<PathBuf>,
    /// Files unreferenced by every retained generation; deleted on the next
    /// commit.
    doomed_ready: Vec<PathBuf>,
    pending_fault: Option<StreamError>,
    stats: SpillStats,
}

impl<T: EventTimed + Clone + StateCodec> ExternalImpatienceSorter<T> {
    /// A sorter spilling under `spill_dir` with default knobs.
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        Self::with_config(ExternalSortConfig::new(spill_dir))
    }

    /// A sorter with explicit configuration.
    pub fn with_config(cfg: ExternalSortConfig) -> Self {
        ExternalImpatienceSorter {
            hot: RunSet::new(cfg.speculative_run_selection),
            cfg,
            last_punctuation: Timestamp::MIN,
            next_seq: 0,
            next_file_seq: 0,
            pushed: 0,
            frozen: Vec::new(),
            doomed_pending: Vec::new(),
            doomed_ready: Vec::new(),
            pending_fault: None,
            stats: SpillStats::default(),
        }
    }

    /// The most recent punctuation processed.
    pub fn watermark(&self) -> Timestamp {
        self.last_punctuation
    }

    /// Live in-memory sorted runs.
    pub fn run_count(&self) -> usize {
        self.hot.run_count()
    }

    /// Live on-disk run files.
    pub fn frozen_run_count(&self) -> usize {
        self.frozen.len()
    }

    /// Bytes held in live run files.
    pub fn bytes_on_disk(&self) -> u64 {
        self.frozen.iter().map(|f| f.bytes).sum()
    }

    /// Unconsumed items currently on disk.
    fn spilled_items(&self) -> u64 {
        self.frozen.iter().map(FrozenRun::live_items).sum()
    }

    /// Lifetime spill I/O counters.
    pub fn spill_stats(&self) -> SpillStats {
        self.stats
    }

    /// The configured spill directory.
    pub fn spill_dir(&self) -> &Path {
        &self.cfg.spill_dir
    }

    fn sync_dir(&mut self) -> Result<(), StreamError> {
        File::open(&self.cfg.spill_dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| spill_err("spill dir", e))?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Seals one sorted run of tagged items into a fresh run file.
    fn seal_run(&mut self, items: Vec<Tagged<T>>) -> Result<FrozenRun, StreamError> {
        fs::create_dir_all(&self.cfg.spill_dir).map_err(|e| spill_err("spill dir", e))?;
        let file_name = format!("run-{:012}.run", self.next_file_seq);
        self.next_file_seq += 1;
        let mut w = RunFileWriter::create(&self.cfg.spill_dir, &file_name, self.cfg.block_bytes)?;
        for item in items {
            w.push(item)?;
        }
        let meta = w.finish()?;
        self.stats.fsyncs += 1; // file sync_all in finish()
        self.sync_dir()?;
        self.stats.bytes_written += meta.bytes;
        Ok(FrozenRun {
            file_name,
            items: meta.items,
            consumed: 0,
            bytes: meta.bytes,
            min_key: meta.min_key,
            max_key: meta.max_key,
            next_ts: meta.min_key.0,
            blocks: meta.blocks,
        })
    }

    /// Merges the selected frozen files into one larger file (a tiered
    /// compaction pass), dooming the inputs.
    fn compact(&mut self, sel: Vec<usize>) -> Result<(), StreamError> {
        let mut feeds: Vec<FrozenRunReader<T>> = Vec::with_capacity(sel.len());
        for &i in &sel {
            feeds.push(FrozenRunReader::open(
                &self.cfg.spill_dir,
                &self.frozen[i],
                i64::MAX,
            )?);
        }
        let file_name = format!("run-{:012}.run", self.next_file_seq);
        self.next_file_seq += 1;
        let mut w = RunFileWriter::create(&self.cfg.spill_dir, &file_name, self.cfg.block_bytes)?;
        let mut tree = StreamingLoserTree::new(feeds, Tagged::key)?;
        while let Some(item) = tree.pop()? {
            w.push(item)?;
        }
        let meta = w.finish()?;
        self.stats.fsyncs += 1;
        self.sync_dir()?;
        self.stats.bytes_written += meta.bytes;
        for reader in tree.into_sources() {
            self.stats.bytes_read += reader.bytes_read;
        }
        // Replace the inputs with the merged output; the input files stay
        // on disk until two checkpoint commits confirm no retained
        // generation references them.
        let mut sel_sorted = sel;
        sel_sorted.sort_unstable_by(|a, b| b.cmp(a));
        for i in sel_sorted {
            let old = self.frozen.remove(i);
            self.doomed_pending
                .push(self.cfg.spill_dir.join(&old.file_name));
        }
        self.frozen.push(FrozenRun {
            file_name,
            items: meta.items,
            consumed: 0,
            bytes: meta.bytes,
            min_key: meta.min_key,
            max_key: meta.max_key,
            next_ts: meta.min_key.0,
            blocks: meta.blocks,
        });
        Ok(())
    }

    /// Runs tiered compaction to a fixed point.
    fn maybe_compact(&mut self) -> Result<(), StreamError> {
        loop {
            let sizes: Vec<u64> = self.frozen.iter().map(|f| f.bytes).collect();
            let Some(sel) = self.cfg.tiered.select(&sizes) else {
                return Ok(());
            };
            if sel.len() < 2 {
                return Ok(());
            }
            self.compact(sel)?;
            self.stats.merge_passes += 1;
        }
    }
}

impl<T: EventTimed + Clone + StateCodec + Send> OnlineSorter<T> for ExternalImpatienceSorter<T> {
    fn push(&mut self, item: T) {
        // A window start at `Timestamp::MIN` may arrive while
        // `last_punctuation` still reads `MIN`, meaning "none yet".
        debug_assert!(
            item.event_time() > self.last_punctuation || item.event_time() == Timestamp::MIN,
            "item at {:?} violates punctuation {:?}",
            item.event_time(),
            self.last_punctuation
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.hot.insert(Tagged { item, seq });
    }

    fn punctuate(&mut self, t: Timestamp, out: &mut Vec<T>) {
        debug_assert!(
            t >= self.last_punctuation,
            "punctuation regressed: {t:?} after {:?}",
            self.last_punctuation
        );
        self.last_punctuation = t;
        if self.pending_fault.is_some() {
            return;
        }
        let bound = t.ticks();
        let heads = self.hot.cut_heads(t);
        let mut feeds: Vec<Feed<T>> = heads
            .into_iter()
            .map(|h| Feed::Mem(VecSource::new(h)))
            .collect();
        // Frozen files whose next unconsumed item is covered by this cut.
        let mut disk_idx: Vec<usize> = Vec::new();
        for (i, run) in self.frozen.iter().enumerate() {
            if run.live_items() > 0 && run.next_ts <= bound {
                match FrozenRunReader::open(&self.cfg.spill_dir, run, bound) {
                    Ok(r) => {
                        disk_idx.push(i);
                        feeds.push(Feed::Disk(r));
                    }
                    Err(e) => {
                        self.pending_fault = Some(e);
                        return;
                    }
                }
            }
        }
        if feeds.is_empty() {
            return;
        }
        let mut tree = match StreamingLoserTree::new(feeds, Tagged::key) {
            Ok(tree) => tree,
            Err(e) => {
                self.pending_fault = Some(e);
                return;
            }
        };
        let mut merged: Vec<T> = Vec::new();
        loop {
            match tree.pop() {
                Ok(Some(tagged)) => merged.push(tagged.item),
                Ok(None) => break,
                Err(e) => {
                    self.pending_fault = Some(e);
                    return;
                }
            }
        }
        // Success: commit consumption cursors, doom drained files, emit.
        let mut disk_readers = disk_idx.iter();
        for feed in tree.into_sources() {
            if let Feed::Disk(r) = feed {
                let &i = disk_readers.next().expect("one index per disk feed");
                let run = &mut self.frozen[i];
                run.consumed += r.emitted;
                if let Some((ts, _)) = r.next_key {
                    run.next_ts = ts;
                }
                self.stats.bytes_read += r.bytes_read;
            }
        }
        let mut i = 0;
        while i < self.frozen.len() {
            if self.frozen[i].live_items() == 0 {
                let old = self.frozen.remove(i);
                self.doomed_pending
                    .push(self.cfg.spill_dir.join(&old.file_name));
            } else {
                i += 1;
            }
        }
        out.extend(merged);
    }

    fn buffered_len(&self) -> usize {
        self.hot.buffered_len() + self.spilled_items() as usize
    }

    fn state_bytes(&self) -> usize {
        // In memory only: the hot run set plus each spilled file's record
        // and block index. File bytes live on disk.
        let blocks: usize = self.frozen.iter().map(|f| f.blocks.len()).sum();
        self.hot.state_bytes()
            + self.frozen.len() * core::mem::size_of::<FrozenRun>()
            + blocks * core::mem::size_of::<BlockMeta>()
    }

    fn capacity_bytes(&self) -> usize {
        let blocks: usize = self.frozen.iter().map(|f| f.blocks.capacity()).sum();
        self.hot.capacity_bytes()
            + self.frozen.capacity() * core::mem::size_of::<FrozenRun>()
            + blocks * core::mem::size_of::<BlockMeta>()
    }

    fn name(&self) -> &'static str {
        "ExternalImpatience"
    }

    fn shed_oldest_capped(&mut self, max_items: usize, out: &mut Vec<T>) -> usize {
        let shed = self.hot.shed_oldest_items(max_items);
        let n = shed.len();
        out.extend(shed.into_iter().map(|t| t.item));
        n
    }

    fn spill_cold(&mut self, target_bytes: usize) -> Result<usize, StreamError> {
        if let Some(fault) = self.pending_fault.clone() {
            return Err(fault);
        }
        let mut spilled = 0;
        while self.state_bytes() > target_bytes {
            let run = self.hot.shed_oldest_run();
            if run.is_empty() {
                break;
            }
            let frozen = match self.seal_run(run) {
                Ok(f) => f,
                Err(e) => {
                    // The run's items are lost with the failed file; the
                    // error is terminal for the chain.
                    self.pending_fault = Some(e.clone());
                    return Err(e);
                }
            };
            self.frozen.push(frozen);
            self.stats.runs_spilled += 1;
            spilled += 1;
        }
        if spilled > 0 {
            if let Err(e) = self.maybe_compact() {
                self.pending_fault = Some(e.clone());
                return Err(e);
            }
        }
        Ok(spilled)
    }

    fn take_fault(&mut self) -> Option<StreamError> {
        self.pending_fault.take()
    }

    fn spill_gc(&mut self) {
        for path in self.doomed_ready.drain(..) {
            let _ = fs::remove_file(path);
        }
        self.doomed_ready = core::mem::take(&mut self.doomed_pending);
    }

    fn sync_gauges(&self, gauges: &SorterGauges) {
        gauges.buffered.set(self.buffered_len() as i64);
        gauges.state_bytes.set(self.state_bytes() as i64);
        gauges.capacity_bytes.set(self.capacity_bytes() as i64);
        gauges.runs.set(self.hot.run_count() as i64);
        gauges
            .speculative_hits
            .set(self.hot.speculative_hits() as i64);
        gauges
            .speculative_misses
            .set(self.hot.speculative_misses() as i64);
        gauges
            .spill_runs_spilled
            .set(self.stats.runs_spilled as i64);
        gauges.spill_bytes_on_disk.set(self.bytes_on_disk() as i64);
        gauges
            .spill_merge_passes
            .set(self.stats.merge_passes as i64);
        gauges.spill_bytes_read.set(self.stats.bytes_read as i64);
        gauges
            .spill_bytes_written
            .set(self.stats.bytes_written as i64);
        gauges.spill_fsyncs.set(self.stats.fsyncs as i64);
    }

    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        // Format tag 2: distinguishes external state from the in-memory
        // sorter's leading huffman flag (0|1).
        w.put_u8(2);
        w.put_i64(self.last_punctuation.ticks());
        w.put_u64(self.next_seq);
        w.put_u64(self.next_file_seq);
        w.put_u64(self.pushed);
        w.put_u64(self.stats.runs_spilled);
        w.put_u64(self.stats.merge_passes);
        w.put_u64(self.stats.bytes_read);
        w.put_u64(self.stats.bytes_written);
        w.put_u64(self.stats.fsyncs);
        self.hot.encode_state(w);
        w.put_u64(self.frozen.len() as u64);
        for f in &self.frozen {
            w.put_str(&f.file_name);
            w.put_u64(f.items);
            w.put_u64(f.consumed);
            w.put_u64(f.bytes);
            w.put_i64(f.min_key.0);
            w.put_u64(f.min_key.1);
            w.put_i64(f.max_key.0);
            w.put_u64(f.max_key.1);
        }
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let tag = r.get_u8()?;
        if tag != 2 {
            return Err(SnapshotError::corrupt(format!(
                "invalid external-sorter format tag {tag}"
            )));
        }
        let last_punctuation = Timestamp::new(r.get_i64()?);
        let next_seq = r.get_u64()?;
        let next_file_seq = r.get_u64()?;
        let pushed = r.get_u64()?;
        let stats = SpillStats {
            runs_spilled: r.get_u64()?,
            merge_passes: r.get_u64()?,
            bytes_read: r.get_u64()?,
            bytes_written: r.get_u64()?,
            fsyncs: r.get_u64()?,
        };
        let hot = RunSet::decode_state(r)?;
        let n = r.get_count()?;
        let mut frozen = Vec::with_capacity(n);
        for _ in 0..n {
            let file_name = r.get_str()?.to_string();
            let items = r.get_u64()?;
            let consumed = r.get_u64()?;
            let bytes = r.get_u64()?;
            let min_key = (r.get_i64()?, r.get_u64()?);
            let max_key = (r.get_i64()?, r.get_u64()?);
            if consumed > items {
                return Err(SnapshotError::corrupt(format!(
                    "{file_name}: consumed {consumed} of {items} items"
                )));
            }
            if consumed == items {
                // Fully consumed before the checkpoint: the file is not
                // needed (and may already be deleted). Skip it.
                continue;
            }
            // Live file: validate it in full against the manifest.
            let path = self.cfg.spill_dir.join(&file_name);
            let info = scan_run_file::<T>(&path, Some(consumed))
                .map_err(|e| SnapshotError::corrupt(format!("{file_name}: {e}")))?;
            if info.items != items || info.bytes != bytes {
                return Err(SnapshotError::corrupt(format!(
                    "{file_name}: file holds {} items / {} B, manifest says {items} / {bytes}",
                    info.items, info.bytes
                )));
            }
            if info.min_key != min_key || info.max_key != max_key {
                return Err(SnapshotError::corrupt(format!(
                    "{file_name}: key range does not match manifest"
                )));
            }
            let next_ts = info.probe_key.map(|(ts, _)| ts).unwrap_or(min_key.0);
            frozen.push(FrozenRun {
                file_name,
                items,
                consumed,
                bytes,
                min_key,
                max_key,
                next_ts,
                blocks: info.blocks,
            });
        }
        // Everything validated; only now mutate self.
        self.last_punctuation = last_punctuation;
        self.next_seq = next_seq;
        self.next_file_seq = next_file_seq;
        self.pushed = pushed;
        self.stats = stats;
        self.hot = hot;
        self.frozen = frozen;
        self.doomed_pending.clear();
        self.doomed_ready.clear();
        self.pending_fault = None;
        // Orphan sweep: run files in the spill dir that no manifest entry
        // references (doomed before the crash, or sealed after the
        // checkpoint) are garbage; this restored state is now the only
        // owner of the directory, so reclaim them.
        if let Ok(entries) = fs::read_dir(&self.cfg.spill_dir) {
            let live: std::collections::HashSet<&str> =
                self.frozen.iter().map(|f| f.file_name.as_str()).collect();
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.ends_with(".run") && !live.contains(name) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impatience::ImpatienceSorter;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "impatience-external-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_blocks(dir: PathBuf) -> ExternalSortConfig {
        ExternalSortConfig {
            block_bytes: 128, // force multi-block files in small tests
            tiered: TieredMergePolicy {
                max_runs_per_tier: 2,
                growth: 4,
                floor_bytes: 512,
            },
            speculative_run_selection: true,
            spill_dir: dir,
        }
    }

    /// Pseudo-random but deterministic disordered stream.
    fn stream(n: i64) -> Vec<i64> {
        (0..n)
            .map(|i| (i * 7919 + (i % 17) * 131) % (n / 2).max(1))
            .collect()
    }

    #[test]
    fn spill_everything_then_drain_matches_oracle() {
        let dir = scratch("drain");
        let mut s: ExternalImpatienceSorter<i64> =
            ExternalImpatienceSorter::with_config(small_blocks(dir.clone()));
        let data = stream(500);
        for &x in &data {
            s.push(x);
        }
        let spilled = s.spill_cold(0).unwrap();
        assert!(spilled > 0, "everything should spill under a zero target");
        assert_eq!(s.hot.buffered_len(), 0);
        assert_eq!(s.buffered_len(), data.len(), "no items lost to disk");
        assert!(s.bytes_on_disk() > 0);
        // More pushes after the spill interleave with frozen items.
        let more = [3i64, 141, 7, 99];
        for &x in &more {
            s.push(x);
        }
        let mut out = Vec::new();
        s.drain_all(&mut out);
        assert!(s.take_fault().is_none());
        let mut expect: Vec<i64> = data.iter().chain(more.iter()).copied().collect();
        expect.sort();
        assert_eq!(out, expect);
        assert_eq!(s.frozen_run_count(), 0, "drained files are doomed");
        // Two checkpoint commits reclaim the files.
        s.spill_gc();
        s.spill_gc();
        let left = fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(left, 0, "all run files reclaimed after two commits");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_stream_spills_preserve_punctuated_output() {
        let dir = scratch("midstream");
        let mut ext: ExternalImpatienceSorter<i64> =
            ExternalImpatienceSorter::with_config(small_blocks(dir.clone()));
        let mut oracle: ImpatienceSorter<i64> = ImpatienceSorter::new();
        let data = stream(2000);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut wm = i64::MIN;
        let mut high = i64::MIN;
        for (i, &x) in data.iter().enumerate() {
            if x > wm {
                ext.push(x);
                oracle.push(x);
                high = high.max(x);
            }
            if i % 97 == 96 {
                // Trip the budget mid-stream: spill down to (almost) nothing.
                ext.spill_cold(64).unwrap();
            }
            if i % 193 == 192 {
                let p = high - 300;
                if p > wm {
                    wm = p;
                    ext.punctuate(Timestamp::new(p), &mut a);
                    oracle.punctuate(Timestamp::new(p), &mut b);
                    assert_eq!(a, b, "divergence at step {i}");
                }
            }
        }
        ext.drain_all(&mut a);
        oracle.drain_all(&mut b);
        assert_eq!(a, b);
        assert!(ext.take_fault().is_none());
        assert!(ext.spill_stats().runs_spilled > 0);
        assert!(ext.spill_stats().bytes_read > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_compaction_bounds_file_count() {
        let dir = scratch("tiered");
        let mut s: ExternalImpatienceSorter<i64> =
            ExternalImpatienceSorter::with_config(small_blocks(dir.clone()));
        // Many small spills: each burst of descending values makes new runs,
        // and a zero-target spill freezes each as its own file.
        for burst in 0..12i64 {
            for x in (0..40).rev() {
                s.push(burst * 1000 + x + 1);
            }
            s.spill_cold(0).unwrap();
        }
        let stats = s.spill_stats();
        assert!(stats.merge_passes > 0, "tier overflow must trigger merges");
        assert!(
            s.frozen_run_count() < stats.runs_spilled as usize,
            "compaction keeps fewer files ({}) than spills ({})",
            s.frozen_run_count(),
            stats.runs_spilled
        );
        let mut out = Vec::new();
        s.drain_all(&mut out);
        assert!(s.take_fault().is_none());
        assert_eq!(out.len(), 12 * 40);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_restore_resumes_byte_identical() {
        let dir = scratch("restore");
        let mut a: ExternalImpatienceSorter<i64> =
            ExternalImpatienceSorter::with_config(small_blocks(dir.clone()));
        let data = stream(600);
        let mut out_a = Vec::new();
        for (i, &x) in data.iter().enumerate() {
            if x > 100 {
                a.push(x);
            }
            if i % 151 == 150 {
                a.spill_cold(256).unwrap();
            }
        }
        a.punctuate(Timestamp::new(120), &mut out_a);
        assert!(a.frozen_run_count() > 0, "restore test needs live files");

        let mut w = SnapshotWriter::new();
        a.encode_state(&mut w).unwrap();
        let body = w.into_body();

        let mut b: ExternalImpatienceSorter<i64> =
            ExternalImpatienceSorter::with_config(small_blocks(dir.clone()));
        b.restore_state(&mut SnapshotReader::new(&body)).unwrap();
        assert_eq!(b.watermark(), a.watermark());
        assert_eq!(b.buffered_len(), a.buffered_len());
        assert_eq!(b.frozen_run_count(), a.frozen_run_count());
        assert_eq!(b.state_bytes(), a.state_bytes(), "the same charge");

        let mut rest_a = Vec::new();
        let mut rest_b = Vec::new();
        for x in [500i64, 130, 301] {
            a.push(x);
            b.push(x);
        }
        a.drain_all(&mut rest_a);
        b.drain_all(&mut rest_b);
        assert_eq!(rest_a, rest_b, "restored sorter diverged");
        assert!(b.take_fault().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_skips_consumed_files_and_sweeps_orphans() {
        let dir = scratch("orphans");
        let mut a: ExternalImpatienceSorter<i64> =
            ExternalImpatienceSorter::with_config(small_blocks(dir.clone()));
        for x in [5i64, 3, 9, 7, 2, 8] {
            a.push(x);
        }
        a.spill_cold(0).unwrap();
        let mut out = Vec::new();
        // Consume everything: the files become doomed but stay on disk.
        a.drain_all(&mut out);
        assert_eq!(out, vec![2, 3, 5, 7, 8, 9]);
        let mut w = SnapshotWriter::new();
        a.encode_state(&mut w).unwrap();
        let body = w.into_body();
        assert!(
            fs::read_dir(&dir).unwrap().count() > 0,
            "doomed files still on disk pre-restore"
        );

        let mut b: ExternalImpatienceSorter<i64> =
            ExternalImpatienceSorter::with_config(small_blocks(dir.clone()));
        b.restore_state(&mut SnapshotReader::new(&body)).unwrap();
        assert_eq!(b.frozen_run_count(), 0);
        assert_eq!(b.buffered_len(), 0);
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            0,
            "restore sweeps unreferenced run files"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_block_surfaces_as_typed_fault_not_abort() {
        let dir = scratch("corrupt");
        let mut s: ExternalImpatienceSorter<i64> =
            ExternalImpatienceSorter::with_config(small_blocks(dir.clone()));
        for x in stream(300) {
            s.push(x + 1);
        }
        s.spill_cold(0).unwrap();
        // Flip one byte in the data region of every run file (compaction
        // may have superseded some; hitting all of them guarantees the live
        // one is corrupted).
        let mut hit = 0;
        for entry in fs::read_dir(&dir).unwrap().flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "run") {
                continue;
            }
            let mut raw = fs::read(&path).unwrap();
            let mid = HEADER_FRAME_LEN + (raw.len() - HEADER_FRAME_LEN) / 2;
            raw[mid] ^= 0xA5;
            fs::write(&path, &raw).unwrap();
            hit += 1;
        }
        assert!(hit > 0, "no spilled run files to corrupt");

        let mut out = Vec::new();
        s.drain_all(&mut out);
        let fault = s.take_fault().expect("corruption must surface");
        assert!(
            matches!(fault, StreamError::SpillFailed { ref detail } if detail.contains(".run")),
            "unexpected fault: {fault:?}"
        );
        // Poisoned: later punctuations stay silent rather than emitting a
        // partial, misordered stream.
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_rejects_torn_file_and_leaves_sorter_untouched() {
        let dir = scratch("torn");
        let mut a: ExternalImpatienceSorter<i64> =
            ExternalImpatienceSorter::with_config(small_blocks(dir.clone()));
        for x in stream(200) {
            a.push(x + 1);
        }
        a.spill_cold(0).unwrap();
        let mut w = SnapshotWriter::new();
        a.encode_state(&mut w).unwrap();
        let body = w.into_body();
        // Tear the tail off every run file, as a crashed write would (the
        // manifest references only the live subset; tearing all of them
        // guarantees a referenced one is torn).
        for entry in fs::read_dir(&dir).unwrap().flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "run") {
                continue;
            }
            let raw = fs::read(&path).unwrap();
            fs::write(&path, &raw[..raw.len() - 7]).unwrap();
        }

        let mut b: ExternalImpatienceSorter<i64> =
            ExternalImpatienceSorter::with_config(small_blocks(dir.clone()));
        b.push(42);
        let err = b.restore_state(&mut SnapshotReader::new(&body));
        assert!(err.is_err(), "torn run file must fail restore");
        assert_eq!(b.buffered_len(), 1, "failed restore left state untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gauges_reflect_spill_family() {
        let dir = scratch("gauges");
        let mut s: ExternalImpatienceSorter<i64> =
            ExternalImpatienceSorter::with_config(small_blocks(dir.clone()));
        for x in stream(200) {
            s.push(x + 1);
        }
        s.spill_cold(0).unwrap();
        let g = SorterGauges::new();
        s.sync_gauges(&g);
        assert!(g.spill_runs_spilled.get() > 0);
        assert!(g.spill_bytes_on_disk.get() > 0);
        assert!(g.spill_fsyncs.get() > 0);
        assert_eq!(g.buffered.get() as usize, s.buffered_len());
        assert_eq!(s.name(), "ExternalImpatience");
        let _ = fs::remove_dir_all(&dir);
    }
}
