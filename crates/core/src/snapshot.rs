//! Versioned binary snapshot codec with CRC32C integrity.
//!
//! Durable state (checkpoints, write-ahead log records) is framed as
//! `magic(8) | version(4 LE) | body_len(8 LE) | body | crc32c(4 LE)` where
//! the checksum covers everything before it. A torn or truncated write —
//! the crash-consistency hazard this layer exists to detect — surfaces as a
//! typed [`SnapshotError::Corrupt`], never a panic, so recovery can fall
//! back to the previous checkpoint generation.
//!
//! [`StateCodec`] is the per-type encoding contract: every [`Payload`] is a
//! `StateCodec`, which is what lets sorter runs, union buffers, and join
//! tables serialize their buffered events generically. The codec is
//! deliberately boring — fixed-width little-endian integers, length-prefixed
//! sequences — because boring is what you want to still parse after a crash.

use crate::batch::EventBatch;
use crate::event::{hash_key, Event, Payload};
use crate::message::StreamMessage;
use crate::time::{TickDuration, Timestamp};
use core::fmt;

/// Current snapshot frame version. Bump on any incompatible layout change.
/// Version 2 stopped writing [`Event::hash`]: an event is 20 fixed bytes
/// plus its payload.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Bytes of framing around a sealed body: magic(8) + version(4) +
/// body_len(8) before it, crc32c(4) after it.
pub const FRAME_OVERHEAD: usize = 8 + 4 + 8 + 4;

/// Typed failures of the snapshot layer. Decoding never panics: every
/// malformed input maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The frame does not start with the expected magic bytes — wrong file,
    /// or garbage where a snapshot should be.
    BadMagic {
        /// Magic the reader expected.
        expected: [u8; 8],
        /// Bytes actually found (zero-padded if the frame was shorter).
        found: [u8; 8],
    },
    /// The frame carries an unknown version.
    BadVersion {
        /// Version the reader supports.
        expected: u32,
        /// Version found in the frame.
        found: u32,
    },
    /// The frame or body is structurally damaged: truncated mid-write,
    /// checksum mismatch, impossible length, or an invalid enum tag.
    Corrupt {
        /// What exactly failed to parse.
        detail: String,
    },
    /// A primitive read ran off the end of the body.
    UnexpectedEof {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes left in the body.
        remaining: usize,
    },
    /// The component does not support snapshotting (e.g. a sorter without
    /// a state codec).
    Unsupported {
        /// The component that declined.
        what: &'static str,
    },
    /// An I/O error while reading or writing durable state, stringified so
    /// the error stays `Clone + PartialEq`.
    Io {
        /// The underlying error text.
        detail: String,
    },
}

impl SnapshotError {
    /// Shorthand for a [`SnapshotError::Corrupt`] with a detail message.
    pub fn corrupt(detail: impl Into<String>) -> Self {
        SnapshotError::Corrupt {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic { expected, found } => write!(
                f,
                "bad snapshot magic: expected {expected:02x?}, found {found:02x?}"
            ),
            SnapshotError::BadVersion { expected, found } => write!(
                f,
                "unsupported snapshot version {found} (reader supports {expected})"
            ),
            SnapshotError::Corrupt { detail } => write!(f, "corrupt snapshot: {detail}"),
            SnapshotError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of snapshot body: needed {needed} B, {remaining} B remain"
            ),
            SnapshotError::Unsupported { what } => {
                write!(f, "snapshotting unsupported by {what}")
            }
            SnapshotError::Io { detail } => write!(f, "snapshot I/O error: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io {
            detail: e.to_string(),
        }
    }
}

/// CRC32C (Castagnoli), reflected polynomial — the checksum used by
/// iSCSI, ext4, and most storage formats.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 tables: `T[0]` is the classic one-byte table and
/// `T[k][b]` is the register after byte `b` followed by `k` zero bytes,
/// so eight input bytes fold into the register with eight independent
/// lookups instead of eight dependent ones.
const fn build_crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32C_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32C_TABLES: [[u32; 256]; 8] = build_crc32c_tables();

/// Portable kernel: advances the raw register (no pre/post inversion)
/// over `data` eight bytes per step.
fn crc32c_slice8(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Kernels on the CPU's CRC32C instruction, with the same contract as
/// [`crc32c_slice8`]: advance the raw register over `data`.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
mod crc32c_hw {
    /// Bytes per stream in one round. The CRC instruction has a
    /// three-cycle latency but issues every cycle, so three independent
    /// registers run over three adjacent stripes and are spliced
    /// afterwards (2.6x one stream on a 1 MiB buffer); inputs shorter
    /// than one round take a single stream.
    const STRIPE: usize = 256;

    /// Product of two polynomials modulo the CRC32C polynomial, both in
    /// the register's reflected bit order (bit 31 is `x^0`).
    const fn mulmod(a: u32, mut b: u32) -> u32 {
        let mut p = 0u32;
        let mut i = 0;
        while i < 32 {
            if a & (1 << (31 - i)) != 0 {
                p ^= b;
            }
            b = if b & 1 != 0 {
                (b >> 1) ^ super::CRC32C_POLY
            } else {
                b >> 1
            };
            i += 1;
        }
        p
    }

    /// Feeding `n` zero bytes multiplies the register by `x^(8n)`; these
    /// tables apply that product for `n = STRIPE` one register byte at a
    /// time (the operator is linear, so the four lookups XOR together).
    const fn build_stripe_shift() -> [[u32; 256]; 4] {
        // x^(8 * STRIPE) by square-and-multiply.
        let mut power = 1u32 << 31;
        let mut square = 1u32 << 30;
        let mut e = 8 * STRIPE;
        while e > 0 {
            if e & 1 != 0 {
                power = mulmod(power, square);
            }
            square = mulmod(square, square);
            e >>= 1;
        }
        let mut t = [[0u32; 256]; 4];
        let mut k = 0usize;
        while k < 4 {
            let mut n = 0usize;
            while n < 256 {
                t[k][n] = mulmod(power, (n as u32) << (8 * k));
                n += 1;
            }
            k += 1;
        }
        t
    }

    static STRIPE_SHIFT: [[u32; 256]; 4] = build_stripe_shift();

    /// The register `crc` after `STRIPE` further zero bytes.
    fn skip_stripe(crc: u32) -> u32 {
        let t = &STRIPE_SHIFT;
        t[0][(crc & 0xFF) as usize]
            ^ t[1][((crc >> 8) & 0xFF) as usize]
            ^ t[2][((crc >> 16) & 0xFF) as usize]
            ^ t[3][(crc >> 24) as usize]
    }

    /// Defines one architecture's kernel. `$word` / `$byte` fold eight
    /// bytes / one byte into the register with the CPU's instruction; the
    /// body is shared so both architectures run (and are tested as) the
    /// same striping logic.
    macro_rules! hw_kernel {
        ($name:ident, $feature:literal, $word:expr, $byte:expr) => {
            /// # Safety
            /// The CPU must support the target feature this kernel enables.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $name(mut crc: u32, mut data: &[u8]) -> u32 {
                let word = $word;
                let byte = $byte;
                while data.len() >= 3 * STRIPE {
                    let (a, rest) = data.split_at(STRIPE);
                    let (b, rest) = rest.split_at(STRIPE);
                    let (c, rest) = rest.split_at(STRIPE);
                    let (mut crc_b, mut crc_c) = (0u32, 0u32);
                    let stripes = a.as_chunks::<8>().0.iter();
                    let stripes = stripes.zip(b.as_chunks::<8>().0).zip(c.as_chunks::<8>().0);
                    for ((wa, wb), wc) in stripes {
                        crc = word(crc, u64::from_le_bytes(*wa));
                        crc_b = word(crc_b, u64::from_le_bytes(*wb));
                        crc_c = word(crc_c, u64::from_le_bytes(*wc));
                    }
                    // crc(a ‖ b ‖ c) = ((crc(a)·x^|b|) ^ crc(b))·x^|c| ^ crc(c)
                    crc = skip_stripe(crc) ^ crc_b;
                    crc = skip_stripe(crc) ^ crc_c;
                    data = rest;
                }
                let (words, tail) = data.as_chunks::<8>();
                for w in words {
                    crc = word(crc, u64::from_le_bytes(*w));
                }
                for &b in tail {
                    crc = byte(crc, b);
                }
                crc
            }
        };
    }

    #[cfg(target_arch = "x86_64")]
    hw_kernel!(
        sse42,
        "sse4.2",
        |crc: u32, w: u64| core::arch::x86_64::_mm_crc32_u64(crc as u64, w) as u32,
        |crc: u32, b: u8| core::arch::x86_64::_mm_crc32_u8(crc, b)
    );

    #[cfg(target_arch = "aarch64")]
    hw_kernel!(
        armv8,
        "crc",
        |crc: u32, w: u64| core::arch::aarch64::__crc32cd(crc, w),
        |crc: u32, b: u8| core::arch::aarch64::__crc32cb(crc, b)
    );
}

/// CRC32C (Castagnoli) of `data`.
///
/// Runs on the CPU's CRC32C instruction where it has one (SSE4.2 on
/// x86-64, the `crc` extension on AArch64; `std` caches the detection
/// after the first call) and on the slice-by-8 tables everywhere else.
/// Every path computes the same function, so frames written on one host
/// verify on any other.
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: SSE4.2 support was just detected on this CPU.
        return !unsafe { crc32c_hw::sse42(!0, data) };
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("crc") {
        // SAFETY: the `crc` extension was just detected on this CPU.
        return !unsafe { crc32c_hw::armv8(!0, data) };
    }
    !crc32c_slice8(!0, data)
}

/// Append-only encoder for a snapshot body.
///
/// Collect state with the `put_*` primitives (all little-endian), then
/// [`seal`](SnapshotWriter::seal) the body into a checksummed frame.
#[derive(Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer that appends after the bytes already in `buf`, keeping its
    /// capacity — with [`into_body`](SnapshotWriter::into_body) this lets
    /// a caller encode into a buffer it reuses across records.
    pub fn with_buffer(buf: Vec<u8>) -> Self {
        SnapshotWriter { buf }
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed (`u32`) byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        debug_assert!(v.len() <= u32::MAX as usize, "byte slice too large");
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends any [`StateCodec`] value.
    pub fn encode<T: StateCodec>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Consumes the writer, returning the raw (unframed) body.
    pub fn into_body(self) -> Vec<u8> {
        self.buf
    }

    /// Seals the body into a framed, checksummed snapshot:
    /// `magic | version | body_len | body | crc32c`.
    pub fn seal(self, magic: &[u8; 8], version: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len() + FRAME_OVERHEAD);
        out.extend_from_slice(magic);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.buf);
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }
}

impl fmt::Debug for SnapshotWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SnapshotWriter({} B)", self.buf.len())
    }
}

/// Cursor over a snapshot body. Every read is bounds-checked and returns a
/// typed error instead of panicking.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Reader over a raw (already unframed) body.
    pub fn new(body: &'a [u8]) -> Self {
        SnapshotReader { buf: body, pos: 0 }
    }

    /// Verifies a sealed frame (magic, version, length, checksum) and
    /// returns a reader positioned at the start of the body.
    ///
    /// A short frame — the signature of a torn write — is reported as
    /// [`SnapshotError::Corrupt`] so callers treat it like any other
    /// damaged generation.
    pub fn unseal(
        frame: &'a [u8],
        magic: &[u8; 8],
        version: u32,
    ) -> Result<SnapshotReader<'a>, SnapshotError> {
        if frame.len() < FRAME_OVERHEAD {
            return Err(SnapshotError::corrupt(format!(
                "frame truncated to {} B (needs at least {FRAME_OVERHEAD} B)",
                frame.len()
            )));
        }
        let mut found = [0u8; 8];
        found.copy_from_slice(&frame[..8]);
        if &found != magic {
            return Err(SnapshotError::BadMagic {
                expected: *magic,
                found,
            });
        }
        let found_version = u32::from_le_bytes(frame[8..12].try_into().unwrap());
        if found_version != version {
            return Err(SnapshotError::BadVersion {
                expected: version,
                found: found_version,
            });
        }
        let body_len = u64::from_le_bytes(frame[12..20].try_into().unwrap());
        let expected_len = (FRAME_OVERHEAD as u64).saturating_add(body_len);
        if frame.len() as u64 != expected_len {
            return Err(SnapshotError::corrupt(format!(
                "frame is {} B but header declares {} B body",
                frame.len(),
                body_len
            )));
        }
        let crc_at = frame.len() - 4;
        let stored = u32::from_le_bytes(frame[crc_at..].try_into().unwrap());
        let computed = crc32c(&frame[..crc_at]);
        if stored != computed {
            return Err(SnapshotError::corrupt(format!(
                "checksum mismatch: stored {stored:08x}, computed {computed:08x}"
            )));
        }
        Ok(SnapshotReader::new(&frame[20..crc_at]))
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the body is fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapshotError> {
        core::str::from_utf8(self.get_bytes()?)
            .map_err(|e| SnapshotError::corrupt(format!("invalid UTF-8 in string: {e}")))
    }

    /// Decodes any [`StateCodec`] value.
    pub fn decode<T: StateCodec>(&mut self) -> Result<T, SnapshotError> {
        T::decode(self)
    }

    /// Reads a `u64` element count and sanity-checks it against the bytes
    /// remaining, so a corrupted length cannot drive an unbounded decode
    /// loop or allocation. Every [`StateCodec`] impl writes at least one
    /// byte per value, which is what makes the bound valid.
    pub fn get_count(&mut self) -> Result<usize, SnapshotError> {
        let n = self.get_u64()?;
        if n > self.remaining() as u64 {
            return Err(SnapshotError::corrupt(format!(
                "sequence declares {n} elements but only {} B remain",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }
}

/// Binary state encoding for checkpointable values.
///
/// The contract mirrors the frame layer: `decode` must reject malformed
/// input with a typed [`SnapshotError`] and must never panic. Every impl
/// writes at least one byte per value (see
/// [`SnapshotReader::get_count`]).
pub trait StateCodec: Sized {
    /// Appends this value's encoding to the writer.
    fn encode(&self, w: &mut SnapshotWriter);
    /// Decodes one value from the reader.
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

impl StateCodec for () {
    fn encode(&self, w: &mut SnapshotWriter) {
        // A unit still writes one byte so sequence-length sanity bounds
        // (get_count) hold for Vec<()>.
        w.put_u8(0);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(()),
            t => Err(SnapshotError::corrupt(format!("invalid unit marker {t}"))),
        }
    }
}

impl StateCodec for bool {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u8(*self as u8);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapshotError::corrupt(format!("invalid bool tag {t}"))),
        }
    }
}

impl StateCodec for u8 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u8(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_u8()
    }
}

impl StateCodec for u32 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u32(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_u32()
    }
}

impl StateCodec for u64 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_u64()
    }
}

impl StateCodec for i32 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u32(*self as u32);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.get_u32()? as i32)
    }
}

impl StateCodec for i64 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_i64(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_i64()
    }
}

impl StateCodec for usize {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let v = r.get_u64()?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::corrupt(format!("usize value {v} exceeds platform width")))
    }
}

impl StateCodec for f64 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.to_bits());
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(r.get_u64()?))
    }
}

impl<const N: usize> StateCodec for [u32; N] {
    fn encode(&self, w: &mut SnapshotWriter) {
        // Fixed arity is part of the type; no length prefix needed, but a
        // zero-length array still marks one byte (see get_count contract).
        if N == 0 {
            w.put_u8(0);
        }
        for v in self {
            w.put_u32(*v);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut out = [0u32; N];
        if N == 0 {
            r.get_u8()?;
            return Ok(out);
        }
        for slot in &mut out {
            *slot = r.get_u32()?;
        }
        Ok(out)
    }
}

impl<A: StateCodec, B: StateCodec> StateCodec for (A, B) {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: StateCodec, B: StateCodec, C: StateCodec> StateCodec for (A, B, C) {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl StateCodec for String {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.get_str()?.to_string())
    }
}

impl<T: StateCodec> StateCodec for Vec<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: StateCodec> StateCodec for Option<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(SnapshotError::corrupt(format!("invalid Option tag {t}"))),
        }
    }
}

impl StateCodec for Timestamp {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_i64(self.0);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Timestamp(r.get_i64()?))
    }
}

impl StateCodec for TickDuration {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_i64(self.0);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(TickDuration(r.get_i64()?))
    }
}

impl<P: Payload> StateCodec for Event<P> {
    /// `sync_time | other_time | key | payload`: the hash is derived.
    fn encode(&self, w: &mut SnapshotWriter) {
        debug_assert_eq!(self.hash, hash_key(self.key));
        // The fixed-width fields go out as one append, not three: batches
        // of events are the bulk of every WAL record and spill block.
        let mut head = [0u8; 20];
        head[..8].copy_from_slice(&self.sync_time.0.to_le_bytes());
        head[8..16].copy_from_slice(&self.other_time.0.to_le_bytes());
        head[16..].copy_from_slice(&self.key.to_le_bytes());
        w.buf.extend_from_slice(&head);
        self.payload.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let (sync, other, key) = (r.get_i64()?, r.get_i64()?, r.get_u32()?);
        // `keyed` derives the hash; the validity end is the stored one.
        let mut e = Event::keyed(Timestamp(sync), key, P::decode(r)?);
        e.other_time = Timestamp(other);
        Ok(e)
    }
}

impl<P: Payload> StateCodec for StreamMessage<P> {
    /// Batches are encoded as their *visible* events only — filtered rows
    /// are semantically deleted, and replay must not resurrect them.
    fn encode(&self, w: &mut SnapshotWriter) {
        match self {
            StreamMessage::Batch(b) => {
                let n = b.visible_len();
                // A close estimate for fixed-width payloads, a floor for the rest.
                w.reserve(9 + n * core::mem::size_of::<Event<P>>());
                w.put_u8(0);
                w.put_u64(n as u64);
                for e in b.iter_visible() {
                    e.encode(w);
                }
            }
            StreamMessage::Punctuation(t) => {
                w.put_u8(1);
                w.put_i64(t.0);
            }
            StreamMessage::Completed => w.put_u8(2),
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => {
                let n = r.get_count()?;
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(Event::<P>::decode(r)?);
                }
                Ok(StreamMessage::Batch(EventBatch::from_events(events)))
            }
            1 => Ok(StreamMessage::Punctuation(Timestamp(r.get_i64()?))),
            2 => Ok(StreamMessage::Completed),
            t => Err(SnapshotError::corrupt(format!(
                "invalid StreamMessage tag {t}"
            ))),
        }
    }
}

/// Convenience: encode one value as a sealed standalone frame.
pub fn encode_framed<T: StateCodec>(value: &T, magic: &[u8; 8]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    value.encode(&mut w);
    w.seal(magic, SNAPSHOT_VERSION)
}

/// Convenience: decode one value from a sealed standalone frame.
pub fn decode_framed<T: StateCodec>(frame: &[u8], magic: &[u8; 8]) -> Result<T, SnapshotError> {
    let mut r = SnapshotReader::unseal(frame, magic, SNAPSHOT_VERSION)?;
    T::decode(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"TESTMAGC";

    /// The byte-at-a-time table loop every earlier build shipped: the
    /// oracle the faster kernels must agree with bit for bit.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// The portable kernel called directly, so hosts that dispatch to the
    /// CRC instruction still exercise it.
    fn crc32c_fallback(data: &[u8]) -> u32 {
        !crc32c_slice8(!0, data)
    }

    #[test]
    fn crc32c_known_vectors_on_every_kernel() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        // "123456789" is the canonical check value; the 32-byte vectors
        // are RFC 3720 appendix B.4.
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (data, expected) in vectors {
            assert_eq!(crc32c(data), expected, "dispatched, {data:02x?}");
            assert_eq!(crc32c_fallback(data), expected, "fallback, {data:02x?}");
            assert_eq!(crc32c_bytewise(data), expected, "bytewise, {data:02x?}");
        }
    }

    #[test]
    fn crc32c_kernels_agree_across_stripe_rounds() {
        // Lengths straddling whole rounds of the three-stripe hardware
        // loop (768 B each), plus ragged tails.
        let data: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in [767, 768, 769, 1535, 1536, 1543, 2304, 9999, 10_000] {
            let expected = crc32c_bytewise(&data[..len]);
            assert_eq!(crc32c(&data[..len]), expected, "dispatched, {len} B");
            assert_eq!(crc32c_fallback(&data[..len]), expected, "fallback, {len} B");
        }
    }

    impatience_testkit::props! {
        cases = 128;
        fn crc32c_kernels_agree_at_every_alignment(
            buf in impatience_testkit::prop::vec(impatience_testkit::prop::any::<u8>(), 0..4104)
        ) {
            for start in 0..8.min(buf.len() + 1) {
                let data = &buf[start..];
                let expected = crc32c_bytewise(data);
                assert_eq!(crc32c(data), expected, "dispatched, start {start}");
                assert_eq!(crc32c_fallback(data), expected, "fallback, start {start}");
            }
        }
    }

    #[test]
    fn seal_unseal_round_trip() {
        let mut w = SnapshotWriter::new();
        w.put_u64(42);
        w.put_str("hello");
        let frame = w.seal(MAGIC, SNAPSHOT_VERSION);
        let mut r = SnapshotReader::unseal(&frame, MAGIC, SNAPSHOT_VERSION).unwrap();
        assert_eq!(r.get_u64().unwrap(), 42);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert!(r.is_exhausted());
    }

    #[test]
    fn unseal_rejects_wrong_magic_and_version() {
        let frame = SnapshotWriter::new().seal(MAGIC, SNAPSHOT_VERSION);
        assert!(matches!(
            SnapshotReader::unseal(&frame, b"OTHERMGC", SNAPSHOT_VERSION),
            Err(SnapshotError::BadMagic { .. })
        ));
        assert!(matches!(
            SnapshotReader::unseal(&frame, MAGIC, SNAPSHOT_VERSION + 1),
            Err(SnapshotError::BadVersion { .. })
        ));
    }

    #[test]
    fn unseal_detects_torn_write() {
        let mut w = SnapshotWriter::new();
        w.put_u64(7);
        let frame = w.seal(MAGIC, SNAPSHOT_VERSION);
        // Truncation anywhere — including inside the header — is Corrupt.
        for cut in 0..frame.len() {
            let err = SnapshotReader::unseal(&frame[..cut], MAGIC, SNAPSHOT_VERSION).unwrap_err();
            match err {
                SnapshotError::Corrupt { .. } => {}
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn unseal_detects_any_single_bit_flip_in_body() {
        let mut w = SnapshotWriter::new();
        w.put_u64(0xDEAD_BEEF);
        w.put_str("payload");
        let frame = w.seal(MAGIC, SNAPSHOT_VERSION);
        for i in 20..frame.len() - 4 {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            assert!(
                matches!(
                    SnapshotReader::unseal(&bad, MAGIC, SNAPSHOT_VERSION),
                    Err(SnapshotError::Corrupt { .. })
                ),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn reader_eof_is_typed() {
        let mut r = SnapshotReader::new(&[1, 2]);
        assert_eq!(
            r.get_u64(),
            Err(SnapshotError::UnexpectedEof {
                needed: 8,
                remaining: 2
            })
        );
    }

    #[test]
    fn get_count_bounds_sequence_lengths() {
        // A corrupted length larger than the remaining bytes must be
        // rejected before any allocation or decode loop.
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX);
        let body = w.into_body();
        let mut r = SnapshotReader::new(&body);
        assert!(matches!(r.get_count(), Err(SnapshotError::Corrupt { .. })));
        let mut r = SnapshotReader::new(&body);
        assert!(matches!(
            Vec::<()>::decode(&mut r),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    fn round_trip<T: StateCodec + PartialEq + core::fmt::Debug>(v: T) {
        let mut w = SnapshotWriter::new();
        v.encode(&mut w);
        let body = w.into_body();
        let mut r = SnapshotReader::new(&body);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        assert!(r.is_exhausted(), "decode left trailing bytes");
    }

    #[test]
    fn primitive_round_trips() {
        round_trip(());
        round_trip(true);
        round_trip(false);
        round_trip(0xABu8);
        round_trip(123_456u32);
        round_trip(u64::MAX);
        round_trip(-5i32);
        round_trip(i64::MIN);
        round_trip(7usize);
        round_trip(3.5f64);
        round_trip([1u32, 2, 3, 4]);
        round_trip((1u32, -2i64));
        round_trip((1u32, 2u64, String::from("three")));
        round_trip(String::from("héllo wörld"));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(9u32));
        round_trip(Option::<u32>::None);
        round_trip(Timestamp::new(77));
        round_trip(TickDuration::secs(3));
    }

    #[test]
    fn event_and_message_round_trips() {
        round_trip(Event::keyed(Timestamp::new(5), 3, [9u32, 8, 7, 6]));
        round_trip(StreamMessage::<u32>::punctuation(10));
        round_trip(StreamMessage::<u32>::Completed);
        round_trip(StreamMessage::batch(vec![
            Event::keyed(Timestamp::new(1), 1, 10u32),
            Event::keyed(Timestamp::new(2), 2, 20u32),
        ]));
        // Times and key, then the payload: the hash is left to decode.
        let mut w = SnapshotWriter::new();
        Event::keyed(Timestamp::new(5), 3, 7u32).encode(&mut w);
        assert_eq!(w.len(), 20 + 4);
    }

    #[test]
    fn batch_encoding_drops_filtered_rows() {
        let mut b = EventBatch::from_events(vec![
            Event::point(Timestamp::new(1), 1u32),
            Event::point(Timestamp::new(2), 2u32),
        ]);
        b.filter_mut().filter_out(0);
        let msg = StreamMessage::Batch(b);
        let mut w = SnapshotWriter::new();
        msg.encode(&mut w);
        let body = w.into_body();
        let decoded = StreamMessage::<u32>::decode(&mut SnapshotReader::new(&body)).unwrap();
        match decoded {
            StreamMessage::Batch(b) => {
                assert_eq!(b.len(), 1);
                assert_eq!(b.events()[0].payload, 2);
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn invalid_tags_are_corrupt_not_panics() {
        let mut r = SnapshotReader::new(&[9]);
        assert!(matches!(
            bool::decode(&mut r),
            Err(SnapshotError::Corrupt { .. })
        ));
        let mut r = SnapshotReader::new(&[9]);
        assert!(matches!(
            Option::<u32>::decode(&mut r),
            Err(SnapshotError::Corrupt { .. })
        ));
        let mut r = SnapshotReader::new(&[9]);
        assert!(matches!(
            StreamMessage::<u32>::decode(&mut r),
            Err(SnapshotError::Corrupt { .. })
        ));
        let mut r = SnapshotReader::new(&[0xFF, 0xFF, 0xFF]);
        assert!(matches!(
            String::decode(&mut r),
            Err(SnapshotError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn framed_helpers_round_trip() {
        let v = vec![Timestamp::new(1), Timestamp::new(2)];
        let frame = encode_framed(&v, MAGIC);
        assert_eq!(decode_framed::<Vec<Timestamp>>(&frame, MAGIC).unwrap(), v);
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(decode_framed::<Vec<Timestamp>>(&bad, MAGIC).is_err());
    }
}
