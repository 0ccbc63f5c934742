//! Durable chunk backends: the persistence layer beneath
//! [`crate::provider::ChunkStore`].
//!
//! A [`ChunkBackend`] is a write-ahead record of a provider's chunk set.
//! The store keeps serving every payload from its in-memory shards — the
//! backend is consulted only on mutation (append a record) and on open
//! (recover the surviving chunk set). Two implementations:
//!
//! * [`MemoryBackend`] — the historical behavior: nothing survives a
//!   crash, a restarted provider comes back empty and re-replication is
//!   the only recovery path.
//! * [`DiskBackend`] — a log-structured local-disk store in the SPDK
//!   BlobStore / Bitcask idiom: a `SUPERBLOCK` file plus append-only
//!   `seg-NNNNNN.log` segment files of CRC32-framed put/delete records.
//!   Opening a directory scans the segments in order, truncates a torn
//!   tail (a frame cut short by the crash), quarantines any complete
//!   frame whose CRC32 does not match, and rebuilds the live chunk set.
//!   Dead bytes (overwritten, deleted or quarantined frames) are
//!   reclaimed by background compaction of whole segments.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/
//!   SUPERBLOCK        magic ─ format version ─ segment_bytes ─ CRC32
//!   seg-000000.log    [record][record][record]...
//!   seg-000001.log    ...
//!
//! record := magic:u32 kind:u8 flavor:u8 blob:u64 version:u64 page:u64
//!           len:u64 payload:[u8; len if flavor = data] crc32:u32
//! ```
//!
//! All integers are little-endian. The CRC covers everything between the
//! magic and the checksum itself. `kind` is put (1) or delete (2);
//! `flavor` records whether the payload is real bytes
//! ([`Payload::Data`]) or a size-only simulation stand-in
//! ([`Payload::Sim`], no payload bytes on disk).
//!
//! ## Recovery invariants
//!
//! * A record is applied only if its frame is complete **and** its CRC
//!   matches: the recovered chunk set is always a prefix of the
//!   acknowledged record sequence, never a superset.
//! * A short or unparsable tail means the process died mid-append; the
//!   tail is truncated and the log stays appendable.
//! * A complete frame with a CRC mismatch means media corruption, not a
//!   torn write; the record is quarantined (skipped and counted) and the
//!   scan continues behind it.
//!
//! # Example: a write → crash → recover round trip
//!
//! ```
//! use sads_blob::storage::{payload_crc, ChunkBackend, DiskBackend, DiskConfig};
//! use sads_blob::{BlobId, ChunkKey, Payload, VersionId};
//!
//! let dir = std::env::temp_dir().join(format!("sads-doctest-{}", std::process::id()));
//! let key = ChunkKey { blob: BlobId(1), version: VersionId(1), page: 7 };
//!
//! // A provider writes a chunk, then crashes (drop without shutdown).
//! let mut backend = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
//! let hello = Payload::Data(bytes::Bytes::from_static(b"hello"));
//! backend.append_put(&key, &hello, payload_crc(&hello)).unwrap();
//! drop(backend);
//!
//! // The restarted provider re-opens the same directory and recovers.
//! let mut backend = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
//! let report = backend.recover();
//! assert_eq!(report.chunks.len(), 1);
//! assert_eq!(report.chunks[0].0, key);
//! assert_eq!(report.chunks[0].1.len(), 5);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, IoSlice, Read, Seek, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::model::{BlobId, ChunkKey, Payload, VersionId};

// ---------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------

const CRC32_SLICES: usize = 16;

/// Reflected CRC-32C (Castagnoli) polynomial — the one the x86 `crc32`
/// instruction implements, so the hardware and software paths agree.
const CRC32C_POLY: u32 = 0x82F6_3B78;

const fn crc32c_tables() -> [[u32; 256]; CRC32_SLICES] {
    let mut tables = [[0u32; 256]; CRC32_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC32C_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // tables[n] advances the register by n extra zero bytes, so a
    // 16-byte block folds with one lookup per byte and no carry chain.
    let mut n = 1;
    while n < CRC32_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[n - 1][i];
            tables[n][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        n += 1;
    }
    tables
}

static CRC32C_TABLES: [[u32; 256]; CRC32_SLICES] = crc32c_tables();

/// Software CRC-32C: slicing-by-16 with const-generated tables. The
/// fallback on machines without SSE4.2, and the reference the hardware
/// path is tested against.
fn crc32c_sw(data: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(CRC32_SLICES);
    for b in &mut chunks {
        let q = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(q & 0xFF) as usize]
            ^ t[14][((q >> 8) & 0xFF) as usize]
            ^ t[13][((q >> 16) & 0xFF) as usize]
            ^ t[12][(q >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// `a · b mod P` over GF(2) in the reflected representation the CRC
/// register uses (bit 31 is x⁰). Multiplying a CRC by x^(8n) advances it
/// past n zero bytes, which is all both the lane merge and
/// [`crc32c_combine`] need.
const fn gf2_mul(a: u32, mut b: u32) -> u32 {
    // Branch-free: the operands are checksums, so no bit is predictable.
    let mut p = 0;
    let mut bit = 32;
    while bit != 0 {
        bit -= 1;
        p ^= b & 0u32.wrapping_sub((a >> bit) & 1);
        b = (b >> 1) ^ (CRC32C_POLY & 0u32.wrapping_sub(b & 1));
    }
    p
}

/// `X8_POW2[k]` = x^(8·2^k) mod P: the operator for 2^k zero bytes.
static X8_POW2: [u32; 64] = {
    let mut t = [1u32 << 23; 64]; // x^8
    let mut k = 1;
    while k < 64 {
        t[k] = gf2_mul(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// `crc · x^(8·len) mod P`: the register `len` zero bytes later, by
/// square-and-multiply over the bits of `len`.
const fn crc32c_shift(mut crc: u32, mut len: u64) -> u32 {
    let mut k = 0;
    while len != 0 {
        if len & 1 != 0 {
            crc = gf2_mul(X8_POW2[k], crc);
        }
        len >>= 1;
        k += 1;
    }
    crc
}

/// CRC-32C of `a ++ b` from the two halves' CRCs and `b`'s length, in
/// O(log len_b) without touching a byte: `crc_a · x^(8·len_b) ⊕ crc_b`
/// (the initial and final inversions cancel). The disk log derives a
/// frame's checksum from its payload's this way.
pub fn crc32c_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    crc32c_shift(crc_a, len_b) ^ crc_b
}

/// Bytes per lane of the lane kernel: three lanes fill 16 KiB less
/// 16 B, so a power-of-two page leaves almost no single-chain tail.
#[cfg(target_arch = "x86_64")]
const LANE: usize = 5456;
#[cfg(target_arch = "x86_64")]
const LANE_SHIFT: u32 = crc32c_shift(1 << 31, LANE as u64);

/// Lane kernel: the SSE4.2 `crc32` instruction, register in, register
/// out (no inversions). The instruction has a 3-cycle latency and a
/// 1-cycle throughput, so one dependent chain runs at a third of what
/// the unit can issue: blocks of 3 × [`LANE`] bytes run three
/// independent chains over consecutive lanes and merge them by advancing
/// the earlier lanes past the later ones (`· x^(8·LANE)`). Shorter
/// buffers and the tail take the single chain, 8 bytes per step.
///
/// # Safety
///
/// The CPU must support SSE4.2 (`is_x86_feature_detected!("sse4.2")`).
/// Nothing else is required: every memory access is a checked slice read.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_lanes(c: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
    let mut c = c as u64;
    let mut blocks = data.chunks_exact(3 * LANE);
    for block in &mut blocks {
        let (l0, rest) = block.split_at(LANE);
        let (l1, l2) = rest.split_at(LANE);
        let (mut c1, mut c2) = (0u64, 0u64);
        for ((w0, w1), w2) in l0.chunks_exact(8).zip(l1.chunks_exact(8)).zip(l2.chunks_exact(8)) {
            c = _mm_crc32_u64(c, word(w0));
            c1 = _mm_crc32_u64(c1, word(w1));
            c2 = _mm_crc32_u64(c2, word(w2));
        }
        let c01 = gf2_mul(LANE_SHIFT, c as u32) ^ c1 as u32;
        c = (gf2_mul(LANE_SHIFT, c01) ^ c2 as u32) as u64;
    }
    let mut chunks = blocks.remainder().chunks_exact(8);
    for b in &mut chunks {
        c = _mm_crc32_u64(c, word(b));
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    c
}

/// x^n mod P, reflected like the register: n multiplications by x.
#[cfg(target_arch = "x86_64")]
const fn x_pow(n: u32) -> u32 {
    let mut r = 1u32 << 31; // x⁰
    let mut i = 0;
    while i < n {
        r = (r >> 1) ^ (CRC32C_POLY & 0u32.wrapping_sub(r & 1));
        i += 1;
    }
    r
}

/// The multipliers that move a 16-byte piece of the message `bits` bits
/// further on: `reverse_bits(x^(bits+63) mod P)` for its low qword (the
/// earlier 8 bytes, which weigh x⁶⁴ more) and `reverse_bits(x^(bits-1)
/// mod P)` for its high one, both over 64 bits. The exponents are one
/// short because a carry-less product of two bit-reversed qwords comes
/// out one bit low. A reflected remainder is its 32-bit `reverse_bits`
/// already, so widening it to 64 is a shift.
#[cfg(target_arch = "x86_64")]
const fn fold_pair(bits: u32) -> [u64; 2] {
    [(x_pow(bits + 63) as u64) << 32, (x_pow(bits - 1) as u64) << 32]
}

/// Bytes per block of the fold kernel: eight 32-byte accumulators.
#[cfg(target_arch = "x86_64")]
const FOLD_BLOCK: usize = 256;

/// Fold kernel: carry-less multiplication over 256-bit vectors, register
/// in, register out. Eight accumulators hold a 256-byte block; for each
/// further block every accumulator is moved 2 048 bits on (each 128-bit
/// lane times [`fold_pair`], two `vpclmulqdq`, one XOR) and the block's
/// 32 bytes at its place are XORed in. The register is XORed into the
/// first 4 bytes, which is what starting a chain from it means. At the
/// end the accumulators fold onto the last 16 bytes, which take any
/// further 16-byte pieces the same way; the `crc32` instruction turns
/// those 16 bytes into the register, and the last < 16 bytes go through
/// [`crc32c_lanes`], as does a buffer shorter than one block. A fold
/// replaces bits by bits that are equal to them mod P, so the CRC is
/// exactly the lane kernel's.
///
/// # Safety
///
/// The CPU must support AVX2 and VPCLMULQDQ
/// (`is_x86_feature_detected!` of both; they imply the PCLMULQDQ and
/// SSE4.2 of the 128-bit steps). Nothing else is required: every vector
/// load reads a `chunks_exact` slice of exactly the vector's width, and
/// every other access is a checked slice read.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,vpclmulqdq")]
unsafe fn crc32c_fold(c: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    const TO_NEXT_BLOCK: [u64; 2] = fold_pair(8 * FOLD_BLOCK as u32);
    const TO_NEXT_16: [u64; 2] = fold_pair(128);
    // Accumulator i of eight onto the last: (7 − i) × 256 bits.
    const TO_LAST: [[u64; 2]; 7] = {
        let mut t = [[0; 2]; 7];
        let mut i = 0;
        while i < 7 {
            t[i] = fold_pair(256 * (7 - i as u32));
            i += 1;
        }
        t
    };
    let pair = |k: [u64; 2]| _mm_set_epi64x(k[1] as i64, k[0] as i64);
    let load = |v: &[u8]| _mm256_loadu_si256(v.as_ptr().cast());
    let fold = |a, k| {
        let k = _mm256_broadcastsi128_si256(pair(k));
        _mm256_xor_si256(_mm256_clmulepi64_epi128(a, k, 0x00), _mm256_clmulepi64_epi128(a, k, 0x11))
    };

    let mut blocks = data.chunks_exact(FOLD_BLOCK);
    let Some(first) = blocks.next() else { return crc32c_lanes(c, data) };
    let mut acc = [_mm256_setzero_si256(); 8];
    for (a, v) in acc.iter_mut().zip(first.chunks_exact(32)) {
        *a = load(v);
    }
    acc[0] = _mm256_xor_si256(acc[0], _mm256_set_epi32(0, 0, 0, 0, 0, 0, 0, c as i32));
    for block in &mut blocks {
        for (a, v) in acc.iter_mut().zip(block.chunks_exact(32)) {
            *a = _mm256_xor_si256(fold(*a, TO_NEXT_BLOCK), load(v));
        }
    }
    let mut last = acc[7];
    for (a, k) in acc.iter().zip(TO_LAST) {
        last = _mm256_xor_si256(last, fold(*a, k));
    }

    let fold16 = |x| {
        let k = pair(TO_NEXT_16);
        _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11))
    };
    let mut x =
        _mm_xor_si128(fold16(_mm256_castsi256_si128(last)), _mm256_extracti128_si256(last, 1));
    let mut rest = blocks.remainder().chunks_exact(16);
    for v in &mut rest {
        x = _mm_xor_si128(fold16(x), _mm_loadu_si128(v.as_ptr().cast()));
    }
    let (lo, hi) = (_mm_cvtsi128_si64(x) as u64, _mm_extract_epi64(x, 1) as u64);
    crc32c_lanes(_mm_crc32_u64(_mm_crc32_u64(0, lo), hi) as u32, rest.remainder())
}

/// CRC-32C (Castagnoli) over a byte slice. On x86-64 it runs the fold
/// kernel when the CPU has AVX2 and VPCLMULQDQ, else the lane kernel
/// when it has SSE4.2; elsewhere slicing-by-16 software. All three give
/// identical digests, so logs move between machines. Every frame and the
/// superblock carry one of these, and the writer checksums every page
/// it cuts, once, before the replicas are sent it — this sits on the hot
/// write path, hence the hardware kernels (format v2; v1 logs used
/// CRC-32/IEEE and are rejected as incompatible at open).
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(test)]
    CRC32C_CALLS.with(|n| n.set(n.get() + 1));
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx2") && has!("vpclmulqdq") {
            // SAFETY: AVX2 and VPCLMULQDQ were detected on the line above.
            return !unsafe { crc32c_fold(!0, data) };
        }
        if has!("sse4.2") {
            // SAFETY: SSE4.2 was detected on the line above.
            return !unsafe { crc32c_lanes(!0, data) };
        }
    }
    crc32c_sw(data)
}

#[cfg(test)]
thread_local! {
    /// [`crc32c`] calls made by this thread: lets a test assert that a
    /// path checksums nothing.
    pub(crate) static CRC32C_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// CRC-32C of a payload as the writer computes it for each page it cuts
/// (and as [`crate::provider::ChunkStore::put`] does for a caller without
/// one): real bytes hash their contents, size-only simulation stand-ins
/// hash the length. The integrity scrub recomputes this and compares it
/// against the checksum stored in the chunk's metadata.
pub fn payload_crc(p: &Payload) -> u32 {
    match p {
        Payload::Data(b) => crc32c(b),
        Payload::Sim(n) => crc32c(&n.to_le_bytes()),
    }
}

// ---------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------

const RECORD_MAGIC: u32 = 0x5341_4453; // "SADS"
const SUPER_MAGIC: u32 = 0x5342_4C4B; // "SBLK"
// v2: frame and superblock checksums switched from CRC-32/IEEE to
// CRC-32C (Castagnoli) for the SSE4.2 hardware path; v1 logs are
// rejected as incompatible at open.
const FORMAT_VERSION: u32 = 2;
const SUPERBLOCK: &str = "SUPERBLOCK";
/// magic + kind + flavor + blob + version + page + len.
const HEADER_LEN: usize = 4 + 1 + 1 + 8 + 8 + 8 + 8;
const TRAILER_LEN: usize = 4; // crc32
const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;
const FLAVOR_SIM: u8 = 0;
const FLAVOR_DATA: u8 = 1;

fn segment_name(id: u64) -> String {
    format!("seg-{id:06}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(".log")?.parse().ok()
}

fn frame_header(kind: u8, flavor: u8, key: &ChunkKey, len: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
    h[4] = kind;
    h[5] = flavor;
    h[6..14].copy_from_slice(&key.blob.0.to_le_bytes());
    h[14..22].copy_from_slice(&key.version.0.to_le_bytes());
    h[22..30].copy_from_slice(&key.page.to_le_bytes());
    h[30..38].copy_from_slice(&len.to_le_bytes());
    h
}

/// `write_all` over several buffers: one `write_vectored` when the
/// writer takes them whole, resumed after a short write.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0); // drop leading empty buffers
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Outcome of parsing one frame out of a segment buffer.
enum FrameParse {
    /// Clean end of segment.
    Eof,
    /// Incomplete or unparsable tail: truncate the segment here.
    Torn,
    /// Complete frame, CRC mismatch: quarantine and step over it.
    Corrupt { frame_len: usize },
    /// A valid record. `data_crc` is the CRC of the payload bytes on disk
    /// (0 for a size-only record), a by-product of validating the frame.
    Record {
        kind: u8,
        flavor: u8,
        key: ChunkKey,
        len: u64,
        payload: (usize, usize),
        data_crc: u32,
        frame_len: usize,
    },
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

fn parse_frame(buf: &[u8], offset: usize) -> FrameParse {
    if offset == buf.len() {
        return FrameParse::Eof;
    }
    if buf.len() - offset < HEADER_LEN + TRAILER_LEN {
        return FrameParse::Torn;
    }
    let h = &buf[offset..];
    let magic = u32::from_le_bytes(h[0..4].try_into().unwrap());
    if magic != RECORD_MAGIC {
        return FrameParse::Torn;
    }
    let kind = h[4];
    let flavor = h[5];
    let key = ChunkKey {
        blob: BlobId(u64_at(h, 6)),
        version: VersionId(u64_at(h, 14)),
        page: u64_at(h, 22),
    };
    let len = u64_at(h, 30);
    let payload_len = if flavor == FLAVOR_DATA { len as usize } else { 0 };
    let frame_len = HEADER_LEN + payload_len + TRAILER_LEN;
    if buf.len() - offset < frame_len {
        return FrameParse::Torn;
    }
    let payload = (offset + HEADER_LEN, offset + HEADER_LEN + payload_len);
    let stored = u32::from_le_bytes(
        buf[offset + frame_len - TRAILER_LEN..offset + frame_len].try_into().unwrap(),
    );
    // Header and payload are checksummed apart and combined, so the one
    // pass over the payload also yields the CRC the store keeps for it.
    let data_crc = crc32c(&buf[payload.0..payload.1]);
    let frame_crc = crc32c_combine(crc32c(&h[4..HEADER_LEN]), data_crc, payload_len as u64);
    if frame_crc != stored || !matches!(kind, KIND_PUT | KIND_DELETE) {
        return FrameParse::Corrupt { frame_len };
    }
    FrameParse::Record { kind, flavor, key, len, payload, data_crc, frame_len }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Tuning for one [`DiskBackend`] directory.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskConfig {
    /// Directory holding the superblock and segment files. Created on
    /// open if missing; re-opening an existing directory recovers it.
    pub dir: PathBuf,
    /// Roll to a new segment file once the active one reaches this size.
    pub segment_bytes: u64,
    /// Compact a sealed segment once this fraction of its bytes is dead
    /// (overwritten, deleted or quarantined). `> 1.0` disables
    /// compaction.
    pub compact_min_dead_ratio: f64,
}

impl DiskConfig {
    /// Defaults: 64 MiB segments, compaction at 50% dead bytes.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskConfig { dir: dir.into(), segment_bytes: 64 << 20, compact_min_dead_ratio: 0.5 }
    }
}

/// Which backend one provider's [`crate::provider::ChunkStore`] persists
/// through. Carried by [`crate::services::ServiceConfig`].
#[derive(Debug, Clone, Default, PartialEq)]
pub enum BackendConfig {
    /// No durability: a crash loses every chunk (the pre-durable
    /// behavior, and still the right choice for simulation sweeps that
    /// model crash-loss deliberately).
    #[default]
    Memory,
    /// Log-structured local-disk store; survives crash + restart.
    Disk(DiskConfig),
}

impl BackendConfig {
    /// Instantiate the backend (opening + scanning the directory for the
    /// disk flavor).
    pub fn build(&self) -> io::Result<Box<dyn ChunkBackend>> {
        match self {
            BackendConfig::Memory => Ok(Box::new(MemoryBackend)),
            BackendConfig::Disk(cfg) => Ok(Box::new(DiskBackend::open(cfg.clone())?)),
        }
    }
}

/// Deployment-level backend selection: one spec fans out to a
/// per-provider [`BackendConfig`], giving each data provider its own
/// subdirectory under a common root. Both runtimes record the assigned
/// directory per node so a restart re-opens the same one.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum BackendSpec {
    /// All providers in-memory (the default).
    #[default]
    Memory,
    /// All providers on disk under `root/provider-NNNN/`.
    Disk {
        /// Root directory; per-provider subdirectories are created
        /// beneath it.
        root: PathBuf,
        /// See [`DiskConfig::segment_bytes`].
        segment_bytes: u64,
        /// See [`DiskConfig::compact_min_dead_ratio`].
        compact_min_dead_ratio: f64,
    },
}

impl BackendSpec {
    /// A disk spec with default tuning under `root`.
    pub fn disk(root: impl Into<PathBuf>) -> Self {
        BackendSpec::Disk {
            root: root.into(),
            segment_bytes: 64 << 20,
            compact_min_dead_ratio: 0.5,
        }
    }

    /// The per-provider config for the `ordinal`-th data provider.
    pub fn for_provider(&self, ordinal: usize) -> BackendConfig {
        match self {
            BackendSpec::Memory => BackendConfig::Memory,
            BackendSpec::Disk { root, segment_bytes, compact_min_dead_ratio } => {
                BackendConfig::Disk(DiskConfig {
                    dir: root.join(format!("provider-{ordinal:04}")),
                    segment_bytes: *segment_bytes,
                    compact_min_dead_ratio: *compact_min_dead_ratio,
                })
            }
        }
    }
}

// ---------------------------------------------------------------------
// Trait + reports
// ---------------------------------------------------------------------

/// What a durable backend hands back when a re-opened store recovers.
#[derive(Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Surviving chunks, sorted by key (deterministic re-announcement
    /// order).
    pub chunks: Vec<(ChunkKey, Payload)>,
    /// [`payload_crc`] of each chunk, in the order of `chunks` — the scan
    /// checksummed every payload to validate its frame, so the store
    /// need not again.
    pub crcs: Vec<u32>,
    /// Total payload bytes recovered.
    pub bytes: u64,
    /// Complete frames discarded for a CRC mismatch.
    pub quarantined: u64,
    /// Torn tails truncated (at most one per segment).
    pub torn_discarded: u64,
}

/// Occupancy and maintenance counters for a backend.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendStats {
    /// Segment files currently on disk.
    pub segments: u64,
    /// Frame bytes still referenced by the live chunk set.
    pub live_bytes: u64,
    /// Frame bytes awaiting compaction (overwritten/deleted/corrupt).
    pub dead_bytes: u64,
    /// Records quarantined for CRC mismatches (recovery + compaction).
    pub quarantined: u64,
    /// Torn tails truncated at recovery.
    pub torn_discarded: u64,
    /// Segments rewritten by compaction.
    pub compactions: u64,
    /// Bytes reclaimed by compaction.
    pub reclaimed_bytes: u64,
}

/// The durable log beneath a [`crate::provider::ChunkStore`].
///
/// The store calls [`ChunkBackend::append_put`] / [`append_delete`]
/// under the owning shard lock (so the log order matches the
/// acknowledgment order per key) and [`recover`] exactly once at open.
/// Backend I/O failures are fail-stop for the provider: the store
/// panics rather than acknowledge a write it did not persist.
///
/// [`append_delete`]: ChunkBackend::append_delete
/// [`recover`]: ChunkBackend::recover
pub trait ChunkBackend: Send + std::fmt::Debug {
    /// Persist a stored chunk. `crc` is [`payload_crc`]`(data)`, which
    /// the store has already computed: the log frame's checksum is
    /// derived from it instead of reading the payload a second time.
    fn append_put(&mut self, key: &ChunkKey, data: &Payload, crc: u32) -> io::Result<()>;
    /// Persist a deletion.
    fn append_delete(&mut self, key: &ChunkKey) -> io::Result<()>;
    /// Take the chunk set that survived the last crash (meaningful once,
    /// right after open; later calls return an empty report).
    fn recover(&mut self) -> RecoveryReport;
    /// Run compaction if any sealed segment crossed its dead-byte
    /// threshold; returns the bytes reclaimed.
    fn maybe_compact(&mut self) -> io::Result<u64>;
    /// Current occupancy / maintenance counters.
    fn stats(&self) -> BackendStats;
    /// Re-verify the durable record for `key`: re-read its frame and
    /// check the on-media checksum. `Ok(true)` means clean — or that
    /// there is no durable record to damage (the memory backend, or a
    /// key the log never saw). `Ok(false)` means the record rotted.
    fn verify(&mut self, key: &ChunkKey) -> io::Result<bool> {
        let _ = key;
        Ok(true)
    }
    /// Fault injection for tests and experiments: damage the durable
    /// record for `key` in place. No-op for backends with no durable
    /// state.
    fn corrupt(&mut self, key: &ChunkKey) -> io::Result<()> {
        let _ = key;
        Ok(())
    }
}

/// The no-durability backend: appends are no-ops and nothing ever
/// recovers.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryBackend;

impl ChunkBackend for MemoryBackend {
    fn append_put(&mut self, _key: &ChunkKey, _data: &Payload, _crc: u32) -> io::Result<()> {
        Ok(())
    }
    fn append_delete(&mut self, _key: &ChunkKey) -> io::Result<()> {
        Ok(())
    }
    fn recover(&mut self) -> RecoveryReport {
        RecoveryReport::default()
    }
    fn maybe_compact(&mut self) -> io::Result<u64> {
        Ok(0)
    }
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }
}

// ---------------------------------------------------------------------
// Disk backend
// ---------------------------------------------------------------------

/// Where a live record sits on disk.
#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    seg: u64,
    offset: u64,
    frame_len: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct SegUsage {
    live: u64,
    dead: u64,
}

/// Log-structured local-disk chunk backend. See the [module docs]
/// (self) for the on-disk format and recovery invariants.
#[derive(Debug)]
pub struct DiskBackend {
    cfg: DiskConfig,
    active: File,
    active_id: u64,
    active_len: u64,
    keydir: HashMap<ChunkKey, RecordLoc>,
    segs: BTreeMap<u64, SegUsage>,
    pending: Option<RecoveryReport>,
    quarantined: u64,
    torn: u64,
    compactions: u64,
    reclaimed: u64,
}

impl DiskBackend {
    /// Open (or create) a backend directory, scanning every segment to
    /// rebuild the live chunk set. Torn tails are truncated in place;
    /// CRC-mismatched records are quarantined. The recovered chunks are
    /// buffered until the first [`ChunkBackend::recover`] call.
    pub fn open(cfg: DiskConfig) -> io::Result<DiskBackend> {
        fs::create_dir_all(&cfg.dir)?;
        check_or_write_superblock(&cfg)?;

        let mut ids: Vec<u64> = fs::read_dir(&cfg.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_segment_name(&e.file_name().to_string_lossy()))
            .collect();
        ids.sort_unstable();

        let mut keydir = HashMap::new();
        let mut segs = BTreeMap::new();
        let mut recovered: HashMap<ChunkKey, (Payload, u32)> = HashMap::new();
        let mut quarantined = 0u64;
        let mut torn = 0u64;
        for &id in &ids {
            scan_segment(
                &cfg.dir.join(segment_name(id)),
                id,
                &mut keydir,
                &mut segs,
                &mut recovered,
                &mut quarantined,
                &mut torn,
            )?;
        }

        let active_id = ids.last().copied().unwrap_or(0);
        let path = cfg.dir.join(segment_name(active_id));
        let active = OpenOptions::new().create(true).append(true).open(&path)?;
        let active_len = active.metadata()?.len();
        segs.entry(active_id).or_default();

        let mut recovered: Vec<(ChunkKey, (Payload, u32))> = recovered.into_iter().collect();
        recovered.sort_by_key(|(k, _)| *k);
        let (chunks, crcs): (Vec<_>, Vec<_>) =
            recovered.into_iter().map(|(k, (p, crc))| ((k, p), crc)).unzip();
        let bytes = chunks.iter().map(|(_, p)| p.len()).sum();
        let pending =
            Some(RecoveryReport { chunks, crcs, bytes, quarantined, torn_discarded: torn });

        Ok(DiskBackend {
            cfg,
            active,
            active_id,
            active_len,
            keydir,
            segs,
            pending,
            quarantined,
            torn,
            compactions: 0,
            reclaimed: 0,
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    fn roll_if_needed(&mut self) -> io::Result<()> {
        if self.active_len < self.cfg.segment_bytes {
            return Ok(());
        }
        self.active.flush()?;
        self.active_id += 1;
        let path = self.cfg.dir.join(segment_name(self.active_id));
        self.active = OpenOptions::new().create(true).append(true).open(&path)?;
        self.active_len = 0;
        self.segs.entry(self.active_id).or_default();
        Ok(())
    }

    /// Append one frame, given as its consecutive parts, to the active
    /// segment.
    fn append_frame(&mut self, parts: &mut [IoSlice<'_>]) -> io::Result<RecordLoc> {
        self.roll_if_needed()?;
        let frame_len = parts.iter().map(|p| p.len() as u64).sum();
        write_all_vectored(&mut self.active, parts)?;
        let loc = RecordLoc { seg: self.active_id, offset: self.active_len, frame_len };
        self.active_len += frame_len;
        Ok(loc)
    }

    /// Append header · payload · CRC as one frame. The CRC covers header
    /// and payload but is derived from `payload_crc`, so the payload is
    /// neither read again nor copied next to its header.
    fn append_record(
        &mut self,
        header: [u8; HEADER_LEN],
        payload: &[u8],
        payload_crc: u32,
    ) -> io::Result<RecordLoc> {
        let crc = crc32c_combine(crc32c(&header[4..]), payload_crc, payload.len() as u64);
        self.append_frame(&mut [
            IoSlice::new(&header),
            IoSlice::new(payload),
            IoSlice::new(&crc.to_le_bytes()),
        ])
    }

    /// Account a put frame that landed at `loc` as the live record of
    /// `key`, retiring the one it replaces.
    fn index_put(&mut self, key: ChunkKey, loc: RecordLoc) {
        self.segs.entry(loc.seg).or_default().live += loc.frame_len;
        if let Some(old) = self.keydir.insert(key, loc) {
            self.retire(old);
        }
    }

    fn retire(&mut self, old: RecordLoc) {
        let u = self.segs.entry(old.seg).or_default();
        u.live = u.live.saturating_sub(old.frame_len);
        u.dead += old.frame_len;
    }

    /// Rewrite the live records of one sealed segment into the active
    /// one, then delete its file. Returns the file bytes reclaimed.
    fn compact_segment(&mut self, seg: u64) -> io::Result<u64> {
        let path = self.cfg.dir.join(segment_name(seg));
        let buf = fs::read(&path)?;
        let mut entries: Vec<(ChunkKey, RecordLoc)> =
            self.keydir.iter().filter(|(_, l)| l.seg == seg).map(|(k, l)| (*k, *l)).collect();
        entries.sort_by_key(|(_, l)| l.offset);
        for (key, loc) in entries {
            let at = loc.offset as usize;
            match parse_frame(&buf, at) {
                // A validated frame names its own key: move it as it is.
                FrameParse::Record { kind: KIND_PUT, key: k, frame_len, .. } if k == key => {
                    let new = self.append_frame(&mut [IoSlice::new(&buf[at..at + frame_len])])?;
                    self.index_put(key, new);
                }
                _ => {
                    // The record rotted since recovery validated it:
                    // quarantine it. The in-memory copy keeps serving
                    // reads; only a future restart loses the chunk.
                    self.quarantined += 1;
                    self.keydir.remove(&key);
                    self.retire(loc);
                }
            }
        }
        fs::remove_file(&path)?;
        self.segs.remove(&seg);
        self.compactions += 1;
        self.reclaimed += buf.len() as u64;
        Ok(buf.len() as u64)
    }
}

impl ChunkBackend for DiskBackend {
    fn append_put(&mut self, key: &ChunkKey, data: &Payload, crc: u32) -> io::Result<()> {
        // A size-only payload has no bytes on disk (its CRC is of the
        // length, not of frame content): the frame is the header alone.
        let (flavor, bytes, data_crc): (u8, &[u8], u32) = match data {
            Payload::Data(b) => (FLAVOR_DATA, b, crc),
            Payload::Sim(_) => (FLAVOR_SIM, &[], 0),
        };
        let header = frame_header(KIND_PUT, flavor, key, data.len());
        let loc = self.append_record(header, bytes, data_crc)?;
        self.index_put(*key, loc);
        Ok(())
    }

    fn append_delete(&mut self, key: &ChunkKey) -> io::Result<()> {
        let Some(old) = self.keydir.remove(key) else { return Ok(()) };
        let loc = self.append_record(frame_header(KIND_DELETE, FLAVOR_SIM, key, 0), &[], 0)?;
        // The tombstone itself is dead weight the moment it lands.
        self.segs.entry(loc.seg).or_default().dead += loc.frame_len;
        self.retire(old);
        Ok(())
    }

    fn recover(&mut self) -> RecoveryReport {
        self.pending.take().unwrap_or_default()
    }

    fn maybe_compact(&mut self) -> io::Result<u64> {
        let victims: Vec<u64> = self
            .segs
            .iter()
            .filter(|(&id, u)| {
                id != self.active_id
                    && u.live + u.dead > 0
                    && u.dead as f64 / (u.live + u.dead) as f64
                        >= self.cfg.compact_min_dead_ratio
            })
            .map(|(&id, _)| id)
            .collect();
        let mut reclaimed = 0;
        for seg in victims {
            reclaimed += self.compact_segment(seg)?;
        }
        Ok(reclaimed)
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            segments: self.segs.len() as u64,
            live_bytes: self.segs.values().map(|u| u.live).sum(),
            dead_bytes: self.segs.values().map(|u| u.dead).sum(),
            quarantined: self.quarantined,
            torn_discarded: self.torn,
            compactions: self.compactions,
            reclaimed_bytes: self.reclaimed,
        }
    }

    fn verify(&mut self, key: &ChunkKey) -> io::Result<bool> {
        let Some(loc) = self.keydir.get(key).copied() else { return Ok(true) };
        let mut f = File::open(self.cfg.dir.join(segment_name(loc.seg)))?;
        f.seek(io::SeekFrom::Start(loc.offset))?;
        let mut buf = vec![0u8; loc.frame_len as usize];
        f.read_exact(&mut buf)?;
        Ok(matches!(parse_frame(&buf, 0), FrameParse::Record { kind: KIND_PUT, .. }))
    }

    fn corrupt(&mut self, key: &ChunkKey) -> io::Result<()> {
        let Some(loc) = self.keydir.get(key).copied() else { return Ok(()) };
        let path = self.cfg.dir.join(segment_name(loc.seg));
        let mut f = OpenOptions::new().read(true).write(true).open(&path)?;
        // Flip the record's kind byte: the frame stays parseable but its
        // CRC no longer matches, exactly like rotted media.
        let at = loc.offset + 4;
        f.seek(io::SeekFrom::Start(at))?;
        let mut b = [0u8; 1];
        f.read_exact(&mut b)?;
        b[0] ^= 0xFF;
        f.seek(io::SeekFrom::Start(at))?;
        f.write_all(&b)
    }
}

fn scan_segment(
    path: &Path,
    seg: u64,
    keydir: &mut HashMap<ChunkKey, RecordLoc>,
    segs: &mut BTreeMap<u64, SegUsage>,
    recovered: &mut HashMap<ChunkKey, (Payload, u32)>,
    quarantined: &mut u64,
    torn: &mut u64,
) -> io::Result<()> {
    let buf = fs::read(path)?;
    segs.entry(seg).or_default();
    let mut offset = 0usize;
    let valid_len = loop {
        match parse_frame(&buf, offset) {
            FrameParse::Eof => break buf.len(),
            FrameParse::Torn => {
                *torn += 1;
                break offset;
            }
            FrameParse::Corrupt { frame_len } => {
                *quarantined += 1;
                segs.entry(seg).or_default().dead += frame_len as u64;
                offset += frame_len;
            }
            FrameParse::Record { kind, flavor, key, len, payload, data_crc, frame_len } => {
                let retire = |segs: &mut BTreeMap<u64, SegUsage>, old: RecordLoc| {
                    let u = segs.entry(old.seg).or_default();
                    u.live = u.live.saturating_sub(old.frame_len);
                    u.dead += old.frame_len;
                };
                if kind == KIND_PUT {
                    let chunk = if flavor == FLAVOR_DATA {
                        let data = Bytes::from(buf[payload.0..payload.1].to_vec());
                        (Payload::Data(data), data_crc)
                    } else {
                        let sim = Payload::Sim(len);
                        let crc = payload_crc(&sim);
                        (sim, crc)
                    };
                    recovered.insert(key, chunk);
                    segs.entry(seg).or_default().live += frame_len as u64;
                    let loc = RecordLoc { seg, offset: offset as u64, frame_len: frame_len as u64 };
                    if let Some(old) = keydir.insert(key, loc) {
                        retire(segs, old);
                    }
                } else {
                    recovered.remove(&key);
                    segs.entry(seg).or_default().dead += frame_len as u64;
                    if let Some(old) = keydir.remove(&key) {
                        retire(segs, old);
                    }
                }
                offset += frame_len;
            }
        }
    };
    if valid_len < buf.len() {
        OpenOptions::new().write(true).open(path)?.set_len(valid_len as u64)?;
    }
    Ok(())
}

fn superblock_bytes(segment_bytes: u64) -> [u8; 20] {
    let mut b = [0u8; 20];
    b[0..4].copy_from_slice(&SUPER_MAGIC.to_le_bytes());
    b[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    b[8..16].copy_from_slice(&segment_bytes.to_le_bytes());
    let crc = crc32c(&b[0..16]);
    b[16..20].copy_from_slice(&crc.to_le_bytes());
    b
}

fn check_or_write_superblock(cfg: &DiskConfig) -> io::Result<()> {
    let path = cfg.dir.join(SUPERBLOCK);
    match fs::read(&path) {
        Ok(b) => {
            let bad = b.len() != 20
                || u32::from_le_bytes(b[0..4].try_into().unwrap()) != SUPER_MAGIC
                || u32::from_le_bytes(b[4..8].try_into().unwrap()) != FORMAT_VERSION
                || u32::from_le_bytes(b[16..20].try_into().unwrap()) != crc32c(&b[0..16]);
            if bad {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt or incompatible superblock at {}", path.display()),
                ));
            }
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let mut f = File::create(&path)?;
            f.write_all(&superblock_bytes(cfg.segment_bytes))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIRS: AtomicU64 = AtomicU64::new(0);

    fn tmp() -> PathBuf {
        let n = DIRS.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir()
            .join(format!("sads-storage-test-{}-{n}", std::process::id()))
    }

    fn key(p: u64) -> ChunkKey {
        ChunkKey { blob: BlobId(1), version: VersionId(1), page: p }
    }

    fn data(fill: u8, len: usize) -> Payload {
        Payload::Data(Bytes::from(vec![fill; len]))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.0).ok();
        }
    }

    fn put(b: &mut DiskBackend, key: ChunkKey, p: &Payload) {
        b.append_put(&key, p, payload_crc(p)).unwrap();
    }

    /// Deterministic noise, so a failing length reproduces.
    fn noise(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect()
    }

    /// [`crc32c_combine`] one bit at a time: advance `crc_a` through the
    /// 8·`len_b` zero bits, no tables and no multiplication.
    fn combine_bitwise(mut crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
        for _ in 0..8 * len_b {
            crc_a = if crc_a & 1 != 0 { (crc_a >> 1) ^ CRC32C_POLY } else { crc_a >> 1 };
        }
        crc_a ^ crc_b
    }

    /// The parent format's encoder — one buffer, header · payload · CRC of
    /// both in a second pass — kept as the byte-identity oracle for what
    /// [`DiskBackend`] now appends without copying or re-reading the payload.
    fn encode_record(kind: u8, key: &ChunkKey, data: Option<&Payload>) -> Vec<u8> {
        let (flavor, len, bytes): (u8, u64, Option<&[u8]>) = match data {
            Some(Payload::Data(b)) => (FLAVOR_DATA, b.len() as u64, Some(b.as_ref())),
            Some(Payload::Sim(n)) => (FLAVOR_SIM, *n, None),
            None => (FLAVOR_SIM, 0, None),
        };
        let mut buf =
            Vec::with_capacity(HEADER_LEN + bytes.map_or(0, <[u8]>::len) + TRAILER_LEN);
        buf.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        buf.push(kind);
        buf.push(flavor);
        buf.extend_from_slice(&key.blob.0.to_le_bytes());
        buf.extend_from_slice(&key.version.0.to_le_bytes());
        buf.extend_from_slice(&key.page.to_le_bytes());
        buf.extend_from_slice(&len.to_le_bytes());
        if let Some(b) = bytes {
            buf.extend_from_slice(b);
        }
        let crc = crc32c(&buf[4..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    #[test]
    fn crc32c_known_vector() {
        // RFC 3720 appendix B.4 check value for CRC-32C.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    /// One table lookup per byte: the definition every kernel is held to.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC32C_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    type Kernel = fn(&[u8]) -> u32;

    /// Says that this CPU cannot run `kernel`. Written past libtest's
    /// capture of `eprintln!`, so a skipped kernel shows in every run
    /// instead of passing silently.
    fn note_skipped(kernel: &str, needs: &str) {
        writeln!(io::stderr(), "note: {kernel} not tested: this CPU lacks {needs}").ok();
    }

    /// The three-lane `crc32q` kernel, if this CPU can run it.
    fn lane_kernel() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: SSE4.2 was detected on the line above.
            return Some(|b| !unsafe { crc32c_lanes(!0, b) });
        }
        static NOTE: std::sync::Once = std::sync::Once::new();
        NOTE.call_once(|| note_skipped("crc32c_lanes", "sse4.2"));
        None
    }

    /// The 256-bit carry-less folding kernel, if this CPU can run it.
    fn fold_kernel() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("vpclmulqdq")
        {
            // SAFETY: AVX2 and VPCLMULQDQ were detected on the lines above.
            return Some(|b| !unsafe { crc32c_fold(!0, b) });
        }
        static NOTE: std::sync::Once = std::sync::Once::new();
        NOTE.call_once(|| note_skipped("crc32c_fold", "avx2 and vpclmulqdq"));
        None
    }

    /// Lengths past the exhaustive sweep: either side of one 256-byte fold
    /// block and of one 3 × `LANE` = 16 368-byte lane block, 3 × `LANE`
    /// ± 17, and a page and a mebibyte with an odd tail.
    const EDGE_LENS: [usize; 10] =
        [255, 256, 257, 16_367, 16_368, 16_369, 16_351, 16_385, (256 << 10) + 13, (1 << 20) + 13];

    /// `kernel` equals the bytewise definition on every length 0 ..= 1 100
    /// and on [`EDGE_LENS`], each at every start 0 .. 32: the kernels read
    /// unaligned words and vectors.
    fn assert_matches_bytewise(kernel: Kernel) {
        let buf = noise((1 << 20) + 13 + 32);
        for len in (0..=1100).chain(EDGE_LENS) {
            for start in 0..32 {
                let b = &buf[start..start + len];
                assert_eq!(kernel(b), crc32c_bytewise(b), "start={start} len={len}");
            }
        }
    }

    #[test]
    fn software_kernel_matches_bytewise() {
        assert_matches_bytewise(crc32c_sw);
    }

    #[test]
    fn lane_kernel_matches_bytewise() {
        if let Some(kernel) = lane_kernel() {
            assert_matches_bytewise(kernel);
        }
    }

    #[test]
    fn fold_kernel_matches_bytewise() {
        if let Some(kernel) = fold_kernel() {
            assert_matches_bytewise(kernel);
        }
    }

    #[test]
    fn dispatch_matches_bytewise() {
        assert_matches_bytewise(crc32c);
    }

    /// Every length across the first lane-block boundary — below three
    /// lanes (single chain), exactly one block, one block plus a tail —
    /// through both hardware kernels: for the fold kernel that is every
    /// block count up to 64 with every tail.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_kernels_every_length_around_a_lane_block_match_software() {
        let buf = noise(3 * LANE + 17 + 8);
        for kernel in [lane_kernel(), fold_kernel()].into_iter().flatten() {
            for len in 0..=3 * LANE + 17 {
                assert_eq!(kernel(&buf[..len]), crc32c_sw(&buf[..len]), "len={len}");
            }
            for start in 1..8 {
                let b = &buf[start..start + 3 * LANE + 17];
                assert_eq!(kernel(b), crc32c_sw(b), "start={start}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Each kernel equals the bytewise definition on random slices up
        /// to 4 MiB at random starts.
        #[test]
        fn software_kernel_matches_bytewise_up_to_4_mib(
            len in 0usize..=4 << 20,
            start in 0usize..32,
        ) {
            let buf = noise(start + len);
            prop_assert_eq!(crc32c_sw(&buf[start..]), crc32c_bytewise(&buf[start..]), "len={}", len);
        }

        #[test]
        fn lane_kernel_matches_bytewise_up_to_4_mib(len in 0usize..=4 << 20, start in 0usize..32) {
            let Some(kernel) = lane_kernel() else { return Ok(()) };
            let buf = noise(start + len);
            prop_assert_eq!(kernel(&buf[start..]), crc32c_bytewise(&buf[start..]), "len={}", len);
        }

        #[test]
        fn fold_kernel_matches_bytewise_up_to_4_mib(len in 0usize..=4 << 20, start in 0usize..32) {
            let Some(kernel) = fold_kernel() else { return Ok(()) };
            let buf = noise(start + len);
            prop_assert_eq!(kernel(&buf[start..]), crc32c_bytewise(&buf[start..]), "len={}", len);
        }

        /// Hardware and software agree on random slices up to 4 MiB, and
        /// the CRC of a concatenation is the combination of the halves'
        /// at any split, empty halves included.
        #[test]
        fn crc32c_of_a_concatenation_is_the_combination_of_its_halves(
            len in 0usize..=4 << 20,
            start in 0usize..8,
            split_ppm in 0usize..=1_000_000,
        ) {
            let buf = noise(start + len);
            let whole = &buf[start..];
            let (a, b) = whole.split_at(len * split_ppm / 1_000_000);
            prop_assert_eq!(crc32c(whole), crc32c_sw(whole));
            prop_assert_eq!(crc32c(whole), crc32c_combine(crc32c(a), crc32c(b), b.len() as u64));
            prop_assert_eq!(crc32c(whole), crc32c_combine(crc32c(whole), crc32c(b""), 0));
            prop_assert_eq!(crc32c(whole), crc32c_combine(crc32c(b""), crc32c(whole), len as u64));
        }

        /// The O(log n) combination equals shifting one bit at a time.
        #[test]
        fn crc32c_combine_equals_the_bit_serial_oracle(
            crc_a in 0u32..=u32::MAX,
            crc_b in 0u32..=u32::MAX,
            len_b in 0u64..=64 << 10,
        ) {
            let want = combine_bitwise(crc_a, crc_b, len_b);
            prop_assert_eq!(crc32c_combine(crc_a, crc_b, len_b), want);
        }

        /// What a put appends is, byte for byte, what the parent format's
        /// one-buffer encoder produced — for real and size-only payloads,
        /// empty, tiny, page-sized and unaligned.
        #[test]
        fn appended_frames_equal_the_copying_encoder(
            blob in 0u64..=u64::MAX,
            version in 0u64..=u64::MAX,
            page in 0u64..=u64::MAX,
            salt in 0usize..4096,
        ) {
            let dir = tmp();
            let _c = Cleanup(dir.clone());
            let mut b = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
            let bytes = Bytes::from(noise(salt + (256 << 10) + 13));
            let mut want = Vec::new();
            for (i, len) in [0, 1, 4 << 10, 256 << 10, (256 << 10) + 13].into_iter().enumerate() {
                for p in [Payload::Data(bytes.slice(salt..salt + len)), Payload::Sim(len as u64)] {
                    let k = ChunkKey {
                        blob: BlobId(blob),
                        version: VersionId(version),
                        page: page.wrapping_add(i as u64),
                    };
                    put(&mut b, k, &p);
                    want.extend_from_slice(&encode_record(KIND_PUT, &k, Some(&p)));
                }
            }
            drop(b);
            prop_assert!(fs::read(dir.join(segment_name(0))).unwrap() == want);
        }
    }

    #[test]
    fn crc32c_combine_at_page_length() {
        let buf = noise(38 + (256 << 10));
        let (h, p) = buf.split_at(38);
        assert_eq!(crc32c_combine(crc32c(h), crc32c(p), p.len() as u64), crc32c(&buf));
        assert_eq!(
            crc32c_combine(crc32c(h), crc32c(p), p.len() as u64),
            combine_bitwise(crc32c(h), crc32c(p), p.len() as u64)
        );
    }

    /// Accepts at most `cap` bytes a call (0 = a writer that is full).
    struct Trickle {
        cap: usize,
        got: Vec<u8>,
    }
    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_all_vectored_resumes_short_writes_and_reports_write_zero() {
        let parts: [&[u8]; 5] = [b"", b"header--", b"", &noise(100), b"crc!"];
        let mut w = Trickle { cap: 7, got: Vec::new() };
        write_all_vectored(&mut w, &mut parts.map(IoSlice::new)).unwrap();
        assert_eq!(w.got, parts.concat());

        let mut full = Trickle { cap: 0, got: Vec::new() };
        let err = write_all_vectored(&mut full, &mut parts.map(IoSlice::new)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        // Nothing to write is not an error, even for a full writer.
        write_all_vectored(&mut full, &mut [IoSlice::new(b"")]).unwrap();
    }

    /// A segment holding the parent build's bytes (the one-buffer encoder)
    /// recovers exactly like the log the new append path writes for the
    /// same operations — overwrite, size-only chunk and tombstone included.
    #[test]
    fn a_log_from_the_copying_encoder_recovers_identically() {
        let ops: Vec<(ChunkKey, Option<Payload>)> = vec![
            (key(0), Some(data(1, 300))),
            (key(1), Some(Payload::Sim(4096))),
            (key(2), Some(data(2, 0))),
            (key(0), Some(Payload::Data(Bytes::from(noise(20_000))))),
            (key(1), None),
            (key(3), Some(data(3, 17))),
        ];
        let (old_dir, new_dir) = (tmp(), tmp());
        let _c = (Cleanup(old_dir.clone()), Cleanup(new_dir.clone()));

        drop(DiskBackend::open(DiskConfig::new(&old_dir)).unwrap()); // superblock
        let mut old = Vec::new();
        let mut b = DiskBackend::open(DiskConfig::new(&new_dir)).unwrap();
        for (k, op) in &ops {
            match op {
                Some(p) => {
                    old.extend_from_slice(&encode_record(KIND_PUT, k, Some(p)));
                    put(&mut b, *k, p);
                }
                None => {
                    old.extend_from_slice(&encode_record(KIND_DELETE, k, None));
                    b.append_delete(k).unwrap();
                }
            }
        }
        drop(b);
        fs::write(old_dir.join(segment_name(0)), &old).unwrap();
        assert_eq!(fs::read(new_dir.join(segment_name(0))).unwrap(), old);

        let from_old = DiskBackend::open(DiskConfig::new(&old_dir)).unwrap().recover();
        let from_new = DiskBackend::open(DiskConfig::new(&new_dir)).unwrap().recover();
        assert_eq!(from_old, from_new);
        assert_eq!(from_old.chunks.len(), 3);
        assert_eq!((from_old.bytes, from_old.quarantined, from_old.torn_discarded), (20_017, 0, 0));
        for ((_, p), crc) in from_old.chunks.iter().zip(&from_old.crcs) {
            assert_eq!(*crc, payload_crc(p), "the scan's by-product is the store's checksum");
        }
    }

    #[test]
    fn round_trip_data_and_sim_payloads() {
        let dir = tmp();
        let _c = Cleanup(dir.clone());
        let mut b = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
        put(&mut b, key(0), &data(7, 100));
        put(&mut b, key(1), &Payload::Sim(5000));
        drop(b);

        let mut b = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
        let r = b.recover();
        assert_eq!(r.chunks.len(), 2);
        assert_eq!(r.torn_discarded, 0);
        assert_eq!(r.quarantined, 0);
        assert_eq!(r.bytes, 5100);
        match &r.chunks[0].1 {
            Payload::Data(bytes) => assert!(bytes.iter().all(|&x| x == 7)),
            other => panic!("expected data payload, got {other:?}"),
        }
        assert_eq!(r.chunks[1].1, Payload::Sim(5000));
        // recover() is one-shot.
        assert!(b.recover().chunks.is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_appendable() {
        let dir = tmp();
        let _c = Cleanup(dir.clone());
        let mut b = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
        for p in 0..3 {
            put(&mut b, key(p), &data(p as u8, 64));
        }
        drop(b);

        // Chop mid-frame: the third record loses its trailer.
        let seg = dir.join(segment_name(0));
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 10).unwrap();

        let mut b = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
        let r = b.recover();
        assert_eq!(r.torn_discarded, 1);
        assert_eq!(r.quarantined, 0);
        assert_eq!(
            r.chunks.iter().map(|(k, _)| k.page).collect::<Vec<_>>(),
            vec![0, 1],
            "recovered set is the acknowledged prefix"
        );
        // The truncated log accepts new appends and they survive.
        put(&mut b, key(9), &data(9, 64));
        drop(b);
        let mut b = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
        assert_eq!(b.recover().chunks.len(), 3);
    }

    #[test]
    fn crc_mismatch_quarantines_record_and_scan_continues() {
        let dir = tmp();
        let _c = Cleanup(dir.clone());
        let mut b = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
        for p in 0..3 {
            put(&mut b, key(p), &data(p as u8, 64));
        }
        drop(b);

        // Flip one payload byte inside the middle record.
        let seg = dir.join(segment_name(0));
        let mut buf = fs::read(&seg).unwrap();
        let frame = HEADER_LEN + 64 + TRAILER_LEN;
        buf[frame + HEADER_LEN + 10] ^= 0xFF;
        fs::write(&seg, &buf).unwrap();

        let mut b = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
        let r = b.recover();
        assert_eq!(r.quarantined, 1);
        assert_eq!(r.torn_discarded, 0);
        assert_eq!(
            r.chunks.iter().map(|(k, _)| k.page).collect::<Vec<_>>(),
            vec![0, 2],
            "records behind the corrupt one still recover"
        );
        assert_eq!(b.stats().quarantined, 1);
    }

    #[test]
    fn delete_survives_crash() {
        let dir = tmp();
        let _c = Cleanup(dir.clone());
        let mut b = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
        put(&mut b, key(0), &data(1, 32));
        put(&mut b, key(1), &data(2, 32));
        b.append_delete(&key(0)).unwrap();
        drop(b);

        let mut b = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
        let r = b.recover();
        assert_eq!(r.chunks.iter().map(|(k, _)| k.page).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn compaction_reclaims_dead_segments_and_preserves_live_set() {
        let dir = tmp();
        let _c = Cleanup(dir.clone());
        let mut cfg = DiskConfig::new(&dir);
        cfg.segment_bytes = 256; // force frequent rolls
        let mut b = DiskBackend::open(cfg.clone()).unwrap();
        for p in 0..20 {
            put(&mut b, key(p), &data(p as u8, 100));
        }
        for p in 0..16 {
            b.append_delete(&key(p)).unwrap();
        }
        let before = b.stats();
        assert!(before.segments > 2, "rolling produced several segments");
        assert!(before.dead_bytes > 0);

        let reclaimed = b.maybe_compact().unwrap();
        assert!(reclaimed > 0, "compaction reclaimed dead segments");
        let after = b.stats();
        assert!(after.segments < before.segments);
        assert!(after.compactions > 0);
        drop(b);

        let mut b = DiskBackend::open(cfg).unwrap();
        let r = b.recover();
        assert_eq!(
            r.chunks.iter().map(|(k, _)| k.page).collect::<Vec<_>>(),
            (16..20).collect::<Vec<_>>(),
            "live set identical across compaction + restart"
        );
    }

    #[test]
    fn delete_accounts_dead_bytes_for_record_and_tombstone() {
        let dir = tmp();
        let _c = Cleanup(dir.clone());
        let mut b = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
        put(&mut b, key(0), &data(1, 64));
        let live = b.stats().live_bytes;
        assert!(live > 0);
        assert_eq!(b.stats().dead_bytes, 0);
        b.append_delete(&key(0)).unwrap();
        let s = b.stats();
        assert_eq!(s.live_bytes, 0);
        assert!(
            s.dead_bytes > live,
            "both the dead record and its tombstone count toward compaction"
        );
        // A delete with no backing record appends nothing.
        let before = b.stats().dead_bytes;
        b.append_delete(&key(9)).unwrap();
        assert_eq!(b.stats().dead_bytes, before);
    }

    #[test]
    fn verify_detects_on_media_damage() {
        let dir = tmp();
        let _c = Cleanup(dir.clone());
        let mut b = DiskBackend::open(DiskConfig::new(&dir)).unwrap();
        put(&mut b, key(0), &data(7, 64));
        put(&mut b, key(1), &Payload::Sim(64));
        assert!(b.verify(&key(0)).unwrap());
        assert!(b.verify(&key(1)).unwrap());
        assert!(b.verify(&key(9)).unwrap(), "no record means nothing to damage");
        b.corrupt(&key(0)).unwrap();
        b.corrupt(&key(1)).unwrap();
        assert!(!b.verify(&key(0)).unwrap(), "data record flagged");
        assert!(!b.verify(&key(1)).unwrap(), "sim record flagged");
    }

    #[test]
    fn corrupt_superblock_refuses_to_open() {
        let dir = tmp();
        let _c = Cleanup(dir.clone());
        drop(DiskBackend::open(DiskConfig::new(&dir)).unwrap());
        let sb = dir.join(SUPERBLOCK);
        let mut b = fs::read(&sb).unwrap();
        b[0] ^= 0xFF;
        fs::write(&sb, &b).unwrap();
        assert!(DiskBackend::open(DiskConfig::new(&dir)).is_err());
    }

    #[test]
    fn backend_spec_fans_out_per_provider() {
        let spec = BackendSpec::disk("/tmp/sads-x");
        match spec.for_provider(3) {
            BackendConfig::Disk(cfg) => {
                assert!(cfg.dir.ends_with("provider-0003"));
            }
            other => panic!("expected disk config, got {other:?}"),
        }
        assert_eq!(BackendSpec::Memory.for_provider(3), BackendConfig::Memory);
    }
}
