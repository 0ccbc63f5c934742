//! Core data model: BLOB identities, versions, page geometry, chunk
//! descriptors and error types shared by every BlobSeer actor.
//!
//! BlobSeer stores *BLOBs* — huge, unstructured byte sequences — split into
//! fixed-size *pages* (the paper calls them chunks). Every write or append
//! publishes a new immutable *version*; versions share unmodified pages and
//! metadata subtrees with their ancestors.

use bytes::Bytes;
use std::fmt;

/// Identifies a BLOB within one BlobSeer deployment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlobId(pub u64);

/// A published (or pending) snapshot number of a BLOB. Version 0 is the
/// empty BLOB that exists at creation; the first write publishes version 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct VersionId(pub u64);

impl VersionId {
    /// The initial (empty) version every BLOB has at creation.
    pub const INITIAL: VersionId = VersionId(0);

    /// The next version number.
    #[inline]
    pub fn next(self) -> VersionId {
        VersionId(self.0 + 1)
    }
}

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifies the principal (user/application) performing client
/// operations; the unit of accounting for the security framework.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(pub u64);

impl ClientId {
    /// The system principal used by internal maintenance traffic
    /// (replication repair, GC); never subject to security sanctions.
    pub const SYSTEM: ClientId = ClientId(0);
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A half-open interval of *pages* `[start, start + len)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PageInterval {
    /// First page index.
    pub start: u64,
    /// Number of pages (may be zero for an empty interval).
    pub len: u64,
}

impl PageInterval {
    /// An empty interval.
    pub const EMPTY: PageInterval = PageInterval { start: 0, len: 0 };

    /// Construct from explicit bounds.
    pub fn new(start: u64, len: u64) -> Self {
        PageInterval { start, len }
    }

    /// One-past-the-last page index.
    #[inline]
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// Is the interval empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Do two intervals share at least one page?
    #[inline]
    pub fn intersects(&self, other: &PageInterval) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end() && other.start < self.end()
    }

    /// Does `self` fully contain `other`?
    #[inline]
    pub fn contains(&self, other: &PageInterval) -> bool {
        other.is_empty() || (self.start <= other.start && other.end() <= self.end())
    }

    /// Does the interval contain the given page?
    #[inline]
    pub fn contains_page(&self, page: u64) -> bool {
        self.start <= page && page < self.end()
    }
}

impl fmt::Display for PageInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{})", self.start, self.end())
    }
}

/// Key of a stored chunk: one page of one version of one BLOB.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChunkKey {
    /// Owning BLOB.
    pub blob: BlobId,
    /// Version whose writer produced this chunk.
    pub version: VersionId,
    /// Page index within the BLOB.
    pub page: u64,
}

/// Where the replicas of one chunk live.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChunkDescriptor {
    /// Storage key.
    pub key: ChunkKey,
    /// Data providers holding a replica (node addresses).
    pub replicas: Vec<sads_sim::NodeId>,
    /// Stored length in bytes: the page size, or less when the writer
    /// declared the rest of the page zeros (`ClientOp::FeedZeros`) — a
    /// chunk shorter than its page reads as zero-extended to the page.
    pub size: u64,
}

/// A chunk payload. The threaded runtime carries real bytes; the simulated
/// runtime carries only the length, so multi-gigabyte experiments do not
/// allocate.
#[derive(Clone, PartialEq, Eq)]
pub enum Payload {
    /// Real data (threaded runtime, examples, gateway).
    Data(Bytes),
    /// Size-only stand-in (simulation runtime).
    Sim(u64),
}

impl Payload {
    /// Payload length in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        match self {
            Payload::Data(b) => b.len() as u64,
            Payload::Sim(n) => *n,
        }
    }

    /// Is the payload empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A zero-filled payload of the same flavor as `self` (used to
    /// materialize holes when reading never-written ranges).
    pub fn zeros_like(&self, len: u64) -> Payload {
        match self {
            Payload::Data(_) => Payload::Data(Bytes::from(vec![0u8; len as usize])),
            Payload::Sim(_) => Payload::Sim(len),
        }
    }

    /// Borrow the real bytes, if any.
    pub fn bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Data(b) => Some(b),
            Payload::Sim(_) => None,
        }
    }

    /// Slice `[from, from + len)` out of the payload.
    pub fn slice(&self, from: u64, len: u64) -> Payload {
        match self {
            Payload::Data(b) => {
                let from = from as usize;
                let to = (from + len as usize).min(b.len());
                Payload::Data(b.slice(from.min(b.len())..to))
            }
            Payload::Sim(n) => Payload::Sim(len.min(n.saturating_sub(from))),
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Data(b) => write!(f, "Data({}B)", b.len()),
            Payload::Sim(n) => write!(f, "Sim({n}B)"),
        }
    }
}

/// Immutable parameters of a BLOB, fixed at creation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlobSpec {
    /// Page (chunk) size in bytes. The paper's deployments use 8 MiB.
    pub page_size: u64,
    /// Number of replicas kept for each chunk.
    pub replication: u32,
}

impl Default for BlobSpec {
    fn default() -> Self {
        BlobSpec { page_size: 8 << 20, replication: 1 }
    }
}

/// Everything a reader needs to know about one published version.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VersionInfo {
    /// The version number.
    pub version: VersionId,
    /// BLOB size, in bytes, as of this version.
    pub size: u64,
    /// BLOB page size (bytes) — readers derive page geometry from it.
    pub page_size: u64,
    /// Root of this version's metadata tree (`None` for the empty v0).
    pub root: Option<crate::meta::NodeRef>,
}

/// Errors surfaced by client operations and internal services.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BlobError {
    /// The BLOB id is unknown to the version manager.
    UnknownBlob(BlobId),
    /// The requested version has not been published.
    UnknownVersion(BlobId, VersionId),
    /// Write offset/size not aligned to the page size.
    Misaligned {
        /// Offending offset.
        offset: u64,
        /// Offending length.
        len: u64,
        /// Required alignment.
        page_size: u64,
    },
    /// A zero-length write was requested.
    EmptyWrite,
    /// Read past the end of the version.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Version size.
        size: u64,
    },
    /// The provider manager could not find enough providers.
    AllocationFailed {
        /// Chunks requested.
        requested: u32,
        /// Providers available.
        available: u32,
    },
    /// The client is blocked by the security framework.
    Blocked(ClientId),
    /// A chunk could not be stored or retrieved from any replica.
    ChunkUnavailable(ChunkKey),
    /// A metadata node could not be stored or retrieved.
    MetaUnavailable,
    /// The operation timed out after exhausting retries.
    Timeout,
    /// Storage capacity exhausted on the target provider.
    ProviderFull,
    /// Internal protocol violation (bug guard).
    Protocol(&'static str),
}

impl fmt::Display for BlobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlobError::UnknownBlob(b) => write!(f, "unknown blob {b:?}"),
            BlobError::UnknownVersion(b, v) => write!(f, "unknown version {v} of {b:?}"),
            BlobError::Misaligned { offset, len, page_size } => {
                write!(f, "write [{offset}, +{len}) not aligned to page size {page_size}")
            }
            BlobError::EmptyWrite => write!(f, "zero-length write"),
            BlobError::OutOfBounds { offset, len, size } => {
                write!(f, "read [{offset}, +{len}) out of bounds (size {size})")
            }
            BlobError::AllocationFailed { requested, available } => {
                write!(f, "allocation failed: {requested} chunks, {available} providers")
            }
            BlobError::Blocked(c) => write!(f, "client {c} blocked by security policy"),
            BlobError::ChunkUnavailable(k) => write!(f, "chunk {k:?} unavailable"),
            BlobError::MetaUnavailable => write!(f, "metadata unavailable"),
            BlobError::Timeout => write!(f, "operation timed out"),
            BlobError::ProviderFull => write!(f, "provider storage full"),
            BlobError::Protocol(s) => write!(f, "protocol violation: {s}"),
        }
    }
}

impl std::error::Error for BlobError {}

/// Round `bytes` up to whole pages.
#[inline]
pub fn pages_for(bytes: u64, page_size: u64) -> u64 {
    bytes.div_ceil(page_size)
}

/// Smallest power of two ≥ `n` (and ≥ 1).
#[inline]
pub fn next_pow2(n: u64) -> u64 {
    n.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_relations() {
        let a = PageInterval::new(0, 4);
        let b = PageInterval::new(2, 4);
        let c = PageInterval::new(4, 2);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c), "half-open intervals: [0,4) and [4,6) are disjoint");
        assert!(a.contains(&PageInterval::new(1, 2)));
        assert!(!a.contains(&b));
        assert!(a.contains(&PageInterval::EMPTY));
        assert!(!a.intersects(&PageInterval::EMPTY));
        assert!(a.contains_page(3));
        assert!(!a.contains_page(4));
    }

    #[test]
    fn payload_slicing_both_flavors() {
        let d = Payload::Data(Bytes::from_static(b"hello world"));
        assert_eq!(d.len(), 11);
        let s = d.slice(6, 5);
        assert_eq!(s.bytes().unwrap().as_ref(), b"world");
        let sim = Payload::Sim(100);
        assert_eq!(sim.slice(90, 20).len(), 10, "slice clamps to payload end");
        assert_eq!(sim.slice(200, 5).len(), 0);
        assert!(Payload::Sim(0).is_empty());
    }

    #[test]
    fn zeros_like_preserves_flavor() {
        let z = Payload::Sim(1).zeros_like(5);
        assert!(matches!(z, Payload::Sim(5)));
        let z = Payload::Data(Bytes::new()).zeros_like(3);
        assert_eq!(z.bytes().unwrap().as_ref(), &[0, 0, 0]);
    }

    #[test]
    fn geometry_helpers() {
        assert_eq!(pages_for(0, 8), 0);
        assert_eq!(pages_for(1, 8), 1);
        assert_eq!(pages_for(8, 8), 1);
        assert_eq!(pages_for(9, 8), 2);
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(4), 4);
        assert_eq!(next_pow2(5), 8);
    }

    #[test]
    fn version_ordering() {
        assert!(VersionId::INITIAL < VersionId(1));
        assert_eq!(VersionId(3).next(), VersionId(4));
        assert_eq!(format!("{}", VersionId(2)), "v2");
    }
}
