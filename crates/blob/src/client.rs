//! The BlobSeer client: protocol state machines for `create`, `write`,
//! `append` and `read`, written as a resumable core ([`ClientCore`]) that
//! both runtimes embed.
//!
//! A write proceeds through six phases, mirroring the real BlobSeer
//! protocol: obtain a ticket from the version manager → obtain chunk
//! placements from the provider manager → store chunk replicas on the data
//! providers (all in parallel) → resolve the untouched-subtree references
//! against the published metadata (O(log n) reads) → store the new tree
//! nodes on the metadata providers → commit to the version manager, which
//! acknowledges once the version publishes in order.
//!
//! There is one write session and one read session. Both are *streams*: a
//! long-lived session whose sub-operations (open, feed, commit, next)
//! complete through the one waiter parked on it. The whole-buffer
//! [`ClientOp::Write`] and [`ClientOp::Read`] are the degenerate use of
//! the same sessions — the operation itself is parked at open, a write
//! enqueues every page the moment placements arrive and drains, a read
//! fetches its whole resolved plan as one batch — so the simulator, the
//! fault tests and the S3 gateway all execute the same protocol code.
//!
//! Deadlines are stated once: a parked (sub-)operation fails with
//! `Timeout` `op_timeout` after it was parked, and a stream with nothing
//! parked is reaped after `op_timeout` without activity.

use bytes::Bytes;
use rand::Rng;
use sads_sim::{
    FastMap, FastSet, NodeId, SimDuration, SimTime, SpanClass, SpanKind, SpanRecord, TraceCtx,
};

use crate::meta::cache::{NodeCache, VersionCache};
use crate::meta::{
    group_by_partition, partition, Descent, MetaNode, NodeKey, NodeRange, NodeRef,
    PageSource, RangeQuery, TreeBuilder, TreeReader,
};
use crate::model::{
    BlobError, BlobId, BlobSpec, ChunkDescriptor, ChunkKey, ClientId, PageInterval,
    Payload, VersionId, VersionInfo,
};
use crate::rpc::{ChunkErr, Msg};
use crate::services::Env;
use crate::storage::{crc32c_combine, payload_crc};
use crate::vmanager::{WriteKind, WriteTicket};

/// One chunk store as it goes on the wire: key, payload, and the
/// payload's CRC, computed once when the page was cut.
type PutItem = (ChunkKey, Payload, u32);

/// Bit set on every timer token owned by the client core, so embedding
/// actors can route timers.
pub const CLIENT_TIMER_BIT: u64 = 1 << 63;

/// An operation a client can perform.
#[derive(Debug)]
pub enum ClientOp {
    /// Create a new BLOB.
    Create {
        /// BLOB parameters.
        spec: BlobSpec,
    },
    /// Write (or append) data. Offsets and lengths must be multiples of
    /// the BLOB page size. The one-shot entry into the write session:
    /// equivalent to [`ClientOp::OpenWriteStream`] + one feed of `data` +
    /// [`ClientOp::CommitWriteStream`], in one hop into the client (the
    /// pages are zero-copy slices of `data`) and one completion,
    /// [`OpOutput::Written`].
    Write {
        /// Target BLOB.
        blob: BlobId,
        /// Offset or append.
        kind: WriteKind,
        /// Data (real bytes or simulated length).
        data: Payload,
    },
    /// Read a byte range of a version (latest if `version` is `None`).
    /// The one-shot entry into the read session: equivalent to
    /// [`ClientOp::OpenReadStream`] + [`ClientOp::ReadStreamNext`] to eof,
    /// except that the whole range is fetched (under `chunk_window`) as a
    /// single batch and delivered contiguous, as [`OpOutput::Read`]: pages
    /// that are consecutive views of one buffer (one write's, or a single
    /// page) come back as one view of it, others are copied — once — into
    /// one buffer (`client.read_copied_bytes`).
    Read {
        /// Target BLOB.
        blob: BlobId,
        /// Version to read, or latest.
        version: Option<VersionId>,
        /// Byte offset.
        offset: u64,
        /// Byte length (clamped to the version size).
        len: u64,
    },
    /// Pin a version as a snapshot (latest if `version` is `None`). A
    /// metadata-only O(1) operation: the pinned version becomes a GC
    /// root, its segment tree is shared, never copied.
    Snapshot {
        /// Target BLOB.
        blob: BlobId,
        /// Version to pin, or latest.
        version: Option<VersionId>,
    },
    /// Decommission a BLOB: unpin every snapshot and mark the whole
    /// version history reclaimable by the lifecycle sweeper.
    Decommission {
        /// Target BLOB.
        blob: BlobId,
    },
    /// Open the write session as a stream of `len` bytes (declared up
    /// front: the ticket pre-assigns the version and the page range).
    /// Completes with [`OpOutput::WriteStreamOpened`] once ticket +
    /// placements are held; the stream then accepts
    /// [`ClientOp::FeedWriteStream`] calls. The same session, protocol
    /// steps and fault handling as [`ClientOp::Write`].
    OpenWriteStream {
        /// Target BLOB.
        blob: BlobId,
        /// Offset or append.
        kind: WriteKind,
        /// Total byte length that will be fed (page-aligned).
        len: u64,
    },
    /// Push bytes into an open write stream. Completes (with
    /// [`OpOutput::Fed`]) only once the stream has window headroom for
    /// the *next* feed — this completion is the backpressure signal that
    /// bounds buffered bytes at `chunk_window × page_size`.
    FeedWriteStream {
        /// Stream id from [`OpOutput::WriteStreamOpened`].
        stream: u64,
        /// Bytes to append to the stream (at most one page per feed to
        /// keep the memory bound exact).
        data: Payload,
    },
    /// Declare the next `len` bytes of an open write stream to be zeros
    /// without supplying them. They count toward the declared length
    /// exactly as fed bytes do, and complete like a feed
    /// ([`OpOutput::Fed`]). Zeros that run to a page boundary cut the
    /// page at the length of the bytes actually fed into it — a chunk
    /// shorter than its page, empty for a page of nothing but zeros —
    /// which every read path zero-extends; zeros followed by more bytes
    /// in the same page are written out into that page.
    FeedZeros {
        /// Stream id from [`OpOutput::WriteStreamOpened`].
        stream: u64,
        /// How many zero bytes to declare.
        len: u64,
    },
    /// Publish an open write stream: drains in-flight chunks, writes the
    /// metadata tree, commits at the version manager. Completes with
    /// [`OpOutput::Written`]. Every declared byte must have been fed.
    CommitWriteStream {
        /// Stream id.
        stream: u64,
    },
    /// Abandon an open write stream without publishing. Already-stored
    /// chunks are reclaimed by the version manager's stalled-write
    /// recovery and the lifecycle sweeper.
    AbortWriteStream {
        /// Stream id.
        stream: u64,
    },
    /// Open the read session as a stream over a byte range (latest
    /// version if `None`). Completes with [`OpOutput::ReadStreamOpened`]
    /// once the metadata descent resolved the chunk plan; data then
    /// arrives window-by-window via [`ClientOp::ReadStreamNext`]. The same
    /// session, protocol steps and failover as [`ClientOp::Read`].
    OpenReadStream {
        /// Target BLOB.
        blob: BlobId,
        /// Version to read, or latest.
        version: Option<VersionId>,
        /// Byte offset.
        offset: u64,
        /// Byte length (clamped to the version size).
        len: u64,
    },
    /// Pull the next window of pages from an open read stream. Completes
    /// with [`OpOutput::ReadChunk`] — the fetched pages themselves, as a
    /// rope of views, not a copy; at most `chunk_window` pages are in
    /// client memory at any point. The stream closes itself when the
    /// window carrying `eof = true` is delivered.
    ReadStreamNext {
        /// Stream id from [`OpOutput::ReadStreamOpened`].
        stream: u64,
    },
    /// Close a read stream early (before `eof`).
    CloseReadStream {
        /// Stream id.
        stream: u64,
    },
}

/// Successful operation output.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutput {
    /// BLOB created.
    Created(BlobId),
    /// Write published.
    Written {
        /// Target BLOB.
        blob: BlobId,
        /// The published version.
        version: VersionId,
        /// Byte offset written.
        offset: u64,
        /// Byte length written.
        len: u64,
        /// CRC-32C of the real bytes stored, in order; declared zeros add nothing.
        crc: u32,
    },
    /// Read finished.
    Read {
        /// Assembled data (zeros for holes; `Payload::Sim` in simulation).
        data: Payload,
        /// The version that was read.
        version: VersionId,
    },
    /// Snapshot pinned.
    Snapshotted {
        /// Target BLOB.
        blob: BlobId,
        /// The pinned version.
        version: VersionId,
    },
    /// BLOB decommissioned (`false` = refused, e.g. blocked client).
    Decommissioned {
        /// Target BLOB.
        blob: BlobId,
        /// Whether the version manager accepted.
        ok: bool,
    },
    /// A write stream is open and accepting feeds.
    WriteStreamOpened {
        /// Stream id for subsequent feed/commit/abort ops.
        stream: u64,
        /// The version the commit will publish.
        version: VersionId,
        /// Byte offset the stream writes at.
        offset: u64,
        /// Declared byte length.
        len: u64,
        /// BLOB page size (the stream's chunk size).
        page_size: u64,
    },
    /// A feed was absorbed and the stream has headroom for the next one.
    Fed {
        /// Stream id.
        stream: u64,
    },
    /// A read stream is open; its chunk plan is resolved.
    ReadStreamOpened {
        /// Stream id for subsequent next/close ops.
        stream: u64,
        /// The version being read.
        version: VersionId,
        /// Effective (clamped) byte length the stream will deliver.
        len: u64,
        /// BLOB page size (the stream's chunk size).
        page_size: u64,
    },
    /// One window of streamed read data, as a rope: nothing is assembled.
    ReadChunk {
        /// Stream id.
        stream: u64,
        /// The window's bytes in order. With real data, one refcounted
        /// view per fetched page — the stored page itself, the first and
        /// last trimmed to the requested range — and a zero segment per
        /// hole and per stretch of the range past the stored length of a
        /// chunk shorter than its page (see [`ClientOp::FeedZeros`]); in
        /// simulation one `Payload::Sim` for the whole window.
        /// No segment is empty; a zero-length read delivers no segments.
        segments: Vec<Payload>,
        /// True on the final window; the stream is closed after this.
        eof: bool,
    },
    /// A stream was closed (abort or explicit close).
    StreamClosed {
        /// Stream id.
        stream: u64,
    },
}

/// A finished operation, successful or not.
#[derive(Debug)]
pub struct Completion {
    /// Caller-chosen tag from `start_op`.
    pub tag: u64,
    /// Outcome.
    pub result: Result<OpOutput, BlobError>,
    /// When the op started.
    pub started: SimTime,
    /// When it finished.
    pub finished: SimTime,
    /// Payload bytes moved (0 for create / failures).
    pub bytes: u64,
}

impl Completion {
    /// Throughput in MB/s (payload bytes over op duration), or 0.
    pub fn throughput_mbps(&self) -> f64 {
        let secs = self.finished.since(self.started).as_secs_f64();
        if secs > 0.0 { self.bytes as f64 / 1e6 / secs } else { 0.0 }
    }
}

/// Fault-tolerance policy for chunk-store RPCs.
///
/// With the policy [disabled](RetryPolicy::disabled) (the default) chunk
/// stores carry no deadline, any `PutChunkErr` fails the operation, and a
/// read whose every replica failed does not refresh the chunk's leaf. An
/// [enabled](RetryPolicy::standard) policy sets a deadline on every
/// chunk store; a timed-out or refused store is re-sent to the *same*
/// provider after a bounded exponential backoff (`backoff_base · 2ᵏ`,
/// capped at `backoff_max`), and once `max_attempts` sends are exhausted
/// — or the provider reports `Full` — the client asks the provider
/// manager for a replacement placement and re-sends there instead
/// (bounded by `max_reallocs` per write).
///
/// Retries are safe because request ids correlate, never apply: a chunk
/// put is idempotent at the provider (keyed by [`ChunkKey`], an existing
/// key is kept and never double-charged), so a duplicate arrival — e.g.
/// the original slow ack racing a retransmission — cannot double-apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Deadline for one chunk-store RPC attempt.
    pub put_timeout: SimDuration,
    /// Maximum sends per target provider (1 = no same-target retry).
    /// `0` disables the whole policy.
    pub max_attempts: u32,
    /// Backoff before the k-th retry is `backoff_base · 2^(k-1)` …
    pub backoff_base: SimDuration,
    /// … capped at this value.
    pub backoff_max: SimDuration,
    /// How many times one write may fall back to the provider manager
    /// for a replacement placement before giving up.
    pub max_reallocs: u32,
}

impl RetryPolicy {
    /// The default: no put deadline, any `PutChunkErr` fails the
    /// operation, and no degraded-read leaf refresh. It arms no timer and
    /// sends nothing extra, so a fault-free run is the same event
    /// schedule whether or not a policy is configured.
    pub const fn disabled() -> Self {
        RetryPolicy {
            put_timeout: SimDuration::ZERO,
            max_attempts: 0,
            backoff_base: SimDuration::ZERO,
            backoff_max: SimDuration::ZERO,
            max_reallocs: 0,
        }
    }

    /// A sane enabled policy: 10 s put deadline, 3 attempts per target
    /// with 500 ms → 8 s backoff, up to 4 re-allocations per write.
    pub const fn standard() -> Self {
        RetryPolicy {
            put_timeout: SimDuration::from_secs(10),
            max_attempts: 3,
            backoff_base: SimDuration::from_millis(500),
            backoff_max: SimDuration::from_secs(8),
            max_reallocs: 4,
        }
    }

    /// Is any retry machinery active?
    pub fn enabled(&self) -> bool {
        self.max_attempts > 0
    }

    /// Backoff before retry number `attempts` (1-based attempts so far).
    fn backoff(&self, attempts: u32) -> SimDuration {
        let shift = attempts.saturating_sub(1).min(16);
        self.backoff_base.saturating_mul(1u64 << shift).min(self.backoff_max)
    }
}

/// Client tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Deadline of a parked (sub-)operation: a whole-buffer op, or one
    /// open/feed/commit/next of a stream, fails with `Timeout` this long
    /// after it started. A stream with no sub-operation in flight is
    /// reaped after this long without activity.
    pub op_timeout: SimDuration,
    /// Per-chunk-fetch deadline: an unresponsive replica (crashed or
    /// drowning in backlog) triggers failover to the next replica.
    pub chunk_timeout: SimDuration,
    /// Real-data deployments set this so reads always materialize actual
    /// zero bytes for holes (simulated deployments keep size-only
    /// payloads).
    pub materialize_zeros: bool,
    /// Maximum chunk transfers (puts or gets) in flight per operation.
    /// Completed transfers refill the window from the pending queue, so
    /// chunk I/O to distinct providers pipelines while memory and provider
    /// backlog stay bounded. `0` means unbounded (burst everything).
    pub chunk_window: usize,
    /// Chunk-RPC fault tolerance (deadlines, backoff, re-allocation and
    /// degraded-read placement refresh). Disabled by default.
    pub retry: RetryPolicy,
    /// A descent the node cache stops asks for the rest in one bulk
    /// [`Msg::GetMetaRange`] broadcast to the metadata providers instead of
    /// walking the tree one remote level at a time: a read on its first
    /// miss, a write's base-tree resolve when more levels are left than
    /// there are providers. The replies only warm the node cache — anything
    /// missing falls back to the per-node descent. `false` selects the
    /// per-node descent alone for both (one [`Msg::GetMeta`] round per
    /// uncached level); `tests/properties.rs` reads that way as the
    /// sequential reference for the bulk path.
    pub meta_range_fetch: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            op_timeout: SimDuration::from_secs(600),
            chunk_timeout: SimDuration::from_secs(15),
            materialize_zeros: false,
            chunk_window: 32,
            retry: RetryPolicy::disabled(),
            meta_range_fetch: true,
        }
    }
}

/// What a parked (sub-)operation is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaiterKind {
    /// The operation as a whole, parked when the session opens: create,
    /// snapshot, decommission, and the one-shot [`ClientOp::Write`] /
    /// [`ClientOp::Read`], which run their session to its end without
    /// further sub-operations.
    Op,
    Open,
    Feed,
    Commit,
    Next,
}

/// The one (sub-)operation currently awaiting completion. Streams are
/// strictly half-duplex per handle: at most one feed/commit/next is
/// outstanding at a time, which is exactly what gives the backpressure
/// completion its meaning.
#[derive(Debug)]
struct StreamWaiter {
    tag: u64,
    started: SimTime,
    kind: WaiterKind,
    /// Payload bytes a parked feed accepted; stamped on its [`Completion`].
    bytes: u64,
}

impl StreamWaiter {
    fn complete(self, result: Result<OpOutput, BlobError>, bytes: u64, now: SimTime) -> Completion {
        Completion { tag: self.tag, result, started: self.started, finished: now, bytes }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WStreamPhase {
    /// Awaiting the version manager's ticket.
    Ticket,
    /// Awaiting chunk placements.
    Alloc,
    /// Open: accepting feeds, shipping cut pages under the window.
    Streaming,
    /// Commit requested: draining in-flight chunk stores.
    Draining,
    /// Resolving untouched base-tree subtrees.
    MetaResolve,
    /// Storing the new tree nodes.
    MetaPut,
    /// Awaiting the version manager's publish ack.
    Commit,
}

/// What one feed sub-operation adds to a write stream.
enum Fed {
    /// Bytes, real or size-only ([`ClientOp::FeedWriteStream`]).
    Bytes(Payload),
    /// That many declared zeros ([`ClientOp::FeedZeros`]).
    Zeros(u64),
}

/// The partial page of a real-data write stream. A sub-page feed into an
/// empty accumulator is held as the view it arrived as, so a tail that
/// declared zeros then complete is cut without having been copied; it
/// moves into an owned buffer only when more bytes follow it into the
/// same page. That buffer grows by doubling, up to the page it can at
/// most become: a page that fills holds exactly a page, one that zeros
/// complete early at most twice what was fed — never a page for a tail.
#[derive(Debug, Default)]
struct PageAcc {
    view: Option<Bytes>,
    buf: Vec<u8>,
}

impl PageAcc {
    fn len(&self) -> usize {
        self.view.as_ref().map_or(0, Bytes::len) + self.buf.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Make the accumulator an owned buffer with room for `more` bytes.
    fn make_room(&mut self, more: usize, page: usize) {
        let need = self.len() + more;
        if need > self.buf.capacity() {
            self.buf.reserve_exact((2 * need).min(page).saturating_sub(self.buf.len()));
        }
        if let Some(view) = self.view.take() {
            self.buf.extend_from_slice(&view);
        }
    }

    fn push(&mut self, b: Bytes, page: usize) {
        if self.is_empty() {
            self.view = Some(b);
        } else {
            self.make_room(b.len(), page);
            self.buf.extend_from_slice(&b);
        }
    }

    fn push_zeros(&mut self, n: usize, page: usize) {
        self.make_room(n, page);
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// The accumulated bytes as one buffer, leaving the accumulator
    /// empty: a view is handed on, an owned buffer moves.
    fn take(&mut self) -> Bytes {
        match self.view.take() {
            Some(view) => view,
            None => Bytes::from(std::mem::take(&mut self.buf)),
        }
    }
}

/// The write session: the ticket/alloc handshake runs at open (the
/// declared length pins the version and page range), then feeds cut
/// chunks of at most a page that ship through the pipelined, per-provider
/// batched put path — and the client never holds more than
/// `chunk_window × page_size` un-acknowledged fed bytes: a feed's
/// completion is withheld until there is headroom for the next page. A
/// one-shot [`ClientOp::Write`] is the same session with its payload
/// already in hand (`data`): every page is queued when placements arrive
/// and the session goes straight to draining.
#[derive(Debug)]
struct WriteStreamSess {
    blob: BlobId,
    /// The payload of a one-shot write, held until placements arrive.
    data: Option<Payload>,
    ticket: Option<WriteTicket>,
    chunks: Vec<ChunkDescriptor>,
    builder: Option<TreeBuilder>,
    /// Whether the base-tree resolve already broadcast its bulk query.
    range_used: bool,
    root: Option<NodeRef>,
    phase: WStreamPhase,
    /// Partial page under accumulation (real-data streams).
    acc: PageAcc,
    /// Partial page under accumulation (size-only simulation streams).
    acc_sim: u64,
    /// Declared zeros behind the accumulated bytes of the partial page.
    /// They hold no memory: the page is cut without them if they reach
    /// its end, and they are written out if more bytes follow.
    acc_zeros: u64,
    /// `Some(true)` once the first feed fixed the payload flavor to
    /// real data, `Some(false)` for simulation; mixing is a protocol
    /// error.
    data_mode: Option<bool>,
    /// Index into `chunks` of the next page to cut.
    next_page: u64,
    /// Cut pages (one entry per replica, target first) not yet issued
    /// because the window is full.
    queued: std::collections::VecDeque<(NodeId, PutItem)>,
    /// Replica acks still owed per cut page (indexed like `chunks`); the
    /// page's bytes stay "buffered" until the last replica acks.
    page_acks: Vec<u32>,
    /// Bytes cut but not yet fully acknowledged (each page counted once
    /// — replicas share one refcounted buffer).
    unacked_bytes: u64,
    /// Total bytes accepted so far.
    fed: u64,
    /// High-water mark of `buffered()`, exported as the
    /// `client.stream_buffered_bytes` gauge.
    peak_buffered: u64,
    reallocs: u32,
    /// CRC-32C of the real bytes cut so far, folded from the page CRCs.
    crc: u32,
}

impl WriteStreamSess {
    fn new(blob: BlobId, data: Option<Payload>) -> Self {
        WriteStreamSess {
            blob,
            data,
            ticket: None,
            chunks: Vec::new(),
            builder: None,
            range_used: false,
            root: None,
            phase: WStreamPhase::Ticket,
            acc: PageAcc::default(),
            acc_sim: 0,
            acc_zeros: 0,
            data_mode: None,
            next_page: 0,
            queued: std::collections::VecDeque::new(),
            page_acks: Vec::new(),
            unacked_bytes: 0,
            fed: 0,
            peak_buffered: 0,
            reallocs: 0,
            crc: 0,
        }
    }

    fn page_size(&self) -> u64 {
        self.ticket.as_ref().map(|t| t.page_size).unwrap_or(0)
    }

    /// Bytes this stream currently holds: the partial page plus every
    /// cut-but-not-fully-acked page.
    fn buffered(&self) -> u64 {
        self.acc.len() as u64 + self.acc_sim + self.unacked_bytes
    }

    /// May a feed completion be released? Yes once every cut page is at
    /// least in flight and there is headroom for one more page under the
    /// window cap — so the *next* feed cannot push `buffered()` past
    /// `chunk_window × page_size`.
    fn feed_ready(&self, window: usize) -> bool {
        let cap = (window as u64).max(2) * self.page_size();
        let headroom = self.unacked_bytes == 0 || self.buffered() + self.page_size() <= cap;
        self.queued.is_empty() && (window == 0 || headroom)
    }

    /// The byte length the stream was opened with.
    fn declared(&self) -> u64 {
        self.ticket.as_ref().map_or(0, |t| t.len)
    }

    /// Take one feed in: check it against the declared length and the
    /// stream's payload flavor, then cut every page it completes. Returns
    /// the bytes it counts for, or the misuse that ends the stream.
    /// Declared zeros of a page no byte has fixed the flavor of take
    /// `materialize_zeros`, the deployment's.
    fn absorb(&mut self, fed: Fed, materialize_zeros: bool) -> Result<u64, &'static str> {
        let len = match &fed {
            Fed::Bytes(data) => data.len(),
            Fed::Zeros(n) => *n,
        };
        if self.fed.checked_add(len).is_none_or(|total| total > self.declared()) {
            return Err("feed exceeds the declared stream length");
        }
        let mixed = match &fed {
            Fed::Bytes(Payload::Data(_)) => self.data_mode == Some(false),
            Fed::Bytes(Payload::Sim(_)) => self.data_mode == Some(true),
            Fed::Zeros(_) => false,
        };
        if mixed {
            return Err("mixed real and simulated payloads in one stream");
        }
        let page = self.page_size();
        match fed {
            Fed::Bytes(Payload::Data(mut b)) => {
                self.data_mode = Some(true);
                let page = page as usize;
                // Declared zeros with bytes behind them in the same page
                // are no tail: they are written out. Rare; a pad is last.
                if self.acc_zeros > 0 && !b.is_empty() {
                    self.acc.push_zeros(std::mem::take(&mut self.acc_zeros) as usize, page);
                }
                // A partial page under accumulation is topped up first —
                // the one copy a sub-page feed costs — and cut the moment
                // it fills, so `acc` never holds more than one page and a
                // cut hands the whole accumulator on: a move.
                if !self.acc.is_empty() {
                    let need = page.saturating_sub(self.acc.len()).min(b.len());
                    self.acc.push(b.slice(..need), page);
                    b = b.slice(need..);
                    self.cut();
                }
                // Zero-copy fast path: with an empty accumulator, whole
                // pages are cut straight off the fed buffer as refcounted
                // sub-slices; a sub-page tail is held as a view too, and
                // copied only if a later feed lands behind it.
                if page > 0 && self.acc.is_empty() {
                    let mut at = 0usize;
                    while b.len() - at >= page && (self.next_page as usize) < self.chunks.len() {
                        self.enqueue(Payload::Data(b.slice(at..at + page)));
                        at += page;
                    }
                    if at > 0 {
                        b = b.slice(at..);
                    }
                }
                if !b.is_empty() {
                    self.acc.push(b, page);
                }
            }
            Fed::Bytes(Payload::Sim(n)) => {
                self.data_mode = Some(false);
                if n > 0 {
                    self.acc_sim += std::mem::take(&mut self.acc_zeros);
                }
                self.acc_sim += n;
                self.cut();
            }
            Fed::Zeros(mut n) => {
                let real = self.data_mode.unwrap_or(materialize_zeros);
                while n > 0 && (self.next_page as usize) < self.chunks.len() {
                    let held = self.acc.len() as u64 + self.acc_sim;
                    let take = n.min(page - held - self.acc_zeros);
                    self.acc_zeros += take;
                    n -= take;
                    if held + self.acc_zeros == page {
                        // The zeros run to the page boundary: the page is
                        // cut at the length of the bytes fed into it, and
                        // whoever reads it zero-extends.
                        self.acc_zeros = 0;
                        let payload = if real {
                            Payload::Data(self.acc.take())
                        } else {
                            Payload::Sim(std::mem::take(&mut self.acc_sim))
                        };
                        self.enqueue(payload);
                    }
                }
            }
        }
        self.fed += len;
        Ok(len)
    }

    /// Queue one page's payload — the whole page, or its true length when
    /// declared zeros completed it — for the next page slot, one send per
    /// replica. The slot's descriptor takes the stored length. Each cut
    /// page is counted once in `unacked_bytes` until its last replica
    /// acks, and checksummed once here: every replica, resend and
    /// re-allocation carries that CRC, and the providers store it. A real
    /// page's CRC also extends the write's running CRC.
    fn enqueue(&mut self, payload: Payload) {
        let desc = &mut self.chunks[self.next_page as usize];
        if !desc.replicas.is_empty() {
            desc.size = payload.len();
            self.page_acks[self.next_page as usize] = desc.replicas.len() as u32;
            self.unacked_bytes += desc.size;
            let crc = payload_crc(&payload);
            if let Payload::Data(b) = &payload {
                self.crc = crc32c_combine(self.crc, crc, b.len() as u64);
            }
            for replica in &desc.replicas {
                self.queued.push_back((*replica, (desc.key, payload.clone(), crc)));
            }
        }
        self.next_page += 1;
    }

    /// Cut the accumulator into per-replica queued sends once fed bytes
    /// fill a page.
    fn cut(&mut self) {
        let page = self.page_size();
        if page == 0 {
            return;
        }
        while (self.acc.len() as u64 >= page || self.acc_sim >= page)
            && (self.next_page as usize) < self.chunks.len()
        {
            let payload = if self.acc.len() as u64 >= page {
                // Feeds top the accumulator up to exactly one page.
                debug_assert_eq!(self.acc.len() as u64, page);
                Payload::Data(self.acc.take())
            } else {
                self.acc_sim -= page;
                Payload::Sim(page)
            };
            self.enqueue(payload);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RStreamPhase {
    /// Awaiting the version lookup.
    Version,
    /// Running the metadata descent for the whole range.
    Meta,
    /// Open, no fetch in flight; awaiting the next pull.
    Idle,
    /// One window of chunk fetches in flight.
    Fetching,
}

/// The read session: the version lookup and the (bulk, cache-warming)
/// metadata descent run at open and resolve the whole chunk plan — an
/// O(#pages) table of descriptors, not data — then each `next()` pulls
/// at most `chunk_window` pages of actual bytes — delivered as they were
/// fetched, a rope of views of the stored pages — so a multi-GB read
/// runs in O(window) data memory and copies nothing. A one-shot
/// [`ClientOp::Read`] is the same session pulling the whole plan as its
/// single batch and assembling it into the one buffer its caller is owed.
#[derive(Debug)]
struct ReadStreamSess {
    blob: BlobId,
    offset: u64,
    len: u64,
    info: Option<VersionInfo>,
    reader: Option<TreeReader>,
    phase: RStreamPhase,
    page0: u64,
    /// Resolved page plan for the range: the pages not yet pulled.
    sources: std::vec::IntoIter<PageSource>,
    /// Pages pulled so far (the plan index of the next batch).
    cursor: usize,
    /// Plan index of `parts[0]` for the batch in flight.
    batch_base: usize,
    /// The batch in flight (at most `chunk_window` entries for a stream
    /// pull, the whole plan for a one-shot read).
    parts: Vec<Option<Payload>>,
    /// Per-provider chunk-fetch groups of the batch not yet issued
    /// (reversed; `pop()` yields the next group); each reply refills one
    /// window slot from here. A stream batch has at most `chunk_window`
    /// pages, so only a one-shot read ever queues.
    pending_gets: Vec<Vec<ChunkFetch>>,
    /// Whether this read already issued its one bulk `GetMetaRange`
    /// broadcast (later descent gaps use the per-node path).
    range_used: bool,
    /// Whether the read names its version; the version manager's answer
    /// to it then goes into the client's version cache.
    pinned: bool,
}

impl ReadStreamSess {
    fn new(blob: BlobId, pinned: bool, offset: u64, len: u64) -> Self {
        ReadStreamSess {
            blob,
            pinned,
            offset,
            len,
            info: None,
            reader: None,
            phase: RStreamPhase::Version,
            page0: 0,
            sources: Vec::new().into_iter(),
            cursor: 0,
            batch_base: 0,
            parts: Vec::new(),
            pending_gets: Vec::new(),
            range_used: false,
        }
    }
}

#[derive(Debug)]
enum SessKind {
    Create,
    Snapshot(BlobId),
    Decommission(BlobId),
    // Boxed: write and read sessions embed builders, descriptor tables
    // and pending queues, and are much larger than the other variants.
    WriteStream(Box<WriteStreamSess>),
    ReadStream(Box<ReadStreamSess>),
}

impl SessKind {
    /// Name of the protocol stage the session is currently in.
    fn stage(&self) -> &'static str {
        match self {
            SessKind::Create => "create",
            SessKind::Snapshot(_) => "snapshot",
            SessKind::Decommission(_) => "decommission",
            SessKind::WriteStream(w) => match w.phase {
                WStreamPhase::Ticket => "ticket",
                WStreamPhase::Alloc => "alloc",
                WStreamPhase::Streaming => "stream",
                WStreamPhase::Draining => "chunks",
                WStreamPhase::MetaResolve => "meta_resolve",
                WStreamPhase::MetaPut => "meta_put",
                WStreamPhase::Commit => "commit",
            },
            SessKind::ReadStream(r) => match r.phase {
                RStreamPhase::Version => "version",
                RStreamPhase::Meta => "meta",
                RStreamPhase::Idle => "stream",
                RStreamPhase::Fetching => "chunks",
            },
        }
    }
}

/// Causal-trace state of one operation: the root span identity plus the
/// start time of the protocol stage currently in flight. Present only
/// when the embedding runtime exposes a [`sads_sim::SpanSink`]; with
/// tracing off the field is `None` and the client does no span work.
#[derive(Debug)]
struct OpTrace {
    /// Root context: `span_id` is the operation's `Op` span, under which
    /// every stage span and (via ambient propagation) every network and
    /// server-side handle span of this operation nests.
    ctx: TraceCtx,
    /// Operation label: `"create"`, `"write"` or `"read"`.
    op: &'static str,
    /// When the current stage began (stage spans are emitted lazily, at
    /// the transition out of the stage).
    stage_start: SimTime,
}

impl OpTrace {
    /// Record a span of this operation: its root (`kind` = `Op`, named
    /// `op`) or a `Stage` span named `op` under the root.
    fn record(
        &self,
        env: &mut dyn Env,
        kind: SpanKind,
        op: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        let Some(sink) = env.span_sink() else { return };
        let (span, parent) = match kind {
            SpanKind::Op => (self.ctx.span_id, self.ctx.parent),
            _ => (sink.next_id(), self.ctx.span_id),
        };
        sink.record(SpanRecord {
            trace: self.ctx.trace_id,
            span,
            parent,
            service: "client",
            op,
            node: env.id().0 as u64,
            start_ns: start.as_nanos(),
            end_ns: end.as_nanos(),
            kind,
            class: SpanClass::Control,
            queue_ns: 0,
            xfer_ns: 0,
            wire_ns: 0,
        });
    }

    /// Record the Stage span of one parked stream sub-operation (the open
    /// handshake, a parked feed, the commit drain, a pull). Synchronous
    /// completions (start == end) carry no latency information and are
    /// skipped, and a parked whole operation is already covered by its
    /// root `Op` span.
    fn record_sub_op(&self, env: &mut dyn Env, kind: WaiterKind, start: SimTime, end: SimTime) {
        let label = match kind {
            WaiterKind::Op => return,
            WaiterKind::Open => "stream_open",
            WaiterKind::Feed => "stream_feed",
            WaiterKind::Commit => "stream_commit",
            WaiterKind::Next => "stream_next",
        };
        if start != end {
            self.record(env, SpanKind::Stage, label, start, end);
        }
    }
}

#[derive(Debug)]
struct Session {
    started: SimTime,
    kind: SessKind,
    /// Request ids awaited in the current phase.
    awaited: Awaited,
    /// Span bookkeeping when tracing is on (`None` = zero trace work).
    trace: Option<OpTrace>,
    /// The parked (sub-)operation. A session outlives its sub-operations;
    /// completions go to whoever is parked here, never to the session.
    waiter: Option<StreamWaiter>,
    /// A fatal error that arrived while nothing was parked; delivered to
    /// (and ending the stream at) the next sub-operation.
    failed: Option<BlobError>,
    /// Idle clock of a stream with nothing parked: sub-operations and
    /// message arrivals refresh it.
    last_activity: SimTime,
}

impl Session {
    /// When this session times out: `op_timeout` after the parked
    /// (sub-)operation was parked, or after the last activity of a stream
    /// with nothing parked.
    fn deadline(&self, op_timeout: SimDuration) -> SimTime {
        self.waiter.as_ref().map_or(self.last_activity, |w| w.started) + op_timeout
    }

    /// Is the operation itself what is parked (a one-shot write or read),
    /// rather than a sub-operation of a stream?
    fn whole_op(&self) -> bool {
        self.waiter.as_ref().is_some_and(|w| w.kind == WaiterKind::Op)
    }
}

/// The request ids a session awaits in its current phase, kept with the
/// session's id: all [`Requests::issue`] needs to register one more.
#[derive(Debug)]
struct Awaited {
    sid: u64,
    reqs: FastSet<u64>,
}

/// One chunk fetch on its replica walk, for read-part `idx`. The walk
/// starts at `replicas[first]`; after `attempts` tries the one in flight
/// went to `replicas[(first + attempts - 1) % len]`, and it ends once
/// every replica was tried. `refreshed` marks a fetch re-issued after a
/// degraded-read placement refresh (one refresh per chunk per op).
#[derive(Debug)]
struct ChunkFetch {
    idx: usize,
    desc: ChunkDescriptor,
    first: usize,
    attempts: usize,
    refreshed: bool,
}

impl ChunkFetch {
    /// The replica the try in flight went to.
    fn target(&self) -> NodeId {
        self.desc.replicas[(self.first + self.attempts - 1) % self.desc.replicas.len()]
    }
}

/// Which sub-protocol a pending request id belongs to, plus retry state
/// for chunk transfers.
#[derive(Debug)]
enum ReqRole {
    Plain,
    /// One provider's batch of chunk fetches, each on its own replica
    /// walk: window slots grouped by the replica chosen for each chunk,
    /// or one walk's next try. One deadline guards the whole batch; a
    /// failed or unanswered fetch walks on from its own state.
    ChunkGet(Vec<ChunkFetch>, SimTime),
    /// A metadata fetch carrying the requested keys (during resolve).
    MetaGet,
    /// One provider's slice of a session's bulk metadata range query
    /// (`target` kept for continuation requests).
    MetaRange {
        target: NodeId,
        q: RangeQuery,
    },
    /// One provider's batch of chunk stores, kept so a timed-out or
    /// refused store can be re-sent (same target, then a replacement).
    /// `due` is the sent batch's deadline, or, until a resend is `sent`,
    /// the end of its backoff, when the deadline sweep sends it.
    ChunkPut {
        target: NodeId,
        items: Vec<PutItem>,
        attempts: u32,
        due: SimTime,
        sent: bool,
    },
    /// A replacement-placement request for chunk stores that exhausted
    /// their target (`failed`); `items` are re-sent to the new placement.
    ReAlloc {
        failed: NodeId,
        items: Vec<PutItem>,
    },
    /// A degraded-read placement refresh: re-fetch the leaf of read-part
    /// `idx` directly (bypassing the cache) to pick up repair patches.
    LeafRefresh {
        idx: usize,
        desc: ChunkDescriptor,
    },
}

/// Every request in flight, by id: the session it belongs to and the
/// role its reply plays there.
#[derive(Debug)]
struct Requests {
    next: u64,
    roles: FastMap<u64, (u64, ReqRole)>,
}

impl Requests {
    /// Issue a request id — the one place ids are made: registered here
    /// under `role` and awaited by the session in `awaited`.
    fn issue(&mut self, awaited: &mut Awaited, role: ReqRole) -> u64 {
        let req = self.next;
        self.next += 1;
        self.roles.insert(req, (awaited.sid, role));
        awaited.reqs.insert(req);
        req
    }
}

/// What every protocol step needs besides its own session: this client's
/// id, the managers and metadata ring it talks to, its configuration, its
/// node cache and the request table. The steps are methods on it, each
/// borrowing its [`Session`] out of the session table beside it.
struct Cx {
    id: ClientId,
    vman: NodeId,
    pman: NodeId,
    meta_providers: Vec<NodeId>,
    cfg: ClientConfig,
    meta_cache: NodeCache,
    versions: VersionCache,
    reqs: Requests,
    /// Instants of the pending deadline timers, the earliest last.
    armed: Vec<SimTime>,
}

/// The embeddable client core. Drive it with `start_op`, feed it every
/// incoming message/timer, and collect [`Completion`]s.
pub struct ClientCore {
    cx: Cx,
    sessions: FastMap<u64, Session>,
    next_sid: u64,
}

impl ClientCore {
    /// A client of the deployment whose managers and (static) metadata
    /// provider ring are given.
    pub fn new(
        id: ClientId,
        vman: NodeId,
        pman: NodeId,
        meta_providers: Vec<NodeId>,
        cfg: ClientConfig,
    ) -> Self {
        assert!(!meta_providers.is_empty(), "at least one metadata provider");
        let (meta_cache, versions, armed) = (NodeCache::default(), VersionCache::default(), vec![]);
        let reqs = Requests { next: 1, roles: FastMap::default() };
        let cx = Cx { id, vman, pman, meta_providers, cfg, meta_cache, versions, reqs, armed };
        ClientCore { cx, sessions: FastMap::default(), next_sid: 1 }
    }

    /// This client's principal id.
    pub fn id(&self) -> ClientId {
        self.cx.id
    }

    /// Operations currently in flight.
    pub fn active_ops(&self) -> usize {
        self.sessions.len()
    }

    /// Does this timer token belong to the client core?
    pub fn owns_timer(token: u64) -> bool {
        token & CLIENT_TIMER_BIT != 0
    }

    /// Begin an operation; its completion will carry `tag`.
    ///
    /// Most operations complete later, through [`handle_msg`] /
    /// [`handle_timer`]; stream sub-operations (feeds, pulls) can
    /// complete synchronously when the stream already has headroom, so
    /// completions may also be returned here.
    ///
    /// [`handle_msg`]: ClientCore::handle_msg
    /// [`handle_timer`]: ClientCore::handle_timer
    pub fn start_op(&mut self, env: &mut dyn Env, op: ClientOp, tag: u64) -> Vec<Completion> {
        // Stream sub-operations act on an existing session instead of
        // opening one.
        match op {
            ClientOp::FeedWriteStream { stream, .. }
            | ClientOp::FeedZeros { stream, .. }
            | ClientOp::CommitWriteStream { stream }
            | ClientOp::ReadStreamNext { stream } => return self.sub_op(env, stream, op, tag),
            ClientOp::AbortWriteStream { stream } | ClientOp::CloseReadStream { stream } => {
                return self.stream_close(env, stream, tag)
            }
            _ => {}
        }
        let sid = self.next_sid;
        self.next_sid += 1;
        let started = env.now();
        self.cx.arm(env, started + self.cx.cfg.op_timeout);
        let (op_name, waiting) = match &op {
            ClientOp::Create { .. } => ("create", WaiterKind::Op),
            ClientOp::Write { .. } => ("write", WaiterKind::Op),
            ClientOp::Read { .. } => ("read", WaiterKind::Op),
            ClientOp::Snapshot { .. } => ("snapshot", WaiterKind::Op),
            ClientOp::Decommission { .. } => ("decommission", WaiterKind::Op),
            ClientOp::OpenWriteStream { .. } => ("write_stream", WaiterKind::Open),
            ClientOp::OpenReadStream { .. } => ("read_stream", WaiterKind::Open),
            _ => unreachable!("stream sub-operations handled above"),
        };
        let trace = env.span_sink().map(|sink| {
            // Nest under an ambient context when one exists (e.g. the S3
            // gateway's per-request span); otherwise open a fresh trace.
            let (trace_id, parent) = match env.trace_ctx() {
                Some(tc) => (tc.trace_id, tc.span_id),
                None => (sink.next_id(), 0),
            };
            let span_id = sink.next_id();
            OpTrace {
                ctx: TraceCtx { trace_id, span_id, parent },
                op: op_name,
                stage_start: started,
            }
        });
        env.set_trace_ctx(trace.as_ref().map(|t| t.ctx));
        // A pinned read may find its version, fixed for good, cached.
        let cached = match &op {
            ClientOp::Read { blob, version: Some(v), .. }
            | ClientOp::OpenReadStream { blob, version: Some(v), .. } => {
                self.cx.versions.get(&(*blob, *v)).copied()
            }
            _ => None,
        };
        // Every other operation opens with one request to the version
        // manager and parks: the one-shot forms park the operation itself,
        // the stream forms park their `open`.
        let mut awaited = Awaited { sid, reqs: FastSet::default() };
        let req = match cached {
            Some(_) => 0,
            None => self.cx.reqs.issue(&mut awaited, ReqRole::Plain),
        };
        let client = self.cx.id;
        let write = |blob, data| SessKind::WriteStream(Box::new(WriteStreamSess::new(blob, data)));
        let (kind, msg) = match op {
            ClientOp::Create { spec } => (SessKind::Create, Msg::CreateBlob { req, client, spec }),
            ClientOp::Snapshot { blob, version } => {
                (SessKind::Snapshot(blob), Msg::SnapshotVersion { req, client, blob, version })
            }
            ClientOp::Decommission { blob } => {
                (SessKind::Decommission(blob), Msg::DecommissionBlob { req, client, blob })
            }
            ClientOp::Write { blob, kind, data } => {
                let len = data.len();
                (write(blob, Some(data)), Msg::Ticket { req, client, blob, kind, len })
            }
            ClientOp::OpenWriteStream { blob, kind, len } => {
                (write(blob, None), Msg::Ticket { req, client, blob, kind, len })
            }
            ClientOp::Read { blob, version, offset, len }
            | ClientOp::OpenReadStream { blob, version, offset, len } => {
                let r = ReadStreamSess::new(blob, version.is_some(), offset, len);
                (SessKind::ReadStream(Box::new(r)), Msg::GetVersion { req, client, blob, version })
            }
            _ => unreachable!("stream sub-operations handled above"),
        };
        let waiter = Some(StreamWaiter { tag, started, kind: waiting, bytes: 0 });
        let last_activity = started;
        let sess = Session { started, kind, awaited, trace, waiter, failed: None, last_activity };
        let sess = self.sessions.entry(sid).or_insert(sess);
        let Some(info) = cached else {
            env.send(self.cx.vman, msg);
            env.set_trace_ctx(None);
            return vec![];
        };
        // The cache answers in the version manager's place. A hole-only,
        // empty or out-of-bounds read completes here.
        env.incr("client.version_hits", 1);
        let step = self.cx.rstream_step(sess, ReqRole::Plain, Msg::GetVersionOk { req, info }, env);
        let now = env.now();
        self.stream_epilogue(env, sid, "version", step, now)
    }

    /// Feed a timer owned by the client core (see [`ClientCore::owns_timer`]).
    pub fn handle_timer(&mut self, env: &mut dyn Env, _token: u64) -> Vec<Completion> {
        // The deadline timer (see [`Cx::arm`]): time out each due request,
        // then each due session (see [`Session::deadline`]), in id order,
        // and re-arm. An unanswered chunk RPC gets the error a refusal
        // brings, so failover and retry treat both alike; a resend whose
        // backoff ended goes out under a fresh deadline.
        let (now, op_timeout) = (env.now(), self.cx.cfg.op_timeout);
        // A chunk transfer's deadline, or a resend's backoff end; never else.
        let deadline = |(_, role): &(u64, ReqRole)| match role {
            ReqRole::ChunkGet(_, due) | ReqRole::ChunkPut { due, .. } => *due,
            _ => SimTime::MAX,
        };
        let roles = self.cx.reqs.roles.iter().filter(|(_, r)| deadline(r) <= now);
        let mut due: Vec<u64> = roles.map(|(req, _)| *req).collect();
        due.sort_unstable();
        let mut out = Vec::new();
        for req in due {
            let msg = match self.cx.reqs.roles.get_mut(&req) {
                Some((sid, ReqRole::ChunkPut { target, items, due, sent: sent @ false, .. })) => {
                    (*sent, *due) = (true, now + self.cx.cfg.retry.put_timeout);
                    let msg = Msg::PutChunkBatch { req, client: self.cx.id, items: items.clone() };
                    // The resend belongs to the operation's causal tree.
                    let tc = self.sessions.get(sid).and_then(|s| s.trace.as_ref().map(|t| t.ctx));
                    env.set_trace_ctx(tc);
                    env.send(*target, msg);
                    env.set_trace_ctx(None);
                    continue;
                }
                Some((_, ReqRole::ChunkPut { .. })) => {
                    Msg::PutChunkErr { req, err: ChunkErr::Unreachable }
                }
                Some(_) => Msg::GetChunkErr { req, err: ChunkErr::NotFound },
                None => continue, // its session ended earlier in the sweep
            };
            out.extend(self.handle_msg(env, NodeId::EXTERNAL, msg));
        }
        let sessions = self.sessions.iter().filter(|(_, s)| s.deadline(op_timeout) <= now);
        let mut due: Vec<u64> = sessions.map(|(sid, _)| *sid).collect();
        due.sort_unstable();
        for sid in due {
            let parked = self.end_session(env, sid);
            out.extend(parked.map(|wt| wt.complete(Err(BlobError::Timeout), 0, now)));
        }
        // Dropped only now, the fired timers kept the sweep from arming.
        self.cx.armed.retain(|&t| t > now);
        let reqs = self.cx.reqs.roles.values().map(deadline);
        let next = reqs.chain(self.sessions.values().map(|s| s.deadline(op_timeout))).min();
        self.cx.arm(env, next.unwrap_or(SimTime::MAX));
        out
    }

    /// Feed an incoming message. Returns any operations that completed.
    pub fn handle_msg(&mut self, env: &mut dyn Env, _from: NodeId, msg: Msg) -> Vec<Completion> {
        let Some(req) = req_of(&msg) else { return vec![] };
        let Some((sid, role)) = self.cx.reqs.roles.remove(&req) else { return vec![] };
        let Some(sess) = self.sessions.get_mut(&sid) else { return vec![] };
        sess.awaited.reqs.remove(&req);
        if sess.waiter.is_none() {
            // Progress of a stream with nothing parked (chunk acks between
            // feeds) keeps it from being reaped as idle.
            sess.last_activity = env.now();
        }
        // Restore this operation's causal context so every message sent
        // while advancing the protocol nests under its root span, and
        // remember the stage so a phase transition can close its span.
        let stage_before = sess.kind.stage();
        env.set_trace_ctx(sess.trace.as_ref().map(|t| t.ctx));
        let step = match &sess.kind {
            SessKind::WriteStream(_) => self.cx.wstream_step(sess, role, msg, env),
            SessKind::ReadStream(_) => self.cx.rstream_step(sess, role, msg, env),
            kind => simple_step(kind, msg),
        };
        let now = env.now();
        self.stream_epilogue(env, sid, stage_before, step, now)
    }

    /// Run a feed, commit or pull on stream `sid`, or refuse it. An
    /// unknown stream, the wrong session kind or a sub-operation already
    /// parked leave the stream as it was; a fatal error stored on the
    /// stream is delivered instead, and ends it. An admitted sub-operation
    /// parks as the stream's waiter and completes — at once or later —
    /// through [`ClientCore::stream_epilogue`].
    fn sub_op(&mut self, env: &mut dyn Env, sid: u64, op: ClientOp, tag: u64) -> Vec<Completion> {
        let now = env.now();
        let refuse = |m| vec![instant(tag, now, Err(BlobError::Protocol(m)))];
        let Some(sess) = self.sessions.get_mut(&sid) else { return refuse("unknown stream") };
        let (kind, bytes) = match &op {
            ClientOp::FeedWriteStream { data, .. } => (WaiterKind::Feed, data.len()),
            ClientOp::FeedZeros { len, .. } => (WaiterKind::Feed, *len),
            ClientOp::CommitWriteStream { .. } => (WaiterKind::Commit, 0),
            _ => (WaiterKind::Next, 0),
        };
        let failed = sess.failed.take();
        if failed.is_none() {
            // A stream outside the phase a sub-operation needs always
            // has an open, commit or pull parked on it, so the phase
            // check never trips first.
            let open = match (&sess.kind, kind) {
                (SessKind::WriteStream(w), WaiterKind::Feed | WaiterKind::Commit) => {
                    w.phase == WStreamPhase::Streaming
                }
                (SessKind::ReadStream(r), WaiterKind::Next) => r.phase == RStreamPhase::Idle,
                (_, WaiterKind::Next) => return refuse("not a read stream"),
                _ => return refuse("not a write stream"),
            };
            if sess.waiter.is_some() {
                return refuse("stream sub-operation already in flight");
            }
            if !open {
                return refuse("stream is not open");
            }
        }
        // A feed, or a stored failure delivered, completes in the instant
        // it was made; a commit or pull ends its stage when its step is
        // done.
        let instant_step = failed.is_some() || kind == WaiterKind::Feed;
        let stage_before = sess.kind.stage();
        sess.last_activity = now;
        sess.waiter = Some(StreamWaiter { tag, started: now, kind, bytes });
        env.set_trace_ctx(sess.trace.as_ref().map(|t| t.ctx));
        let cx = &mut self.cx;
        let step = match (failed, op) {
            (Some(err), _) => StreamStep::Finish(Err(err), 0),
            (None, ClientOp::FeedWriteStream { data, .. }) => {
                cx.wstream_feed(sess, Fed::Bytes(data), env)
            }
            (None, ClientOp::FeedZeros { len, .. }) => cx.wstream_feed(sess, Fed::Zeros(len), env),
            (None, ClientOp::CommitWriteStream { .. }) => cx.wstream_commit(sess, env),
            (None, _) => cx.rstream_fetch(sess, env),
        };
        let end = if instant_step { now } else { env.now() };
        self.stream_epilogue(env, sid, stage_before, step, end)
    }

    /// Close a stream (write-stream abort or read-stream close).
    /// Idempotent: closing an already-gone stream succeeds, so handle
    /// drop paths can race eof/timeout teardown safely.
    fn stream_close(&mut self, env: &mut dyn Env, sid: u64, tag: u64) -> Vec<Completion> {
        let now = env.now();
        if let Some(SessKind::Create | SessKind::Snapshot(_) | SessKind::Decommission(_)) =
            self.sessions.get(&sid).map(|s| &s.kind)
        {
            return vec![instant(tag, now, Err(BlobError::Protocol("not a stream")))];
        }
        // Handles are half-duplex, so no sub-operation should be parked
        // here — but a racing caller gets a clean error, not silence.
        let parked = self.end_session(env, sid);
        let closed = instant(tag, now, Ok(OpOutput::StreamClosed { stream: sid }));
        let err = Err(BlobError::Protocol("stream closed"));
        parked.map(|wt| wt.complete(err, 0, now)).into_iter().chain([closed]).collect()
    }

    /// The one way a session ends — publish acknowledged, eof delivered,
    /// fatal error, deadline, abort/close: drop it and its pending
    /// requests, close its spans, and hand back the parked (sub-)operation
    /// for the caller to complete with the outcome.
    fn end_session(&mut self, env: &mut dyn Env, sid: u64) -> Option<StreamWaiter> {
        let mut sess = self.sessions.remove(&sid)?;
        for req in &sess.awaited.reqs {
            self.cx.reqs.roles.remove(req);
        }
        let waiter = sess.waiter.take();
        if let Some(t) = &sess.trace {
            let now = env.now();
            if let Some(wt) = &waiter {
                t.record_sub_op(env, wt.kind, wt.started, now);
            }
            t.record(env, SpanKind::Stage, sess.kind.stage(), t.stage_start, now);
            t.record(env, SpanKind::Op, t.op, sess.started, now);
        }
        waiter
    }

    /// Apply a [`StreamStep`] taken at `now` to the session: complete the
    /// parked (sub-)operation, end the session on [`StreamStep::Finish`],
    /// store fatal errors nobody is parked to receive, and close the stage
    /// span when the step moved the session to another stage.
    fn stream_epilogue(
        &mut self,
        env: &mut dyn Env,
        sid: u64,
        stage_before: &'static str,
        step: StreamStep,
        now: SimTime,
    ) -> Vec<Completion> {
        let out = if let StreamStep::Finish(result, bytes) = step {
            self.end_session(env, sid).map(|wt| wt.complete(result, bytes, now))
        } else if let Some(sess) = self.sessions.get_mut(&sid) {
            if sess.kind.stage() != stage_before {
                if let Some(t) = sess.trace.as_mut() {
                    t.record(env, SpanKind::Stage, stage_before, t.stage_start, now);
                    t.stage_start = now;
                }
            }
            match step {
                StreamStep::Park | StreamStep::Finish(..) => None,
                StreamStep::Complete(result, bytes) => {
                    sess.last_activity = now;
                    sess.waiter.take().map(|wt| {
                        if let Some(t) = &sess.trace {
                            t.record_sub_op(env, wt.kind, wt.started, now);
                        }
                        wt.complete(result, bytes, now)
                    })
                }
                StreamStep::Fatal(err) => {
                    for req in sess.awaited.reqs.drain() {
                        self.cx.reqs.roles.remove(&req);
                    }
                    sess.failed = Some(err);
                    None
                }
            }
        } else {
            None
        };
        env.set_trace_ctx(None);
        out.into_iter().collect()
    }
}

impl Cx {
    // ---- write session -----------------------------------------------

    /// Push bytes, or declared zeros, into an open write stream (see
    /// [`ClientOp::FeedWriteStream`] and [`ClientOp::FeedZeros`]).
    /// Completes at once while the stream has headroom; otherwise the
    /// parked feed completes when enough chunk acks arrive.
    fn wstream_feed(&mut self, sess: &mut Session, fed: Fed, env: &mut dyn Env) -> StreamStep {
        let SessKind::WriteStream(w) = &mut sess.kind else { unreachable!("a write stream") };
        let len = match w.absorb(fed, self.cfg.materialize_zeros) {
            Ok(len) => len,
            Err(misuse) => return StreamStep::Finish(Err(BlobError::Protocol(misuse)), 0),
        };
        self.wstream_pump(&mut sess.awaited, w, env);
        let buffered = w.buffered();
        if buffered > w.peak_buffered {
            w.peak_buffered = buffered;
            env.record("client.stream_buffered_bytes", buffered as f64);
        }
        if !w.feed_ready(self.cfg.chunk_window) {
            return StreamStep::Park;
        }
        StreamStep::Complete(Ok(OpOutput::Fed { stream: sess.awaited.sid }), len)
    }

    /// Publish an open write stream (see [`ClientOp::CommitWriteStream`]):
    /// drain in-flight chunk stores, then run the metadata/commit tail of
    /// the write protocol.
    fn wstream_commit(&mut self, sess: &mut Session, env: &mut dyn Env) -> StreamStep {
        let SessKind::WriteStream(w) = &mut sess.kind else { unreachable!("a write stream") };
        if w.fed != w.declared() {
            let err = BlobError::Protocol("commit before the declared length was fed");
            return StreamStep::Finish(Err(err), 0);
        }
        w.phase = WStreamPhase::Draining;
        debug_assert!(
            !sess.awaited.reqs.is_empty() || w.queued.is_empty(),
            "queued chunks with an empty in-flight window"
        );
        // With nothing in flight this goes straight to the metadata phase.
        self.wstream_meta_step(&mut sess.awaited, w, env)
    }

    /// Send one provider's queued chunk stores as one `PutChunkBatch`
    /// round trip. The items are kept in the request's role so an enabled
    /// [`RetryPolicy`] can re-send them (payloads are refcounted views —
    /// no data is copied — and their CRCs ride along, so no resend
    /// checksums again); the policy also sets the per-RPC deadline here.
    fn put_chunks(&mut self, aw: &mut Awaited, to: NodeId, items: Vec<PutItem>, env: &mut dyn Env) {
        let retry = self.cfg.retry;
        let due = if retry.enabled() { env.now() + retry.put_timeout } else { SimTime::MAX };
        let (attempts, sent) = (1, true);
        let role = ReqRole::ChunkPut { target: to, items: items.clone(), attempts, due, sent };
        let req = self.reqs.issue(aw, role);
        env.send(to, Msg::PutChunkBatch { req, client: self.id, items });
        self.arm(env, due);
    }

    /// Have a timer fire at `due` unless a pending one fires no later: one
    /// timer, for the earliest deadline, sweeps them all (see
    /// [`ClientCore::handle_timer`]).
    fn arm(&mut self, env: &mut dyn Env, due: SimTime) {
        if due < self.armed.last().copied().unwrap_or(SimTime::MAX) {
            self.armed.push(due);
            env.set_timer(due.since(env.now()), CLIENT_TIMER_BIT);
        }
    }

    /// Issue queued chunk sends while the in-flight window has room. One
    /// issue takes every queued item headed for the same provider — the
    /// same per-provider batching as the whole-buffer write path.
    fn wstream_pump(&mut self, aw: &mut Awaited, w: &mut WriteStreamSess, env: &mut dyn Env) {
        let window = if self.cfg.chunk_window == 0 { usize::MAX } else { self.cfg.chunk_window };
        while aw.reqs.len() < window && !w.queued.is_empty() {
            let target = w.queued.front().expect("non-empty").0;
            let mut items: Vec<PutItem> = Vec::new();
            let mut rest = std::collections::VecDeque::new();
            for (t, item) in w.queued.drain(..) {
                if t == target {
                    items.push(item);
                } else {
                    rest.push_back((t, item));
                }
            }
            w.queued = rest;
            self.put_chunks(aw, target, items, env);
        }
    }

    /// Run a session's metadata descent through the node cache; where it
    /// stops, fetch what it misses: in the session's one bulk broadcast if
    /// the descent asks for it ([`Descent::bulk_query`]), else one `GetMeta` per
    /// owning provider. `true` once the descent is done.
    fn descend(
        &mut self,
        aw: &mut Awaited,
        d: &mut impl Descent,
        range_used: &mut bool,
        env: &mut dyn Env,
    ) -> bool {
        let Some(missing) = self.meta_cache.descend(d) else { return true };
        let bulk = d.bulk_query(self.meta_providers.len());
        match bulk.filter(|_| self.cfg.meta_range_fetch && !*range_used) {
            // Nodes are hash-partitioned, so no provider holds a whole
            // path: the broadcast is still one logical round trip.
            Some(q) => {
                *range_used = true;
                for i in 0..self.meta_providers.len() {
                    self.get_range(aw, self.meta_providers[i], q, env);
                }
            }
            None => {
                for (target, keys) in group_by_partition(missing, |k| k, &self.meta_providers) {
                    let req = self.reqs.issue(aw, ReqRole::MetaGet);
                    env.send(target, Msg::GetMeta { req, keys });
                }
            }
        }
        false
    }

    /// Ask `target` for its slice of a bulk range query, capped at
    /// `MAX_NODES` nodes a reply; a truncated reply continues via cursor.
    fn get_range(&mut self, aw: &mut Awaited, target: NodeId, q: RangeQuery, env: &mut dyn Env) {
        const MAX_NODES: u32 = 512;
        let req = self.reqs.issue(aw, ReqRole::MetaRange { target, q });
        let (blob, version, query, after) = (q.blob, q.version, q.query, q.after);
        let max_nodes = MAX_NODES;
        env.send(target, Msg::GetMetaRange { req, blob, version, query, after, max_nodes });
    }

    /// Take a metadata reply into a session's descent: a `GetMeta` answer
    /// feeds the descent and the cache, and `false` if it lacks a node —
    /// the metadata is unavailable. A bulk answer fills only the cache,
    /// replacing any cached copy of a node because repair patches a leaf's
    /// replicas in place, and asks its provider for the rest if truncated.
    fn meta_reply(
        &mut self,
        aw: &mut Awaited,
        d: &mut impl Descent,
        role: ReqRole,
        reply: Msg,
        env: &mut dyn Env,
    ) -> bool {
        match (reply, role) {
            (Msg::GetMetaOk { nodes, .. }, _) => {
                for (k, n) in nodes {
                    let Some(node) = n else { return false };
                    d.supply(k, &node);
                    self.meta_cache.insert(k, node);
                }
            }
            (Msg::GetMetaRangeOk { nodes, more, .. }, ReqRole::MetaRange { target, q }) => {
                let last = nodes.last().map(|(k, _)| k.range);
                for (k, n) in nodes {
                    self.meta_cache.insert(k, n);
                }
                if let (true, Some(after)) = (more, last) {
                    self.get_range(aw, target, RangeQuery { after: Some(after), ..q }, env);
                }
            }
            _ => return false,
        }
        true
    }

    /// The metadata/commit tail of a draining write stream, once no
    /// request is awaited: build (or keep resolving) the tree, then store
    /// nodes.
    fn wstream_meta_step(
        &mut self,
        aw: &mut Awaited,
        w: &mut WriteStreamSess,
        env: &mut dyn Env,
    ) -> StreamStep {
        if !aw.reqs.is_empty() {
            return StreamStep::Park;
        }
        let builder = w.builder.get_or_insert_with(|| {
            let t = w.ticket.as_ref().expect("ticket set");
            let (interval, pending) = (t.interval(), t.pending.clone());
            TreeBuilder::new(w.blob, t.version, interval, t.page_size, t.new_size, t.base, pending)
        });
        if !self.descend(aw, builder, &mut w.range_used, env) {
            w.phase = WStreamPhase::MetaResolve;
            return StreamStep::Park;
        }
        let (nodes, root) = builder.build(&w.chunks);
        w.root = Some(root);
        for (k, n) in &nodes {
            self.meta_cache.insert(*k, n.clone());
        }
        for (target, nodes) in group_by_partition(nodes, |(k, _)| k, &self.meta_providers) {
            let req = self.reqs.issue(aw, ReqRole::Plain);
            env.send(target, Msg::PutMeta { req, nodes });
        }
        w.phase = WStreamPhase::MetaPut;
        StreamStep::Park
    }

    /// One write-stream protocol step.
    fn wstream_step(
        &mut self,
        sess: &mut Session,
        role: ReqRole,
        msg: Msg,
        env: &mut dyn Env,
    ) -> StreamStep {
        let (client, parked) = (self.id, sess.waiter.is_some());
        let aw = &mut sess.awaited;
        let SessKind::WriteStream(w) = &mut sess.kind else { unreachable!("a write stream") };
        match (w.phase, msg) {
            (WStreamPhase::Ticket, Msg::TicketOk { ticket, .. }) => {
                let req = self.reqs.issue(aw, ReqRole::Plain);
                let alloc = Msg::Alloc {
                    req,
                    client,
                    chunks: ticket.interval().len as u32,
                    replication: ticket.replication,
                    chunk_size: ticket.page_size,
                };
                env.send(self.pman, alloc);
                w.ticket = Some(ticket);
                w.phase = WStreamPhase::Alloc;
                StreamStep::Park
            }
            (WStreamPhase::Ticket, Msg::TicketErr { err, .. }) => StreamStep::Finish(Err(err), 0),

            (WStreamPhase::Alloc, Msg::AllocOk { placement, .. }) => {
                let ticket = w.ticket.as_ref().expect("ticket set");
                let interval = ticket.interval();
                debug_assert_eq!(placement.len() as u64, interval.len);
                let page = ticket.page_size;
                w.chunks = placement
                    .iter()
                    .enumerate()
                    .map(|(i, replicas)| ChunkDescriptor {
                        key: ChunkKey {
                            blob: w.blob,
                            version: ticket.version,
                            page: interval.start + i as u64,
                        },
                        replicas: replicas.clone(),
                        size: page,
                    })
                    .collect();
                w.page_acks = vec![0; w.chunks.len()];
                if let Some(data) = w.data.take() {
                    // One-shot write: the whole payload is in hand, so
                    // every page is queued now (zero-copy slices) and the
                    // session drains as if fed and committed in one go.
                    for i in 0..w.chunks.len() as u64 {
                        w.enqueue(data.slice(i * page, page));
                    }
                    w.phase = WStreamPhase::Draining;
                    self.wstream_pump(aw, w, env);
                    return StreamStep::Park;
                }
                w.phase = WStreamPhase::Streaming;
                let opened = OpOutput::WriteStreamOpened {
                    stream: aw.sid,
                    version: ticket.version,
                    offset: ticket.offset,
                    len: ticket.len,
                    page_size: page,
                };
                StreamStep::Complete(Ok(opened), 0)
            }
            (WStreamPhase::Alloc, Msg::AllocErr { available, .. }) => {
                let requested = w.ticket.as_ref().map_or(0, |t| t.interval().len as u32);
                StreamStep::Finish(Err(BlobError::AllocationFailed { requested, available }), 0)
            }

            (WStreamPhase::Streaming | WStreamPhase::Draining, Msg::PutChunkOk { .. }) => {
                if let ReqRole::ChunkPut { items, .. } = role {
                    let first_page = w.chunks.first().map_or(0, |d| d.key.page);
                    for (key, data, _) in &items {
                        let owed = &mut w.page_acks[(key.page - first_page) as usize];
                        if *owed > 0 {
                            *owed -= 1;
                            if *owed == 0 {
                                w.unacked_bytes = w.unacked_bytes.saturating_sub(data.len());
                            }
                        }
                    }
                }
                self.wstream_pump(aw, w, env);
                if w.phase == WStreamPhase::Draining {
                    return self.wstream_meta_step(aw, w, env);
                }
                let window = self.cfg.chunk_window;
                match &sess.waiter {
                    Some(wt) if wt.kind == WaiterKind::Feed && w.feed_ready(window) => {
                        StreamStep::Complete(Ok(OpOutput::Fed { stream: aw.sid }), wt.bytes)
                    }
                    _ => StreamStep::Park,
                }
            }
            (WStreamPhase::Streaming | WStreamPhase::Draining, Msg::PutChunkErr { err, .. }) => {
                let retry = self.cfg.retry;
                if err == ChunkErr::Blocked || !retry.enabled() {
                    return fail(parked, chunk_err(err, client));
                }
                let ReqRole::ChunkPut { target, items, attempts, .. } = role else {
                    return fail(parked, chunk_err(err, client));
                };
                if err != ChunkErr::Full && attempts < retry.max_attempts {
                    env.incr("client.rpc_retries", 1);
                    let due = env.now() + retry.backoff(attempts);
                    let (attempts, sent) = (attempts + 1, false);
                    self.reqs.issue(aw, ReqRole::ChunkPut { target, items, attempts, due, sent });
                    self.arm(env, due);
                    return StreamStep::Park;
                }
                if w.reallocs < retry.max_reallocs {
                    w.reallocs += 1;
                    env.incr("client.reallocs", 1);
                    let (chunks, chunk_size) = (items.len() as u32, w.page_size());
                    let req = self.reqs.issue(aw, ReqRole::ReAlloc { failed: target, items });
                    let alloc = Msg::Alloc { req, client, chunks, replication: 1, chunk_size };
                    env.send(self.pman, alloc);
                    return StreamStep::Park;
                }
                match items.first() {
                    Some((key, ..)) => fail(parked, BlobError::ChunkUnavailable(*key)),
                    None => fail(parked, chunk_err(err, client)),
                }
            }
            (WStreamPhase::Streaming | WStreamPhase::Draining, Msg::AllocOk { placement, .. }) => {
                // Replacement placements for chunk stores whose target
                // died: patch the descriptor table, re-send each chunk.
                let ReqRole::ReAlloc { failed, items } = role else {
                    return fail(parked, BlobError::Protocol("unexpected write-stream reply"));
                };
                debug_assert_eq!(placement.len(), items.len());
                let mut jobs: Vec<(NodeId, Vec<PutItem>)> = Vec::new();
                for (item, replicas) in items.into_iter().zip(placement) {
                    let key = item.0;
                    let Some(&new_target) = replicas.first() else {
                        return fail(parked, BlobError::ChunkUnavailable(key));
                    };
                    if let Some(desc) = w.chunks.iter_mut().find(|d| d.key == key) {
                        for r in &mut desc.replicas {
                            if *r == failed {
                                *r = new_target;
                            }
                        }
                    }
                    match jobs.iter_mut().find(|(t, _)| *t == new_target) {
                        Some((_, batch)) => batch.push(item),
                        None => jobs.push((new_target, vec![item])),
                    }
                }
                for (target, batch) in jobs {
                    self.put_chunks(aw, target, batch, env);
                }
                StreamStep::Park
            }
            (WStreamPhase::Streaming | WStreamPhase::Draining, Msg::AllocErr { available, .. }) => {
                if let ReqRole::ReAlloc { items, .. } = role {
                    if let Some((key, ..)) = items.first() {
                        return fail(parked, BlobError::ChunkUnavailable(*key));
                    }
                }
                fail(parked, BlobError::AllocationFailed { requested: 0, available })
            }

            (
                WStreamPhase::MetaResolve,
                reply @ (Msg::GetMetaOk { .. } | Msg::GetMetaRangeOk { .. }),
            ) => {
                let builder = w.builder.as_mut().expect("builder set");
                if !self.meta_reply(aw, builder, role, reply, env) {
                    return StreamStep::Finish(Err(BlobError::MetaUnavailable), 0);
                }
                self.wstream_meta_step(aw, w, env)
            }
            (WStreamPhase::MetaPut, Msg::PutMetaOk { .. }) => {
                if !aw.reqs.is_empty() {
                    return StreamStep::Park;
                }
                let ticket = w.ticket.as_ref().expect("ticket set");
                let req = self.reqs.issue(aw, ReqRole::Plain);
                let commit = Msg::Commit {
                    req,
                    client,
                    blob: w.blob,
                    version: ticket.version,
                    root: w.root.expect("root set in meta phase"),
                    size: ticket.new_size,
                };
                env.send(self.vman, commit);
                w.phase = WStreamPhase::Commit;
                StreamStep::Park
            }
            (WStreamPhase::Commit, Msg::CommitOk { version, .. }) => {
                let ticket = w.ticket.as_ref().expect("ticket set");
                let (offset, len) = (ticket.offset, ticket.len);
                let written = OpOutput::Written { blob: w.blob, version, offset, len, crc: w.crc };
                StreamStep::Finish(Ok(written), len)
            }
            (WStreamPhase::Commit, Msg::TicketErr { err, .. }) => StreamStep::Finish(Err(err), 0),

            (_, _) => fail(parked, BlobError::Protocol("unexpected write-stream reply")),
        }
    }

    // ---- read session ------------------------------------------------

    /// Start the next batch of a read session whose plan is resolved: at
    /// most `chunk_window` pages for a stream pull, the whole plan for a
    /// one-shot read. Holes fill in locally; chunk fetches are grouped per
    /// provider and issued under `chunk_window`, the rest queueing for
    /// refill-on-reply.
    fn rstream_fetch(&mut self, sess: &mut Session, env: &mut dyn Env) -> StreamStep {
        let whole = sess.whole_op();
        let aw = &mut sess.awaited;
        let SessKind::ReadStream(r) = &mut sess.kind else { unreachable!("a read stream") };
        let info = r.info.as_ref().expect("info set");
        let (page, version) = (info.page_size, info.version);
        // Past the last page: deliver eof, auto-closing the stream.
        if r.sources.len() == 0 {
            let out = if !whole {
                OpOutput::ReadChunk { stream: aw.sid, segments: Vec::new(), eof: true }
            } else if self.cfg.materialize_zeros {
                OpOutput::Read { data: Payload::Data(Bytes::new()), version }
            } else {
                OpOutput::Read { data: Payload::Sim(0), version }
            };
            return StreamStep::Finish(Ok(out), 0);
        }
        let remaining = r.sources.len();
        // Besides the pipelining window, cap one streamed window at
        // 16 MiB of pages: whoever pulled it holds every page of the
        // window until its cursor has passed them, so this is what bounds
        // a stream's resident bytes under huge pages or `chunk_window` 0.
        const BATCH_BYTES_CAP: u64 = 16 << 20;
        let page_cap = ((BATCH_BYTES_CAP / page.max(1)) as usize).max(1);
        let batch = if whole {
            remaining
        } else if self.cfg.chunk_window == 0 {
            remaining.min(page_cap)
        } else {
            self.cfg.chunk_window.min(remaining).min(page_cap)
        };
        r.batch_base = r.cursor;
        r.parts = (0..batch).map(|_| None).collect();
        r.cursor += batch;
        // Pick a replica per chunk (one RNG draw each, in page order) and
        // group the fetches by chosen provider in first-seen order, so the
        // schedule stays deterministic. A provider serving several of the
        // batch's chunks gets them in one batched round trip.
        let mut groups: Vec<Vec<ChunkFetch>> = Vec::new();
        for (i, source) in r.sources.by_ref().take(batch).enumerate() {
            match source {
                // Holes are size-only placeholders; assembly turns them
                // into real zero bytes when mixed with real-data chunks.
                PageSource::Hole { .. } => r.parts[i] = Some(Payload::Sim(page)),
                PageSource::Chunk(desc) if desc.replicas.is_empty() => {
                    // Tombstone leaf from stalled-write recovery: zeros.
                    r.parts[i] = Some(Payload::Sim(page));
                }
                PageSource::Chunk(desc) => {
                    let first = env.rng().random_range(0..desc.replicas.len());
                    let f = ChunkFetch { idx: i, desc, first, attempts: 1, refreshed: false };
                    match groups.iter_mut().find(|g| g[0].target() == f.target()) {
                        Some(group) => group.push(f),
                        None => groups.push(vec![f]),
                    }
                }
            }
        }
        if groups.is_empty() {
            return self.rstream_batch_done(sess, env);
        }
        groups.reverse(); // pop() = next group, in first-seen order
        r.pending_gets = groups;
        self.rstream_refill(aw, r, env);
        r.phase = RStreamPhase::Fetching;
        StreamStep::Park
    }

    /// Send queued provider groups while the window has room. A fetch
    /// that fails walks on as a batch of one, taking the window slot a
    /// refill would otherwise use.
    fn rstream_refill(&mut self, aw: &mut Awaited, r: &mut ReadStreamSess, env: &mut dyn Env) {
        let slots = if self.cfg.chunk_window == 0 { usize::MAX } else { self.cfg.chunk_window };
        while aw.reqs.len() < slots {
            let Some(fetches) = r.pending_gets.pop() else { return };
            self.get_chunks(aw, fetches, env);
        }
    }

    /// Send chunk fetches whose walks are at the same replica as one
    /// `GetChunkBatch` round trip under one deadline: every chunk fetch
    /// the client sends goes out here.
    fn get_chunks(&mut self, aw: &mut Awaited, fetches: Vec<ChunkFetch>, env: &mut dyn Env) {
        let to = fetches[0].target();
        let keys = fetches.iter().map(|f| f.desc.key).collect();
        let due = env.now() + self.cfg.chunk_timeout;
        let req = self.reqs.issue(aw, ReqRole::ChunkGet(fetches, due));
        env.send(to, Msg::GetChunkBatch { req, client: self.id, keys });
        self.arm(env, due);
    }

    /// Walk a failed chunk fetch on to the next replica or — once every
    /// replica was tried, and unless the fetch already follows a refresh
    /// — re-fetch the chunk's leaf in case a replication repair moved it.
    /// `Err(key)` means the chunk is unavailable and the read must fail.
    fn failover(
        &mut self,
        aw: &mut Awaited,
        f: ChunkFetch,
        env: &mut dyn Env,
    ) -> Result<(), ChunkKey> {
        if f.attempts < f.desc.replicas.len() {
            env.incr("client.replica_walks", 1);
            self.get_chunks(aw, vec![ChunkFetch { attempts: f.attempts + 1, ..f }], env);
            return Ok(());
        }
        if self.cfg.retry.enabled() && !f.refreshed {
            // Degraded read: every known replica failed, but a replication
            // repair may have patched the leaf with fresh replicas since
            // this descent cached it. Re-fetch the leaf directly
            // (bypassing the cache) and retry against whatever placement
            // it records.
            let key = NodeKey {
                blob: f.desc.key.blob,
                version: f.desc.key.version,
                range: NodeRange::new(f.desc.key.page, 1),
            };
            let owner = self.meta_providers[partition(&key, self.meta_providers.len())];
            let req = self.reqs.issue(aw, ReqRole::LeafRefresh { idx: f.idx, desc: f.desc });
            env.send(owner, Msg::GetMeta { req, keys: vec![key] });
            return Ok(());
        }
        Err(f.desc.key)
    }

    /// The open-time metadata descent of a read session, once no request
    /// is awaited: resolve the whole chunk plan (an O(#pages) descriptor
    /// table, no data), then open.
    fn rstream_meta_step(&mut self, sess: &mut Session, env: &mut dyn Env) -> StreamStep {
        let aw = &mut sess.awaited;
        if !aw.reqs.is_empty() {
            return StreamStep::Park;
        }
        let SessKind::ReadStream(r) = &mut sess.kind else { unreachable!("a read stream") };
        if !self.descend(aw, r.reader.as_mut().expect("reader set"), &mut r.range_used, env) {
            r.phase = RStreamPhase::Meta;
            return StreamStep::Park;
        }
        let reader = r.reader.take().expect("reader set");
        r.sources = reader.into_sources().into_iter();
        self.rstream_opened(sess, env)
    }

    /// The chunk plan is resolved. A stream reports itself open and idles
    /// until the first pull; a one-shot read — the operation itself is
    /// what is parked — pulls its whole plan at once.
    fn rstream_opened(&mut self, sess: &mut Session, env: &mut dyn Env) -> StreamStep {
        if sess.whole_op() {
            return self.rstream_fetch(sess, env);
        }
        let SessKind::ReadStream(r) = &mut sess.kind else { unreachable!("a read stream") };
        r.phase = RStreamPhase::Idle;
        let info = r.info.as_ref().expect("info set");
        let (stream, version, len) = (sess.awaited.sid, info.version, r.len);
        let opened = OpOutput::ReadStreamOpened { stream, version, len, page_size: info.page_size };
        StreamStep::Complete(Ok(opened), 0)
    }

    /// After absorbing one chunk reply: once the batch is whole, deliver
    /// the requested byte range of its page row — ending the session if
    /// this was the final batch. A stream pull gets the pages themselves
    /// (a rope of views, nothing copied); a one-shot read, which owes its
    /// caller one contiguous buffer, gets them joined or copied once.
    fn rstream_batch_done(&self, sess: &mut Session, env: &mut dyn Env) -> StreamStep {
        if !sess.awaited.reqs.is_empty() {
            return StreamStep::Park;
        }
        let (sid, whole) = (sess.awaited.sid, sess.whole_op());
        let SessKind::ReadStream(r) = &mut sess.kind else { unreachable!("a read stream") };
        let info = r.info.as_ref().expect("info set");
        let (page, version) = (info.page_size, info.version);
        let base = (r.page0 + r.batch_base as u64) * page;
        let lo = r.offset.max(base);
        let hi = (r.offset + r.len).min(base + r.parts.len() as u64 * page);
        let skip = lo - base;
        let total = hi.saturating_sub(lo);
        let eof = r.sources.len() == 0;
        let parts = std::mem::take(&mut r.parts);
        // Real bytes iff some part carries real bytes or the deployment
        // stores real data; holes become zero bytes then.
        let real = self.cfg.materialize_zeros
            || parts.iter().flatten().any(|p| matches!(p, Payload::Data(_)));
        // The batch's pages cut down to the requested range: each part
        // with the sub-range `[from, from + take)` of its page that the
        // read covers (only the first and last are ever trimmed).
        let mut remaining = total;
        let mut from = skip;
        let trimmed = parts.iter().flatten().map_while(move |part| {
            let take = (page - from).min(remaining);
            let cut = (take > 0).then_some((part, from as usize, take as usize));
            remaining -= take;
            from = 0;
            cut
        });
        let out = if !whole {
            let segments = if real {
                rope(trimmed)
            } else if total > 0 {
                vec![Payload::Sim(total)]
            } else {
                Vec::new()
            };
            OpOutput::ReadChunk { stream: sid, segments, eof }
        } else if !real {
            OpOutput::Read { data: Payload::Sim(total), version }
        } else {
            // Pages stored whole over their cuts, each the next view of
            // one buffer (one page always is), are returned as that view.
            let mut views = trimmed.clone().map(|(part, from, take)| match part {
                Payload::Data(b) if from + take <= b.len() => Some(b.slice(from..from + take)),
                _ => None,
            });
            let first = views.next().flatten();
            let joined = first.and_then(|v| views.try_fold(v, |v, w| v.try_join(&w?)));
            let data = joined.unwrap_or_else(|| {
                let (buf, copied) = assemble(trimmed, total as usize);
                env.incr("client.read_copied_bytes", copied);
                buf
            });
            OpOutput::Read { data: Payload::Data(data), version }
        };
        if eof {
            StreamStep::Finish(Ok(out), total)
        } else {
            r.phase = RStreamPhase::Idle;
            StreamStep::Complete(Ok(out), total)
        }
    }

    /// One read-stream protocol step.
    fn rstream_step(
        &mut self,
        sess: &mut Session,
        role: ReqRole,
        msg: Msg,
        env: &mut dyn Env,
    ) -> StreamStep {
        let (client, parked) = (self.id, sess.waiter.is_some());
        let aw = &mut sess.awaited;
        let SessKind::ReadStream(r) = &mut sess.kind else { unreachable!("a read stream") };
        match (r.phase, msg, role) {
            (RStreamPhase::Version, Msg::GetVersionOk { info, .. }, _) => {
                if r.pinned {
                    self.versions.insert((r.blob, info.version), info);
                }
                if r.len == 0 {
                    // Nothing to resolve: the (empty) plan is complete.
                    r.info = Some(info);
                    return self.rstream_opened(sess, env);
                }
                if r.offset >= info.size {
                    let (offset, len, size) = (r.offset, r.len, info.size);
                    return StreamStep::Finish(Err(BlobError::OutOfBounds { offset, len, size }), 0);
                }
                r.len = r.len.min(info.size - r.offset);
                r.page0 = r.offset / info.page_size;
                let last = (r.offset + r.len - 1) / info.page_size;
                let interval = PageInterval::new(r.page0, last - r.page0 + 1);
                r.reader = Some(TreeReader::new(r.blob, info.root, interval));
                r.info = Some(info);
                self.rstream_meta_step(sess, env)
            }
            (RStreamPhase::Version, Msg::GetVersionErr { err, .. }, _) => {
                StreamStep::Finish(Err(err), 0)
            }

            (
                RStreamPhase::Meta,
                reply @ (Msg::GetMetaOk { .. } | Msg::GetMetaRangeOk { .. }),
                role,
            ) => {
                let reader = r.reader.as_mut().expect("reader set");
                if !self.meta_reply(aw, reader, role, reply, env) {
                    return StreamStep::Finish(Err(BlobError::MetaUnavailable), 0);
                }
                self.rstream_meta_step(sess, env)
            }

            (
                RStreamPhase::Fetching,
                reply @ (Msg::GetChunkBatchOk { .. } | Msg::GetChunkErr { .. }),
                ReqRole::ChunkGet(fetches, _),
            ) => {
                // A whole-request refusal or an unanswered deadline fails
                // every fetch; a reply, in request order, only its misses.
                let mut items = match reply {
                    Msg::GetChunkBatchOk { items, .. } => items.into_iter(),
                    Msg::GetChunkErr { err: ChunkErr::Blocked, .. } => {
                        return fail(parked, BlobError::Blocked(client))
                    }
                    _ => Vec::new().into_iter(),
                };
                for f in fetches {
                    match items.next() {
                        Some((key, Ok(data))) if key == f.desc.key => r.parts[f.idx] = Some(data),
                        _ => {
                            if let Err(key) = self.failover(aw, f, env) {
                                return fail(parked, BlobError::ChunkUnavailable(key));
                            }
                        }
                    }
                }
                self.rstream_refill(aw, r, env);
                self.rstream_batch_done(sess, env)
            }
            (
                RStreamPhase::Fetching,
                Msg::GetMetaOk { nodes, .. },
                ReqRole::LeafRefresh { idx, desc },
            ) => {
                let mut fresh = None;
                for (k, n) in nodes {
                    if let Some(MetaNode::Leaf { chunk }) = &n {
                        fresh = Some(chunk.clone());
                        self.meta_cache.insert(k, n.expect("checked Some"));
                    }
                }
                match fresh {
                    Some(chunk) if !chunk.replicas.is_empty() => {
                        let first = env.rng().random_range(0..chunk.replicas.len());
                        let f =
                            ChunkFetch { idx, desc: chunk, first, attempts: 1, refreshed: true };
                        self.get_chunks(aw, vec![f], env);
                        StreamStep::Park
                    }
                    _ => fail(parked, BlobError::ChunkUnavailable(desc.key)),
                }
            }

            (_, _, _) => fail(parked, BlobError::Protocol("unexpected read-stream reply")),
        }
    }
}

/// The reply to a one-round-trip metadata operation (create, snapshot,
/// decommission) completes it.
fn simple_step(kind: &SessKind, msg: Msg) -> StreamStep {
    let result = match (kind, msg) {
        (SessKind::Create, Msg::CreateBlobOk { blob, .. }) => Ok(OpOutput::Created(blob)),
        (SessKind::Create, _) => Err(BlobError::Protocol("unexpected reply to create")),
        (SessKind::Snapshot(blob), Msg::SnapshotVersionOk { version, .. }) => {
            Ok(OpOutput::Snapshotted { blob: *blob, version })
        }
        (SessKind::Snapshot(_), Msg::SnapshotVersionErr { err, .. }) => Err(err),
        (SessKind::Snapshot(_), _) => Err(BlobError::Protocol("unexpected reply to snapshot")),
        (SessKind::Decommission(blob), Msg::DecommissionBlobOk { ok, .. }) => {
            Ok(OpOutput::Decommissioned { blob: *blob, ok })
        }
        (SessKind::Decommission(_), _) => {
            Err(BlobError::Protocol("unexpected reply to decommission"))
        }
        (SessKind::WriteStream(_) | SessKind::ReadStream(_), _) => {
            unreachable!("write and read sessions run their own machines")
        }
    };
    StreamStep::Finish(result, 0)
}

/// A zero-duration completion (sub-ops that finish synchronously).
fn instant(tag: u64, now: SimTime, result: Result<OpOutput, BlobError>) -> Completion {
    Completion { tag, result, started: now, finished: now, bytes: 0 }
}

/// The contiguous buffer of a one-shot read whose pages do not join
/// into one view: allocated once at its final size, each page's bytes
/// copied once to their place, holes zero-filled in place. A chunk
/// shorter than its page reads as zero-extended to the page: what its
/// writer declared with [`ClientOp::FeedZeros`] is filled in here, in
/// place. Returns the buffer and how many bytes were copied into it.
fn assemble<'a>(
    trimmed: impl Iterator<Item = (&'a Payload, usize, usize)>,
    total: usize,
) -> (Bytes, u64) {
    let mut buf = Vec::with_capacity(total);
    let mut copied = 0;
    for (part, from, take) in trimmed {
        let end = buf.len() + take;
        if let Payload::Data(b) = part {
            let src = &b[from.min(b.len())..(from + take).min(b.len())];
            buf.extend_from_slice(src);
            copied += src.len() as u64;
        }
        buf.resize(end, 0);
    }
    (Bytes::from(buf), copied)
}

/// The rope of a real-data stream pull: the fetched pages themselves,
/// as views trimmed to the requested range, and a zero segment per
/// hole. A chunk shorter than its page reads as zero-extended to the
/// page: the part of the range past its stored length is a zero
/// segment of its own.
fn rope<'a>(trimmed: impl Iterator<Item = (&'a Payload, usize, usize)>) -> Vec<Payload> {
    let mut segments = Vec::new();
    for (part, from, take) in trimmed {
        let mut got = 0;
        if let Payload::Data(b) = part {
            let view = b.slice(from.min(b.len())..(from + take).min(b.len()));
            got = view.len();
            if got > 0 {
                segments.push(Payload::Data(view));
            }
        }
        if got < take {
            segments.push(Payload::Data(Bytes::from(vec![0u8; take - got])));
        }
    }
    segments
}

/// What a stream state machine decided after absorbing one message.
enum StreamStep {
    /// Keep waiting; nothing completes.
    Park,
    /// Complete the parked sub-operation; the stream stays open.
    Complete(Result<OpOutput, BlobError>, u64),
    /// Complete the parked sub-operation and tear the stream down
    /// (commit acknowledged, eof delivered, or a fatal error with a
    /// sub-operation waiting to receive it).
    Finish(Result<OpOutput, BlobError>, u64),
    /// Fatal error with no sub-operation parked: remember it; the next
    /// sub-operation delivers it and reaps the stream.
    Fatal(BlobError),
}

/// Route a fatal session error: to the parked (sub-)operation if one is
/// waiting, stored for the next sub-operation otherwise.
fn fail(parked: bool, err: BlobError) -> StreamStep {
    if parked { StreamStep::Finish(Err(err), 0) } else { StreamStep::Fatal(err) }
}

/// Extract the correlation id of a reply message.
fn req_of(msg: &Msg) -> Option<u64> {
    Some(match msg {
        Msg::AllocOk { req, .. }
        | Msg::AllocErr { req, .. }
        | Msg::Directory { req, .. }
        | Msg::PutChunkOk { req }
        | Msg::PutChunkErr { req, .. }
        | Msg::GetChunkErr { req, .. }
        | Msg::GetChunkBatchOk { req, .. }
        | Msg::GetMetaRangeOk { req, .. }
        | Msg::DeleteChunkOk { req, .. }
        | Msg::PutMetaOk { req }
        | Msg::GetMetaOk { req, .. }
        | Msg::DeleteMetaOk { req, .. }
        | Msg::CreateBlobOk { req, .. }
        | Msg::SnapshotVersionOk { req, .. }
        | Msg::SnapshotVersionErr { req, .. }
        | Msg::DecommissionBlobOk { req, .. }
        | Msg::TicketOk { req, .. }
        | Msg::TicketErr { req, .. }
        | Msg::CommitOk { req, .. }
        | Msg::GetVersionOk { req, .. }
        | Msg::GetVersionErr { req, .. } => *req,
        _ => return None,
    })
}

fn chunk_err(err: ChunkErr, client: ClientId) -> BlobError {
    match err {
        ChunkErr::Blocked => BlobError::Blocked(client),
        ChunkErr::Full => BlobError::ProviderFull,
        ChunkErr::NotFound => BlobError::Protocol("put got NotFound"),
        ChunkErr::Unreachable => BlobError::Timeout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{partition, BaseSnapshot, MetaNode, MetaStore, NodeRef};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    struct TestEnv {
        now: SimTime,
        sent: Vec<(NodeId, Msg)>,
        /// Every timer armed, as `(delay, token)`.
        timers: Vec<(SimDuration, u64)>,
        /// The armed timers not yet fired, as `(due, token)`.
        pending: Vec<(SimTime, u64)>,
        rng: SmallRng,
        reg: sads_sim::Registry,
    }

    impl TestEnv {
        fn new() -> Self {
            TestEnv {
                now: SimTime::ZERO,
                sent: vec![],
                timers: vec![],
                pending: vec![],
                rng: SmallRng::seed_from_u64(0),
                reg: sads_sim::Registry::new(),
            }
        }
        fn take_sent(&mut self) -> Vec<(NodeId, Msg)> {
            std::mem::take(&mut self.sent)
        }
        /// Advance the clock to the client's earliest pending deadline
        /// timer and fire it.
        fn fire_deadline(&mut self, c: &mut ClientCore) -> Vec<Completion> {
            let timers = self.pending.iter().enumerate();
            let (i, &(due, token)) = timers.min_by_key(|(_, t)| t.0).expect("a timer armed");
            self.pending.remove(i);
            assert!(ClientCore::owns_timer(token));
            self.now = self.now.max(due);
            c.handle_timer(self, token)
        }
    }

    impl Env for TestEnv {
        fn telemetry(&self) -> &sads_sim::Registry {
            &self.reg
        }
        fn id(&self) -> NodeId {
            NodeId(0)
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn send(&mut self, to: NodeId, msg: Msg) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, delay: SimDuration, token: u64) {
            self.timers.push((delay, token));
            self.pending.push((self.now + delay, token));
        }
        fn rng(&mut self) -> &mut SmallRng {
            &mut self.rng
        }
        fn spawn(&mut self, _: Box<dyn crate::services::Service>) -> NodeId {
            unreachable!("no node starts nodes in this test")
        }
        fn power_off(&mut self, _: NodeId) {
            unreachable!("no node powers nodes off in this test")
        }
    }

    const VMAN: NodeId = NodeId(1);
    const PMAN: NodeId = NodeId(2);
    const META: NodeId = NodeId(3);
    const PROV_A: NodeId = NodeId(10);
    const PROV_B: NodeId = NodeId(11);

    fn core() -> ClientCore {
        ClientCore::new(ClientId(7), VMAN, PMAN, vec![META], ClientConfig::default())
    }

    /// Which entry op drives the (one) write or read session: the one-shot
    /// `Write`/`Read`, or the stream sub-operations. The scripted fault
    /// tests below run through both, so the retry/failover arms are proven
    /// on the path the S3 gateway uses as well as the one the simulator
    /// uses.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Entry {
        OneShot,
        Stream,
    }
    const ENTRIES: [Entry; 2] = [Entry::OneShot, Entry::Stream];

    fn start_write(c: &mut ClientCore, env: &mut TestEnv, entry: Entry, data: Payload, tag: u64) {
        let (blob, kind) = (BlobId(5), WriteKind::At(0));
        let op = match entry {
            Entry::OneShot => ClientOp::Write { blob, kind, data },
            Entry::Stream => ClientOp::OpenWriteStream { blob, kind, len: data.len() },
        };
        assert!(c.start_op(env, op, tag).is_empty());
    }

    fn start_read(c: &mut ClientCore, env: &mut TestEnv, entry: Entry, len: u64, tag: u64) {
        let (blob, version, offset) = (BlobId(5), None, 0);
        let op = match entry {
            Entry::OneShot => ClientOp::Read { blob, version, offset, len },
            Entry::Stream => ClientOp::OpenReadStream { blob, version, offset, len },
        };
        assert!(c.start_op(env, op, tag).is_empty());
    }

    /// The resolved-plan step of a read: the one-shot form goes straight
    /// on to fetching (nothing completes), the stream form reports itself
    /// open and fetches on the first pull.
    fn after_plan(c: &mut ClientCore, env: &mut TestEnv, entry: Entry, done: Vec<Completion>) {
        match entry {
            Entry::OneShot => assert!(done.is_empty()),
            Entry::Stream => {
                let Ok(OpOutput::ReadStreamOpened { stream, .. }) = done[0].result else {
                    panic!("{:?}", done[0].result)
                };
                assert!(c.start_op(env, ClientOp::ReadStreamNext { stream }, 9).is_empty());
            }
        }
    }

    /// Bytes a finished read delivered, whichever form delivered them.
    fn read_len(done: &[Completion]) -> u64 {
        assert_eq!(done.len(), 1);
        match &done[0].result {
            Ok(OpOutput::Read { data, .. }) => data.len(),
            Ok(OpOutput::ReadChunk { segments, eof: true, .. }) => {
                segments.iter().map(Payload::len).sum()
            }
            other => panic!("{other:?}"),
        }
    }

    /// A provider's reply to a one-chunk fetch of `key`: a `page`-byte
    /// chunk.
    fn got(req: u64, key: ChunkKey, page: u64) -> Msg {
        Msg::GetChunkBatchOk { req, items: vec![(key, Ok(Payload::Sim(page)))] }
    }

    fn ticket(pages: u64, page: u64, replication: u32) -> WriteTicket {
        WriteTicket {
            blob: BlobId(5),
            version: VersionId(1),
            offset: 0,
            len: pages * page,
            page_size: page,
            replication,
            new_size: pages * page,
            base: crate::meta::BaseSnapshot { version: VersionId(0), size: 0, root: None },
            pending: vec![],
        }
    }

    /// A scripted healthy deployment: answer everything the client sent,
    /// in order, until it falls silent. Returns the wire transcript —
    /// every `(target, message)` with payload bytes spelled out — and the
    /// completions. `nodes` is the stored tree reads resolve against.
    fn serve(
        c: &mut ClientCore,
        env: &mut TestEnv,
        pages: u64,
        page: u64,
        nodes: &[(NodeKey, MetaNode)],
        root: Option<NodeRef>,
    ) -> (Vec<String>, Vec<Completion>) {
        let (mut wire, mut done) = (Vec::new(), Vec::new());
        loop {
            let sent = env.take_sent();
            if sent.is_empty() {
                return (wire, done);
            }
            for (to, msg) in sent {
                let mut line = format!("{to:?} {msg:?}");
                let reply = match msg {
                    Msg::Ticket { req, .. } => Msg::TicketOk { req, ticket: ticket(pages, page, 2) },
                    Msg::Alloc { req, chunks, .. } => Msg::AllocOk {
                        req,
                        placement: (0..chunks)
                            .map(|i| if i % 2 == 0 { vec![PROV_A, PROV_B] } else { vec![PROV_B] })
                            .collect(),
                    },
                    Msg::PutChunkBatch { req, items, .. } => {
                        for (_, data, crc) in &items {
                            assert_eq!(*crc, payload_crc(data), "envelope of {line}");
                            line += &format!(" {:?}", data.bytes());
                        }
                        Msg::PutChunkOk { req }
                    }
                    Msg::PutMeta { req, .. } => Msg::PutMetaOk { req },
                    Msg::Commit { req, version, .. } => Msg::CommitOk { req, version },
                    Msg::GetVersion { req, .. } => Msg::GetVersionOk {
                        req,
                        info: VersionInfo {
                            version: VersionId(1),
                            size: pages * page,
                            page_size: page,
                            root,
                        },
                    },
                    Msg::GetMetaRange { req, .. } => {
                        Msg::GetMetaRangeOk { req, nodes: nodes.to_vec(), more: false }
                    }
                    Msg::GetChunkBatch { req, keys, .. } => Msg::GetChunkBatchOk {
                        req,
                        items: keys.iter().map(|k| (*k, Ok(Payload::Sim(page)))).collect(),
                    },
                    other => panic!("unscripted message {other:?}"),
                };
                wire.push(line);
                done.extend(c.handle_msg(env, to, reply));
            }
        }
    }

    #[test]
    fn one_shot_write_and_stream_write_put_the_same_messages_on_the_wire() {
        let (pages, page) = (5u64, 8u64);
        let bytes = bytes::Bytes::from((0..pages * page).map(|i| i as u8).collect::<Vec<u8>>());

        let (mut env, mut c) = (TestEnv::new(), core());
        start_write(&mut c, &mut env, Entry::OneShot, Payload::Data(bytes.clone()), 1);
        let (one_shot, done) = serve(&mut c, &mut env, pages, page, &[], None);
        assert_eq!(done.len(), 1);
        let written = done[0].result.clone().expect("one-shot write");
        assert!(matches!(written, OpOutput::Written { version: VersionId(1), .. }));
        assert_eq!(c.active_ops(), 0);

        let (mut env, mut c) = (TestEnv::new(), core());
        start_write(&mut c, &mut env, Entry::Stream, Payload::Data(bytes.clone()), 1);
        let (mut stream_wire, done) = serve(&mut c, &mut env, pages, page, &[], None);
        let Ok(OpOutput::WriteStreamOpened { stream, .. }) = done[0].result else {
            panic!("{:?}", done[0].result)
        };
        let mut done = c.start_op(
            &mut env,
            ClientOp::FeedWriteStream { stream, data: Payload::Data(bytes) },
            2,
        );
        // The feed may park on the window; the commit follows either way
        // once it completed.
        let (wire, more) = serve(&mut c, &mut env, pages, page, &[], None);
        stream_wire.extend(wire);
        done.extend(more);
        assert!(matches!(done[0].result, Ok(OpOutput::Fed { .. })), "{:?}", done[0].result);
        let mut done = c.start_op(&mut env, ClientOp::CommitWriteStream { stream }, 3);
        let (wire, more) = serve(&mut c, &mut env, pages, page, &[], None);
        stream_wire.extend(wire);
        done.extend(more);
        assert_eq!(done[0].result.clone().expect("stream commit"), written);
        assert_eq!(c.active_ops(), 0);

        // Same targets, same messages, same order, same request ids, same
        // chunk bytes: two providers, one batch each, then metadata, then
        // the commit.
        assert_eq!(one_shot, stream_wire);
        assert!(one_shot.iter().any(|l| l.contains("PutChunkBatch")), "{one_shot:#?}");
    }

    /// Declared zeros reach neither the wire nor the tree as bytes: the
    /// page they complete is put at the length of what was fed into it,
    /// and its leaf descriptor says so — which is what the lifecycle
    /// sweeper, stalled-write recovery and the write window account by.
    #[test]
    fn declared_zeros_put_short_chunks_and_their_lengths_in_the_leaves() {
        let (pages, page) = (4u64, 8u64);
        let bytes = bytes::Bytes::from((1..=11u8).collect::<Vec<u8>>());
        let (mut env, mut c) = (TestEnv::new(), core());
        start_write(&mut c, &mut env, Entry::Stream, Payload::Sim(pages * page), 1);
        let (mut wire, done) = serve(&mut c, &mut env, pages, page, &[], None);
        let Ok(OpOutput::WriteStreamOpened { stream, .. }) = done[0].result else {
            panic!("{:?}", done[0].result)
        };
        // A page and a 3-byte tail, the tail's page completed by zeros;
        // a page of zeros; two zeros, then bytes behind them.
        let feeds = [
            ClientOp::FeedWriteStream { stream, data: Payload::Data(bytes.clone()) },
            ClientOp::FeedZeros { stream, len: 5 + 8 + 2 },
            ClientOp::FeedWriteStream { stream, data: Payload::Data(bytes.slice(..6)) },
        ];
        for (i, op) in feeds.into_iter().enumerate() {
            let mut done = c.start_op(&mut env, op, 2 + i as u64);
            let (more, acked) = serve(&mut c, &mut env, pages, page, &[], None);
            wire.extend(more);
            done.extend(acked);
            assert!(matches!(done[0].result, Ok(OpOutput::Fed { .. })), "{:?}", done[0].result);
        }
        assert!(c.start_op(&mut env, ClientOp::CommitWriteStream { stream }, 9).is_empty());
        let (more, done) = serve(&mut c, &mut env, pages, page, &[], None);
        wire.extend(more);
        assert!(matches!(done[0].result, Ok(OpOutput::Written { .. })), "{:?}", done[0].result);
        assert_eq!(c.active_ops(), 0);

        let puts: Vec<&String> = wire.iter().filter(|l| l.contains("PutChunk")).collect();
        // The transcript spells payloads as their lengths. Pages 0 and 2
        // have two replicas, pages 1 and 3 one; pages 0 and 3 are whole.
        let put = |len: usize| puts.iter().filter(|l| l.contains(&format!("Bytes({len}B)"))).count();
        assert_eq!((put(8), put(3), put(0)), (3, 1, 2), "{puts:#?}");
        let leaves: String = wire.iter().filter(|l| l.contains("PutMeta")).cloned().collect();
        for (page_no, size) in [(0, 8), (1, 3), (2, 0), (3, 8)] {
            let key = ChunkKey { blob: BlobId(5), version: VersionId(1), page: page_no };
            let leaf = format!("key: {key:?}, replicas: ");
            let at = leaves.find(&leaf).unwrap_or_else(|| panic!("no leaf for page {page_no}"));
            let desc = &leaves[at..];
            let stored = &desc[desc.find("size: ").expect("descriptor size") + 6..];
            assert!(stored.starts_with(&format!("{size} }}")), "page {page_no}: {desc:.120}");
        }
    }

    /// The `(key, payload, crc)` items of a chunk-store message.
    fn put_items(msg: &Msg) -> Vec<PutItem> {
        let Msg::PutChunkBatch { items, .. } = msg else { panic!("not a chunk store: {msg:?}") };
        items.clone()
    }

    /// Every chunk store the client emits carries `payload_crc` of its
    /// payload — the provider stores that CRC unchecked — whatever cut
    /// the page came from. (`serve` asserts it on every put it answers.)
    #[test]
    fn every_cut_shape_puts_its_payloads_crc_in_the_envelope() {
        enum Feed {
            Bytes(std::ops::Range<usize>),
            Zeros(u64),
            Sim(u64),
        }
        let (pages, page) = (4u64, 8u64);
        let bytes = Bytes::from((1..=32u8).collect::<Vec<u8>>());
        let shapes = [
            ("page-aligned", vec![Feed::Bytes(0..16), Feed::Bytes(16..32)]),
            ("straddling", [0..5, 5..13, 13..27, 27..32].map(Feed::Bytes).into()),
            // A 3-byte tail, a page of nothing, a 3-byte tail.
            (
                "zero tails",
                vec![Feed::Bytes(0..11), Feed::Zeros(13), Feed::Bytes(0..3), Feed::Zeros(5)],
            ),
            ("size-only", vec![Feed::Sim(13), Feed::Sim(19)]),
        ];
        for (shape, feeds) in shapes {
            let (mut env, mut c) = (TestEnv::new(), core());
            start_write(&mut c, &mut env, Entry::Stream, Payload::Sim(pages * page), 1);
            let (mut wire, done) = serve(&mut c, &mut env, pages, page, &[], None);
            let Ok(OpOutput::WriteStreamOpened { stream, .. }) = done[0].result else {
                panic!("{shape}: {:?}", done[0].result)
            };
            for (i, feed) in feeds.into_iter().enumerate() {
                let op = match feed {
                    Feed::Bytes(r) => {
                        ClientOp::FeedWriteStream { stream, data: Payload::Data(bytes.slice(r)) }
                    }
                    Feed::Zeros(len) => ClientOp::FeedZeros { stream, len },
                    Feed::Sim(n) => ClientOp::FeedWriteStream { stream, data: Payload::Sim(n) },
                };
                let mut done = c.start_op(&mut env, op, 2 + i as u64);
                let (more, acked) = serve(&mut c, &mut env, pages, page, &[], None);
                wire.extend(more);
                done.extend(acked);
                assert!(matches!(done[0].result, Ok(OpOutput::Fed { .. })), "{shape}");
            }
            assert!(c.start_op(&mut env, ClientOp::CommitWriteStream { stream }, 9).is_empty());
            let (more, done) = serve(&mut c, &mut env, pages, page, &[], None);
            wire.extend(more);
            assert!(matches!(done[0].result, Ok(OpOutput::Written { .. })), "{shape}");
            // Pages 0 and 2 have two replicas, pages 1 and 3 one.
            let puts = wire.iter().filter(|l| l.contains("PutChunk"));
            let stored: usize = puts.map(|l| l.matches("ChunkKey {").count()).sum();
            assert_eq!(stored, 6, "{shape}: every replica of every page went out: {wire:#?}");
        }
    }

    /// A resend — after a put deadline, or to a replacement placement —
    /// carries the CRC the page was cut with, unchanged and not
    /// recomputed: a page is checksummed once however often it is sent.
    #[test]
    fn deadline_and_reallocation_resends_carry_the_cut_crc() {
        let (pages, page) = (2u64, 8u64);
        let cfg = ClientConfig { retry: RetryPolicy::standard(), ..ClientConfig::default() };
        let mut c = ClientCore::new(ClientId(7), VMAN, PMAN, vec![META], cfg);
        let mut env = TestEnv::new();
        let bytes = Bytes::from((0..pages * page).map(|i| i as u8 ^ 0x5a).collect::<Vec<u8>>());
        start_write(&mut c, &mut env, Entry::OneShot, Payload::Data(bytes.clone()), 1);
        let (_, Msg::Ticket { req, .. }) = env.take_sent().pop().unwrap() else { panic!() };
        let ticket = ticket(pages, page, 1);
        assert!(c.handle_msg(&mut env, VMAN, Msg::TicketOk { req, ticket }).is_empty());
        let (_, Msg::Alloc { req, .. }) = env.take_sent().pop().unwrap() else { panic!() };
        let placement = vec![vec![PROV_A]; pages as usize];
        assert!(c.handle_msg(&mut env, PMAN, Msg::AllocOk { req, placement }).is_empty());
        let sent = env.take_sent();
        assert_eq!(sent.len(), 1, "{sent:?}");
        let cut = put_items(&sent[0].1);
        let want: Vec<u32> = bytes.chunks(page as usize).map(crate::storage::crc32c).collect();
        assert_eq!(cut.iter().map(|i| i.2).collect::<Vec<_>>(), want);
        let envelope = |items: &[PutItem]| -> Vec<(ChunkKey, u32)> {
            items.iter().map(|(k, _, crc)| (*k, *crc)).collect()
        };
        let crc_calls = || crate::storage::CRC32C_CALLS.with(|n| n.get());
        let before = crc_calls();

        // No answer: the put deadline fires, the backoff runs out, and
        // the same target gets the same envelope again.
        assert!(env.fire_deadline(&mut c).is_empty());
        assert_eq!(env.now, SimTime::ZERO + RetryPolicy::standard().put_timeout);
        assert!(env.take_sent().is_empty(), "the resend waits out its backoff");
        assert!(env.fire_deadline(&mut c).is_empty(), "the backoff ends");
        let (to, resend) = env.take_sent().pop().expect("deadline resend");
        assert_eq!(to, PROV_A);
        assert_eq!(envelope(&put_items(&resend)), envelope(&cut));

        // The target is full: the client asks for a replacement placement
        // and sends the same envelope there.
        let Msg::PutChunkBatch { req, .. } = resend else {
            panic!()
        };
        let full = Msg::PutChunkErr { req, err: ChunkErr::Full };
        assert!(c.handle_msg(&mut env, PROV_A, full).is_empty());
        let (_, Msg::Alloc { req, chunks, .. }) = env.take_sent().pop().unwrap() else { panic!() };
        assert_eq!(chunks as u64, pages);
        let placement = vec![vec![PROV_B]; pages as usize];
        assert!(c.handle_msg(&mut env, PMAN, Msg::AllocOk { req, placement }).is_empty());
        let (to, moved) = env.take_sent().pop().expect("re-allocation resend");
        assert_eq!(to, PROV_B);
        assert_eq!(envelope(&put_items(&moved)), envelope(&cut));
        assert_eq!(crc_calls(), before, "no resend checksums the page again");

        env.sent.push((to, moved));
        let (_, done) = serve(&mut c, &mut env, pages, page, &[], None);
        let Ok(OpOutput::Written { crc, .. }) = done[0].result else {
            panic!("{:?}", done[0].result)
        };
        assert_eq!(crc, crate::storage::crc32c(&bytes), "the resends leave the write's CRC alone");
    }

    /// `Written.crc` is the CRC-32C of the bytes the write stored, in
    /// order, whatever cut them into pages and however many replicas hold
    /// each page: a declared-zero tail adds nothing, and an empty object
    /// reads the CRC of no bytes.
    #[test]
    fn written_crc_is_the_crc32c_of_the_stored_bytes() {
        let page = 8u64;
        let bytes = Bytes::from((1..=32u8).collect::<Vec<u8>>());
        let shapes = [
            ("one-shot", None, 4u64),
            ("sub-page feeds", Some(vec![0..3, 3..11, 11..20, 20..32]), 4),
            ("declared-zero tail", Some(vec![0..5, 5..21]), 4),
            ("empty", Some(vec![]), 1),
        ];
        for (shape, feeds, pages) in shapes {
            let fed = feeds.as_ref().map_or(bytes.len(), |f| f.last().map_or(0, |r| r.end));
            for replicas in 1..=3 {
                let (mut env, mut c) = (TestEnv::new(), core());
                let (entry, data) = match feeds {
                    None => (Entry::OneShot, Payload::Data(bytes.clone())),
                    Some(_) => (Entry::Stream, Payload::Sim(pages * page)),
                };
                start_write(&mut c, &mut env, entry, data, 1);
                let (_, Msg::Ticket { req, .. }) = env.take_sent().pop().unwrap() else { panic!() };
                let ticket = ticket(pages, page, replicas as u32);
                assert!(c.handle_msg(&mut env, VMAN, Msg::TicketOk { req, ticket }).is_empty());
                let (_, Msg::Alloc { req, .. }) = env.take_sent().pop().unwrap() else { panic!() };
                let on = [PROV_A, PROV_B, NodeId(12)][..replicas].to_vec();
                let placement = vec![on; pages as usize];
                let mut done = c.handle_msg(&mut env, PMAN, Msg::AllocOk { req, placement });
                if let Some(feeds) = &feeds {
                    let Ok(OpOutput::WriteStreamOpened { stream, .. }) = done[0].result else {
                        panic!("{shape}: {:?}", done[0].result)
                    };
                    let zeros = pages * page - fed as u64;
                    let ops = feeds
                        .iter()
                        .map(|r| ClientOp::FeedWriteStream {
                            stream,
                            data: Payload::Data(bytes.slice(r.clone())),
                        })
                        .chain((zeros > 0).then_some(ClientOp::FeedZeros { stream, len: zeros }))
                        .chain([ClientOp::CommitWriteStream { stream }]);
                    for op in ops {
                        done = c.start_op(&mut env, op, 2);
                        done.extend(serve(&mut c, &mut env, pages, page, &[], None).1);
                    }
                } else {
                    done = serve(&mut c, &mut env, pages, page, &[], None).1;
                }
                let Ok(OpOutput::Written { crc, .. }) = done[0].result else {
                    panic!("{shape}: {:?}", done[0].result)
                };
                let want = crate::storage::crc32c(&bytes[..fed]);
                assert_eq!(crc, want, "{shape} at replication {replicas}");
            }
        }
    }

    #[test]
    fn page_acc_holds_a_lone_tail_as_a_view_and_never_allocates_past_the_page() {
        let page = 4096usize;
        let mut acc = PageAcc::default();
        let tail = bytes::Bytes::from(vec![7u8; 13]);
        acc.push(tail.clone(), page);
        assert_eq!((acc.len(), acc.buf.capacity()), (13, 0), "a lone tail is not copied");
        assert_eq!(acc.take().as_ref().as_ptr(), tail.as_ref().as_ptr());
        assert!(acc.is_empty());

        // More bytes behind it: owned now, at most twice what was fed.
        acc.push(tail.clone(), page);
        acc.push(tail.clone(), page);
        assert_eq!(acc.len(), 26);
        assert!(acc.buf.capacity() <= 52, "capacity {}", acc.buf.capacity());
        // Filled in small feeds: exactly a page, however it grew.
        acc.push_zeros(100, page);
        while acc.len() < page {
            let n = (page - acc.len()).min(700);
            acc.push(bytes::Bytes::from(vec![9u8; n]), page);
            assert!(acc.buf.capacity() <= page, "capacity {}", acc.buf.capacity());
        }
        assert_eq!(acc.buf.capacity(), page);
        let full = acc.take();
        assert_eq!(full.len(), page);
        assert_eq!((&full[..13], &full[26..126], full[page - 1]), (&tail[..], &[0u8; 100][..], 9));
        assert!(acc.is_empty());
    }

    #[test]
    fn one_shot_read_and_stream_read_put_the_same_messages_on_the_wire() {
        let (pages, page) = (6u64, 8u64);
        let (nodes, root) = stored_tree(pages, page, vec![PROV_A, PROV_B]);
        let mut wires = Vec::new();
        for entry in ENTRIES {
            let (mut env, mut c) = (TestEnv::new(), core());
            start_read(&mut c, &mut env, entry, pages * page, 9);
            let (mut wire, done) = serve(&mut c, &mut env, pages, page, &nodes, Some(root));
            let done = if entry == Entry::Stream {
                after_plan(&mut c, &mut env, entry, done);
                let (more, done) = serve(&mut c, &mut env, pages, page, &nodes, Some(root));
                wire.extend(more);
                done
            } else {
                done
            };
            assert_eq!(read_len(&done), pages * page);
            assert_eq!(c.active_ops(), 0);
            wires.push(wire);
        }
        // Same replica draws, same per-provider batches, same order.
        assert_eq!(wires[0], wires[1]);
        assert!(wires[0].iter().any(|l| l.contains("GetChunkBatch")), "{:#?}", wires[0]);
    }

    #[test]
    fn one_shot_read_issues_its_batches_under_the_chunk_window() {
        let (pages, page) = (6u64, 8u64);
        let (nodes, root) = stored_tree(pages, page, vec![PROV_A, PROV_B]);
        let cfg = ClientConfig { chunk_window: 1, ..ClientConfig::default() };
        let mut c = ClientCore::new(ClientId(7), VMAN, PMAN, vec![META], cfg);
        let mut env = TestEnv::new();
        open_read(&mut c, &mut env, Entry::OneShot, pages, page, nodes, root);
        // Two providers hold the range but one slot is open: the second
        // provider's batch waits for the first reply.
        let sent = env.take_sent();
        assert_eq!(sent.len(), 1, "{sent:?}");
        let (first, Msg::GetChunkBatch { req, keys, .. }) = sent.into_iter().next().unwrap() else {
            panic!()
        };
        let items = keys.iter().map(|k| (*k, Ok(Payload::Sim(page)))).collect();
        assert!(c.handle_msg(&mut env, first, Msg::GetChunkBatchOk { req, items }).is_empty());
        let sent = env.take_sent();
        assert_eq!(sent.len(), 1, "{sent:?}");
        assert_ne!(sent[0].0, first, "the queued batch goes to the other provider");
    }

    #[test]
    fn create_roundtrip() {
        let mut env = TestEnv::new();
        let mut c = core();
        c.start_op(&mut env, ClientOp::Create { spec: BlobSpec::default() }, 42);
        let (to, msg) = env.take_sent().pop().expect("create sent");
        assert_eq!(to, VMAN);
        let Msg::CreateBlob { req, .. } = msg else { panic!("wrong msg {msg:?}") };
        let done = c.handle_msg(&mut env, VMAN, Msg::CreateBlobOk { req, blob: BlobId(5) });
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 42);
        assert_eq!(done[0].result.as_ref().unwrap(), &OpOutput::Created(BlobId(5)));
        assert_eq!(c.active_ops(), 0);
    }

    #[test]
    fn snapshot_and_decommission_round_trips() {
        let mut env = TestEnv::new();
        let mut c = core();
        c.start_op(&mut env, ClientOp::Snapshot { blob: BlobId(5), version: None }, 1);
        let (to, msg) = env.take_sent().pop().expect("snapshot sent");
        assert_eq!(to, VMAN);
        let Msg::SnapshotVersion { req, version: None, .. } = msg else { panic!("{msg:?}") };
        let done =
            c.handle_msg(&mut env, VMAN, Msg::SnapshotVersionOk { req, version: VersionId(3) });
        assert_eq!(
            done[0].result.as_ref().unwrap(),
            &OpOutput::Snapshotted { blob: BlobId(5), version: VersionId(3) }
        );

        c.start_op(&mut env, ClientOp::Decommission { blob: BlobId(5) }, 2);
        let (to, msg) = env.take_sent().pop().expect("decommission sent");
        assert_eq!(to, VMAN);
        let Msg::DecommissionBlob { req, .. } = msg else { panic!("{msg:?}") };
        let done = c.handle_msg(&mut env, VMAN, Msg::DecommissionBlobOk { req, ok: true });
        assert_eq!(
            done[0].result.as_ref().unwrap(),
            &OpOutput::Decommissioned { blob: BlobId(5), ok: true }
        );
        assert_eq!(c.active_ops(), 0);
    }

    #[test]
    fn snapshot_of_unknown_version_fails_the_op() {
        let mut env = TestEnv::new();
        let mut c = core();
        c.start_op(
            &mut env,
            ClientOp::Snapshot { blob: BlobId(5), version: Some(VersionId(9)) },
            1,
        );
        let (_, msg) = env.take_sent().pop().unwrap();
        let Msg::SnapshotVersion { req, .. } = msg else { panic!() };
        let done = c.handle_msg(
            &mut env,
            VMAN,
            Msg::SnapshotVersionErr {
                req,
                err: BlobError::UnknownVersion(BlobId(5), VersionId(9)),
            },
        );
        assert!(matches!(done[0].result, Err(BlobError::UnknownVersion(..))));
    }

    #[test]
    fn ticket_error_fails_the_op() {
        let mut env = TestEnv::new();
        let mut c = core();
        c.start_op(
            &mut env,
            ClientOp::Write {
                blob: BlobId(5),
                kind: WriteKind::Append,
                data: Payload::Sim(16),
            },
            1,
        );
        let (_, msg) = env.take_sent().pop().unwrap();
        let Msg::Ticket { req, .. } = msg else { panic!() };
        let done = c.handle_msg(
            &mut env,
            VMAN,
            Msg::TicketErr { req, err: BlobError::Blocked(ClientId(7)) },
        );
        assert!(matches!(done[0].result, Err(BlobError::Blocked(_))));
    }

    #[test]
    fn allocation_failure_fails_the_op() {
        for entry in ENTRIES {
            let mut env = TestEnv::new();
            let mut c = core();
            start_write(&mut c, &mut env, entry, Payload::Sim(16), 1);
            let (_, msg) = env.take_sent().pop().unwrap();
            let Msg::Ticket { req, .. } = msg else { panic!() };
            let ticket = ticket(2, 8, 3);
            assert!(c.handle_msg(&mut env, VMAN, Msg::TicketOk { req, ticket }).is_empty());
            let (to, msg) = env.take_sent().pop().unwrap();
            assert_eq!(to, PMAN);
            let Msg::Alloc { req, chunks, replication, .. } = msg else { panic!() };
            assert_eq!((chunks, replication), (2, 3));
            let done = c.handle_msg(&mut env, PMAN, Msg::AllocErr { req, available: 2 });
            assert!(
                matches!(
                    done[0].result,
                    Err(BlobError::AllocationFailed { requested: 2, available: 2 })
                ),
                "{entry:?}: {:?}",
                done[0].result
            );
            assert_eq!(c.active_ops(), 0);
        }
    }

    #[test]
    fn op_timeout_fires_and_completes_with_error() {
        for entry in ENTRIES {
            let mut env = TestEnv::new();
            let mut c = core();
            start_read(&mut c, &mut env, entry, 8, 9);
            // The op-deadline timer was armed.
            let (delay, token) = env.timers[0];
            assert_eq!(delay, ClientConfig::default().op_timeout);
            assert!(ClientCore::owns_timer(token));
            env.now = SimTime::ZERO + delay;
            let done = c.handle_timer(&mut env, token);
            assert_eq!(done.len(), 1, "{entry:?}");
            assert_eq!(done[0].tag, 9);
            assert!(matches!(done[0].result, Err(BlobError::Timeout)));
            assert_eq!(c.active_ops(), 0);
            // A stale reply afterwards is ignored.
            assert!(c.handle_msg(&mut env, VMAN, Msg::GetVersionErr {
                req: 1,
                err: BlobError::UnknownBlob(BlobId(5)),
            })
            .is_empty());
        }
    }

    #[test]
    fn deadline_runs_from_the_parked_sub_operation_or_the_last_activity() {
        let mut env = TestEnv::new();
        let mut c = core();
        let timeout = ClientConfig::default().op_timeout;
        start_write(&mut c, &mut env, Entry::Stream, Payload::Sim(16), 1);
        let (wire, done) = serve(&mut c, &mut env, 2, 8, &[], None);
        assert_eq!(wire.len(), 2, "ticket + alloc: {wire:?}");
        let Ok(OpOutput::WriteStreamOpened { stream, .. }) = done[0].result else { panic!() };
        let (_, token) = env.timers[0];
        // The open completed at t = 0 and nothing is parked: the stream
        // idles until t = timeout. A feed at t = 10 s moves that out.
        env.now = SimTime::from_secs(10);
        let fed = c.start_op(
            &mut env,
            ClientOp::FeedWriteStream { stream, data: Payload::Sim(8) },
            2,
        );
        assert!(matches!(fed[0].result, Ok(OpOutput::Fed { .. })));
        env.now = SimTime::ZERO + timeout;
        assert!(c.handle_timer(&mut env, token).is_empty(), "re-armed, not reaped");
        assert_eq!(env.timers.last().unwrap().0, SimDuration::from_secs(10));
        assert_eq!(c.active_ops(), 1);
        // A commit short of the declared length would be fatal; park a
        // legal sub-operation instead: the second feed fills the stream,
        // then the commit parks at t = timeout + 5 s on the unanswered puts.
        env.now = SimTime::ZERO + timeout + SimDuration::from_secs(5);
        let fed = c.start_op(
            &mut env,
            ClientOp::FeedWriteStream { stream, data: Payload::Sim(8) },
            3,
        );
        assert!(matches!(fed[0].result, Ok(OpOutput::Fed { .. })));
        assert!(c.start_op(&mut env, ClientOp::CommitWriteStream { stream }, 4).is_empty());
        env.now = SimTime::ZERO + timeout + SimDuration::from_secs(10);
        assert!(c.handle_timer(&mut env, token).is_empty(), "the parked commit has 595 s left");
        env.now = SimTime::ZERO + timeout + timeout + SimDuration::from_secs(5);
        let done = c.handle_timer(&mut env, token);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 4);
        assert!(matches!(done[0].result, Err(BlobError::Timeout)));
        assert_eq!(c.active_ops(), 0);
    }

    #[test]
    fn read_fails_over_to_next_replica_on_chunk_timeout() {
        for entry in ENTRIES {
            let mut env = TestEnv::new();
            let mut c = core();
            // One-page blob whose root is a leaf with two replicas.
            let (nodes, root) = stored_tree(1, 8, vec![PROV_A, PROV_B]);
            open_read(&mut c, &mut env, entry, 1, 8, nodes, root);
            // A chunk fetch went out to one replica, with a failover timer.
            let (first_target, msg) = env.take_sent().pop().unwrap();
            assert!(first_target == PROV_A || first_target == PROV_B);
            let Msg::GetChunkBatch { keys, .. } = msg else { panic!("{msg:?}") };
            assert_eq!(keys.len(), 1);
            // The replica never answers: the deadline timer fires and the
            // client retries another replica.
            assert!(env.fire_deadline(&mut c).is_empty());
            assert_eq!(env.now, SimTime::ZERO + ClientConfig::default().chunk_timeout);
            let (second_target, msg) = env.take_sent().pop().unwrap();
            let Msg::GetChunkBatch { req, keys, .. } = msg else { panic!("{msg:?}") };
            assert_ne!(second_target, first_target, "failover goes to the other replica");
            // That one answers: the read completes.
            let done = c.handle_msg(&mut env, second_target, got(req, keys[0], 8));
            assert_eq!(read_len(&done), 8, "{entry:?}");
            assert_eq!(c.active_ops(), 0);
        }
    }

    /// The client arms one timer, for its earliest deadline, not one per
    /// op and per chunk fetch: 10 000 one-shot write + read rounds (an op
    /// deadline each, a fetch deadline per read) arm two timers in all,
    /// for the first op's deadline and the first fetch's.
    #[test]
    fn a_client_arms_one_deadline_timer_however_many_ops() {
        let (mut env, mut c) = (TestEnv::new(), core());
        let (nodes, root) = stored_tree(1, 8, vec![PROV_A]);
        for round in 0..10_000u64 {
            // A round a millisecond: 10 s in all, short of every deadline.
            env.now = SimTime(round * 1_000_000);
            start_write(&mut c, &mut env, Entry::OneShot, Payload::Sim(8), 1);
            let (_, written) = serve(&mut c, &mut env, 1, 8, &nodes, Some(root));
            start_read(&mut c, &mut env, Entry::OneShot, 8, 2);
            let (wire, read) = serve(&mut c, &mut env, 1, 8, &nodes, Some(root));
            assert!(wire.iter().any(|l| l.contains("GetChunkBatch")), "{wire:?}");
            assert!(written[0].result.is_ok() && read[0].result.is_ok(), "round {round}");
        }
        assert_eq!(c.active_ops(), 0);
        assert!(env.timers.len() <= 2, "{} timers armed", env.timers.len());
        assert!(c.cx.armed.len() <= 2);
    }

    /// Every timeout fires at its own deadline, neither earlier nor later,
    /// whichever deadline the one timer was armed for.
    #[test]
    fn timeouts_fire_at_their_own_deadlines() {
        let cfg = ClientConfig::default();
        let (op_timeout, chunk_timeout) = (cfg.op_timeout, cfg.chunk_timeout);
        let tick = SimDuration(1);
        // An op the version manager never answers times out at exactly
        // its start + `op_timeout`.
        let (mut env, mut c) = (TestEnv::new(), core());
        env.now = SimTime::from_secs(5);
        start_read(&mut c, &mut env, Entry::OneShot, 8, 1);
        let due = env.now + op_timeout;
        env.now = SimTime(due.as_nanos() - tick.as_nanos());
        assert!(c.handle_timer(&mut env, CLIENT_TIMER_BIT).is_empty());
        assert_eq!(c.active_ops(), 1, "not before its deadline");
        let done = env.fire_deadline(&mut c);
        assert_eq!(env.now, due);
        assert!(matches!(done[..], [Completion { tag: 1, result: Err(BlobError::Timeout), .. }]));

        // A chunk fetch fails over at exactly its send + `chunk_timeout`.
        let (mut env, mut c) = (TestEnv::new(), core());
        env.now = SimTime::from_secs(3);
        let (nodes, root) = stored_tree(1, 8, vec![PROV_A, PROV_B]);
        open_read(&mut c, &mut env, Entry::OneShot, 1, 8, nodes, root);
        let (first, _) = env.take_sent().pop().unwrap();
        let due = env.now + chunk_timeout;
        env.now = SimTime(due.as_nanos() - tick.as_nanos());
        assert!(c.handle_timer(&mut env, CLIENT_TIMER_BIT).is_empty());
        assert!(env.take_sent().is_empty(), "no failover before the deadline");
        assert!(env.fire_deadline(&mut c).is_empty());
        assert_eq!(env.now, due);
        let sent = env.take_sent();
        assert!(matches!(sent[..], [(to, Msg::GetChunkBatch { .. })] if to != first), "{sent:?}");

        // Sessions due at one instant time out in session-id order.
        let (mut env, mut c) = (TestEnv::new(), core());
        for tag in 1..=8 {
            start_read(&mut c, &mut env, Entry::OneShot, 8, tag);
        }
        let done = env.fire_deadline(&mut c);
        assert_eq!(env.now, SimTime::ZERO + op_timeout);
        assert_eq!(done.iter().map(|d| d.tag).collect::<Vec<_>>(), (1..=8).collect::<Vec<_>>());

        // A stream whose idle deadline moved is reaped at the moved
        // instant: the timer armed for the old one finds nothing due.
        let (mut env, mut c) = (TestEnv::new(), core());
        start_write(&mut c, &mut env, Entry::Stream, Payload::Sim(16), 1);
        let (_, done) = serve(&mut c, &mut env, 2, 8, &[], None);
        let Ok(OpOutput::WriteStreamOpened { stream, .. }) = done[0].result else { panic!() };
        env.now = SimTime::from_secs(10);
        let feed = ClientOp::FeedWriteStream { stream, data: Payload::Sim(8) };
        assert!(matches!(c.start_op(&mut env, feed, 2)[0].result, Ok(OpOutput::Fed { .. })));
        assert!(env.fire_deadline(&mut c).is_empty());
        assert_eq!((env.now, c.active_ops()), (SimTime::ZERO + op_timeout, 1));
        assert!(env.fire_deadline(&mut c).is_empty(), "nothing parked to complete");
        assert_eq!((env.now, c.active_ops()), (SimTime::from_secs(10) + op_timeout, 0));
    }

    /// Build (locally) the stored tree of a `pages`-page blob at version
    /// 1, every chunk placed on `replicas` — exactly the node set a
    /// writer would have put to the metadata providers.
    fn stored_tree(
        pages: u64,
        page: u64,
        replicas: Vec<NodeId>,
    ) -> (Vec<(NodeKey, MetaNode)>, NodeRef) {
        let chunks: Vec<ChunkDescriptor> = (0..pages)
            .map(|p| ChunkDescriptor {
                key: ChunkKey { blob: BlobId(5), version: VersionId(1), page: p },
                replicas: replicas.clone(),
                size: page,
            })
            .collect();
        let builder = crate::meta::TreeBuilder::new(
            BlobId(5),
            VersionId(1),
            PageInterval::new(0, pages),
            page,
            pages * page,
            crate::meta::BaseSnapshot { version: VersionId(0), size: 0, root: None },
            vec![],
        );
        assert!(builder.is_ready(), "no base tree to resolve");
        builder.build(&chunks)
    }

    /// Drive a fresh read (of either entry form) through GetVersion and
    /// the cold-cache bulk metadata exchange; returns with the chunk
    /// fetches just sent.
    fn open_read(
        c: &mut ClientCore,
        env: &mut TestEnv,
        entry: Entry,
        pages: u64,
        page: u64,
        nodes: Vec<(NodeKey, MetaNode)>,
        root: NodeRef,
    ) {
        start_read(c, env, entry, pages * page, 9);
        let (_, msg) = env.take_sent().pop().unwrap();
        let Msg::GetVersion { req, .. } = msg else { panic!() };
        assert!(c
            .handle_msg(
                env,
                VMAN,
                Msg::GetVersionOk {
                    req,
                    info: VersionInfo {
                        version: VersionId(1),
                        size: pages * page,
                        page_size: page,
                        root: Some(root),
                    },
                },
            )
            .is_empty());
        // Cold cache: exactly one bulk range query per metadata provider
        // (the test ring has one) and no per-node GetMeta at all.
        let sent = env.take_sent();
        assert_eq!(sent.len(), 1, "one logical metadata round trip: {sent:?}");
        let (to, msg) = sent.into_iter().next().unwrap();
        assert_eq!(to, META);
        let Msg::GetMetaRange { req, query, .. } = msg else { panic!("{msg:?}") };
        assert_eq!(query, PageInterval::new(0, pages));
        let done = c.handle_msg(env, META, Msg::GetMetaRangeOk { req, nodes, more: false });
        after_plan(c, env, entry, done);
    }

    #[test]
    fn cold_read_uses_one_meta_round_trip_and_one_chunk_batch() {
        for entry in ENTRIES {
            let mut env = TestEnv::new();
            let mut c = core();
            let (pages, page) = (16u64, 8u64);
            let (nodes, root) = stored_tree(pages, page, vec![PROV_A]);
            open_read(&mut c, &mut env, entry, pages, page, nodes, root);
            // All 16 chunks live on one provider: a single batched fetch
            // replaces 16 per-chunk round trips.
            let sent = env.take_sent();
            assert_eq!(sent.len(), 1, "one batched chunk round trip: {sent:?}");
            let (to, msg) = sent.into_iter().next().unwrap();
            assert_eq!(to, PROV_A);
            let Msg::GetChunkBatch { req, keys, .. } = msg else { panic!("{msg:?}") };
            assert_eq!(keys.len(), pages as usize);
            let items = keys.iter().map(|k| (*k, Ok(Payload::Sim(page)))).collect();
            let done = c.handle_msg(&mut env, PROV_A, Msg::GetChunkBatchOk { req, items });
            assert_eq!(read_len(&done), pages * page, "{entry:?}");
        }
    }

    /// The same one-broadcast property at the shape that makes it matter:
    /// a depth-15 tree hash-partitioned over two metadata providers, each
    /// answering from a real `MetaStore::range_cover`, and a 4-page read
    /// across the root's midpoint — the longest read path the tree has.
    #[test]
    fn cold_read_of_a_depth_15_tree_needs_no_per_node_fetch() {
        let ring = RING;
        let (pages, page) = (1u64 << 15, 8u64);
        let (nodes, root) = stored_tree(pages, page, vec![PROV_A]);
        let mut stores = [MetaStore::new(), MetaStore::new()];
        for (k, n) in nodes {
            stores[partition(&k, ring.len())].put(k, n);
        }
        let query = PageInterval::new(pages / 2 - 3, 4);
        for entry in ENTRIES {
            let mut env = TestEnv::new();
            let mut c =
                ClientCore::new(ClientId(7), VMAN, PMAN, ring.to_vec(), ClientConfig::default());
            let (blob, version) = (BlobId(5), None);
            let (offset, len) = (query.start * page, query.len * page);
            let op = match entry {
                Entry::OneShot => ClientOp::Read { blob, version, offset, len },
                Entry::Stream => ClientOp::OpenReadStream { blob, version, offset, len },
            };
            assert!(c.start_op(&mut env, op, 9).is_empty());
            let (_, msg) = env.take_sent().pop().unwrap();
            let Msg::GetVersion { req, .. } = msg else { panic!("{msg:?}") };
            let info = VersionInfo {
                version: VersionId(1),
                size: pages * page,
                page_size: page,
                root: Some(root),
            };
            assert!(c.handle_msg(&mut env, VMAN, Msg::GetVersionOk { req, info }).is_empty());
            let asked = env.take_sent();
            assert_eq!(asked.len(), ring.len(), "one range query per provider: {asked:?}");
            let mut done = Vec::new();
            for (to, msg) in asked {
                let Msg::GetMetaRange { req, blob, version, query: q, after, max_nodes } = msg
                else {
                    panic!("{msg:?}")
                };
                assert_eq!(q, query);
                let store = &stores[ring.iter().position(|m| *m == to).unwrap()];
                let (nodes, more) = store.range_cover(blob, version, &q, after, max_nodes as usize);
                assert!(!nodes.is_empty() && !more, "{to:?} holds part of the path");
                done = c.handle_msg(&mut env, to, Msg::GetMetaRangeOk { req, nodes, more });
            }
            after_plan(&mut c, &mut env, entry, done);
            // Whatever leaves the client now fetches chunks: the descent
            // ran to the leaves on the two answers alone.
            let sent = env.take_sent();
            let fetched: usize = sent
                .iter()
                .map(|(to, msg)| match msg {
                    Msg::GetChunkBatch { keys, .. } => keys.len(),
                    other => panic!("{entry:?}: {other:?} to {to:?} after the broadcast"),
                })
                .sum();
            assert_eq!(fetched as u64, query.len, "{entry:?}");
        }
    }

    /// A two-provider metadata ring, each provider answering from a real
    /// `MetaStore` that holds its partition of `nodes`.
    const META_B: NodeId = NodeId(4);
    const RING: [NodeId; 2] = [META, META_B];

    fn ring_stores(nodes: Vec<(NodeKey, MetaNode)>) -> [MetaStore; 2] {
        let mut stores = [MetaStore::new(), MetaStore::new()];
        for (k, n) in nodes {
            stores[partition(&k, RING.len())].put(k, n);
        }
        stores
    }

    /// Run a one-shot write of page `pg` of a `pages`-page BLOB, publishing
    /// `version` on `base`, against a scripted deployment whose metadata
    /// ring answers from `stores` and keeps what the write puts. Returns
    /// every `(target, message)` the client sent after its chunk was
    /// acknowledged.
    fn write_page(
        c: &mut ClientCore,
        env: &mut TestEnv,
        stores: &mut [MetaStore; 2],
        (version, pg, pages, page): (u64, u64, u64, u64),
        base: BaseSnapshot,
    ) -> Vec<(NodeId, &'static str)> {
        use sads_sim::Message;
        let (blob, kind, data) = (BlobId(5), WriteKind::At(pg * page), Payload::Sim(page));
        assert!(c.start_op(env, ClientOp::Write { blob, kind, data }, 1).is_empty());
        let mut queue: std::collections::VecDeque<_> = env.take_sent().into();
        let (mut after_chunk, mut acked, mut done) = (vec![], false, vec![]);
        while let Some((to, msg)) = queue.pop_front() {
            if acked {
                after_chunk.push((to, msg.op_name()));
            }
            let at = RING.iter().position(|m| *m == to);
            let reply = match msg {
                Msg::Ticket { req, .. } => {
                    let (version, offset, new_size) = (VersionId(version), pg * page, pages * page);
                    let (len, page_size, replication, pending) = (page, page, 1, vec![]);
                    let ticket = WriteTicket {
                        blob, version, offset, len, page_size, replication, new_size, base, pending,
                    };
                    Msg::TicketOk { req, ticket }
                }
                Msg::Alloc { req, .. } => Msg::AllocOk { req, placement: vec![vec![PROV_A]] },
                Msg::PutChunkBatch { req, .. } => {
                    acked = true;
                    Msg::PutChunkOk { req }
                }
                Msg::GetMeta { req, keys } => {
                    let s = &stores[at.unwrap()];
                    let nodes = keys.iter().map(|k| (*k, s.get(k).cloned())).collect();
                    Msg::GetMetaOk { req, nodes }
                }
                Msg::GetMetaRange { req, blob, version, query, after, max_nodes } => {
                    let s = &stores[at.unwrap()];
                    let (nodes, more) = s.range_cover(blob, version, &query, after, max_nodes as _);
                    Msg::GetMetaRangeOk { req, nodes, more }
                }
                Msg::PutMeta { req, nodes } => {
                    for (k, n) in nodes {
                        assert!(stores[at.unwrap()].put(k, n), "{k:?} stored twice");
                    }
                    Msg::PutMetaOk { req }
                }
                Msg::Commit { req, version, .. } => Msg::CommitOk { req, version },
                other => panic!("unscripted message {other:?}"),
            };
            done.extend(c.handle_msg(env, to, reply));
            queue.extend(env.take_sent());
        }
        let [Completion { result: Ok(OpOutput::Written { version: v, .. }), .. }] = done[..] else {
            panic!("{done:?}")
        };
        assert_eq!(v, VersionId(version));
        after_chunk
    }

    /// The write-side twin of the read test above: a single-page write
    /// into a depth-15 tree whose client cache is cold resolves its base
    /// tree in one range query per provider — no per-level `GetMeta` —
    /// then stores its nodes and commits.
    #[test]
    fn cold_write_of_a_depth_15_tree_resolves_in_one_broadcast() {
        let (pages, page) = (1u64 << 15, 8u64);
        let (nodes, root) = stored_tree(pages, page, vec![PROV_A]);
        let mut stores = ring_stores(nodes);
        for pg in [pages / 2 - 3, 0, pages - 1] {
            let mut env = TestEnv::new();
            let mut c =
                ClientCore::new(ClientId(7), VMAN, PMAN, RING.to_vec(), ClientConfig::default());
            let base = BaseSnapshot { version: VersionId(1), size: pages * page, root: Some(root) };
            let sent = write_page(&mut c, &mut env, &mut stores, (2, pg, pages, page), base);
            let (resolve, rest) = sent.split_at(2);
            assert_eq!(resolve, [(META, "GetMetaRange"), (META_B, "GetMetaRange")], "page {pg}");
            let (commit, puts) = rest.split_last().unwrap();
            assert_eq!(*commit, (VMAN, "Commit"));
            assert!(!puts.is_empty() && puts.iter().all(|(_, m)| *m == "PutMeta"), "{sent:?}");
            // Each page's version-2 nodes went to a fresh pair of stores.
            stores = ring_stores(stored_tree(pages, page, vec![PROV_A]).0);
        }
    }

    /// The message rule's other side: once the cache holds all but the
    /// bottom of the path, a write walks the rest per node. A broadcast
    /// costs one message per provider, so it goes out only when more
    /// levels are left than there are providers — here two.
    #[test]
    fn a_write_missing_only_the_bottom_levels_walks_them_per_node() {
        let (pages, page) = (1u64 << 15, 8u64);
        let (nodes, root) = stored_tree(pages, page, vec![PROV_A]);
        let mut stores = ring_stores(nodes);
        let mut env = TestEnv::new();
        let cfg = ClientConfig::default();
        let mut c = ClientCore::new(ClientId(7), VMAN, PMAN, RING.to_vec(), cfg);
        let (p, size) = (pages / 2 - 3, pages * page);
        let mut base = BaseSnapshot { version: VersionId(1), size, root: Some(root) };
        // Cold: one broadcast fetches the path to `p`.
        let sent = write_page(&mut c, &mut env, &mut stores, (2, p, pages, page), base);
        assert_eq!(sent.iter().filter(|(_, m)| *m == "GetMetaRange").count(), 2, "{sent:?}");
        // `p ^ 2` shares all of it but the parent of its leaf; `p ^ 4` all
        // but the last two levels — as many as there are providers.
        for (version, pg, walked) in [(3, p ^ 2, 1), (4, p ^ 4, 2)] {
            let root = c.cx.meta_cache.keys().filter(|k| k.version.0 == version - 1);
            let root = root.max_by_key(|k| k.range.len).expect("the last write's root");
            let root = NodeRef::Node { version: root.version, range: root.range };
            base = BaseSnapshot { version: VersionId(version - 1), size, root: Some(root) };
            let sent = write_page(&mut c, &mut env, &mut stores, (version, pg, pages, page), base);
            let gets = sent.iter().take_while(|(_, m)| *m == "GetMeta").count();
            assert_eq!(gets, walked, "{sent:?}");
            assert!(sent[gets..].iter().all(|(_, m)| *m == "PutMeta" || *m == "Commit"));
        }
    }

    /// Repair patches a leaf's replicas in place, so a range reply must
    /// replace a cached copy of a node, not yield to it. A write's bulk
    /// resolve carries the leaf of its own page at the base version; a
    /// later read of that version then fetches from the patched replica.
    #[test]
    fn a_range_reply_replaces_a_cached_leaf_whose_replicas_were_patched() {
        let (pages, page) = (1u64 << 15, 8u64);
        let (nodes, root) = stored_tree(pages, page, vec![PROV_B]);
        let p = pages / 2 - 3;
        let leaf = NodeKey { blob: BlobId(5), version: VersionId(1), range: NodeRange::new(p, 1) };
        let mut stale = nodes.iter().find(|(k, _)| *k == leaf).unwrap().1.clone();
        let MetaNode::Leaf { chunk } = &mut stale else { panic!("{stale:?}") };
        chunk.replicas = vec![PROV_A];
        let mut stores = ring_stores(nodes);
        let mut env = TestEnv::new();
        let cfg = ClientConfig::default();
        let mut c = ClientCore::new(ClientId(7), VMAN, PMAN, RING.to_vec(), cfg);
        c.cx.meta_cache.insert(leaf, stale);
        let base = BaseSnapshot { version: VersionId(1), size: pages * page, root: Some(root) };
        write_page(&mut c, &mut env, &mut stores, (2, p, pages, page), base);
        let Some(MetaNode::Leaf { chunk }) = c.cx.meta_cache.get(&leaf) else { panic!() };
        assert_eq!(chunk.replicas, [PROV_B]);
        // Version 1's path to `p` is cached whole: the read goes straight
        // to the chunk, at the replica repair left.
        let (blob, version, offset, len) = (BlobId(5), Some(VersionId(1)), p * page, page);
        assert!(c.start_op(&mut env, ClientOp::Read { blob, version, offset, len }, 2).is_empty());
        let (_, msg) = env.take_sent().pop().unwrap();
        let Msg::GetVersion { req, .. } = msg else { panic!("{msg:?}") };
        let (size, page_size, root) = (pages * page, page, Some(root));
        let info = VersionInfo { version: VersionId(1), size, page_size, root };
        assert!(c.handle_msg(&mut env, VMAN, Msg::GetVersionOk { req, info }).is_empty());
        let sent = env.take_sent();
        let fetch = matches!(sent[..], [(_, Msg::GetChunkBatch { .. })]);
        assert!(fetch && sent[0].0 == PROV_B, "{sent:?}");
    }

    #[test]
    fn batch_timeout_resubmits_each_item_individually() {
        for entry in ENTRIES {
            let mut env = TestEnv::new();
            let mut c = core();
            let (pages, page) = (2u64, 8u64);
            // Both replicas on the same provider: the batch has one possible
            // target, and the per-item walk still has somewhere to go.
            let (nodes, root) = stored_tree(pages, page, vec![PROV_A, PROV_A]);
            open_read(&mut c, &mut env, entry, pages, page, nodes, root);
            // One batch, guarded by one shared deadline.
            let sent = env.take_sent();
            assert_eq!(sent.len(), 1, "{sent:?}");
            let Msg::GetChunkBatch { keys, .. } = &sent[0].1 else { panic!("{:?}", sent[0].1) };
            assert_eq!(keys.len(), 2);
            let timers_before = env.timers.len();
            // The provider never answers: the batch deadline fires once and
            // every item re-enters the per-chunk replica walk on its own.
            assert!(env.fire_deadline(&mut c).is_empty());
            let sent = env.take_sent();
            assert_eq!(sent.len(), 2, "per-item resubmission: {sent:?}");
            let reqs: Vec<(u64, ChunkKey)> = sent
                .iter()
                .map(|(to, m)| {
                    assert_eq!(*to, PROV_A);
                    let Msg::GetChunkBatch { req, keys, .. } = m else { panic!("{m:?}") };
                    assert_eq!(keys.len(), 1, "{m:?}");
                    (*req, keys[0])
                })
                .collect();
            assert_eq!(
                env.timers.len(),
                timers_before + 1,
                "one timer stands for both resubmissions' deadlines"
            );
            let due = env.pending.iter().map(|t| t.0).min();
            assert_eq!(due, Some(env.now + ClientConfig::default().chunk_timeout));
            let mut done = vec![];
            for (req, key) in reqs {
                done = c.handle_msg(&mut env, PROV_A, got(req, key, page));
            }
            assert_eq!(done.len(), 1);
            assert!(done[0].result.is_ok(), "{:?}", done[0].result);
        }
    }

    #[test]
    fn partial_batch_failure_retries_only_the_missing_item() {
        for entry in ENTRIES {
            let mut env = TestEnv::new();
            let mut c = core();
            let (pages, page) = (2u64, 8u64);
            let (nodes, root) = stored_tree(pages, page, vec![PROV_A, PROV_A]);
            open_read(&mut c, &mut env, entry, pages, page, nodes, root);
            let sent = env.take_sent();
            let (_, Msg::GetChunkBatch { req, keys, .. }) = sent.into_iter().next().unwrap() else {
                panic!()
            };
            // One hit, one per-item miss: only the miss is retried.
            let items = vec![
                (keys[0], Ok(Payload::Sim(page))),
                (keys[1], Err(ChunkErr::NotFound)),
            ];
            assert!(c.handle_msg(&mut env, PROV_A, Msg::GetChunkBatchOk { req, items }).is_empty());
            let sent = env.take_sent();
            assert_eq!(sent.len(), 1, "{sent:?}");
            let (to, Msg::GetChunkBatch { req, keys: retry, .. }) =
                sent.into_iter().next().unwrap()
            else {
                panic!()
            };
            assert_eq!(to, PROV_A);
            assert_eq!(retry, [keys[1]]);
            let done = c.handle_msg(&mut env, PROV_A, got(req, keys[1], page));
            assert_eq!(done.len(), 1);
            assert!(done[0].result.is_ok(), "{:?}", done[0].result);
        }
    }

    #[test]
    fn read_of_out_of_bounds_offset_errors() {
        let mut env = TestEnv::new();
        let mut c = core();
        c.start_op(
            &mut env,
            ClientOp::Read { blob: BlobId(5), version: None, offset: 100, len: 8 },
            3,
        );
        let (_, msg) = env.take_sent().pop().unwrap();
        let Msg::GetVersion { req, .. } = msg else { panic!() };
        let done = c.handle_msg(
            &mut env,
            VMAN,
            Msg::GetVersionOk {
                req,
                info: VersionInfo {
                    version: VersionId(1),
                    size: 8,
                    page_size: 8,
                    root: None,
                },
            },
        );
        assert!(matches!(done[0].result, Err(BlobError::OutOfBounds { .. })));
    }

    #[test]
    fn zero_length_read_completes_immediately() {
        let mut env = TestEnv::new();
        let mut c = core();
        c.start_op(
            &mut env,
            ClientOp::Read { blob: BlobId(5), version: None, offset: 0, len: 0 },
            3,
        );
        let (_, msg) = env.take_sent().pop().unwrap();
        let Msg::GetVersion { req, .. } = msg else { panic!() };
        let done = c.handle_msg(
            &mut env,
            VMAN,
            Msg::GetVersionOk {
                req,
                info: VersionInfo {
                    version: VersionId(2),
                    size: 8,
                    page_size: 8,
                    root: None,
                },
            },
        );
        assert_eq!(done.len(), 1);
        let Ok(OpOutput::Read { data, .. }) = &done[0].result else { panic!() };
        assert_eq!(data.len(), 0);
    }

    /// A published version never changes, so a client asks the version
    /// manager about a pinned version once: a repeat of the first pinned
    /// read sends no `GetVersion` and fetches the same chunks, a latest
    /// read always asks, and the next version asks. A repeated pinned
    /// stream open, its tree cached too, is open when `start_op` returns.
    #[test]
    fn a_repeated_pinned_read_skips_the_version_manager() {
        let (pages, page) = (4u64, 8u64);
        let (nodes, root) = stored_tree(pages, page, vec![PROV_A]);
        let (mut env, mut c) = (TestEnv::new(), core());
        let mut fetched = Vec::new();
        for (version, asks) in [(Some(1), 1), (Some(1), 0), (None, 1), (None, 1), (Some(2), 1)] {
            let (blob, version, len) = (BlobId(5), version.map(VersionId), pages * page);
            let mut done = c.start_op(&mut env, ClientOp::Read { blob, version, offset: 0, len }, 1);
            let (wire, more) = serve(&mut c, &mut env, pages, page, &nodes, Some(root));
            done.extend(more);
            assert_eq!(read_len(&done), len);
            let asked = wire.iter().filter(|l| l.contains("GetVersion")).count();
            assert_eq!(asked, asks, "{version:?}: {wire:#?}");
            let batch = wire.iter().find(|l| l.contains("GetChunkBatch")).expect("a chunk fetch");
            fetched.push(batch[batch.find("keys").expect("keys")..].to_owned());
        }
        assert!(fetched.windows(2).all(|w| w[0] == w[1]), "{fetched:#?}");
        assert_eq!(env.reg.counter_total("client.version_hits"), 1);

        let (blob, version) = (BlobId(5), Some(VersionId(1)));
        let open = ClientOp::OpenReadStream { blob, version, offset: 0, len: pages * page };
        let done = c.start_op(&mut env, open, 2);
        assert!(env.take_sent().is_empty() && done.len() == 1, "{done:?}");
        let Ok(OpOutput::ReadStreamOpened { stream, .. }) = done[0].result else { panic!() };
        assert!(c.start_op(&mut env, ClientOp::ReadStreamNext { stream }, 3).is_empty());
        let (wire, done) = serve(&mut c, &mut env, pages, page, &nodes, Some(root));
        assert_eq!((wire.len(), read_len(&done)), (1, pages * page), "{wire:#?}");
    }

    /// Start a pinned zero-length read of version `v`, answer the
    /// `GetVersion` it sends, if any, and say whether it sent one.
    fn asks_for(c: &mut ClientCore, env: &mut TestEnv, v: u64) -> bool {
        let (blob, version) = (BlobId(5), Some(VersionId(v)));
        let mut done = c.start_op(env, ClientOp::Read { blob, version, offset: 0, len: 0 }, v);
        let sent = env.take_sent();
        let asked = !sent.is_empty();
        for (_, msg) in sent {
            let Msg::GetVersion { req, .. } = msg else { panic!("{msg:?}") };
            let info = VersionInfo { version: VersionId(v), size: 8, page_size: 8, root: None };
            done.extend(c.handle_msg(env, VMAN, Msg::GetVersionOk { req, info }));
        }
        assert!(matches!(done[..], [Completion { result: Ok(OpOutput::Read { .. }), .. }]));
        asked
    }

    /// The version cache holds 256 versions, first in first out.
    #[test]
    fn the_257th_pinned_version_evicts_the_first() {
        let (mut env, mut c) = (TestEnv::new(), core());
        assert!((1..=257).all(|v| asks_for(&mut c, &mut env, v)));
        assert!(!asks_for(&mut c, &mut env, 2), "version 2 is still cached");
        assert!(asks_for(&mut c, &mut env, 1), "version 1 went first");
    }

    #[test]
    fn replies_from_unknown_requests_are_ignored() {
        let mut env = TestEnv::new();
        let mut c = core();
        assert!(c.handle_msg(&mut env, VMAN, Msg::PutChunkOk { req: 999 }).is_empty());
        assert!(c
            .handle_msg(&mut env, VMAN, Msg::CreateBlobOk { req: 1, blob: BlobId(1) })
            .is_empty());
    }

    /// The state a stream sub-operation finds its session in.
    #[derive(Clone, Copy, Debug)]
    enum Found {
        /// A write stream, open, nothing fed.
        WriteOpen,
        /// A write stream whose open is parked on its ticket.
        WriteOpening,
        /// A write stream fed 8 real bytes.
        WriteFedData,
        /// A write stream fed 8 size-only bytes.
        WriteFedSim,
        /// A write stream with a feed parked on a one-slot window.
        WriteFeedParked,
        /// A write stream with its commit parked on unanswered puts.
        WriteCommitParked,
        /// A write stream whose put was refused while nothing was parked.
        WriteFailed,
        /// A one-shot write, parked on its ticket.
        OneShotWrite,
        /// A read stream, open, nothing pulled.
        ReadOpen,
        /// A read stream whose open is parked on the version lookup.
        ReadOpening,
        /// A read stream with a pull parked on its chunk fetch.
        ReadNextParked,
        /// A create, parked on the version manager.
        Create,
    }

    /// A fresh client holding one session, id 1, in state `found`: two
    /// 8-byte pages declared or stored, nothing answered past that state.
    fn session_in(found: Found) -> (ClientCore, TestEnv) {
        use Found::*;
        let (pages, page) = (2u64, 8u64);
        let window = if matches!(found, WriteFeedParked) { 1 } else { 32 };
        let cfg = ClientConfig { chunk_window: window, ..ClientConfig::default() };
        let mut c = ClientCore::new(ClientId(7), VMAN, PMAN, vec![META], cfg);
        let mut env = TestEnv::new();
        let sim = Payload::Sim(pages * page);
        match found {
            WriteOpening => start_write(&mut c, &mut env, Entry::Stream, sim, 1),
            OneShotWrite => start_write(&mut c, &mut env, Entry::OneShot, sim, 1),
            ReadOpening => start_read(&mut c, &mut env, Entry::Stream, pages * page, 1),
            Create => {
                let op = ClientOp::Create { spec: BlobSpec::default() };
                assert!(c.start_op(&mut env, op, 1).is_empty());
            }
            ReadOpen | ReadNextParked => {
                let (nodes, root) = stored_tree(pages, page, vec![PROV_A]);
                start_read(&mut c, &mut env, Entry::Stream, pages * page, 1);
                let (_, done) = serve(&mut c, &mut env, pages, page, &nodes, Some(root));
                let opened = &done[0].result;
                assert!(matches!(opened, Ok(OpOutput::ReadStreamOpened { stream: 1, .. })));
                if matches!(found, ReadNextParked) {
                    let next = ClientOp::ReadStreamNext { stream: 1 };
                    assert!(c.start_op(&mut env, next, 2).is_empty());
                }
            }
            WriteOpen | WriteFedData | WriteFedSim | WriteFeedParked | WriteCommitParked
            | WriteFailed => {
                start_write(&mut c, &mut env, Entry::Stream, sim, 1);
                let (_, done) = serve(&mut c, &mut env, pages, page, &[], None);
                let opened = &done[0].result;
                assert!(matches!(opened, Ok(OpOutput::WriteStreamOpened { stream: 1, .. })));
                let data = match found {
                    WriteOpen => return (c, env),
                    WriteFedData => Payload::Data(Bytes::from(vec![1u8; 8])),
                    WriteFedSim | WriteFailed => Payload::Sim(8),
                    _ => Payload::Data(Bytes::from(vec![1u8; 16])),
                };
                let fed = c.start_op(&mut env, ClientOp::FeedWriteStream { stream: 1, data }, 2);
                assert_eq!(fed.is_empty(), matches!(found, WriteFeedParked), "{found:?}");
                if matches!(found, WriteCommitParked) {
                    let commit = ClientOp::CommitWriteStream { stream: 1 };
                    assert!(c.start_op(&mut env, commit, 3).is_empty());
                }
                if matches!(found, WriteFailed) {
                    let (_, put) = env.take_sent().remove(0);
                    let Msg::PutChunkBatch { req, .. } = put else { panic!("{put:?}") };
                    let refused = Msg::PutChunkErr { req, err: ChunkErr::Blocked };
                    assert!(c.handle_msg(&mut env, PROV_A, refused).is_empty());
                }
            }
        }
        assert_eq!(c.active_ops(), 1);
        (c, env)
    }

    /// Every misuse of a stream sub-operation — feed, feed-zeros, commit,
    /// next, close — gets its own error, and either leaves the session as
    /// it was or reaps it. A parked open, feed, commit or pull always
    /// trips "already in flight" before any phase check could.
    #[test]
    fn stream_misuse_matrix() {
        use Found::*;
        type Row = (Found, fn(u64) -> ClientOp, u64, Vec<Result<OpOutput, BlobError>>, bool);
        let feed: fn(u64) -> ClientOp =
            |stream| ClientOp::FeedWriteStream { stream, data: Payload::Sim(8) };
        let zeros: fn(u64) -> ClientOp = |stream| ClientOp::FeedZeros { stream, len: 8 };
        let commit: fn(u64) -> ClientOp = |stream| ClientOp::CommitWriteStream { stream };
        let next: fn(u64) -> ClientOp = |stream| ClientOp::ReadStreamNext { stream };
        let abort: fn(u64) -> ClientOp = |stream| ClientOp::AbortWriteStream { stream };
        let close: fn(u64) -> ClientOp = |stream| ClientOp::CloseReadStream { stream };
        let feed_9: fn(u64) -> ClientOp =
            |stream| ClientOp::FeedWriteStream { stream, data: Payload::Sim(9) };
        let feed_17: fn(u64) -> ClientOp =
            |stream| ClientOp::FeedWriteStream { stream, data: Payload::Sim(17) };
        let zeros_17: fn(u64) -> ClientOp = |stream| ClientOp::FeedZeros { stream, len: 17 };
        let feed_data: fn(u64) -> ClientOp = |stream| {
            let data = Payload::Data(Bytes::from(vec![1u8; 8]));
            ClientOp::FeedWriteStream { stream, data }
        };
        let err = |m: &'static str| vec![Err(BlobError::Protocol(m))];
        let closed = |stream| Ok(OpOutput::StreamClosed { stream });
        let unknown = || err("unknown stream");
        let not_write = || err("not a write stream");
        let not_read = || err("not a read stream");
        let in_flight = || err("stream sub-operation already in flight");
        let over = || err("feed exceeds the declared stream length");
        let mixed = || err("mixed real and simulated payloads in one stream");
        let closed_parked = || vec![Err(BlobError::Protocol("stream closed")), closed(1)];
        let blocked = || vec![Err(BlobError::Blocked(ClientId(7)))];
        let rows: Vec<Row> = vec![
            // Unknown stream id: the session that does exist is untouched.
            (WriteOpen, feed, 999, unknown(), true),
            (WriteOpen, zeros, 999, unknown(), true),
            (WriteOpen, commit, 999, unknown(), true),
            (WriteOpen, next, 999, unknown(), true),
            (WriteOpen, abort, 999, vec![closed(999)], true),
            // Wrong session kind.
            (ReadOpen, feed, 1, not_write(), true),
            (ReadOpen, zeros, 1, not_write(), true),
            (ReadOpen, commit, 1, not_write(), true),
            (WriteOpen, next, 1, not_read(), true),
            (Create, feed, 1, not_write(), true),
            (Create, zeros, 1, not_write(), true),
            (Create, commit, 1, not_write(), true),
            (Create, next, 1, not_read(), true),
            (Create, close, 1, err("not a stream"), true),
            // A sub-operation already parked; close ends it.
            (WriteFeedParked, feed, 1, in_flight(), true),
            (WriteFeedParked, zeros, 1, in_flight(), true),
            (WriteFeedParked, commit, 1, in_flight(), true),
            (WriteFeedParked, abort, 1, closed_parked(), false),
            (ReadNextParked, next, 1, in_flight(), true),
            (ReadNextParked, close, 1, closed_parked(), false),
            // Wrong phase: only ever reached while something is parked.
            (WriteOpening, feed, 1, in_flight(), true),
            (WriteOpening, zeros, 1, in_flight(), true),
            (WriteOpening, commit, 1, in_flight(), true),
            (WriteOpening, abort, 1, closed_parked(), false),
            (WriteCommitParked, feed, 1, in_flight(), true),
            (WriteCommitParked, commit, 1, in_flight(), true),
            (OneShotWrite, feed, 1, in_flight(), true),
            (OneShotWrite, abort, 1, closed_parked(), false),
            (ReadOpening, next, 1, in_flight(), true),
            // Over-feed past the declared 16 bytes.
            (WriteOpen, feed_17, 1, over(), false),
            (WriteOpen, zeros_17, 1, over(), false),
            (WriteFedSim, feed_9, 1, over(), false),
            // Mixed real and size-only payloads.
            (WriteFedData, feed, 1, mixed(), false),
            (WriteFedSim, feed_data, 1, mixed(), false),
            // Commit before the declared length.
            (WriteFedSim, commit, 1, err("commit before the declared length was fed"), false),
            // A stored fatal failure ends the stream at the next
            // sub-operation, whichever it is; close just closes.
            (WriteFailed, feed, 1, blocked(), false),
            (WriteFailed, zeros, 1, blocked(), false),
            (WriteFailed, commit, 1, blocked(), false),
            (WriteFailed, next, 1, blocked(), false),
            (WriteFailed, abort, 1, vec![closed(1)], false),
        ];
        for (found, op, stream, want, survives) in rows {
            let (mut c, mut env) = session_in(found);
            let op = op(stream);
            let what = format!("{op:?} on {found:?}");
            let got: Vec<_> = c.start_op(&mut env, op, 100).into_iter().map(|d| d.result).collect();
            assert_eq!(got, want, "{what}");
            assert_eq!(c.active_ops(), survives as usize, "session survives {what}");
        }
    }
}
