//! Streaming write/read handles with bounded per-connection memory.
//!
//! The client core has one write session and one read session, and both
//! are streams; these handles are their public face. A whole-buffer
//! [`write`](crate::runtime::threaded::ClientHandle::write) or
//! [`read`](crate::runtime::threaded::ClientHandle::read) is the one-shot
//! use of the same session (open + feed + commit, or open + next-to-eof,
//! folded into one [`ClientOp`] inside the core), which materializes the
//! full object in the caller *and* in the client cell; a multi-GB object
//! through a gateway connection is a non-starter for the
//! millions-of-users target. The handles here move the same bytes through
//! the same protocol code chunk-at-a-time:
//!
//! * [`BlobWriteHandle`] — [`feed`](BlobWriteHandle::feed) accepts byte
//!   slices of any size; the client cell cuts full pages as enough bytes
//!   accumulate and ships them through the pipelined/batched write path
//!   under `chunk_window`. A feed blocks only while the window is full
//!   (backpressure), so the cell never buffers more than
//!   `chunk_window × page_size` bytes — asserted live by the
//!   `client.stream_buffered_bytes` high-water gauge.
//!   [`feed_zeros`](BlobWriteHandle::feed_zeros) declares zeros instead
//!   of supplying them: writes are whole pages, and a caller whose bytes
//!   end mid-page says so, which stores the page at its true length.
//!   [`commit`](BlobWriteHandle::commit) publishes the version.
//! * [`BlobReadHandle`] — the chunk plan for the whole range is resolved
//!   once at open (the one-round-trip `GetMetaRange` descent); the cell
//!   then fetches at most `chunk_window` pages per pull via batched chunk
//!   fetches and answers with the pages themselves, and
//!   [`next`](BlobReadHandle::next) hands them out one per call: O(window)
//!   memory for any object size.
//!
//! # What copies, where, how many times
//!
//! A stored page is a refcounted [`Bytes`]; a provider answers a fetch
//! with a clone of it (the in-process network does not serialise), and
//! `Bytes::from(Vec)` / `BytesMut::freeze` move their allocation. From
//! there:
//!
//! * **Stream read: never.** A pull completes with a rope — the fetched
//!   pages in order, the first and last narrowed to the requested range
//!   by [`Bytes::slice`], a zero segment per hole — and `next` pops one
//!   segment from the handle's cursor. Only the first `next` of a window
//!   crosses into the client cell.
//! * **One-shot read: never when the pages are one buffer's, else
//!   once**, because `read -> Bytes` promises one contiguous buffer. When
//!   every page of the range is stored whole over its cut and each is the
//!   next view of one buffer ([`Bytes::try_join`]: one write's pages, or
//!   a single page), the result is one view of that buffer (zero copies).
//!   Otherwise — pages of different writes or buffers, chunks recovered
//!   from a disk log, holes, declared-zero tails — it is allocated once at
//!   its final size and each page's bytes are written once to their
//!   place, holes zero-filled in place. `client.read_copied_bytes` counts
//!   exactly those bytes.
//! * **Stream write: only a sub-page feed with more bytes behind it,
//!   once.** Whole pages are cut off the fed buffer as views, and so is a
//!   sub-page tail that declared zeros complete; bytes are copied into
//!   the accumulator — sized by what was fed, at most a page — only when
//!   a later feed lands in the same page, and the accumulator moves into
//!   the page it becomes. Declared zeros are never allocated, written
//!   or sent.
//!
//! # A chunk shorter than its page
//!
//! A stored chunk holds at most a page and may hold less: its writer
//! declared the rest of the page zeros. Every read path zero-extends it
//! to the page — a one-shot read fills the tail in place in its buffer, a
//! stream read delivers it as a zero segment behind the chunk's view —
//! so a version's bytes never depend on how its zeros were fed. BLOB
//! sizes, tickets and page intervals count whole pages as before.
//!
//! `tests/read_copies.rs` and `tests/put_copies.rs` gate the two sides
//! with a counting allocator.
//!
//! Both handles are thin blocking adapters over the threaded runtime's
//! one blocking call: a sub-operation (`feed`, `commit`, a `next` that
//! needs a new window) is one [`ClientOp`] injected into the client cell's
//! mailbox, completing synchronously when the stream has headroom, and
//! waited for like any other call (the caller may run the cells itself).
//! Dropping a handle without committing/closing aborts the stream
//! fire-and-forget, so the cell's session is reclaimed without blocking
//! the dropping thread.

use std::collections::VecDeque;

use bytes::Bytes;
use sads_sim::TraceCtx;

use crate::client::{ClientOp, OpOutput};
use crate::model::{BlobError, BlobId, Payload, VersionId};
use crate::runtime::threaded::ClientHandle;
use crate::vmanager::WriteKind;

/// An open write stream: push bytes with [`feed`](Self::feed), publish
/// with [`commit`](Self::commit). Created by
/// [`ClientHandle::open_write_stream`].
///
/// The declared length is fixed at open (the ticket and chunk placement
/// cover exactly that many bytes); feeding past it or committing short is
/// a protocol error that aborts the stream.
pub struct BlobWriteHandle {
    client: ClientHandle,
    stream: u64,
    version: VersionId,
    offset: u64,
    declared: u64,
    page_size: u64,
    fed: u64,
    trace: Option<TraceCtx>,
    done: bool,
}

impl BlobWriteHandle {
    pub(crate) fn new(
        client: ClientHandle,
        stream: u64,
        version: VersionId,
        offset: u64,
        declared: u64,
        page_size: u64,
        trace: Option<TraceCtx>,
    ) -> Self {
        BlobWriteHandle {
            client,
            stream,
            version,
            offset,
            declared,
            page_size,
            fed: 0,
            trace,
            done: false,
        }
    }

    /// The version this stream will publish on commit.
    pub fn version(&self) -> VersionId {
        self.version
    }

    /// Byte offset the stream writes at.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The BLOB's page size (the streaming chunk granularity).
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Bytes fed so far.
    pub fn fed(&self) -> u64 {
        self.fed
    }

    /// Bytes still owed before [`commit`](Self::commit) is legal.
    pub fn remaining(&self) -> u64 {
        self.declared - self.fed
    }

    /// Push bytes into the stream. Slices of any size are accepted; the
    /// handle forwards at most one page per sub-operation (zero-copy
    /// sub-slices of `data`), which is what keeps the client cell's
    /// buffered bytes under `chunk_window × page_size`: a feed only
    /// blocks while the pipeline window is full.
    pub fn feed(&mut self, data: Bytes) -> Result<(), BlobError> {
        let total = data.len();
        let mut at = 0usize;
        while at < total {
            let take = (self.page_size as usize).max(1).min(total - at);
            let piece = if at == 0 && take == total {
                data.clone()
            } else {
                data.slice(at..at + take)
            };
            match self.sub_op(ClientOp::FeedWriteStream {
                stream: self.stream,
                data: Payload::Data(piece),
            })? {
                OpOutput::Fed { .. } => {}
                _ => return Err(BlobError::Protocol("wrong output for feed")),
            }
            at += take;
            self.fed += take as u64;
        }
        Ok(())
    }

    /// Declare the next `len` bytes of the stream to be zeros without
    /// supplying them. They count toward the declared length exactly as
    /// fed bytes do. Zeros that run to a page boundary store that page
    /// at the length of the bytes fed into it (nothing at all for a page
    /// of zeros) and readers zero-extend it; zeros with more bytes fed
    /// behind them in the same page are written out into it. No memory
    /// is held for them, so one call takes any length.
    pub fn feed_zeros(&mut self, len: u64) -> Result<(), BlobError> {
        if len == 0 {
            return Ok(());
        }
        match self.sub_op(ClientOp::FeedZeros { stream: self.stream, len })? {
            OpOutput::Fed { .. } => {}
            _ => return Err(BlobError::Protocol("wrong output for feed_zeros")),
        }
        self.fed += len;
        Ok(())
    }

    /// Publish the stream's version. Every declared byte must have been
    /// fed. On success the handle is consumed and the new version id
    /// returned, beside the CRC-32C of the bytes the stream stored
    /// (declared zeros behind the last fed byte of a page are not
    /// covered; see [`OpOutput::Written`]).
    pub fn commit(mut self) -> Result<(VersionId, u32), BlobError> {
        self.done = true;
        match self.sub_op(ClientOp::CommitWriteStream { stream: self.stream })? {
            OpOutput::Written { version, crc, .. } => Ok((version, crc)),
            _ => Err(BlobError::Protocol("wrong output for commit")),
        }
    }

    /// Abandon the stream without publishing. The allocated version
    /// never becomes visible.
    pub fn abort(mut self) -> Result<(), BlobError> {
        self.done = true;
        match self.sub_op(ClientOp::AbortWriteStream { stream: self.stream })? {
            OpOutput::StreamClosed { .. } => Ok(()),
            _ => Err(BlobError::Protocol("wrong output for abort")),
        }
    }

    fn sub_op(&self, op: ClientOp) -> Result<OpOutput, BlobError> {
        self.client.run(op, self.trace)
    }
}

impl Drop for BlobWriteHandle {
    fn drop(&mut self) {
        if !self.done {
            // Fire-and-forget: reclaim the cell's session without
            // blocking the dropping thread on the reply.
            let _ = self
                .client
                .submit(ClientOp::AbortWriteStream { stream: self.stream }, self.trace);
        }
    }
}

impl std::fmt::Debug for BlobWriteHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlobWriteHandle")
            .field("stream", &self.stream)
            .field("version", &self.version)
            .field("offset", &self.offset)
            .field("declared", &self.declared)
            .field("fed", &self.fed)
            .finish()
    }
}

/// An open read stream: pull successive segments with
/// [`next`](Self::next) until it returns `None`. Created by
/// [`ClientHandle::open_read_stream`].
///
/// The client cell answers one pull with a whole window of pages as a
/// rope of refcounted views; the handle keeps that rope and hands out one
/// segment per `next`, so only the first `next` of each window crosses
/// into the cell and no byte is copied on the way to the caller.
pub struct BlobReadHandle {
    client: ClientHandle,
    stream: u64,
    version: VersionId,
    len: u64,
    page_size: u64,
    delivered: u64,
    /// Segments of the current window not yet handed out.
    window: VecDeque<Bytes>,
    trace: Option<TraceCtx>,
    /// The cell's session is gone (eof window received, or closed).
    done: bool,
}

impl BlobReadHandle {
    pub(crate) fn new(
        client: ClientHandle,
        stream: u64,
        version: VersionId,
        len: u64,
        page_size: u64,
        trace: Option<TraceCtx>,
    ) -> Self {
        BlobReadHandle {
            client,
            stream,
            version,
            len,
            page_size,
            delivered: 0,
            window: VecDeque::new(),
            trace,
            done: false,
        }
    }

    /// The version being read.
    pub fn version(&self) -> VersionId {
        self.version
    }

    /// Total bytes this stream will deliver (the requested range clamped
    /// to the version's size).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the stream delivers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The BLOB's page size (the streaming chunk granularity).
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Bytes delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The next segment of the range — never empty, at most one page: a
    /// view of the stored page itself (the first and last trimmed to the
    /// range), or zeros for a hole or for the part of a page past the
    /// stored length of its chunk — or `None` once the range is
    /// exhausted. Fetches the next window of at most `chunk_window` pages
    /// when the current one is used up; the stream closes itself with
    /// the final window.
    // Not `Iterator`: delivery is fallible and an `Item = Result<_>`
    // iterator would let `for` loops silently drop stream errors.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Bytes>, BlobError> {
        if self.window.is_empty() && !self.done {
            match self.client.run(ClientOp::ReadStreamNext { stream: self.stream }, self.trace)? {
                OpOutput::ReadChunk { segments, eof, .. } => {
                    self.done = eof;
                    self.window.extend(segments.into_iter().map(|seg| match seg {
                        Payload::Data(b) => b,
                        Payload::Sim(n) => Bytes::from(vec![0u8; n as usize]),
                    }));
                }
                _ => return Err(BlobError::Protocol("wrong output for next")),
            }
        }
        let seg = self.window.pop_front();
        self.delivered += seg.as_ref().map_or(0, |b| b.len() as u64);
        Ok(seg)
    }

    /// Close the stream early (before eof). Idempotent.
    pub fn close(mut self) -> Result<(), BlobError> {
        if self.done {
            return Ok(());
        }
        self.done = true;
        match self.client.run(ClientOp::CloseReadStream { stream: self.stream }, self.trace)? {
            OpOutput::StreamClosed { .. } => Ok(()),
            _ => Err(BlobError::Protocol("wrong output for close")),
        }
    }
}

impl Drop for BlobReadHandle {
    fn drop(&mut self) {
        if !self.done {
            let _ = self
                .client
                .submit(ClientOp::CloseReadStream { stream: self.stream }, self.trace);
        }
    }
}

impl std::fmt::Debug for BlobReadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlobReadHandle")
            .field("stream", &self.stream)
            .field("version", &self.version)
            .field("len", &self.len)
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl ClientHandle {
    /// Open a streaming write of `len` bytes (`kind` picks append vs.
    /// write-at-offset). The returned handle owns one long-lived session
    /// in the client cell: chunk placement is allocated up front, pages
    /// ship as they are fed, and nothing is published until
    /// [`commit`](BlobWriteHandle::commit).
    pub fn open_write_stream(
        &self,
        blob: BlobId,
        kind: WriteKind,
        len: u64,
        trace: Option<TraceCtx>,
    ) -> Result<BlobWriteHandle, BlobError> {
        match self.run(ClientOp::OpenWriteStream { blob, kind, len }, trace)? {
            OpOutput::WriteStreamOpened { stream, version, offset, len, page_size } => Ok(
                BlobWriteHandle::new(self.clone(), stream, version, offset, len, page_size, trace),
            ),
            _ => Err(BlobError::Protocol("wrong output for open_write_stream")),
        }
    }

    /// Open a streaming read of `len` bytes at `offset` (latest version
    /// when `version` is `None`). The whole chunk plan is resolved at
    /// open — O(#pages) descriptors, no data — and each
    /// [`next`](BlobReadHandle::next) fetches at most `chunk_window`
    /// pages.
    pub fn open_read_stream(
        &self,
        blob: BlobId,
        version: Option<VersionId>,
        offset: u64,
        len: u64,
        trace: Option<TraceCtx>,
    ) -> Result<BlobReadHandle, BlobError> {
        match self.run(ClientOp::OpenReadStream { blob, version, offset, len }, trace)? {
            OpOutput::ReadStreamOpened { stream, version, len, page_size } => {
                Ok(BlobReadHandle::new(self.clone(), stream, version, len, page_size, trace))
            }
            _ => Err(BlobError::Protocol("wrong output for open_read_stream")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BlobSpec, ClientId};
    use crate::runtime::threaded::{Cluster, ClusterBuilder};

    const PAGE: u64 = 64 * 1024;

    fn small_cluster() -> Cluster {
        ClusterBuilder::new()
            .data_providers(4)
            .meta_providers(2)
            .provider_capacity(256 << 20)
            .start()
    }

    fn patterned(len: usize, seed: u8) -> Bytes {
        Bytes::from(
            (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn streamed_write_matches_whole_buffer_read() {
        let mut cluster = small_cluster();
        let client = cluster.client(ClientId(1));
        let blob = client.create(BlobSpec { page_size: PAGE, replication: 2 }).expect("create");
        let data = patterned(5 * PAGE as usize, 3);
        let mut h = client
            .open_write_stream(blob, WriteKind::At(0), data.len() as u64, None)
            .expect("open");
        assert_eq!(h.page_size(), PAGE);
        // Feed in awkward pieces: tiny, page-crossing, the big rest.
        h.feed(data.slice(0..100)).expect("feed 1");
        h.feed(data.slice(100..PAGE as usize + 1)).expect("feed 2");
        h.feed(data.slice(PAGE as usize + 1..data.len())).expect("feed 3");
        let (v, crc) = h.commit().expect("commit");
        assert_eq!(crc, crate::storage::crc32c(&data));
        let got = client.read(blob, Some(v), 0, data.len() as u64).expect("read");
        assert_eq!(got, data);
        cluster.shutdown();
    }

    #[test]
    fn streamed_read_reassembles_range() {
        let mut cluster = small_cluster();
        let client = cluster.client(ClientId(2));
        let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
        let data = patterned(8 * PAGE as usize, 7);
        client.write(blob, 0, data.clone()).expect("write");
        // Unaligned sub-range crossing several window boundaries.
        let (off, len) = (1000u64, 6 * PAGE + 500);
        let mut h = client.open_read_stream(blob, None, off, len, None).expect("open");
        assert_eq!(h.len(), len);
        let mut got = Vec::new();
        while let Some(chunk) = h.next().expect("next") {
            got.extend_from_slice(&chunk);
        }
        assert_eq!(&got[..], &data[off as usize..(off + len) as usize]);
        cluster.shutdown();
    }

    /// A handle abandoned with part of a window still in its cursor —
    /// closed, or just dropped — takes the cell's session with it: the
    /// stream id is unknown to the next sub-operation.
    #[test]
    fn abandoning_a_read_mid_window_reclaims_the_session() {
        let mut cluster = small_cluster();
        let cfg = crate::client::ClientConfig { chunk_window: 2, ..Default::default() };
        let client = cluster.client_with_config(ClientId(5), cfg);
        let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
        let data = patterned(8 * PAGE as usize, 9);
        client.write(blob, 0, data.clone()).expect("write");
        for by_close in [true, false] {
            let mut h = client.open_read_stream(blob, None, 0, 8 * PAGE, None).expect("open");
            let stream = h.stream;
            // One page out of a two-page window: one segment stays behind.
            assert_eq!(h.next().expect("next"), Some(data.slice(..PAGE as usize)));
            assert_eq!(h.window.len(), 1);
            if by_close {
                h.close().expect("close");
            } else {
                drop(h);
            }
            let err = client
                .submit(ClientOp::ReadStreamNext { stream }, None)
                .wait()
                .expect_err("session must be gone");
            assert!(matches!(err, BlobError::Protocol("unknown stream")), "got {err}");
        }
        cluster.shutdown();
    }

    #[test]
    fn stream_misuse_is_rejected() {
        let mut cluster = small_cluster();
        let client = cluster.client(ClientId(3));
        let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
        // Commit before the declared length was fed aborts the stream.
        let mut h = client
            .open_write_stream(blob, WriteKind::At(0), 2 * PAGE, None)
            .expect("open");
        h.feed(patterned(PAGE as usize, 1)).expect("feed");
        let err = h.commit().expect_err("short commit must fail");
        assert!(matches!(err, BlobError::Protocol(_)), "got {err}");
        // Aborted stream published nothing: latest is still the empty v0.
        let err = client.read(blob, None, 0, PAGE).expect_err("no version");
        assert!(
            matches!(err, BlobError::OutOfBounds { size: 0, .. } | BlobError::UnknownVersion(..)),
            "got {err}"
        );
        // Feeding more than declared aborts too.
        let mut h = client
            .open_write_stream(blob, WriteKind::At(0), PAGE, None)
            .expect("open 2");
        let err = h.feed(patterned(PAGE as usize + 1, 2)).expect_err("overfeed");
        assert!(matches!(err, BlobError::Protocol(_)), "got {err}");
        cluster.shutdown();
    }

    #[test]
    fn streamed_write_bounded_buffering_gauge() {
        let mut cluster = small_cluster();
        let client = cluster.client(ClientId(4));
        let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
        let pages = 64u64;
        let data = patterned((pages * PAGE) as usize, 5);
        let mut h = client
            .open_write_stream(blob, WriteKind::At(0), data.len() as u64, None)
            .expect("open");
        h.feed(data.clone()).expect("feed");
        h.commit().expect("commit");
        let window = crate::client::ClientConfig::default().chunk_window as u64;
        let cap = window.max(2) * PAGE;
        let metrics = cluster.metrics();
        let peak = metrics
            .series("client.stream_buffered_bytes")
            .iter()
            .fold(0f64, |a, s| a.max(s.value));
        assert!(peak > 0.0, "gauge must record");
        assert!(peak <= cap as f64, "peak {peak} must stay under cap {cap}");
        cluster.shutdown();
    }
}
