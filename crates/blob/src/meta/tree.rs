//! The versioned segment-tree metadata algorithm — the core of BlobSeer
//! (Nicolae et al., JPDC 2010), reimplemented in full.
//!
//! Each BLOB version is described by a complete binary tree over the page
//! index space `[0, 2^k)`. A node covers a power-of-two-aligned page range;
//! leaves cover single pages and carry [`ChunkDescriptor`]s; inner nodes
//! carry two child *references*. A reference names a `(version, range)`
//! pair — possibly a node created by an **earlier** version — so trees of
//! successive versions share every unmodified subtree.
//!
//! **Concurrent writers.** A writer of version `v` never sees other
//! writers' unpublished nodes. Instead, the version manager's write ticket
//! carries the page intervals (and projected sizes) of all *pending*
//! versions between the last published snapshot and `v`. When the writer
//! needs a reference for a subtree it did not modify, it points at
//! `(w, range)` where `w` is the greatest pending version whose interval
//! intersects the range — that node is guaranteed to exist once `w`
//! commits, because every writer materializes a node for every range its
//! interval intersects. Ranges untouched by any pending write resolve
//! against the last *published* tree by descending it (the only remote
//! reads a writer performs, O(log n) per untouched sibling).
//!
//! Both the write-side ([`TreeBuilder`]) and read-side ([`TreeReader`])
//! algorithms are implemented as *resumable* pure state machines: they
//! expose the set of metadata nodes they need fetched and accept them as
//! they arrive, so the same code drives the threaded runtime, the
//! simulated runtime and the in-memory unit tests.

use sads_sim::FastMap;

use crate::model::{next_pow2, BlobId, ChunkDescriptor, PageInterval, VersionId};

/// A power-of-two-aligned page range: `len` is a power of two and `start`
/// is a multiple of `len`. These are exactly the ranges that appear as
/// segment-tree nodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeRange {
    /// First page covered.
    pub start: u64,
    /// Number of pages covered (power of two).
    pub len: u64,
}

impl NodeRange {
    /// The root range of a tree covering `pages` pages.
    pub fn root_for(pages: u64) -> NodeRange {
        NodeRange { start: 0, len: next_pow2(pages) }
    }

    /// Construct, asserting the alignment invariant in debug builds.
    pub fn new(start: u64, len: u64) -> NodeRange {
        debug_assert!(len.is_power_of_two(), "range len must be a power of two");
        debug_assert!(start.is_multiple_of(len), "range start must be aligned to len");
        NodeRange { start, len }
    }

    /// One-past-the-end page.
    #[inline]
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// Is this a leaf (single page)?
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.len == 1
    }

    /// Left half.
    #[inline]
    pub fn left(&self) -> NodeRange {
        debug_assert!(!self.is_leaf());
        NodeRange { start: self.start, len: self.len / 2 }
    }

    /// Right half.
    #[inline]
    pub fn right(&self) -> NodeRange {
        debug_assert!(!self.is_leaf());
        NodeRange { start: self.start + self.len / 2, len: self.len / 2 }
    }

    /// View as a plain interval.
    #[inline]
    pub fn interval(&self) -> PageInterval {
        PageInterval { start: self.start, len: self.len }
    }

    /// Does this range intersect the interval?
    #[inline]
    pub fn intersects(&self, i: &PageInterval) -> bool {
        self.interval().intersects(i)
    }

    /// Does this range fully contain `other`?
    #[inline]
    pub fn contains(&self, other: &NodeRange) -> bool {
        self.start <= other.start && other.end() <= self.end()
    }
}

impl std::fmt::Display for NodeRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{},{})", self.start, self.end())
    }
}

/// Ranges a version's writer created: every tree range within its root
/// coverage that intersects its write interval. This is the exact node
/// set [`TreeBuilder`] materializes for that write (spine nodes grown
/// past the old root aside), so GC planners can reason about ownership
/// without fetching the tree.
pub fn created_ranges(interval: PageInterval, size_after: u64, page_size: u64) -> Vec<NodeRange> {
    let root = NodeRange::root_for(crate::model::pages_for(size_after, page_size));
    let mut out = Vec::new();
    fn walk(r: NodeRange, i: &PageInterval, out: &mut Vec<NodeRange>) {
        if !r.intersects(i) {
            return;
        }
        out.push(r);
        if !r.is_leaf() {
            walk(r.left(), i, out);
            walk(r.right(), i, out);
        }
    }
    walk(root, &interval, &mut out);
    out
}

/// Globally unique key of a stored metadata node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeKey {
    /// Owning BLOB.
    pub blob: BlobId,
    /// Version whose writer created the node.
    pub version: VersionId,
    /// Range the node covers.
    pub range: NodeRange,
}

/// A child pointer: either "nothing was ever written here" or a node key
/// (sans blob, which is implicit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeRef {
    /// Never-written range: reads materialize zeros.
    Hole,
    /// Reference to the node `(version, range)`.
    Node {
        /// Creating version.
        version: VersionId,
        /// Covered range.
        range: NodeRange,
    },
}

impl NodeRef {
    /// The key this reference names within `blob`, if not a hole.
    pub fn key(&self, blob: BlobId) -> Option<NodeKey> {
        match *self {
            NodeRef::Hole => None,
            NodeRef::Node { version, range } => Some(NodeKey { blob, version, range }),
        }
    }
}

/// A stored metadata node.
#[derive(Clone, PartialEq, Debug)]
pub enum MetaNode {
    /// Inner node with two child references.
    Inner {
        /// Left-half child.
        left: NodeRef,
        /// Right-half child.
        right: NodeRef,
    },
    /// Leaf: where the page's chunk lives.
    Leaf {
        /// Chunk location and size.
        chunk: ChunkDescriptor,
    },
}

impl MetaNode {
    /// Approximate serialized size in bytes (for the network model).
    pub fn wire_size(&self) -> u64 {
        match self {
            MetaNode::Inner { .. } => 96,
            MetaNode::Leaf { chunk } => 64 + 8 * chunk.replicas.len() as u64,
        }
    }
}

/// A pending (ticketed but unpublished) write, as reported in a ticket.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PendingWrite {
    /// The pending version number.
    pub version: VersionId,
    /// Pages it modifies.
    pub interval: PageInterval,
    /// Projected BLOB size (bytes) after it publishes — determines the
    /// coverage of its tree.
    pub size_after: u64,
}

/// Description of the snapshot a writer builds against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BaseSnapshot {
    /// Last published version.
    pub version: VersionId,
    /// Its size in bytes.
    pub size: u64,
    /// Its root reference (`None` when nothing was ever published).
    pub root: Option<NodeRef>,
}

// ---------------------------------------------------------------------
// Write side
// ---------------------------------------------------------------------

/// State of one in-progress base-tree resolution.
#[derive(Debug)]
struct Resolution {
    /// The target range we need a reference for.
    target: NodeRange,
    /// Node we are currently waiting to read (always an ancestor of
    /// `target` in the base tree).
    cursor: NodeKey,
}

/// Resumable builder for the metadata of one write.
///
/// Protocol:
/// 1. construct with the ticket data;
/// 2. while `!is_ready()`: fetch every key in [`TreeBuilder::needed_fetches`]
///    from the metadata providers and [`TreeBuilder::supply`] the results;
/// 3. call [`TreeBuilder::build`] with the written chunks to obtain the
///    node set to store, then commit the returned root to the version
///    manager.
#[derive(Debug)]
pub struct TreeBuilder {
    blob: BlobId,
    version: VersionId,
    interval: PageInterval,
    page_size: u64,
    new_root: NodeRange,
    base: BaseSnapshot,
    pending: Vec<PendingWrite>,
    resolved: FastMap<NodeRange, NodeRef>,
    in_flight: Vec<Resolution>,
}

impl TreeBuilder {
    /// Start building the tree for version `version` writing `interval`
    /// (pages), given the ticket's base snapshot and pending-write list.
    /// `new_size` is the blob size (bytes) after this write publishes.
    pub fn new(
        blob: BlobId,
        version: VersionId,
        interval: PageInterval,
        page_size: u64,
        new_size: u64,
        base: BaseSnapshot,
        mut pending: Vec<PendingWrite>,
    ) -> TreeBuilder {
        assert!(!interval.is_empty(), "writes cover at least one page");
        pending.sort_by_key(|p| p.version);
        pending.retain(|p| p.version > base.version && p.version < version);
        let new_pages = crate::model::pages_for(new_size, page_size);
        let new_root = NodeRange::root_for(new_pages);
        debug_assert!(new_root.interval().contains(&interval));
        // A reference per sibling of the interval's two boundary paths.
        let depth = new_root.len.trailing_zeros() as usize;
        let mut b = TreeBuilder {
            blob,
            version,
            interval,
            page_size,
            new_root,
            base,
            pending,
            resolved: FastMap::with_capacity_and_hasher(2 * depth + 1, Default::default()),
            in_flight: Vec::with_capacity(2 * depth),
        };
        b.collect_targets(b.new_root);
        b
    }

    /// The write interval (pages).
    pub fn interval(&self) -> PageInterval {
        self.interval
    }

    /// The version being built.
    pub fn version(&self) -> VersionId {
        self.version
    }

    /// Root range of the new tree.
    pub fn root_range(&self) -> NodeRange {
        self.new_root
    }

    /// Greatest pending version whose write intersects `r`, if any.
    fn pending_covering(&self, r: &NodeRange) -> Option<&PendingWrite> {
        self.pending.iter().rev().find(|p| r.intersects(&p.interval))
    }

    /// Walk the new tree, classifying every range we will need a reference
    /// for, and queueing base-tree descents for the rest.
    fn collect_targets(&mut self, r: NodeRange) {
        if r.intersects(&self.interval) {
            // We create this node; recurse unless leaf.
            if !r.is_leaf() {
                self.collect_targets(r.left());
                self.collect_targets(r.right());
            }
            return;
        }
        // Untouched by us: find what to reference.
        if let Some(p) = self.pending_covering(&r) {
            let cover = NodeRange::root_for(crate::model::pages_for(p.size_after, self.page_size));
            if cover.contains(&r) {
                self.resolved.insert(r, NodeRef::Node { version: p.version, range: r });
                return;
            }
            // Pending writer's tree is too small to have a node for `r`
            // (we expanded past its coverage): materialize this range
            // ourselves and recurse.
            if !r.is_leaf() {
                self.collect_targets(r.left());
                self.collect_targets(r.right());
            } else {
                // A leaf outside our interval yet beyond pending coverage
                // cannot exist: pending intersects r, so r is within the
                // pending write, hence within its coverage.
                unreachable!("leaf intersecting a pending write is inside its coverage");
            }
            return;
        }
        // No pending touches r: resolve against the published base.
        match self.base_resolution(r) {
            BaseStep::Resolved(nref) => {
                self.resolved.insert(r, nref);
            }
            BaseStep::Descend(cursor) => {
                self.in_flight.push(Resolution { target: r, cursor });
            }
            BaseStep::Materialize => {
                // r strictly contains the base coverage: create the node
                // ourselves and recurse into halves.
                debug_assert!(!r.is_leaf());
                self.collect_targets(r.left());
                self.collect_targets(r.right());
            }
        }
    }

    /// One step of deciding how range `r` resolves against the base tree.
    fn base_resolution(&self, r: NodeRange) -> BaseStep {
        let Some(base_root) = self.base.root else {
            return BaseStep::Resolved(NodeRef::Hole);
        };
        let NodeRef::Node { version, range } = base_root else {
            return BaseStep::Resolved(NodeRef::Hole);
        };
        if r == range {
            return BaseStep::Resolved(base_root);
        }
        if range.contains(&r) {
            return BaseStep::Descend(NodeKey { blob: self.blob, version, range });
        }
        if r.contains(&range) {
            return BaseStep::Materialize;
        }
        // Disjoint from everything ever written.
        BaseStep::Resolved(NodeRef::Hole)
    }

    /// Keys that must be fetched from the metadata providers right now,
    /// each once, ordered by `(version, start, len)`. Every descent walks
    /// one of the interval's two boundary paths, so there are at most two.
    pub fn needed_fetches(&self) -> Vec<NodeKey> {
        let mut keys: Vec<NodeKey> = Vec::with_capacity(2);
        for res in &self.in_flight {
            if !keys.contains(&res.cursor) {
                keys.push(res.cursor);
            }
        }
        keys.sort_unstable_by_key(|k| (k.version, k.range.start, k.range.len));
        keys
    }

    /// Fetch rounds the base-tree descents still need if no node below
    /// their cursors is at hand: the most levels a cursor stands above
    /// its target.
    pub(crate) fn rounds_left(&self) -> u32 {
        let levels = |r: &Resolution| {
            r.cursor.range.len.trailing_zeros() - r.target.len.trailing_zeros()
        };
        self.in_flight.iter().map(levels).max().unwrap_or(0)
    }

    /// The bulk range query that returns every node the descents still
    /// need: the write interval at the version that created the base
    /// root, after a cursor that sorts just before the leftmost descent
    /// cursor — the needed nodes lie below the cursors, and the resolved
    /// ancestors left of them are skipped.
    pub(crate) fn range_query(&self) -> RangeQuery {
        let version = match self.base.root {
            Some(NodeRef::Node { version, .. }) => version,
            _ => self.base.version,
        };
        // Ranges order by `(start, len)`, and no range is empty.
        let start = self.in_flight.iter().map(|r| r.cursor.range.start).min();
        let after = start.map(|start| NodeRange { start, len: 0 });
        RangeQuery { blob: self.blob, version, query: self.interval, after }
    }

    /// Feed a fetched node back in; advances every descent waiting on it.
    pub fn supply(&mut self, key: NodeKey, node: &MetaNode) {
        let (blob, resolved) = (self.blob, &mut self.resolved);
        self.in_flight.retain_mut(|res| {
            if res.cursor != key {
                return true;
            }
            let MetaNode::Inner { left, right } = node else {
                // A leaf above a strictly smaller target range is a
                // protocol corruption; treat as hole to stay total.
                resolved.insert(res.target, NodeRef::Hole);
                return false;
            };
            // Pick the side by geometry: the target is strictly inside
            // one half of the cursor's range.
            let child = if key.range.left().contains(&res.target) { *left } else { *right };
            match child {
                NodeRef::Node { version, range } if range != res.target => {
                    debug_assert!(range.contains(&res.target));
                    res.cursor = NodeKey { blob, version, range };
                    true
                }
                // A hole, or the target's own node.
                _ => {
                    resolved.insert(res.target, child);
                    false
                }
            }
        });
    }

    /// Have all references been resolved?
    pub fn is_ready(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Produce the full node set for this version. `chunks` must hold one
    /// descriptor per page of the write interval, in page order.
    ///
    /// Returns `(nodes_to_store, root_ref)`.
    pub fn build(&self, chunks: &[ChunkDescriptor]) -> (Vec<(NodeKey, MetaNode)>, NodeRef) {
        assert!(self.is_ready(), "build() before all references resolved");
        assert_eq!(
            chunks.len() as u64,
            self.interval.len,
            "one chunk per page of the write interval"
        );
        let mut out = Vec::new();
        let root_ref = self.emit(self.new_root, chunks, &mut out);
        debug_assert!(matches!(root_ref, NodeRef::Node { .. }), "root is always created");
        (out, root_ref)
    }

    fn emit(
        &self,
        r: NodeRange,
        chunks: &[ChunkDescriptor],
        out: &mut Vec<(NodeKey, MetaNode)>,
    ) -> NodeRef {
        if let Some(nref) = self.resolved.get(&r) {
            return *nref;
        }
        // Not resolved ⇒ we create the node (it intersects our interval or
        // is a spine/materialized range).
        let key = NodeKey { blob: self.blob, version: self.version, range: r };
        if r.is_leaf() {
            debug_assert!(self.interval.contains_page(r.start));
            let idx = (r.start - self.interval.start) as usize;
            out.push((key, MetaNode::Leaf { chunk: chunks[idx].clone() }));
            return NodeRef::Node { version: self.version, range: r };
        }
        let left = self.emit(r.left(), chunks, out);
        let right = self.emit(r.right(), chunks, out);
        out.push((key, MetaNode::Inner { left, right }));
        NodeRef::Node { version: self.version, range: r }
    }
}

enum BaseStep {
    Resolved(NodeRef),
    Descend(NodeKey),
    Materialize,
}

/// The fetch/supply protocol [`TreeBuilder`] and [`TreeReader`] share:
/// whoever drives a descent — a client through its node cache, a test
/// through a store — fetches what it needs and supplies it until done.
pub(crate) trait Descent {
    /// Is the descent complete?
    fn done(&self) -> bool;
    /// Keys to fetch next.
    fn needed(&self) -> Vec<NodeKey>;
    /// Feed one fetched node.
    fn supply(&mut self, key: NodeKey, node: &MetaNode);
    /// The bulk range query to send each of `providers` metadata
    /// providers for the rest of the descent, instead of walking on one
    /// level per round trip; `None` when the walk sends fewer messages.
    fn bulk_query(&self, providers: usize) -> Option<RangeQuery>;
}

impl Descent for TreeBuilder {
    fn done(&self) -> bool {
        self.is_ready()
    }
    fn needed(&self) -> Vec<NodeKey> {
        self.needed_fetches()
    }
    fn supply(&mut self, key: NodeKey, node: &MetaNode) {
        TreeBuilder::supply(self, key, node)
    }
    /// Only with more levels left than providers: a base-tree descent
    /// fetches one node per level, one level per round trip.
    fn bulk_query(&self, providers: usize) -> Option<RangeQuery> {
        (self.rounds_left() as usize > providers).then(|| self.range_query())
    }
}

/// A bulk range query for the rest of a descent: the arguments of
/// [`MetaStore::range_cover`] but the reply cap, which a cold client
/// sends every metadata provider instead of walking the tree one remote
/// level at a time.
///
/// [`MetaStore::range_cover`]: crate::meta::MetaStore::range_cover
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct RangeQuery {
    /// The BLOB.
    pub blob: BlobId,
    /// The version that created the root being descended: the version
    /// read or written on, except when a recovered no-op version
    /// republished its predecessor's root.
    pub version: VersionId,
    /// Pages read or written.
    pub query: PageInterval,
    /// Only ranges after this one, in `(start, len)` order.
    pub after: Option<NodeRange>,
}

// ---------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------

/// Where one page of a read comes from.
#[derive(Clone, PartialEq, Debug)]
pub enum PageSource {
    /// A stored chunk.
    Chunk(ChunkDescriptor),
    /// Never written: zeros.
    Hole {
        /// The page index.
        page: u64,
    },
}

impl PageSource {
    /// The page this source fills.
    pub fn page(&self) -> u64 {
        match self {
            PageSource::Chunk(c) => c.key.page,
            PageSource::Hole { page } => *page,
        }
    }
}

/// Resumable descent of a version's tree, collecting the chunk descriptors
/// covering a page interval.
///
/// Same fetch/supply protocol as [`TreeBuilder`].
#[derive(Debug)]
pub struct TreeReader {
    blob: BlobId,
    /// The version that created the root.
    version: VersionId,
    query: PageInterval,
    frontier: Vec<NodeKey>,
    sources: Vec<PageSource>,
}

impl TreeReader {
    /// Start a descent from `root` (of the version being read) for the
    /// pages in `query`.
    pub fn new(blob: BlobId, root: Option<NodeRef>, query: PageInterval) -> TreeReader {
        let (frontier, sources) = (Vec::new(), Vec::new());
        let version = VersionId(0);
        let mut r = TreeReader { blob, version, query, frontier, sources };
        match root {
            None | Some(NodeRef::Hole) => r.fill_holes(query),
            Some(NodeRef::Node { version, range }) => {
                r.version = version;
                // Pages beyond the root coverage are holes.
                if query.end() > range.end() {
                    let beyond = PageInterval::new(range.end().max(query.start), {
                        query.end().saturating_sub(range.end().max(query.start))
                    });
                    r.fill_holes(beyond);
                }
                if range.intersects(&query) {
                    r.frontier.push(NodeKey { blob, version, range });
                }
            }
        }
        r
    }

    fn fill_holes(&mut self, i: PageInterval) {
        for page in i.start..i.end() {
            self.sources.push(PageSource::Hole { page });
        }
    }

    /// Keys to fetch next.
    pub fn needed_fetches(&self) -> Vec<NodeKey> {
        let mut keys = self.frontier.clone();
        keys.sort_by_key(|k| (k.version, k.range.start, k.range.len));
        keys.dedup();
        keys
    }

    /// Feed one fetched node; may expand the frontier with its children.
    pub fn supply(&mut self, key: NodeKey, node: &MetaNode) {
        let Some(pos) = self.frontier.iter().position(|k| *k == key) else {
            return;
        };
        self.frontier.swap_remove(pos);
        match node {
            MetaNode::Leaf { chunk } => {
                debug_assert!(key.range.is_leaf());
                if self.query.contains_page(key.range.start) {
                    self.sources.push(PageSource::Chunk(chunk.clone()));
                }
            }
            MetaNode::Inner { left, right } => {
                for (child, crange) in
                    [(left, key.range.left()), (right, key.range.right())]
                {
                    if !crange.intersects(&self.query) {
                        continue;
                    }
                    match child {
                        NodeRef::Hole => {
                            let lo = crange.start.max(self.query.start);
                            let hi = crange.end().min(self.query.end());
                            self.fill_holes(PageInterval::new(lo, hi - lo));
                        }
                        NodeRef::Node { version, range } => {
                            self.frontier.push(NodeKey {
                                blob: self.blob,
                                version: *version,
                                range: *range,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Has the descent gathered a source for every queried page?
    pub fn is_done(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Consume the reader, returning one source per queried page, in page
    /// order. Panics if called before [`TreeReader::is_done`].
    pub fn into_sources(mut self) -> Vec<PageSource> {
        assert!(self.is_done(), "descent incomplete");
        self.sources.sort_by_key(|s| s.page());
        debug_assert_eq!(self.sources.len() as u64, self.query.len, "one source per page");
        self.sources
    }
}

impl Descent for TreeReader {
    fn done(&self) -> bool {
        self.is_done()
    }
    fn needed(&self) -> Vec<NodeKey> {
        self.needed_fetches()
    }
    fn supply(&mut self, key: NodeKey, node: &MetaNode) {
        TreeReader::supply(self, key, node)
    }
    /// Always, for the queried pages from the root down: a read's
    /// frontier widens with every level it descends.
    fn bulk_query(&self, _providers: usize) -> Option<RangeQuery> {
        let (blob, version, query) = (self.blob, self.version, self.query);
        Some(RangeQuery { blob, version, query, after: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ChunkKey;
    use sads_sim::NodeId;
    use std::collections::HashMap;

    /// In-memory metadata store + sequential writer harness: drives
    /// TreeBuilder/TreeReader to completion synchronously.
    pub(crate) struct LocalMeta {
        pub nodes: HashMap<NodeKey, MetaNode>,
    }

    impl LocalMeta {
        pub fn new() -> Self {
            LocalMeta { nodes: HashMap::new() }
        }

        pub fn run_builder(&mut self, mut b: TreeBuilder) -> NodeRef {
            while !b.is_ready() {
                let keys = b.needed_fetches();
                assert!(!keys.is_empty());
                for k in keys {
                    let n = self.nodes.get(&k).unwrap_or_else(|| panic!("missing node {k:?}")).clone();
                    b.supply(k, &n);
                }
            }
            let chunks: Vec<ChunkDescriptor> = (b.interval().start..b.interval().end())
                .map(|page| ChunkDescriptor {
                    key: ChunkKey { blob: BlobId(1), version: b.version(), page },
                    replicas: vec![NodeId(0)],
                    size: PAGE,
                })
                .collect();
            let (nodes, root) = b.build(&chunks);
            for (k, n) in nodes {
                assert!(self.nodes.insert(k, n).is_none(), "node {k:?} written twice");
            }
            root
        }

        pub fn read(&self, root: Option<NodeRef>, query: PageInterval) -> Vec<PageSource> {
            let mut r = TreeReader::new(BlobId(1), root, query);
            while !r.is_done() {
                for k in r.needed_fetches() {
                    let n = self.nodes.get(&k).unwrap_or_else(|| panic!("missing node {k:?}")).clone();
                    r.supply(k, &n);
                }
            }
            r.into_sources()
        }
    }

    const PAGE: u64 = 8;

    fn base0() -> BaseSnapshot {
        BaseSnapshot { version: VersionId(0), size: 0, root: None }
    }

    /// Reference model: page -> last version that wrote it.
    fn expect_pages(sources: &[PageSource], expected: &[(u64, Option<u64>)]) {
        assert_eq!(sources.len(), expected.len());
        for (s, (page, ver)) in sources.iter().zip(expected) {
            assert_eq!(s.page(), *page, "page order");
            match (s, ver) {
                (PageSource::Hole { .. }, None) => {}
                (PageSource::Chunk(c), Some(v)) => {
                    assert_eq!(c.key.version, VersionId(*v), "page {page}")
                }
                other => panic!("page {page}: mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn first_write_then_full_read() {
        let mut m = LocalMeta::new();
        let b = TreeBuilder::new(
            BlobId(1),
            VersionId(1),
            PageInterval::new(0, 4),
            PAGE,
            4 * PAGE,
            base0(),
            vec![],
        );
        let root = m.run_builder(b);
        let src = m.read(Some(root), PageInterval::new(0, 4));
        expect_pages(&src, &[(0, Some(1)), (1, Some(1)), (2, Some(1)), (3, Some(1))]);
    }

    #[test]
    fn overwrite_shares_untouched_subtree() {
        let mut m = LocalMeta::new();
        let r1 = m.run_builder(TreeBuilder::new(
            BlobId(1),
            VersionId(1),
            PageInterval::new(0, 4),
            PAGE,
            4 * PAGE,
            base0(),
            vec![],
        ));
        let nodes_after_v1 = m.nodes.len();
        let base = BaseSnapshot { version: VersionId(1), size: 4 * PAGE, root: Some(r1) };
        let r2 = m.run_builder(TreeBuilder::new(
            BlobId(1),
            VersionId(2),
            PageInterval::new(2, 2),
            PAGE,
            4 * PAGE,
            base,
            vec![],
        ));
        // v2 creates: root, right-inner, 2 leaves = 4 nodes; left subtree shared.
        assert_eq!(m.nodes.len() - nodes_after_v1, 4);
        let src = m.read(Some(r2), PageInterval::new(0, 4));
        expect_pages(&src, &[(0, Some(1)), (1, Some(1)), (2, Some(2)), (3, Some(2))]);
        // v1 still reads its own state (snapshot isolation).
        let src = m.read(Some(r1), PageInterval::new(0, 4));
        expect_pages(&src, &[(0, Some(1)), (1, Some(1)), (2, Some(1)), (3, Some(1))]);
    }

    #[test]
    fn append_grows_the_tree() {
        let mut m = LocalMeta::new();
        let r1 = m.run_builder(TreeBuilder::new(
            BlobId(1),
            VersionId(1),
            PageInterval::new(0, 2),
            PAGE,
            2 * PAGE,
            base0(),
            vec![],
        ));
        let base = BaseSnapshot { version: VersionId(1), size: 2 * PAGE, root: Some(r1) };
        // Append 3 pages: new size 5 pages, root covers 8.
        let r2 = m.run_builder(TreeBuilder::new(
            BlobId(1),
            VersionId(2),
            PageInterval::new(2, 3),
            PAGE,
            5 * PAGE,
            base,
            vec![],
        ));
        let src = m.read(Some(r2), PageInterval::new(0, 5));
        expect_pages(
            &src,
            &[(0, Some(1)), (1, Some(1)), (2, Some(2)), (3, Some(2)), (4, Some(2))],
        );
    }

    #[test]
    fn sparse_write_leaves_holes() {
        let mut m = LocalMeta::new();
        // Write pages [4,6) of an empty blob: pages 0..4 are holes.
        let r1 = m.run_builder(TreeBuilder::new(
            BlobId(1),
            VersionId(1),
            PageInterval::new(4, 2),
            PAGE,
            6 * PAGE,
            base0(),
            vec![],
        ));
        let src = m.read(Some(r1), PageInterval::new(0, 6));
        expect_pages(&src, &[(0, None), (1, None), (2, None), (3, None), (4, Some(1)), (5, Some(1))]);
    }

    #[test]
    fn far_append_materializes_spine_over_old_tree() {
        let mut m = LocalMeta::new();
        let r1 = m.run_builder(TreeBuilder::new(
            BlobId(1),
            VersionId(1),
            PageInterval::new(0, 2),
            PAGE,
            2 * PAGE,
            base0(),
            vec![],
        ));
        let base = BaseSnapshot { version: VersionId(1), size: 2 * PAGE, root: Some(r1) };
        // Write pages [12,14): root grows to 16; spine nodes [0,8) etc.
        // do not intersect the write yet must cover the old tree.
        let r2 = m.run_builder(TreeBuilder::new(
            BlobId(1),
            VersionId(2),
            PageInterval::new(12, 2),
            PAGE,
            14 * PAGE,
            base,
            vec![],
        ));
        let src = m.read(Some(r2), PageInterval::new(0, 14));
        let mut expected: Vec<(u64, Option<u64>)> = vec![(0, Some(1)), (1, Some(1))];
        expected.extend((2..12).map(|p| (p, None)));
        expected.extend([(12, Some(2)), (13, Some(2))]);
        expect_pages(&src, &expected);
    }

    #[test]
    fn concurrent_writers_forward_reference_pending_versions() {
        let mut m = LocalMeta::new();
        let r1 = m.run_builder(TreeBuilder::new(
            BlobId(1),
            VersionId(1),
            PageInterval::new(0, 8),
            PAGE,
            8 * PAGE,
            base0(),
            vec![],
        ));
        let base = BaseSnapshot { version: VersionId(1), size: 8 * PAGE, root: Some(r1) };

        // Two concurrent writers ticketed on top of v1:
        //   v2 writes pages [0,2), v3 writes pages [4,6).
        // v3's ticket knows v2 is pending on [0,2).
        let b2 = TreeBuilder::new(
            BlobId(1),
            VersionId(2),
            PageInterval::new(0, 2),
            PAGE,
            8 * PAGE,
            base,
            vec![],
        );
        let b3 = TreeBuilder::new(
            BlobId(1),
            VersionId(3),
            PageInterval::new(4, 2),
            PAGE,
            8 * PAGE,
            base,
            vec![PendingWrite {
                version: VersionId(2),
                interval: PageInterval::new(0, 2),
                size_after: 8 * PAGE,
            }],
        );
        // Writers complete in any order; store both node sets.
        let r3 = m.run_builder(b3);
        let r2 = m.run_builder(b2);

        // Reading v3 must see v2's pages even though v3's writer never saw
        // v2's nodes — it forward-referenced them.
        let src = m.read(Some(r3), PageInterval::new(0, 8));
        expect_pages(
            &src,
            &[
                (0, Some(2)),
                (1, Some(2)),
                (2, Some(1)),
                (3, Some(1)),
                (4, Some(3)),
                (5, Some(3)),
                (6, Some(1)),
                (7, Some(1)),
            ],
        );
        // Reading v2 sees only v1+v2.
        let src = m.read(Some(r2), PageInterval::new(0, 8));
        expect_pages(
            &src,
            &[
                (0, Some(2)),
                (1, Some(2)),
                (2, Some(1)),
                (3, Some(1)),
                (4, Some(1)),
                (5, Some(1)),
                (6, Some(1)),
                (7, Some(1)),
            ],
        );
    }

    #[test]
    fn partial_read_touches_only_relevant_subtrees() {
        let mut m = LocalMeta::new();
        let r1 = m.run_builder(TreeBuilder::new(
            BlobId(1),
            VersionId(1),
            PageInterval::new(0, 8),
            PAGE,
            8 * PAGE,
            base0(),
            vec![],
        ));
        let src = m.read(Some(r1), PageInterval::new(3, 2));
        expect_pages(&src, &[(3, Some(1)), (4, Some(1))]);
    }

    #[test]
    fn read_of_empty_blob_is_all_holes() {
        let m = LocalMeta::new();
        let src = m.read(None, PageInterval::new(0, 3));
        expect_pages(&src, &[(0, None), (1, None), (2, None)]);
    }

    #[test]
    fn builder_reports_then_clears_fetches() {
        let mut m = LocalMeta::new();
        let r1 = m.run_builder(TreeBuilder::new(
            BlobId(1),
            VersionId(1),
            PageInterval::new(0, 8),
            PAGE,
            8 * PAGE,
            base0(),
            vec![],
        ));
        let base = BaseSnapshot { version: VersionId(1), size: 8 * PAGE, root: Some(r1) };
        // Writing [6,8) needs base refs for [0,4) (== child of root, no
        // fetch) and [4,6) (needs descending into [4,8)).
        let b = TreeBuilder::new(
            BlobId(1),
            VersionId(2),
            PageInterval::new(6, 2),
            PAGE,
            8 * PAGE,
            base,
            vec![],
        );
        assert!(!b.is_ready());
        let fetches = b.needed_fetches();
        assert_eq!(fetches.len(), 1, "root fetch resolves both targets: {fetches:?}");
        assert_eq!(fetches[0].range, NodeRange::new(0, 8));
    }

    #[test]
    fn node_range_geometry() {
        let r = NodeRange::new(0, 8);
        assert_eq!(r.left(), NodeRange::new(0, 4));
        assert_eq!(r.right(), NodeRange::new(4, 4));
        assert!(r.contains(&NodeRange::new(6, 2)));
        assert!(!NodeRange::new(4, 4).contains(&NodeRange::new(0, 8)));
        assert_eq!(NodeRange::root_for(5), NodeRange::new(0, 8));
        assert_eq!(NodeRange::root_for(0), NodeRange::new(0, 1));
        assert!(NodeRange::new(3, 1).is_leaf());
    }

    #[test]
    fn created_ranges_match_tree_builder_shape() {
        // Writing [2,4) of an 8-page blob: path ranges intersecting [2,4).
        let ranges = created_ranges(PageInterval::new(2, 2), 8 * PAGE, PAGE);
        let set: Vec<(u64, u64)> = ranges.iter().map(|r| (r.start, r.len)).collect();
        assert_eq!(set, vec![(0, 8), (0, 4), (2, 2), (2, 1), (3, 1)]);
    }
}
