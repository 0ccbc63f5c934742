//! Metadata provider storage: the node map one metadata provider holds,
//! and the static partitioning function that maps node keys onto the
//! metadata provider ring.
//!
//! BlobSeer distributes tree nodes over a set of metadata providers using
//! consistent key hashing; clients compute the owner locally from the key,
//! so no directory lookup is needed on the metadata path.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

use sads_sim::{FastMap, NodeId};

use crate::meta::tree::{MetaNode, NodeKey, NodeRange};
use crate::model::{BlobId, PageInterval, VersionId};

/// Deterministic 64-bit mix of a node key (SplitMix64-style finalizer).
/// Used for partitioning; stability across runs matters for the
/// deterministic simulator, so we do not use `std`'s randomized hasher.
pub fn node_key_hash(key: &NodeKey) -> u64 {
    let mut h = key
        .blob
        .0
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(key.version.0.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(key.range.start.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(key.range.len);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h
}

/// Index of the metadata provider that owns `key`, out of `n` providers.
pub fn partition(key: &NodeKey, n: usize) -> usize {
    debug_assert!(n > 0, "at least one metadata provider");
    (node_key_hash(key) % n as u64) as usize
}

/// Split `items` into one batch per owning metadata provider, `key`
/// naming the node key that routes an item. Batches come back in
/// ascending provider order and keep the item order given: every sender
/// of metadata traffic batches through here, so the order messages leave
/// a node (and with it the simulator's event schedule) is decided once.
pub fn group_by_partition<T>(
    items: impl IntoIterator<Item = T>,
    key: impl Fn(&T) -> &NodeKey,
    meta_providers: &[NodeId],
) -> Vec<(NodeId, Vec<T>)> {
    let mut batches: BTreeMap<NodeId, Vec<T>> = BTreeMap::new();
    for item in items {
        let owner = meta_providers[partition(key(&item), meta_providers.len())];
        batches.entry(owner).or_default().push(item);
    }
    batches.into_iter().collect()
}

/// The node map held by one metadata provider.
///
/// Nodes are immutable once written (versions are immutable), so `put` of
/// an existing key is idempotent: retransmitted writes are accepted and
/// the stored value kept.
///
/// One index holds every node: per BLOB, each aligned range's nodes in
/// version order. A key is found with one probe at its range and, unless
/// it is that range's newest, a binary search; `range_cover` finds "the
/// node at range r in the tree of version v" — the one with the greatest
/// stored version ≤ v — the same way, and the widest length stored bounds
/// the levels it enumerates. A range's entry is allocated once, so no
/// table grows with the number of versions.
#[derive(Debug, Default)]
pub struct MetaStore {
    by_blob: FastMap<BlobId, BlobRanges>,
    len: usize,
    bytes: u64,
    /// Accepted puts whose version was not the newest at its range.
    late_puts: u64,
}

/// One BLOB's share of the store.
#[derive(Debug, Default)]
struct BlobRanges {
    ranges: FastMap<NodeRange, Versions>,
    /// Greatest `len` of any range ever put for the BLOB while this entry
    /// lived: a bound, not a count, so removing that range leaves it.
    widest: u64,
}

/// The nodes stored at one range, one per version. A put appends when its
/// range's puts arrive in version order, which holds for one sequential
/// writer per BLOB. Concurrent writers to one BLOB put their nodes before
/// they commit, in no set order, so at the ranges they share a lower
/// version can arrive after a higher one; that put, like a late
/// retransmission or a recovery replay, binary-inserts.
#[derive(Debug)]
struct Versions {
    /// The greatest version stored here, inline in the range's hash entry:
    /// a read of the latest tree finds its node without leaving the table.
    newest: (VersionId, MetaNode),
    /// The older versions, strictly ascending.
    older: Vec<(VersionId, MetaNode)>,
}

impl Versions {
    /// Every version stored, ascending.
    fn versions(&self) -> impl Iterator<Item = VersionId> + '_ {
        self.older.iter().map(|(v, _)| *v).chain(std::iter::once(self.newest.0))
    }

    /// Position of `version` in `older`, or where it would go.
    fn find_older(&self, version: VersionId) -> Result<usize, usize> {
        self.older.binary_search_by_key(&version, |(v, _)| *v)
    }

    fn get(&self, version: VersionId) -> Option<&MetaNode> {
        if self.newest.0 == version {
            return Some(&self.newest.1);
        }
        Some(&self.older[self.find_older(version).ok()?].1)
    }

    fn get_mut(&mut self, version: VersionId) -> Option<&mut MetaNode> {
        if self.newest.0 == version {
            return Some(&mut self.newest.1);
        }
        let at = self.find_older(version).ok()?;
        Some(&mut self.older[at].1)
    }

    /// The node with the greatest version at or below `version`. The
    /// newest is checked first: a read of the latest version, the common
    /// case, costs one comparison.
    fn at_or_below(&self, version: VersionId) -> Option<(VersionId, &MetaNode)> {
        if self.newest.0 <= version {
            return Some((self.newest.0, &self.newest.1));
        }
        let at = self.older.partition_point(|(v, _)| *v <= version);
        self.older[..at].last().map(|(v, n)| (*v, n))
    }
}

impl MetaStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a node. Returns `false` if the key already existed (the
    /// stored node is kept — nodes are immutable, so any retransmission
    /// carries identical content).
    pub fn put(&mut self, key: NodeKey, node: MetaNode) -> bool {
        // `range_cover` computes candidate ranges from the query alone; a
        // misaligned one would be stored but never found.
        let NodeRange { start, len } = key.range;
        debug_assert!(
            len.is_power_of_two() && start.is_multiple_of(len),
            "segment-tree ranges are aligned powers of two: {}",
            key.range
        );
        let ranges = self.by_blob.entry(key.blob).or_default();
        let size = node.wire_size();
        match ranges.ranges.entry(key.range) {
            Entry::Vacant(e) => {
                e.insert(Versions { newest: (key.version, node), older: Vec::new() });
            }
            Entry::Occupied(mut e) => {
                let vs = e.get_mut();
                if vs.newest.0 < key.version {
                    let prev = std::mem::replace(&mut vs.newest, (key.version, node));
                    vs.older.push(prev);
                } else {
                    let at = match vs.find_older(key.version) {
                        Err(at) if vs.newest.0 != key.version => at,
                        _ => return false,
                    };
                    vs.older.insert(at, (key.version, node));
                    self.late_puts += 1;
                }
            }
        }
        ranges.widest = ranges.widest.max(len);
        self.len += 1;
        self.bytes += size;
        true
    }

    /// Fetch a node.
    pub fn get(&self, key: &NodeKey) -> Option<&MetaNode> {
        self.by_blob.get(&key.blob)?.ranges.get(&key.range)?.get(key.version)
    }

    /// Remove one node. Returns whether it existed.
    pub fn remove(&mut self, key: &NodeKey) -> bool {
        let Some(ranges) = self.by_blob.get_mut(&key.blob) else {
            return false;
        };
        let Entry::Occupied(mut e) = ranges.ranges.entry(key.range) else {
            return false;
        };
        let vs = e.get_mut();
        let node = if vs.newest.0 == key.version {
            match vs.older.pop() {
                Some(prev) => std::mem::replace(&mut vs.newest, prev).1,
                None => e.remove().newest.1,
            }
        } else {
            match vs.find_older(key.version) {
                Ok(at) => vs.older.remove(at).1,
                Err(_) => return false,
            }
        };
        self.len -= 1;
        self.bytes -= node.wire_size();
        if ranges.ranges.is_empty() {
            self.by_blob.remove(&key.blob);
        }
        true
    }

    /// Remove every node of `keys` that is stored; returns how many were.
    /// The keys are grouped by range and each range's versions are walked
    /// once, so collecting many versions of a long-lived range costs one
    /// pass over its list, not a shift per version. A range or BLOB left
    /// empty goes, and a table left less than a quarter full shrinks.
    pub fn remove_all(&mut self, keys: &[NodeKey]) -> usize {
        let mut keys = keys.to_vec();
        keys.sort_unstable_by_key(|k| (k.blob, k.range.start, k.range.len, k.version));
        let mut removed = 0;
        for group in keys.chunk_by(|a, b| (a.blob, a.range) == (b.blob, b.range)) {
            let (blob, range) = (group[0].blob, group[0].range);
            let Some(ranges) = self.by_blob.get_mut(&blob) else {
                continue;
            };
            let Entry::Occupied(mut e) = ranges.ranges.entry(range) else {
                continue;
            };
            let vs = e.get_mut();
            let mut doomed = group.iter().map(|k| k.version).peekable();
            let (mut count, mut freed) = (0, 0);
            vs.older.retain(|(v, node)| {
                while doomed.next_if(|d| d < v).is_some() {}
                let hit = doomed.next_if_eq(v).is_some();
                if hit {
                    count += 1;
                    freed += node.wire_size();
                }
                !hit
            });
            if vs.older.len() < vs.older.capacity() / 4 {
                vs.older.shrink_to_fit();
            }
            if doomed.any(|d| d == vs.newest.0) {
                count += 1;
                freed += vs.newest.1.wire_size();
                match vs.older.pop() {
                    Some(prev) => vs.newest = prev,
                    None => {
                        e.remove();
                    }
                }
            }
            removed += count;
            self.len -= count;
            self.bytes -= freed;
            if ranges.ranges.is_empty() {
                self.by_blob.remove(&blob);
            } else if ranges.ranges.len() < ranges.ranges.capacity() / 4 {
                ranges.ranges.shrink_to_fit();
            }
        }
        removed
    }

    /// Bulk range descent: every node on the read path of `query` in the
    /// tree of `version` that this store holds. For each stored range
    /// intersecting the query, that is the node with the greatest stored
    /// version ≤ `version` (nodes are immutable, coverage only grows with
    /// version, and a writer that re-covers a range stores its own node
    /// there — so the max-version node is exactly what a level-by-level
    /// descent through version `version`'s tree would fetch here).
    ///
    /// Results are ordered by `(range.start, range.len)`; at most
    /// `max_nodes` are returned and the `bool` reports truncation. Pass
    /// the last returned range as `after` to resume.
    ///
    /// Ranges are power-of-two long and aligned to their length, so the
    /// ones that can intersect the query follow from the query alone: at
    /// each start page, the lengths that divide it and reach into the
    /// query, up to the widest length stored for the BLOB. The call probes
    /// exactly those, in result order, from the cursor on, and stops at
    /// hit `max_nodes + 1`: at most depth + 2·|query| hash probes, whatever
    /// the number of ranges stored and wherever the cursor stands.
    pub fn range_cover(
        &self,
        blob: BlobId,
        version: VersionId,
        query: &PageInterval,
        after: Option<NodeRange>,
        max_nodes: usize,
    ) -> (Vec<(NodeKey, MetaNode)>, bool) {
        let mut out = Vec::new();
        let Some(ranges) = self.by_blob.get(&blob) else {
            return (out, false);
        };
        if query.is_empty() {
            return (out, false);
        }
        let cursor = after.map(|r| (r.start, r.len));
        // Leftmost candidate start: the widest range that holds the
        // query's first page. A cursor inside the query skips straight to
        // its own start page (every start left of the query sorts before).
        let mut start = query.start & !(ranges.widest - 1);
        if let Some((s, _)) = cursor {
            if s >= query.start {
                start = s;
            }
        }
        while start < query.end() {
            // Shortest length reaching the query from here, and the step
            // to the next start: left of the query, the ancestors of its
            // first page, each half the one before; inside it, every page.
            let (shortest, step) = if start < query.start {
                let reach = (query.start - start + 1).next_power_of_two();
                (reach, reach / 2)
            } else {
                (1, 1)
            };
            let longest = match start {
                0 => ranges.widest,
                s => ranges.widest.min(1 << s.trailing_zeros()),
            };
            for level in shortest.trailing_zeros()..=longest.trailing_zeros() {
                let range = NodeRange { start, len: 1 << level };
                if cursor.is_some_and(|c| (range.start, range.len) <= c) {
                    continue;
                }
                let found = ranges.ranges.get(&range).and_then(|vs| vs.at_or_below(version));
                let Some((found, node)) = found else {
                    continue;
                };
                if out.len() == max_nodes {
                    return (out, true);
                }
                out.push((NodeKey { blob, version: found, range }, node.clone()));
            }
            start += step;
        }
        (out, false)
    }

    /// The scan `range_cover` replaced — filter every stored range of the
    /// BLOB, then sort — kept as the reference the tests compare against.
    #[cfg(test)]
    fn range_cover_scan(
        &self,
        blob: BlobId,
        version: VersionId,
        query: &PageInterval,
        after: Option<NodeRange>,
        max_nodes: usize,
    ) -> (Vec<(NodeKey, MetaNode)>, bool) {
        let Some(ranges) = self.by_blob.get(&blob) else {
            return (Vec::new(), false);
        };
        let cursor = after.map(|r| (r.start, r.len));
        let mut matches: Vec<(NodeKey, MetaNode)> = ranges
            .ranges
            .iter()
            .filter(|(r, _)| r.intersects(query))
            .filter(|(r, _)| cursor.is_none_or(|c| (r.start, r.len) > c))
            .filter_map(|(r, vs)| {
                let versions: Vec<VersionId> = vs.versions().collect();
                let at = versions.partition_point(|v| *v <= version);
                let key = NodeKey { blob, version: *versions[..at].last()?, range: *r };
                Some((key, self.get(&key)?.clone()))
            })
            .collect();
        matches.sort_by_key(|(k, _)| (k.range.start, k.range.len));
        let more = matches.len() > max_nodes;
        matches.truncate(max_nodes);
        (matches, more)
    }

    /// The versions stored at `range` of `blob`, ascending (tests).
    #[cfg(test)]
    fn versions(&self, blob: BlobId, range: NodeRange) -> Vec<VersionId> {
        let vs = self.by_blob.get(&blob).and_then(|r| r.ranges.get(&range));
        vs.map_or_else(Vec::new, |vs| vs.versions().collect())
    }

    /// Number of nodes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate bytes held.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Estimated heap the store occupies: every hash table's buckets times
    /// its entry size, plus every older-version list's capacity times its
    /// element size. A leaf's replica list, a few words on the heap of its
    /// own, is not counted. Walks every stored range.
    pub fn resident_bytes(&self) -> u64 {
        let older = |vs: &Versions| vs.older.capacity() * size_of::<(VersionId, MetaNode)>();
        let blobs = self.by_blob.values().map(|r| {
            table_bytes(&r.ranges) + r.ranges.values().map(older).sum::<usize>()
        });
        (table_bytes(&self.by_blob) + blobs.sum::<usize>()) as u64
    }

    /// Accepted puts that binary-inserted below their range's newest
    /// version instead of appending.
    pub fn late_puts(&self) -> u64 {
        self.late_puts
    }

    /// Iterate all keys, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = NodeKey> + '_ {
        self.by_blob.iter().flat_map(|(&blob, r)| {
            r.ranges.iter().flat_map(move |(&range, vs)| {
                vs.versions().map(move |version| NodeKey { blob, version, range })
            })
        })
    }

    /// Update the replica set stored in a leaf. Location metadata is
    /// mutable (replication repair moves chunks around); version data is
    /// not. Returns `false` if the key is absent or not a leaf.
    pub fn patch_leaf(&mut self, key: &NodeKey, replicas: Vec<sads_sim::NodeId>) -> bool {
        let vs = self.by_blob.get_mut(&key.blob).and_then(|r| r.ranges.get_mut(&key.range));
        match vs.and_then(|vs| vs.get_mut(key.version)) {
            Some(MetaNode::Leaf { chunk }) => {
                chunk.replicas = replicas;
                true
            }
            _ => false,
        }
    }
}

/// Bytes a hash table's buckets occupy: each holds one entry and one
/// control byte. `capacity()` is 7/8 of the bucket count from 8 buckets
/// up and one less than it below.
fn table_bytes<K, V>(map: &FastMap<K, V>) -> usize {
    let buckets = match map.capacity() {
        0 => 0,
        c if c < 7 => c + 1,
        c => c / 7 * 8,
    };
    buckets * (size_of::<(K, V)>() + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::tree::{
        BaseSnapshot, Descent, NodeRef, PageSource, PendingWrite, RangeQuery, TreeBuilder,
        TreeReader,
    };
    use crate::model::{next_pow2, ChunkDescriptor, ChunkKey};
    use proptest::prelude::*;
    use std::collections::HashMap;
    use proptest::test_runner::TestCaseError;

    fn key(b: u64, v: u64, s: u64, l: u64) -> NodeKey {
        NodeKey { blob: BlobId(b), version: VersionId(v), range: NodeRange::new(s, l) }
    }

    fn inner() -> MetaNode {
        MetaNode::Inner { left: NodeRef::Hole, right: NodeRef::Hole }
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let mut s = MetaStore::new();
        let k = key(1, 1, 0, 4);
        assert!(s.put(k, inner()));
        assert_eq!(s.len(), 1);
        assert!(s.bytes() > 0);
        assert!(s.get(&k).is_some());
        assert!(s.remove(&k));
        assert!(!s.remove(&k));
        assert!(s.is_empty());
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    fn put_is_idempotent_for_retransmissions() {
        let mut s = MetaStore::new();
        let k = key(1, 1, 0, 4);
        assert!(s.put(k, inner()));
        let bytes = s.bytes();
        assert!(!s.put(k, inner()), "duplicate put reports existing");
        assert_eq!(s.bytes(), bytes, "no double accounting");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn partition_is_stable_and_spread() {
        let n = 16;
        let mut counts = vec![0usize; n];
        for b in 0..4 {
            for v in 0..16 {
                for s in 0..16 {
                    let k = key(b, v, s, 1);
                    let p = partition(&k, n);
                    assert_eq!(p, partition(&k, n), "deterministic");
                    counts[p] += 1;
                }
            }
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, 4 * 16 * 16);
        let expect = total / n;
        for (i, c) in counts.iter().enumerate() {
            assert!(
                *c > expect / 4 && *c < expect * 4,
                "partition {i} badly imbalanced: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn range_cover_returns_max_version_at_or_below_snapshot() {
        let mut s = MetaStore::new();
        // Range [0,4) written at versions 1 and 3; [0,2) at 2; [4,8) at 5.
        s.put(key(1, 1, 0, 4), inner());
        s.put(key(1, 3, 0, 4), inner());
        s.put(key(1, 2, 0, 2), inner());
        s.put(key(1, 5, 4, 4), inner());
        let q = PageInterval::new(0, 8);
        let (nodes, more) = s.range_cover(BlobId(1), VersionId(3), &q, None, 64);
        assert!(!more);
        let got: Vec<_> = nodes.iter().map(|(k, _)| (k.range.start, k.range.len, k.version.0)).collect();
        // Version 5's node is above the snapshot; [0,4) resolves to v3.
        assert_eq!(got, vec![(0, 2, 2), (0, 4, 3)]);
        // A narrower query drops non-intersecting ranges.
        let (nodes, _) = s.range_cover(BlobId(1), VersionId(9), &PageInterval::new(4, 2), None, 64);
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].0, key(1, 5, 4, 4));
        // No blob → empty.
        assert!(s.range_cover(BlobId(9), VersionId(3), &q, None, 64).0.is_empty());
    }

    #[test]
    fn range_cover_truncates_and_resumes_with_cursor() {
        let mut s = MetaStore::new();
        for p in 0..8 {
            s.put(key(1, 1, p, 1), inner());
        }
        let q = PageInterval::new(0, 8);
        let (first, more) = s.range_cover(BlobId(1), VersionId(1), &q, None, 3);
        assert!(more);
        assert_eq!(first.len(), 3);
        let cursor = first.last().unwrap().0.range;
        let (rest, more) = s.range_cover(BlobId(1), VersionId(1), &q, Some(cursor), 64);
        assert!(!more);
        assert_eq!(rest.len(), 5);
        let mut all: Vec<u64> = first.iter().chain(&rest).map(|(k, _)| k.range.start).collect();
        all.dedup();
        assert_eq!(all, (0..8).collect::<Vec<_>>(), "ordered, no dup, no gap");
    }

    #[test]
    fn remove_keeps_range_index_consistent() {
        let mut s = MetaStore::new();
        s.put(key(1, 1, 0, 4), inner());
        s.put(key(1, 2, 0, 4), inner());
        let q = PageInterval::new(0, 4);
        assert!(s.remove(&key(1, 2, 0, 4)));
        let (nodes, _) = s.range_cover(BlobId(1), VersionId(2), &q, None, 64);
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].0.version, VersionId(1), "falls back to surviving version");
        assert!(s.remove(&key(1, 1, 0, 4)));
        assert!(s.range_cover(BlobId(1), VersionId(2), &q, None, 64).0.is_empty());
    }

    const PAGE: u64 = 8;

    /// One BLOB of a generated history: its page count and the root of
    /// every published version (`roots[v - 1]` is version `v`'s).
    struct Blob {
        id: BlobId,
        pages: u64,
        roots: Vec<NodeRef>,
    }

    impl Blob {
        fn new(id: u64) -> Blob {
            Blob { id: BlobId(id), pages: 0, roots: Vec::new() }
        }

        /// Publish the next version writing `at`, the way a lone client
        /// does it: the real `TreeBuilder`, its base tree resolved from
        /// `full`. Returns the nodes the writer stores.
        fn write(&mut self, full: &mut MetaStore, at: PageInterval) -> Vec<(NodeKey, MetaNode)> {
            let version = VersionId(self.roots.len() as u64 + 1);
            let base = BaseSnapshot {
                version: VersionId(self.roots.len() as u64),
                size: self.pages * PAGE,
                root: self.roots.last().copied(),
            };
            self.pages = self.pages.max(at.end());
            let mut b =
                TreeBuilder::new(self.id, version, at, PAGE, self.pages * PAGE, base, vec![]);
            while !b.is_ready() {
                for k in b.needed_fetches() {
                    let n = full.get(&k).expect("base tree node").clone();
                    b.supply(k, &n);
                }
            }
            let chunks: Vec<ChunkDescriptor> = (at.start..at.end())
                .map(|page| ChunkDescriptor {
                    key: ChunkKey { blob: self.id, version, page },
                    replicas: vec![NodeId(0)],
                    size: PAGE,
                })
                .collect();
            let (nodes, root) = b.build(&chunks);
            for (k, n) in &nodes {
                assert!(full.put(*k, n.clone()), "node {k:?} written twice");
            }
            self.roots.push(root);
            nodes
        }

        /// The write a generated `(kind, a, b)` step stands for: an
        /// overwrite of `b` pages at an arbitrary offset (running past the
        /// end when it falls near it), or an append — flush or leaving a
        /// hole — that sooner or later grows the root.
        fn step(&self, kind: u8, a: u64, b: u64) -> PageInterval {
            match kind {
                0..=2 => PageInterval::new(a % self.pages, b),
                _ => PageInterval::new(self.pages + if a.is_multiple_of(3) { a % 9 } else { 0 }, b),
            }
        }
    }

    /// Queries that probe the enumeration's edges on a BLOB of `pages`
    /// pages: empty, one page, unaligned, across the root's midpoint,
    /// across and past the end, whole BLOB.
    fn edge_queries(pages: u64, (x, y): (u64, u64)) -> Vec<PageInterval> {
        let widest = next_pow2(pages);
        let mid = widest / 2;
        vec![
            PageInterval::new(x % (pages + 2), 0),
            PageInterval::new(x % pages, 1),
            PageInterval::new(x % pages, 1 + y % 9),
            PageInterval::new(mid - x % (mid + 1), 1 + x % (mid + 1) + y % 3),
            PageInterval::new(pages - 1, 2 + y % 5),
            PageInterval::new(pages + x % (2 * widest), 1 + y % 5),
            PageInterval::new(0, pages),
        ]
    }

    /// `range_cover` against the scan it replaced, on one store: every
    /// edge query, at version 0, mid-history and beyond the latest,
    /// untruncated and walked through the cursor in pages of 1 and 3.
    fn assert_matches_scan(
        s: &MetaStore,
        blob: &Blob,
        seed: (u64, u64),
    ) -> Result<(), TestCaseError> {
        let latest = blob.roots.len() as u64;
        for q in edge_queries(blob.pages, seed) {
            for v in [0, 1 + seed.0 % latest, latest + 2] {
                let v = VersionId(v);
                let whole = s.range_cover(blob.id, v, &q, None, usize::MAX);
                prop_assert_eq!(&whole, &s.range_cover_scan(blob.id, v, &q, None, usize::MAX));
                prop_assert!(!whole.1, "untruncated call reported more");
                for page in [1, 3] {
                    let (mut walked, mut after) = (Vec::new(), None);
                    loop {
                        let got = s.range_cover(blob.id, v, &q, after, page);
                        prop_assert_eq!(&got, &s.range_cover_scan(blob.id, v, &q, after, page));
                        let (nodes, more) = got;
                        walked.extend(nodes);
                        if !more {
                            break;
                        }
                        after = walked.last().map(|(k, _)| k.range);
                    }
                    prop_assert_eq!(&walked, &whole.0, "pages of {} at {:?} {:?}", page, v, q);
                }
            }
        }
        Ok(())
    }

    /// History steps: `kind` 0–2 overwrite, 3 append (BLOB 1), 4 write to
    /// BLOB 2, 5–6 collect a stored node, 7 replay what is held back.
    fn steps() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
        prop::collection::vec((0u8..8, 0u64..1 << 20, 1u64..=17), 1..16)
    }

    /// Every range's version list is strictly ascending: the order
    /// `range_cover` relies on, whatever order the puts came in.
    fn assert_index_sorted(s: &MetaStore) -> Result<(), TestCaseError> {
        for (&blob, ranges) in &s.by_blob {
            for &r in ranges.ranges.keys() {
                let vs = s.versions(blob, r);
                prop_assert!(vs.windows(2).all(|w| w[0] < w[1]), "{} holds {:?}", r, vs);
            }
        }
        Ok(())
    }

    /// Everything a store answers: its size, and every node it holds, in
    /// a fixed order.
    fn contents(s: &MetaStore) -> (usize, u64, Vec<(NodeKey, MetaNode)>) {
        let mut all: Vec<_> = s.keys().map(|k| (k, s.get(&k).expect("listed key").clone())).collect();
        all.sort_by_key(|(k, _)| (k.blob, k.range.start, k.range.len, k.version));
        (s.len(), s.bytes(), all)
    }

    /// Store a writer's nodes — those `keep` picks by position — in the
    /// whole store and in its partition, the first write of a key winning
    /// as on the providers.
    fn store_nodes(
        full: &mut MetaStore,
        parts: &mut [MetaStore; 2],
        nodes: Vec<(NodeKey, MetaNode)>,
        keep: impl Fn(usize) -> bool,
    ) {
        for (j, (k, n)) in nodes.into_iter().enumerate() {
            if keep(j) && full.put(k, n.clone()) {
                parts[partition(&k, 2)].put(k, n);
            }
        }
    }

    /// Every node the partitions answer a bulk query with.
    fn cover(parts: &[MetaStore; 2], q: RangeQuery) -> HashMap<NodeKey, MetaNode> {
        let answer = |p: &MetaStore| p.range_cover(q.blob, q.version, &q.query, q.after, usize::MAX);
        parts.iter().flat_map(|p| answer(p).0).collect()
    }

    /// Build version `version`'s nodes, writing `at` to make the BLOB
    /// `pages` pages, over `base` with `pending` ticketed ahead of it, its
    /// chunks on replica `replica`, twice: resolved through
    /// `MetaStore::get` alone, and the way a cold client resolves —
    /// `rounds` rounds per node, then the one bulk query from there,
    /// answered by the partitions. Both must build the same nodes and root.
    fn build_both(
        full: &MetaStore,
        parts: &[MetaStore; 2],
        blob: BlobId,
        (version, at, pages): (VersionId, PageInterval, u64),
        base: BaseSnapshot,
        pending: &[PendingWrite],
        (rounds, replica): (u64, u32),
    ) -> Result<(Vec<(NodeKey, MetaNode)>, NodeRef), TestCaseError> {
        let size = pages * PAGE;
        let new = || TreeBuilder::new(blob, version, at, PAGE, size, base, pending.to_vec());
        type Fetch<'a> = &'a dyn Fn(&NodeKey) -> Option<MetaNode>;
        let walk = |b: &mut TreeBuilder, rounds: u64, fetch: Fetch| {
            for _ in 0..rounds {
                if b.is_ready() {
                    break;
                }
                for k in b.needed_fetches() {
                    let n = fetch(&k).ok_or_else(|| {
                        TestCaseError::fail(format!("{k:?} of {version:?}'s base not at hand"))
                    })?;
                    b.supply(k, &n);
                }
            }
            Ok::<(), TestCaseError>(())
        };
        let get = |k: &NodeKey| full.get(k).cloned();
        let (mut by_get, mut by_cover) = (new(), new());
        walk(&mut by_get, u64::MAX, &get)?;
        walk(&mut by_cover, rounds, &get)?;
        if !by_cover.is_ready() {
            let covered = cover(parts, by_cover.range_query());
            walk(&mut by_cover, u64::MAX, &|k| covered.get(k).cloned())?;
        }
        let chunks: Vec<ChunkDescriptor> = (at.start..at.end())
            .map(|page| ChunkDescriptor {
                key: ChunkKey { blob, version, page },
                replicas: vec![NodeId(replica)],
                size: PAGE,
            })
            .collect();
        let built = by_get.build(&chunks);
        prop_assert_eq!(&by_cover.build(&chunks), &built);
        Ok(built)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The enumeration returns what the scan returns — same keys, same
        /// nodes, same order, same `more` — after every step of a history
        /// of real writes to two BLOBs, removals of arbitrary stored nodes,
        /// down to the last node of a BLOB, and puts out of version order.
        #[test]
        fn range_cover_equals_the_scan_it_replaced(
            first in 1u64..24,
            steps in steps(),
            seed in (0u64..1 << 20, 0u64..1 << 20),
        ) {
            // `full` keeps every node so later writers can resolve their
            // base tree; `s` is the store under test, which GC thins out.
            let (mut full, mut s) = (MetaStore::new(), MetaStore::new());
            let mut blobs = [Blob::new(1), Blob::new(2)];
            let mut live: Vec<NodeKey> = Vec::new();
            // Nodes not in `s`: held back from their write, or removed. A
            // replay puts them back newest first, so each lands under
            // versions its range already holds — a late retransmission, or
            // recovery replaying an older version after a newer one.
            let mut held: Vec<NodeKey> = Vec::new();
            type Nodes = Vec<(NodeKey, MetaNode)>;
            /// Put a write's nodes, holding back about a quarter of them,
            /// chosen by `mask`.
            fn put_some(
                s: &mut MetaStore,
                live: &mut Vec<NodeKey>,
                held: &mut Vec<NodeKey>,
                nodes: Nodes,
                mask: u64,
            ) {
                let mask = mask.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for (j, (k, n)) in nodes.into_iter().enumerate() {
                    if (mask >> (j % 32 * 2)) & 3 == 0 {
                        held.push(k);
                    } else {
                        s.put(k, n);
                        live.push(k);
                    }
                }
            }
            let nodes = blobs[0].write(&mut full, PageInterval::new(0, first));
            put_some(&mut s, &mut live, &mut held, nodes, seed.0);
            let nodes = blobs[1].write(&mut full, PageInterval::new(0, 1 + first % 2));
            put_some(&mut s, &mut live, &mut held, nodes, seed.1);
            for (kind, a, b) in steps {
                match kind {
                    0..=4 => {
                        let (blob, kind) = match kind {
                            4 => (&mut blobs[1], (a % 4) as u8),
                            _ => (&mut blobs[0], kind),
                        };
                        let at = blob.step(kind, a, b);
                        let nodes = blob.write(&mut full, at);
                        put_some(&mut s, &mut live, &mut held, nodes, a ^ (b << 20));
                    }
                    5 if !live.is_empty() => {
                        let k = live.swap_remove(a as usize % live.len());
                        prop_assert!(s.remove(&k));
                        held.push(k);
                    }
                    6 if !live.is_empty() => {
                        // A batch, as GC sends it: about a third of the
                        // stored nodes, one of them twice, plus one that
                        // is not stored.
                        let mask = a.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let (gone, kept): (Vec<_>, Vec<_>) = live
                            .iter()
                            .enumerate()
                            .partition(|(j, _)| (mask >> (j % 32 * 2)) & 3 == 0);
                        let gone: Vec<NodeKey> = gone.into_iter().map(|(_, k)| *k).collect();
                        live = kept.into_iter().map(|(_, k)| *k).collect();
                        let mut batch = gone.clone();
                        batch.extend(gone.first().copied());
                        batch.extend(held.last().copied());
                        prop_assert_eq!(s.remove_all(&batch), gone.len());
                        held.extend(gone);
                    }
                    7 => {
                        if !live.is_empty() {
                            // A retransmission of a stored node is refused.
                            let k = live[a as usize % live.len()];
                            prop_assert!(!s.put(k, full.get(&k).unwrap().clone()));
                        }
                        while let Some(k) = held.pop() {
                            prop_assert!(s.put(k, full.get(&k).unwrap().clone()));
                            live.push(k);
                        }
                    }
                    _ => {}
                }
                assert_index_sorted(&s)?;
                let seed = (seed.0 ^ a, seed.1 ^ b);
                assert_matches_scan(&s, &blobs[0], seed)?;
                assert_matches_scan(&s, &blobs[1], seed)?;
            }
            // Collect BLOB 2 to its last node: its index entry, and with
            // it the widest length, goes; a later put starts it afresh.
            let (gone, kept): (Vec<NodeKey>, Vec<NodeKey>) =
                live.iter().partition(|k| k.blob == blobs[1].id);
            for k in &gone {
                prop_assert!(s.remove(k));
                assert_matches_scan(&s, &blobs[1], seed)?;
            }
            prop_assert!(!s.by_blob.contains_key(&blobs[1].id));
            prop_assert_eq!(s.len(), kept.len());
            prop_assert_eq!(s.keys().count(), kept.len());
            if let Some(k) = gone.iter().find(|k| k.range.is_leaf()) {
                s.put(*k, full.get(k).unwrap().clone());
                assert_matches_scan(&s, &blobs[1], seed)?;
            }
            assert_matches_scan(&s, &blobs[0], seed)?;
        }

        /// What the scan was for: the union of two partitioned stores'
        /// answers to one bulk query — all a cold client has after its
        /// broadcast — holds every node a descent still needs. A read
        /// (`TreeReader`) finishes on it without a per-node fetch and finds
        /// the pages `MetaStore::get` finds. A write (`TreeBuilder`) that
        /// walked a few rounds per node first, as far as a client's cache
        /// took it, finishes on the query from there and builds the nodes
        /// and root one resolved through `MetaStore::get` alone builds. The
        /// history holds appends that grow the root, writers ticketed
        /// together with the ones ahead of them pending, and stalled writes
        /// recovered as no-op versions: rebuilt by the recovery agent over
        /// the nodes the dead writer got stored (first write wins), or
        /// republishing the predecessor's root over them.
        #[test]
        fn range_cover_alone_feeds_a_whole_descent(
            first in 1u64..24,
            steps in steps(),
            seed in (0u64..1 << 20, 0u64..1 << 20),
        ) {
            let mut full = MetaStore::new();
            let mut parts = [MetaStore::new(), MetaStore::new()];
            let mut blob = Blob::new(1);
            let base0 = BaseSnapshot { version: VersionId(0), size: 0, root: None };
            let write = (VersionId(1), PageInterval::new(0, first), first);
            let (nodes, root) = build_both(&full, &parts, blob.id, write, base0, &[], (0, 0))?;
            store_nodes(&mut full, &mut parts, nodes, |_| true);
            (blob.pages, blob.roots) = (first, vec![root]);
            for (i, (kind, a, b)) in steps.into_iter().enumerate() {
                // Per-node rounds before the bulk query.
                let rounds = (seed.0 >> (i % 8 * 2)) & 3;
                let next = blob.roots.len() as u64 + 1;
                let base = BaseSnapshot {
                    version: VersionId(next - 1),
                    size: blob.pages * PAGE,
                    root: blob.roots.last().copied(),
                };
                match kind {
                    4 | 5 => {
                        // Writers ticketed together: each builds with the
                        // ones ahead of it pending, all publish in order.
                        let (mut pending, mut pages) = (Vec::new(), blob.pages);
                        for j in 0..u64::from(kind - 2) {
                            let kind = (a >> (2 * j) & 3) as u8;
                            let at = blob.step(kind, a.rotate_left(7 * j as u32), b);
                            pages = pages.max(at.end());
                            let (version, size_after) = (VersionId(next + j), pages * PAGE);
                            let write = (version, at, pages);
                            let (ahead, how) = (&pending[..], (rounds, 0));
                            let (nodes, root) =
                                build_both(&full, &parts, blob.id, write, base, ahead, how)?;
                            store_nodes(&mut full, &mut parts, nodes, |_| true);
                            pending.push(PendingWrite { version, interval: at, size_after });
                            blob.roots.push(root);
                        }
                        blob.pages = pages;
                    }
                    6 => {
                        // A writer stores about half its nodes and stalls;
                        // the recovery agent rebuilds its version over them.
                        // The agent's leaves point elsewhere, so which copy
                        // of a range won stays visible.
                        let at = blob.step((a & 3) as u8, a, b);
                        let write = (VersionId(next), at, blob.pages.max(at.end()));
                        let (nodes, root) =
                            build_both(&full, &parts, blob.id, write, base, &[], (rounds, 0))?;
                        let mask = b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        store_nodes(&mut full, &mut parts, nodes, |j| (mask >> (j % 64)) & 1 == 0);
                        let (nodes, _) =
                            build_both(&full, &parts, blob.id, write, base, &[], (rounds, 1))?;
                        store_nodes(&mut full, &mut parts, nodes, |_| true);
                        blob.pages = write.2;
                        blob.roots.push(root);
                    }
                    7 => {
                        // A writer stalled before storing any node, and its
                        // version republishes its predecessor's root: the
                        // version that created a base root is older than the
                        // base from here on.
                        blob.roots.push(base.root.expect("a version is published"));
                    }
                    _ => {
                        let at = blob.step(kind & 3, a, b);
                        let write = (VersionId(next), at, blob.pages.max(at.end()));
                        let (nodes, root) =
                            build_both(&full, &parts, blob.id, write, base, &[], (rounds, 0))?;
                        store_nodes(&mut full, &mut parts, nodes, |_| true);
                        blob.pages = write.2;
                        blob.roots.push(root);
                    }
                }
            }
            type Fetch<'a> = &'a dyn Fn(&NodeKey) -> Option<MetaNode>;
            let descend = |root: NodeRef, q: PageInterval, fetch: Fetch| {
                let mut r = TreeReader::new(blob.id, Some(root), q);
                while !r.is_done() {
                    for k in r.needed_fetches() {
                        let n = fetch(&k).ok_or_else(|| {
                            TestCaseError::fail(format!("{k:?} on the read path of {q:?} not covered"))
                        })?;
                        r.supply(k, &n);
                    }
                }
                Ok::<Vec<PageSource>, TestCaseError>(r.into_sources())
            };
            for (i, root) in blob.roots.iter().enumerate() {
                let v = VersionId(i as u64 + 1);
                let seed = (seed.0 + i as u64, seed.1 ^ i as u64);
                for q in edge_queries(blob.pages, seed) {
                    let bulk = TreeReader::new(blob.id, Some(*root), q).bulk_query(parts.len());
                    let covered = cover(&parts, bulk.expect("a read always broadcasts"));
                    let from_cover = descend(*root, q, &|k| covered.get(k).cloned())?;
                    let from_get = descend(*root, q, &|k| full.get(k).cloned())?;
                    prop_assert_eq!(from_cover, from_get, "{:?} of {:?}", q, v);
                }
            }
        }

        /// `remove_all` leaves the store per-key `remove` leaves — same
        /// nodes, `len`, `bytes` and `range_cover` answers — and counts
        /// what per-key removal reports `true` for, whatever the batch:
        /// whole versions, scattered nodes, duplicates, keys not stored.
        #[test]
        fn batch_removal_equals_per_key_removal(
            first in 1u64..24,
            steps in steps(),
            picks in prop::collection::vec((0u64..1 << 20, 0u8..2), 1..6),
        ) {
            let mut full = MetaStore::new();
            let mut blobs = [Blob::new(1), Blob::new(2)];
            let mut written: Vec<NodeKey> = Vec::new();
            for (blob, pages) in blobs.iter_mut().zip([first, 1 + first % 2]) {
                written.extend(blob.write(&mut full, PageInterval::new(0, pages)).iter().map(|(k, _)| *k));
            }
            for (kind, a, b) in steps {
                let blob = &mut blobs[usize::from(kind >= 4)];
                let at = blob.step(kind % 4, a, b);
                written.extend(blob.write(&mut full, at).iter().map(|(k, _)| *k));
            }
            let (mut one, mut batch) = (MetaStore::new(), MetaStore::new());
            for k in &written {
                one.put(*k, full.get(k).unwrap().clone());
                batch.put(*k, full.get(k).unwrap().clone());
            }
            for (pick, whole_version) in picks {
                let whole_version = whole_version == 1;
                // Either every node of one version, as the version GC
                // retires it, or a scattered third of all written keys.
                let victims: Vec<NodeKey> = if whole_version {
                    let v = written[pick as usize % written.len()].version;
                    written.iter().filter(|k| k.version == v).copied().collect()
                } else {
                    let mask = pick.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let skip = |j: usize| (mask >> (j % 32 * 2)) & 3 != 0;
                    written.iter().enumerate().filter(|(j, _)| !skip(*j)).map(|(_, k)| *k).collect()
                };
                let mut expect = 0;
                for k in &victims {
                    expect += usize::from(one.remove(k));
                }
                // Each key three times: runs of keys that are not (or no
                // longer) stored must not hide the stored one after them.
                let sent: Vec<NodeKey> = victims.iter().flat_map(|k| [*k; 3]).collect();
                prop_assert_eq!(batch.remove_all(&sent), expect);
                prop_assert_eq!(contents(&batch), contents(&one));
                for blob in &blobs {
                    let latest = blob.roots.len() as u64;
                    for q in edge_queries(blob.pages, (pick, latest)) {
                        for v in [1, 1 + pick % latest, latest + 2] {
                            let v = VersionId(v);
                            prop_assert_eq!(
                                batch.range_cover(blob.id, v, &q, None, usize::MAX),
                                one.range_cover(blob.id, v, &q, None, usize::MAX)
                            );
                        }
                    }
                }
            }
        }
    }

    /// Partitioning is part of the deployment's shape: which metadata
    /// provider holds a node, and so the order the simulator delivers
    /// metadata traffic. Its hash is a fixed function, pinned here, not
    /// whatever the maps' hasher is.
    #[test]
    fn node_key_hash_is_pinned() {
        assert_eq!(node_key_hash(&key(1, 1, 0, 1)), 0x0ab1_85bb_b69a_2d35);
        assert_eq!(node_key_hash(&key(1, 1, 1, 1)), 0xac9d_a810_510b_0911);
        assert_eq!(node_key_hash(&key(1, 2, 0, 1)), 0x68d4_364d_e9ae_e53c);
        assert_eq!(node_key_hash(&key(2, 1, 0, 1)), 0xf55f_b925_3721_fbb5);
        assert_eq!(node_key_hash(&key(7, 40_000, 32_768, 32_768)), 0x3cfe_d5fe_693a_b5e5);
    }

    /// Out-of-order puts — a retransmission arriving late, recovery
    /// replaying an older version after a newer one — insert in place, and
    /// a remove takes out exactly its version.
    #[test]
    fn versions_stay_sorted_whatever_the_put_order() {
        let mut s = MetaStore::new();
        for v in [3, 9, 1, 5, 7] {
            assert!(s.put(key(1, v, 0, 4), inner()));
        }
        let range = NodeRange::new(0, 4);
        let versions = |s: &MetaStore| s.versions(BlobId(1), range);
        // The version `range_cover` resolves the range to in version `v`'s tree.
        let at = |s: &MetaStore, v| {
            let (nodes, _) = s.range_cover(BlobId(1), VersionId(v), &range.interval(), None, 8);
            nodes[0].0.version.0
        };
        assert_eq!(versions(&s), [1, 3, 5, 7, 9].map(VersionId));
        assert_eq!(s.late_puts(), 3, "3 and 9 appended; 1, 5 and 7 inserted");
        assert_eq!((at(&s, 4), at(&s, 9), at(&s, 100)), (3, 9, 9));
        assert!(s.remove(&key(1, 5, 0, 4)));
        assert!(s.remove(&key(1, 9, 0, 4)));
        assert_eq!(versions(&s), [1, 3, 7].map(VersionId));
        assert_eq!((at(&s, 6), at(&s, 100)), (3, 7));
    }

    /// Collecting a range's newest version hands both lookups to the one
    /// below it.
    #[test]
    fn removing_the_newest_promotes_the_previous() {
        let mut s = MetaStore::new();
        let leaf = |v| MetaNode::Leaf {
            chunk: ChunkDescriptor {
                key: ChunkKey { blob: BlobId(1), version: VersionId(v), page: 0 },
                replicas: vec![NodeId(0)],
                size: PAGE,
            },
        };
        for v in [2, 4, 6] {
            s.put(key(1, v, 0, 1), leaf(v));
        }
        let q = PageInterval::new(0, 1);
        let cover = |s: &MetaStore, v| s.range_cover(BlobId(1), VersionId(v), &q, None, 8).0;
        assert!(s.remove(&key(1, 6, 0, 1)));
        assert_eq!(s.get(&key(1, 6, 0, 1)), None);
        assert_eq!(s.get(&key(1, 4, 0, 1)), Some(&leaf(4)));
        assert_eq!(cover(&s, 9), vec![(key(1, 4, 0, 1), leaf(4))]);
        assert_eq!(s.remove_all(&[key(1, 4, 0, 1)]), 1);
        assert_eq!(cover(&s, 9), vec![(key(1, 2, 0, 1), leaf(2))]);
        assert_eq!(s.get(&key(1, 2, 0, 1)), Some(&leaf(2)));
        assert_eq!((s.len(), s.bytes()), (1, leaf(2).wire_size()));
    }

    /// A retransmitted older version is refused like any duplicate: it is
    /// not stored twice, not counted twice and not a late put.
    #[test]
    fn duplicate_put_of_an_older_version_counts_nothing() {
        let mut s = MetaStore::new();
        for v in [1, 2, 3] {
            assert!(s.put(key(1, v, 0, 4), inner()));
        }
        let before = (s.len(), s.bytes(), s.late_puts());
        assert!(!s.put(key(1, 2, 0, 4), inner()));
        assert!(!s.put(key(1, 1, 0, 4), inner()));
        assert!(!s.put(key(1, 3, 0, 4), inner()));
        assert_eq!((s.len(), s.bytes(), s.late_puts()), before);
        assert_eq!(s.versions(BlobId(1), NodeRange::new(0, 4)), [1, 2, 3].map(VersionId));
    }

    #[test]
    fn keys_lists_every_node_once() {
        let mut s = MetaStore::new();
        for (b, v, st, l) in [(1, 1, 0, 4), (1, 2, 0, 4), (1, 3, 0, 4), (1, 2, 0, 2), (2, 1, 0, 1)] {
            s.put(key(b, v, st, l), inner());
        }
        s.put(key(1, 0, 0, 4), inner());
        assert!(s.remove(&key(1, 3, 0, 4)));
        assert_eq!(s.remove_all(&[key(1, 1, 0, 4), key(2, 1, 0, 1), key(9, 1, 0, 1)]), 2);
        s.put(key(2, 5, 0, 1), inner());
        let mut keys: Vec<_> = s.keys().map(|k| (k.blob.0, k.version.0, k.range.start, k.range.len)).collect();
        keys.sort();
        assert_eq!(keys, [(1, 0, 0, 4), (1, 2, 0, 2), (1, 2, 0, 4), (2, 5, 0, 1)]);
        assert_eq!(s.keys().count(), s.len());
    }

    /// The heap estimate follows the store: it grows as versions and
    /// ranges arrive, and falls as ranges go.
    #[test]
    fn resident_bytes_grows_with_puts_and_falls_with_ranges() {
        let mut s = MetaStore::new();
        assert_eq!(s.resident_bytes(), 0);
        s.put(key(1, 1, 0, 1), inner());
        let one = s.resident_bytes();
        assert!(one > 0);
        for v in 2..=64 {
            s.put(key(1, v, 0, 1), inner());
        }
        let deep = s.resident_bytes();
        assert!(deep >= one + 63 * size_of::<(VersionId, MetaNode)>() as u64, "{one} → {deep}");
        for p in 1..256 {
            s.put(key(1, 1, p, 1), inner());
        }
        let wide = s.resident_bytes();
        assert!(wide > deep + 255 * size_of::<(NodeRange, Versions)>() as u64, "{deep} → {wide}");
        // Each of those ranges' last version goes: the table gives back
        // its buckets.
        let gone: Vec<NodeKey> = (1..256).map(|p| key(1, 1, p, 1)).collect();
        assert_eq!(s.remove_all(&gone), 255);
        assert!(s.resident_bytes() < wide / 2, "{wide} → {}", s.resident_bytes());
        // And with the BLOB's last range, its table.
        let blob = s.resident_bytes();
        let last: Vec<NodeKey> = (1..=64).map(|v| key(1, v, 0, 1)).collect();
        assert_eq!(s.remove_all(&last), 64);
        assert!(s.is_empty());
        assert!(s.resident_bytes() < blob, "{blob} → {}", s.resident_bytes());
    }

    /// The bucket count `table_bytes` infers from `capacity()` is what the
    /// table allocates: a power of two, at least 8/7 of the entries held
    /// from 8 buckets up, and never twice what those entries need.
    #[test]
    fn table_bytes_infers_the_bucket_count() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        assert_eq!(table_bytes(&m), 0);
        for n in 1..=2000u64 {
            m.insert(n, n);
            let buckets = table_bytes(&m) / (size_of::<(u64, u64)>() + 1);
            assert!(buckets.is_power_of_two(), "{n} entries: {buckets} buckets");
            assert!(buckets > m.len() && (buckets < 8 || buckets / 8 * 7 >= m.len()));
            assert!(buckets <= 4 || buckets / 2 / 8 * 7 < m.len(), "{n} entries: {buckets}");
        }
    }

    #[test]
    fn different_keys_usually_hash_differently() {
        let a = node_key_hash(&key(1, 1, 0, 1));
        let b = node_key_hash(&key(1, 1, 1, 1));
        let c = node_key_hash(&key(1, 2, 0, 1));
        let d = node_key_hash(&key(2, 1, 0, 1));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
