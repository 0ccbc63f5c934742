//! Metadata provider storage: the node map one metadata provider holds,
//! and the static partitioning function that maps node keys onto the
//! metadata provider ring.
//!
//! BlobSeer distributes tree nodes over a set of metadata providers using
//! consistent key hashing; clients compute the owner locally from the key,
//! so no directory lookup is needed on the metadata path.

use std::collections::{BTreeMap, HashMap};

use sads_sim::NodeId;

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
#[derive(Debug, Default)]
pub struct MetaStore {
    nodes: HashMap<NodeKey, MetaNode>,
    /// Secondary index for bulk range descents: per blob, the versions
    /// stored at each range (kept sorted ascending). Lets `range_cover`
    /// answer "the node at range r in the tree of version v" — the one
    /// with the greatest stored version ≤ v — without touching the main
    /// map per candidate version.
    by_blob: HashMap<BlobId, HashMap<NodeRange, Vec<VersionId>>>,
    bytes: u64,
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
        match self.nodes.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(e) => {
                self.bytes += node.wire_size();
                e.insert(node);
                let versions =
                    self.by_blob.entry(key.blob).or_default().entry(key.range).or_default();
                let at = versions.partition_point(|v| *v < key.version);
                versions.insert(at, key.version);
                true
            }
        }
    }

    /// Fetch a node.
    pub fn get(&self, key: &NodeKey) -> Option<&MetaNode> {
        self.nodes.get(key)
    }

    /// Remove a node (used by the data-removal strategies when reclaiming
    /// whole versions). Returns whether it existed.
    pub fn remove(&mut self, key: &NodeKey) -> bool {
        if let Some(n) = self.nodes.remove(key) {
            self.bytes -= n.wire_size();
            if let Some(ranges) = self.by_blob.get_mut(&key.blob) {
                if let Some(versions) = ranges.get_mut(&key.range) {
                    versions.retain(|v| *v != key.version);
                    if versions.is_empty() {
                        ranges.remove(&key.range);
                    }
                }
                if ranges.is_empty() {
                    self.by_blob.remove(&key.blob);
                }
            }
            true
        } else {
            false
        }
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
    pub fn range_cover(
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
        let mut matches: Vec<(NodeRange, VersionId)> = ranges
            .iter()
            .filter(|(r, _)| r.intersects(query))
            .filter(|(r, _)| cursor.is_none_or(|c| (r.start, r.len) > c))
            .filter_map(|(r, versions)| {
                let at = versions.partition_point(|v| *v <= version);
                (at > 0).then(|| (*r, versions[at - 1]))
            })
            .collect();
        matches.sort_by_key(|(r, _)| (r.start, r.len));
        let more = matches.len() > max_nodes;
        matches.truncate(max_nodes);
        let out = matches
            .into_iter()
            .map(|(range, version)| {
                let key = NodeKey { blob, version, range };
                (key, self.nodes[&key].clone())
            })
            .collect();
        (out, more)
    }

    /// Number of nodes stored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Approximate bytes held.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Iterate all keys (used by removal sweeps).
    pub fn keys(&self) -> impl Iterator<Item = &NodeKey> {
        self.nodes.keys()
    }

    /// Update the replica set stored in a leaf. Location metadata is
    /// mutable (replication repair moves chunks around); version data is
    /// not. Returns `false` if the key is absent or not a leaf.
    pub fn patch_leaf(&mut self, key: &NodeKey, replicas: Vec<sads_sim::NodeId>) -> bool {
        match self.nodes.get_mut(key) {
            Some(MetaNode::Leaf { chunk }) => {
                chunk.replicas = replicas;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::tree::{NodeRange, NodeRef};
    use crate::model::{BlobId, VersionId};

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
