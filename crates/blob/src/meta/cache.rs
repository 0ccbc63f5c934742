//! The client's caches of immutable facts: metadata nodes (a [`NodeKey`]
//! names a node one version created, never rewritten) and published
//! versions (publication fixes a version's root, size and page size).
//! Nothing is invalidated; eviction only bounds memory.

use std::collections::VecDeque;
use std::hash::Hash;

use sads_sim::FastMap;

use super::{Descent, MetaNode, NodeKey};
use crate::model::{BlobId, VersionId, VersionInfo};

/// The metadata nodes a client has fetched or written: a hit skips a
/// round of its tree descents.
pub(crate) type NodeCache = Fifo<NodeKey, MetaNode, 4096>;

/// The published versions a client's pinned reads were told about: a
/// repeated pinned read of one of them sends no `GetVersion`.
pub(crate) type VersionCache = Fifo<(BlobId, VersionId), VersionInfo, 256>;

/// A map of at most `CAP` facts; once full, the oldest key inserted goes.
pub(crate) struct Fifo<K, V, const CAP: usize> {
    map: FastMap<K, V>,
    order: VecDeque<K>,
}

impl<K, V, const CAP: usize> Default for Fifo<K, V, CAP> {
    fn default() -> Self {
        Fifo { map: FastMap::default(), order: VecDeque::new() }
    }
}

impl<K: Copy + Eq + Hash, V, const CAP: usize> Fifo<K, V, CAP> {
    pub(crate) fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k)
    }

    /// Insert `v` under `k`. A key already held keeps its place in the
    /// order and takes the new value: a range reply replaces a cached
    /// leaf whose replicas a repair patched.
    pub(crate) fn insert(&mut self, k: K, v: V) {
        if self.map.insert(k, v).is_none() {
            self.order.push_back(k);
            if self.order.len() > CAP {
                let old = self.order.pop_front().expect("over capacity, so not empty");
                self.map.remove(&old);
            }
        }
    }
}

impl NodeCache {
    /// Run a metadata descent through cached nodes as far as they take
    /// it, without leaving the client: a warm cache turns the whole
    /// level-by-level descent into local work. `None` once the descent is
    /// done, else the keys of the first round the cache holds none of.
    pub(crate) fn descend(&self, d: &mut impl Descent) -> Option<Vec<NodeKey>> {
        while !d.done() {
            let fetches = d.needed();
            debug_assert!(!fetches.is_empty());
            let mut hit = false;
            for k in &fetches {
                if let Some(n) = self.get(k) {
                    d.supply(*k, n);
                    hit = true;
                }
            }
            if !hit {
                return Some(fetches);
            }
        }
        None
    }
}

#[cfg(test)]
impl<K, V, const CAP: usize> Fifo<K, V, CAP> {
    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }
}
