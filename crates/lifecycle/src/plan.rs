//! The pure reclamation planner: the unified liveness rule shared by
//! chunks and metadata tree nodes, applied to the GC roots the version
//! manager reports.
//!
//! ## The liveness rule
//!
//! Forward references make reachability computable from the catalog
//! alone. An item created by version `v` — the chunk at `(v, p)` or the
//! tree node `(v, R)` — serves version `v` itself and every later
//! version, up to but not including the first version `u > v` that
//! touched its page/range again (that version's tree redirects the
//! reference). So with `u = ∞` when nothing ever touched it again:
//!
//! > the item is **live** iff some GC root lies in `[v, u)`.
//!
//! Roots are the versions that must stay readable. The version manager
//! owns that rule (`BlobState::is_root`: the retention policy's
//! versions, every snapshot and the latest, or nothing once the BLOB is
//! decommissioned) and ships the roots in its `VersionList`; the planner
//! reads no policy. Everything not live is safe to reclaim, and a
//! version none of whose items are live (and which is not itself a
//! root) can have its catalog record retired.
//!
//! A version record is retired only once **all** of its items are dead.
//! Retiring earlier would orphan the still-shared items: they outlive
//! the record, but the planner could no longer see them, so they would
//! leak when their referencing root eventually dies.

use std::collections::BTreeSet;

use sads_blob::meta::{created_ranges, NodeKey};
use sads_blob::model::{BlobId, ChunkKey, VersionId};
use sads_blob::vmanager::VersionSummary;

/// One BLOB's version catalog as the version manager reports it.
#[derive(Clone, Debug)]
pub struct CatalogView<'a> {
    /// The BLOB.
    pub blob: BlobId,
    /// Its page size.
    pub page_size: u64,
    /// Published versions (including v0), any order.
    pub versions: &'a [VersionSummary],
    /// The GC roots, ascending.
    pub roots: &'a [VersionId],
}

/// Everything one sweep may reclaim for one BLOB.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlobPlan {
    /// Chunks safe to delete (no root reaches them).
    pub chunks: Vec<ChunkKey>,
    /// Metadata nodes safe to delete.
    pub nodes: Vec<NodeKey>,
    /// Versions whose every item is dead: forget their records,
    /// oldest first.
    pub retire: Vec<VersionId>,
}

impl BlobPlan {
    /// Is there anything to reclaim?
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty() && self.nodes.is_empty() && self.retire.is_empty()
    }
}

/// Live iff some root lies in `[v, u)` — see the module docs.
fn live(v: VersionId, invalidated_at: Option<VersionId>, roots: &[VersionId]) -> bool {
    let first = roots.partition_point(|r| *r < v);
    roots.get(first).is_some_and(|r| invalidated_at.is_none_or(|u| *r < u))
}

/// Compute the full reclamation plan for one BLOB.
pub fn plan_blob(view: &CatalogView<'_>) -> BlobPlan {
    let mut sorted = view.versions.to_vec();
    sorted.sort_by_key(|v| v.version);
    let mut plan = BlobPlan::default();
    for (i, v) in sorted.iter().enumerate() {
        if v.version == VersionId::INITIAL || view.roots.binary_search(&v.version).is_ok() {
            continue;
        }
        let later = &sorted[i + 1..];
        let mut all_dead = true;
        for p in v.interval.start..v.interval.end() {
            let u = later
                .iter()
                .find(|w| w.interval.contains_page(p))
                .map(|w| w.version);
            if live(v.version, u, view.roots) {
                all_dead = false;
            } else {
                plan.chunks.push(ChunkKey { blob: view.blob, version: v.version, page: p });
            }
        }
        for r in created_ranges(v.interval, v.size, view.page_size) {
            let u = later.iter().find(|w| r.intersects(&w.interval)).map(|w| w.version);
            if live(v.version, u, view.roots) {
                all_dead = false;
            } else {
                plan.nodes.push(NodeKey { blob: view.blob, version: v.version, range: r });
            }
        }
        if all_dead {
            plan.retire.push(v.version);
        }
    }
    plan
}

/// Reference mark-and-sweep: resolve, for every root, which chunk each
/// of its pages reads, and return that full live set. The planner's
/// output is model-checked against this in the crate's proptests — a
/// planned chunk must never be live here.
pub fn mark_live_chunks(view: &CatalogView<'_>) -> BTreeSet<ChunkKey> {
    let mut sorted = view.versions.to_vec();
    sorted.sort_by_key(|v| v.version);
    let mut out = BTreeSet::new();
    for root in view.roots {
        let Some(at) = sorted.iter().position(|v| v.version == *root) else { continue };
        let pages = sads_blob::model::pages_for(sorted[at].size, view.page_size.max(1));
        for p in 0..pages {
            // The chunk a read of page p at this root resolves to: the
            // newest version ≤ root that wrote p.
            if let Some(w) =
                sorted[..=at].iter().rev().find(|v| v.interval.contains_page(p))
            {
                out.insert(ChunkKey { blob: view.blob, version: w.version, page: p });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sads_blob::model::PageInterval;

    const PAGE: u64 = 8;

    fn vs(v: u64, start: u64, len: u64, size_pages: u64) -> VersionSummary {
        VersionSummary {
            version: VersionId(v),
            size: size_pages * PAGE,
            interval: PageInterval::new(start, len),
        }
    }

    fn view<'a>(versions: &'a [VersionSummary], roots: &'a [VersionId]) -> CatalogView<'a> {
        CatalogView { blob: BlobId(1), page_size: PAGE, versions, roots }
    }

    fn ids(vs: &[u64]) -> Vec<VersionId> {
        vs.iter().copied().map(VersionId).collect()
    }

    #[test]
    fn keep_all_reclaims_nothing() {
        // Every version is a root.
        let versions = vec![vs(0, 0, 0, 0), vs(1, 0, 4, 4), vs(2, 0, 4, 4)];
        assert!(plan_blob(&view(&versions, &ids(&[1, 2]))).is_empty());
    }

    #[test]
    fn keep_last_n_reclaims_fully_overwritten_versions() {
        let versions =
            vec![vs(0, 0, 0, 0), vs(1, 0, 4, 4), vs(2, 0, 4, 4), vs(3, 0, 4, 4)];
        // Roots {v2, v3} (KeepLastN(2)): v1 is fully overwritten by v2.
        let plan = plan_blob(&view(&versions, &ids(&[2, 3])));
        assert_eq!(plan.retire, vec![VersionId(1)]);
        assert_eq!(plan.chunks.len(), 4);
        assert!(plan.chunks.iter().all(|c| c.version == VersionId(1)));
        assert_eq!(plan.nodes.len(), 7, "root + 2 inner + 4 leaves");
    }

    #[test]
    fn snapshot_pins_an_otherwise_dead_version() {
        let versions =
            vec![vs(0, 0, 0, 0), vs(1, 0, 4, 4), vs(2, 0, 4, 4), vs(3, 0, 4, 4)];
        // KeepLastN(1) with v1 pinned: roots {v1, v3}; v2 dies
        // (overwritten by v3, no root in [2,3)).
        let plan = plan_blob(&view(&versions, &ids(&[1, 3])));
        assert_eq!(plan.retire, vec![VersionId(2)]);
        assert!(plan.chunks.iter().all(|c| c.version == VersionId(2)));
    }

    #[test]
    fn partial_overwrites_keep_shared_items_and_the_record() {
        // v1 writes [0,4); v2 overwrites [0,2) only. Roots = {v2}.
        let versions = vec![vs(0, 0, 0, 0), vs(1, 0, 4, 4), vs(2, 0, 2, 4)];
        let plan = plan_blob(&view(&versions, &ids(&[2])));
        let pages: Vec<u64> = plan.chunks.iter().map(|c| c.page).collect();
        assert_eq!(pages, vec![0, 1], "pages 2,3 still serve v2 reads");
        assert!(plan.retire.is_empty(), "record kept while items are shared");
        // Dead nodes are the ranges v2 recreated — root, inner [0,2),
        // leaves 0 and 1; v2's root still references v1's [2,4) subtree.
        let ranges: Vec<(u64, u64)> =
            plan.nodes.iter().map(|k| (k.range.start, k.range.len)).collect();
        assert_eq!(ranges, vec![(0, 4), (0, 2), (0, 1), (1, 1)], "shared subtree survives");
        // An append overwrites nothing: v2's new root [0,4) references
        // v1's whole tree, so none of v1 is reclaimable.
        let versions = vec![vs(0, 0, 0, 0), vs(1, 0, 2, 2), vs(2, 2, 2, 4)];
        assert!(plan_blob(&view(&versions, &ids(&[2]))).is_empty());
    }

    #[test]
    fn decommission_reclaims_everything() {
        // A decommissioned BLOB reports no roots.
        let versions = vec![vs(0, 0, 0, 0), vs(1, 0, 4, 4), vs(2, 0, 2, 4)];
        let plan = plan_blob(&view(&versions, &[]));
        assert_eq!(plan.retire, vec![VersionId(1), VersionId(2)]);
        assert_eq!(plan.chunks.len(), 6, "all pages of both versions");
    }

    #[test]
    fn planner_agrees_with_mark_and_sweep_on_a_fixed_history() {
        let versions = vec![
            vs(0, 0, 0, 0),
            vs(1, 0, 4, 4),
            vs(2, 1, 2, 4),
            vs(3, 0, 2, 4),
            vs(4, 2, 2, 4),
        ];
        // Every root set over v1..v4.
        for mask in 0u64..16 {
            let roots: Vec<VersionId> =
                (1..=4).filter(|v| mask & (1 << (v - 1)) != 0).map(VersionId).collect();
            let v = view(&versions, &roots);
            let live = mark_live_chunks(&v);
            for c in &plan_blob(&v).chunks {
                assert!(!live.contains(c), "roots {roots:?}: planned live chunk {c:?}");
            }
        }
    }

    /// Node-level safety (the tests above model chunks only): after
    /// executing a plan against a real metadata store, a read at every
    /// root still resolves fully, through no deleted node or chunk.
    #[test]
    fn executing_the_plan_preserves_surviving_reads() {
        use sads_blob::meta::{
            BaseSnapshot, MetaNode, MetaStore, NodeRange, NodeRef, PageSource, TreeBuilder,
            TreeReader,
        };
        use sads_blob::model::ChunkDescriptor;
        use sads_sim::NodeId;

        let blob = BlobId(1);
        // Three writes: v1 [0,4), v2 [0,2), v3 [1,3).
        let writes = [(1u64, 0u64, 4u64), (2, 0, 2), (3, 1, 2)];
        // The roots of KeepLastN(2) and of KeepLastN(1).
        for roots in [ids(&[2, 3]), ids(&[3])] {
            let mut store = MetaStore::new();
            let mut catalog = vec![vs(0, 0, 0, 0)];
            let mut tree_roots: Vec<Option<NodeRef>> = vec![None];
            for (v, start, len) in writes {
                let base = BaseSnapshot {
                    version: VersionId(v - 1),
                    size: catalog[v as usize - 1].size,
                    root: tree_roots[v as usize - 1],
                };
                let interval = PageInterval::new(start, len);
                let mut b =
                    TreeBuilder::new(blob, VersionId(v), interval, PAGE, 4 * PAGE, base, vec![]);
                while !b.is_ready() {
                    for k in b.needed_fetches() {
                        let n = store.get(&k).expect("node present").clone();
                        b.supply(k, &n);
                    }
                }
                let chunks: Vec<ChunkDescriptor> = (start..start + len)
                    .map(|page| ChunkDescriptor {
                        key: ChunkKey { blob, version: VersionId(v), page },
                        replicas: vec![NodeId(0)],
                        size: PAGE,
                    })
                    .collect();
                let (nodes, root) = b.build(&chunks);
                for (k, n) in nodes {
                    store.put(k, n);
                }
                tree_roots.push(Some(root));
                catalog.push(vs(v, start, len, 4));
            }

            let plan = plan_blob(&view(&catalog, &roots));
            assert!(!plan.is_empty());
            for k in &plan.nodes {
                assert!(store.remove(k), "planned node {k:?} existed");
            }
            for root in roots {
                let mut r =
                    TreeReader::new(blob, tree_roots[root.0 as usize], PageInterval::new(0, 4));
                while !r.is_done() {
                    for k in r.needed_fetches() {
                        let n = store
                            .get(&k)
                            .unwrap_or_else(|| panic!("read of {root:?} needs deleted node {k:?}"))
                            .clone();
                        r.supply(k, &n);
                    }
                }
                for src in r.into_sources() {
                    if let PageSource::Chunk(c) = src {
                        assert!(
                            !plan.chunks.contains(&c.key),
                            "read of {root:?} references deleted chunk {:?}",
                            c.key
                        );
                    }
                }
            }
            // Page 3 was never overwritten: v1's leaf for it serves every root.
            let survivor = NodeKey { blob, version: VersionId(1), range: NodeRange::new(3, 1) };
            assert!(matches!(store.get(&survivor), Some(MetaNode::Leaf { .. })));
        }
    }
}
