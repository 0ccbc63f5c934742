//! The pure reclamation planner: retention policies, GC roots, and the
//! unified liveness rule shared by chunks and metadata tree nodes.
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
//! Roots are the versions that must stay readable: whatever the
//! [`RetentionPolicy`] selects, plus every snapshot, plus the latest
//! published version — or nothing at all once the BLOB is
//! decommissioned. Everything not live is safe to reclaim, and a version
//! none of whose items are live (and which is not itself a root) can
//! have its catalog record retired.
//!
//! A version record is retired only once **all** of its items are dead.
//! Retiring earlier would orphan the still-shared items: they outlive
//! the record, but the planner could no longer see them, so they would
//! leak when their referencing root eventually dies.

use std::collections::BTreeSet;

use sads_blob::meta::{created_ranges, NodeKey};
use sads_blob::model::{BlobId, ChunkKey, VersionId};
use sads_blob::vmanager::VersionSummary;
use sads_sim::{SimDuration, SimTime};

/// Per-BLOB retention policy: which published versions stay readable
/// (and therefore pin their chunks and tree nodes as GC roots).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetentionPolicy {
    /// Every published version is a root; only decommissioning reclaims.
    KeepAll,
    /// The newest `n` published versions are roots (at least the
    /// latest, even for `n = 0`). Snapshots stay roots regardless.
    KeepLastN(usize),
    /// Only snapshots (and the latest version) are roots: the archival
    /// policy for churning scratch data with explicit save points.
    KeepSnapshots,
    /// Versions published within this window of the catalog's clock
    /// ([`CatalogView::now`]) are roots, beside snapshots and the latest:
    /// the paper's "temporary data" strategy — whatever nobody pinned
    /// ages out once something newer supersedes it.
    KeepNewerThan(SimDuration),
}

/// One BLOB's version catalog as the version manager reports it.
#[derive(Clone, Debug)]
pub struct CatalogView<'a> {
    /// The BLOB.
    pub blob: BlobId,
    /// Its page size.
    pub page_size: u64,
    /// Published versions (including v0), any order.
    pub versions: &'a [VersionSummary],
    /// Versions pinned as snapshots.
    pub snapshots: &'a [VersionId],
    /// Whether the BLOB was decommissioned.
    pub decommissioned: bool,
    /// The clock version ages are measured against (the sweeper's
    /// `env.now()`); only [`RetentionPolicy::KeepNewerThan`] reads it.
    pub now: SimTime,
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

/// The GC roots of a catalog under a policy: retention-selected versions
/// ∪ snapshots ∪ latest — or ∅ when decommissioned. v0 owns no items, so
/// it is never reported as a root.
pub fn roots(view: &CatalogView<'_>, policy: RetentionPolicy) -> BTreeSet<VersionId> {
    if view.decommissioned {
        return BTreeSet::new();
    }
    let latest =
        view.versions.iter().map(|v| v.version).max().unwrap_or(VersionId::INITIAL);
    let mut roots: BTreeSet<VersionId> = view.snapshots.iter().copied().collect();
    roots.insert(latest);
    match policy {
        RetentionPolicy::KeepAll => roots.extend(view.versions.iter().map(|v| v.version)),
        RetentionPolicy::KeepLastN(n) => {
            let mut all: Vec<VersionId> = view
                .versions
                .iter()
                .map(|v| v.version)
                .filter(|v| *v != VersionId::INITIAL)
                .collect();
            all.sort_unstable();
            roots.extend(all.iter().rev().take(n.max(1)));
        }
        RetentionPolicy::KeepSnapshots => {}
        RetentionPolicy::KeepNewerThan(window) => roots.extend(
            view.versions
                .iter()
                .filter(|v| view.now.since(v.published_at) <= window)
                .map(|v| v.version),
        ),
    }
    roots.remove(&VersionId::INITIAL);
    roots
}

/// Live iff some root lies in `[v, u)` — see the module docs.
fn live(v: VersionId, invalidated_at: Option<VersionId>, roots: &BTreeSet<VersionId>) -> bool {
    match invalidated_at {
        Some(u) => roots.range(v..u).next().is_some(),
        None => roots.range(v..).next().is_some(),
    }
}

/// Compute the full reclamation plan for one BLOB under a policy.
pub fn plan_blob(view: &CatalogView<'_>, policy: RetentionPolicy) -> BlobPlan {
    let roots = roots(view, policy);
    let mut sorted = view.versions.to_vec();
    sorted.sort_by_key(|v| v.version);
    let mut plan = BlobPlan::default();
    for (i, v) in sorted.iter().enumerate() {
        if v.version == VersionId::INITIAL || roots.contains(&v.version) {
            continue;
        }
        let later = &sorted[i + 1..];
        let mut all_dead = true;
        for p in v.interval.start..v.interval.end() {
            let u = later
                .iter()
                .find(|w| w.interval.contains_page(p))
                .map(|w| w.version);
            if live(v.version, u, &roots) {
                all_dead = false;
            } else {
                plan.chunks.push(ChunkKey { blob: view.blob, version: v.version, page: p });
            }
        }
        for r in created_ranges(v.interval, v.size, view.page_size) {
            let u = later.iter().find(|w| r.intersects(&w.interval)).map(|w| w.version);
            if live(v.version, u, &roots) {
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
pub fn mark_live_chunks(view: &CatalogView<'_>, policy: RetentionPolicy) -> BTreeSet<ChunkKey> {
    let roots = roots(view, policy);
    let mut sorted = view.versions.to_vec();
    sorted.sort_by_key(|v| v.version);
    let mut out = BTreeSet::new();
    for root in &roots {
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
            published_at: SimTime::from_secs(v),
        }
    }

    fn view<'a>(
        versions: &'a [VersionSummary],
        snapshots: &'a [VersionId],
        decommissioned: bool,
    ) -> CatalogView<'a> {
        let now = SimTime::from_secs(10);
        CatalogView { blob: BlobId(1), page_size: PAGE, versions, snapshots, decommissioned, now }
    }

    fn ids(vs: &[u64]) -> BTreeSet<VersionId> {
        vs.iter().copied().map(VersionId).collect()
    }

    #[test]
    fn keep_all_reclaims_nothing() {
        let versions = vec![vs(0, 0, 0, 0), vs(1, 0, 4, 4), vs(2, 0, 4, 4)];
        assert!(plan_blob(&view(&versions, &[], false), RetentionPolicy::KeepAll).is_empty());
    }

    #[test]
    fn keep_last_n_reclaims_fully_overwritten_versions() {
        let versions =
            vec![vs(0, 0, 0, 0), vs(1, 0, 4, 4), vs(2, 0, 4, 4), vs(3, 0, 4, 4)];
        let plan = plan_blob(&view(&versions, &[], false), RetentionPolicy::KeepLastN(2));
        // Roots = {v2, v3}; v1 is fully overwritten by v2 before any root.
        assert_eq!(plan.retire, vec![VersionId(1)]);
        assert_eq!(plan.chunks.len(), 4);
        assert!(plan.chunks.iter().all(|c| c.version == VersionId(1)));
        assert_eq!(plan.nodes.len(), 7, "root + 2 inner + 4 leaves");
        // The newest n and v0 are never touched, and an n beyond the
        // history reclaims nothing.
        let v = view(&versions, &[], false);
        assert_eq!(roots(&v, RetentionPolicy::KeepLastN(2)), ids(&[2, 3]));
        assert!(plan_blob(&v, RetentionPolicy::KeepLastN(10)).is_empty());
    }

    #[test]
    fn snapshot_pins_an_otherwise_dead_version() {
        let versions =
            vec![vs(0, 0, 0, 0), vs(1, 0, 4, 4), vs(2, 0, 4, 4), vs(3, 0, 4, 4)];
        let snaps = [VersionId(1)];
        let plan = plan_blob(&view(&versions, &snaps, false), RetentionPolicy::KeepLastN(1));
        // v1 is a snapshot root; v2 dies (overwritten by v3, no root in [2,3)).
        assert_eq!(plan.retire, vec![VersionId(2)]);
        assert!(plan.chunks.iter().all(|c| c.version == VersionId(2)));
    }

    #[test]
    fn partial_overwrites_keep_shared_items_and_the_record() {
        // v1 writes [0,4); v2 overwrites [0,2) only. KeepLastN(1): root={v2}.
        let versions = vec![vs(0, 0, 0, 0), vs(1, 0, 4, 4), vs(2, 0, 2, 4)];
        let plan = plan_blob(&view(&versions, &[], false), RetentionPolicy::KeepLastN(1));
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
        assert!(plan_blob(&view(&versions, &[], false), RetentionPolicy::KeepLastN(1)).is_empty());
    }

    #[test]
    fn decommission_reclaims_everything() {
        let versions = vec![vs(0, 0, 0, 0), vs(1, 0, 4, 4), vs(2, 0, 2, 4)];
        let snaps = [VersionId(1)]; // stale: decommission clears pins
        let plan = plan_blob(&view(&versions, &snaps, true), RetentionPolicy::KeepAll);
        assert_eq!(plan.retire, vec![VersionId(1), VersionId(2)]);
        assert_eq!(plan.chunks.len(), 6, "all pages of both versions");
    }

    #[test]
    fn keep_snapshots_keeps_only_pins_and_latest() {
        let versions =
            vec![vs(0, 0, 0, 0), vs(1, 0, 4, 4), vs(2, 0, 4, 4), vs(3, 0, 4, 4)];
        let r = roots(&view(&versions, &[VersionId(2)], false), RetentionPolicy::KeepSnapshots);
        assert_eq!(r, ids(&[2, 3]));
        // Age runs from publication (v at v s) to the view's clock (10 s):
        // v1 has left an 8 s window, v2 and v3 have not. A window nothing
        // falls in leaves the pins and the latest, however old.
        let newer = |s| RetentionPolicy::KeepNewerThan(SimDuration::from_secs(s));
        assert_eq!(roots(&view(&versions, &[], false), newer(8)), ids(&[2, 3]));
        assert_eq!(roots(&view(&versions, &[VersionId(1)], false), newer(1)), ids(&[1, 3]));
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
        for policy in [
            RetentionPolicy::KeepAll,
            RetentionPolicy::KeepLastN(1),
            RetentionPolicy::KeepLastN(2),
            RetentionPolicy::KeepSnapshots,
            RetentionPolicy::KeepNewerThan(SimDuration::from_secs(7)),
        ] {
            let v = view(&versions, &[VersionId(2)], false);
            let live = mark_live_chunks(&v, policy);
            let plan = plan_blob(&v, policy);
            for c in &plan.chunks {
                assert!(!live.contains(c), "{policy:?} planned live chunk {c:?}");
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
        for policy in [RetentionPolicy::KeepLastN(2), RetentionPolicy::KeepLastN(1)] {
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

            let view = view(&catalog, &[], false);
            let plan = plan_blob(&view, policy);
            assert!(!plan.is_empty());
            for k in &plan.nodes {
                assert!(store.remove(k), "planned node {k:?} existed");
            }
            for root in roots(&view, policy) {
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
