//! The lifecycle GC sweeper: a background service that periodically
//! plans each BLOB's reclamation from the roots the version manager
//! reports and executes the resulting [`BlobPlan`] — learn the doomed
//! chunks' replica locations from their leaf nodes, delete the chunk
//! replicas, delete the metadata nodes, and retire fully-dead version
//! records.
//!
//! The sweep is paced two ways: the sweep period itself, and a per-sweep
//! chunk budget (`max_chunks_per_sweep`) so a decommissioned terabyte
//! BLOB drains over several sweeps instead of flooding the data plane in
//! one. Deletions are deduplicated against what earlier sweeps already
//! issued, so a zombie record (kept because some of its items are still
//! shared) does not re-delete its dead items every sweep.
//!
//! No fence is needed between a plan and its deletes: the version
//! manager grants pins only on roots, so the roots a plan was made
//! against only shrink until the deletes land (`BlobState::is_root`).

use std::collections::HashSet;

use sads_blob::meta::{group_by_partition, MetaNode, NodeKey, NodeRange};
use sads_blob::model::{BlobId, ChunkKey, VersionId};
use sads_blob::rpc::Msg;
use sads_blob::services::{Env, Service};
use sads_blob::vmanager::RetentionPolicy;
use sads_sim::{NodeId, SimDuration};

use crate::plan::{plan_blob, BlobPlan, CatalogView};

/// Timer token: lifecycle GC sweep.
pub const TOKEN_LIFECYCLE_SWEEP: u64 = u64::MAX - 43;

/// Tuning for the lifecycle layer (carried by the deployment config).
#[derive(Clone, Debug)]
pub struct LifecycleConfig {
    /// Retention policy for every BLOB. The install hands it to the
    /// version manager, which owns the GC root rule; the sweeper reads
    /// no policy.
    pub policy: RetentionPolicy,
    /// Sweep period.
    pub sweep_every: SimDuration,
    /// Chunk-deletion budget per sweep (pacing); the remainder carries
    /// over to later sweeps.
    pub max_chunks_per_sweep: usize,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            policy: RetentionPolicy::KeepAll,
            sweep_every: SimDuration::from_secs(30),
            max_chunks_per_sweep: 10_000,
        }
    }
}

/// The background sweeper node. Its totals are the registry counters
/// `lifecycle.versions_retired`, `lifecycle.chunks_reclaimed`,
/// `lifecycle.nodes_reclaimed` and `lifecycle.reclaimed_bytes`.
pub struct LifecycleGcService {
    vman: NodeId,
    meta_providers: Vec<NodeId>,
    cfg: LifecycleConfig,
    next_req: u64,
    /// GetMeta correlation ids awaiting doomed-leaf descriptors.
    pending_leaf_gets: HashSet<u64>,
    /// Chunk deletions already issued (dedup across sweeps for zombie
    /// records); purged when the owning version leaves the catalog.
    issued_chunks: HashSet<ChunkKey>,
    /// Node deletions already issued.
    issued_nodes: HashSet<NodeKey>,
    /// Budget left in the current sweep.
    budget: usize,
}

impl LifecycleGcService {
    /// A sweeper talking to `vman` and the given metadata providers.
    pub fn new(vman: NodeId, meta_providers: Vec<NodeId>, cfg: LifecycleConfig) -> Self {
        assert!(!meta_providers.is_empty());
        LifecycleGcService {
            vman,
            meta_providers,
            cfg,
            next_req: 1,
            pending_leaf_gets: HashSet::new(),
            issued_chunks: HashSet::new(),
            issued_nodes: HashSet::new(),
            budget: 0,
        }
    }

    fn req(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    fn execute(&mut self, env: &mut dyn Env, blob: BlobId, plan: BlobPlan) {
        // 1. Learn replica locations of the doomed chunks from their leaf
        //    nodes, then (on the reply) delete the replicas. Per-peer
        //    FIFO guarantees these reads land before the node deletions
        //    in step 2 reach the same owner.
        // Versions whose chunk work the budget clipped: their node
        // deletions and record retirement must wait too — deleting the
        // leaf nodes now would lose the replica locations the next
        // sweep's GetMeta needs, and forgetting the record would hide
        // the remaining chunks from the planner forever.
        let mut deferred: HashSet<VersionId> = HashSet::new();
        let mut leaves: Vec<NodeKey> = Vec::new();
        for c in &plan.chunks {
            if self.issued_chunks.contains(c) {
                continue; // already issued by an earlier sweep
            }
            if self.budget == 0 {
                deferred.insert(c.version);
                continue;
            }
            self.budget -= 1;
            self.issued_chunks.insert(*c);
            leaves.push(NodeKey { blob, version: c.version, range: NodeRange::new(c.page, 1) });
        }
        for (owner, keys) in group_by_partition(leaves, |k| k, &self.meta_providers) {
            let req = self.req();
            self.pending_leaf_gets.insert(req);
            env.send(owner, Msg::GetMeta { req, keys });
        }
        // 2. Delete the dead metadata nodes.
        let mut nodes = plan.nodes;
        nodes.retain(|k| !deferred.contains(&k.version) && self.issued_nodes.insert(*k));
        for (owner, keys) in group_by_partition(nodes, |k| k, &self.meta_providers) {
            let req = self.req();
            env.incr("lifecycle.nodes_reclaimed", keys.len() as u64);
            env.send(owner, Msg::DeleteMeta { req, keys });
        }
        // 3. Forget fully-dead version records, oldest first.
        for version in plan.retire {
            if deferred.contains(&version) {
                continue;
            }
            let req = self.req();
            env.send(self.vman, Msg::RetireVersion { req, blob, version });
            env.incr("lifecycle.versions_retired", 1);
        }
    }
}

impl Service for LifecycleGcService {
    fn name(&self) -> &'static str {
        "lifecycle-gc"
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        env.set_timer(self.cfg.sweep_every, TOKEN_LIFECYCLE_SWEEP);
    }

    fn on_msg(&mut self, env: &mut dyn Env, _from: NodeId, msg: Msg) {
        match msg {
            Msg::BlobList { blobs, .. } => {
                for blob in blobs {
                    let req = self.req();
                    env.send(self.vman, Msg::ListVersions { req, blob });
                }
            }
            Msg::VersionList { blob, page_size, versions, roots, .. } => {
                if versions.is_empty() || page_size == 0 {
                    return;
                }
                // Purge dedup entries for versions the catalog dropped:
                // their items are fully reclaimed, nothing re-plans them.
                let alive: HashSet<VersionId> = versions.iter().map(|v| v.version).collect();
                self.issued_chunks
                    .retain(|c| c.blob != blob || alive.contains(&c.version));
                self.issued_nodes
                    .retain(|k| k.blob != blob || alive.contains(&k.version));
                let view = CatalogView { blob, page_size, versions: &versions, roots: &roots };
                let plan = plan_blob(&view);
                if !plan.is_empty() {
                    self.execute(env, blob, plan);
                }
            }
            Msg::GetMetaOk { req, nodes } if self.pending_leaf_gets.remove(&req) => {
                for (_, node) in nodes {
                    if let Some(MetaNode::Leaf { chunk }) = node {
                        for replica in &chunk.replicas {
                            let req = self.req();
                            env.send(*replica, Msg::DeleteChunk { req, key: chunk.key });
                            env.incr("lifecycle.reclaimed_bytes", chunk.size);
                        }
                        env.incr("lifecycle.chunks_reclaimed", 1);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        if token == TOKEN_LIFECYCLE_SWEEP {
            self.budget = self.cfg.max_chunks_per_sweep.max(1);
            let req = self.req();
            env.send(self.vman, Msg::ListBlobs { req });
            env.set_timer(self.cfg.sweep_every, TOKEN_LIFECYCLE_SWEEP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testenv::TestEnv;
    use sads_blob::model::{ChunkDescriptor, PageInterval};
    use sads_blob::vmanager::VersionSummary;

    const PAGE: u64 = 8;

    fn vs(v: u64, start: u64, len: u64, size_pages: u64) -> VersionSummary {
        VersionSummary {
            version: VersionId(v),
            size: size_pages * PAGE,
            interval: PageInterval::new(start, len),
        }
    }

    /// v1 and v2 each write pages 0..4; `roots` as the version manager
    /// reports them.
    fn catalog(roots: &[u64]) -> Msg {
        Msg::VersionList {
            req: 2,
            blob: BlobId(1),
            page_size: PAGE,
            versions: vec![vs(0, 0, 0, 0), vs(1, 0, 4, 4), vs(2, 0, 4, 4)],
            roots: roots.iter().copied().map(VersionId).collect(),
        }
    }

    fn sweeper() -> LifecycleGcService {
        LifecycleGcService::new(NodeId(1), vec![NodeId(5), NodeId(6)], LifecycleConfig::default())
    }

    fn retired(env: &TestEnv) -> u64 {
        env.telemetry().counter_total("lifecycle.versions_retired")
    }

    #[test]
    fn sweep_drives_the_full_reclamation_protocol() {
        let mut env = TestEnv::new();
        let mut m = sweeper();
        m.on_start(&mut env);
        m.on_timer(&mut env, TOKEN_LIFECYCLE_SWEEP);
        assert!(matches!(env.sent[0].1, Msg::ListBlobs { .. }));
        m.on_msg(&mut env, NodeId(1), Msg::BlobList { req: 1, blobs: vec![BlobId(1)] });
        assert!(matches!(env.sent[1].1, Msg::ListVersions { blob: BlobId(1), .. }));
        // v1 fully overwritten by v2 (the only root) → fully reclaimed.
        m.on_msg(&mut env, NodeId(1), catalog(&[2]));
        let delete_meta: usize = env
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::DeleteMeta { keys, .. } => Some(keys.len()),
                _ => None,
            })
            .sum();
        assert_eq!(delete_meta, 7, "root + 2 inner + 4 leaves of v1");
        assert!(env.sent.iter().any(|(to, m)| *to == NodeId(1)
            && matches!(m, Msg::RetireVersion { version: VersionId(1), .. })));
        assert_eq!(retired(&env), 1);
        // Supply the leaf descriptors: deletes go to every replica.
        let (owner, req, keys) = env
            .sent
            .iter()
            .find_map(|(to, m)| match m {
                Msg::GetMeta { req, keys } => Some((*to, *req, keys.clone())),
                _ => None,
            })
            .unwrap();
        let nodes = keys
            .iter()
            .map(|k| {
                (
                    *k,
                    Some(MetaNode::Leaf {
                        chunk: ChunkDescriptor {
                            key: ChunkKey {
                                blob: BlobId(1),
                                version: VersionId(1),
                                page: k.range.start,
                            },
                            replicas: vec![NodeId(20), NodeId(21)],
                            size: PAGE,
                        },
                    }),
                )
            })
            .collect();
        let before = env.sent.len();
        m.on_msg(&mut env, owner, Msg::GetMetaOk { req, nodes });
        let deletes = env.sent[before..]
            .iter()
            .filter(|(_, m)| matches!(m, Msg::DeleteChunk { .. }))
            .count();
        assert_eq!(deletes, keys.len() * 2, "one delete per replica");
        let chunks = env.telemetry().counter_total("lifecycle.chunks_reclaimed");
        assert_eq!(chunks, keys.len() as u64);
    }

    #[test]
    fn snapshots_suppress_reclamation() {
        let mut env = TestEnv::new();
        let mut m = sweeper();
        m.on_timer(&mut env, TOKEN_LIFECYCLE_SWEEP);
        env.sent.clear();
        // A snapshotted v1 is a root, as is everything a retention window
        // covers: nothing to retire sends nothing.
        m.on_msg(&mut env, NodeId(1), catalog(&[1, 2]));
        assert!(env.sent.is_empty(), "a root is never reclaimed");
        assert_eq!(retired(&env), 0);
    }

    #[test]
    fn decommission_reclaims_under_keep_all() {
        let mut env = TestEnv::new();
        let mut m = sweeper();
        m.on_timer(&mut env, TOKEN_LIFECYCLE_SWEEP);
        env.sent.clear();
        // A decommissioned BLOB reports no roots, whatever the policy.
        m.on_msg(&mut env, NodeId(1), catalog(&[]));
        let retires: Vec<VersionId> = env
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::RetireVersion { version, .. } => Some(*version),
                _ => None,
            })
            .collect();
        assert_eq!(retires, vec![VersionId(1), VersionId(2)]);
    }

    #[test]
    fn repeated_sweeps_do_not_reissue_deletions() {
        let mut env = TestEnv::new();
        let mut m = sweeper();
        m.on_timer(&mut env, TOKEN_LIFECYCLE_SWEEP);
        m.on_msg(&mut env, NodeId(1), catalog(&[2]));
        let first = env.sent.len();
        // Same catalog again (the retire has not landed yet): nothing new.
        m.on_timer(&mut env, TOKEN_LIFECYCLE_SWEEP);
        m.on_msg(&mut env, NodeId(1), catalog(&[2]));
        let second: Vec<_> = env.sent[first..]
            .iter()
            .filter(|(_, m)| matches!(m, Msg::GetMeta { .. } | Msg::DeleteMeta { .. }))
            .collect();
        assert!(second.is_empty(), "dedup suppresses re-issued work: {second:?}");
    }

    #[test]
    fn chunk_budget_paces_a_sweep() {
        let mut env = TestEnv::new();
        let mut m = LifecycleGcService::new(
            NodeId(1),
            vec![NodeId(5)],
            LifecycleConfig { max_chunks_per_sweep: 2, ..LifecycleConfig::default() },
        );
        m.on_timer(&mut env, TOKEN_LIFECYCLE_SWEEP);
        m.on_msg(&mut env, NodeId(1), catalog(&[2]));
        let asked: usize = env
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::GetMeta { keys, .. } => Some(keys.len()),
                _ => None,
            })
            .sum();
        assert_eq!(asked, 2, "only the budgeted chunks are processed this sweep");
        // Next sweep drains the carry-over.
        m.on_timer(&mut env, TOKEN_LIFECYCLE_SWEEP);
        m.on_msg(&mut env, NodeId(1), catalog(&[2]));
        let asked: usize = env
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::GetMeta { keys, .. } => Some(keys.len()),
                _ => None,
            })
            .sum();
        assert_eq!(asked, 4, "remaining chunks drain on the following sweep");
    }
}
