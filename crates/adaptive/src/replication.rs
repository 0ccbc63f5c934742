//! Self-optimization through automatic data replication (paper §V): "a
//! data-management system has to automatically maintain the replication
//! degree of data chunks and to support a dynamic adjustment of the
//! replication degree, according to the load of the storage nodes and the
//! applications access patterns".
//!
//! The replication manager reconstructs chunk placement from the
//! monitoring stream (every replica write is an instrumented event),
//! watches provider membership through the provider manager's directory,
//! and on every sweep:
//!
//! * **repairs** chunks whose live replica count fell below the target
//!   (provider crash / decommission) by commanding a surviving replica to
//!   copy itself ([`Msg::ReplicateChunk`]) and then patching the
//!   metadata leaf so readers see the new location; a chunk whose repair
//!   copy itself fails the integrity scrub is counted lost instead of
//!   repaired again, since the relay copied its source's fault,
//! * **adjusts degree by heat**: BLOBs whose introspected read volume
//!   exceeds a threshold get extra replicas; cooled-down BLOBs have the
//!   extras deleted.

use std::collections::{HashMap, HashSet};

use sads_blob::meta::{partition, NodeKey, NodeRange};
use sads_blob::model::{BlobId, ChunkKey};
use sads_blob::rpc::Msg;
use sads_blob::services::{Env, Service};
use sads_introspect::{intro_msg, into_alert, into_intro, AlertMsg, IntroMsg};
use sads_monitor::{mon_msg, ActivityKind, MonMsg};
use sads_sim::{NodeId, SimDuration};

/// Timer token: reconcile sweep.
pub const TOKEN_REPL_SWEEP: u64 = u64::MAX - 41;

/// Replication-manager tuning.
#[derive(Clone, Copy, Debug)]
pub struct ReplicationConfig {
    /// Target replicas per chunk unless overridden by heat.
    pub base_degree: u32,
    /// Extra replicas granted to hot BLOBs.
    pub hot_extra: u32,
    /// A BLOB is hot when its windowed read volume exceeds this (MB).
    pub hot_threshold_mb: f64,
    /// Sweep period.
    pub sweep_every: SimDuration,
    /// Maximum repairs dispatched per sweep (avoids repair storms).
    pub max_repairs_per_sweep: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            base_degree: 2,
            hot_extra: 1,
            hot_threshold_mb: 64.0,
            sweep_every: SimDuration::from_secs(2),
            max_repairs_per_sweep: 64,
        }
    }
}

/// The replication manager node.
pub struct ReplicationManagerService {
    storage: Vec<NodeId>,
    pman: NodeId,
    intro: Option<NodeId>,
    cfg: ReplicationConfig,
    /// Chunk → providers believed to hold a replica.
    placement: HashMap<ChunkKey, Vec<NodeId>>,
    /// Live data providers per the latest directory.
    live: Vec<NodeId>,
    /// Metadata providers per the latest directory (partition order).
    meta_providers: Vec<NodeId>,
    /// Per-BLOB degree overrides from heat.
    blob_targets: HashMap<BlobId, u32>,
    /// Chunks with a repair in flight.
    repairing: HashSet<ChunkKey>,
    /// Chunks seen under-replicated on the previous sweep. A repair is
    /// dispatched only for deficits that persist across two consecutive
    /// sweeps: the placement view lags the data path (writes are
    /// instrumented, flushed and polled), so a single-sweep deficit is
    /// routinely just a replica whose record is still in flight.
    deficient_prev: HashSet<ChunkKey>,
    /// Repair correlation: req → (chunk, new replica).
    pending: HashMap<u64, (ChunkKey, NodeId)>,
    /// Replicas this manager's own repairs made.
    repaired: HashSet<(ChunkKey, NodeId)>,
    /// Chunks never repaired again: one of our repair copies failed its
    /// scrub, or a corruption report took the last replica. A relay
    /// carries the source's stored CRC unread, so a source whose bytes
    /// and CRC disagree (a writer's wrong CRC, or rot before the relay)
    /// makes every copy of it fail too; repairing on would loop through
    /// quarantine and repair for as long as the scrub runs. Each is
    /// counted once in `repl.lost_chunks`.
    unrepairable: HashSet<ChunkKey>,
    cursors: HashMap<NodeId, u64>,
    next_req: u64,
    rr: usize,
    repairs_done: u64,
}

impl ReplicationManagerService {
    /// A manager polling the given monitoring storage servers, tracking
    /// membership through `pman`, optionally heat through `intro`.
    pub fn new(
        storage: Vec<NodeId>,
        pman: NodeId,
        intro: Option<NodeId>,
        cfg: ReplicationConfig,
    ) -> Self {
        ReplicationManagerService {
            storage,
            pman,
            intro,
            cfg,
            placement: HashMap::new(),
            live: Vec::new(),
            meta_providers: Vec::new(),
            blob_targets: HashMap::new(),
            repairing: HashSet::new(),
            deficient_prev: HashSet::new(),
            pending: HashMap::new(),
            repaired: HashSet::new(),
            unrepairable: HashSet::new(),
            cursors: HashMap::new(),
            next_req: 1,
            rr: 0,
            repairs_done: 0,
        }
    }

    /// Repairs completed so far (post-run inspection for E8).
    pub fn repairs_done(&self) -> u64 {
        self.repairs_done
    }

    /// The current placement view (tests).
    pub fn placement(&self) -> &HashMap<ChunkKey, Vec<NodeId>> {
        &self.placement
    }

    fn req(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    fn target_for(&self, blob: BlobId) -> u32 {
        self.blob_targets.get(&blob).copied().unwrap_or(self.cfg.base_degree)
    }

    fn patch_leaf(&mut self, env: &mut dyn Env, key: ChunkKey, replicas: Vec<NodeId>) {
        if self.meta_providers.is_empty() {
            return;
        }
        let node_key = NodeKey {
            blob: key.blob,
            version: key.version,
            range: NodeRange::new(key.page, 1),
        };
        let owner = self.meta_providers[partition(&node_key, self.meta_providers.len())];
        let req = self.req();
        env.send(owner, Msg::PatchLeaf { req, key: node_key, replicas });
    }

    fn reconcile(&mut self, env: &mut dyn Env) {
        if self.live.is_empty() {
            return;
        }
        let live: HashSet<NodeId> = self.live.iter().copied().collect();
        self.repaired.retain(|(_, p)| live.contains(p));
        let mut deficit = 0u64;
        let mut repairs = 0usize;
        let mut deficient_now: HashSet<ChunkKey> = HashSet::new();
        // Sweep in key order: the round-robin destination cursor makes
        // placement sensitive to iteration order, and HashMap order varies
        // per process.
        let mut keys: Vec<ChunkKey> = self.placement.keys().copied().collect();
        keys.sort();
        for key in keys {
            let holders = self.placement.get_mut(&key).expect("present");
            // Forget dead replicas.
            holders.retain(|p| live.contains(p));
            let holders = holders.clone();
            if holders.is_empty() {
                // Data lost: every replica died. Counted; nothing to do.
                if !self.unrepairable.contains(&key) {
                    env.incr("repl.lost_chunks", 1);
                }
                self.placement.remove(&key);
                continue;
            }
            let target = self.target_for(key.blob) as usize;
            if holders.len() < target {
                if self.unrepairable.contains(&key) {
                    continue;
                }
                deficit += 1;
                deficient_now.insert(key);
                if self.repairing.contains(&key) {
                    continue;
                }
                if !self.deficient_prev.contains(&key) {
                    // First sighting: give in-flight write records one
                    // sweep to arrive before spending a repair on it.
                    continue;
                }
                if repairs >= self.cfg.max_repairs_per_sweep {
                    continue;
                }
                // Choose a destination that holds no replica yet.
                let candidates: Vec<NodeId> = self
                    .live
                    .iter()
                    .copied()
                    .filter(|p| !holders.contains(p))
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let dest = candidates[self.rr % candidates.len()];
                self.rr += 1;
                let source = holders[0];
                let req = self.req();
                self.pending.insert(req, (key, dest));
                self.repairing.insert(key);
                env.send(source, Msg::ReplicateChunk { req, key, to: dest });
                repairs += 1;
            } else if holders.len() > target && !self.repairing.contains(&key) {
                // Cooled down: drop one excess replica per sweep.
                let victim = *holders.last().expect("nonempty");
                let req = self.req();
                env.send(victim, Msg::DeleteChunk { req, key });
                let holders = self.placement.get_mut(&key).expect("present");
                holders.retain(|p| *p != victim);
                let new_set = holders.clone();
                self.repaired.remove(&(key, victim));
                self.patch_leaf(env, key, new_set);
                env.incr("repl.trimmed", 1);
            }
        }
        self.deficient_prev = deficient_now;
        env.record("repl.deficit", deficit as f64);
        env.record("repl.tracked_chunks", self.placement.len() as f64);
    }

    /// Kick the pull cycle: query activity, heat, and membership. The
    /// directory reply triggers the actual reconcile.
    fn kick_sweep(&mut self, env: &mut dyn Env) {
        for s in self.storage.clone() {
            let req = self.req();
            let after_seq = self.cursors.get(&s).copied().unwrap_or(0);
            env.send(s, mon_msg(MonMsg::QueryActivity { req, after_seq }));
        }
        if let Some(intro) = self.intro {
            let req = self.req();
            env.send(intro, intro_msg(IntroMsg::QuerySnapshot { req }));
        }
        let req = self.req();
        env.send(self.pman, Msg::GetDirectory { req });
    }
}

impl Service for ReplicationManagerService {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        env.set_timer(self.cfg.sweep_every, TOKEN_REPL_SWEEP);
    }

    fn on_msg(&mut self, env: &mut dyn Env, from: NodeId, msg: Msg) {
        match msg {
            Msg::Directory { meta_providers, data_providers, .. } => {
                self.live = data_providers;
                self.meta_providers = meta_providers;
                self.reconcile(env);
            }
            Msg::ReportCorrupt { key, provider } => {
                // The scrub found (and already quarantined) a damaged
                // replica: that copy is gone *now*, not pending a write
                // record, so the two-sweep deficit debounce does not
                // apply — drop the holder, point readers away from it,
                // and dispatch the repair immediately.
                env.incr("repl.corrupt_reports", 1);
                // A copy our own repair made fails its scrub: its source
                // relayed the same fault, so the chunk is lost, not
                // repairable (see `unrepairable`).
                if self.repaired.remove(&(key, provider)) && self.unrepairable.insert(key) {
                    env.incr("repl.lost_chunks", 1);
                }
                let Some(holders) = self.placement.get_mut(&key) else { return };
                holders.retain(|p| *p != provider);
                let survivors = holders.clone();
                if survivors.is_empty() {
                    if self.unrepairable.insert(key) {
                        env.incr("repl.lost_chunks", 1);
                    }
                    self.placement.remove(&key);
                    return;
                }
                self.patch_leaf(env, key, survivors.clone());
                if self.unrepairable.contains(&key) {
                    return;
                }
                if survivors.len() < self.target_for(key.blob) as usize
                    && !self.repairing.contains(&key)
                    && !self.live.is_empty()
                {
                    let candidates: Vec<NodeId> = self
                        .live
                        .iter()
                        .copied()
                        .filter(|p| *p != provider && !survivors.contains(p))
                        .collect();
                    if let Some(&dest) = candidates.get(self.rr % candidates.len().max(1)) {
                        self.rr += 1;
                        let source = survivors[0];
                        let req = self.req();
                        self.pending.insert(req, (key, dest));
                        self.repairing.insert(key);
                        env.send(source, Msg::ReplicateChunk { req, key, to: dest });
                    }
                }
                // Whether or not a repair went out, mark the deficit
                // confirmed so the next sweep retries without debounce.
                self.deficient_prev.insert(key);
            }
            Msg::ReplicateChunkOk { req, ok } => {
                if let Some((key, dest)) = self.pending.remove(&req) {
                    self.repairing.remove(&key);
                    if ok {
                        let holders = self.placement.entry(key).or_default();
                        if !holders.contains(&dest) {
                            holders.push(dest);
                        }
                        let set = holders.clone();
                        self.repaired.insert((key, dest));
                        self.repairs_done += 1;
                        env.incr("repl.repairs", 1);
                        self.patch_leaf(env, key, set);
                    }
                }
            }
            other => {
                // Extension payloads: probe the concrete type before
                // consuming, so a failed downcast never drops the message.
                let is_alert =
                    matches!(&other, Msg::Ext(p) if p.downcast_ref::<AlertMsg>().is_some());
                if is_alert {
                    // An availability burn (e.g. replica deficit gauge)
                    // warrants an off-schedule sweep right now.
                    if let Some(AlertMsg::Fire { .. }) = into_alert(other) {
                        env.incr("repl.alert_sweeps", 1);
                        self.kick_sweep(env);
                    }
                    return;
                }
                let is_mon = matches!(&other, Msg::Ext(p) if p.downcast_ref::<MonMsg>().is_some());
                if is_mon {
                    if let Some(MonMsg::ActivityBatch { records, last_seq, .. }) =
                        sads_monitor::into_mon(other)
                    {
                        for r in &records {
                            // Recovery announcements count like writes: a
                            // restarted durable provider re-enters the
                            // placement view before the deficit debounce
                            // can confirm, so no repair is scheduled.
                            if matches!(
                                r.kind,
                                ActivityKind::ChunkWrite | ActivityKind::ChunkRecovered
                            ) {
                                if let (Some(chunk), Some(provider)) = (r.chunk, r.provider) {
                                    let holders = self.placement.entry(chunk).or_default();
                                    if !holders.contains(&provider) {
                                        holders.push(provider);
                                    }
                                }
                            }
                        }
                        self.cursors.insert(from, last_seq);
                    }
                } else if let Some(IntroMsg::Snapshot { snapshot, .. }) = into_intro(other) {
                    self.blob_targets.clear();
                    for (blob, view) in &snapshot.blobs {
                        if view.read_mb > self.cfg.hot_threshold_mb {
                            self.blob_targets
                                .insert(*blob, self.cfg.base_degree + self.cfg.hot_extra);
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        if token == TOKEN_REPL_SWEEP {
            self.kick_sweep(env);
            env.set_timer(self.cfg.sweep_every, TOKEN_REPL_SWEEP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sads_blob::model::{ClientId, VersionId};
    use sads_monitor::ActivityRecord;
    use sads_sim::SimTime;

    struct TestEnv {
        now: SimTime,
        sent: Vec<(NodeId, Msg)>,
        lost: u64,
        rng: SmallRng,
        reg: sads_sim::Registry,
    }
    impl TestEnv {
        fn new() -> Self {
            TestEnv {
                now: SimTime::ZERO,
                sent: vec![],
                lost: 0,
                rng: SmallRng::seed_from_u64(0),
                reg: sads_sim::Registry::new(),
            }
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
        fn set_timer(&mut self, _d: SimDuration, _t: u64) {}
        fn rng(&mut self) -> &mut SmallRng {
            &mut self.rng
        }
        fn incr(&mut self, name: &str, delta: u64) {
            if name == "repl.lost_chunks" {
                self.lost += delta;
            }
        }
        fn spawn(&mut self, _: Box<dyn sads_blob::services::Service>) -> NodeId {
            unreachable!("no node starts nodes in this test")
        }
        fn power_off(&mut self, _: NodeId) {
            unreachable!("no node powers nodes off in this test")
        }
    }

    fn chunk(page: u64) -> ChunkKey {
        ChunkKey { blob: BlobId(1), version: VersionId(1), page }
    }

    fn write_record(page: u64, provider: u32) -> ActivityRecord {
        ActivityRecord {
            at: SimTime::ZERO,
            client: ClientId(5),
            kind: ActivityKind::ChunkWrite,
            blob: Some(BlobId(1)),
            provider: Some(NodeId(provider)),
            chunk: Some(chunk(page)),
            bytes: 100,
        }
    }

    fn mgr() -> ReplicationManagerService {
        ReplicationManagerService::new(
            vec![NodeId(10)],
            NodeId(1),
            None,
            ReplicationConfig { base_degree: 2, ..Default::default() },
        )
    }

    fn feed_placement(m: &mut ReplicationManagerService, env: &mut TestEnv) {
        // Chunk 0 on providers 20,21; chunk 1 on 21,22.
        let records = vec![
            write_record(0, 20),
            write_record(0, 21),
            write_record(1, 21),
            write_record(1, 22),
        ];
        m.on_msg(env, NodeId(10), mon_msg(MonMsg::ActivityBatch { req: 1, records, last_seq: 4 }));
    }

    /// Two directory-triggered sweeps with the same membership: a deficit
    /// must persist across consecutive sweeps before a repair goes out.
    fn sweep_twice(m: &mut ReplicationManagerService, env: &mut TestEnv, req: u64, data: &[u32]) {
        for r in [req, req + 1] {
            m.on_msg(
                env,
                NodeId(1),
                Msg::Directory {
                    req: r,
                    meta_providers: vec![NodeId(30)],
                    data_providers: data.iter().map(|p| NodeId(*p)).collect(),
                },
            );
        }
    }

    #[test]
    fn placement_is_learned_from_activity() {
        let mut env = TestEnv::new();
        let mut m = mgr();
        feed_placement(&mut m, &mut env);
        assert_eq!(m.placement().len(), 2);
        assert_eq!(m.placement()[&chunk(0)], vec![NodeId(20), NodeId(21)]);
    }

    #[test]
    fn recovery_announcement_rejoins_placement_without_repair() {
        let mut env = TestEnv::new();
        let mut m = mgr();
        feed_placement(&mut m, &mut env);
        // Provider 20 crashes: it drops out of the directory, and the
        // first sweep marks chunk 0 deficient (not yet confirmed).
        m.on_msg(
            &mut env,
            NodeId(1),
            Msg::Directory {
                req: 9,
                meta_providers: vec![NodeId(30)],
                data_providers: vec![NodeId(21), NodeId(22), NodeId(23)],
            },
        );
        assert!(!env.sent.iter().any(|(_, msg)| matches!(msg, Msg::ReplicateChunk { .. })));
        // The provider restarts on a durable backend and its recovery
        // announcement arrives before the confirming sweep.
        let rec = ActivityRecord {
            at: SimTime::ZERO,
            client: ClientId::SYSTEM,
            kind: ActivityKind::ChunkRecovered,
            blob: Some(BlobId(1)),
            provider: Some(NodeId(20)),
            chunk: Some(chunk(0)),
            bytes: 100,
        };
        m.on_msg(
            &mut env,
            NodeId(10),
            mon_msg(MonMsg::ActivityBatch { req: 2, records: vec![rec], last_seq: 5 }),
        );
        assert!(m.placement()[&chunk(0)].contains(&NodeId(20)), "placement re-learned");
        // Back in the directory; the next two sweeps see no deficit.
        sweep_twice(&mut m, &mut env, 10, &[20, 21, 22, 23]);
        assert!(
            !env.sent.iter().any(|(_, msg)| matches!(msg, Msg::ReplicateChunk { .. })),
            "no repair for a recovered provider"
        );
        assert_eq!(m.repairs_done(), 0);
    }

    #[test]
    fn dead_provider_triggers_repair_and_leaf_patch() {
        let mut env = TestEnv::new();
        let mut m = mgr();
        feed_placement(&mut m, &mut env);
        // Provider 20 vanishes from the directory; the deficit is
        // confirmed on the second sweep.
        sweep_twice(&mut m, &mut env, 9, &[21, 22, 23]);
        // A ReplicateChunk must go to the surviving holder (21) of chunk 0.
        let (to, repair) = env
            .sent
            .iter()
            .find(|(_, msg)| matches!(msg, Msg::ReplicateChunk { .. }))
            .expect("repair dispatched");
        assert_eq!(*to, NodeId(21));
        let Msg::ReplicateChunk { req, key, to: dest } = repair else { unreachable!() };
        assert_eq!(*key, chunk(0));
        assert!(*dest == NodeId(22) || *dest == NodeId(23), "fresh destination");
        // Completion updates the view and patches the leaf.
        let req = *req;
        let dest = *dest;
        m.on_msg(&mut env, NodeId(21), Msg::ReplicateChunkOk { req, ok: true });
        assert!(m.placement()[&chunk(0)].contains(&dest));
        assert_eq!(m.repairs_done(), 1);
        assert!(
            env.sent.iter().any(|(to, msg)| *to == NodeId(30)
                && matches!(msg, Msg::PatchLeaf { key, .. } if key.range == NodeRange::new(0, 1))),
            "leaf patched on the owning metadata provider"
        );
    }

    #[test]
    fn failed_repair_is_retried_on_next_sweep() {
        let mut env = TestEnv::new();
        let mut m = mgr();
        feed_placement(&mut m, &mut env);
        sweep_twice(&mut m, &mut env, 9, &[21, 22, 23]);
        let req = env
            .sent
            .iter()
            .find_map(|(_, msg)| match msg {
                Msg::ReplicateChunk { req, .. } => Some(*req),
                _ => None,
            })
            .unwrap();
        m.on_msg(&mut env, NodeId(21), Msg::ReplicateChunkOk { req, ok: false });
        assert_eq!(m.repairs_done(), 0);
        env.sent.clear();
        // Next directory-triggered reconcile re-dispatches.
        m.on_msg(
            &mut env,
            NodeId(1),
            Msg::Directory {
                req: 10,
                meta_providers: vec![NodeId(30)],
                data_providers: vec![NodeId(21), NodeId(22), NodeId(23)],
            },
        );
        assert!(env.sent.iter().any(|(_, msg)| matches!(msg, Msg::ReplicateChunk { .. })));
    }

    #[test]
    fn hot_blob_gets_extra_replicas_then_trims_when_cold() {
        let mut env = TestEnv::new();
        let mut m = mgr();
        feed_placement(&mut m, &mut env);
        // Mark blob 1 hot: target becomes 3.
        let mut snapshot = sads_introspect::SystemSnapshot::default();
        snapshot.blobs.insert(
            BlobId(1),
            sads_introspect::BlobView { read_mb: 1000.0, ..Default::default() },
        );
        m.on_msg(
            &mut env,
            NodeId(40),
            intro_msg(IntroMsg::Snapshot { req: 1, snapshot: Box::new(snapshot) }),
        );
        sweep_twice(&mut m, &mut env, 9, &[20, 21, 22, 23]);
        let repairs =
            env.sent.iter().filter(|(_, m)| matches!(m, Msg::ReplicateChunk { .. })).count();
        assert_eq!(repairs, 2, "both chunks get a third replica");
        // Complete them; then the blob cools down (empty snapshot).
        let reqs: Vec<u64> = env
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::ReplicateChunk { req, .. } => Some(*req),
                _ => None,
            })
            .collect();
        for r in reqs {
            m.on_msg(&mut env, NodeId(21), Msg::ReplicateChunkOk { req: r, ok: true });
        }
        m.on_msg(
            &mut env,
            NodeId(40),
            intro_msg(IntroMsg::Snapshot {
                req: 2,
                snapshot: Box::new(sads_introspect::SystemSnapshot::default()),
            }),
        );
        env.sent.clear();
        m.on_msg(
            &mut env,
            NodeId(1),
            Msg::Directory {
                req: 11,
                meta_providers: vec![NodeId(30)],
                data_providers: vec![NodeId(20), NodeId(21), NodeId(22), NodeId(23)],
            },
        );
        let deletes =
            env.sent.iter().filter(|(_, m)| matches!(m, Msg::DeleteChunk { .. })).count();
        assert_eq!(deletes, 2, "one excess replica trimmed per chunk");
    }

    #[test]
    fn corruption_report_repairs_immediately_without_debounce() {
        let mut env = TestEnv::new();
        let mut m = mgr();
        feed_placement(&mut m, &mut env);
        // One directory so `live` is known; no deficit seen yet, so the
        // two-sweep debounce would normally delay any repair.
        m.on_msg(
            &mut env,
            NodeId(1),
            Msg::Directory {
                req: 9,
                meta_providers: vec![NodeId(30)],
                data_providers: vec![NodeId(20), NodeId(21), NodeId(22), NodeId(23)],
            },
        );
        env.sent.clear();
        // The scrubber reports chunk 0's replica on 20 corrupt
        // (already quarantined at the provider).
        m.on_msg(&mut env, NodeId(50), Msg::ReportCorrupt { key: chunk(0), provider: NodeId(20) });
        assert_eq!(m.placement()[&chunk(0)], vec![NodeId(21)], "corrupt holder dropped");
        // Readers are pointed at the survivors right away…
        assert!(env.sent.iter().any(|(to, msg)| *to == NodeId(30)
            && matches!(msg, Msg::PatchLeaf { replicas, .. } if replicas == &vec![NodeId(21)])));
        // …and the repair goes out on the spot, sourced from a survivor.
        let (to, msg) = env
            .sent
            .iter()
            .find(|(_, msg)| matches!(msg, Msg::ReplicateChunk { .. }))
            .expect("immediate repair");
        assert_eq!(*to, NodeId(21));
        let Msg::ReplicateChunk { req, key, to: dest } = msg else { unreachable!() };
        assert_eq!(*key, chunk(0));
        assert_ne!(*dest, NodeId(20), "corrupt provider is not the destination");
        let (req, dest) = (*req, *dest);
        m.on_msg(&mut env, NodeId(21), Msg::ReplicateChunkOk { req, ok: true });
        assert!(m.placement()[&chunk(0)].contains(&dest));
        assert_eq!(m.repairs_done(), 1);
    }

    /// When the copy a repair made is itself reported corrupt, the chunk
    /// is counted lost once and no further repair goes out — not from the
    /// surviving original, not on later sweeps, not when the rest of its
    /// copies are reported too.
    #[test]
    fn a_corrupt_repair_copy_ends_repair_and_counts_one_loss() {
        let mut env = TestEnv::new();
        let mut m = mgr();
        feed_placement(&mut m, &mut env);
        sweep_twice(&mut m, &mut env, 9, &[20, 21, 22, 23]);
        m.on_msg(&mut env, NodeId(50), Msg::ReportCorrupt { key: chunk(0), provider: NodeId(20) });
        let Some((_, Msg::ReplicateChunk { req, to: dest, .. })) =
            env.sent.iter().find(|(_, m)| matches!(m, Msg::ReplicateChunk { .. }))
        else {
            panic!("repair of the first report")
        };
        let (req, dest) = (*req, *dest);
        m.on_msg(&mut env, NodeId(21), Msg::ReplicateChunkOk { req, ok: true });
        m.on_msg(&mut env, NodeId(50), Msg::ReportCorrupt { key: chunk(0), provider: dest });
        assert_eq!(env.lost, 1, "the repair copied its source's fault");
        assert_eq!(m.placement()[&chunk(0)], vec![NodeId(21)], "readers keep the source");
        sweep_twice(&mut m, &mut env, 11, &[20, 21, 22, 23]);
        m.on_msg(&mut env, NodeId(50), Msg::ReportCorrupt { key: chunk(0), provider: NodeId(21) });
        let repairs =
            env.sent.iter().filter(|(_, m)| matches!(m, Msg::ReplicateChunk { .. })).count();
        assert_eq!(repairs, 1, "no second repair");
        assert_eq!(env.lost, 1, "counted once");
        assert!(!m.placement().contains_key(&chunk(0)));
    }

    #[test]
    fn corruption_of_the_last_replica_counts_as_loss() {
        let mut env = TestEnv::new();
        let mut m = mgr();
        // Chunk 0 held by provider 20 only.
        m.on_msg(
            &mut env,
            NodeId(10),
            mon_msg(MonMsg::ActivityBatch { req: 1, records: vec![write_record(0, 20)], last_seq: 1 }),
        );
        m.on_msg(&mut env, NodeId(50), Msg::ReportCorrupt { key: chunk(0), provider: NodeId(20) });
        assert!(m.placement().is_empty(), "chunk is lost, not repairable");
        assert!(env.sent.iter().all(|(_, m)| !matches!(m, Msg::ReplicateChunk { .. })));
    }

    #[test]
    fn total_loss_is_counted_not_repaired() {
        let mut env = TestEnv::new();
        let mut m = mgr();
        feed_placement(&mut m, &mut env);
        m.on_msg(
            &mut env,
            NodeId(1),
            Msg::Directory {
                req: 9,
                meta_providers: vec![NodeId(30)],
                data_providers: vec![NodeId(23)], // every holder died
            },
        );
        assert!(env.sent.iter().all(|(_, m)| !matches!(m, Msg::ReplicateChunk { .. })));
        assert!(m.placement().is_empty());
    }
}
