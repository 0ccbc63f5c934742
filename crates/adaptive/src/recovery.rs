//! Stalled-write recovery — self-healing for the one liveness hole in
//! BlobSeer's lock-free write protocol: a writer that obtains a ticket
//! and then dies before committing stalls publication of every later
//! version of that BLOB (publication is strictly ordered).
//!
//! The recovery agent polls the version manager for *actionable* stalled
//! writes (uncommitted past the timeout and next in publication order)
//! and publishes each one as a **no-op version**: it builds the version's
//! metadata tree so that every page the dead writer claimed resolves to
//! its *previous* content (or a tombstone for never-written pages), then
//! commits on the writer's behalf. Later writers' forward references to
//! `(v, range)` nodes are thereby satisfied, and the pipeline unblocks.
//!
//! Safety: at repair time `v-1` is the latest published version, so the
//! pre-`v` state is exactly `v-1`'s tree; the agent reads the claimed
//! pages' leaves from it and re-emits them under version `v`. If the
//! "dead" writer turns out to be merely slow, node stores are first-write
//! -wins and its late commit is fenced off by the version manager, so the
//! tree stays structurally consistent either way.

use std::collections::HashMap;

use sads_blob::meta::{
    group_by_partition, BaseSnapshot, NodeKey, PageSource, TreeBuilder, TreeReader,
};
use sads_blob::model::{ChunkDescriptor, ChunkKey, ClientId, VersionId};
use sads_blob::rpc::Msg;
use sads_blob::services::{Env, Service};
use sads_blob::vmanager::StalledWrite;
use sads_sim::{NodeId, SimDuration};

/// Timer token: stalled-write poll.
pub const TOKEN_RECOVERY_POLL: u64 = u64::MAX - 43;

#[derive(Debug)]
enum Phase {
    /// Fetching the latest version info of the stalled BLOB.
    Version,
    /// Descending `v-1`'s tree over the claimed pages.
    ReadOldLeaves { reader: TreeReader },
    /// Resolving the new tree's sibling references.
    Resolve { builder: TreeBuilder, chunks: Vec<ChunkDescriptor> },
    /// Storing the repaired nodes.
    PutMeta { root: sads_blob::meta::NodeRef },
    /// Waiting for the version manager to publish.
    Commit,
}

#[derive(Debug)]
struct Repair {
    stalled: StalledWrite,
    /// `v-1`'s snapshot, captured in the Version phase — the repair tree
    /// is built against it.
    base: Option<BaseSnapshot>,
    phase: Phase,
    outstanding: usize,
}

/// The recovery agent node.
pub struct RecoveryAgentService {
    vman: NodeId,
    meta_providers: Vec<NodeId>,
    poll_every: SimDuration,
    next_req: u64,
    /// req → repair key the reply belongs to.
    index: HashMap<u64, (sads_blob::model::BlobId, VersionId)>,
    repairs: HashMap<(sads_blob::model::BlobId, VersionId), Repair>,
    recovered: u64,
    abandoned: u64,
}

impl RecoveryAgentService {
    /// An agent polling `vman` every `poll_every`.
    pub fn new(vman: NodeId, meta_providers: Vec<NodeId>, poll_every: SimDuration) -> Self {
        assert!(!meta_providers.is_empty());
        RecoveryAgentService {
            vman,
            meta_providers,
            poll_every,
            next_req: 1,
            index: HashMap::new(),
            repairs: HashMap::new(),
            recovered: 0,
            abandoned: 0,
        }
    }

    /// Versions published on behalf of dead writers.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Repairs abandoned on an unexpected reply shape (each is also
    /// counted under the `recovery.abandoned` metric and retried by a
    /// later poll). A healthy run keeps this at zero.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    fn req(&mut self, key: (sads_blob::model::BlobId, VersionId)) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        self.index.insert(r, key);
        r
    }

    fn start_repair(&mut self, env: &mut dyn Env, stalled: StalledWrite) {
        let key = (stalled.blob, stalled.version);
        if self.repairs.contains_key(&key) {
            return;
        }
        let req = self.req(key);
        self.repairs
            .insert(key, Repair { stalled, base: None, phase: Phase::Version, outstanding: 1 });
        env.send(
            self.vman,
            Msg::GetVersion { req, client: ClientId::SYSTEM, blob: stalled.blob, version: None },
        );
        env.incr("recovery.started", 1);
    }

    /// Send the GetMeta batches a reader/builder currently needs; returns
    /// how many requests went out.
    fn send_fetches(
        &mut self,
        env: &mut dyn Env,
        key: (sads_blob::model::BlobId, VersionId),
        fetches: Vec<NodeKey>,
    ) -> usize {
        let batches = group_by_partition(fetches, |k| k, &self.meta_providers);
        let n = batches.len();
        for (owner, keys) in batches {
            let req = self.req(key);
            env.send(owner, Msg::GetMeta { req, keys });
        }
        n
    }

    fn advance(&mut self, env: &mut dyn Env, key: (sads_blob::model::BlobId, VersionId), msg: Msg) {
        let Some(mut repair) = self.repairs.remove(&key) else { return };
        repair.outstanding = repair.outstanding.saturating_sub(1);
        match (&mut repair.phase, msg) {
            (Phase::Version, Msg::GetVersionOk { info, .. }) => {
                let s = repair.stalled;
                if info.version.next() != s.version {
                    // Someone (the slow writer?) already published it, or
                    // the catalog moved on. Nothing to do.
                    return;
                }
                repair.base = Some(BaseSnapshot {
                    version: info.version,
                    size: info.size,
                    root: info.root,
                });
                let reader = TreeReader::new(s.blob, info.root, s.interval);
                repair.phase = Phase::ReadOldLeaves { reader };
                self.pump(env, key, repair);
            }
            (Phase::ReadOldLeaves { reader }, Msg::GetMetaOk { nodes, .. }) => {
                for (k, n) in nodes {
                    if let Some(node) = n {
                        reader.supply(k, &node);
                    }
                }
                self.pump(env, key, repair);
            }
            (Phase::Resolve { builder, .. }, Msg::GetMetaOk { nodes, .. }) => {
                for (k, n) in nodes {
                    if let Some(node) = n {
                        builder.supply(k, &node);
                    }
                }
                self.pump(env, key, repair);
            }
            (Phase::PutMeta { root }, Msg::PutMetaOk { .. }) => {
                if repair.outstanding > 0 {
                    self.repairs.insert(key, repair);
                    return;
                }
                let s = repair.stalled;
                let root = *root;
                let req = self.req(key);
                env.send(
                    self.vman,
                    Msg::Commit {
                        req,
                        client: ClientId::SYSTEM,
                        blob: s.blob,
                        version: s.version,
                        root,
                        size: s.new_size,
                    },
                );
                repair.phase = Phase::Commit;
                repair.outstanding = 1;
                self.repairs.insert(key, repair);
            }
            (Phase::Commit, Msg::CommitOk { .. }) => {
                self.recovered += 1;
                env.incr("recovery.published", 1);
                env.record("recovery.published_at_s", env.now().as_secs_f64());
            }
            (_, Msg::GetVersionErr { .. }) | (_, Msg::TicketErr { .. }) => {
                // Fenced (the slow writer beat us) or the blob vanished:
                // drop the repair; the next poll re-evaluates.
            }
            (phase, msg) => {
                // Unexpected reply shape: abandon, the poll will retry.
                // Abandons are counted (not silently dropped) so fault
                // experiments can assert recovery actually made progress
                // rather than spinning on malformed replies.
                self.abandoned += 1;
                env.incr("recovery.abandoned", 1);
                env.record("recovery.abandoned_at_s", env.now().as_secs_f64());
                let _ = (phase, msg);
            }
        }
    }

    /// Drive the current phase forward as far as it can go.
    fn pump(
        &mut self,
        env: &mut dyn Env,
        key: (sads_blob::model::BlobId, VersionId),
        mut repair: Repair,
    ) {
        loop {
            match repair.phase {
                Phase::ReadOldLeaves { ref mut reader } => {
                    if !reader.is_done() {
                        if repair.outstanding == 0 {
                            let fetches = reader.needed_fetches();
                            repair.outstanding = self.send_fetches(env, key, fetches);
                        }
                        break;
                    }
                    // Old leaves collected: synthesize the no-op chunk
                    // descriptors (tombstones for never-written pages).
                    let s = repair.stalled;
                    let Phase::ReadOldLeaves { reader } =
                        std::mem::replace(&mut repair.phase, Phase::Commit)
                    else {
                        unreachable!()
                    };
                    let mut chunks: Vec<ChunkDescriptor> = Vec::new();
                    let mut sources = reader.into_sources();
                    sources.sort_by_key(|src| src.page());
                    for src in sources {
                        chunks.push(match src {
                            PageSource::Chunk(c) => ChunkDescriptor {
                                key: c.key,
                                replicas: c.replicas,
                                size: c.size,
                            },
                            PageSource::Hole { page } => ChunkDescriptor {
                                key: ChunkKey { blob: s.blob, version: s.version, page },
                                replicas: vec![],
                                size: 0,
                            },
                        });
                    }
                    // v-1 is the latest published version; build against
                    // it with an empty pending set.
                    let base = repair.base.expect("captured in the Version phase");
                    debug_assert_eq!(base.version.next(), s.version);
                    let builder = TreeBuilder::new(
                        s.blob,
                        s.version,
                        s.interval,
                        s.page_size,
                        s.new_size,
                        base,
                        vec![],
                    );
                    repair.phase = Phase::Resolve { builder, chunks };
                }
                Phase::Resolve { ref mut builder, ref chunks } => {
                    if !builder.is_ready() {
                        if repair.outstanding == 0 {
                            let fetches = builder.needed_fetches();
                            repair.outstanding = self.send_fetches(env, key, fetches);
                        }
                        break;
                    }
                    let (nodes, root) = builder.build(chunks);
                    let batches = group_by_partition(nodes, |(k, _)| k, &self.meta_providers);
                    repair.outstanding = batches.len();
                    for (owner, nodes) in batches {
                        let req = self.req(key);
                        env.send(owner, Msg::PutMeta { req, nodes });
                    }
                    repair.phase = Phase::PutMeta { root };
                    break;
                }
                _ => break,
            }
        }
        self.repairs.insert(key, repair);
    }
}

impl Service for RecoveryAgentService {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        env.set_timer(self.poll_every, TOKEN_RECOVERY_POLL);
    }

    fn on_msg(&mut self, env: &mut dyn Env, _from: NodeId, msg: Msg) {
        match msg {
            Msg::StalledList { stalled, .. } => {
                for s in stalled {
                    self.start_repair(env, s);
                }
            }
            other => {
                let Some(req) = reply_req(&other) else { return };
                let Some(key) = self.index.remove(&req) else { return };
                self.advance(env, key, other);
            }
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        if token == TOKEN_RECOVERY_POLL {
            let req = self.next_req;
            self.next_req += 1;
            env.send(self.vman, Msg::ListStalled { req });
            env.set_timer(self.poll_every, TOKEN_RECOVERY_POLL);
        }
    }
}

/// Correlation id of the reply shapes the agent consumes.
fn reply_req(msg: &Msg) -> Option<u64> {
    Some(match msg {
        Msg::GetVersionOk { req, .. }
        | Msg::GetVersionErr { req, .. }
        | Msg::GetMetaOk { req, .. }
        | Msg::PutMetaOk { req }
        | Msg::CommitOk { req, .. }
        | Msg::TicketErr { req, .. } => *req,
        _ => return None,
    })
}
