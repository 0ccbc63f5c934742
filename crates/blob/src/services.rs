//! The BlobSeer server actors, written once against the runtime-agnostic
//! [`Env`] abstraction so the threaded runtime, the simulated runtime and
//! unit tests all drive identical logic.
//!
//! The five actors of the paper's §III-A:
//! * [`DataProviderService`] — stores chunk payloads,
//! * [`MetaProviderService`] — stores metadata tree nodes,
//! * [`ProviderManagerService`] — membership + allocation strategies,
//! * [`VersionManagerService`] — ticketing + ordered publication,
//! * the client (see [`crate::client`]).

use std::collections::{HashMap, HashSet};

use rand::rngs::SmallRng;
use sads_sim::{HealthPolicy, NodeId, NodeLabel, Registry, SimDuration, SimTime};

use crate::model::{BlobId, ChunkKey, ClientId, Payload, VersionId};
use crate::pmanager::{AllocationStrategy, ProviderKind, ProviderLoad, ProviderRegistry};
use crate::probe::{Instrument, ProbeEvent, RejectReason};
use crate::provider::{ChunkStore, PutError, VerifyOutcome};
use crate::rpc::{ChunkErr, Msg};
use crate::storage::BackendConfig;
use crate::vmanager::{RetentionPolicy, VersionManagerState};

/// Everything a service may do to the outside world. Implemented by the
/// simulated runtime (over `sads_sim::Ctx`) and the threaded runtime.
pub trait Env {
    /// This node's address.
    fn id(&self) -> NodeId;
    /// Current time in ns since start: the event's (sim) or its turn's (threads, untraced).
    fn now(&self) -> SimTime;
    /// Send a message.
    fn send(&mut self, to: NodeId, msg: Msg);
    /// Send a transport-level control reply (connection refusal) that is
    /// not subject to this node's send-buffer backlog. Defaults to a
    /// plain send; the simulated runtime gives it an expedited path.
    fn send_expedited(&mut self, to: NodeId, msg: Msg) {
        self.send(to, msg);
    }
    /// Arm a one-shot timer.
    fn set_timer(&mut self, delay: SimDuration, token: u64);
    /// Deterministic RNG.
    fn rng(&mut self) -> &mut SmallRng;
    /// Record a time-series observation: set this node's `name` gauge in
    /// the registry, which keeps no history. The simulated runtime also
    /// logs the sample in its world, where `sads_sim::Metrics` reads it.
    fn record(&mut self, name: &'static str, value: f64) {
        let node = NodeLabel::new(self.id().0);
        self.telemetry().set(name, &[("node", node.as_str())], value);
    }
    /// Increment this node's `name` counter in the registry.
    fn incr(&mut self, name: &'static str, delta: u64) {
        let node = NodeLabel::new(self.id().0);
        self.telemetry().inc(name, &[("node", node.as_str())], delta);
    }
    /// The span sink, when tracing is enabled for this deployment
    /// (optional; `None` disables all span recording).
    fn span_sink(&self) -> Option<std::sync::Arc<sads_sim::SpanSink>> {
        None
    }
    /// Causal context of the message being handled (set by the runtime
    /// from the delivery envelope, or by protocol roots).
    fn trace_ctx(&self) -> Option<sads_sim::TraceCtx> {
        None
    }
    /// Override the ambient causal context for subsequent sends (used by
    /// operation roots and by state machines resumed from timers).
    fn set_trace_ctx(&mut self, _trace: Option<sads_sim::TraceCtx>) {}
    /// The host's live telemetry registry, the one store of every node's
    /// current counters, gauges and histograms.
    fn telemetry(&self) -> &Registry;
    /// How far behind this node's ingress path is (seconds of accepted
    /// but not yet handled transfer time), when the runtime can observe
    /// it (optional). Feeds the `node.queue_depth_seconds` gauge.
    fn queue_depth_seconds(&self) -> f64 {
        0.0
    }
    /// Start `service` as a new node of this deployment and return its
    /// address; its `on_start` runs before it handles any message (elastic
    /// scale-out).
    fn spawn(&mut self, service: Box<dyn Service>) -> NodeId;
    /// Power `node` off: it never runs again and mail to it is dropped.
    fn power_off(&mut self, node: NodeId);
}

/// Refresh the runtime-agnostic per-node telemetry every service writes
/// from its periodic tick: the heartbeat gauge behind the health model
/// (staleness ⇒ Degraded/Down in both runtimes, since crashes stop the
/// timers that drive this) and the ingress queue-depth gauge the SLO
/// burn-rate rules watch.
fn telemetry_heartbeat(env: &mut dyn Env) {
    let node = NodeLabel::new(env.id().0);
    let labels = [("node", node.as_str())];
    let reg = env.telemetry();
    reg.set(sads_sim::HEARTBEAT_GAUGE, &labels, env.now().as_secs_f64());
    reg.set("node.queue_depth_seconds", &labels, env.queue_depth_seconds());
}

/// A runnable BlobSeer service: the state-machine interface both runtimes
/// drive.
pub trait Service: Send {
    /// Stable service name, used as the span `service` label when the
    /// runtime traces message handling.
    fn name(&self) -> &'static str {
        "service"
    }
    /// Called once when the node starts.
    fn on_start(&mut self, _env: &mut dyn Env) {}
    /// A message arrived.
    fn on_msg(&mut self, env: &mut dyn Env, from: NodeId, msg: Msg);
    /// A timer fired.
    fn on_timer(&mut self, _env: &mut dyn Env, _token: u64) {}

    /// Optional post-run inspection hook (see `sads_sim::Actor::as_any`).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Timer token: provider heartbeat.
pub const TOKEN_HEARTBEAT: u64 = u64::MAX;
/// Timer token: instrumentation flush.
pub const TOKEN_INSTR: u64 = u64::MAX - 1;
/// Timer token: provider-manager registry expiry sweep.
pub const TOKEN_EXPIRE: u64 = u64::MAX - 2;
/// Timer token: version-manager stalled-ticket sweep.
pub const TOKEN_STALL: u64 = u64::MAX - 3;

/// Shared service wiring: where the managers live, whether instrumentation
/// is on, the periodic intervals, and which storage backend data
/// providers persist through.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Monitoring service receiving this node's probe batches (`None`
    /// disables the instrumentation layer).
    pub monitor: Option<NodeId>,
    /// Heartbeat period for providers.
    pub heartbeat_every: SimDuration,
    /// Instrumentation flush period.
    pub instr_flush_every: SimDuration,
    /// Nominal NIC bandwidth (bytes/s) used to normalize the provider's
    /// synthetic CPU/utilization signal.
    pub nic_bandwidth: u64,
    /// Durable chunk backend for the data provider's store. The default
    /// [`BackendConfig::Memory`] keeps the historical crash-loses-all
    /// semantics; [`BackendConfig::Disk`] makes a restarted provider
    /// recover and re-announce its chunks (see [`crate::storage`]).
    pub backend: BackendConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            monitor: None,
            heartbeat_every: SimDuration::from_secs(1),
            instr_flush_every: SimDuration::from_secs(1),
            nic_bandwidth: 125_000_000,
            backend: BackendConfig::Memory,
        }
    }
}

fn flush_instr(instr: &mut Instrument, cfg: &ServiceConfig, env: &mut dyn Env) {
    if instr.buffered() == 0 {
        return;
    }
    if let Some(mon) = cfg.monitor {
        let events = instr.drain();
        let origin = env.id();
        let at = env.now();
        env.send(mon, Msg::Probe { origin, at, events });
    } else {
        instr.drain();
    }
}

// ---------------------------------------------------------------------
// Data provider
// ---------------------------------------------------------------------

/// Stores chunk replicas; enforces security blocks; reports load.
pub struct DataProviderService {
    pman: NodeId,
    cfg: ServiceConfig,
    store: ChunkStore,
    blacklist: HashSet<ClientId>,
    instr: Instrument,
    ops_since_hb: u64,
    bytes_since_hb: u64,
    /// In-flight replication relays: our PutChunkBatch req → (manager, its
    /// req).
    relays: HashMap<u64, (NodeId, u64)>,
    next_req: u64,
    /// Chunks recovered from the durable backend at construction,
    /// awaiting re-announcement in `on_start` (key, bytes).
    recovered: Vec<(ChunkKey, u64)>,
    /// Records the backend quarantined during recovery (CRC mismatches).
    recovery_quarantined: u64,
}

impl DataProviderService {
    /// A provider with `capacity` bytes of chunk storage, managed by
    /// `pman`. Opens the backend named by `cfg.backend`; whatever it
    /// recovers is re-announced to the monitoring plane in
    /// [`Service::on_start`].
    pub fn new(pman: NodeId, capacity: u64, cfg: ServiceConfig) -> Self {
        let (store, report) = ChunkStore::open(capacity, &cfg.backend, SimTime(0));
        let recovered = report.chunks.iter().map(|(k, p)| (*k, p.len())).collect();
        DataProviderService {
            pman,
            store,
            blacklist: HashSet::new(),
            instr: Instrument::new(cfg.monitor.is_some()),
            ops_since_hb: 0,
            bytes_since_hb: 0,
            relays: HashMap::new(),
            next_req: 1,
            recovered,
            recovery_quarantined: report.quarantined,
            cfg,
        }
    }

    /// The underlying chunk store (tests, decommission drains).
    pub fn store(&self) -> &ChunkStore {
        &self.store
    }

    fn heartbeat(&mut self, env: &mut dyn Env) {
        let load = ProviderLoad {
            used: self.store.used(),
            items: self.store.len() as u64,
            recent_ops: self.ops_since_hb,
            fill: self.store.fill_ratio(),
        };
        env.send(self.pman, Msg::Heartbeat { load });
        // Synthetic physical parameters for the introspection layer: CPU
        // tracks NIC utilization (bytes moved over the heartbeat window
        // against the nominal bandwidth), memory tracks storage fill.
        let window = self.cfg.heartbeat_every.as_secs_f64().max(1e-9);
        let cpu = (self.bytes_since_hb as f64 / window / self.cfg.nic_bandwidth.max(1) as f64)
            .min(1.0);
        let mem = self.store.fill_ratio();
        self.instr.emit(ProbeEvent::ProviderLoad {
            provider: env.id(),
            used: self.store.used(),
            capacity: self.store.capacity(),
            items: self.store.len() as u64,
            recent_ops: self.ops_since_hb,
            cpu,
            mem,
        });
        telemetry_heartbeat(env);
        // Piggyback backend maintenance on the heartbeat tick: compaction
        // only runs when a sealed segment crossed its dead-byte
        // threshold, so this is free for the memory backend.
        let reclaimed = self.store.maybe_compact();
        if reclaimed > 0 {
            env.incr("provider.compacted_bytes", reclaimed);
        }
        let node = NodeLabel::new(env.id().0);
        let (reg, labels) = (env.telemetry(), [("node", node.as_str())]);
        reg.set("provider.chunks", &labels, self.store.len() as f64);
        reg.set("provider.store_bytes", &labels, self.store.used() as f64);
        reg.set("provider.fill", &labels, self.store.fill_ratio());
        let bs = self.store.backend_stats();
        reg.set("provider.backend_dead_bytes", &labels, bs.dead_bytes as f64);
        reg.set("provider.backend_segments", &labels, bs.segments as f64);
        self.ops_since_hb = 0;
        self.bytes_since_hb = 0;
        env.set_timer(self.cfg.heartbeat_every, TOKEN_HEARTBEAT);
    }
}

impl Service for DataProviderService {
    fn name(&self) -> &'static str {
        "provider"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        env.send(
            self.pman,
            Msg::Register { kind: ProviderKind::Data, capacity: self.store.capacity() },
        );
        // Re-announce chunks the durable backend recovered: the probes
        // flow through the monitoring pipeline to the replication
        // manager, which re-learns placement instead of seeing a deficit
        // and scheduling repair traffic.
        if !self.recovered.is_empty() {
            let provider = env.id();
            let count = self.recovered.len() as u64;
            let mut bytes = 0;
            for (key, len) in self.recovered.drain(..) {
                self.instr.emit(ProbeEvent::ChunkRecovered { provider, key, bytes: len });
                bytes += len;
            }
            env.incr("provider.recovered_chunks", count);
            env.incr("provider.recovered_bytes", bytes);
        }
        if self.recovery_quarantined > 0 {
            env.incr("provider.quarantined_chunks", self.recovery_quarantined);
        }
        env.set_timer(self.cfg.heartbeat_every, TOKEN_HEARTBEAT);
        if self.cfg.monitor.is_some() {
            env.set_timer(self.cfg.instr_flush_every, TOKEN_INSTR);
        }
    }

    fn on_msg(&mut self, env: &mut dyn Env, from: NodeId, msg: Msg) {
        match msg {
            Msg::PutChunkBatch { req, client, items } => {
                // One op, and its bytes on the NIC-load counter, per
                // chunk on arrival — refused or not: a blocked flood
                // still loads the link it arrives on.
                self.ops_since_hb += items.len() as u64;
                self.bytes_since_hb += items.iter().map(|(_, d, _)| d.len()).sum::<u64>();
                if self.blacklist.contains(&client) {
                    self.instr.emit(ProbeEvent::ChunkRejected {
                        provider: env.id(),
                        client,
                        reason: RejectReason::Blocked,
                    });
                    env.send_expedited(from, Msg::PutChunkErr { req, err: ChunkErr::Blocked });
                    return;
                }
                for (key, data, crc) in items {
                    let bytes = data.len();
                    // The envelope's CRC is stored as it came, never
                    // checked here: a wrong one is the scrub's to find.
                    match self.store.put_with_crc(key, data, crc) {
                        Ok(()) => {
                            // SYSTEM puts are replication repair relays —
                            // exactly the traffic a durable restart avoids.
                            if client == ClientId::SYSTEM {
                                env.incr("provider.repair_chunks", 1);
                                env.incr("provider.repair_bytes", bytes);
                            }
                            self.instr.emit(ProbeEvent::ChunkWritten {
                                provider: env.id(),
                                client,
                                key,
                                bytes,
                            });
                        }
                        Err(PutError::Full) => {
                            self.instr.emit(ProbeEvent::ChunkRejected {
                                provider: env.id(),
                                client,
                                reason: RejectReason::Full,
                            });
                            env.send(from, Msg::PutChunkErr { req, err: ChunkErr::Full });
                            return;
                        }
                    }
                }
                env.send(from, Msg::PutChunkOk { req });
            }
            Msg::GetChunkBatch { req, client, keys } => {
                // One op, one read and one probe event per chunk, so load
                // reports and the security detectors count chunks, not
                // requests.
                self.ops_since_hb += keys.len() as u64;
                env.incr("provider.reads", keys.len() as u64);
                if self.blacklist.contains(&client) {
                    self.instr.emit(ProbeEvent::ChunkRejected {
                        provider: env.id(),
                        client,
                        reason: RejectReason::Blocked,
                    });
                    // Whole-batch refusal: a block applies to the client,
                    // not to individual chunks.
                    env.send_expedited(from, Msg::GetChunkErr { req, err: ChunkErr::Blocked });
                    return;
                }
                let now = env.now();
                let mut items = Vec::with_capacity(keys.len());
                for key in keys {
                    let got = self.store.get(&key, now);
                    let (bytes, hit) = (got.as_ref().map_or(0, Payload::len), got.is_some());
                    self.bytes_since_hb += bytes;
                    let provider = env.id();
                    self.instr.emit(ProbeEvent::ChunkRead { provider, client, key, bytes, hit });
                    items.push((key, got.ok_or(ChunkErr::NotFound)));
                }
                env.send(from, Msg::GetChunkBatchOk { req, items });
            }
            Msg::DeleteChunk { req, key } => {
                let existed = self.store.delete(&key).is_some();
                env.send(from, Msg::DeleteChunkOk { req, existed });
            }
            Msg::ScrubChunks { req, after, max } => {
                let budget = (max as usize).max(1);
                let keys = self.store.keys_after(after, budget);
                // A short batch means the walk reached the end of the
                // store; the scrubber restarts from the top next pass.
                let next = if keys.len() < budget { None } else { keys.last().copied() };
                let mut corrupt = Vec::new();
                for key in &keys {
                    if self.store.verify(key) == Some(VerifyOutcome::Corrupt) {
                        self.store.delete(key);
                        corrupt.push(*key);
                    }
                }
                env.incr("provider.scrubbed_chunks", keys.len() as u64);
                if !corrupt.is_empty() {
                    env.incr("provider.quarantined_chunks", corrupt.len() as u64);
                }
                env.send(
                    from,
                    Msg::ScrubChunksOk { req, scanned: keys.len() as u32, corrupt, next },
                );
            }
            Msg::CorruptChunk { key } => {
                // Fault injection only (tests, E14): damage the stored
                // replica so the next scrub pass has something to find.
                self.store.inject_corruption(&key);
            }
            Msg::ReplicateChunk { req, key, to } => {
                // Relay the stored CRC with the bytes: a copy that rotted
                // here must not arrive with a fresh, valid checksum.
                match self.store.peek(&key) {
                    Some((data, crc)) => {
                        let relay = self.next_req;
                        self.next_req += 1;
                        self.relays.insert(relay, (from, req));
                        let client = ClientId::SYSTEM;
                        let items = vec![(key, data, crc)];
                        env.send(to, Msg::PutChunkBatch { req: relay, client, items });
                    }
                    None => env.send(from, Msg::ReplicateChunkOk { req, ok: false }),
                }
            }
            Msg::PutChunkOk { req } => {
                if let Some((mgr, mreq)) = self.relays.remove(&req) {
                    env.send(mgr, Msg::ReplicateChunkOk { req: mreq, ok: true });
                }
            }
            Msg::PutChunkErr { req, .. } => {
                if let Some((mgr, mreq)) = self.relays.remove(&req) {
                    env.send(mgr, Msg::ReplicateChunkOk { req: mreq, ok: false });
                }
            }
            Msg::BlockClient { client } => {
                self.blacklist.insert(client);
            }
            Msg::UnblockClient { client } => {
                self.blacklist.remove(&client);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        match token {
            TOKEN_HEARTBEAT => self.heartbeat(env),
            TOKEN_INSTR => {
                flush_instr(&mut self.instr, &self.cfg, env);
                env.set_timer(self.cfg.instr_flush_every, TOKEN_INSTR);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Metadata provider
// ---------------------------------------------------------------------

/// Stores metadata tree nodes.
pub struct MetaProviderService {
    pman: NodeId,
    cfg: ServiceConfig,
    store: crate::meta::MetaStore,
    instr: Instrument,
    ops_since_hb: u64,
    capacity: u64,
}

impl MetaProviderService {
    /// A metadata provider with a nominal `capacity` (bytes) for load
    /// reporting.
    pub fn new(pman: NodeId, capacity: u64, cfg: ServiceConfig) -> Self {
        MetaProviderService {
            pman,
            store: crate::meta::MetaStore::new(),
            instr: Instrument::new(cfg.monitor.is_some()),
            ops_since_hb: 0,
            capacity,
            cfg,
        }
    }

    /// The node map (tests).
    pub fn store(&self) -> &crate::meta::MetaStore {
        &self.store
    }
}

impl Service for MetaProviderService {
    fn name(&self) -> &'static str {
        "meta"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        env.send(
            self.pman,
            Msg::Register { kind: ProviderKind::Metadata, capacity: self.capacity },
        );
        env.set_timer(self.cfg.heartbeat_every, TOKEN_HEARTBEAT);
        if self.cfg.monitor.is_some() {
            env.set_timer(self.cfg.instr_flush_every, TOKEN_INSTR);
        }
    }

    fn on_msg(&mut self, env: &mut dyn Env, from: NodeId, msg: Msg) {
        match msg {
            Msg::PutMeta { req, nodes } => {
                self.ops_since_hb += 1;
                let count = nodes.len() as u32;
                for (k, n) in nodes {
                    self.store.put(k, n);
                }
                self.instr.emit(ProbeEvent::MetaWritten { provider: env.id(), nodes: count });
                env.send(from, Msg::PutMetaOk { req });
            }
            Msg::GetMeta { req, keys } => {
                self.ops_since_hb += 1;
                self.instr.emit(ProbeEvent::MetaRead {
                    provider: env.id(),
                    nodes: keys.len() as u32,
                });
                let nodes = keys
                    .into_iter()
                    .map(|k| {
                        let n = self.store.get(&k).cloned();
                        (k, n)
                    })
                    .collect();
                env.send(from, Msg::GetMetaOk { req, nodes });
            }
            Msg::GetMetaRange { req, blob, version, query, after, max_nodes } => {
                self.ops_since_hb += 1;
                let (nodes, more) = self.store.range_cover(
                    blob,
                    version,
                    &query,
                    after,
                    (max_nodes as usize).max(1),
                );
                self.instr.emit(ProbeEvent::MetaRead {
                    provider: env.id(),
                    nodes: nodes.len() as u32,
                });
                env.send(from, Msg::GetMetaRangeOk { req, nodes, more });
            }
            Msg::DeleteMeta { req, keys } => {
                let removed = self.store.remove_all(&keys) as u32;
                env.send(from, Msg::DeleteMetaOk { req, removed });
            }
            Msg::PatchLeaf { req, key, replicas } => {
                let ok = self.store.patch_leaf(&key, replicas);
                env.send(from, Msg::PatchLeafOk { req, ok });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        match token {
            TOKEN_HEARTBEAT => {
                let load = ProviderLoad {
                    used: self.store.bytes(),
                    items: self.store.len() as u64,
                    recent_ops: self.ops_since_hb,
                    fill: if self.capacity == 0 {
                        0.0
                    } else {
                        self.store.bytes() as f64 / self.capacity as f64
                    },
                };
                env.send(self.pman, Msg::Heartbeat { load });
                telemetry_heartbeat(env);
                let node = NodeLabel::new(env.id().0);
                let (reg, labels) = (env.telemetry(), [("node", node.as_str())]);
                reg.set("meta.tree_nodes", &labels, self.store.len() as f64);
                reg.set("meta.store_bytes", &labels, self.store.bytes() as f64);
                reg.set("mem.meta_store_bytes", &labels, self.store.resident_bytes() as f64);
                self.ops_since_hb = 0;
                env.set_timer(self.cfg.heartbeat_every, TOKEN_HEARTBEAT);
            }
            TOKEN_INSTR => {
                flush_instr(&mut self.instr, &self.cfg, env);
                env.set_timer(self.cfg.instr_flush_every, TOKEN_INSTR);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Provider manager
// ---------------------------------------------------------------------

/// Membership registry + allocation strategy host.
pub struct ProviderManagerService {
    registry: ProviderRegistry,
    strategy: Box<dyn AllocationStrategy>,
    sweep_every: SimDuration,
}

impl ProviderManagerService {
    /// A provider manager using the given allocation strategy.
    pub fn new(strategy: Box<dyn AllocationStrategy>) -> Self {
        ProviderManagerService {
            registry: ProviderRegistry::new(),
            strategy,
            sweep_every: SimDuration::from_secs(2),
        }
    }

    /// The registry (tests, adaptive layer co-located inspection).
    pub fn registry(&self) -> &ProviderRegistry {
        &self.registry
    }

    fn directory(&self) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut meta: Vec<NodeId> =
            self.registry.of_kind(ProviderKind::Metadata).map(|p| p.node).collect();
        meta.sort();
        let mut data: Vec<NodeId> =
            self.registry.of_kind(ProviderKind::Data).map(|p| p.node).collect();
        data.sort();
        (meta, data)
    }
}

impl Service for ProviderManagerService {
    fn name(&self) -> &'static str {
        "pman"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        env.set_timer(self.sweep_every, TOKEN_EXPIRE);
    }

    fn on_msg(&mut self, env: &mut dyn Env, from: NodeId, msg: Msg) {
        match msg {
            Msg::Register { kind, capacity } => {
                self.registry.register(from, kind, capacity, env.now());
            }
            Msg::Heartbeat { load } => {
                self.registry.heartbeat(from, load, env.now());
            }
            Msg::Alloc { req, client: _, chunks, replication, chunk_size } => {
                let placement = self.strategy.allocate(
                    &self.registry,
                    chunks,
                    replication,
                    chunk_size,
                    env.rng(),
                );
                match placement {
                    Some(placement) => {
                        for replicas in &placement {
                            for node in replicas {
                                self.registry.reserve(*node, chunk_size);
                            }
                        }
                        env.incr("pman.allocs", 1);
                        env.send(from, Msg::AllocOk { req, placement });
                    }
                    None => {
                        env.incr("pman.alloc_failures", 1);
                        let available =
                            self.registry.allocatable(ProviderKind::Data).len() as u32;
                        env.send(from, Msg::AllocErr { req, available });
                    }
                }
            }
            Msg::GetDirectory { req } => {
                let (meta_providers, data_providers) = self.directory();
                env.send(from, Msg::Directory { req, meta_providers, data_providers });
            }
            Msg::SetDraining { provider, draining } => {
                self.registry.set_draining(provider, draining);
            }
            Msg::Deregister { provider } => {
                self.registry.remove(provider);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        if token == TOKEN_EXPIRE {
            // A provider the health model calls down is expelled.
            let expiry = SimDuration::from_secs_f64(HealthPolicy::default().down_after_s);
            let dead = self.registry.expire(env.now(), expiry);
            if !dead.is_empty() {
                env.incr("pman.expired", dead.len() as u64);
            }
            telemetry_heartbeat(env);
            let reg = env.telemetry();
            reg.set("pool.data_providers", &[], self.registry.count(ProviderKind::Data) as f64);
            reg.set("pool.meta_providers", &[], self.registry.count(ProviderKind::Metadata) as f64);
            env.set_timer(self.sweep_every, TOKEN_EXPIRE);
        }
    }
}

// ---------------------------------------------------------------------
// Version manager
// ---------------------------------------------------------------------

/// Ticketing + strictly ordered publication + enforcement of client
/// blocks on the control path.
pub struct VersionManagerService {
    state: VersionManagerState,
    blacklist: HashSet<ClientId>,
    instr: Instrument,
    cfg: ServiceConfig,
    /// Commit waiters: who to notify when a version publishes.
    waiters: HashMap<(BlobId, VersionId), (NodeId, u64)>,
    stall_timeout: SimDuration,
    retention: RetentionPolicy,
}

impl VersionManagerService {
    /// A fresh version manager.
    pub fn new(cfg: ServiceConfig) -> Self {
        VersionManagerService {
            state: VersionManagerState::new(),
            blacklist: HashSet::new(),
            instr: Instrument::new(cfg.monitor.is_some()),
            cfg,
            waiters: HashMap::new(),
            stall_timeout: SimDuration::from_secs(60),
            retention: RetentionPolicy::KeepAll,
        }
    }

    /// Override how long an uncommitted ticket may sit before counting as
    /// stalled.
    pub fn with_stall_timeout(mut self, timeout: SimDuration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// Set the retention policy that decides the GC roots (default
    /// `KeepAll`: every published version stays readable).
    pub fn with_retention(mut self, policy: RetentionPolicy) -> Self {
        self.retention = policy;
        self
    }

    /// The underlying state (tests, removal strategies co-located).
    pub fn state(&self) -> &VersionManagerState {
        &self.state
    }
}

impl Service for VersionManagerService {
    fn name(&self) -> &'static str {
        "vmanager"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        env.set_timer(SimDuration::from_secs(10), TOKEN_STALL);
        if self.cfg.monitor.is_some() {
            env.set_timer(self.cfg.instr_flush_every, TOKEN_INSTR);
        }
    }

    fn on_msg(&mut self, env: &mut dyn Env, from: NodeId, msg: Msg) {
        match msg {
            Msg::CreateBlob { req, client: _, spec } => {
                let blob = self.state.create_blob(spec, env.now());
                env.send(from, Msg::CreateBlobOk { req, blob });
            }
            Msg::Ticket { req, client, blob, kind, len } => {
                if self.blacklist.contains(&client) {
                    self.instr.emit(ProbeEvent::TicketRejected { client, blob, blocked: true });
                    env.send(
                        from,
                        Msg::TicketErr { req, err: crate::model::BlobError::Blocked(client) },
                    );
                    return;
                }
                match self.state.ticket(blob, kind, len, client, env.now()) {
                    Ok(ticket) => {
                        self.instr.emit(ProbeEvent::TicketIssued {
                            client,
                            blob,
                            version: ticket.version,
                            offset: ticket.offset,
                            len: ticket.len,
                        });
                        env.incr("vman.tickets", 1);
                        env.send(from, Msg::TicketOk { req, ticket });
                    }
                    Err(err) => {
                        self.instr.emit(ProbeEvent::TicketRejected {
                            client,
                            blob,
                            blocked: false,
                        });
                        env.send(from, Msg::TicketErr { req, err });
                    }
                }
            }
            Msg::Commit { req, client: _, blob, version, root, size } => {
                self.waiters.insert((blob, version), (from, req));
                match self.state.commit(blob, version, root, size, env.now()) {
                    Ok(published) => {
                        for (v, writer) in published {
                            env.incr("vman.published", 1);
                            self.instr.emit(ProbeEvent::VersionPublished {
                                blob,
                                version: v,
                                size: self
                                    .state
                                    .blob(blob)
                                    .and_then(|b| b.version(v))
                                    .map(|r| r.size)
                                    .unwrap_or(0),
                                writer,
                            });
                            if let Some((node, wreq)) = self.waiters.remove(&(blob, v)) {
                                env.send(node, Msg::CommitOk { req: wreq, version: v });
                            }
                        }
                    }
                    Err(err) => {
                        self.waiters.remove(&(blob, version));
                        env.send(from, Msg::TicketErr { req, err });
                    }
                }
            }
            Msg::GetVersion { req, client, blob, version } => {
                if self.blacklist.contains(&client) {
                    env.send(
                        from,
                        Msg::GetVersionErr {
                            req,
                            err: crate::model::BlobError::Blocked(client),
                        },
                    );
                    return;
                }
                let res = match version {
                    Some(v) => self.state.version_info(blob, v),
                    None => self.state.latest_info(blob),
                };
                match res {
                    Ok(info) => env.send(from, Msg::GetVersionOk { req, info }),
                    Err(err) => env.send(from, Msg::GetVersionErr { req, err }),
                }
            }
            Msg::BlockClient { client } => {
                self.blacklist.insert(client);
            }
            Msg::UnblockClient { client } => {
                self.blacklist.remove(&client);
            }
            Msg::ListBlobs { req } => {
                env.send(from, Msg::BlobList { req, blobs: self.state.blob_ids() });
            }
            Msg::ListStalled { req } => {
                let stalled = self.state.actionable_stalled(env.now(), self.stall_timeout);
                env.send(from, Msg::StalledList { req, stalled });
            }
            Msg::ListVersions { req, blob } => {
                let (page_size, versions, roots) = match self.state.blob(blob) {
                    Some(st) => {
                        (st.spec.page_size, st.catalog(), st.roots(self.retention, env.now()))
                    }
                    None => (0, vec![], vec![]),
                };
                env.send(from, Msg::VersionList { req, blob, page_size, versions, roots });
            }
            Msg::SnapshotVersion { req, client, blob, version } => {
                if self.blacklist.contains(&client) {
                    env.send(
                        from,
                        Msg::SnapshotVersionErr {
                            req,
                            err: crate::model::BlobError::Blocked(client),
                        },
                    );
                    return;
                }
                let Some(st) = self.state.blob_mut(blob) else {
                    env.send(
                        from,
                        Msg::SnapshotVersionErr {
                            req,
                            err: crate::model::BlobError::UnknownBlob(blob),
                        },
                    );
                    return;
                };
                let v = version.unwrap_or(st.latest().version);
                if st.snapshot(v, self.retention, env.now()) {
                    env.incr("vman.snapshots", 1);
                    env.send(from, Msg::SnapshotVersionOk { req, version: v });
                } else {
                    env.send(
                        from,
                        Msg::SnapshotVersionErr {
                            req,
                            err: crate::model::BlobError::UnknownVersion(blob, v),
                        },
                    );
                }
            }
            Msg::DecommissionBlob { req, client, blob } => {
                if self.blacklist.contains(&client) {
                    env.send(from, Msg::DecommissionBlobOk { req, ok: false });
                    return;
                }
                let ok = match self.state.blob_mut(blob) {
                    Some(st) => {
                        st.decommission();
                        true
                    }
                    None => false,
                };
                if ok {
                    env.incr("vman.decommissions", 1);
                }
                env.send(from, Msg::DecommissionBlobOk { req, ok });
            }
            Msg::RetireVersion { req, blob, version } => {
                let (policy, now) = (self.retention, env.now());
                let ok = self
                    .state
                    .blob_mut(blob)
                    .is_some_and(|st| st.forget_version(version, policy, now));
                env.send(from, Msg::RetireVersionOk { req, ok });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        match token {
            TOKEN_STALL => {
                let stalled = self.state.stalled_tickets(env.now(), self.stall_timeout);
                if !stalled.is_empty() {
                    env.record("vman.stalled_writes", stalled.len() as f64);
                }
                telemetry_heartbeat(env);
                let node = NodeLabel::new(env.id().0);
                let (reg, labels) = (env.telemetry(), [("node", node.as_str())]);
                reg.set("vman.blobs", &labels, self.state.blob_ids().len() as f64);
                reg.set("vman.stalled_tickets", &labels, stalled.len() as f64);
                env.set_timer(SimDuration::from_secs(10), TOKEN_STALL);
            }
            TOKEN_INSTR => {
                flush_instr(&mut self.instr, &self.cfg, env);
                env.set_timer(self.cfg.instr_flush_every, TOKEN_INSTR);
            }
            _ => {}
        }
    }
}
