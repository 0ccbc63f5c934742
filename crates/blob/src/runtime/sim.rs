//! Simulated runtime: hosts BlobSeer services and scripted clients as
//! actors of a [`sads_sim::World`], with every transfer priced by the
//! bandwidth model. This is the Grid'5000 substitute all paper-shaped
//! experiments run on.

use std::collections::VecDeque;
use std::sync::Arc;

use sads_sim::{
    Actor, Ctx, Message, MessageExt, NodeConfig, NodeId, Registry, SimDuration, SimTime, World,
};

use super::{wire, BlobSeer, Host, Providers};
use crate::client::{ClientConfig, ClientCore, ClientOp, Completion};
use crate::model::{BlobId, BlobSpec, ClientId, Payload, VersionId};
use crate::pmanager::RoundRobin;
use crate::rpc::Msg;
use crate::services::{
    Env, ProviderManagerService, Service, ServiceConfig, VersionManagerService,
};
use crate::storage::BackendSpec;
use crate::vmanager::WriteKind;

/// Adapter: an [`Env`] view over the simulator's [`Ctx`].
pub struct SimEnv<'a, 'w> {
    ctx: &'a mut Ctx<'w>,
}

impl<'a, 'w> SimEnv<'a, 'w> {
    /// Wrap a simulator context.
    pub fn new(ctx: &'a mut Ctx<'w>) -> Self {
        SimEnv { ctx }
    }
}

impl Env for SimEnv<'_, '_> {
    fn id(&self) -> NodeId {
        self.ctx.id()
    }
    fn now(&self) -> SimTime {
        self.ctx.now()
    }
    fn send(&mut self, to: NodeId, msg: Msg) {
        self.ctx.send(to, Box::new(msg));
    }
    fn send_expedited(&mut self, to: NodeId, msg: Msg) {
        self.ctx.send_expedited(to, Box::new(msg));
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.ctx.set_timer(delay, token);
    }
    fn rng(&mut self) -> &mut rand::rngs::SmallRng {
        self.ctx.rng()
    }
    fn record(&mut self, name: &str, value: f64) {
        self.ctx.record(name, value);
    }
    fn span_sink(&self) -> Option<std::sync::Arc<sads_sim::SpanSink>> {
        self.ctx.span_sink()
    }
    fn trace_ctx(&self) -> Option<sads_sim::TraceCtx> {
        self.ctx.trace_ctx()
    }
    fn set_trace_ctx(&mut self, trace: Option<sads_sim::TraceCtx>) {
        self.ctx.set_trace_ctx(trace);
    }
    fn telemetry(&self) -> &Registry {
        self.ctx.telemetry()
    }
    fn queue_depth_seconds(&self) -> f64 {
        self.ctx.ingress_backlog(self.ctx.id()).as_secs_f64()
    }
    fn spawn(&mut self, service: Box<dyn Service>) -> NodeId {
        self.ctx.spawn(Box::new(SimService::new(service)), NodeConfig::default())
    }
    fn power_off(&mut self, node: NodeId) {
        self.ctx.crash(node);
    }
}

/// Wraps any [`Service`] as a simulator actor.
pub struct SimService {
    inner: Box<dyn Service>,
}

impl SimService {
    /// Host `service` in the simulator.
    pub fn new(service: Box<dyn Service>) -> Self {
        SimService { inner: service }
    }
}

impl Actor for SimService {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(&mut SimEnv::new(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Message>) {
        if let Ok(msg) = msg.downcast::<Msg>() {
            // When the delivery carries a trace, record a server-side
            // Handle span around the service logic: it proves context
            // crossed the node boundary and names who handled what.
            // (In simulation handlers take zero virtual time, so the
            // span marks a point; the threaded runtime measures real
            // handling time the same way.)
            let traced = match (ctx.span_sink(), ctx.trace_ctx()) {
                (Some(sink), Some(tc)) => {
                    Some((sink, tc, sads_sim::Message::op_name(&*msg), ctx.now()))
                }
                _ => None,
            };
            self.inner.on_msg(&mut SimEnv::new(ctx), from, *msg);
            if let Some((sink, tc, op, started)) = traced {
                sink.record(sads_sim::SpanRecord {
                    trace: tc.trace_id,
                    span: sink.next_id(),
                    parent: tc.span_id,
                    service: self.inner.name(),
                    op,
                    node: ctx.id().0 as u64,
                    start_ns: started.as_nanos(),
                    end_ns: ctx.now().as_nanos(),
                    kind: sads_sim::SpanKind::Handle,
                    class: sads_sim::SpanClass::Control,
                    queue_ns: 0,
                    xfer_ns: 0,
                    wire_ns: 0,
                });
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.inner.on_timer(&mut SimEnv::new(ctx), token);
    }
}

/// Convenience: add a service node to a world.
pub fn add_service(world: &mut World, service: Box<dyn Service>, nic: NodeConfig) -> NodeId {
    world.add_node(Box::new(SimService::new(service)), nic)
}

impl Host for World {
    fn start(&mut self, service: Box<dyn Service>, nic: NodeConfig) -> NodeId {
        add_service(self, service, nic)
    }

    fn flight_recorder(&self) -> Option<Arc<sads_sim::FlightRecorder>> {
        World::flight_recorder(self).cloned()
    }

    /// Nothing to point: simulated clients are scripted actors wired with
    /// the addresses they use.
    fn bind(&mut self, _blob: &BlobSeer, _cfg: ServiceConfig, _client_cfg: ClientConfig) {}
}

/// Start BlobSeer with no self-* layer on `world`: the provider manager
/// (round-robin allocation) on an unlimited NIC, then, through [`wire`],
/// the version manager and `n_meta` metadata providers of 1 GiB and
/// `n_data` memory-backed data providers of `data_capacity` bytes, all
/// with default service settings.
pub fn bare(world: &mut World, n_meta: usize, n_data: usize, data_capacity: u64) -> BlobSeer {
    let cfg = ServiceConfig::default();
    let pman = Box::new(ProviderManagerService::new(Box::<RoundRobin>::default()));
    let pman = add_service(world, pman, NodeConfig::unlimited());
    let providers = Providers::new(pman, data_capacity, BackendSpec::Memory);
    let vman = Box::new(VersionManagerService::new(cfg.clone()));
    wire(world, vman, (n_meta, 1 << 30), n_data, providers, || cfg.clone())
}

/// Which BLOB a scripted step targets.
#[derive(Clone, Copy, Debug)]
pub enum BlobRef {
    /// A known id.
    Id(BlobId),
    /// The `i`-th BLOB this client created.
    Created(usize),
}

/// One step of a scripted client workload.
#[derive(Clone, Debug)]
pub enum ScriptStep {
    /// Create a BLOB (its id becomes `BlobRef::Created(i)`).
    Create(BlobSpec),
    /// Write `bytes` of simulated data.
    Write {
        /// Target BLOB.
        blob: BlobRef,
        /// Offset or append.
        kind: WriteKind,
        /// Bytes to write.
        bytes: u64,
    },
    /// Read a range.
    Read {
        /// Target BLOB.
        blob: BlobRef,
        /// Version, or latest.
        version: Option<VersionId>,
        /// Byte offset.
        offset: u64,
        /// Byte length.
        len: u64,
    },
    /// Sleep until an absolute simulation time before the next step.
    WaitUntil(SimTime),
    /// Sleep for a relative duration before the next step.
    Pause(SimDuration),
}

const SCRIPT_TIMER: u64 = 1;

/// A simulator actor that runs a fixed script of client operations
/// sequentially, recording completions into the world metrics:
///
/// * series `<prefix>.write_mbps` / `<prefix>.read_mbps` — per-op
///   throughput, stamped at completion time,
/// * series `op_seconds` — wall duration of every data op,
/// * counters `<prefix>.ops_ok`, `<prefix>.ops_err`.
pub struct ScriptedClient {
    core: ClientCore,
    script: VecDeque<ScriptStep>,
    created: Vec<BlobId>,
    prefix: String,
    // Metric names are fixed per client; precomputed so the per-op hot
    // path records without formatting (error slugs, being rare, still
    // format on demand).
    ops_ok_name: String,
    ops_err_name: String,
    write_mbps_name: String,
    read_mbps_name: String,
    waiting_op: bool,
}

impl ScriptedClient {
    /// Build a scripted client. `prefix` namespaces its metrics (use one
    /// shared prefix to aggregate a fleet, e.g. `"client"`).
    pub fn new(
        id: ClientId,
        vman: NodeId,
        pman: NodeId,
        meta_providers: Vec<NodeId>,
        cfg: ClientConfig,
        script: Vec<ScriptStep>,
        prefix: impl Into<String>,
    ) -> Self {
        let prefix: String = prefix.into();
        ScriptedClient {
            core: ClientCore::new(id, vman, pman, meta_providers, cfg),
            script: script.into(),
            created: Vec::new(),
            ops_ok_name: format!("{prefix}.ops_ok"),
            ops_err_name: format!("{prefix}.ops_err"),
            write_mbps_name: format!("{prefix}.write_mbps"),
            read_mbps_name: format!("{prefix}.read_mbps"),
            prefix,
            waiting_op: false,
        }
    }

    fn resolve(&self, b: BlobRef) -> Option<BlobId> {
        match b {
            BlobRef::Id(id) => Some(id),
            BlobRef::Created(i) => self.created.get(i).copied(),
        }
    }

    fn next_step(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(step) = self.script.pop_front() {
            let op = match step {
                ScriptStep::Create(spec) => Some(ClientOp::Create { spec }),
                ScriptStep::Write { blob, kind, bytes } => self
                    .resolve(blob)
                    .map(|blob| ClientOp::Write { blob, kind, data: Payload::Sim(bytes) }),
                ScriptStep::Read { blob, version, offset, len } => {
                    self.resolve(blob).map(|blob| ClientOp::Read { blob, version, offset, len })
                }
                ScriptStep::WaitUntil(at) => {
                    ctx.set_timer(at.since(ctx.now()), SCRIPT_TIMER);
                    return;
                }
                ScriptStep::Pause(d) => {
                    ctx.set_timer(d, SCRIPT_TIMER);
                    return;
                }
            };
            let Some(op) = op else {
                ctx.incr(&self.ops_err_name, 1);
                continue;
            };
            // An op can finish inside `start_op` (a read the client's
            // caches serve whole); the script then goes straight on.
            let done = self.core.start_op(&mut SimEnv::new(ctx), op, 0);
            self.waiting_op = done.is_empty();
            if self.waiting_op {
                return;
            }
            self.record(ctx, done);
        }
    }

    fn on_completions(&mut self, ctx: &mut Ctx<'_>, completions: Vec<Completion>) {
        if !completions.is_empty() {
            self.waiting_op = false;
            self.record(ctx, completions);
            self.next_step(ctx);
        }
    }

    /// Count finished ops into the world metrics.
    fn record(&mut self, ctx: &mut Ctx<'_>, completions: Vec<Completion>) {
        for c in completions {
            match &c.result {
                Ok(out) => {
                    ctx.incr(&self.ops_ok_name, 1);
                    match out {
                        crate::client::OpOutput::Created(b) => self.created.push(*b),
                        crate::client::OpOutput::Written { .. } => {
                            ctx.record(&self.write_mbps_name, c.throughput_mbps());
                            ctx.record("op_seconds", c.finished.since(c.started).as_secs_f64());
                        }
                        crate::client::OpOutput::Read { .. } => {
                            ctx.record(&self.read_mbps_name, c.throughput_mbps());
                            ctx.record("op_seconds", c.finished.since(c.started).as_secs_f64());
                        }
                        // Metadata-only lifecycle ops: counted, no
                        // throughput to record.
                        crate::client::OpOutput::Snapshotted { .. }
                        | crate::client::OpOutput::Decommissioned { .. } => {}
                        // Scripted clients drive only whole-op writes and
                        // reads; stream sub-completions are counted, no
                        // per-chunk throughput series.
                        crate::client::OpOutput::WriteStreamOpened { .. }
                        | crate::client::OpOutput::Fed { .. }
                        | crate::client::OpOutput::ReadStreamOpened { .. }
                        | crate::client::OpOutput::ReadChunk { .. }
                        | crate::client::OpOutput::StreamClosed { .. } => {}
                    }
                }
                Err(e) => {
                    ctx.incr(&self.ops_err_name, 1);
                    ctx.incr(&format!("{}.err.{}", self.prefix, err_slug(e)), 1);
                }
            }
        }
    }
}

fn err_slug(e: &crate::model::BlobError) -> &'static str {
    use crate::model::BlobError::*;
    match e {
        UnknownBlob(_) => "unknown_blob",
        UnknownVersion(..) => "unknown_version",
        Misaligned { .. } => "misaligned",
        EmptyWrite => "empty_write",
        OutOfBounds { .. } => "out_of_bounds",
        AllocationFailed { .. } => "alloc_failed",
        Blocked(_) => "blocked",
        ChunkUnavailable(_) => "chunk_unavailable",
        MetaUnavailable => "meta_unavailable",
        Timeout => "timeout",
        ProviderFull => "provider_full",
        Protocol(_) => "protocol",
    }
}

impl Actor for ScriptedClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.next_step(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Message>) {
        if let Ok(msg) = msg.downcast::<Msg>() {
            let completions = {
                let mut env = SimEnv::new(ctx);
                self.core.handle_msg(&mut env, from, *msg)
            };
            self.on_completions(ctx, completions);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if ClientCore::owns_timer(token) {
            let completions = {
                let mut env = SimEnv::new(ctx);
                self.core.handle_timer(&mut env, token)
            };
            self.on_completions(ctx, completions);
        } else if token == SCRIPT_TIMER && !self.waiting_op {
            self.next_step(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::{DataProviderService, MetaProviderService};
    use sads_sim::RunOutcome;

    /// Stand up a small simulated deployment; returns
    /// (world, vman, pman, meta_providers, data_providers).
    fn deploy(
        n_data: usize,
        n_meta: usize,
        seed: u64,
    ) -> (World, NodeId, NodeId, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::with_seed(seed);
        let n = bare(&mut world, n_meta, n_data, 1 << 40);
        (world, n.vman, n.pman, n.meta, n.data)
    }

    const MB: u64 = 1_000_000;

    #[test]
    fn scripted_write_read_roundtrip_in_simulation() {
        let (mut world, vman, pman, meta, _) = deploy(8, 2, 42);
        let spec = BlobSpec { page_size: 8 * MB, replication: 1 };
        let script = vec![
            ScriptStep::Create(spec),
            ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::Append, bytes: 64 * MB },
            ScriptStep::Read {
                blob: BlobRef::Created(0),
                version: None,
                offset: 0,
                len: 64 * MB,
            },
        ];
        world.add_node(
            Box::new(ScriptedClient::new(
                ClientId(1),
                vman,
                pman,
                meta,
                ClientConfig::default(),
                script,
                "client",
            )),
            NodeConfig::default(),
        );
        // Providers re-arm heartbeats forever; run a bounded stretch.
        let out = world.run_for(SimDuration::from_secs(120), 2_000_000);
        assert_ne!(out, RunOutcome::EventLimit);
        assert_eq!(world.metrics().counter("client.ops_ok"), 3, "create+write+read all succeed");
        assert_eq!(world.metrics().counter("client.ops_err"), 0);
        let w = world.metrics().mean("client.write_mbps").expect("write throughput recorded");
        // 1 Gb/s NIC: a single writer must land near 125 MB/s (some
        // protocol overhead allowed).
        assert!(w > 80.0 && w <= 130.0, "write throughput {w} MB/s");
        let r = world.metrics().mean("client.read_mbps").expect("read throughput recorded");
        assert!(r > 80.0 && r <= 130.0, "read throughput {r} MB/s");
    }

    /// A pinned read of a hole the client read before is served from its
    /// caches inside `start_op`; the script must still go on past it.
    #[test]
    fn a_read_finished_inside_start_op_moves_the_script_on() {
        let (mut world, vman, pman, meta, _) = deploy(2, 1, 5);
        let spec = BlobSpec { page_size: MB, replication: 1 };
        let hole = ScriptStep::Read {
            blob: BlobRef::Created(0),
            version: Some(VersionId(1)),
            offset: 0,
            len: MB,
        };
        let script = vec![
            ScriptStep::Create(spec),
            ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::At(2 * MB), bytes: MB },
            hole.clone(),
            hole,
        ];
        let cfg = ClientConfig::default();
        let client = ScriptedClient::new(ClientId(1), vman, pman, meta, cfg, script, "client");
        world.add_node(Box::new(client), NodeConfig::default());
        world.run_for(SimDuration::from_secs(60), 1_000_000);
        assert_eq!(world.metrics().counter("client.ops_ok"), 4);
        assert_eq!(world.metrics().counter("client.version_hits"), 1);
    }

    #[test]
    fn many_concurrent_clients_share_their_own_nics() {
        let (mut world, vman, pman, meta, _) = deploy(16, 2, 7);
        let spec = BlobSpec { page_size: 8 * MB, replication: 1 };
        for i in 0..8 {
            let script = vec![
                ScriptStep::Create(spec),
                ScriptStep::Write {
                    blob: BlobRef::Created(0),
                    kind: WriteKind::Append,
                    bytes: 64 * MB,
                },
            ];
            world.add_node(
                Box::new(ScriptedClient::new(
                    ClientId(100 + i),
                    vman,
                    pman,
                    meta.clone(),
                    ClientConfig::default(),
                    script,
                    "client",
                )),
                NodeConfig::default(),
            );
        }
        world.run_for(SimDuration::from_secs(120), 5_000_000);
        assert_eq!(world.metrics().counter("client.ops_ok"), 16);
        // With 16 providers and 8 clients, every client's own NIC is the
        // bottleneck: aggregate ≈ 8 × ~110 MB/s.
        let w = world.metrics().mean("client.write_mbps").unwrap();
        assert!(w > 70.0, "per-client write throughput under concurrency: {w} MB/s");
    }

    #[test]
    fn replication_three_writes_three_copies() {
        let (mut world, vman, pman, meta, _) = deploy(6, 1, 3);
        let spec = BlobSpec { page_size: MB, replication: 3 };
        let script = vec![
            ScriptStep::Create(spec),
            ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::Append, bytes: 4 * MB },
        ];
        world.add_node(
            Box::new(ScriptedClient::new(
                ClientId(1),
                vman,
                pman,
                meta,
                ClientConfig::default(),
                script,
                "client",
            )),
            NodeConfig::default(),
        );
        world.run_for(SimDuration::from_secs(60), 1_000_000);
        assert_eq!(world.metrics().counter("client.ops_ok"), 2);
        // 4 chunks × 3 replicas: replica puts all acknowledged.
        // (Verified indirectly: a write with replication==3 on 6 providers
        // succeeded, which requires 3 distinct providers per chunk.)
    }

    #[test]
    fn concurrent_writers_to_same_blob_serialize_versions() {
        let (mut world, vman, pman, meta, _) = deploy(8, 2, 11);
        let spec = BlobSpec { page_size: MB, replication: 1 };
        // Client 1 creates; clients 2 and 3 write to BlobId(1) (the first
        // created blob id is deterministic).
        world.add_node(
            Box::new(ScriptedClient::new(
                ClientId(1),
                vman,
                pman,
                meta.clone(),
                ClientConfig::default(),
                vec![ScriptStep::Create(spec)],
                "creator",
            )),
            NodeConfig::default(),
        );
        for i in 0..2 {
            let script = vec![
                ScriptStep::WaitUntil(SimTime(1_000_000_000)),
                ScriptStep::Write {
                    blob: BlobRef::Id(BlobId(1)),
                    kind: WriteKind::At(i * 4 * MB),
                    bytes: 4 * MB,
                },
                ScriptStep::Read {
                    blob: BlobRef::Id(BlobId(1)),
                    version: None,
                    offset: 0,
                    len: 4 * MB,
                },
            ];
            world.add_node(
                Box::new(ScriptedClient::new(
                    ClientId(10 + i),
                    vman,
                    pman,
                    meta.clone(),
                    ClientConfig::default(),
                    script,
                    "writer",
                )),
                NodeConfig::default(),
            );
        }
        world.run_for(SimDuration::from_secs(120), 2_000_000);
        assert_eq!(world.metrics().counter("creator.ops_ok"), 1);
        assert_eq!(world.metrics().counter("writer.ops_ok"), 4, "2 writes + 2 reads");
        assert_eq!(world.metrics().counter("writer.ops_err"), 0);
    }

    /// `(late, accepted)` metadata puts over all metadata providers after
    /// `writers`, each script run by its own client, BLOB 1 created first.
    fn metadata_put_order(writers: Vec<Vec<ScriptStep>>) -> (u64, u64) {
        let (mut world, vman, pman, meta, _) = deploy(16, 4, 13);
        let spec = BlobSpec { page_size: MB, replication: 1 };
        let cfg = ClientConfig::default();
        let creator = vec![ScriptStep::Create(spec)];
        let client = |id, script, prefix| {
            ScriptedClient::new(ClientId(id), vman, pman, meta.clone(), cfg, script, prefix)
        };
        world.add_node(Box::new(client(1, creator, "creator")), NodeConfig::default());
        let n = writers.len() as u64;
        for (i, script) in writers.into_iter().enumerate() {
            let writer = client(10 + i as u64, script, "writer");
            world.add_node(Box::new(writer), NodeConfig::default());
        }
        world.run_for(SimDuration::from_secs(300), 20_000_000);
        assert_eq!(world.metrics().counter("writer.ops_err"), 0);
        assert!(world.metrics().counter("writer.ops_ok") > n, "every writer wrote");
        let stores = meta.iter().map(|m| {
            world.actor_as::<MetaProviderService>(*m).expect("metadata provider").store()
        });
        stores.fold((0, 0), |(late, all), s| (late + s.late_puts(), all + s.len() as u64))
    }

    /// A metadata put appends to its range's version list when that
    /// range's puts arrive in version order — true for one sequential
    /// writer per BLOB (E1's and E2's writers each append to their own),
    /// not for concurrent writers to one BLOB, whose puts race their
    /// tickets at the ranges they share.
    #[test]
    fn metadata_puts_append_only_while_a_blob_has_one_writer() {
        let spec = BlobSpec { page_size: MB, replication: 1 };
        let append =
            ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::Append, bytes: 4 * MB };
        let own = (0..8).map(|_| {
            vec![ScriptStep::Create(spec), append.clone(), append.clone(), append.clone()]
        });
        let (late, all) = metadata_put_order(own.collect());
        assert_eq!(late, 0, "one writer per BLOB: every one of {all} puts appends");

        // Eight writers to one BLOB, three rounds each, at disjoint pages:
        // they share only the ranges above their pages. At 4 pages each
        // they finish in ticket order and all 257 puts append; at the
        // unequal sizes here a later ticket's puts overtake an earlier
        // one's, and 5 of 317 insert.
        let wait = ScriptStep::WaitUntil(SimTime(1_000_000_000));
        let shared = (0..8u64).map(|i| {
            let at = |round: u64| ScriptStep::Write {
                blob: BlobRef::Id(BlobId(1)),
                kind: WriteKind::At((round * 8 + i) * 8 * MB),
                bytes: (1 + (i * 5 + round) % 8) * MB,
            };
            vec![wait.clone(), at(0), at(1), at(2)]
        });
        let (late, all) = metadata_put_order(shared.collect());
        assert!(late > 0, "concurrent writers to one BLOB: {late} of {all} puts inserted");
    }

    /// `crc32c` passes made on this thread — which, in simulation, is
    /// every node of the deployment.
    fn crc_calls() -> u64 {
        crate::storage::CRC32C_CALLS.with(|n| n.get())
    }

    const PAGES: u64 = 4;

    /// Deploy four data providers and write `PAGES` pages at replication
    /// `r`; returns the world, the provider manager and the data
    /// providers, after asserting the write made exactly `PAGES` passes.
    fn write_pages(r: u32) -> (World, NodeId, Vec<NodeId>) {
        let (mut world, vman, pman, meta, data) = deploy(4, 1, 5);
        let script = vec![
            ScriptStep::Create(BlobSpec { page_size: MB, replication: r }),
            ScriptStep::Write {
                blob: BlobRef::Created(0),
                kind: WriteKind::Append,
                bytes: PAGES * MB,
            },
        ];
        let cfg = ClientConfig::default();
        let client = ScriptedClient::new(ClientId(1), vman, pman, meta, cfg, script, "client");
        world.add_node(Box::new(client), NodeConfig::default());
        let before = crc_calls();
        world.run_for(SimDuration::from_secs(30), 1_000_000);
        assert_eq!(world.metrics().counter("client.ops_ok"), 2, "create + write");
        let stored: usize = data.iter().map(|p| store(&world, *p).len()).sum();
        assert_eq!(stored as u64, PAGES * r as u64, "every replica stored");
        assert_eq!(crc_calls() - before, PAGES, "replication {r}: one pass per page");
        (world, pman, data)
    }

    fn store(world: &World, provider: NodeId) -> &crate::provider::ChunkStore {
        world.actor_as::<DataProviderService>(provider).expect("data provider").store()
    }

    /// Sends its messages at start and counts the replies by name — a
    /// wire-level stand-in for the replication manager.
    struct Sender(Vec<(NodeId, Msg)>);

    impl Actor for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (to, msg) in self.0.drain(..) {
                ctx.send(to, Box::new(msg));
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Message>) {
            ctx.incr(&format!("sender.{}", msg.op_name()), 1);
        }
    }

    /// The writer checksums each page once, before the fan-out, and every
    /// replica stores that CRC: N pages cost N passes at any replication.
    #[test]
    fn a_write_checksums_each_page_once_whatever_the_replication() {
        for r in 1..=3 {
            write_pages(r);
        }
    }

    /// A repair relay carries the source's stored CRC, so neither end
    /// reads the bytes; a store that is full refuses a put without a pass.
    #[test]
    fn a_repair_relay_and_a_refused_put_checksum_nothing() {
        let (mut world, pman, data) = write_pages(2);
        let (src, key) = data
            .iter()
            .find_map(|p| store(&world, *p).all_keys().first().map(|k| (*p, *k)))
            .expect("a stored chunk");
        let dest = *data.iter().find(|p| store(&world, **p).peek(&key).is_none()).unwrap();
        let full = add_service(
            &mut world,
            Box::new(DataProviderService::new(pman, 0, ServiceConfig::default())),
            NodeConfig::default(),
        );
        let data_page = Payload::Sim(MB);
        let crc = crate::storage::payload_crc(&data_page);
        let items = vec![(key, data_page, crc)];
        let refused = Msg::PutChunkBatch { req: 2, client: ClientId(9), items };
        let relay = Msg::ReplicateChunk { req: 1, key, to: dest };
        let sender = Sender(vec![(src, relay), (full, refused)]);
        world.add_node(Box::new(sender), NodeConfig::default());
        let before = crc_calls();
        world.run_for(SimDuration::from_secs(5), 100_000);
        assert_eq!(crc_calls() - before, 0, "relay and refusal read no bytes");
        assert_eq!(world.metrics().counter("sender.ReplicateChunkOk"), 1);
        assert_eq!(world.metrics().counter("sender.PutChunkErr"), 1, "the full store refused");
        let crc = |p| store(&world, p).peek(&key).map(|(_, crc)| crc);
        assert_eq!(crc(dest), crc(src), "the source's CRC travelled");
        assert!(store(&world, full).is_empty());
    }
}
