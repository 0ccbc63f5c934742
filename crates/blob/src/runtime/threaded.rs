//! Threaded runtime: BlobSeer actors multiplexed onto a bounded pool of
//! sharded event-loop workers (the private `executor` module), exchanging
//! messages through per-cell mailboxes and storing **real bytes**. This is
//! the runtime a downstream user embeds; the examples and the S3 gateway
//! run on it.
//!
//! Earlier revisions ran one OS thread per actor; a 64-client sweep meant
//! ~140 threads thrashing the scheduler and throughput collapsed. Now the
//! node count is decoupled from the thread count: `N ≈ cores` workers own
//! every service and client core, so 256–1024-client sweeps scale.
//!
//! Time is wall-clock nanoseconds since cluster start, surfaced as
//! [`SimTime`] so the same service code runs unchanged.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
use sads_sim::{
    FlightRecorder, Metrics, NodeConfig, NodeId, ProcSampler, Registry as TelemetryRegistry,
    SimDuration, SimTime, SpanSink, TraceCtx,
};

use super::executor::{Envelope, ExecShared, Executor, NodeKind};
use super::{wire, BlobSeer, Host, Providers};
use crate::client::{ClientConfig, ClientOp, Completion, OpOutput};
use crate::model::{BlobError, BlobId, BlobSpec, ClientId, Payload, VersionId};
use crate::pmanager::RoundRobin;
use crate::rpc::Msg;
use crate::services::{
    Env, ProviderManagerService, Service, ServiceConfig, VersionManagerService,
};
use crate::storage::BackendSpec;
use crate::vmanager::WriteKind;

/// Timer token of the process-telemetry sampler cell.
pub const TOKEN_PROC_SAMPLE: u64 = u64::MAX - 60;

/// One cell per cluster that reads `/proc/self` on a heartbeat cadence and
/// exports the `proc.*` gauge family (RSS + high-water, page faults,
/// mapped bytes) into the cluster's registry. Threaded-runtime only: in
/// the simulator the hosting process's memory says nothing about the
/// simulated deployment.
struct ProcSamplerService {
    sampler: ProcSampler,
    every: SimDuration,
}

impl Service for ProcSamplerService {
    fn name(&self) -> &'static str {
        "procsampler"
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        self.sampler.sample_into(env.telemetry());
        env.set_timer(self.every, TOKEN_PROC_SAMPLE);
    }

    fn on_msg(&mut self, _env: &mut dyn Env, _from: NodeId, _msg: Msg) {}

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        if token == TOKEN_PROC_SAMPLE {
            self.sampler.sample_into(env.telemetry());
            env.set_timer(self.every, TOKEN_PROC_SAMPLE);
        }
    }
}

/// What a blocking call returns when its client cell is gone before the
/// reply came: the node was killed, or the cluster shut down.
pub const CLIENT_GONE: &str = "client node gone";

/// Handle to a client cell: a blocking BlobSeer API over real bytes.
///
/// The handle itself is not a thread — a blocking call injects the op
/// into the client's mailbox and waits on a one-shot reply channel. While
/// it waits, the calling thread runs its shard's cells itself if the
/// shard's worker sleeps and the shard's one helper slot is free, and
/// otherwise sleeps, so any number of driver threads can block cheaply
/// while the executor's few workers do the protocol work.
#[derive(Clone)]
pub struct ClientHandle {
    node: NodeId,
    client_id: ClientId,
    exec: Arc<ExecShared>,
    op_timeout: Duration,
}

/// One in-flight client op submitted with [`ClientHandle::submit`]: a
/// one-shot completion channel plus the op deadline.
pub struct OpTicket {
    rx: Receiver<Completion>,
    exec: Arc<ExecShared>,
    node: NodeId,
    timeout: Duration,
    submitted: Instant,
}

/// A blocking call's outcome, from what its reply channel yielded.
fn outcome(reply: Result<Completion, RecvTimeoutError>) -> Result<OpOutput, BlobError> {
    match reply {
        Ok(c) => c.result,
        Err(RecvTimeoutError::Timeout) => Err(BlobError::Timeout),
        Err(RecvTimeoutError::Disconnected) => Err(BlobError::Protocol(CLIENT_GONE)),
    }
}

impl OpTicket {
    /// Block until the op completes (or its deadline passes) and return
    /// the protocol result; if the client cell is gone first, the error is
    /// `BlobError::Protocol(CLIENT_GONE)`.
    pub fn wait(self) -> Result<OpOutput, BlobError> {
        outcome(self.exec.wait_reply(self.node, None, &self.rx, self.timeout))
    }

    /// Time since the op was injected into the client cell's mailbox.
    pub fn elapsed(&self) -> Duration {
        self.submitted.elapsed()
    }

    /// [`wait`](OpTicket::wait), also returning the elapsed time from
    /// submission to the wait returning (the closed-loop op latency).
    pub fn wait_timed(self) -> (Result<OpOutput, BlobError>, Duration) {
        let submitted = self.submitted;
        let out = self.wait();
        (out, submitted.elapsed())
    }
}

impl ClientHandle {
    /// This client's node address.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This client's principal id.
    pub fn client_id(&self) -> ClientId {
        self.client_id
    }

    /// The live telemetry registry of the cluster this client belongs to.
    pub fn telemetry(&self) -> &Arc<TelemetryRegistry> {
        self.exec.telemetry()
    }

    /// The cluster's span sink, when tracing is on.
    pub fn span_sink(&self) -> Option<&Arc<SpanSink>> {
        self.exec.span_sink()
    }

    /// The cluster's flight recorder, unless disabled at build time.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.exec.flight_recorder()
    }

    /// Wall-clock nanoseconds since the cluster started: the clock its
    /// spans are stamped with.
    pub fn now_ns(&self) -> u64 {
        self.exec.now_ns()
    }

    /// Run `op` to completion, blocking the calling thread.
    pub(crate) fn run(&self, op: ClientOp, trace: Option<TraceCtx>) -> Result<OpOutput, BlobError> {
        let (tx, rx) = bounded(1);
        let op = Envelope::Op { op, reply: tx, trace };
        outcome(self.exec.wait_reply(self.node, Some(op), &rx, self.op_timeout))
    }

    /// Inject `op` into the client cell's mailbox and return immediately;
    /// the returned [`OpTicket`] resolves when the protocol completes.
    ///
    /// This is the non-blocking submission path: a single driver thread
    /// can keep an op in flight on hundreds of client cells at once
    /// (load generators and the scaling sweeps do exactly that), instead
    /// of parking one OS thread per concurrent client. One handle may
    /// have any number of tickets outstanding; completions are matched by
    /// tag inside the cell, not by submission order.
    pub fn submit(&self, op: ClientOp, trace: Option<TraceCtx>) -> OpTicket {
        let (tx, rx) = bounded(1);
        self.exec.send_to(self.node, Envelope::Op { op, reply: tx, trace });
        OpTicket {
            rx,
            exec: Arc::clone(&self.exec),
            node: self.node,
            timeout: self.op_timeout,
            submitted: Instant::now(),
        }
    }

    /// [`append`](ClientHandle::append) without blocking: returns a
    /// ticket that resolves to `OpOutput::Written`.
    pub fn submit_append(&self, blob: BlobId, data: Bytes) -> OpTicket {
        self.submit(
            ClientOp::Write { blob, kind: WriteKind::Append, data: Payload::Data(data) },
            None,
        )
    }

    /// [`read`](ClientHandle::read) without blocking: returns a ticket
    /// that resolves to `OpOutput::Read`.
    pub fn submit_read(
        &self,
        blob: BlobId,
        version: Option<VersionId>,
        offset: u64,
        len: u64,
    ) -> OpTicket {
        self.submit(ClientOp::Read { blob, version, offset, len }, None)
    }

    /// Create a BLOB.
    pub fn create(&self, spec: BlobSpec) -> Result<BlobId, BlobError> {
        self.create_traced(spec, None)
    }

    /// [`create`](ClientHandle::create), nesting the op under `trace`.
    pub fn create_traced(
        &self,
        spec: BlobSpec,
        trace: Option<TraceCtx>,
    ) -> Result<BlobId, BlobError> {
        match self.run(ClientOp::Create { spec }, trace)? {
            OpOutput::Created(b) => Ok(b),
            _ => Err(BlobError::Protocol("wrong output for create")),
        }
    }

    /// Write real bytes at an offset (page-aligned, page-multiple length).
    pub fn write(&self, blob: BlobId, offset: u64, data: Bytes) -> Result<VersionId, BlobError> {
        match self.run(
            ClientOp::Write { blob, kind: WriteKind::At(offset), data: Payload::Data(data) },
            None,
        )? {
            OpOutput::Written { version, .. } => Ok(version),
            _ => Err(BlobError::Protocol("wrong output for write")),
        }
    }

    /// Append real bytes; returns `(version, offset_written_at)`.
    pub fn append(&self, blob: BlobId, data: Bytes) -> Result<(VersionId, u64), BlobError> {
        match self.run(
            ClientOp::Write { blob, kind: WriteKind::Append, data: Payload::Data(data) },
            None,
        )? {
            OpOutput::Written { version, offset, .. } => Ok((version, offset)),
            _ => Err(BlobError::Protocol("wrong output for append")),
        }
    }

    /// Read a byte range of a version (latest when `version` is `None`).
    pub fn read(
        &self,
        blob: BlobId,
        version: Option<VersionId>,
        offset: u64,
        len: u64,
    ) -> Result<Bytes, BlobError> {
        self.read_traced(blob, version, offset, len, None)
    }

    /// Pin a version (latest when `None`) as a snapshot: an O(1)
    /// metadata-only operation. The pinned version stays readable — and
    /// keeps its chunks and tree nodes alive — across lifecycle GC
    /// sweeps until the BLOB is decommissioned.
    pub fn snapshot(
        &self,
        blob: BlobId,
        version: Option<VersionId>,
    ) -> Result<VersionId, BlobError> {
        self.snapshot_traced(blob, version, None)
    }

    /// [`snapshot`](ClientHandle::snapshot), nesting the op under `trace`.
    pub fn snapshot_traced(
        &self,
        blob: BlobId,
        version: Option<VersionId>,
        trace: Option<TraceCtx>,
    ) -> Result<VersionId, BlobError> {
        match self.run(ClientOp::Snapshot { blob, version }, trace)? {
            OpOutput::Snapshotted { version, .. } => Ok(version),
            _ => Err(BlobError::Protocol("wrong output for snapshot")),
        }
    }

    /// Decommission a BLOB: unpin its snapshots and mark its whole
    /// version history reclaimable by the lifecycle sweeper. Returns
    /// whether the version manager accepted.
    pub fn decommission(&self, blob: BlobId) -> Result<bool, BlobError> {
        self.decommission_traced(blob, None)
    }

    /// [`decommission`](ClientHandle::decommission), nesting under `trace`.
    pub fn decommission_traced(
        &self,
        blob: BlobId,
        trace: Option<TraceCtx>,
    ) -> Result<bool, BlobError> {
        match self.run(ClientOp::Decommission { blob }, trace)? {
            OpOutput::Decommissioned { ok, .. } => Ok(ok),
            _ => Err(BlobError::Protocol("wrong output for decommission")),
        }
    }

    /// [`read`](ClientHandle::read), nesting the op under `trace`.
    pub fn read_traced(
        &self,
        blob: BlobId,
        version: Option<VersionId>,
        offset: u64,
        len: u64,
        trace: Option<TraceCtx>,
    ) -> Result<Bytes, BlobError> {
        match self.run(ClientOp::Read { blob, version, offset, len }, trace)? {
            OpOutput::Read { data: Payload::Data(b), .. } => Ok(b),
            OpOutput::Read { data: Payload::Sim(n), .. } => {
                // Holes-only read in a deployment without materialization.
                Ok(Bytes::from(vec![0u8; n as usize]))
            }
            _ => Err(BlobError::Protocol("wrong output for read")),
        }
    }
}

/// Builder for a threaded BlobSeer deployment.
pub struct ClusterBuilder {
    data_providers: usize,
    meta_providers: usize,
    provider_capacity: u64,
    client_cfg: ClientConfig,
    span_sink: Option<Arc<SpanSink>>,
    executor_shards: usize,
    backend: BackendSpec,
    flight_recorder: bool,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            data_providers: 4,
            meta_providers: 2,
            provider_capacity: 4 << 30,
            client_cfg: ClientConfig { materialize_zeros: true, ..ClientConfig::default() },
            span_sink: None,
            executor_shards: 0,
            backend: BackendSpec::Memory,
            flight_recorder: true,
        }
    }
}

impl ClusterBuilder {
    /// Start from defaults (4 data providers, 2 metadata providers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of data providers.
    pub fn data_providers(mut self, n: usize) -> Self {
        self.data_providers = n;
        self
    }

    /// Number of metadata providers.
    pub fn meta_providers(mut self, n: usize) -> Self {
        self.meta_providers = n;
        self
    }

    /// Per-provider storage capacity in bytes.
    pub fn provider_capacity(mut self, bytes: u64) -> Self {
        self.provider_capacity = bytes;
        self
    }

    /// Client tuning.
    pub fn client_config(mut self, cfg: ClientConfig) -> Self {
        self.client_cfg = cfg;
        self
    }

    /// Durable chunk backend for the data providers. Each provider gets
    /// its own subdirectory of the spec's root, and the cluster's
    /// [`Providers`] book remembers the assignment so
    /// [`Cluster::restart_data_provider`] re-opens the same directory — a
    /// restarted provider recovers its chunks instead of coming back empty.
    pub fn backend(mut self, spec: BackendSpec) -> Self {
        self.backend = spec;
        self
    }

    /// Number of executor shards (worker threads) the cluster's nodes are
    /// multiplexed onto. `0` (the default) means one per available core.
    /// Tests force small fixed counts to exercise stealing and isolation
    /// deterministically.
    pub fn executor_shards(mut self, n: usize) -> Self {
        self.executor_shards = n;
        self
    }

    /// Enable request tracing: every node records `Net` and `Handle`
    /// spans into `sink`, and clients open one trace per op. Without this
    /// call (the default) no span work happens at all.
    pub fn span_sink(mut self, sink: Arc<SpanSink>) -> Self {
        self.span_sink = Some(sink);
        self
    }

    /// Whether the always-on flight recorder is attached (default `true`).
    /// `false` exists for the recorder-overhead A/B gate in `exp_perf`
    /// and for embedders that want the last few bytes of scheduler
    /// overhead back.
    pub fn flight_recorder(mut self, on: bool) -> Self {
        self.flight_recorder = on;
        self
    }

    /// Spawn the executor workers and start the bare BlobSeer wiring: the
    /// provider manager (round-robin allocation), then through [`wire`] an
    /// unmonitored version manager and the metadata and data providers,
    /// then the process sampler, in that order.
    pub fn start(self) -> Cluster {
        let mut cluster = self.launch();
        let cfg = ServiceConfig::default();
        let pman = Box::new(ProviderManagerService::new(Box::<RoundRobin>::default()));
        let pman = cluster.add_service(pman);
        let providers = Providers::new(pman, self.provider_capacity, self.backend);
        let vman = Box::new(VersionManagerService::new(cfg.clone()));
        let (meta, data) = ((self.meta_providers, self.provider_capacity), self.data_providers);
        let blob = wire(&mut cluster, vman, meta, data, providers, || cfg.clone());
        cluster.bind(&blob, cfg, self.client_cfg);
        // Added last so manager/provider NodeIds stay where tests and
        // embedders learned to find them.
        cluster.add_proc_sampler();
        cluster
    }

    /// Spawn the executor workers and return a cluster running only the
    /// process sampler: the host `sads_core::install` deploys a whole
    /// system onto. The builder's node counts, capacity and backend are
    /// not used: the install's own book replaces the cluster's when it
    /// binds, so [`Cluster::add_data_provider`] and
    /// [`Cluster::restart_data_provider`] draw on the install's.
    pub fn host(self) -> Cluster {
        let mut cluster = self.launch();
        cluster.add_proc_sampler();
        cluster
    }

    /// The running executor, with no node yet.
    fn launch(&self) -> Cluster {
        let exec = Executor::start(
            self.executor_shards,
            Instant::now(),
            Arc::new(TelemetryRegistry::new()),
            self.span_sink.clone(),
            self.flight_recorder.then(|| Arc::new(FlightRecorder::new())),
        );
        Cluster {
            exec,
            pman: NodeId(0),
            vman: NodeId(0),
            meta: Vec::new(),
            data: Vec::new(),
            service_cfg: ServiceConfig::default(),
            client_cfg: self.client_cfg,
            providers: Providers::new(NodeId(0), self.provider_capacity, self.backend.clone()),
        }
    }
}

/// A running threaded BlobSeer deployment. Its registry, span sink,
/// flight recorder and clock belong to its executor, and every
/// [`ClientHandle`] it hands out reads the same ones.
pub struct Cluster {
    exec: Executor,
    /// Provider manager address.
    pub pman: NodeId,
    /// Version manager address.
    pub vman: NodeId,
    /// Metadata providers, in partition order.
    pub meta: Vec<NodeId>,
    /// Data providers.
    pub data: Vec<NodeId>,
    /// The wiring of the data providers the cluster adds or restarts.
    service_cfg: ServiceConfig,
    client_cfg: ClientConfig,
    /// The book those providers come from: the builder's, or an
    /// install's once it binds.
    providers: Providers,
}

impl Cluster {
    /// The span sink recording this cluster's traces, when tracing is on.
    pub fn span_sink(&self) -> Option<&Arc<SpanSink>> {
        self.exec.shared().span_sink()
    }

    /// The cluster's live telemetry registry — every node's counters,
    /// gauges and heartbeat health gauges, readable while the cluster
    /// runs.
    pub fn telemetry(&self) -> &Arc<TelemetryRegistry> {
        self.exec.shared().telemetry()
    }

    /// The always-on flight recorder, unless disabled at build time.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.exec.shared().flight_recorder()
    }

    /// How many executor shards (worker threads) this cluster runs on.
    pub fn executor_shards(&self) -> usize {
        self.exec.shard_count()
    }

    /// The wiring of the data providers the cluster adds or restarts.
    pub fn service_config(&self) -> ServiceConfig {
        self.service_cfg.clone()
    }

    /// Host an arbitrary service (monitoring, security, …) as a new
    /// executor cell; returns its address. The service's `on_start` has
    /// run by then, so what it sends from there (a provider's `Register`)
    /// is queued at its peer ahead of anything the caller sends next.
    pub fn add_service(&mut self, service: Box<dyn Service>) -> NodeId {
        self.exec.shared().add_node(NodeKind::Service(service))
    }

    fn add_proc_sampler(&mut self) {
        let every = self.service_cfg.heartbeat_every;
        self.add_service(Box::new(ProcSamplerService { sampler: ProcSampler::new(), every }));
    }

    /// Add a data provider of `capacity` bytes at runtime (elastic
    /// scale-up). It takes the next backend directory of the cluster's
    /// [`Providers`] book, which remembers it for restarts.
    pub fn add_data_provider(&mut self, capacity: u64) -> NodeId {
        let providers = Providers { capacity, ..self.providers.clone() };
        providers.start(self.service_cfg.clone(), |s| self.add_service(s))
    }

    /// Create a client; each client is one more multiplexed cell, so
    /// thousands are cheap.
    pub fn client(&mut self, client_id: ClientId) -> ClientHandle {
        let ccfg = self.client_cfg;
        self.client_with_config(client_id, ccfg)
    }

    /// Create a client with its own [`ClientConfig`], overriding the
    /// cluster default — used to compare protocol variants (e.g. the
    /// batched read path against the sequential one) side by side in
    /// the same deployment.
    pub fn client_with_config(&mut self, client_id: ClientId, ccfg: ClientConfig) -> ClientHandle {
        let kind =
            NodeKind::client(client_id, self.vman, self.pman, self.meta.clone(), ccfg);
        let id = self.exec.shared().add_node(kind);
        ClientHandle {
            node: id,
            client_id,
            exec: Arc::clone(self.exec.shared()),
            op_timeout: Duration::from_secs(60),
        }
    }

    /// Send a raw message into the cluster (enforcement, tests).
    pub fn send(&self, to: NodeId, msg: Msg) {
        let sent_ns = self.exec.shared().now_ns();
        self.exec.shared().send_to(
            to,
            Envelope::Msg { from: NodeId::EXTERNAL, msg, trace: None, sent_ns },
        );
    }

    /// Every node running now (killed and panicked ones excluded), in
    /// address order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.exec.shared().live_nodes()
    }

    /// Stop a single node (crash injection): it is unrouted, its queued
    /// mail dropped, and it never runs again.
    pub fn kill(&self, node: NodeId) {
        self.exec.shared().kill(node);
    }

    /// Restart a previously [`kill`](Cluster::kill)ed node with a fresh
    /// service at the **same** [`NodeId`]: the routing-table slot is
    /// re-occupied by a new cell, so peers keep addressing the node as
    /// before while its in-memory state starts from scratch. Returns
    /// `false` if the slot is still live (never killed) or the address was
    /// never allocated.
    pub fn restart_service(&mut self, node: NodeId, service: Box<dyn Service>) -> bool {
        self.exec.shared().reinstall(node, NodeKind::Service(service))
    }

    /// Restart a killed data provider at its old address with `capacity`
    /// bytes (crash-recovery convenience over
    /// [`restart_service`](Cluster::restart_service)). With the memory
    /// backend the store comes back empty; with a disk backend the
    /// provider re-opens the directory the book assigned it, recovers its
    /// chunks and re-announces them.
    pub fn restart_data_provider(&mut self, node: NodeId, capacity: u64) -> bool {
        let providers = Providers { capacity, ..self.providers.clone() };
        self.restart_service(node, providers.revive(node, self.service_cfg.clone()))
    }

    /// A reader over the counters and time series the cluster's nodes
    /// recorded so far.
    pub fn metrics(&self) -> Metrics {
        Metrics::new(Arc::clone(self.telemetry()))
    }

    /// Wall-clock time since cluster start, as the cluster's `SimTime`.
    pub fn now(&self) -> SimTime {
        SimTime(self.exec.shared().now_ns())
    }

    /// Shut the executor down and join its workers. Envelopes still
    /// queued in cell mailboxes are dropped; blocked client callers see
    /// their reply channels disconnect.
    pub fn shutdown(mut self) {
        self.exec.shutdown();
    }
}

impl Host for Cluster {
    fn start(&mut self, service: Box<dyn Service>, _nic: NodeConfig) -> NodeId {
        self.add_service(service)
    }

    fn registry(&self) -> Arc<TelemetryRegistry> {
        Arc::clone(self.telemetry())
    }

    /// Clients created from now on address `blob`'s managers with
    /// `client_cfg`, and the cluster adds and restarts data providers
    /// from `blob`'s book.
    fn bind(&mut self, blob: &BlobSeer, cfg: ServiceConfig, client_cfg: ClientConfig) {
        (self.pman, self.vman) = (blob.pman, blob.vman);
        (self.meta, self.data) = (blob.meta.clone(), blob.data.clone());
        (self.service_cfg, self.client_cfg) = (cfg, client_cfg);
        self.providers = blob.providers.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sads_sim::SpanKind;

    const PAGE: u64 = 64 * 1024;

    fn small_cluster() -> Cluster {
        ClusterBuilder::new()
            .data_providers(4)
            .meta_providers(2)
            .provider_capacity(256 << 20)
            .start()
    }

    fn patterned(len: usize, seed: u8) -> Bytes {
        Bytes::from((0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect::<Vec<u8>>())
    }

    #[test]
    fn threaded_write_read_roundtrip_real_bytes() {
        let mut cluster = small_cluster();
        let client = cluster.client(ClientId(1));
        let spec = BlobSpec { page_size: PAGE, replication: 2 };
        let blob = client.create(spec).expect("create");
        let data = patterned(3 * PAGE as usize, 7);
        let v = client.write(blob, 0, data.clone()).expect("write");
        assert_eq!(v, VersionId(1));
        let got = client.read(blob, None, 0, 3 * PAGE).expect("read");
        assert_eq!(got, data);
        // Sub-range read with an unaligned offset.
        let got = client.read(blob, None, 100, 1000).expect("read sub");
        assert_eq!(&got[..], &data[100..1100]);
        cluster.shutdown();
    }

    #[test]
    fn threaded_append_versions_and_snapshots() {
        let mut cluster = small_cluster();
        let client = cluster.client(ClientId(2));
        let blob = client
            .create(BlobSpec { page_size: PAGE, replication: 1 })
            .expect("create");
        let a = patterned(PAGE as usize, 1);
        let b = patterned(PAGE as usize, 2);
        let (v1, off1) = client.append(blob, a.clone()).expect("append a");
        let (v2, off2) = client.append(blob, b.clone()).expect("append b");
        assert_eq!((v1, off1), (VersionId(1), 0));
        assert_eq!((v2, off2), (VersionId(2), PAGE));
        // Latest sees both; v1 snapshot sees only the first page.
        let latest = client.read(blob, None, 0, 2 * PAGE).expect("read latest");
        assert_eq!(&latest[..PAGE as usize], &a[..]);
        assert_eq!(&latest[PAGE as usize..], &b[..]);
        let old = client.read(blob, Some(VersionId(1)), 0, 2 * PAGE).expect("read v1");
        assert_eq!(old.len() as u64, PAGE, "v1 is one page long; read clamps");
        assert_eq!(&old[..], &a[..]);
        cluster.shutdown();
    }

    #[test]
    fn threaded_holes_read_as_zeros() {
        let mut cluster = small_cluster();
        let client = cluster.client(ClientId(3));
        let blob = client
            .create(BlobSpec { page_size: PAGE, replication: 1 })
            .expect("create");
        let d = patterned(PAGE as usize, 3);
        // Write page 2 only; pages 0..2 are holes.
        client.write(blob, 2 * PAGE, d.clone()).expect("sparse write");
        let got = client.read(blob, None, 0, 3 * PAGE).expect("read");
        assert!(got[..2 * PAGE as usize].iter().all(|&b| b == 0), "holes are zeros");
        assert_eq!(&got[2 * PAGE as usize..], &d[..]);
        cluster.shutdown();
    }

    #[test]
    fn threaded_misaligned_write_fails_cleanly() {
        let mut cluster = small_cluster();
        let client = cluster.client(ClientId(4));
        let blob = client
            .create(BlobSpec { page_size: PAGE, replication: 1 })
            .expect("create");
        let err = client.write(blob, 13, patterned(PAGE as usize, 4)).unwrap_err();
        assert!(matches!(err, BlobError::Misaligned { .. }));
        let err = client.write(blob, 0, patterned(100, 4)).unwrap_err();
        assert!(matches!(err, BlobError::Misaligned { .. }));
        cluster.shutdown();
    }

    #[test]
    fn threaded_block_enforcement_rejects_client() {
        let mut cluster = small_cluster();
        let client = cluster.client(ClientId(66));
        let blob = client
            .create(BlobSpec { page_size: PAGE, replication: 1 })
            .expect("create");
        cluster.send(cluster.vman, Msg::BlockClient { client: ClientId(66) });
        // The block lands asynchronously; retry until it takes effect.
        let mut blocked = false;
        for _ in 0..50 {
            match client.write(blob, 0, patterned(PAGE as usize, 5)) {
                Err(BlobError::Blocked(_)) => {
                    blocked = true;
                    break;
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(blocked, "client must eventually be blocked");
        // Unblock restores service.
        cluster.send(cluster.vman, Msg::UnblockClient { client: ClientId(66) });
        let mut ok = false;
        for _ in 0..50 {
            if client.write(blob, 0, patterned(PAGE as usize, 6)).is_ok() {
                ok = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(ok, "client must be unblocked again");
        cluster.shutdown();
    }

    #[test]
    fn threaded_kill_then_restart_reuses_node_id() {
        let mut cluster = small_cluster();
        let victim = cluster.data[0];
        cluster.kill(victim);
        // The slot is free now; a second restart at the same id must fail.
        assert!(cluster.restart_data_provider(victim, 256 << 20));
        assert!(!cluster.restart_data_provider(victim, 256 << 20));
        // The revived provider serves traffic at its old address.
        let client = cluster.client(ClientId(9));
        let blob = client
            .create(BlobSpec { page_size: PAGE, replication: 2 })
            .expect("create");
        let data = patterned(2 * PAGE as usize, 11);
        client.write(blob, 0, data.clone()).expect("write after restart");
        let got = client.read(blob, None, 0, 2 * PAGE).expect("read after restart");
        assert_eq!(got, data);
        cluster.shutdown();
    }

    #[test]
    fn threaded_tracing_records_op_and_server_spans() {
        let sink = Arc::new(SpanSink::new());
        let mut cluster = ClusterBuilder::new()
            .data_providers(4)
            .meta_providers(2)
            .provider_capacity(256 << 20)
            .span_sink(Arc::clone(&sink))
            .start();
        let client = cluster.client(ClientId(5));
        let blob = client
            .create(BlobSpec { page_size: PAGE, replication: 2 })
            .expect("create");
        let data = patterned(2 * PAGE as usize, 9);
        client.write(blob, 0, data.clone()).expect("write");
        let got = client.read(blob, None, 0, 2 * PAGE).expect("read");
        assert_eq!(got, data);
        cluster.shutdown();

        let spans = sink.spans();
        // One root Op span per client op (create + write + read).
        let ops: Vec<_> =
            spans.iter().filter(|s| s.kind == SpanKind::Op && s.service == "client").collect();
        assert_eq!(ops.len(), 3, "create, write, read roots");
        // The write trace fans out: provider handles and vmanager handles
        // must appear in the same trace as the write root.
        let write_root = ops.iter().find(|s| s.op == "write").expect("write root");
        let in_write: Vec<_> =
            spans.iter().filter(|s| s.trace == write_root.trace).collect();
        assert!(
            in_write.iter().any(|s| s.kind == SpanKind::Handle && s.service == "provider"),
            "write trace covers provider handles"
        );
        assert!(
            in_write.iter().any(|s| s.kind == SpanKind::Handle && s.service == "vmanager"),
            "write trace covers vmanager handles"
        );
        assert!(
            in_write.iter().any(|s| s.kind == SpanKind::Net),
            "write trace records mailbox-queueing Net spans"
        );
        // Histograms aggregate per (service, op).
        assert!(sink
            .histograms()
            .iter()
            .any(|((svc, op), _)| *svc == "client" && *op == "write"));
    }

    #[test]
    fn threaded_concurrent_clients_roundtrip() {
        let mut cluster = ClusterBuilder::new()
            .data_providers(6)
            .meta_providers(2)
            .provider_capacity(512 << 20)
            .executor_shards(2)
            .start();
        assert_eq!(cluster.executor_shards(), 2);
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let client = cluster.client(ClientId(10 + i));
            handles.push(std::thread::spawn(move || {
                let blob = client
                    .create(BlobSpec { page_size: PAGE, replication: 1 })
                    .expect("create");
                let data = patterned(4 * PAGE as usize, i as u8);
                client.write(blob, 0, data.clone()).expect("write");
                let got = client.read(blob, None, 0, 4 * PAGE).expect("read");
                assert_eq!(got, data);
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        cluster.shutdown();
    }
}
