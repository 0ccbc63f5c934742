//! The self-adaptive data management system, deployed: BlobSeer actors +
//! the three-layer introspection stack + the security framework + the
//! adaptive controllers, wired together by one [`install`] onto either
//! host, the deterministic cluster simulator ([`World`]) or the threaded
//! runtime ([`Cluster`](sads_blob::runtime::threaded::Cluster)). Every
//! paper-shaped experiment builds a simulated [`Deployment`].

use std::sync::Arc;

use sads_adaptive::{
    ElasticityControllerService, ElasticityPolicy, RecoveryAgentService, ReplicationConfig,
    ReplicationManagerService,
};
use sads_blob::client::ClientConfig;
use sads_blob::pmanager::{strategy_by_name, RoundRobin};
use sads_blob::runtime::sim::{ScriptStep, ScriptedClient, SimService};
use sads_blob::runtime::{wire, Host, Providers};
use sads_blob::services::{ProviderManagerService, Service, ServiceConfig, VersionManagerService};
use sads_blob::BackendSpec;
use sads_blob::ClientId;
use sads_introspect::{BurnRateRule, IntrospectionService, RuleSource, SloAlertService};
use sads_lifecycle::{
    LifecycleConfig, LifecycleGcService, RetentionPolicy, ScrubConfig, ScrubberService,
};
use sads_monitor::{MonitoringService, StorageConfig, StorageServerService};
use sads_security::{PolicySet, SecurityConfig, SecurityEngineService};
use sads_sim::{
    Actor, FaultPlan, HealthPolicy, NodeConfig, NodeHealth, NodeId, Registry, RunOutcome,
    SimDuration, SimTime, World,
};

use crate::agent::DeployAgent;

/// What to deploy. The seed, network, tracing and metrics registry belong
/// to the host: see [`World::new`] and `ClusterBuilder`.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Data providers at start.
    pub data_providers: usize,
    /// Metadata providers (static ring).
    pub meta_providers: usize,
    /// Per-provider storage capacity (bytes), data and metadata alike.
    pub provider_capacity: u64,
    /// Allocation strategy name (see [`strategy_by_name`]).
    pub strategy: &'static str,
    /// Monitoring services (0 disables the whole introspection stack —
    /// the E1 baseline).
    pub monitors: usize,
    /// Monitoring storage servers.
    pub storage_servers: usize,
    /// Storage-server tuning (burst cache etc.).
    pub storage_cfg: StorageConfig,
    /// Instrumentation flush period.
    pub instr_flush: SimDuration,
    /// Monitoring-service filter flush period.
    pub mon_flush: SimDuration,
    /// Deploy the introspection service.
    pub introspection: bool,
    /// Deploy the security engine with these policies.
    pub security: Option<(PolicySet, SecurityConfig)>,
    /// Deploy the elasticity controller and the deploy agent that
    /// actuates it. Needs the introspection service (`introspection` and
    /// `monitors > 0`); [`install`] refuses the spec otherwise.
    pub elasticity: Option<ElasticityPolicy>,
    /// Deploy the replication manager.
    pub replication: Option<ReplicationConfig>,
    /// Deploy the lifecycle GC sweeper: retention-driven chunk/node
    /// reclamation over the version DAG; snapshots and the latest version
    /// are always GC roots.
    pub lifecycle: Option<LifecycleConfig>,
    /// Deploy the background integrity scrub. Corruption found is
    /// quarantined at the provider and, when the replication manager is
    /// deployed, routed to it for immediate repair.
    pub scrub: Option<ScrubConfig>,
    /// Deploy the stalled-write recovery agent, polling with this period.
    /// The version manager then counts a ticket as stalled after twelve
    /// periods (60 s at the 5 s the experiments use, its default).
    pub recovery: Option<SimDuration>,
    /// Client tuning for the deployment's clients.
    pub client_cfg: ClientConfig,
    /// Deploy the SLO burn-rate alert engine with these rules. It reads
    /// the host's metrics registry. Fired alerts are pushed to the
    /// elasticity controller, the replication manager and the security
    /// engine — whichever of them are deployed.
    pub alerts: Option<Vec<BurnRateRule>>,
    /// Chunk-backend family for data providers. `Memory` (the default)
    /// loses all chunks on a crash; `Disk` gives each provider a
    /// log-structured store under a per-provider directory, and a
    /// restart at the same address recovers its chunks from the log
    /// (see [`sads_blob::storage`]).
    pub backend: BackendSpec,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            data_providers: 16,
            meta_providers: 4,
            provider_capacity: 1 << 40,
            strategy: "round_robin",
            monitors: 2,
            storage_servers: 2,
            storage_cfg: StorageConfig::default(),
            instr_flush: SimDuration::from_secs(1),
            mon_flush: SimDuration::from_secs(1),
            introspection: true,
            security: None,
            elasticity: None,
            replication: None,
            lifecycle: None,
            scrub: None,
            recovery: None,
            client_cfg: ClientConfig::default(),
            alerts: None,
            backend: BackendSpec::Memory,
        }
    }
}

/// The stock SLO rule set: queue-depth burn drives elastic scale-out,
/// replica-deficit burn drives off-schedule replication sweeps, and an
/// aggregate read-rate burn pre-warns the security engine's DoS
/// detectors.
pub fn default_alert_rules() -> Vec<BurnRateRule> {
    let rule = |name, metric, source, threshold, long_s| BurnRateRule {
        name,
        metric,
        source,
        threshold,
        short_window: SimDuration::from_secs(6),
        long_window: SimDuration::from_secs(long_s),
        cooldown: SimDuration::from_secs(30),
    };
    vec![
        rule("queue_depth_burn", "node.queue_depth_seconds", RuleSource::GaugeMax, 0.5, 20),
        rule("availability_burn", "repl.deficit", RuleSource::GaugeMax, 0.5, 20),
        rule("read_rate_burn", "provider.reads", RuleSource::CounterRate, 150.0, 16),
    ]
}

/// Every node an [`install`] started, and what starting or restarting a
/// data provider needs afterwards.
pub struct Nodes {
    /// Provider manager.
    pub pman: NodeId,
    /// Version manager.
    pub vman: NodeId,
    /// Metadata providers (partition order).
    pub meta: Vec<NodeId>,
    /// Data providers started at install or through
    /// [`Nodes::add_data_provider`] (not the deploy agent's).
    pub data: Vec<NodeId>,
    /// Monitoring services (empty when monitoring is off).
    pub monitors: Vec<NodeId>,
    /// Monitoring storage servers.
    pub storage: Vec<NodeId>,
    /// Introspection service, if deployed.
    pub intro: Option<NodeId>,
    /// Security engine, if deployed.
    pub security: Option<NodeId>,
    /// Elasticity controller, if deployed.
    pub elastic: Option<NodeId>,
    /// Deployment agent (elasticity actuation), if deployed.
    pub deploy_agent: Option<NodeId>,
    /// Replication manager, if deployed.
    pub repl: Option<NodeId>,
    /// Lifecycle GC sweeper, if deployed.
    pub lifecycle: Option<NodeId>,
    /// Integrity scrubber, if deployed.
    pub scrubber: Option<NodeId>,
    /// Stalled-write recovery agent, if deployed.
    pub recovery: Option<NodeId>,
    /// SLO alert engine, if deployed.
    pub alert_engine: Option<NodeId>,
    /// Every service's wiring but its monitor.
    base: ServiceConfig,
    next_monitor: usize,
    providers: Providers,
}

impl Nodes {
    /// Every node the install started, in address order.
    pub fn all(&self) -> Vec<NodeId> {
        let mut all = vec![self.pman, self.vman];
        all.extend(self.meta.iter().chain(&self.data).chain(&self.monitors).chain(&self.storage));
        all.extend(
            [self.intro, self.security, self.elastic, self.deploy_agent, self.repl]
                .into_iter()
                .chain([self.lifecycle, self.scrubber, self.recovery, self.alert_engine])
                .flatten(),
        );
        all.sort();
        all
    }

    /// The wiring of the next service, reporting to the next monitor in
    /// rotation.
    fn service_cfg(&mut self) -> ServiceConfig {
        let monitor = (!self.monitors.is_empty()).then(|| {
            self.next_monitor += 1;
            self.monitors[(self.next_monitor - 1) % self.monitors.len()]
        });
        ServiceConfig { monitor, ..self.base.clone() }
    }

    /// Start one more data provider on `host` (manual scale-up; the
    /// elasticity controller does this itself through the deploy agent).
    pub fn add_data_provider(&mut self, host: &mut impl Host) -> NodeId {
        let cfg = self.service_cfg();
        let n = self.providers.start(cfg, |s| host.start(s, NodeConfig::default()));
        self.data.push(n);
        n
    }

    /// A fresh data provider for a crashed provider's address. With the
    /// `Memory` backend its store comes back empty; with a `Disk` backend
    /// it re-opens the provider's log and recovers its chunks.
    pub fn revive_data_provider(&mut self, node: NodeId) -> Box<dyn Service> {
        let cfg = self.service_cfg();
        self.providers.revive(node, cfg)
    }
}

/// Start every layer `spec` asks for on `host`, and point the host's
/// clients at it. Nodes start in one fixed order — provider manager,
/// monitoring pipeline, version manager, metadata and data providers,
/// then the self-* services — so a simulated install gives the same
/// addresses and random draws for a seed.
///
/// # Panics
///
/// If `spec.elasticity` is set without the introspection service the
/// controller polls (`introspection` false or `monitors` 0).
pub fn install(spec: &DeploymentConfig, host: &mut impl Host) -> Nodes {
    let intro_on = spec.introspection && spec.monitors > 0;
    assert!(
        spec.elasticity.is_none() || intro_on,
        "elasticity needs the introspection service: set `introspection` and `monitors` > 0"
    );
    let (nic, unlimited) = (NodeConfig::default(), NodeConfig::unlimited());
    let strategy = strategy_by_name(spec.strategy).unwrap_or_else(|| Box::<RoundRobin>::default());
    let pman = host.start(Box::new(ProviderManagerService::new(strategy)), unlimited);

    // Monitoring pipeline first so every instrumented node can point at a
    // monitoring service from birth.
    let storage: Vec<NodeId> = (0..spec.storage_servers.max(1))
        .map(|_| host.start(Box::new(StorageServerService::new(spec.storage_cfg)), nic))
        .collect();
    let monitors = (0..spec.monitors)
        .map(|_| {
            let filters = sads_monitor::default_filters();
            let mon = MonitoringService::new(storage.clone(), filters, spec.mon_flush);
            host.start(Box::new(mon), nic)
        })
        .collect();
    let mut n = Nodes {
        pman,
        vman: pman, // until the version manager starts, below
        meta: Vec::new(),
        data: Vec::new(),
        monitors,
        storage,
        intro: None,
        security: None,
        elastic: None,
        deploy_agent: None,
        repl: None,
        lifecycle: None,
        scrubber: None,
        recovery: None,
        alert_engine: None,
        base: ServiceConfig { instr_flush_every: spec.instr_flush, ..ServiceConfig::default() },
        next_monitor: 0,
        providers: Providers::new(pman, spec.provider_capacity, spec.backend.clone()),
    };

    let retention = spec.lifecycle.as_ref().map_or(RetentionPolicy::KeepAll, |lc| lc.policy);
    let mut vman = VersionManagerService::new(n.service_cfg()).with_retention(retention);
    if let Some(poll) = spec.recovery {
        vman = vman.with_stall_timeout(poll * 12);
    }
    let (meta, providers) = ((spec.meta_providers, spec.provider_capacity), n.providers.clone());
    let blob = wire(host, Box::new(vman), meta, spec.data_providers, providers, || n.service_cfg());
    // Providers the host or the deploy agent starts all report to the
    // first monitor. The host's clients always materialize real bytes.
    let cfg = ServiceConfig { monitor: n.monitors.first().copied(), ..n.base.clone() };
    host.bind(&blob, cfg.clone(), ClientConfig { materialize_zeros: true, ..spec.client_cfg });
    (n.vman, n.meta, n.data) = (blob.vman, blob.meta, blob.data);

    n.intro = intro_on.then(|| {
        let intro = IntrospectionService::new(n.storage.clone(), SimDuration::from_secs(2));
        host.start(Box::new(intro), nic)
    });
    n.security = spec.security.clone().map(|(set, cfg)| {
        let block_targets = [&[n.vman][..], &n.data].concat();
        let (storage, data) = (n.storage.clone(), n.data.clone());
        let engine = SecurityEngineService::new(storage, block_targets, data, set, cfg);
        host.start(Box::new(engine), nic)
    });
    if let (Some(policy), Some(intro)) = (&spec.elasticity, n.intro) {
        let agent = host.start(Box::new(DeployAgent::new(n.providers.clone(), cfg)), unlimited);
        let tick = SimDuration::from_secs(5);
        let controller = ElasticityControllerService::new(intro, agent, policy.clone(), tick);
        n.deploy_agent = Some(agent);
        n.elastic = Some(host.start(Box::new(controller), nic));
    }
    n.repl = spec.replication.map(|rc| {
        let repl = ReplicationManagerService::new(n.storage.clone(), pman, n.intro, rc);
        host.start(Box::new(repl), nic)
    });
    n.recovery = spec.recovery.map(|poll| {
        host.start(Box::new(RecoveryAgentService::new(n.vman, n.meta.clone(), poll)), nic)
    });
    n.lifecycle = spec.lifecycle.clone().map(|lc| {
        host.start(Box::new(LifecycleGcService::new(n.vman, n.meta.clone(), lc)), nic)
    });
    n.scrubber = spec
        .scrub
        .clone()
        .map(|sc| host.start(Box::new(ScrubberService::new(pman, n.repl, sc)), nic));

    // The alert engine goes in last so every subscriber address is known.
    // Subscribers are the deployed self-* components.
    n.alert_engine = spec.alerts.clone().map(|rules| {
        let subscribers = [n.elastic, n.repl, n.security].into_iter().flatten().collect();
        let every = SimDuration::from_secs(2);
        let engine = SloAlertService::new(host.registry(), rules, subscribers, every);
        host.start(Box::new(engine), nic)
    });
    n
}

/// A system installed on the simulator: the world it runs in and every
/// node's address.
pub struct Deployment {
    /// The simulation world. Run it with `run_for`/`run_until`.
    pub world: World,
    /// Every installed node.
    pub nodes: Nodes,
    /// Config the deployment was built from.
    pub cfg: DeploymentConfig,
}

impl Deployment {
    /// Install `cfg` on `world`, whose seed, network, span sink and
    /// metrics registry the deployment runs with.
    pub fn build(mut world: World, cfg: DeploymentConfig) -> Deployment {
        let nodes = install(&cfg, &mut world);
        Deployment { world, nodes, cfg }
    }

    /// Add a scripted client node; returns its address.
    pub fn add_client(
        &mut self,
        id: ClientId,
        script: Vec<ScriptStep>,
        prefix: impl Into<String>,
    ) -> NodeId {
        let (n, cfg) = (&self.nodes, self.cfg.client_cfg);
        let client = ScriptedClient::new(id, n.vman, n.pman, n.meta.clone(), cfg, script, prefix);
        self.world.add_node(Box::new(client), NodeConfig::default())
    }

    /// Add an extra data provider at runtime (see [`Nodes::add_data_provider`]).
    pub fn add_data_provider(&mut self) -> NodeId {
        self.nodes.add_data_provider(&mut self.world)
    }

    /// Crash a node (provider failure injection for E8).
    pub fn crash(&mut self, node: NodeId) {
        self.world.crash(node);
    }

    /// Restart a crashed data provider at its **old address** — the sim
    /// analogue of respawning the provider process on the same endpoint
    /// (see [`Nodes::revive_data_provider`]). Registration with the
    /// provider manager happens through the service's normal start-up.
    pub fn restart_data_provider(&mut self, node: NodeId) {
        let provider = self.nodes.revive_data_provider(node);
        self.world.restart(node, Box::new(SimService::new(provider)));
    }

    /// A factory building fresh data-provider actors for fault-injection
    /// revives. It borrows nothing from `self`, so it can drive
    /// [`sads_sim::run_with_faults`] while `world` is mutably borrowed.
    pub fn data_provider_revive(&mut self) -> impl FnMut(NodeId) -> Box<dyn Actor> + 'static {
        let cfg = self.nodes.service_cfg();
        let providers = self.nodes.providers.clone();
        move |node| Box::new(SimService::new(providers.revive(node, cfg.clone()))) as Box<dyn Actor>
    }

    /// Run the deployment under `plan`: crashes go through the sim's
    /// crash hook; each restart revives a fresh data provider at the old
    /// address (see [`Deployment::restart_data_provider`]).
    pub fn run_with_faults(
        &mut self,
        plan: &mut FaultPlan,
        deadline: SimTime,
        max_events: u64,
    ) -> RunOutcome {
        let mut revive = self.data_provider_revive();
        sads_sim::run_with_faults(&mut self.world, plan, deadline, max_events, &mut revive)
    }

    /// The span sink recording this deployment's traces, when the world
    /// has one.
    pub fn span_sink(&self) -> Option<&Arc<sads_sim::SpanSink>> {
        self.world.span_sink()
    }

    /// The world's live metrics registry.
    pub fn telemetry(&self) -> &Arc<Registry> {
        self.world.telemetry()
    }

    /// Post-run access to the SLO alert engine (fired-alert history).
    pub fn alert_engine(&self) -> Option<&SloAlertService> {
        self.world.actor_as::<SloAlertService>(self.nodes.alert_engine?)
    }

    /// Per-node health derived from heartbeat gauge staleness at the
    /// world's current time.
    pub fn health(&self, policy: HealthPolicy) -> Vec<NodeHealth> {
        let snap = self.world.telemetry().snapshot();
        sads_sim::derive_health(&snap, self.world.now().as_secs_f64(), &policy)
    }

    /// Total instrumentation events seen by the monitoring services — the
    /// paper's "number of generated monitoring parameters" (E1).
    pub fn monitoring_events(&self) -> u64 {
        self.nodes
            .monitors
            .iter()
            .filter_map(|m| self.world.actor_as::<MonitoringService>(*m))
            .map(|m| m.events_seen())
            .sum()
    }

    /// Post-run access to a storage server's store (viz tool, E5).
    pub fn mon_store(&self, idx: usize) -> Option<&sads_monitor::MonStore> {
        self.world
            .actor_as::<StorageServerService>(*self.nodes.storage.get(idx)?)
            .map(|s| s.store())
    }

    /// Post-run access to the security engine (detections, trust).
    pub fn security_engine(&self) -> Option<&SecurityEngineService> {
        self.world.actor_as::<SecurityEngineService>(self.nodes.security?)
    }

    /// Post-run access to the introspection snapshot.
    pub fn introspection(&self) -> Option<&IntrospectionService> {
        self.world.actor_as::<IntrospectionService>(self.nodes.intro?)
    }

    /// Post-run access to the elasticity controller.
    pub fn elasticity(&self) -> Option<&ElasticityControllerService> {
        self.world.actor_as::<ElasticityControllerService>(self.nodes.elastic?)
    }

    /// Post-run access to the deploy agent (providers it started).
    pub fn deploy_agent(&self) -> Option<&DeployAgent> {
        self.world.actor_as::<DeployAgent>(self.nodes.deploy_agent?)
    }

    /// Post-run access to the replication manager.
    pub fn replication(&self) -> Option<&ReplicationManagerService> {
        self.world.actor_as::<ReplicationManagerService>(self.nodes.repl?)
    }

    /// Post-run access to the recovery agent.
    pub fn recovery_agent(&self) -> Option<&RecoveryAgentService> {
        self.world.actor_as::<RecoveryAgentService>(self.nodes.recovery?)
    }

    /// Post-run access to the integrity scrubber (scan/corruption totals).
    pub fn scrubber(&self) -> Option<&ScrubberService> {
        self.world.actor_as::<ScrubberService>(self.nodes.scrubber?)
    }

    /// Live data providers: the initial and added ones plus the deploy
    /// agent's (sim oracle: counts nodes that are still up).
    pub fn live_data_providers(&self) -> usize {
        let spawned = self.deploy_agent().map_or(&[][..], |a| a.spawned());
        self.nodes.data.iter().chain(spawned).filter(|d| self.world.is_up(**d)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sads_blob::runtime::threaded::{Cluster, ClusterBuilder};

    /// Each live node's role, in address order: BlobSeer's from the
    /// cluster's own addresses, the rest from `others`, and the process
    /// sampler's.
    fn roles(cluster: &Cluster, others: &[(&'static str, &[NodeId])]) -> Vec<&'static str> {
        let managers = [cluster.pman, cluster.vman];
        let (meta, data) = (&cluster.meta[..], &cluster.data[..]);
        let blob = [("pmanager", &managers[..1]), ("vmanager", &managers[1..]), ("meta", meta)];
        let blob = [&blob[..], &[("data", data)], others].concat();
        let role = |n| blob.iter().find(|(_, at)| at.contains(n)).map_or("procsampler", |r| r.0);
        cluster.nodes().iter().map(role).collect()
    }

    /// `ClusterBuilder::start()` and an all-defaults install start
    /// BlobSeer's nodes at fixed addresses: tests, `exp_*` bins and the
    /// benchmark find the managers and providers where they always were.
    #[test]
    fn start_and_install_keep_their_node_order() {
        let cluster = ClusterBuilder::new().start();
        let bare = [&["pmanager", "vmanager"][..], &["meta"; 2], &["data"; 4], &["procsampler"]];
        assert_eq!(roles(&cluster, &[]), bare.concat());
        cluster.shutdown();

        let mut cluster = ClusterBuilder::new().host();
        let n = install(&DeploymentConfig::default(), &mut cluster);
        let intro = n.intro.as_slice();
        let others = [("storage", &n.storage[..]), ("monitor", &n.monitors), ("intro", intro)];
        let first = ["procsampler", "pmanager", "storage", "storage", "monitor", "monitor"];
        let want = [&first[..], &["vmanager"], &["meta"; 4], &["data"; 16], &["intro"]];
        assert_eq!(roles(&cluster, &others), want.concat());
        cluster.shutdown();
    }
}
