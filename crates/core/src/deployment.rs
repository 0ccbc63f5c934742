//! Full simulated deployment of the self-adaptive data management system:
//! BlobSeer actors + the three-layer introspection stack + the security
//! framework + the adaptive controllers, wired together on the
//! deterministic cluster simulator. Every paper-shaped experiment builds
//! one of these.

use sads_adaptive::{
    ElasticityControllerService, ElasticityPolicy, RecoveryAgentService, ReplicationConfig,
    ReplicationManagerService,
};
use sads_blob::client::ClientConfig;
use sads_blob::pmanager::{strategy_by_name, AllocationStrategy, RoundRobin};
use sads_blob::runtime::sim::{add_service, ScriptStep, ScriptedClient};
use sads_blob::services::{
    DataProviderService, MetaProviderService, ProviderManagerService, ServiceConfig,
    VersionManagerService,
};
use sads_blob::ClientId;
use sads_blob::{BackendConfig, BackendSpec};
use sads_introspect::{BurnRateRule, IntrospectionService, RuleSource, SloAlertService};
use sads_lifecycle::{LifecycleConfig, LifecycleGcService, ScrubConfig, ScrubberService};
use sads_monitor::{MonitoringService, StorageConfig, StorageServerService};
use sads_security::{PolicySet, SecurityConfig, SecurityEngineService};
use sads_blob::runtime::sim::SimService;
use sads_sim::{
    Actor, FaultPlan, HealthPolicy, NetConfig, NodeConfig, NodeHealth, NodeId, Registry,
    RunOutcome, SimDuration, SimTime, World,
};
use std::sync::Arc;

use crate::agent::DeployAgent;

/// What to deploy.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// RNG seed (full determinism).
    pub seed: u64,
    /// Network parameters (defaults: 1 Gb/s NICs, 100 µs LAN).
    pub net: NetConfig,
    /// Data providers at start.
    pub data_providers: usize,
    /// Metadata providers (static ring).
    pub meta_providers: usize,
    /// Per-provider storage capacity (bytes).
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
    /// Deploy the elasticity controller.
    pub elasticity: Option<ElasticityPolicy>,
    /// Deploy the replication manager.
    pub replication: Option<ReplicationConfig>,
    /// Deploy the lifecycle GC sweeper — the paper's data-removal
    /// strategies: retention-driven chunk/node reclamation over the
    /// version DAG; snapshots and the latest version are always GC roots.
    pub lifecycle: Option<LifecycleConfig>,
    /// Deploy the background integrity scrub. Corruption found is
    /// quarantined at the provider and, when the replication manager is
    /// deployed, routed to it for immediate repair.
    pub scrub: Option<ScrubConfig>,
    /// Deploy the stalled-write recovery agent (poll period).
    pub recovery: Option<SimDuration>,
    /// Default client tuning for `add_client`.
    pub client_cfg: ClientConfig,
    /// Enable causal request tracing: the deployment owns a
    /// [`sads_sim::SpanSink`] and every node records `Net`, `Handle`,
    /// `Stage` and `Op` spans into it. Off by default — with tracing off
    /// no sink exists and the event schedule is byte-identical to a
    /// build that predates the tracing layer.
    pub tracing: bool,
    /// Enable the live telemetry plane: the deployment owns a labeled
    /// metrics [`Registry`] every node writes into (counters, gauges,
    /// heartbeats). Registry cells are side-channel atomics — the event
    /// schedule is byte-identical with telemetry on or off.
    pub telemetry: bool,
    /// Deploy the SLO burn-rate alert engine with these rules (implies
    /// `telemetry`). Fired alerts are pushed to the elasticity
    /// controller, the replication manager and the security engine —
    /// whichever of them are deployed.
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
            seed: 42,
            net: NetConfig::default(),
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
            tracing: false,
            telemetry: false,
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
    vec![
        BurnRateRule {
            name: "queue_depth_burn",
            metric: "node.queue_depth_seconds",
            source: RuleSource::GaugeMax,
            threshold: 0.5,
            short_window: SimDuration::from_secs(6),
            long_window: SimDuration::from_secs(20),
            cooldown: SimDuration::from_secs(30),
        },
        BurnRateRule {
            name: "availability_burn",
            metric: "repl.deficit",
            source: RuleSource::GaugeMax,
            threshold: 0.5,
            short_window: SimDuration::from_secs(6),
            long_window: SimDuration::from_secs(20),
            cooldown: SimDuration::from_secs(30),
        },
        BurnRateRule {
            name: "read_rate_burn",
            metric: "provider.reads",
            source: RuleSource::CounterRate,
            threshold: 150.0,
            short_window: SimDuration::from_secs(6),
            long_window: SimDuration::from_secs(16),
            cooldown: SimDuration::from_secs(30),
        },
    ]
}

/// A running simulated deployment with every node's address.
pub struct Deployment {
    /// The simulation world. Run it with `run_for`/`run_until`.
    pub world: World,
    /// Version manager.
    pub vman: NodeId,
    /// Provider manager.
    pub pman: NodeId,
    /// Metadata providers (partition order).
    pub meta: Vec<NodeId>,
    /// Initial data providers.
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
    /// Config the deployment was built from.
    pub cfg: DeploymentConfig,
    next_monitor: usize,
    /// Which chunk backend each data provider was built with, so a
    /// restart at the same address re-opens the same on-disk store.
    provider_backends: std::collections::HashMap<NodeId, BackendConfig>,
    next_backend_ordinal: usize,
}

impl Deployment {
    /// Build and start every node.
    pub fn build(cfg: DeploymentConfig) -> Deployment {
        let mut world = World::new(cfg.seed, cfg.net);
        if cfg.tracing {
            world.set_span_sink(Arc::new(sads_sim::SpanSink::new()));
        }
        if cfg.telemetry || cfg.alerts.is_some() {
            world.set_telemetry(Arc::new(Registry::new()));
        }
        let strategy: Box<dyn AllocationStrategy> =
            strategy_by_name(cfg.strategy).unwrap_or_else(|| Box::<RoundRobin>::default());

        let pman = add_service(
            &mut world,
            Box::new(ProviderManagerService::new(strategy)),
            NodeConfig::unlimited(),
        );

        // Monitoring pipeline first so every instrumented node can point
        // at a monitoring service from birth.
        let storage: Vec<NodeId> = (0..cfg.storage_servers.max(1))
            .map(|_| {
                add_service(
                    &mut world,
                    Box::new(StorageServerService::new(cfg.storage_cfg)),
                    NodeConfig::default(),
                )
            })
            .collect();
        let monitors: Vec<NodeId> = (0..cfg.monitors)
            .map(|_| {
                add_service(
                    &mut world,
                    Box::new(MonitoringService::new(
                        storage.clone(),
                        sads_monitor::default_filters(),
                        cfg.mon_flush,
                    )),
                    NodeConfig::default(),
                )
            })
            .collect();

        let mut next_monitor = 0usize;
        let mut svc_cfg = |m: &Vec<NodeId>| {
            let monitor = if m.is_empty() {
                None
            } else {
                let t = m[next_monitor % m.len()];
                next_monitor += 1;
                Some(t)
            };
            ServiceConfig {
                monitor,
                heartbeat_every: SimDuration::from_secs(1),
                instr_flush_every: cfg.instr_flush,
                nic_bandwidth: 125_000_000,
                ..ServiceConfig::default()
            }
        };

        let vman = add_service(
            &mut world,
            Box::new(VersionManagerService::new(svc_cfg(&monitors))),
            NodeConfig::unlimited(),
        );
        let meta: Vec<NodeId> = (0..cfg.meta_providers)
            .map(|_| {
                add_service(
                    &mut world,
                    Box::new(MetaProviderService::new(pman, 1 << 34, svc_cfg(&monitors))),
                    NodeConfig::default(),
                )
            })
            .collect();
        let mut provider_backends = std::collections::HashMap::new();
        let mut next_backend_ordinal = 0usize;
        let data: Vec<NodeId> = (0..cfg.data_providers)
            .map(|_| {
                let backend = cfg.backend.for_provider(next_backend_ordinal);
                next_backend_ordinal += 1;
                let mut sc = svc_cfg(&monitors);
                sc.backend = backend.clone();
                let n = add_service(
                    &mut world,
                    Box::new(DataProviderService::new(pman, cfg.provider_capacity, sc)),
                    NodeConfig::default(),
                );
                provider_backends.insert(n, backend);
                n
            })
            .collect();
        let _ = &mut svc_cfg;

        let intro = (cfg.introspection && !monitors.is_empty()).then(|| {
            add_service(
                &mut world,
                Box::new(IntrospectionService::new(storage.clone(), SimDuration::from_secs(2))),
                NodeConfig::default(),
            )
        });

        let security = cfg.security.clone().map(|(set, sec_cfg)| {
            let mut block_targets = vec![vman];
            block_targets.extend(&data);
            add_service(
                &mut world,
                Box::new(SecurityEngineService::new(
                    storage.clone(),
                    block_targets,
                    data.clone(),
                    set,
                    sec_cfg,
                )),
                NodeConfig::default(),
            )
        });

        let (elastic, deploy_agent) = match (&cfg.elasticity, intro) {
            (Some(policy), Some(intro)) => {
                let monitor_for_new = monitors.first().copied();
                let agent = world.add_node(
                    Box::new(DeployAgent::new(
                        pman,
                        cfg.provider_capacity,
                        ServiceConfig {
                            monitor: monitor_for_new,
                            heartbeat_every: SimDuration::from_secs(1),
                            instr_flush_every: cfg.instr_flush,
                            nic_bandwidth: 125_000_000,
                            ..ServiceConfig::default()
                        },
                    )),
                    NodeConfig::unlimited(),
                );
                let controller = add_service(
                    &mut world,
                    Box::new(ElasticityControllerService::new(
                        intro,
                        agent,
                        policy.clone(),
                        SimDuration::from_secs(5),
                    )),
                    NodeConfig::default(),
                );
                (Some(controller), Some(agent))
            }
            _ => (None, None),
        };

        let repl = cfg.replication.map(|rc| {
            add_service(
                &mut world,
                Box::new(ReplicationManagerService::new(storage.clone(), pman, intro, rc)),
                NodeConfig::default(),
            )
        });

        let recovery = cfg.recovery.map(|poll| {
            add_service(
                &mut world,
                Box::new(RecoveryAgentService::new(vman, meta.clone(), poll)),
                NodeConfig::default(),
            )
        });

        let lifecycle = cfg.lifecycle.clone().map(|lc| {
            add_service(
                &mut world,
                Box::new(LifecycleGcService::new(vman, meta.clone(), lc)),
                NodeConfig::default(),
            )
        });

        let scrubber = cfg.scrub.clone().map(|sc| {
            add_service(
                &mut world,
                Box::new(ScrubberService::new(pman, repl, sc)),
                NodeConfig::default(),
            )
        });

        // The alert engine goes in last so every subscriber address is
        // known. Subscribers are the deployed self-* components.
        let alert_engine = cfg.alerts.clone().map(|rules| {
            let reg = Arc::clone(world.telemetry().expect("alerts imply telemetry"));
            let subscribers: Vec<NodeId> =
                [elastic, repl, security].into_iter().flatten().collect();
            add_service(
                &mut world,
                Box::new(SloAlertService::new(
                    reg,
                    rules,
                    subscribers,
                    SimDuration::from_secs(2),
                )),
                NodeConfig::default(),
            )
        });

        Deployment {
            world,
            vman,
            pman,
            meta,
            data,
            monitors,
            storage,
            intro,
            security,
            elastic,
            deploy_agent,
            repl,
            lifecycle,
            scrubber,
            recovery,
            alert_engine,
            cfg,
            next_monitor,
            provider_backends,
            next_backend_ordinal,
        }
    }

    /// Add a scripted client node; returns its address.
    pub fn add_client(
        &mut self,
        id: ClientId,
        script: Vec<ScriptStep>,
        prefix: impl Into<String>,
    ) -> NodeId {
        self.world.add_node(
            Box::new(ScriptedClient::new(
                id,
                self.vman,
                self.pman,
                self.meta.clone(),
                self.cfg.client_cfg,
                script,
                prefix,
            )),
            NodeConfig::default(),
        )
    }

    /// Add an extra data provider at runtime (manual scale-up; the
    /// elasticity controller does this itself through the deploy agent).
    pub fn add_data_provider(&mut self) -> NodeId {
        let backend = self.cfg.backend.for_provider(self.next_backend_ordinal);
        self.next_backend_ordinal += 1;
        let mut cfg = self.next_service_cfg();
        cfg.backend = backend.clone();
        let n = add_service(
            &mut self.world,
            Box::new(DataProviderService::new(self.pman, self.cfg.provider_capacity, cfg)),
            NodeConfig::default(),
        );
        self.provider_backends.insert(n, backend);
        self.data.push(n);
        n
    }

    /// Crash a node (provider failure injection for E8).
    pub fn crash(&mut self, node: NodeId) {
        self.world.crash(node);
    }

    /// Restart a crashed data provider at its **old address** — the sim
    /// analogue of respawning the provider process on the same endpoint.
    /// With the `Memory` backend the store comes back empty; with a
    /// `Disk` backend the new actor re-opens the provider's on-disk log
    /// and recovers its chunks. Registration with the provider manager
    /// happens through the service's normal start-up path.
    pub fn restart_data_provider(&mut self, node: NodeId) {
        let actor = self.fresh_data_provider_actor(node);
        self.world.restart(node, actor);
    }

    /// A factory building fresh data-provider actors for fault-injection
    /// revives. It captures only plain config (no borrow of `self`), so
    /// it can drive [`sads_sim::run_with_faults`] while `world` is
    /// mutably borrowed.
    pub fn data_provider_revive(&mut self) -> impl FnMut(NodeId) -> Box<dyn Actor> + 'static {
        let pman = self.pman;
        let capacity = self.cfg.provider_capacity;
        let base = self.next_service_cfg();
        let backends = self.provider_backends.clone();
        move |node| {
            let mut cfg = base.clone();
            if let Some(b) = backends.get(&node) {
                cfg.backend = b.clone();
            }
            Box::new(SimService::new(Box::new(DataProviderService::new(pman, capacity, cfg))))
                as Box<dyn Actor>
        }
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

    fn next_service_cfg(&mut self) -> ServiceConfig {
        let monitor = if self.monitors.is_empty() {
            None
        } else {
            let t = self.monitors[self.next_monitor % self.monitors.len()];
            self.next_monitor += 1;
            Some(t)
        };
        ServiceConfig {
            monitor,
            heartbeat_every: SimDuration::from_secs(1),
            instr_flush_every: self.cfg.instr_flush,
            nic_bandwidth: 125_000_000,
            ..ServiceConfig::default()
        }
    }

    fn fresh_data_provider_actor(&mut self, node: NodeId) -> Box<dyn Actor> {
        let mut cfg = self.next_service_cfg();
        if let Some(b) = self.provider_backends.get(&node) {
            cfg.backend = b.clone();
        }
        Box::new(SimService::new(Box::new(DataProviderService::new(
            self.pman,
            self.cfg.provider_capacity,
            cfg,
        ))))
    }

    /// The span sink recording this deployment's traces, when
    /// [`DeploymentConfig::tracing`] is on.
    pub fn span_sink(&self) -> Option<&std::sync::Arc<sads_sim::SpanSink>> {
        self.world.span_sink()
    }

    /// The live metrics registry, when [`DeploymentConfig::telemetry`]
    /// (or alerting) is on.
    pub fn telemetry(&self) -> Option<&Arc<Registry>> {
        self.world.telemetry()
    }

    /// Post-run access to the SLO alert engine (fired-alert history).
    pub fn alert_engine(&self) -> Option<&SloAlertService> {
        self.world.actor_as::<SloAlertService>(self.alert_engine?)
    }

    /// Per-node health derived from heartbeat gauge staleness at the
    /// world's current time. Empty when telemetry is off.
    pub fn health(&self, policy: HealthPolicy) -> Vec<NodeHealth> {
        let Some(reg) = self.world.telemetry() else { return Vec::new() };
        sads_sim::derive_health(&reg.snapshot(), self.world.now().as_secs_f64(), &policy)
    }

    /// Total instrumentation events seen by the monitoring services — the
    /// paper's "number of generated monitoring parameters" (E1).
    pub fn monitoring_events(&self) -> u64 {
        self.monitors
            .iter()
            .filter_map(|m| self.world.actor_as::<MonitoringService>(*m))
            .map(|m| m.events_seen())
            .sum()
    }

    /// Post-run access to a storage server's store (viz tool, E5).
    pub fn mon_store(&self, idx: usize) -> Option<&sads_monitor::MonStore> {
        self.world
            .actor_as::<StorageServerService>(*self.storage.get(idx)?)
            .map(|s| s.store())
    }

    /// Post-run access to the security engine (detections, trust).
    pub fn security_engine(&self) -> Option<&SecurityEngineService> {
        self.world.actor_as::<SecurityEngineService>(self.security?)
    }

    /// Post-run access to the introspection snapshot.
    pub fn introspection(&self) -> Option<&IntrospectionService> {
        self.world.actor_as::<IntrospectionService>(self.intro?)
    }

    /// Post-run access to the elasticity controller.
    pub fn elasticity(&self) -> Option<&ElasticityControllerService> {
        self.world.actor_as::<ElasticityControllerService>(self.elastic?)
    }

    /// Post-run access to the replication manager.
    pub fn replication(&self) -> Option<&ReplicationManagerService> {
        self.world.actor_as::<ReplicationManagerService>(self.repl?)
    }

    /// Post-run access to the recovery agent.
    pub fn recovery_agent(&self) -> Option<&RecoveryAgentService> {
        self.world.actor_as::<RecoveryAgentService>(self.recovery?)
    }

    /// Post-run access to the lifecycle GC sweeper (reclamation totals).
    pub fn lifecycle_gc(&self) -> Option<&LifecycleGcService> {
        self.world.actor_as::<LifecycleGcService>(self.lifecycle?)
    }

    /// Post-run access to the integrity scrubber (scan/corruption totals).
    pub fn scrubber(&self) -> Option<&ScrubberService> {
        self.world.actor_as::<ScrubberService>(self.scrubber?)
    }

    /// Live data providers according to the deploy agent + initial set
    /// (sim oracle: counts nodes that are still up).
    pub fn live_data_providers(&self) -> usize {
        let mut n = self.data.iter().filter(|d| self.world.is_up(**d)).count();
        if let Some(agent) = self.deploy_agent {
            if let Some(a) = self.world.actor_as::<DeployAgent>(agent) {
                n += a.spawned().iter().filter(|d| self.world.is_up(**d)).count();
            }
        }
        n
    }
}
