//! The self-* layers on real threads: real bytes, wall-clock monitoring
//! pipeline, one `install` for both runtimes. Each loop's spec comes from
//! one function that a simulated twin test installs on a `World` too.

use std::time::{Duration, Instant};

use bytes::Bytes;
use sads::blob::model::{BlobError, BlobId, BlobSpec, ChunkKey, ClientId, Payload, VersionId};
use sads::blob::rpc::Msg;
use sads::blob::runtime::sim::{BlobRef, ScriptStep};
use sads::blob::runtime::threaded::{Cluster, ClusterBuilder};
use sads::blob::services::DataProviderService;
use sads::blob::storage::{payload_crc, BackendSpec};
use sads::blob::WriteKind;
use sads::introspect::{statusz, BurnRateRule, RuleSource};
use sads::lifecycle::{LifecycleConfig, ScrubConfig};
use sads::{default_alert_rules, install, Deployment, DeploymentConfig, Nodes};
use sads_adaptive::{ElasticityPolicy, ReplicationConfig};
use sads_security::{PolicySet, SecurityConfig};
use sads_sim::{NodeId, SimDuration, SimTime, World};

const PAGE: u64 = 64 * 1024;
const MIB: u64 = 1 << 20;
const SPEC: BlobSpec = BlobSpec { page_size: PAGE, replication: 1 };

/// The security engine behind the fast threaded pipeline: instrumentation
/// flush 0.5 s → monitor flush 0.5 s → cache drain → engine scan 1 s.
fn protected() -> DeploymentConfig {
    let policies = PolicySet::parse(
        "policy unticketed {\n\
           when count(writes, window = 10s) >= 10\n\
            and count(tickets, window = 10s) == 0\n\
           then block for 60s severity high\n\
         }",
    )
    .unwrap();
    DeploymentConfig {
        data_providers: 4,
        meta_providers: 2,
        monitors: 1,
        storage_servers: 1,
        instr_flush: SimDuration::from_millis(500),
        mon_flush: SimDuration::from_millis(500),
        security: Some((
            policies,
            SecurityConfig { scan_every: SimDuration::from_secs(1), ..SecurityConfig::default() },
        )),
        ..DeploymentConfig::default()
    }
}

/// Three 8 MiB providers and a policy that adds two once mean utilization
/// passes 0.6: filling them to 75 % trips it, and it never shrinks.
fn elastic() -> DeploymentConfig {
    DeploymentConfig {
        data_providers: 3,
        meta_providers: 1,
        provider_capacity: 8 * MIB,
        monitors: 1,
        storage_servers: 1,
        instr_flush: SimDuration::from_millis(250),
        mon_flush: SimDuration::from_millis(250),
        elasticity: Some(ElasticityPolicy::with(0.6, 0.0, 3, 8, 2, SimDuration::from_secs(1))),
        ..DeploymentConfig::default()
    }
}

/// The security engine behind a read-rate burn rule with windows short
/// enough to fire within seconds of steady reads.
fn alerting() -> DeploymentConfig {
    DeploymentConfig {
        data_providers: 2,
        meta_providers: 1,
        monitors: 1,
        storage_servers: 1,
        security: Some((PolicySet::default(), SecurityConfig::default())),
        alerts: Some(vec![BurnRateRule {
            name: "read_rate_burn",
            metric: "provider.reads",
            source: RuleSource::CounterRate,
            threshold: 1.0,
            short_window: SimDuration::from_secs(2),
            long_window: SimDuration::from_secs(4),
            cooldown: SimDuration::from_secs(30),
        }]),
        ..DeploymentConfig::default()
    }
}

/// Stalled-write recovery polling every 0.5 s, so a ticket counts as
/// stalled after 6 s.
fn recovering() -> DeploymentConfig {
    DeploymentConfig {
        data_providers: 2,
        meta_providers: 1,
        monitors: 1,
        storage_servers: 1,
        recovery: Some(SimDuration::from_millis(500)),
        ..DeploymentConfig::default()
    }
}

/// Poll `cond` every 100 ms until it holds; fail once `deadline` passes.
fn wait_until(deadline: Instant, what: &str, mut cond: impl FnMut() -> bool) {
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// A counter summed over every node of the cluster's registry.
fn counter(cluster: &Cluster, name: &str) -> u64 {
    cluster.telemetry().snapshot().counter_total(name).unwrap_or(0)
}

/// A threaded host with `spec` installed, and the test's 30 s deadline.
fn start(spec: &DeploymentConfig) -> (Cluster, Nodes, Instant) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut cluster = ClusterBuilder::new().host();
    let nodes = install(spec, &mut cluster);
    (cluster, nodes, deadline)
}

#[test]
fn threaded_pipeline_detects_and_blocks_unticketed_writers() {
    let (mut cluster, _, _) = start(&protected());
    let attacker_id = ClientId(666);
    let honest_id = ClientId(7);

    // The honest client works normally throughout.
    let honest = cluster.client(honest_id);
    let blob = honest.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
    honest.write(blob, 0, Bytes::from(vec![1u8; PAGE as usize])).expect("baseline write");

    // The attacker injects raw chunk writes without ever taking a ticket
    // (wire-level abuse a real client library would never emit).
    let data = Payload::Data(Bytes::from(vec![0u8; 4096]));
    let crc = payload_crc(&data);
    for i in 0..30u64 {
        cluster.send(
            cluster.data[(i % cluster.data.len() as u64) as usize],
            Msg::PutChunkBatch {
                req: i,
                client: attacker_id,
                items: vec![(
                    ChunkKey { blob: BlobId(u64::MAX), version: VersionId(u64::MAX), page: i },
                    data.clone(),
                    crc,
                )],
            },
        );
    }

    // The pipeline should block the attacker within a few wall seconds.
    // Probe with reads: they never take tickets, so the probe itself
    // cannot disturb the unticketed-writes detector.
    let attacker = cluster.client(attacker_id);
    wait_until(Instant::now() + Duration::from_secs(10), "the engine blocked the attacker", || {
        matches!(attacker.read(blob, None, 0, PAGE), Err(BlobError::Blocked(_)))
    });

    // The honest client is unaffected.
    honest.write(blob, 0, Bytes::from(vec![3u8; PAGE as usize])).expect("honest still writes");
    let back = honest.read(blob, None, 0, PAGE).expect("honest still reads");
    assert!(back.iter().all(|b| *b == 3));

    // The monitoring pipeline stored real records.
    let metrics = cluster.telemetry();
    assert!(metrics.counter_total("monstore.records") > 0);
    assert!(metrics.counter_total("sec.detections") >= 1);
    cluster.shutdown();
}

#[test]
fn threaded_honest_traffic_is_never_sanctioned() {
    let (mut cluster, _, _) = start(&protected());
    let client = cluster.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
    // A burst of perfectly normal ticketed writes.
    for i in 0..20u64 {
        client
            .write(blob, 0, Bytes::from(vec![i as u8; PAGE as usize]))
            .expect("ticketed write");
    }
    // Give the pipeline time to observe everything.
    std::thread::sleep(Duration::from_secs(3));
    client.write(blob, 0, Bytes::from(vec![9u8; PAGE as usize])).expect("still allowed");
    let metrics = cluster.telemetry();
    assert_eq!(metrics.counter_total("sec.detections"), 0, "no false positives");
    cluster.shutdown();
}

/// Every layer at once: the cells an install starts are exactly the nodes
/// it lists — one version manager, no orphan beside it.
#[test]
fn install_starts_exactly_the_nodes_it_lists() {
    let spec = DeploymentConfig {
        monitors: 2,
        security: Some((PolicySet::default(), SecurityConfig::default())),
        replication: Some(ReplicationConfig::default()),
        lifecycle: Some(LifecycleConfig::default()),
        scrub: Some(ScrubConfig::default()),
        recovery: Some(SimDuration::from_secs(5)),
        alerts: Some(default_alert_rules()),
        ..elastic()
    };
    let mut cluster = ClusterBuilder::new().host();
    let sampler = cluster.nodes();
    let nodes = install(&spec, &mut cluster);
    let started: Vec<NodeId> =
        cluster.nodes().into_iter().filter(|n| !sampler.contains(n)).collect();
    assert_eq!(started, nodes.all());
    assert_eq!(started.len(), 2 + 1 + 3 + 2 + 1 + 9, "managers, providers, monitoring, self-*");
    cluster.shutdown();
}

/// 75 % of three providers' capacity, written once; then 2 MiB more.
const FILL: u64 = 18 * MIB;
const MORE: u64 = 2 * MIB;

fn elastic_script() -> Vec<ScriptStep> {
    let blob = BlobRef::Created(0);
    vec![
        ScriptStep::Create(SPEC),
        ScriptStep::Write { blob, kind: WriteKind::At(0), bytes: FILL },
        ScriptStep::WaitUntil(SimTime::from_secs(20)),
        ScriptStep::Write { blob, kind: WriteKind::Append, bytes: MORE },
    ]
}

/// Chunks held by each provider the deploy agent started.
fn spawned_chunks(d: &Deployment) -> Vec<(NodeId, usize)> {
    let agent = d.deploy_agent().expect("agent deployed");
    let held = |n: NodeId| d.world.actor_as::<DataProviderService>(n).map(|p| p.store().len());
    agent.spawned().iter().map(|n| (*n, held(*n).unwrap_or(0))).collect()
}

#[test]
fn elastic_spec_scales_out_in_the_simulator() {
    let mut d = Deployment::build(World::with_seed(31), elastic());
    d.add_client(ClientId(1), elastic_script(), "writer");
    d.world.run_until(SimTime::from_secs(30), 10_000_000);
    assert_eq!(d.world.metrics().counter("writer.ops_ok"), 3);
    assert!(d.world.metrics().counter("agent.spawned") >= 1, "the pool grew");
    assert!(spawned_chunks(&d).iter().any(|(_, c)| *c > 0), "a spawned provider stores a chunk");
}

#[test]
fn elastic_spec_scales_out_on_threads() {
    let (mut cluster, nodes, deadline) = start(&elastic());
    let client = cluster.client(ClientId(1));
    let blob = client.create(SPEC).expect("create");
    client.write(blob, 0, Bytes::from(vec![1u8; FILL as usize])).expect("fill");
    wait_until(deadline, "the pool grew", || counter(&cluster, "agent.spawned") >= 1);
    client.append(blob, Bytes::from(vec![2u8; MORE as usize])).expect("write after scale-out");
    // A spawned provider is a cell the install did not start; its next
    // heartbeat reports the chunks it stores.
    let spawned_chunks = || {
        let snap = cluster.telemetry().snapshot();
        let installed = nodes.all();
        let spawned = cluster.nodes().into_iter().filter(|n| !installed.contains(n));
        spawned
            .filter_map(|n| snap.gauge("provider.chunks", &[("node", n.0.to_string().as_str())]))
            .fold(0.0, f64::max)
    };
    wait_until(deadline, "a spawned provider stores a chunk", || spawned_chunks() > 0.0);
    cluster.shutdown();
}

/// The agent's providers take backend directories from the same counter
/// as the install's, so a restarted one recovers its chunks from disk.
#[test]
fn spawned_providers_keep_their_chunks_on_the_disk_backend() {
    let root = std::env::temp_dir().join(format!("sads-elastic-disk-{}", std::process::id()));
    let spec = DeploymentConfig { backend: BackendSpec::disk(&root), ..elastic() };
    let mut d = Deployment::build(World::with_seed(31), spec);
    d.add_client(ClientId(1), elastic_script(), "writer");
    d.world.run_until(SimTime::from_secs(30), 10_000_000);
    assert!(root.join("provider-0003").is_dir(), "the first spawned provider's directory");
    let (node, held) = spawned_chunks(&d).into_iter().max_by_key(|(_, c)| *c).expect("spawned");
    assert!(held > 0, "a spawned provider stores a chunk");
    d.crash(node);
    d.restart_data_provider(node);
    d.world.run_for(SimDuration::from_secs(2), 1_000_000);
    let back = spawned_chunks(&d).into_iter().find(|(n, _)| *n == node).map(|(_, c)| c);
    assert_eq!(back, Some(held), "the restart recovered the spawned provider's chunks");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn alerting_spec_triggers_a_scan_in_the_simulator() {
    let mut d = Deployment::build(World::with_seed(32), alerting());
    let blob = BlobRef::Created(0);
    let mut script = vec![
        ScriptStep::Create(SPEC),
        ScriptStep::Write { blob, kind: WriteKind::At(0), bytes: PAGE },
    ];
    for _ in 0..150 {
        script.push(ScriptStep::Read { blob, version: None, offset: 0, len: PAGE });
        script.push(ScriptStep::Pause(SimDuration::from_millis(100)));
    }
    d.add_client(ClientId(1), script, "reader");
    d.world.run_until(SimTime::from_secs(30), 10_000_000);
    assert!(d.world.metrics().counter("sec.alert_scans") >= 1, "the alert cut a scan short");
}

#[test]
fn alerting_spec_triggers_a_scan_on_threads() {
    let (mut cluster, _, deadline) = start(&alerting());
    let client = cluster.client(ClientId(1));
    let blob = client.create(SPEC).expect("create");
    client.write(blob, 0, Bytes::from(vec![5u8; PAGE as usize])).expect("write");
    wait_until(deadline, "the alert cut a scan short", || {
        client.read(blob, None, 0, PAGE).expect("read");
        counter(&cluster, "sec.alert_scans") >= 1
    });
    // The one firing counts once, under its rule, and dumped the recorder.
    let rec = cluster.flight_recorder().map(|r| &**r);
    let page = statusz(&cluster.telemetry().snapshot(), cluster.now(), rec);
    assert!(page.contains("fired_total=1\n") && !page.contains("fired ?"), "{page}");
    assert!(page.contains("slo-alert:read_rate_burn"), "{page}");
    cluster.shutdown();
}

#[test]
fn recovering_spec_unblocks_a_dead_writers_blob_in_the_simulator() {
    let mut d = Deployment::build(World::with_seed(33), recovering());
    let blob = BlobRef::Id(BlobId(1));
    let write = |at: u64, bytes: u64| ScriptStep::Write { blob, kind: WriteKind::At(at), bytes };
    d.add_client(ClientId(1), vec![ScriptStep::Create(SPEC), write(0, PAGE)], "a");
    // B's 64 MiB write takes its ticket at t = 1 s and is still moving
    // bytes when B dies at 1.2 s.
    let b = d.add_client(
        ClientId(2),
        vec![ScriptStep::WaitUntil(SimTime::from_secs(1)), write(PAGE, 64 * MIB)],
        "b",
    );
    let c = vec![ScriptStep::WaitUntil(SimTime::from_secs(2)), write(0, PAGE)];
    d.add_client(ClientId(3), c, "c");
    d.world.run_until(SimTime(1_200_000_000), 10_000_000);
    d.crash(b);
    d.world.run_until(SimTime::from_secs(30), 10_000_000);
    assert!(d.world.metrics().counter("recovery.published") >= 1, "the dead version published");
    assert_eq!(d.world.metrics().counter("c.ops_ok"), 1, "the later writer published");
}

#[test]
fn recovering_spec_unblocks_a_dead_writers_blob_on_threads() {
    let (mut cluster, _, deadline) = start(&recovering());
    let a = cluster.client(ClientId(1));
    let blob = a.create(SPEC).expect("create");
    a.write(blob, 0, Bytes::from(vec![1u8; PAGE as usize])).expect("v1");
    // B opens a stream (ticket v2 taken, placement allocated) and dies
    // before it feeds a byte.
    let b = cluster.client(ClientId(2));
    let stream = b.open_write_stream(blob, WriteKind::At(PAGE), PAGE, None).expect("open v2");
    assert_eq!(stream.version(), VersionId(2));
    cluster.kill(b.node());
    drop(stream);
    // C's write queues behind the dead v2 until the recovery agent publishes
    // v2 on B's behalf; the agent counts it in a turn of its own, maybe after C's.
    let c = cluster.client(ClientId(3));
    let v3 = c.write(blob, 0, Bytes::from(vec![3u8; PAGE as usize])).expect("v3 publishes");
    assert_eq!(v3, VersionId(3));
    wait_until(deadline, "v2 published", || counter(&cluster, "recovery.published") >= 1);
    let back = c.read(blob, None, 0, 2 * PAGE).expect("read latest");
    assert!(back[..PAGE as usize].iter().all(|b| *b == 3), "C's bytes");
    assert!(back[PAGE as usize..].iter().all(|b| *b == 0), "B's range reads as a hole");
    assert!(Instant::now() < deadline, "recovery took longer than the test's 30 s");
    cluster.shutdown();
}
