//! Telemetry-plane guarantees the rest of the repo relies on:
//!
//! * **Repeatability with alerting**: the SLO alert engine is an ordinary
//!   sim node, so same seed ⇒ same schedule, alerts included.
//! * **Coverage**: a live deployment's registry spans the whole system —
//!   providers, metadata, version manager, pool, per-node heartbeats.
//! * **Health**: a crashed provider's heartbeat gauge goes stale and the
//!   health model and status page flag it Down while its peers stay Ok.

use sads::blob::model::{BlobSpec, ClientId};
use sads::blob::runtime::sim::{BlobRef, ScriptStep};
use sads::blob::WriteKind;
use sads::introspect::statusz;
use sads::{default_alert_rules, Deployment, DeploymentConfig};
use sads_sim::{HealthPolicy, HealthState, NodeId, SimDuration, World, HEARTBEAT_GAUGE};

const MB: u64 = 1_000_000;

fn write_read_script() -> Vec<ScriptStep> {
    let spec = BlobSpec { page_size: 4 * MB, replication: 1 };
    vec![
        ScriptStep::Create(spec),
        ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::Append, bytes: 16 * MB },
        ScriptStep::Read { blob: BlobRef::Created(0), version: None, offset: 0, len: 8 * MB },
    ]
}

/// One small write/read workload; returns the finished deployment.
fn run() -> Deployment {
    let cfg = DeploymentConfig {
        data_providers: 4,
        meta_providers: 2,
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(42), cfg);
    d.add_client(ClientId(1), write_read_script(), "client");
    d.world.run_for(SimDuration::from_secs(60), 10_000_000);
    assert_eq!(d.world.metrics().counter("client.ops_err"), 0, "workload must succeed");
    d
}

#[test]
fn alerting_deployment_is_repeatable() {
    let build = || {
        let cfg = DeploymentConfig {
            data_providers: 4,
            meta_providers: 2,
            alerts: Some(default_alert_rules()),
            ..DeploymentConfig::default()
        };
        let mut d = Deployment::build(World::with_seed(7), cfg);
        d.add_client(ClientId(1), write_read_script(), "client");
        d.world.run_for(SimDuration::from_secs(60), 10_000_000);
        d
    };
    let a = build();
    let b = build();
    assert_eq!(a.world.event_digest(), b.world.event_digest(), "alerting runs are repeatable");
    let fired = |d: &Deployment| d.alert_engine().expect("engine deployed").history().to_vec();
    assert_eq!(fired(&a), fired(&b), "identical fired-alert history");
}

#[test]
fn registry_covers_a_live_deployment() {
    let d = run();
    let snap = d.telemetry().snapshot();

    // Broad coverage: many families, from several services.
    let families = snap.families();
    assert!(
        families.len() >= 10,
        "expected ≥10 metric families, got {}: {families:?}",
        families.len()
    );
    let mut services: Vec<&str> = families.iter().map(|f| f.split('.').next().unwrap()).collect();
    services.sort();
    services.dedup();
    assert!(services.len() >= 4, "expected ≥4 services, got {services:?}");

    // Spot checks across layers.
    assert!(snap.counter_total("provider.reads").unwrap_or(0) > 0, "providers served reads");
    assert!(snap.counter_total("vman.tickets").unwrap_or(0) > 0, "writes took tickets");
    assert!(snap.counter_total("vman.published").unwrap_or(0) > 0, "versions published");
    assert!(snap.gauge("pool.data_providers", &[]).unwrap_or(0.0) >= 4.0, "pool gauge live");
    // Every data provider heartbeats with its node label.
    for n in &d.nodes.data {
        let label = n.0.to_string();
        let hb = snap.gauge(HEARTBEAT_GAUGE, &[("node", label.as_str())]);
        assert!(hb.is_some(), "provider {n:?} heartbeats into the registry");
    }
}

#[test]
fn health_flags_a_crashed_provider() {
    let cfg = DeploymentConfig {
        data_providers: 4,
        meta_providers: 2,
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(42), cfg);
    d.add_client(ClientId(1), write_read_script(), "client");
    d.world.run_for(SimDuration::from_secs(30), 10_000_000);

    let victim = d.nodes.data[0];
    d.crash(victim);
    d.world.run_for(SimDuration::from_secs(30), 10_000_000);

    let health = d.health(HealthPolicy::for_interval(1.0));
    let state = |n: NodeId| health.iter().find(|h| h.node == n.0 as u64).map(|h| h.state);
    assert_eq!(state(victim), Some(HealthState::Down), "crashed provider goes Down");
    assert_eq!(state(d.nodes.data[1]), Some(HealthState::Ok), "surviving provider stays Ok");
    let rec = d.world.flight_recorder().map(|r| &**r);
    let page = statusz(&d.telemetry().snapshot(), d.world.now(), rec);
    assert!(page.contains(&format!("node {}: Down", victim.0)), "{page}");
    assert!(!page.contains(&format!("node {}:", d.nodes.data[1].0)), "{page}");
}
