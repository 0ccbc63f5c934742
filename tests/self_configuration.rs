//! Self-configuration loop (paper §V): the elasticity controller must
//! expand the data-provider pool when the introspected utilization is
//! high and contract it again when load subsides.

use sads::blob::model::{BlobSpec, ClientId};
use sads::{Deployment, DeploymentConfig};
use sads_adaptive::ElasticityPolicy;
use sads_sim::{RunOutcome, SimDuration, SimTime, World};
use sads_workloads::writer_script;

const MB: u64 = 1_000_000;

fn pool_series(d: &Deployment) -> Vec<(f64, f64)> {
    d.world
        .metrics()
        .series("elastic.pool")
        .iter()
        .map(|s| (s.at.as_secs_f64(), s.value))
        .collect()
}

#[test]
fn pool_expands_under_load_and_contracts_afterwards() {
    let cfg = DeploymentConfig {
        data_providers: 3,
        meta_providers: 2,
        monitors: 2,
        storage_servers: 2,
        elasticity: Some(ElasticityPolicy::with(0.6, 0.15, 2, 20, 2, SimDuration::from_secs(12))),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(11), cfg);

    // 12 writers demand ~12 × 110 MB/s; the initial 3 providers offer
    // 375 MB/s, so utilization pins at 1.0 until the pool grows.
    let spec = BlobSpec { page_size: 8 * MB, replication: 1 };
    for i in 0..12u64 {
        let script = writer_script(spec, 6_000 * MB, 64 * MB, SimTime(5_000_000_000));
        d.add_client(ClientId(10 + i), script, "writer");
    }

    let out = d.world.run_for(SimDuration::from_secs(300), 80_000_000);
    assert_ne!(out, RunOutcome::EventLimit);

    // Every write eventually succeeded.
    assert_eq!(d.world.metrics().counter("writer.ops_err"), 0);
    assert_eq!(
        d.world.metrics().counter("writer.ops_ok"),
        12 + 12 * (6_000 / 64 + 1), // creates + ceil(6000/64) writes each
    );

    // The controller expanded…
    let expanded = d.world.metrics().counter("elastic.expand");
    assert!(expanded >= 4, "expanded by {expanded} providers");
    let pool = pool_series(&d);
    let peak = pool.iter().map(|(_, v)| *v).fold(0.0, f64::max);
    assert!(peak >= 7.0, "pool peaked at {peak}");

    // …and contracted after the workload drained.
    let retired = d.world.metrics().counter("elastic.retire");
    assert!(retired >= 2, "retired {retired} providers");
    let final_pool = pool.last().map(|(_, v)| *v).unwrap_or(0.0);
    assert!(
        final_pool <= peak - 2.0,
        "pool contracted from {peak} to {final_pool}"
    );

    // The deploy agent actually actuated both directions.
    assert_eq!(
        d.world.metrics().counter("agent.spawned"),
        expanded,
        "every expansion decision was actuated"
    );
    assert_eq!(d.world.metrics().counter("agent.retired"), retired);

    // Decision log is consistent with the metrics.
    let controller = d.elasticity().expect("controller deployed");
    assert!(!controller.decisions().is_empty());
}

#[test]
fn quiet_system_stays_at_its_floor() {
    let cfg = DeploymentConfig {
        data_providers: 4,
        meta_providers: 2,
        elasticity: Some(ElasticityPolicy::with(0.7, 0.2, 4, 20, 2, SimDuration::from_secs(10))),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(12), cfg);
    // One light client; utilization stays under the low watermark, but
    // the pool is already at its floor.
    let spec = BlobSpec { page_size: 8 * MB, replication: 1 };
    d.add_client(
        ClientId(1),
        writer_script(spec, 128 * MB, 64 * MB, SimTime(5_000_000_000)),
        "writer",
    );
    d.world.run_for(SimDuration::from_secs(120), 10_000_000);
    assert_eq!(d.world.metrics().counter("elastic.expand"), 0);
    assert_eq!(d.world.metrics().counter("elastic.retire"), 0, "min_providers is a hard floor");
    assert_eq!(d.live_data_providers(), 4);
}

/// The controller polls the introspection service; a spec that asks for
/// elasticity without it is refused instead of deploying no controller.
#[test]
#[should_panic(expected = "elasticity needs the introspection service")]
fn elasticity_without_introspection_is_refused() {
    let cfg = DeploymentConfig {
        monitors: 0,
        elasticity: Some(ElasticityPolicy::default()),
        ..DeploymentConfig::default()
    };
    Deployment::build(World::with_seed(13), cfg);
}
