//! Self-configuration loop (paper §V): the elasticity controller must
//! expand the data-provider pool when the introspected utilization is
//! high and contract it again when load subsides.

use sads::blob::model::{BlobSpec, ClientId};
use sads::{Deployment, DeploymentConfig};
use sads_adaptive::ElasticityPolicy;
use sads_bench::{e7, BenchArgs};
use sads_sim::{SimDuration, SimTime, World};
use sads_workloads::writer_script;

const MB: u64 = 1_000_000;

/// E7's burst (`sads_bench::e7`). Its claims (`tests/paper.rs`) check
/// that the pool doubles and ends at its floor; this checks that every
/// write succeeds and that the deploy agent actuates every decision.
#[test]
fn pool_expands_under_load_and_contracts_afterwards() {
    let d = e7::burst(&BenchArgs::default());
    assert_eq!(d.world.now(), SimTime::from_secs(300), "simulation livelocked");
    let m = d.world.metrics();

    // Every write eventually succeeded: 12 writers, a create and
    // ceil(6000 / 64) writes each.
    assert_eq!(m.counter("writer.ops_err"), 0);
    assert_eq!(m.counter("writer.ops_ok"), 12 + 12 * (6_000 / 64 + 1));

    // The controller expanded at least twice and retired at least once…
    let expanded = m.counter("elastic.expand");
    assert!(expanded >= 4, "expanded by {expanded} providers");
    let retired = m.counter("elastic.retire");
    assert!(retired >= 2, "retired {retired} providers");

    // …and the deploy agent actuated both directions.
    assert_eq!(m.counter("agent.spawned"), expanded, "every expansion decision was actuated");
    assert_eq!(m.counter("agent.retired"), retired);
    assert!(!d.elasticity().expect("controller deployed").decisions().is_empty());
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
