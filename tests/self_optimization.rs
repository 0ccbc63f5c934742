//! Self-optimization loops (paper §V): the replication manager must
//! restore the replication degree after a provider failure (with reads
//! staying available throughout), and the data-removal strategies (the
//! lifecycle sweeper) must reclaim retired versions without breaking
//! surviving snapshots.

use sads::blob::model::{BlobId, BlobSpec, ClientId};
use sads::blob::runtime::sim::{BlobRef, ScriptStep};
use sads::blob::WriteKind;
use sads::{Deployment, DeploymentConfig};
use sads::lifecycle::{LifecycleConfig, RetentionPolicy};
use sads_adaptive::ReplicationConfig;
use sads_blob::services::{DataProviderService, VersionManagerService};
use sads_sim::{NodeId, SimDuration, SimTime, World};

const MB: u64 = 1_000_000;

fn chunks_held(world: &World, provider: NodeId) -> usize {
    world
        .actor_as::<DataProviderService>(provider)
        .map(|p| p.store().len())
        .unwrap_or(0)
}

#[test]
fn provider_failure_is_repaired_and_reads_survive() {
    let cfg = DeploymentConfig {
        data_providers: 8,
        meta_providers: 2,
        replication: Some(ReplicationConfig {
            base_degree: 2,
            hot_extra: 0,
            sweep_every: SimDuration::from_secs(2),
            ..ReplicationConfig::default()
        }),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(21), cfg);

    // Writer: 64 MB over 32 pages, replication 2 → 64 replicas total.
    let spec = BlobSpec { page_size: 2 * MB, replication: 2 };
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write {
                blob: BlobRef::Created(0),
                kind: WriteKind::Append,
                bytes: 64 * MB,
            },
        ],
        "writer",
    );
    // Write completes well before t=20; give the manager time to learn
    // the placement from the monitoring stream.
    d.world.run_for(SimDuration::from_secs(20), 10_000_000);
    assert_eq!(d.world.metrics().counter("writer.ops_ok"), 2);
    let total_before: usize = d.nodes.data.iter().map(|p| chunks_held(&d.world, *p)).sum();
    assert_eq!(total_before, 64, "32 chunks × 2 replicas stored");

    // Kill one provider.
    let victim = d.nodes.data[3];
    let lost = chunks_held(&d.world, victim);
    assert!(lost > 0, "victim held replicas");
    d.crash(victim);

    // Let the repair loop run.
    d.world.run_for(SimDuration::from_secs(30), 10_000_000);
    let mgr = d.replication().expect("manager deployed");
    assert_eq!(mgr.repairs_done() as usize, lost, "every lost replica was re-created");
    // Every chunk is back at degree 2 on live providers.
    for (key, holders) in mgr.placement() {
        assert_eq!(holders.len(), 2, "chunk {key:?} at full degree: {holders:?}");
        for h in holders {
            assert!(d.world.is_up(*h), "replica on a live provider");
        }
    }
    let total_after: usize =
        d.nodes.data.iter().filter(|p| d.world.is_up(**p)).map(|p| chunks_held(&d.world, *p)).sum();
    assert_eq!(total_after, 64, "replica population restored");

    // A fresh reader succeeds (leaf patches + replica failover): add a
    // reader and run it.
    d.add_client(
        ClientId(2),
        vec![ScriptStep::Read {
            blob: BlobRef::Id(BlobId(1)),
            version: None,
            offset: 0,
            len: 64 * MB,
        }],
        "reader",
    );
    d.world.run_for(SimDuration::from_secs(60), 10_000_000);
    assert_eq!(d.world.metrics().counter("reader.ops_ok"), 1, "read after repair succeeds");
    assert_eq!(d.world.metrics().counter("reader.ops_err"), 0);
}

/// Overwrite one BLOB (2 MB pages) at offset 0 with each `(bytes, pause)`
/// in turn under keep-last-`keep`, read the latest back at t = 150 s, and
/// return the finished deployment.
fn overwrite_under_keep_last(seed: u64, keep: usize, writes: &[(u64, u64)]) -> Deployment {
    let cfg = DeploymentConfig {
        data_providers: 6,
        meta_providers: 2,
        lifecycle: Some(LifecycleConfig {
            policy: RetentionPolicy::KeepLastN(keep),
            sweep_every: SimDuration::from_secs(10),
            ..LifecycleConfig::default()
        }),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(seed), cfg);
    let mut script = vec![ScriptStep::Create(BlobSpec { page_size: 2 * MB, replication: 1 })];
    for &(bytes, pause_s) in writes {
        script.push(ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::At(0), bytes });
        script.push(ScriptStep::Pause(SimDuration::from_secs(pause_s)));
    }
    // Read the latest version after GC has had time to run.
    script.push(ScriptStep::WaitUntil(SimTime::from_secs(150)));
    script.push(ScriptStep::Read {
        blob: BlobRef::Created(0),
        version: None,
        offset: 0,
        len: 32 * MB,
    });
    d.add_client(ClientId(1), script, "client");
    d.world.run_for(SimDuration::from_secs(180), 10_000_000);
    assert_eq!(d.world.metrics().counter("client.ops_err"), 0);
    assert_eq!(
        d.world.metrics().counter("client.ops_ok"),
        writes.len() as u64 + 2,
        "create + writes + read"
    );
    d
}

fn catalog(d: &Deployment) -> Vec<u64> {
    let vman = d.world.actor_as::<VersionManagerService>(d.nodes.vman).expect("vman");
    vman.state().blob(BlobId(1)).expect("blob").versions().map(|v| v.version.0).collect()
}

#[test]
fn removal_reclaims_old_versions_and_latest_stays_readable() {
    // Overwrite the same 32 MB region five times back to back → versions
    // 1..=5, of which keep-last-2 retires 1..=3.
    let d = overwrite_under_keep_last(22, 2, &[(32 * MB, 0); 5]);
    assert_eq!(catalog(&d), vec![0, 4, 5]);
    assert!(d.world.metrics().counter("lifecycle.versions_retired") >= 3);
    // Chunk population shrank to the survivors' working set: v5 holds the
    // live 16 pages; v4's 16 pages are also kept (it survives). Everything
    // from v1..v3 was reclaimed.
    let total: usize = d.nodes.data.iter().map(|p| chunks_held(&d.world, *p)).sum();
    assert_eq!(total, 32, "16 pages × 2 surviving versions");
    assert!(
        d.world.metrics().counter("lifecycle.chunks_reclaimed") >= 48,
        "v1..v3 chunks deleted"
    );

    // A partial overwrite between sweeps: v2 rewrites only the first half,
    // so v1's second half stays shared with v2 until v3 covers it. v1's
    // record may retire only once all of its chunks are dead — a planner
    // that forgets it when v2 supersedes it can never plan the shared half
    // again and ends holding 24 chunks, 8 of them unreachable.
    let d = overwrite_under_keep_last(
        23,
        1,
        &[(32 * MB, 25), (16 * MB, 25), (32 * MB, 25), (32 * MB, 25)],
    );
    assert_eq!(catalog(&d), vec![0, 4]);
    let total: usize = d.nodes.data.iter().map(|p| chunks_held(&d.world, *p)).sum();
    assert_eq!(total, 16, "exactly the latest version's 16 pages");
}
