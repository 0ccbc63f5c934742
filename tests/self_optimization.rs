//! Self-optimization (paper §V): the data-removal strategies (the
//! lifecycle sweeper) must reclaim retired versions without breaking
//! surviving snapshots. E8's claims (`tests/paper.rs`) check the repair
//! of lost replicas and keep-last-2 over whole-region overwrites; this
//! checks a partial overwrite, whose old version stays partly shared.

use sads::blob::model::{BlobId, BlobSpec, ClientId};
use sads::blob::runtime::sim::{BlobRef, ScriptStep};
use sads::blob::WriteKind;
use sads::lifecycle::{LifecycleConfig, RetentionPolicy};
use sads::{Deployment, DeploymentConfig};
use sads_blob::services::{DataProviderService, VersionManagerService};
use sads_sim::{SimDuration, SimTime, World};

const MB: u64 = 1_000_000;

#[test]
fn removal_reclaims_old_versions_and_latest_stays_readable() {
    let cfg = DeploymentConfig {
        data_providers: 6,
        meta_providers: 2,
        lifecycle: Some(LifecycleConfig {
            policy: RetentionPolicy::KeepLastN(1),
            sweep_every: SimDuration::from_secs(10),
            ..LifecycleConfig::default()
        }),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(23), cfg);
    // Overwrite one BLOB (2 MB pages) at offset 0, 25 s apart. v2 rewrites
    // only the first half, so v1's second half stays shared with v2 until
    // v3 covers it. v1's record may retire only once all of its chunks are
    // dead — a planner that forgets it when v2 supersedes it can never plan
    // the shared half again and ends holding 24 chunks, 8 of them
    // unreachable.
    let mut script = vec![ScriptStep::Create(BlobSpec { page_size: 2 * MB, replication: 1 })];
    for bytes in [32 * MB, 16 * MB, 32 * MB, 32 * MB] {
        script.push(ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::At(0), bytes });
        script.push(ScriptStep::Pause(SimDuration::from_secs(25)));
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
    assert_eq!(d.world.metrics().counter("client.ops_ok"), 4 + 2, "create + writes + read");

    let vman = d.world.actor_as::<VersionManagerService>(d.nodes.vman).expect("vman");
    let catalog: Vec<u64> =
        vman.state().blob(BlobId(1)).expect("blob").versions().map(|v| v.version.0).collect();
    assert_eq!(catalog, vec![0, 4]);
    let total: usize = d
        .nodes
        .data
        .iter()
        .filter_map(|p| d.world.actor_as::<DataProviderService>(*p))
        .map(|p| p.store().len())
        .sum();
    assert_eq!(total, 16, "exactly the latest version's 16 pages");
}
