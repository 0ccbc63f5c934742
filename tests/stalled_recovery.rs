//! Stalled-write recovery: a writer that dies between taking its ticket
//! and committing must not wedge the BLOB forever. The recovery agent
//! publishes the dead version as a no-op, unblocking every writer queued
//! behind it, and later snapshots read consistently.

use sads::blob::model::{BlobId, BlobSpec, ClientId};
use sads::blob::runtime::sim::{BlobRef, ScriptStep};
use sads::blob::WriteKind;
use sads::{Deployment, DeploymentConfig};
use sads_sim::{SimDuration, SimTime, World};

const MB: u64 = 1_000_000;
const PAGE: u64 = 2 * MB;

#[test]
fn dead_writer_is_recovered_and_the_pipeline_unblocks() {
    let cfg = DeploymentConfig {
        data_providers: 8,
        meta_providers: 2,
        recovery: Some(SimDuration::from_secs(5)),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(99), cfg);
    let spec = BlobSpec { page_size: PAGE, replication: 1 };

    // A: creates the blob and publishes v1 = [0, 16 MB).
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::At(0), bytes: 16 * MB },
        ],
        "a",
    );
    // B: at t=10 starts a 512 MB write at offset 16 MB (v2, ~4.6 s of
    // transfer) — we will crash it mid-flight.
    let b_node = d.add_client(
        ClientId(2),
        vec![
            ScriptStep::WaitUntil(SimTime(10_000_000_000)),
            ScriptStep::Write {
                blob: BlobRef::Id(BlobId(1)),
                kind: WriteKind::At(16 * MB),
                bytes: 512 * MB,
            },
        ],
        "b",
    );
    // C: at t=20 writes v3 over [0, 16 MB). Its commit must queue behind
    // the doomed v2.
    d.add_client(
        ClientId(3),
        vec![
            ScriptStep::WaitUntil(SimTime(20_000_000_000)),
            ScriptStep::Write { blob: BlobRef::Id(BlobId(1)), kind: WriteKind::At(0), bytes: 16 * MB },
        ],
        "c",
    );

    // Run to t=12 (B holds its ticket, data still in flight), then kill B.
    d.world.run_until(SimTime(12_000_000_000), 10_000_000);
    d.crash(b_node);

    // At t=40, C has committed but cannot publish (v2 uncommitted).
    d.world.run_until(SimTime(40_000_000_000), 10_000_000);
    assert_eq!(d.world.metrics().counter("c.ops_ok"), 0, "C is stuck behind the dead v2");

    // The stall timeout (60 s) passes; the agent repairs v2; v3 publishes.
    d.world.run_until(SimTime(120_000_000_000), 20_000_000);
    assert_eq!(d.world.metrics().counter("recovery.published"), 1);
    assert_eq!(d.recovery_agent().expect("agent deployed").recovered(), 1);
    assert_eq!(d.world.metrics().counter("c.ops_ok"), 1, "C unblocked by the repair");
    assert_eq!(d.world.metrics().counter("c.ops_err"), 0);

    // A fresh reader sees the full overlay: C's v3 data over [0, 16 MB),
    // and B's never-written region reading as zeros (tombstones), across
    // the full 528 MB extent.
    d.add_client(
        ClientId(4),
        vec![ScriptStep::Read {
            blob: BlobRef::Id(BlobId(1)),
            version: None,
            offset: 0,
            len: 528 * MB,
        }],
        "reader",
    );
    d.world.run_for(SimDuration::from_secs(60), 20_000_000);
    assert_eq!(d.world.metrics().counter("reader.ops_ok"), 1, "post-recovery read succeeds");
    assert_eq!(d.world.metrics().counter("reader.ops_err"), 0);
}

#[test]
fn healthy_blobs_are_never_touched_by_the_agent() {
    let cfg = DeploymentConfig {
        data_providers: 6,
        meta_providers: 2,
        recovery: Some(SimDuration::from_secs(5)),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(98), cfg);
    let spec = BlobSpec { page_size: PAGE, replication: 1 };
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::At(0), bytes: 32 * MB },
            ScriptStep::Pause(SimDuration::from_secs(30)),
            ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::At(0), bytes: 32 * MB },
        ],
        "client",
    );
    d.world.run_for(SimDuration::from_secs(150), 10_000_000);
    assert_eq!(d.world.metrics().counter("client.ops_ok"), 3);
    assert_eq!(d.world.metrics().counter("recovery.started"), 0);
    assert_eq!(d.recovery_agent().unwrap().recovered(), 0);
}
