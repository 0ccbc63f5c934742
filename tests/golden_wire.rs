//! Golden wire transcript: one fixed-seed simulated deployment whose
//! event schedule is pinned *across commits*.
//!
//! Every other digest check in this repo compares two runs of the same
//! build (tracing on vs. off, recorder on vs. off). This one compares the
//! build against constants, so a refactor of the client state machines
//! that sends one message more, arms one timer less, draws one RNG value
//! differently or reorders two sends fails here — by design. Update the
//! constants only for an *intended* protocol change, and say so in the
//! commit.
//!
//! The scenario walks every arm of the write and read sessions:
//! multi-page writes under a small `chunk_window` (so the refill-on-ack
//! queue runs), appends, an offset write that leaves a hole, pinned-
//! version, unaligned and hole-crossing reads, and one data-provider
//! crash with [`RetryPolicy`] enabled — the writes that follow hit
//! deadline → backoff retry → re-allocation, the reads walk replicas, and
//! the reads of a replication-1 BLOB run out of replicas and refresh the
//! leaf.

use sads::blob::client::{ClientConfig, RetryPolicy};
use sads::blob::model::{BlobSpec, ClientId, VersionId};
use sads::blob::runtime::sim::{BlobRef, ScriptStep};
use sads::blob::WriteKind;
use sads::{Deployment, DeploymentConfig};
use sads_sim::{FaultPlan, SimDuration, SimTime, World};

const PAGE: u64 = 1_000_000;

/// `World::event_digest()` of the scenario since each client arms one
/// deadline timer for its earliest deadline (`0xfec8_4007_9526_0e53` and
/// 17 282 events with one per op and chunk RPC; the backoff resends moved
/// into its sweep without moving an event). `0xcf07_50e2_dcb8_d553` while
/// a lone chunk travelled as `PutChunk` / `GetChunk`.
const GOLDEN_DIGEST: u64 = 0x66de_3f51_7820_032c;
/// `World::events_processed()` of the same run.
const GOLDEN_EVENTS: u64 = 17_212;

fn write(blob: BlobRef, kind: WriteKind, pages: u64) -> ScriptStep {
    ScriptStep::Write { blob, kind, bytes: pages * PAGE }
}

fn read(blob: BlobRef, version: Option<u64>, offset: u64, len: u64) -> ScriptStep {
    ScriptStep::Read { blob, version: version.map(VersionId), offset, len }
}

fn run() -> Deployment {
    let cfg = DeploymentConfig {
        data_providers: 5,
        meta_providers: 2,
        client_cfg: ClientConfig {
            retry: RetryPolicy::standard(),
            chunk_window: 3,
            ..ClientConfig::default()
        },
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(1611), cfg);
    let crash_at = SimTime::from_secs(20);

    // Client 1, BLOB 1 (replication 2): the healthy-path shapes first,
    // then the same shapes with one provider down.
    let b = BlobRef::Created(0);
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(BlobSpec { page_size: PAGE, replication: 2 }),
            write(b, WriteKind::Append, 8),                // v1: pages 0..8
            write(b, WriteKind::Append, 3),                // v2: pages 8..11
            write(b, WriteKind::At(2 * PAGE), 2),          // v3: overwrite 2..4
            write(b, WriteKind::At(14 * PAGE), 2),         // v4: hole 11..14
            read(b, None, 0, 16 * PAGE),                   // whole, across the hole
            read(b, Some(1), PAGE + 17, 3 * PAGE),         // pinned, unaligned
            read(b, Some(2), 7 * PAGE, 100 * PAGE),        // clamped to v2's size
            read(b, None, 10 * PAGE + 5, 5 * PAGE),        // hole-crossing, unaligned
            read(b, None, 12 * PAGE, PAGE),                // all hole
            ScriptStep::WaitUntil(crash_at + SimDuration::from_secs(1)),
            write(b, WriteKind::Append, 6),                // v5: retry → re-alloc
            read(b, None, 0, 22 * PAGE),                   // replica walks
            read(b, Some(3), 0, 11 * PAGE),
            write(b, WriteKind::At(0), 4),                 // v6
            read(b, None, 0, 4 * PAGE),
        ],
        "c1",
    );
    // Client 2, BLOB 2 (replication 1): after the crash its reads exhaust
    // the only replica and fall through to the leaf refresh.
    let b = BlobRef::Created(0);
    d.add_client(
        ClientId(2),
        vec![
            ScriptStep::Create(BlobSpec { page_size: PAGE, replication: 1 }),
            write(b, WriteKind::Append, 10),
            read(b, None, 0, 10 * PAGE),
            ScriptStep::WaitUntil(crash_at + SimDuration::from_secs(2)),
            read(b, None, 0, 10 * PAGE),
            read(b, Some(1), 3 * PAGE, 2 * PAGE),
        ],
        "c2",
    );

    let victim = d.nodes.data[1];
    let mut plan = FaultPlan::builder().crash_at(victim, crash_at).build();
    d.run_with_faults(&mut plan, SimTime::from_secs(400), 20_000_000);
    d
}

#[test]
fn fixed_seed_event_schedule_matches_the_golden_constants() {
    let d = run();
    let m = d.world.metrics();
    // The scenario must keep exercising what it claims to exercise.
    assert_eq!(m.counter("fault.crashes"), 1);
    assert!(m.counter("client.rpc_retries") > 0, "same-target retry never fired");
    assert!(m.counter("client.reallocs") > 0, "re-allocation never fired");
    assert!(m.counter("client.replica_walks") > 0, "replica walk never fired");
    assert!(
        m.counter("c2.err.chunk_unavailable") > 0,
        "the replication-1 reads never ran out of replicas (leaf refresh)"
    );
    assert_eq!(m.counter("c1.ops_err"), 0, "replication 2 survives one crash");
    assert_eq!(m.counter("c1.ops_ok"), 15);
    assert_eq!(
        (d.world.event_digest(), d.world.events_processed()),
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "the wire transcript changed: digest {:#x}, events {}",
        d.world.event_digest(),
        d.world.events_processed(),
    );
}

#[test]
fn the_golden_run_replays_identically() {
    let (a, b) = (run(), run());
    assert_eq!(a.world.event_digest(), b.world.event_digest());
    assert_eq!(a.world.events_processed(), b.world.events_processed());
}
