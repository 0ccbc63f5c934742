//! Integration tests for the storage lifecycle layer (`sads-lifecycle`):
//!
//! * property tests driving random interleavings of writes, snapshot
//!   pins (of the latest and of any version number), retention-policy
//!   changes, decommissions and GC sweeps through the real version
//!   manager state, against the reference mark-and-sweep — the sweeper
//!   must never collect a chunk reachable from a GC root, not even when
//!   a sweep's deletes land after writes and pins made since its plan;
//! * a deterministic sim regression for the pin gap: a pin on a version
//!   whose overwritten pages were already collected is refused, and the
//!   latest stays readable;
//! * an end-to-end scrub test on the threaded runtime: a byte-flipped
//!   disk chunk is detected by the background scrub, quarantined at the
//!   provider, reported to the replication manager, and repaired back
//!   to full replication while reads keep returning correct bytes —
//!   and again over chunks shorter than their page (a 13-byte tail, an
//!   empty chunk): the repair copy keeps the stored length and later
//!   scrub passes find it clean;
//! * a deterministic sim regression: a repair relay carries the source's
//!   stored CRC, so a copy of a replica that rotted in memory fails the
//!   destination's first scrub instead of becoming a clean replica;
//! * true lengths reach the sweeper: after overwritten short-tail
//!   objects are swept, `lifecycle.reclaimed_bytes` is what
//!   `ChunkStore::used()` dropped by.

use proptest::prelude::*;

use sads::blob::meta::{NodeRange, NodeRef};
use sads::blob::model::{BlobId, BlobSpec, ChunkKey, ClientId, VersionId};
use sads::blob::vmanager::{BlobState, VersionManagerState, VersionSummary};
use sads::blob::WriteKind;
use sads::lifecycle::{mark_live_chunks, plan_blob, BlobPlan, CatalogView, RetentionPolicy};
use sads_sim::{SimDuration, SimTime};

use std::collections::BTreeSet;

const PAGE: u64 = 8;

// ---------------------------------------------------------------------
// Harness: the version manager's own state, driven the way its service
// drives it, and the sweeper's planner fed from it.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Publish a version writing `len` pages at `start`.
    Write { start: u64, len: u64 },
    /// Pin the latest published version (what the gateway snapshot
    /// endpoint does).
    Snapshot,
    /// Pin version `v`, through the version manager's rule.
    PinAt(u64),
    /// Switch the retention policy.
    SetPolicy(RetentionPolicy),
    /// Plan a sweep now; the next `Sweep` applies it, so the writes and
    /// pins in between race its deletes.
    Plan,
    /// Run one GC sweep: apply the plan in flight, or plan and apply.
    Sweep,
    /// Decommission the BLOB (everything becomes reclaimable).
    Decommission,
}

/// Decode `(selector, a, b)` triples into ops. Selectors 9 and 10 are
/// the policy-change and decommission variants, so the stable-policy
/// property draws selectors below 9.
fn decode(ops: &[(u8, u64, u64)]) -> Vec<Op> {
    ops.iter()
        .map(|&(sel, a, b)| match sel {
            0..=3 => Op::Write { start: a % 16, len: 1 + b % 5 },
            4 | 5 => Op::Sweep,
            6 => Op::Plan,
            7 => Op::Snapshot,
            8 => Op::PinAt(a % 16),
            9 => Op::SetPolicy(match a % 4 {
                0 => RetentionPolicy::KeepAll,
                1 => RetentionPolicy::KeepLastN((b % 4) as usize),
                2 => RetentionPolicy::KeepNewerThan(SimDuration::from_secs(b % 4)),
                _ => RetentionPolicy::KeepSnapshots,
            }),
            _ => Op::Decommission,
        })
        .collect()
}

struct Harness {
    vm: VersionManagerState,
    blob: BlobId,
    policy: RetentionPolicy,
    /// Version v publishes at v seconds; the clock reads the second of
    /// the next publication.
    next: u64,
    /// A plan made by `Plan`, not yet applied.
    in_flight: Option<BlobPlan>,
}

impl Harness {
    fn new(policy: RetentionPolicy) -> Self {
        let mut vm = VersionManagerState::new();
        let blob = vm.create_blob(BlobSpec { page_size: PAGE, replication: 1 }, SimTime::ZERO);
        Harness { vm, blob, policy, next: 1, in_flight: None }
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs(self.next)
    }

    fn st(&mut self) -> &mut BlobState {
        self.vm.blob_mut(self.blob).expect("the BLOB")
    }

    fn write(&mut self, start: u64, len: u64) {
        let (blob, now) = (self.blob, self.now());
        let kind = WriteKind::At(start * PAGE);
        // A decommissioned BLOB refuses the ticket.
        let Ok(t) = self.vm.ticket(blob, kind, len * PAGE, ClientId(1), now) else { return };
        let range = NodeRange::root_for(t.new_size / PAGE);
        let root = NodeRef::Node { version: t.version, range };
        self.vm.commit(blob, t.version, root, t.new_size, now).expect("commit");
        self.next += 1;
    }

    fn pin(&mut self, v: Option<u64>) {
        let (policy, now) = (self.policy, self.now());
        let st = self.st();
        let v = v.map_or(st.latest().version, VersionId);
        st.snapshot(v, policy, now);
    }

    /// What the version manager reports: the catalog and its roots.
    fn catalog(&self) -> (Vec<VersionSummary>, Vec<VersionId>) {
        let st = self.vm.blob(self.blob).expect("the BLOB");
        (st.catalog(), st.roots(self.policy, self.now()))
    }

    fn with_view<R>(&self, f: impl FnOnce(&CatalogView<'_>) -> R) -> R {
        let (versions, roots) = self.catalog();
        f(&CatalogView { blob: self.blob, page_size: PAGE, versions: &versions, roots: &roots })
    }

    /// Every chunk some root reads now.
    fn live(&self) -> BTreeSet<ChunkKey> {
        self.with_view(mark_live_chunks)
    }

    fn plan(&self) -> BlobPlan {
        self.with_view(plan_blob)
    }

    /// One sweep: apply the plan in flight (or a fresh one), checking it
    /// against the mark-and-sweep at the moment its deletes land. Every
    /// planned retire must be granted. Returns the chunks it deleted.
    fn sweep(&mut self) -> Vec<ChunkKey> {
        let plan = self.in_flight.take().unwrap_or_else(|| self.plan());
        let live = self.live();
        if let Some(c) = plan.chunks.iter().find(|c| live.contains(c)) {
            panic!(
                "sweep under {:?} collected live chunk {c:?}\ncatalog and roots: {:?}",
                self.policy,
                self.catalog()
            );
        }
        let (policy, now) = (self.policy, self.now());
        for r in &plan.retire {
            assert!(self.st().forget_version(*r, policy, now), "planned retire of {r:?} refused");
        }
        plan.chunks
    }

    fn run(&mut self, op: Op) -> Vec<ChunkKey> {
        match op {
            Op::Write { start, len } => self.write(start, len),
            Op::Snapshot => self.pin(None),
            Op::PinAt(v) => self.pin(Some(v)),
            // A policy comes with an install: a new one starts with no
            // sweep in flight.
            Op::SetPolicy(p) => (self.policy, self.in_flight) = (p, None),
            Op::Plan => {
                if self.in_flight.is_none() {
                    self.in_flight = Some(self.plan());
                }
            }
            Op::Sweep => return self.sweep(),
            Op::Decommission => self.st().decommission(),
        }
        vec![]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The headline safety property: across any interleaving of writes,
    /// pins, retention changes, decommissions and sweeps — a sweep's
    /// deletes landing after the ops since its plan — a sweep never
    /// deletes a chunk the reference mark-and-sweep reaches from some GC
    /// root at that instant.
    #[test]
    fn gc_never_collects_a_reachable_chunk(
        raw in prop::collection::vec((0u8..11, 0u64..64, 0u64..64), 1..40),
    ) {
        let mut h = Harness::new(RetentionPolicy::KeepLastN(1));
        for op in decode(&raw) {
            h.run(op);
        }
        // Drain to a fixpoint: repeated sweeps must terminate with
        // nothing reclaimable left (and stay safe the whole way down).
        for _ in 0..64 {
            if h.sweep().is_empty() && h.plan().is_empty() {
                break;
            }
        }
    }

    /// Under a fixed policy, collection is permanent-safe: a chunk
    /// deleted by any sweep is never reachable at ANY later instant —
    /// new versions, pins of any version number, and record retirement
    /// cannot resurrect it, because the version manager grants a pin
    /// only on a root.
    #[test]
    fn collected_chunks_stay_dead_under_a_stable_policy(
        raw in prop::collection::vec((0u8..9, 0u64..64, 0u64..64), 1..40),
        pol in 0u8..6,
    ) {
        let policy = match pol {
            0 => RetentionPolicy::KeepAll,
            1 => RetentionPolicy::KeepLastN(0),
            2 => RetentionPolicy::KeepLastN(1),
            3 => RetentionPolicy::KeepLastN(3),
            4 => RetentionPolicy::KeepNewerThan(SimDuration::from_secs(3)),
            _ => RetentionPolicy::KeepSnapshots,
        };
        let mut h = Harness::new(policy);
        let mut deleted: BTreeSet<ChunkKey> = BTreeSet::new();
        for op in decode(&raw) {
            deleted.extend(h.run(op));
            if let Some(c) = deleted.intersection(&h.live()).next() {
                panic!(
                    "{policy:?}: previously collected chunk {c:?} became reachable again \
                     after {op:?}\ncatalog and roots: {:?}",
                    h.catalog()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Simulated: a pin on a partially collected version.
// ---------------------------------------------------------------------

mod pin_gap_sim {
    use sads::blob::model::{BlobError, BlobId, BlobSpec, ClientId, VersionId};
    use sads::blob::rpc::Msg;
    use sads::blob::runtime::sim::{BlobRef, ScriptStep};
    use sads::blob::WriteKind;
    use sads::lifecycle::{LifecycleConfig, RetentionPolicy};
    use sads::{Deployment, DeploymentConfig};
    use sads_sim::{Actor, Ctx, Message, MessageExt, NodeConfig, NodeId, SimDuration, World};

    const PAGE: u64 = 64 * 1024;

    /// Sends one `SnapshotVersion` at start and counts the reply as
    /// `pin.granted` or `pin.refused`.
    struct Pinner(NodeId, Option<Msg>);

    impl Actor for Pinner {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let msg = self.1.take().expect("one pin");
            ctx.send(self.0, Box::new(msg));
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Message>) {
            match msg.downcast_ref::<Msg>() {
                Some(Msg::SnapshotVersionOk { .. }) => ctx.incr("pin.granted", 1),
                Some(Msg::SnapshotVersionErr { err: BlobError::UnknownVersion(..), .. }) => {
                    ctx.incr("pin.refused", 1)
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    /// Under `KeepLastN(1)`, v1 writes pages 0–3 and v2 overwrites pages
    /// 0–1. Sweeps collect v1's pages 0–1, and v1's record stays for the
    /// pages v2 still shares. A pin on v1 then must either keep v1
    /// readable or be refused; the version manager grants pins only on
    /// GC roots, so it is refused, and the latest reads.
    #[test]
    fn a_pin_on_a_partially_collected_version_is_refused() {
        let mut d = Deployment::build(World::with_seed(5), DeploymentConfig {
            data_providers: 2,
            meta_providers: 1,
            lifecycle: Some(LifecycleConfig {
                policy: RetentionPolicy::KeepLastN(1),
                sweep_every: SimDuration::from_secs(1),
                ..LifecycleConfig::default()
            }),
            ..DeploymentConfig::default()
        });
        let write = |pages| ScriptStep::Write {
            blob: BlobRef::Created(0),
            kind: WriteKind::At(0),
            bytes: pages * PAGE,
        };
        let spec = BlobSpec { page_size: PAGE, replication: 1 };
        d.add_client(ClientId(1), vec![ScriptStep::Create(spec), write(4), write(2)], "writer");
        d.world.run_for(SimDuration::from_secs(10), 10_000_000);
        let m = d.world.metrics();
        assert_eq!(m.counter("writer.ops_ok"), 3, "create + two writes");
        assert_eq!(m.counter("lifecycle.chunks_reclaimed"), 2, "v1's pages 0-1");
        assert_eq!(m.counter("lifecycle.versions_retired"), 0, "v1's record stays");

        let (blob, v1) = (BlobId(1), VersionId(1));
        let pin = Msg::SnapshotVersion { req: 1, client: ClientId(3), blob, version: Some(v1) };
        d.world.add_node(Box::new(Pinner(d.nodes.vman, Some(pin))), NodeConfig::default());
        d.world.run_for(SimDuration::from_secs(1), 10_000_000);
        let read = |version| {
            ScriptStep::Read { blob: BlobRef::Id(blob), version, offset: 0, len: 4 * PAGE }
        };
        d.add_client(ClientId(2), vec![read(Some(v1)), read(Some(v1))], "pinned");
        d.add_client(ClientId(4), vec![read(None)], "latest");
        d.world.run_for(SimDuration::from_secs(5), 10_000_000);

        let m = d.world.metrics();
        assert_eq!(m.counter("vman.snapshots"), 0, "refused, since v1 is no longer readable");
        assert_eq!(m.counter("pin.refused"), 1, "with UnknownVersion");
        assert_eq!(m.counter("latest.ops_ok"), 1, "the latest reads");
        // Both reads of v1 fail, the second from the client's version cache.
        let gone = |e| m.counter(&format!("pinned.err.{e}_unavailable"));
        assert_eq!((m.counter("client.version_hits"), gone("meta") + gone("chunk")), (1, 2));
    }
}

/// Four data and two metadata providers behind a half-second monitoring
/// pipeline, installed on real threads with the self-* layers of `layers`.
fn start_threaded(layers: sads::DeploymentConfig) -> sads::blob::runtime::threaded::Cluster {
    let mut cluster = sads::blob::runtime::threaded::ClusterBuilder::new().host();
    let spec = sads::DeploymentConfig {
        data_providers: 4,
        meta_providers: 2,
        monitors: 1,
        storage_servers: 1,
        instr_flush: SimDuration::from_millis(500),
        mon_flush: SimDuration::from_millis(500),
        ..layers
    };
    sads::install(&spec, &mut cluster);
    cluster
}

// ---------------------------------------------------------------------
// Threaded end-to-end: byte-flip → scrub → quarantine → repair.
// ---------------------------------------------------------------------

mod scrub_e2e {
    use bytes::Bytes;
    use sads::blob::model::{BlobSpec, ChunkKey, ClientId};
    use sads::blob::rpc::Msg;
    use sads::blob::runtime::threaded::Cluster;
    use sads::blob::storage::BackendSpec;
    use sads::lifecycle::ScrubConfig;
    use sads::DeploymentConfig;
    use sads_adaptive::ReplicationConfig;
    use sads_sim::SimDuration;

    const PAGE: u64 = 64 * 1024;
    const PAGES: u64 = 8;

    fn pattern(len: usize, seed: u8) -> Bytes {
        Bytes::from(
            (0..len).map(|i| (i as u8).wrapping_mul(17).wrapping_add(seed)).collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn byte_flipped_disk_chunk_is_quarantined_and_repaired() {
        let root = std::env::temp_dir().join(format!("sads-scrub-e2e-{}", std::process::id()));
        let mut cluster = super::start_threaded(DeploymentConfig {
            replication: Some(ReplicationConfig {
                base_degree: 2,
                sweep_every: SimDuration::from_millis(500),
                ..ReplicationConfig::default()
            }),
            scrub: Some(ScrubConfig {
                every: SimDuration::from_millis(100),
                batch: 64,
            }),
            backend: BackendSpec::disk(root.clone()),
            ..DeploymentConfig::default()
        });

        let client = cluster.client(ClientId(5));
        let blob = client
            .create(BlobSpec { page_size: PAGE, replication: 2 })
            .expect("create");
        let data = pattern((PAGES * PAGE) as usize, 3);
        let version = client.write(blob, 0, data.clone()).expect("write");

        // Wait until the replication manager has learned the placement
        // of every chunk from the monitoring write records — corruption
        // reported before that could not be repaired.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let snap = cluster.telemetry().snapshot();
            let tracked = snap.gauge_max("repl.tracked_chunks").unwrap_or(0.0);
            if tracked >= PAGES as f64 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "replication manager never learned the placement (tracked {tracked})"
            );
            std::thread::sleep(std::time::Duration::from_millis(100));
        }

        // Flip bytes in every replica ONE provider holds for this blob.
        // Replicas of a chunk never share a provider, so each damaged
        // chunk keeps one intact copy elsewhere.
        let victim = cluster.data[0];
        for page in 0..PAGES {
            cluster.send(victim, Msg::CorruptChunk {
                key: ChunkKey { blob, version, page },
            });
        }

        // The scrub walks the providers every 100 ms; wait until every
        // detection has been quarantined, reported and repaired.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let (quarantined, reports, repairs) = loop {
            let q = cluster.telemetry().counter_total("provider.quarantined_chunks");
            let c = cluster.telemetry().counter_total("repl.corrupt_reports");
            let r = cluster.telemetry().counter_total("repl.repairs");
            if q > 0 && c >= q && r >= c {
                break (q, c, r);
            }
            assert!(
                std::time::Instant::now() < deadline,
                "scrub/repair loop stalled: quarantined {q}, reported {c}, repaired {r}"
            );
            std::thread::sleep(std::time::Duration::from_millis(200));
        };
        assert!(quarantined >= 1, "victim held no replica of the test blob");
        assert_eq!(reports, quarantined, "every quarantine must reach the repl manager");
        assert!(repairs >= reports, "not every corruption was repaired");
        assert_eq!(cluster.telemetry().counter_total("repl.lost_chunks"), 0, "no chunk may be lost: one replica survived");

        // Reads return the original bytes: corrupt replicas were patched
        // out of the leaves and the repaired copies serve.
        let back = client.read(blob, None, 0, PAGES * PAGE).expect("read after repair");
        assert_eq!(back, data, "bytes diverged after scrub+repair");

        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Chunks shorter than their page — 13-byte tails and one page of
    /// nothing but declared zeros, stored empty — go through the same
    /// quarantine and repair: `ReplicateChunk` relays the stored payload,
    /// so the new replica is as long as the lost one, and the scrub finds
    /// nothing more to quarantine afterwards.
    #[test]
    fn short_chunks_are_repaired_at_their_length_and_scrub_clean_afterwards() {
        const TAIL: u64 = 13;
        let root = std::env::temp_dir().join(format!("sads-scrub-short-{}", std::process::id()));
        let mut cluster = super::start_threaded(DeploymentConfig {
            replication: Some(ReplicationConfig {
                base_degree: 2,
                sweep_every: SimDuration::from_millis(500),
                ..ReplicationConfig::default()
            }),
            scrub: Some(ScrubConfig { every: SimDuration::from_millis(100), batch: 64 }),
            backend: BackendSpec::disk(root.clone()),
            ..DeploymentConfig::default()
        });
        let client = cluster.client(ClientId(5));
        let blob = client.create(BlobSpec { page_size: PAGE, replication: 2 }).expect("create");
        // Every page but the last holds 13 bytes; the last holds none.
        let mut h = client
            .open_write_stream(blob, sads::blob::WriteKind::At(0), PAGES * PAGE, None)
            .expect("open");
        let mut image = Vec::new();
        for page in 0..PAGES - 1 {
            let tail = pattern(TAIL as usize, page as u8 + 1);
            image.extend_from_slice(&tail);
            image.resize(((page + 1) * PAGE) as usize, 0);
            h.feed(tail).expect("feed");
            h.feed_zeros(PAGE - TAIL).expect("zeros");
        }
        h.feed_zeros(PAGE).expect("zeros");
        image.resize((PAGES * PAGE) as usize, 0);
        let (version, _) = h.commit().expect("commit");
        let stored = 2 * (PAGES - 1) * TAIL;
        let used = |cluster: &Cluster| {
            cluster.telemetry().snapshot().gauge_total("provider.store_bytes")
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let snap = cluster.telemetry().snapshot();
            let tracked = snap.gauge_max("repl.tracked_chunks").unwrap_or(0.0);
            if tracked >= PAGES as f64 && used(&cluster) == Some(stored as f64) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "placement never learned (tracked {tracked}) or stored bytes {:?} != {stored}",
                used(&cluster)
            );
            std::thread::sleep(std::time::Duration::from_millis(100));
        }

        let victim = cluster.data[0];
        for page in 0..PAGES {
            cluster.send(victim, Msg::CorruptChunk { key: ChunkKey { blob, version, page } });
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let quarantined = loop {
            let q = cluster.telemetry().counter_total("provider.quarantined_chunks");
            let r = cluster.telemetry().counter_total("repl.repairs");
            if q > 0 && r >= q && used(&cluster) == Some(stored as f64) {
                break q;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "repair loop stalled: quarantined {q}, repaired {r}, stored {:?}",
                used(&cluster)
            );
            std::thread::sleep(std::time::Duration::from_millis(200));
        };
        // Each relayed copy was 13 bytes, or none for the empty chunk.
        let chunks = cluster.telemetry().counter_total("provider.repair_chunks");
        let bytes = cluster.telemetry().counter_total("provider.repair_bytes");
        assert!(chunks >= quarantined);
        assert!(
            bytes == chunks * TAIL || bytes == (chunks - 1) * TAIL,
            "{chunks} repair copies moved {bytes} B"
        );
        assert_eq!(cluster.telemetry().counter_total("repl.lost_chunks"), 0);

        // Ten more scrub passes over every provider: nothing new.
        let scrubbed = cluster.telemetry().counter_total("provider.scrubbed_chunks");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while cluster.telemetry().counter_total("provider.scrubbed_chunks") < scrubbed + 10 * 2 * PAGES {
            assert!(std::time::Instant::now() < deadline, "scrub stopped walking");
            std::thread::sleep(std::time::Duration::from_millis(200));
        }
        assert_eq!(
            cluster.telemetry().counter_total("provider.quarantined_chunks"),
            quarantined,
            "scrub flagged a repaired short chunk"
        );
        let back = client.read(blob, None, 0, PAGES * PAGE).expect("read after repair");
        assert_eq!(back, image, "bytes diverged after scrub+repair");

        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

// ---------------------------------------------------------------------
// Simulated: a repair relay must not launder a rotted source copy.
// ---------------------------------------------------------------------

mod relay_sim {
    use bytes::Bytes;
    use sads::blob::model::{BlobId, BlobSpec, ChunkKey, ClientId, Payload, VersionId};
    use sads::blob::rpc::Msg;
    use sads::blob::runtime::sim::{add_service, BlobRef, ScriptStep};
    use sads::blob::services::DataProviderService;
    use sads::blob::storage::payload_crc;
    use sads::blob::WriteKind;
    use sads::lifecycle::{ScrubConfig, ScrubberService};
    use sads::{Deployment, DeploymentConfig};
    use sads_adaptive::ReplicationConfig;
    use sads_sim::{Actor, Ctx, Message, NodeConfig, NodeId, SimDuration, World};

    fn holds(world: &World, provider: NodeId, key: &ChunkKey) -> bool {
        world
            .actor_as::<DataProviderService>(provider)
            .is_some_and(|p| p.store().peek(key).is_some())
    }

    /// Replication 2 over three providers: replica A rots in memory, then
    /// B's provider crashes. The repair copies A to C carrying A's stored
    /// CRC, so the first scrub of C quarantines the copy.
    #[test]
    fn a_repair_copy_of_a_rotted_replica_fails_the_destinations_scrub() {
        let mut d = Deployment::build(World::with_seed(3), DeploymentConfig {
            data_providers: 3,
            meta_providers: 1,
            replication: Some(ReplicationConfig {
                base_degree: 2,
                hot_extra: 0,
                sweep_every: SimDuration::from_secs(2),
                ..ReplicationConfig::default()
            }),
            ..DeploymentConfig::default()
        });
        let spec = BlobSpec { page_size: 1_000_000, replication: 2 };
        let write = ScriptStep::Write {
            blob: BlobRef::Created(0),
            kind: WriteKind::Append,
            bytes: spec.page_size,
        };
        d.add_client(ClientId(1), vec![ScriptStep::Create(spec), write], "writer");
        d.world.run_for(SimDuration::from_secs(20), 10_000_000);
        assert_eq!(d.world.metrics().counter("writer.ops_ok"), 2, "create + write");

        let key = d
            .nodes
            .data
            .iter()
            .find_map(|p| d.world.actor_as::<DataProviderService>(*p)?.store().all_keys().pop())
            .expect("the page is stored");
        let holders: Vec<NodeId> =
            d.nodes.data.iter().copied().filter(|p| holds(&d.world, *p, &key)).collect();
        let [a, b] = holders[..] else { panic!("two replicas: {holders:?}") };
        let c = *d.nodes.data.iter().find(|p| !holders.contains(p)).expect("a spare provider");

        d.world.send_external(a, Box::new(Msg::CorruptChunk { key }));
        d.crash(b);
        d.world.run_for(SimDuration::from_secs(30), 10_000_000);
        assert_eq!(d.replication().expect("manager").repairs_done(), 1);
        assert!(holds(&d.world, c, &key), "the repair copied A's replica to C");

        let scrub = ScrubConfig { every: SimDuration::from_millis(100), batch: 64 };
        let scrubber = ScrubberService::new(d.nodes.pman, None, scrub);
        add_service(&mut d.world, Box::new(scrubber), NodeConfig::default());
        d.world.run_for(SimDuration::from_secs(5), 10_000_000);
        assert!(!holds(&d.world, c, &key), "C's scrub quarantined the relayed copy");
        assert_eq!(d.world.metrics().counter("lifecycle.scrub_corrupt"), 2, "A's copy and C's");
    }

    /// Sends its puts at start and ignores the acks.
    struct LyingWriter(Vec<(NodeId, Msg)>);

    impl Actor for LyingWriter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (to, msg) in self.0.drain(..) {
                ctx.send(to, Box::new(msg));
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Box<dyn Message>) {}
    }

    /// A writer puts a page at replication 2 over four providers with a
    /// `crc` that does not match its bytes; both providers store it as
    /// sent. With the scrubber reporting to the replication manager, each
    /// original replica's report gets one repair, the first repair copy
    /// that fails its scrub ends repair, the chunk is counted lost once,
    /// and every copy ends quarantined.
    #[test]
    fn a_writers_wrong_crc_is_repaired_a_bounded_number_of_times_then_counted_lost() {
        let mut d = Deployment::build(World::with_seed(3), DeploymentConfig {
            data_providers: 4,
            meta_providers: 1,
            replication: Some(ReplicationConfig {
                base_degree: 2,
                hot_extra: 0,
                sweep_every: SimDuration::from_secs(2),
                ..ReplicationConfig::default()
            }),
            ..DeploymentConfig::default()
        });
        let key = ChunkKey { blob: BlobId(1), version: VersionId(1), page: 0 };
        let data = Payload::Data(Bytes::from(vec![0x5a; 4096]));
        let crc = payload_crc(&data) ^ 1;
        let (a, b) = (d.nodes.data[0], d.nodes.data[1]);
        let puts = [(1, a), (2, b)].map(|(req, to)| {
            let items = vec![(key, data.clone(), crc)];
            (to, Msg::PutChunkBatch { req, client: ClientId(1), items })
        });
        d.world.add_node(Box::new(LyingWriter(puts.into())), NodeConfig::default());
        d.world.run_for(SimDuration::from_secs(10), 10_000_000);
        let tracked = d.replication().expect("manager").placement().get(&key).cloned();
        assert_eq!(tracked, Some(vec![a, b]), "the manager learned both replicas");

        let scrub = ScrubConfig { every: SimDuration::from_millis(100), batch: 64 };
        let scrubber = ScrubberService::new(d.nodes.pman, d.nodes.repl, scrub);
        add_service(&mut d.world, Box::new(scrubber), NodeConfig::default());
        d.world.run_for(SimDuration::from_secs(60), 10_000_000);

        let m = d.world.metrics();
        let repairs = d.replication().expect("manager").repairs_done();
        assert_eq!(repairs, 2, "one repair per original replica, none of a repair copy");
        assert_eq!(m.counter("repl.lost_chunks"), 1, "the chunk is counted lost, once");
        assert_eq!(m.counter("lifecycle.scrub_corrupt"), 2 + repairs, "every copy quarantined");
        assert!(d.nodes.data.iter().all(|p| !holds(&d.world, *p, &key)), "no copy left to serve");
    }
}

mod true_lengths_e2e {
    use bytes::Bytes;
    use sads::blob::model::ClientId;
    use sads::gateway::{Acl, GatewayConfig, ObjectGateway};
    use sads::blob::runtime::threaded::Cluster;
    use sads::lifecycle::{LifecycleConfig, RetentionPolicy};
    use sads::DeploymentConfig;
    use sads_sim::SimDuration;

    const PAGE: u64 = 64 * 1024;

    /// Every key is put three times with a 13-byte-tailed body and the
    /// sweeper keeps the last version only: what it reports reclaimed is
    /// what the chunk stores let go of — the bytes of the overwritten
    /// bodies, not a page for each of their tails.
    #[test]
    fn reclaimed_bytes_equal_the_drop_in_stored_bytes() {
        let mut cluster = super::start_threaded(DeploymentConfig {
            lifecycle: Some(LifecycleConfig {
                policy: RetentionPolicy::KeepLastN(1),
                sweep_every: SimDuration::from_millis(200),
                ..LifecycleConfig::default()
            }),
            ..DeploymentConfig::default()
        });
        let gw = ObjectGateway::new(
            cluster.client(ClientId(9)),
            GatewayConfig { page_size: PAGE, replication: 1, ..Default::default() },
        );
        let alice = ClientId(1);
        gw.create_bucket(alice, "b", Acl::Private).unwrap();
        let sizes = [13u64, PAGE + 13, 2 * PAGE + 13, 1, 0];
        let (mut put, mut live) = (0u64, 0u64);
        for round in 0..3u8 {
            for (i, n) in sizes.iter().enumerate() {
                // Later rounds are shorter, so old tails get overwritten
                // by short and by empty chunks alike.
                let n = n.saturating_sub(round as u64);
                gw.put_object(alice, "b", &format!("k{i}"), Bytes::from(vec![round + 1; n as usize]))
                    .unwrap();
                put += n;
                if round == 2 {
                    live += n;
                }
            }
        }
        let used = |cluster: &Cluster| {
            cluster.telemetry().snapshot().gauge_total("provider.store_bytes")
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let reclaimed = cluster.telemetry().counter_total("lifecycle.reclaimed_bytes");
            if reclaimed >= put - live && used(&cluster) == Some(live as f64) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "sweep stalled: reclaimed {} of {} B, stored {:?}, live {live}",
                cluster.telemetry().counter_total("lifecycle.reclaimed_bytes"),
                put - live,
                used(&cluster)
            );
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        assert_eq!(
            cluster.telemetry().counter_total("lifecycle.reclaimed_bytes"),
            put - live,
            "reclaimed bytes are the stored bytes of the swept chunks"
        );
        for (i, n) in sizes.iter().enumerate() {
            let n = n.saturating_sub(2);
            assert_eq!(gw.get_object(alice, "b", &format!("k{i}")).unwrap(), vec![3u8; n as usize]);
        }
        cluster.shutdown();
    }
}
