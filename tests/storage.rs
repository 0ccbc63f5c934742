//! Durable chunk-backend recovery properties.
//!
//! * **Kill-point prefix**: truncate the on-disk log at *any* byte
//!   offset — the crash model for a power cut mid-write — and recovery
//!   yields exactly a prefix of the acknowledged puts: never a hole,
//!   never a reordering, never a chunk that was not acknowledged.
//! * **No corrupt payload survives**: flip one byte anywhere in a
//!   segment and every chunk recovery still returns has the exact bytes
//!   that were written; the damaged record is quarantined or the torn
//!   tail dropped, but garbage is never served.
//! * **Threaded runtime**: a killed-and-restarted disk-backend provider
//!   serves its old chunks again from the recovered store.
//! * **Sim deployment**: a crashed disk-backend provider rejoins with
//!   its chunks intact and the replication manager schedules zero repair
//!   traffic (the E13 headline, as a test).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;

use sads::blob::model::{BlobId, BlobSpec, ChunkKey, ClientId, Payload, VersionId};
use sads::blob::provider::ChunkStore;
use sads::blob::runtime::sim::{BlobRef, ScriptStep};
use sads::blob::runtime::threaded::{Cluster, ClusterBuilder};
use sads::blob::services::DataProviderService;
use sads::blob::storage::{BackendConfig, BackendSpec, DiskConfig};
use sads::blob::WriteKind;
use sads::{install, Deployment, DeploymentConfig};
use sads_adaptive::ReplicationConfig;
use sads_sim::{SimDuration, SimTime, World};

/// Fresh scratch directory per call (removed by [`Cleanup`]).
fn tmp(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "sads-storage-test-{}-{tag}-{n}",
        std::process::id()
    ))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn key(page: u64) -> ChunkKey {
    ChunkKey { blob: BlobId(1), version: VersionId(1), page }
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Write `writes` through a disk-backed [`ChunkStore`] and return the
/// directory plus the acknowledged payloads in put order.
fn load_store(dir: &Path, writes: &[(u8, u64)]) -> Vec<(ChunkKey, Payload)> {
    let cfg = BackendConfig::Disk(DiskConfig::new(dir));
    let (store, report) = ChunkStore::open(1 << 30, &cfg, t(0));
    assert!(report.chunks.is_empty());
    let mut acked = Vec::new();
    for (i, (flavor, size)) in writes.iter().enumerate() {
        let k = key(i as u64);
        let payload = if *flavor == 1 {
            Payload::Data(Bytes::from(vec![(i as u8).wrapping_mul(31); *size as usize]))
        } else {
            Payload::Sim(*size)
        };
        store.put(k, payload.clone(), t(1)).unwrap();
        // `put` returned: this write is acknowledged.
        acked.push((k, payload));
    }
    acked
}

fn reopen(dir: &Path) -> sads::blob::storage::RecoveryReport {
    let cfg = BackendConfig::Disk(DiskConfig::new(dir));
    let (_store, report) = ChunkStore::open(1 << 30, &cfg, t(2));
    report
}

fn first_segment(dir: &Path) -> PathBuf {
    let seg = dir.join("seg-000000.log");
    assert!(seg.exists(), "expected an active segment at {}", seg.display());
    seg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crash at a random byte offset: recovery returns a prefix of the
    /// acknowledged writes, payloads intact.
    #[test]
    fn truncation_recovers_a_prefix_of_acknowledged_writes(
        writes in prop::collection::vec((0u8..2, 1u64..2048), 1..24),
        cut_ppm in 0u64..1_000_000,
    ) {
        let dir = tmp("prefix");
        let _cleanup = Cleanup(dir.clone());
        let acked = load_store(&dir, &writes);

        let seg = first_segment(&dir);
        let len = std::fs::metadata(&seg).unwrap().len();
        let cut = len * cut_ppm / 1_000_000;
        std::fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(cut).unwrap();

        let report = reopen(&dir);
        // Exactly the first `n` acknowledged writes survive, in order
        // (report order is key order, which equals put order here).
        let n = report.chunks.len();
        prop_assert!(n <= acked.len());
        for (got, want) in report.chunks.iter().zip(&acked[..n]) {
            prop_assert_eq!(got.0, want.0);
            prop_assert_eq!(&got.1, &want.1);
        }
    }

    /// Flip one byte anywhere in the segment: recovery never serves a
    /// payload that differs from what was written.
    #[test]
    fn corruption_never_surfaces_garbage(
        writes in prop::collection::vec((0u8..2, 1u64..2048), 1..24),
        pos_ppm in 0u64..1_000_000,
        flip in 1u8..=255,
    ) {
        let dir = tmp("flip");
        let _cleanup = Cleanup(dir.clone());
        let acked = load_store(&dir, &writes);

        let seg = first_segment(&dir);
        let mut bytes = std::fs::read(&seg).unwrap();
        let pos = (bytes.len() as u64 - 1) * pos_ppm / 1_000_000;
        bytes[pos as usize] ^= flip;
        std::fs::write(&seg, &bytes).unwrap();

        let report = reopen(&dir);
        prop_assert!(report.chunks.len() <= acked.len());
        for (k, payload) in &report.chunks {
            let want = acked.iter().find(|(ak, _)| ak == k);
            prop_assert!(want.is_some(), "recovered a chunk that was never acknowledged");
            prop_assert_eq!(payload, &want.unwrap().1);
        }
    }
}

const PAGE: u64 = 64 * 1024;

/// End to end on the threaded runtime: kill the only provider of a
/// replication-1 blob, restart it on the same backend directory, and the
/// data is served again — from the recovered local store, since no other
/// replica exists anywhere.
#[test]
fn killed_disk_provider_serves_chunks_after_restart_threaded() {
    let root = tmp("threaded");
    let _cleanup = Cleanup(root.clone());
    let mut cluster = ClusterBuilder::new()
        .data_providers(1)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .backend(BackendSpec::disk(&root))
        .start();
    restart_and_read_back(&mut cluster);
    cluster.shutdown();
}

/// The same through a threaded install: the cluster's own restart and
/// scale-up draw on the install's book of backend directories, so the
/// victim re-opens its log and a new provider takes the next directory.
#[test]
fn installed_disk_provider_restarts_and_scales_through_the_cluster() {
    let root = tmp("installed");
    let _cleanup = Cleanup(root.clone());
    let backend = BackendSpec::disk(&root);
    let mut cluster = ClusterBuilder::new().backend(backend.clone()).host();
    let spec = DeploymentConfig { data_providers: 1, backend, ..Default::default() };
    install(&spec, &mut cluster);
    restart_and_read_back(&mut cluster);
    assert_eq!(cluster.metrics().counter("provider.repair_bytes"), 0);
    cluster.add_data_provider(256 << 20);
    assert!(root.join("provider-0001").is_dir(), "the added provider's own directory");
    cluster.shutdown();
}

/// Write three pages at replication 1, kill and restart the first data
/// provider through the cluster, and read them back.
fn restart_and_read_back(cluster: &mut Cluster) {
    let client = cluster.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).unwrap();
    let data = Bytes::from(vec![7u8; 3 * PAGE as usize]);
    client.write(blob, 0, data.clone()).unwrap();
    let victim = cluster.data[0];
    cluster.kill(victim);
    assert!(cluster.restart_data_provider(victim, 256 << 20), "victim restart");
    let back = read_back(|| client.read(blob, None, 0, 3 * PAGE));
    assert_eq!(back, data, "recovered payload differs");
}

/// Retry `read` every 50 ms until a restarted provider serves it.
fn read_back<T, E>(mut read: impl FnMut() -> Result<T, E>) -> T {
    for _ in 0..100 {
        match read() {
            Ok(v) => return v,
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    panic!("no read succeeded after the provider restarted")
}

/// The E13 headline as a deterministic sim test: with the disk backend a
/// crashed-and-restarted provider announces its recovered chunks and the
/// replication manager schedules **zero** repair traffic for it.
#[test]
fn sim_disk_restart_rejoins_without_repair_traffic() {
    let root = tmp("sim");
    let _cleanup = Cleanup(root.clone());
    let cfg = DeploymentConfig {
        data_providers: 10,
        meta_providers: 2,
        replication: Some(ReplicationConfig {
            base_degree: 2,
            sweep_every: SimDuration::from_secs(6),
            ..ReplicationConfig::default()
        }),
        backend: BackendSpec::disk(&root),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(11), cfg);
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(BlobSpec { page_size: 1_000_000, replication: 2 }),
            ScriptStep::Write {
                blob: BlobRef::Created(0),
                kind: WriteKind::Append,
                bytes: 8_000_000,
            },
        ],
        "loader",
    );
    d.world.run_until(t(25), 10_000_000);

    let victim = d.nodes.data[0];
    let held =
        |d: &Deployment| d.world.actor_as::<DataProviderService>(victim).map(|p| p.store().len());
    let before = held(&d).unwrap_or(0);
    assert!(before > 0, "victim holds no chunks after load");

    d.crash(victim);
    d.world.run_for(SimDuration::from_secs(12), 10_000_000);
    d.restart_data_provider(victim);
    d.world.run_for(SimDuration::from_secs(30), 10_000_000);

    let after = held(&d).unwrap_or(0);
    let m = d.world.metrics();
    assert_eq!(after, before, "restart must recover every chunk from the local log");
    assert_eq!(m.counter("provider.recovered_chunks"), before as u64);
    assert_eq!(m.counter("provider.repair_bytes"), 0, "durable restart triggered repairs");
    assert_eq!(m.counter("repl.lost_chunks"), 0);
}

/// True lengths on disk: objects whose last page is mostly — or wholly —
/// declared zeros leave short and empty records in the log. A killed and
/// restarted provider serves them byte for byte, and reopening the log
/// re-admits exactly the bytes that were fed, not a page per record.
#[test]
fn short_and_empty_records_survive_a_kill_and_restart() {
    use sads::gateway::{Acl, GatewayConfig, ObjectGateway};

    let root = tmp("short-records");
    let _cleanup = Cleanup(root.clone());
    let backend = BackendSpec::disk(&root);
    let mut cluster = ClusterBuilder::new()
        .data_providers(1)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .backend(backend.clone())
        .start();
    let gw = ObjectGateway::new(
        cluster.client(ClientId(1)),
        GatewayConfig { page_size: PAGE, replication: 1, ..Default::default() },
    );
    let alice = ClientId(7);
    gw.create_bucket(alice, "b", Acl::Private).unwrap();
    let body = |n: usize| Bytes::from((0..n).map(|i| (i as u8).wrapping_mul(31) | 1).collect::<Vec<u8>>());
    let sizes = [0usize, 1, 13, PAGE as usize - 1, PAGE as usize, PAGE as usize + 13, 3 * PAGE as usize];
    for (i, n) in sizes.iter().enumerate() {
        gw.put_object(alice, "b", &format!("k{i}"), body(*n)).unwrap();
    }

    let victim = cluster.data[0];
    cluster.kill(victim);
    assert!(cluster.restart_data_provider(victim, 256 << 20), "victim restart");
    for (i, n) in sizes.iter().enumerate() {
        let got = read_back(|| gw.get_object(alice, "b", &format!("k{i}")));
        assert_eq!(got, body(*n), "object of {n} B");
    }
    cluster.shutdown();

    // The log itself: one record per page written, each as long as the
    // bytes fed into that page.
    let (store, report) = ChunkStore::open(256 << 20, &backend.for_provider(0), t(0));
    let fed: u64 = sizes.iter().map(|n| *n as u64).sum();
    let mut lens: Vec<u64> = report.chunks.iter().map(|(_, p)| p.len()).collect();
    lens.sort_unstable();
    let mut want: Vec<u64> = sizes
        .iter()
        .flat_map(|n| {
            let n = *n as u64;
            let pages = n.div_ceil(PAGE).max(1);
            (0..pages).map(move |p| (n - p * PAGE).min(PAGE))
        })
        .collect();
    want.sort_unstable();
    assert_eq!(lens, want, "record lengths");
    assert_eq!(lens[0], 0, "the empty object is an empty record");
    assert!(report.chunks.iter().all(|(_, p)| matches!(p, Payload::Data(_))));
    assert_eq!(report.bytes, fed);
    assert_eq!(store.used(), fed, "`used` is re-admitted as the true sum");
    assert_eq!(store.len(), want.len());
}
