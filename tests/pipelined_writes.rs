//! End-to-end invariants for the pipelined chunk-I/O path and the
//! sharded chunk store:
//!
//! * whatever the in-flight chunk window (serial, small, unbounded),
//!   reading version `v` returns exactly the replay of all writes `<= v`
//!   over a byte-array reference model — pipelining must not reorder,
//!   drop or duplicate any page of any version;
//! * the striped-lock chunk store never loses or duplicates chunks when
//!   many real threads put/get/delete concurrently.

use bytes::Bytes;
use proptest::prelude::*;

use sads::blob::client::ClientConfig;
use sads::blob::model::{BlobId, ChunkKey, Payload, VersionId};
use sads::blob::provider::ChunkStore;
use sads::blob::runtime::threaded::ClusterBuilder;
use sads::blob::{BlobSpec, ClientId};
use sads_sim::SimTime;

const PAGE: u64 = 1024;

/// One generated client operation, in pages (the write granularity).
#[derive(Debug, Clone)]
enum WOp {
    /// Append `pages` pages of byte `fill`.
    Append { pages: u8, fill: u8 },
    /// Write `pages` pages of byte `fill` at page offset `page_off`
    /// (possibly past the end, creating a hole).
    At { page_off: u8, pages: u8, fill: u8 },
}

fn wop() -> impl Strategy<Value = WOp> {
    prop_oneof![
        (1u8..4, 0u8..255).prop_map(|(pages, fill)| WOp::Append { pages, fill }),
        (0u8..10, 1u8..4, 0u8..255)
            .prop_map(|(page_off, pages, fill)| WOp::At { page_off, pages, fill }),
    ]
}

/// Apply `op` to the reference byte image (holes are zero bytes).
fn apply_ref(image: &mut Vec<u8>, op: &WOp) {
    let (off, len, fill) = match op {
        WOp::Append { pages, fill } => {
            (image.len(), *pages as usize * PAGE as usize, *fill)
        }
        WOp::At { page_off, pages, fill } => (
            *page_off as usize * PAGE as usize,
            *pages as usize * PAGE as usize,
            *fill,
        ),
    };
    if image.len() < off + len {
        image.resize(off + len, 0);
    }
    image[off..off + len].fill(fill);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every chunk window (fully serial, partially pipelined,
    /// effectively unbounded) and both replication degrees, each
    /// published version reads back as the reference replay of all
    /// writes up to it.
    #[test]
    fn windowed_writes_preserve_version_replay(
        ops in proptest::collection::vec(wop(), 1..6),
        replication in 1u32..3,
    ) {
        for window in [1usize, 3, 32] {
            let mut cluster = ClusterBuilder::new()
                .data_providers(2)
                .meta_providers(2)
                .provider_capacity(64 << 20)
                .client_config(ClientConfig {
                    chunk_window: window,
                    materialize_zeros: true,
                    ..ClientConfig::default()
                })
                .start();
            let h = cluster.client(ClientId(1));
            let blob = h
                .create(BlobSpec { page_size: PAGE, replication })
                .expect("create");

            // Run the script, snapshotting the reference image at each
            // published version.
            let mut image: Vec<u8> = Vec::new();
            let mut snapshots: Vec<(VersionId, Vec<u8>)> = Vec::new();
            for op in &ops {
                let version = match op {
                    WOp::Append { pages, fill } => {
                        let data = vec![*fill; *pages as usize * PAGE as usize];
                        h.append(blob, Bytes::from(data)).expect("append").0
                    }
                    WOp::At { page_off, pages, fill } => {
                        let data = vec![*fill; *pages as usize * PAGE as usize];
                        h.write(blob, *page_off as u64 * PAGE, Bytes::from(data))
                            .expect("write")
                    }
                };
                apply_ref(&mut image, op);
                snapshots.push((version, image.clone()));
            }

            // Every version must equal its replay prefix — including the
            // older ones, which later writes must not have disturbed.
            for (version, want) in &snapshots {
                let got = h
                    .read(blob, Some(*version), 0, want.len() as u64)
                    .expect("read");
                prop_assert_eq!(
                    got.as_ref(),
                    want.as_slice(),
                    "window {} version {:?} diverged from replay",
                    window,
                    version
                );
            }
            cluster.shutdown();
        }
    }
}

/// Hammer one sharded store from many real threads: each thread puts its
/// own key range, re-reads it, peeks at a neighbour's range and deletes
/// every third key. Afterwards the surviving key set, the item count and
/// the byte accounting must all agree exactly — nothing lost, nothing
/// duplicated, no torn payloads.
#[test]
fn sharded_chunk_store_conserves_chunks_under_concurrency() {
    const THREADS: u64 = 8;
    const KEYS: u64 = 200;
    const LEN: usize = 128;
    let key_of = |t: u64, i: u64| ChunkKey {
        blob: BlobId(t),
        version: VersionId(1),
        page: i,
    };

    let store = std::sync::Arc::new(ChunkStore::new(1 << 30));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let store = std::sync::Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            for i in 0..KEYS {
                let key = key_of(t, i);
                store
                    .put(key, Payload::Data(Bytes::from(vec![t as u8; LEN])), SimTime(i))
                    .expect("capacity is ample");
                match store.get(&key, SimTime(i)) {
                    Some(Payload::Data(b)) => {
                        assert_eq!(b.len(), LEN);
                        assert!(b.iter().all(|&x| x == t as u8), "torn own read");
                    }
                    other => panic!("own chunk missing right after put: {other:?}"),
                }
                // A neighbour's chunk is either absent or fully intact —
                // never a torn intermediate state.
                let peer = (t + 1) % THREADS;
                if let Some((Payload::Data(b), _)) = store.peek(&key_of(peer, i)) {
                    assert_eq!(b.len(), LEN);
                    assert!(b.iter().all(|&x| x == peer as u8), "torn peer read");
                }
                if i % 3 == 0 {
                    assert_eq!(store.delete(&key), Some(LEN as u64), "lost a put");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // i % 3 == 0 deleted 67 of each thread's 200 keys.
    let survivors_per_thread = KEYS - KEYS.div_ceil(3);
    let expected = (THREADS * survivors_per_thread) as usize;
    assert_eq!(store.len(), expected, "item count drifted");
    assert_eq!(store.used(), (expected * LEN) as u64, "byte accounting drifted");

    let mut keys = store.all_keys();
    let total = keys.len();
    keys.dedup();
    assert_eq!(keys.len(), total, "duplicate keys across shards");
    assert_eq!(total, expected);
    for t in 0..THREADS {
        for i in 0..KEYS {
            let present = store.peek(&key_of(t, i)).is_some();
            assert_eq!(present, i % 3 != 0, "wrong survivor set at t={t} i={i}");
        }
    }
}
