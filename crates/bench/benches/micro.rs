//! Criterion micro-benchmarks of the hot paths: metadata segment-tree
//! construction and descent, the request path's bookkeeping (metadata
//! version index, counters), allocation strategies, the
//! chunk store, a blocking client call's round trip through the threaded
//! executor and one executor hop, a flight-recorder write, the put path's
//! checksum and the fold that derives a log
//! frame's and a whole write's CRC from its parts', the monitoring
//! filters and burst cache, the policy engine, and the raw event rate of
//! the cluster simulator.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use sads_blob::meta::{BaseSnapshot, MetaStore, NodeRef, TreeBuilder, TreeReader};
use sads_blob::model::{
    BlobId, BlobSpec, ChunkDescriptor, ChunkKey, ClientId, PageInterval, Payload, VersionId,
};
use sads_blob::pmanager::{
    AllocationStrategy, LeastLoaded, ProviderKind, ProviderRegistry, RandomAlloc, RoundRobin,
    TwoChoices,
};
use sads_blob::provider::ChunkStore;
use sads_blob::storage::{crc32c, crc32c_combine};
use sads_monitor::{ActivityKind, ActivityRecord, BurstCache, DataFilter, RateFilter};
use sads_security::{scan, ActivityHistory, PolicySet, TrustConfig, TrustManager};
use sads_blob::rpc::Msg;
use sads_sim::{FlightEvent, NodeId, SimDuration, SimTime};

const PAGE: u64 = 8;
const BLOB: BlobId = BlobId(1);

/// Build the full metadata for one write of `pages` pages on an empty
/// blob, in memory.
fn build_tree(pages: u64) -> (MetaStore, NodeRef) {
    let mut store = MetaStore::new();
    let mut b = TreeBuilder::new(
        BLOB,
        VersionId(1),
        PageInterval::new(0, pages),
        PAGE,
        pages * PAGE,
        BaseSnapshot { version: VersionId(0), size: 0, root: None },
        vec![],
    );
    assert!(b.is_ready());
    let chunks: Vec<ChunkDescriptor> = (0..pages)
        .map(|page| ChunkDescriptor {
            key: ChunkKey { blob: BLOB, version: VersionId(1), page },
            replicas: vec![NodeId(0)],
            size: PAGE,
        })
        .collect();
    let (nodes, root) = b.build(&chunks);
    for (k, n) in nodes {
        store.put(k, n);
    }
    let _ = &mut b;
    (store, root)
}

/// A `pages`-page BLOB written whole at version 1, then overwritten one
/// page at a time (at scattered pages) up to version `versions`: returns
/// the store, the latest root and the latest version.
fn build_history(pages: u64, versions: u64) -> (MetaStore, NodeRef, VersionId) {
    let (mut store, mut root) = build_tree(pages);
    for v in 2..=versions {
        let page = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) % pages;
        let mut tb = TreeBuilder::new(
            BLOB,
            VersionId(v),
            PageInterval::new(page, 1),
            PAGE,
            pages * PAGE,
            BaseSnapshot { version: VersionId(v - 1), size: pages * PAGE, root: Some(root) },
            vec![],
        );
        while !tb.is_ready() {
            for k in tb.needed_fetches() {
                let n = store.get(&k).unwrap().clone();
                tb.supply(k, &n);
            }
        }
        let chunk = ChunkDescriptor {
            key: ChunkKey { blob: BLOB, version: VersionId(v), page },
            replicas: vec![NodeId(0)],
            size: PAGE,
        };
        let (nodes, new_root) = tb.build(&[chunk]);
        for (k, n) in nodes {
            store.put(k, n);
        }
        root = new_root;
    }
    (store, root, VersionId(versions))
}

fn bench_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("segment_tree");
    for pages in [16u64, 128, 1024] {
        g.throughput(Throughput::Elements(pages));
        g.bench_with_input(BenchmarkId::new("build_first_write", pages), &pages, |b, &pages| {
            b.iter(|| build_tree(pages));
        });
        // Overwrite half the pages of an existing version (resolution
        // against the base tree included).
        let (store, root) = build_tree(pages);
        g.bench_with_input(BenchmarkId::new("build_overwrite_half", pages), &pages, |b, &pages| {
            b.iter(|| {
                let mut tb = TreeBuilder::new(
                    BLOB,
                    VersionId(2),
                    PageInterval::new(pages / 4, pages / 2),
                    PAGE,
                    pages * PAGE,
                    BaseSnapshot { version: VersionId(1), size: pages * PAGE, root: Some(root) },
                    vec![],
                );
                while !tb.is_ready() {
                    for k in tb.needed_fetches() {
                        let n = store.get(&k).unwrap().clone();
                        tb.supply(k, &n);
                    }
                }
                let chunks: Vec<ChunkDescriptor> = (pages / 4..pages / 4 + pages / 2)
                    .map(|page| ChunkDescriptor {
                        key: ChunkKey { blob: BLOB, version: VersionId(2), page },
                        replicas: vec![NodeId(0)],
                        size: PAGE,
                    })
                    .collect();
                tb.build(&chunks)
            });
        });
        g.bench_with_input(BenchmarkId::new("read_full", pages), &pages, |b, &pages| {
            b.iter(|| {
                let mut r = TreeReader::new(BLOB, Some(root), PageInterval::new(0, pages));
                while !r.is_done() {
                    for k in r.needed_fetches() {
                        let n = store.get(&k).unwrap().clone();
                        r.supply(k, &n);
                    }
                }
                r.into_sources()
            });
        });
    }
    g.finish();
}

/// The read path's metadata round trips: a single server-side
/// `range_cover` bulk query versus the classic level-by-level descent it
/// replaces.
fn bench_read_path(c: &mut Criterion) {
    use std::collections::HashMap;

    let mut g = c.benchmark_group("read_path");
    for pages in [16u64, 128, 1024] {
        let (store, root) = build_tree(pages);
        let query = PageInterval::new(0, pages);
        g.throughput(Throughput::Elements(pages));
        // Level-by-level: what the client's descent makes the metadata
        // provider do across O(depth) round trips.
        g.bench_with_input(
            BenchmarkId::new("descent_level_by_level", pages),
            &pages,
            |b, &pages| {
                b.iter(|| {
                    let mut r = TreeReader::new(BLOB, Some(root), PageInterval::new(0, pages));
                    while !r.is_done() {
                        for k in r.needed_fetches() {
                            let n = store.get(&k).unwrap().clone();
                            r.supply(k, &n);
                        }
                    }
                    r.into_sources()
                });
            },
        );
        // Bulk: one range_cover call serves the whole read path, the
        // client descends through the warmed node map locally.
        g.bench_with_input(BenchmarkId::new("descent_range_cover", pages), &pages, |b, _| {
            b.iter(|| {
                let (nodes, more) =
                    store.range_cover(BLOB, VersionId(1), &query, None, usize::MAX);
                assert!(!more);
                let cache: HashMap<_, _> = nodes.into_iter().collect();
                let mut r = TreeReader::new(BLOB, Some(root), query);
                while !r.is_done() {
                    for k in r.needed_fetches() {
                        let n = cache.get(&k).unwrap();
                        r.supply(k, n);
                    }
                }
                r.into_sources()
            });
        });
    }

    // The shape that hurt: op-sized queries on a big, many-version tree
    // (32 768 pages, 513 versions — the benchmark's `small_meta`), where
    // the answer is ~20 nodes out of 75 000 stored. The whole-tree rows
    // above are the one shape where visiting every stored range *is* the
    // answer, so they cannot tell a scan from an index.
    let (store, root, latest) = build_history(1 << 15, 513);
    let mut at = 0u64;
    let mut next_query = move || {
        at = (at + 12_345) % ((1 << 15) - 4);
        PageInterval::new(at, 4)
    };
    g.throughput(Throughput::Elements(1));
    g.bench_function("range_cover_4_pages/32768x513", |b| {
        b.iter(|| store.range_cover(BLOB, latest, &next_query(), None, 512));
    });
    g.bench_function("descent_level_by_level_4_pages/32768x513", |b| {
        b.iter(|| {
            let mut r = TreeReader::new(BLOB, Some(root), next_query());
            while !r.is_done() {
                for k in r.needed_fetches() {
                    r.supply(k, store.get(&k).unwrap());
                }
            }
            r.into_sources()
        });
    });
    // Continuation: the whole BLOB walked through the cursor in answers
    // of 512 nodes (per-call cost must not depend on where the cursor is).
    let whole = PageInterval::new(0, 1 << 15);
    let calls = store.range_cover(BLOB, latest, &whole, None, usize::MAX).0.len().div_ceil(512);
    g.throughput(Throughput::Elements(calls as u64));
    g.bench_function("range_cover_whole_blob_in_512s/32768x513", |b| {
        b.iter(|| {
            let (mut after, mut seen) = (None, 0);
            loop {
                let (nodes, more) = store.range_cover(BLOB, latest, &whole, after, 512);
                seen += nodes.len();
                if !more {
                    break seen;
                }
                after = nodes.last().map(|(k, _)| k.range);
            }
        });
    });
    g.finish();
}

/// What a message costs besides its handler, 1 000 operations an
/// iteration: a metadata put at a range that already holds 64 Ki versions
/// (every write of a long history stores a new node at the root's
/// range), a `range_cover` at such a range and a counter bump on a
/// registered `(name, labels)` key; and a GC batch that retires 16 Ki of
/// such a range's versions.
fn bench_bookkeeping(c: &mut Criterion) {
    use sads_blob::meta::{MetaNode, NodeKey, NodeRange};
    use sads_sim::Registry;

    let mut g = c.benchmark_group("bookkeeping");
    g.throughput(Throughput::Elements(1000));
    let node = MetaNode::Inner { left: NodeRef::Hole, right: NodeRef::Hole };
    let root = NodeRange::new(0, 1 << 15);
    let key = |v| NodeKey { blob: BLOB, version: VersionId(v), range: root };
    let mut store = MetaStore::new();
    for v in 1..=1 << 16 {
        store.put(key(v), node.clone());
    }
    let mut v = 1 << 16;
    g.bench_function("meta_put_on_64k_versions_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                v += 1;
                store.put(key(v), node.clone());
            }
        })
    });

    // The same range's 64 Ki versions read through `range_cover` (a
    // one-page query: one hit among the levels it probes), at the newest
    // version and at an old one; then GC retiring the 16 Ki oldest in one
    // batch. That iteration also appends 16 Ki new versions, so every
    // iteration collects from a 64 Ki history: subtract 16 × the put row.
    let mut history = MetaStore::new();
    for v in 1..=1 << 16 {
        history.put(key(v), node.clone());
    }
    let page = PageInterval::new(0, 1);
    for (name, at) in [("newest", 1 << 16), ("old", 1 << 14)] {
        g.bench_function(format!("meta_range_cover_{name}_on_64k_versions_x1000"), |b| {
            b.iter(|| {
                for _ in 0..1000 {
                    black_box(history.range_cover(BLOB, VersionId(at), &page, None, 8));
                }
            })
        });
    }
    g.throughput(Throughput::Elements(1 << 14));
    let (mut oldest, mut newest) = (1, 1 << 16);
    g.bench_function("meta_remove_oldest_16k_of_64k_versions", |b| {
        b.iter(|| {
            let batch: Vec<NodeKey> = (oldest..oldest + (1 << 14)).map(key).collect();
            assert_eq!(history.remove_all(&batch), 1 << 14);
            oldest += 1 << 14;
            for _ in 0..1 << 14 {
                newest += 1;
                history.put(key(newest), node.clone());
            }
        })
    });
    g.throughput(Throughput::Elements(1000));

    let reg = Registry::new();
    reg.inc("provider.chunk_reads", &[("node", "3")], 1);
    g.bench_function("registry_inc_hit_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                reg.inc("provider.chunk_reads", &[("node", "3")], 1);
            }
        })
    });
    g.finish();
}

/// Passes `ListBlobs { req }` to its peer as `req - 1` until it reaches 0,
/// then counts one lap in `laps`.
struct Hop {
    peer: std::sync::Arc<std::sync::OnceLock<NodeId>>,
    laps: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl sads_blob::services::Service for Hop {
    fn on_msg(&mut self, env: &mut dyn sads_blob::services::Env, _: NodeId, msg: Msg) {
        match msg {
            Msg::ListBlobs { req: 0 } => {
                self.laps.fetch_add(1, std::sync::atomic::Ordering::Release);
            }
            Msg::ListBlobs { req } => {
                env.send(*self.peer.get().unwrap(), Msg::ListBlobs { req: req - 1 })
            }
            _ => {}
        }
    }
}

/// One blocking client call on an idle one-shard cluster: a snapshot, the
/// smallest client → version manager → client round trip, with whatever
/// hand-off between the calling thread and the executor it costs; a 4 KiB
/// read of the latest version, which starts with that round trip, and of a
/// pinned version, which the client's version cache serves without it (the
/// difference is the round trip's unit cost). And one hop: two cells on the one shard pass a message back and forth 1 000
/// times an iteration, so each hop is a send and the turn that handles it,
/// with the flight recorder on (the default) and off.
fn bench_executor(c: &mut Criterion) {
    use sads_blob::runtime::threaded::ClusterBuilder;
    use std::sync::{atomic::Ordering, Arc, OnceLock};

    let mut g = c.benchmark_group("executor");
    for recorder in [true, false] {
        let builder = ClusterBuilder::new().data_providers(1).meta_providers(1).executor_shards(1);
        let mut cluster = builder.flight_recorder(recorder).start();
        if recorder {
            let client = cluster.client(ClientId(1));
            let blob = client.create(BlobSpec { page_size: 4096, replication: 1 }).expect("create");
            let (v, _) =
                client.append(blob, bytes::Bytes::from(vec![7u8; 4096])).expect("append");
            g.sample_size(20_000).throughput(Throughput::Elements(1));
            g.bench_function("blocking_snapshot_roundtrip", |b| {
                b.iter(|| client.snapshot(black_box(blob), None).expect("snapshot"))
            });
            for (name, version) in [("pinned", Some(v)), ("latest", None)] {
                g.bench_function(format!("blocking_{name}_read_4k"), |b| {
                    b.iter(|| client.read(black_box(blob), version, 0, 4096).expect("read"))
                });
            }
        }
        let (laps, a_peer, b_peer) = (Arc::default(), Arc::new(OnceLock::new()), OnceLock::new());
        let a_hop = Hop { peer: Arc::clone(&a_peer), laps: Arc::clone(&laps) };
        let a = cluster.add_service(Box::new(a_hop));
        b_peer.set(a).unwrap();
        let b_hop = Hop { peer: Arc::new(b_peer), laps: Arc::clone(&laps) };
        a_peer.set(cluster.add_service(Box::new(b_hop))).unwrap();
        g.sample_size(200).throughput(Throughput::Elements(1000));
        let name = if recorder { "one_hop_x1000" } else { "one_hop_x1000_recorder_off" };
        g.bench_function(name, |b| {
            b.iter(|| {
                let lap = laps.load(Ordering::Acquire);
                cluster.send(a, Msg::ListBlobs { req: 1000 });
                while laps.load(Ordering::Acquire) == lap {
                    std::hint::spin_loop();
                }
            })
        });
        cluster.shutdown();
    }
    g.finish();
}

/// One flight-recorder event recorded into a default-sized ring, 1 000 an
/// iteration: what every executor turn pays to be recorded; alone, and
/// while another thread records into the same ring (two shards' cells of
/// one service family share a ring).
fn bench_flight_ring(c: &mut Criterion) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let recorder = sads_sim::FlightRecorder::new();
    let ring = recorder.ring("bench");
    let (label, node, trace) = ("turn", 3, 0);
    let event = |at| FlightEvent { at_ns: at, dur_ns: 900, label, node, a: 1, b: 2, trace };
    let mut g = c.benchmark_group("flight_ring");
    g.throughput(Throughput::Elements(1000));
    let mut at = 0u64;
    let mut record_x1000 = |b: &mut criterion::Bencher| {
        b.iter(|| {
            for _ in 0..1000 {
                at += 1;
                ring.record(black_box(event(at)));
            }
        })
    };
    g.bench_function("record_x1000", &mut record_x1000);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                ring.record(event(0));
            }
        });
        g.bench_function("record_x1000_beside_a_writer", &mut record_x1000);
        stop.store(true, Ordering::Relaxed);
    });
    g.finish();
}

fn bench_alloc(c: &mut Criterion) {
    let mut g = c.benchmark_group("allocation");
    let mut registry = ProviderRegistry::new();
    for i in 0..150 {
        registry.register(NodeId(i), ProviderKind::Data, 1 << 40, SimTime::ZERO);
    }
    let strategies: Vec<Box<dyn AllocationStrategy>> = vec![
        Box::<RoundRobin>::default(),
        Box::<RandomAlloc>::default(),
        Box::<LeastLoaded>::default(),
        Box::<TwoChoices>::default(),
    ];
    for mut s in strategies {
        let name = s.name();
        g.throughput(Throughput::Elements(128));
        g.bench_function(BenchmarkId::new("alloc_128x3", name), |b| {
            let mut rng = SmallRng::seed_from_u64(1);
            b.iter(|| s.allocate(&registry, 128, 3, 8 << 20, &mut rng).unwrap());
        });
    }
    g.finish();
}

fn bench_chunk_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("chunk_store");
    g.throughput(Throughput::Elements(1));
    g.bench_function("put_get_delete", |b| {
        let store = ChunkStore::new(1 << 40);
        let mut page = 0u64;
        b.iter(|| {
            page += 1;
            let key = ChunkKey { blob: BLOB, version: VersionId(1), page };
            store.put(key, Payload::Sim(8 << 20), SimTime::ZERO).unwrap();
            let got = store.get(&key, SimTime::ZERO).unwrap();
            store.delete(&key);
            got.len()
        });
    });
    // Reads spread across a populated store.
    g.bench_function("get_resident", |b| {
        let store = ChunkStore::new(1 << 40);
        const RESIDENT: u64 = 4096;
        for page in 0..RESIDENT {
            let key = ChunkKey { blob: BLOB, version: VersionId(1), page };
            store.put(key, Payload::Sim(64 << 10), SimTime::ZERO).unwrap();
        }
        let mut page = 0u64;
        b.iter(|| {
            page = (page + 1) % RESIDENT;
            let key = ChunkKey { blob: BLOB, version: VersionId(1), page };
            store.get(&key, SimTime::ZERO).unwrap().len()
        });
    });
    g.finish();
}

/// The checksum every put pays once, at the three buffer sizes that
/// matter (a small_meta page, a data page, a 4 MiB write), and the
/// combination that derives a log frame's CRC from its payload's and a
/// write's (the gateway etag) from its pages': once per cut page, whose
/// length sets the cost (O(log len)) — a small_meta page, a data page
/// and the largest `gateway_disk` tail.
fn bench_crc32c(c: &mut Criterion) {
    let buf: Vec<u8> =
        (0..4u32 << 20).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
    for (name, len) in [("4 KiB", 4usize << 10), ("256 KiB", 256 << 10), ("4 MiB", 4 << 20)] {
        let mut g = c.benchmark_group("crc32c");
        g.throughput(Throughput::BytesDecimal(len as u64));
        g.bench_function(name, |b| b.iter(|| crc32c(black_box(&buf[..len]))));
        g.finish();
    }
    let mut g = c.benchmark_group("crc32c_combine");
    g.throughput(Throughput::Elements(1));
    let lens = [("4 KiB", 4u64 << 10), ("256 KiB", 256 << 10), ("1 MiB + 13 B", (1 << 20) + 13)];
    for (name, len) in lens {
        g.bench_function(name, |b| {
            let (a, b_crc) = (0x1234_5678, 0x9abc_def0);
            b.iter(|| crc32c_combine(black_box(a), black_box(b_crc), black_box(len)))
        });
    }
    g.finish();
}

fn bench_monitoring(c: &mut Criterion) {
    let mut g = c.benchmark_group("monitoring");
    // Filter ingest throughput.
    let event = sads_blob::probe::ProbeEvent::ChunkWritten {
        provider: NodeId(3),
        client: ClientId(9),
        key: ChunkKey { blob: BLOB, version: VersionId(1), page: 0 },
        bytes: 8 << 20,
    };
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("rate_filter_ingest_10k", |b| {
        b.iter(|| {
            let mut f = RateFilter::default();
            for _ in 0..10_000 {
                f.ingest(NodeId(3), &event, SimTime::ZERO);
            }
            f.flush(SimTime(1_000_000_000), 1.0)
        });
    });
    g.bench_function("burst_cache_10k", |b| {
        b.iter(|| {
            let mut cache: BurstCache<u64> = BurstCache::new(100_000, 1e9, SimTime::ZERO);
            for i in 0..10_000u64 {
                cache.offer(i);
            }
            cache.drain(SimTime(1_000_000_000)).len()
        });
    });
    g.finish();
}

fn bench_security(c: &mut Criterion) {
    let mut g = c.benchmark_group("security");
    let src = "policy dos { when rate(requests, window = 10s) > 200 and ratio(read_misses, requests, window = 10s) > 0.5 then block for 120s severity high }";
    g.bench_function("policy_parse", |b| {
        b.iter(|| PolicySet::parse(src).unwrap());
    });

    // Scan 50 clients × 200 events each against 3 policies.
    let set = sads_security::default_dos_policies();
    let mut history = ActivityHistory::new(SimDuration::from_secs(60));
    let mut records = Vec::new();
    for client in 0..50u64 {
        for i in 0..200u64 {
            records.push(ActivityRecord {
                at: SimTime(i * 50_000_000),
                client: ClientId(client),
                kind: if i % 3 == 0 { ActivityKind::ChunkRead } else { ActivityKind::ChunkWrite },
                blob: Some(BLOB),
                provider: Some(NodeId((client % 16) as u32)),
                chunk: None,
                bytes: 8 << 20,
            });
        }
    }
    history.ingest(&records);
    let trust = TrustManager::new(TrustConfig::default());
    g.throughput(Throughput::Elements(50));
    g.bench_function("engine_scan_50clients_10k_events", |b| {
        b.iter(|| scan(&set, &history, &trust, SimTime(10_000_000_000)));
    });
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    use sads_blob::runtime::sim::{bare, BlobRef, ScriptStep, ScriptedClient};
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    // End-to-end: 4 clients write 256 MB each through a 8-provider world;
    // measure wall time per simulated run (~events/sec of the DES).
    g.bench_function("e2e_4clients_1gb_total", |b| {
        b.iter(|| {
            let mut world = sads_sim::World::with_seed(1);
            let n = bare(&mut world, 1, 8, 1 << 40);
            let spec = BlobSpec { page_size: 8 << 20, replication: 1 };
            for i in 0..4 {
                world.add_node(
                    Box::new(ScriptedClient::new(
                        ClientId(10 + i),
                        n.vman,
                        n.pman,
                        n.meta.clone(),
                        sads_blob::ClientConfig::default(),
                        vec![
                            ScriptStep::Create(spec),
                            ScriptStep::Write {
                                blob: BlobRef::Created(0),
                                kind: sads_blob::WriteKind::Append,
                                bytes: 256 << 20,
                            },
                        ],
                        "c",
                    )),
                    sads_sim::NodeConfig::default(),
                );
            }
            world.run_for(SimDuration::from_secs(60), 10_000_000);
            world.events_processed()
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tree,
    bench_read_path,
    bench_bookkeeping,
    bench_executor,
    bench_flight_ring,
    bench_alloc,
    bench_chunk_store,
    bench_crc32c,
    bench_monitoring,
    bench_security,
    bench_simulator
);
criterion_main!(benches);
