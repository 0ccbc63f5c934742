//! Single-thread loops over public functions of single layers, at the
//! workload's page size and tree shape: the cost of a layer with no
//! cluster, no executor and no other layer around it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sads_blob::meta::{BaseSnapshot, MetaStore, NodeRef, TreeBuilder, TreeReader};
use sads_blob::provider::ChunkStore;
use sads_blob::storage::crc32c;
use sads_blob::{
    BackendConfig, BlobId, ChunkDescriptor, ChunkKey, DiskConfig, PageInterval, Payload, VersionId,
};
use sads_sim::{NodeId, SimTime};

use crate::gen::{Pool, Rng};
use crate::stats::percentile;

/// The shape a workload gives the layers: its page size, how many pages
/// its BLOB (or median object) has, and how many pages one op touches.
struct Shape {
    page: usize,
    blob_pages: u64,
    write_pages: u64,
    read_pages: u64,
}

fn shape(workload: &str) -> Shape {
    let (page, blob_pages, write_pages, read_pages) = match workload {
        "seq_large" => (256 << 10, 1024, 16, 16),
        "small_meta" => (4 << 10, 32_768, 1, 4),
        "mixed_rw" => (256 << 10, 1024, 4, 4),
        // One object of the largest class; the median PUT is two pages.
        "gateway_disk" => (256 << 10, 5, 2, 2),
        other => panic!("unknown workload {other}"),
    };
    Shape {
        page,
        blob_pages,
        write_pages,
        read_pages,
    }
}

const BLOB: BlobId = BlobId(1);

fn p50_us(mut ns: Vec<u64>) -> f64 {
    percentile(&mut ns, 0.5) as f64 / 1e3
}

fn key(version: u64, page: u64) -> ChunkKey {
    ChunkKey {
        blob: BLOB,
        version: VersionId(version),
        page,
    }
}

/// µs per call of `f`, as the median over batches of 64 calls (a single
/// sub-microsecond call is below the clock's resolution).
fn batched_p50_us(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let per_batch: Vec<u64> = (0..calls / 64)
        .map(|b| {
            let t = Instant::now();
            (b * 64..(b + 1) * 64).for_each(&mut f);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    p50_us(per_batch) / 64.0
}

/// Drive one `TreeBuilder` to completion against `store`, as the client
/// does over RPC: fetch what it asks for, build, store the nodes.
fn publish(
    store: &mut MetaStore,
    version: u64,
    at: PageInterval,
    s: &Shape,
    base: BaseSnapshot,
) -> NodeRef {
    let size = s.blob_pages * s.page as u64;
    let mut b = TreeBuilder::new(
        BLOB,
        VersionId(version),
        at,
        s.page as u64,
        size,
        base,
        Vec::new(),
    );
    while !b.is_ready() {
        for k in b.needed_fetches() {
            let node = store.get(&k).expect("base tree node").clone();
            b.supply(k, &node);
        }
    }
    let chunks: Vec<ChunkDescriptor> = (at.start..at.end())
        .map(|page| ChunkDescriptor {
            key: key(version, page),
            replicas: vec![NodeId(0)],
            size: s.page as u64,
        })
        .collect();
    let (nodes, root) = b.build(&chunks);
    for (k, n) in nodes {
        store.put(k, n);
    }
    root
}

/// `meta.*`: a version-1 tree over the whole BLOB, then 512 op-sized
/// overwrites at seeded pages (each timed: `tree_build_us`), then op-sized
/// descents of the latest version through `TreeReader` and `range_cover`.
fn meta_loops(s: &Shape, rng: &mut Rng, out: &mut BTreeMap<&'static str, f64>) {
    let mut store = MetaStore::new();
    let size = s.blob_pages * s.page as u64;
    let empty = BaseSnapshot {
        version: VersionId(0),
        size: 0,
        root: None,
    };
    let mut root = publish(&mut store, 1, PageInterval::new(0, s.blob_pages), s, empty);
    let mut build_ns = Vec::new();
    for version in 2..514 {
        let at = PageInterval::new(rng.below(s.blob_pages - s.write_pages + 1), s.write_pages);
        let base = BaseSnapshot {
            version: VersionId(version - 1),
            size,
            root: Some(root),
        };
        let t = Instant::now();
        root = publish(&mut store, version, at, s, base);
        build_ns.push(t.elapsed().as_nanos() as u64);
    }
    out.insert("meta.tree_build_us", p50_us(build_ns));

    let latest = VersionId(513);
    let (mut read_ns, mut cover_ns) = (Vec::new(), Vec::new());
    for _ in 0..512 {
        let q = PageInterval::new(rng.below(s.blob_pages - s.read_pages + 1), s.read_pages);
        let t = Instant::now();
        let mut r = TreeReader::new(BLOB, Some(root), q);
        while !r.is_done() {
            for k in r.needed_fetches() {
                r.supply(k, store.get(&k).expect("tree node"));
            }
        }
        black_box(r.into_sources());
        read_ns.push(t.elapsed().as_nanos() as u64);

        let t = Instant::now();
        black_box(store.range_cover(BLOB, latest, &q, None, 512));
        cover_ns.push(t.elapsed().as_nanos() as u64);
    }
    out.insert("meta.tree_read_us", p50_us(read_ns));
    out.insert("meta.range_cover_us", p50_us(cover_ns));
}

/// All single-layer loops for `workload`. `disk_dir` is given on the
/// workload whose chunk stores sit on the disk backend.
pub fn layer_loops(
    workload: &str,
    seed: u64,
    disk_dir: Option<&Path>,
) -> BTreeMap<&'static str, f64> {
    let s = shape(workload);
    let mut rng = Rng::new(seed ^ 0x6c61_7965_7273);
    let pool = Pool::new(seed, s.page);
    let page = |i: u64| Payload::Data(pool.slice((i % 8) as u32, 0, s.page));
    let mut out = BTreeMap::new();

    // 512 MiB through the checksum every put and every log frame pays.
    let buf = pool.slice(0, 0, s.page);
    let reps = (512 << 20) / s.page;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(crc32c(black_box(&buf)));
    }
    out.insert(
        "storage.crc32c_gbps",
        (reps * s.page) as f64 / 1e9 / t.elapsed().as_secs_f64(),
    );

    let store = ChunkStore::new(1 << 40);
    let now = SimTime(0);
    let put = batched_p50_us(4096, |i| store.put(key(1, i), page(i), now).expect("put"));
    out.insert("provider.store_put_us", put);
    let get = batched_p50_us(4096, |i| drop(black_box(store.get(&key(1, i), now))));
    out.insert("provider.store_get_us", get);

    // Record encoding + frame CRC + `write` into the log, no fsync.
    let mut append_us = 0.0;
    if let Some(dir) = disk_dir {
        let cfg = BackendConfig::Disk(DiskConfig::new(dir.join("layer-append")));
        let (store, _) = ChunkStore::open(1 << 40, &cfg, now);
        let ns = (0..512)
            .map(|i| {
                let t = Instant::now();
                store.put(key(1, i), page(i), now).expect("disk put");
                t.elapsed().as_nanos() as u64
            })
            .collect();
        append_us = p50_us(ns);
    }
    out.insert("storage.disk_append_us", append_us);

    meta_loops(&s, &mut rng, &mut out);
    out
}
