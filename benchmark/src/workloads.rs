//! The four workloads. Each keeps a model of what it wrote (which pool
//! body sits in which range, page or key, at which version) and checks
//! every read against it.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::Instant;

use bytes::Bytes;
use sads_blob::provider::ChunkStore;
use sads_blob::runtime::threaded::{ClientHandle, Cluster};
use sads_blob::{BackendSpec, BlobId, BlobSpec, ClientId, WriteKind};
use sads_gateway::{Acl, GatewayConfig, ObjectGateway};
use sads_sim::SimTime;

use crate::driver::{check_bytes, start_cluster, Class, Env, Recorder, Workload};
use crate::gen::{self, Op, OpKind, Pool, OBJECT_SIZES, POOL_BUFS};

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;
/// Page size of every workload but `small_meta`.
const PAGE_256K: usize = 256 * KIB;

/// The single client cell every workload drives (and, on `gateway_disk`,
/// the bucket owner).
const CLIENT: ClientId = ClientId(1);

type Extras = BTreeMap<&'static str, f64>;

fn create_blob(client: &ClientHandle, page_size: usize, replication: u32) -> BlobId {
    client
        .create(BlobSpec {
            page_size: page_size as u64,
            replication,
        })
        .expect("create blob")
}

/// p50 of `ClientHandle::snapshot`, the smallest client → version manager
/// → client round trip, as the benchmark's own `client.snapshot` spans.
fn ctl_rtt_loop(client: &ClientHandle, blob: BlobId, rec: &mut Recorder) {
    for _ in 0..2_000 {
        let out = rec.call("client.snapshot", || client.snapshot(blob, None));
        rec.check("snapshot", out.map(drop).map_err(|e| e.to_string()));
    }
}

/// One write through the stream API: open, feed each part, commit.
fn stream_write(
    client: &ClientHandle,
    blob: BlobId,
    offset: u64,
    parts: &[Bytes],
    rec: &mut Recorder,
) -> (Result<(), String>, u64) {
    let len: usize = parts.iter().map(Bytes::len).sum();
    let t = Instant::now();
    let out = (|| {
        let mut h = rec.call("stream.open", || {
            client.open_write_stream(blob, WriteKind::At(offset), len as u64, None)
        })?;
        for part in parts {
            rec.call("stream.feed", || h.feed(part.clone()))?;
        }
        rec.call("stream.commit", || h.commit())
    })();
    let ns = t.elapsed().as_nanos() as u64;
    (out.map(drop).map_err(|e| e.to_string()), ns)
}

/// One read through the stream API: open, `next` to the end. The batches
/// are returned as delivered (no assembly) for the caller to verify.
fn stream_read(
    client: &ClientHandle,
    blob: BlobId,
    offset: u64,
    len: usize,
    rec: &mut Recorder,
) -> (Result<Vec<Bytes>, String>, u64) {
    let t = Instant::now();
    let out = (|| {
        let mut h = rec.call("stream.open", || {
            client.open_read_stream(blob, None, offset, len as u64, None)
        })?;
        // Stop on the byte count, not on `None`: the call after the last
        // batch does no work and would halve `stream.next`'s p50.
        let mut batches = Vec::new();
        while h.delivered() < h.len() {
            match rec.call("stream.next", || h.next())? {
                Some(b) => batches.push(b),
                None => break,
            }
        }
        Ok(batches)
    })();
    let ns = t.elapsed().as_nanos() as u64;
    (out.map_err(|e: sads_blob::BlobError| e.to_string()), ns)
}

/// Check stream batches, in order, against the bytes they should carry.
fn check_batches(batches: &[Bytes], want: &[u8], full: bool) -> Result<(), String> {
    let mut at = 0;
    for b in batches {
        let end = (at + b.len()).min(want.len());
        check_bytes(b, &want[at..end], full)?;
        at = end;
    }
    (at == want.len())
        .then_some(())
        .ok_or(format!("delivered {at} of {} bytes", want.len()))
}

// ---------------------------------------------------------------------
// seq_large
// ---------------------------------------------------------------------

/// 4 MiB classic writes, then 4 MiB classic reads of the latest version,
/// over one 256 MiB BLOB of 256 KiB pages: 16 pages per op, so checksums,
/// chunk stores, page cuts and the read-assembly buffer do most of the
/// work; the 2 047 tree nodes fit the client's 4 096-node cache.
pub struct SeqLarge {
    cluster: Cluster,
    client: ClientHandle,
    blob: BlobId,
    pool: Pool,
    /// Pool body last written to each 4 MiB range.
    last: Vec<u32>,
    acked: u64,
}

impl SeqLarge {
    const OP: usize = 4 * MIB;
    const SLOTS: u32 = gen::SEQ_LARGE_RANGES as u32;
}

impl Workload for SeqLarge {
    fn start(env: &Env) -> Self {
        let mut cluster = start_cluster(env, BackendSpec::Memory);
        let client = cluster.client(CLIENT);
        let blob = create_blob(&client, PAGE_256K, 1);
        let pool = Pool::new(env.seed, Self::OP);
        let last: Vec<u32> = (0..Self::SLOTS).map(|s| s % POOL_BUFS as u32).collect();
        for (slot, &body) in last.iter().enumerate() {
            client
                .write(
                    blob,
                    (slot * Self::OP) as u64,
                    pool.slice(body, 0, Self::OP),
                )
                .expect("preload write");
        }
        SeqLarge {
            cluster,
            client,
            blob,
            pool,
            last,
            acked: Self::SLOTS as u64,
        }
    }

    fn exec(&mut self, op: &Op, rec: &mut Recorder) {
        let offset = op.slot as u64 * Self::OP as u64;
        if op.kind == OpKind::Write {
            let body = self.pool.slice(op.body, 0, Self::OP);
            let (out, ns) = rec.timed("client.write", || {
                self.client.write(self.blob, offset, body)
            });
            if out.is_ok() {
                self.last[op.slot as usize] = op.body;
                self.acked += 1;
            }
            rec.finish(Class::Write, ns, out.map(drop));
        } else {
            let (out, ns) = rec.timed("client.read", || {
                self.client.read(self.blob, None, offset, Self::OP as u64)
            });
            let want = self.pool.slice(self.last[op.slot as usize], 0, Self::OP);
            rec.finish(
                Class::Read,
                ns,
                out.and_then(|got| check_bytes(&got, &want, op.full_check)),
            );
        }
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn acked_writes(&self) -> u64 {
        self.acked
    }

    fn side_loops(&mut self, rec: &mut Recorder) -> Extras {
        ctl_rtt_loop(&self.client, self.blob, rec);
        Extras::new()
    }

    fn shutdown(self, _traced: bool) -> Extras {
        self.cluster.shutdown();
        Extras::new()
    }
}

// ---------------------------------------------------------------------
// small_meta
// ---------------------------------------------------------------------

/// Single-page writes and four-page reads over one BLOB of 32 768 pages
/// of 4 KiB: tree depth 15 and 65 535 nodes, sixteen times the client's
/// metadata cache. Every write publishes a version and ~16 tree nodes;
/// half the reads go back to an older version. 4–16 KiB move per op, so
/// version manager, metadata store and tree code, RPC envelopes and
/// executor hops do nearly all the work.
pub struct SmallMeta {
    cluster: Cluster,
    client: ClientHandle,
    blob: BlobId,
    pool: Pool,
    /// Per page: `(version, page body)` of every write to it, ascending.
    history: Vec<Vec<(u64, u32)>>,
    /// Oldest version reads go back to: the one that completed preload.
    base: u64,
    latest: u64,
    acked: u64,
}

impl SmallMeta {
    const PAGE: usize = 4 * KIB;
    const PAGES: usize = gen::SMALL_META_PAGES as usize;
    /// Pages per pool buffer and per preload write. A page body `b` is
    /// page `b % 256` of pool buffer `b / 256`.
    const BUF_PAGES: usize = 256;

    fn page_body(&self, body: u32) -> Bytes {
        let (buf, page) = (
            body / Self::BUF_PAGES as u32,
            body as usize % Self::BUF_PAGES,
        );
        self.pool.slice(buf, page * Self::PAGE, Self::PAGE)
    }

    /// Body of `page` as of `version`.
    fn body_at(&self, page: usize, version: u64) -> u32 {
        let h = &self.history[page];
        h[h.partition_point(|&(v, _)| v <= version) - 1].1
    }
}

impl Workload for SmallMeta {
    fn start(env: &Env) -> Self {
        let mut cluster = start_cluster(env, BackendSpec::Memory);
        let client = cluster.client(CLIENT);
        let blob = create_blob(&client, Self::PAGE, 1);
        let pool = Pool::new(env.seed, Self::BUF_PAGES * Self::PAGE);
        let mut history = Vec::with_capacity(Self::PAGES);
        let writes = Self::PAGES / Self::BUF_PAGES;
        let mut latest = 0;
        for w in 0..writes {
            let buf = (w as u64 % POOL_BUFS) as u32;
            let offset = (w * Self::BUF_PAGES * Self::PAGE) as u64;
            let whole = pool.slice(buf, 0, Self::BUF_PAGES * Self::PAGE);
            latest = client.write(blob, offset, whole).expect("preload write").0;
            for page in 0..Self::BUF_PAGES as u32 {
                history.push(vec![(latest, buf * Self::BUF_PAGES as u32 + page)]);
            }
        }
        SmallMeta {
            cluster,
            client,
            blob,
            pool,
            history,
            base: latest,
            latest,
            acked: writes as u64,
        }
    }

    fn exec(&mut self, op: &Op, rec: &mut Recorder) {
        let page = op.slot as usize;
        let offset = (page * Self::PAGE) as u64;
        if op.kind == OpKind::Write {
            let body = self.page_body(op.body);
            let (out, ns) = rec.timed("client.write", || {
                self.client.write(self.blob, offset, body)
            });
            if let Ok(v) = &out {
                self.history[page].push((v.0, op.body));
                self.latest = v.0;
                self.acked += 1;
            }
            rec.finish(Class::Write, ns, out.map(drop));
            return;
        }
        // Latest, or uniform over the versions published since preload.
        let version = match op.kind {
            OpKind::ReadOld => self.base + op.pick % (self.latest - self.base + 1),
            _ => self.latest,
        };
        let at = (op.kind == OpKind::ReadOld).then_some(sads_blob::VersionId(version));
        let (out, ns) = rec.timed("client.read", || {
            self.client
                .read(self.blob, at, offset, 4 * Self::PAGE as u64)
        });
        let verdict = out.and_then(|got| {
            if got.len() != 4 * Self::PAGE {
                return Err(format!("length {} != {}", got.len(), 4 * Self::PAGE));
            }
            got.chunks(Self::PAGE).enumerate().try_for_each(|(i, p)| {
                check_bytes(
                    p,
                    &self.page_body(self.body_at(page + i, version)),
                    op.full_check,
                )
            })
        });
        rec.finish(Class::Read, ns, verdict);
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn acked_writes(&self) -> u64 {
        self.acked
    }

    fn side_loops(&mut self, rec: &mut Recorder) -> Extras {
        ctl_rtt_loop(&self.client, self.blob, rec);
        Extras::new()
    }

    fn shutdown(self, _traced: bool) -> Extras {
        self.cluster.shutdown();
        Extras::new()
    }
}

// ---------------------------------------------------------------------
// mixed_rw
// ---------------------------------------------------------------------

/// 1 MiB stream-API writes and reads interleaved op by op over one
/// 256 MiB BLOB of 256 KiB pages at replication 2. Half the reads target
/// one of the last eight ranges written; every read is checked against
/// the body last written to its range (read-your-writes). The layers of
/// `seq_large` used differently: writes beside reads, fresh versions
/// invalidating what the previous read warmed, two replicas per put,
/// stream sessions instead of classic ones.
pub struct MixedRw {
    cluster: Cluster,
    client: ClientHandle,
    blob: BlobId,
    pool: Pool,
    last: Vec<u32>,
    /// The last eight ranges written, oldest first.
    recent: VecDeque<u32>,
    acked: u64,
}

impl MixedRw {
    const OP: usize = MIB;
    const SLOTS: u32 = gen::MIXED_RW_RANGES as u32;

    fn write(&mut self, slot: u32, body: u32, rec: &mut Recorder) -> (Result<(), String>, u64) {
        let data = self.pool.slice(body, 0, Self::OP);
        let offset = slot as u64 * Self::OP as u64;
        let (out, ns) = stream_write(&self.client, self.blob, offset, &[data], rec);
        if out.is_ok() {
            self.last[slot as usize] = body;
            self.recent.push_back(slot);
            if self.recent.len() > 8 {
                self.recent.pop_front();
            }
            self.acked += 1;
        }
        (out, ns)
    }
}

impl Workload for MixedRw {
    fn start(env: &Env) -> Self {
        let mut cluster = start_cluster(env, BackendSpec::Memory);
        let client = cluster.client(CLIENT);
        let blob = create_blob(&client, PAGE_256K, 2);
        let mut w = MixedRw {
            cluster,
            client,
            blob,
            pool: Pool::new(env.seed, Self::OP),
            last: vec![0; Self::SLOTS as usize],
            recent: VecDeque::new(),
            acked: 0,
        };
        // Preload through the API the workload uses; its harness spans
        // and verdicts are not part of any round.
        let mut rec = Recorder::new(false);
        for slot in 0..Self::SLOTS {
            w.write(slot, slot % POOL_BUFS as u32, &mut rec)
                .0
                .expect("preload write");
        }
        w
    }

    fn exec(&mut self, op: &Op, rec: &mut Recorder) {
        if op.kind == OpKind::Write {
            let (out, ns) = self.write(op.slot, op.body, rec);
            rec.finish(Class::Write, ns, out);
            return;
        }
        let slot = match op.kind {
            OpKind::ReadRecent => self.recent[op.pick as usize % self.recent.len()],
            _ => op.slot,
        };
        let offset = slot as u64 * Self::OP as u64;
        let (out, ns) = stream_read(&self.client, self.blob, offset, Self::OP, rec);
        let want = self.pool.slice(self.last[slot as usize], 0, Self::OP);
        rec.finish(
            Class::Read,
            ns,
            out.and_then(|b| check_batches(&b, &want, op.full_check)),
        );
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn acked_writes(&self) -> u64 {
        self.acked
    }

    fn side_loops(&mut self, rec: &mut Recorder) -> Extras {
        ctl_rtt_loop(&self.client, self.blob, rec);
        Extras::new()
    }

    fn shutdown(self, _traced: bool) -> Extras {
        self.cluster.shutdown();
        Extras::new()
    }
}

// ---------------------------------------------------------------------
// gateway_disk
// ---------------------------------------------------------------------

/// What an S3 user sees: `ObjectGateway` over the disk backend, 128 keys,
/// objects of 16 KiB – 1 MiB (+13 bytes, never page-aligned), 10 % PUT
/// (overwrite), 50 % GET, 30 % 4 KiB ranged GET, 10 % HEAD/LIST. The only
/// workload where the gateway's etag and index, record encoding, frame
/// CRC, the log `write` and log recovery run at all. After the rounds
/// every data provider is killed and restarted from its log and every
/// key is read back byte for byte.
///
/// Flush policy is the program's own: `DiskBackend` writes each record
/// with `write_all` and never fsyncs, on both sides of any comparison.
/// Latencies are therefore the sandbox's page cache's, not a device's.
pub struct GatewayDisk {
    cluster: Cluster,
    client: ClientHandle,
    gateway: ObjectGateway,
    pool: Pool,
    backend: BackendSpec,
    root: PathBuf,
    keys: Vec<String>,
    /// Per key: pool body and size of the object it holds.
    objects: Vec<(u32, usize)>,
    /// User bytes PUT since start.
    put_bytes: u64,
    acked: u64,
}

const BUCKET: &str = "bench";

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl GatewayDisk {
    fn put(
        &mut self,
        key: u32,
        body: u32,
        size: usize,
        rec: &mut Recorder,
    ) -> (Result<(), String>, u64) {
        let data = self.pool.slice(body, 0, size);
        let name = &self.keys[key as usize];
        let (out, ns) = rec.timed("gateway.put", || {
            self.gateway.put_object(CLIENT, BUCKET, name, data)
        });
        if out.is_ok() {
            self.objects[key as usize] = (body, size);
            self.put_bytes += size as u64;
            self.acked += 1;
        }
        (out.map(drop), ns)
    }

    /// Keys sharing `key`'s three-character LIST prefix.
    fn prefix_len(&self, key: u32) -> usize {
        let prefix = &self.keys[key as usize][..3];
        self.keys.iter().filter(|k| k.starts_with(prefix)).count()
    }
}

impl Workload for GatewayDisk {
    fn start(env: &Env) -> Self {
        // A fresh directory per set-up: throwaway clusters must not
        // recover each other's logs.
        let root = (0..)
            .map(|i| env.run_dir.join(format!("gateway-{i}")))
            .find(|p| !p.exists());
        let root = root.expect("a free directory name");
        let backend = BackendSpec::disk(&root);
        let mut cluster = start_cluster(env, backend.clone());
        let client = cluster.client(CLIENT);
        let gateway = ObjectGateway::new(
            client.clone(),
            GatewayConfig {
                page_size: PAGE_256K as u64,
                replication: 1,
                ..Default::default()
            },
        );
        gateway
            .create_bucket(CLIENT, BUCKET, Acl::Private)
            .expect("create bucket");
        let keys: Vec<String> = (0..gen::GATEWAY_KEYS).map(|k| format!("k{k:03}")).collect();
        let mut w = GatewayDisk {
            cluster,
            client,
            gateway,
            pool: Pool::new(env.seed, OBJECT_SIZES[4]),
            backend,
            root,
            objects: vec![(0, 0); keys.len()],
            keys,
            put_bytes: 0,
            acked: 0,
        };
        let mut rec = Recorder::new(false);
        for key in 0..w.keys.len() as u32 {
            let size = OBJECT_SIZES[key as usize % OBJECT_SIZES.len()];
            w.put(key, key % POOL_BUFS as u32, size, &mut rec)
                .0
                .expect("preload put");
        }
        w
    }

    fn exec(&mut self, op: &Op, rec: &mut Recorder) {
        let name = &self.keys[op.slot as usize];
        let (body, size) = self.objects[op.slot as usize];
        match op.kind {
            OpKind::Write => {
                let size = OBJECT_SIZES[op.pick as usize % OBJECT_SIZES.len()];
                let (out, ns) = self.put(op.slot, op.body, size, rec);
                rec.finish(Class::Write, ns, out);
            }
            OpKind::Range => {
                let at = op.pick as usize % (size - 4 * KIB);
                let (out, ns) = rec.timed("gateway.range", || {
                    self.gateway
                        .get_object_range(CLIENT, BUCKET, name, at as u64, 4 * KIB as u64)
                });
                let want = self.pool.slice(body, at, 4 * KIB);
                rec.finish(
                    Class::Range,
                    ns,
                    out.and_then(|got| check_bytes(&got, &want, true)),
                );
            }
            OpKind::Head => {
                let (out, ns) = rec.timed("gateway.head", || {
                    self.gateway.head_object(CLIENT, BUCKET, name)
                });
                let verdict = out.and_then(|info| {
                    (info.size == size as u64)
                        .then_some(())
                        .ok_or(format!("size {}", info.size))
                });
                rec.finish(Class::HeadList, ns, verdict);
            }
            OpKind::List => {
                let (out, ns) = rec.timed("gateway.list", || {
                    self.gateway.list_objects(CLIENT, BUCKET, &name[..3], 16)
                });
                let want = self.prefix_len(op.slot);
                let verdict = out.and_then(|l| {
                    (l.len() == want)
                        .then_some(())
                        .ok_or(format!("{} keys, not {want}", l.len()))
                });
                rec.finish(Class::HeadList, ns, verdict);
            }
            _ => {
                let (out, ns) = rec.timed("gateway.get", || {
                    self.gateway.get_object(CLIENT, BUCKET, name)
                });
                let want = self.pool.slice(body, 0, size);
                rec.finish(
                    Class::Read,
                    ns,
                    out.and_then(|got| check_bytes(&got, &want, op.full_check)),
                );
            }
        }
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn acked_writes(&self) -> u64 {
        self.acked
    }

    /// The same object sizes written and read straight through the stream
    /// API on a scratch BLOB: what `put_object` adds on top of the client
    /// (etag, index, padding), and the `stream.*` costs below the gateway.
    fn side_loops(&mut self, rec: &mut Recorder) -> Extras {
        let mut extras = Extras::new();
        // Before the scratch writes below add to the log.
        extras.insert(
            "storage.write_amp",
            dir_bytes(&self.root) as f64 / self.put_bytes as f64,
        );

        let scratch = create_blob(&self.client, PAGE_256K, 1);
        let mut direct = Vec::new();
        for i in 0..300 {
            let size = OBJECT_SIZES[i % OBJECT_SIZES.len()];
            let data = self.pool.slice((i as u64 % POOL_BUFS) as u32, 0, size);
            let pad = Bytes::from(vec![0u8; size.next_multiple_of(PAGE_256K) - size]);
            let (out, ns) = stream_write(&self.client, scratch, 0, &[data.clone(), pad], rec);
            self.acked += out.is_ok() as u64;
            rec.check("direct stream write", out);
            direct.push(ns);
            let (out, _) = stream_read(&self.client, scratch, 0, size, rec);
            rec.check(
                "direct stream read",
                out.and_then(|b| check_batches(&b, &data, true)),
            );
        }
        let direct_p50_us = crate::stats::percentile(&mut direct, 0.5) as f64 / 1e3;
        extras.insert(
            "gateway.put_overhead_us",
            rec.p50_ms(Class::Write) * 1e3 - direct_p50_us,
        );
        ctl_rtt_loop(&self.client, scratch, rec);
        extras
    }

    fn verify(&mut self, rec: &mut Recorder) {
        for node in self.cluster.data.clone() {
            self.cluster.kill(node);
            let restarted = self.cluster.restart_data_provider(node, 1 << 40);
            rec.check(
                "restart data provider",
                restarted.then_some(()).ok_or("slot still live".into()),
            );
        }
        for (name, &(body, size)) in self.keys.iter().zip(&self.objects) {
            let got = self
                .gateway
                .get_object(CLIENT, BUCKET, name)
                .map_err(|e| e.to_string());
            let want = self.pool.slice(body, 0, size);
            rec.check(
                "read-back after restart",
                got.and_then(|g| check_bytes(&g, &want, true)),
            );
        }
    }

    /// Traced: time `ChunkStore::open` over each provider's log, the
    /// recovery a restart runs, single-threaded and outside the cluster.
    fn shutdown(self, traced: bool) -> Extras {
        let providers = self.cluster.data.len();
        self.cluster.shutdown();
        let mut extras = Extras::new();
        if traced {
            let t = Instant::now();
            let bytes: u64 = (0..providers)
                .map(|i| {
                    ChunkStore::open(1 << 40, &self.backend.for_provider(i), SimTime(0))
                        .1
                        .bytes
                })
                .sum();
            extras.insert(
                "storage.recover_mbps",
                bytes as f64 / 1e6 / t.elapsed().as_secs_f64(),
            );
        }
        // Best effort: the run directory's owner removes whatever is left.
        let _ = std::fs::remove_dir_all(&self.root);
        extras
    }
}
