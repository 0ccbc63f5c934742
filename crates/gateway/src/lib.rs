//! # sads-gateway — a Cumulus-style, S3-compatible object store on
//! BlobSeer
//!
//! The paper's §V integration: "we interfaced BlobSeer with Cumulus, the
//! storage management component in Nimbus, designed to be
//! interface-compatible with Amazon S3. Preliminary results show that the
//! BlobSeer storage back end is able to sustain a promising data transfer
//! rate, while bringing an efficient support for concurrent accesses."
//!
//! This crate exposes the S3 object model — buckets, keys, ACLs, puts,
//! gets, lists — over the threaded BlobSeer runtime. Every object is
//! backed by one BLOB and the object's length is kept in the bucket
//! index, the technique Cumulus used over page-structured back ends. A
//! BLOB write covers whole pages, but the gateway pays only for the bytes
//! it was given: the rest of an object's last page is *declared* zeros
//! ([`sads_blob::BlobWriteHandle::feed_zeros`]), never allocated, sent
//! or stored, so the last chunk is as long as the object's tail and the
//! read paths zero-extend it (a GET never reads past the object's length
//! anyway). Overwrites publish new BLOB versions, which gives in-flight
//! GETs snapshot isolation for free.
//!
//! The gateway has no observation plane of its own. Each request is
//! counted, timed and — on a cluster built with a span sink — traced in
//! the registry, sink and clock of the cluster it fronts, so its
//! `/metrics` and `statusz` cover that cluster and a request's trace
//! runs from the S3 call down to the providers.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use sads_blob::runtime::threaded::{ClientHandle, CLIENT_GONE};
use sads_blob::storage::crc32c_combine;
use sads_blob::stream::BlobReadHandle;
use sads_blob::{BlobError, BlobId, BlobSpec, ClientId, VersionId, WriteKind};
use sads_sim::{SpanClass, SpanKind, SpanRecord, TraceCtx};
use sads_telemetry::{
    derive_health, Counter, HealthPolicy, HealthState, Histogram, SampleValue, Snapshot,
    HEARTBEAT_GAUGE,
};

/// Bucket-level access control, after S3's canned ACLs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Acl {
    /// Only the owner may read or write.
    Private,
    /// Anyone may read; only the owner writes.
    PublicRead,
}

/// Gateway errors, mirroring the S3 error vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum GatewayError {
    /// The multipart upload id is unknown (or already completed/aborted).
    NoSuchUpload,
    /// A part violates the upload's size contract.
    InvalidPart,
    /// The bucket does not exist.
    NoSuchBucket,
    /// The key does not exist in the bucket.
    NoSuchKey,
    /// The bucket name is taken.
    BucketAlreadyExists,
    /// The bucket still holds objects.
    BucketNotEmpty,
    /// The principal may not perform the operation.
    AccessDenied,
    /// Invalid bucket or object name.
    InvalidName,
    /// The storage back end is temporarily unreachable (every replica of
    /// some chunk is down, allocation found no live provider, or the
    /// operation timed out). The S3 analogue is `503 SlowDown` with a
    /// `Retry-After` header: the condition is expected to clear once
    /// crashed providers restart or the replication manager repairs the
    /// placement, so clients should retry after the hinted delay rather
    /// than treat the object as lost.
    Unavailable {
        /// Suggested client back-off before retrying, in seconds.
        retry_after_secs: u32,
    },
    /// The storage back end failed (non-transient: protocol violations,
    /// misalignment, permission blocks, …).
    Storage(BlobError),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Unavailable { retry_after_secs } => {
                write!(f, "ServiceUnavailable (retry after {retry_after_secs}s)")
            }
            GatewayError::Storage(e) => write!(f, "StorageError: {e}"),
            // Every other variant is a unit variant named as S3 names it.
            other => write!(f, "{other:?}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<BlobError> for GatewayError {
    fn from(e: BlobError) -> Self {
        match e {
            // Transient total-unavailability shapes surface as 503-with-
            // Retry-After so S3 clients back off and retry instead of
            // failing the request permanently. A client cell gone
            // mid-request is the cluster shutting down or restarting.
            BlobError::ChunkUnavailable(_)
            | BlobError::MetaUnavailable
            | BlobError::Timeout
            | BlobError::Protocol(CLIENT_GONE)
            | BlobError::AllocationFailed { .. } => {
                GatewayError::Unavailable { retry_after_secs: 5 }
            }
            other => GatewayError::Storage(other),
        }
    }
}

/// Metadata of one stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Object key.
    pub key: String,
    /// Logical size in bytes.
    pub size: u64,
    /// Backing BLOB.
    pub blob: BlobId,
    /// BLOB version holding the current object data.
    pub version: VersionId,
    /// CRC-32C (Castagnoli) of the object's own bytes — the checksum S3
    /// also offers for an object. It costs no pass over the body: the
    /// write session folds it from the page CRCs it cuts the body with,
    /// and a multipart object folds its parts' CRCs in part order, so it
    /// carries the tag a single PUT of the same bytes would. 32 bits and
    /// not cryptographic: equal tags say "very likely the same bytes",
    /// and nothing in the gateway compares them.
    pub etag: u32,
}

#[derive(Debug)]
struct Bucket {
    owner: ClientId,
    acl: Acl,
    objects: BTreeMap<String, ObjectInfo>,
}

/// Gateway configuration.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Page size for object BLOBs: the unit objects are cut, placed and
    /// fetched in. An object's last chunk is stored at its true length —
    /// the rest of that page is declared zeros, not written — so a small
    /// object costs its own bytes, not a page.
    pub page_size: u64,
    /// Replication degree for object BLOBs.
    pub replication: u32,
    /// Idle lifetime of an in-flight multipart upload. Uploads whose
    /// last part (or creation) is older than this are swept on the next
    /// `create_multipart`, counted in `gateway.multipart_expired` —
    /// without a bound, abandoned uploads leak forever.
    pub multipart_ttl: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            page_size: 256 * 1024,
            replication: 1,
            multipart_ttl: Duration::from_secs(24 * 3600),
        }
    }
}

/// Every op [`ObjectGateway::request`] counts, so each op's handles are
/// resolved once.
const OPS: [&str; 14] = [
    "create_bucket", "delete_bucket", "list_buckets", "list_objects", "put_object", "get_object",
    "head_object", "snapshot_object", "read_pinned", "delete_object", "create_multipart",
    "upload_part", "complete_multipart", "abort_multipart",
];

/// One op's `gateway.requests`, `gateway.errors` and `gateway.op_seconds`.
struct OpStats(Counter, Counter, Histogram);

/// The S3-compatible front end. Cheap to share behind an `Arc`; all
/// methods take the acting principal explicitly, as the HTTP layer would
/// after authentication. When the cluster was built with
/// [`ClusterBuilder::span_sink`], each request records one `gateway`
/// `Op` span, the backing BLOB ops nest under it, and its latency carries
/// the trace id as an exemplar.
///
/// [`ClusterBuilder::span_sink`]: sads_blob::runtime::threaded::ClusterBuilder::span_sink
pub struct ObjectGateway {
    /// Every client belongs to the same cluster; the first one reads its
    /// observation plane.
    clients: Vec<ClientHandle>,
    next_client: std::sync::atomic::AtomicUsize,
    cfg: GatewayConfig,
    buckets: Mutex<BTreeMap<String, Bucket>>,
    uploads: Mutex<BTreeMap<u64, Multipart>>,
    next_upload: std::sync::atomic::AtomicU64,
    /// Each op's handles, parallel to [`OPS`], made by its first request.
    ops: [std::sync::OnceLock<OpStats>; OPS.len()],
}

/// Response of a traced S3 request: the payload plus the trace id the
/// HTTP layer echoes back to the caller (the `x-sads-trace-id` response
/// header), letting a client correlate its request with the span tree
/// recorded server-side.
#[derive(Debug, Clone, PartialEq)]
pub struct Traced<T> {
    /// The S3 response body.
    pub body: T,
    /// Trace id of the request's span tree (the response-header echo);
    /// 0 when the cluster does not trace.
    pub trace_id: u64,
}

/// Bounded-memory streaming GET body, returned by
/// [`ObjectGateway::get_object_reader`].
///
/// Wraps a pinned [`sads_blob::BlobReadHandle`]: [`next`](Self::next)
/// returns the object's stored pages one at a time, as views — no byte
/// is copied between the provider's store and the caller — fetching at
/// most one window of pages off the wire when the previous one is used
/// up, so the caller — not the gateway — decides how much of the object
/// is resident at once.
#[derive(Debug)]
pub struct ObjectReader {
    handle: BlobReadHandle,
}

impl ObjectReader {
    /// Total bytes this reader will deliver (the requested range clamped
    /// to the object size at open).
    pub fn len(&self) -> u64 {
        self.handle.len()
    }

    /// Whether the reader delivers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.handle.is_empty()
    }

    /// Bytes delivered so far.
    pub fn delivered(&self) -> u64 {
        self.handle.delivered()
    }

    /// The next segment of the body (at most one page, never empty), or
    /// `None` at end of stream.
    // Not `Iterator`, for the same reason as `BlobReadHandle::next`:
    // an `Item = Result<_>` iterator invites dropping stream errors.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Bytes>, GatewayError> {
        Ok(self.handle.next()?)
    }

    /// Tear down the stream early; dropping the reader does the same
    /// best-effort.
    pub fn close(self) -> Result<(), GatewayError> {
        self.handle.close()?;
        Ok(())
    }
}

/// In-flight multipart upload state.
#[derive(Debug)]
struct Multipart {
    owner: ClientId,
    bucket: String,
    key: String,
    blob: BlobId,
    /// Fixed size of every part except the last (page multiple).
    part_size: u64,
    /// part number → (length, CRC-32C, publishing version).
    parts: BTreeMap<u32, (u64, u32, VersionId)>,
    /// When the upload last made progress (created, or a part landed) —
    /// the TTL sweep's staleness clock.
    last_touched: Instant,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 255
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "-._/".contains(c))
}

impl ObjectGateway {
    /// A gateway speaking to a BlobSeer cluster through `client`.
    pub fn new(client: ClientHandle, cfg: GatewayConfig) -> Self {
        Self::with_clients(vec![client], cfg)
    }

    /// A gateway multiplexing requests over a pool of BlobSeer clients
    /// (round-robin), so concurrent tenants do not serialize on a single
    /// client thread. The clients must all belong to one cluster: the
    /// gateway reads that cluster's registry, span sink, flight recorder
    /// and clock through the first of them.
    pub fn with_clients(clients: Vec<ClientHandle>, cfg: GatewayConfig) -> Self {
        assert!(!clients.is_empty(), "at least one client");
        ObjectGateway {
            clients,
            next_client: std::sync::atomic::AtomicUsize::new(0),
            cfg,
            buckets: Mutex::new(BTreeMap::new()),
            uploads: Mutex::new(BTreeMap::new()),
            next_upload: std::sync::atomic::AtomicU64::new(1),
            ops: Default::default(),
        }
    }

    /// Run one S3 request: count it in `gateway.requests{op=..}` (and
    /// `gateway.errors{op=..}` when it fails) and observe its latency on
    /// the cluster clock in `gateway.op_seconds{op=..}`. When the cluster
    /// traces, `f` gets the request's root context, under which the
    /// backing BLOB ops nest; the root is recorded as one `gateway` `Op`
    /// span, and the trace id the client receives in `x-sads-trace-id`
    /// is attached to the latency as an exemplar, so "what was one of
    /// the slow ones?" is answerable straight from a `/metrics` scrape.
    fn request<T>(
        &self,
        op: &'static str,
        f: impl FnOnce(Option<TraceCtx>) -> Result<T, GatewayError>,
    ) -> Result<T, GatewayError> {
        let (cluster, labels) = (&self.clients[0], [("op", op)]);
        let i = OPS.iter().position(|o| *o == op).expect("a listed op");
        let OpStats(requests, errors, seconds) = self.ops[i].get_or_init(|| {
            let t = cluster.telemetry();
            let (count, secs) = (|n| t.counter(n, &labels), "gateway.op_seconds");
            OpStats(count("gateway.requests"), count("gateway.errors"), t.histogram(secs, &labels))
        });
        requests.inc(1);
        let sink = cluster.span_sink();
        let trace =
            sink.map(|s| TraceCtx { trace_id: s.next_id(), span_id: s.next_id(), parent: 0 });
        let start_ns = cluster.now_ns();
        let out = f(trace);
        let end_ns = cluster.now_ns();
        let elapsed_s = end_ns.saturating_sub(start_ns) as f64 / 1e9;
        let trace_id = trace.map_or(0, |tc| tc.trace_id);
        seconds.observe_traced(elapsed_s, trace_id);
        if out.is_err() {
            errors.inc(1);
        }
        if let (Some(sink), Some(tc)) = (sink, trace) {
            sink.record(SpanRecord {
                trace: tc.trace_id,
                span: tc.span_id,
                parent: 0,
                service: "gateway",
                op,
                node: u64::MAX,
                start_ns,
                end_ns,
                kind: SpanKind::Op,
                class: SpanClass::Control,
                queue_ns: 0,
                xfer_ns: 0,
                wire_ns: 0,
            });
        }
        out
    }

    /// Render the cluster's registry in Prometheus text exposition
    /// format — the `/metrics` endpoint body. When the cluster traces,
    /// its span sink's drop counter and per-operation span statistics are
    /// refreshed into the registry first, so trace health is scraped
    /// alongside the metrics.
    pub fn get_metrics(&self) -> String {
        let telemetry = self.clients[0].telemetry();
        if let Some(sink) = self.clients[0].span_sink() {
            sads_telemetry::export_span_stats(telemetry, sink);
        }
        telemetry.render()
    }

    /// Structured point-in-time view of the cluster's registry, for
    /// programmatic consumers (the introspection timeseries ingester,
    /// tests).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.clients[0].telemetry().snapshot()
    }

    /// Render the plain-text `/statusz` page: uptime, per-node health
    /// verdicts, active and fired alerts, flight-recorder occupancy and
    /// the busiest counters. One fact per line — the page an operator
    /// reads first when paged, before reaching for the full `/metrics`
    /// firehose.
    pub fn statusz(&self) -> String {
        let snap = self.metrics_snapshot();
        let mut out = String::with_capacity(1024);
        out.push_str("=== gateway statusz ===\n");
        out.push_str(&format!("uptime_s: {:.3}\n", self.clients[0].now_ns() as f64 / 1e9));

        // Health. Heartbeat gauges carry the cluster's own clock, so the
        // freshest beat is the best "now" available to a reader that must
        // not assume which runtime (sim or threaded) wrote them.
        if let Some(now_s) = snap.gauge_max(HEARTBEAT_GAUGE) {
            let health = derive_health(&snap, now_s, &HealthPolicy::default());
            let ok = health.iter().filter(|h| h.state == HealthState::Ok).count();
            let degraded = health.iter().filter(|h| h.state == HealthState::Degraded).count();
            let down = health.iter().filter(|h| h.state == HealthState::Down).count();
            out.push_str(&format!(
                "health: {} nodes ok={ok} degraded={degraded} down={down}\n",
                health.len()
            ));
            for h in health.iter().filter(|h| h.state != HealthState::Ok) {
                out.push_str(&format!(
                    "  node {}: {:?} (last heartbeat {:.3}s, now {:.3}s)\n",
                    h.node, h.state, h.last_heartbeat_s, now_s
                ));
            }
        } else {
            out.push_str("health: no heartbeats recorded\n");
        }

        // Alerts: which burn-rate rules are burning right now, and how
        // often each has fired since startup.
        let mut active: Vec<&str> = snap
            .family("alerts.active")
            .filter(|s| matches!(s.value, SampleValue::Gauge(g) if g > 0.0))
            .filter_map(|s| s.labels.iter().find(|(k, _)| k == "rule").map(|(_, v)| v.as_str()))
            .collect();
        active.sort_unstable();
        out.push_str(&format!(
            "alerts: active=[{}] fired_total={}\n",
            active.join(","),
            snap.counter_total("alerts.fired").unwrap_or(0)
        ));
        for s in snap.family("alerts.fired") {
            if let SampleValue::Counter(c) = s.value {
                let rule = s.labels.iter().find(|(k, _)| k == "rule").map_or("?", |(_, v)| v);
                out.push_str(&format!("  fired {rule}: {c}\n"));
            }
        }

        // Flight recorder: ring occupancy plus the reason and time of the
        // most recent auto-capture, if any fired.
        match self.clients[0].flight_recorder() {
            Some(rec) => {
                out.push_str(&rec.summary());
                if let Some(dump) = rec.last_dump() {
                    out.push_str(&format!(
                        "  last dump #{}: {} at {}ns\n",
                        dump.seq, dump.reason, dump.at_ns
                    ));
                }
            }
            None => out.push_str("flight recorder: detached\n"),
        }

        // The busiest counters — a ten-line traffic sketch of the whole
        // deployment (requests, chunk ops, steals, faults, …).
        let mut counters: Vec<(String, u64)> = snap
            .samples
            .iter()
            .filter_map(|s| match s.value {
                SampleValue::Counter(c) => {
                    let labels: Vec<String> =
                        s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    let labels = labels.join(",");
                    let key = if labels.is_empty() {
                        s.name.clone()
                    } else {
                        format!("{}{{{labels}}}", s.name)
                    };
                    Some((key, c))
                }
                _ => None,
            })
            .collect();
        counters.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.push_str("top counters:\n");
        for (key, v) in counters.iter().take(10) {
            out.push_str(&format!("  {key} {v}\n"));
        }
        out
    }

    fn client(&self) -> &ClientHandle {
        let i = self.next_client.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        &self.clients[i % self.clients.len()]
    }

    /// Create a bucket owned by `principal`.
    pub fn create_bucket(
        &self,
        principal: ClientId,
        name: &str,
        acl: Acl,
    ) -> Result<(), GatewayError> {
        self.request("create_bucket", |_| {
            if !valid_name(name) {
                return Err(GatewayError::InvalidName);
            }
            let mut b = self.buckets.lock();
            if b.contains_key(name) {
                return Err(GatewayError::BucketAlreadyExists);
            }
            b.insert(name.to_owned(), Bucket { owner: principal, acl, objects: BTreeMap::new() });
            Ok(())
        })
    }

    /// Delete a bucket that holds no object and is the target of no open
    /// multipart upload (an upload completing into a deleted bucket could
    /// never publish, nor decommission its BLOB).
    pub fn delete_bucket(&self, principal: ClientId, name: &str) -> Result<(), GatewayError> {
        self.request("delete_bucket", |_| {
            let mut b = self.buckets.lock();
            let bucket = b.get(name).ok_or(GatewayError::NoSuchBucket)?;
            if bucket.owner != principal {
                return Err(GatewayError::AccessDenied);
            }
            if !bucket.objects.is_empty() || self.uploads.lock().values().any(|u| u.bucket == name)
            {
                return Err(GatewayError::BucketNotEmpty);
            }
            b.remove(name);
            Ok(())
        })
    }

    /// Buckets visible to the principal (owner or public).
    pub fn list_buckets(&self, principal: ClientId) -> Vec<String> {
        let listed = self.request("list_buckets", |_| {
            let b = self.buckets.lock();
            let visible = b.iter().filter(|(_, b)| b.owner == principal || b.acl == Acl::PublicRead);
            Ok(visible.map(|(n, _)| n.clone()).collect())
        });
        listed.unwrap_or_default()
    }

    fn check_write(&self, principal: ClientId, bucket: &Bucket) -> Result<(), GatewayError> {
        if bucket.owner != principal {
            return Err(GatewayError::AccessDenied);
        }
        Ok(())
    }

    fn check_read(&self, principal: ClientId, bucket: &Bucket) -> Result<(), GatewayError> {
        if bucket.owner != principal && bucket.acl != Acl::PublicRead {
            return Err(GatewayError::AccessDenied);
        }
        Ok(())
    }

    /// Store an object (overwrites an existing key).
    pub fn put_object(
        &self,
        principal: ClientId,
        bucket: &str,
        key: &str,
        data: Bytes,
    ) -> Result<ObjectInfo, GatewayError> {
        self.request("put_object", |trace| {
            self.put_object_inner(principal, bucket, key, data, trace)
        })
    }

    /// [`put_object`](ObjectGateway::put_object), also returning the
    /// request's trace id (0 when the cluster does not trace).
    pub fn put_object_traced(
        &self,
        principal: ClientId,
        bucket: &str,
        key: &str,
        data: Bytes,
    ) -> Result<Traced<ObjectInfo>, GatewayError> {
        self.request("put_object", |trace| {
            let body = self.put_object_inner(principal, bucket, key, data, trace)?;
            Ok(Traced { body, trace_id: trace.map_or(0, |tc| tc.trace_id) })
        })
    }

    fn put_object_inner(
        &self,
        principal: ClientId,
        bucket: &str,
        key: &str,
        data: Bytes,
        trace: Option<TraceCtx>,
    ) -> Result<ObjectInfo, GatewayError> {
        if !valid_name(key) {
            return Err(GatewayError::InvalidName);
        }
        // Resolve the backing blob under the lock, but do the transfers
        // outside it so concurrent clients stream in parallel.
        let existing = {
            let b = self.buckets.lock();
            let bucket_ref = b.get(bucket).ok_or(GatewayError::NoSuchBucket)?;
            self.check_write(principal, bucket_ref)?;
            bucket_ref.objects.get(key).map(|o| o.blob)
        };
        let blob = match existing {
            Some(blob) => blob,
            None => self.client().create_traced(self.blob_spec(), trace)?,
        };
        let size = data.len() as u64;
        // At least one page so empty objects still publish a version.
        let (version, crc) = self.stream_in(blob, WriteKind::At(0), data, 1, trace)?;
        let info = ObjectInfo { key: key.to_owned(), size, blob, version, etag: crc };
        let mut b = self.buckets.lock();
        let bucket_ref = b.get_mut(bucket).ok_or(GatewayError::NoSuchBucket)?;
        bucket_ref.objects.insert(key.to_owned(), info.clone());
        Ok(info)
    }

    fn blob_spec(&self) -> BlobSpec {
        BlobSpec { page_size: self.cfg.page_size, replication: self.cfg.replication }
    }

    /// Stream `data` into `blob` through a bounded-memory write handle:
    /// pages ship through the pipelined chunk path as they are fed (the
    /// client cell never buffers more than `chunk_window × page_size`
    /// bytes) as views of `data`. A BLOB write covers whole pages, so the
    /// rest of the last page — a whole page for an empty object, which
    /// still has to publish a version — is declared zeros rather than
    /// supplied: the last chunk is stored at the length of the object's
    /// tail and reads zero-extend it. Returns the published version and
    /// the CRC-32C of the object's own bytes, which the commit folds from
    /// its page CRCs: the body is read once.
    fn stream_in(
        &self,
        blob: BlobId,
        kind: WriteKind,
        data: Bytes,
        min_pages: u64,
        trace: Option<TraceCtx>,
    ) -> Result<(VersionId, u32), GatewayError> {
        let size = data.len() as u64;
        let page = self.cfg.page_size;
        let pages = size.div_ceil(page).max(min_pages);
        let mut h = self.client().open_write_stream(blob, kind, pages * page, trace)?;
        h.feed(data)?;
        h.feed_zeros(pages * page - size)?;
        let committed = h.commit()?;
        self.clients[0].telemetry().inc("gateway.put_stream_chunks", &[], pages);
        Ok(committed)
    }

    /// Fetch an object's full contents.
    pub fn get_object(
        &self,
        principal: ClientId,
        bucket: &str,
        key: &str,
    ) -> Result<Bytes, GatewayError> {
        self.get_object_range(principal, bucket, key, 0, u64::MAX)
    }

    /// [`get_object`](ObjectGateway::get_object), also returning the
    /// request's trace id (0 when the cluster does not trace).
    pub fn get_object_traced(
        &self,
        principal: ClientId,
        bucket: &str,
        key: &str,
    ) -> Result<Traced<Bytes>, GatewayError> {
        self.request("get_object", |trace| {
            let info = self.head_inner(principal, bucket, key)?;
            let body = self.read_pinned_inner(&info, 0, u64::MAX, trace)?;
            Ok(Traced { body, trace_id: trace.map_or(0, |tc| tc.trace_id) })
        })
    }

    /// Fetch a byte range of an object (S3 `Range` semantics: clamped to
    /// the object end).
    pub fn get_object_range(
        &self,
        principal: ClientId,
        bucket: &str,
        key: &str,
        offset: u64,
        len: u64,
    ) -> Result<Bytes, GatewayError> {
        self.request("get_object", |trace| {
            let info = self.head_inner(principal, bucket, key)?;
            self.read_pinned_inner(&info, offset, len, trace)
        })
    }

    /// Open a bounded-memory streaming reader over a byte range of an
    /// object (S3 `Range` semantics: clamped to the object end).
    ///
    /// The reader pins the object's current version at open — concurrent
    /// overwrites never tear the stream — and holds at most one window
    /// of `chunk_window` pages, handed out a page per
    /// [`ObjectReader::next`] call, so a multi-GB GET pins
    /// `O(chunk_window × page_size)` bytes regardless of object size.
    /// When the cluster traces, the reader's fetches join the request's
    /// trace, after its root span has closed.
    pub fn get_object_reader(
        &self,
        principal: ClientId,
        bucket: &str,
        key: &str,
        offset: u64,
        len: u64,
    ) -> Result<ObjectReader, GatewayError> {
        self.request("get_object", |trace| {
            let info = self.head_inner(principal, bucket, key)?;
            let len = if offset >= info.size { 0 } else { len.min(info.size - offset) };
            let handle =
                self.client().open_read_stream(info.blob, Some(info.version), offset, len, trace)?;
            Ok(ObjectReader { handle })
        })
    }

    /// Read through an [`ObjectInfo`] pin: always observes exactly the
    /// version recorded in the info, even across concurrent overwrites
    /// (the S3 `versionId` GET).
    pub fn read_pinned(
        &self,
        info: &ObjectInfo,
        offset: u64,
        len: u64,
    ) -> Result<Bytes, GatewayError> {
        self.request("read_pinned", |trace| self.read_pinned_inner(info, offset, len, trace))
    }

    fn read_pinned_inner(
        &self,
        info: &ObjectInfo,
        offset: u64,
        len: u64,
        trace: Option<TraceCtx>,
    ) -> Result<Bytes, GatewayError> {
        if offset >= info.size {
            return Ok(Bytes::new());
        }
        let len = len.min(info.size - offset);
        if len == 0 {
            return Ok(Bytes::new());
        }
        Ok(self.client().read_traced(info.blob, Some(info.version), offset, len, trace)?)
    }

    /// Object metadata without the body.
    pub fn head_object(
        &self,
        principal: ClientId,
        bucket: &str,
        key: &str,
    ) -> Result<ObjectInfo, GatewayError> {
        self.request("head_object", |_| self.head_inner(principal, bucket, key))
    }

    /// [`head_object`](ObjectGateway::head_object) body, outside a
    /// request so the GET paths that call it count as one request, not
    /// two.
    fn head_inner(
        &self,
        principal: ClientId,
        bucket: &str,
        key: &str,
    ) -> Result<ObjectInfo, GatewayError> {
        let b = self.buckets.lock();
        let bucket_ref = b.get(bucket).ok_or(GatewayError::NoSuchBucket)?;
        self.check_read(principal, bucket_ref)?;
        bucket_ref.objects.get(key).cloned().ok_or(GatewayError::NoSuchKey)
    }

    /// Remove an object (S3 `DELETE /objects/{key}`): decommissions the
    /// backing BLOB at the version manager — unpinning its snapshots and
    /// marking every version reclaimable — then drops the key from the
    /// bucket index. The bytes themselves are reclaimed asynchronously by
    /// the lifecycle GC sweeper; in-flight pinned GETs keep working until
    /// the sweep reaches their version.
    pub fn delete_object(
        &self,
        principal: ClientId,
        bucket: &str,
        key: &str,
    ) -> Result<(), GatewayError> {
        self.request("delete_object", |trace| {
            let blob = {
                let b = self.buckets.lock();
                let bucket_ref = b.get(bucket).ok_or(GatewayError::NoSuchBucket)?;
                self.check_write(principal, bucket_ref)?;
                bucket_ref.objects.get(key).ok_or(GatewayError::NoSuchKey)?.blob
            };
            // Decommission outside the lock (it is a round trip to the
            // version manager), before unlinking the key: a transient
            // failure leaves the object visible so the client's retry
            // finds it again.
            self.client().decommission_traced(blob, trace)?;
            let mut b = self.buckets.lock();
            let bucket_ref = b.get_mut(bucket).ok_or(GatewayError::NoSuchBucket)?;
            bucket_ref.objects.remove(key);
            Ok(())
        })
    }

    /// Pin the object's current content as a snapshot (S3-ish
    /// `POST /objects/{key}/snapshots`): an O(1), metadata-only operation
    /// at the version manager — the backing version's segment tree is
    /// shared, not copied — that makes the pinned version a lifecycle GC
    /// root. The returned [`ObjectInfo`] reads the snapshotted bytes via
    /// [`read_pinned`](ObjectGateway::read_pinned) regardless of later
    /// overwrites or retention sweeps.
    pub fn snapshot_object(
        &self,
        principal: ClientId,
        bucket: &str,
        key: &str,
    ) -> Result<ObjectInfo, GatewayError> {
        self.request("snapshot_object", |trace| {
            let info = {
                let b = self.buckets.lock();
                let bucket_ref = b.get(bucket).ok_or(GatewayError::NoSuchBucket)?;
                self.check_write(principal, bucket_ref)?;
                bucket_ref.objects.get(key).cloned().ok_or(GatewayError::NoSuchKey)?
            };
            let pinned = self.client().snapshot_traced(info.blob, Some(info.version), trace)?;
            Ok(ObjectInfo { version: pinned, ..info })
        })
    }

    /// Begin a multipart upload (S3 `CreateMultipartUpload`). Every part
    /// except the last must be exactly `part_size` bytes, and `part_size`
    /// must be a positive multiple of the gateway page size — parts map
    /// directly onto page-aligned BLOB writes, so they may be uploaded
    /// concurrently and in any order.
    pub fn create_multipart(
        &self,
        principal: ClientId,
        bucket: &str,
        key: &str,
        part_size: u64,
    ) -> Result<u64, GatewayError> {
        self.request("create_multipart", |trace| {
            if !valid_name(key) {
                return Err(GatewayError::InvalidName);
            }
            if part_size == 0 || !part_size.is_multiple_of(self.cfg.page_size) {
                return Err(GatewayError::InvalidPart);
            }
            {
                let b = self.buckets.lock();
                let bucket_ref = b.get(bucket).ok_or(GatewayError::NoSuchBucket)?;
                self.check_write(principal, bucket_ref)?;
            }
            // Lazy TTL sweep: uploads that were never completed or
            // aborted would otherwise sit in the map forever.
            self.sweep_stale_uploads();
            let blob = self.client().create_traced(self.blob_spec(), trace)?;
            let id = self.next_upload.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // The upload is registered under the bucket lock, so a
            // `delete_bucket` since the check above either went first (the
            // BLOB is given back) or now sees the upload and refuses.
            let b = self.buckets.lock();
            if !b.contains_key(bucket) {
                drop(b);
                self.client().decommission_traced(blob, trace)?;
                return Err(GatewayError::NoSuchBucket);
            }
            self.uploads.lock().insert(
                id,
                Multipart {
                    owner: principal,
                    bucket: bucket.to_owned(),
                    key: key.to_owned(),
                    blob,
                    part_size,
                    parts: BTreeMap::new(),
                    last_touched: Instant::now(),
                },
            );
            Ok(id)
        })
    }

    /// Drop every multipart upload idle for longer than
    /// [`GatewayConfig::multipart_ttl`], decommissioning its backing BLOB
    /// so the uploaded part bytes become reclaimable. Counted in
    /// `gateway.multipart_expired`. Runs lazily on `create_multipart`;
    /// callable directly from an operator tick as well.
    pub fn sweep_stale_uploads(&self) -> usize {
        let ttl = self.cfg.multipart_ttl;
        let stale: Vec<(u64, BlobId)> = {
            let u = self.uploads.lock();
            u.iter()
                .filter(|(_, up)| up.last_touched.elapsed() > ttl)
                .map(|(id, up)| (*id, up.blob))
                .collect()
        };
        let mut expired = 0usize;
        for (id, blob) in stale {
            // Re-check under the lock: a racing part upload refreshes
            // the clock and keeps its upload alive.
            let still_stale = {
                let mut u = self.uploads.lock();
                match u.get(&id) {
                    Some(up) if up.last_touched.elapsed() > ttl => {
                        u.remove(&id);
                        true
                    }
                    _ => false,
                }
            };
            if still_stale {
                // Best-effort: the sweep must not fail creation because a
                // decommission round trip hit a transient outage.
                let _ = self.client().decommission(blob);
                expired += 1;
                self.clients[0].telemetry().inc("gateway.multipart_expired", &[], 1);
            }
        }
        expired
    }

    /// Upload one part (1-based part numbers, S3 `UploadPart`). Parts may
    /// arrive concurrently and out of order; re-uploading a part number
    /// replaces it.
    pub fn upload_part(
        &self,
        principal: ClientId,
        upload_id: u64,
        part_number: u32,
        data: Bytes,
    ) -> Result<(), GatewayError> {
        self.request("upload_part", |trace| {
            let (blob, part_size, offset) = {
                let u = self.uploads.lock();
                let up = u.get(&upload_id).ok_or(GatewayError::NoSuchUpload)?;
                if up.owner != principal {
                    return Err(GatewayError::AccessDenied);
                }
                if part_number == 0 || data.is_empty() || data.len() as u64 > up.part_size {
                    return Err(GatewayError::InvalidPart);
                }
                (up.blob, up.part_size, (part_number as u64 - 1) * up.part_size)
            };
            let size = data.len() as u64;
            // Stream the part into the blob at its slot: a short last part
            // ends in a chunk of its true length (the rest of that page is
            // declared zeros); nothing is buffered in the uploads map.
            let (version, crc) = self.stream_in(blob, WriteKind::At(offset), data, 0, trace)?;
            let mut u = self.uploads.lock();
            let up = u.get_mut(&upload_id).ok_or(GatewayError::NoSuchUpload)?;
            debug_assert_eq!(up.part_size, part_size);
            up.parts.insert(part_number, (size, crc, version));
            up.last_touched = Instant::now();
            Ok(())
        })
    }

    /// Complete a multipart upload (S3 `CompleteMultipartUpload`): part
    /// numbers must be contiguous from 1 and every part except the last
    /// must be full-sized. Publishes the assembled object.
    pub fn complete_multipart(
        &self,
        principal: ClientId,
        upload_id: u64,
    ) -> Result<ObjectInfo, GatewayError> {
        self.request("complete_multipart", |_| {
            // Both locks, in `delete_bucket`'s order: the upload leaves the
            // uploads map only as its object enters the bucket, so a delete
            // never finds the bucket empty in between.
            let mut b = self.buckets.lock();
            let mut u = self.uploads.lock();
            let up = u.get(&upload_id).ok_or(GatewayError::NoSuchUpload)?;
            if up.owner != principal {
                return Err(GatewayError::AccessDenied);
            }
            let n = up.parts.len() as u32;
            if n == 0 || *up.parts.keys().last().expect("nonempty") != n {
                return Err(GatewayError::InvalidPart);
            }
            let mut size = 0u64;
            let mut crc = 0;
            let mut version = VersionId(0);
            for (num, (len, part_crc, part_version)) in &up.parts {
                if *num != n && *len != up.part_size {
                    return Err(GatewayError::InvalidPart);
                }
                size += len;
                crc = crc32c_combine(crc, *part_crc, *len);
                version = version.max(*part_version);
            }
            let info = ObjectInfo { key: up.key.clone(), size, blob: up.blob, version, etag: crc };
            let bucket_ref = b.get_mut(&up.bucket).ok_or(GatewayError::NoSuchBucket)?;
            let up = u.remove(&upload_id).expect("present");
            bucket_ref.objects.insert(up.key, info.clone());
            Ok(info)
        })
    }

    /// Abort a multipart upload (S3 `AbortMultipartUpload`): decommissions
    /// the upload's BLOB, so the lifecycle sweeper may reclaim its parts,
    /// then drops the upload state.
    pub fn abort_multipart(&self, principal: ClientId, upload_id: u64) -> Result<(), GatewayError> {
        self.request("abort_multipart", |trace| {
            let blob = {
                let u = self.uploads.lock();
                let up = u.get(&upload_id).ok_or(GatewayError::NoSuchUpload)?;
                if up.owner != principal {
                    return Err(GatewayError::AccessDenied);
                }
                up.blob
            };
            // Decommission outside the lock and before unlinking, as
            // `delete_object` does: a transient failure leaves the upload
            // in place for a retry.
            self.client().decommission_traced(blob, trace)?;
            self.uploads.lock().remove(&upload_id);
            Ok(())
        })
    }

    /// Keys in a bucket starting with `prefix`, up to `max_keys`, in key
    /// order.
    pub fn list_objects(
        &self,
        principal: ClientId,
        bucket: &str,
        prefix: &str,
        max_keys: usize,
    ) -> Result<Vec<ObjectInfo>, GatewayError> {
        self.request("list_objects", |_| {
            let b = self.buckets.lock();
            let bucket_ref = b.get(bucket).ok_or(GatewayError::NoSuchBucket)?;
            self.check_read(principal, bucket_ref)?;
            Ok(bucket_ref
                .objects
                .range(prefix.to_owned()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .take(max_keys)
                .map(|(_, o)| o.clone())
                .collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sads_blob::runtime::threaded::{Cluster, ClusterBuilder};
    use sads_sim::SpanSink;
    use std::sync::Arc;

    fn cluster_and_gateway() -> (Cluster, ObjectGateway) {
        gateway_over(None)
    }

    /// A gateway over a fresh cluster, which traces into `sink` if given.
    fn gateway_over(sink: Option<&Arc<SpanSink>>) -> (Cluster, ObjectGateway) {
        let mut builder =
            ClusterBuilder::new().data_providers(4).meta_providers(2).provider_capacity(256 << 20);
        if let Some(sink) = sink {
            builder = builder.span_sink(Arc::clone(sink));
        }
        let mut cluster = builder.start();
        let client = cluster.client(ClientId(1000));
        let gw = ObjectGateway::new(
            client,
            GatewayConfig { page_size: 64 * 1024, replication: 1, ..Default::default() },
        );
        (cluster, gw)
    }

    const ALICE: ClientId = ClientId(1);
    const BOB: ClientId = ClientId(2);

    fn body(n: usize, seed: u8) -> Bytes {
        Bytes::from((0..n).map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed)).collect::<Vec<u8>>())
    }

    #[test]
    fn traced_requests_echo_trace_id_and_span_the_backend() {
        let sink = Arc::new(SpanSink::new());
        let (cluster, gw) = gateway_over(Some(&sink));
        gw.create_bucket(ALICE, "t", Acl::Private).unwrap();
        let data = body(200_000, 5);
        let put = gw.put_object_traced(ALICE, "t", "k", data.clone()).unwrap();
        assert_ne!(put.trace_id, 0, "put echoes a trace id");
        let got = gw.get_object_traced(ALICE, "t", "k").unwrap();
        assert_eq!(got.body, data);
        assert_ne!(got.trace_id, 0);
        assert_ne!(got.trace_id, put.trace_id, "one trace per request");
        // A streaming GET's fetches join its request's trace, even those
        // made after the request returned the reader.
        let mut reader = gw.get_object_reader(ALICE, "t", "k", 0, u64::MAX).unwrap();
        while reader.next().unwrap().is_some() {}
        cluster.shutdown();

        let spans = sink.spans();
        // The PUT trace holds the gateway root, the nested client write
        // op, and provider-side handles — one causal tree per request.
        let in_put: Vec<_> = spans.iter().filter(|s| s.trace == put.trace_id).collect();
        assert!(in_put
            .iter()
            .any(|s| s.service == "gateway" && s.op == "put_object" && s.kind == SpanKind::Op));
        let client_write = in_put
            .iter()
            .find(|s| s.service == "client" && s.op == "write_stream")
            .expect("client write stream nests in the gateway trace");
        assert_ne!(client_write.parent, 0, "write stream hangs off the gateway root");
        assert!(in_put.iter().any(|s| s.service == "provider"));
        // The GET trace likewise covers the nested read.
        assert!(spans
            .iter()
            .any(|s| s.trace == got.trace_id && s.service == "client" && s.op == "read"));
        let streamed = spans
            .iter()
            .find(|s| s.service == "client" && s.op == "read_stream")
            .expect("the reader's stream is traced");
        let root = spans
            .iter()
            .find(|s| s.span == streamed.parent)
            .expect("the stream hangs off a root");
        assert_eq!((root.service, root.op, root.trace), ("gateway", "get_object", streamed.trace));
        assert!(
            spans.iter().any(|s| s.trace == root.trace && s.op == "stream_next"),
            "the reader's fetches are in the request's trace"
        );
    }

    #[test]
    fn traced_latencies_surface_as_metrics_exemplars() {
        let sink = Arc::new(SpanSink::new());
        let (cluster, gw) = gateway_over(Some(&sink));
        gw.create_bucket(ALICE, "x", Acl::Private).unwrap();
        let put = gw.put_object_traced(ALICE, "x", "k", body(10_000, 4)).unwrap();
        let get = gw.get_object_traced(ALICE, "x", "k").unwrap();
        let text = gw.get_metrics();
        // The trace ids echoed to the client reappear on the op_seconds
        // buckets their latencies landed in.
        assert!(
            text.contains(&format!("trace_id=\"{:x}\"", put.trace_id)),
            "put exemplar missing:\n{text}"
        );
        assert!(
            text.contains(&format!("trace_id=\"{:x}\"", get.trace_id)),
            "get exemplar missing:\n{text}"
        );
        // And the exposition round-trips through the parser, exemplars
        // included.
        let parsed = sads_telemetry::parse_prometheus(&text).expect("exposition parses");
        assert!(parsed
            .iter()
            .any(|s| s.exemplar.as_ref().is_some_and(|(tid, _)| *tid == format!("{:x}", put.trace_id))));
        cluster.shutdown();
    }

    #[test]
    fn statusz_renders_health_alerts_recorder_and_top_counters() {
        let (cluster, gw) = cluster_and_gateway();
        let reg = cluster.telemetry();
        let rec = cluster.flight_recorder().expect("recorder is on by default");

        gw.create_bucket(ALICE, "s", Acl::Private).unwrap();
        gw.put_object(ALICE, "s", "k", body(4096, 7)).unwrap();

        // Paint a known health/alert picture over whatever the cluster
        // heartbeats wrote: one fresh node, one long-silent node, one
        // burning rule.
        reg.set(HEARTBEAT_GAUGE, &[("node", "9001")], 1_000_000.0);
        reg.set(HEARTBEAT_GAUGE, &[("node", "9002")], 10.0);
        reg.set("alerts.active", &[("rule", "read_rate_burn")], 1.0);
        reg.inc("alerts.fired", &[("rule", "read_rate_burn")], 3);
        rec.trigger_dump("statusz-test", "synthetic", 123);

        let page = gw.statusz();
        assert!(page.contains("uptime_s:"), "{page}");
        assert!(page.contains("health:"), "{page}");
        assert!(page.contains("node 9002: Down"), "{page}");
        assert!(page.contains("active=[read_rate_burn]"), "{page}");
        assert!(page.contains("fired read_rate_burn: 3"), "{page}");
        assert!(page.contains("flight recorder:"), "{page}");
        assert!(page.contains("last dump #1: statusz-test"), "{page}");
        // The PUT left request counters behind; the busiest-counter
        // sketch must include the gateway family.
        assert!(page.contains("top counters:"), "{page}");
        assert!(page.contains("gateway.requests{op=put_object}"), "{page}");
        cluster.shutdown();
    }

    #[test]
    fn put_get_roundtrip_with_odd_sizes() {
        let (cluster, gw) = cluster_and_gateway();
        gw.create_bucket(ALICE, "data", Acl::Private).unwrap();
        // An object that is NOT a page multiple: the declared zeros behind
        // its last byte must be invisible.
        let data = body(100_001, 3);
        let info = gw.put_object(ALICE, "data", "a/b.bin", data.clone()).unwrap();
        assert_eq!(info.size, 100_001);
        let got = gw.get_object(ALICE, "data", "a/b.bin").unwrap();
        assert_eq!(got, data);
        // Range read, clamped at the logical end.
        let got = gw.get_object_range(ALICE, "data", "a/b.bin", 99_000, 5_000).unwrap();
        assert_eq!(&got[..], &data[99_000..]);
        let h = gw.head_object(ALICE, "data", "a/b.bin").unwrap();
        assert_eq!(h.etag, info.etag);
        cluster.shutdown();
    }

    #[test]
    fn streaming_reader_matches_range_reads() {
        let (cluster, gw) = cluster_and_gateway();
        gw.create_bucket(ALICE, "s", Acl::Private).unwrap();
        let data = body(5 * 64 * 1024 + 777, 9);
        gw.put_object(ALICE, "s", "obj", data.clone()).unwrap();

        // Full-object stream reassembles the body.
        let mut r = gw.get_object_reader(ALICE, "s", "obj", 0, u64::MAX).unwrap();
        assert_eq!(r.len(), data.len() as u64);
        let mut got = Vec::new();
        while let Some(chunk) = r.next().unwrap() {
            got.extend_from_slice(&chunk);
        }
        assert_eq!(&got[..], &data[..]);

        // Unaligned range, clamped at the logical object end (the zeros
        // declared behind it stay invisible).
        let (off, len) = (64 * 1024 + 13, u64::MAX);
        let mut r = gw.get_object_reader(ALICE, "s", "obj", off, len).unwrap();
        assert_eq!(r.len(), data.len() as u64 - off);
        let mut got = Vec::new();
        while let Some(chunk) = r.next().unwrap() {
            got.extend_from_slice(&chunk);
        }
        assert_eq!(&got[..], &data[off as usize..]);

        // Offset past the end streams nothing; early close is clean.
        let mut r = gw.get_object_reader(ALICE, "s", "obj", data.len() as u64 + 1, 10).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.next().unwrap(), None);
        let r = gw.get_object_reader(ALICE, "s", "obj", 0, u64::MAX).unwrap();
        r.close().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn overwrite_changes_version_and_content() {
        let (cluster, gw) = cluster_and_gateway();
        gw.create_bucket(ALICE, "b", Acl::Private).unwrap();
        let v1 = gw.put_object(ALICE, "b", "k", body(1000, 1)).unwrap();
        let v2 = gw.put_object(ALICE, "b", "k", body(500, 2)).unwrap();
        assert_eq!(v1.blob, v2.blob, "same backing blob");
        assert!(v2.version > v1.version);
        let got = gw.get_object(ALICE, "b", "k").unwrap();
        assert_eq!(got.len(), 500);
        assert_eq!(got, body(500, 2));
        cluster.shutdown();
    }

    #[test]
    fn acl_enforcement() {
        let (cluster, gw) = cluster_and_gateway();
        gw.create_bucket(ALICE, "private", Acl::Private).unwrap();
        gw.create_bucket(ALICE, "public", Acl::PublicRead).unwrap();
        gw.put_object(ALICE, "private", "secret", body(10, 1)).unwrap();
        gw.put_object(ALICE, "public", "page", body(10, 2)).unwrap();
        assert_eq!(
            gw.get_object(BOB, "private", "secret").unwrap_err(),
            GatewayError::AccessDenied
        );
        assert!(gw.get_object(BOB, "public", "page").is_ok());
        assert!(matches!(
            gw.put_object(BOB, "public", "vandalism", body(1, 0)),
            Err(GatewayError::AccessDenied)
        ));
        assert_eq!(gw.list_buckets(BOB), vec!["public".to_owned()]);
        cluster.shutdown();
    }

    #[test]
    fn bucket_lifecycle_and_errors() {
        let (cluster, gw) = cluster_and_gateway();
        assert_eq!(gw.create_bucket(ALICE, "", Acl::Private), Err(GatewayError::InvalidName));
        gw.create_bucket(ALICE, "b", Acl::Private).unwrap();
        assert_eq!(
            gw.create_bucket(BOB, "b", Acl::Private),
            Err(GatewayError::BucketAlreadyExists)
        );
        assert_eq!(gw.get_object(ALICE, "nope", "k"), Err(GatewayError::NoSuchBucket));
        assert_eq!(gw.get_object(ALICE, "b", "k"), Err(GatewayError::NoSuchKey));
        gw.put_object(ALICE, "b", "k", body(10, 1)).unwrap();
        assert_eq!(gw.delete_bucket(ALICE, "b"), Err(GatewayError::BucketNotEmpty));
        assert_eq!(gw.delete_bucket(BOB, "b"), Err(GatewayError::AccessDenied));
        gw.delete_object(ALICE, "b", "k").unwrap();
        assert_eq!(gw.delete_object(ALICE, "b", "k"), Err(GatewayError::NoSuchKey));
        gw.delete_bucket(ALICE, "b").unwrap();
        assert_eq!(gw.get_object(ALICE, "b", "k"), Err(GatewayError::NoSuchBucket));
        cluster.shutdown();
    }

    #[test]
    fn list_with_prefix_is_ordered_and_bounded() {
        let (cluster, gw) = cluster_and_gateway();
        gw.create_bucket(ALICE, "b", Acl::Private).unwrap();
        for k in ["logs/1", "logs/2", "logs/3", "img/1"] {
            gw.put_object(ALICE, "b", k, body(8, 0)).unwrap();
        }
        let keys: Vec<String> = gw
            .list_objects(ALICE, "b", "logs/", 10)
            .unwrap()
            .into_iter()
            .map(|o| o.key)
            .collect();
        assert_eq!(keys, vec!["logs/1", "logs/2", "logs/3"]);
        let keys = gw.list_objects(ALICE, "b", "logs/", 2).unwrap();
        assert_eq!(keys.len(), 2);
        let all = gw.list_objects(ALICE, "b", "", 10).unwrap();
        assert_eq!(all.len(), 4);
        cluster.shutdown();
    }

    #[test]
    fn delete_decommissions_the_backing_blob() {
        let (mut cluster, gw) = cluster_and_gateway();
        gw.create_bucket(ALICE, "b", Acl::Private).unwrap();
        let info = gw.put_object(ALICE, "b", "k", body(1000, 1)).unwrap();
        gw.delete_object(ALICE, "b", "k").unwrap();
        assert_eq!(gw.get_object(ALICE, "b", "k"), Err(GatewayError::NoSuchKey));
        // The backing BLOB was decommissioned at the version manager: it
        // takes no new pins and no new writes.
        let probe = cluster.client(ClientId(2000));
        assert!(probe.snapshot(info.blob, None).is_err(), "decommissioned blob refuses pins");
        // Re-putting the key gets a fresh BLOB — decommissioned ids are
        // never reused.
        let again = gw.put_object(ALICE, "b", "k", body(1000, 2)).unwrap();
        assert_ne!(again.blob, info.blob);
        let snap = gw.metrics_snapshot();
        assert_eq!(snap.counter("gateway.requests", &[("op", "delete_object")]), Some(1));
        cluster.shutdown();
    }

    #[test]
    fn snapshot_object_pins_the_current_version() {
        let (cluster, gw) = cluster_and_gateway();
        gw.create_bucket(ALICE, "b", Acl::PublicRead).unwrap();
        let d1 = body(150_000, 1);
        gw.put_object(ALICE, "b", "k", d1.clone()).unwrap();
        let pin = gw.snapshot_object(ALICE, "b", "k").unwrap();
        assert_eq!(pin.version, gw.head_object(ALICE, "b", "k").unwrap().version);
        // Snapshots are owner-only mutations even on public-read buckets,
        // and unknown keys surface as NoSuchKey.
        assert_eq!(
            gw.snapshot_object(BOB, "b", "k"),
            Err(GatewayError::AccessDenied)
        );
        assert_eq!(
            gw.snapshot_object(ALICE, "b", "missing"),
            Err(GatewayError::NoSuchKey)
        );
        // The pin keeps serving the snapshotted bytes across overwrites.
        gw.put_object(ALICE, "b", "k", body(150_000, 2)).unwrap();
        assert_eq!(gw.read_pinned(&pin, 0, pin.size).unwrap(), d1);
        let snap = gw.metrics_snapshot();
        assert_eq!(snap.counter("gateway.requests", &[("op", "snapshot_object")]), Some(3));
        assert_eq!(snap.counter("gateway.errors", &[("op", "snapshot_object")]), Some(2));
        cluster.shutdown();
    }

    #[test]
    fn overwrite_during_read_is_snapshot_isolated() {
        let (cluster, gw) = cluster_and_gateway();
        gw.create_bucket(ALICE, "b", Acl::Private).unwrap();
        let d1 = body(200_000, 1);
        gw.put_object(ALICE, "b", "k", d1.clone()).unwrap();
        let pin = gw.head_object(ALICE, "b", "k").unwrap();
        gw.put_object(ALICE, "b", "k", body(200_000, 2)).unwrap();
        // The pinned version still serves the old bytes (what a
        // long-running GET observes across a concurrent overwrite).
        let got = gw.read_pinned(&pin, 0, pin.size).unwrap();
        assert_eq!(got, d1);
        cluster.shutdown();
    }

    #[test]
    fn transient_backend_outages_map_to_unavailable() {
        use sads_blob::model::{BlobId, ChunkKey, VersionId};
        let key = ChunkKey { blob: BlobId(1), version: VersionId(1), page: 0 };
        for e in [
            BlobError::ChunkUnavailable(key),
            BlobError::MetaUnavailable,
            BlobError::Timeout,
            BlobError::Protocol(CLIENT_GONE),
            BlobError::AllocationFailed { requested: 3, available: 0 },
        ] {
            match GatewayError::from(e) {
                GatewayError::Unavailable { retry_after_secs } => {
                    assert!(retry_after_secs > 0, "hint must tell clients to wait");
                }
                other => panic!("expected Unavailable, got {other:?}"),
            }
        }
        // Non-transient failures keep their S3 storage-error shape.
        assert!(matches!(
            GatewayError::from(BlobError::Blocked(ClientId(9))),
            GatewayError::Storage(BlobError::Blocked(_))
        ));
        assert!(matches!(
            GatewayError::from(BlobError::Protocol("unknown stream")),
            GatewayError::Storage(BlobError::Protocol(_))
        ));
    }

    #[test]
    fn empty_object_roundtrip() {
        let (cluster, gw) = cluster_and_gateway();
        gw.create_bucket(ALICE, "b", Acl::Private).unwrap();
        let info = gw.put_object(ALICE, "b", "empty", Bytes::new()).unwrap();
        assert_eq!(info.size, 0);
        let got = gw.get_object(ALICE, "b", "empty").unwrap();
        assert!(got.is_empty());
        cluster.shutdown();
    }

    /// The `/metrics` contract: the gateway counts in the registry of the
    /// cluster it fronts, so one scrape covers the S3 front end and the
    /// BLOB services behind it — ≥10 metric families across ≥4 services,
    /// all surviving a Prometheus-text render/parse round trip. Run on an
    /// untraced and on a traced cluster: on the traced one every counted
    /// request records exactly one `gateway` root labelled with its op,
    /// and every other span of its trace lies inside the root's interval
    /// (one clock for the gateway and the cluster).
    #[test]
    fn metrics_exposition_covers_gateway_and_cluster() {
        for sink in [None, Some(Arc::new(SpanSink::new()))] {
            let (cluster, gw) = gateway_over(sink.as_ref());
            gw.create_bucket(ALICE, "m", Acl::Private).unwrap();
            for i in 0..4u8 {
                let key = format!("k{i}");
                gw.put_object(ALICE, "m", &key, body(100_000, i)).unwrap();
                assert!(gw.get_object(ALICE, "m", &key).is_ok());
            }
            let put = gw.put_object_traced(ALICE, "m", "k4", body(1000, 4)).unwrap();
            let got = gw.get_object_traced(ALICE, "m", "k4").unwrap();
            assert_eq!(put.trace_id == 0, sink.is_none(), "a trace id iff the cluster traces");
            assert_eq!(got.trace_id == 0, sink.is_none());
            assert!(gw.head_object(ALICE, "m", "missing").is_err());
            // Every other public op, once.
            gw.list_buckets(ALICE);
            gw.list_objects(ALICE, "m", "k", 10).unwrap();
            let pin = gw.snapshot_object(ALICE, "m", "k0").unwrap();
            gw.read_pinned(&pin, 0, 10).unwrap();
            gw.delete_object(ALICE, "m", "k3").unwrap();
            let id = gw.create_multipart(ALICE, "m", "mp", 64 * 1024).unwrap();
            gw.upload_part(ALICE, id, 1, body(10, 1)).unwrap();
            gw.complete_multipart(ALICE, id).unwrap();
            let id = gw.create_multipart(ALICE, "m", "mp2", 64 * 1024).unwrap();
            gw.abort_multipart(ALICE, id).unwrap();
            gw.create_bucket(ALICE, "gone", Acl::Private).unwrap();
            gw.delete_bucket(ALICE, "gone").unwrap();
            // Let one service heartbeat land so node/pool/meta gauges exist.
            std::thread::sleep(std::time::Duration::from_millis(1500));

            let snap = gw.metrics_snapshot();
            assert_eq!(snap.counter("gateway.requests", &[("op", "put_object")]), Some(5));
            assert_eq!(snap.counter("gateway.requests", &[("op", "get_object")]), Some(5));
            assert_eq!(snap.counter("gateway.errors", &[("op", "head_object")]), Some(1));
            let ops = [
                "create_bucket",
                "delete_bucket",
                "list_buckets",
                "list_objects",
                "put_object",
                "get_object",
                "head_object",
                "snapshot_object",
                "read_pinned",
                "delete_object",
                "create_multipart",
                "upload_part",
                "complete_multipart",
                "abort_multipart",
            ];
            for op in ops {
                let n = snap.counter("gateway.requests", &[("op", op)]);
                assert!(n >= Some(1), "{op} is not counted: {n:?}");
                let lat = snap.family("gateway.op_seconds").find(|s| s.labels[0].1 == op);
                assert!(lat.is_some(), "{op} is not timed");
            }
            assert!(snap.counter_total("provider.reads").unwrap_or(0) > 0, "backend reads counted");
            assert!(snap.counter_total("vman.tickets").unwrap_or(0) >= 4, "writes took tickets");

            let families = snap.families();
            assert!(
                families.len() >= 10,
                "expected ≥10 metric families, got {}: {families:?}",
                families.len()
            );
            let mut services: Vec<&str> =
                families.iter().map(|f| f.split('.').next().unwrap()).collect();
            services.sort();
            services.dedup();
            assert!(
                services.len() >= 4,
                "expected families from ≥4 services, got {services:?}"
            );

            // The text endpoint renders the same data and parses back.
            let text = gw.get_metrics();
            let parsed = sads_telemetry::parse_prometheus(&text).expect("parseable exposition");
            assert!(parsed
                .iter()
                .any(|s| s.name == "sads_gateway_requests"
                    && s.labels.iter().any(|(k, v)| k == "op" && v == "put_object")
                    && s.value == 5.0));
            assert!(parsed.iter().any(|s| s.name == "sads_gateway_op_seconds_bucket"));
            cluster.shutdown();

            let Some(sink) = sink else { continue };
            let spans = sink.spans();
            let roots: Vec<_> =
                spans.iter().filter(|s| s.service == "gateway" && s.kind == SpanKind::Op).collect();
            for op in ops {
                let n = roots.iter().filter(|r| r.op == op).count() as u64;
                let counted = snap.counter("gateway.requests", &[("op", op)]);
                assert_eq!(Some(n), counted, "{op}: one gateway root per request");
            }
            assert!(roots.iter().any(|r| r.trace == put.trace_id && r.op == "put_object"));
            // The ops that call the backend nest those calls under their root.
            let backed = [
                "put_object",
                "get_object",
                "read_pinned",
                "snapshot_object",
                "delete_object",
                "create_multipart",
                "upload_part",
                "abort_multipart",
            ];
            for root in roots.iter().filter(|r| backed.contains(&r.op)) {
                let nested = spans.iter().any(|s| s.parent == root.span);
                assert!(nested, "{}: no backend span under its root", root.op);
            }
            for root in &roots {
                assert_eq!(root.parent, 0, "{}: a gateway span is a root", root.op);
                for s in spans.iter().filter(|s| s.trace == root.trace && s.span != root.span) {
                    assert!(
                        root.start_ns <= s.start_ns && s.end_ns <= root.end_ns,
                        "{}: {} {} [{}, {}] outside its root [{}, {}]",
                        root.op,
                        s.service,
                        s.op,
                        s.start_ns,
                        s.end_ns,
                        root.start_ns,
                        root.end_ns
                    );
                }
            }
        }
    }
    /// A gateway over disk-backed providers, traced into `sink`.
    fn disk_gateway(sink: &Arc<SpanSink>, root: &std::path::Path) -> (Cluster, ObjectGateway) {
        let backend = sads_blob::BackendSpec::disk(root);
        let builder = ClusterBuilder::new().data_providers(2).meta_providers(1).backend(backend);
        let mut cluster = builder.span_sink(Arc::clone(sink)).start();
        let client = cluster.client(ClientId(1000));
        let cfg = GatewayConfig { page_size: 64 * 1024, ..Default::default() };
        (cluster, ObjectGateway::new(client, cfg))
    }

    /// Once every handle a GET uses is resolved, a GET looks nothing up in
    /// the registry: the gateway holds its op's handles and each cell its
    /// `Env::incr` names' (`provider.reads`). The least of five windows
    /// of 20 GETs is taken, so a heartbeat's gauge sets in one window
    /// cannot fail it.
    #[test]
    fn a_steady_state_get_looks_nothing_up_in_the_registry() {
        let (cluster, gw) = cluster_and_gateway();
        gw.create_bucket(ALICE, "b", Acl::Private).unwrap();
        gw.put_object(ALICE, "b", "k", body(100_000, 3)).unwrap();
        let get = || assert_eq!(gw.get_object(ALICE, "b", "k").unwrap().len(), 100_000);
        (0..5).for_each(|_| get());
        let reg = cluster.telemetry();
        let window = || {
            let before = reg.lookups();
            (0..20).for_each(|_| get());
            reg.lookups() - before
        };
        assert_eq!((0..5).map(|_| window()).min(), Some(0));
        cluster.shutdown();
    }

    /// A traced GET over disk-backed providers: the flight-recorder turns
    /// that handled its messages carry its trace id, in the client's ring
    /// and in the providers'.
    #[test]
    fn a_traced_gets_turns_are_dumped_under_its_trace_id() {
        let root = std::env::temp_dir().join(format!("sads-gw-flight-{}", std::process::id()));
        let sink = Arc::new(SpanSink::new());
        let (cluster, gw) = disk_gateway(&sink, &root);
        gw.create_bucket(ALICE, "b", Acl::Private).unwrap();
        gw.put_object(ALICE, "b", "k", body(200_000, 9)).unwrap();
        let got = gw.get_object_traced(ALICE, "b", "k").unwrap();
        assert_ne!(got.trace_id, 0);
        let dump = cluster.flight_recorder().expect("recorder").trigger_dump("test", "", 0);
        let rings: Vec<&str> = dump
            .rings
            .iter()
            .filter(|r| r.events.iter().any(|e| e.label == "turn" && e.trace == got.trace_id))
            .map(|r| r.service)
            .collect();
        assert!(rings.contains(&"client") && rings.contains(&"provider"), "{rings:?}");
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[cfg(test)]
mod multipart_tests {
    use super::*;
    use sads_blob::runtime::threaded::{Cluster, ClusterBuilder};

    const ALICE: ClientId = ClientId(1);
    const BOB: ClientId = ClientId(2);
    const PAGE: u64 = 64 * 1024;
    const PART: u64 = 2 * PAGE;

    fn setup() -> (Cluster, ObjectGateway) {
        let mut cluster = ClusterBuilder::new()
            .data_providers(4)
            .meta_providers(2)
            .provider_capacity(512 << 20)
            .start();
        let client = cluster.client(ClientId(1000));
        let gw =
            ObjectGateway::new(client, GatewayConfig { page_size: PAGE, replication: 1, ..Default::default() });
        gw.create_bucket(ALICE, "b", Acl::Private).unwrap();
        (cluster, gw)
    }

    fn body(n: usize, seed: u8) -> Bytes {
        Bytes::from((0..n).map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed)).collect::<Vec<u8>>())
    }

    #[test]
    fn out_of_order_parts_assemble_correctly() {
        let (cluster, gw) = setup();
        let id = gw.create_multipart(ALICE, "b", "big", PART).unwrap();
        let p1 = body(PART as usize, 1);
        let p2 = body(PART as usize, 2);
        let p3 = body(1000, 3); // short last part
        gw.upload_part(ALICE, id, 3, p3.clone()).unwrap();
        gw.upload_part(ALICE, id, 1, p1.clone()).unwrap();
        gw.upload_part(ALICE, id, 2, p2.clone()).unwrap();
        let info = gw.complete_multipart(ALICE, id).unwrap();
        assert_eq!(info.size, 2 * PART + 1000);
        let got = gw.get_object(ALICE, "b", "big").unwrap();
        assert_eq!(&got[..PART as usize], &p1[..]);
        assert_eq!(&got[PART as usize..2 * PART as usize], &p2[..]);
        assert_eq!(&got[2 * PART as usize..], &p3[..]);
        // The upload id is gone.
        assert_eq!(gw.complete_multipart(ALICE, id), Err(GatewayError::NoSuchUpload));
        cluster.shutdown();
    }

    #[test]
    fn concurrent_part_uploads() {
        let (cluster, gw) = setup();
        let gw = std::sync::Arc::new(gw);
        let id = gw.create_multipart(ALICE, "b", "par", PART).unwrap();
        let mut handles = Vec::new();
        for n in 1..=6u32 {
            let gw = std::sync::Arc::clone(&gw);
            handles.push(std::thread::spawn(move || {
                gw.upload_part(ALICE, id, n, body(PART as usize, n as u8)).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let info = gw.complete_multipart(ALICE, id).unwrap();
        assert_eq!(info.size, 6 * PART);
        for n in 1..=6u32 {
            let got = gw
                .get_object_range(ALICE, "b", "par", (n as u64 - 1) * PART, PART)
                .unwrap();
            assert_eq!(got, body(PART as usize, n as u8), "part {n}");
        }
        drop(gw);
        cluster.shutdown();
    }

    #[test]
    fn invalid_uploads_are_rejected() {
        let (cluster, gw) = setup();
        // part_size must be a page multiple.
        assert_eq!(
            gw.create_multipart(ALICE, "b", "k", PAGE + 1),
            Err(GatewayError::InvalidPart)
        );
        let id = gw.create_multipart(ALICE, "b", "k", PART).unwrap();
        // part number 0, empty part, oversized part.
        assert_eq!(
            gw.upload_part(ALICE, id, 0, body(10, 0)),
            Err(GatewayError::InvalidPart)
        );
        assert_eq!(gw.upload_part(ALICE, id, 1, Bytes::new()), Err(GatewayError::InvalidPart));
        assert_eq!(
            gw.upload_part(ALICE, id, 1, body((PART + 1) as usize, 0)),
            Err(GatewayError::InvalidPart)
        );
        // Gap in part numbers fails complete but keeps the upload alive.
        gw.upload_part(ALICE, id, 1, body(PART as usize, 1)).unwrap();
        gw.upload_part(ALICE, id, 3, body(100, 3)).unwrap();
        assert_eq!(gw.complete_multipart(ALICE, id), Err(GatewayError::InvalidPart));
        // Short non-final part fails too.
        gw.upload_part(ALICE, id, 2, body(100, 2)).unwrap();
        assert_eq!(gw.complete_multipart(ALICE, id), Err(GatewayError::InvalidPart));
        // Fixing part 2 completes.
        gw.upload_part(ALICE, id, 2, body(PART as usize, 2)).unwrap();
        assert!(gw.complete_multipart(ALICE, id).is_ok());
        // ACL: only the owner may touch an upload.
        let id = gw.create_multipart(ALICE, "b", "k2", PART).unwrap();
        assert_eq!(
            gw.upload_part(BOB, id, 1, body(10, 0)),
            Err(GatewayError::AccessDenied)
        );
        assert_eq!(gw.abort_multipart(BOB, id), Err(GatewayError::AccessDenied));
        gw.abort_multipart(ALICE, id).unwrap();
        assert_eq!(gw.abort_multipart(ALICE, id), Err(GatewayError::NoSuchUpload));
        // The abort decommissioned the upload's BLOB: its latest version
        // is no longer a GC root.
        assert_eq!(cluster.telemetry().counter_total("vman.decommissions"), 1);
        cluster.shutdown();
    }

    /// A bucket with an open upload is not empty: deleting it would leave
    /// the upload nowhere to publish, and its BLOB a GC root for ever.
    #[test]
    fn a_bucket_with_an_open_upload_cannot_be_deleted() {
        let (cluster, gw) = setup();
        let id = gw.create_multipart(ALICE, "b", "k", PART).unwrap();
        gw.upload_part(ALICE, id, 1, body(PART as usize, 1)).unwrap();
        assert_eq!(gw.delete_bucket(ALICE, "b"), Err(GatewayError::BucketNotEmpty));
        gw.abort_multipart(ALICE, id).unwrap();
        gw.delete_bucket(ALICE, "b").unwrap();
        assert_eq!(cluster.telemetry().counter_total("vman.decommissions"), 1);
        cluster.shutdown();
    }

    #[test]
    fn stale_uploads_expire_after_ttl() {
        let mut cluster = ClusterBuilder::new()
            .data_providers(4)
            .meta_providers(2)
            .provider_capacity(512 << 20)
            .start();
        let client = cluster.client(ClientId(1000));
        let gw = ObjectGateway::new(
            client,
            GatewayConfig {
                page_size: PAGE,
                replication: 1,
                multipart_ttl: Duration::from_millis(50),
            },
        );
        gw.create_bucket(ALICE, "b", Acl::Private).unwrap();

        let stale = gw.create_multipart(ALICE, "b", "stale", PART).unwrap();
        gw.upload_part(ALICE, stale, 1, body(PART as usize, 1)).unwrap();
        std::thread::sleep(Duration::from_millis(120));
        // Creating a new upload runs the lazy sweep and reaps the idle one.
        let live = gw.create_multipart(ALICE, "b", "live", PART).unwrap();
        assert_eq!(
            gw.upload_part(ALICE, stale, 2, body(PART as usize, 2)),
            Err(GatewayError::NoSuchUpload),
            "expired upload is gone"
        );
        assert_eq!(gw.abort_multipart(ALICE, stale), Err(GatewayError::NoSuchUpload));
        assert_eq!(
            gw.metrics_snapshot().counter("gateway.multipart_expired", &[]),
            Some(1),
            "sweep counted exactly the stale upload"
        );
        // Part uploads refresh the staleness clock: touch `live` every
        // 30 ms (under the 50 ms TTL), then run the sweep again — it must
        // survive, with the expiry counter unchanged.
        std::thread::sleep(Duration::from_millis(30));
        gw.upload_part(ALICE, live, 1, body(700, 9)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        gw.upload_part(ALICE, live, 1, body(800, 9)).unwrap();
        assert_eq!(gw.sweep_stale_uploads(), 0, "refreshed upload is not stale");
        assert_eq!(
            gw.metrics_snapshot().counter("gateway.multipart_expired", &[]),
            Some(1)
        );
        let info = gw.complete_multipart(ALICE, live).unwrap();
        assert_eq!(info.size, 800);
        cluster.shutdown();
    }
}
