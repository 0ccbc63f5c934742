//! The BlobSeer RPC vocabulary: every message exchanged between clients,
//! data providers, metadata providers, the provider manager and the
//! version manager — plus the enforcement and instrumentation messages
//! that tie in the self-management layers.
//!
//! One enum keeps the simulated and threaded runtimes trivially
//! interoperable; `wire_size` drives the simulator's bandwidth model.

use sads_sim::NodeId;

use crate::meta::{MetaNode, NodeKey, NodeRef};
use crate::model::{BlobError, BlobId, BlobSpec, ClientId, Payload, VersionId, VersionInfo};
use crate::pmanager::{Placement, ProviderKind, ProviderLoad};
use crate::probe::ProbeEvent;
use crate::vmanager::{WriteKind, WriteTicket};

/// Why a chunk operation failed at a data provider.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChunkErr {
    /// Client blocked by the security framework.
    Blocked,
    /// Provider storage exhausted.
    Full,
    /// No such chunk.
    NotFound,
    /// The RPC deadline expired with no answer (provider crashed or
    /// unreachable). Never sent on the wire: the client core synthesizes
    /// it locally when a per-request timer fires, so the retry/failover
    /// paths see timeouts and explicit refusals through one code path.
    Unreachable,
}

/// All BlobSeer messages.
#[derive(Debug)]
pub enum Msg {
    // ---- provider manager ----
    /// Provider announces itself.
    Register {
        /// Data or metadata provider.
        kind: ProviderKind,
        /// Capacity in bytes.
        capacity: u64,
    },
    /// Periodic provider load report.
    Heartbeat {
        /// Current load snapshot.
        load: ProviderLoad,
    },
    /// Client asks for chunk placements.
    Alloc {
        /// Correlation id.
        req: u64,
        /// Requesting client (for enforcement/accounting).
        client: ClientId,
        /// Number of chunks.
        chunks: u32,
        /// Replicas per chunk.
        replication: u32,
        /// Bytes per chunk.
        chunk_size: u64,
    },
    /// Successful allocation.
    AllocOk {
        /// Correlation id.
        req: u64,
        /// Replica providers per chunk.
        placement: Placement,
    },
    /// Allocation failure.
    AllocErr {
        /// Correlation id.
        req: u64,
        /// Providers currently allocatable.
        available: u32,
    },
    /// Ask for the current provider directory.
    GetDirectory {
        /// Correlation id.
        req: u64,
    },
    /// Directory response.
    Directory {
        /// Correlation id.
        req: u64,
        /// Metadata providers, in partition order.
        meta_providers: Vec<NodeId>,
        /// Live data providers.
        data_providers: Vec<NodeId>,
    },
    /// Adaptive layer: stop allocating to a provider (drain for
    /// decommission) or resume.
    SetDraining {
        /// Target provider.
        provider: NodeId,
        /// Drain on/off.
        draining: bool,
    },
    /// Adaptive layer: forget a provider entirely (it was retired or
    /// crashed).
    Deregister {
        /// Target provider.
        provider: NodeId,
    },

    // ---- data provider ----
    // The two batch messages are the only form of a chunk store and a
    // chunk fetch: a lone chunk travels as a batch of one. The simulated
    // wire charges a batch 32 B per item (a 24-byte key and its 4-byte
    // CRC) on top of the payloads.
    /// Store chunk replicas bound for one provider in one round trip.
    /// Writers group a version's chunks by target provider, so a write
    /// costs one request per provider, not one per chunk. Answered with a
    /// single [`Msg::PutChunkOk`] (all stored) or [`Msg::PutChunkErr`]
    /// (the first failure aborts the rest).
    PutChunkBatch {
        /// Correlation id.
        req: u64,
        /// Writing client ([`ClientId::SYSTEM`] for a repair relay).
        client: ClientId,
        /// The chunks, in page order. Each carries the payload's
        /// [`crate::storage::payload_crc`], computed once by the writer
        /// for every replica and resend of the page (for a repair relay,
        /// the source's stored CRC): the provider stores it as the
        /// chunk's CRC without reading the bytes, so a byte damaged
        /// between the writer and the store fails the next scrub (or, on
        /// disk, the next restart).
        items: Vec<(crate::model::ChunkKey, Payload, u32)>,
    },
    /// Chunk stored.
    PutChunkOk {
        /// Correlation id.
        req: u64,
    },
    /// Chunk refused.
    PutChunkErr {
        /// Correlation id.
        req: u64,
        /// Why.
        err: ChunkErr,
    },
    /// A whole [`Msg::GetChunkBatch`] refused (a blocked client). The
    /// client also synthesizes it locally, with [`ChunkErr::NotFound`],
    /// when a fetch's deadline fires; a missing chunk is reported per
    /// item in [`Msg::GetChunkBatchOk`] instead.
    GetChunkErr {
        /// Correlation id.
        req: u64,
        /// Why.
        err: ChunkErr,
    },
    /// Fetch chunks held by one provider in one round trip. Readers group
    /// the open window's slots by the replica chosen for each chunk, so a
    /// read costs one request per provider, not one per chunk; a replica
    /// walk's retry is a batch of one (the read-side mirror of
    /// [`Msg::PutChunkBatch`]).
    GetChunkBatch {
        /// Correlation id.
        req: u64,
        /// Reading client.
        client: ClientId,
        /// Chunks wanted, in page order.
        keys: Vec<crate::model::ChunkKey>,
    },
    /// Per-item batch fetch results, charged 40 B of header per item.
    /// Unlike the write-side batch reply, errors are reported per chunk: a
    /// missing replica must not poison the rest of the batch, so the
    /// client can keep the hits and walk the replica set only for the
    /// misses.
    GetChunkBatchOk {
        /// Correlation id.
        req: u64,
        /// Per-key result, in request order.
        items: Vec<(crate::model::ChunkKey, Result<Payload, ChunkErr>)>,
    },
    /// Remove a chunk (GC / decommission).
    DeleteChunk {
        /// Correlation id.
        req: u64,
        /// Chunk identity.
        key: crate::model::ChunkKey,
    },
    /// Removal result.
    DeleteChunkOk {
        /// Correlation id.
        req: u64,
        /// Whether it existed.
        existed: bool,
    },
    /// Replication manager → data provider: copy a chunk you hold to
    /// another provider (repair / degree increase). The copy goes out as a
    /// [`Msg::PutChunkBatch`] of one carrying the CRC stored with the source's replica,
    /// not a fresh one, so a source copy that rotted in memory arrives as
    /// corrupt and the destination's next scrub quarantines it.
    ReplicateChunk {
        /// Correlation id.
        req: u64,
        /// The chunk to copy.
        key: crate::model::ChunkKey,
        /// Destination provider.
        to: NodeId,
    },
    /// Relay outcome: `ok` is false when the source no longer holds the
    /// chunk or the destination refused it.
    ReplicateChunkOk {
        /// Correlation id.
        req: u64,
        /// Success flag.
        ok: bool,
    },

    // ---- metadata provider ----
    /// Store a batch of tree nodes (grouped per provider by the client).
    PutMeta {
        /// Correlation id.
        req: u64,
        /// The nodes.
        nodes: Vec<(NodeKey, MetaNode)>,
    },
    /// Batch stored.
    PutMetaOk {
        /// Correlation id.
        req: u64,
    },
    /// Fetch a batch of tree nodes.
    GetMeta {
        /// Correlation id.
        req: u64,
        /// Keys wanted.
        keys: Vec<NodeKey>,
    },
    /// Fetched nodes (`None` for keys not present).
    GetMetaOk {
        /// Correlation id.
        req: u64,
        /// Per-key result.
        nodes: Vec<(NodeKey, Option<MetaNode>)>,
    },
    /// Ask a metadata provider for every tree node it stores on the read
    /// path of `[query]` at `version`, in one round trip. The provider
    /// returns, for each stored range intersecting the query, the node
    /// with the greatest version ≤ `version` — exactly the node the
    /// level-by-level descent would fetch there (nodes are immutable and
    /// coverage only grows with version). Keys are hash-partitioned, so a
    /// cold reader broadcasts this to all metadata providers and merges
    /// the replies into its node cache; any gap falls back to per-node
    /// [`Msg::GetMeta`].
    GetMetaRange {
        /// Correlation id.
        req: u64,
        /// Target BLOB.
        blob: BlobId,
        /// Snapshot version being read.
        version: VersionId,
        /// Pages the read covers.
        query: crate::model::PageInterval,
        /// Resume cursor: only ranges strictly after this one (in
        /// `(start, len)` order) are returned. `None` starts from the top.
        after: Option<crate::meta::NodeRange>,
        /// Reply size cap; `more` signals a continuation is needed.
        max_nodes: u32,
    },
    /// The bulk range-descent reply.
    GetMetaRangeOk {
        /// Correlation id.
        req: u64,
        /// Matching nodes, ordered by `(range.start, range.len)`.
        nodes: Vec<(NodeKey, MetaNode)>,
        /// Whether the reply was truncated at `max_nodes` (re-request
        /// with `after` = last returned range to continue).
        more: bool,
    },
    /// Remove tree nodes (version GC).
    DeleteMeta {
        /// Correlation id.
        req: u64,
        /// Keys to remove.
        keys: Vec<NodeKey>,
    },
    /// Removal done.
    DeleteMetaOk {
        /// Correlation id.
        req: u64,
        /// How many existed.
        removed: u32,
    },
    /// Replication manager → metadata provider: update the replica set
    /// recorded in a leaf (location metadata is mutable; version data is
    /// not).
    PatchLeaf {
        /// Correlation id.
        req: u64,
        /// The leaf's key.
        key: NodeKey,
        /// The new replica set.
        replicas: Vec<NodeId>,
    },
    /// Patch result.
    PatchLeafOk {
        /// Correlation id.
        req: u64,
        /// Whether the leaf existed.
        ok: bool,
    },

    // ---- version manager ----
    /// Create a BLOB.
    CreateBlob {
        /// Correlation id.
        req: u64,
        /// Requesting client.
        client: ClientId,
        /// BLOB parameters.
        spec: BlobSpec,
    },
    /// BLOB created.
    CreateBlobOk {
        /// Correlation id.
        req: u64,
        /// New id.
        blob: BlobId,
    },
    /// Request a write ticket.
    Ticket {
        /// Correlation id.
        req: u64,
        /// Writing client.
        client: ClientId,
        /// Target BLOB.
        blob: BlobId,
        /// Offset or append.
        kind: WriteKind,
        /// Bytes to write.
        len: u64,
    },
    /// Ticket granted.
    TicketOk {
        /// Correlation id.
        req: u64,
        /// The ticket.
        ticket: WriteTicket,
    },
    /// Ticket refused.
    TicketErr {
        /// Correlation id.
        req: u64,
        /// Why.
        err: BlobError,
    },
    /// Writer finished storing chunks + metadata.
    Commit {
        /// Correlation id.
        req: u64,
        /// The writer.
        client: ClientId,
        /// Target BLOB.
        blob: BlobId,
        /// Version being committed.
        version: VersionId,
        /// New tree root.
        root: NodeRef,
        /// BLOB size after this version.
        size: u64,
    },
    /// The version is published (sent when ordering allows).
    CommitOk {
        /// Correlation id of the original `Commit`.
        req: u64,
        /// The published version.
        version: VersionId,
    },
    /// Read version info (latest or specific).
    GetVersion {
        /// Correlation id.
        req: u64,
        /// Reading client.
        client: ClientId,
        /// Target BLOB.
        blob: BlobId,
        /// Specific version, or `None` for latest.
        version: Option<VersionId>,
    },
    /// Version info.
    GetVersionOk {
        /// Correlation id.
        req: u64,
        /// The info.
        info: VersionInfo,
    },
    /// Version lookup failed.
    GetVersionErr {
        /// Correlation id.
        req: u64,
        /// Why.
        err: BlobError,
    },

    /// Adaptive layer → version manager: list a BLOB's published versions.
    ListVersions {
        /// Correlation id.
        req: u64,
        /// Target BLOB.
        blob: BlobId,
    },
    /// The catalog reply.
    VersionList {
        /// Correlation id.
        req: u64,
        /// The BLOB the catalog describes.
        blob: BlobId,
        /// Page size of the BLOB.
        page_size: u64,
        /// `(version, size, interval)` per published version, in order.
        versions: Vec<crate::vmanager::VersionSummary>,
        /// The GC roots, ascending: the versions the retention policy
        /// keeps, the snapshots and the latest, or none once the BLOB is
        /// decommissioned (`BlobState::is_root`).
        roots: Vec<VersionId>,
    },
    /// Client/gateway → version manager: pin a version (or the latest when
    /// `None`) as a **snapshot** — an O(1) metadata-only operation.
    /// Granted only on a GC root: a version the retention policy keeps, a
    /// snapshot or the latest, which always qualifies. Any other version
    /// is refused with `UnknownVersion`, so a pin never lands on a version
    /// a sweep may already have collected. A snapshot stays a root: the
    /// lifecycle sweeper never reclaims its chunks or tree nodes, and the
    /// version manager refuses to forget it.
    SnapshotVersion {
        /// Correlation id.
        req: u64,
        /// Requesting client.
        client: ClientId,
        /// Target BLOB.
        blob: BlobId,
        /// Version to pin, or `None` for the latest published one.
        version: Option<VersionId>,
    },
    /// Snapshot pinned.
    SnapshotVersionOk {
        /// Correlation id.
        req: u64,
        /// The pinned version.
        version: VersionId,
    },
    /// Snapshot refused (unknown BLOB/version, blocked client).
    SnapshotVersionErr {
        /// Correlation id.
        req: u64,
        /// Why.
        err: BlobError,
    },
    /// Client/gateway → version manager: mark a BLOB decommissioned. The
    /// record stays (ids are never reused) but every version — snapshots
    /// and the latest included — stops being a GC root, so the lifecycle
    /// sweeper reclaims all of its chunks and tree nodes.
    DecommissionBlob {
        /// Correlation id.
        req: u64,
        /// Requesting client.
        client: ClientId,
        /// Target BLOB.
        blob: BlobId,
    },
    /// Decommission result.
    DecommissionBlobOk {
        /// Correlation id.
        req: u64,
        /// Whether the BLOB existed (idempotent: re-decommissioning an
        /// already-decommissioned BLOB also reports `true`).
        ok: bool,
    },
    /// Lifecycle scrubber → data provider: verify the integrity of up to
    /// `max` stored chunks with keys after `after` (`None` starts from
    /// the beginning). The provider recomputes payload checksums against
    /// the ones recorded at store time — the writers', from the put
    /// envelopes — (and asks a durable backend to
    /// re-verify its on-disk record), quarantines failures, and reports
    /// them.
    ScrubChunks {
        /// Correlation id.
        req: u64,
        /// Resume cursor: scan keys strictly greater than this.
        after: Option<crate::model::ChunkKey>,
        /// Verification budget for this request.
        max: u32,
    },
    /// Scrub batch result.
    ScrubChunksOk {
        /// Correlation id.
        req: u64,
        /// Chunks verified in this batch.
        scanned: u32,
        /// Chunks that failed verification (already quarantined locally).
        corrupt: Vec<crate::model::ChunkKey>,
        /// Cursor to resume from, or `None` when the walk wrapped.
        next: Option<crate::model::ChunkKey>,
    },
    /// Lifecycle scrubber → replication manager: `provider`'s replica of
    /// `key` failed verification and was quarantined — drop it from the
    /// placement and repair the replication degree from the surviving
    /// replicas (bypasses the deficit debounce; corruption is confirmed,
    /// not suspected).
    ReportCorrupt {
        /// The damaged chunk.
        key: crate::model::ChunkKey,
        /// The provider whose replica was quarantined.
        provider: NodeId,
    },
    /// Fault injection (tests and the E14 integrity experiment): flip a
    /// byte of the stored replica of `key`, in memory and in the durable
    /// backend's record when one exists. Never sent by production code.
    CorruptChunk {
        /// The chunk to damage.
        key: crate::model::ChunkKey,
    },
    /// Adaptive layer → version manager: forget a retired version's
    /// record (after its chunks/nodes were reclaimed).
    RetireVersion {
        /// Correlation id.
        req: u64,
        /// Target BLOB.
        blob: BlobId,
        /// Version to forget.
        version: VersionId,
    },
    /// Retire result.
    RetireVersionOk {
        /// Correlation id.
        req: u64,
        /// Whether the record existed and was removable.
        ok: bool,
    },
    /// Recovery agent → version manager: list stalled writes that are
    /// actionable (their predecessor is published, so a no-op repair can
    /// publish them).
    ListStalled {
        /// Correlation id.
        req: u64,
    },
    /// The stalled-write list.
    StalledList {
        /// Correlation id.
        req: u64,
        /// Actionable stalled writes.
        stalled: Vec<crate::vmanager::StalledWrite>,
    },
    /// Adaptive layer → version manager: list all BLOB ids.
    ListBlobs {
        /// Correlation id.
        req: u64,
    },
    /// The BLOB id list.
    BlobList {
        /// Correlation id.
        req: u64,
        /// All BLOB ids.
        blobs: Vec<BlobId>,
    },

    // ---- enforcement (security framework → BlobSeer actors) ----
    /// Refuse all service to a client.
    BlockClient {
        /// The offender.
        client: ClientId,
    },
    /// Lift a block.
    UnblockClient {
        /// The client.
        client: ClientId,
    },

    /// Extension point: higher layers (monitoring, security, adaptive)
    /// carry their own message types through the same transport.
    Ext(Box<dyn ExtPayload>),

    // ---- instrumentation (BlobSeer actors → monitoring layer) ----
    /// A batch of instrumented events.
    Probe {
        /// The instrumented node.
        origin: NodeId,
        /// When the batch was flushed at the source — monitoring records
        /// carry source timestamps, so delivery delays do not distort the
        /// observed event rates.
        at: sads_sim::SimTime,
        /// The events.
        events: Vec<ProbeEvent>,
    },
}

/// A message payload defined outside the blob crate but carried inside
/// [`Msg::Ext`] (monitoring records, security verdicts, elasticity
/// commands, …).
pub trait ExtPayload: std::any::Any + Send + std::fmt::Debug {
    /// Bytes on the wire (drives the simulated bandwidth model).
    fn wire_size(&self) -> u64 {
        0
    }
    /// Downcast support.
    fn as_any(self: Box<Self>) -> Box<dyn std::any::Any>;
    /// Borrowing downcast support.
    fn as_any_ref(&self) -> &dyn std::any::Any;
}

impl dyn ExtPayload {
    /// Downcast the boxed extension payload.
    pub fn downcast<T: ExtPayload>(self: Box<Self>) -> Result<Box<T>, Box<dyn std::any::Any>> {
        self.as_any().downcast::<T>()
    }
    /// Borrowing downcast.
    pub fn downcast_ref<T: ExtPayload>(&self) -> Option<&T> {
        self.as_any_ref().downcast_ref::<T>()
    }
}

/// Implement [`ExtPayload`] for a concrete type with an optional wire-size
/// closure.
#[macro_export]
macro_rules! impl_ext_payload {
    ($ty:ty) => {
        impl $crate::rpc::ExtPayload for $ty {
            fn as_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
            fn as_any_ref(&self) -> &dyn std::any::Any {
                self
            }
        }
    };
    ($ty:ty, $size:expr) => {
        impl $crate::rpc::ExtPayload for $ty {
            fn wire_size(&self) -> u64 {
                #[allow(clippy::redundant_closure_call)]
                ($size)(self)
            }
            fn as_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
            fn as_any_ref(&self) -> &dyn std::any::Any {
                self
            }
        }
    };
}

impl sads_sim::Message for Msg {
    fn wire_size(&self) -> u64 {
        match self {
            Msg::Ext(p) => p.wire_size(),
            // 32 B of header per chunk: a 24-byte key and its 4-byte CRC.
            Msg::PutChunkBatch { items, .. } => {
                items.iter().map(|(_, d, _)| d.len() + 32).sum()
            }
            Msg::GetChunkBatch { keys, .. } => 32 * keys.len() as u64,
            Msg::GetChunkBatchOk { items, .. } => items
                .iter()
                .map(|(_, r)| 40 + r.as_ref().map(|d| d.len()).unwrap_or(0))
                .sum(),
            Msg::GetMetaRange { .. } => 64,
            Msg::ScrubChunksOk { corrupt, .. } => 48 + 32 * corrupt.len() as u64,
            Msg::VersionList { versions, roots, .. } => {
                40 * versions.len() as u64 + 8 * roots.len() as u64
            }
            Msg::GetMetaRangeOk { nodes, .. } => {
                nodes.iter().map(|(_, n)| 32 + n.wire_size()).sum()
            }
            Msg::PutMeta { nodes, .. } => nodes.iter().map(|(_, n)| n.wire_size() + 32).sum(),
            Msg::GetMetaOk { nodes, .. } => nodes
                .iter()
                .map(|(_, n)| 32 + n.as_ref().map(|n| n.wire_size()).unwrap_or(0))
                .sum(),
            Msg::GetMeta { keys, .. } | Msg::DeleteMeta { keys, .. } => 32 * keys.len() as u64,
            Msg::Probe { events, .. } => ProbeEvent::WIRE_SIZE * events.len() as u64,
            Msg::TicketOk { ticket, .. } => 128 + 32 * ticket.pending.len() as u64,
            Msg::Directory { meta_providers, data_providers, .. } => {
                8 * (meta_providers.len() + data_providers.len()) as u64
            }
            Msg::AllocOk { placement, .. } => {
                placement.iter().map(|r| 8 * r.len() as u64 + 8).sum()
            }
            _ => 0, // control messages: header overhead only
        }
    }

    fn op_name(&self) -> &'static str {
        match self {
            Msg::Register { .. } => "Register",
            Msg::Heartbeat { .. } => "Heartbeat",
            Msg::Alloc { .. } => "Alloc",
            Msg::AllocOk { .. } => "AllocOk",
            Msg::AllocErr { .. } => "AllocErr",
            Msg::GetDirectory { .. } => "GetDirectory",
            Msg::Directory { .. } => "Directory",
            Msg::SetDraining { .. } => "SetDraining",
            Msg::Deregister { .. } => "Deregister",
            Msg::PutChunkBatch { .. } => "PutChunkBatch",
            Msg::PutChunkOk { .. } => "PutChunkOk",
            Msg::PutChunkErr { .. } => "PutChunkErr",
            Msg::GetChunkErr { .. } => "GetChunkErr",
            Msg::GetChunkBatch { .. } => "GetChunkBatch",
            Msg::GetChunkBatchOk { .. } => "GetChunkBatchOk",
            Msg::DeleteChunk { .. } => "DeleteChunk",
            Msg::DeleteChunkOk { .. } => "DeleteChunkOk",
            Msg::ReplicateChunk { .. } => "ReplicateChunk",
            Msg::ReplicateChunkOk { .. } => "ReplicateChunkOk",
            Msg::PutMeta { .. } => "PutMeta",
            Msg::PutMetaOk { .. } => "PutMetaOk",
            Msg::GetMeta { .. } => "GetMeta",
            Msg::GetMetaOk { .. } => "GetMetaOk",
            Msg::GetMetaRange { .. } => "GetMetaRange",
            Msg::GetMetaRangeOk { .. } => "GetMetaRangeOk",
            Msg::DeleteMeta { .. } => "DeleteMeta",
            Msg::DeleteMetaOk { .. } => "DeleteMetaOk",
            Msg::PatchLeaf { .. } => "PatchLeaf",
            Msg::PatchLeafOk { .. } => "PatchLeafOk",
            Msg::CreateBlob { .. } => "CreateBlob",
            Msg::CreateBlobOk { .. } => "CreateBlobOk",
            Msg::Ticket { .. } => "Ticket",
            Msg::TicketOk { .. } => "TicketOk",
            Msg::TicketErr { .. } => "TicketErr",
            Msg::Commit { .. } => "Commit",
            Msg::CommitOk { .. } => "CommitOk",
            Msg::GetVersion { .. } => "GetVersion",
            Msg::GetVersionOk { .. } => "GetVersionOk",
            Msg::GetVersionErr { .. } => "GetVersionErr",
            Msg::ListVersions { .. } => "ListVersions",
            Msg::VersionList { .. } => "VersionList",
            Msg::SnapshotVersion { .. } => "SnapshotVersion",
            Msg::SnapshotVersionOk { .. } => "SnapshotVersionOk",
            Msg::SnapshotVersionErr { .. } => "SnapshotVersionErr",
            Msg::DecommissionBlob { .. } => "DecommissionBlob",
            Msg::DecommissionBlobOk { .. } => "DecommissionBlobOk",
            Msg::ScrubChunks { .. } => "ScrubChunks",
            Msg::ScrubChunksOk { .. } => "ScrubChunksOk",
            Msg::ReportCorrupt { .. } => "ReportCorrupt",
            Msg::CorruptChunk { .. } => "CorruptChunk",
            Msg::RetireVersion { .. } => "RetireVersion",
            Msg::RetireVersionOk { .. } => "RetireVersionOk",
            Msg::ListStalled { .. } => "ListStalled",
            Msg::StalledList { .. } => "StalledList",
            Msg::ListBlobs { .. } => "ListBlobs",
            Msg::BlobList { .. } => "BlobList",
            Msg::BlockClient { .. } => "BlockClient",
            Msg::UnblockClient { .. } => "UnblockClient",
            Msg::Ext(_) => "Ext",
            Msg::Probe { .. } => "Probe",
        }
    }

    fn span_class(&self) -> sads_sim::SpanClass {
        use sads_sim::SpanClass;
        match self {
            // Bulk chunk traffic to/from data providers.
            Msg::PutChunkBatch { .. }
            | Msg::PutChunkOk { .. }
            | Msg::PutChunkErr { .. }
            | Msg::GetChunkErr { .. }
            | Msg::GetChunkBatch { .. }
            | Msg::GetChunkBatchOk { .. }
            | Msg::DeleteChunk { .. }
            | Msg::DeleteChunkOk { .. }
            | Msg::ReplicateChunk { .. }
            | Msg::ReplicateChunkOk { .. }
            | Msg::ScrubChunks { .. }
            | Msg::ScrubChunksOk { .. }
            | Msg::CorruptChunk { .. } => SpanClass::Store,
            // Metadata segment-tree traffic.
            Msg::PutMeta { .. }
            | Msg::PutMetaOk { .. }
            | Msg::GetMeta { .. }
            | Msg::GetMetaOk { .. }
            | Msg::GetMetaRange { .. }
            | Msg::GetMetaRangeOk { .. }
            | Msg::DeleteMeta { .. }
            | Msg::DeleteMetaOk { .. }
            | Msg::PatchLeaf { .. }
            | Msg::PatchLeafOk { .. } => SpanClass::Meta,
            // Everything else is control plane.
            _ => SpanClass::Control,
        }
    }

    fn as_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn as_any_ref(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sads_sim::Message;

    #[test]
    fn bulk_messages_report_payload_size() {
        let key = crate::model::ChunkKey { blob: BlobId(1), version: VersionId(1), page: 0 };
        let items = vec![(key, Payload::Sim(8 << 20), 0)];
        let m = Msg::PutChunkBatch { req: 1, client: ClientId(1), items };
        assert_eq!(m.wire_size(), (8 << 20) + 32, "the payload and its key and CRC");
        let items = vec![(key, Ok(Payload::Sim(8 << 20))), (key, Err(ChunkErr::NotFound))];
        let m = Msg::GetChunkBatchOk { req: 1, items };
        assert_eq!(m.wire_size(), (8 << 20) + 2 * 40);
        let m = Msg::Probe { origin: NodeId(1), at: sads_sim::SimTime::ZERO, events: vec![] };
        assert_eq!(m.wire_size(), 0);
        let m = Msg::PutChunkOk { req: 1 };
        assert_eq!(m.wire_size(), 0);
    }

    #[test]
    fn meta_batches_scale_with_node_count() {
        use crate::meta::{MetaNode, NodeKey, NodeRange, NodeRef};
        let key = NodeKey {
            blob: BlobId(1),
            version: VersionId(1),
            range: NodeRange::new(0, 2),
        };
        let node = MetaNode::Inner { left: NodeRef::Hole, right: NodeRef::Hole };
        let one = Msg::PutMeta { req: 1, nodes: vec![(key, node.clone())] }.wire_size();
        let two = Msg::PutMeta { req: 1, nodes: vec![(key, node.clone()), (key, node)] }
            .wire_size();
        assert_eq!(two, 2 * one);
        assert!(one > 0);
    }
}
