//! Monitoring-layer data model: the parameters and user-activity records
//! that the data filters distill from raw instrumentation events, plus the
//! messages the monitoring pipeline exchanges.

use sads_blob::model::{BlobId, ClientId};
use sads_blob::{impl_ext_payload, rpc::Msg};
use sads_sim::{NodeId, SimTime};

/// What a monitored parameter measures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MetricId {
    /// Synthetic CPU load, 0..=1.
    Cpu,
    /// Synthetic memory pressure, 0..=1.
    Mem,
    /// Bytes stored on a provider.
    UsedBytes,
    /// Provider capacity (bytes).
    Capacity,
    /// Items (chunks / tree nodes) stored.
    Items,
    /// Requests per second served.
    OpsPerSec,
    /// Chunk-write throughput (MB/s) through a provider.
    WriteMBps,
    /// Chunk-read throughput (MB/s) through a provider.
    ReadMBps,
    /// Rejections per second at a provider.
    RejectsPerSec,
    /// Bytes written to a BLOB in the window (MB).
    BlobWriteMB,
    /// Bytes read from a BLOB in the window (MB).
    BlobReadMB,
    /// BLOB size (MB) as of the latest publication seen.
    BlobSizeMB,
}

impl MetricId {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            MetricId::Cpu => "cpu",
            MetricId::Mem => "mem",
            MetricId::UsedBytes => "used_bytes",
            MetricId::Capacity => "capacity",
            MetricId::Items => "items",
            MetricId::OpsPerSec => "ops_per_sec",
            MetricId::WriteMBps => "write_mbps",
            MetricId::ReadMBps => "read_mbps",
            MetricId::RejectsPerSec => "rejects_per_sec",
            MetricId::BlobWriteMB => "blob_write_mb",
            MetricId::BlobReadMB => "blob_read_mb",
            MetricId::BlobSizeMB => "blob_size_mb",
        }
    }
}

/// Identity of one monitored parameter (the paper's "storage schema for
/// the monitored parameters").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ParamKey {
    /// The node the parameter describes (provider, manager, …).
    pub origin: NodeId,
    /// What is measured.
    pub metric: MetricId,
    /// BLOB-scoped parameters carry the BLOB id.
    pub blob: Option<BlobId>,
}

/// One observation of one parameter.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MonRecord {
    /// When it was observed (at the monitoring service).
    pub at: SimTime,
    /// Which parameter.
    pub key: ParamKey,
    /// The value.
    pub value: f64,
}

impl MonRecord {
    /// Approximate serialized size.
    pub const WIRE_SIZE: u64 = 40;
}

/// What a client did — the unit the security framework reasons over.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ActivityKind {
    /// Stored a chunk.
    ChunkWrite,
    /// A restarted provider re-announced a chunk recovered from its
    /// durable backend (attributed to `ClientId::SYSTEM`). The
    /// replication manager treats it like a write for placement.
    ChunkRecovered,
    /// Read a chunk that existed.
    ChunkRead,
    /// Asked for a chunk that did not exist.
    ChunkReadMiss,
    /// Was rejected by a provider (blocked / full / malformed).
    Rejected,
    /// Obtained a write ticket.
    TicketIssued,
    /// Was refused a ticket for a validation error.
    TicketRejected,
    /// Was refused a ticket because of a security block.
    TicketBlocked,
    /// Published a version.
    Published,
}

/// One entry of the User Activity History.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ActivityRecord {
    /// When the underlying event happened.
    pub at: SimTime,
    /// The acting client.
    pub client: ClientId,
    /// What happened.
    pub kind: ActivityKind,
    /// The BLOB involved, when known.
    pub blob: Option<BlobId>,
    /// The provider involved, when any.
    pub provider: Option<NodeId>,
    /// The chunk involved (data-plane events) — lets the replication
    /// manager reconstruct chunk placement from the monitoring stream.
    pub chunk: Option<sads_blob::model::ChunkKey>,
    /// Payload bytes moved (0 for control events).
    pub bytes: u64,
}

impl ActivityRecord {
    /// Approximate serialized size.
    pub const WIRE_SIZE: u64 = 80;
}

/// Messages of the monitoring pipeline, carried as [`Msg::Ext`].
#[derive(Debug)]
pub enum MonMsg {
    /// Monitoring service → storage server: a flushed batch.
    StoreBatch {
        /// Aggregated parameters.
        params: Vec<MonRecord>,
        /// User activity records.
        activity: Vec<ActivityRecord>,
    },
    /// Consumer → storage server: activity records with store sequence
    /// number greater than `after_seq` (exactly-once pull cursor).
    QueryActivity {
        /// Correlation id.
        req: u64,
        /// Cursor: last sequence number already consumed.
        after_seq: u64,
    },
    /// Storage server → consumer: the queried activity.
    ActivityBatch {
        /// Correlation id.
        req: u64,
        /// Matching records, store order.
        records: Vec<ActivityRecord>,
        /// The consumer's next cursor.
        last_seq: u64,
    },
    /// Consumer → storage server: parameter records with sequence number
    /// greater than `after_seq`.
    QueryParams {
        /// Correlation id.
        req: u64,
        /// Cursor: last sequence number already consumed.
        after_seq: u64,
    },
    /// Storage server → consumer: the queried parameters.
    ParamBatch {
        /// Correlation id.
        req: u64,
        /// Matching records, store order.
        records: Vec<MonRecord>,
        /// The consumer's next cursor.
        last_seq: u64,
    },
}

impl_ext_payload!(MonMsg, |m: &MonMsg| match m {
    MonMsg::StoreBatch { params, activity } => {
        MonRecord::WIRE_SIZE * params.len() as u64
            + ActivityRecord::WIRE_SIZE * activity.len() as u64
    }
    MonMsg::ActivityBatch { records, .. } =>
        ActivityRecord::WIRE_SIZE * records.len() as u64,
    MonMsg::ParamBatch { records, .. } => MonRecord::WIRE_SIZE * records.len() as u64,
    _ => 0,
});

/// Wrap a [`MonMsg`] for transport.
pub fn mon_msg(m: MonMsg) -> Msg {
    Msg::Ext(Box::new(m))
}

/// Borrow a [`MonMsg`] out of a transport message, if that is what it is.
pub fn as_mon(msg: &Msg) -> Option<&MonMsg> {
    match msg {
        Msg::Ext(p) => p.downcast_ref::<MonMsg>(),
        _ => None,
    }
}

/// Take a [`MonMsg`] out of a transport message.
pub fn into_mon(msg: Msg) -> Option<MonMsg> {
    match msg {
        Msg::Ext(p) => p.downcast::<MonMsg>().ok().map(|b| *b),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sads_sim::Message;

    #[test]
    fn ext_roundtrip_through_transport() {
        let m = mon_msg(MonMsg::QueryActivity { req: 7, after_seq: 0 });
        assert!(as_mon(&m).is_some());
        match into_mon(m) {
            Some(MonMsg::QueryActivity { req, .. }) => assert_eq!(req, 7),
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn wire_size_scales_with_batch() {
        let rec = MonRecord {
            at: SimTime::ZERO,
            key: ParamKey { origin: NodeId(1), metric: MetricId::Cpu, blob: None },
            value: 0.5,
        };
        let m = mon_msg(MonMsg::StoreBatch { params: vec![rec; 10], activity: vec![] });
        assert_eq!(m.wire_size(), 10 * MonRecord::WIRE_SIZE);
    }

    #[test]
    fn non_ext_messages_are_not_mon() {
        let m = Msg::PutChunkOk { req: 1 };
        assert!(as_mon(&m).is_none());
        assert!(into_mon(m).is_none());
    }

    #[test]
    fn metric_names_are_stable() {
        assert_eq!(MetricId::Cpu.name(), "cpu");
        assert_eq!(MetricId::BlobSizeMB.name(), "blob_size_mb");
    }
}
