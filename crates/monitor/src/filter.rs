//! Data filters — the paper's "set of data filters at the level of the
//! monitoring services to aggregate the BlobSeer-specific data".
//!
//! A filter ingests raw [`ProbeEvent`]s as they arrive at a monitoring
//! service and, on each flush, emits aggregated parameter records and/or
//! user-activity records.

use std::collections::HashMap;

use sads_blob::model::BlobId;
use sads_blob::probe::ProbeEvent;
use sads_sim::{NodeId, SimTime};

use crate::record::{ActivityKind, ActivityRecord, MetricId, MonRecord, ParamKey};

/// What a flush produces.
#[derive(Debug, Default)]
pub struct FilterOutput {
    /// Aggregated parameters.
    pub params: Vec<MonRecord>,
    /// User-activity records.
    pub activity: Vec<ActivityRecord>,
}

impl FilterOutput {
    /// Merge another output into this one.
    pub fn merge(&mut self, mut other: FilterOutput) {
        self.params.append(&mut other.params);
        self.activity.append(&mut other.activity);
    }

    /// Is there anything to ship?
    pub fn is_empty(&self) -> bool {
        self.params.is_empty() && self.activity.is_empty()
    }
}

/// A pluggable aggregation stage.
pub trait DataFilter: Send {
    /// Filter name (reports, benches).
    fn name(&self) -> &'static str;
    /// Observe one raw event (the event arrived at `at` from node
    /// `origin`).
    fn ingest(&mut self, origin: NodeId, event: &ProbeEvent, at: SimTime);
    /// Emit the window's aggregates; `window` is the time since the
    /// previous flush.
    fn flush(&mut self, at: SimTime, window_secs: f64) -> FilterOutput;
}

// ---------------------------------------------------------------------

/// Forwards provider self-reports as gauge parameters (CPU, memory,
/// storage, item count) — the "evolution of the physical parameters" and
/// "storage space on each provider" panels of the visualization tool.
#[derive(Debug, Default)]
pub struct LoadFilter {
    pending: Vec<MonRecord>,
}

impl DataFilter for LoadFilter {
    fn name(&self) -> &'static str {
        "load"
    }

    fn ingest(&mut self, _origin: NodeId, event: &ProbeEvent, at: SimTime) {
        if let ProbeEvent::ProviderLoad { provider, used, capacity, items, recent_ops, cpu, mem } =
            event
        {
            let mut push = |metric, value| {
                self.pending.push(MonRecord {
                    at,
                    key: ParamKey { origin: *provider, metric, blob: None },
                    value,
                });
            };
            push(MetricId::Cpu, *cpu);
            push(MetricId::Mem, *mem);
            push(MetricId::UsedBytes, *used as f64);
            push(MetricId::Capacity, *capacity as f64);
            push(MetricId::Items, *items as f64);
            push(MetricId::OpsPerSec, *recent_ops as f64);
        }
    }

    fn flush(&mut self, _at: SimTime, _window_secs: f64) -> FilterOutput {
        FilterOutput { params: std::mem::take(&mut self.pending), activity: vec![] }
    }
}

// ---------------------------------------------------------------------

/// Windowed per-provider rates: write/read throughput and rejection rate.
#[derive(Debug, Default)]
pub struct RateFilter {
    write_bytes: HashMap<NodeId, u64>,
    read_bytes: HashMap<NodeId, u64>,
    rejects: HashMap<NodeId, u64>,
}

impl DataFilter for RateFilter {
    fn name(&self) -> &'static str {
        "rate"
    }

    fn ingest(&mut self, _origin: NodeId, event: &ProbeEvent, _at: SimTime) {
        match event {
            ProbeEvent::ChunkWritten { provider, bytes, .. } => {
                *self.write_bytes.entry(*provider).or_insert(0) += bytes;
            }
            ProbeEvent::ChunkRead { provider, bytes, .. } => {
                *self.read_bytes.entry(*provider).or_insert(0) += bytes;
            }
            ProbeEvent::ChunkRejected { provider, .. } => {
                *self.rejects.entry(*provider).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    fn flush(&mut self, at: SimTime, window_secs: f64) -> FilterOutput {
        let w = window_secs.max(1e-9);
        let mut params = Vec::new();
        for (provider, bytes) in self.write_bytes.drain() {
            params.push(MonRecord {
                at,
                key: ParamKey { origin: provider, metric: MetricId::WriteMBps, blob: None },
                value: bytes as f64 / 1e6 / w,
            });
        }
        for (provider, bytes) in self.read_bytes.drain() {
            params.push(MonRecord {
                at,
                key: ParamKey { origin: provider, metric: MetricId::ReadMBps, blob: None },
                value: bytes as f64 / 1e6 / w,
            });
        }
        for (provider, n) in self.rejects.drain() {
            params.push(MonRecord {
                at,
                key: ParamKey { origin: provider, metric: MetricId::RejectsPerSec, blob: None },
                value: n as f64 / w,
            });
        }
        FilterOutput { params, activity: vec![] }
    }
}

// ---------------------------------------------------------------------

/// Per-BLOB access aggregation: windowed write/read volume and latest
/// size — the "BLOB access patterns" panel.
#[derive(Debug, Default)]
pub struct BlobAccessFilter {
    write_mb: HashMap<BlobId, f64>,
    read_mb: HashMap<BlobId, f64>,
    sizes: HashMap<BlobId, u64>,
    vman: Option<NodeId>,
}

impl DataFilter for BlobAccessFilter {
    fn name(&self) -> &'static str {
        "blob_access"
    }

    fn ingest(&mut self, origin: NodeId, event: &ProbeEvent, _at: SimTime) {
        match event {
            ProbeEvent::ChunkWritten { key, bytes, .. } => {
                *self.write_mb.entry(key.blob).or_insert(0.0) += *bytes as f64 / 1e6;
            }
            ProbeEvent::ChunkRead { key, bytes, hit: true, .. } => {
                *self.read_mb.entry(key.blob).or_insert(0.0) += *bytes as f64 / 1e6;
            }
            ProbeEvent::VersionPublished { blob, size, .. } => {
                self.vman = Some(origin);
                self.sizes.insert(*blob, *size);
            }
            _ => {}
        }
    }

    fn flush(&mut self, at: SimTime, _window_secs: f64) -> FilterOutput {
        let origin = self.vman.unwrap_or(NodeId(0));
        let mut params = Vec::new();
        for (blob, mb) in self.write_mb.drain() {
            params.push(MonRecord {
                at,
                key: ParamKey { origin, metric: MetricId::BlobWriteMB, blob: Some(blob) },
                value: mb,
            });
        }
        for (blob, mb) in self.read_mb.drain() {
            params.push(MonRecord {
                at,
                key: ParamKey { origin, metric: MetricId::BlobReadMB, blob: Some(blob) },
                value: mb,
            });
        }
        for (blob, size) in &self.sizes {
            params.push(MonRecord {
                at,
                key: ParamKey { origin, metric: MetricId::BlobSizeMB, blob: Some(*blob) },
                value: *size as f64 / 1e6,
            });
        }
        FilterOutput { params, activity: vec![] }
    }
}

// ---------------------------------------------------------------------

/// Turns every security-relevant event into a [User Activity
/// History](crate::storage::MonStore) record — the feed of the paper's
/// security framework.
#[derive(Debug, Default)]
pub struct ActivityFilter {
    pending: Vec<ActivityRecord>,
}

impl DataFilter for ActivityFilter {
    fn name(&self) -> &'static str {
        "activity"
    }

    fn ingest(&mut self, _origin: NodeId, event: &ProbeEvent, at: SimTime) {
        let rec = match event {
            ProbeEvent::ChunkWritten { provider, client, key, bytes } => ActivityRecord {
                at,
                client: *client,
                kind: ActivityKind::ChunkWrite,
                blob: Some(key.blob),
                provider: Some(*provider),
                chunk: Some(*key),
                bytes: *bytes,
            },
            ProbeEvent::ChunkRead { provider, client, key, bytes, hit } => ActivityRecord {
                at,
                client: *client,
                kind: if *hit { ActivityKind::ChunkRead } else { ActivityKind::ChunkReadMiss },
                blob: Some(key.blob),
                provider: Some(*provider),
                chunk: Some(*key),
                bytes: *bytes,
            },
            ProbeEvent::ChunkRecovered { provider, key, bytes } => ActivityRecord {
                at,
                client: sads_blob::model::ClientId::SYSTEM,
                kind: ActivityKind::ChunkRecovered,
                blob: Some(key.blob),
                provider: Some(*provider),
                chunk: Some(*key),
                bytes: *bytes,
            },
            ProbeEvent::ChunkRejected { provider, client, .. } => ActivityRecord {
                at,
                client: *client,
                kind: ActivityKind::Rejected,
                blob: None,
                provider: Some(*provider),
                chunk: None,
                bytes: 0,
            },
            ProbeEvent::TicketIssued { client, blob, len, .. } => ActivityRecord {
                at,
                client: *client,
                kind: ActivityKind::TicketIssued,
                blob: Some(*blob),
                provider: None,
                chunk: None,
                bytes: *len,
            },
            ProbeEvent::TicketRejected { client, blob, blocked } => ActivityRecord {
                at,
                client: *client,
                kind: if *blocked {
                    ActivityKind::TicketBlocked
                } else {
                    ActivityKind::TicketRejected
                },
                blob: Some(*blob),
                provider: None,
                chunk: None,
                bytes: 0,
            },
            ProbeEvent::VersionPublished { blob, writer, size, .. } => ActivityRecord {
                at,
                client: *writer,
                kind: ActivityKind::Published,
                blob: Some(*blob),
                provider: None,
                chunk: None,
                bytes: *size,
            },
            _ => return,
        };
        self.pending.push(rec);
    }

    fn flush(&mut self, _at: SimTime, _window_secs: f64) -> FilterOutput {
        FilterOutput { params: vec![], activity: std::mem::take(&mut self.pending) }
    }
}

/// The default filter stack every monitoring service starts with.
pub fn default_filters() -> Vec<Box<dyn DataFilter>> {
    vec![
        Box::<LoadFilter>::default(),
        Box::<RateFilter>::default(),
        Box::<BlobAccessFilter>::default(),
        Box::<ActivityFilter>::default(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sads_blob::model::{ChunkKey, ClientId, VersionId};

    fn t(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    fn write_event(provider: u32, client: u64, bytes: u64) -> ProbeEvent {
        ProbeEvent::ChunkWritten {
            provider: NodeId(provider),
            client: ClientId(client),
            key: ChunkKey { blob: BlobId(1), version: VersionId(1), page: 0 },
            bytes,
        }
    }

    #[test]
    fn rate_filter_computes_windowed_throughput() {
        let mut f = RateFilter::default();
        for _ in 0..4 {
            f.ingest(NodeId(1), &write_event(1, 9, 25_000_000), t(0));
        }
        let out = f.flush(t(2), 2.0);
        assert_eq!(out.params.len(), 1);
        let p = out.params[0];
        assert_eq!(p.key.metric, MetricId::WriteMBps);
        assert!((p.value - 50.0).abs() < 1e-9, "100 MB over 2 s = 50 MB/s, got {}", p.value);
        // Window resets.
        assert!(f.flush(t(4), 2.0).is_empty());
    }

    #[test]
    fn load_filter_expands_provider_report() {
        let mut f = LoadFilter::default();
        f.ingest(
            NodeId(3),
            &ProbeEvent::ProviderLoad {
                provider: NodeId(3),
                used: 100,
                capacity: 200,
                items: 4,
                recent_ops: 7,
                cpu: 0.25,
                mem: 0.5,
            },
            t(1),
        );
        let out = f.flush(t(1), 1.0);
        assert_eq!(out.params.len(), 6);
        assert!(out
            .params
            .iter()
            .any(|p| p.key.metric == MetricId::Cpu && (p.value - 0.25).abs() < 1e-12));
    }

    #[test]
    fn activity_filter_translates_events() {
        let mut f = ActivityFilter::default();
        f.ingest(NodeId(1), &write_event(1, 42, 10), t(1));
        f.ingest(
            NodeId(2),
            &ProbeEvent::TicketRejected { client: ClientId(42), blob: BlobId(1), blocked: true },
            t(2),
        );
        let out = f.flush(t(3), 2.0);
        assert_eq!(out.activity.len(), 2);
        assert_eq!(out.activity[0].kind, ActivityKind::ChunkWrite);
        assert_eq!(out.activity[1].kind, ActivityKind::TicketBlocked);
        assert_eq!(out.activity[1].client, ClientId(42));
    }

    #[test]
    fn blob_access_filter_aggregates_per_blob() {
        let mut f = BlobAccessFilter::default();
        f.ingest(NodeId(1), &write_event(1, 9, 8_000_000), t(0));
        f.ingest(NodeId(1), &write_event(1, 9, 8_000_000), t(0));
        f.ingest(
            NodeId(5),
            &ProbeEvent::VersionPublished {
                blob: BlobId(1),
                version: VersionId(1),
                size: 16_000_000,
                writer: ClientId(9),
            },
            t(1),
        );
        let out = f.flush(t(2), 2.0);
        let wr = out
            .params
            .iter()
            .find(|p| p.key.metric == MetricId::BlobWriteMB)
            .expect("write aggregate");
        assert!((wr.value - 16.0).abs() < 1e-9);
        assert_eq!(wr.key.blob, Some(BlobId(1)));
        let sz = out
            .params
            .iter()
            .find(|p| p.key.metric == MetricId::BlobSizeMB)
            .expect("size gauge");
        assert!((sz.value - 16.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_flushes_are_empty_everywhere() {
        // A flush with nothing ingested must ship nothing, for every
        // filter in the default stack — otherwise idle monitors would
        // spam the storage layer with zero-valued records.
        for f in default_filters().iter_mut() {
            let out = f.flush(t(5), 5.0);
            assert!(out.is_empty(), "filter {:?} produced output from an empty window", f.name());
        }
    }

    #[test]
    fn zero_width_flush_window_stays_finite() {
        // Back-to-back flushes give window_secs = 0; rates must clamp
        // the divisor rather than emit inf/NaN.
        let mut f = RateFilter::default();
        f.ingest(NodeId(1), &write_event(1, 9, 1_000_000), t(0));
        let out = f.flush(t(0), 0.0);
        assert_eq!(out.params.len(), 1);
        assert!(out.params[0].value.is_finite());
    }

    #[test]
    fn events_never_straddle_a_flush_boundary() {
        // An event ingested after a flush belongs to the next window
        // only: no double counting, no loss.
        let mut f = RateFilter::default();
        f.ingest(NodeId(1), &write_event(1, 9, 10_000_000), t(1));
        let first = f.flush(t(2), 2.0);
        assert_eq!(first.params.len(), 1);
        f.ingest(NodeId(1), &write_event(1, 9, 30_000_000), t(3));
        let second = f.flush(t(4), 2.0);
        assert_eq!(second.params.len(), 1);
        assert!((second.params[0].value - 15.0).abs() < 1e-9, "only the second event counts");
        // And a third, idle window is empty again.
        assert!(f.flush(t(6), 2.0).is_empty());
    }

    #[test]
    fn blob_sizes_survive_flushes_but_volumes_reset() {
        let mut f = BlobAccessFilter::default();
        f.ingest(NodeId(1), &write_event(1, 9, 8_000_000), t(0));
        f.ingest(
            NodeId(5),
            &ProbeEvent::VersionPublished {
                blob: BlobId(1),
                version: VersionId(1),
                size: 8_000_000,
                writer: ClientId(9),
            },
            t(1),
        );
        let first = f.flush(t(2), 2.0);
        assert!(first.params.iter().any(|p| p.key.metric == MetricId::BlobWriteMB));
        // Next window: the windowed volume is gone, the size gauge —
        // current state, not a delta — is re-emitted.
        let second = f.flush(t(4), 2.0);
        assert!(!second.params.iter().any(|p| p.key.metric == MetricId::BlobWriteMB));
        let sz = second
            .params
            .iter()
            .find(|p| p.key.metric == MetricId::BlobSizeMB)
            .expect("size gauge persists");
        assert!((sz.value - 8.0).abs() < 1e-9);
    }

    #[test]
    fn blob_access_ignores_read_misses() {
        let mut f = BlobAccessFilter::default();
        f.ingest(
            NodeId(1),
            &ProbeEvent::ChunkRead {
                provider: NodeId(1),
                client: ClientId(9),
                key: ChunkKey { blob: BlobId(1), version: VersionId(1), page: 0 },
                bytes: 4_000_000,
                hit: false,
            },
            t(0),
        );
        assert!(f.flush(t(1), 1.0).is_empty(), "misses moved no data");
    }

    #[test]
    fn default_stack_has_four_filters() {
        let names: Vec<&str> = default_filters().iter().map(|f| f.name()).collect();
        assert_eq!(names, vec!["load", "rate", "blob_access", "activity"]);
    }
}
