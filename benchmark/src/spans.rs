//! Per-layer numbers from the program's own spans: what the cluster
//! records into the sink handed to `ClusterBuilder::span_sink`, read as it
//! is. One client op is one trace (root `Op` span); its `Stage` spans are
//! the client state machine's phases, `Handle` spans the server-side work,
//! `Net` spans the mailbox waits.

use std::collections::{BTreeMap, HashMap};

use sads_sim::{SpanKind, SpanRecord};
use sads_trace::critical_paths;

use crate::stats::percentile;

/// `(metric, trace root, stage)`: the stages of the classic write and read
/// sessions, in protocol order.
const STAGES: [(&str, &str, &str); 9] = [
    ("client.write.ticket_us", "write", "ticket"),
    ("client.write.alloc_us", "write", "alloc"),
    ("client.write.chunks_us", "write", "chunks"),
    ("client.write.meta_resolve_us", "write", "meta_resolve"),
    ("client.write.meta_put_us", "write", "meta_put"),
    ("client.write.commit_us", "write", "commit"),
    ("client.read.version_us", "read", "version"),
    ("client.read.meta_us", "read", "meta"),
    ("client.read.chunks_us", "read", "chunks"),
];
/// `(metric, service)` of the server-side `Handle` spans.
const HANDLERS: [(&str, &str); 3] = [
    ("meta.handle_us_per_op", "meta"),
    ("vmanager.handle_us_per_op", "vmanager"),
    ("pmanager.handle_us_per_op", "pman"),
];
/// Trace roots that are data ops (as opposed to create / snapshot).
const DATA_OPS: [&str; 4] = ["write", "read", "write_stream", "read_stream"];

#[derive(Default)]
struct Trace {
    op: &'static str,
    stage_ns: HashMap<&'static str, u64>,
}

fn p50_us(mut ns: Vec<u64>) -> f64 {
    percentile(&mut ns, 0.5) as f64 / 1e3
}

/// Per-layer metrics of the measured rounds of a traced phase. `ops` is
/// the number of benchmark ops those rounds completed and `latency_ns`
/// their latencies, as the benchmark timed them from outside, summed.
pub fn layer_metrics(
    spans: &[SpanRecord],
    ops: u64,
    latency_ns: u64,
) -> BTreeMap<&'static str, f64> {
    let mut traces: HashMap<u64, Trace> = HashMap::new();
    let mut handle_ns: HashMap<&'static str, u64> = HashMap::new();
    let mut msgs = 0u64;
    for s in spans {
        match s.kind {
            SpanKind::Op if s.service == "client" => {
                traces.entry(s.trace).or_default().op = s.op;
            }
            // `stream_*` spans time a parked sub-op and lie over the
            // session's phase stages; counting both would double-cover.
            SpanKind::Stage if s.service == "client" && !s.op.starts_with("stream_") => {
                let t = traces.entry(s.trace).or_default();
                *t.stage_ns.entry(s.op).or_default() += s.duration_ns();
            }
            SpanKind::Handle => *handle_ns.entry(s.service).or_default() += s.duration_ns(),
            SpanKind::Net => msgs += 1,
            _ => {}
        }
    }

    let per_op = |x: u64| x as f64 / ops.max(1) as f64;
    let mut out = BTreeMap::new();
    for (metric, root, stage) in STAGES {
        let per_trace = traces
            .values()
            .filter(|t| t.op == root)
            .map(|t| t.stage_ns.get(stage).copied().unwrap_or(0))
            .collect();
        out.insert(metric, p50_us(per_trace));
    }
    // Op latency seen from outside minus what the stage spans cover: the
    // hop into the client cell, completion delivery, the driver thread's
    // wake-up and, on the gateway, everything above the client. A mean:
    // stages tile an op exactly, so totals subtract without pairing.
    let staged: u64 = traces
        .values()
        .filter(|t| DATA_OPS.contains(&t.op))
        .map(|t| t.stage_ns.values().sum::<u64>())
        .sum();
    let residual = latency_ns.saturating_sub(staged);
    out.insert("client.unattributed_us", per_op(residual) / 1e3);

    for (metric, service) in HANDLERS {
        let ns = handle_ns.get(service).copied().unwrap_or(0);
        out.insert(metric, per_op(ns) / 1e3);
    }
    out.insert("runtime.msgs_per_op", per_op(msgs));
    let queued: u64 = critical_paths(spans).iter().map(|c| c.queueing_ns).sum();
    out.insert("runtime.mailbox_wait_us_per_op", per_op(queued) / 1e3);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sads_sim::SpanClass;

    fn span(
        trace: u64,
        kind: SpanKind,
        service: &'static str,
        op: &'static str,
        ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace,
            span: 0,
            parent: 0,
            service,
            op,
            node: 0,
            start_ns: 0,
            end_ns: ns,
            kind,
            class: SpanClass::Control,
            queue_ns: if kind == SpanKind::Net { ns } else { 0 },
            xfer_ns: 0,
            wire_ns: 0,
        }
    }

    #[test]
    fn stages_handles_and_messages_are_attributed_per_op() {
        let spans = [
            span(1, SpanKind::Op, "client", "write", 10_000),
            span(1, SpanKind::Stage, "client", "ticket", 2_000),
            span(1, SpanKind::Stage, "client", "chunks", 3_000),
            span(1, SpanKind::Stage, "client", "chunks", 1_000),
            span(1, SpanKind::Handle, "vmanager", "Ticket", 500),
            span(1, SpanKind::Net, "net", "Ticket", 400),
            span(2, SpanKind::Op, "client", "read", 6_000),
            span(2, SpanKind::Stage, "client", "chunks", 5_000),
            span(2, SpanKind::Stage, "client", "stream_next", 4_000),
            span(2, SpanKind::Net, "net", "GetChunk", 600),
            span(3, SpanKind::Op, "client", "create", 1_000),
        ];
        let m = layer_metrics(&spans, 2, 20_000);
        assert_eq!(m["client.write.ticket_us"], 2.0);
        assert_eq!(m["client.write.chunks_us"], 4.0);
        assert_eq!(m["client.write.commit_us"], 0.0);
        assert_eq!(m["client.read.chunks_us"], 5.0);
        // 20 µs of latency, 11 µs of it in stages, over two ops.
        assert_eq!(m["client.unattributed_us"], 4.5);
        assert_eq!(m["vmanager.handle_us_per_op"], 0.25);
        assert_eq!(m["pmanager.handle_us_per_op"], 0.0);
        assert_eq!(m["runtime.msgs_per_op"], 1.0);
        assert_eq!(m["runtime.mailbox_wait_us_per_op"], 0.5);
    }
}
