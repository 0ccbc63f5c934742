//! Critical-path analysis: where did each traced operation spend its
//! time?
//!
//! The network model decomposes every transfer into FIFO queueing,
//! byte serialization, and fixed wire latency; `Net` spans carry that
//! breakdown. Summing per trace and splitting serialization by traffic
//! class yields the four buckets the experiments report:
//!
//! * **queueing** — waiting in egress/ingress pipes (the DoS collapse
//!   mechanism: floods jam provider NICs and honest traffic queues),
//! * **wire** — fixed per-hop latency,
//! * **store** — serialization of bulk chunk traffic,
//! * **metadata** — serialization of metadata-tree + control traffic.

use crate::{SpanClass, SpanKind, SpanRecord};

/// Latency attribution for one traced operation.
#[derive(Clone, Copy, Debug)]
pub struct CriticalPath {
    /// The trace analyzed.
    pub trace: u64,
    /// Root operation label ("write", "read", "create").
    pub op: &'static str,
    /// Root span start, ns.
    pub start_ns: u64,
    /// Root span end-to-end duration, ns.
    pub total_ns: u64,
    /// Time waiting in NIC FIFO pipes, summed over every hop.
    pub queueing_ns: u64,
    /// Fixed wire latency, summed over every hop.
    pub wire_ns: u64,
    /// Serialization of chunk (bulk store) traffic.
    pub store_ns: u64,
    /// Serialization of metadata/control traffic.
    pub meta_ns: u64,
}

impl CriticalPath {
    /// The dominant bucket's name: which stage this operation's latency
    /// is mostly attributable to.
    pub fn dominant(&self) -> &'static str {
        let buckets = [
            ("queueing", self.queueing_ns),
            ("wire", self.wire_ns),
            ("store", self.store_ns),
            ("metadata", self.meta_ns),
        ];
        buckets
            .iter()
            .max_by_key(|(_, v)| *v)
            .map(|(n, _)| *n)
            .unwrap_or("queueing")
    }
}

/// One [`CriticalPath`] per parentless `Op` span, ordered by start time;
/// a nested `Op` (a client op in a gateway request) is part of its root's.
///
/// Single pass over the span list (plus a trace-id index), so analyzing
/// the millions of spans a long experiment records stays linear.
pub fn critical_paths(spans: &[SpanRecord]) -> Vec<CriticalPath> {
    let mut out: Vec<CriticalPath> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Op && s.parent == 0)
        .map(|root| CriticalPath {
            trace: root.trace,
            op: root.op,
            start_ns: root.start_ns,
            total_ns: root.duration_ns(),
            queueing_ns: 0,
            wire_ns: 0,
            store_ns: 0,
            meta_ns: 0,
        })
        .collect();
    let mut by_trace: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
    for (i, cp) in out.iter().enumerate() {
        by_trace.entry(cp.trace).or_default().push(i);
    }
    for s in spans.iter().filter(|s| s.kind == SpanKind::Net) {
        let Some(idxs) = by_trace.get(&s.trace) else { continue };
        for &i in idxs {
            let cp = &mut out[i];
            cp.queueing_ns += s.queue_ns;
            cp.wire_ns += s.wire_ns;
            match s.class {
                SpanClass::Store => cp.store_ns += s.xfer_ns,
                SpanClass::Meta | SpanClass::Control => cp.meta_ns += s.xfer_ns,
            }
        }
    }
    out.sort_by_key(|c| (c.start_ns, c.trace));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(trace: u64, class: SpanClass, queue: u64, xfer: u64, wire: u64) -> SpanRecord {
        SpanRecord {
            trace,
            span: 0,
            parent: 0,
            service: "net",
            op: "x",
            node: 0,
            start_ns: 0,
            end_ns: queue + xfer + wire,
            kind: SpanKind::Net,
            class,
            queue_ns: queue,
            xfer_ns: xfer,
            wire_ns: wire,
        }
    }

    fn root(trace: u64, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            trace,
            span: 1,
            parent: 0,
            service: "client",
            op: "write",
            node: 0,
            start_ns: start,
            end_ns: start + dur,
            kind: SpanKind::Op,
            class: SpanClass::Control,
            queue_ns: 0,
            xfer_ns: 0,
            wire_ns: 0,
        }
    }

    #[test]
    fn attribution_sums_per_trace_and_picks_dominant() {
        let spans = vec![
            root(1, 100, 10_000),
            net(1, SpanClass::Store, 100, 6_000, 50),
            net(1, SpanClass::Meta, 200, 300, 50),
            root(2, 200, 5_000),
            net(2, SpanClass::Store, 4_000, 500, 50),
        ];
        let cps = critical_paths(&spans);
        assert_eq!(cps.len(), 2);
        assert_eq!(cps[0].trace, 1);
        assert_eq!(cps[0].queueing_ns, 300);
        assert_eq!(cps[0].store_ns, 6_000);
        assert_eq!(cps[0].meta_ns, 300);
        assert_eq!(cps[0].dominant(), "store");
        assert_eq!(cps[1].dominant(), "queueing");
    }

    #[test]
    fn a_nested_op_shares_its_roots_path() {
        let nested = SpanRecord { span: 2, parent: 1, ..root(1, 150, 8_000) };
        let spans = vec![root(1, 100, 10_000), nested, net(1, SpanClass::Store, 100, 6_000, 50)];
        let cps = critical_paths(&spans);
        assert_eq!(cps.len(), 1, "one path per request");
        assert_eq!((cps[0].start_ns, cps[0].queueing_ns), (100, 100));
    }

    #[test]
    fn traces_without_roots_are_skipped() {
        let spans = vec![net(9, SpanClass::Store, 1, 1, 1)];
        assert!(critical_paths(&spans).is_empty());
    }
}
