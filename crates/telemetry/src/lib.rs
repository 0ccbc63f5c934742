//! # sads-telemetry — the live telemetry plane
//!
//! The one store of a deployment's current metrics, live while it runs:
//! the substrate the paper's self-adaptation loop evaluates its policies
//! against, and where experiment counters are read from afterwards.
//!
//! * [`Registry`] — a lock-cheap map of `(name, labels)` → counter / gauge /
//!   histogram cells holding current values, no history. A simulated
//!   `Env::incr` is one short mutex hold (a threaded cell's first only);
//!   a bump through a [`Counter`] or [`Gauge`] handle is one atomic op,
//!   through a [`Histogram`] (the shared `sads_trace::Histogram`,
//!   log-bucketed) a few relaxed ones.
//! * [`Snapshot`] — a structured point-in-time copy of the registry that the
//!   introspection layer ingests into its time-series machinery and the SLO
//!   alert engine evaluates burn-rate rules over.
//! * [`render_prometheus`] / [`parse_prometheus`] — Prometheus text
//!   exposition (served by the object gateway's `get_metrics()`), plus a
//!   small parser so tests can round-trip the format.
//! * [`ProcSampler`] — `/proc/self/{stat,statm,smaps_rollup}` readings
//!   exported as `proc.*` gauges (RSS + software high-water, page faults,
//!   mapped bytes), the memory-state attribution the read@256×32
//!   bistability diagnosis needed.
//! * [`HealthState`] and [`derive_health`] — per-node Ok/Degraded/Down
//!   derived from heartbeat gauges, the shared health model of the sim and
//!   threaded runtimes.
//! * [`export_span_stats`] — mirrors `SpanSink`'s dropped-span counter and
//!   per-`(service, op)` latency totals into the registry so trace loss is
//!   visible at runtime instead of silent.
//!
//! Registry operations never touch an event queue, a clock, or an RNG, so
//! telemetry cannot perturb a deterministic simulation schedule — the
//! `golden_wire` integration test pins the schedule with
//! `World::event_digest()`.

#![warn(missing_docs)]

mod expose;
mod hash;
mod health;
mod procstat;
mod registry;

pub use expose::{parse_prometheus, render_prometheus, sanitize_metric_name, ParsedSample};
pub use hash::{FastMap, FastSet, FoldHasher, FoldState};
pub use health::{derive_health, HealthPolicy, HealthState, NodeHealth, HEARTBEAT_GAUGE};
pub use procstat::{
    parse_proc_stat, parse_proc_statm, parse_smaps_rollup_rss, ProcSample, ProcSampler,
};
pub use registry::{
    Counter, Exemplar, Gauge, Histogram, HistogramSnapshot, NodeLabel, Registry, Sample,
    SampleValue, Snapshot,
};

use sads_trace::SpanSink;

/// Mirror a [`SpanSink`]'s loss counter and per-`(service, op)` histogram
/// totals into `reg` as gauges (`trace.dropped_spans`,
/// `trace.retained_spans`, `trace.span_count`, `trace.span_mean_ns`,
/// `trace.span_p99_ns`). Values are absolute snapshots, so repeated calls
/// simply refresh them.
pub fn export_span_stats(reg: &Registry, sink: &SpanSink) {
    reg.set("trace.dropped_spans", &[], sink.dropped() as f64);
    reg.set("trace.retained_spans", &[], sink.len() as f64);
    for ((service, op), h) in sink.histograms() {
        let labels = [("service", service), ("op", op)];
        reg.set("trace.span_count", &labels, h.count as f64);
        reg.set("trace.span_mean_ns", &labels, h.mean_ns);
        reg.set("trace.span_p99_ns", &labels, h.p99);
    }
}

#[cfg(test)]
mod span_export_tests {
    use super::*;
    use sads_trace::{SpanClass, SpanKind, SpanRecord};

    #[test]
    fn span_stats_surface_as_gauges() {
        let sink = SpanSink::with_capacity(1);
        for d in [10_000u64, 20_000] {
            sink.record(SpanRecord {
                trace: 1,
                span: sink.next_id(),
                parent: 0,
                service: "client",
                op: "write",
                node: 1,
                start_ns: 0,
                end_ns: d,
                kind: SpanKind::Op,
                class: SpanClass::Control,
                queue_ns: 0,
                xfer_ns: 0,
                wire_ns: 0,
            });
        }
        let reg = Registry::new();
        export_span_stats(&reg, &sink);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("trace.dropped_spans", &[]), Some(1.0));
        let labels = [("op", "write"), ("service", "client")];
        assert_eq!(snap.gauge("trace.span_count", &labels), Some(2.0));
        assert!(snap.gauge("trace.span_mean_ns", &labels).unwrap() > 0.0);
    }
}
