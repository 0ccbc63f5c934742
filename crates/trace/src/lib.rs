//! # sads-trace — causal request tracing and latency accounting
//!
//! The paper's thesis is that self-adaptation is bounded by what the
//! system can observe about itself (§III introspection). Aggregate
//! metrics say *that* throughput collapsed; spans say *where* each
//! request spent its time while it happened. This crate is the
//! runtime-agnostic substrate:
//!
//! * [`TraceCtx`] — the causal context carried on every message
//!   envelope, linking a client operation to every hop it fans out to
//!   (vmanager ticket, provider puts and their retries, metadata tree
//!   update, publication).
//! * [`Histogram`] — the one histogram, log-bucketed and lock-free, with
//!   quantiles within 12.5 %. [`SpanSink`], a lock-cheap collector of
//!   [`SpanRecord`]s, keeps one per `(service, op)`; the telemetry
//!   registry's histogram cells are one each.
//! * [`chrome_trace_json`] / [`spans_csv`] — exporters (the JSON loads
//!   directly into `chrome://tracing` / Perfetto).
//! * [`FlightRecorder`] — always-on bounded per-service rings of recent
//!   runtime events ([`FlightEvent`]), frozen into [`FlightDump`]s
//!   (chrome://tracing JSON + `statusz` text) when an anomaly detector
//!   or SLO alert fires.
//! * [`critical_paths`] — given a span forest, attributes each traced
//!   operation's latency to queueing vs. wire vs. store vs. metadata
//!   and names the dominant stage.
//!
//! Timestamps are plain `u64` nanoseconds so the same types serve the
//! deterministic simulator (`SimTime` nanos) and the threaded runtime
//! (monotonic wall-clock nanos).
//!
//! ## Overhead contract
//!
//! Tracing is **observational only**: recording a span never schedules
//! an event, draws from an RNG, or changes any transfer arithmetic.
//! With no sink installed the cost is one branch per send; with a sink
//! installed the event schedule of a seeded simulation is *identical*
//! to an untraced run (only the side channel of span records differs).

#![warn(missing_docs)]

mod critical;
mod export;
mod hist;
mod recorder;

pub use critical::{critical_paths, CriticalPath};
pub use export::{chrome_trace_json, spans_csv};
pub use hist::{atomic_f64_add, Histogram, HistogramSummary};
pub use recorder::{
    FlightDump, FlightEvent, FlightRecorder, Ring, RingDump, DEFAULT_RING_BYTES, DUMP_CAP,
    EVENT_BYTES,
};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Causal context carried on a message envelope: which trace the message
/// belongs to, which span sent it, and that span's parent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceCtx {
    /// The trace (one per traced client operation).
    pub trace_id: u64,
    /// The span that emitted the message (new spans parent to it).
    pub span_id: u64,
    /// The emitting span's own parent (0 = root).
    pub parent: u64,
}

/// What a span measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// A whole client operation (write/read/create): the trace root.
    Op,
    /// One phase of an operation's state machine (ticket, chunks, …).
    Stage,
    /// One message transfer through the network (queueing + wire +
    /// serialization, with the breakdown in the span's timing fields).
    Net,
    /// Server-side handling of one received message.
    Handle,
}

impl SpanKind {
    /// Stable lowercase label (used by exporters).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::Stage => "stage",
            SpanKind::Net => "net",
            SpanKind::Handle => "handle",
        }
    }
}

/// Traffic class of a message, used by the critical-path analyzer to
/// attribute serialization time to a pipeline stage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanClass {
    /// Control-plane traffic (tickets, allocations, publication).
    Control,
    /// Bulk chunk data to/from data providers.
    Store,
    /// Metadata tree traffic to/from metadata providers.
    Meta,
}

impl SpanClass {
    /// Stable lowercase label (used by exporters).
    pub fn label(self) -> &'static str {
        match self {
            SpanClass::Control => "control",
            SpanClass::Store => "store",
            SpanClass::Meta => "meta",
        }
    }
}

/// One finished span. `service`/`op` are `'static` so recording never
/// allocates; timing is in nanoseconds on whichever clock the hosting
/// runtime uses.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Emitting component ("client", "net", "provider", …).
    pub service: &'static str,
    /// Operation label ("write", "PutChunkBatch", "ticket", …).
    pub op: &'static str,
    /// Node the span was recorded on.
    pub node: u64,
    /// Start timestamp, ns.
    pub start_ns: u64,
    /// End timestamp, ns.
    pub end_ns: u64,
    /// What the span measures.
    pub kind: SpanKind,
    /// Traffic class (meaningful for `Net` spans).
    pub class: SpanClass,
    /// Time spent waiting in FIFO pipes (egress + ingress), ns.
    pub queue_ns: u64,
    /// Time spent serializing bytes through NICs, ns.
    pub xfer_ns: u64,
    /// Fixed wire latency, ns.
    pub wire_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds (saturating).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Default cap on retained span records (histograms keep counting past
/// it; overflow spans are counted in [`SpanSink::dropped`]).
pub const DEFAULT_SPAN_CAP: usize = 1 << 20;

struct SinkInner {
    spans: Vec<SpanRecord>,
    hist: HashMap<(&'static str, &'static str), Histogram>,
}

/// A shared collector of spans. Id allocation is a single atomic
/// fetch-add; recording takes one short mutex hold (append + histogram
/// bump), cheap enough for per-message use in the simulator and for the
/// threaded runtime's handler loops.
pub struct SpanSink {
    next_id: AtomicU64,
    dropped: AtomicU64,
    cap: usize,
    inner: Mutex<SinkInner>,
}

impl SpanSink {
    /// A sink retaining up to [`DEFAULT_SPAN_CAP`] spans.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAP)
    }

    /// A sink retaining up to `cap` spans (histograms are unbounded).
    pub fn with_capacity(cap: usize) -> Self {
        SpanSink {
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            cap,
            inner: Mutex::new(SinkInner { spans: Vec::new(), hist: HashMap::new() }),
        }
    }

    /// Allocate a fresh trace or span id (never 0; 0 means "no parent").
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span. Always feeds the `(service, op)`
    /// histogram; retains the full record only while under the cap.
    pub fn record(&self, rec: SpanRecord) {
        let mut inner = self.inner.lock().expect("span sink poisoned");
        inner
            .hist
            .entry((rec.service, rec.op))
            .or_default()
            .observe(rec.duration_ns() as f64);
        if inner.spans.len() < self.cap {
            inner.spans.push(rec);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of every retained span.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.lock().expect("span sink poisoned").spans.clone()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("span sink poisoned").spans.len()
    }

    /// True if no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans dropped after the retention cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Per-`(service, op)` latency summaries, sorted by key for stable
    /// output.
    pub fn histograms(&self) -> Vec<((&'static str, &'static str), HistogramSummary)> {
        let inner = self.inner.lock().expect("span sink poisoned");
        let mut out: Vec<_> =
            inner.hist.iter().map(|(k, h)| (*k, h.summary())).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }
}

impl Default for SpanSink {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            trace,
            span: id,
            parent,
            service: "client",
            op: "write",
            node: 1,
            start_ns: 0,
            end_ns: dur,
            kind: SpanKind::Op,
            class: SpanClass::Control,
            queue_ns: 0,
            xfer_ns: 0,
            wire_ns: 0,
        }
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let s = SpanSink::new();
        let a = s.next_id();
        let b = s.next_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn records_feed_spans_and_histograms() {
        let s = SpanSink::new();
        for d in [1_000u64, 2_000, 3_000] {
            s.record(span(1, s.next_id(), 0, d));
        }
        assert_eq!(s.len(), 3);
        let hists = s.histograms();
        assert_eq!(hists.len(), 1);
        let ((svc, op), summary) = hists[0];
        assert_eq!((svc, op), ("client", "write"));
        assert_eq!(summary.count, 3);
        assert!(summary.p50 >= 1_000.0 && summary.p50 <= 3_000.0, "p50={}", summary.p50);
    }

    #[test]
    fn cap_drops_spans_but_keeps_counting() {
        let s = SpanSink::with_capacity(2);
        for i in 0..5 {
            s.record(span(1, i + 1, 0, 100));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.histograms()[0].1.count, 5, "histograms ignore the cap");
    }
}
