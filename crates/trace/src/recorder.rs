//! Always-on flight recorder: bounded per-service ring buffers of recent
//! runtime events, snapshotted into dumps when an anomaly detector or SLO
//! alert decides the last few seconds are worth keeping.
//!
//! The design center is the Grid'5000-style observation that production
//! anomalies are caught by *continuous low-overhead recording*, not by
//! re-running workloads: the recorder is cheap enough to leave on
//! (one short mutex hold per recorded event, fixed-size `Copy` events,
//! a hard byte budget per ring), and a [`FlightRecorder::trigger_dump`]
//! freezes every ring into a [`FlightDump`] that renders as
//! chrome://tracing JSON or a `statusz`-style text snapshot.
//!
//! Like spans (`SpanSink`) and telemetry, recording is **observational
//! only**: it never schedules events, draws RNG, or touches a clock, so a
//! seeded simulation's event schedule is byte-identical with the recorder
//! attached or absent.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One recorded runtime event. Fixed-size and `Copy` so ring writes never
/// allocate; `label` is `'static` for the same reason span fields are.
/// The `a`/`b` payload words are label-specific (e.g. messages handled and
/// mailbox depth for an executor turn, event seq and target node for a
/// simulator dispatch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Event timestamp, ns (whichever clock the hosting runtime uses).
    pub at_ns: u64,
    /// Event duration, ns (0 for instantaneous events).
    pub dur_ns: u64,
    /// What happened ("turn", "timer", "deliver", "alert", …).
    pub label: &'static str,
    /// Node the event concerns.
    pub node: u64,
    /// First label-specific payload word.
    pub a: u64,
    /// Second label-specific payload word.
    pub b: u64,
}

/// Bytes one [`FlightEvent`] charges against a ring's byte budget.
pub const EVENT_BYTES: usize = std::mem::size_of::<FlightEvent>();

/// Default per-ring byte budget: 256 KiB ≈ 4600 events, a few seconds of
/// executor turns per service at the shapes the benches drive.
pub const DEFAULT_RING_BYTES: usize = 256 * 1024;

/// Dumps retained per recorder before the oldest is discarded.
pub const DUMP_CAP: usize = 8;

struct RingInner {
    events: VecDeque<FlightEvent>,
    dropped: u64,
    total: u64,
}

/// One service's bounded event ring. Writers take one short mutex hold;
/// eviction is oldest-first whenever the byte budget would be exceeded.
pub struct Ring {
    service: &'static str,
    byte_budget: usize,
    inner: Mutex<RingInner>,
}

impl Ring {
    fn new(service: &'static str, byte_budget: usize) -> Self {
        let byte_budget = byte_budget.max(EVENT_BYTES);
        let events = VecDeque::with_capacity(byte_budget / EVENT_BYTES);
        let inner = Mutex::new(RingInner { events, dropped: 0, total: 0 });
        Ring { service, byte_budget, inner }
    }

    /// The service this ring records for.
    pub fn service(&self) -> &'static str {
        self.service
    }

    /// Byte budget the ring never exceeds.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// Append one event, first evicting the oldest if the ring is full, so
    /// its slots, allocated once, never grow past the budget. After this
    /// returns the event is in the ring (it can only leave by being evicted
    /// for *newer* events).
    pub fn record(&self, ev: FlightEvent) {
        let mut inner = self.inner.lock().expect("flight ring poisoned");
        inner.total += 1;
        if (inner.events.len() + 1) * EVENT_BYTES > self.byte_budget {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(ev);
    }

    /// Retained bytes right now.
    pub fn bytes(&self) -> usize {
        self.inner.lock().expect("flight ring poisoned").events.len() * EVENT_BYTES
    }

    /// `(events oldest→newest, evicted count, total ever recorded)`.
    pub fn snapshot(&self) -> (Vec<FlightEvent>, u64, u64) {
        let inner = self.inner.lock().expect("flight ring poisoned");
        (inner.events.iter().copied().collect(), inner.dropped, inner.total)
    }
}

/// One ring's contribution to a [`FlightDump`].
#[derive(Clone, Debug)]
pub struct RingDump {
    /// Service the ring belongs to.
    pub service: &'static str,
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Events evicted by the byte budget before the dump.
    pub dropped: u64,
    /// Events ever recorded into the ring.
    pub total: u64,
}

/// A frozen copy of every ring at trigger time, plus the trigger's reason
/// and a free-form attribution note (the anomaly detector's evidence).
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// Monotone dump number (1-based).
    pub seq: u64,
    /// Why the dump fired ("slo-alert:…", "throughput-anomaly:…").
    pub reason: String,
    /// Trigger timestamp, ns (caller's clock).
    pub at_ns: u64,
    /// Attribution evidence attached by the trigger (page-fault deltas,
    /// EWMA vs observed throughput, …).
    pub note: String,
    /// Per-service ring contents at trigger time.
    pub rings: Vec<RingDump>,
}

impl FlightDump {
    /// Total events across all rings.
    pub fn event_count(&self) -> usize {
        self.rings.iter().map(|r| r.events.len()).sum()
    }

    /// Render as a chrome://tracing JSON document (Trace Event Format
    /// complete events; services map to `pid` lanes, nodes to `tid` rows).
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.event_count() * 120);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (pid, ring) in self.rings.iter().enumerate() {
            for ev in &ring.events {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"name\":\"{}.{}\",\"cat\":\"flight\",\"ph\":\"X\",\
                     \"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\
                     \"args\":{{\"a\":{},\"b\":{}}}}}",
                    ring.service,
                    ev.label,
                    ev.at_ns as f64 / 1_000.0,
                    ev.dur_ns as f64 / 1_000.0,
                    pid,
                    ev.node,
                    ev.a,
                    ev.b,
                ));
            }
        }
        out.push_str("]}");
        out
    }

    /// Render as a `statusz`-style plain-text snapshot: the trigger, the
    /// attribution note, and each ring's tail (newest events last).
    pub fn statusz(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "flight dump #{} reason={} at_ns={}\n",
            self.seq, self.reason, self.at_ns
        ));
        for line in self.note.lines() {
            out.push_str(&format!("  note: {line}\n"));
        }
        for ring in &self.rings {
            let span = match (ring.events.first(), ring.events.last()) {
                (Some(f), Some(l)) => l.at_ns.saturating_sub(f.at_ns),
                _ => 0,
            };
            out.push_str(&format!(
                "  ring {}: {} events retained ({} evicted, {} total), spanning {:.3} ms\n",
                ring.service,
                ring.events.len(),
                ring.dropped,
                ring.total,
                span as f64 / 1e6,
            ));
            let tail = ring.events.len().saturating_sub(5);
            for ev in &ring.events[tail..] {
                out.push_str(&format!(
                    "    {} node={} at={}ns dur={}ns a={} b={}\n",
                    ev.label, ev.node, ev.at_ns, ev.dur_ns, ev.a, ev.b,
                ));
            }
        }
        out
    }
}

/// The recorder: per-service rings interned on first use, plus a bounded
/// store of the last [`DUMP_CAP`] dumps. Shared across threads by `Arc`.
pub struct FlightRecorder {
    ring_bytes: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
    dumps: Mutex<VecDeque<FlightDump>>,
    dump_seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder whose rings hold [`DEFAULT_RING_BYTES`] each.
    pub fn new() -> Self {
        Self::with_ring_bytes(DEFAULT_RING_BYTES)
    }

    /// A recorder with `ring_bytes` per ring (floored at one event).
    pub fn with_ring_bytes(ring_bytes: usize) -> Self {
        FlightRecorder {
            ring_bytes,
            rings: Mutex::new(Vec::new()),
            dumps: Mutex::new(VecDeque::new()),
            dump_seq: AtomicU64::new(0),
        }
    }

    /// Get-or-create the ring for `service`. Callers cache the `Arc` so
    /// the steady-state cost is one `Ring::record` per event, no interning.
    pub fn ring(&self, service: &'static str) -> Arc<Ring> {
        let mut rings = self.rings.lock().expect("flight recorder poisoned");
        if let Some(r) = rings.iter().find(|r| r.service == service) {
            return Arc::clone(r);
        }
        let r = Arc::new(Ring::new(service, self.ring_bytes));
        rings.push(Arc::clone(&r));
        r
    }

    /// Freeze every ring into a dump. The caller supplies the timestamp
    /// (the recorder never reads a clock) and an attribution note.
    pub fn trigger_dump(&self, reason: &str, note: &str, at_ns: u64) -> FlightDump {
        let rings = {
            let rings = self.rings.lock().expect("flight recorder poisoned");
            rings.clone()
        };
        let dump = FlightDump {
            seq: self.dump_seq.fetch_add(1, Ordering::Relaxed) + 1,
            reason: reason.to_string(),
            at_ns,
            note: note.to_string(),
            rings: rings
                .iter()
                .map(|r| {
                    let (events, dropped, total) = r.snapshot();
                    RingDump { service: r.service, events, dropped, total }
                })
                .collect(),
        };
        let mut dumps = self.dumps.lock().expect("flight recorder poisoned");
        dumps.push_back(dump.clone());
        while dumps.len() > DUMP_CAP {
            dumps.pop_front();
        }
        dump
    }

    /// Dumps triggered so far (monotone; not capped like the stored list).
    pub fn dump_count(&self) -> u64 {
        self.dump_seq.load(Ordering::Relaxed)
    }

    /// The retained dumps, oldest first (at most [`DUMP_CAP`]).
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.dumps.lock().expect("flight recorder poisoned").iter().cloned().collect()
    }

    /// The most recent dump, if any was triggered.
    pub fn last_dump(&self) -> Option<FlightDump> {
        self.dumps.lock().expect("flight recorder poisoned").back().cloned()
    }

    /// One-line-per-ring text summary for status pages: ring occupancy
    /// and how many dumps have fired.
    pub fn summary(&self) -> String {
        let rings = self.rings.lock().expect("flight recorder poisoned");
        let mut out = format!(
            "flight recorder: {} rings, {} dumps triggered\n",
            rings.len(),
            self.dump_count()
        );
        for r in rings.iter() {
            let (events, dropped, total) = r.snapshot();
            out.push_str(&format!(
                "  ring {}: {}/{} bytes, {} events ({} evicted, {} total)\n",
                r.service,
                events.len() * EVENT_BYTES,
                r.byte_budget,
                events.len(),
                dropped,
                total,
            ));
        }
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, a: u64) -> FlightEvent {
        FlightEvent { at_ns: at, dur_ns: 10, label: "turn", node: 1, a, b: 0 }
    }

    #[test]
    fn ring_respects_byte_budget_and_counts_evictions() {
        let r = Ring::new("provider", EVENT_BYTES * 3);
        for i in 0..10 {
            r.record(ev(i, i));
            assert!(r.bytes() <= EVENT_BYTES * 3);
        }
        let (events, dropped, total) = r.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(dropped, 7);
        assert_eq!(total, 10);
        // Oldest evicted first: the retained tail is the newest writes.
        assert_eq!(events.iter().map(|e| e.a).collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    /// A ring's slots are its budget: a full ring evicts before it pushes,
    /// so the deque never doubles past it (8 192 slots, 448 KiB, for a
    /// 256 KiB ring when it pushed first).
    #[test]
    fn ring_memory_is_its_byte_budget() {
        let r = Ring::new("provider", DEFAULT_RING_BYTES);
        let n = 3 * DEFAULT_RING_BYTES / EVENT_BYTES;
        for i in 0..n as u64 {
            r.record(ev(i, i));
        }
        let inner = r.inner.lock().unwrap();
        assert!(inner.events.capacity() * EVENT_BYTES <= r.byte_budget());
        let kept = r.byte_budget() / EVENT_BYTES;
        assert_eq!(inner.events.len(), kept);
        assert_eq!(inner.dropped as usize, n - kept);
        assert!(inner.events.iter().map(|e| e.a).eq((n - kept) as u64..n as u64), "oldest out");
    }

    #[test]
    fn recorder_interns_rings_per_service() {
        let rec = FlightRecorder::new();
        let a = rec.ring("provider");
        let b = rec.ring("provider");
        let c = rec.ring("vmanager");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn dump_freezes_rings_and_renders_valid_chrome_json() {
        let rec = FlightRecorder::new();
        rec.ring("provider").record(ev(1_000, 1));
        rec.ring("client").record(ev(2_000, 2));
        let dump = rec.trigger_dump("throughput-anomaly", "ewma=5.0 observed=2.0", 3_000);
        assert_eq!(dump.seq, 1);
        assert_eq!(dump.event_count(), 2);
        let json = dump.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"provider.turn\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = dump.statusz();
        assert!(text.contains("reason=throughput-anomaly"));
        assert!(text.contains("note: ewma=5.0 observed=2.0"));
        assert!(text.contains("ring provider"));
    }

    #[test]
    fn dump_store_is_bounded() {
        let rec = FlightRecorder::new();
        for i in 0..(DUMP_CAP as u64 + 3) {
            rec.trigger_dump("r", "", i);
        }
        assert_eq!(rec.dump_count(), DUMP_CAP as u64 + 3);
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), DUMP_CAP);
        assert_eq!(dumps.last().unwrap().seq, DUMP_CAP as u64 + 3);
        assert_eq!(rec.last_dump().unwrap().seq, DUMP_CAP as u64 + 3);
    }

    #[test]
    fn summary_names_rings_and_dumps() {
        let rec = FlightRecorder::new();
        rec.ring("provider").record(ev(1, 1));
        rec.trigger_dump("test", "", 2);
        let s = rec.summary();
        assert!(s.contains("1 rings, 1 dumps"));
        assert!(s.contains("ring provider"));
    }
}
