//! Always-on flight recorder: bounded per-service ring buffers of recent
//! runtime events, snapshotted into dumps when an anomaly detector or SLO
//! alert decides the last few seconds are worth keeping.
//!
//! The design center is the Grid'5000-style observation that production
//! anomalies are caught by *continuous low-overhead recording*, not by
//! re-running workloads: the recorder is cheap enough to leave on (a
//! recorded event takes no lock: one `fetch_add` claims its slot; fixed-size
//! `Copy` events, a hard byte budget per ring), and a
//! [`FlightRecorder::trigger_dump`] freezes every ring into a [`FlightDump`]
//! that renders as chrome://tracing JSON or a `statusz`-style text snapshot.
//!
//! Like spans (`SpanSink`) and telemetry, recording is **observational
//! only**: it never schedules events, draws RNG, or touches a clock, so a
//! seeded simulation's event schedule is byte-identical with the recorder
//! attached or absent.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One recorded runtime event. Fixed-size (64 B, one cache line) and
/// `Copy` so ring writes never allocate; `label` is `'static` for the same
/// reason span fields are. The `a`/`b` payload words are label-specific
/// (e.g. messages handled and mailbox depth for an executor turn, event seq
/// and target node for a simulator dispatch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Event timestamp, ns (whichever clock the hosting runtime uses).
    pub at_ns: u64,
    /// Event duration, ns (0 for instantaneous events).
    pub dur_ns: u64,
    /// What happened ("turn", "timer", "deliver", "alert", …).
    pub label: &'static str,
    /// Node the event concerns (a node address).
    pub node: u32,
    /// First label-specific payload word.
    pub a: u64,
    /// Second label-specific payload word.
    pub b: u64,
    /// Trace id of the first traced message the event handled; 0 when none
    /// was traced.
    pub trace: u64,
}

/// Bytes one [`FlightEvent`] charges against a ring's byte budget: one
/// 64 B slot, which holds the event and its stamp.
pub const EVENT_BYTES: usize = std::mem::size_of::<FlightEvent>();

/// Default per-ring byte budget: 256 KiB, 4 096 events, a few seconds of
/// executor turns per service at the shapes the benches drive.
pub const DEFAULT_RING_BYTES: usize = 4096 * EVENT_BYTES;

/// Dumps retained per recorder before the oldest is discarded.
pub const DUMP_CAP: usize = 8;

/// Slots per chunk of a ring's slot array (32 KiB): a chunk is allocated,
/// zeroed, by the first write that reaches it, so a ring's memory grows
/// to its budget only as events fill it.
const CHUNK: usize = 512;

/// One slot: a cache line of eight words, a stamp and then the event.
#[repr(C, align(64))]
struct Slot([AtomicU64; 8]);

/// One service's bounded event ring. A writer claims the next sequence
/// number with one `fetch_add` and writes slot `seq % capacity`, evicting
/// the event a lap older. A slot is a cache line of eight words: a stamp,
/// then the event (its `node` and label length share a word). The stamp
/// is `2 (seq + 1)` once event `seq` is whole in the slot, odd while a
/// writer fills it, 0 before its first event; a reader keeps a slot's
/// event only if the stamp is the same whole one before and after the copy.
pub struct Ring {
    service: &'static str,
    byte_budget: usize,
    /// Sequence numbers claimed: every event ever recorded.
    head: AtomicU64,
    cap: u64,
    /// The slots, [`CHUNK`] to a chunk.
    chunks: Box<[OnceLock<Box<[Slot]>>]>,
}

impl Ring {
    fn new(service: &'static str, byte_budget: usize) -> Self {
        let byte_budget = byte_budget.max(EVENT_BYTES);
        let cap = (byte_budget / EVENT_BYTES) as u64;
        let chunks = (0..cap.div_ceil(CHUNK as u64)).map(|_| OnceLock::new()).collect();
        Ring { service, byte_budget, head: AtomicU64::new(0), cap, chunks }
    }

    /// The slot of event `seq` — made first if `make`, else `None` if it
    /// is not made yet — and the stamp that says it holds event `seq`.
    fn slot(&self, seq: u64, make: bool) -> Option<(&[AtomicU64; 8], u64)> {
        let n = self.cap;
        let i = (if n.is_power_of_two() { seq & (n - 1) } else { seq % n }) as usize;
        let (c, slots) = (i / CHUNK, CHUNK.min(n as usize - i / CHUNK * CHUNK));
        // SAFETY: all-zero bytes are a valid `Slot` (stamp 0: empty).
        let new = || unsafe { Box::new_zeroed_slice(slots).assume_init() };
        let chunk = if make { self.chunks[c].get_or_init(new) } else { self.chunks[c].get()? };
        Some((&chunk[i % CHUNK].0, (seq + 1) << 1))
    }

    /// Append `ev`, evicting the event a lap older; it is in the ring when
    /// this returns. A writer a lap behind (preempted between its claim and
    /// its write) gives way to the newer event in its slot, and one that
    /// finds an older writer mid-write waits, so no two fill one slot.
    pub fn record(&self, ev: FlightEvent) {
        // Checked before the claim: a writer never stops holding a busy stamp.
        let len = u32::try_from(ev.label.len()).expect("a label under 4 GiB");
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let (slot, whole) = self.slot(seq, true).expect("made");
        let mut stamp = slot[0].load(Ordering::Relaxed);
        loop {
            if stamp >= whole {
                return;
            }
            if stamp & 1 == 1 {
                std::hint::spin_loop();
                stamp = slot[0].load(Ordering::Relaxed);
                continue;
            }
            let (busy, ord) = (whole | 1, Ordering::Acquire);
            match slot[0].compare_exchange_weak(stamp, busy, ord, Ordering::Relaxed) {
                Ok(_) => break,
                Err(now) => stamp = now,
            }
        }
        fence(Ordering::Release);
        let (label, len_node) = (ev.label.as_ptr() as u64, (len as u64) << 32 | ev.node as u64);
        let event = [ev.at_ns, ev.dur_ns, label, len_node, ev.a, ev.b, ev.trace];
        slot[1..].iter().zip(event).for_each(|(w, v)| w.store(v, Ordering::Relaxed));
        slot[0].store(whole, Ordering::Release);
        // The next event most likely takes the next line: ask for it now.
        // SAFETY: a prefetch reads nothing and never faults.
        #[cfg(target_arch = "x86_64")]
        unsafe { _mm_prefetch::<_MM_HINT_ET0>(slot.as_ptr().wrapping_add(8).cast()) };
    }

    /// Event `seq` if its slot holds it whole.
    fn read(&self, seq: u64) -> Option<FlightEvent> {
        let (slot, whole) = self.slot(seq, false)?;
        if slot[0].load(Ordering::Acquire) != whole {
            return None;
        }
        let w: [u64; 7] = std::array::from_fn(|k| slot[k + 1].load(Ordering::Relaxed));
        fence(Ordering::Acquire);
        if slot[0].load(Ordering::Relaxed) != whole {
            return None;
        }
        // SAFETY: the unchanged stamp says the words are event `seq`'s,
        // whose label words came from one `&'static str`.
        let label = unsafe {
            let bytes = std::slice::from_raw_parts(w[2] as *const u8, (w[3] >> 32) as usize);
            std::str::from_utf8_unchecked(bytes)
        };
        let (node, a, b, trace) = (w[3] as u32, w[4], w[5], w[6]);
        Some(FlightEvent { at_ns: w[0], dur_ns: w[1], label, node, a, b, trace })
    }

    /// `(events oldest→newest, events recorded but not returned, total
    /// ever recorded)`. Only whole events are returned: an event still
    /// being written, or overwritten while the copy ran, counts as dropped,
    /// as does every event evicted before it.
    pub fn snapshot(&self) -> (Vec<FlightEvent>, u64, u64) {
        let total = self.head.load(Ordering::Acquire);
        let read: Vec<(u64, FlightEvent)> = (total.saturating_sub(self.cap)..total)
            .filter_map(|s| Some((s, self.read(s)?)))
            .collect();
        // An event a lap older than the head after the copy may have been
        // overwritten mid-copy: keep what was still in the ring at the end.
        let oldest = self.head.load(Ordering::Acquire).saturating_sub(self.cap);
        let events: Vec<FlightEvent> =
            read.into_iter().filter(|&(s, _)| s >= oldest).map(|(_, ev)| ev).collect();
        let dropped = total - events.len() as u64;
        (events, dropped, total)
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
    /// Render as a chrome://tracing JSON document (Trace Event Format
    /// complete events; services map to `pid` lanes, nodes to `tid` rows).
    pub fn chrome_json(&self) -> String {
        let events: usize = self.rings.iter().map(|r| r.events.len()).sum();
        let mut out = String::with_capacity(128 + events * 120);
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
                     \"args\":{{\"a\":{},\"b\":{},\"trace\":{}}}}}",
                    ring.service, ev.label, ev.at_ns as f64 / 1e3, ev.dur_ns as f64 / 1e3,
                    pid, ev.node, ev.a, ev.b, ev.trace,
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
                ring.service, ring.events.len(), ring.dropped, ring.total, span as f64 / 1e6,
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
        let rings = self.rings.lock().expect("flight recorder poisoned").clone();
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
            self.dump_seq.load(Ordering::Relaxed)
        );
        for r in rings.iter() {
            let (events, dropped, total) = r.snapshot();
            out.push_str(&format!(
                "  ring {}: {}/{} bytes, {} events ({} evicted, {} total)\n",
                r.service, events.len() * EVENT_BYTES, r.byte_budget, events.len(), dropped, total,
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
        FlightEvent { at_ns: at, dur_ns: 10, label: "turn", node: 1, a, b: 0, trace: 0 }
    }

    #[test]
    fn ring_respects_byte_budget_and_counts_evictions() {
        let r = Ring::new("provider", EVENT_BYTES * 3);
        for i in 0..10 {
            r.record(ev(i, i));
            assert!(r.snapshot().0.len() <= 3);
        }
        let (events, dropped, total) = r.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(dropped, 7);
        assert_eq!(total, 10);
        // Oldest evicted first: the retained tail is the newest writes.
        assert_eq!(events.iter().map(|e| e.a).collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    /// A ring's slot array is its budget: 4 096 cache-line slots at the
    /// default budget, however many events go in, made a chunk at a time
    /// as writes reach them.
    #[test]
    fn ring_memory_is_its_byte_budget() {
        assert_eq!(EVENT_BYTES, 64, "an event and its stamp fill one cache line");
        let r = Ring::new("provider", DEFAULT_RING_BYTES);
        let kept = r.cap as usize;
        assert_eq!(kept, 4096);
        assert_eq!((std::mem::size_of::<Slot>(), std::mem::align_of::<Slot>()), (64, 64));
        let made = |r: &Ring| -> usize {
            r.chunks.iter().filter_map(|c| c.get()).map(|c| std::mem::size_of_val(&c[..])).sum()
        };
        assert_eq!(made(&r), 0, "no slot is made before it is written");
        r.record(ev(0, 0));
        assert_eq!(made(&r), CHUNK * EVENT_BYTES, "one chunk");
        let n = 3 * kept;
        for i in 0..n as u64 {
            r.record(ev(i, i));
        }
        let (events, dropped, total) = r.snapshot();
        assert_eq!((events.len(), dropped as usize, total as usize), (kept, n + 1 - kept, n + 1));
        assert_eq!(made(&r), r.byte_budget);
        assert!(events.iter().map(|e| e.a).eq((n - kept) as u64..n as u64), "oldest out");
    }

    /// One writer races repeated snapshots: each returns only events that
    /// were written whole (the label and payload words agree), oldest
    /// first and without gaps, ending at most one event (the one being
    /// written) short of the newest claimed, and `dropped + returned ==
    /// total` exactly.
    #[test]
    fn ring_snapshots_racing_a_writer_return_whole_events() {
        const LABELS: [&str; 3] = ["turn", "deliver", "a-longer-label"];
        let whole = |i: u64| FlightEvent {
            at_ns: i,
            dur_ns: !i,
            label: LABELS[(i % 3) as usize],
            node: i.wrapping_mul(0x9e37_79b9) as u32,
            a: i,
            b: i ^ 0x5555,
            trace: i + 1,
        };
        let ring = Arc::new(Ring::new("race", 64 * EVENT_BYTES));
        let writes = 200_000u64;
        let writer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || (0..writes).for_each(|i| ring.record(whole(i))))
        };
        let mut snaps = 0;
        while !writer.is_finished() || snaps == 0 {
            let (events, dropped, total) = ring.snapshot();
            assert!(total <= writes && events.len() <= 64);
            assert_eq!(dropped + events.len() as u64, total);
            for e in &events {
                assert_eq!(*e, whole(e.a), "a torn event");
            }
            assert!(events.windows(2).all(|w| w[1].a == w[0].a + 1), "oldest first, no gap");
            if let Some(last) = events.last() {
                assert!(last.a + 2 >= total, "newest {} of {total}", last.a);
            }
            snaps += 1;
        }
        writer.join().unwrap();
        let (events, dropped, total) = ring.snapshot();
        assert_eq!((events.len(), dropped, total), (64, writes - 64, writes));
        assert!(events.iter().map(|e| e.a).eq(writes - 64..writes));
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
        assert_eq!(dump.rings.iter().map(|r| r.events.len()).sum::<usize>(), 2);
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
        assert_eq!(rec.dump_seq.load(Ordering::Relaxed), DUMP_CAP as u64 + 3);
        assert_eq!(rec.dumps.lock().unwrap().len(), DUMP_CAP);
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
