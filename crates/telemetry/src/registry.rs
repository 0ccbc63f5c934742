//! The labeled metrics registry: `(name, labels)` → atomic cells.

use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sads_trace::{atomic_f64_add, Histogram as LogHistogram};

use crate::hash::{FastMap, FoldState};

/// A registered series: its name and its labels, sorted.
type Key = (String, Vec<(String, String)>);

/// The registered series, bucketed by the hash of their borrowed
/// `(name, sorted labels)`, so a call finds its series without building
/// an owned [`Key`]. Measured against building that key on every call
/// (and the runtimes formatting the `node` label into a `String`), on a
/// 2-core Xeon: a counter hit 114–170 → 96–102 ns, and the benchmark's
/// `mixed_rw` `read_p50_ms` median 0.0225 → 0.0208 ms over ten
/// alternating pairs, lower in 7 — inside the runs' spread — while
/// `small_meta` reads did not move.
#[derive(Default)]
struct Series {
    state: FoldState,
    by_hash: FastMap<u64, Vec<(Key, Cell)>>,
    /// Calls that looked a series up, counted for [`Registry::lookups`].
    lookups: u64,
}

/// Run `f` over `labels` sorted, on the stack when there are few.
fn with_sorted<R>(labels: &[(&str, &str)], f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
    const ON_STACK: usize = 8;
    if labels.len() > ON_STACK {
        let mut v = labels.to_vec();
        v.sort_unstable();
        return f(&v);
    }
    let mut buf = [("", ""); ON_STACK];
    let sorted = &mut buf[..labels.len()];
    sorted.copy_from_slice(labels);
    sorted.sort_unstable();
    f(sorted)
}

/// A node id as the value of a `node` label, formatted on the stack: the
/// runtimes' metric bridges label every counter bump with one.
pub struct NodeLabel {
    digits: [u8; 10],
    start: usize,
}

impl NodeLabel {
    /// The decimal digits of `id`.
    pub fn new(id: u32) -> Self {
        let (mut digits, mut start, mut n) = ([0u8; 10], 10, id);
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                return NodeLabel { digits, start };
            }
        }
    }

    /// The label value.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.digits[self.start..]).expect("ASCII digits")
    }
}

#[derive(Clone)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistCell>),
}

impl Cell {
    fn counter(&self, name: &str) -> &Arc<AtomicU64> {
        match self {
            Cell::Counter(c) => c,
            other => other.conflict(name),
        }
    }

    fn gauge(&self, name: &str) -> &Arc<AtomicU64> {
        match self {
            Cell::Gauge(g) => g,
            other => other.conflict(name),
        }
    }

    fn histogram(&self, name: &str) -> &Arc<HistCell> {
        match self {
            Cell::Histogram(h) => h,
            other => other.conflict(name),
        }
    }

    fn conflict(&self, name: &str) -> ! {
        let kind = match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        };
        panic!("{name} already registered as {kind}")
    }
}

fn new_counter() -> Cell {
    Cell::Counter(Arc::new(AtomicU64::new(0)))
}

fn new_gauge() -> Cell {
    Cell::Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
}

/// A latency exemplar: the trace id of one observation that landed in a
/// bucket, so a slow percentile links straight to a dumpable trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// The exemplified observation's value.
    pub value: f64,
    /// Trace id of the request that produced it.
    pub trace_id: u64,
}

/// A registry histogram: the shared log-bucketed histogram plus the
/// latest exemplar of each slot that has had one, as `(slot, exemplar)`.
/// Exemplars come only with traced observations, rare next to plain
/// ones, so their mutex is off the hot path.
#[derive(Default)]
pub(crate) struct HistCell {
    hist: LogHistogram,
    exemplars: Mutex<Vec<(usize, Exemplar)>>,
}

impl HistCell {
    /// The occupied slots, those with an exemplar, and `+Inf`, each as
    /// its upper bound and cumulative count.
    fn snapshot(&self) -> HistogramSnapshot {
        let slots = self.exemplars.lock().expect("exemplar slots poisoned");
        let (mut buckets, mut exemplars, mut cumulative) = (Vec::new(), Vec::new(), 0);
        for (i, n) in self.hist.buckets().enumerate() {
            let upper = LogHistogram::bucket_range(i).1;
            let ex = slots.iter().find(|(s, _)| *s == i).map(|(_, e)| *e);
            cumulative += n;
            if n > 0 || ex.is_some() || upper.is_infinite() {
                buckets.push((upper, cumulative));
                exemplars.push(ex);
            }
        }
        HistogramSnapshot { count: cumulative, sum: self.hist.sum(), buckets, exemplars }
    }
}

/// Monotone counter handle; cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`.
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Set-or-adjust gauge handle; cloning shares the underlying cell.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Replace the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adjust the value by `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        atomic_f64_add(&self.0, delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Histogram handle (a [`sads_trace::Histogram`] plus exemplars);
/// cloning shares the underlying cell.
#[derive(Clone)]
pub struct Histogram(Arc<HistCell>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        self.0.hist.observe(v);
    }

    /// Record one observation and remember `trace_id` as the exemplar of
    /// the bucket it lands in (a `trace_id` of 0 attaches nothing).
    pub fn observe_traced(&self, v: f64, trace_id: u64) {
        self.0.hist.observe(v);
        if trace_id == 0 {
            return;
        }
        let (slot, ex) = (LogHistogram::bucket_of(v), Exemplar { value: v, trace_id });
        let mut slots = self.0.exemplars.lock().expect("exemplar slots poisoned");
        match slots.iter_mut().find(|(s, _)| *s == slot) {
            Some((_, old)) => *old = ex,
            None => slots.push((slot, ex)),
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.hist.count()
    }
}

/// A live, labeled metrics registry shared by every actor of a deployment.
///
/// Registration (`counter`/`gauge`/`histogram`) interns the `(name, labels)`
/// key under a mutex and hands back a lock-free handle; the one-shot
/// methods (`inc`/`set`/`observe`) pay one mutex hold per call. Every
/// `Env::incr` and `Env::record` lands here (a threaded cell holds its
/// handles), so this is the one store of the deployment's counters, gauges and
/// histograms; it keeps no history. With up to 8 labels, only the first
/// call for a key allocates: later ones find it from their borrowed
/// arguments.
/// Nothing in here touches clocks, RNGs, or event queues — telemetry
/// cannot perturb a deterministic schedule.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Series>,
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` on the cell of `(name, labels)`, made by `make` on first
    /// use, under one hold of the lock.
    fn with_cell<R>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Cell,
        f: impl FnOnce(&Cell) -> R,
    ) -> R {
        with_sorted(labels, |labels| {
            let mut inner = self.inner.lock().expect("telemetry registry poisoned");
            let Series { state, by_hash, lookups } = &mut *inner;
            *lookups += 1;
            let bucket = by_hash.entry(state.hash_one((name, labels))).or_default();
            let found = bucket.iter().position(|((n, ls), _)| {
                n == name
                    && ls.len() == labels.len()
                    && ls.iter().zip(labels).all(|((k, v), (lk, lv))| k == lk && v == lv)
            });
            let i = found.unwrap_or_else(|| {
                let owned = labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
                bucket.push(((name.to_string(), owned), make()));
                bucket.len() - 1
            });
            f(&bucket[i].1)
        })
    }

    /// Get-or-create a counter. Panics if `(name, labels)` is already
    /// registered as a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(self.with_cell(name, labels, new_counter, |c| Arc::clone(c.counter(name))))
    }

    /// Get-or-create a gauge. Panics if `(name, labels)` is already
    /// registered as a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(self.with_cell(name, labels, new_gauge, |c| Arc::clone(c.gauge(name))))
    }

    /// Get-or-create a histogram. Panics if `(name, labels)` is already
    /// registered as a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let make = || Cell::Histogram(Arc::default());
        Histogram(self.with_cell(name, labels, make, |c| Arc::clone(c.histogram(name))))
    }

    /// One-shot counter bump.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        self.with_cell(name, labels, new_counter, |c| {
            c.counter(name).fetch_add(n, Ordering::Relaxed);
        });
    }

    /// One-shot gauge set.
    pub fn set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.with_cell(name, labels, new_gauge, |c| {
            c.gauge(name).store(v.to_bits(), Ordering::Relaxed);
        });
    }

    /// One-shot histogram observation.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.histogram(name, labels).observe(v);
    }

    /// Series lookups so far: one per registration or one-shot call.
    pub fn lookups(&self) -> u64 {
        self.inner.lock().expect("telemetry registry poisoned").lookups
    }

    /// The counter family `name` summed over its label sets (0 if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("telemetry registry poisoned");
        let cells = inner.by_hash.values().flatten().filter(|((n, _), _)| n == name);
        cells
            .filter_map(|(_, cell)| match cell {
                Cell::Counter(c) => Some(c.load(Ordering::Relaxed)),
                _ => None,
            })
            .sum()
    }

    /// Structured point-in-time copy, sorted by `(name, labels)` for
    /// stable output.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("telemetry registry poisoned");
        let mut samples: Vec<Sample> = inner
            .by_hash
            .values()
            .flatten()
            .map(|((name, labels), cell)| Sample {
                name: name.clone(),
                labels: labels.clone(),
                value: match cell {
                    Cell::Counter(c) => SampleValue::Counter(c.load(Ordering::Relaxed)),
                    Cell::Gauge(g) => {
                        SampleValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                    }
                    Cell::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        drop(inner);
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { samples }
    }

    /// Render the current state in Prometheus text exposition format.
    pub fn render(&self) -> String {
        crate::expose::render_prometheus(&self.snapshot())
    }
}

/// One `(name, labels)` series in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Dotted metric name as registered (e.g. `provider.repair_chunks`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The observed value.
    pub value: SampleValue,
}

/// A sample's value, tagged by metric kind.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotone count.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
    /// Bucketed distribution.
    Histogram(HistogramSnapshot),
}

/// Point-in-time copy of a histogram cell.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// `(upper_bound, cumulative_count)` of each bucket that holds an
    /// observation or an exemplar, ending with `+Inf`.
    pub buckets: Vec<(f64, u64)>,
    /// Latest exemplar per bucket, aligned with `buckets`.
    pub exemplars: Vec<Option<Exemplar>>,
}

/// Structured registry snapshot: every sample, sorted by `(name, labels)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All samples.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SampleValue> {
        let mut want: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        want.sort();
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == want)
            .map(|s| &s.value)
    }

    /// Counter value for an exact `(name, labels)` key.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)? {
            SampleValue::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// Gauge value for an exact `(name, labels)` key.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.find(name, labels)? {
            SampleValue::Gauge(g) => Some(*g),
            _ => None,
        }
    }

    /// Sum of a counter family across all label sets; `None` if the family
    /// does not exist at all.
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        let counts = self.family(name).filter_map(|s| match s.value {
            SampleValue::Counter(c) => Some(c),
            _ => None,
        });
        counts.reduce(|a, b| a + b)
    }

    /// Sum of a gauge family across all label sets; `None` if absent.
    pub fn gauge_total(&self, name: &str) -> Option<f64> {
        self.gauges(name).reduce(|a, b| a + b)
    }

    /// The largest value of a gauge family across its label sets; `None`
    /// if absent.
    pub fn gauge_max(&self, name: &str) -> Option<f64> {
        self.gauges(name).reduce(f64::max)
    }

    fn gauges<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.family(name).filter_map(|s| match s.value {
            SampleValue::Gauge(g) => Some(g),
            _ => None,
        })
    }

    /// All samples of one family.
    pub fn family<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Sample> {
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// Distinct metric family names, sorted.
    pub fn families(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.samples.iter().map(|s| s.name.as_str()).collect();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("client.rpc_retries", &[("node", "3")]);
        c.inc(2);
        reg.inc("client.rpc_retries", &[("node", "3")], 1);
        reg.set("pool.providers", &[], 16.0);
        let h = reg.histogram("gateway.op_seconds", &[("op", "get")]);
        h.observe(0.004);
        h.observe(0.2);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("client.rpc_retries", &[("node", "3")]), Some(3));
        assert_eq!(snap.gauge("pool.providers", &[]), Some(16.0));
        match snap.find("gateway.op_seconds", &[("op", "get")]).unwrap() {
            SampleValue::Histogram(hs) => {
                assert_eq!(hs.count, 2);
                assert!((hs.sum - 0.204).abs() < 1e-12);
                let inf = hs.buckets.last().unwrap();
                assert!(inf.0.is_infinite());
                assert_eq!(inf.1, 2);
                // Buckets are cumulative and monotone.
                assert!(hs.buckets.windows(2).all(|w| w[0].1 <= w[1].1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exemplars_land_in_the_right_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("gateway.op_seconds", &[("op", "get")]);
        h.observe(0.0004);
        h.observe_traced(0.03, 0xabcd);
        h.observe_traced(0.0004, 0x1111);
        h.observe_traced(1e13, 0x2222);
        // The latest exemplar of a bucket replaces the one before.
        h.observe_traced(0.031, 0x3333);

        let snap = reg.snapshot();
        match snap.find("gateway.op_seconds", &[("op", "get")]).unwrap() {
            SampleValue::Histogram(hs) => {
                assert_eq!(hs.count, 5);
                assert_eq!(hs.buckets.len(), 3, "0.0004, 0.03 and +Inf: {:?}", hs.buckets);
                assert_eq!(hs.exemplars.len(), hs.buckets.len());
                let at = |v: f64| {
                    let upper = LogHistogram::bucket_range(LogHistogram::bucket_of(v)).1;
                    let i = hs.buckets.iter().position(|(b, _)| *b == upper).unwrap();
                    hs.exemplars[i].unwrap()
                };
                assert_eq!(at(0.03), Exemplar { value: 0.031, trace_id: 0x3333 });
                assert_eq!(at(0.0004).trace_id, 0x1111);
                let inf = hs.exemplars.last().unwrap().unwrap();
                assert_eq!(inf, Exemplar { value: 1e13, trace_id: 0x2222 });
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn snapshots_list_only_occupied_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("runtime.dispatch_batch", &[("shard", "0")]);
        for v in [1.0, 3.0, 3.0, 256.0] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        match snap.find("runtime.dispatch_batch", &[("shard", "0")]).unwrap() {
            SampleValue::Histogram(hs) => {
                let want = vec![(1.25, 1), (3.5, 3), (320.0, 4), (f64::INFINITY, 4)];
                assert_eq!(hs.buckets, want);
                assert_eq!(hs.exemplars, vec![None; 4]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_trace_ids_never_become_exemplars() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[]);
        h.observe_traced(0.01, 0);
        let snap = reg.snapshot();
        match snap.find("lat", &[]).unwrap() {
            SampleValue::Histogram(hs) => {
                assert!(hs.exemplars.iter().all(Option::is_none));
                assert_eq!(hs.count, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = Registry::new();
        reg.inc("x", &[("a", "1"), ("b", "2")], 1);
        reg.inc("x", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(reg.snapshot().counter("x", &[("a", "1"), ("b", "2")]), Some(2));
    }

    #[test]
    fn totals_sum_across_label_sets() {
        let reg = Registry::new();
        reg.inc("reads", &[("node", "1")], 4);
        reg.inc("reads", &[("node", "2")], 6);
        reg.set("fill", &[("node", "1")], 0.25);
        reg.set("fill", &[("node", "2")], 0.75);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("reads"), Some(10));
        assert_eq!(snap.gauge_total("fill"), Some(1.0));
        assert_eq!(snap.counter_total("missing"), None);
        assert_eq!(snap.families(), vec!["fill", "reads"]);
    }

    #[test]
    fn record_sets_a_gauge_and_logs_every_sample_in_call_order() {
        let reg = Registry::new();
        reg.set("lat", &[("node", "2")], 2.0);
        reg.set("lat", &[("node", "1")], 1.0);
        reg.set("lat", &[("node", "2")], 3.0);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("lat", &[("node", "2")]), Some(3.0));
        assert_eq!(snap.gauge("lat", &[("node", "1")]), Some(1.0));
        assert_eq!(snap.gauge_max("lat"), Some(3.0));
        assert_eq!(snap.gauge_max("absent"), None);
        reg.inc("reads", &[("node", "1")], 4);
        reg.inc("reads", &[("node", "2")], 6);
        assert_eq!(reg.counter_total("reads"), 10);
        assert_eq!(reg.counter_total("lat"), 0, "a gauge family is no counter");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_are_programming_errors() {
        let reg = Registry::new();
        reg.inc("dual", &[], 1);
        reg.set("dual", &[], 1.0);
    }

    #[test]
    fn handles_are_shared_across_threads() {
        let reg = Arc::new(Registry::new());
        let mut joins = Vec::new();
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            joins.push(std::thread::spawn(move || {
                let c = reg.counter("spins", &[]);
                let g = reg.gauge("level", &[]);
                let h = reg.histogram("lat", &[]);
                for _ in 0..1000 {
                    c.inc(1);
                    g.add(1.0);
                    h.observe(0.01);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("spins", &[]), Some(4000));
        assert_eq!(snap.gauge("level", &[]), Some(4000.0));
        match snap.find("lat", &[]).unwrap() {
            SampleValue::Histogram(h) => assert_eq!(h.count, 4000),
            other => panic!("{other:?}"),
        }
    }
}
