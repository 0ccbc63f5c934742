//! The closed-loop driver shared by all workloads: one thread, one client
//! cell, one op in flight. It times each public call from outside, keeps
//! latency samples per round, and reads CPU / memory / telemetry counters
//! around the measured rounds.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sads_blob::runtime::threaded::{Cluster, ClusterBuilder};
use sads_blob::BackendSpec;
use sads_sim::{SpanRecord, SpanSink};

use crate::gen::{round_ops, Op};
use crate::procfs::{self, ProcStat};
use crate::stats::{median, median_of_round_p50, percentile};

/// Latency classes. `Write`/`Read` are the end-to-end p50s of every
/// workload; the other two exist on `gateway_disk` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Write = 0,
    Read = 1,
    Range = 2,
    HeadList = 3,
}

/// One span of the benchmark's own: a public call it made, named after
/// the layer it called into.
#[derive(Debug, Clone, Copy)]
pub struct HarnessSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one phase (set-up, rounds, verification) is run with.
pub struct Env {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    /// Measured rounds after the warm-up round.
    pub rounds: usize,
    /// How many times set-up runs (the last cluster is the measured one).
    pub setups: usize,
    /// Record the benchmark's own spans; without a sink, also run the
    /// side loops.
    pub traced: bool,
    /// Span sink handed to `ClusterBuilder::span_sink`, if any.
    pub sink: Option<Arc<SpanSink>>,
    /// Directory for disk backends; removed by its owner's `Drop`.
    pub run_dir: PathBuf,
}

/// One measured round: latency samples per class, ns, and how long the
/// whole round took.
#[derive(Default)]
struct Round {
    samples: [Vec<u64>; 4],
    wall_ns: u64,
}

impl Round {
    fn completed(&self) -> u64 {
        self.samples.iter().map(|c| c.len() as u64).sum()
    }
}

/// Collects samples and verdicts while ops run.
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    epoch: Instant,
    round: Round,
    rounds: Vec<Round>,
    pub spans: Option<Vec<HarnessSpan>>,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            attempted: 0,
            failed: 0,
            epoch: Instant::now(),
            round: Default::default(),
            rounds: Vec::new(),
            spans: traced.then(Vec::new),
        }
    }

    /// Run one public call of the system, as a span when tracing.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(spans) = &mut self.spans else {
            return f();
        };
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        spans.push(HarnessSpan {
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// [`call`](Self::call) for an op that is one fallible call: returns its
    /// result and how long it took, ns.
    pub fn timed<T, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> (Result<T, String>, u64) {
        let t = Instant::now();
        let out = self.call(name, f);
        let ns = t.elapsed().as_nanos() as u64;
        (out.map_err(|e| e.to_string()), ns)
    }

    /// Close one op that took `ns` (verification excluded): a failed or
    /// mis-verified op counts as failed and never becomes a latency sample.
    pub fn finish(&mut self, class: Class, ns: u64, verdict: Result<(), String>) {
        self.attempted += 1;
        match verdict {
            Ok(()) => self.round.samples[class as usize].push(ns),
            Err(why) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("op {} ({class:?}) failed: {why}", self.attempted);
                }
            }
        }
    }

    /// Count a check made outside the op loop (restart read-back, …).
    pub fn check(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("{what} failed: {why}");
        }
    }

    /// Close the round in progress, which took `wall_ns`; the warm-up
    /// round is not kept.
    fn end_round(&mut self, keep: bool, wall_ns: u64) {
        let round = Round {
            wall_ns,
            ..std::mem::take(&mut self.round)
        };
        if keep {
            self.rounds.push(round);
        }
    }

    /// Median over the measured rounds of the round's p50, ms.
    pub fn p50_ms(&self, class: Class) -> f64 {
        let mut per_round: Vec<Vec<u64>> = self
            .rounds
            .iter()
            .map(|r| r.samples[class as usize].clone())
            .collect();
        median_of_round_p50(&mut per_round) / 1e6
    }

    /// p99 over all measured rounds pooled, ms.
    pub fn p99_ms(&self, class: Class) -> f64 {
        let mut all: Vec<u64> = self
            .rounds
            .iter()
            .flat_map(|r| r.samples[class as usize].iter().copied())
            .collect();
        percentile(&mut all, 0.99) as f64 / 1e6
    }

    /// Samples per measured round of `class`.
    pub fn samples_per_round(&self, class: Class) -> Vec<usize> {
        self.rounds
            .iter()
            .map(|r| r.samples[class as usize].len())
            .collect()
    }

    /// p50 of each measured round of `class`, ms.
    pub fn round_p50s_ms(&self, class: Class) -> Vec<f64> {
        let p50 = |r: &Round| percentile(&mut r.samples[class as usize].clone(), 0.5) as f64 / 1e6;
        self.rounds.iter().map(p50).collect()
    }

    /// Wall time of each measured round, s.
    pub fn round_wall_s(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.wall_ns as f64 / 1e9).collect()
    }

    /// Ops completed (sampled) in the measured rounds.
    pub fn completed(&self) -> u64 {
        self.rounds.iter().map(Round::completed).sum()
    }

    /// Latency summed over every op completed in the measured rounds, ns.
    pub fn total_ns(&self) -> u64 {
        self.rounds.iter().flat_map(|r| &r.samples).flatten().sum()
    }

    /// p50 of the benchmark's own spans named `name`, µs (0 if none).
    pub fn span_p50_us(&self, name: &str) -> f64 {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .flatten()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        percentile(&mut d, 0.5) as f64 / 1e3
    }
}

/// Length, 64-byte head and tail always; every byte when `full`.
pub fn check_bytes(got: &[u8], want: &[u8], full: bool) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} != {}", got.len(), want.len()));
    }
    let edge = want.len().min(64);
    let same = if full {
        got == want
    } else {
        got[..edge] == want[..edge] && got[got.len() - edge..] == want[want.len() - edge..]
    };
    same.then_some(()).ok_or_else(|| "bytes differ".to_owned())
}

/// A workload: how to set the system up, run one generated op against it
/// and verify the result, and what to check when the rounds are over.
pub trait Workload: Sized {
    /// Start the cluster and preload it, so reads never meet a hole.
    fn start(env: &Env) -> Self;
    /// Run and verify one op; exactly one `Recorder::finish` per call.
    fn exec(&mut self, op: &Op, rec: &mut Recorder);
    fn cluster(&self) -> &Cluster;
    /// Versions the system acknowledged publishing since `start`, checked
    /// against the version manager's own count when the rounds are over.
    fn acked_writes(&self) -> u64;
    /// Extra loops of the traced run, over the same public API. Returns
    /// per-layer metrics only this workload can measure.
    fn side_loops(&mut self, _rec: &mut Recorder) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }
    /// Checks that need the whole run behind them (restart read-back).
    fn verify(&mut self, _rec: &mut Recorder) {}
    /// Stop the cluster. Phase A of a traced run (`traced`) may measure
    /// layers on what it leaves behind and return them as per-layer metrics.
    fn shutdown(self, traced: bool) -> BTreeMap<&'static str, f64>;
}

/// The fixed deployment of every workload: 4 data providers, 2 metadata
/// providers, one executor shard whatever the host's core count (README,
/// "Noise controls"), flight recorder at its production default (on).
pub fn start_cluster(env: &Env, backend: BackendSpec) -> Cluster {
    let mut b = ClusterBuilder::new()
        .data_providers(4)
        .meta_providers(2)
        .provider_capacity(1 << 40)
        .executor_shards(1)
        .backend(backend);
    if let Some(sink) = &env.sink {
        b = b.span_sink(Arc::clone(sink));
    }
    b.start()
}

/// Everything one phase measured.
pub struct Phase {
    pub rec: Recorder,
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu: ProcStat,
    pub rss_peak_mb: f64,
    /// Deltas of the cluster's telemetry counters over the measured rounds.
    pub counters: BTreeMap<&'static str, f64>,
    /// Per-layer metrics from the workload's side loops and shutdown.
    pub extras: BTreeMap<&'static str, f64>,
    /// Span-sink records of the measured rounds.
    pub spans: Vec<SpanRecord>,
}

const COUNTERS: [&str; 6] = [
    "runtime.parks",
    "runtime.steals",
    "provider.reads",
    "provider.cache_hits",
    "provider.cache_misses",
    "pman.allocs",
];

fn counters(cluster: &Cluster) -> BTreeMap<&'static str, f64> {
    let snap = cluster.telemetry().snapshot();
    COUNTERS
        .iter()
        .map(|&n| (n, snap.counter_total(n).unwrap_or(0) as f64))
        .collect()
}

fn run_round<W: Workload>(w: &mut W, env: &Env, round: usize, rec: &mut Recorder) {
    let ops = round_ops(env.workload, env.seed, round, env.seconds);
    let t = Instant::now();
    for op in &ops {
        w.exec(op, rec);
    }
    rec.end_round(round > 0, t.elapsed().as_nanos() as u64);
}

/// Set up (`env.setups` times, timing each), run the measured rounds,
/// verify, shut down.
pub fn run_phase<W: Workload>(env: &Env) -> Phase {
    // Set-up = cluster start + preload + warm-up round, so caches are
    // full before timing. Repeated on throwaway clusters and reported as
    // the median: one slow host phase must not decide the metric.
    let mut setups = Vec::new();
    let mut kept: Option<(W, Recorder)> = None;
    for _ in 0..env.setups {
        if let Some((w, _)) = kept.take() {
            W::shutdown(w, false);
        }
        let t = Instant::now();
        let mut w = W::start(env);
        let mut rec = Recorder::new(env.traced);
        run_round(&mut w, env, 0, &mut rec);
        setups.push(t.elapsed().as_secs_f64());
        kept = Some((w, rec));
    }
    let (mut w, mut rec) = kept.expect("at least one set-up");

    let span_mark = env.sink.as_ref().map_or(0, |s| s.len());
    let before = counters(w.cluster());
    let cpu0 = procfs::stat();
    let t = Instant::now();
    for round in 1..=env.rounds {
        // A round starts no earlier than its slot of a tenth of
        // `--seconds`: a workload whose rounds are short (gateway_disk,
        // sized by bytes) still samples the same span of host time as the
        // others, so slow host phases cannot cover all of its rounds.
        let due = Duration::from_millis(env.seconds * 100 * (round as u64 - 1));
        std::thread::sleep(due.saturating_sub(t.elapsed()));
        run_round(&mut w, env, round, &mut rec);
    }
    let wall_s = t.elapsed().as_secs_f64();
    let cpu1 = procfs::stat();
    // Peak memory of serving the workload; taken before verification,
    // whose restart phase materialises the whole log (see README).
    let rss_peak_mb = procfs::rss_peak_mb();
    let after = counters(w.cluster());
    let spans = env
        .sink
        .as_ref()
        .map_or_else(Vec::new, |s| s.spans().split_off(span_mark));

    let side_loops = env.traced && env.sink.is_none();
    let mut extras = if side_loops {
        w.side_loops(&mut rec)
    } else {
        BTreeMap::new()
    };
    let snap = w.cluster().telemetry().snapshot();
    let published = snap.counter_total("vman.published").unwrap_or(0);
    let acked = w.acked_writes();
    rec.check(
        "vman.published == writes acknowledged",
        (published == acked)
            .then_some(())
            .ok_or(format!("{published} != {acked}")),
    );
    w.verify(&mut rec);
    extras.append(&mut w.shutdown(side_loops));

    Phase {
        rec,
        setup_s: median(&setups),
        wall_s,
        cpu: ProcStat {
            minflt: cpu1.minflt - cpu0.minflt,
            utime_us: cpu1.utime_us - cpu0.utime_us,
            stime_us: cpu1.stime_us - cpu0.stime_us,
        },
        rss_peak_mb,
        counters: COUNTERS
            .iter()
            .map(|&n| (n, after[n] - before[n]))
            .collect(),
        extras,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_bytes_catches_length_edges_and_middle() {
        let want: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        assert!(check_bytes(&want, &want, false).is_ok());
        assert!(check_bytes(&want[..999], &want, false).is_err());
        let mut head = want.clone();
        head[3] ^= 1;
        assert!(check_bytes(&head, &want, false).is_err());
        let mut tail = want.clone();
        tail[990] ^= 1;
        assert!(check_bytes(&tail, &want, false).is_err());
        let mut mid = want.clone();
        mid[500] ^= 1;
        assert!(
            check_bytes(&mid, &want, false).is_ok(),
            "sampled check skips the middle"
        );
        assert!(check_bytes(&mid, &want, true).is_err());
        assert!(check_bytes(&[1, 2], &[1, 2], false).is_ok());
    }

    #[test]
    fn failed_ops_are_counted_not_sampled() {
        let mut rec = Recorder::new(false);
        rec.finish(Class::Read, 10, Ok(()));
        rec.finish(Class::Read, 10, Err("x".into()));
        rec.end_round(true, 100);
        assert_eq!((rec.attempted, rec.failed, rec.completed()), (2, 1, 1));
        assert_eq!(rec.samples_per_round(Class::Read), vec![1]);
    }

    #[test]
    fn latency_is_the_median_of_round_p50s_and_p99_pools_rounds() {
        let mut rec = Recorder::new(false);
        // Ten rounds of two ops at 10..19 ns; one perturbed round at 100.
        for round in 0..10u64 {
            let ns = if round == 4 { 100 } else { 10 + round };
            rec.finish(Class::Write, ns, Ok(()));
            rec.finish(Class::Write, ns, Ok(()));
            rec.end_round(true, 100);
        }
        assert_eq!(rec.p50_ms(Class::Write), 15.5 / 1e6);
        assert_eq!(rec.p50_ms(Class::Read), 0.0, "no samples, no latency");
        assert_eq!(rec.p99_ms(Class::Write), 100.0 / 1e6);
        assert_eq!(
            (rec.completed(), rec.total_ns()),
            (20, 2 * (145 - 14 + 100))
        );
    }
}
