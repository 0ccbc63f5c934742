//! # sads-workloads — workload generators for the paper's experiments
//!
//! * [`writer_script`] / [`reader_script`] — the paper's access patterns
//!   ("a number of clients ranging from 5 to 80, each of them writing
//!   1 GB of data to BlobSeer"),
//! * [`DosAttacker`] — malicious clients flooding the data providers with
//!   bogus writes (§IV-C's Denial-of-Service scenario); they stop
//!   attacking a provider once it refuses them (connection-level
//!   blocking), which is what lets throughput recover after enforcement,
//! * [`staggered`] — ramps attacker start times for the detection-delay
//!   experiment.

#![warn(missing_docs)]

use rand::Rng;
use sads_blob::model::{BlobId, BlobSpec, ChunkKey, ClientId, Payload, VersionId};
use sads_blob::rpc::Msg;
use sads_blob::runtime::sim::{BlobRef, ScriptStep};
use sads_blob::storage::payload_crc;
use sads_blob::WriteKind;
use sads_sim::{Actor, Ctx, Message, MessageExt, NodeId, SimDuration, SimTime};

/// The paper's write-intensive client: create one BLOB, then write
/// `total_bytes` as a sequence of `op_bytes`-sized appends, starting at
/// `start_at`.
pub fn writer_script(
    spec: BlobSpec,
    total_bytes: u64,
    op_bytes: u64,
    start_at: SimTime,
) -> Vec<ScriptStep> {
    let mut script = vec![ScriptStep::Create(spec), ScriptStep::WaitUntil(start_at)];
    let mut remaining = total_bytes;
    while remaining > 0 {
        let n = remaining.min(op_bytes);
        script.push(ScriptStep::Write {
            blob: BlobRef::Created(0),
            kind: WriteKind::Append,
            bytes: n,
        });
        remaining -= n;
    }
    script
}

/// A read-intensive client: read `[0, len)` of `blob` `repeat` times.
pub fn reader_script(
    blob: BlobId,
    len: u64,
    repeat: usize,
    start_at: SimTime,
) -> Vec<ScriptStep> {
    let mut script = vec![ScriptStep::WaitUntil(start_at)];
    for _ in 0..repeat {
        script.push(ScriptStep::Read { blob: BlobRef::Id(blob), version: None, offset: 0, len });
    }
    script
}

/// A looping mixed workload: write then read back, `rounds` times.
pub fn mixed_script(
    spec: BlobSpec,
    op_bytes: u64,
    rounds: usize,
    start_at: SimTime,
    pause: SimDuration,
) -> Vec<ScriptStep> {
    let mut script = vec![ScriptStep::Create(spec), ScriptStep::WaitUntil(start_at)];
    for _ in 0..rounds {
        script.push(ScriptStep::Write {
            blob: BlobRef::Created(0),
            kind: WriteKind::Append,
            bytes: op_bytes,
        });
        script.push(ScriptStep::Read {
            blob: BlobRef::Created(0),
            version: None,
            offset: 0,
            len: op_bytes,
        });
        script.push(ScriptStep::Pause(pause));
    }
    script
}

/// What kind of flood an attacker mounts.
#[derive(Clone, Debug)]
pub enum AttackMode {
    /// Bogus chunk writes: consumes provider *ingress* bandwidth and
    /// wastes storage (the paper's write-intensive scenario).
    BogusWrites {
        /// Bogus chunk size (bytes).
        chunk_bytes: u64,
    },
    /// Amplified reads of real chunks: a ~256 B request makes the
    /// provider ship a full chunk, saturating its *egress* and starving
    /// every other client's responses and write acknowledgements (the
    /// paper's read-intensive scenario). The attacker knows where the
    /// chunks live — it resolved the (public) metadata beforehand, like
    /// any reader would.
    AmplifiedReads {
        /// Known `(provider, chunk)` pairs to request.
        targets: Vec<(NodeId, ChunkKey)>,
    },
}

/// Tuning of one DoS attacker.
#[derive(Clone, Debug)]
pub struct AttackConfig {
    /// When the attack begins.
    pub start_at: SimTime,
    /// When the attack ends on its own (if never blocked).
    pub stop_at: SimTime,
    /// The flood variant.
    pub mode: AttackMode,
    /// Requests per second (sprayed over the providers).
    pub rate_per_sec: f64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            start_at: SimTime(30_000_000_000),
            stop_at: SimTime(600_000_000_000),
            mode: AttackMode::BogusWrites { chunk_bytes: 4 << 20 },
            rate_per_sec: 25.0,
        }
    }
}

const ATTACK_TICK: u64 = 1;

/// A malicious client: floods random data providers with bogus chunk
/// writes. Once a provider answers `Blocked`, the attacker stops
/// targeting it (the enforcement layer refused its connections); when all
/// providers are blocked the attack dies and
/// `attacker.silenced_at` is recorded.
pub struct DosAttacker {
    id: ClientId,
    providers: Vec<NodeId>,
    cfg: AttackConfig,
    blocked: std::collections::HashSet<NodeId>,
    next_req: u64,
    sent: u64,
    silenced: bool,
}

impl DosAttacker {
    /// An attacker targeting the given data providers.
    pub fn new(id: ClientId, providers: Vec<NodeId>, cfg: AttackConfig) -> Self {
        assert!(!providers.is_empty());
        DosAttacker {
            id,
            providers,
            cfg,
            blocked: std::collections::HashSet::new(),
            next_req: 1,
            sent: 0,
            silenced: false,
        }
    }

    /// Bogus puts sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Has every provider refused this attacker?
    pub fn silenced(&self) -> bool {
        self.silenced
    }

    fn fire(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if now >= self.cfg.stop_at || self.silenced {
            return;
        }
        let open: Vec<NodeId> = self
            .providers
            .iter()
            .copied()
            .filter(|p| !self.blocked.contains(p))
            .collect();
        if open.is_empty() {
            self.silence(ctx);
            return;
        }
        let req = self.next_req;
        self.next_req += 1;
        match &self.cfg.mode {
            AttackMode::BogusWrites { chunk_bytes } => {
                let target = open[ctx.rng().random_range(0..open.len())];
                // A bogus chunk: a page of a BLOB that will never publish.
                let key = ChunkKey {
                    blob: BlobId(u64::MAX - self.id.0),
                    version: VersionId(u64::MAX),
                    page: self.next_req,
                };
                let data = Payload::Sim(*chunk_bytes);
                let crc = payload_crc(&data);
                let items = vec![(key, data, crc)];
                ctx.send(target, Box::new(Msg::PutChunkBatch { req, client: self.id, items }));
            }
            AttackMode::AmplifiedReads { targets } => {
                let open_targets: Vec<&(NodeId, ChunkKey)> = targets
                    .iter()
                    .filter(|(p, _)| !self.blocked.contains(p))
                    .collect();
                if open_targets.is_empty() {
                    self.silence(ctx);
                    return;
                }
                let (target, key) =
                    *open_targets[ctx.rng().random_range(0..open_targets.len())];
                let keys = vec![key];
                ctx.send(target, Box::new(Msg::GetChunkBatch { req, client: self.id, keys }));
            }
        }
        self.sent += 1;
        ctx.incr("attacker.requests", 1);
        let gap = SimDuration::from_secs_f64(1.0 / self.cfg.rate_per_sec.max(1e-6));
        ctx.set_timer(gap, ATTACK_TICK);
    }

    fn silence(&mut self, ctx: &mut Ctx<'_>) {
        if !self.silenced {
            self.silenced = true;
            ctx.incr("attacker.silenced", 1);
            ctx.record("attacker.silenced_at", ctx.now().as_secs_f64());
        }
    }
}

impl Actor for DosAttacker {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let delay = self.cfg.start_at.since(ctx.now());
        ctx.set_timer(delay, ATTACK_TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Message>) {
        let blocked = match msg.downcast_ref::<Msg>() {
            Some(Msg::PutChunkErr { err, .. }) | Some(Msg::GetChunkErr { err, .. }) => {
                *err == sads_blob::rpc::ChunkErr::Blocked
            }
            _ => false,
        };
        if blocked {
            self.blocked.insert(from);
            ctx.incr("attacker.refusals", 1);
            if self.blocked.len() == self.providers.len() {
                self.silence(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == ATTACK_TICK {
            self.fire(ctx);
        }
    }
}

/// Zipf-distributed object popularity: item `0` is the hottest, weights
/// fall off as `1 / (k+1)^s`. The scaling experiment (E12) uses it to
/// model the skewed access pattern a cloud object store sees — a few hot
/// BLOBs absorb most reads.
///
/// Sampling is a precomputed-CDF binary search: `O(n)` to build once,
/// `O(log n)` per draw, no floating-point rejection loops, fully
/// deterministic under the repo's seeded [`SmallRng`](rand::rngs::SmallRng).
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over `n` items with exponent `s` (`s = 0` is uniform,
    /// `s ≈ 1` is the classic web/object-store skew).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one item");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Is the population empty? (Never true: `new` requires `n > 0`.)
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw one item index in `[0, n)`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Open-loop Poisson arrival process: `count` arrival instants after
/// `start`, with exponential inter-arrival gaps at an aggregate
/// `rate_per_sec`. Open-loop means arrivals do **not** wait for earlier
/// requests to finish — the defining property of real client populations
/// (and what closed-loop benchmarks get wrong about overload behavior).
pub fn poisson_arrivals<R: Rng>(
    rng: &mut R,
    rate_per_sec: f64,
    start: SimTime,
    count: usize,
) -> Vec<SimTime> {
    assert!(rate_per_sec > 0.0, "arrival rate must be positive");
    let mut out = Vec::with_capacity(count);
    let mut t = start.as_nanos() as f64;
    for _ in 0..count {
        let u: f64 = rng.random_range(0.0..1.0);
        // Inverse-CDF draw of Exp(rate): −ln(1−U)/λ, in nanoseconds.
        let gap_s = -(1.0 - u).ln() / rate_per_sec;
        t += gap_s * 1e9;
        out.push(SimTime(t as u64));
    }
    out
}

/// One open-loop reader for the scaling experiment: sleep until this
/// client's Poisson `arrival`, then issue `reads` reads of `[0, len)` of
/// `blob` (typically a zipf-sampled hot object).
pub fn open_loop_read_script(
    arrival: SimTime,
    blob: BlobId,
    len: u64,
    reads: usize,
) -> Vec<ScriptStep> {
    let mut script = vec![ScriptStep::WaitUntil(arrival)];
    for _ in 0..reads {
        script.push(ScriptStep::Read { blob: BlobRef::Id(blob), version: None, offset: 0, len });
    }
    script
}

/// Stagger a value over `[base, base + spread]` for client `i` of `n` —
/// used to ramp attackers in gradually (the paper's detection-delay
/// experiment observes first vs last detection).
pub fn staggered(base: SimTime, spread: SimDuration, i: usize, n: usize) -> SimTime {
    if n <= 1 {
        return base;
    }
    base + SimDuration::from_nanos(spread.as_nanos() * i as u64 / (n as u64 - 1).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_script_splits_total_into_ops() {
        let spec = BlobSpec { page_size: 8, replication: 1 };
        let s = writer_script(spec, 100, 40, SimTime(5_000_000_000));
        // Create + WaitUntil + 3 writes (40+40+20).
        assert_eq!(s.len(), 5);
        let sizes: Vec<u64> = s
            .iter()
            .filter_map(|x| match x {
                ScriptStep::Write { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, vec![40, 40, 20]);
    }

    #[test]
    fn reader_script_repeats() {
        let s = reader_script(BlobId(1), 100, 3, SimTime::ZERO);
        assert_eq!(s.iter().filter(|x| matches!(x, ScriptStep::Read { .. })).count(), 3);
    }

    #[test]
    fn mixed_script_interleaves() {
        let spec = BlobSpec { page_size: 8, replication: 1 };
        let s = mixed_script(spec, 64, 2, SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(s.iter().filter(|x| matches!(x, ScriptStep::Write { .. })).count(), 2);
        assert_eq!(s.iter().filter(|x| matches!(x, ScriptStep::Read { .. })).count(), 2);
        assert_eq!(s.iter().filter(|x| matches!(x, ScriptStep::Pause(_))).count(), 2);
    }

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let z = ZipfSampler::new(100, 1.0);
        assert_eq!(z.len(), 100);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            let k = z.sample(&mut rng);
            assert!(k < 100);
            counts[k] += 1;
        }
        // Head is much hotter than the middle, middle hotter than tail.
        assert!(counts[0] > 5 * counts[50], "rank 0 must dominate rank 50");
        assert!(counts[0] > counts[1], "monotone head");
        let tail: usize = counts[90..].iter().sum();
        assert!(counts[0] > tail, "head outweighs the last decile");
        // Same seed, same draws.
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn poisson_arrivals_are_ordered_with_the_right_mean_gap() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(5);
        let rate = 1000.0; // 1k/s => 1ms mean gap
        let start = SimTime(2_000_000_000);
        let arrivals = poisson_arrivals(&mut rng, rate, start, 10_000);
        assert_eq!(arrivals.len(), 10_000);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "arrivals are sorted");
        assert!(arrivals[0] >= start);
        let span_s = arrivals.last().unwrap().since(start).as_secs_f64();
        let mean_gap_ms = span_s * 1000.0 / 10_000.0;
        assert!(
            (0.9..1.1).contains(&mean_gap_ms),
            "mean inter-arrival {mean_gap_ms:.3} ms should be ~1 ms"
        );
    }

    #[test]
    fn open_loop_read_script_shape() {
        let s = open_loop_read_script(SimTime(1_000_000_000), BlobId(3), 4096, 2);
        assert!(matches!(s[0], ScriptStep::WaitUntil(t) if t == SimTime(1_000_000_000)));
        assert_eq!(s.iter().filter(|x| matches!(x, ScriptStep::Read { .. })).count(), 2);
    }

    #[test]
    fn staggering_spans_the_window() {
        let base = SimTime(10_000_000_000);
        let spread = SimDuration::from_secs(30);
        assert_eq!(staggered(base, spread, 0, 4), base);
        assert_eq!(staggered(base, spread, 3, 4), base + spread);
        assert_eq!(staggered(base, spread, 0, 1), base);
        let mid = staggered(base, spread, 1, 4);
        assert!(mid > base && mid < base + spread);
    }
}
