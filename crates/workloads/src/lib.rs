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
