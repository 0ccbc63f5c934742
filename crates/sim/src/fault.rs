//! Deterministic fault injection: seeded crash/restart schedules.
//!
//! A [`FaultPlan`] is pure data — a time-ordered list of [`FaultEvent`]s
//! saying *when* each node crashes and comes back. Plans are either built
//! explicitly or generated from a seed with [`FaultPlan::crash_restart`],
//! so two runs with the same seed inject byte-identical fault schedules.
//! [`run_with_faults`] interleaves a plan with the event loop, calling a
//! caller-supplied `revive` closure to build the fresh actor for each
//! restart (a restarted node keeps its [`NodeId`] but starts from a clean
//! slate — see [`World::restart`]).
//!
//! Message-level faults (probabilistic datagram loss) are a separate,
//! composable knob: [`World::set_message_loss`].
//!
//! # Example: a seeded crash-injection run
//!
//! ```
//! use sads_sim::fault::{run_with_faults, FaultPlan};
//! use sads_sim::{Actor, Ctx, Message, NodeConfig, NodeId, SimDuration, SimTime, World};
//!
//! /// Counts one tick per second while alive.
//! struct Ticker;
//! impl Actor for Ticker {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.set_timer(SimDuration::from_secs(1), 0);
//!     }
//!     fn on_message(&mut self, _c: &mut Ctx<'_>, _f: NodeId, _m: Box<dyn Message>) {}
//!     fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
//!         ctx.incr("ticks", 1);
//!         ctx.set_timer(SimDuration::from_secs(1), 0);
//!     }
//! }
//!
//! let mut world = World::with_seed(42);
//! let node = world.add_node(Box::new(Ticker), NodeConfig::default());
//!
//! // One crash at t = 3 s, back up at t = 6 s (here spelled explicitly;
//! // `FaultPlan::crash_restart` draws whole schedules from a seed).
//! let mut plan = FaultPlan::builder()
//!     .crash_at(node, SimTime::from_secs(3))
//!     .restart_at(node, SimTime::from_secs(6))
//!     .build();
//!
//! run_with_faults(&mut world, &mut plan, SimTime::from_secs(10), 10_000, |_| {
//!     Box::new(Ticker)
//! });
//!
//! // Alive for t ∈ (0, 3] and (6, 10]: ticks at 1,2,3 and 7,8,9,10.
//! assert_eq!(world.metrics().counter("ticks"), 7);
//! assert_eq!(world.metrics().counter("fault.crashes"), 1);
//! assert_eq!(world.metrics().counter("fault.restarts"), 1);
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::net::NodeId;
use crate::time::{SimDuration, SimTime};
use crate::world::{Actor, RunOutcome, World};

/// What happens to a node at a [`FaultEvent`]'s time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The node crashes: NIC down, actor state lost, timers dead.
    Crash,
    /// The node restarts with a fresh actor at the same [`NodeId`].
    Restart,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy)]
pub struct FaultEvent {
    /// When the fault takes effect.
    pub at: SimTime,
    /// The affected node.
    pub node: NodeId,
    /// Crash or restart.
    pub kind: FaultKind,
}

/// A time-ordered, replayable schedule of crashes and restarts.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    next: usize,
}

/// Incremental [`FaultPlan`] construction.
#[derive(Debug, Default)]
pub struct FaultPlanBuilder {
    events: Vec<FaultEvent>,
}

impl FaultPlanBuilder {
    /// Schedule a crash of `node` at `at`.
    pub fn crash_at(mut self, node: NodeId, at: SimTime) -> Self {
        self.events.push(FaultEvent { at, node, kind: FaultKind::Crash });
        self
    }

    /// Schedule a restart of `node` at `at`.
    pub fn restart_at(mut self, node: NodeId, at: SimTime) -> Self {
        self.events.push(FaultEvent { at, node, kind: FaultKind::Restart });
        self
    }

    /// Finish: events are sorted by time (stably, so same-time events
    /// keep insertion order).
    pub fn build(mut self) -> FaultPlan {
        self.events.sort_by_key(|e| e.at);
        FaultPlan { events: self.events, next: 0 }
    }
}

impl FaultPlan {
    /// Start building a plan by hand.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder::default()
    }

    /// Generate a seeded crash/restart schedule over `nodes`.
    ///
    /// Crashes arrive with a mean inter-crash gap of `mean_between`
    /// (uniform on `[0.5, 1.5] ×` the mean, so schedules are bursty but
    /// bounded), each victim is drawn uniformly from the nodes currently
    /// up, and every crash is paired with a restart `downtime` later.
    /// Only crash/restart pairs that complete before `horizon` are kept,
    /// so a plan never leaves a node down at the end of the window. The
    /// same `(seed, nodes, horizon, mean_between, downtime)` always
    /// yields the same plan.
    pub fn crash_restart(
        seed: u64,
        nodes: &[NodeId],
        horizon: SimTime,
        mean_between: SimDuration,
        downtime: SimDuration,
    ) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = FaultPlan::builder();
        if nodes.is_empty() || mean_between == SimDuration::ZERO {
            return b.build();
        }
        // Next time each node is eligible to crash again (must be back up).
        let mut up_at = vec![SimTime::ZERO; nodes.len()];
        let mut t = SimTime::ZERO;
        loop {
            let gap_ns = rng.random_range(
                (mean_between.as_nanos() / 2)..=(mean_between.as_nanos() * 3 / 2),
            );
            t += SimDuration::from_nanos(gap_ns);
            let back_up = t + downtime;
            if back_up > horizon {
                return b.build();
            }
            let eligible: Vec<usize> =
                (0..nodes.len()).filter(|&i| up_at[i] <= t).collect();
            let Some(&victim) = eligible.get(rng.random_range(0..eligible.len().max(1))) else {
                continue; // everyone is down; try the next arrival
            };
            up_at[victim] = back_up;
            b = b.crash_at(nodes[victim], t).restart_at(nodes[victim], back_up);
        }
    }

    /// All scheduled events, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Time of the next unapplied event, if any.
    pub fn next_at(&self) -> Option<SimTime> {
        self.events.get(self.next).map(|e| e.at)
    }

    /// Pop the next event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<FaultEvent> {
        let ev = self.events.get(self.next)?;
        if ev.at <= now {
            self.next += 1;
            Some(*ev)
        } else {
            None
        }
    }

    /// Number of scheduled crashes.
    pub fn crashes(&self) -> usize {
        self.events.iter().filter(|e| e.kind == FaultKind::Crash).count()
    }
}

/// Run `world` until `deadline`, applying `plan`'s crashes and restarts
/// at their scheduled times. `revive` builds the fresh actor installed
/// at each restart (same [`NodeId`], clean state). `max_events` is a
/// per-segment safety cap, as in [`World::run_until`]; hitting it aborts
/// the run with [`RunOutcome::EventLimit`]. Injections are counted under
/// the `fault.crashes` / `fault.restarts` metrics.
pub fn run_with_faults(
    world: &mut World,
    plan: &mut FaultPlan,
    deadline: SimTime,
    max_events: u64,
    mut revive: impl FnMut(NodeId) -> Box<dyn Actor>,
) -> RunOutcome {
    loop {
        let Some(stop) = plan.next_at().filter(|&t| t <= deadline) else {
            return world.run_until(deadline, max_events);
        };
        if world.run_until(stop, max_events) == RunOutcome::EventLimit {
            return RunOutcome::EventLimit;
        }
        // A quiescent world leaves the clock at the last processed event;
        // pull it forward so the due faults actually apply.
        world.advance_to(stop);
        while let Some(ev) = plan.pop_due(world.now()) {
            match ev.kind {
                FaultKind::Crash => {
                    world.crash(ev.node);
                    world.telemetry().inc("fault.crashes", &[], 1);
                }
                FaultKind::Restart => {
                    world.restart(ev.node, revive(ev.node));
                    world.telemetry().inc("fault.restarts", &[], 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn generated_schedule_is_deterministic_and_paired() {
        let ns = nodes(5);
        let mk = || {
            FaultPlan::crash_restart(
                99,
                &ns,
                SimTime::from_secs(120),
                SimDuration::from_secs(10),
                SimDuration::from_secs(5),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.events().len(), b.events().len());
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!((x.at, x.node, x.kind), (y.at, y.node, y.kind));
        }
        assert!(a.crashes() > 0, "a 120 s window at MTBF 10 s must crash someone");
        // Every crash pairs with a restart of the same node, downtime later.
        let crashes: Vec<_> =
            a.events().iter().filter(|e| e.kind == FaultKind::Crash).collect();
        let restarts: Vec<_> =
            a.events().iter().filter(|e| e.kind == FaultKind::Restart).collect();
        assert_eq!(crashes.len(), restarts.len());
        for c in &crashes {
            assert!(restarts
                .iter()
                .any(|r| r.node == c.node && r.at == c.at + SimDuration::from_secs(5)));
        }
        // No node crashes again while scheduled down.
        for c in &crashes {
            let overlapping = crashes.iter().filter(|d| {
                d.node == c.node && d.at > c.at && d.at < c.at + SimDuration::from_secs(5)
            });
            assert_eq!(overlapping.count(), 0);
        }
    }

    #[test]
    fn empty_inputs_produce_empty_plans() {
        let p = FaultPlan::crash_restart(
            1,
            &[],
            SimTime::from_secs(60),
            SimDuration::from_secs(5),
            SimDuration::from_secs(1),
        );
        assert!(p.events().is_empty());
        let p = FaultPlan::crash_restart(
            1,
            &nodes(3),
            SimTime::from_secs(60),
            SimDuration::ZERO,
            SimDuration::from_secs(1),
        );
        assert!(p.events().is_empty());
    }

    #[test]
    fn pop_due_walks_in_order() {
        let n = NodeId(0);
        let mut p = FaultPlan::builder()
            .restart_at(n, SimTime::from_secs(4))
            .crash_at(n, SimTime::from_secs(2))
            .build();
        assert_eq!(p.next_at(), Some(SimTime::from_secs(2)));
        assert!(p.pop_due(SimTime::from_secs(1)).is_none());
        let ev = p.pop_due(SimTime::from_secs(2)).unwrap();
        assert_eq!(ev.kind, FaultKind::Crash);
        let ev = p.pop_due(SimTime::from_secs(10)).unwrap();
        assert_eq!(ev.kind, FaultKind::Restart);
        assert!(p.pop_due(SimTime::MAX).is_none());
    }
}
