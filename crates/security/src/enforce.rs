//! The Policy Enforcement component (paper §III-C): "responsible for
//! making a decision based on the state of the system and on the impact
//! of the attempted attack … Such decisions range from preventing the
//! user from further accessing the system to logging the illegal usage
//! into the activity history."
//!
//! Sanctions are pushed back into BlobSeer as
//! [`Msg::BlockClient`]/[`Msg::UnblockClient`] — the feedback edge of the
//! paper's self-protection loop. Three primitives:
//!
//! * **block** — refused everywhere (version manager + data providers),
//! * **throttle** — data-plane-only block: control operations still work,
//!   bulk traffic is refused (deprioritization),
//! * **log** — recorded in the violation log only.
//!
//! Block durations are scaled by the trust ledger: repeat offenders are
//! sanctioned up to twice the policy's base duration (the paper's
//! "adaptive security policies specifically tuned for the history of each
//! user").

use std::collections::HashMap;

use sads_blob::model::ClientId;
use sads_blob::rpc::Msg;
use sads_blob::services::Env;
use sads_sim::{NodeId, SimDuration, SimTime};

use crate::lang::ActionKind;
use crate::policy::Violation;
use crate::trust::TrustManager;

/// An active sanction.
#[derive(Clone, Debug, PartialEq)]
pub struct Sanction {
    /// The sanctioned client.
    pub client: ClientId,
    /// Block or throttle.
    pub kind: ActionKind,
    /// When it lifts (`None` = indefinite).
    pub until: Option<SimTime>,
    /// The policy that triggered it.
    pub policy: String,
}

/// Tracks sanctions and issues the enforcement RPCs.
#[derive(Debug)]
pub struct Enforcer {
    /// Nodes notified for full blocks (version manager + data providers).
    block_targets: Vec<NodeId>,
    /// Nodes notified for throttles (data providers only).
    throttle_targets: Vec<NodeId>,
    active: HashMap<ClientId, Sanction>,
    log: Vec<Violation>,
}

impl Enforcer {
    /// An enforcer wired to the given targets.
    pub fn new(block_targets: Vec<NodeId>, throttle_targets: Vec<NodeId>) -> Self {
        Enforcer { block_targets, throttle_targets, active: HashMap::new(), log: Vec::new() }
    }

    /// Is the client currently sanctioned?
    pub fn is_sanctioned(&self, client: ClientId) -> bool {
        self.active.contains_key(&client)
    }

    /// Active sanctions.
    pub fn active(&self) -> impl Iterator<Item = &Sanction> {
        self.active.values()
    }

    /// Every violation ever seen (including log-only ones).
    pub fn violation_log(&self) -> &[Violation] {
        &self.log
    }

    /// Decide on and apply a violation. Returns the sanction if one was
    /// newly imposed.
    pub fn apply(
        &mut self,
        env: &mut dyn Env,
        v: Violation,
        trust: &mut TrustManager,
    ) -> Option<Sanction> {
        let now = env.now();
        trust.penalize(v.client, v.action.severity, now);
        self.log.push(v.clone());
        if v.action.kind == ActionKind::Log {
            env.incr("sec.logged", 1);
            return None;
        }
        if self.is_sanctioned(v.client) {
            return None;
        }
        // Adaptive decision: scale the base duration by the client's
        // distrust.
        let until = v.action.duration.map(|d| {
            let scaled = SimDuration::from_secs_f64(
                d.as_secs_f64() * trust.sanction_scale(v.client, now),
            );
            now + scaled
        });
        let targets = match v.action.kind {
            ActionKind::Block => &self.block_targets,
            ActionKind::Throttle => &self.throttle_targets,
            ActionKind::Log => unreachable!(),
        };
        for t in targets {
            env.send(*t, Msg::BlockClient { client: v.client });
        }
        let sanction =
            Sanction { client: v.client, kind: v.action.kind, until, policy: v.policy.clone() };
        self.active.insert(v.client, sanction.clone());
        env.incr("sec.sanctions", 1);
        env.record("sec.active_sanctions", self.active.len() as f64);
        Some(sanction)
    }

    /// Lift sanctions whose deadline has passed; returns the released
    /// clients.
    pub fn expire_due(&mut self, env: &mut dyn Env, now: SimTime) -> Vec<ClientId> {
        let due: Vec<ClientId> = self
            .active
            .values()
            .filter(|s| s.until.map(|u| u <= now).unwrap_or(false))
            .map(|s| s.client)
            .collect();
        for client in &due {
            let s = self.active.remove(client).expect("present");
            let targets = match s.kind {
                ActionKind::Block => &self.block_targets,
                _ => &self.throttle_targets,
            };
            for t in targets {
                env.send(*t, Msg::UnblockClient { client: *client });
            }
            env.incr("sec.unblocks", 1);
        }
        if !due.is_empty() {
            env.record("sec.active_sanctions", self.active.len() as f64);
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{ActionSpec, Severity};
    use crate::trust::TrustConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    struct TestEnv {
        now: SimTime,
        sent: Vec<(NodeId, Msg)>,
        rng: SmallRng,
        reg: sads_sim::Registry,
    }
    impl TestEnv {
        fn new() -> Self {
            TestEnv {
                now: SimTime::ZERO,
                sent: vec![],
                rng: SmallRng::seed_from_u64(0),
                reg: sads_sim::Registry::new(),
            }
        }
        fn blocks_sent(&self) -> Vec<NodeId> {
            self.sent
                .iter()
                .filter(|(_, m)| matches!(m, Msg::BlockClient { .. }))
                .map(|(n, _)| *n)
                .collect()
        }
        fn unblocks_sent(&self) -> usize {
            self.sent.iter().filter(|(_, m)| matches!(m, Msg::UnblockClient { .. })).count()
        }
    }
    impl Env for TestEnv {
        fn telemetry(&self) -> &sads_sim::Registry {
            &self.reg
        }
        fn id(&self) -> NodeId {
            NodeId(0)
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn send(&mut self, to: NodeId, msg: Msg) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, _d: SimDuration, _t: u64) {}
        fn rng(&mut self) -> &mut SmallRng {
            &mut self.rng
        }
        fn spawn(&mut self, _: Box<dyn sads_blob::services::Service>) -> NodeId {
            unreachable!("no node starts nodes in this test")
        }
        fn power_off(&mut self, _: NodeId) {
            unreachable!("no node powers nodes off in this test")
        }
    }

    fn violation(client: u64, kind: ActionKind, dur: Option<u64>) -> Violation {
        Violation {
            policy: "p".into(),
            client: ClientId(client),
            at: SimTime::ZERO,
            action: ActionSpec {
                kind,
                duration: dur.map(SimDuration::from_secs),
                severity: Severity::High,
            },
        }
    }

    #[test]
    fn block_notifies_all_targets_and_expires() {
        let mut env = TestEnv::new();
        let mut trust = TrustManager::new(TrustConfig::default());
        let mut e = Enforcer::new(vec![NodeId(1), NodeId(2), NodeId(3)], vec![NodeId(2), NodeId(3)]);
        let s = e.apply(&mut env, violation(7, ActionKind::Block, Some(100)), &mut trust).unwrap();
        assert_eq!(env.blocks_sent(), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(e.is_sanctioned(ClientId(7)));
        // Trust was penalized BEFORE computing the scale: 0.8-0.4=0.4 →
        // scale 1.6 → 160 s.
        let until = s.until.unwrap();
        assert!((until.as_secs_f64() - 160.0).abs() < 1e-6, "got {until}");
        // Not yet due.
        env.now = SimTime(100_000_000_000);
        let now = env.now;
        assert!(e.expire_due(&mut env, now).is_empty());
        env.now = SimTime(161_000_000_000);
        let now = env.now;
        let released = e.expire_due(&mut env, now);
        assert_eq!(released, vec![ClientId(7)]);
        assert_eq!(env.unblocks_sent(), 3);
        assert!(!e.is_sanctioned(ClientId(7)));
    }

    #[test]
    fn throttle_only_hits_data_plane() {
        let mut env = TestEnv::new();
        let mut trust = TrustManager::new(TrustConfig::default());
        let mut e = Enforcer::new(vec![NodeId(1), NodeId(2)], vec![NodeId(2)]);
        e.apply(&mut env, violation(7, ActionKind::Throttle, Some(10)), &mut trust);
        assert_eq!(env.blocks_sent(), vec![NodeId(2)]);
    }

    #[test]
    fn log_only_records() {
        let mut env = TestEnv::new();
        let mut trust = TrustManager::new(TrustConfig::default());
        let mut e = Enforcer::new(vec![NodeId(1)], vec![]);
        assert!(e.apply(&mut env, violation(7, ActionKind::Log, None), &mut trust).is_none());
        assert!(env.sent.is_empty());
        assert!(!e.is_sanctioned(ClientId(7)));
        assert_eq!(e.violation_log().len(), 1);
        // Trust still took the hit.
        assert!(trust.get(ClientId(7), SimTime::ZERO) < 0.8);
    }

    #[test]
    fn double_sanction_is_suppressed_but_logged() {
        let mut env = TestEnv::new();
        let mut trust = TrustManager::new(TrustConfig::default());
        let mut e = Enforcer::new(vec![NodeId(1)], vec![]);
        assert!(e.apply(&mut env, violation(7, ActionKind::Block, Some(10)), &mut trust).is_some());
        assert!(e.apply(&mut env, violation(7, ActionKind::Block, Some(10)), &mut trust).is_none());
        assert_eq!(env.blocks_sent().len(), 1);
        assert_eq!(e.violation_log().len(), 2);
    }

    #[test]
    fn indefinite_blocks_never_expire() {
        let mut env = TestEnv::new();
        let mut trust = TrustManager::new(TrustConfig::default());
        let mut e = Enforcer::new(vec![NodeId(1)], vec![]);
        e.apply(&mut env, violation(7, ActionKind::Block, None), &mut trust);
        env.now = SimTime(u64::MAX / 2);
        let now = env.now;
        assert!(e.expire_due(&mut env, now).is_empty());
        assert!(e.is_sanctioned(ClientId(7)));
    }
}
