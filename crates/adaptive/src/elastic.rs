//! Self-configuration through dynamic data-provider deployment (paper
//! §V): "a component that adapts the storage system to the environment by
//! contracting and expanding the pool of data providers based on the
//! system's load".
//!
//! The controller is split MAPE-style: the *decision* logic
//! ([`ElasticityPolicy`], pure and unit-testable) consumes the
//! introspection layer's utilization signal; the *actuation* is delegated
//! to a deployment agent (cloud API stand-in) via [`AdaptMsg::Scale`],
//! since only the hosting runtime can create or destroy nodes.

use std::collections::VecDeque;

use sads_blob::rpc::Msg;
use sads_blob::services::{Env, Service};
use sads_blob::impl_ext_payload;
use sads_introspect::{intro_msg, into_alert, into_intro, AlertMsg, IntroMsg, SystemSnapshot};
use sads_sim::{NodeId, SimDuration, SimTime};

/// Timer token: control loop tick.
pub const TOKEN_ELASTIC_TICK: u64 = u64::MAX - 40;

/// Decisions the controller keeps; the `elastic.expand` and
/// `elastic.retire` counters are the full record.
const DECISION_LOG_CAP: usize = 256;

/// Actuation requests to the deployment agent, carried as [`Msg::Ext`].
#[derive(Debug, PartialEq)]
pub enum AdaptMsg {
    /// Change the data-provider pool.
    Scale(ScaleDecision),
}

impl_ext_payload!(AdaptMsg);

/// A concrete scaling decision.
#[derive(Debug, Clone, PartialEq)]
pub enum ScaleDecision {
    /// Start `count` new data providers.
    Expand {
        /// How many to add.
        count: u32,
    },
    /// Drain and retire these providers.
    Retire {
        /// Which providers to decommission.
        providers: Vec<NodeId>,
    },
}

/// Wrap for transport.
pub fn adapt_msg(m: AdaptMsg) -> Msg {
    Msg::Ext(Box::new(m))
}

/// Take an [`AdaptMsg`] out of a transport message.
pub fn into_adapt(msg: Msg) -> Option<AdaptMsg> {
    match msg {
        Msg::Ext(p) => p.downcast::<AdaptMsg>().ok().map(|b| *b),
        _ => None,
    }
}

/// Watermark controller with hysteresis and cooldown.
#[derive(Clone, Debug)]
pub struct ElasticityPolicy {
    /// Scale up when mean utilization exceeds this.
    pub high_watermark: f64,
    /// Scale down when mean utilization falls below this.
    pub low_watermark: f64,
    /// Never shrink below this many providers.
    pub min_providers: usize,
    /// Never grow beyond this many providers.
    pub max_providers: usize,
    /// Providers added/removed per action.
    pub step: u32,
    /// Minimum time between actions.
    pub cooldown: SimDuration,
    last_action: SimTime,
}

impl Default for ElasticityPolicy {
    fn default() -> Self {
        ElasticityPolicy {
            high_watermark: 0.75,
            low_watermark: 0.25,
            min_providers: 2,
            max_providers: 256,
            step: 2,
            cooldown: SimDuration::from_secs(20),
            last_action: SimTime::ZERO,
        }
    }
}

impl ElasticityPolicy {
    /// Construct a policy with explicit parameters.
    pub fn with(
        high_watermark: f64,
        low_watermark: f64,
        min_providers: usize,
        max_providers: usize,
        step: u32,
        cooldown: SimDuration,
    ) -> Self {
        ElasticityPolicy {
            high_watermark,
            low_watermark,
            min_providers,
            max_providers,
            step,
            cooldown,
            last_action: SimTime::ZERO,
        }
    }
}

/// The controller's abstract output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Add this many providers.
    Grow(u32),
    /// Remove this many providers.
    Shrink(u32),
}

impl ElasticityPolicy {
    /// Decide given the current mean utilization and pool size. Respects
    /// watermarks, pool bounds and the cooldown; returns `None` when no
    /// action is warranted.
    pub fn decide(&mut self, utilization: f64, pool: usize, now: SimTime) -> Option<ScaleAction> {
        if now.since(self.last_action) < self.cooldown {
            return None;
        }
        if utilization > self.high_watermark && pool < self.max_providers {
            let room = (self.max_providers - pool) as u32;
            self.last_action = now;
            return Some(ScaleAction::Grow(self.step.min(room)));
        }
        if utilization < self.low_watermark && pool > self.min_providers {
            let slack = (pool - self.min_providers) as u32;
            self.last_action = now;
            return Some(ScaleAction::Shrink(self.step.min(slack)));
        }
        None
    }
}

/// The elasticity controller node: introspection snapshot in, scale
/// decision out.
pub struct ElasticityControllerService {
    intro: NodeId,
    deploy_agent: NodeId,
    policy: ElasticityPolicy,
    tick_every: SimDuration,
    next_req: u64,
    /// The newest [`DECISION_LOG_CAP`] decisions (post-run inspection for E7).
    decisions: VecDeque<(SimTime, ScaleDecision)>,
}

impl ElasticityControllerService {
    /// A controller polling `intro` and actuating through `deploy_agent`.
    pub fn new(
        intro: NodeId,
        deploy_agent: NodeId,
        policy: ElasticityPolicy,
        tick_every: SimDuration,
    ) -> Self {
        ElasticityControllerService {
            intro,
            deploy_agent,
            policy,
            tick_every,
            next_req: 1,
            decisions: VecDeque::new(),
        }
    }

    /// The newest 256 decisions, oldest first.
    pub fn decisions(&self) -> &VecDeque<(SimTime, ScaleDecision)> {
        &self.decisions
    }

    fn log(&mut self, at: SimTime, d: &ScaleDecision) {
        if self.decisions.len() == DECISION_LOG_CAP {
            self.decisions.pop_front();
        }
        self.decisions.push_back((at, d.clone()));
    }

    fn act_on(&mut self, env: &mut dyn Env, snapshot: &SystemSnapshot) {
        let now = env.now();
        // Providers silent for 3 s are likely gone; exclude them from the
        // signal and from retire candidates.
        let fresh_cutoff = now - SimDuration::from_secs(3);
        let Some(util) = snapshot.mean_utilization(fresh_cutoff) else { return };
        let live: Vec<_> = snapshot
            .providers
            .iter()
            .filter(|(_, p)| p.last_seen >= fresh_cutoff)
            .collect();
        let pool = live.len();
        env.record("elastic.utilization", util);
        env.record("elastic.pool", pool as f64);
        match self.policy.decide(util, pool, now) {
            Some(ScaleAction::Grow(n)) => {
                let d = ScaleDecision::Expand { count: n };
                self.log(now, &d);
                env.incr("elastic.expand", n as u64);
                env.send(self.deploy_agent, adapt_msg(AdaptMsg::Scale(d)));
            }
            Some(ScaleAction::Shrink(n)) => {
                // Retire the emptiest providers: cheapest to drain.
                let mut candidates: Vec<(u64, NodeId)> =
                    live.iter().map(|(id, p)| (p.used, **id)).collect();
                candidates.sort();
                let providers: Vec<NodeId> =
                    candidates.into_iter().take(n as usize).map(|(_, id)| id).collect();
                if providers.is_empty() {
                    return;
                }
                let d = ScaleDecision::Retire { providers };
                self.log(now, &d);
                env.incr("elastic.retire", n as u64);
                env.send(self.deploy_agent, adapt_msg(AdaptMsg::Scale(d)));
            }
            None => {}
        }
    }

    /// A burn-rate alert (queue-depth burn from the SLO engine) bypasses
    /// the utilization poll: expand immediately, still under the policy's
    /// cooldown so alert storms cannot flap the pool.
    fn scale_out_on_alert(&mut self, env: &mut dyn Env) {
        let now = env.now();
        if now.since(self.policy.last_action) < self.policy.cooldown {
            return;
        }
        self.policy.last_action = now;
        let d = ScaleDecision::Expand { count: self.policy.step };
        self.log(now, &d);
        env.incr("elastic.alert_scaleouts", 1);
        env.incr("elastic.expand", self.policy.step as u64);
        env.send(self.deploy_agent, adapt_msg(AdaptMsg::Scale(d)));
    }
}

impl Service for ElasticityControllerService {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        env.set_timer(self.tick_every, TOKEN_ELASTIC_TICK);
    }

    fn on_msg(&mut self, env: &mut dyn Env, _from: NodeId, msg: Msg) {
        let is_alert = matches!(&msg, Msg::Ext(p) if p.downcast_ref::<AlertMsg>().is_some());
        if is_alert {
            if let Some(AlertMsg::Fire { .. }) = into_alert(msg) {
                self.scale_out_on_alert(env);
            }
            return;
        }
        if let Some(IntroMsg::Snapshot { snapshot, .. }) = into_intro(msg) {
            self.act_on(env, &snapshot);
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        if token == TOKEN_ELASTIC_TICK {
            let req = self.next_req;
            self.next_req += 1;
            env.send(self.intro, intro_msg(IntroMsg::QuerySnapshot { req }));
            env.set_timer(self.tick_every, TOKEN_ELASTIC_TICK);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    fn policy() -> ElasticityPolicy {
        ElasticityPolicy {
            high_watermark: 0.75,
            low_watermark: 0.25,
            min_providers: 2,
            max_providers: 10,
            step: 2,
            cooldown: SimDuration::from_secs(20),
            last_action: SimTime::ZERO,
        }
    }

    #[test]
    fn the_decision_log_keeps_the_newest() {
        let mut c = ElasticityControllerService::new(
            NodeId(0),
            NodeId(1),
            policy(),
            SimDuration::from_secs(1),
        );
        for s in 0..=DECISION_LOG_CAP as u64 {
            c.log(t(s), &ScaleDecision::Expand { count: 1 });
        }
        assert_eq!(c.decisions().len(), DECISION_LOG_CAP);
        assert_eq!(c.decisions().front().map(|(at, _)| *at), Some(t(1)), "oldest dropped");
        assert_eq!(c.decisions().back().map(|(at, _)| *at), Some(t(DECISION_LOG_CAP as u64)));
    }

    #[test]
    fn grows_on_high_utilization() {
        let mut p = policy();
        assert_eq!(p.decide(0.9, 4, t(30)), Some(ScaleAction::Grow(2)));
    }

    #[test]
    fn shrinks_on_low_utilization() {
        let mut p = policy();
        assert_eq!(p.decide(0.1, 6, t(30)), Some(ScaleAction::Shrink(2)));
    }

    #[test]
    fn hysteresis_band_is_quiet() {
        let mut p = policy();
        assert_eq!(p.decide(0.5, 4, t(30)), None);
        assert_eq!(p.decide(0.74, 4, t(30)), None);
        assert_eq!(p.decide(0.26, 4, t(30)), None);
    }

    #[test]
    fn cooldown_suppresses_rapid_flapping() {
        let mut p = policy();
        assert!(p.decide(0.9, 4, t(30)).is_some());
        assert_eq!(p.decide(0.9, 4, t(35)), None, "within cooldown");
        assert!(p.decide(0.9, 4, t(51)).is_some(), "after cooldown");
    }

    #[test]
    fn pool_bounds_are_respected() {
        let mut p = policy();
        assert_eq!(p.decide(0.9, 10, t(30)), None, "at max");
        assert_eq!(p.decide(0.9, 9, t(30)), Some(ScaleAction::Grow(1)), "clamped to room");
        let mut p = policy();
        assert_eq!(p.decide(0.1, 2, t(30)), None, "at min");
        assert_eq!(p.decide(0.1, 3, t(60)), Some(ScaleAction::Shrink(1)), "clamped to slack");
    }

    #[test]
    fn adapt_msg_roundtrip() {
        let m = adapt_msg(AdaptMsg::Scale(ScaleDecision::Expand { count: 3 }));
        match into_adapt(m) {
            Some(AdaptMsg::Scale(ScaleDecision::Expand { count })) => assert_eq!(count, 3),
            other => panic!("{other:?}"),
        }
    }
}
