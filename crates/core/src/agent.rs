//! The deployment agent: the "cloud API" that actuates the elasticity
//! controller's decisions. Only the hosting runtime can create or destroy
//! nodes, so the controller sends [`AdaptMsg::Scale`] here and the agent
//! acts through [`Env::spawn`] and [`Env::power_off`], which both runtimes
//! implement.
//!
//! Expansion starts fresh data providers from the deployment's
//! [`Providers`] book (they register with the provider manager on
//! start). Retirement first marks the provider draining (no new
//! allocations), waits a grace period for the replication manager to
//! re-protect its chunks, then deregisters and powers the node off.

use std::collections::HashMap;

use sads_adaptive::{into_adapt, AdaptMsg, ScaleDecision};
use sads_blob::rpc::Msg;
use sads_blob::runtime::Providers;
use sads_blob::services::{Env, Service, ServiceConfig};
use sads_sim::{NodeId, SimDuration};

/// How long a retiring provider keeps serving before power-off.
pub const DRAIN_GRACE: SimDuration = SimDuration::from_secs(10);

/// The deployment agent service.
pub struct DeployAgent {
    providers: Providers,
    svc_cfg: ServiceConfig,
    spawned: Vec<NodeId>,
    retiring: HashMap<u64, NodeId>,
    next_token: u64,
    retired: u64,
}

impl DeployAgent {
    /// An agent that starts providers from `providers`, wired by `svc_cfg`.
    pub(crate) fn new(providers: Providers, svc_cfg: ServiceConfig) -> Self {
        DeployAgent {
            providers,
            svc_cfg,
            spawned: Vec::new(),
            retiring: HashMap::new(),
            next_token: 1,
            retired: 0,
        }
    }

    /// Providers this agent started (post-run inspection).
    pub fn spawned(&self) -> &[NodeId] {
        &self.spawned
    }

    /// Providers this agent retired.
    pub fn retired(&self) -> u64 {
        self.retired
    }
}

impl Service for DeployAgent {
    fn name(&self) -> &'static str {
        "agent"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_msg(&mut self, env: &mut dyn Env, _from: NodeId, msg: Msg) {
        let Some(AdaptMsg::Scale(decision)) = into_adapt(msg) else { return };
        match decision {
            ScaleDecision::Expand { count } => {
                for _ in 0..count {
                    let provider = self.providers.start(self.svc_cfg.clone(), |s| env.spawn(s));
                    self.spawned.push(provider);
                    env.incr("agent.spawned", 1);
                }
            }
            ScaleDecision::Retire { providers } => {
                for provider in providers {
                    // Stop new allocations immediately, power off after
                    // the drain grace period.
                    let pman = self.providers.pman();
                    env.send(pman, Msg::SetDraining { provider, draining: true });
                    let token = self.next_token;
                    self.next_token += 1;
                    self.retiring.insert(token, provider);
                    env.set_timer(DRAIN_GRACE, token);
                }
            }
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        if let Some(provider) = self.retiring.remove(&token) {
            env.send(self.providers.pman(), Msg::Deregister { provider });
            env.power_off(provider);
            self.retired += 1;
            env.incr("agent.retired", 1);
        }
    }
}
