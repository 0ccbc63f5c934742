//! The Security Violation Detection Engine as a running node: polls the
//! User Activity History off the monitoring storage servers, scans it
//! against the compiled policy set every scan period, and drives the
//! Policy Enforcement component. This closes the paper's self-protection
//! loop: instrumentation → monitoring → introspection → detection →
//! enforcement → BlobSeer.

use std::collections::HashMap;

use sads_blob::model::ClientId;
use sads_blob::rpc::Msg;
use sads_blob::services::{Env, Service};
use sads_introspect::{into_alert, AlertMsg};
use sads_monitor::{mon_msg, MonMsg};
use sads_sim::{NodeId, SimDuration, SimTime};

use crate::enforce::Enforcer;
use crate::history::ActivityHistory;
use crate::lang::PolicySet;
use crate::policy::{scan, Violation};
use crate::trust::{TrustConfig, TrustManager};

/// Timer token: poll + scan cycle.
pub const TOKEN_SEC_SCAN: u64 = u64::MAX - 30;

/// One recorded detection (for the paper's detection-delay experiment).
#[derive(Clone, Debug, PartialEq)]
pub struct Detection {
    /// When the engine detected the violation.
    pub at: SimTime,
    /// The offender.
    pub client: ClientId,
    /// The violated policy.
    pub policy: String,
}

/// Engine tuning.
#[derive(Clone, Debug)]
pub struct SecurityConfig {
    /// Poll + scan period.
    pub scan_every: SimDuration,
    /// Trust dynamics.
    pub trust: TrustConfig,
}

impl Default for SecurityConfig {
    fn default() -> Self {
        SecurityConfig { scan_every: SimDuration::from_secs(5), trust: TrustConfig::default() }
    }
}

/// The Policy Management node: detection engine + enforcement + trust.
pub struct SecurityEngineService {
    storage: Vec<NodeId>,
    set: PolicySet,
    history: ActivityHistory,
    trust: TrustManager,
    enforcer: Enforcer,
    cursors: HashMap<NodeId, u64>,
    next_req: u64,
    cfg: SecurityConfig,
    detections: Vec<Detection>,
}

impl SecurityEngineService {
    /// Build the engine.
    ///
    /// * `storage` — monitoring storage servers to poll,
    /// * `block_targets` — nodes notified on block (version manager +
    ///   data providers),
    /// * `throttle_targets` — nodes notified on throttle (data providers),
    /// * `set` — the compiled policy set.
    pub fn new(
        storage: Vec<NodeId>,
        block_targets: Vec<NodeId>,
        throttle_targets: Vec<NodeId>,
        set: PolicySet,
        cfg: SecurityConfig,
    ) -> Self {
        assert!(!storage.is_empty(), "at least one storage server");
        // Retain at least twice the longest policy window, with a 60 s
        // floor, so windowed metrics never starve.
        let retention = (set.max_window() * 2).max(SimDuration::from_secs(60));
        SecurityEngineService {
            storage,
            set,
            history: ActivityHistory::new(retention),
            trust: TrustManager::new(cfg.trust),
            enforcer: Enforcer::new(block_targets, throttle_targets),
            cursors: HashMap::new(),
            next_req: 1,
            cfg,
            detections: Vec::new(),
        }
    }

    /// All detections so far (post-run inspection for E4).
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// The enforcement state.
    pub fn enforcer(&self) -> &Enforcer {
        &self.enforcer
    }

    /// The trust ledger.
    pub fn trust(&self) -> &TrustManager {
        &self.trust
    }

    /// The activity history.
    pub fn history(&self) -> &ActivityHistory {
        &self.history
    }

    fn poll(&mut self, env: &mut dyn Env) {
        for s in self.storage.clone() {
            let req = self.next_req;
            self.next_req += 1;
            let after_seq = self.cursors.get(&s).copied().unwrap_or(0);
            env.send(s, mon_msg(MonMsg::QueryActivity { req, after_seq }));
        }
    }

    fn scan_and_enforce(&mut self, env: &mut dyn Env) {
        let now = env.now();
        // Evaluate windows at the history's own clock, not the engine's:
        // the monitoring pipeline (instrumentation flush + filter flush +
        // burst-cache drain + poll period) lags wall time by several
        // seconds — under a heavy attack it can lag by minutes, because
        // the attack itself congests the providers' outbound links the
        // probe batches share. Judging a 10 s window against wall time
        // would leave it half-empty and blind the detectors; pruning
        // against wall time would silently discard the still-unjudged
        // tail. Both follow the history clock.
        let eval_at = self.history.last_at().min(now);
        self.history.prune(eval_at);
        let violations: Vec<Violation> = scan(&self.set, &self.history, &self.trust, eval_at)
            .into_iter()
            .filter(|v| !self.enforcer.is_sanctioned(v.client))
            .collect();
        for v in violations {
            let client = v.client;
            let policy = v.policy.clone();
            if self.enforcer.apply(env, v, &mut self.trust).is_some() {
                self.detections.push(Detection { at: now, client, policy });
                env.incr("sec.detections", 1);
                env.record("sec.detection_time_s", now.as_secs_f64());
            }
        }
        let released = self.enforcer.expire_due(env, now);
        for _ in released {
            env.incr("sec.releases", 1);
        }
    }
}

impl Service for SecurityEngineService {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        env.set_timer(self.cfg.scan_every, TOKEN_SEC_SCAN);
    }

    fn on_msg(&mut self, env: &mut dyn Env, from: NodeId, msg: Msg) {
        // A burn-rate alert (read-rate spike, for the DoS detectors) cuts
        // the scan latency: scan what we have now and poll immediately
        // instead of waiting out the rest of the period.
        let is_alert = matches!(&msg, Msg::Ext(p) if p.downcast_ref::<AlertMsg>().is_some());
        if is_alert {
            if let Some(AlertMsg::Fire { .. }) = into_alert(msg) {
                env.incr("sec.alert_scans", 1);
                self.scan_and_enforce(env);
                self.poll(env);
            }
            return;
        }
        if let Some(MonMsg::ActivityBatch { records, last_seq, .. }) =
            sads_monitor::into_mon(msg)
        {
            self.history.ingest(&records);
            self.cursors.insert(from, last_seq);
            env.incr("sec.activity_ingested", records.len() as u64);
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        if token == TOKEN_SEC_SCAN {
            // Scan on what we have, then ask for more: the pipeline delay
            // (instr flush + mon flush + cache drain + this period) is the
            // detection latency the paper measures.
            self.scan_and_enforce(env);
            self.poll(env);
            env.set_timer(self.cfg.scan_every, TOKEN_SEC_SCAN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sads_monitor::{ActivityKind, ActivityRecord};

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

    fn batch(client: u64, from_s: u64, per_sec: u64, secs: u64) -> Vec<ActivityRecord> {
        let mut out = Vec::new();
        for s in from_s..from_s + secs {
            for i in 0..per_sec {
                out.push(ActivityRecord {
                    at: SimTime(s * 1_000_000_000 + i),
                    client: ClientId(client),
                    kind: ActivityKind::ChunkReadMiss,
                    blob: None,
                    provider: None,
                    chunk: None,
                    bytes: 0,
                });
            }
        }
        out
    }

    fn engine() -> SecurityEngineService {
        let set = PolicySet::parse(
            "policy dos { when rate(requests, window=10s) > 50 then block for 120s severity high }",
        )
        .unwrap();
        SecurityEngineService::new(
            vec![NodeId(10)],
            vec![NodeId(1), NodeId(2)],
            vec![NodeId(2)],
            set,
            SecurityConfig::default(),
        )
    }

    #[test]
    fn full_detect_and_block_cycle() {
        let mut env = TestEnv::new();
        let mut e = engine();
        e.on_start(&mut env);
        // Ingest a flood via a fake ActivityBatch from storage node 10.
        e.on_msg(
            &mut env,
            NodeId(10),
            mon_msg(MonMsg::ActivityBatch { req: 1, records: batch(7, 0, 100, 10), last_seq: 1000 }),
        );
        env.now = SimTime(10_000_000_000);
        e.on_timer(&mut env, TOKEN_SEC_SCAN);
        assert_eq!(e.detections().len(), 1);
        assert_eq!(e.detections()[0].client, ClientId(7));
        assert!(e.enforcer().is_sanctioned(ClientId(7)));
        // Blocks went to both targets, and a poll followed.
        let blocks: Vec<NodeId> = env
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::BlockClient { .. }))
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(blocks, vec![NodeId(1), NodeId(2)]);
        let polls = env
            .sent
            .iter()
            .filter(|(_, m)| matches!(sads_monitor::as_mon(m), Some(MonMsg::QueryActivity { .. })))
            .count();
        assert_eq!(polls, 1);
        // Cursor advanced: next poll asks after_seq=1000.
        e.on_timer(&mut env, TOKEN_SEC_SCAN);
        let last_poll = env
            .sent
            .iter()
            .rev()
            .find_map(|(_, m)| match sads_monitor::as_mon(m) {
                Some(MonMsg::QueryActivity { after_seq, .. }) => Some(*after_seq),
                _ => None,
            })
            .unwrap();
        assert_eq!(last_poll, 1000);
    }

    #[test]
    fn rescan_does_not_duplicate_sanctions() {
        let mut env = TestEnv::new();
        let mut e = engine();
        e.on_start(&mut env);
        e.on_msg(
            &mut env,
            NodeId(10),
            mon_msg(MonMsg::ActivityBatch { req: 1, records: batch(7, 0, 100, 10), last_seq: 1 }),
        );
        env.now = SimTime(10_000_000_000);
        e.on_timer(&mut env, TOKEN_SEC_SCAN);
        env.now = SimTime(11_000_000_000);
        e.on_timer(&mut env, TOKEN_SEC_SCAN);
        assert_eq!(e.detections().len(), 1, "still sanctioned ⇒ no re-detection");
    }

    #[test]
    fn sanction_expiry_releases_client() {
        let mut env = TestEnv::new();
        let mut e = engine();
        e.on_start(&mut env);
        e.on_msg(
            &mut env,
            NodeId(10),
            mon_msg(MonMsg::ActivityBatch { req: 1, records: batch(7, 0, 100, 10), last_seq: 1 }),
        );
        env.now = SimTime(10_000_000_000);
        e.on_timer(&mut env, TOKEN_SEC_SCAN);
        assert!(e.enforcer().is_sanctioned(ClientId(7)));
        // Base 120 s scaled by distrust (≤ 2×): well past 250 s + history
        // pruned ⇒ released on a later scan.
        env.now = SimTime(400_000_000_000);
        e.on_timer(&mut env, TOKEN_SEC_SCAN);
        assert!(!e.enforcer().is_sanctioned(ClientId(7)));
        let unblocks = env
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::UnblockClient { .. }))
            .count();
        assert_eq!(unblocks, 2);
    }
}
