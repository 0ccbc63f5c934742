//! The monitoring service — the paper's monitoring layer (implemented
//! with MonALISA in the original system): gathers instrumentation batches
//! from every BlobSeer node, runs the data-filter stack over them, and
//! periodically ships the aggregates to the distributed storage servers.

use sads_blob::rpc::Msg;
use sads_blob::services::{Env, Service};
use sads_sim::{NodeId, SimDuration, SimTime};

use crate::filter::{DataFilter, FilterOutput};
use crate::record::{mon_msg, ActivityRecord, MonMsg, MonRecord};

/// Timer token: monitoring-service flush.
pub const TOKEN_MON_FLUSH: u64 = u64::MAX - 10;

/// A monitoring service node.
pub struct MonitoringService {
    storage: Vec<NodeId>,
    filters: Vec<Box<dyn DataFilter>>,
    flush_every: SimDuration,
    last_flush: SimTime,
    events_seen: u64,
}

impl MonitoringService {
    /// A monitoring service flushing to the given storage servers every
    /// `flush_every`, with the given filter stack.
    pub fn new(
        storage: Vec<NodeId>,
        filters: Vec<Box<dyn DataFilter>>,
        flush_every: SimDuration,
    ) -> Self {
        assert!(!storage.is_empty(), "at least one storage server");
        MonitoringService {
            storage,
            filters,
            flush_every,
            last_flush: SimTime::ZERO,
            events_seen: 0,
        }
    }

    /// Default stack, 1 s flush.
    pub fn with_defaults(storage: Vec<NodeId>) -> Self {
        Self::new(storage, crate::filter::default_filters(), SimDuration::from_secs(1))
    }

    /// Raw instrumentation events ingested so far (the paper's "number of
    /// generated monitoring parameters" in experiment E1).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    fn flush(&mut self, env: &mut dyn Env) {
        let now = env.now();
        let window = now.since(self.last_flush).as_secs_f64();
        self.last_flush = now;
        let mut out = FilterOutput::default();
        for f in &mut self.filters {
            out.merge(f.flush(now, window));
        }
        if out.is_empty() {
            return;
        }
        // Partition: parameters by key hash, activity by client, so each
        // client's history is colocated on one storage server.
        let n = self.storage.len();
        let mut params: Vec<Vec<MonRecord>> = vec![Vec::new(); n];
        let mut activity: Vec<Vec<ActivityRecord>> = vec![Vec::new(); n];
        for p in out.params {
            let h = (p.key.origin.0 as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(p.key.metric.name().len() as u64);
            params[(h % n as u64) as usize].push(p);
        }
        for a in out.activity {
            activity[(a.client.0 % n as u64) as usize].push(a);
        }
        for i in 0..n {
            if params[i].is_empty() && activity[i].is_empty() {
                continue;
            }
            env.send(
                self.storage[i],
                mon_msg(MonMsg::StoreBatch {
                    params: std::mem::take(&mut params[i]),
                    activity: std::mem::take(&mut activity[i]),
                }),
            );
        }
    }
}

impl Service for MonitoringService {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        self.last_flush = env.now();
        env.set_timer(self.flush_every, TOKEN_MON_FLUSH);
    }

    fn on_msg(&mut self, env: &mut dyn Env, _from: NodeId, msg: Msg) {
        if let Msg::Probe { origin, at, events } = msg {
            // Records keep their source timestamp: a batch delayed by
            // network backlog must not masquerade as fresh activity.
            let at = at.min(env.now());
            self.events_seen += events.len() as u64;
            env.incr("mon.events", events.len() as u64);
            for ev in &events {
                for f in &mut self.filters {
                    f.ingest(origin, ev, at);
                }
            }
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        if token == TOKEN_MON_FLUSH {
            self.flush(env);
            env.set_timer(self.flush_every, TOKEN_MON_FLUSH);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{as_mon, ActivityKind};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sads_blob::model::{BlobId, ChunkKey, ClientId, VersionId};
    use sads_blob::probe::ProbeEvent;

    /// Minimal Env capturing sends (pure unit-test harness).
    struct TestEnv {
        now: SimTime,
        sent: Vec<(NodeId, Msg)>,
        timers: Vec<(SimDuration, u64)>,
        rng: SmallRng,
        reg: sads_sim::Registry,
    }

    impl TestEnv {
        fn new() -> Self {
            TestEnv {
                now: SimTime::ZERO,
                sent: vec![],
                timers: vec![],
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
            NodeId(99)
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn send(&mut self, to: NodeId, msg: Msg) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, delay: SimDuration, token: u64) {
            self.timers.push((delay, token));
        }
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

    fn probe(client: u64, provider: u32) -> Msg {
        Msg::Probe {
            origin: NodeId(provider),
            at: SimTime::ZERO,
            events: vec![ProbeEvent::ChunkWritten {
                provider: NodeId(provider),
                client: ClientId(client),
                key: ChunkKey { blob: BlobId(1), version: VersionId(1), page: 0 },
                bytes: 1_000_000,
            }],
        }
    }

    #[test]
    fn probes_flow_through_filters_to_storage() {
        let mut env = TestEnv::new();
        let mut svc = MonitoringService::with_defaults(vec![NodeId(50), NodeId(51)]);
        svc.on_start(&mut env);
        svc.on_msg(&mut env, NodeId(1), probe(4, 1));
        svc.on_msg(&mut env, NodeId(1), probe(5, 1));
        assert_eq!(svc.events_seen(), 2);
        env.now = SimTime(1_000_000_000);
        svc.on_timer(&mut env, TOKEN_MON_FLUSH);
        // Two clients → activity partitioned by client id over 2 servers:
        // client 4 → server 0, client 5 → server 1.
        let batches: Vec<&MonMsg> = env.sent.iter().filter_map(|(_, m)| as_mon(m)).collect();
        assert_eq!(batches.len(), 2);
        let mut clients = vec![];
        for b in batches {
            if let MonMsg::StoreBatch { activity, .. } = b {
                for a in activity {
                    assert_eq!(a.kind, ActivityKind::ChunkWrite);
                    clients.push(a.client.0);
                }
            }
        }
        clients.sort();
        assert_eq!(clients, vec![4, 5]);
        // Flush re-arms.
        assert_eq!(env.timers.len(), 2);
    }

    #[test]
    fn empty_windows_send_nothing() {
        let mut env = TestEnv::new();
        let mut svc = MonitoringService::with_defaults(vec![NodeId(50)]);
        svc.on_start(&mut env);
        env.now = SimTime(1_000_000_000);
        svc.on_timer(&mut env, TOKEN_MON_FLUSH);
        assert!(env.sent.is_empty());
    }
}
