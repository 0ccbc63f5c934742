//! Distributed monitoring storage servers: hold the monitored-parameter
//! log and the User Activity History behind a write-behind burst cache,
//! and answer the cursor-based pull queries of the introspection layer and
//! the security engine.

use sads_blob::rpc::Msg;
use sads_blob::services::{Env, Service};
use sads_sim::{NodeId, SimDuration, SimTime};

use crate::cache::BurstCache;
use crate::record::{mon_msg, ActivityRecord, MonMsg, MonRecord, ParamKey};

/// Timer token: burst-cache drain.
pub const TOKEN_CACHE_DRAIN: u64 = u64::MAX - 11;

/// One record in the cache (either table).
#[derive(Debug, Clone, Copy)]
pub enum StoreItem {
    /// A monitored parameter.
    Param(MonRecord),
    /// A user-activity entry.
    Act(ActivityRecord),
}

/// The in-memory store behind one storage server: an append-only,
/// sequence-numbered log of parameters and activity — the "flexible
/// storage schema for the monitored parameters" plus the User Activity
/// History. Sequence numbers give pull consumers an exactly-once cursor
/// that is immune to burst-cache drain delays.
#[derive(Debug, Default)]
pub struct MonStore {
    seq: u64,
    params: Vec<(u64, MonRecord)>,
    activity: Vec<(u64, ActivityRecord)>,
}

impl MonStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one record, assigning it the next sequence number.
    pub fn apply(&mut self, item: StoreItem) {
        self.seq += 1;
        match item {
            StoreItem::Param(p) => self.params.push((self.seq, p)),
            StoreItem::Act(a) => self.activity.push((self.seq, a)),
        }
    }

    /// Highest sequence number assigned so far.
    pub fn last_seq(&self) -> u64 {
        self.seq
    }

    /// The time series of one parameter (viz/offline analysis).
    pub fn series(&self, key: &ParamKey) -> Vec<(SimTime, f64)> {
        self.params
            .iter()
            .filter(|(_, p)| p.key == *key)
            .map(|(_, p)| (p.at, p.value))
            .collect()
    }

    /// All distinct parameter keys.
    pub fn param_keys(&self) -> Vec<ParamKey> {
        let mut keys: Vec<ParamKey> = self.params.iter().map(|(_, p)| p.key).collect();
        keys.sort_by_key(|k| (k.origin, k.blob.map(|b| b.0), k.metric.name()));
        keys.dedup();
        keys
    }

    /// Activity records with sequence number greater than `after_seq`.
    pub fn activity_after(&self, after_seq: u64) -> (Vec<ActivityRecord>, u64) {
        let start = self.activity.partition_point(|(s, _)| *s <= after_seq);
        let recs: Vec<ActivityRecord> = self.activity[start..].iter().map(|(_, a)| *a).collect();
        (recs, self.seq)
    }

    /// Parameter records with sequence number greater than `after_seq`.
    pub fn params_after(&self, after_seq: u64) -> (Vec<MonRecord>, u64) {
        let start = self.params.partition_point(|(s, _)| *s <= after_seq);
        let recs: Vec<MonRecord> = self.params[start..].iter().map(|(_, p)| *p).collect();
        (recs, self.seq)
    }

    /// Every activity record, in store order (viz/offline analysis).
    pub fn activity(&self) -> impl Iterator<Item = &ActivityRecord> {
        self.activity.iter().map(|(_, a)| a)
    }

    /// Every parameter record, in store order.
    pub fn params(&self) -> impl Iterator<Item = &MonRecord> {
        self.params.iter().map(|(_, p)| p)
    }

    /// Total records stored.
    pub fn len(&self) -> usize {
        self.params.len() + self.activity.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Storage-server tuning.
#[derive(Clone, Copy, Debug)]
pub struct StorageConfig {
    /// Burst-cache capacity in records (`0` disables buffering — the
    /// ablation configuration).
    pub cache_capacity: usize,
    /// Store ingest rate the cache drains at (records/second).
    pub drain_rate: f64,
    /// Drain period.
    pub drain_every: SimDuration,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            cache_capacity: 100_000,
            drain_rate: 20_000.0,
            drain_every: SimDuration::from_millis(200),
        }
    }
}

/// A monitoring storage server node.
pub struct StorageServerService {
    cache: BurstCache<StoreItem>,
    store: MonStore,
    cfg: StorageConfig,
}

impl StorageServerService {
    /// A storage server with the given tuning.
    pub fn new(cfg: StorageConfig) -> Self {
        StorageServerService {
            cache: BurstCache::new(cfg.cache_capacity, cfg.drain_rate, SimTime::ZERO),
            store: MonStore::new(),
            cfg,
        }
    }

    /// The store (post-run inspection / viz).
    pub fn store(&self) -> &MonStore {
        &self.store
    }

    /// Cache statistics: `(accepted, dropped, drained)`.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (self.cache.accepted(), self.cache.dropped(), self.cache.drained())
    }

    fn drain(&mut self, env: &mut dyn Env) {
        let items = self.cache.drain(env.now());
        if !items.is_empty() {
            env.incr("monstore.drained", items.len() as u64);
        }
        for item in items {
            self.store.apply(item);
        }
    }
}

impl Service for StorageServerService {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        self.cache = BurstCache::new(self.cfg.cache_capacity, self.cfg.drain_rate, env.now());
        env.set_timer(self.cfg.drain_every, TOKEN_CACHE_DRAIN);
    }

    fn on_msg(&mut self, env: &mut dyn Env, from: NodeId, msg: Msg) {
        let Some(mon) = crate::record::into_mon(msg) else { return };
        match mon {
            MonMsg::StoreBatch { params, activity } => {
                let offered = params.len() + activity.len();
                let mut accepted = 0;
                accepted += self.cache.offer_all(params.into_iter().map(StoreItem::Param));
                accepted += self.cache.offer_all(activity.into_iter().map(StoreItem::Act));
                env.incr("monstore.records", accepted as u64);
                if accepted < offered {
                    env.incr("monstore.dropped", (offered - accepted) as u64);
                }
            }
            MonMsg::QueryActivity { req, after_seq } => {
                let (records, last_seq) = self.store.activity_after(after_seq);
                env.send(from, mon_msg(MonMsg::ActivityBatch { req, records, last_seq }));
            }
            MonMsg::QueryParams { req, after_seq } => {
                let (records, last_seq) = self.store.params_after(after_seq);
                env.send(from, mon_msg(MonMsg::ParamBatch { req, records, last_seq }));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        if token == TOKEN_CACHE_DRAIN {
            self.drain(env);
            env.set_timer(self.cfg.drain_every, TOKEN_CACHE_DRAIN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ActivityKind, MetricId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sads_blob::model::ClientId;

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
            NodeId(1)
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

    fn act(at_s: u64, client: u64) -> ActivityRecord {
        ActivityRecord {
            at: SimTime(at_s * 1_000_000_000),
            client: ClientId(client),
            kind: ActivityKind::ChunkWrite,
            blob: None,
            provider: None,
            chunk: None,
            bytes: 1,
        }
    }

    fn param(at_s: u64, v: f64) -> MonRecord {
        MonRecord {
            at: SimTime(at_s * 1_000_000_000),
            key: ParamKey { origin: NodeId(2), metric: MetricId::Cpu, blob: None },
            value: v,
        }
    }

    #[test]
    fn batch_drain_query_cycle_with_cursor() {
        let mut env = TestEnv::new();
        let mut s = StorageServerService::new(StorageConfig::default());
        s.on_start(&mut env);
        s.on_msg(
            &mut env,
            NodeId(9),
            mon_msg(MonMsg::StoreBatch {
                params: vec![param(1, 0.5)],
                activity: vec![act(1, 7), act(2, 7)],
            }),
        );
        assert!(s.store().is_empty(), "records sit in the cache until drained");
        env.now = SimTime(1_000_000_000);
        s.on_timer(&mut env, TOKEN_CACHE_DRAIN);
        assert_eq!(s.store().len(), 3);
        // First pull from cursor 0 gets both activity records.
        s.on_msg(&mut env, NodeId(9), mon_msg(MonMsg::QueryActivity { req: 1, after_seq: 0 }));
        let cursor = match crate::record::as_mon(&env.sent.last().unwrap().1) {
            Some(MonMsg::ActivityBatch { records, last_seq, .. }) => {
                assert_eq!(records.len(), 2);
                *last_seq
            }
            other => panic!("bad reply {other:?}"),
        };
        // Second pull from the returned cursor gets nothing new.
        s.on_msg(
            &mut env,
            NodeId(9),
            mon_msg(MonMsg::QueryActivity { req: 2, after_seq: cursor }),
        );
        match crate::record::as_mon(&env.sent.last().unwrap().1) {
            Some(MonMsg::ActivityBatch { records, .. }) => assert!(records.is_empty()),
            other => panic!("bad reply {other:?}"),
        }
    }

    #[test]
    fn param_series_and_cursor_pull() {
        let mut store = MonStore::new();
        store.apply(StoreItem::Param(param(1, 0.1)));
        store.apply(StoreItem::Act(act(1, 7)));
        store.apply(StoreItem::Param(param(2, 0.2)));
        let key = ParamKey { origin: NodeId(2), metric: MetricId::Cpu, blob: None };
        assert_eq!(store.series(&key).len(), 2);
        assert_eq!(store.param_keys().len(), 1);
        let (recs, last) = store.params_after(0);
        assert_eq!(recs.len(), 2);
        assert_eq!(last, 3);
        let (recs, _) = store.params_after(1);
        assert_eq!(recs.len(), 1, "cursor skips already-consumed records");
        let (acts, _) = store.activity_after(0);
        assert_eq!(acts.len(), 1);
    }

    #[test]
    fn overflow_is_counted_not_stored() {
        let mut env = TestEnv::new();
        let cfg = StorageConfig { cache_capacity: 1, ..Default::default() };
        let mut s = StorageServerService::new(cfg);
        s.on_start(&mut env);
        s.on_msg(
            &mut env,
            NodeId(9),
            mon_msg(MonMsg::StoreBatch {
                params: vec![],
                activity: vec![act(1, 1), act(1, 2), act(1, 3)],
            }),
        );
        let (accepted, dropped, _) = s.cache_stats();
        assert_eq!(accepted, 1);
        assert_eq!(dropped, 2);
    }
}
