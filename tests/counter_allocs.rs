//! A counter bump allocates nothing once its key is registered: the
//! telemetry registry finds an existing `(name, labels)` series through a
//! borrowed view of the call's arguments, and `Env::incr` / `Env::record`
//! label it with a node id formatted on the stack, on both hosts. On
//! threads a record keeps nothing; only the simulator logs it. A counting
//! `#[global_allocator]` (`tests/common/mod.rs`) sees every byte.

mod common;
use common::{requested_during, SERIAL};

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

use std::sync::{Arc, Mutex};

use sads::blob::rpc::Msg;
use sads::blob::runtime::sim::SimService;
use sads::blob::runtime::threaded::ClusterBuilder;
use sads::blob::services::{Env, Service};
use sads_sim::{NodeConfig, NodeId, Registry, World};

/// Bytes asked for while `f` runs 1 000 times, after `warm` calls to
/// settle whatever a first call sets up. The least of five such windows
/// is returned: an allocation another thread happens to make during one
/// window cannot fail a test, while one that `f` itself makes shows in
/// every window.
fn steady_bytes(warm: usize, mut f: impl FnMut()) -> u64 {
    (0..warm).for_each(|_| f());
    let mut window = || requested_during(|| (0..1000).for_each(|_| f())).1;
    (0..5).map(|_| window()).min().unwrap()
}

/// The simulator's `Env::record` appends a sample to the world's log for its
/// name, whose amortized growth is storage, not a per-call cost: warm it to
/// 10 000 samples (capacity 16 384, room for the 5 000 the windows add).
const SERIES_WARM: usize = 10_000;

#[test]
fn registry_hits_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let reg = Registry::new();
    let labels = [("node", "17"), ("op", "get")];
    let unsorted = [("op", "get"), ("node", "17")];
    assert_eq!(steady_bytes(1, || reg.inc("provider.gets", &labels, 1)), 0);
    assert_eq!(steady_bytes(0, || reg.inc("provider.gets", &unsorted, 1)), 0);
    assert_eq!(steady_bytes(1, || reg.set("provider.fill", &labels, 0.5)), 0);
    assert_eq!(steady_bytes(1, || reg.observe("provider.get_seconds", &[], 0.001)), 0);
    // An exemplar slot allocates on its bucket's first exemplar only.
    let h = reg.histogram("gateway.op_seconds", &labels);
    assert_eq!(steady_bytes(1, || h.observe_traced(0.002, 0xabc)), 0);
    // The borrowed lookup finds the series the first call made, whatever
    // the label order: one series, every bump counted.
    let snap = reg.snapshot();
    assert_eq!(snap.family("provider.gets").count(), 1);
    assert_eq!(snap.counter("provider.gets", &labels), Some(1 + 5000 + 5000));
    // A miss still registers a new series, and allocates to do it.
    let (_, bytes) = requested_during(|| reg.inc("provider.puts", &labels, 1));
    assert!(bytes > 0);
    let puts = reg.snapshot().counter("provider.puts", &[("op", "get"), ("node", "17")]);
    assert_eq!(puts, Some(1));
}

/// A service that, when started, reports what its `Env`'s counter calls and
/// (by its second field) series calls allocate: `(incr bytes, record bytes)`.
struct Probe(Arc<Mutex<Option<(u64, u64)>>>, fn(&mut dyn Env) -> u64);

impl Service for Probe {
    fn on_start(&mut self, env: &mut dyn Env) {
        let incr = steady_bytes(1, || env.incr("probe.bumps", 1));
        *self.0.lock().unwrap() = Some((incr, self.1(env)));
    }
    fn on_msg(&mut self, _env: &mut dyn Env, _from: NodeId, _msg: Msg) {}
}

#[test]
fn env_counters_allocate_nothing_in_the_simulator() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut world = World::with_seed(5);
    let seen = Arc::new(Mutex::new(None));
    let record = |env: &mut dyn Env| steady_bytes(SERIES_WARM, || env.record("probe.level", 1.0));
    let probe = Box::new(SimService::new(Box::new(Probe(Arc::clone(&seen), record))));
    let id = world.add_node(probe, NodeConfig::default());
    world.run_to_quiescence(1_000);
    assert_eq!(*seen.lock().unwrap(), Some((0, 0)), "(incr, record) bytes per 1 000 calls");
    assert_registered(world.telemetry(), id, "probe.level");
    assert_eq!(world.metrics().series("probe.level").len(), SERIES_WARM + 5000);
}

/// Every call the probe made reached the registry, under its node label.
fn assert_registered(reg: &Registry, id: NodeId, level: &str) {
    let (snap, node) = (reg.snapshot(), id.0.to_string());
    assert_eq!(snap.counter("probe.bumps", &[("node", &node)]), Some(1 + 5000));
    assert_eq!(snap.gauge(level, &[("node", &node)]), Some(1.0));
}

#[test]
fn env_counters_allocate_nothing_on_threads() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cluster = ClusterBuilder::new().data_providers(1).meta_providers(1).start();
    let seen = Arc::new(Mutex::new(None));
    // 10^5 records in five windows, each on a new name after one warm
    // call: a log of one window's records would ask for ≥ 0.3 MiB.
    let record = |env: &mut dyn Env| {
        let mut window = |name: &str| {
            env.record(name, 1.0);
            requested_during(|| (0..20_000).for_each(|_| env.record(name, 1.0))).1
        };
        (0..5).map(|i| window(&format!("probe.level{i}"))).min().unwrap()
    };
    // `add_service` runs `on_start` on this thread before it returns.
    let id = cluster.add_service(Box::new(Probe(Arc::clone(&seen), record)));
    assert_eq!(*seen.lock().unwrap(), Some((0, 0)), "(incr, record) bytes, least window");
    assert_registered(cluster.telemetry(), id, "probe.level4");
    cluster.shutdown();
}
