//! Lifecycle tests for the sharded work-stealing executor behind the
//! threaded runtime: shutdown with mail still queued, panic isolation
//! (a poisoned service must not wedge its shard), address-preserving
//! service restart, and callers that run the executor while they wait.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use sads::blob::pmanager::ProviderLoad;
use sads::blob::rpc::Msg;
use sads::blob::runtime::threaded::{Cluster, ClusterBuilder, CLIENT_GONE};
use sads::blob::services::{DataProviderService, Env, Service, VersionManagerService};
use sads::blob::{BlobError, BlobSpec, ClientConfig, ClientId};
use sads_sim::{NodeId, SimDuration};

fn ping() -> Msg {
    Msg::Heartbeat { load: ProviderLoad { used: 0, items: 0, recent_ops: 0, fill: 0.0 } }
}

/// Counts every message it receives into the cluster's registry.
struct CounterService;

impl Service for CounterService {
    fn name(&self) -> &'static str {
        "counter"
    }
    fn on_msg(&mut self, env: &mut dyn Env, _from: NodeId, _msg: Msg) {
        env.incr("probe.pings", 1);
    }
}

/// Burns wall-clock time on every message — used to build a mailbox
/// backlog that shutdown must abandon rather than drain.
struct SlowService;

impl Service for SlowService {
    fn name(&self) -> &'static str {
        "slow"
    }
    fn on_msg(&mut self, _env: &mut dyn Env, _from: NodeId, _msg: Msg) {
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Panics on the first message it receives.
struct PanicService;

impl Service for PanicService {
    fn name(&self) -> &'static str {
        "grenade"
    }
    fn on_msg(&mut self, _env: &mut dyn Env, _from: NodeId, _msg: Msg) {
        panic!("service poisoned on purpose (executor isolation test)");
    }
}

/// Poll the cluster's `counter` until it reaches `want` or the deadline
/// passes; returns its last value.
fn wait_counter(cluster: &Cluster, counter: &str, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let n = cluster.telemetry().counter_total(counter);
        if n >= want || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Shutdown must return promptly even with deep per-cell backlogs (the
/// queued mail is dropped, not drained) and must not strand blocked
/// client callers: their in-flight ops fail instead of hanging forever.
#[test]
fn shutdown_abandons_queued_mail_and_releases_clients() {
    let mut cluster = ClusterBuilder::new()
        .data_providers(4)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .executor_shards(2)
        .start();

    // 8 slow cells × 25 queued messages ≈ 4 s of handler work if it were
    // all drained; shutdown must not wait for that.
    let slow: Vec<NodeId> = (0..8).map(|_| cluster.add_service(Box::new(SlowService))).collect();
    for &node in &slow {
        for _ in 0..25 {
            cluster.send(node, ping());
        }
    }

    // Clients hammering the data path in parallel; after shutdown each
    // op must fail fast rather than block on a dead reply channel.
    let mut writers = Vec::new();
    for t in 0..4u64 {
        let h = cluster.client(ClientId(100 + t));
        writers.push(std::thread::spawn(move || {
            let blob = match h.create(BlobSpec { page_size: 64 * 1024, replication: 1 }) {
                Ok(b) => b,
                Err(_) => return 0u32, // shut down before we even started
            };
            let body = Bytes::from(vec![t as u8; 64 * 1024]);
            let mut ok = 0u32;
            loop {
                match h.append(blob, body.clone()) {
                    Ok(_) => ok += 1,
                    Err(_) => return ok,
                }
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    cluster.shutdown();
    let shutdown_took = t0.elapsed();
    // One in-turn slow cell may finish its current batch (≤ 0.5 s per
    // shard); a full drain would take ≈ 4 s.
    assert!(
        shutdown_took < Duration::from_secs(3),
        "shutdown drained the backlog instead of dropping it ({shutdown_took:?})"
    );
    for w in writers {
        // Threads must terminate (join would hang the test otherwise) —
        // every writer saw a clean error once the executor went away.
        w.join().expect("writer thread panicked");
    }
}

/// A panicking service must be the only casualty: the worker survives,
/// sibling cells on the same shard keep serving, the panic is counted,
/// and the poisoned address can be restarted.
#[test]
fn service_panic_is_isolated_to_its_cell() {
    let mut cluster = ClusterBuilder::new()
        .data_providers(2)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .executor_shards(1) // everything shares one shard on purpose
        .start();
    let grenade = cluster.add_service(Box::new(PanicService));

    let client = cluster.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: 64 * 1024, replication: 1 }).unwrap();
    client.append(blob, Bytes::from(vec![1u8; 64 * 1024])).unwrap();

    cluster.send(grenade, ping());
    assert_eq!(wait_counter(&cluster, "runtime.service_panics", 1), 1);

    // The sole shard kept running: data-path ops still complete, and a
    // second message to the dead cell is dropped without a second panic.
    cluster.send(grenade, ping());
    for _ in 0..5 {
        client.append(blob, Bytes::from(vec![2u8; 64 * 1024])).expect("shard wedged");
    }
    assert_eq!(cluster.telemetry().counter_total("runtime.service_panics"), 1);

    // The panic killed the cell, so its address is free for a restart.
    assert!(cluster.restart_service(grenade, Box::new(CounterService)));
    cluster.send(grenade, ping());
    assert_eq!(wait_counter(&cluster, "probe.pings", 1), 1);

    cluster.shutdown();
}

/// `Cluster::restart_service` under the executor: a killed address is
/// re-occupied in place, peers keep routing to the same `NodeId`, and a
/// live slot refuses reinstallation.
#[test]
fn restart_service_reoccupies_the_same_address() {
    let mut cluster = ClusterBuilder::new()
        .data_providers(2)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .executor_shards(2)
        .start();
    let node = cluster.add_service(Box::new(CounterService));

    for _ in 0..3 {
        cluster.send(node, ping());
    }
    assert_eq!(wait_counter(&cluster, "probe.pings", 3), 3);

    // A live slot must refuse reinstallation.
    assert!(!cluster.restart_service(node, Box::new(CounterService)));

    cluster.kill(node);
    cluster.send(node, ping()); // dropped: dead address
    assert!(cluster.restart_service(node, Box::new(CounterService)));
    cluster.send(node, ping());
    // Exactly one ping lands post-restart: the one sent while dead was
    // dropped with the old cell, not replayed into the new one.
    assert_eq!(wait_counter(&cluster, "probe.pings", 4), 4);
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(cluster.telemetry().counter_total("probe.pings"), 4);

    cluster.shutdown();
}

/// A real service that reports the sender of every message to `watch`
/// before handling it.
struct Watched<S> {
    inner: S,
    watch: Box<dyn FnMut(NodeId) + Send>,
}

impl<S: Service> Service for Watched<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_start(&mut self, env: &mut dyn Env) {
        self.inner.on_start(env);
    }
    fn on_msg(&mut self, env: &mut dyn Env, from: NodeId, msg: Msg) {
        (self.watch)(from);
        self.inner.on_msg(env, from, msg);
    }
    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        self.inner.on_timer(env, token);
    }
}

/// One shard, one data provider, one metadata provider: every cell a
/// call needs sits on the shard its caller may help.
fn one_shard(client_cfg: ClientConfig) -> Cluster {
    ClusterBuilder::new()
        .data_providers(1)
        .meta_providers(1)
        .provider_capacity(256 << 20)
        .executor_shards(1)
        .client_config(client_cfg)
        .start()
}

const PAGE: u64 = 64 * 1024;

fn page(fill: u8) -> Bytes {
    Bytes::from(vec![fill; PAGE as usize])
}

/// This thread's voluntary context switches so far: each is a block in
/// the kernel (a futex wait on a reply channel, a condvar, a lock).
#[cfg(target_os = "linux")]
fn voluntary_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("voluntary_ctxt_switches in /proc/thread-self/status");
    line.trim().parse().expect("a count")
}

/// A blocking call does not put its caller to sleep: on an idle cluster
/// the caller runs the cells its op needs and returns with the reply, so
/// 1 000 calls block in the kernel a handful of times at most. (Handing
/// each op to the worker and sleeping on the reply costs at least one
/// voluntary switch per call.)
#[cfg(target_os = "linux")]
#[test]
fn blocking_calls_do_not_put_the_caller_to_sleep() {
    let mut cluster = one_shard(ClientConfig::default());
    let client = cluster.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
    client.append(blob, page(1)).expect("append");
    for _ in 0..20 {
        client.snapshot(blob, None).expect("warm-up snapshot");
    }
    let before = voluntary_switches();
    for _ in 0..1_000 {
        client.snapshot(blob, None).expect("snapshot");
    }
    let switches = voluntary_switches() - before;
    assert!(switches < 10, "{switches} voluntary context switches over 1 000 blocking calls");
    cluster.shutdown();
}

/// Two callers at once, one shard: the first holds the shard's helper
/// slot (it is stopped inside a provider turn of its write), so the
/// second's call is run by the worker — the second never helps — and both
/// complete.
#[test]
fn only_one_caller_helps_a_shard_and_both_complete() {
    let mut cluster = one_shard(ClientConfig::default());
    let a = cluster.client(ClientId(1));
    let b = cluster.client(ClientId(2));
    let (a_node, b_node) = (a.node(), b.node());

    // Which thread ran the version manager's turn for each caller.
    let vman_threads: Arc<Mutex<Vec<(NodeId, String)>>> = Arc::default();
    let seen = Arc::clone(&vman_threads);
    let vman = cluster.vman;
    cluster.kill(vman);
    assert!(cluster.restart_service(
        vman,
        Box::new(Watched {
            inner: VersionManagerService::new(cluster.service_config()),
            watch: Box::new(move |from| {
                let name = std::thread::current().name().unwrap_or("").to_owned();
                seen.lock().unwrap().push((from, name));
            }),
        }),
    ));

    // The provider stops the first message of A's armed write until told.
    let armed = Arc::new(AtomicBool::new(false));
    let (entered_tx, entered) = mpsc::channel();
    let (go, go_rx) = mpsc::channel::<()>();
    let gate = Arc::clone(&armed);
    let provider = cluster.data[0];
    cluster.kill(provider);
    assert!(cluster.restart_service(
        provider,
        Box::new(Watched {
            inner: DataProviderService::new(cluster.pman, 256 << 20, cluster.service_config()),
            watch: Box::new(move |from| {
                if from == a_node && gate.swap(false, Ordering::SeqCst) {
                    entered_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                }
            }),
        }),
    ));

    let blob = a.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
    a.append(blob, page(1)).expect("append");
    vman_threads.lock().unwrap().clear();
    armed.store(true, Ordering::SeqCst);

    let caller_a = std::thread::Builder::new()
        .name("caller-a".into())
        .spawn(move || a.append(blob, page(2)))
        .unwrap();
    entered.recv_timeout(Duration::from_secs(10)).expect("A's write reached the provider");
    let caller_b = std::thread::Builder::new()
        .name("caller-b".into())
        .spawn(move || b.snapshot(blob, None))
        .unwrap();
    // B completes while A still holds the slot, stopped in a turn.
    caller_b.join().unwrap().expect("B's snapshot");
    go.send(()).unwrap();
    caller_a.join().unwrap().expect("A's append");

    let seen = vman_threads.lock().unwrap().clone();
    let thread_of = |node| {
        seen.iter().find(|(from, _)| *from == node).map(|(_, t)| t.as_str()).expect("a turn")
    };
    assert_eq!(thread_of(a_node), "caller-a", "A ran its own op's cells: {seen:?}");
    assert!(thread_of(b_node).starts_with("sads-exec"), "B never helped: {seen:?}");
    cluster.shutdown();
}

/// A timer registered in a turn a caller ran must fire on time after the
/// caller leaves: the caller wakes the parked worker when its timer falls
/// before the worker's own wake-up. Here the timer is the op deadline of
/// a write whose only provider is dead.
#[test]
fn a_timer_set_while_helping_fires_on_time() {
    let op_timeout = Duration::from_millis(30);
    let cfg = ClientConfig {
        op_timeout: SimDuration::from_millis(op_timeout.as_millis() as u64),
        ..ClientConfig::default()
    };
    let mut cluster = one_shard(cfg);
    let client = cluster.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
    cluster.kill(cluster.data[0]);
    let t0 = Instant::now();
    let err = client.append(blob, page(1)).expect_err("no provider can store the page");
    let took = t0.elapsed();
    assert!(matches!(err, BlobError::Timeout), "got {err}");
    assert!(took < op_timeout + Duration::from_millis(50), "timed out after {took:?}");
    cluster.shutdown();
}

/// `Cluster::shutdown` while a caller is running cells returns promptly;
/// the caller's call ends with the client-gone error, not a timeout that
/// never elapsed.
#[test]
fn shutdown_while_a_caller_helps() {
    let mut cluster = one_shard(ClientConfig::default());
    let client = cluster.client(ClientId(1));
    let node = client.node();
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
    // The provider holds the helping caller in a slow turn.
    let (entered_tx, entered) = mpsc::channel();
    let provider = cluster.data[0];
    cluster.kill(provider);
    assert!(cluster.restart_service(
        provider,
        Box::new(Watched {
            inner: DataProviderService::new(cluster.pman, 256 << 20, cluster.service_config()),
            watch: Box::new(move |from| {
                if from == node {
                    let _ = entered_tx.send(());
                    std::thread::sleep(Duration::from_millis(50));
                }
            }),
        }),
    ));
    let caller = std::thread::spawn(move || client.append(blob, page(1)));
    entered.recv_timeout(Duration::from_secs(10)).expect("the write reached the provider");
    let t0 = Instant::now();
    cluster.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    let err = caller.join().expect("no panic").expect_err("shut down mid-write");
    assert!(matches!(err, BlobError::Protocol(CLIENT_GONE)), "got {err}");
}

/// A ticket whose client cell is killed before the reply comes reports
/// the client gone, at once.
#[test]
fn a_killed_client_is_reported_gone() {
    let mut cluster = one_shard(ClientConfig::default());
    let client = cluster.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
    cluster.kill(cluster.vman);
    let ticket = client.submit_read(blob, None, 0, PAGE);
    cluster.kill(client.node());
    let t0 = Instant::now();
    let err = ticket.wait().expect_err("the client is gone");
    assert!(matches!(err, BlobError::Protocol(CLIENT_GONE)), "got {err}");
    assert!(t0.elapsed() < Duration::from_secs(1));
    cluster.shutdown();
}
