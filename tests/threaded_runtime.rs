//! Threaded-runtime robustness: elastic provider addition under live
//! traffic, replica failover when a provider dies mid-service, a
//! streamed write publishing through a provider death, and 256 clients
//! completing on a handful of executor workers.

use bytes::Bytes;
use sads::blob::client::{ClientConfig, RetryPolicy};
use sads::blob::runtime::threaded::ClusterBuilder;
use sads::blob::{BlobSpec, ClientId, OpOutput, Payload, WriteKind};
use sads_sim::SimDuration;

const PAGE: u64 = 64 * 1024;

#[test]
fn providers_added_at_runtime_serve_new_traffic() {
    let mut cluster = ClusterBuilder::new()
        .data_providers(2)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .start();
    let client = cluster.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 2 }).unwrap();
    client.write(blob, 0, Bytes::from(vec![1u8; 2 * PAGE as usize])).unwrap();

    // Scale up mid-flight. `add_data_provider` returns with the new
    // provider's `Register` already in the provider manager's mailbox,
    // ahead of any allocation request sent afterwards.
    for _ in 0..3 {
        let n = cluster.add_data_provider(256 << 20);
        cluster.data.push(n);
    }
    // Replication 4 requires the expanded pool (only 5 providers total):
    // the very first write must be allocated, with no retry.
    let blob4 = client.create(BlobSpec { page_size: PAGE, replication: 4 }).unwrap();
    client
        .write(blob4, 0, Bytes::from(vec![2u8; PAGE as usize]))
        .expect("first replication-4 write after the pool grew");
    let back = client.read(blob4, None, 0, PAGE).unwrap();
    assert!(back.iter().all(|b| *b == 2));
    cluster.shutdown();
}

#[test]
fn reads_fail_over_when_a_replica_dies_threaded() {
    let mut cluster = ClusterBuilder::new()
        .data_providers(3)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .client_config(ClientConfig {
            chunk_timeout: SimDuration::from_millis(500),
            materialize_zeros: true,
            ..ClientConfig::default()
        })
        .start();
    let client = cluster.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 3 }).unwrap();
    let data = Bytes::from((0..4 * PAGE as usize).map(|i| i as u8).collect::<Vec<u8>>());
    client.write(blob, 0, data.clone()).unwrap();

    // Kill one of the three replicas' hosts.
    let victim = cluster.data[1];
    cluster.kill(victim);

    // Every read must still return the full data: fetches that land on
    // the dead replica time out after 500 ms and fail over.
    for round in 0..5 {
        let got = client.read(blob, None, 0, 4 * PAGE).expect("failover read");
        assert_eq!(got, data, "round {round}");
    }
    cluster.shutdown();
}

/// The sequence a gateway `put_object` runs — open a write stream, feed,
/// commit — with a data provider dying between two feeds. Chunk stores
/// headed for the dead provider must time out, retry, and re-allocate,
/// and the version must still publish with every byte readable through
/// both read forms.
#[test]
fn streamed_write_publishes_through_a_provider_death() {
    let mut cluster = ClusterBuilder::new()
        .data_providers(3)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .client_config(ClientConfig {
            chunk_window: 4,
            chunk_timeout: SimDuration::from_millis(300),
            materialize_zeros: true,
            // Feeds arrive a page at a time, so every page bound for the
            // dead provider is its own failed store and its own
            // re-allocation: the per-write budget must cover them all.
            retry: RetryPolicy {
                put_timeout: SimDuration::from_millis(100),
                max_attempts: 2,
                backoff_base: SimDuration::from_millis(10),
                backoff_max: SimDuration::from_millis(50),
                max_reallocs: 64,
            },
            ..ClientConfig::default()
        })
        .start();
    let client = cluster.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 2 }).unwrap();
    // Three windows' worth of pages.
    let pages = 12usize;
    let data = Bytes::from(
        (0..pages * PAGE as usize).map(|i| (i / 7) as u8 ^ (i as u8)).collect::<Vec<u8>>(),
    );
    let mut h = client
        .open_write_stream(blob, WriteKind::At(0), data.len() as u64, None)
        .expect("open");
    let cut = 3 * PAGE as usize;
    h.feed(data.slice(0..cut)).expect("feed before the crash");
    cluster.kill(cluster.data[1]);
    h.feed(data.slice(cut..data.len())).expect("feed across the crash");
    let (v, _) = h.commit().expect("commit publishes through re-allocation");

    let m = cluster.telemetry();
    assert!(m.counter_total("client.rpc_retries") > 0, "same-target retry never ran");
    assert!(m.counter_total("client.reallocs") > 0, "re-allocation never ran");

    let got = client.read(blob, Some(v), 0, data.len() as u64).expect("one-shot read");
    assert_eq!(got, data);
    let mut r = client
        .open_read_stream(blob, Some(v), 0, data.len() as u64, None)
        .expect("open read stream");
    let mut streamed = Vec::with_capacity(data.len());
    while let Some(chunk) = r.next().expect("next") {
        streamed.extend_from_slice(&chunk);
    }
    assert_eq!(&streamed[..], &data[..]);
    cluster.shutdown();
}

/// 256 clients, one op in flight each, submitted in waves through the
/// non-blocking API: every append and every read completes (an op stuck
/// behind a deadlock fails at its deadline), and each client reads its
/// own bytes back.
#[test]
fn two_hundred_fifty_six_clients_complete_without_deadlock() {
    const CLIENTS: usize = 256;
    const OP: u64 = 4 * PAGE;
    let mut cluster = ClusterBuilder::new()
        .data_providers(8)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .executor_shards(4)
        .start();
    let handles: Vec<_> = (0..CLIENTS).map(|i| cluster.client(ClientId(100 + i as u64))).collect();
    let blobs: Vec<_> = handles
        .iter()
        .map(|h| h.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create"))
        .collect();
    let bodies: Vec<_> = (0..CLIENTS).map(|i| Bytes::from(vec![i as u8; OP as usize])).collect();
    for _ in 0..2 {
        let tickets: Vec<_> = handles
            .iter()
            .zip(&blobs)
            .zip(&bodies)
            .map(|((h, &blob), body)| h.submit_append(blob, body.clone()))
            .collect();
        for t in tickets {
            t.wait().expect("append");
        }
    }
    for k in 0..2 {
        let tickets: Vec<_> =
            handles.iter().zip(&blobs).map(|(h, &blob)| h.submit_read(blob, None, k * OP, OP)).collect();
        for (t, body) in tickets.into_iter().zip(&bodies) {
            let Ok(OpOutput::Read { data: Payload::Data(got), .. }) = t.wait() else {
                panic!("read failed")
            };
            assert_eq!(&got, body);
        }
    }
    cluster.shutdown();
}

/// The simulated twin is bit-for-bit deterministic by seed, the property
/// every experiment in EXPERIMENTS.md leans on. `tests/golden_wire.rs`
/// pins it against constants; this replays E1's deployment, small.
#[test]
fn deterministic_simulated_twin_runs_identically() {
    let run = || {
        let mut d = sads_bench::e1::deploy(8, 12345, 4, false);
        d.world.run_for(SimDuration::from_secs(60), 10_000_000);
        (d.world.events_processed(), d.world.event_digest())
    };
    assert_eq!(run(), run());
}
