//! The self-protection loop on the threaded runtime: real threads, real
//! bytes, wall-clock monitoring pipeline. A client that floods providers
//! with unticketed writes must be detected by the security engine and
//! blocked across the cluster.

use std::time::Duration;

use bytes::Bytes;
use sads::blob::model::{BlobError, BlobId, BlobSpec, ChunkKey, ClientId, Payload, VersionId};
use sads::blob::rpc::Msg;
use sads::blob::storage::payload_crc;
use sads::{AdaptiveClusterConfig, SelfAdaptiveCluster};
use sads_security::PolicySet;

const PAGE: u64 = 64 * 1024;

fn config() -> AdaptiveClusterConfig {
    AdaptiveClusterConfig {
        security: Some(
            PolicySet::parse(
                "policy unticketed {\n\
                   when count(writes, window = 10s) >= 10\n\
                    and count(tickets, window = 10s) == 0\n\
                   then block for 60s severity high\n\
                 }",
            )
            .unwrap(),
        ),
        ..AdaptiveClusterConfig::default()
    }
}

#[test]
fn threaded_pipeline_detects_and_blocks_unticketed_writers() {
    let mut sys = SelfAdaptiveCluster::start(config());
    let attacker_id = ClientId(666);
    let honest_id = ClientId(7);

    // The honest client works normally throughout.
    let honest = sys.client(honest_id);
    let blob = honest.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
    honest.write(blob, 0, Bytes::from(vec![1u8; PAGE as usize])).expect("baseline write");

    // The attacker injects raw chunk writes without ever taking a ticket
    // (wire-level abuse a real client library would never emit).
    let data = Payload::Data(Bytes::from(vec![0u8; 4096]));
    let crc = payload_crc(&data);
    for i in 0..30u64 {
        sys.cluster.send(
            sys.cluster.data[(i % sys.cluster.data.len() as u64) as usize],
            Msg::PutChunk {
                req: i,
                client: attacker_id,
                key: ChunkKey {
                    blob: BlobId(u64::MAX),
                    version: VersionId(u64::MAX),
                    page: i,
                },
                data: data.clone(),
                crc,
            },
        );
    }

    // The pipeline (instrumentation flush 0.5 s → monitor flush 0.5 s →
    // cache drain → engine scan 1 s) should block the attacker within a
    // few wall seconds. Probe with reads: they never take tickets, so the
    // probe itself cannot disturb the unticketed-writes detector.
    let attacker = sys.client(attacker_id);
    let mut blocked = false;
    for _ in 0..100 {
        match attacker.read(blob, None, 0, PAGE) {
            Err(BlobError::Blocked(_)) => {
                blocked = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(100)),
        }
    }
    assert!(blocked, "attacker must be blocked by the engine");

    // The honest client is unaffected.
    honest.write(blob, 0, Bytes::from(vec![3u8; PAGE as usize])).expect("honest still writes");
    let back = honest.read(blob, None, 0, PAGE).expect("honest still reads");
    assert!(back.iter().all(|b| *b == 3));

    // The monitoring pipeline stored real records.
    let metrics = sys.cluster.metrics();
    assert!(metrics.counter("monstore.records") > 0);
    assert!(metrics.counter("sec.detections") >= 1);
    sys.shutdown();
}

#[test]
fn threaded_honest_traffic_is_never_sanctioned() {
    let mut sys = SelfAdaptiveCluster::start(config());
    let client = sys.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
    // A burst of perfectly normal ticketed writes.
    for i in 0..20u64 {
        client
            .write(blob, 0, Bytes::from(vec![i as u8; PAGE as usize]))
            .expect("ticketed write");
    }
    // Give the pipeline time to observe everything.
    std::thread::sleep(Duration::from_secs(3));
    client.write(blob, 0, Bytes::from(vec![9u8; PAGE as usize])).expect("still allowed");
    let metrics = sys.cluster.metrics();
    assert_eq!(metrics.counter("sec.detections"), 0, "no false positives");
    sys.shutdown();
}
