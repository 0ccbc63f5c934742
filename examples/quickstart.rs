//! Quickstart: run the self-adaptive storage system on real threads,
//! store and read back versioned data, and peek at what the monitoring
//! layer observed.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bytes::Bytes;
use sads::blob::runtime::threaded::ClusterBuilder;
use sads::blob::{BlobSpec, ClientId, VersionId};
use sads::security::{default_dos_policies, SecurityConfig};
use sads::sim::SimDuration;
use sads::{install, DeploymentConfig};

fn main() {
    println!("starting a self-adaptive BlobSeer cluster (threads, real bytes)…");
    // The same spec a simulated `Deployment` takes; the cluster is its host.
    let spec = DeploymentConfig {
        data_providers: 4,
        meta_providers: 2,
        instr_flush: SimDuration::from_millis(500),
        mon_flush: SimDuration::from_millis(500),
        security: Some((default_dos_policies(), SecurityConfig::default())),
        ..DeploymentConfig::default()
    };
    let mut cluster = ClusterBuilder::new().host();
    install(&spec, &mut cluster);
    let client = cluster.client(ClientId(1));

    // A BLOB with 64 KiB pages, every chunk stored twice.
    let page: u64 = 64 * 1024;
    let blob = client
        .create(BlobSpec { page_size: page, replication: 2 })
        .expect("create blob");
    println!("created blob {blob:?} (page 64 KiB, replication 2)");

    // Version 1: four pages of 0xAB.
    let v1 = client
        .write(blob, 0, Bytes::from(vec![0xAB; 4 * page as usize]))
        .expect("write v1");
    println!("published {v1} (256 KiB at offset 0)");

    // Version 2: overwrite the middle two pages with 0xCD.
    let v2 = client
        .write(blob, page, Bytes::from(vec![0xCD; 2 * page as usize]))
        .expect("write v2");
    println!("published {v2} (128 KiB at offset 64 KiB)");

    // An append lands after everything written so far.
    let (v3, offset) = client
        .append(blob, Bytes::from(vec![0xEF; page as usize]))
        .expect("append");
    println!("published {v3} by append at offset {offset}");

    // Latest version sees the overlay of all three writes…
    let latest = client.read(blob, None, 0, 5 * page).expect("read latest");
    assert_eq!(latest[0], 0xAB);
    assert_eq!(latest[page as usize + 1], 0xCD);
    assert_eq!(latest[4 * page as usize], 0xEF);
    println!("latest read: AB..CD..CD..AB..EF overlay verified");

    // …while old versions stay immutable (snapshot isolation).
    let old = client.read(blob, Some(VersionId(1)), 0, 4 * page).expect("read v1");
    assert!(old.iter().all(|b| *b == 0xAB));
    println!("snapshot read of v1 still returns the original bytes");

    // Sub-page, unaligned reads work too.
    let slice = client.read(blob, None, page - 10, 20).expect("read unaligned");
    assert_eq!(&slice[..10], &[0xAB; 10]);
    assert_eq!(&slice[10..], &[0xCD; 10]);
    println!("unaligned 20-byte read across a page boundary verified");

    // The monitoring pipeline has been watching all along.
    std::thread::sleep(std::time::Duration::from_millis(1500));
    let metrics = cluster.telemetry();
    println!(
        "monitoring observed: {} records stored across the pipeline",
        metrics.counter_total("monstore.records")
    );

    cluster.shutdown();
    println!("done.");
}
