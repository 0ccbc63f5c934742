//! How many times a read copies a byte, gated exactly.
//!
//! The buffer type moves (`Bytes::from(Vec)` / `freeze` keep the
//! allocation), a multi-page one-shot read assembles its contiguous
//! result with one allocation and one copy per byte, and a stream read —
//! like a single-page ranged read — hands out views of the stored pages
//! and copies nothing. Two independent witnesses:
//!
//! * a counting `#[global_allocator]`: bytes requested from the allocator
//!   by the whole process while one warm read runs. Host-independent,
//!   unlike a latency; at the parent of this change the one-shot read
//!   asked for ≥ 2 × its length (assembly buffer + the copy hidden in
//!   `freeze`) and the stream read for ≥ 2 × too.
//! * the live `client.read_copied_bytes` counter, read from the cluster's
//!   registry.

use bytes::Bytes;
use sads::blob::runtime::threaded::{ClientHandle, Cluster, ClusterBuilder};
use sads::blob::{BlobId, BlobSpec, ClientId};

mod common;
use common::{requested_during, SERIAL};

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

const PAGE: u64 = 256 * 1024;

/// A cluster with one BLOB of `pages` written pages, and the bytes.
fn warm_blob(pages: u64) -> (Cluster, ClientHandle, BlobId, Bytes) {
    let mut cluster = ClusterBuilder::new()
        .data_providers(4)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .start();
    let client = cluster.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
    let data = Bytes::from(
        (0..pages * PAGE).map(|i| (i as u8).wrapping_mul(29) ^ (i >> 11) as u8).collect::<Vec<u8>>(),
    );
    client.write(blob, 0, data.clone()).expect("write");
    (cluster, client, blob, data)
}

fn stream_to_eof(client: &ClientHandle, blob: BlobId, len: u64) -> Vec<Bytes> {
    let mut h = client.open_read_stream(blob, None, 0, len, None).expect("open");
    let mut segments = Vec::new();
    while let Some(seg) = h.next().expect("next") {
        segments.push(seg);
    }
    assert_eq!(h.delivered(), h.len());
    segments
}

#[test]
fn a_read_allocates_its_result_once_and_a_stream_read_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const LEN: u64 = 4 << 20;
    let (cluster, client, blob, data) = warm_blob(LEN / PAGE);
    // Warm: metadata cached, allocator arenas grown, executor settled.
    for _ in 0..3 {
        assert_eq!(client.read(blob, None, 0, LEN).expect("warm read"), data);
        assert_eq!(stream_to_eof(&client, blob, LEN).concat(), &data[..]);
    }

    let (got, asked) = requested_during(|| client.read(blob, None, 0, LEN).expect("read"));
    assert_eq!(got, data);
    assert!(
        (LEN..LEN + LEN / 4).contains(&asked),
        "a {LEN} B one-shot read must allocate its result once; the process asked for {asked} B"
    );

    let (segments, asked) = requested_during(|| stream_to_eof(&client, blob, LEN));
    assert_eq!(segments.len() as u64, LEN / PAGE, "one segment per stored page");
    assert_eq!(segments.concat(), &data[..]);
    assert!(
        asked < PAGE,
        "a stream read hands out the stored pages; the process asked for {asked} B"
    );
    cluster.shutdown();
}

#[test]
fn read_copied_bytes_counts_one_shot_assembly_only() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (cluster, client, blob, data) = warm_blob(64);
    let copied = || cluster.metrics().counter("client.read_copied_bytes");

    // A 64-page stream read and a ranged read inside one page are views.
    assert_eq!(stream_to_eof(&client, blob, 64 * PAGE).concat(), &data[..]);
    let ranged = client.read(blob, None, 5 * PAGE + 100, PAGE / 2).expect("ranged read");
    assert_eq!(ranged, data.slice(5 * PAGE as usize + 100..5 * PAGE as usize + 100 + PAGE as usize / 2));
    assert_eq!(copied(), 0, "stream and single-page reads must not copy");

    // A 16-page one-shot read copies exactly what it returns.
    let got = client.read(blob, None, 3 * PAGE, 16 * PAGE).expect("one-shot read");
    assert_eq!(got, data.slice(3 * PAGE as usize..19 * PAGE as usize));
    assert_eq!(copied(), got.len() as u64);
    cluster.shutdown();
}
