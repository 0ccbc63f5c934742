//! How many times a read copies a byte, gated exactly.
//!
//! The buffer type moves (`Bytes::from(Vec)` / `freeze` keep the
//! allocation). A one-shot read whose pages are consecutive views of one
//! buffer — the pages one write cut, or a single page — returns one view
//! of that buffer and copies nothing. Any other multi-page one-shot read
//! assembles its contiguous result with one allocation and one copy per
//! byte. A stream read hands out views of the stored pages and copies
//! nothing. Two independent witnesses:
//!
//! * a counting `#[global_allocator]`: bytes requested from the allocator
//!   by the whole process while one warm read runs. Host-independent,
//!   unlike a latency; when a buffer hand-off copied (`freeze` before the
//!   shim's owner became an `Arc<Vec<u8>>`) a one-shot read asked for
//!   ≥ 2 × its length and a stream read for ≥ 2 × too.
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

/// A cluster with one BLOB of `pages` pages, written by one write of the
/// returned bytes.
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

/// A second BLOB holding `data` written in two halves, each from a buffer
/// of its own: a read across the halves cannot be one view and copies.
fn two_writes(client: &ClientHandle, data: &Bytes) -> BlobId {
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
    let half = data.len() / 2;
    for (at, part) in [(0, &data[..half]), (half, &data[half..])] {
        client.write(blob, at as u64, Bytes::from(part.to_vec())).expect("write");
    }
    blob
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
    let split = two_writes(&client, &data);
    let copied = || cluster.telemetry().counter_total("client.read_copied_bytes");
    // Warm: metadata cached, allocator arenas grown, executor settled.
    for _ in 0..3 {
        assert_eq!(client.read(blob, None, 0, LEN).expect("warm read"), data);
        assert_eq!(client.read(split, None, 0, LEN).expect("warm read"), data);
        assert_eq!(stream_to_eof(&client, blob, LEN).concat(), &data[..]);
    }

    let before = copied();
    let (got, asked) = requested_during(|| client.read(blob, None, 0, LEN).expect("read"));
    assert_eq!(got.len(), data.len());
    assert_eq!(got.as_ptr(), data.as_ptr(), "a read of one write's pages is a view of its buffer");
    assert_eq!(copied(), before, "a view copies nothing");
    assert!(asked < PAGE, "a read of one write's pages allocates no result; asked for {asked} B");

    let (got, asked) = requested_during(|| client.read(split, None, 0, LEN).expect("read"));
    assert_eq!(got, data);
    assert_eq!(copied(), before + LEN, "pages of two buffers are copied, each byte once");
    assert!(
        (LEN..LEN + LEN / 4).contains(&asked),
        "a {LEN} B read of two buffers must allocate its result once; the process asked for {asked} B"
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
    let copied = || cluster.telemetry().counter_total("client.read_copied_bytes");

    // A 64-page stream read, a ranged read inside one page and a 16-page
    // read of one write's pages, cut mid-page at both ends, are views.
    assert_eq!(stream_to_eof(&client, blob, 64 * PAGE).concat(), &data[..]);
    let ranged = client.read(blob, None, 5 * PAGE + 100, PAGE / 2).expect("ranged read");
    assert_eq!(ranged, data.slice(5 * PAGE as usize + 100..5 * PAGE as usize + 100 + PAGE as usize / 2));
    let at = 3 * PAGE as usize + 100;
    let got = client.read(blob, None, at as u64, 16 * PAGE).expect("one-shot read");
    assert_eq!(got, data.slice(at..at + 16 * PAGE as usize));
    assert_eq!(got.as_ptr(), data[at..].as_ptr(), "one write's pages, joined");
    assert_eq!(copied(), 0, "stream reads and reads of one buffer's pages must not copy");

    // A 16-page one-shot read across two writes' buffers copies exactly
    // what it returns.
    let split = two_writes(&client, &data);
    let got = client.read(split, None, 24 * PAGE, 16 * PAGE).expect("one-shot read");
    assert_eq!(got, data.slice(24 * PAGE as usize..40 * PAGE as usize));
    assert_eq!(copied(), got.len() as u64);
    cluster.shutdown();
}
