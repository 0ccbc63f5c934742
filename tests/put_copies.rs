//! What a gateway PUT allocates and copies, gated exactly, and what its
//! content tag promises.
//!
//! A PUT of 256 KiB + 13 B is two chunks: a page cut off the body as a
//! view, and a 13-byte tail — also a view — behind which the rest of the
//! page is *declared* zeros (`feed_zeros`), never allocated, copied,
//! checksummed or written. Two independent witnesses, in the style of
//! `tests/read_copies.rs`:
//!
//! * a counting `#[global_allocator]`: bytes the whole process asked the
//!   allocator for while one warm PUT ran. At the parent of this change
//!   that was ≥ 256 KiB — the page-capacity accumulator the tail was
//!   copied into and the zero pad behind it, kept for as long as the
//!   version lives;
//! * pointer identity: what a ranged GET hands back for either chunk is
//!   the PUT body's own allocation, so no payload byte was copied at all.
//!
//! The etag half: the etag is the CRC-32C of the object's bytes, which
//! the write session folds from the page CRCs it cuts the body with, so
//! the body is read once. A whole PUT and a multipart upload of the same
//! bytes carry the same etag, `crc32c(body)`, and a body one bit, one
//! byte or one zero away carries another.

use bytes::Bytes;
use proptest::prelude::*;
use sads::blob::runtime::threaded::ClusterBuilder;
use sads::blob::storage::{crc32c, BackendSpec};
use sads::blob::ClientId;
use sads::gateway::{Acl, GatewayConfig, ObjectGateway};

mod common;
use common::{requested_during, SERIAL};

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

const PAGE: u64 = 256 * 1024;
const TAIL: usize = 13;
/// Page size of the etag cases' gateway: 5 000 B span twenty pages.
const SMALL_PAGE: u64 = 256;

fn body(len: usize, seed: u8) -> Bytes {
    Bytes::from((0..len).map(|i| (i as u8).wrapping_mul(29) ^ seed | 1).collect::<Vec<u8>>())
}

#[test]
fn a_put_allocates_no_page_and_copies_no_payload() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let root = std::env::temp_dir().join(format!("sads-put-copies-{}", std::process::id()));
    let mut cluster = ClusterBuilder::new()
        .data_providers(4)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .backend(BackendSpec::disk(&root))
        .start();
    let gw = ObjectGateway::new(
        cluster.client(ClientId(1000)),
        GatewayConfig { page_size: PAGE, replication: 1, ..Default::default() },
    );
    let alice = ClientId(1);
    gw.create_bucket(alice, "b", Acl::Private).expect("bucket");
    // Warm: the key's BLOB exists, metadata cached, allocator arenas and
    // mailboxes grown, the log segment open.
    for seed in 0..3 {
        gw.put_object(alice, "b", "k", body(PAGE as usize + TAIL, seed)).expect("warm put");
    }

    let data = body(PAGE as usize + TAIL, 77);
    let (info, asked) =
        requested_during(|| gw.put_object(alice, "b", "k", data.clone()).expect("put"));
    assert_eq!(info.size, PAGE + TAIL as u64);
    assert!(
        asked < 64 * 1024,
        "a {} B PUT is two views of its body; the process asked the allocator for {asked} B",
        data.len()
    );

    // Both stored chunks *are* the body: a range inside one page is
    // served as a view of the stored chunk, and it points into `data`.
    let head = gw.get_object_range(alice, "b", "k", 4096, 4096).expect("range in page 0");
    assert_eq!(head.as_ref().as_ptr(), data[4096..].as_ptr(), "page 0 was copied on the way in");
    let tail = gw.get_object_range(alice, "b", "k", PAGE, u64::MAX).expect("the tail");
    assert_eq!(tail.len(), TAIL);
    assert_eq!(tail.as_ref().as_ptr(), data[PAGE as usize..].as_ptr(), "the tail was copied");
    assert_eq!(gw.get_object(alice, "b", "k").expect("get"), data);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Run `f` against a gateway over a fresh in-memory cluster with
/// 256-byte pages, holding `SERIAL`: the cluster's threads are gone
/// before the allocation gate above can run.
fn with_gateway<T>(f: impl FnOnce(&ObjectGateway) -> T) -> T {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cluster =
        ClusterBuilder::new().data_providers(2).meta_providers(1).provider_capacity(64 << 20).start();
    let gw = ObjectGateway::new(
        cluster.client(ClientId(1000)),
        GatewayConfig { page_size: SMALL_PAGE, replication: 1, ..Default::default() },
    );
    gw.create_bucket(ClientId(1), "e", Acl::Private).expect("bucket");
    let out = f(&gw);
    cluster.shutdown();
    out
}

fn put_etag(gw: &ObjectGateway, data: &[u8]) -> u32 {
    gw.put_object(ClientId(1), "e", "k", Bytes::from(data.to_vec())).expect("put").etag
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One body PUT whole and uploaded as parts of `pages` pages each
    /// (the last one short), the parts sent last first: one etag,
    /// `crc32c(body)`.
    #[test]
    fn etag_is_the_same_however_the_bytes_are_sliced(
        len in prop_oneof![1usize..600, 600usize..5000],
        seed in 0u8..255,
        pages in 1u64..6,
    ) {
        let data = body(len, seed);
        let part = (pages * SMALL_PAGE) as usize;
        let (whole, multipart) = with_gateway(|gw| {
            let id = gw.create_multipart(ClientId(1), "e", "m", part as u64).expect("create");
            for i in (0..len.div_ceil(part)).rev() {
                let slice = data.slice(i * part..len.min((i + 1) * part));
                gw.upload_part(ClientId(1), id, i as u32 + 1, slice).expect("part");
            }
            (put_etag(gw, &data), gw.complete_multipart(ClientId(1), id).expect("complete").etag)
        });
        prop_assert_eq!(whole, crc32c(&data), "len {}", len);
        prop_assert_eq!(multipart, whole, "len {}, parts of {}", len, part);
    }

    /// PUTs of the body with one bit flipped, with its last byte dropped
    /// and with a zero appended all carry another etag.
    #[test]
    fn etag_differs_when_one_bit_does(
        len in prop_oneof![1usize..100, 100usize..5000],
        seed in 0u8..255,
        where_ in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let data = body(len, seed).to_vec();
        let at = (where_ * len as f64) as usize;
        let mut flipped = data.clone();
        flipped[at] ^= 1 << bit;
        let longer = [&data[..], &[0]].concat();
        let [tag, flip, short, long] = with_gateway(|gw| {
            [&data[..], &flipped, &data[..len - 1], &longer].map(|b| put_etag(gw, b))
        });
        prop_assert!(flip != tag, "flip at {at} of {len}");
        prop_assert!(short != tag, "dropped last byte of {len}");
        prop_assert!(long != tag, "appended zero to {len}");
    }
}
