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
//! The etag half: [`EtagHasher`] gives the same tag for the same bytes
//! however they are sliced into `update` calls, and a different tag when
//! any one bit differs.

use bytes::Bytes;
use proptest::prelude::*;
use sads::blob::runtime::threaded::ClusterBuilder;
use sads::blob::storage::BackendSpec;
use sads::blob::ClientId;
use sads::gateway::{Acl, EtagHasher, GatewayConfig, ObjectGateway};

mod common;
use common::{requested_during, SERIAL};

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

const PAGE: u64 = 256 * 1024;
const TAIL: usize = 13;

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

fn etag(slices: &[&[u8]]) -> u64 {
    let mut h = EtagHasher::new();
    for s in slices {
        h.update(s);
    }
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lengths around the 32-byte stripe and its 8-byte words, cut at
    /// random points — including empty slices and cuts inside the carry.
    #[test]
    fn etag_is_the_same_however_the_bytes_are_sliced(
        len in prop_oneof![0usize..100, 100usize..5000],
        seed in 0u8..255,
        cuts in prop::collection::vec(0.0f64..1.0, 0..12),
    ) {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let data = body(len, seed);
        let mut at: Vec<usize> = cuts.iter().map(|c| (c * (len + 1) as f64) as usize).collect();
        at.extend([0, len]);
        at.sort_unstable();
        let slices: Vec<&[u8]> = at.windows(2).map(|w| &data[w[0]..w[1]]).collect();
        prop_assert_eq!(etag(&slices), etag(&[&data]), "len {}, cuts {:?}", len, &at);
    }

    /// Any one flipped bit, a dropped last byte and an appended zero all
    /// change the tag.
    #[test]
    fn etag_differs_when_one_bit_does(
        len in prop_oneof![1usize..100, 100usize..5000],
        seed in 0u8..255,
        where_ in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let data = body(len, seed).to_vec();
        let tag = etag(&[&data]);
        let mut flipped = data.clone();
        flipped[(where_ * len as f64) as usize] ^= 1 << bit;
        prop_assert!(etag(&[&flipped]) != tag, "flip at {} of {len}", (where_ * len as f64) as usize);
        prop_assert!(etag(&[&data[..len - 1]]) != tag, "dropped last byte of {len}");
        let mut longer = data.clone();
        longer.push(0);
        prop_assert!(etag(&[&longer]) != tag, "appended zero to {len}");
    }
}
