//! Property tests for the two entry forms of the client's one write and
//! one read session: a streamed write — fed in arbitrary slices, from
//! single bytes to multi-chunk bursts — must publish exactly the bytes a
//! whole-buffer [`ClientHandle::write`] would, regardless of how the feed
//! was split, and a streamed read must deliver exactly the bytes a
//! whole-buffer read does. The client runs a small `chunk_window`, so
//! ranges span several stream batches (and a one-shot read's fetch groups
//! overflow the window into the refill queue), and writes may start past
//! the blob's end, so reads cross never-written holes.
//!
//! [`ClientHandle::write`]: sads_blob::runtime::threaded::ClientHandle::write

use std::sync::OnceLock;

use bytes::Bytes;
use proptest::prelude::*;
use sads_blob::runtime::threaded::{ClientHandle, ClusterBuilder};
use sads_blob::{BlobSpec, ClientConfig, ClientId, WriteKind};

const PAGE: u64 = 4096;
/// Pages per stream batch and chunk requests in flight: smaller than the
/// generated ranges and than the provider count.
const WINDOW: usize = 3;

/// One shared cluster for every generated case: cluster spin-up is the
/// expensive part, so the property loop reuses a process-wide instance
/// (the threads are reclaimed at process exit).
fn client() -> &'static ClientHandle {
    static CLIENT: OnceLock<ClientHandle> = OnceLock::new();
    CLIENT.get_or_init(|| {
        let mut cluster = ClusterBuilder::new()
            .data_providers(4)
            .meta_providers(2)
            .provider_capacity(512 << 20)
            .start();
        let handle = cluster.client_with_config(
            ClientId(7000),
            ClientConfig {
                chunk_window: WINDOW,
                materialize_zeros: true,
                ..ClientConfig::default()
            },
        );
        std::mem::forget(cluster);
        handle
    })
}

/// Deterministic pseudo-random body so failures reproduce bytewise.
fn body(len: usize, seed: u64) -> Bytes {
    let mut x = seed | 1;
    Bytes::from(
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect::<Vec<u8>>(),
    )
}

/// Split `data` into feed slices drawn from `cuts` (cycled): the values
/// deliberately span 1-byte feeds, sub-page tails, and bursts larger
/// than a whole chunk.
fn feed_in_slices(
    handle: &mut sads_blob::BlobWriteHandle,
    data: &Bytes,
    cuts: &[usize],
) -> Result<(), sads_blob::BlobError> {
    let mut at = 0usize;
    let mut i = 0usize;
    while at < data.len() {
        let take = cuts[i % cuts.len()].clamp(1, data.len() - at);
        handle.feed(data.slice(at..at + take))?;
        at += take;
        i += 1;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streamed_write_matches_whole_buffer_write(
        pages in 1u64..6,
        hole in 0u64..3,
        seed in 1u64..u64::MAX,
        cuts in prop::collection::vec(
            prop_oneof![
                Just(1usize),                      // single-byte feeds
                2usize..(PAGE as usize),           // sub-page slices
                (PAGE as usize)..(3 * PAGE as usize), // multi-chunk bursts
            ],
            1..6,
        ),
    ) {
        let c = client();
        let len = pages * PAGE;
        let data = body(len as usize, seed);
        // `hole` never-written pages precede the write.
        let at = hole * PAGE;
        let mut image = vec![0u8; at as usize];
        image.extend_from_slice(&data);

        // Reference: one-shot whole-buffer write.
        let whole = c.create(BlobSpec { page_size: PAGE, replication: 1 }).unwrap();
        let vw = c.write(whole, at, data.clone()).unwrap();

        // Candidate: streamed write fed in the generated slicing.
        let streamed = c.create(BlobSpec { page_size: PAGE, replication: 1 }).unwrap();
        let mut h = c.open_write_stream(streamed, WriteKind::At(at), len, None).unwrap();
        feed_in_slices(&mut h, &data, &cuts).unwrap();
        let vs = h.commit().unwrap();

        let expect = c.read(whole, Some(vw), 0, at + len).unwrap();
        let got = c.read(streamed, Some(vs), 0, at + len).unwrap();
        prop_assert!(expect == image, "whole-buffer write roundtrip (hole {hole})");
        prop_assert!(got == image, "streamed write diverged (hole {hole}, cuts {:?})", &cuts);
    }

    #[test]
    fn streamed_read_matches_whole_buffer_read(
        pages in 1u64..(4 * WINDOW as u64),
        hole in 0u64..4,
        seed in 1u64..u64::MAX,
        off_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.2,
    ) {
        let c = client();
        // `hole` never-written pages, then `pages` written ones: up to
        // five stream batches, the first of which may be all zeros.
        let total = (hole + pages) * PAGE;
        let mut data = vec![0u8; (hole * PAGE) as usize];
        data.extend_from_slice(&body((pages * PAGE) as usize, seed));
        let blob = c.create(BlobSpec { page_size: PAGE, replication: 1 }).unwrap();
        let v = c.write(blob, hole * PAGE, Bytes::from(data[(hole * PAGE) as usize..].to_vec()))
            .unwrap();

        // An arbitrary (possibly empty, possibly end-clamped) range.
        let offset = (off_frac * total as f64) as u64;
        let len = ((len_frac * total as f64) as u64).min(total.saturating_sub(offset));

        let mut h = c.open_read_stream(blob, Some(v), offset, len, None).unwrap();
        let mut got = Vec::new();
        while let Some(chunk) = h.next().unwrap() {
            got.extend_from_slice(&chunk);
        }
        prop_assert_eq!(got.len() as u64, len);
        prop_assert!(
            got == data[offset as usize..(offset + len) as usize],
            "streamed range [{offset}, +{len}) diverged (hole {hole})"
        );
        let whole = c.read(blob, Some(v), offset, len).unwrap();
        prop_assert!(whole == got, "one-shot range [{offset}, +{len}) diverged (hole {hole})");
    }
}
