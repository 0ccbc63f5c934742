//! A write pays for the bytes it was given: zeros declared with
//! `feed_zeros` are never stored, and nothing a reader sees depends on it.
//!
//! * **Gateway**: objects of every tail length — 0, 1, page − 1, page,
//!   page + 1, k·page + 13 — round-trip through a whole GET, ranged GETs
//!   that straddle the tail, and the streaming reader; a shorter object
//!   put over a longer one leaves zeros, never the old bytes, behind its
//!   last byte in the page it ends in; a multipart upload with a short
//!   last part round-trips.
//! * **Client core, both runtimes**: any interleaving of fed bytes and
//!   declared zeros publishes the bytes that feeding the zeros explicitly
//!   publishes — through the threaded handle with real bytes, and through
//!   raw `ClientOp`s into a `ClientCore` in the simulator with real bytes
//!   and with size-only `Payload::Sim` lengths — while the providers hold
//!   only what was fed.
//! * Declared zeros count toward the declared length exactly as bytes
//!   do: an under-fed commit and an over-fed stream are still refused.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use bytes::Bytes;
use proptest::prelude::*;
use sads::blob::runtime::sim::{bare, SimEnv};
use sads::blob::runtime::threaded::{ClientHandle, ClusterBuilder};
use sads::blob::services::DataProviderService;
use sads::blob::storage::crc32c;
use sads::blob::{
    BlobError, BlobId, BlobSpec, ClientConfig, ClientCore, ClientId, ClientOp, Completion,
    OpOutput, Payload, WriteKind,
};
use sads::gateway::{Acl, GatewayConfig, ObjectGateway};
use sads_sim::{Actor, Ctx, Message, MessageExt, NodeConfig, NodeId, SimDuration, World};

const PAGE: u64 = 4096;
const ALICE: ClientId = ClientId(1);
const BUCKET: &str = "b";

/// One cluster, one gateway over it and one raw client beside it for
/// every generated case (the threads are reclaimed at process exit).
fn rig() -> &'static (ObjectGateway, ClientHandle) {
    static RIG: OnceLock<(ObjectGateway, ClientHandle)> = OnceLock::new();
    RIG.get_or_init(|| {
        let mut cluster = ClusterBuilder::new()
            .data_providers(4)
            .meta_providers(2)
            .provider_capacity(512 << 20)
            .start();
        let gateway = ObjectGateway::new(
            cluster.client(ClientId(1000)),
            GatewayConfig { page_size: PAGE, replication: 1, ..Default::default() },
        );
        gateway.create_bucket(ALICE, BUCKET, Acl::Private).expect("bucket");
        let raw = cluster.client(ClientId(1001));
        std::mem::forget(cluster);
        (gateway, raw)
    })
}

/// A key no other case uses.
fn fresh_key() -> String {
    static N: AtomicU64 = AtomicU64::new(0);
    format!("k{}", N.fetch_add(1, Ordering::Relaxed))
}

/// Deterministic pseudo-random bytes, never zero: a zero the model does
/// not expect is then a byte the store invented.
fn body(len: usize, seed: u64) -> Bytes {
    let mut x = seed | 1;
    Bytes::from(
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x as u8) | 1
            })
            .collect::<Vec<u8>>(),
    )
}

/// The tail lengths of the issue: 0, 1, page − 1, page, page + 1 and
/// k·page + 13.
fn object_size(which: u8, k: u64) -> usize {
    (match which {
        0 => 0,
        1 => 1,
        2 => PAGE - 1,
        3 => PAGE,
        4 => PAGE + 1,
        _ => k * PAGE + 13,
    }) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn objects_of_every_tail_length_round_trip(
        which in 0u8..6,
        k in 1u64..5,
        seed in 1u64..u64::MAX,
    ) {
        let (gw, raw) = rig();
        let key = fresh_key();
        let size = object_size(which, k);
        let data = body(size, seed);

        // A longer object first: the put under test overwrites it.
        let old = body(size + 2 * PAGE as usize + 5, !seed);
        let old_info = gw.put_object(ALICE, BUCKET, &key, old.clone()).unwrap();
        let info = gw.put_object(ALICE, BUCKET, &key, data.clone()).unwrap();
        prop_assert_eq!(info.size, size as u64);
        prop_assert_eq!(info.blob, old_info.blob);
        prop_assert_eq!(info.etag, crc32c(&data));
        prop_assert_eq!(gw.head_object(ALICE, BUCKET, &key).unwrap(), info.clone());

        // Whole GET, one-shot and streamed.
        prop_assert!(gw.get_object(ALICE, BUCKET, &key).unwrap() == data, "whole GET, size {size}");
        let mut r = gw.get_object_reader(ALICE, BUCKET, &key, 0, u64::MAX).unwrap();
        prop_assert_eq!(r.len(), size as u64);
        let mut streamed = Vec::new();
        while let Some(seg) = r.next().unwrap() {
            prop_assert!(!seg.is_empty());
            streamed.extend_from_slice(&seg);
        }
        prop_assert!(data == streamed, "streamed GET, size {size}");

        // Ranged GETs around the tail, S3-clamped to the object's end.
        let last_page = (size as u64).saturating_sub(1) / PAGE * PAGE;
        for (off, len) in [
            ((size as u64).saturating_sub(7), 20),
            (size as u64 / 2, u64::MAX),
            (last_page.saturating_sub(3), PAGE + 10),
            (last_page, 1),
        ] {
            let end = (off.saturating_add(len)).min(size as u64);
            let want = &data[(off as usize).min(size)..end as usize];
            let got = gw.get_object_range(ALICE, BUCKET, &key, off, len).unwrap();
            prop_assert!(got == want, "ranged GET [{off}, +{len}) of {size}");
            let mut r = gw.get_object_reader(ALICE, BUCKET, &key, off, len).unwrap();
            let mut streamed = Vec::new();
            while let Some(seg) = r.next().unwrap() {
                streamed.extend_from_slice(&seg);
            }
            prop_assert!(streamed == want, "streamed range [{off}, +{len}) of {size}");
        }

        // The BLOB under the object, read past the object's end: zeros up
        // to the end of the page the new object stops in (an all-zero
        // page for an empty object) — never the old object's bytes — and
        // the old object's pages, themselves zero-extended, behind that.
        let written = (size as u64).div_ceil(PAGE).max(1) * PAGE;
        let extent = (old.len() as u64).div_ceil(PAGE) * PAGE;
        let mut image = data.to_vec();
        image.resize(written as usize, 0);
        image.extend_from_slice(&old[written as usize..]);
        image.resize(extent as usize, 0);
        let got = raw.read(info.blob, Some(info.version), 0, extent).unwrap();
        prop_assert!(got == image, "old extent after overwriting {} B with {size} B", old.len());
        // ... and through the rope, whose zero tails are segments.
        let mut h = raw.open_read_stream(info.blob, Some(info.version), 0, extent, None).unwrap();
        let mut rope = Vec::new();
        while let Some(seg) = h.next().unwrap() {
            prop_assert!(!seg.is_empty() && seg.len() as u64 <= PAGE);
            rope.extend_from_slice(&seg);
        }
        prop_assert!(rope == image, "rope over the old extent, size {size}");
    }

    #[test]
    fn multipart_with_a_short_last_part_round_trips(
        full_parts in 0u32..3,
        which in 1u8..6,
        seed in 1u64..u64::MAX,
    ) {
        let (gw, _) = rig();
        let key = fresh_key();
        const PART: u64 = 2 * PAGE;
        // A part may not be empty, and not longer than `PART`.
        let last = object_size(which, 1).min(PART as usize);
        let id = gw.create_multipart(ALICE, BUCKET, &key, PART).unwrap();
        let mut want = Vec::new();
        // Last part first: parts land in any order.
        let tail = body(last, seed);
        gw.upload_part(ALICE, id, full_parts + 1, tail.clone()).unwrap();
        for n in 1..=full_parts {
            let part = body(PART as usize, seed ^ n as u64);
            gw.upload_part(ALICE, id, n, part.clone()).unwrap();
            want.extend_from_slice(&part);
        }
        want.extend_from_slice(&tail);
        let info = gw.complete_multipart(ALICE, id).unwrap();
        prop_assert_eq!(info.size, want.len() as u64);
        prop_assert!(gw.get_object(ALICE, BUCKET, &key).unwrap() == want);
        let off = (want.len() as u64).saturating_sub(last as u64 + 9);
        let got = gw.get_object_range(ALICE, BUCKET, &key, off, u64::MAX).unwrap();
        prop_assert!(got == want[off as usize..], "range over the last part's head");
    }
}

// ---------------------------------------------------------------------
// Client core: bytes and declared zeros in arbitrary splits
// ---------------------------------------------------------------------

/// One feed of a generated stream.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Seg {
    Bytes(u64),
    Zeros(u64),
}

/// A generated write: feeds that add up to whole pages.
#[derive(Clone, Debug)]
struct FeedCase {
    segs: Vec<Seg>,
    seed: u64,
    replication: u32,
    /// Real-data flavor of the deployment (`ClientConfig::materialize_zeros`).
    materialize: bool,
}

impl FeedCase {
    fn declared(&self) -> u64 {
        self.segs.iter().map(seg_len).sum()
    }

    /// The bytes the version must hold.
    fn image(&self) -> Vec<u8> {
        let stream = body(self.declared() as usize, self.seed);
        let mut image = Vec::new();
        for seg in &self.segs {
            match *seg {
                Seg::Bytes(n) => image.extend_from_slice(&stream[image.len()..image.len() + n as usize]),
                Seg::Zeros(n) => image.resize(image.len() + n as usize, 0),
            }
        }
        image
    }

    /// What the providers must hold: per page, everything up to the end
    /// of the last fed byte in it (zeros with bytes behind them in the
    /// page are written out), nothing for a page of declared zeros.
    fn stored_bytes(&self) -> u64 {
        let pages = self.declared() / PAGE;
        let mut stored = vec![0u64; pages as usize];
        let mut at = 0;
        for seg in &self.segs {
            match *seg {
                Seg::Bytes(n) if n > 0 => {
                    for page in at / PAGE..=(at + n - 1) / PAGE {
                        let end = (at + n).min((page + 1) * PAGE) - page * PAGE;
                        stored[page as usize] = stored[page as usize].max(end);
                    }
                    at += n;
                }
                Seg::Bytes(n) | Seg::Zeros(n) => at += n,
            }
        }
        stored.iter().sum::<u64>() * self.replication as u64
    }
}

fn feed_case() -> impl Strategy<Value = FeedCase> {
    let len = prop_oneof![Just(1u64), 2u64..PAGE, PAGE..3 * PAGE, Just(13u64), Just(PAGE)];
    (
        prop::collection::vec((0u8..2, len), 1..8),
        0u8..2,
        1u64..u64::MAX,
        1u32..3,
        0u8..2,
    )
        .prop_map(|(raw, pad_with_zeros, seed, replication, materialize)| {
            let mut segs: Vec<Seg> = raw
                .into_iter()
                .map(|(zeros, n)| if zeros == 1 { Seg::Zeros(n) } else { Seg::Bytes(n) })
                .collect();
            let fed: u64 = segs.iter().map(seg_len).sum();
            let pad = fed.next_multiple_of(PAGE) - fed;
            // What a gateway does — declare the pad — or not.
            segs.push(if pad_with_zeros == 1 { Seg::Zeros(pad) } else { Seg::Bytes(pad) });
            FeedCase { segs, seed, replication, materialize: materialize == 1 }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Threaded runtime, real bytes, through `BlobWriteHandle`.
    #[test]
    fn declared_zeros_publish_what_explicit_zeros_publish(case in feed_case()) {
        let (_, c) = rig();
        let image = Bytes::from(case.image());
        let declared = case.declared();
        let spec = BlobSpec { page_size: PAGE, replication: 1 };

        let mut versions = Vec::new();
        for explicit in [false, true] {
            let blob = c.create(spec).unwrap();
            let mut h = c.open_write_stream(blob, WriteKind::At(0), declared, None).unwrap();
            let mut at = 0usize;
            for seg in &case.segs {
                match *seg {
                    Seg::Zeros(n) if !explicit => h.feed_zeros(n).unwrap(),
                    Seg::Bytes(n) | Seg::Zeros(n) => {
                        h.feed(image.slice(at..at + n as usize)).unwrap()
                    }
                }
                at += seg_len(seg) as usize;
                prop_assert_eq!(h.fed(), at as u64);
            }
            prop_assert_eq!(h.remaining(), 0);
            versions.push((blob, h.commit().unwrap().0));
        }
        for (blob, version) in versions {
            let got = c.read(blob, Some(version), 0, declared).unwrap();
            prop_assert!(got == image, "published bytes diverged: {:?}", &case.segs);
        }
    }

    /// Simulator, raw `ClientOp`s into a `ClientCore`, real services:
    /// real bytes, then `Payload::Sim` lengths.
    #[test]
    fn sim_declared_zeros_publish_the_same_and_store_only_what_was_fed(case in feed_case()) {
        let image = case.image();
        for explicit in [false, true] {
            let run = SimRun::of(&case, true, explicit);
            prop_assert_eq!(run.active_ops, 0, "sessions left behind");
            match &run.read {
                Payload::Data(b) => prop_assert!(b == &image, "explicit {explicit}: {:?}", &case.segs),
                // Nothing but declared zeros in a deployment that does
                // not materialise them: no chunk ever carried a byte.
                Payload::Sim(n) => prop_assert!(
                    !explicit && !case.materialize && *n == case.declared()
                        && image.iter().all(|b| *b == 0),
                    "size-only read of a real-data stream: {:?}", &case.segs
                ),
            }
            let want = if explicit { case.declared() * case.replication as u64 } else { case.stored_bytes() };
            prop_assert_eq!(run.stored, want, "explicit {}: {:?}", explicit, &case.segs);
        }
        let sim = FeedCase { materialize: false, ..case.clone() };
        for explicit in [false, true] {
            let run = SimRun::of(&sim, false, explicit);
            prop_assert_eq!(run.active_ops, 0, "sessions left behind");
            prop_assert_eq!(&run.read, &Payload::Sim(sim.declared()), "explicit {}", explicit);
            let want = if explicit { sim.declared() * sim.replication as u64 } else { sim.stored_bytes() };
            prop_assert_eq!(run.stored, want, "explicit {}: {:?}", explicit, &sim.segs);
        }
    }
}

fn seg_len(seg: &Seg) -> u64 {
    match seg {
        Seg::Bytes(n) | Seg::Zeros(n) => *n,
    }
}

#[test]
fn declared_zeros_count_toward_the_declared_length_exactly() {
    let (_, c) = rig();
    let blob = c.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
    let open = || c.open_write_stream(blob, WriteKind::At(0), 2 * PAGE, None).expect("open");
    let refused = |r: Result<_, BlobError>, what: &str| match r {
        Err(BlobError::Protocol(_)) => {}
        other => panic!("{what}: {other:?}"),
    };

    // Under-fed by one page, the fed page ending in declared zeros.
    let mut h = open();
    h.feed(body(13, 1)).expect("feed");
    h.feed_zeros(PAGE - 13).expect("zeros");
    assert_eq!(h.remaining(), PAGE);
    refused(h.commit().map(drop), "under-fed commit");
    // Under-fed by one byte.
    let mut h = open();
    h.feed_zeros(2 * PAGE - 1).expect("zeros");
    refused(h.commit().map(drop), "commit one byte short");
    // Over-fed by zeros, by one byte and by an overflowing count.
    let mut h = open();
    h.feed(body(13, 1)).expect("feed");
    refused(h.feed_zeros(2 * PAGE - 12), "zeros past the declared length");
    let mut h = open();
    h.feed(body(13, 1)).expect("feed");
    refused(h.feed_zeros(u64::MAX), "overflowing zeros");
    // Over-fed by bytes behind declared zeros.
    let mut h = open();
    h.feed_zeros(2 * PAGE - 5).expect("zeros");
    refused(h.feed(body(6, 1)), "bytes past the declared length");
    // Nothing was published by any of them.
    assert!(c.read(blob, None, 0, PAGE).is_err(), "a refused stream published");

    // Exactly fed publishes, and `feed_zeros(0)` is nothing. (On a fresh
    // BLOB: the refused streams above hold tickets nobody recovers here.)
    let blob = c.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create");
    let mut h = c.open_write_stream(blob, WriteKind::At(0), 2 * PAGE, None).expect("open");
    h.feed_zeros(0).expect("no zeros");
    h.feed(body(13, 1)).expect("feed");
    h.feed_zeros(2 * PAGE - 13).expect("zeros");
    let (v, _) = h.commit().expect("commit");
    let mut want = body(13, 1).to_vec();
    want.resize(2 * PAGE as usize, 0);
    assert_eq!(c.read(blob, Some(v), 0, 2 * PAGE).expect("read"), want);
}

// ---------------------------------------------------------------------
// The simulated host of the second client-core property
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Step {
    Create(BlobSpec),
    Open(u64),
    Feed(Payload),
    Zeros(u64),
    Commit,
    Read(u64),
}

/// A simulator actor running one write script through a `ClientCore`.
struct Script {
    core: ClientCore,
    steps: VecDeque<Step>,
    blob: BlobId,
    stream: u64,
    read: Option<Payload>,
}

impl Script {
    /// Start the script's next step; whatever completes on the spot.
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Vec<Completion> {
        let Some(step) = self.steps.pop_front() else { return Vec::new() };
        let (blob, stream) = (self.blob, self.stream);
        let op = match step {
            Step::Create(spec) => ClientOp::Create { spec },
            Step::Open(len) => ClientOp::OpenWriteStream { blob, kind: WriteKind::At(0), len },
            Step::Feed(data) => ClientOp::FeedWriteStream { stream, data },
            Step::Zeros(len) => ClientOp::FeedZeros { stream, len },
            Step::Commit => ClientOp::CommitWriteStream { stream },
            Step::Read(len) => ClientOp::Read { blob, version: None, offset: 0, len },
        };
        self.core.start_op(&mut SimEnv::new(ctx), op, 0)
    }

    /// Absorb the completion of the step in flight and run on until a
    /// step parks: one (sub-)operation is in flight at a time.
    fn absorb(&mut self, ctx: &mut Ctx<'_>, mut done: Vec<Completion>) {
        while let Some(c) = done.pop() {
            assert!(done.is_empty(), "one step in flight");
            match c.result.unwrap_or_else(|e| panic!("step failed: {e}")) {
                OpOutput::Created(blob) => self.blob = blob,
                OpOutput::WriteStreamOpened { stream, .. } => self.stream = stream,
                OpOutput::Read { data, .. } => self.read = Some(data),
                OpOutput::Fed { .. } | OpOutput::Written { .. } => {}
                other => panic!("unexpected completion {other:?}"),
            }
            done = self.next(ctx);
        }
    }
}

impl Actor for Script {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let done = self.next(ctx);
        self.absorb(ctx, done);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Message>) {
        if let Ok(msg) = msg.downcast::<sads::blob::rpc::Msg>() {
            let done = self.core.handle_msg(&mut SimEnv::new(ctx), from, *msg);
            self.absorb(ctx, done);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if ClientCore::owns_timer(token) {
            let done = self.core.handle_timer(&mut SimEnv::new(ctx), token);
            self.absorb(ctx, done);
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// What one simulated run of a [`FeedCase`] left behind.
struct SimRun {
    /// The whole version, read back one-shot.
    read: Payload,
    /// `ChunkStore::used()` summed over the data providers.
    stored: u64,
    /// Sessions the client core still holds after the script.
    active_ops: usize,
}

impl SimRun {
    /// Run `case` with real bytes or size-only payloads, its zeros
    /// declared or (`explicit`) fed like any other bytes.
    fn of(case: &FeedCase, real: bool, explicit: bool) -> SimRun {
        let mut world = World::with_seed(case.seed);
        let n = bare(&mut world, 2, 4, 1 << 30);

        let image = Bytes::from(case.image());
        let declared = case.declared();
        let mut steps = VecDeque::from([
            Step::Create(BlobSpec { page_size: PAGE, replication: case.replication }),
            Step::Open(declared),
        ]);
        let mut at = 0usize;
        for seg in &case.segs {
            let n = seg_len(seg);
            steps.push_back(match seg {
                Seg::Zeros(_) if !explicit => Step::Zeros(n),
                _ if real => Step::Feed(Payload::Data(image.slice(at..at + n as usize))),
                _ => Step::Feed(Payload::Sim(n)),
            });
            at += n as usize;
        }
        steps.extend([Step::Commit, Step::Read(declared)]);

        let cfg = ClientConfig {
            chunk_window: 3,
            materialize_zeros: case.materialize,
            ..ClientConfig::default()
        };
        let script = world.add_node(
            Box::new(Script {
                core: ClientCore::new(ClientId(1), n.vman, n.pman, n.meta, cfg),
                steps,
                blob: BlobId(0),
                stream: 0,
                read: None,
            }),
            NodeConfig::default(),
        );
        // Providers re-arm heartbeats forever; run a bounded stretch.
        world.run_for(SimDuration::from_secs(60), 2_000_000);
        let stored = n
            .data
            .iter()
            .map(|p| world.actor_as::<DataProviderService>(*p).expect("provider").store().used())
            .sum();
        let s = world.actor_as::<Script>(script).expect("script");
        assert!(s.steps.is_empty(), "script stalled with {:?} to go", s.steps);
        SimRun {
            read: s.read.clone().expect("script stalled before its read"),
            stored,
            active_ops: s.core.active_ops(),
        }
    }
}
