//! Property tests for the two entry forms of the client's one write and
//! one read session: a streamed write — fed in arbitrary slices, from
//! single bytes to multi-chunk bursts — must publish exactly the bytes a
//! whole-buffer [`ClientHandle::write`] would, regardless of how the feed
//! was split; and a streamed read — a rope of views of the stored pages,
//! one segment per `next` — must deliver exactly the bytes a whole-buffer
//! read assembles, which must be the bytes a sequential model says the
//! version holds. The read property runs twice: through the threaded
//! [`BlobReadHandle`] and through raw [`ClientOp`]s into a `ClientCore`
//! hosted, with the real services, in the deterministic simulator. Page
//! size, `chunk_window`, replication, never-written holes, an overwrite
//! that makes an old and a latest version, and an unaligned range all
//! vary, so ranges span several stream windows and a one-shot read's
//! fetch groups overflow the window into the refill queue.
//!
//! [`ClientHandle::write`]: sads_blob::runtime::threaded::ClientHandle::write
//! [`BlobReadHandle`]: sads_blob::BlobReadHandle

use std::sync::OnceLock;

use bytes::Bytes;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sads_blob::runtime::sim::{bare, SimEnv};
use sads_blob::runtime::threaded::{ClientHandle, ClusterBuilder};
use sads_blob::{
    BlobId, BlobSpec, ClientConfig, ClientCore, ClientId, ClientOp, Completion, OpOutput, Payload,
    VersionId, WriteKind,
};
use sads_sim::{Actor, Ctx, Message, MessageExt, NodeConfig, NodeId, SimDuration, World};

const PAGE: u64 = 4096;
/// Pages per stream window and chunk requests in flight, one client per
/// value: mostly smaller than the generated ranges and the provider count.
const WINDOWS: [usize; 4] = [1, 2, 3, 8];

fn client_config(chunk_window: usize) -> ClientConfig {
    ClientConfig { chunk_window, materialize_zeros: true, ..ClientConfig::default() }
}

/// One shared cluster for every generated case: cluster spin-up is the
/// expensive part, so the property loop reuses a process-wide instance
/// (the threads are reclaimed at process exit). One client per window.
fn clients() -> &'static [ClientHandle] {
    static CLIENTS: OnceLock<Vec<ClientHandle>> = OnceLock::new();
    CLIENTS.get_or_init(|| {
        let mut cluster = ClusterBuilder::new()
            .data_providers(4)
            .meta_providers(2)
            .provider_capacity(512 << 20)
            .start();
        let handles = WINDOWS
            .iter()
            .enumerate()
            .map(|(i, w)| cluster.client_with_config(ClientId(7000 + i as u64), client_config(*w)))
            .collect();
        std::mem::forget(cluster);
        handles
    })
}

/// The window-3 client the write property runs on.
fn client() -> &'static ClientHandle {
    &clients()[2]
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
}

/// One generated read scenario: a BLOB with `hole` never-written pages,
/// `pages` written ones (version 1), `ow_pages` overwritten — or appended
/// — at page `ow_start` (version 2), and an unaligned range of one of the
/// two versions.
#[derive(Clone, Debug)]
struct ReadCase {
    page: u64,
    window: usize,
    replication: u32,
    hole: u64,
    body1: Bytes,
    ow_start: u64,
    body2: Bytes,
    read_old: bool,
    offset: u64,
    len: u64,
}

impl ReadCase {
    /// The sequential model: what each version holds.
    fn images(&self) -> [Vec<u8>; 2] {
        let mut v1 = vec![0u8; (self.hole * self.page) as usize];
        v1.extend_from_slice(&self.body1);
        let mut v2 = v1.clone();
        let at = (self.ow_start * self.page) as usize;
        v2.resize(v2.len().max(at + self.body2.len()), 0);
        v2[at..at + self.body2.len()].copy_from_slice(&self.body2);
        [v1, v2]
    }

    /// The bytes the generated range must deliver.
    fn want(&self) -> Vec<u8> {
        let [v1, v2] = self.images();
        let image = if self.read_old { v1 } else { v2 };
        image[self.offset as usize..(self.offset + self.len) as usize].to_vec()
    }

    /// Pages the range touches: the rope's segment count.
    fn pages_touched(&self) -> u64 {
        if self.len == 0 {
            0
        } else {
            (self.offset + self.len - 1) / self.page - self.offset / self.page + 1
        }
    }

    /// The rope, the one-shot read and the model agree, and the rope is
    /// one non-empty, at most page-sized segment per page touched.
    fn check(&self, segments: &[Bytes], one_shot: &[u8]) -> Result<(), TestCaseError> {
        let want = self.want();
        prop_assert!(segments.concat() == want, "rope diverged from the model: {self:?}");
        prop_assert!(one_shot == want, "one-shot read diverged from the model: {self:?}");
        prop_assert_eq!(segments.len() as u64, self.pages_touched(), "{:?}", self);
        for seg in segments {
            prop_assert!(
                !seg.is_empty() && seg.len() as u64 <= self.page,
                "segment of {} B: {self:?}",
                seg.len()
            );
        }
        Ok(())
    }
}

fn read_case() -> impl Strategy<Value = ReadCase> {
    (
        (prop_oneof![Just(1024u64), Just(4096u64), Just(16384u64)], 0usize..WINDOWS.len(), 1u32..3),
        (0u64..4, 1u64..13, 0.0f64..1.0, 1u64..4, 1u64..u64::MAX),
        (0u8..2, 0.0f64..1.0, 0.0f64..1.2),
    )
        .prop_map(|((page, w, replication), (hole, pages, ow_frac, ow_pages, seed), range)| {
            let (read_old, off_frac, len_frac) = (range.0 == 1, range.1, range.2);
            // Up to `hole + pages`, so version 2 overwrites, fills part
            // of the hole, or appends — never leaves a gap.
            let ow_start = (ow_frac * (hole + pages + 1) as f64) as u64;
            let total = if read_old { hole + pages } else { (hole + pages).max(ow_start + ow_pages) };
            let total = total * page;
            let offset = (off_frac * total as f64) as u64;
            ReadCase {
                page,
                window: w,
                replication,
                hole,
                body1: body((pages * page) as usize, seed),
                ow_start,
                body2: body((ow_pages * page) as usize, !seed),
                read_old,
                offset,
                len: ((len_frac * total as f64) as u64).min(total - offset),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The rope through the threaded handle. Also: `delivered()` counts
    /// up to `len()`, and a stream closed or dropped with part of a
    /// window still unread shuts down cleanly.
    #[test]
    fn stream_rope_matches_one_shot_read_and_model(case in read_case()) {
        let c = &clients()[case.window];
        let blob = c.create(BlobSpec { page_size: case.page, replication: case.replication }).unwrap();
        let v1 = c.write(blob, case.hole * case.page, case.body1.clone()).unwrap();
        c.write(blob, case.ow_start * case.page, case.body2.clone()).unwrap();
        // The latest version is asked for as "latest".
        let version = case.read_old.then_some(v1);

        let mut h = c.open_read_stream(blob, version, case.offset, case.len, None).unwrap();
        prop_assert_eq!(h.len(), case.len);
        let mut segments = Vec::new();
        while let Some(seg) = h.next().unwrap() {
            segments.push(seg);
            let so_far: usize = segments.iter().map(Bytes::len).sum();
            prop_assert_eq!(h.delivered(), so_far as u64);
        }
        prop_assert_eq!(h.delivered(), h.len());
        prop_assert!(h.next().unwrap().is_none(), "eof is sticky");
        let one_shot = c.read(blob, version, case.offset, case.len).unwrap();
        case.check(&segments, &one_shot)?;

        // One segment in, the rest of the window (and of the stream)
        // abandoned: by `close`, then by drop.
        let mut h = c.open_read_stream(blob, version, case.offset, case.len, None).unwrap();
        prop_assert_eq!(h.next().unwrap(), segments.first().cloned());
        h.close().unwrap();
        let mut h = c.open_read_stream(blob, version, case.offset, case.len, None).unwrap();
        prop_assert_eq!(h.next().unwrap(), segments.first().cloned());
        drop(h);
    }

    /// The same property on the simulator: raw `ClientOp`s into a
    /// `ClientCore`, real services, real bytes. Here the session table is
    /// in reach, so the early close must leave it empty.
    #[test]
    fn sim_stream_rope_matches_one_shot_read_and_model(case in read_case()) {
        let run = SimRun::of(&case);
        prop_assert_eq!(run.active_ops, 0, "sessions left behind: {:?}", &case);
        case.check(&run.segments, &run.one_shot)?;
        prop_assert_eq!(run.first_of_closed_stream, run.segments.first().cloned());
    }
}

// ---------------------------------------------------------------------
// The simulated host of the second property
// ---------------------------------------------------------------------

/// What a [`SimRun`] script does next.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Stage {
    Create,
    Write1,
    Write2,
    OneShot,
    Open,
    Pull,
    Reopen,
    PullOnce,
    Close,
    Done,
}

/// A simulator actor running one [`ReadCase`] through a `ClientCore`:
/// create, two writes, a one-shot read, a stream read to eof, and a
/// second stream closed after its first window.
struct CaseDriver {
    core: ClientCore,
    case: ReadCase,
    stage: Stage,
    blob: BlobId,
    version: Option<VersionId>,
    stream: u64,
    one_shot: Bytes,
    segments: Vec<Bytes>,
    first_of_closed_stream: Option<Bytes>,
}

fn data_of(p: Payload) -> Bytes {
    match p {
        Payload::Data(b) => b,
        Payload::Sim(n) => panic!("size-only payload of {n} B in a real-data run"),
    }
}

impl CaseDriver {
    /// Absorb the completion of the stage just run, then start the next.
    fn advance(&mut self, ctx: &mut Ctx<'_>, done: Option<Completion>) {
        let out = done.map(|c| c.result.unwrap_or_else(|e| panic!("{:?}: {e}", self.stage)));
        let case = &self.case;
        self.stage = match (self.stage, out) {
            (Stage::Create, None) => Stage::Create,
            (Stage::Create, Some(OpOutput::Created(blob))) => {
                self.blob = blob;
                Stage::Write1
            }
            (Stage::Write1, Some(OpOutput::Written { version, .. })) => {
                self.version = case.read_old.then_some(version);
                Stage::Write2
            }
            (Stage::Write2, Some(OpOutput::Written { .. })) => Stage::OneShot,
            (Stage::OneShot, Some(OpOutput::Read { data, .. })) => {
                self.one_shot = data_of(data);
                Stage::Open
            }
            (Stage::Open, Some(OpOutput::ReadStreamOpened { stream, len, .. })) => {
                assert_eq!(len, case.len);
                self.stream = stream;
                Stage::Pull
            }
            (Stage::Pull, Some(OpOutput::ReadChunk { segments, eof, .. })) => {
                self.segments.extend(segments.into_iter().map(data_of));
                if eof {
                    Stage::Reopen
                } else {
                    Stage::Pull
                }
            }
            (Stage::Reopen, Some(OpOutput::ReadStreamOpened { stream, .. })) => {
                self.stream = stream;
                Stage::PullOnce
            }
            (Stage::PullOnce, Some(OpOutput::ReadChunk { segments, .. })) => {
                self.first_of_closed_stream = segments.into_iter().next().map(data_of);
                Stage::Close
            }
            (Stage::Close, Some(OpOutput::StreamClosed { .. })) => Stage::Done,
            (stage, out) => panic!("{stage:?} completed with {out:?}"),
        };
        let (blob, version, offset, len) = (self.blob, self.version, case.offset, case.len);
        let op = match self.stage {
            Stage::Create => ClientOp::Create {
                spec: BlobSpec { page_size: case.page, replication: case.replication },
            },
            Stage::Write1 => ClientOp::Write {
                blob,
                kind: WriteKind::At(case.hole * case.page),
                data: Payload::Data(case.body1.clone()),
            },
            Stage::Write2 => ClientOp::Write {
                blob,
                kind: WriteKind::At(case.ow_start * case.page),
                data: Payload::Data(case.body2.clone()),
            },
            Stage::OneShot => ClientOp::Read { blob, version, offset, len },
            Stage::Open | Stage::Reopen => ClientOp::OpenReadStream { blob, version, offset, len },
            Stage::Pull | Stage::PullOnce => ClientOp::ReadStreamNext { stream: self.stream },
            Stage::Close => ClientOp::CloseReadStream { stream: self.stream },
            Stage::Done => return,
        };
        let done = self.core.start_op(&mut SimEnv::new(ctx), op, 0);
        self.absorb(ctx, done);
    }

    fn absorb(&mut self, ctx: &mut Ctx<'_>, done: Vec<Completion>) {
        assert!(done.len() <= 1, "one op in flight");
        if let Some(c) = done.into_iter().next() {
            self.advance(ctx, Some(c));
        }
    }
}

impl Actor for CaseDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.advance(ctx, None);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Message>) {
        if let Ok(msg) = msg.downcast::<sads_blob::rpc::Msg>() {
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

/// What one simulated run of a [`ReadCase`] produced.
struct SimRun {
    one_shot: Bytes,
    segments: Vec<Bytes>,
    first_of_closed_stream: Option<Bytes>,
    /// Sessions the client core still holds after the script.
    active_ops: usize,
}

impl SimRun {
    fn of(case: &ReadCase) -> SimRun {
        let mut world = World::with_seed(case.offset ^ case.len);
        let n = bare(&mut world, 2, 4, 1 << 30);
        let driver = world.add_node(
            Box::new(CaseDriver {
                core: ClientCore::new(
                    ClientId(1),
                    n.vman,
                    n.pman,
                    n.meta,
                    client_config(WINDOWS[case.window]),
                ),
                case: case.clone(),
                stage: Stage::Create,
                blob: BlobId(0),
                version: None,
                stream: 0,
                one_shot: Bytes::new(),
                segments: Vec::new(),
                first_of_closed_stream: None,
            }),
            NodeConfig::default(),
        );
        // Providers re-arm heartbeats forever; run a bounded stretch.
        world.run_for(SimDuration::from_secs(60), 2_000_000);
        let d = world.actor_as::<CaseDriver>(driver).expect("driver");
        assert_eq!(d.stage, Stage::Done, "script stalled");
        SimRun {
            one_shot: d.one_shot.clone(),
            segments: d.segments.clone(),
            first_of_closed_stream: d.first_of_closed_stream.clone(),
            active_ops: d.core.active_ops(),
        }
    }
}
