//! Seeded input generation. `--seed` decides every offset, version pick,
//! op order, object size and payload byte; the program under test only
//! ever sees the generated inputs, never the seed.
//!
//! Each round's op list is a **fixed multiset in seeded order**: class
//! counts (writes, reads, …) are exact and only the order and targets vary
//! with the seed, so the work per run does not drift with it.

use bytes::Bytes;

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything
    /// a workload of a few thousand ops can see.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// How many payload buffers a workload draws from.
pub const POOL_BUFS: u64 = 8;

/// Seeded-random payload buffers, handed to the system as `Bytes::clone`
/// / `slice`: stored chunks are refcounted views of these, so resident
/// memory tracks metadata and transfer buffers, not bytes written.
pub struct Pool(Vec<Bytes>);

impl Pool {
    pub fn new(seed: u64, len: usize) -> Pool {
        let mut rng = Rng::new(seed ^ 0x706f_6f6c);
        Pool(
            (0..POOL_BUFS)
                .map(|_| {
                    let mut v = Vec::with_capacity(len + 8);
                    while v.len() < len {
                        v.extend_from_slice(&rng.next_u64().to_le_bytes());
                    }
                    v.truncate(len);
                    Bytes::from(v)
                })
                .collect(),
        )
    }

    /// `len` bytes at `offset` of buffer `body`, zero-copy.
    pub fn slice(&self, body: u32, offset: usize, len: usize) -> Bytes {
        self.0[body as usize].slice(offset..offset + len)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Write (classic, stream or `put_object`) of body `body` to `slot`.
    Write,
    /// Read of `slot` at the latest version (`get_object` of key `slot`).
    Read,
    /// `small_meta`: read `slot` at a published version picked by `pick`.
    ReadOld,
    /// `mixed_rw`: read the `pick`-th most recently written range.
    ReadRecent,
    /// `gateway_disk`: 4 KiB `get_object_range` at an offset from `pick`.
    Range,
    /// `gateway_disk`: `head_object` of key `slot`.
    Head,
    /// `gateway_disk`: `list_objects` under the prefix key `slot` falls in.
    List,
}

/// One generated operation. What `slot`, `body` and `pick` mean depends on
/// the workload (see [`OpKind`]); all three come from the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub slot: u32,
    pub body: u32,
    pub pick: u64,
    /// Compare the whole buffer, not just length + head/tail (1 in 16).
    pub full_check: bool,
}

/// `(kind, count)` classes of one round, drawn with targets in `0..slots`
/// and bodies in `0..bodies`, in seeded order. `interleave` shuffles the
/// classes together; otherwise they run class after class.
fn draw(
    rng: &mut Rng,
    classes: &[(OpKind, usize)],
    slots: u64,
    bodies: u64,
    interleave: bool,
) -> Vec<Op> {
    let mut ops = Vec::with_capacity(classes.iter().map(|c| c.1).sum());
    for &(kind, count) in classes {
        for _ in 0..count {
            ops.push(Op {
                kind,
                slot: rng.below(slots) as u32,
                body: rng.below(bodies) as u32,
                pick: rng.next_u64(),
                full_check: rng.below(16) == 0,
            });
        }
    }
    if interleave {
        rng.shuffle(&mut ops);
    }
    ops
}

pub const WORKLOADS: [&str; 4] = ["seq_large", "small_meta", "mixed_rw", "gateway_disk"];

/// Sizes of `gateway_disk` objects: a class from `pick`, never
/// page-aligned.
pub const OBJECT_SIZES: [usize; 5] = [
    (16 << 10) + 13,
    (64 << 10) + 13,
    (256 << 10) + 13,
    (256 << 10) + 13,
    (1 << 20) + 13,
];

/// Targets an op can name: 4 MiB ranges of `seq_large`, pages of
/// `small_meta`, 1 MiB ranges of `mixed_rw`, keys of `gateway_disk`.
pub const SEQ_LARGE_RANGES: u64 = 64;
pub const SMALL_META_PAGES: u64 = 32_768;
pub const MIXED_RW_RANGES: u64 = 256;
pub const GATEWAY_KEYS: u64 = 128;

/// Ops per round at `--seconds 10`, sized so ten measured rounds take
/// about ten seconds on the 2-core reference host. `gateway_disk` is
/// sized by bytes instead: 150 PUTs a round keep the objects written
/// near 0.6 GB and the log near 1.1 GB, which the restart phase reads
/// back into memory.
fn base_ops(workload: &str) -> usize {
    match workload {
        "seq_large" => 1_500,
        "small_meta" => 3_500,
        "mixed_rw" => 3_500,
        "gateway_disk" => 1_500,
        other => panic!("unknown workload {other}"),
    }
}

/// The op list of round `round` of `workload`; round 0 is the warm-up, a
/// quarter the size of a measured round (enough to fill every cache the
/// workload fits in). Run length is fixed in **ops**, scaled from
/// `seconds`, because per-op cost grows with the number of versions
/// published: a run that stopped on a timer would do less work on a slow
/// host and report *better* latencies.
pub fn round_ops(workload: &str, seed: u64, round: usize, seconds: u64) -> Vec<Op> {
    use OpKind::*;
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(round as u64));
    // A multiple of 20, so every class share below is an exact count.
    let per_round = base_ops(workload) * seconds as usize / 10;
    let n = (per_round / if round == 0 { 4 } else { 1 } / 20).max(2) * 20;
    match workload {
        "seq_large" => draw(
            &mut rng,
            &[(Write, n / 2), (Read, n / 2)],
            SEQ_LARGE_RANGES,
            POOL_BUFS,
            false,
        ),
        "small_meta" => {
            let mut ops = draw(
                &mut rng,
                &[(Write, n / 2)],
                SMALL_META_PAGES,
                POOL_BUFS * 256,
                false,
            );
            // Four-page reads: keep the start where four pages fit.
            let mut reads = draw(
                &mut rng,
                &[(Read, n / 4), (ReadOld, n / 4)],
                SMALL_META_PAGES - 3,
                1,
                true,
            );
            ops.append(&mut reads);
            ops
        }
        "mixed_rw" => draw(
            &mut rng,
            &[(Write, n / 2), (Read, n / 4), (ReadRecent, n / 4)],
            MIXED_RW_RANGES,
            POOL_BUFS,
            true,
        ),
        "gateway_disk" => draw(
            &mut rng,
            &[
                (Write, n / 10),
                (Read, n / 2),
                (Range, n * 3 / 10),
                (Head, n / 20),
                (List, n / 20),
            ],
            GATEWAY_KEYS,
            POOL_BUFS,
            true,
        ),
        other => panic!("unknown workload {other}"),
    }
}

/// FNV-1a over every field of every op: two runs saw the same inputs iff
/// their hashes agree.
pub fn ops_hash(ops: &[Op]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for op in ops {
        for word in [
            op.kind as u64,
            op.slot as u64,
            op.body as u64,
            op.pick,
            op.full_check as u64,
        ] {
            for b in word.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_different_seed_different_ops() {
        for w in WORKLOADS {
            for round in 0..3 {
                let a = ops_hash(&round_ops(w, 7, round, 10));
                assert_eq!(
                    a,
                    ops_hash(&round_ops(w, 7, round, 10)),
                    "{w} round {round}"
                );
                assert_ne!(a, ops_hash(&round_ops(w, 8, round, 10)), "{w} seed");
                assert_ne!(
                    a,
                    ops_hash(&round_ops(w, 7, round + 3, 10)),
                    "{w} later round"
                );
            }
        }
    }

    #[test]
    fn class_counts_do_not_depend_on_the_seed() {
        let count = |w: &str, seed: u64, kind: OpKind| {
            round_ops(w, seed, 1, 10)
                .iter()
                .filter(|o| o.kind == kind)
                .count()
        };
        for seed in [1, 2, 99] {
            assert_eq!(count("seq_large", seed, OpKind::Write), 750);
            assert_eq!(count("small_meta", seed, OpKind::ReadOld), 875);
            assert_eq!(count("mixed_rw", seed, OpKind::Write), 1_750);
            assert_eq!(count("gateway_disk", seed, OpKind::Write), 150);
            assert_eq!(count("gateway_disk", seed, OpKind::Range), 450);
        }
        assert_eq!(round_ops("seq_large", 1, 1, 1).len(), 140);
        assert_eq!(
            round_ops("seq_large", 1, 0, 10).len(),
            360,
            "warm-up is a quarter round"
        );
    }

    #[test]
    fn pool_is_seeded_and_buffers_differ() {
        let (a, b, c) = (Pool::new(1, 4096), Pool::new(1, 4096), Pool::new(2, 4096));
        assert_eq!(a.slice(3, 0, 4096), b.slice(3, 0, 4096));
        assert_ne!(a.slice(3, 0, 4096), c.slice(3, 0, 4096));
        assert_ne!(a.slice(0, 0, 64), a.slice(1, 0, 64));
        assert_eq!(a.slice(0, 100, 13).len(), 13);
    }

    #[test]
    fn rng_below_and_shuffle_stay_in_range() {
        let mut rng = Rng::new(5);
        assert!((0..1000).all(|_| rng.below(7) < 7));
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
