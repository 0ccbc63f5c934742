//! Property-based tests over the core invariants:
//!
//! * the versioned segment tree is equivalent to a page-overlay reference
//!   model, for sequential *and* concurrent writers;
//! * version GC never breaks a surviving snapshot;
//! * the policy language round-trips through its own syntax;
//! * the burst cache conserves records.

use proptest::prelude::*;

use sads::blob::meta::{
    BaseSnapshot, MetaStore, NodeRef, PageSource, TreeBuilder, TreeReader,
};
use sads::blob::model::{
    BlobId, BlobSpec, ChunkDescriptor, ChunkKey, ClientId, PageInterval, VersionId,
};
use sads::blob::vmanager::{VersionManagerState, WriteKind};
use sads_sim::{NodeId, SimTime};

const PAGE: u64 = 4;
const BLOB: BlobId = BlobId(1);

// ---------------------------------------------------------------------
// Harness: drive TreeBuilder/TreeReader against an in-memory store.
// ---------------------------------------------------------------------

fn run_builder(store: &mut MetaStore, mut b: TreeBuilder) -> NodeRef {
    let mut guard = 0;
    while !b.is_ready() {
        guard += 1;
        assert!(guard < 1000, "resolution did not converge");
        for k in b.needed_fetches() {
            let n = store.get(&k).expect("resolution fetch must exist").clone();
            b.supply(k, &n);
        }
    }
    let interval = b.interval();
    let version = b.version();
    let chunks: Vec<ChunkDescriptor> = (interval.start..interval.end())
        .map(|page| ChunkDescriptor {
            key: ChunkKey { blob: BLOB, version, page },
            replicas: vec![NodeId((page % 5) as u32)],
            size: PAGE,
        })
        .collect();
    let (nodes, root) = b.build(&chunks);
    for (k, n) in nodes {
        store.put(k, n);
    }
    root
}

fn read_pages(store: &MetaStore, root: Option<NodeRef>, query: PageInterval) -> Vec<Option<u64>> {
    let mut r = TreeReader::new(BLOB, root, query);
    let mut guard = 0;
    while !r.is_done() {
        guard += 1;
        assert!(guard < 1000, "descent did not converge");
        for k in r.needed_fetches() {
            let n = store.get(&k).expect("read fetch must exist").clone();
            r.supply(k, &n);
        }
    }
    r.into_sources()
        .into_iter()
        .map(|s| match s {
            PageSource::Hole { .. } => None,
            PageSource::Chunk(c) => Some(c.key.version.0),
        })
        .collect()
}

/// Reference model: page → owning version, replaying writes `1..=upto`.
fn reference(writes: &[PageInterval], upto: usize, pages: u64) -> Vec<Option<u64>> {
    let mut owner = vec![None; pages as usize];
    for (i, w) in writes.iter().take(upto).enumerate() {
        for p in w.start..w.end().min(pages) {
            owner[p as usize] = Some(i as u64 + 1);
        }
    }
    owner
}

fn write_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    // Offsets up to 56 pages force tree growth and spine
    // materialization (far appends over small existing trees).
    prop::collection::vec((0u64..56, 1u64..8), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sequential writes: reads at every version equal the overlay model.
    #[test]
    fn tree_matches_reference_sequentially(writes in write_strategy()) {
        let mut store = MetaStore::new();
        let mut roots: Vec<Option<NodeRef>> = vec![None];
        let mut sizes: Vec<u64> = vec![0];
        let intervals: Vec<PageInterval> =
            writes.iter().map(|(s, l)| PageInterval::new(*s, *l)).collect();

        for (i, w) in intervals.iter().enumerate() {
            let v = i as u64 + 1;
            let new_size = sizes[i].max(w.end() * PAGE);
            let base = BaseSnapshot {
                version: VersionId(i as u64),
                size: sizes[i],
                root: roots[i],
            };
            let b = TreeBuilder::new(BLOB, VersionId(v), *w, PAGE, new_size, base, vec![]);
            roots.push(Some(run_builder(&mut store, b)));
            sizes.push(new_size);
        }

        // Check every version's full state and a partial range.
        for (i, root) in roots.iter().enumerate().skip(1) {
            let pages = sizes[i] / PAGE;
            let got = read_pages(&store, *root, PageInterval::new(0, pages));
            let want = reference(&intervals, i, pages);
            prop_assert_eq!(&got, &want, "full read at v{}", i);
            if pages > 2 {
                let got = read_pages(&store, *root, PageInterval::new(1, pages - 2));
                prop_assert_eq!(&got[..], &want[1..(pages - 1) as usize], "partial read at v{}", i);
            }
        }
    }

    /// Concurrent writers: tickets issued together, metadata built with
    /// only the ticket's pending info, committed in arbitrary order —
    /// reads must still equal the overlay model in ticket order.
    #[test]
    fn tree_matches_reference_with_concurrent_writers(
        writes in write_strategy(),
        seed in 0u64..1000,
    ) {
        let mut vm = VersionManagerState::new();
        let blob = vm.create_blob(BlobSpec { page_size: PAGE, replication: 1 }, SimTime::ZERO);
        prop_assert_eq!(blob, BLOB);
        let mut store = MetaStore::new();

        // Issue every ticket up front (all concurrent).
        let mut tickets = Vec::new();
        for (s, l) in &writes {
            let t = vm
                .ticket(blob, WriteKind::At(s * PAGE), l * PAGE, ClientId(9), SimTime::ZERO)
                .unwrap();
            tickets.push(t);
        }
        // Build and store all metadata (pure per ticket).
        let mut commits = Vec::new();
        for t in &tickets {
            let b = TreeBuilder::new(
                blob,
                t.version,
                t.interval(),
                PAGE,
                t.new_size,
                t.base,
                t.pending.clone(),
            );
            let root = run_builder(&mut store, b);
            commits.push((t.version, root, t.new_size));
        }
        // Commit in a pseudo-random order.
        let mut order: Vec<usize> = (0..commits.len()).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s as usize) % (i + 1));
        }
        for idx in order {
            let (v, root, size) = commits[idx];
            vm.commit(blob, v, root, size, SimTime::ZERO).unwrap();
        }

        let intervals: Vec<PageInterval> =
            writes.iter().map(|(s, l)| PageInterval::new(*s, *l)).collect();
        for i in 1..=writes.len() {
            let info = vm.version_info(blob, VersionId(i as u64)).unwrap();
            let pages = info.size / PAGE;
            let got = read_pages(&store, info.root, PageInterval::new(0, pages));
            let want = reference(&intervals, i, pages);
            prop_assert_eq!(got, want, "read at v{}", i);
        }
    }

    /// GC safety: execute the keep-last-`keep` plan against the real
    /// metadata store; every surviving version still reads exactly its
    /// reference state, with no deleted chunks referenced.
    #[test]
    fn gc_preserves_surviving_snapshots(
        writes in write_strategy(),
        keep in 1usize..5,
    ) {
        use sads::blob::vmanager::VersionSummary;
        use sads::lifecycle::{plan_blob, CatalogView};

        let n = writes.len();
        let mut store = MetaStore::new();
        let mut roots: Vec<Option<NodeRef>> = vec![None];
        let mut sizes: Vec<u64> = vec![0];
        let mut catalog = vec![VersionSummary {
            version: VersionId(0),
            size: 0,
            interval: PageInterval::EMPTY,
        }];
        let intervals: Vec<PageInterval> =
            writes.iter().map(|(s, l)| PageInterval::new(*s, *l)).collect();
        for (i, w) in intervals.iter().enumerate() {
            let v = i as u64 + 1;
            let new_size = sizes[i].max(w.end() * PAGE);
            let base =
                BaseSnapshot { version: VersionId(i as u64), size: sizes[i], root: roots[i] };
            let b = TreeBuilder::new(BLOB, VersionId(v), *w, PAGE, new_size, base, vec![]);
            roots.push(Some(run_builder(&mut store, b)));
            sizes.push(new_size);
            catalog.push(VersionSummary {
                version: VersionId(v),
                size: new_size,
                interval: *w,
            });
        }

        // The roots are the newest `keep` versions (KeepLastN(keep));
        // reclaim whatever only the older ones reach.
        let cut = n.saturating_sub(keep);
        let gc_roots: Vec<VersionId> = (cut + 1..=n).map(|v| VersionId(v as u64)).collect();
        let view =
            CatalogView { blob: BLOB, page_size: PAGE, versions: &catalog, roots: &gc_roots };
        let plan = plan_blob(&view);
        for k in &plan.nodes {
            prop_assert!(store.remove(k), "planned node {:?} existed", k);
        }
        let deleted_chunks: std::collections::HashSet<_> = plan.chunks.into_iter().collect();
        // Surviving versions read their exact reference state.
        for i in (cut + 1)..=n {
            let pages = sizes[i] / PAGE;
            let mut r = TreeReader::new(BLOB, roots[i], PageInterval::new(0, pages));
            let mut guard = 0;
            while !r.is_done() {
                guard += 1;
                prop_assert!(guard < 1000);
                for k in r.needed_fetches() {
                    let n = store
                        .get(&k)
                        .unwrap_or_else(|| panic!("v{i} needs deleted node {k:?}"))
                        .clone();
                    r.supply(k, &n);
                }
            }
            let want = reference(&intervals, i, pages);
            for (p, src) in r.into_sources().into_iter().enumerate() {
                match src {
                    PageSource::Hole { .. } => prop_assert_eq!(want[p], None),
                    PageSource::Chunk(c) => {
                        prop_assert_eq!(Some(c.key.version.0), want[p]);
                        prop_assert!(
                            !deleted_chunks.contains(&c.key),
                            "v{} references deleted chunk {:?}",
                            i,
                            c.key
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Policy language round-trip
// ---------------------------------------------------------------------

mod policy_roundtrip {
    use proptest::prelude::*;
    use sads_security::{ActionKind, CmpOp, EventClass, Expr, Metric, PolicySet, Severity};
    use sads_sim::SimDuration;

    fn class_name(c: EventClass) -> &'static str {
        match c {
            EventClass::Requests => "requests",
            EventClass::Writes => "writes",
            EventClass::Reads => "reads",
            EventClass::ReadMisses => "read_misses",
            EventClass::Rejects => "rejects",
            EventClass::Tickets => "tickets",
            EventClass::TicketRejects => "ticket_rejects",
            EventClass::Publishes => "publishes",
        }
    }

    fn render_metric(m: &Metric) -> String {
        match m {
            Metric::Rate(c, w) => format!("rate({}, window = {}s)", class_name(*c), w.as_nanos() / 1_000_000_000),
            Metric::Count(c, w) => format!("count({}, window = {}s)", class_name(*c), w.as_nanos() / 1_000_000_000),
            Metric::Bytes(c, w) => format!("bytes({}, window = {}s)", class_name(*c), w.as_nanos() / 1_000_000_000),
            Metric::Ratio(a, b, w) => format!(
                "ratio({}, {}, window = {}s)",
                class_name(*a),
                class_name(*b),
                w.as_nanos() / 1_000_000_000
            ),
            Metric::Trust => "trust()".to_owned(),
        }
    }

    fn render_expr(e: &Expr) -> String {
        match e {
            Expr::And(a, b) => format!("({} and {})", render_expr(a), render_expr(b)),
            Expr::Or(a, b) => format!("({} or {})", render_expr(a), render_expr(b)),
            Expr::Not(i) => format!("not {}", render_expr(i)),
            Expr::Cmp { metric, op, value } => {
                let op = match op {
                    CmpOp::Gt => ">",
                    CmpOp::Lt => "<",
                    CmpOp::Ge => ">=",
                    CmpOp::Le => "<=",
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                };
                format!("{} {} {}", render_metric(metric), op, value)
            }
        }
    }

    fn class_strategy() -> impl Strategy<Value = EventClass> {
        prop_oneof![
            Just(EventClass::Requests),
            Just(EventClass::Writes),
            Just(EventClass::Reads),
            Just(EventClass::ReadMisses),
            Just(EventClass::Rejects),
            Just(EventClass::Tickets),
            Just(EventClass::TicketRejects),
            Just(EventClass::Publishes),
        ]
    }

    fn metric_strategy() -> impl Strategy<Value = Metric> {
        let w = (1u64..300).prop_map(SimDuration::from_secs);
        prop_oneof![
            (class_strategy(), w.clone()).prop_map(|(c, w)| Metric::Rate(c, w)),
            (class_strategy(), w.clone()).prop_map(|(c, w)| Metric::Count(c, w)),
            (class_strategy(), w.clone()).prop_map(|(c, w)| Metric::Bytes(c, w)),
            (class_strategy(), class_strategy(), w).prop_map(|(a, b, w)| Metric::Ratio(a, b, w)),
            Just(Metric::Trust),
        ]
    }

    fn cmp_strategy() -> impl Strategy<Value = CmpOp> {
        prop_oneof![
            Just(CmpOp::Gt),
            Just(CmpOp::Lt),
            Just(CmpOp::Ge),
            Just(CmpOp::Le),
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
        ]
    }

    fn expr_strategy() -> impl Strategy<Value = Expr> {
        let leaf = (metric_strategy(), cmp_strategy(), 0u32..100_000).prop_map(
            |(metric, op, value)| Expr::Cmp { metric, op, value: value as f64 },
        );
        leaf.prop_recursive(3, 16, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
                inner.prop_map(|e| Expr::Not(Box::new(e))),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any generated policy renders to source that parses back to the
        /// identical AST.
        #[test]
        fn policy_language_round_trips(
            expr in expr_strategy(),
            kind in prop_oneof![Just(ActionKind::Block), Just(ActionKind::Throttle), Just(ActionKind::Log)],
            dur in prop::option::of(1u64..600),
            sev in prop_oneof![Just(Severity::Low), Just(Severity::Medium), Just(Severity::High)],
        ) {
            let action = match kind {
                ActionKind::Block => "block",
                ActionKind::Throttle => "throttle",
                ActionKind::Log => "log",
            };
            let mut src = format!("policy p {{ when {} then {}", render_expr(&expr), action);
            if let Some(d) = dur {
                src.push_str(&format!(" for {d}s"));
            }
            src.push_str(match sev {
                Severity::Low => " severity low",
                Severity::Medium => " severity medium",
                Severity::High => " severity high",
            });
            src.push_str(" }");

            let set = PolicySet::parse(&src).expect("generated policy parses");
            prop_assert_eq!(set.policies.len(), 1);
            let p = &set.policies[0];
            prop_assert_eq!(&p.when, &expr);
            prop_assert_eq!(p.action.kind, kind);
            prop_assert_eq!(p.action.duration, dur.map(SimDuration::from_secs));
            prop_assert_eq!(p.action.severity, sev);
        }
    }
}

// ---------------------------------------------------------------------
// Burst cache conservation
// ---------------------------------------------------------------------

mod cache_conservation {
    use proptest::prelude::*;
    use sads_monitor::BurstCache;
    use sads_sim::SimTime;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// accepted == drained + backlog, FIFO order preserved, drops only
        /// at capacity.
        #[test]
        fn burst_cache_conserves_records(
            capacity in 0usize..64,
            rate in 1.0f64..1000.0,
            steps in prop::collection::vec((0usize..32, 1u64..2000), 1..30),
        ) {
            let mut cache: BurstCache<u64> = BurstCache::new(capacity, rate, SimTime::ZERO);
            let mut now = 0u64;
            let mut next_item = 0u64;
            // Reference queue of the items the cache accepted, in order.
            let mut model: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
            for (offer_n, advance_ms) in steps {
                for _ in 0..offer_n {
                    let before = cache.backlog();
                    let ok = cache.offer(next_item);
                    if ok {
                        model.push_back(next_item);
                    } else {
                        prop_assert_eq!(before, capacity, "drops only at capacity");
                    }
                    next_item += 1;
                }
                now += advance_ms * 1_000_000;
                let out = cache.drain(SimTime(now));
                for item in out {
                    let want = model.pop_front();
                    prop_assert_eq!(Some(item), want, "FIFO order");
                }
            }
            prop_assert_eq!(cache.backlog(), model.len(), "backlog matches the model");
            prop_assert_eq!(cache.accepted(), cache.drained() + cache.backlog() as u64);
            prop_assert_eq!(cache.accepted() + cache.dropped(), next_item);
        }
    }
}

// ---------------------------------------------------------------------
// Stalled-write no-op repair
// ---------------------------------------------------------------------

mod repair_equivalence {
    use super::*;
    use sads::blob::meta::MetaNode;
    use sads::blob::model::ChunkDescriptor;

    /// Build the no-op tree for a "dead" version exactly like the recovery
    /// agent does: old leaves re-emitted (tombstones for holes) under the
    /// dead version number.
    fn repair(
        store: &mut MetaStore,
        base_root: Option<NodeRef>,
        base_version: u64,
        base_size: u64,
        dead_version: u64,
        interval: PageInterval,
        new_size: u64,
    ) -> NodeRef {
        // Read the old leaves.
        let mut reader = TreeReader::new(BLOB, base_root, interval);
        while !reader.is_done() {
            for k in reader.needed_fetches() {
                let n = store.get(&k).expect("old node").clone();
                reader.supply(k, &n);
            }
        }
        let mut chunks: Vec<ChunkDescriptor> = reader
            .into_sources()
            .into_iter()
            .map(|src| match src {
                PageSource::Chunk(c) => c,
                PageSource::Hole { page } => ChunkDescriptor {
                    key: ChunkKey { blob: BLOB, version: VersionId(dead_version), page },
                    replicas: vec![],
                    size: 0,
                },
            })
            .collect();
        chunks.sort_by_key(|c| c.key.page);
        let mut b = TreeBuilder::new(
            BLOB,
            VersionId(dead_version),
            interval,
            PAGE,
            new_size,
            BaseSnapshot {
                version: VersionId(base_version),
                size: base_size,
                root: base_root,
            },
            vec![],
        );
        while !b.is_ready() {
            for k in b.needed_fetches() {
                let n = store.get(&k).expect("resolve node").clone();
                b.supply(k, &n);
            }
        }
        let (nodes, root) = b.build(&chunks);
        for (k, n) in nodes {
            store.put(k, n);
        }
        root
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Kill a random writer in a sequential history, repair it as a
        /// no-op, continue writing — every surviving version reads as if
        /// the dead write never happened. Tombstone leaves resolve as
        /// holes (empty replica sets).
        #[test]
        fn no_op_repair_is_equivalent_to_skipping_the_write(
            writes in write_strategy(),
            dead_idx_seed in 0usize..64,
        ) {
            let n = writes.len();
            let dead_idx = dead_idx_seed % n;
            let mut store = MetaStore::new();
            let mut roots: Vec<Option<NodeRef>> = vec![None];
            let mut sizes: Vec<u64> = vec![0];
            let intervals: Vec<PageInterval> =
                writes.iter().map(|(s, l)| PageInterval::new(*s, *l)).collect();

            for (i, w) in intervals.iter().enumerate() {
                let v = i as u64 + 1;
                let new_size = sizes[i].max(w.end() * PAGE);
                let base = BaseSnapshot {
                    version: VersionId(i as u64),
                    size: sizes[i],
                    root: roots[i],
                };
                let root = if i == dead_idx {
                    // The writer died: the recovery agent publishes a no-op.
                    repair(&mut store, roots[i], i as u64, sizes[i], v, *w, new_size)
                } else {
                    run_builder(
                        &mut store,
                        TreeBuilder::new(BLOB, VersionId(v), *w, PAGE, new_size, base, vec![]),
                    )
                };
                roots.push(Some(root));
                sizes.push(new_size);
            }

            // Reference: the dead write is a no-op but still occupies a
            // version slot. A page owned by the dead version reads as its
            // previous owner.
            for (i, root) in roots.iter().enumerate().skip(1) {
                let pages = sizes[i] / PAGE;
                let mut r = TreeReader::new(BLOB, *root, PageInterval::new(0, pages));
                while !r.is_done() {
                    for k in r.needed_fetches() {
                        let node = store.get(&k).expect("node").clone();
                        r.supply(k, &node);
                    }
                }
                // Expected owner per page: replay writes 1..=i skipping the
                // dead one.
                let mut owner = vec![None; pages as usize];
                for (j, w) in intervals.iter().take(i).enumerate() {
                    if j == dead_idx {
                        continue;
                    }
                    for p in w.start..w.end().min(pages) {
                        owner[p as usize] = Some(j as u64 + 1);
                    }
                }
                for src in r.into_sources() {
                    let page = src.page() as usize;
                    match src {
                        PageSource::Hole { .. } => prop_assert_eq!(owner[page], None),
                        PageSource::Chunk(c) => {
                            if c.replicas.is_empty() {
                                // Tombstone: pre-dead hole re-emitted.
                                prop_assert_eq!(owner[page], None, "v{} page {}", i, page);
                            } else {
                                prop_assert_eq!(
                                    Some(c.key.version.0),
                                    owner[page],
                                    "v{} page {}",
                                    i,
                                    page
                                );
                            }
                        }
                    }
                }
                // Structural sanity: the dead version's own nodes exist.
                if i > dead_idx {
                    let dead_v = VersionId(dead_idx as u64 + 1);
                    let some_node = store
                        .keys()
                        .any(|k| k.version == dead_v && matches!(store.get(&k), Some(MetaNode::Inner { .. }) | Some(MetaNode::Leaf { .. })));
                    prop_assert!(some_node, "repair materialized v{}'s nodes", dead_v.0);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Batched read path ≡ sequential reference reader (threaded runtime).
// ---------------------------------------------------------------------

mod batched_read_equivalence {
    use super::*;
    use bytes::Bytes;
    use sads::blob::client::ClientConfig;
    use sads::blob::runtime::threaded::{ClientHandle, ClusterBuilder};

    const RPAGE: u64 = 64;

    /// Deterministic junk bytes for one write.
    fn fill(seed: u64, len: u64) -> Bytes {
        Bytes::from(
            (0..len)
                .map(|i| (seed.wrapping_mul(131).wrapping_add(i.wrapping_mul(7)) % 251) as u8)
                .collect::<Vec<u8>>(),
        )
    }

    /// Run one writer's list on its own thread, reporting where each
    /// write landed in the published total order.
    fn spawn_writer(
        h: ClientHandle,
        blob: BlobId,
        list: Vec<(u64, u64, u64)>,
    ) -> std::thread::JoinHandle<Vec<(VersionId, u64, Bytes)>> {
        std::thread::spawn(move || {
            list.into_iter()
                .map(|(page0, pages, seed)| {
                    let offset = page0 * RPAGE;
                    let data = fill(seed, pages * RPAGE);
                    let v = h.write(blob, offset, data.clone()).expect("write");
                    (v, offset, data)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Random pinned-version reads through the batched read path
        /// (bulk metadata descent + per-provider chunk batches) return
        /// byte-for-byte what a page-overlay reference model predicts,
        /// and byte-for-byte what a reference client forced onto the
        /// sequential one-chunk-per-request protocol returns — with two
        /// writers racing their version publications.
        #[test]
        fn batched_reads_match_sequential_reference(
            writes in proptest::collection::vec((0u64..24, 1u64..6, 0u64..1000), 2..9),
            reads in proptest::collection::vec((0u64..10_000, 1u64..2048, 0usize..64), 8..9),
        ) {
            let mut cluster = ClusterBuilder::new()
                .data_providers(4)
                .meta_providers(2)
                .start();
            let w1 = cluster.client(ClientId(1));
            let w2 = cluster.client(ClientId(2));
            let batched = cluster.client(ClientId(3));
            let sequential = cluster.client_with_config(
                ClientId(4),
                ClientConfig {
                    materialize_zeros: true,
                    meta_range_fetch: false,
                    chunk_window: 1,
                    ..ClientConfig::default()
                },
            );
            let blob = w1.create(BlobSpec { page_size: RPAGE, replication: 2 }).expect("create");

            // Two writers race; the version manager serializes
            // publication and each returned VersionId pins the write's
            // slot in the total order.
            let (la, lb): (Vec<_>, Vec<_>) =
                writes.iter().enumerate().partition(|(i, _)| i % 2 == 0);
            let ta = spawn_writer(w1, blob, la.into_iter().map(|(_, w)| *w).collect());
            let tb = spawn_writer(w2, blob, lb.into_iter().map(|(_, w)| *w).collect());
            let mut committed: Vec<(VersionId, u64, Bytes)> = ta.join().expect("writer a");
            committed.extend(tb.join().expect("writer b"));
            committed.sort_by_key(|(v, _, _)| *v);

            // Page-overlay reference model, one snapshot per version.
            let mut snapshots: Vec<Vec<u8>> = Vec::new();
            let mut cur: Vec<u8> = Vec::new();
            for (_, offset, data) in &committed {
                let end = *offset as usize + data.len();
                if cur.len() < end {
                    cur.resize(end, 0);
                }
                cur[*offset as usize..end].copy_from_slice(data);
                snapshots.push(cur.clone());
            }

            for (o, l, vi) in reads {
                let vi = vi % snapshots.len();
                let version = committed[vi].0;
                let snap = &snapshots[vi];
                let size = snap.len() as u64;
                let offset = o % size;
                let len = 1 + l % (size - offset);
                let expect = &snap[offset as usize..(offset + len) as usize];
                let via_batch =
                    batched.read(blob, Some(version), offset, len).expect("batched read");
                let via_seq = sequential
                    .read(blob, Some(version), offset, len)
                    .expect("sequential read");
                prop_assert_eq!(
                    via_batch.as_ref(), expect,
                    "batched path diverged from model at v{} [{}, {})",
                    version.0, offset, offset + len
                );
                prop_assert_eq!(
                    via_seq.as_ref(), expect,
                    "sequential path diverged from model at v{} [{}, {})",
                    version.0, offset, offset + len
                );
            }
            cluster.shutdown();
        }
    }
}
