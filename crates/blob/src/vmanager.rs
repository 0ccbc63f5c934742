//! Version manager logic: BLOB creation, write ticketing and strictly
//! ordered version publication (paper §III-A: "the version manager deals
//! with the serialization of the concurrent requests and publishes a new
//! BLOB version for each write operation").
//!
//! This module is pure state-machine logic: the service wrapper that talks
//! RPC lives in [`crate::services`], and the same code backs the threaded
//! and simulated runtimes.
//!
//! It is also the one owner of the **GC root** rule
//! ([`BlobState::is_root`]): which versions must stay readable. The same
//! test grants snapshot pins, refuses record retirement, and selects the
//! roots the lifecycle sweeper plans against, so a pin can only land on
//! a version no sweep may collect.

use std::collections::{BTreeMap, BTreeSet};

use sads_sim::{FastMap, SimDuration, SimTime};

use crate::meta::{BaseSnapshot, NodeRef, PendingWrite};
use crate::model::{BlobError, BlobId, BlobSpec, ClientId, PageInterval, VersionId, VersionInfo};

/// Everything a writer needs to proceed independently: its version number,
/// the base snapshot to build against, and the pending writes it must
/// forward-reference.
#[derive(Clone, Debug, PartialEq)]
pub struct WriteTicket {
    /// Target BLOB.
    pub blob: BlobId,
    /// The version this write will publish.
    pub version: VersionId,
    /// Byte offset of the write (assigned for appends).
    pub offset: u64,
    /// Byte length of the write.
    pub len: u64,
    /// BLOB page size (bytes).
    pub page_size: u64,
    /// Replication degree for new chunks.
    pub replication: u32,
    /// BLOB size after this write publishes.
    pub new_size: u64,
    /// Latest published snapshot at ticket time.
    pub base: BaseSnapshot,
    /// Unpublished writes ordered before this one.
    pub pending: Vec<PendingWrite>,
}

impl WriteTicket {
    /// The write interval in pages.
    pub fn interval(&self) -> PageInterval {
        PageInterval::new(self.offset / self.page_size, self.len / self.page_size)
    }
}

/// A ticketed write whose writer has gone silent, in publishable position
/// (its predecessor is published) — everything a recovery agent needs to
/// publish it as a no-op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StalledWrite {
    /// The BLOB.
    pub blob: BlobId,
    /// The stalled version.
    pub version: VersionId,
    /// Pages the dead writer claimed.
    pub interval: PageInterval,
    /// Projected BLOB size after this version.
    pub new_size: u64,
    /// BLOB page size.
    pub page_size: u64,
}

/// Compact catalog entry shipped to the adaptive layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VersionSummary {
    /// The version number.
    pub version: VersionId,
    /// BLOB size as of this version.
    pub size: u64,
    /// Pages the version wrote.
    pub interval: PageInterval,
}

/// Retention policy: which published versions stay readable, and so pin
/// their chunks and tree nodes as GC roots. Fixed per install; without
/// a lifecycle layer the version manager runs [`RetentionPolicy::KeepAll`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetentionPolicy {
    /// Every published version is a root; only decommissioning reclaims.
    KeepAll,
    /// The newest `n` published versions are roots (at least the
    /// latest, even for `n = 0`). Snapshots stay roots regardless.
    KeepLastN(usize),
    /// Only snapshots (and the latest version) are roots: the archival
    /// policy for churning scratch data with explicit save points.
    KeepSnapshots,
    /// Versions published within this window of the version manager's
    /// clock are roots, beside snapshots and the latest: the paper's
    /// "temporary data" strategy — whatever nobody pinned ages out once
    /// something newer supersedes it.
    KeepNewerThan(SimDuration),
}

/// A version that has been published and can be read.
#[derive(Clone, Debug)]
pub struct PublishedVersion {
    /// The version number.
    pub version: VersionId,
    /// BLOB size as of this version.
    pub size: u64,
    /// Metadata tree root (`None` only for the initial empty version).
    pub root: Option<NodeRef>,
    /// Pages this version wrote (empty for v0).
    pub interval: PageInterval,
    /// Publication time.
    pub published_at: SimTime,
    /// Who wrote it.
    pub writer: Option<ClientId>,
}

#[derive(Clone, Debug)]
struct PendingEntry {
    interval: PageInterval,
    size_after: u64,
    client: ClientId,
    issued_at: SimTime,
    /// Set once the writer commits; published when all predecessors are.
    committed: Option<(NodeRef, u64)>,
}

/// Per-BLOB version-manager state.
#[derive(Debug)]
pub struct BlobState {
    /// Immutable creation parameters.
    pub spec: BlobSpec,
    /// Published versions, keyed by number (always contains v0).
    published: BTreeMap<VersionId, PublishedVersion>,
    /// Highest published version.
    last_published: VersionId,
    /// Highest ticketed version.
    last_ticketed: VersionId,
    /// Size the BLOB will have once every ticketed write publishes.
    projected_size: u64,
    /// Ticketed-but-unpublished writes.
    pending: BTreeMap<VersionId, PendingEntry>,
    /// Versions pinned as snapshots (GC roots whatever the policy).
    snapshots: BTreeSet<VersionId>,
    /// Decommissioned BLOBs keep their record (ids are never reused) but
    /// no version of theirs is a GC root any more.
    decommissioned: bool,
}

impl BlobState {
    fn new(spec: BlobSpec, now: SimTime) -> Self {
        let mut published = BTreeMap::new();
        published.insert(
            VersionId::INITIAL,
            PublishedVersion {
                version: VersionId::INITIAL,
                size: 0,
                root: None,
                interval: PageInterval::EMPTY,
                published_at: now,
                writer: None,
            },
        );
        BlobState {
            spec,
            published,
            last_published: VersionId::INITIAL,
            last_ticketed: VersionId::INITIAL,
            projected_size: 0,
            pending: BTreeMap::new(),
            snapshots: BTreeSet::new(),
            decommissioned: false,
        }
    }

    /// The latest published version. (After a decommission the sweeper
    /// may forget the highest version; the greatest remaining record —
    /// ultimately v0 — then stands in, so readers degrade gracefully
    /// while reclamation drains.)
    pub fn latest(&self) -> &PublishedVersion {
        self.published
            .get(&self.last_published)
            .unwrap_or_else(|| self.published.values().next_back().expect("v0 always present"))
    }

    /// A specific published version.
    pub fn version(&self, v: VersionId) -> Option<&PublishedVersion> {
        self.published.get(&v)
    }

    /// Iterate all published versions in order.
    pub fn versions(&self) -> impl Iterator<Item = &PublishedVersion> {
        self.published.values()
    }

    /// The catalog the lifecycle sweeper plans against, in order.
    pub fn catalog(&self) -> Vec<VersionSummary> {
        self.published
            .values()
            .map(|v| VersionSummary { version: v.version, size: v.size, interval: v.interval })
            .collect()
    }

    /// Number of unpublished ticketed writes.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Whether `v` is a GC root under `policy` at `now`: a published
    /// version the policy keeps, a snapshot, or the latest — and nothing
    /// once the BLOB is decommissioned. O(log n). Between a sweep's
    /// catalog and its deletes the roots only shrink: pins land only on
    /// roots, `KeepLastN`'s window and `KeepNewerThan`'s clock only drop
    /// versions, and a publication is newer than whatever overwrote a
    /// planned item, so it reaches none.
    pub fn is_root(&self, v: VersionId, policy: RetentionPolicy, now: SimTime) -> bool {
        let Some(rec) = self.published.get(&v) else { return false };
        !self.decommissioned
            && (v == self.last_published
                || self.snapshots.contains(&v)
                || match policy {
                    RetentionPolicy::KeepAll => true,
                    // Published numbers are contiguous and the window's
                    // versions are never forgotten, so it is a suffix.
                    RetentionPolicy::KeepLastN(n) => v.0 + n.max(1) as u64 > self.last_published.0,
                    RetentionPolicy::KeepSnapshots => false,
                    RetentionPolicy::KeepNewerThan(window) => now.since(rec.published_at) <= window,
                })
    }

    /// The GC roots the sweeper plans against, ascending. v0 owns no
    /// items, so it is never reported.
    pub fn roots(&self, policy: RetentionPolicy, now: SimTime) -> Vec<VersionId> {
        let after_v0 = self.published.keys().skip(1).copied();
        after_v0.filter(|v| self.is_root(*v, policy, now)).collect()
    }

    /// Remove a published version's record (the lifecycle sweeper calls
    /// this after deleting its chunks and nodes). v0 and roots are never
    /// removable.
    pub fn forget_version(&mut self, v: VersionId, policy: RetentionPolicy, now: SimTime) -> bool {
        if v == VersionId::INITIAL || self.is_root(v, policy, now) {
            return false;
        }
        self.published.remove(&v).is_some()
    }

    /// Pin a version as a snapshot — an O(1) metadata-only operation; the
    /// version's whole segment tree is shared, not copied. Granted only
    /// on a root, so nothing a sweep planned is ever pinned; the latest
    /// always qualifies. Idempotent.
    pub fn snapshot(&mut self, v: VersionId, policy: RetentionPolicy, now: SimTime) -> bool {
        if !self.is_root(v, policy, now) {
            return false;
        }
        self.snapshots.insert(v);
        true
    }

    /// Mark the BLOB decommissioned: every version (snapshots and the
    /// latest included) stops being a root, so the lifecycle sweeper
    /// reclaims them all. The record itself stays so the id is never
    /// reused.
    pub fn decommission(&mut self) {
        self.decommissioned = true;
    }
}

/// How a client addresses a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    /// Write at an explicit byte offset.
    At(u64),
    /// Append after all currently ticketed writes.
    Append,
}

/// The version manager's full state.
#[derive(Debug, Default)]
pub struct VersionManagerState {
    blobs: FastMap<BlobId, BlobState>,
    next_blob: u64,
}

impl VersionManagerState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a new BLOB; returns its id.
    pub fn create_blob(&mut self, spec: BlobSpec, now: SimTime) -> BlobId {
        self.next_blob += 1;
        let id = BlobId(self.next_blob);
        self.blobs.insert(id, BlobState::new(spec, now));
        id
    }

    /// Access one BLOB's state.
    pub fn blob(&self, id: BlobId) -> Option<&BlobState> {
        self.blobs.get(&id)
    }

    /// Mutable access (removal strategies).
    pub fn blob_mut(&mut self, id: BlobId) -> Option<&mut BlobState> {
        self.blobs.get_mut(&id)
    }

    /// All blob ids.
    pub fn blob_ids(&self) -> Vec<BlobId> {
        let mut v: Vec<BlobId> = self.blobs.keys().copied().collect();
        v.sort();
        v
    }

    /// Issue a write ticket: assigns the next version number, snapshots
    /// the pending set, and projects the new size.
    pub fn ticket(
        &mut self,
        blob: BlobId,
        kind: WriteKind,
        len: u64,
        client: ClientId,
        now: SimTime,
    ) -> Result<WriteTicket, BlobError> {
        let st = self.blobs.get_mut(&blob).ok_or(BlobError::UnknownBlob(blob))?;
        if st.decommissioned {
            // A deleted object's backing BLOB takes no new writes; the
            // id is never reused, so the caller sees it as gone.
            return Err(BlobError::UnknownBlob(blob));
        }
        let page = st.spec.page_size;
        if len == 0 {
            return Err(BlobError::EmptyWrite);
        }
        let offset = match kind {
            WriteKind::At(o) => o,
            // Appends land after every write ticketed so far, rounded up
            // to a page boundary (sizes are always page multiples here).
            WriteKind::Append => st.projected_size,
        };
        if !offset.is_multiple_of(page) || !len.is_multiple_of(page) {
            return Err(BlobError::Misaligned { offset, len, page_size: page });
        }
        let version = st.last_ticketed.next();
        st.last_ticketed = version;
        let new_size = st.projected_size.max(offset + len);
        st.projected_size = new_size;

        let base = {
            let latest = st.latest();
            BaseSnapshot { version: latest.version, size: latest.size, root: latest.root }
        };
        let pending: Vec<PendingWrite> = st
            .pending
            .iter()
            .map(|(v, p)| PendingWrite {
                version: *v,
                interval: p.interval,
                size_after: p.size_after,
            })
            .collect();

        let interval = PageInterval::new(offset / page, len / page);
        st.pending.insert(
            version,
            PendingEntry {
                interval,
                size_after: new_size,
                client,
                issued_at: now,
                committed: None,
            },
        );

        Ok(WriteTicket {
            blob,
            version,
            offset,
            len,
            page_size: page,
            replication: st.spec.replication,
            new_size,
            base,
            pending,
        })
    }

    /// Record that version `v`'s writer finished storing chunks and
    /// metadata. Publication is strictly ordered: `v` becomes visible only
    /// when `v-1` is published. Returns every version published *by this
    /// call* (a commit can unblock a queue of successors), with the writer
    /// to acknowledge.
    pub fn commit(
        &mut self,
        blob: BlobId,
        v: VersionId,
        root: NodeRef,
        size: u64,
        now: SimTime,
    ) -> Result<Vec<(VersionId, ClientId)>, BlobError> {
        let st = self.blobs.get_mut(&blob).ok_or(BlobError::UnknownBlob(blob))?;
        let entry = st.pending.get_mut(&v).ok_or(BlobError::UnknownVersion(blob, v))?;
        entry.committed = Some((root, size));

        let mut published = Vec::new();
        // Publish the longest committed prefix following last_published.
        loop {
            let next = st.last_published.next();
            let Some(e) = st.pending.get(&next) else { break };
            let Some((root, size)) = e.committed else { break };
            let e = st.pending.remove(&next).expect("present");
            st.published.insert(
                next,
                PublishedVersion {
                    version: next,
                    size,
                    root: Some(root),
                    interval: e.interval,
                    published_at: now,
                    writer: Some(e.client),
                },
            );
            st.last_published = next;
            published.push((next, e.client));
        }
        Ok(published)
    }

    /// The latest published version of a BLOB, as a compact info record.
    pub fn latest_info(&self, blob: BlobId) -> Result<VersionInfo, BlobError> {
        let st = self.blobs.get(&blob).ok_or(BlobError::UnknownBlob(blob))?;
        let v = st.latest();
        Ok(VersionInfo { version: v.version, size: v.size, page_size: st.spec.page_size, root: v.root })
    }

    /// Info for a specific published version.
    pub fn version_info(&self, blob: BlobId, v: VersionId) -> Result<VersionInfo, BlobError> {
        let st = self.blobs.get(&blob).ok_or(BlobError::UnknownBlob(blob))?;
        let rec = st.version(v).ok_or(BlobError::UnknownVersion(blob, v))?;
        Ok(VersionInfo {
            version: rec.version,
            size: rec.size,
            page_size: st.spec.page_size,
            root: rec.root,
        })
    }

    /// Stalled writes that are *actionable*: uncommitted past `timeout`
    /// AND next in publication order (their predecessor is published), so
    /// a recovery agent can publish them as no-ops immediately.
    pub fn actionable_stalled(
        &self,
        now: SimTime,
        timeout: SimDuration,
    ) -> Vec<StalledWrite> {
        let mut out = Vec::new();
        for (id, st) in &self.blobs {
            let next = st.last_published.next();
            if let Some(p) = st.pending.get(&next) {
                if p.committed.is_none() && now.since(p.issued_at) > timeout {
                    out.push(StalledWrite {
                        blob: *id,
                        version: next,
                        interval: p.interval,
                        new_size: p.size_after,
                        page_size: st.spec.page_size,
                    });
                }
            }
        }
        out.sort_by_key(|s| (s.blob, s.version));
        out
    }

    /// Tickets older than `timeout` whose writers never committed. These
    /// stall publication of every later version of the same BLOB: the
    /// caller surfaces them (monitoring raises `vman.stalled_writes`).
    pub fn stalled_tickets(
        &self,
        now: SimTime,
        timeout: SimDuration,
    ) -> Vec<(BlobId, VersionId, ClientId)> {
        let mut out = Vec::new();
        for (id, st) in &self.blobs {
            for (v, p) in &st.pending {
                if p.committed.is_none() && now.since(p.issued_at) > timeout {
                    out.push((*id, *v, p.client));
                }
            }
        }
        out.sort_by_key(|(b, v, _)| (*b, *v));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::NodeRange;

    const PAGE: u64 = 8;

    fn spec() -> BlobSpec {
        BlobSpec { page_size: PAGE, replication: 1 }
    }

    fn root_ref(v: u64, pages: u64) -> NodeRef {
        NodeRef::Node { version: VersionId(v), range: NodeRange::root_for(pages) }
    }

    fn t(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    #[test]
    fn create_and_initial_version() {
        let mut vm = VersionManagerState::new();
        let b = vm.create_blob(spec(), t(0));
        let info = vm.latest_info(b).unwrap();
        assert_eq!(info.version, VersionId::INITIAL);
        assert_eq!(info.size, 0);
        assert!(info.root.is_none());
        assert!(vm.latest_info(BlobId(99)).is_err());
    }

    #[test]
    fn ticket_validates_alignment_and_emptiness() {
        let mut vm = VersionManagerState::new();
        let b = vm.create_blob(spec(), t(0));
        let c = ClientId(1);
        assert!(matches!(
            vm.ticket(b, WriteKind::At(3), PAGE, c, t(0)),
            Err(BlobError::Misaligned { .. })
        ));
        assert!(matches!(
            vm.ticket(b, WriteKind::At(0), 3, c, t(0)),
            Err(BlobError::Misaligned { .. })
        ));
        assert!(matches!(vm.ticket(b, WriteKind::At(0), 0, c, t(0)), Err(BlobError::EmptyWrite)));
    }

    #[test]
    fn append_offsets_stack_on_projected_size() {
        let mut vm = VersionManagerState::new();
        let b = vm.create_blob(spec(), t(0));
        let c = ClientId(1);
        let t1 = vm.ticket(b, WriteKind::Append, 2 * PAGE, c, t(0)).unwrap();
        let t2 = vm.ticket(b, WriteKind::Append, PAGE, c, t(0)).unwrap();
        assert_eq!(t1.offset, 0);
        assert_eq!(t2.offset, 2 * PAGE, "second append stacks after the first, unpublished one");
        assert_eq!(t2.pending.len(), 1);
        assert_eq!(t2.pending[0].version, t1.version);
        assert_eq!(t2.pending[0].interval, PageInterval::new(0, 2));
        assert_eq!(t2.new_size, 3 * PAGE);
    }

    #[test]
    fn publication_is_strictly_ordered() {
        let mut vm = VersionManagerState::new();
        let b = vm.create_blob(spec(), t(0));
        let c1 = ClientId(1);
        let c2 = ClientId(2);
        let t1 = vm.ticket(b, WriteKind::At(0), PAGE, c1, t(0)).unwrap();
        let t2 = vm.ticket(b, WriteKind::At(PAGE), PAGE, c2, t(0)).unwrap();
        // v2 commits first: nothing publishes yet.
        let pubs = vm.commit(b, t2.version, root_ref(2, 2), 2 * PAGE, t(1)).unwrap();
        assert!(pubs.is_empty());
        assert_eq!(vm.latest_info(b).unwrap().version, VersionId::INITIAL);
        // v1 commits: both publish, in order, acking both writers.
        let pubs = vm.commit(b, t1.version, root_ref(1, 1), PAGE, t(2)).unwrap();
        assert_eq!(pubs, vec![(VersionId(1), c1), (VersionId(2), c2)]);
        let info = vm.latest_info(b).unwrap();
        assert_eq!(info.version, VersionId(2));
        assert_eq!(info.size, 2 * PAGE);
    }

    #[test]
    fn later_ticket_sees_published_base_not_pending_one() {
        let mut vm = VersionManagerState::new();
        let b = vm.create_blob(spec(), t(0));
        let c = ClientId(1);
        let t1 = vm.ticket(b, WriteKind::At(0), PAGE, c, t(0)).unwrap();
        vm.commit(b, t1.version, root_ref(1, 1), PAGE, t(1)).unwrap();
        let t2 = vm.ticket(b, WriteKind::At(0), PAGE, c, t(2)).unwrap();
        assert_eq!(t2.base.version, VersionId(1));
        assert!(t2.pending.is_empty());
        assert_eq!(t2.base.root, Some(root_ref(1, 1)));
    }

    #[test]
    fn version_info_by_number_and_snapshot_isolation() {
        let mut vm = VersionManagerState::new();
        let b = vm.create_blob(spec(), t(0));
        let c = ClientId(1);
        let t1 = vm.ticket(b, WriteKind::At(0), PAGE, c, t(0)).unwrap();
        vm.commit(b, t1.version, root_ref(1, 1), PAGE, t(1)).unwrap();
        let t2 = vm.ticket(b, WriteKind::At(0), 2 * PAGE, c, t(2)).unwrap();
        vm.commit(b, t2.version, root_ref(2, 2), 2 * PAGE, t(3)).unwrap();
        assert_eq!(vm.version_info(b, VersionId(1)).unwrap().size, PAGE);
        assert_eq!(vm.version_info(b, VersionId(2)).unwrap().size, 2 * PAGE);
        assert!(vm.version_info(b, VersionId(9)).is_err());
    }

    #[test]
    fn stalled_tickets_are_reported() {
        let mut vm = VersionManagerState::new();
        let b = vm.create_blob(spec(), t(0));
        let c = ClientId(7);
        let tk = vm.ticket(b, WriteKind::At(0), PAGE, c, t(0)).unwrap();
        assert!(vm.stalled_tickets(t(5), SimDuration::from_secs(10)).is_empty());
        let stalled = vm.stalled_tickets(t(20), SimDuration::from_secs(10));
        assert_eq!(stalled, vec![(b, tk.version, c)]);
        // Committing clears the stall.
        vm.commit(b, tk.version, root_ref(1, 1), PAGE, t(21)).unwrap();
        assert!(vm.stalled_tickets(t(40), SimDuration::from_secs(10)).is_empty());
    }

    /// `n` overwrites of page 0; version k publishes at k seconds.
    fn overwrites(n: u64) -> (VersionManagerState, BlobId) {
        let mut vm = VersionManagerState::new();
        let b = vm.create_blob(spec(), t(0));
        for k in 1..=n {
            let tk = vm.ticket(b, WriteKind::At(0), PAGE, ClientId(1), t(k)).unwrap();
            vm.commit(b, tk.version, root_ref(k, 1), PAGE, t(k)).unwrap();
        }
        (vm, b)
    }

    fn ids(vs: &[u64]) -> Vec<VersionId> {
        vs.iter().copied().map(VersionId).collect()
    }

    #[test]
    fn roots_follow_the_policy() {
        use RetentionPolicy::*;
        let (mut vm, b) = overwrites(3);
        let st = vm.blob_mut(b).unwrap();
        assert_eq!(st.roots(KeepAll, t(10)), ids(&[1, 2, 3]), "v0 is never reported");
        assert_eq!(st.roots(KeepLastN(2), t(10)), ids(&[2, 3]));
        assert_eq!(st.roots(KeepLastN(0), t(10)), ids(&[3]), "the latest, even for n = 0");
        assert_eq!(st.roots(KeepLastN(10), t(10)), ids(&[1, 2, 3]));
        assert_eq!(st.roots(KeepSnapshots, t(10)), ids(&[3]));
        // Age runs from publication (v at v s) to the clock (10 s): v1
        // has left an 8 s window, v2 and v3 have not. A window nothing
        // falls in leaves the pins and the latest, however old.
        let newer = |s| KeepNewerThan(SimDuration::from_secs(s));
        assert_eq!(st.roots(newer(8), t(10)), ids(&[2, 3]));
        assert!(st.snapshot(VersionId(1), KeepAll, t(10)));
        assert_eq!(st.roots(newer(1), t(10)), ids(&[1, 3]));
        assert_eq!(st.roots(KeepSnapshots, t(10)), ids(&[1, 3]));
        assert!(st.is_root(VersionId::INITIAL, KeepAll, t(10)), "v0 is kept, not reported");
        assert!(!st.is_root(VersionId(9), KeepAll, t(10)), "unpublished versions are not");
    }

    #[test]
    fn forget_version_protects_latest_and_initial() {
        use RetentionPolicy::*;
        let (mut vm, b) = overwrites(3);
        let st = vm.blob_mut(b).unwrap();
        assert!(!st.forget_version(VersionId::INITIAL, KeepSnapshots, t(10)));
        assert!(!st.forget_version(VersionId(3), KeepSnapshots, t(10)), "latest is a root");
        assert!(!st.forget_version(VersionId(1), KeepAll, t(10)), "KeepAll keeps everything");
        assert!(!st.forget_version(VersionId(2), KeepLastN(2), t(10)), "inside the window");
        assert!(st.forget_version(VersionId(1), KeepLastN(2), t(10)));
        assert!(st.version(VersionId(1)).is_none());
        assert!(st.version(VersionId(2)).is_some());
        assert!(!st.forget_version(VersionId(1), KeepSnapshots, t(10)), "already gone");
    }

    #[test]
    fn snapshots_pin_versions_against_forget() {
        use RetentionPolicy::*;
        let (mut vm, b) = overwrites(3);
        let st = vm.blob_mut(b).unwrap();
        assert!(!st.snapshot(VersionId(1), KeepLastN(1), t(10)), "outside the window");
        assert!(!st.snapshot(VersionId(9), KeepAll, t(10)), "unpublished versions are no roots");
        assert!(st.snapshot(VersionId(3), KeepSnapshots, t(10)), "the latest always can");
        assert!(st.snapshot(VersionId(1), KeepAll, t(10)));
        assert!(st.snapshot(VersionId(1), KeepSnapshots, t(10)), "snapshot is idempotent");
        assert!(!st.forget_version(VersionId(1), KeepSnapshots, t(10)), "snapshots are roots");
        assert!(st.forget_version(VersionId(2), KeepSnapshots, t(10)), "unpinned middles collect");
        assert!(st.version(VersionId(1)).is_some());
    }

    #[test]
    fn decommission_unpins_everything_and_refuses_writes() {
        use RetentionPolicy::*;
        let (mut vm, b) = overwrites(2);
        let st = vm.blob_mut(b).unwrap();
        assert!(st.snapshot(VersionId(1), KeepAll, t(10)));
        st.decommission();
        assert!(st.roots(KeepAll, t(10)).is_empty(), "no version is a root any more");
        assert!(!st.snapshot(VersionId(2), KeepAll, t(10)), "no new pins after decommission");
        assert!(st.forget_version(VersionId(1), KeepAll, t(10)));
        assert!(st.forget_version(VersionId(2), KeepAll, t(10)), "even the latest collects");
        assert!(!st.forget_version(VersionId::INITIAL, KeepAll, t(10)), "v0 is the tombstone");
        assert_eq!(st.latest().version, VersionId::INITIAL, "latest degrades to v0");
        assert!(
            matches!(
                vm.ticket(b, WriteKind::At(0), PAGE, ClientId(1), t(11)),
                Err(BlobError::UnknownBlob(_))
            ),
            "decommissioned BLOBs take no new writes"
        );
    }

    #[test]
    fn ticket_interval_helper() {
        let mut vm = VersionManagerState::new();
        let b = vm.create_blob(spec(), t(0));
        let tk = vm.ticket(b, WriteKind::At(2 * PAGE), 3 * PAGE, ClientId(1), t(0)).unwrap();
        assert_eq!(tk.interval(), PageInterval::new(2, 3));
    }
}
