//! Data-provider storage: a bounded chunk store with access accounting
//! (feeding the introspection layer and the data-removal strategies),
//! optionally persisted through a durable [`ChunkBackend`].
//!
//! The store is sharded: keys stripe across independently locked shards
//! so concurrent readers and writers on different shards never contend.
//! All operations take `&self`, which lets one store be shared across
//! threads behind an `Arc` (the threaded runtime's data plane) while the
//! simulated runtime drives it single-threaded with zero semantic
//! difference. Byte payloads are reference-counted [`Payload`] views, so
//! a `get` hands back the stored bytes without copying them.
//!
//! Every payload is served from memory regardless of backend: the
//! backend is a durable log consulted on mutation (put/delete append a
//! record under the owning shard lock) and at open, when
//! [`ChunkStore::open`] replays the surviving chunk set back into the
//! shards. See [`crate::storage`] for the disk format and recovery
//! semantics.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use sads_sim::{FastMap, SimTime};

use crate::model::{BlobId, ChunkKey, Payload};
use crate::storage::{
    payload_crc, BackendConfig, BackendStats, ChunkBackend, MemoryBackend, RecoveryReport,
};

/// Number of lock stripes. A small power of two: enough to make chunk
/// operations from a handful of concurrent clients collision-free, small
/// enough that whole-store scans stay cheap.
const SHARDS: usize = 16;

/// Per-chunk bookkeeping kept alongside the payload.
#[derive(Debug, Clone, Copy)]
pub struct ChunkMeta {
    /// When the chunk was stored.
    pub stored_at: SimTime,
    /// Last read (or the store time if never read).
    pub last_access: SimTime,
    /// Number of reads served.
    pub reads: u64,
    /// CRC-32C of the payload recorded at store time — the writer's, from
    /// the put envelope, unless the store computed it
    /// ([`ChunkStore::put`]). The integrity scrub's ground truth for the
    /// in-memory copy, and what a repair relay carries to the new replica.
    pub crc: u32,
}

/// Result of verifying one stored chunk (see [`ChunkStore::verify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Both the in-memory payload and the durable record (when one
    /// exists) match their recorded checksums.
    Clean,
    /// A checksum mismatch — in memory or on the durable log.
    Corrupt,
}

/// Why a `put` was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutError {
    /// Not enough free capacity.
    Full,
}

#[derive(Debug, Default)]
struct Shard {
    chunks: FastMap<ChunkKey, (Payload, ChunkMeta)>,
}

/// Bounded chunk store — the storage engine of one data provider.
/// Sharded and internally synchronized; see the module docs.
#[derive(Debug)]
pub struct ChunkStore {
    capacity: u64,
    used: AtomicU64,
    items: AtomicU64,
    shards: Box<[Mutex<Shard>]>,
    /// Durable log beneath the shards. Appends happen while the owning
    /// shard lock is held, so per-key log order always matches the
    /// acknowledgment order (lock order is shard → backend everywhere).
    backend: Mutex<Box<dyn ChunkBackend>>,
    total_puts: AtomicU64,
    total_gets: AtomicU64,
    total_misses: AtomicU64,
}

fn shard_of(key: &ChunkKey) -> usize {
    // Pages of one blob version spread round-robin over the stripes;
    // mix in blob and version so distinct blobs do not collide in step.
    let h = key
        .page
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(key.blob.0.wrapping_mul(0x85eb_ca6b))
        .wrapping_add(key.version.0);
    (h as usize) & (SHARDS - 1)
}

impl ChunkStore {
    /// A store that can hold up to `capacity` bytes, with no durability
    /// (in-memory backend).
    pub fn new(capacity: u64) -> Self {
        ChunkStore {
            capacity,
            used: AtomicU64::new(0),
            items: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            backend: Mutex::new(Box::new(MemoryBackend)),
            total_puts: AtomicU64::new(0),
            total_gets: AtomicU64::new(0),
            total_misses: AtomicU64::new(0),
        }
    }

    /// Open a store over the configured backend, recovering whatever
    /// survived the last crash into the in-memory shards. Recovered
    /// chunks are stamped `now` and report zero reads. Returns the store
    /// and the backend's [`RecoveryReport`] (chunk list, quarantined and
    /// torn-record counts) so the owning service can re-announce its
    /// inventory.
    ///
    /// A backend that fails to open is a deployment error (bad
    /// directory, corrupt superblock) and panics: a provider must not
    /// come up half-durable.
    pub fn open(capacity: u64, backend: &BackendConfig, now: SimTime) -> (Self, RecoveryReport) {
        let mut backend = backend
            .build()
            .unwrap_or_else(|e| panic!("chunk backend failed to open ({backend:?}): {e}"));
        let report = backend.recover();
        let store = ChunkStore {
            capacity,
            used: AtomicU64::new(0),
            items: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            backend: Mutex::new(backend),
            total_puts: AtomicU64::new(0),
            total_gets: AtomicU64::new(0),
            total_misses: AtomicU64::new(0),
        };
        for ((key, data), crc) in report.chunks.iter().zip(&report.crcs) {
            let size = data.len();
            let mut shard = store.shards[shard_of(key)].lock();
            if store.used.load(Ordering::Relaxed) + size > capacity {
                // A shrunk capacity cannot re-admit everything; keep the
                // prefix that fits. (The log still holds the rest.)
                break;
            }
            store.used.fetch_add(size, Ordering::Relaxed);
            store.items.fetch_add(1, Ordering::Relaxed);
            let meta = ChunkMeta { stored_at: now, last_access: now, reads: 0, crc: *crc };
            shard.chunks.insert(*key, (data.clone(), meta));
        }
        (store, report)
    }

    /// Store a chunk, checksumming it here. Idempotent for
    /// retransmissions (an existing key is kept, counted as success, and
    /// not double-charged).
    pub fn put(&self, key: ChunkKey, data: Payload, now: SimTime) -> Result<(), PutError> {
        self.admit(key, data, now, payload_crc)
    }

    /// Store a chunk under the CRC its writer computed
    /// ([`payload_crc`] of `data`, carried in the put envelope) without
    /// reading the bytes. The CRC is recorded as the scrub's ground truth
    /// and the disk frame's checksum is derived from it, so a wrong one is
    /// caught by the next scrub or restart, not served as clean. Same
    /// idempotency as [`ChunkStore::put`].
    pub fn put_with_crc(
        &self,
        key: ChunkKey,
        data: Payload,
        crc: u32,
        now: SimTime,
    ) -> Result<(), PutError> {
        self.admit(key, data, now, |_| crc)
    }

    /// The one put body: `crc` is asked for only once the chunk is
    /// admitted.
    fn admit(
        &self,
        key: ChunkKey,
        data: Payload,
        now: SimTime,
        crc: impl FnOnce(&Payload) -> u32,
    ) -> Result<(), PutError> {
        let mut shard = self.shards[shard_of(&key)].lock();
        if shard.chunks.contains_key(&key) {
            self.total_puts.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let size = data.len();
        // Reserve capacity optimistically; roll back on overflow. The
        // shard lock is held, so the same key cannot double-reserve.
        let prev = self.used.fetch_add(size, Ordering::Relaxed);
        if prev + size > self.capacity {
            self.used.fetch_sub(size, Ordering::Relaxed);
            return Err(PutError::Full);
        }
        // Only an admitted chunk is worth a pass over its bytes: a full
        // store refuses a flood of puts without checksumming any.
        let crc = crc(&data);
        // Persist before acknowledging; a backend that cannot write is
        // fail-stop (better a dead provider than a lying one).
        self.backend
            .lock()
            .append_put(&key, &data, crc)
            .expect("chunk backend append failed; provider is fail-stop");
        self.items.fetch_add(1, Ordering::Relaxed);
        self.total_puts.fetch_add(1, Ordering::Relaxed);
        shard
            .chunks
            .insert(key, (data, ChunkMeta { stored_at: now, last_access: now, reads: 0, crc }));
        Ok(())
    }

    /// Fetch a chunk, updating access accounting. The returned payload is
    /// a reference-counted view of the stored bytes — no copy.
    pub fn get(&self, key: &ChunkKey, now: SimTime) -> Option<Payload> {
        self.total_gets.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shards[shard_of(key)].lock();
        match shard.chunks.get_mut(key) {
            Some((data, meta)) => {
                meta.last_access = now;
                meta.reads += 1;
                Some(data.clone())
            }
            None => {
                self.total_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Peek a chunk's payload and the CRC recorded at store time without
    /// touching accounting. Replication repair reads use this, so repair
    /// traffic does not look like heat and the copy is checked against
    /// the writer's checksum rather than whatever bytes the source holds.
    pub fn peek(&self, key: &ChunkKey) -> Option<(Payload, u32)> {
        self.shards[shard_of(key)].lock().chunks.get(key).map(|(d, m)| (d.clone(), m.crc))
    }

    /// Record a read served from a front cache: update the chunk's access
    /// accounting exactly as [`ChunkStore::get`] would, without fetching
    /// the payload. Keeps the heat signal the introspection layer and the
    /// removal strategies see identical whether a GET hit the cache or
    /// the store. Returns whether the chunk exists.
    pub fn touch(&self, key: &ChunkKey, now: SimTime) -> bool {
        self.total_gets.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shards[shard_of(key)].lock();
        match shard.chunks.get_mut(key) {
            Some((_, meta)) => {
                meta.last_access = now;
                meta.reads += 1;
                true
            }
            None => {
                self.total_misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Accounting for one chunk.
    pub fn meta(&self, key: &ChunkKey) -> Option<ChunkMeta> {
        self.shards[shard_of(key)].lock().chunks.get(key).map(|(_, m)| *m)
    }

    /// Delete a chunk; returns the freed bytes. The in-memory removal
    /// and the backend tombstone happen under the same shard lock, so no
    /// interleaved put/recovery can observe one without the other.
    pub fn delete(&self, key: &ChunkKey) -> Option<u64> {
        let mut shard = self.shards[shard_of(key)].lock();
        match shard.chunks.remove(key) {
            Some((d, _)) => {
                self.backend
                    .lock()
                    .append_delete(key)
                    .expect("chunk backend delete failed; provider is fail-stop");
                let n = d.len();
                self.used.fetch_sub(n, Ordering::Relaxed);
                self.items.fetch_sub(1, Ordering::Relaxed);
                Some(n)
            }
            None => {
                // No memory copy, but the durable log may still hold the
                // record: capacity-bounded recovery re-admits only a
                // prefix of what survived. Tombstone it anyway — GC
                // sweeps hit exactly these cold chunks, and without the
                // tombstone the dead bytes never accrue, compaction
                // never triggers, and the chunk resurrects on restart.
                // (A backend with no record for the key appends nothing.)
                self.backend
                    .lock()
                    .append_delete(key)
                    .expect("chunk backend delete failed; provider is fail-stop");
                None
            }
        }
    }

    /// Verify one chunk's integrity: recompute the in-memory payload's
    /// CRC against the checksum recorded at store time, then ask the
    /// durable backend to re-verify its own record (a disk backend
    /// re-reads the frame and checks the on-disk CRC; the memory
    /// backend has nothing durable to check). Returns `None` when the
    /// chunk is not stored here — the scrubber treats that as a miss,
    /// not corruption, since GC may race ahead of the cursor.
    pub fn verify(&self, key: &ChunkKey) -> Option<VerifyOutcome> {
        let shard = self.shards[shard_of(key)].lock();
        let (data, meta) = shard.chunks.get(key)?;
        if payload_crc(data) != meta.crc {
            return Some(VerifyOutcome::Corrupt);
        }
        // An unreadable durable record is exactly the damage the scrub
        // exists to find, so an I/O error verifies as corrupt rather
        // than tripping the fail-stop path.
        Some(match self.backend.lock().verify(key) {
            Ok(true) => VerifyOutcome::Clean,
            Ok(false) | Err(_) => VerifyOutcome::Corrupt,
        })
    }

    /// Remove a chunk that failed verification. Mechanically identical
    /// to [`ChunkStore::delete`] (tombstone included), kept distinct so
    /// callers account scrub-driven removals separately from GC.
    pub fn quarantine(&self, key: &ChunkKey) -> Option<u64> {
        self.delete(key)
    }

    /// Fault injection for tests and experiments: silently damage the
    /// stored copy of `key` — flip a byte of a real payload, or skew
    /// the recorded checksum of a simulated one — and damage the
    /// durable record too. No accounting changes; the next
    /// [`ChunkStore::verify`] must be what notices. Returns whether the
    /// chunk existed.
    pub fn inject_corruption(&self, key: &ChunkKey) -> bool {
        let mut shard = self.shards[shard_of(key)].lock();
        let Some((data, meta)) = shard.chunks.get_mut(key) else {
            return false;
        };
        match data {
            Payload::Data(bytes) if !bytes.is_empty() => {
                let mut v = bytes.to_vec();
                v[0] ^= 0xff;
                *data = Payload::Data(bytes::Bytes::from(v));
            }
            _ => meta.crc ^= 0xdead_beef,
        }
        self.backend.lock().corrupt(key).ok();
        true
    }

    /// Keys strictly after `after` in sorted order, up to `max` — the
    /// integrity scrub's cursor walk. A `None` cursor starts from the
    /// beginning; fewer than `max` keys means the walk reached the end.
    pub fn keys_after(&self, after: Option<ChunkKey>, max: usize) -> Vec<ChunkKey> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let s = shard.lock();
            out.extend(s.chunks.keys().copied().filter(|k| after.is_none_or(|a| *k > a)));
        }
        out.sort();
        out.truncate(max);
        out
    }

    /// Give the backend a compaction opportunity (called from the
    /// provider's heartbeat). Returns the bytes reclaimed, 0 when no
    /// segment crossed its dead-byte threshold.
    pub fn maybe_compact(&self) -> u64 {
        self.backend
            .lock()
            .maybe_compact()
            .expect("chunk backend compaction failed; provider is fail-stop")
    }

    /// Occupancy / maintenance counters of the durable backend (all
    /// zeros for the memory backend).
    pub fn backend_stats(&self) -> BackendStats {
        self.backend.lock().stats()
    }

    /// Number of chunks held.
    pub fn len(&self) -> usize {
        self.items.load(Ordering::Relaxed) as usize
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently stored.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Fraction of capacity in use (0..=1).
    pub fn fill_ratio(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.used() as f64 / self.capacity as f64
        }
    }

    /// Total successful+idempotent puts since creation.
    pub fn total_puts(&self) -> u64 {
        self.total_puts.load(Ordering::Relaxed)
    }

    /// Total gets (hits + misses).
    pub fn total_gets(&self) -> u64 {
        self.total_gets.load(Ordering::Relaxed)
    }

    /// Gets that found nothing.
    pub fn total_misses(&self) -> u64 {
        self.total_misses.load(Ordering::Relaxed)
    }

    /// Snapshot of `(key, meta)` pairs, sorted by key — removal
    /// strategies scan this. (Sorted so strategy decisions are
    /// deterministic regardless of hash order.)
    pub fn iter_meta(&self) -> Vec<(ChunkKey, ChunkMeta)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            let s = shard.lock();
            out.extend(s.chunks.iter().map(|(k, (_, m))| (*k, *m)));
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// All keys belonging to one blob, sorted (decommission / GC helper).
    pub fn keys_of_blob(&self, blob: BlobId) -> Vec<ChunkKey> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let s = shard.lock();
            out.extend(s.chunks.keys().filter(|k| k.blob == blob).copied());
        }
        out.sort();
        out
    }

    /// All keys, sorted (drain helper for decommissioning a provider).
    pub fn all_keys(&self) -> Vec<ChunkKey> {
        let mut out = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            out.extend(shard.lock().chunks.keys().copied());
        }
        out.sort();
        out
    }
}

/// A small LRU of hot chunks fronting the [`ChunkStore`] on the GET
/// path. Chunks are immutable once written (a `(blob, version, page)` key
/// never changes content), so the cache needs no coherence protocol —
/// the only invalidation is [`ReadCache::remove`] when a chunk is deleted
/// outright (GC / decommission), purely to release the memory early.
///
/// Payloads are refcounted views, so caching costs a clone of the handle,
/// not a copy of the bytes. Entries sit in a slab of at most `capacity`
/// slots, doubly linked from least to most recently used, so a hit, an
/// insert and an eviction are each a hash probe and a few index writes —
/// not cheap to skip even at 128 entries: a scan for the least recent
/// entry on every miss cost 13–15 % of a `mixed_rw` read. A `get` hit and
/// an `insert` both make the entry the most recent; the victim is the
/// least recent, the entry such a scan would pick.
#[derive(Debug)]
pub struct ReadCache {
    capacity: usize,
    index: FastMap<ChunkKey, usize>,
    slots: Vec<Slot>,
    /// Least and most recently used slot, [`NIL`] when empty.
    lru: usize,
    mru: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// One cached chunk and its neighbours in recency order.
#[derive(Debug)]
struct Slot {
    key: ChunkKey,
    data: Payload,
    older: usize,
    newer: usize,
}

const NIL: usize = usize::MAX;

impl ReadCache {
    /// A cache holding up to `capacity` chunks. Zero capacity disables it.
    pub fn new(capacity: usize) -> Self {
        ReadCache {
            capacity,
            index: FastMap::default(),
            slots: Vec::new(),
            lru: NIL,
            mru: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up a chunk, refreshing its recency on hit.
    pub fn get(&mut self, key: &ChunkKey) -> Option<Payload> {
        let Some(&i) = self.index.get(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.unlink(i);
        self.link_newest(i);
        Some(self.slots[i].data.clone())
    }

    /// Insert a chunk just served from the store, evicting the least
    /// recently used entry if full.
    pub fn insert(&mut self, key: ChunkKey, data: Payload) {
        if self.capacity == 0 {
            return;
        }
        let i = if let Some(&i) = self.index.get(&key) {
            self.slots[i].data = data;
            self.unlink(i);
            i
        } else if self.slots.len() < self.capacity {
            self.slots.push(Slot { key, data, older: NIL, newer: NIL });
            self.index.insert(key, self.slots.len() - 1);
            self.slots.len() - 1
        } else {
            let i = self.lru;
            self.unlink(i);
            self.index.remove(&self.slots[i].key);
            self.index.insert(key, i);
            self.slots[i].key = key;
            self.slots[i].data = data;
            self.evictions += 1;
            i
        };
        self.link_newest(i);
    }

    /// Take slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let Slot { older, newer, .. } = self.slots[i];
        match older {
            NIL => self.lru = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.mru = older,
            n => self.slots[n].older = older,
        }
    }

    /// Put unlinked slot `i` at the most recent end.
    fn link_newest(&mut self, i: usize) {
        self.slots[i].older = self.mru;
        self.slots[i].newer = NIL;
        match self.mru {
            NIL => self.lru = i,
            m => self.slots[m].newer = i,
        }
        self.mru = i;
    }

    /// Drop a deleted chunk's entry (if any). The last slot moves into the
    /// hole, so the slab stays dense.
    pub fn remove(&mut self, key: &ChunkKey) {
        let Some(i) = self.index.remove(key) else { return };
        self.unlink(i);
        self.slots.swap_remove(i);
        if i == self.slots.len() {
            return;
        }
        let Slot { key, older, newer, .. } = self.slots[i];
        self.index.insert(key, i);
        match older {
            NIL => self.lru = i,
            o => self.slots[o].newer = i,
        }
        match newer {
            NIL => self.mru = i,
            n => self.slots[n].older = i,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to the store.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries displaced to make room (capacity pressure, not deletes).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Cached keys from least to most recently used.
    #[cfg(test)]
    fn recency(&self) -> Vec<ChunkKey> {
        let (mut out, mut i) = (Vec::new(), self.lru);
        while i != NIL {
            out.push(self.slots[i].key);
            i = self.slots[i].newer;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VersionId;

    fn key(p: u64) -> ChunkKey {
        ChunkKey { blob: BlobId(1), version: VersionId(1), page: p }
    }

    fn t(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    #[test]
    fn put_get_delete_with_capacity_accounting() {
        let s = ChunkStore::new(100);
        s.put(key(0), Payload::Sim(60), t(0)).unwrap();
        assert_eq!(s.used(), 60);
        assert_eq!(s.put(key(1), Payload::Sim(60), t(0)), Err(PutError::Full));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&key(0), t(1)).unwrap().len(), 60);
        assert_eq!(s.delete(&key(0)), Some(60));
        assert_eq!(s.used(), 0);
        assert!(s.is_empty());
        assert_eq!(s.delete(&key(0)), None);
    }

    /// The bogus-chunk flood: a store at capacity refuses a put before
    /// spending a pass over its bytes on it.
    #[test]
    fn full_store_refuses_without_checksumming() {
        use crate::storage::CRC32C_CALLS;
        let s = ChunkStore::new(100);
        let page = |fill| Payload::Data(bytes::Bytes::from(vec![fill; 60]));
        s.put(key(0), page(1), t(0)).unwrap();
        let before = CRC32C_CALLS.with(|n| n.get());
        assert!(before > 0, "an admitted put is checksummed");
        for p in 1..50 {
            assert_eq!(s.put(key(p), page(2), t(0)), Err(PutError::Full));
        }
        assert_eq!(s.put_with_crc(key(50), page(2), 7, t(0)), Err(PutError::Full));
        assert_eq!(CRC32C_CALLS.with(|n| n.get()), before, "rejected puts cost no checksum");
        assert_eq!(s.used(), 60);
        assert_eq!(s.len(), 1);
        assert_eq!(s.meta(&key(0)).unwrap().crc, payload_crc(&page(1)));
    }

    #[test]
    fn idempotent_put_does_not_double_charge() {
        let s = ChunkStore::new(100);
        s.put(key(0), Payload::Sim(60), t(0)).unwrap();
        s.put(key(0), Payload::Sim(60), t(5)).unwrap();
        assert_eq!(s.used(), 60);
        assert_eq!(s.total_puts(), 2);
    }

    #[test]
    fn access_accounting_tracks_reads() {
        let s = ChunkStore::new(100);
        s.put(key(0), Payload::Sim(10), t(0)).unwrap();
        assert!(s.get(&key(0), t(3)).is_some());
        assert!(s.get(&key(0), t(7)).is_some());
        assert!(s.get(&key(9), t(8)).is_none());
        let m = s.meta(&key(0)).unwrap();
        assert_eq!(m.reads, 2);
        assert_eq!(m.last_access, t(7));
        assert_eq!(m.stored_at, t(0));
        assert_eq!(s.total_gets(), 3);
        assert_eq!(s.total_misses(), 1);
        // peek must not disturb accounting
        assert!(s.peek(&key(0)).is_some());
        assert_eq!(s.meta(&key(0)).unwrap().reads, 2);
    }

    #[test]
    fn fill_ratio_and_blob_scan() {
        let s = ChunkStore::new(100);
        s.put(key(0), Payload::Sim(25), t(0)).unwrap();
        s.put(
            ChunkKey { blob: BlobId(2), version: VersionId(1), page: 0 },
            Payload::Sim(25),
            t(0),
        )
        .unwrap();
        assert!((s.fill_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(s.keys_of_blob(BlobId(1)).len(), 1);
        assert_eq!(s.all_keys().len(), 2);
        assert_eq!(ChunkStore::new(0).fill_ratio(), 0.0);
    }

    #[test]
    fn scans_are_sorted_across_shards() {
        let s = ChunkStore::new(1 << 20);
        // Enough pages to land in every stripe.
        for p in (0..64).rev() {
            s.put(key(p), Payload::Sim(8), t(0)).unwrap();
        }
        let keys = s.all_keys();
        assert_eq!(keys.len(), 64);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys sorted");
        let meta = s.iter_meta();
        assert!(meta.windows(2).all(|w| w[0].0 < w[1].0), "meta sorted");
    }

    #[test]
    fn zero_copy_get_shares_the_stored_allocation() {
        let s = ChunkStore::new(1 << 20);
        let data = bytes::Bytes::from(vec![7u8; 4096]);
        s.put(key(0), Payload::Data(data.slice(..)), t(0)).unwrap();
        let got = s.get(&key(0), t(1)).unwrap();
        match got {
            Payload::Data(b) => {
                assert_eq!(b.len(), 4096);
                assert_eq!(b.as_ref().as_ptr(), data.as_ref().as_ptr(), "no copy on get");
            }
            Payload::Sim(_) => panic!("expected real bytes"),
        }
    }

    #[test]
    fn touch_matches_get_accounting() {
        let s = ChunkStore::new(100);
        s.put(key(0), Payload::Sim(10), t(0)).unwrap();
        assert!(s.get(&key(0), t(3)).is_some());
        assert!(s.touch(&key(0), t(7)));
        let m = s.meta(&key(0)).unwrap();
        assert_eq!(m.reads, 2, "cache hit counts as a read");
        assert_eq!(m.last_access, t(7));
        assert_eq!(s.total_gets(), 2);
        assert!(!s.touch(&key(9), t(8)), "absent chunk");
        assert_eq!(s.total_misses(), 1);
    }

    #[test]
    fn verify_is_clean_until_corruption_is_injected() {
        let s = ChunkStore::new(1 << 20);
        s.put(key(0), Payload::Data(bytes::Bytes::from(vec![5u8; 128])), t(0)).unwrap();
        s.put(key(1), Payload::Sim(64), t(0)).unwrap();
        assert_eq!(s.verify(&key(0)), Some(VerifyOutcome::Clean));
        assert_eq!(s.verify(&key(1)), Some(VerifyOutcome::Clean));
        assert_eq!(s.verify(&key(9)), None, "absent chunk is a miss, not corruption");
        assert!(s.inject_corruption(&key(0)), "real bytes: payload flip");
        assert!(s.inject_corruption(&key(1)), "sim payload: checksum skew");
        assert!(!s.inject_corruption(&key(9)));
        assert_eq!(s.verify(&key(0)), Some(VerifyOutcome::Corrupt));
        assert_eq!(s.verify(&key(1)), Some(VerifyOutcome::Corrupt));
        // Quarantine behaves like delete: frees bytes, leaves a tombstone.
        assert_eq!(s.quarantine(&key(0)), Some(128));
        assert_eq!(s.verify(&key(0)), None);
        assert_eq!(s.used(), 64);
    }

    #[test]
    fn verify_catches_disk_level_damage() {
        let (cfg, dir) = disk_cfg("verify");
        let (s, _) = ChunkStore::open(1 << 20, &cfg, t(0));
        s.put(key(0), Payload::Data(bytes::Bytes::from(vec![9u8; 256])), t(0)).unwrap();
        assert_eq!(s.verify(&key(0)), Some(VerifyOutcome::Clean));
        assert!(s.inject_corruption(&key(0)));
        assert_eq!(s.verify(&key(0)), Some(VerifyOutcome::Corrupt));
        // Quarantine, then reopen: the tombstone keeps the damaged
        // record from resurrecting.
        assert_eq!(s.quarantine(&key(0)), Some(256));
        drop(s);
        let (s, r) = ChunkStore::open(1 << 20, &cfg, t(5));
        assert!(r.chunks.is_empty());
        assert!(s.get(&key(0), t(6)).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The writer's CRC is stored as given, never re-derived from the
    /// bytes. A wrong one is not served as clean: the scrub's in-memory
    /// check fails, and on disk the frame CRC derived from it does not
    /// match the frame, so a restart quarantines the record as a
    /// CRC-mismatch frame (not a torn tail).
    #[test]
    fn a_wrong_envelope_crc_is_quarantined_on_restart() {
        use crate::storage::CRC32C_CALLS;
        let (cfg, dir) = disk_cfg("lying-crc");
        let page = |fill| Payload::Data(bytes::Bytes::from(vec![fill; 256]));
        let (honest, lie) = (payload_crc(&page(1)), payload_crc(&page(2)) ^ 1);
        {
            let (s, _) = ChunkStore::open(1 << 20, &cfg, t(0));
            let before = CRC32C_CALLS.with(|n| n.get());
            s.put_with_crc(key(0), page(1), honest, t(0)).unwrap();
            s.put_with_crc(key(1), page(2), lie, t(0)).unwrap();
            // Two frame headers; no pass over either payload.
            assert_eq!(CRC32C_CALLS.with(|n| n.get()) - before, 2);
            assert_eq!(s.meta(&key(1)).unwrap().crc, lie, "stored as it came");
            assert_eq!(s.verify(&key(0)), Some(VerifyOutcome::Clean));
            assert_eq!(s.verify(&key(1)), Some(VerifyOutcome::Corrupt));
        }
        let (s, r) = ChunkStore::open(1 << 20, &cfg, t(5));
        assert_eq!((r.chunks.len(), r.quarantined, r.torn_discarded), (1, 1, 0));
        assert_eq!(r.crcs, vec![honest]);
        assert!(s.get(&key(1), t(6)).is_none(), "the lying record did not come back");
        assert_eq!(s.verify(&key(0)), Some(VerifyOutcome::Clean));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_delete_tombstones_disk_only_chunks() {
        let (cfg, dir) = disk_cfg("gc-dead");
        {
            let (s, _) = ChunkStore::open(1 << 20, &cfg, t(0));
            s.put(key(0), Payload::Sim(400), t(0)).unwrap();
            s.put(key(1), Payload::Sim(400), t(0)).unwrap();
        }
        // Reopen with room for only one chunk: key(1) stays disk-only.
        let (s, _) = ChunkStore::open(500, &cfg, t(1));
        assert_eq!(s.len(), 1);
        let before = s.backend_stats().dead_bytes;
        assert_eq!(s.delete(&key(1)), None, "no memory copy to free");
        assert!(
            s.backend_stats().dead_bytes > before,
            "the disk-only record still turns into dead bytes for compaction"
        );
        drop(s);
        let (s, r) = ChunkStore::open(1 << 20, &cfg, t(2));
        assert_eq!(r.chunks.len(), 1);
        assert!(s.get(&key(1), t(3)).is_none(), "GC-deleted chunk must not resurrect");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keys_after_pages_through_the_store() {
        let s = ChunkStore::new(1 << 20);
        for p in 0..10 {
            s.put(key(p), Payload::Sim(8), t(0)).unwrap();
        }
        let first = s.keys_after(None, 4);
        assert_eq!(first.iter().map(|k| k.page).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let second = s.keys_after(Some(first[3]), 4);
        assert_eq!(second.iter().map(|k| k.page).collect::<Vec<_>>(), vec![4, 5, 6, 7]);
        let tail = s.keys_after(Some(second[3]), 4);
        assert_eq!(tail.len(), 2, "short page signals the end of the walk");
    }

    #[test]
    fn read_cache_evicts_least_recently_used() {
        let mut c = ReadCache::new(2);
        c.insert(key(0), Payload::Sim(1));
        c.insert(key(1), Payload::Sim(2));
        assert!(c.get(&key(0)).is_some()); // refresh 0; 1 becomes LRU
        c.insert(key(2), Payload::Sim(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(1)).is_none(), "LRU entry evicted");
        assert!(c.get(&key(0)).is_some());
        assert!(c.get(&key(2)).is_some());
        assert_eq!(c.hits(), 3);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn read_cache_zero_capacity_is_disabled() {
        let mut c = ReadCache::new(0);
        c.insert(key(0), Payload::Sim(1));
        assert!(c.is_empty());
        assert!(c.get(&key(0)).is_none());
    }

    #[test]
    fn read_cache_remove_invalidates() {
        let mut c = ReadCache::new(4);
        c.insert(key(0), Payload::Sim(1));
        c.remove(&key(0));
        assert!(c.get(&key(0)).is_none());
    }

    /// The cache `ReadCache` replaced: a recency stamp per entry, and on a
    /// miss at capacity a scan for the entry with the least
    /// `(stamp, key)`. Kept as the reference the proptest compares against.
    struct ScanCache {
        capacity: usize,
        seq: u64,
        entries: std::collections::HashMap<ChunkKey, (Payload, u64)>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl ScanCache {
        fn new(capacity: usize) -> Self {
            let entries = std::collections::HashMap::new();
            ScanCache { capacity, seq: 0, entries, hits: 0, misses: 0, evictions: 0 }
        }

        fn get(&mut self, key: &ChunkKey) -> Option<Payload> {
            if let Some((data, stamp)) = self.entries.get_mut(key) {
                self.seq += 1;
                *stamp = self.seq;
                self.hits += 1;
                Some(data.clone())
            } else {
                self.misses += 1;
                None
            }
        }

        fn insert(&mut self, key: ChunkKey, data: Payload) {
            if self.capacity == 0 {
                return;
            }
            if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
                if let Some(victim) =
                    self.entries.iter().min_by_key(|&(k, &(_, s))| (s, *k)).map(|(k, _)| *k)
                {
                    self.entries.remove(&victim);
                    self.evictions += 1;
                }
            }
            self.seq += 1;
            self.entries.insert(key, (data, self.seq));
        }

        fn remove(&mut self, key: &ChunkKey) {
            self.entries.remove(key);
        }

        /// Keys in the order the scan would evict them.
        fn recency(&self) -> Vec<ChunkKey> {
            let mut by_stamp: Vec<_> = self.entries.iter().map(|(k, (_, s))| (*s, *k)).collect();
            by_stamp.sort();
            by_stamp.into_iter().map(|(_, k)| k).collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Every `get`, `insert` and `remove` of a random sequence does to
        /// the linked slab what it does to the scan: same hit or miss,
        /// same payload, same victim (the whole recency order is compared
        /// after each step), same counters.
        #[test]
        fn read_cache_equals_the_scan_it_replaced(
            cap in 0usize..4,
            ops in proptest::collection::vec((0u8..8, 0u64..1 << 20), 1..600),
        ) {
            let cap = [0, 1, 2, 128][cap];
            let (mut lru, mut scan) = (ReadCache::new(cap), ScanCache::new(cap));
            for (step, (op, x)) in ops.into_iter().enumerate() {
                // Draw keys from a little more than the capacity, so the
                // sequence mixes hits, misses and evictions.
                let k = key(x % (cap as u64 + cap as u64 / 4 + 3));
                match op {
                    0..=3 => {
                        let (a, b) = (lru.get(&k), scan.get(&k));
                        proptest::prop_assert!(a == b, "get {:?} at step {}", k, step);
                    }
                    4..=6 => {
                        lru.insert(k, Payload::Sim(step as u64));
                        scan.insert(k, Payload::Sim(step as u64));
                    }
                    _ => {
                        lru.remove(&k);
                        scan.remove(&k);
                    }
                }
                proptest::prop_assert_eq!(lru.recency(), scan.recency(), "step {}", step);
                proptest::prop_assert_eq!(
                    (lru.hits(), lru.misses(), lru.evictions(), lru.len()),
                    (scan.hits, scan.misses, scan.evictions, scan.entries.len())
                );
            }
        }
    }

    #[test]
    fn read_cache_insert_of_a_cached_key_refreshes_without_evicting() {
        let mut c = ReadCache::new(2);
        c.insert(key(0), Payload::Sim(1));
        c.insert(key(1), Payload::Sim(2));
        c.insert(key(0), Payload::Sim(3));
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.recency(), vec![key(1), key(0)]);
        assert!(c.get(&key(0)) == Some(Payload::Sim(3)), "the newer payload is kept");
        c.insert(key(2), Payload::Sim(4));
        assert_eq!(c.recency(), vec![key(0), key(2)], "key 1 was the least recent");
    }

    fn disk_cfg(name: &str) -> (BackendConfig, std::path::PathBuf) {
        let dir = std::env::temp_dir()
            .join(format!("sads-provider-test-{}-{name}", std::process::id()));
        (BackendConfig::Disk(crate::storage::DiskConfig::new(&dir)), dir)
    }

    #[test]
    fn open_with_disk_backend_recovers_after_crash() {
        let (cfg, dir) = disk_cfg("recover");
        {
            let (s, r) = ChunkStore::open(1 << 20, &cfg, t(0));
            assert!(r.chunks.is_empty(), "fresh dir recovers nothing");
            s.put(key(0), Payload::Data(bytes::Bytes::from(vec![3u8; 256])), t(1)).unwrap();
            s.put(key(1), Payload::Sim(512), t(1)).unwrap();
            // crash: drop without any shutdown protocol
        }
        let (s, r) = ChunkStore::open(1 << 20, &cfg, t(9));
        assert_eq!(r.chunks.len(), 2);
        assert_eq!(r.bytes, 768);
        assert_eq!(s.len(), 2);
        assert_eq!(s.used(), 768);
        assert_eq!(s.get(&key(0), t(10)).unwrap().len(), 256);
        assert_eq!(s.meta(&key(1)).unwrap().stored_at, t(9), "recovered chunks restamped");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_tombstone_survives_crash() {
        let (cfg, dir) = disk_cfg("delete");
        {
            let (s, _) = ChunkStore::open(1 << 20, &cfg, t(0));
            s.put(key(0), Payload::Sim(64), t(0)).unwrap();
            s.put(key(1), Payload::Sim(64), t(0)).unwrap();
            assert_eq!(s.delete(&key(0)), Some(64));
        }
        let (s, r) = ChunkStore::open(1 << 20, &cfg, t(5));
        assert_eq!(r.chunks.len(), 1);
        assert!(s.get(&key(0), t(6)).is_none(), "deleted chunk stays gone after recovery");
        assert!(s.get(&key(1), t(6)).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_backend_recovers_nothing() {
        let (s, r) = ChunkStore::open(1 << 20, &BackendConfig::Memory, t(0));
        s.put(key(0), Payload::Sim(64), t(0)).unwrap();
        assert!(r.chunks.is_empty());
        drop(s);
        let (s, r) = ChunkStore::open(1 << 20, &BackendConfig::Memory, t(1));
        assert!(r.chunks.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.backend_stats(), BackendStats::default());
    }
}
