//! Data-provider storage: a bounded chunk store, optionally persisted
//! through a durable [`ChunkBackend`].
//!
//! One map holds every stored chunk's payload and checksum, behind one
//! mutex. A provider runs in one executor cell, so the lock is
//! uncontended; it lets every operation take `&self`, so one store can
//! be shared across threads behind an `Arc` while the simulated runtime
//! drives it single-threaded with no semantic difference. Byte payloads
//! are reference-counted [`Payload`] views, so a `get` hands back the
//! stored bytes without copying them. The store keeps no access
//! statistics: reads reach the introspection layer as the provider's
//! `ProbeEvent::ChunkRead` events.
//!
//! Every payload is served from memory regardless of backend: the
//! backend is a durable log consulted on mutation (put/delete append a
//! record under the store's lock) and at open, when
//! [`ChunkStore::open`] replays the surviving chunk set back into the
//! map. See [`crate::storage`] for the disk format and recovery
//! semantics.

use parking_lot::Mutex;
use sads_sim::{FastMap, SimTime};

use crate::model::{ChunkKey, Payload};
use crate::storage::{
    payload_crc, BackendConfig, BackendStats, ChunkBackend, MemoryBackend, RecoveryReport,
};

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

/// Bounded chunk store — the storage engine of one data provider.
/// Internally synchronized; see the module docs.
#[derive(Debug)]
pub struct ChunkStore {
    capacity: u64,
    inner: Mutex<Inner>,
}

/// Everything behind the store's lock. Log appends happen while it is
/// held, so per-key log order always matches the acknowledgment order.
#[derive(Debug)]
struct Inner {
    /// Each chunk's payload and the CRC-32C recorded at store time — the
    /// writer's, from the put envelope, unless the store computed it
    /// ([`ChunkStore::put`]). The integrity scrub's ground truth for the
    /// in-memory copy, and what a repair relay carries to the new replica.
    chunks: FastMap<ChunkKey, (Payload, u32)>,
    /// Payload bytes held.
    used: u64,
    /// Successful and idempotent puts since creation.
    puts: u64,
    /// Durable log beneath the map.
    backend: Box<dyn ChunkBackend>,
}

impl ChunkStore {
    /// A store that can hold up to `capacity` bytes, with no durability
    /// (in-memory backend).
    pub fn new(capacity: u64) -> Self {
        Self::over(capacity, Box::new(MemoryBackend))
    }

    fn over(capacity: u64, backend: Box<dyn ChunkBackend>) -> Self {
        let inner = Inner { chunks: FastMap::default(), used: 0, puts: 0, backend };
        ChunkStore { capacity, inner: Mutex::new(inner) }
    }

    /// Open a store over the configured backend, recovering whatever
    /// survived the last crash into memory. Returns the store and the
    /// backend's [`RecoveryReport`] (chunk list, quarantined and
    /// torn-record counts) so the owning service can re-announce its
    /// inventory. A capacity smaller than the log re-admits only the
    /// prefix of chunks that fits, and the report's chunk list, CRCs and
    /// byte count are cut to that prefix: a chunk announced but not
    /// admitted would be a replica every GET misses.
    ///
    /// A backend that fails to open is a deployment error (bad
    /// directory, corrupt superblock) and panics: a provider must not
    /// come up half-durable.
    ///
    /// `_now` is unused: the store keeps no access times. Dropping it is
    /// on the benchmark contract's list (ROADMAP item 10).
    pub fn open(capacity: u64, backend: &BackendConfig, _now: SimTime) -> (Self, RecoveryReport) {
        let mut backend = backend
            .build()
            .unwrap_or_else(|e| panic!("chunk backend failed to open ({backend:?}): {e}"));
        let mut report = backend.recover();
        let mut store = Self::over(capacity, backend);
        let s = store.inner.get_mut();
        for ((key, data), crc) in report.chunks.iter().zip(&report.crcs) {
            if s.used + data.len() > capacity {
                // A shrunk capacity cannot re-admit everything; keep the
                // prefix that fits. (The log still holds the rest.)
                break;
            }
            s.used += data.len();
            s.chunks.insert(*key, (data.clone(), *crc));
        }
        report.chunks.truncate(s.chunks.len());
        report.crcs.truncate(s.chunks.len());
        report.bytes = s.used;
        (store, report)
    }

    /// Store a chunk, checksumming it here. Idempotent for
    /// retransmissions (an existing key is kept, counted as success, and
    /// not double-charged).
    ///
    /// `_now` is unused: the store keeps no access times. Dropping it is
    /// on the benchmark contract's list (ROADMAP item 10).
    pub fn put(&self, key: ChunkKey, data: Payload, _now: SimTime) -> Result<(), PutError> {
        self.admit(key, data, payload_crc)
    }

    /// Store a chunk under the CRC its writer computed
    /// ([`payload_crc`] of `data`, carried in the put envelope) without
    /// reading the bytes. The CRC is recorded as the scrub's ground truth
    /// and the disk frame's checksum is derived from it, so a wrong one is
    /// caught by the next scrub or restart, not served as clean. Same
    /// idempotency as [`ChunkStore::put`].
    pub fn put_with_crc(&self, key: ChunkKey, data: Payload, crc: u32) -> Result<(), PutError> {
        self.admit(key, data, |_| crc)
    }

    /// The one put body: `crc` is asked for only once the chunk is
    /// admitted.
    fn admit(
        &self,
        key: ChunkKey,
        data: Payload,
        crc: impl FnOnce(&Payload) -> u32,
    ) -> Result<(), PutError> {
        let mut s = self.inner.lock();
        if !s.chunks.contains_key(&key) {
            if s.used + data.len() > self.capacity {
                return Err(PutError::Full);
            }
            // Only an admitted chunk is worth a pass over its bytes: a
            // full store refuses a flood of puts without checksumming any.
            let crc = crc(&data);
            // Persist before acknowledging; a backend that cannot write
            // is fail-stop (better a dead provider than a lying one).
            s.backend
                .append_put(&key, &data, crc)
                .expect("chunk backend append failed; provider is fail-stop");
            s.used += data.len();
            s.chunks.insert(key, (data, crc));
        }
        s.puts += 1;
        Ok(())
    }

    /// Fetch a chunk. The returned payload is a reference-counted view of
    /// the stored bytes — no copy.
    ///
    /// `_now` is unused: the store keeps no access times. Dropping it is
    /// on the benchmark contract's list (ROADMAP item 10).
    pub fn get(&self, key: &ChunkKey, _now: SimTime) -> Option<Payload> {
        self.inner.lock().chunks.get(key).map(|(d, _)| d.clone())
    }

    /// A chunk's payload and the CRC recorded at store time. Replication
    /// repair reads use this, so the copy is checked against the writer's
    /// checksum rather than whatever bytes the source holds.
    pub fn peek(&self, key: &ChunkKey) -> Option<(Payload, u32)> {
        self.inner.lock().chunks.get(key).cloned()
    }

    /// Delete a chunk — a GC sweep, or the scrub's quarantine of one that
    /// failed [`ChunkStore::verify`]; returns the freed bytes. The
    /// in-memory removal and the backend tombstone happen under the same
    /// lock, so no interleaved put/recovery can observe one without the
    /// other.
    pub fn delete(&self, key: &ChunkKey) -> Option<u64> {
        let mut s = self.inner.lock();
        let freed = s.chunks.remove(key).map(|(d, _)| d.len());
        // Tombstone even without a memory copy: the durable log may still
        // hold the record, since capacity-bounded recovery re-admits only
        // a prefix of what survived. GC sweeps hit exactly these cold
        // chunks, and without the tombstone the dead bytes never accrue,
        // compaction never triggers, and the chunk resurrects on restart.
        // (A backend with no record for the key appends nothing.)
        s.backend
            .append_delete(key)
            .expect("chunk backend delete failed; provider is fail-stop");
        s.used -= freed.unwrap_or(0);
        freed
    }

    /// Verify one chunk's integrity: recompute the in-memory payload's
    /// CRC against the checksum recorded at store time, then ask the
    /// durable backend to re-verify its own record (a disk backend
    /// re-reads the frame and checks the on-disk CRC; the memory
    /// backend has nothing durable to check). Returns `None` when the
    /// chunk is not stored here — the scrubber treats that as a miss,
    /// not corruption, since GC may race ahead of the cursor.
    pub fn verify(&self, key: &ChunkKey) -> Option<VerifyOutcome> {
        let mut s = self.inner.lock();
        let (data, crc) = s.chunks.get(key)?;
        if payload_crc(data) != *crc {
            return Some(VerifyOutcome::Corrupt);
        }
        // An unreadable durable record is exactly the damage the scrub
        // exists to find, so an I/O error verifies as corrupt rather
        // than tripping the fail-stop path.
        Some(match s.backend.verify(key) {
            Ok(true) => VerifyOutcome::Clean,
            Ok(false) | Err(_) => VerifyOutcome::Corrupt,
        })
    }

    /// Fault injection for tests and experiments: silently damage the
    /// stored copy of `key` — flip a byte of a real payload, or skew
    /// the recorded checksum of a simulated one — and damage the
    /// durable record too. No accounting changes; the next
    /// [`ChunkStore::verify`] must be what notices. Returns whether the
    /// chunk existed.
    pub fn inject_corruption(&self, key: &ChunkKey) -> bool {
        let mut s = self.inner.lock();
        let Some((data, crc)) = s.chunks.get_mut(key) else {
            return false;
        };
        match data {
            Payload::Data(bytes) if !bytes.is_empty() => {
                let mut v = bytes.to_vec();
                v[0] ^= 0xff;
                *data = Payload::Data(bytes::Bytes::from(v));
            }
            _ => *crc ^= 0xdead_beef,
        }
        s.backend.corrupt(key).ok();
        true
    }

    /// Keys strictly after `after` in sorted order, up to `max` — the
    /// integrity scrub's cursor walk. A `None` cursor starts from the
    /// beginning; fewer than `max` keys means the walk reached the end.
    pub fn keys_after(&self, after: Option<ChunkKey>, max: usize) -> Vec<ChunkKey> {
        let s = self.inner.lock();
        let mut out: Vec<ChunkKey> =
            s.chunks.keys().copied().filter(|k| after.is_none_or(|a| *k > a)).collect();
        out.sort();
        out.truncate(max);
        out
    }

    /// Give the backend a compaction opportunity (called from the
    /// provider's heartbeat). Returns the bytes reclaimed, 0 when no
    /// segment crossed its dead-byte threshold.
    pub fn maybe_compact(&self) -> u64 {
        self.inner
            .lock()
            .backend
            .maybe_compact()
            .expect("chunk backend compaction failed; provider is fail-stop")
    }

    /// Occupancy / maintenance counters of the durable backend (all
    /// zeros for the memory backend).
    pub fn backend_stats(&self) -> BackendStats {
        self.inner.lock().backend.stats()
    }

    /// Number of chunks held.
    pub fn len(&self) -> usize {
        self.inner.lock().chunks.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently stored.
    pub fn used(&self) -> u64 {
        self.inner.lock().used
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
        self.inner.lock().puts
    }

    /// All keys, sorted (drain helper for decommissioning a provider).
    pub fn all_keys(&self) -> Vec<ChunkKey> {
        self.keys_after(None, usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BlobId, VersionId};

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
        assert_eq!(s.put_with_crc(key(50), page(2), 7), Err(PutError::Full));
        assert_eq!(CRC32C_CALLS.with(|n| n.get()), before, "rejected puts cost no checksum");
        assert_eq!(s.used(), 60);
        assert_eq!(s.len(), 1);
        assert_eq!(s.peek(&key(0)).unwrap().1, payload_crc(&page(1)));
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
    fn get_and_peek_serve_what_was_put() {
        let s = ChunkStore::new(100);
        s.put(key(0), Payload::Sim(10), t(0)).unwrap();
        assert!(s.get(&key(0), t(3)).is_some());
        assert!(s.get(&key(0), t(7)).is_some());
        assert!(s.get(&key(9), t(8)).is_none());
        assert_eq!(s.peek(&key(0)), Some((Payload::Sim(10), payload_crc(&Payload::Sim(10)))));
    }

    #[test]
    fn fill_ratio_and_key_scan() {
        let s = ChunkStore::new(100);
        s.put(key(0), Payload::Sim(25), t(0)).unwrap();
        s.put(
            ChunkKey { blob: BlobId(2), version: VersionId(1), page: 0 },
            Payload::Sim(25),
            t(0),
        )
        .unwrap();
        assert!((s.fill_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(s.all_keys().len(), 2);
        assert_eq!(ChunkStore::new(0).fill_ratio(), 0.0);
    }

    #[test]
    fn scans_are_sorted() {
        let s = ChunkStore::new(1 << 20);
        for p in (0..64).rev() {
            s.put(key(p), Payload::Sim(8), t(0)).unwrap();
        }
        let keys = s.all_keys();
        assert_eq!(keys.len(), 64);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys sorted");
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
        // The scrub quarantines by deleting: frees bytes, leaves a tombstone.
        assert_eq!(s.delete(&key(0)), Some(128));
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
        assert_eq!(s.delete(&key(0)), Some(256));
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
            s.put_with_crc(key(0), page(1), honest).unwrap();
            s.put_with_crc(key(1), page(2), lie).unwrap();
            // Two frame headers; no pass over either payload.
            assert_eq!(CRC32C_CALLS.with(|n| n.get()) - before, 2);
            assert_eq!(s.peek(&key(1)).unwrap().1, lie, "stored as it came");
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
        // Reopen with room for only one chunk: key(1) stays disk-only,
        // and the report lists only what the store serves.
        let (s, r) = ChunkStore::open(500, &cfg, t(1));
        assert_eq!(s.len(), 1);
        assert_eq!(r.chunks.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![key(0)]);
        assert_eq!((r.crcs.len(), r.bytes), (1, 400));
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
        assert_eq!(s.peek(&key(1)).unwrap().1, payload_crc(&Payload::Sim(512)), "CRC recovered");
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
