//! The storage servers' write-behind burst cache (paper §III-B: "we also
//! built a caching mechanism for the storage servers, so as to enable them
//! to cope with bursts of monitoring data generated when the system is
//! under heavy load").
//!
//! The store behind a monitoring storage server can absorb only
//! `drain_rate` records per second. Incoming batches land in a bounded
//! queue; a periodic drain moves up to the rate-allowed number of records
//! into the store. When the queue overflows (cache too small or disabled),
//! records are dropped and counted — the E-ablation bench measures exactly
//! this loss under burst.

use std::collections::VecDeque;

use sads_sim::SimTime;

/// Bounded write-behind queue in front of a slow sink.
#[derive(Debug)]
pub struct BurstCache<T> {
    queue: VecDeque<T>,
    capacity: usize,
    drain_rate: f64,
    last_drain: SimTime,
    accepted: u64,
    dropped: u64,
    drained: u64,
}

impl<T> BurstCache<T> {
    /// A cache holding up to `capacity` records, draining `drain_rate`
    /// records per second into the store. `capacity == 0` disables
    /// buffering entirely (every record beyond the instantaneous drain
    /// budget is dropped).
    pub fn new(capacity: usize, drain_rate: f64, now: SimTime) -> Self {
        BurstCache {
            queue: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            drain_rate,
            last_drain: now,
            accepted: 0,
            dropped: 0,
            drained: 0,
        }
    }

    /// Offer one record; returns `false` if it was dropped.
    pub fn offer(&mut self, item: T) -> bool {
        if self.queue.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.queue.push_back(item);
        self.accepted += 1;
        true
    }

    /// Offer a whole batch; returns how many were accepted.
    pub fn offer_all(&mut self, items: impl IntoIterator<Item = T>) -> usize {
        let mut n = 0;
        for it in items {
            if self.offer(it) {
                n += 1;
            }
        }
        n
    }

    /// Move the rate-allowed number of records out of the cache (to be
    /// applied to the store). Call periodically.
    pub fn drain(&mut self, now: SimTime) -> Vec<T> {
        let elapsed = now.since(self.last_drain).as_secs_f64();
        self.last_drain = now;
        let budget = (elapsed * self.drain_rate) as usize;
        let take = budget.min(self.queue.len());
        self.drained += take as u64;
        self.queue.drain(..take).collect()
    }

    /// Records waiting in the cache.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Records accepted since creation.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Records dropped since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records drained into the store since creation.
    pub fn drained(&self) -> u64 {
        self.drained
    }

    /// Drop fraction over everything ever offered.
    pub fn drop_ratio(&self) -> f64 {
        let total = self.accepted + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    #[test]
    fn absorbs_burst_and_drains_at_rate() {
        let mut c: BurstCache<u32> = BurstCache::new(1000, 100.0, t(0));
        assert_eq!(c.offer_all(0..500), 500);
        assert_eq!(c.backlog(), 500);
        // 1 s at 100/s drains 100 records.
        let out = c.drain(t(1000));
        assert_eq!(out.len(), 100);
        assert_eq!(out[0], 0);
        assert_eq!(c.backlog(), 400);
        // Another 5 s drains the rest (budget 500 > backlog 400).
        assert_eq!(c.drain(t(6000)).len(), 400);
        assert_eq!(c.drained(), 500);
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut c: BurstCache<u32> = BurstCache::new(10, 100.0, t(0));
        assert_eq!(c.offer_all(0..25), 10);
        assert_eq!(c.dropped(), 15);
        assert!((c.drop_ratio() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_disables_buffering() {
        let mut c: BurstCache<u32> = BurstCache::new(0, 100.0, t(0));
        assert!(!c.offer(1));
        assert_eq!(c.backlog(), 0);
        assert_eq!(c.dropped(), 1);
    }

    #[test]
    fn drain_with_no_elapsed_time_is_empty() {
        let mut c: BurstCache<u32> = BurstCache::new(10, 100.0, t(0));
        c.offer(1);
        assert!(c.drain(t(0)).is_empty());
        assert_eq!(c.backlog(), 1);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut c: BurstCache<u32> = BurstCache::new(100, 1000.0, t(0));
        c.offer_all(0..50);
        let out = c.drain(t(1000));
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }
}
