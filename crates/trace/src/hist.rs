//! The one histogram: log buckets over `f64`, updated lock-free.
//!
//! Its users observe values spanning ~20 orders of magnitude: span
//! durations in ns, latencies and timer lags in seconds, dispatch batch
//! sizes in envelopes. So linear buckets are hopeless and exact storage
//! is wasteful. Buckets follow the HdrHistogram idea at its cheapest:
//! each power of two from 2^-30 to 2^41 (≈ 1 ns in seconds to ≈ 37 min
//! in ns) gets 4 sub-buckets, read off the float's exponent and top two
//! mantissa bits. A bucket is then at most a quarter of its lower bound
//! wide, so its midpoint is within 12.5 % of every value in it. One
//! more slot takes zero and underflow, and one takes overflow.

use std::sync::atomic::{AtomicU64, Ordering};

/// Smallest power of two with buckets of its own.
const MIN_EXP: i32 = -30;
/// Powers of two with buckets, from `2^MIN_EXP` up to `2^41` exclusive.
const POWERS: usize = 71;
/// Slots: zero/underflow, 4 per power of two, overflow.
const BUCKETS: usize = POWERS * 4 + 2;
/// `2^MIN_EXP`'s bits shifted right by 50: a float's biased exponent and
/// top two mantissa bits, which number its sub-bucket.
const FIRST: u64 = ((1023 + MIN_EXP) as u64) << 2;

/// Lower bound of sub-bucket `j`, counted from `2^MIN_EXP`.
const fn lower(j: usize) -> f64 {
    f64::from_bits((FIRST + j as u64) << 50)
}

const LOW: f64 = lower(0);
const HIGH: f64 = lower(BUCKETS - 2);

/// Add `v` to the `f64` stored as bits in `bits`.
pub fn atomic_f64_add(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A fixed-size log-bucketed histogram of `f64` values, updated through
/// `&self` with relaxed atomics.
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Histogram {
    /// The slot `v` counts in. Zero, underflow, negatives and NaN take
    /// slot 0; values of 2^41 and above take the last.
    pub fn bucket_of(v: f64) -> usize {
        if v.is_nan() || v < LOW {
            return 0;
        }
        if v >= HIGH {
            return BUCKETS - 1;
        }
        1 + ((v.to_bits() >> 50) - FIRST) as usize
    }

    /// The values slot `i` takes: `[lower, upper)`, `upper` infinite for
    /// the overflow slot.
    pub fn bucket_range(i: usize) -> (f64, f64) {
        match i {
            0 => (0.0, LOW),
            _ if i == BUCKETS - 1 => (HIGH, f64::INFINITY),
            _ => (lower(i - 1), lower(i)),
        }
    }

    /// Record one value.
    pub fn observe(&self, v: f64) {
        self.counts[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
        // Non-negative floats order as their bits do; the load skips the
        // read-modify-write once the maximum has settled.
        if v > self.max() {
            self.max_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Values recorded per slot, slot 0 first.
    pub fn buckets(&self) -> impl Iterator<Item = u64> + '_ {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed))
    }

    /// Sum of the recorded values (exact up to `f64` rounding).
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Largest recorded value (exact; 0 when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Approximate value at percentile `p` (0–100): the midpoint of the
    /// bucket holding the rank, capped at [`Histogram::max`], so within
    /// 12.5 % of the true value. Returns 0 on an empty histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        let rank = ((p / 100.0) * self.count() as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = Self::bucket_range(i);
                return ((lo + hi) / 2.0).min(self.max());
            }
        }
        self.max()
    }

    /// Mean of the recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        self.sum() / self.count().max(1) as f64
    }

    /// The standard percentile summary.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean_ns: self.mean(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
            max: self.max(),
        }
    }
}

/// Snapshot of a span histogram's headline statistics (all values ns).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Exact mean.
    pub mean_ns: f64,
    /// Median (log-bucket approximation).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Exact maximum.
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every finite `f64 ≥ 0`, by its bit pattern: each binade is as
    /// likely as any other, so the whole range gets covered.
    fn finite() -> impl Strategy<Value = f64> {
        (0u64..0x7ff0_0000_0000_0000).prop_map(f64::from_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn every_value_lies_in_its_bucket(v in finite()) {
            let i = Histogram::bucket_of(v);
            let (lo, hi) = Histogram::bucket_range(i);
            prop_assert!(lo <= v && v < hi, "{v} outside slot {i} = [{lo}, {hi})");
        }

        #[test]
        fn one_value_p50_is_within_an_eighth(exp in -30i32..41, frac in 1.0f64..2.0) {
            let v = frac * 2f64.powi(exp);
            let h = Histogram::default();
            h.observe(v);
            let p50 = h.percentile(50.0);
            prop_assert!((p50 - v).abs() <= 0.125 * v, "p50 {p50} of {v}");
        }

        #[test]
        fn bucket_of_is_monotone(a in finite(), b in finite()) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(Histogram::bucket_of(lo) <= Histogram::bucket_of(hi));
        }
    }

    #[test]
    fn slots_tile_the_range() {
        assert_eq!(BUCKETS, 286);
        assert_eq!((LOW, HIGH), (2f64.powi(-30), 2f64.powi(41)));
        for i in 1..BUCKETS {
            assert_eq!(Histogram::bucket_range(i - 1).1, Histogram::bucket_range(i).0);
            assert_eq!(Histogram::bucket_of(Histogram::bucket_range(i).0), i);
        }
        for v in [-1.0, f64::NAN, 0.0, LOW / 2.0] {
            assert_eq!(Histogram::bucket_of(v), 0, "{v}");
        }
        assert_eq!(Histogram::bucket_of(f64::INFINITY), BUCKETS - 1);
        assert_eq!(Histogram::bucket_range(Histogram::bucket_of(256.0)), (256.0, 320.0));
    }

    #[test]
    fn quantile_error_is_bounded() {
        let h = Histogram::default();
        for v in 1..=10_000u64 {
            h.observe((v * 1_000) as f64); // 1µs .. 10ms
        }
        let p50 = h.percentile(50.0);
        assert!((p50 - 5_000_000.0).abs() / 5_000_000.0 < 0.125, "p50={p50}");
        let p99 = h.percentile(99.0);
        assert!((p99 - 9_900_000.0).abs() / 9_900_000.0 < 0.125, "p99={p99}");
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max(), 10_000_000.0);
        assert_eq!(h.sum(), 1_000.0 * 10_000.0 * 10_001.0 / 2.0);
    }

    #[test]
    fn the_top_quantile_is_capped_at_the_max() {
        let h = Histogram::default();
        for v in [0.0, 1.0e-3, 1.1e-3, 4.5e3] {
            h.observe(v);
        }
        assert_eq!(h.percentile(100.0), 4.5e3, "the midpoint 4608 is above the max");
        assert!(h.percentile(1.0) < LOW, "zero reports from the underflow slot");
        h.observe(1.0e13);
        assert_eq!(h.percentile(100.0), 1.0e13, "overflow reports the max");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::default();
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.summary().count, 0);
    }

    #[test]
    fn concurrent_observes_all_count() {
        let h = Histogram::default();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1_000 {
                        h.observe((t * 1_000 + i) as f64);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4_000);
        assert_eq!(h.buckets().sum::<u64>(), 4_000);
        assert_eq!(h.max(), 3_999.0);
        assert_eq!(h.sum(), 3_999.0 * 4_000.0 / 2.0);
    }
}
