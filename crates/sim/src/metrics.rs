//! Reading back what a host's nodes recorded.
//!
//! Every counter bump and every time-series observation a node makes —
//! [`Ctx::incr`](crate::Ctx::incr) / [`Ctx::record`](crate::Ctx::record) in
//! the simulator, the runtimes' `Env::incr` / `Env::record` on either host
//! — lands in the host's telemetry [`Registry`]: a counter or a gauge
//! labeled with the node, and for each observation one more `(time, value)`
//! sample in the registry's log for that name, in call order. [`Metrics`]
//! reads them back by name, summed over nodes, for experiment harnesses
//! and tests. Reading leaves the registry as it was.

use std::sync::Arc;

use sads_telemetry::Registry;

use crate::time::SimTime;

/// One `(time, value)` observation of a time-series metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the observation was made.
    pub at: SimTime,
    /// Observed value.
    pub value: f64,
}

/// A reader over a host's metrics registry (see the module docs).
#[derive(Clone)]
pub struct Metrics(Arc<Registry>);

impl Metrics {
    /// Read `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        Metrics(registry)
    }

    /// A counter summed over the nodes that bumped it (0 if none did).
    pub fn counter(&self, name: &str) -> u64 {
        self.0.counter_total(name)
    }

    /// Every observation recorded under `name`, in call order.
    pub fn series(&self, name: &str) -> Vec<Sample> {
        let samples = self.0.samples(name).into_iter();
        samples.map(|(at, value)| Sample { at: SimTime(at), value }).collect()
    }

    /// Mean of a series' values, or `None` if empty.
    pub fn mean(&self, name: &str) -> Option<f64> {
        let s = self.series(name);
        (!s.is_empty()).then(|| s.iter().map(|x| x.value).sum::<f64>() / s.len() as f64)
    }

    /// `p`-th percentile (0..=100) of a series' values (see [`percentile`]).
    pub fn percentile(&self, name: &str, p: f64) -> Option<f64> {
        let mut v: Vec<f64> = self.series(name).iter().map(|x| x.value).collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    }

    /// Bucket a series into fixed-width time bins and average values inside
    /// each bin. Useful for turning bursty per-event samples into a smooth
    /// timeline. Returns `(bin_start_secs, mean_value)` pairs; empty bins
    /// are skipped.
    pub fn binned_mean(&self, name: &str, bin_secs: f64) -> Vec<(f64, f64)> {
        let mut bins: std::collections::BTreeMap<u64, (f64, u64)> =
            std::collections::BTreeMap::new();
        for x in self.series(name) {
            let b = (x.at.as_secs_f64() / bin_secs) as u64;
            let e = bins.entry(b).or_insert((0.0, 0));
            e.0 += x.value;
            e.1 += 1;
        }
        bins.into_iter()
            .map(|(b, (sum, n))| (b as f64 * bin_secs, sum / n as f64))
            .collect()
    }
}

/// The `p`-th percentile (0..=100) of ascending `sorted`, by nearest rank:
/// the value at index `round((n − 1) · p / 100)`. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = ((p / 100.0) * last as f64).round() as usize;
    Some(sorted[rank.min(last)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(samples: &[(u64, f64)]) -> Metrics {
        let reg = Arc::new(Registry::new());
        for &(secs, v) in samples {
            reg.record("tp", &[("node", "1")], secs * 1_000_000_000, v);
        }
        Metrics::new(reg)
    }

    #[test]
    fn counters_sum_over_nodes() {
        let reg = Arc::new(Registry::new());
        let m = Metrics::new(Arc::clone(&reg));
        assert_eq!(m.counter("x"), 0);
        reg.inc("x", &[("node", "1")], 2);
        reg.inc("x", &[("node", "2")], 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn series_statistics() {
        let m = metrics(&[(0, 10.0), (1, 20.0), (2, 30.0), (3, 40.0)]);
        assert_eq!(m.mean("tp"), Some(25.0));
        assert_eq!(m.percentile("tp", 0.0), Some(10.0));
        assert_eq!(m.percentile("tp", 100.0), Some(40.0));
        assert_eq!(m.mean("absent"), None);
        assert_eq!(m.series("tp")[1], Sample { at: SimTime(1_000_000_000), value: 20.0 });
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn binned_mean_averages_within_bins() {
        let m = metrics(&[(0, 10.0), (1, 20.0), (5, 50.0)]);
        assert_eq!(m.binned_mean("tp", 2.0), vec![(0.0, 15.0), (4.0, 50.0)]);
    }
}
