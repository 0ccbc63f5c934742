//! Reading back what a simulated world's nodes recorded.
//!
//! A counter bump ([`Ctx::incr`](crate::Ctx::incr)) lands in the world's
//! telemetry [`Registry`] as a counter labeled with the node. A
//! time-series observation ([`Ctx::record`](crate::Ctx::record), which the
//! simulated runtime's `Env::record` calls) sets the node's gauge there
//! and appends one `(time, value)` sample to the world's log for that
//! name, in call order; the registry itself keeps only current values.
//! [`Metrics`] reads counters summed over nodes and series from the log,
//! for experiment harnesses and tests. Reading leaves both as they were.

use sads_telemetry::{FastMap, Registry};

use crate::time::SimTime;

/// One `(time, value)` observation of a time-series metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the observation was made.
    pub at: SimTime,
    /// Observed value.
    pub value: f64,
}

/// A reader over a world's registry and sample log (see the module docs).
#[derive(Clone, Copy)]
pub struct Metrics<'w> {
    pub(crate) registry: &'w Registry,
    pub(crate) samples: &'w FastMap<String, Vec<Sample>>,
}

impl<'w> Metrics<'w> {
    /// A counter summed over the nodes that bumped it (0 if none did).
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.counter_total(name)
    }

    /// Every observation recorded under `name`, in call order.
    pub fn series(&self, name: &str) -> &'w [Sample] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
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
    use crate::{Actor, Ctx, Message, NodeConfig, NodeId, SimDuration, World};

    /// Records the value of each `(secs, value)` of its plan under `tp`,
    /// `secs` after it starts.
    struct Recorder(Vec<(u64, f64)>);

    impl Actor for Recorder {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, &(secs, _)) in self.0.iter().enumerate() {
                ctx.set_timer(SimDuration::from_secs(secs), i as u64);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Box<dyn Message>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            ctx.record("tp", self.0[token as usize].1);
        }
    }

    /// A world with one recording node per plan, run to its end.
    fn world(plans: &[&[(u64, f64)]]) -> World {
        let mut w = World::with_seed(1);
        for plan in plans {
            w.add_node(Box::new(Recorder(plan.to_vec())), NodeConfig::default());
        }
        w.run_to_quiescence(1_000);
        w
    }

    #[test]
    fn counters_sum_over_nodes() {
        let w = World::with_seed(1);
        let m = w.metrics();
        assert_eq!(m.counter("x"), 0);
        w.telemetry().inc("x", &[("node", "1")], 2);
        w.telemetry().inc("x", &[("node", "2")], 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn series_statistics() {
        let w = world(&[&[(0, 10.0), (1, 20.0), (2, 30.0), (3, 40.0)]]);
        let m = w.metrics();
        assert_eq!(m.mean("tp"), Some(25.0));
        assert_eq!(m.percentile("tp", 0.0), Some(10.0));
        assert_eq!(m.percentile("tp", 100.0), Some(40.0));
        assert_eq!(m.mean("absent"), None);
        assert_eq!(m.series("tp")[1], Sample { at: SimTime(1_000_000_000), value: 20.0 });
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn binned_mean_averages_within_bins() {
        let w = world(&[&[(0, 10.0), (1, 20.0), (5, 50.0)]]);
        assert_eq!(w.metrics().binned_mean("tp", 2.0), vec![(0.0, 15.0), (4.0, 50.0)]);
    }

    #[test]
    fn records_log_every_sample_in_call_order_across_nodes() {
        let w = world(&[&[(1, 2.0), (3, 3.0)], &[(2, 1.0)]]);
        let s = |secs: u64, value| Sample { at: SimTime(secs * 1_000_000_000), value };
        assert_eq!(w.metrics().series("tp"), [s(1, 2.0), s(2, 1.0), s(3, 3.0)]);
        assert_eq!(w.metrics().series("absent"), &[]);
        let snap = w.telemetry().snapshot();
        assert_eq!(snap.gauge("tp", &[("node", "0")]), Some(3.0), "each node's gauge is its last");
        assert_eq!(snap.gauge("tp", &[("node", "1")]), Some(1.0));
    }
}
