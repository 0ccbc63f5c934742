//! Time-series utilities used by the introspection layer: fixed-bin
//! downsampling, exponential smoothing, and simple window statistics.

use sads_sim::SimTime;

/// A `(time, value)` series, kept time-sorted.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from raw points (sorts by time).
    pub fn from_points(mut points: Vec<(SimTime, f64)>) -> Self {
        points.sort_by_key(|(t, _)| *t);
        TimeSeries { points }
    }

    /// Append a point (must not go backwards in time; out-of-order points
    /// are inserted in place).
    pub fn push(&mut self, at: SimTime, value: f64) {
        if self.points.last().map(|(t, _)| *t <= at).unwrap_or(true) {
            self.points.push((at, value));
        } else {
            let idx = self.points.partition_point(|(t, _)| *t <= at);
            self.points.insert(idx, (at, value));
        }
    }

    /// Drop the points stamped before `from`.
    pub fn retain_since(&mut self, from: SimTime) {
        let old = self.points.partition_point(|(t, _)| *t < from);
        self.points.drain(..old);
    }

    /// Raw points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Is the series empty?
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|(_, v)| *v)
    }

    /// Mean of all values.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }

    /// Minimum and maximum values.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        if self.points.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (_, v) in &self.points {
            lo = lo.min(*v);
            hi = hi.max(*v);
        }
        Some((lo, hi))
    }

    /// Mean of values in `[from, to)`.
    pub fn window_mean(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, v)| *v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Downsample into fixed `bin_secs` bins by averaging; returns
    /// `(bin_start_secs, mean)` with empty bins skipped.
    pub fn binned(&self, bin_secs: f64) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut cur_bin = u64::MAX;
        let mut sum = 0.0;
        let mut n = 0u64;
        for (t, v) in &self.points {
            let b = (t.as_secs_f64() / bin_secs) as u64;
            if b != cur_bin {
                if n > 0 {
                    out.push((cur_bin as f64 * bin_secs, sum / n as f64));
                }
                cur_bin = b;
                sum = 0.0;
                n = 0;
            }
            sum += v;
            n += 1;
        }
        if n > 0 {
            out.push((cur_bin as f64 * bin_secs, sum / n as f64));
        }
        out
    }

    /// Exponentially smoothed copy (`alpha` in (0, 1]; higher = less
    /// smoothing).
    pub fn ema(&self, alpha: f64) -> TimeSeries {
        let mut out = Vec::with_capacity(self.points.len());
        let mut acc: Option<f64> = None;
        for (t, v) in &self.points {
            let s = match acc {
                None => *v,
                Some(prev) => alpha * v + (1.0 - alpha) * prev,
            };
            acc = Some(s);
            out.push((*t, s));
        }
        TimeSeries { points: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    #[test]
    fn push_keeps_order_even_for_stragglers() {
        let mut s = TimeSeries::new();
        s.push(t(1), 1.0);
        s.push(t(3), 3.0);
        s.push(t(2), 2.0); // straggler
        let times: Vec<u64> = s.points().iter().map(|(t, _)| t.as_nanos()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn statistics() {
        let s = TimeSeries::from_points(vec![(t(2), 4.0), (t(1), 2.0), (t(3), 6.0)]);
        assert_eq!(s.mean(), Some(4.0));
        assert_eq!(s.min_max(), Some((2.0, 6.0)));
        assert_eq!(s.last(), Some(6.0));
        assert_eq!(s.window_mean(t(1), t(3)), Some(3.0));
        assert_eq!(s.window_mean(t(10), t(20)), None);
        assert_eq!(TimeSeries::new().mean(), None);
    }

    #[test]
    fn binning_averages_within_bins() {
        let s = TimeSeries::from_points(vec![
            (t(0), 10.0),
            (t(1), 20.0),
            (t(4), 40.0),
            (t(5), 60.0),
        ]);
        let b = s.binned(2.0);
        assert_eq!(b, vec![(0.0, 15.0), (4.0, 50.0)]);
    }

    #[test]
    fn window_mean_boundaries_are_half_open() {
        let s = TimeSeries::from_points(vec![(t(1), 1.0), (t(2), 2.0), (t(3), 3.0)]);
        // [from, to): the sample at `from` is in, the one at `to` is out.
        assert_eq!(s.window_mean(t(1), t(3)), Some(1.5));
        // Zero-width and inverted windows select nothing.
        assert_eq!(s.window_mean(t(2), t(2)), None);
        assert_eq!(s.window_mean(t(3), t(1)), None);
        // Empty series: no window has a mean.
        assert_eq!(TimeSeries::new().window_mean(t(0), t(10)), None);
    }

    #[test]
    fn stragglers_land_in_the_right_window() {
        let mut s = TimeSeries::new();
        s.push(t(1), 1.0);
        s.push(t(5), 50.0);
        s.push(t(2), 3.0); // out-of-order: belongs to the early window
        assert_eq!(s.window_mean(t(0), t(3)), Some(2.0));
        assert_eq!(s.window_mean(t(3), t(6)), Some(50.0));
        // Equal timestamps append after existing points and all count.
        s.push(t(5), 70.0);
        assert_eq!(s.window_mean(t(5), t(6)), Some(60.0));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn binning_stays_correct_after_straggler_inserts() {
        let mut s = TimeSeries::new();
        s.push(t(0), 10.0);
        s.push(t(4), 40.0);
        s.push(t(1), 20.0); // straggler into the first bin
        assert_eq!(s.binned(2.0), vec![(0.0, 15.0), (4.0, 40.0)]);
    }

    #[test]
    fn empty_series_degenerate_cases() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.last(), None);
        assert_eq!(s.min_max(), None);
        assert!(s.binned(1.0).is_empty());
        assert!(s.ema(0.5).is_empty());
    }

    #[test]
    fn ema_smooths_towards_history() {
        let s = TimeSeries::from_points(vec![(t(0), 0.0), (t(1), 10.0), (t(2), 10.0)]);
        let e = s.ema(0.5);
        let vals: Vec<f64> = e.points().iter().map(|(_, v)| *v).collect();
        assert_eq!(vals[0], 0.0);
        assert_eq!(vals[1], 5.0);
        assert_eq!(vals[2], 7.5);
        // alpha=1 is identity.
        let id = s.ema(1.0);
        assert_eq!(id.points(), s.points());
    }
}
