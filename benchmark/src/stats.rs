//! Order statistics used by every metric: nearest-rank percentiles over
//! one round's samples, the median across rounds, and the quartiles the
//! A/A check compares (same definition as Python's
//! `statistics.quantiles(values, n=4)`, the one the driver uses).

/// Nearest-rank percentile of `samples` (sorted in place). `q` in (0, 1].
/// Returns 0 for an empty slice.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `values` (mean of the two middle values when even).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency metric: the median over rounds of each round's p50, in ns.
pub fn median_of_round_p50(rounds: &mut [Vec<u64>]) -> f64 {
    let p50s: Vec<f64> = rounds
        .iter_mut()
        .filter(|r| !r.is_empty())
        .map(|r| percentile(r, 0.5) as f64)
        .collect();
    median(&p50s)
}

/// `(q1, q2, q3)` by the exclusive method (`statistics.quantiles(n=4)`).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut [7], 0.5), 7);
        assert_eq!(percentile(&mut [3, 1, 2], 0.5), 2);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_rounds_ignores_one_slow_round() {
        // Five rounds with p50 = 10, except one perturbed round at 100.
        let mut rounds: Vec<Vec<u64>> = vec![
            vec![9, 10, 11],
            vec![10; 5],
            vec![99, 100, 101],
            vec![8, 10, 30],
            vec![10, 10],
        ];
        assert_eq!(median_of_round_p50(&mut rounds), 10.0);
        // Empty rounds (a class the workload never issues) are skipped.
        let mut rounds = vec![vec![], vec![4, 5, 6]];
        assert_eq!(median_of_round_p50(&mut rounds), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }
}
