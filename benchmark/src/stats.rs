//! Order statistics over timing samples: median, quartiles and the
//! highest percentile a sample count supports.

/// A sorted copy of `values`; panics on NaN, which no timing can be.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The median (mean of the middle pair for an even count); 0 for no
/// samples, which the caller reports as a failed check rather than a time.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the driver computes spreads with. `None` below two
/// samples, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Taken after the clamp, as Python does: it may leave [0, 4].
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the quartiles as a share of the median: the spread
/// the driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile `q` (in percent) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps 99.9% of 10000 at rank 9990 despite f64 rounding.
    ((q / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The percentiles a tail is read at, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that leaves at least ten of `n`
/// samples beyond it; the median when the count supports nothing higher.
pub fn supported_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n >= 1 && n - rank(n, q) >= 10)
        .unwrap_or(50.0)
}

/// `(percentile, value)` of the highest supported tail of `values`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let q = supported_percentile(values.len());
    (q, percentile(values, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_interquartile_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1080 trickle advances: p99 is rank 1070, ten samples beyond.
        assert_eq!(supported_percentile(1080), 99.0);
        // One fewer than 1000 leaves p99 nine beyond: fall to p95.
        assert_eq!(supported_percentile(999), 95.0);
        assert_eq!(supported_percentile(1000), 99.0);
        assert_eq!(supported_percentile(10_000), 99.9);
        assert_eq!(supported_percentile(120), 90.0);
        assert_eq!(supported_percentile(20), 50.0);
        assert_eq!(supported_percentile(12), 50.0);
        assert_eq!(supported_percentile(0), 50.0);
        let v: Vec<f64> = (1..=1080).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 1070.0));
    }
}
