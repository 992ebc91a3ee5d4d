//! Order statistics for round times and for `--compare`.

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest value; ∞ for none.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them (the acceptance check is stated in those terms). A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest percentile of `n` samples that still has ten samples
/// beyond it: its 1-based rank in the sorted samples, or `None` when
/// even the smallest sample has fewer than ten above it.
pub fn tail_rank(n: usize) -> Option<usize> {
    n.checked_sub(10).filter(|&r| r >= 1)
}

/// The value at [`tail_rank`] with the percentile it stands for.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let rank = tail_rank(values.len())?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((v[rank - 1], 100.0 * rank as f64 / v.len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(5), None);
        assert_eq!(tail_rank(10), None);
        assert_eq!(tail_rank(11), Some(1));
        for n in 11..200 {
            let rank = tail_rank(n).unwrap();
            assert!(n - rank >= 10, "n={n}");
            assert!(n - (rank + 1) < 10, "n={n}: a higher rank also qualifies");
        }
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((30.0, 75.0)));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }
}
