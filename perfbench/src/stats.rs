//! Order statistics over host-time samples.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`; `0.0` when
/// there are no samples.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank) of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The same quantile over integer samples.
#[must_use]
pub fn quantile_u64(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_ten_samples_beyond_p90_of_a_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile_u64(&[5, 1, 3], 0.5), 3);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
