//! The benchmark's arithmetic: percentiles, ratios, medians and shares.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p`% of the sample at or below it. Empty input gives 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly above the `p`th percentile (a p99 is
/// reported only with at least ten samples beyond it).
pub fn beyond(sorted: &[u64], p: f64) -> usize {
    let cut = percentile(sorted, p);
    sorted.len() - sorted.partition_point(|&v| v <= cut)
}

/// `num / den`, or 0 when nothing was counted (keeps the JSON finite).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank quantile `q` (in `[0, 1]`) of an unordered sample; empty
/// input gives 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of a sample (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fifth of `items` (at least one) that come first in descending
/// order of `key`.
pub fn top_fifth<T: Copy>(items: &[T], key: impl Fn(&T) -> f64) -> Vec<T> {
    let mut v = items.to_vec();
    v.sort_by(|a, b| key(b).total_cmp(&key(a)));
    v.truncate(items.len().div_ceil(5));
    v
}

/// Each part as a share of `whole`, plus the share no part covers. The
/// parts are disjoint intervals inside the whole, so the shares and the
/// remainder add up to exactly 1.
pub fn shares(parts: &[u64], whole: u64) -> (Vec<f64>, f64) {
    let each: Vec<f64> = parts
        .iter()
        .map(|&p| ratio(p as f64, whole as f64))
        .collect();
    let covered: u64 = parts.iter().sum();
    let other = ratio(whole.saturating_sub(covered) as f64, whole as f64);
    (each, other)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        let odd = [1, 2, 3, 4, 5];
        assert_eq!(percentile(&odd, 50.0), 3);
    }

    #[test]
    fn samples_beyond_p99() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(beyond(&v, 99.0), 10);
        // Ties at the cut are not beyond it.
        let flat = [5u64; 1000];
        assert_eq!(beyond(&flat, 99.0), 0);
    }

    #[test]
    fn ratios_and_medians() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 6.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 8.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn top_fifth_keeps_the_largest_keys() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(top_fifth(&v, |&x| x), vec![10.0, 9.0]);
        assert_eq!(top_fifth(&v, |&x| -x), vec![1.0, 2.0]);
        assert_eq!(top_fifth(&v[..3], |&x| x), vec![3.0]);
        assert!(top_fifth(&[] as &[f64], |&x| x).is_empty());
        let pairs = [(1.0, 9.0), (3.0, 7.0), (2.0, 8.0)];
        assert_eq!(top_fifth(&pairs, |p| p.0), vec![(3.0, 7.0)]);
    }

    #[test]
    fn shares_and_remainder_sum_to_one() {
        let (each, other) = shares(&[20, 30, 0], 100);
        assert_eq!(each, vec![0.2, 0.3, 0.0]);
        assert_eq!(other, 0.5);
        let total: f64 = each.iter().sum::<f64>() + other;
        assert!((total - 1.0).abs() < 1e-12);
        let (each, other) = shares(&[1, 2], 0);
        assert_eq!(each, vec![0.0, 0.0]);
        assert_eq!(other, 0.0);
    }
}
