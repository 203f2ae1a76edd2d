//! Order statistics over measured samples.

/// Returns a sorted copy of `values` (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0.0..=1.0`) of already sorted samples, by linear
/// interpolation between neighbouring order statistics. `None` when
/// there are no samples.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(&sorted(values), 0.5)
}

/// Mean of samples, `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The median of a series that trends with its index, read at the
/// series' middle: each sample is moved along the Theil–Sen line (the
/// median of all pairwise slopes) to the middle index, and the median of
/// the moved samples is returned. On a trending series it estimates what
/// the plain median does (the middle sample's expectation), but from
/// every sample instead of the one or two at the middle.
pub fn trend_median(series: &[f64]) -> Option<f64> {
    let n = series.len();
    let mut slopes = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in i + 1..n {
            slopes.push((series[j] - series[i]) / (j - i) as f64);
        }
    }
    let slope = median(&slopes).unwrap_or(0.0);
    let mid = n.saturating_sub(1) as f64 / 2.0;
    let moved: Vec<f64> = series
        .iter()
        .enumerate()
        .map(|(i, y)| y - slope * (i as f64 - mid))
        .collect();
    median(&moved)
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) computes the outer two, so spreads reported here
/// match the ones an external checker computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    match n {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((cut(1), median(values)?, cut(3)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn trend_median_reads_a_trending_series_at_its_middle() {
        // A line 10 + 2i with one wild sample still reads 10 + 2 * 4.5.
        let mut v: Vec<f64> = (0..10).map(|i| 10.0 + 2.0 * f64::from(i)).collect();
        v[9] = 1000.0;
        assert_eq!(trend_median(&v), Some(19.0));
        assert_eq!(trend_median(&[5.0; 7]), Some(5.0));
        assert_eq!(trend_median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
    }
}
