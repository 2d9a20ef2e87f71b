//! Order statistics over timing samples: median, quartiles, and the
//! highest percentile that still has at least ten samples beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
///
/// Returns `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the "exclusive" method (the default of
/// Python's `statistics.quantiles(values, n=4)`), so spreads computed
/// here match ones computed from the printed results.
///
/// Returns `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// The highest percentile (to 0.1) with at least [`TAIL_SAMPLES`]
/// samples strictly beyond its nearest-rank position, and the sample at
/// that position. `None` when there are too few samples for any.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    // The nearest rank r = ceil(p·n/100) must leave n − r ≥ TAIL_SAMPLES,
    // i.e. p ≤ 100·(n − TAIL_SAMPLES)/n; r ≥ 1 because n > TAIL_SAMPLES.
    let tenths = 1000 * (n - TAIL_SAMPLES) / n;
    let r = (tenths * n).div_ceil(1000);
    Some((tenths as f64 / 10.0, v[r - 1]))
}

/// Median, quartiles, tail percentile and count of one timing series,
/// rendered for the human-readable part of a run's output.
pub fn describe(samples: &[f64]) -> String {
    let Some(med) = median(samples) else {
        return "no samples".to_string();
    };
    let mut s = format!("median {med:.6}");
    if let Some((q1, q3)) = quartiles(samples) {
        s.push_str(&format!("  q1 {q1:.6}  q3 {q3:.6}"));
    }
    if let Some((p, x)) = tail_percentile(samples) {
        s.push_str(&format!("  p{p} {x:.6}"));
    }
    s.push_str(&format!("  n {}", samples.len()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        // 11 samples: p9.0 sits at rank 1, leaving exactly ten beyond.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((9.0, 1.0)));
        // 100 samples: p90 at rank 90 leaves ten beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90.0, 90.0)));
        // 1000 samples: p99 at rank 990.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.0, 990.0)));
        for n in 11..400 {
            let v: Vec<f64> = (1..=n).map(f64::from).collect();
            let (p, x) = tail_percentile(&v).unwrap();
            let beyond = v.iter().filter(|&&s| s > x).count();
            assert!(beyond >= TAIL_SAMPLES, "n={n} p={p}");
            // One tenth higher would leave fewer than ten.
            let r_next = ((p * 10.0).round() as usize + 1) * n as usize;
            assert!(
                n as usize - r_next.div_ceil(1000) < TAIL_SAMPLES,
                "n={n} p={p}"
            );
        }
    }

    #[test]
    fn describe_reports_count() {
        assert!(describe(&[2.0, 1.0, 3.0]).ends_with("n 3"));
        assert_eq!(describe(&[]), "no samples");
    }
}
