//! Order statistics over per-operation samples.

/// Sorted copy of `samples` (NaN-free by construction: every sample is a
/// measured duration or count).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples that must lie beyond the tail statistic.
pub const TAIL_BEYOND: usize = 10;

/// The tail statistic: the 11th-largest sample, so exactly
/// [`TAIL_BEYOND`] samples lie beyond it. With `n` samples this is the
/// `100 · (n − 10) / n` percentile (see [`tail_percentile`]); with 10 or
/// fewer samples it degrades to the maximum.
pub fn tail(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n > TAIL_BEYOND => v[n - 1 - TAIL_BEYOND],
        n => v[n - 1],
    }
}

/// The percentile [`tail`] reports for `n` samples.
pub fn tail_percentile(n: usize) -> f64 {
    if n > TAIL_BEYOND {
        100.0 * (n - TAIL_BEYOND) as f64 / n as f64
    } else {
        100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&samples), 89.0);
        assert_eq!(samples.iter().filter(|&&s| s > tail(&samples)).count(), 10);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail(&[1.0, 5.0]), 5.0);
    }
}
