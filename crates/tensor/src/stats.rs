//! Small statistics helpers used by the evaluation harness and the
//! shilling-attack detectors in `ca-detect`.

/// Sample mean (0 for empty input).
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Unbiased sample variance (0 for fewer than two samples).
pub fn variance(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / (xs.len() - 1) as f32
}

/// `p`-th percentile (0 ≤ p ≤ 100) using nearest-rank on a sorted copy.
///
/// # Panics
/// Panics on empty input or `p` outside `[0, 100]`.
pub fn percentile(xs: &[f32], p: f32) -> f32 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted: Vec<f32> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = ((p / 100.0) * (sorted.len() - 1) as f32).round() as usize;
    sorted[rank]
}

/// Welford online mean/variance accumulator.
///
/// Used by the REINFORCE baseline (running mean of episode returns) and by
/// the detector feature standardization.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one observation.
    pub fn push(&mut self, x: f32) {
        self.n += 1;
        let delta = x as f64 - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x as f64 - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 before any observation).
    pub fn mean(&self) -> f32 {
        self.mean as f32
    }

    /// Running unbiased variance (0 before two observations).
    pub fn variance(&self) -> f32 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64) as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-6);
        // Population variance is 4; unbiased = 4 * 8/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-5);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs = [1.0f32, 2.0, 3.5, -1.0, 0.25];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert_eq!(rs.count(), 5);
        assert!((rs.mean() - mean(&xs)).abs() < 1e-6);
        assert!((rs.variance() - variance(&xs)).abs() < 1e-5);
    }

    #[test]
    fn running_stats_degenerate_cases() {
        let mut rs = RunningStats::new();
        assert_eq!(rs.mean(), 0.0);
        assert_eq!(rs.variance(), 0.0);
        rs.push(3.0);
        assert_eq!(rs.mean(), 3.0);
        assert_eq!(rs.variance(), 0.0);
    }
}
