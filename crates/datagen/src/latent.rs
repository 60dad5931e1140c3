//! Ground-truth latent factor model behind the synthetic data.
//!
//! This is the "world model" the generator samples from; it is kept in the
//! output so tests and analyses can compare learned structure (MF
//! embeddings, k-means clusters) against the truth.
//!
//! All vector families live in flat row-major [`Matrix`] storage — one
//! allocation per family instead of one per vector — matching the compact
//! CSR data plane of `ca-recsys`. Row accessors ([`LatentTruth::item_vec`]
//! and friends) hand out `&[f32]` slices.

use ca_tensor::init::gaussian_vec;
use ca_tensor::{ops, Matrix};
use rand::Rng;

/// Ground-truth latent state for one generated cross-domain world.
#[derive(Clone, Debug)]
pub struct LatentTruth {
    /// Item latent vectors (unit rows), indexed by *target* item id.
    /// Overlapping items share these vectors across domains.
    pub item_vecs: Matrix,
    /// Item cluster assignment.
    pub item_cluster: Vec<usize>,
    /// Zipf popularity weight per item (sums to 1).
    pub item_pop: Vec<f32>,
    /// Target-domain user vectors (unit rows).
    pub target_user_vecs: Matrix,
    /// Source-domain user vectors (unit rows).
    pub source_user_vecs: Matrix,
}

/// Normalizes `v` to unit length in place (no-op for the zero vector).
pub fn normalize(v: &mut [f32]) {
    let n = ops::l2_norm(v);
    if n > 0.0 {
        ops::scale(v, 1.0 / n);
    }
}

/// Samples a unit vector near `center`: `center + N(0, noise²)` normalized.
pub fn around(rng: &mut impl Rng, center: &[f32], noise: f32) -> Vec<f32> {
    let mut v: Vec<f32> = center.to_vec();
    let jitter = gaussian_vec(rng, center.len(), 0.0, noise);
    ops::axpy(1.0, &jitter, &mut v);
    normalize(&mut v);
    v
}

/// Samples `n` unit cluster centers as the rows of an `n × dim` matrix.
pub fn sample_centers(rng: &mut impl Rng, n: usize, dim: usize) -> Matrix {
    let mut m = Matrix::zeros(n, dim);
    for r in 0..n {
        let mut c = gaussian_vec(rng, dim, 0.0, 1.0);
        normalize(&mut c);
        m.row_mut(r).copy_from_slice(&c);
    }
    m
}

/// Zipf weights: weight of the item with popularity rank `r` (0-based) is
/// `(r + 1)^-alpha`, normalized to sum to 1. `ranks[i]` gives item `i`'s
/// rank.
pub fn zipf_weights(ranks: &[usize], alpha: f32) -> Vec<f32> {
    let mut w: Vec<f32> = ranks.iter().map(|&r| ((r + 1) as f32).powf(-alpha)).collect();
    let sum: f32 = w.iter().sum();
    ops::scale(&mut w, 1.0 / sum);
    w
}

impl LatentTruth {
    /// Latent vector of item `v` (target-domain id).
    pub fn item_vec(&self, v: usize) -> &[f32] {
        self.item_vecs.row(v)
    }

    /// Latent vector of target-domain user `u`.
    pub fn target_user_vec(&self, u: usize) -> &[f32] {
        self.target_user_vecs.row(u)
    }

    /// Ground-truth affinity between a user vector and item `v`
    /// (cosine, since all vectors are unit length).
    pub fn affinity(&self, user_vec: &[f32], item: usize) -> f32 {
        ops::dot(user_vec, self.item_vec(item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalize_produces_unit_vectors() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((ops::l2_norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn around_stays_near_center_for_small_noise() {
        let mut rng = StdRng::seed_from_u64(5);
        let center = {
            let mut c = vec![1.0, 0.0, 0.0, 0.0];
            normalize(&mut c);
            c
        };
        let v = around(&mut rng, &center, 0.1);
        assert!(ops::dot(&v, &center) > 0.9, "cos = {}", ops::dot(&v, &center));
    }

    #[test]
    fn zipf_weights_sum_to_one_and_decay() {
        let ranks: Vec<usize> = (0..100).collect();
        let w = zipf_weights(&ranks, 1.0);
        let sum: f32 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(w[0] > w[10] && w[10] > w[99]);
        // Head heaviness: rank-0 weight is ~ 1/H(100) ≈ 0.19 for alpha=1.
        assert!(w[0] > 0.1);
    }

    #[test]
    fn centers_are_unit_length() {
        let mut rng = StdRng::seed_from_u64(9);
        let centers = sample_centers(&mut rng, 6, 8);
        for r in 0..centers.rows() {
            assert!((ops::l2_norm(centers.row(r)) - 1.0).abs() < 1e-5);
        }
    }
}
