//! Multi-layer perceptron with ReLU hidden activations.
//!
//! The paper's policy networks — one per non-leaf clustering-tree node
//! (§4.3.3) and one for profile crafting (§4.4) — are small MLP heads whose
//! output logits feed a (masked) softmax. This module provides the shared
//! forward/backward machinery; the softmax + sampling lives in
//! [`crate::categorical`].

use crate::activation::{relu_backward, relu_inplace};
use crate::linear::{Linear, LinearGrad};
use ca_tensor::{Matrix, Scratch};
use rand::Rng;

/// An MLP: `dims[0] → dims[1] → … → dims.last()`, ReLU between layers,
/// linear (logit) output.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Forward-pass cache: the input plus each layer's pre- and post-activation.
///
/// A default (empty) cache is a reusable workspace: [`Mlp::forward_into`]
/// resizes it to the network's shape and overwrites every value it reads
/// back, so one cache can serve many forward passes without reallocating.
#[derive(Clone, Debug, Default)]
pub struct MlpCache {
    /// `acts[0]` is the input; `acts[i]` is the post-activation output of
    /// layer `i-1` (for the last layer, the raw logits).
    acts: Vec<Vec<f32>>,
    /// Pre-activation values per hidden layer (needed by ReLU backward).
    pres: Vec<Vec<f32>>,
}

/// Gradient accumulator mirroring an [`Mlp`].
#[derive(Clone, Debug, Default)]
pub struct MlpGrad {
    /// Per-layer gradients.
    pub layers: Vec<LinearGrad>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths (at least two entries),
    /// parameters drawn from `N(0, std²)` per the paper's initialization.
    ///
    /// # Panics
    /// Panics if `dims.len() < 2`.
    pub fn new(rng: &mut impl Rng, dims: &[usize], std: f32) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and output dims");
        let layers = dims.windows(2).map(|w| Linear::gaussian(rng, w[0], w[1], std)).collect();
        Self { layers }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output (logit) dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Forward pass returning the logits and the cache for `backward`.
    pub fn forward(&self, x: &[f32]) -> (Vec<f32>, MlpCache) {
        let mut cache = MlpCache::default();
        let out = self.forward_into(x, &mut cache).to_vec();
        (out, cache)
    }

    /// [`Mlp::forward`] through a reusable `cache`: fills it for
    /// [`Mlp::backward_into`] and returns the logits, which live in the
    /// cache. Nothing a previous pass (of this or any other network) left
    /// in `cache` survives into the result.
    pub fn forward_into<'c>(&self, x: &[f32], cache: &'c mut MlpCache) -> &'c [f32] {
        let n = self.layers.len();
        cache.acts.resize_with(n + 1, Vec::new);
        cache.pres.resize_with(n - 1, Vec::new);
        cache.acts[0].clear();
        cache.acts[0].extend_from_slice(x);
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = cache.acts.split_at_mut(i + 1);
            let y = &mut rest[0];
            y.resize(layer.out_dim(), 0.0);
            layer.forward_into(&done[i], y);
            if i + 1 < n {
                let pre = &mut cache.pres[i];
                pre.clear();
                pre.extend_from_slice(y);
                relu_inplace(y);
            }
        }
        &cache.acts[n]
    }

    /// Logits only, skipping the cache (inference / evaluation path).
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = layer.forward(&cur);
            if i + 1 < self.layers.len() {
                relu_inplace(&mut y);
            }
            cur = y;
        }
        cur
    }

    /// Batched inference: one logits row per input row, all layers run as
    /// matrix-matrix products. Row `i` of the result is bitwise identical to
    /// `infer(x.row(i))`; intermediate activations come from (and return
    /// to) `scratch`, so a warmed pool makes repeated calls allocation-free.
    /// The returned matrix is also pool-backed — recycle it when done.
    pub fn infer_batch(&self, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "infer_batch input width mismatch");
        let n = x.rows();
        let mut cur: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut out = scratch.matrix(n, layer.out_dim());
            layer.forward_batch_into(cur.as_ref().unwrap_or(x), &mut out);
            if i + 1 < self.layers.len() {
                relu_inplace(out.as_mut_slice());
            }
            if let Some(prev) = cur.replace(out) {
                scratch.recycle(prev);
            }
        }
        cur.expect("MLP has at least one layer")
    }

    /// Backward pass from a gradient on the logits. Accumulates into `grad`
    /// and returns the gradient w.r.t. the input.
    pub fn backward(&self, cache: &MlpCache, g_logits: &[f32], grad: &mut MlpGrad) -> Vec<f32> {
        let (mut g, mut gx) = (Vec::new(), Vec::new());
        self.backward_into(cache, g_logits, grad, &mut g, &mut gx);
        gx
    }

    /// [`Mlp::backward`] through reusable buffers: accumulates into `grad`
    /// and leaves the gradient w.r.t. the input in `gx`; `g` is scratch.
    /// Both are resized as needed, and their old contents never reach the
    /// result, so one pair of buffers can serve networks of any shape.
    pub fn backward_into(
        &self,
        cache: &MlpCache,
        g_logits: &[f32],
        grad: &mut MlpGrad,
        g: &mut Vec<f32>,
        gx: &mut Vec<f32>,
    ) {
        assert_eq!(grad.layers.len(), self.layers.len(), "grad shape mismatch");
        g.clear();
        g.extend_from_slice(g_logits);
        for i in (0..self.layers.len()).rev() {
            // Input to layer i is cache.acts[i] (post-activation of layer i-1).
            let layer = &self.layers[i];
            gx.resize(layer.in_dim(), 0.0);
            layer.backward_into(&cache.acts[i], g, &mut grad.layers[i], gx);
            if i > 0 {
                relu_backward(&cache.pres[i - 1], gx);
                std::mem::swap(g, gx);
            }
        }
    }

    /// A zeroed gradient accumulator of matching shape.
    pub fn zero_grad(&self) -> MlpGrad {
        let mut grad = MlpGrad::default();
        self.zero_grad_into(&mut grad);
        grad
    }

    /// Zeroes `grad` in place, reshaping it first only if it does not
    /// already mirror this network (a default `MlpGrad`, or another MLP's).
    pub fn zero_grad_into(&self, grad: &mut MlpGrad) {
        let fits = grad.layers.len() == self.layers.len()
            && grad.layers.iter().zip(&self.layers).all(|(g, l)| {
                (g.w.rows(), g.w.cols(), g.b.len()) == (l.out_dim(), l.in_dim(), l.out_dim())
            });
        if fits {
            grad.zero();
        } else {
            grad.layers = self.layers.iter().map(Linear::zero_grad).collect();
        }
    }

    /// Plain SGD step.
    pub fn sgd_step(&mut self, grad: &MlpGrad, lr: f32) {
        for (layer, g) in self.layers.iter_mut().zip(grad.layers.iter()) {
            layer.sgd_step(g, lr);
        }
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Read access to the layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable access to the layers.
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }
}

impl MlpGrad {
    /// Resets all accumulators to zero.
    pub fn zero(&mut self) {
        self.layers.iter_mut().for_each(LinearGrad::zero);
    }

    /// Global L2 norm across every parameter gradient.
    pub fn norm(&self) -> f32 {
        self.layers.iter().map(|g| g.norm().powi(2)).sum::<f32>().sqrt()
    }

    /// Multiplies every entry by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        self.layers.iter_mut().for_each(|g| g.scale(alpha));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// One dirty workspace (cache, gradient, `g`/`gx`) carried through
        /// a random sequence of passes over MLPs of different shapes — as
        /// the GNN's two towers share `g`/`gx` — gives bitwise the logits,
        /// input gradients and parameter gradients of fresh `forward` /
        /// `backward` calls. `twice` runs a second backward into the same
        /// gradient, as a BPR pair does for its positive and negative item.
        #[test]
        fn reused_workspace_matches_fresh_passes(
            steps in prop::collection::vec((0usize..3, 0u8..2), 1..12),
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mlps = [
                Mlp::new(&mut rng, &[5, 7, 3], 0.5),
                Mlp::new(&mut rng, &[9, 4], 0.5),
                Mlp::new(&mut rng, &[3, 8, 6, 2], 0.5),
            ];
            let mut cache = MlpCache::default();
            let mut grad = MlpGrad::default();
            let (mut g, mut gx) = (Vec::new(), Vec::new());
            for (step, &(which, twice)) in steps.iter().enumerate() {
                let mlp = &mlps[which];
                let x: Vec<f32> = (0..mlp.in_dim()).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let gy: Vec<f32> = (0..mlp.out_dim()).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let neg_gy: Vec<f32> = gy.iter().map(|v| -v).collect();

                let (want_out, want_cache) = mlp.forward(&x);
                let mut want_grad = mlp.zero_grad();
                let mut want_gx = mlp.backward(&want_cache, &gy, &mut want_grad);

                let out = mlp.forward_into(&x, &mut cache).to_vec();
                mlp.zero_grad_into(&mut grad);
                mlp.backward_into(&cache, &gy, &mut grad, &mut g, &mut gx);
                if twice == 1 {
                    want_gx = mlp.backward(&want_cache, &neg_gy, &mut want_grad);
                    mlp.backward_into(&cache, &neg_gy, &mut grad, &mut g, &mut gx);
                }

                prop_assert_eq!(bits(&out), bits(&want_out), "logits at step {}", step);
                prop_assert_eq!(bits(&gx), bits(&want_gx), "input grad at step {}", step);
                prop_assert_eq!(grad.layers.len(), want_grad.layers.len());
                for (got, want) in grad.layers.iter().zip(&want_grad.layers) {
                    prop_assert_eq!(bits(got.w.as_slice()), bits(want.w.as_slice()));
                    prop_assert_eq!(bits(&got.b), bits(&want.b));
                }
            }
        }
    }

    fn scalar_loss(mlp: &Mlp, x: &[f32]) -> f32 {
        mlp.infer(x).iter().map(|y| y * y).sum::<f32>() / 2.0
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(&mut rng, &[5, 7, 3], 0.3);
        let x: Vec<f32> = (0..5).map(|i| i as f32 * 0.2 - 0.4).collect();
        let (out, _) = mlp.forward(&x);
        assert_eq!(out, mlp.infer(&x));
    }

    #[test]
    fn infer_batch_matches_per_row_infer() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(&mut rng, &[6, 9, 4], 0.4);
        let x = Matrix::from_fn(19, 6, |r, c| ((r * 7 + c * 3) % 13) as f32 * 0.1 - 0.6);
        let mut scratch = Scratch::new();
        let out = mlp.infer_batch(&x, &mut scratch);
        assert_eq!((out.rows(), out.cols()), (19, 4));
        for r in 0..19 {
            assert_eq!(out.row(r), &mlp.infer(x.row(r))[..], "row {r}");
        }
        scratch.recycle(out);
        // Hidden activation + a previous logits buffer are back in the pool.
        assert!(scratch.idle() >= 2, "intermediates must be recycled");
    }

    #[test]
    fn gradient_check_full_network() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut mlp = Mlp::new(&mut rng, &[4, 6, 3], 0.5);
        let x: Vec<f32> = vec![0.2, -0.7, 1.1, 0.05];

        let (out, cache) = mlp.forward(&x);
        let mut grad = mlp.zero_grad();
        let gx = mlp.backward(&cache, &out, &mut grad);

        let eps = 1e-2f32;
        // Spot-check a handful of weights in each layer.
        for li in 0..2 {
            for (r, c) in [(0, 0), (1, 2), (2, 1)] {
                if r >= mlp.layers()[li].out_dim() || c >= mlp.layers()[li].in_dim() {
                    continue;
                }
                let orig = mlp.layers()[li].w[(r, c)];
                mlp.layers_mut()[li].w[(r, c)] = orig + eps;
                let lp = scalar_loss(&mlp, &x);
                mlp.layers_mut()[li].w[(r, c)] = orig - eps;
                let lm = scalar_loss(&mlp, &x);
                mlp.layers_mut()[li].w[(r, c)] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grad.layers[li].w[(r, c)];
                assert!(
                    (analytic - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "layer {li} w[{r},{c}]: {analytic} vs {numeric}"
                );
            }
        }
        // Input gradient.
        for i in 0..4 {
            let mut xp = x.clone();
            xp[i] += eps;
            let lp = scalar_loss(&mlp, &xp);
            xp[i] = x[i] - eps;
            let lm = scalar_loss(&mlp, &xp);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (gx[i] - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "gx[{i}]: {} vs {numeric}",
                gx[i]
            );
        }
    }

    #[test]
    fn deep_mlp_trains_on_toy_regression() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut mlp = Mlp::new(&mut rng, &[2, 8, 8, 1], 0.4);
        // Target: y = x0 - x1.
        let data: Vec<([f32; 2], f32)> =
            vec![([1.0, 0.0], 1.0), ([0.0, 1.0], -1.0), ([1.0, 1.0], 0.0), ([0.5, -0.5], 1.0)];
        let mse = |m: &Mlp| -> f32 {
            data.iter().map(|(x, t)| (m.infer(x)[0] - t).powi(2)).sum::<f32>() / data.len() as f32
        };
        let before = mse(&mlp);
        for _ in 0..400 {
            let mut grad = mlp.zero_grad();
            for (x, t) in &data {
                let (out, cache) = mlp.forward(x);
                let g = vec![2.0 * (out[0] - t) / data.len() as f32];
                mlp.backward(&cache, &g, &mut grad);
            }
            mlp.sgd_step(&grad, 0.05);
        }
        let after = mse(&mlp);
        assert!(after < before * 0.05, "mse {before} -> {after}");
    }

    #[test]
    fn param_count_is_consistent() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&mut rng, &[4, 6, 3], 0.1);
        assert_eq!(mlp.param_count(), (4 * 6 + 6) + (6 * 3 + 3));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_dim() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Mlp::new(&mut rng, &[4], 0.1);
    }
}
