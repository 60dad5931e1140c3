//! Elman recurrent network used as the selection-state encoder.
//!
//! The policy state in §4.3.3 is `x_{v*} = RNN(U^{B→A}_t)`: the embeddings of
//! the source users already copied this episode are folded into a fixed-size
//! vector. A single-layer tanh RNN is sufficient at the paper's scale
//! (sequence length ≤ budget Δ = 30, hidden size = embedding size 8).
//!
//! `h_t = tanh(Wx x_t + Wh h_{t-1} + b)`, `h_0 = 0`.
//!
//! Backward-through-time is implemented for a gradient arriving at the
//! *final* hidden state only — that is the only consumer in CopyAttack (the
//! final state is concatenated with the target-item embedding and fed to the
//! per-node policy MLPs).

use crate::activation::tanh_backward;
use ca_tensor::init::gaussian_matrix;
use ca_tensor::{ops, Matrix};
use rand::Rng;

/// Single-layer Elman RNN.
#[derive(Clone, Debug)]
pub struct Rnn {
    /// Input-to-hidden weights, `hidden × input`.
    pub wx: Matrix,
    /// Hidden-to-hidden weights, `hidden × hidden`.
    pub wh: Matrix,
    /// Hidden bias.
    pub b: Vec<f32>,
}

/// Cache of a forward pass over one sequence.
#[derive(Clone, Debug)]
pub struct RnnCache {
    /// The input sequence (owned copies).
    xs: Vec<Vec<f32>>,
    /// Hidden states `h_1 … h_T` (post-tanh). `h_0` is implicit zero.
    hs: Vec<Vec<f32>>,
}

/// Gradient accumulator mirroring an [`Rnn`].
#[derive(Clone, Debug)]
pub struct RnnGrad {
    /// `∂L/∂Wx`.
    pub wx: Matrix,
    /// `∂L/∂Wh`.
    pub wh: Matrix,
    /// `∂L/∂b`.
    pub b: Vec<f32>,
}

impl Rnn {
    /// New RNN with `N(0, std²)` weights.
    pub fn new(rng: &mut impl Rng, input_dim: usize, hidden_dim: usize, std: f32) -> Self {
        Self {
            wx: gaussian_matrix(rng, hidden_dim, input_dim, 0.0, std),
            wh: gaussian_matrix(rng, hidden_dim, hidden_dim, 0.0, std),
            b: vec![0.0; hidden_dim],
        }
    }

    /// Hidden dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.wx.rows()
    }

    /// Runs the sequence; returns the final hidden state and the cache.
    /// An empty sequence yields the all-zero state (the paper seeds the first
    /// selection randomly because the RNN has nothing to encode yet).
    pub fn forward(&self, xs: &[&[f32]]) -> (Vec<f32>, RnnCache) {
        let h_dim = self.hidden_dim();
        let mut hs: Vec<Vec<f32>> = Vec::with_capacity(xs.len());
        let mut h_prev = vec![0.0; h_dim];
        for x in xs {
            let mut h = self.wx.matvec(x);
            let hh = self.wh.matvec(&h_prev);
            ops::axpy(1.0, &hh, &mut h);
            ops::axpy(1.0, &self.b, &mut h);
            for v in h.iter_mut() {
                *v = v.tanh();
            }
            hs.push(h.clone());
            h_prev = h;
        }
        let last = hs.last().cloned().unwrap_or_else(|| vec![0.0; h_dim]);
        (last, RnnCache { xs: xs.iter().map(|x| x.to_vec()).collect(), hs })
    }

    /// Backward-through-time from a gradient on the final hidden state.
    /// Accumulates parameter gradients into `grad`. Gradients w.r.t. the
    /// inputs are not returned (the inputs are frozen MF embeddings).
    pub fn backward(&self, cache: &RnnCache, g_last: &[f32], grad: &mut RnnGrad) {
        let t_max = cache.hs.len();
        if t_max == 0 {
            return; // Empty sequence: output was a constant zero state.
        }
        let mut gh = g_last.to_vec();
        for t in (0..t_max).rev() {
            // Backward through tanh at step t.
            let mut g_pre = gh.clone();
            tanh_backward(&cache.hs[t], &mut g_pre);
            // Parameter gradients.
            grad.wx.add_outer(&g_pre, &cache.xs[t], 1.0);
            if t > 0 {
                grad.wh.add_outer(&g_pre, &cache.hs[t - 1], 1.0);
            }
            ops::axpy(1.0, &g_pre, &mut grad.b);
            // Propagate to h_{t-1}.
            gh = self.wh.matvec_t(&g_pre);
        }
    }

    /// A zeroed gradient accumulator of matching shape.
    pub fn zero_grad(&self) -> RnnGrad {
        RnnGrad {
            wx: Matrix::zeros(self.wx.rows(), self.wx.cols()),
            wh: Matrix::zeros(self.wh.rows(), self.wh.cols()),
            b: vec![0.0; self.b.len()],
        }
    }

    /// Plain SGD step.
    pub fn sgd_step(&mut self, grad: &RnnGrad, lr: f32) {
        self.wx.add_scaled(&grad.wx, -lr);
        self.wh.add_scaled(&grad.wh, -lr);
        ops::axpy(-lr, &grad.b, &mut self.b);
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.wx.rows() * self.wx.cols() + self.wh.rows() * self.wh.cols() + self.b.len()
    }
}

impl RnnGrad {
    /// Global L2 norm.
    pub fn norm(&self) -> f32 {
        let a = self.wx.frobenius_norm();
        let b = self.wh.frobenius_norm();
        let c = ops::l2_norm(&self.b);
        (a * a + b * b + c * c).sqrt()
    }

    /// Multiplies every entry by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        ops::scale(self.wx.as_mut_slice(), alpha);
        ops::scale(self.wh.as_mut_slice(), alpha);
        ops::scale(&mut self.b, alpha);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq(vals: &[&[f32]]) -> Vec<Vec<f32>> {
        vals.iter().map(|v| v.to_vec()).collect()
    }

    fn loss(rnn: &Rnn, xs: &[Vec<f32>]) -> f32 {
        let refs: Vec<&[f32]> = xs.iter().map(|x| x.as_slice()).collect();
        rnn.forward(&refs).0.iter().map(|h| h * h).sum::<f32>() / 2.0
    }

    #[test]
    fn empty_sequence_yields_zero_state() {
        let mut rng = StdRng::seed_from_u64(0);
        let rnn = Rnn::new(&mut rng, 3, 4, 0.2);
        let (h, _) = rnn.forward(&[]);
        assert_eq!(h, vec![0.0; 4]);
    }

    #[test]
    fn state_is_bounded_by_tanh() {
        let mut rng = StdRng::seed_from_u64(1);
        let rnn = Rnn::new(&mut rng, 2, 3, 5.0); // Large weights on purpose.
        let x = [100.0f32, -100.0];
        let (h, _) = rnn.forward(&[&x, &x, &x]);
        assert!(h.iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn order_matters() {
        let mut rng = StdRng::seed_from_u64(2);
        let rnn = Rnn::new(&mut rng, 2, 4, 0.5);
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        let (h_ab, _) = rnn.forward(&[&a, &b]);
        let (h_ba, _) = rnn.forward(&[&b, &a]);
        assert_ne!(h_ab, h_ba, "RNN must be sequence-order sensitive");
    }

    #[test]
    fn bptt_gradient_check() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut rnn = Rnn::new(&mut rng, 3, 4, 0.4);
        let xs = seq(&[&[0.5, -0.2, 0.1], &[-0.3, 0.8, 0.0], &[0.2, 0.2, -0.6]]);
        let refs: Vec<&[f32]> = xs.iter().map(|x| x.as_slice()).collect();

        let (h, cache) = rnn.forward(&refs);
        let mut grad = rnn.zero_grad();
        rnn.backward(&cache, &h, &mut grad);

        let eps = 1e-2f32;
        // Check a sample of Wx, Wh and b entries.
        for (r, c) in [(0usize, 0usize), (1, 2), (3, 1)] {
            let orig = rnn.wx[(r, c)];
            rnn.wx[(r, c)] = orig + eps;
            let lp = loss(&rnn, &xs);
            rnn.wx[(r, c)] = orig - eps;
            let lm = loss(&rnn, &xs);
            rnn.wx[(r, c)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (grad.wx[(r, c)] - numeric).abs() < 3e-2 * (1.0 + numeric.abs()),
                "wx[{r},{c}]: {} vs {numeric}",
                grad.wx[(r, c)]
            );
        }
        for (r, c) in [(0usize, 1usize), (2, 2), (3, 0)] {
            let orig = rnn.wh[(r, c)];
            rnn.wh[(r, c)] = orig + eps;
            let lp = loss(&rnn, &xs);
            rnn.wh[(r, c)] = orig - eps;
            let lm = loss(&rnn, &xs);
            rnn.wh[(r, c)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (grad.wh[(r, c)] - numeric).abs() < 3e-2 * (1.0 + numeric.abs()),
                "wh[{r},{c}]: {} vs {numeric}",
                grad.wh[(r, c)]
            );
        }
        for i in 0..4 {
            let orig = rnn.b[i];
            rnn.b[i] = orig + eps;
            let lp = loss(&rnn, &xs);
            rnn.b[i] = orig - eps;
            let lm = loss(&rnn, &xs);
            rnn.b[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (grad.b[i] - numeric).abs() < 3e-2 * (1.0 + numeric.abs()),
                "b[{i}]: {} vs {numeric}",
                grad.b[i]
            );
        }
    }

    #[test]
    fn forward_backward_step_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut rnn = Rnn::new(&mut rng, 3, 4, 0.4);
        let xs = seq(&[&[0.2, -0.1, 0.4], &[0.0, 0.3, -0.2]]);
        let refs: Vec<&[f32]> = xs.iter().map(|x| x.as_slice()).collect();
        let (h, cache) = rnn.forward(&refs);
        assert_eq!(h.len(), 4);
        let mut grad = rnn.zero_grad();
        rnn.backward(&cache, &h, &mut grad);
        assert!(grad.norm() > 0.0, "backward produced a zero gradient");
        rnn.sgd_step(&grad, 0.1);
        let (h2, _) = rnn.forward(&refs);
        assert_ne!(h, h2, "sgd_step had no effect");
    }

    #[test]
    fn backward_on_empty_cache_is_noop() {
        let mut rng = StdRng::seed_from_u64(4);
        let rnn = Rnn::new(&mut rng, 2, 3, 0.2);
        let (_, cache) = rnn.forward(&[]);
        let mut grad = rnn.zero_grad();
        rnn.backward(&cache, &[1.0, 1.0, 1.0], &mut grad);
        assert_eq!(grad.norm(), 0.0);
    }
}
