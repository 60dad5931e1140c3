//! Fully-connected layer `y = W x + b` with manual backward.

use ca_tensor::{xavier_uniform, Matrix};
use rand::Rng;

/// A dense affine layer. `w` is `out_dim × in_dim`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight matrix, `out_dim × in_dim`.
    pub w: Matrix,
    /// Bias vector, length `out_dim`.
    pub b: Vec<f32>,
}

/// Gradient accumulator mirroring a [`Linear`].
#[derive(Clone, Debug)]
pub struct LinearGrad {
    /// `∂L/∂W`.
    pub w: Matrix,
    /// `∂L/∂b`.
    pub b: Vec<f32>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(rng: &mut impl Rng, in_dim: usize, out_dim: usize) -> Self {
        Self { w: xavier_uniform(rng, out_dim, in_dim), b: vec![0.0; out_dim] }
    }

    /// Gaussian `N(0, std²)` initialization, matching the paper's
    /// `N(0, 0.1²)` recipe for all network parameters.
    pub fn gaussian(rng: &mut impl Rng, in_dim: usize, out_dim: usize, std: f32) -> Self {
        Self {
            w: ca_tensor::init::gaussian_matrix(rng, out_dim, in_dim, 0.0, std),
            b: vec![0.0; out_dim],
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// `y = W x + b`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0; self.out_dim()];
        self.forward_into(x, &mut y);
        y
    }

    /// [`Linear::forward`] written into `y` (length `out_dim`), whose old
    /// contents are overwritten.
    pub fn forward_into(&self, x: &[f32], y: &mut [f32]) {
        self.w.matvec_into(x, y);
        for (yi, bi) in y.iter_mut().zip(self.b.iter()) {
            *yi += bi;
        }
    }

    /// Batched forward: `out.row(i) = W · x.row(i) + b` for every row of
    /// `x`, dispatched as one blocked GEMM (`x · Wᵀ`). Each output row is
    /// bitwise identical to [`Linear::forward`] on the same input row.
    ///
    /// # Panics
    /// Panics if `x` or `out` have the wrong width or disagree on rows.
    pub fn forward_batch_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols(), self.in_dim(), "forward_batch input width mismatch");
        x.matmul_nt_into(&self.w, out);
        for r in 0..out.rows() {
            for (yi, bi) in out.row_mut(r).iter_mut().zip(self.b.iter()) {
                *yi += bi;
            }
        }
    }

    /// Allocating convenience for [`Linear::forward_batch_into`].
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.out_dim());
        self.forward_batch_into(x, &mut out);
        out
    }

    /// Backward pass. Accumulates `∂L/∂W += gy ⊗ x`, `∂L/∂b += gy`, and
    /// returns `∂L/∂x = Wᵀ gy`.
    pub fn backward(&self, x: &[f32], gy: &[f32], grad: &mut LinearGrad) -> Vec<f32> {
        let mut gx = vec![0.0; self.in_dim()];
        self.backward_into(x, gy, grad, &mut gx);
        gx
    }

    /// [`Linear::backward`] with `∂L/∂x` written into `gx` (length
    /// `in_dim`), whose old contents are overwritten.
    pub fn backward_into(&self, x: &[f32], gy: &[f32], grad: &mut LinearGrad, gx: &mut [f32]) {
        debug_assert_eq!(x.len(), self.in_dim());
        debug_assert_eq!(gy.len(), self.out_dim());
        grad.w.add_outer(gy, x, 1.0);
        ca_tensor::ops::axpy(1.0, gy, &mut grad.b);
        self.w.matvec_t_into(gy, gx);
    }

    /// A zeroed gradient accumulator of matching shape.
    pub fn zero_grad(&self) -> LinearGrad {
        LinearGrad { w: Matrix::zeros(self.out_dim(), self.in_dim()), b: vec![0.0; self.out_dim()] }
    }

    /// Plain SGD step: `θ -= lr · ∂L/∂θ`.
    pub fn sgd_step(&mut self, grad: &LinearGrad, lr: f32) {
        self.w.add_scaled(&grad.w, -lr);
        ca_tensor::ops::axpy(-lr, &grad.b, &mut self.b);
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

impl LinearGrad {
    /// Resets the accumulator to zero, keeping allocations.
    pub fn zero(&mut self) {
        self.w.fill_zero();
        self.b.iter_mut().for_each(|x| *x = 0.0);
    }

    /// L2 norm over all entries (used for gradient clipping).
    pub fn norm(&self) -> f32 {
        let wn = self.w.frobenius_norm();
        let bn = ca_tensor::ops::l2_norm(&self.b);
        (wn * wn + bn * bn).sqrt()
    }

    /// Multiplies every entry by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        ca_tensor::ops::scale(self.w.as_mut_slice(), alpha);
        ca_tensor::ops::scale(&mut self.b, alpha);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn loss(layer: &Linear, x: &[f32]) -> f32 {
        // L = sum(y²)/2 gives gy = y, a convenient test harness.
        layer.forward(x).iter().map(|y| y * y).sum::<f32>() / 2.0
    }

    #[test]
    fn forward_known_values() {
        let l = Linear {
            w: Matrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]),
            b: vec![1.0, -1.0],
        };
        let y = l.forward(&[2.0, 4.0, 6.0]);
        assert_eq!(y, vec![2.0 - 6.0 + 1.0, 6.0 - 1.0]);
    }

    #[test]
    fn gradient_check_weights_bias_and_input() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut layer = Linear::new(&mut rng, 4, 3);
        let x: Vec<f32> = (0..4).map(|i| 0.3 * i as f32 - 0.5).collect();

        let y = layer.forward(&x);
        let mut grad = layer.zero_grad();
        let gx = layer.backward(&x, &y, &mut grad);

        let eps = 1e-2f32;
        // Weight gradient, every entry.
        for r in 0..3 {
            for c in 0..4 {
                let orig = layer.w[(r, c)];
                layer.w[(r, c)] = orig + eps;
                let lp = loss(&layer, &x);
                layer.w[(r, c)] = orig - eps;
                let lm = loss(&layer, &x);
                layer.w[(r, c)] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (grad.w[(r, c)] - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                    "w[{r},{c}]: {} vs {}",
                    grad.w[(r, c)],
                    numeric
                );
            }
        }
        // Bias gradient.
        for i in 0..3 {
            let orig = layer.b[i];
            layer.b[i] = orig + eps;
            let lp = loss(&layer, &x);
            layer.b[i] = orig - eps;
            let lm = loss(&layer, &x);
            layer.b[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((grad.b[i] - numeric).abs() < 1e-2 * (1.0 + numeric.abs()));
        }
        // Input gradient.
        for i in 0..4 {
            let mut xp = x.clone();
            xp[i] += eps;
            let lp = loss(&layer, &xp);
            xp[i] = x[i] - eps;
            let lm = loss(&layer, &xp);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((gx[i] - numeric).abs() < 1e-2 * (1.0 + numeric.abs()));
        }
    }

    #[test]
    fn forward_batch_matches_per_row_forward() {
        let mut rng = StdRng::seed_from_u64(17);
        let layer = Linear::new(&mut rng, 5, 3);
        let x = Matrix::from_fn(7, 5, |r, c| (r as f32 - c as f32) * 0.31);
        let out = layer.forward_batch(&x);
        for r in 0..7 {
            assert_eq!(out.row(r), &layer.forward(x.row(r))[..], "row {r}");
        }
    }

    #[test]
    fn sgd_step_descends_quadratic_loss() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Linear::new(&mut rng, 3, 2);
        let x = [1.0, -0.5, 0.25];
        let before = loss(&layer, &x);
        for _ in 0..50 {
            let y = layer.forward(&x);
            let mut grad = layer.zero_grad();
            layer.backward(&x, &y, &mut grad);
            layer.sgd_step(&grad, 0.1);
        }
        let after = loss(&layer, &x);
        assert!(after < before * 0.1, "loss {before} -> {after}");
    }

    #[test]
    fn grad_accumulator_scaling() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Linear::new(&mut rng, 2, 2);
        let mut g = layer.zero_grad();
        layer.backward(&[1.0, 2.0], &[1.0, 1.0], &mut g);
        let n = g.norm();
        assert!(n > 0.0);
        g.scale(0.5);
        assert!((g.norm() - 0.5 * n).abs() < 1e-5);
        g.zero();
        assert_eq!(g.norm(), 0.0);
    }
}
