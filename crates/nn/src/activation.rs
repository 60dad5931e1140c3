//! Element-wise activations with explicit backward passes.

/// ReLU applied in place.
pub fn relu_inplace(x: &mut [f32]) {
    for v in x.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Backward of ReLU: zeroes `grad[i]` wherever the *pre-activation* input was
/// non-positive.
pub fn relu_backward(pre: &[f32], grad: &mut [f32]) {
    assert_eq!(pre.len(), grad.len(), "relu_backward length mismatch");
    for (g, &p) in grad.iter_mut().zip(pre.iter()) {
        if p <= 0.0 {
            *g = 0.0;
        }
    }
}

/// Backward of tanh given the *post-activation* output `y = tanh(x)`:
/// `dx = dy * (1 - y²)`.
pub fn tanh_backward(post: &[f32], grad: &mut [f32]) {
    assert_eq!(post.len(), grad.len(), "tanh_backward length mismatch");
    for (g, &y) in grad.iter_mut().zip(post.iter()) {
        *g *= 1.0 - y * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut x = vec![-1.0, 0.0, 2.5];
        relu_inplace(&mut x);
        assert_eq!(x, vec![0.0, 0.0, 2.5]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let pre = [-1.0, 0.0, 2.5];
        let mut g = vec![1.0, 1.0, 1.0];
        relu_backward(&pre, &mut g);
        assert_eq!(g, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn tanh_backward_matches_finite_difference() {
        let x = 0.37f32;
        let eps = 1e-3;
        let numeric = ((x + eps).tanh() - (x - eps).tanh()) / (2.0 * eps);
        let y = x.tanh();
        let mut g = vec![1.0];
        tanh_backward(&[y], &mut g);
        assert!((g[0] - numeric).abs() < 1e-4, "{} vs {}", g[0], numeric);
    }

    #[test]
    fn tanh_saturates_gradient() {
        let mut g = vec![1.0];
        tanh_backward(&[0.9999], &mut g);
        assert!(g[0] < 1e-3);
    }
}
