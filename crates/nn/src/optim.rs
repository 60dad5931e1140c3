//! Gradient clipping for the policy update.
//!
//! The layers in this crate implement plain SGD themselves (`sgd_step`).
//! The recommender models (MF, NCF, PinSage) train through `ca-train` with
//! the same plain SGD, stepping with `sgd_step` and `ca_tensor::ops::axpy`.

/// Global-norm gradient clipping.
///
/// REINFORCE gradients through a deep clustering tree can spike when a rare
/// action's probability is tiny; clipping keeps the policy update bounded.
#[derive(Clone, Copy, Debug)]
pub struct GradClip {
    /// Maximum allowed global L2 norm.
    pub max_norm: f32,
}

impl GradClip {
    /// Returns the scale factor (≤ 1) that brings a gradient of norm
    /// `total_norm` inside the clip radius.
    pub fn scale_for(&self, total_norm: f32) -> f32 {
        if total_norm > self.max_norm && total_norm > 0.0 {
            self.max_norm / total_norm
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_is_identity_inside_radius() {
        let clip = GradClip { max_norm: 5.0 };
        assert_eq!(clip.scale_for(3.0), 1.0);
        assert_eq!(clip.scale_for(0.0), 1.0);
    }

    #[test]
    fn clip_rescales_outside_radius() {
        let clip = GradClip { max_norm: 5.0 };
        let s = clip.scale_for(10.0);
        assert!((s - 0.5).abs() < 1e-6);
    }
}
