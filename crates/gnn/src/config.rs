//! GNN target-model hyper-parameters.

/// Hyper-parameters for the PinSage-like target recommender.
#[derive(Clone, Debug)]
pub struct GnnConfig {
    /// Representation dimensionality of the tower outputs (paper: 8).
    pub dim: usize,
    /// Hidden width of the user/item towers.
    pub hidden: usize,
    /// SGD learning rate for the towers.
    pub lr: f32,
    /// Maximum training epochs.
    pub max_epochs: usize,
    /// Early-stopping patience on validation HR@10 (paper: 5).
    pub patience: usize,
    /// RNG seed.
    pub seed: u64,
    /// Pairs per minibatch in training: gradients within a batch are
    /// computed against the frozen batch-start towers and applied in pair
    /// order. `1` recovers classic per-pair SGD exactly.
    pub minibatch: usize,
}

impl Default for GnnConfig {
    fn default() -> Self {
        Self { dim: 8, hidden: 16, lr: 0.05, max_epochs: 40, patience: 5, seed: 0, minibatch: 8 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_scale() {
        let c = GnnConfig::default();
        assert_eq!(c.dim, 8);
        assert_eq!(c.patience, 5);
    }
}
