//! The unified training configuration.

/// Hyper-parameters of one [`crate::fit`] run — the union of what the three
/// per-crate configs (`BprConfig`, `NcfConfig`, `GnnConfig`) used to carry,
/// under one set of names.
///
/// Model-side hyper-parameters (embedding dim, hidden width, L2 strength)
/// stay in the model crates; this struct owns everything the *epoch loop*
/// needs.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Plain-SGD learning rate, the same at every epoch.
    pub lr: f32,
    /// Maximum epochs (one pass over all interactions each). Runs exactly
    /// this many unless early stopping fires first.
    pub max_epochs: usize,
    /// Early-stopping patience: stop after this many consecutive epochs
    /// whose post-update validation score failed to beat the best by more
    /// than 1e-5. `None` disables early stopping (fixed-epoch training), as
    /// does a model with no validation signal.
    pub patience: Option<usize>,
    /// Pairs per minibatch: gradients within a batch are computed against
    /// the frozen batch-start model and applied in pair order. `1`
    /// recovers classic per-pair SGD exactly.
    pub minibatch: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { lr: 0.05, max_epochs: 30, patience: None, minibatch: 32 }
    }
}
