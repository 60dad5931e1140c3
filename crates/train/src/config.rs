//! The unified training configuration and learning-rate schedules.

use crate::optim::Optimizer;

/// Per-epoch learning-rate schedule.
///
/// The schedule is a pure function of the epoch index and the base rate, so
/// a training run's learning-rate sequence is fully determined by the
/// configuration — it can never depend on wall-clock, thread count, or
/// observer behavior.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrSchedule {
    /// The base learning rate at every epoch. [`LrSchedule::lr_at`] returns
    /// the base rate *bit-for-bit* (no multiplication by 1.0), so constant
    /// schedules reproduce the historical fixed-rate loops exactly.
    Constant,
    /// Multiply the rate by `factor` every `every` epochs:
    /// `lr(e) = base · factor^(e / every)`.
    StepDecay {
        /// Epochs between decays (≥ 1; 0 is treated as 1).
        every: usize,
        /// Multiplicative decay per step.
        factor: f32,
    },
    /// Exponential decay: `lr(e) = base · gamma^e`.
    Exponential {
        /// Per-epoch decay factor.
        gamma: f32,
    },
}

impl LrSchedule {
    /// The learning rate for 0-based `epoch` under base rate `base`.
    pub fn lr_at(&self, epoch: usize, base: f32) -> f32 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::StepDecay { every, factor } => {
                base * factor.powi((epoch / every.max(1)) as i32)
            }
            LrSchedule::Exponential { gamma } => base * gamma.powi(epoch as i32),
        }
    }
}

/// Hyper-parameters of one [`crate::fit`] run — the union of what the three
/// per-crate configs (`BprConfig`, `NcfConfig`, `GnnConfig`) used to carry,
/// under one set of names.
///
/// Model-side hyper-parameters (embedding dim, hidden width) stay in the
/// model crates; this struct owns everything the *epoch loop* needs.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Base SGD learning rate (see [`TrainConfig::schedule`]).
    pub lr: f32,
    /// L2 regularization strength. The driver itself never uses this — the
    /// per-pair gradient folds regularization in — but it is recorded here
    /// so one struct describes the full run.
    pub reg: f32,
    /// Maximum epochs (one pass over all interactions each). Runs exactly
    /// this many unless early stopping fires first.
    pub max_epochs: usize,
    /// Early-stopping patience: stop after this many consecutive epochs
    /// whose post-update validation score failed to beat the best by more
    /// than [`TrainConfig::tolerance`]. `None` disables early stopping
    /// (fixed-epoch training), as does a model with no validation signal.
    pub patience: Option<usize>,
    /// Minimum improvement over the best validation score that resets the
    /// patience counter.
    pub tolerance: f32,
    /// Learning-rate schedule over epochs.
    pub schedule: LrSchedule,
    /// Per-pair update rule ([`Optimizer::Sgd`] reproduces the historical
    /// hand-rolled loops bit-for-bit; see [`crate::optim`]).
    pub optimizer: Optimizer,
    /// Pairs per minibatch: gradients within a batch are computed against
    /// the frozen batch-start model and applied in pair order. `1`
    /// recovers classic per-pair SGD exactly.
    pub minibatch: usize,
    /// RNG seed, used by [`crate::fit_seeded`] to create the trainer RNG.
    /// Callers that need the historical draw order (model init on the same
    /// stream, validation-sample shuffle) create the RNG themselves and
    /// call [`crate::fit`].
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 0.05,
            reg: 1e-4,
            max_epochs: 30,
            patience: None,
            tolerance: 1e-5,
            schedule: LrSchedule::Constant,
            optimizer: Optimizer::Sgd,
            minibatch: 32,
            seed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule_is_bitwise_base() {
        for e in 0..100 {
            assert_eq!(LrSchedule::Constant.lr_at(e, 0.05).to_bits(), 0.05f32.to_bits());
        }
    }

    #[test]
    fn step_decay_halves_on_schedule() {
        let s = LrSchedule::StepDecay { every: 10, factor: 0.5 };
        assert_eq!(s.lr_at(0, 1.0), 1.0);
        assert_eq!(s.lr_at(9, 1.0), 1.0);
        assert_eq!(s.lr_at(10, 1.0), 0.5);
        assert_eq!(s.lr_at(25, 1.0), 0.25);
    }

    #[test]
    fn step_decay_zero_period_is_per_epoch() {
        let s = LrSchedule::StepDecay { every: 0, factor: 0.5 };
        assert_eq!(s.lr_at(2, 1.0), 0.25);
    }

    #[test]
    fn exponential_decay_compounds() {
        let s = LrSchedule::Exponential { gamma: 0.9 };
        assert!((s.lr_at(3, 1.0) - 0.9f32.powi(3)).abs() < 1e-7);
    }
}
