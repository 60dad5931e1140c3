//! Training telemetry: the observer hook and its standard implementations.

use crate::driver::StopReason;

/// Per-epoch telemetry emitted by the driver after the epoch's updates have
/// been applied (and after validation, when the model provides one).
///
/// Everything except `seconds` is deterministic: `loss` folds the per-pair
/// losses in pair order (a fixed f64 rounding schedule at any thread
/// count), `lr` is the configured rate, and `val_score` is the model's own
/// deterministic validation protocol. `seconds` (and therefore
/// [`EpochStats::pairs_per_sec`]) is wall-clock — telemetry only, never fed
/// back into training.
#[derive(Clone, Debug)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Training pairs processed this epoch (= the interaction count).
    pub pairs: usize,
    /// Mean BPR loss `-ln σ(s⁺ − s⁻)` over the epoch's pairs, measured
    /// against each pair's frozen batch-start model.
    pub loss: f32,
    /// Learning rate used this epoch.
    pub lr: f32,
    /// Post-update validation score, if the model validates.
    pub val_score: Option<f32>,
    /// Wall-clock seconds spent on the epoch's updates (sampling +
    /// gradients + apply; validation time excluded).
    pub seconds: f64,
}

impl EpochStats {
    /// Training throughput in pairs per second.
    pub fn pairs_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.pairs as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Observer of one training run. All methods default to no-ops, so an
/// implementation only overrides what it cares about. Observers receive
/// telemetry *after* the driver's own bookkeeping — they can never perturb
/// the trained model.
pub trait TrainObserver {
    /// Called once per completed epoch.
    fn on_epoch(&mut self, stats: &EpochStats) {
        let _ = stats;
    }

    /// Called once when training ends, with the stop reason and the number
    /// of epochs whose updates are present in the returned model.
    fn on_stop(&mut self, reason: &StopReason, epochs_run: usize) {
        let _ = (reason, epochs_run);
    }
}

/// The do-nothing observer (the default for un-instrumented call sites).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl TrainObserver for NullObserver {}

/// Records the full run: every epoch's stats plus the stop reason.
#[derive(Clone, Debug, Default)]
pub struct History {
    /// Per-epoch telemetry, in epoch order.
    pub epochs: Vec<EpochStats>,
    /// Why training stopped (`None` while a run is still in progress).
    pub stop: Option<StopReason>,
}

impl History {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-epoch mean-loss curve.
    pub fn loss_curve(&self) -> Vec<f32> {
        self.epochs.iter().map(|e| e.loss).collect()
    }

    /// The per-epoch validation-score curve (epochs without validation are
    /// skipped).
    pub fn val_curve(&self) -> Vec<f32> {
        self.epochs.iter().filter_map(|e| e.val_score).collect()
    }

    /// Per-epoch training throughput in pairs per second.
    pub fn pairs_per_sec(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.pairs_per_sec()).collect()
    }
}

impl TrainObserver for History {
    fn on_epoch(&mut self, stats: &EpochStats) {
        self.epochs.push(stats.clone());
    }

    fn on_stop(&mut self, reason: &StopReason, _epochs_run: usize) {
        self.stop = Some(reason.clone());
    }
}

/// Live progress lines on stderr, one per epoch.
#[derive(Clone, Debug)]
pub struct StderrProgress {
    label: String,
}

impl StderrProgress {
    /// Progress printer whose lines are prefixed with `label`.
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into() }
    }
}

impl TrainObserver for StderrProgress {
    fn on_epoch(&mut self, s: &EpochStats) {
        let val = match s.val_score {
            Some(v) => format!(" val {v:.4}"),
            None => String::new(),
        };
        eprintln!(
            "[train:{}] epoch {:>3} loss {:.5} lr {:.4} {:>9.0} pairs/s{val}",
            self.label,
            s.epoch,
            s.loss,
            s.lr,
            s.pairs_per_sec(),
        );
    }

    fn on_stop(&mut self, reason: &StopReason, epochs_run: usize) {
        eprintln!("[train:{}] stopped after {epochs_run} epochs: {reason:?}", self.label);
    }
}

/// Fans telemetry out to two observers (nest for more).
pub struct Tee<'a>(pub &'a mut dyn TrainObserver, pub &'a mut dyn TrainObserver);

impl TrainObserver for Tee<'_> {
    fn on_epoch(&mut self, stats: &EpochStats) {
        self.0.on_epoch(stats);
        self.1.on_epoch(stats);
    }

    fn on_stop(&mut self, reason: &StopReason, epochs_run: usize) {
        self.0.on_stop(reason, epochs_run);
        self.1.on_stop(reason, epochs_run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(epoch: usize, loss: f32, val: Option<f32>) -> EpochStats {
        EpochStats { epoch, pairs: 100, loss, lr: 0.05, val_score: val, seconds: 0.5 }
    }

    #[test]
    fn history_records_curves_in_order() {
        let mut h = History::new();
        h.on_epoch(&stats(0, 0.7, None));
        h.on_epoch(&stats(1, 0.5, Some(0.3)));
        h.on_stop(&StopReason::MaxEpochs, 2);
        assert_eq!(h.loss_curve(), vec![0.7, 0.5]);
        assert_eq!(h.val_curve(), vec![0.3]);
        assert_eq!(h.pairs_per_sec(), vec![200.0, 200.0]);
        assert_eq!(h.stop, Some(StopReason::MaxEpochs));
    }

    #[test]
    fn tee_feeds_both_observers() {
        let mut a = History::new();
        let mut b = History::new();
        {
            let mut tee = Tee(&mut a, &mut b);
            tee.on_epoch(&stats(0, 0.9, None));
            tee.on_stop(&StopReason::MaxEpochs, 1);
        }
        assert_eq!(a.loss_curve(), b.loss_curve());
        assert_eq!(a.stop, b.stop);
    }

    #[test]
    fn zero_second_epoch_reports_zero_throughput() {
        let s = EpochStats { seconds: 0.0, ..stats(0, 0.1, None) };
        assert_eq!(s.pairs_per_sec(), 0.0);
    }
}
