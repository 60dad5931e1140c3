//! The shared epoch driver: one BPR loop for every pairwise model.

use crate::config::TrainConfig;
use crate::observe::{EpochStats, TrainObserver};
use ca_recsys::{Dataset, ItemId, UserId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::time::Instant;

/// Minimum improvement over the best validation score that resets the
/// early-stopping patience counter.
const TOLERANCE: f32 = 1e-5;

/// A model trainable with pairwise (BPR) SGD by [`fit`].
///
/// The contract mirrors what the deterministic minibatch loop needs:
///
/// - [`PairwiseModel::pair_grad`] is a *pure* function of the model as it
///   stood at the start of the minibatch (the driver computes every
///   gradient of a batch before applying any of them), written into a
///   gradient slot the driver owns;
/// - [`PairwiseModel::apply`] folds one pair's gradient into the model
///   as a plain-SGD step at the run's learning rate, in pair order;
/// - [`PairwiseModel::begin_epoch`] runs before each epoch's shuffle — the
///   place to refresh stale per-epoch state (the GNN's neighbor caches);
/// - [`PairwiseModel::validate`] computes the post-update validation score
///   after each epoch; returning `None` (the default) disables early
///   stopping and validation telemetry.
pub trait PairwiseModel {
    /// One pair's gradient slot, filled by [`PairwiseModel::pair_grad`] and
    /// consumed by [`PairwiseModel::apply`]. [`fit`] creates one slot per
    /// minibatch position with `Default` and reuses it for the whole run,
    /// so a slot may also carry the model's forward and backward scratch:
    /// once its buffers have grown, a training step allocates nothing.
    type Grad: Default;

    /// Hook run at the start of each epoch, before shuffling.
    fn begin_epoch(&mut self) {}

    /// Writes the gradient of the BPR triple `(u, v⁺, v⁻)` against the
    /// frozen batch-start model into `grad` and returns the pair's loss
    /// `-ln σ(s⁺ − s⁻)` (telemetry only — the loss never feeds back into
    /// training). `grad` holds whatever an earlier pair left in it, so the
    /// model must overwrite or re-zero every value `apply` reads.
    fn pair_grad(&self, u: UserId, pos: ItemId, neg: ItemId, grad: &mut Self::Grad) -> f32;

    /// Applies one pair's gradient as a plain-SGD step at learning rate
    /// `lr`: every parameter the pair touches moves by `±lr · grad`
    /// (ascent for a score gradient, descent for a loss gradient). Called
    /// in pair order.
    fn apply(&mut self, u: UserId, pos: ItemId, neg: ItemId, grad: &Self::Grad, lr: f32);

    /// Post-update validation score (higher is better), or `None` for
    /// models trained a fixed number of epochs.
    fn validate(&mut self) -> Option<f32> {
        None
    }
}

/// Why [`fit`] returned.
#[derive(Clone, Debug, PartialEq)]
pub enum StopReason {
    /// Ran the full `max_epochs`.
    MaxEpochs,
    /// Early stopping: `patience` consecutive epochs failed to improve the
    /// best post-update validation score by more than 1e-5.
    EarlyStop {
        /// 0-based epoch that produced the best validation score.
        best_epoch: usize,
        /// The best validation score.
        best_score: f32,
    },
}

/// Summary of one [`fit`] run.
#[derive(Clone, Debug)]
pub struct TrainOutcome {
    /// Epochs whose updates are present in the model (≤ `max_epochs`).
    pub epochs_run: usize,
    /// Why training stopped.
    pub stop: StopReason,
    /// Post-update validation score per epoch (empty for models without
    /// validation).
    pub val_history: Vec<f32>,
    /// Best validation score observed (`NEG_INFINITY` if no epoch ever
    /// produced a comparable score — no validation, or all-NaN scores).
    pub best_val: f32,
    /// 0-based epoch of the best validation score.
    pub best_epoch: Option<usize>,
}

/// Trains `model` on `ds` with deterministic minibatch BPR-SGD at the
/// constant rate `cfg.lr`.
///
/// Per epoch: run [`PairwiseModel::begin_epoch`], shuffle the interaction
/// pairs on `rng`, then for each minibatch sample one negative per pair
/// *serially in pair order* on the same `rng` (the random stream is
/// identical at every minibatch size), compute per-pair gradients against
/// the frozen batch-start model, and apply them in pair order. After the
/// epoch's updates, the post-update validation score (if any) drives the
/// shared early-stopping rule: stop once `patience` consecutive epochs fail
/// to beat the best score by more than 1e-5.
///
/// A negative for the pair `(u, v⁺)` is drawn by rejection: uniform
/// candidates from the catalog until one is not in `u`'s profile. Every
/// membership test reads a dense per-user seen bitset built once per call
/// (`⌈n_items / 64⌉` words per user, `n_users · ⌈n_items / 64⌉ · 8`
/// bytes), in O(1). It answers exactly what [`Dataset::contains`] answers,
/// so the draws are those of a binary search in the sorted profile.
///
/// A user who has seen every item in the catalog has no negative to
/// draw, so that user's pairs are dropped before the first shuffle. The
/// decision reads only profile lengths, so a dataset without such users
/// trains on exactly the same random stream.
///
/// The caller owns `rng` so historical draw orders are reproducible (model
/// init on the same stream before training, a validation-sample shuffle
/// between model init and the first epoch).
pub fn fit<M: PairwiseModel>(
    model: &mut M,
    ds: &Dataset,
    cfg: &TrainConfig,
    rng: &mut StdRng,
    obs: &mut dyn TrainObserver,
) -> TrainOutcome {
    // Profiles are deduped, so a user has an unseen item to draw iff the
    // profile is shorter than the catalog.
    let mut pairs: Vec<(UserId, ItemId)> =
        ds.interactions().filter(|&(u, _)| ds.profile(u).len() < ds.n_items()).collect();
    let n_items = ds.n_items() as u32;
    let seen = SeenBits::new(ds);
    let batch = cfg.minibatch.max(1);
    // Scratch for one minibatch, reused by every batch of every epoch.
    let width = batch.min(pairs.len());
    let mut triples: Vec<(UserId, ItemId, ItemId)> = Vec::with_capacity(width);
    let mut slots: Vec<M::Grad> = std::iter::repeat_with(M::Grad::default).take(width).collect();

    let mut val_history = Vec::new();
    let mut best = f32::NEG_INFINITY;
    let mut best_epoch = None;
    let mut since_best = 0usize;
    let mut epochs_run = 0usize;
    let mut stop = StopReason::MaxEpochs;

    for epoch in 0..cfg.max_epochs {
        #[expect(
            clippy::disallowed_methods,
            reason = "epoch seconds are telemetry only; no result depends on them"
        )]
        let t0 = Instant::now();
        model.begin_epoch();
        pairs.shuffle(rng);
        let mut loss_sum = 0f64;
        for chunk in pairs.chunks(batch) {
            // Negative sampling stays on the single trainer RNG.
            triples.clear();
            triples.extend(chunk.iter().map(|&(u, pos)| {
                // `pos` is in `u`'s profile, so the seen test also rejects it.
                let neg = loop {
                    let cand = ItemId(rng.gen_range(0..n_items));
                    if !seen.contains(u, cand) {
                        break cand;
                    }
                };
                (u, pos, neg)
            }));
            for (&(u, pos, neg), slot) in triples.iter().zip(&mut slots) {
                loss_sum += model.pair_grad(u, pos, neg, slot) as f64;
            }
            for (&(u, pos, neg), slot) in triples.iter().zip(&slots) {
                model.apply(u, pos, neg, slot, cfg.lr);
            }
        }
        epochs_run += 1;
        let seconds = t0.elapsed().as_secs_f64();

        // The stop criterion reads the *post-update* score: validation runs
        // after this epoch's applies, so the decision (and the recorded
        // history) describes the model the caller will actually receive.
        let val = model.validate();
        obs.on_epoch(&EpochStats {
            epoch,
            pairs: pairs.len(),
            loss: (loss_sum / pairs.len().max(1) as f64) as f32,
            lr: cfg.lr,
            val_score: val,
            seconds,
        });
        if let Some(score) = val {
            val_history.push(score);
            if score > best + TOLERANCE {
                best = score;
                best_epoch = Some(epoch);
                since_best = 0;
            } else {
                since_best += 1;
                if cfg.patience.is_some_and(|p| since_best >= p) {
                    stop = StopReason::EarlyStop {
                        best_epoch: best_epoch.unwrap_or(0),
                        best_score: best,
                    };
                    break;
                }
            }
        }
    }
    obs.on_stop(&stop, epochs_run);
    TrainOutcome { epochs_run, stop, val_history, best_val: best, best_epoch }
}

/// Dense per-user membership bitset: bit `v % 64` of word
/// `u · words + v / 64` is set iff user `u` has seen item `v`. One
/// allocation per [`fit`] call.
struct SeenBits {
    words: usize,
    bits: Vec<u64>,
}

impl SeenBits {
    fn new(ds: &Dataset) -> Self {
        let words = ds.n_items().div_ceil(64);
        let mut bits = vec![0u64; ds.n_users() * words];
        for u in ds.users() {
            let row = &mut bits[u.idx() * words..(u.idx() + 1) * words];
            for &v in ds.profile(u) {
                row[v.idx() / 64] |= 1 << (v.idx() % 64);
            }
        }
        Self { words, bits }
    }

    /// Whether `u` has seen `v`; the same answer as [`Dataset::contains`].
    #[inline]
    fn contains(&self, u: UserId, v: ItemId) -> bool {
        self.bits[u.idx() * self.words + v.idx() / 64] & (1 << (v.idx() % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{History, NullObserver};
    use ca_recsys::DatasetBuilder;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A scalar "model" whose score for every pair is `theta` and whose
    /// validation scores are scripted; records the order of driver calls.
    struct Scripted {
        theta: f32,
        val_scores: Vec<f32>,
        epoch: usize,
        applies: AtomicUsize,
        applies_at_validate: Vec<usize>,
        begin_epochs: usize,
    }

    impl Scripted {
        fn new(val_scores: Vec<f32>) -> Self {
            Self {
                theta: 0.0,
                val_scores,
                epoch: 0,
                applies: AtomicUsize::new(0),
                applies_at_validate: Vec::new(),
                begin_epochs: 0,
            }
        }
    }

    impl PairwiseModel for Scripted {
        type Grad = f32;
        fn begin_epoch(&mut self) {
            self.begin_epochs += 1;
        }
        fn pair_grad(&self, _u: UserId, _pos: ItemId, _neg: ItemId, g: &mut f32) -> f32 {
            *g = 1.0;
            self.theta.abs() + 0.5
        }
        fn apply(&mut self, _u: UserId, _p: ItemId, _n: ItemId, g: &f32, lr: f32) {
            self.theta += lr * g;
            self.applies.fetch_add(1, Ordering::Relaxed);
        }
        fn validate(&mut self) -> Option<f32> {
            let s = self.val_scores.get(self.epoch).copied();
            self.epoch += 1;
            self.applies_at_validate.push(self.applies.load(Ordering::Relaxed));
            s
        }
    }

    fn world() -> Dataset {
        let mut b = DatasetBuilder::new(20);
        for u in 0..10u32 {
            let profile: Vec<ItemId> = (0..4).map(|i| ItemId((u + i * 5) % 20)).collect();
            b.user(&profile);
        }
        b.build()
    }

    #[test]
    fn fixed_epochs_without_patience() {
        let ds = world();
        // Scores never improve, but patience is None → all epochs run.
        let mut m = Scripted::new(vec![0.1; 8]);
        let cfg = TrainConfig { max_epochs: 8, patience: None, ..Default::default() };
        let out = fit(&mut m, &ds, &cfg, &mut StdRng::seed_from_u64(0), &mut NullObserver);
        assert_eq!(out.epochs_run, 8);
        assert_eq!(out.stop, StopReason::MaxEpochs);
        assert_eq!(out.val_history.len(), 8);
    }

    #[test]
    fn early_stop_fires_patience_epochs_after_best() {
        let ds = world();
        let mut m = Scripted::new(vec![0.1, 0.3, 0.2, 0.2, 0.2, 0.9]);
        let cfg = TrainConfig { max_epochs: 6, patience: Some(2), ..Default::default() };
        let out = fit(&mut m, &ds, &cfg, &mut StdRng::seed_from_u64(0), &mut NullObserver);
        // Best at epoch 1; epochs 2 and 3 exhaust patience 2.
        assert_eq!(out.epochs_run, 4);
        assert_eq!(out.stop, StopReason::EarlyStop { best_epoch: 1, best_score: 0.3 });
        assert_eq!(out.best_epoch, Some(1));
        assert_eq!(out.val_history, vec![0.1, 0.3, 0.2, 0.2]);
    }

    /// Regression for the stop-criterion audit: the decision must read the
    /// *post-update* score. Every `validate` call must observe all of the
    /// epoch's applies (40 pairs/epoch here), and the epoch count must
    /// equal the number of epochs whose updates are in the model.
    #[test]
    fn stop_criterion_reads_post_update_score() {
        let ds = world();
        let n_pairs = ds.interactions().count();
        let mut m = Scripted::new(vec![0.5, 0.1, 0.1]);
        let cfg = TrainConfig { max_epochs: 5, patience: Some(2), ..Default::default() };
        let out = fit(&mut m, &ds, &cfg, &mut StdRng::seed_from_u64(0), &mut NullObserver);
        assert_eq!(out.epochs_run, 3);
        // validate() after epoch e has seen exactly (e+1) × n_pairs applies:
        // the score is computed strictly after the epoch's updates.
        assert_eq!(m.applies_at_validate, vec![n_pairs, 2 * n_pairs, 3 * n_pairs]);
        // Model state contains exactly epochs_run epochs of updates.
        assert_eq!(m.applies.load(Ordering::Relaxed), out.epochs_run * n_pairs);
        assert_eq!(m.begin_epochs, out.epochs_run);
    }

    #[test]
    fn nan_validation_scores_never_count_as_improvement() {
        let ds = world();
        let mut m = Scripted::new(vec![f32::NAN; 6]);
        let cfg = TrainConfig { max_epochs: 6, patience: Some(3), ..Default::default() };
        let out = fit(&mut m, &ds, &cfg, &mut StdRng::seed_from_u64(0), &mut NullObserver);
        assert_eq!(out.epochs_run, 3);
        assert!(out.best_val == f32::NEG_INFINITY && out.best_epoch.is_none());
    }

    #[test]
    fn history_observer_sees_every_epoch_and_the_stop() {
        let ds = world();
        let mut m = Scripted::new(vec![0.4, 0.1, 0.1]);
        let cfg = TrainConfig { max_epochs: 9, patience: Some(2), ..Default::default() };
        let mut h = History::new();
        let out = fit(&mut m, &ds, &cfg, &mut StdRng::seed_from_u64(0), &mut h);
        assert_eq!(h.epochs.len(), out.epochs_run);
        assert_eq!(h.val_curve(), out.val_history);
        assert!(h.epochs.iter().all(|e| e.pairs == ds.interactions().count()));
        assert!(h.epochs.iter().all(|e| e.loss > 0.0));
        // Every epoch steps at the configured rate, bit for bit.
        assert!(h.epochs.iter().all(|e| e.lr.to_bits() == cfg.lr.to_bits()));
        assert_eq!(h.stop, Some(out.stop));
    }

    /// Records every trained `(u, pos, neg)` triple, in apply order.
    #[derive(Default)]
    struct Recorder {
        triples: Vec<(UserId, ItemId, ItemId)>,
    }

    impl PairwiseModel for Recorder {
        type Grad = ();
        fn pair_grad(&self, _u: UserId, _pos: ItemId, _neg: ItemId, _g: &mut ()) -> f32 {
            0.0
        }
        fn apply(&mut self, u: UserId, pos: ItemId, neg: ItemId, _g: &(), _lr: f32) {
            self.triples.push((u, pos, neg));
        }
    }

    /// The documented sampler, replayed with `Dataset::contains`: drop the
    /// users who saw the whole catalog, then per epoch shuffle the pairs and
    /// draw each pair's negative by rejection, in pair order.
    fn replay(ds: &Dataset, epochs: usize, seed: u64) -> Vec<(UserId, ItemId, ItemId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs: Vec<(UserId, ItemId)> =
            ds.interactions().filter(|&(u, _)| ds.profile(u).len() < ds.n_items()).collect();
        let mut out = Vec::new();
        for _ in 0..epochs {
            pairs.shuffle(&mut rng);
            for &(u, pos) in &pairs {
                let neg = loop {
                    let cand = ItemId(rng.gen_range(0..ds.n_items() as u32));
                    if cand != pos && !ds.contains(u, cand) {
                        break cand;
                    }
                };
                out.push((u, pos, neg));
            }
        }
        out
    }

    #[test]
    fn seen_bitset_draws_what_contains_draws_at_word_boundaries() {
        for n_items in [1usize, 63, 64, 65, 127, 128, 129, 200] {
            let mut rng = StdRng::seed_from_u64(n_items as u64);
            let catalog: Vec<ItemId> = (0..n_items as u32).map(ItemId).collect();
            let mut b = DatasetBuilder::new(n_items);
            for _ in 0..12 {
                let mut profile = catalog.clone();
                profile.shuffle(&mut rng);
                profile.truncate(rng.gen_range(0..n_items));
                b.user(&profile);
            }
            // Has seen the whole catalog: no negative to draw, so dropped.
            let full = b.user(&catalog);
            // Misses one item: that item is the only legal negative.
            let missing = ItemId(rng.gen_range(0..n_items as u32));
            let one_short: Vec<ItemId> =
                catalog.iter().copied().filter(|&v| v != missing).collect();
            let short = b.user(&one_short);
            let ds = b.build();

            let cfg = TrainConfig { max_epochs: 3, minibatch: 5, ..Default::default() };
            let mut rec = Recorder::default();
            fit(&mut rec, &ds, &cfg, &mut StdRng::seed_from_u64(11), &mut NullObserver);
            for &(u, pos, neg) in &rec.triples {
                assert!(neg != pos && !ds.contains(u, neg), "{n_items} items: {u} drew {neg}");
                assert_ne!(u, full, "{n_items} items: the full-catalog user was trained");
                if u == short {
                    assert_eq!(neg, missing, "{n_items} items: one legal negative");
                }
            }
            if n_items > 1 {
                assert!(rec.triples.iter().any(|&(u, _, _)| u == short));
            }
            assert_eq!(rec.triples, replay(&ds, 3, 11), "{n_items} items");
        }
    }
}
