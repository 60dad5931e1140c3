//! BPR training of the PinSage-like model with stale neighbor aggregates
//! and early stopping on validation HR@10 (§5.1.3).
//!
//! The epoch loop lives in `ca-train`; this module contributes the
//! PinSage-specific [`ca_train::PairwiseModel`] implementation: tower
//! gradients against the frozen batch-start model *and* the epoch-start
//! stale aggregate caches (recomputed in `begin_epoch`, before the pair
//! shuffle), with validation scored through fresh caches after every
//! epoch's updates. Each user's `m_u` reads only the frozen item features,
//! so it is computed once per fit and shared by every pair gradient and
//! every cache rebuild.

use crate::config::GnnConfig;
use crate::model::PinSageModel;
use crate::recommender::{Caches, PinSageRecommender};
use ca_nn::{MlpCache, MlpGrad};
use ca_recsys::eval::RankingEval;
use ca_recsys::{Dataset, HeldOut, ItemId, Scorer, UserId};
use ca_tensor::ops::{self, sigmoid};
use ca_tensor::Matrix;
use ca_train::{NullObserver, PairwiseModel, TrainConfig, TrainObserver};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Summary of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Epochs actually run (≤ `max_epochs` with early stopping).
    pub epochs_run: usize,
    /// Validation HR@10 after each epoch.
    pub val_hr10_history: Vec<f32>,
    /// Best validation HR@10 observed.
    pub best_val_hr10: f32,
}

impl GnnConfig {
    /// The `ca-train` driver configuration this config describes.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            lr: self.lr,
            max_epochs: self.max_epochs,
            patience: Some(self.patience),
            minibatch: self.minibatch,
        }
    }
}

/// View used for validation scoring during training.
struct EvalView<'a> {
    model: &'a PinSageModel,
    caches: &'a Caches,
}

impl Scorer for EvalView<'_> {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.model.score_reprs(
            self.caches.h_user.row(user.idx()),
            self.caches.h_item.row(item.idx()),
            item,
        )
    }
}

/// The PinSage side of the [`PairwiseModel`] contract.
struct GnnTrainer<'a> {
    model: PinSageModel,
    ds: &'a Dataset,
    /// `m_u` of every training user ([`Caches::user_means`]), fixed for the
    /// whole fit because the item features are frozen.
    m_users: Matrix,
    /// Stale aggregates, recomputed at the top of each epoch.
    caches: Option<Caches>,
    val_sample: Vec<HeldOut>,
    val_seed: u64,
}

impl PairwiseModel for GnnTrainer<'_> {
    type Grad = PairGrad;

    /// Recompute the stale neighbor aggregates for this epoch (before the
    /// driver shuffles the pair order).
    fn begin_epoch(&mut self) {
        self.caches = Some(Caches::compute_from(&self.model, self.ds, &self.m_users));
    }

    fn pair_grad(&self, u: UserId, pos: ItemId, neg: ItemId, slot: &mut PairGrad) -> f32 {
        let caches = self.caches.as_ref().expect("begin_epoch computes the caches");
        pair_grad(&self.model, self.m_users.row(u.idx()), caches, pos, neg, slot)
    }

    /// Gradient descent on the item tower, then the user tower (the
    /// features are frozen, so nothing else moves).
    fn apply(&mut self, _u: UserId, _pos: ItemId, _neg: ItemId, g: &PairGrad, lr: f32) {
        self.model.item_tower.sgd_step(&g.item, lr);
        self.model.user_tower.sgd_step(&g.user, lr);
    }

    /// Post-update validation HR@10 through *fresh* caches (the stop
    /// criterion always reads the score of the model after this epoch's
    /// updates, not the stale training aggregates).
    fn validate(&mut self) -> Option<f32> {
        let fresh = Caches::compute_from(&self.model, self.ds, &self.m_users);
        let view = EvalView { model: &self.model, caches: &fresh };
        let ev = RankingEval { seen: self.ds, ks: vec![10] };
        let mut val_rng = StdRng::seed_from_u64(self.val_seed);
        Some(ev.evaluate(&view, &self.val_sample, &mut val_rng).hr(10))
    }
}

/// Trains on `train_ds` with random item features. See [`train_with_features`].
pub fn train(
    train_ds: &Dataset,
    validation: &[HeldOut],
    cfg: &GnnConfig,
) -> (PinSageRecommender, TrainReport) {
    train_observed(train_ds, validation, cfg, &mut NullObserver)
}

/// [`train`] with training telemetry streamed to `obs`.
pub fn train_observed(
    train_ds: &Dataset,
    validation: &[HeldOut],
    cfg: &GnnConfig,
    obs: &mut dyn TrainObserver,
) -> (PinSageRecommender, TrainReport) {
    let model = PinSageModel::with_random_features(train_ds.n_items(), cfg.clone());
    train_model(model, train_ds, validation, obs)
}

/// Trains on `train_ds` with the given frozen item features (e.g. MF item
/// embeddings pretrained on the clean data), early-stopping on `validation`,
/// and deploys the model over `train_ds`.
///
/// Validation pairs are subsampled to at most 500 for epoch-time evaluation;
/// this only affects the early-stopping signal, not reported metrics.
pub fn train_with_features(
    features: ca_tensor::Matrix,
    train_ds: &Dataset,
    validation: &[HeldOut],
    cfg: &GnnConfig,
) -> (PinSageRecommender, TrainReport) {
    train_with_features_observed(features, train_ds, validation, cfg, &mut NullObserver)
}

/// [`train_with_features`] with training telemetry streamed to `obs`.
pub fn train_with_features_observed(
    features: ca_tensor::Matrix,
    train_ds: &Dataset,
    validation: &[HeldOut],
    cfg: &GnnConfig,
    obs: &mut dyn TrainObserver,
) -> (PinSageRecommender, TrainReport) {
    assert_eq!(features.rows(), train_ds.n_items(), "feature/catalog mismatch");
    let model = PinSageModel::new(features, cfg.clone());
    train_model(model, train_ds, validation, obs)
}

fn train_model(
    model: PinSageModel,
    train_ds: &Dataset,
    validation: &[HeldOut],
    obs: &mut dyn TrainObserver,
) -> (PinSageRecommender, TrainReport) {
    let cfg = model.cfg.clone();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x9E37_79B9));

    let mut val_sample: Vec<HeldOut> = validation.to_vec();
    val_sample.shuffle(&mut rng);
    val_sample.truncate(500);

    let m_users = Caches::user_means(&model, train_ds);
    let mut trainer = GnnTrainer {
        model,
        ds: train_ds,
        m_users,
        caches: None,
        val_sample,
        val_seed: cfg.seed.wrapping_add(7777),
    };
    let outcome = ca_train::fit(&mut trainer, train_ds, &cfg.train_config(), &mut rng, obs);

    let rec = PinSageRecommender::deploy(trainer.model, train_ds.clone());
    let report = TrainReport {
        epochs_run: outcome.epochs_run,
        val_hr10_history: outcome.val_history,
        best_val_hr10: if outcome.best_val.is_finite() { outcome.best_val } else { 0.0 },
    };
    (rec, report)
}

/// Gradient slot of one BPR triple: tower gradients against frozen towers
/// (features are frozen, so gradients stop at the tower inputs), plus the
/// forward and backward scratch that computes them.
#[derive(Default)]
pub struct PairGrad {
    item: MlpGrad,
    user: MlpGrad,
    /// `n_v` of the item whose tower input is being built.
    n_v: Vec<f32>,
    /// Item-tower input `[f_v ⊕ n_v ⊕ log(1 + deg_v)]`.
    x: Vec<f32>,
    cache_u: MlpCache,
    cache_pos: MlpCache,
    cache_neg: MlpCache,
    /// Loss gradients on the tower outputs `h_u`, `h_pos` and `h_neg`.
    g_hu: Vec<f32>,
    g_hpos: Vec<f32>,
    g_hneg: Vec<f32>,
    /// Backward scratch, shared by both towers.
    g: Vec<f32>,
    gx: Vec<f32>,
}

/// Writes the pair's tower gradients into `slot` and returns its loss;
/// `m_u` is the user's item→user aggregate.
fn pair_grad(
    model: &PinSageModel,
    m_u: &[f32],
    caches: &Caches,
    pos: ItemId,
    neg: ItemId,
    slot: &mut PairGrad,
) -> f32 {
    // Forward.
    let h_u = model.user_tower.forward_into(m_u, &mut slot.cache_u);

    slot.n_v.resize(model.dim(), 0.0);
    slot.x.resize(model.item_tower.in_dim(), 0.0);
    caches.n_item_into(pos, &mut slot.n_v);
    model.item_tower_input_into(pos, &slot.n_v, caches.n_item_cnt[pos.idx()], &mut slot.x);
    let h_pos = model.item_tower.forward_into(&slot.x, &mut slot.cache_pos);
    caches.n_item_into(neg, &mut slot.n_v);
    model.item_tower_input_into(neg, &slot.n_v, caches.n_item_cnt[neg.idx()], &mut slot.x);
    let h_neg = model.item_tower.forward_into(&slot.x, &mut slot.cache_neg);

    let s_pos = ops::dot(h_u, h_pos);
    let s_neg = ops::dot(h_u, h_neg);
    let g = sigmoid(s_pos - s_neg) - 1.0; // dL/d(s_pos) for L = -ln σ(s⁺−s⁻)

    // dL/dh_u = g * (h_pos - h_neg); dL/dh_pos = g * h_u; dL/dh_neg = -g * h_u.
    slot.g_hu.clear();
    slot.g_hu.extend(h_pos.iter().zip(h_neg).map(|(p, n)| g * (p - n)));
    slot.g_hpos.clear();
    slot.g_hpos.extend(h_u.iter().map(|x| g * x));
    slot.g_hneg.clear();
    slot.g_hneg.extend(h_u.iter().map(|x| -g * x));

    let item = &model.item_tower;
    item.zero_grad_into(&mut slot.item);
    item.backward_into(&slot.cache_pos, &slot.g_hpos, &mut slot.item, &mut slot.g, &mut slot.gx);
    item.backward_into(&slot.cache_neg, &slot.g_hneg, &mut slot.item, &mut slot.g, &mut slot.gx);

    let user = &model.user_tower;
    user.zero_grad_into(&mut slot.user);
    user.backward_into(&slot.cache_u, &slot.g_hu, &mut slot.user, &mut slot.g, &mut slot.gx);

    -sigmoid(s_pos - s_neg).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_recsys::split_dataset;
    use ca_recsys::DatasetBuilder;

    /// Polarized two-group world, same flavor as the MF tests.
    fn polarized(n_per_group: usize) -> Dataset {
        let mut b = DatasetBuilder::new(30);
        for u in 0..2 * n_per_group {
            let base: u32 = if u < n_per_group { 0 } else { 15 };
            let profile: Vec<ItemId> =
                (0..8u32).map(|i| ItemId(base + (u as u32 * 5 + i) % 15)).collect();
            b.user(&profile);
        }
        b.build()
    }

    #[test]
    fn training_improves_validation_ranking() {
        let ds = polarized(20);
        let mut rng = StdRng::seed_from_u64(1);
        let split = split_dataset(&ds, 0.1, &mut rng);
        let cfg = GnnConfig { max_epochs: 15, seed: 2, ..Default::default() };
        let (_rec, report) = train(&split.train, &split.validation, &cfg);
        assert!(report.epochs_run >= 1);
        // Random ranking against 100 negatives gives HR@10 ≈ 0.1; the model
        // must clearly beat that.
        assert!(
            report.best_val_hr10 > 0.3,
            "best val HR@10 = {} (history {:?})",
            report.best_val_hr10,
            report.val_hr10_history
        );
    }

    #[test]
    fn early_stopping_respects_patience() {
        let ds = polarized(10);
        let mut rng = StdRng::seed_from_u64(3);
        let split = split_dataset(&ds, 0.1, &mut rng);
        let cfg = GnnConfig { max_epochs: 40, patience: 2, seed: 4, ..Default::default() };
        let (_rec, report) = train(&split.train, &split.validation, &cfg);
        assert!(report.epochs_run <= 40);
        // With patience 2 the run must not continue more than 2 epochs past
        // the best epoch.
        let best_idx = report
            .val_hr10_history
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert!(report.epochs_run <= best_idx + 1 + 2 + 1);
    }

    #[test]
    fn trained_model_separates_groups() {
        let ds = polarized(20);
        let mut rng = StdRng::seed_from_u64(5);
        let split = split_dataset(&ds, 0.1, &mut rng);
        let cfg = GnnConfig { max_epochs: 12, seed: 6, ..Default::default() };
        let (rec, _) = train(&split.train, &split.validation, &cfg);
        // Group-0 users should rank group-0 items above group-1 items.
        let mut ok = 0;
        for u in 0..20u32 {
            let own: f32 = (0..15u32).map(|v| rec.score(UserId(u), ItemId(v))).sum();
            let other: f32 = (15..30u32).map(|v| rec.score(UserId(u), ItemId(v))).sum();
            if own > other {
                ok += 1;
            }
        }
        assert!(ok >= 17, "only {ok}/20 group-0 users prefer their items");
    }

    #[test]
    fn training_is_deterministic() {
        let ds = polarized(8);
        let mut rng = StdRng::seed_from_u64(7);
        let split = split_dataset(&ds, 0.1, &mut rng);
        let cfg = GnnConfig { max_epochs: 3, seed: 8, ..Default::default() };
        let (a, ra) = train(&split.train, &split.validation, &cfg);
        let (b, rb) = train(&split.train, &split.validation, &cfg);
        assert_eq!(ra.val_hr10_history, rb.val_hr10_history);
        assert_eq!(
            a.model().user_tower.layers()[0].w.as_slice(),
            b.model().user_tower.layers()[0].w.as_slice()
        );
    }

    #[test]
    fn telemetry_matches_the_report() {
        let ds = polarized(8);
        let mut rng = StdRng::seed_from_u64(7);
        let split = split_dataset(&ds, 0.1, &mut rng);
        let cfg = GnnConfig { max_epochs: 4, seed: 8, ..Default::default() };
        let mut hist = ca_train::History::new();
        let (_rec, report) = train_observed(&split.train, &split.validation, &cfg, &mut hist);
        assert_eq!(hist.epochs.len(), report.epochs_run);
        assert_eq!(hist.val_curve(), report.val_hr10_history);
        assert!(hist.loss_curve().iter().all(|&l| l.is_finite() && l > 0.0));
    }
}
