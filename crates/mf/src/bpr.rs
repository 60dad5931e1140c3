//! BPR (Bayesian Personalized Ranking) trainer.
//!
//! Maximizes `ln σ(score(u, v⁺) − score(u, v⁻))` over observed interactions
//! `(u, v⁺)` and sampled negatives `v⁻ ∉ P_u`, with L2 regularization —
//! the standard implicit-feedback fit for Koren-style MF \[14\].
//!
//! The epoch loop itself lives in `ca-train` ([`ca_train::fit`]); this
//! module contributes only what is MF-specific: the per-pair gradient
//! against a frozen batch-start model and its fixed-order apply
//! ([`ca_train::PairwiseModel`]). MF trains for a fixed number of epochs,
//! without validation.

use crate::model::MfModel;
use ca_recsys::{Dataset, ItemId, UserId};
use ca_tensor::ops::{axpy, sigmoid};
use ca_train::{NullObserver, PairwiseModel, TrainConfig, TrainObserver, TrainOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// BPR hyper-parameters.
///
/// Naming note: earlier revisions called the epoch budget `epochs`; the
/// field is now `max_epochs` to match every other trainer in the
/// workspace.
#[derive(Clone, Debug)]
pub struct BprConfig {
    /// Embedding dimensionality (the paper uses 8).
    pub dim: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// L2 regularization strength.
    pub reg: f32,
    /// Training epochs (one pass over all interactions each).
    pub max_epochs: usize,
    /// RNG seed for init, shuffling, and negative sampling.
    pub seed: u64,
    /// Pairs per minibatch. Gradients within a minibatch are computed
    /// against the frozen batch-start model and applied in pair order.
    /// `1` recovers classic per-pair SGD exactly.
    pub minibatch: usize,
}

impl Default for BprConfig {
    fn default() -> Self {
        Self { dim: 8, lr: 0.05, reg: 1e-4, max_epochs: 30, seed: 0, minibatch: 32 }
    }
}

impl BprConfig {
    /// The `ca-train` driver configuration this config describes: a fixed
    /// `max_epochs` run, with no early stopping.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            lr: self.lr,
            max_epochs: self.max_epochs,
            patience: None,
            minibatch: self.minibatch,
        }
    }
}

/// The MF side of the [`PairwiseModel`] contract: model + the L2 strength
/// its gradients fold in.
struct MfTrainer {
    model: MfModel,
    reg: f32,
}

impl PairwiseModel for MfTrainer {
    type Grad = PairGrad;

    fn pair_grad(&self, u: UserId, pos: ItemId, neg: ItemId, grad: &mut PairGrad) -> f32 {
        pair_grad(&self.model, u, pos, neg, self.reg, grad)
    }

    fn apply(&mut self, u: UserId, pos: ItemId, neg: ItemId, g: &PairGrad, lr: f32) {
        apply_grad(&mut self.model, u, pos, neg, g, lr);
    }
}

/// Trains an [`MfModel`] on `ds` with minibatch BPR-SGD for exactly
/// `cfg.max_epochs` epochs (MF's historical fixed-epoch behavior).
///
/// Determinism: negatives are sampled in pair order (the RNG stream is
/// identical for every `minibatch`); per-pair gradients are order-blind
/// functions of the frozen batch-start model and are applied in pair
/// order.
pub fn train(ds: &Dataset, cfg: &BprConfig) -> MfModel {
    train_observed(ds, cfg, &mut NullObserver).0
}

/// [`train`] with training telemetry: per-epoch loss, pairs/sec, and the
/// stop reason stream to `obs` (see [`ca_train::History`]).
pub fn train_observed(
    ds: &Dataset,
    cfg: &BprConfig,
    obs: &mut dyn TrainObserver,
) -> (MfModel, TrainOutcome) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let model = MfModel::new(&mut rng, ds.n_users(), ds.n_items(), cfg.dim);
    let mut trainer = MfTrainer { model, reg: cfg.reg };
    let outcome = ca_train::fit(&mut trainer, ds, &cfg.train_config(), &mut rng, obs);
    (trainer.model, outcome)
}

/// Gradient slot of one BPR triple `(u, v⁺, v⁻)` against a frozen model.
/// Each pair overwrites the three rows in place.
#[derive(Default)]
pub struct PairGrad {
    d_pu: Vec<f32>,
    d_qp: Vec<f32>,
    d_qn: Vec<f32>,
    d_bp: f32,
    d_bn: f32,
}

/// Writes the pair's gradient into `grad` and returns its loss.
fn pair_grad(
    model: &MfModel,
    u: UserId,
    pos: ItemId,
    neg: ItemId,
    reg: f32,
    grad: &mut PairGrad,
) -> f32 {
    let dim = model.dim();
    let s_pos = dot_rows(model, u, pos) + model.item_bias[pos.idx()];
    let s_neg = dot_rows(model, u, neg) + model.item_bias[neg.idx()];
    // dL/d(s_pos - s_neg) of -ln σ(diff) is -σ(-diff).
    let g = sigmoid(s_neg - s_pos); // = σ(-diff), the positive step size

    let (qp, qn) = (pos.idx(), neg.idx());
    let pu = model.user_emb.row(u.idx());
    grad.d_bp = g - reg * model.item_bias[qp];
    grad.d_bn = -g - reg * model.item_bias[qn];
    grad.d_pu.resize(dim, 0.0);
    grad.d_qp.resize(dim, 0.0);
    grad.d_qn.resize(dim, 0.0);
    for (k, &puk) in pu.iter().enumerate().take(dim) {
        let qpk = model.item_emb[(qp, k)];
        let qnk = model.item_emb[(qn, k)];
        grad.d_pu[k] = g * (qpk - qnk) - reg * puk;
        grad.d_qp[k] = g * puk - reg * qpk;
        grad.d_qn[k] = -g * puk - reg * qnk;
    }
    -sigmoid(s_pos - s_neg).ln()
}

/// Gradient ascent on the pair's five parameter blocks: the user row, both
/// item rows and both item biases. The blocks are disjoint (`pos ≠ neg` by
/// sampling), so block-order application is bitwise identical to the
/// historical interleaved per-`k` loop.
fn apply_grad(model: &mut MfModel, u: UserId, pos: ItemId, neg: ItemId, g: &PairGrad, lr: f32) {
    let (qp, qn) = (pos.idx(), neg.idx());
    axpy(lr, &g.d_pu, model.user_emb.row_mut(u.idx()));
    axpy(lr, &g.d_qp, model.item_emb.row_mut(qp));
    axpy(lr, &g.d_qn, model.item_emb.row_mut(qn));
    model.item_bias[qp] += lr * g.d_bp;
    model.item_bias[qn] += lr * g.d_bn;
}

fn dot_rows(model: &MfModel, u: UserId, v: ItemId) -> f32 {
    ca_tensor::ops::dot(model.user_emb.row(u.idx()), model.item_emb.row(v.idx()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_recsys::{DatasetBuilder, Scorer};
    use rand::Rng;

    /// Two disjoint user groups with disjoint item tastes.
    fn polarized() -> Dataset {
        let mut b = DatasetBuilder::new(20);
        // Users 0..10 like items 0..10; users 10..20 like items 10..20.
        for u in 0..20u32 {
            let base = if u < 10 { 0u32 } else { 10 };
            let profile: Vec<ItemId> = (0..6).map(|i| ItemId(base + (u * 3 + i) % 10)).collect();
            b.user(&profile);
        }
        b.build()
    }

    #[test]
    fn bpr_learns_group_structure() {
        let ds = polarized();
        let cfg = BprConfig { max_epochs: 60, seed: 3, ..Default::default() };
        let model = train(&ds, &cfg);
        // Every user should on average score their own group's items above
        // the other group's.
        let mut correct = 0;
        let mut total = 0;
        for u in 0..20u32 {
            let own_base = if u < 10 { 0 } else { 10 };
            let other_base = 10 - own_base;
            let own: f32 = (0..10).map(|i| model.score(UserId(u), ItemId(own_base + i))).sum();
            let other: f32 = (0..10).map(|i| model.score(UserId(u), ItemId(other_base + i))).sum();
            if own > other {
                correct += 1;
            }
            total += 1;
        }
        assert!(correct >= total - 1, "only {correct}/{total} users learned their group");
    }

    #[test]
    fn bpr_ranks_positives_above_sampled_negatives() {
        let ds = polarized();
        let model = train(&ds, &BprConfig { max_epochs: 60, seed: 4, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(5);
        let mut wins = 0;
        let mut total = 0;
        for (u, pos) in ds.interactions() {
            let neg = loop {
                let cand = ItemId(rng.gen_range(0..ds.n_items() as u32));
                if !ds.contains(u, cand) {
                    break cand;
                }
            };
            if model.score(u, pos) > model.score(u, neg) {
                wins += 1;
            }
            total += 1;
        }
        let auc = wins as f32 / total as f32;
        assert!(auc > 0.9, "training AUC {auc}");
    }

    /// A user who has seen the whole catalog has no negative to draw: that
    /// user's pairs are dropped instead of sampling forever, and every
    /// other user still trains.
    #[test]
    fn user_covering_the_catalog_is_skipped() {
        let mut b = DatasetBuilder::new(4);
        b.user(&[ItemId(0), ItemId(1), ItemId(2), ItemId(3)]);
        b.user(&[ItemId(0), ItemId(1)]);
        b.user(&[ItemId(2), ItemId(3)]);
        let ds = b.build();
        let cfg = BprConfig { max_epochs: 3, seed: 5, ..Default::default() };
        let mut hist = ca_train::History::new();
        let (model, _) = train_observed(&ds, &cfg, &mut hist);
        assert!(hist.epochs.iter().all(|e| e.pairs == 4), "only the 4 other pairs train");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let init = MfModel::new(&mut rng, ds.n_users(), ds.n_items(), cfg.dim);
        assert_eq!(model.user_emb.row(0), init.user_emb.row(0));
        for u in 1..3 {
            assert_ne!(model.user_emb.row(u), init.user_emb.row(u), "user {u} did not train");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let ds = polarized();
        let cfg = BprConfig { max_epochs: 5, seed: 9, ..Default::default() };
        let a = train(&ds, &cfg);
        let b = train(&ds, &cfg);
        assert_eq!(a.user_emb.as_slice(), b.user_emb.as_slice());
        assert_eq!(a.item_bias, b.item_bias);
    }

    #[test]
    fn minibatch_one_recovers_per_pair_sgd() {
        // With a one-pair batch the frozen-model gradient equals the classic
        // sequential sgd_step, and the sampling stream is unchanged — so
        // minibatch size 1 must reproduce per-pair SGD bit for bit. Here we
        // just pin that it trains to the same quality and is deterministic.
        let ds = polarized();
        let cfg = BprConfig { max_epochs: 5, seed: 9, minibatch: 1, ..Default::default() };
        let a = train(&ds, &cfg);
        let b = train(&ds, &cfg);
        assert_eq!(a.user_emb.as_slice(), b.user_emb.as_slice());
    }

    #[test]
    fn observer_sees_a_decreasing_loss_curve() {
        let ds = polarized();
        let cfg = BprConfig { max_epochs: 20, seed: 7, ..Default::default() };
        let mut hist = ca_train::History::new();
        let (_m, outcome) = train_observed(&ds, &cfg, &mut hist);
        assert_eq!(outcome.epochs_run, 20);
        assert_eq!(hist.epochs.len(), 20);
        let curve = hist.loss_curve();
        assert!(
            curve.last().unwrap() < curve.first().unwrap(),
            "BPR loss did not decrease: {curve:?}"
        );
        assert!(outcome.val_history.is_empty(), "plain train has no validation");
    }

    #[test]
    fn same_taste_users_have_similar_embeddings() {
        let ds = polarized();
        let model = train(&ds, &BprConfig { max_epochs: 60, seed: 1, ..Default::default() });
        let cos =
            |a: UserId, b: UserId| ca_tensor::ops::cosine(model.user_vec(a), model.user_vec(b));
        // Mean within-group vs cross-group cosine.
        let mut within = 0.0;
        let mut cross = 0.0;
        let mut n = 0;
        for i in 0..10u32 {
            for j in 0..10u32 {
                if i != j {
                    within += cos(UserId(i), UserId(j));
                    cross += cos(UserId(i), UserId(10 + j));
                    n += 1;
                }
            }
        }
        assert!(
            within / n as f32 > cross / n as f32,
            "within {} cross {}",
            within / n as f32,
            cross / n as f32
        );
    }
}
