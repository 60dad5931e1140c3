//! BPR training and incremental fine-tuning for the NCF model.
//!
//! The epoch loop (minibatching, in-order negative sampling, early
//! stopping) lives in `ca-train`; this module contributes the NCF-specific
//! [`ca_train::PairwiseModel`] implementation — the two-branch (GMF ⊕ MLP)
//! gradient against a frozen batch-start model and its fixed-order apply,
//! which the platform's fine-tune refresh reuses — plus the validation
//! protocol (HR@10 of a ≤500-pair sample, post-update, fresh seeded RNG
//! per epoch).

use crate::model::{NcfConfig, NcfModel};
use ca_nn::{MlpCache, MlpGrad};
use ca_recsys::eval::RankingEval;
use ca_recsys::{Dataset, HeldOut, ItemId, UserId};
use ca_tensor::ops::{axpy, sigmoid};
use ca_train::{NullObserver, PairwiseModel, TrainConfig, TrainObserver};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Training summary.
#[derive(Clone, Debug)]
pub struct NcfTrainReport {
    /// Epochs run (≤ max with early stopping).
    pub epochs_run: usize,
    /// Validation HR@10 per epoch.
    pub val_hr10_history: Vec<f32>,
    /// Best validation HR@10.
    pub best_val_hr10: f32,
}

impl NcfConfig {
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

/// The NCF side of the [`PairwiseModel`] contract.
struct NcfTrainer<'a> {
    model: NcfModel,
    seen: &'a Dataset,
    val_sample: Vec<HeldOut>,
    val_seed: u64,
}

impl PairwiseModel for NcfTrainer<'_> {
    type Grad = PairGrad;

    fn pair_grad(&self, u: UserId, pos: ItemId, neg: ItemId, slot: &mut PairGrad) -> f32 {
        pair_grad(&self.model, u, pos, neg, slot)
    }

    fn apply(&mut self, u: UserId, pos: ItemId, neg: ItemId, g: &PairGrad, lr: f32) {
        apply_grad(&mut self.model, u, pos, neg, g, lr);
    }

    /// Post-update validation HR@10 (the stop criterion always reads the
    /// score of the model *after* this epoch's updates).
    fn validate(&mut self) -> Option<f32> {
        let ev = RankingEval { seen: self.seen, ks: vec![10] };
        let mut val_rng = StdRng::seed_from_u64(self.val_seed);
        Some(ev.evaluate(&self.model, &self.val_sample, &mut val_rng).hr(10))
    }
}

/// Trains an [`NcfModel`] on the training split with early stopping.
pub fn train(
    train_ds: &Dataset,
    validation: &[HeldOut],
    cfg: &NcfConfig,
) -> (NcfModel, NcfTrainReport) {
    train_observed(train_ds, validation, cfg, &mut NullObserver)
}

/// [`train`] with training telemetry streamed to `obs` (per-epoch loss,
/// pairs/sec, validation HR@10, stop reason — see [`ca_train::History`]).
pub fn train_observed(
    train_ds: &Dataset,
    validation: &[HeldOut],
    cfg: &NcfConfig,
    obs: &mut dyn TrainObserver,
) -> (NcfModel, NcfTrainReport) {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xACE));
    let model = NcfModel::new(train_ds.n_users(), train_ds.n_items(), cfg.clone());

    let mut val_sample: Vec<HeldOut> = validation.to_vec();
    val_sample.shuffle(&mut rng);
    val_sample.truncate(500);

    let mut trainer =
        NcfTrainer { model, seen: train_ds, val_sample, val_seed: cfg.seed.wrapping_add(31337) };
    let outcome = ca_train::fit(&mut trainer, train_ds, &cfg.train_config(), &mut rng, obs);
    let report = NcfTrainReport {
        epochs_run: outcome.epochs_run,
        val_hr10_history: outcome.val_history,
        best_val_hr10: if outcome.best_val.is_finite() { outcome.best_val } else { 0.0 },
    };
    (trainer.model, report)
}

/// Gradient slot of one BPR triple through both branches, against a
/// frozen model, plus the MLP's forward and backward scratch.
/// Regularization is folded in, so applying is a uniform
/// `param -= lr * d`.
#[derive(Default)]
pub struct PairGrad {
    mlp: MlpGrad,
    d_pu: Vec<f32>,
    d_qp: Vec<f32>,
    d_qn: Vec<f32>,
    d_w: Vec<f32>,
    /// Fusion input `[p_u ⊕ q_v]` of the item being scored.
    x: Vec<f32>,
    cache_pos: MlpCache,
    cache_neg: MlpCache,
    /// Backward scratch, and the MLP's input gradients per branch.
    g: Vec<f32>,
    gx_pos: Vec<f32>,
    gx_neg: Vec<f32>,
}

/// Writes the pair's gradient into `slot` and returns its loss.
pub(crate) fn pair_grad(
    model: &NcfModel,
    u: UserId,
    pos: ItemId,
    neg: ItemId,
    slot: &mut PairGrad,
) -> f32 {
    let reg = model.cfg.reg;
    let dim = model.cfg.dim;

    slot.x.resize(2 * dim, 0.0);
    model.fusion_input_into(u, pos, &mut slot.x);
    let out_pos = model.mlp.forward_into(&slot.x, &mut slot.cache_pos)[0];
    model.fusion_input_into(u, neg, &mut slot.x);
    let out_neg = model.mlp.forward_into(&slot.x, &mut slot.cache_neg)[0];
    let gmf = |v: ItemId| -> f32 {
        let pu = model.p.row(u.idx());
        let qv = model.q.row(v.idx());
        (0..dim).map(|k| model.w_gmf[k] * pu[k] * qv[k]).sum()
    };
    let s_pos = gmf(pos) + out_pos;
    let s_neg = gmf(neg) + out_neg;
    let g = sigmoid(s_pos - s_neg) - 1.0; // dL/ds⁺, negative

    model.mlp.zero_grad_into(&mut slot.mlp);
    model.mlp.backward_into(&slot.cache_pos, &[g], &mut slot.mlp, &mut slot.g, &mut slot.gx_pos);
    model.mlp.backward_into(&slot.cache_neg, &[-g], &mut slot.mlp, &mut slot.g, &mut slot.gx_neg);

    let pu = model.p.row(u.idx());
    let qp = model.q.row(pos.idx());
    let qn = model.q.row(neg.idx());
    let (gx_pos, gx_neg) = (&slot.gx_pos, &slot.gx_neg);
    for d in [&mut slot.d_pu, &mut slot.d_qp, &mut slot.d_qn, &mut slot.d_w] {
        d.resize(dim, 0.0);
    }
    for k in 0..dim {
        let w = model.w_gmf[k];
        slot.d_pu[k] = g * w * (qp[k] - qn[k]) + gx_pos[k] + gx_neg[k] + reg * pu[k];
        slot.d_qp[k] = g * w * pu[k] + gx_pos[dim + k] + reg * qp[k];
        slot.d_qn[k] = -g * w * pu[k] + gx_neg[dim + k] + reg * qn[k];
        slot.d_w[k] = g * pu[k] * (qp[k] - qn[k]);
    }
    -sigmoid(s_pos - s_neg).ln()
}

/// Gradient descent at rate `lr`: the MLP (layer by layer), then the user
/// row, both item rows and the GMF fusion weights. All blocks a pair
/// touches are disjoint (`pos ≠ neg` by sampling), so block-order
/// application is bitwise identical to the historical interleaved per-`k`
/// loop.
pub(crate) fn apply_grad(
    model: &mut NcfModel,
    u: UserId,
    pos: ItemId,
    neg: ItemId,
    g: &PairGrad,
    lr: f32,
) {
    model.mlp.sgd_step(&g.mlp, lr);
    axpy(-lr, &g.d_pu, model.p.row_mut(u.idx()));
    axpy(-lr, &g.d_qp, model.q.row_mut(pos.idx()));
    axpy(-lr, &g.d_qn, model.q.row_mut(neg.idx()));
    axpy(-lr, &g.d_w, &mut model.w_gmf);
}

/// Local fine-tuning of a *single user's* embedding on their interactions
/// (incremental onboarding): `epochs` BPR passes over the user's profile,
/// updating only `p_u` (item embeddings, GMF weights, and the MLP stay
/// frozen — the platform does not retrain globally for one signup).
///
/// A user whose profile covers the whole catalog has no negative to draw
/// and is left as onboarded.
pub fn fine_tune_user(
    model: &mut NcfModel,
    data: &Dataset,
    user: UserId,
    epochs: usize,
    rng: &mut impl Rng,
) {
    let dim = model.cfg.dim;
    let lr = model.cfg.lr;
    let n_items = data.n_items() as u32;
    let profile = data.profile(user);
    if profile.is_empty() || profile.len() >= data.n_items() {
        return;
    }
    // A pair slot as the workspace for every step: only its forward and
    // backward scratch is used, since just `p_u` moves (arithmetic below).
    let mut ws = PairGrad::default();
    ws.x.resize(2 * dim, 0.0);
    for _ in 0..epochs {
        for &pos in profile {
            let neg = loop {
                let cand = ItemId(rng.gen_range(0..n_items));
                if cand != pos && !data.contains(user, cand) {
                    break cand;
                }
            };
            model.fusion_input_into(user, pos, &mut ws.x);
            let out_pos = model.mlp.forward_into(&ws.x, &mut ws.cache_pos)[0];
            model.fusion_input_into(user, neg, &mut ws.x);
            let out_neg = model.mlp.forward_into(&ws.x, &mut ws.cache_neg)[0];
            let pu = model.p.row(user.idx());
            let qp = model.q.row(pos.idx());
            let qn = model.q.row(neg.idx());
            let gmf_pos: f32 = (0..dim).map(|k| model.w_gmf[k] * pu[k] * qp[k]).sum();
            let gmf_neg: f32 = (0..dim).map(|k| model.w_gmf[k] * pu[k] * qn[k]).sum();
            let g = sigmoid(gmf_pos + out_pos - gmf_neg - out_neg) - 1.0;
            // Only p_u moves; reuse the MLP backward for its input grads.
            model.mlp.zero_grad_into(&mut ws.mlp);
            model.mlp.backward_into(&ws.cache_pos, &[g], &mut ws.mlp, &mut ws.g, &mut ws.gx_pos);
            model.mlp.backward_into(&ws.cache_neg, &[-g], &mut ws.mlp, &mut ws.g, &mut ws.gx_neg);
            for k in 0..dim {
                let d_pu = g * model.w_gmf[k] * (qp[k] - qn[k]) + ws.gx_pos[k] + ws.gx_neg[k];
                model.p[(user.idx(), k)] -= lr * d_pu;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_recsys::{split_dataset, DatasetBuilder, Scorer};

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
    fn training_beats_random_ranking() {
        let ds = polarized(20);
        let mut rng = StdRng::seed_from_u64(1);
        let split = split_dataset(&ds, 0.1, &mut rng);
        let cfg = NcfConfig { max_epochs: 15, seed: 2, ..Default::default() };
        let (_m, report) = train(&split.train, &split.validation, &cfg);
        assert!(
            report.best_val_hr10 > 0.3,
            "val HR@10 {} (history {:?})",
            report.best_val_hr10,
            report.val_hr10_history
        );
    }

    #[test]
    fn training_is_deterministic() {
        let ds = polarized(8);
        let mut rng = StdRng::seed_from_u64(3);
        let split = split_dataset(&ds, 0.1, &mut rng);
        let cfg = NcfConfig { max_epochs: 3, seed: 4, ..Default::default() };
        let (a, ra) = train(&split.train, &split.validation, &cfg);
        let (b, rb) = train(&split.train, &split.validation, &cfg);
        assert_eq!(ra.val_hr10_history, rb.val_hr10_history);
        assert_eq!(a.p.as_slice(), b.p.as_slice());
    }

    #[test]
    fn telemetry_matches_the_report() {
        let ds = polarized(8);
        let mut rng = StdRng::seed_from_u64(3);
        let split = split_dataset(&ds, 0.1, &mut rng);
        let cfg = NcfConfig { max_epochs: 4, seed: 4, ..Default::default() };
        let mut hist = ca_train::History::new();
        let (_m, report) = train_observed(&split.train, &split.validation, &cfg, &mut hist);
        assert_eq!(hist.epochs.len(), report.epochs_run);
        assert_eq!(hist.val_curve(), report.val_hr10_history);
        assert!(hist.loss_curve().iter().all(|&l| l.is_finite() && l > 0.0));
    }

    #[test]
    fn fine_tune_raises_own_profile_scores() {
        let ds = polarized(20);
        let mut rng = StdRng::seed_from_u64(5);
        let split = split_dataset(&ds, 0.1, &mut rng);
        let cfg = NcfConfig { max_epochs: 10, seed: 6, ..Default::default() };
        let (mut model, _) = train(&split.train, &split.validation, &cfg);

        // Onboard a user and fine-tune their embedding locally.
        let mut data = split.train.clone();
        let profile: Vec<ItemId> = (0..5u32).map(ItemId).collect();
        let uid = data.add_user(&profile);
        let mid = model.onboard_user(&profile);
        assert_eq!(uid, mid);
        // BPR fine-tuning improves the *margin* between profile items and
        // the rest of the catalog (absolute scores may move either way).
        let margin = |m: &NcfModel| {
            let own: f32 =
                profile.iter().map(|&v| m.score(uid, v)).sum::<f32>() / profile.len() as f32;
            let rest: f32 = (5..30u32).map(|v| m.score(uid, ItemId(v))).sum::<f32>() / 25.0;
            own - rest
        };
        // Start the user cold: onboarding warm-starts from the mean item
        // embedding, which already encodes the profile; fine-tuning must
        // recover that signal from scratch.
        for k in 0..model.cfg.dim {
            model.p[(uid.idx(), k)] = 0.0;
        }
        let before = margin(&model);
        fine_tune_user(&mut model, &data, uid, 5, &mut rng);
        let after = margin(&model);
        assert!(after > before, "fine-tune did not improve the margin: {before} -> {after}");
    }
}
