//! The deployed recommender: model + live interaction data + representation
//! caches, with inductive fold-in of injected users.

use crate::model::PinSageModel;
use ca_recsys::engine::ScoringEngine;
use ca_recsys::{AnswerCache, BlackBoxRecommender, Dataset, ItemId, Scorer, UserId};
use ca_tensor::{ops, Matrix, Scratch};

/// Representation caches for the current state of the platform.
#[derive(Clone, Debug)]
pub struct Caches {
    /// `h_u` per user, `n_users × dim`.
    pub h_user: Matrix,
    /// Running sum of `h_u` over each item's interacting users.
    pub n_item_sum: Vec<Vec<f32>>,
    /// Number of users aggregated per item.
    pub n_item_cnt: Vec<usize>,
    /// `h_v` per item, `n_items × dim`.
    pub h_item: Matrix,
}

impl Caches {
    /// Computes all caches from scratch, running each tower once over a
    /// stacked input matrix instead of row by row.
    pub fn compute(model: &PinSageModel, data: &Dataset) -> Self {
        Self::compute_from(model, data, &Self::user_means(model, data))
    }

    /// The item→user aggregate `m_u` of every user, one row per user. It
    /// reads only the frozen item features, so it stays valid while the
    /// towers train.
    pub(crate) fn user_means(model: &PinSageModel, data: &Dataset) -> Matrix {
        let mut m_users = Matrix::zeros(data.n_users(), model.feat_dim());
        for u in data.users() {
            m_users.row_mut(u.idx()).copy_from_slice(&model.aggregate_profile(data.profile(u)));
        }
        m_users
    }

    /// [`Caches::compute`] given [`Caches::user_means`] of the same model
    /// features and data.
    pub(crate) fn compute_from(model: &PinSageModel, data: &Dataset, m_users: &Matrix) -> Self {
        let dim = model.dim();
        let mut scratch = Scratch::new();
        let h_user = model.user_tower.infer_batch(m_users, &mut scratch);
        let mut n_item_sum = vec![vec![0.0; dim]; data.n_items()];
        let mut n_item_cnt = vec![0usize; data.n_items()];
        for u in data.users() {
            let hu = h_user.row(u.idx());
            for &v in data.profile(u) {
                ops::axpy(1.0, hu, &mut n_item_sum[v.idx()]);
                n_item_cnt[v.idx()] += 1;
            }
        }
        let mut x_items = Matrix::zeros(data.n_items(), model.item_tower.in_dim());
        let mut n_v = vec![0.0; dim];
        for v in 0..data.n_items() {
            mean_into(&n_item_sum[v], n_item_cnt[v], &mut n_v);
            model.item_tower_input_into(ItemId(v as u32), &n_v, n_item_cnt[v], x_items.row_mut(v));
        }
        let h_item = model.item_tower.infer_batch(&x_items, &mut scratch);
        Self { h_user, n_item_sum, n_item_cnt, h_item }
    }

    /// The user→item aggregate `n_v`.
    pub fn n_item(&self, v: ItemId) -> Vec<f32> {
        let mut n_v = vec![0.0; self.n_item_sum[v.idx()].len()];
        self.n_item_into(v, &mut n_v);
        n_v
    }

    /// [`Caches::n_item`] written into `out` (length `dim`).
    pub(crate) fn n_item_into(&self, v: ItemId, out: &mut [f32]) {
        mean_into(&self.n_item_sum[v.idx()], self.n_item_cnt[v.idx()], out);
    }
}

/// `out = sum · (1/cnt)`, or `sum` itself when `cnt` is 0.
fn mean_into(sum: &[f32], cnt: usize, out: &mut [f32]) {
    out.copy_from_slice(sum);
    if cnt > 0 {
        ops::scale(out, 1.0 / cnt as f32);
    }
}

/// A deployed PinSage recommender: the black-box system under attack.
#[derive(Clone, Debug)]
pub struct PinSageRecommender {
    model: PinSageModel,
    data: Dataset,
    caches: Caches,
    /// Ranked answers of the accounts queried so far. A fold-in moves the
    /// columns of the injected items only.
    answers: AnswerCache,
}

impl PinSageRecommender {
    /// Deploys a trained model over the platform's interaction data.
    pub fn deploy(model: PinSageModel, data: Dataset) -> Self {
        assert_eq!(model.n_items(), data.n_items(), "model/catalog mismatch");
        let caches = Caches::compute(&model, &data);
        Self { model, data, caches, answers: AnswerCache::default() }
    }

    /// The platform's interaction data (owner-side access; not visible to
    /// the attacker).
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The underlying model (owner-side access).
    pub fn model(&self) -> &PinSageModel {
        &self.model
    }

    /// Current representation caches (owner-side access).
    pub fn caches(&self) -> &Caches {
        &self.caches
    }

    /// Rebuilds all caches from scratch (used by tests to validate the
    /// incremental fold-in).
    pub fn refresh_all(&mut self) {
        self.caches = Caches::compute(&self.model, &self.data);
        self.answers.clear();
    }
}

impl Scorer for PinSageRecommender {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.model.score_reprs(
            self.caches.h_user.row(user.idx()),
            self.caches.h_item.row(item.idx()),
            item,
        )
    }
}

impl ScoringEngine for PinSageRecommender {
    fn catalog_len(&self) -> usize {
        self.data.n_items()
    }

    fn seen(&self, user: UserId) -> &[ItemId] {
        self.data.sorted_profile(user)
    }

    fn score_batch(&self, users: &[UserId], out: &mut Matrix) {
        // Both representations are cached, so batched scoring is one
        // H_users · H_itemsᵀ GEMM over the gathered user rows.
        let mut hu_batch = Matrix::zeros(users.len(), self.model.dim());
        for (i, &u) in users.iter().enumerate() {
            hu_batch.row_mut(i).copy_from_slice(self.caches.h_user.row(u.idx()));
        }
        hu_batch.matmul_nt_into(&self.caches.h_item, out);
    }
}

impl BlackBoxRecommender for PinSageRecommender {
    fn top_k(&self, user: UserId, k: usize) -> Vec<ItemId> {
        self.answers.top_k(self, user, k)
    }

    fn top_k_batch(&self, users: &[UserId], k: usize) -> Vec<Vec<ItemId>> {
        self.answers.top_k_batch(self, users, k)
    }

    /// Registers a new account with `profile` and folds it in inductively:
    /// the new user's representation is computed from the item embeddings,
    /// and the aggregates / representations of exactly the touched items are
    /// refreshed. No retraining happens — mirroring both PinSage's
    /// inductive deployment and the paper's fixed-target-model setting.
    fn inject_user(&mut self, profile: &[ItemId]) -> UserId {
        let uid = self.data.add_user(profile);
        // `add_user` dedups; read the stored run straight from the arena
        // (disjoint field borrows: `data` read, `caches`/`model` written).
        let stored = self.data.profile(uid);
        let hu = self.model.user_repr(stored);
        for &v in stored {
            ops::axpy(1.0, &hu, &mut self.caches.n_item_sum[v.idx()]);
            self.caches.n_item_cnt[v.idx()] += 1;
            let n_v = self.caches.n_item(v);
            let repr = self.model.item_repr(v, &n_v, self.caches.n_item_cnt[v.idx()]);
            self.caches.h_item.row_mut(v.idx()).copy_from_slice(&repr);
        }
        self.answers.touch(stored, self.data.n_items());
        self.caches.h_user.push_row(&hu);
        uid
    }

    fn catalog_size(&self) -> usize {
        self.data.n_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GnnConfig;
    use ca_recsys::DatasetBuilder;

    fn tiny_platform() -> PinSageRecommender {
        let mut b = DatasetBuilder::new(12);
        for u in 0..8u32 {
            let profile: Vec<ItemId> = (0..4).map(|i| ItemId((u + i * 3) % 12)).collect();
            b.user(&profile);
        }
        let data = b.build();
        let model = PinSageModel::with_random_features(12, GnnConfig::default());
        PinSageRecommender::deploy(model, data)
    }

    #[test]
    fn top_k_excludes_profile_items() {
        let rec = tiny_platform();
        for u in 0..8u32 {
            let user = UserId(u);
            for v in rec.top_k(user, 5) {
                assert!(!rec.data().contains(user, v), "{user} recommended seen item {v}");
            }
        }
    }

    #[test]
    fn top_k_is_sorted_by_score() {
        let rec = tiny_platform();
        let list = rec.top_k(UserId(0), 6);
        for w in list.windows(2) {
            assert!(rec.score(UserId(0), w[0]) >= rec.score(UserId(0), w[1]));
        }
    }

    #[test]
    fn top_k_matches_exhaustive_argmax() {
        let rec = tiny_platform();
        let user = UserId(2);
        let list = rec.top_k(user, 3);
        let mut best: Vec<(f32, ItemId)> = (0..12u32)
            .map(ItemId)
            .filter(|&v| !rec.data().contains(user, v))
            .map(|v| (rec.score(user, v), v))
            .collect();
        best.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let expected: Vec<ItemId> = best.into_iter().take(3).map(|(_, v)| v).collect();
        assert_eq!(list, expected);
    }

    #[test]
    fn incremental_foldin_matches_full_recompute() {
        let mut rec = tiny_platform();
        let profile = vec![ItemId(0), ItemId(5), ItemId(11)];
        rec.inject_user(&profile);
        rec.inject_user(&[ItemId(5), ItemId(6)]);
        let incremental = rec.clone();
        rec.refresh_all();
        for v in 0..12 {
            for k in 0..8 {
                let a = incremental.caches().h_item[(v, k)];
                let b = rec.caches().h_item[(v, k)];
                assert!((a - b).abs() < 1e-5, "h_item[{v}][{k}]: {a} vs {b}");
            }
        }
        assert_eq!(incremental.caches().h_user.rows(), rec.caches().h_user.rows());
        for u in 0..rec.caches().h_user.rows() {
            for k in 0..8 {
                let a = incremental.caches().h_user[(u, k)];
                let b = rec.caches().h_user[(u, k)];
                assert!((a - b).abs() < 1e-5, "h_user[{u}][{k}]");
            }
        }
    }

    #[test]
    fn injection_changes_touched_item_reprs_only() {
        let mut rec = tiny_platform();
        let before = rec.caches().h_item.clone();
        rec.inject_user(&[ItemId(7)]);
        for v in 0..12 {
            let changed = rec.caches().h_item.row(v) != before.row(v);
            assert_eq!(changed, v == 7, "item {v} changed={changed}");
        }
    }

    #[test]
    fn injected_user_gets_representation_and_recommendations() {
        let mut rec = tiny_platform();
        let uid = rec.inject_user(&[ItemId(1), ItemId(2)]);
        assert_eq!(uid.idx(), 8);
        let list = rec.top_k(uid, 4);
        assert_eq!(list.len(), 4);
        assert!(!list.contains(&ItemId(1)));
    }

    #[test]
    #[should_panic(expected = "model/catalog mismatch")]
    fn deploy_rejects_mismatched_catalog() {
        let data = DatasetBuilder::new(5).build();
        let model = PinSageModel::with_random_features(6, GnnConfig::default());
        let _ = PinSageRecommender::deploy(model, data);
    }
}
