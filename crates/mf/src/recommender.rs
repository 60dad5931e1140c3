//! Deployed MF platform: a BPR-trained model serving Top-k behind the
//! black-box surface.
//!
//! MF/BPR is the paper's source-domain representation learner, but it is
//! also a perfectly standard deployed recommender — and the simplest target
//! whose batched scoring is literally one GEMM: a block of user embedding
//! rows times the item-embedding table, plus the item bias. Injection folds
//! the new account in at the mean of its profile items' embeddings
//! ([`MfModel::onboard_user`]); no retraining happens, matching the paper's
//! fixed-target-model setting.

use crate::model::MfModel;
use ca_recsys::engine::ScoringEngine;
use ca_recsys::{AnswerCache, BlackBoxRecommender, Dataset, ItemId, Scorer, UserId};
use ca_tensor::Matrix;

/// A deployed matrix-factorization recommender.
#[derive(Clone, Debug)]
pub struct MfRecommender {
    model: MfModel,
    data: Dataset,
    /// Ranked answers of the accounts queried so far. Onboarding moves
    /// only the new account's row, which no answer holds.
    answers: AnswerCache,
}

impl MfRecommender {
    /// Deploys a trained model over the platform's interaction data.
    ///
    /// # Panics
    /// Panics if model and data disagree on user or catalog counts.
    pub fn deploy(model: MfModel, data: Dataset) -> Self {
        assert_eq!(model.n_users(), data.n_users(), "model/user-base mismatch");
        assert_eq!(model.n_items(), data.n_items(), "model/catalog mismatch");
        Self { model, data, answers: AnswerCache::default() }
    }

    /// The platform data (owner-side).
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The underlying model (owner-side).
    pub fn model(&self) -> &MfModel {
        &self.model
    }
}

impl Scorer for MfRecommender {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.model.score(user, item)
    }
}

impl ScoringEngine for MfRecommender {
    fn catalog_len(&self) -> usize {
        self.model.n_items()
    }

    fn seen(&self, user: UserId) -> &[ItemId] {
        self.data.sorted_profile(user)
    }

    fn score_batch(&self, users: &[UserId], out: &mut Matrix) {
        // Gather the batch's embedding rows, then one P_batch · Qᵀ GEMM.
        let dim = self.model.dim();
        let mut p_batch = Matrix::zeros(users.len(), dim);
        for (i, &u) in users.iter().enumerate() {
            p_batch.row_mut(i).copy_from_slice(self.model.user_emb.row(u.idx()));
        }
        p_batch.matmul_nt_into(&self.model.item_emb, out);
        for i in 0..users.len() {
            for (s, b) in out.row_mut(i).iter_mut().zip(self.model.item_bias.iter()) {
                *s += b;
            }
        }
    }
}

impl BlackBoxRecommender for MfRecommender {
    fn top_k(&self, user: UserId, k: usize) -> Vec<ItemId> {
        self.answers.top_k(self, user, k)
    }

    fn top_k_batch(&self, users: &[UserId], k: usize) -> Vec<Vec<ItemId>> {
        self.answers.top_k_batch(self, users, k)
    }

    fn inject_user(&mut self, profile: &[ItemId]) -> UserId {
        let uid = self.data.add_user(profile);
        // `add_user` dedups; read the stored run straight from the arena.
        let mid = self.model.onboard_user(self.data.profile(uid));
        debug_assert_eq!(uid, mid);
        uid
    }

    fn catalog_size(&self) -> usize {
        self.model.n_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_recsys::DatasetBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn platform() -> MfRecommender {
        let mut b = DatasetBuilder::new(20);
        for u in 0..12u32 {
            let profile: Vec<ItemId> = (0..5u32).map(|i| ItemId((u * 3 + i) % 20)).collect();
            b.user(&profile);
        }
        let data = b.build();
        let mut rng = StdRng::seed_from_u64(7);
        let model = MfModel::new(&mut rng, data.n_users(), data.n_items(), 8);
        MfRecommender::deploy(model, data)
    }

    #[test]
    fn top_k_excludes_seen_and_is_sorted() {
        let rec = platform();
        for u in 0..12u32 {
            let user = UserId(u);
            let list = rec.top_k(user, 6);
            assert_eq!(list.len(), 6);
            for w in list.windows(2) {
                assert!(rec.score(user, w[0]) >= rec.score(user, w[1]));
            }
            for v in list {
                assert!(!rec.data().contains(user, v));
            }
        }
    }

    #[test]
    fn batched_scores_match_the_scorer() {
        let rec = platform();
        let users: Vec<UserId> = (0..12u32).map(UserId).collect();
        let mut out = Matrix::zeros(users.len(), rec.catalog_len());
        #[expect(
            clippy::disallowed_methods,
            reason = "parity test pinning the GEMM against the scalar scorer"
        )]
        rec.score_batch(&users, &mut out);
        for (i, &u) in users.iter().enumerate() {
            for v in 0..rec.catalog_len() {
                assert_eq!(out[(i, v)], rec.score(u, ItemId(v as u32)), "u{u} v{v}");
            }
        }
    }

    #[test]
    fn injected_user_is_onboarded_at_item_mean() {
        let mut rec = platform();
        let uid = rec.inject_user(&[ItemId(1), ItemId(3)]);
        assert_eq!(uid.idx(), 12);
        for k in 0..rec.model().dim() {
            let expected = (rec.model().item_emb[(1, k)] + rec.model().item_emb[(3, k)]) / 2.0;
            assert!((rec.model().user_emb[(12, k)] - expected).abs() < 1e-6);
        }
        let list = rec.top_k(uid, 5);
        assert_eq!(list.len(), 5);
        assert!(!list.contains(&ItemId(1)));
    }

    #[test]
    #[should_panic(expected = "model/user-base mismatch")]
    fn deploy_rejects_mismatched_users() {
        let data = DatasetBuilder::new(5).build();
        let mut rng = StdRng::seed_from_u64(0);
        let model = MfModel::new(&mut rng, 3, 5, 4);
        let _ = MfRecommender::deploy(model, data);
    }
}
