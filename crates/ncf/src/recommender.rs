//! Deployed NCF platform: onboarding + periodic fine-tune on fresh data.
//!
//! Unlike the inductive PinSage deployment (fold-in, instant), a
//! transductive platform absorbs new interactions in batches: every
//! `refresh_every` new accounts it fine-tunes on the fresh interactions.
//! Data poisoning reaches the model exactly through that loop — injected
//! `(user, target)` pairs pull the target item's embedding toward the
//! injected users during the refresh.

use crate::model::NcfModel;
use crate::train::{apply_grad, fine_tune_user, pair_grad, PairGrad};
use ca_recsys::engine::ScoringEngine;
use ca_recsys::{AnswerCache, BlackBoxRecommender, Dataset, ItemId, Scorer, UserId};
use ca_tensor::{ops, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Items [`NcfRecommender::score_batch`] scores side by side. At 32 a
/// block's per-item accumulators fit the vector registers and its
/// transposed `q` panel (`dim × ITEM_BLOCK`) stays in L1 while every user
/// of the batch walks it; the `scoring` bench ran 8, 16, 24 and 64 slower.
const ITEM_BLOCK: usize = 32;

/// A deployed NCF recommender.
#[derive(Clone, Debug)]
pub struct NcfRecommender {
    model: NcfModel,
    data: Dataset,
    /// Global fine-tune after every this many new accounts.
    refresh_every: usize,
    /// Fine-tune passes over the fresh interactions per refresh.
    refresh_epochs: usize,
    fresh_users: Vec<UserId>,
    rng: StdRng,
    /// Ranked answers of the accounts queried so far. Onboarding and its
    /// fine-tune move only the new account's row, which no answer holds;
    /// a refresh moves every row and clears the cache.
    answers: AnswerCache,
}

impl NcfRecommender {
    /// Deploys a trained model over its training data.
    ///
    /// # Panics
    /// Panics if model and data disagree on shapes or `refresh_every` is 0.
    pub fn deploy(
        model: NcfModel,
        data: Dataset,
        refresh_every: usize,
        refresh_epochs: usize,
    ) -> Self {
        assert_eq!(model.n_users(), data.n_users(), "model/user-base mismatch");
        assert_eq!(model.n_items(), data.n_items(), "model/catalog mismatch");
        assert!(refresh_every > 0, "refresh cadence must be positive");
        let seed = model.cfg.seed.wrapping_add(0xD1CE);
        Self {
            model,
            data,
            refresh_every,
            refresh_epochs,
            fresh_users: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            answers: AnswerCache::default(),
        }
    }

    /// Owner-side data access.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Owner-side model access.
    pub fn model(&self) -> &NcfModel {
        &self.model
    }

    /// Accounts waiting for the next global refresh.
    pub fn pending_refresh(&self) -> usize {
        self.fresh_users.len()
    }

    /// Runs the global fine-tune immediately (the "nightly retrain"),
    /// consuming the fresh-interaction buffer. Each fresh interaction takes
    /// one plain-SGD step at the model's training rate. An account whose
    /// profile covers the whole catalog has no negative to draw and is
    /// skipped.
    pub fn refresh(&mut self) {
        let mut slot = PairGrad::default();
        let lr = self.model.cfg.lr;
        let n_items = self.data.n_items();
        for _ in 0..self.refresh_epochs {
            for &u in &self.fresh_users {
                let profile = self.data.profile(u);
                if profile.len() >= n_items {
                    continue;
                }
                for &pos in profile {
                    let neg = loop {
                        use rand::Rng;
                        let cand = ItemId(self.rng.gen_range(0..n_items as u32));
                        if cand != pos && !self.data.contains(u, cand) {
                            break cand;
                        }
                    };
                    pair_grad(&self.model, u, pos, neg, &mut slot);
                    apply_grad(&mut self.model, u, pos, neg, &slot, lr);
                }
            }
        }
        self.fresh_users.clear();
        self.answers.clear();
    }
}

impl Scorer for NcfRecommender {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.model.score(user, item)
    }
}

impl ScoringEngine for NcfRecommender {
    fn catalog_len(&self) -> usize {
        self.data.n_items()
    }

    fn seen(&self, user: UserId) -> &[ItemId] {
        self.data.sorted_profile(user)
    }

    fn score_batch(&self, users: &[UserId], out: &mut Matrix) {
        let model = &self.model;
        let dim = model.dim();
        let (l1, l2) = match model.mlp.layers() {
            [l1, l2] if l1.in_dim() == 2 * dim && l2.out_dim() == 1 => (l1, l2),
            _ => panic!("NCF scoring expects the [2·dim, hidden, 1] MLP of NcfModel::new"),
        };
        let hidden = l1.out_dim();
        // Per user, once per call: the GMF weights `w ⊙ p_u`, and each
        // hidden unit's dot over the `p_u` half of `[p_u ⊕ q_v]`. The scalar
        // path accumulates that half first, from 0.0 in ascending k, so the
        // prefix is the same partial sum for every item.
        let mut wp = Matrix::zeros(users.len(), dim);
        let mut prefix = Matrix::zeros(users.len(), hidden);
        for (i, &u) in users.iter().enumerate() {
            let pu = model.p.row(u.idx());
            for (w, (g, p)) in wp.row_mut(i).iter_mut().zip(model.w_gmf.iter().zip(pu)) {
                *w = g * p;
            }
            for (j, pre) in prefix.row_mut(i).iter_mut().enumerate() {
                *pre = ops::dot(&l1.w.row(j)[..dim], pu);
            }
        }
        // Items go through in blocks, side by side: each (j, k) step is one
        // axpy across the block's transposed `q` panel, so every item keeps
        // its own accumulators and adds its terms in `NcfModel::score`'s
        // order. Hidden unit j continues from its prefix over the `q_v`
        // half, then adds `b1[j]` and clamps as `relu_inplace` does; the
        // output dot runs from 0.0 in ascending j, then adds `b2`; the GMF
        // sum runs from 0.0 in ascending k and is added last. A short last
        // block is padded with zero lanes, whose scores are dropped.
        let n = model.n_items();
        let mut panel = vec![[0.0; ITEM_BLOCK]; dim];
        for start in (0..n).step_by(ITEM_BLOCK) {
            let bw = ITEM_BLOCK.min(n - start);
            for (k, lanes) in panel.iter_mut().enumerate() {
                for (b, slot) in lanes.iter_mut().enumerate() {
                    *slot = if b < bw { model.q.row(start + b)[k] } else { 0.0 };
                }
            }
            for i in 0..users.len() {
                let mut logit = [0.0; ITEM_BLOCK];
                for j in 0..hidden {
                    let mut acc = [prefix[(i, j)]; ITEM_BLOCK];
                    for (lanes, &w) in panel.iter().zip(&l1.w.row(j)[dim..]) {
                        for (a, &q) in acc.iter_mut().zip(lanes) {
                            *a += w * q;
                        }
                    }
                    let (b1, w2) = (l1.b[j], l2.w[(0, j)]);
                    for (o, &a) in logit.iter_mut().zip(&acc) {
                        let mut h = a + b1;
                        if h < 0.0 {
                            h = 0.0;
                        }
                        *o += w2 * h;
                    }
                }
                let mut gmf = [0.0; ITEM_BLOCK];
                for (lanes, &w) in panel.iter().zip(wp.row(i)) {
                    for (g, &q) in gmf.iter_mut().zip(lanes) {
                        *g += w * q;
                    }
                }
                let b2 = l2.b[0];
                let seg = &mut out.row_mut(i)[start..start + bw];
                for ((s, g), o) in seg.iter_mut().zip(gmf).zip(logit) {
                    *s = g + (o + b2);
                }
            }
        }
    }
}

impl BlackBoxRecommender for NcfRecommender {
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
        // Local onboarding fine-tune (only the new user's embedding moves).
        fine_tune_user(&mut self.model, &self.data, uid, 2, &mut self.rng);
        self.fresh_users.push(uid);
        if self.fresh_users.len() >= self.refresh_every {
            self.refresh();
        }
        uid
    }

    fn catalog_size(&self) -> usize {
        self.data.n_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NcfConfig;
    use crate::train::train;
    use ca_recsys::{split_dataset, DatasetBuilder};

    fn platform(refresh_every: usize) -> NcfRecommender {
        let mut b = DatasetBuilder::new(30);
        for u in 0..40u32 {
            let base: u32 = if u < 20 { 0 } else { 15 };
            let profile: Vec<ItemId> = (0..8u32).map(|i| ItemId(base + (u * 5 + i) % 15)).collect();
            b.user(&profile);
        }
        let ds = b.build();
        let mut rng = StdRng::seed_from_u64(1);
        let split = split_dataset(&ds, 0.1, &mut rng);
        let cfg = NcfConfig { max_epochs: 10, seed: 2, ..Default::default() };
        let (model, _) = train(&split.train, &split.validation, &cfg);
        NcfRecommender::deploy(model, split.train, refresh_every, 2)
    }

    #[test]
    fn top_k_excludes_seen_and_is_sorted() {
        let rec = platform(3);
        let list = rec.top_k(UserId(0), 6);
        assert_eq!(list.len(), 6);
        for w in list.windows(2) {
            assert!(rec.score(UserId(0), w[0]) >= rec.score(UserId(0), w[1]));
        }
        for v in &list {
            assert!(!rec.data().contains(UserId(0), *v));
        }
    }

    #[test]
    fn refresh_fires_on_cadence() {
        let mut rec = platform(3);
        rec.inject_user(&[ItemId(1)]);
        rec.inject_user(&[ItemId(2)]);
        assert_eq!(rec.pending_refresh(), 2);
        rec.inject_user(&[ItemId(3)]);
        assert_eq!(rec.pending_refresh(), 0, "refresh must fire at the cadence");
    }

    #[test]
    fn poisoning_reaches_the_model_through_refresh() {
        let mut rec = platform(5);
        // Cold-ish target item for group-0 users.
        let target = ItemId(14);
        let probe = UserId(0);
        let before = rec.score(probe, target);
        // Inject users pairing the target with group-0's items.
        for _ in 0..10 {
            let mut profile = vec![target];
            profile.extend((0..6u32).map(ItemId));
            rec.inject_user(&profile);
        }
        assert_eq!(rec.pending_refresh(), 0);
        let after = rec.score(probe, target);
        assert!(after > before, "refresh-cycle poisoning failed: {before} -> {after}");
    }

    /// Pins the refresh's fine-tune bit for bit: every parameter block
    /// after two refresh cycles of two epochs each.
    #[test]
    fn refresh_matches_golden() {
        let mut rec = platform(4);
        for i in 0..8u32 {
            let profile: Vec<ItemId> = (0..5).map(|j| ItemId((i * 3 + j * 7) % 30)).collect();
            rec.inject_user(&profile);
        }
        assert_eq!(rec.pending_refresh(), 0);
        let m = rec.model();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fnv = |xs: &[f32]| {
            for &x in xs {
                h = (h ^ x.to_bits() as u64).wrapping_mul(0x1000_0000_01b3);
            }
        };
        fnv(m.p.as_slice());
        fnv(m.q.as_slice());
        fnv(&m.w_gmf);
        for l in m.mlp.layers() {
            fnv(l.w.as_slice());
            fnv(&l.b);
        }
        assert_eq!(h, 0x69b9_9673_8fee_5619, "NCF refresh golden diverged");
    }

    /// An account whose profile covers the whole catalog has no negative
    /// to draw: the onboarding fine-tune and the refresh skip it instead of
    /// sampling forever.
    #[test]
    fn injecting_a_catalog_covering_profile_returns() {
        let mut rec = platform(2);
        let everything: Vec<ItemId> = (0..30u32).map(ItemId).collect();
        let mut warm = rec.model().clone();
        let expect = warm.onboard_user(&everything);
        let uid = rec.inject_user(&everything);
        assert_eq!(rec.model().p.row(uid.idx()), warm.p.row(expect.idx()));
        rec.inject_user(&[ItemId(1), ItemId(2)]);
        assert_eq!(rec.pending_refresh(), 0, "the refresh fired");
        assert_eq!(rec.model().p.row(uid.idx()), warm.p.row(expect.idx()));
    }

    #[test]
    fn injections_between_refreshes_still_get_onboarded() {
        let mut rec = platform(100); // refresh far away
        let uid = rec.inject_user(&[ItemId(0), ItemId(1)]);
        // The new account must already receive personalized rankings.
        let list = rec.top_k(uid, 5);
        assert_eq!(list.len(), 5);
        assert!(!list.contains(&ItemId(0)));
    }

    #[test]
    #[should_panic(expected = "refresh cadence")]
    fn zero_cadence_rejected() {
        let rec = platform(3);
        let model = rec.model().clone();
        let data = rec.data().clone();
        let _ = NcfRecommender::deploy(model, data, 0, 1);
    }
}
