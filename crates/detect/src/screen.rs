//! Detector-in-the-loop defense: screen new accounts before they reach the
//! recommender.
//!
//! The defense strategies the paper's motivation cites ([2, 5, 22, 26]) sit
//! between account creation and model ingestion. This wrapper reproduces
//! that loop: every injected profile is scored by the fitted detector and
//! rejected above a threshold, while Top-k queries pass through — giving a
//! measurable trade-off between the platform's false-positive budget and
//! the attack's surviving strength (the attacker still spends budget on
//! rejected accounts).

use crate::detector::ZScoreDetector;
use crate::features::{extract_features, PopularityIndex};
use ca_recsys::{BlackBoxRecommender, ItemId, UserId};
use ca_tensor::Matrix;

/// A platform that screens new accounts with an anomaly detector.
#[derive(Clone)]
pub struct ScreenedRecommender<R> {
    inner: R,
    detector: ZScoreDetector,
    pop: PopularityIndex,
    item_emb: Matrix,
    threshold: f32,
    accepted: usize,
    rejected: usize,
    scores: Vec<f32>,
}

impl<R: BlackBoxRecommender> ScreenedRecommender<R> {
    /// Wraps `inner`. `threshold` is the anomaly score above which new
    /// profiles are rejected; `pop`/`item_emb` provide the feature
    /// geometry (fitted on clean data, like the detector).
    pub fn new(
        inner: R,
        detector: ZScoreDetector,
        pop: PopularityIndex,
        item_emb: Matrix,
        threshold: f32,
    ) -> Self {
        Self {
            inner,
            detector,
            pop,
            item_emb,
            threshold,
            accepted: 0,
            rejected: 0,
            scores: Vec::new(),
        }
    }

    /// Profiles that passed screening.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Profiles the screen rejected.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Anomaly scores of every profile that hit the screen, in injection
    /// order (accepted and rejected alike) — the raw material for
    /// detector precision/recall at any threshold.
    pub fn screened_scores(&self) -> &[f32] {
        &self.scores
    }

    /// Unwraps the platform.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// The anomaly score the screen would assign to a profile.
    pub fn score_profile(&self, profile: &[ItemId]) -> f32 {
        self.detector.score(&extract_features(profile, &self.pop, &self.item_emb))
    }
}

impl<R: BlackBoxRecommender> BlackBoxRecommender for ScreenedRecommender<R> {
    fn top_k(&self, user: UserId, k: usize) -> Vec<ItemId> {
        self.inner.top_k(user, k)
    }

    /// Forwarded, so a reward round behind the screen stays one batched
    /// query of the platform.
    fn top_k_batch(&self, users: &[UserId], k: usize) -> Vec<Vec<ItemId>> {
        self.inner.top_k_batch(users, k)
    }

    /// Screens the profile. Rejected profiles never reach the model; the
    /// returned id is a dead account (the platform "shadow-bans" it), so
    /// the attacker's budget is still spent.
    fn inject_user(&mut self, profile: &[ItemId]) -> UserId {
        let score = self.score_profile(profile);
        self.scores.push(score);
        if score > self.threshold {
            self.rejected += 1;
            // Shadow account: visible to the attacker, invisible to the model.
            UserId(u32::MAX - self.rejected as u32)
        } else {
            self.accepted += 1;
            self.inner.inject_user(profile)
        }
    }

    fn catalog_size(&self) -> usize {
        self.inner.catalog_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_recsys::{Dataset, DatasetBuilder};

    struct NullRec {
        n_users: usize,
        injected: Vec<Vec<ItemId>>,
    }
    impl BlackBoxRecommender for NullRec {
        fn top_k(&self, _u: UserId, k: usize) -> Vec<ItemId> {
            (0..k as u32).map(ItemId).collect()
        }
        fn inject_user(&mut self, p: &[ItemId]) -> UserId {
            self.injected.push(p.to_vec());
            let id = UserId(self.n_users as u32);
            self.n_users += 1;
            id
        }
        fn catalog_size(&self) -> usize {
            20
        }
    }

    fn clean_world() -> (Dataset, PopularityIndex, Matrix, ZScoreDetector) {
        let mut b = DatasetBuilder::new(20);
        for u in 0..30u32 {
            // Genuine users: 4-6 coherent items.
            let len = 4 + (u % 3) as usize;
            let profile: Vec<ItemId> = (0..len as u32).map(|i| ItemId((u + i) % 20)).collect();
            b.user(&profile);
        }
        let ds = b.build();
        let pop = PopularityIndex::build(&ds);
        let emb = Matrix::from_fn(20, 4, |r, c| ((r * 7 + c) as f32 * 0.37).sin());
        let feats: Vec<_> =
            (0..30u32).map(|u| extract_features(ds.profile(UserId(u)), &pop, &emb)).collect();
        let det = ZScoreDetector::fit(&feats);
        (ds, pop, emb, det)
    }

    #[test]
    fn genuine_looking_profiles_pass() {
        let (ds, pop, emb, det) = clean_world();
        let mut screened =
            ScreenedRecommender::new(NullRec { n_users: 0, injected: vec![] }, det, pop, emb, 3.0);
        // Replay a genuine profile: population-typical, must pass.
        screened.inject_user(ds.profile(UserId(0)));
        assert_eq!(screened.accepted(), 1);
        assert_eq!(screened.rejected(), 0);
    }

    #[test]
    fn blatant_fakes_are_rejected() {
        let (_, pop, emb, det) = clean_world();
        let mut screened =
            ScreenedRecommender::new(NullRec { n_users: 0, injected: vec![] }, det, pop, emb, 3.0);
        // A 15-item profile in a 4-6-item population is a massive outlier.
        let fake: Vec<ItemId> = (0..15u32).map(ItemId).collect();
        let id = screened.inject_user(&fake);
        assert_eq!(screened.rejected(), 1);
        assert!(id.0 > 1_000_000, "rejected profile must get a shadow id");
        assert!(screened.into_inner().injected.is_empty(), "fake reached the model");
    }

    #[test]
    fn threshold_trades_off_acceptance() {
        let (ds, pop, emb, det) = clean_world();
        let strict = ScreenedRecommender::new(
            NullRec { n_users: 0, injected: vec![] },
            det.clone(),
            pop.clone(),
            emb.clone(),
            0.1,
        );
        let mut strict = strict;
        let mut lax = ScreenedRecommender::new(
            NullRec { n_users: 0, injected: vec![] },
            det,
            pop,
            emb,
            100.0,
        );
        for u in 0..10u32 {
            strict.inject_user(ds.profile(UserId(u)));
            lax.inject_user(ds.profile(UserId(u)));
        }
        assert_eq!(lax.accepted(), 10, "lax threshold must accept everything");
        assert!(strict.rejected() > 0, "near-zero threshold must reject genuine profiles too");
    }

    /// Answers only batched queries, as an engine-backed platform's
    /// reward round should reach it.
    struct BatchOnly;
    impl BlackBoxRecommender for BatchOnly {
        fn top_k(&self, _u: UserId, _k: usize) -> Vec<ItemId> {
            unreachable!("a batched round behind the screen must stay batched")
        }
        fn top_k_batch(&self, users: &[UserId], k: usize) -> Vec<Vec<ItemId>> {
            users.iter().map(|u| (u.0..u.0 + k as u32).map(ItemId).collect()).collect()
        }
        fn inject_user(&mut self, _p: &[ItemId]) -> UserId {
            UserId(0)
        }
        fn catalog_size(&self) -> usize {
            20
        }
    }

    #[test]
    fn batched_queries_reach_the_platform_batched() {
        let (_, pop, emb, det) = clean_world();
        let screened = ScreenedRecommender::new(BatchOnly, det, pop, emb, 3.0);
        let lists = screened.top_k_batch(&[UserId(4), UserId(1)], 2);
        assert_eq!(lists, vec![vec![ItemId(4), ItemId(5)], vec![ItemId(1), ItemId(2)]]);
    }

    #[test]
    fn queries_pass_through_unscreened() {
        let (_, pop, emb, det) = clean_world();
        let screened =
            ScreenedRecommender::new(NullRec { n_users: 0, injected: vec![] }, det, pop, emb, 3.0);
        assert_eq!(screened.top_k(UserId(0), 3).len(), 3);
        assert_eq!(screened.catalog_size(), 20);
    }
}
