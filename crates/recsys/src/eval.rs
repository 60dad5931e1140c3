//! Sampled ranking evaluation (§5.1.2) and target-item promotion metrics.
//!
//! "As the ranking task is too time-consuming to rank all the items for all
//! the users, we randomly sample 100 items that the user did not interact
//! with and then rank the test item among them."

use crate::dataset::Dataset;
use crate::ids::{ItemId, UserId};
use crate::metrics::MetricAccumulator;
use crate::split::HeldOut;
use rand::Rng;

/// Anything that can score a `(user, item)` pair. Implemented by the MF and
/// GNN recommenders. Higher scores rank earlier.
pub trait Scorer {
    /// Predicted preference of `user` for `item`.
    fn score(&self, user: UserId, item: ItemId) -> f32;
}

/// Number of sampled negatives in the paper's protocol.
pub const NUM_NEGATIVES: usize = 100;

/// The sampled ranking evaluator.
pub struct RankingEval<'a> {
    /// Interactions that count as "already seen" when sampling negatives
    /// (the training set, per the paper).
    pub seen: &'a Dataset,
    /// Cutoffs to report.
    pub ks: Vec<usize>,
}

impl<'a> RankingEval<'a> {
    /// Evaluator with Table 2's cutoffs `{20, 10, 5}`.
    pub fn standard(seen: &'a Dataset) -> Self {
        Self { seen, ks: vec![20, 10, 5] }
    }

    /// Rank of `item` for `user` among `NUM_NEGATIVES` sampled unseen items
    /// (0-based; 0 = best). Ties are broken pessimistically (the test item
    /// loses), so a degenerate constant scorer does not look artificially
    /// good. `None` when `user` has seen every item but `item`: there is
    /// nothing to draw a negative from. That is decided before any draw, so
    /// every other user consumes `rng` exactly as before.
    pub fn rank_against_negatives(
        &self,
        scorer: &impl Scorer,
        user: UserId,
        item: ItemId,
        rng: &mut impl Rng,
    ) -> Option<usize> {
        // Profiles are deduped, so the seen count is the profile length.
        let seen = self.seen.profile(user).len() + usize::from(!self.seen.contains(user, item));
        if seen >= self.seen.n_items() {
            return None;
        }
        let target_score = scorer.score(user, item);
        let n_items = self.seen.n_items() as u32;
        let mut rank = 0;
        let mut drawn = 0;
        while drawn < NUM_NEGATIVES {
            let cand = ItemId(rng.gen_range(0..n_items));
            if cand == item || self.seen.contains(user, cand) {
                continue;
            }
            drawn += 1;
            if scorer.score(user, cand) >= target_score {
                rank += 1;
            }
        }
        Some(rank)
    }

    /// HR@K / NDCG@K over a held-out pair list, skipping users who have
    /// seen every other item.
    pub fn evaluate(
        &self,
        scorer: &impl Scorer,
        heldout: &[HeldOut],
        rng: &mut impl Rng,
    ) -> MetricAccumulator {
        let mut acc = MetricAccumulator::new(&self.ks);
        for h in heldout {
            if let Some(rank) = self.rank_against_negatives(scorer, h.user, h.item, rng) {
                acc.push(rank);
            }
        }
        acc
    }

    /// Promotion metrics for a target item: ranks `target` for each user in
    /// `users` against sampled negatives and accumulates HR/NDCG. This is
    /// the quantity Table 2 reports ("hit ratio of the targeted items in the
    /// Top-k recommendation list of the users in the target domain").
    ///
    /// Users who already interacted with `target` are skipped: the paper
    /// defines promotion over users that did not have the item before. So
    /// are users who have seen every other item.
    pub fn evaluate_promotion(
        &self,
        scorer: &impl Scorer,
        users: &[UserId],
        target: ItemId,
        rng: &mut impl Rng,
    ) -> MetricAccumulator {
        let mut acc = MetricAccumulator::new(&self.ks);
        for &u in users {
            if self.seen.contains(u, target) {
                continue;
            }
            if let Some(rank) = self.rank_against_negatives(scorer, u, target, rng) {
                acc.push(rank);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Scores item id directly: item 199 always ranks first.
    struct IdScorer;
    impl Scorer for IdScorer {
        fn score(&self, _u: UserId, v: ItemId) -> f32 {
            v.0 as f32
        }
    }

    /// Constant scorer: everything ties.
    struct FlatScorer;
    impl Scorer for FlatScorer {
        fn score(&self, _u: UserId, _v: ItemId) -> f32 {
            0.0
        }
    }

    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new(200);
        for u in 0..10 {
            let profile: Vec<ItemId> = (0..5).map(|i| ItemId((u * 5 + i) as u32)).collect();
            b.user(&profile);
        }
        b.build()
    }

    #[test]
    fn best_item_has_rank_zero() {
        let ds = toy();
        let ev = RankingEval::standard(&ds);
        let mut rng = StdRng::seed_from_u64(1);
        let rank = ev.rank_against_negatives(&IdScorer, UserId(0), ItemId(199), &mut rng);
        assert_eq!(rank, Some(0));
    }

    #[test]
    fn worst_item_has_rank_100() {
        let ds = toy();
        let ev = RankingEval::standard(&ds);
        let mut rng = StdRng::seed_from_u64(2);
        // User 3's profile is items 15..20, so item 0 is a valid unseen item
        // and scores lowest.
        let rank = ev.rank_against_negatives(&IdScorer, UserId(3), ItemId(0), &mut rng);
        assert_eq!(rank, Some(NUM_NEGATIVES));
    }

    #[test]
    fn ties_are_pessimistic() {
        let ds = toy();
        let ev = RankingEval::standard(&ds);
        let mut rng = StdRng::seed_from_u64(3);
        let rank = ev.rank_against_negatives(&FlatScorer, UserId(0), ItemId(150), &mut rng);
        assert_eq!(rank, Some(NUM_NEGATIVES), "constant scorer must not get credit");
    }

    #[test]
    fn evaluate_aggregates_over_heldout() {
        let ds = toy();
        let ev = RankingEval::standard(&ds);
        let mut rng = StdRng::seed_from_u64(4);
        let heldout = vec![
            HeldOut { user: UserId(0), item: ItemId(199) },
            HeldOut { user: UserId(1), item: ItemId(198) },
        ];
        let acc = ev.evaluate(&IdScorer, &heldout, &mut rng);
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.hr(5), 1.0);
    }

    #[test]
    fn promotion_skips_users_who_have_the_item() {
        let ds = toy();
        let ev = RankingEval::standard(&ds);
        let mut rng = StdRng::seed_from_u64(5);
        // Item 0 is in user 0's profile but in nobody else's.
        let users: Vec<UserId> = (0..10).map(UserId).collect();
        let acc = ev.evaluate_promotion(&IdScorer, &users, ItemId(0), &mut rng);
        assert_eq!(acc.count(), 9);
    }

    #[test]
    fn a_user_who_has_seen_every_other_item_is_skipped() {
        // User 1 has seen all of the catalog but item 9; user 0 sees item 0.
        let mut b = DatasetBuilder::new(10);
        b.user(&[ItemId(0)]);
        b.user(&(0..9).map(ItemId).collect::<Vec<_>>());
        let ds = b.build();
        let ev = RankingEval::standard(&ds);
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(ev.rank_against_negatives(&IdScorer, UserId(1), ItemId(9), &mut rng), None);
        let users = [UserId(0), UserId(1)];
        assert_eq!(ev.evaluate_promotion(&IdScorer, &users, ItemId(9), &mut rng).count(), 1);
        let heldout = [HeldOut { user: UserId(1), item: ItemId(9) }];
        assert_eq!(ev.evaluate(&IdScorer, &heldout, &mut rng).count(), 0);
    }

    #[test]
    fn promotion_of_top_item_hits_everywhere() {
        let ds = toy();
        let ev = RankingEval::standard(&ds);
        let mut rng = StdRng::seed_from_u64(6);
        let users: Vec<UserId> = (0..10).map(UserId).collect();
        let acc = ev.evaluate_promotion(&IdScorer, &users, ItemId(199), &mut rng);
        assert_eq!(acc.hr(20), 1.0);
        assert_eq!(acc.ndcg(20), 1.0);
    }
}
