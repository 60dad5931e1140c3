//! Item popularity: the non-personalized baseline recommender, plus the
//! popularity-decile analysis for the Figure 4 experiment.
//!
//! §5.3.2 groups target-domain items into 10 popularity deciles ("each group
//! account for 10% of items") and attacks 50 sampled items per group.
//! [`PopularityRecommender`] is the classical most-popular baseline target:
//! every user sees the same catalog-wide popularity ranking minus their own
//! profile — and its all-tied cold-item tail makes it the stress test for
//! deterministic tie-breaking in the shared ranking path.

use crate::blackbox::BlackBoxRecommender;
use crate::dataset::Dataset;
use crate::engine::{AnswerCache, ScoringEngine};
use crate::eval::Scorer;
use crate::ids::{ItemId, UserId};
use ca_tensor::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Most-popular-items recommender: `score(u, v) = popularity(v)`,
/// user-independent except for seen-item exclusion.
///
/// Injection simply registers the new account's interactions, which bump
/// the popularity counts — the only channel an attack has against a
/// count-based system, and exactly how shilling attacks on "trending"
/// shelves work in practice.
#[derive(Clone, Debug)]
pub struct PopularityRecommender {
    data: Dataset,
    /// Ranked answers of the accounts queried so far.
    answers: AnswerCache,
}

impl PopularityRecommender {
    /// Deploys the baseline over the platform's interaction data.
    pub fn deploy(data: Dataset) -> Self {
        Self { data, answers: AnswerCache::default() }
    }

    /// The platform data (owner-side).
    pub fn data(&self) -> &Dataset {
        &self.data
    }
}

impl Scorer for PopularityRecommender {
    fn score(&self, _user: UserId, item: ItemId) -> f32 {
        self.data.item_popularity(item) as f32
    }
}

impl ScoringEngine for PopularityRecommender {
    fn catalog_len(&self) -> usize {
        self.data.n_items()
    }

    fn seen(&self, user: UserId) -> &[ItemId] {
        self.data.sorted_profile(user)
    }

    fn score_batch(&self, users: &[UserId], out: &mut Matrix) {
        if users.is_empty() {
            return;
        }
        // Scores are user-independent: fill the first row, copy the rest.
        for (v, s) in out.row_mut(0).iter_mut().enumerate() {
            *s = self.data.item_popularity(ItemId(v as u32)) as f32;
        }
        for i in 1..users.len() {
            let (head, tail) = out.as_mut_slice().split_at_mut(i * self.data.n_items());
            tail[..self.data.n_items()].copy_from_slice(&head[..self.data.n_items()]);
        }
    }
}

impl BlackBoxRecommender for PopularityRecommender {
    fn top_k(&self, user: UserId, k: usize) -> Vec<ItemId> {
        self.answers.top_k(self, user, k)
    }

    // ca-audit: allow(nested-vec) — k-sized per-query batch result, not dataset-scale state
    fn top_k_batch(&self, users: &[UserId], k: usize) -> Vec<Vec<ItemId>> {
        self.answers.top_k_batch(self, users, k)
    }

    /// Registers the account; its stored items' counts, and so their
    /// columns, move.
    fn inject_user(&mut self, profile: &[ItemId]) -> UserId {
        let uid = self.data.add_user(profile);
        self.answers.touch(self.data.profile(uid), self.data.n_items());
        uid
    }

    fn catalog_size(&self) -> usize {
        self.data.n_items()
    }
}

/// Items grouped into popularity buckets, most popular bucket first.
///
/// CSR layout: the whole catalog, popularity-sorted, in one flat buffer
/// with per-group offsets — groups are contiguous slices of the sort.
#[derive(Clone, Debug)]
pub struct PopularityGroups {
    /// Catalog sorted by descending popularity, groups back to back.
    items: Vec<ItemId>,
    /// `offsets[g]..offsets[g + 1]` bounds group `g`.
    offsets: Vec<u32>,
}

impl PopularityGroups {
    /// Splits the catalog into `n_groups` equal-size buckets by descending
    /// interaction count (group 0 = most popular 1/n of items).
    ///
    /// # Panics
    /// Panics if `n_groups` is 0 or exceeds the catalog size.
    pub fn build(ds: &Dataset, n_groups: usize) -> Self {
        assert!(n_groups > 0, "need at least one group");
        assert!(n_groups <= ds.n_items(), "more groups than items");
        let mut items: Vec<ItemId> = ds.items().collect();
        items.sort_by_key(|&v| std::cmp::Reverse(ds.item_popularity(v)));
        let n = items.len();
        let offsets = (0..=n_groups).map(|g| (g * n / n_groups) as u32).collect();
        Self { items, offsets }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no groups (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The items of group `g` (0 = most popular).
    pub fn group(&self, g: usize) -> &[ItemId] {
        assert!(g < self.len(), "group {g} out of {}", self.len());
        &self.items[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Samples up to `n` items from group `g` without replacement.
    pub fn sample(&self, g: usize, n: usize, rng: &mut impl Rng) -> Vec<ItemId> {
        let mut items = self.group(g).to_vec();
        items.shuffle(rng);
        items.truncate(n);
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Item v gets v interactions (item 0 none, item 9 nine).
    fn graded() -> Dataset {
        let mut b = DatasetBuilder::new(10);
        for u in 0..9u32 {
            // User u interacts with items {u+1, ..., 9}.
            let profile: Vec<ItemId> = ((u + 1)..10).map(ItemId).collect();
            b.user(&profile);
        }
        b.build()
    }

    #[test]
    fn popularity_recommender_ranks_by_count_then_id() {
        let rec = PopularityRecommender::deploy(graded());
        // User 8 saw only item 9; best unseen are 8, 7, 6…
        let top = rec.top_k(UserId(8), 3);
        assert_eq!(top, vec![ItemId(8), ItemId(7), ItemId(6)]);
        for v in rec.top_k(UserId(0), 9) {
            assert!(!rec.data().contains(UserId(0), v));
        }
    }

    #[test]
    fn popularity_ties_resolve_deterministically() {
        // Empty dataset: every item has popularity 0 → one big tie, broken
        // by ascending item id on both the single and batched paths.
        let mut rec = PopularityRecommender::deploy(Dataset::empty(6));
        let u = rec.inject_user(&[]);
        let expected: Vec<ItemId> = (0..4u32).map(ItemId).collect();
        assert_eq!(rec.top_k(u, 4), expected);
        assert_eq!(rec.top_k_batch(&[u, u], 4), vec![expected.clone(), expected]);
    }

    #[test]
    fn popularity_injection_promotes_items() {
        let mut rec = PopularityRecommender::deploy(graded());
        let watcher = UserId(8); // profile {9}
        assert!(!rec.top_k(watcher, 2).contains(&ItemId(1)));
        for _ in 0..10 {
            rec.inject_user(&[ItemId(1)]);
        }
        assert!(rec.top_k(watcher, 2).contains(&ItemId(1)));
    }

    #[test]
    fn groups_cover_catalog_exactly_once() {
        let ds = graded();
        let g = PopularityGroups::build(&ds, 5);
        let mut all: Vec<ItemId> = (0..5).flat_map(|i| g.group(i).to_vec()).collect();
        all.sort();
        let expected: Vec<ItemId> = (0..10u32).map(ItemId).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn group_zero_is_most_popular() {
        let ds = graded();
        let g = PopularityGroups::build(&ds, 5);
        let min_pop_g0 = g.group(0).iter().map(|&v| ds.item_popularity(v)).min().unwrap();
        let max_pop_last = g.group(4).iter().map(|&v| ds.item_popularity(v)).max().unwrap();
        assert!(min_pop_g0 >= max_pop_last);
    }

    #[test]
    fn sample_draws_from_the_right_group() {
        let ds = graded();
        let g = PopularityGroups::build(&ds, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let s = g.sample(1, 3, &mut rng);
        assert_eq!(s.len(), 3);
        for v in s {
            assert!(g.group(1).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "more groups than items")]
    fn too_many_groups_panics() {
        let ds = graded();
        let _ = PopularityGroups::build(&ds, 11);
    }
}
