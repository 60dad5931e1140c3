//! Item-based collaborative filtering (ItemKNN) recommender.
//!
//! A classical non-neural baseline recommender: item–item cosine similarity
//! over co-occurrence counts, scoring `s(u, v) = Σ_{i ∈ P_u} sim(i, v)`.
//! It serves two roles in this repository:
//!
//! 1. a *second black-box target model* for the transferability experiment
//!    (`examples/cross_domain_transfer.rs`) — profiles selected against the
//!    GNN are replayed against this model;
//! 2. a sanity-check recommender for the evaluation protocol.
//!
//! Injection updates the co-occurrence counts incrementally, exactly like a
//! deployed count-based system ingesting new interactions.

use crate::blackbox::BlackBoxRecommender;
use crate::dataset::Dataset;
use crate::engine::{AnswerCache, ScoringEngine};
use crate::eval::Scorer;
use crate::ids::{ItemId, UserId};
use ca_tensor::Matrix;

/// Dense co-occurrence ItemKNN recommender.
#[derive(Clone, Debug)]
pub struct ItemKnnRecommender {
    data: Dataset,
    /// Upper-triangular co-occurrence counts, flattened; `co[i][j]` for
    /// `i < j` at `i * n - i(i+1)/2 + (j - i - 1)`.
    co: Vec<u32>,
    n_items: usize,
    /// Ranked answers of the accounts queried so far. An injection moves
    /// the popularity of its items, and so every cell of every account
    /// that holds one of them: it clears the cache.
    answers: AnswerCache,
}

impl ItemKnnRecommender {
    /// Builds the model from the platform's interaction data.
    pub fn deploy(data: Dataset) -> Self {
        let n_items = data.n_items();
        let mut co = vec![0; n_items * (n_items.saturating_sub(1)) / 2];
        for u in data.users() {
            count_pairs(&mut co, n_items, data.profile(u));
        }
        Self { co, data, n_items, answers: AnswerCache::default() }
    }

    #[inline]
    fn tri_index(&self, a: usize, b: usize) -> usize {
        tri_index(self.n_items, a, b)
    }

    /// Raw co-occurrence count between two distinct items.
    pub fn cooccurrence(&self, a: ItemId, b: ItemId) -> u32 {
        if a == b {
            return self.data.item_popularity(a) as u32;
        }
        let (x, y) = if a.idx() < b.idx() { (a.idx(), b.idx()) } else { (b.idx(), a.idx()) };
        self.co[self.tri_index(x, y)]
    }

    /// Cosine similarity `co(a,b) / sqrt(pop(a)·pop(b))`.
    pub fn similarity(&self, a: ItemId, b: ItemId) -> f32 {
        let pa = self.data.item_popularity(a) as f32;
        let pb = self.data.item_popularity(b) as f32;
        if pa == 0.0 || pb == 0.0 {
            return 0.0;
        }
        self.cooccurrence(a, b) as f32 / (pa * pb).sqrt()
    }

    /// The platform data (owner-side).
    pub fn data(&self) -> &Dataset {
        &self.data
    }
}

#[inline]
fn tri_index(n_items: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b);
    a * n_items - a * (a + 1) / 2 + (b - a - 1)
}

/// Counts every unordered item pair of `profile` once in the flattened
/// upper-triangular count table. A free function (not a method) so callers
/// can hold the profile slice borrowed from the same recommender's dataset.
/// A count cannot overflow: each user adds at most 1 per pair, and user
/// ids are `u32`.
fn count_pairs(co: &mut [u32], n_items: usize, profile: &[ItemId]) {
    for i in 0..profile.len() {
        for j in (i + 1)..profile.len() {
            let (a, b) = (profile[i].idx(), profile[j].idx());
            let (a, b) = if a < b { (a, b) } else { (b, a) };
            if a == b {
                continue;
            }
            co[tri_index(n_items, a, b)] += 1;
        }
    }
}

impl Scorer for ItemKnnRecommender {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.data
            .profile(user)
            .iter()
            .map(|&i| if i == item { 0.0 } else { self.similarity(i, item) })
            // From +0.0: `Iterator::sum` starts an `f32` sum at -0.0, which
            // an empty profile would keep as its score.
            .fold(0.0, |acc, s| acc + s)
    }
}

impl ScoringEngine for ItemKnnRecommender {
    fn catalog_len(&self) -> usize {
        self.n_items
    }

    fn seen(&self, user: UserId) -> &[ItemId] {
        self.data.sorted_profile(user)
    }

    fn score_batch(&self, users: &[UserId], out: &mut Matrix) {
        // Each profile item `a` walks its row of the count triangle: the
        // counts against `v > a` are one contiguous run, those against
        // `v < a` one per earlier row, gathered into `col`. Terms are added
        // in profile order, as `Scorer::score` adds them; the ones skipped
        // (`v == a`, a zero-popularity `v`) are +0.0 terms there, which
        // leave a sum from +0.0 of non-negative terms unchanged. `a` itself
        // is in a profile, so its popularity `pa` is at least 1.
        let n = self.n_items;
        let pop: Vec<f32> =
            (0..n).map(|v| self.data.item_popularity(ItemId(v as u32)) as f32).collect();
        let mut col = Vec::with_capacity(n);
        for (i, &u) in users.iter().enumerate() {
            let row = out.row_mut(i);
            row.fill(0.0);
            for &a in self.data.profile(u) {
                let (a, pa) = (a.idx(), pop[a.idx()]);
                col.clear();
                col.extend((0..a).map(|v| self.co[tri_index(n, v, a)]));
                add_similarities(&mut row[..a], &col, pa, &pop[..a]);
                let run = &self.co[tri_index(n, a, a + 1)..][..n - a - 1];
                add_similarities(&mut row[a + 1..], run, pa, &pop[a + 1..]);
            }
        }
    }
}

/// Adds to each `row[v]` the similarity between an item of popularity `pa`
/// and item `v`, given their count `co[v]` and `v`'s popularity `pop[v]`:
/// [`ItemKnnRecommender::similarity`]'s expression, or nothing where
/// `pop[v]` is zero. The quotient is computed for every cell and dropped
/// where it is not wanted, so the loop vectorizes.
#[inline]
fn add_similarities(row: &mut [f32], co: &[u32], pa: f32, pop: &[f32]) {
    for ((s, &c), &pv) in row.iter_mut().zip(co).zip(pop) {
        let q = c as f32 / (pa * pv).sqrt();
        *s += if pv == 0.0 { 0.0 } else { q };
    }
}

impl BlackBoxRecommender for ItemKnnRecommender {
    fn top_k(&self, user: UserId, k: usize) -> Vec<ItemId> {
        self.answers.top_k(self, user, k)
    }

    // ca-audit: allow(nested-vec) — k-sized per-query batch result, not dataset-scale state
    fn top_k_batch(&self, users: &[UserId], k: usize) -> Vec<Vec<ItemId>> {
        self.answers.top_k_batch(self, users, k)
    }

    fn inject_user(&mut self, profile: &[ItemId]) -> UserId {
        let uid = self.data.add_user(profile);
        // Disjoint field borrows: read the stored (deduped) run straight
        // from the arena while updating the co-occurrence counts.
        count_pairs(&mut self.co, self.n_items, self.data.profile(uid));
        self.answers.clear();
        uid
    }

    fn catalog_size(&self) -> usize {
        self.n_items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn items(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    fn platform() -> ItemKnnRecommender {
        let mut b = DatasetBuilder::new(8);
        b.user(&items(&[0, 1, 2]));
        b.user(&items(&[0, 1]));
        b.user(&items(&[3, 4]));
        b.user(&items(&[3, 4, 5]));
        ItemKnnRecommender::deploy(b.build())
    }

    #[test]
    fn cooccurrence_counts_are_correct() {
        let rec = platform();
        assert_eq!(rec.cooccurrence(ItemId(0), ItemId(1)), 2);
        assert_eq!(rec.cooccurrence(ItemId(1), ItemId(0)), 2);
        assert_eq!(rec.cooccurrence(ItemId(0), ItemId(2)), 1);
        assert_eq!(rec.cooccurrence(ItemId(0), ItemId(3)), 0);
    }

    #[test]
    fn similarity_is_cosine_normalized() {
        let rec = platform();
        // co(0,1) = 2, pop(0) = 2, pop(1) = 2 → sim = 1.
        assert!((rec.similarity(ItemId(0), ItemId(1)) - 1.0).abs() < 1e-6);
        assert_eq!(rec.similarity(ItemId(0), ItemId(6)), 0.0);
    }

    #[test]
    fn recommendations_follow_cooccurrence_neighborhoods() {
        let rec = platform();
        // User 1 has {0, 1}; item 2 co-occurs with both; items 3..5 do not.
        let top = rec.top_k(UserId(1), 1);
        assert_eq!(top[0], ItemId(2));
    }

    #[test]
    fn injection_shifts_recommendations() {
        let mut rec = platform();
        let before = rec.score(UserId(1), ItemId(6));
        assert_eq!(before, 0.0);
        // Inject users pairing item 6 with items 0 and 1.
        for _ in 0..3 {
            rec.inject_user(&items(&[0, 1, 6]));
        }
        let after = rec.score(UserId(1), ItemId(6));
        assert!(after > 0.0, "injection must create similarity mass");
        assert!(rec.top_k(UserId(1), 2).contains(&ItemId(6)));
    }

    #[test]
    fn incremental_injection_matches_full_redeploy() {
        let mut rec = platform();
        rec.inject_user(&items(&[2, 5, 7]));
        rec.inject_user(&items(&[0, 7]));
        let rebuilt = ItemKnnRecommender::deploy(rec.data().clone());
        for a in 0..8u32 {
            for b in (a + 1)..8u32 {
                assert_eq!(
                    rec.cooccurrence(ItemId(a), ItemId(b)),
                    rebuilt.cooccurrence(ItemId(a), ItemId(b)),
                    "pair ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn self_similarity_uses_popularity() {
        let rec = platform();
        assert_eq!(rec.cooccurrence(ItemId(0), ItemId(0)), 2);
    }
}
