//! The shared scoring engine: one ranking implementation for every target
//! model.
//!
//! The hot path of the whole reproduction is "score every catalog item for
//! a batch of users, take Top-k" — the Eq. 1 reward re-queries all pretend
//! users after every injection step. Every recommender used to reimplement
//! that loop per user; here it is factored into two pieces:
//!
//! - [`ScoringEngine`] — the model-specific part: fill a `users × items`
//!   score matrix (typically one GEMM against a representation table) and
//!   hand out each user's seen items as one ascending run;
//! - [`top_k_from_scores`] — the model-independent part: one pass over the
//!   unseen runs between consecutive seen ids that keeps only the cells
//!   beating the running k-th best, then a partial select of the survivors,
//!   under one deterministic order (score descending by `total_cmp`, then
//!   item id ascending), so batched and sequential paths agree
//!   element-for-element.
//!
//! [`batch_top_k`] runs the engine over a thread-local [`Scratch`] pool:
//! the score matrix and the candidate buffer are reused from round to
//! round. What a model's `score_batch` allocates itself is not pooled (MF
//! and the GNN gather the batch's user rows into a fresh matrix, NCF its
//! per-user prefixes and `q` panel, ItemKNN its popularity and column
//! buffers), nor are the k-sized result lists.
//!
//! None of this changes attacker-visible semantics: ranking order (modulo
//! previously unspecified tie order), seen-item exclusion, and query
//! metering are identical to the per-user loops it replaces.

use crate::ids::{ItemId, UserId};
use ca_tensor::{Matrix, Scratch};
use std::cell::RefCell;
use std::cmp::Ordering;

/// Batch-scoring interface implemented by every target model.
///
/// `score_batch` must write **every** cell of `out` (a zeroed
/// `users.len() × catalog_len()` matrix): `out[(i, v)]` is the score of
/// `users[i]` for item `v`. Scores must not be NaN. An engine that is also
/// a [`Scorer`](crate::Scorer) writes `score(users[i], v)` bit for bit:
/// the evaluator reads `score` while rankings read `score_batch`, so the
/// two must not disagree even on the sign of a zero.
pub trait ScoringEngine {
    /// Number of items in the catalog (the width of a score row).
    fn catalog_len(&self) -> usize;

    /// Fills `out[(i, v)]` with the score of `users[i]` for item `v`.
    fn score_batch(&self, users: &[UserId], out: &mut Matrix);

    /// The items `user` already interacted with, strictly ascending by id
    /// and all inside the catalog (such items are excluded from rankings,
    /// as a deployed system would). Dataset-backed engines return
    /// [`Dataset::sorted_profile`](crate::Dataset::sorted_profile).
    fn seen(&self, user: UserId) -> &[ItemId];
}

/// Deterministic ranking order: score descending, then item id ascending.
#[inline]
pub(crate) fn rank_cmp(a: &(f32, u32), b: &(f32, u32)) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Orders the best `k` candidates of `cand` into its prefix (score
/// descending, id ascending) and truncates to them. Partial-select
/// (`select_nth_unstable`) keeps this `O(n + k log k)`.
fn select_top_k(cand: &mut Vec<(f32, u32)>, k: usize) {
    let k = k.min(cand.len());
    if k == 0 {
        cand.clear();
        return;
    }
    cand.select_nth_unstable_by(k - 1, rank_cmp);
    cand.truncate(k);
    cand.sort_unstable_by(rank_cmp);
}

/// Candidates the one-pass ranker keeps before cutting back to the best
/// `k` (or `2k`, when `k` is larger than half of it).
const CAND_CAP: usize = 256;

/// [`top_k_from_scores`] with a caller-provided candidate buffer, so
/// steady-state ranking performs no allocation (the buffer comes from the
/// [`Scratch`] pair pool in the batched paths). The buffer is cleared on
/// entry and holds the ranked survivors on return.
///
/// One pass walks the unseen runs between consecutive `seen` ids in
/// ascending item order. Once the buffer has been cut back to `k`, a cell
/// is kept only if it ranks before the k-th best kept candidate: a later
/// cell with an equal score has a larger id, so it ranks after and is
/// skipped. The cut-backs only drop cells that at least `k` kept ones
/// beat, so the result is exactly the best `k` unseen cells.
pub fn top_k_from_scores_into(
    scores: &[f32],
    k: usize,
    seen: &[ItemId],
    cand: &mut Vec<(f32, u32)>,
) -> Vec<ItemId> {
    debug_assert!(seen.windows(2).all(|w| w[0] < w[1]), "seen run must be strictly ascending");
    debug_assert!(seen.last().is_none_or(|v| v.idx() < scores.len()), "seen id outside the row");
    cand.clear();
    if k == 0 {
        return Vec::new();
    }
    let cap = CAND_CAP.max(2 * k);
    // The k-th best candidate kept so far, set at the first cut-back.
    let mut bar: Option<(f32, u32)> = None;
    let mut start = 0;
    for end in seen.iter().map(|v| v.idx()).chain([scores.len()]) {
        for (s, v) in scores[start..end].iter().zip(start as u32..) {
            let c = (*s, v);
            if bar.is_some_and(|b| rank_cmp(&c, &b).is_ge()) {
                continue;
            }
            cand.push(c);
            if cand.len() == cap {
                cand.select_nth_unstable_by(k - 1, rank_cmp);
                cand.truncate(k);
                bar = Some(cand[k - 1]);
            }
        }
        start = end + 1;
    }
    select_top_k(cand, k);
    cand.iter().map(|&(_, v)| ItemId(v)).collect()
}

/// The best `k` items of one score row, excluding the `seen` items
/// (strictly ascending ids, all inside the row). Ties break
/// deterministically by ascending item id. Allocating convenience wrapper
/// over [`top_k_from_scores_into`].
pub fn top_k_from_scores(scores: &[f32], k: usize, seen: &[ItemId]) -> Vec<ItemId> {
    top_k_from_scores_into(scores, k, seen, &mut Vec::new())
}

thread_local! {
    /// Per-thread buffer pool shared by every engine invocation on this
    /// thread, so repeated scoring rounds reuse one score-matrix allocation.
    static ENGINE_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Batched Top-k: one `score_batch` call, then the shared ranking per
/// row. The score matrix and the per-row candidate buffer come from the
/// calling thread's [`Scratch`] pool. This is what recommenders route
/// `top_k_batch` through.
pub fn batch_top_k<E: ScoringEngine + ?Sized>(
    engine: &E,
    users: &[UserId],
    k: usize,
    // ca-audit: allow(nested-vec) — k-sized per-query batch result, not dataset-scale state
) -> Vec<Vec<ItemId>> {
    ENGINE_SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        let mut scores = scratch.matrix(users.len(), engine.catalog_len());
        #[expect(
            clippy::disallowed_methods,
            reason = "batch_top_k is the engine entry point the full-catalog scan belongs in"
        )]
        engine.score_batch(users, &mut scores);
        let mut cand = scratch.take_pairs();
        let lists = users
            .iter()
            .enumerate()
            .map(|(i, &u)| top_k_from_scores_into(scores.row(i), k, engine.seen(u), &mut cand))
            .collect();
        scratch.put_pairs(cand);
        scratch.recycle(scores);
        lists
    })
}

/// Single-user Top-k through the engine (a batch of one).
pub fn single_top_k<E: ScoringEngine + ?Sized>(engine: &E, user: UserId, k: usize) -> Vec<ItemId> {
    batch_top_k(engine, &[user], k).pop().expect("one list per user")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, DatasetBuilder};

    /// Toy engine over `TOY_USERS` users: `score(u, v) = base[v] - |u - v
    /// mod 7|`, user `u` has seen items `v ≡ u (mod 5)`.
    struct Toy {
        base: Vec<f32>,
        data: Dataset,
    }

    const TOY_USERS: u32 = 32;

    impl Toy {
        fn new(n: usize) -> Self {
            let mut b = DatasetBuilder::new(n);
            for u in 0..TOY_USERS {
                b.user(&(0..n as u32).filter(|v| v % 5 == u % 5).map(ItemId).collect::<Vec<_>>());
            }
            Self { base: (0..n).map(|v| ((v * 37) % 19) as f32).collect(), data: b.build() }
        }
        fn score(&self, u: UserId, v: usize) -> f32 {
            self.base[v] - ((u.0 as i64 - (v % 7) as i64).abs() as f32) * 0.25
        }
    }

    impl ScoringEngine for Toy {
        fn catalog_len(&self) -> usize {
            self.base.len()
        }
        fn score_batch(&self, users: &[UserId], out: &mut Matrix) {
            for (i, &u) in users.iter().enumerate() {
                for v in 0..self.base.len() {
                    out[(i, v)] = self.score(u, v);
                }
            }
        }
        fn seen(&self, user: UserId) -> &[ItemId] {
            self.data.sorted_profile(user)
        }
    }

    /// The ranking path before the one-pass kernel: push every unseen
    /// cell, then select. Kept as the oracle the kernel must reproduce.
    fn push_every_unseen(scores: &[f32], k: usize, seen: &[ItemId]) -> Vec<ItemId> {
        let mut cand: Vec<(f32, u32)> = (0..scores.len() as u32)
            .filter(|&v| seen.binary_search(&ItemId(v)).is_err())
            .map(|v| (scores[v as usize], v))
            .collect();
        select_top_k(&mut cand, k);
        cand.iter().map(|&(_, v)| ItemId(v)).collect()
    }

    #[test]
    fn top_k_from_scores_masks_and_sorts() {
        let scores = [1.0, 5.0, 3.0, 5.0, 2.0];
        let top = top_k_from_scores(&scores, 3, &[ItemId(1)]);
        // Item 1 masked; 3 (5.0) beats 2 (3.0) beats 4 (2.0).
        assert_eq!(top, vec![ItemId(3), ItemId(2), ItemId(4)]);
    }

    #[test]
    fn ties_break_by_ascending_item_id() {
        let scores = [2.0; 6];
        let top = top_k_from_scores(&scores, 4, &[]);
        assert_eq!(top, vec![ItemId(0), ItemId(1), ItemId(2), ItemId(3)]);
    }

    #[test]
    fn k_larger_than_unseen_catalog_is_clamped() {
        let scores = [1.0, 2.0, 3.0];
        let top = top_k_from_scores(&scores, 10, &[ItemId(2)]);
        assert_eq!(top, vec![ItemId(1), ItemId(0)]);
        assert!(top_k_from_scores(&scores, 0, &[]).is_empty());
    }

    #[test]
    fn batch_matches_single_user_queries() {
        let engine = Toy::new(57);
        let users: Vec<UserId> = (0..11u32).map(UserId).collect();
        let batched = batch_top_k(&engine, &users, 8);
        for (i, &u) in users.iter().enumerate() {
            assert_eq!(batched[i], single_top_k(&engine, u, 8), "user {u}");
        }
    }

    #[test]
    fn empty_batch_yields_no_lists() {
        let engine = Toy::new(10);
        assert!(batch_top_k(&engine, &[], 3).is_empty());
    }

    #[test]
    fn repeated_rounds_reuse_the_thread_local_pool() {
        let engine = Toy::new(64);
        let users: Vec<UserId> = (0..4u32).map(UserId).collect();
        // Warm the pool, then verify a second round leaves it warm too.
        let first = batch_top_k(&engine, &users, 5);
        let second = batch_top_k(&engine, &users, 5);
        assert_eq!(first, second);
        ENGINE_SCRATCH.with(|s| {
            assert!(s.borrow().idle() >= 1, "score matrix must return to the pool");
            assert!(s.borrow().idle_pairs() >= 1, "candidate buffer must return to the pool");
        });
    }

    #[test]
    fn one_pass_matches_pushing_every_unseen_cell() {
        // 1,500 items fill the candidate buffer several times over; the
        // Toy scores take few distinct values, so every cut-back meets
        // ties. One reused buffer must not leak state between calls.
        let engine = Toy::new(1_500);
        let users: Vec<UserId> = (0..TOY_USERS).map(UserId).collect();
        let mut scores = Matrix::zeros(users.len(), engine.catalog_len());
        #[expect(
            clippy::disallowed_methods,
            reason = "the kernel test ranks the dense scores it checks against"
        )]
        engine.score_batch(&users, &mut scores);
        let mut cand = Vec::new();
        for (i, &u) in users.iter().enumerate() {
            for k in [1, 7, 20, 127, 128, 129, 700, 1_500] {
                let (row, seen) = (scores.row(i), engine.seen(u));
                assert_eq!(
                    top_k_from_scores_into(row, k, seen, &mut cand),
                    push_every_unseen(row, k, seen),
                    "user {u} k={k}"
                );
            }
        }
    }
}
