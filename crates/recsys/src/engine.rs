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
//! Every engine-backed platform (PinSage, MF, NCF, ItemKNN, popularity)
//! answers `top_k` and `top_k_batch` through its own [`AnswerCache`]:
//!
//! - **What is cached.** For each account it has answered, the last
//!   ranked Top-k `(score, id)` pairs and the `k` they were ranked for,
//!   plus one log of the item columns whose scores moved since each
//!   account was last answered ([`AnswerCache::touch`]).
//! - **The bar.** The k-th cached pair: every unlisted unseen item ranks
//!   behind it. A cached account re-scores only the logged columns, with
//!   [`Scorer::score`] (bit-equal to `score_batch`), drops its re-scored
//!   members and merges in the re-scored unseen cells at or before the
//!   bar. If the k-th of the merge still ranks at or before the bar,
//!   everything left out ranks behind it, so the merge is the Top-k.
//!   Otherwise, and for an account not cached or asked at another `k`, the
//!   full row is scored and ranked as [`batch_top_k`] does. Either way the
//!   answer equals [`batch_top_k`]'s element for element.
//! - **What clears it.** A change that can move any cell of a cached row
//!   ([`AnswerCache::clear`]): ItemKNN's injections (they move item
//!   popularities), NCF's refresh and PinSage's `refresh_all`. The log is
//!   bounded by the catalog size; past it, the cache clears. PinSage's
//!   fold-in and popularity's counts move the columns of the stored
//!   profile; MF's onboarding and NCF's onboarding fine-tune move only the
//!   new account's row, which no answer holds, so they log nothing.
//!
//! None of this changes attacker-visible semantics: ranking order (modulo
//! previously unspecified tie order), seen-item exclusion, and query
//! metering are identical to the per-user loops it replaces.

use crate::eval::Scorer;
use crate::ids::{ItemId, UserId};
use ca_tensor::{Matrix, Scratch};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Batch-scoring interface implemented by every target model.
///
/// `score_batch` must write **every** cell of `out` (a zeroed
/// `users.len() × catalog_len()` matrix): `out[(i, v)]` is the score of
/// `users[i]` for item `v`. Scores must not be NaN. An engine that is also
/// a [`Scorer`] writes `score(users[i], v)` bit for bit:
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

/// Scores `users` in one `score_batch` call and ranks every row with the
/// shared kernel, handing `each(i, list, ranked)` the Top-k list of
/// `users[i]` and its ranked `(score, id)` pairs. The score matrix and the
/// candidate buffer come from the calling thread's [`Scratch`] pool.
fn rank_full_rows<E: ScoringEngine + ?Sized>(
    engine: &E,
    users: &[UserId],
    k: usize,
    mut each: impl FnMut(usize, Vec<ItemId>, &[(f32, u32)]),
) {
    ENGINE_SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        let mut scores = scratch.matrix(users.len(), engine.catalog_len());
        #[expect(
            clippy::disallowed_methods,
            reason = "rank_full_rows is the engine entry point the full-catalog scan belongs in"
        )]
        engine.score_batch(users, &mut scores);
        let mut cand = scratch.take_pairs();
        for (i, &u) in users.iter().enumerate() {
            let list = top_k_from_scores_into(scores.row(i), k, engine.seen(u), &mut cand);
            each(i, list, &cand);
        }
        scratch.put_pairs(cand);
        scratch.recycle(scores);
    })
}

/// Batched Top-k over the full catalog: one `score_batch` call, then the
/// shared ranking per row, with nothing cached. [`AnswerCache`] answers
/// every platform query; this is its oracle and the `scoring` bench's
/// full round.
pub fn batch_top_k<E: ScoringEngine + ?Sized>(
    engine: &E,
    users: &[UserId],
    k: usize,
    // ca-audit: allow(nested-vec) — k-sized per-query batch result, not dataset-scale state
) -> Vec<Vec<ItemId>> {
    let mut lists = Vec::with_capacity(users.len());
    rank_full_rows(engine, users, k, |_, list, _| lists.push(list));
    lists
}

/// One account's last answer.
#[derive(Clone, Debug)]
struct Answer {
    /// The `k` it was ranked for.
    k: usize,
    /// Its ranked `(score, id)` pairs: the best `k` unseen cells, or every
    /// unseen cell when there are fewer than `k`.
    ranked: Vec<(f32, u32)>,
    /// The change number it is current to: the log's changes before it
    /// are already in `ranked`.
    synced: usize,
}

#[derive(Clone, Debug, Default)]
struct CacheState {
    /// Every account answered since the cache last cleared.
    answers: BTreeMap<UserId, Answer>,
    /// Item columns whose scores moved, oldest first: `log[j]` is change
    /// number `base + j`.
    log: Vec<u32>,
    /// Changes dropped from the log's front, which every cached answer is
    /// already current to.
    base: usize,
}

impl CacheState {
    fn clear(&mut self) {
        *self = Self::default();
    }

    /// Drops the log's prefix that every cached answer is current to.
    fn compact(&mut self) {
        let end = self.base + self.log.len();
        let floor = self.answers.values().map(|a| a.synced).min().unwrap_or(end);
        self.log.drain(..floor - self.base);
        self.base = floor;
    }
}

/// An exact Top-k answer cache for one engine-backed platform copy; see
/// the module doc. Interior (a [`Mutex`]), because queries take `&self`
/// and platforms are shared across `ca_par` workers; a poisoned lock
/// recovers by clearing the cache. Cloning copies the cached answers.
#[derive(Debug, Default)]
pub struct AnswerCache {
    state: Mutex<CacheState>,
}

impl Clone for AnswerCache {
    fn clone(&self) -> Self {
        Self { state: Mutex::new(self.lock().clone()) }
    }
}

impl AnswerCache {
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(|poisoned| {
            self.state.clear_poison();
            let mut state = poisoned.into_inner();
            state.clear();
            state
        })
    }

    fn state_mut(&mut self) -> &mut CacheState {
        if self.state.is_poisoned() {
            self.state = Mutex::default();
        }
        self.state.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Notes that the scores of `items` moved in every account's row and
    /// nowhere else. The log never outgrows `catalog_len` entries: past
    /// that, the cache clears.
    pub fn touch(&mut self, items: &[ItemId], catalog_len: usize) {
        let state = self.state_mut();
        if state.answers.is_empty() {
            return;
        }
        state.log.extend(items.iter().map(|v| v.0));
        if state.log.len() > catalog_len {
            state.clear();
        }
    }

    /// Forgets every cached answer, after a change that can move any cell
    /// of any account's row.
    pub fn clear(&mut self) {
        self.state_mut().clear();
    }

    /// [`AnswerCache::top_k_batch`] for one account.
    pub fn top_k<E: ScoringEngine + Scorer + ?Sized>(
        &self,
        engine: &E,
        user: UserId,
        k: usize,
    ) -> Vec<ItemId> {
        self.top_k_batch(engine, &[user], k).pop().expect("one list per user")
    }

    /// The Top-k list of each of `users`, equal element for element to
    /// [`batch_top_k`] on `engine`. An account answered before at the same
    /// `k` re-scores only the columns logged since, with
    /// [`Scorer::score`]. Every other account, and every cached one whose
    /// bar cannot settle its answer, gets its full row from one
    /// `score_batch` call.
    pub fn top_k_batch<E: ScoringEngine + Scorer + ?Sized>(
        &self,
        engine: &E,
        users: &[UserId],
        k: usize,
        // ca-audit: allow(nested-vec) — k-sized per-query batch result, not dataset-scale state
    ) -> Vec<Vec<ItemId>> {
        let mut lists = vec![Vec::new(); users.len()];
        if k == 0 {
            return lists;
        }
        let mut guard = self.lock();
        let CacheState { answers, log, base } = &mut *guard;
        let end = *base + log.len();
        let mut full = Vec::new();
        let mut moved = Moved::default();
        for (i, &u) in users.iter().enumerate() {
            let Some(a) = answers.get_mut(&u).filter(|a| a.k == k) else {
                full.push(i);
                continue;
            };
            if a.synced < end {
                if !moved.catch_up(engine, u, a, log, *base) {
                    full.push(i);
                    continue;
                }
                a.synced = end;
            }
            lists[i] = a.ranked.iter().map(|&(_, v)| ItemId(v)).collect();
        }
        if !full.is_empty() {
            let batch: Vec<UserId> = full.iter().map(|&i| users[i]).collect();
            rank_full_rows(engine, &batch, k, |j, list, ranked| {
                lists[full[j]] = list;
                answers.insert(batch[j], Answer { k, ranked: ranked.to_vec(), synced: end });
            });
        }
        guard.compact();
        lists
    }
}

/// The working set of one [`AnswerCache::top_k_batch`] call: the distinct
/// columns moved since one change number, and buffers for re-ranking.
#[derive(Default)]
struct Moved {
    /// The change number `cols` starts at, so batch-mates current to the
    /// same change share one set.
    from: Option<usize>,
    /// The distinct columns moved since `from`, in first-logged order.
    cols: Vec<u32>,
    /// `moved[v]`: whether column `v` is in `cols`.
    moved: Vec<bool>,
    /// The re-scored cells; filtered down to the unseen ones at or before
    /// the bar, then ranked.
    fresh: Vec<(f32, u32)>,
    /// The answer being merged.
    merged: Vec<(f32, u32)>,
}

impl Moved {
    /// Brings `a`, the answer of `user`, up to date with the changes logged
    /// since `a.synced` (`log[0]` is change number `base`). Returns false,
    /// leaving `a` as it was, when an unlisted cell may now rank in the
    /// Top-k: only the full row settles that.
    fn catch_up<E: ScoringEngine + Scorer + ?Sized>(
        &mut self,
        engine: &E,
        user: UserId,
        a: &mut Answer,
        log: &[u32],
        base: usize,
    ) -> bool {
        if self.from != Some(a.synced) {
            for &v in &self.cols {
                self.moved[v as usize] = false;
            }
            self.cols.clear();
            self.moved.resize(engine.catalog_len(), false);
            for &v in &log[a.synced - base..] {
                if !std::mem::replace(&mut self.moved[v as usize], true) {
                    self.cols.push(v);
                }
            }
            self.from = Some(a.synced);
        }
        let k = a.k;
        // Every unlisted unseen cell ranks behind the bar; a list shorter
        // than `k` holds every unseen cell, so it has no bar.
        let bar = (a.ranked.len() == k).then(|| a.ranked[k - 1]);
        let seen = engine.seen(user);
        // Score every moved column first, then filter: branching on each
        // score as it comes would stall on the dot products.
        self.fresh.clear();
        self.fresh.extend(self.cols.iter().map(|&v| (engine.score(user, ItemId(v)), v)));
        self.fresh.retain(|&c| {
            bar.is_none_or(|b| rank_cmp(&c, &b).is_le())
                && seen.binary_search(&ItemId(c.1)).is_err()
        });
        self.fresh.sort_unstable_by(rank_cmp);
        // The members whose columns did not move keep their scores and
        // their order; merge them with the fresh cells.
        let mut kept = a.ranked.iter().filter(|(_, v)| !self.moved[*v as usize]).peekable();
        let mut fresh = self.fresh.iter().peekable();
        self.merged.clear();
        while self.merged.len() < k {
            let next = match (kept.peek(), fresh.peek()) {
                (Some(x), Some(y)) if rank_cmp(x, y).is_lt() => kept.next(),
                (_, Some(_)) => fresh.next(),
                (Some(_), None) => kept.next(),
                (None, None) => break,
            };
            self.merged.extend(next);
        }
        // Everything left out ranks behind the bar, so the merge is the
        // Top-k only if its k-th cell is at or before the bar.
        if let Some(b) = bar {
            if self.merged.len() < k || rank_cmp(&self.merged[k - 1], &b).is_gt() {
                return false;
            }
        }
        std::mem::swap(&mut a.ranked, &mut self.merged);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, DatasetBuilder};
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Toy engine over `TOY_USERS` users: `score(u, v) = base[v] - |u - v
    /// mod 7|`, user `u` has seen items `v ≡ u (mod 5)`.
    struct Toy {
        base: Vec<f32>,
        data: Dataset,
        /// Makes every score panic, to poison a cache mid-query.
        explode: Cell<bool>,
    }

    const TOY_USERS: u32 = 32;

    impl Toy {
        fn new(n: usize) -> Self {
            let mut b = DatasetBuilder::new(n);
            for u in 0..TOY_USERS {
                b.user(&(0..n as u32).filter(|v| v % 5 == u % 5).map(ItemId).collect::<Vec<_>>());
            }
            let base = (0..n).map(|v| ((v * 37) % 19) as f32).collect();
            Self { base, data: b.build(), explode: Cell::new(false) }
        }
        fn cell(&self, u: UserId, v: usize) -> f32 {
            assert!(!self.explode.get(), "scoring failed");
            self.base[v] - ((u.0 as i64 - (v % 7) as i64).abs() as f32) * 0.25
        }
    }

    impl Scorer for Toy {
        fn score(&self, user: UserId, item: ItemId) -> f32 {
            self.cell(user, item.idx())
        }
    }

    impl ScoringEngine for Toy {
        fn catalog_len(&self) -> usize {
            self.base.len()
        }
        fn score_batch(&self, users: &[UserId], out: &mut Matrix) {
            for (i, &u) in users.iter().enumerate() {
                for v in 0..self.base.len() {
                    out[(i, v)] = self.cell(u, v);
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
    fn cached_single_queries_match_the_full_batch() {
        let engine = Toy::new(57);
        let cache = AnswerCache::default();
        let users: Vec<UserId> = (0..11u32).map(UserId).collect();
        let batched = batch_top_k(&engine, &users, 8);
        for (i, &u) in users.iter().enumerate() {
            assert_eq!(batched[i], cache.top_k(&engine, u, 8), "user {u}");
        }
    }

    /// Moves `v`'s base score to `to` and logs the column.
    fn set(engine: &mut Toy, cache: &mut AnswerCache, v: usize, to: f32) {
        engine.base[v] = to;
        cache.touch(&[ItemId(v as u32)], engine.base.len());
    }

    #[test]
    fn cached_rounds_follow_every_moved_column() {
        let mut engine = Toy::new(300);
        let mut cache = AnswerCache::default();
        let users: Vec<UserId> = (0..TOY_USERS).map(UserId).collect();
        let check = |engine: &Toy, cache: &AnswerCache, k: usize| {
            assert_eq!(cache.top_k_batch(engine, &users, k), batch_top_k(engine, &users, k));
        };
        check(&engine, &cache, 6);
        // A cold item jumps to the top; a listed one sinks behind the bar
        // (only the full row can find its replacement); a listed one moves
        // within the list; a touched column keeps its score.
        let listed = batch_top_k(&engine, &users[..1], 6).remove(0);
        set(&mut engine, &mut cache, 299, 40.0);
        set(&mut engine, &mut cache, listed[0].idx(), -5.0);
        set(&mut engine, &mut cache, listed[2].idx(), 30.0);
        let same = engine.base[7];
        set(&mut engine, &mut cache, 7, same);
        check(&engine, &cache, 6);
        // Every cached account is current again, so the log emptied.
        assert!(cache.lock().log.is_empty());
        // An account synced before its batch-mates reads from its own
        // change number.
        set(&mut engine, &mut cache, 11, 35.0);
        assert_eq!(cache.top_k(&engine, users[3], 6), batch_top_k(&engine, &users[3..4], 6)[0]);
        set(&mut engine, &mut cache, 12, 36.0);
        check(&engine, &cache, 6);
        // A new k ranks full rows.
        check(&engine, &cache, 9);
        check(&engine, &cache, 0);
    }

    #[test]
    fn touching_past_the_catalog_clears_the_cache() {
        let engine = Toy::new(20);
        let mut cache = AnswerCache::default();
        cache.touch(&[ItemId(1)], 20);
        assert!(cache.lock().log.is_empty(), "nothing cached, nothing logged");
        cache.top_k_batch(&engine, &[UserId(0), UserId(1)], 3);
        cache.touch(&[ItemId(2); 20], 20);
        assert_eq!(cache.lock().log.len(), 20);
        cache.touch(&[ItemId(3)], 20);
        let state = cache.lock();
        assert!(state.answers.is_empty() && state.log.is_empty());
    }

    #[test]
    fn a_poisoned_cache_recovers_by_clearing() {
        let engine = Toy::new(40);
        let cache = AnswerCache::default();
        let users = [UserId(0), UserId(1)];
        cache.top_k_batch(&engine, &users, 4);
        engine.explode.set(true);
        let failed = catch_unwind(AssertUnwindSafe(|| cache.top_k(&engine, UserId(2), 4)));
        assert!(failed.is_err() && cache.state.is_poisoned());
        engine.explode.set(false);
        let copy = cache.clone();
        assert!(copy.lock().answers.is_empty(), "the clone recovered by clearing");
        assert!(!cache.state.is_poisoned());
        assert_eq!(cache.top_k_batch(&engine, &users, 4), batch_top_k(&engine, &users, 4));
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
