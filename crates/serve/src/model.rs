//! Immutable serving-model snapshots.
//!
//! A [`ModelVersion`] is what a shard actually serves from: an
//! [`ItemKnnRecommender`] built over a *snapshot* of every shard's user
//! state at one retrain tick, plus the popularity ranking of the same
//! snapshot for degraded serving. Versions are immutable and shared
//! (`Arc`), so "adopting" or "rolling back to" a model is a pointer swap —
//! which is exactly what makes shard crash recovery cheap and
//! crash-consistent.
//!
//! Drift lives in the gap between versions: interactions and injections
//! that land after `built_at` influence nothing until a later retrain
//! snapshots them. A user injected after the snapshot is *unknown* to the
//! model and is served the popularity fallback until a retrain picks their
//! profile up — the paper's cold-start reality that a live attack campaign
//! has to wait out.
//!
//! With [`RetrievalMode::Ivf`] a snapshot additionally carries a
//! [`SketchedKnn`] embedding (a seeded random-projection sketch of the
//! co-occurrence structure — ItemKNN has no learned item vectors, so the
//! index clusters `g_v = pop_v^{-1/2} Σ_{u ∈ P_v} r_u` Rademacher sums,
//! whose inner products approximate the cosine similarity mass) plus an
//! [`IvfIndex`] over it. The index is part of the snapshot: it is rebuilt
//! at every retrain and frozen in between, so serving drift interacts
//! with cell assignment exactly like a production ANN shard refresh.

use ca_ann::{IvfConfig, IvfIndex};
use ca_recsys::engine::{EmbeddingEngine, ScoringEngine};
use ca_recsys::knn::ItemKnnRecommender;
use ca_recsys::{
    BlackBoxRecommender, Dataset, DatasetBuilder, ItemId, RetrievalMode, Scorer, UserId,
};
use ca_tensor::{ops, Matrix};
use std::collections::BTreeMap;

/// Width of the Rademacher co-occurrence sketch.
const SKETCH_DIM: usize = 32;

/// Salt of the per-user Rademacher sign draws (mixed with the snapshot
/// row id via `ca_par::split_seed`, so the sketch is a pure function of
/// the snapshot contents).
const SKETCH_SEED: u64 = 0x5ce7c4;

/// Item sketch table for a snapshot's dataset: row `v` is
/// `pop_v^{-1/2} · Σ_{u ∈ P_v} r_u` with `r_u ∈ {±1}^{SKETCH_DIM}` drawn
/// from the user's split seed. `dot(g_a, g_b)` concentrates on
/// `SKETCH_DIM · co(a, b) / sqrt(pop_a · pop_b)` — the ItemKNN cosine up
/// to a constant — which is all cell ranking needs.
fn build_sketch(data: &Dataset) -> Matrix {
    let mut sketch = Matrix::zeros(data.n_items(), SKETCH_DIM);
    for v in 0..data.n_items() {
        let users = data.item_profile(ItemId(v as u32));
        if users.is_empty() {
            continue;
        }
        let row = sketch.row_mut(v);
        for &u in users.iter() {
            let bits = ca_par::split_seed(SKETCH_SEED, u.0 as u64);
            for (j, x) in row.iter_mut().enumerate() {
                *x += if bits >> j & 1 == 1 { 1.0 } else { -1.0 };
            }
        }
        ops::scale(row, 1.0 / (users.len() as f32).sqrt());
    }
    sketch
}

/// Borrowed view pairing an [`ItemKnnRecommender`] with its sketch table,
/// giving the co-occurrence model the [`EmbeddingEngine`] surface the IVF
/// index builds and probes against. Candidate scoring stays the exact
/// ItemKNN similarity mass — the sketch only steers which cells are
/// probed.
pub struct SketchedKnn<'a> {
    knn: &'a ItemKnnRecommender,
    sketch: &'a Matrix,
}

impl ScoringEngine for SketchedKnn<'_> {
    fn catalog_len(&self) -> usize {
        self.knn.catalog_len()
    }

    fn score_batch(&self, users: &[UserId], out: &mut Matrix) {
        // ca-audit: allow(exact-scan) — trait delegation; the wrapper only adds the embedding view
        self.knn.score_batch(users, out);
    }

    fn seen(&self, user: UserId) -> &[ItemId] {
        self.knn.seen(user)
    }
}

impl EmbeddingEngine for SketchedKnn<'_> {
    fn embedding_dim(&self) -> usize {
        self.sketch.cols()
    }

    fn item_embedding_into(&self, item: ItemId, out: &mut [f32]) {
        out.copy_from_slice(self.sketch.row(item.idx()));
    }

    /// Query = the sum of the profile items' sketches, so
    /// `dot(query, g_v) ≈ SKETCH_DIM · Σ_{i ∈ P_u} sim(i, v)` — the same
    /// similarity mass the exact scorer ranks by.
    fn query_embedding_into(&self, user: UserId, out: &mut [f32]) {
        out.fill(0.0);
        for &i in self.knn.data().profile(user) {
            ops::axpy(1.0, self.sketch.row(i.idx()), out);
        }
    }

    fn score_items(&self, user: UserId, items: &[ItemId], out: &mut [f32]) {
        // `Scorer::score` sums similarities in profile order, bitwise the
        // accumulation order of the `score_batch` row loop.
        for (o, &v) in out.iter_mut().zip(items) {
            *o = self.knn.score(user, v);
        }
    }
}

/// The sketch + index pair an `Ivf` snapshot serves through.
#[derive(Clone, Debug)]
struct AnnState {
    sketch: Matrix,
    index: IvfIndex,
    nprobe: usize,
}

/// One immutable snapshot of the serving model.
#[derive(Clone, Debug)]
pub struct ModelVersion {
    /// Monotone version counter (0 = the launch model).
    pub version: u64,
    /// Logical tick the snapshot was taken at.
    pub built_at: u64,
    knn: ItemKnnRecommender,
    /// Platform user id → row in the snapshot's dataset.
    row_of: BTreeMap<u32, u32>,
    /// Catalog sorted by snapshot popularity (descending, id-ascending on
    /// ties): the stale-popularity degraded serving order.
    pop_rank: Vec<ItemId>,
    /// Sketch + IVF index when the snapshot serves approximately.
    ann: Option<AnnState>,
}

impl ModelVersion {
    /// [`ModelVersion::build_with`] under exact retrieval (the historical
    /// serving path; replay digests are pinned against it).
    pub fn build(
        version: u64,
        built_at: u64,
        users: &[(u32, Vec<ItemId>)],
        n_items: usize,
    ) -> Self {
        Self::build_with(version, built_at, users, n_items, RetrievalMode::Exact)
    }

    /// Builds a version from `(platform uid, profile)` pairs. Callers must
    /// pass the pairs sorted by uid — the row layout (and therefore the
    /// model bits) must not depend on shard count or iteration order.
    /// Under `Ivf` retrieval the snapshot also builds its sketch and index
    /// here, at the retrain boundary.
    pub fn build_with(
        version: u64,
        built_at: u64,
        users: &[(u32, Vec<ItemId>)],
        n_items: usize,
        retrieval: RetrievalMode,
    ) -> Self {
        debug_assert!(users.windows(2).all(|w| w[0].0 < w[1].0), "users must be uid-sorted");
        let mut b = DatasetBuilder::new(n_items);
        let mut row_of = BTreeMap::new();
        for (row, (uid, profile)) in users.iter().enumerate() {
            b.user(profile);
            row_of.insert(*uid, row as u32);
        }
        let data = b.build();
        let mut by_pop: Vec<(usize, u32)> =
            data.items().map(|v| (data.item_popularity(v), v.0)).collect();
        by_pop.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let pop_rank = by_pop.into_iter().map(|(_, v)| ItemId(v)).collect();
        let knn = ItemKnnRecommender::deploy(data);
        let ann = match retrieval {
            RetrievalMode::Exact => None,
            RetrievalMode::Ivf { nlist, nprobe } => {
                let sketch = build_sketch(knn.data());
                let engine = SketchedKnn { knn: &knn, sketch: &sketch };
                let index = IvfIndex::build(&engine, &IvfConfig::new(nlist, nprobe));
                Some(AnnState { sketch, index, nprobe })
            }
        };
        Self { version, built_at, knn, row_of, pop_rank, ann }
    }

    /// Whether the platform user was part of this snapshot.
    pub fn knows(&self, uid: u32) -> bool {
        self.row_of.contains_key(&uid)
    }

    /// Live Top-k for a snapshot user, or `None` if the model has never
    /// seen them (they joined after `built_at`). Served through the
    /// snapshot's IVF index when one was built, exactly otherwise.
    pub fn top_k(&self, uid: u32, k: usize) -> Option<Vec<ItemId>> {
        let &row = self.row_of.get(&uid)?;
        Some(match &self.ann {
            Some(ann) => {
                let engine = SketchedKnn { knn: &self.knn, sketch: &ann.sketch };
                ann.index.top_k(&engine, UserId(row), k, ann.nprobe)
            }
            None => self.knn.top_k(UserId(row), k),
        })
    }

    /// The snapshot's IVF index, when it serves approximately.
    pub fn index(&self) -> Option<&IvfIndex> {
        self.ann.as_ref().map(|a| &a.index)
    }

    /// Popularity-ranked Top-k, excluding `seen` — the degraded serving
    /// path for mid-retrain shards and for users unknown to the snapshot.
    pub fn pop_top_k(&self, seen: &[ItemId], k: usize) -> Vec<ItemId> {
        self.pop_rank.iter().copied().filter(|v| !seen.contains(v)).take(k).collect()
    }

    /// Number of users in the snapshot.
    pub fn n_users(&self) -> usize {
        self.row_of.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    fn snapshot() -> ModelVersion {
        // Item 1 is most popular, then 0, then 2/3 tie (2 wins by id).
        let users = vec![(0u32, items(&[0, 1])), (2, items(&[1, 2])), (5, items(&[0, 1, 3]))];
        ModelVersion::build(1, 10, &users, 5)
    }

    #[test]
    fn knows_only_snapshot_users() {
        let m = snapshot();
        assert!(m.knows(0) && m.knows(2) && m.knows(5));
        assert!(!m.knows(1) && !m.knows(7));
        assert_eq!(m.n_users(), 3);
        assert!(m.top_k(7, 3).is_none());
        assert_eq!(m.top_k(0, 3).map(|l| l.len()), Some(3));
    }

    #[test]
    fn pop_rank_orders_by_popularity_then_id() {
        let m = snapshot();
        assert_eq!(m.pop_top_k(&[], 5), items(&[1, 0, 2, 3, 4]));
        assert_eq!(m.pop_top_k(&items(&[1, 2]), 2), items(&[0, 3]), "seen items are masked");
    }

    #[test]
    fn ivf_snapshot_serves_unseen_items_and_full_probe_matches_exact() {
        // A catalog large enough for a few real cells.
        let users: Vec<(u32, Vec<ItemId>)> = (0..30u32)
            .map(|u| (u * 2, (0..6u32).map(|i| ItemId((u * 7 + i * 3) % 40)).collect()))
            .collect();
        let exact = ModelVersion::build(3, 9, &users, 40);
        let ivf =
            ModelVersion::build_with(3, 9, &users, 40, RetrievalMode::Ivf { nlist: 8, nprobe: 2 });
        assert!(exact.index().is_none());
        let index = ivf.index().expect("ivf snapshot carries an index");
        assert_eq!(index.len(), 40);
        for &(uid, ref profile) in &users[..5] {
            let list = ivf.top_k(uid, 5).expect("snapshot user");
            // A narrow probe may surface fewer than k unseen candidates —
            // that shortfall is the approximation, never a seen item.
            assert!(!list.is_empty() && list.len() <= 5);
            assert!(list.iter().all(|v| !profile.contains(v)), "seen item served");
        }
        // Probing every cell leaves pruning no room: bitwise the exact list.
        let full =
            ModelVersion::build_with(3, 9, &users, 40, RetrievalMode::Ivf { nlist: 8, nprobe: 8 });
        for &(uid, _) in &users {
            assert_eq!(full.top_k(uid, 10), exact.top_k(uid, 10), "uid {uid}");
        }
        assert!(ivf.top_k(1, 5).is_none(), "unknown users stay unknown");
    }

    #[test]
    fn sketched_knn_hands_out_the_snapshot_seen_runs() {
        let m = snapshot();
        let sketch = build_sketch(m.knn.data());
        let engine = SketchedKnn { knn: &m.knn, sketch: &sketch };
        let data = m.knn.data();
        for u in data.users() {
            let expected: Vec<ItemId> = data.items().filter(|&v| data.contains(u, v)).collect();
            assert_eq!(engine.seen(u), &expected[..], "seen run of {u}");
        }
    }

    #[test]
    fn row_layout_is_uid_ordered_not_shard_ordered() {
        // The same user set presented in any uid-sorted form must produce
        // identical recommendations — the shard-count invariance anchor.
        let a = snapshot();
        let b = snapshot();
        for uid in [0u32, 2, 5] {
            assert_eq!(a.top_k(uid, 4), b.top_k(uid, 4));
        }
    }
}
