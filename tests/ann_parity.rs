//! Property tests for the IVF retrieval path (`ca-ann`): the exact mode
//! must stay bitwise identical to the historical full-scan path, a full
//! probe must reproduce the exact oracle item-for-item, recall against
//! the oracle must clear a floor on clusterable catalogs, and every
//! result must be invariant to `CA_THREADS`.

use ca_ann::{retrieve_batch_top_k, IvfConfig, IvfIndex, IvfRecommender};
use ca_mf::{MfModel, MfRecommender};
use ca_recsys::{
    batch_top_k, BlackBoxRecommender, Dataset, DatasetBuilder, EmbeddingEngine, ItemId,
    RetrievalMode, ScoringEngine, UserId,
};
use ca_tensor::{ops, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Planted-mixture engine: items and queries scatter around shared topic
/// centroids, so the catalog is genuinely clusterable and the recall
/// floor is a property of the index, not of luck. User `u` has seen the
/// items `v ≡ u (mod 13)`.
struct PlantedEngine {
    users: Matrix,
    items: Matrix,
    seen: Dataset,
}

impl PlantedEngine {
    fn new(n_users: usize, n_items: usize, topics: usize, seed: u64) -> Self {
        let dim = 8;
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = Matrix::from_fn(topics, dim, |_, _| rng.gen_range(-1.0f32..1.0));
        let draw = |n: usize, rng: &mut StdRng| {
            Matrix::from_fn(n, dim, |r, c| centers[(r % topics, c)] + rng.gen_range(-0.15f32..0.15))
        };
        let items = draw(n_items, &mut rng);
        let users = draw(n_users, &mut rng);
        let mut seen = DatasetBuilder::new(n_items);
        for u in 0..n_users as u32 {
            let run: Vec<ItemId> =
                (0..n_items as u32).filter(|v| v % 13 == u % 13).map(ItemId).collect();
            seen.user(&run);
        }
        PlantedEngine { users, items, seen: seen.build() }
    }
}

impl ScoringEngine for PlantedEngine {
    fn catalog_len(&self) -> usize {
        self.items.rows()
    }

    fn score_batch(&self, users: &[UserId], out: &mut Matrix) {
        for (i, &u) in users.iter().enumerate() {
            for v in 0..self.items.rows() {
                out[(i, v)] = ops::dot(self.users.row(u.idx()), self.items.row(v));
            }
        }
    }

    fn seen(&self, user: UserId) -> &[ItemId] {
        self.seen.sorted_profile(user)
    }
}

impl EmbeddingEngine for PlantedEngine {
    fn embedding_dim(&self) -> usize {
        self.items.cols()
    }

    fn item_embedding_into(&self, item: ItemId, out: &mut [f32]) {
        out.copy_from_slice(self.items.row(item.idx()));
    }

    fn query_embedding_into(&self, user: UserId, out: &mut [f32]) {
        out.copy_from_slice(self.users.row(user.idx()));
    }

    fn score_items(&self, user: UserId, items: &[ItemId], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(items) {
            *o = ops::dot(self.users.row(user.idx()), self.items.row(v.idx()));
        }
    }
}

/// A trained-free MF recommender over a generated dataset: the real
/// `EmbeddingEngine` implementor the serving stack deploys.
fn mf_recommender(n_items: usize, n_users: usize, seed: u64) -> MfRecommender {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DatasetBuilder::new(n_items);
    for _ in 0..n_users {
        let len = rng.gen_range(2..8);
        let items: Vec<ItemId> =
            (0..len).map(|_| ItemId(rng.gen_range(0..n_items as u32))).collect();
        b.user(&items);
    }
    let data = b.build();
    let model = MfModel::new(&mut rng, data.n_users(), data.n_items(), 6);
    MfRecommender::deploy(model, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A full probe (`nprobe == nlist`) scores every non-empty cell, i.e.
    /// the whole catalog — it must reproduce the exact oracle bitwise,
    /// ties and all, on the real MF engine.
    #[test]
    fn full_probe_reproduces_the_exact_oracle(
        seed in 0u64..200,
        nlist in 2usize..12,
        k in 1usize..10,
    ) {
        let rec = mf_recommender(40, 12, seed);
        let index = IvfIndex::build(&rec, &IvfConfig::new(nlist, nlist));
        let users: Vec<UserId> = (0..12u32).map(UserId).collect();
        let exact = batch_top_k(&rec, &users, k);
        let probed = index.batch_top_k(&rec, &users, k, nlist);
        prop_assert_eq!(&exact, &probed);
    }

    /// `RetrievalMode::Exact` (and a missing index under any mode) must
    /// leave the historical full-scan path untouched.
    #[test]
    fn exact_mode_is_bitwise_the_pre_index_path(
        seed in 0u64..200,
        k in 1usize..10,
    ) {
        let rec = mf_recommender(30, 10, seed);
        let index = IvfIndex::build(&rec, &IvfConfig::new(4, 2));
        let users: Vec<UserId> = (0..10u32).map(UserId).collect();
        let oracle = batch_top_k(&rec, &users, k);
        let exact_mode =
            retrieve_batch_top_k(&rec, Some(&index), &users, k, RetrievalMode::Exact);
        let no_index = retrieve_batch_top_k(
            &rec, None, &users, k, RetrievalMode::Ivf { nlist: 4, nprobe: 2 },
        );
        prop_assert_eq!(&oracle, &exact_mode);
        prop_assert_eq!(&oracle, &no_index);
    }

    /// On a clusterable catalog, probing half the cells keeps at least
    /// 90% of the oracle's Top-10 across every seed — the recall floor
    /// the bench sweeps in detail (over 50 seeds the worst case sits at
    /// 0.912; dot-product cell ranking under balanced splitting is the
    /// binding constraint, not luck).
    #[test]
    fn recall_floor_holds_across_seeds(seed in 0u64..50) {
        let engine = PlantedEngine::new(16, 600, 8, seed);
        let index = IvfIndex::build(&engine, &IvfConfig::new(16, 1));
        let k = 10;
        let mut hits = 0usize;
        let mut total = 0usize;
        for u in 0..16u32 {
            let exact = ca_recsys::single_top_k(&engine, UserId(u), k);
            let approx = index.top_k(&engine, UserId(u), k, 8);
            hits += exact.iter().filter(|v| approx.contains(v)).count();
            total += exact.len();
        }
        let recall = hits as f64 / total as f64;
        prop_assert!(recall >= 0.9, "recall@10 {recall:.3} below floor at nprobe 8/16");
    }

    /// The `IvfRecommender` wrapper serves the same black-box surface:
    /// probed results never contain seen items and match the index run
    /// directly against the inner engine.
    #[test]
    fn wrapped_recommender_matches_the_bare_index(
        seed in 0u64..100,
        k in 1usize..8,
    ) {
        let rec = mf_recommender(40, 12, seed);
        let cfg = IvfConfig::new(6, 3);
        let wrapped = IvfRecommender::deploy(rec.clone(), cfg);
        let users: Vec<UserId> = (0..12u32).map(UserId).collect();
        let direct = wrapped.index().batch_top_k(&rec, &users, k, 3);
        prop_assert_eq!(&wrapped.top_k_batch(&users, k), &direct);
        for &u in &users {
            for v in wrapped.top_k(u, k) {
                prop_assert!(!rec.data().contains(u, v), "seen item {v} served to {u}");
            }
        }
    }
}

/// Index build and probed search are bitwise invariant to the thread
/// count — the sweep the CI matrix pins via `CA_THREADS`.
#[test]
fn ivf_results_are_thread_count_invariant() {
    let rec = mf_recommender(300, 64, 0xA11);
    let users: Vec<UserId> = (0..64u32).map(UserId).collect();
    let mut baseline: Option<(IvfIndex, Vec<Vec<ItemId>>)> = None;
    for threads in [1usize, 4] {
        ca_par::set_threads(Some(threads));
        let index = IvfIndex::build(&rec, &IvfConfig::new(8, 3));
        let lists = index.batch_top_k(&rec, &users, 10, 3);
        match &baseline {
            None => baseline = Some((index, lists)),
            Some((idx0, lists0)) => {
                assert_eq!(idx0.centroids(), index.centroids(), "centroids drift at {threads}");
                assert_eq!(lists0, &lists, "search drifts at {threads} threads");
            }
        }
    }
    ca_par::set_threads(None);
}
