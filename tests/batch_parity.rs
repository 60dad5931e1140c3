//! Property tests for the batched query path: for every target model,
//! `top_k_batch` must equal per-user `top_k` element-for-element — same
//! items, same order — including tie-heavy score distributions, so the
//! batched reward rounds in the attack loop are observationally identical
//! to sequential querying. Every engine's `score_batch` cells are checked
//! bit for bit against its own `Scorer::score`, the ranking kernel against
//! an independent oracle (a full sort of the unseen cells), every engine's
//! seen run against the dataset it serves, and every answer the platforms'
//! answer caches give against `batch_top_k`, which reads no cache.

use ca_gnn::{GnnConfig, PinSageModel, PinSageRecommender};
use ca_mf::{MfModel, MfRecommender};
use ca_ncf::{NcfConfig, NcfModel, NcfRecommender};
use ca_recsys::knn::ItemKnnRecommender;
use ca_recsys::{
    batch_top_k, top_k_from_scores, BlackBoxRecommender, Dataset, DatasetBuilder, FallibleBlackBox,
    FaultConfig, FaultyRecommender, ItemId, PopularityRecommender, RateLimit, Scorer,
    ScoringEngine, UserId,
};
use ca_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a dataset over `n_items` from raw profiles (ids taken mod the
/// catalog; `DatasetBuilder` dedups).
fn dataset(n_items: usize, profiles: &[Vec<u32>]) -> Dataset {
    let mut b = DatasetBuilder::new(n_items);
    for p in profiles {
        let items: Vec<ItemId> = p.iter().map(|&v| ItemId(v % n_items as u32)).collect();
        b.user(&items);
    }
    b.build()
}

/// Asserts `top_k_batch` over every user equals the per-user `top_k`.
fn assert_batch_parity<R: BlackBoxRecommender>(rec: &R, n_users: usize, k: usize) {
    let users: Vec<UserId> = (0..n_users as u32).map(UserId).collect();
    let batched = rec.top_k_batch(&users, k);
    prop_assert_eq!(batched.len(), users.len());
    for (i, &u) in users.iter().enumerate() {
        let single = rec.top_k(u, k);
        prop_assert_eq!(&batched[i], &single, "user {} diverges at k={}", u, k);
    }
}

/// Asserts every cell `score_batch` writes for `users` has the bits of
/// `Scorer::score` for the same user and item.
fn assert_cells_match_scorer<R: ScoringEngine + Scorer>(rec: &R, users: &[UserId], model: &str) {
    let mut out = Matrix::zeros(users.len(), rec.catalog_len());
    #[expect(
        clippy::disallowed_methods,
        reason = "parity test pinning every engine's cells against its scalar scorer"
    )]
    rec.score_batch(users, &mut out);
    for (i, &u) in users.iter().enumerate() {
        for v in 0..rec.catalog_len() {
            let (batch, scalar) = (out[(i, v)], rec.score(u, ItemId(v as u32)));
            prop_assert_eq!(
                batch.to_bits(),
                scalar.to_bits(),
                "{}: user {} item {} scores {} batched, {} scalar",
                model,
                u,
                v,
                batch,
                scalar
            );
        }
    }
}

/// Injects `injected` into `rec` and returns every account it then serves,
/// last first.
fn inject_all<R: BlackBoxRecommender>(rec: &mut R, injected: &[Vec<ItemId>]) -> Vec<UserId> {
    let last = injected.iter().map(|p| rec.inject_user(p)).last().expect("an injection");
    (0..=last.0).rev().map(UserId).collect()
}

/// Profile strategy biased toward collisions: few distinct items across
/// users → heavy score ties in every model.
fn tie_heavy_profiles() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..4, 1..4), 2..10)
}

/// The handful of scores the kernel oracle draws from: both zeros (equal
/// as raw `f32`, ordered by `total_cmp`), both infinities, and a few
/// finite values, so most cells tie with many others.
const PALETTE: [f32; 8] = [f32::NEG_INFINITY, -2.5, -1.0, -0.0, 0.0, 1.0, 3.0, f32::INFINITY];

/// The kernel's specification, computed independently: every unseen cell
/// sorted by score (descending, `total_cmp`), then id (ascending), cut to
/// the first `k`.
fn full_sort_top_k(scores: &[f32], seen: &[bool], k: usize) -> Vec<ItemId> {
    let mut unseen: Vec<(f32, u32)> =
        (0..scores.len()).filter(|&v| !seen[v]).map(|v| (scores[v], v as u32)).collect();
    unseen.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    unseen.into_iter().take(k).map(|(_, v)| ItemId(v)).collect()
}

/// Asserts every user's `seen` run is strictly ascending and holds exactly
/// the items the dataset says the user interacted with.
fn assert_seen_runs<R: ScoringEngine>(rec: &R, data: &Dataset) {
    for u in data.users() {
        let seen = rec.seen(u);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "seen run of {u} is not ascending");
        let expected: Vec<ItemId> = data.items().filter(|&v| data.contains(u, v)).collect();
        assert_eq!(seen, &expected[..], "seen run of {u}");
    }
}

/// Injects profiles with duplicates, unsorted ids and the whole catalog,
/// then checks the seen runs of base and injected users alike.
fn assert_seen_runs_after_injection<R: BlackBoxRecommender + ScoringEngine>(
    mut rec: R,
    data: fn(&R) -> &Dataset,
) {
    let n = rec.catalog_len() as u32;
    assert_seen_runs(&rec, data(&rec));
    let base_users = data(&rec).n_users();
    rec.inject_user(&[ItemId(n - 1), ItemId(2), ItemId(n - 1), ItemId(0)]);
    rec.inject_user(&(0..n).rev().map(ItemId).collect::<Vec<_>>());
    assert_eq!(data(&rec).n_users(), base_users + 2);
    assert_seen_runs(&rec, data(&rec));
}

#[test]
fn every_engine_hands_out_the_datasets_seen_runs() {
    let profiles = vec![vec![3, 1, 3], vec![0, 7, 2, 9], vec![11], vec![5, 4, 6, 5]];
    let data = dataset(12, &profiles);
    let mut rng = StdRng::seed_from_u64(3);
    let mf = MfModel::new(&mut rng, data.n_users(), data.n_items(), 4);
    assert_seen_runs_after_injection(MfRecommender::deploy(mf, data.clone()), MfRecommender::data);
    let ncf = NcfModel::new(data.n_users(), data.n_items(), NcfConfig::default());
    assert_seen_runs_after_injection(
        NcfRecommender::deploy(ncf, data.clone(), 100, 1),
        NcfRecommender::data,
    );
    let gnn = PinSageModel::with_random_features(12, GnnConfig::default());
    assert_seen_runs_after_injection(
        PinSageRecommender::deploy(gnn, data.clone()),
        PinSageRecommender::data,
    );
    assert_seen_runs_after_injection(
        ItemKnnRecommender::deploy(data.clone()),
        ItemKnnRecommender::data,
    );
    assert_seen_runs_after_injection(
        PopularityRecommender::deploy(data),
        PopularityRecommender::data,
    );
}

/// One event in a platform copy's life, as the answer-cache property
/// replays it.
#[derive(Clone, Debug)]
enum Event {
    /// Injects a profile: ids are taken mod the catalog, so repeated items
    /// and items the queried accounts have seen are common; it may be
    /// empty.
    Inject(Vec<u32>),
    /// Queries accounts (ids mod the live account count, repeats kept) in
    /// one batch at `k`.
    Batch(Vec<u32>, usize),
    /// Queries one account at `k`.
    Single(u32, usize),
    /// Clones the platform: the copy takes the following injections, and
    /// the original keeps answering beside it.
    Clone,
    /// Refreshes the platform: NCF's `refresh`, PinSage's `refresh_all`.
    Refresh,
}

/// Event sequences biased toward cache hits: most queries ask for the same
/// `k`, over a handful of accounts.
fn events() -> impl Strategy<Value = Vec<Event>> {
    let event = (0u32..12, prop::collection::vec(0u32..1_000, 0..8), 0usize..10).prop_map(
        |(kind, ids, k)| {
            let k = [5, 5, 5, 5, 5, 5, 0, 1, 3, 40][k];
            match kind {
                0..=3 => Event::Inject(ids),
                4..=6 => Event::Batch(ids, k),
                7..=8 => Event::Single(ids.first().copied().unwrap_or(0), k),
                9 => Event::Clone,
                _ => Event::Refresh,
            }
        },
    );
    prop::collection::vec(event, 1..48)
}

/// A platform copy and the number of accounts it serves.
struct Replica<R> {
    rec: R,
    users: u32,
}

impl<R: BlackBoxRecommender + ScoringEngine> Replica<R> {
    /// Answers `ids` (mod the account count) through the platform, batched
    /// or one at a time, and checks every list against `batch_top_k`.
    fn query(&self, ids: &[u32], k: usize, batched: bool, model: &str) {
        let users: Vec<UserId> = ids.iter().map(|&i| UserId(i % self.users)).collect();
        let answers = if batched {
            self.rec.top_k_batch(&users, k)
        } else {
            users.iter().map(|&u| self.rec.top_k(u, k)).collect()
        };
        let expected = batch_top_k(&self.rec, &users, k);
        prop_assert_eq!(answers, expected, "{}: accounts {:?} at k={}", model, users, k);
    }
}

/// Replays `events` on `rec`; every answer of every copy must equal
/// `batch_top_k` on that copy's state.
fn assert_cached_answers<R: BlackBoxRecommender + ScoringEngine + Clone>(
    rec: R,
    users: usize,
    events: &[Event],
    refresh: fn(&mut R),
    model: &str,
) {
    let mut live = Replica { rec, users: users as u32 };
    let mut old: Option<Replica<R>> = None;
    for event in events {
        match event {
            Event::Inject(ids) => {
                let n = live.rec.catalog_len() as u32;
                let profile: Vec<ItemId> = ids.iter().map(|&v| ItemId(v % n)).collect();
                let uid = live.rec.inject_user(&profile);
                prop_assert_eq!(uid.0, live.users, "{}: account ids are dense", model);
                live.users += 1;
            }
            Event::Batch(ids, k) => {
                live.query(ids, *k, true, model);
                if let Some(o) = &old {
                    o.query(ids, *k, true, model);
                }
            }
            Event::Single(id, k) => {
                live.query(&[*id], *k, false, model);
                if let Some(o) = &old {
                    o.query(&[*id], *k, false, model);
                }
            }
            Event::Clone => {
                let copy = Replica { rec: live.rec.clone(), users: live.users };
                old = Some(std::mem::replace(&mut live, copy));
            }
            Event::Refresh => refresh(&mut live.rec),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ranking kernel against the full-sort oracle. Rows reach about
    /// 2,000 cells, several times the kernel's candidate buffer, so the
    /// running-bar filter and the buffer cut-backs both run on tie-heavy
    /// rows; a cell is seen when its draw falls below `density`, so seen
    /// runs range from empty (0) to the whole row (8).
    #[test]
    fn kernel_matches_a_full_sort_of_the_unseen_cells(
        cells in prop::collection::vec((0usize..PALETTE.len(), 0u32..8), 1..2_000),
        density in 0u32..9,
        k in 1usize..64,
    ) {
        let scores: Vec<f32> = cells.iter().map(|&(p, _)| PALETTE[p]).collect();
        let mask: Vec<bool> = cells.iter().map(|&(_, d)| d < density).collect();
        let seen: Vec<ItemId> =
            (0..cells.len() as u32).filter(|&v| mask[v as usize]).map(ItemId).collect();
        let unseen = cells.len() - seen.len();
        for k in [0, 1, k, 16 * k, unseen, unseen + 1] {
            prop_assert_eq!(
                top_k_from_scores(&scores, k, &seen),
                full_sort_top_k(&scores, &mask, k),
                "k={} over {} cells, {} seen", k, cells.len(), seen.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Each engine's `score_batch` cells against its `Scorer::score`, bit
    /// for bit: the evaluator reads `score` while rankings read
    /// `score_batch`. The list-equality properties below cannot see a cell
    /// that every path gets wrong the same way, since `top_k` is a batch of
    /// one through the same `score_batch`.
    ///
    /// Catalogs of 2–199 items mostly end part-way through one of NCF's
    /// 32-item blocks; `tie_heavy` folds every profile onto four items; the
    /// last base user has an empty profile, and three accounts (one empty)
    /// are injected before scoring. NCF starts from random biases and
    /// refreshes every two injections, so its `p`, `q` and MLP have all
    /// moved, and some of its hidden units are negative on the scored
    /// cells, so ReLU clamps.
    #[test]
    fn every_engine_writes_the_bits_its_scorer_returns(
        n_items in 2usize..200,
        profiles in prop::collection::vec(prop::collection::vec(0u32..1_000, 1..10), 2..8),
        tie_heavy in 0u32..2,
        seed in 0u64..1_000,
    ) {
        let palette = if tie_heavy == 1 { 4 } else { n_items as u32 };
        let mut profiles: Vec<Vec<u32>> =
            profiles.iter().map(|p| p.iter().map(|&v| v % palette).collect()).collect();
        profiles.push(Vec::new());
        let data = dataset(n_items, &profiles);
        let injected = vec![
            vec![ItemId(0)],
            Vec::new(),
            (0..n_items as u32).rev().step_by(3).map(ItemId).collect(),
        ];

        let mut rng = StdRng::seed_from_u64(seed);
        let mf = MfModel::new(&mut rng, data.n_users(), n_items, 6);
        let mut rec = MfRecommender::deploy(mf, data.clone());
        let users = inject_all(&mut rec, &injected);
        assert_cells_match_scorer(&rec, &users, "mf");

        // BPR never moves the output bias (its gradients from the positive
        // and the negative item cancel), and both biases start at zero; set
        // them so every bias addition is exercised.
        let cfg = NcfConfig { seed, ..Default::default() };
        let mut ncf = NcfModel::new(data.n_users(), n_items, cfg);
        for layer in ncf.mlp.layers_mut() {
            layer.b.iter_mut().for_each(|b| *b = rng.gen_range(-0.1f32..0.1));
        }
        let mut rec = NcfRecommender::deploy(ncf.clone(), data.clone(), 2, 1);
        let users = inject_all(&mut rec, &injected);
        prop_assert_eq!(rec.pending_refresh(), 1, "the refresh fired once");
        let model = rec.model();
        prop_assert!(model.q.as_slice() != ncf.q.as_slice(), "the refresh moved q");
        for (now, then) in model.mlp.layers().iter().zip(ncf.mlp.layers()) {
            prop_assert!(now.w.as_slice() != then.w.as_slice(), "the refresh moved the MLP");
        }
        let hidden = &model.mlp.layers()[0];
        let pre: Vec<f32> = users
            .iter()
            .flat_map(|&u| (0..n_items as u32).map(move |v| (u, ItemId(v))))
            .flat_map(|(u, v)| hidden.forward(&model.fusion_input(u, v)))
            .collect();
        prop_assert!(pre.iter().any(|&h| h < 0.0), "no hidden unit is clamped");
        prop_assert!(pre.iter().any(|&h| h > 0.0), "every hidden unit is clamped");
        assert_cells_match_scorer(&rec, &users, "ncf");

        let gnn = PinSageModel::with_random_features(n_items, GnnConfig { seed, ..Default::default() });
        let mut rec = PinSageRecommender::deploy(gnn, data.clone());
        let users = inject_all(&mut rec, &injected);
        assert_cells_match_scorer(&rec, &users, "gnn");

        let mut rec = ItemKnnRecommender::deploy(data.clone());
        let users = inject_all(&mut rec, &injected);
        assert_cells_match_scorer(&rec, &users, "knn");

        let mut rec = PopularityRecommender::deploy(data);
        let users = inject_all(&mut rec, &injected);
        assert_cells_match_scorer(&rec, &users, "popularity");
    }

    #[test]
    fn mf_batch_matches_per_user(
        profiles in prop::collection::vec(prop::collection::vec(0u32..25, 1..8), 2..10),
        k in 1usize..12,
        seed in 0u64..50,
    ) {
        let data = dataset(25, &profiles);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = MfModel::new(&mut rng, data.n_users(), data.n_items(), 6);
        let rec = MfRecommender::deploy(model, data);
        assert_batch_parity(&rec, profiles.len(), k);
    }

    #[test]
    fn ncf_batch_matches_per_user(
        profiles in prop::collection::vec(prop::collection::vec(0u32..15, 1..6), 2..6),
        k in 1usize..8,
        seed in 0u64..20,
    ) {
        let data = dataset(15, &profiles);
        let cfg = NcfConfig { seed, ..Default::default() };
        let model = NcfModel::new(data.n_users(), data.n_items(), cfg);
        let rec = NcfRecommender::deploy(model, data, 100, 1);
        assert_batch_parity(&rec, profiles.len(), k);
    }

    #[test]
    fn gnn_batch_matches_per_user(
        profiles in prop::collection::vec(prop::collection::vec(0u32..15, 1..6), 2..8),
        k in 1usize..8,
        seed in 0u64..50,
    ) {
        let data = dataset(15, &profiles);
        let model = PinSageModel::with_random_features(
            15,
            GnnConfig { seed, ..Default::default() },
        );
        let rec = PinSageRecommender::deploy(model, data);
        assert_batch_parity(&rec, profiles.len(), k);
    }

    #[test]
    fn knn_batch_matches_per_user(
        profiles in prop::collection::vec(prop::collection::vec(0u32..12, 1..6), 2..10),
        k in 1usize..10,
    ) {
        let rec = ItemKnnRecommender::deploy(dataset(12, &profiles));
        assert_batch_parity(&rec, profiles.len(), k);
    }

    #[test]
    fn popularity_batch_matches_per_user(
        profiles in prop::collection::vec(prop::collection::vec(0u32..20, 1..5), 2..10),
        k in 1usize..15,
    ) {
        let rec = PopularityRecommender::deploy(dataset(20, &profiles));
        assert_batch_parity(&rec, profiles.len(), k);
    }

    // Tie stress: a handful of distinct items shared by everyone makes most
    // catalog scores identical; parity then hinges on the deterministic
    // tie-break being shared by the single and batched paths.

    #[test]
    fn knn_parity_survives_heavy_ties(
        profiles in tie_heavy_profiles(),
        k in 1usize..12,
    ) {
        let rec = ItemKnnRecommender::deploy(dataset(12, &profiles));
        assert_batch_parity(&rec, profiles.len(), k);
    }

    #[test]
    fn popularity_parity_survives_heavy_ties(
        profiles in tie_heavy_profiles(),
        k in 1usize..20,
    ) {
        let rec = PopularityRecommender::deploy(dataset(20, &profiles));
        assert_batch_parity(&rec, profiles.len(), k);
    }

    // Fault-layer parity: on an unreliable platform, batching must not
    // change *which calls fail and how*. Fault draws are a pure function
    // of (seed, logical clock, account), so any chunking of the same user
    // sequence reproduces the per-user loop outcome-for-outcome — errors,
    // truncations, suspensions, clock, and counters included.

    #[test]
    fn faulty_batch_reproduces_per_user_fault_sequences(
        profiles in prop::collection::vec(prop::collection::vec(0u32..12, 1..6), 4..10),
        k in 1usize..8,
        chunk in 1usize..9,
        seed in 0u64..1_000,
        timeout in 0.0f64..0.25,
        truncate in 0.0f64..0.25,
        suspend in 0.0f64..0.08,
    ) {
        let cfg = FaultConfig {
            seed,
            timeout_prob: timeout,
            unavailable_prob: 0.05,
            truncate_prob: truncate,
            truncate_keep: 0.5,
            suspend_prob: suspend,
            reject_inject_prob: 0.05,
            shadow_ban_prob: 0.05,
            rate_limit: Some(RateLimit { window: 8, max_calls: 6 }),
        };
        prop_assert!(cfg.validate().is_ok());
        let data = dataset(12, &profiles);
        let n_users = data.n_users();
        let users: Vec<UserId> = (0..48u32).map(|i| UserId(i % n_users as u32)).collect();

        let mut batched = FaultyRecommender::new(ItemKnnRecommender::deploy(data.clone()), cfg.clone());
        let mut looped = FaultyRecommender::new(ItemKnnRecommender::deploy(data), cfg);

        let mut from_batches = Vec::with_capacity(users.len());
        for group in users.chunks(chunk) {
            from_batches.extend(batched.try_top_k_batch(group, k));
        }
        let from_loop: Vec<_> = users.iter().map(|&u| looped.try_top_k(u, k)).collect();

        prop_assert_eq!(&from_batches, &from_loop, "chunk size {} changed the fault sequence", chunk);
        prop_assert_eq!(batched.clock(), looped.clock(), "batching must cost the same logical time");
        prop_assert_eq!(batched.stats(), looped.stats());
    }

    #[test]
    fn mf_parity_survives_duplicate_embeddings(
        profiles in tie_heavy_profiles(),
        k in 1usize..10,
        seed in 0u64..20,
    ) {
        // Duplicate every item embedding across the catalog: all items with
        // the same bias tie exactly for every user.
        let data = dataset(10, &profiles);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = MfModel::new(&mut rng, data.n_users(), data.n_items(), 4);
        let first = model.item_emb.row(0).to_vec();
        for v in 1..model.n_items() {
            model.item_emb.row_mut(v).copy_from_slice(&first);
        }
        let rec = MfRecommender::deploy(model, data);
        assert_batch_parity(&rec, profiles.len(), k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every engine's answer cache against `batch_top_k` on the same
    /// state, through random mixes of injections (repeated items, empty
    /// profiles, items the queried accounts have seen), batched and single
    /// queries over overlapping accounts with repeats and changing `k`,
    /// clones taken mid-sequence and refreshes. Catalogs of 8–39 items
    /// overflow the change log now and then, which clears the cache; NCF
    /// also refreshes on its own every three injections.
    #[test]
    fn every_engine_answers_from_its_cache_as_a_full_round_would(
        n_items in 8usize..40,
        profiles in prop::collection::vec(prop::collection::vec(0u32..1_000, 0..8), 2..8),
        events in events(),
        seed in 0u64..1_000,
    ) {
        let data = dataset(n_items, &profiles);
        let users = data.n_users();
        let mut rng = StdRng::seed_from_u64(seed);
        let mf = MfModel::new(&mut rng, users, n_items, 4);
        assert_cached_answers(MfRecommender::deploy(mf, data.clone()), users, &events, |_| {}, "mf");

        let ncf = NcfModel::new(users, n_items, NcfConfig { seed, ..Default::default() });
        let rec = NcfRecommender::deploy(ncf, data.clone(), 3, 1);
        assert_cached_answers(rec, users, &events, NcfRecommender::refresh, "ncf");

        let gnn = PinSageModel::with_random_features(n_items, GnnConfig { seed, ..Default::default() });
        let rec = PinSageRecommender::deploy(gnn, data.clone());
        assert_cached_answers(rec, users, &events, PinSageRecommender::refresh_all, "gnn");

        let rec = ItemKnnRecommender::deploy(data.clone());
        assert_cached_answers(rec, users, &events, |_| {}, "knn");

        let rec = PopularityRecommender::deploy(data);
        assert_cached_answers(rec, users, &events, |_| {}, "popularity");
    }
}

/// A PinSage fold-in that sinks a listed item behind its account's bar
/// leaves the cached list one short, and no re-scored cell can be proven
/// to fill the gap: the answer must come from the full row. Each catalog
/// item is injected alone into a copy of one warm platform; the test
/// checks that some injection sinks a listed item, and that every answer
/// equals `batch_top_k`.
#[test]
fn a_listed_item_sunk_behind_the_bar_falls_back_to_the_full_row() {
    let n_items = 30;
    let profiles: Vec<Vec<u32>> =
        (0..12u32).map(|u| (0..4).map(|i| u * 7 + i * 5).collect()).collect();
    let data = dataset(n_items, &profiles);
    let gnn =
        PinSageModel::with_random_features(n_items, GnnConfig { seed: 5, ..Default::default() });
    let warm = PinSageRecommender::deploy(gnn, data);
    let users: Vec<UserId> = (0..12u32).map(UserId).collect();
    let k = 5;
    let before = warm.top_k_batch(&users, k);
    let mut sunk = 0;
    for v in (0..n_items as u32).map(ItemId) {
        let mut rec = warm.clone();
        rec.inject_user(&[v]);
        for (&u, list) in users.iter().zip(&before) {
            let bar = list[k - 1];
            let (now, bar_score) = (rec.score(u, v), rec.score(u, bar));
            if v != bar && list.contains(&v) && (now < bar_score || (now == bar_score && v > bar)) {
                sunk += 1;
            }
        }
        assert_eq!(rec.top_k_batch(&users, k), batch_top_k(&rec, &users, k), "after injecting {v}");
    }
    assert!(sunk > 0, "no injection sank a listed item behind the bar");
}
