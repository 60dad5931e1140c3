//! Microbench for the batched scoring engine: one reward round of 50
//! pretend users, the round that follows three injections of 20-item
//! profiles. It is ranked by the scalar per-user loop (the pre-engine code
//! path), by `batch_top_k`, whose round is also split into its
//! `score_batch` kernel and its ranking pass, and by the platform's own
//! `top_k_batch`, which answers from its answer cache (warmed by the round
//! before the injections). It runs four victims:
//!
//! - MF (`--dim`, 64 by default) over 1k and 10k item catalogs;
//! - NCF with `NcfConfig::default()` (dim 8, hidden 16, the victim of
//!   e2ebench's `victims-small`) over 1k and 10k item catalogs;
//! - ItemKNN over 1k items only: its dense co-occurrence table holds
//!   n(n−1)/2 `u32` counts, about 200 MB at 10k;
//! - PinSage from `PinSageModel::with_random_features` (dim 8) over 1k
//!   items, the victim whose fold-in moves only the injected columns.
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin scoring -- --reps=20
//! ```
//!
//! Before timing anything it asserts, for every case, that the scalar
//! loop, `batch_top_k`, the per-user `top_k` and the cached `top_k_batch`
//! return the same lists; `--reps=1` turns the run into that parity check.
//!
//! Emits `results/BENCH_scoring.json`: `bench`, `reps`, and one entry of
//! `cases` per victim and catalog with `model` (`mf`, `ncf`, `knn` or
//! `gnn`), `catalog`, `users`, `k`, `dim` (the embedding width, 0 for
//! ItemKNN) and the best-of-`reps` wall times in microseconds of one round
//! on the calling thread:
//!
//! - `scalar_us`: the scalar loop (per-item `Scorer` calls, full sort);
//! - `batched_us`: `batch_top_k`, scoring and ranking together;
//! - `score_us`: its `score_batch` kernel alone;
//! - `rank_us`: its ranking of the scored rows alone
//!   (`top_k_from_scores_into` per user);
//! - `cached_us`: the platform's `top_k_batch` through its answer cache,
//!   on a fresh copy of the platform each rep (the copy is not timed).
//!   MF and NCF onboarding move no cached row, so the round only copies
//!   the cached lists. ItemKNN's injections clear the cache, so it ranks
//!   full rows, and reading the copy's freshly cloned 2 MB count table
//!   makes that round slower than `batched_us`'s repeated one. PinSage
//!   re-scores the injected columns (up to 60) and re-ranks from the
//!   cached lists;
//! - `speedup_batched`: `scalar_us / batched_us`.

use std::time::Instant;

use copyattack::gnn::{GnnConfig, PinSageModel, PinSageRecommender};
use copyattack::mf::{MfModel, MfRecommender};
use copyattack::ncf::{NcfConfig, NcfModel, NcfRecommender};
use copyattack::recsys::engine::{self, ScoringEngine};
use copyattack::recsys::knn::ItemKnnRecommender;
use copyattack::recsys::{BlackBoxRecommender, Dataset, DatasetBuilder, ItemId, Scorer, UserId};
use copyattack::tensor::Matrix;
use copyattack_bench::{f1, json_str, print_table, write_json, Args};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pre-engine ranking loop: per-item `Scorer` calls over the unseen
/// items, a full sort in the engine's order (score descending by
/// `total_cmp`, then item id ascending), truncate.
fn scalar_top_k<R: Scorer + ScoringEngine>(rec: &R, user: UserId, k: usize) -> Vec<ItemId> {
    let seen = rec.seen(user);
    let mut scored: Vec<(f32, u32)> = (0..rec.catalog_len() as u32)
        .map(ItemId)
        .filter(|v| seen.binary_search(v).is_err())
        .map(|v| (rec.score(user, v), v.0))
        .collect();
    scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored.into_iter().map(|(_, v)| ItemId(v)).collect()
}

/// `n_users` users of 20 random items each over an `n_items` catalog.
fn world(n_items: usize, n_users: usize, rng: &mut StdRng) -> Dataset {
    let mut b = DatasetBuilder::new(n_items);
    for _ in 0..n_users {
        let profile: Vec<ItemId> =
            (0..20).map(|_| ItemId(rng.gen_range(0..n_items as u32))).collect();
        b.user(&profile);
    }
    b.build()
}

/// Best-of-`reps` wall time of `f`, in microseconds.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    time_fresh_us(reps, || (), |()| f())
}

/// Best-of-`reps` wall time of `f` on a fresh `setup()` each rep, in
/// microseconds; `setup` is not timed.
fn time_fresh_us<T>(reps: usize, mut setup: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let input = setup();
        let t = Instant::now();
        f(input);
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// One round's timings of one victim over one catalog.
struct Case {
    model: &'static str,
    catalog: usize,
    dim: usize,
    scalar: f64,
    batched: f64,
    score: f64,
    rank: f64,
    cached: f64,
}

/// Answers a round for `users` through `rec`'s answer cache, then injects
/// three random 20-item profiles: the state the timed round starts from.
fn after_three_injections<R: BlackBoxRecommender>(mut rec: R, users: &[UserId], k: usize) -> R {
    rec.top_k_batch(users, k);
    let n = rec.catalog_size() as u32;
    let mut rng = StdRng::seed_from_u64(0xFEED);
    for _ in 0..3 {
        let profile: Vec<ItemId> = (0..20).map(|_| ItemId(rng.gen_range(0..n))).collect();
        rec.inject_user(&profile);
    }
    rec
}

/// Asserts the four ranking paths agree on the round after three
/// injections into `rec`, then times each.
fn run_case<R: BlackBoxRecommender + Scorer + ScoringEngine + Clone>(
    model: &'static str,
    dim: usize,
    rec: R,
    users: &[UserId],
    k: usize,
    reps: usize,
) -> Case {
    let rec = &after_three_injections(rec, users, k);
    let catalog = rec.catalog_len();
    // Parity first: the timings below only mean something if every path
    // returns the same lists. The per-user `top_k` runs on a copy, so the
    // timed copies start with every cached answer one round behind.
    let batched_lists = engine::batch_top_k(rec, users, k);
    let cached_lists = rec.clone().top_k_batch(users, k);
    let single = rec.clone();
    for (i, &u) in users.iter().enumerate() {
        let scalar = scalar_top_k(rec, u, k);
        assert_eq!(scalar, batched_lists[i], "{model} batch_top_k parity broken at {catalog}");
        assert_eq!(scalar, cached_lists[i], "{model} cached parity broken at {catalog}");
        assert_eq!(scalar, single.top_k(u, k), "{model} top_k parity broken at {catalog}");
    }

    let mut sink = 0usize;
    let scalar = time_us(reps, || {
        for &u in users {
            sink += scalar_top_k(rec, u, k).len();
        }
    });
    let batched = time_us(reps, || {
        sink += engine::batch_top_k(rec, users, k).iter().map(Vec::len).sum::<usize>();
    });
    let mut scores = Matrix::zeros(users.len(), catalog);
    let score = time_us(reps, || {
        // The layer bench times the scoring kernel apart from the ranking.
        rec.score_batch(users, &mut scores);
    });
    let mut cand = Vec::new();
    let rank = time_us(reps, || {
        for (i, &u) in users.iter().enumerate() {
            sink += engine::top_k_from_scores_into(scores.row(i), k, rec.seen(u), &mut cand).len();
        }
    });
    // Each rep answers on a fresh copy, whose cache is one round behind.
    let cached = time_fresh_us(
        reps,
        || rec.clone(),
        |fresh| sink += fresh.top_k_batch(users, k).iter().map(Vec::len).sum::<usize>(),
    );
    assert!(sink > 0);
    Case { model, catalog, dim, scalar, batched, score, rank, cached }
}

fn main() {
    let args = Args::parse();
    let reps: usize = args.get_parse("reps", 20);
    let dim: usize = args.get_parse("dim", 64);
    let k: usize = args.get_parse("k", 10);
    let n_pretend: usize = args.get_parse("users", 50);

    let users: Vec<UserId> = (0..n_pretend as u32).map(UserId).collect();
    let mut cases = Vec::new();
    for &catalog in &[1_000usize, 10_000] {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let data = world(catalog, n_pretend, &mut rng);
        let mf = MfModel::new(&mut rng, data.n_users(), data.n_items(), dim);
        let rec = MfRecommender::deploy(mf, data.clone());
        cases.push(run_case("mf", dim, rec, &users, k, reps));

        let cfg = NcfConfig::default();
        let ncf_dim = cfg.dim;
        let ncf = NcfModel::new(data.n_users(), data.n_items(), cfg);
        let rec = NcfRecommender::deploy(ncf, data.clone(), 8, 1);
        cases.push(run_case("ncf", ncf_dim, rec, &users, k, reps));

        if catalog <= 1_000 {
            let rec = ItemKnnRecommender::deploy(data.clone());
            cases.push(run_case("knn", 0, rec, &users, k, reps));

            let gnn_dim = 8;
            let cfg = GnnConfig { dim: gnn_dim, ..GnnConfig::default() };
            let gnn = PinSageModel::with_random_features(catalog, cfg);
            let rec = PinSageRecommender::deploy(gnn, data);
            cases.push(run_case("gnn", gnn_dim, rec, &users, k, reps));
        }
    }

    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                c.model.to_string(),
                c.catalog.to_string(),
                format!("{:.0}", c.scalar),
                format!("{:.0}", c.batched),
                format!("{:.0}", c.score),
                format!("{:.0}", c.rank),
                format!("{:.0}", c.cached),
                f1((c.scalar / c.batched) as f32),
            ]
        })
        .collect();
    print_table(
        &format!("scoring: one reward round ({n_pretend} pretend users)"),
        &[
            "model",
            "catalog",
            "scalar_us",
            "batched_us",
            "score_us",
            "rank_us",
            "cached_us",
            "x_batched",
        ],
        &rows,
    );

    let entries: Vec<Vec<(&str, String)>> = cases
        .iter()
        .map(|c| {
            vec![
                ("model", json_str(c.model)),
                ("catalog", c.catalog.to_string()),
                ("users", n_pretend.to_string()),
                ("k", k.to_string()),
                ("dim", c.dim.to_string()),
                ("scalar_us", format!("{:.1}", c.scalar)),
                ("batched_us", format!("{:.1}", c.batched)),
                ("score_us", format!("{:.1}", c.score)),
                ("rank_us", format!("{:.1}", c.rank)),
                ("cached_us", format!("{:.1}", c.cached)),
                ("speedup_batched", format!("{:.2}", c.scalar / c.batched)),
            ]
        })
        .collect();
    let top = [("bench", json_str("scoring")), ("reps", reps.to_string())];
    write_json("BENCH_scoring.json", &top, "cases", &entries);
}
