//! Microbench for the batched scoring engine: one reward round of 50
//! pretend users over 1k and 10k item catalogs, ranked by the scalar
//! per-user loop (the pre-engine code path) and by `batch_top_k`, whose
//! round is also split into its score GEMM and its ranking pass.
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin scoring -- --reps=20
//! ```
//!
//! Before timing anything it asserts, at both catalog sizes, that the
//! scalar loop, `batch_top_k` and the per-user `top_k` return the same
//! lists; `--reps=1` turns the run into that parity check.
//!
//! Emits `results/BENCH_scoring.json`: `bench`, `reps`, and one entry of
//! `cases` per catalog with `catalog`, `users`, `k`, `dim` and the
//! best-of-`reps` wall times in microseconds of one round on the calling
//! thread:
//!
//! - `scalar_us`: the scalar loop (per-item `Scorer` calls, full sort);
//! - `batched_us`: `batch_top_k`, scoring and ranking together;
//! - `score_us`: its `score_batch` GEMM alone;
//! - `rank_us`: its ranking of the scored rows alone
//!   (`top_k_from_scores_into` per user);
//! - `speedup_batched`: `scalar_us / batched_us`.

use std::time::Instant;

use copyattack::mf::{MfModel, MfRecommender};
use copyattack::recsys::engine::{self, ScoringEngine};
use copyattack::recsys::{BlackBoxRecommender, DatasetBuilder, ItemId, Scorer, UserId};
use copyattack::tensor::Matrix;
use copyattack_bench::{f1, print_table, results_dir, Args};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pre-engine ranking loop: per-item `Scorer` calls, a full sort in
/// the engine's order (score descending by `total_cmp`, then item id
/// ascending), truncate.
fn scalar_top_k(rec: &MfRecommender, user: UserId, k: usize) -> Vec<ItemId> {
    let n = rec.data().n_items();
    let mut scored: Vec<(f32, u32)> = (0..n as u32)
        .map(ItemId)
        .filter(|&v| !rec.data().contains(user, v))
        .map(|v| (rec.score(user, v), v.0))
        .collect();
    scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored.into_iter().map(|(_, v)| ItemId(v)).collect()
}

fn platform(n_items: usize, n_users: usize, dim: usize, seed: u64) -> MfRecommender {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DatasetBuilder::new(n_items);
    for _ in 0..n_users {
        let profile: Vec<ItemId> =
            (0..20).map(|_| ItemId(rng.gen_range(0..n_items as u32))).collect();
        b.user(&profile);
    }
    let data = b.build();
    let model = MfModel::new(&mut rng, data.n_users(), data.n_items(), dim);
    MfRecommender::deploy(model, data)
}

/// Best-of-`reps` wall time of `f`, in microseconds.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

fn main() {
    let args = Args::parse();
    let reps: usize = args.get_parse("reps", 20);
    let dim: usize = args.get_parse("dim", 64);
    let k: usize = args.get_parse("k", 10);
    let n_pretend: usize = args.get_parse("users", 50);

    let users: Vec<UserId> = (0..n_pretend as u32).map(UserId).collect();
    let mut rows = Vec::new();
    let mut cases = Vec::new();
    for &catalog in &[1_000usize, 10_000] {
        let rec = platform(catalog, n_pretend, dim, 0xC0FFEE);

        // Parity first: the timings below only mean something if every
        // path returns the same lists.
        let batched_lists = engine::batch_top_k(&rec, &users, k);
        for (i, &u) in users.iter().enumerate() {
            let scalar = scalar_top_k(&rec, u, k);
            assert_eq!(scalar, batched_lists[i], "batch_top_k parity broken at {catalog}");
            assert_eq!(scalar, rec.top_k(u, k), "top_k parity broken at {catalog}");
        }

        let mut sink = 0usize;
        let scalar = time_us(reps, || {
            for &u in &users {
                sink += scalar_top_k(&rec, u, k).len();
            }
        });
        let batched = time_us(reps, || {
            sink += engine::batch_top_k(&rec, &users, k).iter().map(Vec::len).sum::<usize>();
        });
        let mut scores = Matrix::zeros(users.len(), catalog);
        let score = time_us(reps, || {
            // ca-audit: allow(exact-scan) — the layer bench times the GEMM apart from the ranking
            rec.score_batch(&users, &mut scores);
        });
        let mut cand = Vec::new();
        let rank = time_us(reps, || {
            for (i, &u) in users.iter().enumerate() {
                sink +=
                    engine::top_k_from_scores_into(scores.row(i), k, rec.seen(u), &mut cand).len();
            }
        });
        assert!(sink > 0);

        rows.push(vec![
            catalog.to_string(),
            format!("{scalar:.0}"),
            format!("{batched:.0}"),
            format!("{score:.0}"),
            format!("{rank:.0}"),
            f1((scalar / batched) as f32),
        ]);
        cases.push(format!(
            concat!(
                "    {{\"catalog\": {}, \"users\": {}, \"k\": {}, \"dim\": {}, ",
                "\"scalar_us\": {:.1}, \"batched_us\": {:.1}, \"score_us\": {:.1}, ",
                "\"rank_us\": {:.1}, \"speedup_batched\": {:.2}}}"
            ),
            catalog,
            n_pretend,
            k,
            dim,
            scalar,
            batched,
            score,
            rank,
            scalar / batched,
        ));
    }

    print_table(
        &format!("scoring: one reward round ({n_pretend} pretend users)"),
        &["catalog", "scalar_us", "batched_us", "score_us", "rank_us", "x_batched"],
        &rows,
    );

    let json = format!(
        "{{\n  \"bench\": \"scoring\",\n  \"reps\": {},\n  \"cases\": [\n{}\n  ]\n}}\n",
        reps,
        cases.join(",\n")
    );
    let path = results_dir().join("BENCH_scoring.json");
    std::fs::write(&path, json).expect("write BENCH_scoring.json");
    println!("wrote {}", path.display());
}
