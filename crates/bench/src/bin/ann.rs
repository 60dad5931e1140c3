//! ANN retrieval bench: exact full-catalog Top-k vs the `ca-ann` IVF
//! index, on planted-topic synthetic catalogs at 100k and 1M items.
//!
//! Three measurements:
//!
//! 1. **Latency** — per-query Top-20 time for the exact engine
//!    (`single_top_k`, a full-catalog scan) and for the IVF index across
//!    an `nprobe` sweep (best-of-3 passes over a fixed query set).
//! 2. **Recall** — overlap of the IVF Top-k with the exact oracle's
//!    Top-k (recall@10 / recall@20 averaged over the query set). Because
//!    candidates are scored by the same kernel, cell pruning is the only
//!    approximation — recall isolates exactly what pruning costs.
//! 3. **Ablation** — the paper's CopyAttack campaign on the tiny preset
//!    with the platform serving `Exact` vs `Ivf` Top-k: does the attack
//!    still promote a cold target item when the reward signal passes
//!    through approximate retrieval, given that cold items land in
//!    whatever cell their (untrained) embedding happens to fall into?
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin ann
//! cargo run --release -p copyattack-bench --bin ann -- --smoke=1
//! ```
//!
//! `--smoke=1` runs a 20k-item catalog with one probe setting and asserts
//! the recall floor — the CI guard that the index stays healthy.

use std::time::Instant;

use copyattack::ann::{IvfConfig, IvfIndex};
use copyattack::par;
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::{
    single_top_k, EmbeddingEngine, ItemId, RetrievalMode, ScoringEngine, UserId,
};
use copyattack::tensor::{ops, Matrix};
use copyattack_bench::{print_table, results_dir, Args};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Embedding width — matches the ml-scale MF/GNN presets.
const DIM: usize = 32;
/// Planted mixture components: items and queries cluster around shared
/// topic centroids, the structure an inverted file exploits.
const TOPICS: usize = 64;
/// Queries per latency/recall pass.
const QUERIES: usize = 32;
/// Ranking depth (the paper's HR@20 cut).
const K: usize = 20;

/// Synthetic engine over a planted topic mixture: `score(u, v) =
/// dot(p_u, q_v)` with every embedding drawn as `centroid[topic] +
/// uniform noise`. The exact scan, the candidate scorer, and the index
/// all see the same vectors, so the oracle comparison is airtight.
struct SynthEngine {
    users: Matrix,
    items: Matrix,
}

impl SynthEngine {
    fn new(n_users: usize, n_items: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let topics = Matrix::from_fn(TOPICS, DIM, |_, _| rng.gen_range(-1.0f32..1.0));
        let draw = |n: usize, rng: &mut StdRng| {
            let mut m = Matrix::zeros(n, DIM);
            for r in 0..n {
                let t = rng.gen_range(0..TOPICS);
                let row = m.row_mut(r);
                for (c, x) in row.iter_mut().enumerate() {
                    *x = topics[(t, c)] + rng.gen_range(-0.25f32..0.25);
                }
            }
            m
        };
        let items = draw(n_items, &mut rng);
        let users = draw(n_users, &mut rng);
        SynthEngine { users, items }
    }
}

impl ScoringEngine for SynthEngine {
    fn catalog_len(&self) -> usize {
        self.items.rows()
    }

    fn score_batch(&self, users: &[UserId], out: &mut Matrix) {
        for (i, &u) in users.iter().enumerate() {
            let p = self.users.row(u.idx());
            for v in 0..self.items.rows() {
                out[(i, v)] = ops::dot(p, self.items.row(v));
            }
        }
    }

    fn seen(&self, _user: UserId) -> &[ItemId] {
        &[]
    }
}

impl EmbeddingEngine for SynthEngine {
    fn embedding_dim(&self) -> usize {
        DIM
    }

    fn item_embedding_into(&self, item: ItemId, out: &mut [f32]) {
        out.copy_from_slice(self.items.row(item.idx()));
    }

    fn query_embedding_into(&self, user: UserId, out: &mut [f32]) {
        out.copy_from_slice(self.users.row(user.idx()));
    }

    fn score_items(&self, user: UserId, items: &[ItemId], out: &mut [f32]) {
        let p = self.users.row(user.idx());
        for (o, &v) in out.iter_mut().zip(items) {
            *o = ops::dot(p, self.items.row(v.idx()));
        }
    }
}

/// Best-of-`reps` wall time of one full pass of `f` over the query set,
/// in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Fraction of the oracle's top-`k` prefix that `approx` recovered.
fn recall_at(exact: &[ItemId], approx: &[ItemId], k: usize) -> f64 {
    let want = &exact[..k.min(exact.len())];
    let got = &approx[..k.min(approx.len())];
    want.iter().filter(|v| got.contains(v)).count() as f64 / k as f64
}

struct SweepPoint {
    nprobe: usize,
    us: f64,
    speedup: f64,
    recall10: f64,
    recall20: f64,
}

struct CatalogResult {
    n_items: usize,
    build_s: f64,
    exact_us: f64,
    sweep: Vec<SweepPoint>,
}

fn bench_catalog(n_items: usize, nlist: usize, probes: &[usize], seed: u64) -> CatalogResult {
    let engine = SynthEngine::new(QUERIES, n_items, seed);
    let queries: Vec<UserId> = (0..QUERIES as u32).map(UserId).collect();

    let t = Instant::now();
    let index = IvfIndex::build(&engine, &IvfConfig::new(nlist, 1));
    let build_s = t.elapsed().as_secs_f64();

    let oracle: Vec<Vec<ItemId>> = queries.iter().map(|&u| single_top_k(&engine, u, K)).collect();
    let exact_s = best_of(3, || {
        for &u in &queries {
            std::hint::black_box(single_top_k(&engine, u, K));
        }
    });
    let exact_us = exact_s / QUERIES as f64 * 1e6;

    let mut sweep = Vec::new();
    for &nprobe in probes {
        let lists: Vec<Vec<ItemId>> =
            queries.iter().map(|&u| index.top_k(&engine, u, K, nprobe)).collect();
        let ivf_s = best_of(3, || {
            for &u in &queries {
                std::hint::black_box(index.top_k(&engine, u, K, nprobe));
            }
        });
        let us = ivf_s / QUERIES as f64 * 1e6;
        let (mut r10, mut r20) = (0.0, 0.0);
        for (exact, approx) in oracle.iter().zip(&lists) {
            r10 += recall_at(exact, approx, 10);
            r20 += recall_at(exact, approx, K);
        }
        sweep.push(SweepPoint {
            nprobe,
            us,
            speedup: exact_us / us,
            recall10: r10 / QUERIES as f64,
            recall20: r20 / QUERIES as f64,
        });
    }
    CatalogResult { n_items, build_s, exact_us, sweep }
}

struct AblationArm {
    hr20: f32,
    ndcg20: f32,
    avg_items: f32,
}

/// Runs the CopyAttack campaign on the tiny preset under one retrieval
/// mode and reports the Table-2-style promotion row.
fn ablation_arm(retrieval: RetrievalMode, targets: usize, seed: u64) -> AblationArm {
    let mut cfg = PipelineConfig::tiny(seed);
    cfg.retrieval = retrieval;
    let pipe = Pipeline::build(&cfg);
    let row = pipe.run_attack_over_targets("CopyAttack", targets);
    AblationArm {
        hr20: row.metrics.hr(20),
        ndcg20: row.metrics.ndcg(20),
        avg_items: row.avg_items_per_profile,
    }
}

/// Cold-item cell placement: how big are the cells the attacked (cold)
/// items land in, relative to the mean cell?
fn cold_cell_stats(seed: u64, nlist: usize) -> (f64, Vec<usize>) {
    let cfg = PipelineConfig::tiny(seed);
    let pipe = Pipeline::build(&cfg);
    let index = IvfIndex::build(&pipe.recommender, &IvfConfig::new(nlist, 1));
    let mean = index.len() as f64 / index.nlist() as f64;
    let cells = pipe.target_items.iter().map(|&t| index.cell(index.cell_of(t)).len()).collect();
    (mean, cells)
}

fn main() {
    let args = Args::parse();
    let seed: u64 = args.get_parse("seed", 0x05EE_DA11);

    if args.get_parse("smoke", 0u32) == 1 {
        // CI guard: the index must hold its recall floor on a small
        // planted catalog, fast.
        let t = Instant::now();
        let r = bench_catalog(20_000, 64, &[8], seed);
        let p = &r.sweep[0];
        assert!(p.recall20 >= 0.90, "smoke: recall@20 {:.3} under 0.90 at nprobe=8/64", p.recall20);
        println!(
            "smoke: 20k items, nprobe 8/64: recall@20 {:.3}, {:.0}us vs exact {:.0}us, in {:.1}s",
            p.recall20,
            p.us,
            r.exact_us,
            t.elapsed().as_secs_f64()
        );
        return;
    }

    let nlist: usize = args.get_parse("nlist", 512);
    let probes = [1usize, 2, 4, 8, 16, 32, 64];
    let catalogs = [100_000usize, 1_000_000];

    let mut results = Vec::new();
    for &n in &catalogs {
        let r = bench_catalog(n, nlist, &probes, seed);
        let mut rows = Vec::new();
        for p in &r.sweep {
            rows.push(vec![
                p.nprobe.to_string(),
                format!("{:.0}", p.us),
                format!("{:.1}x", p.speedup),
                format!("{:.3}", p.recall10),
                format!("{:.3}", p.recall20),
            ]);
        }
        print_table(
            &format!(
                "{n} items, nlist {nlist}: IVF vs exact ({:.0}us/query, build {:.1}s)",
                r.exact_us, r.build_s
            ),
            &["nprobe", "us", "speedup", "recall@10", "recall@20"],
            &rows,
        );
        results.push(r);
    }

    println!("\nrunning retrieval ablation (CopyAttack on tiny preset)...");
    let ablation_targets = 3;
    let ivf_mode = RetrievalMode::Ivf { nlist: 8, nprobe: 2 };
    let exact = ablation_arm(RetrievalMode::Exact, ablation_targets, seed);
    let ivf = ablation_arm(ivf_mode, ablation_targets, seed);
    let (mean_cell, target_cells) = cold_cell_stats(seed, 8);
    print_table(
        "ablation: CopyAttack promotion under Exact vs Ivf{nlist:8,nprobe:2} serving",
        &["mode", "hr@20", "ndcg@20", "avg_items"],
        &[
            vec![
                "exact".into(),
                format!("{:.4}", exact.hr20),
                format!("{:.4}", exact.ndcg20),
                format!("{:.1}", exact.avg_items),
            ],
            vec![
                "ivf".into(),
                format!("{:.4}", ivf.hr20),
                format!("{:.4}", ivf.ndcg20),
                format!("{:.1}", ivf.avg_items),
            ],
        ],
    );
    println!("cold-item cells: sizes {:?} vs mean {:.1}", target_cells, mean_cell);

    let retrieval_json: Vec<String> = results
        .iter()
        .map(|r| {
            let sweep: Vec<String> = r
                .sweep
                .iter()
                .map(|p| {
                    format!(
                        concat!(
                            "        {{\"nprobe\": {}, \"us\": {:.1}, \"speedup\": {:.2}, ",
                            "\"recall10\": {:.4}, \"recall20\": {:.4}}}"
                        ),
                        p.nprobe, p.us, p.speedup, p.recall10, p.recall20
                    )
                })
                .collect();
            format!(
                concat!(
                    "    {{\"items\": {}, \"nlist\": {}, \"dim\": {}, \"queries\": {}, ",
                    "\"build_s\": {:.2}, \"exact_us\": {:.1},\n      \"sweep\": [\n{}\n      ]}}"
                ),
                r.n_items,
                nlist,
                DIM,
                QUERIES,
                r.build_s,
                r.exact_us,
                sweep.join(",\n")
            )
        })
        .collect();
    let cells_json: Vec<String> = target_cells.iter().map(usize::to_string).collect();
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"ann\",\n  \"threads\": {},\n  \"topics\": {},\n",
            "  \"retrieval\": [\n{}\n  ],\n",
            "  \"ablation\": {{\"preset\": \"tiny\", \"method\": \"CopyAttack\", ",
            "\"targets\": {}, \"nlist\": 8, \"nprobe\": 2,\n",
            "    \"exact\": {{\"hr20\": {:.4}, \"ndcg20\": {:.4}, \"avg_items\": {:.2}}},\n",
            "    \"ivf\": {{\"hr20\": {:.4}, \"ndcg20\": {:.4}, \"avg_items\": {:.2}}},\n",
            "    \"cold_cells\": {{\"mean\": {:.2}, \"target_cells\": [{}]}}}}\n}}\n"
        ),
        par::threads(),
        TOPICS,
        retrieval_json.join(",\n"),
        ablation_targets,
        exact.hr20,
        exact.ndcg20,
        exact.avg_items,
        ivf.hr20,
        ivf.ndcg20,
        ivf.avg_items,
        mean_cell,
        cells_json.join(", ")
    );
    let path = results_dir().join("BENCH_ann.json");
    std::fs::write(&path, json).expect("write BENCH_ann.json");
    println!("wrote {}", path.display());
}
