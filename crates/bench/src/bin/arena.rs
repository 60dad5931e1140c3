//! The attack arena: every registered attack crossed with every target
//! platform, with the detector screen on and off.
//!
//! One cell = one (attack, platform, defense) triple, aggregated over
//! `--items` target items. Per cell the arena reports the HR@20 uplift
//! over the clean platform, the query/injection budget the attacker spent,
//! and the z-score detector's precision/recall over the injected profiles
//! at the platform's 99th-percentile false-positive threshold. Both arms
//! route injections through [`ScreenedRecommender`] — the undefended arm
//! simply screens at `+∞`, so profile scores are recorded without any
//! rejections — which keeps the two arms' code paths identical.
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin arena -- --preset=tiny --items=2
//! cargo run --release -p copyattack-bench --bin arena -- --smoke=1   # CI: 2 attacks × 2 platforms
//! ```
//!
//! Writes `results/BENCH_arena.json`.

use copyattack::core::AttackConfig;
use copyattack::detect::features::PopularityIndex;
use copyattack::detect::{extract_features, ScreenedRecommender, ZScoreDetector};
use copyattack::mf::MfRecommender;
use copyattack::ncf::NcfRecommender;
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::knn::ItemKnnRecommender;
use copyattack::recsys::{
    BlackBoxRecommender, ItemId, PopularityRecommender, RankingEval, Scorer, UserId,
};
use copyattack::tensor::Matrix;
use copyattack_bench::{f4, preset, print_table, results_dir, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// The fitted screen shared by every cell: detector, feature geometry and
/// the 99th-percentile threshold on genuine scores.
struct Defense {
    detector: ZScoreDetector,
    pop: PopularityIndex,
    item_emb: Matrix,
    threshold: f32,
    genuine_scores: Vec<f32>,
}

impl Defense {
    fn fit(pipe: &Pipeline, seed: u64) -> Self {
        let clean = &pipe.split.train;
        let pop = PopularityIndex::build(clean);
        let item_emb = copyattack::mf::train(
            clean,
            &copyattack::mf::BprConfig { max_epochs: 10, seed: seed ^ 9, ..Default::default() },
        )
        .item_emb;
        let feats: Vec<_> = (0..clean.n_users() as u32)
            .map(|u| extract_features(clean.profile(UserId(u)), &pop, &item_emb))
            .collect();
        let detector = ZScoreDetector::fit(&feats);
        let genuine_scores: Vec<f32> = feats.iter().map(|f| detector.score(f)).collect();
        let threshold = copyattack::tensor::stats::percentile(&genuine_scores, 99.0);
        Self { detector, pop, item_emb, threshold, genuine_scores }
    }

    /// Wraps a platform in the screen; `defended = false` screens at `+∞`
    /// (a pass-through recorder).
    fn wrap<R: BlackBoxRecommender>(&self, base: R, defended: bool) -> ScreenedRecommender<R> {
        let thr = if defended { self.threshold } else { f32::INFINITY };
        ScreenedRecommender::new(
            base,
            self.detector.clone(),
            self.pop.clone(),
            self.item_emb.clone(),
            thr,
        )
    }

    /// Precision/recall of "score > threshold ⇒ fake" against the genuine
    /// population, over the pooled scores of one cell's injected profiles.
    fn precision_recall(&self, fake_scores: &[f32]) -> (f32, f32) {
        if fake_scores.is_empty() {
            return (0.0, 0.0);
        }
        let tp = fake_scores.iter().filter(|&&s| s > self.threshold).count() as f32;
        let fp = self.genuine_scores.iter().filter(|&&s| s > self.threshold).count() as f32;
        let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
        (precision, tp / fake_scores.len() as f32)
    }
}

/// One aggregated matrix cell.
struct Cell {
    attack: String,
    platform: &'static str,
    defended: bool,
    hr20_clean: f32,
    hr20_attacked: f32,
    queries: u64,
    attempted: usize,
    accepted: usize,
    precision: f32,
    recall: f32,
}

impl Cell {
    fn uplift(&self) -> f32 {
        self.hr20_attacked - self.hr20_clean
    }
}

/// Runs every (attack, defense) pair on one platform deployment and pushes
/// the aggregated cells. `pretend` must already be established in `base`.
#[allow(clippy::too_many_arguments)]
fn run_platform<R>(
    label: &'static str,
    base: &R,
    pretend: &[UserId],
    pipe: &Pipeline,
    attacks: &[String],
    targets: &[ItemId],
    def: &Defense,
    out: &mut Vec<Cell>,
) where
    R: BlackBoxRecommender + Scorer + Clone + 'static,
{
    let ev = RankingEval::standard(&pipe.split.train);
    let base_cfg = &pipe.config.attack.config;
    for defended in [false, true] {
        for name in attacks {
            let mut hr_clean = 0.0f32;
            let mut hr_attacked = 0.0f32;
            let mut queries = 0u64;
            let mut accepted = 0usize;
            let mut fake_scores: Vec<f32> = Vec::new();
            let mut cells = 0usize;
            for &t in targets {
                let cell_seed = base_cfg.seed ^ t.0 as u64;
                let cfg = AttackConfig { seed: cell_seed, ..base_cfg.clone() };
                let victim = def.wrap(base.clone(), defended);
                let (screened, outcome) = match pipe.attack_with(name, t, &cfg, &victim, pretend) {
                    Ok(attacked) => attacked,
                    Err(e) => {
                        eprintln!("skipping {name} on {label} vs {t}: {e}");
                        continue;
                    }
                };
                queries += outcome.queries;
                fake_scores.extend_from_slice(screened.screened_scores());
                accepted += screened.accepted();
                let polluted = screened.into_inner();
                let mut eval_rng = StdRng::seed_from_u64(cell_seed ^ 0x5EED);
                hr_attacked +=
                    ev.evaluate_promotion(&polluted, &pipe.eval_users, t, &mut eval_rng).hr(20);
                let mut eval_rng = StdRng::seed_from_u64(cell_seed ^ 0x5EED);
                hr_clean += ev.evaluate_promotion(base, &pipe.eval_users, t, &mut eval_rng).hr(20);
                cells += 1;
            }
            if cells == 0 {
                continue;
            }
            let (precision, recall) = def.precision_recall(&fake_scores);
            out.push(Cell {
                attack: name.clone(),
                platform: label,
                defended,
                hr20_clean: hr_clean / cells as f32,
                hr20_attacked: hr_attacked / cells as f32,
                queries,
                attempted: fake_scores.len(),
                accepted,
                precision,
                recall,
            });
            eprintln!(
                "{label:>10} | {name:<18} | defense {} | uplift {:+.4}",
                if defended { "on " } else { "off" },
                out.last().expect("just pushed").uplift()
            );
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = Args::parse();
    let smoke: usize = args.get_parse("smoke", 0);
    let preset_name = args.get("preset", "tiny");
    let seed: u64 = args.get_parse("seed", 42);
    let items: usize = args.get_parse("items", 2);

    let cfg: PipelineConfig = preset(&preset_name, seed);
    eprintln!("building pipeline for preset {preset_name} ...");
    let pipe = Pipeline::build(&cfg);
    let def = Defense::fit(&pipe, seed);
    let targets: Vec<ItemId> = pipe.target_items.iter().copied().take(items.max(1)).collect();

    let mut attacks: Vec<String> = pipe
        .registry::<copyattack::gnn::PinSageRecommender>()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    if smoke > 0 {
        attacks = vec!["RandomAttack".into(), "TargetAttack100".into()];
    }

    let clean = pipe.split.train.clone();
    let establish = |rec: &mut dyn BlackBoxRecommender| -> Vec<UserId> {
        pipe.pretend_profiles.iter().map(|p| rec.inject_user(p)).collect()
    };

    let mut cells: Vec<Cell> = Vec::new();

    // mf: BPR embeddings, the platform family Table 2 attacks.
    let mf_model = copyattack::mf::train(
        &clean,
        &copyattack::mf::BprConfig { max_epochs: 8, seed: seed ^ 21, ..Default::default() },
    );
    let mut mf = MfRecommender::deploy(mf_model, clean.clone());
    let pretend = establish(&mut mf);
    run_platform("mf", &mf, &pretend, &pipe, &attacks, &targets, &def, &mut cells);

    // popularity: the non-personalized floor — promotion must fight raw counts.
    let mut pop = PopularityRecommender::deploy(clean.clone());
    let pretend = establish(&mut pop);
    run_platform("popularity", &pop, &pretend, &pipe, &attacks, &targets, &def, &mut cells);

    if smoke == 0 {
        // ncf: transductive NeuMF with periodic fine-tune refreshes.
        let (ncf_model, _) = copyattack::ncf::train(
            &clean,
            &pipe.split.validation,
            &copyattack::ncf::NcfConfig { max_epochs: 4, seed: seed ^ 22, ..Default::default() },
        );
        // Refresh every 8 injections so the fine-tune cycle engages within
        // one attack budget (the attacker's leverage on a transductive model).
        let mut ncf = NcfRecommender::deploy(ncf_model, clean.clone(), 8, 1);
        let pretend = establish(&mut ncf);
        run_platform("ncf", &ncf, &pretend, &pipe, &attacks, &targets, &def, &mut cells);

        // gnn: the pipeline's own PinSage deployment (pretend users already in).
        let gnn = pipe.recommender.clone();
        run_platform("gnn", &gnn, &pipe.pretend, &pipe, &attacks, &targets, &def, &mut cells);

        // knn: dense item co-occurrence.
        let mut knn = ItemKnnRecommender::deploy(clean.clone());
        let pretend = establish(&mut knn);
        run_platform("knn", &knn, &pretend, &pipe, &attacks, &targets, &def, &mut cells);
    }

    let header = [
        "attack",
        "platform",
        "defense",
        "HR@20 clean",
        "HR@20 attacked",
        "uplift",
        "queries",
        "injected",
        "accepted",
        "det precision",
        "det recall",
    ];
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.attack.clone(),
                c.platform.to_string(),
                if c.defended { "on" } else { "off" }.to_string(),
                f4(c.hr20_clean),
                f4(c.hr20_attacked),
                f4(c.uplift()),
                c.queries.to_string(),
                c.attempted.to_string(),
                c.accepted.to_string(),
                f4(c.precision),
                f4(c.recall),
            ]
        })
        .collect();
    print_table(&format!("Attack arena on {preset_name}"), &header, &rows);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"preset\": \"{}\",", json_escape(&preset_name));
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"items_per_cell\": {},", targets.len());
    let _ = writeln!(json, "  \"screen_threshold\": {},", def.threshold);
    let _ = writeln!(json, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"attack\": \"{}\", \"platform\": \"{}\", \"defense\": {}, \
             \"hr20_clean\": {}, \"hr20_attacked\": {}, \"hr20_uplift\": {}, \
             \"queries\": {}, \"injected\": {}, \"accepted\": {}, \
             \"detector_precision\": {}, \"detector_recall\": {}}}{}",
            json_escape(&c.attack),
            c.platform,
            c.defended,
            c.hr20_clean,
            c.hr20_attacked,
            c.uplift(),
            c.queries,
            c.attempted,
            c.accepted,
            c.precision,
            c.recall,
            comma,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    let path = results_dir().join("BENCH_arena.json");
    std::fs::write(&path, json).expect("write BENCH_arena.json");
    eprintln!("wrote {}", path.display());
}
