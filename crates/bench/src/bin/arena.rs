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
use copyattack::detect::ScreenedRecommender;
use copyattack::mf::MfRecommender;
use copyattack::ncf::NcfRecommender;
use copyattack::pipeline::{Pipeline, PipelineConfig, TargetRun};
use copyattack::recsys::knn::ItemKnnRecommender;
use copyattack::recsys::{BlackBoxRecommender, ItemId, PopularityRecommender, Scorer, UserId};
use copyattack_bench::{f4, json_str, preset, print_table, write_json, Args, GenuineScreen};

/// The fitted screen shared by every cell, with its 99th-percentile
/// threshold on genuine scores.
struct Defense {
    screen: GenuineScreen,
    threshold: f32,
}

impl Defense {
    fn fit(pipe: &Pipeline, seed: u64) -> Self {
        let screen = GenuineScreen::fit(pipe, seed);
        let threshold = copyattack::tensor::stats::percentile(&screen.genuine_scores, 99.0);
        Self { screen, threshold }
    }

    /// Wraps a platform in the screen; `defended = false` screens at `+∞`
    /// (a pass-through recorder).
    fn wrap<R: BlackBoxRecommender>(&self, base: R, defended: bool) -> ScreenedRecommender<R> {
        let thr = if defended { self.threshold } else { f32::INFINITY };
        ScreenedRecommender::new(
            base,
            self.screen.detector.clone(),
            self.screen.pop.clone(),
            self.screen.item_emb.clone(),
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
        let fp = self.screen.genuine_scores.iter().filter(|&&s| s > self.threshold).count() as f32;
        let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
        (precision, tp / fake_scores.len() as f32)
    }
}

/// One matrix cell: the per-target runs of one (attack, platform,
/// defense) triple, folded when the cell is written, plus what only the
/// screen sees.
struct Cell {
    attack: String,
    platform: &'static str,
    defended: bool,
    /// Each attacked target's run, in target order.
    runs: Vec<TargetRun>,
    /// HR@20 of the same targets on the clean platform.
    clean_hr20: Vec<f32>,
    /// Detector scores of every injected profile, pooled over targets.
    screened_scores: Vec<f32>,
    /// Profiles the screen let through.
    accepted: usize,
}

impl Cell {
    /// Mean over the cell's targets, summed in target order.
    fn mean(&self, xs: impl Iterator<Item = f32>) -> f32 {
        xs.fold(0.0, |sum, x| sum + x) / self.runs.len() as f32
    }

    fn hr20_clean(&self) -> f32 {
        self.mean(self.clean_hr20.iter().copied())
    }

    fn hr20_attacked(&self) -> f32 {
        self.mean(self.runs.iter().map(|r| r.metrics.hr(20)))
    }

    fn uplift(&self) -> f32 {
        self.hr20_attacked() - self.hr20_clean()
    }

    fn queries(&self) -> u64 {
        self.runs.iter().filter_map(|r| r.outcome.as_ref()).map(|o| o.queries).sum()
    }

    /// The cell's values in [`COLUMNS`] order, each as its table text and
    /// its JSON text.
    fn values(&self, def: &Defense) -> [(String, String); 11] {
        let (precision, recall) = def.precision_recall(&self.screened_scores);
        let real = |x: f32| (f4(x), x.to_string());
        let count = |n: u64| (n.to_string(), n.to_string());
        [
            (self.attack.clone(), json_str(&self.attack)),
            (self.platform.to_string(), json_str(self.platform)),
            (if self.defended { "on" } else { "off" }.to_string(), self.defended.to_string()),
            real(self.hr20_clean()),
            real(self.hr20_attacked()),
            real(self.uplift()),
            count(self.queries()),
            count(self.screened_scores.len() as u64),
            count(self.accepted as u64),
            real(precision),
            real(recall),
        ]
    }
}

/// The arena's columns, as table header and JSON key, in output order.
const COLUMNS: [(&str, &str); 11] = [
    ("attack", "attack"),
    ("platform", "platform"),
    ("defense", "defense"),
    ("HR@20 clean", "hr20_clean"),
    ("HR@20 attacked", "hr20_attacked"),
    ("uplift", "hr20_uplift"),
    ("queries", "queries"),
    ("injected", "injected"),
    ("accepted", "accepted"),
    ("det precision", "detector_precision"),
    ("det recall", "detector_recall"),
];

/// Runs every (attack, defense) pair on one platform deployment and pushes
/// the cells. `pretend` must already be established in `base`.
#[allow(clippy::too_many_arguments, reason = "one platform's slice of the arena matrix")]
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
    let base_cfg = &pipe.config.attack.config;
    let seed = |t: ItemId| base_cfg.seed ^ t.0 as u64;
    let clean_hr20: Vec<f32> =
        targets.iter().map(|&t| pipe.target_run(base, t, seed(t), None).metrics.hr(20)).collect();
    for defended in [false, true] {
        for name in attacks {
            let mut cell = Cell {
                attack: name.clone(),
                platform: label,
                defended,
                runs: Vec::new(),
                clean_hr20: Vec::new(),
                screened_scores: Vec::new(),
                accepted: 0,
            };
            for (i, &t) in targets.iter().enumerate() {
                let cfg = AttackConfig { seed: seed(t), ..base_cfg.clone() };
                let victim = def.wrap(base.clone(), defended);
                let (screened, outcome) = match pipe.attack_with(name, t, &cfg, &victim, pretend) {
                    Ok(attacked) => attacked,
                    Err(e) => {
                        eprintln!("skipping {name} on {label} vs {t}: {e}");
                        continue;
                    }
                };
                cell.screened_scores.extend_from_slice(screened.screened_scores());
                cell.accepted += screened.accepted();
                cell.clean_hr20.push(clean_hr20[i]);
                cell.runs.push(pipe.target_run(&screened.into_inner(), t, cfg.seed, Some(outcome)));
            }
            if cell.runs.is_empty() {
                continue;
            }
            eprintln!(
                "{label:>10} | {name:<18} | defense {} | uplift {:+.4}",
                if defended { "on " } else { "off" },
                cell.uplift()
            );
            out.push(cell);
        }
    }
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

    let values: Vec<_> = cells.iter().map(|c| c.values(&def)).collect();
    let rows: Vec<Vec<String>> =
        values.iter().map(|v| v.iter().map(|(text, _)| text.clone()).collect()).collect();
    let header = COLUMNS.map(|(header, _)| header);
    print_table(&format!("Attack arena on {preset_name}"), &header, &rows);

    let json_cells: Vec<Vec<(&str, String)>> = values
        .into_iter()
        .map(|v| COLUMNS.iter().zip(v).map(|(&(_, key), (_, json))| (key, json)).collect())
        .collect();
    let top = [
        ("preset", json_str(&preset_name)),
        ("seed", seed.to_string()),
        ("items_per_cell", targets.len().to_string()),
        ("screen_threshold", def.threshold.to_string()),
    ];
    write_json("BENCH_arena.json", &top, "cells", &json_cells);
}
