//! Extension experiment: detection evasion of copied vs generated profiles.
//!
//! Quantifies the paper's §1 motivation. For each of `--items` target
//! items, (a) generates classical fake promotion profiles and (b) runs
//! CopyAttack; both sets are scored by the `ca-detect` z-score detector
//! fitted on the genuine population. Reports detector AUC and precision.
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin detect_evasion -- --preset=small --items=5
//! ```

use copyattack::core::AttackConfig;
use copyattack::detect::{detection_auc, naive_fake_profiles};
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::UserId;
use copyattack_bench::{f4, preset, print_table, write_csv, Args, GenuineScreen};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let preset_name = args.get("preset", "small");
    let seed: u64 = args.get_parse("seed", 42);
    let cfg: PipelineConfig = preset(&preset_name, seed);
    let items: usize = args.get_parse("items", 5);

    eprintln!("building pipeline for preset {preset_name} ...");
    let pipe = Pipeline::build(&cfg);
    let clean = &pipe.split.train;
    let screen = GenuineScreen::fit(&pipe, seed);
    let genuine_scores = &screen.genuine_scores;

    let mut rows = Vec::new();
    let n_items = items.min(pipe.target_items.len());
    for &target in pipe.target_items.iter().take(n_items) {
        let mut rng = StdRng::seed_from_u64(seed ^ target.0 as u64);

        let naive = naive_fake_profiles(clean, target, cfg.attack.config.budget, 20, &mut rng);
        let naive_scores: Vec<f32> = naive.iter().map(|p| screen.score(p)).collect();

        let attack_cfg = AttackConfig { seed: seed ^ target.0 as u64, ..cfg.attack.config.clone() };
        let run_variant = |key: &str| {
            let (polluted, outcome) = pipe
                .attack_with(key, target, &attack_cfg, &pipe.recommender, &pipe.pretend)
                .expect("target items are attackable");
            let n_total = polluted.data().n_users();
            (n_total - outcome.injections..n_total)
                .map(|u| screen.score(polluted.data().profile(UserId(u as u32))))
                .collect::<Vec<f32>>()
        };
        let crafted_scores = run_variant("CopyAttack");
        let raw_scores = run_variant("CopyAttack-Length");

        let auc_naive = detection_auc(genuine_scores, &naive_scores);
        let auc_crafted = detection_auc(genuine_scores, &crafted_scores);
        let auc_raw = detection_auc(genuine_scores, &raw_scores);
        eprintln!(
            "{target}: AUC generated {auc_naive:.3} vs copied+crafted {auc_crafted:.3} vs copied raw {auc_raw:.3}"
        );
        rows.push(vec![target.to_string(), f4(auc_naive), f4(auc_crafted), f4(auc_raw)]);
    }

    let header = ["target item", "AUC generated fakes", "AUC copied+crafted", "AUC copied raw"];
    print_table(
        &format!("Detection evasion on {preset_name} (0.5 = undetectable)"),
        &header,
        &rows,
    );
    write_csv(&format!("detect_evasion_{preset_name}.csv"), &header, &rows);
}
