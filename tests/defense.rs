//! Defense-in-the-loop: the full attack against a platform that screens
//! new accounts with the shilling detector — the setting the paper's
//! motivation argues CopyAttack was built for.

use copyattack::detect::features::PopularityIndex;
use copyattack::detect::{
    extract_features, naive_fake_profiles, ScreenedRecommender, ZScoreDetector,
};
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::{BlackBoxRecommender, UserId};
use copyattack::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fit_defense(pipe: &Pipeline) -> (ZScoreDetector, PopularityIndex, Matrix) {
    let clean = &pipe.split.train;
    let pop = PopularityIndex::build(clean);
    let item_emb = copyattack::mf::train(
        clean,
        &copyattack::mf::BprConfig { max_epochs: 10, seed: 5, ..Default::default() },
    )
    .item_emb;
    let feats: Vec<_> = (0..clean.n_users() as u32)
        .map(|u| extract_features(clean.profile(UserId(u)), &pop, &item_emb))
        .collect();
    (ZScoreDetector::fit(&feats), pop, item_emb)
}

/// 99th-percentile threshold on genuine scores: the platform tolerates 1%
/// false positives.
fn threshold(pipe: &Pipeline, det: &ZScoreDetector, pop: &PopularityIndex, emb: &Matrix) -> f32 {
    let clean = &pipe.split.train;
    let scores: Vec<f32> = (0..clean.n_users() as u32)
        .map(|u| det.score(&extract_features(clean.profile(UserId(u)), pop, emb)))
        .collect();
    copyattack::tensor::stats::percentile(&scores, 99.0)
}

#[test]
fn screen_blocks_most_generated_fakes() {
    let cfg = PipelineConfig::tiny(42);
    let pipe = Pipeline::build(&cfg);
    let (det, pop, emb) = fit_defense(&pipe);
    let thr = threshold(&pipe, &det, &pop, &emb);
    let mut screened = ScreenedRecommender::new(pipe.recommender.clone(), det, pop, emb, thr);

    let target = pipe.target_items[0];
    let mut rng = StdRng::seed_from_u64(1);
    // Blatant classical fakes: 31-item profiles in a 3–20-item population.
    let fakes = naive_fake_profiles(&pipe.split.train, target, 30, 30, &mut rng);
    for p in &fakes {
        screened.inject_user(p);
    }
    assert!(
        screened.rejected() > screened.accepted(),
        "screen let through {} of {} generated fakes",
        screened.accepted(),
        fakes.len()
    );
}

#[test]
fn copyattack_survives_the_screen_better_than_generated_fakes() {
    let cfg = PipelineConfig::tiny(42);
    let pipe = Pipeline::build(&cfg);
    let src = pipe.source_domain();
    let target = pipe.target_items[0];
    let (det, pop, emb) = fit_defense(&pipe);
    let thr = threshold(&pipe, &det, &pop, &emb);

    // Run the attack against the *screened* platform. The agent is unaware
    // of the defense; rejected injections simply waste budget.
    let base = ScreenedRecommender::new(pipe.recommender.clone(), det, pop, emb, thr);
    let (screened, outcome) =
        pipe.attack_with("CopyAttack", target, &cfg.attack.config, &base, &pipe.pretend).unwrap();

    // Anomaly-score comparison (robust to the threshold choice): the
    // profiles CopyAttack injects look less anomalous on average than
    // classical generated fakes on this matched-statistics world.
    let copied_mean: f32 = {
        let mut acc = 0.0;
        let mut n = 0;
        for &u in &outcome.selected_users {
            let raw = src.data.profile(u);
            let translated = src.translate(raw);
            acc += screened.score_profile(&translated);
            n += 1;
        }
        acc / n.max(1) as f32
    };
    let mut rng = StdRng::seed_from_u64(2);
    let fakes =
        naive_fake_profiles(&pipe.split.train, target, cfg.attack.config.budget, 30, &mut rng);
    let fake_mean: f32 =
        fakes.iter().map(|p| screened.score_profile(p)).sum::<f32>() / fakes.len() as f32;
    assert!(
        copied_mean < fake_mean,
        "copied profiles look more anomalous: {copied_mean} vs generated {fake_mean}"
    );

    // And the surviving copied profiles still promote the item.
    let after = pipe.evaluate_promotion(&screened.into_inner(), target, 11).hr(20);
    let before = pipe.evaluate_promotion(&pipe.recommender, target, 11).hr(20);
    assert!(after > before, "attack through the screen failed: HR@20 {before} -> {after}");
}
