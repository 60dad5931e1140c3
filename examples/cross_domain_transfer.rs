//! Transferability: do profiles selected against one black box also
//! promote on a different recommender?
//!
//! CopyAttack only sees Top-k feedback, so the profiles it learns to copy
//! are not tied to the target model's internals. This example trains the
//! attack against the PinSage-like GNN, then replays the *same* copied
//! profiles against a completely different model family — an ItemKNN
//! co-occurrence recommender deployed on the same data — and measures the
//! promotion on both.
//!
//! Run with: `cargo run --release --example cross_domain_transfer`

use copyattack::par::split_seed;
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::knn::ItemKnnRecommender;
use copyattack::recsys::BlackBoxRecommender;

fn main() {
    println!("== cross-model transferability of copied profiles ==");
    let cfg = PipelineConfig::tiny(21);
    let pipe = Pipeline::build(&cfg);
    let target = pipe.target_items[0];

    // Train CopyAttack against the GNN black box.
    let (polluted_gnn, outcome) = pipe
        .attack_with("CopyAttack", target, &cfg.attack.config, &pipe.recommender, &pipe.pretend)
        .expect("target items are attackable");

    // Reconstruct the injected profiles (the newest accounts).
    let n_total = polluted_gnn.data().n_users();
    let injected: Vec<Vec<_>> = (n_total - outcome.injections..n_total)
        .map(|u| polluted_gnn.data().profile(copyattack::recsys::UserId(u as u32)).to_vec())
        .collect();

    // GNN promotion.
    let eval_seed = split_seed(cfg.seed, 3);
    let hr_gnn_before = pipe.evaluate_promotion(&pipe.recommender, target, eval_seed).hr(20);
    let hr_gnn_after = pipe.evaluate_promotion(&polluted_gnn, target, eval_seed).hr(20);

    // Replay against ItemKNN deployed on the same clean data.
    let mut knn = ItemKnnRecommender::deploy(pipe.split.train.clone());
    let hr_knn_before = pipe.evaluate_promotion(&knn, target, split_seed(cfg.seed, 1)).hr(20);
    for p in &injected {
        knn.inject_user(p);
    }
    let hr_knn_after = pipe.evaluate_promotion(&knn, target, split_seed(cfg.seed, 2)).hr(20);

    println!("{} copied profiles, trained against the GNN only", injected.len());
    println!("GNN target model:     HR@20 {hr_gnn_before:.4} -> {hr_gnn_after:.4}");
    println!("ItemKNN (never seen): HR@20 {hr_knn_before:.4} -> {hr_knn_after:.4}");
    if hr_knn_after > hr_knn_before {
        println!("=> the copied profiles transfer across model families.");
    } else {
        println!("=> no transfer on this tiny world; try a larger preset.");
    }
}
