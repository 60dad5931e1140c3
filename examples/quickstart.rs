//! Quickstart: build a miniature cross-domain world, train the black-box
//! target recommender, and promote a cold item with CopyAttack.
//!
//! Run with: `cargo run --release --example quickstart`

use copyattack::pipeline::{Pipeline, PipelineConfig};

fn main() {
    println!("== CopyAttack quickstart ==");
    println!("building tiny cross-domain world + target model ...");
    let cfg = PipelineConfig::tiny(42);
    let pipe = Pipeline::build(&cfg);

    let stats = pipe.world.stats();
    println!(
        "target domain: {} users / {} items / {} interactions",
        stats.target_users, stats.target_items, stats.target_interactions
    );
    println!(
        "source domain: {} users / {} overlapping items / {} interactions",
        stats.source_users, stats.overlap_items, stats.source_interactions
    );
    println!(
        "target model trained: validation HR@10 = {:.3} ({} epochs)",
        pipe.train_report.best_val_hr10, pipe.train_report.epochs_run
    );
    println!(
        "attacking {} cold target items, budget Δ = {} copied profiles",
        3, cfg.attack.config.budget
    );

    let before = pipe.run_without_attack(3);
    println!(
        "before attack:  HR@20 = {:.4}  NDCG@20 = {:.4}",
        before.metrics.hr(20),
        before.metrics.ndcg(20)
    );

    let after = pipe.run_attack_over_targets("CopyAttack", 3);
    println!(
        "after attack:   HR@20 = {:.4}  NDCG@20 = {:.4}  (avg {:.1} items per copied profile)",
        after.metrics.hr(20),
        after.metrics.ndcg(20),
        after.avg_items_per_profile
    );
    let (hr_before, hr_after) = (before.metrics.hr(20), after.metrics.hr(20));
    println!(
        "promotion:      HR@20 {hr_before:.4} -> {hr_after:.4} ({:+.4})",
        hr_after - hr_before
    );
}
