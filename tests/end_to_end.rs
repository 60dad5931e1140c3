//! End-to-end integration tests spanning every crate: world generation →
//! target-model training → attack → evaluation.

use copyattack::core::AttackConfig;
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::Scorer;
use copyattack::train::History;

fn pipeline() -> Pipeline {
    Pipeline::build(&PipelineConfig::tiny(42))
}

#[test]
fn copyattack_promotes_cold_items_end_to_end() {
    let pipe = pipeline();
    let none = pipe.run_without_attack(3);
    let full = pipe.run_attack_over_targets("CopyAttack", 3);
    assert!(
        full.metrics.hr(20) > none.metrics.hr(20) + 0.1,
        "CopyAttack {} vs no attack {}",
        full.metrics.hr(20),
        none.metrics.hr(20)
    );
    // NDCG must move with HR.
    assert!(full.metrics.ndcg(20) > none.metrics.ndcg(20));
}

#[test]
fn random_attack_changes_little() {
    let pipe = pipeline();
    let none = pipe.run_without_attack(3);
    let rand = pipe.run_attack_over_targets("RandomAttack", 3);
    assert!(
        (rand.metrics.hr(20) - none.metrics.hr(20)).abs() < 0.15,
        "RandomAttack moved HR@20 from {} to {}",
        none.metrics.hr(20),
        rand.metrics.hr(20)
    );
}

#[test]
fn masking_ablation_hurts() {
    let pipe = pipeline();
    let full = pipe.run_attack_over_targets("CopyAttack", 3);
    let nomask = pipe.run_attack_over_targets("CopyAttack-Masking", 3);
    assert!(
        full.metrics.hr(20) > nomask.metrics.hr(20),
        "full {} !> no-masking {}",
        full.metrics.hr(20),
        nomask.metrics.hr(20)
    );
}

#[test]
fn crafting_reduces_item_budget() {
    let pipe = pipeline();
    let full = pipe.run_attack_over_targets("CopyAttack", 3);
    let nolen = pipe.run_attack_over_targets("CopyAttack-Length", 3);
    assert!(
        full.avg_items_per_profile < nolen.avg_items_per_profile,
        "crafted {} !< raw {}",
        full.avg_items_per_profile,
        nolen.avg_items_per_profile
    );
}

#[test]
fn table2_rows_all_run() {
    let pipe = pipeline();
    let table2 = [
        "RandomAttack",
        "TargetAttack40",
        "TargetAttack70",
        "TargetAttack100",
        "PolicyNetwork",
        "CopyAttack-Masking",
        "CopyAttack-Length",
        "CopyAttack",
    ];
    let rows = std::iter::once(pipe.run_without_attack(1))
        .chain(table2.iter().map(|name| pipe.run_attack_over_targets(name, 1)));
    for row in rows {
        assert!(row.metrics.count() > 0, "{} produced no evaluations", row.name);
        assert!(row.metrics.hr(20) >= row.metrics.hr(10));
        assert!(row.metrics.hr(10) >= row.metrics.hr(5));
        assert!(row.metrics.ndcg(20) <= row.metrics.hr(20) + 1e-6);
    }
}

#[test]
fn experiments_are_deterministic() {
    let a = pipeline().run_attack_over_targets("TargetAttack70", 2);
    let b = pipeline().run_attack_over_targets("TargetAttack70", 2);
    assert_eq!(a.metrics.hr(20), b.metrics.hr(20));
    assert_eq!(a.metrics.ndcg(5), b.metrics.ndcg(5));
    assert_eq!(a.avg_items_per_profile, b.avg_items_per_profile);
}

#[test]
fn injected_profiles_only_contain_overlap_items() {
    // The copied profiles must consist of items that exist in both domains
    // (the attacker can only copy what the source domain has).
    let pipe = pipeline();
    let target = pipe.target_items[0];
    let cfg = AttackConfig { seed: 7, ..pipe.config.attack.config.clone() };
    let (polluted, outcome) = pipe
        .attack_with("CopyAttack", target, &cfg, &pipe.recommender, &pipe.pretend)
        .expect("CopyAttack builds for a sampled target");
    let n_real = pipe.recommender.data().n_users();
    for u in n_real..polluted.data().n_users() {
        for &v in polluted.data().profile(copyattack::recsys::UserId(u as u32)) {
            assert!(
                pipe.world.target_to_source[v.idx()].is_some(),
                "injected profile contains non-overlap item {v}"
            );
        }
    }
    assert_eq!(outcome.injections, polluted.data().n_users() - n_real);
}

#[test]
fn budget_is_respected_across_methods() {
    let pipe = pipeline();
    let target = pipe.target_items[0];
    let cfg = &pipe.config.attack.config;
    for name in ["RandomAttack", "TargetAttack70", "CopyAttack"] {
        let (_, outcome) = pipe
            .attack_with(name, target, cfg, &pipe.recommender, &pipe.pretend)
            .expect("registered attack builds");
        assert!(outcome.injections <= cfg.budget, "{name} exceeded budget: {}", outcome.injections);
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every `EpochStats` field except the wall-clock `seconds`, as bits.
fn curve(h: &History) -> Vec<(usize, usize, u32, u32, Option<u32>)> {
    h.epochs
        .iter()
        .map(|e| {
            (e.epoch, e.pairs, e.loss.to_bits(), e.lr.to_bits(), e.val_score.map(f32::to_bits))
        })
        .collect()
}

/// `Pipeline::build` trains its source-MF chain beside its target chain at
/// two or more threads; every built part must be bit-identical to the
/// serial build.
#[test]
fn build_is_bitwise_the_same_at_one_and_two_threads() {
    let build_at = |t: usize| {
        copyattack::par::set_threads(Some(t));
        let pipe = Pipeline::build(&PipelineConfig::tiny(7));
        copyattack::par::set_threads(None);
        pipe
    };
    let (serial, paired) = (build_at(1), build_at(2));

    let (a, b) = (&serial.source_mf, &paired.source_mf);
    assert!(bits(a.user_emb.as_slice()) == bits(b.user_emb.as_slice()), "source MF user_emb");
    assert!(bits(a.item_emb.as_slice()) == bits(b.item_emb.as_slice()), "source MF item_emb");
    assert!(bits(&a.item_bias) == bits(&b.item_bias), "source MF item_bias");

    assert_eq!(serial.eval_users, paired.eval_users);
    assert_eq!(serial.target_items, paired.target_items);
    assert_eq!(serial.pretend, paired.pretend);
    let scores = |p: &Pipeline| -> Vec<u32> {
        let cells = p.eval_users.iter().flat_map(|&u| p.target_items.iter().map(move |&v| (u, v)));
        cells.map(|(u, v)| p.recommender.score(u, v).to_bits()).collect()
    };
    assert!(scores(&serial) == scores(&paired), "deployed scores over eval users × targets");

    let (r, q) = (&serial.train_report, &paired.train_report);
    assert_eq!(r.epochs_run, q.epochs_run);
    assert_eq!(bits(&r.val_hr10_history), bits(&q.val_hr10_history));
    assert_eq!(r.best_val_hr10.to_bits(), q.best_val_hr10.to_bits());

    let (s, p) = (&serial.telemetry, &paired.telemetry);
    for (name, x, y) in [
        ("source-mf", &s.source_mf, &p.source_mf),
        ("target-mf", &s.target_mf, &p.target_mf),
        ("gnn", &s.gnn, &p.gnn),
    ] {
        assert!(!x.epochs.is_empty(), "{name} recorded no epochs");
        assert_eq!(curve(x), curve(y), "{name} telemetry");
        assert_eq!(x.stop, y.stop, "{name} stop reason");
    }
}
