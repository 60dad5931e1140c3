//! CopyAttack against the *transductive* NCF target: the attack is defined
//! purely over the `BlackBoxRecommender` trait, so the same agent that
//! attacks the inductive GNN attacks a fine-tune-cycle platform unchanged.

use copyattack::core::env::plan_pretend_profiles;
use copyattack::core::{AttackConfig, AttackEnvironment, AttackRegistry};
use copyattack::datagen::{generate, CrossDomainConfig};
use copyattack::mf::BprConfig;
use copyattack::ncf::{train, NcfConfig, NcfRecommender};
use copyattack::recsys::eval::RankingEval;
use copyattack::recsys::{split_dataset, BlackBoxRecommender, UserId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

struct NcfWorld {
    world: copyattack::datagen::CrossDomainDataset,
    train_ds: copyattack::recsys::Dataset,
    recommender: NcfRecommender,
    pretend: Vec<UserId>,
    eval_users: Vec<UserId>,
    source_mf: copyattack::mf::MfModel,
}

fn build() -> NcfWorld {
    let world = generate(&CrossDomainConfig::tiny(77));
    let mut rng = StdRng::seed_from_u64(0);
    let split = split_dataset(&world.target, 0.1, &mut rng);
    let cfg = NcfConfig { max_epochs: 15, seed: 1, ..Default::default() };
    let (model, report) = train(&split.train, &split.validation, &cfg);
    assert!(report.best_val_hr10 > 0.15, "NCF target too weak: {report:?}");
    // Refresh after every 3 new accounts ("nightly retrain" compressed).
    let mut recommender = NcfRecommender::deploy(model, split.train.clone(), 3, 2);

    let mut prng = StdRng::seed_from_u64(9);
    let pretend: Vec<UserId> = plan_pretend_profiles(&split.train, 10, 8, &mut prng)
        .iter()
        .map(|p| recommender.inject_user(p))
        .collect();
    let mut eval_users: Vec<UserId> = (0..world.target.n_users() as u32).map(UserId).collect();
    eval_users.shuffle(&mut prng);
    eval_users.truncate(50);
    let source_mf = copyattack::mf::train(
        &world.source,
        &BprConfig { max_epochs: 10, seed: 2, ..Default::default() },
    );
    NcfWorld { world, train_ds: split.train, recommender, pretend, eval_users, source_mf }
}

fn promotion_hr(w: &NcfWorld, rec: &NcfRecommender, target: copyattack::recsys::ItemId) -> f32 {
    let ev = RankingEval::standard(&w.train_ds);
    let mut rng = StdRng::seed_from_u64(5);
    ev.evaluate_promotion(rec, &w.eval_users, target, &mut rng).hr(20)
}

#[test]
fn target_attack_promotes_through_the_refresh_cycle() {
    let w = build();
    let mut rng = StdRng::seed_from_u64(3);
    let targets = w.world.sample_attackable_cold_items(3, 10, 2, &mut rng);
    let target = targets[0];
    let target_src = w.world.source_item(target).expect("overlap");
    let src = copyattack::core::SourceDomain {
        data: &w.world.source,
        mf: &w.source_mf,
        to_target: &w.world.source_to_target,
    };

    let before = promotion_hr(&w, &w.recommender, target);
    let cfg = AttackConfig { budget: 30, reward_k: 20, ..Default::default() };
    let registry = AttackRegistry::<NcfRecommender>::with_builtins();
    let mut attack = registry.build("TargetAttack70", &cfg, &src, target_src).unwrap();
    let mut env = AttackEnvironment::new(
        w.recommender.clone(),
        w.pretend.clone(),
        target,
        cfg.reward_k,
        cfg.budget,
    );
    let mut arng = StdRng::seed_from_u64(4);
    attack.run(&mut env, &src, target_src, &mut arng);
    let polluted = env.into_recommender();
    let after = promotion_hr(&w, &polluted, target);

    assert!(after > before, "NCF refresh-cycle promotion failed: {before} -> {after}");
}

#[test]
fn copyattack_agent_runs_unchanged_against_ncf() {
    let w = build();
    let mut rng = StdRng::seed_from_u64(6);
    let targets = w.world.sample_attackable_cold_items(3, 10, 2, &mut rng);
    let target = targets[0];
    let target_src = w.world.source_item(target).expect("overlap");
    let src = copyattack::core::SourceDomain {
        data: &w.world.source,
        mf: &w.source_mf,
        to_target: &w.world.source_to_target,
    };

    let cfg = AttackConfig {
        episodes: 8,
        tree_depth: 2,
        n_pretend: w.pretend.len(),
        ..Default::default()
    };
    let registry = AttackRegistry::<NcfRecommender>::with_builtins();
    let mut attack = registry.build("CopyAttack", &cfg, &src, target_src).unwrap();
    let mut make_env = || {
        AttackEnvironment::new(
            w.recommender.clone(),
            w.pretend.clone(),
            target,
            cfg.reward_k,
            cfg.budget,
        )
    };
    attack.prepare(&src, &mut make_env);
    let mut env = make_env();
    // A learned attack draws from its own stream, never this one.
    let mut unused = StdRng::seed_from_u64(0);
    let outcome = attack.run(&mut env, &src, target_src, &mut unused);
    assert!(outcome.injections > 0);

    let before = promotion_hr(&w, &w.recommender, target);
    let after = promotion_hr(&w, &env.into_recommender(), target);
    assert!(after > before, "CopyAttack vs NCF did not promote: {before} -> {after}");
}
