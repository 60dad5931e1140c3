//! End-to-end check of the vulnerability CopyAttack exploits: injecting
//! users whose profiles pair a cold target item with mainstream items must
//! raise the target item's rank for ordinary users, via inductive fold-in
//! alone (no retraining).

use ca_datagen::{generate, CrossDomainConfig};
use ca_gnn::{train, GnnConfig};
use ca_recsys::eval::RankingEval;
use ca_recsys::{split_dataset, BlackBoxRecommender, ItemId, UserId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

#[test]
fn injection_promotes_cold_target_item() {
    let world = generate(&CrossDomainConfig::tiny(11));
    let mut rng = StdRng::seed_from_u64(0);
    let split = split_dataset(&world.target, 0.1, &mut rng);

    let cfg = GnnConfig { max_epochs: 20, seed: 1, ..Default::default() };
    let (mut rec, report) = train(&split.train, &split.validation, &cfg);
    assert!(report.best_val_hr10 > 0.15, "target model too weak: {report:?}");

    // Pick a cold item that exists in the source domain.
    let mut cold_rng = StdRng::seed_from_u64(5);
    let targets = world.sample_attackable_cold_items(5, 10, 2, &mut cold_rng);
    assert!(!targets.is_empty());
    let target = targets[0];

    // Evaluation users: 40 real target-domain users.
    let mut users: Vec<UserId> = world.target.users().collect();
    users.shuffle(&mut cold_rng);
    users.truncate(40);

    let ev = RankingEval::standard(&split.train);
    let mut eval_rng = StdRng::seed_from_u64(9);
    let before = ev.evaluate_promotion(&rec, &users, target, &mut eval_rng);

    // Inject 30 source users who interacted with the target item (this is
    // the TargetAttack baseline's selection rule).
    let src = world.source_item(target).expect("cold item overlaps");
    let mut candidates: Vec<UserId> =
        world.source.users().filter(|&u| world.source.contains(u, src)).collect();
    candidates.shuffle(&mut cold_rng);
    let mut injected = 0;
    for &u in candidates.iter() {
        if injected >= 30 {
            break;
        }
        let profile = world.translate_profile(world.source.profile(u));
        rec.inject_user(&profile);
        injected += 1;
    }
    assert!(injected >= 3, "need at least a few copyable profiles, got {injected}");

    let mut eval_rng2 = StdRng::seed_from_u64(9);
    let after = ev.evaluate_promotion(&rec, &users, target, &mut eval_rng2);

    assert!(
        after.hr(20) > before.hr(20),
        "promotion failed: HR@20 {} -> {} ({} injected)",
        before.hr(20),
        after.hr(20),
        injected
    );
}

#[test]
fn random_injection_barely_moves_the_target() {
    // Control: injecting random source users (who mostly do NOT contain the
    // target item) must not promote it — this is the RandomAttack row of
    // Table 2 staying at the no-attack level.
    let world = generate(&CrossDomainConfig::tiny(11));
    let mut rng = StdRng::seed_from_u64(0);
    let split = split_dataset(&world.target, 0.1, &mut rng);
    let cfg = GnnConfig { max_epochs: 20, seed: 1, ..Default::default() };
    let (mut rec, _) = train(&split.train, &split.validation, &cfg);

    let mut cold_rng = StdRng::seed_from_u64(5);
    let targets = world.sample_attackable_cold_items(5, 10, 2, &mut cold_rng);
    let target = targets[0];

    let mut users: Vec<UserId> = world.target.users().collect();
    users.shuffle(&mut cold_rng);
    users.truncate(40);

    let ev = RankingEval::standard(&split.train);
    let mut eval_rng = StdRng::seed_from_u64(9);
    let before = ev.evaluate_promotion(&rec, &users, target, &mut eval_rng);

    let mut all_source: Vec<UserId> = world.source.users().collect();
    all_source.shuffle(&mut cold_rng);
    let src = world.source_item(target).expect("overlap");
    let mut injected = 0;
    for &u in &all_source {
        if injected >= 30 {
            break;
        }
        if world.source.contains(u, src) {
            continue; // random-but-not-containing control
        }
        let profile = world.translate_profile(world.source.profile(u));
        rec.inject_user(&profile);
        injected += 1;
    }

    let mut eval_rng2 = StdRng::seed_from_u64(9);
    let after = ev.evaluate_promotion(&rec, &users, target, &mut eval_rng2);
    // Not containing the target item, these users cannot touch its
    // aggregate; scores of *other* items may shift slightly, so allow a
    // small tolerance.
    assert!(
        (after.hr(20) - before.hr(20)).abs() < 0.15,
        "control moved too much: {} -> {}",
        before.hr(20),
        after.hr(20)
    );
}

#[test]
fn foldin_is_cheap_relative_to_redeploy() {
    // The platform folds injected users in incrementally; a full cache
    // recompute would defeat the query loop. This guards the complexity
    // class (smoke-level: 100 injections must run quickly even in debug).
    let world = generate(&CrossDomainConfig::tiny(13));
    let mut rng = StdRng::seed_from_u64(0);
    let split = split_dataset(&world.target, 0.1, &mut rng);
    let cfg = GnnConfig { max_epochs: 2, seed: 1, ..Default::default() };
    let (mut rec, _) = train(&split.train, &split.validation, &cfg);
    let profile: Vec<ItemId> = world.target.profile(UserId(0)).to_vec();
    #[expect(
        clippy::disallowed_methods,
        reason = "this perf smoke test asserts on elapsed time by design"
    )]
    let t0 = std::time::Instant::now();
    for _ in 0..100 {
        rec.inject_user(&profile);
    }
    assert!(t0.elapsed().as_secs_f64() < 5.0, "fold-in too slow: {:?}", t0.elapsed());
}
