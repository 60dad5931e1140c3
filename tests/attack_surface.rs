//! Tests of the black-box boundary: the attacker's observable costs
//! (queries, injections) and the trait-level containment of its access.

use copyattack::core::{AttackEnvironment, Campaign, CampaignRun, CopyAttackVariant};
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::{BlackBoxRecommender, ItemId, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn query_count_follows_the_cadence() {
    let cfg = PipelineConfig::tiny(42);
    let pipe = Pipeline::build(&cfg);
    let src = pipe.source_domain();
    let target = pipe.target_items[0];
    let target_src = pipe.world.source_item(target).unwrap();

    let mut attack =
        pipe.registry().build("CopyAttack", &cfg.attack.config, &src, target_src).unwrap();
    let mut env = pipe.make_env(target);
    // A learned attack draws from its own stream, never this one.
    let mut unused = StdRng::seed_from_u64(0);
    let outcome = attack.run(&mut env, &src, target_src, &mut unused);

    // One reward query (over n_pretend users) per `query_every` injections,
    // plus the forced terminal query; each reward query costs n_pretend
    // Top-k requests.
    let budget = cfg.attack.config.budget;
    let q = cfg.attack.config.query_every;
    let reward_rounds_upper = budget.div_ceil(q) + 1;
    assert!(outcome.queries as usize <= reward_rounds_upper * cfg.attack.config.n_pretend);
    assert!(outcome.queries as usize >= cfg.attack.config.n_pretend, "at least one reward round");
    assert!(outcome.injections <= budget);
}

/// A recommender wrapper that panics if the attacker somehow asks for
/// recommendations of accounts it does not own — demonstrating that the
/// attack stays within the pretend-user surface.
struct PretendOnly<R> {
    inner: R,
    allowed_from: u32,
}

impl<R: BlackBoxRecommender> BlackBoxRecommender for PretendOnly<R> {
    fn top_k(&self, user: UserId, k: usize) -> Vec<ItemId> {
        assert!(user.0 >= self.allowed_from, "attack queried a non-attacker account {user}");
        self.inner.top_k(user, k)
    }
    fn inject_user(&mut self, profile: &[ItemId]) -> UserId {
        self.inner.inject_user(profile)
    }
    fn catalog_size(&self) -> usize {
        self.inner.catalog_size()
    }
}

#[test]
fn attack_only_queries_attacker_controlled_accounts() {
    let cfg = PipelineConfig::tiny(42);
    let pipe = Pipeline::build(&cfg);
    let src = pipe.source_domain();
    let target = pipe.target_items[0];
    let target_src = pipe.world.source_item(target).unwrap();
    let n_real = pipe.world.target.n_users() as u32;

    let guarded = PretendOnly { inner: pipe.recommender.clone(), allowed_from: n_real };
    let mut env = AttackEnvironment::new(
        guarded,
        pipe.pretend.clone(),
        target,
        cfg.attack.config.reward_k,
        cfg.attack.config.budget,
    );
    let mut attack =
        pipe.registry().build("CopyAttack", &cfg.attack.config, &src, target_src).unwrap();
    // Must complete without tripping the guard.
    let mut unused = StdRng::seed_from_u64(0);
    let outcome = attack.run(&mut env, &src, target_src, &mut unused);
    assert!(outcome.injections > 0);
}

#[test]
fn learning_curve_is_recorded_per_episode() {
    let cfg = PipelineConfig::tiny(42);
    let pipe = Pipeline::build(&cfg);
    let src = pipe.source_domain();
    let target = pipe.target_items[0];
    let target_src = pipe.world.source_item(target).unwrap();
    let mut campaign =
        Campaign::new(cfg.attack.config.clone(), CopyAttackVariant::full(), &src, vec![target_src]);
    let CampaignRun::Completed { curve } =
        campaign.train_resilient(&src, |_| pipe.make_env(target))
    else {
        panic!("reliable platform cannot interrupt");
    };
    assert_eq!(curve.len(), cfg.attack.config.episodes);
    assert_eq!(campaign.curve(), &curve[..]);
    assert!(curve.iter().all(|r| (0.0..=1.0).contains(r)));
}

/// The two CopyAttack drivers — the registry lifecycle behind
/// `Pipeline::attack_with` and a one-target `Campaign` — seed, train and
/// execute the same policy, so their evaluation episodes agree bit for bit.
#[test]
fn one_target_campaign_matches_the_registry_lifecycle() {
    let cfg = PipelineConfig::tiny(42);
    let pipe = Pipeline::build(&cfg);
    let src = pipe.source_domain();
    let target = pipe.target_items[0];
    let target_src = pipe.world.source_item(target).unwrap();
    let attack_cfg = &cfg.attack.config;

    let (_, registry) = pipe
        .attack_with("CopyAttack", target, attack_cfg, &pipe.recommender, &pipe.pretend)
        .unwrap();

    let mut campaign =
        Campaign::new(attack_cfg.clone(), CopyAttackVariant::full(), &src, vec![target_src]);
    let CampaignRun::Completed { .. } = campaign.train_resilient(&src, |_| pipe.make_env(target))
    else {
        panic!("reliable platform cannot interrupt");
    };
    let trained = campaign.execute_on(&src, target_src, &mut pipe.make_env(target));

    assert_eq!(trained.selected_users, registry.selected_users);
    assert_eq!(trained.injections, registry.injections);
    assert_eq!(trained.queries, registry.queries);
    assert_eq!(trained.final_reward.to_bits(), registry.final_reward.to_bits());
    assert_eq!(trained.avg_items_per_profile.to_bits(), registry.avg_items_per_profile.to_bits());
}
