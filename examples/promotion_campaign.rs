//! Promotion campaign planning: how many copied profiles does a seller
//! need?
//!
//! The scenario from the paper's introduction: a seller on e-commerce
//! platform A wants their (cold) product recommended to more users, and
//! controls accounts that can replay profiles crawled from platform B.
//! This example sweeps the profile budget Δ and reports the promotion
//! metrics per budget — a miniature of the Figure 5 experiment — and then
//! trains and runs CopyAttack against a *flaky* platform (rate limits,
//! timeouts, suspended accounts) to show the resilient loop riding through
//! faults.
//!
//! Run with: `cargo run --release --example promotion_campaign`

use copyattack::core::{AttackEnvironment, ResilienceConfig, RetryPolicy};
use copyattack::gnn::PinSageRecommender;
use copyattack::par::split_seed;
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::FaultConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("== promotion campaign: budget sweep ==");
    let mut cfg = PipelineConfig::tiny(7);
    cfg.n_target_items = 2;
    let pipe = Pipeline::build(&cfg);
    let src = pipe.source_domain();
    let target = pipe.target_items[0];
    println!(
        "promoting {target} (popularity {} in the target domain)",
        pipe.world.target.item_popularity(target)
    );
    println!("{:>8} {:>16} {:>16}", "budget", "TargetAttack70", "CopyAttack");

    let registry = pipe.registry::<PinSageRecommender>();
    for budget in [3usize, 9, 15, 21, 30] {
        let mut attack_cfg = cfg.attack.config.clone();
        attack_cfg.budget = budget;
        attack_cfg.query_every = attack_cfg.query_every.min(budget);

        // Non-RL baseline at this budget.
        let target_src = pipe.world.source_item(target).expect("overlap");
        let mut baseline =
            registry.build("TargetAttack70", &attack_cfg, &src, target_src).expect("carriers");
        let mut env = AttackEnvironment::new(
            pipe.recommender.clone(),
            pipe.pretend.clone(),
            target,
            attack_cfg.reward_k,
            budget,
        );
        let mut rng = StdRng::seed_from_u64(split_seed(cfg.seed, budget as u64));
        baseline.run(&mut env, &src, target_src, &mut rng);
        let eval_seed = split_seed(cfg.seed, 1 + budget as u64);
        let hr_ta = pipe.evaluate_promotion(&env.into_recommender(), target, eval_seed).hr(20);

        // CopyAttack at this budget.
        let (polluted, _) = pipe
            .attack_with("CopyAttack", target, &attack_cfg, &pipe.recommender, &pipe.pretend)
            .expect("carriers");
        let hr_ca = pipe.evaluate_promotion(&polluted, target, eval_seed).hr(20);

        println!("{budget:>8} {hr_ta:>16.4} {hr_ca:>16.4}");
    }
    println!("(HR@20 of the promoted item over real users; higher = more exposure)");

    // -- the same campaign against an unreliable platform -----------------
    // A real target throttles, times out, and suspends suspicious accounts.
    // The resilient loop retries with capped exponential backoff (logical
    // time), averages rewards over the pretend users that answered, and
    // re-establishes suspended accounts from their stored profiles.
    println!("\n== replaying the attack on a flaky platform ==");
    let target_src = pipe.world.source_item(target).expect("overlap");
    let resilience = ResilienceConfig {
        retry: RetryPolicy {
            max_retries: 5,
            base_delay: 2,
            max_delay: 64,
            jitter: 0.25,
            max_total_wait: 1024,
        },
        ..ResilienceConfig::default()
    };
    let mut attack = pipe
        .registry()
        .build("CopyAttack", &cfg.attack.config, &src, target_src)
        .expect("carriers");
    // Training is on flaky platforms too: each episode meets its own
    // fault stream.
    let mut episode = 0;
    attack.prepare(&src, &mut || {
        episode += 1;
        let faults = FaultConfig::chaos(split_seed(cfg.seed, episode));
        pipe.make_faulty_env(target, faults, resilience)
    });
    let mut env = pipe.make_faulty_env(target, FaultConfig::chaos(7), resilience);
    // The learned policy draws from its own stream, never this one.
    let mut unused = StdRng::seed_from_u64(split_seed(cfg.seed, 0));
    let outcome = attack.run(&mut env, &src, target_src, &mut unused);
    println!(
        "reward {:.3} | {} profiles landed ({:.1} items each), {} injection attempts failed",
        outcome.final_reward,
        outcome.injections,
        outcome.avg_items_per_profile,
        outcome.failed_injections
    );
    let (queries, failed) = (env.queries(), env.failed_queries());
    let reestablished = env.reestablished();
    let faulty = env.into_recommender();
    println!(
        "platform saw {} calls ({queries} query attempts, {failed} failed); \
         {reestablished} pretend users re-established",
        faulty.calls()
    );
    println!("fault breakdown: {:?}", faulty.stats());
}
