//! Attacking a platform that fights back with flakiness.
//!
//! The paper's threat model assumes the attacker interacts with a
//! *deployed* recommender — and deployed platforms rate-limit, time out,
//! go down for maintenance, and suspend suspicious accounts. This example
//! runs a full promotion campaign against such a platform:
//!
//! 1. train under a ~20% fault rate, absorbing per-call failures with
//!    retry/backoff, partial rewards, and account re-establishment;
//! 2. hit a total outage mid-campaign, receive a resumable checkpoint;
//! 3. resume from the checkpoint once the platform heals and finish;
//! 4. execute the learned policy and report what the fault layer saw.
//!
//! Everything runs on a seeded logical clock — rerunning this binary
//! reproduces the exact same faults, retries, and rewards.
//!
//! Run with: `cargo run --release --example unreliable_platform`

use copyattack::core::{Campaign, CampaignRun, CopyAttackVariant, ResilienceConfig};
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::FaultConfig;

fn main() {
    println!("== campaign against an unreliable platform ==");
    let cfg = PipelineConfig::tiny(21);
    let pipe = Pipeline::build(&cfg);
    let src = pipe.source_domain();
    let target = pipe.target_items[0];
    let target_src = pipe.world.source_item(target).expect("overlap");
    let resilience = ResilienceConfig::default();
    let episodes = cfg.attack.config.episodes;

    let mut campaign =
        Campaign::new(cfg.attack.config.clone(), CopyAttackVariant::full(), &src, vec![target_src]);

    // Phase 1: a flaky-but-alive platform, except the platform goes
    // completely dark partway through the campaign.
    let outage_at = episodes / 2;
    let mut episode_no = 0usize;
    let run = campaign.train_resilient(&src, |_t| {
        let faults = if episode_no == outage_at {
            // Total outage: every call returns ServiceUnavailable.
            FaultConfig { unavailable_prob: 1.0, ..FaultConfig::default() }
        } else {
            FaultConfig::chaos(1000 + episode_no as u64)
        };
        episode_no += 1;
        pipe.make_faulty_env(target, faults, resilience)
    });

    let checkpoint = match run {
        CampaignRun::Completed { .. } => {
            unreachable!("the outage episode cannot complete")
        }
        CampaignRun::Interrupted { checkpoint, cause } => {
            println!(
                "outage after {} of {episodes} episodes (cause: {cause}); \
                 checkpoint taken before the failed episode",
                checkpoint.episodes_completed()
            );
            checkpoint
        }
    };

    // Phase 2: the platform heals (back to ordinary chaos); resume from
    // the checkpoint and run the campaign to completion.
    let mut campaign = *checkpoint;
    let mut episode_no = 0usize;
    let run = campaign.train_resilient(&src, |_t| {
        episode_no += 1;
        pipe.make_faulty_env(target, FaultConfig::chaos(2000 + episode_no as u64), resilience)
    });
    let curve = match run {
        CampaignRun::Completed { curve } => curve,
        CampaignRun::Interrupted { checkpoint, cause } => {
            panic!("still down after {} episodes: {cause}", checkpoint.episodes_completed())
        }
    };
    println!(
        "resumed and finished: {} episodes, reward {:.3} -> {:.3}",
        curve.len(),
        curve.first().copied().unwrap_or(0.0),
        curve.last().copied().unwrap_or(0.0),
    );

    // Phase 3: execute the learned policy one more time under chaos and
    // show the attacker's bill and the platform's fault ledger.
    let mut env = pipe.make_faulty_env(target, FaultConfig::chaos(3000), resilience);
    let outcome = campaign.execute_on(&src, target_src, &mut env);
    println!(
        "final attack: reward {:.3}, {} profiles landed, {} injection attempts failed, \
         {} reward rounds skipped (below quorum)",
        outcome.final_reward,
        outcome.injections,
        outcome.failed_injections,
        outcome.skipped_rewards
    );
    let (queries, failed, reestablished) =
        (env.queries(), env.failed_queries(), env.reestablished());
    let faulty = env.into_recommender();
    println!(
        "platform ledger: {} calls, {queries} query attempts ({failed} failed), \
         {reestablished} suspended accounts re-established",
        faulty.calls()
    );
    println!("fault breakdown: {:?}", faulty.stats());
}
