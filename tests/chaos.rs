//! Chaos suite: the full CopyAttack loop against a *faulty* deployed
//! platform — rate limits, timeouts, outages, truncated lists, suspended
//! and shadow-banned accounts — at a ≥ 20% combined fault rate.
//!
//! Asserted invariants:
//! 1. the resilient attack loop never panics under chaos;
//! 2. the final reward stays within a fixed tolerance of the fault-free
//!    same-seed run (the attack degrades, it does not derail);
//! 3. every retry is charged to the metered attempt counts — the wrapper
//!    stack cannot hide attacker cost;
//! 4. an identical-seed rerun reproduces the same outcome bit for bit.
//!
//! The first three also hold for every registered attack, not only
//! CopyAttack: they all run through the same episode loop.

use copyattack::core::{
    AttackConfig, AttackOutcome, Campaign, CampaignRun, CopyAttackVariant, ResilienceConfig,
    RetryPolicy,
};
use copyattack::gnn::PinSageRecommender;
use copyattack::par::split_seed;
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::{BlackBoxRecommender, FallibleBlackBox, RecError};
use copyattack::recsys::{FaultConfig, FaultStats, FaultyRecommender, ItemId, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FAULT_SEED: u64 = 0xC0FFEE;

fn chaos_resilience() -> ResilienceConfig {
    ResilienceConfig {
        retry: RetryPolicy {
            max_retries: 5,
            base_delay: 2,
            max_delay: 128,
            jitter: 0.25,
            max_total_wait: 1024,
        },
        min_quorum: 0.5,
        reestablish: true,
        seed: 99,
    }
}

/// One full-episode chaos run; returns the outcome plus the fault
/// injector's view of the traffic.
fn chaos_run(pipe: &Pipeline, target: ItemId) -> (f32, usize, u64, u64, u64, FaultStats) {
    let src = pipe.source_domain();
    let target_src = pipe.world.source_item(target).unwrap();
    let cfg = &pipe.config.attack.config;
    let mut attack = pipe.registry().build("CopyAttack", cfg, &src, target_src).unwrap();
    let mut env = pipe.make_faulty_env(target, FaultConfig::chaos(FAULT_SEED), chaos_resilience());
    // A learned attack draws from its own stream, never this one.
    let mut unused = StdRng::seed_from_u64(0);
    let outcome = attack.run(&mut env, &src, target_src, &mut unused);

    let queries = env.queries();
    let failed_queries = env.failed_queries();
    let inject_attempts = env.inject_attempts();
    let faulty = env.into_recommender();
    // Invariant 3: every attempt that reached the platform was metered —
    // the fault injector saw exactly as many calls as the meter charged.
    assert_eq!(
        queries + inject_attempts,
        faulty.calls(),
        "metered attempts must equal platform calls (retries included)"
    );
    (
        outcome.final_reward,
        outcome.injections,
        queries,
        failed_queries,
        inject_attempts,
        faulty.stats().clone(),
    )
}

#[test]
fn full_attack_survives_twenty_percent_fault_rate() {
    let cfg = PipelineConfig::tiny(42);
    let pipe = Pipeline::build(&cfg);
    let target = pipe.target_items[0];
    let src = pipe.source_domain();
    let target_src = pipe.world.source_item(target).unwrap();

    // The chaos preset is genuinely hostile: ≥ 20% of calls misbehave.
    let fc = FaultConfig::chaos(FAULT_SEED);
    assert!(
        fc.query_fault_rate() + fc.suspend_prob >= 0.18 && fc.inject_fault_rate() >= 0.18,
        "chaos preset lost its teeth"
    );

    // Fault-free reference with the same agent seed.
    let mut ref_attack =
        pipe.registry().build("CopyAttack", &cfg.attack.config, &src, target_src).unwrap();
    let mut unused = StdRng::seed_from_u64(0);
    let reference = ref_attack.run(&mut pipe.make_env(target), &src, target_src, &mut unused);

    // Chaos run (invariant 1: completing it is the no-panic assertion).
    let (reward, injections, queries, failed_queries, inject_attempts, stats) =
        chaos_run(&pipe, target);

    // Invariant 2: same-seed chaos reward within a fixed tolerance of the
    // fault-free run.
    assert!(
        (reward - reference.final_reward).abs() <= 0.35,
        "chaos reward {reward} strayed from fault-free {}",
        reference.final_reward
    );

    // The platform really did misbehave, and retries really were charged:
    // more attempts than the fault-free run needed for the same loop.
    assert!(stats.total_errors() > 0, "chaos run saw no faults: {stats:?}");
    assert!(failed_queries > 0, "no failed query attempt was recorded");
    assert!(
        queries >= reference.queries,
        "chaos attempts {queries} below fault-free count {}",
        reference.queries
    );
    // Budget accounting: crafted injections never exceed Δ even though
    // re-establishment and retries add platform calls on top.
    assert!(injections <= pipe.config.attack.config.budget);
    assert!(inject_attempts as usize >= injections);
}

#[test]
fn identical_seeds_reproduce_the_chaos_outcome_exactly() {
    let cfg = PipelineConfig::tiny(42);
    let pipe = Pipeline::build(&cfg);
    let target = pipe.target_items[0];

    let a = chaos_run(&pipe, target);
    let b = chaos_run(&pipe, target);
    assert_eq!(a, b, "same seeds must reproduce the same chaos run");
}

/// One registered attack's lifecycle behind the chaos preset: `prepare`
/// and `run`, each environment with its own fault stream. Returns the
/// evaluation outcome and its `Debug` text, which covers every field.
fn chaos_lifecycle(pipe: &Pipeline, name: &str, fault_seed: u64) -> (String, AttackOutcome) {
    let target = pipe.target_items[0];
    let target_src = pipe.world.source_item(target).unwrap();
    let src = pipe.source_domain();
    let cfg = &pipe.config.attack.config;
    let mut attack = pipe.registry().build(name, cfg, &src, target_src).unwrap();
    let mut episode = 0;
    let mut make_env = || {
        episode += 1;
        let faults = FaultConfig::chaos(split_seed(fault_seed, episode));
        pipe.make_faulty_env(target, faults, chaos_resilience())
    };
    attack.prepare(&src, &mut make_env);
    let mut env = make_env();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xABCD);
    let outcome = attack.run(&mut env, &src, target_src, &mut rng);
    let metered = env.queries() + env.inject_attempts();
    let calls = env.into_recommender().calls();
    assert_eq!(metered, calls, "{name}: metered attempts must equal platform calls");
    (format!("{outcome:?}"), outcome)
}

/// Every registry key survives the chaos preset the way CopyAttack does:
/// no panic, every platform call metered, the budget respected, `aborted`
/// set exactly when nothing landed, and a same-seed rerun identical.
#[test]
fn every_registered_attack_survives_chaos() {
    let pipe = Pipeline::build(&PipelineConfig::tiny(42));
    let names: Vec<String> = pipe
        .registry::<FaultyRecommender<PinSageRecommender>>()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(names.len(), 10);
    for fault_seed in [1u64, 2, 3] {
        for name in &names {
            let (text, o) = chaos_lifecycle(&pipe, name, fault_seed);
            assert!(o.injections <= pipe.config.attack.config.budget, "{name}: {text}");
            let defeated = o.injections == 0 && o.failed_injections > 0;
            assert_eq!(o.aborted.is_some(), defeated, "{name}: {text}");
            let (again, _) = chaos_lifecycle(&pipe, name, fault_seed);
            assert_eq!(text, again, "{name} is not reproducible under chaos seed {fault_seed}");
        }
    }
}

// ---------------------------------------------------------------------------
// Outage chaos: a campaign interrupted by a dead platform, then resumed.
// ---------------------------------------------------------------------------

#[test]
fn outage_interrupts_the_campaign_and_resume_replays_the_curve() {
    let cfg = PipelineConfig::tiny(42);
    let pipe = Pipeline::build(&cfg);
    let target = pipe.target_items[0];
    let target_src = pipe.world.source_item(target).unwrap();
    let src = pipe.source_domain();
    let attack_cfg = AttackConfig { episodes: 8, ..pipe.config.attack.config.clone() };
    let chaos_env =
        || pipe.make_faulty_env(target, FaultConfig::chaos(FAULT_SEED), chaos_resilience());

    // Reference: every episode on the chaos preset.
    let mut reference =
        Campaign::new(attack_cfg.clone(), CopyAttackVariant::full(), &src, vec![target_src]);
    let CampaignRun::Completed { curve: full_curve } =
        reference.train_resilient(&src, |_| chaos_env())
    else {
        panic!("the chaos preset cannot defeat a whole episode here");
    };
    assert_eq!(full_curve.len(), 8);

    // Interrupted run: episode 4 lands on a platform that answers every
    // call with ServiceUnavailable, past every retry budget.
    let mut campaign =
        Campaign::new(attack_cfg.clone(), CopyAttackVariant::full(), &src, vec![target_src]);
    let mut episode_no = 0usize;
    let run = campaign.train_resilient(&src, |_| {
        let down = episode_no == 4;
        episode_no += 1;
        if down {
            let outage = FaultConfig { unavailable_prob: 1.0, ..FaultConfig::default() };
            pipe.make_faulty_env(target, outage, chaos_resilience())
        } else {
            chaos_env()
        }
    });
    let CampaignRun::Interrupted { checkpoint, cause } = run else {
        panic!("a total outage must interrupt the campaign");
    };
    assert_eq!(cause, RecError::ServiceUnavailable);
    assert_eq!(checkpoint.episodes_completed(), 4);
    assert_eq!(checkpoint.curve(), &full_curve[..4], "pre-outage prefix must match");

    // The platform comes back: resuming from the checkpoint replays the
    // aborted episode cleanly and the combined curve is bit-identical to
    // the uninterrupted reference.
    let mut resumed = *checkpoint;
    let CampaignRun::Completed { curve } = resumed.train_resilient(&src, |_| chaos_env()) else {
        panic!("recovered platform cannot interrupt");
    };
    assert_eq!(curve, full_curve, "resume must reproduce the uninterrupted curve exactly");

    // The curve saturates at 1.0, so it cannot tell a rolled-back
    // checkpoint from one that kept the aborted episode's policy update
    // and RNG draws. The next executed attack depends on both.
    let executed =
        |c: &mut Campaign| c.execute_on(&src, target_src, &mut chaos_env()).selected_users;
    assert_eq!(
        executed(&mut resumed),
        executed(&mut reference),
        "resumed policy must select exactly as the uninterrupted one"
    );
}

// ---------------------------------------------------------------------------
// Determinism proptests for the fault layer and the retry policy.
// ---------------------------------------------------------------------------

/// Minimal deterministic platform for property tests.
struct Fixed {
    n_items: usize,
    n_users: usize,
}

impl BlackBoxRecommender for Fixed {
    fn top_k(&self, _user: UserId, k: usize) -> Vec<ItemId> {
        (0..self.n_items as u32).take(k).map(ItemId).collect()
    }
    fn inject_user(&mut self, _profile: &[ItemId]) -> UserId {
        let id = UserId(self.n_users as u32);
        self.n_users += 1;
        id
    }
    fn catalog_size(&self) -> usize {
        self.n_items
    }
}

fn fault_trace(cfg: &FaultConfig, calls: usize) -> Vec<String> {
    let mut f = FaultyRecommender::new(Fixed { n_items: 50, n_users: 0 }, cfg.clone());
    let mut trace = Vec::with_capacity(calls * 2);
    for i in 0..calls {
        let sig = match f.try_top_k(UserId((i % 7) as u32), 10) {
            Ok(v) => format!("q:ok:{}", v.len()),
            Err(e) => format!("q:err:{e}"),
        };
        trace.push(sig);
        let sig = match f.try_inject_user(&[ItemId(1), ItemId(2)]) {
            Ok(u) => format!("i:ok:{u}"),
            Err(e) => format!("i:err:{e}"),
        };
        trace.push(sig);
    }
    trace.push(format!("clock:{} stats:{:?}", f.clock(), f.stats()));
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same seed + same fault probabilities ⇒ the exact same sequence of
    /// outcomes, errors, clock ticks, and counters.
    #[test]
    fn faulty_recommender_is_seed_deterministic(
        seed in 0u64..1_000_000,
        timeout in 0.0f64..0.3,
        unavailable in 0.0f64..0.3,
        truncate in 0.0f64..0.3,
        suspend in 0.0f64..0.1,
    ) {
        let cfg = FaultConfig {
            seed,
            timeout_prob: timeout,
            unavailable_prob: unavailable,
            truncate_prob: truncate,
            truncate_keep: 0.5,
            suspend_prob: suspend,
            reject_inject_prob: 0.05,
            shadow_ban_prob: 0.05,
            rate_limit: Some(copyattack::recsys::RateLimit { window: 16, max_calls: 12 }),
        };
        prop_assert!(cfg.validate().is_ok());
        prop_assert_eq!(fault_trace(&cfg, 60), fault_trace(&cfg, 60));
    }

    /// The backoff schedule is deterministic, monotone until the cap, and
    /// never exceeds it.
    #[test]
    fn retry_backoff_is_capped_and_deterministic(
        base in 1u64..1_000,
        factor in 1u64..1_000,
        attempt in 0u32..128,
    ) {
        let max_delay = base.saturating_mul(factor);
        let p = RetryPolicy { max_retries: 10, base_delay: base, max_delay, jitter: 0.0, ..RetryPolicy::default() };
        let d = p.backoff(attempt);
        prop_assert!(d <= max_delay, "backoff {} above cap {}", d, max_delay);
        prop_assert!(d >= base.min(max_delay));
        prop_assert_eq!(d, p.backoff(attempt), "backoff must be a pure function");
        if attempt > 0 {
            prop_assert!(p.backoff(attempt - 1) <= d, "backoff must be monotone");
        }
    }

    /// Jittered delays are reproducible from the seed and bounded by the
    /// jitter fraction.
    #[test]
    fn retry_jitter_is_seeded_and_bounded(
        seed in 0u64..1_000_000,
        jitter in 0.0f64..1.0,
        attempt in 0u32..32,
    ) {
        let p = RetryPolicy { max_retries: 8, base_delay: 3, max_delay: 1 << 20, jitter, ..RetryPolicy::default() };
        let delay = |s| {
            let mut rng = copyattack::recsys::SplitMix64::new(s);
            p.delay_for(attempt, &copyattack::recsys::RecError::Timeout, &mut rng)
        };
        let base = p.backoff(attempt);
        let d = delay(seed);
        prop_assert_eq!(d, delay(seed), "same seed, same delay");
        prop_assert!(d >= base);
        prop_assert!((d as f64) <= base as f64 * (1.0 + jitter) + 1.0);
    }
}
