//! The black-box attacking environment (§4.2, §4.5).
//!
//! Wraps the target recommender behind the query/inject interface, owns the
//! attacker's pretend users, and computes the Eq. 1 reward:
//!
//! ```text
//! r(s_t, a_t) = (1/|U^A*|) Σ_i HR(u^A_{i*}, v*, k)
//! ```
//!
//! Every attack's episodes run here too: an attack is a `Proposer` of
//! profiles, and `run_episode` is the one loop that injects them, queries
//! on the cadence, and builds the [`AttackOutcome`].
//!
//! The environment speaks the *fallible* platform surface
//! ([`FallibleBlackBox`]): calls can be rate-limited, time out, come back
//! truncated, or cost the attacker an account. Resilience is configured via
//! [`ResilienceConfig`] — per-call retries in logical time, a minimum
//! quorum for partial rewards, and automatic re-establishment of suspended
//! pretend users. Reliable simulation targets (any
//! [`BlackBoxRecommender`](ca_recsys::BlackBoxRecommender)) fit through the
//! blanket impl and behave exactly as in the original infallible API.

use crate::attack::AttackOutcome;
use crate::config::AttackConfig;
use crate::retry::ResilienceConfig;
use crate::source::SourceDomain;
use ca_recsys::blackbox::MeteredFallible;
use ca_recsys::{Dataset, FallibleBlackBox, ItemId, RecError, SplitMix64, UserId};
use rand::rngs::StdRng;
use rand::Rng;

/// One reward measurement against a possibly-failing platform.
#[derive(Clone, Debug, PartialEq)]
pub enum RewardSample {
    /// Enough pretend users answered; Eq. 1 averaged over the answered
    /// subset.
    Observed {
        /// Hit ratio over the answered pretend users.
        reward: f32,
        /// Pretend users whose query (or retry) succeeded this round.
        answered: usize,
        /// Total pretend users.
        total: usize,
    },
    /// Fewer than the configured quorum answered. The sample carries no
    /// reward — using the few answers that got through would bias Eq. 1
    /// toward whichever accounts the platform happened to serve.
    Skipped {
        /// Pretend users that answered (below quorum).
        answered: usize,
        /// Total pretend users.
        total: usize,
    },
}

impl RewardSample {
    /// The observed reward, if the round met quorum.
    pub fn reward(&self) -> Option<f32> {
        match self {
            RewardSample::Observed { reward, .. } => Some(*reward),
            RewardSample::Skipped { .. } => None,
        }
    }
}

/// The attacker's handle on the target platform for one attack run.
pub struct AttackEnvironment<R: FallibleBlackBox> {
    rec: MeteredFallible<R>,
    pretend: Vec<UserId>,
    /// Stored pretend profiles, when known — the raw material for
    /// re-establishing a suspended account. `None` for accounts the
    /// environment was only handed ids for.
    pretend_profiles: Vec<Option<Vec<ItemId>>>,
    target: ItemId,
    reward_k: usize,
    injected: usize,
    budget: usize,
    resilience: ResilienceConfig,
    rng: SplitMix64,
    reestablished: u64,
    skipped_rewards: usize,
}

impl<R: FallibleBlackBox> AttackEnvironment<R> {
    /// Wraps a recommender for an attack on `target`. `pretend` are the
    /// attacker-controlled accounts established beforehand (their profiles
    /// come from [`plan_pretend_profiles`]).
    pub fn new(
        rec: R,
        pretend: Vec<UserId>,
        target: ItemId,
        reward_k: usize,
        budget: usize,
    ) -> Self {
        assert!(!pretend.is_empty(), "need at least one pretend user");
        let resilience = ResilienceConfig::default();
        let rng = SplitMix64::new(resilience.seed);
        let n = pretend.len();
        Self {
            rec: MeteredFallible::new(rec),
            pretend,
            pretend_profiles: vec![None; n],
            target,
            reward_k,
            injected: 0,
            budget,
            resilience,
            rng,
            reestablished: 0,
            skipped_rewards: 0,
        }
    }

    /// Sets the resilience behavior (retries, quorum, re-establishment).
    ///
    /// # Panics
    /// Panics on an invalid [`ResilienceConfig`].
    pub fn with_resilience(mut self, cfg: ResilienceConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid resilience config: {e}"));
        self.rng = SplitMix64::new(cfg.seed);
        self.resilience = cfg;
        self
    }

    /// Records the pretend users' profiles so suspended accounts can be
    /// re-established. `profiles[i]` must be the profile of `pretend[i]`.
    pub fn with_pretend_profiles(mut self, profiles: Vec<Vec<ItemId>>) -> Self {
        assert_eq!(profiles.len(), self.pretend.len(), "one stored profile per pretend user");
        self.pretend_profiles = profiles.into_iter().map(Some).collect();
        self
    }

    /// The item under promotion.
    pub fn target(&self) -> ItemId {
        self.target
    }

    /// Remaining injection budget (0 when exhausted; never underflows even
    /// if the environment was constructed mid-campaign with
    /// `injected > budget`).
    pub fn remaining_budget(&self) -> usize {
        self.budget.saturating_sub(self.injected)
    }

    /// Whether the budget is exhausted.
    pub fn exhausted(&self) -> bool {
        self.injected >= self.budget
    }

    /// Profiles injected so far in this run (successful crafted-profile
    /// injections; account re-establishment is not budget, see
    /// [`AttackEnvironment::reestablished`]).
    pub fn injections(&self) -> usize {
        self.injected
    }

    /// Top-k query *attempts* issued so far — every retry is charged, as a
    /// real platform would charge it.
    pub fn queries(&self) -> u64 {
        self.rec.queries()
    }

    /// Query attempts that came back as errors.
    pub fn failed_queries(&self) -> u64 {
        self.rec.failed_queries()
    }

    /// Injection attempts (successful + failed), including pretend-user
    /// re-establishment.
    pub fn inject_attempts(&self) -> u64 {
        self.rec.inject_attempts()
    }

    /// Suspended pretend users re-established so far.
    pub fn reestablished(&self) -> u64 {
        self.reestablished
    }

    /// Reward rounds skipped for lack of quorum so far.
    pub fn skipped_rewards(&self) -> usize {
        self.skipped_rewards
    }

    /// Injects one crafted profile, retrying retryable platform errors per
    /// the resilience config (each retry spends logical time via
    /// [`FallibleBlackBox::wait`] and is charged to the metered attempt
    /// count). The budget is consumed only by a *successful* injection.
    ///
    /// # Panics
    /// Panics if the budget is exhausted (the caller must check the
    /// terminal condition).
    pub fn try_inject(&mut self, profile: &[ItemId]) -> Result<UserId, RecError> {
        assert!(!self.exhausted(), "injection budget exhausted");
        let retry = self.resilience.retry;
        let r = retry.run(&mut self.rec, &mut self.rng, |p| p.try_inject_user(profile));
        if r.is_ok() {
            self.injected += 1;
        }
        r
    }

    /// Queries the pretend users' Top-k lists and returns the Eq. 1 reward
    /// over the *answered* subset — or [`RewardSample::Skipped`] when fewer
    /// than the quorum answered.
    ///
    /// The round's first attempts go out as **one batched query**
    /// ([`FallibleBlackBox::try_top_k_batch`]) — an engine-backed target
    /// serves all pretend users from a single scoring pass, while metering
    /// still charges one query attempt per user, so the attacker's §4.5
    /// cost accounting is unchanged. Per entry of the batch: retryable
    /// errors fall back to per-user retries continuing the same backoff
    /// schedule ([`RetryPolicy::run_after`](crate::retry::RetryPolicy));
    /// a truncated list is treated as answered (the visible prefix is
    /// genuine data — if the target was cut off, that is indistinguishable
    /// from a miss at this `k`, and scored as one); a suspension marks the
    /// account lost and, when enabled and the profile is stored,
    /// re-establishes it (the fresh account answers from the next round
    /// on).
    pub fn try_query_reward(&mut self) -> RewardSample {
        let total = self.pretend.len();
        let mut hits = 0usize;
        let mut answered = 0usize;
        let retry = self.resilience.retry;
        let k = self.reward_k;
        let users = self.pretend.clone();
        let first = self.rec.try_top_k_batch(&users, k);
        for (i, outcome) in first.into_iter().enumerate() {
            let resolved = match outcome {
                Err(e) if e.is_retryable() => {
                    let u = self.pretend[i];
                    retry.run_after(e, &mut self.rec, &mut self.rng, |p| p.try_top_k(u, k))
                }
                r => r,
            };
            match resolved {
                Ok(list) => {
                    answered += 1;
                    if list.contains(&self.target) {
                        hits += 1;
                    }
                }
                Err(RecError::TruncatedList { items }) => {
                    answered += 1;
                    if items.contains(&self.target) {
                        hits += 1;
                    }
                }
                Err(RecError::AccountSuspended) => self.reestablish_pretend(i),
                Err(_) => {} // unanswered after retries
            }
        }
        let quorum = ((self.resilience.min_quorum * total as f64).ceil() as usize).max(1);
        if answered >= quorum {
            RewardSample::Observed { reward: hits as f32 / answered as f32, answered, total }
        } else {
            self.skipped_rewards += 1;
            RewardSample::Skipped { answered, total }
        }
    }

    /// Replaces a suspended pretend user with a fresh account carrying the
    /// same stored profile. Costs metered injection attempts but not the
    /// crafted-profile budget Δ. No-op when re-establishment is disabled or
    /// the profile is unknown.
    fn reestablish_pretend(&mut self, i: usize) {
        if !self.resilience.reestablish {
            return;
        }
        let Some(profile) = self.pretend_profiles[i].clone() else { return };
        let retry = self.resilience.retry;
        if let Ok(id) = retry.run(&mut self.rec, &mut self.rng, |p| p.try_inject_user(&profile)) {
            self.pretend[i] = id;
            self.reestablished += 1;
        }
    }

    /// Consumes the environment, returning the (polluted) recommender for
    /// owner-side evaluation.
    pub fn into_recommender(self) -> R {
        self.rec.into_inner()
    }

    /// Owner-side view of the recommender (not part of the attacker
    /// surface; used by the experiment harness for final metrics).
    pub fn recommender(&self) -> &R {
        self.rec.inner()
    }
}

/// What [`run_episode`] tells a [`Proposer`] about the step it asks for.
pub(crate) struct Step<'e> {
    /// Timestep within the episode, from 0.
    pub t: usize,
    /// The attacker's source-domain view.
    pub src: &'e SourceDomain<'e>,
    /// Source users copied at earlier steps of this episode, failed
    /// injections included.
    pub selected: &'e [UserId],
}

/// One step's proposal: the profile to inject and what the attack wants
/// back for learning.
pub(crate) struct Proposal<S> {
    /// The profile to inject, in target-domain item ids.
    pub profile: Vec<ItemId>,
    /// The source user whose profile was copied, if any (synthesizing
    /// attacks copy nobody).
    pub copied: Option<UserId>,
    /// Whatever [`Proposer::learn`] needs to credit this step.
    pub sample: S,
}

/// An attack reduced to its decisions: which profile to inject next, and
/// how to learn from an episode's rewards. Everything else — budget,
/// injection failures, the reward cadence, early stop, the outcome — is
/// [`run_episode`]'s.
pub(crate) trait Proposer {
    /// Per-step record handed back to [`Proposer::learn`].
    type Sample;

    /// Proposes the profile for step `step`, drawing randomness from `rng`.
    fn propose(&mut self, step: &Step<'_>, rng: &mut StdRng) -> Proposal<Self::Sample>;

    /// Learns from one episode: `samples[t]` and `rewards[t]` belong to
    /// step `t`. Attacks that do not learn keep the no-op default.
    fn learn(&mut self, cfg: &AttackConfig, samples: Vec<Self::Sample>, rewards: &[f32]) {
        let _ = (cfg, samples, rewards);
    }
}

/// Runs one attack episode: up to `cfg.budget` steps of propose → inject
/// → query every `cfg.query_every` injections and after the last step.
///
/// Resilient against a flaky platform: an injection that still fails after
/// the environment's retries spends the timestep (reward 0) but not the
/// budget; a reward round that misses quorum counts as skipped and earns
/// reward 0 instead of feeding a biased sample to learning. Observed hit
/// ratios are mapped through `cfg.goal`. The episode stops early once a
/// step earns reward 1 ("in the case when fewer user profiles are enough
/// to successfully satisfy the promotion task, the process stops") or the
/// environment's budget runs out. With `learn`, the proposer learns from
/// the per-step rewards afterwards.
pub(crate) fn run_episode<R: FallibleBlackBox, P: Proposer>(
    env: &mut AttackEnvironment<R>,
    src: &SourceDomain<'_>,
    cfg: &AttackConfig,
    proposer: &mut P,
    rng: &mut StdRng,
    learn: bool,
) -> AttackOutcome {
    let budget = cfg.budget;
    let mut selected: Vec<UserId> = Vec::with_capacity(budget);
    let mut samples = Vec::with_capacity(budget);
    let mut rewards: Vec<f32> = Vec::with_capacity(budget);
    let (mut total_items, mut landed, mut failed, mut skipped) = (0usize, 0usize, 0usize, 0usize);
    let mut last_reward = 0.0f32;
    let mut last_error: Option<RecError> = None;

    for t in 0..budget {
        if env.exhausted() {
            break;
        }
        let p = proposer.propose(&Step { t, src, selected: &selected }, rng);
        selected.extend(p.copied);
        samples.push(p.sample);
        if let Err(e) = env.try_inject(&p.profile) {
            failed += 1;
            last_error = Some(e);
            rewards.push(0.0);
            continue;
        }
        total_items += p.profile.len();
        landed += 1;
        let mut reward = 0.0;
        if (t + 1) % cfg.query_every == 0 || t + 1 == budget {
            match env.try_query_reward() {
                RewardSample::Observed { reward: hr, .. } => {
                    reward = cfg.goal.reward(hr);
                    last_reward = reward;
                }
                RewardSample::Skipped { .. } => skipped += 1,
            }
        }
        rewards.push(reward);
        if reward >= 1.0 {
            break;
        }
    }

    if learn {
        proposer.learn(cfg, samples, &rewards);
    }
    AttackOutcome {
        final_reward: last_reward,
        injections: env.injections(),
        queries: env.queries(),
        avg_items_per_profile: if landed == 0 { 0.0 } else { total_items as f32 / landed as f32 },
        selected_users: selected,
        failed_injections: failed,
        skipped_rewards: skipped,
        aborted: if landed == 0 && failed > 0 { last_error } else { None },
    }
}

/// Plans `n` plausible mainstream pretend profiles without touching the
/// platform: `profile_len` items sampled by popularity from the public
/// catalog (an attacker can see what is popular by browsing), ordered
/// arbitrarily.
pub fn plan_pretend_profiles(
    visible_popularity: &Dataset,
    n: usize,
    profile_len: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<ItemId>> {
    let n_items = visible_popularity.n_items();
    assert!(profile_len <= n_items, "pretend profile longer than catalog");
    // Popularity-proportional sampling with add-one smoothing.
    let mut cdf = Vec::with_capacity(n_items);
    let mut acc = 0.0f64;
    for v in 0..n_items {
        acc += 1.0 + visible_popularity.item_popularity(ItemId(v as u32)) as f64;
        cdf.push(acc);
    }
    let total = acc;
    let mut profiles = Vec::with_capacity(n);
    for _ in 0..n {
        let mut profile: Vec<ItemId> = Vec::with_capacity(profile_len);
        let mut guard = 0u32;
        while profile.len() < profile_len {
            let u: f64 = rng.gen::<f64>() * total;
            let pos = cdf.partition_point(|&c| c < u).min(n_items - 1);
            let item = ItemId(pos as u32);
            if !profile.contains(&item) {
                profile.push(item);
            }
            guard += 1;
            if guard > 100_000 {
                break;
            }
        }
        profiles.push(profile);
    }
    profiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;
    use ca_recsys::{
        BlackBoxRecommender, DatasetBuilder, FaultConfig, FaultyRecommender, RateLimit,
    };

    /// Fake recommender: recommends items in descending popularity, where
    /// popularity is the number of injected users containing the item.
    struct PopRec {
        n_items: usize,
        counts: Vec<usize>,
        n_users: usize,
    }

    impl PopRec {
        fn new(n_items: usize) -> Self {
            Self { n_items, counts: vec![0; n_items], n_users: 0 }
        }
    }

    impl BlackBoxRecommender for PopRec {
        fn top_k(&self, _user: UserId, k: usize) -> Vec<ItemId> {
            let mut idx: Vec<usize> = (0..self.n_items).collect();
            idx.sort_by_key(|&v| std::cmp::Reverse(self.counts[v]));
            idx.into_iter().take(k).map(|v| ItemId(v as u32)).collect()
        }
        fn inject_user(&mut self, profile: &[ItemId]) -> UserId {
            for &v in profile {
                self.counts[v.idx()] += 1;
            }
            let id = UserId(self.n_users as u32);
            self.n_users += 1;
            id
        }
        fn catalog_size(&self) -> usize {
            self.n_items
        }
    }

    #[test]
    fn reward_tracks_promotion() {
        let mut rec = PopRec::new(50);
        // Make items 0..5 popular baseline.
        for v in 0..5u32 {
            for _ in 0..10 {
                rec.inject_user(&[ItemId(v)]);
            }
        }
        let pretend = vec![UserId(0), UserId(1)];
        let target = ItemId(40);
        let mut env = AttackEnvironment::new(rec, pretend, target, 3, 30);
        assert_eq!(env.try_query_reward().reward(), Some(0.0));
        // Push the target into the top 3 by injecting it repeatedly.
        for _ in 0..20 {
            env.try_inject(&[target]).unwrap();
        }
        assert_eq!(env.try_query_reward().reward(), Some(1.0));
        assert_eq!(env.injections(), 20);
        assert!(env.queries() >= 2);
    }

    #[test]
    #[should_panic(expected = "budget exhausted")]
    fn budget_is_enforced() {
        let rec = PopRec::new(10);
        let mut env = AttackEnvironment::new(rec, vec![UserId(0)], ItemId(0), 3, 2);
        env.try_inject(&[ItemId(1)]).unwrap();
        env.try_inject(&[ItemId(1)]).unwrap();
        assert!(env.exhausted());
        env.try_inject(&[ItemId(1)]).unwrap();
    }

    #[test]
    fn pretend_users_have_requested_profiles() {
        let mut b = DatasetBuilder::new(20);
        for u in 0..10u32 {
            b.user(&[ItemId(u % 3)]); // items 0..3 popular
        }
        let visible = b.build();
        let mut rng = rand::rngs::mock::StepRng::new(42, 0x9E3779B97F4A7C15);
        let profiles = plan_pretend_profiles(&visible, 5, 4, &mut rng);
        assert_eq!(profiles.len(), 5);
        // Each pretend user gets 4 distinct items.
        for p in &profiles {
            let mut items = p.clone();
            items.sort_unstable();
            items.dedup();
            assert_eq!((p.len(), items.len()), (4, 4), "{p:?}");
        }
    }

    #[test]
    fn remaining_budget_counts_down() {
        let rec = PopRec::new(10);
        let mut env = AttackEnvironment::new(rec, vec![UserId(0)], ItemId(0), 3, 5);
        assert_eq!(env.remaining_budget(), 5);
        env.try_inject(&[ItemId(2)]).unwrap();
        assert_eq!(env.remaining_budget(), 4);
        assert!(!env.exhausted());
    }

    /// Regression test: `remaining_budget` used to compute
    /// `budget - injected` with a plain subtraction, which underflows when
    /// an environment is reconstructed mid-campaign with more injections on
    /// record than its (reduced) budget.
    #[test]
    fn remaining_budget_saturates_when_over_budget() {
        let rec = PopRec::new(10);
        let mut env = AttackEnvironment::new(rec, vec![UserId(0)], ItemId(0), 3, 2);
        env.injected = 7; // resumed from a checkpoint taken under a larger budget
        assert_eq!(env.remaining_budget(), 0);
        assert!(env.exhausted());
    }

    #[test]
    fn partial_reward_averages_over_answered_subset() {
        // Platform: pretend user 0's queries always time out; users 1 and 2
        // answer. Target is in everyone's list, so reward over the answered
        // subset is 1.0 (not 2/3).
        struct OneUserDown;
        impl FallibleBlackBox for OneUserDown {
            fn try_top_k(&mut self, u: UserId, k: usize) -> Result<Vec<ItemId>, RecError> {
                if u == UserId(0) {
                    Err(RecError::Timeout)
                } else {
                    Ok(vec![ItemId(4); k])
                }
            }
            fn try_inject_user(&mut self, _p: &[ItemId]) -> Result<UserId, RecError> {
                Ok(UserId(9))
            }
            fn catalog_size(&self) -> usize {
                10
            }
        }
        let resilience = ResilienceConfig {
            retry: RetryPolicy {
                max_retries: 1,
                base_delay: 1,
                max_delay: 2,
                jitter: 0.0,
                max_total_wait: 64,
            },
            min_quorum: 0.5,
            reestablish: false,
            seed: 1,
        };
        let mut env = AttackEnvironment::new(
            OneUserDown,
            vec![UserId(0), UserId(1), UserId(2)],
            ItemId(4),
            3,
            10,
        )
        .with_resilience(resilience);
        let sample = env.try_query_reward();
        assert_eq!(sample, RewardSample::Observed { reward: 1.0, answered: 2, total: 3 });
        // User 0 was retried once: 2 attempts for it + 1 each for the rest.
        assert_eq!(env.queries(), 4);
        assert_eq!(env.failed_queries(), 2);
    }

    #[test]
    fn below_quorum_rounds_are_skipped_not_biased() {
        struct AllDown;
        impl FallibleBlackBox for AllDown {
            fn try_top_k(&mut self, _u: UserId, _k: usize) -> Result<Vec<ItemId>, RecError> {
                Err(RecError::ServiceUnavailable)
            }
            fn try_inject_user(&mut self, _p: &[ItemId]) -> Result<UserId, RecError> {
                Err(RecError::ServiceUnavailable)
            }
            fn catalog_size(&self) -> usize {
                10
            }
        }
        let resilience = ResilienceConfig {
            retry: RetryPolicy::none(),
            min_quorum: 0.5,
            reestablish: false,
            seed: 1,
        };
        let mut env = AttackEnvironment::new(AllDown, vec![UserId(0), UserId(1)], ItemId(4), 3, 10)
            .with_resilience(resilience);
        let sample = env.try_query_reward();
        assert_eq!(sample, RewardSample::Skipped { answered: 0, total: 2 });
        assert_eq!(sample.reward(), None);
        assert_eq!(env.skipped_rewards(), 1);
    }

    #[test]
    fn truncated_lists_still_count_as_answers() {
        let faulty = FaultyRecommender::new(
            PopRec::new(30),
            FaultConfig { truncate_prob: 1.0, truncate_keep: 0.4, ..FaultConfig::default() },
        );
        let mut env =
            AttackEnvironment::new(faulty, vec![UserId(0)], ItemId(2), 10, 10).with_resilience(
                ResilienceConfig { retry: RetryPolicy::none(), ..ResilienceConfig::default() },
            );
        // Target item 2 is within the kept prefix (popularity order 0,1,2…
        // with no injections → ties broken by index; keep = 4 of 10).
        let sample = env.try_query_reward();
        assert_eq!(sample, RewardSample::Observed { reward: 1.0, answered: 1, total: 1 });
    }

    #[test]
    fn suspended_pretend_users_are_reestablished_from_stored_profiles() {
        // Suspend on the first query round (prob 1), then never again.
        struct SuspendOnce {
            inner: PopRec,
            suspended: Vec<UserId>,
            armed: bool,
        }
        impl FallibleBlackBox for SuspendOnce {
            fn try_top_k(&mut self, u: UserId, k: usize) -> Result<Vec<ItemId>, RecError> {
                if self.suspended.contains(&u) {
                    return Err(RecError::AccountSuspended);
                }
                if self.armed {
                    self.armed = false;
                    self.suspended.push(u);
                    return Err(RecError::AccountSuspended);
                }
                Ok(self.inner.top_k(u, k))
            }
            fn try_inject_user(&mut self, p: &[ItemId]) -> Result<UserId, RecError> {
                Ok(self.inner.inject_user(p))
            }
            fn catalog_size(&self) -> usize {
                BlackBoxRecommender::catalog_size(&self.inner)
            }
        }
        let mut inner = PopRec::new(10);
        let u0 = inner.inject_user(&[ItemId(1), ItemId(2)]);
        let platform = SuspendOnce { inner, suspended: vec![], armed: true };
        let mut env = AttackEnvironment::new(platform, vec![u0], ItemId(1), 5, 10)
            .with_pretend_profiles(vec![vec![ItemId(1), ItemId(2)]]);

        // Round 1: the only pretend user gets suspended → below quorum,
        // but a replacement account with the same profile is created.
        let s1 = env.try_query_reward();
        assert_eq!(s1, RewardSample::Skipped { answered: 0, total: 1 });
        assert_eq!(env.reestablished(), 1);

        // Round 2: the replacement answers; its profile keeps item 1 and 2
        // popular, so the target is in its Top-5.
        let s2 = env.try_query_reward();
        assert_eq!(s2, RewardSample::Observed { reward: 1.0, answered: 1, total: 1 });
        // Re-establishment was metered but did not consume attack budget.
        assert_eq!(env.inject_attempts(), 1);
        assert_eq!(env.injections(), 0);
        assert_eq!(env.remaining_budget(), 10);
    }

    /// Proposes the same one-item profile at every step.
    struct Fixed;
    impl Proposer for Fixed {
        type Sample = ();
        fn propose(&mut self, _: &Step<'_>, _: &mut StdRng) -> Proposal<()> {
            Proposal { profile: vec![ItemId(3)], copied: None, sample: () }
        }
    }

    #[test]
    fn episodes_spend_steps_not_budget_on_failed_injections() {
        let mut b = DatasetBuilder::new(10);
        b.user(&[ItemId(1), ItemId(3)]);
        let ds = b.build();
        let mf = ca_mf::train(&ds, &ca_mf::BprConfig { max_epochs: 1, ..Default::default() });
        let map: Vec<ItemId> = (0..10).map(ItemId).collect();
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let cfg = AttackConfig { budget: 4, query_every: 2, ..Default::default() };
        let rejecting = FaultyRecommender::new(
            PopRec::new(10),
            FaultConfig { reject_inject_prob: 1.0, ..FaultConfig::default() },
        );
        let mut env =
            AttackEnvironment::new(rejecting, vec![UserId(0)], ItemId(3), 3, 4).with_resilience(
                ResilienceConfig { retry: RetryPolicy::none(), ..ResilienceConfig::default() },
            );
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let o = run_episode(&mut env, &src, &cfg, &mut Fixed, &mut rng, false);
        // Every step was tried and failed; nothing landed, nothing queried.
        assert_eq!((o.injections, o.failed_injections, o.queries), (0, 4, 0));
        assert_eq!(env.remaining_budget(), 4);
        assert!(o.aborted.is_some());

        // On a reliable platform the same episode lands every profile and
        // stops at the first reward of 1 (item 3 tops the popularity list).
        let mut env = AttackEnvironment::new(PopRec::new(10), vec![UserId(0)], ItemId(3), 3, 4);
        let o = run_episode(&mut env, &src, &cfg, &mut Fixed, &mut rng, false);
        assert_eq!((o.injections, o.queries, o.final_reward), (2, 1, 1.0));
        assert!(o.aborted.is_none());
    }

    #[test]
    fn retries_ride_the_rate_limiter_via_logical_waits() {
        // 2 calls per 8-tick window: querying 3 pretend users trips the
        // limiter, and the retry policy's backoff waits into the next
        // window where the query succeeds.
        let faulty = FaultyRecommender::new(
            PopRec::new(10),
            FaultConfig {
                rate_limit: Some(RateLimit { window: 8, max_calls: 2 }),
                ..FaultConfig::default()
            },
        );
        let resilience = ResilienceConfig {
            retry: RetryPolicy {
                max_retries: 3,
                base_delay: 1,
                max_delay: 16,
                jitter: 0.0,
                max_total_wait: 256,
            },
            min_quorum: 1.0,
            reestablish: false,
            seed: 5,
        };
        let mut env =
            AttackEnvironment::new(faulty, vec![UserId(0), UserId(1), UserId(2)], ItemId(0), 3, 10)
                .with_resilience(resilience);
        let sample = env.try_query_reward();
        assert_eq!(sample, RewardSample::Observed { reward: 1.0, answered: 3, total: 3 });
        assert!(env.failed_queries() >= 1, "the limiter must have fired");
        assert_eq!(env.queries() - env.failed_queries(), 3, "all three eventually answered");
    }
}
