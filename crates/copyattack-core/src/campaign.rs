//! Multi-target attack campaigns (extension).
//!
//! The paper's problem statement promotes "a carefully chosen subset of
//! items", and CopyAttack's state deliberately contains the target item's
//! embedding `q_{v*}` — which means one set of policy networks can be
//! trained across *several* target items and, because selection conditions
//! on the item embedding, generalize to target items it never queried
//! about (zero-shot transfer within the overlap catalog).
//!
//! A campaign trains round-robin over its target set, sharing the
//! clustering tree, the per-node policies, the RNN, the crafting policy,
//! and the REINFORCE baseline; per-item masks are rebuilt on each switch.
//! A one-target campaign trains exactly as the registry key of its variant
//! (`CopyAttack`, `CopyAttack-Masking` or `CopyAttack-Length`) does in
//! [`Attack::prepare`](crate::Attack::prepare), and also keeps the learning
//! curve.
//!
//! Against an *unreliable* platform, [`Campaign::train_resilient`] rides
//! through per-call faults (the environment retries and computes partial
//! rewards) and, when the platform defeats an entire episode, stops with
//! [`CampaignRun::Interrupted`]. Its checkpoint is the campaign itself as
//! it stood before the failed episode — policy networks, RNG position,
//! targets and curve — and calling [`Campaign::train_resilient`] on it
//! later continues the campaign as if it had never been interrupted.
//!
//! Every reward round a campaign triggers — through
//! [`AttackEnvironment::try_query_reward`] — issues its first attempts as
//! one batched `try_top_k_batch` over all pretend users, served by the
//! target's shared scoring engine in a single pass; metering still charges
//! one query per user, so campaign-level query budgets are unaffected.

use crate::arena::AttackError;
use crate::attack::{AttackOutcome, CopyAttackVariant, CopyProposer};
use crate::config::AttackConfig;
use crate::env::{run_episode, AttackEnvironment};
use crate::source::SourceDomain;
use ca_recsys::{FallibleBlackBox, ItemId, RecError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A multi-target attack campaign sharing one CopyAttack policy across
/// items.
///
/// `Clone` snapshots the complete mutable state — policy networks, RNN,
/// crafting policy, baseline, mask, RNG position, and the learning curve —
/// so a cloned campaign trained later takes the exact trajectory the
/// original would have.
#[derive(Clone)]
pub struct Campaign {
    cfg: AttackConfig,
    proposer: CopyProposer,
    rng: StdRng,
    targets: Vec<ItemId>,
    curve: Vec<f32>,
}

/// How a resilient training run ended.
pub enum CampaignRun {
    /// All configured episodes ran; the full learning curve.
    Completed {
        /// Final reward per episode.
        curve: Vec<f32>,
    },
    /// The platform defeated an entire episode (no injection landed).
    /// The checkpoint was taken *before* the failed episode, so resuming
    /// retries it from a clean state.
    Interrupted {
        /// The campaign as it stood before the failed episode; call
        /// [`Campaign::train_resilient`] on it to resume (boxed — it
        /// carries the full policy state).
        checkpoint: Box<Campaign>,
        /// The platform error that ended the last attempted episode.
        cause: RecError,
    },
}

impl Campaign {
    /// Builds the shared policy over `targets` (source-domain ids), seeding
    /// its RNG from `cfg.seed`. Fails if `targets` is empty, the config is
    /// invalid, or any target has no source carrier. Every target's mask
    /// is validated up front — a broken target should fail construction,
    /// not episode 37.
    pub fn try_new(
        cfg: AttackConfig,
        variant: CopyAttackVariant,
        src: &SourceDomain<'_>,
        targets: Vec<ItemId>,
    ) -> Result<Self, AttackError> {
        if targets.is_empty() {
            return Err(AttackError::EmptyTargets);
        }
        cfg.validate().map_err(AttackError::InvalidConfig)?;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut proposer = CopyProposer::new(&cfg, variant, src, targets[0], &mut rng)?;
        for &t in &targets[1..] {
            proposer.retarget(cfg.goal, src, t)?;
        }
        Ok(Self { cfg, proposer, rng, targets, curve: Vec::new() })
    }

    /// Panicking wrapper over [`Campaign::try_new`].
    ///
    /// # Panics
    /// Panics if `targets` is empty, the config is invalid, or any target
    /// has no source carrier.
    pub fn new(
        cfg: AttackConfig,
        variant: CopyAttackVariant,
        src: &SourceDomain<'_>,
        targets: Vec<ItemId>,
    ) -> Self {
        Self::try_new(cfg, variant, src, targets).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The campaign's target set.
    pub fn targets(&self) -> &[ItemId] {
        &self.targets
    }

    /// Training episodes completed so far (across resumptions).
    pub fn episodes_completed(&self) -> usize {
        self.curve.len()
    }

    /// Final rewards of the completed episodes (across resumptions).
    pub fn curve(&self) -> &[f32] {
        &self.curve
    }

    /// Points the policy at `target_src`.
    ///
    /// # Panics
    /// Panics when the target has no selectable user under the mask.
    fn retarget(&mut self, src: &SourceDomain<'_>, target_src: ItemId) {
        self.proposer.retarget(self.cfg.goal, src, target_src).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Trains the remaining episodes (from [`Campaign::episodes_completed`]
    /// up to `cfg.episodes`), rotating through the target set round-robin.
    /// `make_env` receives the *source-domain* target id of the episode and
    /// must produce a fresh environment attacking that item.
    ///
    /// Per-call faults are absorbed inside each episode (retries, partial
    /// rewards, account re-establishment — see
    /// [`AttackEnvironment`]). When an *entire* episode fails — not one
    /// injection landed — the campaign rolls the aborted episode back and
    /// returns [`CampaignRun::Interrupted`] with a copy of itself taken
    /// before it, so training that copy later retries the episode with
    /// clean state.
    pub fn train_resilient<R: FallibleBlackBox>(
        &mut self,
        src: &SourceDomain<'_>,
        mut make_env: impl FnMut(ItemId) -> AttackEnvironment<R>,
    ) -> CampaignRun {
        while self.curve.len() < self.cfg.episodes {
            let t = self.targets[self.curve.len() % self.targets.len()];
            self.retarget(src, t);
            let pre = self.clone();
            let mut env = make_env(t);
            let outcome =
                run_episode(&mut env, src, &self.cfg, &mut self.proposer, &mut self.rng, true);
            if let Some(cause) = outcome.aborted {
                // Undo the aborted episode's policy update: the rewards it
                // saw were all platform noise, not signal.
                *self = pre.clone();
                return CampaignRun::Interrupted { checkpoint: Box::new(pre), cause };
            }
            self.curve.push(outcome.final_reward);
        }
        CampaignRun::Completed { curve: self.curve.clone() }
    }

    /// Executes one attack on `target_src` — which may be an item the
    /// campaign never trained on (zero-shot transfer) — without learning.
    ///
    /// # Panics
    /// Panics when `target_src` has no selectable user under the mask.
    pub fn execute_on<R: FallibleBlackBox>(
        &mut self,
        src: &SourceDomain<'_>,
        target_src: ItemId,
        env: &mut AttackEnvironment<R>,
    ) -> AttackOutcome {
        self.retarget(src, target_src);
        run_episode(env, src, &self.cfg, &mut self.proposer, &mut self.rng, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_mf::BprConfig;
    use ca_recsys::{BlackBoxRecommender, Dataset, DatasetBuilder, UserId};

    /// Counting fake platform (same flavor as the attack.rs tests): reward
    /// fires once enough injected profiles carried the marker item.
    struct CountingRec {
        good: usize,
        n_users: usize,
        target: ItemId,
        threshold: usize,
    }
    impl BlackBoxRecommender for CountingRec {
        fn top_k(&self, _u: UserId, k: usize) -> Vec<ItemId> {
            if self.good >= self.threshold {
                vec![self.target; k.min(1)]
            } else {
                vec![ItemId(9999); k.min(1)]
            }
        }
        fn inject_user(&mut self, profile: &[ItemId]) -> UserId {
            if profile.contains(&ItemId(777)) {
                self.good += 1;
            }
            let id = UserId(self.n_users as u32);
            self.n_users += 1;
            id
        }
        fn catalog_size(&self) -> usize {
            10_000
        }
    }

    /// 40 source users; items 3, 5, 9 each carried by a distinct third of
    /// the "good" users (who also carry marker 77).
    fn world() -> (Dataset, Vec<ItemId>) {
        let mut b = DatasetBuilder::new(100);
        for u in 0..40u32 {
            let mut profile = vec![ItemId(u % 30 + 30)];
            if u < 15 {
                profile.push(ItemId(3 + 2 * (u % 3))); // one of {3, 5, 7}
                profile.push(ItemId(77));
            }
            profile.push(ItemId((u * 11) % 25));
            b.user(&profile);
        }
        let map: Vec<ItemId> = (0..100).map(|s| ItemId(s * 10 + 7)).collect();
        (b.build(), map)
    }

    fn cfg() -> AttackConfig {
        AttackConfig {
            budget: 6,
            n_pretend: 1,
            query_every: 2,
            episodes: 30,
            tree_depth: 2,
            lr: 0.05,
            seed: 3,
            ..Default::default()
        }
    }

    fn bandit_env(map: &[ItemId], t: ItemId) -> AttackEnvironment<CountingRec> {
        AttackEnvironment::new(
            CountingRec { good: 0, n_users: 0, target: map[t.idx()], threshold: 2 },
            vec![UserId(0)],
            map[t.idx()],
            5,
            6,
        )
    }

    #[test]
    fn campaign_trains_across_targets_and_masks_correctly() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 3, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let targets = vec![ItemId(3), ItemId(5)];
        let mut campaign = Campaign::new(cfg(), CopyAttackVariant::no_crafting(), &src, targets);
        let CampaignRun::Completed { curve } =
            campaign.train_resilient(&src, |t| bandit_env(&map, t))
        else {
            panic!("reliable platform cannot interrupt");
        };
        assert_eq!(curve.len(), 30);
        // Every executed selection must respect the *current* target's mask.
        for &t in &[ItemId(3), ItemId(5)] {
            let mut env = bandit_env(&map, t);
            let o = campaign.execute_on(&src, t, &mut env);
            for u in &o.selected_users {
                assert!(src.has_item(*u, t), "campaign selected non-carrier {u} for {t}");
            }
        }
    }

    #[test]
    fn zero_shot_target_respects_its_own_mask() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 3, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        // Train on {3, 5}; execute on 7 which the campaign never saw.
        let mut campaign = Campaign::new(
            cfg(),
            CopyAttackVariant::no_crafting(),
            &src,
            vec![ItemId(3), ItemId(5)],
        );
        let CampaignRun::Completed { .. } = campaign.train_resilient(&src, |t| bandit_env(&map, t))
        else {
            panic!("reliable platform cannot interrupt");
        };
        let unseen = ItemId(7);
        let mut env = bandit_env(&map, unseen);
        let o = campaign.execute_on(&src, unseen, &mut env);
        assert!(!o.selected_users.is_empty());
        for u in &o.selected_users {
            assert!(src.has_item(*u, unseen), "zero-shot mask violated by {u}");
        }
        // All carriers are marker users, so the bandit reward fires.
        assert_eq!(o.final_reward, 1.0);
    }

    #[test]
    #[should_panic(expected = "no selectable source user")]
    fn campaign_rejects_uncarried_target_up_front() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let _ = Campaign::new(cfg(), CopyAttackVariant::full(), &src, vec![ItemId(3), ItemId(99)]);
    }

    #[test]
    fn try_new_surfaces_errors_instead_of_panicking() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let err = Campaign::try_new(cfg(), CopyAttackVariant::full(), &src, vec![])
            .err()
            .expect("empty target set");
        assert_eq!(err, crate::arena::AttackError::EmptyTargets);
        let err = Campaign::try_new(cfg(), CopyAttackVariant::full(), &src, vec![ItemId(99)])
            .err()
            .expect("uncarried target");
        assert!(err.to_string().contains("no selectable source user"), "{err}");
        let bad_cfg = AttackConfig { budget: 0, ..cfg() };
        let err = Campaign::try_new(bad_cfg, CopyAttackVariant::full(), &src, vec![ItemId(3)])
            .err()
            .expect("invalid config");
        assert!(err.to_string().contains("invalid attack config"), "{err}");
    }

    #[test]
    fn checkpoint_resume_reproduces_the_uninterrupted_curve() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 3, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let targets = vec![ItemId(3), ItemId(5)];

        // Reference: one uninterrupted resilient run of all 30 episodes.
        let mut reference =
            Campaign::new(cfg(), CopyAttackVariant::no_crafting(), &src, targets.clone());
        let CampaignRun::Completed { curve: full_curve } =
            reference.train_resilient(&src, |t| bandit_env(&map, t))
        else {
            panic!("reliable platform cannot interrupt");
        };
        assert_eq!(full_curve.len(), 30);

        // Interrupted run: the platform dies at the 12th episode (index 11).
        let mut interrupted = Campaign::new(cfg(), CopyAttackVariant::no_crafting(), &src, targets);
        let mut episode_no = 0usize;
        let run = interrupted.train_resilient(&src, |t| {
            let dead = episode_no == 11;
            episode_no += 1;
            AttackEnvironment::new(
                DownThenUp {
                    inner: CountingRec { good: 0, n_users: 0, target: map[t.idx()], threshold: 2 },
                    refusals_left: if dead { usize::MAX } else { 0 },
                },
                vec![UserId(0)],
                map[t.idx()],
                5,
                6,
            )
        });
        let CampaignRun::Interrupted { checkpoint, cause } = run else {
            panic!("episode 12's dead platform must interrupt");
        };
        assert_eq!(cause, RecError::AccountSuspended);
        assert_eq!(checkpoint.episodes_completed(), 11);
        assert_eq!(checkpoint.curve(), &full_curve[..11], "prefix must match the reference");

        // Later: resume from the snapshot on a healthy platform. The
        // aborted episode was rolled back, so the resumed run replays it
        // cleanly and the combined curve is bit-identical to the reference.
        let mut resumed = *checkpoint;
        let CampaignRun::Completed { curve: resumed_curve } =
            resumed.train_resilient(&src, |t| bandit_env(&map, t))
        else {
            panic!("healthy platform cannot interrupt");
        };
        assert_eq!(
            resumed_curve, full_curve,
            "resumed run must reproduce the uninterrupted curve exactly"
        );

        // The curve saturates at 1.0, so it cannot tell a rolled-back
        // checkpoint from one that kept the aborted episode's policy update
        // and RNG draws. The next executed attack depends on both.
        let t = ItemId(3);
        let executed =
            |c: &mut Campaign| c.execute_on(&src, t, &mut bandit_env(&map, t)).selected_users;
        assert_eq!(
            executed(&mut resumed),
            executed(&mut reference),
            "resumed policy must select exactly as the uninterrupted one"
        );
    }

    /// A platform that refuses every injection until `heal_after` accounts
    /// have been attempted, then behaves like the counting bandit.
    struct DownThenUp {
        inner: CountingRec,
        refusals_left: usize,
    }
    impl ca_recsys::FallibleBlackBox for DownThenUp {
        fn try_top_k(&mut self, u: UserId, k: usize) -> Result<Vec<ItemId>, RecError> {
            Ok(self.inner.top_k(u, k))
        }
        fn try_inject_user(&mut self, p: &[ItemId]) -> Result<UserId, RecError> {
            if self.refusals_left > 0 {
                self.refusals_left -= 1;
                return Err(RecError::AccountSuspended);
            }
            // ca-audit: allow(env-injection) — test fake forwarding to its inner in-memory platform
            Ok(self.inner.inject_user(p))
        }
        fn catalog_size(&self) -> usize {
            BlackBoxRecommender::catalog_size(&self.inner)
        }
    }

    #[test]
    fn total_outage_interrupts_with_a_resumable_checkpoint() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 3, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let mut campaign = Campaign::new(
            cfg(),
            CopyAttackVariant::no_crafting(),
            &src,
            vec![ItemId(3), ItemId(5)],
        );
        // The platform refuses every account forever: the very first
        // episode aborts.
        let run = campaign.train_resilient(&src, |t| {
            AttackEnvironment::new(
                DownThenUp {
                    inner: CountingRec { good: 0, n_users: 0, target: map[t.idx()], threshold: 2 },
                    refusals_left: usize::MAX,
                },
                vec![UserId(0)],
                map[t.idx()],
                5,
                6,
            )
        });
        let CampaignRun::Interrupted { checkpoint, cause } = run else {
            panic!("a dead platform must interrupt the campaign");
        };
        assert_eq!(cause, RecError::AccountSuspended);
        assert_eq!(checkpoint.episodes_completed(), 0);

        // Later, the platform is back: resume and finish all episodes.
        let mut resumed = *checkpoint;
        let run = resumed.train_resilient(&src, |t| {
            AttackEnvironment::new(
                DownThenUp {
                    inner: CountingRec { good: 0, n_users: 0, target: map[t.idx()], threshold: 2 },
                    refusals_left: 0,
                },
                vec![UserId(0)],
                map[t.idx()],
                5,
                6,
            )
        });
        let CampaignRun::Completed { curve } = run else {
            panic!("healed platform must complete");
        };
        assert_eq!(curve.len(), 30);
    }
}
