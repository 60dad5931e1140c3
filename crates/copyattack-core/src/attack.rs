//! CopyAttack's decisions: selection + crafting with REINFORCE training
//! (§4), including the CopyAttack−Masking and CopyAttack−Length ablations.
//! The registry serves them under the keys `CopyAttack`,
//! `CopyAttack-Masking` and `CopyAttack-Length` ([`crate::arena`]), and
//! [`crate::campaign`] trains them across several targets. The
//! injection/query loop is `env::run_episode`'s.

use crate::arena::AttackError;
use crate::config::{AttackConfig, AttackGoal};
use crate::crafting::{clip_around_target, CraftingPolicy, CraftingSample};
use crate::env::{Proposal, Proposer, Step};
use crate::reinforce::Baseline;
use crate::selection::{HierarchicalPolicy, SelectionSample};
use crate::source::SourceDomain;
use ca_cluster::{ClusterTree, TreeMask};
use ca_nn::GradClip;
use ca_recsys::{ItemId, RecError, UserId};
use rand::rngs::StdRng;

/// Which CopyAttack components are enabled (for the paper's ablations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyAttackVariant {
    /// Use the per-target-item masking mechanism (§4.3.2).
    pub masking: bool,
    /// Use the profile-crafting policy (§4.4).
    pub crafting: bool,
}

impl CopyAttackVariant {
    /// The full framework.
    pub fn full() -> Self {
        Self { masking: true, crafting: true }
    }

    /// CopyAttack−Masking: any source user may be selected. The paper also
    /// removes crafting here "since the attack has larger probability to
    /// select the user profile without the target items".
    pub fn no_masking() -> Self {
        Self { masking: false, crafting: false }
    }

    /// CopyAttack−Length: masking on, crafting removed (raw profiles are
    /// injected).
    pub fn no_crafting() -> Self {
        Self { masking: true, crafting: false }
    }
}

/// Result of one attack episode (training or final execution).
#[derive(Clone, Debug)]
pub struct AttackOutcome {
    /// The Eq. 1 reward after the last query (fraction of pretend users
    /// with the target item in their Top-k list). On an unreliable
    /// platform this is the last *observed* (quorum-meeting) reward.
    pub final_reward: f32,
    /// Profiles injected.
    pub injections: usize,
    /// Top-k queries issued (attempts — failed calls and retries included).
    pub queries: u64,
    /// Mean length of the injected (crafted) profiles — Table 2's
    /// "# Average Items per User Profile".
    pub avg_items_per_profile: f32,
    /// The source users that were copied.
    pub selected_users: Vec<UserId>,
    /// Injection attempts in this episode that failed even after retries
    /// (the timestep is spent, the budget is not).
    pub failed_injections: usize,
    /// Reward rounds in this episode skipped for lack of quorum.
    pub skipped_rewards: usize,
    /// Set when the platform defeated the *whole* episode: at least one
    /// injection was attempted and none succeeded. Carries the last
    /// platform error; campaigns use it to checkpoint and stop.
    pub aborted: Option<RecError>,
}

/// Builds the selection mask for `target_src`.
///
/// Masking is goal-dependent: promotion needs profiles *containing* the
/// target item (they are the only ones that can move its aggregates);
/// demotion inverts the predicate — injecting carriers would raise the
/// item's interaction count and promote it, so the agent selects among
/// non-carriers and learns which of them lift competing items past the
/// target.
fn build_mask(
    variant: CopyAttackVariant,
    goal: AttackGoal,
    tree: &ClusterTree,
    src: &SourceDomain<'_>,
    target_src: ItemId,
) -> Result<TreeMask, AttackError> {
    let mask = if variant.masking {
        match goal {
            AttackGoal::Promote => TreeMask::for_predicate(tree, |u| src.has_item(u, target_src)),
            AttackGoal::Demote => TreeMask::for_predicate(tree, |u| !src.has_item(u, target_src)),
        }
    } else {
        TreeMask::allow_all(tree)
    };
    if !mask.any_allowed() {
        return Err(AttackError::NoSelectableUser { target_src, goal });
    }
    Ok(mask)
}

/// CopyAttack's decisions (§4.3–§4.4): hierarchical selection under the
/// mask, then crafting around the target item. The episode itself is
/// `env::run_episode`'s.
#[derive(Clone)]
pub(crate) struct CopyProposer {
    variant: CopyAttackVariant,
    policy: HierarchicalPolicy,
    crafting: CraftingPolicy,
    baseline: Baseline,
    mask: TreeMask,
    target_src: ItemId,
}

impl CopyProposer {
    /// Builds the clustering tree over source-user MF embeddings, the
    /// per-node policy networks, the crafting policy, and the target-item
    /// mask, drawing initial weights from `rng`.
    pub(crate) fn new(
        cfg: &AttackConfig,
        variant: CopyAttackVariant,
        src: &SourceDomain<'_>,
        target_src: ItemId,
        rng: &mut StdRng,
    ) -> Result<Self, AttackError> {
        let tree = ClusterTree::build_with_depth(&src.user_embeddings(), cfg.tree_depth, rng);
        let policy = HierarchicalPolicy::new(rng, tree, src.dim(), cfg.hidden);
        let crafting = CraftingPolicy::new(rng, src.dim(), cfg.hidden, cfg.clip_fractions());
        let mask = build_mask(variant, cfg.goal, policy.tree(), src, target_src)?;
        let baseline = Baseline::new(cfg.budget);
        Ok(Self { variant, policy, crafting, baseline, mask, target_src })
    }

    /// Switches to a new target item, rebuilding the mask while *keeping*
    /// the trained policy networks, RNN, crafting policy, and baseline.
    /// Because the state contains the target item's embedding `q_{v*}`, a
    /// policy trained on several targets can generalize to items it never
    /// attacked — see [`crate::campaign`].
    ///
    /// Fails (leaving the proposer on its previous target) when the new
    /// target has no selectable user under the mask.
    pub(crate) fn retarget(
        &mut self,
        goal: AttackGoal,
        src: &SourceDomain<'_>,
        target_src: ItemId,
    ) -> Result<(), AttackError> {
        self.mask = build_mask(self.variant, goal, self.policy.tree(), src, target_src)?;
        self.target_src = target_src;
        Ok(())
    }
}

impl Proposer for CopyProposer {
    type Sample = (Option<SelectionSample>, Option<CraftingSample>);

    fn propose(&mut self, step: &Step<'_>, rng: &mut StdRng) -> Proposal<Self::Sample> {
        let src = step.src;
        let q_target = src.item_embedding(self.target_src);
        let (user, sel) = if step.t == 0 {
            // The first action is seeded at random (§4.3.3): the RNN has
            // nothing to encode yet.
            (self.policy.random_allowed_user(&self.mask, rng), None)
        } else {
            let prev: Vec<&[f32]> = step.selected.iter().map(|&u| src.user_embedding(u)).collect();
            let s = self.policy.select(q_target, &prev, &self.mask, rng);
            (s.user, Some(s))
        };
        let raw = src.data.profile(user);
        let (crafted, craft) = if self.variant.crafting && src.has_item(user, self.target_src) {
            let (fraction, cs) = self.crafting.sample(src.user_embedding(user), q_target, rng);
            (clip_around_target(raw, self.target_src, fraction), Some(cs))
        } else {
            (raw.to_vec(), None)
        };
        Proposal { profile: src.translate(&crafted), copied: Some(user), sample: (sel, craft) }
    }

    /// REINFORCE with the per-step baseline; both the selection and the
    /// crafting gradients are clipped to `cfg.grad_clip` in global norm.
    fn learn(&mut self, cfg: &AttackConfig, samples: Vec<Self::Sample>, rewards: &[f32]) {
        let advantages = self.baseline.advantages(rewards, cfg.discount);
        let mut policy_grads = self.policy.zero_grads();
        let mut craft_grads = self.crafting.zero_grad();
        let mut any_craft = false;
        for ((sel, craft), adv) in samples.iter().zip(advantages) {
            if let Some(s) = sel {
                self.policy.accumulate(s, adv, &mut policy_grads);
            }
            if let Some(c) = craft {
                self.crafting.accumulate(c, adv, &mut craft_grads);
                any_craft = true;
            }
        }
        let clip = GradClip { max_norm: cfg.grad_clip };
        policy_grads.scale(clip.scale_for(policy_grads.norm()));
        self.policy.apply(&policy_grads, cfg.lr);
        if any_craft {
            craft_grads.scale(clip.scale_for(craft_grads.norm()));
            self.crafting.apply(&craft_grads, cfg.lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::AttackRegistry;
    use crate::campaign::{Campaign, CampaignRun};
    use crate::env::AttackEnvironment;
    use ca_mf::BprConfig;
    use ca_recsys::{BlackBoxRecommender, Dataset, DatasetBuilder};
    use rand::SeedableRng;

    /// A contrived target platform where the reward is fully determined by
    /// *which* users are copied: the item enters the pretend users' Top-k
    /// once at least `threshold` injected profiles came from "good" source
    /// users (ids 0..10). This isolates the RL loop from the recommender.
    struct CountingRec {
        good_injections: usize,
        n_users: usize,
        target: ItemId,
        threshold: usize,
    }

    impl BlackBoxRecommender for CountingRec {
        fn top_k(&self, _user: UserId, k: usize) -> Vec<ItemId> {
            if self.good_injections >= self.threshold {
                vec![self.target; k.min(1)]
            } else {
                vec![ItemId(9999); k.min(1)]
            }
        }
        fn inject_user(&mut self, profile: &[ItemId]) -> UserId {
            // Profiles from good users carry the marker item 777.
            if profile.contains(&ItemId(777)) {
                self.good_injections += 1;
            }
            let id = UserId(self.n_users as u32);
            self.n_users += 1;
            id
        }
        fn catalog_size(&self) -> usize {
            10_000
        }
    }

    /// A fresh bandit episode: one pretend user, target item 57 (source
    /// item 5), reward at k = 5, budget 6.
    fn bandit_env(threshold: usize) -> AttackEnvironment<CountingRec> {
        AttackEnvironment::new(
            CountingRec { good_injections: 0, n_users: 0, target: ItemId(57), threshold },
            vec![UserId(0)],
            ItemId(57),
            5,
            6,
        )
    }

    /// One untrained evaluation episode of the registry key `name` against
    /// source item 5 on a fresh bandit.
    fn execute(
        name: &str,
        cfg: &AttackConfig,
        src: &SourceDomain<'_>,
        threshold: usize,
    ) -> AttackOutcome {
        let registry = AttackRegistry::<CountingRec>::with_builtins();
        let mut attack = registry.build(name, cfg, src, ItemId(5)).unwrap();
        // A learned attack draws from its own stream, never this one.
        let mut unused = StdRng::seed_from_u64(0);
        attack.run(&mut bandit_env(threshold), src, ItemId(5), &mut unused)
    }

    /// Source domain: 30 users; users 0..10 ("good") have profiles
    /// containing the target item 5 and the marker 77; the rest only have
    /// filler items.
    fn source_world() -> (Dataset, Vec<ItemId>) {
        let mut b = DatasetBuilder::new(100);
        for u in 0..30u32 {
            let mut profile = vec![ItemId(u % 50 + 20)];
            if u < 10 {
                profile.push(ItemId(5)); // target (source id)
                profile.push(ItemId(77)); // marker
            }
            profile.push(ItemId((u * 7) % 20));
            b.user(&profile);
        }
        // Source item s maps to target item s*10 + 7 (marker 77 → 777).
        let map: Vec<ItemId> = (0..100).map(|s| ItemId(s * 10 + 7)).collect();
        (b.build(), map)
    }

    fn quick_cfg() -> AttackConfig {
        AttackConfig {
            budget: 6,
            n_pretend: 1,
            query_every: 2,
            episodes: 40,
            tree_depth: 2,
            lr: 0.05,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn masking_restricts_selection_to_carriers() {
        let (ds, map) = source_world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 3, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let outcome = execute("CopyAttack", &quick_cfg(), &src, 3);
        // The masking property: every selected user's profile contains the
        // target item. (Note u15 also carries item 5 through its filler
        // item `(15·7) mod 20`, so "good" marker users are a strict subset
        // of the carriers.)
        for u in &outcome.selected_users {
            assert!(src.has_item(*u, ItemId(5)), "masked agent selected non-carrier {u}");
        }
    }

    #[test]
    fn unmasked_variant_can_select_anyone_and_skips_crafting() {
        let (ds, map) = source_world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 3, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let outcome = execute("CopyAttack-Masking", &quick_cfg(), &src, 3);
        assert_eq!(outcome.injections, outcome.selected_users.len());
    }

    #[test]
    fn training_improves_reward_on_the_contrived_bandit() {
        let (ds, map) = source_world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 3, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        // Without masking the agent must *learn* to pick good users.
        let cfg = AttackConfig { episodes: 300, lr: 0.1, ..quick_cfg() };
        let mut campaign =
            Campaign::new(cfg, CopyAttackVariant::no_masking(), &src, vec![ItemId(5)]);
        let CampaignRun::Completed { curve } = campaign.train_resilient(&src, |_| bandit_env(3))
        else {
            panic!("reliable platform cannot interrupt");
        };
        let early: f32 = curve[..50].iter().sum::<f32>() / 50.0;
        let late: f32 = curve[curve.len() - 50..].iter().sum::<f32>() / 50.0;
        assert!(
            late > early + 0.1,
            "no learning: early {early:.3} late {late:.3} (curve {curve:?})"
        );
    }

    #[test]
    fn masked_full_variant_succeeds_immediately_on_the_bandit() {
        // With masking, every selectable user is good, so the attack should
        // reach reward 1 within the first episodes and stop early.
        let (ds, map) = source_world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 3, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let outcome = execute("CopyAttack-Length", &quick_cfg(), &src, 3);
        assert_eq!(outcome.final_reward, 1.0);
        // Early termination: 3 good injections, queries every 2 → stops at 4.
        assert!(outcome.injections <= 4, "no early stop: {}", outcome.injections);
    }

    #[test]
    fn crafted_profiles_are_shorter_on_average() {
        let (ds, map) = source_world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 3, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let run = |name: &str, seed: u64| {
            let cfg = AttackConfig { seed, ..quick_cfg() };
            execute(name, &cfg, &src, 999).avg_items_per_profile
        };
        // Average over seeds to avoid one-off sampling flukes.
        let crafted: f32 = (0..5).map(|s| run("CopyAttack", s)).sum::<f32>() / 5.0;
        let raw: f32 = (0..5).map(|s| run("CopyAttack-Length", s)).sum::<f32>() / 5.0;
        assert!(crafted < raw, "crafted {crafted} !< raw {raw}");
    }
}
