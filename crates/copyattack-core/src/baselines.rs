//! The paper's baseline attacks (§5.1.4) as profile proposers: RandomAttack,
//! the TargetAttack-{40,70,100} family, and the flat PolicyNetwork agent.
//! The registry ([`crate::arena::AttackRegistry`]) serves them through the
//! one episode loop like every other attack.

use crate::arena::AttackError;
use crate::config::{AttackConfig, AttackGoal};
use crate::crafting::{clip_around_target, CraftingPolicy, CraftingSample};
use crate::env::{Proposal, Proposer, Step};
use crate::reinforce::Baseline;
use crate::selection::{FlatPolicy, FlatSample};
use crate::source::SourceDomain;
use ca_nn::GradClip;
use ca_recsys::{ItemId, UserId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// RandomAttack: copies uniformly random source-domain user profiles, no
/// constraint, no crafting. "Randomly sample cross-domain user profiles to
/// attack the target recommender systems."
pub(crate) struct RandomAttack;

impl Proposer for RandomAttack {
    type Sample = ();

    fn propose(&mut self, step: &Step<'_>, rng: &mut StdRng) -> Proposal<()> {
        let u = UserId(rng.gen_range(0..step.src.n_users() as u32));
        Proposal {
            profile: step.src.translate(step.src.data.profile(u)),
            copied: Some(u),
            sample: (),
        }
    }
}

/// TargetAttack-⌊100·fraction⌋: samples source users whose profiles contain
/// the target item and clips each profile to `fraction` of its length
/// around the target (fraction 1.0 = TargetAttack100, no crafting).
///
/// Each episode shuffles the carrier pool and draws from it without
/// replacement until the pool is used up, then with replacement.
pub(crate) struct TargetAttack {
    target_src: ItemId,
    fraction: f32,
    order: Vec<UserId>,
}

impl TargetAttack {
    /// Fails with [`AttackError::NoCarriers`] when no source profile
    /// contains the target item.
    pub(crate) fn try_new(
        src: &SourceDomain<'_>,
        target_src: ItemId,
        fraction: f32,
    ) -> Result<Self, AttackError> {
        if src.users_with_item(target_src).is_empty() {
            return Err(AttackError::NoCarriers { target_src });
        }
        Ok(Self { target_src, fraction, order: Vec::new() })
    }
}

impl Proposer for TargetAttack {
    type Sample = ();

    fn propose(&mut self, step: &Step<'_>, rng: &mut StdRng) -> Proposal<()> {
        if step.t == 0 {
            self.order = step.src.users_with_item(self.target_src);
            self.order.shuffle(rng);
        }
        let n = self.order.len();
        let u = if step.t < n { self.order[step.t] } else { self.order[rng.gen_range(0..n)] };
        let crafted = clip_around_target(step.src.data.profile(u), self.target_src, self.fraction);
        Proposal { profile: step.src.translate(&crafted), copied: Some(u), sample: () }
    }
}

/// The PolicyNetwork baseline: the same RL loop as CopyAttack but with one
/// flat softmax over all source users instead of the clustering tree
/// (crafting retained). Per-decision cost is O(|U^B|), which is the
/// baseline the paper could not finish within 48 hours on Netflix.
pub(crate) struct FlatPolicyAgent {
    policy: FlatPolicy,
    crafting: CraftingPolicy,
    baseline: Baseline,
    user_mask: Vec<bool>,
    target_src: ItemId,
}

impl FlatPolicyAgent {
    /// Builds the agent with the target-item user mask, drawing initial
    /// weights from `rng` (`cfg` is validated by the registry). Fails on a
    /// target item no source user may be selected for.
    pub(crate) fn try_new(
        cfg: &AttackConfig,
        src: &SourceDomain<'_>,
        target_src: ItemId,
        rng: &mut StdRng,
    ) -> Result<Self, AttackError> {
        let policy = FlatPolicy::new(rng, src.n_users(), src.dim(), cfg.hidden);
        let crafting = CraftingPolicy::new(rng, src.dim(), cfg.hidden, cfg.clip_fractions());
        let user_mask: Vec<bool> = (0..src.n_users())
            .map(|u| {
                let has = src.has_item(UserId(u as u32), target_src);
                match cfg.goal {
                    AttackGoal::Promote => has,
                    AttackGoal::Demote => !has,
                }
            })
            .collect();
        if !user_mask.iter().any(|&m| m) {
            return Err(AttackError::NoCarriers { target_src });
        }
        let baseline = Baseline::new(cfg.budget);
        Ok(Self { policy, crafting, baseline, user_mask, target_src })
    }
}

impl Proposer for FlatPolicyAgent {
    type Sample = (Option<FlatSample>, Option<CraftingSample>);

    fn propose(&mut self, step: &Step<'_>, rng: &mut StdRng) -> Proposal<Self::Sample> {
        let src = step.src;
        let q_target = src.item_embedding(self.target_src);
        let (user, sel) = if step.t == 0 {
            let allowed: Vec<u32> =
                (0..self.user_mask.len() as u32).filter(|&u| self.user_mask[u as usize]).collect();
            (UserId(allowed[rng.gen_range(0..allowed.len())]), None)
        } else {
            let prev: Vec<&[f32]> = step.selected.iter().map(|&u| src.user_embedding(u)).collect();
            let s = self.policy.select(q_target, &prev, &self.user_mask, rng);
            (s.user, Some(s))
        };
        let raw = src.data.profile(user);
        // Every carrier is crafted; there is no crafting-off variant.
        let (crafted, craft) = if src.has_item(user, self.target_src) {
            let (fraction, cs) = self.crafting.sample(src.user_embedding(user), q_target, rng);
            (clip_around_target(raw, self.target_src, fraction), Some(cs))
        } else {
            (raw.to_vec(), None)
        };
        Proposal { profile: src.translate(&crafted), copied: Some(user), sample: (sel, craft) }
    }

    /// REINFORCE with the per-step baseline. Unlike CopyAttack, only the
    /// crafting gradient is clipped; the flat policy's is applied as is.
    fn learn(&mut self, cfg: &AttackConfig, samples: Vec<Self::Sample>, rewards: &[f32]) {
        let advantages = self.baseline.advantages(rewards, cfg.discount);
        let mut grads = self.policy.zero_grads();
        let mut craft_grads = self.crafting.zero_grad();
        let mut any_craft = false;
        for ((sel, craft), adv) in samples.iter().zip(advantages) {
            if let Some(s) = sel {
                self.policy.accumulate(s, adv, &mut grads);
            }
            if let Some(c) = craft {
                self.crafting.accumulate(c, adv, &mut craft_grads);
                any_craft = true;
            }
        }
        self.policy.apply(&grads, cfg.lr);
        if any_craft {
            let clip = GradClip { max_norm: cfg.grad_clip };
            craft_grads.scale(clip.scale_for(craft_grads.norm()));
            self.crafting.apply(&craft_grads, cfg.lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::AttackRegistry;
    use crate::attack::AttackOutcome;
    use crate::env::AttackEnvironment;
    use ca_mf::BprConfig;
    use ca_recsys::{BlackBoxRecommender, Dataset, DatasetBuilder};
    use rand::SeedableRng;

    /// Trivial platform: top-1 list is always item 0; reward only meaningful
    /// through the metering (these tests target selection/crafting logic).
    struct NullRec {
        n_users: usize,
    }
    impl BlackBoxRecommender for NullRec {
        fn top_k(&self, _u: UserId, k: usize) -> Vec<ItemId> {
            (0..k as u32).map(ItemId).collect()
        }
        fn inject_user(&mut self, _p: &[ItemId]) -> UserId {
            let id = UserId(self.n_users as u32);
            self.n_users += 1;
            id
        }
        fn catalog_size(&self) -> usize {
            1000
        }
    }

    fn world() -> (Dataset, Vec<ItemId>) {
        let mut b = DatasetBuilder::new(50);
        for u in 0..40u32 {
            let mut profile: Vec<ItemId> = (0..6).map(|i| ItemId((u + i * 5) % 45 + 5)).collect();
            if u.is_multiple_of(4) {
                profile.insert(3, ItemId(2)); // carrier users
            }
            b.user(&profile);
        }
        let map: Vec<ItemId> = (0..50).map(ItemId).collect();
        (b.build(), map)
    }

    /// Builds `name` from the registry and runs one episode on item 2 with
    /// an environment whose budget is `cfg.budget`.
    fn run(name: &str, cfg: &AttackConfig, src: &SourceDomain<'_>, seed: u64) -> AttackOutcome {
        let reg: AttackRegistry<NullRec> = AttackRegistry::with_builtins();
        let mut attack = reg.build(name, cfg, src, ItemId(2)).unwrap();
        let mut env = AttackEnvironment::new(
            NullRec { n_users: 0 },
            vec![UserId(0)],
            ItemId(2),
            5,
            cfg.budget,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        attack.run(&mut env, src, ItemId(2), &mut rng)
    }

    #[test]
    fn random_attack_spends_exactly_the_budget() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let cfg = AttackConfig { budget: 12, ..Default::default() };
        let o = run("RandomAttack", &cfg, &src, 1);
        assert_eq!(o.injections, 12);
        assert_eq!(o.selected_users.len(), 12);
        assert!(o.avg_items_per_profile > 0.0);
        // One reward round, after the last injection.
        assert_eq!(o.queries, 1);
    }

    #[test]
    fn target_attack_selects_only_carriers() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let cfg = AttackConfig { budget: 15, ..Default::default() };
        let o = run("TargetAttack70", &cfg, &src, 2);
        for u in &o.selected_users {
            assert!(src.has_item(*u, ItemId(2)), "non-carrier {u} selected");
        }
        // 10 carriers, budget 15 → replacement kicks in.
        assert_eq!(o.injections, 15);
    }

    #[test]
    fn clipping_fraction_controls_profile_length() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let cfg = AttackConfig { budget: 10, ..Default::default() };
        let len = |name: &str| run(name, &cfg, &src, 3).avg_items_per_profile;
        let (l40, l70, l100) =
            (len("TargetAttack40"), len("TargetAttack70"), len("TargetAttack100"));
        assert!(l40 < l70 && l70 < l100, "{l40} {l70} {l100}");
        // Carrier profiles have 7 items.
        assert!((l100 - 7.0).abs() < 1e-4);
    }

    #[test]
    fn flat_agent_masks_non_carriers() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let cfg = AttackConfig {
            budget: 8,
            query_every: 4,
            episodes: 2,
            tree_depth: 2,
            seed: 4,
            ..Default::default()
        };
        let o = run("PolicyNetwork", &cfg, &src, 0);
        for u in &o.selected_users {
            assert!(src.has_item(*u, ItemId(2)), "flat agent picked non-carrier {u}");
        }
    }
}
