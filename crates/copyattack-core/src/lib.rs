//! CopyAttack: reinforcement-learning black-box attack on recommender
//! systems via copying cross-domain user profiles (Fan et al., ICDE 2021).
//!
//! The attack promotes a target item `v*` in a black-box target recommender
//! by copying *real* user profiles from a source domain that shares items
//! with the target domain. Three components (Figure 2 of the paper):
//!
//! 1. **User-profile selection** ([`selection`]) — a hierarchical-structure
//!    policy gradient over a balanced clustering tree of source users, with
//!    per-target-item masking;
//! 2. **User-profile crafting** ([`crafting`]) — a policy network choosing a
//!    clipping window `w ∈ {10%, …, 100%}` applied around the target item;
//! 3. **Injection & queries** ([`mod@env`]) — crafted profiles are injected
//!    through the black-box interface; the reward is the target item's hit
//!    ratio in the Top-k lists of the attacker's pretend users (Eq. 1).
//!
//! [`arena`] serves every attack by name: CopyAttack (the pieces above,
//! trained with REINFORCE, [`reinforce`]) and its CopyAttack−Masking /
//! CopyAttack−Length ablations, the paper's comparison methods from
//! [`baselines`] (RandomAttack, TargetAttack-40/70/100, the flat
//! PolicyNetwork), and two rival attacks. Every attack proposes profiles,
//! and every episode runs in one loop, `env::run_episode`.

#![forbid(unsafe_code)]

//!
//! Deployed platforms are not reliable: [`retry`] adds capped-backoff retry
//! policies in logical time, [`mod@env`] computes partial (quorum-gated)
//! rewards and re-establishes suspended pretend users, and [`campaign`]
//! trains one CopyAttack policy across several targets, checkpointed across
//! platform outages.

pub mod arena;
pub mod attack;
pub mod baselines;
pub mod campaign;
pub mod config;
pub mod crafting;
pub mod env;
pub mod reinforce;
pub mod retry;
pub mod selection;
pub mod source;

pub use arena::{Attack, AttackError, AttackRegistry, ItemKnowledge};
pub use attack::{AttackOutcome, CopyAttackVariant};
pub use campaign::{Campaign, CampaignRun};
pub use config::{AttackConfig, AttackGoal};
pub use env::{AttackEnvironment, RewardSample};
pub use retry::{ResilienceConfig, RetryPolicy};
pub use source::SourceDomain;
