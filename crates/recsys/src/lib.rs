//! Recommender-system data model and evaluation protocol.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! - [`UserId`] / [`ItemId`] newtypes;
//! - [`Dataset`] — the interaction matrix `Y` stored as *sequential user
//!   profiles* `P_u` (the paper's `v_1 → v_2 → …`) plus inverted *item
//!   profiles* `P_v` (the users who interacted with `v`);
//! - [`split`] — the 80/10/10 train/validation/test split of §5.1.3;
//! - [`metrics`] / [`eval`] — HR@K and NDCG@K under the paper's sampled
//!   ranking protocol ("randomly sample 100 items that the user did not
//!   interact with and then rank the test item among them", §5.1.2);
//! - [`blackbox::BlackBoxRecommender`] — the *only* interface the attacker
//!   is allowed to touch: inject a profile, query Top-k lists (one at a
//!   time or batched);
//! - [`engine`] — the shared batched scoring engine, the one ranking
//!   implementation every target model routes through:
//!   [`engine::ScoringEngine`] scores a batch of users and hands out each
//!   user's seen items as one ascending run, and
//!   [`engine::top_k_from_scores`] ranks a score row in one pass over the
//!   unseen runs between them, and [`engine::AnswerCache`] answers each
//!   platform's queries from its earlier answers wherever that is exact;
//! - [`blackbox::FallibleBlackBox`] / [`faults`] — the same surface on an
//!   *unreliable* platform: typed errors ([`RecError`]), plus a
//!   deterministic fault injector ([`FaultyRecommender`]) for chaos testing
//!   resilient attack loops;
//! - [`popularity`] — item-popularity deciles for the Figure 4 analysis.

#![forbid(unsafe_code)]

pub mod blackbox;
pub mod dataset;
pub mod engine;
pub mod eval;
pub mod faults;
pub mod ids;
pub mod knn;
pub mod metrics;
pub mod popularity;
pub mod split;

pub use blackbox::{BlackBoxRecommender, FallibleBlackBox, MeteredFallible};
pub use dataset::{Dataset, DatasetBuilder};
pub use engine::{
    batch_top_k, top_k_from_scores, top_k_from_scores_into, AnswerCache, ScoringEngine,
};
pub use eval::{RankingEval, Scorer};
pub use faults::{FaultConfig, FaultStats, FaultyRecommender, RateLimit, RecError, SplitMix64};
pub use ids::{ItemId, UserId};
pub use popularity::PopularityRecommender;
pub use split::{split_dataset, HeldOut, Split};
