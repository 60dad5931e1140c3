//! Matrix factorization with BPR training.
//!
//! CopyAttack uses MF in two places (§4.3.1, §4.3.3, §4.4):
//!
//! 1. **source-domain user representations** `p^B_u` — the feature space in
//!    which the hierarchical clustering tree is built;
//! 2. **source-domain item representations** `q^B_v` — the target-item half
//!    of every policy-network state.
//!
//! The paper trains these "with Matrix Factorization techniques" on implicit
//! feedback; we use the standard BPR pairwise objective (Rendle et al.),
//! which is the default way to fit Koren-style MF to implicit data.
//!
//! The model is also a perfectly serviceable recommender on its own, so it
//! doubles as a *second* target model for transferability experiments (see
//! `examples/cross_domain_transfer.rs`); [`MfRecommender`] deploys it
//! behind the black-box surface with mean-embedding fold-in of injected
//! accounts.

#![forbid(unsafe_code)]

pub mod bpr;
pub mod model;
pub mod recommender;

pub use bpr::{train, train_observed, BprConfig};
pub use model::MfModel;
pub use recommender::MfRecommender;
