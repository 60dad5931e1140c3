//! Neural-network substrate with hand-written backpropagation.
//!
//! The paper builds all of its learnable components out of three small
//! pieces, and this crate provides exactly those:
//!
//! - [`Linear`] / [`Mlp`] — the per-node policy networks of the
//!   hierarchical-structure policy gradient (§4.3.3) and the profile-crafting
//!   policy (§4.4) are MLP heads ending in a (masked) softmax;
//! - [`Rnn`] — the state encoder over already-selected source users
//!   (`x_{v*} = RNN(U^{B→A}_t)`, §4.3.3);
//! - [`optim`] — global-norm gradient clipping for the policy update;
//!   every layer carries its own plain-SGD `sgd_step` (the paper trains
//!   everything with learning rate 1e-3). The recommender trainers in
//!   `ca-train` step their towers with the same `sgd_step`.
//!
//! There is no autograd tape. Each layer's `forward` returns a cache of the
//! values its `backward` needs, and `backward` accumulates parameter
//! gradients into a mirror "grad" struct. Finite-difference tests in each
//! module check every gradient path.

#![forbid(unsafe_code)]

pub mod activation;
pub mod categorical;
pub mod linear;
pub mod mlp;
pub mod optim;
pub mod rnn;

pub use categorical::Categorical;
pub use linear::{Linear, LinearGrad};
pub use mlp::{Mlp, MlpCache, MlpGrad};
pub use optim::GradClip;
pub use rnn::{Rnn, RnnCache, RnnGrad};
