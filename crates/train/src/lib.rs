//! Shared deterministic BPR trainer for every pairwise model in the
//! workspace.
//!
//! CopyAttack trains recommenders in three places — the attacker's
//! source-domain MF surrogate (§4.1), the frozen-feature MF used by the
//! target GNN, and the deployed target models themselves (PinSage-like GNN,
//! NeuMF-lite) — and before this crate existed each model crate carried its
//! own near-identical epoch loop. `ca-train` owns that loop once:
//!
//! - [`PairwiseModel`] is the contract a model implements to be trainable:
//!   a per-pair gradient against the **frozen batch-start model**, written
//!   into a driver-owned slot, plus a fixed-order plain-SGD apply at the
//!   run's learning rate, with optional per-epoch setup (stale-cache
//!   refresh) and an optional post-update validation score;
//! - [`fit`] is the epoch driver: in-order negative sampling on the single
//!   trainer RNG (O(1) seen lookups through a per-run bitset),
//!   minibatching, and an early-stopping rule shared by every model. It
//!   allocates its seen bitset, minibatch buffers and gradient slots once
//!   per run, so a training step allocates nothing once the slots have
//!   grown;
//! - [`TrainConfig`] unifies the hyper-parameters that used to drift across
//!   the per-crate configs (`epochs` vs `max_epochs`, early stopping only
//!   in some crates);
//! - [`TrainObserver`] is the telemetry hook: every epoch reports loss,
//!   pairs/sec, the learning rate, and the validation score to observers
//!   such as [`History`] (structured record) and [`StderrProgress`] (live
//!   log lines).
//!
//! # Determinism
//!
//! Training is serial, and the same seed gives a **bitwise-identical
//! model**:
//!
//! 1. shuffling and negative sampling draw from one trainer RNG, in pair
//!    order; the random stream never depends on the minibatch size;
//! 2. per-pair gradients are pure functions of the frozen batch-start
//!    model, computed in pair order into one driver-owned slot per
//!    minibatch position (a slot's old contents never reach a gradient);
//! 3. gradients are applied in pair order as plain SGD at one constant
//!    rate, `param += ±lr · grad` element by element, bitwise-identical to
//!    the historical hand-rolled update loops. The driver keeps no state
//!    between steps, so a run is fully described by the model and the
//!    trainer RNG's position.
//!
//! Telemetry is computed *outside* that loop (loss folds over the returned
//! losses in pair order), so observing a run never perturbs it.
//!
//! # Stop criterion
//!
//! Early stopping always reads the **post-update** validation score: the
//! score computed after the epoch's gradients have been applied. The epoch
//! counted by `epochs_run` is therefore exactly the set of epochs whose
//! updates are present in the returned model, and the score compared
//! against `best + 1e-5` describes the model the caller receives — never
//! the previous epoch's parameters.

#![forbid(unsafe_code)]

pub mod config;
pub mod driver;
pub mod observe;

pub use config::TrainConfig;
pub use driver::{fit, PairwiseModel, StopReason, TrainOutcome};
pub use observe::{EpochStats, History, NullObserver, StderrProgress, Tee, TrainObserver};
