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
//!   into a driver-owned slot, plus a fixed-order apply, with optional
//!   per-epoch setup (stale-cache refresh) and an optional post-update
//!   validation score;
//! - [`fit`] is the epoch driver: in-order negative sampling on the single
//!   trainer RNG (O(1) seen lookups through a per-run bitset),
//!   minibatching, an early-stopping rule shared by every model, and a
//!   learning-rate schedule. It allocates its seen bitset, minibatch
//!   buffers and gradient slots once per run, so a training step allocates
//!   nothing once the slots have grown;
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
//! 3. gradients are applied in pair order through the configured
//!    [`Optimizer`] ([`optim`]): plain SGD is bitwise-identical to the
//!    historical hand-rolled update loops, and momentum and Adam keep their
//!    state in driver-owned [`OptState`] so they are exactly as
//!    reproducible.
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
//! against `best + tolerance` describes the model the caller receives —
//! never the previous epoch's parameters.

#![forbid(unsafe_code)]

pub mod config;
pub mod driver;
pub mod observe;
pub mod optim;

pub use config::{LrSchedule, TrainConfig};
pub use driver::{fit, fit_seeded, PairwiseModel, StopReason, TrainOutcome};
pub use observe::{EpochStats, History, NullObserver, StderrProgress, Tee, TrainObserver};
pub use optim::{OptState, Optimizer, Step};
