//! # copyattack
//!
//! A full Rust reproduction of *"Attacking Black-box Recommendations via
//! Copying Cross-domain User Profiles"* (Fan et al., ICDE 2021): the
//! CopyAttack framework, every substrate it runs on, the paper's baselines
//! and ablations, and a harness regenerating each table and figure.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`par`] | `ca-par` | deterministic scoped-thread runtime (`CA_THREADS`) |
//! | [`tensor`] | `ca-tensor` | dense linear algebra |
//! | [`nn`] | `ca-nn` | MLP / RNN layers with manual backprop, REINFORCE head |
//! | [`recsys`] | `ca-recsys` | datasets, black-box interface, HR/NDCG evaluation |
//! | [`datagen`] | `ca-datagen` | synthetic cross-domain worlds (Table 1 shapes) |
//! | [`mf`] | `ca-mf` | BPR matrix factorization |
//! | [`train`] | `ca-train` | shared deterministic BPR trainer + telemetry |
//! | [`gnn`] | `ca-gnn` | PinSage-like inductive target recommender |
//! | [`ncf`] | `ca-ncf` | NeuMF-style transductive target recommender (fine-tune cycle) |
//! | [`cluster`] | `ca-cluster` | balanced hierarchical clustering tree + masking |
//! | [`core`] | `copyattack-core` | the attack: selection, crafting, env, RL |
//! | [`detect`] | `ca-detect` | shilling-attack detectors (profile realism) |
//! | [`pipeline`] | this crate | end-to-end experiment pipeline |
//!
//! ## Quickstart
//!
//! ```no_run
//! use copyattack::pipeline::{Pipeline, PipelineConfig};
//!
//! let cfg = PipelineConfig::tiny(42);
//! let pipe = Pipeline::build(&cfg);
//! let row = pipe.run_attack_over_targets("CopyAttack", 4);
//! println!("CopyAttack HR@20 = {:.4}", row.metrics.hr(20));
//! ```

#![forbid(unsafe_code)]

pub use ca_cluster as cluster;
pub use ca_datagen as datagen;
pub use ca_detect as detect;
pub use ca_gnn as gnn;
pub use ca_mf as mf;
pub use ca_ncf as ncf;
pub use ca_nn as nn;
pub use ca_par as par;
pub use ca_recsys as recsys;
pub use ca_tensor as tensor;
pub use ca_train as train;
pub use copyattack_core as core;

pub mod pipeline;
