//! Synthetic cross-domain dataset generator.
//!
//! The paper evaluates on MovieLens-10M + Flixster and MovieLens-20M +
//! Netflix. Those corpora are licensed/retired downloads, so this crate
//! substitutes a *seeded synthetic generator* that reproduces every property
//! the attack actually consumes (see DESIGN.md §2):
//!
//! 1. **Shared latent structure across domains** — overlapping items keep
//!    the *same* ground-truth latent vector in both domains, so source-user
//!    behaviour is genuinely informative about target-domain preferences
//!    (the premise of cross-domain attacks).
//! 2. **Cluster structure among users** — user preference vectors are drawn
//!    around a small number of cluster centers, giving the hierarchical
//!    clustering tree something real to find.
//! 3. **Power-law item popularity** — a Zipf weight over items produces the
//!    head/tail skew behind the Figure 4 popularity analysis and the
//!    "< 10 interactions" cold target items.
//! 4. **Temporally coherent sequences** — profiles are ordered by a greedy
//!    similarity chain, so the paper's window-around-the-target-item
//!    crafting operation (§4.4) has meaningful context to keep.
//!
//! Presets mirror the *shape* of Table 1 at ~1/20 scale.

#![forbid(unsafe_code)]

pub mod config;
pub mod generator;
pub mod latent;

pub use config::{CrossDomainConfig, DomainConfig};
pub use generator::{generate, CrossDomainDataset};
pub use latent::LatentTruth;
