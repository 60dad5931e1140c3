//! The attack arena: a uniform [`Attack`] trait and a string-keyed
//! [`AttackRegistry`] so every attacker — the paper's CopyAttack family,
//! its baselines, and rivals from the wider shilling literature — runs
//! head-to-head through the same [`AttackEnvironment`] (metering, retries,
//! faults, quorum rewards) against any deployed platform.
//!
//! Built-in entries (Table 2 labels):
//!
//! | key                  | attacker                                      |
//! |----------------------|-----------------------------------------------|
//! | `RandomAttack`       | uniformly random source profiles ([`crate::baselines`]) |
//! | `TargetAttack{40,70,100}` | carrier profiles clipped to 40/70/100%   |
//! | `PolicyNetwork`      | flat policy gradient over all source users    |
//! | `CopyAttack`         | hierarchical selection + crafting ([`crate::attack`]), full framework |
//! | `CopyAttack-Masking` | ablation without masking (or crafting)        |
//! | `CopyAttack-Length`  | ablation without crafting                     |
//! | `FakeProfile`        | synthesized profiles (Huang et al., arXiv:2101.02644) |
//!
//! plus `KgAttack` (knowledge-enhanced, arXiv:2207.10307), registered through
//! [`AttackRegistry::register_kg_attack`] because it needs an
//! [`ItemKnowledge`] graph over the *target* catalog.
//!
//! Every entry is a profile proposer served through one adapter, so every
//! episode runs in the one episode loop, `env::run_episode`. The registry draws
//! no RNG of its own and constructs each attacker exactly as the
//! pipeline's earlier hard-wired dispatch did, so registry-routed results
//! are bitwise identical to it (pinned by golden hashes in
//! `tests/arena.rs`).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::attack::{AttackOutcome, CopyAttackVariant, CopyProposer};
use crate::baselines::{FlatPolicyAgent, RandomAttack, TargetAttack};
use crate::config::{AttackConfig, AttackGoal};
use crate::env::{run_episode, AttackEnvironment, Proposal, Proposer, Step};
use crate::source::SourceDomain;
use ca_recsys::{FallibleBlackBox, ItemId, UserId};
use ca_tensor::init::gaussian_vec;
use ca_tensor::{ops, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Typed failure for attack construction and configuration. `Display`
/// preserves the exact messages the pre-refactor `String` errors (and the
/// panics they replaced) carried, so `should_panic(expected = …)` pins and
/// checkpoint-recovery matching keep working.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttackError {
    /// The attack configuration failed [`AttackConfig::validate`].
    InvalidConfig(String),
    /// Masking left no selectable source user for the target item.
    NoSelectableUser {
        /// Source-domain id of the target item.
        target_src: ItemId,
        /// The goal whose mask predicate failed.
        goal: AttackGoal,
    },
    /// The target item has no carrier profile in the source domain.
    NoCarriers {
        /// Source-domain id of the target item.
        target_src: ItemId,
    },
    /// The registry has no factory under this name.
    UnknownAttack {
        /// The key that failed to resolve.
        name: String,
    },
    /// A campaign was constructed with an empty target set.
    EmptyTargets,
    /// The knowledge graph does not cover the target item.
    MissingKnowledge {
        /// Target-domain id of the item outside the graph.
        target: ItemId,
        /// Number of items the graph covers.
        n_items: usize,
    },
}

impl std::fmt::Display for AttackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttackError::InvalidConfig(e) => write!(f, "invalid attack config: {e}"),
            AttackError::NoSelectableUser { target_src, goal } => write!(
                f,
                "no selectable source user for target item {target_src} under goal {goal:?}"
            ),
            AttackError::NoCarriers { target_src } => {
                write!(f, "target item {target_src} has no carrier in the source domain")
            }
            AttackError::UnknownAttack { name } => {
                write!(f, "no attack registered under {name:?}")
            }
            AttackError::EmptyTargets => write!(f, "a campaign needs at least one target"),
            AttackError::MissingKnowledge { target, n_items } => write!(
                f,
                "item knowledge covers {n_items} items but target item {target} is out of range"
            ),
        }
    }
}

impl std::error::Error for AttackError {}

/// A profile-injection attack against one target item, runnable through
/// the shared [`AttackEnvironment`].
///
/// The contract mirrors how the pipeline always drove its attackers:
///
/// 1. the factory ([`AttackRegistry::build`]) constructs the attack —
///    structural state (policy nets, masks, neighbor pools) is fixed here,
///    and any agent-internal RNG is seeded from `AttackConfig::seed`;
/// 2. [`Attack::prepare`] runs optional training episodes, each against a
///    fresh environment from `make_env` (RL agents learn here; stateless
///    attacks keep the no-op default);
/// 3. [`Attack::run`] executes one evaluation episode against `env`. The
///    caller-provided `rng` is the *episode* stream (seeded
///    `seed ^ 0xABCD` by the pipeline) used by attacks without internal
///    state; trained agents keep drawing from their own stream.
pub trait Attack<R: FallibleBlackBox> {
    /// The registry key / report label of this attack.
    fn name(&self) -> &str;

    /// Optional training phase: episodes against fresh environments.
    fn prepare(
        &mut self,
        src: &SourceDomain<'_>,
        make_env: &mut dyn FnMut() -> AttackEnvironment<R>,
    ) {
        let _ = (src, make_env);
    }

    /// One evaluation episode: inject under the environment's budget,
    /// query on the attack's cadence, return the outcome. The polluted
    /// platform stays inside `env` for the caller to extract.
    fn run(
        &mut self,
        env: &mut AttackEnvironment<R>,
        src: &SourceDomain<'_>,
        target_src: ItemId,
        rng: &mut StdRng,
    ) -> AttackOutcome;
}

/// Factory signature stored in the registry: builds a boxed attack for one
/// (config, source domain, target item) triple. Factories must not draw
/// RNG — construction determinism is part of the bitwise-parity contract.
pub type AttackFactory<R> = Box<
    dyn Fn(&AttackConfig, &SourceDomain<'_>, ItemId) -> Result<Box<dyn Attack<R>>, AttackError>,
>;

/// String-keyed registry of attack factories over one platform type `R`.
///
/// Keys are ordered (`BTreeMap`), so [`AttackRegistry::names`] — and any
/// arena sweep iterating it — enumerates deterministically.
pub struct AttackRegistry<R: FallibleBlackBox> {
    factories: BTreeMap<String, AttackFactory<R>>,
}

impl<R: FallibleBlackBox + 'static> Default for AttackRegistry<R> {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl<R: FallibleBlackBox + 'static> AttackRegistry<R> {
    /// An empty registry.
    pub fn new() -> Self {
        Self { factories: BTreeMap::new() }
    }

    /// A registry with every built-in attacker registered under its
    /// Table 2 label (see the module docs for the list).
    pub fn with_builtins() -> Self {
        let mut reg = Self::new();
        // RandomAttack and TargetAttack query once, after the last injection.
        let query_once =
            |cfg: &AttackConfig| AttackConfig { query_every: cfg.budget, ..cfg.clone() };
        reg.register("RandomAttack", move |cfg, _, _| {
            Ok(Driven::stateless("RandomAttack", query_once(cfg), RandomAttack))
        });
        for pct in [40u8, 70, 100] {
            reg.register(format!("TargetAttack{pct}"), move |cfg, src, target_src| {
                let proposer = TargetAttack::try_new(src, target_src, pct as f32 / 100.0)?;
                Ok(Driven::stateless(format!("TargetAttack{pct}"), query_once(cfg), proposer))
            });
        }
        reg.register("PolicyNetwork", |cfg, src, target_src| {
            Driven::learned("PolicyNetwork", cfg, |rng| {
                FlatPolicyAgent::try_new(cfg, src, target_src, rng)
            })
        });
        for (label, variant) in [
            ("CopyAttack", CopyAttackVariant::full()),
            ("CopyAttack-Masking", CopyAttackVariant::no_masking()),
            ("CopyAttack-Length", CopyAttackVariant::no_crafting()),
        ] {
            reg.register(label, move |cfg, src, target_src| {
                Driven::learned(label, cfg, |rng| {
                    CopyProposer::new(cfg, variant, src, target_src, rng)
                })
            });
        }
        reg.register("FakeProfile", |cfg, src, target_src| {
            Ok(Driven::stateless(
                "FakeProfile",
                cfg.clone(),
                FakeProfileAttack::new(src, target_src),
            ))
        });
        reg
    }

    /// Registers (or replaces — latest wins) a factory under `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&AttackConfig, &SourceDomain<'_>, ItemId) -> Result<Box<dyn Attack<R>>, AttackError>
            + 'static,
    ) {
        self.factories.insert(name.into(), Box::new(factory));
    }

    /// Registers `KgAttack` over the given knowledge graph. Separate from
    /// [`AttackRegistry::with_builtins`] because the graph is worldly
    /// state the registry cannot conjure.
    pub fn register_kg_attack(&mut self, knowledge: Arc<ItemKnowledge>) {
        self.register("KgAttack", move |cfg, src, target_src| {
            let proposer = KgAttack::try_new(knowledge.clone(), src, target_src)?;
            Ok(Driven::stateless("KgAttack", cfg.clone(), proposer))
        });
    }

    /// The registered attack names, in deterministic (sorted) order.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Validates `cfg` and builds the named attack for `target_src`.
    pub fn build(
        &self,
        name: &str,
        cfg: &AttackConfig,
        src: &SourceDomain<'_>,
        target_src: ItemId,
    ) -> Result<Box<dyn Attack<R>>, AttackError> {
        cfg.validate().map_err(AttackError::InvalidConfig)?;
        let factory = self
            .factories
            .get(name)
            .ok_or_else(|| AttackError::UnknownAttack { name: name.into() })?;
        factory(cfg, src, target_src)
    }
}

// --- the one adapter --------------------------------------------------------

/// Serves a [`Proposer`] as an [`Attack`]: every episode goes through
/// [`run_episode`]. A learned attack owns an RNG stream seeded from
/// `cfg.seed` and trains on `cfg.episodes` fresh environments in
/// [`Attack::prepare`]; a stateless one draws from the episode RNG passed
/// to [`Attack::run`] and prepares nothing.
struct Driven<P> {
    name: String,
    cfg: AttackConfig,
    proposer: P,
    own_rng: Option<StdRng>,
}

impl<P: Proposer + 'static> Driven<P> {
    fn stateless<R: FallibleBlackBox>(
        name: impl Into<String>,
        cfg: AttackConfig,
        proposer: P,
    ) -> Box<dyn Attack<R>> {
        Box::new(Self { name: name.into(), cfg, proposer, own_rng: None })
    }

    /// Seeds the attack's own stream from `cfg.seed`; `build` draws the
    /// initial weights from it.
    fn learned<R: FallibleBlackBox>(
        name: impl Into<String>,
        cfg: &AttackConfig,
        build: impl FnOnce(&mut StdRng) -> Result<P, AttackError>,
    ) -> Result<Box<dyn Attack<R>>, AttackError> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let proposer = build(&mut rng)?;
        Ok(Box::new(Self { name: name.into(), cfg: cfg.clone(), proposer, own_rng: Some(rng) }))
    }
}

impl<R: FallibleBlackBox, P: Proposer> Attack<R> for Driven<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn prepare(
        &mut self,
        src: &SourceDomain<'_>,
        make_env: &mut dyn FnMut() -> AttackEnvironment<R>,
    ) {
        let Some(rng) = &mut self.own_rng else { return };
        for _ in 0..self.cfg.episodes {
            run_episode(&mut make_env(), src, &self.cfg, &mut self.proposer, rng, true);
        }
    }

    fn run(
        &mut self,
        env: &mut AttackEnvironment<R>,
        src: &SourceDomain<'_>,
        _target_src: ItemId,
        rng: &mut StdRng,
    ) -> AttackOutcome {
        let rng = self.own_rng.as_mut().unwrap_or(rng);
        run_episode(env, src, &self.cfg, &mut self.proposer, rng, false)
    }
}

// --- FakeProfile (Huang et al., arXiv:2101.02644) -------------------------

/// Optimization-based fake-profile poisoning in the spirit of Huang et
/// al.: instead of copying real cross-domain profiles, the attacker
/// *synthesizes* each fake user against its surrogate of the platform —
/// here the source-domain MF model the CopyAttack threat model already
/// grants it. Per injection it optimizes a synthetic user vector toward
/// the target item's embedding (gradient ascent on `u·q* − λ‖u‖²/2` from
/// a noisy start), then fills the profile with the items that user would
/// most plausibly have consumed (top filler items by `u·q_v`), placing
/// the target item among them. Profiles go through the same
/// [`AttackEnvironment`], so metering, retries, faults, and the detector
/// screen all apply.
pub(crate) struct FakeProfileAttack {
    target_src: ItemId,
    /// Fillers per profile: the mean genuine source profile length, so the
    /// fakes are length-camouflaged against the profile-length feature.
    profile_len: usize,
    /// Gradient-ascent steps on the synthetic user vector.
    opt_steps: usize,
    /// Step size of the ascent.
    opt_lr: f32,
    /// L2 pull `λ` keeping the synthetic vector on-manifold.
    reg: f32,
    /// Std-dev of the per-profile initialization noise (the source of
    /// profile diversity).
    noise: f32,
}

impl FakeProfileAttack {
    /// Builds the attack; the surrogate is `src`'s MF model.
    pub(crate) fn new(src: &SourceDomain<'_>, target_src: ItemId) -> Self {
        let n_users = src.n_users().max(1);
        let total: usize = (0..n_users).map(|u| src.data.profile(UserId(u as u32)).len()).sum();
        let profile_len = (total / n_users).max(2);
        Self { target_src, profile_len, opt_steps: 5, opt_lr: 0.1, reg: 0.1, noise: 0.25 }
    }
}

impl Proposer for FakeProfileAttack {
    type Sample = ();

    fn propose(&mut self, step: &Step<'_>, rng: &mut StdRng) -> Proposal<()> {
        let src = step.src;
        let q_target = src.item_embedding(self.target_src);
        // Synthesize this profile's user vector: noisy start near q*, then
        // ascend u·q* − λ‖u‖²/2 toward the regularized optimum.
        let mut u = q_target.to_vec();
        let jitter = gaussian_vec(rng, u.len(), 0.0, self.noise);
        ops::axpy(1.0, &jitter, &mut u);
        for _ in 0..self.opt_steps {
            for (ui, qi) in u.iter_mut().zip(q_target) {
                *ui += self.opt_lr * (qi - self.reg * *ui);
            }
        }
        // Fillers: the items this synthetic user scores highest — its most
        // plausible consumption history under the surrogate.
        let mut scored: Vec<(f32, u32)> = (0..src.mf.n_items() as u32)
            .filter(|&v| ItemId(v) != self.target_src)
            .map(|v| (ops::dot(&u, src.item_embedding(ItemId(v))), v))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let fillers = self.profile_len.saturating_sub(1).min(scored.len());
        let mut profile_src: Vec<ItemId> =
            scored[..fillers].iter().map(|&(_, v)| ItemId(v)).collect();
        profile_src.insert(profile_src.len() / 2, self.target_src);
        Proposal { profile: src.translate(&profile_src), copied: None, sample: () }
    }
}

// --- KgAttack (arXiv:2207.10307) ------------------------------------------

/// Item-side knowledge the KGAttack-style rival navigates: latent vectors
/// and cluster assignments over the *target* catalog. The synthetic
/// world's [`ca_datagen`-style] ground truth provides exactly this (the
/// cluster graph plays the role of the knowledge graph's entity
/// neighborhoods), but any item embedding + partition works.
///
/// [`ca_datagen`-style]: https://arxiv.org/abs/2207.10307
#[derive(Clone, Debug)]
pub struct ItemKnowledge {
    item_vecs: Matrix,
    item_cluster: Vec<usize>,
}

impl ItemKnowledge {
    /// Bundles item latent vectors (row per target item) with a cluster
    /// assignment of the same length.
    ///
    /// # Panics
    /// Panics when the row count and assignment length disagree.
    pub fn new(item_vecs: Matrix, item_cluster: Vec<usize>) -> Self {
        assert_eq!(
            item_vecs.rows(),
            item_cluster.len(),
            "item vectors and cluster assignment must cover the same catalog"
        );
        Self { item_vecs, item_cluster }
    }

    /// Number of items the knowledge covers.
    pub fn n_items(&self) -> usize {
        self.item_cluster.len()
    }

    /// The latent vector of one target item.
    pub fn item_vec(&self, v: ItemId) -> &[f32] {
        self.item_vecs.row(v.idx())
    }

    /// The cluster of one target item.
    pub fn cluster(&self, v: ItemId) -> usize {
        self.item_cluster[v.idx()]
    }

    /// The knowledge neighborhood of `v`: items sharing its cluster,
    /// ranked by latent affinity (dot product) to `v`, capped at `cap`.
    /// Falls back to the affinity ranking over the whole catalog when the
    /// cluster is a singleton. `v` itself is excluded. Ties break on item
    /// id, so the pool is deterministic.
    pub fn neighbors(&self, v: ItemId, cap: usize) -> Vec<ItemId> {
        let qv = self.item_vec(v);
        let same: Vec<u32> = (0..self.n_items() as u32)
            .filter(|&o| ItemId(o) != v && self.item_cluster[o as usize] == self.cluster(v))
            .collect();
        let pool = if same.is_empty() {
            (0..self.n_items() as u32).filter(|&o| ItemId(o) != v).collect()
        } else {
            same
        };
        let mut scored: Vec<(f32, u32)> =
            pool.into_iter().map(|o| (ops::dot(qv, self.item_vecs.row(o as usize)), o)).collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(cap);
        scored.into_iter().map(|(_, o)| ItemId(o)).collect()
    }
}

/// Size of the knowledge-neighbor pool KgAttack samples fillers from.
const KG_POOL: usize = 64;

/// Knowledge-enhanced profile injection in the spirit of KGAttack: each
/// fake profile anchors the target item `v*` and pads it with items drawn
/// from `v*`'s knowledge neighborhood (same latent cluster, ranked by
/// affinity), head-biased so closer neighbors are likelier. Profile
/// lengths are sampled from real source users, camouflaging the fakes
/// against length-based detection. Unlike the copy-based attacks it
/// builds profiles directly in target-domain ids — the knowledge graph
/// lives over the target catalog — and needs no carrier users at all.
pub(crate) struct KgAttack {
    /// Target-domain id of the item under attack.
    target_tgt: ItemId,
    /// Precomputed knowledge-neighbor pool of the target, affinity-ranked.
    pool: Vec<ItemId>,
}

impl KgAttack {
    /// Builds the attack: resolves `target_src` through the alignment map
    /// and precomputes the knowledge-neighbor pool. Fails when the
    /// knowledge graph does not cover the target item.
    pub(crate) fn try_new(
        knowledge: Arc<ItemKnowledge>,
        src: &SourceDomain<'_>,
        target_src: ItemId,
    ) -> Result<Self, AttackError> {
        let target_tgt = src.to_target[target_src.idx()];
        if target_tgt.idx() >= knowledge.n_items() {
            return Err(AttackError::MissingKnowledge {
                target: target_tgt,
                n_items: knowledge.n_items(),
            });
        }
        let pool = knowledge.neighbors(target_tgt, KG_POOL);
        Ok(Self { target_tgt, pool })
    }
}

impl Proposer for KgAttack {
    type Sample = ();

    fn propose(&mut self, step: &Step<'_>, rng: &mut StdRng) -> Proposal<()> {
        // Length camouflage: copy the length of a random real profile.
        let u = UserId(rng.gen_range(0..step.src.n_users() as u32));
        let len = step.src.data.profile(u).len().max(2);
        let mut profile = vec![self.target_tgt];
        if !self.pool.is_empty() {
            let mut misses = 0usize;
            while profile.len() < len && misses < 4 * len {
                // Quadratic head bias: nearer knowledge neighbors are
                // likelier fillers.
                let r = rng.gen::<f32>() * rng.gen::<f32>();
                let idx = ((r * self.pool.len() as f32) as usize).min(self.pool.len() - 1);
                let v = self.pool[idx];
                if profile.contains(&v) {
                    misses += 1;
                } else {
                    profile.push(v);
                }
            }
        }
        Proposal { profile, copied: None, sample: () }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_mf::BprConfig;
    use ca_recsys::{BlackBoxRecommender, Dataset, DatasetBuilder};
    use rand::SeedableRng;

    struct NullRec {
        n_users: usize,
        catalog: usize,
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
            self.catalog
        }
    }

    fn world() -> (Dataset, Vec<ItemId>) {
        let mut b = DatasetBuilder::new(50);
        for u in 0..40u32 {
            let mut profile: Vec<ItemId> = (0..6).map(|i| ItemId((u + i * 5) % 45 + 5)).collect();
            if u % 4 == 0 {
                profile.insert(3, ItemId(2));
            }
            b.user(&profile);
        }
        let map: Vec<ItemId> = (0..50).map(ItemId).collect();
        (b.build(), map)
    }

    fn knowledge() -> Arc<ItemKnowledge> {
        let mut rng = StdRng::seed_from_u64(9);
        let vecs = Matrix::from_fn(50, 4, |_, _| gaussian_vec(&mut rng, 1, 0.0, 1.0)[0]);
        let clusters: Vec<usize> = (0..50).map(|v| v % 3).collect();
        Arc::new(ItemKnowledge::new(vecs, clusters))
    }

    /// The reward target is item 900 — never in NullRec's Top-k — so no
    /// attack early-stops and the full budget is spent.
    fn env(budget: usize) -> AttackEnvironment<NullRec> {
        AttackEnvironment::new(
            NullRec { n_users: 0, catalog: 1000 },
            vec![UserId(0)],
            ItemId(900),
            5,
            budget,
        )
    }

    #[test]
    fn builtin_names_are_sorted_and_complete() {
        let reg: AttackRegistry<NullRec> = AttackRegistry::with_builtins();
        let names = reg.names();
        for expect in [
            "CopyAttack",
            "CopyAttack-Length",
            "CopyAttack-Masking",
            "FakeProfile",
            "PolicyNetwork",
            "RandomAttack",
            "TargetAttack100",
            "TargetAttack40",
            "TargetAttack70",
        ] {
            assert!(names.contains(&expect), "missing {expect} in {names:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "BTreeMap order must be sorted");
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let reg: AttackRegistry<NullRec> = AttackRegistry::with_builtins();
        let err = reg
            .build("GhostAttack", &AttackConfig::default(), &src, ItemId(2))
            .err()
            .expect("must fail");
        assert_eq!(err, AttackError::UnknownAttack { name: "GhostAttack".into() });
    }

    #[test]
    fn carrierless_target_fails_with_typed_errors() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let reg: AttackRegistry<NullRec> = AttackRegistry::with_builtins();
        // Item 3 exists in the catalog but no profile carries it.
        let err = reg
            .build("TargetAttack70", &AttackConfig::default(), &src, ItemId(3))
            .err()
            .expect("must fail");
        assert_eq!(err, AttackError::NoCarriers { target_src: ItemId(3) });
        let err = reg
            .build("PolicyNetwork", &AttackConfig::default(), &src, ItemId(3))
            .err()
            .expect("must fail");
        assert!(err.to_string().contains("no carrier"), "{err}");
        let err = reg
            .build("CopyAttack", &AttackConfig::default(), &src, ItemId(3))
            .err()
            .expect("must fail");
        assert!(err.to_string().contains("no selectable source user"), "{err}");
    }

    #[test]
    fn invalid_config_is_rejected_before_the_factory_runs() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let reg: AttackRegistry<NullRec> = AttackRegistry::with_builtins();
        let bad = AttackConfig { budget: 0, ..Default::default() };
        let err = reg.build("RandomAttack", &bad, &src, ItemId(2)).err().expect("must fail");
        assert!(matches!(err, AttackError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("invalid attack config"), "{err}");
    }

    #[test]
    fn fake_profile_places_the_target_and_meters_queries() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let reg: AttackRegistry<NullRec> = AttackRegistry::with_builtins();
        let cfg = AttackConfig { budget: 9, query_every: 3, ..Default::default() };
        let mut attack = reg.build("FakeProfile", &cfg, &src, ItemId(2)).unwrap();
        let mut e = env(9);
        let mut rng = StdRng::seed_from_u64(1);
        let o = attack.run(&mut e, &src, ItemId(2), &mut rng);
        assert_eq!(o.injections, 9);
        assert!(o.queries > 0, "cadenced reward queries must be metered");
        assert!(o.avg_items_per_profile >= 2.0);
    }

    #[test]
    fn kg_attack_crafts_from_the_target_cluster() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let kg = knowledge();
        // The identity map means target-domain id 2; its pool is cluster 2.
        let kg_attack = KgAttack::try_new(kg.clone(), &src, ItemId(2)).unwrap();
        for v in &kg_attack.pool {
            assert_eq!(kg.cluster(*v), kg.cluster(ItemId(2)), "{v} outside the target cluster");
        }
        let mut reg: AttackRegistry<NullRec> = AttackRegistry::with_builtins();
        reg.register_kg_attack(kg);
        let cfg = AttackConfig { budget: 6, query_every: 3, ..Default::default() };
        let mut attack = reg.build("KgAttack", &cfg, &src, ItemId(2)).unwrap();
        let mut e = env(6);
        let mut rng = StdRng::seed_from_u64(2);
        let o = attack.run(&mut e, &src, ItemId(2), &mut rng);
        assert_eq!(o.injections, 6);
        assert!(o.avg_items_per_profile >= 2.0);
    }

    /// Under `Demote` every key maps the observed hit ratio through the
    /// goal: the target is never in `NullRec`'s Top-k, so each reports the
    /// demotion reward 1.
    #[test]
    fn every_key_reports_the_demotion_reward() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let mut reg: AttackRegistry<NullRec> = AttackRegistry::with_builtins();
        reg.register_kg_attack(knowledge());
        let cfg = AttackConfig {
            budget: 6,
            query_every: 3,
            episodes: 2,
            tree_depth: 2,
            goal: AttackGoal::Demote,
            ..Default::default()
        };
        for name in reg.names() {
            let mut attack = reg.build(name, &cfg, &src, ItemId(2)).unwrap();
            attack.prepare(&src, &mut || env(6));
            let mut rng = StdRng::seed_from_u64(3);
            let o = attack.run(&mut env(6), &src, ItemId(2), &mut rng);
            assert_eq!(o.final_reward, 1.0, "{name} under Demote");
        }
    }

    #[test]
    fn kg_attack_rejects_uncovered_targets() {
        let (ds, _) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        // A map sending everything past the knowledge range.
        let map: Vec<ItemId> = (0..50).map(|s| ItemId(s + 100)).collect();
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let err = KgAttack::try_new(knowledge(), &src, ItemId(2)).err().expect("must fail");
        assert!(matches!(err, AttackError::MissingKnowledge { .. }), "{err:?}");
    }

    #[test]
    fn rivals_are_seed_reproducible() {
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let reg: AttackRegistry<NullRec> = AttackRegistry::with_builtins();
        let cfg = AttackConfig { budget: 8, query_every: 4, ..Default::default() };
        for name in ["FakeProfile", "RandomAttack"] {
            let run = |seed: u64| {
                let mut attack = reg.build(name, &cfg, &src, ItemId(2)).unwrap();
                let mut e = env(8);
                let mut rng = StdRng::seed_from_u64(seed);
                let o = attack.run(&mut e, &src, ItemId(2), &mut rng);
                (o.selected_users.clone(), o.avg_items_per_profile.to_bits(), o.queries)
            };
            assert_eq!(run(7), run(7), "{name} not reproducible");
        }
    }

    #[test]
    fn latest_registration_wins() {
        let mut reg: AttackRegistry<NullRec> = AttackRegistry::with_builtins();
        reg.register("RandomAttack", |_, _, _| {
            Err(AttackError::UnknownAttack { name: "shadowed".into() })
        });
        let (ds, map) = world();
        let mf = ca_mf::train(&ds, &BprConfig { max_epochs: 2, ..Default::default() });
        let src = SourceDomain { data: &ds, mf: &mf, to_target: &map };
        let err = reg
            .build("RandomAttack", &AttackConfig::default(), &src, ItemId(2))
            .err()
            .expect("must fail");
        assert_eq!(err, AttackError::UnknownAttack { name: "shadowed".into() });
    }
}
