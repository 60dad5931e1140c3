//! End-to-end experiment pipeline: world → target model → attack → metrics.
//!
//! This reproduces the paper's experimental protocol (§5.1):
//!
//! 1. generate a cross-domain world (substituting the licensed datasets);
//! 2. split the target domain 80/10/10; pretrain MF on the target training
//!    split (frozen item features for the GNN) and on the source domain
//!    (the attacker's embeddings);
//! 3. train the PinSage-like target model with early stopping on
//!    validation HR@10; deploy it; let the attacker establish 50 pretend
//!    users;
//! 4. sample cold, attackable target items (< 10 interactions, present in
//!    the source domain);
//! 5. for each method × target item: clone the deployed system, attack it
//!    under budget Δ, and measure HR@K / NDCG@K of the target item over
//!    real users plus the average injected-profile length (Table 2).

use ca_datagen::{generate, CrossDomainConfig, CrossDomainDataset};
use ca_gnn::{train_with_features_observed, GnnConfig, PinSageRecommender, TrainReport};
use ca_mf::{BprConfig, MfModel};
use ca_recsys::eval::RankingEval;
use ca_recsys::metrics::MetricAccumulator;
use ca_recsys::{split_dataset, BlackBoxRecommender, FallibleBlackBox, ItemId, Split, UserId};
use ca_recsys::{FaultConfig, FaultyRecommender, Scorer};
use ca_train::{History, StderrProgress, Tee, TrainObserver};
use copyattack_core::env::plan_pretend_profiles;
use copyattack_core::{
    AttackConfig, AttackEnvironment, AttackError, AttackOutcome, AttackRegistry, ItemKnowledge,
    ResilienceConfig, SourceDomain,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Everything needed to run one dataset's worth of experiments.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// World generator settings (one of the Table 1 presets).
    pub world: CrossDomainConfig,
    /// MF pretraining on the source domain (attacker side).
    pub source_mf: BprConfig,
    /// MF pretraining on the target training split (frozen GNN features).
    pub target_mf: BprConfig,
    /// Target-model training.
    pub gnn: GnnConfig,
    /// Which registered attack the configured campaign runs, and its
    /// settings (budget Δ, pretend users, γ, …). Any name in the
    /// pipeline's [`AttackRegistry`] routes through the same
    /// campaign/retry machinery.
    pub attack: AttackSpec,
    /// Number of cold target items to attack (paper: 50).
    pub n_target_items: usize,
    /// Cold threshold: fewer than this many target-domain interactions
    /// (paper: 10).
    pub max_target_pop: usize,
    /// Minimum number of source-domain carriers per target item.
    pub min_source_pop: usize,
    /// Number of real target-domain users promotion metrics average over.
    pub n_eval_users: usize,
    /// Length of each pretend user's establishing profile.
    pub pretend_profile_len: usize,
    /// Master seed for everything not covered by the sub-configs.
    pub seed: u64,
}

impl PipelineConfig {
    fn with_world(world: CrossDomainConfig, seed: u64) -> Self {
        Self {
            world,
            source_mf: BprConfig { max_epochs: 15, seed, ..Default::default() },
            target_mf: BprConfig { max_epochs: 15, seed: seed ^ 1, ..Default::default() },
            gnn: GnnConfig { seed: seed ^ 2, ..Default::default() },
            attack: AttackSpec::new(
                "CopyAttack",
                AttackConfig { seed: seed ^ 3, ..Default::default() },
            ),
            n_target_items: 50,
            max_target_pop: 10,
            min_source_pop: 3,
            n_eval_users: 200,
            pretend_profile_len: 15,
            seed,
        }
    }

    /// Milliseconds-scale preset for tests and the quickstart example.
    pub fn tiny(seed: u64) -> Self {
        let mut cfg = Self::with_world(CrossDomainConfig::tiny(seed), seed);
        cfg.n_target_items = 4;
        cfg.n_eval_users = 60;
        cfg.min_source_pop = 2;
        cfg.pretend_profile_len = 8;
        cfg.attack.config.episodes = 15;
        cfg.attack.config.n_pretend = 10;
        cfg.attack.config.tree_depth = 2;
        cfg.gnn.max_epochs = 20;
        cfg
    }

    /// Seconds-scale preset for examples and smoke experiments.
    pub fn small(seed: u64) -> Self {
        let mut cfg = Self::with_world(CrossDomainConfig::small(seed), seed);
        cfg.n_target_items = 10;
        cfg.n_eval_users = 150;
        cfg.attack.config.episodes = 30;
        cfg.attack.config.n_pretend = 25;
        cfg.attack.config.tree_depth = 3;
        cfg.gnn.max_epochs = 30;
        cfg
    }

    /// The ML10M-Flixster-shaped experiment (§5.1.1, tree depth 3).
    pub fn ml10m_fx(seed: u64) -> Self {
        let mut cfg = Self::with_world(CrossDomainConfig::ml10m_fx_like(seed), seed);
        cfg.attack.config.tree_depth = 3;
        cfg
    }

    /// The ML20M-Netflix-shaped experiment (§5.1.1, tree depth 6).
    pub fn ml20m_nf(seed: u64) -> Self {
        let mut cfg = Self::with_world(CrossDomainConfig::ml20m_nf_like(seed), seed);
        cfg.attack.config.tree_depth = 6;
        cfg
    }
}

/// A registry-routed attack selection: *which* attack to run (any key in
/// the pipeline's [`AttackRegistry`], built-in or custom) and under what
/// configuration. This is what [`PipelineConfig`] carries, so swapping the
/// campaign's attacker is a config edit, not a code path.
#[derive(Clone, Debug)]
pub struct AttackSpec {
    /// Registry key — a Table 2 label ("CopyAttack", "RandomAttack", …) or
    /// a rival entry ("FakeProfile", "KgAttack").
    pub name: String,
    /// Attack hyper-parameters.
    pub config: AttackConfig,
}

impl AttackSpec {
    /// Bundles a registry key with its configuration.
    pub fn new(name: impl Into<String>, config: AttackConfig) -> Self {
        Self { name: name.into(), config }
    }
}

/// One target item's run: the record every Table 2 row and arena cell
/// folds.
#[derive(Clone, Debug)]
pub struct TargetRun {
    /// The target item.
    pub target: ItemId,
    /// The seed the run used (`spec.config.seed ^ target`); promotion is
    /// evaluated at `seed ^ 0x5EED`.
    pub seed: u64,
    /// HR/NDCG@{20, 10, 5} of the target over the evaluation users.
    pub metrics: MetricAccumulator,
    /// The evaluation episode's outcome; `None` on the Without Attack row.
    pub outcome: Option<AttackOutcome>,
}

impl TargetRun {
    /// Mean injected-profile length of the episode (0 without an attack).
    pub fn avg_items_per_profile(&self) -> f32 {
        self.outcome.as_ref().map_or(0.0, |o| o.avg_items_per_profile)
    }
}

/// A Table 2 row: promotion metrics of one registered attack (or the
/// injection-free baseline), folded over its per-target runs.
#[derive(Clone, Debug)]
pub struct AttackRow {
    /// The registry key the row was produced by ("Without Attack" for the
    /// injection-free row).
    pub name: String,
    /// HR@K / NDCG@K of the target items: the runs' accumulators merged.
    pub metrics: MetricAccumulator,
    /// Mean injected-profile length, averaged over target items.
    pub avg_items_per_profile: f32,
    /// One record per target item, in target order.
    pub runs: Vec<TargetRun>,
}

/// Per-model training telemetry captured while the pipeline was built:
/// epoch-by-epoch loss, throughput, and validation curves for the three
/// training runs (attacker-side MF, feature MF, target GNN). Set
/// `CA_TRAIN_LOG=1` to additionally stream per-epoch progress to stderr
/// while building. At two or more threads the source MF trains beside the
/// target chain, so its `source-mf` lines interleave with the `target-mf`
/// and `gnn` lines; each history still records only its own run.
#[derive(Clone, Debug, Default)]
pub struct TrainTelemetry {
    /// Attacker-side MF on the source domain.
    pub source_mf: History,
    /// Feature MF on the clean target training split.
    pub target_mf: History,
    /// The PinSage-like target model.
    pub gnn: History,
}

/// Runs a training closure against `hist`, teeing per-epoch progress to
/// stderr when `CA_TRAIN_LOG` is set.
fn observed<R>(label: &str, hist: &mut History, f: impl FnOnce(&mut dyn TrainObserver) -> R) -> R {
    if std::env::var_os("CA_TRAIN_LOG").is_some() {
        let mut progress = StderrProgress::new(label);
        let mut tee = Tee(hist, &mut progress);
        f(&mut tee)
    } else {
        f(hist)
    }
}

/// The built pipeline, ready to run attacks.
pub struct Pipeline {
    /// The generated world.
    pub world: CrossDomainDataset,
    /// Target-domain split.
    pub split: Split,
    /// Attacker-side MF on the source domain.
    pub source_mf: MfModel,
    /// The deployed target system *with pretend users already established*.
    pub recommender: PinSageRecommender,
    /// The attacker's pretend-user account ids.
    pub pretend: Vec<UserId>,
    /// The pretend users' establishing profiles (kept so suspended
    /// accounts can be re-established against an unreliable platform).
    pub pretend_profiles: Vec<Vec<ItemId>>,
    /// Real users promotion metrics are averaged over.
    pub eval_users: Vec<UserId>,
    /// The sampled cold target items (target-domain ids).
    pub target_items: Vec<ItemId>,
    /// Item-side knowledge over the target catalog (drives the `KgAttack`
    /// registry entry).
    pub knowledge: Arc<ItemKnowledge>,
    /// Target-model training report.
    pub train_report: TrainReport,
    /// Epoch-level telemetry of the three training runs.
    pub telemetry: TrainTelemetry,
    /// Configuration used.
    pub config: PipelineConfig,
}

impl Pipeline {
    /// Builds the full pipeline (steps 1–4 of the protocol).
    pub fn build(cfg: &PipelineConfig) -> Self {
        let world = generate(&cfg.world);
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(101));
        let split = split_dataset(&world.target, 0.1, &mut rng);

        // Two independent training chains, side by side at two or more
        // threads: the attacker's source MF reads only the source domain,
        // and the target chain only the target split. Each chain owns its
        // seeded RNG and its own telemetry history, so only wall time
        // depends on the thread count.
        let mut telemetry = TrainTelemetry::default();
        let ((source_mf, _), (mut recommender, train_report)) = ca_par::join(
            // Attacker-side embeddings.
            || {
                observed("source-mf", &mut telemetry.source_mf, |obs| {
                    ca_mf::train_observed(&world.source, &cfg.source_mf, obs)
                })
            },
            || {
                // Frozen item features for the GNN: MF pretrained on the
                // clean target training split.
                let (target_mf, _) = observed("target-mf", &mut telemetry.target_mf, |obs| {
                    ca_mf::train_observed(&split.train, &cfg.target_mf, obs)
                });
                observed("gnn", &mut telemetry.gnn, |obs| {
                    train_with_features_observed(
                        target_mf.item_emb,
                        &split.train,
                        &split.validation,
                        &cfg.gnn,
                        obs,
                    )
                })
            },
        );

        // The attacker establishes pretend users before the attack (§4.2);
        // the profiles are kept so suspended accounts can be re-established
        // mid-attack on an unreliable platform.
        let mut pretend_rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(202));
        let pretend_profiles = plan_pretend_profiles(
            &split.train,
            cfg.attack.config.n_pretend,
            cfg.pretend_profile_len,
            &mut pretend_rng,
        );
        let pretend: Vec<UserId> =
            pretend_profiles.iter().map(|p| recommender.inject_user(p)).collect();

        // Evaluation users: real accounts only.
        let mut eval_rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(303));
        let mut eval_users: Vec<UserId> = (0..world.target.n_users() as u32).map(UserId).collect();
        eval_users.shuffle(&mut eval_rng);
        eval_users.truncate(cfg.n_eval_users);

        // Cold, attackable target items.
        let mut item_rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(404));
        let target_items = world.sample_attackable_cold_items(
            cfg.n_target_items,
            cfg.max_target_pop,
            cfg.min_source_pop,
            &mut item_rng,
        );
        assert!(
            !target_items.is_empty(),
            "world contains no attackable cold items — increase catalog size"
        );

        // The KGAttack rival's knowledge graph: the generator's ground-truth
        // latent structure over the target catalog.
        let knowledge = Arc::new(ItemKnowledge::new(
            world.truth.item_vecs.clone(),
            world.truth.item_cluster.clone(),
        ));

        Self {
            world,
            knowledge,
            split,
            source_mf,
            recommender,
            pretend,
            pretend_profiles,
            eval_users,
            target_items,
            train_report,
            telemetry,
            config: cfg.clone(),
        }
    }

    /// The attacker's source-domain view.
    pub fn source_domain(&self) -> SourceDomain<'_> {
        SourceDomain {
            data: &self.world.source,
            mf: &self.source_mf,
            to_target: &self.world.source_to_target,
        }
    }

    /// A fresh attack environment on a clone of the deployed system.
    pub fn make_env(&self, target: ItemId) -> AttackEnvironment<PinSageRecommender> {
        AttackEnvironment::new(
            self.recommender.clone(),
            self.pretend.clone(),
            target,
            self.config.attack.config.reward_k,
            self.config.attack.config.budget,
        )
    }

    /// A fresh attack environment on a clone of the deployed system behind
    /// a deterministic fault injector — the §4.5 setting on an *unreliable*
    /// platform. The environment retries per `resilience`, computes
    /// quorum-gated partial rewards, and re-establishes suspended pretend
    /// users from their stored profiles.
    pub fn make_faulty_env(
        &self,
        target: ItemId,
        faults: FaultConfig,
        resilience: ResilienceConfig,
    ) -> AttackEnvironment<FaultyRecommender<PinSageRecommender>> {
        AttackEnvironment::new(
            FaultyRecommender::new(self.recommender.clone(), faults),
            self.pretend.clone(),
            target,
            self.config.attack.config.reward_k,
            self.config.attack.config.budget,
        )
        .with_resilience(resilience)
        .with_pretend_profiles(self.pretend_profiles.clone())
    }

    /// Promotion metrics of `target` on any deployment `rec` over the
    /// evaluation users (HR/NDCG @ {20, 10, 5} against 100 sampled negatives).
    pub fn evaluate_promotion(
        &self,
        rec: &impl Scorer,
        target: ItemId,
        seed: u64,
    ) -> MetricAccumulator {
        let ev = RankingEval::standard(&self.split.train);
        let mut rng = StdRng::seed_from_u64(seed);
        ev.evaluate_promotion(rec, &self.eval_users, target, &mut rng)
    }

    /// One target's record on any deployment `rec`: promotion evaluated
    /// at `seed ^ 0x5EED`, beside the episode's outcome (`None` without an
    /// attack).
    pub fn target_run(
        &self,
        rec: &impl Scorer,
        target: ItemId,
        seed: u64,
        outcome: Option<AttackOutcome>,
    ) -> TargetRun {
        let metrics = self.evaluate_promotion(rec, target, seed ^ 0x5EED);
        TargetRun { target, seed, metrics, outcome }
    }

    /// Runs one registered attack (any [`AttackRegistry`] key) against one
    /// target item under `attack_cfg` on a clone of the deployed model and
    /// records promotion on the polluted copy.
    ///
    /// # Panics
    /// Panics when the name is not registered or the attack cannot be
    /// built for this target (see [`copyattack_core::AttackError`]).
    pub fn run_attack_cfg(
        &self,
        name: &str,
        target: ItemId,
        attack_cfg: &AttackConfig,
    ) -> TargetRun {
        let (polluted, outcome) = self
            .attack_with(name, target, attack_cfg, &self.recommender, &self.pretend)
            .unwrap_or_else(|e| panic!("{e}"));
        self.target_run(&polluted, target, attack_cfg.seed, Some(outcome))
    }

    /// The pipeline's attack registry over any platform type `R`,
    /// fault-wrapped ones included: every built-in attacker plus
    /// `KgAttack` over this world's ground-truth item knowledge.
    pub fn registry<R: FallibleBlackBox + 'static>(&self) -> AttackRegistry<R> {
        let mut reg = AttackRegistry::with_builtins();
        reg.register_kg_attack(self.knowledge.clone());
        reg
    }

    /// The attack lifecycle of one registered attack against `base` — any
    /// clonable black-box deployment of the target platform whose
    /// attacker accounts are `pretend`. Returns the polluted deployment and
    /// the evaluation episode's outcome.
    ///
    /// The registry builds the attacker, `prepare` trains it against fresh
    /// clones of `base`, and `run` executes the evaluation episode on
    /// another clone with an episode RNG seeded `attack_cfg.seed ^ 0xABCD`.
    /// The golden hashes in `tests/arena.rs` pin this lifecycle.
    ///
    /// # Panics
    /// Panics when `target` is not in the source domain.
    pub fn attack_with<R: BlackBoxRecommender + Clone + 'static>(
        &self,
        name: &str,
        target: ItemId,
        attack_cfg: &AttackConfig,
        base: &R,
        pretend: &[UserId],
    ) -> Result<(R, AttackOutcome), AttackError> {
        let target_src =
            self.world.source_item(target).expect("target items are sampled from the overlap");
        let src = self.source_domain();
        let mut attack = self.registry::<R>().build(name, attack_cfg, &src, target_src)?;
        let mut make_env = || {
            AttackEnvironment::new(
                base.clone(),
                pretend.to_vec(),
                target,
                attack_cfg.reward_k,
                attack_cfg.budget,
            )
        };
        attack.prepare(&src, &mut make_env);
        let mut env = make_env();
        let mut rng = StdRng::seed_from_u64(attack_cfg.seed ^ 0xABCD);
        let outcome = attack.run(&mut env, &src, target_src, &mut rng);
        Ok((env.into_recommender(), outcome))
    }

    /// The first `n_items` sampled target items.
    fn first_targets(&self, n_items: usize) -> Vec<ItemId> {
        self.target_items.iter().copied().take(n_items).collect()
    }

    /// Runs the registered attack `name` under the pipeline's attack
    /// configuration over the first `n_items` sampled target items.
    pub fn run_attack_over_targets(&self, name: &str, n_items: usize) -> AttackRow {
        let spec = AttackSpec::new(name, self.config.attack.config.clone());
        self.run_spec_over_items(&spec, &self.first_targets(n_items))
    }

    /// Table 2's "Without Attack" row over the first `n_items` sampled
    /// target items: promotion on the clean deployment, evaluated at the
    /// seed each attack row evaluates that item at.
    pub fn run_without_attack(&self, n_items: usize) -> AttackRow {
        let seed = self.config.attack.config.seed;
        self.row("Without Attack", &self.first_targets(n_items), |t| {
            self.target_run(&self.recommender, t, seed ^ t.0 as u64, None)
        })
    }

    /// Runs one registry-keyed attack over explicit target items, in
    /// parallel across items; item `t` runs under seed
    /// `spec.config.seed ^ t`.
    pub fn run_spec_over_items(&self, spec: &AttackSpec, items: &[ItemId]) -> AttackRow {
        self.row(&spec.name, items, |t| {
            let cfg = AttackConfig { seed: spec.config.seed ^ t.0 as u64, ..spec.config.clone() };
            self.run_attack_cfg(&spec.name, t, &cfg)
        })
    }

    /// Runs `run` over `items` and folds the records in target order into a
    /// row. Items are seed-isolated, so the deterministic runtime's ordered
    /// map gives the same row at any `CA_THREADS` setting.
    fn row(
        &self,
        name: &str,
        items: &[ItemId],
        run: impl Fn(ItemId) -> TargetRun + Sync,
    ) -> AttackRow {
        let runs: Vec<TargetRun> = ca_par::map(items, |_, &t| run(t));
        let mut metrics = MetricAccumulator::new(&[20, 10, 5]);
        let mut avg_items = 0.0;
        for r in &runs {
            metrics.merge(&r.metrics);
            avg_items += r.avg_items_per_profile();
        }
        avg_items /= runs.len().max(1) as f32;
        AttackRow { name: name.to_string(), metrics, avg_items_per_profile: avg_items, runs }
    }
}

/// Samples `n` target items out of a popularity group that are attackable
/// (present in the source domain with at least `min_source_pop` carriers) —
/// used by the Figure 4 experiment.
pub fn attackable_from_group(
    world: &CrossDomainDataset,
    group: &[ItemId],
    n: usize,
    min_source_pop: usize,
    rng: &mut impl Rng,
) -> Vec<ItemId> {
    let mut cands: Vec<ItemId> = group
        .iter()
        .copied()
        .filter(|&t| {
            world
                .source_item(t)
                .map(|s| world.source.item_popularity(s) >= min_source_pop)
                .unwrap_or(false)
        })
        .collect();
    cands.shuffle(rng);
    cands.truncate(n);
    cands
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pipeline_builds_and_has_sane_parts() {
        let cfg = PipelineConfig::tiny(7);
        let pipe = Pipeline::build(&cfg);
        assert!(!pipe.target_items.is_empty());
        assert_eq!(pipe.pretend.len(), cfg.attack.config.n_pretend);
        assert!(pipe.train_report.best_val_hr10 > 0.1);
        // Pretend users were appended after the real users.
        for &p in &pipe.pretend {
            assert!(p.idx() >= pipe.world.target.n_users());
        }
        // Eval users are real.
        for &u in &pipe.eval_users {
            assert!(u.idx() < pipe.world.target.n_users());
        }
        // Telemetry covers every training run the build performed.
        assert_eq!(pipe.telemetry.source_mf.epochs.len(), cfg.source_mf.max_epochs);
        assert_eq!(pipe.telemetry.target_mf.epochs.len(), cfg.target_mf.max_epochs);
        assert_eq!(pipe.telemetry.gnn.epochs.len(), pipe.train_report.epochs_run);
        assert!(pipe.telemetry.gnn.loss_curve().iter().all(|l| l.is_finite()));
    }

    #[test]
    fn without_attack_leaves_cold_items_cold() {
        let cfg = PipelineConfig::tiny(7);
        let pipe = Pipeline::build(&cfg);
        let row = pipe.run_without_attack(3);
        assert!(row.metrics.hr(20) < 0.3, "cold items should rank low: {}", row.metrics.hr(20));
        assert_eq!(row.avg_items_per_profile, 0.0);
    }

    #[test]
    fn target_attack_beats_no_attack_on_tiny_world() {
        let cfg = PipelineConfig::tiny(7);
        let pipe = Pipeline::build(&cfg);
        let none = pipe.run_without_attack(3);
        let t70 = pipe.run_attack_over_targets("TargetAttack70", 3);
        assert!(
            t70.metrics.hr(20) > none.metrics.hr(20) + 0.1,
            "TargetAttack70 {} vs none {}",
            t70.metrics.hr(20),
            none.metrics.hr(20)
        );
    }

    /// The six metric bits, `final_reward`'s bits and every counter of
    /// one record, for a bitwise comparison.
    fn run_bits(r: &TargetRun) -> (ItemId, u64, Vec<u32>, [u64; 5]) {
        let o = r.outcome.as_ref().expect("an attack run records its outcome");
        let m = &r.metrics;
        let metrics = [20, 10, 5].iter().flat_map(|&k| [m.hr(k), m.ndcg(k)]).map(f32::to_bits);
        let counters = [
            u64::from(o.final_reward.to_bits()),
            o.injections as u64,
            o.queries,
            o.failed_injections as u64,
            o.skipped_rewards as u64,
        ];
        (r.target, r.seed, metrics.collect(), counters)
    }

    #[test]
    fn rows_fold_their_per_target_records() {
        let pipe = Pipeline::build(&PipelineConfig::tiny(7));
        // All four targets: a sum of three or more f32 terms can depend on
        // its order, so a row that merged its records in another order fails.
        let (spec, targets) = (&pipe.config.attack, &pipe.target_items[..]);
        assert_eq!(targets.len(), 4);
        let at = |threads| {
            ca_par::set_threads(Some(threads));
            let row = pipe.run_spec_over_items(spec, targets);
            ca_par::set_threads(None);
            row
        };
        let (row, wide) = (at(1), at(4));

        // One record per target, in target order, seeded `seed ^ target`.
        assert_eq!(row.runs.len(), targets.len());
        let mut metrics = MetricAccumulator::new(&[20, 10, 5]);
        let mut avg_items = 0.0f32;
        for (r, &t) in row.runs.iter().zip(targets) {
            assert_eq!((r.target, r.seed), (t, spec.config.seed ^ t.0 as u64));
            let o = r.outcome.as_ref().expect("an attack run records its outcome");
            assert!(0 < o.injections && o.injections <= spec.config.budget, "{o:?}");
            assert!(o.queries > 0);
            metrics.merge(&r.metrics);
            avg_items += o.avg_items_per_profile;
        }
        // The row is the fold of its records, bit for bit.
        for k in [20, 10, 5] {
            assert_eq!(row.metrics.hr(k).to_bits(), metrics.hr(k).to_bits());
            assert_eq!(row.metrics.ndcg(k).to_bits(), metrics.ndcg(k).to_bits());
        }
        let avg_items = avg_items / targets.len() as f32;
        assert_eq!(row.avg_items_per_profile.to_bits(), avg_items.to_bits());
        // The records do not depend on the thread count.
        let bits = |runs: &[TargetRun]| runs.iter().map(run_bits).collect::<Vec<_>>();
        assert_eq!(bits(&row.runs), bits(&wide.runs));

        let clean = pipe.run_without_attack(2);
        assert_eq!(clean.runs.len(), 2);
        assert!(clean.runs.iter().all(|r| r.outcome.is_none()));
    }
}
