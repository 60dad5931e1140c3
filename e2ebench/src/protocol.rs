//! The paper's protocol as the benchmark drives it, through the program's
//! public entry points only: set-up (`Pipeline::build`, or a traced
//! replica of its stages), then the attack phase — `AttackRegistry::build`,
//! `Attack::prepare`, `Attack::run`, and promotion evaluation with
//! `Pipeline::evaluate_promotion` (on the other victims, the same
//! `RankingEval` over the same users and seeds).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use copyattack::core::env::plan_pretend_profiles;
use copyattack::core::{
    AttackConfig, AttackEnvironment, AttackRegistry, ItemKnowledge, ResilienceConfig,
};
use copyattack::datagen::generate;
use copyattack::gnn::{train_with_features_observed, PinSageRecommender};
use copyattack::mf::{BprConfig, MfRecommender};
use copyattack::ncf::{NcfConfig, NcfRecommender};
use copyattack::par::{self, split_seed};
use copyattack::pipeline::{Pipeline, TrainTelemetry};
use copyattack::recsys::knn::ItemKnnRecommender;
use copyattack::recsys::metrics::MetricAccumulator;
use copyattack::recsys::{
    split_dataset, BlackBoxRecommender, FallibleBlackBox, FaultConfig, FaultyRecommender, ItemId,
    PopularityRecommender, RankingEval, Scorer, UserId,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::trace::{self, span, Traced, Tracer};
use crate::workload::{Kind, Workload};

/// Registry key of the paper's attack.
const COPYATTACK: &str = "CopyAttack";

/// Label of Table 2's injection-free row.
const WITHOUT_ATTACK: &str = "WithoutAttack";

/// A deployed victim with the pipeline's pretend profiles established.
struct Deployed<V> {
    rec: V,
    pretend: Vec<UserId>,
}

impl<V: BlackBoxRecommender> Deployed<V> {
    fn establish(mut rec: V, profiles: &[Vec<ItemId>]) -> Self {
        let pretend = profiles.iter().map(|p| rec.inject_user(p)).collect();
        Self { rec, pretend }
    }

    fn victim(&self, label: &'static str) -> Victim<'_, V> {
        Victim { label, rec: &self.rec, pretend: &self.pretend }
    }
}

/// The attack arena's victims besides PinSage, trained and deployed over
/// the clean training split as the arena deploys them.
struct Victims {
    mf: Deployed<MfRecommender>,
    popularity: Deployed<PopularityRecommender>,
    knn: Deployed<ItemKnnRecommender>,
    ncf: Deployed<NcfRecommender>,
}

impl Victims {
    fn deploy(pipe: &Pipeline, seed: u64) -> Self {
        let clean = &pipe.split.train;
        let profiles = &pipe.pretend_profiles;
        let mf_cfg = BprConfig { max_epochs: 8, seed: seed ^ 21, ..Default::default() };
        let mf = MfRecommender::deploy(copyattack::mf::train(clean, &mf_cfg), clean.clone());
        let ncf_cfg = NcfConfig { max_epochs: 4, seed: seed ^ 22, ..Default::default() };
        let (ncf, _) = copyattack::ncf::train(clean, &pipe.split.validation, &ncf_cfg);
        // Refreshing every 8 injections puts NCF's fine-tune inside one
        // attack budget: there, an injection retrains the victim.
        let ncf = NcfRecommender::deploy(ncf, clean.clone(), 8, 1);
        Self {
            mf: Deployed::establish(mf, profiles),
            popularity: Deployed::establish(PopularityRecommender::deploy(clean.clone()), profiles),
            knn: Deployed::establish(ItemKnnRecommender::deploy(clean.clone()), profiles),
            ncf: Deployed::establish(ncf, profiles),
        }
    }
}

/// What set-up produced: the pipeline, and the extra victims when the
/// workload attacks them.
pub struct World {
    pub pipe: Pipeline,
    victims: Option<Victims>,
}

/// Set-up as the program does it: `Pipeline::build`, then the extra
/// victims when the workload attacks them.
pub fn setup(wl: &Workload, seed: u64) -> World {
    let pipe = Pipeline::build(&(wl.config)(seed));
    let victims = (wl.kind == Kind::Victims).then(|| Victims::deploy(&pipe, seed));
    World { pipe, victims }
}

/// Traced set-up: the stages of `Pipeline::build` called one by one, in
/// its order and with its seeds, each under a span; then the victims.
pub fn setup_traced(wl: &Workload, seed: u64, tr: &Tracer) -> World {
    let cfg = (wl.config)(seed);
    let world = tr.span("datagen.generate", || generate(&cfg.world));
    let split = tr.span("datagen.split", || {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(101));
        split_dataset(&world.target, 0.1, &mut rng)
    });
    let mut telemetry = TrainTelemetry::default();
    let (source_mf, _) = tr.span("train.source_mf", || {
        copyattack::mf::train_observed(&world.source, &cfg.source_mf, &mut telemetry.source_mf)
    });
    let (target_mf, _) = tr.span("train.target_mf", || {
        copyattack::mf::train_observed(&split.train, &cfg.target_mf, &mut telemetry.target_mf)
    });
    let (mut recommender, train_report) = tr.span("train.gnn", || {
        train_with_features_observed(
            target_mf.item_emb.clone(),
            &split.train,
            &split.validation,
            &cfg.gnn,
            &mut telemetry.gnn,
        )
    });
    let (pretend_profiles, pretend) = tr.span("setup.pretend", || {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(202));
        let profiles = plan_pretend_profiles(
            &split.train,
            cfg.attack.config.n_pretend,
            cfg.pretend_profile_len,
            &mut rng,
        );
        let ids: Vec<UserId> = profiles.iter().map(|p| recommender.inject_user(p)).collect();
        (profiles, ids)
    });
    let (eval_users, target_items) = tr.span("setup.sample", || {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(303));
        let mut users: Vec<UserId> = (0..world.target.n_users() as u32).map(UserId).collect();
        users.shuffle(&mut rng);
        users.truncate(cfg.n_eval_users);
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(404));
        let items = world.sample_attackable_cold_items(
            cfg.n_target_items,
            cfg.max_target_pop,
            cfg.min_source_pop,
            &mut rng,
        );
        (users, items)
    });
    assert!(
        !target_items.is_empty(),
        "world contains no attackable cold items — increase catalog size"
    );
    let knowledge = Arc::new(ItemKnowledge::new(
        world.truth.item_vecs.clone(),
        world.truth.item_cluster.clone(),
    ));
    let pipe = Pipeline {
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
        config: cfg,
    };
    let victims = (wl.kind == Kind::Victims)
        .then(|| tr.span("train.victims", || Victims::deploy(&pipe, seed)));
    World { pipe, victims }
}

/// 64-bit FNV-1a, for output digests.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Digest of what set-up hands the attack phase: the cold targets, the
/// pretend accounts and their profiles, the evaluation users, and the
/// victim's training report.
pub fn build_digest(p: &Pipeline) -> u64 {
    let mut h = Fnv::new();
    for ids in [&p.target_items, &p.pretend_profiles.concat()] {
        h.u64(ids.len() as u64);
        ids.iter().for_each(|v| h.u32(v.0));
    }
    for ids in [&p.pretend, &p.eval_users] {
        h.u64(ids.len() as u64);
        ids.iter().for_each(|u| h.u32(u.0));
    }
    let r = &p.train_report;
    h.u64(r.epochs_run as u64);
    r.val_hr10_history.iter().chain([&r.best_val_hr10]).for_each(|x| h.u32(x.to_bits()));
    h.0
}

/// Fault-layer counters of one evaluation episode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    pub query_attempts: u64,
    pub queries_failed: u64,
    pub inject_attempts: u64,
    pub injects_failed: u64,
    pub reestablished: u64,
    pub rounds_skipped: u64,
}

impl FaultCounts {
    fn of<P: FallibleBlackBox>(env: &AttackEnvironment<P>) -> Self {
        // A successful injection attempt either landed a crafted profile
        // or re-established a suspended account.
        let landed = env.injections() as u64 + env.reestablished();
        Self {
            query_attempts: env.queries(),
            queries_failed: env.failed_queries(),
            inject_attempts: env.inject_attempts(),
            injects_failed: env.inject_attempts().saturating_sub(landed),
            reestablished: env.reestablished(),
            rounds_skipped: env.skipped_rewards() as u64,
        }
    }
}

impl std::ops::Add for FaultCounts {
    type Output = Self;

    fn add(self, o: Self) -> Self {
        Self {
            query_attempts: self.query_attempts + o.query_attempts,
            queries_failed: self.queries_failed + o.queries_failed,
            inject_attempts: self.inject_attempts + o.inject_attempts,
            injects_failed: self.injects_failed + o.injects_failed,
            reestablished: self.reestablished + o.reestablished,
            rounds_skipped: self.rounds_skipped + o.rounds_skipped,
        }
    }
}

/// What one attack run produced.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub attack: String,
    pub victim: &'static str,
    pub target: ItemId,
    /// HR/NDCG@{20, 10, 5} of the target over the evaluation users.
    pub metrics: MetricAccumulator,
    /// Mean injected-profile length (Table 2's last column).
    pub avg_items: f32,
    /// Metered query attempts of the evaluation episode.
    pub queries: u64,
    /// Environments the run created: training episodes plus evaluation.
    pub episodes: u64,
    /// Batched rounds the traced wrapper answered in the evaluation
    /// episode; `None` untraced and behind the fault layer.
    pub rounds: Option<u64>,
    /// The evaluation episode's fault-layer counters.
    pub faults: FaultCounts,
    /// Why the run failed: a panic, an `AttackError`, an aborted episode.
    pub failure: Option<String>,
}

impl RunRecord {
    fn new(attack: &str, victim: &'static str, target: ItemId) -> Self {
        Self {
            attack: attack.to_string(),
            victim,
            target,
            metrics: MetricAccumulator::new(&[20, 10, 5]),
            avg_items: 0.0,
            queries: 0,
            episodes: 0,
            rounds: None,
            faults: FaultCounts::default(),
            failure: None,
        }
    }
}

/// The output digest: each run's attack, victim, target, HR@20, NDCG@20,
/// average items per profile, metered queries and failure, in pass order.
pub fn digest(runs: &[RunRecord]) -> u64 {
    let mut h = Fnv::new();
    for r in runs {
        h.str(&r.attack);
        h.str(r.victim);
        h.u32(r.target.0);
        h.u32(r.metrics.hr(20).to_bits());
        h.u32(r.metrics.ndcg(20).to_bits());
        h.u32(r.avg_items.to_bits());
        h.u64(r.queries);
        h.str(r.failure.as_deref().unwrap_or(""));
    }
    h.0
}

/// The first run on a reliable platform whose metered queries are not
/// `pretend` users × the batched rounds the traced wrapper answered.
pub fn metering_mismatch(runs: &[RunRecord], pretend: usize) -> Option<String> {
    runs.iter().find_map(|r| {
        let rounds = r.rounds?;
        let want = pretend as u64 * rounds;
        (r.failure.is_none() && r.queries != want).then(|| {
            format!(
                "{} on {} target {}: {} metered queries, but {pretend} pretend users x {rounds} \
                 rounds = {want}",
                r.attack, r.victim, r.target, r.queries
            )
        })
    })
}

/// A Table 2 row over `runs`, aggregated as
/// `Pipeline::run_spec_over_items` aggregates it.
pub fn aggregate(runs: &[RunRecord]) -> (MetricAccumulator, f32) {
    let mut metrics = MetricAccumulator::new(&[20, 10, 5]);
    let mut avg_items = 0.0f32;
    for r in runs {
        metrics.merge(&r.metrics);
        avg_items += r.avg_items;
    }
    (metrics, avg_items / runs.len().max(1) as f32)
}

/// The cold targets one pass attacks.
pub fn pass_targets<'a>(pipe: &'a Pipeline, wl: &Workload) -> &'a [ItemId] {
    &pipe.target_items[..wl.targets.min(pipe.target_items.len())]
}

/// One attack pass: the workload's runs in their fixed order. Untraced
/// (`tr` is `None`) it is the program's own path; traced, every layer call
/// is a span and the victim sits behind [`Traced`]. This is the only place
/// the attack phase is written down.
pub fn attack_pass(
    world: &World,
    wl: &Workload,
    seed: u64,
    tr: Option<&Arc<Tracer>>,
) -> Vec<RunRecord> {
    let pipe = &world.pipe;
    let targets = pass_targets(pipe, wl);
    let pinsage = Victim { label: "pinsage", rec: &pipe.recommender, pretend: &pipe.pretend };
    match wl.kind {
        Kind::Table2 => {
            let registry = pipe.registry::<PinSageRecommender>();
            let names = registry.names();
            let mut runs = Vec::with_capacity(targets.len() * (names.len() + 1));
            for &t in targets {
                runs.push(without_attack(pipe, t, tr));
                for name in &names {
                    runs.push(reliable_run(pipe, name, t, &pinsage, eval_pinsage, tr));
                }
            }
            runs
        }
        Kind::FanOut => {
            // The per-target fan-out of `Pipeline::run_spec_over_items`;
            // its workers adopt the caller's open span.
            let ctx = trace::current();
            let lanes = par::threads().min(targets.len()).max(1) as u32;
            par::map(targets, |_, &t| {
                trace::adopt(ctx, lanes, || {
                    reliable_run(pipe, COPYATTACK, t, &pinsage, eval_pinsage, tr)
                })
            })
        }
        Kind::Chaos => targets.iter().map(|&t| chaos_run(pipe, t, seed, tr)).collect(),
        Kind::Victims => {
            let v = world.victims.as_ref().expect("set-up deploys the victims of this workload");
            let mut runs = Vec::with_capacity(4 * targets.len());
            for &t in targets {
                runs.push(reliable_run(pipe, COPYATTACK, t, &v.mf.victim("mf"), eval_ranking, tr));
                let popularity = v.popularity.victim("popularity");
                runs.push(reliable_run(pipe, COPYATTACK, t, &popularity, eval_ranking, tr));
                runs.push(reliable_run(
                    pipe,
                    COPYATTACK,
                    t,
                    &v.knn.victim("knn"),
                    eval_ranking,
                    tr,
                ));
                runs.push(reliable_run(
                    pipe,
                    COPYATTACK,
                    t,
                    &v.ncf.victim("ncf"),
                    eval_ranking,
                    tr,
                ));
            }
            runs
        }
    }
}

/// A victim one run attacks: the deployment and its pretend accounts.
struct Victim<'a, V> {
    label: &'static str,
    rec: &'a V,
    pretend: &'a [UserId],
}

/// Promotion evaluation of a polluted victim, given the evaluation seed.
type Eval<V> = fn(&Pipeline, &V, ItemId, u64) -> MetricAccumulator;

fn eval_pinsage(
    pipe: &Pipeline,
    rec: &PinSageRecommender,
    t: ItemId,
    seed: u64,
) -> MetricAccumulator {
    pipe.evaluate_promotion(rec, t, seed)
}

/// `Pipeline::evaluate_promotion` for a victim other than PinSage: the
/// same evaluator, users and seed.
fn eval_ranking<V: Scorer>(pipe: &Pipeline, rec: &V, t: ItemId, seed: u64) -> MetricAccumulator {
    let mut rng = StdRng::seed_from_u64(seed);
    RankingEval::standard(&pipe.split.train).evaluate_promotion(rec, &pipe.eval_users, t, &mut rng)
}

/// The run's attack configuration, seeded as
/// `Pipeline::run_spec_over_items` seeds it (`seed ^ target`).
fn run_config(pipe: &Pipeline, t: ItemId) -> AttackConfig {
    let base = &pipe.config.attack.config;
    AttackConfig { seed: base.seed ^ u64::from(t.0), ..base.clone() }
}

fn env<P: FallibleBlackBox>(
    rec: P,
    pretend: &[UserId],
    t: ItemId,
    cfg: &AttackConfig,
) -> AttackEnvironment<P> {
    AttackEnvironment::new(rec, pretend.to_vec(), t, cfg.reward_k, cfg.budget)
}

/// Table 2's WithoutAttack row: promotion on the clean deployment.
fn without_attack(pipe: &Pipeline, t: ItemId, tr: Option<&Arc<Tracer>>) -> RunRecord {
    let tr = tr.map(|t| &**t);
    let seed = run_config(pipe, t).seed ^ 0x5EED;
    let mut run = RunRecord::new(WITHOUT_ATTACK, "pinsage", t);
    let outcome = trace::run_span(tr, "run", || {
        catch_unwind(AssertUnwindSafe(|| {
            run.metrics =
                span(tr, "eval.promotion", || pipe.evaluate_promotion(&pipe.recommender, t, seed));
        }))
    });
    if let Err(panic) = outcome {
        run.failure = Some(panic_message(panic));
    }
    run
}

/// One run against a reliable victim.
fn reliable_run<V>(
    pipe: &Pipeline,
    name: &str,
    t: ItemId,
    v: &Victim<'_, V>,
    eval: Eval<V>,
    tr: Option<&Arc<Tracer>>,
) -> RunRecord
where
    V: BlackBoxRecommender + Clone + 'static,
{
    let cfg = run_config(pipe, t);
    match tr {
        None => drive(
            pipe,
            name,
            t,
            v.label,
            &cfg,
            None,
            |_| env(v.rec.clone(), v.pretend, t, &cfg),
            |rec| (rec, None),
            eval,
        ),
        Some(tr) => {
            let base = Traced::new(v.rec.clone(), Arc::clone(tr));
            drive(
                pipe,
                name,
                t,
                v.label,
                &cfg,
                Some(&**tr),
                |_| env(base.clone(), v.pretend, t, &cfg),
                |rec: Traced<V>| {
                    let rounds = rec.rounds();
                    (rec.into_inner(), Some(rounds))
                },
                eval,
            )
        }
    }
}

/// One CopyAttack run where every episode's platform is PinSage behind a
/// chaos `FaultyRecommender`, seeded from the workload seed, the target
/// and the episode, under the default resilience.
fn chaos_run(pipe: &Pipeline, t: ItemId, seed: u64, tr: Option<&Arc<Tracer>>) -> RunRecord {
    let cfg = run_config(pipe, t);
    let run_seed = split_seed(seed, u64::from(t.0));
    let faults = move |episode: u64| FaultConfig::chaos(split_seed(run_seed, episode));
    match tr {
        None => drive(
            pipe,
            COPYATTACK,
            t,
            "pinsage",
            &cfg,
            None,
            |episode| pipe.make_faulty_env(t, faults(episode), ResilienceConfig::default()),
            |platform: FaultyRecommender<PinSageRecommender>| (platform.into_inner(), None),
            eval_pinsage,
        ),
        Some(tr) => {
            // `Pipeline::make_faulty_env` with the wrapper under the fault
            // layer, so the fault layer sees the same calls.
            let base = Traced::new(pipe.recommender.clone(), Arc::clone(tr));
            drive(
                pipe,
                COPYATTACK,
                t,
                "pinsage",
                &cfg,
                Some(&**tr),
                |episode| {
                    env(
                        FaultyRecommender::new(base.clone(), faults(episode)),
                        &pipe.pretend,
                        t,
                        &cfg,
                    )
                    .with_resilience(ResilienceConfig::default())
                    .with_pretend_profiles(pipe.pretend_profiles.clone())
                },
                |platform: FaultyRecommender<Traced<PinSageRecommender>>| {
                    (platform.into_inner().into_inner(), None)
                },
                eval_pinsage,
            )
        }
    }
}

/// The run itself, shared by every workload: `AttackRegistry::build`,
/// `Attack::prepare` against fresh environments, the evaluation episode
/// with `Attack::run`, then promotion evaluation of the polluted victim.
/// Seeds follow `Pipeline::run_spec_over_items`: episode RNG
/// `seed ^ 0xABCD`, evaluation `seed ^ 0x5EED`. A panic, an `AttackError`
/// or an aborted episode fails the run, not the benchmark.
#[allow(clippy::too_many_arguments)]
fn drive<P, V>(
    pipe: &Pipeline,
    name: &str,
    t: ItemId,
    victim: &'static str,
    cfg: &AttackConfig,
    tr: Option<&Tracer>,
    mut make_env: impl FnMut(u64) -> AttackEnvironment<P>,
    finish: impl FnOnce(P) -> (V, Option<u64>),
    eval: Eval<V>,
) -> RunRecord
where
    P: FallibleBlackBox + 'static,
{
    let mut run = RunRecord::new(name, victim, t);
    let outcome = trace::run_span(tr, "run", || {
        catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
            let src = pipe.source_domain();
            let target_src = pipe
                .world
                .source_item(t)
                .ok_or_else(|| format!("target {t} is not in the source domain"))?;
            let mut registry = AttackRegistry::<P>::with_builtins();
            registry.register_kg_attack(Arc::clone(&pipe.knowledge));
            let mut attack = span(tr, "core.build", || registry.build(name, cfg, &src, target_src))
                .map_err(|e| e.to_string())?;
            let mut episodes = 0;
            let mut next_env = || {
                episodes += 1;
                make_env(episodes - 1)
            };
            span(tr, "core.prepare", || attack.prepare(&src, &mut next_env));
            let mut env = next_env();
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xABCD);
            let outcome = span(tr, "core.run", || attack.run(&mut env, &src, target_src, &mut rng));
            run.episodes = episodes;
            run.queries = env.queries();
            run.faults = FaultCounts::of(&env);
            run.avg_items = outcome.avg_items_per_profile;
            if let Some(e) = outcome.aborted {
                return Err(format!("aborted: {e}"));
            }
            let (polluted, rounds) = finish(env.into_recommender());
            run.rounds = rounds;
            run.metrics =
                span(tr, "eval.promotion", || eval(pipe, &polluted, t, cfg.seed ^ 0x5EED));
            Ok(())
        }))
    });
    run.failure = match outcome {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e),
        Err(panic) => Some(panic_message(panic)),
    };
    run
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    let text = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned());
    format!("panic: {}", text.as_deref().unwrap_or("(no message)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use copyattack::pipeline::PipelineConfig;

    /// On the tiny preset, every workload's traced pass repeats the
    /// untraced one run for run: outputs, metered queries, episodes and
    /// fault counts. Its set-up reproduces `Pipeline::build`, the wrapper's
    /// rounds explain every metered query on a reliable platform, batched
    /// rounds never fall back to per-user scoring there, and the layers add
    /// up to the traced wall time.
    #[test]
    fn tiny_passes_agree_traced_and_untraced() {
        let seed = 7;
        for base in &WORKLOADS {
            let wl = Workload { config: PipelineConfig::tiny, targets: 1, ..base.clone() };
            let world = setup(&wl, seed);
            let plain = attack_pass(&world, &wl, seed, None);
            let tracer = Tracer::new();
            let (traced_world, traced) = tracer.span("traced", || {
                let w = setup_traced(&wl, seed, &tracer);
                let runs = attack_pass(&w, &wl, seed, Some(&tracer));
                (w, runs)
            });
            assert_eq!(build_digest(&world.pipe), build_digest(&traced_world.pipe), "{}", wl.name);
            assert_eq!(plain.len(), traced.len(), "{}", wl.name);
            for (p, t) in plain.iter().zip(&traced) {
                assert_eq!(p.failure, None, "{} {}", wl.name, p.attack);
                assert_eq!(digest(std::slice::from_ref(p)), digest(std::slice::from_ref(t)));
                assert_eq!((p.queries, p.episodes, p.faults), (t.queries, t.episodes, t.faults));
            }
            let spans = tracer.spans();
            if wl.kind != Kind::Chaos {
                assert_eq!(metering_mismatch(&traced, world.pipe.pretend.len()), None);
                assert!(traced.iter().any(|r| r.rounds.is_some_and(|n| n > 0)), "{}", wl.name);
                assert!(spans.iter().all(|s| s.name != "engine.single"), "{}", wl.name);
            }
            let root = spans.iter().find(|s| s.name == "traced").expect("root span");
            let total: f64 = trace::self_times(&spans).values().sum();
            assert!((total - root.secs()).abs() < 1e-6, "{}: {total} vs {}", wl.name, root.secs());
        }
    }
}
