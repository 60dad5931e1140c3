//! Service-layer bench for the `ca-serve` live platform: parallel query
//! throughput vs shard count, availability under injected shard-crash
//! rates, and attack efficacy — owner-population HR@20 uplift from a
//! profile-copy promotion — as the platform knobs (organic traffic rate,
//! retrain cadence, shard-crash rate) vary one at a time.
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin serve -- --reps=3
//! ```
//!
//! Before timing, the qps stage asserts the crash-free shard-count
//! invariance contract: every shard count must replay to the same digest
//! and serve the same lists. Speedups are reported as measured — on a
//! single-core container the wide column shows ~1.0×, which is the honest
//! number for that machine.
//!
//! Emits `results/BENCH_serve.json`.

use std::time::Instant;

use copyattack::datagen::{generate, CrossDomainConfig, OrganicSampler};
use copyattack::par;
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::{FallibleBlackBox, UserId};
use copyattack::serve::{LivePlatform, ServeConfig};
use copyattack_bench::{print_table, results_dir, Args};

/// Best-of-`reps` wall time of `f`, in microseconds.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// A drifted platform over `world` at `n_shards` shards (no fault
/// injection, so every shard count replays the same state).
fn drifted(
    world: &copyattack::datagen::CrossDomainDataset,
    beta: f32,
    cfg: ServeConfig,
) -> LivePlatform {
    let sampler = OrganicSampler::from_truth(&world.truth, beta);
    let mut p = LivePlatform::launch(&world.target, sampler, cfg).expect("valid serve config");
    p.advance(256);
    p
}

fn main() {
    let args = Args::parse();
    let reps: usize = args.get_parse("reps", 3);
    let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wide = machine.max(2);

    // --- Stage 1: parallel query throughput vs shard count ---------------
    let dcfg = CrossDomainConfig::small(0xCA5E);
    let world = generate(&dcfg);
    let n_queries = 4096usize;
    let users: Vec<UserId> =
        (0..n_queries as u32).map(|i| UserId(i % world.target.n_users() as u32)).collect();

    let base_cfg = ServeConfig {
        retrain_every: 64,
        retrain_ticks: 8,
        checkpoint_every: 32,
        ..Default::default()
    };
    let mut qps_rows = Vec::new();
    let mut qps_json = Vec::new();
    let mut reference: Option<(u64, Vec<_>)> = None;
    for shards in [1usize, 2, 4, 8] {
        let p = drifted(
            &world,
            dcfg.affinity_beta,
            ServeConfig { n_shards: shards, ..base_cfg.clone() },
        );
        par::set_threads(Some(1));
        let answers = p.par_serve_queries(&users, 20);
        let t1 = time_us(reps, || {
            let _ = p.par_serve_queries(&users, 20);
        });
        par::set_threads(Some(wide));
        assert_eq!(p.par_serve_queries(&users, 20), answers, "read path diverged across threads");
        let tn = time_us(reps, || {
            let _ = p.par_serve_queries(&users, 20);
        });
        par::set_threads(None);
        // Crash-free shard-count invariance: same digest, same answers.
        match &reference {
            None => reference = Some((p.replay_digest(), answers)),
            Some((digest, lists)) => {
                assert_eq!(p.replay_digest(), *digest, "drift diverged at {shards} shards");
                assert_eq!(&answers, lists, "serving diverged at {shards} shards");
            }
        }
        let (q1, qn) = (n_queries as f64 / (t1 / 1e6), n_queries as f64 / (tn / 1e6));
        qps_rows.push(vec![
            shards.to_string(),
            format!("{t1:.0}"),
            format!("{tn:.0}"),
            format!("{q1:.0}"),
            format!("{qn:.0}"),
            format!("{:.2}", t1 / tn),
        ]);
        qps_json.push(format!(
            concat!(
                "    {{\"shards\": {}, \"queries\": {}, \"serial_us\": {:.1}, ",
                "\"wide_us\": {:.1}, \"serial_qps\": {:.0}, \"wide_qps\": {:.0}}}"
            ),
            shards, n_queries, t1, tn, q1, qn
        ));
    }
    print_table(
        &format!("par_serve_queries qps vs shards (k=20, wide = {wide})"),
        &["shards", "serial_us", "wide_us", "serial_qps", "wide_qps", "x_wide"],
        &qps_rows,
    );

    // --- Stage 2: availability under injected shard-crash rates ----------
    let mut avail_rows = Vec::new();
    let mut avail_json = Vec::new();
    let ticks = 2_000u64;
    for (crash, stall) in [(0.0, 0.0), (0.005, 0.0025), (0.02, 0.01), (0.05, 0.02)] {
        let cfg = ServeConfig {
            n_shards: 4,
            crash_prob: crash,
            stall_prob: stall,
            retrain_every: 48,
            retrain_ticks: 6,
            checkpoint_every: 24,
            stall_detect_ticks: 12,
            restart_base: 8,
            restart_max: 64,
            ..Default::default()
        };
        let sampler = OrganicSampler::from_truth(&world.truth, dcfg.affinity_beta);
        let mut p = LivePlatform::launch(&world.target, sampler, cfg).expect("valid serve config");
        p.advance(ticks);
        for i in 0..500u32 {
            let _ = p.try_top_k(UserId(i % world.target.n_users() as u32), 20);
        }
        let s = p.stats().clone();
        let sum = |f: fn(&copyattack::serve::ShardStats) -> u64| {
            p.shards().iter().map(|sh| f(sh.stats())).sum::<u64>()
        };
        let (crashes, stalls, restarts) =
            (sum(|s| s.crashes), sum(|s| s.stalls), sum(|s| s.restarts));
        avail_rows.push(vec![
            format!("{crash:.3}"),
            format!("{stall:.4}"),
            format!("{:.4}", s.organic_availability()),
            format!("{:.4}", s.tenant_availability()),
            crashes.to_string(),
            stalls.to_string(),
            restarts.to_string(),
            s.models_built.to_string(),
        ]);
        avail_json.push(format!(
            concat!(
                "    {{\"crash_prob\": {}, \"stall_prob\": {}, \"ticks\": {}, ",
                "\"organic_availability\": {:.4}, \"tenant_availability\": {:.4}, ",
                "\"crashes\": {}, \"stalls\": {}, \"restarts\": {}, \"models_built\": {}}}"
            ),
            crash,
            stall,
            ticks,
            s.organic_availability(),
            s.tenant_availability(),
            crashes,
            stalls,
            restarts,
            s.models_built
        ));
    }
    print_table(
        "availability vs injected fault rates (4 shards, 2000 ticks)",
        &[
            "crash_p",
            "stall_p",
            "organic_avail",
            "tenant_avail",
            "crashes",
            "stalls",
            "restarts",
            "models",
        ],
        &avail_rows,
    );

    // --- Stage 3: attack efficacy vs platform knobs -----------------------
    // The promotion is the paper's profile-copy move: the pipeline's
    // crafted pretend profiles, each carrying the target item, injected as
    // tenant accounts. Uplift is the owner population's HR@20 delta once
    // retrains absorb the injected profiles — sensitive to organic
    // dilution, retrain cadence, and checkpoint rollback losing accounts.
    let pipe = Pipeline::build(&PipelineConfig::tiny(42));
    let target = pipe.target_items[0];
    let serve_base = ServeConfig {
        n_shards: 2,
        organic_rate: 2.0,
        retrain_every: 32,
        retrain_ticks: 4,
        checkpoint_every: 16,
        stall_detect_ticks: 12,
        restart_base: 8,
        restart_max: 64,
        ..Default::default()
    };
    let run_attack = |cfg: ServeConfig| {
        let sampler =
            OrganicSampler::from_truth(&pipe.world.truth, pipe.config.world.affinity_beta);
        let mut p =
            LivePlatform::launch(&pipe.world.target, sampler, cfg).expect("valid serve config");
        p.advance(128);
        let before = p.owner_hit_rate(target, 20);
        let mut injected = 0u64;
        for _ in 0..3 {
            for profile in &pipe.pretend_profiles {
                let mut crafted = profile.clone();
                crafted.push(target);
                if p.try_inject_user(&crafted).is_ok() {
                    injected += 1;
                }
            }
        }
        p.advance(384);
        let after = p.owner_hit_rate(target, 20);
        let crashes: u64 = p.shards().iter().map(|s| s.stats().crashes).sum();
        (before, after, injected, crashes, p.stats().organic_availability())
    };
    let grid: Vec<(&str, ServeConfig)> = vec![
        ("base", serve_base.clone()),
        ("organic_0.5", ServeConfig { organic_rate: 0.5, ..serve_base.clone() }),
        ("organic_8.0", ServeConfig { organic_rate: 8.0, ..serve_base.clone() }),
        ("retrain_8", ServeConfig { retrain_every: 8, retrain_ticks: 2, ..serve_base.clone() }),
        (
            "retrain_128",
            ServeConfig { retrain_every: 128, retrain_ticks: 16, ..serve_base.clone() },
        ),
        ("crash_0.02", ServeConfig { crash_prob: 0.02, ..serve_base.clone() }),
        ("crash_0.08", ServeConfig { crash_prob: 0.08, ..serve_base.clone() }),
    ];
    let mut atk_rows = Vec::new();
    let mut atk_json = Vec::new();
    for (name, cfg) in &grid {
        let (before, after, injected, crashes, avail) = run_attack(cfg.clone());
        atk_rows.push(vec![
            name.to_string(),
            format!("{:.1}", cfg.organic_rate),
            cfg.retrain_every.to_string(),
            format!("{:.2}", cfg.crash_prob),
            format!("{before:.4}"),
            format!("{after:.4}"),
            format!("{:+.4}", after - before),
            injected.to_string(),
            crashes.to_string(),
        ]);
        atk_json.push(format!(
            concat!(
                "    {{\"case\": \"{}\", \"organic_rate\": {}, \"retrain_every\": {}, ",
                "\"crash_prob\": {}, \"hr20_before\": {:.4}, \"hr20_after\": {:.4}, ",
                "\"uplift\": {:.4}, \"injected\": {}, \"crashes\": {}, ",
                "\"organic_availability\": {:.4}}}"
            ),
            name,
            cfg.organic_rate,
            cfg.retrain_every,
            cfg.crash_prob,
            before,
            after,
            after - before,
            injected,
            crashes,
            avail
        ));
    }
    print_table(
        "promotion HR@20 uplift vs platform knobs (owner population)",
        &[
            "case",
            "organic",
            "retrain",
            "crash_p",
            "hr20_pre",
            "hr20_post",
            "uplift",
            "inj",
            "crashes",
        ],
        &atk_rows,
    );

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"serve\",\n  \"reps\": {},\n  \"threads\": {},\n",
            "  \"qps_vs_shards\": [\n{}\n  ],\n",
            "  \"availability\": [\n{}\n  ],\n",
            "  \"attack_efficacy\": [\n{}\n  ]\n}}\n"
        ),
        reps,
        machine,
        qps_json.join(",\n"),
        avail_json.join(",\n"),
        atk_json.join(",\n")
    );
    let path = results_dir().join("BENCH_serve.json");
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}
