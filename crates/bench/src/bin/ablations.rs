//! Ablation sweeps over CopyAttack's RL design choices (DESIGN.md §5):
//! query cadence, discount factor γ, and the reward cutoff k.
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin ablations -- --preset=small --items=6
//! ```

use copyattack::core::AttackConfig;
use copyattack::pipeline::{AttackSpec, Pipeline};
use copyattack_bench::{f4, preset, print_table, timed, write_csv, Args};

fn main() {
    let args = Args::parse();
    let preset_name = args.get("preset", "small");
    let seed: u64 = args.get_parse("seed", 42);
    let mut cfg = preset(&preset_name, seed);
    cfg.attack.config.episodes = args.get_parse("episodes", cfg.attack.config.episodes);
    let items: usize = args.get_parse("items", 6);

    eprintln!("building pipeline for preset {preset_name} ...");
    let pipe = Pipeline::build(&cfg);
    let items = items.min(pipe.target_items.len());
    let chosen: Vec<_> = pipe.target_items.iter().copied().take(items).collect();

    let mut rows = Vec::new();
    let mut run = |label: String, attack_cfg: AttackConfig| {
        let spec = AttackSpec::new("CopyAttack", attack_cfg);
        let (row, secs) = timed(|| pipe.run_spec_over_items(&spec, &chosen));
        eprintln!("{label:<24} HR@20 {:.4} ({secs:.1}s)", row.metrics.hr(20));
        rows.push(vec![
            label,
            f4(row.metrics.hr(20)),
            f4(row.metrics.ndcg(20)),
            format!("{:.1}", row.avg_items_per_profile),
        ]);
    };

    // 1. Query cadence: how often the attacker spends queries on feedback.
    for q in [1usize, 3, 5, 10] {
        run(
            format!("query_every={q}"),
            AttackConfig { query_every: q, ..cfg.attack.config.clone() },
        );
    }
    // 2. Discount factor γ (paper: 0.6).
    for g in [0.0f32, 0.3, 0.6, 0.9] {
        run(format!("discount={g}"), AttackConfig { discount: g, ..cfg.attack.config.clone() });
    }
    // 3. Reward cutoff k (the Top-k list length the reward inspects).
    for k in [5usize, 10, 20] {
        run(format!("reward_k={k}"), AttackConfig { reward_k: k, ..cfg.attack.config.clone() });
    }

    let header = ["configuration", "HR@20", "NDCG@20", "avg items/profile"];
    print_table(
        &format!("CopyAttack RL ablations on {preset_name} ({items} target items)"),
        &header,
        &rows,
    );
    write_csv(&format!("ablations_{preset_name}.csv"), &header, &rows);
}
