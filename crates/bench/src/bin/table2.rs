//! Table 2: performance comparison of attacking methods.
//!
//! For every method row of the paper's Table 2, attacks `--items` cold
//! target items on the chosen preset and reports HR@{20,10,5},
//! NDCG@{20,10,5}, and the average number of items per injected profile.
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin table2 -- \
//!     --preset=ml10m --items=50 --episodes=60 [--skip-flat=true]
//! ```
//!
//! `--skip-flat=true` replaces the PolicyNetwork row with "–", mirroring
//! the paper's ML20M-NF entry (the flat baseline is the one that does not
//! scale; see the Criterion bench `selection` for the per-decision cost).

use copyattack::pipeline::Pipeline;
use copyattack_bench::{f1, f4, preset, print_table, timed, write_csv, Args};

fn main() {
    let args = Args::parse();
    let preset_name = args.get("preset", "small");
    let seed: u64 = args.get_parse("seed", 42);
    let mut cfg = preset(&preset_name, seed);
    let items: usize = args.get_parse("items", cfg.n_target_items.min(20));
    cfg.attack.config.episodes = args.get_parse("episodes", cfg.attack.config.episodes);
    cfg.attack.config.reward_k = args.get_parse("reward-k", cfg.attack.config.reward_k);
    let skip_flat: bool = args.get_parse("skip-flat", preset_name == "ml20m");

    eprintln!("building pipeline for preset {preset_name} (seed {seed}) ...");
    let (pipe, build_secs) = timed(|| Pipeline::build(&cfg));
    eprintln!(
        "pipeline ready in {build_secs:.1}s: target model val HR@10 = {:.4}, {} attackable cold items",
        pipe.train_report.best_val_hr10,
        pipe.target_items.len()
    );
    let items = items.min(pipe.target_items.len());

    // The paper's row order; every row but the first is a registry key.
    let table2 = [
        "Without Attack",
        "RandomAttack",
        "TargetAttack40",
        "TargetAttack70",
        "TargetAttack100",
        "PolicyNetwork",
        "CopyAttack-Masking",
        "CopyAttack-Length",
        "CopyAttack",
    ];
    let mut rows = Vec::new();
    for name in table2 {
        if name == "PolicyNetwork" && skip_flat {
            rows.push(vec![
                name.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            eprintln!("{name:<22} skipped (48h-infeasible row of the paper)");
            continue;
        }
        let (row, secs) = timed(|| {
            if name == "Without Attack" {
                pipe.run_without_attack(items)
            } else {
                pipe.run_attack_over_targets(name, items)
            }
        });
        eprintln!("{name:<22} HR@20 {:.4}  ({secs:.1}s over {items} items)", row.metrics.hr(20));
        rows.push(vec![
            row.name,
            f4(row.metrics.hr(20)),
            f4(row.metrics.hr(10)),
            f4(row.metrics.hr(5)),
            f4(row.metrics.ndcg(20)),
            f4(row.metrics.ndcg(10)),
            f4(row.metrics.ndcg(5)),
            f1(row.avg_items_per_profile),
            format!("{secs:.1}"),
        ]);
    }

    let header = [
        "method",
        "HR@20",
        "HR@10",
        "HR@5",
        "NDCG@20",
        "NDCG@10",
        "NDCG@5",
        "avg items/profile",
        "seconds",
    ];
    print_table(
        &format!("Table 2: attack comparison on {preset_name} ({items} target items)"),
        &header,
        &rows,
    );
    write_csv(&format!("table2_{preset_name}.csv"), &header, &rows);
}
