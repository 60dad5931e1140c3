//! Figure 3: effect of the hierarchical clustering tree's depth.
//!
//! Sweeps the decision depth `d` of CopyAttack's tree and reports HR@20
//! and NDCG@20 per depth (panels a–d of the figure; run once per preset).
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin fig3_depth -- \
//!     --preset=ml10m --items=20 --depths=2,3,4,5
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
    let items: usize = args.get_parse("items", 10);
    let default_depths = if preset_name == "ml20m" { "3,4,5,6,7,8" } else { "2,3,4,5" };
    let depths: Vec<usize> = args
        .get("depths", default_depths)
        .split(',')
        .map(|d| d.parse().expect("bad depth"))
        .collect();

    eprintln!("building pipeline for preset {preset_name} ...");
    let pipe = Pipeline::build(&cfg);
    let items = items.min(pipe.target_items.len());
    let chosen: Vec<_> = pipe.target_items.iter().copied().take(items).collect();

    let mut rows = Vec::new();
    for &d in &depths {
        let attack_cfg = AttackConfig { tree_depth: d, ..cfg.attack.config.clone() };
        let spec = AttackSpec::new("CopyAttack", attack_cfg);
        let (row, secs) = timed(|| pipe.run_spec_over_items(&spec, &chosen));
        eprintln!(
            "depth {d}: HR@20 {:.4} NDCG@20 {:.4} ({secs:.1}s)",
            row.metrics.hr(20),
            row.metrics.ndcg(20)
        );
        rows.push(vec![
            d.to_string(),
            f4(row.metrics.hr(20)),
            f4(row.metrics.ndcg(20)),
            format!("{secs:.1}"),
        ]);
    }
    let header = ["depth", "HR@20", "NDCG@20", "seconds"];
    print_table(
        &format!("Figure 3: effect of tree depth on {preset_name} ({items} target items)"),
        &header,
        &rows,
    );
    write_csv(&format!("fig3_depth_{preset_name}.csv"), &header, &rows);
}
