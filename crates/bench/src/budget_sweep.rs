//! Shared implementation of the Figure 5 / Figure 6 budget sweeps.

use crate::{f4, preset, print_table, timed, write_csv, Args};
use copyattack::core::AttackConfig;
use copyattack::pipeline::{AttackSpec, Pipeline};

/// Runs the budget sweep. `default_preset` picks the dataset when
/// `--preset=` is absent; `figure` names the output CSV.
pub fn run(default_preset: &str, figure: &str) {
    let args = Args::parse();
    let preset_name = args.get("preset", default_preset);
    let seed: u64 = args.get_parse("seed", 42);
    let mut cfg = preset(&preset_name, seed);
    cfg.attack.config.episodes = args.get_parse("episodes", cfg.attack.config.episodes);
    let items: usize = args.get_parse("items", 10);
    let budgets: Vec<usize> = args
        .get("budgets", "3,9,15,21,27,33,39,45")
        .split(',')
        .map(|b| b.parse().expect("bad budget"))
        .collect();

    eprintln!("building pipeline for preset {preset_name} ...");
    let pipe = Pipeline::build(&cfg);
    let items = items.min(pipe.target_items.len());
    let chosen: Vec<_> = pipe.target_items.iter().copied().take(items).collect();

    let methods =
        ["RandomAttack", "TargetAttack40", "TargetAttack70", "TargetAttack100", "CopyAttack"];

    let mut hr_rows = Vec::new();
    let mut ndcg_rows = Vec::new();
    for &budget in &budgets {
        let mut hr_row = vec![budget.to_string()];
        let mut ndcg_row = vec![budget.to_string()];
        for method in methods {
            let attack_cfg = AttackConfig {
                budget,
                query_every: cfg.attack.config.query_every.min(budget),
                ..cfg.attack.config.clone()
            };
            let spec = AttackSpec::new(method, attack_cfg);
            let (row, secs) = timed(|| pipe.run_spec_over_items(&spec, &chosen));
            eprintln!(
                "budget {budget:>3} {method:<16} HR@20 {:.4} ({secs:.1}s)",
                row.metrics.hr(20)
            );
            hr_row.push(f4(row.metrics.hr(20)));
            ndcg_row.push(f4(row.metrics.ndcg(20)));
        }
        hr_rows.push(hr_row);
        ndcg_rows.push(ndcg_row);
    }

    let header = [
        "budget",
        "RandomAttack",
        "TargetAttack40",
        "TargetAttack70",
        "TargetAttack100",
        "CopyAttack",
    ];
    print_table(
        &format!("{figure}: HR@20 vs budget on {preset_name} ({items} target items)"),
        &header,
        &hr_rows,
    );
    print_table(&format!("{figure}: NDCG@20 vs budget on {preset_name}"), &header, &ndcg_rows);
    write_csv(&format!("{figure}_budget_hr20_{preset_name}.csv"), &header, &hr_rows);
    write_csv(&format!("{figure}_budget_ndcg20_{preset_name}.csv"), &header, &ndcg_rows);
}
