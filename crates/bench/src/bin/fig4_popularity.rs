//! Figure 4: effect of item popularity on attack vulnerability.
//!
//! Groups the target catalog into 10 popularity deciles, samples target
//! items from each group, attacks them with CopyAttack, and reports HR@20
//! and NDCG@20 per group — "what kinds of items are vulnerable to attack".
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin fig4_popularity -- \
//!     --preset=ml10m --per-group=5
//! ```

use copyattack::pipeline::{attackable_from_group, AttackSpec, Pipeline};
use copyattack::recsys::popularity::PopularityGroups;
use copyattack_bench::{f4, preset, print_table, write_csv, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let preset_name = args.get("preset", "small");
    let seed: u64 = args.get_parse("seed", 42);
    let mut cfg = preset(&preset_name, seed);
    cfg.attack.config.episodes = args.get_parse("episodes", cfg.attack.config.episodes);
    let per_group: usize = args.get_parse("per-group", 5);
    let n_groups: usize = args.get_parse("groups", 10);

    eprintln!("building pipeline for preset {preset_name} ...");
    let pipe = Pipeline::build(&cfg);
    let groups = PopularityGroups::build(&pipe.world.target, n_groups);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(55));

    let mut rows = Vec::new();
    for g in 0..n_groups {
        // The paper samples 50 target items per decile; items must still
        // exist in the source domain to be attackable by CopyAttack.
        let items = attackable_from_group(
            &pipe.world,
            groups.group(g),
            per_group,
            cfg.min_source_pop,
            &mut rng,
        );
        if items.is_empty() {
            eprintln!("group {g}: no attackable items (no source carriers), skipping");
            rows.push(vec![format!("{}%", (g + 1) * 10), "-".into(), "-".into(), "0".into()]);
            continue;
        }
        let row = pipe
            .run_spec_over_items(&AttackSpec::new("CopyAttack", cfg.attack.config.clone()), &items);
        eprintln!(
            "group {g} (top {}%): HR@20 {:.4} over {} items",
            (g + 1) * 10,
            row.metrics.hr(20),
            items.len()
        );
        rows.push(vec![
            format!("{}%", (g + 1) * 10),
            f4(row.metrics.hr(20)),
            f4(row.metrics.ndcg(20)),
            items.len().to_string(),
        ]);
    }
    let header = ["popularity group (top X%)", "HR@20", "NDCG@20", "n items"];
    print_table(&format!("Figure 4: effect of item popularity on {preset_name}"), &header, &rows);
    write_csv(&format!("fig4_popularity_{preset_name}.csv"), &header, &rows);
}
