//! Training telemetry: one real BPR training run per model family (MF,
//! NCF, the GNN) on a seeded synthetic dataset, with the epoch-level
//! curves captured through the `ca-train` observer hook.
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin train
//! ```
//!
//! Emits `results/BENCH_train.json`: per model, the epochs run, the stop
//! reason, and the per-epoch loss, pairs/sec and validation curves. The
//! loss and validation curves are seeded and reproduce byte for byte;
//! only `pairs_per_sec` is wall-clock.

use copyattack::gnn::GnnConfig;
use copyattack::mf::{self, BprConfig};
use copyattack::ncf::NcfConfig;
use copyattack::recsys::{split_dataset, Dataset, DatasetBuilder, ItemId};
use copyattack::train::{History, StopReason};
use copyattack_bench::{json_list, json_str, print_table, write_json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded synthetic interaction dataset the three models train on.
fn training_world(n_users: usize, n_items: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DatasetBuilder::new(n_items);
    for _ in 0..n_users {
        let profile: Vec<ItemId> =
            (0..20).map(|_| ItemId(rng.gen_range(0..n_items as u32))).collect();
        b.user(&profile);
    }
    b.build()
}

/// One model's captured training [`History`] as the fields of its JSON
/// object: per-epoch loss, pairs/sec, and the validation trace (empty for
/// fixed-epoch runs).
fn history_fields(model: &'static str, hist: &History) -> Vec<(&'static str, String)> {
    let f6 = |xs: Vec<f32>| json_list(xs.iter().map(|x| format!("{x:.6}")));
    let stop = match &hist.stop {
        None => "running".to_string(),
        Some(StopReason::MaxEpochs) => "max_epochs".to_string(),
        Some(StopReason::EarlyStop { best_epoch, .. }) => {
            format!("early_stop(best_epoch={best_epoch})")
        }
    };
    vec![
        ("model", json_str(model)),
        ("epochs_run", hist.epochs.len().to_string()),
        ("stop", json_str(&stop)),
        ("loss_curve", f6(hist.loss_curve())),
        ("pairs_per_sec", json_list(hist.pairs_per_sec().iter().map(|x| format!("{x:.1}")))),
        ("val_curve", f6(hist.val_curve())),
    ]
}

fn main() {
    let tele_ds = training_world(600, 300, 0xCAFE);
    let mut split_rng = StdRng::seed_from_u64(5);
    let split = split_dataset(&tele_ds, 0.1, &mut split_rng);

    let mut mf_hist = History::new();
    let mf_cfg = BprConfig { max_epochs: 5, seed: 21, minibatch: 128, ..Default::default() };
    mf::train_observed(&split.train, &mf_cfg, &mut mf_hist);

    let mut ncf_hist = History::new();
    let ncf_cfg = NcfConfig { max_epochs: 5, seed: 22, ..Default::default() };
    copyattack::ncf::train_observed(&split.train, &split.validation, &ncf_cfg, &mut ncf_hist);

    let mut gnn_hist = History::new();
    let gnn_cfg = GnnConfig { max_epochs: 5, seed: 23, ..Default::default() };
    copyattack::gnn::train_observed(&split.train, &split.validation, &gnn_cfg, &mut gnn_hist);

    let train_rows: Vec<Vec<String>> = [("mf", &mf_hist), ("ncf", &ncf_hist), ("gnn", &gnn_hist)]
        .iter()
        .map(|(name, h)| {
            let mean_pps = h.pairs_per_sec().iter().sum::<f64>() / h.epochs.len().max(1) as f64;
            vec![
                name.to_string(),
                h.epochs.len().to_string(),
                h.loss_curve().first().map_or("-".into(), |l| format!("{l:.4}")),
                h.loss_curve().last().map_or("-".into(), |l| format!("{l:.4}")),
                format!("{mean_pps:.0}"),
            ]
        })
        .collect();
    print_table(
        "training telemetry (ca-train observer)",
        &["model", "epochs", "loss_first", "loss_last", "pairs_per_sec"],
        &train_rows,
    );

    let models = [
        history_fields("mf", &mf_hist),
        history_fields("ncf", &ncf_hist),
        history_fields("gnn", &gnn_hist),
    ];
    write_json("BENCH_train.json", &[("bench", json_str("train"))], "models", &models);
}
