//! Microbench for the offline pipeline's per-target `ca-par` fan-out: an
//! 8-target [`ParallelCampaign`] timed at 1 worker, 2 workers, and the
//! machine's available parallelism via [`par::set_threads`] — the same
//! knob `CA_THREADS` drives.
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin offline -- --reps=5
//! ```
//!
//! Before any timing means anything, the stage asserts bitwise parity
//! between its serial and widest-parallel results (the `ca-par` contract).
//! Speedups are reported as measured: on a single-core container the
//! parallel columns show ~1.0× (plus scheduling overhead), which is the
//! honest number for that machine, not a defect in the runtime. Tree
//! building and BPR training are serial code, timed end to end by the
//! `e2ebench` package (`core.build_s`, `train.source_mf_s`).
//!
//! Emits `results/BENCH_offline.json`, plus `results/BENCH_train.json`
//! with per-epoch loss curves and pairs/sec for each model family's
//! training run, captured through the `ca-train` observer hook.

use std::time::Instant;

use copyattack::core::{
    AttackConfig, AttackEnvironment, CopyAttackVariant, ParallelCampaign, SourceDomain,
};
use copyattack::gnn::GnnConfig;
use copyattack::mf::{self, BprConfig};
use copyattack::ncf::NcfConfig;
use copyattack::par;
use copyattack::recsys::{
    split_dataset, BlackBoxRecommender, Dataset, DatasetBuilder, ItemId, UserId,
};
use copyattack::train::{History, StopReason};
use copyattack_bench::{f1, print_table, results_dir, Args};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Times `f` at `threads` workers and returns (time, last result).
fn timed_at<T>(threads: usize, reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    par::set_threads(Some(threads));
    let mut out = None;
    let us = time_us(reps, || out = Some(f()));
    (us, out.expect("at least one rep"))
}

/// Synthetic interaction dataset for the training-telemetry stage.
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

/// Renders one model's captured training [`History`] as a JSON object with
/// the curves the telemetry satellite promises: per-epoch loss, pairs/sec,
/// and the validation trace (empty for fixed-epoch runs).
fn history_json(model: &str, hist: &History) -> String {
    let join_f32 = |xs: &[f32]| xs.iter().map(|x| format!("{x:.6}")).collect::<Vec<_>>().join(", ");
    let pps: Vec<String> = hist.pairs_per_sec().iter().map(|x| format!("{x:.1}")).collect();
    let stop = match &hist.stop {
        None => "running".to_string(),
        Some(StopReason::MaxEpochs) => "max_epochs".to_string(),
        Some(StopReason::EarlyStop { best_epoch, .. }) => {
            format!("early_stop(best_epoch={best_epoch})")
        }
    };
    format!(
        concat!(
            "    {{\"model\": \"{}\", \"epochs_run\": {}, \"stop\": \"{}\", ",
            "\"loss_curve\": [{}], \"pairs_per_sec\": [{}], \"val_curve\": [{}]}}"
        ),
        model,
        hist.epochs.len(),
        stop,
        join_f32(&hist.loss_curve()),
        pps.join(", "),
        join_f32(&hist.val_curve()),
    )
}

/// Counting bandit platform (same flavor as the campaign test suites):
/// promotion flips on once two injected profiles carry the bridge item.
struct CountingRec {
    good: usize,
    n_users: usize,
    target: ItemId,
}

impl BlackBoxRecommender for CountingRec {
    fn top_k(&self, _u: UserId, k: usize) -> Vec<ItemId> {
        if self.good >= 2 {
            vec![self.target; k.min(1)]
        } else {
            vec![ItemId(9999); k.min(1)]
        }
    }
    fn inject_user(&mut self, profile: &[ItemId]) -> UserId {
        if profile.contains(&ItemId(777)) {
            self.good += 1;
        }
        let id = UserId(self.n_users as u32);
        self.n_users += 1;
        id
    }
    fn catalog_size(&self) -> usize {
        10_000
    }
}

/// Source world where items 0..8 all have carrier users (the 8 targets).
fn campaign_world() -> (Dataset, Vec<ItemId>) {
    let mut b = DatasetBuilder::new(100);
    for u in 0..64u32 {
        let mut profile = vec![ItemId(u % 30 + 30)];
        if u < 24 {
            profile.push(ItemId(u % 8));
            profile.push(ItemId(77));
        }
        profile.push(ItemId((u * 11) % 25));
        b.user(&profile);
    }
    let map: Vec<ItemId> = (0..100).map(|s| ItemId(s * 10 + 7)).collect();
    (b.build(), map)
}

fn main() {
    let args = Args::parse();
    let reps: usize = args.get_parse("reps", 5);
    let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The widest setting we time: the machine's parallelism, but at least 2
    // so the parallel code path is exercised even on a single-core box.
    let wide = machine.max(2);

    let mut rows = Vec::new();
    let mut cases = Vec::new();
    let mut push = |name: &str, size: usize, t1: f64, t2: f64, tn: f64| {
        rows.push(vec![
            name.to_string(),
            size.to_string(),
            format!("{t1:.0}"),
            format!("{t2:.0}"),
            format!("{tn:.0}"),
            f1((t1 / t2) as f32),
            f1((t1 / tn) as f32),
        ]);
        cases.push(format!(
            concat!(
                "    {{\"case\": \"{}\", \"size\": {}, ",
                "\"serial_us\": {:.1}, \"two_us\": {:.1}, \"wide_us\": {:.1}, ",
                "\"speedup_two\": {:.2}, \"speedup_wide\": {:.2}}}"
            ),
            name,
            size,
            t1,
            t2,
            tn,
            t1 / t2,
            t1 / tn,
        ));
    };

    // --- Stage 1: 8-target parallel campaign -------------------------------
    let (src_ds, map) = campaign_world();
    let surrogate = mf::train(&src_ds, &BprConfig { max_epochs: 3, ..Default::default() });
    let src = SourceDomain { data: &src_ds, mf: &surrogate, to_target: &map };
    let targets: Vec<ItemId> = (0..8u32).map(ItemId).collect();
    let attack = AttackConfig {
        budget: 6,
        n_pretend: 1,
        query_every: 2,
        episodes: 10,
        tree_depth: 2,
        lr: 0.05,
        seed: 11,
        ..Default::default()
    };
    let mut run = || {
        let mut campaign = ParallelCampaign::new(
            attack.clone(),
            CopyAttackVariant::no_crafting(),
            &src,
            targets.clone(),
        );
        campaign.train(&src, |t| {
            AttackEnvironment::new(
                CountingRec { good: 0, n_users: 0, target: map[t.idx()] },
                vec![UserId(0)],
                map[t.idx()],
                5,
                6,
            )
        })
    };
    let (t1, base) = timed_at(1, reps, &mut run);
    let (t2, _) = timed_at(2, reps, &mut run);
    let (tn, widest) = timed_at(wide, reps, &mut run);
    assert_eq!(widest, base, "campaign curves diverge across thread counts");
    push("campaign_8_targets", targets.len(), t1, t2, tn);

    par::set_threads(None);

    // --- Stage 2: per-model training telemetry -----------------------------
    // One real training run per model family, with the epoch-level curves
    // captured through the `ca-train` observer hook.
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

    let train_json = format!(
        "{{\n  \"bench\": \"train\",\n  \"models\": [\n{}\n  ]\n}}\n",
        [
            history_json("mf", &mf_hist),
            history_json("ncf", &ncf_hist),
            history_json("gnn", &gnn_hist)
        ]
        .join(",\n")
    );
    let train_path = results_dir().join("BENCH_train.json");
    std::fs::write(&train_path, train_json).expect("write BENCH_train.json");
    println!("wrote {}", train_path.display());

    print_table(
        &format!("offline pipeline (machine parallelism = {machine}, wide = {wide})"),
        &["stage", "size", "serial_us", "two_us", "wide_us", "x_two", "x_wide"],
        &rows,
    );

    let json = format!(
        "{{\n  \"bench\": \"offline\",\n  \"reps\": {},\n  \"threads\": {},\n  \"cases\": [\n{}\n  ]\n}}\n",
        reps,
        machine,
        cases.join(",\n")
    );
    let path = results_dir().join("BENCH_offline.json");
    std::fs::write(&path, json).expect("write BENCH_offline.json");
    println!("wrote {}", path.display());
}
