//! Golden bitwise-parity tests for the shared `ca-train` epoch driver.
//!
//! The mf/ncf/gnn training loops were folded into one driver; these goldens
//! were captured from the *pre-refactor* per-crate loops on a fixed world
//! and pin the unified path to them bit for bit — same RNG draw order, same
//! apply order, same early-stopping trace — at both `CA_THREADS=1` and `4`.
//! A hash change here means the refactor altered training, not just moved it.

use copyattack::gnn::GnnConfig;
use copyattack::mf::BprConfig;
use copyattack::ncf::NcfConfig;
use copyattack::par;
use copyattack::recsys::{split_dataset, Dataset, DatasetBuilder, ItemId, Split, UserId};
use copyattack::train::{fit, History, PairwiseModel, StopReason, TrainConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn hash_f32s(h: &mut u64, xs: &[f32]) {
    for &x in xs {
        *h = (*h ^ x.to_bits() as u64).wrapping_mul(FNV_PRIME);
    }
}

/// The fixed two-group world the goldens were captured on.
fn golden_world() -> Dataset {
    let mut b = DatasetBuilder::new(30);
    for u in 0..24u32 {
        let base = if u < 12 { 0u32 } else { 15 };
        let profile: Vec<ItemId> = (0..6).map(|i| ItemId(base + (u * 7 + i * 3) % 15)).collect();
        b.user(&profile);
    }
    b.build()
}

fn golden_split() -> Split {
    let mut rng = StdRng::seed_from_u64(42);
    split_dataset(&golden_world(), 0.1, &mut rng)
}

/// Runs `f` at 1 and 4 worker threads, restoring the ambient setting after.
fn at_thread_counts(f: impl Fn(usize)) {
    for t in [1usize, 4] {
        par::set_threads(Some(t));
        f(t);
    }
    par::set_threads(None);
}

#[test]
fn mf_training_matches_pre_refactor_golden() {
    at_thread_counts(|t| {
        let ds = golden_world();
        let cfg = BprConfig { max_epochs: 4, seed: 11, ..Default::default() };
        let m = copyattack::mf::train(&ds, &cfg);
        let mut h = FNV_OFFSET;
        hash_f32s(&mut h, m.user_emb.as_slice());
        hash_f32s(&mut h, m.item_emb.as_slice());
        hash_f32s(&mut h, &m.item_bias);
        assert_eq!(h, 0x6e92577392654f98, "mf golden hash diverged at CA_THREADS={t}");
        assert_eq!(m.user_emb.as_slice()[0].to_bits(), 0.10383288f32.to_bits());
        assert_eq!(m.user_emb.as_slice()[1].to_bits(), (-0.09230649f32).to_bits());
    });
}

#[test]
fn ncf_training_matches_pre_refactor_golden() {
    at_thread_counts(|t| {
        let split = golden_split();
        let cfg = NcfConfig { max_epochs: 4, seed: 12, ..Default::default() };
        let (m, rep) = copyattack::ncf::train(&split.train, &split.validation, &cfg);
        let mut h = FNV_OFFSET;
        hash_f32s(&mut h, m.p.as_slice());
        hash_f32s(&mut h, m.q.as_slice());
        hash_f32s(&mut h, &m.w_gmf);
        for l in m.mlp.layers() {
            hash_f32s(&mut h, l.w.as_slice());
            hash_f32s(&mut h, &l.b);
        }
        assert_eq!(h, 0x2993c89c0f57e710, "ncf golden hash diverged at CA_THREADS={t}");
        assert_eq!(rep.epochs_run, 4);
        assert_eq!(rep.best_val_hr10.to_bits(), 1036831949);
        let hist: Vec<u32> = rep.val_hr10_history.iter().map(|x| x.to_bits()).collect();
        assert_eq!(hist, [1036831949, 1036831949, 1036831949, 1036831949]);
    });
}

#[test]
fn gnn_training_matches_pre_refactor_golden() {
    at_thread_counts(|t| {
        let split = golden_split();
        let cfg = GnnConfig { max_epochs: 4, seed: 13, ..Default::default() };
        let (rec, rep) = copyattack::gnn::train(&split.train, &split.validation, &cfg);
        let mut h = FNV_OFFSET;
        for l in rec.model().user_tower.layers() {
            hash_f32s(&mut h, l.w.as_slice());
            hash_f32s(&mut h, &l.b);
        }
        for l in rec.model().item_tower.layers() {
            hash_f32s(&mut h, l.w.as_slice());
            hash_f32s(&mut h, &l.b);
        }
        assert_eq!(h, 0x9ec5534f7a803734, "gnn golden hash diverged at CA_THREADS={t}");
        assert_eq!(rep.epochs_run, 4);
        assert_eq!(rep.best_val_hr10.to_bits(), 1058642330);
        let hist: Vec<u32> = rep.val_hr10_history.iter().map(|x| x.to_bits()).collect();
        assert_eq!(hist, [1050253722, 1056964608, 1056964608, 1058642330]);
    });
}

#[test]
fn gnn_early_stopping_trace_matches_pre_refactor_golden() {
    at_thread_counts(|t| {
        let split = golden_split();
        let cfg = GnnConfig { max_epochs: 12, patience: 1, seed: 13, ..Default::default() };
        let (rec, rep) = copyattack::gnn::train(&split.train, &split.validation, &cfg);
        let mut h = FNV_OFFSET;
        for l in rec.model().user_tower.layers() {
            hash_f32s(&mut h, l.w.as_slice());
            hash_f32s(&mut h, &l.b);
        }
        assert_eq!(h, 0xdcea45cc110a0efa, "gnn early-stop golden diverged at CA_THREADS={t}");
        assert_eq!(rep.epochs_run, 3, "early stop must fire at the same epoch as before");
        let hist: Vec<u32> = rep.val_hr10_history.iter().map(|x| x.to_bits()).collect();
        assert_eq!(hist, [1050253722, 1056964608, 1056964608]);
    });
}

/// A world with 1,200 interaction pairs: at `minibatch: 512` every epoch
/// runs two full batches and a 176-pair tail.
fn minibatch_world() -> Dataset {
    let mut b = DatasetBuilder::new(80);
    for u in 0..150u32 {
        let base = if u < 75 { 0u32 } else { 40 };
        let profile: Vec<ItemId> = (0..8).map(|i| ItemId(base + (u * 11 + i * 5) % 40)).collect();
        b.user(&profile);
    }
    b.build()
}

/// The only golden whose batches exceed 256 pairs: the size at which the
/// driver used to hand per-pair gradients to worker threads.
#[test]
fn mf_training_at_minibatch_512_matches_golden() {
    at_thread_counts(|t| {
        let ds = minibatch_world();
        let cfg = BprConfig { max_epochs: 3, seed: 17, minibatch: 512, ..Default::default() };
        let m = copyattack::mf::train(&ds, &cfg);
        let mut h = FNV_OFFSET;
        hash_f32s(&mut h, m.user_emb.as_slice());
        hash_f32s(&mut h, m.item_emb.as_slice());
        hash_f32s(&mut h, &m.item_bias);
        assert_eq!(h, 0x2f20_7d10_ac01_c6c4, "minibatch-512 mf golden diverged at CA_THREADS={t}");
    });
}

/// A no-op model whose validation scores follow a fixed script — isolates
/// the driver's early-stopping logic from any real gradient math.
struct Scripted {
    scores: Vec<f32>,
    epoch: usize,
}

impl PairwiseModel for Scripted {
    type Grad = ();

    fn pair_grad(&self, _u: UserId, _pos: ItemId, _neg: ItemId, _g: &mut ()) -> f32 {
        0.0
    }

    fn apply(&mut self, _u: UserId, _pos: ItemId, _neg: ItemId, _g: &(), _lr: f32) {}

    fn validate(&mut self) -> Option<f32> {
        let s = self.scores.get(self.epoch).copied().unwrap_or(0.0);
        self.epoch += 1;
        Some(s)
    }
}

fn tiny_ds() -> Dataset {
    let mut b = DatasetBuilder::new(6);
    b.user(&[ItemId(0), ItemId(1)]);
    b.user(&[ItemId(2), ItemId(3)]);
    b.build()
}

fn run_scripted(scores: &[f32], patience: usize, seed: u64) -> (usize, History) {
    let mut model = Scripted { scores: scores.to_vec(), epoch: 0 };
    let mut hist = History::new();
    let cfg =
        TrainConfig { max_epochs: scores.len(), patience: Some(patience), ..Default::default() };
    let mut rng = StdRng::seed_from_u64(seed);
    let outcome = fit(&mut model, &tiny_ds(), &cfg, &mut rng, &mut hist);
    (outcome.epochs_run, hist)
}

proptest! {
    /// Loosening patience can only train longer, never shorter — for any
    /// validation-score script, `epochs_run` is monotone in `patience`.
    #[test]
    fn early_stop_is_monotone_in_patience(
        raw in proptest::collection::vec(0u32..1000, 3..12),
        patience in 1usize..5,
        seed in 0u64..1000,
    ) {
        let scores: Vec<f32> = raw.iter().map(|&r| r as f32 / 1000.0).collect();
        let (shorter, _) = run_scripted(&scores, patience, seed);
        let (longer, _) = run_scripted(&scores, patience + 1, seed);
        prop_assert!(shorter <= longer,
            "patience {} ran {} epochs but patience {} ran {}",
            patience, shorter, patience + 1, longer);
        // And the run never stops before the patience window can even fill.
        prop_assert!(shorter >= (patience + 1).min(scores.len()));
    }

}

/// The driver's stop decision must read the *post-update* validation score;
/// a scripted improvement at epoch 0 followed by flat scores stops exactly
/// `patience` epochs later.
#[test]
fn early_stop_counts_from_the_post_update_best() {
    let scores = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5];
    let (epochs, hist) = run_scripted(&scores, 2, 0);
    // Epoch 0 sets the best; epochs 1 and 2 fail to improve; stop after 3.
    assert_eq!(epochs, 3);
    assert!(matches!(hist.stop, Some(StopReason::EarlyStop { best_epoch: 0, .. })));
}
