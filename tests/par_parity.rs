//! Parity suite for the per-target `ca-par` fan-out: a multi-target
//! [`ParallelCampaign`] must produce bitwise-identical curves at any thread
//! count, and each curve must equal a standalone serial campaign at the
//! derived seed. The thread-count test sweeps `par::set_threads` over
//! {1, 2, 3, 8} — the same knob `CA_THREADS` sets from the environment —
//! and compares against the single-worker (serial) result.
//!
//! The sweep is safe under the parallel test runner precisely because the
//! property under test holds: outputs are thread-count-invariant, so a
//! concurrent test flipping the global knob cannot change any baseline.

use copyattack::core::{
    AttackConfig, AttackEnvironment, Campaign, CopyAttackVariant, ParallelCampaign, SourceDomain,
};
use copyattack::mf::{self, BprConfig};
use copyattack::par;
use copyattack::recsys::{BlackBoxRecommender, Dataset, DatasetBuilder, ItemId, UserId};

const THREAD_SWEEP: [usize; 4] = [1, 2, 3, 8];

/// Runs `f` once per sweep entry and asserts every result equals the
/// single-worker baseline; restores the default thread count after.
fn assert_thread_invariant<T: PartialEq + std::fmt::Debug>(label: &str, mut f: impl FnMut() -> T) {
    par::set_threads(Some(1));
    let base = f();
    for &t in &THREAD_SWEEP[1..] {
        par::set_threads(Some(t));
        let got = f();
        assert_eq!(got, base, "{label} diverges at {t} threads");
    }
    par::set_threads(None);
}

/// Minimal counting platform for the campaign parity test: promotion
/// succeeds once enough injected profiles carry the bridge item.
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

fn campaign_world() -> (Dataset, Vec<ItemId>) {
    let mut b = DatasetBuilder::new(100);
    for u in 0..40u32 {
        let mut profile = vec![ItemId(u % 30 + 30)];
        if u < 15 {
            profile.push(ItemId(3 + 2 * (u % 3)));
            profile.push(ItemId(77));
        }
        profile.push(ItemId((u * 11) % 25));
        b.user(&profile);
    }
    let map: Vec<ItemId> = (0..100).map(|s| ItemId(s * 10 + 7)).collect();
    (b.build(), map)
}

fn campaign_cfg() -> AttackConfig {
    AttackConfig {
        budget: 6,
        n_pretend: 1,
        query_every: 2,
        episodes: 8,
        tree_depth: 2,
        lr: 0.05,
        seed: 11,
        ..Default::default()
    }
}

fn campaign_env(map: &[ItemId], t: ItemId) -> AttackEnvironment<CountingRec> {
    AttackEnvironment::new(
        CountingRec { good: 0, n_users: 0, target: map[t.idx()] },
        vec![UserId(0)],
        map[t.idx()],
        5,
        6,
    )
}

#[test]
fn parallel_campaign_curves_are_invariant_to_ca_threads() {
    let (ds, map) = campaign_world();
    let surrogate = mf::train(&ds, &BprConfig { max_epochs: 3, ..Default::default() });
    let src = SourceDomain { data: &ds, mf: &surrogate, to_target: &map };
    let targets = vec![ItemId(3), ItemId(5), ItemId(7)];
    assert_thread_invariant("ParallelCampaign::train", || {
        let mut campaign = ParallelCampaign::new(
            campaign_cfg(),
            CopyAttackVariant::no_crafting(),
            &src,
            targets.clone(),
        );
        let curves = campaign.train(&src, |t| campaign_env(&map, t));
        curves.iter().map(|c| c.iter().map(|r| r.to_bits()).collect()).collect::<Vec<Vec<u32>>>()
    });
}

#[test]
fn parallel_campaign_matches_serial_single_target_campaigns() {
    let (ds, map) = campaign_world();
    let surrogate = mf::train(&ds, &BprConfig { max_epochs: 3, ..Default::default() });
    let src = SourceDomain { data: &ds, mf: &surrogate, to_target: &map };
    let targets = vec![ItemId(3), ItemId(5), ItemId(7)];

    let mut many = ParallelCampaign::new(
        campaign_cfg(),
        CopyAttackVariant::no_crafting(),
        &src,
        targets.clone(),
    );
    let curves = many.train(&src, |t| campaign_env(&map, t));

    // Each per-target curve must equal a standalone serial Campaign run at
    // the derived seed — the parallel path adds nothing but concurrency.
    for (i, &target) in targets.iter().enumerate() {
        let mut solo_cfg = campaign_cfg();
        solo_cfg.seed = par::split_seed(campaign_cfg().seed, i as u64);
        let mut solo =
            Campaign::new(solo_cfg, CopyAttackVariant::no_crafting(), &src, vec![target]);
        let solo_curve = solo.train(&src, |t| campaign_env(&map, t));
        assert_eq!(curves[i], solo_curve, "target {target} diverges from its standalone run");
    }
}
