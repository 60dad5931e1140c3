//! Golden bitwise-parity tests for the attack arena refactor.
//!
//! Every Table 2 attacker used to be hard-wired into the pipeline's method
//! dispatch; it now routes through the string-keyed [`AttackRegistry`].
//! The hashes below were captured from the *pre-registry* pipeline on
//! `PipelineConfig::tiny(7)` and pin the registry path to it bit for bit —
//! same constructor order, same RNG seeding, same env lifecycle — at both
//! `CA_THREADS=1` and `4`. A hash change here means the registry rerouting
//! altered an attack, not just re-labelled it.

use copyattack::core::AttackConfig;
use copyattack::par;
use copyattack::pipeline::{Pipeline, PipelineConfig};
use proptest::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn hash_f32s(h: &mut u64, xs: &[f32]) {
    for &x in xs {
        *h = (*h ^ x.to_bits() as u64).wrapping_mul(FNV_PRIME);
    }
}

/// Runs `f` at 1 and 4 worker threads, restoring the ambient setting after.
fn at_thread_counts(f: impl Fn(usize)) {
    for t in [1usize, 4] {
        par::set_threads(Some(t));
        f(t);
    }
    par::set_threads(None);
}

/// The fixed world the goldens were captured on.
fn golden_pipeline() -> Pipeline {
    Pipeline::build(&PipelineConfig::tiny(7))
}

/// Hashes a Table 2 row exactly as the capture harness did: the six
/// promotion metrics followed by the mean injected-profile length.
fn row_hash(pipe: &Pipeline, name: &str) -> u64 {
    let row = pipe.run_attack_over_targets(name, 2);
    let mut h = FNV_OFFSET;
    hash_f32s(
        &mut h,
        &[
            row.metrics.hr(20),
            row.metrics.hr(10),
            row.metrics.hr(5),
            row.metrics.ndcg(20),
            row.metrics.ndcg(10),
            row.metrics.ndcg(5),
            row.avg_items_per_profile,
        ],
    );
    h
}

#[test]
fn heuristic_attacks_match_pre_registry_goldens() {
    at_thread_counts(|t| {
        let pipe = golden_pipeline();
        for (name, golden) in [
            ("RandomAttack", 0x71a2af7fe99e1fe2u64),
            ("TargetAttack40", 0x6eac32f8aa0f1e9d),
            ("TargetAttack70", 0x8e2e7ccc13e18564),
            ("TargetAttack100", 0x523311da0c6b2913),
        ] {
            let h = row_hash(&pipe, name);
            assert_eq!(h, golden, "{name} golden diverged at CA_THREADS={t}");
        }
    });
}

#[test]
fn learned_attacks_match_pre_registry_goldens() {
    at_thread_counts(|t| {
        let pipe = golden_pipeline();
        for (name, golden) in [
            ("PolicyNetwork", 0x322dc77e9ab156a5u64),
            ("CopyAttack", 0xe3375640c36a92a8),
            ("CopyAttack-Masking", 0x20915f7ffc321933),
            ("CopyAttack-Length", 0xffcc07a340a02fed),
        ] {
            let h = row_hash(&pipe, name);
            assert_eq!(h, golden, "{name} golden diverged at CA_THREADS={t}");
        }
    });
}

#[test]
fn every_table2_method_resolves_in_the_registry() {
    let pipe = golden_pipeline();
    let reg = pipe.registry::<copyattack::gnn::PinSageRecommender>();
    assert_eq!(
        reg.names(),
        vec![
            "CopyAttack",
            "CopyAttack-Length",
            "CopyAttack-Masking",
            "FakeProfile",
            "KgAttack",
            "PolicyNetwork",
            "RandomAttack",
            "TargetAttack100",
            "TargetAttack40",
            "TargetAttack70",
        ],
    );
}

/// Every registered attack — legacy and rival alike — must run end to end
/// through the pipeline's campaign machinery and produce finite metrics.
#[test]
fn every_registered_attack_runs_through_the_pipeline() {
    par::set_threads(Some(2));
    let pipe = golden_pipeline();
    let target = pipe.target_items[0];
    let names: Vec<String> = pipe
        .registry::<copyattack::gnn::PinSageRecommender>()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    for name in &names {
        let cfg = AttackConfig { seed: 1234, ..pipe.config.attack.config.clone() };
        let run = pipe.run_attack_cfg(name, target, &cfg);
        let (metrics, avg_items) = (&run.metrics, run.avg_items_per_profile());
        assert!(metrics.hr(20).is_finite(), "{name} produced a non-finite HR@20");
        assert!(avg_items > 0.0, "{name} injected no profiles");
    }
    par::set_threads(None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The rival attacks draw only from the episode RNG the pipeline seeds
    /// from the attack config, so re-running with the same seed must
    /// reproduce the same promotion bits exactly.
    #[test]
    fn rival_attacks_are_seed_deterministic(seed in 0u64..1 << 48) {
        let pipe = golden_pipeline();
        let target = pipe.target_items[1];
        for name in ["FakeProfile", "KgAttack"] {
            let cfg = AttackConfig { seed, ..pipe.config.attack.config.clone() };
            let r1 = pipe.run_attack_cfg(name, target, &cfg);
            let r2 = pipe.run_attack_cfg(name, target, &cfg);
            let (m1, a1) = (&r1.metrics, r1.avg_items_per_profile());
            let (m2, a2) = (&r2.metrics, r2.avg_items_per_profile());
            prop_assert_eq!(m1.hr(20).to_bits(), m2.hr(20).to_bits());
            prop_assert_eq!(m1.ndcg(20).to_bits(), m2.ndcg(20).to_bits());
            prop_assert_eq!(a1.to_bits(), a2.to_bits());
        }
    }
}
