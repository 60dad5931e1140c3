//! Golden bitwise-parity anchors for the CSR data-plane refactor.
//!
//! These hashes were captured from the *pre-refactor* nested-`Vec` dataset
//! layout (`profiles: Vec<Vec<ItemId>>` + `item_users: Vec<Vec<UserId>>`)
//! on fixed seeds, at both `CA_THREADS=1` and `4`. They pin three things
//! the compact CSR arena must reproduce bit for bit:
//!
//! 1. generated cross-domain worlds (profiles, inverted index, alignment);
//! 2. the 80/10/10 split built on top of them;
//! 3. an end-to-end CopyAttack run's promotion metrics (the attack curve's
//!    endpoint flows through every dataset consumer: datagen, split, MF and
//!    GNN training, env carrier masking, injection, and evaluation).
//!
//! A hash change here means the data-plane refactor altered *behavior*,
//! not just layout.

use copyattack::datagen::{generate, CrossDomainConfig};
use copyattack::par;
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::{split_dataset, Dataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn mix(h: &mut u64, x: u64) {
    *h = (*h ^ x).wrapping_mul(FNV_PRIME);
}

/// Order-sensitive hash of every observable facet of a dataset: profile
/// sequences, the inverted item index, popularity, and counts.
fn hash_dataset(ds: &Dataset) -> u64 {
    let mut h = FNV_OFFSET;
    mix(&mut h, ds.n_users() as u64);
    mix(&mut h, ds.n_items() as u64);
    mix(&mut h, ds.n_interactions() as u64);
    for u in ds.users() {
        for &v in ds.profile(u) {
            mix(&mut h, v.0 as u64);
        }
        mix(&mut h, u64::MAX); // profile separator
    }
    for v in ds.items() {
        mix(&mut h, ds.item_popularity(v) as u64);
        for &u in ds.item_profile(v).iter() {
            mix(&mut h, u.0 as u64);
        }
        mix(&mut h, u64::MAX);
    }
    h
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
fn generated_worlds_match_nested_vec_golden() {
    at_thread_counts(|t| {
        let w = generate(&CrossDomainConfig::tiny(42));
        assert_eq!(
            hash_dataset(&w.target),
            0x0ab63518be3752b9,
            "tiny target diverged at CA_THREADS={t}"
        );
        assert_eq!(
            hash_dataset(&w.source),
            0x92cdabd9221dfb72,
            "tiny source diverged at CA_THREADS={t}"
        );
        let mut h = FNV_OFFSET;
        for &v in &w.source_to_target {
            mix(&mut h, v.0 as u64);
        }
        assert_eq!(h, 0x6ed7bbf8eafc97c8, "tiny alignment diverged at CA_THREADS={t}");

        let w = generate(&CrossDomainConfig::small(7));
        assert_eq!(
            hash_dataset(&w.target),
            0x411c011789d375d0,
            "small target diverged at CA_THREADS={t}"
        );
        assert_eq!(
            hash_dataset(&w.source),
            0xad0d5a5f349c828e,
            "small source diverged at CA_THREADS={t}"
        );
    });
}

#[test]
fn split_on_generated_world_matches_nested_vec_golden() {
    at_thread_counts(|t| {
        let w = generate(&CrossDomainConfig::tiny(42));
        let mut rng = StdRng::seed_from_u64(9);
        let s = split_dataset(&w.target, 0.1, &mut rng);
        let mut h = hash_dataset(&s.train);
        for p in s.validation.iter().chain(s.test.iter()) {
            mix(&mut h, p.user.0 as u64);
            mix(&mut h, p.item.0 as u64);
        }
        assert_eq!(h, 0x66310c1db41ac62d, "split diverged at CA_THREADS={t}");
    });
}

#[test]
fn copyattack_curve_matches_nested_vec_golden() {
    at_thread_counts(|t| {
        let pipe = Pipeline::build(&PipelineConfig::tiny(7));
        let row = pipe.run_attack_over_targets("CopyAttack", 2);
        let mut h = FNV_OFFSET;
        mix(&mut h, row.metrics.count() as u64);
        for k in [20usize, 10, 5] {
            mix(&mut h, row.metrics.hr(k).to_bits() as u64);
            mix(&mut h, row.metrics.ndcg(k).to_bits() as u64);
        }
        mix(&mut h, row.avg_items_per_profile.to_bits() as u64);
        assert_eq!(h, 0x3dba54e7f58966e6, "attack curve diverged at CA_THREADS={t}");
    });
}

#[test]
#[ignore = "one-shot golden capture"]
fn capture_goldens() {
    at_thread_counts(|t| {
        let w = generate(&CrossDomainConfig::tiny(42));
        eprintln!("t={t} tiny target  {:#x}", hash_dataset(&w.target));
        eprintln!("t={t} tiny source  {:#x}", hash_dataset(&w.source));
        let mut h = FNV_OFFSET;
        for &v in &w.source_to_target {
            mix(&mut h, v.0 as u64);
        }
        eprintln!("t={t} tiny align   {h:#x}");
        let mut rng = StdRng::seed_from_u64(9);
        let s = split_dataset(&w.target, 0.1, &mut rng);
        let mut h = hash_dataset(&s.train);
        for p in s.validation.iter().chain(s.test.iter()) {
            mix(&mut h, p.user.0 as u64);
            mix(&mut h, p.item.0 as u64);
        }
        eprintln!("t={t} tiny split   {h:#x}");
        let w = generate(&CrossDomainConfig::small(7));
        eprintln!("t={t} small target {:#x}", hash_dataset(&w.target));
        eprintln!("t={t} small source {:#x}", hash_dataset(&w.source));
        let pipe = Pipeline::build(&PipelineConfig::tiny(7));
        let row = pipe.run_attack_over_targets("CopyAttack", 2);
        let mut h = FNV_OFFSET;
        mix(&mut h, row.metrics.count() as u64);
        for k in [20usize, 10, 5] {
            mix(&mut h, row.metrics.hr(k).to_bits() as u64);
            mix(&mut h, row.metrics.ndcg(k).to_bits() as u64);
        }
        mix(&mut h, row.avg_items_per_profile.to_bits() as u64);
        eprintln!("t={t} attack curve {h:#x}");
    });
}
