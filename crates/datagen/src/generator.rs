//! The cross-domain dataset generator.
//!
//! [`generate`] draws the whole world from one RNG stream seeded by the
//! config: first the shared latent world (`build_world`), then every
//! target user, then every source user (`sample_user`), each profile
//! appended straight into a flat [`DatasetBuilder`] arena. Its output is
//! bitwise-pinned by golden hashes (`tests/dataplane_golden.rs`) and must
//! never change.

use crate::config::CrossDomainConfig;
use crate::latent::{around, sample_centers, zipf_weights, LatentTruth};
use ca_recsys::{Dataset, DatasetBuilder, ItemId};
use ca_tensor::{ops, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A generated pair of domains plus the alignment between their catalogs
/// and the ground-truth latent state.
#[derive(Clone, Debug)]
pub struct CrossDomainDataset {
    /// Target domain `A` (the platform being attacked). Item ids
    /// `0..n_target_items`.
    pub target: Dataset,
    /// Source domain `B`. Its catalog is exactly the overlapping items
    /// (the paper keeps only overlapping items in the source domain),
    /// re-indexed `0..n_overlap`.
    pub source: Dataset,
    /// Alignment map: source item id → target item id. This models the
    /// "aligned by movie name (and year)" step of §5.1.1.
    pub source_to_target: Vec<ItemId>,
    /// Reverse alignment: target item id → source item id (None when the
    /// item does not exist in the source domain).
    pub target_to_source: Vec<Option<ItemId>>,
    /// Ground truth used to generate the world.
    pub truth: LatentTruth,
}

/// Table 1-style statistics of a generated dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetStats {
    /// Target-domain users.
    pub target_users: usize,
    /// Target-domain items.
    pub target_items: usize,
    /// Target-domain interactions.
    pub target_interactions: usize,
    /// Source-domain users.
    pub source_users: usize,
    /// Overlapping items.
    pub overlap_items: usize,
    /// Source-domain interactions.
    pub source_interactions: usize,
}

impl CrossDomainDataset {
    /// The overlapping items, in target-domain ids.
    pub fn overlap_items(&self) -> &[ItemId] {
        &self.source_to_target
    }

    /// Translates one source-domain profile into target-domain item ids
    /// (always succeeds: every source item is an overlapping item).
    pub fn translate_profile(&self, profile: &[ItemId]) -> Vec<ItemId> {
        profile.iter().map(|&v| self.source_to_target[v.idx()]).collect()
    }

    /// The source-domain id of a target item, if it overlaps.
    pub fn source_item(&self, target_item: ItemId) -> Option<ItemId> {
        self.target_to_source[target_item.idx()]
    }

    /// Samples `n` attackable cold target items: fewer than
    /// `max_target_pop` target interactions (the paper uses 10), existing
    /// in the source domain with at least `min_source_pop` source users
    /// (CopyAttack needs at least one copyable profile containing the
    /// item).
    pub fn sample_attackable_cold_items(
        &self,
        n: usize,
        max_target_pop: usize,
        min_source_pop: usize,
        rng: &mut impl Rng,
    ) -> Vec<ItemId> {
        let mut cands: Vec<ItemId> = self
            .source_to_target
            .iter()
            .enumerate()
            .filter(|&(s, &t)| {
                self.target.item_popularity(t) < max_target_pop
                    && self.source.item_popularity(ItemId(s as u32)) >= min_source_pop
            })
            .map(|(_, &t)| t)
            .collect();
        cands.shuffle(rng);
        cands.truncate(n);
        cands
    }

    /// Table 1 statistics.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            target_users: self.target.n_users(),
            target_items: self.target.n_items(),
            target_interactions: self.target.n_interactions(),
            source_users: self.source.n_users(),
            overlap_items: self.source.n_items(),
            source_interactions: self.source.n_interactions(),
        }
    }
}

/// Everything about a generated world except the users: latent structure,
/// popularity, and the cross-domain alignment.
struct World {
    centers: Matrix,
    item_vecs: Matrix,
    item_cluster: Vec<usize>,
    item_pop: Vec<f32>,
    source_to_target: Vec<ItemId>,
    target_to_source: Vec<Option<ItemId>>,
    /// `0..n_items` — the target sampling catalog.
    full_catalog: Vec<usize>,
    /// Overlap items as target-space indices — the source sampling catalog.
    overlap_catalog: Vec<usize>,
}

/// Draws the world (centers, item vectors, popularity ranks, overlap) from
/// `rng`. The draw order is part of [`generate`]'s bitwise contract.
fn build_world(rng: &mut StdRng, cfg: &CrossDomainConfig) -> World {
    let centers = sample_centers(rng, cfg.n_clusters, cfg.latent_dim);
    let n_items = cfg.n_target_items;
    let mut item_cluster = Vec::with_capacity(n_items);
    let mut item_vecs = Matrix::zeros(n_items, cfg.latent_dim);
    for i in 0..n_items {
        let c = rng.gen_range(0..cfg.n_clusters);
        item_cluster.push(c);
        let v = around(rng, centers.row(c), cfg.item_noise);
        item_vecs.row_mut(i).copy_from_slice(&v);
    }
    // Popularity ranks: a random permutation of 0..n (rank 0 = most popular).
    let mut ranks: Vec<usize> = (0..n_items).collect();
    ranks.shuffle(rng);
    let item_pop = zipf_weights(&ranks, cfg.popularity_alpha);

    // --- Overlap / alignment ------------------------------------------------
    let mut target_ids: Vec<u32> = (0..n_items as u32).collect();
    target_ids.shuffle(rng);
    let mut overlap: Vec<u32> = target_ids[..cfg.n_overlap].to_vec();
    overlap.sort_unstable();
    let source_to_target: Vec<ItemId> = overlap.iter().map(|&t| ItemId(t)).collect();
    let mut target_to_source = vec![None; n_items];
    for (s, &t) in overlap.iter().enumerate() {
        target_to_source[t as usize] = Some(ItemId(s as u32));
    }
    let overlap_catalog: Vec<usize> = overlap.iter().map(|&t| t as usize).collect();

    World {
        centers,
        item_vecs,
        item_cluster,
        item_pop,
        source_to_target,
        target_to_source,
        full_catalog: (0..n_items).collect(),
        overlap_catalog,
    }
}

/// Draws one user: a cluster, whose center the user's latent vector lies
/// around, then a profile over `catalog` (target-space indices). The
/// temporal ordering is applied inside [`sample_profile`].
fn sample_user(
    rng: &mut StdRng,
    world: &World,
    dcfg: &crate::config::DomainConfig,
    catalog: &[usize],
    n_clusters: usize,
    user_noise: f32,
    beta: f32,
) -> (Vec<f32>, Vec<usize>) {
    let c = rng.gen_range(0..n_clusters);
    let uvec = around(rng, world.centers.row(c), user_noise);
    let len = sample_len(rng, dcfg);
    let profile = sample_profile(rng, &uvec, catalog, &world.item_pop, &world.item_vecs, beta, len);
    (uvec, profile)
}

/// Generates a cross-domain world from the configuration (bitwise-pinned
/// by golden hashes).
///
/// # Panics
/// Panics if the configuration fails [`CrossDomainConfig::validate`].
pub fn generate(cfg: &CrossDomainConfig) -> CrossDomainDataset {
    cfg.validate().unwrap_or_else(|e| panic!("invalid config: {e}"));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let world = build_world(&mut rng, cfg);

    // --- Users and profiles -------------------------------------------------
    let mut target_user_vecs = Matrix::zeros(cfg.target.n_users, cfg.latent_dim);
    let mut target_b = DatasetBuilder::new(cfg.n_target_items);
    let mut ids: Vec<ItemId> = Vec::new();
    for u in 0..cfg.target.n_users {
        let (uvec, profile) = sample_user(
            &mut rng,
            &world,
            &cfg.target,
            &world.full_catalog,
            cfg.n_clusters,
            cfg.user_noise,
            cfg.affinity_beta,
        );
        ids.clear();
        ids.extend(profile.iter().map(|&i| ItemId(i as u32)));
        target_b.user(&ids);
        target_user_vecs.row_mut(u).copy_from_slice(&uvec);
    }

    let mut source_user_vecs = Matrix::zeros(cfg.source.n_users, cfg.latent_dim);
    let mut source_b = DatasetBuilder::new(cfg.n_overlap);
    for u in 0..cfg.source.n_users {
        // Sample in *target* item space over the overlap catalog, then map
        // down to source ids.
        let (uvec, profile) = sample_user(
            &mut rng,
            &world,
            &cfg.source,
            &world.overlap_catalog,
            cfg.n_clusters,
            cfg.user_noise,
            cfg.affinity_beta,
        );
        ids.clear();
        ids.extend(
            profile
                .iter()
                .map(|&t| world.target_to_source[t].expect("overlap catalog item must map back")),
        );
        source_b.user(&ids);
        source_user_vecs.row_mut(u).copy_from_slice(&uvec);
    }

    assemble(world, target_b, target_user_vecs, source_b, source_user_vecs)
}

/// Finalizes both domains into a [`CrossDomainDataset`].
fn assemble(
    world: World,
    target_b: DatasetBuilder,
    target_user_vecs: Matrix,
    source_b: DatasetBuilder,
    source_user_vecs: Matrix,
) -> CrossDomainDataset {
    let truth = LatentTruth {
        item_vecs: world.item_vecs,
        item_cluster: world.item_cluster,
        item_pop: world.item_pop,
        target_user_vecs,
        source_user_vecs,
    };
    let target = target_b.build();
    let source = source_b.build();
    debug_assert!(target.check_consistency().is_ok());
    debug_assert!(source.check_consistency().is_ok());
    CrossDomainDataset {
        target,
        source,
        source_to_target: world.source_to_target,
        target_to_source: world.target_to_source,
        truth,
    }
}

/// Samples a profile length: `mean · exp(N(0, 0.5²))`, clamped.
fn sample_len(rng: &mut impl Rng, d: &crate::config::DomainConfig) -> usize {
    let z = ca_tensor::gaussian(rng, 0.0, 0.5);
    let len = (d.profile_len_mean * z.exp()).round() as usize;
    len.clamp(d.profile_len_min, d.profile_len_max)
}

/// Samples `len` distinct items from `catalog` (item indices in target
/// space) with probability ∝ `pop[i] · exp(beta · ⟨uvec, item_vecs[i]⟩)`,
/// then orders them into a temporally coherent sequence.
fn sample_profile(
    rng: &mut impl Rng,
    uvec: &[f32],
    catalog: &[usize],
    pop: &[f32],
    item_vecs: &Matrix,
    beta: f32,
    len: usize,
) -> Vec<usize> {
    debug_assert!(len <= catalog.len());
    // Build the cumulative distribution once; rejection-sample duplicates.
    let mut cdf = Vec::with_capacity(catalog.len());
    let mut acc = 0.0f64;
    for &i in catalog {
        let w = pop[i] as f64 * (beta * ops::dot(uvec, item_vecs.row(i))).exp() as f64;
        acc += w;
        cdf.push(acc);
    }
    let total = acc;
    let mut chosen: Vec<usize> = Vec::with_capacity(len);
    let mut taken = vec![false; catalog.len()];
    let mut guard = 0u32;
    while chosen.len() < len {
        let u: f64 = rng.gen::<f64>() * total;
        let pos = cdf.partition_point(|&c| c < u).min(catalog.len() - 1);
        if !taken[pos] {
            taken[pos] = true;
            chosen.push(catalog[pos]);
        }
        guard += 1;
        if guard > 200_000 {
            // Pathological mass concentration; fill deterministically.
            for (p, t) in taken.iter_mut().enumerate() {
                if chosen.len() >= len {
                    break;
                }
                if !*t {
                    *t = true;
                    chosen.push(catalog[p]);
                }
            }
        }
    }
    order_chain(rng, chosen, item_vecs)
}

/// Greedy similarity chain with Gumbel noise: produces an ordering where
/// consecutive items tend to be similar — the "temporal relations of items
/// interacted around the same time" that profile crafting relies on.
fn order_chain(rng: &mut impl Rng, mut items: Vec<usize>, item_vecs: &Matrix) -> Vec<usize> {
    if items.len() <= 2 {
        return items;
    }
    const TAU: f32 = 0.15;
    let start = rng.gen_range(0..items.len());
    let mut ordered = Vec::with_capacity(items.len());
    ordered.push(items.swap_remove(start));
    while !items.is_empty() {
        let prev = *ordered.last().expect("non-empty");
        let mut best = 0;
        let mut best_score = f32::NEG_INFINITY;
        for (j, &cand) in items.iter().enumerate() {
            let u: f32 = rng.gen::<f32>().max(1e-9);
            let gumbel = -(-u.ln()).ln() * TAU;
            let s = ops::dot(item_vecs.row(prev), item_vecs.row(cand)) + gumbel;
            if s > best_score {
                best_score = s;
                best = j;
            }
        }
        ordered.push(items.swap_remove(best));
    }
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CrossDomainConfig;
    use ca_recsys::UserId;

    #[test]
    fn tiny_world_has_configured_shape() {
        let cfg = CrossDomainConfig::tiny(42);
        let world = generate(&cfg);
        let s = world.stats();
        assert_eq!(s.target_users, cfg.target.n_users);
        assert_eq!(s.target_items, cfg.n_target_items);
        assert_eq!(s.source_users, cfg.source.n_users);
        assert_eq!(s.overlap_items, cfg.n_overlap);
        assert!(s.target_interactions > 0);
        assert!(s.source_interactions > s.target_interactions);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = CrossDomainConfig::tiny(7);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.stats(), b.stats());
        for u in a.target.users() {
            assert_eq!(a.target.profile(u), b.target.profile(u));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&CrossDomainConfig::tiny(1));
        let b = generate(&CrossDomainConfig::tiny(2));
        let same = a.target.users().take(20).all(|u| a.target.profile(u) == b.target.profile(u));
        assert!(!same);
    }

    #[test]
    fn alignment_maps_are_mutually_inverse() {
        let world = generate(&CrossDomainConfig::tiny(3));
        for (s, &t) in world.source_to_target.iter().enumerate() {
            assert_eq!(world.target_to_source[t.idx()], Some(ItemId(s as u32)));
        }
        let n_mapped = world.target_to_source.iter().filter(|x| x.is_some()).count();
        assert_eq!(n_mapped, world.source_to_target.len());
    }

    #[test]
    fn translated_profiles_use_valid_target_ids() {
        let world = generate(&CrossDomainConfig::tiny(4));
        for u in world.source.users().take(50) {
            let t = world.translate_profile(world.source.profile(u));
            for v in t {
                assert!(v.idx() < world.target.n_items());
                assert!(world.target_to_source[v.idx()].is_some());
            }
        }
    }

    #[test]
    fn profiles_have_no_duplicates() {
        let world = generate(&CrossDomainConfig::tiny(5));
        for u in world.target.users() {
            let p = world.target.profile(u);
            let mut sorted: Vec<_> = p.to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), p.len(), "duplicate items in profile of {u}");
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let world = generate(&CrossDomainConfig::tiny(6));
        let mut pops: Vec<usize> =
            world.target.items().map(|v| world.target.item_popularity(v)).collect();
        pops.sort_unstable_by(|a, b| b.cmp(a));
        // Head (top 10%) should hold disproportionately more interactions
        // than the tail (bottom 10%).
        let n = pops.len();
        let head: usize = pops[..n / 10].iter().sum();
        let tail: usize = pops[n - n / 10..].iter().sum();
        assert!(head > 3 * tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn users_prefer_their_clusters_items() {
        let world = generate(&CrossDomainConfig::tiny(8));
        // On average, the affinity between a user and their profile items
        // should exceed the affinity to random items.
        let truth = &world.truth;
        let mut own = 0.0;
        let mut own_n = 0;
        let mut all = 0.0;
        let mut all_n = 0;
        for u in 0..50usize {
            let uvec = truth.target_user_vec(u);
            for &v in world.target.profile(UserId(u as u32)) {
                own += truth.affinity(uvec, v.idx());
                own_n += 1;
            }
            for v in 0..world.target.n_items() {
                all += truth.affinity(uvec, v);
                all_n += 1;
            }
        }
        let own_mean = own / own_n as f32;
        let all_mean = all / all_n as f32;
        assert!(own_mean > all_mean + 0.1, "own {own_mean} vs all {all_mean}");
    }

    #[test]
    fn consecutive_profile_items_are_more_similar_than_random_pairs() {
        let world = generate(&CrossDomainConfig::tiny(9));
        let truth = &world.truth;
        let mut adj = 0.0;
        let mut adj_n = 0;
        let mut far = 0.0;
        let mut far_n = 0;
        for u in 0..50u32 {
            let p = world.target.profile(UserId(u));
            for w in p.windows(2) {
                adj += ops::dot(truth.item_vec(w[0].idx()), truth.item_vec(w[1].idx()));
                adj_n += 1;
            }
            if p.len() >= 4 {
                far += ops::dot(truth.item_vec(p[0].idx()), truth.item_vec(p[p.len() - 1].idx()));
                far_n += 1;
            }
        }
        let adj_mean = adj / adj_n as f32;
        let far_mean = far / far_n.max(1) as f32;
        assert!(
            adj_mean > far_mean,
            "adjacent similarity {adj_mean} should exceed endpoints {far_mean}"
        );
    }

    #[test]
    fn attackable_cold_items_satisfy_constraints() {
        let world = generate(&CrossDomainConfig::small(10));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let items = world.sample_attackable_cold_items(20, 10, 2, &mut rng);
        assert!(!items.is_empty(), "small preset must contain cold overlap items");
        for v in items {
            assert!(world.target.item_popularity(v) < 10);
            let s = world.source_item(v).expect("must overlap");
            assert!(world.source.item_popularity(s) >= 2);
        }
    }
}
