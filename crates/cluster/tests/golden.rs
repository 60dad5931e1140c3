//! Golden bit-level pins for k-means and the clustering tree.
//!
//! Each case hashes (FNV-1a over bit patterns) everything the algorithms
//! return: k-means centroids, assignment and inertia; the tree's children
//! lists and leaf users in node order, plus its depth. The inputs are
//! large enough to span many 256-row k-means chunks, and the 6,000-point
//! cases end in a partial chunk, so a change to the summation order of the
//! update step or the inertia moves these hashes even where the tree
//! shape would not.

use ca_cluster::{kmeans, ClusterTree, NodeKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv(h: &mut u64, word: u64) {
    *h = (*h ^ word).wrapping_mul(FNV_PRIME);
}

fn embeddings(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| ca_tensor::gaussian(&mut rng, 0.0, 1.0)).collect()).collect()
}

fn kmeans_hash(n: usize, dim: usize, k: usize, seed: u64) -> u64 {
    let pts = embeddings(n, dim, seed);
    let refs: Vec<&[f32]> = pts.iter().map(Vec::as_slice).collect();
    let res = kmeans(&refs, k, 25, &mut StdRng::seed_from_u64(seed ^ 0xA5));
    let mut h = FNV_OFFSET;
    for c in &res.centroids {
        for &x in c {
            fnv(&mut h, x.to_bits() as u64);
        }
    }
    for &a in &res.assignment {
        fnv(&mut h, a as u64);
    }
    fnv(&mut h, res.inertia.to_bits() as u64);
    h
}

fn tree_hash(n: usize, dim: usize, fanout: usize, seed: u64) -> u64 {
    let tree = ClusterTree::build_seeded(&embeddings(n, dim, seed), fanout, seed ^ 0x5A);
    let mut h = FNV_OFFSET;
    for id in 0..tree.n_nodes() {
        match tree.kind(id) {
            NodeKind::Internal { children } => {
                fnv(&mut h, u64::MAX);
                for &c in children {
                    fnv(&mut h, c as u64);
                }
            }
            NodeKind::Leaf { user } => fnv(&mut h, user.0 as u64),
        }
    }
    fnv(&mut h, tree.depth() as u64);
    h
}

#[test]
fn kmeans_matches_golden_on_whole_and_partial_chunk_grids() {
    assert_eq!(kmeans_hash(4096, 8, 8, 1), 0xcd98_942f_82df_2bf1, "4,096 points, k = 8");
    assert_eq!(kmeans_hash(6000, 8, 18, 2), 0x01eb_bbb8_d5d9_f5e0, "6,000 points, k = 18");
}

#[test]
fn tree_matches_golden_on_whole_and_partial_chunk_grids() {
    assert_eq!(tree_hash(4096, 16, 8, 3), 0x59a1_d1f6_9ed7_21a0, "4,096 users, fanout 8");
    assert_eq!(tree_hash(6000, 8, 18, 4), 0x1480_4352_ec3b_4a59, "6,000 users, fanout 18");
}
