//! The balanced c-ary hierarchical clustering tree (§4.3.1).
//!
//! Construction is seed-split: the caller's RNG contributes exactly one
//! 64-bit root seed, and every node derives its own k-means RNG and its
//! children's subtree seeds from its position in the tree
//! ([`ca_par::SeedSplit`]). Sibling subtrees therefore never share random
//! state. The build is serial: each target item builds its own tree inside
//! the pipeline's per-target `ca-par` fan-out, which already keeps the
//! cores busy.

use crate::balanced::balanced_groups;
use ca_par::SeedSplit;
use ca_recsys::UserId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index of a node within a [`ClusterTree`].
pub type NodeId = usize;

/// Node payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Non-leaf: hosts a policy network choosing among `children`.
    Internal {
        /// Child node ids, in the order the policy network's outputs map to.
        children: Vec<NodeId>,
    },
    /// Leaf: one source-domain user.
    Leaf {
        /// The user this leaf represents.
        user: UserId,
    },
}

/// Balanced hierarchical clustering tree over source-domain users.
///
/// Built top-down: a node holding more than `fanout` users splits them into
/// `fanout` equal-size clusters (balanced k-means on the user embeddings)
/// and recurses; a node holding at most `fanout` users becomes the parent
/// of those users' leaves.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterTree {
    fanout: usize,
    /// Nodes in DFS preorder; the root is id 0.
    nodes: Vec<NodeKind>,
    leaf_of_user: Vec<NodeId>,
    internal_index: Vec<Option<usize>>,
    n_internal: usize,
    depth: usize,
}

impl ClusterTree {
    /// Builds the tree over user embeddings; `embeddings[i]` belongs to
    /// `UserId(i)`. Draws a single root seed from `rng` and delegates to
    /// [`Self::build_seeded`].
    ///
    /// # Panics
    /// Panics if `fanout < 2` or there are no users.
    pub fn build(embeddings: &[Vec<f32>], fanout: usize, rng: &mut impl Rng) -> Self {
        let root_seed = rng.gen::<u64>();
        Self::build_seeded(embeddings, fanout, root_seed)
    }

    /// Builds the tree from an explicit root seed. The same
    /// `(embeddings, fanout, seed)` triple yields the same tree on every
    /// run.
    ///
    /// # Panics
    /// Panics if `fanout < 2` or there are no users.
    pub fn build_seeded(embeddings: &[Vec<f32>], fanout: usize, seed: u64) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        assert!(!embeddings.is_empty(), "cannot build a tree over zero users");
        let all: Vec<usize> = (0..embeddings.len()).collect();
        let mut nodes = Vec::new();
        let depth = build_subtree(embeddings, &all, fanout, SeedSplit::new(seed), &mut nodes);

        let mut leaf_of_user = vec![usize::MAX; embeddings.len()];
        let mut internal_index = vec![None; nodes.len()];
        let mut n_internal = 0;
        for (id, node) in nodes.iter().enumerate() {
            match *node {
                NodeKind::Internal { .. } => {
                    internal_index[id] = Some(n_internal);
                    n_internal += 1;
                }
                NodeKind::Leaf { user } => leaf_of_user[user.idx()] = id,
            }
        }
        Self { fanout, nodes, leaf_of_user, internal_index, n_internal, depth }
    }

    /// Builds a tree of (approximately) the requested decision depth by
    /// choosing `fanout = ⌈n^(1/depth)⌉` — this is how the Figure 3 depth
    /// sweep varies `d` at a fixed user count.
    pub fn build_with_depth(embeddings: &[Vec<f32>], depth: usize, rng: &mut impl Rng) -> Self {
        assert!(depth >= 1, "depth must be at least 1");
        let n = embeddings.len() as f64;
        let fanout = (n.powf(1.0 / depth as f64).ceil() as usize).max(2);
        Self::build(embeddings, fanout, rng)
    }

    /// The root node (always id 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// Configured fanout c.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The node's payload.
    pub fn kind(&self, node: NodeId) -> &NodeKind {
        &self.nodes[node]
    }

    /// Children of an internal node.
    ///
    /// # Panics
    /// Panics if `node` is a leaf.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        match &self.nodes[node] {
            NodeKind::Internal { children } => children,
            NodeKind::Leaf { .. } => panic!("node {node} is a leaf"),
        }
    }

    /// Whether the node is a leaf.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        matches!(self.nodes[node], NodeKind::Leaf { .. })
    }

    /// The user at a leaf.
    ///
    /// # Panics
    /// Panics if `node` is internal.
    pub fn leaf_user(&self, node: NodeId) -> UserId {
        match self.nodes[node] {
            NodeKind::Leaf { user } => user,
            NodeKind::Internal { .. } => panic!("node {node} is internal"),
        }
    }

    /// The leaf holding `user`.
    pub fn leaf_of_user(&self, user: UserId) -> NodeId {
        self.leaf_of_user[user.idx()]
    }

    /// Maximum number of decisions on any root→leaf path.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of internal nodes (= number of policy networks, the paper's
    /// `I`).
    pub fn n_internal(&self) -> usize {
        self.n_internal
    }

    /// Total node count.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves (= number of users).
    pub fn n_leaves(&self) -> usize {
        self.leaf_of_user.len()
    }

    /// Dense index of an internal node in `0..n_internal()`, used to map
    /// nodes to their policy networks.
    ///
    /// # Panics
    /// Panics if `node` is a leaf.
    pub fn internal_index(&self, node: NodeId) -> usize {
        self.internal_index[node].unwrap_or_else(|| panic!("node {node} is a leaf"))
    }

    /// Iterates over all internal node ids.
    pub fn internal_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).filter(|&id| !self.is_leaf(id))
    }
}

/// Appends the subtree over `members` (global user indices) to `nodes` in
/// DFS preorder — the node, then each child subtree in group order — and
/// returns its decision depth.
///
/// RNG discipline: this node's balanced k-means runs on `seed.child(0)`,
/// and child subtree `i` receives `seed.child(i + 1)` — so a subtree's
/// randomness is a pure function of its position under the root seed.
fn build_subtree(
    embeddings: &[Vec<f32>],
    members: &[usize],
    fanout: usize,
    seed: SeedSplit,
    nodes: &mut Vec<NodeKind>,
) -> usize {
    let id = nodes.len();
    nodes.push(NodeKind::Internal { children: Vec::new() });

    if members.len() <= fanout {
        // Attach leaves directly, in member order.
        let children = (id + 1..=id + members.len()).collect();
        nodes.extend(members.iter().map(|&m| NodeKind::Leaf { user: UserId(m as u32) }));
        nodes[id] = NodeKind::Internal { children };
        return 1;
    }

    let mut rng = StdRng::seed_from_u64(seed.child(0).seed());
    let refs: Vec<&[f32]> = members.iter().map(|&m| embeddings[m].as_slice()).collect();
    let groups = balanced_groups(&refs, fanout, 25, &mut rng);
    let mut children = Vec::with_capacity(groups.len());
    let mut depth = 0;
    for (i, group) in groups.into_iter().enumerate() {
        debug_assert!(!group.is_empty(), "balanced split produced an empty group");
        let sub_members: Vec<usize> = group.into_iter().map(|local| members[local]).collect();
        children.push(nodes.len());
        let sub_seed = seed.child(i as u64 + 1);
        depth = depth.max(build_subtree(embeddings, &sub_members, fanout, sub_seed, nodes));
    }
    nodes[id] = NodeKind::Internal { children };
    depth + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn embeddings(n: usize) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(9);
        (0..n).map(|_| (0..4).map(|_| ca_tensor::gaussian(&mut rng, 0.0, 1.0)).collect()).collect()
    }

    #[test]
    fn every_user_has_exactly_one_leaf() {
        let e = embeddings(50);
        let mut rng = StdRng::seed_from_u64(1);
        let tree = ClusterTree::build(&e, 3, &mut rng);
        let mut seen = [false; 50];
        for id in 0..tree.n_nodes() {
            if tree.is_leaf(id) {
                let u = tree.leaf_user(id);
                assert!(!seen[u.idx()], "user {u} appears twice");
                seen[u.idx()] = true;
                assert_eq!(tree.leaf_of_user(u), id);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn depth_matches_logarithmic_bound() {
        let e = embeddings(64);
        let mut rng = StdRng::seed_from_u64(2);
        let tree = ClusterTree::build(&e, 4, &mut rng);
        // 4^3 = 64, so the decision depth must be 3 (paper: c^{d-1} < n ≤ c^d).
        assert_eq!(tree.depth(), 3);
    }

    #[test]
    fn paper_example_shape() {
        // 8 users, fanout 2 → depth 3, 7 internal nodes (the Figure 2 example).
        let e = embeddings(8);
        let mut rng = StdRng::seed_from_u64(3);
        let tree = ClusterTree::build(&e, 2, &mut rng);
        assert_eq!(tree.depth(), 3);
        assert_eq!(tree.n_internal(), 7);
        assert_eq!(tree.n_leaves(), 8);
    }

    #[test]
    fn internal_indices_are_dense() {
        let e = embeddings(30);
        let mut rng = StdRng::seed_from_u64(4);
        let tree = ClusterTree::build(&e, 3, &mut rng);
        let mut seen = vec![false; tree.n_internal()];
        for id in tree.internal_nodes() {
            let idx = tree.internal_index(id);
            assert!(!seen[idx]);
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn build_with_depth_hits_requested_depth() {
        let e = embeddings(100);
        for d in 2..=4 {
            let mut rng = StdRng::seed_from_u64(5);
            let tree = ClusterTree::build_with_depth(&e, d, &mut rng);
            assert!(
                tree.depth() <= d && tree.depth() + 1 >= d,
                "requested {d}, got {} (fanout {})",
                tree.depth(),
                tree.fanout()
            );
        }
    }

    #[test]
    fn children_counts_respect_fanout() {
        let e = embeddings(40);
        let mut rng = StdRng::seed_from_u64(6);
        let tree = ClusterTree::build(&e, 3, &mut rng);
        for id in tree.internal_nodes() {
            let c = tree.children(id).len();
            assert!((1..=3).contains(&c), "node {id} has {c} children");
        }
    }

    #[test]
    fn similar_users_share_subtrees() {
        // Two tight blobs; with fanout 2 the first split must separate them.
        let mut e: Vec<Vec<f32>> = (0..8).map(|i| vec![0.0, i as f32 * 0.01]).collect();
        e.extend((0..8).map(|i| vec![50.0, i as f32 * 0.01]));
        let mut rng = StdRng::seed_from_u64(7);
        let tree = ClusterTree::build(&e, 2, &mut rng);
        let top = tree.children(tree.root());
        // Collect users under each top-level child.
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for &child in top {
            let mut stack = vec![child];
            let mut users = Vec::new();
            while let Some(id) = stack.pop() {
                if tree.is_leaf(id) {
                    users.push(tree.leaf_user(id).0);
                } else {
                    stack.extend_from_slice(tree.children(id));
                }
            }
            users.sort_unstable();
            groups.push(users);
        }
        let blob_a: Vec<u32> = (0..8).collect();
        let blob_b: Vec<u32> = (8..16).collect();
        assert!(
            (groups[0] == blob_a && groups[1] == blob_b)
                || (groups[0] == blob_b && groups[1] == blob_a),
            "top split mixed the blobs: {groups:?}"
        );
    }

    #[test]
    fn build_seeded_is_a_pure_function_of_its_seed() {
        let e = embeddings(60);
        let a = ClusterTree::build_seeded(&e, 3, 5);
        let b = ClusterTree::build_seeded(&e, 3, 5);
        let c = ClusterTree::build_seeded(&e, 3, 6);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should (generically) differ");
    }

    #[test]
    #[should_panic(expected = "fanout must be at least 2")]
    fn rejects_unary_fanout() {
        let e = embeddings(4);
        let mut rng = StdRng::seed_from_u64(8);
        let _ = ClusterTree::build(&e, 1, &mut rng);
    }
}
