//! User-profile selection (§4.3): hierarchical-structure policy gradient
//! over the clustering tree, and the flat PolicyNetwork baseline.
//!
//! The state for every decision is `[q_{v*} ⊕ x_{v*}]`, where `q_{v*}` is
//! the source-domain MF embedding of the target item and `x_{v*}` is the
//! RNN encoding of the users already selected this episode. Walking the
//! tree decomposes `π(a^u_t | s^u_t)` into a product of per-node masked
//! softmaxes; the flat baseline spends one softmax over *all* users
//! instead, which is the O(n)-per-decision cost the tree removes.

use ca_cluster::{ClusterTree, NodeId, TreeMask};
use ca_nn::{Categorical, Mlp, MlpCache, MlpGrad, Rnn, RnnCache, RnnGrad};
use ca_recsys::UserId;
use rand::Rng;

/// One decision on the root→leaf walk.
pub struct SelectionStep {
    /// The internal node where the decision was taken.
    pub node: NodeId,
    /// Distribution over that node's children (masked).
    pub dist: Categorical,
    /// The chosen child position.
    pub action: usize,
    /// Forward cache of the node's policy MLP.
    pub cache: MlpCache,
}

/// A complete sampled selection `a^u_t` (the paper's root→leaf path).
pub struct SelectionSample {
    /// The selected source user.
    pub user: UserId,
    /// Per-node decisions along the path, root first.
    pub steps: Vec<SelectionStep>,
    /// RNN cache for the state encoding (shared by all steps).
    pub rnn_cache: RnnCache,
    /// The `[q_{v*} ⊕ x_{v*}]` state input used at every node.
    pub state: Vec<f32>,
}

/// Gradient accumulators for a [`HierarchicalPolicy`].
pub struct PolicyGrads {
    nets: Vec<Option<MlpGrad>>,
    rnn: RnnGrad,
}

impl PolicyGrads {
    /// Global L2 norm across all touched parameters.
    pub fn norm(&self) -> f32 {
        let mut acc = self.rnn.norm().powi(2);
        for g in self.nets.iter().flatten() {
            acc += g.norm().powi(2);
        }
        acc.sqrt()
    }

    /// Scales every accumulated gradient by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        self.rnn.scale(alpha);
        for g in self.nets.iter_mut().flatten() {
            g.scale(alpha);
        }
    }
}

/// The hierarchical-structure policy: one MLP per internal tree node plus a
/// shared RNN state encoder.
#[derive(Clone)]
pub struct HierarchicalPolicy {
    tree: ClusterTree,
    nets: Vec<Mlp>,
    rnn: Rnn,
    embed_dim: usize,
}

impl HierarchicalPolicy {
    /// Builds the policy over a clustering tree with an Elman RNN state
    /// encoder. `embed_dim` is the MF embedding size `e`; each node MLP
    /// maps `[q ⊕ x] ∈ R^{2e}` to logits over that node's children.
    pub fn new(rng: &mut impl Rng, tree: ClusterTree, embed_dim: usize, hidden: usize) -> Self {
        let mut nets = Vec::with_capacity(tree.n_internal());
        for node in tree.internal_nodes() {
            debug_assert_eq!(tree.internal_index(node), nets.len());
            let out = tree.children(node).len();
            nets.push(Mlp::new(rng, &[2 * embed_dim, hidden, out], 0.3));
        }
        let rnn = Rnn::new(rng, embed_dim, embed_dim, 0.3);
        Self { tree, nets, rnn, embed_dim }
    }

    /// The underlying clustering tree.
    pub fn tree(&self) -> &ClusterTree {
        &self.tree
    }

    /// Total trainable parameters (networks + RNN).
    pub fn param_count(&self) -> usize {
        self.nets.iter().map(Mlp::param_count).sum::<usize>() + self.rnn.param_count()
    }

    /// Encodes the episode state `[q_{v*} ⊕ RNN(selected)]`.
    fn encode_state(&self, q_target: &[f32], prev: &[&[f32]]) -> (Vec<f32>, RnnCache) {
        debug_assert_eq!(q_target.len(), self.embed_dim);
        let (x, cache) = self.rnn.forward(prev);
        let mut state = Vec::with_capacity(2 * self.embed_dim);
        state.extend_from_slice(q_target);
        state.extend_from_slice(&x);
        (state, cache)
    }

    /// Samples a root→leaf walk under the mask.
    ///
    /// # Panics
    /// Panics if the mask blocks the root (no allowed user exists — the
    /// target item must be in the source domain per §3).
    pub fn select(
        &self,
        q_target: &[f32],
        prev: &[&[f32]],
        mask: &TreeMask,
        rng: &mut impl Rng,
    ) -> SelectionSample {
        assert!(mask.any_allowed(), "mask blocks every source user");
        let (state, rnn_cache) = self.encode_state(q_target, prev);
        let mut steps = Vec::new();
        let mut node = self.tree.root();
        while !self.tree.is_leaf(node) {
            let net = &self.nets[self.tree.internal_index(node)];
            let (logits, cache) = net.forward(&state);
            let child_mask = mask.child_mask(&self.tree, node);
            let dist = Categorical::from_masked_logits(&logits, &child_mask);
            let action = dist.sample(rng);
            let next = self.tree.children(node)[action];
            steps.push(SelectionStep { node, dist, action, cache });
            node = next;
        }
        SelectionSample { user: self.tree.leaf_user(node), steps, rnn_cache, state }
    }

    /// Uniformly samples an allowed user (the paper seeds the first action
    /// `a^u_0` at random because the RNN state is empty).
    pub fn random_allowed_user(&self, mask: &TreeMask, rng: &mut impl Rng) -> UserId {
        assert!(mask.any_allowed(), "mask blocks every source user");
        let mut allowed = Vec::with_capacity(mask.n_allowed_leaves());
        let mut stack = vec![self.tree.root()];
        while let Some(id) = stack.pop() {
            if !mask.allowed(id) {
                continue;
            }
            if self.tree.is_leaf(id) {
                allowed.push(self.tree.leaf_user(id));
            } else {
                stack.extend_from_slice(self.tree.children(id));
            }
        }
        allowed[rng.gen_range(0..allowed.len())]
    }

    /// Fresh gradient accumulators.
    pub fn zero_grads(&self) -> PolicyGrads {
        PolicyGrads { nets: self.nets.iter().map(|_| None).collect(), rnn: self.rnn.zero_grad() }
    }

    /// Accumulates the REINFORCE gradient of one selection: each node on
    /// the path gets `advantage · (π − onehot)` pushed through its MLP, and
    /// the state-input gradients flow back through the RNN.
    pub fn accumulate(&self, sample: &SelectionSample, advantage: f32, grads: &mut PolicyGrads) {
        let e = self.embed_dim;
        let mut g_x = vec![0.0f32; e];
        for step in &sample.steps {
            let idx = self.tree.internal_index(step.node);
            let net = &self.nets[idx];
            let g_logits = step.dist.reinforce_logit_grad(step.action, advantage);
            let slot = grads.nets[idx].get_or_insert_with(|| net.zero_grad());
            let g_state = net.backward(&step.cache, &g_logits, slot);
            // The last `e` entries of the state are the RNN output.
            for k in 0..e {
                g_x[k] += g_state[e + k];
            }
        }
        self.rnn.backward(&sample.rnn_cache, &g_x, &mut grads.rnn);
    }

    /// Applies accumulated gradients with learning rate `lr`.
    pub fn apply(&mut self, grads: &PolicyGrads, lr: f32) {
        for (net, g) in self.nets.iter_mut().zip(grads.nets.iter()) {
            if let Some(g) = g {
                net.sgd_step(g, lr);
            }
        }
        self.rnn.sgd_step(&grads.rnn, lr);
    }
}

/// The flat PolicyNetwork baseline: one softmax over every source user.
/// Identical state and training rule; the only difference from
/// [`HierarchicalPolicy`] is the undecomposed action space, making each
/// decision O(n) — this is what renders it infeasible on Netflix-scale
/// source domains (§5.2).
pub struct FlatPolicy {
    net: Mlp,
    rnn: Rnn,
    embed_dim: usize,
}

/// A sampled flat decision.
pub struct FlatSample {
    /// The selected source user.
    pub user: UserId,
    /// Distribution over all users (masked).
    pub dist: Categorical,
    /// Forward cache.
    pub cache: MlpCache,
    /// RNN cache.
    pub rnn_cache: RnnCache,
}

/// Gradients for [`FlatPolicy`].
pub struct FlatGrads {
    net: MlpGrad,
    rnn: RnnGrad,
}

impl FlatPolicy {
    /// Builds the flat policy over `n_users` actions.
    pub fn new(rng: &mut impl Rng, n_users: usize, embed_dim: usize, hidden: usize) -> Self {
        let net = Mlp::new(rng, &[2 * embed_dim, hidden, n_users], 0.3);
        let rnn = Rnn::new(rng, embed_dim, embed_dim, 0.3);
        Self { net, rnn, embed_dim }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.net.param_count() + self.rnn.param_count()
    }

    /// Samples a user under the per-user mask (`true` = selectable).
    pub fn select(
        &self,
        q_target: &[f32],
        prev: &[&[f32]],
        user_mask: &[bool],
        rng: &mut impl Rng,
    ) -> FlatSample {
        let (x, rnn_cache) = self.rnn.forward(prev);
        let mut state = Vec::with_capacity(2 * self.embed_dim);
        state.extend_from_slice(q_target);
        state.extend_from_slice(&x);
        let (logits, cache) = self.net.forward(&state);
        let dist = Categorical::from_masked_logits(&logits, user_mask);
        let action = dist.sample(rng);
        FlatSample { user: UserId(action as u32), dist, cache, rnn_cache }
    }

    /// Fresh gradient accumulators.
    pub fn zero_grads(&self) -> FlatGrads {
        FlatGrads { net: self.net.zero_grad(), rnn: self.rnn.zero_grad() }
    }

    /// Accumulates the REINFORCE gradient of one decision.
    pub fn accumulate(&self, sample: &FlatSample, advantage: f32, grads: &mut FlatGrads) {
        let g_logits = sample.dist.reinforce_logit_grad(sample.user.idx(), advantage);
        let g_state = self.net.backward(&sample.cache, &g_logits, &mut grads.net);
        let e = self.embed_dim;
        let g_x: Vec<f32> = g_state[e..2 * e].to_vec();
        self.rnn.backward(&sample.rnn_cache, &g_x, &mut grads.rnn);
    }

    /// Applies accumulated gradients.
    pub fn apply(&mut self, grads: &FlatGrads, lr: f32) {
        self.net.sgd_step(&grads.net, lr);
        self.rnn.sgd_step(&grads.rnn, lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn embeddings(n: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(7);
        (0..n)
            .map(|_| (0..dim).map(|_| ca_tensor::gaussian(&mut rng, 0.0, 1.0)).collect())
            .collect()
    }

    fn policy(n_users: usize) -> HierarchicalPolicy {
        let e = embeddings(n_users, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let tree = ClusterTree::build(&e, 3, &mut rng);
        HierarchicalPolicy::new(&mut rng, tree, 4, 8)
    }

    #[test]
    fn selection_respects_mask() {
        let p = policy(27);
        let allowed = |u: UserId| u.0.is_multiple_of(3);
        let mask = TreeMask::for_predicate(p.tree(), allowed);
        let mut rng = StdRng::seed_from_u64(2);
        let q = vec![0.1, -0.2, 0.3, 0.0];
        for _ in 0..200 {
            let s = p.select(&q, &[], &mask, &mut rng);
            assert!(allowed(s.user), "selected masked user {}", s.user);
        }
    }

    #[test]
    fn path_length_equals_tree_depth_when_balanced() {
        let p = policy(27);
        let mask = TreeMask::allow_all(p.tree());
        let mut rng = StdRng::seed_from_u64(3);
        let q = vec![0.0; 4];
        let s = p.select(&q, &[], &mask, &mut rng);
        assert_eq!(s.steps.len(), p.tree().depth());
    }

    #[test]
    fn random_allowed_user_is_uniform_over_allowed() {
        let p = policy(12);
        let mask = TreeMask::for_predicate(p.tree(), |u| u.0 < 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            let u = p.random_allowed_user(&mask, &mut rng);
            assert!(u.0 < 3);
            counts[u.idx()] += 1;
        }
        for &c in &counts {
            assert!((c as f32 / 3000.0 - 1.0 / 3.0).abs() < 0.05, "{counts:?}");
        }
    }

    #[test]
    fn reinforce_increases_probability_of_rewarded_user() {
        // Bandit: only user 5 gives reward. After training, the walk should
        // reach user 5 much more often than uniform.
        let mut p = policy(27);
        let mask = TreeMask::allow_all(p.tree());
        let q = vec![0.2, 0.1, -0.3, 0.4];
        let mut rng = StdRng::seed_from_u64(5);
        let mut baseline = 0.0f32;
        for _ in 0..600 {
            let s = p.select(&q, &[], &mask, &mut rng);
            let reward = if s.user == UserId(5) { 1.0 } else { 0.0 };
            let adv = reward - baseline;
            baseline = 0.9 * baseline + 0.1 * reward;
            let mut grads = p.zero_grads();
            p.accumulate(&s, adv, &mut grads);
            p.apply(&grads, 0.1);
        }
        let mut hits = 0;
        for _ in 0..300 {
            let s = p.select(&q, &[], &mask, &mut rng);
            if s.user == UserId(5) {
                hits += 1;
            }
        }
        assert!(hits > 150, "user 5 picked {hits}/300 (uniform would be ~11)");
    }

    #[test]
    fn state_depends_on_selection_history() {
        let p = policy(12);
        let mask = TreeMask::allow_all(p.tree());
        let q = vec![0.5, 0.0, 0.0, 0.0];
        let prev1 = [vec![1.0f32, 0.0, 0.0, 0.0]];
        let prev_refs: Vec<&[f32]> = prev1.iter().map(|v| v.as_slice()).collect();
        let mut r1 = StdRng::seed_from_u64(6);
        let mut r2 = StdRng::seed_from_u64(6);
        let s_empty = p.select(&q, &[], &mask, &mut r1);
        let s_hist = p.select(&q, &prev_refs, &mask, &mut r2);
        assert_ne!(s_empty.state, s_hist.state);
    }

    #[test]
    fn flat_policy_respects_mask_and_learns() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut p = FlatPolicy::new(&mut rng, 20, 4, 8);
        let mut mask = vec![true; 20];
        mask[3] = false;
        let q = vec![0.1, 0.2, 0.3, 0.4];
        let mut baseline = 0.0f32;
        for _ in 0..400 {
            let s = p.select(&q, &[], &mask, &mut rng);
            assert_ne!(s.user, UserId(3), "masked user selected");
            let reward = if s.user == UserId(7) { 1.0 } else { 0.0 };
            let adv = reward - baseline;
            baseline = 0.9 * baseline + 0.1 * reward;
            let mut grads = p.zero_grads();
            p.accumulate(&s, adv, &mut grads);
            p.apply(&grads, 0.1);
        }
        let mut hits = 0;
        for _ in 0..200 {
            if p.select(&q, &[], &mask, &mut rng).user == UserId(7) {
                hits += 1;
            }
        }
        assert!(hits > 100, "user 7 picked {hits}/200");
    }

    #[test]
    fn grads_norm_and_scale_behave() {
        let p = policy(12);
        let mask = TreeMask::allow_all(p.tree());
        let q = vec![0.3; 4];
        let mut rng = StdRng::seed_from_u64(9);
        let s = p.select(&q, &[], &mask, &mut rng);
        let mut grads = p.zero_grads();
        p.accumulate(&s, 1.0, &mut grads);
        let n = grads.norm();
        assert!(n > 0.0);
        grads.scale(0.5);
        assert!((grads.norm() - 0.5 * n).abs() < 1e-4);
    }

    #[test]
    fn hierarchical_param_count_is_sublinear_vs_flat() {
        let n = 729; // 3^6 users
        let e = embeddings(n, 4);
        let mut rng = StdRng::seed_from_u64(10);
        let tree = ClusterTree::build(&e, 3, &mut rng);
        let hier = HierarchicalPolicy::new(&mut rng, tree, 4, 8);
        let flat = FlatPolicy::new(&mut rng, n, 4, 8);
        // The flat head has an n-way output layer; hierarchical nodes are
        // fanout-way. The paper's efficiency claim is about per-decision
        // cost: a walk touches depth·(hidden·fanout) outputs vs n.
        let walk_cost = hier.tree().depth() * 8 * 3;
        assert!(walk_cost < n / 3, "walk cost {walk_cost} vs flat {n}");
        assert!(flat.param_count() > 0 && hier.param_count() > 0);
    }
}
