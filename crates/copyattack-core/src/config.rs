//! Attack hyper-parameters (§5.1.3).

/// Attack objective. The paper evaluates promotion and names demotion as
/// future work ("this type of reward function based on ranking evaluation
/// … could be used for either a promotion or demotion attack", §4.2); both
/// share the Eq. 1 machinery with the reward flipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AttackGoal {
    /// Push the target item *into* users' Top-k lists.
    #[default]
    Promote,
    /// Push the target item *out of* users' Top-k lists.
    Demote,
}

impl AttackGoal {
    /// Transforms the raw hit ratio into the goal's reward.
    pub fn reward(&self, hit_ratio: f32) -> f32 {
        match self {
            AttackGoal::Promote => hit_ratio,
            AttackGoal::Demote => 1.0 - hit_ratio,
        }
    }
}

/// Configuration shared by CopyAttack and its RL baselines/ablations.
#[derive(Clone, Debug)]
pub struct AttackConfig {
    /// Budget Δ: maximum number of copied profiles (paper: 30).
    pub budget: usize,
    /// Number of pretend users the attacker controls (paper: 50).
    pub n_pretend: usize,
    /// Query the target system after every this many injections (paper: 3).
    pub query_every: usize,
    /// Top-k cutoff used in the reward's hit ratio.
    pub reward_k: usize,
    /// Discount factor γ (paper: 0.6).
    pub discount: f32,
    /// Learning rate for all policy networks. The paper reports 1e-3 over
    /// an (unstated, large) number of query rounds; this reproduction runs
    /// far fewer episodes, so the default is raised to keep the total
    /// policy movement comparable. Set 1e-3 to match the paper verbatim.
    pub lr: f32,
    /// Training episodes against (clones of) the target system.
    pub episodes: usize,
    /// Hidden width of the policy MLPs (the paper sets "the size of action"
    /// to 8; embeddings are 8-dimensional).
    pub hidden: usize,
    /// Clustering-tree decision depth (paper: 3 for Flixster, 6 for
    /// Netflix).
    pub tree_depth: usize,
    /// Number of discrete crafting levels (paper: 10 → {10%, …, 100%}).
    pub clip_levels: usize,
    /// Global-norm gradient clip for the episode update. Must be positive;
    /// `f32::INFINITY` turns clipping off.
    pub grad_clip: f32,
    /// Promotion or demotion (the paper's future-work direction).
    pub goal: AttackGoal,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self {
            budget: 30,
            n_pretend: 50,
            query_every: 3,
            reward_k: 20,
            discount: 0.6,
            lr: 0.05,
            episodes: 60,
            hidden: 16,
            tree_depth: 3,
            clip_levels: 10,
            grad_clip: 5.0,
            goal: AttackGoal::Promote,
            seed: 0,
        }
    }
}

impl AttackConfig {
    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.budget == 0 {
            return Err("budget must be positive".into());
        }
        if self.query_every == 0 || self.query_every > self.budget {
            return Err(format!("query_every {} must be in 1..={}", self.query_every, self.budget));
        }
        if !(0.0..=1.0).contains(&self.discount) {
            return Err(format!("discount {} must be in [0, 1]", self.discount));
        }
        if self.clip_levels == 0 {
            return Err("need at least one clipping level".into());
        }
        if self.tree_depth == 0 {
            return Err("tree depth must be at least 1".into());
        }
        // A zero radius zeroes every clipped update and a negative one
        // steps against the gradient.
        if self.grad_clip.is_nan() || self.grad_clip <= 0.0 {
            return Err(format!("grad_clip {} must be positive", self.grad_clip));
        }
        Ok(())
    }

    /// The crafting level fractions `{1/L, 2/L, …, 1.0}` (paper's
    /// `W = {10%, …, 100%}` for L = 10).
    pub fn clip_fractions(&self) -> Vec<f32> {
        (1..=self.clip_levels).map(|i| i as f32 / self.clip_levels as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = AttackConfig::default();
        assert_eq!(c.budget, 30);
        assert_eq!(c.n_pretend, 50);
        assert_eq!(c.query_every, 3);
        assert!((c.discount - 0.6).abs() < 1e-6);
        assert!((c.lr - 0.05).abs() < 1e-9);
        assert_eq!(c.clip_levels, 10);
        assert_eq!(c.goal, AttackGoal::Promote);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn clip_fractions_are_the_paper_set() {
        let c = AttackConfig::default();
        let w = c.clip_fractions();
        assert_eq!(w.len(), 10);
        assert!((w[0] - 0.1).abs() < 1e-6);
        assert!((w[4] - 0.5).abs() < 1e-6);
        assert!((w[9] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn validation_rejects_bad_query_cadence() {
        let c = AttackConfig { query_every: 0, ..Default::default() };
        assert!(c.validate().is_err());
        let c = AttackConfig { query_every: 31, budget: 30, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn goal_reward_transform() {
        assert_eq!(AttackGoal::Promote.reward(0.3), 0.3);
        assert!((AttackGoal::Demote.reward(0.3) - 0.7).abs() < 1e-6);
        assert_eq!(AttackGoal::Demote.reward(0.0), 1.0);
    }

    #[test]
    fn validation_rejects_bad_discount() {
        let c = AttackConfig { discount: 1.5, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_grad_clip() {
        for bad in [0.0, -1.0, f32::NAN] {
            let c = AttackConfig { grad_clip: bad, ..Default::default() };
            assert!(c.validate().is_err(), "grad_clip {bad} must be rejected");
        }
        let c = AttackConfig { grad_clip: f32::INFINITY, ..Default::default() };
        assert!(c.validate().is_ok(), "an infinite radius means no clipping");
    }
}
