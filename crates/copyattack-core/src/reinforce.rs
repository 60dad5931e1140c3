//! REINFORCE machinery: discounted returns and a per-timestep baseline.
//!
//! The paper optimizes the policy networks with policy gradient \[21\] and a
//! discount factor γ = 0.6 (§5.1.3). Rewards arrive only at query steps
//! (every 3 injections); other steps observe 0 and rely on the discounted
//! return to propagate credit backwards.

use ca_tensor::stats::RunningStats;

/// Discounted returns `G_t = r_t + γ G_{t+1}` (backwards recursion).
pub fn discounted_returns(rewards: &[f32], gamma: f32) -> Vec<f32> {
    let mut returns = vec![0.0f32; rewards.len()];
    let mut acc = 0.0f32;
    for t in (0..rewards.len()).rev() {
        acc = rewards[t] + gamma * acc;
        returns[t] = acc;
    }
    returns
}

/// Per-timestep running-mean baseline: `A_t = G_t − b_t` with `b_t` the
/// running mean of returns observed at step `t` across episodes. A
/// per-step baseline matters here because early steps see systematically
/// larger discounted returns than late steps.
#[derive(Clone, Debug)]
pub struct Baseline {
    stats: Vec<RunningStats>,
}

impl Baseline {
    /// Baseline for episodes of at most `horizon` steps.
    pub fn new(horizon: usize) -> Self {
        Self { stats: vec![RunningStats::new(); horizon] }
    }

    /// The advantage of return `g` at step `t`, *without* updating the
    /// baseline. Returns `g` itself before any observation at `t`.
    pub fn advantage(&self, t: usize, g: f32) -> f32 {
        let s = &self.stats[t];
        if s.count() == 0 {
            g
        } else {
            g - s.mean()
        }
    }

    /// Records the observed return at step `t`.
    pub fn update(&mut self, t: usize, g: f32) {
        self.stats[t].push(g);
    }

    /// The advantages of one episode's `rewards` under discount `gamma`,
    /// step by step: each step's advantage is taken before its return
    /// updates the baseline.
    pub(crate) fn advantages(&mut self, rewards: &[f32], gamma: f32) -> Vec<f32> {
        let returns = discounted_returns(rewards, gamma);
        returns
            .into_iter()
            .enumerate()
            .map(|(t, g)| {
                let adv = self.advantage(t, g);
                self.update(t, g);
                adv
            })
            .collect()
    }

    /// The current baseline value at step `t`.
    pub fn value(&self, t: usize) -> f32 {
        self.stats[t].mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_backwards_recursion() {
        let g = discounted_returns(&[0.0, 0.0, 1.0], 0.5);
        assert_eq!(g, vec![0.25, 0.5, 1.0]);
    }

    #[test]
    fn zero_gamma_keeps_immediate_rewards() {
        let g = discounted_returns(&[1.0, 2.0, 3.0], 0.0);
        assert_eq!(g, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn unit_gamma_gives_suffix_sums() {
        let g = discounted_returns(&[1.0, 2.0, 3.0], 1.0);
        assert_eq!(g, vec![6.0, 5.0, 3.0]);
    }

    #[test]
    fn empty_rewards_give_empty_returns() {
        assert!(discounted_returns(&[], 0.6).is_empty());
    }

    #[test]
    fn returns_are_monotone_before_a_single_terminal_reward() {
        // With one terminal reward, earlier steps see geometrically smaller
        // returns.
        let mut rewards = vec![0.0; 10];
        rewards[9] = 1.0;
        let g = discounted_returns(&rewards, 0.6);
        for t in 0..9 {
            assert!(g[t] < g[t + 1]);
        }
    }

    #[test]
    fn baseline_converges_to_mean() {
        let mut b = Baseline::new(3);
        assert_eq!(b.advantage(0, 2.0), 2.0, "no data yet → raw return");
        for _ in 0..100 {
            b.update(1, 4.0);
        }
        assert!((b.value(1) - 4.0).abs() < 1e-5);
        assert!((b.advantage(1, 5.0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn baseline_is_per_timestep() {
        let mut b = Baseline::new(2);
        b.update(0, 10.0);
        b.update(1, 1.0);
        assert!((b.advantage(0, 10.0)).abs() < 1e-6);
        assert!((b.advantage(1, 2.0) - 1.0).abs() < 1e-6);
    }
}
