//! Pluggable per-pair update strategies for the shared BPR driver.
//!
//! The driver hands each [`crate::PairwiseModel::apply`] call a [`Step`]
//! instead of a bare learning rate. A model routes every parameter block it
//! owns through [`Step::ascend`] / [`Step::descend`] under a stable block
//! key, and the configured [`Optimizer`] decides what one update means:
//!
//! - [`Optimizer::Sgd`] writes `param[i] += ±lr · grad[i]` — elementwise
//!   *bitwise identical* to the historical hand-rolled loops (`+= lr·g`
//!   ascent in MF, `add_scaled(g, -lr)` / `axpy(-lr, …)` descent in the
//!   NCF/GNN towers), because IEEE-754 negation is exact:
//!   `(-lr)·g ≡ -(lr·g)` and `a + (-x) ≡ a - x`. The golden-hash parity
//!   tests in `tests/train_parity.rs` pin this.
//! - [`Optimizer::Momentum`] keeps one velocity buffer per block key
//!   (`v ← β·v + g`, `param[i] += ±lr · v[i]`), lazily allocated on first
//!   touch — per-pair sparse updates (two item rows out of millions) cost
//!   state proportional to what they actually touch.
//! - [`Optimizer::Adam`] keeps first/second moment buffers and a step
//!   counter per block key and applies the bias-corrected update
//!   `param[i] += ±lr · m̂ / (√v̂ + ε)` — elementwise bitwise identical to
//!   a textbook per-tensor Adam on the same block (the reference kept in
//!   this module's tests), with the per-block counter playing the
//!   per-tensor `t` (each block is its own Adam instance, so
//!   sparsely-touched embedding rows bias-correct by how often *they* were
//!   updated, not by global pair count).
//!
//! Determinism: all state lives in [`OptState`], owned by the driver and
//! mutated only from the serial in-pair-order apply phase. Block keys are a
//! pure function of the model layout (never of thread count or timing), so
//! a momentum or Adam run is as reproducible as a plain-SGD run.

/// The update rule applied to every parameter block.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Optimizer {
    /// Plain SGD: `param += ±lr · grad`. Carries no state; this is the
    /// default and reproduces the historical trainers bit-for-bit.
    #[default]
    Sgd,
    /// Classical (heavy-ball) momentum: per block `v ← beta·v + grad`,
    /// then `param += ±lr · v`.
    Momentum {
        /// Velocity decay β ∈ \[0, 1); `0.0` degrades to SGD plus a
        /// velocity copy of the gradient.
        beta: f32,
    },
    /// Adam (Kingma & Ba): per block `m ← β₁·m + (1−β₁)·g`,
    /// `v ← β₂·v + (1−β₂)·g²`, bias-corrected by the block's own step
    /// count, then `param += ±lr · m̂ / (√v̂ + ε)`. Use [`Optimizer::adam`]
    /// for the standard hyper-parameters.
    Adam {
        /// First-moment decay β₁ ∈ \[0, 1).
        beta1: f32,
        /// Second-moment decay β₂ ∈ \[0, 1).
        beta2: f32,
        /// Denominator fuzz ε > 0.
        eps: f32,
    },
}

impl Optimizer {
    /// Adam with the standard (0.9, 0.999, 1e-8) hyper-parameters of
    /// Kingma & Ba.
    pub fn adam() -> Self {
        Optimizer::Adam { beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }
}

/// Per-block Adam state: first/second moment buffers plus the block's own
/// bias-correction step counter.
#[derive(Clone, Debug, Default)]
struct AdamMoments {
    m: Vec<f32>,
    v: Vec<f32>,
    t: i32,
}

/// Optimizer state across one training run: one velocity (momentum) or
/// moment-pair (Adam) buffer per parameter-block key, lazily grown. Plain
/// SGD keeps both empty.
#[derive(Clone, Debug)]
pub struct OptState {
    opt: Optimizer,
    vel: Vec<Vec<f32>>,
    moments: Vec<AdamMoments>,
}

impl OptState {
    /// Fresh (zero-state) optimizer state for `opt`.
    pub fn new(opt: Optimizer) -> Self {
        Self { opt, vel: Vec::new(), moments: Vec::new() }
    }

    /// Borrows a [`Step`] at learning rate `lr` for one apply call.
    pub fn step(&mut self, lr: f32) -> Step<'_> {
        Step { lr, opt: self.opt, vel: &mut self.vel, moments: &mut self.moments }
    }

    /// Number of parameter blocks with live optimizer state (telemetry /
    /// tests; always 0 for plain SGD).
    pub fn live_blocks(&self) -> usize {
        self.vel.iter().filter(|v| !v.is_empty()).count()
            + self.moments.iter().filter(|s| !s.m.is_empty()).count()
    }
}

/// One model update at a fixed learning rate, borrowed from [`OptState`]
/// for the duration of a single [`crate::PairwiseModel::apply`] call.
///
/// Block keys must be stable across the run (same block ⇒ same key) and
/// disjoint (two different parameter blocks never share a key); each
/// trainer documents its layout next to its `apply`.
pub struct Step<'a> {
    lr: f32,
    opt: Optimizer,
    vel: &'a mut Vec<Vec<f32>>,
    moments: &'a mut Vec<AdamMoments>,
}

impl Step<'_> {
    /// The learning rate of this step (for models that keep bespoke update
    /// arithmetic outside the block router).
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Gradient-*ascent* update of one block: `param += lr · dir` where
    /// `dir` is the (possibly velocity-smoothed) gradient.
    pub fn ascend(&mut self, key: usize, param: &mut [f32], grad: &[f32]) {
        self.update(key, param, grad, self.lr);
    }

    /// Gradient-*descent* update of one block: `param += (-lr) · dir` —
    /// bitwise equal to the `-= lr · dir` convention.
    pub fn descend(&mut self, key: usize, param: &mut [f32], grad: &[f32]) {
        self.update(key, param, grad, -self.lr);
    }

    /// [`Step::ascend`] for a scalar parameter (MF's per-item biases).
    pub fn ascend1(&mut self, key: usize, param: &mut f32, grad: f32) {
        self.update(key, std::slice::from_mut(param), &[grad], self.lr);
    }

    /// Descends every layer of an MLP, two blocks per layer (`base + 2·i`
    /// for weights, `base + 2·i + 1` for biases), in layer order — the same
    /// element order as [`ca_nn::Mlp::sgd_step`], so the SGD path stays
    /// bitwise-identical to it. Returns the first key past the tower
    /// (`base + 2·layers`), so callers can stack towers back to back.
    pub fn descend_mlp(
        &mut self,
        base: usize,
        mlp: &mut ca_nn::Mlp,
        grad: &ca_nn::MlpGrad,
    ) -> usize {
        let layers = mlp.layers_mut();
        assert_eq!(layers.len(), grad.layers.len(), "MLP/grad layer count mismatch");
        for (i, (layer, g)) in layers.iter_mut().zip(grad.layers.iter()).enumerate() {
            self.descend(base + 2 * i, layer.w.as_mut_slice(), g.w.as_slice());
            self.descend(base + 2 * i + 1, &mut layer.b, &g.b);
        }
        base + 2 * layers.len()
    }

    fn update(&mut self, key: usize, param: &mut [f32], grad: &[f32], rate: f32) {
        assert_eq!(param.len(), grad.len(), "block {key}: param/grad length mismatch");
        match self.opt {
            Optimizer::Sgd => {
                for (p, &g) in param.iter_mut().zip(grad) {
                    *p += rate * g;
                }
            }
            Optimizer::Momentum { beta } => {
                if self.vel.len() <= key {
                    self.vel.resize_with(key + 1, Vec::new);
                }
                let v = &mut self.vel[key];
                if v.len() < param.len() {
                    v.resize(param.len(), 0.0);
                }
                for ((p, &g), vi) in param.iter_mut().zip(grad).zip(v.iter_mut()) {
                    *vi = beta * *vi + g;
                    *p += rate * *vi;
                }
            }
            Optimizer::Adam { beta1, beta2, eps } => {
                if self.moments.len() <= key {
                    self.moments.resize_with(key + 1, AdamMoments::default);
                }
                let s = &mut self.moments[key];
                if s.m.len() < param.len() {
                    s.m.resize(param.len(), 0.0);
                    s.v.resize(param.len(), 0.0);
                }
                s.t += 1;
                let b1t = 1.0 - beta1.powi(s.t);
                let b2t = 1.0 - beta2.powi(s.t);
                // Same expression shape (and so the same rounding) as the
                // reference `Adam::step` in the tests; `rate = -lr`
                // reproduces its descent bit for bit because IEEE negation
                // is exact.
                for i in 0..param.len() {
                    let g = grad[i];
                    s.m[i] = beta1 * s.m[i] + (1.0 - beta1) * g;
                    s.v[i] = beta2 * s.v[i] + (1.0 - beta2) * g * g;
                    let mhat = s.m[i] / b1t;
                    let vhat = s.v[i] / b2t;
                    param[i] += rate * mhat / (vhat.sqrt() + eps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference Adam for one flat parameter tensor, written the textbook
    /// way: `OptState`'s Adam blocks must match it bit for bit.
    struct Adam {
        m: Vec<f32>,
        v: Vec<f32>,
        t: u32,
        beta1: f32,
        beta2: f32,
        eps: f32,
    }

    impl Adam {
        /// Adam with the standard (0.9, 0.999, 1e-8) hyper-parameters.
        fn new(param_len: usize) -> Self {
            Self {
                m: vec![0.0; param_len],
                v: vec![0.0; param_len],
                t: 0,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            }
        }

        /// One update: `param -= lr * m̂ / (sqrt(v̂) + eps)`.
        fn step(&mut self, param: &mut [f32], grad: &[f32], lr: f32) {
            assert_eq!(param.len(), self.m.len(), "Adam param length mismatch");
            assert_eq!(grad.len(), self.m.len(), "Adam grad length mismatch");
            self.t += 1;
            let b1t = 1.0 - self.beta1.powi(self.t as i32);
            let b2t = 1.0 - self.beta2.powi(self.t as i32);
            for i in 0..param.len() {
                let g = grad[i];
                self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
                self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
                let mhat = self.m[i] / b1t;
                let vhat = self.v[i] / b2t;
                param[i] -= lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // f(x) = (x - 3)², gradient 2(x - 3).
        let mut x = vec![0.0f32];
        let mut adam = Adam::new(1);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            adam.step(&mut x, &g, 0.05);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "converged to {}", x[0]);
    }

    #[test]
    fn adam_beats_sgd_on_ill_conditioned_quadratic() {
        // f(x, y) = 100 x² + y²; SGD with a stable lr crawls on y.
        let grad = |p: &[f32]| vec![200.0 * p[0], 2.0 * p[1]];
        let f = |p: &[f32]| 100.0 * p[0] * p[0] + p[1] * p[1];

        let mut sgd = vec![1.0f32, 1.0];
        for _ in 0..100 {
            let g = grad(&sgd);
            for (p, gi) in sgd.iter_mut().zip(g.iter()) {
                *p -= 0.004 * gi; // ~ largest stable lr for the x curvature
            }
        }
        let mut ad = vec![1.0f32, 1.0];
        let mut adam = Adam::new(2);
        for _ in 0..100 {
            let g = grad(&ad);
            adam.step(&mut ad, &g, 0.05);
        }
        assert!(f(&ad) < f(&sgd), "adam {} vs sgd {}", f(&ad), f(&sgd));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn adam_rejects_shape_mismatch() {
        let mut adam = Adam::new(2);
        let mut p = vec![0.0; 3];
        adam.step(&mut p, &[0.0, 0.0, 0.0], 0.1);
    }

    #[test]
    fn sgd_descend_is_bitwise_the_historical_loop() {
        let grad = [0.123_f32, -7.5e-3, 1.0e-20, -3.0];
        let lr = 0.05_f32;
        let mut via_step = [1.0_f32, -2.0, 0.5, 1.0e-19];
        let mut historical = via_step;

        let mut state = OptState::new(Optimizer::Sgd);
        state.step(lr).descend(0, &mut via_step, &grad);
        for (p, &g) in historical.iter_mut().zip(&grad) {
            *p += (-lr) * g; // what add_scaled(grad, -lr) / axpy(-lr, …) compute
        }
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&via_step), bits(&historical));

        // And the ascent convention matches `+= lr·g`.
        let mut up = [1.0_f32; 4];
        state.step(lr).ascend(0, &mut up, &grad);
        for (i, &g) in grad.iter().enumerate() {
            assert_eq!(up[i].to_bits(), (1.0 + lr * g).to_bits());
        }
        assert_eq!(state.live_blocks(), 0, "SGD must stay stateless");
    }

    #[test]
    fn momentum_accumulates_velocity_per_block() {
        let mut state = OptState::new(Optimizer::Momentum { beta: 0.5 });
        let mut p = [0.0_f32];
        state.step(1.0).ascend(3, &mut p, &[1.0]); // v = 1.0, p = 1.0
        state.step(1.0).ascend(3, &mut p, &[1.0]); // v = 1.5, p = 2.5
        state.step(1.0).ascend(3, &mut p, &[1.0]); // v = 1.75, p = 4.25
        assert_eq!(p[0], 4.25);
        // Only the touched key holds state; untouched lower keys stay empty.
        assert_eq!(state.live_blocks(), 1);
    }

    #[test]
    fn momentum_blocks_are_independent() {
        let mut state = OptState::new(Optimizer::Momentum { beta: 0.9 });
        let (mut a, mut b) = ([0.0_f32], [0.0_f32]);
        state.step(0.1).descend(0, &mut a, &[1.0]);
        state.step(0.1).descend(7, &mut b, &[1.0]);
        // First touch of each block sees the same zero velocity.
        assert_eq!(a[0].to_bits(), b[0].to_bits());
        assert_eq!(state.live_blocks(), 2);
    }

    #[test]
    fn momentum_beta_zero_moves_like_sgd() {
        let grad = [0.25_f32, -0.5];
        let mut sgd = [1.0_f32, 1.0];
        let mut mom = sgd;
        OptState::new(Optimizer::Sgd).step(0.1).descend(0, &mut sgd, &grad);
        OptState::new(Optimizer::Momentum { beta: 0.0 }).step(0.1).descend(0, &mut mom, &grad);
        // β = 0 ⇒ v = 0·v + g = g exactly; the parameter moves identically.
        assert_eq!(sgd[0].to_bits(), mom[0].to_bits());
        assert_eq!(sgd[1].to_bits(), mom[1].to_bits());
    }

    #[test]
    fn adam_descent_is_bitwise_the_nn_reference() {
        // One OptState block must behave exactly like one reference Adam
        // instance: same moments, same bias correction, same rounding.
        let grads = [
            [0.123_f32, -7.5e-3, 1.0e-20, -3.0],
            [0.5, 0.5, -0.25, 2.0e-10],
            [-1.0, 0.0, 4.0, 0.125],
        ];
        let lr = 0.05_f32;
        let mut via_step = [1.0_f32, -2.0, 0.5, 1.0e-19];
        let mut reference = via_step;

        let mut state = OptState::new(Optimizer::adam());
        let mut nn = Adam::new(reference.len());
        for g in &grads {
            state.step(lr).descend(2, &mut via_step, g);
            nn.step(&mut reference, g, lr);
        }
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&via_step), bits(&reference));
        assert_eq!(state.live_blocks(), 1);
    }

    #[test]
    fn adam_blocks_bias_correct_independently() {
        // A block touched once must see the t = 1 bias correction no matter
        // how often *other* blocks were updated.
        let mut state = OptState::new(Optimizer::adam());
        let (mut hot, mut cold, mut fresh) = ([0.0_f32], [0.0_f32], [0.0_f32]);
        for _ in 0..5 {
            state.step(0.1).descend(0, &mut hot, &[1.0]);
        }
        state.step(0.1).descend(9, &mut cold, &[1.0]);
        OptState::new(Optimizer::adam()).step(0.1).descend(0, &mut fresh, &[1.0]);
        assert_eq!(cold[0].to_bits(), fresh[0].to_bits());
        assert_eq!(state.live_blocks(), 2);
    }

    #[test]
    fn adam_ascend_is_negated_descent() {
        let grad = [0.25_f32, -0.5, 1.0e-6];
        let mut up = [1.0_f32, 1.0, 1.0];
        let mut down = up;
        OptState::new(Optimizer::adam()).step(0.1).ascend(0, &mut up, &grad);
        OptState::new(Optimizer::adam()).step(0.1).descend(0, &mut down, &grad);
        for (u, d) in up.iter().zip(&down) {
            // Both sit at 1.0 ± the same bias-corrected step.
            assert_eq!((u - 1.0).to_bits(), (-(d - 1.0)).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_block_shapes_panic() {
        let mut state = OptState::new(Optimizer::Sgd);
        let mut p = [0.0_f32; 3];
        state.step(0.1).ascend(0, &mut p, &[1.0]);
    }
}
