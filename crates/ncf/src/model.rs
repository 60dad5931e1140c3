//! NeuMF-lite model: fused GMF + MLP scoring over free embeddings.

use ca_nn::Mlp;
use ca_recsys::{ItemId, Scorer, UserId};
use ca_tensor::init::gaussian_matrix;
use ca_tensor::{ops, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// NCF hyper-parameters.
#[derive(Clone, Debug)]
pub struct NcfConfig {
    /// Embedding dimensionality (paper-scale: 8).
    pub dim: usize,
    /// Hidden width of the MLP branch.
    pub hidden: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// L2 regularization on embeddings.
    pub reg: f32,
    /// Maximum training epochs.
    pub max_epochs: usize,
    /// Early-stopping patience on validation HR@10.
    pub patience: usize,
    /// RNG seed.
    pub seed: u64,
    /// Pairs per minibatch in [`crate::train::train`]: gradients within a
    /// batch are computed against the frozen batch-start model and applied
    /// in pair order. `1` recovers classic per-pair SGD exactly.
    pub minibatch: usize,
}

impl Default for NcfConfig {
    fn default() -> Self {
        Self {
            dim: 8,
            hidden: 16,
            lr: 0.05,
            reg: 1e-4,
            max_epochs: 30,
            patience: 5,
            seed: 0,
            minibatch: 32,
        }
    }
}

/// NeuMF-lite parameters.
#[derive(Clone, Debug)]
pub struct NcfModel {
    /// Hyper-parameters.
    pub cfg: NcfConfig,
    /// User embeddings, `n_users × dim` (grows on onboarding).
    pub p: Matrix,
    /// Item embeddings, `n_items × dim`.
    pub q: Matrix,
    /// GMF fusion weights over the element-wise product.
    pub w_gmf: Vec<f32>,
    /// MLP branch over `[p ⊕ q]`, scalar output.
    pub mlp: Mlp,
}

impl NcfModel {
    /// Fresh model with `N(0, 0.1²)` embeddings (per §5.1.3) and
    /// Xavier-scale MLP weights.
    pub fn new(n_users: usize, n_items: usize, cfg: NcfConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let p = gaussian_matrix(&mut rng, n_users, cfg.dim, 0.0, 0.1);
        let q = gaussian_matrix(&mut rng, n_items, cfg.dim, 0.0, 0.1);
        let w_gmf = vec![1.0; cfg.dim];
        let mlp_std = (2.0 / (2 * cfg.dim + cfg.hidden) as f32).sqrt();
        let mlp = Mlp::new(&mut rng, &[2 * cfg.dim, cfg.hidden, 1], mlp_std);
        Self { cfg, p, q, w_gmf, mlp }
    }

    /// Number of users currently represented.
    pub fn n_users(&self) -> usize {
        self.p.rows()
    }

    /// Catalog size.
    pub fn n_items(&self) -> usize {
        self.q.rows()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// The MLP input `[p_u ⊕ q_v]`.
    pub fn fusion_input(&self, u: UserId, v: ItemId) -> Vec<f32> {
        let mut x = vec![0.0; 2 * self.dim()];
        self.fusion_input_into(u, v, &mut x);
        x
    }

    /// [`NcfModel::fusion_input`] written into `x` (length `2 · dim`).
    pub(crate) fn fusion_input_into(&self, u: UserId, v: ItemId, x: &mut [f32]) {
        let (pu, qv) = x.split_at_mut(self.dim());
        pu.copy_from_slice(self.p.row(u.idx()));
        qv.copy_from_slice(self.q.row(v.idx()));
    }

    /// Onboards a new user: embedding initialized at the mean of the
    /// profile items' embeddings (a warm start that local fine-tuning then
    /// sharpens). Returns the new user's id.
    pub fn onboard_user(&mut self, profile: &[ItemId]) -> UserId {
        let dim = self.dim();
        let mut emb = vec![0.0; dim];
        if !profile.is_empty() {
            for &v in profile {
                ops::axpy(1.0, self.q.row(v.idx()), &mut emb);
            }
            ops::scale(&mut emb, 1.0 / profile.len() as f32);
        }
        let uid = UserId(self.p.rows() as u32);
        self.p.push_row(&emb);
        uid
    }
}

impl Scorer for NcfModel {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        let pu = self.p.row(user.idx());
        let qv = self.q.row(item.idx());
        let mut gmf = 0.0;
        for k in 0..self.dim() {
            gmf += self.w_gmf[k] * pu[k] * qv[k];
        }
        gmf + self.mlp.infer(&self.fusion_input(user, item))[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_model_shapes() {
        let m = NcfModel::new(5, 7, NcfConfig::default());
        assert_eq!(m.n_users(), 5);
        assert_eq!(m.n_items(), 7);
        assert_eq!(m.dim(), 8);
        assert_eq!(m.fusion_input(UserId(0), ItemId(0)).len(), 16);
    }

    #[test]
    fn score_combines_gmf_and_mlp() {
        let mut m = NcfModel::new(2, 2, NcfConfig::default());
        // Zero the MLP contribution by zeroing its final layer.
        for layer in m.mlp.layers_mut() {
            layer.w.fill_zero();
            layer.b.iter_mut().for_each(|b| *b = 0.0);
        }
        let expected: f32 = (0..8).map(|k| m.w_gmf[k] * m.p[(0, k)] * m.q[(1, k)]).sum();
        assert!((m.score(UserId(0), ItemId(1)) - expected).abs() < 1e-6);
    }

    #[test]
    fn onboarding_warm_starts_at_item_mean() {
        let mut m = NcfModel::new(1, 3, NcfConfig::default());
        let uid = m.onboard_user(&[ItemId(0), ItemId(2)]);
        assert_eq!(uid, UserId(1));
        for k in 0..m.dim() {
            let expected = (m.q[(0, k)] + m.q[(2, k)]) / 2.0;
            assert!((m.p[(1, k)] - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn onboarding_empty_profile_gives_zero_embedding() {
        let mut m = NcfModel::new(1, 3, NcfConfig::default());
        let uid = m.onboard_user(&[]);
        assert!(m.p.row(uid.idx()).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn construction_is_deterministic() {
        let a = NcfModel::new(4, 4, NcfConfig::default());
        let b = NcfModel::new(4, 4, NcfConfig::default());
        assert_eq!(a.p.as_slice(), b.p.as_slice());
        assert_eq!(a.q.as_slice(), b.q.as_slice());
    }
}
