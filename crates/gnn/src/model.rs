//! Model parameters and representation functions.
//!
//! PinSage computes item embeddings from **content features + neighbor
//! aggregation** — there is no free per-item embedding table at inference
//! time. That is the property that makes the deployed model inductive (new
//! users/interactions change representations without retraining) and is
//! exactly the channel a profile-injection attack manipulates. We keep that
//! structure:
//!
//! ```text
//! f_v  : frozen item features (content proxies; in the experiment pipeline
//!        these are MF item embeddings pretrained on the clean data)
//! m_u  = mean_{v ∈ P_u} f_v                       (item→user aggregation)
//! h_u  = MLP_user(m_u)                            (user tower)
//! n_v  = mean_{u ∈ P_v} h_u                       (user→item aggregation)
//! h_v  = MLP_item([f_v ⊕ n_v ⊕ log(1 + deg_v)])   (item tower)
//! score(u, v) = ⟨h_u, h_v⟩
//! ```
//!
//! The degree input mirrors PinSage's importance pooling, where an item's
//! visit counts shape its representation: interaction volume is a live,
//! recomputable-on-fold-in signal, not a frozen trained bias.
//!
//! Only the two towers are trainable. An earlier draft added a free
//! embedding `q_v` and a popularity bias `b_v`; BPR then routed all item
//! identity through those and the aggregate path went unused — the model
//! scored well but was (unrealistically) immune to injection. See
//! DESIGN.md §5, ablation 4.

use crate::config::GnnConfig;
use ca_nn::Mlp;
use ca_recsys::ItemId;
use ca_tensor::{ops, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the PinSage-like recommender.
#[derive(Clone, Debug)]
pub struct PinSageModel {
    /// Hyper-parameters the model was built with.
    pub cfg: GnnConfig,
    /// Frozen item content features, `n_items × feat_dim`.
    pub features: Matrix,
    /// User tower: `m_u → h_u`, input `feat_dim`, output `dim`.
    pub user_tower: Mlp,
    /// Item tower: `[f_v ⊕ n_v ⊕ log(1+deg)] → h_v`, input
    /// `feat_dim + dim + 1`, output `dim`.
    pub item_tower: Mlp,
}

impl PinSageModel {
    /// Builds a model over the given frozen item features.
    pub fn new(features: Matrix, cfg: GnnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let feat_dim = features.cols();
        // Activation-scale-preserving init; the paper's N(0, 0.1²) makes the
        // composed two-tower path vanish at these widths.
        let user_std = (2.0 / (feat_dim + cfg.hidden) as f32).sqrt();
        let item_std = (2.0 / (feat_dim + cfg.dim + 1 + cfg.hidden) as f32).sqrt();
        let user_tower = Mlp::new(&mut rng, &[feat_dim, cfg.hidden, cfg.dim], user_std);
        let item_tower =
            Mlp::new(&mut rng, &[feat_dim + cfg.dim + 1, cfg.hidden, cfg.dim], item_std);
        Self { cfg, features, user_tower, item_tower }
    }

    /// Convenience: random `N(0, 1)` features (for tests and worlds without
    /// a content/MF feature source).
    pub fn with_random_features(n_items: usize, cfg: GnnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xFEED));
        let features = ca_tensor::init::gaussian_matrix(&mut rng, n_items, cfg.dim, 0.0, 1.0);
        Self::new(features, cfg)
    }

    /// Number of items in the catalog.
    pub fn n_items(&self) -> usize {
        self.features.rows()
    }

    /// Representation dimensionality (tower output).
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// Item feature dimensionality.
    pub fn feat_dim(&self) -> usize {
        self.features.cols()
    }

    /// Item→user aggregation `m_u`: mean feature vector of the profile's
    /// items (zero for an empty profile).
    pub fn aggregate_profile(&self, profile: &[ItemId]) -> Vec<f32> {
        let mut m = vec![0.0; self.feat_dim()];
        if profile.is_empty() {
            return m;
        }
        for &v in profile {
            ops::axpy(1.0, self.features.row(v.idx()), &mut m);
        }
        ops::scale(&mut m, 1.0 / profile.len() as f32);
        m
    }

    /// Inductive user representation `h_u = MLP_user(m_u)`.
    ///
    /// This is the function the platform applies to *any* profile — real,
    /// pretend, or injected — which is what makes the model attackable
    /// without retraining.
    pub fn user_repr(&self, profile: &[ItemId]) -> Vec<f32> {
        self.user_tower.infer(&self.aggregate_profile(profile))
    }

    /// Concatenated item-tower input `[f_v ⊕ n_v ⊕ log(1 + deg_v)]`.
    pub fn item_tower_input(&self, v: ItemId, n_v: &[f32], degree: usize) -> Vec<f32> {
        let mut x = vec![0.0; self.item_tower.in_dim()];
        self.item_tower_input_into(v, n_v, degree, &mut x);
        x
    }

    /// [`PinSageModel::item_tower_input`] written into `x`, which must be
    /// exactly the item tower's input width (`feat_dim + dim + 1`).
    pub(crate) fn item_tower_input_into(
        &self,
        v: ItemId,
        n_v: &[f32],
        degree: usize,
        x: &mut [f32],
    ) {
        let fd = self.feat_dim();
        assert_eq!(x.len(), fd + n_v.len() + 1, "item tower input width mismatch");
        x[..fd].copy_from_slice(self.features.row(v.idx()));
        x[fd..fd + n_v.len()].copy_from_slice(n_v);
        x[fd + n_v.len()] = (1.0 + degree as f32).ln();
    }

    /// Item representation `h_v = MLP_item([f_v ⊕ n_v ⊕ log(1+deg)])` given
    /// the user→item aggregate `n_v` and the item's interaction count.
    pub fn item_repr(&self, v: ItemId, n_v: &[f32], degree: usize) -> Vec<f32> {
        self.item_tower.infer(&self.item_tower_input(v, n_v, degree))
    }

    /// Final score `⟨h_u, h_v⟩`.
    pub fn score_reprs(&self, h_u: &[f32], h_v: &[f32], _v: ItemId) -> f32 {
        ops::dot(h_u, h_v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PinSageModel {
        PinSageModel::with_random_features(10, GnnConfig::default())
    }

    #[test]
    fn aggregate_of_empty_profile_is_zero() {
        let m = model();
        assert_eq!(m.aggregate_profile(&[]), vec![0.0; m.feat_dim()]);
    }

    #[test]
    fn aggregate_is_mean_of_feature_rows() {
        let m = model();
        let agg = m.aggregate_profile(&[ItemId(0), ItemId(1)]);
        for (k, &a) in agg.iter().enumerate() {
            let expected = (m.features[(0, k)] + m.features[(1, k)]) / 2.0;
            assert!((a - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn user_repr_is_profile_dependent() {
        let m = model();
        let a = m.user_repr(&[ItemId(0), ItemId(1)]);
        let b = m.user_repr(&[ItemId(5), ItemId(6)]);
        assert_ne!(a, b);
    }

    #[test]
    fn item_repr_depends_on_aggregate() {
        let m = model();
        let zero = vec![0.0; m.dim()];
        let ones = vec![1.0; m.dim()];
        let a = m.item_repr(ItemId(3), &zero, 4);
        let b = m.item_repr(ItemId(3), &ones, 4);
        assert_ne!(a, b, "the aggregate channel must reach the representation");
    }

    #[test]
    fn item_tower_input_layout() {
        let m = model();
        let n_v = vec![9.0; m.dim()];
        let x = m.item_tower_input(ItemId(2), &n_v, 7);
        assert_eq!(x.len(), m.feat_dim() + m.dim() + 1);
        assert_eq!(&x[m.feat_dim()..m.feat_dim() + m.dim()], &n_v[..]);
        assert!((x[m.feat_dim() + m.dim()] - (8.0f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn construction_is_deterministic_per_seed() {
        let a = PinSageModel::with_random_features(10, GnnConfig::default());
        let b = PinSageModel::with_random_features(10, GnnConfig::default());
        assert_eq!(a.features.as_slice(), b.features.as_slice());
    }
}
