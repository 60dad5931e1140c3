//! The benchmark's workloads. Each fixes a preset, a thread count and the
//! runs of one attack pass; `--seed` is the pipeline seed, from which the
//! preset derives every sub-seed.

use copyattack::pipeline::PipelineConfig;

/// Epochs the victim GNN trains in every workload. The presets stop early
/// on validation HR@10 (patience 5), which at `ml10m` ends after 6 to 14
/// epochs depending on the seed and so makes set-up time a property of
/// the seed; a fixed count gives every seed the same work.
pub const GNN_EPOCHS: usize = 8;

fn fixed_epochs(mut cfg: PipelineConfig) -> PipelineConfig {
    cfg.gnn.max_epochs = GNN_EPOCHS;
    // Patience equal to the epoch count never stops training early.
    cfg.gnn.patience = GNN_EPOCHS;
    cfg
}

fn ml10m(seed: u64) -> PipelineConfig {
    fixed_epochs(PipelineConfig::ml10m_fx(seed))
}

fn ml20m(seed: u64) -> PipelineConfig {
    fixed_epochs(PipelineConfig::ml20m_nf(seed))
}

fn small(seed: u64) -> PipelineConfig {
    fixed_epochs(PipelineConfig::small(seed))
}

/// The runs one attack pass makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Table 2: the WithoutAttack row, then every registry key, per cold
    /// target.
    Table2,
    /// CopyAttack, fanned out across the cold targets by `ca-par`.
    FanOut,
    /// CopyAttack with every episode's platform behind a chaos
    /// `FaultyRecommender`.
    Chaos,
    /// CopyAttack against the MF, popularity, ItemKNN and NCF victims.
    Victims,
}

/// One workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The runs of one pass.
    pub kind: Kind,
    /// Preset name, for provenance.
    pub preset: &'static str,
    /// The preset's pipeline configuration for a seed, with the GNN's
    /// epochs fixed.
    pub config: fn(u64) -> PipelineConfig,
    /// `CA_THREADS` for the whole invocation.
    pub threads: usize,
    /// Cold targets one pass attacks: the first ones set-up sampled.
    pub targets: usize,
    /// Set-ups per untraced invocation; `setup_s` is their median.
    pub setups: usize,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
}

/// Every workload, in `BENCHMARK.json` order.
pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "attacks-ml10m",
        kind: Kind::Table2,
        preset: "ml10m",
        config: ml10m,
        threads: 1,
        targets: 1,
        setups: 3,
        why: "Table 2 at ml10m on one thread: WithoutAttack plus every registry key per cold target; \
              batched reward rounds dominate and all six episode loops run",
    },
    Workload {
        name: "copyattack-ml20m-t2",
        kind: Kind::FanOut,
        preset: "ml20m",
        config: ml20m,
        threads: 2,
        targets: 2,
        // Two set-ups, not three: each takes about a quarter of the window.
        setups: 2,
        why: "CopyAttack at ml20m fanned out over cold targets at 2 threads: the only ca-par path, \
              with k-means nested in each worker and the heaviest set-up",
    },
    Workload {
        name: "copyattack-chaos-ml10m",
        kind: Kind::Chaos,
        preset: "ml10m",
        config: ml10m,
        threads: 1,
        targets: 4,
        setups: 3,
        why: "CopyAttack at ml10m behind a chaos FaultyRecommender: per-user retry queries beside \
              batched rounds, retried injections and re-established accounts",
    },
    Workload {
        name: "victims-small",
        kind: Kind::Victims,
        preset: "small",
        config: small,
        threads: 1,
        targets: 1,
        // A set-up takes under a second here, so more samples are cheap.
        setups: 8,
        why: "CopyAttack at small against MF, popularity, ItemKNN and NCF refreshing every 8 \
              injections: the only scoring through ca-ncf, ca-mf and KNN/popularity",
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}
