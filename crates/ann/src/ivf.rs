//! The IVF index: seeded build, CSR posting layout, and probed search.

use ca_recsys::{batch_top_k, select_top_k, EmbeddingEngine, ItemId, RetrievalMode, UserId};
use ca_tensor::{ops, Matrix, Scratch};
use rand::prelude::*;
use std::cell::RefCell;

/// Build- and search-time parameters of an IVF index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IvfConfig {
    /// Number of cells the catalog is partitioned into (clamped to the
    /// catalog size at build time).
    pub nlist: usize,
    /// Number of nearest cells scored per query.
    pub nprobe: usize,
    /// k-means iteration budget.
    pub max_iters: usize,
    /// Catalogs up to this size are clustered whole with balanced k-means;
    /// above it, k-means trains on a stride-sample of this many items and
    /// the full catalog is assigned to the nearest trained centroid (the
    /// balanced variant materializes all `n × nlist` point/centroid pairs,
    /// which does not scale to millions of items).
    pub train_cap: usize,
    /// Seed of the k-means initialization; the whole build is a pure
    /// function of (embeddings, config).
    pub seed: u64,
}

impl IvfConfig {
    /// A config with the workspace-default build budget.
    pub fn new(nlist: usize, nprobe: usize) -> Self {
        IvfConfig { nlist, nprobe, max_iters: 25, train_cap: 16_384, seed: 0x1bf_5eed }
    }

    /// The config an engine-level [`RetrievalMode`] knob asks for, or
    /// `None` for `Exact`.
    pub fn from_mode(mode: RetrievalMode) -> Option<Self> {
        match mode {
            RetrievalMode::Exact => None,
            RetrievalMode::Ivf { nlist, nprobe } => Some(IvfConfig::new(nlist, nprobe)),
        }
    }

    /// The engine-level knob equivalent of this config.
    pub fn mode(&self) -> RetrievalMode {
        RetrievalMode::Ivf { nlist: self.nlist, nprobe: self.nprobe }
    }
}

/// Parallelize batched search only past this many users…
const PAR_MIN_USERS: usize = 8;
/// …and this many *estimated probed* score cells, so small batches skip
/// thread spawn.
const PAR_MIN_CELLS: usize = 1 << 18;

thread_local! {
    /// Per-thread search buffers: a [`Scratch`] pool (query vector, cell
    /// and candidate pair lists, candidate scores) plus the candidate-id
    /// list handed to `score_items`. Steady-state search allocates nothing
    /// beyond the k-sized result lists.
    static ANN_SCRATCH: RefCell<(Scratch, Vec<ItemId>)> =
        RefCell::new((Scratch::new(), Vec::new()));
}

/// Index of the centroid nearest to `p` (ties to the lowest index, so the
/// parallel assignment stage is order-independent and deterministic).
fn nearest(p: &[f32], centroids: &Matrix) -> usize {
    let mut best = 0;
    let mut best_d = f32::INFINITY;
    for c in 0..centroids.rows() {
        let d = ops::sq_dist(p, centroids.row(c));
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// A seeded inverted-file index over one engine's item embeddings.
///
/// Layout is a flat CSR arena: `cell_items[cell_offsets[c]..cell_offsets
/// [c + 1]]` lists the items of cell `c` in ascending id order, and
/// `item_cell[v]` is the inverse map. Centroids are the exact per-cell
/// means of the indexed embeddings (accumulated serially in item order, so
/// the rounding schedule is fixed).
#[derive(Clone, Debug)]
pub struct IvfIndex {
    dim: usize,
    centroids: Matrix,
    cell_offsets: Vec<u32>,
    cell_items: Vec<u32>,
    item_cell: Vec<u32>,
}

impl IvfIndex {
    /// Builds the index for `engine`'s current item embeddings. Bitwise
    /// deterministic at any `CA_THREADS`: k-means is seeded from
    /// `cfg.seed`, and the only parallel stage (full-catalog
    /// nearest-centroid assignment) treats every point independently.
    pub fn build<E: EmbeddingEngine + Sync + ?Sized>(engine: &E, cfg: &IvfConfig) -> IvfIndex {
        let n = engine.catalog_len();
        let dim = engine.embedding_dim();
        assert!(n > 0, "cannot index an empty catalog");
        assert!(dim > 0, "cannot index zero-width embeddings");
        let nlist = cfg.nlist.max(1).min(n);

        let mut emb = Matrix::zeros(n, dim);
        for v in 0..n {
            engine.item_embedding_into(ItemId(v as u32), emb.row_mut(v));
        }

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (assignment, trained) = if n <= cfg.train_cap.max(nlist) {
            // Small catalog: balanced k-means over every item, exactly the
            // clustering the attack tree uses (cells sized within one).
            let rows: Vec<&[f32]> = (0..n).map(|v| emb.row(v)).collect();
            let assign = ca_cluster::balanced_kmeans(&rows, nlist, cfg.max_iters, &mut rng);
            (assign.into_iter().map(|c| c as u32).collect::<Vec<u32>>(), None)
        } else {
            // Large catalog: train centroids on a deterministic stride
            // sample, then assign the full catalog in parallel (each point
            // independent, so the chunk grid cannot change results).
            let m = cfg.train_cap.max(nlist);
            let sample: Vec<&[f32]> = (0..m).map(|i| emb.row(i * n / m)).collect();
            let res = ca_cluster::kmeans(&sample, nlist, cfg.max_iters, &mut rng);
            let rows: Vec<&[f32]> = res.centroids.iter().map(|c| c.as_slice()).collect();
            let trained = Matrix::from_rows(&rows);
            let chunks = ca_par::even_chunks(n, ca_par::threads());
            let assign: Vec<u32> = ca_par::map(&chunks, |_, r| {
                r.clone().map(|v| nearest(emb.row(v), &trained) as u32).collect::<Vec<u32>>()
            })
            .into_iter()
            .flatten()
            .collect();
            (assign, Some(trained))
        };

        // CSR posting lists: counts → prefix sums → fill in ascending item
        // order, so each cell's items come out id-sorted.
        let mut counts = vec![0u32; nlist];
        for &c in &assignment {
            counts[c as usize] += 1;
        }
        let mut cell_offsets = vec![0u32; nlist + 1];
        for c in 0..nlist {
            cell_offsets[c + 1] = cell_offsets[c] + counts[c];
        }
        let mut cursor: Vec<u32> = cell_offsets[..nlist].to_vec();
        let mut cell_items = vec![0u32; n];
        for (v, &c) in assignment.iter().enumerate() {
            cell_items[cursor[c as usize] as usize] = v as u32;
            cursor[c as usize] += 1;
        }

        // Probing centroids: the exact mean of each non-empty cell,
        // accumulated serially in ascending item order (fixed rounding
        // schedule). A sampled-path cell that attracted no catalog items
        // keeps its trained centroid; search skips empty cells anyway.
        let mut centroids = trained.unwrap_or_else(|| Matrix::zeros(nlist, dim));
        for c in 0..nlist {
            let (a, b) = (cell_offsets[c] as usize, cell_offsets[c + 1] as usize);
            if a == b {
                continue;
            }
            let row = centroids.row_mut(c);
            row.fill(0.0);
            for &v in &cell_items[a..b] {
                ops::axpy(1.0, emb.row(v as usize), row);
            }
            ops::scale(row, 1.0 / (b - a) as f32);
        }

        IvfIndex { dim, centroids, cell_offsets, cell_items, item_cell: assignment }
    }

    /// Embedding width the index was built over.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of cells (including empty ones).
    pub fn nlist(&self) -> usize {
        self.cell_offsets.len() - 1
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.cell_items.len()
    }

    /// Whether the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.cell_items.is_empty()
    }

    /// The cell `item` was assigned to.
    pub fn cell_of(&self, item: ItemId) -> usize {
        self.item_cell[item.0 as usize] as usize
    }

    /// Items of cell `c`, ascending.
    pub fn cell(&self, c: usize) -> &[u32] {
        &self.cell_items[self.cell_offsets[c] as usize..self.cell_offsets[c + 1] as usize]
    }

    /// The trained cell centroids (`nlist × dim`), e.g. for determinism
    /// assertions across thread counts.
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Ranks every non-empty cell by `dot(q, centroid)` into `cells` and
    /// keeps the best `nprobe` (same tie-break as item ranking: score
    /// descending, cell id ascending).
    fn rank_cells(&self, q: &[f32], nprobe: usize, cells: &mut Vec<(f32, u32)>) {
        cells.clear();
        for c in 0..self.nlist() {
            if self.cell_offsets[c] < self.cell_offsets[c + 1] {
                cells.push((ops::dot(q, self.centroids.row(c)), c as u32));
            }
        }
        select_top_k(cells, nprobe.max(1));
    }

    /// The cells `user`'s query would probe, best first — the ablation
    /// hook: cold-item experiments need to know how often the target
    /// item's cell is actually visited.
    pub fn probed_cells<E: EmbeddingEngine + ?Sized>(
        &self,
        engine: &E,
        user: UserId,
        nprobe: usize,
    ) -> Vec<u32> {
        ANN_SCRATCH.with(|s| {
            let (scratch, _) = &mut *s.borrow_mut();
            let mut q = scratch.take(self.dim);
            engine.query_embedding_into(user, &mut q);
            let mut cells = scratch.take_pairs();
            self.rank_cells(&q, nprobe, &mut cells);
            let out = cells.iter().map(|&(_, c)| c).collect();
            scratch.put(q);
            scratch.put_pairs(cells);
            out
        })
    }

    /// Probed Top-k for one user with caller-provided buffers: rank cells,
    /// gather unseen candidates from the probed posting lists, exact-score
    /// them through `score_items`, rank through the shared
    /// [`select_top_k`] tie-break.
    pub fn top_k_with<E: EmbeddingEngine + ?Sized>(
        &self,
        engine: &E,
        user: UserId,
        k: usize,
        nprobe: usize,
        scratch: &mut Scratch,
        items: &mut Vec<ItemId>,
    ) -> Vec<ItemId> {
        let mut q = scratch.take(self.dim);
        engine.query_embedding_into(user, &mut q);
        let mut cand = scratch.take_pairs();
        self.rank_cells(&q, nprobe, &mut cand);

        items.clear();
        let seen = engine.seen(user);
        for &(_, cell) in cand.iter() {
            let c = cell as usize;
            let (a, b) = (self.cell_offsets[c] as usize, self.cell_offsets[c + 1] as usize);
            for &v in &self.cell_items[a..b] {
                if seen.binary_search(&ItemId(v)).is_err() {
                    items.push(ItemId(v));
                }
            }
        }

        let mut scores = scratch.take(items.len());
        engine.score_items(user, items, &mut scores);
        // The cell list is spent; reuse its buffer for item candidates.
        cand.clear();
        for (i, &v) in items.iter().enumerate() {
            cand.push((scores[i], v.0));
        }
        select_top_k(&mut cand, k);
        let out = cand.iter().map(|&(_, v)| ItemId(v)).collect();
        scratch.put(q);
        scratch.put(scores);
        scratch.put_pairs(cand);
        out
    }

    /// Probed Top-k over the calling thread's buffer pool.
    pub fn top_k<E: EmbeddingEngine + ?Sized>(
        &self,
        engine: &E,
        user: UserId,
        k: usize,
        nprobe: usize,
    ) -> Vec<ItemId> {
        ANN_SCRATCH.with(|s| {
            let (scratch, items) = &mut *s.borrow_mut();
            self.top_k_with(engine, user, k, nprobe, scratch, items)
        })
    }

    /// Batched probed Top-k. Users are independent queries, so the batch
    /// splits across the `ca_par` fixed chunk grid once it is large enough
    /// to pay for thread spawn — results are bitwise identical at any
    /// `CA_THREADS`, and element-for-element equal to the sequential loop.
    // ca-audit: allow(nested-vec) — k-sized per-query batch result, not dataset-scale state
    pub fn batch_top_k<E: EmbeddingEngine + Sync + ?Sized>(
        &self,
        engine: &E,
        users: &[UserId],
        k: usize,
        nprobe: usize,
    ) -> Vec<Vec<ItemId>> {
        let avg_cell = self.cell_items.len() / self.nlist().max(1);
        let est_cells = users.len().saturating_mul(avg_cell.saturating_mul(nprobe.max(1)));
        let threads = ca_par::threads().min(users.len());
        if users.len() < PAR_MIN_USERS || est_cells < PAR_MIN_CELLS || threads <= 1 {
            return users.iter().map(|&u| self.top_k(engine, u, k, nprobe)).collect();
        }
        let chunks: Vec<&[UserId]> =
            ca_par::even_chunks(users.len(), threads).into_iter().map(|r| &users[r]).collect();
        ca_par::map(&chunks, |_, chunk| {
            chunk.iter().map(|&u| self.top_k(engine, u, k, nprobe)).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// The retrieval dispatch every embedding-backed recommender routes
/// through: `Exact` (or a missing index) falls back to the exact engine's
/// [`batch_top_k`]; `Ivf` probes the index with the mode's `nprobe`.
// ca-audit: allow(nested-vec) — k-sized per-query batch result, not dataset-scale state
pub fn retrieve_batch_top_k<E: EmbeddingEngine + Sync + ?Sized>(
    engine: &E,
    index: Option<&IvfIndex>,
    users: &[UserId],
    k: usize,
    mode: RetrievalMode,
) -> Vec<Vec<ItemId>> {
    match (mode, index) {
        (RetrievalMode::Ivf { nprobe, .. }, Some(idx)) => idx.batch_top_k(engine, users, k, nprobe),
        _ => batch_top_k(engine, users, k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_recsys::{Dataset, DatasetBuilder, ScoringEngine};

    /// Deterministic toy embedding engine: `score(u, v) = dot(p_u, q_v)`
    /// with hash-derived embeddings; user `u` has seen `v ≡ u (mod 11)`.
    pub(crate) struct ToyEmb {
        pub users: Matrix,
        pub items: Matrix,
        seen: Dataset,
    }

    impl ToyEmb {
        pub fn new(n_users: usize, n_items: usize, dim: usize, seed: u64) -> Self {
            let gen = |r: usize, c: usize, salt: u64| {
                let h = ca_par::split_seed(seed ^ salt, (r * 131 + c) as u64);
                ((h % 2000) as f32 / 1000.0) - 1.0
            };
            let mut seen = DatasetBuilder::new(n_items);
            for u in 0..n_users as u32 {
                let run: Vec<ItemId> =
                    (0..n_items as u32).filter(|v| v % 11 == u % 11).map(ItemId).collect();
                seen.user(&run);
            }
            ToyEmb {
                users: Matrix::from_fn(n_users, dim, |r, c| gen(r, c, 0xA)),
                items: Matrix::from_fn(n_items, dim, |r, c| gen(r, c, 0xB)),
                seen: seen.build(),
            }
        }
    }

    impl ScoringEngine for ToyEmb {
        fn catalog_len(&self) -> usize {
            self.items.rows()
        }
        fn score_batch(&self, users: &[UserId], out: &mut Matrix) {
            for (i, &u) in users.iter().enumerate() {
                for v in 0..self.items.rows() {
                    out[(i, v)] = ops::dot(self.users.row(u.0 as usize), self.items.row(v));
                }
            }
        }
        fn seen(&self, user: UserId) -> &[ItemId] {
            self.seen.sorted_profile(user)
        }
    }

    impl EmbeddingEngine for ToyEmb {
        fn embedding_dim(&self) -> usize {
            self.items.cols()
        }
        fn item_embedding_into(&self, item: ItemId, out: &mut [f32]) {
            out.copy_from_slice(self.items.row(item.0 as usize));
        }
        fn query_embedding_into(&self, user: UserId, out: &mut [f32]) {
            out.copy_from_slice(self.users.row(user.0 as usize));
        }
        fn score_items(&self, user: UserId, items: &[ItemId], out: &mut [f32]) {
            for (o, &v) in out.iter_mut().zip(items) {
                *o = ops::dot(self.users.row(user.0 as usize), self.items.row(v.0 as usize));
            }
        }
    }

    fn toy_index(engine: &ToyEmb, nlist: usize) -> IvfIndex {
        IvfIndex::build(engine, &IvfConfig::new(nlist, 1))
    }

    #[test]
    fn csr_layout_is_a_partition_with_sorted_cells() {
        let engine = ToyEmb::new(4, 500, 8, 7);
        let idx = toy_index(&engine, 16);
        assert_eq!(idx.len(), 500);
        assert_eq!(idx.nlist(), 16);
        let mut seen = vec![false; 500];
        for c in 0..idx.nlist() {
            let cell = idx.cell(c);
            assert!(cell.windows(2).all(|w| w[0] < w[1]), "cell {c} not sorted");
            for &v in cell {
                assert!(!seen[v as usize], "item {v} in two cells");
                seen[v as usize] = true;
                assert_eq!(idx.cell_of(ItemId(v)), c);
            }
        }
        assert!(seen.iter().all(|&s| s), "every item must land in exactly one cell");
    }

    #[test]
    fn balanced_build_has_cells_within_one() {
        let engine = ToyEmb::new(4, 160, 8, 3);
        let idx = toy_index(&engine, 10); // 160 ≤ train_cap → balanced path
        for c in 0..idx.nlist() {
            assert_eq!(idx.cell(c).len(), 16, "balanced cells must be even");
        }
    }

    #[test]
    fn sampled_build_partitions_large_catalogs() {
        let mut cfg = IvfConfig::new(8, 2);
        cfg.train_cap = 64; // force the sampled path on a 300-item catalog
        let engine = ToyEmb::new(4, 300, 8, 5);
        let idx = IvfIndex::build(&engine, &cfg);
        assert_eq!(idx.len(), 300);
        assert_eq!((0..idx.nlist()).map(|c| idx.cell(c).len()).sum::<usize>(), 300);
    }

    #[test]
    fn full_probe_matches_the_exact_oracle_bitwise() {
        let engine = ToyEmb::new(13, 400, 8, 11);
        let idx = toy_index(&engine, 12);
        let users: Vec<UserId> = (0..13u32).map(UserId).collect();
        let exact = batch_top_k(&engine, &users, 20);
        // Probing every cell leaves pruning no room: identical output.
        assert_eq!(idx.batch_top_k(&engine, &users, 20, 12), exact);
        // And the dispatch helper agrees in both modes.
        let mode = RetrievalMode::Ivf { nlist: 12, nprobe: 12 };
        assert_eq!(retrieve_batch_top_k(&engine, Some(&idx), &users, 20, mode), exact);
        assert_eq!(
            retrieve_batch_top_k(&engine, Some(&idx), &users, 20, RetrievalMode::Exact),
            exact
        );
        assert_eq!(retrieve_batch_top_k(&engine, None, &users, 20, mode), exact);
    }

    #[test]
    fn probed_search_returns_k_unseen_items_from_probed_cells() {
        let engine = ToyEmb::new(6, 400, 8, 19);
        let idx = toy_index(&engine, 16);
        for u in 0..6u32 {
            let probed = idx.probed_cells(&engine, UserId(u), 4);
            assert_eq!(probed.len(), 4);
            let top = idx.top_k(&engine, UserId(u), 10, 4);
            assert_eq!(top.len(), 10);
            for &v in &top {
                assert!(!engine.seen(UserId(u)).contains(&v), "seen item {v:?} recommended");
                assert!(probed.contains(&(idx.cell_of(v) as u32)), "item outside probed cells");
            }
        }
    }

    #[test]
    fn build_and_search_are_thread_count_invariant() {
        let mut cfg = IvfConfig::new(8, 3);
        cfg.train_cap = 64; // sampled path exercises the parallel assign
        let engine = ToyEmb::new(24, 300, 8, 23);
        let users: Vec<UserId> = (0..24u32).map(UserId).collect();
        let baseline_idx = IvfIndex::build(&engine, &cfg);
        let baseline = baseline_idx.batch_top_k(&engine, &users, 10, cfg.nprobe);
        for threads in [1usize, 2, 4, 7] {
            ca_par::set_threads(Some(threads));
            let idx = IvfIndex::build(&engine, &cfg);
            assert_eq!(idx.item_cell, baseline_idx.item_cell, "assignment @ {threads} threads");
            assert_eq!(idx.centroids, baseline_idx.centroids, "centroids @ {threads} threads");
            assert_eq!(
                idx.batch_top_k(&engine, &users, 10, cfg.nprobe),
                baseline,
                "search @ {threads} threads"
            );
        }
        ca_par::set_threads(None);
    }

    #[test]
    fn nprobe_and_k_edge_cases() {
        let engine = ToyEmb::new(3, 120, 8, 29);
        let idx = toy_index(&engine, 6);
        // nprobe = 0 is clamped to one probed cell.
        assert!(!idx.top_k(&engine, UserId(0), 5, 0).is_empty());
        // nprobe beyond nlist probes everything.
        let all = idx.top_k(&engine, UserId(0), 5, 100);
        assert_eq!(all, idx.top_k(&engine, UserId(0), 5, 6));
        // k = 0 yields an empty list.
        assert!(idx.top_k(&engine, UserId(0), 0, 3).is_empty());
    }

    #[test]
    fn config_mode_roundtrip() {
        let cfg = IvfConfig::new(64, 4);
        assert_eq!(IvfConfig::from_mode(cfg.mode()), Some(cfg));
        assert_eq!(IvfConfig::from_mode(RetrievalMode::Exact), None);
    }
}
