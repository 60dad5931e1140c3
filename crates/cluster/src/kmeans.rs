//! Lloyd's k-means \[17\] with k-means++ seeding.
//!
//! Plain serial code. The clustering tree runs k-means once per internal
//! node, and each target item builds its own tree inside the pipeline's
//! per-target `ca-par` fan-out, so that fan-out already keeps the cores
//! busy; a second one in here would only nest inside it.

use ca_tensor::ops::sq_dist;
use ca_tensor::Matrix;
use rand::Rng;

/// Rows per partial sum in the update and inertia sweeps. Each chunk sums
/// from zero and the partials combine in ascending chunk order. The grid
/// fixes the floating-point rounding of the centroids and the inertia: one
/// running sum over all points rounds differently, and the clustering
/// tree, its goldens (`tests/golden.rs`) and every CopyAttack curve are
/// pinned to these bits, so the grid stays although nothing here runs in
/// parallel.
const CHUNK_ROWS: usize = 256;

/// Result of a k-means run.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// Cluster centroids, `k × dim`.
    pub centroids: Vec<Vec<f32>>,
    /// Cluster index per input point.
    pub assignment: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f32,
}

/// Runs k-means over `points` (each of equal dimension).
///
/// Uses k-means++ seeding and at most `max_iters` Lloyd iterations,
/// stopping early when assignments stabilize. Empty clusters are re-seeded
/// on the farthest point from its centroid.
///
/// # Panics
/// Panics if `k == 0`, `points.is_empty()`, or `k > points.len()`.
pub fn kmeans(points: &[&[f32]], k: usize, max_iters: usize, rng: &mut impl Rng) -> KMeansResult {
    assert!(k > 0, "k must be positive");
    assert!(!points.is_empty(), "no points to cluster");
    assert!(k <= points.len(), "k = {k} exceeds {} points", points.len());
    let dim = points[0].len();
    let n = points.len();

    // One flat `n × dim` copy of the points: the hot sweeps below walk
    // contiguous rows instead of chasing `&[&[f32]]` pointers.
    let flat = Matrix::from_rows(points);

    // Flattened `k × dim` centroid buffer (same rationale: the assignment
    // step's inner loop reads all k centroids per point).
    let mut centroids: Vec<f32> = Vec::with_capacity(k * dim);
    for c in plus_plus_seed(points, k, rng) {
        centroids.extend_from_slice(&c);
    }
    let mut assignment = vec![usize::MAX; n];

    for _ in 0..max_iters {
        // Assignment step.
        let mut changed = false;
        for (a, p) in assignment.iter_mut().zip(flat.as_slice().chunks_exact(dim)) {
            let c = nearest(p, &centroids, dim);
            if *a != c {
                *a = c;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Update step: per-chunk partial sums, combined in chunk order.
        let (sums, counts) = flat
            .row_chunks(CHUNK_ROWS)
            .zip(assignment.chunks(CHUNK_ROWS))
            .map(|(rows, assigned)| {
                let mut sums = vec![0.0f32; k * dim];
                let mut counts = vec![0usize; k];
                for (p, &c) in rows.chunks_exact(dim).zip(assigned) {
                    for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(p) {
                        *s += x;
                    }
                    counts[c] += 1;
                }
                (sums, counts)
            })
            .reduce(|(mut sa, mut ca), (sb, cb)| {
                for (a, b) in sa.iter_mut().zip(&sb) {
                    *a += b;
                }
                for (a, b) in ca.iter_mut().zip(&cb) {
                    *a += b;
                }
                (sa, ca)
            })
            .expect("non-empty points");
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed the empty cluster on the point farthest from its
                // current centroid. `total_cmp` keeps this panic-free even
                // if degenerate inputs produce NaN distances.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = sq_dist(points[a], centroid(&centroids, assignment[a], dim));
                        let db = sq_dist(points[b], centroid(&centroids, assignment[b], dim));
                        da.total_cmp(&db)
                    })
                    .expect("non-empty points");
                centroids[c * dim..(c + 1) * dim].copy_from_slice(points[far]);
            } else {
                for (j, s) in sums[c * dim..(c + 1) * dim].iter().enumerate() {
                    centroids[c * dim + j] = s / counts[c] as f32;
                }
            }
        }
    }

    // Inertia: on the same chunk grid as the update step.
    let inertia = flat
        .row_chunks(CHUNK_ROWS)
        .zip(assignment.chunks(CHUNK_ROWS))
        .map(|(rows, assigned)| {
            rows.chunks_exact(dim)
                .zip(assigned)
                .fold(0.0f32, |acc, (p, &c)| acc + sq_dist(p, centroid(&centroids, c, dim)))
        })
        .reduce(|a, b| a + b)
        .expect("non-empty points");

    let centroids = centroids.chunks_exact(dim).map(<[f32]>::to_vec).collect();
    KMeansResult { centroids, assignment, inertia }
}

/// Row `c` of the flattened centroid buffer.
#[inline]
fn centroid(flat: &[f32], c: usize, dim: usize) -> &[f32] {
    &flat[c * dim..(c + 1) * dim]
}

/// k-means++ seeding: first centroid uniform, then each next centroid drawn
/// with probability proportional to squared distance from the nearest
/// already-chosen centroid.
fn plus_plus_seed(points: &[&[f32]], k: usize, rng: &mut impl Rng) -> Vec<Vec<f32>> {
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].to_vec());
    let mut d2: Vec<f32> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f32 = d2.iter().sum();
        // A NaN or infinite total (a NaN distance anywhere would otherwise
        // poison the cumulative scan below and silently pin the pick on the
        // last point) falls back to a uniform draw, as does an all-zero one.
        // Both branches consume exactly one random word, so the choice of
        // branch never desynchronizes the caller's stream.
        let next = if !total.is_finite() || total <= 0.0 {
            rng.gen_range(0..points.len())
        } else {
            let mut u = rng.gen::<f32>() * total;
            let mut pick = points.len() - 1;
            for (i, &w) in d2.iter().enumerate() {
                if u < w {
                    pick = i;
                    break;
                }
                u -= w;
            }
            pick
        };
        centroids.push(points[next].to_vec());
        let c = centroids.last().expect("just pushed");
        for (i, p) in points.iter().enumerate() {
            let d = sq_dist(p, c);
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

/// Index of the nearest centroid in a flattened `k × dim` buffer.
///
/// A single linear sweep over contiguous memory — the hot inner loop of the
/// assignment step, kept free of the per-centroid `Vec` pointer chase.
#[inline]
pub(crate) fn nearest(p: &[f32], centroids_flat: &[f32], dim: usize) -> usize {
    let mut best = 0;
    let mut best_d = f32::INFINITY;
    for (c, centroid) in centroids_flat.chunks_exact(dim).enumerate() {
        let d = sq_dist(p, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Three well-separated blobs of 20 points each.
    fn blobs() -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(1);
        let centers = [[0.0f32, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut pts = Vec::new();
        for c in &centers {
            for _ in 0..20 {
                pts.push(vec![
                    c[0] + ca_tensor::gaussian(&mut rng, 0.0, 0.5),
                    c[1] + ca_tensor::gaussian(&mut rng, 0.0, 0.5),
                ]);
            }
        }
        pts
    }

    #[test]
    fn recovers_separated_blobs() {
        let pts = blobs();
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let res = kmeans(&refs, 3, 50, &mut rng);
        // Points within the same blob must share a cluster.
        for blob in 0..3 {
            let first = res.assignment[blob * 20];
            for i in 0..20 {
                assert_eq!(res.assignment[blob * 20 + i], first, "blob {blob} split");
            }
        }
        // And different blobs must differ.
        assert_ne!(res.assignment[0], res.assignment[20]);
        assert_ne!(res.assignment[20], res.assignment[40]);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let pts = blobs();
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let i1 = kmeans(&refs, 1, 50, &mut rng).inertia;
        let i3 = kmeans(&refs, 3, 50, &mut rng).inertia;
        assert!(i3 < i1 * 0.2, "k=3 inertia {i3} vs k=1 {i1}");
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = [vec![0.0f32, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let res = kmeans(&refs, 3, 50, &mut rng);
        assert!(res.inertia < 1e-9);
    }

    #[test]
    fn handles_duplicate_points() {
        let pts = vec![vec![1.0f32, 1.0]; 10];
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let res = kmeans(&refs, 3, 20, &mut rng);
        assert_eq!(res.assignment.len(), 10);
        assert!(res.inertia < 1e-9);
    }

    #[test]
    fn survives_nan_coordinates_without_panicking() {
        // A NaN coordinate poisons every distance it touches; the re-seed
        // comparator and the seeding fallback must both stay total. (The
        // pre-`total_cmp` code panicked on "no NaN distances" here.)
        let mut pts: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32, 0.0]).collect();
        pts.push(vec![f32::NAN, 0.0]);
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let mut rng = StdRng::seed_from_u64(11);
        let res = kmeans(&refs, 3, 10, &mut rng);
        assert_eq!(res.assignment.len(), 9);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_k_larger_than_n() {
        let pts = [vec![0.0f32]];
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let _ = kmeans(&refs, 2, 10, &mut rng);
    }
}
