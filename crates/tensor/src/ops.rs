//! Slice-level vector operations shared across the workspace.
//!
//! These operate on plain `&[f32]` / `&mut [f32]` so callers (embedding
//! tables, RNN states, policy logits) never have to copy into a wrapper type.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// `y += alpha * x` (BLAS axpy).
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// `y *= alpha` in place.
#[inline]
pub fn scale(y: &mut [f32], alpha: f32) {
    for yi in y.iter_mut() {
        *yi *= alpha;
    }
}

/// Euclidean (L2) norm.
#[inline]
pub fn l2_norm(x: &[f32]) -> f32 {
    dot(x, x).sqrt()
}

/// Squared Euclidean distance between two points.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sq_dist length mismatch");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Cosine similarity; returns 0 when either vector is all-zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// Index of the maximum element (first one on ties).
///
/// # Panics
/// Panics on an empty slice.
pub fn argmax(x: &[f32]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > x[best] {
            best = i;
        }
    }
    best
}

/// Numerically stable softmax, written into `out`.
pub fn softmax_into(logits: &[f32], out: &mut [f32]) {
    assert_eq!(logits.len(), out.len(), "softmax length mismatch");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for (o, &l) in out.iter_mut().zip(logits.iter()) {
        let e = (l - max).exp();
        *o = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// Numerically stable softmax returning a fresh vector.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; logits.len()];
    softmax_into(logits, &mut out);
    out
}

/// Softmax restricted to positions where `mask[i]` is `true`; masked
/// positions receive probability exactly 0.
///
/// This implements the paper's masking mechanism (§4.3.2): children of a
/// clustering-tree node whose subtrees contain no profile with the target
/// item must never be sampled.
///
/// # Panics
/// Panics if every position is masked (the paper guarantees the target item
/// exists in the source domain, so a fully masked node is a caller bug).
pub fn masked_softmax(logits: &[f32], mask: &[bool]) -> Vec<f32> {
    assert_eq!(logits.len(), mask.len(), "mask length mismatch");
    assert!(mask.iter().any(|&m| m), "masked_softmax: all positions masked");
    let max = logits
        .iter()
        .zip(mask.iter())
        .filter(|(_, &m)| m)
        .map(|(&l, _)| l)
        .fold(f32::NEG_INFINITY, f32::max);
    let mut out = vec![0.0; logits.len()];
    let mut sum = 0.0;
    for i in 0..logits.len() {
        if mask[i] {
            let e = (logits[i] - max).exp();
            out[i] = e;
            sum += e;
        }
    }
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o *= inv;
    }
    out
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        // Avoids overflow of exp(-x) for very negative x.
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Mean of a slice (0 for an empty slice).
pub fn mean(x: &[f32]) -> f32 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f32>() / x.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known_value() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_orders_correctly() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let p = softmax(&[1000.0, -1000.0]);
        assert!((p[0] - 1.0).abs() < 1e-6);
        assert_eq!(p[1], 0.0);
    }

    #[test]
    fn masked_softmax_zeroes_masked_positions() {
        let p = masked_softmax(&[5.0, 1.0, 1.0], &[false, true, true]);
        assert_eq!(p[0], 0.0);
        assert!((p[1] - 0.5).abs() < 1e-6);
        assert!((p[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "all positions masked")]
    fn masked_softmax_rejects_full_mask() {
        let _ = masked_softmax(&[1.0, 2.0], &[false, false]);
    }

    #[test]
    fn sigmoid_is_symmetric_and_bounded() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-7);
        assert!((cosine(&[1.0, 1.0], &[2.0, 2.0]) - 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn sq_dist_known_value() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
