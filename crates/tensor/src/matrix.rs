//! Row-major dense matrix.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Column-tile width (rows of `other`) for the blocked `A·Bᵀ` kernel: the
/// packed transposed tile (`cols · COL_TILE` floats) stays L2-resident
/// while every row of `self` sweeps it.
const COL_TILE: usize = 512;

thread_local! {
    /// Reused packing buffer for [`Matrix::matmul_nt_into`], so steady-state
    /// batched scoring does not allocate.
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// A dense, row-major `rows × cols` matrix of `f32`.
///
/// This is deliberately a thin wrapper over `Vec<f32>`: the models in this
/// repository are small, and direct slice access (`row`, `row_mut`,
/// `as_slice`) keeps hot loops allocation-free and auto-vectorizable.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Packs equal-length row slices into one contiguous row-major buffer.
    ///
    /// The k-means steps flatten their `&[&[f32]]` point set
    /// through this once, then sweep cache-friendly [`Matrix::row_chunks`]
    /// views instead of chasing per-row pointers.
    ///
    /// # Panics
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows width mismatch");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole buffer in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the whole buffer in row-major order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Contiguous view of rows `r0..r1` (row-major, `(r1 - r0) * cols`
    /// floats).
    ///
    /// # Panics
    /// Panics if `r0 > r1` or `r1 > rows`.
    #[inline]
    pub fn row_range(&self, r0: usize, r1: usize) -> &[f32] {
        assert!(r0 <= r1 && r1 <= self.rows, "row_range {r0}..{r1} out of {} rows", self.rows);
        &self.data[r0 * self.cols..r1 * self.cols]
    }

    /// Row-aligned chunked views: contiguous blocks of up to `rows_per_chunk`
    /// whole rows, in row order. k-means sums its points over this grid,
    /// which depends only on the matrix shape.
    ///
    /// # Panics
    /// Panics if `rows_per_chunk == 0`.
    pub fn row_chunks(&self, rows_per_chunk: usize) -> impl Iterator<Item = &[f32]> {
        assert!(rows_per_chunk > 0, "row_chunks needs a positive chunk height");
        self.data.chunks(rows_per_chunk * self.cols.max(1))
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// `y = self * x` for a column vector `x` (len = cols); returns len-rows vector.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = self * x` written into a caller-provided buffer (no allocation).
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output mismatch");
        for (r, out) in y.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *out = acc;
        }
    }

    /// `y = selfᵀ * x` for a column vector `x` (len = rows); returns len-cols vector.
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0; self.cols];
        self.matvec_t_into(x, &mut y);
        y
    }

    /// `y = selfᵀ * x` written into a caller-provided buffer (no
    /// allocation); whatever `y` held before is overwritten.
    pub fn matvec_t_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        assert_eq!(y.len(), self.cols, "matvec_t output mismatch");
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (yc, a) in y.iter_mut().zip(self.row(r).iter()) {
                *yc += a * xr;
            }
        }
    }

    /// Dense matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `out = self * other`, written into a caller-provided matrix so hot
    /// loops can reuse one allocation (see [`crate::Scratch`]).
    ///
    /// # Panics
    /// Panics on any dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        assert_eq!(out.rows, self.rows, "matmul output row mismatch");
        assert_eq!(out.cols, other.cols, "matmul output col mismatch");
        out.fill_zero();
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(r);
                for (o, b) in out_row.iter_mut().zip(orow.iter()) {
                    *o += a * b;
                }
            }
        }
    }

    /// `out = self * otherᵀ` — both operands row-major with a shared inner
    /// dimension (`self` is `m × d`, `other` is `n × d`, `out` is `m × n`).
    ///
    /// This is the GEMM shape of batched scoring: a block of user vectors
    /// against an item-representation table. The kernel walks `other` in
    /// column tiles of `COL_TILE` rows: each tile is packed transposed
    /// into a thread-local buffer (contiguous per inner index `k`), and the
    /// accumulation runs `k`-outer as an axpy over the tile — a contiguous
    /// `f32` sweep LLVM auto-vectorizes. Every `out` cell still accumulates
    /// `a[k]·b[k]` in ascending-`k` order from `0.0` with separately rounded
    /// multiply and add, i.e. the exact operation sequence of [`crate::ops::dot`],
    /// so batched scores are bitwise identical to the per-row path.
    ///
    /// # Panics
    /// Panics on any dimension mismatch.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_nt inner dimension mismatch");
        assert_eq!(out.rows, self.rows, "matmul_nt output row mismatch");
        assert_eq!(out.cols, other.rows, "matmul_nt output col mismatch");
        let n = other.rows;
        let d = self.cols;
        PACK_BUF.with(|cell| {
            let mut pack = cell.borrow_mut();
            pack.clear();
            pack.resize(d * COL_TILE.min(n.max(1)), 0.0);
            for jt in (0..n).step_by(COL_TILE) {
                let jw = COL_TILE.min(n - jt);
                // Pack the tile transposed: pack[k * jw + jj] = other[jt + jj, k].
                for k in 0..d {
                    let dst = &mut pack[k * jw..(k + 1) * jw];
                    for (jj, slot) in dst.iter_mut().enumerate() {
                        *slot = other.row(jt + jj)[k];
                    }
                }
                for i in 0..self.rows {
                    let a = &self.row(i)[..d];
                    let seg = &mut out.row_mut(i)[jt..jt + jw];
                    seg.fill(0.0);
                    for (k, &ak) in a.iter().enumerate() {
                        let brow = &pack[k * jw..(k + 1) * jw];
                        for (o, &b) in seg.iter_mut().zip(brow) {
                            *o += ak * b;
                        }
                    }
                }
            }
        });
    }

    /// Allocating convenience for [`Matrix::matmul_nt_into`].
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// `self += alpha * other`, element-wise.
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Rank-1 update `self += alpha * u vᵀ` (u len = rows, v len = cols).
    ///
    /// This is the workhorse of every hand-written backward pass: the weight
    /// gradient of a linear layer is `grad_out ⊗ input`.
    pub fn add_outer(&mut self, u: &[f32], v: &[f32], alpha: f32) {
        assert_eq!(u.len(), self.rows, "outer product row mismatch");
        assert_eq!(v.len(), self.cols, "outer product col mismatch");
        for (r, &ur) in u.iter().enumerate() {
            let s = alpha * ur;
            if s == 0.0 {
                continue;
            }
            for (a, &vc) in self.row_mut(r).iter_mut().zip(v.iter()) {
                *a += s * vc;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Appends a row (used by transductive models onboarding new users).
    ///
    /// # Panics
    /// Panics if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "push_row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Consumes the matrix, returning its row-major buffer (so scratch pools
    /// can recycle the allocation).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.row(r)[..self.cols.min(8)])?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_fills_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = m.matvec(&[1.0, 0.5, -1.0]);
        assert_eq!(y, vec![1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
    }

    #[test]
    fn matvec_t_is_transpose_matvec() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = [2.0, -1.0];
        let lhs = m.matvec_t(&x);
        let rhs = m.transpose().matvec(&x);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let id = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(m.matmul(&id), m);
        assert_eq!(id.matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_twice_roundtrips() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_outer_matches_explicit_outer_product() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0, 5.0], 0.5);
        assert_eq!(m.as_slice(), &[1.5, 2.0, 2.5, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        a.add_scaled(&b, 0.1);
        assert_eq!(a.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn frobenius_norm_of_unit_axis() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn push_row_grows_the_matrix() {
        let mut m = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_row_rejects_wrong_width() {
        let mut m = Matrix::zeros(1, 3);
        m.push_row(&[1.0]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        // 37 rows forces a partial final tile (37 = 2·16 + 5).
        let a = Matrix::from_fn(37, 7, |r, c| ((r * 13 + c * 5) % 11) as f32 - 5.0);
        let b = Matrix::from_fn(23, 7, |r, c| ((r * 3 + c) % 9) as f32 * 0.5 - 2.0);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast.rows(), 37);
        assert_eq!(fast.cols(), 23);
        for r in 0..37 {
            for c in 0..23 {
                assert!((fast[(r, c)] - slow[(r, c)]).abs() < 1e-4, "({r},{c})");
            }
        }
    }

    #[test]
    fn matmul_nt_is_bitwise_dot_of_rows() {
        let a = Matrix::from_fn(5, 9, |r, c| (r as f32 + 1.0) * 0.37 - c as f32 * 0.11);
        let b = Matrix::from_fn(4, 9, |r, c| (c as f32 - r as f32) * 0.29);
        let out = a.matmul_nt(&b);
        for r in 0..5 {
            for c in 0..4 {
                assert_eq!(out[(r, c)], crate::ops::dot(a.row(r), b.row(c)), "({r},{c})");
            }
        }
    }

    #[test]
    fn matmul_into_overwrites_stale_output() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut out = Matrix::from_vec(2, 2, vec![9.0; 4]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn into_vec_roundtrips_the_buffer() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_rows_packs_row_major() {
        let rows: Vec<Vec<f32>> = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let m = Matrix::from_rows(&refs);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn row_chunks_cover_the_matrix_in_order() {
        let m = Matrix::from_fn(7, 3, |r, c| (r * 3 + c) as f32);
        let chunks: Vec<&[f32]> = m.row_chunks(2).collect();
        assert_eq!(chunks.len(), 4); // 2 + 2 + 2 + 1 rows
        assert_eq!(chunks[0], m.row_range(0, 2));
        assert_eq!(chunks[3], m.row_range(6, 7));
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 21);
    }

    #[test]
    fn matvec_into_reuses_buffer() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let mut y = vec![9.0, 9.0];
        m.matvec_into(&[5.0, 6.0], &mut y);
        assert_eq!(y, vec![5.0, 6.0]);
    }
}
