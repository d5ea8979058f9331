//! Dense row-major 2-D `f32` matrix.
//!
//! This is the storage type underneath the autodiff [`Tape`](crate::tape::Tape).
//! It is deliberately minimal: the models in this workspace only need dense
//! 2-D algebra (per-edge feature blocks, small weight matrices, score
//! columns), so a full n-d tensor type would be unnecessary complexity.

use std::fmt;

/// A dense row-major matrix of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// A single-column matrix from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Runs the register-blocked kernel (see [`Matrix::matmul_into`]). Every
    /// output element is the sum of its `a[i][k] * b[k][j]` terms in
    /// ascending `k` order — the same accumulation chain as the naive
    /// i-k-j triple loop — so results are bitwise identical to it. Unlike
    /// an earlier revision there is deliberately no `a == 0.0` skip: zero
    /// terms never change a running sum that starts at `+0.0`, but skipping
    /// them silently drops `0 × NaN/Inf`, hiding poisoned operands.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Writes `self * other` into `out` (every element is overwritten, so
    /// `out` may hold stale pooled data).
    ///
    /// The kernel accumulates 4x8 output blocks in unrolled register
    /// accumulators with `k` innermost in ascending order, so per-element
    /// float accumulation chains — and therefore the result bits — match
    /// the naive triple loop exactly.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or when `out` is not
    /// `self.rows x other.cols`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul output shape mismatch");
        matmul_kernel(&self.data, &other.data, &mut out.data, self.rows, self.cols, other.cols);
    }

    /// `self^T * other`, without materializing the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// Writes `self^T * other` into `out` (fully overwritten). Same
    /// blocked-kernel / bitwise-identity story as [`Matrix::matmul_into`]:
    /// each output element accumulates over `k` in ascending order.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: {}x{} ^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.cols, other.cols), "matmul_tn output shape mismatch");
        matmul_tn_kernel(&self.data, &other.data, &mut out.data, self.rows, self.cols, other.cols);
    }

    /// `self * other^T`, without materializing the transpose.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// Writes `self * other^T` into `out` (fully overwritten). Blocked over
    /// 4x4 output tiles (16 independent dot products per `k` step for ILP);
    /// each element's `k`-ascending accumulation chain matches the naive
    /// loop bitwise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * {}x{} ^T",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.rows), "matmul_nt output shape mismatch");
        matmul_nt_kernel(&self.data, &other.data, &mut out.data, self.rows, self.cols, other.rows);
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Elementwise combination of two equal-shaped matrices.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// `self += scale * other` in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign_scaled(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_assign_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared Frobenius norm.
    pub fn frobenius_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Dot product of two equal-shaped matrices viewed as flat vectors.
    pub fn dot(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "dot shape mismatch");
        self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).sum()
    }

    /// True when all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Consumes the matrix, returning its backing buffer (for pooling).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

/// Rows per register block in the blocked matmul kernels.
const MR: usize = 4;
/// Columns per register block in the blocked matmul kernels.
const NR: usize = 8;

/// Scalar fallback computing `out[i][j] = sum_k a[i][k] * b[k][j]` for the
/// rectangle `i0..i1 x j0..j1` (block-edge remainders). `k` ascends, so the
/// accumulation chain per element is identical to the blocked path.
fn matmul_edge(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (i0, i1): (usize, usize),
    (j0, j1): (usize, usize),
    kd: usize,
    n: usize,
) {
    for i in i0..i1 {
        let a_row = &a[i * kd..(i + 1) * kd];
        for j in j0..j1 {
            let mut acc = 0.0f32;
            for (k, &av) in a_row.iter().enumerate() {
                acc += av * b[k * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

/// Register-blocked `out = a * b` over row-major slices, `a` is `m x kd`,
/// `b` is `kd x n`. Each 4x8 output tile is held in unrolled accumulators
/// while `k` streams over contiguous rows of `b`; per-element accumulation
/// order (ascending `k`) is identical to the naive triple loop, so results
/// are bitwise-equal. Every element of `out` is overwritten.
fn matmul_kernel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, kd: usize, n: usize) {
    let mut i = 0;
    while i + MR <= m {
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[0.0f32; NR]; MR];
            for k in 0..kd {
                let b_row = &b[k * n + j..k * n + j + NR];
                for (ii, acc_row) in acc.iter_mut().enumerate() {
                    let av = a[(i + ii) * kd + k];
                    for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
            for (ii, acc_row) in acc.iter().enumerate() {
                out[(i + ii) * n + j..(i + ii) * n + j + NR].copy_from_slice(acc_row);
            }
            j += NR;
        }
        matmul_edge(a, b, out, (i, i + MR), (j, n), kd, n);
        i += MR;
    }
    matmul_edge(a, b, out, (i, m), (0, n), kd, n);
}

/// Scalar fallback for `matmul_tn_kernel` block edges:
/// `out[i][j] = sum_k a[k][i] * b[k][j]`, `k` ascending.
fn matmul_tn_edge(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (i0, i1): (usize, usize),
    (j0, j1): (usize, usize),
    kd: usize,
    m: usize,
    n: usize,
) {
    for i in i0..i1 {
        for j in j0..j1 {
            let mut acc = 0.0f32;
            for k in 0..kd {
                acc += a[k * m + i] * b[k * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

/// Register-blocked `out = a^T * b`, `a` is `kd x m`, `b` is `kd x n`. Both
/// inputs are read along contiguous rows while `k` streams; ascending-`k`
/// accumulation per output element keeps results bitwise-equal to the
/// naive loops. Every element of `out` is overwritten.
fn matmul_tn_kernel(a: &[f32], b: &[f32], out: &mut [f32], kd: usize, m: usize, n: usize) {
    let mut i = 0;
    while i + MR <= m {
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[0.0f32; NR]; MR];
            for k in 0..kd {
                let a_row = &a[k * m + i..k * m + i + MR];
                let b_row = &b[k * n + j..k * n + j + NR];
                for (acc_row, &av) in acc.iter_mut().zip(a_row) {
                    for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
            for (ii, acc_row) in acc.iter().enumerate() {
                out[(i + ii) * n + j..(i + ii) * n + j + NR].copy_from_slice(acc_row);
            }
            j += NR;
        }
        matmul_tn_edge(a, b, out, (i, i + MR), (j, n), kd, m, n);
        i += MR;
    }
    matmul_tn_edge(a, b, out, (i, m), (0, n), kd, m, n);
}

/// Scalar fallback for `matmul_nt_kernel` block edges:
/// `out[i][j] = sum_k a[i][k] * b[j][k]`, `k` ascending.
fn matmul_nt_edge(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (i0, i1): (usize, usize),
    (j0, j1): (usize, usize),
    kd: usize,
    n: usize,
) {
    for i in i0..i1 {
        let a_row = &a[i * kd..(i + 1) * kd];
        for j in j0..j1 {
            let b_row = &b[j * kd..(j + 1) * kd];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            out[i * n + j] = acc;
        }
    }
}

/// Blocked `out = a * b^T`, `a` is `m x kd`, `b` is `n x kd`. 4x4 output
/// tiles give 16 independent dot-product accumulators per `k` step (ILP);
/// ascending-`k` chains keep per-element results bitwise-equal to the
/// naive loops. Every element of `out` is overwritten.
fn matmul_nt_kernel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, kd: usize, n: usize) {
    const QR: usize = 4;
    let mut i = 0;
    while i + MR <= m {
        let mut j = 0;
        while j + QR <= n {
            let mut acc = [[0.0f32; QR]; MR];
            for k in 0..kd {
                let mut bv = [0.0f32; QR];
                for (o, slot) in bv.iter_mut().enumerate() {
                    *slot = b[(j + o) * kd + k];
                }
                for (ii, acc_row) in acc.iter_mut().enumerate() {
                    let av = a[(i + ii) * kd + k];
                    for (o, &bvk) in acc_row.iter_mut().zip(&bv) {
                        *o += av * bvk;
                    }
                }
            }
            for (ii, acc_row) in acc.iter().enumerate() {
                out[(i + ii) * n + j..(i + ii) * n + j + QR].copy_from_slice(acc_row);
            }
            j += QR;
        }
        matmul_nt_edge(a, b, out, (i, i + MR), (j, n), kd, n);
        i += MR;
    }
    matmul_nt_edge(a, b, out, (i, m), (0, n), kd, n);
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:+.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 5]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t.get(2, 1), m.get(1, 2));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        let id = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(m.matmul(&id), m);
        assert_eq!(id.matmul(&m), m);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * c + 1) as f32 * 0.5);
        let b = Matrix::from_fn(4, 2, |r, c| (r + 2 * c) as f32);
        let expect = a.transpose().matmul(&b);
        assert_eq!(a.matmul_tn(&b), expect);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let b = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.25);
        let expect = a.matmul(&b.transpose());
        assert_eq!(a.matmul_nt(&b), expect);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Matrix::from_vec(1, 3, vec![1., -2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![10., 20., 30.]);
        assert_eq!(a.map(|x| x * 2.0).data(), &[2., -4., 6.]);
        assert_eq!(a.zip_map(&b, |x, y| x + y).data(), &[11., 18., 33.]);
    }

    #[test]
    fn sum_dot_frobenius() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.frobenius_sq(), 30.0);
        assert_eq!(a.dot(&a), 30.0);
    }

    #[test]
    fn add_assign_scaled_works() {
        let mut a = Matrix::from_vec(1, 2, vec![1., 2.]);
        let b = Matrix::from_vec(1, 2, vec![10., 10.]);
        a.add_assign_scaled(&b, 0.5);
        assert_eq!(a.data(), &[6., 7.]);
    }

    /// Regression: an earlier matmul kernel skipped `a == 0.0` terms, which
    /// silently dropped `0 x NaN` products and let a poisoned operand pass
    /// through unnoticed. The skip is gone; NaN must propagate.
    #[test]
    fn matmul_propagates_nan_through_zero_terms() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::NAN, 1.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan(), "0 x NaN must poison the output");
        let inf = Matrix::from_vec(2, 1, vec![f32::INFINITY, 1.0]);
        assert!(a.matmul(&inf).get(0, 0).is_nan(), "0 x Inf must poison the output");
    }

    #[test]
    fn matmul_tn_propagates_nan_through_zero_terms() {
        let a = Matrix::from_vec(2, 1, vec![0.0, 0.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::NAN, 1.0]);
        assert!(a.matmul_tn(&b).get(0, 0).is_nan(), "0 x NaN must poison the output");
    }

    /// The reference naive i-j-k triple loops the blocked kernels must match
    /// bitwise (ascending-`k` accumulation per output element).
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn awkward_values(rows: usize, cols: usize, salt: u32) -> Matrix {
        // Deterministic values with varied magnitudes/signs so that any
        // reassociation of the accumulation order would change the bits.
        Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u32)
                .wrapping_mul(2654435761)
                .wrapping_add((c as u32).wrapping_mul(40503))
                .wrapping_add(salt.wrapping_mul(97));
            let mag = ((h >> 3) % 1000) as f32 / 7.0;
            let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
            let scale = 10f32.powi((h % 7) as i32 - 3);
            sign * mag * scale
        })
    }

    #[test]
    fn blocked_matmul_is_bitwise_identical_to_naive() {
        // Shapes straddling the 4x8 (and 4x4 for nt) block boundaries:
        // exact multiples, remainders in every dimension, degenerate sizes.
        let shapes = [
            (1, 1, 1),
            (4, 8, 8),
            (5, 3, 9),
            (7, 1, 1),
            (12, 16, 8),
            (13, 5, 11),
            (3, 2, 17),
            (9, 32, 4),
            (8, 7, 1),
        ];
        for (idx, &(m, kd, n)) in shapes.iter().enumerate() {
            let a = awkward_values(m, kd, idx as u32);
            let b = awkward_values(kd, n, idx as u32 + 100);
            let tiled = a.matmul(&b);
            let naive = naive_matmul(&a, &b);
            for (x, y) in tiled.data().iter().zip(naive.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "matmul {m}x{kd}*{kd}x{n}");
            }

            let at = awkward_values(kd, m, idx as u32 + 200);
            let tiled = at.matmul_tn(&b);
            let naive = naive_matmul(&at.transpose(), &b);
            for (x, y) in tiled.data().iter().zip(naive.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "matmul_tn {kd}x{m}^T*{kd}x{n}");
            }

            let bt = awkward_values(n, kd, idx as u32 + 300);
            let tiled = a.matmul_nt(&bt);
            let naive = naive_matmul(&a, &bt.transpose());
            for (x, y) in tiled.data().iter().zip(naive.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "matmul_nt {m}x{kd}*{n}x{kd}^T");
            }
        }
    }

    #[test]
    fn matmul_into_overwrites_stale_output() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]);
        let mut out = Matrix::full(2, 2, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }
}
