//! Tape-free inference kernels.
//!
//! The same gather / scatter / broadcast primitives the autodiff
//! [`Tape`](crate::tape::Tape) records, as plain [`Matrix`] functions. The
//! online serving path (`kucnet-serve`) and offline evaluation score users
//! thousands of times per second with frozen parameters; going through the
//! tape there would allocate a node, a value slot, and a gradient slot per
//! op per request for gradients nobody reads. These kernels run the exact
//! same arithmetic with zero bookkeeping.
//!
//! The two `fused_*` kernels are the per-edge half of the node-level
//! forward (DESIGN.md §11): once the message and attention projections
//! have run over the node rows and the relation table, each edge only
//! gathers two precomputed rows, adds, scales and scatters.

use crate::matrix::Matrix;

/// Gathers rows of `m` into a new matrix: row `k` of the output is row
/// `indices[k]` of `m`.
///
/// # Panics
/// Panics if an index is out of range.
pub fn gather_rows(m: &Matrix, indices: &[u32]) -> Matrix {
    let cols = m.cols();
    let mut out = Matrix::zeros(indices.len(), cols);
    for (k, &i) in indices.iter().enumerate() {
        out.row_mut(k).copy_from_slice(m.row(i as usize));
    }
    out
}

/// Scatter-adds rows of `m` into an `out_rows x cols` zero matrix: row `k`
/// of `m` is added into output row `indices[k]`.
///
/// # Panics
/// Panics if an index is `>= out_rows`.
pub fn scatter_add_rows(m: &Matrix, indices: &[u32], out_rows: usize) -> Matrix {
    let cols = m.cols();
    let mut out = Matrix::zeros(out_rows, cols);
    for (k, &i) in indices.iter().enumerate() {
        let dst = out.row_mut(i as usize);
        for (d, &s) in dst.iter_mut().zip(m.row(k)) {
            *d += s;
        }
    }
    out
}

/// Adds the single-row matrix `row` to every row of `m`.
///
/// # Panics
/// Panics if `row` is not `1 x m.cols()`.
pub fn add_row_broadcast(m: &Matrix, row: &Matrix) -> Matrix {
    assert_eq!(row.rows(), 1, "add_row_broadcast needs a 1-row rhs");
    assert_eq!(row.cols(), m.cols(), "add_row_broadcast width mismatch");
    let mut out = m.clone();
    for r in 0..out.rows() {
        for (d, &s) in out.row_mut(r).iter_mut().zip(row.row(0)) {
            *d += s;
        }
    }
    out
}

/// Multiplies every row `r` of `m` by the scalar `col.get(r, 0)`.
///
/// # Panics
/// Panics if `col` is not `m.rows() x 1`.
pub fn mul_col_broadcast(m: &Matrix, col: &Matrix) -> Matrix {
    assert_eq!(col.cols(), 1, "mul_col_broadcast needs a 1-col rhs");
    assert_eq!(col.rows(), m.rows(), "mul_col_broadcast height mismatch");
    let mut out = m.clone();
    for r in 0..out.rows() {
        let s = col.get(r, 0);
        for d in out.row_mut(r) {
            *d *= s;
        }
    }
    out
}

/// Multiplies every row `r` of `m` in place by `scale[r]`. The in-place
/// update computes the same per-element product as
/// [`mul_col_broadcast`], without the clone.
///
/// # Panics
/// Panics if `scale.len() != m.rows()`.
pub fn scale_rows_in_place(m: &mut Matrix, scale: &[f32]) {
    assert_eq!(scale.len(), m.rows(), "scale_rows_in_place height mismatch");
    for (r, &s) in scale.iter().enumerate() {
        for d in m.row_mut(r) {
            *d *= s;
        }
    }
}

/// Fused per-edge attention score over **precomputed** projections: edge `k`
/// reads row `src[k]` of `node_attn` (`n×da`) and row `ri[k]` of `rel_attn`
/// (`R×da`) and writes
/// `sigmoid(Σ_j relu(node + rel + bias) * w_a)` into `out[k]` (every element
/// overwritten). Bitwise identical to the tape's `gather_rows` ×2 →
/// `attn_edge_score`, in one streaming pass with no `E×da` intermediates.
///
/// # Panics
/// Panics on shape or index-count mismatches.
pub fn fused_gather_attn_scores_into(
    node_attn: &Matrix,
    src: &[u32],
    rel_attn: &Matrix,
    ri: &[u32],
    bias: &Matrix,
    w_a: &Matrix,
    out: &mut Matrix,
) {
    let da = node_attn.cols();
    assert_eq!(rel_attn.cols(), da, "fused_gather_attn_scores_into width mismatch");
    assert_eq!(src.len(), ri.len(), "fused_gather_attn_scores_into index-count mismatch");
    assert_eq!(bias.shape(), (1, da), "fused_gather_attn_scores_into bias shape mismatch");
    assert_eq!(w_a.shape(), (da, 1), "fused_gather_attn_scores_into w_a shape mismatch");
    assert_eq!(out.shape(), (src.len(), 1), "fused_gather_attn_scores_into output shape mismatch");
    let bias_row = bias.row(0);
    let wv = w_a.data();
    for (k, (&s, &r)) in src.iter().zip(ri).enumerate() {
        let (rs, rr) = (node_attn.row(s as usize), rel_attn.row(r as usize));
        let mut z = 0.0f32;
        for j in 0..da {
            let pre = (rs[j] + rr[j]) + bias_row[j];
            z += pre.max(0.0) * wv[j];
        }
        out.data_mut()[k] = crate::tape::stable_sigmoid(z);
    }
}

/// Fused gather + add + scale + scatter over **precomputed** per-node and
/// per-relation messages: edge `k` adds
/// `scale[k] * (a.row(ia[k]) + b.row(ib[k]))` into `out.row(dst[k])`
/// (`scale = None` means a unit scale, which is exact: `1.0 · x = x`). The
/// caller owns — and has already initialized, typically to zero — the
/// accumulator. Bitwise identical to the tape's `gather_pair_add` →
/// `scale_mask_scatter_add` without a mask, in one streaming pass with no
/// `E×d` intermediates.
///
/// # Panics
/// Panics on shape or index-bound mismatches.
pub fn fused_gather_add_scale_scatter_into(
    a: &Matrix,
    ia: &[u32],
    b: &Matrix,
    ib: &[u32],
    scale: Option<&Matrix>,
    dst: &[u32],
    out: &mut Matrix,
) {
    let d = a.cols();
    let e = ia.len();
    assert_eq!(b.cols(), d, "fused_gather_add_scale_scatter_into width mismatch");
    assert_eq!(out.cols(), d, "fused_gather_add_scale_scatter_into accumulator width mismatch");
    assert_eq!(ib.len(), e, "fused_gather_add_scale_scatter_into index-count mismatch");
    assert_eq!(dst.len(), e, "one destination per edge required");
    if let Some(s) = scale {
        assert_eq!(s.shape(), (e, 1), "fused_gather_add_scale_scatter_into scale shape mismatch");
    }
    for k in 0..e {
        let sv = scale.map_or(1.0, |s| s.get(k, 0));
        let (ra, rb) = (a.row(ia[k] as usize), b.row(ib[k] as usize));
        let acc = out.row_mut(dst[k] as usize);
        for ((o, &x), &y) in acc.iter_mut().zip(ra).zip(rb) {
            *o += sv * (x + y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    fn sample() -> Matrix {
        Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 1.0)
    }

    #[test]
    fn gather_matches_tape_op() {
        let m = sample();
        let idx = [2u32, 0, 2, 3];
        let tape = Tape::new();
        let v = tape.gather_rows(tape.constant(m.clone()), &idx);
        assert_eq!(gather_rows(&m, &idx), tape.value(v));
    }

    #[test]
    fn scatter_matches_tape_op() {
        let m = sample();
        let idx = [1u32, 0, 1, 4];
        let tape = Tape::new();
        let v = tape.scatter_add_rows(tape.constant(m.clone()), &idx, 5);
        assert_eq!(scatter_add_rows(&m, &idx, 5), tape.value(v));
    }

    #[test]
    fn row_broadcast_matches_tape_op() {
        let m = sample();
        let row = Matrix::row_vector(&[0.25, -0.5, 2.0]);
        let tape = Tape::new();
        let v = tape.add_row_broadcast(tape.constant(m.clone()), tape.constant(row.clone()));
        assert_eq!(add_row_broadcast(&m, &row), tape.value(v));
    }

    #[test]
    fn col_broadcast_matches_tape_op() {
        let m = sample();
        let col = Matrix::col_vector(&[1.0, 0.0, -2.0, 0.5]);
        let tape = Tape::new();
        let v = tape.mul_col_broadcast(tape.constant(m.clone()), tape.constant(col.clone()));
        assert_eq!(mul_col_broadcast(&m, &col), tape.value(v));
    }

    #[test]
    fn empty_gather_is_empty() {
        let m = sample();
        let g = gather_rows(&m, &[]);
        assert_eq!(g.shape(), (0, 3));
    }

    #[test]
    fn scale_rows_in_place_matches_broadcast() {
        let m = sample();
        let scale = [1.0f32, 0.0, -2.0, 0.5];
        let mut out = m.clone();
        scale_rows_in_place(&mut out, &scale);
        assert_eq!(out, mul_col_broadcast(&m, &Matrix::col_vector(&scale)));
    }
}
