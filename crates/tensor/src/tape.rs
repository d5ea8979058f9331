//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation applied to [`Var`] handles during the
//! forward pass. [`Tape::backward`] then walks the tape in reverse and
//! accumulates gradients. The op set is exactly what relational GNN
//! recommenders need: dense matmul, per-edge `gather_rows` /
//! `scatter_add_rows`, broadcasts, elementwise nonlinearities, the softplus
//! used by the BPR loss, and fused edge-message ops
//! ([`Tape::gather_pair_add`], [`Tape::attn_edge_score`],
//! [`Tape::scale_mask_scatter_add`]) that collapse the hot per-layer op
//! chains into single passes with hand-written backwards.
//!
//! Vars are plain indices into the tape, so they are `Copy` and cheap to pass
//! around. Every tape owns a [`MatrixPool`]: node values, gradients, masks
//! and index lists are drawn from it, and [`Tape::reset`] returns them all,
//! so a tape reused across training steps (see [`TapeStash`]) allocates O(1)
//! fresh buffers after warm-up instead of O(ops) per step. Parameters are
//! re-bound with [`Tape::leaf`] / [`Tape::leaf_of`] each step and their
//! gradients read back with [`Tape::grad`].

use std::cell::RefCell;
use std::sync::Mutex;

use crate::matrix::Matrix;
use crate::pool::{MatrixPool, PoolStats};

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// Tape-local index of this variable.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Operation recorded for a tape node, including everything needed for the
/// backward pass (input var indices and saved forward data such as gather
/// indices or dropout masks).
enum Op {
    /// Leaf node (parameter or constant input). `requires_grad` controls
    /// whether a gradient buffer is accumulated for it.
    Leaf {
        requires_grad: bool,
    },
    Add(usize, usize),
    Sub(usize, usize),
    /// Elementwise (Hadamard) product.
    Mul(usize, usize),
    /// Elementwise division `a / b`.
    Div(usize, usize),
    /// `a + bias` where `bias` is `1 x cols`, broadcast over rows of `a`.
    AddRowBroadcast(usize, usize),
    /// Each row `k` of `a` scaled by `s[k, 0]` where `s` is `rows x 1`.
    MulColBroadcast(usize, usize),
    MatMul(usize, usize),
    Neg(usize),
    ScalarMul(usize, f32),
    Relu(usize),
    LeakyRelu(usize, f32),
    Tanh(usize),
    Sigmoid(usize),
    /// `ln(1 + e^x)`, computed stably.
    Softplus(usize),
    Exp(usize),
    /// `ln(x)`; caller must ensure positivity.
    Ln(usize),
    Square(usize),
    SumAll(usize),
    MeanAll(usize),
    /// Row-wise sum: `(r x c) -> (r x 1)`.
    SumRows(usize),
    /// `out[k, :] = a[idx[k], :]`.
    GatherRows(usize, Vec<u32>),
    /// `out[idx[k], :] += a[k, :]` into a zero matrix with `out_rows` rows.
    ScatterAddRows(usize, Vec<u32>, usize),
    /// Elementwise multiply by a constant 0/1 mask, scaled by `scale`
    /// (inverted dropout).
    Dropout(usize, Vec<f32>),
    /// Rows of `a` stacked on top of rows of `b`.
    ConcatRows(usize, usize),
    /// Fused `gather(a, ia) + gather(b, ib)`:
    /// `out[k, :] = a[ia[k], :] + b[ib[k], :]`.
    GatherPairAdd {
        a: usize,
        b: usize,
        ia: Vec<u32>,
        ib: Vec<u32>,
    },
    /// Fused attention edge score (Eq. 6):
    /// `out[e, 0] = sigmoid(relu((a_s[e,:] + a_r[e,:]) + bias) . w_a)`.
    /// The backward recomputes the pre-activation from the stored inputs, so
    /// no edge-sized intermediate is kept.
    AttnEdgeScore {
        a_s: usize,
        a_r: usize,
        bias: usize,
        w_a: usize,
    },
    /// Fused optional column-scale, optional mask multiply, scatter-add:
    /// `out[idx[k], :] += (a[k, :] * scale[k]) * mask[k, :]` into a zero
    /// matrix with `out_rows` rows (`scale` and `mask` each optional).
    ScaleMaskScatterAdd {
        a: usize,
        scale: Option<usize>,
        mask: Option<Vec<f32>>,
        indices: Vec<u32>,
        out_rows: usize,
    },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// Records a computation graph over [`Matrix`] values and runs reverse-mode
/// differentiation over it. Owns a [`MatrixPool`] that recycles every buffer
/// the tape touches across [`Tape::reset`] cycles.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    pool: RefCell<MatrixPool>,
}

impl Tape {
    /// Creates an empty tape with an empty buffer pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tape seeded with an existing (warm) buffer pool.
    pub fn with_pool(pool: MatrixPool) -> Self {
        Self { nodes: RefCell::new(Vec::new()), pool: RefCell::new(pool) }
    }

    /// Clears all recorded nodes, returning every value/gradient buffer,
    /// dropout mask, and index list to the tape's pool. After `reset` the
    /// tape is empty and ready to record a fresh graph; a steady-state
    /// record/backward/reset cycle allocates no fresh buffers.
    pub fn reset(&self) {
        let mut nodes = self.nodes.borrow_mut();
        let mut pool = self.pool.borrow_mut();
        for node in nodes.drain(..) {
            pool.release_matrix(node.value);
            if let Some(g) = node.grad {
                pool.release_matrix(g);
            }
            match node.op {
                Op::GatherRows(_, idx) | Op::ScatterAddRows(_, idx, _) => pool.release_idx(idx),
                Op::Dropout(_, mask) => pool.release(mask),
                Op::GatherPairAdd { ia, ib, .. } => {
                    pool.release_idx(ia);
                    pool.release_idx(ib);
                }
                Op::ScaleMaskScatterAdd { mask, indices, .. } => {
                    if let Some(m) = mask {
                        pool.release(m);
                    }
                    pool.release_idx(indices);
                }
                _ => {}
            }
        }
    }

    /// Allocation statistics of the tape's pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.borrow().stats()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    // ---- pooled allocation helpers ---------------------------------------

    /// Pooled matrix with undefined (stale) contents; caller must overwrite
    /// every element.
    fn palloc(&self, rows: usize, cols: usize) -> Matrix {
        self.pool.borrow_mut().matrix_raw(rows, cols)
    }

    /// Pooled matrix filled with zeros.
    fn palloc_zeroed(&self, rows: usize, cols: usize) -> Matrix {
        self.pool.borrow_mut().matrix_zeroed(rows, cols)
    }

    /// Pooled copy of `m`.
    fn pcopy(&self, m: &Matrix) -> Matrix {
        self.pool.borrow_mut().matrix_copy(m)
    }

    /// Returns a matrix's buffer to the pool.
    fn prelease(&self, m: Matrix) {
        self.pool.borrow_mut().release_matrix(m);
    }

    /// Pooled copy of an index list.
    fn pidx(&self, indices: &[u32]) -> Vec<u32> {
        self.pool.borrow_mut().acquire_idx_copy(indices)
    }

    /// Pooled elementwise map (every element overwritten).
    fn pmap(&self, src: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = self.palloc(src.rows(), src.cols());
        for (o, &x) in out.data_mut().iter_mut().zip(src.data()) {
            *o = f(x);
        }
        out
    }

    /// Pooled elementwise zip (every element overwritten).
    fn pzip(&self, a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        debug_assert_eq!(a.shape(), b.shape());
        let mut out = self.palloc(a.rows(), a.cols());
        for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
            *o = f(x, y);
        }
        out
    }

    /// Pooled matrix with every element set to `v`.
    fn pfull(&self, rows: usize, cols: usize, v: f32) -> Matrix {
        let mut out = self.palloc(rows, cols);
        out.data_mut().fill(v);
        out
    }

    /// Pooled scratch buffer of exactly `len` elements with stale contents;
    /// fill it and hand it to [`Tape::dropout`] or
    /// [`Tape::constant_from_buffer`], or return it with
    /// [`Tape::release_buffer`].
    pub fn scratch_buffer(&self, len: usize) -> Vec<f32> {
        self.pool.borrow_mut().acquire(len)
    }

    /// Returns a scratch buffer to the pool.
    pub fn release_buffer(&self, buf: Vec<f32>) {
        self.pool.borrow_mut().release(buf);
    }

    fn push(&self, value: Matrix, op: Op) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, grad: None, op });
        Var(nodes.len() - 1)
    }

    /// Registers a differentiable leaf (a model parameter).
    pub fn leaf(&self, value: Matrix) -> Var {
        self.push(value, Op::Leaf { requires_grad: true })
    }

    /// Registers a differentiable leaf as a pooled copy of `value` (avoids a
    /// fresh allocation per bind on a warm tape).
    pub fn leaf_of(&self, value: &Matrix) -> Var {
        let v = self.pcopy(value);
        self.push(v, Op::Leaf { requires_grad: true })
    }

    /// Registers a non-differentiable input (data).
    pub fn constant(&self, value: Matrix) -> Var {
        self.push(value, Op::Leaf { requires_grad: false })
    }

    /// Registers a non-differentiable input as a pooled copy of `value`.
    pub fn constant_of(&self, value: &Matrix) -> Var {
        let v = self.pcopy(value);
        self.push(v, Op::Leaf { requires_grad: false })
    }

    /// Registers a pooled all-zero constant of the given shape.
    pub fn zeros_constant(&self, rows: usize, cols: usize) -> Var {
        let v = self.palloc_zeroed(rows, cols);
        self.push(v, Op::Leaf { requires_grad: false })
    }

    /// Registers a constant from a pooled scratch buffer (see
    /// [`Tape::scratch_buffer`]); the buffer is released again on
    /// [`Tape::reset`].
    ///
    /// # Panics
    /// Panics if `buf.len() != rows * cols`.
    pub fn constant_from_buffer(&self, rows: usize, cols: usize, buf: Vec<f32>) -> Var {
        self.constant(Matrix::from_vec(rows, cols, buf))
    }

    /// Shape of the value held at `v`.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes.borrow()[v.0].value.shape()
    }

    /// Clones the forward value at `v`.
    pub fn value(&self, v: Var) -> Matrix {
        self.nodes.borrow()[v.0].value.clone()
    }

    /// Applies `f` to the forward value without cloning it.
    pub fn with_value<R>(&self, v: Var, f: impl FnOnce(&Matrix) -> R) -> R {
        f(&self.nodes.borrow()[v.0].value)
    }

    /// Clones the gradient accumulated at `v`, if any.
    pub fn grad(&self, v: Var) -> Option<Matrix> {
        self.nodes.borrow()[v.0].grad.clone()
    }

    // ---- forward ops ------------------------------------------------------

    /// Elementwise sum of two equal-shaped vars.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            assert_eq!(nodes[a.0].value.shape(), nodes[b.0].value.shape(), "add shape mismatch");
            self.pzip(&nodes[a.0].value, &nodes[b.0].value, |x, y| x + y)
        };
        self.push(value, Op::Add(a.0, b.0))
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            assert_eq!(nodes[a.0].value.shape(), nodes[b.0].value.shape(), "sub shape mismatch");
            self.pzip(&nodes[a.0].value, &nodes[b.0].value, |x, y| x - y)
        };
        self.push(value, Op::Sub(a.0, b.0))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            assert_eq!(nodes[a.0].value.shape(), nodes[b.0].value.shape(), "mul shape mismatch");
            self.pzip(&nodes[a.0].value, &nodes[b.0].value, |x, y| x * y)
        };
        self.push(value, Op::Mul(a.0, b.0))
    }

    /// Elementwise division `a / b`.
    pub fn div(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            assert_eq!(nodes[a.0].value.shape(), nodes[b.0].value.shape(), "div shape mismatch");
            self.pzip(&nodes[a.0].value, &nodes[b.0].value, |x, y| x / y)
        };
        self.push(value, Op::Div(a.0, b.0))
    }

    /// Adds a `1 x cols` bias row to every row of `a`.
    pub fn add_row_broadcast(&self, a: Var, bias: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let (ar, ac) = nodes[a.0].value.shape();
            let (br, bc) = nodes[bias.0].value.shape();
            assert_eq!((br, bc), (1, ac), "bias must be 1x{ac}, got {br}x{bc}");
            let bias_row = nodes[bias.0].value.row(0);
            let mut out = self.palloc(ar, ac);
            for r in 0..ar {
                let src = nodes[a.0].value.row(r);
                for ((o, &x), &b) in out.row_mut(r).iter_mut().zip(src).zip(bias_row) {
                    *o = x + b;
                }
            }
            out
        };
        self.push(value, Op::AddRowBroadcast(a.0, bias.0))
    }

    /// Scales row `k` of `a` by the scalar `s[k, 0]` (`s` is `rows x 1`).
    pub fn mul_col_broadcast(&self, a: Var, s: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let (ar, ac) = nodes[a.0].value.shape();
            let (sr, sc) = nodes[s.0].value.shape();
            assert_eq!((sr, sc), (ar, 1), "scale must be {ar}x1, got {sr}x{sc}");
            let mut out = self.palloc(ar, ac);
            for r in 0..ar {
                let w = nodes[s.0].value.get(r, 0);
                for (o, &x) in out.row_mut(r).iter_mut().zip(nodes[a.0].value.row(r)) {
                    *o = x * w;
                }
            }
            out
        };
        self.push(value, Op::MulColBroadcast(a.0, s.0))
    }

    /// Matrix product `a * b`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
            let mut out = self.palloc(ma.rows(), mb.cols());
            ma.matmul_into(mb, &mut out);
            out
        };
        self.push(value, Op::MatMul(a.0, b.0))
    }

    /// Elementwise negation.
    pub fn neg(&self, a: Var) -> Var {
        let value = self.pmap(&self.nodes.borrow()[a.0].value, |x| -x);
        self.push(value, Op::Neg(a.0))
    }

    /// Multiplies every element by a constant.
    pub fn scalar_mul(&self, a: Var, c: f32) -> Var {
        let value = self.pmap(&self.nodes.borrow()[a.0].value, |x| c * x);
        self.push(value, Op::ScalarMul(a.0, c))
    }

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        let value = self.pmap(&self.nodes.borrow()[a.0].value, |x| x.max(0.0));
        self.push(value, Op::Relu(a.0))
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, a: Var, alpha: f32) -> Var {
        let value =
            self.pmap(&self.nodes.borrow()[a.0].value, |x| if x > 0.0 { x } else { alpha * x });
        self.push(value, Op::LeakyRelu(a.0, alpha))
    }

    /// Hyperbolic tangent ([`crate::tanh`]).
    pub fn tanh(&self, a: Var) -> Var {
        let value = self.pmap(&self.nodes.borrow()[a.0].value, crate::tanh);
        self.push(value, Op::Tanh(a.0))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        let value = self.pmap(&self.nodes.borrow()[a.0].value, stable_sigmoid);
        self.push(value, Op::Sigmoid(a.0))
    }

    /// Numerically stable `ln(1 + e^x)`. Note `softplus(-x) = -ln(sigmoid(x))`,
    /// which is exactly the per-sample BPR loss term.
    pub fn softplus(&self, a: Var) -> Var {
        let value = self.pmap(&self.nodes.borrow()[a.0].value, stable_softplus);
        self.push(value, Op::Softplus(a.0))
    }

    /// Elementwise exponential.
    pub fn exp(&self, a: Var) -> Var {
        let value = self.pmap(&self.nodes.borrow()[a.0].value, f32::exp);
        self.push(value, Op::Exp(a.0))
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self, a: Var) -> Var {
        let value = self.pmap(&self.nodes.borrow()[a.0].value, f32::ln);
        self.push(value, Op::Ln(a.0))
    }

    /// Elementwise square.
    pub fn square(&self, a: Var) -> Var {
        let value = self.pmap(&self.nodes.borrow()[a.0].value, |x| x * x);
        self.push(value, Op::Square(a.0))
    }

    /// Sum of all elements, as a `1 x 1` matrix.
    pub fn sum_all(&self, a: Var) -> Var {
        let value = self.pfull(1, 1, self.nodes.borrow()[a.0].value.sum());
        self.push(value, Op::SumAll(a.0))
    }

    /// Mean of all elements, as a `1 x 1` matrix.
    pub fn mean_all(&self, a: Var) -> Var {
        let (s, n) = {
            let nodes = self.nodes.borrow();
            (nodes[a.0].value.sum(), nodes[a.0].value.len() as f32)
        };
        let value = self.pfull(1, 1, s / n);
        self.push(value, Op::MeanAll(a.0))
    }

    /// Row-wise sum producing an `rows x 1` column.
    pub fn sum_rows(&self, a: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let m = &nodes[a.0].value;
            let mut out = self.palloc(m.rows(), 1);
            for r in 0..m.rows() {
                out.data_mut()[r] = m.row(r).iter().sum();
            }
            out
        };
        self.push(value, Op::SumRows(a.0))
    }

    /// `out[k, :] = a[idx[k], :]`. Indices may repeat.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, a: Var, indices: &[u32]) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let m = &nodes[a.0].value;
            let rows = m.rows();
            let mut out = self.palloc(indices.len(), m.cols());
            for (k, &idx) in indices.iter().enumerate() {
                assert!((idx as usize) < rows, "gather index {idx} out of bounds for {rows} rows");
                out.row_mut(k).copy_from_slice(m.row(idx as usize));
            }
            out
        };
        let indices = self.pidx(indices);
        self.push(value, Op::GatherRows(a.0, indices))
    }

    /// `out[idx[k], :] += a[k, :]` into a fresh zero matrix with `out_rows`
    /// rows. Indices may repeat (rows accumulate).
    ///
    /// # Panics
    /// Panics if `indices.len() != a.rows()` or any index is out of bounds.
    pub fn scatter_add_rows(&self, a: Var, indices: &[u32], out_rows: usize) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let m = &nodes[a.0].value;
            assert_eq!(indices.len(), m.rows(), "one index per input row required");
            let mut out = self.palloc_zeroed(out_rows, m.cols());
            for (k, &idx) in indices.iter().enumerate() {
                assert!(
                    (idx as usize) < out_rows,
                    "scatter index {idx} out of bounds for {out_rows} rows"
                );
                let src = m.row(k);
                for (o, &v) in out.row_mut(idx as usize).iter_mut().zip(src) {
                    *o += v;
                }
            }
            out
        };
        let indices = self.pidx(indices);
        self.push(value, Op::ScatterAddRows(a.0, indices, out_rows))
    }

    /// Inverted dropout: zeroes each element with probability `p` and scales
    /// survivors by `1/(1-p)`. The mask is drawn from `mask_bits` produced by
    /// the caller (so the tape itself stays deterministic and seedable).
    pub fn dropout(&self, a: Var, keep_mask: Vec<f32>) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let m = &nodes[a.0].value;
            assert_eq!(keep_mask.len(), m.len(), "mask length mismatch");
            let mut out = self.palloc(m.rows(), m.cols());
            for ((o, &x), &k) in out.data_mut().iter_mut().zip(m.data()).zip(&keep_mask) {
                *o = x * k;
            }
            out
        };
        self.push(value, Op::Dropout(a.0, keep_mask))
    }

    /// Stacks the rows of `a` above the rows of `b` (column counts must match).
    pub fn concat_rows(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
            assert_eq!(ma.cols(), mb.cols(), "concat_rows column mismatch");
            let mut out = self.palloc(ma.rows() + mb.rows(), ma.cols());
            out.data_mut()[..ma.len()].copy_from_slice(ma.data());
            out.data_mut()[ma.len()..].copy_from_slice(mb.data());
            out
        };
        self.push(value, Op::ConcatRows(a.0, b.0))
    }

    // ---- fused edge-message ops -------------------------------------------

    /// Fused `gather + gather + add`: `out[k, :] = a[ia[k], :] + b[ib[k], :]`.
    /// Bitwise-identical to the three-op chain
    /// `add(gather_rows(a, ia), gather_rows(b, ib))` (forward and backward)
    /// without materializing the two gathered intermediates.
    ///
    /// # Panics
    /// Panics if `ia.len() != ib.len()`, column counts differ, or an index is
    /// out of bounds.
    pub fn gather_pair_add(&self, a: Var, ia: &[u32], b: Var, ib: &[u32]) -> Var {
        assert_eq!(ia.len(), ib.len(), "gather_pair_add index length mismatch");
        let value = {
            let nodes = self.nodes.borrow();
            let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
            assert_eq!(ma.cols(), mb.cols(), "gather_pair_add column mismatch");
            let (ra, rb) = (ma.rows(), mb.rows());
            let mut out = self.palloc(ia.len(), ma.cols());
            for (k, (&i, &j)) in ia.iter().zip(ib).enumerate() {
                assert!((i as usize) < ra, "gather index {i} out of bounds for {ra} rows");
                assert!((j as usize) < rb, "gather index {j} out of bounds for {rb} rows");
                let (sa, sb) = (ma.row(i as usize), mb.row(j as usize));
                for ((o, &x), &y) in out.row_mut(k).iter_mut().zip(sa).zip(sb) {
                    *o = x + y;
                }
            }
            out
        };
        let (ia, ib) = (self.pidx(ia), self.pidx(ib));
        self.push(value, Op::GatherPairAdd { a: a.0, b: b.0, ia, ib })
    }

    /// Fused attention edge score (Eq. 6):
    /// `out[e, 0] = sigmoid(relu((a_s[e, :] + a_r[e, :]) + bias) . w_a)`.
    ///
    /// Bitwise-identical to the five-op chain
    /// `sigmoid(matmul(relu(add_row_broadcast(add(a_s, a_r), bias)), w_a))`
    /// — per edge, the dot product accumulates over the attention dimension
    /// in ascending order from `+0.0` exactly like the matmul kernel — but
    /// runs in one pass and stores only the `E x 1` result.
    ///
    /// # Panics
    /// Panics on shape mismatch (`a_s`/`a_r` are `E x d_a`, `bias` is
    /// `1 x d_a`, `w_a` is `d_a x 1`).
    pub fn attn_edge_score(&self, a_s: Var, a_r: Var, bias: Var, w_a: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let (ms, mr) = (&nodes[a_s.0].value, &nodes[a_r.0].value);
            let (mb, mw) = (&nodes[bias.0].value, &nodes[w_a.0].value);
            let (e, da) = ms.shape();
            assert_eq!(mr.shape(), (e, da), "attn_edge_score a_r shape mismatch");
            assert_eq!(mb.shape(), (1, da), "attn_edge_score bias must be 1x{da}");
            assert_eq!(mw.shape(), (da, 1), "attn_edge_score w_a must be {da}x1");
            let bias_row = mb.row(0);
            let wv = mw.data();
            let mut out = self.palloc(e, 1);
            for k in 0..e {
                let (rs, rr) = (ms.row(k), mr.row(k));
                let mut z = 0.0f32;
                for j in 0..da {
                    let pre = (rs[j] + rr[j]) + bias_row[j];
                    z += pre.max(0.0) * wv[j];
                }
                out.data_mut()[k] = stable_sigmoid(z);
            }
            out
        };
        self.push(value, Op::AttnEdgeScore { a_s: a_s.0, a_r: a_r.0, bias: bias.0, w_a: w_a.0 })
    }

    /// Fused optional column-scale, optional mask multiply, and scatter-add:
    /// `out[indices[k], :] += (a[k, :] * scale[k, 0]) * mask[k, :]` into a
    /// zero matrix with `out_rows` rows. `scale` (an `E x 1` var, e.g.
    /// attention weights) and `mask` (a dropout keep-mask) are each optional.
    ///
    /// Bitwise-identical to the chain
    /// `scatter_add_rows(dropout(mul_col_broadcast(a, scale), mask), ..)`
    /// (with the respective stages skipped when absent), forward and
    /// backward, without materializing the edge-sized intermediates.
    ///
    /// # Panics
    /// Panics if `indices.len() != a.rows()`, an index is `>= out_rows`,
    /// `scale` is not `a.rows() x 1`, or `mask.len() != a.len()`.
    pub fn scale_mask_scatter_add(
        &self,
        a: Var,
        scale: Option<Var>,
        mask: Option<Vec<f32>>,
        indices: &[u32],
        out_rows: usize,
    ) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let m = &nodes[a.0].value;
            let (e, c) = m.shape();
            assert_eq!(indices.len(), e, "one index per input row required");
            if let Some(s) = scale {
                assert_eq!(
                    nodes[s.0].value.shape(),
                    (e, 1),
                    "scale must be {e}x1, got {:?}",
                    nodes[s.0].value.shape()
                );
            }
            if let Some(mk) = &mask {
                assert_eq!(mk.len(), m.len(), "mask length mismatch");
            }
            let mut out = self.palloc_zeroed(out_rows, c);
            for (k, &idx) in indices.iter().enumerate() {
                assert!(
                    (idx as usize) < out_rows,
                    "scatter index {idx} out of bounds for {out_rows} rows"
                );
                let sv = scale.map(|s| nodes[s.0].value.get(k, 0));
                let src = m.row(k);
                for (j, (o, &x)) in out.row_mut(idx as usize).iter_mut().zip(src).enumerate() {
                    let mut v = x;
                    if let Some(s) = sv {
                        v *= s;
                    }
                    if let Some(mk) = &mask {
                        v *= mk[k * c + j];
                    }
                    *o += v;
                }
            }
            out
        };
        let indices = self.pidx(indices);
        self.push(
            value,
            Op::ScaleMaskScatterAdd { a: a.0, scale: scale.map(|s| s.0), mask, indices, out_rows },
        )
    }
}

impl Tape {
    // ---- validation -------------------------------------------------------

    /// Deep-checks the recorded graph: every op's inputs must precede it on
    /// the tape (topological ordering), every op's output shape must be
    /// consistent with its input shapes, saved gather/scatter indices and
    /// dropout masks must be in bounds, all values — and gradients, when
    /// present after [`Tape::backward`] — must be finite and shape-matched,
    /// and no two live node buffers (values or gradients) may alias the same
    /// pooled memory.
    ///
    /// Returns `Err` describing the first violation, prefixed with the
    /// offending node's tape index. Used by `debug_assert!` hooks in the
    /// training loop and unconditionally by the `kucnet-audit` binary.
    pub fn check_graph(&self) -> Result<(), String> {
        let nodes = self.nodes.borrow();
        for (i, node) in nodes.iter().enumerate() {
            let fail = |msg: String| Err(format!("node {i}: {msg}"));
            let out = node.value.shape();
            let shape_of = |j: usize| nodes[j].value.shape();
            // Topological ordering: inputs strictly precede the node.
            for &j in op_inputs(&node.op).iter().flatten() {
                if j >= i {
                    return fail(format!("input {j} does not precede it on the tape"));
                }
            }
            match &node.op {
                Op::Leaf { .. } => {}
                Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) => {
                    if shape_of(*a) != shape_of(*b) || out != shape_of(*a) {
                        return fail(format!(
                            "elementwise op shapes disagree: {:?} vs {:?} -> {:?}",
                            shape_of(*a),
                            shape_of(*b),
                            out
                        ));
                    }
                }
                Op::AddRowBroadcast(a, bias) => {
                    let (ar, ac) = shape_of(*a);
                    if shape_of(*bias) != (1, ac) || out != (ar, ac) {
                        return fail(format!(
                            "row broadcast: a {:?}, bias {:?}, out {:?}",
                            shape_of(*a),
                            shape_of(*bias),
                            out
                        ));
                    }
                }
                Op::MulColBroadcast(a, s) => {
                    let (ar, ac) = shape_of(*a);
                    if shape_of(*s) != (ar, 1) || out != (ar, ac) {
                        return fail(format!(
                            "col broadcast: a {:?}, scale {:?}, out {:?}",
                            shape_of(*a),
                            shape_of(*s),
                            out
                        ));
                    }
                }
                Op::MatMul(a, b) => {
                    let ((m, k1), (k2, n)) = (shape_of(*a), shape_of(*b));
                    if k1 != k2 || out != (m, n) {
                        return fail(format!(
                            "matmul: {:?} x {:?} -> {:?}",
                            shape_of(*a),
                            shape_of(*b),
                            out
                        ));
                    }
                }
                Op::Neg(a)
                | Op::ScalarMul(a, _)
                | Op::Relu(a)
                | Op::LeakyRelu(a, _)
                | Op::Tanh(a)
                | Op::Sigmoid(a)
                | Op::Softplus(a)
                | Op::Exp(a)
                | Op::Ln(a)
                | Op::Square(a) => {
                    if out != shape_of(*a) {
                        return fail(format!(
                            "unary op changes shape: {:?} -> {:?}",
                            shape_of(*a),
                            out
                        ));
                    }
                }
                Op::SumAll(_) | Op::MeanAll(_) => {
                    if out != (1, 1) {
                        return fail(format!("reduction output is {out:?}, expected (1, 1)"));
                    }
                }
                Op::SumRows(a) => {
                    if out != (shape_of(*a).0, 1) {
                        return fail(format!("sum_rows: {:?} -> {:?}", shape_of(*a), out));
                    }
                }
                Op::GatherRows(a, indices) => {
                    let (ar, ac) = shape_of(*a);
                    if out != (indices.len(), ac) {
                        return fail(format!(
                            "gather_rows: {} indices over {:?} -> {:?}",
                            indices.len(),
                            shape_of(*a),
                            out
                        ));
                    }
                    if let Some(&bad) = indices.iter().find(|&&idx| (idx as usize) >= ar) {
                        return fail(format!("gather index {bad} out of bounds for {ar} rows"));
                    }
                }
                Op::ScatterAddRows(a, indices, out_rows) => {
                    let (ar, ac) = shape_of(*a);
                    if indices.len() != ar {
                        return fail(format!(
                            "scatter_add_rows: {} indices for {ar} input rows",
                            indices.len()
                        ));
                    }
                    if out != (*out_rows, ac) {
                        return fail(format!(
                            "scatter_add_rows: output {out:?}, expected ({out_rows}, {ac})"
                        ));
                    }
                    if let Some(&bad) = indices.iter().find(|&&idx| (idx as usize) >= *out_rows) {
                        return fail(format!(
                            "scatter index {bad} out of bounds for {out_rows} rows"
                        ));
                    }
                }
                Op::Dropout(a, mask) => {
                    if out != shape_of(*a) {
                        return fail(format!(
                            "dropout changes shape: {:?} -> {:?}",
                            shape_of(*a),
                            out
                        ));
                    }
                    if mask.len() != node.value.len() {
                        return fail(format!(
                            "dropout mask has {} entries for {} elements",
                            mask.len(),
                            node.value.len()
                        ));
                    }
                }
                Op::ConcatRows(a, b) => {
                    let ((ar, ac), (br, bc)) = (shape_of(*a), shape_of(*b));
                    if ac != bc || out != (ar + br, ac) {
                        return fail(format!(
                            "concat_rows: {:?} over {:?} -> {:?}",
                            shape_of(*a),
                            shape_of(*b),
                            out
                        ));
                    }
                }
                Op::GatherPairAdd { a, b, ia, ib } => {
                    let ((ar, ac), (br, bc)) = (shape_of(*a), shape_of(*b));
                    if ac != bc || ia.len() != ib.len() || out != (ia.len(), ac) {
                        return fail(format!(
                            "gather_pair_add: {:?} + {:?} over {}/{} indices -> {:?}",
                            shape_of(*a),
                            shape_of(*b),
                            ia.len(),
                            ib.len(),
                            out
                        ));
                    }
                    if let Some(&bad) = ia.iter().find(|&&idx| (idx as usize) >= ar) {
                        return fail(format!("gather index {bad} out of bounds for {ar} rows"));
                    }
                    if let Some(&bad) = ib.iter().find(|&&idx| (idx as usize) >= br) {
                        return fail(format!("gather index {bad} out of bounds for {br} rows"));
                    }
                }
                Op::AttnEdgeScore { a_s, a_r, bias, w_a } => {
                    let (e, da) = shape_of(*a_s);
                    if shape_of(*a_r) != (e, da)
                        || shape_of(*bias) != (1, da)
                        || shape_of(*w_a) != (da, 1)
                        || out != (e, 1)
                    {
                        return fail(format!(
                            "attn_edge_score: a_s {:?}, a_r {:?}, bias {:?}, w_a {:?} -> {:?}",
                            shape_of(*a_s),
                            shape_of(*a_r),
                            shape_of(*bias),
                            shape_of(*w_a),
                            out
                        ));
                    }
                }
                Op::ScaleMaskScatterAdd { a, scale, mask, indices, out_rows } => {
                    let (ar, ac) = shape_of(*a);
                    if indices.len() != ar {
                        return fail(format!(
                            "scale_mask_scatter_add: {} indices for {ar} input rows",
                            indices.len()
                        ));
                    }
                    if out != (*out_rows, ac) {
                        return fail(format!(
                            "scale_mask_scatter_add: output {out:?}, expected ({out_rows}, {ac})"
                        ));
                    }
                    if let Some(s) = scale {
                        if shape_of(*s) != (ar, 1) {
                            return fail(format!(
                                "scale_mask_scatter_add: scale {:?}, expected ({ar}, 1)",
                                shape_of(*s)
                            ));
                        }
                    }
                    if let Some(mk) = mask {
                        if mk.len() != ar * ac {
                            return fail(format!(
                                "scale_mask_scatter_add: mask has {} entries for {} elements",
                                mk.len(),
                                ar * ac
                            ));
                        }
                    }
                    if let Some(&bad) = indices.iter().find(|&&idx| (idx as usize) >= *out_rows) {
                        return fail(format!(
                            "scatter index {bad} out of bounds for {out_rows} rows"
                        ));
                    }
                }
            }
            if !node.value.all_finite() {
                return fail("value contains non-finite entries".to_string());
            }
            if let Some(grad) = &node.grad {
                if grad.shape() != out {
                    return fail(format!(
                        "gradient shape {:?} does not match value shape {:?}",
                        grad.shape(),
                        out
                    ));
                }
                if !grad.all_finite() {
                    return fail("gradient contains non-finite entries".to_string());
                }
            }
        }
        // Pooled-buffer aliasing invariant: every live value/grad buffer must
        // occupy its own memory — a pool double-hand would silently corrupt
        // the forward values of one node when another writes.
        let mut spans: Vec<(usize, usize, usize)> = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            if !node.value.is_empty() {
                spans.push((node.value.data().as_ptr() as usize, node.value.len(), i));
            }
            if let Some(g) = &node.grad {
                if !g.is_empty() {
                    spans.push((g.data().as_ptr() as usize, g.len(), i));
                }
            }
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            let ((s0, l0, n0), (s1, _, n1)) = (w[0], w[1]);
            if s1 < s0 + l0 * std::mem::size_of::<f32>() {
                return Err(format!(
                    "nodes {n0} and {n1} alias the same pooled buffer (live ranges overlap)"
                ));
            }
        }
        Ok(())
    }

    // ---- backward ---------------------------------------------------------

    /// Accumulates `g` into the gradient slot of `idx` (pooled copy when the
    /// slot is empty), skipping non-differentiable leaves.
    fn accumulate(&self, nodes: &mut [Node], idx: usize, g: &Matrix) {
        if let Op::Leaf { requires_grad: false } = nodes[idx].op {
            return;
        }
        match &mut nodes[idx].grad {
            Some(existing) => existing.add_assign_scaled(g, 1.0),
            slot @ None => *slot = Some(self.pcopy(g)),
        }
    }

    /// Runs the backward pass from `loss`, which must be a `1 x 1` node.
    /// Gradients accumulate on every differentiable node reachable from the
    /// loss; read them back with [`Tape::grad`]. Intermediate gradients and
    /// temporaries are drawn from — and returned to — the tape's pool, so a
    /// warm tape's backward allocates nothing fresh.
    pub fn backward(&self, loss: Var) {
        let mut nodes = self.nodes.borrow_mut();
        assert_eq!(nodes[loss.0].value.shape(), (1, 1), "backward expects a scalar (1x1) loss");
        for n in nodes.iter_mut() {
            if let Some(old) = n.grad.take() {
                self.prelease(old);
            }
        }
        nodes[loss.0].grad = Some(self.pfull(1, 1, 1.0));

        for i in (0..=loss.0).rev() {
            let Some(g) = nodes[i].grad.take() else { continue };
            // Move the op out of the node so we can hold its saved data
            // (gather indices, dropout masks) while mutating input nodes,
            // which always have smaller indices. The op is restored below.
            let op = std::mem::replace(&mut nodes[i].op, Op::Leaf { requires_grad: false });
            match &op {
                Op::Leaf { .. } => {
                    nodes[i].grad = Some(g);
                    nodes[i].op = op;
                    continue;
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate(&mut nodes, a, &g);
                    self.accumulate(&mut nodes, b, &g);
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate(&mut nodes, a, &g);
                    if wants_grad(&nodes, b) {
                        let neg = self.pmap(&g, |x| -x);
                        self.accumulate(&mut nodes, b, &neg);
                        self.prelease(neg);
                    }
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    if wants_grad(&nodes, a) {
                        let ga = self.pzip(&g, &nodes[b].value, |gi, bi| gi * bi);
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                    if wants_grad(&nodes, b) {
                        let gb = self.pzip(&g, &nodes[a].value, |gi, ai| gi * ai);
                        self.accumulate(&mut nodes, b, &gb);
                        self.prelease(gb);
                    }
                }
                Op::Div(a, b) => {
                    let (a, b) = (*a, *b);
                    if wants_grad(&nodes, a) {
                        let ga = self.pzip(&g, &nodes[b].value, |gi, bi| gi / bi);
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                    if wants_grad(&nodes, b) {
                        let gb0 = self.pzip(&g, &nodes[a].value, |gi, ai| gi * ai);
                        let gb = self.pzip(&gb0, &nodes[b].value, |x, bi| -x / (bi * bi));
                        self.prelease(gb0);
                        self.accumulate(&mut nodes, b, &gb);
                        self.prelease(gb);
                    }
                }
                Op::AddRowBroadcast(a, bias) => {
                    let (a, bias) = (*a, *bias);
                    self.accumulate(&mut nodes, a, &g);
                    if wants_grad(&nodes, bias) {
                        let mut gb = self.palloc_zeroed(1, g.cols());
                        for r in 0..g.rows() {
                            for (o, &v) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                                *o += v;
                            }
                        }
                        self.accumulate(&mut nodes, bias, &gb);
                        self.prelease(gb);
                    }
                }
                Op::MulColBroadcast(a, s) => {
                    let (a, s) = (*a, *s);
                    if wants_grad(&nodes, a) {
                        let mut ga = self.palloc(g.rows(), g.cols());
                        for r in 0..ga.rows() {
                            let w = nodes[s].value.get(r, 0);
                            for (o, &gi) in ga.row_mut(r).iter_mut().zip(g.row(r)) {
                                *o = gi * w;
                            }
                        }
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                    if wants_grad(&nodes, s) {
                        let mut gs = self.palloc(g.rows(), 1);
                        for r in 0..g.rows() {
                            gs.data_mut()[r] = g
                                .row(r)
                                .iter()
                                .zip(nodes[a].value.row(r))
                                .map(|(&x, &y)| x * y)
                                .sum();
                        }
                        self.accumulate(&mut nodes, s, &gs);
                        self.prelease(gs);
                    }
                }
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    // dA = G * B^T ; dB = A^T * G
                    if wants_grad(&nodes, a) {
                        let mut ga = self.palloc(g.rows(), nodes[b].value.rows());
                        g.matmul_nt_into(&nodes[b].value, &mut ga);
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                    if wants_grad(&nodes, b) {
                        let mut gb = self.palloc(nodes[a].value.cols(), g.cols());
                        nodes[a].value.matmul_tn_into(&g, &mut gb);
                        self.accumulate(&mut nodes, b, &gb);
                        self.prelease(gb);
                    }
                }
                Op::Neg(a) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let ga = self.pmap(&g, |x| -x);
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::ScalarMul(a, c) => {
                    let (a, c) = (*a, *c);
                    if wants_grad(&nodes, a) {
                        let ga = self.pmap(&g, |x| c * x);
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::Relu(a) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let ga =
                            self.pzip(&g, &nodes[a].value, |gi, x| if x > 0.0 { gi } else { 0.0 });
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::LeakyRelu(a, alpha) => {
                    let (a, alpha) = (*a, *alpha);
                    if wants_grad(&nodes, a) {
                        let ga =
                            self.pzip(
                                &g,
                                &nodes[a].value,
                                |gi, x| {
                                    if x > 0.0 {
                                        gi
                                    } else {
                                        alpha * gi
                                    }
                                },
                            );
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::Tanh(a) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let ga = self.pzip(&g, &nodes[i].value, |gi, y| gi * (1.0 - y * y));
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::Sigmoid(a) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let ga = self.pzip(&g, &nodes[i].value, |gi, y| gi * y * (1.0 - y));
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::Softplus(a) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let ga = self.pzip(&g, &nodes[a].value, |gi, x| gi * stable_sigmoid(x));
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::Exp(a) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let ga = self.pzip(&g, &nodes[i].value, |gi, y| gi * y);
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::Ln(a) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let ga = self.pzip(&g, &nodes[a].value, |gi, x| gi / x);
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::Square(a) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let ga = self.pzip(&g, &nodes[a].value, |gi, x| gi * 2.0 * x);
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::SumAll(a) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let (r, c) = nodes[a].value.shape();
                        let ga = self.pfull(r, c, g.get(0, 0));
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::MeanAll(a) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let (r, c) = nodes[a].value.shape();
                        let ga = self.pfull(r, c, g.get(0, 0) / (r * c) as f32);
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::SumRows(a) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let (r, c) = nodes[a].value.shape();
                        let mut ga = self.palloc(r, c);
                        for rr in 0..r {
                            ga.row_mut(rr).fill(g.get(rr, 0));
                        }
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::GatherRows(a, indices) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let rows = nodes[a].value.rows();
                        let mut ga = self.palloc_zeroed(rows, g.cols());
                        for (k, &idx) in indices.iter().enumerate() {
                            let src = g.row(k);
                            for (o, &v) in ga.row_mut(idx as usize).iter_mut().zip(src) {
                                *o += v;
                            }
                        }
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::ScatterAddRows(a, indices, _out_rows) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let mut ga = self.palloc(indices.len(), g.cols());
                        for (k, &idx) in indices.iter().enumerate() {
                            ga.row_mut(k).copy_from_slice(g.row(idx as usize));
                        }
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::Dropout(a, mask) => {
                    let a = *a;
                    if wants_grad(&nodes, a) {
                        let mut ga = self.palloc(g.rows(), g.cols());
                        for ((o, &gi), &m) in ga.data_mut().iter_mut().zip(g.data()).zip(mask) {
                            *o = gi * m;
                        }
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                }
                Op::ConcatRows(a, b) => {
                    let (a, b) = (*a, *b);
                    let ra = nodes[a].value.rows();
                    let cols = g.cols();
                    if wants_grad(&nodes, a) {
                        let mut ga = self.palloc(ra, cols);
                        ga.data_mut().copy_from_slice(&g.data()[..ra * cols]);
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                    if wants_grad(&nodes, b) {
                        let mut gb = self.palloc(g.rows() - ra, cols);
                        gb.data_mut().copy_from_slice(&g.data()[ra * cols..]);
                        self.accumulate(&mut nodes, b, &gb);
                        self.prelease(gb);
                    }
                }
                Op::GatherPairAdd { a, b, ia, ib } => {
                    // Identical to the unfused chain: the add passes `g`
                    // through to both gathers, and each gather backward
                    // scatter-adds its rows (k ascending) into zeros.
                    let (a, b) = (*a, *b);
                    if wants_grad(&nodes, a) {
                        let mut ga = self.palloc_zeroed(nodes[a].value.rows(), g.cols());
                        for (k, &idx) in ia.iter().enumerate() {
                            for (o, &v) in ga.row_mut(idx as usize).iter_mut().zip(g.row(k)) {
                                *o += v;
                            }
                        }
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                    if wants_grad(&nodes, b) {
                        let mut gb = self.palloc_zeroed(nodes[b].value.rows(), g.cols());
                        for (k, &idx) in ib.iter().enumerate() {
                            for (o, &v) in gb.row_mut(idx as usize).iter_mut().zip(g.row(k)) {
                                *o += v;
                            }
                        }
                        self.accumulate(&mut nodes, b, &gb);
                        self.prelease(gb);
                    }
                }
                Op::AttnEdgeScore { a_s, a_r, bias, w_a } => {
                    let (a_s, a_r, bias, w_a) = (*a_s, *a_r, *bias, *w_a);
                    let (e, da) = nodes[a_s].value.shape();
                    // Recompute the pre-activation rows from the stored
                    // inputs; each gradient below reproduces the unfused
                    // chain (sigmoid -> matmul -> relu -> broadcast -> add)
                    // term by term in the same accumulation order.
                    let mut gpre = self.palloc(e, da);
                    let mut gwa = self.palloc_zeroed(da, 1);
                    let mut gb = self.palloc_zeroed(1, da);
                    {
                        let ms = &nodes[a_s].value;
                        let mr = &nodes[a_r].value;
                        let bias_row = nodes[bias].value.row(0);
                        let wv = nodes[w_a].value.data();
                        let yv = nodes[i].value.data();
                        for k in 0..e {
                            let y = yv[k];
                            let gz = g.data()[k] * y * (1.0 - y);
                            let (rs, rr) = (ms.row(k), mr.row(k));
                            for j in 0..da {
                                let pre = (rs[j] + rr[j]) + bias_row[j];
                                let act = pre.max(0.0);
                                // e-outer / j-inner += matches matmul_tn's
                                // ascending-k accumulation per output element.
                                gwa.data_mut()[j] += act * gz;
                                // `0.0 +` reproduces the unfused matmul_nt
                                // accumulator (normalizes -0.0 to +0.0).
                                let d_act = 0.0 + gz * wv[j];
                                gpre.row_mut(k)[j] = if pre > 0.0 { d_act } else { 0.0 };
                            }
                        }
                        for k in 0..e {
                            for (o, &v) in gb.row_mut(0).iter_mut().zip(gpre.row(k)) {
                                *o += v;
                            }
                        }
                    }
                    self.accumulate(&mut nodes, w_a, &gwa);
                    self.accumulate(&mut nodes, bias, &gb);
                    self.accumulate(&mut nodes, a_s, &gpre);
                    self.accumulate(&mut nodes, a_r, &gpre);
                    self.prelease(gpre);
                    self.prelease(gwa);
                    self.prelease(gb);
                }
                Op::ScaleMaskScatterAdd { a, scale, mask, indices, .. } => {
                    let (a, scale) = (*a, *scale);
                    let (e, c) = nodes[a].value.shape();
                    if wants_grad(&nodes, a) {
                        // d_a = ((g[dst] * mask) * scale): mask first, then
                        // scale — the reverse of the forward order, exactly
                        // as the unfused chain's backward applies them.
                        let mut ga = self.palloc(e, c);
                        for (k, &idx) in indices.iter().enumerate() {
                            let grow = g.row(idx as usize);
                            let sv = scale.map(|s| nodes[s].value.get(k, 0));
                            for (j, (o, &gi)) in ga.row_mut(k).iter_mut().zip(grow).enumerate() {
                                let mut v = gi;
                                if let Some(mk) = mask {
                                    v *= mk[k * c + j];
                                }
                                if let Some(s) = sv {
                                    v *= s;
                                }
                                *o = v;
                            }
                        }
                        self.accumulate(&mut nodes, a, &ga);
                        self.prelease(ga);
                    }
                    if let Some(s) = scale {
                        if wants_grad(&nodes, s) {
                            // d_s[k] = sum_j (g[dst[k]] * mask)[j] * a[k][j],
                            // j ascending from +0.0 like the unfused
                            // mul_col_broadcast backward.
                            let mut gs = self.palloc(e, 1);
                            for (k, &idx) in indices.iter().enumerate() {
                                let grow = g.row(idx as usize);
                                let arow = nodes[a].value.row(k);
                                let mut acc = 0.0f32;
                                for (j, (&gi, &ai)) in grow.iter().zip(arow).enumerate() {
                                    let mut v = gi;
                                    if let Some(mk) = mask {
                                        v *= mk[k * c + j];
                                    }
                                    acc += v * ai;
                                }
                                gs.data_mut()[k] = acc;
                            }
                            self.accumulate(&mut nodes, s, &gs);
                            self.prelease(gs);
                        }
                    }
                }
            }
            nodes[i].op = op;
            self.prelease(g);
        }
    }
}

/// Input node indices of an op, padded with `None` (at most four inputs).
fn op_inputs(op: &Op) -> [Option<usize>; 4] {
    match op {
        Op::Leaf { .. } => [None, None, None, None],
        Op::Add(a, b)
        | Op::Sub(a, b)
        | Op::Mul(a, b)
        | Op::Div(a, b)
        | Op::AddRowBroadcast(a, b)
        | Op::MulColBroadcast(a, b)
        | Op::MatMul(a, b)
        | Op::ConcatRows(a, b) => [Some(*a), Some(*b), None, None],
        Op::Neg(a)
        | Op::ScalarMul(a, _)
        | Op::Relu(a)
        | Op::LeakyRelu(a, _)
        | Op::Tanh(a)
        | Op::Sigmoid(a)
        | Op::Softplus(a)
        | Op::Exp(a)
        | Op::Ln(a)
        | Op::Square(a)
        | Op::SumAll(a)
        | Op::MeanAll(a)
        | Op::SumRows(a)
        | Op::GatherRows(a, _)
        | Op::ScatterAddRows(a, _, _)
        | Op::Dropout(a, _) => [Some(*a), None, None, None],
        Op::GatherPairAdd { a, b, .. } => [Some(*a), Some(*b), None, None],
        Op::AttnEdgeScore { a_s, a_r, bias, w_a } => {
            [Some(*a_s), Some(*a_r), Some(*bias), Some(*w_a)]
        }
        Op::ScaleMaskScatterAdd { a, scale, .. } => [Some(*a), *scale, None, None],
    }
}

/// True when gradient work for node `idx` is observable (everything except
/// non-differentiable leaves, whose gradients `accumulate` discards anyway).
fn wants_grad(nodes: &[Node], idx: usize) -> bool {
    !matches!(nodes[idx].op, Op::Leaf { requires_grad: false })
}

/// Numerically stable logistic sigmoid.
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable `ln(1 + e^x)`.
pub fn stable_softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        (1.0 + x.exp()).ln()
    }
}

/// A thread-safe stash of reusable [`Tape`]s (each with its warm pool).
/// Worker threads check a tape out, run record/backward cycles on it, and the
/// guard returns it — reset, buffers pooled — when dropped, so the next
/// checkout starts warm.
#[derive(Default)]
pub struct TapeStash {
    inner: Mutex<Vec<Tape>>,
}

impl TapeStash {
    /// Creates an empty stash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stashed (idle) tapes.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no tapes are stashed.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Tape>> {
        // A poisoned lock only means another worker panicked mid-push/pop of
        // a Vec — the stash content is still structurally valid.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Checks out a stashed tape (or a fresh one when the stash is empty).
    /// The guard derefs to [`Tape`]; dropping it resets the tape and returns
    /// it to the stash.
    pub fn checkout(&self) -> TapeGuard<'_> {
        let tape = self.lock().pop().unwrap_or_default();
        tape.reset();
        TapeGuard { tape, stash: self }
    }
}

/// RAII guard for a [`Tape`] checked out of a [`TapeStash`].
pub struct TapeGuard<'a> {
    tape: Tape,
    stash: &'a TapeStash,
}

impl std::ops::Deref for TapeGuard<'_> {
    type Target = Tape;
    fn deref(&self) -> &Tape {
        &self.tape
    }
}

impl std::ops::DerefMut for TapeGuard<'_> {
    fn deref_mut(&mut self) -> &mut Tape {
        &mut self.tape
    }
}

impl Drop for TapeGuard<'_> {
    fn drop(&mut self) {
        let tape = std::mem::take(&mut self.tape);
        tape.reset();
        self.stash.lock().push(tape);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(t: &Tape, v: Var) -> f32 {
        t.value(v).get(0, 0)
    }

    #[test]
    fn add_backward() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = t.leaf(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let s = t.add(a, b);
        let l = t.sum_all(s);
        t.backward(l);
        assert_eq!(t.grad(a).unwrap().data(), &[1.0, 1.0]);
        assert_eq!(t.grad(b).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn mul_backward() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let b = t.leaf(Matrix::from_vec(1, 2, vec![5.0, 7.0]));
        let p = t.mul(a, b);
        let l = t.sum_all(p);
        t.backward(l);
        assert_eq!(t.grad(a).unwrap().data(), &[5.0, 7.0]);
        assert_eq!(t.grad(b).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn matmul_backward_shapes() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.1));
        let b = t.leaf(Matrix::from_fn(4, 2, |r, c| (r * c) as f32 * 0.1 + 0.5));
        let y = t.matmul(a, b);
        let l = t.sum_all(y);
        t.backward(l);
        assert_eq!(t.grad(a).unwrap().shape(), (3, 4));
        assert_eq!(t.grad(b).unwrap().shape(), (4, 2));
    }

    #[test]
    fn constant_gets_no_grad() {
        let t = Tape::new();
        let a = t.constant(Matrix::from_vec(1, 1, vec![2.0]));
        let b = t.leaf(Matrix::from_vec(1, 1, vec![3.0]));
        let p = t.mul(a, b);
        t.backward(p);
        assert!(t.grad(a).is_none());
        assert_eq!(t.grad(b).unwrap().get(0, 0), 2.0);
    }

    #[test]
    fn gather_scatter_roundtrip_grad() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        // Gather rows [0, 2, 0]; row 0 is used twice so its grad doubles.
        let g = t.gather_rows(a, &[0, 2, 0]);
        let l = t.sum_all(g);
        t.backward(l);
        assert_eq!(t.grad(a).unwrap().data(), &[2., 2., 0., 0., 1., 1.]);
    }

    #[test]
    fn scatter_add_accumulates() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_vec(3, 1, vec![1., 10., 100.]));
        let s = t.scatter_add_rows(a, &[1, 1, 0], 2);
        assert_eq!(t.value(s).data(), &[100., 11.]);
        let l = t.sum_all(s);
        t.backward(l);
        assert_eq!(t.grad(a).unwrap().data(), &[1., 1., 1.]);
    }

    #[test]
    fn sigmoid_softplus_values() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 1, vec![0.0]));
        let s = t.sigmoid(a);
        assert!((scalar(&t, s) - 0.5).abs() < 1e-6);
        let sp = t.softplus(a);
        assert!((scalar(&t, sp) - (2.0f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn softplus_extremes_stable() {
        assert_eq!(stable_softplus(100.0), 100.0);
        assert!(stable_softplus(-100.0) >= 0.0);
        assert!(stable_softplus(-100.0) < 1e-6);
        assert!(stable_sigmoid(-100.0) >= 0.0);
        assert!(stable_sigmoid(100.0) <= 1.0);
    }

    #[test]
    fn bpr_loss_decreases_score_gap() {
        // loss = softplus(-(pos - neg)): gradient must push pos up, neg down.
        let t = Tape::new();
        let pos = t.leaf(Matrix::from_vec(1, 1, vec![0.2]));
        let neg = t.leaf(Matrix::from_vec(1, 1, vec![0.5]));
        let diff = t.sub(pos, neg);
        let ndiff = t.neg(diff);
        let loss = t.softplus(ndiff);
        t.backward(loss);
        assert!(t.grad(pos).unwrap().get(0, 0) < 0.0, "pos grad should be negative");
        assert!(t.grad(neg).unwrap().get(0, 0) > 0.0, "neg grad should be positive");
    }

    #[test]
    fn col_broadcast_grads() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let s = t.leaf(Matrix::from_vec(2, 1, vec![10., 100.]));
        let y = t.mul_col_broadcast(a, s);
        assert_eq!(t.value(y).data(), &[10., 20., 300., 400.]);
        let l = t.sum_all(y);
        t.backward(l);
        assert_eq!(t.grad(a).unwrap().data(), &[10., 10., 100., 100.]);
        assert_eq!(t.grad(s).unwrap().data(), &[3., 7.]);
    }

    #[test]
    fn row_broadcast_grads() {
        let t = Tape::new();
        let a = t.leaf(Matrix::zeros(3, 2));
        let b = t.leaf(Matrix::from_vec(1, 2, vec![1., 2.]));
        let y = t.add_row_broadcast(a, b);
        assert_eq!(t.value(y).data(), &[1., 2., 1., 2., 1., 2.]);
        let l = t.sum_all(y);
        t.backward(l);
        assert_eq!(t.grad(b).unwrap().data(), &[3., 3.]);
    }

    #[test]
    fn concat_rows_splits_grad() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![1., 2.]));
        let b = t.leaf(Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]));
        let y = t.concat_rows(a, b);
        assert_eq!(t.shape(y), (3, 2));
        let l = t.sum_all(y);
        t.backward(l);
        assert_eq!(t.grad(a).unwrap().shape(), (1, 2));
        assert_eq!(t.grad(b).unwrap().shape(), (2, 2));
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 1, vec![3.0]));
        let y = t.mul(a, a); // y = a^2, dy/da = 2a = 6
        t.backward(y);
        assert!((t.grad(a).unwrap().get(0, 0) - 6.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar() {
        let t = Tape::new();
        let a = t.leaf(Matrix::zeros(2, 2));
        t.backward(a);
    }

    #[test]
    fn check_graph_accepts_healthy_graph() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_fn(3, 2, |r, c| (r + c) as f32 * 0.3 + 0.1));
        let b = t.leaf(Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32 * 0.2 + 0.1));
        let y = t.matmul(a, b);
        let g = t.gather_rows(y, &[0, 2, 1]);
        let s = t.scatter_add_rows(g, &[1, 0, 1], 2);
        let act = t.sigmoid(s);
        let l = t.mean_all(act);
        assert_eq!(t.check_graph(), Ok(()), "pre-backward");
        t.backward(l);
        assert_eq!(t.check_graph(), Ok(()), "post-backward");
    }

    #[test]
    fn check_graph_rejects_nan_from_ln_of_negative() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![-1.0, 2.0]));
        let _ = t.ln(a); // ln(-1) = NaN
        let err = t.check_graph().unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn check_graph_rejects_nan_gradient() {
        let t = Tape::new();
        // d/dx ln(x) at 0 is infinite: the forward value ln(0) = -inf is
        // already non-finite, so the first failure is the value itself.
        let a = t.leaf(Matrix::from_vec(1, 1, vec![0.0]));
        let y = t.ln(a);
        t.backward(y);
        let err = t.check_graph().unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    // ---- fused-op and pooling tests --------------------------------------

    /// Deterministic "awkward" values: varied sign, magnitude, and scale so
    /// rounding differences between two computation orders would surface.
    fn awkward(rows: usize, cols: usize, salt: u32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u32)
                .wrapping_mul(2654435761)
                .wrapping_add((c as u32).wrapping_mul(40503))
                .wrapping_add(salt.wrapping_mul(97));
            let mantissa = (h % 2000) as f32 / 1000.0 - 1.0;
            let exp = ((h >> 11) % 7) as i32 - 3;
            mantissa * 2f32.powi(exp)
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_gather_pair_add_matches_unfused_bitwise() {
        let (rows_a, rows_b, cols) = (6, 4, 5);
        let ia: Vec<u32> = vec![0, 5, 2, 2, 1, 0, 3];
        let ib: Vec<u32> = vec![3, 0, 1, 1, 2, 3, 0];

        let tu = Tape::new();
        let au = tu.leaf(awkward(rows_a, cols, 1));
        let bu = tu.leaf(awkward(rows_b, cols, 2));
        let ga = tu.gather_rows(au, &ia);
        let gb = tu.gather_rows(bu, &ib);
        let yu = tu.add(ga, gb);
        let lu = tu.sum_all(tu.square(yu));
        tu.backward(lu);

        let tf = Tape::new();
        let af = tf.leaf(awkward(rows_a, cols, 1));
        let bf = tf.leaf(awkward(rows_b, cols, 2));
        let yf = tf.gather_pair_add(af, &ia, bf, &ib);
        let lf = tf.sum_all(tf.square(yf));
        tf.backward(lf);

        assert_eq!(bits(&tu.value(yu)), bits(&tf.value(yf)), "forward");
        assert_eq!(bits(&tu.grad(au).unwrap()), bits(&tf.grad(af).unwrap()), "grad a");
        assert_eq!(bits(&tu.grad(bu).unwrap()), bits(&tf.grad(bf).unwrap()), "grad b");
        assert_eq!(tf.check_graph(), Ok(()));
    }

    #[test]
    fn fused_gather_pair_add_empty_edge_list() {
        let t = Tape::new();
        let a = t.leaf(awkward(3, 2, 1));
        let b = t.leaf(awkward(3, 2, 2));
        let y = t.gather_pair_add(a, &[], b, &[]);
        assert_eq!(t.shape(y), (0, 2));
        assert_eq!(t.check_graph(), Ok(()));
    }

    #[test]
    fn fused_attn_edge_score_matches_unfused_bitwise() {
        let (e, da) = (9, 5);

        let tu = Tape::new();
        let asu = tu.leaf(awkward(e, da, 3));
        let aru = tu.leaf(awkward(e, da, 4));
        let biasu = tu.leaf(awkward(1, da, 5));
        let wau = tu.leaf(awkward(da, 1, 6));
        let summed = tu.add(asu, aru);
        let pre = tu.add_row_broadcast(summed, biasu);
        let act = tu.relu(pre);
        let z = tu.matmul(act, wau);
        let yu = tu.sigmoid(z);
        let lu = tu.sum_all(tu.square(yu));
        tu.backward(lu);

        let tf = Tape::new();
        let asf = tf.leaf(awkward(e, da, 3));
        let arf = tf.leaf(awkward(e, da, 4));
        let biasf = tf.leaf(awkward(1, da, 5));
        let waf = tf.leaf(awkward(da, 1, 6));
        let yf = tf.attn_edge_score(asf, arf, biasf, waf);
        let lf = tf.sum_all(tf.square(yf));
        tf.backward(lf);

        assert_eq!(bits(&tu.value(yu)), bits(&tf.value(yf)), "forward");
        assert_eq!(bits(&tu.grad(asu).unwrap()), bits(&tf.grad(asf).unwrap()), "grad a_s");
        assert_eq!(bits(&tu.grad(aru).unwrap()), bits(&tf.grad(arf).unwrap()), "grad a_r");
        assert_eq!(bits(&tu.grad(biasu).unwrap()), bits(&tf.grad(biasf).unwrap()), "grad bias");
        assert_eq!(bits(&tu.grad(wau).unwrap()), bits(&tf.grad(waf).unwrap()), "grad w_a");
        assert_eq!(tf.check_graph(), Ok(()));
    }

    #[test]
    fn fused_scale_mask_scatter_add_matches_unfused_bitwise() {
        let (e, c, out_rows) = (7, 4, 3);
        let indices: Vec<u32> = vec![2, 0, 1, 1, 2, 0, 2]; // duplicates on purpose
        let mask: Vec<f32> = (0..e * c).map(|i| if i % 3 == 0 { 0.0 } else { 1.25 }).collect();

        for (with_scale, with_mask) in [(false, false), (true, false), (false, true), (true, true)]
        {
            let tu = Tape::new();
            let au = tu.leaf(awkward(e, c, 7));
            let su = tu.leaf(awkward(e, 1, 8));
            let mut mu = au;
            if with_scale {
                mu = tu.mul_col_broadcast(mu, su);
            }
            if with_mask {
                mu = tu.dropout(mu, mask.clone());
            }
            let yu = tu.scatter_add_rows(mu, &indices, out_rows);
            let lu = tu.sum_all(tu.square(yu));
            tu.backward(lu);

            let tf = Tape::new();
            let af = tf.leaf(awkward(e, c, 7));
            let sf = tf.leaf(awkward(e, 1, 8));
            let yf = tf.scale_mask_scatter_add(
                af,
                with_scale.then_some(sf),
                with_mask.then(|| mask.clone()),
                &indices,
                out_rows,
            );
            let lf = tf.sum_all(tf.square(yf));
            tf.backward(lf);

            let tag = format!("scale={with_scale} mask={with_mask}");
            assert_eq!(bits(&tu.value(yu)), bits(&tf.value(yf)), "forward {tag}");
            assert_eq!(bits(&tu.grad(au).unwrap()), bits(&tf.grad(af).unwrap()), "grad a {tag}");
            if with_scale {
                assert_eq!(
                    bits(&tu.grad(su).unwrap()),
                    bits(&tf.grad(sf).unwrap()),
                    "grad scale {tag}"
                );
            }
            assert_eq!(tf.check_graph(), Ok(()), "{tag}");
        }
    }

    #[test]
    fn reset_reuses_pooled_buffers() {
        let run = |t: &Tape| {
            let a = t.leaf(awkward(6, 4, 11));
            let b = t.leaf(awkward(4, 3, 12));
            let y = t.matmul(a, b);
            let s = t.sigmoid(y);
            let l = t.mean_all(s);
            t.backward(l);
            t.grad(a).unwrap().data().to_vec()
        };
        let t = Tape::with_pool(MatrixPool::new());
        let g1 = run(&t);
        let fresh_after_warmup = t.pool_stats().fresh;
        t.reset();
        let g2 = run(&t);
        assert_eq!(g1, g2, "reset must not change results");
        assert_eq!(
            t.pool_stats().fresh,
            fresh_after_warmup,
            "second run on a warm tape must allocate zero fresh buffers"
        );
        assert!(t.pool_stats().reused > 0, "warm run should reuse pooled buffers");
    }

    #[test]
    fn reset_clears_nodes_but_keeps_pool() {
        let t = Tape::with_pool(MatrixPool::new());
        let a = t.leaf(awkward(3, 3, 1));
        let _ = t.square(a);
        assert_eq!(t.len(), 2);
        t.reset();
        assert!(t.is_empty());
        assert!(t.pool_stats().released > 0, "reset should bank buffers in the pool");
    }

    #[test]
    fn tape_stash_checkout_roundtrip() {
        let stash = TapeStash::new();
        assert!(stash.is_empty());
        let first_fresh;
        {
            let tape = stash.checkout();
            let a = tape.leaf(awkward(5, 5, 2));
            let l = tape.mean_all(tape.square(a));
            tape.backward(l);
            first_fresh = tape.pool_stats().fresh;
            assert!(first_fresh > 0);
        }
        assert_eq!(stash.len(), 1, "guard drop returns the tape");
        {
            let tape = stash.checkout();
            let a = tape.leaf(awkward(5, 5, 2));
            let l = tape.mean_all(tape.square(a));
            tape.backward(l);
            assert_eq!(
                tape.pool_stats().fresh,
                first_fresh,
                "re-checked-out tape must run entirely from its pool"
            );
        }
        assert_eq!(stash.len(), 1);
    }

    #[test]
    fn scratch_buffer_roundtrip() {
        let t = Tape::with_pool(MatrixPool::new());
        let buf = t.scratch_buffer(10);
        assert!(buf.len() == 10);
        t.release_buffer(buf);
        let again = t.scratch_buffer(10);
        assert_eq!(again.len(), 10);
        assert!(t.pool_stats().reused > 0);
    }
}
