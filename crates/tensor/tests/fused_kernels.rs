//! Property-based bitwise equivalence for the fused edge-message kernels.
//!
//! Each fused tape op (`gather_pair_add`, `attn_edge_score`,
//! `scale_mask_scatter_add`) claims to be *bitwise identical* — forward
//! values AND gradients — to the chain of unfused ops it replaced, and each
//! tape-free `fused_*_into` kernel claims to be bitwise identical to the
//! tape chain the taped forward records for the same step. These tests
//! state both claims as properties over random shapes, random index
//! streams (duplicates arise naturally and are also forced explicitly),
//! random dropout masks, and empty edge lists, and check them with exact
//! `f32::to_bits` comparison: no tolerance, ever.

use kucnet_tensor::{
    fused_gather_add_scale_scatter_into, fused_gather_attn_scores_into, Matrix, Tape, Var,
};
use proptest::prelude::*;

fn mat(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.5f32..1.5, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn indices(len: usize, bound: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..bound, len)
}

/// Inverted-dropout keep mask entries: either dropped (0.0) or kept and
/// rescaled (1/0.8) — the exact values the model's dropout path produces.
fn keep_mask(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(proptest::bool::ANY, len)
        .prop_map(|v| v.into_iter().map(|keep| if keep { 1.0 / 0.8 } else { 0.0 }).collect())
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// Runs `build` on a fresh tape over leaves of `inputs`, takes
/// `sum(square(out))` as the loss, backpropagates, and returns the output
/// bits plus each input's gradient bits.
fn run(
    inputs: &[Matrix],
    build: impl Fn(&Tape, &[Var]) -> Var,
) -> (Vec<u32>, Vec<Option<Vec<u32>>>) {
    let tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|m| tape.leaf(m.clone())).collect();
    let out = build(&tape, &vars);
    let out_bits = tape.with_value(out, bits);
    let loss = tape.sum_all(tape.square(out));
    tape.backward(loss);
    let grads = vars.iter().map(|&v| tape.grad(v).map(|g| bits(&g))).collect();
    (out_bits, grads)
}

/// Asserts forward values and every input gradient match bit for bit.
fn assert_fused_matches_unfused(
    inputs: &[Matrix],
    fused: impl Fn(&Tape, &[Var]) -> Var,
    unfused: impl Fn(&Tape, &[Var]) -> Var,
) {
    let (fused_out, fused_grads) = run(inputs, fused);
    let (ref_out, ref_grads) = run(inputs, unfused);
    assert_eq!(fused_out, ref_out, "forward values diverged");
    assert_eq!(fused_grads, ref_grads, "gradients diverged");
}

fn gather_pair_case(a: Matrix, b: Matrix, ia: Vec<u32>, ib: Vec<u32>) {
    let (ia2, ib2) = (ia.clone(), ib.clone());
    assert_fused_matches_unfused(
        &[a, b],
        move |t, v| t.gather_pair_add(v[0], &ia, v[1], &ib),
        move |t, v| {
            let ga = t.gather_rows(v[0], &ia2);
            let gb = t.gather_rows(v[1], &ib2);
            t.add(ga, gb)
        },
    );
}

fn attn_case(a_s: Matrix, a_r: Matrix, bias: Matrix, w_a: Matrix) {
    assert_fused_matches_unfused(
        &[a_s, a_r, bias, w_a],
        |t, v| t.attn_edge_score(v[0], v[1], v[2], v[3]),
        |t, v| {
            let pre = t.add_row_broadcast(t.add(v[0], v[1]), v[2]);
            t.sigmoid(t.matmul(t.relu(pre), v[3]))
        },
    );
}

fn scale_mask_case(
    msg: Matrix,
    scale: Option<Matrix>,
    mask: Option<Vec<f32>>,
    dst: Vec<u32>,
    out_rows: usize,
) {
    let mut inputs = vec![msg];
    if let Some(s) = scale.clone() {
        inputs.push(s);
    }
    let (mask2, dst2) = (mask.clone(), dst.clone());
    let has_scale = scale.is_some();
    assert_fused_matches_unfused(
        &inputs,
        move |t, v| {
            // `.then()`, not `.then_some()`: v[1] only exists when the
            // scale input was pushed.
            let s = has_scale.then(|| v[1]);
            t.scale_mask_scatter_add(v[0], s, mask.clone(), &dst, out_rows)
        },
        move |t, v| {
            let mut x = v[0];
            if has_scale {
                x = t.mul_col_broadcast(x, v[1]);
            }
            if let Some(m) = mask2.clone() {
                x = t.dropout(x, m);
            }
            t.scatter_add_rows(x, &dst2, out_rows)
        },
    );
}

/// Forward value bits of `build` over constants of `inputs` on a fresh tape.
fn tape_bits(inputs: &[Matrix], build: impl Fn(&Tape, &[Var]) -> Var) -> Vec<u32> {
    let tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|m| tape.constant(m.clone())).collect();
    tape.with_value(build(&tape, &vars), bits)
}

/// `fused_gather_attn_scores_into` vs `gather_rows` ×2 → `attn_edge_score`.
fn fused_attn_case(
    node_attn: Matrix,
    rel_attn: Matrix,
    bias: Matrix,
    w_a: Matrix,
    src: Vec<u32>,
    ri: Vec<u32>,
) {
    // Stale pooled contents must be overwritten.
    let mut got = Matrix::from_fn(src.len(), 1, |_, _| f32::NAN);
    fused_gather_attn_scores_into(&node_attn, &src, &rel_attn, &ri, &bias, &w_a, &mut got);
    let want = tape_bits(&[node_attn, rel_attn, bias, w_a], |t, v| {
        let a_s = t.gather_rows(v[0], &src);
        let a_r = t.gather_rows(v[1], &ri);
        t.attn_edge_score(a_s, a_r, v[2], v[3])
    });
    assert_eq!(bits(&got), want, "fused attention scores diverged from the tape chain");
}

/// `fused_gather_add_scale_scatter_into` vs `gather_pair_add` →
/// `scale_mask_scatter_add` (no mask: the tape-free forward is eval-only).
fn fused_scatter_case(
    a: Matrix,
    b: Matrix,
    ia: Vec<u32>,
    ib: Vec<u32>,
    scale: Option<Matrix>,
    dst: Vec<u32>,
    out_rows: usize,
) {
    let mut got = Matrix::zeros(out_rows, a.cols());
    fused_gather_add_scale_scatter_into(&a, &ia, &b, &ib, scale.as_ref(), &dst, &mut got);
    let has_scale = scale.is_some();
    let inputs: Vec<Matrix> = [a, b].into_iter().chain(scale).collect();
    let want = tape_bits(&inputs, |t, v| {
        let msg = t.gather_pair_add(v[0], &ia, v[1], &ib);
        t.scale_mask_scatter_add(msg, has_scale.then(|| v[2]), None, &dst, out_rows)
    });
    assert_eq!(bits(&got), want, "fused scatter diverged from the tape chain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_attn_scores_match_tape_chain(
        case in (1usize..7, 1usize..4, 1usize..6, 0usize..14).prop_flat_map(
            |(n, r, da, e)| (
                mat(n, da),
                mat(r, da),
                mat(1, da),
                mat(da, 1),
                indices(e, n as u32),
                indices(e, r as u32),
            )
        )
    ) {
        let (node_attn, rel_attn, bias, w_a, src, ri) = case;
        fused_attn_case(node_attn, rel_attn, bias, w_a, src, ri);
    }

    #[test]
    fn fused_scatter_matches_tape_chain(
        case in (1usize..7, 1usize..4, 1usize..6, 0usize..14, 1usize..8, proptest::bool::ANY)
            .prop_flat_map(|(n, r, c, e, out_rows, with_scale)| (
                (mat(n, c), mat(r, c)),
                (indices(e, n as u32), indices(e, r as u32)),
                mat(e, 1),
                indices(e, out_rows as u32),
                Just((out_rows, with_scale)),
            ))
    ) {
        let ((a, b), (ia, ib), scale, dst, (out_rows, with_scale)) = case;
        fused_scatter_case(a, b, ia, ib, with_scale.then_some(scale), dst, out_rows);
    }

    #[test]
    fn gather_pair_add_matches_unfused(
        case in (1usize..7, 1usize..7, 1usize..6, 0usize..14).prop_flat_map(
            |(ra, rb, c, e)| (mat(ra, c), mat(rb, c), indices(e, ra as u32), indices(e, rb as u32))
        )
    ) {
        let (a, b, ia, ib) = case;
        gather_pair_case(a, b, ia, ib);
    }

    #[test]
    fn attn_edge_score_matches_unfused(
        case in (0usize..10, 1usize..6).prop_flat_map(
            |(e, da)| (mat(e, da), mat(e, da), mat(1, da), mat(da, 1))
        )
    ) {
        let (a_s, a_r, bias, w_a) = case;
        attn_case(a_s, a_r, bias, w_a);
    }

    #[test]
    fn scale_mask_scatter_add_matches_unfused(
        case in
            (1usize..12, 1usize..6, 1usize..8, proptest::bool::ANY, proptest::bool::ANY)
                .prop_flat_map(|(e, c, r, with_scale, with_mask)| (
                    mat(e, c),
                    mat(e, 1),
                    keep_mask(e * c),
                    indices(e, r as u32),
                    Just(r),
                    Just((with_scale, with_mask)),
                ))
    ) {
        let (msg, scale, mask, dst, out_rows, (with_scale, with_mask)) = case;
        scale_mask_case(
            msg,
            with_scale.then_some(scale),
            with_mask.then_some(mask),
            dst,
            out_rows,
        );
    }
}

/// Every edge targeting the same destination row — the hardest accumulate
/// ordering case for the fused scatter backward.
#[test]
fn all_duplicate_destinations() {
    let msg = Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f32 * 0.25 - 1.0);
    let scale = Matrix::from_fn(6, 1, |r, _| 0.5 - r as f32 * 0.3);
    let dst = vec![0u32; 6];
    scale_mask_case(msg.clone(), Some(scale), None, dst.clone(), 2);
    let mask: Vec<f32> = (0..18).map(|i| if i % 3 == 0 { 0.0 } else { 1.25 }).collect();
    scale_mask_case(msg, None, Some(mask), dst, 2);
    let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.3 - 1.0);
    let b = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * -0.4 + 0.5);
    let scale = Matrix::from_fn(6, 1, |r, _| 0.5 - r as f32 * 0.3);
    let (ia, ib) = (vec![0, 3, 1, 3, 2, 0], vec![1, 0, 0, 1, 1, 0]);
    fused_scatter_case(a.clone(), b.clone(), ia.clone(), ib.clone(), Some(scale), vec![0; 6], 2);
    fused_scatter_case(a, b, ia, ib, None, vec![1; 6], 2);
}

/// Gathering the same source row for every edge (real layered graphs do
/// this constantly — the root user feeds every layer-0 edge).
#[test]
fn all_duplicate_sources() {
    let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.5 - 1.0);
    let b = Matrix::from_fn(2, 4, |r, c| (r * c) as f32 * 0.5 - 0.75);
    gather_pair_case(a.clone(), b.clone(), vec![1; 9], vec![0; 9]);
    let bias = Matrix::from_fn(1, 4, |_, c| c as f32 * 0.2 - 0.3);
    let w_a = Matrix::from_fn(4, 1, |r, _| 0.6 - r as f32 * 0.4);
    fused_attn_case(a.clone(), b.clone(), bias, w_a, vec![1; 9], vec![0; 9]);
    fused_scatter_case(a, b, vec![1; 9], vec![0; 9], None, (0..9).map(|k| k % 3).collect(), 3);
}

/// Zero-edge layers must flow through both paths identically (the model
/// hits these on users whose subgraph dies out early).
#[test]
fn empty_edge_lists() {
    let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 - 1.5);
    let b = Matrix::from_fn(2, 4, |r, c| (r * 2 + c) as f32 - 2.0);
    gather_pair_case(a.clone(), b, vec![], vec![]);
    attn_case(
        Matrix::zeros(0, 4),
        Matrix::zeros(0, 4),
        Matrix::from_fn(1, 4, |_, c| c as f32),
        Matrix::from_fn(4, 1, |r, _| r as f32 - 1.0),
    );
    scale_mask_case(Matrix::zeros(0, 4), None, None, vec![], 3);
    fused_attn_case(
        a.clone(),
        Matrix::zeros(2, 4),
        Matrix::from_fn(1, 4, |_, c| c as f32),
        Matrix::from_fn(4, 1, |r, _| r as f32 - 1.0),
        vec![],
        vec![],
    );
    fused_scatter_case(a, Matrix::zeros(2, 4), vec![], vec![], None, vec![], 3);
}
